//! Runs every workload at `--size smoke` (same code path and output
//! checks as the full size, on small models) in both modes, and checks the
//! result line the benchmark prints.

use dtc_engine::value::Value;
use std::process::Command;

const E2E: [&str; 7] = [
    "setup_s",
    "op_p50_s",
    "peak_heap_mb",
    "miss_p50_ms",
    "miss_tail_ms",
    "hit_p50_ms",
    "requests_per_s",
];

fn run(workload: &str, trace: bool) -> Value {
    let out = Command::new(env!("CARGO_BIN_EXE_dtc-perfbench"))
        .args(["--workload", workload, "--seed", "11", "--seconds", "0.5", "--size", "smoke"])
        .args(["--trace", if trace { "1" } else { "0" }])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{workload}: {}", String::from_utf8_lossy(&out.stderr));
    let last = stdout.lines().last().expect("a result line");
    let doc = Value::from_json(last).expect("the result line is JSON");
    assert_eq!(doc.get("correct").and_then(Value::as_bool), Some(true), "{workload}: {last}");
    assert_eq!(doc.get("failed").and_then(Value::as_i64), Some(0), "{workload}: {last}");
    assert!(
        doc.get("attempted").and_then(Value::as_i64).unwrap_or(0) >= 1,
        "{workload}: {last}"
    );
    doc
}

fn metric(doc: &Value, name: &str) -> f64 {
    doc.get("metrics")
        .and_then(|m| m.get(name))
        .and_then(|m| m.get("value"))
        .and_then(Value::as_f64)
        .unwrap_or_else(|| panic!("metric {name} missing"))
}

fn check(workload: &str) {
    let doc = run(workload, false);
    assert_eq!(doc.get("metrics").and_then(Value::as_table).map(|t| t.len()), Some(E2E.len()));
    for name in E2E {
        let v = metric(&doc, name);
        assert!(v.is_finite() && v > 0.0, "{workload}: {name} = {v}");
    }
    let traced = run(workload, true);
    let share = metric(&traced, "unaccounted_share");
    assert!((0.0..=1.0).contains(&share), "{workload}: unaccounted_share = {share}");
    assert!(metric(&traced, "core.compile_ms") > 0.0);
    assert!(metric(&traced, "petri.explore_s") > 0.0);
}

#[test]
fn fig7_steady() {
    check("fig7_steady");
}

#[test]
fn sla_month() {
    check("sla_month");
}

#[test]
fn search7_cold() {
    check("search7_cold");
}

#[test]
fn serve_miss() {
    check("serve_miss");
}

#[test]
fn unknown_workload_prints_no_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_dtc-perfbench"))
        .args(["--workload", "nope", "--seed", "1", "--seconds", "1", "--trace", "0"])
        .output()
        .expect("benchmark binary runs");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}
