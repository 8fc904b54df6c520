//! Regenerates the paper's **Table VII** — availability of the eight
//! baseline architectures — and prints paper-vs-measured side by side.
//!
//! Thin wrapper over the scenario engine: the architectures come from the
//! bundled `table7` catalog (which carries the paper's published values as
//! `expect_availability`), evaluation runs through the content-addressed
//! cache, and the five two-data-center rows solve the full Fig. 6 model
//! (~126 000 tangible states each) — expect a few minutes of wall-clock
//! time. Equivalent CLI: `dtc table7`.
//!
//! ```sh
//! cargo run --release -p dtc-bench --bin table7
//! ```

use dtc_engine::prelude::*;

fn main() {
    let catalog = dtc_engine::catalogs::table7();
    let scenarios = catalog.expand().expect("bundled catalog expands");
    let opts =
        RunOptions { threads: dtc_engine::resolve_threads(0).min(4), ..Default::default() };
    eprintln!("evaluating {} architectures on {} threads…", scenarios.len(), opts.threads);
    let cache = std::sync::Arc::new(EvalCache::in_memory());
    let result = run_batch(&scenarios, &cache, &opts);
    eprintln!("{}", render_summary(&result));

    println!("Table VII — availability of the baseline architectures");
    print!("{}", render(&scenarios, &result, Format::Table));

    println!("\nShape checks (the orderings tests/paper_shape.rs pins):");
    let avail: Vec<f64> = result
        .outcomes
        .iter()
        .map(|o| o.steady().map(|r| r.availability).unwrap_or(f64::NAN))
        .collect();
    let check = |label: &str, ok: bool| {
        println!("  [{}] {label}", if ok { "ok" } else { "VIOLATED" });
    };
    check("single-DC ordering: 1 PM < 2 PM < 4 PM", avail[0] < avail[1] && avail[1] < avail[2]);
    check(
        "every two-DC architecture beats every single-DC one",
        avail[3..].iter().all(|a| *a > avail[2]),
    );
    check(
        "two-DC availability decreases with distance (Brasilia…Tokio)",
        avail[3..].windows(2).all(|w| w[0] > w[1]),
    );
}
