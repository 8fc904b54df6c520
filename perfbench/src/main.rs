//! The dtcloud benchmark: four workloads, end-to-end metrics with tracing
//! off, per-layer metrics from a separate traced run.
//!
//! ```text
//! dtc-perfbench --workload fig7_steady|sla_month|search7_cold|serve_miss
//!               --seed N --seconds S --trace 0|1 [--size full|smoke]
//! ```
//!
//! Every run sets up five times (the median is `setup_s`), then repeats
//! whole rounds of a fixed, seeded operation list until `--seconds` of
//! timed work have elapsed, checks every output, and prints one JSON
//! object as the last line of standard output. See `README.md`.

mod alloc;
mod fig7;
mod http;
mod search;
mod serve;
mod sla;
mod spans;
mod stats;

use dtc_core::analysis::AnalysisReport;
use dtc_engine::{run_batch, EvalCache, Provenance};
use spans::Tracer;
use stats::{median, median_or_zero, quantile};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 5;

/// Workload size: `Full` is what the benchmark measures; `Smoke` runs the
/// same code path and checks on small models in seconds, for tests.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Size {
    Full,
    Smoke,
}

#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub size: Size,
}

/// Everything one run measured.
#[derive(Default)]
pub struct Measured {
    pub setup_s: Vec<f64>,
    /// Wall time of each timed operation (`op_p50_s`).
    pub op_s: Vec<f64>,
    /// Operations that solved (`miss_*`).
    pub miss_s: Vec<f64>,
    /// Operations answered from the cache (`hit_p50_ms`).
    pub hit_s: Vec<f64>,
    /// Quantile reported as `miss_tail_ms`.
    pub miss_tail_q: f64,
    /// Seconds of timed rounds (set-up and checks excluded).
    pub timed_s: f64,
    pub attempted: u64,
    pub failed: u64,
    pub peak_heap: usize,
    /// Run-level check failures; any makes `correct` false.
    pub problems: Vec<String>,
    /// Per-layer samples from the traced run, one per traced operation.
    pub layers: BTreeMap<&'static str, Vec<f64>>,
    /// Untraced / traced wall time of operations run both ways.
    pub untraced_s: Vec<f64>,
    pub traced_s: Vec<f64>,
}

impl Measured {
    /// Counts one attempted operation; `problem` marks it failed.
    pub fn op(&mut self, problem: Option<String>) {
        self.attempted += 1;
        if let Some(p) = problem {
            self.failed += 1;
            eprintln!("failed operation: {p}");
        }
    }

    /// Records a run-level check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            let msg = what();
            eprintln!("check failed: {msg}");
            self.problems.push(msg);
        }
    }

    /// Files the wall time of one solving operation: as an op and a miss
    /// on an untraced run; on a traced run, as traced or untraced time.
    pub fn solved(&mut self, wall: f64, tracing: bool, traced: bool) {
        match (tracing, traced) {
            (false, _) => {
                self.op_s.push(wall);
                self.miss_s.push(wall);
            }
            (true, true) => self.traced_s.push(wall),
            (true, false) => self.untraced_s.push(wall),
        }
    }

    pub fn layer(&mut self, name: &'static str, value: f64) {
        self.layers.entry(name).or_default().push(value);
    }

    pub fn note_peak(&mut self) {
        self.peak_heap = self.peak_heap.max(alloc::peak());
    }
}

/// The per-layer metrics, in output order, with units.
pub const LAYER_METRICS: &[(&str, &str)] = &[
    ("core.compile_ms", "ms"),
    ("core.self_s", "s"),
    ("petri.explore_s", "s"),
    ("petri.states", "count"),
    ("petri.edges", "count"),
    ("petri.explore_us_per_state", "us"),
    ("petri.explorations", "count"),
    ("petri.re_rates", "count"),
    ("petri.rerate_ms", "ms"),
    ("petri.self_s", "s"),
    ("markov.stationary_s", "s"),
    ("markov.gs_sweeps", "count"),
    ("markov.ms_per_sweep", "ms"),
    ("markov.residual_l1", "norm"),
    ("markov.uniformize_ms", "ms"),
    ("markov.march_s", "s"),
    ("markov.march_steps", "count"),
    ("markov.us_per_step", "us"),
    ("markov.self_s", "s"),
    ("engine.key_us", "us"),
    ("engine.batch_overhead_ms", "ms"),
    ("engine.store_open_ms", "ms"),
    ("engine.json_parse_ms", "ms"),
    ("engine.persist_first_ms", "ms"),
    ("engine.persist_last_ms", "ms"),
    ("engine.store_bytes", "bytes"),
    ("engine.persist_errors", "count"),
    ("engine.self_s", "s"),
    ("search.rank_ms", "ms"),
    ("search.break_even_ms", "ms"),
    ("search.probe_evaluations", "count"),
    ("search.self_s", "s"),
    ("serve.server_ms", "ms"),
    ("serve.wait_ms", "ms"),
    ("serve.self_s", "s"),
    ("unaccounted_share", "share"),
    ("trace_overhead_share", "share"),
];

/// Per-layer values of one traced `run_batch`/`run_search` operation,
/// read from the span tree below `op`. `compile_s` and `key_s` are the
/// benchmark's own timings of the same calls on the same specs: those two
/// run inside `run_batch` without a span of their own.
pub fn record_op_layers(m: &mut Measured, t: &Tracer, op: usize, compile_s: f64, key_s: f64) {
    let explore: Vec<_> = t.named_under(op, "explore").collect();
    let explore_s: f64 = explore.iter().map(|s| s.duration_s()).sum();
    let states: f64 = explore.iter().filter_map(|s| s.attr("states")).sum();
    let edges: f64 = explore.iter().filter_map(|s| s.attr("edges")).sum();
    m.layer("petri.explore_s", explore_s);
    m.layer("petri.states", states);
    m.layer("petri.edges", edges);
    m.layer(
        "petri.explore_us_per_state",
        if states > 0.0 { explore_s * 1e6 / states } else { 0.0 },
    );
    m.layer("petri.rerate_ms", t.sum_under(op, "re_rate") * 1e3);

    let stationary_s = t.sum_under(op, "stationary_solve");
    m.layer("markov.stationary_s", stationary_s);
    m.layer("markov.uniformize_ms", t.sum_under(op, "uniformized_build") * 1e3);
    let march_s = t.sum_under(op, "march");
    let steps: f64 = t.named_under(op, "march").filter_map(|s| s.attr("truncation_k")).sum();
    m.layer("markov.march_s", march_s);
    m.layer("markov.march_steps", steps);
    m.layer("markov.us_per_step", if steps > 0.0 { march_s * 1e6 / steps } else { 0.0 });

    let selfs = t.layer_self_s(op);
    let self_of =
        |layer: &str| selfs.iter().find(|(l, _)| *l == layer).map_or(0.0, |(_, s)| *s);
    // Compile and keying run inside the engine's spans; move their
    // measured cost from the engine's self time to the layers that own it.
    let engine_self = self_of("engine") - compile_s - key_s;
    m.layer("core.self_s", self_of("core") + compile_s);
    m.layer("petri.self_s", self_of("petri"));
    m.layer("markov.self_s", self_of("markov"));
    m.layer("engine.self_s", engine_self.max(0.0));
    m.layer("engine.batch_overhead_ms", engine_self.max(0.0) * 1e3);
    m.layer("search.self_s", self_of("search"));
    m.layer("serve.self_s", self_of("serve"));

    let wall = t.spans[op].duration_s();
    let covered = t.covered_under(op, |n| {
        matches!(spans::layer_of(n), "petri" | "markov")
            || matches!(n, "cache_persist" | "frontier")
    });
    m.layer("unaccounted_share", ((wall - covered - compile_s - key_s) / wall).max(0.0));
}

/// Repeats whole rounds of `ops` operations until `seconds` of timed work
/// have been done (at least one round). `op(m, i, traced)` runs operation
/// `i` of the round. A traced run traces every other operation; the rest
/// give the untraced times the tracing overhead is measured against.
pub fn rounds(
    m: &mut Measured,
    seconds: f64,
    tracing: bool,
    ops: usize,
    mut op: impl FnMut(&mut Measured, usize, bool),
) {
    let mut r = 0usize;
    while m.timed_s < seconds || r == 0 {
        alloc::reset_peak();
        let t = Instant::now();
        for i in 0..ops {
            op(m, i, tracing && (r + i).is_multiple_of(2));
        }
        m.timed_s += t.elapsed().as_secs_f64();
        m.note_peak();
        r += 1;
    }
}

/// Cache-hit repeats after each cold solve.
pub const HITS_PER_SOLVE: usize = 25;

/// One scenario through `run_batch` alone with a fresh in-memory cache,
/// then [`HITS_PER_SOLVE`] repeats against the now-warm cache (counted as
/// operations and checked to return the solve's key and values). Returns
/// the solve's wall time and its reports, or why it failed; the caller
/// checks the values and counts the solve.
pub fn cold_solve(
    m: &mut Measured,
    s: &dtc_engine::Scenario,
    opts: &dtc_engine::RunOptions,
    tracer: Option<&mut Tracer>,
) -> (f64, Result<Arc<Vec<AnalysisReport>>, String>) {
    let cache = Arc::new(EvalCache::in_memory());
    let batch = std::slice::from_ref(s);
    let (wall, result) = match tracer {
        None => {
            let t = Instant::now();
            let result = run_batch(batch, &cache, opts);
            (t.elapsed().as_secs_f64(), result)
        }
        Some(t) => {
            let (compile_s, key_s) = match unspanned_calls(m, t, &s.spec, opts) {
                Ok(times) => times,
                Err(e) => return (0.0, Err(format!("{}: {e}", s.name))),
            };
            let counters = Counters::read();
            let op = t.begin("op", None);
            let (_, result) = t.call("run_batch", Some(op), || run_batch(batch, &cache, opts));
            t.end(op);
            counters.record_delta(m, t.sum_under(op, "stationary_solve"));
            record_op_layers(m, t, op, compile_s, key_s);
            (t.spans[op].duration_s(), result)
        }
    };
    let outcome = &result.outcomes[0];
    let reports = match (&outcome.reports, outcome.provenance) {
        (Err(e), _) => Err(format!("{}: {e}", s.name)),
        (Ok(r), Provenance::Evaluated) => Ok(Arc::clone(r)),
        (Ok(_), p) => Err(format!("{}: {p:?}, not solved in this batch", s.name)),
    };

    for _ in 0..HITS_PER_SOLVE {
        let t = Instant::now();
        let hit = run_batch(batch, &cache, opts);
        m.hit_s.push(t.elapsed().as_secs_f64());
        let h = &hit.outcomes[0];
        let same = matches!((&h.reports, &reports), (Ok(a), Ok(b)) if a == b);
        m.op((!(h.provenance == Provenance::Cached && h.key == outcome.key && same))
            .then(|| format!("{}: cache hit differs from its solve", s.name)));
    }
    (wall, reports)
}

/// The process-wide exploration and solver counters, read before a traced
/// operation so their deltas can be recorded after it.
pub struct Counters {
    explorations: u64,
    re_rates: u64,
    sweeps: u64,
}

impl Counters {
    pub fn read() -> Counters {
        Counters {
            explorations: dtc_core::instrument::explorations(),
            re_rates: dtc_core::instrument::re_rates(),
            sweeps: dtc_markov::instrument::stationary_iterations(),
        }
    }

    /// Records the deltas since [`Counters::read`]; `stationary_s` is the
    /// time the sweeps took.
    pub fn record_delta(&self, m: &mut Measured, stationary_s: f64) {
        let now = Counters::read();
        let sweeps = (now.sweeps - self.sweeps) as f64;
        m.layer("petri.explorations", (now.explorations - self.explorations) as f64);
        m.layer("petri.re_rates", (now.re_rates - self.re_rates) as f64);
        m.layer("markov.gs_sweeps", sweeps);
        m.layer(
            "markov.ms_per_sweep",
            if sweeps > 0.0 { stationary_s * 1e3 / sweeps } else { 0.0 },
        );
    }
}

/// Compiles every spec (`CloudModel::build`): part of every set-up.
pub fn compile_all<'a>(
    specs: impl IntoIterator<Item = &'a dtc_core::system::CloudSystemSpec>,
) -> Result<(), String> {
    for spec in specs {
        let model = dtc_core::CloudModel::build(spec).map_err(|e| format!("compile: {e}"))?;
        std::hint::black_box(model);
    }
    Ok(())
}

/// The two calls `run_batch` makes per spec without a span of its own —
/// `CloudModel::build` and the canonical encoding + key hash — made again
/// by the benchmark under `compile` and `key` spans. Returns their seconds,
/// which stand in for the same calls inside `run_batch`.
pub fn unspanned_calls(
    m: &mut Measured,
    t: &mut Tracer,
    spec: &dtc_core::system::CloudSystemSpec,
    opts: &dtc_engine::RunOptions,
) -> Result<(f64, f64), String> {
    let (compile, model) = t.call("compile", None, || dtc_core::CloudModel::build(spec));
    model.map_err(|e| format!("compile: {e}"))?;
    let (key, _) = t.call("key", None, || {
        let canonical = dtc_engine::canonical_encoding_with(spec, &opts.eval, &opts.analyses);
        std::hint::black_box(dtc_engine::hash::key_of_encoding(&canonical))
    });
    let (compile_s, key_s) = (t.spans[compile].duration_s(), t.spans[key].duration_s());
    m.layer("core.compile_ms", compile_s * 1e3);
    m.layer("engine.key_us", key_s * 1e6);
    Ok((compile_s, key_s))
}

/// ‖πQ‖₁ of a stationary vector, summed over the generator's rows.
pub fn residual_l1(ctmc: &dtc_markov::Ctmc, pi: &[f64]) -> f64 {
    let q = ctmc.generator();
    let mut y = vec![0.0f64; q.ncols()];
    for (i, &p) in pi.iter().enumerate() {
        let (cols, vals) = q.row(i);
        for (&j, &v) in cols.iter().zip(vals) {
            y[j as usize] += p * v;
        }
    }
    y.iter().map(|v| v.abs()).sum()
}

/// A steady solve through the public layer functions — compile, explore,
/// stationary solve — returning (availability, ‖πQ‖₁).
pub fn steady_by_layers(
    spec: &dtc_core::system::CloudSystemSpec,
) -> Result<(f64, f64), String> {
    let model = dtc_core::CloudModel::build(spec).map_err(|e| format!("compile: {e}"))?;
    let eval = dtc_core::metrics::EvalOptions::default();
    let graph = model.state_space(&eval).map_err(|e| format!("explore: {e}"))?;
    let sol = graph.solve_with(eval.method, &eval.solver).map_err(|e| format!("solve: {e}"))?;
    let residual = residual_l1(graph.ctmc(), sol.probabilities());
    Ok((sol.probability(&model.availability_expr()), residual))
}

/// Directory for the files a run writes (stores, span dumps), inside the
/// checkout the benchmark runs from.
pub fn work_dir() -> std::path::PathBuf {
    let dir = std::path::PathBuf::from(".bench_work");
    std::fs::create_dir_all(&dir).expect("create the benchmark work directory");
    dir
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        size: Size::Full,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {value:?}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(bad)?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| format!("bad --seconds {value:?}"))?
            }
            "--trace" => args.trace = value == "1",
            "--size" => {
                args.size = match value.as_str() {
                    "full" => Size::Full,
                    "smoke" => Size::Smoke,
                    _ => return Err(format!("bad --size {value:?} (full|smoke)")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

fn metric(out: &mut Vec<String>, name: &str, value: f64, unit: &str) {
    // `+ 0.0` turns the -0.0 of an empty float sum into 0.
    let value = if value.is_finite() { value + 0.0 } else { 0.0 };
    out.push(format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"));
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("dtc-perfbench: {e}");
            std::process::exit(2);
        }
    };
    let mut tracer = args.trace.then(Tracer::new);
    let m = match args.workload.as_str() {
        "fig7_steady" => fig7::run(&args, tracer.as_mut()),
        "sla_month" => sla::run(&args, tracer.as_mut()),
        "search7_cold" => search::run(&args, tracer.as_mut()),
        "serve_miss" => serve::run(&args, tracer.as_mut()),
        w => Err(format!("unknown workload {w:?}")),
    };
    let m = match m {
        Ok(m) => m,
        Err(e) => {
            eprintln!("dtc-perfbench: {e}");
            std::process::exit(1);
        }
    };

    let mut out = Vec::new();
    if let Some(t) = &tracer {
        let path = work_dir().join(format!("{}-seed{}.spans.jsonl", args.workload, args.seed));
        match std::fs::write(&path, t.to_jsonl()) {
            Ok(()) => eprintln!("spans: {} ({} spans)", path.display(), t.spans.len()),
            Err(e) => eprintln!("spans not written: {e}"),
        }
        for &(name, unit) in LAYER_METRICS {
            let value = if name == "trace_overhead_share" {
                if m.traced_s.is_empty() {
                    0.0
                } else {
                    median(&m.traced_s) / median(&m.untraced_s) - 1.0
                }
            } else {
                m.layers.get(name).map_or(0.0, |v| median_or_zero(v))
            };
            metric(&mut out, name, value, unit);
        }
    } else {
        metric(&mut out, "setup_s", median(&m.setup_s), "s");
        metric(&mut out, "op_p50_s", median(&m.op_s), "s");
        metric(&mut out, "peak_heap_mb", m.peak_heap as f64 / (1024.0 * 1024.0), "MB");
        metric(&mut out, "miss_p50_ms", median(&m.miss_s) * 1e3, "ms");
        metric(&mut out, "miss_tail_ms", quantile(&m.miss_s, m.miss_tail_q) * 1e3, "ms");
        metric(&mut out, "hit_p50_ms", median(&m.hit_s) * 1e3, "ms");
        let ops = (m.miss_s.len() + m.hit_s.len()) as f64;
        metric(&mut out, "requests_per_s", ops / m.timed_s, "1/s");
    }
    eprintln!(
        "{}: {} operations ({} failed), {} timed rounds-seconds {:.2}, {} misses, {} hits",
        args.workload,
        m.attempted,
        m.failed,
        m.op_s.len(),
        m.timed_s,
        m.miss_s.len(),
        m.hit_s.len()
    );
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        m.problems.is_empty(),
        m.attempted,
        m.failed,
        out.join(", ")
    );
}
