//! `serve_miss`: an in-process `dtc serve` under a miss-heavy request mix.
//!
//! The server runs 2 HTTP workers with 1 evaluation thread on a
//! disk-backed store pre-filled with solved entries. Two closed-loop
//! clients each send a fixed, seeded list of `POST /v2/evaluate` requests:
//! most are new one-PM specs with a distinct VM MTTF (misses, each of
//! which persists the store); the rest repeat one of the same client's
//! earlier specs (hits). Every round starts again from the pre-filled
//! store, so every round sees the same store sizes.

use crate::http::{self, Reply};
use crate::spans::Tracer;
use crate::stats::Rng;
use crate::{Args, Measured, Size};
use dtc_core::metrics::EvalOptions;
use dtc_engine::value::Value;
use dtc_engine::{run_batch, Catalog, EvalCache, RunOptions};
use dtc_serve::{ServeConfig, Server};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Barrier};
use std::time::Instant;

const CLIENTS: usize = 2;

struct Sizes {
    prefill: usize,
    /// Per client.
    misses: usize,
    /// Per client.
    hits: usize,
}

fn sizes(size: Size) -> Sizes {
    match size {
        Size::Full => Sizes { prefill: 60, misses: 40, hits: 8 },
        Size::Smoke => Sizes { prefill: 6, misses: 6, hits: 2 },
    }
}

/// One request of a client's list: miss `k` solves spec `k`; hit `k`
/// repeats it.
#[derive(Clone, Copy)]
enum Req {
    Miss(usize),
    Hit(usize),
}

fn body(name: &str, mttf: f64) -> String {
    format!(
        r#"{{"catalog": {{"name": "{name}"}}, "params": {{"min_running_vms": 1, "vm": {{"mttf_hours": {mttf:.2}, "mttr_hours": 0.5}}}}, "scenario": [{{"name": "vm", "kind": "custom", "dc": [{{"site": {{"name": "Origin", "lat": 0.0, "lon": 0.0}}, "hot_pms": 1, "vms_per_pm": 1, "pm_capacity": 1, "disaster": false, "nas_net": false, "backup_link": false}}]}}]}}"#
    )
}

/// The run's inputs, all drawn from the seed.
struct Inputs {
    /// VM MTTF of each miss spec, hours (distinct).
    miss_mttf: Vec<f64>,
    miss_body: Vec<String>,
    lists: Vec<Vec<Req>>,
    prefill_body: Vec<String>,
}

fn inputs(args: &Args) -> Inputs {
    let n = sizes(args.size);
    let mut rng = Rng::new(args.seed);
    let total = CLIENTS * n.misses;
    let miss_mttf: Vec<f64> =
        rng.distinct(8000, total).into_iter().map(|k| 2000.0 + 0.25 * k as f64).collect();
    let miss_body =
        miss_mttf.iter().enumerate().map(|(k, &h)| body(&format!("miss-{k}"), h)).collect();
    let lists = (0..CLIENTS)
        .map(|c| {
            let len = n.misses + n.hits;
            let hit_at: BTreeSet<usize> =
                rng.distinct(len - 1, n.hits).into_iter().map(|p| p + 1).collect();
            let mut sent = Vec::new();
            (0..len)
                .map(|p| {
                    if hit_at.contains(&p) {
                        Req::Hit(sent[rng.below(sent.len())])
                    } else {
                        let k = c * n.misses + sent.len();
                        sent.push(k);
                        Req::Miss(k)
                    }
                })
                .collect()
        })
        .collect();
    let prefill_body =
        (0..n.prefill).map(|i| body(&format!("prefill-{i}"), 6000.0 + i as f64)).collect();
    Inputs { miss_mttf, miss_body, lists, prefill_body }
}

fn catalog_of(body: &str) -> Result<dtc_engine::Scenario, String> {
    let mut s = Catalog::from_json_str(body)
        .and_then(|c| c.expand())
        .map_err(|e| format!("request catalog: {e}"))?;
    s.pop().ok_or_else(|| "request catalog expands to nothing".into())
}

/// Solves the pre-fill specs into a fresh store at `path`.
fn write_prefill(inputs: &Inputs, path: &Path) -> Result<Vec<String>, String> {
    let _ = std::fs::remove_file(path);
    let scenarios =
        inputs.prefill_body.iter().map(|b| catalog_of(b)).collect::<Result<Vec<_>, _>>()?;
    let cache = Arc::new(EvalCache::fresh_store(path));
    let analyses =
        Catalog::from_json_str(&inputs.prefill_body[0]).map_err(|e| e.to_string())?.analyses;
    let result = run_batch(
        &scenarios,
        &cache,
        &RunOptions { threads: 1, analyses, ..RunOptions::default() },
    );
    if result.evaluated != scenarios.len() {
        return Err(format!(
            "pre-fill solved {} of {} specs",
            result.evaluated,
            scenarios.len()
        ));
    }
    cache.persist().map_err(|e| format!("pre-fill persist: {e}"))?;
    Ok(cache.keys())
}

/// Parses and compiles every request spec, opens the round's store, starts
/// the server. Returns it with the store-open time.
fn setup(inputs: &Inputs, store: &Path) -> Result<(Server, f64), String> {
    for b in &inputs.miss_body {
        let s = catalog_of(b)?;
        dtc_core::CloudModel::build(&s.spec).map_err(|e| format!("compile: {e}"))?;
    }
    let t = Instant::now();
    let cache = EvalCache::with_store(store).map_err(|e| format!("store open: {e}"))?;
    let open_s = t.elapsed().as_secs_f64();
    let config = ServeConfig {
        addr: "127.0.0.1:0".into(),
        threads: CLIENTS,
        queue: 16,
        eval_threads: 1,
        cache_path: None,
        cache_cap: None,
    };
    let server = Server::start_with(&config, Arc::new(cache))
        .map_err(|e| format!("server start: {e}"))?;
    Ok((server, open_s))
}

struct Sent {
    req: Req,
    started: Instant,
    latency_s: f64,
    reply: std::io::Result<Reply>,
}

/// Runs both clients' lists to completion; returns every request and the
/// round's wall time.
fn drive(server: &Server, inputs: &Inputs, path: &str) -> (Vec<Sent>, f64) {
    let addr = server.addr();
    let t = Instant::now();
    let sent = std::thread::scope(|scope| {
        let handles: Vec<_> = inputs
            .lists
            .iter()
            .map(|list| {
                scope.spawn(move || {
                    list.iter()
                        .map(|&req| {
                            let k = match req {
                                Req::Miss(k) | Req::Hit(k) => k,
                            };
                            let started = Instant::now();
                            let reply = http::post(addr, path, &inputs.miss_body[k]);
                            Sent {
                                req,
                                started,
                                latency_s: started.elapsed().as_secs_f64(),
                                reply,
                            }
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("client thread panicked")).collect()
    });
    (sent, t.elapsed().as_secs_f64())
}

/// What a response says about its one scenario.
struct Answer {
    key: String,
    source: String,
    availability: f64,
    analyses: Value,
    doc: Value,
}

fn answer(sent: &Sent) -> Result<Answer, String> {
    let reply = sent.reply.as_ref().map_err(|e| format!("request failed: {e}"))?;
    if reply.status != 200 {
        return Err(format!("status {}: {}", reply.status, reply.body));
    }
    let doc =
        Value::from_json(&reply.body).map_err(|e| format!("response does not parse: {e}"))?;
    let row = doc
        .get("results")
        .and_then(|r| r.as_array())
        .and_then(|r| r.first())
        .ok_or("no results")?;
    let field = |k: &str| {
        row.get(k).and_then(|v| v.as_str()).map(str::to_string).ok_or(format!("no {k}"))
    };
    Ok(Answer {
        key: field("key")?,
        source: field("source")?,
        availability: row
            .get("report")
            .and_then(|r| r.get("availability"))
            .and_then(|a| a.as_f64())
            .ok_or("no availability")?,
        analyses: row.get("analyses").cloned().ok_or("no analyses")?,
        doc,
    })
}

pub fn run(args: &Args, mut tracer: Option<&mut Tracer>) -> Result<Measured, String> {
    let mut m = Measured {
        miss_tail_q: if args.size == Size::Full { 0.9 } else { 1.0 },
        ..Measured::default()
    };
    let inputs = inputs(args);
    let dir = crate::work_dir();
    let tag = format!("serve-{}-{}", args.seed, std::process::id());
    let prefill_path = dir.join(format!("{tag}-prefill.json"));
    let store = dir.join(format!("{tag}-store.json"));
    let prefill_keys = write_prefill(&inputs, &prefill_path)?;
    // The in-process answer for every miss spec, to check the server by.
    let expected: Vec<f64> = inputs
        .miss_body
        .iter()
        .map(|b| {
            let s = catalog_of(b)?;
            let model = dtc_core::CloudModel::build(&s.spec).map_err(|e| e.to_string())?;
            model
                .evaluate(&EvalOptions::default())
                .map(|r| r.availability)
                .map_err(|e| e.to_string())
        })
        .collect::<Result<_, _>>()?;

    let (mut compile_s, mut key_s) = (Vec::new(), Vec::new());
    if let Some(t) = tracer.as_deref_mut() {
        let first = catalog_of(&inputs.miss_body[0])?.spec;
        m.layer("markov.residual_l1", crate::steady_by_layers(&first)?.1);
        let opts = RunOptions::default();
        for b in &inputs.miss_body {
            let (c, k) = crate::unspanned_calls(&mut m, t, &catalog_of(b)?.spec, &opts)?;
            compile_s.push(c);
            key_s.push(k);
        }
    }
    let unspanned =
        (crate::stats::median_or_zero(&compile_s), crate::stats::median_or_zero(&key_s));

    let start = |m: &mut Measured| -> Result<(Server, f64), String> {
        std::fs::copy(&prefill_path, &store).map_err(|e| format!("copy pre-fill: {e}"))?;
        let t = Instant::now();
        let started = setup(&inputs, &store)?;
        m.setup_s.push(t.elapsed().as_secs_f64());
        Ok(started)
    };
    for _ in 1..crate::SETUPS {
        let (server, _) = start(&mut m)?;
        server.shutdown().map_err(|e| format!("shutdown: {e}"))?;
    }

    let mut miss_availability: Vec<Option<f64>> = vec![None; inputs.miss_body.len()];
    let mut r = 0usize;
    while m.timed_s < args.seconds || r == 0 {
        // The traced run traces every other round; the rest give the
        // untraced times the tracing overhead is measured against.
        let traced = tracer.is_some() && r.is_multiple_of(2);
        let (server, open_s) = start(&mut m)?;
        crate::alloc::reset_peak();
        let path = if traced { "/v2/evaluate?trace=1" } else { "/v2/evaluate" };
        let (sent, wall) = drive(&server, &inputs, path);
        m.timed_s += wall;
        m.note_peak();
        server.shutdown().map_err(|e| format!("shutdown: {e}"))?;

        let latencies: Vec<f64> = sent.iter().map(|s| s.latency_s).collect();
        match &tracer {
            Some(_) if traced => m.traced_s.extend(&latencies),
            Some(_) => m.untraced_s.extend(&latencies),
            None => {
                m.op_s.extend(&latencies);
                for s in &sent {
                    match s.req {
                        Req::Miss(_) => m.miss_s.push(s.latency_s),
                        Req::Hit(_) => m.hit_s.push(s.latency_s),
                    }
                }
            }
        }
        check_round(&mut m, &inputs, &sent, &expected, &mut miss_availability);
        check_store(&mut m, &store, &prefill_keys, &sent);
        if let (true, Some(t)) = (traced, tracer.as_deref_mut()) {
            m.layer("engine.store_open_ms", open_s * 1e3);
            record_spans(t, &sent);
            record_serve_layers(&mut m, &sent, unspanned);
            record_store_layers(
                &mut m,
                &prefill_path,
                &store,
                &dir.join(format!("{tag}-probe.json")),
            )?;
        }
        r += 1;
    }

    // Availability does not fall as the generated VM MTTF rises.
    let mut by_mttf: Vec<(f64, f64)> = inputs
        .miss_mttf
        .iter()
        .zip(&miss_availability)
        .filter_map(|(&h, a)| a.map(|a| (h, a)))
        .collect();
    by_mttf.sort_by(|a, b| a.0.total_cmp(&b.0));
    if let Some(w) = by_mttf.windows(2).find(|w| w[1].1 < w[0].1) {
        m.check(false, || {
            format!(
                "availability falls from {} to {} as VM MTTF rises {} → {} h",
                w[0].1, w[1].1, w[0].0, w[1].0
            )
        });
    }
    for p in [&prefill_path, &store, &dir.join(format!("{tag}-probe.json"))] {
        let _ = std::fs::remove_file(p);
        let _ = std::fs::remove_file(p.with_extension("json.tmp"));
    }
    Ok(m)
}

/// One `request` span per client request, with the server's own span tree
/// (returned inline) placed so that it ends when the reply arrived.
fn record_spans(t: &mut Tracer, sent: &[Sent]) {
    for s in sent {
        let start = t.offset_ns(s.started);
        let end = start + (s.latency_s * 1e9) as u64;
        let id = t.add("op", None, start, end);
        if let (Ok(reply), Ok(a)) = (&s.reply, answer(s)) {
            let server_ns = reply.server_us.unwrap_or(0) * 1000;
            if let Some(trace) = a.doc.get("trace") {
                t.import_value(id, end.saturating_sub(server_ns), trace);
            }
        }
    }
}

/// Per-request checks: every response is a 200; a miss solved and matches
/// the in-process evaluation; a hit came from the cache with the key and
/// values of the miss that filled it.
fn check_round(
    m: &mut Measured,
    inputs: &Inputs,
    sent: &[Sent],
    expected: &[f64],
    avail: &mut [Option<f64>],
) {
    let mut miss_answer: Vec<Option<Answer>> =
        (0..inputs.miss_body.len()).map(|_| None).collect();
    for s in sent.iter().filter(|s| matches!(s.req, Req::Miss(_))) {
        let Req::Miss(k) = s.req else { unreachable!("filtered to misses") };
        let problem = match answer(s) {
            Err(e) => Some(format!("miss {k}: {e}")),
            Ok(a) if a.source != "solved" => {
                Some(format!("miss {k}: answered from {:?}", a.source))
            }
            Ok(a) if a.availability != expected[k] => Some(format!(
                "miss {k}: availability {} but in-process {}",
                a.availability, expected[k]
            )),
            Ok(a) => {
                avail[k] = Some(a.availability);
                miss_answer[k] = Some(a);
                None
            }
        };
        m.op(problem);
    }
    for s in sent.iter().filter(|s| matches!(s.req, Req::Hit(_))) {
        let Req::Hit(k) = s.req else { unreachable!("filtered to hits") };
        let problem = match (answer(s), &miss_answer[k]) {
            (Err(e), _) => Some(format!("hit {k}: {e}")),
            (Ok(_), None) => Some(format!("hit {k}: its miss failed")),
            (Ok(h), Some(a))
                if h.source != "cache" || h.key != a.key || h.analyses != a.analyses =>
            {
                Some(format!("hit {k}: {:?} answer differs from its miss", h.source))
            }
            (Ok(_), Some(_)) => None,
        };
        m.op(problem);
    }
}

/// After shutdown the store holds exactly the pre-fill plus the misses.
fn check_store(m: &mut Measured, store: &Path, prefill: &[String], sent: &[Sent]) {
    let mut want: BTreeSet<String> = prefill.iter().cloned().collect();
    for s in sent.iter().filter(|s| matches!(s.req, Req::Miss(_))) {
        if let Ok(a) = answer(s) {
            want.insert(a.key);
        }
    }
    match EvalCache::with_store(store) {
        Ok(c) => {
            let got: BTreeSet<String> = c.keys().into_iter().collect();
            m.check(got == want, || {
                format!("reopened store has {} entries, expected {}", got.len(), want.len())
            });
        }
        Err(e) => m.check(false, || format!("reopening the store: {e}")),
    }
}

fn find_spans<'a>(v: &'a Value, name: &str, out: &mut Vec<&'a Value>) {
    if v.get("name").and_then(|n| n.as_str()) == Some(name) {
        out.push(v);
    }
    for key in ["spans", "children"] {
        for child in v.get(key).and_then(|c| c.as_array()).unwrap_or_default() {
            find_spans(child, name, out);
        }
    }
}

/// Seconds in the server-side spans called `name`, and their count.
fn span_total(trace: &Value, name: &str, attr: &str) -> (f64, usize, f64) {
    let mut found = Vec::new();
    find_spans(trace, name, &mut found);
    let us: i64 =
        found.iter().filter_map(|s| s.get("duration_us").and_then(|d| d.as_i64())).sum();
    let attr_sum: f64 = found
        .iter()
        .filter_map(|s| s.get("attrs").and_then(|a| a.get(attr)).and_then(|v| v.as_f64()))
        .sum();
    (us as f64 * 1e-6, found.len(), attr_sum)
}

/// Serve, engine, petri and markov values of a traced round, from the
/// client's latency, the server's `x-dtc-duration-us`, and the response's
/// `timings` and inline span tree. `unspanned` is the benchmark's own time
/// for compiling and for keying one spec, which a miss does without spans.
fn record_serve_layers(m: &mut Measured, sent: &[Sent], unspanned: (f64, f64)) {
    let (compile_s, key_s) = unspanned;
    for s in sent {
        let (Ok(reply), Ok(a)) = (&s.reply, answer(s)) else { continue };
        let server_s = reply.server_us.unwrap_or(0) as f64 * 1e-6;
        let timing = |k: &str| {
            a.doc.get("timings").and_then(|t| t.get(k)).and_then(|v| v.as_i64()).unwrap_or(0)
                as f64
                * 1e-6
        };
        let (expand, evaluate, persist) =
            (timing("expand_us"), timing("evaluate_us"), timing("persist_us"));
        let trace = a.doc.get("trace").cloned().unwrap_or_else(Value::table);
        let (explore_s, explorations, states) = span_total(&trace, "explore", "states");
        let (rerate_s, re_rates, _) = span_total(&trace, "re_rate", "states");
        let (stationary_s, _, sweeps) = span_total(&trace, "stationary_solve", "iterations");
        m.layer("serve.server_ms", server_s * 1e3);
        m.layer("serve.wait_ms", (s.latency_s - server_s) * 1e3);
        m.layer("serve.self_s", (server_s - expand - evaluate - persist).max(0.0));
        m.layer("unaccounted_share", ((s.latency_s - server_s) / s.latency_s).max(0.0));
        if let Req::Miss(_) = s.req {
            let (_, _, edges) = span_total(&trace, "explore", "edges");
            m.layer("petri.explore_s", explore_s);
            m.layer("petri.states", states);
            m.layer("petri.edges", edges);
            m.layer(
                "petri.explore_us_per_state",
                if states > 0.0 { explore_s * 1e6 / states } else { 0.0 },
            );
            m.layer("petri.explorations", explorations as f64);
            m.layer("petri.re_rates", re_rates as f64);
            m.layer("petri.rerate_ms", rerate_s * 1e3);
            m.layer("petri.self_s", explore_s + rerate_s);
            m.layer("markov.stationary_s", stationary_s);
            m.layer("markov.gs_sweeps", sweeps);
            m.layer(
                "markov.ms_per_sweep",
                if sweeps > 0.0 { stationary_s * 1e3 / sweeps } else { 0.0 },
            );
            m.layer("markov.self_s", stationary_s);
            let inner = explore_s + rerate_s + stationary_s + compile_s + key_s;
            m.layer("core.self_s", compile_s);
            m.layer("engine.self_s", (expand + evaluate + persist - inner).max(0.0));
            m.layer("engine.batch_overhead_ms", (evaluate - inner).max(0.0) * 1e3);
        }
    }
}

/// Store costs at the round's first and last size, measured by calling
/// the engine on copies of the two stores, plus a probe of two caches
/// persisting the same store at once.
fn record_store_layers(
    m: &mut Measured,
    prefill: &Path,
    store: &Path,
    probe: &PathBuf,
) -> Result<(), String> {
    let text = std::fs::read_to_string(store).map_err(|e| format!("read store: {e}"))?;
    m.layer("engine.store_bytes", text.len() as f64);
    let t = Instant::now();
    Value::from_json(&text).map_err(|e| format!("parse store: {e}"))?;
    m.layer("engine.json_parse_ms", t.elapsed().as_secs_f64() * 1e3);
    for (from, name) in
        [(prefill, "engine.persist_first_ms"), (store, "engine.persist_last_ms")]
    {
        std::fs::copy(from, probe).map_err(|e| format!("copy store: {e}"))?;
        let cache = EvalCache::with_store(probe).map_err(|e| format!("open store: {e}"))?;
        let t = Instant::now();
        cache.persist().map_err(|e| format!("persist: {e}"))?;
        m.layer(name, t.elapsed().as_secs_f64() * 1e3);
    }
    // Two writers of one store, as two HTTP workers are after two misses.
    let a = EvalCache::with_store(probe).map_err(|e| format!("open store: {e}"))?;
    let b = EvalCache::with_store(probe).map_err(|e| format!("open store: {e}"))?;
    let gate = Barrier::new(2);
    let run = |c: &EvalCache| {
        (0..5)
            .filter(|_| {
                gate.wait();
                c.persist().is_err()
            })
            .count()
    };
    let errors: usize = std::thread::scope(|scope| {
        let (ha, hb) = (scope.spawn(|| run(&a)), scope.spawn(|| run(&b)));
        ha.join().expect("persist probe panicked") + hb.join().expect("persist probe panicked")
    });
    m.layer("engine.persist_errors", errors as f64);
    Ok(())
}
