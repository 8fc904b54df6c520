//! `search7_cold`: the bundled 213-candidate design search.
//!
//! A round is two `run_search` calls, each with a cold in-memory cache
//! and an availability floor drawn from the seed (the floor moves the
//! feasible set and the pick, not the work). Each search runs 5
//! explorations, 208 re-rates and the break-even probes over many small
//! models. After each search the same search is repeated against its now
//! warm cache: that is the hit.

use crate::spans::Tracer;
use crate::{compile_all, record_op_layers, unspanned_calls, Args, Counters, Measured, Size};
use dtc_engine::{Catalog, EvalCache, RunOptions, Scenario, SearchConfig};
use dtc_search::{run_search, SearchOptions, SearchReport};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

const FLOORS: [f64; 5] = [0.999, 0.9995, 0.9999, 0.99995, 0.99999];
/// Templates kept by `--size smoke`.
const SMOKE_TEMPLATES: [&str; 3] = ["solo", "spare", "dr-Brasilia"];

fn catalog_text(size: Size) -> String {
    let full = dtc_search::catalogs::SEARCH7_TOML;
    match size {
        Size::Full => full.to_string(),
        Size::Smoke => {
            let mut parts = full.split("\n[[scenario]]\n");
            let mut text = parts.next().unwrap_or_default().to_string();
            for block in parts {
                let name = block.lines().next().unwrap_or_default();
                if SMOKE_TEMPLATES.iter().any(|t| name == format!("name = \"{t}\"")) {
                    text.push_str("\n[[scenario]]\n");
                    text.push_str(block);
                }
            }
            text
        }
    }
}

struct Setup {
    catalog: Catalog,
    scenarios: Vec<Scenario>,
}

fn setup(text: &str) -> Result<Setup, String> {
    let catalog = Catalog::from_toml_str(text).map_err(|e| format!("search catalog: {e}"))?;
    let scenarios = catalog.expand().map_err(|e| format!("search catalog: {e}"))?;
    compile_all(scenarios.iter().map(|s| &s.spec))?;
    Ok(Setup { catalog, scenarios })
}

pub fn run(args: &Args, mut tracer: Option<&mut Tracer>) -> Result<Measured, String> {
    let mut m = Measured { miss_tail_q: 1.0, ..Measured::default() };
    let text = catalog_text(args.size);
    let mut s = None;
    for _ in 0..crate::SETUPS {
        let t = Instant::now();
        s = Some(setup(&text)?);
        m.setup_s.push(t.elapsed().as_secs_f64());
    }
    let s = s.expect("at least one set-up");
    let base = s.catalog.search.clone().ok_or("search catalog has no [search] section")?;
    // What the candidate batch spends compiling and keying, unspanned.
    let (mut compile_sum, mut key_sum) = (0.0, 0.0);
    if let Some(t) = tracer.as_deref_mut() {
        let opts = RunOptions {
            analyses: dtc_search::search_analyses(&base),
            ..RunOptions::default()
        };
        for sc in &s.scenarios {
            let (c, k) = unspanned_calls(&mut m, t, &sc.spec, &opts)?;
            compile_sum += c;
            key_sum += k;
        }
    }
    let mut rng = crate::stats::Rng::new(args.seed);
    let configs: Vec<SearchConfig> = (0..2)
        .map(|_| {
            let mut c = base.clone();
            c.slo.availability_floor = FLOORS[rng.below(FLOORS.len())];
            c
        })
        .collect();

    let tracing = tracer.is_some();
    crate::rounds(&mut m, args.seconds, tracing, configs.len(), |m, i, traced| {
        let config = &configs[i];
        let cache = Arc::new(EvalCache::in_memory());
        let opts = SearchOptions::default();
        let (wall, report) = match if traced { tracer.as_deref_mut() } else { None } {
            None => {
                let t = Instant::now();
                let report = run_search(&s.catalog, config, &cache, &opts);
                (t.elapsed().as_secs_f64(), report)
            }
            Some(t) => {
                let counters = Counters::read();
                let op = t.begin("op", None);
                let (_, report) = t.call("run_search", Some(op), || {
                    run_search(&s.catalog, config, &cache, &opts)
                });
                t.end(op);
                counters.record_delta(m, t.sum_under(op, "stationary_solve"));
                record_op_layers(m, t, op, compile_sum, key_sum);
                record_search_layers(m, t, op, report.as_ref().ok());
                (t.spans[op].duration_s(), report)
            }
        };
        m.solved(wall, tracing, traced);
        let report = report.map_err(|e| format!("search: {e}"));
        m.op(report.as_ref().err().cloned().or_else(|| {
            report
                .as_ref()
                .ok()
                .and_then(|rep| check_search(rep, config, s.scenarios.len()).err())
        }));

        // The hit: the same search against the warm cache.
        let t = Instant::now();
        let warm = run_search(&s.catalog, config, &cache, &opts);
        m.hit_s.push(t.elapsed().as_secs_f64());
        m.op(match (&warm, &report) {
            (Ok(w), Ok(c)) if w.stats.evaluated == 0 && same_answer(w, c) => None,
            _ => Some("warm search re-solved or changed its answer".into()),
        });
    });
    if tracer.is_some() {
        // The last candidate: the largest, active-active tier.
        let largest = &s.scenarios.last().ok_or("search catalog expands to nothing")?.spec;
        m.layer("markov.residual_l1", crate::steady_by_layers(largest)?.1);
    }
    Ok(m)
}

/// `search.*` layer values: ranking is `run_search` minus its candidate
/// batch (the window of its `scenario` spans) and its break-even probes.
fn record_search_layers(
    m: &mut Measured,
    t: &Tracer,
    op: usize,
    report: Option<&SearchReport>,
) {
    let probes: Vec<usize> = (0..t.spans.len())
        .filter(|&i| t.spans[i].name == "break_even" && t.is_under(i, op))
        .collect();
    let in_probe = |i: usize| probes.iter().any(|&p| t.is_under(i, p));
    let batch: Vec<_> = (0..t.spans.len())
        .filter(|&i| t.spans[i].name == "scenario" && t.is_under(i, op) && !in_probe(i))
        .map(|i| &t.spans[i])
        .collect();
    let window =
        match (batch.iter().map(|s| s.start_ns).min(), batch.iter().map(|s| s.end_ns).max()) {
            (Some(a), Some(b)) => (b - a) as f64 * 1e-9,
            _ => 0.0,
        };
    let break_even_s = t.sum_under(op, "break_even");
    let search_s = t.sum_under(op, "design_search");
    m.layer("search.rank_ms", (search_s - window - break_even_s).max(0.0) * 1e3);
    m.layer("search.break_even_ms", break_even_s * 1e3);
    m.layer(
        "search.probe_evaluations",
        report.map_or(0.0, |r| r.stats.probe_evaluations as f64),
    );
}

fn same_answer(a: &SearchReport, b: &SearchReport) -> bool {
    let row = |c: &dtc_search::Candidate| {
        (c.name.clone(), c.availability, c.cost.total(), c.feasible, c.on_frontier)
    };
    a.recommendation == b.recommendation
        && a.frontier == b.frontier
        && a.candidates.iter().map(row).eq(b.candidates.iter().map(row))
}

/// Recomputes the feasible set, the cheapest feasible pick and the Pareto
/// frontier from the returned candidates, and checks that availability
/// does not fall as α rises at a fixed disaster mean time.
fn check_search(
    r: &SearchReport,
    config: &SearchConfig,
    expected: usize,
) -> Result<(), String> {
    if r.candidates.len() != expected || !r.failed.is_empty() {
        return Err(format!(
            "{} candidates and {} failures, expected {expected} and none",
            r.candidates.len(),
            r.failed.len()
        ));
    }
    let slo = &config.slo;
    let feasible = |c: &dtc_search::Candidate| {
        c.availability >= slo.availability_floor
            && slo.cost_ceiling.is_none_or(|x| c.cost.total() <= x)
    };
    if let Some(c) = r.candidates.iter().find(|c| c.feasible != feasible(c)) {
        return Err(format!("{}: feasible flag {} disagrees with the SLO", c.name, c.feasible));
    }
    let pick = r
        .candidates
        .iter()
        .filter(|c| feasible(c))
        .min_by(|a, b| {
            a.cost
                .total()
                .total_cmp(&b.cost.total())
                .then(b.availability.total_cmp(&a.availability))
                .then(a.name.cmp(&b.name))
        })
        .map(|c| c.name.clone());
    if pick != r.recommendation {
        return Err(format!(
            "cheapest feasible is {pick:?}, the search picked {:?}",
            r.recommendation
        ));
    }
    let point = |c: &dtc_search::Candidate| (c.cost.total(), c.availability);
    let dominated = |c: &dtc_search::Candidate| {
        let (cc, ca) = point(c);
        r.candidates.iter().any(|o| {
            let (oc, oa) = point(o);
            oc <= cc && oa >= ca && (oc < cc || oa > ca)
        })
    };
    let mut frontier: Vec<&str> =
        r.candidates.iter().filter(|c| !dominated(c)).map(|c| c.name.as_str()).collect();
    let mut reported: Vec<&str> = r.frontier.iter().map(String::as_str).collect();
    frontier.sort_unstable();
    reported.sort_unstable();
    if frontier != reported || r.candidates.iter().any(|c| c.on_frontier == dominated(c)) {
        return Err(format!(
            "Pareto frontier {frontier:?} differs from the search's {reported:?}"
        ));
    }
    // Within a template at a fixed disaster mean time, by rising α.
    let mut groups: BTreeMap<(&str, u64), Vec<&dtc_search::Candidate>> = BTreeMap::new();
    for c in &r.candidates {
        if let (Some(_), Some(years)) = (c.alpha, c.disaster_years) {
            let template = c.name.split('[').next().unwrap_or_default();
            groups.entry((template, years.to_bits())).or_default().push(c);
        }
    }
    for group in groups.values_mut() {
        group.sort_by(|a, b| a.alpha.partial_cmp(&b.alpha).expect("α is finite"));
        if let Some(w) = group.windows(2).find(|w| w[1].availability < w[0].availability) {
            return Err(format!(
                "availability falls from {} ({}) to {} ({}) as α rises",
                w[0].name, w[0].availability, w[1].name, w[1].availability
            ));
        }
    }
    Ok(())
}
