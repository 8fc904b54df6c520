//! The search's thread budget is a scheduling knob only. The bundled
//! search7 space, searched with break-even bisection on at `threads` = 1,
//! 2 and 0 (one per available core), must render byte-identical canonical
//! JSON and spend the same bisection probes. A default-budget search must
//! also record its resolved batch worker count on its `design_search`
//! span, so a search that runs on one worker shows in its trace.

use dtc_engine::EvalCache;
use dtc_obs::trace::{install, AttrValue, TraceContext, TraceId};
use dtc_search::report::report_to_value;
use dtc_search::{catalogs, run_search, SearchOptions, SearchReport};
use std::sync::Arc;

/// Each break-even pair with its crossing (as raw bits) and probe count.
fn crossings(report: &SearchReport) -> Vec<(String, String, Option<u64>, usize)> {
    report
        .break_even
        .iter()
        .map(|b| {
            (b.cheaper.clone(), b.richer.clone(), b.disaster_years.map(f64::to_bits), b.probes)
        })
        .collect()
}

#[test]
fn search7_with_break_even_is_identical_at_every_thread_budget() {
    let catalog = catalogs::search7();
    let config = catalog.search.clone().expect("search7 has a [search] section");
    assert!(config.break_even, "bundled search7 bisects its frontier pairs");
    let search = |threads: usize| {
        let cache = Arc::new(EvalCache::in_memory());
        let opts = SearchOptions { threads, ..SearchOptions::default() };
        run_search(&catalog, &config, &cache, &opts).expect("search runs")
    };

    let serial = search(1);
    assert!(serial.failed.is_empty(), "{:?}", serial.failed);
    assert!(!serial.break_even.is_empty(), "the frontier has pairs to bisect");
    let serial_json = report_to_value(&serial).to_json();
    for threads in [2, 0] {
        let report = search(threads);
        assert_eq!(
            report_to_value(&report).to_json(),
            serial_json,
            "threads = {threads}: canonical JSON differs from the serial search"
        );
        assert_eq!(crossings(&report), crossings(&serial), "threads = {threads}");
        assert_eq!(
            report.stats.probe_evaluations, serial.stats.probe_evaluations,
            "threads = {threads}"
        );
    }
}

#[test]
fn default_search_records_its_resolved_worker_count() {
    let catalog = catalogs::search7();
    let mut config = catalog.search.clone().expect("search7 has a [search] section");
    config.break_even = false;
    let ctx = TraceContext::new(TraceId::generate());
    let report = {
        let _installed = install(&ctx);
        let cache = Arc::new(EvalCache::in_memory());
        run_search(&catalog, &config, &cache, &SearchOptions::default()).expect("search runs")
    };
    let span = ctx
        .snapshot()
        .spans
        .into_iter()
        .find(|s| s.name == "design_search")
        .expect("a design_search span");
    let workers = span.attrs.into_iter().find(|(k, _)| k == "workers").expect("workers attr").1;
    // One worker per available core, unless the batch has fewer specs.
    let expected = dtc_engine::resolve_threads(0).min(report.distinct_specs);
    assert_eq!(workers, AttrValue::Int(expected as i64));
}
