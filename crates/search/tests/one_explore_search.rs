//! The one-exploration-per-structural-group contract on the bundled
//! search7 space: evaluating all ~213 candidates costs one full
//! state-space exploration per distinct net structure (one per
//! architecture tier × marking variant), with every other candidate's
//! graph re-rated from its group's shared structure — and the resulting
//! report is byte-identical to the unshared per-spec evaluation path.
//!
//! This file deliberately holds a single test: the `dtc_core::instrument`
//! counters are process-wide, and Rust runs every test of one binary in
//! the same process — a sibling test evaluating models concurrently would
//! pollute the deltas. One test per binary means one process, so the
//! deltas are exact. Break-even bisection is disabled: the pinned claim
//! is about the candidate batch (`one_explore_breakeven.rs` pins a
//! standalone bisection's endpoint batch, `one_explore_crossing.rs` a
//! whole search with its bisection).
//!
//! `SearchOptions::default()` runs the candidate batch on one worker per
//! available core, so the single-flight claim is exercised concurrently:
//! workers of one structural group race for its registry slot, one
//! explores and the others wait and re-rate.

use dtc_core::instrument;
use dtc_core::CloudModel;
use dtc_engine::EvalCache;
use dtc_search::report::report_to_value;
use dtc_search::{catalogs, run_search, search_analyses, SearchOptions};
use std::collections::HashSet;
use std::sync::Arc;

#[test]
fn search7_explores_once_per_structural_group() {
    let catalog = catalogs::search7();
    let mut config = catalog.search.clone().expect("search7 has a [search] section");
    config.break_even = false;

    // The expected group count, from the specs alone: distinct structural
    // fingerprints across the expanded candidates (building a model
    // compiles the net but explores nothing).
    let scenarios = catalog.expand().expect("search7 expands");
    assert!(scenarios.len() >= 200, "search7 is the ~213-candidate space");
    let groups: HashSet<u64> = scenarios
        .iter()
        .map(|s| CloudModel::build(&s.spec).expect("candidate builds").net_fingerprint())
        .collect();
    assert!(
        groups.len() < scenarios.len() / 4,
        "the grid must be rate-dominated: {} groups / {} candidates",
        groups.len(),
        scenarios.len()
    );

    let cache = Arc::new(EvalCache::in_memory());
    let opts = SearchOptions::default();
    let explorations0 = instrument::explorations();
    let re_rates0 = instrument::re_rates();
    let fallbacks0 = instrument::rerate_fallbacks();
    let report = run_search(&catalog, &config, &cache, &opts).expect("search runs");
    let explorations = instrument::explorations() - explorations0;
    let re_rates = instrument::re_rates() - re_rates0;
    let fallbacks = instrument::rerate_fallbacks() - fallbacks0;

    assert!(report.failed.is_empty(), "{:?}", report.failed);
    assert_eq!(report.candidates.len(), scenarios.len());
    assert_eq!(report.stats.evaluated, report.distinct_specs, "cold run solves every spec");
    assert_eq!(
        explorations as usize,
        groups.len(),
        "exactly one exploration per structural group"
    );
    assert_eq!(
        re_rates as usize,
        report.distinct_specs - groups.len(),
        "every other candidate re-rates its group's structure"
    );
    assert_eq!(fallbacks, 0, "a rate-only grid never mismatches a structure");

    // Structure sharing is invisible in the report: spot-check candidates
    // across the grid (every 17th plus the recommendation) against the
    // unshared path, which explores each spec from scratch. Availability
    // must agree bit for bit — re-rating is exact, not approximate.
    let analyses = search_analyses(&config);
    let mut checked = 0;
    for scenario in scenarios.iter().step_by(17) {
        let unshared =
            dtc_core::sweep::evaluate_all_guarded(&scenario.spec, &analyses, &opts.eval)
                .expect("unshared evaluation runs");
        let steady = dtc_core::analysis::first_steady_state(&unshared).unwrap();
        let candidate = report
            .candidates
            .iter()
            .find(|c| c.name == scenario.name)
            .expect("candidate reported");
        assert_eq!(
            candidate.availability.to_bits(),
            steady.availability.to_bits(),
            "{}: shared-structure availability must match the unshared path",
            scenario.name
        );
        checked += 1;
    }
    assert!(checked >= 10, "spot check covers the grid: {checked}");

    // The canonical report is deterministic: a rerun from a cold cache
    // reproduces it byte for byte (run statistics live outside it).
    let rerun = run_search(&catalog, &config, &Arc::new(EvalCache::in_memory()), &opts)
        .expect("rerun runs");
    assert_eq!(report_to_value(&report).to_json(), report_to_value(&rerun).to_json());
}
