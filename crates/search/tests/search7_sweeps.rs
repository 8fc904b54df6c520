//! The steady solver's work on the bundled search7 space: in the candidate
//! batch (break-even bisection off) the 191 candidates of the 10-, 25- and
//! 216-state structures are solved by elimination and the 22 of the
//! 1,020- and 4,350-state structures by sweeps, and the batch must finish
//! within 10,000 iterations summed over every solve (an elimination counts
//! as one). Plain sweeps spent 204,120 there; the safeguarded
//! extrapolation brought it to ~35,000, and elimination to ~5,500. The
//! counts are deterministic — each solve's work depends only on its model,
//! not on which worker runs it.
//!
//! This file deliberately holds a single test: the `dtc_markov::instrument`
//! counters are process-wide, and Rust runs every test of one binary in
//! the same process — a sibling test solving models concurrently would
//! pollute the deltas. One test per binary means one process, so the
//! deltas are exact.

use dtc_engine::EvalCache;
use dtc_markov::instrument;
use dtc_search::{catalogs, run_search, SearchOptions};
use std::sync::Arc;

/// Iteration ceiling for the whole candidate batch.
const MAX_SWEEPS: u64 = 10_000;

#[test]
fn search7_candidate_batch_stays_within_its_sweep_budget() {
    let catalog = catalogs::search7();
    let mut config = catalog.search.clone().expect("search7 has a [search] section");
    config.break_even = false;
    let cache = Arc::new(EvalCache::in_memory());

    let sweeps0 = instrument::stationary_iterations();
    let (accepted0, _) = instrument::extrapolations();
    let eliminated0 = instrument::eliminations();
    let fallbacks0 = instrument::direct_fallbacks();
    let report =
        run_search(&catalog, &config, &cache, &SearchOptions::default()).expect("search runs");
    let sweeps = instrument::stationary_iterations() - sweeps0;
    let accepted = instrument::extrapolations().0 - accepted0;
    let eliminated = instrument::eliminations() - eliminated0;
    let swept = report.distinct_specs as u64 - eliminated;

    assert!(report.failed.is_empty(), "{:?}", report.failed);
    assert_eq!(report.stats.evaluated, report.distinct_specs, "a cold cache solves every spec");
    eprintln!(
        "search7 candidate batch: {sweeps} iterations, {accepted} accepted jumps, \
         {eliminated} eliminated and {swept} swept solves"
    );
    assert_eq!((eliminated, swept), (191, 22), "solves by elimination and by sweeps");
    assert_eq!(instrument::direct_fallbacks(), fallbacks0, "no solve fell back");
    assert!(sweeps <= MAX_SWEEPS, "{sweeps} Gauss–Seidel sweeps > {MAX_SWEEPS}");
    assert!(accepted > 0, "the batch's solves take extrapolation jumps");
}
