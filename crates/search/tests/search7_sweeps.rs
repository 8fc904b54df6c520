//! The steady solver's sweep budget on the bundled search7 space: the
//! candidate batch (break-even bisection off) must finish within 60,000
//! Gauss–Seidel sweeps summed over every solve. Plain sweeps spent
//! 204,120 there; the safeguarded extrapolation brings it to ~35,000.
//! The count is deterministic — each solve's sweeps depend only on its
//! model, not on which worker runs it.
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

/// Sweep ceiling for the whole candidate batch.
const MAX_SWEEPS: u64 = 60_000;

#[test]
fn search7_candidate_batch_stays_within_its_sweep_budget() {
    let catalog = catalogs::search7();
    let mut config = catalog.search.clone().expect("search7 has a [search] section");
    config.break_even = false;
    let cache = Arc::new(EvalCache::in_memory());

    let sweeps0 = instrument::stationary_iterations();
    let (accepted0, _) = instrument::extrapolations();
    let report =
        run_search(&catalog, &config, &cache, &SearchOptions::default()).expect("search runs");
    let sweeps = instrument::stationary_iterations() - sweeps0;
    let accepted = instrument::extrapolations().0 - accepted0;

    assert!(report.failed.is_empty(), "{:?}", report.failed);
    assert_eq!(report.stats.evaluated, report.distinct_specs, "a cold cache solves every spec");
    eprintln!("search7 candidate batch: {sweeps} sweeps, {accepted} accepted jumps");
    assert!(sweeps <= MAX_SWEEPS, "{sweeps} Gauss–Seidel sweeps > {MAX_SWEEPS}");
    assert!(accepted > 0, "the batch's solves take extrapolation jumps");
}
