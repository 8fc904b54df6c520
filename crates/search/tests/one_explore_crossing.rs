//! One structure registry serves a whole design search: the candidate
//! batch and every break-even probe batch (endpoints and each midpoint)
//! re-rate the structures the search has already explored. On the
//! two-candidate crossing catalog of `search_cache.rs` a search costs 2
//! explorations — one per candidate structure — where a fresh registry
//! per batch explored 32 times (2 candidate, 2 endpoint, 28 across 14
//! midpoints).
//!
//! This file deliberately holds a single test: the `dtc_core::instrument`
//! counters are process-wide, and Rust runs every test of one binary in
//! the same process — a sibling test evaluating models concurrently would
//! pollute the deltas. One test per binary means one process, so the
//! deltas are exact.

use dtc_core::instrument;
use dtc_engine::{Catalog, EvalCache};
use dtc_search::{run_search, SearchOptions};
use std::sync::Arc;

/// The crossing catalog of `search_cache.rs`: a one-site hot+warm pair
/// against a two-site warm standby, whose availability curves cross
/// inside the probed disaster range.
const CROSSING_TOML: &str = r#"
[catalog]
name = "crossing"

[search]
availability_floor = 0.99
break_even = true
max_break_even_pairs = 4

[search.cost]
downtime_cost_per_hour = 1000.0

[[scenario]]
name = "spare"
kind = "custom"
min_running_vms = 1
disaster_years = [100.0]

[[scenario.dc]]
site = "Rio de Janeiro"
hot_pms = 1
warm_pms = 1
vms_per_pm = 1
pm_capacity = 1
backup_link = false

[[scenario]]
name = "dr"
kind = "custom"
min_running_vms = 1
alpha = [0.85]
disaster_years = [100.0]
backup_site = "Sao Paulo"

[[scenario.dc]]
site = "Rio de Janeiro"
hot_pms = 1
vms_per_pm = 1
pm_capacity = 1
nas_net = false

[[scenario.dc]]
site = "Brasilia"
warm_pms = 1
vms_per_pm = 1
pm_capacity = 1
nas_net = false
"#;

#[test]
fn a_search_with_break_even_explores_once_per_candidate_structure() {
    let catalog = Catalog::from_toml_str(CROSSING_TOML).expect("test catalog parses");
    let config = catalog.search.clone().expect("test catalog has [search]");
    let cache = Arc::new(EvalCache::in_memory());

    let explorations0 = instrument::explorations();
    let re_rates0 = instrument::re_rates();
    let report =
        run_search(&catalog, &config, &cache, &SearchOptions::default()).expect("search runs");
    let explorations = instrument::explorations() - explorations0;
    let re_rates = instrument::re_rates() - re_rates0;

    assert_eq!(report.candidates.len(), 2);
    assert_eq!(report.break_even.len(), 1);
    assert!(report.break_even[0].disaster_years.is_some(), "the pair crosses");
    let probes = report.stats.probe_evaluations;
    assert!(probes >= 6, "the bisection probed past its endpoints: {probes}");
    assert_eq!(explorations, 2, "one exploration per candidate structure");
    assert_eq!(re_rates as usize, probes, "every break-even probe re-rates");
}
