//! A break-even bisection evaluates its two bracket endpoints in one
//! batch, so each pair member explores its state space once and re-rates
//! it for the other endpoint: 2 explorations for a two-member pair, where
//! two sequential endpoint batches explored 4 times.
//!
//! This file deliberately holds a single test: the `dtc_core::instrument`
//! counters are process-wide, and Rust runs every test of one binary in
//! the same process — a sibling test evaluating models concurrently would
//! pollute the deltas. One test per binary means one process, so the
//! deltas are exact.

use dtc_core::instrument;
use dtc_core::CloudModel;
use dtc_engine::{Catalog, EvalCache};
use dtc_search::breakeven::break_even_years;
use dtc_search::{search_analyses, SearchOptions};
use std::sync::Arc;

/// Two single-site designs of different structure. The hot+warm pair is
/// more available than the lone PM at every disaster rate, so the
/// availability curves never cross and the bisection stops after its
/// endpoints.
const PAIR_TOML: &str = r#"
[catalog]
name = "endpoint-pair"

[search]
availability_floor = 0.99

[[scenario]]
name = "solo"
kind = "custom"
min_running_vms = 1
disaster_years = [100.0]

[[scenario.dc]]
site = "Rio de Janeiro"
hot_pms = 1
vms_per_pm = 1
pm_capacity = 1
backup_link = false

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
"#;

#[test]
fn endpoint_batch_explores_once_per_pair_member() {
    let catalog = Catalog::from_toml_str(PAIR_TOML).expect("test catalog parses");
    let config = catalog.search.clone().expect("test catalog has [search]");
    let scenarios = catalog.expand().expect("test catalog expands");
    let [a, b] = &scenarios[..] else { panic!("two scenarios, got {}", scenarios.len()) };
    let fingerprint = |s: &dtc_engine::Scenario| {
        CloudModel::build(&s.spec).expect("scenario builds").net_fingerprint()
    };
    assert_ne!(fingerprint(a), fingerprint(b), "the pair spans two structural groups");

    let cache = Arc::new(EvalCache::in_memory());
    let explorations0 = instrument::explorations();
    let re_rates0 = instrument::re_rates();
    let outcome =
        break_even_years(a, b, &search_analyses(&config), &cache, &SearchOptions::default());
    let explorations = instrument::explorations() - explorations0;
    let re_rates = instrument::re_rates() - re_rates0;

    assert_eq!(outcome.crossing_years, None, "the hot+warm pair dominates at every rate");
    assert_eq!(outcome.probes, 4, "both members at both endpoints, no bisection step");
    assert_eq!(cache.stats().misses, 4, "every endpoint probe is a cold solve");
    assert_eq!(explorations, 2, "one exploration per pair member");
    assert_eq!(re_rates, 2, "the second endpoint re-rates each member's structure");
}
