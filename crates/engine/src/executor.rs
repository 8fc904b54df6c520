//! Cached, deduplicated, parallel evaluation of scenario batches.
//!
//! The upgraded sweep executor: scenarios are keyed by structural hash
//! first, identical specs are folded together (grid cells often share a
//! baseline), and the remaining unique specs fan out over a scoped worker
//! pool where every solve goes through the cache's **single-flight** entry
//! point ([`EvalCache::get_or_compute`]). The cache is shared by
//! [`Arc`], so any number of concurrent batches — e.g. simultaneous
//! `dtc-serve` requests — collapse identical solves into one, within and
//! across batches. The fan-out is [`dtc_core::sweep::fan_out`] and
//! per-scenario panics are isolated by
//! [`dtc_core::sweep::evaluate_all_shared`].

use crate::cache::{CacheStats, EvalCache, Fetch};
use crate::catalog::Scenario;
use crate::hash::{canonical_encoding_with, SpecKey};
use dtc_core::analysis::{AnalysisReport, AnalysisRequest};
use dtc_core::metrics::{AvailabilityReport, EvalOptions};
use dtc_core::sweep::{evaluate_all_shared, fan_out, StructureRegistry};
use dtc_core::CloudError;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

/// How a scenario's report was obtained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Provenance {
    /// Solved in this batch.
    Evaluated,
    /// Copied from another scenario in this batch with an identical spec.
    Deduplicated,
    /// Served by the evaluation cache.
    Cached,
}

/// Result for one scenario of a batch.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Index into the input batch.
    pub index: usize,
    /// Scenario name.
    pub name: String,
    /// Structural hash of spec + options.
    pub key: SpecKey,
    /// Where the result came from.
    pub provenance: Provenance,
    /// The evaluation result: the full analysis-report union, in the
    /// batch's request order (shared with the cache via [`Arc`]).
    pub reports: Result<Arc<Vec<AnalysisReport>>, CloudError>,
}

impl Outcome {
    /// The steady-state report, if one was requested and the scenario
    /// succeeded — the value the availability table/CSV columns render.
    pub fn steady(&self) -> Option<&AvailabilityReport> {
        self.reports.as_ref().ok().and_then(|r| dtc_core::analysis::first_steady_state(r))
    }

    /// The report union as a slice (empty on error).
    pub fn analyses(&self) -> &[AnalysisReport] {
        self.reports.as_deref().map(Vec::as_slice).unwrap_or(&[])
    }
}

/// A whole batch's outcomes plus cache statistics.
#[derive(Debug)]
pub struct BatchResult {
    /// Per-scenario outcomes, in input order.
    pub outcomes: Vec<Outcome>,
    /// Unique specs actually solved in this batch.
    pub evaluated: usize,
    /// Scenarios answered by folding onto an identical spec in the batch.
    pub deduplicated: usize,
    /// Scenarios answered from the cache store.
    pub cached: usize,
    /// Cache counters after the batch.
    pub cache_stats: CacheStats,
    /// Wall-clock time spent solving.
    pub solve_time: Duration,
}

impl BatchResult {
    /// Scenarios that did not require solving a model (cache + dedup).
    pub fn total_hits(&self) -> usize {
        self.cached + self.deduplicated
    }
}

/// Execution knobs for a batch.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// Thread budget for the whole batch (`0` = one per available core,
    /// resolved by [`dtc_markov::par::resolve_threads`]). [`run_batch`]
    /// runs `min(budget, unique specs)` batch workers and gives each
    /// worker's unset `sweep_threads` and `solver.threads` the rest:
    /// `budget / workers`.
    pub threads: usize,
    /// Numeric evaluation options (also part of every cache key).
    pub eval: EvalOptions,
    /// Analyses to run per scenario (also part of every cache key). The
    /// default is steady state only — the pre-v2 behavior.
    pub analyses: Vec<AnalysisRequest>,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            threads: 0,
            eval: EvalOptions::default(),
            analyses: vec![AnalysisRequest::SteadyState],
        }
    }
}

/// Evaluates a batch of scenarios with dedup and caching.
///
/// The cache is taken by [`Arc`] because every unique spec is resolved
/// through [`EvalCache::get_or_compute`]: concurrent `run_batch` calls
/// sharing one cache (the `dtc-serve` hot path) block on each other's
/// in-progress solves instead of duplicating them.
///
/// Successful reports are inserted into `cache`; errors are never cached.
/// Call [`EvalCache::persist`] afterwards to flush a disk-backed cache.
///
/// Explorations are shared within the batch through a fresh
/// [`StructureRegistry`]; [`run_batch_shared`] shares them across batches.
pub fn run_batch(
    scenarios: &[Scenario],
    cache: &Arc<EvalCache>,
    opts: &RunOptions,
) -> BatchResult {
    run_batch_shared(scenarios, cache, opts, &StructureRegistry::new())
}

/// [`run_batch`] with a caller-owned structure pool: a cache miss whose
/// net structure `registry` already holds — from this batch or an earlier
/// one, such as a design search's candidate batch and its break-even
/// probes — re-rates it instead of exploring (bit-identical results, see
/// [`dtc_core::sweep::evaluate_all_shared`]). Purely an execution detail:
/// cache keys and report bytes are unchanged.
pub fn run_batch_shared(
    scenarios: &[Scenario],
    cache: &Arc<EvalCache>,
    opts: &RunOptions,
    registry: &StructureRegistry,
) -> BatchResult {
    let keyed: Vec<(SpecKey, String)> = scenarios
        .iter()
        .map(|s| {
            let canonical = canonical_encoding_with(&s.spec, &opts.eval, &opts.analyses);
            (crate::hash::key_of_encoding(&canonical), canonical)
        })
        .collect();

    // Fold batch-internal duplicates: each scenario is either the
    // representative of its key (and gets resolved below) or a duplicate
    // pointing at an earlier representative.
    let mut first_of_key: HashMap<&str, usize> = HashMap::new();
    let mut representative: Vec<usize> = Vec::with_capacity(scenarios.len());
    let mut uniques: Vec<usize> = Vec::new();
    let mut deduplicated = 0usize;
    for (i, (key, _)) in keyed.iter().enumerate() {
        match first_of_key.get(key.0.as_str()) {
            Some(&rep) => {
                deduplicated += 1;
                representative.push(rep);
            }
            None => {
                first_of_key.insert(key.0.as_str(), i);
                uniques.push(i);
                representative.push(i);
            }
        }
    }
    cache.note_batch(scenarios.len(), uniques.len());

    // Resolve every unique spec over a scoped worker pool; each solve goes
    // through the cache's single-flight gate.
    type Resolved = (Result<Arc<Vec<AnalysisReport>>, CloudError>, Fetch);
    let budget = dtc_markov::par::resolve_threads(opts.threads);
    let threads = budget.min(uniques.len().max(1));
    // The resolved worker count lands on the caller's open span
    // (`design_search`, `run`, a request's `evaluate`), so a batch that
    // runs on one worker shows in its trace.
    dtc_obs::trace::attr_int("workers", threads as i64);
    // Analyses that fan out internally (the sensitivity sweep) share the
    // batch's thread budget instead of multiplying it: with W batch
    // workers an unset sweep_threads becomes ⌊budget / W⌋ (at least 1),
    // so a batch never runs more than ~budget solver threads at once. An
    // explicit sweep_threads is the caller's business and passes through.
    let mut eval = opts.eval.clone();
    if eval.sweep_threads == 0 {
        eval.sweep_threads = (budget / threads).max(1);
    }
    // Same budget split for the solver's parallel kernel (the uniformized
    // march): an unset solver.threads shares the batch budget across
    // workers, so a single-scenario `dtc run --threads N` (or a one-request
    // `/v2/evaluate` with `--eval-threads N`) gives the march all N
    // threads while a wide batch stays at ~N total. Safe to derive
    // after keying: thread counts are excluded from cache identity because
    // the kernels are bit-identical at every value (`dtc_markov::par`).
    if eval.solver.threads == 0 {
        eval.solver.threads = (budget / threads).max(1);
    }
    // Structure pool: grid cells usually differ only in rates (same
    // places/transitions/arcs), so after the first cache miss of each
    // structural group explores, every later miss in the group re-rates
    // that structure instead of re-exploring.
    let t0 = std::time::Instant::now();
    let resolved: Vec<Resolved> = fan_out(uniques.len(), threads, |u| {
        let i = uniques[u];
        let (key, canonical) = &keyed[i];
        let _scenario_span = dtc_obs::trace::trace_span("scenario");
        dtc_obs::trace::attr_str("name", &scenarios[i].name);
        let outcome = cache.get_or_compute(key, canonical, || {
            evaluate_all_shared(&scenarios[i].spec, &opts.analyses, &eval, registry)
                .map(Arc::new)
        });
        dtc_obs::trace::event(
            "cache_lookup",
            &[
                (
                    "outcome",
                    match outcome.1 {
                        Fetch::Hit => "hit",
                        Fetch::Computed => "miss",
                        Fetch::Joined => "join",
                    }
                    .into(),
                ),
                ("key", key.0.as_str().into()),
            ],
        );
        outcome
    });
    let solve_time = t0.elapsed();

    // Assemble outcomes: representatives first, then duplicates copy them.
    let mut evaluated = 0usize;
    let mut cached = 0usize;
    let mut outcomes: Vec<Option<Outcome>> = vec![None; scenarios.len()];
    for (&i, (reports, fetch)) in uniques.iter().zip(resolved) {
        let provenance = match fetch {
            Fetch::Computed => {
                evaluated += 1;
                Provenance::Evaluated
            }
            Fetch::Hit | Fetch::Joined => {
                cached += 1;
                Provenance::Cached
            }
        };
        outcomes[i] = Some(Outcome {
            index: i,
            name: scenarios[i].name.clone(),
            key: keyed[i].0.clone(),
            provenance,
            reports,
        });
    }
    for (i, &rep) in representative.iter().enumerate() {
        if rep == i {
            continue;
        }
        let reports = outcomes[rep]
            .as_ref()
            .expect("representatives are resolved before duplicates")
            .reports
            .clone();
        outcomes[i] = Some(Outcome {
            index: i,
            name: scenarios[i].name.clone(),
            key: keyed[i].0.clone(),
            provenance: Provenance::Deduplicated,
            reports,
        });
    }

    BatchResult {
        outcomes: outcomes.into_iter().map(|o| o.expect("all indices planned")).collect(),
        evaluated,
        deduplicated,
        cached,
        cache_stats: cache.stats(),
        solve_time,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtc_core::params::{ComponentParams, VmParams};
    use dtc_core::system::{CloudSystemSpec, DataCenterSpec, PmSpec};

    fn tiny(mttf: f64) -> CloudSystemSpec {
        CloudSystemSpec {
            ospm: ComponentParams::new(mttf, 12.0),
            vm: VmParams { mttf_hours: 2880.0, mttr_hours: 0.5, start_hours: 0.1 },
            data_centers: vec![DataCenterSpec {
                label: "1".into(),
                pms: vec![PmSpec::hot(1, 1)],
                disaster: None,
                nas_net: None,
                backup_inbound_mtt_hours: None,
            }],
            backup: None,
            direct_mtt_hours: vec![vec![None]],
            min_running_vms: 1,
            migration_threshold: 1,
        }
    }

    fn scenario(name: &str, spec: CloudSystemSpec) -> Scenario {
        Scenario {
            name: name.into(),
            spec,
            secondary: None,
            alpha: None,
            disaster_years: None,
            machines: None,
            is_baseline: false,
            expect_availability: None,
        }
    }

    #[test]
    fn dedup_folds_identical_specs_with_identical_output() {
        let batch = vec![
            scenario("a", tiny(1000.0)),
            scenario("b", tiny(2000.0)),
            scenario("a-again", tiny(1000.0)),
            scenario("a-thrice", tiny(1000.0)),
        ];
        let cache = std::sync::Arc::new(EvalCache::in_memory());
        let result = run_batch(&batch, &cache, &RunOptions::default());
        assert_eq!(result.evaluated, 2, "only two unique specs solved");
        assert_eq!(result.deduplicated, 2);
        assert!(result.total_hits() >= 2, "shared specs count as hits");
        let a = result.outcomes[0].reports.as_ref().unwrap();
        let a2 = result.outcomes[2].reports.as_ref().unwrap();
        let a3 = result.outcomes[3].reports.as_ref().unwrap();
        assert_eq!(a, a2, "deduplicated output must be bit-identical");
        assert_eq!(a, a3);
        assert_eq!(result.outcomes[2].provenance, Provenance::Deduplicated);
        assert_ne!(
            result.outcomes[0].steady().unwrap().availability,
            result.outcomes[1].steady().unwrap().availability
        );
    }

    #[test]
    fn second_run_is_all_cache_hits() {
        let batch = vec![scenario("a", tiny(1000.0)), scenario("b", tiny(2000.0))];
        let cache = std::sync::Arc::new(EvalCache::in_memory());
        let first = run_batch(&batch, &cache, &RunOptions::default());
        assert_eq!(first.evaluated, 2);
        assert_eq!(first.cached, 0);

        let second = run_batch(&batch, &cache, &RunOptions::default());
        assert_eq!(second.evaluated, 0, "everything served from cache");
        assert_eq!(second.cached, 2);
        for (x, y) in first.outcomes.iter().zip(&second.outcomes) {
            assert_eq!(
                x.reports.as_ref().unwrap(),
                y.reports.as_ref().unwrap(),
                "cached output identical"
            );
            assert_eq!(y.provenance, Provenance::Cached);
        }
    }

    #[test]
    fn different_eval_options_do_not_share_cache_entries() {
        let batch = vec![scenario("a", tiny(1000.0))];
        let cache = std::sync::Arc::new(EvalCache::in_memory());
        run_batch(&batch, &cache, &RunOptions::default());
        let mut opts = RunOptions::default();
        opts.eval.method = dtc_markov::Method::Direct;
        let r = run_batch(&batch, &cache, &opts);
        assert_eq!(r.cached, 0, "different solver, different key");
        assert_eq!(r.evaluated, 1);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn multi_analysis_batches_fan_out_the_report_union() {
        let batch = vec![scenario("a", tiny(1000.0))];
        let cache = std::sync::Arc::new(EvalCache::in_memory());
        let opts = RunOptions {
            analyses: vec![
                AnalysisRequest::SteadyState,
                AnalysisRequest::Mttsf,
                AnalysisRequest::CapacityThresholds,
            ],
            ..RunOptions::default()
        };
        let result = run_batch(&batch, &cache, &opts);
        let reports = result.outcomes[0].reports.as_ref().unwrap();
        assert_eq!(reports.len(), 3);
        assert_eq!(reports[0].kind(), "steady_state");
        assert_eq!(reports[1].kind(), "mttsf");
        assert_eq!(reports[2].kind(), "capacity_thresholds");
        assert!(result.outcomes[0].steady().is_some());

        // A different analysis set is a different cache identity…
        let single = run_batch(&batch, &cache, &RunOptions::default());
        assert_eq!(single.evaluated, 1, "steady-only set does not share the 3-set entry");
        assert_eq!(cache.len(), 2);
        // …while re-running the same set is a pure hit.
        let again = run_batch(&batch, &cache, &opts);
        assert_eq!(again.evaluated, 0);
        assert_eq!(again.cached, 1);
        assert_eq!(again.outcomes[0].reports.as_ref().unwrap(), reports);
    }

    #[test]
    fn failures_propagate_and_are_not_cached() {
        let mut bad = tiny(1000.0);
        bad.min_running_vms = 99;
        let batch = vec![
            scenario("ok", tiny(1000.0)),
            scenario("bad", bad.clone()),
            scenario("bad-again", bad),
        ];
        let cache = std::sync::Arc::new(EvalCache::in_memory());
        let result = run_batch(&batch, &cache, &RunOptions::default());
        assert!(result.outcomes[0].reports.is_ok());
        assert!(result.outcomes[1].reports.is_err());
        assert!(
            result.outcomes[2].reports.is_err(),
            "duplicates of a failing spec fail identically"
        );
        assert_eq!(cache.len(), 1, "only the success is memoized");

        // Re-running re-attempts the failure (it was never cached) …
        let again = run_batch(&batch, &cache, &RunOptions::default());
        assert_eq!(again.evaluated, 1);
        assert!(again.outcomes[1].reports.is_err());
    }
}
