//! Guarded evaluation and the shared worker fan-out.
//!
//! Every evaluation in the workspace goes through [`evaluate_all_shared`]
//! (or its unshared reference form [`evaluate_all_guarded`]) and every
//! parallel batch — the engine's `run_batch`, a sensitivity study's
//! perturbed jobs — spreads its work with [`fan_out`]: a scoped thread
//! pool (`std::thread::scope`) pulling indices from a shared counter and
//! collecting results in input order.
//!
//! Each evaluation is isolated with `catch_unwind`: a panic while building
//! or solving one model (for example a non-finite rate that trips a
//! builder assertion) becomes a [`CloudError::Panicked`] for that job
//! instead of poisoning the whole batch.

use crate::analysis::{AnalysisReport, AnalysisRequest};
use crate::error::CloudError;
use crate::metrics::EvalOptions;
use crate::system::{CloudModel, CloudSystemSpec};
use dtc_petri::TangibleStructure;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Builds one spec and runs a whole analysis set against a single
/// state-space construction ([`CloudModel::evaluate_all`]), converting
/// panics into errors. Explores from scratch every time: the unshared
/// reference that [`evaluate_all_shared`] must match byte for byte.
pub fn evaluate_all_guarded(
    spec: &CloudSystemSpec,
    requests: &[AnalysisRequest],
    opts: &EvalOptions,
) -> Result<Vec<AnalysisReport>, CloudError> {
    guard(|| CloudModel::build(spec).and_then(|model| model.evaluate_all(spec, requests, opts)))
}

/// Batch-scoped pool of explored structures, keyed by structural
/// fingerprint ([`CloudModel::net_fingerprint`]).
///
/// A batch executor creates one registry per batch and routes every job
/// through [`evaluate_all_shared`]: the first job of each structural group
/// explores and publishes its structure; every later sibling re-rates it.
/// Exploration is single-flight per fingerprint — siblings arriving while
/// the first job explores wait for its structure instead of exploring it
/// again — so a batch costs exactly one exploration per structural group.
/// Re-rated graphs are bit-identical to freshly explored ones.
///
/// Structure sharing is an execution detail (like thread counts): it must
/// never leak into cache keys or report bytes.
#[derive(Debug, Default)]
pub struct StructureRegistry {
    inner: Mutex<HashMap<u64, Arc<Slot>>>,
}

/// One structural group: empty until its first exploration publishes.
/// The explorer holds the lock while it explores.
type Slot = Mutex<Option<Arc<TangibleStructure>>>;

/// Locks a slot, recovering it if an explorer panicked while holding it
/// (the slot is then still empty and the next job explores).
fn lock_slot(slot: &Slot) -> std::sync::MutexGuard<'_, Option<Arc<TangibleStructure>>> {
    slot.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

impl StructureRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn slot(&self, fingerprint: u64) -> Arc<Slot> {
        let mut slots = self.inner.lock().expect("registry mutex poisoned");
        Arc::clone(slots.entry(fingerprint).or_default())
    }

    /// Publishes `structure` for `fingerprint` (seeding the registry with
    /// an already-explored structure); the first publication wins.
    pub fn insert(&self, fingerprint: u64, structure: Arc<TangibleStructure>) {
        lock_slot(&self.slot(fingerprint)).get_or_insert(structure);
    }

    /// Number of structural groups with a published structure.
    pub fn len(&self) -> usize {
        let slots: Vec<Arc<Slot>> =
            self.inner.lock().expect("registry mutex poisoned").values().cloned().collect();
        slots.iter().filter(|slot| lock_slot(slot).is_some()).count()
    }

    /// Whether no structure has been published yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Like [`evaluate_all_guarded`], but sharing explorations across a batch
/// through `registry`: if a structure with this spec's fingerprint was
/// already published, the state space is re-rated from it (bit-identical,
/// no exploration); otherwise this job explores — while siblings of the
/// same group wait — and publishes its structure for them.
pub fn evaluate_all_shared(
    spec: &CloudSystemSpec,
    requests: &[AnalysisRequest],
    opts: &EvalOptions,
    registry: &StructureRegistry,
) -> Result<Vec<AnalysisReport>, CloudError> {
    guard(|| {
        let model = CloudModel::build(spec)?;
        let slot = registry.slot(model.net_fingerprint());
        let mut published = lock_slot(&slot);
        let graph = match published.clone() {
            Some(structure) => {
                drop(published);
                model.state_space_from(opts, Some(&structure))?
            }
            None => {
                let graph = model.state_space_from(opts, None)?;
                *published = Some(Arc::clone(graph.structure()));
                // Release the slot before solving: siblings wait for the
                // structure, not for this job's solve.
                drop(published);
                graph
            }
        };
        model.evaluate_all_on(spec, &graph, requests, opts)
    })
}

/// Converts panics inside `f` into [`CloudError::Panicked`].
fn guard<T>(f: impl FnOnce() -> Result<T, CloudError>) -> Result<T, CloudError> {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(result) => result,
        Err(payload) => {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".to_string());
            Err(CloudError::Panicked(msg))
        }
    }
}

/// Runs `job(i)` for every `i` in `0..n` on a scoped pool of `threads`
/// workers (clamped to `1..=n`) that pull indices from a shared counter,
/// and returns the results in index order.
///
/// When the calling thread has a request trace installed, every worker
/// installs it too, so the spans `job` records land in the caller's tree.
pub fn fan_out<T: Send>(n: usize, threads: usize, job: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let threads = threads.max(1).min(n.max(1));
    let next = AtomicUsize::new(0);
    let slots: Mutex<Vec<Option<T>>> = Mutex::new((0..n).map(|_| None).collect());
    let tracing = dtc_obs::trace::current();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                let _trace_guard = tracing.as_ref().map(|t| t.install());
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let out = job(i);
                    slots.lock().expect("fan-out slots poisoned")[i] = Some(out);
                }
            });
        }
    });
    slots
        .into_inner()
        .expect("fan-out slots poisoned")
        .into_iter()
        .map(|o| o.expect("every index filled"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::{ComponentParams, VmParams};
    use crate::system::{DataCenterSpec, PmSpec};

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

    fn steady(spec: &CloudSystemSpec, registry: &StructureRegistry) -> Result<f64, CloudError> {
        let reports = evaluate_all_shared(
            spec,
            &[AnalysisRequest::SteadyState],
            &EvalOptions::default(),
            registry,
        )?;
        Ok(crate::analysis::first_steady_state(&reports).expect("requested").availability)
    }

    #[test]
    fn fan_out_preserves_order_and_monotonicity() {
        let specs: Vec<_> = [500.0, 1000.0, 2000.0, 4000.0].map(tiny).into();
        let registry = StructureRegistry::new();
        let out = fan_out(specs.len(), 4, |i| steady(&specs[i], &registry).unwrap());
        assert_eq!(out.len(), 4);
        for pair in out.windows(2) {
            assert!(pair[1] > pair[0], "availability should rise with PM MTTF");
        }
        assert_eq!(registry.len(), 1, "rate-only siblings share one structure");
    }

    #[test]
    fn fan_out_handles_zero_threads_and_empty_input() {
        assert_eq!(fan_out(3, 0, |i| i * 2), vec![0, 2, 4]);
        assert!(fan_out(0, 4, |i| i).is_empty());
    }

    #[test]
    fn fan_out_carries_the_callers_trace_into_workers() {
        let ctx = dtc_obs::trace::TraceContext::new(dtc_obs::trace::TraceId::generate());
        {
            let _installed = dtc_obs::trace::install(&ctx);
            fan_out(4, 2, |_| drop(dtc_obs::trace::trace_span("job")));
        }
        let snapshot = ctx.snapshot();
        let jobs = snapshot.spans.iter().filter(|s| s.name == "job").count();
        assert_eq!(jobs, 4, "every worker's span lands in the caller's tree");
    }

    #[test]
    fn individual_failures_are_captured() {
        let mut bad = tiny(1000.0);
        bad.min_running_vms = 99;
        let specs = [tiny(1000.0), bad];
        let registry = StructureRegistry::new();
        let out = fan_out(specs.len(), 2, |i| steady(&specs[i], &registry));
        assert!(out[0].is_ok());
        assert!(out[1].is_err());
    }

    #[test]
    fn panicking_scenario_becomes_error_not_batch_poison() {
        // A NaN MTTF sails past spec validation (the ComponentParams value
        // is forged with a struct literal, skipping `new`) and trips the
        // positive-rate assertion inside the Petri-net builder — a panic.
        let mut evil = tiny(1000.0);
        evil.ospm = ComponentParams { mttf_hours: f64::NAN, mttr_hours: 12.0 };
        let specs = [tiny(1000.0), evil, tiny(2000.0)];
        let registry = StructureRegistry::new();
        let out = fan_out(specs.len(), 2, |i| steady(&specs[i], &registry));
        assert!(out[0].is_ok());
        assert!(
            matches!(&out[1], Err(CloudError::Panicked(msg)) if msg.contains("positive")),
            "expected Panicked, got {:?}",
            out[1]
        );
        assert!(out[2].is_ok(), "batch must survive a panicking scenario");
    }
}
