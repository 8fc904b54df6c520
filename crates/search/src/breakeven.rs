//! Break-even disaster rates between frontier neighbors.
//!
//! Two architectures on the frontier differ in how their availability
//! responds to the disaster rate: a single-site design degrades quickly
//! as disasters become frequent, a two-site design barely moves. The
//! *break-even disaster rate* is where their steady-state availability
//! curves cross — on one side the cheaper architecture is also the more
//! available one and strictly dominates; on the other, the richer
//! architecture's extra infrastructure starts buying real availability.
//!
//! The crossing is found by bisection on the **mean time between
//! disasters** (in log space, since plausible means span 1 to 10⁴
//! years): each probe rebuilds both specs with every data center's
//! disaster MTTF replaced by the probe mean (recovery time kept) and
//! evaluates them through the same shared cache as the search itself, so
//! probes at already-seen rates are hits and repeated searches re-use
//! the whole bisection.
//!
//! The two bracket endpoints go through one batch of four specs at the
//! search's own thread budget, and the two members' solves run side by
//! side. The bisection steps after that are sequential, one two-spec
//! batch per midpoint. Every probe batch shares one structure registry,
//! so each pair member explores its state space at most once and every
//! later probe re-rates it. Inside [`crate::run_search`] that registry is
//! the candidate batch's, so the probes re-rate the structures the
//! candidates explored.

use crate::SearchOptions;
use dtc_core::analysis::{first_steady_state, AnalysisRequest};
use dtc_core::params::HOURS_PER_YEAR;
use dtc_core::sweep::StructureRegistry;
use dtc_core::ComponentParams;
use dtc_engine::{run_batch_shared, EvalCache, RunOptions, Scenario};
use std::sync::Arc;

/// Probe range: mean time between disasters from 1 year to 10 000 years.
/// Outside this span the model is either disaster-dominated or
/// disaster-free — no plausible deployment question lives there.
const MIN_YEARS: f64 = 1.0;
/// Upper end of the probe range (see [`MIN_YEARS`]).
const MAX_YEARS: f64 = 10_000.0;
/// Hard cap on bisection iterations (each costs two CTMC solves).
const MAX_ITERATIONS: usize = 32;
/// Stop once the bracket is this tight (relative). A 0.1% bracket on the
/// disaster mean is far below the precision of any such estimate, and
/// every halving costs two model solves — tighter would be waste.
const REL_TOLERANCE: f64 = 1e-3;

/// The result of one break-even bisection.
#[derive(Debug, Clone, Copy)]
pub struct BreakEvenOutcome {
    /// Mean time between disasters (years) where the two availability
    /// curves cross, or `None` if they do not cross inside the probed
    /// range (or a probe failed to evaluate).
    pub crossing_years: Option<f64>,
    /// Spec evaluations spent (each probe evaluates both specs).
    pub probes: usize,
}

/// Bisects the disaster mean-time at which the availabilities of `a` and
/// `b` cross, evaluating probe specs through `cache`.
pub fn break_even_years(
    a: &Scenario,
    b: &Scenario,
    analyses: &[AnalysisRequest],
    cache: &Arc<EvalCache>,
    opts: &SearchOptions,
) -> BreakEvenOutcome {
    break_even_years_shared(a, b, analyses, cache, opts, &StructureRegistry::new())
}

/// [`break_even_years`] re-rating the structures in `registry` (and
/// publishing the ones it explores there) instead of a fresh pool.
pub(crate) fn break_even_years_shared(
    a: &Scenario,
    b: &Scenario,
    analyses: &[AnalysisRequest],
    cache: &Arc<EvalCache>,
    opts: &SearchOptions,
    registry: &StructureRegistry,
) -> BreakEvenOutcome {
    let _span = dtc_obs::trace::trace_span("break_even");
    dtc_obs::trace::attr_str("cheaper", &a.name);
    dtc_obs::trace::attr_str("richer", &b.name);

    let mut probes = 0usize;
    let mut diffs_at = |years: &[f64]| -> Vec<Option<f64>> {
        probes += 2 * years.len();
        diffs_at_years(a, b, years, analyses, cache, opts, registry)
    };

    let (mut lo, mut hi) = (MIN_YEARS, MAX_YEARS);
    let ends = diffs_at(&[lo, hi]);
    let (Some(mut d_lo), Some(d_hi)) = (ends[0], ends[1]) else {
        return BreakEvenOutcome { crossing_years: None, probes };
    };
    if d_lo == 0.0 {
        return BreakEvenOutcome { crossing_years: Some(lo), probes };
    }
    if d_hi == 0.0 {
        return BreakEvenOutcome { crossing_years: Some(hi), probes };
    }
    if d_lo.signum() == d_hi.signum() {
        // No crossing in range: one architecture is at least as available
        // at every plausible disaster rate.
        return BreakEvenOutcome { crossing_years: None, probes };
    }

    for _ in 0..MAX_ITERATIONS {
        let mid = (lo.ln() + hi.ln()) / 2.0;
        let mid = mid.exp();
        if (hi - lo) / lo < REL_TOLERANCE {
            break;
        }
        let Some(d_mid) = diffs_at(&[mid])[0] else {
            return BreakEvenOutcome { crossing_years: None, probes };
        };
        if d_mid == 0.0 {
            return BreakEvenOutcome { crossing_years: Some(mid), probes };
        }
        if d_mid.signum() == d_lo.signum() {
            lo = mid;
            d_lo = d_mid;
        } else {
            hi = mid;
        }
    }
    BreakEvenOutcome { crossing_years: Some(((lo.ln() + hi.ln()) / 2.0).exp()), probes }
}

/// `A_a(y) − A_b(y)` for every probe mean `y` in `years`: both specs
/// rebuilt at each mean and evaluated through the cache in one batch,
/// ordered `a@y₀, b@y₀, a@y₁, …` so the first two workers explore one
/// member each. An entry is `None` if either of its evaluations fails.
fn diffs_at_years(
    a: &Scenario,
    b: &Scenario,
    years: &[f64],
    analyses: &[AnalysisRequest],
    cache: &Arc<EvalCache>,
    opts: &SearchOptions,
    registry: &StructureRegistry,
) -> Vec<Option<f64>> {
    let probes: Vec<Scenario> =
        years.iter().flat_map(|&y| [probe_scenario(a, y), probe_scenario(b, y)]).collect();
    let run_opts = RunOptions {
        threads: opts.threads,
        eval: opts.eval.clone(),
        analyses: analyses.to_vec(),
    };
    let result = run_batch_shared(&probes, cache, &run_opts, registry);
    let avail = |i: usize| -> Option<f64> {
        let reports = result.outcomes[i].reports.as_ref().ok()?;
        Some(first_steady_state(reports)?.availability)
    };
    (0..years.len()).map(|k| Some(avail(2 * k)? - avail(2 * k + 1)?)).collect()
}

/// A copy of `scenario` with every data center's disaster mean replaced
/// by `years` (recovery time kept). DCs modeled without disasters stay
/// disaster-free.
fn probe_scenario(scenario: &Scenario, years: f64) -> Scenario {
    let mut spec = scenario.spec.clone();
    for dc in &mut spec.data_centers {
        if let Some(disaster) = &dc.disaster {
            dc.disaster =
                Some(ComponentParams::new(years * HOURS_PER_YEAR, disaster.mttr_hours));
        }
    }
    Scenario {
        name: format!("{}@disaster_years={years}", scenario.name),
        spec,
        disaster_years: Some(years),
        ..scenario.clone()
    }
}
