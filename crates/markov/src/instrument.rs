//! Process-wide counters for the expensive uniformization steps.
//!
//! Curve workloads are supposed to cost **one** uniformized-matrix build and
//! **one** power march regardless of how many time points they evaluate;
//! these counters let integration tests assert that contract end to end
//! (build a model, run a 16-point transient + interval set, check both
//! counters advanced by exactly one) without threading a stats object
//! through every layer.
//!
//! The counters live in the [`dtc_obs::global`] registry, so a `/metrics`
//! scrape sees them alongside the stage-duration histograms:
//!
//! * `dtc_solver_uniformized_builds_total`
//! * `dtc_solver_transient_marches_total`
//! * `dtc_solver_stationary_iterations_total`
//! * `dtc_solver_direct_fallbacks_total`
//! * `dtc_solver_eliminations_total`
//! * `dtc_solver_loose_accepts_total`
//! * `dtc_solver_extrapolations_total{outcome="accepted"|"rejected"}`
//!
//! Counters are cumulative for the process. Tests that assert on deltas
//! should run in their own integration-test binary so concurrent tests in
//! the same process cannot interleave extra solves.

use dtc_obs::Counter;
use std::sync::{Arc, OnceLock};

fn solver_counter<'a>(
    cell: &'a OnceLock<Arc<Counter>>,
    name: &'static str,
    help: &'static str,
) -> &'a Counter {
    cell.get_or_init(|| dtc_obs::global().counter(name, help, &[]))
}

fn builds() -> &'static Counter {
    static C: OnceLock<Arc<Counter>> = OnceLock::new();
    solver_counter(
        &C,
        "dtc_solver_uniformized_builds_total",
        "Uniformized-matrix (P = I + Q/lambda) constructions since process start.",
    )
}

fn marches() -> &'static Counter {
    static C: OnceLock<Arc<Counter>> = OnceLock::new();
    solver_counter(
        &C,
        "dtc_solver_transient_marches_total",
        "Transient power marches (pi0*P^k sweeps) since process start.",
    )
}

fn iterations() -> &'static Counter {
    static C: OnceLock<Arc<Counter>> = OnceLock::new();
    solver_counter(
        &C,
        "dtc_solver_stationary_iterations_total",
        "Inner iterations spent in stationary solves since process start.",
    )
}

fn fallbacks() -> &'static Counter {
    static C: OnceLock<Arc<Counter>> = OnceLock::new();
    solver_counter(
        &C,
        "dtc_solver_direct_fallbacks_total",
        "Stationary solves whose sweep method stalled and fell back to the direct solver.",
    )
}

fn eliminated() -> &'static Counter {
    static C: OnceLock<Arc<Counter>> = OnceLock::new();
    solver_counter(
        &C,
        "dtc_solver_eliminations_total",
        "Stationary solves answered exactly by a GTH elimination plan since process start.",
    )
}

fn loose() -> &'static Counter {
    static C: OnceLock<Arc<Counter>> = OnceLock::new();
    solver_counter(
        &C,
        "dtc_solver_loose_accepts_total",
        "Stationary solves accepted under the loose tolerance after exhausting their sweep budget.",
    )
}

fn extrapolation_counter(outcome: &'static str) -> Arc<Counter> {
    dtc_obs::global().counter(
        "dtc_solver_extrapolations_total",
        "Extrapolated Gauss-Seidel iterates, by whether the true-residual safeguard \
         accepted or rejected them, since process start.",
        &[("outcome", outcome)],
    )
}

fn accepted_jumps() -> &'static Counter {
    static C: OnceLock<Arc<Counter>> = OnceLock::new();
    C.get_or_init(|| extrapolation_counter("accepted"))
}

fn rejected_jumps() -> &'static Counter {
    static C: OnceLock<Arc<Counter>> = OnceLock::new();
    C.get_or_init(|| extrapolation_counter("rejected"))
}

/// Total `P = I + Q/Λ` constructions since process start.
pub fn uniformized_builds() -> u64 {
    builds().value()
}

/// Total transient power marches (`π0·Pᵏ` sweeps) since process start.
/// One per [`crate::Ctmc::transient`] / [`crate::cumulative_reward`] call,
/// and exactly one per [`crate::curve::uniformized_pass`] no matter how many
/// time points the pass serves.
pub fn transient_marches() -> u64 {
    marches().value()
}

/// Total inner iterations spent in stationary solves (Gauss–Seidel sweeps)
/// since process start. Extrapolation jumps are not sweeps and are
/// counted apart, in [`extrapolations`].
pub fn stationary_iterations() -> u64 {
    iterations().value()
}

/// Total stationary solves whose Gauss–Seidel sweeps did not converge and
/// fell back to the direct solver since process start.
pub fn direct_fallbacks() -> u64 {
    fallbacks().value()
}

/// Total stationary solves answered by an elimination plan
/// ([`crate::elimination::EliminationPlan`]) since process start. Each also
/// counts as one iteration in [`stationary_iterations`].
pub fn eliminations() -> u64 {
    eliminated().value()
}

/// Total stationary solves that ran out of sweeps and were accepted under
/// [`crate::SolverOptions::accept_loose`] since process start.
pub fn loose_accepts() -> u64 {
    loose().value()
}

/// Total extrapolated Gauss–Seidel iterates `(accepted, rejected)` by the
/// true-residual safeguard since process start (see
/// [`crate::solve::stationary_iteration`]). A step whose ratio estimate
/// fell outside `(0, 1)` formed no candidate and counts in neither.
pub fn extrapolations() -> (u64, u64) {
    (accepted_jumps().value(), rejected_jumps().value())
}

pub(crate) fn count_uniformized_build() {
    builds().inc();
}

pub(crate) fn count_transient_march() {
    marches().inc();
}

pub(crate) fn count_stationary_iterations(n: u64) {
    iterations().add(n);
    // Registers the fallback, loose-accept, elimination and extrapolation
    // series with the first solve, so a scrape shows them at zero instead
    // of omitting them.
    fallbacks();
    loose();
    eliminated();
    accepted_jumps();
    rejected_jumps();
}

pub(crate) fn count_elimination() {
    eliminated().inc();
}

pub(crate) fn count_direct_fallback() {
    fallbacks().inc();
}

pub(crate) fn count_loose_accept() {
    loose().inc();
}

pub(crate) fn count_extrapolations(accepted: u64, rejected: u64) {
    accepted_jumps().add(accepted);
    rejected_jumps().add(rejected);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_are_monotone() {
        let b0 = uniformized_builds();
        let m0 = transient_marches();
        let i0 = super::stationary_iterations();
        count_uniformized_build();
        count_transient_march();
        count_stationary_iterations(3);
        let (accepted0, rejected0) = extrapolations();
        count_extrapolations(2, 1);
        let (accepted, rejected) = extrapolations();
        assert!(accepted >= accepted0 + 2 && rejected > rejected0);
        assert!(uniformized_builds() > b0);
        assert!(transient_marches() > m0);
        assert!(super::stationary_iterations() >= i0 + 3);
    }

    #[test]
    fn counters_appear_in_the_global_scrape() {
        count_uniformized_build();
        count_stationary_iterations(0);
        let text = dtc_obs::global().render();
        assert!(text.contains("dtc_solver_uniformized_builds_total"), "scrape: {text}");
        assert!(text.contains("dtc_solver_eliminations_total"), "scrape: {text}");
        count_extrapolations(0, 0);
        let text = dtc_obs::global().render();
        for outcome in ["accepted", "rejected"] {
            let series = format!("dtc_solver_extrapolations_total{{outcome=\"{outcome}\"}}");
            assert!(text.contains(&series), "scrape: {text}");
        }
    }
}
