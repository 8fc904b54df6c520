//! Evaluation options and the dependability report.

use crate::params::{downtime_hours_per_year, nines};
use dtc_markov::{Method, SolveStats, SolverOptions};
use dtc_petri::reach::{ReachOptions, ReachStats};
use std::fmt;

/// Knobs for the numeric evaluation pipeline.
#[derive(Debug, Clone, Default)]
pub struct EvalOptions {
    /// Steady-state solution method.
    pub method: Method,
    /// Solver iteration/tolerance options. `solver.threads` also sets the
    /// worker count for the parallel march kernels; like
    /// `sweep_threads` it is a pure scheduling knob (bit-identical results
    /// at every value) and is excluded from cache identity.
    pub solver: SolverOptions,
    /// Reachability exploration options.
    pub reach: ReachOptions,
    /// Worker threads for analyses that fan out over rebuilt models
    /// (today: the sensitivity sweep's perturbed points). `0` means one
    /// per available core. Purely a scheduling knob — it cannot change any
    /// number, so it is *not* part of the evaluation cache identity.
    pub sweep_threads: usize,
}

impl EvalOptions {
    /// Resolves [`EvalOptions::sweep_threads`]: `0` becomes the number of
    /// available cores.
    pub fn resolved_sweep_threads(&self) -> usize {
        dtc_markov::par::resolve_threads(self.sweep_threads)
    }
}

/// The paper's dependability metrics for one system configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AvailabilityReport {
    /// Steady-state availability `P{running VMs >= k}`.
    pub availability: f64,
    /// `-log10(1 - A)` — the paper's Fig. 7 unit.
    pub nines: f64,
    /// Expected downtime in hours per year.
    pub downtime_hours_per_year: f64,
    /// Expected number of running VMs `E[Σ #VM_UP]`.
    pub expected_running_vms: f64,
    /// Capacity-oriented availability `E[running]/N`.
    pub capacity_oriented_availability: f64,
    /// Tangible states explored.
    pub tangible_states: usize,
    /// Rate-matrix edges.
    pub edges: usize,
    /// Vanishing markings eliminated.
    pub vanishing_markings: usize,
    /// Solver statistics.
    pub solve: SolveStats,
}

impl AvailabilityReport {
    /// Assembles a report from raw metric values.
    pub fn new(
        availability: f64,
        expected_running_vms: f64,
        total_vms: u32,
        reach: ReachStats,
        solve: SolveStats,
    ) -> Self {
        // Numerical solutions can overshoot 1.0 by rounding; clamp.
        let availability = availability.clamp(0.0, 1.0);
        AvailabilityReport {
            availability,
            nines: nines(availability),
            downtime_hours_per_year: downtime_hours_per_year(availability),
            expected_running_vms,
            capacity_oriented_availability: if total_vms == 0 {
                0.0
            } else {
                expected_running_vms / total_vms as f64
            },
            tangible_states: reach.tangible_states,
            edges: reach.edges,
            vanishing_markings: reach.vanishing_markings,
            solve,
        }
    }
}

impl fmt::Display for AvailabilityReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "availability            : {:.7}", self.availability)?;
        writeln!(f, "number of nines         : {:.2}", self.nines)?;
        writeln!(f, "downtime (h/year)       : {:.2}", self.downtime_hours_per_year)?;
        writeln!(f, "E[running VMs]          : {:.4}", self.expected_running_vms)?;
        writeln!(f, "COA                     : {:.6}", self.capacity_oriented_availability)?;
        writeln!(
            f,
            "state space             : {} tangible / {} vanishing / {} edges",
            self.tangible_states, self.vanishing_markings, self.edges
        )?;
        write!(
            f,
            "solver                  : {} ({} iterations, residual {:.2e})",
            self.solve.method, self.solve.iterations, self.solve.residual
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtc_petri::reach::ReachStats;

    fn stats() -> (ReachStats, SolveStats) {
        (
            ReachStats { tangible_states: 10, vanishing_markings: 3, edges: 25 },
            SolveStats { iterations: 100, residual: 1e-13, method: Method::GaussSeidel },
        )
    }

    #[test]
    fn report_derives_metrics() {
        let (r, s) = stats();
        let rep = AvailabilityReport::new(0.999, 3.8, 4, r, s);
        assert!((rep.nines - 3.0).abs() < 1e-9);
        assert!((rep.downtime_hours_per_year - 8.76).abs() < 1e-9);
        assert!((rep.capacity_oriented_availability - 0.95).abs() < 1e-12);
        assert_eq!(rep.tangible_states, 10);
    }

    #[test]
    fn report_clamps_rounding_overshoot() {
        let (r, s) = stats();
        let rep = AvailabilityReport::new(1.0 + 1e-15, 4.0, 4, r, s);
        assert_eq!(rep.availability, 1.0);
        assert!(rep.nines.is_infinite());
    }

    #[test]
    fn display_contains_key_lines() {
        let (r, s) = stats();
        let rep = AvailabilityReport::new(0.99, 2.0, 2, r, s);
        let text = rep.to_string();
        assert!(text.contains("availability"));
        assert!(text.contains("nines"));
        assert!(text.contains("gauss-seidel"));
    }

    #[test]
    fn zero_vms_does_not_divide_by_zero() {
        let (r, s) = stats();
        let rep = AvailabilityReport::new(0.5, 0.0, 0, r, s);
        assert_eq!(rep.capacity_oriented_availability, 0.0);
    }
}
