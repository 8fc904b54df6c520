//! `fig7_steady`: steady-state availability of Fig. 7 grid points.
//!
//! A round is one secondary city's pair baseline (α = 0.35, one disaster
//! per 100 years) followed by one other grid point of the same pair, both
//! drawn from the seed. Each point goes through `run_batch` alone with a
//! fresh in-memory cache, so every operation compiles, explores, assembles
//! the CTMC and runs Gauss–Seidel. After each solve the same request is
//! repeated against the now-warm cache: those are the hits.

use crate::spans::Tracer;
use crate::{cold_solve, compile_all, steady_by_layers, Args, Measured, Size};
use dtc_core::metrics::AvailabilityReport;
use dtc_engine::{Catalog, RunOptions, Scenario};
use std::time::Instant;

/// Relative gap allowed between a baseline and the paper's Table VII.
const PAPER_TOLERANCE: f64 = 1e-3;
/// Bound on the benchmark's own ‖πQ‖₁ of the baseline's solution.
const RESIDUAL_BOUND: f64 = 1e-10;

/// A small two-site model with the same grid shape, for `--size smoke`.
const SMOKE_TOML: &str = r#"
[catalog]
name = "fig7-smoke"
baseline_alpha = 0.35
baseline_disaster_years = 100.0

[[scenario]]
name = "pair"
kind = "custom"
min_running_vms = 1
alpha = [0.35, 0.40, 0.45]
disaster_years = [100.0, 200.0, 300.0]
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

fn pair_of(s: &Scenario) -> String {
    s.secondary.clone().unwrap_or_default()
}

/// Parses and expands the catalog, picks the round, compiles it.
fn setup(args: &Args) -> Result<Vec<Scenario>, String> {
    let text = match args.size {
        Size::Full => dtc_engine::catalogs::FIG7_TOML,
        Size::Smoke => SMOKE_TOML,
    };
    let all = Catalog::from_toml_str(text)
        .and_then(|c| c.expand())
        .map_err(|e| format!("fig7 catalog: {e}"))?;
    let mut rng = crate::stats::Rng::new(args.seed);
    let baselines: Vec<&Scenario> = all.iter().filter(|s| s.is_baseline).collect();
    let base = baselines[rng.below(baselines.len())];
    let others: Vec<&Scenario> =
        all.iter().filter(|s| !s.is_baseline && pair_of(s) == pair_of(base)).collect();
    let other = others[rng.below(others.len())];
    let mut round = vec![base.clone(), other.clone()];
    if args.size == Size::Full {
        // The paper prints each pair baseline in Table VII.
        let table7 = Catalog::from_toml_str(dtc_engine::catalogs::TABLE7_TOML)
            .and_then(|c| c.expand())
            .map_err(|e| format!("table7 catalog: {e}"))?;
        round[0].expect_availability = table7
            .iter()
            .find(|t| t.secondary.is_some() && pair_of(t) == pair_of(base))
            .and_then(|t| t.expect_availability);
        if round[0].expect_availability.is_none() {
            return Err(format!("table7 has no paper value for {}", base.name));
        }
    }
    compile_all(round.iter().map(|s| &s.spec))?;
    Ok(round)
}

pub fn run(args: &Args, mut tracer: Option<&mut Tracer>) -> Result<Measured, String> {
    let mut m = Measured { miss_tail_q: 1.0, ..Measured::default() };
    let mut round = Vec::new();
    for _ in 0..crate::SETUPS {
        let t = Instant::now();
        round = setup(args)?;
        m.setup_s.push(t.elapsed().as_secs_f64());
    }
    let opts = RunOptions::default();
    let mut baseline_availability = None;

    let tracing = tracer.is_some();
    crate::rounds(&mut m, args.seconds, tracing, round.len(), |m, i, traced| {
        let s = &round[i];
        let t = if traced { tracer.as_deref_mut() } else { None };
        let (wall, reports) = cold_solve(m, s, &opts, t);
        let report = reports.and_then(|r| {
            dtc_core::analysis::first_steady_state(&r)
                .copied()
                .ok_or_else(|| format!("{}: no steady-state report", s.name))
        });
        m.op(report.as_ref().err().cloned());
        m.solved(wall, tracing, traced);
        if let Ok(report) = report {
            check_point(m, s, &report, &mut baseline_availability);
        }
    });

    // Once per run: the baseline again, through the layers' public
    // functions, to check the stationary vector's true residual.
    let (a, residual) = steady_by_layers(&round[0].spec)?;
    m.check(residual < RESIDUAL_BOUND, || format!("‖πQ‖₁ = {residual:e} ≥ {RESIDUAL_BOUND:e}"));
    m.check(Some(a) == baseline_availability, || {
        format!("layer-by-layer availability {a} differs from run_batch's {baseline_availability:?}")
    });
    if tracer.is_some() {
        m.layer("markov.residual_l1", residual);
    }
    Ok(m)
}

/// The output checks of one solved point: range, downtime arithmetic,
/// the paper's Table VII value for baselines, and Fig. 7's increase over
/// the pair baseline for every other point.
fn check_point(
    m: &mut Measured,
    s: &Scenario,
    r: &AvailabilityReport,
    baseline: &mut Option<f64>,
) {
    let a = r.availability;
    m.check(a > 0.0 && a < 1.0, || format!("{}: availability {a} outside (0, 1)", s.name));
    let downtime = (1.0 - a) * 8760.0;
    m.check((r.downtime_hours_per_year - downtime).abs() <= 1e-9 * downtime.max(1.0), || {
        format!(
            "{}: downtime {} h/yr is not (1 - A)·8760 = {downtime}",
            s.name, r.downtime_hours_per_year
        )
    });
    if s.is_baseline {
        if let Some(expect) = s.expect_availability {
            let gap = a / expect - 1.0;
            m.check(gap.abs() <= PAPER_TOLERANCE, || {
                format!("{}: {a} is {:+.4}% off the paper's {expect}", s.name, gap * 100.0)
            });
        }
        *baseline = Some(a);
    } else {
        let base = baseline.unwrap_or(f64::INFINITY);
        m.check(a >= base, || format!("{}: {a} below its pair baseline {base}", s.name));
    }
}
