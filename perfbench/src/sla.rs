//! `sla_month`: a one-month SLA window for search7's active-active design.
//!
//! A round is two distinct (secondary city, α, disaster mean time)
//! points of the `aa` tier (4,350 states each). Each operation asks one
//! point, through `run_batch` with a fresh cache at the engine's default
//! thread budget, for point availability at 24, 168 and 720 h and the
//! interval availability over 720 h — one uniformized march, no
//! stationary solve. After each solve the request is repeated against the
//! warm cache: those are the hits.

use crate::spans::Tracer;
use crate::{cold_solve, compile_all, steady_by_layers, Args, Measured, Size};
use dtc_core::analysis::{AnalysisReport, AnalysisRequest};
use dtc_engine::{Catalog, RunOptions, Scenario};
use std::fmt::Write as _;
use std::time::Instant;

const CITIES: [&str; 5] = ["Brasilia", "Recife", "NewYork", "Calcutta", "Tokio"];
/// α = 0.25, 0.30, …, 0.95.
const ALPHA_STEPS: usize = 15;
const DISASTER_YEARS: [f64; 6] = [100.0, 200.0, 400.0, 800.0, 1600.0, 3200.0];
const HORIZON_H: f64 = 720.0;
/// Allowed gap between the program's interval availability and the
/// benchmark's trapezoid integral of the dense point curve, as a share of
/// the interval unavailability `1 - A`.
const TRAPEZOID_TOLERANCE: f64 = 1e-6;

fn analyses() -> Vec<AnalysisRequest> {
    vec![
        AnalysisRequest::Transient { time_points: vec![24.0, 168.0, HORIZON_H] },
        AnalysisRequest::Interval { horizon_hours: HORIZON_H },
    ]
}

/// The round's catalog: one template per drawn point. Full size is the
/// `aa` tier (hot + warm PM on both sites); smoke size the `dr` tier.
fn catalog_toml(args: &Args) -> String {
    let per_round = 2;
    let (primary, secondary) = match args.size {
        Size::Full => ("hot_pms = 1\nwarm_pms = 1", "hot_pms = 1\nwarm_pms = 1"),
        Size::Smoke => ("hot_pms = 1", "warm_pms = 1"),
    };
    let mut rng = crate::stats::Rng::new(args.seed);
    let grid = CITIES.len() * ALPHA_STEPS * DISASTER_YEARS.len();
    let mut toml = String::from("[catalog]\nname = \"sla-month\"\n");
    for p in rng.distinct(grid, per_round) {
        let city = CITIES[p % CITIES.len()];
        let alpha = 0.25 + 0.05 * ((p / CITIES.len()) % ALPHA_STEPS) as f64;
        let years = DISASTER_YEARS[p / (CITIES.len() * ALPHA_STEPS)];
        let _ = write!(
            toml,
            "\n[[scenario]]\nname = \"aa-{city}-{p}\"\nkind = \"custom\"\nmin_running_vms = 1\n\
             alpha = [{alpha:.2}]\ndisaster_years = [{years:.1}]\nbackup_site = \"Sao Paulo\"\n\
             [[scenario.dc]]\nsite = \"Rio de Janeiro\"\n{primary}\nvms_per_pm = 1\npm_capacity = 1\nnas_net = false\n\
             [[scenario.dc]]\nsite = \"{city}\"\n{secondary}\nvms_per_pm = 1\npm_capacity = 1\nnas_net = false\n"
        );
    }
    toml
}

fn setup(text: &str) -> Result<Vec<Scenario>, String> {
    let round = Catalog::from_toml_str(text)
        .and_then(|c| c.expand())
        .map_err(|e| format!("sla catalog: {e}"))?;
    compile_all(round.iter().map(|s| &s.spec))?;
    Ok(round)
}

pub fn run(args: &Args, mut tracer: Option<&mut Tracer>) -> Result<Measured, String> {
    let mut m = Measured { miss_tail_q: 1.0, ..Measured::default() };
    let text = catalog_toml(args);
    let mut round = Vec::new();
    for _ in 0..crate::SETUPS {
        let t = Instant::now();
        round = setup(&text)?;
        m.setup_s.push(t.elapsed().as_secs_f64());
    }
    let opts = RunOptions { analyses: analyses(), ..RunOptions::default() };
    let mut first_interval = None;

    let tracing = tracer.is_some();
    crate::rounds(&mut m, args.seconds, tracing, round.len(), |m, i, traced| {
        let s = &round[i];
        let t = if traced { tracer.as_deref_mut() } else { None };
        let (wall, reports) = cold_solve(m, s, &opts, t);
        let interval = reports.and_then(|r| check_month(s, &r));
        m.op(interval.as_ref().err().cloned());
        m.solved(wall, tracing, traced);
        if i == 0 {
            first_interval = first_interval.or(interval.ok());
        }
    });

    // Once per run, outside the timed operations: a dense point curve of
    // the round's first point, integrated by the trapezoid rule.
    let grid = dense_grid();
    let curve = dense_curve(&round[0].spec, &grid)?;
    let integral: f64 = grid
        .windows(2)
        .zip(curve.windows(2))
        .map(|(t, a)| 0.5 * (a[0] + a[1]) * (t[1] - t[0]))
        .sum::<f64>()
        / HORIZON_H;
    match first_interval {
        Some(program) => {
            m.check((program - integral).abs() <= TRAPEZOID_TOLERANCE * (1.0 - program), || {
                format!(
                    "interval availability {program} vs trapezoid {integral}: gap {:e}",
                    program - integral
                )
            })
        }
        None => m.check(false, || "the round's first point never solved".into()),
    }
    if tracer.is_some() {
        let (_, residual) = steady_by_layers(&round[0].spec)?;
        m.layer("markov.residual_l1", residual);
    }
    Ok(m)
}

/// Point availability at every grid time, by one projected uniformization
/// pass over the model's CTMC (accumulators O(times), not O(times·states)).
fn dense_curve(
    spec: &dtc_core::system::CloudSystemSpec,
    grid: &[f64],
) -> Result<Vec<f64>, String> {
    let model = dtc_core::CloudModel::build(spec).map_err(|e| format!("compile: {e}"))?;
    let graph = model
        .state_space(&dtc_core::metrics::EvalOptions::default())
        .map_err(|e| format!("explore: {e}"))?;
    let up_expr = model.availability_expr();
    let up: Vec<f64> = graph
        .states()
        .iter()
        .map(|m| if up_expr.eval(&|p: dtc_petri::PlaceId| m[p.index()]) { 1.0 } else { 0.0 })
        .collect();
    graph
        .ctmc()
        .transient_reward_curve_projected(&graph.initial_pi0(), grid, &up, 0)
        .map_err(|e| format!("dense curve: {e}"))
}

/// Evaluation times for the dense curve: fine where the fast modes decay,
/// coarser after; starts at 0, ends at the horizon.
fn dense_grid() -> Vec<f64> {
    let mut t = vec![0.0];
    let mut push_to = |end: f64, step: f64| {
        let start = *t.last().expect("grid starts at 0");
        let n = ((end - start) / step).round() as usize;
        t.extend((1..=n).map(|k| start + (end - start) * k as f64 / n as f64));
    };
    push_to(2.0, 0.01);
    push_to(24.0, 0.1);
    push_to(HORIZON_H, 0.5);
    t
}

/// Every point availability and the interval availability lie in (0, 1];
/// returns the interval availability.
fn check_month(s: &Scenario, reports: &[AnalysisReport]) -> Result<f64, String> {
    let [AnalysisReport::Transient { availability: points, .. }, AnalysisReport::Interval { availability: interval, .. }] =
        reports
    else {
        return Err(format!("{}: reports are not [transient, interval]", s.name));
    };
    match points.iter().chain([interval]).find(|a| !(**a > 0.0 && **a <= 1.0)) {
        Some(a) => Err(format!("{}: availability {a} outside (0, 1]", s.name)),
        None => Ok(*interval),
    }
}
