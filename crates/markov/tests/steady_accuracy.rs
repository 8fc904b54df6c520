//! The Gauss–Seidel solve with safeguarded extrapolation
//! ([`stationary_iteration`]) against the dense direct solver, on seeded
//! random stiff chains, the Table VII single-site models (13, 61 and 2,314
//! states) and every distinct search7 structure of at most 1,020 states:
//! the two answers must agree to `‖Δπ‖₁ ≤ 1e-9`, with no direct
//! fallback. A stiff ring swept against its flow, whose error does not
//! decay along one positive mode, checks the safeguard: every jump there
//! is rejected and the solve still meets the direct answer.
//!
//! The default solve answers most of these chains by elimination (see
//! `elimination.rs`), so the sweeps are called directly here, inside a
//! `stationary_solve` span that collects their jump counts.

use dtc_core::scenarios::{table_vii_scenarios, CaseStudy};
use dtc_core::{CloudModel, EvalOptions};
use dtc_markov::solve::stationary_iteration;
use dtc_markov::{Ctmc, CtmcBuilder, Method, SolverOptions};
use dtc_obs::trace::{install, AttrValue, TraceContext, TraceId};
use std::collections::HashSet;

/// Largest accepted `‖π_default − π_direct‖₁`.
const TOLERANCE: f64 = 1e-9;

/// What one default solve did, read off its `stationary_solve` span.
#[derive(Debug)]
struct Solve {
    sweeps: i64,
    accepted: i64,
    rejected: i64,
}

/// Solves `ctmc` with Gauss–Seidel sweeps under the default options and
/// with the direct solver, and checks the sweeps converged (no fallback)
/// and meet the direct answer.
fn solve_against_direct(label: &str, ctmc: &Ctmc) -> Solve {
    let ctx = TraceContext::new(TraceId::generate());
    let n = ctmc.num_states();
    let (pi, stats) = {
        let _installed = install(&ctx);
        let _span = dtc_obs::stage_span("stationary_solve");
        let qt = ctmc.generator().transpose();
        stationary_iteration(&qt, &vec![1.0 / n as f64; n], &SolverOptions::default())
            .unwrap_or_else(|e| panic!("{label}: Gauss–Seidel solve failed: {e}"))
    };
    assert_eq!(stats.method, Method::GaussSeidel, "{label}: fell back to the direct solver");
    let (exact, _) = ctmc
        .steady_state_with(Method::Direct, &SolverOptions::default())
        .unwrap_or_else(|e| panic!("{label}: direct solve failed: {e}"));
    let l1_error = pi.iter().zip(&exact).map(|(a, b)| (a - b).abs()).sum::<f64>();
    assert!(l1_error <= TOLERANCE, "{label}: ‖Δπ‖₁ = {l1_error:e} > {TOLERANCE:e}");

    let snapshot = ctx.snapshot();
    let span = snapshot
        .spans
        .iter()
        .find(|s| s.name == "stationary_solve")
        .unwrap_or_else(|| panic!("{label}: no stationary_solve span"));
    let int = |key: &str| match span.attrs.iter().find(|(k, _)| k == key) {
        Some((_, AttrValue::Int(v))) => *v,
        other => panic!("{label}: span attribute {key} is {other:?}"),
    };
    Solve {
        sweeps: stats.iterations as i64,
        accepted: int("extrapolations"),
        rejected: int("rejected"),
    }
}

/// Uniform draw in `[0, 1)` from a 64-bit LCG.
fn uniform(state: &mut u64) -> f64 {
    *state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
    (*state >> 11) as f64 / (1u64 << 53) as f64
}

/// A seeded random irreducible chain of 2..=60 states: a ring keeps it
/// irreducible, three random jumps per state make it non-trivial, and
/// every rate is log-uniform over seven decades (1e-4 to 1e3), so the
/// chains are as stiff as the dependability models.
fn random_stiff_chain(seed: u64) -> Ctmc {
    let mut state = seed.wrapping_mul(7919).wrapping_add(1);
    let n = 2 + (uniform(&mut state) * 59.0) as usize;
    let rate = |state: &mut u64| 10f64.powf(-4.0 + 7.0 * uniform(state));
    let mut b = CtmcBuilder::new(n);
    for i in 0..n {
        b.rate(i, (i + 1) % n, rate(&mut state));
        for _ in 0..3 {
            let j = (uniform(&mut state) * n as f64) as usize;
            if j != i {
                b.rate(i, j, rate(&mut state));
            }
        }
    }
    b.build().expect("random chain builds")
}

#[test]
fn random_stiff_chains_meet_the_direct_solver() {
    let mut accepted = 0;
    for seed in 0..40 {
        let solve =
            solve_against_direct(&format!("random chain {seed}"), &random_stiff_chain(seed));
        accepted += solve.accepted;
    }
    assert!(accepted > 0, "some random chains take extrapolation jumps");
}

/// The tangible CTMC of a cloud model, explored with default options.
fn model_ctmc(model: &CloudModel) -> Ctmc {
    model.state_space(&EvalOptions::default()).expect("state space explores").ctmc().clone()
}

#[test]
fn table7_single_site_models_meet_the_direct_solver() {
    let rows = table_vii_scenarios(&CaseStudy::paper());
    let mut sizes = Vec::new();
    for row in rows.iter().take(3) {
        let ctmc = model_ctmc(&CloudModel::build(&row.spec).expect("row builds"));
        sizes.push(ctmc.num_states());
        let solve = solve_against_direct(&row.name, &ctmc);
        eprintln!("{} ({} states): {solve:?}", row.name, ctmc.num_states());
    }
    assert_eq!(sizes, [13, 61, 2314], "the one-, two- and four-machine rows");
}

#[test]
fn search7_structures_meet_the_direct_solver() {
    let scenarios = dtc_search::catalogs::search7().expand().expect("search7 expands");
    let mut seen = HashSet::new();
    let mut checked = 0;
    for scenario in &scenarios {
        let model = CloudModel::build(&scenario.spec).expect("candidate builds");
        if !seen.insert(model.net_fingerprint()) {
            continue;
        }
        let ctmc = model_ctmc(&model);
        if ctmc.num_states() > 1020 {
            continue;
        }
        let solve = solve_against_direct(&scenario.name, &ctmc);
        eprintln!("{} ({} states): {solve:?}", scenario.name, ctmc.num_states());
        checked += 1;
    }
    assert!(checked >= 4, "only {checked} of {} structures are small enough", seen.len());
}

/// A stiff ring swept against its flow: fast transitions `i+1 → i`, slow
/// ones `i → i+1`. Gauss–Seidel visits states in index order, so each
/// sweep moves mass only one step along the fast direction and the error
/// circulates instead of decaying along one positive mode — the
/// extrapolation's ratio estimate is wrong there, and the safeguard must
/// throw every jump away.
#[test]
fn a_ring_swept_against_its_flow_rejects_every_jump() {
    let n = 5;
    let mut b = CtmcBuilder::new(n);
    for i in 0..n {
        b.rate((i + 1) % n, i, 1.0 + (i % 5) as f64);
        b.rate(i, (i + 1) % n, 1e-3 * (1 + i % 7) as f64);
    }
    let solve = solve_against_direct("reversed stiff ring", &b.build().expect("ring builds"));
    assert!(solve.rejected > 0, "the safeguard saw candidates: {solve:?}");
    assert_eq!(solve.accepted, 0, "no jump lowers the true residual here: {solve:?}");
    assert!(solve.sweeps > 1000, "plain sweeps crawl on this chain: {solve:?}");
}
