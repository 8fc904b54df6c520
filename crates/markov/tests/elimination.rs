//! The default steady solve on chains that get an elimination plan, against
//! the dense direct solver: seeded random stiff chains (2–60 states), the
//! 13- and 61-state Table VII rows and every search7 structure with a plan
//! must be solved by elimination — no sweep, no loose accept, no fallback —
//! to `‖π − π_direct‖₁ ≤ 1e-12` with a true residual `‖πQ‖₁ ≤ 1e-14` per
//! unit of probability flow (see [`RESIDUAL`]). A
//! stiff ring swept against its flow, where Gauss–Seidel crawls, is solved
//! the same way at every size up to 200 states. Absorbing and reducible
//! chains keep the behaviour they had before plans existed, and answers are
//! bit-identical between a plan shared by re-rated siblings and a fresh
//! one, across thread counts and across repeated builds.

use dtc_core::scenarios::{table_vii_scenarios, CaseStudy};
use dtc_core::{CloudModel, EvalOptions};
use dtc_markov::solve::stationary_iteration;
use dtc_markov::{Ctmc, CtmcBuilder, EliminationPlan, MarkovError, Method, SolverOptions};
use dtc_obs::trace::{install, AttrValue, TraceContext, TraceId};
use std::collections::HashSet;
use std::sync::Arc;

/// Largest accepted `‖π_elimination − π_direct‖₁`.
const TOLERANCE: f64 = 1e-12;

/// Largest accepted true residual `‖πQ‖₁` of an eliminated answer, per
/// unit of the chain's probability flow `Σᵢ πᵢqᵢ` (exit rates `qᵢ`) where
/// that flow exceeds 1. Evaluating `πQ` in `f64` alone errs by about
/// `ε·Σᵢ πᵢqᵢ`: on a random chain with rates up to 1e3 (flow ~110) the
/// dense direct answer itself leaves 2.9e-14.
const RESIDUAL: f64 = 1e-14;

/// Solves `ctmc` with the default method and options and checks, from the
/// `stationary_solve` span, that elimination answered it alone; then that
/// the answer meets the dense direct solver and leaves a tiny residual.
/// Returns the plan's update count.
fn eliminate_against_direct(label: &str, ctmc: &Ctmc) -> i64 {
    let ctx = TraceContext::new(TraceId::generate());
    let (pi, stats) = {
        let _installed = install(&ctx);
        ctmc.steady_state_with(Method::default(), &SolverOptions::default())
            .unwrap_or_else(|e| panic!("{label}: default solve failed: {e}"))
    };
    assert_eq!((stats.method, stats.iterations), (Method::Direct, 1), "{label}: {stats:?}");
    let snapshot = ctx.snapshot();
    let span = snapshot
        .spans
        .iter()
        .find(|s| s.name == "stationary_solve")
        .unwrap_or_else(|| panic!("{label}: no stationary_solve span"));
    let attr = |key: &str| span.attrs.iter().find(|(k, _)| k == key).map(|(_, v)| v.clone());
    for absent in ["fallback", "loose", "extrapolations", "rejected"] {
        assert_eq!(attr(absent), None, "{label}: eliminated solves do not sweep");
    }
    assert_eq!(attr("method"), Some(AttrValue::Str("direct".into())), "{label}");
    let Some(AttrValue::Int(updates)) = attr("plan_updates") else {
        panic!("{label}: no plan_updates on {:?}", span.attrs);
    };

    let (exact, _) = ctmc
        .steady_state_with(Method::Direct, &SolverOptions::default())
        .unwrap_or_else(|e| panic!("{label}: direct solve failed: {e}"));
    let l1_error = pi.iter().zip(&exact).map(|(a, b)| (a - b).abs()).sum::<f64>();
    assert!(l1_error <= TOLERANCE, "{label}: ‖Δπ‖₁ = {l1_error:e} > {TOLERANCE:e}");
    let residual = ctmc.generator().vec_mul(&pi).iter().map(|v| v.abs()).sum::<f64>();
    let flow = pi.iter().zip(ctmc.exit_rates()).map(|(p, q)| p * q).sum::<f64>();
    let bound = RESIDUAL * flow.max(1.0);
    assert!(residual <= bound, "{label}: ‖πQ‖₁ = {residual:e} > {bound:e} (flow {flow:e})");
    updates
}

/// Uniform draw in `[0, 1)` from a 64-bit LCG.
fn uniform(state: &mut u64) -> f64 {
    *state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
    (*state >> 11) as f64 / (1u64 << 53) as f64
}

/// A seeded random irreducible chain of 2..=60 states: a ring keeps it
/// irreducible, three random jumps per state make it non-trivial, and
/// every rate is log-uniform over seven decades (1e-4 to 1e3).
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
fn random_stiff_chains_are_eliminated_exactly() {
    for seed in 0..40 {
        eliminate_against_direct(&format!("random chain {seed}"), &random_stiff_chain(seed));
    }
}

/// The tangible CTMC of a cloud model, explored with default options.
fn model_ctmc(model: &CloudModel) -> Ctmc {
    model.state_space(&EvalOptions::default()).expect("state space explores").ctmc().clone()
}

#[test]
fn table7_small_rows_are_eliminated_exactly() {
    let rows = table_vii_scenarios(&CaseStudy::paper());
    let mut sizes = Vec::new();
    for row in rows.iter().take(2) {
        let ctmc = model_ctmc(&CloudModel::build(&row.spec).expect("row builds"));
        sizes.push(ctmc.num_states());
        let updates = eliminate_against_direct(&row.name, &ctmc);
        eprintln!("{} ({} states): {updates} updates", row.name, ctmc.num_states());
    }
    assert_eq!(sizes, [13, 61], "the one- and two-machine rows");
}

#[test]
fn search7_structures_with_a_plan_are_eliminated_exactly() {
    let scenarios = dtc_search::catalogs::search7().expand().expect("search7 expands");
    let mut seen = HashSet::new();
    let mut planned = Vec::new();
    for scenario in &scenarios {
        let model = CloudModel::build(&scenario.spec).expect("candidate builds");
        if !seen.insert(model.net_fingerprint()) {
            continue;
        }
        let ctmc = model_ctmc(&model);
        if EliminationPlan::build(ctmc.generator()).is_none() {
            continue;
        }
        let updates = eliminate_against_direct(&scenario.name, &ctmc);
        eprintln!("{} ({} states): {updates} updates", scenario.name, ctmc.num_states());
        planned.push(ctmc.num_states());
    }
    assert_eq!(planned, [10, 25, 216], "solo, spare and dr get plans; drplus and aa do not");
}

/// A stiff ring swept against its flow: fast transitions `i+1 → i`, slow
/// ones `i → i+1`. Gauss–Seidel needs 16,992 sweeps at 5 states and
/// exhausts its budget from 20 on; elimination needs none.
fn reversed_ring(n: usize) -> Ctmc {
    let mut b = CtmcBuilder::new(n);
    for i in 0..n {
        b.rate((i + 1) % n, i, 1.0 + (i % 5) as f64);
        b.rate(i, (i + 1) % n, 1e-3 * (1 + i % 7) as f64);
    }
    b.build().expect("ring builds")
}

#[test]
fn a_ring_swept_against_its_flow_is_eliminated_at_every_size() {
    for n in [5, 20, 50, 200] {
        let updates =
            eliminate_against_direct(&format!("reversed ring of {n}"), &reversed_ring(n));
        assert!(updates > 0, "{n} states");
    }
}

#[test]
fn absorbing_and_reducible_chains_keep_their_behaviour() {
    // An absorbing state: the sweep's error, as before plans.
    let mut b = CtmcBuilder::new(3);
    b.rate(0, 1, 1.0).rate(1, 0, 1.0).rate(1, 2, 1.0);
    let absorbing = b.build().unwrap();
    let err = absorbing.steady_state_with(Method::GaussSeidel, &SolverOptions::default());
    assert_eq!(err.unwrap_err(), MarkovError::ZeroDiagonal { state: 2 });

    // Two closed classes: the plan meets a zero pivot and hands the chain
    // to the sweeps, which answer exactly as they did before plans; the
    // direct solver still calls the chain singular.
    let mut b = CtmcBuilder::new(4);
    b.rate(0, 1, 1.0).rate(1, 0, 2.0).rate(2, 3, 1.0).rate(3, 2, 3.0);
    let split = b.build().unwrap();
    let plan = EliminationPlan::build(split.generator()).expect("four states plan");
    assert_eq!(plan.solve(split.generator()), None, "a zero pivot declines");
    let opts = SolverOptions::default();
    let (pi, stats) = split.steady_state_with(Method::GaussSeidel, &opts).unwrap();
    assert_eq!(stats.method, Method::GaussSeidel);
    let swept =
        stationary_iteration(&split.generator().transpose(), &[0.25; 4], &opts).unwrap();
    assert_eq!((pi, stats), swept);
    assert!(matches!(
        split.steady_state_with(Method::Direct, &opts),
        Err(MarkovError::Singular { .. })
    ));
}

/// Bit patterns of a distribution.
fn bits(pi: &[f64]) -> Vec<u64> {
    pi.iter().map(|v| v.to_bits()).collect()
}

#[test]
fn shared_fresh_and_threaded_plans_give_identical_bits() {
    let scenarios = dtc_search::catalogs::search7().expand().expect("search7 expands");
    let mut dr = scenarios.iter().filter(|s| s.name.starts_with("dr-"));
    let first = CloudModel::build(&dr.next().expect("a dr candidate").spec).unwrap();
    let sibling = CloudModel::build(&dr.nth(7).expect("a dr sibling").spec).unwrap();
    assert_eq!(first.net_fingerprint(), sibling.net_fingerprint(), "rate-only siblings");

    let opts = EvalOptions::default();
    let graph = first.state_space(&opts).unwrap();
    let structure = Arc::clone(graph.structure());
    let rerated = sibling.state_space_from(&opts, Some(&structure)).unwrap();
    let shared = rerated.ctmc();
    assert!(shared.shared_plan().shares_with(graph.ctmc().shared_plan()));

    // The first solve builds the structure's plan; the sibling reuses it.
    graph.ctmc().steady_state().unwrap();
    let fresh = Ctmc::from_generator(shared.generator().clone()).unwrap();
    assert!(!fresh.shared_plan().shares_with(shared.shared_plan()));
    let reference = bits(&fresh.steady_state().unwrap());
    assert_ne!(reference, bits(&graph.ctmc().steady_state().unwrap()), "the rates differ");
    for threads in [0, 1, 2, 4] {
        let solver = SolverOptions { threads, ..SolverOptions::default() };
        let (pi, stats) = shared.steady_state_with(Method::GaussSeidel, &solver).unwrap();
        assert_eq!(stats.method, Method::Direct);
        assert_eq!(bits(&pi), reference, "threads = {threads}");
    }

    // Two builds from one pattern are the same plan: same work, same bits.
    let again = EliminationPlan::build(shared.generator()).unwrap();
    let once = EliminationPlan::build(shared.generator()).unwrap();
    assert_eq!(again.updates(), once.updates());
    assert_eq!(bits(&again.solve(shared.generator()).unwrap()), reference);
    assert_eq!(bits(&once.solve(shared.generator()).unwrap()), reference);
}
