//! The single-pass contract, asserted end to end: a whole analysis set with
//! a 16-point transient curve plus two SLA windows performs **exactly one**
//! uniformized-matrix construction and **exactly one** power march.
//!
//! This file deliberately holds a single test: the
//! `dtc_markov::instrument` counters are process-wide, and Rust runs every
//! test of one binary in the same process — a sibling test solving chains
//! concurrently would pollute the deltas. One test per binary means one
//! process, so the deltas are exact.

use dtc_core::prelude::*;
use dtc_markov::instrument;

fn tiny_spec() -> CloudSystemSpec {
    CloudSystemSpec {
        ospm: ComponentParams::new(1000.0, 12.0),
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

#[test]
fn sixteen_point_transient_plus_two_intervals_cost_one_build_and_one_march() {
    let spec = tiny_spec();
    let model = CloudModel::build(&spec).unwrap();
    // Pin the baseline run to the serial path (threads = 1); the re-run at
    // the end asserts 4 threads change nothing.
    let mut opts = EvalOptions::default();
    opts.solver.threads = 1;
    let graph = model.state_space(&opts).unwrap();

    // 16 points, unsorted with a duplicate and a zero — the full contract.
    let mut times: Vec<f64> = (1..=13).map(|i| i as f64 * 673.5).collect();
    times.extend([0.0, 24.0, 673.5]);
    assert_eq!(times.len(), 16);
    let requests = [
        AnalysisRequest::SteadyState,
        AnalysisRequest::Transient { time_points: times.clone() },
        AnalysisRequest::Interval { horizon_hours: 8760.0 },
        AnalysisRequest::Interval { horizon_hours: 720.0 },
    ];

    let builds0 = instrument::uniformized_builds();
    let marches0 = instrument::transient_marches();
    let reports = model.evaluate_all_on(&spec, &graph, &requests, &opts).unwrap();
    let builds = instrument::uniformized_builds() - builds0;
    let marches = instrument::transient_marches() - marches0;
    assert_eq!(builds, 1, "whole analysis set must build the uniformized matrix once");
    assert_eq!(marches, 1, "16 transient points + 2 horizons must share one power march");

    // Numerical equivalence with the per-point engines (which cost one
    // build + march EACH — 18 passes where the set above used 1).
    let AnalysisReport::Transient { availability, time_points } = &reports[1] else {
        panic!("transient report expected");
    };
    assert_eq!(*time_points, times, "caller order preserved");
    let expr = model.availability_expr();
    let up: Vec<bool> = graph
        .states()
        .iter()
        .map(|m| expr.eval(&|p: dtc_petri::PlaceId| m[p.index()]))
        .collect();
    for (&t, &a) in times.iter().zip(availability) {
        let pi = graph.ctmc().transient(&graph.initial_pi0(), t).unwrap();
        let per_point: f64 = pi.iter().zip(&up).filter(|(_, &u)| u).map(|(p, _)| p).sum();
        assert_eq!(a, per_point, "t = {t}: single pass must match per-point exactly");
    }
    for (report, horizon) in reports[2..].iter().zip([8760.0, 720.0]) {
        let AnalysisReport::Interval { availability, horizon_hours } = report else {
            panic!("interval report expected");
        };
        assert_eq!(*horizon_hours, horizon);
        // Compare against the legacy per-horizon engine, straight from
        // dtc-markov (one build + one march per call).
        let per_point = dtc_markov::interval_availability(
            graph.ctmc(),
            &graph.initial_pi0(),
            horizon,
            |i| up[i],
        )
        .unwrap();
        assert_eq!(
            *availability, per_point,
            "h = {horizon}: single pass must match per-horizon exactly"
        );
    }
    assert!((availability[13] - 1.0).abs() < 1e-12, "A(0) = 1 from the fully-up marking");
    let dup = (times.iter().position(|&t| t == 673.5).unwrap(), 15);
    assert_eq!(availability[dup.0], availability[dup.1], "duplicate times agree");

    // Parallelism must not change the work count: the same analysis set at
    // 4 worker threads is still exactly one build and one march (threads
    // split row blocks *inside* the march; they never add passes), and the
    // reports are byte-identical to the serial run — the deterministic-
    // kernel contract (dtc_markov::par) observed through the full
    // model → state space → analysis pipeline. This stays in the same test
    // fn so the process-wide counter deltas remain exact.
    let mut opts4 = EvalOptions::default();
    opts4.solver.threads = 4;
    let builds0 = instrument::uniformized_builds();
    let marches0 = instrument::transient_marches();
    let reports4 = model.evaluate_all_on(&spec, &graph, &requests, &opts4).unwrap();
    let builds = instrument::uniformized_builds() - builds0;
    let marches = instrument::transient_marches() - marches0;
    assert_eq!(builds, 1, "4 threads must not change the build count");
    assert_eq!(marches, 1, "4 threads must still share one power march");
    assert_eq!(
        format!("{reports:?}"),
        format!("{reports4:?}"),
        "reports at 4 threads must be byte-identical to the serial run"
    );
}
