//! Property tests for structure/rate separation (`TangibleStructure`).
//!
//! The contract under test is **bit-identity**, not closeness: for random
//! small GSPNs, re-rating an explored structure against a rate-only sibling
//! must produce exactly the graph a fresh exploration of that sibling
//! would — generator entries, initial distribution, states and stats, all
//! compared as `u64` bits. Structural edits (an added place or transition,
//! a redirected arc, a changed marking, weight or priority) must flip the
//! structural fingerprint, so `re_rate` rejects the net and `explore_from`
//! falls back to a full exploration.
//!
//! The random nets conserve tokens (every transition moves one token
//! between places) so state spaces stay small, and immediate transitions
//! only move tokens toward higher place indices so vanishing cascades are
//! acyclic and elimination always terminates.
//!
//! Re-rated and explored graphs must also solve to the same bits: the
//! Gauss–Seidel steady state, and the uniformized march at every
//! `thread_counts()` entry (`{1, 2, 4, 8}` plus whatever `DTC_TEST_THREADS`
//! adds; CI runs a 1/2/8 matrix), pinning that structure sharing composes
//! with the deterministic parallel kernels bit for bit. Chains below
//! `dtc_markov::par::MIN_PARALLEL_STATES` march on one worker, so one
//! test re-rates a net above that size to keep the threaded path covered.
//!
//! Seeded SplitMix64 keeps cases deterministic across runs (the external
//! `proptest` crate is unavailable offline).

use dtc_markov::curve::{uniformized_pass_with, PassOptions, PassOutput};
use dtc_markov::par;
use dtc_petri::model::{PetriNet, PetriNetBuilder, ServerSemantics};
use dtc_petri::reach::{
    explore, explore_from, structural_fingerprint, ExploreStats, ReachOptions, TangibleGraph,
};
use std::sync::Arc;

/// Deterministic pseudo-random stream (SplitMix64).
struct Gen(u64);

impl Gen {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn f64_in(&mut self, lo: f64, hi: f64) -> f64 {
        let u = (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        lo + (hi - lo) * u
    }

    fn usize_in(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() as usize) % (hi - lo + 1)
    }
}

/// A random GSPN's structure, kept separate from its timed rates so
/// rate-only siblings can be rebuilt from the same shape.
struct Shape {
    /// Initial tokens per place.
    initial: Vec<u32>,
    /// Timed transitions as (from, to, single-server?) token movers.
    timed: Vec<(usize, usize, bool)>,
    /// Immediate transitions as (from, to, weight, priority); `from < to`
    /// so vanishing cascades are acyclic.
    immediate: Vec<(usize, usize, f64, u8)>,
}

impl Shape {
    fn random(g: &mut Gen) -> Shape {
        let places = g.usize_in(3, 5);
        let mut initial: Vec<u32> = (0..places).map(|_| g.usize_in(0, 2) as u32).collect();
        initial[0] = initial[0].max(1);
        let timed = (0..g.usize_in(2, 6))
            .map(|_| {
                let from = g.usize_in(0, places - 1);
                let mut to = g.usize_in(0, places - 1);
                if to == from {
                    to = (to + 1) % places;
                }
                (from, to, g.next_u64() & 1 == 0)
            })
            .collect();
        let immediate = (0..g.usize_in(0, 3))
            .map(|_| {
                let from = g.usize_in(0, places - 2);
                let to = g.usize_in(from + 1, places - 1);
                (from, to, g.f64_in(0.5, 3.0), (g.next_u64() & 1) as u8)
            })
            .collect();
        Shape { initial, timed, immediate }
    }

    /// Random rates for the timed transitions, one per transition.
    fn rates(&self, g: &mut Gen) -> Vec<f64> {
        self.timed.iter().map(|_| g.f64_in(0.05, 10.0)).collect()
    }

    fn build(&self, rates: &[f64]) -> PetriNet {
        let mut b = PetriNetBuilder::new();
        let places: Vec<_> = self
            .initial
            .iter()
            .enumerate()
            .map(|(i, &m0)| b.place(format!("P{i}"), m0))
            .collect();
        for (k, &(from, to, single)) in self.timed.iter().enumerate() {
            let semantics =
                if single { ServerSemantics::Single } else { ServerSemantics::Infinite };
            b.timed(format!("T{k}"), rates[k], semantics)
                .input(places[from])
                .output(places[to])
                .done();
        }
        for (k, &(from, to, weight, priority)) in self.immediate.iter().enumerate() {
            b.immediate_weighted(format!("I{k}"), weight, priority)
                .input(places[from])
                .output(places[to])
                .done();
        }
        b.build().expect("generated net is well-formed")
    }
}

/// The generator's sparse entries with `u64`-bit values: the strictest
/// possible comparison between two graphs.
fn generator_bits(g: &TangibleGraph) -> Vec<(usize, u32, u64)> {
    let q = g.ctmc().generator();
    let mut out = Vec::new();
    for i in 0..g.num_states() {
        let (cols, vals) = q.row(i);
        for (c, v) in cols.iter().zip(vals) {
            out.push((i, *c, v.to_bits()));
        }
    }
    out
}

fn distribution_bits(g: &TangibleGraph) -> Vec<(usize, u64)> {
    g.initial_distribution().iter().map(|&(i, p)| (i, p.to_bits())).collect()
}

fn thread_counts() -> Vec<usize> {
    let mut counts = vec![1usize, 2, 4, 8];
    if let Ok(raw) = std::env::var("DTC_TEST_THREADS") {
        for part in raw.split(',') {
            if let Ok(v) = part.trim().parse::<usize>() {
                if v > 0 && !counts.contains(&v) {
                    counts.push(v);
                }
            }
        }
    }
    counts
}

const CASES: usize = 12;

#[test]
fn re_rate_is_bitwise_identical_to_fresh_explore_on_random_nets() {
    let opts = ReachOptions::default();
    let mut g = Gen(0x5EED_0001);
    for case in 0..CASES {
        let shape = Shape::random(&mut g);
        let base = shape.build(&shape.rates(&mut g));
        let graph = explore(&base, &opts).unwrap();

        for variant in 0..3 {
            let sibling = shape.build(&shape.rates(&mut g));
            let rerated = graph.structure().re_rate(&sibling).unwrap();
            let fresh = explore(&sibling, &opts).unwrap();
            assert_eq!(
                generator_bits(&rerated),
                generator_bits(&fresh),
                "case {case} variant {variant}: generator must be bit-identical"
            );
            assert_eq!(
                distribution_bits(&rerated),
                distribution_bits(&fresh),
                "case {case} variant {variant}: initial distribution must be bit-identical"
            );
            assert_eq!(rerated.states(), fresh.states());
            assert_eq!(rerated.stats(), fresh.stats());
            assert!(
                Arc::ptr_eq(rerated.structure(), graph.structure()),
                "case {case} variant {variant}: re-rate must share the explored structure"
            );

            // Structure sharing composes with the deterministic parallel
            // march: same bits at every thread count, whether the graph was
            // explored or re-rated.
            let context = format!("case {case} variant {variant}");
            assert_march_bits_agree(&rerated, &fresh, &context);

            // And the steady solve cannot tell them apart either.
            if !rerated.is_irreducible() {
                continue;
            }
            let warm = rerated.solve().unwrap();
            let cold = fresh.solve().unwrap();
            assert_eq!(
                bits(warm.probabilities()),
                bits(cold.probabilities()),
                "{context}: solve must not distinguish re-rated from explored graphs"
            );
        }
    }
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// One uniformized pass over `g` at `threads` workers: two transient
/// points and one cumulative horizon of the place-0-marked reward.
fn march(g: &TangibleGraph, threads: usize) -> PassOutput {
    let reward: Vec<f64> =
        (0..g.num_states()).map(|i| if g.marking(i)[0] > 0 { 1.0 } else { 0.0 }).collect();
    let opts = PassOptions { threads, ..PassOptions::default() };
    uniformized_pass_with(g.ctmc(), &g.initial_pi0(), &[0.5, 0.2], &[0.4], &reward, &opts)
        .unwrap()
}

/// The re-rated and the explored graph march to the same bits at every
/// thread count, and the thread count changes nothing.
fn assert_march_bits_agree(rerated: &TangibleGraph, fresh: &TangibleGraph, context: &str) {
    let outputs = |p: &PassOutput| {
        let mut v: Vec<Vec<u64>> = p.distributions.iter().map(|d| bits(d)).collect();
        v.push(bits(&p.cumulative));
        v
    };
    let reference = outputs(&march(fresh, 1));
    for threads in thread_counts() {
        assert_eq!(
            outputs(&march(rerated, threads)),
            reference,
            "{context} threads {threads}: re-rated march differs from the explored serial one"
        );
        assert_eq!(
            outputs(&march(fresh, threads)),
            reference,
            "{context} threads {threads}: thread count changed the march"
        );
    }
}

#[test]
fn re_rated_march_above_the_serial_cutoff_is_bitwise_identical() {
    // 20 tokens over 5 places: C(24, 4) = 10,626 tangible states, past
    // the size below which the march runs on one worker.
    let shape = Shape {
        initial: vec![20, 0, 0, 0, 0],
        timed: vec![
            (0, 1, true),
            (1, 2, true),
            (2, 3, true),
            (3, 4, true),
            (4, 0, true),
            (0, 2, false),
        ],
        immediate: Vec::new(),
    };
    let mut g = Gen(0x5EED_0003);
    let opts = ReachOptions::default();
    let graph = explore(&shape.build(&shape.rates(&mut g)), &opts).unwrap();
    assert!(graph.num_states() >= par::MIN_PARALLEL_STATES, "{} states", graph.num_states());
    let sibling = shape.build(&shape.rates(&mut g));
    let rerated = graph.structure().re_rate(&sibling).unwrap();
    let fresh = explore(&sibling, &opts).unwrap();
    assert_eq!(generator_bits(&rerated), generator_bits(&fresh));
    assert_march_bits_agree(&rerated, &fresh, "above the cutoff");
}

#[test]
fn structural_edits_flip_the_fingerprint_and_are_rejected() {
    let opts = ReachOptions::default();
    let mut g = Gen(0x5EED_0002);
    for case in 0..CASES {
        let shape = Shape::random(&mut g);
        let rates = shape.rates(&mut g);
        let base = shape.build(&rates);
        let graph = explore(&base, &opts).unwrap();
        let fp = structural_fingerprint(&base);
        assert_eq!(graph.structure().fingerprint(), fp);

        let places = shape.initial.len();
        let mut edits: Vec<(&str, Shape)> = Vec::new();
        edits.push((
            "added place",
            Shape {
                initial: {
                    let mut v = shape.initial.clone();
                    v.push(0);
                    v
                },
                timed: shape.timed.clone(),
                immediate: shape.immediate.clone(),
            },
        ));
        edits.push((
            "added transition",
            Shape {
                initial: shape.initial.clone(),
                timed: {
                    let mut v = shape.timed.clone();
                    v.push((places - 1, 0, true));
                    v
                },
                immediate: shape.immediate.clone(),
            },
        ));
        edits.push((
            "redirected arc",
            Shape {
                initial: shape.initial.clone(),
                timed: {
                    let mut v = shape.timed.clone();
                    let (from, to, single) = v[0];
                    let new_to = if (to + 1) % places == from {
                        (to + 2) % places
                    } else {
                        (to + 1) % places
                    };
                    v[0] = (from, new_to, single);
                    v
                },
                immediate: shape.immediate.clone(),
            },
        ));
        edits.push((
            "changed initial marking",
            Shape {
                initial: {
                    let mut v = shape.initial.clone();
                    v[0] += 1;
                    v
                },
                timed: shape.timed.clone(),
                immediate: shape.immediate.clone(),
            },
        ));
        if !shape.immediate.is_empty() {
            edits.push((
                "changed immediate weight",
                Shape {
                    initial: shape.initial.clone(),
                    timed: shape.timed.clone(),
                    immediate: {
                        let mut v = shape.immediate.clone();
                        v[0].2 += 0.25;
                        v
                    },
                },
            ));
        }

        // A rate-only sibling keeps the fingerprint; every edit flips it,
        // re_rate rejects, and explore_from counts a fallback (still
        // producing a correct graph for the edited net).
        let sibling = shape.build(&shape.rates(&mut g));
        assert_eq!(structural_fingerprint(&sibling), fp, "case {case}: rates leaked in");
        assert!(graph.structure().matches(&sibling));

        for (what, edited_shape) in &edits {
            let mut edited_rates = rates.clone();
            edited_rates.resize(edited_shape.timed.len(), 1.0);
            let edited = edited_shape.build(&edited_rates);
            assert_ne!(
                structural_fingerprint(&edited),
                fp,
                "case {case}: {what} must change the fingerprint"
            );
            assert!(!graph.structure().matches(&edited), "case {case}: {what}");
            assert!(
                graph.structure().re_rate(&edited).is_err(),
                "case {case}: re_rate must reject a net with {what}"
            );
            let mut stats = ExploreStats::default();
            let shared = Arc::clone(graph.structure());
            let fallback = explore_from(&edited, &opts, Some(&shared), &mut stats).unwrap();
            assert_eq!(
                stats,
                ExploreStats { explorations: 0, re_rates: 0, fallbacks: 1 },
                "case {case}: {what} must fall back to a full exploration"
            );
            let fresh = explore(&edited, &opts).unwrap();
            assert_eq!(
                generator_bits(&fallback),
                generator_bits(&fresh),
                "case {case}: {what}"
            );
        }
    }
}
