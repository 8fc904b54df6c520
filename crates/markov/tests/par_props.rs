//! Property tests for the deterministic parallel kernels (`dtc_markov::par`).
//!
//! The contract under test is **bit-identity**, not closeness: for random
//! CTMCs — including unsorted/duplicate/zero time points and chains large
//! enough to put many elements in each fixed block — every march output at
//! `threads ∈ {1, 2, 4, 8}` (plus whatever `DTC_TEST_THREADS` adds; CI runs
//! a 1/2/8 matrix) must equal the serial path to the last bit. Chains below
//! `par::MIN_PARALLEL_STATES` march on one worker whatever the thread
//! count, so one test marches chains above that cutoff to keep the
//! threaded path under test. Only the reward-projection mode is held to a
//! 1e-12 tolerance against the full-vector mode, because projection
//! intentionally skips the final defensive renormalization.
//!
//! Seeded SplitMix64 keeps cases deterministic across runs (the external
//! `proptest` crate is unavailable offline).

use dtc_markov::curve::{uniformized_pass_with, PassOptions, PassOutput};
use dtc_markov::{dot, par, Ctmc, CtmcBuilder};
use dtc_obs::trace::{install, AttrValue, TraceContext, TraceId};

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

    /// A random irreducible CTMC: a directed cycle through all states plus
    /// random extra transitions. Alternates between small chains (states
    /// outnumbered by threads — each block is a single element) and chains
    /// well past `par::MAX_BLOCKS` states (multi-element blocks, a short
    /// last block).
    fn ctmc(&mut self) -> Ctmc {
        let n = if self.next_u64() & 1 == 0 {
            self.usize_in(2, 6)
        } else {
            self.usize_in(par::MAX_BLOCKS + 1, 3 * par::MAX_BLOCKS + 5)
        };
        self.ctmc_of_size(n)
    }

    /// A random irreducible CTMC with exactly `n` states.
    fn ctmc_of_size(&mut self, n: usize) -> Ctmc {
        let mut b = CtmcBuilder::new(n);
        for i in 0..n {
            b.rate(i, (i + 1) % n, self.f64_in(0.05, 5.0));
        }
        for _ in 0..self.usize_in(0, 2 * n) {
            let from = self.usize_in(0, n - 1);
            let to = self.usize_in(0, n - 1);
            if from != to {
                b.rate(from, to, self.f64_in(0.01, 10.0));
            }
        }
        b.build().unwrap()
    }

    /// A random initial distribution (a point mass half the time).
    fn pi0(&mut self, n: usize) -> Vec<f64> {
        if self.next_u64() & 1 == 0 {
            let mut pi0 = vec![0.0; n];
            pi0[self.usize_in(0, n - 1)] = 1.0;
            pi0
        } else {
            let raw: Vec<f64> = (0..n).map(|_| self.f64_in(0.0, 1.0)).collect();
            let sum: f64 = raw.iter().sum();
            raw.iter().map(|x| x / sum).collect()
        }
    }

    /// An unsorted time grid with duplicates and an explicit zero.
    fn times(&mut self) -> Vec<f64> {
        let mut times: Vec<f64> =
            (0..self.usize_in(3, 9)).map(|_| self.f64_in(0.0, 50.0)).collect();
        times.push(0.0);
        let dup = times[self.usize_in(0, times.len() - 1)];
        times.push(dup);
        times
    }
}

const CASES: usize = 12;

/// Thread counts under test: the fixed {1, 2, 4, 8} set plus anything the
/// CI matrix injects via `DTC_TEST_THREADS` (comma-separated).
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

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn assert_pass_bits_equal(a: &PassOutput, b: &PassOutput, context: &str) {
    assert_eq!(a.distributions.len(), b.distributions.len(), "{context}");
    for (i, (da, db)) in a.distributions.iter().zip(&b.distributions).enumerate() {
        assert_eq!(bits(da), bits(db), "{context}: distribution {i} differs");
    }
    assert_eq!(bits(&a.cumulative), bits(&b.cumulative), "{context}: cumulative differs");
    assert_eq!(
        bits(&a.point_rewards),
        bits(&b.point_rewards),
        "{context}: point_rewards differs"
    );
    assert_eq!(a.stats, b.stats, "{context}: work count differs");
}

#[test]
fn uniformized_pass_bit_identical_across_thread_counts() {
    let counts = thread_counts();
    let mut g = Gen(0x9A12_11E7);
    for case in 0..CASES {
        let c = g.ctmc();
        let n = c.num_states();
        let pi0 = g.pi0(n);
        let times = g.times();
        let horizons: Vec<f64> = (0..3).map(|_| g.f64_in(0.1, 60.0)).collect();
        let reward: Vec<f64> =
            (0..n).map(|i| if i < n.div_ceil(2) { 1.0 } else { 0.0 }).collect();
        let serial = uniformized_pass_with(
            &c,
            &pi0,
            &times,
            &horizons,
            &reward,
            &PassOptions { threads: 1, ..Default::default() },
        )
        .unwrap();
        for &threads in &counts[1..] {
            let parallel = uniformized_pass_with(
                &c,
                &pi0,
                &times,
                &horizons,
                &reward,
                &PassOptions { threads, ..Default::default() },
            )
            .unwrap();
            assert_pass_bits_equal(
                &serial,
                &parallel,
                &format!("case {case} (n = {n}), threads = {threads}"),
            );
        }
    }
}

#[test]
fn projection_bit_identical_across_threads_and_close_to_full_vector() {
    let counts = thread_counts();
    let mut g = Gen(0x0BAD_F00D);
    for case in 0..CASES {
        let c = g.ctmc();
        let n = c.num_states();
        let pi0 = g.pi0(n);
        let times = g.times();
        let reward: Vec<f64> = (0..n).map(|_| g.f64_in(0.0, 2.0)).collect();
        let serial = uniformized_pass_with(
            &c,
            &pi0,
            &times,
            &[],
            &[],
            &PassOptions { threads: 1, point_reward: Some(&reward) },
        )
        .unwrap();
        assert!(serial.distributions.is_empty(), "case {case}: projection keeps O(n) memory");
        assert_eq!(serial.point_rewards.len(), times.len());
        for &threads in &counts[1..] {
            let parallel = uniformized_pass_with(
                &c,
                &pi0,
                &times,
                &[],
                &[],
                &PassOptions { threads, point_reward: Some(&reward) },
            )
            .unwrap();
            assert_pass_bits_equal(
                &serial,
                &parallel,
                &format!("case {case} (n = {n}), threads = {threads}"),
            );
        }
        // Projection vs. full-vector mode: ≤ 1e-12 (projection skips the
        // final renormalization, bounded by the truncation mass).
        let full = uniformized_pass_with(
            &c,
            &pi0,
            &times,
            &[],
            &[],
            &PassOptions { threads: 1, ..Default::default() },
        )
        .unwrap();
        for (i, (p, d)) in serial.point_rewards.iter().zip(&full.distributions).enumerate() {
            let want = dot(d, &reward);
            assert!(
                (p - want).abs() <= 1e-12,
                "case {case}, point {i} (t = {}): projected {p} vs full-vector {want}",
                times[i]
            );
        }
    }
}

#[test]
fn march_above_serial_cutoff_bit_identical_across_thread_counts() {
    let counts = thread_counts();
    let mut g = Gen(0x7A11_C0DE);
    for case in 0..3 {
        let n = par::MIN_PARALLEL_STATES + g.usize_in(1, 2 * par::MAX_BLOCKS);
        let c = g.ctmc_of_size(n);
        let pi0 = g.pi0(n);
        // Short horizons keep the march to a few hundred steps.
        let times = [0.5, 0.0, 1.5, 0.5];
        let horizons = [1.0, 2.0];
        let reward: Vec<f64> = (0..n).map(|_| g.f64_in(0.0, 1.0)).collect();
        let run = |threads: usize, point_reward: Option<&[f64]>| {
            let opts = PassOptions { threads, point_reward };
            uniformized_pass_with(&c, &pi0, &times, &horizons, &reward, &opts).unwrap()
        };
        let (serial, serial_proj) = (run(1, None), run(1, Some(&reward)));
        for &threads in &counts[1..] {
            let context = format!("case {case} (n = {n}), threads = {threads}");
            assert_pass_bits_equal(&serial, &run(threads, None), &context);
            assert_pass_bits_equal(&serial_proj, &run(threads, Some(&reward)), &context);
        }
    }
}

/// The worker count a one-point pass over `c` records on its `march` span.
fn march_workers(c: &Ctmc, threads: usize) -> AttrValue {
    let ctx = TraceContext::new(TraceId::generate());
    {
        let _installed = install(&ctx);
        let mut pi0 = vec![0.0; c.num_states()];
        pi0[0] = 1.0;
        let opts = PassOptions { threads, ..Default::default() };
        uniformized_pass_with(c, &pi0, &[0.1], &[], &[], &opts).unwrap();
    }
    let march = ctx.snapshot().spans.into_iter().find(|s| s.name == "march").expect("a march");
    march.attrs.into_iter().find(|(k, _)| k == "threads").expect("threads attr").1
}

#[test]
fn small_chains_march_on_one_worker_large_ones_on_the_requested_count() {
    let mut g = Gen(0x0C07_0FF5);
    let small = g.ctmc_of_size(par::MIN_PARALLEL_STATES - 1);
    let large = g.ctmc_of_size(par::MIN_PARALLEL_STATES);
    for threads in [2usize, 4] {
        assert_eq!(march_workers(&small, threads), AttrValue::Int(1), "threads = {threads}");
        assert_eq!(march_workers(&large, threads), AttrValue::Int(threads as i64));
    }
}

#[test]
fn blocked_dot_bit_identical_on_generator_sized_vectors() {
    let counts = thread_counts();
    let mut g = Gen(0x5EED_CAFE);
    for case in 0..CASES {
        let n = g.ctmc().num_states();
        let x = g.pi0(n);
        let r: Vec<f64> = (0..n).map(|_| g.f64_in(-1.0, 1.0)).collect();
        let dot1 = par::blocked_dot(&x, &r, 1);
        for &threads in &counts {
            assert_eq!(
                dot1.to_bits(),
                par::blocked_dot(&x, &r, threads).to_bits(),
                "case {case} (n = {n}), threads = {threads}: blocked dot differs"
            );
        }
    }
}
