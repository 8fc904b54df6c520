//! Single-pass multi-time-point uniformization: one march, many curves.
//!
//! The per-point API ([`Ctmc::transient`], [`crate::cumulative_reward`])
//! rebuilds the uniformized DTMC `P = I + Q/Λ` and re-marches the power
//! sequence `π0·Pᵏ` from `k = 0` for **every** requested time. Curve
//! workloads — a Fig. 7-style availability curve over dozens of points, or a
//! transient + SLA-window analysis set — repeat that march almost entirely:
//! the uniformization rate `Λ` does not depend on `t`, so the vectors
//! `π0·Pᵏ` are shared by every time point and only the Poisson weights
//! differ.
//!
//! [`uniformized_pass`] exploits that: it builds `P` **once**, marches the
//! power sequence **once** (truncated by the largest `Λt` among the
//! requests), and accumulates every requested result during the same sweep —
//! point distributions `π(t) = Σ_k pois(Λt; k)·π0 Pᵏ` and cumulative rewards
//! `E[∫₀ʰ r(X_u) du] = Σ_k c_k(h)·(π0 Pᵏ)·r` alike. Each request keeps the
//! exact truncation and accumulation order of its per-point counterpart, so
//! results are bit-identical to the one-point-at-a-time path, just computed
//! in a single pass.
//!
//! [`uniformized_pass_with`] adds two orthogonal capabilities on the same
//! march:
//!
//! * **Parallelism** ([`PassOptions::threads`]): each step fans its SpMV
//!   row blocks, per-time-point axpy blocks, and dot-product partials out
//!   over scoped threads via the deterministic kernels in [`crate::par`] —
//!   the thread count can change the wall clock but never a result bit.
//! * **Reward projection** ([`PassOptions::point_reward`]): accumulate the
//!   scalars `r·π0Pᵏ` instead of materializing a distribution per unique
//!   time point, so a thousand-point year-horizon curve needs O(states)
//!   memory instead of O(states × points).

use crate::ctmc::Ctmc;
use crate::error::{MarkovError, Result};
use crate::instrument;
use crate::par;
use crate::solve;
use crate::transient::poisson_weights;

/// Truncation mass for point (transient) weights; matches
/// [`Ctmc::transient`].
const POINT_EPSILON: f64 = 1e-14;
/// Truncation mass for cumulative weights; matches
/// [`crate::cumulative_reward`].
const CUMULATIVE_EPSILON: f64 = 1e-13;

/// Scheduling and output-shape knobs for [`uniformized_pass_with`].
///
/// The default value reproduces [`uniformized_pass`] exactly: automatic
/// thread count, full distribution vectors per time point.
#[derive(Debug, Clone, Copy, Default)]
pub struct PassOptions<'a> {
    /// Worker threads for the march kernels: `0` means one per available
    /// core, `1` forces the serial path; chains below
    /// [`par::MIN_PARALLEL_STATES`] states always march serially. Results
    /// are bit-identical at every value (see [`crate::par`] for the
    /// contract).
    pub threads: usize,
    /// Reward-projection mode: when set, the pass accumulates the scalars
    /// `r·π(t)` into [`PassOutput::point_rewards`] instead of
    /// materializing a distribution per unique time point, keeping memory
    /// at O(states) regardless of how many points are requested.
    /// [`PassOutput::distributions`] comes back empty. The projected
    /// values agree with `dot(distribution, r)` of the full-vector mode to
    /// ≤ 1e-12 (projection skips the final defensive renormalization,
    /// whose correction is bounded by the truncation mass).
    pub point_reward: Option<&'a [f64]>,
}

/// What one shared march produced, in the caller's request order.
#[derive(Debug, Clone)]
pub struct PassOutput {
    /// `π(t)` for each entry of `point_times` (caller order, duplicates
    /// allowed; `t == 0` returns `pi0` verbatim). Empty in
    /// reward-projection mode.
    pub distributions: Vec<Vec<f64>>,
    /// `E[∫₀ʰ r(X_u) du]` for each entry of `horizons` (caller order;
    /// `h == 0` yields `0.0`).
    pub cumulative: Vec<f64>,
    /// `r·π(t)` for each entry of `point_times` when
    /// [`PassOptions::point_reward`] was set; empty otherwise.
    pub point_rewards: Vec<f64>,
    /// What the pass actually cost.
    pub stats: PassStats,
}

/// Work performed by one [`uniformized_pass`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PassStats {
    /// Uniformized-matrix constructions (0 when every request is trivial,
    /// 1 otherwise — never more).
    pub matrix_builds: usize,
    /// Power marches (0 or 1, same rule).
    pub marches: usize,
    /// Number of `π0·Pᵏ` terms the march visited (the largest per-request
    /// truncation point).
    pub truncation_k: usize,
}

/// Evaluates every requested transient point and cumulative horizon in one
/// uniformization pass over `ctmc`.
///
/// * `point_times` — times `t ≥ 0` (hours) at which the transient
///   distribution is wanted. **Any order, duplicates and `0.0` allowed**;
///   `distributions` comes back in exactly this order.
/// * `horizons` — horizons `h ≥ 0` for the cumulative reward
///   `E[∫₀ʰ reward(X_u) du]`; `cumulative` comes back in this order.
/// * `cumulative_reward` — per-state reward rates; only consulted when
///   `horizons` is non-empty.
///
/// # Errors
///
/// [`MarkovError::DimensionMismatch`] on wrong `pi0`/reward lengths,
/// [`MarkovError::NegativeTime`] on a negative or non-finite time/horizon.
pub fn uniformized_pass(
    ctmc: &Ctmc,
    pi0: &[f64],
    point_times: &[f64],
    horizons: &[f64],
    cumulative_reward: &[f64],
) -> Result<PassOutput> {
    uniformized_pass_with(
        ctmc,
        pi0,
        point_times,
        horizons,
        cumulative_reward,
        &PassOptions::default(),
    )
}

/// [`uniformized_pass`] with explicit [`PassOptions`]: a thread count for
/// the deterministic parallel kernels and/or reward-projection output.
///
/// Each march step is software-pipelined into one fan-out: every job of
/// step `k` reads the shared vector `π0·Pᵏ` — the per-time-point
/// accumulations (axpy blocks or projection dot partials), the cumulative
/// dot partials, and the SpMV row blocks producing `π0·Pᵏ⁺¹` for the next
/// step all run in a single thread scope, then the calling thread combines
/// the dot partials in fixed block order. See [`crate::par`] for why none
/// of this can change a result bit.
///
/// # Errors
///
/// As [`uniformized_pass`], plus [`MarkovError::DimensionMismatch`] when
/// [`PassOptions::point_reward`] is set with the wrong length while point
/// times are requested.
pub fn uniformized_pass_with(
    ctmc: &Ctmc,
    pi0: &[f64],
    point_times: &[f64],
    horizons: &[f64],
    cumulative_reward: &[f64],
    options: &PassOptions<'_>,
) -> Result<PassOutput> {
    let n = ctmc.num_states();
    if pi0.len() != n {
        return Err(MarkovError::DimensionMismatch { expected: n, got: pi0.len() });
    }
    for &t in point_times.iter().chain(horizons) {
        if !t.is_finite() || t < 0.0 {
            return Err(MarkovError::NegativeTime(t));
        }
    }
    if !horizons.is_empty() && cumulative_reward.len() != n {
        return Err(MarkovError::DimensionMismatch {
            expected: n,
            got: cumulative_reward.len(),
        });
    }
    let project = options.point_reward;
    if let Some(r) = project {
        if !point_times.is_empty() && r.len() != n {
            return Err(MarkovError::DimensionMismatch { expected: n, got: r.len() });
        }
    }
    // Resolved once per pass; small chains march serially (see
    // `par::MIN_PARALLEL_STATES`), which cannot change a result bit.
    let threads =
        if n < par::MIN_PARALLEL_STATES { 1 } else { par::resolve_threads(options.threads) };

    let lambda = ctmc.uniformization_rate();

    // Dedup identical requests so duplicates share one Poisson weight
    // vector, one accumulator, and one accumulation per march step; the
    // slot maps lead each request back to its unique value. Exact `f64`
    // equality is safe here — NaNs were rejected above.
    let dedup = |values: &[f64]| -> (Vec<f64>, Vec<usize>) {
        let mut unique: Vec<f64> = Vec::new();
        let slots = values
            .iter()
            .map(|&v| {
                unique.iter().position(|&u| u == v).unwrap_or_else(|| {
                    unique.push(v);
                    unique.len() - 1
                })
            })
            .collect();
        (unique, slots)
    };
    let (times, time_slot) = dedup(point_times);
    let (cum_horizons, horizon_slot) = dedup(horizons);

    // Per-unique-request Poisson weights, each with the same truncation its
    // per-point counterpart would have used. The march length is the
    // largest truncation among them.
    let point_weights: Vec<Option<Vec<f64>>> = times
        .iter()
        .map(|&t| (t > 0.0).then(|| poisson_weights(lambda * t, POINT_EPSILON)))
        .collect();
    let horizon_weights: Vec<Option<Vec<f64>>> = cum_horizons
        .iter()
        .map(|&h| (h > 0.0).then(|| poisson_weights(lambda * h, CUMULATIVE_EPSILON)))
        .collect();
    let weights_len = |w: &Option<Vec<f64>>| w.as_ref().map_or(0, Vec::len);
    // The march stops where the longest-lived request truncates; the
    // cumulative dot product is only worth computing up to the longest
    // *horizon* truncation.
    let cum_kmax = horizon_weights.iter().map(weights_len).max().unwrap_or(0);
    let kmax = point_weights.iter().map(weights_len).max().unwrap_or(0).max(cum_kmax);

    // Accumulators: a distribution (full-vector mode) or a scalar
    // (projection mode) per live unique time, a scalar (and a running
    // Poisson CDF) per unique horizon.
    let mut point_acc: Vec<Option<Vec<f64>>> = if project.is_some() {
        Vec::new()
    } else {
        point_weights.iter().map(|w| w.as_ref().map(|_| vec![0.0; n])).collect()
    };
    let mut proj_acc = vec![0.0f64; if project.is_some() { times.len() } else { 0 }];
    let mut cum_acc = vec![0.0f64; cum_horizons.len()];
    let mut cum_cdf = vec![0.0f64; cum_horizons.len()];

    let mut stats = PassStats::default();
    if kmax > 0 {
        // One trace node frames the whole pass so the build and the march
        // land as its children in a request's span tree (inert offline).
        let _pass_span = dtc_obs::trace::trace_span("uniformized_pass");
        let pt = {
            let _build_span = dtc_obs::stage_span("uniformized_build");
            let p = ctmc.uniformized(lambda);
            dtc_obs::trace::attr_int("states", n as i64);
            dtc_obs::trace::attr_int("transitions", p.nnz() as i64);
            // The march evaluates `next = cur·P` as `next = Pᵀ·cur` through
            // the row-block kernel. The transpose keeps ascending
            // source-row order within each transposed row, so every output
            // element accumulates its terms in exactly the order the
            // serial scatter (`vec_mul_into`) used — the switch is
            // bit-exact, and it is what makes disjoint row blocks
            // possible.
            p.transpose()
        };
        stats.matrix_builds = 1;
        stats.marches = 1;
        stats.truncation_k = kmax;
        instrument::count_transient_march();
        let _march_span = dtc_obs::stage_span("march");
        dtc_obs::trace::attr_int("truncation_k", kmax as i64);
        dtc_obs::trace::attr_int("time_points", times.len() as i64);
        dtc_obs::trace::attr_int("horizons", cum_horizons.len() as i64);
        dtc_obs::trace::attr_int("threads", threads as i64);

        let nb = par::num_blocks(n);
        let mut cur = pi0.to_vec();
        let mut next = vec![0.0; n];
        let mut cum_partials = vec![0.0f64; nb];
        let mut proj_partials = vec![0.0f64; nb];
        let live_at = |w: &Option<Vec<f64>>, k: usize| {
            w.as_ref().is_some_and(|w| k < w.len() && w[k] > 0.0)
        };
        for k in 0..kmax {
            // Software-pipelined step: every job reads `cur` = π0·Pᵏ. The
            // accumulations for step k and the SpMV producing π0·Pᵏ⁺¹ for
            // step k+1 fan out in one scope; nothing below writes a slot
            // any other job touches.
            let need_cum = k < cum_kmax;
            let need_proj = project.is_some() && point_weights.iter().any(|w| live_at(w, k));
            let mut jobs: Vec<par::Job<'_>> = Vec::new();
            if k + 1 < kmax {
                for (start_row, out) in par::split_blocks(&mut next) {
                    jobs.push(par::Job::MulVec { a: &pt, x: &cur, start_row, out });
                }
            }
            if need_cum {
                for (r, out) in par::block_ranges(n).into_iter().zip(cum_partials.iter_mut()) {
                    jobs.push(par::Job::DotPartial {
                        a: &cur[r.clone()],
                        b: &cumulative_reward[r],
                        out,
                    });
                }
            }
            if let Some(reward) = project {
                if need_proj {
                    for (r, out) in
                        par::block_ranges(n).into_iter().zip(proj_partials.iter_mut())
                    {
                        jobs.push(par::Job::DotPartial {
                            a: &cur[r.clone()],
                            b: &reward[r],
                            out,
                        });
                    }
                }
            } else {
                for (w, acc) in point_weights.iter().zip(&mut point_acc) {
                    let (Some(w), Some(acc)) = (w, acc) else { continue };
                    // Stop exactly where the per-point march would have
                    // truncated, preserving bit-identical accumulation.
                    if k < w.len() && w[k] > 0.0 {
                        let wk = w[k];
                        for (start, out) in par::split_blocks(acc) {
                            let src = &cur[start..start + out.len()];
                            jobs.push(par::Job::Axpy { wk, src, out });
                        }
                    }
                }
            }
            par::run_jobs(jobs, threads);
            // Combine the dot partials in fixed block order on this thread;
            // the scalar updates below don't depend on the thread count.
            if need_cum {
                let r = cum_partials.iter().sum::<f64>();
                for ((w, acc), cdf) in
                    horizon_weights.iter().zip(&mut cum_acc).zip(&mut cum_cdf)
                {
                    let Some(w) = w else { continue };
                    if k < w.len() {
                        *cdf += w[k];
                        let ck = (1.0 - *cdf).max(0.0) / lambda;
                        if ck > 0.0 {
                            *acc += ck * r;
                        }
                    }
                }
            }
            if need_proj {
                let s = proj_partials.iter().sum::<f64>();
                for (w, pa) in point_weights.iter().zip(proj_acc.iter_mut()) {
                    if live_at(w, k) {
                        let wk = w.as_ref().expect("live weight")[k];
                        *pa += wk * s;
                    }
                }
            }
            if k + 1 < kmax {
                std::mem::swap(&mut cur, &mut next);
            }
        }
    }

    let cumulative: Vec<f64> = horizon_slot.iter().map(|&s| cum_acc[s]).collect();
    if let Some(reward) = project {
        // t == 0: project the initial distribution directly (the march
        // never touches those slots).
        for (w, pa) in point_weights.iter().zip(proj_acc.iter_mut()) {
            if w.is_none() {
                *pa = par::blocked_dot(pi0, reward, threads);
            }
        }
        let point_rewards = time_slot.iter().map(|&s| proj_acc[s]).collect();
        return Ok(PassOutput { distributions: Vec::new(), cumulative, point_rewards, stats });
    }

    let mut unique_distributions: Vec<Option<Vec<f64>>> = point_acc
        .into_iter()
        .map(|acc| match acc {
            Some(mut acc) => {
                // Guard against accumulated rounding, as the per-point
                // solver does.
                solve::normalize(&mut acc);
                Some(acc)
            }
            // t == 0: the transient distribution is the initial one,
            // returned verbatim (no normalization), matching
            // `Ctmc::transient`.
            None => Some(pi0.to_vec()),
        })
        .collect();
    // Move each unique distribution out at its last use; only genuine
    // duplicates pay a copy.
    let mut last_use = vec![0usize; unique_distributions.len()];
    for (i, &s) in time_slot.iter().enumerate() {
        last_use[s] = i;
    }
    let distributions = time_slot
        .iter()
        .enumerate()
        .map(|(i, &s)| {
            if last_use[s] == i {
                unique_distributions[s].take().expect("moved only at last use")
            } else {
                unique_distributions[s].as_ref().expect("taken only at last use").clone()
            }
        })
        .collect();
    Ok(PassOutput { distributions, cumulative, point_rewards: Vec::new(), stats })
}

/// Cumulative rewards `E[∫₀ʰ r(X_u) du]` for many horizons from one pass —
/// the multi-horizon form of [`crate::cumulative_reward`].
pub fn cumulative_reward_curve(
    ctmc: &Ctmc,
    pi0: &[f64],
    horizons: &[f64],
    reward: &[f64],
) -> Result<Vec<f64>> {
    Ok(uniformized_pass(ctmc, pi0, &[], horizons, reward)?.cumulative)
}

/// Expected interval availability over `[0, h]` for many horizons from one
/// pass — the multi-horizon form of [`crate::interval_availability`].
///
/// # Errors
///
/// Rejects non-positive horizons, like the single-horizon form.
pub fn interval_availability_curve(
    ctmc: &Ctmc,
    pi0: &[f64],
    horizons: &[f64],
    up: impl Fn(usize) -> bool,
) -> Result<Vec<f64>> {
    if let Some(&bad) = horizons.iter().find(|&&h| h <= 0.0) {
        return Err(MarkovError::NegativeTime(bad));
    }
    let reward: Vec<f64> =
        (0..ctmc.num_states()).map(|i| if up(i) { 1.0 } else { 0.0 }).collect();
    let acc = cumulative_reward_curve(ctmc, pi0, horizons, &reward)?;
    Ok(acc.iter().zip(horizons).map(|(a, h)| a / h).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctmc::CtmcBuilder;
    use crate::cumulative::{cumulative_reward, interval_availability};

    fn repairable(lam: f64, mu: f64) -> Ctmc {
        let mut b = CtmcBuilder::new(2);
        b.rate(0, 1, lam);
        b.rate(1, 0, mu);
        b.build().unwrap()
    }

    /// The contract the whole stack leans on: unsorted, duplicated and zero
    /// time points are accepted and come back in caller order.
    #[test]
    fn unsorted_duplicate_and_zero_times_keep_caller_order() {
        let c = repairable(0.2, 0.8);
        let pi0 = [1.0, 0.0];
        let times = [10.0, 0.0, 1.0, 10.0, 0.5, 0.0];
        let curve = c.transient_curve(&pi0, &times).unwrap();
        assert_eq!(curve.len(), times.len());
        for (&t, pi) in times.iter().zip(&curve) {
            let reference = c.transient(&pi0, t).unwrap();
            assert_eq!(*pi, reference, "t = {t} must match the per-point solver exactly");
        }
        // Duplicates are identical, zeros are the initial distribution
        // verbatim.
        assert_eq!(curve[0], curve[3]);
        assert_eq!(curve[1], pi0.to_vec());
        assert_eq!(curve[5], pi0.to_vec());
    }

    #[test]
    fn empty_and_all_zero_requests_do_no_work() {
        let c = repairable(1.0, 1.0);
        let out = uniformized_pass(&c, &[0.5, 0.5], &[], &[], &[]).unwrap();
        assert_eq!(out.stats, PassStats::default());
        assert!(out.distributions.is_empty() && out.cumulative.is_empty());

        let out = uniformized_pass(&c, &[0.5, 0.5], &[0.0, 0.0], &[0.0], &[1.0, 0.0]).unwrap();
        assert_eq!(out.stats, PassStats::default(), "t = 0 everywhere needs no march");
        assert_eq!(out.distributions, vec![vec![0.5, 0.5]; 2]);
        assert_eq!(out.cumulative, vec![0.0]);
    }

    #[test]
    fn one_pass_matches_per_point_cumulative_bit_for_bit() {
        let c = repairable(0.3, 1.7);
        let pi0 = [1.0, 0.0];
        let reward = [1.0, 0.0];
        let horizons = [50.0, 0.1, 5.0, 50.0];
        let curve = cumulative_reward_curve(&c, &pi0, &horizons, &reward).unwrap();
        for (&h, &got) in horizons.iter().zip(&curve) {
            let reference = cumulative_reward(&c, &pi0, h, &reward).unwrap();
            assert_eq!(got, reference, "h = {h}");
        }
    }

    #[test]
    fn interval_curve_matches_per_horizon_and_rejects_nonpositive() {
        let c = repairable(0.1, 1.0);
        let pi0 = [1.0, 0.0];
        let horizons = [24.0, 1.0, 8760.0];
        let curve = interval_availability_curve(&c, &pi0, &horizons, |i| i == 0).unwrap();
        for (&h, &got) in horizons.iter().zip(&curve) {
            let reference = interval_availability(&c, &pi0, h, |i| i == 0).unwrap();
            assert_eq!(got, reference, "h = {h}");
        }
        assert!(matches!(
            interval_availability_curve(&c, &pi0, &[24.0, 0.0], |i| i == 0),
            Err(MarkovError::NegativeTime(_))
        ));
    }

    #[test]
    fn combined_pass_costs_one_build_and_one_march() {
        let c = repairable(0.4, 0.9);
        let builds0 = instrument::uniformized_builds();
        let marches0 = instrument::transient_marches();
        let out = uniformized_pass(
            &c,
            &[1.0, 0.0],
            &[1.0, 10.0, 100.0, 0.0],
            &[24.0, 720.0],
            &[1.0, 0.0],
        )
        .unwrap();
        assert_eq!(out.stats.matrix_builds, 1);
        assert_eq!(out.stats.marches, 1);
        assert!(out.stats.truncation_k > 0);
        assert_eq!(out.distributions.len(), 4);
        assert_eq!(out.cumulative.len(), 2);
        // Note: concurrent tests in this binary may also bump the globals,
        // so assert only the lower bound here; the exact-delta assertion
        // lives in a single-test integration binary (dtc-core).
        assert!(instrument::uniformized_builds() > builds0);
        assert!(instrument::transient_marches() > marches0);
    }

    #[test]
    fn projection_mode_matches_full_vector_dots() {
        let c = repairable(0.3, 1.1);
        let pi0 = [0.7, 0.3];
        let reward = [1.0, 0.25];
        let times = [5.0, 0.0, 1.0, 5.0];
        let o = PassOptions { threads: 1, point_reward: Some(&reward) };
        let proj = uniformized_pass_with(&c, &pi0, &times, &[], &[], &o).unwrap();
        assert!(proj.distributions.is_empty(), "projection materializes no vectors");
        assert_eq!(proj.point_rewards.len(), times.len());
        let full = uniformized_pass(&c, &pi0, &times, &[], &[]).unwrap();
        assert!(full.point_rewards.is_empty());
        for (i, (p, d)) in proj.point_rewards.iter().zip(&full.distributions).enumerate() {
            let want = solve::dot(d, &reward);
            assert!((p - want).abs() <= 1e-12, "i = {i}: {p} vs {want}");
        }
        // Duplicates share a slot; t == 0 projects pi0 directly.
        assert_eq!(proj.point_rewards[0], proj.point_rewards[3]);
        assert_eq!(proj.point_rewards[1], solve::dot(&pi0, &reward));
        // Same work count as the full-vector pass: one build, one march.
        assert_eq!(proj.stats, full.stats);
    }

    #[test]
    fn projection_rejects_wrong_reward_length() {
        let c = repairable(1.0, 1.0);
        let o = PassOptions { threads: 1, point_reward: Some(&[1.0]) };
        assert!(matches!(
            uniformized_pass_with(&c, &[1.0, 0.0], &[1.0], &[], &[], &o),
            Err(MarkovError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn bad_inputs_are_rejected() {
        let c = repairable(1.0, 1.0);
        assert!(matches!(
            uniformized_pass(&c, &[1.0], &[], &[], &[]),
            Err(MarkovError::DimensionMismatch { .. })
        ));
        assert!(matches!(
            uniformized_pass(&c, &[1.0, 0.0], &[1.0, -2.0], &[], &[]),
            Err(MarkovError::NegativeTime(_))
        ));
        assert!(matches!(
            uniformized_pass(&c, &[1.0, 0.0], &[], &[f64::NAN], &[1.0, 0.0]),
            Err(MarkovError::NegativeTime(_))
        ));
        assert!(matches!(
            uniformized_pass(&c, &[1.0, 0.0], &[], &[1.0], &[1.0]),
            Err(MarkovError::DimensionMismatch { .. })
        ));
        // The reward is ignored (and unchecked) when no horizon needs it.
        assert!(uniformized_pass(&c, &[1.0, 0.0], &[1.0], &[], &[]).is_ok());
    }
}
