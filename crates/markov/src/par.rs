//! Deterministic parallel kernels for the uniformized march.
//!
//! Every kernel here honors one contract: **the thread count can never
//! change a single output bit.** Three rules enforce it:
//!
//! * Work is partitioned into **fixed row blocks** whose boundaries depend
//!   only on the problem size — [`num_blocks`]`(n) = min(n, 64)` blocks,
//!   block `i` covering rows `i·n/nb .. (i+1)·n/nb` — never on the thread
//!   count.
//! * Each block writes its own **disjoint output slice**, so no `f64` is
//!   ever touched by two workers and no store is ever racy.
//! * Reductions (sums, dot products) accumulate serially *within* a block
//!   and combine the per-block partials in **ascending block order** on the
//!   calling thread, so the f64 summation order is a function of `n` alone.
//!
//! Threads only decide *which worker* runs a block; the arithmetic per
//! element is identical at `threads = 1` and `threads = 64`. The seeded
//! harness in `crates/markov/tests/par_props.rs` pins this bit-for-bit.
//!
//! Scoped `std::thread` workers are used — the workspace builds offline,
//! so rayon is unavailable by design (see `crates/shims/`). A scope is
//! spawned per march step in [`crate::curve::uniformized_pass_with`];
//! spawn cost amortizes over the 100k-state matrices these kernels target,
//! chains below [`MIN_PARALLEL_STATES`] march on one worker, and
//! `threads <= 1` takes a spawn-free serial path through the *same* block
//! loop.

use crate::sparse::CsrMatrix;
use std::ops::Range;

/// Upper bound on the number of row blocks. 64 blocks keep every core of
/// any realistic machine busy while the per-block slices stay large enough
/// to amortize scheduling.
pub const MAX_BLOCKS: usize = 64;

/// Chains with fewer states march on one worker whatever thread count is
/// asked for: below this size a scoped spawn per step costs more than it
/// saves. On a 2-core machine (random chains, ~5 nonzeros per row, 3,498
/// steps) two workers took 4.7× the serial time per step at 1,024 states,
/// 1.07× at 4,096, 0.83× at 8,192 and 0.67× from 16,384 on; a 4,350-state
/// month-window march took 1.84 s on one worker and 1.91 s on two. The
/// thread count never changes a result bit, so neither does this cutoff.
pub const MIN_PARALLEL_STATES: usize = 8192;

/// Number of fixed blocks for a vector of `len` elements:
/// `min(len, MAX_BLOCKS)` — every block is non-empty.
pub fn num_blocks(len: usize) -> usize {
    len.min(MAX_BLOCKS)
}

/// The fixed block boundaries for a vector of `len` elements. Depends only
/// on `len`: block `i` is `i·len/nb .. (i+1)·len/nb`.
pub fn block_ranges(len: usize) -> Vec<Range<usize>> {
    blocks(len).collect()
}

/// The fixed block boundaries of [`block_ranges`], without allocating.
fn blocks(len: usize) -> impl Iterator<Item = Range<usize>> {
    let nb = num_blocks(len);
    (0..nb).map(move |i| (i * len / nb)..((i + 1) * len / nb))
}

/// Resolves a thread-count knob: `0` becomes one thread per available
/// core, anything else passes through. This is the workspace's one
/// thread-count rule: every `threads`-style knob (`RunOptions::threads`,
/// `SearchOptions::threads`, `EvalOptions::sweep_threads`, this crate's
/// `SolverOptions::threads`, `dtc serve --threads`/`--eval-threads`)
/// resolves `0` through this function.
pub fn resolve_threads(threads: usize) -> usize {
    if threads == 0 {
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4)
    } else {
        threads
    }
}

/// Splits `v` into its fixed blocks as `(start_index, sub_slice)` pairs —
/// the disjoint write targets handed to workers.
pub(crate) fn split_blocks(v: &mut [f64]) -> Vec<(usize, &mut [f64])> {
    let ranges = block_ranges(v.len());
    let mut out = Vec::with_capacity(ranges.len());
    let mut rest = v;
    let mut consumed = 0;
    for r in ranges {
        let (head, tail) = rest.split_at_mut(r.end - consumed);
        out.push((r.start, head));
        rest = tail;
        consumed = r.end;
    }
    out
}

/// One unit of deterministic work: reads shared inputs, writes a slice (or
/// scalar slot) no other job touches.
pub(crate) enum Job<'a> {
    /// `out[d] = Σ_j A[start_row + d][j] · x[j]` — one row block of a
    /// matrix–vector product.
    MulVec { a: &'a CsrMatrix, x: &'a [f64], start_row: usize, out: &'a mut [f64] },
    /// `out[d] += wk · src[d]` — one block of a time point's
    /// Poisson-weighted accumulation.
    Axpy { wk: f64, src: &'a [f64], out: &'a mut [f64] },
    /// `*out = Σ_d a[d] · b[d]` — one block's dot-product partial, combined
    /// in block order by the caller.
    DotPartial { a: &'a [f64], b: &'a [f64], out: &'a mut f64 },
}

impl Job<'_> {
    fn run(self) {
        match self {
            Job::MulVec { a, x, start_row, out } => {
                for (d, slot) in out.iter_mut().enumerate() {
                    let (cols, vals) = a.row(start_row + d);
                    let mut acc = 0.0;
                    for (c, v) in cols.iter().zip(vals) {
                        acc += v * x[*c as usize];
                    }
                    *slot = acc;
                }
            }
            Job::Axpy { wk, src, out } => {
                for (o, s) in out.iter_mut().zip(src) {
                    *o += wk * s;
                }
            }
            Job::DotPartial { a, b, out } => {
                *out = a.iter().zip(b).map(|(x, y)| x * y).sum();
            }
        }
    }
}

/// Runs every job exactly once, fanned out over at most `threads` scoped
/// workers (0 = one per core). Job-to-worker assignment is round-robin,
/// but since jobs write disjoint targets the assignment cannot affect any
/// result — only the wall clock.
pub(crate) fn run_jobs(jobs: Vec<Job<'_>>, threads: usize) {
    let workers = resolve_threads(threads).min(jobs.len()).max(1);
    if workers == 1 {
        for job in jobs {
            job.run();
        }
        return;
    }
    let mut buckets: Vec<Vec<Job<'_>>> =
        (0..workers).map(|_| Vec::with_capacity(jobs.len() / workers + 1)).collect();
    for (i, job) in jobs.into_iter().enumerate() {
        buckets[i % workers].push(job);
    }
    let mut buckets = buckets.into_iter();
    let mine = buckets.next().expect("at least one worker");
    std::thread::scope(|scope| {
        for bucket in buckets {
            scope.spawn(move || {
                for job in bucket {
                    job.run();
                }
            });
        }
        for job in mine {
            job.run();
        }
    });
}

/// Sum of `x` in fixed block order: serial partial sums per block, partials
/// combined in ascending block order. The result depends only on `x.len()`
/// and the values — never on a thread count — so callers can normalize
/// disjoint sub-slices against the same total (see `dtc_markov::solve`).
pub fn blocked_sum(x: &[f64]) -> f64 {
    blocks(x.len()).map(|r| x[r].iter().sum::<f64>()).sum()
}

/// Dot product `Σ aᵢ·bᵢ` in fixed block order, with the per-block partials
/// computed over `threads` workers and combined in ascending block order on
/// the calling thread. Bit-identical at every thread count.
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn blocked_dot(a: &[f64], b: &[f64], threads: usize) -> f64 {
    assert_eq!(a.len(), b.len(), "dimension mismatch");
    let mut partials = vec![0.0f64; num_blocks(a.len())];
    let jobs: Vec<Job<'_>> = block_ranges(a.len())
        .into_iter()
        .zip(partials.iter_mut())
        .map(|(r, out)| Job::DotPartial { a: &a[r.clone()], b: &b[r], out })
        .collect();
    run_jobs(jobs, threads);
    partials.iter().sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sparse::CooMatrix;

    fn dense_random(nrows: usize, ncols: usize, seed: u64) -> CsrMatrix {
        let mut state = seed;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        };
        let mut coo = CooMatrix::new(nrows, ncols);
        for i in 0..nrows {
            for j in 0..ncols {
                let v = next();
                if v.abs() > 0.3 {
                    coo.push(i, j, v);
                }
            }
        }
        CsrMatrix::from_coo(&coo)
    }

    #[test]
    fn block_ranges_cover_and_are_fixed() {
        for len in [0usize, 1, 2, 63, 64, 65, 100, 1000] {
            let ranges = block_ranges(len);
            assert_eq!(ranges.len(), num_blocks(len));
            let mut expect = 0;
            for r in &ranges {
                assert_eq!(r.start, expect, "blocks are contiguous for len {len}");
                assert!(!r.is_empty(), "no empty blocks for len {len}");
                expect = r.end;
            }
            assert_eq!(expect, len, "blocks cover the vector for len {len}");
            // Boundaries are a pure function of len.
            assert_eq!(ranges, block_ranges(len));
        }
    }

    #[test]
    fn parallel_mul_vec_bit_identical_to_serial_method() {
        // Signed values: the contract must hold without any sign argument.
        let a = dense_random(97, 97, 42);
        let x: Vec<f64> = (0..97).map(|i| ((i * 37) % 19) as f64 - 9.0).collect();
        let mut serial = vec![0.0; 97];
        a.mul_vec_into(&x, &mut serial);
        for threads in [1usize, 2, 3, 4, 8, 64] {
            let mut parallel = vec![0.0; 97];
            let jobs = split_blocks(&mut parallel)
                .into_iter()
                .map(|(start_row, out)| Job::MulVec { a: &a, x: &x, start_row, out })
                .collect();
            run_jobs(jobs, threads);
            assert_eq!(parallel, serial, "threads = {threads}");
        }
    }

    #[test]
    fn blocked_dot_bit_identical_across_threads() {
        let a: Vec<f64> = (0..517).map(|i| (i as f64).sin()).collect();
        let b: Vec<f64> = (0..517).map(|i| (i as f64 * 0.7).cos()).collect();
        let one = blocked_dot(&a, &b, 1);
        for threads in [2usize, 4, 8, 17] {
            assert_eq!(blocked_dot(&a, &b, threads).to_bits(), one.to_bits());
        }
        // Small vectors (one element per block) equal the plain serial dot.
        let small = &a[..40];
        assert_eq!(blocked_dot(small, small, 4), crate::solve::dot(small, small));
    }

    #[test]
    fn blocked_sum_matches_block_order_fold() {
        let x: Vec<f64> = (0..130).map(|i| 1.0 / (i + 1) as f64).collect();
        let manual: f64 = blocks(x.len()).map(|r| x[r].iter().sum::<f64>()).sum();
        assert_eq!(blocked_sum(&x).to_bits(), manual.to_bits());
        assert_eq!(blocked_sum(&[]), 0.0);
    }

    #[test]
    fn split_blocks_is_disjoint_and_complete() {
        let mut v: Vec<f64> = (0..77).map(|i| i as f64).collect();
        let blocks = split_blocks(&mut v);
        assert_eq!(blocks.len(), num_blocks(77));
        let mut seen = 0;
        for (start, slice) in &blocks {
            assert_eq!(*start, seen);
            seen += slice.len();
        }
        assert_eq!(seen, 77);
    }

    #[test]
    fn resolve_threads_zero_is_auto() {
        assert!(resolve_threads(0) >= 1);
        assert_eq!(resolve_threads(3), 3);
    }
}
