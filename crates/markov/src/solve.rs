//! Linear-system machinery behind the steady-state solvers.
//!
//! Steady-state analysis of a CTMC with infinitesimal generator `Q` solves
//! `π Q = 0` subject to `Σ πᵢ = 1`. Working with the transpose turns this
//! into the more familiar `Qᵀ πᵀ = 0`, a singular system whose one-dimensional
//! null space is pinned down by the normalization constraint.
//!
//! Two methods are provided. The default one, [`Method::GaussSeidel`],
//! first tries an exact elimination: [`crate::Ctmc::steady_state_with`]
//! solves a chain of at most 4,096 states by its GTH
//! [`crate::elimination::EliminationPlan`] when that plan costs at most
//! 64 multiply-adds per stored generator entry (about 64 sweeps), and
//! sweeps only the chains without one. The sweeps live here:
//!
//! * **Gauss–Seidel sweeps** on `Qᵀ x = 0` with safeguarded vector
//!   extrapolation ([`stationary_iteration`]) — the default for every
//!   chain without an elimination plan. O(nnz) memory. The diagonal is
//!   split off once per solve, and the previous iterate is copied only
//!   on the sweeps that read it. On stiff dependability models (rates
//!   spanning `1/minutes` to `1/centuries`) the sweep error decays
//!   slowly along one dominant mode with ratio `ρ` close to 1. Every few
//!   sweeps the solver estimates `ρ` from the last two sweep deltas and
//!   jumps ahead along that mode: the candidate is `x + ρ/(1−ρ)·dₖ`
//!   (Stewart, *Introduction to the Numerical Solution of Markov
//!   Chains*, 1994, ch. 3). The
//!   **safeguard** keeps a candidate only if its true residual
//!   `‖Qᵀx‖₁` is strictly below the current iterate's. A chain whose
//!   error does not follow one positive mode therefore gets plain
//!   sweeps. The **convergence test** compares two plain Gauss–Seidel
//!   iterates only, never an iterate with a jump, so the stop criterion
//!   means what it did for plain sweeps, and an answer a plain solve
//!   stored under the same cache key passes it too.
//! * **Dense direct elimination** with partial pivoting for small chains —
//!   the ground truth in tests and the fallback when Gauss–Seidel stalls
//!   on a chain of at most a few thousand states.

use crate::error::{MarkovError, Result};
use crate::par;
use crate::sparse::CsrMatrix;

/// Convergence/iteration knobs of the Gauss–Seidel solve.
///
/// Every field except [`SolverOptions::threads`] is part of the
/// evaluation-cache identity and keeps its plain-sweep meaning under
/// extrapolation: budgets and checks count sweeps only (a jump is not a
/// sweep), and the stop test compares two plain sweeps. The extrapolation
/// itself has no knob.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SolverOptions {
    /// Maximum number of sweeps before giving up. Extrapolation jumps do
    /// not count against it.
    pub max_iterations: usize,
    /// Convergence tolerance on the max-norm of the delta between two
    /// successive plain Gauss–Seidel iterates (relative to the iterate's
    /// max entry).
    pub tolerance: f64,
    /// Check convergence every `check_every` sweeps. A check that would
    /// compare an extrapolated iterate with its sweep moves one sweep
    /// later.
    pub check_every: usize,
    /// If the iteration budget runs out but the relative delta is already
    /// below this looser threshold, accept the solution (the achieved
    /// residual is reported in [`SolveStats`]) instead of failing. Stiff
    /// nearly-decomposable dependability chains routinely converge to 1e-9
    /// quickly and then crawl; demanding 1e-12 there is counterproductive.
    /// Set to 0 to always fail on budget exhaustion. Note the criterion is
    /// delta-based: for nearly-completely-decomposable chains the true
    /// error can exceed the last delta, so results accepted this way carry
    /// their achieved residual in [`SolveStats`] for the caller to judge,
    /// are marked `loose` on the `stationary_solve` span and are counted in
    /// [`crate::instrument::loose_accepts`].
    pub accept_loose: f64,
    /// Worker threads for the uniformized march
    /// ([`crate::curve::uniformized_pass_with`]), the only threaded kernel:
    /// `0` (the default) means one per available core, `1` forces the
    /// serial path. A pure scheduling knob — results are bit-identical at
    /// every value (see [`crate::par`]) and it is excluded from
    /// evaluation-cache identity. Gauss–Seidel sweeps are inherently
    /// sequential and ignore it.
    pub threads: usize,
}

impl Default for SolverOptions {
    fn default() -> Self {
        SolverOptions {
            max_iterations: 200_000,
            tolerance: 1e-12,
            check_every: 8,
            accept_loose: 1e-7,
            threads: 0,
        }
    }
}

/// Steady-state solution method.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Method {
    /// Gauss–Seidel sweeps on `Qᵀx = 0` (default), with an extrapolation
    /// jump every few sweeps that is kept only when it lowers the true
    /// residual `‖Qᵀx‖₁` (see [`stationary_iteration`]). Through
    /// [`crate::Ctmc::steady_state_with`], a small chain whose GTH
    /// elimination plan is cheaper than sweeping is solved exactly instead
    /// (see [`crate::elimination`]). The name stays `gauss-seidel`: a
    /// solve that rejects every jump is plain Gauss–Seidel, an exact
    /// answer meets the same accuracy contract, and cache keys did not
    /// change with either.
    #[default]
    GaussSeidel,
    /// Dense LU-style elimination; exact up to rounding, `O(n³)`.
    Direct,
}

impl Method {
    /// The method's name: the `--solver` value, the cache store's
    /// `solver_method` and the `method` span attribute.
    pub fn name(self) -> &'static str {
        match self {
            Method::GaussSeidel => "gauss-seidel",
            Method::Direct => "direct",
        }
    }
}

impl std::fmt::Display for Method {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for Method {
    type Err = String;

    /// Parses a [`Method::name`]; the error names every valid method.
    fn from_str(s: &str) -> std::result::Result<Method, String> {
        [Method::GaussSeidel, Method::Direct]
            .into_iter()
            .find(|m| m.name() == s)
            .ok_or_else(|| format!("unknown solver {s:?} (gauss-seidel or direct)"))
    }
}

/// Outcome of an iterative solve: the solution plus convergence diagnostics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SolveStats {
    /// Number of Gauss–Seidel sweeps performed (extrapolation jumps are
    /// not sweeps), or 1 for the direct method and for an elimination.
    pub iterations: usize,
    /// Final residual estimate (max-norm of the last delta, or of `xQᵀ` for
    /// the direct method).
    pub residual: f64,
    /// Method that produced the solution.
    pub method: Method,
}

/// Dot product `Σ aᵢ·bᵢ` — the shared primitive behind reward evaluation
/// (`π·r`) across the workspace.
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Normalizes `x` to sum to one (in place). Returns the pre-normalization sum.
///
/// The sum is accumulated in fixed block order ([`par::blocked_sum`]), so
/// the whole-slice call decomposes exactly into [`par::blocked_sum`] once
/// plus [`scale_slice`] on any partition of `x` into disjoint sub-slices —
/// the property the parallel march relies on.
pub(crate) fn normalize(x: &mut [f64]) -> f64 {
    let sum = par::blocked_sum(x);
    scale_slice(x, sum);
    sum
}

/// Divides every entry of a (sub-)slice by a precomputed total; a no-op
/// when `sum == 0`. Calling this on disjoint sub-slices covering a vector
/// is bit-identical to one whole-slice call — division is element-wise, so
/// slicing cannot reorder any arithmetic.
pub(crate) fn scale_slice(x: &mut [f64], sum: f64) {
    if sum != 0.0 {
        for v in x.iter_mut() {
            *v /= sum;
        }
    }
}

/// Largest entry of a (sub-)slice, starting the fold at `0.0`. `max` is
/// associative and commutative over the non-NaN values seen here, so the
/// max over sub-slice maxima equals the whole-slice result regardless of
/// how the vector is partitioned.
pub(crate) fn max_entry(x: &[f64]) -> f64 {
    x.iter().cloned().fold(0.0, f64::max)
}

/// Clamps negative entries of a (sub-)slice to zero, reporting `false` if
/// any entry fell below `-threshold` (i.e. was too negative to be
/// convergence noise). Element-wise, so per-sub-slice flags combined with
/// `&&` equal the whole-slice call.
pub(crate) fn clamp_negatives_slice(x: &mut [f64], threshold: f64) -> bool {
    let mut ok = true;
    for v in x.iter_mut() {
        if *v < 0.0 {
            if *v < -threshold {
                ok = false;
            }
            *v = 0.0;
        }
    }
    ok
}

/// Cleans a converged stationary vector: clamps noise-level negative
/// entries (iterative solvers converge within a tolerance, so entries whose
/// true value is ~0 can come out at `-ε`) to zero and renormalizes.
/// Entries more negative than `floor` indicate the solve actually failed
/// and are reported via the returned flag.
///
/// Composed from the sub-slice primitives ([`max_entry`],
/// [`clamp_negatives_slice`], [`normalize`]) so that a blocked/parallel
/// caller applying them per sub-slice gets bit-identical results.
pub(crate) fn sanitize_distribution(x: &mut [f64], floor: f64) -> bool {
    let scale = max_entry(x).max(1e-300);
    let ok = clamp_negatives_slice(x, floor * scale);
    normalize(x);
    ok
}

fn max_abs_delta(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| (x - y).abs()).fold(0.0, f64::max)
}

/// Sweeps between extrapolation attempts: each jump reads the deltas of
/// the two sweeps before it, so the error has a few plain sweeps to settle
/// back onto its dominant mode after the previous jump.
const EXTRAPOLATE_EVERY: usize = 6;

/// Extrapolation outcomes of one solve.
#[derive(Default)]
struct Jumps {
    accepted: u64,
    rejected: u64,
}

/// Gauss–Seidel sweeps with safeguarded vector extrapolation, solving
/// `A x = 0`, `Σx = 1` where `A` is expected to be `Qᵀ` of an irreducible
/// generator (strictly negative diagonal, non-negative off-diagonals,
/// columns of `Q` summing to zero).
///
/// Every 6 sweeps the dominant error ratio is estimated from the last two
/// sweep deltas, `ρ = ⟨dₖ, dₖ₋₁⟩ / ⟨dₖ₋₁, dₖ₋₁⟩`, and for `0 < ρ < 1` the candidate `x + ρ/(1−ρ)·dₖ` (normalized) replaces
/// the iterate only if its true residual `‖A x‖₁` is strictly below the
/// current iterate's; otherwise the solve carries on with plain sweeps.
/// The convergence test compares two plain Gauss–Seidel iterates only:
/// a test that falls on the sweep right after a jump moves to the next
/// sweep, and no jump is taken in the last two sweeps of the budget.
///
/// Accepted and rejected jumps are counted in
/// [`crate::instrument::extrapolations`] and recorded as `extrapolations`
/// and `rejected` on the enclosing trace span. A result taken through
/// [`SolverOptions::accept_loose`] after the budget ran out sets
/// `loose = true` on that span and is counted in
/// [`crate::instrument::loose_accepts`].
pub fn stationary_iteration(
    a: &CsrMatrix,
    x0: &[f64],
    opts: &SolverOptions,
) -> Result<(Vec<f64>, SolveStats)> {
    let method = Method::GaussSeidel;
    let n = a.nrows();
    if a.ncols() != n {
        return Err(MarkovError::NotSquare { nrows: n, ncols: a.ncols() });
    }
    if x0.len() != n {
        return Err(MarkovError::DimensionMismatch { expected: n, got: x0.len() });
    }
    // A one-state chain has a zero diagonal and is its own stationary
    // distribution.
    if n == 1 {
        return Ok((vec![1.0], SolveStats { iterations: 0, residual: 0.0, method }));
    }
    // Split off the diagonal once; a zero diagonal entry means an absorbing
    // state, which has no unique normalized stationary vector under this
    // solver.
    let (off, diag) = a.split_diagonal();
    if let Some(state) = diag.iter().position(|&d| d == 0.0) {
        return Err(MarkovError::ZeroDiagonal { state });
    }
    let mut jumps = Jumps::default();
    let result = sweep_to_convergence(a, &off, &diag, x0, opts, &mut jumps);
    crate::instrument::count_extrapolations(jumps.accepted, jumps.rejected);
    dtc_obs::trace::attr_int("extrapolations", jumps.accepted as i64);
    dtc_obs::trace::attr_int("rejected", jumps.rejected as i64);
    result
}

/// The sweep loop of [`stationary_iteration`] on validated inputs: `off`
/// and `diag` are `a` split by [`CsrMatrix::split_diagonal`].
fn sweep_to_convergence(
    a: &CsrMatrix,
    off: &CsrMatrix,
    diag: &[f64],
    x0: &[f64],
    opts: &SolverOptions,
    jumps: &mut Jumps,
) -> Result<(Vec<f64>, SolveStats)> {
    let method = Method::GaussSeidel;
    let n = a.nrows();
    let mut x = x0.to_vec();
    normalize(&mut x);
    // `prev` is the sweep's input, copied only on the sweeps that read it:
    // a convergence check, an extrapolation and the sweep before one. On an
    // extrapolation sweep `prev2` holds the input of the sweep before, and
    // `candidate` the jumped iterate.
    let mut prev = vec![0.0; n];
    let mut prev2 = vec![0.0; n];
    let mut candidate = vec![0.0; n];
    let mut last_delta = f64::INFINITY;
    let mut jumped = false;
    let mut check_due = false;
    for it in 1..=opts.max_iterations {
        let extrapolate = it % EXTRAPOLATE_EVERY == 0 && it + 2 <= opts.max_iterations;
        let feeds_jump = (it + 1) % EXTRAPOLATE_EVERY == 0 && it + 3 <= opts.max_iterations;
        let after_jump = std::mem::take(&mut jumped);
        check_due |= it % opts.check_every == 0 || it == opts.max_iterations;
        let check = check_due && !after_jump;
        if extrapolate {
            std::mem::swap(&mut prev, &mut prev2);
        }
        if check || extrapolate || feeds_jump {
            prev.copy_from_slice(&x);
        }
        for (i, d) in diag.iter().enumerate() {
            let (cols, vals) = off.row(i);
            let mut acc = 0.0;
            for (c, v) in cols.iter().zip(vals) {
                acc += v * x[*c as usize];
            }
            x[i] = -acc / d;
        }
        normalize(&mut x);
        if check {
            check_due = false;
            last_delta = max_abs_delta(&prev, &x);
            let scale = x.iter().cloned().fold(0.0, f64::max).max(1e-300);
            if last_delta / scale <= opts.tolerance {
                if !sanitize_distribution(&mut x, 1e-6) {
                    return Err(MarkovError::NotConverged {
                        method,
                        iterations: it,
                        residual: last_delta,
                    });
                }
                return Ok((x, SolveStats { iterations: it, residual: last_delta, method }));
            }
        }
        if extrapolate {
            match try_jump(a, &x, &prev, &prev2, &mut candidate) {
                Jump::Accepted => {
                    std::mem::swap(&mut x, &mut candidate);
                    jumps.accepted += 1;
                    jumped = true;
                }
                Jump::Rejected => jumps.rejected += 1,
                Jump::Skipped => {}
            }
        }
    }
    let scale = x.iter().cloned().fold(0.0, f64::max).max(1e-300);
    if opts.accept_loose > 0.0
        && last_delta / scale <= opts.accept_loose
        && sanitize_distribution(&mut x, 1e-6)
    {
        crate::instrument::count_loose_accept();
        dtc_obs::trace::attr_bool("loose", true);
        return Ok((
            x,
            SolveStats { iterations: opts.max_iterations, residual: last_delta, method },
        ));
    }
    Err(MarkovError::NotConverged {
        method,
        iterations: opts.max_iterations,
        residual: last_delta,
    })
}

/// What one extrapolation attempt did.
enum Jump {
    /// `ρ` fell outside `(0, 1)`: no candidate was formed.
    Skipped,
    /// The candidate lowered the true residual and is in `candidate`.
    Accepted,
    /// The candidate did not lower the true residual.
    Rejected,
}

/// Forms the extrapolated candidate from the iterates `x = xₖ`,
/// `prev = xₖ₋₁` and `prev2 = xₖ₋₂` into `candidate`, and judges it by
/// the true residual `‖A y‖₁` against the current iterate's. Both
/// residuals come from one pass over the rows of `a`, diagonal included.
fn try_jump(
    a: &CsrMatrix,
    x: &[f64],
    prev: &[f64],
    prev2: &[f64],
    candidate: &mut [f64],
) -> Jump {
    let (mut num, mut den) = (0.0, 0.0);
    for ((&xk, &x1), &x2) in x.iter().zip(prev).zip(prev2) {
        let (dk, d1) = (xk - x1, x1 - x2);
        num += dk * d1;
        den += d1 * d1;
    }
    let rho = num / den;
    if !(rho > 0.0 && rho < 1.0) {
        return Jump::Skipped;
    }
    let step = rho / (1.0 - rho);
    for ((y, &xk), &x1) in candidate.iter_mut().zip(x).zip(prev) {
        *y = xk + step * (xk - x1);
    }
    normalize(candidate);
    let (mut current, mut jumped) = (0.0, 0.0);
    for i in 0..a.nrows() {
        let (cols, vals) = a.row(i);
        let (mut rx, mut ry) = (0.0, 0.0);
        for (c, v) in cols.iter().zip(vals) {
            let j = *c as usize;
            rx += v * x[j];
            ry += v * candidate[j];
        }
        current += rx.abs();
        jumped += ry.abs();
    }
    if jumped < current {
        Jump::Accepted
    } else {
        Jump::Rejected
    }
}

/// Dense direct solve of `π Q = 0`, `Σπ = 1` by Gaussian elimination with
/// partial pivoting, replacing the last column of `Qᵀ` equations with the
/// normalization row.
///
/// # Errors
///
/// Fails with [`MarkovError::Singular`] if the pivot falls below machine
/// tolerance — in practice this means `Q` was reducible (several closed
/// communicating classes), so no unique stationary distribution exists.
#[allow(clippy::needless_range_loop)] // elimination indexes two rows at once
pub fn direct_stationary(q: &CsrMatrix) -> Result<(Vec<f64>, SolveStats)> {
    let n = q.nrows();
    if q.ncols() != n {
        return Err(MarkovError::NotSquare { nrows: n, ncols: q.ncols() });
    }
    if n == 0 {
        return Err(MarkovError::Empty);
    }
    // Build dense Qᵀ with the last equation replaced by Σπ = 1.
    let mut a = vec![vec![0.0f64; n]; n];
    for (i, j, v) in q.iter() {
        a[j][i] = v; // transpose
    }
    let mut b = vec![0.0f64; n];
    for cell in &mut a[n - 1] {
        *cell = 1.0;
    }
    b[n - 1] = 1.0;

    // Gaussian elimination with partial pivoting.
    let scale: f64 =
        a.iter().flat_map(|r| r.iter().map(|v| v.abs())).fold(0.0, f64::max).max(1.0);
    for col in 0..n {
        let (pivot_row, pivot_val) = (col..n)
            .map(|r| (r, a[r][col].abs()))
            .max_by(|x, y| x.1.total_cmp(&y.1))
            .expect("non-empty range");
        if pivot_val <= f64::EPSILON * scale * n as f64 {
            return Err(MarkovError::Singular { pivot: col });
        }
        a.swap(col, pivot_row);
        b.swap(col, pivot_row);
        for r in (col + 1)..n {
            let f = a[r][col] / a[col][col];
            if f == 0.0 {
                continue;
            }
            for c in col..n {
                a[r][c] -= f * a[col][c];
            }
            b[r] -= f * b[col];
        }
    }
    let mut x = vec![0.0; n];
    for i in (0..n).rev() {
        let mut acc = b[i];
        for j in (i + 1)..n {
            acc -= a[i][j] * x[j];
        }
        x[i] = acc / a[i][i];
    }
    // Clamp tiny negatives produced by rounding, then renormalize; a large
    // negative means the elimination went numerically wrong.
    if !sanitize_distribution(&mut x, 1e-6) {
        return Err(MarkovError::Singular { pivot: n - 1 });
    }
    // Residual: max |(xQ)_j|.
    let residual = q.vec_mul(&x).iter().map(|v| v.abs()).fold(0.0, f64::max);
    Ok((x, SolveStats { iterations: 1, residual, method: Method::Direct }))
}

/// Solves the dense linear system `A x = b` by Gaussian elimination with
/// partial pivoting. Consumed by absorbing-chain analysis.
#[allow(clippy::needless_range_loop)] // elimination indexes two rows at once
pub fn dense_solve(mut a: Vec<Vec<f64>>, mut b: Vec<f64>) -> Result<Vec<f64>> {
    let n = a.len();
    if n == 0 {
        return Err(MarkovError::Empty);
    }
    for row in &a {
        if row.len() != n {
            return Err(MarkovError::NotSquare { nrows: n, ncols: row.len() });
        }
    }
    if b.len() != n {
        return Err(MarkovError::DimensionMismatch { expected: n, got: b.len() });
    }
    let scale: f64 =
        a.iter().flat_map(|r| r.iter().map(|v| v.abs())).fold(0.0, f64::max).max(1.0);
    for col in 0..n {
        let (pivot_row, pivot_val) = (col..n)
            .map(|r| (r, a[r][col].abs()))
            .max_by(|x, y| x.1.total_cmp(&y.1))
            .expect("non-empty range");
        if pivot_val <= f64::EPSILON * scale * n as f64 {
            return Err(MarkovError::Singular { pivot: col });
        }
        a.swap(col, pivot_row);
        b.swap(col, pivot_row);
        for r in (col + 1)..n {
            let f = a[r][col] / a[col][col];
            if f == 0.0 {
                continue;
            }
            for c in col..n {
                a[r][c] -= f * a[col][c];
            }
            b[r] -= f * b[col];
        }
    }
    let mut x = vec![0.0; n];
    for i in (0..n).rev() {
        let mut acc = b[i];
        for j in (i + 1)..n {
            acc -= a[i][j] * x[j];
        }
        x[i] = acc / a[i][i];
    }
    Ok(x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sparse::CooMatrix;

    /// Two-state birth–death generator with rates λ (0→1) and μ (1→0).
    fn two_state(lambda: f64, mu: f64) -> CsrMatrix {
        let mut coo = CooMatrix::new(2, 2);
        coo.push(0, 0, -lambda);
        coo.push(0, 1, lambda);
        coo.push(1, 0, mu);
        coo.push(1, 1, -mu);
        CsrMatrix::from_coo(&coo)
    }

    #[test]
    fn direct_two_state_closed_form() {
        let q = two_state(2.0, 3.0);
        let (pi, stats) = direct_stationary(&q).unwrap();
        assert!((pi[0] - 0.6).abs() < 1e-12, "pi={pi:?}");
        assert!((pi[1] - 0.4).abs() < 1e-12);
        assert!(stats.residual < 1e-12);
    }

    #[test]
    fn gauss_seidel_matches_direct() {
        let q = two_state(0.001, 1.0); // stiff
        let qt = q.transpose();
        let (pi, _) =
            stationary_iteration(&qt, &[0.5, 0.5], &SolverOptions::default()).unwrap();
        let (exact, _) = direct_stationary(&q).unwrap();
        for (a, b) in pi.iter().zip(&exact) {
            assert!((a - b).abs() < 1e-9, "{pi:?} vs {exact:?}");
        }
    }

    #[test]
    fn one_state_chain_is_its_own_stationary_distribution() {
        let q = CsrMatrix::from_coo(&CooMatrix::new(1, 1));
        let (pi, stats) = stationary_iteration(&q, &[1.0], &SolverOptions::default()).unwrap();
        assert_eq!(pi, vec![1.0]);
        assert_eq!(stats.method, Method::GaussSeidel);
        assert_eq!(direct_stationary(&q).unwrap().0, pi);
    }

    #[test]
    fn direct_detects_reducible_chain() {
        // Two disconnected absorbing states: no unique stationary vector.
        let mut coo = CooMatrix::new(2, 2);
        coo.push(0, 0, 0.0);
        coo.push(1, 1, 0.0);
        let q = CsrMatrix::from_coo(&coo);
        assert!(matches!(direct_stationary(&q), Err(MarkovError::Singular { .. })));
    }

    #[test]
    fn iteration_rejects_absorbing_state() {
        let mut coo = CooMatrix::new(2, 2);
        coo.push(0, 0, -1.0);
        coo.push(0, 1, 1.0);
        // state 1 absorbing -> zero diagonal in Qᵀ row 1? Qᵀ[1][1] = Q[1][1] = 0.
        let q = CsrMatrix::from_coo(&coo);
        let qt = q.transpose();
        let err =
            stationary_iteration(&qt, &[0.5, 0.5], &SolverOptions::default()).unwrap_err();
        assert!(matches!(err, MarkovError::ZeroDiagonal { state: 1 }));
    }

    #[test]
    fn dense_solve_simple() {
        let a = vec![vec![2.0, 1.0], vec![1.0, 3.0]];
        let b = vec![3.0, 5.0];
        let x = dense_solve(a, b).unwrap();
        assert!((x[0] - 0.8).abs() < 1e-12);
        assert!((x[1] - 1.4).abs() < 1e-12);
    }

    /// Pseudo-random positive-and-noisy vector for the sub-slice tests.
    fn noisy_vector(n: usize, seed: u64) -> Vec<f64> {
        let mut state = seed;
        (0..n)
            .map(|_| {
                state =
                    state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let u = (state >> 11) as f64 / (1u64 << 53) as f64;
                // Mostly positive mass with occasional tiny negatives, like a
                // converged iterate.
                if u < 0.1 {
                    -1e-13 * u
                } else {
                    u
                }
            })
            .collect()
    }

    /// Partition boundaries that exercise the block-boundary edge cases:
    /// an empty leading sub-slice, cuts misaligned with the fixed blocks,
    /// and a short final piece.
    fn awkward_cuts(n: usize) -> Vec<usize> {
        let mut cuts = vec![0, 0]; // empty first sub-slice
        for c in [1, n / 3, n / 2, n.saturating_sub(1), n] {
            if *cuts.last().unwrap() <= c && c <= n {
                cuts.push(c);
            }
        }
        if *cuts.last().unwrap() != n {
            cuts.push(n);
        }
        cuts
    }

    #[test]
    fn normalize_composes_over_disjoint_sub_slices() {
        // Covers: empty sub-slice, last short block, and n smaller than any
        // realistic thread count (n = 1, 2, 3).
        for n in [1usize, 2, 3, 5, 63, 64, 65, 127, 130, 300] {
            let base = noisy_vector(n, 0x5eed ^ n as u64);
            let mut whole = base.clone();
            let whole_sum = normalize(&mut whole);

            let mut pieces = base.clone();
            let total = crate::par::blocked_sum(&pieces);
            assert_eq!(total.to_bits(), whole_sum.to_bits(), "n={n}");
            let mut rest = pieces.as_mut_slice();
            let cuts = awkward_cuts(n);
            let mut consumed = 0;
            for w in cuts.windows(2) {
                let (head, tail) = rest.split_at_mut(w[1] - consumed);
                scale_slice(head, total);
                rest = tail;
                consumed = w[1];
            }
            assert_eq!(pieces, whole, "sub-slice normalize must not change results, n={n}");
        }
    }

    #[test]
    fn sanitize_composes_over_disjoint_sub_slices() {
        for n in [1usize, 2, 5, 64, 65, 130] {
            let base = noisy_vector(n, 0xface ^ n as u64);
            let mut whole = base.clone();
            let ok_whole = sanitize_distribution(&mut whole, 1e-6);

            // Re-derive the same result through the sub-slice primitives.
            let mut pieces = base.clone();
            let cuts = awkward_cuts(n);
            let scale = {
                let mut m = 0.0f64;
                for w in cuts.windows(2) {
                    m = m.max(max_entry(&pieces[w[0]..w[1]]));
                }
                m.max(1e-300)
            };
            let mut ok = true;
            for w in cuts.windows(2) {
                ok &= clamp_negatives_slice(&mut pieces[w[0]..w[1]], 1e-6 * scale);
            }
            let total = crate::par::blocked_sum(&pieces);
            for w in cuts.windows(2) {
                scale_slice(&mut pieces[w[0]..w[1]], total);
            }
            assert_eq!(ok, ok_whole, "n={n}");
            assert_eq!(pieces, whole, "sub-slice sanitize must not change results, n={n}");
        }
    }

    #[test]
    fn sanitize_flags_genuinely_negative_entries() {
        let mut x = vec![0.5, -0.25, 0.75];
        assert!(!sanitize_distribution(&mut x, 1e-6));
        assert_eq!(x[1], 0.0);
        let mut tiny = vec![0.5, -1e-15, 0.5];
        assert!(sanitize_distribution(&mut tiny, 1e-6));
    }

    #[test]
    fn empty_slices_are_harmless() {
        assert_eq!(normalize(&mut []), 0.0);
        scale_slice(&mut [], 2.0);
        assert!(clamp_negatives_slice(&mut [], 1e-6));
        assert_eq!(max_entry(&[]), 0.0);
        assert!(sanitize_distribution(&mut [], 1e-6));
    }

    #[test]
    fn five_state_birth_death_all_methods_agree() {
        // Birth-death chain with distinct rates; closed form via detailed balance.
        let n = 5;
        let birth = [1.0, 2.0, 3.0, 4.0];
        let death = [5.0, 4.0, 3.0, 2.0];
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n - 1 {
            coo.push(i, i + 1, birth[i]);
            coo.push(i + 1, i, death[i]);
        }
        for i in 0..n {
            let mut out = 0.0;
            if i < n - 1 {
                out += birth[i];
            }
            if i > 0 {
                out += death[i - 1];
            }
            coo.push(i, i, -out);
        }
        let q = CsrMatrix::from_coo(&coo);
        let mut expect = vec![1.0; n];
        for i in 1..n {
            expect[i] = expect[i - 1] * birth[i - 1] / death[i - 1];
        }
        normalize(&mut expect);
        let (exact, _) = direct_stationary(&q).unwrap();
        for (a, b) in exact.iter().zip(&expect) {
            assert!((a - b).abs() < 1e-12);
        }
        let qt = q.transpose();
        let (pi, _) =
            stationary_iteration(&qt, &vec![1.0; n], &SolverOptions::default()).unwrap();
        for (a, b) in pi.iter().zip(&expect) {
            assert!((a - b).abs() < 1e-8, "{pi:?} vs {expect:?}");
        }
    }

    #[test]
    fn method_names_round_trip_and_retired_names_are_rejected() {
        for m in [Method::GaussSeidel, Method::Direct] {
            assert_eq!(m.name().parse::<Method>(), Ok(m));
            assert_eq!(m.to_string(), m.name());
        }
        for retired in ["power", "jacobi", "sor", "nope"] {
            let err = retired.parse::<Method>().unwrap_err();
            assert!(err.contains("gauss-seidel") && err.contains("direct"), "{err}");
        }
    }
}
