//! Exact steady-state solves by GTH state reduction.
//!
//! The state reduction of Grassmann, Taksar & Heyman ("Regenerative
//! analysis and steady state distributions for Markov chains", Operations
//! Research 1985) eliminates the states of an irreducible CTMC one by one.
//! Eliminating state `k` reroutes every path `i → k → j` through the
//! remaining states,
//!
//! ```text
//! a_ij += a_ik · a_kj / s_k,        s_k = Σ_{j remaining, j ≠ k} a_kj,
//! ```
//!
//! and back-substitution recovers `π_k = Σ_i π_i · a_ik / s_k`. The pivot
//! `s_k` is the sum of the remaining off-diagonal rates, never the stored
//! diagonal, so the whole solve has no subtraction: every quantity is a
//! sum of products of positive rates, and the answer is accurate entry by
//! entry however stiff the chain (O'Cinneide, Numer. Math. 1993).
//!
//! The work splits in two. [`EliminationPlan::build`] looks only at the
//! generator's sparsity pattern: it picks a minimum-degree elimination
//! order (`|in| × |out|` remaining neighbours, ties to the lowest index)
//! and records every update's value slot in flat index arrays. It gives up
//! — returning `None` — above [`MAX_PLAN_STATES`] states, or once the
//! updates would exceed [`UPDATES_PER_NNZ`]` · nnz(Q)`, about the cost of
//! that many Gauss–Seidel sweeps. [`EliminationPlan::solve`] is then one
//! straight pass over those arrays plus the back-substitution. A plan is a
//! pure function of the pattern, so re-rated chains of one structure share
//! it ([`SharedPlan`]) and get bit-identical answers from a shared or a
//! fresh plan.

use crate::solve::normalize;
use crate::sparse::CsrMatrix;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::{Arc, OnceLock};

/// Largest chain a plan is attempted for: the bound under which a stalled
/// Gauss–Seidel solve falls back to the dense direct solver.
pub const MAX_PLAN_STATES: usize = 4096;

/// Update budget of a plan, per stored generator entry: a plan is kept only
/// if its multiply-adds are at most `UPDATES_PER_NNZ · nnz(Q)`, roughly
/// the cost of that many Gauss–Seidel sweeps.
pub const UPDATES_PER_NNZ: usize = 64;

/// Value slot that absorbs the updates nobody reads: the diagonal entries
/// of `Q` and the self-loops `i → k → i` an elimination creates. Keeping
/// them in the flat update arrays leaves the numeric loop branch-free.
const DISCARD: u32 = 0;

/// A target slot not yet resolved while a plan is being built.
const UNSET: u32 = u32::MAX;

/// A precomputed GTH elimination of one generator sparsity pattern (see
/// the [module docs](self)).
#[derive(Debug, Clone)]
pub struct EliminationPlan {
    /// The pattern of `Q` this plan was built for.
    row_ptr: Vec<usize>,
    col_idx: Vec<u32>,
    /// Value slot of each stored entry of `Q`, in row-major entry order.
    entry_slot: Vec<u32>,
    /// Value slots in use, [`DISCARD`] included.
    slots: usize,
    /// States in elimination order; the last one is never eliminated.
    order: Vec<u32>,
    /// Step `s` reads the rates into `order[s]` from the states still
    /// remaining at `in_ptr[s]..in_ptr[s + 1]` of `in_states`/`in_slots`.
    in_ptr: Vec<usize>,
    in_states: Vec<u32>,
    in_slots: Vec<u32>,
    /// Step `s` reads the rates out of `order[s]` at
    /// `out_ptr[s]..out_ptr[s + 1]` of `out_slots`.
    out_ptr: Vec<usize>,
    out_slots: Vec<u32>,
    /// One target slot per (in, out) pair of every step, row-major.
    targets: Vec<u32>,
}

impl EliminationPlan {
    /// Plans the elimination of the generator pattern of `q`, or `None`
    /// when the chain has fewer than two or more than [`MAX_PLAN_STATES`]
    /// states, or its updates would exceed the [`UPDATES_PER_NNZ`] budget.
    ///
    /// States are eliminated in minimum-degree order. The attempt stops
    /// early once the updates so far plus the current minimum cost times
    /// the eliminations left exceed the budget, so an overrunning attempt
    /// costs a fraction of the elimination it refuses.
    pub fn build(q: &CsrMatrix) -> Option<EliminationPlan> {
        let n = q.nrows();
        if !(2..=MAX_PLAN_STATES).contains(&n) || q.ncols() != n {
            return None;
        }
        let budget = (UPDATES_PER_NNZ * q.nnz()) as u64;
        let (row_ptr, col_idx) = q.pattern();
        // The remaining off-diagonal pattern: `out[i]` holds `(j, slot)`
        // for every rate `i → j`, `inn[j]` the same slot as `(i, slot)`.
        let mut out: Vec<Vec<(u32, u32)>> = vec![Vec::new(); n];
        let mut inn: Vec<Vec<(u32, u32)>> = vec![Vec::new(); n];
        let mut entry_slot = Vec::with_capacity(col_idx.len());
        let mut next_slot = DISCARD + 1;
        for i in 0..n {
            for &j in &col_idx[row_ptr[i]..row_ptr[i + 1]] {
                if j as usize == i {
                    entry_slot.push(DISCARD);
                    continue;
                }
                out[i].push((j, next_slot));
                inn[j as usize].push((i as u32, next_slot));
                entry_slot.push(next_slot);
                next_slot += 1;
            }
        }
        let cost = |inn: &[Vec<(u32, u32)>], out: &[Vec<(u32, u32)>], k: usize| {
            inn[k].len() as u64 * out[k].len() as u64
        };
        // Min-heap on (cost, state) with lazy deletion: an entry is live
        // while its state remains and its cost is current.
        let mut heap: BinaryHeap<Reverse<(u64, u32)>> =
            (0..n).map(|k| Reverse((cost(&inn, &out, k), k as u32))).collect();
        let mut eliminated = vec![false; n];
        // `mark[j] = (stamp, p)`: `j` is the `p`-th rate out of the state
        // being eliminated while `stamp` is current.
        let mut mark = vec![(0usize, 0u32); n];
        let mut stamp = 0usize;
        let mut plan = EliminationPlan {
            row_ptr: row_ptr.to_vec(),
            col_idx: col_idx.to_vec(),
            entry_slot,
            slots: 0,
            order: Vec::with_capacity(n),
            in_ptr: vec![0],
            in_states: Vec::new(),
            in_slots: Vec::new(),
            out_ptr: vec![0],
            out_slots: Vec::new(),
            targets: Vec::new(),
        };
        for left in (1..n).rev() {
            let (c, k) = loop {
                let Reverse((c, k)) = heap.pop()?;
                let k = k as usize;
                if !eliminated[k] && c == cost(&inn, &out, k) {
                    break (c, k);
                }
            };
            if plan.targets.len() as u64 + c * left as u64 > budget {
                return None;
            }
            eliminated[k] = true;
            plan.order.push(k as u32);
            let ins = std::mem::take(&mut inn[k]);
            let outs = std::mem::take(&mut out[k]);
            plan.in_states.extend(ins.iter().map(|&(i, _)| i));
            plan.in_slots.extend(ins.iter().map(|&(_, s)| s));
            plan.in_ptr.push(plan.in_slots.len());
            plan.out_slots.extend(outs.iter().map(|&(_, s)| s));
            plan.out_ptr.push(plan.out_slots.len());
            stamp += 1;
            for (p, &(j, _)) in outs.iter().enumerate() {
                mark[j as usize] = (stamp, p as u32);
            }
            for &(i, _) in &ins {
                let i = i as usize;
                let row = plan.targets.len();
                plan.targets.resize(row + outs.len(), UNSET);
                // One pass over `i`'s rates drops `k` and finds the slots
                // of the rates `i → j` that already exist.
                out[i].retain(|&(j, s)| {
                    let (seen, p) = mark[j as usize];
                    if seen == stamp {
                        plan.targets[row + p as usize] = s;
                    }
                    j as usize != k
                });
                for (p, &(j, _)) in outs.iter().enumerate() {
                    if plan.targets[row + p] != UNSET {
                        continue;
                    }
                    plan.targets[row + p] = if j as usize == i {
                        DISCARD
                    } else {
                        let s = next_slot;
                        next_slot += 1;
                        out[i].push((j, s));
                        inn[j as usize].push((i as u32, s));
                        s
                    };
                }
            }
            for &(j, _) in &outs {
                inn[j as usize].retain(|&(i, _)| i as usize != k);
            }
            for &(s, _) in ins.iter().chain(&outs) {
                heap.push(Reverse((cost(&inn, &out, s as usize), s)));
            }
            if plan.targets.len() as u64 > budget {
                return None;
            }
        }
        let last = eliminated.iter().position(|&gone| !gone).expect("one state remains");
        plan.order.push(last as u32);
        plan.slots = next_slot as usize;
        Some(plan)
    }

    /// Multiply-adds of one numeric solve (the discarded self-loop
    /// updates included).
    pub fn updates(&self) -> usize {
        self.targets.len()
    }

    /// Whether `q` has exactly the sparsity pattern this plan was built for.
    pub fn fits(&self, q: &CsrMatrix) -> bool {
        let (row_ptr, col_idx) = q.pattern();
        row_ptr == self.row_ptr.as_slice() && col_idx == self.col_idx.as_slice()
    }

    /// The normalized stationary distribution of the generator `q`, or
    /// `None` when `q` does not [fit](Self::fits) this plan or a pivot is
    /// zero — a state that cannot leave the states still remaining, which
    /// means the chain is not irreducible.
    pub fn solve(&self, q: &CsrMatrix) -> Option<Vec<f64>> {
        if !self.fits(q) {
            return None;
        }
        let mut a = vec![0.0; self.slots];
        for (&slot, &v) in self.entry_slot.iter().zip(q.values()) {
            a[slot as usize] = v;
        }
        let steps = self.order.len() - 1;
        let mut pivots = vec![0.0; steps];
        let mut targets = self.targets.iter();
        for (step, pivot_slot) in pivots.iter_mut().enumerate() {
            let outs = &self.out_slots[self.out_ptr[step]..self.out_ptr[step + 1]];
            let ins = &self.in_slots[self.in_ptr[step]..self.in_ptr[step + 1]];
            let pivot = outs.iter().fold(0.0, |acc, &o| acc + a[o as usize]);
            if pivot <= 0.0 {
                return None;
            }
            *pivot_slot = pivot;
            for &o in outs {
                a[o as usize] /= pivot;
            }
            for &i in ins {
                let f = a[i as usize];
                for (&o, &target) in outs.iter().zip(&mut targets) {
                    a[target as usize] += f * a[o as usize];
                }
            }
        }
        let mut pi = vec![0.0; self.order.len()];
        pi[self.order[steps] as usize] = 1.0;
        for step in (0..steps).rev() {
            let span = self.in_ptr[step]..self.in_ptr[step + 1];
            let states = &self.in_states[span.clone()];
            // Folded from +0.0: a state nothing flows into gets π = +0.0
            // (an empty `sum()` would give -0.0).
            let inflow = states
                .iter()
                .zip(&self.in_slots[span])
                .fold(0.0, |acc, (&i, &s)| acc + pi[i as usize] * a[s as usize]);
            pi[self.order[step] as usize] = inflow / pivots[step];
        }
        normalize(&mut pi);
        pi.iter().all(|v| v.is_finite()).then_some(pi)
    }
}

/// A lazily built [`EliminationPlan`] — or the record that none is worth
/// having — shared by every chain with one sparsity pattern. Clones share
/// the slot, so the plan is built at most once however many re-rated
/// siblings solve through it.
#[derive(Debug, Clone, Default)]
pub struct SharedPlan(Arc<OnceLock<Option<EliminationPlan>>>);

impl SharedPlan {
    /// An empty slot.
    pub fn new() -> Self {
        Self::default()
    }

    /// The plan for `q`'s pattern, built by the first caller (concurrent
    /// callers wait for it). `None` when [`EliminationPlan::build`]
    /// declined. A slot serves the pattern of the chain that filled it;
    /// callers check [`EliminationPlan::fits`].
    pub fn get_or_build(&self, q: &CsrMatrix) -> Option<&EliminationPlan> {
        self.0.get_or_init(|| EliminationPlan::build(q)).as_ref()
    }

    /// Whether `self` and `other` are the same slot.
    pub fn shares_with(&self, other: &SharedPlan) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sparse::CooMatrix;

    fn generator(n: usize, rates: &[(usize, usize, f64)]) -> CsrMatrix {
        let mut coo = CooMatrix::new(n, n);
        let mut exit = vec![0.0; n];
        for &(i, j, r) in rates {
            coo.push(i, j, r);
            exit[i] += r;
        }
        for (i, &e) in exit.iter().enumerate() {
            coo.push(i, i, -e);
        }
        CsrMatrix::from_coo(&coo)
    }

    #[test]
    fn two_state_chain_is_exact() {
        let q = generator(2, &[(0, 1, 2.0), (1, 0, 3.0)]);
        let plan = EliminationPlan::build(&q).expect("two states plan");
        assert_eq!(plan.solve(&q).unwrap(), vec![0.6, 0.4]);
    }

    #[test]
    fn birth_death_chain_matches_detailed_balance() {
        let n = 6;
        let mut rates = Vec::new();
        for i in 0..n - 1 {
            rates.push((i, i + 1, 1.0 + i as f64));
            rates.push((i + 1, i, 1e-3 * (2.0 + i as f64)));
        }
        let q = generator(n, &rates);
        let pi = EliminationPlan::build(&q).unwrap().solve(&q).unwrap();
        let mut expect = vec![1.0; n];
        for i in 1..n {
            expect[i] = expect[i - 1] * (1.0 + (i - 1) as f64) / (1e-3 * (1.0 + i as f64));
        }
        normalize(&mut expect);
        for (a, b) in pi.iter().zip(&expect) {
            assert!((a - b).abs() <= 1e-13 * b, "{pi:?} vs {expect:?}");
        }
    }

    #[test]
    fn minimum_degree_order_prefers_the_cheapest_then_lowest_state() {
        // A star: the hub 0 costs 3 × 3, every leaf 1 × 1. Leaves 1 and 2
        // go first; then the hub and leaf 3 tie at 1 × 1 and the lower
        // index goes. No step creates fill.
        let q = generator(
            4,
            &[(0, 1, 1.0), (0, 2, 1.0), (0, 3, 1.0), (1, 0, 1.0), (2, 0, 1.0), (3, 0, 1.0)],
        );
        let plan = EliminationPlan::build(&q).unwrap();
        assert_eq!(plan.order, vec![1, 2, 0, 3]);
        assert_eq!(plan.updates(), 3, "each step only makes a self-loop");
        assert_eq!(plan.slots, 1 + 6, "no fill beyond the stored rates");
    }

    #[test]
    fn out_of_bounds_and_over_budget_patterns_get_no_plan() {
        assert!(EliminationPlan::build(&CsrMatrix::from_coo(&CooMatrix::new(1, 1))).is_none());
        // A complete graph costs ~n³/3 updates against 64·n² stored rates.
        let n = 200;
        let rates: Vec<_> = (0..n)
            .flat_map(|i| (0..n).filter(move |&j| j != i).map(move |j| (i, j, 1.0)))
            .collect();
        assert!(EliminationPlan::build(&generator(n, &rates)).is_none());
        let ring: Vec<_> = (0..MAX_PLAN_STATES + 1)
            .map(|i| (i, (i + 1) % (MAX_PLAN_STATES + 1), 1.0))
            .collect();
        assert!(EliminationPlan::build(&generator(MAX_PLAN_STATES + 1, &ring)).is_none());
    }

    #[test]
    fn zero_pivots_and_foreign_patterns_are_declined() {
        // Two closed classes {0, 1} and {2, 3}: whichever empties first
        // leaves a state with nowhere to go.
        let q = generator(4, &[(0, 1, 1.0), (1, 0, 1.0), (2, 3, 1.0), (3, 2, 1.0)]);
        let plan = EliminationPlan::build(&q).unwrap();
        assert!(plan.solve(&q).is_none());
        let other = generator(4, &[(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 0, 1.0)]);
        assert!(!plan.fits(&other));
        assert!(plan.solve(&other).is_none());
    }

    #[test]
    fn shared_slots_build_once() {
        let q = generator(3, &[(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0)]);
        let slot = SharedPlan::new();
        let sibling = slot.clone();
        assert!(slot.shares_with(&sibling) && !slot.shares_with(&SharedPlan::new()));
        let first = slot.get_or_build(&q).unwrap() as *const EliminationPlan;
        assert_eq!(sibling.get_or_build(&q).unwrap() as *const EliminationPlan, first);
    }
}
