//! Compressed sparse row (CSR) matrices tailored to Markov-chain workloads.
//!
//! The solvers in this crate only need a handful of operations: building a
//! matrix from unordered `(row, col, value)` triplets, row traversal,
//! transposition (Gauss–Seidel sweeps need column access of the generator,
//! which we obtain by storing the transpose), vector products, and scaling.
//!
//! # Examples
//!
//! ```
//! use dtc_markov::sparse::{CooMatrix, CsrMatrix};
//!
//! let mut coo = CooMatrix::new(2, 2);
//! coo.push(0, 0, -1.0);
//! coo.push(0, 1, 1.0);
//! coo.push(1, 0, 2.0);
//! coo.push(1, 1, -2.0);
//! let csr = CsrMatrix::from_coo(&coo);
//! assert_eq!(csr.nnz(), 4);
//! let y = csr.mul_vec(&[1.0, 0.0]);
//! assert_eq!(y, vec![-1.0, 2.0]);
//! ```

use std::fmt;

/// A coordinate-format (triplet) sparse matrix builder.
///
/// Duplicate entries for the same `(row, col)` pair are *summed* when the
/// matrix is converted to [`CsrMatrix`], which is exactly the semantics
/// wanted when accumulating transition rates from several Petri-net firings
/// that connect the same pair of markings.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CooMatrix {
    nrows: usize,
    ncols: usize,
    entries: Vec<(u32, u32, f64)>,
}

impl CooMatrix {
    /// Creates an empty builder with the given dimensions.
    pub fn new(nrows: usize, ncols: usize) -> Self {
        CooMatrix { nrows, ncols, entries: Vec::new() }
    }

    /// Creates an empty builder with pre-allocated capacity for `cap` entries.
    pub fn with_capacity(nrows: usize, ncols: usize, cap: usize) -> Self {
        CooMatrix { nrows, ncols, entries: Vec::with_capacity(cap) }
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Number of raw (possibly duplicated) entries pushed so far.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no entries have been pushed.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Records `value` at `(row, col)`. Values for repeated coordinates are
    /// summed on conversion.
    ///
    /// # Panics
    ///
    /// Panics if `row`/`col` are out of bounds.
    pub fn push(&mut self, row: usize, col: usize, value: f64) {
        assert!(row < self.nrows, "row {row} out of bounds ({})", self.nrows);
        assert!(col < self.ncols, "col {col} out of bounds ({})", self.ncols);
        self.entries.push((row as u32, col as u32, value));
    }

    /// Grows the matrix to at least `nrows` × `ncols`.
    pub fn grow(&mut self, nrows: usize, ncols: usize) {
        self.nrows = self.nrows.max(nrows);
        self.ncols = self.ncols.max(ncols);
    }

    /// Iterates over the raw triplets.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        self.entries.iter().map(|&(r, c, v)| (r as usize, c as usize, v))
    }
}

/// An immutable compressed-sparse-row matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    nrows: usize,
    ncols: usize,
    /// `row_ptr[i]..row_ptr[i+1]` indexes the entries of row `i`.
    row_ptr: Vec<usize>,
    col_idx: Vec<u32>,
    values: Vec<f64>,
}

impl CsrMatrix {
    /// Builds a CSR matrix from a triplet builder, summing duplicates and
    /// dropping exact zeros produced by cancellation.
    pub fn from_coo(coo: &CooMatrix) -> Self {
        let nrows = coo.nrows;
        let ncols = coo.ncols;
        // Counting sort by row, then sort each row slice by column.
        let mut counts = vec![0usize; nrows + 1];
        for &(r, _, _) in &coo.entries {
            counts[r as usize + 1] += 1;
        }
        for i in 0..nrows {
            counts[i + 1] += counts[i];
        }
        let mut order: Vec<u32> = vec![0; coo.entries.len()];
        {
            let mut next = counts.clone();
            for (k, &(r, _, _)) in coo.entries.iter().enumerate() {
                order[next[r as usize]] = k as u32;
                next[r as usize] += 1;
            }
        }
        let mut row_ptr = Vec::with_capacity(nrows + 1);
        let mut col_idx: Vec<u32> = Vec::with_capacity(coo.entries.len());
        let mut values: Vec<f64> = Vec::with_capacity(coo.entries.len());
        row_ptr.push(0);
        let mut scratch: Vec<(u32, f64)> = Vec::new();
        for r in 0..nrows {
            scratch.clear();
            for &k in &order[counts[r]..counts[r + 1]] {
                let (_, c, v) = coo.entries[k as usize];
                scratch.push((c, v));
            }
            scratch.sort_unstable_by_key(|&(c, _)| c);
            // Merge duplicates.
            let mut i = 0;
            while i < scratch.len() {
                let c = scratch[i].0;
                let mut v = scratch[i].1;
                let mut j = i + 1;
                while j < scratch.len() && scratch[j].0 == c {
                    v += scratch[j].1;
                    j += 1;
                }
                if v != 0.0 {
                    col_idx.push(c);
                    values.push(v);
                }
                i = j;
            }
            row_ptr.push(col_idx.len());
        }
        CsrMatrix { nrows, ncols, row_ptr, col_idx, values }
    }

    /// Builds an `n`×`n` identity matrix.
    pub fn identity(n: usize) -> Self {
        CsrMatrix {
            nrows: n,
            ncols: n,
            row_ptr: (0..=n).collect(),
            col_idx: (0..n as u32).collect(),
            values: vec![1.0; n],
        }
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Number of stored (structurally non-zero) entries.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Returns the `(columns, values)` slices of row `i`.
    pub fn row(&self, i: usize) -> (&[u32], &[f64]) {
        let span = self.row_ptr[i]..self.row_ptr[i + 1];
        (&self.col_idx[span.clone()], &self.values[span])
    }

    /// The sparsity pattern: row pointers and column indices.
    pub(crate) fn pattern(&self) -> (&[usize], &[u32]) {
        (&self.row_ptr, &self.col_idx)
    }

    /// The stored values, in row-major entry order.
    pub(crate) fn values(&self) -> &[f64] {
        &self.values
    }

    /// Splits a square matrix into its off-diagonal part and its diagonal
    /// (`0.0` where no diagonal entry is stored). Each row keeps its
    /// column order, so a row sum over the off-diagonal part adds the same
    /// terms in the same order as one over the whole row that skips the
    /// diagonal.
    pub(crate) fn split_diagonal(&self) -> (CsrMatrix, Vec<f64>) {
        let mut diag = vec![0.0; self.nrows];
        let mut row_ptr = Vec::with_capacity(self.nrows + 1);
        let mut col_idx = Vec::with_capacity(self.nnz());
        let mut values = Vec::with_capacity(self.nnz());
        row_ptr.push(0);
        for (i, d) in diag.iter_mut().enumerate() {
            let (cols, vals) = self.row(i);
            for (&c, &v) in cols.iter().zip(vals) {
                if c as usize == i {
                    *d = v;
                } else {
                    col_idx.push(c);
                    values.push(v);
                }
            }
            row_ptr.push(col_idx.len());
        }
        let off = CsrMatrix { nrows: self.nrows, ncols: self.ncols, row_ptr, col_idx, values };
        (off, diag)
    }

    /// Looks up a single entry (O(log nnz(row))).
    pub fn get(&self, i: usize, j: usize) -> f64 {
        let (cols, vals) = self.row(i);
        match cols.binary_search(&(j as u32)) {
            Ok(k) => vals[k],
            Err(_) => 0.0,
        }
    }

    /// Dense `y = A * x` (row-major product).
    pub fn mul_vec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.ncols, "dimension mismatch");
        let mut y = vec![0.0; self.nrows];
        self.mul_vec_into(x, &mut y);
        y
    }

    /// `y = A * x` without allocating.
    pub fn mul_vec_into(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.ncols, "dimension mismatch");
        assert_eq!(y.len(), self.nrows, "dimension mismatch");
        for (i, out) in y.iter_mut().enumerate() {
            let (cols, vals) = self.row(i);
            let mut acc = 0.0;
            for (c, v) in cols.iter().zip(vals) {
                acc += v * x[*c as usize];
            }
            *out = acc;
        }
    }

    /// Dense row-vector product `y = x * A` (the natural orientation for
    /// probability vectors, which are row vectors by convention).
    pub fn vec_mul(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.nrows, "dimension mismatch");
        let mut y = vec![0.0; self.ncols];
        self.vec_mul_into(x, &mut y);
        y
    }

    /// `y = x * A` without allocating. `y` is zeroed first.
    pub fn vec_mul_into(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.nrows, "dimension mismatch");
        assert_eq!(y.len(), self.ncols, "dimension mismatch");
        y.iter_mut().for_each(|v| *v = 0.0);
        for (i, &xi) in x.iter().enumerate() {
            if xi == 0.0 {
                continue;
            }
            let (cols, vals) = self.row(i);
            for (c, v) in cols.iter().zip(vals) {
                y[*c as usize] += xi * v;
            }
        }
    }

    /// Returns the transpose as a new CSR matrix.
    pub fn transpose(&self) -> CsrMatrix {
        let mut counts = vec![0usize; self.ncols + 1];
        for &c in &self.col_idx {
            counts[c as usize + 1] += 1;
        }
        for i in 0..self.ncols {
            counts[i + 1] += counts[i];
        }
        let row_ptr = counts.clone();
        let mut col_idx = vec![0u32; self.nnz()];
        let mut values = vec![0.0; self.nnz()];
        let mut next = counts;
        for r in 0..self.nrows {
            let (cols, vals) = self.row(r);
            for (c, v) in cols.iter().zip(vals) {
                let slot = next[*c as usize];
                col_idx[slot] = r as u32;
                values[slot] = *v;
                next[*c as usize] += 1;
            }
        }
        CsrMatrix { nrows: self.ncols, ncols: self.nrows, row_ptr, col_idx, values }
    }

    /// Multiplies every stored entry by `s`.
    pub fn scale(&mut self, s: f64) {
        for v in &mut self.values {
            *v *= s;
        }
    }

    /// Maximum absolute row sum (the ∞-norm).
    pub fn inf_norm(&self) -> f64 {
        (0..self.nrows)
            .map(|i| self.row(i).1.iter().map(|v| v.abs()).sum::<f64>())
            .fold(0.0, f64::max)
    }

    /// Converts to a dense row-major matrix (tests / direct solver only).
    pub fn to_dense(&self) -> Vec<Vec<f64>> {
        let mut dense = vec![vec![0.0; self.ncols]; self.nrows];
        for (i, dense_row) in dense.iter_mut().enumerate() {
            let (cols, vals) = self.row(i);
            for (c, v) in cols.iter().zip(vals) {
                dense_row[*c as usize] = *v;
            }
        }
        dense
    }

    /// Iterates over all `(row, col, value)` stored entries.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        (0..self.nrows).flat_map(move |i| {
            let (cols, vals) = self.row(i);
            cols.iter().zip(vals).map(move |(c, v)| (i, *c as usize, *v))
        })
    }
}

impl fmt::Display for CsrMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "CsrMatrix {}x{} ({} nnz)", self.nrows, self.ncols, self.nnz())?;
        if self.nrows <= 16 && self.ncols <= 16 {
            for row in self.to_dense() {
                for v in row {
                    write!(f, "{v:>10.4} ")?;
                }
                writeln!(f)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CsrMatrix {
        let mut coo = CooMatrix::new(3, 3);
        coo.push(0, 0, 1.0);
        coo.push(0, 2, 2.0);
        coo.push(1, 1, 3.0);
        coo.push(2, 0, 4.0);
        coo.push(2, 2, 5.0);
        CsrMatrix::from_coo(&coo)
    }

    #[test]
    fn coo_roundtrip_and_duplicate_merge() {
        let mut coo = CooMatrix::new(2, 2);
        coo.push(0, 0, 1.0);
        coo.push(0, 0, 2.5);
        coo.push(1, 1, -1.0);
        let m = CsrMatrix::from_coo(&coo);
        assert_eq!(m.nnz(), 2);
        assert_eq!(m.get(0, 0), 3.5);
        assert_eq!(m.get(1, 1), -1.0);
        assert_eq!(m.get(0, 1), 0.0);
    }

    #[test]
    fn cancelled_duplicates_are_dropped() {
        let mut coo = CooMatrix::new(1, 1);
        coo.push(0, 0, 2.0);
        coo.push(0, 0, -2.0);
        let m = CsrMatrix::from_coo(&coo);
        assert_eq!(m.nnz(), 0);
        assert_eq!(m.get(0, 0), 0.0);
    }

    #[test]
    fn mul_vec_matches_dense() {
        let m = sample();
        let x = vec![1.0, 2.0, 3.0];
        let y = m.mul_vec(&x);
        assert_eq!(y, vec![1.0 + 6.0, 6.0, 4.0 + 15.0]);
    }

    #[test]
    fn vec_mul_matches_transpose_mul() {
        let m = sample();
        let x = vec![1.0, 2.0, 3.0];
        let a = m.vec_mul(&x);
        let b = m.transpose().mul_vec(&x);
        for (u, v) in a.iter().zip(&b) {
            assert!((u - v).abs() < 1e-12);
        }
    }

    #[test]
    fn transpose_involution() {
        let m = sample();
        let mt = m.transpose();
        let mtt = mt.transpose();
        assert_eq!(m.to_dense(), mtt.to_dense());
        assert_eq!(mt.get(2, 0), 2.0);
        assert_eq!(mt.get(0, 2), 4.0);
    }

    #[test]
    fn identity_behaves() {
        let i = CsrMatrix::identity(4);
        let x = vec![4.0, 3.0, 2.0, 1.0];
        assert_eq!(i.mul_vec(&x), x);
        assert_eq!(i.nnz(), 4);
    }

    #[test]
    fn inf_norm() {
        let m = sample();
        assert_eq!(m.inf_norm(), 9.0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn push_out_of_bounds_panics() {
        let mut coo = CooMatrix::new(1, 1);
        coo.push(1, 0, 1.0);
    }

    #[test]
    fn empty_rows_are_fine() {
        let coo = CooMatrix::new(3, 3);
        let m = CsrMatrix::from_coo(&coo);
        assert_eq!(m.nnz(), 0);
        assert_eq!(m.mul_vec(&[1.0, 1.0, 1.0]), vec![0.0, 0.0, 0.0]);
    }

    #[test]
    fn grow_expands_dimensions() {
        let mut coo = CooMatrix::new(1, 1);
        coo.grow(3, 2);
        coo.push(2, 1, 7.0);
        let m = CsrMatrix::from_coo(&coo);
        assert_eq!(m.nrows(), 3);
        assert_eq!(m.ncols(), 2);
        assert_eq!(m.get(2, 1), 7.0);
    }
}
