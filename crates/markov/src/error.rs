//! Error type shared by all solvers in this crate.

use crate::solve::Method;
use std::fmt;

/// Convenient result alias for this crate.
pub type Result<T> = std::result::Result<T, MarkovError>;

/// Errors produced by chain construction and solving.
#[derive(Debug, Clone, PartialEq)]
pub enum MarkovError {
    /// The matrix is empty (no states).
    Empty,
    /// A square matrix was required.
    NotSquare {
        /// Rows found.
        nrows: usize,
        /// Columns found.
        ncols: usize,
    },
    /// A vector length did not match the number of states.
    DimensionMismatch {
        /// Expected length.
        expected: usize,
        /// Actual length.
        got: usize,
    },
    /// An iterative solver exhausted its iteration budget.
    NotConverged {
        /// The solver used.
        method: Method,
        /// Iterations performed.
        iterations: usize,
        /// Residual at the point of giving up.
        residual: f64,
    },
    /// Gaussian elimination hit a (numerically) zero pivot: the chain is
    /// reducible or otherwise lacks a unique stationary distribution.
    Singular {
        /// Elimination column at which the zero pivot appeared.
        pivot: usize,
    },
    /// An iterative stationary method found a state with zero exit rate
    /// (an absorbing state), which it cannot handle.
    ZeroDiagonal {
        /// Index of the offending state.
        state: usize,
    },
    /// A generator row had a negative off-diagonal or positive diagonal.
    InvalidGenerator {
        /// Offending state.
        state: usize,
        /// Explanation.
        detail: String,
    },
    /// A probability row did not sum to one.
    NotStochastic {
        /// Offending row.
        state: usize,
        /// The row sum found.
        sum: f64,
    },
    /// Transient analysis was asked for a negative time horizon.
    NegativeTime(f64),
}

impl fmt::Display for MarkovError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MarkovError::Empty => write!(f, "chain has no states"),
            MarkovError::NotSquare { nrows, ncols } => {
                write!(f, "matrix must be square, got {nrows}x{ncols}")
            }
            MarkovError::DimensionMismatch { expected, got } => {
                write!(f, "vector length {got} does not match state count {expected}")
            }
            MarkovError::NotConverged { method, iterations, residual } => write!(
                f,
                "{method} solver did not converge after {iterations} iterations (residual {residual:.3e})"
            ),
            MarkovError::Singular { pivot } => {
                write!(f, "singular system at pivot {pivot}: chain is reducible")
            }
            MarkovError::ZeroDiagonal { state } => {
                write!(f, "state {state} is absorbing; stationary iteration undefined")
            }
            MarkovError::InvalidGenerator { state, detail } => {
                write!(f, "invalid generator row {state}: {detail}")
            }
            MarkovError::NotStochastic { state, sum } => {
                write!(f, "row {state} sums to {sum}, expected 1")
            }
            MarkovError::NegativeTime(t) => write!(f, "negative time horizon {t}"),
        }
    }
}

impl std::error::Error for MarkovError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = MarkovError::NotConverged {
            method: Method::GaussSeidel,
            iterations: 10,
            residual: 0.5,
        };
        let s = e.to_string();
        assert!(s.contains("gauss-seidel"));
        assert!(s.contains("10"));
    }

    #[test]
    fn errors_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<MarkovError>();
    }

    #[test]
    fn all_variants_display_nonempty() {
        let variants: Vec<MarkovError> = vec![
            MarkovError::Empty,
            MarkovError::NotSquare { nrows: 1, ncols: 2 },
            MarkovError::DimensionMismatch { expected: 3, got: 4 },
            MarkovError::Singular { pivot: 0 },
            MarkovError::ZeroDiagonal { state: 5 },
            MarkovError::InvalidGenerator { state: 1, detail: "neg".into() },
            MarkovError::NotStochastic { state: 2, sum: 0.9 },
            MarkovError::NegativeTime(-1.0),
        ];
        for v in variants {
            assert!(!v.to_string().is_empty());
        }
    }
}
