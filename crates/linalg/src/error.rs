//! Error types for the linear-algebra substrate.

use std::error::Error;
use std::fmt;

/// Errors produced by matrix construction and decomposition routines.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum LinalgError {
    /// Two operands have incompatible shapes.
    DimensionMismatch {
        /// Shape expected by the operation, `(rows, cols)`.
        expected: (usize, usize),
        /// Shape actually supplied, `(rows, cols)`.
        found: (usize, usize),
    },
    /// A square matrix was required but a rectangular one was supplied.
    NotSquare {
        /// Number of rows of the offending matrix.
        rows: usize,
        /// Number of columns of the offending matrix.
        cols: usize,
    },
    /// A symmetric matrix was required but the input was not symmetric
    /// within the stated tolerance.
    NotSymmetric {
        /// Largest absolute difference between `a[i][j]` and `a[j][i]`.
        max_asymmetry: f64,
    },
    /// An iterative eigensolver failed to converge.
    ConvergenceFailure {
        /// Index of the eigenvalue being isolated when iteration stalled.
        index: usize,
        /// Number of iterations performed before giving up.
        iterations: usize,
    },
    /// A zero-sized matrix was supplied where a non-empty one is required.
    Empty,
    /// The input holds a NaN or an infinity.
    NonFinite,
}

impl fmt::Display for LinalgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinalgError::DimensionMismatch { expected, found } => write!(
                f,
                "dimension mismatch: expected {}x{}, found {}x{}",
                expected.0, expected.1, found.0, found.1
            ),
            LinalgError::NotSquare { rows, cols } => {
                write!(f, "matrix must be square, found {rows}x{cols}")
            }
            LinalgError::NotSymmetric { max_asymmetry } => {
                write!(f, "matrix is not symmetric (max asymmetry {max_asymmetry:e})")
            }
            LinalgError::ConvergenceFailure { index, iterations } => write!(
                f,
                "eigensolver failed to converge for eigenvalue {index} after {iterations} iterations"
            ),
            LinalgError::Empty => write!(f, "matrix must be non-empty"),
            LinalgError::NonFinite => write!(f, "matrix has a NaN or infinite entry"),
        }
    }
}

impl Error for LinalgError {}

/// Convenience alias used throughout the crate.
pub type Result<T> = std::result::Result<T, LinalgError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_lowercase_and_informative() {
        let e = LinalgError::DimensionMismatch {
            expected: (3, 4),
            found: (4, 3),
        };
        assert_eq!(e.to_string(), "dimension mismatch: expected 3x4, found 4x3");
        let e = LinalgError::NotSquare { rows: 2, cols: 5 };
        assert_eq!(e.to_string(), "matrix must be square, found 2x5");
        let e = LinalgError::Empty;
        assert_eq!(e.to_string(), "matrix must be non-empty");
    }

    #[test]
    fn error_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<LinalgError>();
    }

    #[test]
    fn convergence_failure_mentions_iterations() {
        let e = LinalgError::ConvergenceFailure {
            index: 7,
            iterations: 50,
        };
        let msg = e.to_string();
        assert!(msg.contains('7') && msg.contains("50"));
    }
}
