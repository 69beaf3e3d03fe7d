//! Cyclic Jacobi eigensolver for symmetric matrices.
//!
//! Slower than the Householder + divide-and-conquer pipeline but extremely
//! robust and simple, so it serves as an independent cross-check in tests
//! and as the solver of choice for tiny systems.

use crate::error::{LinalgError, Result};
use crate::Matrix;

/// Maximum number of full Jacobi sweeps.
const MAX_SWEEPS: usize = 64;

/// Eigendecomposition computed by [`jacobi_eigen`]; same layout as
/// [`crate::eigen::SymmetricEigen`] but kept separate so tests can compare
/// the two solvers as genuinely independent implementations.
#[derive(Debug, Clone)]
pub struct JacobiEigen {
    /// Eigenvalues in ascending order.
    pub values: Vec<f64>,
    /// Orthogonal matrix whose columns are the matching eigenvectors.
    pub vectors: Matrix,
}

/// Diagonalizes a symmetric matrix with cyclic Jacobi rotations.
///
/// # Errors
///
/// Returns [`LinalgError::NotSquare`] / [`LinalgError::Empty`] for malformed
/// input and [`LinalgError::ConvergenceFailure`] if the off-diagonal mass has
/// not vanished after the maximum sweep count (64).
///
/// ```
/// use sophie_linalg::{Matrix, eigen::jacobi_eigen};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 2.0]])?;
/// let eig = jacobi_eigen(&a)?;
/// assert!((eig.values[0] - 1.0).abs() < 1e-12);
/// assert!((eig.values[1] - 3.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
pub fn jacobi_eigen(a: &Matrix) -> Result<JacobiEigen> {
    if a.rows() == 0 {
        return Err(LinalgError::Empty);
    }
    if !a.is_square() {
        return Err(LinalgError::NotSquare {
            rows: a.rows(),
            cols: a.cols(),
        });
    }
    let n = a.rows();
    let mut m = a.clone();
    let mut v = Matrix::identity(n);

    for sweep in 0..MAX_SWEEPS {
        let mut off = 0.0;
        for p in 0..n {
            for q in (p + 1)..n {
                off += m[(p, q)] * m[(p, q)];
            }
        }
        if off.sqrt() <= 1e-14 * (1.0 + m.max_abs()) {
            return Ok(finish(m, v));
        }
        let _ = sweep;
        for p in 0..n {
            for q in (p + 1)..n {
                let apq = m[(p, q)];
                if apq.abs() <= f64::MIN_POSITIVE {
                    continue;
                }
                let app = m[(p, p)];
                let aqq = m[(q, q)];
                let theta = (aqq - app) / (2.0 * apq);
                // Stable tangent of the rotation angle.
                let t = {
                    let t = 1.0 / (theta.abs() + (theta * theta + 1.0).sqrt());
                    if theta >= 0.0 {
                        t
                    } else {
                        -t
                    }
                };
                let c = 1.0 / (t * t + 1.0).sqrt();
                let s = t * c;

                // Update rows/columns p and q of m.
                for k in 0..n {
                    let mkp = m[(k, p)];
                    let mkq = m[(k, q)];
                    m[(k, p)] = c * mkp - s * mkq;
                    m[(k, q)] = s * mkp + c * mkq;
                }
                for k in 0..n {
                    let mpk = m[(p, k)];
                    let mqk = m[(q, k)];
                    m[(p, k)] = c * mpk - s * mqk;
                    m[(q, k)] = s * mpk + c * mqk;
                }
                // Accumulate the rotation into v.
                for k in 0..n {
                    let vkp = v[(k, p)];
                    let vkq = v[(k, q)];
                    v[(k, p)] = c * vkp - s * vkq;
                    v[(k, q)] = s * vkp + c * vkq;
                }
            }
        }
    }
    Err(LinalgError::ConvergenceFailure {
        index: 0,
        iterations: MAX_SWEEPS,
    })
}

fn finish(m: Matrix, v: Matrix) -> JacobiEigen {
    let n = m.rows();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&i, &j| m[(i, i)].total_cmp(&m[(j, j)]));
    let values = order.iter().map(|&i| m[(i, i)]).collect();
    let vectors = Matrix::from_fn(n, n, |r, c| v[(r, order[c])]);
    JacobiEigen { values, vectors }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_rectangular() {
        let a = Matrix::zeros(2, 3);
        assert!(matches!(
            jacobi_eigen(&a),
            Err(LinalgError::NotSquare { .. })
        ));
    }

    #[test]
    fn rejects_empty() {
        let a = Matrix::zeros(0, 0);
        assert!(matches!(jacobi_eigen(&a), Err(LinalgError::Empty)));
    }

    #[test]
    fn diagonal_matrix_returns_sorted_diagonal() {
        let a = Matrix::from_rows(&[&[3.0, 0.0], &[0.0, -1.0]]).unwrap();
        let e = jacobi_eigen(&a).unwrap();
        assert_eq!(e.values, vec![-1.0, 3.0]);
    }

    #[test]
    fn reconstruction_matches_input() {
        let raw = Matrix::from_fn(9, 9, |r, c| (((r * 13 + c * 5) % 11) as f64) - 5.0);
        let a = Matrix::from_fn(9, 9, |r, c| 0.5 * (raw[(r, c)] + raw[(c, r)]));
        let e = jacobi_eigen(&a).unwrap();
        let mut d = Matrix::zeros(9, 9);
        for i in 0..9 {
            d[(i, i)] = e.values[i];
        }
        let back = e
            .vectors
            .matmul(&d)
            .unwrap()
            .matmul(&e.vectors.transposed())
            .unwrap();
        assert!(back.max_abs_diff(&a) < 1e-9);
    }

    #[test]
    fn eigenvectors_are_orthonormal() {
        let a =
            Matrix::from_rows(&[&[4.0, 1.0, 0.5], &[1.0, 3.0, -1.0], &[0.5, -1.0, 2.0]]).unwrap();
        let e = jacobi_eigen(&a).unwrap();
        let vtv = e.vectors.transposed().matmul(&e.vectors).unwrap();
        assert!(vtv.max_abs_diff(&Matrix::identity(3)) < 1e-11);
    }

    #[test]
    fn values_are_ascending() {
        let raw = Matrix::from_fn(7, 7, |r, c| ((r * 3 + c * 19) % 17) as f64 / 3.0);
        let a = Matrix::from_fn(7, 7, |r, c| 0.5 * (raw[(r, c)] + raw[(c, r)]));
        let e = jacobi_eigen(&a).unwrap();
        for w in e.values.windows(2) {
            assert!(w[0] <= w[1]);
        }
    }
}
