//! Symmetric eigendecomposition.
//!
//! The production pipeline is the one dense LAPACK runs in `dsyevd`:
//!
//! 1. Householder reduction to tridiagonal form (`tridiagonal`), keeping
//!    the reflectors instead of forming `Q`;
//! 2. divide and conquer on the tridiagonal matrix (`dc`): Cuppen tears,
//!    deflation, a shifted-origin secular-equation solver, Löwner's
//!    formula for orthogonal vectors, and merges that are matrix products.
//!    Leaves of at most 32 rows are solved by implicit-shift QL (`ql`);
//! 3. back-transformation `U = Q Z`, applying the reflectors to `Z` in
//!    compact-WY blocks.
//!
//! Every O(n³) step other than the reduction runs through the one blocked
//! product kernel behind [`Matrix::matmul`], whose results do not depend on
//! `SOPHIE_THREADS`. It is implemented from scratch because SOPHIE's
//! eigenvalue-dropout preprocessing (paper §II-C) needs the full spectrum of
//! coupling matrices up to a few thousand nodes. A cyclic [`jacobi_eigen`]
//! solver provides an independent implementation for cross-validation.

mod dc;
mod jacobi;
mod ql;
mod tridiagonal;

pub use jacobi::{jacobi_eigen, JacobiEigen};

use std::time::{Duration, Instant};

use crate::error::{LinalgError, Result};
use crate::Matrix;

/// Full eigendecomposition `A = U D Uᵀ` of a real symmetric matrix.
///
/// Produced by [`symmetric_eigen`]. Eigenvalues are sorted ascending and the
/// columns of [`SymmetricEigen::vectors`] are the matching orthonormal
/// eigenvectors.
#[derive(Debug, Clone)]
pub struct SymmetricEigen {
    /// Eigenvalues in ascending order.
    pub values: Vec<f64>,
    /// Orthogonal matrix whose column `k` is the eigenvector for `values[k]`.
    pub vectors: Matrix,
}

impl SymmetricEigen {
    /// Dimension of the decomposed matrix.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.values.len()
    }

    /// Rebuilds the original matrix `U D Uᵀ` (mainly for testing).
    #[must_use]
    pub fn reconstruct(&self) -> Matrix {
        self.apply_fn(|x| x)
    }

    /// Builds `U f(D) Uᵀ` for an arbitrary spectral function `f`.
    ///
    /// Same as [`SymmetricEigen::apply_values`] on `f` of every eigenvalue.
    #[must_use]
    pub fn apply_fn<F: Fn(f64) -> f64>(&self, f: F) -> Matrix {
        let fv: Vec<f64> = self.values.iter().map(|&x| f(x)).collect();
        self.apply_values(&fv)
    }

    /// Builds `U diag(fv) Uᵀ` from one spectral value per eigenpair.
    ///
    /// Eigenvectors whose value is zero contribute nothing and are dropped
    /// before any product. When every value is non-negative the result is
    /// the Gram matrix `(U √f)(U √f)ᵀ`, which costs half a general product
    /// and is exactly symmetric; otherwise it is `(U f) Uᵀ`. Both go
    /// through the blocked product kernel behind [`Matrix::matmul`].
    ///
    /// # Panics
    ///
    /// Panics if `fv.len() != self.dim()`.
    #[must_use]
    pub fn apply_values(&self, fv: &[f64]) -> Matrix {
        let n = self.dim();
        assert_eq!(fv.len(), n, "apply_values: one value per eigenpair");
        let keep: Vec<usize> = (0..n).filter(|&k| fv[k] != 0.0).collect();
        let columns = |weight: fn(f64) -> f64| {
            Matrix::from_fn(n, keep.len(), |r, j| {
                self.vectors[(r, keep[j])] * weight(fv[keep[j]])
            })
        };
        if fv.iter().all(|&x| x >= 0.0) {
            columns(f64::sqrt).gram()
        } else {
            columns(|x| x)
                .matmul_transposed(&columns(|_| 1.0))
                .expect("both factors have one column per kept eigenpair")
        }
    }
}

/// Wall-clock split of one eigendecomposition, from
/// [`symmetric_eigen_with_phases`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EigenPhases {
    /// Householder reduction to tridiagonal form.
    pub reduction: Duration,
    /// Divide-and-conquer solve of the tridiagonal matrix.
    pub tridiagonal: Duration,
    /// Back-transformation `U = Q Z` through the stored reflectors.
    pub back_transform: Duration,
}

/// Computes the full eigendecomposition of a symmetric matrix.
///
/// # Errors
///
/// * [`LinalgError::Empty`] / [`LinalgError::NotSquare`] for malformed input.
/// * [`LinalgError::NonFinite`] if any entry is NaN or infinite.
/// * [`LinalgError::NotSymmetric`] if asymmetry exceeds `1e-9 · (1 + max|a|)`.
/// * [`LinalgError::ConvergenceFailure`] if a QL leaf stalls
///   (practically unreachable).
///
/// ```
/// use sophie_linalg::{Matrix, eigen::symmetric_eigen};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let a = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]])?;
/// let eig = symmetric_eigen(&a)?;
/// assert!((eig.values[0] + 1.0).abs() < 1e-12);
/// assert!((eig.values[1] - 1.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
pub fn symmetric_eigen(a: &Matrix) -> Result<SymmetricEigen> {
    symmetric_eigen_with_phases(a).map(|(eig, _)| eig)
}

/// [`symmetric_eigen`], also reporting how long each phase took.
///
/// # Errors
///
/// As [`symmetric_eigen`].
pub fn symmetric_eigen_with_phases(a: &Matrix) -> Result<(SymmetricEigen, EigenPhases)> {
    if a.rows() == 0 {
        return Err(LinalgError::Empty);
    }
    if !a.is_square() {
        return Err(LinalgError::NotSquare {
            rows: a.rows(),
            cols: a.cols(),
        });
    }
    if a.as_slice().iter().any(|x| !x.is_finite()) {
        return Err(LinalgError::NonFinite);
    }
    let asym = a.max_asymmetry();
    if asym > 1e-9 * (1.0 + a.max_abs()) {
        return Err(LinalgError::NotSymmetric {
            max_asymmetry: asym,
        });
    }

    let n = a.rows();
    let t0 = Instant::now();
    let mut z = a.as_slice().to_vec();
    let (mut d, e, reflectors) = tridiagonal::tridiagonalize(&mut z, n);
    let t1 = Instant::now();
    // The reduction's scratch becomes the tridiagonal eigenvector matrix,
    // then, mapped through Q in place, the result.
    dc::tridiagonal_eigen(&mut d, &e, &mut z)?;
    let t2 = Instant::now();
    reflectors.apply(&mut z);
    let phases = EigenPhases {
        reduction: t1 - t0,
        tridiagonal: t2 - t1,
        back_transform: t2.elapsed(),
    };
    let vectors = Matrix::from_vec(n, n, z).expect("n × n buffer by construction");
    Ok((SymmetricEigen { values: d, vectors }, phases))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pseudorandom_symmetric(n: usize, seed: u64) -> Matrix {
        // Small deterministic LCG so the test needs no RNG dependency here.
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64) / (u32::MAX as f64) - 0.5
        };
        let raw = Matrix::from_fn(n, n, |_, _| next());
        Matrix::from_fn(n, n, |r, c| raw[(r, c)] + raw[(c, r)])
    }

    /// `max|A U − U Λ|` and `max|UᵀU − I|`.
    fn residual_and_orthogonality(a: &Matrix, e: &SymmetricEigen) -> (f64, f64) {
        let n = a.rows();
        let au = a.matmul(&e.vectors).unwrap();
        let mut res = 0.0_f64;
        for r in 0..n {
            for c in 0..n {
                res = res.max((au[(r, c)] - e.vectors[(r, c)] * e.values[c]).abs());
            }
        }
        let utu = e.vectors.matmul_transposed(&e.vectors).unwrap();
        (res, utu.max_abs_diff(&Matrix::identity(n)))
    }

    /// Coupling-style matrix of a random graph: `edges` unit edges on `n`
    /// nodes (duplicates merge), zero diagonal.
    fn random_graph(n: usize, edges: usize, seed: u64) -> Matrix {
        let mut state = seed;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize % n
        };
        let mut k = Matrix::zeros(n, n);
        for _ in 0..edges {
            let (u, v) = (next(), next());
            if u != v {
                k[(u, v)] = -1.0;
                k[(v, u)] = -1.0;
            }
        }
        k
    }

    #[test]
    fn rejects_non_finite_input() {
        let mut upper_nan = pseudorandom_symmetric(6, 1);
        upper_nan[(1, 4)] = f64::NAN;
        let mut symmetric_nan = pseudorandom_symmetric(6, 2);
        symmetric_nan[(2, 3)] = f64::NAN;
        symmetric_nan[(3, 2)] = f64::NAN;
        let mut infinite = pseudorandom_symmetric(6, 3);
        infinite[(0, 0)] = f64::INFINITY;
        for a in [upper_nan, symmetric_nan, infinite] {
            assert_eq!(symmetric_eigen(&a).unwrap_err(), LinalgError::NonFinite);
        }
    }

    #[test]
    fn complete_graph_has_a_degenerate_spectrum() {
        // K_n couplings (all −1 off the diagonal): eigenvalue 1 with
        // multiplicity n−1 and −(n−1) once.
        let n = 70;
        let a = Matrix::from_fn(n, n, |r, c| if r == c { 0.0 } else { -1.0 });
        let e = symmetric_eigen(&a).unwrap();
        assert!((e.values[0] + (n - 1) as f64).abs() < 1e-12);
        assert!(e.values[1..].iter().all(|&v| (v - 1.0).abs() < 1e-12));
        let (res, orth) = residual_and_orthogonality(&a, &e);
        assert!(
            res < 1e-12 && orth < 1e-13,
            "residual {res:e}, orthogonality {orth:e}"
        );
    }

    #[test]
    fn disconnected_graph_splits_cleanly() {
        // Two components and isolated nodes: zero blocks in K and exact
        // zero couplings in the tridiagonal form.
        let n = 90;
        let left = random_graph(40, 120, 5);
        let right = random_graph(35, 100, 6);
        let a = Matrix::from_fn(n, n, |r, c| match (r, c) {
            (r, c) if r < 40 && c < 40 => left[(r, c)],
            (r, c) if (40..75).contains(&r) && (40..75).contains(&c) => right[(r - 40, c - 40)],
            _ => 0.0,
        });
        let e = symmetric_eigen(&a).unwrap();
        let (res, orth) = residual_and_orthogonality(&a, &e);
        assert!(
            res < 1e-12 && orth < 1e-13,
            "residual {res:e}, orthogonality {orth:e}"
        );
        let jac = jacobi_eigen(&a).unwrap();
        for (x, y) in e.values.iter().zip(&jac.values) {
            assert!((x - y).abs() < 1e-9, "{x} vs Jacobi {y}");
        }
    }

    #[test]
    fn g22_shaped_n600_is_accurate() {
        // G22's density (≈10 edges per node) at n = 600.
        let a = random_graph(600, 3000, 22);
        let e = symmetric_eigen(&a).unwrap();
        let norm = e.values[0].abs().max(e.values[599].abs());
        let (res, orth) = residual_and_orthogonality(&a, &e);
        assert!(res <= 1e-10 * norm, "residual {res:e} against ‖K‖ = {norm}");
        assert!(orth <= 1e-11, "orthogonality {orth:e}");
    }

    #[test]
    fn rejects_asymmetric_input() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[0.0, 1.0]]).unwrap();
        assert!(matches!(
            symmetric_eigen(&a),
            Err(LinalgError::NotSymmetric { .. })
        ));
    }

    #[test]
    fn reconstruct_roundtrips() {
        let a = pseudorandom_symmetric(31, 7);
        let e = symmetric_eigen(&a).unwrap();
        assert!(e.reconstruct().max_abs_diff(&a) < 1e-9);
    }

    #[test]
    fn eigenvectors_orthonormal() {
        let a = pseudorandom_symmetric(20, 3);
        let e = symmetric_eigen(&a).unwrap();
        let vtv = e.vectors.transposed().matmul(&e.vectors).unwrap();
        assert!(vtv.max_abs_diff(&Matrix::identity(20)) < 1e-10);
    }

    #[test]
    fn values_sorted_and_match_trace() {
        let a = pseudorandom_symmetric(25, 11);
        let e = symmetric_eigen(&a).unwrap();
        for w in e.values.windows(2) {
            assert!(w[0] <= w[1]);
        }
        let trace: f64 = (0..25).map(|i| a[(i, i)]).sum();
        let sum: f64 = e.values.iter().sum();
        assert!((trace - sum).abs() < 1e-8);
    }

    #[test]
    fn agrees_with_jacobi_solver() {
        let a = pseudorandom_symmetric(16, 42);
        let eig = symmetric_eigen(&a).unwrap();
        let jac = jacobi_eigen(&a).unwrap();
        for (x, y) in eig.values.iter().zip(&jac.values) {
            assert!((x - y).abs() < 1e-8, "eigenvalue mismatch: {x} vs {y}");
        }
    }

    #[test]
    fn apply_fn_identity_equals_reconstruct() {
        let a = pseudorandom_symmetric(12, 5);
        let e = symmetric_eigen(&a).unwrap();
        assert!(e.apply_fn(|x| x).max_abs_diff(&e.reconstruct()) < 1e-12);
    }

    #[test]
    fn apply_fn_square_matches_matrix_square() {
        let a = pseudorandom_symmetric(14, 9);
        let e = symmetric_eigen(&a).unwrap();
        let a2 = a.matmul(&a).unwrap();
        // x² ≥ 0 so this exercises the factored (gram) path.
        assert!(e.apply_fn(|x| x * x).max_abs_diff(&a2) < 1e-8);
    }

    #[test]
    fn apply_fn_negative_branch_matches_general_path() {
        let a = pseudorandom_symmetric(10, 13);
        let e = symmetric_eigen(&a).unwrap();
        // f(x) = x keeps negatives, exercising the two-product fallback;
        // compare against reconstruct (which routes through the same fn) and
        // the original matrix.
        assert!(e.apply_fn(|x| x).max_abs_diff(&a) < 1e-9);
    }

    #[test]
    fn one_by_one() {
        let a = Matrix::from_rows(&[&[7.5]]).unwrap();
        let e = symmetric_eigen(&a).unwrap();
        assert_eq!(e.values, vec![7.5]);
        assert!((e.vectors[(0, 0)].abs() - 1.0).abs() < 1e-15);
    }

    #[test]
    fn repeated_eigenvalues_are_handled() {
        let a = Matrix::identity(8);
        let e = symmetric_eigen(&a).unwrap();
        for &v in &e.values {
            assert!((v - 1.0).abs() < 1e-12);
        }
        let vtv = e.vectors.transposed().matmul(&e.vectors).unwrap();
        assert!(vtv.max_abs_diff(&Matrix::identity(8)) < 1e-10);
    }
}
