//! Implicit-shift QL iteration on a symmetric tridiagonal matrix.
//!
//! This is the `tql2`/`tqli` routine, used as the leaf solver of the
//! divide-and-conquer eigensolver (`dc`). For cache friendliness the
//! accumulated transformation is kept *transposed* (`zt`, eigenvectors as
//! rows): each Givens rotation then touches two adjacent contiguous rows
//! instead of two strided columns, which matters at `n ≈ 2000`.

use crate::error::{LinalgError, Result};

/// Maximum QL iterations per eigenvalue before reporting failure.
const MAX_ITERS: usize = 64;

/// `sign(a, b)`: magnitude of `a`, sign of `b` (Fortran SIGN intrinsic).
fn sign(a: f64, b: f64) -> f64 {
    if b >= 0.0 {
        a.abs()
    } else {
        -a.abs()
    }
}

/// Diagonalizes the tridiagonal matrix `(d, e)` in place and accumulates the
/// rotations into `zt` (row-major `n × n`, interpreted as the *transpose* of
/// the eigenvector matrix: row `k` of `zt` converges to eigenvector `k`).
///
/// On success `d` holds the (unsorted) eigenvalues. `e` is destroyed.
///
/// # Errors
///
/// Returns [`LinalgError::ConvergenceFailure`] if any eigenvalue fails to
/// converge within [`MAX_ITERS`] iterations (practically unreachable for
/// well-scaled input).
pub(crate) fn ql_implicit(d: &mut [f64], e: &mut [f64], zt: &mut [f64], n: usize) -> Result<()> {
    debug_assert_eq!(d.len(), n);
    debug_assert_eq!(e.len(), n);
    debug_assert_eq!(zt.len(), n * n);
    if n <= 1 {
        return Ok(());
    }

    // Shift the subdiagonal so e[i] couples d[i] and d[i+1].
    for i in 1..n {
        e[i - 1] = e[i];
    }
    e[n - 1] = 0.0;
    // Norm floor of the split test (EISPACK `tql2`): a coupling below
    // ε·‖T‖ is negligible even between zero diagonal entries, where the
    // purely local test |e| ≤ ε(|d_m| + |d_{m+1}|) can never pass.
    let norm = d
        .iter()
        .zip(e.iter())
        .fold(0.0_f64, |acc, (a, b)| acc.max(a.abs() + b.abs()));

    for l in 0..n {
        let mut iter = 0usize;
        loop {
            // Look for a single small subdiagonal element to split the matrix.
            let mut m = l;
            while m + 1 < n {
                let dd = d[m].abs() + d[m + 1].abs();
                if e[m].abs() <= f64::EPSILON * dd.max(norm) {
                    break;
                }
                m += 1;
            }
            if m == l {
                break;
            }
            iter += 1;
            if iter > MAX_ITERS {
                return Err(LinalgError::ConvergenceFailure {
                    index: l,
                    iterations: iter,
                });
            }
            // Form the implicit Wilkinson-like shift.
            let mut g = (d[l + 1] - d[l]) / (2.0 * e[l]);
            let mut r = g.hypot(1.0);
            g = d[m] - d[l] + e[l] / (g + sign(r, g));
            let mut s = 1.0;
            let mut c = 1.0;
            let mut p = 0.0;
            let mut underflow = false;
            let mut i = m - 1;
            // A sequence of plane rotations to restore tridiagonal form.
            loop {
                let mut f = s * e[i];
                let b = c * e[i];
                r = f.hypot(g);
                e[i + 1] = r;
                if r == 0.0 {
                    // Recover from underflow by deflating.
                    d[i + 1] -= p;
                    e[m] = 0.0;
                    underflow = true;
                    break;
                }
                s = f / r;
                c = g / r;
                g = d[i + 1] - p;
                r = (d[i] - g) * s + 2.0 * c * b;
                p = s * r;
                d[i + 1] = g + p;
                g = c * r - b;
                // Apply the rotation to eigenvector rows i and i+1 of zt.
                let (row_i, row_i1) = zt[i * n..(i + 2) * n].split_at_mut(n);
                for (zi, zi1) in row_i.iter_mut().zip(row_i1.iter_mut()) {
                    f = *zi1;
                    *zi1 = s * *zi + c * f;
                    *zi = c * *zi - s * f;
                }
                if i == l {
                    break;
                }
                i -= 1;
            }
            if underflow && i > l {
                continue;
            }
            if !underflow {
                d[l] -= p;
                e[l] = g;
                e[m] = 0.0;
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Matrix;

    /// Diagonalizes a tridiagonal `(d, e)` and checks `T v = λ v` per pair.
    fn check(diag: &[f64], sub: &[f64]) {
        let n = diag.len();
        let mut d = diag.to_vec();
        // Convention: e[i] couples d[i-1] and d[i], e[0] unused.
        let mut e = vec![0.0; n];
        e[1..n].copy_from_slice(&sub[..n - 1]);
        let mut zt = Matrix::identity(n).into_vec();
        ql_implicit(&mut d, &mut e, &mut zt, n).unwrap();

        let t = {
            let mut t = Matrix::zeros(n, n);
            for i in 0..n {
                t[(i, i)] = diag[i];
                if i > 0 {
                    t[(i, i - 1)] = sub[i - 1];
                    t[(i - 1, i)] = sub[i - 1];
                }
            }
            t
        };
        for k in 0..n {
            let v: Vec<f64> = (0..n).map(|j| zt[k * n + j]).collect();
            let tv = t.matvec(&v);
            for j in 0..n {
                assert!(
                    (tv[j] - d[k] * v[j]).abs() < 1e-8,
                    "eigenpair {k} residual too large"
                );
            }
        }
        // Eigenvalue sum equals trace.
        let trace: f64 = diag.iter().sum();
        let sum: f64 = d.iter().sum();
        assert!((trace - sum).abs() < 1e-8);
    }

    #[test]
    fn diagonal_matrix_is_fixed_point() {
        check(&[3.0, 1.0, -2.0, 7.0], &[0.0, 0.0, 0.0]);
    }

    #[test]
    fn small_coupled_chain() {
        check(&[2.0, 2.0, 2.0], &[1.0, 1.0]);
    }

    #[test]
    fn known_two_by_two() {
        // [[0,1],[1,0]] has eigenvalues ±1.
        let mut d = vec![0.0, 0.0];
        let mut e = vec![0.0, 1.0];
        let mut zt = Matrix::identity(2).into_vec();
        ql_implicit(&mut d, &mut e, &mut zt, 2).unwrap();
        let mut vals = d.clone();
        vals.sort_by(f64::total_cmp);
        assert!((vals[0] + 1.0).abs() < 1e-12);
        assert!((vals[1] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn laplacian_chain_eigenvalues_match_closed_form() {
        // Path-graph Laplacian-like tridiagonal [2, -1] has eigenvalues
        // 2 - 2 cos(kπ/(n+1)) for the [-1,2,-1] Toeplitz with Dirichlet ends.
        let n = 12;
        let diag = vec![2.0; n];
        let sub = vec![-1.0; n - 1];
        let mut d = diag.clone();
        let mut e = vec![0.0; n];
        e[1..].copy_from_slice(&sub);
        let mut zt = Matrix::identity(n).into_vec();
        ql_implicit(&mut d, &mut e, &mut zt, n).unwrap();
        d.sort_by(f64::total_cmp);
        for (k, &lam) in d.iter().enumerate() {
            let expect = 2.0 - 2.0 * (std::f64::consts::PI * (k + 1) as f64 / (n + 1) as f64).cos();
            assert!((lam - expect).abs() < 1e-10, "λ_{k}");
        }
    }

    #[test]
    fn single_element_is_noop() {
        let mut d = vec![42.0];
        let mut e = vec![0.0];
        let mut zt = vec![1.0];
        ql_implicit(&mut d, &mut e, &mut zt, 1).unwrap();
        assert_eq!(d, vec![42.0]);
    }

    #[test]
    fn eigenvectors_stay_orthonormal() {
        check(
            &[1.0, -1.0, 0.5, 2.5, -3.0, 0.0],
            &[0.7, 0.2, 0.9, 0.1, 0.4],
        );
    }
}
