//! Householder reduction of a real symmetric matrix to tridiagonal form,
//! and the blocked back-transformation of eigenvectors.
//!
//! The reduction is the classic `tred2` sweep (EISPACK / Numerical Recipes
//! lineage): a sequence of Householder reflections zeroes out everything
//! below the first subdiagonal. The inner loops are reorganized for cache
//! friendliness: the `A·w` product over the shrinking symmetric submatrix
//! (the dominant O(n³) term) walks the packed lower triangle row-wise in
//! two unit-stride passes instead of the strided column traversal of the
//! original, and the rank-2 update runs on parallel row chunks.
//!
//! The product `Q` of the reflections is never formed. The reflectors are
//! packed into [`Reflectors`], and [`Reflectors::apply`] maps the
//! tridiagonal eigenvectors `Z` (from the divide-and-conquer solver in
//! `dc`) to `U = Q Z` directly: blocks of reflectors are combined into the
//! compact WY form `I − V T Vᵀ` (LAPACK `dlarft`), so the 2n³ flops of the
//! back-transformation run as three products through the one blocked
//! [`gemm`] kernel.

use crate::matrix::{gemm, MatRef, Store};
use crate::par;

/// Reflectors per compact-WY block of [`Reflectors::apply`].
const WY_BLOCK: usize = 128;

/// The Householder reflections of one reduction, `A = Q T Qᵀ` with
/// `Q = P_{n−1} ⋯ P_2` and `P_i = I − τ_i u_i u_iᵀ` acting on coordinates
/// `0..i`.
#[derive(Debug, Clone)]
pub(crate) struct Reflectors {
    n: usize,
    /// `u_i` (length `i`) stored back to back from offset `i(i−1)/2`.
    u: Vec<f64>,
    /// `τ_i = 1/h_i`, or 0 where step `i` reflected nothing.
    tau: Vec<f64>,
}

impl Reflectors {
    fn u(&self, i: usize) -> &[f64] {
        let off = i * (i - 1) / 2;
        &self.u[off..off + i]
    }

    /// Overwrites the row-major `n × n` matrix `z` with `Q z`.
    ///
    /// Reflectors are applied in ascending blocks of [`WY_BLOCK`]. For the
    /// block `M = P_{b+k−1} ⋯ P_b = I − V T Vᵀ` (columns of `V` are the
    /// `u_i` in descending `i`, `T` upper triangular), `z` restricted to the
    /// rows `0..b+k−1` the block touches becomes `z − V (T (Vᵀ z))`.
    pub(crate) fn apply(&self, z: &mut [f64]) {
        let n = self.n;
        debug_assert_eq!(z.len(), n * n);
        let mut v = Vec::new();
        let mut t = Vec::new();
        let mut vtv = Vec::new();
        let mut w = vec![0.0; WY_BLOCK * n];
        let mut tw = vec![0.0; WY_BLOCK * n];
        for b in (2..n).step_by(WY_BLOCK) {
            let k = WY_BLOCK.min(n - b);
            let rows = b + k - 1;
            // V: rows × k, column j = u_{b+k−1−j} zero-padded.
            v.clear();
            v.resize(rows * k, 0.0);
            for j in 0..k {
                for (r, &x) in self.u(b + k - 1 - j).iter().enumerate() {
                    v[r * k + j] = x;
                }
            }
            // T by the dlarft recurrence: T[..j, j] = −τ_j T[..j, ..j] Vᵀ v_j.
            let vref = MatRef::row_major(&v, rows, k, k);
            vtv.resize(k * k, 0.0);
            gemm(vref.t(), vref, &mut vtv, k, Store::Upper);
            t.clear();
            t.resize(k * k, 0.0);
            for j in 0..k {
                let tau = self.tau[b + k - 1 - j];
                t[j * k + j] = tau;
                for i in 0..j {
                    let s: f64 = (i..j).map(|l| t[i * k + l] * vtv[l * k + j]).sum();
                    t[i * k + j] = -tau * s;
                }
            }
            let zrows = MatRef::row_major(&z[..rows * n], rows, n, n);
            gemm(vref.t(), zrows, &mut w[..k * n], n, Store::Overwrite);
            let tref = MatRef::row_major(&t, k, k, k);
            let wref = MatRef::row_major(&w[..k * n], k, n, n);
            gemm(tref, wref, &mut tw[..k * n], n, Store::Overwrite);
            let twref = MatRef::row_major(&tw[..k * n], k, n, n);
            gemm(vref, twref, &mut z[..rows * n], n, Store::Subtract);
        }
    }
}

/// Reduces the symmetric matrix stored row-major in `z` (size `n × n`) to
/// tridiagonal form `A = Q T Qᵀ`.
///
/// Returns the diagonal `d` and subdiagonal `e` of `T` (`e[0]` is unused
/// and set to zero, `e[i]` couples `d[i-1]` and `d[i]`) and the packed
/// reflections that make up `Q`. Only the lower triangle of `z` is read;
/// on return `z` holds scratch the caller may reuse.
///
/// The caller guarantees `z.len() == n * n` and symmetry of the input; this
/// is enforced by [`crate::eigen::symmetric_eigen`].
pub(crate) fn tridiagonalize(z: &mut [f64], n: usize) -> (Vec<f64>, Vec<f64>, Reflectors) {
    debug_assert_eq!(z.len(), n * n);
    let mut d = vec![0.0; n];
    let mut e = vec![0.0; n];
    let mut tau = vec![0.0; n];

    let mut g_vec = vec![0.0; n];

    for i in (1..n).rev() {
        let l = i - 1;
        let mut h = 0.0;
        if l > 0 {
            let mut scale = 0.0;
            for k in 0..=l {
                scale += z[i * n + k].abs();
            }
            if scale == 0.0 {
                e[i] = z[i * n + l];
            } else {
                for k in 0..=l {
                    z[i * n + k] /= scale;
                    h += z[i * n + k] * z[i * n + k];
                }
                let mut f = z[i * n + l];
                let g = if f >= 0.0 { -h.sqrt() } else { h.sqrt() };
                e[i] = scale * g;
                h -= f * g;
                z[i * n + l] = f - g;

                // ---- g_vec = A · w over the (l+1)×(l+1) symmetric
                // submatrix stored in the lower triangle, row-wise. ----
                g_vec[..=l].fill(0.0);
                {
                    let (lower, wrow) = z.split_at_mut(i * n);
                    let w = &wrow[..=l];
                    for k in 0..=l {
                        let row = &lower[k * n..k * n + k];
                        let wk = w[k];
                        let gk = &mut g_vec[..=l];
                        // Diagonal element.
                        let mut acc = lower[k * n + k] * wk;
                        // Row part: A[k][0..k] · w[0..k] …
                        for (j, &a) in row.iter().enumerate() {
                            acc += a * w[j];
                            // … and its mirrored column contribution.
                            gk[j] += a * wk;
                        }
                        gk[k] += acc;
                    }
                }

                f = 0.0;
                for j in 0..=l {
                    e[j] = g_vec[j] / h;
                    f += e[j] * z[i * n + j];
                }
                let hh = f / (h + h);
                // New e holds g_j = e_j − hh·w_j (finalize before the
                // rank-2 update so rows become independent).
                for j in 0..=l {
                    e[j] -= hh * z[i * n + j];
                }
                // ---- Rank-2 update of the lower triangle:
                // A[j][k] -= w_j·e_k + g_j·w_k, rows in parallel. ----
                let (lower, wrow) = z.split_at_mut(i * n);
                let w = &wrow[..=l];
                let ev = &e[..=l];
                let rows = l + 1;
                let workers = par::worker_count(rows.div_ceil(64));
                par::for_each_row_chunk_mut(&mut lower[..rows * n], n, workers, |row0, chunk| {
                    for (local_j, row) in chunk.chunks_mut(n).enumerate() {
                        let j = row0 + local_j;
                        let fj = w[j];
                        let gj = ev[j];
                        for (k, a) in row[..=j].iter_mut().enumerate() {
                            *a -= fj * ev[k] + gj * w[k];
                        }
                    }
                });
            }
        } else {
            e[i] = z[i * n + l];
        }
        if h != 0.0 {
            tau[i] = 1.0 / h;
        }
    }

    e[0] = 0.0;
    let mut u = vec![0.0; n * n.saturating_sub(1) / 2];
    for i in 0..n {
        d[i] = z[i * n + i];
        let off = i * i.saturating_sub(1) / 2;
        u[off..off + i].copy_from_slice(&z[i * n..i * n + i]);
    }
    (d, e, Reflectors { n, u, tau })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Matrix;

    /// Rebuilds `Q T Qᵀ` from the tridiagonalization output.
    fn reconstruct(q: &[f64], d: &[f64], e: &[f64], n: usize) -> Matrix {
        let qm = Matrix::from_vec(n, n, q.to_vec()).unwrap();
        let mut t = Matrix::zeros(n, n);
        for i in 0..n {
            t[(i, i)] = d[i];
            if i > 0 {
                t[(i, i - 1)] = e[i];
                t[(i - 1, i)] = e[i];
            }
        }
        qm.matmul(&t).unwrap().matmul(&qm.transposed()).unwrap()
    }

    /// Forms `Q` explicitly by applying the reflectors to the identity.
    fn form_q(refl: &Reflectors, n: usize) -> Vec<f64> {
        let mut q = Matrix::identity(n).into_vec();
        refl.apply(&mut q);
        q
    }

    fn check_roundtrip(a: &Matrix) {
        let n = a.rows();
        let mut z = a.as_slice().to_vec();
        let (d, e, refl) = tridiagonalize(&mut z, n);
        let z = form_q(&refl, n);
        let back = reconstruct(&z, &d, &e, n);
        assert!(
            back.max_abs_diff(a) < 1e-9 * (1.0 + a.max_abs()),
            "reconstruction error {:e}",
            back.max_abs_diff(a)
        );
        // Q must be orthogonal.
        let qm = Matrix::from_vec(n, n, z).unwrap();
        let qtq = qm.transposed().matmul(&qm).unwrap();
        assert!(qtq.max_abs_diff(&Matrix::identity(n)) < 1e-10);
    }

    #[test]
    fn roundtrip_small_dense() {
        let a = Matrix::from_rows(&[
            &[4.0, 1.0, -2.0, 2.0],
            &[1.0, 2.0, 0.0, 1.0],
            &[-2.0, 0.0, 3.0, -2.0],
            &[2.0, 1.0, -2.0, -1.0],
        ])
        .unwrap();
        check_roundtrip(&a);
    }

    #[test]
    fn roundtrip_pseudorandom_symmetric() {
        let n = 24;
        let raw = Matrix::from_fn(n, n, |r, c| (((r * 37 + c * 17) % 29) as f64) / 7.0 - 2.0);
        let a = Matrix::from_fn(n, n, |r, c| 0.5 * (raw[(r, c)] + raw[(c, r)]));
        check_roundtrip(&a);
    }

    #[test]
    fn roundtrip_large_enough_for_parallel_chunks() {
        let n = 150;
        let raw = Matrix::from_fn(n, n, |r, c| (((r * 13 + c * 41) % 53) as f64) / 9.0 - 2.5);
        let a = Matrix::from_fn(n, n, |r, c| 0.5 * (raw[(r, c)] + raw[(c, r)]));
        check_roundtrip(&a);
    }

    #[test]
    fn handles_one_by_one() {
        let mut z = vec![5.0];
        let (d, e, refl) = tridiagonalize(&mut z, 1);
        assert_eq!(d, vec![5.0]);
        assert_eq!(e, vec![0.0]);
        assert_eq!(form_q(&refl, 1), vec![1.0]);
    }

    #[test]
    fn roundtrip_spans_several_wy_blocks() {
        let n = 2 * WY_BLOCK + 37;
        let raw = Matrix::from_fn(n, n, |r, c| (((r * 29 + c * 11) % 47) as f64) / 8.0 - 2.9);
        let a = Matrix::from_fn(n, n, |r, c| 0.5 * (raw[(r, c)] + raw[(c, r)]));
        check_roundtrip(&a);
    }

    #[test]
    fn handles_two_by_two() {
        let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 2.0]]).unwrap();
        check_roundtrip(&a);
    }

    #[test]
    fn already_tridiagonal_input_stays_faithful() {
        let mut a = Matrix::zeros(6, 6);
        for i in 0..6 {
            a[(i, i)] = i as f64 + 1.0;
            if i > 0 {
                a[(i, i - 1)] = 0.5;
                a[(i - 1, i)] = 0.5;
            }
        }
        check_roundtrip(&a);
    }

    #[test]
    fn zero_matrix_roundtrips() {
        check_roundtrip(&Matrix::zeros(5, 5));
    }
}
