//! Dense row-major `f64` matrices.
//!
//! This is the working representation for coupling matrices `K`, the
//! transformation matrix `C` produced by eigenvalue dropout, and the
//! orthogonal factors of the symmetric eigendecomposition. Sizes in SOPHIE's
//! functional simulation stay below a few thousand, so a flat `Vec<f64>` is
//! the right tool. All O(n³) products — [`Matrix::matmul`],
//! [`Matrix::gram`], and inside the eigensolver the divide-and-conquer
//! merges and the back-transformation — go through one register-blocked,
//! packed-panel kernel, `gemm`.

use crate::error::{LinalgError, Result};
use crate::par;

/// A dense row-major matrix of `f64`.
///
/// ```
/// use sophie_linalg::Matrix;
///
/// let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
/// assert_eq!(m[(1, 0)], 3.0);
/// assert_eq!(m.matvec(&[1.0, 1.0]), vec![3.0, 7.0]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a `rows × cols` matrix filled with zeros.
    #[must_use]
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates the `n × n` identity matrix.
    #[must_use]
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Builds a matrix by evaluating `f(row, col)` at every position.
    #[must_use]
    pub fn from_fn<F: FnMut(usize, usize) -> f64>(rows: usize, cols: usize, mut f: F) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Builds a matrix from row slices.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::Empty`] for an empty row list and
    /// [`LinalgError::DimensionMismatch`] if rows have differing lengths.
    pub fn from_rows(rows: &[&[f64]]) -> Result<Self> {
        let first = rows.first().ok_or(LinalgError::Empty)?;
        let cols = first.len();
        if cols == 0 {
            return Err(LinalgError::Empty);
        }
        let mut data = Vec::with_capacity(rows.len() * cols);
        for (r, row) in rows.iter().enumerate() {
            if row.len() != cols {
                return Err(LinalgError::DimensionMismatch {
                    expected: (rows.len(), cols),
                    found: (r, row.len()),
                });
            }
            data.extend_from_slice(row);
        }
        Ok(Matrix {
            rows: rows.len(),
            cols,
            data,
        })
    }

    /// Builds a matrix from a flat row-major buffer.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self> {
        if data.len() != rows * cols {
            return Err(LinalgError::DimensionMismatch {
                expected: (rows, cols),
                found: (data.len(), 1),
            });
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Number of rows.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[must_use]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// True if the matrix is square.
    #[must_use]
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Borrows row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    #[must_use]
    pub fn row(&self, r: usize) -> &[f64] {
        assert!(r < self.rows, "row index {r} out of bounds");
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutably borrows row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        assert!(r < self.rows, "row index {r} out of bounds");
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Copies column `c` into a new vector.
    ///
    /// # Panics
    ///
    /// Panics if `c >= self.cols()`.
    #[must_use]
    pub fn col(&self, c: usize) -> Vec<f64> {
        assert!(c < self.cols, "column index {c} out of bounds");
        (0..self.rows).map(|r| self[(r, c)]).collect()
    }

    /// Views the whole matrix as a flat row-major slice.
    #[must_use]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Consumes the matrix and returns the flat row-major buffer.
    #[must_use]
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }

    /// Returns the transpose as a new matrix.
    #[must_use]
    pub fn transposed(&self) -> Self {
        Matrix::from_fn(self.cols, self.rows, |r, c| self[(c, r)])
    }

    /// Matrix-vector product `A x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.cols()`.
    #[must_use]
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.cols, "matvec: length mismatch");
        let mut y = vec![0.0; self.rows];
        for (r, yr) in y.iter_mut().enumerate() {
            *yr = crate::vector::dot(self.row(r), x);
        }
        y
    }

    /// Transposed matrix-vector product `Aᵀ x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.rows()`.
    #[must_use]
    pub fn matvec_transposed(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.rows, "matvec_transposed: length mismatch");
        let mut y = vec![0.0; self.cols];
        for (r, &xr) in x.iter().enumerate() {
            crate::vector::axpy(xr, self.row(r), &mut y);
        }
        y
    }

    /// Matrix product `A B` through the blocked `gemm` kernel.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `self.cols() != rhs.rows()`.
    pub fn matmul(&self, rhs: &Matrix) -> Result<Matrix> {
        if self.cols != rhs.rows {
            return Err(LinalgError::DimensionMismatch {
                expected: (self.cols, rhs.cols),
                found: (rhs.rows, rhs.cols),
            });
        }
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        gemm(
            self.view(),
            rhs.view(),
            &mut out.data,
            rhs.cols,
            Store::Overwrite,
        );
        Ok(out)
    }

    /// Product `A Bᵀ` without materializing the transpose.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `self.cols() != rhs.cols()`.
    pub(crate) fn matmul_transposed(&self, rhs: &Matrix) -> Result<Matrix> {
        if self.cols != rhs.cols {
            return Err(LinalgError::DimensionMismatch {
                expected: (self.rows, self.cols),
                found: (rhs.rows, rhs.cols),
            });
        }
        let mut out = Matrix::zeros(self.rows, rhs.rows);
        gemm(
            self.view(),
            rhs.view().t(),
            &mut out.data,
            rhs.rows,
            Store::Overwrite,
        );
        Ok(out)
    }

    /// Symmetric product `B Bᵀ` where `B = self`.
    ///
    /// Used to build `C = U f(D) Uᵀ = (U √f)(U √f)ᵀ` when the spectral
    /// function `f` is non-negative. The `gemm` kernel computes only the
    /// register tiles that touch the upper triangle, which halves the flop
    /// count, and the lower triangle is mirrored from it, so the result is
    /// exactly symmetric.
    #[must_use]
    pub fn gram(&self) -> Matrix {
        let n = self.rows;
        let mut out = Matrix::zeros(n, n);
        gemm(self.view(), self.view().t(), &mut out.data, n, Store::Upper);
        for r in 1..n {
            for c in 0..r {
                out.data[r * n + c] = out.data[c * n + r];
            }
        }
        out
    }

    /// Borrows the matrix as a kernel operand.
    pub(crate) fn view(&self) -> MatRef<'_> {
        MatRef::row_major(&self.data, self.rows, self.cols, self.cols)
    }

    /// Largest absolute difference `max |a_ij - a_ji|` over all pairs.
    ///
    /// NaN if any difference is NaN (a NaN or a pair of equal infinities
    /// off the diagonal), so a `<=` tolerance check rejects it.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square.
    #[must_use]
    pub fn max_asymmetry(&self) -> f64 {
        assert!(self.is_square(), "max_asymmetry requires a square matrix");
        let mut m = 0.0_f64;
        for r in 0..self.rows {
            for c in (r + 1)..self.cols {
                let d = (self[(r, c)] - self[(c, r)]).abs();
                // `f64::max` drops NaN; a NaN difference must win instead.
                if d.is_nan() {
                    return f64::NAN;
                }
                m = m.max(d);
            }
        }
        m
    }

    /// True if the matrix is square and symmetric within `tol`.
    #[must_use]
    pub fn is_symmetric(&self, tol: f64) -> bool {
        self.is_square() && self.max_asymmetry() <= tol
    }

    /// Frobenius norm.
    #[must_use]
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|x| x * x).sum::<f64>().sqrt()
    }

    /// Largest absolute entry.
    #[must_use]
    pub fn max_abs(&self) -> f64 {
        crate::vector::max_abs(&self.data)
    }

    /// Largest absolute elementwise difference to `other`.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    #[must_use]
    pub fn max_abs_diff(&self, other: &Matrix) -> f64 {
        assert_eq!(
            (self.rows, self.cols),
            (other.rows, other.cols),
            "max_abs_diff: shape mismatch"
        );
        crate::vector::max_abs_diff(&self.data, &other.data)
    }

    /// Scales every entry in place.
    pub fn scale(&mut self, alpha: f64) {
        crate::vector::scale(&mut self.data, alpha);
    }

    /// Sum of each row, i.e. `A · 1`. This is the thresholds' building block
    /// (`θ_i = ½ Σ_j C_ij` in PRIS).
    #[must_use]
    pub fn row_sums(&self) -> Vec<f64> {
        (0..self.rows)
            .map(|r| crate::vector::sum(self.row(r)))
            .collect()
    }
}

/// Read-only strided operand of `gemm`: element `(r, c)` lives at
/// `data[r * rs + c * cs]`, so one buffer serves as a matrix or, through
/// [`MatRef::t`], as its transpose without a copy.
#[derive(Debug, Clone, Copy)]
pub(crate) struct MatRef<'a> {
    data: &'a [f64],
    rows: usize,
    cols: usize,
    rs: usize,
    cs: usize,
}

impl<'a> MatRef<'a> {
    /// A `rows × cols` row-major block whose rows start `ld` apart.
    pub(crate) fn row_major(data: &'a [f64], rows: usize, cols: usize, ld: usize) -> Self {
        assert!(
            rows == 0 || cols == 0 || (rows - 1) * ld + cols <= data.len(),
            "MatRef: {rows}x{cols} block with stride {ld} exceeds {} elements",
            data.len()
        );
        MatRef {
            data,
            rows,
            cols,
            rs: ld,
            cs: 1,
        }
    }

    /// The transposed view.
    pub(crate) fn t(self) -> Self {
        MatRef {
            rows: self.cols,
            cols: self.rows,
            rs: self.cs,
            cs: self.rs,
            ..self
        }
    }

    fn at(&self, r: usize, c: usize) -> f64 {
        self.data[r * self.rs + c * self.cs]
    }
}

/// How `gemm` combines each finished dot product with the output.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Store {
    /// `C = A B`.
    Overwrite,
    /// `C = C - A B` (the product is formed first, then subtracted).
    Subtract,
    /// `C = A B` on every register tile that touches the upper triangle
    /// (`C` square); tiles strictly below the diagonal are left as they are
    /// for the caller to mirror.
    Upper,
}

/// Register tile: `MR` output rows × `NR` output columns in accumulators.
const MR: usize = 6;
const NR: usize = 4;
/// Packed-panel budgets in `f64`s: the A block (`MC × k`, kept in L2 while
/// the B micro-panels stream past it) and the B block (`k × NC`).
const A_BLOCK: usize = 1 << 17;
const B_BLOCK: usize = 1 << 20;
/// Products below this many multiply-adds run on the calling thread.
const PAR_MIN_FLOPS: usize = 1 << 20;

/// The one dense `f64` product kernel: `C (m × n) ∘= A (m × k) · B (k × n)`,
/// with `C` row-major at row stride `ldc`.
///
/// GotoBLAS-shaped: B is packed in `k × NC` blocks of `NR`-wide
/// micro-panels, A in `MC × k` blocks of `MR`-tall micro-panels, and a
/// `MR × NR` register tile accumulates over the *whole* `k` range. So every
/// output element is one sequential sum of its `k` terms in ascending
/// order starting from `0.0` — the same bits as a naive triple loop,
/// whatever the block sizes, and whatever `SOPHIE_THREADS` splits the
/// output rows into (Rust never contracts `mul`+`add` into an FMA).
///
/// # Panics
///
/// Panics if `a.cols != b.rows`, if `c` is shorter than `m` rows of `ldc`,
/// or if `Store::Upper` is asked of a non-square product.
pub(crate) fn gemm(a: MatRef<'_>, b: MatRef<'_>, c: &mut [f64], ldc: usize, store: Store) {
    let (m, k, n) = (a.rows, a.cols, b.cols);
    assert_eq!(k, b.rows, "gemm: inner dimensions differ");
    assert!(n <= ldc, "gemm: output rows narrower than the product");
    assert!(
        store != Store::Upper || m == n,
        "gemm: Store::Upper needs a square product"
    );
    if m == 0 || n == 0 {
        return;
    }
    let c = &mut c[..m * ldc];
    if k == 0 {
        if store != Store::Subtract {
            for row in c.chunks_mut(ldc) {
                row[..n].fill(0.0);
            }
        }
        return;
    }
    let mc = (A_BLOCK / k).max(MR) / MR * MR;
    let nc = (B_BLOCK / k).max(NR) / NR * NR;
    let tile_rows = m.div_ceil(MR);
    let workers = if m * n * k < PAR_MIN_FLOPS {
        1
    } else {
        par::worker_count(tile_rows)
    };
    // Several row bands per worker so the triangular `Upper` work
    // balances; each band packs its own B blocks.
    let chunks = if workers == 1 {
        1
    } else {
        (workers * 4).min(tile_rows)
    };
    par::for_each_row_chunk_mut(c, ldc, chunks, |row0, band| {
        let rows = band.len() / ldc;
        let mut apack = vec![0.0; mc.min(rows.next_multiple_of(MR)) * k];
        let mut bpack = vec![0.0; nc.min(n.next_multiple_of(NR)) * k];
        // Under `Upper`, columns left of the band's first row hold only
        // lower-triangle tiles.
        let col_start = if store == Store::Upper {
            row0 / NR * NR
        } else {
            0
        };
        for j0 in (col_start..n).step_by(nc) {
            let jn = nc.min(n - j0);
            pack_b(b, j0, jn, &mut bpack);
            for i0 in (0..rows).step_by(mc) {
                let im = mc.min(rows - i0);
                pack_a(a, row0 + i0, im, &mut apack);
                for (q, bp) in bpack[..jn.next_multiple_of(NR) * k]
                    .chunks_exact(NR * k)
                    .enumerate()
                {
                    let jc = j0 + q * NR;
                    let nr = NR.min(n - jc);
                    for (p, ap) in apack[..im.next_multiple_of(MR) * k]
                        .chunks_exact(MR * k)
                        .enumerate()
                    {
                        let ic = i0 + p * MR;
                        if store == Store::Upper && jc + NR <= row0 + ic {
                            continue;
                        }
                        let acc = micro_tile(ap, bp);
                        let mr = MR.min(rows - ic);
                        for (i, acc_row) in acc.iter().enumerate().take(mr) {
                            let out = &mut band[(ic + i) * ldc + jc..][..nr];
                            match store {
                                Store::Overwrite | Store::Upper => {
                                    out.copy_from_slice(&acc_row[..nr]);
                                }
                                Store::Subtract => {
                                    for (o, &v) in out.iter_mut().zip(acc_row) {
                                        *o -= v;
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
    });
}

/// Packs rows `r0..r0 + rows` of `a` into `MR`-tall, `k`-long micro-panels
/// (`k`-major within a panel), zero-padding the last panel.
fn pack_a(a: MatRef<'_>, r0: usize, rows: usize, out: &mut [f64]) {
    let k = a.cols;
    for (p, panel) in out[..rows.next_multiple_of(MR) * k]
        .chunks_exact_mut(MR * k)
        .enumerate()
    {
        for i in 0..MR {
            let r = p * MR + i;
            if r < rows {
                for (kk, slot) in panel.iter_mut().skip(i).step_by(MR).enumerate() {
                    *slot = a.at(r0 + r, kk);
                }
            } else {
                panel.iter_mut().skip(i).step_by(MR).for_each(|x| *x = 0.0);
            }
        }
    }
}

/// Packs columns `c0..c0 + cols` of `b` into `NR`-wide, `k`-long
/// micro-panels, zero-padding the last panel.
fn pack_b(b: MatRef<'_>, c0: usize, cols: usize, out: &mut [f64]) {
    let k = b.rows;
    for (q, panel) in out[..cols.next_multiple_of(NR) * k]
        .chunks_exact_mut(NR * k)
        .enumerate()
    {
        for (kk, slot) in panel.chunks_exact_mut(NR).enumerate() {
            for (j, x) in slot.iter_mut().enumerate() {
                let col = q * NR + j;
                *x = if col < cols { b.at(kk, c0 + col) } else { 0.0 };
            }
        }
    }
}

/// One `MR × NR` register tile over two packed micro-panels of equal `k`.
#[inline(always)]
fn micro_tile(ap: &[f64], bp: &[f64]) -> [[f64; NR]; MR] {
    let mut acc = [[0.0; NR]; MR];
    for (a, b) in ap.chunks_exact(MR).zip(bp.chunks_exact(NR)) {
        for i in 0..MR {
            for j in 0..NR {
                acc[i][j] += a[i] * b[j];
            }
        }
    }
    acc
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f64;

    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds"
        );
        &self.data[r * self.cols + c]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds"
        );
        &mut self.data[r * self.cols + c]
    }
}

impl std::fmt::Display for Matrix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "Matrix {}x{}:", self.rows, self.cols)?;
        let show_rows = self.rows.min(8);
        for r in 0..show_rows {
            let show_cols = self.cols.min(8);
            for c in 0..show_cols {
                write!(f, "{:>10.4} ", self[(r, c)])?;
            }
            if self.cols > show_cols {
                write!(f, "...")?;
            }
            writeln!(f)?;
        }
        if self.rows > show_rows {
            writeln!(f, "...")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Matrix {
        Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]).unwrap()
    }

    #[test]
    fn construction_and_indexing() {
        let m = sample();
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 3);
        assert_eq!(m[(0, 2)], 3.0);
        assert_eq!(m[(1, 1)], 5.0);
    }

    #[test]
    fn from_rows_rejects_ragged_input() {
        let err = Matrix::from_rows(&[&[1.0, 2.0], &[3.0]]).unwrap_err();
        assert!(matches!(err, LinalgError::DimensionMismatch { .. }));
    }

    #[test]
    fn from_rows_rejects_empty() {
        assert!(matches!(Matrix::from_rows(&[]), Err(LinalgError::Empty)));
    }

    #[test]
    fn from_vec_checks_length() {
        assert!(Matrix::from_vec(2, 2, vec![0.0; 3]).is_err());
        assert!(Matrix::from_vec(2, 2, vec![0.0; 4]).is_ok());
    }

    #[test]
    fn identity_matvec_is_identity_map() {
        let i = Matrix::identity(4);
        let x = vec![1.0, -2.0, 3.5, 0.0];
        assert_eq!(i.matvec(&x), x);
    }

    #[test]
    fn matvec_matches_manual() {
        let m = sample();
        assert_eq!(m.matvec(&[1.0, 0.0, -1.0]), vec![-2.0, -2.0]);
    }

    #[test]
    fn matvec_transposed_matches_explicit_transpose() {
        let m = sample();
        let x = vec![2.0, -1.0];
        assert_eq!(m.matvec_transposed(&x), m.transposed().matvec(&x));
    }

    #[test]
    fn matmul_matches_known_product() {
        let a = sample();
        let b = a.transposed();
        let p = a.matmul(&b).unwrap();
        // [1 2 3; 4 5 6] * its transpose
        assert_eq!(p[(0, 0)], 14.0);
        assert_eq!(p[(0, 1)], 32.0);
        assert_eq!(p[(1, 1)], 77.0);
        assert!(p.is_symmetric(0.0));
    }

    #[test]
    fn matmul_dimension_mismatch_errors() {
        let a = sample();
        assert!(a.matmul(&sample()).is_err());
    }

    #[test]
    fn gram_equals_matmul_with_transpose() {
        let a = Matrix::from_fn(17, 9, |r, c| ((r * 31 + c * 7) % 13) as f64 - 6.0);
        // gram expects square rows-of-B usage; build square-ish case.
        let g = a.gram();
        let expect = a.matmul(&a.transposed()).unwrap();
        assert!(g.max_abs_diff(&expect) < 1e-9);
    }

    /// Naive triple loop in the kernel's summation order.
    fn naive(a: &Matrix, b: &Matrix) -> Matrix {
        Matrix::from_fn(a.rows(), b.cols(), |r, c| {
            let mut acc = 0.0;
            for k in 0..a.cols() {
                acc += a[(r, k)] * b[(k, c)];
            }
            acc
        })
    }

    fn odd_matrix(rows: usize, cols: usize, seed: usize) -> Matrix {
        Matrix::from_fn(rows, cols, |r, c| {
            (((r * 131 + c * 71 + seed * 17) % 97) as f64 - 48.0) / 7.3
        })
    }

    #[test]
    fn gemm_is_bitwise_the_naive_sum_on_ragged_shapes() {
        for (m, k, n) in [(1, 1, 1), (7, 3, 5), (13, 37, 11), (150, 90, 70), (5, 0, 4)] {
            let a = odd_matrix(m, k, 1);
            let b = odd_matrix(k, n, 2);
            assert_eq!(a.matmul(&b).unwrap(), naive(&a, &b), "{m}x{k}x{n}");
            let bt = b.transposed();
            assert_eq!(a.matmul_transposed(&bt).unwrap(), naive(&a, &b));
        }
    }

    #[test]
    fn gemm_subtract_and_strided_output() {
        let a = odd_matrix(9, 6, 3);
        let b = odd_matrix(6, 5, 4);
        let p = naive(&a, &b);
        // Output block of 5 columns inside rows of 8.
        let mut c = vec![1.5; 9 * 8];
        gemm(a.view(), b.view(), &mut c, 8, Store::Subtract);
        for r in 0..9 {
            for col in 0..8 {
                let want = if col < 5 { 1.5 - p[(r, col)] } else { 1.5 };
                assert_eq!(c[r * 8 + col], want);
            }
        }
    }

    #[test]
    fn gram_of_compacted_columns_equals_full_gram() {
        // Zero columns add exact zeros to every sum, so dropping them
        // changes no entry.
        let full = Matrix::from_fn(40, 30, |r, c| {
            if c % 3 == 1 {
                0.0
            } else {
                (((r * 7 + c * 13) % 23) as f64 - 11.0) / 3.1
            }
        });
        let kept: Vec<usize> = (0..30).filter(|c| c % 3 != 1).collect();
        let compact = Matrix::from_fn(40, kept.len(), |r, j| full[(r, kept[j])]);
        assert_eq!(compact.gram(), full.gram());
        assert_eq!(full.gram(), naive(&full, &full.transposed()));
    }

    #[test]
    fn max_asymmetry_reports_nan() {
        let mut m = Matrix::identity(3);
        m[(0, 2)] = f64::NAN;
        assert!(m.max_asymmetry().is_nan());
        assert!(!m.is_symmetric(1.0));
    }

    #[test]
    fn transpose_is_involution() {
        let m = sample();
        assert_eq!(m.transposed().transposed(), m);
    }

    #[test]
    fn symmetry_checks() {
        let s = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 3.0]]).unwrap();
        assert!(s.is_symmetric(0.0));
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.5, 3.0]]).unwrap();
        assert!(!a.is_symmetric(0.1));
        assert!((a.max_asymmetry() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn row_sums_match_matvec_of_ones() {
        let m = sample();
        assert_eq!(m.row_sums(), m.matvec(&[1.0, 1.0, 1.0]));
    }

    #[test]
    fn frobenius_norm_of_identity() {
        assert!((Matrix::identity(9).frobenius_norm() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn display_is_nonempty() {
        assert!(!format!("{}", sample()).is_empty());
    }

    #[test]
    fn scale_doubles_entries() {
        let mut m = sample();
        m.scale(2.0);
        assert_eq!(m[(1, 2)], 12.0);
    }

    #[test]
    fn col_extracts_column() {
        let m = sample();
        assert_eq!(m.col(1), vec![2.0, 5.0]);
    }

    #[test]
    fn matmul_large_parallel_path_is_correct() {
        // Big enough to split across several worker threads.
        let a = Matrix::from_fn(97, 53, |r, c| ((r + 2 * c) % 7) as f64 - 3.0);
        let b = Matrix::from_fn(53, 61, |r, c| ((3 * r + c) % 5) as f64 - 2.0);
        let p = a.matmul(&b).unwrap();
        // Spot-check a few entries against a naive implementation.
        for &(r, c) in &[(0, 0), (96, 60), (50, 13), (7, 44)] {
            let mut want = 0.0;
            for k in 0..53 {
                want += a[(r, k)] * b[(k, c)];
            }
            assert!((p[(r, c)] - want).abs() < 1e-9, "mismatch at ({r},{c})");
        }
    }
}
