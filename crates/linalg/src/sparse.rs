//! Compressed sparse row (CSR) matrices for GSET-class weight data.
//!
//! The paper's benchmark graphs are extremely sparse (G22: 2000 nodes,
//! ~20k edges, ~0.5% density), yet the tiled engine's hot path multiplies
//! dense [`Tile`]s. [`SparseCsr`] stores only the nonzero weights so the
//! engine's sparse compute strategy (`sophie-core`) can recompute exactly
//! the outputs touched by changed inputs.
//!
//! # Bit-compatibility contract
//!
//! Every kernel here produces outputs **bit-identical** to the dense tile
//! kernels ([`Tile::mvm`] / [`Tile::mvm_transposed`]). Both families
//! accumulate each output as a sequential sum of `w·x` terms in ascending
//! column order, starting from `+0.0`; the dense side skips terms with a
//! zero *input*, the sparse side skips terms with a zero *weight*. Either
//! skip is bitwise invisible because the skipped term is an exact `±0.0`
//! product, `acc + ±0.0` preserves `acc`'s bits for every non-zero `acc`,
//! and the accumulator can never become `-0.0` (it starts at `+0.0`,
//! `+0.0 + -0.0 == +0.0`, and exact cancellation rounds to `+0.0`).
//! Entries equal to `-0.0` compare equal to zero and are simply dropped
//! at build time, under the same argument.

use crate::error::{LinalgError, Result};
use crate::Tile;

/// A sparse matrix in CSR layout: per row, ascending column indices and
/// their `f32` values.
#[derive(Debug, Clone, PartialEq)]
pub struct SparseCsr {
    rows: usize,
    cols: usize,
    /// `rows + 1` offsets into `col_idx`/`values`.
    row_ptr: Vec<u32>,
    /// Column index of each stored entry, ascending within a row.
    col_idx: Vec<u32>,
    values: Vec<f32>,
}

impl SparseCsr {
    /// Builds from a flat row-major dense buffer, dropping exact zeros
    /// (including `-0.0`).
    ///
    /// # Errors
    ///
    /// [`LinalgError::DimensionMismatch`] if `data.len() != rows · cols`,
    /// [`LinalgError::Empty`] if either dimension is zero.
    pub fn from_dense(rows: usize, cols: usize, data: &[f32]) -> Result<Self> {
        if rows == 0 || cols == 0 {
            return Err(LinalgError::Empty);
        }
        if data.len() != rows * cols {
            return Err(LinalgError::DimensionMismatch {
                expected: (rows, cols),
                found: (data.len(), 1),
            });
        }
        assert!(
            rows <= u32::MAX as usize && cols <= u32::MAX as usize,
            "CSR indices are u32"
        );
        let mut row_ptr = Vec::with_capacity(rows + 1);
        let mut col_idx = Vec::new();
        let mut values = Vec::new();
        row_ptr.push(0u32);
        for r in 0..rows {
            for (c, &v) in data[r * cols..(r + 1) * cols].iter().enumerate() {
                if v != 0.0 {
                    col_idx.push(c as u32);
                    values.push(v);
                }
            }
            row_ptr.push(col_idx.len() as u32);
        }
        Ok(SparseCsr {
            rows,
            cols,
            row_ptr,
            col_idx,
            values,
        })
    }

    /// Builds from a square [`Tile`]'s row-major contents.
    ///
    /// # Errors
    ///
    /// Propagates [`Self::from_dense`] errors (a tile is never empty).
    pub fn from_tile(tile: &Tile) -> Result<Self> {
        Self::from_dense(tile.size(), tile.size(), tile.as_slice())
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

    /// Count of stored (nonzero) entries.
    #[must_use]
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Fraction of entries stored, `nnz / (rows · cols)`.
    #[must_use]
    pub fn density(&self) -> f64 {
        self.nnz() as f64 / (self.rows * self.cols) as f64
    }

    /// Row `r` as `(column indices, values)` slices, columns ascending.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    #[must_use]
    pub fn row(&self, r: usize) -> (&[u32], &[f32]) {
        assert!(r < self.rows, "row {r} out of bounds");
        let lo = self.row_ptr[r] as usize;
        let hi = self.row_ptr[r + 1] as usize;
        (&self.col_idx[lo..hi], &self.values[lo..hi])
    }

    /// Stored entries in row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    #[must_use]
    pub fn row_nnz(&self, r: usize) -> usize {
        assert!(r < self.rows, "row {r} out of bounds");
        (self.row_ptr[r + 1] - self.row_ptr[r]) as usize
    }

    /// The transposed matrix in CSR layout (i.e. this matrix in CSC).
    #[must_use]
    pub fn transposed(&self) -> SparseCsr {
        let mut counts = vec![0u32; self.cols + 1];
        for &c in &self.col_idx {
            counts[c as usize + 1] += 1;
        }
        for i in 0..self.cols {
            counts[i + 1] += counts[i];
        }
        let row_ptr = counts.clone();
        let mut col_idx = vec![0u32; self.nnz()];
        let mut values = vec![0.0_f32; self.nnz()];
        let mut next = counts;
        // Walking rows ascending keeps each output row's indices ascending.
        for r in 0..self.rows {
            let (cols, vals) = self.row(r);
            for (&c, &v) in cols.iter().zip(vals) {
                let slot = next[c as usize] as usize;
                col_idx[slot] = r as u32;
                values[slot] = v;
                next[c as usize] += 1;
            }
        }
        SparseCsr {
            rows: self.cols,
            cols: self.rows,
            row_ptr,
            col_idx,
            values,
        }
    }

    /// Recomputes one output of `y = M·x` from scratch: the sequential
    /// row-dot `Σ values[k]·x[col_idx[k]]` in ascending column order —
    /// bit-identical to what the dense kernels produce for that element
    /// (see the module docs).
    ///
    /// # Panics
    ///
    /// Panics if `r` or `x` are out of bounds.
    #[must_use]
    pub fn row_dot(&self, r: usize, x: &[f32]) -> f32 {
        assert_eq!(x.len(), self.cols, "row_dot: input length mismatch");
        let (cols, vals) = self.row(r);
        crate::kernel::scalar::seq_dot_indexed(cols, vals, x)
    }

    /// `y = M·x`, one sequential row-dot per output.
    ///
    /// # Panics
    ///
    /// Panics on length mismatch.
    pub fn matvec(&self, x: &[f32], y: &mut [f32]) {
        assert_eq!(x.len(), self.cols, "matvec: input length mismatch");
        assert_eq!(y.len(), self.rows, "matvec: output length mismatch");
        for (r, yr) in y.iter_mut().enumerate() {
            let lo = self.row_ptr[r] as usize;
            let hi = self.row_ptr[r + 1] as usize;
            *yr = crate::kernel::scalar::seq_dot_indexed(
                &self.col_idx[lo..hi],
                &self.values[lo..hi],
                x,
            );
        }
    }

    /// `y = Mᵀ·x` as a row-ordered scatter: for ascending row `r` with
    /// `x[r] != 0`, `y[c] += v·x[r]` over the stored entries — the same
    /// per-output term order as [`Tile::mvm_transposed`].
    ///
    /// # Panics
    ///
    /// Panics on length mismatch.
    pub fn matvec_transposed(&self, x: &[f32], y: &mut [f32]) {
        assert_eq!(x.len(), self.rows, "matvec_transposed: input mismatch");
        assert_eq!(y.len(), self.cols, "matvec_transposed: output mismatch");
        y.fill(0.0);
        for (r, &xr) in x.iter().enumerate() {
            if xr != 0.0 {
                let (cols, vals) = self.row(r);
                crate::kernel::scalar::seq_scatter_axpy(xr, cols, vals, y);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tile_of(size: usize, density_mod: usize) -> Tile {
        Tile::from_vec(
            size,
            (0..size * size)
                .map(|i| {
                    if i % density_mod == 0 {
                        ((i * 37 + 11) % 23) as f32 / 11.0 - 1.0
                    } else {
                        0.0
                    }
                })
                .collect(),
        )
        .unwrap()
    }

    fn input(size: usize) -> Vec<f32> {
        (0..size)
            .map(|i| match i % 4 {
                0 => 0.0,
                1 => 1.0,
                2 => -1.5,
                _ => 0.25,
            })
            .collect()
    }

    #[test]
    fn from_dense_drops_zeros_and_negative_zero() {
        let m = SparseCsr::from_dense(2, 3, &[1.0, 0.0, -0.0, 0.0, 2.0, 3.0]).unwrap();
        assert_eq!(m.nnz(), 3);
        assert_eq!(m.row(0), (&[0u32][..], &[1.0_f32][..]));
        assert_eq!(m.row(1), (&[1u32, 2][..], &[2.0_f32, 3.0][..]));
        assert_eq!(m.row_nnz(0), 1);
        assert!((m.density() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn from_dense_validates() {
        assert!(SparseCsr::from_dense(0, 3, &[]).is_err());
        assert!(SparseCsr::from_dense(2, 2, &[0.0; 3]).is_err());
    }

    #[test]
    fn matvec_is_bitwise_identical_to_dense_tile() {
        for &(size, dm) in &[(16usize, 2usize), (64, 7), (33, 200), (64, 1)] {
            let tile = tile_of(size, dm);
            let csr = SparseCsr::from_tile(&tile).unwrap();
            let x = input(size);
            let mut dense = vec![0.0_f32; size];
            let mut sparse = vec![0.0_f32; size];
            tile.mvm(&x, &mut dense);
            csr.matvec(&x, &mut sparse);
            for i in 0..size {
                assert_eq!(
                    dense[i].to_bits(),
                    sparse[i].to_bits(),
                    "size {size} mod {dm} row {i}"
                );
            }
        }
    }

    #[test]
    fn transposed_paths_are_bitwise_identical_to_dense_tile() {
        for &(size, dm) in &[(16usize, 2usize), (64, 7), (33, 200)] {
            let tile = tile_of(size, dm);
            let csr = SparseCsr::from_tile(&tile).unwrap();
            let csr_t = csr.transposed();
            let x = input(size);
            let mut dense = vec![0.0_f32; size];
            let mut scatter = vec![0.0_f32; size];
            let mut rowdot = vec![0.0_f32; size];
            tile.mvm_transposed(&x, &mut dense);
            csr.matvec_transposed(&x, &mut scatter);
            csr_t.matvec(&x, &mut rowdot);
            for i in 0..size {
                assert_eq!(dense[i].to_bits(), scatter[i].to_bits(), "scatter row {i}");
                assert_eq!(dense[i].to_bits(), rowdot[i].to_bits(), "rowdot row {i}");
            }
        }
    }

    #[test]
    fn row_dot_matches_matvec_elementwise() {
        let tile = tile_of(32, 3);
        let csr = SparseCsr::from_tile(&tile).unwrap();
        let x = input(32);
        let mut y = vec![0.0_f32; 32];
        csr.matvec(&x, &mut y);
        for (r, yr) in y.iter().enumerate() {
            assert_eq!(csr.row_dot(r, &x).to_bits(), yr.to_bits());
        }
    }

    #[test]
    fn transpose_round_trips() {
        let m = SparseCsr::from_dense(
            3,
            4,
            &[1.0, 0.0, 2.0, 0.0, 0.0, 3.0, 0.0, 4.0, 5.0, 0.0, 0.0, 6.0],
        )
        .unwrap();
        let tt = m.transposed().transposed();
        assert_eq!(m, tt);
        let t = m.transposed();
        assert_eq!(t.rows(), 4);
        assert_eq!(t.cols(), 3);
        assert_eq!(t.row(3), (&[1u32, 2][..], &[4.0_f32, 6.0][..]));
    }

    mod prop {
        use super::*;
        use proptest::prelude::*;

        fn arb_tile(max: usize) -> impl Strategy<Value = (Tile, Vec<f32>)> {
            (2usize..max).prop_flat_map(|size| {
                (
                    proptest::collection::vec(
                        prop_oneof![
                            Just(0.0_f32),
                            Just(0.0_f32),
                            Just(0.0_f32),
                            (-4i32..4).prop_map(|v| v as f32 / 2.0),
                        ],
                        size * size,
                    ),
                    proptest::collection::vec(
                        prop_oneof![
                            Just(0.0_f32),
                            Just(0.0_f32),
                            Just(1.0_f32),
                            (-3i32..3).prop_map(|v| v as f32 / 4.0),
                        ],
                        size,
                    ),
                )
                    .prop_map(move |(data, x)| (Tile::from_vec(size, data).unwrap(), x))
            })
        }

        proptest! {
            #[test]
            fn sparse_forward_bitwise_equals_dense((tile, x) in arb_tile(24)) {
                let csr = SparseCsr::from_tile(&tile).unwrap();
                let mut dense = vec![0.0_f32; tile.size()];
                let mut sparse = vec![0.0_f32; tile.size()];
                tile.mvm(&x, &mut dense);
                csr.matvec(&x, &mut sparse);
                for i in 0..tile.size() {
                    prop_assert_eq!(dense[i].to_bits(), sparse[i].to_bits());
                }
            }

            #[test]
            fn sparse_transposed_bitwise_equals_dense((tile, x) in arb_tile(24)) {
                let csr = SparseCsr::from_tile(&tile).unwrap();
                let csr_t = csr.transposed();
                let mut dense = vec![0.0_f32; tile.size()];
                let mut scatter = vec![0.0_f32; tile.size()];
                let mut rowdot = vec![0.0_f32; tile.size()];
                tile.mvm_transposed(&x, &mut dense);
                csr.matvec_transposed(&x, &mut scatter);
                csr_t.matvec(&x, &mut rowdot);
                for i in 0..tile.size() {
                    prop_assert_eq!(dense[i].to_bits(), scatter[i].to_bits());
                    prop_assert_eq!(dense[i].to_bits(), rowdot[i].to_bits());
                }
            }
        }
    }
}
