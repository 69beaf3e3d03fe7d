//! Property-based tests for the linear-algebra substrate.

use proptest::prelude::*;
use sophie_linalg::eigen::{jacobi_eigen, symmetric_eigen};
use sophie_linalg::tile::TileIndex;
use sophie_linalg::{Matrix, Tile, TileGrid, TiledMatrix};

/// Strategy: a symmetric n×n matrix with entries in [-5, 5].
fn symmetric_matrix(max_n: usize) -> impl Strategy<Value = Matrix> {
    symmetric_matrix_in(1, max_n)
}

/// Strategy: a symmetric n×n matrix, `min_n ≤ n ≤ max_n`, entries in [-5, 5].
fn symmetric_matrix_in(min_n: usize, max_n: usize) -> impl Strategy<Value = Matrix> {
    (min_n..=max_n).prop_flat_map(|n| {
        proptest::collection::vec(-5.0_f64..5.0, n * n).prop_map(move |v| {
            let raw = Matrix::from_vec(n, n, v).unwrap();
            Matrix::from_fn(n, n, |r, c| 0.5 * (raw[(r, c)] + raw[(c, r)]))
        })
    })
}

fn any_matrix(max_n: usize) -> impl Strategy<Value = (Matrix, Vec<f64>)> {
    (1..=max_n, 1..=max_n).prop_flat_map(|(r, c)| {
        (
            proptest::collection::vec(-5.0_f64..5.0, r * c)
                .prop_map(move |v| Matrix::from_vec(r, c, v).unwrap()),
            proptest::collection::vec(-5.0_f64..5.0, c),
        )
    })
}

/// Sizes for the eigensolver properties: every case is larger than a
/// divide-and-conquer leaf (32 rows), so each one crosses a merge.
const EIGEN_N: (usize, usize) = (33, 80);

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn eigen_reconstruction_roundtrips(a in symmetric_matrix_in(EIGEN_N.0, EIGEN_N.1)) {
        let e = symmetric_eigen(&a).unwrap();
        prop_assert!(e.reconstruct().max_abs_diff(&a) < 1e-7);
    }

    #[test]
    fn eigenvalues_match_between_independent_solvers(
        a in symmetric_matrix_in(EIGEN_N.0, EIGEN_N.1),
    ) {
        let eig = symmetric_eigen(&a).unwrap();
        let jac = jacobi_eigen(&a).unwrap();
        for (x, y) in eig.values.iter().zip(&jac.values) {
            prop_assert!((x - y).abs() < 1e-6, "{x} vs {y}");
        }
    }

    #[test]
    fn eigenvectors_are_orthonormal(a in symmetric_matrix_in(EIGEN_N.0, EIGEN_N.1)) {
        let e = symmetric_eigen(&a).unwrap();
        let n = a.rows();
        let vtv = e.vectors.transposed().matmul(&e.vectors).unwrap();
        prop_assert!(vtv.max_abs_diff(&Matrix::identity(n)) < 1e-8);
    }

    #[test]
    fn eigenvalue_sum_equals_trace(a in symmetric_matrix_in(EIGEN_N.0, EIGEN_N.1)) {
        let e = symmetric_eigen(&a).unwrap();
        let trace: f64 = (0..a.rows()).map(|i| a[(i, i)]).sum();
        let sum: f64 = e.values.iter().sum();
        prop_assert!((trace - sum).abs() < 1e-7);
    }

    #[test]
    fn matvec_is_linear((a, x) in any_matrix(12), alpha in -3.0_f64..3.0) {
        let scaled: Vec<f64> = x.iter().map(|v| alpha * v).collect();
        let lhs = a.matvec(&scaled);
        let rhs: Vec<f64> = a.matvec(&x).iter().map(|v| alpha * v).collect();
        for (p, q) in lhs.iter().zip(&rhs) {
            prop_assert!((p - q).abs() < 1e-9);
        }
    }

    #[test]
    fn transpose_matvec_consistency((a, x) in any_matrix(10)) {
        // (Aᵀ)ᵀ x == A x
        let via_double_transpose = a.transposed().transposed().matvec(&x);
        let direct = a.matvec(&x);
        for (p, q) in via_double_transpose.iter().zip(&direct) {
            prop_assert!((p - q).abs() < 1e-12);
        }
    }

    #[test]
    fn gram_is_symmetric_psd_diagonal((a, _x) in any_matrix(9)) {
        let g = a.gram();
        prop_assert!(g.is_symmetric(1e-9));
        for i in 0..g.rows() {
            prop_assert!(g[(i, i)] >= -1e-12); // diagonal of B·Bᵀ is ‖row‖² ≥ 0
        }
    }

    #[test]
    fn tiled_matvec_matches_dense(a in symmetric_matrix(24), tile in 1_usize..9) {
        let tm = TiledMatrix::new(&a, tile).unwrap();
        let x: Vec<f64> = (0..a.rows()).map(|i| ((i % 5) as f64) - 2.0).collect();
        let dense = a.matvec(&x);
        let tiled = tm.matvec(&x);
        for (p, q) in dense.iter().zip(&tiled) {
            // f32 tiles: tolerance scales with n and magnitudes.
            prop_assert!((p - q).abs() < 1e-3, "{p} vs {q}");
        }
    }

    #[test]
    fn symmetric_pairs_partition_logical_tiles(n in 1_usize..200, tile in 1_usize..65) {
        let g = TileGrid::new(n, tile).unwrap();
        let total: usize = g.symmetric_pairs().iter().map(|p| p.logical_tiles()).sum();
        prop_assert_eq!(total, g.logical_tiles());
        let b = g.blocks();
        prop_assert_eq!(g.symmetric_pairs().len(), b * (b + 1) / 2);
    }

    #[test]
    fn mvm_transposed_equals_transpose_then_mvm(
        (a, xf) in any_matrix(24),
        tile in 1_usize..9,
        sparsify in proptest::bool::ANY,
    ) {
        // The bidirectional OPCM read (`Tᵀ·x` on the stored array) must
        // agree with physically transposing the matrix first, for every
        // tile including zero-padded fringe tiles, and regardless of the
        // sparse-input skip in the kernel.
        let n = a.rows().min(a.cols());
        let square = Matrix::from_fn(n, n, |r, c| a[(r, c)]);
        let grid = TileGrid::new(n, tile).unwrap();
        let t = grid.tile();
        let mut x: Vec<f32> = xf.iter().take(t).map(|&v| v as f32).collect();
        x.resize(t, 0.5);
        if sparsify {
            for (i, v) in x.iter_mut().enumerate() {
                if i % 2 == 0 {
                    *v = 0.0;
                }
            }
        }
        let transposed = square.transposed();
        for br in 0..grid.blocks() {
            for bc in 0..grid.blocks() {
                let fwd = Tile::from_matrix(&square, &grid, TileIndex { row: br, col: bc });
                let flipped = Tile::from_matrix(&transposed, &grid, TileIndex { row: bc, col: br });
                let mut via_bidirectional = vec![0.0_f32; t];
                let mut via_transpose = vec![0.0_f32; t];
                fwd.mvm_transposed(&x, &mut via_bidirectional);
                flipped.mvm(&x, &mut via_transpose);
                for (p, q) in via_bidirectional.iter().zip(&via_transpose) {
                    prop_assert!((p - q).abs() < 1e-3, "tile ({br},{bc}): {p} vs {q}");
                }
            }
        }
    }

    #[test]
    fn spectral_fn_square_is_psd(a in symmetric_matrix(8)) {
        let e = symmetric_eigen(&a).unwrap();
        let sq = e.apply_fn(|x| x * x);
        // A² is PSD: xᵀA²x = ‖Ax‖² ≥ 0 for a few probe vectors.
        for probe in 0..4_usize {
            let x: Vec<f64> = (0..a.rows()).map(|i| ((i + probe) % 3) as f64 - 1.0).collect();
            let ax = sq.matvec(&x);
            let quad: f64 = x.iter().zip(&ax).map(|(p, q)| p * q).sum();
            prop_assert!(quad >= -1e-6);
        }
    }
}
