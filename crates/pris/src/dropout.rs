//! Eigenvalue dropout preprocessing (paper §II-C, Eq. 2–4).
//!
//! The PRIS algorithm replaces the coupling matrix `K` by
//! `C = U · Sq_α(D) · Uᵀ` where `K = U D Uᵀ` and
//! `Sq_α(D) = 2·Re(√(D + αΔ))`. Taking the real part of the square root
//! zeroes every negative shifted eigenvalue — "dropping" them — while `α`
//! controls how much of the spectrum survives: `α = 0` keeps only the
//! non-negative eigenvalues; `α = 1` shifts by the Gershgorin radius so the
//! whole spectrum becomes non-negative.
//!
//! The paper defines `Δ_ii = Σ_{j≠i} |K_ij|` (a node-indexed quantity) but
//! applies it inside the eigenbasis, leaving the pairing between eigenvalue
//! index and node index unspecified. Two faithful readings are provided:
//!
//! * [`DeltaVariant::Gershgorin`] (default) — the uniform bound
//!   `Δ = (max_i Δ_ii)·I`, which guarantees `D + αΔ ⪰ 0` at `α = 1` by the
//!   Gershgorin circle theorem and keeps the knob's documented behaviour;
//! * [`DeltaVariant::SortedPerNode`] — pairs the ascending eigenvalues with
//!   the ascending per-node sums, preserving the per-node scale.

use sophie_linalg::eigen::{symmetric_eigen, SymmetricEigen};
use sophie_linalg::Matrix;

use crate::error::{PrisError, Result};

/// How the dropout shift `Δ` is paired with the eigenvalues.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DeltaVariant {
    /// Uniform Gershgorin shift `max_i Σ_{j≠i}|K_ij|` (default).
    #[default]
    Gershgorin,
    /// Ascending per-node sums paired with ascending eigenvalues.
    SortedPerNode,
}

/// Caches the eigendecomposition of `K` so the transformation matrix can be
/// rebuilt cheaply while sweeping `α` (Fig. 6 runs a whole grid of `α`
/// values per graph).
#[derive(Debug, Clone)]
pub struct Preprocessor {
    eigen: SymmetricEigen,
    delta: Vec<f64>,
    variant: DeltaVariant,
}

impl Preprocessor {
    /// Decomposes the coupling matrix once.
    ///
    /// `delta` is the node-indexed `Δ_ii = Σ_{j≠i}|K_ij|` vector, available
    /// from [`sophie_graph::coupling::delta_diagonal`] without touching `K`.
    ///
    /// # Errors
    ///
    /// * [`PrisError::BadDelta`] if `delta.len() != k.rows()`.
    /// * [`PrisError::Linalg`] if `k` is not square/symmetric or the
    ///   eigensolver fails.
    pub fn new(k: &Matrix, delta: Vec<f64>, variant: DeltaVariant) -> Result<Self> {
        Self::from_eigen(symmetric_eigen(k)?, delta, variant)
    }

    /// Wraps an eigendecomposition of `K` computed elsewhere.
    ///
    /// # Errors
    ///
    /// [`PrisError::BadDelta`] if `delta.len() != eigen.dim()`.
    pub fn from_eigen(
        eigen: SymmetricEigen,
        delta: Vec<f64>,
        variant: DeltaVariant,
    ) -> Result<Self> {
        if delta.len() != eigen.dim() {
            return Err(PrisError::BadDelta {
                expected: eigen.dim(),
                found: delta.len(),
            });
        }
        Ok(Preprocessor {
            eigen,
            delta,
            variant,
        })
    }

    /// Dimension of the problem.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.eigen.dim()
    }

    /// Borrow the cached eigendecomposition.
    #[must_use]
    pub fn eigen(&self) -> &SymmetricEigen {
        &self.eigen
    }

    /// Shift applied to eigenvalue index `i` before the square root.
    fn shift(&self, i: usize, sorted_delta: &[f64]) -> f64 {
        match self.variant {
            DeltaVariant::Gershgorin => sorted_delta[sorted_delta.len() - 1],
            DeltaVariant::SortedPerNode => sorted_delta[i],
        }
    }

    /// Builds the transformation matrix `C = U · Sq_α(D) · Uᵀ`.
    ///
    /// # Errors
    ///
    /// Returns [`PrisError::BadAlpha`] unless `0 ≤ α ≤ 1`.
    pub fn transform(&self, alpha: f64) -> Result<Matrix> {
        if !(0.0..=1.0).contains(&alpha) || alpha.is_nan() {
            return Err(PrisError::BadAlpha { alpha });
        }
        let mut sorted_delta = self.delta.clone();
        sorted_delta.sort_by(f64::total_cmp);
        let n = self.dim();
        let f: Vec<f64> = (0..n)
            .map(|i| {
                let shifted = self.eigen.values[i] + alpha * self.shift(i, &sorted_delta);
                // 2·Re(√x): zero for negative x, 2√x otherwise.
                if shifted > 0.0 {
                    2.0 * shifted.sqrt()
                } else {
                    0.0
                }
            })
            .collect();
        Ok(self.eigen.apply_values(&f))
    }
}

/// One-shot convenience wrapper around [`Preprocessor`] for a single `α`.
///
/// # Errors
///
/// Same as [`Preprocessor::new`] and [`Preprocessor::transform`].
///
/// ```
/// use sophie_linalg::Matrix;
/// use sophie_pris::dropout::{transformation_matrix, DeltaVariant};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let k = Matrix::from_rows(&[&[0.0, -1.0], &[-1.0, 0.0]])?;
/// let delta = vec![1.0, 1.0];
/// let c = transformation_matrix(&k, delta, 0.0, DeltaVariant::Gershgorin)?;
/// assert!(c.is_symmetric(1e-10));
/// # Ok(())
/// # }
/// ```
pub fn transformation_matrix(
    k: &Matrix,
    delta: Vec<f64>,
    alpha: f64,
    variant: DeltaVariant,
) -> Result<Matrix> {
    Preprocessor::new(k, delta, variant)?.transform(alpha)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sophie_graph::coupling::{coupling_matrix, delta_diagonal};
    use sophie_graph::generate::{complete, WeightDist};

    fn setup(n: usize, seed: u64) -> (Matrix, Vec<f64>) {
        let g = complete(n, WeightDist::PlusMinusOne, seed).unwrap();
        (coupling_matrix(&g), delta_diagonal(&g))
    }

    #[test]
    fn transform_is_symmetric_psd() {
        let (k, d) = setup(12, 3);
        let c = transformation_matrix(&k, d, 0.0, DeltaVariant::Gershgorin).unwrap();
        assert!(c.is_symmetric(1e-9));
        let eig = sophie_linalg::eigen::symmetric_eigen(&c).unwrap();
        assert!(
            eig.values[0] > -1e-9,
            "C must be PSD, min λ = {}",
            eig.values[0]
        );
    }

    #[test]
    fn alpha_zero_drops_negative_eigenvalues() {
        let (k, d) = setup(10, 7);
        let pre = Preprocessor::new(&k, d, DeltaVariant::Gershgorin).unwrap();
        let c = pre.transform(0.0).unwrap();
        let c_eig = sophie_linalg::eigen::symmetric_eigen(&c).unwrap();
        let kept_in_c = c_eig.values.iter().filter(|&&v| v > 1e-9).count();
        let positive_in_k = pre.eigen().values.iter().filter(|&&v| v > 1e-9).count();
        assert_eq!(kept_in_c, positive_in_k);
    }

    #[test]
    fn alpha_one_keeps_full_rank_under_gershgorin() {
        let (k, d) = setup(10, 5);
        let pre = Preprocessor::new(&k, d, DeltaVariant::Gershgorin).unwrap();
        let c = pre.transform(1.0).unwrap();
        let c_eig = sophie_linalg::eigen::symmetric_eigen(&c).unwrap();
        // λ_i + max Δ > 0 strictly for generic random instances.
        let kept = c_eig.values.iter().filter(|&&v| v > 1e-9).count();
        assert_eq!(kept, 10);
    }

    #[test]
    fn eigenvalues_of_c_match_formula() {
        let (k, d) = setup(8, 11);
        let pre = Preprocessor::new(&k, d.clone(), DeltaVariant::Gershgorin).unwrap();
        let c = pre.transform(0.3).unwrap();
        let shift = d.iter().fold(0.0_f64, |m, &x| m.max(x));
        let mut expect: Vec<f64> = pre
            .eigen()
            .values
            .iter()
            .map(|&l| {
                let s = l + 0.3 * shift;
                if s > 0.0 {
                    2.0 * s.sqrt()
                } else {
                    0.0
                }
            })
            .collect();
        expect.sort_by(f64::total_cmp);
        let got = sophie_linalg::eigen::symmetric_eigen(&c).unwrap().values;
        for (a, b) in got.iter().zip(&expect) {
            assert!((a - b).abs() < 1e-7, "{a} vs {b}");
        }
    }

    #[test]
    fn rejects_out_of_range_alpha() {
        let (k, d) = setup(6, 1);
        let pre = Preprocessor::new(&k, d, DeltaVariant::Gershgorin).unwrap();
        assert!(pre.transform(-0.1).is_err());
        assert!(pre.transform(1.1).is_err());
        assert!(pre.transform(f64::NAN).is_err());
    }

    #[test]
    fn rejects_wrong_delta_length() {
        let (k, _) = setup(6, 1);
        assert!(matches!(
            Preprocessor::new(&k, vec![1.0; 5], DeltaVariant::Gershgorin),
            Err(PrisError::BadDelta {
                expected: 6,
                found: 5
            })
        ));
    }

    #[test]
    fn sorted_variant_also_yields_psd() {
        let (k, d) = setup(9, 13);
        let c = transformation_matrix(&k, d, 0.5, DeltaVariant::SortedPerNode).unwrap();
        let eig = sophie_linalg::eigen::symmetric_eigen(&c).unwrap();
        assert!(eig.values[0] > -1e-9);
    }

    #[test]
    fn sweep_reuses_decomposition() {
        let (k, d) = setup(8, 2);
        let pre = Preprocessor::new(&k, d.clone(), DeltaVariant::Gershgorin).unwrap();
        for &alpha in &[0.0, 0.25, 0.5, 1.0] {
            let via_cache = pre.transform(alpha).unwrap();
            let direct =
                transformation_matrix(&k, d.clone(), alpha, DeltaVariant::Gershgorin).unwrap();
            assert!(via_cache.max_abs_diff(&direct) < 1e-10);
        }
    }
}
