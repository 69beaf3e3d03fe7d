//! Results of a SOPHIE run.

use sophie_solve::OpCounts;

/// Outcome of one job executed by the tiled engine.
#[derive(Debug, Clone, PartialEq)]
pub struct SophieOutcome {
    /// Best cut value observed at any global synchronization point.
    pub best_cut: f64,
    /// Binary configuration attaining the best cut (unpadded, graph order).
    pub best_bits: Vec<bool>,
    /// Global iterations executed.
    pub global_iters_run: usize,
    /// First global iteration whose synchronized state reached the target
    /// cut, if a target was set and reached. Iteration `0` is the initial
    /// random state.
    pub global_iters_to_target: Option<usize>,
    /// Cut value after every global synchronization; `cut_trace[0]` is the
    /// initial random state, `cut_trace[g]` the state after global
    /// iteration `g`.
    pub cut_trace: Vec<f64>,
    /// Spins that changed at each global synchronization (Hamming distance
    /// between consecutive synchronized states) — the annealing "activity":
    /// high early, decaying as the system settles.
    pub activity_trace: Vec<usize>,
    /// Operation counts for the whole job (input to the PPA models).
    pub ops: OpCounts,
}

impl SophieOutcome {
    /// Total local iterations until the target was first met
    /// (`global_iters_to_target × local_iters`), the unit of Fig. 8.
    #[must_use]
    pub fn local_iters_to_target(&self, local_iters: usize) -> Option<usize> {
        self.global_iters_to_target.map(|g| g * local_iters)
    }

    /// Ratio of the best cut to a positive reference (best-known) cut.
    ///
    /// Quality ratios are only meaningful against a positive reference: a
    /// zero or negative `best_known` (or NaN) yields [`f64::NAN`] rather
    /// than a sign-flipped or infinite ratio, matching
    /// [`sophie_solve::SolveReport::quality_vs`].
    #[must_use]
    pub fn quality_vs(&self, best_known: f64) -> f64 {
        if best_known > 0.0 {
            self.best_cut / best_known
        } else {
            f64::NAN
        }
    }

    /// Signed gap `best_cut - reference`, defined for any finite
    /// reference including zero and negative values.
    ///
    /// Problem-domain targets are often feasibility thresholds at or
    /// below zero (a 0-conflict coloring, a 0-BER decode lowered through
    /// `sophie-problems`); [`Self::quality_vs`] deliberately returns NaN
    /// there, so those consumers use this variant and test the sign,
    /// matching [`sophie_solve::SolveReport::gap_vs`].
    #[must_use]
    pub fn gap_vs(&self, reference: f64) -> f64 {
        self.best_cut - reference
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SophieOutcome {
        SophieOutcome {
            best_cut: 95.0,
            best_bits: vec![true, false],
            global_iters_run: 10,
            global_iters_to_target: Some(4),
            cut_trace: vec![50.0, 80.0, 95.0],
            activity_trace: vec![40, 12],
            ops: OpCounts::default(),
        }
    }

    #[test]
    fn local_iterations_scale_with_l() {
        let o = sample();
        assert_eq!(o.local_iters_to_target(10), Some(40));
    }

    #[test]
    fn no_target_no_local_iterations() {
        let mut o = sample();
        o.global_iters_to_target = None;
        assert_eq!(o.local_iters_to_target(10), None);
    }

    #[test]
    fn quality_ratio() {
        let o = sample();
        assert!((o.quality_vs(100.0) - 0.95).abs() < 1e-12);
    }

    #[test]
    fn quality_ratio_undefined_for_nonpositive_reference() {
        let o = sample();
        assert!(o.quality_vs(0.0).is_nan());
        assert!(o.quality_vs(-25.0).is_nan());
        assert!(o.quality_vs(f64::NAN).is_nan());
    }

    #[test]
    fn signed_gap_handles_feasibility_style_references() {
        let o = sample();
        assert!((o.gap_vs(0.0) - 95.0).abs() < 1e-12);
        assert!((o.gap_vs(-25.0) - 120.0).abs() < 1e-12);
        assert!((o.gap_vs(100.0) + 5.0).abs() < 1e-12);
    }
}
