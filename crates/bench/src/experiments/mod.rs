//! One module per table/figure of the paper's evaluation section.

pub mod ablations;
pub mod fig10;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod power;
pub mod robustness;
pub mod sparse;
pub mod summary;
pub mod table1;
pub mod table2;
pub mod table3;

use std::sync::Arc;

use sophie_graph::Graph;
use sophie_solve::{run_seeds, BatchReport, Solver};

// The experiments' statistics helpers are the shared ones from
// `sophie_solve::stats`, re-exported so every module keeps one import
// path.
pub(crate) use sophie_solve::stats::mean;

/// Sample standard deviation of `values` (0 for fewer than two): the seed
/// spread the quality tables report next to their means.
pub(crate) fn spread(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let m = mean(values.iter().copied());
    let ss: f64 = values.iter().map(|v| (v - m) * (v - m)).sum();
    (ss / (values.len() - 1) as f64).sqrt()
}

/// Runs `runs` independent seeds of `solver` on `graph` through the batch
/// scheduler and returns the aggregate [`BatchReport`] (per-run
/// [`sophie_solve::SolveReport`]s in seed order plus mean/best/convergence
/// statistics).
///
/// Each run streams its solve events into a recorder on a worker thread;
/// experiments consume the distilled reports (`best_cut`,
/// `iterations_to_target`, `ops`, traces) instead of reaching into
/// solver-specific outcome types, so the same analysis code works for any
/// [`Solver`] registered in the workspace.
pub(crate) fn batch_reports(
    solver: Arc<dyn Solver>,
    graph: &Arc<Graph>,
    runs: usize,
    target: Option<f64>,
) -> BatchReport {
    run_seeds(&solver, graph, runs, target).expect("benchmark solvers run infallibly once built")
}

#[cfg(test)]
mod tests {
    use super::*;
    use sophie_core::{SophieConfig, SophieSolver};
    use sophie_graph::generate::{complete, WeightDist};

    #[test]
    fn batch_reports_are_seed_ordered_and_deterministic() {
        let g = Arc::new(complete(24, WeightDist::Unit, 0).unwrap());
        let cfg = SophieConfig {
            tile_size: 8,
            global_iters: 20,
            ..SophieConfig::default()
        };
        let solver: Arc<dyn Solver> = Arc::new(SophieSolver::from_graph(&g, cfg).unwrap());
        let a = batch_reports(Arc::clone(&solver), &g, 4, None);
        let b = batch_reports(solver, &g, 4, None);
        for (x, y) in a.reports.iter().zip(&b.reports) {
            assert_eq!(x, y);
        }
        for (seed, r) in a.reports.iter().enumerate() {
            assert_eq!(r.seed, seed as u64);
            assert_eq!(r.solver, "sophie");
            assert_eq!(r.cut_trace.len(), 21); // initial state + 20 rounds
        }
        assert_eq!(a.mean_cut, mean(a.reports.iter().map(|r| r.best_cut)));
    }

    #[test]
    fn mean_handles_empty_and_values() {
        assert_eq!(mean([]), 0.0);
        assert_eq!(mean([2.0, 4.0]), 3.0);
    }

    #[test]
    fn spread_is_the_sample_standard_deviation() {
        assert_eq!(spread(&[]), 0.0);
        assert_eq!(spread(&[5.0]), 0.0);
        assert_eq!(spread(&[2.0, 4.0]), 2.0_f64.sqrt());
    }
}
