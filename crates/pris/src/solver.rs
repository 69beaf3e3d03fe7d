//! [`Solver`] trait impl for the PRIS reference sampler.

use std::sync::{Arc, Mutex, Weak};

use sophie_graph::Graph;
use sophie_solve::{
    Capabilities, SolveError, SolveJob, SolveObserver, SolveReport, Solver, Tee, TraceRecorder,
};

use crate::runner::{run_controlled, RunConfig};
use crate::sampler::PrisModel;

/// Typed config for registry-constructed PRIS solvers: the preprocessing
/// strength plus the per-run sampler parameters (seed and target come from
/// each [`SolveJob`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PrisJobConfig {
    /// Eigenvalue-dropout factor α.
    pub alpha: f64,
    /// Recurrent iterations per job.
    pub iterations: usize,
    /// Noise level φ.
    pub phi: f64,
}

impl Default for PrisJobConfig {
    fn default() -> Self {
        let run = RunConfig::default();
        PrisJobConfig {
            alpha: 0.0,
            iterations: run.iterations,
            phi: run.phi,
        }
    }
}

/// Registry-constructible PRIS solver: wraps a [`PrisJobConfig`] and
/// builds the sampler model (an eigendecomposition of the transformed
/// coupling matrix) lazily per graph, caching the last one by `Arc`
/// identity exactly like the engine adapters.
#[derive(Debug)]
pub struct PrisSolver {
    config: PrisJobConfig,
    model: Mutex<Option<(Weak<Graph>, Arc<PrisModel>)>>,
}

impl PrisSolver {
    /// Wraps the config; no model is built yet.
    #[must_use]
    pub fn new(config: PrisJobConfig) -> Self {
        PrisSolver {
            config,
            model: Mutex::new(None),
        }
    }

    /// The wrapped configuration.
    #[must_use]
    pub fn config(&self) -> &PrisJobConfig {
        &self.config
    }

    fn model_for(&self, graph: &Arc<Graph>) -> Result<Arc<PrisModel>, SolveError> {
        let mut slot = self.model.lock().expect("model cache lock");
        if let Some((cached_graph, model)) = slot.as_ref() {
            if cached_graph
                .upgrade()
                .is_some_and(|g| Arc::ptr_eq(&g, graph))
            {
                return Ok(Arc::clone(model));
            }
        }
        let k = sophie_graph::coupling::coupling_matrix(graph);
        let delta = sophie_graph::coupling::delta_diagonal(graph);
        let c = crate::dropout::transformation_matrix(
            &k,
            delta,
            self.config.alpha,
            crate::dropout::DeltaVariant::Gershgorin,
        )
        .map_err(failed)?;
        let model = Arc::new(PrisModel::new(c).map_err(failed)?);
        *slot = Some((Arc::downgrade(graph), Arc::clone(&model)));
        Ok(model)
    }
}

fn failed(e: crate::error::PrisError) -> SolveError {
    SolveError::Failed {
        solver: "pris".to_string(),
        message: e.to_string(),
    }
}

impl Solver for PrisSolver {
    fn name(&self) -> &'static str {
        "pris"
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities::default()
    }

    fn solve(
        &self,
        job: &SolveJob,
        observer: &mut dyn SolveObserver,
    ) -> Result<SolveReport, SolveError> {
        let model = self.model_for(&job.graph)?;
        let run = RunConfig {
            iterations: job.budget.cap(self.config.iterations),
            phi: self.config.phi,
            seed: job.seed,
            target_cut: job.target,
        };
        let control = job.control();
        let mut recorder = TraceRecorder::new();
        let outcome = {
            let mut tee = Tee::new(&mut recorder, observer);
            run_controlled(&model, &job.graph, &run, &control, &mut tee).map_err(failed)?
        };
        let mut report = recorder.into_report();
        // Events carry no bits; attach the winning state out-of-band so
        // problem decoders can map the report back to their domain.
        report.best_bits = outcome.best_bits;
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sophie_graph::generate::{gnm, WeightDist};
    use sophie_solve::EventLog;

    #[test]
    fn trait_solve_matches_legacy_run_observed_exactly() {
        let g = Arc::new(gnm(30, 90, WeightDist::Unit, 5).unwrap());
        let config = PrisJobConfig {
            alpha: 0.0,
            iterations: 40,
            phi: 0.15,
        };

        let k = sophie_graph::coupling::coupling_matrix(&g);
        let delta = sophie_graph::coupling::delta_diagonal(&g);
        let c = crate::dropout::transformation_matrix(
            &k,
            delta,
            config.alpha,
            crate::dropout::DeltaVariant::Gershgorin,
        )
        .unwrap();
        let model = PrisModel::new(c).unwrap();
        let run = RunConfig {
            iterations: config.iterations,
            phi: config.phi,
            seed: 9,
            target_cut: Some(50.0),
        };
        let mut legacy = EventLog::new();
        let outcome = crate::runner::run_observed(&model, &g, &run, &mut legacy).unwrap();

        let solver = PrisSolver::new(config);
        let mut modern = EventLog::new();
        let job = SolveJob::new(Arc::clone(&g), 9).with_target(Some(50.0));
        let report = solver.solve(&job, &mut modern).unwrap();

        assert_eq!(legacy.events(), modern.events());
        assert_eq!(report.best_cut, outcome.best_cut);
        assert_eq!(report.iterations_run, outcome.iterations);
        assert_eq!(report.iterations_to_target, outcome.iterations_to_target);
        assert_eq!(report.solver, "pris");
    }

    #[test]
    fn model_is_cached_per_graph() {
        let g = Arc::new(gnm(20, 60, WeightDist::Unit, 1).unwrap());
        let solver = PrisSolver::new(PrisJobConfig {
            iterations: 5,
            ..PrisJobConfig::default()
        });
        let a = Arc::as_ptr(&solver.model_for(&g).unwrap());
        let b = Arc::as_ptr(&solver.model_for(&g).unwrap());
        assert_eq!(a, b);
    }
}
