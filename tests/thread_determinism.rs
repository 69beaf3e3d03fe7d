//! Thread-count-independence regression tests.
//!
//! The engine runs the selected tile pairs of every round concurrently on
//! the persistent worker pool, with noise drawn from counter-derived
//! per-(round, pair) RNG streams (see the `sophie_core::engine` module
//! docs). These tests pin the resulting contract: a job's entire
//! [`sophie::core::SophieOutcome`] — cut trace, best bits, activity, and
//! the exact op counts consumed by the PPA models — is bit-identical no
//! matter what `SOPHIE_THREADS` is set to, on both the exact backend and
//! the OPCM device model.

use std::sync::{Arc, Mutex};

use sophie::core::{SophieConfig, SophieOutcome, SophieSolver};
use sophie::graph::coupling::{coupling_matrix, delta_diagonal};
use sophie::graph::generate::{gnm, WeightDist};
use sophie::graph::Graph;
use sophie::hw::{OpcmBackend, OpcmBackendConfig};
use sophie::pris::{DeltaVariant, Preprocessor};
use sophie::solve::{run_seeds, Solver};

/// `SOPHIE_THREADS` is process-global; serialize the tests that set it.
static ENV_LOCK: Mutex<()> = Mutex::new(());

fn with_threads<T>(threads: &str, f: impl FnOnce() -> T) -> T {
    std::env::set_var("SOPHIE_THREADS", threads);
    let out = f();
    std::env::remove_var("SOPHIE_THREADS");
    out
}

fn assert_identical(serial: &SophieOutcome, parallel: &SophieOutcome, label: &str) {
    assert_eq!(serial.best_cut, parallel.best_cut, "{label}: best_cut");
    assert_eq!(serial.best_bits, parallel.best_bits, "{label}: best_bits");
    assert_eq!(serial.cut_trace, parallel.cut_trace, "{label}: cut_trace");
    assert_eq!(
        serial.activity_trace, parallel.activity_trace,
        "{label}: activity_trace"
    );
    assert_eq!(
        serial.global_iters_to_target, parallel.global_iters_to_target,
        "{label}: iters_to_target"
    );
    assert_eq!(serial.ops, parallel.ops, "{label}: op counts");
}

fn test_instance() -> (Graph, SophieSolver) {
    let g = gnm(96, 500, WeightDist::UniformInt { lo: -3, hi: 3 }, 11).unwrap();
    let cfg = SophieConfig {
        tile_size: 16,
        local_iters: 4,
        global_iters: 40,
        tile_fraction: 0.6,
        phi: 0.25,
        alpha: 0.1,
        ..SophieConfig::default()
    };
    let solver = SophieSolver::from_graph(&g, cfg).unwrap();
    (g, solver)
}

#[test]
fn ideal_backend_outcome_is_identical_across_thread_counts() {
    let _guard = ENV_LOCK.lock().unwrap();
    let (g, solver) = test_instance();
    for seed in [0u64, 42, 1234] {
        let serial = with_threads("1", || solver.run(&g, seed, None).unwrap());
        let four = with_threads("4", || solver.run(&g, seed, None).unwrap());
        let eight = with_threads("8", || solver.run(&g, seed, None).unwrap());
        assert_identical(&serial, &four, &format!("ideal seed {seed}, 4 threads"));
        assert_identical(&serial, &eight, &format!("ideal seed {seed}, 8 threads"));
    }
}

#[test]
fn ideal_backend_majority_vote_mode_is_identical_across_thread_counts() {
    let _guard = ENV_LOCK.lock().unwrap();
    let g = gnm(64, 300, WeightDist::Unit, 5).unwrap();
    let cfg = SophieConfig {
        tile_size: 16,
        local_iters: 3,
        global_iters: 30,
        tile_fraction: 0.8,
        phi: 0.2,
        stochastic_spin_update: false,
        ..SophieConfig::default()
    };
    let solver = SophieSolver::from_graph(&g, cfg).unwrap();
    let serial = with_threads("1", || solver.run(&g, 9, None).unwrap());
    let four = with_threads("4", || solver.run(&g, 9, None).unwrap());
    assert_identical(&serial, &four, "ideal majority-vote");
}

#[test]
fn opcm_backend_outcome_is_identical_across_thread_counts() {
    let _guard = ENV_LOCK.lock().unwrap();
    let (g, solver) = test_instance();
    // A fresh backend per run: unit ids come from a shared counter, and the
    // engine programs units serially precisely so the id ↔ pair mapping
    // stays deterministic.
    let run = || {
        let backend = OpcmBackend::new(OpcmBackendConfig {
            seed: 7,
            ..OpcmBackendConfig::default()
        });
        solver.run_with_backend(&backend, &g, 42, None).unwrap()
    };
    let serial = with_threads("1", run);
    let four = with_threads("4", run);
    let eight = with_threads("8", run);
    assert_identical(&serial, &four, "opcm, 4 threads");
    assert_identical(&serial, &eight, "opcm, 8 threads");
}

#[test]
fn scheduler_batches_over_the_trait_object_are_identical_across_thread_counts() {
    let _guard = ENV_LOCK.lock().unwrap();
    let (g, solver) = test_instance();
    let graph = Arc::new(g);
    let solver: Arc<dyn Solver> = Arc::new(solver);
    let run = || run_seeds(&solver, &graph, 3, None).unwrap();
    let serial = with_threads("1", run);
    let four = with_threads("4", run);
    let eight = with_threads("8", run);
    assert_eq!(serial.reports, four.reports, "1 vs 4 threads");
    assert_eq!(serial.reports, eight.reports, "1 vs 8 threads");
    assert_eq!(serial.ops, four.ops, "aggregate op counts");
}

#[test]
fn transformed_matrix_is_identical_across_thread_counts() {
    // Large enough that the Householder update, the divide-and-conquer
    // merges and the transform's Gram product all split across workers.
    let _guard = ENV_LOCK.lock().unwrap();
    let g = gnm(300, 1500, WeightDist::Unit, 9).unwrap();
    let k = coupling_matrix(&g);
    let build = || {
        let pre = Preprocessor::new(&k, delta_diagonal(&g), DeltaVariant::Gershgorin).unwrap();
        let bits = |m: &sophie::linalg::Matrix| -> Vec<u64> {
            m.as_slice().iter().map(|x| x.to_bits()).collect()
        };
        (
            bits(&pre.eigen().vectors),
            bits(&pre.transform(0.0).unwrap()),
            bits(&pre.transform(0.7).unwrap()),
        )
    };
    let serial = with_threads("1", build);
    let four = with_threads("4", build);
    assert!(
        serial.0 == four.0,
        "eigenvectors differ across thread counts"
    );
    assert!(
        serial.1 == four.1,
        "C at alpha = 0 differs across thread counts"
    );
    assert!(
        serial.2 == four.2,
        "C at alpha = 0.7 differs across thread counts"
    );
}
