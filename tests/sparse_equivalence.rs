//! Sparse/dense compute-path equivalence (property-based).
//!
//! The engine runs on the delta-driven
//! [`SparseBackend`](sophie::core::SparseBackend), which switches kernels
//! per MVM around a density-crossover threshold; the dense
//! [`IdealBackend`](sophie::core::backend::IdealBackend) is the reference.
//! The contract (see `sophie_core::sparse`) is that the backend is
//! invisible in every output: cut trajectories, best bits, op counts, and
//! the *entire typed event stream* must be byte-identical across
//! backends, crossover settings (including thresholds that force kernel
//! switches mid-run), and thread counts.
//!
//! These tests randomize the instance, the algorithm configuration, and
//! the activity profile (φ = 0 runs freeze quickly → sparse diffs; high φ
//! keeps activity high → dense fallbacks) and compare every variant
//! against the dense reference at `SOPHIE_THREADS` 1 and 4.

use std::sync::Mutex;

use proptest::prelude::*;
use sophie::core::backend::{IdealBackend, MvmBackend};
use sophie::core::{SophieConfig, SophieSolver, SparseBackend};
use sophie::graph::generate::{gnm, WeightDist};
use sophie::solve::EventLog;

/// `SOPHIE_THREADS` is process-global; serialize the tests that set it.
static ENV_LOCK: Mutex<()> = Mutex::new(());

fn with_threads<T>(threads: &str, f: impl FnOnce() -> T) -> T {
    std::env::set_var("SOPHIE_THREADS", threads);
    let out = f();
    std::env::remove_var("SOPHIE_THREADS");
    out
}

/// One run: outcome fields plus the full event stream rendered to a
/// string, so stream comparison is a byte comparison.
fn run_fingerprint<B: MvmBackend>(
    g: &sophie::graph::Graph,
    cfg: &SophieConfig,
    backend: &B,
    seed: u64,
) -> (f64, Vec<bool>, Vec<f64>, String) {
    let solver = SophieSolver::from_graph(g, cfg.clone()).expect("engine build");
    let mut log = EventLog::new();
    let out = solver
        .run_with_backend_observed(backend, g, seed, None, &mut log)
        .expect("run");
    (
        out.best_cut,
        out.best_bits,
        out.cut_trace,
        format!("{:?}", log.events()),
    )
}

fn config_strategy() -> impl Strategy<Value = SophieConfig> {
    (
        prop_oneof![Just(8usize), Just(16)],
        2usize..5,
        6usize..16,
        0.4f64..=1.0,
        prop_oneof![Just(0.0f64), Just(0.0), Just(0.2)],
        proptest::bool::ANY,
    )
        .prop_map(|(tile, local, global, frac, phi, stoch)| SophieConfig {
            tile_size: tile,
            local_iters: local,
            global_iters: global,
            tile_fraction: frac,
            phi,
            alpha: 0.0,
            stochastic_spin_update: stoch,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Every backend and crossover setting yields byte-identical event
    /// streams and outcomes, at 1 and 4 threads.
    #[test]
    fn all_compute_paths_are_byte_identical(
        cfg in config_strategy(),
        n in 32usize..72,
        edge_factor in 2usize..5,
        seed in 0u64..1000,
    ) {
        let _guard = ENV_LOCK.lock().unwrap();
        let g = gnm(n, edge_factor * n, WeightDist::UniformInt { lo: -3, hi: 3 }, seed ^ 0xA5)
            .unwrap();

        // Dense reference at one thread.
        let reference = with_threads("1", || run_fingerprint(&g, &cfg, &IdealBackend::new(), seed));

        // Variants: pure sparse, the calibrated default, a genuine mid-run
        // crossover threshold, the dense kernel forced (θ → 0), and the
        // incremental kernel forced (θ huge).
        let variants = [
            SparseBackend::always_sparse(),
            SparseBackend::auto(),
            SparseBackend::with_crossover(0.25),
            SparseBackend::with_crossover(1e-9),
            SparseBackend::with_crossover(1e9),
        ];
        for (vi, backend) in variants.iter().enumerate() {
            for threads in ["1", "4"] {
                let got = with_threads(threads, || run_fingerprint(&g, &cfg, backend, seed));
                prop_assert_eq!(
                    &reference.0, &got.0,
                    "best_cut diverged: variant {} threads {}", vi, threads
                );
                prop_assert_eq!(
                    &reference.1, &got.1,
                    "best_bits diverged: variant {} threads {}", vi, threads
                );
                prop_assert_eq!(
                    &reference.2, &got.2,
                    "cut_trace diverged: variant {} threads {}", vi, threads
                );
                prop_assert_eq!(
                    &reference.3, &got.3,
                    "event stream diverged: variant {} threads {}", vi, threads
                );
            }
        }
    }
}

/// Deterministic (non-property) spot check with a warm-started polish run
/// at φ = 0 — the late-anneal regime the sparse path is built for — and a
/// crossover threshold chosen so the auto path demonstrably switches
/// kernels mid-run.
#[test]
fn warm_started_polish_is_identical_across_paths() {
    let _guard = ENV_LOCK.lock().unwrap();
    let g = gnm(80, 320, WeightDist::UniformInt { lo: -2, hi: 2 }, 31).unwrap();
    let base = SophieConfig {
        tile_size: 16,
        local_iters: 4,
        global_iters: 20,
        phi: 0.0,
        ..SophieConfig::default()
    };
    let mut fingerprints = Vec::new();
    for threads in ["1", "4"] {
        fingerprints.push(with_threads(threads, || {
            run_fingerprint(&g, &base, &IdealBackend::new(), 7)
        }));
    }
    for backend in [
        SparseBackend::always_sparse(),
        SparseBackend::with_crossover(0.1),
    ] {
        for threads in ["1", "4"] {
            fingerprints.push(with_threads(threads, || {
                run_fingerprint(&g, &base, &backend, 7)
            }));
        }
    }
    let first = &fingerprints[0];
    for (i, fp) in fingerprints.iter().enumerate().skip(1) {
        assert_eq!(first.0, fp.0, "best_cut diverged at variant {i}");
        assert_eq!(first.1, fp.1, "best_bits diverged at variant {i}");
        assert_eq!(first.2, fp.2, "cut_trace diverged at variant {i}");
        assert_eq!(first.3, fp.3, "event stream diverged at variant {i}");
    }
}
