//! Kernel-choice independence of solver results.
//!
//! The kernel stack's determinism contract (see `sophie-linalg`'s
//! `kernel` module docs) promises that every kernel variant accumulates
//! in the same canonical order, so picking a different variant — pinned
//! on the backend or chosen by the autotuner — can never change a single
//! bit of solver output. This golden test pins that promise at the level
//! users observe it: the *entire* solve-event stream must be
//! byte-identical under the scalar reference and every other variant, at
//! every `SOPHIE_THREADS` value, on the dense and the sparse backends.

use std::sync::Mutex;

use sophie::core::backend::{IdealBackend, MvmBackend};
use sophie::core::observe::EventLog;
use sophie::core::{KernelPlan, KernelVariant, SophieConfig, SophieSolver, SparseBackend};
use sophie::graph::generate::{gnm, WeightDist};
use sophie::graph::Graph;

/// `SOPHIE_THREADS`/`SOPHIE_KERNEL_CACHE` are process-global; serialize
/// access.
static ENV_LOCK: Mutex<()> = Mutex::new(());

fn with_threads<T>(threads: &str, f: impl FnOnce() -> T) -> T {
    std::env::set_var("SOPHIE_THREADS", threads);
    let out = f();
    std::env::remove_var("SOPHIE_THREADS");
    out
}

/// Keeps the autotuner's cache file out of the real host cache while `f`
/// runs.
fn with_scratch_tune_cache<T>(f: impl FnOnce() -> T) -> T {
    let cache_dir = std::env::temp_dir().join(format!("sophie-kd-{}", std::process::id()));
    std::env::set_var(
        "SOPHIE_KERNEL_CACHE",
        cache_dir.join("kernel-tune").as_os_str(),
    );
    let out = f();
    std::env::remove_var("SOPHIE_KERNEL_CACHE");
    std::fs::remove_dir_all(&cache_dir).ok();
    out
}

/// n=100 at tile 64 gives a 2×2 grid whose edge tiles are trimmed to 36
/// used rows/columns — the stream only stays identical if the trimmed
/// fringe path is exact in every variant too.
fn test_instance() -> (Graph, SophieSolver) {
    let g = gnm(100, 800, WeightDist::UniformInt { lo: -3, hi: 3 }, 5).unwrap();
    let cfg = SophieConfig {
        tile_size: 64,
        local_iters: 4,
        global_iters: 25,
        tile_fraction: 0.7,
        phi: 0.25,
        alpha: 0.1,
        ..SophieConfig::default()
    };
    let solver = SophieSolver::from_graph(&g, cfg).unwrap();
    (g, solver)
}

/// One observed run, returning the whole event stream rendered to JSONL
/// (byte comparison catches any divergence) plus the best cut.
fn run_stream<B: MvmBackend>(
    solver: &SophieSolver,
    g: &Graph,
    backend: &B,
    threads: &str,
) -> (String, f64) {
    with_threads(threads, || {
        let mut log = EventLog::new();
        let outcome = solver
            .run_with_backend_observed(backend, g, 42, None, &mut log)
            .unwrap();
        let jsonl: Vec<String> = log.events().iter().map(|e| e.to_json()).collect();
        (jsonl.join("\n"), outcome.best_cut)
    })
}

#[test]
fn event_streams_are_byte_identical_across_kernels_and_threads() {
    let _guard = ENV_LOCK.lock().unwrap();
    with_scratch_tune_cache(|| {
        let (g, solver) = test_instance();
        let scalar = IdealBackend::with_plan(KernelPlan::pinned(KernelVariant::Scalar));
        let (golden, golden_cut) = run_stream(&solver, &g, &scalar, "1");
        assert!(
            golden.contains("round_start"),
            "the run must actually emit events"
        );
        for threads in ["1", "4"] {
            let mut streams = Vec::new();
            for v in KernelVariant::ALL {
                let backend = IdealBackend::with_plan(KernelPlan::pinned(v));
                streams.push((v.name(), run_stream(&solver, &g, &backend, threads)));
            }
            streams.push((
                "tuned",
                run_stream(&solver, &g, &IdealBackend::new(), threads),
            ));
            streams.push((
                "sparse auto",
                run_stream(&solver, &g, &SparseBackend::auto(), threads),
            ));
            streams.push((
                "always sparse",
                run_stream(&solver, &g, &SparseBackend::always_sparse(), threads),
            ));
            for (label, (stream, cut)) in streams {
                assert_eq!(
                    golden, stream,
                    "stream diverged: backend {label}, threads {threads}"
                );
                assert_eq!(golden_cut, cut);
            }
        }
    });
}

#[test]
fn dense_and_sparse_streams_agree_under_a_tuned_kernel() {
    // A subset of the test above, which already checks the tuned dense
    // backend and `SparseBackend::auto()` against the scalar golden at 1
    // and 4 threads; kept as a direct dense-vs-sparse statement.
    let _guard = ENV_LOCK.lock().unwrap();
    with_scratch_tune_cache(|| {
        let (g, solver) = test_instance();
        let (a, _) = run_stream(&solver, &g, &IdealBackend::new(), "1");
        let (b, _) = run_stream(&solver, &g, &SparseBackend::auto(), "4");
        assert_eq!(a, b, "dense/sparse contract must hold under the tuned plan");
    });
}
