//! Sparse-vs-dense compute-path sweep (extension — no paper analogue).
//!
//! The engine runs on the delta-driven CSR backend, which must reproduce
//! the dense reference backend's results bit for bit (see
//! `sophie_core::sparse` and the `sparse_equivalence` property tests).
//! This sweep runs the engine on both backends over GSET-class instances
//! through [`sophie_core::run_batch`], *asserts* the per-job outcomes are
//! identical, and tables the wall-clock ratio — including an honest high-φ
//! row where the anneal keeps activity high and the sparse path gains
//! little or nothing.

use std::time::Instant;

use sophie_core::backend::IdealBackend;
use sophie_core::{run_batch, SophieConfig, SophieSolver, SparseBackend};
use sophie_graph::coupling::coupling_matrix;
use sophie_graph::generate::{gnm, WeightDist};

use crate::fidelity::Fidelity;
use crate::instances::Instances;
use crate::report::Report;

/// One sweep point: a GSET-shaped G(n, m) instance at one noise level.
struct Point {
    label: &'static str,
    n: usize,
    m: usize,
    tile: usize,
    phi: f64,
    regime: &'static str,
}

/// Runs the dense-vs-sparse sweep and writes `sparse.csv`.
///
/// # Errors
///
/// Returns I/O errors from report writing.
///
/// # Panics
///
/// Panics if the two backends ever disagree on any report field —
/// that would be a compute-path bug, not a benchmark result.
pub fn run(_inst: &mut Instances, fidelity: Fidelity, report: &Report) -> std::io::Result<()> {
    // G22-shaped points at two activity regimes; the fast sweep keeps the
    // full-size instance (the smoke gate checks exactly that scale) but
    // trims rounds and the smaller warmup point.
    let points = [
        Point {
            label: "G500-class",
            n: 500,
            m: 2500,
            tile: 125,
            phi: 0.0,
            regime: "freezes after early rounds",
        },
        Point {
            label: "G22-class",
            n: 2000,
            m: 20_000,
            tile: 250,
            phi: 0.0,
            regime: "freezes after early rounds",
        },
        Point {
            label: "G22-class",
            n: 2000,
            m: 20_000,
            tile: 250,
            phi: 0.1,
            regime: "high activity throughout",
        },
    ];
    let global_iters = match fidelity {
        Fidelity::Fast => 6,
        Fidelity::Full => 30,
    };
    let runs = 1;

    let mut rows = Vec::new();
    for p in &points {
        if fidelity == Fidelity::Fast && p.label == "G500-class" {
            continue;
        }
        let graph = gnm(p.n, p.m, WeightDist::Unit, 22).expect("valid G(n, m) parameters");
        // Couplings straight from the graph: eigenvalue dropout would both
        // cost minutes at n = 2000 and densify the structure under test.
        let couplings = coupling_matrix(&graph);
        // Stochastic tile selection (§III-A2) is what lets the φ = 0 rows
        // freeze: at 100 % tiles the synchronous dynamics settle into a
        // global period-2 oscillation instead of a quiescent state.
        let cfg = SophieConfig {
            tile_size: p.tile,
            local_iters: 10,
            global_iters,
            tile_fraction: 0.25,
            phi: p.phi,
            alpha: 0.0,
            stochastic_spin_update: true,
        };
        let engine = SophieSolver::from_transform(&couplings, cfg).expect("valid transform");
        let start = Instant::now();
        let dense = run_batch(&engine, &IdealBackend::new(), &graph, runs, None)
            .expect("engine runs are infallible after construction");
        let dense_s = start.elapsed().as_secs_f64();
        let start = Instant::now();
        let sparse = run_batch(&engine, &SparseBackend::always_sparse(), &graph, runs, None)
            .expect("engine runs are infallible after construction");
        let sparse_s = start.elapsed().as_secs_f64();
        // The contract of the sparse path: identical results. Every
        // outcome field — cuts, traces, best bits, op counts — must match.
        assert_eq!(
            dense.jobs, sparse.jobs,
            "{} φ={}: dense and sparse backends diverged",
            p.label, p.phi
        );

        rows.push(vec![
            p.label.to_string(),
            p.n.to_string(),
            p.m.to_string(),
            format!("{:.2}", p.phi),
            p.regime.to_string(),
            format!("{:.1}", dense.mean_cut),
            format!("{:.1}", dense_s * 1e3),
            format!("{:.1}", sparse_s * 1e3),
            format!("{:.2}", dense_s / sparse_s),
        ]);
    }

    report.table(
        "sparse",
        "Sparse (delta-driven CSR) vs dense compute path — identical results, wall-clock ratio",
        &[
            "instance",
            "n",
            "edges",
            "phi",
            "regime",
            "best_cut",
            "dense_ms",
            "sparse_ms",
            "speedup",
        ],
        &rows,
    )?;
    report.note(
        "sparse sweep: per-row results verified identical across backends \
         (cut traces, best bits, op counts); speedup is wall-clock dense/sparse.",
    )
}
