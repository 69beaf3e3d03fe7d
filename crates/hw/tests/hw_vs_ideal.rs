//! End-to-end check that SOPHIE's algorithm survives its own hardware:
//! running the tiled engine through the OPCM device model (6-bit cells,
//! read noise, 8-bit ADC) must yield solution quality close to the exact
//! floating-point backend.

use sophie_core::backend::IdealBackend;
use sophie_core::{SophieConfig, SophieSolver};
use sophie_graph::cut::cut_value_binary;
use sophie_graph::generate::{complete, gnm, WeightDist};
use sophie_hw::{OpcmBackend, OpcmBackendConfig};

fn config(tile: usize, giters: usize) -> SophieConfig {
    SophieConfig {
        tile_size: tile,
        local_iters: 10,
        global_iters: giters,
        tile_fraction: 1.0,
        phi: 0.25,
        alpha: 0.0,
        stochastic_spin_update: true,
    }
}

fn best_of(solver: &SophieSolver, graph: &sophie_graph::Graph, runs: u64, hw: bool) -> f64 {
    (0..runs)
        .map(|seed| {
            if hw {
                let backend = OpcmBackend::new(OpcmBackendConfig {
                    seed: seed * 31 + 1,
                    ..OpcmBackendConfig::default()
                });
                solver
                    .run_with_backend(&backend, graph, seed, None)
                    .unwrap()
                    .best_cut
            } else {
                solver
                    .run_with_backend(&IdealBackend::new(), graph, seed, None)
                    .unwrap()
                    .best_cut
            }
        })
        .fold(f64::NEG_INFINITY, f64::max)
}

#[test]
fn opcm_backend_matches_ideal_quality_on_dense_graph() {
    let g = complete(48, WeightDist::Unit, 3).unwrap();
    let solver = SophieSolver::from_graph(&g, config(16, 80)).unwrap();
    let ideal = best_of(&solver, &g, 3, false);
    let device = best_of(&solver, &g, 3, true);
    // Optimum of K48 (unit) is 24·24 = 576.
    assert!(ideal >= 540.0, "ideal backend cut {ideal}");
    assert!(
        device >= 0.95 * ideal,
        "device backend cut {device} vs ideal {ideal}"
    );
}

#[test]
fn opcm_backend_matches_ideal_quality_on_sparse_graph() {
    let g = gnm(120, 600, WeightDist::Unit, 11).unwrap();
    let solver = SophieSolver::from_graph(&g, config(32, 100)).unwrap();
    let ideal = best_of(&solver, &g, 3, false);
    let device = best_of(&solver, &g, 3, true);
    assert!(
        device >= 0.93 * ideal,
        "device backend cut {device} vs ideal {ideal}"
    );
}

#[test]
fn device_run_reports_consistent_bits() {
    let g = gnm(64, 256, WeightDist::Unit, 5).unwrap();
    let solver = SophieSolver::from_graph(&g, config(16, 40)).unwrap();
    let backend = OpcmBackend::default();
    let out = solver.run_with_backend(&backend, &g, 9, None).unwrap();
    assert_eq!(cut_value_binary(&g, &out.best_bits), out.best_cut);
}

#[test]
fn coarser_cells_degrade_gracefully() {
    // 4-level (2-bit) cells hold much less weight precision than 64-level
    // cells; quality may dip but the machine must still beat random.
    let g = gnm(80, 400, WeightDist::Unit, 2).unwrap();
    let solver = SophieSolver::from_graph(&g, config(16, 80)).unwrap();
    let coarse = OpcmBackend::new(OpcmBackendConfig {
        cell: sophie_hw::device::opcm::OpcmCellSpec {
            levels: 4,
            ..Default::default()
        },
        ..OpcmBackendConfig::default()
    });
    let out = solver.run_with_backend(&coarse, &g, 4, None).unwrap();
    // Random cuts average m/2 = 200.
    assert!(out.best_cut > 210.0, "cut {}", out.best_cut);
}
