//! Ablations of SOPHIE's design choices (beyond the paper's figures).
//!
//! DESIGN.md calls out five load-bearing decisions; each is toggled here
//! in isolation on a mid-size instance:
//!
//! 1. **stochastic spin update** vs majority voting over all copies;
//! 2. **symmetric local update depth** — L = 1 (sync every iteration, the
//!    standard-tiling strawman) vs the paper's L = 10;
//! 3. **eigenvalue dropout** vs running the recurrence on raw `K`;
//! 4. **dual-precision ADC** — 8-bit partial sums vs 4-bit vs 12-bit;
//! 5. **symmetric tile mapping** — physical arrays with vs without
//!    transpose sharing (arithmetic, no simulation needed).

use std::sync::Arc;

use sophie_core::{SophieConfig, SophieSolver};
use sophie_hw::{OpcmBackendConfig, SophieOpcm};

use crate::experiments::batch_reports;
use crate::fidelity::Fidelity;
use crate::instances::Instances;
use crate::report::Report;

const GRAPH: &str = "G1";

fn base(fidelity: Fidelity) -> SophieConfig {
    SophieConfig {
        tile_size: 64,
        local_iters: 10,
        global_iters: match fidelity {
            Fidelity::Fast => 100,
            Fidelity::Full => 300,
        },
        tile_fraction: 0.74,
        phi: 0.05,
        alpha: 0.0,
        stochastic_spin_update: true,
    }
}

/// Runs the ablation suite.
///
/// # Errors
///
/// Returns I/O errors from report writing.
pub fn run(inst: &mut Instances, fidelity: Fidelity, report: &Report) -> std::io::Result<()> {
    let graph = inst.graph(GRAPH);
    let best_known = inst.best_known(GRAPH, fidelity);
    let runs = fidelity.runs();
    let mut rows: Vec<Vec<String>> = Vec::new();

    let quality = |inst: &mut Instances, label: &str, config: &SophieConfig| {
        let solver = inst.solver(GRAPH, config);
        let outs = batch_reports(solver, &graph, runs, None);
        let avg = outs.mean_cut;
        let ops = outs.reports[0].ops;
        eprintln!("[ablations] {label}: {avg:.1}");
        (avg, ops)
    };

    // 1. Stochastic spin update vs majority vote.
    let (q_stoch, ops_stoch) = quality(inst, "stochastic spin update", &base(fidelity));
    let (q_major, ops_major) = quality(
        inst,
        "majority-vote spin update",
        &SophieConfig {
            stochastic_spin_update: false,
            ..base(fidelity)
        },
    );
    rows.push(vec![
        "spin update: stochastic".into(),
        format!("{:.1}", 100.0 * q_stoch / best_known),
        format!("{} glue adds/job", ops_stoch.glue_adds),
    ]);
    rows.push(vec![
        "spin update: majority vote".into(),
        format!("{:.1}", 100.0 * q_major / best_known),
        format!("{} glue adds/job", ops_major.glue_adds),
    ]);

    // 2. Symmetric local update depth.
    for (label, l, g_scale) in [
        ("L=1 (sync every iteration)", 1usize, 10usize),
        ("L=10 (paper)", 10, 1),
    ] {
        let cfg = SophieConfig {
            local_iters: l,
            global_iters: base(fidelity).global_iters * g_scale,
            ..base(fidelity)
        };
        let (q, ops) = quality(inst, label, &cfg);
        rows.push(vec![
            format!("local depth: {label}"),
            format!("{:.1}", 100.0 * q / best_known),
            format!("{} sync-traffic bits/job", ops.sync_traffic_bits()),
        ]);
    }

    // 3. Eigenvalue dropout vs raw K.
    let (q_dropout, _) = quality(inst, "with eigenvalue dropout", &base(fidelity));
    let raw_quality = {
        let k = sophie_graph::coupling::coupling_matrix(&graph);
        let solver =
            Arc::new(SophieSolver::from_transform(&k, base(fidelity)).expect("valid config"));
        batch_reports(solver, &graph, runs, None).mean_cut
    };
    rows.push(vec![
        "preprocessing: eigenvalue dropout".into(),
        format!("{:.1}", 100.0 * q_dropout / best_known),
        "C = U·Sq_α(D)·Uᵀ".into(),
    ]);
    rows.push(vec![
        "preprocessing: none (raw K)".into(),
        format!("{:.1}", 100.0 * raw_quality / best_known),
        "recurrence on the raw coupling matrix".into(),
    ]);

    // 4. ADC resolution through the device backend, as a `SophieOpcm`
    //    solver pinned to the shared engine so only the backend varies
    //    (each job gets a fresh backend with unit-id counters at zero).
    let solver = inst.solver(GRAPH, &base(fidelity));
    for bits in [4u32, 8, 12] {
        let opcm = SophieOpcm::from_engine(
            Arc::clone(&solver),
            OpcmBackendConfig {
                adc_bits: bits,
                ..OpcmBackendConfig::default()
            },
        )
        .expect("valid backend config");
        let avg = batch_reports(Arc::new(opcm), &graph, runs, None).mean_cut;
        eprintln!("[ablations] {bits}-bit ADC: {avg:.1}");
        rows.push(vec![
            format!("partial-sum ADC: {bits}-bit"),
            format!("{:.1}", 100.0 * avg / best_known),
            "device backend (64-level cells, 1% read noise)".into(),
        ]);
    }

    // 5. Symmetric tile mapping (arithmetic).
    let grid = solver.grid();
    let logical = grid.logical_tiles();
    let physical = grid.symmetric_pairs().len();
    rows.push(vec![
        "tile mapping: symmetric pairs".into(),
        "-".into(),
        format!("{physical} physical arrays"),
    ]);
    rows.push(vec![
        "tile mapping: naive (one array per logical tile)".into(),
        "-".into(),
        format!(
            "{logical} physical arrays ({:.2}× more)",
            logical as f64 / physical as f64
        ),
    ]);

    report.table(
        "ablations",
        &format!("Ablations on {GRAPH} (avg over {runs} runs, % of best-known)"),
        &["variant", "quality_pct", "notes"],
        &rows,
    )
}
