//! Fig. 10 — run time per job to reach 95 % of best-known on G22 with
//! OPCM capacity limited to 512 × 512 coefficients.
//!
//! Combines the functional simulator (global iterations to converge, per
//! grid cell) with the timing model under a capacity-limited machine:
//! 64 arrays of 64×64 tiles = 512² coefficients, exactly the paper's
//! constraint, so programming overhead is exercised.

use sophie_core::SophieConfig;
use sophie_hw::arch::{AcceleratorSpec, ChipletSpec, MachineConfig, PeSpec};
use sophie_hw::cost::{params::CostParams, timing::batch_time, workload::WorkloadSummary};

use crate::experiments::{batch_reports, mean};
use crate::fidelity::Fidelity;
use crate::instances::Instances;
use crate::report::{fmt_time, Report};

/// The capacity-limited machine of the Fig. 10 experiment.
#[must_use]
pub fn capacity_limited_machine() -> MachineConfig {
    MachineConfig {
        accelerators: 1,
        accelerator: AcceleratorSpec {
            opcm_chiplets: 1,
            chiplet: ChipletSpec {
                pes: 64,
                pe: PeSpec { tile_size: 64 },
            },
        },
        clock_hz: 5e9,
    }
}

/// Regenerates the Fig. 10 grid.
///
/// # Errors
///
/// Returns I/O errors from report writing.
///
/// # Panics
///
/// Panics only on internal model misconfiguration.
pub fn run(inst: &mut Instances, fidelity: Fidelity, report: &Report) -> std::io::Result<()> {
    let name = "G22";
    let graph = inst.graph(name);
    let target = 0.95 * inst.best_known(name, fidelity);
    let budget = fidelity.total_local_iters();
    let runs = fidelity.runs();
    let machine = capacity_limited_machine();
    assert_eq!(machine.accelerator.coefficient_capacity(), 512 * 512);
    let params = CostParams::default();
    let batch = 100;

    let mut rows = Vec::new();
    for &local in fidelity.local_iter_grid() {
        for &frac in fidelity.fraction_grid() {
            let config = SophieConfig {
                tile_size: 64,
                local_iters: local,
                global_iters: (budget / local).max(1),
                tile_fraction: frac,
                phi: 0.05,
                alpha: 0.0,
                stochastic_spin_update: true,
            };
            let solver = inst.solver(name, &config);
            let outs = batch_reports(solver, &graph, runs, Some(target));
            let hits: Vec<f64> = outs
                .reports
                .iter()
                .filter_map(|r| r.iterations_to_target)
                .map(|g| g as f64)
                .collect();
            let (cell_time, cell_rounds) = if hits.len() * 2 >= runs {
                let avg_rounds = mean(hits.iter().copied()).max(1.0);
                let timed_config = SophieConfig {
                    global_iters: avg_rounds.round() as usize,
                    ..config.clone()
                };
                let w = WorkloadSummary::analytic(graph.num_nodes(), &timed_config, batch, 0)
                    .expect("validated configuration");
                let t = batch_time(&machine, &params, &w, 8).expect("validated machine");
                (fmt_time(t.per_job_s), format!("{avg_rounds:.0}"))
            } else {
                (String::new(), String::new()) // blank cell
            };
            rows.push(vec![
                local.to_string(),
                format!("{frac}"),
                cell_rounds,
                cell_time.clone(),
            ]);
            eprintln!(
                "[fig10] L={local} frac={frac}: {}/{} converged, {cell_time}",
                hits.len(),
                runs
            );
        }
    }
    report.table(
        "fig10",
        "Fig. 10: G22 run time per job to 95 % of best-known (OPCM capacity 512×512, batch 100; blank = no convergence)",
        &["local_iters_per_global", "tile_fraction", "avg_global_iters", "time_per_job"],
        &rows,
    )?;
    report.note(
        "fig10: expected shape — run time is U-shaped in local iterations per \
         global iteration (fewer syncs per iteration vs more iterations needed).",
    )
}
