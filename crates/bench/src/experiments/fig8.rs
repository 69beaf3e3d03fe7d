//! Fig. 8 — total local iterations required to reach 95 % of the
//! best-known solution for G22.

use sophie_core::SophieConfig;

use crate::experiments::{batch_reports, mean, spread};
use crate::fidelity::Fidelity;
use crate::instances::Instances;
use crate::report::Report;

/// Regenerates the Fig. 8 grid. Cells where fewer than half the runs
/// converge within the local-iteration budget are reported as blank (the
/// paper's blank cells).
///
/// # Errors
///
/// Returns I/O errors from report writing.
pub fn run(inst: &mut Instances, fidelity: Fidelity, report: &Report) -> std::io::Result<()> {
    let name = "G22";
    let graph = inst.graph(name);
    let target = 0.95 * inst.best_known(name, fidelity);
    let budget = fidelity.total_local_iters();
    let runs = fidelity.convergence_runs();

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
                .map(|g| (g * local) as f64)
                .collect();
            let converged = hits.len();
            let (cell, sd) = if converged * 2 >= runs {
                (
                    format!("{:.0}", mean(hits.iter().copied())),
                    format!("{:.0}", spread(&hits)),
                )
            } else {
                // blank: failed to converge in budget
                (String::new(), String::new())
            };
            rows.push(vec![
                local.to_string(),
                format!("{frac}"),
                cell.clone(),
                sd.clone(),
                format!("{converged}/{runs}"),
            ]);
            eprintln!(
                "[fig8] L={local} frac={frac}: {converged}/{runs} converged, avg {cell} ± {sd}"
            );
        }
    }
    report.table(
        "fig8",
        &format!(
            "Fig. 8: G22 total local iterations to reach 95 % of best-known (budget {budget}; blank = no convergence)"
        ),
        &[
            "local_iters_per_global",
            "tile_fraction",
            "avg_local_iters_to_95pct",
            "sd_local_iters_to_95pct",
            "converged",
        ],
        &rows,
    )?;
    report.note(
        "fig8: expected shape — the aggressive corner (few tiles selected, many \
         local iterations per global iteration) needs more iterations or fails \
         to converge within the budget.",
    )
}
