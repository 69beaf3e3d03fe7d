//! Table II — performance (solution quality) for small graphs, vs the
//! published competitor numbers.
//!
//! SOPHIE rows are *measured*: the functional simulator provides the
//! iteration count to the quality target, the timing model converts it to
//! run time on the paper's 4-accelerator system (amortized programming
//! included, as in the paper). Competitor rows are the published numbers
//! from `sophie_baselines::reference` with provenance.

use sophie_baselines::reference::{QualityNote, TABLE2, TABLE2_SOPHIE};
use sophie_core::SophieConfig;
use sophie_hw::arch::MachineConfig;
use sophie_hw::cost::{params::CostParams, timing::batch_time, workload::WorkloadSummary};

use crate::experiments::batch_reports;
use crate::fidelity::Fidelity;
use crate::instances::Instances;
use crate::report::{fmt_time, Report};

/// Measures SOPHIE's time-to-target on `name` and renders one table row.
fn measure(
    inst: &mut Instances,
    name: &str,
    fidelity: Fidelity,
    quality_target: f64,
) -> (String, String) {
    let graph = inst.graph(name);
    let best_known = inst.best_known(name, fidelity);
    let target = quality_target * best_known;
    let config = SophieConfig {
        tile_size: 64,
        local_iters: 10,
        global_iters: fidelity.global_iters(),
        tile_fraction: 1.0,
        phi: if name == "K100" { 0.1 } else { 0.05 },
        alpha: 0.0,
        stochastic_spin_update: true,
    };
    let solver = inst.solver(name, &config);
    let runs = fidelity.convergence_runs();
    let outs = batch_reports(solver, &graph, runs, Some(target));

    // T90-style statistic: the 90th percentile of iterations-to-target,
    // counting non-converged runs as the full budget (shared quantile
    // convention from `sophie_solve::stats`).
    let t90_rounds = outs
        .iters_to_target_quantile(0.9, config.global_iters)
        .expect("runs > 0")
        .max(1);

    let avg_quality = outs.mean_cut / best_known;

    let timed_config = SophieConfig {
        global_iters: t90_rounds,
        ..config
    };
    let w = WorkloadSummary::analytic(graph.num_nodes(), &timed_config, 100, 0)
        .expect("validated configuration");
    let machine = MachineConfig::sophie_default(4);
    let t = batch_time(&machine, &CostParams::default(), &w, 8).expect("validated machine");
    (
        fmt_time(t.per_job_s),
        format!("avg error {:.1}%", 100.0 * (1.0 - avg_quality)),
    )
}

/// Regenerates Table II.
///
/// # Errors
///
/// Returns I/O errors from report writing.
pub fn run(inst: &mut Instances, fidelity: Fidelity, report: &Report) -> std::io::Result<()> {
    let mut rows = Vec::new();
    for (name, target) in [("K100", 1.0), ("G1", 0.95), ("G22", 0.95)] {
        let (time, quality) = measure(inst, name, fidelity, target);
        let label = if target >= 1.0 {
            "T90 to best-known".to_string()
        } else {
            format!("T90 to {:.0}% + {quality}", target * 100.0)
        };
        rows.push(vec![
            "SOPHIE (this repro)".into(),
            "Photonic (model)".into(),
            name.into(),
            time,
            label,
        ]);
        eprintln!("[table2] measured {name}");
    }
    for p in TABLE2_SOPHIE.iter().chain(TABLE2) {
        let time = if p.time_hi_s > p.time_s {
            format!("{} – {}", fmt_time(p.time_s), fmt_time(p.time_hi_s))
        } else {
            fmt_time(p.time_s)
        };
        let quality = match p.quality {
            QualityNote::T90 => "T90".to_string(),
            QualityNote::AvgError(e) => format!("avg error {:.1}%", e * 100.0),
            QualityNote::BestError(e) => format!("best error {:.1}%", e * 100.0),
            QualityNote::Unreported => "-".to_string(),
        };
        rows.push(vec![
            p.architecture.to_string(),
            format!("{:?}", p.substrate),
            p.graph.to_string(),
            time,
            quality,
        ]);
    }
    report.table(
        "table2",
        "Table II: small-graph performance (SOPHIE measured on the 4-accelerator model; competitors as published)",
        &["architecture", "type", "graph", "time/job", "quality"],
        &rows,
    )?;
    report.note(
        "table2: shape checks — SOPHIE ≪ PRIS/CIM/BLS/D-Wave, same order as \
         INPRIS/BRIM. Absolute SOPHIE times depend on measured iteration \
         counts and the documented timing-model assumptions.",
    )
}
