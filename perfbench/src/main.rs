//! The SOPHIE workspace benchmark.
//!
//! ```text
//! perfbench --workload <cold-g22|warm-g22|serve-mix> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Builds its inputs from `--seed`, drives the system only through the
//! workspace's public API, checks every output, and prints one JSON
//! object as its last line: `correct`, `attempted`, `failed` and the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics
//! (`--trace 1`). See `README.md` beside this crate for the workloads and
//! what each metric should move.

mod g22;
mod layers;
mod mix;
mod serve;
mod util;

use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;

use sophie_core::OpCounts;
use util::Sheet;

/// End-to-end metrics: every workload reports all of them.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_p95_ms", "ms"),
    ("max_rate_rps", "1/s"),
    ("cut_frac", "ratio"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics of a traced run. A metric a workload cannot measure
/// (the serving layers on the G22 loops) is reported as 0 and listed as
/// such in the run's output.
pub const PER_LAYER: [(&str, &str); 47] = [
    ("graph.coupling_s", "s"),
    ("linalg.eigen_s", "s"),
    ("pris.transform_s", "s"),
    ("core.program_s", "s"),
    ("core.solve_s", "s"),
    ("core.setup_share", "ratio"),
    ("core.span_cover_frac", "ratio"),
    ("core.round_pairs_ms", "ms"),
    ("core.round_sync_ms", "ms"),
    ("core.tile_mvms", "count"),
    ("core.noise_injections", "count"),
    ("core.pairs_executed", "count"),
    ("core.global_syncs", "count"),
    ("core.sparse_field_updates", "count"),
    ("linalg.kernel_fwd64_ns", "ns"),
    ("core.gauss_ns", "ns"),
    ("core.mvm_est_s", "s"),
    ("core.noise_est_s", "s"),
    ("core.sparse_crossover", "ratio"),
    ("serve.server_ms.sophie", "ms"),
    ("serve.server_ms.sophie-opcm", "ms"),
    ("serve.server_ms.sa", "ms"),
    ("serve.server_ms.sb", "ms"),
    ("serve.server_ms.pt", "ms"),
    ("serve.server_ms.bls", "ms"),
    ("serve.server_ms.pris", "ms"),
    ("serve.server_ms.qubo", "ms"),
    ("serve.server_ms.max-cut", "ms"),
    ("serve.server_ms.coloring", "ms"),
    ("serve.server_ms.ldpc", "ms"),
    ("router.overhead_ms", "ms"),
    ("router.cache_hit_frac", "ratio"),
    ("serve.setup_share_est", "ratio"),
    ("problems.compile_ms.qubo", "ms"),
    ("problems.compile_ms.max-cut", "ms"),
    ("problems.compile_ms.coloring", "ms"),
    ("problems.compile_ms.ldpc", "ms"),
    ("problems.decode_ms.qubo", "ms"),
    ("problems.decode_ms.max-cut", "ms"),
    ("problems.decode_ms.coloring", "ms"),
    ("problems.decode_ms.ldpc", "ms"),
    ("serve.protocol_parse_us", "us"),
    ("serve.queue_depth_max", "count"),
    ("router.retries", "count"),
    ("router.rejected", "count"),
    ("serve.gen_late_ms", "ms"),
    ("trace_overhead_frac", "ratio"),
];

pub const WORKLOADS: [&str; 3] = ["cold-g22", "warm-g22", "serve-mix"];

/// Worker-pool width (`SOPHIE_THREADS`) of the G22 workloads.
const G22_THREADS: usize = 1;

/// Process set-ups repeated in child processes (besides the run's own).
const SETUP_PROBES: usize = 4;

#[derive(Debug, Clone)]
pub struct Opts {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// What a workload measured and found.
#[derive(Debug, Default)]
pub struct Outcome {
    pub sheet: Sheet,
    pub attempted: u64,
    pub failed: u64,
    /// Correctness failures and invalid-run reasons; empty when correct.
    pub errors: Vec<String>,
    pub notes: Vec<String>,
    /// `(what it covers, digest)` of best cuts and op counts.
    pub fingerprint: Option<(String, u64)>,
    /// Op counts summed over the workload's SOPHIE requests (serve-mix).
    pub ops: Option<OpCounts>,
}

fn parse_args(args: &[String]) -> Result<Opts, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                );
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                });
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} (one of {})",
            WORKLOADS.join(", ")
        ));
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".to_string());
    }
    Ok(Opts {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Pays the process-wide lazy set-up a SOPHIE job needs before its first
/// round — kernel autotune per tile size, the sparse crossover
/// calibration, the worker pool — and describes the choices made, which
/// depend on timing and can explain an unsteady run.
pub fn warm_process(tiles: &[usize]) -> Vec<String> {
    let mut notes: Vec<String> = tiles
        .iter()
        .map(|&t| {
            format!(
                "kernel plan t={t}: {}",
                sophie_linalg::KernelPlan::for_size(t).describe()
            )
        })
        .collect();
    notes.push(format!(
        "calibrated_crossover: {}",
        sophie_core::sparse::calibrated_crossover()
    ));
    let width = sophie_linalg::par::worker_count(usize::MAX);
    std::hint::black_box(sophie_linalg::par::parallel_map(width, |i| i));
    notes
}

/// Runs the process set-up again in fresh child processes, each with an
/// empty kernel-tune cache, and returns their set-up times.
pub fn probe_setups(out: &mut Outcome, tiles: &[usize]) -> Vec<f64> {
    let Ok(exe) = std::env::current_exe() else {
        out.errors
            .push("cannot locate the benchmark executable".to_string());
        return Vec::new();
    };
    let tiles: Vec<String> = tiles.iter().map(usize::to_string).collect();
    let mut times = Vec::new();
    for i in 0..SETUP_PROBES {
        let cache = state_dir().join(format!("kernel-tune-probe-{i}"));
        let result = Command::new(&exe)
            .arg("setup-probe")
            .args(&tiles)
            .env("SOPHIE_KERNEL_CACHE", &cache)
            .output();
        let parsed = result.ok().filter(|o| o.status.success()).and_then(|o| {
            String::from_utf8_lossy(&o.stdout).lines().find_map(|l| {
                l.strip_prefix("setup_s ")
                    .and_then(|v| v.trim().parse::<f64>().ok())
            })
        });
        match parsed {
            Some(t) => times.push(t),
            None => out.errors.push(format!("set-up probe {i} failed")),
        }
    }
    times
}

fn setup_probe_main(args: &[String]) -> i32 {
    let t = Instant::now();
    let tiles: Vec<usize> = args.iter().filter_map(|a| a.parse().ok()).collect();
    warm_process(&tiles);
    println!("setup_s {}", t.elapsed().as_secs_f64());
    0
}

/// This run's scratch directory inside the checkout (kernel-tune caches),
/// removed when the run ends.
fn state_dir() -> PathBuf {
    Path::new(".perfbench-state").join(std::process::id().to_string())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("serve-child") => std::process::exit(serve::child_main()),
        Some("setup-probe") => std::process::exit(setup_probe_main(&args[1..])),
        _ => {}
    }
    let t0 = Instant::now();
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    let state = state_dir();
    if let Err(e) = std::fs::create_dir_all(&state) {
        eprintln!("perfbench: cannot create {}: {e}", state.display());
        std::process::exit(1);
    }
    // Never touch the user's kernel-tune cache: every run tunes afresh
    // into its own file, a cost its set-up time includes.
    std::env::set_var("SOPHIE_KERNEL_CACHE", state.join("kernel-tune"));
    // The G22 loops run the engine on one pool thread: on a small shared
    // host a single thread times more steadily than a pool whose every
    // round waits for its slowest member.
    if opts.workload != "serve-mix" {
        std::env::set_var("SOPHIE_THREADS", G22_THREADS.to_string());
    }

    let outcome = match opts.workload.as_str() {
        "cold-g22" => g22::cold(&opts, t0),
        "warm-g22" => g22::warm(&opts, t0),
        _ => serve::run(&opts, &state),
    };
    let _ = std::fs::remove_dir_all(&state);
    let _ = std::fs::remove_dir(".perfbench-state");
    std::process::exit(report(&opts, outcome));
}

/// Prints the header, notes and metrics, then the result line; returns
/// the exit code.
fn report(opts: &Opts, mut out: Outcome) -> i32 {
    println!(
        "# perfbench workload={} seed={} seconds={} trace={}",
        opts.workload,
        opts.seed,
        opts.seconds,
        u8::from(opts.trace)
    );
    for (k, v) in util::header_facts() {
        println!("# {k}: {v}");
    }
    for n in &out.notes {
        println!("# {n}");
    }
    if let Some((what, fp)) = &out.fingerprint {
        println!("# fingerprint ({what}: best cuts + OpCounts): {fp:016x}");
    }
    if let Some(ops) = &out.ops {
        println!("# ops: {}", ops.to_json());
    }
    let fail_frac = if out.attempted > 0 {
        out.failed as f64 / out.attempted as f64
    } else {
        1.0
    };
    println!(
        "# fail_frac = {fail_frac} ({} failed of {} attempted)",
        out.failed, out.attempted
    );
    for e in &out.errors {
        println!("# ERROR: {e}");
    }
    let names: Vec<&str> = if opts.trace {
        if out.sheet.get("core.sparse_crossover").is_none() {
            out.sheet.set(
                "core.sparse_crossover",
                sophie_core::sparse::calibrated_crossover(),
                "ratio",
            );
        }
        let mut missing = Vec::new();
        for (n, u) in PER_LAYER.iter() {
            if out.sheet.get(n).is_none() {
                out.sheet.set(n, 0.0, u);
                missing.push(*n);
            }
        }
        if !missing.is_empty() {
            println!(
                "# not measured on this workload (reported as 0): {}",
                missing.join(", ")
            );
        }
        PER_LAYER.iter().map(|(n, _)| *n).collect()
    } else {
        END_TO_END.iter().map(|(n, _)| *n).collect()
    };
    let complete = names.iter().all(|n| out.sheet.get(n).is_some());
    if !complete || out.attempted == 0 {
        println!("# ERROR: the run measured nothing usable");
        return 1;
    }
    for line in out.sheet.lines() {
        println!("#{line}");
    }
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        out.errors.is_empty() && out.failed == 0,
        out.attempted,
        out.failed,
        out.sheet.json(&names)
    );
    0
}

#[cfg(test)]
mod tests {
    use super::*;
    use sophie_serve::Json;

    /// The metric lists here and in `BENCHMARK.json` must agree.
    #[test]
    fn benchmark_json_matches_the_metric_lists() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = Json::parse(&text).expect("valid JSON");
        let listed = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(Json::as_arr)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let s = |k: &str| {
                        m.get(k)
                            .and_then(Json::as_str)
                            .expect("string field")
                            .to_string()
                    };
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let own = |l: &[(&str, &str)]| -> Vec<(String, String)> {
            l.iter()
                .map(|(n, u)| ((*n).to_string(), (*u).to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), own(&END_TO_END));
        assert_eq!(listed("per_layer"), own(&PER_LAYER));
        let workloads: Vec<String> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads")
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(Json::as_str)
                    .expect("name")
                    .to_string()
            })
            .collect();
        assert_eq!(workloads, WORKLOADS);
    }

    #[test]
    fn arguments_are_validated() {
        let ok: Vec<String> = [
            "--workload",
            "cold-g22",
            "--seed",
            "3",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]
        .iter()
        .map(|s| (*s).to_string())
        .collect();
        let o = parse_args(&ok).unwrap();
        assert!(o.trace && o.seed == 3 && o.seconds == 10.0);
        let mut bad = ok.clone();
        bad[1] = "nope".to_string();
        assert!(parse_args(&bad).is_err());
        assert!(parse_args(&ok[..6]).is_err());
    }
}
