//! `cold-g22` and `warm-g22`: closed loops of one client over G22-shaped
//! graphs (n = 2000, 19 990 unit-weight edges) at tile 64, 150 global ×
//! 10 local iterations, φ = 0.1.
//!
//! `cold-g22` builds every job from a fresh graph, so the whole set-up
//! path (coupling → eigen → transform → program) is paid per job;
//! `warm-g22` builds one engine during set-up and then only solves.

use std::time::Instant;

use sophie_core::{SophieConfig, SophieOutcome, SophieSolver};
use sophie_graph::generate::presets;
use sophie_graph::Graph;

use crate::layers::{self, PhaseSpans, RoundTimer};
use crate::mix::{build_engine, check_bits};
use crate::util::{derive_seed, mean, median, secs_since, tail, Fnv};
use crate::{probe_setups, warm_process, Opts, Outcome};

pub const TILE: usize = 64;

pub fn config() -> SophieConfig {
    SophieConfig {
        tile_size: TILE,
        local_iters: 10,
        global_iters: 150,
        phi: 0.1,
        ..SophieConfig::default()
    }
}

/// One solve, observed by a round timer when tracing.
fn solve(
    engine: &SophieSolver,
    graph: &Graph,
    seed: u64,
    timer: Option<&mut RoundTimer>,
) -> Result<(SophieOutcome, f64), String> {
    let t = Instant::now();
    let out = match timer {
        Some(timer) => engine.run_observed(graph, seed, None, timer),
        None => engine.run(graph, seed, None),
    }
    .map_err(|e| e.to_string())?;
    Ok((out, secs_since(t)))
}

/// Checks a result and records it; returns whether it was correct.
fn verify(out: &mut Outcome, graph: &Graph, result: &SophieOutcome, what: &str) -> bool {
    match check_bits(graph, &result.best_bits, result.best_cut) {
        Ok(()) => true,
        Err(e) => {
            out.failed += 1;
            out.errors.push(format!("{what}: {e}"));
            false
        }
    }
}

/// Per-layer metrics both G22 workloads share.
fn record_layers(
    out: &mut Outcome,
    spans: &[PhaseSpans],
    timers: &[RoundTimer],
    first_ops: &sophie_core::OpCounts,
) {
    let s = &mut out.sheet;
    let (kernel_ns, gauss_ns) = layers::record_micro(s);
    layers::record_phase_medians(s, spans);
    layers::record_rounds(s, &timers.iter().collect::<Vec<_>>());
    layers::record_ops(s, first_ops, kernel_ns, gauss_ns);
}

pub fn cold(o: &Opts, t0: Instant) -> Outcome {
    let mut out = Outcome::default();
    out.notes.extend(warm_process(&[TILE]));
    let mut setups = vec![secs_since(t0)];
    setups.extend(probe_setups(&mut out, &[TILE]));

    let mut jobs = Vec::new();
    let mut spans = Vec::new();
    let mut timers = Vec::new();
    let mut cut_fracs = Vec::new();
    let mut first_ops = None;
    let mut fp = Fnv::default();
    let loop_start = Instant::now();
    let mut last = 0.0;
    for i in 0u64.. {
        if i > 0 && secs_since(loop_start) + last > o.seconds {
            break;
        }
        out.attempted += 1;
        let graph = presets::g22_like(derive_seed(o.seed, 1, i)).expect("G22-shaped graph");
        let job_seed = derive_seed(o.seed, 2, i);
        let t = Instant::now();
        let mut timer = RoundTimer::default();
        let built = build_engine(&graph, config()).and_then(|(engine, sp)| {
            let (result, solve_s) =
                solve(&engine, &graph, job_seed, o.trace.then_some(&mut timer))?;
            Ok((engine, sp, result, solve_s))
        });
        last = secs_since(t);
        let (engine, mut sp, result, solve_s) = match built {
            Ok(b) => b,
            Err(e) => {
                out.failed += 1;
                out.errors.push(format!("job {i}: {e}"));
                continue;
            }
        };
        sp.solve = solve_s;
        if !verify(&mut out, &graph, &result, &format!("job {i}")) {
            continue;
        }
        jobs.push(last);
        spans.push(sp);
        cut_fracs.push(result.best_cut / graph.total_weight());
        if i == 0 {
            layers::fingerprint(&mut fp, result.best_cut, &result.ops);
            first_ops = Some(result.ops);
            if o.trace {
                // The same solve untraced: the observer's cost, and a
                // check that observing changes nothing.
                match solve(&engine, &graph, job_seed, None) {
                    Ok((plain, plain_s)) => {
                        if plain.best_cut != result.best_cut || plain.ops != result.ops {
                            out.failed += 1;
                            out.errors
                                .push("traced and untraced solves differ".to_string());
                        }
                        out.sheet
                            .set("trace_overhead_frac", solve_s / plain_s - 1.0, "ratio");
                    }
                    Err(e) => out.errors.push(format!("untraced re-solve: {e}")),
                }
            }
        }
        if o.trace {
            timers.push(timer);
        }
    }
    let measured = secs_since(loop_start);
    if jobs.is_empty() {
        out.errors.push("no job completed".to_string());
        return out;
    }
    let s = &mut out.sheet;
    s.set("setup_s", median(&setups), "s");
    s.set("latency_p50_ms", median(&jobs) * 1e3, "ms");
    s.set("latency_p95_ms", tail(&jobs) * 1e3, "ms");
    s.set("max_rate_rps", jobs.len() as f64 / measured, "1/s");
    s.set("cut_frac", mean(&cut_fracs), "ratio");
    s.set("peak_rss_mb", crate::util::peak_rss_mb(), "MiB");
    out.notes.push(format!(
        "closed loop, 1 client: {} cold jobs, job times (s) {jobs:?}; setup samples (s) {setups:?}",
        jobs.len()
    ));
    out.fingerprint = Some(("job 0".to_string(), fp.finish()));
    if o.trace {
        let cover: Vec<f64> = spans
            .iter()
            .zip(&jobs)
            .map(|(sp, j)| sp.total() / j)
            .collect();
        let setup_share: Vec<f64> = spans.iter().map(|sp| sp.setup() / sp.total()).collect();
        out.sheet
            .set("core.span_cover_frac", median(&cover), "ratio");
        out.sheet
            .set("core.setup_share", median(&setup_share), "ratio");
        record_layers(&mut out, &spans, &timers, &first_ops.unwrap_or_default());
    }
    out
}

pub fn warm(o: &Opts, t0: Instant) -> Outcome {
    let mut out = Outcome::default();
    out.notes.extend(warm_process(&[TILE]));
    let graph = presets::g22_like(derive_seed(o.seed, 3, 0)).expect("G22-shaped graph");
    let (engine, build_spans) = match build_engine(&graph, config()) {
        Ok(b) => b,
        Err(e) => {
            out.errors.push(format!("engine build: {e}"));
            return out;
        }
    };
    let setup_s = secs_since(t0);

    // A traced run observes every other seed, so the untraced seeds in
    // between give the observer's overhead.
    let mut traced_s = Vec::new();
    let mut plain_s = Vec::new();
    let mut timers = Vec::new();
    let mut cut_fracs = Vec::new();
    let mut first_ops = None;
    let mut fp = Fnv::default();
    let loop_start = Instant::now();
    let mut last = 0.0;
    for k in 0u64.. {
        if k > 0 && secs_since(loop_start) + last > o.seconds {
            break;
        }
        out.attempted += 1;
        let traced = o.trace && k % 2 == 0;
        let mut timer = RoundTimer::default();
        let solved = solve(
            &engine,
            &graph,
            derive_seed(o.seed, 4, k),
            traced.then_some(&mut timer),
        );
        let (result, t) = match solved {
            Ok(r) => r,
            Err(e) => {
                out.failed += 1;
                out.errors.push(format!("seed {k}: {e}"));
                continue;
            }
        };
        last = t;
        if !verify(&mut out, &graph, &result, &format!("seed {k}")) {
            continue;
        }
        if traced {
            traced_s.push(t);
            timers.push(timer);
        } else {
            plain_s.push(t);
        }
        cut_fracs.push(result.best_cut / graph.total_weight());
        if k == 0 {
            layers::fingerprint(&mut fp, result.best_cut, &result.ops);
            first_ops = Some(result.ops);
        }
    }
    let measured = secs_since(loop_start);
    let all: Vec<f64> = traced_s.iter().chain(&plain_s).copied().collect();
    if all.is_empty() {
        out.errors.push("no solve completed".to_string());
        return out;
    }
    let s = &mut out.sheet;
    s.set("setup_s", setup_s, "s");
    s.set("latency_p50_ms", median(&all) * 1e3, "ms");
    s.set("latency_p95_ms", tail(&all) * 1e3, "ms");
    s.set("max_rate_rps", all.len() as f64 / measured, "1/s");
    s.set("cut_frac", mean(&cut_fracs), "ratio");
    s.set("peak_rss_mb", crate::util::peak_rss_mb(), "MiB");
    out.notes.push(format!(
        "closed loop, 1 client: {} solves on one warm engine, solve times (s) {all:?}; setup {setup_s:.3} s \
         (one engine build per run)",
        all.len()
    ));
    out.fingerprint = Some(("seed 0".to_string(), fp.finish()));
    if o.trace {
        let mut spans = build_spans;
        spans.solve = median(&traced_s);
        if !plain_s.is_empty() {
            out.sheet.set(
                "trace_overhead_frac",
                median(&traced_s) / median(&plain_s) - 1.0,
                "ratio",
            );
        }
        out.sheet
            .set("core.span_cover_frac", spans.setup() / setup_s, "ratio");
        out.sheet.set(
            "core.setup_share",
            spans.setup() / (spans.setup() + measured),
            "ratio",
        );
        record_layers(&mut out, &[spans], &timers, &first_ops.unwrap_or_default());
    }
    out
}
