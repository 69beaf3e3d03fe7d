//! The `serve-mix` request stream and its library replay.
//!
//! [`generate`] turns a seed into a fixed sequence of submit requests.
//! Every block of [`BLOCK`] requests holds the same multiset of request
//! shapes ([`TEMPLATE`]) in a seed-shuffled order, so the mix's
//! composition is identical across seeds while instances, sizes and job
//! seeds vary. SOPHIE MAX-CUT uploads come in three origins: a fresh
//! graph, an already-sent graph with a new job seed, and an exact repeat
//! of an earlier request (the router's result cache can serve those).
//!
//! [`replay`] runs one request through the libraries directly — the
//! reference the served result must equal byte for byte — and times the
//! layers on the way (coupling/eigen/transform/program/solve for SOPHIE,
//! compile/decode for problem submits).

use std::sync::Arc;
use std::time::Instant;

use sophie_core::{SolveJob, Solver, SophieConfig, SophieSolver};
use sophie_graph::generate::{gnm, WeightDist};
use sophie_graph::io::{format_graph, read_graph_limited, ParseLimits};
use sophie_pris::dropout::{DeltaVariant, Preprocessor};
use sophie_serve::{GraphSpec, Json, SubmitArgs};
use sophie_solve::{NullObserver, OpCounts, SolverRegistry};

use crate::layers::{PhaseSpans, RoundTimer};
use crate::util::{derive_seed, SplitMix};

/// Request kinds, in reporting order.
pub const KINDS: [&str; 11] = [
    "sophie",
    "sophie-opcm",
    "sa",
    "sb",
    "pt",
    "bls",
    "pris",
    "qubo",
    "max-cut",
    "coloring",
    "ldpc",
];

/// Where a SOPHIE upload's content comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Origin {
    /// A new graph and job seed.
    Fresh,
    /// A graph sent before, with a new job seed.
    GraphReuse,
    /// An earlier request, repeated byte for byte (same graph, seed, config).
    ExactRepeat,
}

/// Requests per composition block.
pub const BLOCK: usize = 28;

/// One block's request shapes: 8 SOPHIE uploads (3 fresh, 1 reusing a
/// graph, 4 exact repeats), one submit per other solver (three for `sa`),
/// three per problem kind. Cheap requests (cache hits, short baseline
/// runs) fill the bottom third of the latency distribution and the
/// problem submits (about ten milliseconds each) its middle, where the
/// median falls, so the median moves with per-request overhead and the
/// problem path; the large SOPHIE uploads, whose set-up dominates, form
/// the tail the p95 falls in.
pub const TEMPLATE: [(&str, Origin); BLOCK] = [
    ("sophie", Origin::Fresh),
    ("sophie", Origin::Fresh),
    ("sophie", Origin::Fresh),
    ("sophie", Origin::GraphReuse),
    ("sophie", Origin::ExactRepeat),
    ("sophie", Origin::ExactRepeat),
    ("sophie", Origin::ExactRepeat),
    ("sophie", Origin::ExactRepeat),
    ("sophie-opcm", Origin::Fresh),
    ("sa", Origin::Fresh),
    ("sa", Origin::Fresh),
    ("sa", Origin::Fresh),
    ("sb", Origin::Fresh),
    ("pt", Origin::Fresh),
    ("bls", Origin::Fresh),
    ("pris", Origin::Fresh),
    ("qubo", Origin::Fresh),
    ("qubo", Origin::Fresh),
    ("qubo", Origin::Fresh),
    ("max-cut", Origin::Fresh),
    ("max-cut", Origin::Fresh),
    ("max-cut", Origin::Fresh),
    ("coloring", Origin::Fresh),
    ("coloring", Origin::Fresh),
    ("coloring", Origin::Fresh),
    ("ldpc", Origin::Fresh),
    ("ldpc", Origin::Fresh),
    ("ldpc", Origin::Fresh),
];

/// Node ranges of the fresh SOPHIE uploads of a block, one upload each:
/// one small, two large. Every block thus holds the same spread of sizes,
/// and the large uploads are a tight cluster of the tail.
const UPLOAD_STRATA: [(usize, usize); 3] = [(128, 200), (390, 400), (390, 400)];

/// Stated share of all requests that reuse a sent graph with a new seed.
pub const STATED_GRAPH_REUSE: f64 = 1.0 / BLOCK as f64;
/// Stated share of all requests that repeat an earlier request exactly.
pub const STATED_EXACT_REPEAT: f64 = 4.0 / BLOCK as f64;

/// An exact repeat targets a request at least this many positions back,
/// so the original has normally completed (and been cached) by then.
const REPEAT_GAP: usize = 10;

/// SOPHIE configuration of the mix's uploads (tile 64 as on G22, a short
/// anneal, so per-request overheads and the per-submit set-up matter).
pub fn sophie_config() -> SophieConfig {
    SophieConfig {
        tile_size: 64,
        local_iters: 10,
        global_iters: 20,
        phi: 0.1,
        ..SophieConfig::default()
    }
}

const SOPHIE_CONFIG_JSON: &str = r#"{"tile_size":64,"local_iters":10,"global_iters":20,"phi":0.1}"#;

fn baseline_config(solver: &str) -> &'static str {
    match solver {
        "sophie-opcm" => r#"{"tile_size":64,"local_iters":5,"global_iters":5,"phi":0.1}"#,
        "sa" => r#"{"sweeps":100}"#,
        "sb" => r#"{"steps":200}"#,
        "pt" => r#"{"replicas":4,"exchanges":10}"#,
        "bls" => r#"{"rounds":4}"#,
        "pris" => r#"{"iterations":100}"#,
        other => panic!("no baseline config for {other}"),
    }
}

/// Problem submits are solved by simulated annealing, long enough (about
/// ten milliseconds) that they form the tight middle of the latency
/// distribution the median falls in, well above host scheduling jitter.
const PROBLEM_SOLVER: &str = "sa";

/// One request of the mix.
#[derive(Debug, Clone)]
pub struct MixRequest {
    pub kind: &'static str,
    pub origin: Origin,
    pub args: SubmitArgs,
    /// Index of the first request with identical content (itself unless
    /// an exact repeat).
    pub distinct: usize,
    /// Total edge weight of an uploaded MAX-CUT graph (SOPHIE uploads).
    pub total_weight: f64,
}

/// The deterministic request sequence for `seed`, `count` long.
pub fn generate(seed: u64, count: usize) -> Vec<MixRequest> {
    let mut rng = SplitMix::new(derive_seed(seed, 10, 0));
    let mut out: Vec<MixRequest> = Vec::with_capacity(count);
    // Indices of SOPHIE requests with their own content (repeat targets).
    let mut sophie_distinct: Vec<usize> = Vec::new();
    let mut block = TEMPLATE;
    let mut fresh_in_block = 0;
    for i in 0..count {
        if i % BLOCK == 0 {
            rng.shuffle(&mut block);
            fresh_in_block = 0;
        }
        let (kind, origin) = block[i % BLOCK];
        // Job seeds stay below 2^32 so they survive any JSON number reader.
        let job_seed = derive_seed(seed, 11, i as u64) >> 32;
        let req = match (kind, origin) {
            ("sophie", Origin::ExactRepeat) => {
                let eligible = sophie_distinct.partition_point(|&j| j + REPEAT_GAP <= i);
                if eligible == 0 {
                    fresh_in_block += 1;
                    fresh_sophie(seed, i, job_seed, fresh_in_block - 1)
                } else {
                    let j = sophie_distinct[(rng.next_u64() % eligible as u64) as usize];
                    MixRequest {
                        origin: Origin::ExactRepeat,
                        distinct: j,
                        ..out[j].clone()
                    }
                }
            }
            ("sophie", Origin::GraphReuse) if !sophie_distinct.is_empty() => {
                let j = sophie_distinct[(rng.next_u64() % sophie_distinct.len() as u64) as usize];
                let mut args = out[j].args.clone();
                args.seed = job_seed;
                MixRequest {
                    kind,
                    origin: Origin::GraphReuse,
                    args,
                    distinct: i,
                    total_weight: out[j].total_weight,
                }
            }
            ("sophie", _) => {
                fresh_in_block += 1;
                fresh_sophie(seed, i, job_seed, fresh_in_block - 1)
            }
            ("qubo" | "max-cut" | "coloring" | "ldpc", _) => problem(kind, seed, i, job_seed),
            (solver, _) => {
                let mut g = SplitMix::new(derive_seed(seed, 13, i as u64));
                let n = g.range(64, 160);
                let graph = gnm(n, 4 * n, WeightDist::Unit, g.next_u64()).expect("baseline graph");
                let mut args = SubmitArgs::new(solver, GraphSpec::Inline(format_graph(&graph)));
                args.seed = job_seed;
                args.config_json = Some(baseline_config(solver).to_string());
                MixRequest {
                    kind,
                    origin: Origin::Fresh,
                    args,
                    distinct: i,
                    total_weight: graph.total_weight(),
                }
            }
        };
        if req.kind == "sophie" && req.origin != Origin::ExactRepeat {
            sophie_distinct.push(i);
        }
        out.push(req);
    }
    out
}

/// A new upload; `stratum` picks its slice of the size range.
fn fresh_sophie(seed: u64, i: usize, job_seed: u64, stratum: usize) -> MixRequest {
    let mut g = SplitMix::new(derive_seed(seed, 12, i as u64));
    let (lo, hi) = UPLOAD_STRATA[stratum % UPLOAD_STRATA.len()];
    let n = g.range(lo, hi);
    let graph = gnm(n, 5 * n, WeightDist::Unit, g.next_u64()).expect("upload graph");
    let mut args = SubmitArgs::new("sophie", GraphSpec::Inline(format_graph(&graph)));
    args.seed = job_seed;
    args.config_json = Some(SOPHIE_CONFIG_JSON.to_string());
    MixRequest {
        kind: "sophie",
        origin: Origin::Fresh,
        args,
        distinct: i,
        total_weight: graph.total_weight(),
    }
}

/// Problem submits have a fixed size per kind (only their seeds vary) and
/// annealing lengths chosen so every kind costs about the same, keeping
/// the middle of the latency distribution tight.
fn problem(kind: &'static str, seed: u64, i: usize, job_seed: u64) -> MixRequest {
    let ps = derive_seed(seed, 14, i as u64) % 1_000_000;
    let (payload, sweeps) = match kind {
        "qubo" => (
            format!(r#"{{"kind":"qubo","random":{{"n":28,"density":0.3,"seed":{ps}}}}}"#),
            6000,
        ),
        "max-cut" => (
            format!(r#"{{"kind":"max-cut","random":{{"n":36,"m":108,"seed":{ps}}}}}"#),
            6000,
        ),
        "coloring" => (
            format!(
                r#"{{"kind":"coloring","random":{{"nodes":13,"edges":19,"colors":3,"seed":{ps}}}}}"#
            ),
            5400,
        ),
        "ldpc" => (
            format!(r#"{{"kind":"ldpc","random":{{"n":20,"wc":2,"wr":4,"flips":2,"seed":{ps}}}}}"#),
            4650,
        ),
        other => panic!("unknown problem kind {other}"),
    };
    let mut args = SubmitArgs::for_problem(PROBLEM_SOLVER, &payload);
    args.seed = job_seed;
    args.config_json = Some(format!(r#"{{"sweeps":{sweeps}}}"#));
    MixRequest {
        kind,
        origin: Origin::Fresh,
        args,
        distinct: i,
        total_weight: 0.0,
    }
}

/// Measured shares `(graph reuse, exact repeat)` of a request prefix.
pub fn measured_shares(reqs: &[MixRequest]) -> (f64, f64) {
    let n = reqs.len().max(1) as f64;
    let count = |o: Origin| reqs.iter().filter(|r| r.origin == o).count() as f64 / n;
    (count(Origin::GraphReuse), count(Origin::ExactRepeat))
}

/// What the libraries produce for one request.
#[derive(Debug)]
pub struct Replay {
    /// The report JSON a replica would put in the result frame.
    pub report_json: String,
    pub best_cut: f64,
    pub ops: OpCounts,
    /// SOPHIE uploads: phase spans and round timings.
    pub spans: Option<(PhaseSpans, RoundTimer)>,
    /// Problem submits: compile and decode time, seconds.
    pub compile_s: f64,
    pub decode_s: f64,
}

/// Server-side parse limits (the daemon's defaults).
pub fn limits() -> ParseLimits {
    let d = sophie_serve::ServeConfig::default();
    ParseLimits::new(d.max_instance_nodes, d.max_instance_edges)
}

/// Runs `req` through the libraries; errors describe a request that the
/// libraries themselves refuse.
pub fn replay(req: &MixRequest, registry: &SolverRegistry) -> Result<Replay, String> {
    let args = &req.args;
    let config = args
        .config_json
        .as_deref()
        .map(Json::parse)
        .transpose()
        .map_err(|e| e.to_string())?;
    if let Some(problem_json) = &args.problem_json {
        let payload = Json::parse(problem_json).map_err(|e| e.to_string())?;
        let t = Instant::now();
        let (spec, instance) = sophie_serve::problems::compile_problem(&payload, &limits())
            .map_err(|e| e.to_string())?;
        let compile_s = t.elapsed().as_secs_f64();
        let solver = sophie_serve::configs::build_solver(registry, &args.solver, config.as_ref())
            .map_err(|e| e.to_string())?;
        let job = SolveJob::new(Arc::clone(instance.graph()), args.seed);
        let report = solver
            .solve(&job, &mut NullObserver)
            .map_err(|e| e.to_string())?;
        let t = Instant::now();
        let decoded = spec
            .decode(&instance, &report.best_bits)
            .map_err(|e| e.to_string())?;
        let decode_s = t.elapsed().as_secs_f64();
        check_bits(instance.graph(), &report.best_bits, report.best_cut)?;
        let mut report_json = report.to_json();
        report_json.truncate(report_json.len() - 1);
        report_json.push_str(",\"problem\":");
        report_json.push_str(&decoded.to_json());
        report_json.push('}');
        return Ok(Replay {
            report_json,
            best_cut: report.best_cut,
            ops: report.ops,
            spans: None,
            compile_s,
            decode_s,
        });
    }
    let Some(GraphSpec::Inline(text)) = &args.graph else {
        return Err("mix requests upload their graphs inline".to_string());
    };
    let graph =
        Arc::new(read_graph_limited(text.as_bytes(), &limits()).map_err(|e| e.to_string())?);
    let job = SolveJob::new(Arc::clone(&graph), args.seed);
    let (report, spans) = if args.solver == "sophie" {
        let (engine, mut spans) = build_engine(&graph, sophie_config())?;
        let mut timer = RoundTimer::default();
        let t = Instant::now();
        let report = engine.solve(&job, &mut timer).map_err(|e| e.to_string())?;
        spans.solve = t.elapsed().as_secs_f64();
        (report, Some((spans, timer)))
    } else {
        let solver = sophie_serve::configs::build_solver(registry, &args.solver, config.as_ref())
            .map_err(|e| e.to_string())?;
        (
            solver
                .solve(&job, &mut NullObserver)
                .map_err(|e| e.to_string())?,
            None,
        )
    };
    check_bits(&graph, &report.best_bits, report.best_cut)?;
    Ok(Replay {
        report_json: report.to_json(),
        best_cut: report.best_cut,
        ops: report.ops,
        spans,
        compile_s: 0.0,
        decode_s: 0.0,
    })
}

/// Coupling → eigendecomposition → α-transform → tile programming, each
/// timed: the set-up a SOPHIE job pays before its first round.
pub fn build_engine(
    graph: &sophie_graph::Graph,
    config: SophieConfig,
) -> Result<(SophieSolver, PhaseSpans), String> {
    let mut spans = PhaseSpans::default();
    let t = Instant::now();
    let k = sophie_graph::coupling::coupling_matrix(graph);
    let delta = sophie_graph::coupling::delta_diagonal(graph);
    spans.coupling = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let pre = Preprocessor::new(&k, delta, DeltaVariant::Gershgorin).map_err(|e| e.to_string())?;
    spans.eigen = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let c = pre.transform(config.alpha).map_err(|e| e.to_string())?;
    spans.transform = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let engine = SophieSolver::from_transform(&c, config).map_err(|e| e.to_string())?;
    spans.program = t.elapsed().as_secs_f64();
    Ok((engine, spans))
}

/// A solver's reported best cut must be the cut of its reported bits.
/// Solvers that track the cut incrementally may differ from a fresh sum
/// by rounding on fractional weights, so the two must agree to within
/// 1e-9 of the graph's total absolute weight (exactly, on integer weights).
pub fn check_bits(graph: &sophie_graph::Graph, bits: &[bool], best_cut: f64) -> Result<(), String> {
    if bits.len() != graph.num_nodes() {
        return Err(format!(
            "best_bits has {} entries for {} nodes",
            bits.len(),
            graph.num_nodes()
        ));
    }
    let cut = sophie_graph::cut::cut_value_binary(graph, bits);
    let scale: f64 = graph.edges().map(|e| e.w.abs()).sum();
    if (cut - best_cut).abs() <= 1e-9 * scale.max(1.0) {
        Ok(())
    } else {
        Err(format!("best_cut {best_cut} but the best bits cut {cut}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measured_shares_agree_with_stated_shares() {
        for seed in [1, 2, 3] {
            let reqs = generate(seed, 400);
            let (reuse, repeat) = measured_shares(&reqs);
            assert!(
                (reuse - STATED_GRAPH_REUSE).abs() <= 0.02,
                "seed {seed}: reuse {reuse}"
            );
            assert!(
                (repeat - STATED_EXACT_REPEAT).abs() <= 0.02,
                "seed {seed}: repeat {repeat}"
            );
        }
    }

    #[test]
    fn generation_is_deterministic_and_composition_is_fixed() {
        let a = generate(9, 2 * BLOCK);
        let b = generate(9, 2 * BLOCK);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.args.to_frame("r"), y.args.to_frame("r"));
        }
        for kind in KINDS {
            let per_block = TEMPLATE.iter().filter(|(k, _)| *k == kind).count();
            assert_eq!(
                a.iter().filter(|r| r.kind == kind).count(),
                2 * per_block,
                "{kind}"
            );
        }
        assert_ne!(
            a[0].args.to_frame("r"),
            generate(10, 1)[0].args.to_frame("r")
        );
    }

    #[test]
    fn every_request_parses_as_a_submit() {
        for (i, r) in generate(5, 2 * BLOCK).iter().enumerate() {
            let line = r.args.to_frame(&format!("r{i}"));
            if let Err(e) = sophie_serve::protocol::parse_request(&line) {
                panic!("{} request {i} does not parse: {e}", r.kind);
            }
        }
    }

    #[test]
    fn repeats_copy_their_target_and_reuses_change_only_the_seed() {
        let reqs = generate(4, 200);
        for (i, r) in reqs.iter().enumerate() {
            match r.origin {
                Origin::ExactRepeat => {
                    assert!(r.distinct + REPEAT_GAP <= i);
                    assert_eq!(r.args.to_frame("x"), reqs[r.distinct].args.to_frame("x"));
                }
                Origin::GraphReuse => {
                    assert_eq!(r.distinct, i);
                    assert!(reqs[..i].iter().any(|o| o.args.graph.is_some()
                        && format!("{:?}", o.args.graph) == format!("{:?}", r.args.graph)
                        && o.args.seed != r.args.seed));
                }
                Origin::Fresh => assert_eq!(r.distinct, i),
            }
        }
    }
}
