//! Per-layer instruments owned by the benchmark: spans taken around
//! public calls, a round timer fed by the engine's event stream, the
//! operation counts the engine already exports, and two isolated
//! micro-timings that turn those counts into time estimates.

use std::hint::black_box;
use std::time::Instant;

use rand::rngs::SmallRng;
use rand::SeedableRng;
use sophie_core::{GaussianSource, OpCounts};
use sophie_linalg::{KernelPlan, Tile};
use sophie_solve::{SolveEvent, SolveObserver};

use crate::util::{median, Fnv, Sheet};

/// Times each round's two halves from the event stream:
/// `RoundStarted` → first `PairIterated` (the pairs' local iterations) and
/// first `PairIterated` → `GlobalSync` (event drain plus synchronization).
#[derive(Debug, Default)]
pub struct RoundTimer {
    round_start: Option<Instant>,
    first_pair: Option<Instant>,
    pub pairs_ms: Vec<f64>,
    pub sync_ms: Vec<f64>,
}

impl SolveObserver for RoundTimer {
    fn on_event(&mut self, event: &SolveEvent) {
        match event {
            SolveEvent::RoundStarted { .. } => {
                self.round_start = Some(Instant::now());
                self.first_pair = None;
            }
            SolveEvent::PairIterated { .. } if self.first_pair.is_none() => {
                let now = Instant::now();
                if let Some(start) = self.round_start {
                    self.pairs_ms.push((now - start).as_secs_f64() * 1e3);
                }
                self.first_pair = Some(now);
            }
            SolveEvent::GlobalSync { round, .. } if *round > 0 => {
                if let Some(first) = self.first_pair.take() {
                    self.sync_ms.push(first.elapsed().as_secs_f64() * 1e3);
                }
                self.round_start = None;
            }
            _ => {}
        }
    }
}

/// Wall-clock spans of one SOPHIE job's phases, in seconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct PhaseSpans {
    pub coupling: f64,
    pub eigen: f64,
    pub transform: f64,
    pub program: f64,
    pub solve: f64,
}

impl PhaseSpans {
    pub fn setup(&self) -> f64 {
        self.coupling + self.eigen + self.transform + self.program
    }

    pub fn total(&self) -> f64 {
        self.setup() + self.solve
    }
}

/// Medians of phase spans over several jobs, into the sheet.
pub fn record_phase_medians(sheet: &mut Sheet, spans: &[PhaseSpans]) {
    let col = |f: fn(&PhaseSpans) -> f64| median(&spans.iter().map(f).collect::<Vec<_>>());
    sheet.set("graph.coupling_s", col(|s| s.coupling), "s");
    sheet.set("linalg.eigen_s", col(|s| s.eigen), "s");
    sheet.set("pris.transform_s", col(|s| s.transform), "s");
    sheet.set("core.program_s", col(|s| s.program), "s");
    sheet.set("core.solve_s", col(|s| s.solve), "s");
}

/// Round-timer medians into the sheet.
pub fn record_rounds(sheet: &mut Sheet, timers: &[&RoundTimer]) {
    let pairs: Vec<f64> = timers
        .iter()
        .flat_map(|t| t.pairs_ms.iter().copied())
        .collect();
    let sync: Vec<f64> = timers
        .iter()
        .flat_map(|t| t.sync_ms.iter().copied())
        .collect();
    sheet.set(
        "core.round_pairs_ms",
        if pairs.is_empty() {
            0.0
        } else {
            median(&pairs)
        },
        "ms",
    );
    sheet.set(
        "core.round_sync_ms",
        if sync.is_empty() { 0.0 } else { median(&sync) },
        "ms",
    );
}

/// The exact simulated counts of one unit of work, plus the estimates
/// derived from the isolated micro-timings (`kernel_ns`, `gauss_ns`).
pub fn record_ops(sheet: &mut Sheet, ops: &OpCounts, kernel_ns: f64, gauss_ns: f64) {
    sheet.set("core.tile_mvms", ops.total_tile_mvms() as f64, "count");
    sheet.set(
        "core.noise_injections",
        ops.noise_injections as f64,
        "count",
    );
    sheet.set("core.pairs_executed", ops.pairs_executed as f64, "count");
    sheet.set("core.global_syncs", ops.global_syncs as f64, "count");
    sheet.set(
        "core.sparse_field_updates",
        ops.sparse_field_updates as f64,
        "count",
    );
    sheet.set(
        "core.mvm_est_s",
        kernel_ns * ops.total_tile_mvms() as f64 * 1e-9,
        "s",
    );
    sheet.set(
        "core.noise_est_s",
        gauss_ns * ops.noise_injections as f64 * 1e-9,
        "s",
    );
}

/// Times the isolated kernel and noise micro-benchmarks into the sheet
/// and returns `(kernel ns, gauss ns)`.
pub fn record_micro(sheet: &mut Sheet) -> (f64, f64) {
    let kernel_ns = kernel_fwd64_ns();
    let gauss_ns = gauss_ns();
    sheet.set("linalg.kernel_fwd64_ns", kernel_ns, "ns");
    sheet.set("core.gauss_ns", gauss_ns, "ns");
    (kernel_ns, gauss_ns)
}

/// Folds one result (best cut plus every op counter) into a fingerprint.
pub fn fingerprint(h: &mut Fnv, best_cut: f64, ops: &OpCounts) {
    h.eat(&best_cut.to_bits().to_le_bytes());
    h.eat(ops.to_json().as_bytes());
}

/// Nanoseconds per forward MVM of the resolved (autotuned) 64² plan,
/// timed alone: median of several batches.
pub fn kernel_fwd64_ns() -> f64 {
    const T: usize = 64;
    const REPS: usize = 4000;
    let mut state = 0x2545_f491_4f6c_dd1d_u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 40) as f32 / (1u64 << 24) as f32 - 0.5
    };
    let tile = Tile::from_vec(T, (0..T * T).map(|_| next()).collect()).expect("64x64 tile");
    let x: Vec<f32> = (0..T).map(|_| next()).collect();
    let mut y = vec![0.0_f32; T];
    let plan = KernelPlan::for_size(T);
    let batch = |y: &mut [f32]| {
        let t = Instant::now();
        for _ in 0..REPS {
            plan.forward(black_box(&tile), black_box(&x), y);
            black_box(&*y);
        }
        t.elapsed().as_secs_f64() * 1e9 / REPS as f64
    };
    batch(&mut y);
    median(&(0..7).map(|_| batch(&mut y)).collect::<Vec<_>>())
}

/// Nanoseconds per `GaussianSource::sample` on the engine's RNG type.
pub fn gauss_ns() -> f64 {
    const REPS: usize = 200_000;
    let mut rng = SmallRng::seed_from_u64(7);
    let mut src = GaussianSource::new();
    let mut batch = || {
        let t = Instant::now();
        let mut acc = 0.0;
        for _ in 0..REPS {
            acc += src.sample(&mut rng);
        }
        black_box(acc);
        t.elapsed().as_secs_f64() * 1e9 / REPS as f64
    };
    batch();
    median(&(0..7).map(|_| batch()).collect::<Vec<_>>())
}
