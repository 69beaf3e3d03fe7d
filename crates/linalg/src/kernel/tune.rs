//! Startup autotuner: micro-benchmarks the kernel variants per tile size
//! and caches the winning [`KernelPlan`] in a versioned host-keyed file.
//!
//! Resolution is layered: a process-wide memo (one measurement per tile
//! size per process) over the cache file over a fresh measurement. The
//! file lives at `$SOPHIE_KERNEL_CACHE`, else
//! `$XDG_CACHE_HOME/sophie/kernel-tune`, else
//! `$HOME/.cache/sophie/kernel-tune`, else the system temp dir, and is
//! ignored wholesale if its version header or host key doesn't match —
//! a new kernel set or a new machine re-tunes from scratch. Write
//! failures are tolerated (the plan just isn't persisted).
//!
//! Because every variant is bit-identical (see the module docs of
//! [`crate::kernel`]), a noisy winner is harmless: any plan produces the
//! same solver bits, so tuning only has to be *roughly* right to collect
//! the wall-clock win.

use std::collections::HashMap;
use std::io::Write as _;
use std::path::PathBuf;
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use super::{KernelPlan, KernelVariant, Sweep};
use crate::tile::Tile;

/// Cache file format version; bump whenever the variant set or the
/// measurement protocol changes so stale winners are re-measured.
const CACHE_VERSION: &str = "sophie-kernel-tune-v2";

/// Per-variant, per-direction measurement for one tile size — what
/// `repro tune` records into `BENCH_sophie.json`.
#[derive(Debug, Clone)]
pub struct TuneReport {
    /// Tile edge length measured.
    pub tile_size: usize,
    /// `(variant, forward ns, transposed ns)` per candidate, in
    /// [`KernelVariant::ALL`] order.
    pub table: Vec<(KernelVariant, f64, f64)>,
    /// The plan the measurements select.
    pub plan: KernelPlan,
}

impl TuneReport {
    /// Nanoseconds measured for `variant` in the given direction.
    #[must_use]
    pub fn ns_for(&self, variant: KernelVariant, forward: bool) -> f64 {
        self.table
            .iter()
            .find(|(v, _, _)| *v == variant)
            .map(|&(_, f, t)| if forward { f } else { t })
            .unwrap_or(f64::NAN)
    }
}

/// The autotuned plan for tiles of edge length `t`: memoized per
/// process, persisted per host.
#[must_use]
pub fn tuned_plan(t: usize) -> KernelPlan {
    static MEMO: OnceLock<Mutex<HashMap<usize, KernelPlan>>> = OnceLock::new();
    let memo = MEMO.get_or_init(|| Mutex::new(HashMap::new()));
    if let Some(plan) = memo.lock().unwrap().get(&t) {
        return *plan;
    }
    // Measure outside the lock: concurrent first-callers may race to
    // measure, but every answer is valid (bit-identity) and the map
    // settles on one.
    let plan = match load_cached(t) {
        Some(plan) => plan,
        None => {
            let plan = measure(t).plan;
            store_cached(t, plan);
            plan
        }
    };
    memo.lock().unwrap().insert(t, plan);
    plan
}

/// Runs a fresh measurement (ignoring memo and cache) and returns the
/// full timing table — the entry point for `repro tune`.
#[must_use]
pub fn measure(t: usize) -> TuneReport {
    let tile = bench_tile(t);
    let x = bench_input(t);
    let mut y = vec![0.0_f32; t];
    let reps = ((1usize << 20) / (t * t).max(1)).clamp(8, 256);

    let mut table = Vec::with_capacity(KernelVariant::ALL.len());
    let (mut best_f, mut best_t) = (KernelVariant::Scalar, KernelVariant::Scalar);
    let (mut best_f_ns, mut best_t_ns) = (f64::INFINITY, f64::INFINITY);
    for v in KernelVariant::ALL {
        let fwd = Sweep::forward(&tile);
        let f_ns = time_ns(reps, || super::run_sweep(v, &fwd, &x, &mut y));
        let trn = Sweep::transposed(&tile);
        let t_ns = time_ns(reps, || super::run_sweep(v, &trn, &x, &mut y));
        if f_ns < best_f_ns {
            best_f_ns = f_ns;
            best_f = v;
        }
        if t_ns < best_t_ns {
            best_t_ns = t_ns;
            best_t = v;
        }
        table.push((v, f_ns, t_ns));
    }

    TuneReport {
        tile_size: t,
        table,
        plan: KernelPlan {
            forward: best_f,
            transposed: best_t,
        },
    }
}

/// Median-free robust timing: best (minimum) of 3 passes of `reps`
/// runs each, after 2 warmup runs. Returns ns per run.
fn time_ns(reps: usize, mut f: impl FnMut()) -> f64 {
    f();
    f();
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let start = Instant::now();
        for _ in 0..reps {
            f();
        }
        let ns = start.elapsed().as_nanos() as f64 / reps as f64;
        if ns < best {
            best = ns;
        }
    }
    best
}

/// Deterministic LCG-filled benchmark tile, dense with a sprinkling of
/// exact zeros so zero-skipping variants see realistic work.
fn bench_tile(t: usize) -> Tile {
    let mut state = 0x5EED_0000_u64 | t as u64;
    let data: Vec<f32> = (0..t * t)
        .map(|i| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            if i % 17 == 0 {
                0.0
            } else {
                ((state >> 40) as f32) / ((1u64 << 23) as f32) - 1.0
            }
        })
        .collect();
    Tile::from_vec(t, data).expect("bench tile dimensions are consistent")
}

/// Spin-like benchmark input: about a third exact zeros, the rest ±1-ish.
fn bench_input(t: usize) -> Vec<f32> {
    (0..t)
        .map(|i| {
            if i % 3 == 0 {
                0.0
            } else if i % 2 == 0 {
                1.0
            } else {
                -1.0
            }
        })
        .collect()
}

/// Host key: hostname (if known) plus target arch — plans don't travel
/// between machines. Public so `repro tune` records the same key next to
/// the timing table it persists.
#[must_use]
pub fn host_key() -> String {
    let host = std::env::var("HOSTNAME").unwrap_or_else(|_| "unknown".to_string());
    let host = if host.trim().is_empty() {
        "unknown".to_string()
    } else {
        host.trim().to_string()
    };
    format!("{host}-{}", std::env::consts::ARCH)
}

/// Cache file location (see module docs). `None` disables persistence.
fn cache_path() -> Option<PathBuf> {
    if let Ok(p) = std::env::var("SOPHIE_KERNEL_CACHE") {
        if !p.trim().is_empty() {
            return Some(PathBuf::from(p));
        }
    }
    let base = std::env::var("XDG_CACHE_HOME")
        .ok()
        .filter(|p| !p.trim().is_empty())
        .map(PathBuf::from)
        .or_else(|| {
            std::env::var("HOME")
                .ok()
                .filter(|p| !p.trim().is_empty())
                .map(|h| PathBuf::from(h).join(".cache"))
        })
        .unwrap_or_else(std::env::temp_dir);
    Some(base.join("sophie").join("kernel-tune"))
}

/// Parses one `plan <t> <fwd> <trn>` line.
fn parse_plan_line(line: &str) -> Option<(usize, KernelPlan)> {
    let mut it = line.split_whitespace();
    if it.next()? != "plan" {
        return None;
    }
    let t: usize = it.next()?.parse().ok()?;
    let forward = KernelVariant::parse(it.next()?)?;
    let transposed = KernelVariant::parse(it.next()?)?;
    Some((
        t,
        KernelPlan {
            forward,
            transposed,
        },
    ))
}

fn load_cached(t: usize) -> Option<KernelPlan> {
    let text = std::fs::read_to_string(cache_path()?).ok()?;
    let mut lines = text.lines();
    if lines.next()?.trim() != CACHE_VERSION {
        return None;
    }
    if lines.next()?.trim() != format!("host {}", host_key()) {
        return None;
    }
    lines
        .filter_map(parse_plan_line)
        .find(|&(pt, _)| pt == t)
        .map(|(_, plan)| plan)
}

/// Merges the plan for `t` into the cache file, rewriting it whole.
/// All failures are swallowed: the cache is an optimization.
fn store_cached(t: usize, plan: KernelPlan) {
    let Some(path) = cache_path() else { return };
    let mut plans: Vec<(usize, KernelPlan)> = std::fs::read_to_string(&path)
        .ok()
        .and_then(|text| {
            let mut lines = text.lines();
            (lines.next()?.trim() == CACHE_VERSION
                && lines.next()?.trim() == format!("host {}", host_key()))
            .then(|| lines.filter_map(parse_plan_line).collect())
        })
        .unwrap_or_default();
    plans.retain(|&(pt, _)| pt != t);
    plans.push((t, plan));
    plans.sort_by_key(|&(pt, _)| pt);

    if let Some(dir) = path.parent() {
        if std::fs::create_dir_all(dir).is_err() {
            return;
        }
    }
    let Ok(mut f) = std::fs::File::create(&path) else {
        return;
    };
    let _ = writeln!(f, "{CACHE_VERSION}");
    let _ = writeln!(f, "host {}", host_key());
    for (pt, p) in plans {
        let _ = writeln!(f, "plan {pt} {} {}", p.forward.name(), p.transposed.name());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_produces_full_table_and_valid_plan() {
        let report = measure(16);
        assert_eq!(report.tile_size, 16);
        assert_eq!(report.table.len(), KernelVariant::ALL.len());
        for &(_, f_ns, t_ns) in &report.table {
            assert!(f_ns > 0.0 && f_ns.is_finite());
            assert!(t_ns > 0.0 && t_ns.is_finite());
        }
        assert!(report.ns_for(KernelVariant::Scalar, true) > 0.0);
    }

    #[test]
    fn plan_lines_round_trip() {
        let plan = KernelPlan {
            forward: KernelVariant::B32U2,
            transposed: KernelVariant::Axpy,
        };
        let line = format!("plan 64 {} {}", plan.forward.name(), plan.transposed.name());
        assert_eq!(parse_plan_line(&line), Some((64, plan)));
        assert_eq!(parse_plan_line("plan x scalar scalar"), None);
        assert_eq!(parse_plan_line("plan 64 b8u4 b8u4"), None);
        assert_eq!(parse_plan_line("nonsense"), None);
    }

    /// Serializes access to `SOPHIE_KERNEL_CACHE` within this test binary.
    static ENV_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn cache_file_round_trips_through_env_override() {
        let _g = ENV_LOCK.lock().unwrap();
        let dir = std::env::temp_dir().join(format!("sophie-tune-test-{}", std::process::id()));
        let path = dir.join("cache");
        std::env::set_var("SOPHIE_KERNEL_CACHE", &path);
        let plan = KernelPlan {
            forward: KernelVariant::Axpy,
            transposed: KernelVariant::B32U2,
        };
        store_cached(96, plan);
        store_cached(32, KernelPlan::scalar());
        assert_eq!(load_cached(96), Some(plan));
        assert_eq!(load_cached(32), Some(KernelPlan::scalar()));
        assert_eq!(load_cached(64), None);
        // A version bump (simulated by corrupting the header) invalidates.
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, text.replace(CACHE_VERSION, "sophie-kernel-tune-v0")).unwrap();
        assert_eq!(load_cached(96), None);
        std::env::remove_var("SOPHIE_KERNEL_CACHE");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A version-1 cache (naming variants and a pair strategy this version
    /// does not know) is ignored wholesale: the plan is re-tuned from the
    /// known variants and the file rewritten at the current version.
    #[test]
    fn v1_cache_naming_a_deleted_variant_is_retuned() {
        let _g = ENV_LOCK.lock().unwrap();
        let dir = std::env::temp_dir().join(format!("sophie-tune-v1-{}", std::process::id()));
        let path = dir.join("cache");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(
            &path,
            format!(
                "sophie-kernel-tune-v1\nhost {}\nplan 24 b8u4 b16u4 sequential\n",
                host_key()
            ),
        )
        .unwrap();
        std::env::set_var("SOPHIE_KERNEL_CACHE", &path);
        assert_eq!(load_cached(24), None);
        let plan = tuned_plan(24);
        assert!(KernelVariant::ALL.contains(&plan.forward));
        assert!(KernelVariant::ALL.contains(&plan.transposed));
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(
            text.starts_with(CACHE_VERSION),
            "cache rewritten at {CACHE_VERSION}"
        );
        assert!(!text.contains("b8u4") && !text.contains("sequential"));
        assert_eq!(load_cached(24), Some(plan));
        std::env::remove_var("SOPHIE_KERNEL_CACHE");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn tuned_plan_is_memoized() {
        let a = tuned_plan(8);
        let b = tuned_plan(8);
        assert_eq!(a, b);
    }
}
