//! Small helpers shared by the workloads: a seeded generator for inputs,
//! order statistics, process memory, host facts and the metric sheet.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// SplitMix64: the benchmark's own input generator, so inputs depend on
/// `--seed` only and never on a library's RNG internals.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform integer in `lo..=hi`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() % (hi - lo + 1) as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

/// A seed derived from `(seed, stream, index)`, independent per stream.
pub fn derive_seed(seed: u64, stream: u64, index: u64) -> u64 {
    let mut g =
        SplitMix::new(seed ^ stream.wrapping_mul(0xd6e8_feb8_6659_fd93) ^ index.rotate_left(32));
    g.next_u64()
}

/// Quantile by linear interpolation between order statistics (the
/// convention of Python's `statistics.quantiles(method="inclusive")`).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The tail latency a sample supports: its 95th percentile, or, when the
/// sample is too small to leave ten values beyond that, the highest
/// percentile that does — down to the median for fewer than 20 values.
pub fn tail(values: &[f64]) -> f64 {
    let q = (1.0 - 10.0 / values.len() as f64).clamp(0.5, 0.95);
    quantile(values, q)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

pub fn secs_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// FNV-1a, used for fingerprints and the source digest.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn eat(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Host and build facts for the output header.
pub fn header_facts() -> Vec<(&'static str, String)> {
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|r| r.trim_start_matches([' ', '\t', ':']).trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let rustc = std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".to_string(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        );
    vec![
        ("nproc", nproc.to_string()),
        (
            "pool_width",
            sophie_linalg::par::worker_count(usize::MAX).to_string(),
        ),
        (
            "sophie_threads",
            std::env::var("SOPHIE_THREADS").unwrap_or_else(|_| "unset".to_string()),
        ),
        ("cpu", cpu),
        ("rustc", rustc),
        ("commit", git_commit()),
        ("source_fnv", format!("{:016x}", source_digest())),
    ]
}

/// The checked-out commit when the working directory is a git checkout;
/// read from `.git` directly so no other repository is ever consulted.
fn git_commit() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "none (not a git checkout; see source_fnv)".to_string(),
    };
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(Path::new(".git").join(r))
            .map_or_else(|_| format!("unresolved {r}"), |s| s.trim().to_string()),
        None => head,
    }
}

/// Digest of the sources under test (workspace manifests, `src`, `crates`
/// and `compat`), identifying the code measured even without git.
fn source_digest() -> u64 {
    fn walk(dir: &Path, files: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, files);
            } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
                files.push(p);
            }
        }
    }
    let mut files = vec![
        Path::new("Cargo.toml").to_path_buf(),
        Path::new("Cargo.lock").to_path_buf(),
    ];
    for d in ["src", "crates", "compat"] {
        walk(Path::new(d), &mut files);
    }
    files.sort();
    let mut h = Fnv::default();
    for f in files {
        h.eat(f.to_string_lossy().as_bytes());
        h.eat(&std::fs::read(&f).unwrap_or_default());
    }
    h.finish()
}

/// Named metrics with units, in insertion order of first use.
#[derive(Debug, Default)]
pub struct Sheet {
    order: Vec<String>,
    values: BTreeMap<String, (f64, &'static str)>,
}

impl Sheet {
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        if self
            .values
            .insert(name.to_string(), (value, unit))
            .is_none()
        {
            self.order.push(name.to_string());
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).map(|&(v, _)| v)
    }

    /// Human-readable lines, one metric each.
    pub fn lines(&self) -> Vec<String> {
        self.order
            .iter()
            .map(|n| {
                let (v, u) = self.values[n];
                format!("  {n} = {v} {u}")
            })
            .collect()
    }

    /// The `metrics` object of the result line, restricted to `names`.
    pub fn json(&self, names: &[&str]) -> String {
        let body: Vec<String> = names
            .iter()
            .map(|n| {
                let (v, u) = self.values.get(*n).copied().unwrap_or_else(|| {
                    panic!("metric {n} was not measured");
                });
                format!("\"{n}\":{{\"value\":{v},\"unit\":\"{u}\"}}")
            })
            .collect();
        format!("{{{}}}", body.join(","))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_like_the_inclusive_method() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert!((quantile(&v, 0.95) - 3.85).abs() < 1e-12);
    }

    #[test]
    fn tail_needs_ten_values_beyond_it() {
        let small: Vec<f64> = (0..10).map(f64::from).collect();
        assert_eq!(tail(&small), median(&small));
        let large: Vec<f64> = (0..400).map(f64::from).collect();
        assert_eq!(tail(&large), quantile(&large, 0.95));
        let mid: Vec<f64> = (0..100).map(f64::from).collect();
        assert_eq!(tail(&mid), quantile(&mid, 0.9));
    }

    #[test]
    fn derived_seeds_differ_by_stream_and_index() {
        assert_ne!(derive_seed(1, 0, 0), derive_seed(1, 1, 0));
        assert_ne!(derive_seed(1, 0, 0), derive_seed(1, 0, 1));
        assert_eq!(derive_seed(5, 2, 3), derive_seed(5, 2, 3));
    }
}
