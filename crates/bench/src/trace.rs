//! JSONL solve-event capture (the `repro trace` command).
//!
//! Runs one SOPHIE job on a named benchmark instance and streams every
//! [`sophie_solve::SolveEvent`] through a [`sophie_solve::EventWriter`]
//! into a file, one JSON object per line. The schema is documented in
//! `EXPERIMENTS.md` (§ "Event traces"); the stream is deterministic for a
//! fixed (instance, config, seed) and independent of `SOPHIE_THREADS`, so
//! traces diff cleanly across machines and revisions.

use std::fs::File;
use std::io::BufWriter;
use std::path::{Path, PathBuf};

use std::sync::Arc;

use sophie_core::SophieConfig;
use sophie_solve::{EventWriter, SolveJob, Solver};

use crate::fidelity::Fidelity;
use crate::instances::Instances;

/// The temporary sibling used by the atomic-write protocol:
/// `<out>.tmp` in the same directory (so the final rename never crosses a
/// filesystem boundary).
fn tmp_sibling(out: &Path) -> PathBuf {
    let mut name = out
        .file_name()
        .map(std::ffi::OsStr::to_os_string)
        .unwrap_or_else(|| "out".into());
    name.push(".tmp");
    out.with_file_name(name)
}

/// Annotates an I/O error with the path it concerns, so CLI failures on
/// unwritable output locations name the offending file.
fn with_path(path: &Path, e: std::io::Error) -> std::io::Error {
    std::io::Error::new(e.kind(), format!("{}: {e}", path.display()))
}

/// Writes `content` to `out` atomically: the bytes land in a `.tmp`
/// sibling first and are renamed over `out` only once complete, so
/// readers never observe a partial file and a failed run never clobbers
/// an existing good one.
///
/// # Errors
///
/// Returns I/O errors (annotated with the path) from the write or rename;
/// the temporary file is removed on failure.
pub fn write_atomic(out: &Path, content: &[u8]) -> std::io::Result<()> {
    let tmp = tmp_sibling(out);
    let result = std::fs::write(&tmp, content).and_then(|()| std::fs::rename(&tmp, out));
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    result.map_err(|e| with_path(out, e))
}

/// What a trace capture produced, for the command-line summary.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceSummary {
    /// JSON lines written to the output file.
    pub events_written: u64,
    /// Best cut found by the traced run.
    pub best_cut: f64,
}

/// Runs one SOPHIE job on instance `name` with `seed` and writes its
/// event stream as JSONL to `out`.
///
/// The solver configuration matches the Fig. 6 operating point (tile 64,
/// 10 local iterations, all tiles selected, φ = 0.05) with the fidelity's
/// global-iteration budget, so a fast trace stays small while a full one
/// covers a paper-scale anneal.
///
/// # Errors
///
/// Returns I/O errors from creating or writing `out`.
///
/// # Panics
///
/// Panics on an unknown instance name (same names as the experiments:
/// `"G1"`, `"G22"`, `"K100"`, or `"K<n>"`).
pub fn write_trace(
    inst: &mut Instances,
    name: &str,
    seed: u64,
    fidelity: Fidelity,
    out: &Path,
) -> std::io::Result<TraceSummary> {
    let graph = inst.graph(name);
    let config = SophieConfig {
        tile_size: 64,
        local_iters: 10,
        global_iters: fidelity.global_iters(),
        tile_fraction: 1.0,
        phi: 0.05,
        alpha: 0.0,
        stochastic_spin_update: true,
    };
    let solver = inst.solver(name, &config);
    // Stream into a temporary sibling, then rename: an interrupted or
    // failed trace never leaves a truncated JSONL behind.
    let tmp = tmp_sibling(out);
    let result = (|| {
        let mut writer = EventWriter::new(BufWriter::new(File::create(&tmp)?));
        let report = solver
            .solve(&SolveJob::new(Arc::clone(&graph), seed), &mut writer)
            .expect("engine runs are infallible after construction");
        let events_written = writer.events_written();
        writer.finish()?;
        std::fs::rename(&tmp, out)?;
        Ok(TraceSummary {
            events_written,
            best_cut: report.best_cut,
        })
    })();
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    result.map_err(|e| with_path(out, e))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_file_is_line_delimited_json_with_run_framing() {
        let dir = std::env::temp_dir().join("sophie_trace_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("k100.jsonl");
        let mut inst = Instances::new();
        let summary = write_trace(&mut inst, "K100", 1, Fidelity::Fast, &path).unwrap();

        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len() as u64, summary.events_written);
        assert!(lines[0].starts_with(r#"{"event":"run_started""#));
        assert!(lines[0].contains(r#""solver":"sophie""#));
        assert!(lines
            .last()
            .unwrap()
            .starts_with(r#"{"event":"run_finished""#));
        for line in &lines {
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        }
        assert!(
            !tmp_sibling(&path).exists(),
            "atomic write must clean up its temporary"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn write_atomic_replaces_content_and_cleans_up() {
        let dir = std::env::temp_dir().join(format!("sophie_atomic_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("data.jsonl");
        write_atomic(&path, b"old\n").unwrap();
        write_atomic(&path, b"new\n").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "new\n");
        assert!(!tmp_sibling(&path).exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unwritable_paths_error_with_the_path_named() {
        // A regular file as the parent "directory" is unwritable on every
        // platform, and — unlike a merely absent directory — nothing can
        // accidentally bring it into existence.
        let dir = std::env::temp_dir().join(format!("sophie_unwritable_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let blocker = dir.join("blocker");
        std::fs::write(&blocker, b"not a directory").unwrap();
        let path = blocker.join("trace.jsonl");
        let err = write_atomic(&path, b"x").unwrap_err();
        assert!(
            err.to_string().contains("blocker"),
            "error must name the path: {err}"
        );
        let mut inst = Instances::new();
        let err = write_trace(&mut inst, "K100", 0, Fidelity::Fast, &path).unwrap_err();
        assert!(err.to_string().contains("trace.jsonl"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
