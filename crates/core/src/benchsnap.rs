//! Per-PR perf snapshots: `BENCH_<name>.json`.
//!
//! The ROADMAP tracks a perf trajectory across PRs; every tool that can
//! measure something writes one small JSON file per run through this
//! module so the files stay diffable and uniformly shaped. Each entry
//! is a *simulated-cycle* count: deterministic and host-independent, so
//! a rerun reproduces a snapshot byte for byte. Host wall time is the
//! layered benchmark's to measure (`benchmark/`), not this module's.
//!
//! # Schema version and the gate
//!
//! Snapshots carry a top-level `schema_version` field,
//! [`BENCH_SCHEMA_VERSION`]. Nothing parses a snapshot back: each
//! committed file is a byte-exact golden, and CI's one check on it is to
//! rerun the tool that wrote it and diff the bytes. Cycles are
//! deterministic replay counts, so any change, up or down, fails that
//! diff until the file is regenerated.

use crate::error::QoaError;
use std::path::{Path, PathBuf};

/// One measured workload class.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BenchEntry {
    /// Class label, e.g. `richards/full`.
    pub class: String,
    /// Simulated cycles (micro-ops) — deterministic.
    pub cycles: u64,
}

/// The schema version [`render_bench_json`] writes.
pub const BENCH_SCHEMA_VERSION: u64 = 3;

/// Renders the snapshot body. Entry order is preserved, and the bytes
/// depend only on the arguments.
pub fn render_bench_json(bench: &str, tool: &str, seed: u64, entries: &[BenchEntry]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"schema_version\": {BENCH_SCHEMA_VERSION},\n"));
    out.push_str(&format!("  \"bench\": \"{bench}\",\n"));
    out.push_str(&format!("  \"tool\": \"{tool}\",\n"));
    out.push_str(&format!("  \"seed\": {seed},\n"));
    out.push_str("  \"classes\": [\n");
    for (i, e) in entries.iter().enumerate() {
        let sep = if i + 1 == entries.len() { "" } else { "," };
        out.push_str(&format!(
            "    {{\"class\": \"{}\", \"cycles\": {}}}{}\n",
            e.class, e.cycles, sep
        ));
    }
    out.push_str("  ],\n");
    let cycles: u64 = entries.iter().map(|e| e.cycles).sum();
    out.push_str(&format!("  \"totals\": {{\"cycles\": {cycles}}}\n"));
    out.push_str("}\n");
    out
}

/// Writes `BENCH_<name>.json` under `dir`, creating the directory.
///
/// # Errors
///
/// [`QoaError::Journal`] on I/O failure.
pub fn write_bench_json(
    dir: &Path,
    name: &str,
    tool: &str,
    seed: u64,
    entries: &[BenchEntry],
) -> Result<PathBuf, QoaError> {
    let io = |context: String| {
        move |source: std::io::Error| QoaError::Journal { context, source }
    };
    std::fs::create_dir_all(dir)
        .map_err(io(format!("creating bench dir {}", dir.display())))?;
    let path = dir.join(format!("BENCH_{name}.json"));
    std::fs::write(&path, render_bench_json(name, tool, seed, entries))
        .map_err(io(format!("writing {}", path.display())))?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_shape_is_stable() {
        let entries = vec![
            BenchEntry { class: "go/full".into(), cycles: 100 },
            BenchEntry { class: "go/checked".into(), cycles: 300 },
        ];
        let body = render_bench_json("serve", "qoa-loadgen", 7, &entries);
        assert!(body.contains("\"schema_version\": 3"));
        assert!(body.contains("\"bench\": \"serve\""));
        assert!(body.contains("    {\"class\": \"go/full\", \"cycles\": 100},\n"));
        assert!(body.contains("\"totals\": {\"cycles\": 400}"));
    }

    #[test]
    fn writes_under_bench_prefix() {
        let dir = std::env::temp_dir().join("qoa-benchsnap-test");
        let path = write_bench_json(&dir, "unit", "test", 1, &[]).expect("writes");
        assert!(path.ends_with("BENCH_unit.json"));
        assert!(path.exists());
        std::fs::remove_dir_all(&dir).ok();
    }
}
