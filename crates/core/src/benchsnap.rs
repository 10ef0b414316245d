//! Per-PR perf snapshots: `BENCH_<name>.json`.
//!
//! The ROADMAP tracks a perf trajectory across PRs; every tool that can
//! measure something writes one small JSON file per run through this
//! module so the files stay diffable and uniformly shaped. Each entry
//! pairs a *wall* measurement (host-dependent, trend only) with a
//! *simulated-cycle* measurement (deterministic, regression-gateable).
//!
//! # Schema version
//!
//! Snapshots carry a top-level `schema_version` field, and
//! [`parse_bench_json`] reads exactly one: [`BENCH_SCHEMA_VERSION`]. A
//! snapshot is a regenerable measurement, so a file without the field or
//! with another version is rejected and gets rebuilt by rerunning the
//! tool that wrote it. The regression gate ([`diff_snapshots`]) compares
//! *cycles* exactly — they are deterministic replay counts — and only
//! flags *wall* moves outside a tolerance band, since wall time is host
//! noise.

use crate::error::QoaError;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// One measured workload class.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BenchEntry {
    /// Class label, e.g. `richards/full`.
    pub class: String,
    /// Wall nanoseconds (host-dependent; trend only).
    pub wall_nanos: u64,
    /// Simulated cycles (micro-ops) — deterministic.
    pub cycles: u64,
}

/// The schema version [`render_bench_json`] writes.
pub const BENCH_SCHEMA_VERSION: u64 = 2;

/// Renders the snapshot body. Entry order is preserved; only the
/// `wall_nanos` values vary across hosts.
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
            "    {{\"class\": \"{}\", \"wall_nanos\": {}, \"cycles\": {}}}{}\n",
            e.class, e.wall_nanos, e.cycles, sep
        ));
    }
    out.push_str("  ],\n");
    let wall: u64 = entries.iter().map(|e| e.wall_nanos).sum();
    let cycles: u64 = entries.iter().map(|e| e.cycles).sum();
    out.push_str(&format!(
        "  \"totals\": {{\"wall_nanos\": {wall}, \"cycles\": {cycles}}}\n"
    ));
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

/// A parsed `BENCH_<name>.json` snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchSnapshot {
    /// Bench family name (the `<name>` in the filename).
    pub bench: String,
    /// Tool that produced the snapshot.
    pub tool: String,
    /// Seed the measured run used.
    pub seed: u64,
    /// Measured classes, in file order.
    pub entries: Vec<BenchEntry>,
}

impl BenchSnapshot {
    /// The entry for `class`, if measured.
    pub fn class(&self, class: &str) -> Option<&BenchEntry> {
        self.entries.iter().find(|e| e.class == class)
    }
}

/// Parses a snapshot written under [`BENCH_SCHEMA_VERSION`].
///
/// Validates that the recorded `totals` (when present) match the sum of
/// the class entries, so a hand-edited file cannot silently misreport.
///
/// # Errors
///
/// A message describing the first syntax or shape problem.
pub fn parse_bench_json(text: &str) -> Result<BenchSnapshot, String> {
    use qoa_obs::perfetto::json::{parse, Value};

    let root = parse(text)?;
    let Value::Object(map) = root else {
        return Err("bench snapshot is not a JSON object".into());
    };
    let version = map.get("schema_version").and_then(Value::as_i64);
    if version != Some(BENCH_SCHEMA_VERSION as i64) {
        let found = version.map_or_else(|| "missing".to_string(), |v| v.to_string());
        return Err(format!(
            "snapshot schema_version is {found}, not {BENCH_SCHEMA_VERSION}: \
             regenerate the snapshot with the tool that wrote it"
        ));
    }
    let str_field = |key: &str| -> Result<String, String> {
        map.get(key)
            .and_then(Value::as_str)
            .map(str::to_owned)
            .ok_or(format!("missing or non-string \"{key}\""))
    };
    let u64_of = |v: &Value, what: &str| -> Result<u64, String> {
        v.as_i64().filter(|v| *v >= 0).map(|v| v as u64).ok_or(format!(
            "{what} is not a non-negative integer"
        ))
    };
    let bench = str_field("bench")?;
    let tool = str_field("tool")?;
    let seed = u64_of(map.get("seed").ok_or("missing \"seed\"")?, "seed")?;
    let Some(Value::Array(classes)) = map.get("classes") else {
        return Err("missing or non-array \"classes\"".into());
    };
    let mut entries = Vec::with_capacity(classes.len());
    for (i, item) in classes.iter().enumerate() {
        let Value::Object(e) = item else {
            return Err(format!("classes[{i}] is not an object"));
        };
        entries.push(BenchEntry {
            class: e
                .get("class")
                .and_then(Value::as_str)
                .ok_or(format!("classes[{i}] missing \"class\""))?
                .to_owned(),
            wall_nanos: u64_of(
                e.get("wall_nanos").ok_or(format!("classes[{i}] missing \"wall_nanos\""))?,
                "wall_nanos",
            )?,
            cycles: u64_of(
                e.get("cycles").ok_or(format!("classes[{i}] missing \"cycles\""))?,
                "cycles",
            )?,
        });
    }
    if let Some(Value::Object(totals)) = map.get("totals") {
        let sum: u64 = entries.iter().map(|e| e.cycles).sum();
        if let Some(recorded) = totals.get("cycles").and_then(Value::as_i64) {
            if recorded as u64 != sum {
                return Err(format!(
                    "totals.cycles {recorded} does not match class sum {sum}"
                ));
            }
        }
    }
    Ok(BenchSnapshot { bench, tool, seed, entries })
}

/// One class's baseline-vs-current measurement pair.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassDelta {
    /// Class label.
    pub class: String,
    /// Simulated cycles in the baseline snapshot.
    pub baseline_cycles: u64,
    /// Simulated cycles in the current snapshot.
    pub current_cycles: u64,
    /// Baseline wall nanoseconds (host-dependent).
    pub baseline_wall_nanos: u64,
    /// Current wall nanoseconds (host-dependent).
    pub current_wall_nanos: u64,
}

/// The outcome of diffing a current snapshot against a baseline.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BenchDiff {
    /// Classes whose simulated cycles *increased* — gate failures.
    pub regressions: Vec<ClassDelta>,
    /// Classes whose simulated cycles decreased (refresh the baseline).
    pub improvements: Vec<ClassDelta>,
    /// Classes whose wall time moved outside the tolerance band.
    /// Report-only: wall time is host noise, never a gate.
    pub wall_outliers: Vec<ClassDelta>,
    /// Classes measured now but absent from the baseline.
    pub added: Vec<String>,
    /// Classes in the baseline that the current run no longer measures.
    /// Coverage loss gates like a regression: a class the panel dropped
    /// is a class the gate can no longer attest.
    pub removed: Vec<String>,
}

impl BenchDiff {
    /// True when the regression gate should fail the run.
    pub fn gate_failed(&self) -> bool {
        !self.regressions.is_empty() || !self.removed.is_empty()
    }

    /// Renders a human-readable report, one line per finding, ending in
    /// the gate verdict. Deterministic: findings are already in sorted
    /// class order.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for d in &self.regressions {
            let _ = writeln!(
                out,
                "REGRESSION  {}: {} -> {} cycles (+{})",
                d.class,
                d.baseline_cycles,
                d.current_cycles,
                d.current_cycles - d.baseline_cycles
            );
        }
        for class in &self.removed {
            let _ = writeln!(out, "REGRESSION  {class}: dropped from the panel");
        }
        for d in &self.improvements {
            let _ = writeln!(
                out,
                "improved    {}: {} -> {} cycles (-{}); refresh the baseline",
                d.class,
                d.baseline_cycles,
                d.current_cycles,
                d.baseline_cycles - d.current_cycles
            );
        }
        for d in &self.wall_outliers {
            let _ = writeln!(
                out,
                "wall-drift  {}: {} -> {} ns (report only)",
                d.class, d.baseline_wall_nanos, d.current_wall_nanos
            );
        }
        for class in &self.added {
            let _ = writeln!(out, "new class   {class}: no baseline yet");
        }
        let _ = writeln!(out, "gate: {}", if self.gate_failed() { "FAIL" } else { "ok" });
        out
    }
}

/// Diffs `current` against `baseline`.
///
/// Cycles compare exactly (deterministic). Wall times compare within
/// `wall_band_pct` percent of the baseline value; moves beyond the band
/// are reported but never gate. All finding lists come out sorted by
/// class label so the report bytes are stable.
pub fn diff_snapshots(
    baseline: &BenchSnapshot,
    current: &BenchSnapshot,
    wall_band_pct: f64,
) -> BenchDiff {
    let base: BTreeMap<&str, &BenchEntry> =
        baseline.entries.iter().map(|e| (e.class.as_str(), e)).collect();
    let cur: BTreeMap<&str, &BenchEntry> =
        current.entries.iter().map(|e| (e.class.as_str(), e)).collect();
    let mut diff = BenchDiff::default();
    for (class, c) in &cur {
        let Some(b) = base.get(class) else {
            diff.added.push((*class).to_owned());
            continue;
        };
        let delta = ClassDelta {
            class: (*class).to_owned(),
            baseline_cycles: b.cycles,
            current_cycles: c.cycles,
            baseline_wall_nanos: b.wall_nanos,
            current_wall_nanos: c.wall_nanos,
        };
        match c.cycles.cmp(&b.cycles) {
            std::cmp::Ordering::Greater => diff.regressions.push(delta.clone()),
            std::cmp::Ordering::Less => diff.improvements.push(delta.clone()),
            std::cmp::Ordering::Equal => {}
        }
        let band = (b.wall_nanos as f64) * wall_band_pct / 100.0;
        if (c.wall_nanos as f64 - b.wall_nanos as f64).abs() > band {
            diff.wall_outliers.push(delta);
        }
    }
    diff.removed =
        base.keys().filter(|k| !cur.contains_key(**k)).map(|k| (*k).to_owned()).collect();
    diff
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_shape_is_stable() {
        let entries = vec![
            BenchEntry { class: "go/full".into(), wall_nanos: 10, cycles: 100 },
            BenchEntry { class: "go/checked".into(), wall_nanos: 20, cycles: 300 },
        ];
        let body = render_bench_json("serve", "qoa-loadgen", 7, &entries);
        assert!(body.contains("\"schema_version\": 2"));
        assert!(body.contains("\"bench\": \"serve\""));
        assert!(body.contains("\"class\": \"go/full\""));
        assert!(body.contains("\"totals\": {\"wall_nanos\": 30, \"cycles\": 400}"));
    }

    #[test]
    fn v2_snapshots_round_trip_through_the_parser() {
        let entries = vec![
            BenchEntry { class: "go/opt0/interp".into(), wall_nanos: 11, cycles: 500 },
            BenchEntry { class: "go/opt2/jit".into(), wall_nanos: 7, cycles: 200 },
        ];
        let snap =
            parse_bench_json(&render_bench_json("trajectory", "qoa-bench", 42, &entries))
                .expect("parses");
        assert_eq!(snap.bench, "trajectory");
        assert_eq!(snap.tool, "qoa-bench");
        assert_eq!(snap.seed, 42);
        assert_eq!(snap.entries.len(), 2);
        assert_eq!(snap.class("go/opt2/jit").expect("present").cycles, 200);
    }

    #[test]
    fn parser_rejects_future_versions_and_corrupt_totals() {
        let future = "{\"schema_version\": 99, \"bench\": \"x\", \"tool\": \"t\", \
                      \"seed\": 0, \"classes\": []}";
        assert!(parse_bench_json(future).expect_err("future version").contains("99"));
        let corrupt = "{\"schema_version\": 2, \"bench\": \"x\", \"tool\": \"t\", \"seed\": 0, \
                       \"classes\": [{\"class\": \"a\", \"wall_nanos\": 1, \"cycles\": 10}], \
                       \"totals\": {\"wall_nanos\": 1, \"cycles\": 11}}";
        assert!(parse_bench_json(corrupt).expect_err("bad totals").contains("totals.cycles"));
    }

    #[test]
    fn diff_gates_on_cycle_regressions_and_dropped_classes() {
        let snap = |cycles_a: u64, wall_a: u64, extra: bool| BenchSnapshot {
            bench: "t".into(),
            tool: "t".into(),
            seed: 0,
            entries: {
                let mut v = vec![
                    BenchEntry { class: "a".into(), wall_nanos: wall_a, cycles: cycles_a },
                    BenchEntry { class: "b".into(), wall_nanos: 100, cycles: 50 },
                ];
                if extra {
                    v.push(BenchEntry { class: "c".into(), wall_nanos: 1, cycles: 1 });
                }
                v
            },
        };
        // Identical snapshots: clean gate even with a huge wall band.
        let clean = diff_snapshots(&snap(100, 100, false), &snap(100, 100, false), 25.0);
        assert!(!clean.gate_failed());
        assert!(clean.render().contains("gate: ok"));

        // Cycles up on `a`: regression. Wall halved: outlier, not a gate.
        let d = diff_snapshots(&snap(100, 100, true), &snap(120, 50, false), 25.0);
        assert_eq!(d.regressions.len(), 1);
        assert_eq!(d.regressions[0].class, "a");
        assert_eq!(d.removed, vec!["c".to_owned()]);
        assert_eq!(d.wall_outliers.len(), 1);
        assert!(d.gate_failed());
        let report = d.render();
        assert!(report.contains("REGRESSION  a: 100 -> 120 cycles (+20)"), "{report}");
        assert!(report.contains("REGRESSION  c: dropped"), "{report}");
        assert!(report.contains("gate: FAIL"), "{report}");

        // Cycles down: improvement only; new class is informational.
        let d = diff_snapshots(&snap(100, 100, false), &snap(80, 100, true), 25.0);
        assert_eq!(d.improvements.len(), 1);
        assert_eq!(d.added, vec!["c".to_owned()]);
        assert!(!d.gate_failed());
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
