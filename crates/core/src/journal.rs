//! The JSON-lines run journal.
//!
//! Every completed measurement cell — success or failure — is one line
//! under `results/<figure>.journal.jsonl`, keyed by (figure, workload,
//! runtime, parameter, value, configuration hash). Rerunning a figure
//! binary skips cells already journaled under the same configuration, so
//! a killed sweep resumes where it left off and a finished sweep re-renders
//! instantly from recorded metrics.
//!
//! A journal's first record rewrites the file atomically (temp file +
//! rename), which drops stale and half-written lines; each later record
//! appends its one line, and [`Journal::compact`] (called when a batch
//! finishes) rewrites the file atomically once more, sorted by cell. So a
//! batch writes each line once plus two whole files, not a whole file per
//! cell. A crash can leave at most one half-written line, at the end of
//! the file: it fails to parse, so opening skips it and its cell reruns.
//! Until a later record rewrites the file, the cells appended after
//! that crash stay unsorted but are still honoured.
//!
//! Besides its outcome, a line may carry the executor's attempt count
//! (`"attempts"`, written by [`Journal::record_supervised`]) and, from
//! `qoa-chaos` only, the cell's chaos-engine counters (`"chaos"`, written
//! by [`Journal::record_with_chaos`]).
//!
//! There is no `serde` in the dependency tree: lines are rendered by hand
//! and read back through the stack's one JSON codec,
//! [`qoa_obs::perfetto::json`], whose exact integers keep cycle counts
//! exact. Floats are written with Rust's shortest round-trip `Display`,
//! which makes a resumed figure byte-identical to an uninterrupted one.

use crate::error::QoaError;
use qoa_obs::perfetto::json::{self, encode_str, Value};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// Journal line format version.
///
/// The journal is a cache, not an archive: a line whose `"version"` is
/// anything but this one (including the unversioned lines of the first
/// format) is skipped when the journal is opened, and its cell reruns.
/// Bump it whenever a line's meaning changes.
pub const JOURNAL_VERSION: i64 = 5;

/// One journaled measurement value.
#[derive(Debug, Clone, PartialEq)]
pub enum Metric {
    /// An exact integer (cycle counts, collection counts).
    Int(i64),
    /// A float, stored with shortest round-trip formatting.
    Num(f64),
    /// A label (e.g. a formatted best-nursery size).
    Str(String),
}

impl Metric {
    /// The value as f64 (integers widen).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Metric::Int(v) => Some(*v as f64),
            Metric::Num(v) => Some(*v),
            Metric::Str(_) => None,
        }
    }

    /// The value as i64.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Metric::Int(v) => Some(*v),
            _ => None,
        }
    }
}

/// Named metrics of one successful cell, in insertion-stable order.
pub type CellMetrics = BTreeMap<String, Metric>;

/// The identity of one measurement cell within a figure.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct CellKey {
    /// Workload name (the figure x-axis entry).
    pub workload: String,
    /// Runtime kind (`CPython`, `PyPyJit`, ...).
    pub runtime: String,
    /// Swept parameter name (`nursery`, `IssueWidth`, ...).
    pub param: String,
    /// The parameter value, already formatted.
    pub value: String,
}

impl CellKey {
    /// Builds a key from displayable parts.
    pub fn new(
        workload: impl Into<String>,
        runtime: impl Into<String>,
        param: impl Into<String>,
        value: impl Into<String>,
    ) -> Self {
        CellKey {
            workload: workload.into(),
            runtime: runtime.into(),
            param: param.into(),
            value: value.into(),
        }
    }
}

impl std::fmt::Display for CellKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{} {}={}", self.workload, self.runtime, self.param, self.value)
    }
}

/// What the journal remembers about a completed cell.
#[derive(Debug, Clone, PartialEq)]
pub enum CellOutcome {
    /// The cell succeeded with these metrics.
    Ok(CellMetrics),
    /// The cell failed.
    Failed {
        /// [`QoaError::kind`] tag.
        kind: String,
        /// Rendered error message.
        message: String,
        /// Panic site (`file:line:column`) when the failure was a caught
        /// panic whose hook saw a location.
        location: Option<String>,
    },
    /// The supervised executor declined to run the cell: load shedding
    /// under a budget gate. Distinct from `Failed` — nothing about the
    /// cell itself is known to be wrong, and a later run under a lighter
    /// load may measure it.
    Shed {
        /// Why admission was denied (`budget`).
        reason: String,
    },
}

impl CellOutcome {
    /// A cell the executor's watchdog abandoned: journaled as failed with
    /// kind `lost`.
    pub fn lost() -> CellOutcome {
        CellOutcome::Failed {
            kind: "lost".to_string(),
            message: "worker hung past the cell deadline; abandoned by the watchdog".to_string(),
            location: None,
        }
    }
}

/// Everything one journal line records about a cell.
#[derive(Debug)]
struct Entry {
    outcome: CellOutcome,
    /// Times the cell ran under the supervised executor (the
    /// `"attempts"` field; 0 = shed, never ran).
    attempts: Option<u32>,
    /// The cell's chaos-engine counters (faults injected, recoveries by
    /// kind, checkpoints written, restores), kept beside the outcome's
    /// own metrics. Only `qoa-chaos` writes them.
    chaos: Option<CellMetrics>,
}

/// A figure binary's persistent record of completed cells.
#[derive(Debug)]
pub struct Journal {
    path: PathBuf,
    figure: String,
    config: String,
    entries: BTreeMap<CellKey, Entry>,
    /// Whether this journal has rewritten the file, so a record may
    /// append to it. Until then the file may hold stale, foreign or
    /// half-written lines, or (under `fresh`) prior contents to drop.
    rewritten: bool,
    /// Whether lines were appended since the last rewrite, leaving the
    /// file out of key order.
    appended: bool,
}

impl Journal {
    /// Opens (or starts) the journal for `figure` under `dir`.
    ///
    /// Existing entries are honored only when their configuration hash
    /// matches `config`; `fresh` ignores the journal's prior contents
    /// entirely (they are overwritten on the first record).
    ///
    /// # Errors
    ///
    /// Returns [`QoaError::Journal`] when the journal file exists but
    /// cannot be read.
    pub fn open(
        dir: &Path,
        figure: &str,
        config: impl Into<String>,
        fresh: bool,
    ) -> Result<Journal, QoaError> {
        let config = config.into();
        let path = dir.join(format!("{figure}.journal.jsonl"));
        let mut journal = Journal {
            path,
            figure: figure.to_string(),
            config,
            entries: BTreeMap::new(),
            rewritten: false,
            appended: false,
        };
        if fresh || !journal.path.exists() {
            return Ok(journal);
        }
        let text = std::fs::read_to_string(&journal.path)
            .map_err(|e| QoaError::journal(format!("reading {}", journal.path.display()), e))?;
        for line in text.lines().filter(|l| !l.trim().is_empty()) {
            // A malformed line (old format, manual edit) is skipped, not
            // fatal: the cell simply reruns.
            // An appended line may re-record a cell; the last one wins.
            if let Some((key, entry)) = journal.parse_line(line) {
                journal.entries.insert(key, entry);
            }
        }
        Ok(journal)
    }

    /// Where the journal lives on disk.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Number of entries currently honored.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no cells are recorded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Looks up a completed cell.
    pub fn get(&self, key: &CellKey) -> Option<&CellOutcome> {
        self.entries.get(key).map(|entry| &entry.outcome)
    }

    /// Records a completed cell and persists it (see the module docs).
    ///
    /// # Errors
    ///
    /// Returns [`QoaError::Journal`] when the journal file cannot be
    /// written.
    pub fn record(&mut self, key: CellKey, outcome: CellOutcome) -> Result<(), QoaError> {
        self.persist(key, Entry { outcome, attempts: None, chaos: None })
    }

    /// Records a completed cell with its chaos-engine counters (embedded
    /// as the line's `"chaos"` object) and persists it (see the module
    /// docs).
    ///
    /// # Errors
    ///
    /// Returns [`QoaError::Journal`] when the journal file cannot be
    /// written.
    pub fn record_with_chaos(
        &mut self,
        key: CellKey,
        outcome: CellOutcome,
        chaos: CellMetrics,
    ) -> Result<(), QoaError> {
        self.persist(key, Entry { outcome, attempts: None, chaos: Some(chaos) })
    }

    /// Records a completed cell with the number of times the parallel
    /// executor ran it (the line's `"attempts"` field) and persists it
    /// (see the module docs).
    ///
    /// # Errors
    ///
    /// Returns [`QoaError::Journal`] when the journal file cannot be
    /// written.
    pub fn record_supervised(
        &mut self,
        key: CellKey,
        outcome: CellOutcome,
        attempts: u32,
    ) -> Result<(), QoaError> {
        self.persist(key, Entry { outcome, attempts: Some(attempts), chaos: None })
    }

    /// The executor attempt count recorded with a cell, if any.
    pub fn attempts(&self, key: &CellKey) -> Option<u32> {
        self.entries.get(key)?.attempts
    }

    /// The chaos-engine counters recorded with a cell, if any.
    pub fn chaos(&self, key: &CellKey) -> Option<&CellMetrics> {
        self.entries.get(key)?.chaos.as_ref()
    }

    /// Rewrites the journal atomically in key order if records were
    /// appended since the last rewrite. Call it when a batch of records
    /// is done; the file then reads exactly as if every record had
    /// rewritten it.
    ///
    /// # Errors
    ///
    /// Returns [`QoaError::Journal`] when the temp file cannot be written
    /// or renamed into place.
    pub fn compact(&mut self) -> Result<(), QoaError> {
        if self.appended {
            self.rewrite()?;
        }
        Ok(())
    }

    /// Records `entry` as `key`'s line, replacing any earlier one, and
    /// makes it durable: appends the line, or rewrites the whole file
    /// when this journal has not written it yet.
    fn persist(&mut self, key: CellKey, entry: Entry) -> Result<(), QoaError> {
        let mut line = String::new();
        self.encode_line(&mut line, &key, &entry);
        self.entries.insert(key, entry);
        if !self.rewritten {
            return self.rewrite();
        }
        let mut file = std::fs::OpenOptions::new()
            .append(true)
            .open(&self.path)
            .map_err(|e| QoaError::journal(format!("opening {}", self.path.display()), e))?;
        file.write_all(line.as_bytes())
            .map_err(|e| QoaError::journal(format!("appending to {}", self.path.display()), e))?;
        self.appended = true;
        Ok(())
    }

    fn rewrite(&mut self) -> Result<(), QoaError> {
        if let Some(dir) = self.path.parent() {
            std::fs::create_dir_all(dir)
                .map_err(|e| QoaError::journal(format!("creating {}", dir.display()), e))?;
        }
        let mut text = String::new();
        for (key, entry) in &self.entries {
            self.encode_line(&mut text, key, entry);
        }
        let tmp = self.path.with_extension("jsonl.tmp");
        std::fs::write(&tmp, text)
            .map_err(|e| QoaError::journal(format!("writing {}", tmp.display()), e))?;
        std::fs::rename(&tmp, &self.path)
            .map_err(|e| QoaError::journal(format!("renaming into {}", self.path.display()), e))?;
        self.rewritten = true;
        self.appended = false;
        Ok(())
    }

    // ---- encoding --------------------------------------------------------

    fn encode_line(&self, out: &mut String, key: &CellKey, entry: &Entry) {
        out.push('{');
        for (name, value) in [
            ("figure", self.figure.as_str()),
            ("config", self.config.as_str()),
        ] {
            encode_str(out, name);
            out.push(':');
            encode_str(out, value);
            out.push(',');
        }
        let _ = write!(out, "\"version\":{JOURNAL_VERSION},");
        for (name, value) in [
            ("workload", key.workload.as_str()),
            ("runtime", key.runtime.as_str()),
            ("param", key.param.as_str()),
            ("value", key.value.as_str()),
        ] {
            encode_str(out, name);
            out.push(':');
            encode_str(out, value);
            out.push(',');
        }
        match &entry.outcome {
            CellOutcome::Ok(metrics) => {
                out.push_str("\"status\":\"ok\",\"metrics\":");
                encode_metrics(out, metrics);
            }
            CellOutcome::Failed { kind, message, location } => {
                out.push_str("\"status\":\"failed\",\"kind\":");
                encode_str(out, kind);
                out.push_str(",\"error\":");
                encode_str(out, message);
                if let Some(at) = location {
                    out.push_str(",\"location\":");
                    encode_str(out, at);
                }
            }
            CellOutcome::Shed { reason } => {
                out.push_str("\"status\":\"shed\",\"reason\":");
                encode_str(out, reason);
            }
        }
        if let Some(attempts) = entry.attempts {
            let _ = write!(out, ",\"attempts\":{attempts}");
        }
        if let Some(chaos) = &entry.chaos {
            out.push_str(",\"chaos\":");
            encode_metrics(out, chaos);
        }
        out.push_str("}\n");
    }

    // ---- decoding --------------------------------------------------------

    fn parse_line(&self, line: &str) -> Option<(CellKey, Entry)> {
        let Ok(Value::Object(fields)) = json::parse(line) else { return None };
        let str_of = |name: &str| fields.get(name)?.as_str();
        // The journal is a cache: a line written under any other format
        // version (or none) is skipped and its cell reruns.
        if str_of("figure")? != self.figure
            || str_of("config")? != self.config
            || fields.get("version")? != &Value::Int(JOURNAL_VERSION)
        {
            return None;
        }
        // An optional metrics object: `Some(None)` when absent, `None`
        // when present but malformed (the line is skipped).
        let metrics_of = |name: &str| match fields.get(name) {
            Some(Value::Object(raw)) => Some(Some(parse_metrics(raw)?)),
            Some(_) => None,
            None => Some(None),
        };
        let key = CellKey::new(
            str_of("workload")?,
            str_of("runtime")?,
            str_of("param")?,
            str_of("value")?,
        );
        let outcome = match str_of("status")? {
            "ok" => CellOutcome::Ok(metrics_of("metrics")??),
            "failed" => CellOutcome::Failed {
                kind: str_of("kind")?.to_string(),
                message: str_of("error")?.to_string(),
                location: match fields.get("location") {
                    Some(v) => Some(v.as_str()?.to_string()),
                    None => None,
                },
            },
            "shed" => CellOutcome::Shed { reason: str_of("reason")?.to_string() },
            _ => return None,
        };
        let attempts = match fields.get("attempts") {
            Some(Value::Int(n)) => Some(u32::try_from(*n).ok()?),
            None => None,
            // A mistyped field is malformed; skip the line so the cell
            // reruns.
            Some(_) => return None,
        };
        let chaos = metrics_of("chaos")?;
        Some((key, Entry { outcome, attempts, chaos }))
    }
}

fn encode_metrics(out: &mut String, metrics: &CellMetrics) {
    out.push('{');
    let mut first = true;
    for (name, metric) in metrics {
        if !first {
            out.push(',');
        }
        first = false;
        encode_str(out, name);
        out.push(':');
        match metric {
            Metric::Int(v) => {
                let _ = write!(out, "{v}");
            }
            Metric::Num(v) => encode_f64(out, *v),
            Metric::Str(s) => encode_str(out, s),
        }
    }
    out.push('}');
}

fn parse_metrics(raw: &BTreeMap<String, Value>) -> Option<CellMetrics> {
    let mut metrics = CellMetrics::new();
    for (name, v) in raw {
        let metric = match v {
            Value::Int(i) => Metric::Int(*i),
            Value::Num(f) => Metric::Num(*f),
            // A tagged non-finite float round-trips back to a number.
            Value::Str(s) => match s.strip_prefix("!f64:").map(str::parse::<f64>) {
                Some(Ok(f)) => Metric::Num(f),
                _ => Metric::Str(s.clone()),
            },
            _ => return None,
        };
        metrics.insert(name.clone(), metric);
    }
    Some(metrics)
}

fn encode_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        // Shortest round-trip representation; re-parsing yields the same
        // bits, which is what makes resumed figures byte-identical.
        let mut s = format!("{v}");
        if !s.contains(['.', 'e', 'E']) {
            // "1" would re-parse as an Int; keep the float marker.
            s.push_str(".0");
        }
        out.push_str(&s);
    } else {
        // NaN/inf can't appear in JSON; preserve them as tagged strings.
        let _ = write!(out, "\"!f64:{v}\"");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("qoa-journal-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("temp dir");
        dir
    }

    fn sample_metrics() -> CellMetrics {
        let mut m = CellMetrics::new();
        m.insert("cycles".into(), Metric::Int(123_456_789));
        m.insert("miss_rate".into(), Metric::Num(0.017_345_812_234));
        m.insert("best".into(), Metric::Str("2MB \"quoted\"".into()));
        m
    }

    #[test]
    fn record_and_reload_round_trips() {
        let dir = tmp_dir("roundtrip");
        let key = CellKey::new("go", "PyPyJit", "nursery", "1048576");
        {
            let mut j = Journal::open(&dir, "fig10", "cfg1", false).expect("open");
            j.record(key.clone(), CellOutcome::Ok(sample_metrics())).expect("record");
            j.record(
                CellKey::new("telco", "PyPyJit", "nursery", "1048576"),
                CellOutcome::Failed {
                    kind: "panic".into(),
                    message: "boom\nline2".into(),
                    location: Some("crates/vm/src/interp.rs:241:9".into()),
                },
            )
            .expect("record");
        }
        let j = Journal::open(&dir, "fig10", "cfg1", false).expect("reopen");
        assert_eq!(j.len(), 2);
        assert_eq!(j.get(&key), Some(&CellOutcome::Ok(sample_metrics())));
        let failed = j.get(&CellKey::new("telco", "PyPyJit", "nursery", "1048576"));
        assert!(matches!(failed, Some(CellOutcome::Failed { kind, .. }) if kind == "panic"));
        assert!(matches!(
            failed,
            Some(CellOutcome::Failed { location: Some(at), .. }) if at.contains("interp.rs:241")
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_re_recorded_cell_reads_back_as_its_last_line() {
        let dir = tmp_dir("rerecord");
        let key = CellKey::new("go", "CPython", "scale", "small");
        let other = CellKey::new("float", "CPython", "scale", "small");
        let mut chaos = CellMetrics::new();
        chaos.insert("restores".into(), Metric::Int(1));
        let mut j = Journal::open(&dir, "prof", "cfg", false).expect("open");
        j.record_with_chaos(key.clone(), CellOutcome::Ok(CellMetrics::new()), chaos)
            .expect("record");
        j.record(other.clone(), CellOutcome::Ok(CellMetrics::new())).expect("append");
        j.record(key.clone(), CellOutcome::Ok(sample_metrics())).expect("append");
        let appended = std::fs::read_to_string(j.path()).expect("read");
        assert_eq!(appended.lines().count(), 3, "{appended}");

        let reread = Journal::open(&dir, "prof", "cfg", false).expect("reopen");
        assert_eq!(reread.get(&key), Some(&CellOutcome::Ok(sample_metrics())));
        assert_eq!(reread.chaos(&key), None);
        assert_eq!(reread.len(), 2);
        j.compact().expect("compact");
        let compacted = std::fs::read_to_string(j.path()).expect("read");
        assert_eq!(compacted.lines().count(), 2, "{compacted}");
        assert!(compacted.starts_with(
            "{\"figure\":\"prof\",\"config\":\"cfg\",\"version\":5,\"workload\":\"float\""
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn config_mismatch_invalidates_entries() {
        let dir = tmp_dir("config");
        let key = CellKey::new("go", "CPython", "nursery", "1");
        {
            let mut j = Journal::open(&dir, "fig10", "old", false).expect("open");
            j.record(key.clone(), CellOutcome::Ok(CellMetrics::new())).expect("record");
        }
        let j = Journal::open(&dir, "fig10", "new", false).expect("reopen");
        assert!(j.get(&key).is_none(), "stale-config entry must not be honored");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fresh_ignores_prior_entries() {
        let dir = tmp_dir("fresh");
        let key = CellKey::new("go", "CPython", "nursery", "1");
        {
            let mut j = Journal::open(&dir, "fig10", "cfg", false).expect("open");
            j.record(key.clone(), CellOutcome::Ok(CellMetrics::new())).expect("record");
        }
        let j = Journal::open(&dir, "fig10", "cfg", true).expect("fresh open");
        assert!(j.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn floats_round_trip_bit_for_bit() {
        for v in [0.1, 1.0, -0.0, 1e-17, 123456.75, f64::NAN, f64::INFINITY] {
            let mut out = String::new();
            encode_f64(&mut out, v);
            let line = format!("{{\"x\":{out}}}");
            let Ok(Value::Object(raw)) = json::parse(&line) else { panic!("{line}") };
            let got = parse_metrics(&raw).expect("metrics")["x"].as_f64().expect("number");
            assert!(
                got.to_bits() == v.to_bits() || (got.is_nan() && v.is_nan()),
                "{v} -> {line} -> {got}"
            );
        }
    }

    #[test]
    fn chaos_counters_round_trip() {
        let dir = tmp_dir("chaos");
        let key = CellKey::new("go", "CPython", "seed", "7");
        let mut chaos = CellMetrics::new();
        chaos.insert("faults_injected".into(), Metric::Int(3));
        chaos.insert("recoveries_total{kind=\"fuel\"}".into(), Metric::Int(2));
        {
            let mut j = Journal::open(&dir, "qoa-chaos", "cfg", false).expect("open");
            let outcome = CellOutcome::Ok(sample_metrics());
            j.record_with_chaos(key.clone(), outcome, chaos.clone()).expect("record");
        }
        let j = Journal::open(&dir, "qoa-chaos", "cfg", false).expect("reopen");
        assert_eq!(j.get(&key), Some(&CellOutcome::Ok(sample_metrics())));
        assert_eq!(j.chaos(&key), Some(&chaos));
        // The line self-describes with the current version.
        let text = std::fs::read_to_string(j.path()).expect("read");
        assert!(text.contains("\"version\":5,"), "line: {text}");
        assert!(text.contains(",\"chaos\":{"), "line: {text}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn shed_and_attempts_fields_round_trip() {
        let dir = tmp_dir("attempts");
        let shed_key = CellKey::new("go", "PyPyJit", "nursery", "4096");
        let ok_key = CellKey::new("float", "PyPyJit", "nursery", "4096");
        {
            let mut j = Journal::open(&dir, "fig10", "cfg", false).expect("open");
            j.record_supervised(shed_key.clone(), CellOutcome::Shed { reason: "budget".into() }, 0)
                .expect("record shed");
            j.record_supervised(ok_key.clone(), CellOutcome::Ok(sample_metrics()), 3)
                .expect("record ok");
        }
        let j = Journal::open(&dir, "fig10", "cfg", false).expect("reopen");
        assert_eq!(j.get(&shed_key), Some(&CellOutcome::Shed { reason: "budget".into() }));
        assert_eq!(j.attempts(&shed_key), Some(0));
        assert_eq!(j.get(&ok_key), Some(&CellOutcome::Ok(sample_metrics())));
        assert_eq!(j.attempts(&ok_key), Some(3));
        let text = std::fs::read_to_string(j.path()).expect("read");
        assert!(text.contains("\"reason\":\"budget\",\"attempts\":0}"), "line: {text}");
        assert!(text.contains("},\"attempts\":3}"), "line: {text}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn mistyped_attempts_field_invalidates_the_line() {
        let dir = tmp_dir("badattempts");
        let path = dir.join("fig10.journal.jsonl");
        // A string where the count belongs: malformed, must rerun not misread.
        let bad = "{\"figure\":\"fig10\",\"config\":\"cfg\",\"version\":5,\
                   \"workload\":\"go\",\"runtime\":\"CPython\",\"param\":\"p\",\
                   \"value\":\"1\",\"status\":\"ok\",\"metrics\":{},\"attempts\":\"2\"}\n";
        std::fs::write(&path, bad).expect("write");
        let j = Journal::open(&dir, "fig10", "cfg", false).expect("open");
        assert!(j.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn malformed_lines_are_skipped_not_fatal() {
        let dir = tmp_dir("malformed");
        let path = dir.join("figX.journal.jsonl");
        std::fs::write(&path, "this is not json\n{\"figure\":\"figX\"\n").expect("write");
        let j = Journal::open(&dir, "figX", "cfg", false).expect("open");
        assert!(j.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
