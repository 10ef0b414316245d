//! The typed metrics registry and its Prometheus-style text exposition.
//!
//! Three metric kinds, mirroring the Prometheus data model:
//!
//! * **counters** — monotonically accumulated `u64`s (dispatch counts per
//!   opcode, cycles per Table-II category, cache accesses),
//! * **gauges** — point-in-time `f64`s (miss rates, survival rates,
//!   overhead shares),
//! * **histograms** — power-of-two ("log2") bucketed distributions
//!   (sample stack depths, phase-batch lengths in cycles).
//!
//! Metrics are addressed by a copyable [`MetricId`] handle so hot-path
//! updates are two array indexations — no hashing, no allocation.
//! Registration (which does allocate) happens once, up front. A family may
//! carry one label key (`{opcode="LoadFast"}`-style series); registering
//! the same `(family, label value)` twice returns the existing handle.
//!
//! [`Registry::expose`] renders the standard text exposition format and
//! [`parse_exposition`] validates it back — the round-trip contract behind
//! the golden tests and `qoa-prof --check`.

use std::collections::BTreeMap;
use std::collections::HashMap;
use std::fmt::Write as _;

/// Number of log2 histogram buckets (`le = 2^0 .. 2^62`, plus `+Inf`).
const HIST_BUCKETS: usize = 63;

/// The metric kind, matching the `# TYPE` line of the exposition format.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonic accumulated count.
    Counter,
    /// Point-in-time value.
    Gauge,
    /// Log2-bucketed distribution.
    Histogram,
}

impl MetricKind {
    /// The `# TYPE` keyword.
    pub fn keyword(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

/// A log2-bucketed histogram: bucket `k` counts observations `v` with
/// `v <= 2^k`; everything larger lands in `+Inf`.
#[derive(Debug, Clone)]
pub struct Histogram {
    buckets: Vec<u64>,
    sum: u64,
    count: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram { buckets: vec![0; HIST_BUCKETS], sum: 0, count: 0 }
    }
}

impl Histogram {
    fn observe(&mut self, v: u64) {
        let k = if v <= 1 {
            0
        } else {
            (64 - (v - 1).leading_zeros() as usize).min(HIST_BUCKETS - 1)
        };
        self.buckets[k] += 1;
        self.sum = self.sum.saturating_add(v);
        self.count += 1;
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observed values (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Cumulative count of observations `<= 2^k`.
    pub fn cumulative(&self, k: usize) -> u64 {
        self.buckets.iter().take(k + 1).sum()
    }

    fn highest_used_bucket(&self) -> usize {
        self.buckets.iter().rposition(|&c| c > 0).unwrap_or(0)
    }
}

#[derive(Debug, Clone)]
enum Value {
    Counter(u64),
    Gauge(f64),
    Histogram(Histogram),
}

#[derive(Debug, Clone)]
struct Series {
    /// Label value, when the family is labeled.
    label: Option<String>,
    value: Value,
}

#[derive(Debug, Clone)]
struct Family {
    name: String,
    help: String,
    kind: MetricKind,
    label_key: Option<&'static str>,
    series: Vec<Series>,
}

/// Copyable handle to one metric series.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricId {
    family: u32,
    series: u32,
}

/// The metrics registry.
#[derive(Debug, Default)]
pub struct Registry {
    families: Vec<Family>,
    by_name: HashMap<String, u32>,
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers (or finds) an unlabeled counter.
    ///
    /// # Panics
    ///
    /// Panics if `name` is invalid or already registered with a different
    /// kind or labeling — that is a programming error, not run-time input.
    pub fn counter(&mut self, name: &str, help: &str) -> MetricId {
        self.series(name, help, MetricKind::Counter, None, None)
    }

    /// Registers (or finds) a counter series inside a labeled family.
    ///
    /// # Panics
    ///
    /// Panics on kind/label mismatch with an earlier registration.
    pub fn labeled_counter(
        &mut self,
        name: &str,
        help: &str,
        label_key: &'static str,
        label_value: &str,
    ) -> MetricId {
        self.series(name, help, MetricKind::Counter, Some(label_key), Some(label_value))
    }

    /// Registers (or finds) an unlabeled gauge.
    ///
    /// # Panics
    ///
    /// Panics on kind/label mismatch with an earlier registration.
    pub fn gauge(&mut self, name: &str, help: &str) -> MetricId {
        self.series(name, help, MetricKind::Gauge, None, None)
    }

    /// Registers (or finds) a gauge series inside a labeled family.
    ///
    /// # Panics
    ///
    /// Panics on kind/label mismatch with an earlier registration.
    pub fn labeled_gauge(
        &mut self,
        name: &str,
        help: &str,
        label_key: &'static str,
        label_value: &str,
    ) -> MetricId {
        self.series(name, help, MetricKind::Gauge, Some(label_key), Some(label_value))
    }

    /// Registers (or finds) an unlabeled log2-bucket histogram.
    ///
    /// # Panics
    ///
    /// Panics on kind/label mismatch with an earlier registration.
    pub fn histogram(&mut self, name: &str, help: &str) -> MetricId {
        self.series(name, help, MetricKind::Histogram, None, None)
    }

    fn series(
        &mut self,
        name: &str,
        help: &str,
        kind: MetricKind,
        label_key: Option<&'static str>,
        label_value: Option<&str>,
    ) -> MetricId {
        assert!(valid_name(name), "invalid metric name {name:?}");
        let family = match self.by_name.get(name) {
            Some(&idx) => {
                let f = &self.families[idx as usize];
                assert!(
                    f.kind == kind && f.label_key == label_key,
                    "metric {name} re-registered with different kind or label"
                );
                idx
            }
            None => {
                let idx = self.families.len() as u32;
                self.families.push(Family {
                    name: name.to_string(),
                    help: help.to_string(),
                    kind,
                    label_key,
                    series: Vec::new(),
                });
                self.by_name.insert(name.to_string(), idx);
                idx
            }
        };
        let fam = &mut self.families[family as usize];
        let existing = fam
            .series
            .iter()
            .position(|s| s.label.as_deref() == label_value);
        let series = match existing {
            Some(i) => i as u32,
            None => {
                fam.series.push(Series {
                    label: label_value.map(str::to_string),
                    value: match kind {
                        MetricKind::Counter => Value::Counter(0),
                        MetricKind::Gauge => Value::Gauge(0.0),
                        MetricKind::Histogram => Value::Histogram(Histogram::default()),
                    },
                });
                (fam.series.len() - 1) as u32
            }
        };
        MetricId { family, series }
    }

    fn value_mut(&mut self, id: MetricId) -> &mut Value {
        &mut self.families[id.family as usize].series[id.series as usize].value
    }

    /// Adds `delta` to a counter. No-op (debug-asserted) on other kinds.
    pub fn add(&mut self, id: MetricId, delta: u64) {
        match self.value_mut(id) {
            Value::Counter(v) => *v = v.saturating_add(delta),
            _ => debug_assert!(false, "add() on non-counter"),
        }
    }

    /// Increments a counter by one.
    pub fn inc(&mut self, id: MetricId) {
        self.add(id, 1);
    }

    /// Sets a gauge. No-op (debug-asserted) on other kinds.
    pub fn set(&mut self, id: MetricId, value: f64) {
        match self.value_mut(id) {
            Value::Gauge(v) => *v = value,
            _ => debug_assert!(false, "set() on non-gauge"),
        }
    }

    /// Records one observation into a histogram. No-op (debug-asserted) on
    /// other kinds.
    pub fn observe(&mut self, id: MetricId, value: u64) {
        match self.value_mut(id) {
            Value::Histogram(h) => h.observe(value),
            _ => debug_assert!(false, "observe() on non-histogram"),
        }
    }

    /// Current counter value (zero for other kinds).
    pub fn counter_value(&self, id: MetricId) -> u64 {
        match &self.families[id.family as usize].series[id.series as usize].value {
            Value::Counter(v) => *v,
            _ => 0,
        }
    }

    /// Renders the registry in the Prometheus text exposition format.
    pub fn expose(&self) -> String {
        let mut out = String::new();
        for fam in &self.families {
            let _ = writeln!(out, "# HELP {} {}", fam.name, escape_help(&fam.help));
            let _ = writeln!(out, "# TYPE {} {}", fam.name, fam.kind.keyword());
            for s in &fam.series {
                let labels = match (&fam.label_key, &s.label) {
                    (Some(k), Some(v)) => format!("{{{}={}}}", k, quote_label(v)),
                    _ => String::new(),
                };
                match &s.value {
                    Value::Counter(v) => {
                        let _ = writeln!(out, "{}{} {}", fam.name, labels, v);
                    }
                    Value::Gauge(v) => {
                        let _ = writeln!(out, "{}{} {}", fam.name, labels, fmt_f64(*v));
                    }
                    Value::Histogram(h) => {
                        let top = h.highest_used_bucket();
                        let mut cumulative = 0u64;
                        for (k, b) in h.buckets.iter().enumerate().take(top + 1) {
                            cumulative += b;
                            let _ = writeln!(
                                out,
                                "{}_bucket{{le=\"{}\"}} {}",
                                fam.name,
                                1u64 << k,
                                cumulative
                            );
                        }
                        let _ = writeln!(
                            out,
                            "{}_bucket{{le=\"+Inf\"}} {}",
                            fam.name, h.count
                        );
                        let _ = writeln!(out, "{}_sum {}", fam.name, h.sum);
                        let _ = writeln!(out, "{}_count {}", fam.name, h.count);
                    }
                }
            }
        }
        out
    }
}

fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

fn escape_help(help: &str) -> String {
    help.replace('\\', "\\\\").replace('\n', "\\n")
}

fn quote_label(v: &str) -> String {
    let mut out = String::with_capacity(v.len() + 2);
    out.push('"');
    for c in v.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn fmt_f64(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v == f64::INFINITY {
        "+Inf".to_string()
    } else if v == f64::NEG_INFINITY {
        "-Inf".to_string()
    } else {
        format!("{v}")
    }
}

/// A parsed exposition: sample values keyed by full sample name (labels
/// included), plus the declared family kinds.
#[derive(Debug, Clone, PartialEq)]
pub struct Exposition {
    /// `name{labels}` → value, in text order flattened to a map.
    pub samples: BTreeMap<String, f64>,
    /// family name → declared `# TYPE`.
    pub kinds: BTreeMap<String, MetricKind>,
}

impl Exposition {
    /// Looks up one sample by its full name (labels included).
    pub fn get(&self, sample: &str) -> Option<f64> {
        self.samples.get(sample).copied()
    }
}

/// Parses and validates Prometheus text exposition, enforcing:
///
/// * every sample is preceded by a `# TYPE` declaration for its family,
/// * counter and histogram values are finite and non-negative,
/// * histogram buckets are cumulative (non-decreasing in `le` order),
///   `+Inf` equals `_count`, and `_sum`/`_count` are present.
///
/// # Errors
///
/// Returns a message naming the first offending line or family.
pub fn parse_exposition(text: &str) -> Result<Exposition, String> {
    let mut samples = BTreeMap::new();
    let mut kinds: BTreeMap<String, MetricKind> = BTreeMap::new();
    // Per-histogram bucket sequences, in text order.
    let mut hist_buckets: BTreeMap<String, Vec<(f64, f64)>> = BTreeMap::new();

    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split_whitespace();
            let name = parts
                .next()
                .ok_or_else(|| format!("line {}: TYPE without name", lineno + 1))?;
            let kind = match parts.next() {
                Some("counter") => MetricKind::Counter,
                Some("gauge") => MetricKind::Gauge,
                Some("histogram") => MetricKind::Histogram,
                other => {
                    return Err(format!("line {}: bad TYPE {:?}", lineno + 1, other));
                }
            };
            if kinds.insert(name.to_string(), kind).is_some() {
                return Err(format!("line {}: duplicate TYPE for {}", lineno + 1, name));
            }
            continue;
        }
        if line.starts_with('#') {
            continue; // HELP or comment
        }
        let (name_part, value_part) = line
            .rsplit_once(' ')
            .ok_or_else(|| format!("line {}: no value", lineno + 1))?;
        let value = match value_part {
            "+Inf" => f64::INFINITY,
            "-Inf" => f64::NEG_INFINITY,
            v => v
                .parse::<f64>()
                .map_err(|_| format!("line {}: bad value {v:?}", lineno + 1))?,
        };
        let bare = name_part.split('{').next().unwrap_or(name_part);
        let family = kinds
            .keys()
            .find(|f| {
                bare == f.as_str()
                    || (kinds.get(*f) == Some(&MetricKind::Histogram)
                        && (bare == format!("{f}_bucket")
                            || bare == format!("{f}_sum")
                            || bare == format!("{f}_count")))
            })
            .cloned()
            .ok_or_else(|| {
                format!("line {}: sample {bare} has no preceding # TYPE", lineno + 1)
            })?;
        let kind = kinds[&family];
        match kind {
            MetricKind::Counter => {
                if !value.is_finite() || value < 0.0 {
                    return Err(format!(
                        "line {}: counter {bare} has invalid value {value}",
                        lineno + 1
                    ));
                }
            }
            MetricKind::Gauge => {}
            MetricKind::Histogram => {
                if bare == format!("{family}_bucket") {
                    let le = name_part
                        .split("le=\"")
                        .nth(1)
                        .and_then(|s| s.split('"').next())
                        .ok_or_else(|| {
                            format!("line {}: bucket without le label", lineno + 1)
                        })?;
                    let le = if le == "+Inf" {
                        f64::INFINITY
                    } else {
                        le.parse::<f64>().map_err(|_| {
                            format!("line {}: bad le {le:?}", lineno + 1)
                        })?
                    };
                    hist_buckets.entry(family.clone()).or_default().push((le, value));
                }
                if !value.is_finite() || value < 0.0 {
                    return Err(format!(
                        "line {}: histogram sample {bare} has invalid value {value}",
                        lineno + 1
                    ));
                }
            }
        }
        if samples.insert(name_part.to_string(), value).is_some() {
            return Err(format!("line {}: duplicate sample {name_part}", lineno + 1));
        }
    }

    // Histogram invariants.
    for (family, buckets) in &hist_buckets {
        let mut prev_le = f64::NEG_INFINITY;
        let mut prev_v = 0.0f64;
        for &(le, v) in buckets {
            if le <= prev_le {
                return Err(format!("histogram {family}: le values not increasing"));
            }
            if v < prev_v {
                return Err(format!("histogram {family}: buckets not cumulative"));
            }
            prev_le = le;
            prev_v = v;
        }
        let last = buckets.last().map(|&(le, _)| le);
        if last != Some(f64::INFINITY) {
            return Err(format!("histogram {family}: missing +Inf bucket"));
        }
        let count = samples
            .get(&format!("{family}_count"))
            .ok_or_else(|| format!("histogram {family}: missing _count"))?;
        if !samples.contains_key(&format!("{family}_sum")) {
            return Err(format!("histogram {family}: missing _sum"));
        }
        if let Some(&(_, inf_v)) = buckets.last() {
            if inf_v != *count {
                return Err(format!(
                    "histogram {family}: +Inf bucket {inf_v} != _count {count}"
                ));
            }
        }
    }

    Ok(Exposition { samples, kinds })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_update_and_expose() {
        let mut reg = Registry::new();
        let c = reg.counter("qoa_test_total", "A counter.");
        let g = reg.gauge("qoa_test_rate", "A gauge.");
        let lc = reg.labeled_counter("qoa_test_by_kind_total", "Labeled.", "kind", "a");
        let lc2 = reg.labeled_counter("qoa_test_by_kind_total", "Labeled.", "kind", "b");
        reg.add(c, 41);
        reg.inc(c);
        reg.set(g, 0.125);
        reg.add(lc, 7);
        reg.add(lc2, 9);
        // Re-registration returns the same handle.
        assert_eq!(reg.labeled_counter("qoa_test_by_kind_total", "Labeled.", "kind", "a"), lc);
        assert_eq!(reg.counter_value(c), 42);

        let text = reg.expose();
        assert!(text.contains("# HELP qoa_test_total A counter."));
        assert!(text.contains("# TYPE qoa_test_total counter"));
        assert!(text.contains("qoa_test_total 42"));
        assert!(text.contains("qoa_test_rate 0.125"));
        assert!(text.contains("qoa_test_by_kind_total{kind=\"a\"} 7"));
        assert!(text.contains("qoa_test_by_kind_total{kind=\"b\"} 9"));
    }

    #[test]
    fn histogram_buckets_are_log2_and_cumulative() {
        let mut reg = Registry::new();
        let h = reg.histogram("qoa_test_depth", "Depths.");
        for v in [0, 1, 2, 3, 4, 5, 9, 1000] {
            reg.observe(h, v);
        }
        let text = reg.expose();
        // v <= 1 -> le=1 (two observations: 0 and 1)
        assert!(text.contains("qoa_test_depth_bucket{le=\"1\"} 2"));
        assert!(text.contains("qoa_test_depth_bucket{le=\"2\"} 3"));
        assert!(text.contains("qoa_test_depth_bucket{le=\"4\"} 5"));
        assert!(text.contains("qoa_test_depth_bucket{le=\"8\"} 6"));
        assert!(text.contains("qoa_test_depth_bucket{le=\"16\"} 7"));
        assert!(text.contains("qoa_test_depth_bucket{le=\"1024\"} 8"));
        assert!(text.contains("qoa_test_depth_bucket{le=\"+Inf\"} 8"));
        assert!(text.contains("qoa_test_depth_sum 1024"));
        assert!(text.contains("qoa_test_depth_count 8"));

        let parsed = parse_exposition(&text).expect("valid");
        assert_eq!(parsed.get("qoa_test_depth_count"), Some(8.0));
        assert_eq!(parsed.kinds["qoa_test_depth"], MetricKind::Histogram);
    }

    #[test]
    fn exposition_round_trips_through_the_parser() {
        let mut reg = Registry::new();
        let c = reg.counter("qoa_cycles_total", "Cycles.");
        reg.add(c, 123_456_789);
        let g = reg.gauge("qoa_cpi", "CPI.");
        reg.set(g, 1.618_033_988);
        let lg = reg.labeled_gauge("qoa_share", "Shares.", "category", "Dispatch");
        reg.set(lg, 0.07);
        let h = reg.histogram("qoa_batch_cycles", "Batches.");
        reg.observe(h, 300);
        reg.observe(h, 70_000);

        let text = reg.expose();
        let parsed = parse_exposition(&text).expect("valid exposition");
        assert_eq!(parsed.get("qoa_cycles_total"), Some(123_456_789.0));
        assert_eq!(parsed.get("qoa_cpi"), Some(1.618_033_988));
        assert_eq!(parsed.get("qoa_share{category=\"Dispatch\"}"), Some(0.07));
        assert_eq!(parsed.get("qoa_batch_cycles_count"), Some(2.0));
        assert_eq!(parsed.get("qoa_batch_cycles_sum"), Some(70_300.0));
    }

    #[test]
    fn parser_rejects_invalid_expositions() {
        // Sample without TYPE.
        assert!(parse_exposition("qoa_x 1\n").is_err());
        // Negative counter.
        assert!(parse_exposition("# TYPE qoa_x counter\nqoa_x -1\n").is_err());
        // Non-cumulative buckets.
        let bad = "# TYPE qoa_h histogram\n\
                   qoa_h_bucket{le=\"1\"} 5\n\
                   qoa_h_bucket{le=\"2\"} 3\n\
                   qoa_h_bucket{le=\"+Inf\"} 5\n\
                   qoa_h_sum 9\nqoa_h_count 5\n";
        assert!(parse_exposition(bad).is_err());
        // +Inf bucket disagrees with _count.
        let bad = "# TYPE qoa_h histogram\n\
                   qoa_h_bucket{le=\"1\"} 5\n\
                   qoa_h_bucket{le=\"+Inf\"} 5\n\
                   qoa_h_sum 9\nqoa_h_count 6\n";
        assert!(parse_exposition(bad).is_err());
        // Missing +Inf.
        let bad = "# TYPE qoa_h histogram\n\
                   qoa_h_bucket{le=\"1\"} 5\n\
                   qoa_h_sum 9\nqoa_h_count 5\n";
        assert!(parse_exposition(bad).is_err());
    }

    #[test]
    #[should_panic(expected = "different kind")]
    fn kind_mismatch_panics() {
        let mut reg = Registry::new();
        reg.counter("qoa_x", "x");
        reg.gauge("qoa_x", "x");
    }
}
