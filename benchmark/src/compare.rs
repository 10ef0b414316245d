//! `qoa-benchmark compare`: two sets of runs, judged metric by metric.
//!
//! Each directory holds one file per run, named `<workload>.<n>.json`,
//! whose last line is the run's result line. Runs with the same `n` form
//! a pair; run the two sides interleaved, alternating which goes first,
//! because this host's speed drifts over hours. For every workload and
//! end-to-end metric the report gives each side's median and quartiles,
//! the share of pairs the second side won (ties count for neither), and
//! a verdict:
//!
//! * `unresolved` when either side's quartile spread exceeds the metric's
//!   bound, unless every run of B reads better than every run of A
//!   (then `improved`);
//! * `improved` when B wins at least nine tenths of the pairs and the
//!   medians differ, in B's favour, by more than A's quartile spread;
//! * `regressed` when B's median is worse than A's by more than the bound;
//! * `unchanged` otherwise.

use crate::spec::{Better, MetricSpec, Spec};
use crate::stats::quartiles;
use qoa_obs::perfetto::json::{self, Value};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

/// One run's result line.
struct RunResult {
    failed: u64,
    metrics: BTreeMap<String, f64>,
}

/// Runs per workload, ordered by run number.
type Runs = BTreeMap<String, Vec<(u64, RunResult)>>;

fn parse_result(text: &str) -> Result<RunResult, String> {
    let line = text.lines().rev().find(|l| !l.trim().is_empty()).ok_or("empty file")?;
    let Value::Object(root) = json::parse(line)? else {
        return Err("result line is not an object".into());
    };
    let failed = root.get("failed").and_then(Value::as_i64).ok_or("no 'failed' count")?;
    let Some(Value::Object(metrics)) = root.get("metrics") else {
        return Err("no 'metrics' object".into());
    };
    let metrics = metrics
        .iter()
        .map(|(name, m)| {
            let Value::Object(m) = m else { return Err(format!("metric '{name}' is malformed")) };
            let v = m.get("value").and_then(Value::as_f64);
            v.map(|v| (name.clone(), v)).ok_or_else(|| format!("metric '{name}' has no value"))
        })
        .collect::<Result<_, _>>()?;
    Ok(RunResult { failed: u64::try_from(failed).map_err(|_| "negative 'failed'")?, metrics })
}

fn load(dir: &Path) -> Result<Runs, String> {
    let mut runs = Runs::new();
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for entry in entries {
        let path = entry.map_err(|e| format!("{}: {e}", dir.display()))?.path();
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else { continue };
        let Some((workload, n)) = name.strip_suffix(".json").and_then(|s| s.rsplit_once('.'))
        else {
            continue;
        };
        let Ok(n) = n.parse::<u64>() else { continue };
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let result = parse_result(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        runs.entry(workload.to_string()).or_default().push((n, result));
    }
    for v in runs.values_mut() {
        v.sort_by_key(|(n, _)| *n);
    }
    Ok(runs)
}

/// The verdict on one metric of one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B is better, by the pair and spread rules.
    Improved,
    /// No difference beyond the bound.
    Unchanged,
    /// B is worse than A by more than the bound.
    Regressed,
    /// The runs spread wider than the bound.
    Unresolved,
}

/// The comparison of one metric of one workload.
#[derive(Debug, Clone, Copy)]
pub struct Judgement {
    /// Quartiles of A's runs.
    pub a: [f64; 3],
    /// Quartiles of B's runs.
    pub b: [f64; 3],
    /// Pairs in which B read better.
    pub wins: usize,
    /// Pairs compared.
    pub pairs: usize,
    /// The verdict.
    pub verdict: Verdict,
}

/// Judges paired samples `a` (parent) and `b` (change) of `metric`.
pub fn judge(metric: &MetricSpec, a: &[f64], b: &[f64]) -> Judgement {
    let bound = metric.bound.unwrap_or(0.0);
    // Gain of B over A, positive when B is better.
    let gain = |x: f64, y: f64| match metric.better {
        Better::Lower => x - y,
        Better::Higher => y - x,
    };
    let (qa, qb) = (quartiles(a), quartiles(b));
    let spread_a = qa[2] - qa[0];
    let limit = bound * qa[1].abs();
    let pairs = a.len().min(b.len());
    let wins = a.iter().zip(b).filter(|(x, y)| gain(**x, **y) > 0.0).count();
    let diff = gain(qa[1], qb[1]);
    let verdict = if spread_a.max(qb[2] - qb[0]) > limit {
        if a.iter().all(|x| b.iter().all(|y| gain(*x, *y) > 0.0)) {
            Verdict::Improved
        } else {
            Verdict::Unresolved
        }
    } else if pairs > 0 && wins * 10 >= pairs * 9 && diff > spread_a {
        Verdict::Improved
    } else if -diff > limit {
        Verdict::Regressed
    } else {
        Verdict::Unchanged
    };
    Judgement { a: qa, b: qb, wins, pairs, verdict }
}

/// Compares the runs in `dir_a` (parent) with those in `dir_b` (change)
/// and renders one row per workload and end-to-end metric. Returns the
/// table and whether any metric regressed.
///
/// # Errors
///
/// An unreadable directory or a malformed result file.
pub fn compare(spec: &Spec, dir_a: &Path, dir_b: &Path) -> Result<(String, bool), String> {
    let (runs_a, runs_b) = (load(dir_a)?, load(dir_b)?);
    let mut out = String::new();
    let mut regressed = false;
    for workload in &spec.workloads {
        let (Some(a), Some(b)) = (runs_a.get(workload), runs_b.get(workload)) else { continue };
        let pairs = a.len().min(b.len());
        let failed = |runs: &[(u64, RunResult)]| runs.iter().map(|(_, r)| r.failed).sum::<u64>();
        let _ = writeln!(
            out,
            "{workload}: {pairs} pairs, failed items A {} / B {}",
            failed(a),
            failed(b)
        );
        for metric in &spec.end_to_end {
            let values = |runs: &[(u64, RunResult)]| -> Vec<f64> {
                runs[..pairs]
                    .iter()
                    .filter_map(|(_, r)| r.metrics.get(&metric.name).copied())
                    .collect()
            };
            let (va, vb) = (values(a), values(b));
            if va.len() != pairs || vb.len() != pairs {
                let _ = writeln!(out, "  {:<14} missing from some runs", metric.name);
                continue;
            }
            let j = judge(metric, &va, &vb);
            regressed |= j.verdict == Verdict::Regressed;
            let _ = writeln!(
                out,
                "  {:<12} A {:.6} [{:.6}, {:.6}]  B {:.6} [{:.6}, {:.6}] {}  B won {}/{}  {:?}",
                metric.name,
                j.a[1],
                j.a[0],
                j.a[2],
                j.b[1],
                j.b[0],
                j.b[2],
                metric.unit,
                j.wins,
                j.pairs,
                j.verdict
            );
        }
    }
    Ok((out, regressed))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wall(bound: f64) -> MetricSpec {
        MetricSpec {
            name: "wall_s".into(),
            unit: "s".into(),
            better: Better::Lower,
            bound: Some(bound),
        }
    }

    #[test]
    fn verdicts_follow_pairs_spread_and_bound() {
        let a = [1.00, 1.01, 0.99, 1.00, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00];
        let faster: Vec<f64> = a.iter().map(|x| x * 0.8).collect();
        let slower: Vec<f64> = a.iter().map(|x| x * 1.2).collect();
        let same: Vec<f64> = a.iter().rev().copied().collect();
        assert_eq!(judge(&wall(0.1), &a, &faster).verdict, Verdict::Improved);
        assert_eq!(judge(&wall(0.1), &a, &slower).verdict, Verdict::Regressed);
        assert_eq!(judge(&wall(0.1), &a, &same).verdict, Verdict::Unchanged);
        assert_eq!(judge(&wall(0.001), &a, &same).verdict, Verdict::Unresolved);
        assert_eq!(judge(&wall(0.001), &a, &faster).verdict, Verdict::Improved);
    }

    #[test]
    fn result_lines_parse() {
        let line = "noise\n{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
                    {\"wall_s\": {\"value\": 1.5, \"unit\": \"s\"}}}\n";
        let r = parse_result(line).expect("parses");
        assert_eq!(r.failed, 0);
        assert_eq!(r.metrics["wall_s"], 1.5);
    }
}
