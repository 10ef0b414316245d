//! End-to-end supervision tests: `Harness::run` drives real captures
//! (optionally under seeded per-cell chaos plans) through the parallel
//! executor, and the resulting journal must be byte-identical for any
//! `jobs` count — the executor's determinism contract, observed at the
//! persistence layer rather than the API. A breaker storm must land in
//! the journal as `shed` outcomes and in the Prometheus exposition as
//! breaker transitions.

use qoa_core::harness::{capture_cell, CellChaos};
use qoa_core::journal::{CellKey, CellMetrics, Metric};
use qoa_core::runtime::RuntimeConfig;
use qoa_core::{
    BreakerOptions, ExecutorOptions, Harness, HarnessOptions, QoaError, SupervisedCell,
};
use qoa_model::RuntimeKind;
use std::path::{Path, PathBuf};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("qoa-supervision-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// Deterministic, allocation- and call-bearing guest program: enough
/// surface for the interpreter fault kinds while staying fast in debug.
const SRC: &str = "t = 0\nfor i in range(300):\n    t = t + i * 2\nresult = t\n";

fn capture_specs(chaos: Option<CellChaos>) -> Vec<SupervisedCell<CellMetrics>> {
    (0..6)
        .map(|i| {
            let key = CellKey::new(format!("w{i}"), "CPython", "cell", i.to_string());
            let mkey = key.clone();
            SupervisedCell::new(key, move |deadline| {
                let rt = RuntimeConfig::new(RuntimeKind::CPython).with_deadline(deadline);
                let run = capture_cell(SRC, &rt, chaos, &mkey)?;
                let mut m = CellMetrics::new();
                m.insert("bytecodes".into(), Metric::Int(run.vm.bytecodes as i64));
                m.insert("trace_len".into(), Metric::Int(run.trace.len() as i64));
                Ok(m)
            })
        })
        .collect()
}

fn run_journal(dir: &Path, jobs: usize, chaos: Option<CellChaos>) -> String {
    let mut opts = HarnessOptions::new("supervised", "itest");
    opts.journal_dir = dir.to_path_buf();
    let mut h = Harness::open(opts).expect("open harness");
    let mut exec = ExecutorOptions::new(jobs);
    exec.seed = 9;
    h.run(capture_specs(chaos), &exec);
    std::fs::read_to_string(dir.join("supervised.journal.jsonl")).expect("journal written")
}

#[test]
fn batch_journals_identically_for_any_jobs_count() {
    let chaos = Some(CellChaos { seed: 11, horizon: 4_000, points: 2 });
    let d1 = temp_dir("parity-j1");
    let d4 = temp_dir("parity-j4");
    let dp = temp_dir("parity-plain");
    let j1 = run_journal(&d1, 1, chaos);
    let j4 = run_journal(&d4, 4, chaos);
    let plain = run_journal(&dp, 1, None);
    assert!(j1.contains("\"status\":\"ok\""), "cells must succeed:\n{j1}");
    assert_eq!(j1, j4, "chaos batch journals must be byte-identical across jobs counts");
    assert_eq!(
        j1, plain,
        "recovered chaos runs must journal the same metrics as fault-free runs"
    );
    for d in [d1, d4, dp] {
        let _ = std::fs::remove_dir_all(&d);
    }
}

#[test]
fn breaker_storm_is_journaled_and_observable() {
    let dir = temp_dir("storm");
    let mut opts = HarnessOptions::new("storm", "itest");
    opts.journal_dir = dir.clone();
    // 12 deterministic failures would otherwise trip the harness's own
    // failure-rate gate in finish(); this test only inspects the journal.
    opts.max_failure_rate = 1.0;
    let mut h = Harness::open(opts).expect("open harness");
    let specs: Vec<SupervisedCell<CellMetrics>> = (0..12)
        .map(|i| {
            let key = CellKey::new(format!("w{i}"), "flaky-rt", "cell", i.to_string());
            SupervisedCell::new(key, move |_| {
                Err(QoaError::Guest { message: format!("storm {i}"), line: 1 })
            })
        })
        .collect();
    let mut exec = ExecutorOptions::new(4);
    exec.breaker = BreakerOptions { failure_threshold: 3, cooldown_sheds: 4 };
    let (results, stats) = h.run(specs, &exec);

    // 3 failures open the breaker; 4 sheds half-open it; the probe fails
    // and reopens it; 4 more sheds half-open it again.
    assert_eq!(stats.cells_failed, 4, "3 to open + 1 failed probe");
    assert_eq!(stats.cells_shed_breaker, 8);
    assert_eq!(stats.breaker_opened, 2);
    assert_eq!(stats.breaker_half_opened, 2);
    assert!(results.iter().all(Option::is_none), "no storm cell yields metrics");
    assert_eq!(h.shed().len(), 8, "the batch surfaces its shed cells in order");
    assert_eq!(h.shed()[0].0, CellKey::new("w3", "flaky-rt", "cell", "3"));

    // Re-presenting a shed cell answers from the journal — no re-run —
    // and surfaces the shed note for finish() accounting.
    let replay = SupervisedCell::new(
        CellKey::new("w11", "flaky-rt", "cell", "11"),
        |_| -> Result<CellMetrics, QoaError> { panic!("journaled shed cells must not re-run") },
    );
    let (replayed, _) = h.run(vec![replay], &exec);
    assert!(replayed[0].is_none());
    assert_eq!(h.cells_skipped(), 1);
    assert_eq!(h.shed().len(), 9, "harness must surface shed cells distinctly");
    assert_eq!(h.shed()[8].0, CellKey::new("w11", "flaky-rt", "cell", "11"));

    let mut reg = qoa_obs::metrics::Registry::new();
    stats.export(&mut reg);
    let text = reg.expose();
    assert!(
        text.contains("qoa_executor_breaker_transitions_total{to=\"open\"} 2"),
        "breaker-open events must be observable in the exposition:\n{text}"
    );
    qoa_obs::parse_exposition(&text).expect("exposition round-trips");

    let journal = std::fs::read_to_string(dir.join("storm.journal.jsonl")).expect("journal");
    assert!(journal.contains("\"status\":\"shed\""), "shed is a first-class outcome:\n{journal}");
    assert!(journal.contains("breaker"), "shed reason must be recorded:\n{journal}");
    let _ = std::fs::remove_dir_all(&dir);
}
