//! End-to-end supervision tests: `Harness::run` drives real captures
//! (optionally under seeded per-cell chaos plans) through the parallel
//! executor, and the resulting journal must be byte-identical for any
//! `jobs` count — the executor's determinism contract, observed at the
//! persistence layer rather than the API. A runtime failing every cell
//! must land in the journal and the Prometheus exposition as that many
//! failures, and trip the harness's exit gate.

use qoa_core::harness::{capture_cell, CellChaos};
use qoa_core::journal::{CellKey, CellMetrics, Metric};
use qoa_core::runtime::RuntimeConfig;
use qoa_core::{ExecutorOptions, Harness, HarnessOptions, QoaError, SupervisedCell};
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
fn a_broken_runtime_fails_every_cell_and_trips_the_exit_gate() {
    let dir = temp_dir("broken-runtime");
    let mut opts = HarnessOptions::new("broken", "itest");
    opts.journal_dir = dir.clone();
    let mut h = Harness::open(opts).expect("open harness");
    // A figure-shaped batch: 20 workloads x 3 runtimes, one runtime
    // failing every cell.
    let mut specs: Vec<SupervisedCell<CellMetrics>> = Vec::new();
    for w in 0..20 {
        for rt in ["CPython", "PyPyNoJit", "PyPyJit"] {
            let key = CellKey::new(format!("w{w}"), rt, "cell", "0");
            specs.push(SupervisedCell::new(key, move |_| {
                if rt == "PyPyJit" {
                    return Err(QoaError::Guest { message: format!("broken {w}"), line: 1 });
                }
                let mut m = CellMetrics::new();
                m.insert("w".into(), Metric::Int(w));
                Ok(m)
            }));
        }
    }
    let (results, stats) = h.run(specs, &ExecutorOptions::new(4));

    assert_eq!(stats.cells_failed, 20, "every cell of the broken runtime is recorded failed");
    assert_eq!(stats.cells_ok, 40);
    assert_eq!(stats.cells_shed_budget, 0);
    assert!(h.shed().is_empty(), "no cell is shed");
    assert_eq!(h.failures().len(), 20);
    assert!(h.failures().iter().all(|f| f.key.runtime == "PyPyJit" && f.kind == "guest"));
    for (i, r) in results.iter().enumerate() {
        assert_eq!(r.is_none(), i % 3 == 2, "cell {i}");
    }

    let mut reg = qoa_obs::metrics::Registry::new();
    stats.export(&mut reg);
    let text = reg.expose();
    assert!(text.contains("qoa_executor_cells_total{outcome=\"failed\"} 20"), "{text}");
    qoa_obs::parse_exposition(&text).expect("exposition round-trips");

    let journal = std::fs::read_to_string(dir.join("broken.journal.jsonl")).expect("journal");
    assert_eq!(journal.matches("\"status\":\"failed\"").count(), 20, "{journal}");
    assert!(!journal.contains("\"status\":\"shed\""), "{journal}");

    // 20 of 60 cells failed: above the default 25% gate.
    assert_eq!(h.finish(), 1);
    let _ = std::fs::remove_dir_all(&dir);
}
