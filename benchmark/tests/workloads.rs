//! Every workload through the library API at smoke size: the contract's
//! metrics are all emitted, exact metrics repeat exactly, and the
//! full-size `trajectory` pass reproduces `qoa-bench`'s cycle total.

use qoa_benchmark::spec::{spec, MetricSpec};
use qoa_benchmark::{run, Report, RunOptions, Size, Workload};
use qoa_obs::perfetto::json::{self, Value};
use std::collections::BTreeSet;

fn smoke(workload: Workload, trace: bool) -> Report {
    let report = run(&RunOptions { workload, size: Size::Smoke, seed: 3, seconds: 0.0, trace });
    assert!(
        report.correct(),
        "{}: {} of {} items failed",
        workload.name(),
        report.failed,
        report.attempted
    );
    assert!(report.attempted > 0, "{}: nothing attempted", workload.name());
    report
}

fn names(metrics: &[MetricSpec]) -> BTreeSet<&str> {
    metrics.iter().map(|m| m.name.as_str()).collect()
}

/// Host-time units; every other unit is a deterministic count or size.
fn is_time(unit: &str) -> bool {
    matches!(unit, "s" | "ms" | "us" | "ns")
}

#[test]
fn contract_lists_every_workload_once() {
    let spec = spec();
    let listed: Vec<&str> = spec.workloads.iter().map(String::as_str).collect();
    let known: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(listed, known);
}

#[test]
fn every_metric_is_emitted_with_its_unit() {
    let spec = spec();
    for workload in Workload::ALL {
        for (trace, wanted) in [(false, &spec.end_to_end), (true, &spec.per_layer)] {
            let report = smoke(workload, trace);
            let emitted: BTreeSet<&str> = report.metrics.keys().copied().collect();
            assert_eq!(emitted, names(wanted), "{} (trace {trace})", workload.name());
            let line = report.render(wanted).expect("renders");
            let Ok(Value::Object(root)) = json::parse(&line) else { panic!("not JSON: {line}") };
            let keys: Vec<&str> = root.keys().map(String::as_str).collect();
            assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
            let Some(Value::Object(metrics)) = root.get("metrics") else { panic!("{line}") };
            for m in wanted.iter() {
                let Some(Value::Object(entry)) = metrics.get(&m.name) else { panic!("{}", m.name) };
                assert_eq!(entry.get("unit").and_then(Value::as_str), Some(m.unit.as_str()));
                assert!(entry.get("value").and_then(Value::as_f64).is_some_and(f64::is_finite));
            }
        }
    }
}

#[test]
fn exact_metrics_repeat_across_calls() {
    let spec = spec();
    for workload in Workload::ALL {
        let (a, b) = (smoke(workload, true), smoke(workload, true));
        for m in spec.per_layer.iter().filter(|m| !is_time(&m.unit)) {
            let name = m.name.as_str();
            assert_eq!(a.metrics[name], b.metrics[name], "{}: {name}", workload.name());
        }
        let (a, b) = (smoke(workload, false), smoke(workload, false));
        assert_eq!(a.metrics["sim_cycles"], b.metrics["sim_cycles"], "{}", workload.name());
        assert!(a.metrics["sim_cycles"] > 0.0, "{}", workload.name());
    }
}

#[test]
fn trajectory_matches_the_committed_panel_total() {
    let opts = RunOptions {
        workload: Workload::Trajectory,
        size: Size::Full,
        seed: 5,
        seconds: 0.0,
        trace: false,
    };
    let report = run(&opts);
    assert!(report.correct());
    // totals.cycles of results/BENCH_trajectory.json.
    assert_eq!(report.metrics["sim_cycles"], 61_308_096.0);
}
