//! `qoa-chaos`: the deterministic fault-injection sweep driver.
//!
//! For every (workload, run-time, seed) cell it measures a fault-free
//! baseline, derives a seeded [`FaultPlan`] whose fault ticks land inside
//! the baseline's bytecode horizon, re-runs the workload under
//! [`capture_chaos`] — checkpoint/restore recovery armed — and asserts
//! the chaos-engine invariants:
//!
//! 1. **No panic escapes**: every cell runs under [`run_isolated`]; a
//!    caught panic is a violation, not a crash.
//! 2. **Typed errors only**: a cell either completes or fails with the
//!    same typed [`QoaError`] kind the baseline produced.
//! 3. **Differential oracle**: any run that completes after injected
//!    faults were recovered must be *byte-identical* to the baseline —
//!    guest result, output, micro-op count, and every counter of the
//!    simulated [`ExecutionStats`](qoa_uarch::ExecutionStats).
//! 4. **Journal stays parseable**: every cell is recorded (v3 `"chaos"`
//!    counters embedded) and the journal is re-opened at the end.
//!
//! JIT run-times additionally get one *degrade-mode* pass per seed:
//! JIT faults deoptimize to the interpreter in place and the run must
//! still complete with the baseline's guest result (the trace is
//! legitimately different, so the oracle is not applied).
//!
//! Aggregated chaos counters are exported through the Prometheus text
//! exposition (`--metrics FILE`), and the exposition is self-checked for
//! the counter families CI gates on. Any violation exits nonzero.

use qoa_chaos::{FaultKind, FaultPlan};
use qoa_core::cli::{CliError, Flags};
use qoa_core::journal::{CellKey, CellMetrics, CellOutcome, Journal, Metric};
use qoa_core::report::Table;
use qoa_core::runtime::{capture, CapturedRun, RuntimeConfig};
use qoa_core::{
    available_jobs, capture_chaos, fault_kinds_for, oracle_check, run_isolated, run_supervised,
    CellVerdict, ChaosOptions, ChaosOutcome, ExecutorOptions, SupervisedCell,
};
use qoa_model::RuntimeKind;
use qoa_obs::metrics::Registry;
use qoa_obs::parse_exposition;
use qoa_uarch::UarchConfig;
use qoa_workloads::{Scale, Workload};
use std::path::PathBuf;

/// The tier-1 smoke subset: small, allocation- and call-diverse, and fast
/// enough for CI at `tiny` scale.
const SMOKE: [&str; 5] = ["go", "float", "richards", "tuple_gc", "unpack_seq"];

/// Fault points per seeded plan.
const POINTS_PER_PLAN: usize = 3;

#[derive(Debug)]
struct ChaosCli {
    seeds: u64,
    all_workloads: bool,
    only_workload: Option<String>,
    runtimes: Vec<RuntimeKind>,
    scale: Scale,
    checkpoint_every: Option<u64>,
    metrics: Option<PathBuf>,
    journal_dir: PathBuf,
    fresh: bool,
    jobs: usize,
}

impl Default for ChaosCli {
    fn default() -> Self {
        ChaosCli {
            seeds: 4,
            all_workloads: false,
            only_workload: None,
            runtimes: vec![RuntimeKind::CPython, RuntimeKind::PyPyJit],
            scale: Scale::Tiny,
            checkpoint_every: None,
            metrics: None,
            journal_dir: PathBuf::from("results"),
            fresh: false,
            jobs: available_jobs(),
        }
    }
}

const USAGE: &str = "flags: --seeds N  --workloads smoke|all  --workload NAME  \
     --runtime cpython|pypy-nojit|pypy-jit|v8|all  --scale tiny|small|full  \
     --checkpoint-every N  --metrics FILE  --journal-dir DIR  --fresh  --jobs N";

fn parse_cli(f: &mut Flags) -> Result<ChaosCli, CliError> {
    let mut out = ChaosCli::default();
    while let Some(flag) = f.next_flag()? {
        match flag.as_str() {
            "--seeds" => out.seeds = f.value()?,
            "--workloads" => {
                out.all_workloads = f.value_with(|v| match v {
                    "smoke" => Ok(false),
                    "all" => Ok(true),
                    _ => Err("expected smoke|all"),
                })?;
            }
            "--workload" => out.only_workload = Some(f.value()?),
            "--runtime" => {
                out.runtimes = f.value_with(|v| match v {
                    "all" => Ok(RuntimeKind::ALL.to_vec()),
                    one => one.parse().map(|kind| vec![kind]).map_err(|_: String| {
                        format!("unknown runtime '{one}' (cpython|pypy-nojit|pypy-jit|v8|all)")
                    }),
                })?;
            }
            "--scale" => out.scale = f.value()?,
            "--checkpoint-every" => out.checkpoint_every = Some(f.value()?),
            "--metrics" => out.metrics = Some(f.value()?),
            "--journal-dir" => out.journal_dir = f.value()?,
            "--fresh" => out.fresh = true,
            "--jobs" => out.jobs = f.value()?,
            _ => return Err(f.unknown()),
        }
    }
    Ok(out)
}

fn runtime_label(kind: RuntimeKind) -> &'static str {
    match kind {
        RuntimeKind::CPython => "cpython",
        RuntimeKind::PyPyNoJit => "pypy-nojit",
        RuntimeKind::PyPyJit => "pypy-jit",
        RuntimeKind::V8 => "v8",
    }
}

/// Everything one (workload, runtime) pair produces: journal records in
/// seed order, oracle/typing violations, and the aggregated counters.
/// Pairs run concurrently under the supervised executor; the committed
/// order (submission order) keeps the journal deterministic for any
/// `--jobs` count.
#[derive(Default)]
struct PairReport {
    records: Vec<(CellKey, CellOutcome, CellMetrics)>,
    violations: Vec<String>,
    totals: ChaosOutcome,
    cells: u64,
    recovered_cells: u64,
    degrade_cells: u64,
}

/// One sweep cell's journal outcome plus its chaos counters.
fn record(report: &mut PairReport, key: CellKey, outcome: CellOutcome, chaos: &ChaosOutcome) {
    report.records.push((key, outcome, chaos.to_metrics()));
}

fn ok_metrics(run: &CapturedRun, chaos: &ChaosOutcome) -> CellMetrics {
    let mut m = CellMetrics::new();
    m.insert("bytecodes".into(), Metric::Int(run.vm.bytecodes as i64));
    m.insert("trace_len".into(), Metric::Int(run.trace.len() as i64));
    m.insert("faults_injected".into(), Metric::Int(chaos.faults_injected_total() as i64));
    m.insert("recoveries".into(), Metric::Int(chaos.recoveries_total() as i64));
    m
}

/// The full chaos sweep for one (workload, runtime) pair: fault-free
/// baseline, `seeds` seeded plans, and the JIT degrade passes.
fn run_pair(
    w: &'static Workload,
    kind: RuntimeKind,
    seeds: u64,
    scale: Scale,
    checkpoint_every: Option<u64>,
    uarch: &UarchConfig,
) -> PairReport {
    let mut report = PairReport::default();
    let source = w.source(scale);
    let rt = RuntimeConfig::new(kind);
    let baseline = run_isolated(|| capture(&source, &rt));
    let (horizon, baseline_run) = match &baseline {
        Ok(run) => (run.vm.bytecodes.max(1), Some(run)),
        Err(f) => {
            eprintln!(
                "  {} / {}: baseline failed [{}]; chaos runs must agree",
                w.name,
                runtime_label(kind),
                f.error.kind()
            );
            (1_000_000, None)
        }
    };
    let cadence = checkpoint_every.unwrap_or_else(|| (horizon / 8).max(1024));
    eprintln!("  {} / {} ({} bytecodes)", w.name, runtime_label(kind), horizon);

    for seed in 0..seeds {
        report.cells += 1;
        let cell = format!("{} / {} / seed {}", w.name, runtime_label(kind), seed);
        let plan = FaultPlan::seeded(seed, horizon, POINTS_PER_PLAN, fault_kinds_for(kind));
        let opts = ChaosOptions::new(plan).with_checkpoint_every(cadence);
        let key = CellKey::new(w.name, runtime_label(kind), "seed", seed.to_string());
        match run_isolated(|| capture_chaos(&source, &rt, &opts)) {
            Ok((run, chaos)) => {
                match baseline_run {
                    Some(base) => {
                        if let Some(div) = oracle_check(base, &run, uarch) {
                            report.violations.push(format!("{cell}: oracle violated: {div}"));
                        }
                    }
                    None => report
                        .violations
                        .push(format!("{cell}: completed but the fault-free baseline failed")),
                }
                if chaos.recoveries_total() > 0 {
                    report.recovered_cells += 1;
                }
                record(&mut report, key, CellOutcome::Ok(ok_metrics(&run, &chaos)), &chaos);
                merge(&mut report.totals, &chaos);
            }
            Err(failure) => {
                let kind_tag = failure.error.kind();
                if kind_tag == "panic" {
                    report.violations.push(format!("{cell}: panic escaped: {}", failure.error));
                } else if kind_tag == "injected" {
                    report.violations.push(format!(
                        "{cell}: injected fault surfaced unrecovered: {}",
                        failure.error
                    ));
                } else if let Ok(_base) = &baseline {
                    report.violations.push(format!(
                        "{cell}: failed [{kind_tag}] but the baseline completed: {}",
                        failure.error
                    ));
                } else if let Err(base) = &baseline {
                    if base.error.kind() != kind_tag {
                        report.violations.push(format!(
                            "{cell}: failed [{kind_tag}] but the baseline failed [{}]",
                            base.error.kind()
                        ));
                    }
                }
                let chaos = ChaosOutcome::default();
                record(
                    &mut report,
                    key,
                    CellOutcome::Failed {
                        kind: kind_tag.to_string(),
                        message: failure.error.to_string(),
                        location: failure.error.location().map(str::to_string),
                    },
                    &chaos,
                );
            }
        }

        // Degrade-mode pass: JIT faults deopt in place; the run must
        // still complete with the baseline's guest result.
        if matches!(kind, RuntimeKind::PyPyJit | RuntimeKind::V8) {
            report.degrade_cells += 1;
            let plan = FaultPlan::seeded(
                seed,
                horizon,
                POINTS_PER_PLAN,
                &[FaultKind::JitCompileFault, FaultKind::TraceAbort],
            );
            let opts = ChaosOptions::new(plan).with_checkpoint_every(cadence).with_degrade_jit();
            let key = CellKey::new(w.name, runtime_label(kind), "degrade-seed", seed.to_string());
            match run_isolated(|| capture_chaos(&source, &rt, &opts)) {
                Ok((run, chaos)) => {
                    if let Some(base) = baseline_run {
                        if base.result != run.result {
                            report.violations.push(format!(
                                "{cell} (degrade): guest result diverged: {:?} vs {:?}",
                                base.result, run.result
                            ));
                        }
                    }
                    record(&mut report, key, CellOutcome::Ok(ok_metrics(&run, &chaos)), &chaos);
                    merge(&mut report.totals, &chaos);
                }
                Err(failure) => {
                    let kind_tag = failure.error.kind();
                    if kind_tag == "panic" {
                        report
                            .violations
                            .push(format!("{cell} (degrade): panic escaped: {}", failure.error));
                    } else if baseline.is_ok() {
                        report.violations.push(format!(
                            "{cell} (degrade): failed [{kind_tag}]: {}",
                            failure.error
                        ));
                    }
                    record(
                        &mut report,
                        key,
                        CellOutcome::Failed {
                            kind: kind_tag.to_string(),
                            message: failure.error.to_string(),
                            location: failure.error.location().map(str::to_string),
                        },
                        &ChaosOutcome::default(),
                    );
                }
            }
        }
    }
    report
}

fn main() {
    let cli = qoa_core::cli::parse_args(USAGE, parse_cli);
    let uarch = UarchConfig::skylake();
    let suite = qoa_workloads::python_suite();
    let workloads: Vec<&'static Workload> = if let Some(name) = &cli.only_workload {
        suite.iter().filter(|w| w.name == name).collect()
    } else if cli.all_workloads {
        suite.iter().collect()
    } else {
        suite.iter().filter(|w| SMOKE.contains(&w.name)).collect()
    };

    let config = format!("scale={:?} seeds={}", cli.scale, cli.seeds);
    let mut journal = match Journal::open(&cli.journal_dir, "qoa-chaos", config, cli.fresh) {
        Ok(j) => Some(j),
        Err(e) => {
            eprintln!("journal open failed (continuing without): {e}");
            None
        }
    };

    let mut violations: Vec<String> = Vec::new();
    let mut totals = ChaosOutcome::default();
    let mut cells = 0u64;
    let mut recovered_cells = 0u64;
    let mut degrade_cells = 0u64;

    eprintln!(
        "chaos sweep: {} workloads x {} runtimes x {} seeds at {:?} scale ({} jobs)",
        workloads.len(),
        cli.runtimes.len(),
        cli.seeds,
        cli.scale,
        cli.jobs.max(1)
    );

    // Fan the (workload, runtime) pairs out over the supervised executor.
    // A pair's report is self-contained; the in-order commit makes the
    // journal and the violation list identical for any jobs count.
    let mut specs = Vec::new();
    for &w in &workloads {
        for &kind in &cli.runtimes {
            let key =
                CellKey::new(w.name, runtime_label(kind), "chaos-pair", format!("{:?}", cli.scale));
            let seeds = cli.seeds;
            let scale = cli.scale;
            let checkpoint_every = cli.checkpoint_every;
            let uarch = uarch.clone();
            specs.push(SupervisedCell::new(key, move |_deadline| {
                Ok(run_pair(w, kind, seeds, scale, checkpoint_every, &uarch))
            }));
        }
    }
    let (committed, _stats) = run_supervised(specs, &ExecutorOptions::new(cli.jobs.max(1)));
    for c in committed {
        match c.verdict {
            CellVerdict::Ok { value: rep, .. } => {
                for (key, outcome, chaos_metrics) in rep.records {
                    if let Some(j) = &mut journal {
                        if let Err(e) = j.record_with_chaos(key, outcome, chaos_metrics) {
                            eprintln!("journal write failed (continuing): {e}");
                        }
                    }
                }
                violations.extend(rep.violations);
                merge(&mut totals, &rep.totals);
                cells += rep.cells;
                recovered_cells += rep.recovered_cells;
                degrade_cells += rep.degrade_cells;
            }
            CellVerdict::Failed { kind, message, .. } => {
                violations.push(format!("{}: pair sweep failed [{kind}]: {message}", c.key));
            }
            CellVerdict::Shed => {
                violations.push(format!("{}: pair sweep shed (budget)", c.key));
            }
            CellVerdict::Lost { .. } => {
                violations.push(format!("{}: pair sweep lost to a hung worker", c.key));
            }
        }
    }

    // Invariant 4: the journal must still parse after the sweep.
    if let Some(mut j) = journal.take() {
        if let Err(e) = j.compact() {
            eprintln!("journal write failed (continuing): {e}");
        }
        let path = j.path().to_path_buf();
        let config = format!("scale={:?} seeds={}", cli.scale, cli.seeds);
        drop(j);
        match Journal::open(&cli.journal_dir, "qoa-chaos", config, false) {
            Ok(j) => println!("journal: {} ({} lines parse)", path.display(), j.len()),
            Err(e) => violations.push(format!("journal no longer parses: {e}")),
        }
    }

    // Export the aggregated counters and self-check the exposition.
    let mut reg = Registry::new();
    totals.export(&mut reg);
    let exposition = reg.expose();
    for name in [
        "qoa_chaos_faults_injected_total",
        "qoa_chaos_recoveries_total",
        "qoa_chaos_checkpoints_written_total",
    ] {
        if !exposition.contains(name) {
            violations.push(format!("metrics exposition is missing {name}"));
        }
    }
    if let Err(e) = parse_exposition(&exposition) {
        violations.push(format!("metrics exposition does not round-trip: {e}"));
    }
    if let Some(path) = &cli.metrics {
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir)
                    .unwrap_or_else(|e| panic!("creating {}: {e}", dir.display()));
            }
        }
        std::fs::write(path, &exposition)
            .unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
        println!("metrics: {} ({} bytes)", path.display(), exposition.len());
    }

    // Recovery-rate table.
    let mut table = Table::new(
        "Chaos sweep: injected faults and recovery rate by kind",
        &["fault kind", "injected", "recovered", "rate"],
    );
    for (kind, injected) in &totals.injected {
        let recovered = totals.recoveries.get(kind).copied().unwrap_or(0);
        let rate = if *injected == 0 {
            "n/a".to_string()
        } else {
            format!("{:.0}%", 100.0 * recovered as f64 / *injected as f64)
        };
        table.row(vec![
            (*kind).to_string(),
            injected.to_string(),
            recovered.to_string(),
            rate,
        ]);
    }
    println!("{}", table.render());
    println!(
        "cells: {cells} chaos + {degrade_cells} degrade; {recovered_cells} recovered-and-verified; \
         checkpoints {}, restores {}, verifier caught {} / missed {}",
        totals.checkpoints_written, totals.restores, totals.verifier_caught, totals.verifier_missed
    );

    if violations.is_empty() {
        println!("chaos: OK (no panics, typed errors only, differential oracle holds)");
    } else {
        for v in &violations {
            eprintln!("chaos VIOLATION: {v}");
        }
        eprintln!("chaos: {} violation(s)", violations.len());
        std::process::exit(1);
    }
}

fn merge(totals: &mut ChaosOutcome, cell: &ChaosOutcome) {
    for (k, n) in &cell.injected {
        *totals.injected.entry(k).or_insert(0) += n;
    }
    for (k, n) in &cell.recoveries {
        *totals.recoveries.entry(k).or_insert(0) += n;
    }
    totals.checkpoints_written += cell.checkpoints_written;
    totals.restores += cell.restores;
    totals.verifier_caught += cell.verifier_caught;
    totals.verifier_missed += cell.verifier_missed;
}
