//! `qoa-prof`: the observability driver.
//!
//! Runs one workload under one modeled run-time with full observability
//! on — wall-clock spans around every pipeline stage, guest frame events
//! in the trace, a cycle-domain sampling profile of the replay — and
//! writes any of:
//!
//! * `--trace out.json` — Chrome/Perfetto `trace_events` JSON (load in
//!   `ui.perfetto.dev` or `chrome://tracing`): pid 1 is wall time, pid 2
//!   is simulated cycles.
//! * `--metrics out.prom` — Prometheus text exposition of every
//!   subsystem's counters (VM, heap, JIT, simulation, profiler).
//! * `--folded out.folded` — folded stacks for `inferno-flamegraph` /
//!   `flamegraph.pl`, one `frame;frame;[Category] count` line each.
//!
//! `--check` re-parses everything just written through the crate's own
//! round-trip parsers and verifies the sampled per-category shares agree
//! with the exact Fig. 4 attribution within 2 percentage points; any
//! violation exits nonzero. A journal line (with the metrics snapshot
//! embedded as the v2 `"obs"` field) is recorded under `--journal-dir`.

use qoa_analysis::StaticFacts;
use qoa_core::cli::{CliError, Flags};
use qoa_core::journal::{CellKey, CellMetrics, CellOutcome, Journal, Metric, Sidecar};
use qoa_core::runtime::{capture_observed, RuntimeConfig};
use qoa_model::{RuntimeKind, Tier};
use qoa_obs::bridge::{
    fill_exec_stats, fill_jit_stats, fill_line_profile, fill_profile, fill_span_histogram,
    fill_vm_stats,
};
use qoa_obs::profiler::ObsCore;
use qoa_obs::{export_trace, parse_exposition, parse_trace, ObsConfig, Observability};
use qoa_uarch::UarchConfig;
use qoa_workloads::Scale;
use std::path::PathBuf;

#[derive(Debug)]
struct ProfCli {
    workload: String,
    runtime: RuntimeKind,
    scale: Scale,
    sample_every: u64,
    trace: Option<PathBuf>,
    metrics: Option<PathBuf>,
    folded: Option<PathBuf>,
    folded_lines: Option<PathBuf>,
    annotate: Option<PathBuf>,
    jobs: usize,
    check: bool,
    journal_dir: PathBuf,
}

impl Default for ProfCli {
    fn default() -> Self {
        ProfCli {
            workload: "go".to_string(),
            runtime: RuntimeKind::CPython,
            scale: Scale::Small,
            sample_every: 4096,
            trace: None,
            metrics: None,
            folded: None,
            folded_lines: None,
            annotate: None,
            jobs: 1,
            check: false,
            journal_dir: PathBuf::from("results"),
        }
    }
}

const USAGE: &str = "flags: --workload NAME  --runtime cpython|pypy-nojit|pypy-jit|v8  \
     --scale tiny|small|full  --sample-every N  --trace FILE  \
     --metrics FILE  --folded FILE  --folded-lines FILE  --annotate FILE  \
     --jobs N  --check  --journal-dir DIR";

fn parse_cli(f: &mut Flags) -> Result<ProfCli, CliError> {
    let mut out = ProfCli::default();
    while let Some(flag) = f.next_flag()? {
        match flag.as_str() {
            "--workload" => out.workload = f.value()?,
            "--runtime" => out.runtime = f.value()?,
            "--scale" => out.scale = f.value()?,
            "--sample-every" => out.sample_every = f.value()?,
            "--trace" => out.trace = Some(f.value()?),
            "--metrics" => out.metrics = Some(f.value()?),
            "--folded" => out.folded = Some(f.value()?),
            "--folded-lines" => out.folded_lines = Some(f.value()?),
            "--annotate" => out.annotate = Some(f.value()?),
            "--jobs" => {
                out.jobs = f.value()?;
                if out.jobs == 0 {
                    return Err(CliError::Misuse("--jobs must be at least 1".into()));
                }
            }
            "--check" => out.check = true,
            "--journal-dir" => out.journal_dir = f.value()?,
            _ => return Err(f.unknown()),
        }
    }
    Ok(out)
}

/// Compiles the (unoptimized) guest and runs the lint pipeline; the
/// annotate verdict column is always judged from the unoptimized form.
fn collect_facts(source: &str) -> StaticFacts {
    let code = qoa_frontend::compile(source)
        .unwrap_or_else(|e| panic!("recompiling for static facts: {e}"));
    StaticFacts::collect(&code, qoa_vm::annotate::instr_profile)
        .unwrap_or_else(|e| panic!("linting for static facts: {e}"))
}

fn write_output(path: &PathBuf, what: &str, content: &str) {
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)
                .unwrap_or_else(|e| panic!("creating {}: {e}", dir.display()));
        }
    }
    std::fs::write(path, content).unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
    println!("{what}: {} ({} bytes)", path.display(), content.len());
}

fn main() {
    let cli = qoa_core::cli::parse_args(USAGE, parse_cli);
    let workload = qoa_workloads::by_name(&cli.workload)
        .unwrap_or_else(|| panic!("unknown workload '{}'", cli.workload));
    let source = workload.source(cli.scale);

    let obs_cfg = ObsConfig::on().with_sample_every(cli.sample_every);
    let rt = RuntimeConfig::new(cli.runtime).with_observability(obs_cfg);
    let mut obs = Observability::new(obs_cfg);

    eprintln!(
        "profiling {} / {:?} at {:?} scale, sampling every {} cycles...",
        workload.name, cli.runtime, cli.scale, cli.sample_every
    );
    let run = match capture_observed(&source, &rt, &mut obs) {
        Ok(run) => run,
        Err(e) => {
            eprintln!("run failed: {e}");
            std::process::exit(1);
        }
    };

    let uarch = UarchConfig::skylake();
    // `--jobs 2+` overlaps the static-facts lint pass (needed only for
    // `--annotate`) with the trace replay on a second thread. Both sides
    // are deterministic and independent, so the parallelism cannot change
    // any output byte — the annotate golden test relies on that.
    let (report, facts) = std::thread::scope(|scope| {
        let facts_thread = (cli.annotate.is_some() && cli.jobs > 1).then(|| {
            let source = source.as_str();
            scope.spawn(move || collect_facts(source))
        });
        let report = obs.wall_span("simulate", || {
            let mut core = ObsCore::new(&uarch, cli.sample_every, obs_cfg.ring_capacity)
                .with_base_tier(Tier::base(rt.elide_checks));
            run.trace.replay(&mut core);
            core.finish()
        });
        let facts = match facts_thread {
            Some(handle) => Some(handle.join().expect("facts thread panicked")),
            None => cli.annotate.is_some().then(|| collect_facts(&source)),
        };
        (report, facts)
    });

    fill_vm_stats(&mut obs.registry, &run.vm);
    fill_jit_stats(&mut obs.registry, &run.jit);
    fill_exec_stats(&mut obs.registry, &report.stats);
    fill_profile(&mut obs.registry, &report.profile);
    fill_line_profile(&mut obs.registry, &report.profile);
    fill_span_histogram(&mut obs.registry, &report.spans);

    println!(
        "{}: {} cycles, {} instructions, {} samples over {} stacks ({} spans, {} dropped)",
        workload.name,
        report.stats.cycles,
        report.stats.instructions,
        report.profile.total_samples,
        report.profile.distinct_stacks(),
        obs.wall_spans().len() + report.spans.len(),
        obs.dropped() + report.dropped_spans,
    );

    let mut all_spans = obs.wall_spans();
    all_spans.extend(report.spans.iter().cloned());
    let trace_json = export_trace(&all_spans);
    let prom_text = obs.registry.expose();
    let folded_text = report.profile.folded_output();

    if let Some(path) = &cli.trace {
        write_output(path, "trace", &trace_json);
    }
    if let Some(path) = &cli.metrics {
        write_output(path, "metrics", &prom_text);
    }
    if let Some(path) = &cli.folded {
        write_output(path, "folded stacks", &folded_text);
    }
    let guest_file = format!("{}.py", workload.name);
    if let Some(path) = &cli.folded_lines {
        write_output(path, "folded lines", &report.profile.folded_lines(&guest_file));
    }
    if let Some(path) = &cli.annotate {
        let facts = facts.as_ref().expect("facts computed when --annotate is set");
        let text = qoa_core::render_annotated(&guest_file, &source, &report.profile, facts);
        write_output(path, "annotated source", &text);
    }

    // Journal line with the registry snapshot embedded (v2 "obs" field).
    let key = CellKey::new(
        workload.name,
        format!("{:?}", cli.runtime),
        "sample_every",
        cli.sample_every.to_string(),
    );
    let mut metrics = CellMetrics::new();
    metrics.insert("cycles".into(), Metric::Int(report.stats.cycles as i64));
    metrics.insert("instructions".into(), Metric::Int(report.stats.instructions as i64));
    metrics.insert("samples".into(), Metric::Int(report.profile.total_samples as i64));
    let snapshot: CellMetrics = obs
        .registry
        .snapshot()
        .into_iter()
        .map(|(name, value)| (name, Metric::Num(value)))
        .collect();
    let config = format!("scale={:?} sample_every={}", cli.scale, cli.sample_every);
    match Journal::open(&cli.journal_dir, "qoa-prof", config, false) {
        Ok(mut journal) => {
            let outcome = CellOutcome::Ok(metrics);
            if let Err(e) = journal.record_with(key, outcome, Sidecar::Obs, snapshot) {
                eprintln!("journal write failed (continuing): {e}");
            } else {
                println!("journal: {}", journal.path().display());
            }
        }
        Err(e) => eprintln!("journal open failed (continuing): {e}"),
    }

    if cli.check {
        let mut failures = Vec::new();
        match parse_trace(&trace_json) {
            Ok(spans) => {
                if spans.len() != all_spans.len() {
                    failures.push(format!(
                        "trace round-trip lost spans: {} -> {}",
                        all_spans.len(),
                        spans.len()
                    ));
                }
            }
            Err(e) => failures.push(format!("trace JSON invalid: {e}")),
        }
        match parse_exposition(&prom_text) {
            Ok(exposition) => {
                if exposition.get("qoa_sim_cycles_total") != Some(report.stats.cycles as f64) {
                    failures.push("exposition disagrees on qoa_sim_cycles_total".to_string());
                }
            }
            Err(e) => failures.push(format!("Prometheus exposition invalid: {e}")),
        }
        if folded_text.lines().next().is_none() {
            failures.push("folded output is empty".to_string());
        }
        let sampled = report.profile.category_shares();
        let exact = report.stats.category_shares();
        for (c, &s) in sampled.iter() {
            let d = (s - exact[c]).abs();
            if d > 0.02 {
                failures.push(format!(
                    "category {c:?}: sampled share {:.2}% vs exact {:.2}% (diff {:.2}pp)",
                    s * 100.0,
                    exact[c] * 100.0,
                    d * 100.0
                ));
            }
        }
        if failures.is_empty() {
            println!(
                "check: OK (trace and exposition round-trip; sampled shares within 2pp of exact)"
            );
        } else {
            for f in &failures {
                eprintln!("check FAILED: {f}");
            }
            std::process::exit(1);
        }
    }
}
