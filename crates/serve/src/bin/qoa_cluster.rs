//! `qoa-cluster`: replicated serving behind a fault-injected simulated
//! network.
//!
//! Runs one deterministic cluster simulation per network-fault seed —
//! a single seeded client driving N replicated serve nodes over a
//! [`qoa_serve::NetFaultPlan`]-governed virtual network — and fans the
//! seeds through the journaled supervised executor, so `--jobs`
//! parallelism never touches per-seed determinism. Every acked answer
//! is checked against the fault-free baseline and every commit against
//! the exactly-once ledger; `--deny-failures` turns a violation (or any
//! hard-failed request) into exit 3.

use qoa_core::cli::{CliError, Flags};
use qoa_core::{
    run_supervised, write_bench_json, BenchEntry, CellKey, CellOutcome, CellVerdict, Journal,
    Metric, QoaError, Sidecar, SupervisedCell,
};
use qoa_obs::Registry;
use qoa_serve::net::{NetConfig, NetFaultKind, NetFaultPlan};
use qoa_serve::{
    calibrate, generate, oracle_baseline, oracle_exactly_once, render_cluster_journal,
    run_cluster, standard_tenants, ArrivalSpec, Calibration, ClusterReport, NetOutcome,
    ServeConfig, TenantMix,
};
use qoa_workloads::Scale;
use std::path::PathBuf;
use std::process::ExitCode;

struct Cli {
    seeds: u64,
    seed_base: u64,
    requests: usize,
    nodes: usize,
    workloads: Vec<String>,
    scale: Scale,
    load_pct: u64,
    per_mille: u32,
    faults: Vec<NetFaultKind>,
    hedge_after: Option<u64>,
    jobs: usize,
    journal_dir: Option<PathBuf>,
    cluster_journal: Option<PathBuf>,
    metrics: Option<PathBuf>,
    bench_out: Option<PathBuf>,
    deny_failures: bool,
    quiet: bool,
}

const USAGE: &str = "usage: qoa-cluster [flags]\n\
  --seeds N             network fault seeds to run (default 3)\n\
  --seed-base N         first seed (default 1)\n\
  --requests N          requests per seed (default 24)\n\
  --nodes N             replicated serve nodes (default 3)\n\
  --workloads A,B,C     registered workloads (default go)\n\
  --scale S             tiny|small|full (default tiny)\n\
  --load-pct P          offered load, percent of one node's capacity (default 70)\n\
  --per-mille N         per-message fault probability, 0..=1000 (default 90)\n\
  --faults a+b+c        drop|duplicate|reorder|delay|partition|crash (default all)\n\
  --hedge-after N       hedge unanswered requests after N vcycles\n\
  --jobs N              seeds run in parallel (default 2)\n\
  --journal-dir PATH    record per-seed cells in a qoa journal (v5, net counters)\n\
  --cluster-journal P   write the concatenated deterministic cluster journal\n\
  --metrics PATH        write aggregated Prometheus exposition\n\
  --bench-out DIR       write BENCH_net.json (benchsnap v2)\n\
  --deny-failures       exit 3 on any hard failure, oracle breach, or duplicate commit\n\
  --quiet               suppress per-seed summaries\n";

fn parse(f: &mut Flags) -> Result<Cli, CliError> {
    let mut cli = Cli {
        seeds: 3,
        seed_base: 1,
        requests: 24,
        nodes: 3,
        workloads: vec!["go".into()],
        scale: Scale::Tiny,
        load_pct: 70,
        per_mille: 90,
        faults: NetFaultKind::ALL.to_vec(),
        hedge_after: None,
        jobs: 2,
        journal_dir: None,
        cluster_journal: None,
        metrics: None,
        bench_out: None,
        deny_failures: false,
        quiet: false,
    };
    while let Some(flag) = f.next_flag()? {
        match flag.as_str() {
            "--seeds" => cli.seeds = f.value()?,
            "--seed-base" => cli.seed_base = f.value()?,
            "--requests" => cli.requests = f.value()?,
            "--nodes" => cli.nodes = f.value()?,
            "--workloads" => {
                cli.workloads = f.value::<String>()?.split(',').map(str::to_string).collect();
            }
            "--scale" => cli.scale = f.value()?,
            "--load-pct" => cli.load_pct = f.value()?,
            "--per-mille" => cli.per_mille = f.value()?,
            "--faults" => {
                cli.faults = f.value_with(|v| {
                    v.split('+')
                        .map(|s| NetFaultKind::from_name(s).ok_or(format!("unknown fault '{s}'")))
                        .collect()
                })?;
            }
            "--hedge-after" => cli.hedge_after = Some(f.value()?),
            "--jobs" => cli.jobs = f.value()?,
            "--journal-dir" => cli.journal_dir = Some(f.value()?),
            "--cluster-journal" => cli.cluster_journal = Some(f.value()?),
            "--metrics" => cli.metrics = Some(f.value()?),
            "--bench-out" => cli.bench_out = Some(f.value()?),
            "--deny-failures" => cli.deny_failures = true,
            "--quiet" => cli.quiet = true,
            _ => return Err(f.unknown()),
        }
    }
    if cli.seeds == 0 {
        return Err(CliError::Misuse("--seeds must be at least 1".into()));
    }
    Ok(cli)
}

/// The `--journal-dir` configuration fingerprint: every flag that shapes
/// a seed's cell, so cells journaled under other flags rerun instead of
/// being reused under the same `net-seed` keys.
fn journal_config(cli: &Cli) -> String {
    let faults: Vec<&str> = cli.faults.iter().map(|k| k.name()).collect();
    format!(
        "seed_base={} requests={} nodes={} workloads={} scale={:?} load_pct={} per_mille={} \
         faults={} hedge_after={:?}",
        cli.seed_base,
        cli.requests,
        cli.nodes,
        cli.workloads.join(","),
        cli.scale,
        cli.load_pct,
        cli.per_mille,
        faults.join("+"),
        cli.hedge_after,
    )
}

/// Everything one seed's cell hands back to the supervisor.
struct SeedRun {
    seed: u64,
    journal_text: String,
    report: ClusterReport,
}

fn run_seed(
    seed: u64,
    cfg: &ServeConfig,
    net_cfg: &NetConfig,
    requests: &[qoa_serve::Request],
    calib: &Calibration,
    plan: &NetFaultPlan,
) -> Result<SeedRun, QoaError> {
    let report = run_cluster(cfg, net_cfg, requests, calib, plan)?;
    let oracle_breach = |context: String| QoaError::Journal {
        context,
        source: std::io::Error::new(std::io::ErrorKind::InvalidData, "cluster oracle"),
    };
    oracle_baseline(&report, calib)
        .map_err(|e| oracle_breach(format!("seed {seed}: baseline oracle: {e}")))?;
    oracle_exactly_once(&report)
        .map_err(|e| oracle_breach(format!("seed {seed}: exactly-once oracle: {e}")))?;
    let journal_text = render_cluster_journal(cfg, net_cfg, plan, &report);
    Ok(SeedRun { seed, journal_text, report })
}

fn run(cli: &Cli) -> Result<ExitCode, String> {
    let names: Vec<&str> = cli.workloads.iter().map(String::as_str).collect();
    let mut cfg = ServeConfig::new(&names, cli.scale, Vec::new()).map_err(|e| e.to_string())?;
    let calib = calibrate(&cfg).map_err(|e| e.to_string())?;
    let capacity = calib.capacity_per_m(cfg.virtual_workers);
    let rate = (capacity * cli.load_pct / 100).max(1);
    cfg.tenants = standard_tenants(rate, calib.mean_cost_full);

    // One arrival trace shared by every seed: only the network fault
    // plan varies across cells, so differences between seeds are purely
    // the faults' doing.
    let requests = generate(&ArrivalSpec {
        seed: cli.seed_base,
        count: cli.requests,
        rate_per_m: rate,
        tenants: cfg
            .tenants
            .iter()
            .map(|t| TenantMix { weight: t.weight, priority: t.priority, deadline: t.deadline })
            .collect(),
        workload_weights: vec![1; cfg.workloads.len()],
    });
    let mut net_cfg = NetConfig::tuned(cli.nodes, &calib);
    net_cfg.hedge_after = cli.hedge_after;
    let horizon = requests.last().map_or(0, |r| r.arrival) + 20 * net_cfg.rto;

    if !cli.quiet {
        println!(
            "qoa-cluster: {} seeds x {} requests over {} nodes, faults {} at {} per mille",
            cli.seeds,
            requests.len(),
            net_cfg.nodes,
            cli.faults.iter().map(|k| k.name()).collect::<Vec<_>>().join("+"),
            cli.per_mille,
        );
    }

    let cells: Vec<SupervisedCell<SeedRun>> = (0..cli.seeds)
        .map(|i| {
            let seed = cli.seed_base + i;
            let (cfg, net_cfg, requests, calib, faults) = (
                cfg.clone(),
                net_cfg.clone(),
                requests.clone(),
                calib.clone(),
                cli.faults.clone(),
            );
            let plan =
                NetFaultPlan::seeded(seed, horizon, net_cfg.nodes, cli.per_mille, &faults);
            let key = CellKey::new("cluster", "qoa-serve", "net-seed", seed.to_string());
            SupervisedCell::new(key, move |_deadline| {
                run_seed(seed, &cfg, &net_cfg, &requests, &calib, &plan)
            })
        })
        .collect();
    let opts = qoa_core::ExecutorOptions::new(cli.jobs.max(1));
    let (committed, stats) = run_supervised(cells, &opts);

    let mut journal = match &cli.journal_dir {
        Some(dir) => Some(
            Journal::open(dir, "cluster", journal_config(cli), false).map_err(|e| e.to_string())?,
        ),
        None => None,
    };

    let mut runs: Vec<SeedRun> = Vec::new();
    let mut cell_failures = 0u64;
    for cell in committed {
        match cell.verdict {
            CellVerdict::Ok { value, .. } => {
                if let Some(j) = journal.as_mut() {
                    let mut m = qoa_core::CellMetrics::new();
                    m.insert("acked_ok".into(), Metric::Int(value.report.acked_ok() as i64));
                    m.insert("shed".into(), Metric::Int(value.report.shed_total() as i64));
                    m.insert("failed".into(), Metric::Int(value.report.failed() as i64));
                    m.insert(
                        "p99_ack_vcycles".into(),
                        Metric::Int(value.report.latency_permille(990) as i64),
                    );
                    j.record_with(
                        cell.key.clone(),
                        CellOutcome::Ok(m),
                        Sidecar::Net,
                        value.report.net_metrics(),
                    )
                    .map_err(|e| e.to_string())?;
                }
                runs.push(value);
            }
            CellVerdict::Failed { kind, message, .. } => {
                cell_failures += 1;
                eprintln!("qoa-cluster: cell {} failed ({kind}): {message}", cell.key);
                if let Some(j) = journal.as_mut() {
                    let outcome = CellOutcome::Failed { kind, message, location: None };
                    j.record(cell.key.clone(), outcome).map_err(|e| e.to_string())?;
                }
            }
            CellVerdict::Shed | CellVerdict::Lost { .. } => cell_failures += 1,
        }
    }
    if let Some(j) = journal.as_mut() {
        j.compact().map_err(|e| e.to_string())?;
    }
    runs.sort_by_key(|r| r.seed);

    let mut failed_requests = 0u64;
    let mut duplicate_executions = 0u64;
    for run in &runs {
        failed_requests += run.report.failed();
        duplicate_executions += run.report.duplicate_executions;
        if !cli.quiet {
            println!("--- seed {} ---", run.seed);
            print!("{}", run.report.render());
        }
        for rec in &run.report.records {
            if let NetOutcome::Failed { kind, message } = &rec.outcome {
                eprintln!(
                    "qoa-cluster: seed {} request {} failed ({kind}): {message}",
                    run.seed, rec.id
                );
            }
        }
    }
    if !cli.quiet {
        println!(
            "total: {} seeds ({} cell failures), {} failed requests, {} duplicate executions, \
             executor jobs {}",
            runs.len(),
            cell_failures,
            failed_requests,
            duplicate_executions,
            stats.jobs,
        );
    }

    if let Some(path) = &cli.cluster_journal {
        let mut text = String::new();
        for run in &runs {
            text.push_str(&run.journal_text);
        }
        std::fs::write(path, text).map_err(|e| format!("writing cluster journal: {e}"))?;
    }
    if let Some(path) = &cli.metrics {
        let mut reg = Registry::new();
        for run in &runs {
            run.report.export(&mut reg);
        }
        std::fs::write(path, reg.expose()).map_err(|e| format!("writing metrics: {e}"))?;
    }
    if let Some(dir) = &cli.bench_out {
        let entries: Vec<BenchEntry> = runs
            .iter()
            .map(|run| {
                let cycles: u64 = run
                    .report
                    .records
                    .iter()
                    .filter_map(|r| match r.outcome {
                        NetOutcome::Ok { cost, .. } => Some(cost),
                        _ => None,
                    })
                    .sum();
                BenchEntry { class: format!("net/seed{}", run.seed), cycles }
            })
            .collect();
        write_bench_json(dir, "net", "qoa-cluster", cli.seed_base, &entries)
            .map_err(|e| e.to_string())?;
    }

    if cli.deny_failures && (cell_failures + failed_requests + duplicate_executions > 0) {
        eprintln!(
            "qoa-cluster: denying: {cell_failures} cell failures, {failed_requests} failed \
             requests, {duplicate_executions} duplicate executions"
        );
        return Ok(ExitCode::from(3));
    }
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let cli = qoa_core::cli::parse_args(USAGE, parse);
    match run(&cli) {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("qoa-cluster: {msg}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config_of(args: &[&str]) -> String {
        let mut flags = Flags::new(args.iter().map(|a| (*a).to_string()).collect());
        journal_config(&parse(&mut flags).expect("flags parse"))
    }

    #[test]
    fn journal_config_tracks_the_flags_that_shape_a_cell() {
        let base = config_of(&["--requests", "24", "--nodes", "3"]);
        assert_eq!(base, config_of(&["--requests", "24", "--nodes", "3", "--jobs", "4"]));
        assert_eq!(base, config_of(&["--nodes", "3", "--seeds", "6", "--quiet"]));
        for other in [
            &["--requests", "25"][..],
            &["--nodes", "4"],
            &["--workloads", "go,float"],
            &["--scale", "small"],
            &["--load-pct", "130"],
            &["--per-mille", "50"],
            &["--faults", "drop+crash"],
            &["--hedge-after", "900"],
            &["--seed-base", "2"],
        ] {
            assert_ne!(base, config_of(other), "{other:?} must change the journal config");
        }
    }
}
