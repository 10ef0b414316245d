//! `qoa-serve`: the snapshot-fork serving daemon.
//!
//! Consumes a request plan (one JSON object per line, as written by
//! `qoa-loadgen --plan-out`), pre-warms one snapshot per registered
//! `(workload, tier)` pair, and serves the plan through the admission /
//! degradation / deadline lifecycle, writing the deterministic journal
//! and Prometheus metrics. `--demo N` generates a small 1x burst
//! in-process instead of reading a plan.

use qoa_core::cli::{CliError, Flags};
use qoa_obs::Registry;
use qoa_serve::{
    calibrate, generate, parse_plan, render_journal, serve, standard_tenants, ArrivalSpec,
    ChaosConfig, ServeConfig, TenantMix,
};
use qoa_workloads::Scale;
use std::path::PathBuf;
use std::process::ExitCode;

struct Cli {
    plan: Option<PathBuf>,
    demo: Option<usize>,
    workloads: Vec<String>,
    scale: Scale,
    rate_per_m: Option<u64>,
    seed: u64,
    chaos_seed: Option<u64>,
    chaos_points: usize,
    jobs: usize,
    virtual_workers: usize,
    window: usize,
    max_queue: u64,
    journal: Option<PathBuf>,
    metrics: Option<PathBuf>,
    deny_failures: bool,
    quiet: bool,
}

const USAGE: &str = "usage: qoa-serve (--plan PATH | --demo N) [flags]\n\
  --plan PATH         request plan file (from qoa-loadgen --plan-out)\n\
  --demo N            generate and serve an N-request 1x burst instead\n\
  --workloads A,B,C   registered workloads (default go,float,richards)\n\
  --scale S           tiny|small|full (default tiny)\n\
  --rate-per-m R      quota sizing rate (default: measured from the plan)\n\
  --seed N            executor seed (default 1)\n\
  --chaos-seed N      arm per-request fault plans from this seed\n\
  --chaos-points N    max fault points per request (default 2)\n\
  --jobs N            executor worker threads (default 2)\n\
  --virtual-workers N virtual servers (default 4)\n\
  --window N          admission window (default 16)\n\
  --max-queue N       bounded queue, request-equivalents (default 48)\n\
  --journal PATH      write the deterministic request journal\n\
  --metrics PATH      write Prometheus exposition\n\
  --deny-failures     exit 3 if any request hard-fails\n\
  --quiet             suppress the run summary\n";

fn parse(f: &mut Flags) -> Result<Cli, CliError> {
    let mut cli = Cli {
        plan: None,
        demo: None,
        workloads: vec!["go".into(), "float".into(), "richards".into()],
        scale: Scale::Tiny,
        rate_per_m: None,
        seed: 1,
        chaos_seed: None,
        chaos_points: 2,
        jobs: 2,
        virtual_workers: 4,
        window: 16,
        max_queue: 48,
        journal: None,
        metrics: None,
        deny_failures: false,
        quiet: false,
    };
    while let Some(flag) = f.next_flag()? {
        match flag.as_str() {
            "--plan" => cli.plan = Some(f.value()?),
            "--demo" => cli.demo = Some(f.value()?),
            "--workloads" => {
                cli.workloads = f.value::<String>()?.split(',').map(str::to_string).collect();
            }
            "--scale" => cli.scale = f.value()?,
            "--rate-per-m" => cli.rate_per_m = Some(f.value()?),
            "--seed" => cli.seed = f.value()?,
            "--chaos-seed" => cli.chaos_seed = Some(f.value()?),
            "--chaos-points" => cli.chaos_points = f.value()?,
            "--jobs" => cli.jobs = f.value()?,
            "--virtual-workers" => cli.virtual_workers = f.value()?,
            "--window" => cli.window = f.value()?,
            "--max-queue" => cli.max_queue = f.value()?,
            "--journal" => cli.journal = Some(f.value()?),
            "--metrics" => cli.metrics = Some(f.value()?),
            "--deny-failures" => cli.deny_failures = true,
            "--quiet" => cli.quiet = true,
            _ => return Err(f.unknown()),
        }
    }
    if cli.plan.is_none() && cli.demo.is_none() {
        return Err(CliError::Misuse("one of --plan or --demo is required".into()));
    }
    Ok(cli)
}

fn run(cli: &Cli) -> Result<ExitCode, String> {
    let names: Vec<&str> = cli.workloads.iter().map(String::as_str).collect();
    let mut cfg = ServeConfig::new(&names, cli.scale, Vec::new()).map_err(|e| e.to_string())?;
    cfg.jobs = cli.jobs;
    cfg.virtual_workers = cli.virtual_workers;
    cfg.window = cli.window;
    cfg.max_queue = cli.max_queue;
    cfg.ladder.full_max = (cli.window + cli.virtual_workers) as u64;
    cfg.ladder.nojit_max = cfg.ladder.full_max + cli.max_queue / 2;
    cfg.seed = cli.seed;
    cfg.chaos = cli.chaos_seed.map(|seed| ChaosConfig { seed, points: cli.chaos_points });

    let calib = calibrate(&cfg).map_err(|e| e.to_string())?;
    let capacity = calib.capacity_per_m(cfg.virtual_workers);

    // Tenant names must exist before a plan referencing them can parse;
    // quota sizing is finalized once the offered rate is known.
    cfg.tenants = standard_tenants(capacity, calib.mean_cost_full);
    let requests = match (&cli.plan, cli.demo) {
        (Some(path), _) => {
            let body =
                std::fs::read_to_string(path).map_err(|e| format!("reading plan: {e}"))?;
            let reqs = parse_plan(&body, &cfg.tenant_names(), &cfg.workload_names())
                .map_err(|e| e.to_string())?;
            let span = reqs.last().map_or(0, |r| r.arrival);
            let measured = (reqs.len() as u64)
                .saturating_mul(1_000_000)
                .checked_div(span)
                .unwrap_or(capacity);
            let rate = cli.rate_per_m.unwrap_or(measured.max(1));
            cfg.tenants = standard_tenants(rate, calib.mean_cost_full);
            reqs
        }
        (None, Some(n)) => {
            let rate = cli.rate_per_m.unwrap_or(capacity.max(1));
            cfg.tenants = standard_tenants(rate, calib.mean_cost_full);
            generate(&ArrivalSpec {
                seed: cli.seed,
                count: n,
                rate_per_m: rate,
                tenants: cfg
                    .tenants
                    .iter()
                    .map(|t| TenantMix {
                        weight: t.weight,
                        priority: t.priority,
                        deadline: t.deadline,
                    })
                    .collect(),
                workload_weights: vec![1; cfg.workloads.len()],
            })
        }
        (None, None) => unreachable!("parse() requires --plan or --demo"),
    };

    if !cli.quiet {
        println!(
            "qoa-serve: {} requests over {} workloads, {} virtual workers, seed {}{}",
            requests.len(),
            cfg.workloads.len(),
            cfg.virtual_workers,
            cli.seed,
            match cli.chaos_seed {
                Some(s) => format!(", chaos seed {s}"),
                None => String::new(),
            }
        );
    }

    let report = serve(&cfg, &requests, &calib).map_err(|e| e.to_string())?;
    if !cli.quiet {
        print!("{}", report.render());
    }

    if let Some(path) = &cli.journal {
        std::fs::write(path, render_journal(&cfg, &report))
            .map_err(|e| format!("writing journal: {e}"))?;
    }
    if let Some(path) = &cli.metrics {
        let mut reg = Registry::new();
        report.export(&mut reg);
        std::fs::write(path, reg.expose()).map_err(|e| format!("writing metrics: {e}"))?;
    }

    if cli.deny_failures && report.failed() > 0 {
        eprintln!("qoa-serve: {} hard failures (should be shed, not failed)", report.failed());
        return Ok(ExitCode::from(3));
    }
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let cli = qoa_core::cli::parse_args(USAGE, parse);
    match run(&cli) {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("qoa-serve: {msg}");
            ExitCode::from(2)
        }
    }
}
