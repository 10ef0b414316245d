//! `qoa-loadgen`: seeded open-loop load generator for `qoa-serve`.
//!
//! Calibrates the registered workloads, derives an offered rate from
//! the estimated capacity and `--load-pct`, generates a Poisson arrival
//! plan over the standard tenant mix, drives the serving loop, and
//! reports throughput and p50/p99/p999 plus shed/breaker counters.
//! Everything except wall-clock lines is deterministic given `--seed`
//! (and `--chaos-seed`): rerunning writes a byte-identical journal.

use qoa_core::benchsnap::{write_bench_json, BenchEntry};
use qoa_core::cli::{CliError, Flags};
use qoa_obs::Registry;
use qoa_serve::net::{NetConfig, NetFaultKind, NetFaultPlan};
use qoa_serve::{
    calibrate, generate, plan_line, render_cluster_journal, render_journal, run_cluster, serve,
    standard_tenants, ArrivalSpec, ChaosConfig, ServeConfig, TenantMix, Tier,
};
use qoa_workloads::Scale;
use std::path::PathBuf;
use std::process::ExitCode;

struct Cli {
    workloads: Vec<String>,
    scale: Scale,
    requests: usize,
    load_pct: u64,
    rate_per_m: Option<u64>,
    seed: u64,
    chaos_seed: Option<u64>,
    chaos_points: usize,
    net_seed: Option<u64>,
    net_nodes: usize,
    hedge_after: Option<u64>,
    jobs: usize,
    virtual_workers: usize,
    window: usize,
    max_queue: u64,
    journal: Option<PathBuf>,
    metrics: Option<PathBuf>,
    plan_out: Option<PathBuf>,
    bench_out: Option<PathBuf>,
    deny_failures: bool,
    quiet: bool,
}

const USAGE: &str = "usage: qoa-loadgen [flags]\n\
  --workloads A,B,C   registered workloads (default go,float,richards)\n\
  --scale S           tiny|small|full (default tiny)\n\
  --requests N        arrivals to generate (default 400)\n\
  --load-pct P        offered load as % of estimated capacity (default 100; 200 = 2x)\n\
  --rate-per-m R      explicit rate (requests per M vcycles; overrides --load-pct)\n\
  --seed N            arrival/executor seed (default 1)\n\
  --chaos-seed N      arm per-request fault plans from this seed\n\
  --chaos-points N    max fault points per request (default 2)\n\
  --net-seed N        drive the plan through a simulated cluster under\n\
                      this network fault seed (see qoa-cluster)\n\
  --net-nodes N       cluster size for --net-seed (default 3)\n\
  --hedge-after N     hedge unanswered cluster requests after N vcycles\n\
  --jobs N            executor worker threads (default 2)\n\
  --virtual-workers N virtual servers in the queue model (default 4)\n\
  --window N          admission window (default 16)\n\
  --max-queue N       bounded queue, request-equivalents (default 48)\n\
  --journal PATH      write the deterministic request journal\n\
  --metrics PATH      write Prometheus exposition\n\
  --plan-out PATH     write the generated arrival plan (qoa-serve input)\n\
  --bench-out DIR     write BENCH_serve.json under DIR\n\
  --deny-failures     exit 3 if any request hard-fails (CI gate)\n\
  --quiet             suppress the run summary\n";

fn parse(f: &mut Flags) -> Result<Cli, CliError> {
    let mut cli = Cli {
        workloads: vec!["go".into(), "float".into(), "richards".into()],
        scale: Scale::Tiny,
        requests: 400,
        load_pct: 100,
        rate_per_m: None,
        seed: 1,
        chaos_seed: None,
        chaos_points: 2,
        net_seed: None,
        net_nodes: 3,
        hedge_after: None,
        jobs: 2,
        virtual_workers: 4,
        window: 16,
        max_queue: 48,
        journal: None,
        metrics: None,
        plan_out: None,
        bench_out: None,
        deny_failures: false,
        quiet: false,
    };
    while let Some(flag) = f.next_flag()? {
        match flag.as_str() {
            "--workloads" => {
                cli.workloads = f.value::<String>()?.split(',').map(str::to_string).collect();
            }
            "--scale" => cli.scale = f.value()?,
            "--requests" => cli.requests = f.value()?,
            "--load-pct" => cli.load_pct = f.value()?,
            "--rate-per-m" => cli.rate_per_m = Some(f.value()?),
            "--seed" => cli.seed = f.value()?,
            "--chaos-seed" => cli.chaos_seed = Some(f.value()?),
            "--chaos-points" => cli.chaos_points = f.value()?,
            "--net-seed" => cli.net_seed = Some(f.value()?),
            "--net-nodes" => cli.net_nodes = f.value()?,
            "--hedge-after" => cli.hedge_after = Some(f.value()?),
            "--jobs" => cli.jobs = f.value()?,
            "--virtual-workers" => cli.virtual_workers = f.value()?,
            "--window" => cli.window = f.value()?,
            "--max-queue" => cli.max_queue = f.value()?,
            "--journal" => cli.journal = Some(f.value()?),
            "--metrics" => cli.metrics = Some(f.value()?),
            "--plan-out" => cli.plan_out = Some(f.value()?),
            "--bench-out" => cli.bench_out = Some(f.value()?),
            "--deny-failures" => cli.deny_failures = true,
            "--quiet" => cli.quiet = true,
            _ => return Err(f.unknown()),
        }
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
    let rate = cli.rate_per_m.unwrap_or_else(|| (capacity * cli.load_pct / 100).max(1));
    cfg.tenants = standard_tenants(rate, calib.mean_cost_full);

    let spec = ArrivalSpec {
        seed: cli.seed,
        count: cli.requests,
        rate_per_m: rate,
        tenants: cfg
            .tenants
            .iter()
            .map(|t| TenantMix { weight: t.weight, priority: t.priority, deadline: t.deadline })
            .collect(),
        workload_weights: vec![1; cfg.workloads.len()],
    };
    let requests = generate(&spec);

    if !cli.quiet {
        println!(
            "qoa-loadgen: {} requests, {}% load ({} per M vcycles, capacity {}), seed {}{}",
            requests.len(),
            cli.load_pct,
            rate,
            capacity,
            cli.seed,
            match cli.chaos_seed {
                Some(s) => format!(", chaos seed {s}"),
                None => String::new(),
            }
        );
    }

    if let Some(path) = &cli.plan_out {
        let body: String = requests
            .iter()
            .map(|r| {
                plan_line(r, &cfg.tenants[r.tenant].name, &cfg.workloads[r.workload].name) + "\n"
            })
            .collect();
        std::fs::write(path, body).map_err(|e| format!("writing plan: {e}"))?;
    }

    // --net-seed routes the same plan through the simulated cluster:
    // retries, hedges, and per-fault-kind latency land in the report.
    if let Some(net_seed) = cli.net_seed {
        let mut net_cfg = NetConfig::tuned(cli.net_nodes.max(1), &calib);
        net_cfg.hedge_after = cli.hedge_after;
        let horizon = requests.last().map_or(0, |r| r.arrival) + 20 * net_cfg.rto;
        let plan =
            NetFaultPlan::seeded(net_seed, horizon, net_cfg.nodes, 90, &NetFaultKind::ALL);
        let report = run_cluster(&cfg, &net_cfg, &requests, &calib, &plan)
            .map_err(|e| e.to_string())?;
        if !cli.quiet {
            print!("{}", report.render());
        }
        if let Some(path) = &cli.journal {
            std::fs::write(path, render_cluster_journal(&cfg, &net_cfg, &plan, &report))
                .map_err(|e| format!("writing journal: {e}"))?;
        }
        if let Some(path) = &cli.metrics {
            let mut reg = Registry::new();
            report.export(&mut reg);
            std::fs::write(path, reg.expose()).map_err(|e| format!("writing metrics: {e}"))?;
        }
        if cli.deny_failures && report.failed() > 0 {
            eprintln!("qoa-loadgen: {} hard failures in cluster mode", report.failed());
            return Ok(ExitCode::from(3));
        }
        return Ok(ExitCode::SUCCESS);
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
    if let Some(dir) = &cli.bench_out {
        let mut entries = Vec::new();
        for (wi, w) in cfg.workloads.iter().enumerate() {
            for tier in Tier::ALL {
                if let Some(e) = calib.entry(wi, tier) {
                    entries.push(BenchEntry {
                        class: format!("{}/{}", w.name, tier.name()),
                        cycles: e.cost,
                    });
                }
            }
        }
        write_bench_json(dir, "serve", "qoa-loadgen", cli.seed, &entries)
            .map_err(|e| e.to_string())?;
    }

    if report.faults() != report.restores() {
        return Err(format!(
            "invariant violated: {} faults but {} restores",
            report.faults(),
            report.restores()
        ));
    }
    if cli.deny_failures && report.failed() > 0 {
        eprintln!("qoa-loadgen: {} hard failures (should be shed, not failed)", report.failed());
        return Ok(ExitCode::from(3));
    }
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let cli = qoa_core::cli::parse_args(USAGE, parse);
    match run(&cli) {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("qoa-loadgen: {msg}");
            ExitCode::from(2)
        }
    }
}
