//! `qoa-bench`: the perf-trajectory regression harness.
//!
//! Runs a fixed workload panel — go / float / richards, each at opt
//! level 0 and [`qoa_analysis::MAX_OPT_LEVEL`], each under the
//! interpreter (CPython) and the JIT run-time (PyPy-JIT) — and emits a
//! versioned `BENCH_trajectory.json` snapshot through
//! [`qoa_core::benchsnap`]. Simulated cycles are deterministic replay
//! counts and compare *exactly* against the committed baseline; wall
//! times are host noise and only ever produce report-only drift lines.
//!
//! Exit status: nonzero when any class's simulated cycles regressed (or
//! a baseline class disappeared from the panel), zero otherwise —
//! improvements print a "refresh the baseline" hint but do not fail.
//! `--write-baseline` regenerates the baseline file instead of diffing.

use qoa_core::benchsnap::{
    diff_snapshots, parse_bench_json, render_bench_json, BenchEntry, BenchSnapshot,
};
use qoa_core::cli::{CliError, Flags};
use qoa_core::runtime::RuntimeConfig;
use qoa_model::RuntimeKind;
use qoa_uarch::UarchConfig;
use qoa_workloads::Scale;
use std::path::PathBuf;

/// The fixed workload panel. Three classes of guest program: pointer
/// chasing over heap objects (go), float arithmetic (float), and an
/// OO message-dispatch benchmark (richards).
const PANEL: [&str; 3] = ["go", "float", "richards"];

/// The two execution tiers the trajectory tracks, as (label, runtime).
const TIERS: [(&str, RuntimeKind); 2] =
    [("interp", RuntimeKind::CPython), ("jit", RuntimeKind::PyPyJit)];

#[derive(Debug)]
struct BenchCli {
    scale: Scale,
    baseline: PathBuf,
    write_baseline: bool,
    out: Option<PathBuf>,
    wall_band_pct: f64,
    seed: u64,
}

impl Default for BenchCli {
    fn default() -> Self {
        BenchCli {
            scale: Scale::Small,
            baseline: PathBuf::from("results/BENCH_trajectory.json"),
            write_baseline: false,
            out: None,
            wall_band_pct: 25.0,
            seed: 0,
        }
    }
}

const USAGE: &str = "flags: --scale tiny|small|full  --baseline FILE  --write-baseline  \
     --out FILE  --wall-band PCT  --seed N";

fn parse_cli(f: &mut Flags) -> Result<BenchCli, CliError> {
    let mut out = BenchCli::default();
    while let Some(flag) = f.next_flag()? {
        match flag.as_str() {
            "--scale" => out.scale = f.value()?,
            "--baseline" => out.baseline = f.value()?,
            "--write-baseline" => out.write_baseline = true,
            "--out" => out.out = Some(f.value()?),
            "--wall-band" => out.wall_band_pct = f.value()?,
            "--seed" => out.seed = f.value()?,
            _ => return Err(f.unknown()),
        }
    }
    Ok(out)
}

/// Measures every cell of the panel, in fixed (workload, opt, tier)
/// order so the snapshot bytes depend only on the measurements.
fn measure_panel(scale: Scale) -> Vec<BenchEntry> {
    let uarch = UarchConfig::skylake();
    let mut entries = Vec::new();
    for wl in PANEL {
        let workload =
            qoa_workloads::by_name(wl).unwrap_or_else(|| panic!("panel workload '{wl}' missing"));
        let source = workload.source(scale);
        for opt_level in [0, qoa_analysis::MAX_OPT_LEVEL] {
            for (tier, kind) in TIERS {
                let class = format!("{wl}/opt{opt_level}/{tier}");
                let rt = RuntimeConfig::new(kind).with_opt_level(opt_level);
                let t = std::time::Instant::now();
                let run = qoa_core::capture(&source, &rt)
                    .unwrap_or_else(|e| panic!("panel cell {class} failed: {e}"));
                let wall_nanos = t.elapsed().as_nanos() as u64;
                let stats = run.trace.simulate_simple(&uarch);
                eprintln!("  {class}: {} cycles", stats.cycles);
                entries.push(BenchEntry { class, wall_nanos, cycles: stats.cycles });
            }
        }
    }
    entries
}

fn write_snapshot(path: &std::path::Path, body: &str) {
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)
                .unwrap_or_else(|e| panic!("creating {}: {e}", dir.display()));
        }
    }
    std::fs::write(path, body).unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
    println!("snapshot: {} ({} bytes)", path.display(), body.len());
}

fn load_baseline(path: &std::path::Path) -> BenchSnapshot {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        panic!(
            "reading baseline {}: {e}\n(run `qoa-bench --write-baseline` to create it)",
            path.display()
        )
    });
    parse_bench_json(&text)
        .unwrap_or_else(|e| panic!("parsing baseline {}: {e}", path.display()))
}

fn main() {
    let cli = qoa_core::cli::parse_args(USAGE, parse_cli);
    eprintln!(
        "measuring trajectory panel ({} workloads x opt {{0,{}}} x {} tiers) at {:?} scale...",
        PANEL.len(),
        qoa_analysis::MAX_OPT_LEVEL,
        TIERS.len(),
        cli.scale
    );
    let entries = measure_panel(cli.scale);
    let body = render_bench_json("trajectory", "qoa-bench", cli.seed, &entries);

    if let Some(out) = &cli.out {
        write_snapshot(out, &body);
    }
    if cli.write_baseline {
        write_snapshot(&cli.baseline, &body);
        return;
    }

    let baseline = load_baseline(&cli.baseline);
    let current = parse_bench_json(&body).expect("own snapshot parses");
    let diff = diff_snapshots(&baseline, &current, cli.wall_band_pct);
    print!("{}", diff.render());
    if diff.gate_failed() {
        eprintln!(
            "perf trajectory gate failed against {} (cycles are deterministic; \
             an increase is a real regression)",
            cli.baseline.display()
        );
        std::process::exit(1);
    }
}
