//! `qoa-bench`: the perf-trajectory snapshot.
//!
//! Runs a fixed workload panel — go / float / richards, each at opt
//! level 0 and [`qoa_analysis::MAX_OPT_LEVEL`], each under the
//! interpreter (CPython) and the JIT run-time (PyPy-JIT) — and writes a
//! versioned `BENCH_trajectory.json` snapshot through
//! [`qoa_core::benchsnap`] to `--out` (default
//! `results/BENCH_trajectory.json`). Simulated cycles are deterministic
//! replay counts, so the snapshot is a host-independent golden: CI
//! regenerates it and diffs it against the committed file. Host wall
//! time is measured by the layered benchmark (`benchmark/`), not here.
//!
//! Exit status: nonzero only when a panel cell fails.

use qoa_core::benchsnap::{render_bench_json, BenchEntry};
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
    out: PathBuf,
}

impl Default for BenchCli {
    fn default() -> Self {
        BenchCli { scale: Scale::Small, out: PathBuf::from("results/BENCH_trajectory.json") }
    }
}

const USAGE: &str = "flags: --scale tiny|small|full  --out FILE";

/// The snapshot's `seed` field. The panel draws nothing at random, so
/// it is a constant.
const SEED: u64 = 0;

fn parse_cli(f: &mut Flags) -> Result<BenchCli, CliError> {
    let mut out = BenchCli::default();
    while let Some(flag) = f.next_flag()? {
        match flag.as_str() {
            "--scale" => out.scale = f.value()?,
            "--out" => out.out = f.value()?,
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
                let run = qoa_core::capture(&source, &rt)
                    .unwrap_or_else(|e| panic!("panel cell {class} failed: {e}"));
                let stats = run.trace.simulate_simple(&uarch);
                eprintln!("  {class}: {} cycles", stats.cycles);
                entries.push(BenchEntry { class, cycles: stats.cycles });
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
    write_snapshot(&cli.out, &render_bench_json("trajectory", "qoa-bench", SEED, &entries));
}
