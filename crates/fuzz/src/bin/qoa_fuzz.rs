//! `qoa-fuzz`: the differential semantics fuzzing driver.
//!
//! Generates a seeded batch of guest programs, runs each through the
//! six-tier configuration matrix (checked interpreter, elided-check
//! interpreter, opt1, opt2, tracing JIT, and a seeded chaos-recovered
//! run), and demands identical guest-visible semantics everywhere. Any
//! divergence is delta-debugged to a minimal repro and written as a
//! self-contained artifact (program text + seed + exact repro command)
//! under the artifacts directory.
//!
//! The sweep fans through the supervised executor: resumable via the
//! journal, and journal-byte-identical at any `--jobs`.
//!
//! ```text
//! qoa-fuzz --seed 7 --count 500 --jobs 8 --deny-divergence
//! qoa-fuzz --seed 7 --count 500 --only gen-00042 --emit
//! qoa-fuzz --seed 7 --count 100 --plant-bug swap-sub   # oracle self-test
//! ```

use qoa_core::available_jobs;
use qoa_core::cli::{CliError, Flags};
use qoa_fuzz::gen::{generate_source, GenConfig};
use qoa_fuzz::oracle::BugPlant;
use qoa_fuzz::sweep::{run_sweep, SweepOptions};
use qoa_fuzz::program_seed;

#[derive(Debug)]
struct FuzzCli {
    opts: SweepOptions,
    deny_divergence: bool,
    emit: bool,
}

const USAGE: &str = "usage: qoa-fuzz [--seed N] [--count N] [--jobs N] [--max-stmts N]\n\
     \x20               [--journal-dir DIR] [--artifacts-dir DIR] [--fresh]\n\
     \x20               [--plant-bug swap-sub] [--corpus] [--only NAME]\n\
     \x20               [--emit] [--deny-divergence]";

/// A count or seed, decimal or `0x`-prefixed hex (as repro commands
/// print seeds), that must fit the target type.
fn number<T: TryFrom<u64>>(v: &str) -> Result<T, String> {
    let n = match v.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => v.parse(),
    }
    .map_err(|e| e.to_string())?;
    T::try_from(n).map_err(|_| format!("{n} is out of range"))
}

fn parse_cli(f: &mut Flags) -> Result<FuzzCli, CliError> {
    let mut cli = FuzzCli {
        opts: SweepOptions::new(0),
        deny_divergence: false,
        emit: false,
    };
    cli.opts.jobs = available_jobs();
    while let Some(flag) = f.next_flag()? {
        match flag.as_str() {
            "--seed" => cli.opts.seed = f.value_with(number)?,
            "--count" => cli.opts.count = f.value_with(number)?,
            "--jobs" => cli.opts.jobs = f.value_with(number)?,
            "--max-stmts" => cli.opts.max_stmts = f.value_with(number)?,
            "--journal-dir" => cli.opts.journal_dir = f.value()?,
            "--artifacts-dir" => cli.opts.artifacts_dir = f.value()?,
            "--fresh" => cli.opts.fresh = true,
            "--corpus" => cli.opts.corpus = true,
            "--only" => cli.opts.only = Some(f.value()?),
            "--plant-bug" => {
                cli.opts.plant =
                    Some(f.value_with(|v| BugPlant::parse(v).ok_or("expected swap-sub"))?);
            }
            "--emit" => cli.emit = true,
            "--deny-divergence" => cli.deny_divergence = true,
            _ => return Err(f.unknown()),
        }
    }
    Ok(cli)
}

/// Prints the generated program(s) selected by `--only` (or the whole
/// batch) without running the oracle.
fn emit(cli: &FuzzCli) {
    let cfg = GenConfig { max_stmts: cli.opts.max_stmts };
    for index in 0..cli.opts.count {
        let name = format!("gen-{index:05}");
        if let Some(only) = &cli.opts.only {
            if &name != only {
                continue;
            }
        }
        let seed = program_seed(cli.opts.seed, index);
        println!("# {name} seed={seed:#018x}");
        println!("{}", generate_source(seed, &cfg));
    }
}

fn main() {
    let cli = qoa_core::cli::parse_args(USAGE, parse_cli);
    if cli.emit {
        emit(&cli);
        return;
    }

    println!(
        "qoa-fuzz: seed={:#018x} count={} jobs={} max-stmts={}{}{}",
        cli.opts.seed,
        cli.opts.count,
        cli.opts.jobs,
        cli.opts.max_stmts,
        cli.opts
            .plant
            .map_or(String::new(), |p| format!(" plant-bug={}", p.name())),
        if cli.opts.corpus { " +corpus" } else { "" },
    );

    let summary = match run_sweep(&cli.opts) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("qoa-fuzz: sweep failed: {e}");
            std::process::exit(1);
        }
    };

    println!(
        "programs={} agree={} inconclusive={} diverge={} resumed={}",
        summary.programs,
        summary.agreed,
        summary.inconclusive,
        summary.divergences.len(),
        summary.resumed,
    );
    println!("journal: {}", summary.journal_path.display());

    for rec in &summary.divergences {
        println!("DIVERGENCE {}: tier={} {}", rec.name, rec.tier, rec.detail);
        if let Some(report) = &rec.shrunk {
            println!(
                "  shrunk to {} stmts ({} evals, minimal={})",
                report.stmts, report.evals, report.minimal
            );
        }
        println!("  repro: {}", rec.command);
    }

    if cli.deny_divergence && !summary.divergences.is_empty() {
        eprintln!(
            "qoa-fuzz: {} divergence(s) with --deny-divergence",
            summary.divergences.len()
        );
        std::process::exit(1);
    }
}
