//! `qoa-benchmark`: runs one workload of the layered benchmark, or
//! compares two sets of runs.
//!
//! ```text
//! qoa-benchmark --workload W [--seed N] [--seconds S] [--trace 0|1]
//! qoa-benchmark run W [--seed N] [--seconds S]      # same as --trace 0
//! qoa-benchmark trace W [--seed N] [--seconds S]    # same as --trace 1
//! qoa-benchmark compare DIR_A DIR_B
//! ```
//!
//! A run prints one JSON result line last on stdout and exits 1 when any
//! output check failed. A traced run also writes its last traced pass's
//! spans to `out/<workload>.trace.json` beside this crate's manifest.

use qoa_benchmark::{compare, run, spec, RunOptions, Size, Workload, DEFAULT_SEED};
use std::path::Path;
use std::process::ExitCode;

const USAGE: &str = "usage:\n  \
    qoa-benchmark --workload W [--seed N] [--seconds S] [--trace 0|1]\n  \
    qoa-benchmark run W [--seed N] [--seconds S]\n  \
    qoa-benchmark trace W [--seed N] [--seconds S]\n  \
    qoa-benchmark compare DIR_A DIR_B\n\
    workloads: trajectory uarch-sweep nursery fuzz-oracle cluster";

fn parse_run(args: &[String], spec: &spec::Spec) -> Result<RunOptions, String> {
    let mut workload = None;
    let mut opts = RunOptions {
        workload: Workload::Trajectory,
        size: Size::Full,
        seed: DEFAULT_SEED,
        seconds: spec.run_seconds as f64,
        trace: false,
    };
    let mut rest = args;
    if let Some(cmd @ ("run" | "trace")) = rest.first().map(String::as_str) {
        opts.trace = cmd == "trace";
        workload = rest.get(1).cloned();
        rest = rest.get(2..).unwrap_or_default();
    }
    let mut it = rest.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || value.parse::<u64>().map_err(|_| format!("{flag}: not a number: {value}"));
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => opts.seed = number()?,
            "--seconds" => opts.seconds = number()? as f64,
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let name = workload.ok_or("no workload given")?;
    opts.workload = Workload::from_name(&name).ok_or_else(|| format!("unknown workload {name}"))?;
    Ok(opts)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let spec = spec::spec();
    if args.first().map(String::as_str) == Some("compare") {
        let [_, a, b] = args.as_slice() else {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        };
        return match compare::compare(&spec, Path::new(a), Path::new(b)) {
            Ok((table, regressed)) => {
                print!("{table}");
                if regressed {
                    ExitCode::FAILURE
                } else {
                    ExitCode::SUCCESS
                }
            }
            Err(e) => {
                eprintln!("compare: {e}");
                ExitCode::from(2)
            }
        };
    }
    let opts = match parse_run(&args, &spec) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };

    let report = run(&opts);
    if opts.trace {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        let path = dir.join(format!("{}.trace.json", opts.workload.name()));
        let written = std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&path, qoa_obs::export_trace(&report.spans)));
        if let Err(e) = written {
            eprintln!("writing {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    let names = if opts.trace { &spec.per_layer } else { &spec.end_to_end };
    match report.render(names) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    }
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
