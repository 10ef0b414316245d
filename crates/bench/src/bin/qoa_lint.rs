//! qoa-lint: static analysis gate over the bundled workload programs.
//!
//! Compiles, verifies, and lints every benchmark of both suites, then
//! prints the findings. Exit codes: `0` clean, `1` when `--deny warnings`
//! is set and any warning-severity finding fired, `2` when a workload
//! fails to compile or verify (the suite itself is broken).
//!
//! Flags (this binary does not take the figure-harness flags):
//!
//! * `--deny warnings` — exit nonzero on warning-severity findings (the
//!   CI gate).
//! * `--scale tiny|small|full` — workload scale to compile (default
//!   `tiny`; findings are scale-independent for the bundled programs).
//! * `--quiet` — suppress note-severity findings.

use qoa_analysis::{lint, Severity};
use qoa_core::cli::{CliError, Flags};
use qoa_workloads::Scale;

struct Opts {
    deny_warnings: bool,
    scale: Scale,
    quiet: bool,
}

const USAGE: &str = "flags: --deny warnings  --scale tiny|small|full  --quiet";

fn parse_args(f: &mut Flags) -> Result<Opts, CliError> {
    let mut opts = Opts { deny_warnings: false, scale: Scale::Tiny, quiet: false };
    while let Some(flag) = f.next_flag()? {
        match flag.as_str() {
            "--deny" => {
                f.value_with(|v| if v == "warnings" { Ok(()) } else { Err("takes `warnings`") })?;
                opts.deny_warnings = true;
            }
            "--scale" => opts.scale = f.value()?,
            "--quiet" => opts.quiet = true,
            _ => return Err(f.unknown()),
        }
    }
    Ok(opts)
}

fn main() {
    let opts = qoa_core::cli::parse_args(USAGE, parse_args);
    let suites: [(&str, &[qoa_workloads::Workload]); 2] = [
        ("python", qoa_workloads::python_suite()),
        ("jetstream", qoa_workloads::jetstream_suite()),
    ];
    let mut warnings = 0usize;
    let mut notes = 0usize;
    let mut broken = 0usize;
    for (suite_name, suite) in suites {
        for w in suite {
            let src = w.source(opts.scale);
            let code = match qoa_frontend::compile(&src) {
                Ok(c) => c,
                Err(e) => {
                    eprintln!("error[compile] {suite_name}/{}: {e}", w.name);
                    broken += 1;
                    continue;
                }
            };
            let lints = match lint::lint_module(&code, qoa_vm::annotate::instr_profile) {
                Ok(l) => l,
                Err(e) => {
                    eprintln!("error[verify] {suite_name}/{}: {e}", w.name);
                    broken += 1;
                    continue;
                }
            };
            for l in lints {
                match l.severity {
                    Severity::Warning => warnings += 1,
                    Severity::Note => notes += 1,
                }
                if l.severity == Severity::Warning || !opts.quiet {
                    println!("{suite_name}/{}: {l}", w.name);
                }
            }
        }
    }
    println!("qoa-lint: {warnings} warning(s), {notes} note(s), {broken} unanalyzable");
    if broken > 0 {
        std::process::exit(2);
    }
    if opts.deny_warnings && warnings > 0 {
        eprintln!("qoa-lint: failing on warnings (--deny warnings)");
        std::process::exit(1);
    }
}
