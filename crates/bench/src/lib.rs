//! Shared scaffolding for the figure/table regeneration binaries.
//!
//! Every binary accepts the same flags:
//!
//! * `--scale tiny|small|full` — workload size (default `small`; the paper's
//!   qualitative shapes appear at every scale, but the GC-related
//!   magnitudes need the allocation volume of `small` or `full`).
//! * `--subset N` — limit per-benchmark experiments to the first `N`
//!   benchmarks of the relevant suite (sweep binaries default to the
//!   paper's own per-benchmark subsets).
//! * `--all` — run the complete suite even for sweep binaries.
//! * `--csv` — emit CSV instead of aligned text.
//! * `--fresh` — ignore the run journal and re-measure everything.
//! * `--deadline-secs N` — wall-clock deadline per measurement cell.
//! * `--max-failure-rate F` — failure rate (0–1) above which the binary
//!   exits nonzero (default 0.25).
//! * `--journal-dir DIR` — where run journals live (default `results/`).
//! * `--jobs N` — worker threads for the supervised parallel executor
//!   (default: available parallelism). `--jobs 1` runs the same
//!   supervision pipeline on a single worker; outcomes are identical for
//!   any jobs count by the executor's determinism contract.
//! * `--seed N` — executor seed (retry backoff schedules; default 0).
//! * `--budget N` — admission budget in cell cost units; cells beyond it
//!   are shed lowest-priority-first (recorded `shed`, not `failed`).
//! * `--chaos-seed N` — run every prewarmed cell under a seeded chaos
//!   fault plan (recovered faults; measured results stay identical to
//!   fault-free runs by the differential oracle).
//! * `--exec-metrics` — print the executor's scheduler counters to
//!   stderr as Prometheus text exposition after the prewarm pass.

use qoa_core::cli::{CliError, Flags};
use qoa_core::harness::CellChaos;
use qoa_core::report::Table;
use qoa_core::{
    available_jobs, CellMetrics, ExecutorOptions, Harness, HarnessOptions, SupervisedCell,
};
use qoa_workloads::{Scale, Workload};
use std::path::PathBuf;
use std::time::Duration;

/// Parsed command-line options.
#[derive(Debug, Clone)]
pub struct Cli {
    /// Workload scale.
    pub scale: Scale,
    /// Optional benchmark-count limit.
    pub subset: Option<usize>,
    /// Run complete suites in sweep binaries.
    pub all: bool,
    /// CSV output.
    pub csv: bool,
    /// Ignore the run journal.
    pub fresh: bool,
    /// Per-cell wall-clock deadline in seconds.
    pub deadline_secs: Option<u64>,
    /// Failure rate above which the run exits nonzero.
    pub max_failure_rate: f64,
    /// Journal directory.
    pub journal_dir: PathBuf,
    /// Worker threads for the supervised parallel executor.
    pub jobs: usize,
    /// Executor seed (deterministic retry backoff schedules).
    pub seed: u64,
    /// Admission budget in cell cost units (`None` = admit everything).
    pub budget: Option<u64>,
    /// Seed for per-cell chaos fault plans during prewarm.
    pub chaos_seed: Option<u64>,
    /// Print executor scheduler metrics to stderr after prewarm.
    pub exec_metrics: bool,
    /// Run the static-optimization mode (`fig04-static --opt`).
    pub opt: bool,
    /// Optimization level for `--opt` runs (default: the highest).
    pub opt_level: u8,
}

impl Default for Cli {
    fn default() -> Self {
        Cli {
            scale: Scale::Small,
            subset: None,
            all: false,
            csv: false,
            fresh: false,
            deadline_secs: None,
            max_failure_rate: 0.25,
            journal_dir: PathBuf::from("results"),
            jobs: available_jobs(),
            seed: 0,
            budget: None,
            chaos_seed: None,
            exec_metrics: false,
            opt: false,
            opt_level: qoa_analysis::MAX_OPT_LEVEL,
        }
    }
}

/// Opens the resumable harness for `figure` under the CLI's options.
///
/// The configuration fingerprint covers everything that changes a cell's
/// *measured values* (currently the workload scale); cell identity covers
/// the rest, so journals survive subset/ordering changes.
///
/// # Panics
///
/// Panics when an existing journal cannot be read.
pub fn harness(cli: &Cli, figure: &str) -> Harness {
    // `opt=` joins the fingerprint only when the optimizer is in play, so
    // every pre-existing journal stays valid verbatim.
    let fingerprint = if cli.opt {
        format!("scale={:?},opt={}", cli.scale, cli.opt_level)
    } else {
        format!("scale={:?}", cli.scale)
    };
    let mut opts = HarnessOptions::new(figure, fingerprint);
    opts.journal_dir = cli.journal_dir.clone();
    opts.fresh = cli.fresh;
    opts.deadline = cli.deadline_secs.map(Duration::from_secs);
    opts.max_failure_rate = cli.max_failure_rate;
    Harness::open(opts).unwrap_or_else(|e| panic!("cannot open run journal: {e}"))
}

/// Cell text for a failed measurement in a report.
pub const NA: &str = "n/a";

/// The flags every figure/table binary takes.
const USAGE: &str = "flags: --scale tiny|small|full  --subset N  --all  --csv  --fresh  \
     --deadline-secs N  --max-failure-rate F  --journal-dir DIR  --jobs N  \
     --seed N  --budget N  --chaos-seed N  --exec-metrics  --opt  --opt-level N";

/// Parses the process arguments.
///
/// # Panics
///
/// Panics with a usage message on an unknown flag or a missing or
/// unparsable value; `--help` prints the usage and exits 0.
pub fn cli() -> Cli {
    qoa_core::cli::parse_args(USAGE, parse)
}

fn parse(f: &mut Flags) -> Result<Cli, CliError> {
    let mut out = Cli::default();
    while let Some(flag) = f.next_flag()? {
        match flag.as_str() {
            "--scale" => out.scale = f.value()?,
            "--subset" => out.subset = Some(f.value()?),
            "--all" => out.all = true,
            "--csv" => out.csv = true,
            "--fresh" => out.fresh = true,
            "--deadline-secs" => out.deadline_secs = Some(f.value()?),
            "--max-failure-rate" => out.max_failure_rate = f.value()?,
            "--journal-dir" => out.journal_dir = f.value()?,
            "--jobs" => out.jobs = f.value()?,
            "--seed" => out.seed = f.value()?,
            "--budget" => out.budget = Some(f.value()?),
            "--chaos-seed" => out.chaos_seed = Some(f.value()?),
            "--exec-metrics" => out.exec_metrics = true,
            "--opt" => out.opt = true,
            "--opt-level" => {
                out.opt_level = f.value()?;
                out.opt = true;
            }
            _ => return Err(f.unknown()),
        }
    }
    Ok(out)
}

/// The executor configuration implied by the CLI: thread count, seed,
/// budget, and the per-cell deadline (which also arms the watchdog).
pub fn executor_options(cli: &Cli) -> ExecutorOptions {
    let mut opts = ExecutorOptions::new(cli.jobs.max(1));
    opts.seed = cli.seed;
    opts.budget = cli.budget;
    opts.cell_deadline = cli.deadline_secs.map(Duration::from_secs);
    opts
}

/// The per-cell chaos configuration implied by `--chaos-seed`, if any.
pub fn cell_chaos(cli: &Cli) -> Option<CellChaos> {
    cli.chaos_seed.map(|seed| CellChaos { seed, horizon: 20_000, points: 3 })
}

/// Runs the figure's cell specs through the supervised parallel executor
/// (journaling every outcome, so the sequential render loop that follows
/// answers each cell from the journal) and honours `--exec-metrics`.
pub fn prewarm(cli: &Cli, h: &mut Harness, specs: Vec<SupervisedCell<CellMetrics>>) {
    let stats = h.prewarm(specs, &executor_options(cli));
    if cli.exec_metrics {
        let mut reg = qoa_obs::metrics::Registry::new();
        stats.export(&mut reg);
        eprint!("{}", reg.expose());
    }
}

/// Applies the subset limit to a suite.
pub fn limit<'w>(cli: &Cli, suite: &'w [Workload]) -> Vec<&'w Workload> {
    let n = cli.subset.unwrap_or(suite.len());
    suite.iter().take(n).collect()
}

/// The per-benchmark subset used by the sweep binaries unless `--all`.
pub fn sweep_subset<'w>(cli: &Cli, suite: &'w [Workload], names: &[&str]) -> Vec<&'w Workload> {
    if cli.all {
        return limit(cli, suite);
    }
    match cli.subset {
        Some(n) => suite.iter().take(n).collect(),
        None => suite.iter().filter(|w| names.contains(&w.name)).collect(),
    }
}

/// Prints a table per the CLI's format choice.
pub fn emit(cli: &Cli, table: &Table) {
    if cli.csv {
        print!("{}", table.to_csv());
    } else {
        println!("{}", table.render());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn limit_respects_subset() {
        let cli = Cli { subset: Some(3), ..Cli::default() };
        let suite = qoa_workloads::python_suite();
        assert_eq!(limit(&cli, suite).len(), 3);
        let cli = Cli::default();
        assert_eq!(limit(&cli, suite).len(), suite.len());
    }

    #[test]
    fn sweep_subset_defaults_to_named() {
        let cli = Cli::default();
        let suite = qoa_workloads::python_suite();
        let sel = sweep_subset(&cli, suite, &qoa_workloads::FIG8_BENCHMARKS);
        assert_eq!(sel.len(), qoa_workloads::FIG8_BENCHMARKS.len());
    }
}
