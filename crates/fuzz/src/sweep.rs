//! The fuzzing sweep: fan a batch of programs through the differential
//! oracle under the supervised executor.
//!
//! Each program is one executor cell. Cells are keyed by `(name,
//! "differential", "seed", <seed hex>)` and journaled exactly like the
//! figure binaries' measurement cells, so a sweep is resumable (rerunning
//! with the same seed/count/config skips completed programs) and the
//! journal file is byte-identical at any `--jobs` — the ordered-commit
//! executor plus the journal's sorted entry map guarantee it.
//!
//! A divergence shrinks *inside its cell* (so minimization parallelizes
//! with the rest of the sweep) and surfaces as a
//! [`CellOutcome::Failed`] journal entry with kind `"divergence"`; after
//! the batch commits, [`run_sweep`] writes a self-contained repro
//! artifact per divergence under the artifacts directory. A harness
//! failure is journaled under its own kind, and a cell the watchdog
//! abandoned as `lost`; the summary counts every failed cell as a
//! divergence, on the run that journals it and on every resume.

use std::path::{Path, PathBuf};

use qoa_core::{
    run_supervised, CellKey, CellMetrics, CellOutcome, CellVerdict, ExecutorOptions, Journal,
    Metric, QoaError, SupervisedCell,
};
use qoa_frontend::stmt_count;

use crate::gen::{generate_source, GenConfig};
use crate::oracle::{differential, tier_diverges, BugPlant, FuzzVerdict};
use crate::shrink::{shrink, ShrinkReport};
use crate::program_seed;

/// How to run one fuzzing sweep.
#[derive(Debug, Clone)]
pub struct SweepOptions {
    /// The sweep seed; each program's seed derives from it.
    pub seed: u64,
    /// Generated programs in the batch.
    pub count: u64,
    /// Executor worker threads.
    pub jobs: usize,
    /// Statement budget per generated program.
    pub max_stmts: usize,
    /// Where the journal lives.
    pub journal_dir: PathBuf,
    /// Ignore prior journal contents.
    pub fresh: bool,
    /// Plant a known semantics bug into the opt2 tier (mutation testing
    /// of the oracle itself).
    pub plant: Option<BugPlant>,
    /// Where repro artifacts are written.
    pub artifacts_dir: PathBuf,
    /// Predicate-evaluation budget per shrink.
    pub shrink_budget: usize,
    /// Also run the corpus-suite anchor workloads through the oracle.
    pub corpus: bool,
    /// Restrict the sweep to one program by name (`gen-00017`,
    /// `corpus-text_pipeline`).
    pub only: Option<String>,
}

impl SweepOptions {
    /// Defaults for a given sweep seed.
    pub fn new(seed: u64) -> SweepOptions {
        SweepOptions {
            seed,
            count: 100,
            jobs: 1,
            max_stmts: GenConfig::default().max_stmts,
            journal_dir: PathBuf::from("results/fuzz"),
            fresh: false,
            plant: None,
            artifacts_dir: PathBuf::from("results/fuzz"),
            shrink_budget: 3000,
            corpus: false,
            only: None,
        }
    }

    /// The journal configuration string: any change to it invalidates
    /// prior entries, so resumed sweeps can never mix generations.
    pub fn config_string(&self) -> String {
        format!(
            "fuzz-v1 seed={:#018x} count={} max-stmts={} plant={} corpus={}",
            self.seed,
            self.count,
            self.max_stmts,
            self.plant.map_or("none", |p| p.name()),
            self.corpus,
        )
    }
}

/// One confirmed divergence, minimized.
#[derive(Debug, Clone)]
pub struct DivergenceRecord {
    /// Program name within the sweep.
    pub name: String,
    /// The program's generator seed (0 for corpus anchors).
    pub seed: u64,
    /// Tier that disagreed with the checked-interpreter baseline.
    pub tier: String,
    /// What differed.
    pub detail: String,
    /// The shrunk repro, when this run performed the shrink (a resumed
    /// journal entry keeps only the summary line).
    pub shrunk: Option<ShrinkReport>,
    /// The exact command that reproduces the divergence.
    pub command: String,
}

/// What one sweep did.
#[derive(Debug, Clone)]
pub struct SweepSummary {
    /// Programs considered (generated + corpus anchors, after `--only`).
    pub programs: u64,
    /// Programs whose six tiers agreed.
    pub agreed: u64,
    /// Programs abandoned on a fuel ceiling.
    pub inconclusive: u64,
    /// Programs answered from the journal without re-running.
    pub resumed: u64,
    /// Every divergence, in deterministic (name) order.
    pub divergences: Vec<DivergenceRecord>,
    /// Where the journal was written.
    pub journal_path: PathBuf,
}

/// One cell's in-memory result (the executor's `T`).
struct ProgramOutcome {
    status: &'static str,
    result: Option<String>,
    bytecodes: u64,
    stmts: usize,
    divergence: Option<DivergenceRecord>,
}

/// One program queued for the sweep.
struct Candidate {
    name: String,
    seed: u64,
    source: String,
}

fn candidates(opts: &SweepOptions) -> Vec<Candidate> {
    let cfg = GenConfig { max_stmts: opts.max_stmts };
    let mut out = Vec::new();
    for index in 0..opts.count {
        let seed = program_seed(opts.seed, index);
        out.push(Candidate {
            name: format!("gen-{index:05}"),
            seed,
            source: generate_source(seed, &cfg),
        });
    }
    if opts.corpus {
        for w in qoa_workloads::corpus_suite() {
            out.push(Candidate {
                name: format!("corpus-{}", w.name),
                seed: 0,
                source: w.source(qoa_workloads::Scale::Tiny),
            });
        }
    }
    if let Some(only) = &opts.only {
        out.retain(|c| &c.name == only);
    }
    out
}

fn repro_command(opts: &SweepOptions, name: &str) -> String {
    let mut cmd = format!(
        "qoa-fuzz --seed {:#018x} --count {} --max-stmts {} --only {name} --fresh",
        opts.seed, opts.count, opts.max_stmts
    );
    if let Some(p) = opts.plant {
        cmd.push_str(&format!(" --plant-bug {}", p.name()));
    }
    if opts.corpus {
        cmd.push_str(" --corpus");
    }
    cmd
}

/// Runs the oracle on one candidate and, on divergence, shrinks it.
fn run_candidate(cand: &Candidate, opts: &SweepOptions) -> ProgramOutcome {
    let stmts = qoa_frontend::parse(&cand.source).map_or(0, |m| stmt_count(&m));
    match differential(&cand.source, cand.seed, opts.plant) {
        FuzzVerdict::Agree { result, bytecodes } => ProgramOutcome {
            status: "agree",
            result,
            bytecodes,
            stmts,
            divergence: None,
        },
        FuzzVerdict::Inconclusive => ProgramOutcome {
            status: "inconclusive",
            result: None,
            bytecodes: 0,
            stmts,
            divergence: None,
        },
        FuzzVerdict::Diverge(div) => {
            let seed = cand.seed;
            let plant = opts.plant;
            // Shrink against the single tier that diverged: the shrinker
            // explores thousands of candidates, and re-running the full
            // six-way matrix for each would dominate the sweep's cost.
            let tier = div.tier.clone();
            let mut pred = |candidate: &str| tier_diverges(candidate, &tier, seed, plant);
            let report = shrink(&cand.source, &mut pred, opts.shrink_budget);
            ProgramOutcome {
                status: "diverge",
                result: None,
                bytecodes: 0,
                stmts,
                divergence: Some(DivergenceRecord {
                    name: cand.name.clone(),
                    seed: cand.seed,
                    tier: div.tier,
                    detail: div.detail,
                    shrunk: Some(report),
                    command: repro_command(opts, &cand.name),
                }),
            }
        }
    }
}

fn metrics_of(outcome: &ProgramOutcome) -> CellMetrics {
    let mut m = CellMetrics::new();
    m.insert("status".to_string(), Metric::Str(outcome.status.to_string()));
    m.insert("stmts".to_string(), Metric::Int(outcome.stmts as i64));
    if outcome.status == "agree" {
        m.insert("bytecodes".to_string(), Metric::Int(outcome.bytecodes as i64));
        m.insert(
            "result".to_string(),
            Metric::Str(outcome.result.clone().unwrap_or_else(|| "<none>".to_string())),
        );
    }
    m
}

fn divergence_message(rec: &DivergenceRecord) -> String {
    let shrunk = rec
        .shrunk
        .as_ref()
        .map_or_else(|| "?".to_string(), |r| r.stmts.to_string());
    format!("tier={} shrunk_stmts={} detail={}", rec.tier, shrunk, rec.detail)
}

fn write_artifacts(dir: &Path, rec: &DivergenceRecord) -> Result<(), QoaError> {
    let Some(report) = &rec.shrunk else { return Ok(()) };
    std::fs::create_dir_all(dir)
        .map_err(|e| QoaError::journal(format!("creating {}", dir.display()), e))?;
    let py = dir.join(format!("repro-{}.py", rec.name));
    std::fs::write(&py, &report.source)
        .map_err(|e| QoaError::journal(format!("writing {}", py.display()), e))?;
    let meta = dir.join(format!("repro-{}.meta.txt", rec.name));
    let text = format!(
        "program: {}\nseed: {:#018x}\ntier: {}\ndetail: {}\nshrunk_stmts: {}\nshrink_evals: {}\nlocally_minimal: {}\nrepro: {}\n",
        rec.name,
        rec.seed,
        rec.tier,
        rec.detail,
        report.stmts,
        report.evals,
        report.minimal,
        rec.command,
    );
    std::fs::write(&meta, text)
        .map_err(|e| QoaError::journal(format!("writing {}", meta.display()), e))?;
    Ok(())
}

/// Runs one sweep: generate, fan through the executor, journal every
/// cell, write repro artifacts for divergences.
///
/// # Errors
///
/// Returns [`QoaError::Journal`] when the journal or an artifact cannot
/// be written.
pub fn run_sweep(opts: &SweepOptions) -> Result<SweepSummary, QoaError> {
    std::fs::create_dir_all(&opts.journal_dir)
        .map_err(|e| QoaError::journal(format!("creating {}", opts.journal_dir.display()), e))?;
    let mut journal = Journal::open(&opts.journal_dir, "fuzz", opts.config_string(), opts.fresh)?;

    let all = candidates(opts);
    let mut summary = SweepSummary {
        programs: all.len() as u64,
        agreed: 0,
        inconclusive: 0,
        resumed: 0,
        divergences: Vec::new(),
        journal_path: journal.path().to_path_buf(),
    };

    // Resume: answer already-journaled cells without re-running them.
    let mut pending = Vec::new();
    for cand in all {
        match journal.get(&cell_key(&cand)) {
            Some(outcome @ (CellOutcome::Ok(_) | CellOutcome::Failed { .. })) => {
                summary.resumed += 1;
                tally(&mut summary, opts, &cand.name, cand.seed, outcome, None);
            }
            Some(CellOutcome::Shed { .. }) | None => pending.push(cand),
        }
    }

    let ids: Vec<(String, u64)> = pending.iter().map(|c| (c.name.clone(), c.seed)).collect();
    let opts_for_cells = opts.clone();
    let cells: Vec<SupervisedCell<ProgramOutcome>> = pending
        .into_iter()
        .map(|cand| {
            let opts = opts_for_cells.clone();
            SupervisedCell::new(cell_key(&cand), move |_deadline| {
                Ok(run_candidate(&cand, &opts))
            })
        })
        .collect();

    let mut exec_opts = ExecutorOptions::new(opts.jobs.max(1));
    exec_opts.seed = opts.seed;
    let (committed, _stats) = run_supervised(cells, &exec_opts);

    // Committed cells come back in submission order, one per pending
    // candidate.
    for (cell, (name, seed)) in committed.into_iter().zip(ids) {
        let (outcome, live) = match cell.verdict {
            CellVerdict::Ok { value, .. } => match value.divergence {
                Some(rec) => {
                    write_artifacts(&opts.artifacts_dir, &rec)?;
                    let outcome = CellOutcome::Failed {
                        kind: "divergence".to_string(),
                        message: divergence_message(&rec),
                        location: None,
                    };
                    (outcome, Some(rec))
                }
                None => (CellOutcome::Ok(metrics_of(&value)), None),
            },
            // The oracle never errors by itself; anything here is a
            // harness failure worth keeping in the journal.
            CellVerdict::Failed { kind, message, location, .. } => {
                (CellOutcome::Failed { kind, message, location }, None)
            }
            CellVerdict::Lost { .. } => (CellOutcome::lost(), None),
            // A shed cell is not journaled, so the next run retries it.
            CellVerdict::Shed => continue,
        };
        tally(&mut summary, opts, &name, seed, &outcome, live);
        journal.record(cell.key, outcome)?;
    }
    journal.compact()?;

    summary
        .divergences
        .sort_by(|a, b| a.name.cmp(&b.name));
    Ok(summary)
}

/// Counts one program's outcome as journaled. A live cell and one
/// answered from the journal both go through here, so a resumed sweep
/// reports what the run that journaled it reported. Every failed cell is
/// a divergence: `live` carries the shrunk record when this run found
/// it, and a record is rebuilt from the journal line otherwise.
fn tally(
    summary: &mut SweepSummary,
    opts: &SweepOptions,
    name: &str,
    seed: u64,
    outcome: &CellOutcome,
    live: Option<DivergenceRecord>,
) {
    match outcome {
        CellOutcome::Ok(metrics) => match metrics.get("status") {
            Some(Metric::Str(s)) if s == "inconclusive" => summary.inconclusive += 1,
            _ => summary.agreed += 1,
        },
        CellOutcome::Failed { kind, message, .. } => {
            summary.divergences.push(live.unwrap_or_else(|| DivergenceRecord {
                name: name.to_string(),
                seed,
                tier: if kind == "divergence" { "<journaled>".into() } else { format!("<{kind}>") },
                detail: message.clone(),
                shrunk: None,
                command: repro_command(opts, name),
            }));
        }
        CellOutcome::Shed { .. } => {}
    }
}

fn cell_key(cand: &Candidate) -> CellKey {
    CellKey::new(
        cand.name.clone(),
        "differential",
        "seed",
        format!("{:016x}", cand.seed),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("qoa-fuzz-sweep-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create temp dir");
        dir
    }

    fn small_opts(seed: u64, dir: &Path) -> SweepOptions {
        let mut opts = SweepOptions::new(seed);
        opts.count = 4;
        opts.max_stmts = 18;
        opts.journal_dir = dir.to_path_buf();
        opts.artifacts_dir = dir.to_path_buf();
        opts
    }

    #[test]
    fn sweep_is_clean_and_journal_is_jobs_invariant() {
        let dir1 = tmpdir("j1");
        let dir4 = tmpdir("j4");
        let mut o1 = small_opts(11, &dir1);
        o1.jobs = 1;
        let mut o4 = small_opts(11, &dir4);
        o4.jobs = 4;
        let s1 = run_sweep(&o1).expect("jobs=1 sweep");
        let s4 = run_sweep(&o4).expect("jobs=4 sweep");
        assert!(s1.divergences.is_empty(), "{:?}", s1.divergences);
        assert_eq!(s1.agreed, s4.agreed);
        let j1 = std::fs::read_to_string(&s1.journal_path).expect("journal 1");
        let j4 = std::fs::read_to_string(&s4.journal_path).expect("journal 4");
        assert_eq!(j1, j4, "journal must be byte-identical across --jobs");
        let _ = std::fs::remove_dir_all(&dir1);
        let _ = std::fs::remove_dir_all(&dir4);
    }

    #[test]
    fn sweep_resumes_from_the_journal() {
        let dir = tmpdir("resume");
        let opts = small_opts(13, &dir);
        let first = run_sweep(&opts).expect("first sweep");
        assert_eq!(first.resumed, 0);
        let second = run_sweep(&opts).expect("second sweep");
        assert_eq!(second.resumed, second.programs);
        assert_eq!(first.agreed, second.agreed);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_failed_cell_counts_as_a_divergence_live_and_resumed() {
        let opts = SweepOptions::new(3);
        let mut summary = SweepSummary {
            programs: 2,
            agreed: 0,
            inconclusive: 0,
            resumed: 0,
            divergences: Vec::new(),
            journal_path: PathBuf::new(),
        };
        let panicked = CellOutcome::Failed {
            kind: "panic".to_string(),
            message: "boom".to_string(),
            location: None,
        };
        // The run that journals a failed cell and the run that reads it
        // back both count it, so --deny-divergence fails on either.
        tally(&mut summary, &opts, "gen-00000", 9, &panicked, None);
        tally(&mut summary, &opts, "gen-00001", 9, &CellOutcome::lost(), None);
        assert_eq!(summary.divergences.len(), 2);
        assert_eq!(summary.divergences[0].tier, "<panic>");
        assert_eq!(summary.divergences[0].detail, "boom");
        assert_eq!(summary.divergences[1].tier, "<lost>");
        assert_eq!(summary.agreed + summary.inconclusive, 0);
    }

    #[test]
    fn planted_bug_is_caught_and_shrunk() {
        let dir = tmpdir("plant");
        let mut opts = small_opts(17, &dir);
        opts.count = 3;
        opts.plant = Some(BugPlant::SwapSubOperands);
        let summary = run_sweep(&opts).expect("planted sweep");
        assert!(
            !summary.divergences.is_empty(),
            "planted swap-sub bug must diverge somewhere in the batch"
        );
        for rec in &summary.divergences {
            let report = rec.shrunk.as_ref().expect("live run shrinks");
            assert!(report.stmts <= 10, "repro too large: {} stmts", report.stmts);
            let py = dir.join(format!("repro-{}.py", rec.name));
            assert!(py.exists(), "missing artifact {}", py.display());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
