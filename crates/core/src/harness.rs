//! The resumable experiment harness.
//!
//! A figure binary opens one [`Harness`], builds every measurement cell
//! once as a [`SupervisedCell`] spec, and hands the whole batch to
//! [`Harness::run`], which returns each cell's metrics in submission
//! order. Each cell:
//!
//! * is **skipped** when the journal already holds its result under the
//!   current configuration (so a killed sweep resumes where it left off,
//!   and a finished one re-renders instantly);
//! * otherwise runs under the supervised parallel executor
//!   ([`run_supervised`]) — a panic, guest error, fuel exhaustion,
//!   wall-clock deadline or simulated OOM becomes a recorded failure
//!   instead of aborting the sweep's sibling cells;
//! * is journaled (success metrics or failure) as soon as the batch
//!   commits it, by appending one line; the batch ends with one sorted,
//!   atomic rewrite of the journal.
//!
//! The figure then renders from the returned vector, decoding typed views
//! ([`NurseryCell`], [`Breakdown`], [`SweepCellPoint`]) from the metrics.
//! [`Harness::finish`] prints the failure annotations under the figure
//! and returns a process exit code: nonzero only when the failure rate
//! exceeds the configured threshold.

use crate::chaos::{capture_chaos, fault_kinds_for, ChaosOptions};
use crate::error::QoaError;
use crate::executor::{
    cell_seed, run_supervised, CellVerdict, CommittedCell, ExecutorOptions, ExecutorStats,
    SupervisedCell,
};
use crate::journal::{CellKey, CellMetrics, CellOutcome, Journal, Metric};
use crate::runtime::{capture, run_with_sink, CapturedRun, RuntimeConfig};
use crate::sweeps::SweepParam;
use crate::Breakdown;
use qoa_chaos::FaultPlan;
use qoa_model::{Category, CategoryMap, OpSink, Phase};
use qoa_uarch::{OooCore, SimpleCore, TraceBuffer, UarchConfig};
use qoa_vm::VmStats;
use qoa_workloads::{Scale, Workload};
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Harness construction options (one per figure binary invocation).
#[derive(Debug, Clone)]
pub struct HarnessOptions {
    /// Figure tag (`fig10`, `table2`, ...): the journal file name.
    pub figure: String,
    /// Directory for journals (default `results/`).
    pub journal_dir: PathBuf,
    /// Ignore the journal's prior contents.
    pub fresh: bool,
    /// Per-cell wall-clock deadline.
    pub deadline: Option<Duration>,
    /// Failure rate above which [`Harness::finish`] exits nonzero.
    pub max_failure_rate: f64,
    /// Configuration fingerprint; journal entries recorded under a
    /// different fingerprint are ignored.
    pub config: String,
}

impl HarnessOptions {
    /// Defaults for `figure` under configuration fingerprint `config`.
    pub fn new(figure: impl Into<String>, config: impl Into<String>) -> Self {
        HarnessOptions {
            figure: figure.into(),
            journal_dir: PathBuf::from("results"),
            fresh: false,
            deadline: None,
            max_failure_rate: 0.25,
            config: config.into(),
        }
    }
}

/// One annotated failure, kept for the end-of-run report.
#[derive(Debug, Clone)]
pub struct FailureNote {
    /// Which cell failed.
    pub key: CellKey,
    /// [`QoaError::kind`] tag.
    pub kind: String,
    /// Rendered error.
    pub message: String,
}

/// The journal-backed, fault-isolated measurement driver.
#[derive(Debug)]
pub struct Harness {
    journal: Journal,
    deadline: Option<Duration>,
    max_failure_rate: f64,
    cells_total: usize,
    cells_skipped: usize,
    failures: Vec<FailureNote>,
    /// Cells the supervised executor's budget gate declined, with the
    /// shed reason. Not failures: they don't count toward the
    /// failure-rate exit gate.
    shed: Vec<(CellKey, String)>,
    journal_error: Option<QoaError>,
}

impl Harness {
    /// Opens the journal and builds the harness.
    ///
    /// # Errors
    ///
    /// Returns [`QoaError::Journal`] when an existing journal cannot be
    /// read.
    pub fn open(opts: HarnessOptions) -> Result<Harness, QoaError> {
        let journal = Journal::open(&opts.journal_dir, &opts.figure, opts.config, opts.fresh)?;
        Ok(Harness {
            journal,
            deadline: opts.deadline,
            max_failure_rate: opts.max_failure_rate,
            cells_total: 0,
            cells_skipped: 0,
            failures: Vec::new(),
            shed: Vec::new(),
            journal_error: None,
        })
    }

    /// Runs a batch of cell specs and returns every spec's metrics in
    /// submission order (`None` for a failed or shed cell).
    ///
    /// Specs the journal already holds are answered from it without
    /// running (a resumed sweep only measures what is still missing); the
    /// rest run through the supervised parallel executor and each
    /// committed outcome is journaled. Results come from the committed
    /// verdicts, never read back from the journal, so an unwritable
    /// journal costs no second measurement. When `opts` carries no cell
    /// deadline, the harness's own per-cell deadline is used (which also
    /// arms the hung-worker watchdog).
    ///
    /// Outcome mapping into the journal:
    ///
    /// * success → `ok` with the attempt count;
    /// * failure (after retries) → `failed`, same metadata;
    /// * shed by the budget gate → `shed` (not a failure; excluded from
    ///   the failure-rate exit gate, rerun with `--fresh` to measure);
    /// * lost to a hung worker → `failed` with kind `lost`.
    ///
    /// Failure and shed notes for [`Harness::finish`] are queued in
    /// submission order. Also returns the scheduler statistics for
    /// optional metrics export.
    pub fn run(
        &mut self,
        specs: Vec<SupervisedCell<CellMetrics>>,
        opts: &ExecutorOptions,
    ) -> (Vec<Option<CellMetrics>>, ExecutorStats) {
        self.cells_total += specs.len();
        let mut outcomes: Vec<Option<(CellKey, CellOutcome)>> = Vec::with_capacity(specs.len());
        let mut todo = Vec::new();
        for spec in specs {
            match self.journal.get(&spec.key) {
                Some(outcome) => {
                    self.cells_skipped += 1;
                    outcomes.push(Some((spec.key.clone(), outcome.clone())));
                }
                None => {
                    outcomes.push(None);
                    todo.push(spec);
                }
            }
        }
        let mut exec = opts.clone();
        if exec.cell_deadline.is_none() {
            exec.cell_deadline = self.deadline;
        }
        let (committed, stats) = run_supervised(todo, &exec);
        // One committed cell per submitted spec, in submission order.
        for (slot, cell) in outcomes.iter_mut().filter(|slot| slot.is_none()).zip(committed) {
            *slot = Some(self.commit(cell));
        }
        // Each commit appended one line; leave the file sorted.
        if self.journal_error.is_none() {
            self.journal_error = self.journal.compact().err();
        }
        let results = outcomes
            .into_iter()
            .map(|slot| {
                let (key, outcome) = slot?;
                match outcome {
                    CellOutcome::Ok(metrics) => Some(metrics),
                    CellOutcome::Failed { kind, message, .. } => {
                        self.failures.push(FailureNote { key, kind, message });
                        None
                    }
                    CellOutcome::Shed { reason } => {
                        self.shed.push((key, reason));
                        None
                    }
                }
            })
            .collect();
        (results, stats)
    }

    /// Journals one committed executor outcome and returns it as a
    /// journal outcome.
    fn commit(&mut self, cell: CommittedCell<CellMetrics>) -> (CellKey, CellOutcome) {
        let (outcome, attempts) = match cell.verdict {
            CellVerdict::Ok { value, attempts } => (CellOutcome::Ok(value), attempts),
            CellVerdict::Failed { kind, message, location, attempts } => {
                (CellOutcome::Failed { kind, message, location }, attempts)
            }
            CellVerdict::Shed => (CellOutcome::Shed { reason: "budget".to_string() }, 0),
            CellVerdict::Lost { attempts } => (
                CellOutcome::Failed {
                    kind: "lost".to_string(),
                    message: "worker hung past the cell deadline; abandoned by the watchdog"
                        .to_string(),
                    location: None,
                },
                attempts,
            ),
        };
        if self.journal_error.is_none() {
            // Already broken: keep measuring, report at the end.
            if let Err(e) =
                self.journal.record_supervised(cell.key.clone(), outcome.clone(), attempts)
            {
                self.journal_error = Some(e);
            }
        }
        (cell.key, outcome)
    }

    /// Cells presented so far (run or skipped).
    pub fn cells_total(&self) -> usize {
        self.cells_total
    }

    /// Cells answered from the journal without re-running.
    pub fn cells_skipped(&self) -> usize {
        self.cells_skipped
    }

    /// Failures observed so far (including journaled ones).
    pub fn failures(&self) -> &[FailureNote] {
        &self.failures
    }

    /// Cells the supervised executor's budget gate shed.
    pub fn shed(&self) -> &[(CellKey, String)] {
        &self.shed
    }

    /// Prints the failure annotations and returns the process exit code:
    /// `0` when the failure rate is within the threshold, `1` otherwise
    /// (or when the journal itself could not be written).
    pub fn finish(self) -> i32 {
        if let Some(e) = &self.journal_error {
            eprintln!("warning: journal unusable, results not persisted: {e}");
        }
        if !self.failures.is_empty() {
            println!(
                "-- {} of {} cells failed (results above exclude them) --",
                self.failures.len(),
                self.cells_total
            );
            for note in &self.failures {
                println!("  {}: [{}] {}", note.key, note.kind, note.message);
            }
        }
        if !self.shed.is_empty() {
            println!(
                "-- {} of {} cells shed by the supervisor (not failures; rerun with --fresh or a \
                 lighter load to measure them) --",
                self.shed.len(),
                self.cells_total
            );
            for (key, reason) in &self.shed {
                println!("  {key}: shed ({reason})");
            }
        }
        let rate = if self.cells_total == 0 {
            0.0
        } else {
            self.failures.len() as f64 / self.cells_total as f64
        };
        if self.journal_error.is_some() || rate > self.max_failure_rate {
            1
        } else {
            0
        }
    }
}

fn metric_i64(m: &CellMetrics, name: &str) -> Option<i64> {
    m.get(name)?.as_i64()
}

fn metric_f64(m: &CellMetrics, name: &str) -> Option<f64> {
    m.get(name)?.as_f64()
}

// ---- cell specs and their decoders -----------------------------------------
//
// Each figure cell is a `*_spec` builder (a `Send + 'static` closure for
// the supervised executor) plus a decoder that turns the cell's journal
// metrics back into the typed view the render loop consumes.

/// Per-cell fault injection for a supervised batch: when set, every cell
/// captures under a chaos plan seeded from `(seed, cell key)` — a pure
/// function of the two, so the plan is identical regardless of which
/// worker runs the cell. Recovered runs produce traces byte-identical to
/// fault-free capture (the differential oracle), which is how the
/// executor's determinism contract is validated under fault load.
#[derive(Debug, Clone, Copy)]
pub struct CellChaos {
    /// Batch chaos seed, mixed with each cell's key.
    pub seed: u64,
    /// Fault-tick horizon in executed bytecodes.
    pub horizon: u64,
    /// Maximum injection points per plan.
    pub points: usize,
}

/// Captures `source` under `rt`, plainly or under a seeded per-cell
/// fault plan.
///
/// This is the capture primitive behind the sweep spec builders and the
/// chaos path of the others; binaries with bespoke cells use it directly
/// so `--chaos-seed` covers them too. The
/// plan seed depends only on the batch seed and the cell key, so the
/// schedule is identical for any worker count.
pub fn capture_cell(
    source: &str,
    rt: &RuntimeConfig,
    chaos: Option<CellChaos>,
    key: &CellKey,
) -> Result<CapturedRun, QoaError> {
    match chaos {
        None => capture(source, rt),
        Some(c) => {
            let plan = FaultPlan::seeded(
                cell_seed(c.seed, key),
                c.horizon,
                c.points,
                fault_kinds_for(rt.kind),
            );
            let (run, _outcome) = capture_chaos(source, rt, &ChaosOptions::new(plan))?;
            Ok(run)
        }
    }
}

/// Runs `source` under `rt` into `core`, the cell's only replay. Without
/// chaos the micro-ops stream straight into the core, so no trace is
/// recorded and the cell deadline bounds the core model too. Under chaos
/// the run is captured and then replayed: a checkpoint must rewind its
/// sink with the machine, which a core model cannot do.
///
/// The nursery and breakdown cells use it, and so do binaries with
/// bespoke cells that replay their run once.
///
/// # Errors
///
/// Returns the typed [`QoaError`] of the run, as [`capture_cell`] does.
pub fn run_cell_into<S: OpSink>(
    source: &str,
    rt: &RuntimeConfig,
    chaos: Option<CellChaos>,
    key: &CellKey,
    mut core: S,
) -> Result<(S, VmStats), QoaError> {
    if chaos.is_none() {
        return run_with_sink(source, rt, core).map(|(core, vm, ..)| (core, vm));
    }
    let run = capture_cell(source, rt, chaos, key)?;
    run.trace.replay(&mut core);
    Ok((core, run.vm))
}

/// Replays one captured trace across a parameter sweep and flattens the
/// points into journal metrics.
fn sweep_metrics(trace: &TraceBuffer, param: SweepParam, base: &UarchConfig) -> CellMetrics {
    let mut m = CellMetrics::new();
    for p in crate::sweeps::sweep_trace(trace, param, base) {
        m.insert(format!("cpi@{}", p.value), Metric::Num(p.cpi));
        m.insert(format!("interp@{}", p.value), Metric::Num(p.phase_cpi[Phase::Interpreter]));
        m.insert(
            format!("gc@{}", p.value),
            Metric::Num(p.phase_cpi[Phase::GcMinor] + p.phase_cpi[Phase::GcMajor]),
        );
        m.insert(format!("jit@{}", p.value), Metric::Num(p.phase_cpi[Phase::JitCode]));
    }
    m
}

/// One journaled nursery-sweep point: the [`NurseryPoint`]
/// (crate::sweeps::NurseryPoint) fields the figure binaries consume.
#[derive(Debug, Clone, PartialEq)]
pub struct NurseryCell {
    /// Nursery size in bytes.
    pub nursery: u64,
    /// Total cycles on the OOO core.
    pub cycles: u64,
    /// Cycles spent in garbage collection.
    pub gc_cycles: u64,
    /// LLC miss rate.
    pub llc_miss_rate: f64,
    /// Minor collections run.
    pub minor_collections: u64,
}

impl NurseryCell {
    /// Cycles outside garbage collection. Saturating: a journaled cell
    /// written by a run that faulted between metric updates can carry
    /// `gc_cycles > cycles`, and a report row must print as n/a rather
    /// than take down the whole figure on underflow.
    pub fn non_gc_cycles(&self) -> u64 {
        self.cycles.saturating_sub(self.gc_cycles)
    }

    /// GC share of total time.
    pub fn gc_share(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.gc_cycles as f64 / self.cycles as f64
        }
    }

    /// Decodes the metrics of a [`nursery_spec`] cell run at `nursery`.
    pub fn from_metrics(nursery: u64, m: &CellMetrics) -> Option<Self> {
        Some(NurseryCell {
            nursery,
            cycles: metric_i64(m, "cycles")? as u64,
            gc_cycles: metric_i64(m, "gc_cycles")? as u64,
            llc_miss_rate: metric_f64(m, "llc_miss_rate")?,
            minor_collections: metric_i64(m, "minor_collections")? as u64,
        })
    }

    /// Decodes one workload's sweep: the next `sizes.len()` results of
    /// [`Harness::run`], one per size in `sizes` order. Failed points come
    /// back as `None` without hiding their siblings.
    pub fn take_row(
        results: &mut impl Iterator<Item = Option<CellMetrics>>,
        sizes: &[u64],
    ) -> Vec<Option<NurseryCell>> {
        sizes
            .iter()
            .map(|&n| NurseryCell::from_metrics(n, &results.next()??))
            .collect()
    }

    /// Picks the lowest-cycle successful point of a fault-isolated sweep.
    pub fn best(points: &[Option<NurseryCell>]) -> Option<&NurseryCell> {
        points.iter().flatten().min_by_key(|p| p.cycles)
    }
}

/// One nursery point of `w` under `rt`, as a supervised cell spec.
///
/// `tag` disambiguates cells measured under non-default hardware (e.g.
/// `"@llc=4MB"` when the figure sweeps the LLC size too); pass `""` for
/// the baseline configuration.
pub fn nursery_spec(
    w: &'static Workload,
    scale: Scale,
    rt: &RuntimeConfig,
    uarch: &UarchConfig,
    nursery: u64,
    tag: &str,
    chaos: Option<CellChaos>,
) -> SupervisedCell<CellMetrics> {
    let key = CellKey::new(
        w.name,
        format!("{:?}", rt.kind),
        format!("nursery{tag}"),
        nursery.to_string(),
    );
    let rt = rt.with_nursery(nursery);
    let uarch = uarch.clone();
    let mkey = key.clone();
    SupervisedCell::new(key, move |deadline| {
        let rt = rt.with_deadline(deadline);
        let (core, vm) =
            run_cell_into(&w.source(scale), &rt, chaos, &mkey, OooCore::new(&uarch))?;
        let stats = core.finish();
        let mut m = CellMetrics::new();
        m.insert("cycles".into(), Metric::Int(stats.cycles as i64));
        m.insert(
            "gc_cycles".into(),
            Metric::Int(
                (stats.cycles_by_phase[Phase::GcMinor] + stats.cycles_by_phase[Phase::GcMajor])
                    as i64,
            ),
        );
        m.insert("llc_miss_rate".into(), Metric::Num(stats.llc.miss_rate()));
        m.insert("minor_collections".into(), Metric::Int(vm.gc.minor_collections as i64));
        Ok(m)
    })
}

/// One simple-core attribution cell of `w` under `rt`, as a supervised
/// cell spec.
pub fn breakdown_spec(
    w: &'static Workload,
    scale: Scale,
    rt: &RuntimeConfig,
    uarch: &UarchConfig,
    chaos: Option<CellChaos>,
) -> SupervisedCell<CellMetrics> {
    let key = CellKey::new(w.name, format!("{:?}", rt.kind), "attribution", "simple-core");
    let rt = *rt;
    let uarch = uarch.clone();
    let mkey = key.clone();
    SupervisedCell::new(key, move |deadline| {
        let rt = rt.with_deadline(deadline);
        let (core, _) =
            run_cell_into(&w.source(scale), &rt, chaos, &mkey, SimpleCore::new(&uarch))?;
        let b = Breakdown::from_stats(w.name, &core.finish());
        let mut m = CellMetrics::new();
        m.insert("cycles".into(), Metric::Int(b.cycles as i64));
        m.insert("instructions".into(), Metric::Int(b.instructions as i64));
        for c in Category::ALL {
            m.insert(format!("share.{c:?}"), Metric::Num(b.shares[c]));
        }
        Ok(m)
    })
}

impl Breakdown {
    /// Decodes the metrics of a [`breakdown_spec`] cell of workload `name`.
    pub fn from_metrics(name: &str, m: &CellMetrics) -> Option<Breakdown> {
        Some(Breakdown {
            name: name.to_string(),
            shares: CategoryMap::from_fn(|c| {
                metric_f64(m, &format!("share.{c:?}")).unwrap_or(0.0)
            }),
            cycles: metric_i64(m, "cycles")? as u64,
            instructions: metric_i64(m, "instructions")? as u64,
        })
    }
}

/// One journaled microarchitecture-sweep point.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepCellPoint {
    /// The raw sweep value.
    pub value: u64,
    /// Overall CPI.
    pub cpi: f64,
    /// Bytecode-interpreter phase CPI contribution.
    pub interp_cpi: f64,
    /// GC (minor + major) phase CPI contribution.
    pub gc_cpi: f64,
    /// JIT-compiled-code phase CPI contribution.
    pub jit_cpi: f64,
}

impl SweepCellPoint {
    /// Decodes the metrics of a [`sweep_param_spec`] cell: one point per
    /// value of `param`, in [`SweepParam::values`] order.
    pub fn from_metrics(param: SweepParam, m: &CellMetrics) -> Option<Vec<SweepCellPoint>> {
        param
            .values()
            .into_iter()
            .map(|value| {
                Some(SweepCellPoint {
                    value,
                    cpi: metric_f64(m, &format!("cpi@{value}"))?,
                    interp_cpi: metric_f64(m, &format!("interp@{value}"))?,
                    gc_cpi: metric_f64(m, &format!("gc@{value}"))?,
                    jit_cpi: metric_f64(m, &format!("jit@{value}"))?,
                })
            })
            .collect()
    }
}

/// The cross-thread trace cache shared by the sweep specs of one
/// (workload, runtime) pair: whichever worker reaches the pair first
/// captures the trace, the other parameters replay it. Capture is
/// deterministic, so the cached trace is identical no matter which cell
/// won the race. Fully-journaled cells never touch the cache, so a
/// completed figure re-renders without a single guest execution.
pub type SharedTraceCache = Arc<Mutex<Option<Arc<TraceBuffer>>>>;

/// A fresh, empty [`SharedTraceCache`].
pub fn shared_trace_cache() -> SharedTraceCache {
    Arc::new(Mutex::new(None))
}

/// One (workload, runtime, parameter) sweep cell, as a supervised cell
/// spec, with the per-pair capture shared through `trace_cache`.
pub fn sweep_param_spec(
    w: &'static Workload,
    scale: Scale,
    rt: &RuntimeConfig,
    base: &UarchConfig,
    param: SweepParam,
    trace_cache: &SharedTraceCache,
    chaos: Option<CellChaos>,
) -> SupervisedCell<CellMetrics> {
    let key = CellKey::new(w.name, format!("{:?}", rt.kind), format!("{param:?}"), "sweep");
    let rt = *rt;
    let base = base.clone();
    let cache = Arc::clone(trace_cache);
    let mkey = key.clone();
    SupervisedCell::new(key, move |deadline| {
        // Holding the lock across capture also deduplicates it: sibling
        // params of the same pair wait instead of re-capturing.
        let mut slot = cache.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let trace = match &*slot {
            Some(t) => Arc::clone(t),
            None => {
                let rt = rt.with_deadline(deadline);
                let run = capture_cell(&w.source(scale), &rt, chaos, &mkey)?;
                let t = Arc::new(run.trace);
                *slot = Some(Arc::clone(&t));
                t
            }
        };
        drop(slot);
        Ok(sweep_metrics(&trace, param, &base))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use qoa_model::RuntimeKind;
    use std::sync::atomic::{AtomicBool, Ordering};

    fn tmp_options(tag: &str) -> HarnessOptions {
        let dir = std::env::temp_dir().join(format!("qoa-harness-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut opts = HarnessOptions::new("figtest", "cfg");
        opts.journal_dir = dir;
        opts
    }

    fn x(v: i64) -> CellMetrics {
        let mut m = CellMetrics::new();
        m.insert("x".into(), Metric::Int(v));
        m
    }

    fn run(h: &mut Harness, specs: Vec<SupervisedCell<CellMetrics>>) -> Vec<Option<CellMetrics>> {
        h.run(specs, &ExecutorOptions::new(1)).0
    }

    #[test]
    fn failed_cells_do_not_abort_siblings() {
        let opts = tmp_options("siblings");
        let dir = opts.journal_dir.clone();
        let mut h = Harness::open(opts).expect("open");
        let results = run(
            &mut h,
            vec![
                SupervisedCell::new(CellKey::new("w1", "CPython", "p", "1"), |_| {
                    panic!("cell exploded")
                }),
                SupervisedCell::new(CellKey::new("w2", "CPython", "p", "1"), |_| Ok(x(7))),
            ],
        );
        assert!(results[0].is_none());
        assert_eq!(metric_i64(results[1].as_ref().expect("runs"), "x"), Some(7));
        assert_eq!(h.failures().len(), 1);
        assert_eq!(h.failures()[0].kind, "panic");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn journaled_cells_are_skipped_on_rerun() {
        let opts = tmp_options("skip");
        let dir = opts.journal_dir.clone();
        let key = CellKey::new("w", "CPython", "p", "1");
        {
            let mut h = Harness::open(opts.clone()).expect("open");
            run(&mut h, vec![SupervisedCell::new(key.clone(), |_| Ok(x(1)))]);
        }
        let mut h = Harness::open(opts).expect("reopen");
        let ran = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&ran);
        let cached = run(
            &mut h,
            vec![SupervisedCell::new(key, move |_| {
                flag.store(true, Ordering::SeqCst);
                Ok(CellMetrics::new())
            })],
        );
        assert!(!ran.load(Ordering::SeqCst), "journaled cell must not re-run");
        assert_eq!(metric_i64(cached[0].as_ref().expect("cached"), "x"), Some(1));
        assert_eq!(h.cells_skipped(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_batch_killed_between_appends_resumes_with_the_appended_cells_skipped() {
        let cell = |i: i64, ran: &Arc<Mutex<Vec<i64>>>| {
            let ran = Arc::clone(ran);
            SupervisedCell::new(CellKey::new("w", "CPython", "p", i.to_string()), move |_| {
                ran.lock().expect("ran").push(i);
                Ok(x(i))
            })
        };
        let batch = |ran: &Arc<Mutex<Vec<i64>>>| (0..5).map(|i| cell(i, ran)).collect::<Vec<_>>();

        // The journal of an uninterrupted batch.
        let whole = tmp_options("killed-whole");
        let mut h = Harness::open(whole.clone()).expect("open");
        run(&mut h, batch(&Arc::default()));
        let path = whole.journal_dir.join("figtest.journal.jsonl");
        let expected = std::fs::read_to_string(&path).expect("whole journal");

        // A batch killed after committing three cells, the last append cut
        // short: the first record rewrote the file, the next two appended.
        let killed = tmp_options("killed-cut");
        let path = killed.journal_dir.join("figtest.journal.jsonl");
        let mut j = Journal::open(&killed.journal_dir, "figtest", "cfg", false).expect("journal");
        for i in [2, 0, 1] {
            let key = CellKey::new("w", "CPython", "p", i.to_string());
            j.record_supervised(key, CellOutcome::Ok(x(i)), 1).expect("record");
        }
        drop(j);
        let mut file = std::fs::OpenOptions::new().append(true).open(&path).expect("append");
        std::io::Write::write_all(&mut file, b"{\"figure\":\"figtest\",\"con").expect("cut");
        let cut = std::fs::read_to_string(&path).expect("cut journal");
        let at = |i: i64| cut.find(&format!("\"value\":\"{i}\"")).expect("recorded");
        assert!(at(2) < at(0) && at(0) < at(1), "not appended in commit order: {cut}");

        // The rerun measures only the two cells that never committed and
        // leaves the journal the uninterrupted batch wrote.
        let ran = Arc::new(Mutex::new(Vec::new()));
        let mut h = Harness::open(killed.clone()).expect("reopen");
        let results = run(&mut h, batch(&ran));
        assert_eq!(*ran.lock().expect("ran"), [3, 4]);
        assert_eq!(h.cells_skipped(), 3);
        let values: Vec<_> =
            results.iter().map(|m| metric_i64(m.as_ref().expect("ok"), "x")).collect();
        assert_eq!(values, [Some(0), Some(1), Some(2), Some(3), Some(4)]);
        assert_eq!(std::fs::read_to_string(&path).expect("resumed journal"), expected);
        let _ = std::fs::remove_dir_all(&whole.journal_dir);
        let _ = std::fs::remove_dir_all(&killed.journal_dir);
    }

    #[test]
    fn exit_code_reflects_failure_threshold() {
        let bad = || {
            SupervisedCell::new(CellKey::new("w", "CPython", "p", "bad"), |_| {
                Err(QoaError::FuelExhausted { steps: 1 })
            })
        };
        let opts = tmp_options("exitcode");
        let dir = opts.journal_dir.clone();
        let mut h = Harness::open(opts.clone()).expect("open");
        let mut specs: Vec<_> = (0..4)
            .map(|i| {
                SupervisedCell::new(CellKey::new("w", "CPython", "p", i.to_string()), |_| {
                    Ok(CellMetrics::new())
                })
            })
            .collect();
        specs.push(bad());
        run(&mut h, specs);
        // 1/5 = 20% <= 25% threshold.
        assert_eq!(h.finish(), 0);
        let _ = std::fs::remove_dir_all(&dir);

        let opts2 = tmp_options("exitcode2");
        let dir2 = opts2.journal_dir.clone();
        let mut h = Harness::open(opts2).expect("open");
        run(&mut h, vec![bad()]);
        assert_eq!(h.finish(), 1, "100% failures must exit nonzero");
        let _ = std::fs::remove_dir_all(&dir2);
    }

    #[test]
    fn nursery_cell_round_trips_through_the_journal() {
        let opts = tmp_options("nursery");
        let dir = opts.journal_dir.clone();
        let w = qoa_workloads::by_name("tuple_gc").expect("workload");
        let rt = RuntimeConfig::new(RuntimeKind::PyPyNoJit);
        let uarch = UarchConfig::skylake();
        let point = |h: &mut Harness| {
            let spec = nursery_spec(w, Scale::Tiny, &rt, &uarch, 256 << 10, "", None);
            let mut results = run(h, vec![spec]).into_iter();
            NurseryCell::take_row(&mut results, &[256 << 10]).remove(0)
        };
        let first = {
            let mut h = Harness::open(opts.clone()).expect("open");
            point(&mut h).expect("runs")
        };
        let mut h = Harness::open(opts).expect("reopen");
        let resumed = point(&mut h).expect("cached");
        assert_eq!(h.cells_skipped(), 1);
        assert_eq!(first, resumed, "journaled point must reproduce exactly");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
