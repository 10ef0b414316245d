//! The supervised parallel sweep executor.
//!
//! A figure is a grid of hundreds of independent (workload × runtime ×
//! parameter) cells. [`run_supervised`] executes such a batch on a pool
//! of N worker threads — each cell isolated through
//! [`run_isolated`](crate::isolate::run_isolated) — under three layers of
//! supervision:
//!
//! * **Retry with seeded backoff** — a cell whose failure is classified
//!   transient by [`QoaError::is_transient`] (caught panics, wall-clock
//!   deadline misses) is retried up to [`RetryPolicy::max_attempts`]
//!   times, sleeping an exponentially growing, jittered delay between
//!   attempts. The whole schedule is a pure function of the executor
//!   seed and the cell key, so a rerun retries on exactly the same
//!   schedule regardless of thread interleaving.
//! * **Admission control / load shedding** — when a batch cost budget is
//!   configured, the gate admits cells highest-priority-first and sheds
//!   the rest up front, recorded as `shed`, never `failed`.
//! * **A watchdog** — when cells carry a wall-clock deadline, a watchdog
//!   thread scans the worker pool; a worker stuck past its cell's
//!   deadline plus a grace period has the cell marked **lost**, the
//!   worker abandoned (never joined), and a replacement worker spawned —
//!   the process and the rest of the sweep keep going.
//!
//! Every admitted cell runs, and its own verdict is what commits: one
//! cell's failure never changes how a sibling is recorded.
//!
//! # Determinism contract
//!
//! For a fixed seed and batch, the committed outcome of every cell is
//! identical regardless of `jobs` and of scheduling order. The executor
//! achieves this by splitting *execution* from *commitment*: workers run
//! cells speculatively in any order, but outcomes are **committed
//! strictly in submission order**, and each committed outcome is the
//! (deterministic) result of that cell alone. The one exception is the
//! watchdog: losing a cell depends on wall-clock behaviour, which is
//! inherently nondeterministic — watchdog supervision only activates when
//! a wall-clock cell deadline is configured, which is itself a
//! nondeterministic mode.

use crate::error::QoaError;
use crate::isolate::run_isolated;
use crate::journal::CellKey;
use qoa_chaos::{fnv1a, SplitMix64};
use qoa_obs::metrics::Registry;
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Locks a mutex, recovering the guard if a worker panicked while
/// holding it (supervision state stays usable; the poisoned cell itself
/// was already isolated).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Worker threads available on this machine (the `--jobs` default).
pub fn available_jobs() -> usize {
    std::thread::available_parallelism().map(std::num::NonZeroUsize::get).unwrap_or(1)
}

// ---- deterministic scheduling RNG -----------------------------------------

/// FNV-1a over a cell key's display form: the per-cell seed component.
fn key_hash(key: &CellKey) -> u64 {
    fnv1a(key.to_string().bytes())
}

/// Derives a per-cell seed from a batch seed and the cell's key: a pure
/// function of the two, so any thread deriving it for the same cell gets
/// the same value. Used to seed per-cell chaos fault plans.
pub fn cell_seed(seed: u64, key: &CellKey) -> u64 {
    SplitMix64::new(seed ^ key_hash(key)).next_u64()
}

// ---- retry policy ----------------------------------------------------------

/// Retry policy for transiently failing cells.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Times a cell may run in total (1 = no retries).
    pub max_attempts: u32,
    /// Backoff before the first retry; doubles per subsequent retry.
    pub base: Duration,
    /// Upper clamp on the exponential term (applied before jitter).
    pub cap: Duration,
    /// Jitter fraction `j` in `[0, 1]`: each delay is scaled by a factor
    /// drawn uniformly from `[1 - j, 1 + j]`.
    pub jitter: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            base: Duration::from_millis(25),
            cap: Duration::from_secs(1),
            jitter: 0.5,
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries.
    pub fn none() -> RetryPolicy {
        RetryPolicy { max_attempts: 1, ..RetryPolicy::default() }
    }

    /// The backoff delay slept after failed attempt `attempt` (1-based).
    ///
    /// A pure function of `(seed, key, attempt)`: thread interleaving,
    /// sibling cells, and wall time never influence the schedule.
    pub fn backoff(&self, seed: u64, key: &CellKey, attempt: u32) -> Duration {
        let exp = self
            .base
            .saturating_mul(1u32.checked_shl(attempt.saturating_sub(1)).unwrap_or(u32::MAX))
            .min(self.cap);
        let jitter = self.jitter.clamp(0.0, 1.0);
        let mut rng = SplitMix64::new(seed ^ key_hash(key) ^ (u64::from(attempt) << 32));
        let factor = 1.0 - jitter + 2.0 * jitter * rng.next_f64();
        exp.mul_f64(factor)
    }

    /// The full deterministic retry schedule for one cell: the delay
    /// slept after each failed attempt `1..max_attempts`.
    pub fn schedule(&self, seed: u64, key: &CellKey) -> Vec<Duration> {
        (1..self.max_attempts).map(|attempt| self.backoff(seed, key, attempt)).collect()
    }
}

// ---- options, cells, verdicts ---------------------------------------------

/// How to run one supervised batch.
#[derive(Debug, Clone)]
pub struct ExecutorOptions {
    /// Worker threads (clamped to at least 1).
    pub jobs: usize,
    /// Seed for the deterministic retry schedules.
    pub seed: u64,
    /// Retry policy for transient failures.
    pub retry: RetryPolicy,
    /// Admission budget in cell cost units (`None` = admit everything).
    pub budget: Option<u64>,
    /// Per-attempt wall-clock deadline handed to each cell. Also arms
    /// the watchdog: a worker stuck past `deadline + watchdog_grace` has
    /// its cell marked lost.
    pub cell_deadline: Option<Duration>,
    /// Watchdog slack past the cell deadline before a worker is declared
    /// hung.
    pub watchdog_grace: Duration,
}

impl ExecutorOptions {
    /// Defaults for `jobs` worker threads.
    pub fn new(jobs: usize) -> ExecutorOptions {
        ExecutorOptions {
            jobs,
            seed: 0,
            retry: RetryPolicy::default(),
            budget: None,
            cell_deadline: None,
            watchdog_grace: Duration::from_secs(2),
        }
    }
}

impl Default for ExecutorOptions {
    fn default() -> Self {
        ExecutorOptions::new(available_jobs())
    }
}

/// The measurement closure of one cell. `FnMut` because retries re-run
/// it; each invocation receives that attempt's absolute deadline.
pub type CellJobFn<T> = Box<dyn FnMut(Option<Instant>) -> Result<T, QoaError> + Send>;

/// One cell submitted to the executor.
pub struct SupervisedCell<T> {
    /// Journal identity of the cell.
    pub key: CellKey,
    /// Admission priority: higher survives the budget gate longer.
    pub priority: i64,
    /// Admission cost in budget units.
    pub cost: u64,
    /// The measurement itself.
    pub job: CellJobFn<T>,
}

impl<T> SupervisedCell<T> {
    /// A cell with default priority 0 and cost 1.
    pub fn new(
        key: CellKey,
        job: impl FnMut(Option<Instant>) -> Result<T, QoaError> + Send + 'static,
    ) -> SupervisedCell<T> {
        SupervisedCell { key, priority: 0, cost: 1, job: Box::new(job) }
    }

    /// Returns the cell with its admission priority set.
    pub fn with_priority(mut self, priority: i64) -> Self {
        self.priority = priority;
        self
    }

    /// Returns the cell with its admission cost set.
    pub fn with_cost(mut self, cost: u64) -> Self {
        self.cost = cost;
        self
    }
}

impl<T> std::fmt::Debug for SupervisedCell<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SupervisedCell")
            .field("key", &self.key)
            .field("priority", &self.priority)
            .field("cost", &self.cost)
            .finish_non_exhaustive()
    }
}

/// The committed outcome of one supervised cell.
#[derive(Debug)]
pub enum CellVerdict<T> {
    /// The cell succeeded (possibly after retries).
    Ok {
        /// The measurement.
        value: T,
        /// Times the cell ran.
        attempts: u32,
    },
    /// The cell failed after exhausting its retry budget (or with a
    /// non-transient error on the first attempt).
    Failed {
        /// [`QoaError::kind`] tag.
        kind: String,
        /// Rendered error.
        message: String,
        /// Panic site, when captured.
        location: Option<String>,
        /// Times the cell ran.
        attempts: u32,
    },
    /// The admission budget was exhausted by higher-priority cells; the
    /// cell never ran.
    Shed,
    /// The watchdog declared the worker hung past the cell deadline.
    Lost {
        /// Attempts started before the worker was abandoned.
        attempts: u32,
    },
}

/// One cell's commit record, in submission order.
#[derive(Debug)]
pub struct CommittedCell<T> {
    /// The cell's journal identity.
    pub key: CellKey,
    /// The outcome.
    pub verdict: CellVerdict<T>,
}

// ---- scheduler statistics --------------------------------------------------

/// Counters describing what the supervisor did, exported through
/// `qoa-obs` under the `qoa_executor_*` metric families.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExecutorStats {
    /// Worker threads the batch ran on.
    pub jobs: u64,
    /// Cells submitted.
    pub cells_submitted: u64,
    /// Cells committed successful.
    pub cells_ok: u64,
    /// Cells committed failed.
    pub cells_failed: u64,
    /// Cells shed by the admission budget gate.
    pub cells_shed_budget: u64,
    /// Cells lost to hung workers.
    pub cells_lost: u64,
    /// Total cell executions (first attempts + retries).
    pub attempts: u64,
    /// Retries alone.
    pub retries: u64,
    /// Deepest the bounded work queue got.
    pub queue_depth_peak: u64,
    /// Late results of cells the watchdog had already committed as lost.
    pub speculative_discards: u64,
}

impl ExecutorStats {
    /// Exports the counters into a metrics registry under the same
    /// conventions the chaos and VM layers use.
    pub fn export(&self, reg: &mut Registry) {
        let jobs = reg.gauge("qoa_executor_jobs", "Worker threads in the supervised executor");
        reg.set(jobs, self.jobs as f64);
        for (outcome, n) in [
            ("ok", self.cells_ok),
            ("failed", self.cells_failed),
            ("shed_budget", self.cells_shed_budget),
            ("lost", self.cells_lost),
        ] {
            let id = reg.labeled_counter(
                "qoa_executor_cells_total",
                "Supervised cells committed, by outcome",
                "outcome",
                outcome,
            );
            reg.add(id, n);
        }
        let attempts =
            reg.counter("qoa_executor_attempts_total", "Cell executions including retries");
        reg.add(attempts, self.attempts);
        let retries = reg.counter("qoa_executor_retries_total", "Cell retries after transient failures");
        reg.add(retries, self.retries);
        let depth = reg.gauge(
            "qoa_executor_queue_depth_peak",
            "Deepest the bounded work queue got during the batch",
        );
        reg.set(depth, self.queue_depth_peak as f64);
        let discards = reg.counter(
            "qoa_executor_speculative_discards_total",
            "Speculative results discarded by the ordered commit pass",
        );
        reg.add(discards, self.speculative_discards);
    }
}

// ---- shared executor state -------------------------------------------------

/// One admitted cell on its way to a worker.
struct WorkItem<T> {
    index: usize,
    job: CellJobFn<T>,
}

struct QueueState<T> {
    items: VecDeque<WorkItem<T>>,
    /// False once the batch is fully committed: workers drain and exit.
    open: bool,
    depth_peak: usize,
}

/// A hung-worker watch entry.
#[derive(Default)]
struct WatchSlot {
    /// `(cell index, watch deadline, attempts started)` while a job runs.
    in_flight: Option<(usize, Option<Instant>, u32)>,
    /// Set by the watchdog: the worker is considered hung; it must exit
    /// after its current job and its results are ignored.
    abandoned: bool,
}

/// A worker's (or the watchdog's) verdict on one cell: never `Shed`.
struct Report<T> {
    index: usize,
    verdict: CellVerdict<T>,
}

struct Shared<T> {
    queue: Mutex<QueueState<T>>,
    available: Condvar,
    /// Each cell's journal identity, by submission index.
    keys: Vec<CellKey>,
    watch: Mutex<Vec<WatchSlot>>,
    attempts: AtomicU64,
    retries: AtomicU64,
}

#[derive(Clone)]
struct WorkerOpts {
    retry: RetryPolicy,
    seed: u64,
    cell_deadline: Option<Duration>,
    watchdog_grace: Duration,
}

struct WorkerHandle {
    wid: usize,
    handle: std::thread::JoinHandle<()>,
}

fn spawn_worker<T: Send + 'static>(
    shared: &Arc<Shared<T>>,
    opts: &WorkerOpts,
    tx: &Sender<Report<T>>,
    handles: &Arc<Mutex<Vec<WorkerHandle>>>,
) {
    let wid = {
        let mut watch = lock(&shared.watch);
        watch.push(WatchSlot::default());
        watch.len() - 1
    };
    let shared = Arc::clone(shared);
    let opts = opts.clone();
    let tx = tx.clone();
    let handle = std::thread::spawn(move || worker_loop(&shared, wid, &opts, &tx));
    lock(handles).push(WorkerHandle { wid, handle });
}

fn worker_loop<T: Send>(
    shared: &Arc<Shared<T>>,
    wid: usize,
    opts: &WorkerOpts,
    tx: &Sender<Report<T>>,
) {
    loop {
        // Pull the next work item from the bounded queue.
        let WorkItem { index, mut job } = {
            let mut q = lock(&shared.queue);
            loop {
                if let Some(item) = q.items.pop_front() {
                    break item;
                }
                if !q.open {
                    return;
                }
                q = shared
                    .available
                    .wait(q)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
            }
        };
        let key = &shared.keys[index];
        let mut attempts = 0u32;
        let verdict = loop {
            attempts += 1;
            shared.attempts.fetch_add(1, Ordering::Relaxed);
            let deadline = opts.cell_deadline.map(|d| Instant::now() + d);
            {
                let mut watch = lock(&shared.watch);
                watch[wid].in_flight =
                    Some((index, deadline.map(|d| d + opts.watchdog_grace), attempts));
            }
            let outcome = run_isolated(|| job(deadline));
            {
                let mut watch = lock(&shared.watch);
                watch[wid].in_flight = None;
            }
            match outcome {
                Ok(value) => break CellVerdict::Ok { value, attempts },
                Err(failure) => {
                    if failure.error.is_transient() && attempts < opts.retry.max_attempts {
                        shared.retries.fetch_add(1, Ordering::Relaxed);
                        std::thread::sleep(opts.retry.backoff(opts.seed, key, attempts));
                        continue;
                    }
                    break CellVerdict::Failed {
                        kind: failure.error.kind().to_string(),
                        message: failure.error.to_string(),
                        location: failure.error.location().map(str::to_string),
                        attempts,
                    };
                }
            }
        };
        let _ = tx.send(Report { index, verdict });
        if lock(&shared.watch)[wid].abandoned {
            return; // a replacement already took over this worker's seat
        }
    }
}

/// The watchdog: scans worker in-flight slots and declares cells lost
/// when a worker overruns its deadline plus grace. Abandons the hung
/// worker (its eventual result is ignored, its thread never joined) and
/// spawns a replacement so pool capacity is maintained.
fn watchdog_loop<T: Send + 'static>(
    shared: &Arc<Shared<T>>,
    opts: &WorkerOpts,
    tx: &Sender<Report<T>>,
    handles: &Arc<Mutex<Vec<WorkerHandle>>>,
    stop: &Arc<AtomicBool>,
) {
    while !stop.load(Ordering::Acquire) {
        std::thread::sleep(Duration::from_millis(10));
        let now = Instant::now();
        let mut lost: Vec<(usize, u32)> = Vec::new();
        {
            let mut watch = lock(&shared.watch);
            for slot in watch.iter_mut() {
                if slot.abandoned {
                    continue;
                }
                if let Some((index, Some(deadline), attempts)) = slot.in_flight {
                    if now > deadline {
                        slot.abandoned = true;
                        lost.push((index, attempts));
                    }
                }
            }
        }
        for (index, attempts) in lost {
            let _ = tx.send(Report { index, verdict: CellVerdict::Lost { attempts } });
            spawn_worker(shared, opts, tx, handles);
        }
    }
}

// ---- the executor ----------------------------------------------------------

/// Runs a batch of supervised cells and returns every cell's committed
/// outcome **in submission order**, plus the scheduler statistics.
///
/// See the module docs for the supervision layers and the determinism
/// contract.
pub fn run_supervised<T: Send + 'static>(
    cells: Vec<SupervisedCell<T>>,
    opts: &ExecutorOptions,
) -> (Vec<CommittedCell<T>>, ExecutorStats) {
    let n = cells.len();
    let jobs = opts.jobs.max(1);
    let mut stats = ExecutorStats {
        jobs: jobs as u64,
        cells_submitted: n as u64,
        ..ExecutorStats::default()
    };
    if n == 0 {
        return (Vec::new(), stats);
    }

    // Admission pass: highest priority first (ties broken by submission
    // order), shedding whatever the budget cannot carry.
    let mut admitted = vec![true; n];
    if let Some(budget) = opts.budget {
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by_key(|&i| (std::cmp::Reverse(cells[i].priority), i));
        let mut used = 0u64;
        for &i in &order {
            let cost = cells[i].cost;
            if used.saturating_add(cost) <= budget {
                used = used.saturating_add(cost);
            } else {
                admitted[i] = false;
            }
        }
    }

    // Split the cells into their keys and the admitted cells' work.
    let mut keys = Vec::with_capacity(n);
    let mut pending = VecDeque::new();
    for (index, cell) in cells.into_iter().enumerate() {
        keys.push(cell.key);
        if admitted[index] {
            pending.push_back(WorkItem { index, job: cell.job });
        }
    }

    let shared = Arc::new(Shared {
        queue: Mutex::new(QueueState {
            items: VecDeque::new(),
            open: true,
            depth_peak: 0,
        }),
        available: Condvar::new(),
        keys,
        watch: Mutex::new(Vec::new()),
        attempts: AtomicU64::new(0),
        retries: AtomicU64::new(0),
    });
    let worker_opts = WorkerOpts {
        retry: opts.retry.clone(),
        seed: opts.seed,
        cell_deadline: opts.cell_deadline,
        watchdog_grace: opts.watchdog_grace,
    };
    let (tx, rx): (Sender<Report<T>>, Receiver<Report<T>>) = mpsc::channel();
    let handles: Arc<Mutex<Vec<WorkerHandle>>> = Arc::new(Mutex::new(Vec::new()));
    for _ in 0..jobs {
        spawn_worker(&shared, &worker_opts, &tx, &handles);
    }
    let watchdog_stop = Arc::new(AtomicBool::new(false));
    let watchdog = opts.cell_deadline.map(|_| {
        let shared = Arc::clone(&shared);
        let worker_opts = worker_opts.clone();
        let tx = tx.clone();
        let handles = Arc::clone(&handles);
        let stop = Arc::clone(&watchdog_stop);
        std::thread::spawn(move || watchdog_loop(&shared, &worker_opts, &tx, &handles, &stop))
    });
    drop(tx); // committer holds no sender: disconnect == all workers gone

    // The bounded work queue holds four cells per worker.
    let committed = commit_loop(&shared, &rx, pending, &admitted, jobs * 4, &mut stats);

    // Shutdown: close the queue, wake everyone, stop the watchdog, and
    // join every worker that wasn't abandoned as hung.
    {
        let mut q = lock(&shared.queue);
        q.items.clear();
        q.open = false;
    }
    shared.available.notify_all();
    watchdog_stop.store(true, Ordering::Release);
    if let Some(handle) = watchdog {
        let _ = handle.join();
    }
    let handles = std::mem::take(&mut *lock(&handles));
    for WorkerHandle { wid, handle } in handles {
        let abandoned = lock(&shared.watch).get(wid).is_some_and(|s| s.abandoned);
        if !abandoned {
            let _ = handle.join();
        }
    }

    for cell in &committed {
        match cell.verdict {
            CellVerdict::Ok { .. } => stats.cells_ok += 1,
            CellVerdict::Failed { .. } => stats.cells_failed += 1,
            CellVerdict::Shed => stats.cells_shed_budget += 1,
            CellVerdict::Lost { .. } => stats.cells_lost += 1,
        }
    }
    stats.attempts = shared.attempts.load(Ordering::Relaxed);
    stats.retries = shared.retries.load(Ordering::Relaxed);
    stats.queue_depth_peak = lock(&shared.queue).depth_peak as u64;
    (committed, stats)
}

/// The ordered commit pass: feeds the bounded queue, pumps worker
/// reports, and commits outcomes strictly in submission order — a cell
/// the budget shed as `Shed`, every other cell as its own verdict.
fn commit_loop<T: Send>(
    shared: &Shared<T>,
    rx: &Receiver<Report<T>>,
    mut pending: VecDeque<WorkItem<T>>,
    admitted: &[bool],
    capacity: usize,
    stats: &mut ExecutorStats,
) -> Vec<CommittedCell<T>> {
    let n = admitted.len();
    let mut committed = Vec::with_capacity(n);
    let mut ready: BTreeMap<usize, CellVerdict<T>> = BTreeMap::new();
    loop {
        // Top up the bounded queue without blocking.
        if !pending.is_empty() {
            let mut q = lock(&shared.queue);
            let room = capacity.saturating_sub(q.items.len()).min(pending.len());
            q.items.extend(pending.drain(..room));
            q.depth_peak = q.depth_peak.max(q.items.len());
            drop(q);
            if room > 0 {
                shared.available.notify_all();
            }
        }

        // Commit as far as the available results allow.
        while committed.len() < n {
            let index = committed.len();
            let verdict = if admitted[index] {
                let Some(verdict) = ready.remove(&index) else { break };
                verdict
            } else {
                CellVerdict::Shed
            };
            committed.push(CommittedCell { key: shared.keys[index].clone(), verdict });
        }
        let next = committed.len();
        if next == n {
            return committed;
        }

        // Pump worker reports: block briefly for the one we need, then
        // drain whatever else arrived.
        match rx.recv_timeout(Duration::from_millis(20)) {
            Ok(report) => absorb(report, next, &mut ready, stats),
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => {
                // Every worker died (all abandoned and exited). Nothing
                // more can arrive: mark the rest lost so the sweep still
                // terminates with a full journal.
                for i in (next..n).filter(|&i| admitted[i]) {
                    ready.entry(i).or_insert(CellVerdict::Lost { attempts: 0 });
                }
            }
        }
        while let Ok(report) = rx.try_recv() {
            absorb(report, next, &mut ready, stats);
        }
    }
}

/// Files one worker report for the commit pass. The first verdict for a
/// cell wins: a hung worker's real result races the watchdog's `Lost`
/// marker, which is only possible in wall-clock deadline mode. A real
/// result that loses, whether its cell's `Lost` marker is committed or
/// still waiting in `ready`, counts as a speculative discard.
fn absorb<T>(
    report: Report<T>,
    next: usize,
    ready: &mut BTreeMap<usize, CellVerdict<T>>,
    stats: &mut ExecutorStats,
) {
    let late = report.index < next || ready.contains_key(&report.index);
    if !late {
        ready.insert(report.index, report.verdict);
    } else if !matches!(report.verdict, CellVerdict::Lost { .. }) {
        stats.speculative_discards += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(w: &str, rt: &str, v: u32) -> CellKey {
        CellKey::new(w, rt, "p", v.to_string())
    }

    fn quick_retry() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 3,
            base: Duration::from_micros(100),
            cap: Duration::from_millis(2),
            jitter: 0.5,
        }
    }

    /// Renders a committed batch into a compact signature for parity
    /// assertions (value payloads included).
    fn signature(committed: &[CommittedCell<u64>]) -> Vec<String> {
        committed
            .iter()
            .map(|c| {
                let v = match &c.verdict {
                    CellVerdict::Ok { value, attempts } => format!("ok({value})x{attempts}"),
                    CellVerdict::Failed { kind, attempts, .. } => format!("fail({kind})x{attempts}"),
                    CellVerdict::Shed => "shed".to_string(),
                    CellVerdict::Lost { .. } => "lost".to_string(),
                };
                format!("{}={v}", c.key)
            })
            .collect()
    }

    #[test]
    fn backoff_schedule_is_deterministic_and_jitter_bounded() {
        let policy = RetryPolicy {
            max_attempts: 6,
            base: Duration::from_millis(10),
            cap: Duration::from_millis(200),
            jitter: 0.3,
        };
        let k = key("go", "CPython", 1);
        let a = policy.schedule(42, &k);
        let b = policy.schedule(42, &k);
        assert_eq!(a, b, "same seed + key must give the same schedule");
        let c = policy.schedule(43, &k);
        assert_ne!(a, c, "a different seed must perturb the schedule");
        for (i, delay) in a.iter().enumerate() {
            let exp = policy
                .base
                .saturating_mul(1 << i)
                .min(policy.cap);
            let lo = exp.mul_f64(1.0 - policy.jitter);
            let hi = exp.mul_f64(1.0 + policy.jitter);
            assert!(
                *delay >= lo && *delay <= hi,
                "attempt {}: {delay:?} outside [{lo:?}, {hi:?}]",
                i + 1
            );
        }
    }

    #[test]
    fn successful_batch_commits_in_submission_order() {
        let cells: Vec<SupervisedCell<u64>> = (0..20)
            .map(|i| SupervisedCell::new(key("w", "CPython", i), move |_| Ok(u64::from(i))))
            .collect();
        let (committed, stats) = run_supervised(cells, &ExecutorOptions::new(4));
        assert_eq!(committed.len(), 20);
        for (i, c) in committed.iter().enumerate() {
            assert_eq!(c.key.value, i.to_string());
            assert!(matches!(c.verdict, CellVerdict::Ok { value, attempts: 1 } if value == i as u64));
        }
        assert_eq!(stats.cells_ok, 20);
        assert_eq!(stats.retries, 0);
    }

    #[test]
    fn transient_failures_retry_and_recover() {
        use std::sync::atomic::AtomicU32;
        let flaky = Arc::new(AtomicU32::new(0));
        let f = Arc::clone(&flaky);
        let cells = vec![SupervisedCell::new(key("w", "CPython", 0), move |_| {
            if f.fetch_add(1, Ordering::SeqCst) < 2 {
                panic!("transient hiccup");
            }
            Ok(7u64)
        })];
        let mut opts = ExecutorOptions::new(2);
        opts.retry = quick_retry();
        let (committed, stats) = run_supervised(cells, &opts);
        assert!(matches!(committed[0].verdict, CellVerdict::Ok { value: 7, attempts: 3 }));
        assert_eq!(stats.retries, 2);
        assert_eq!(stats.attempts, 3);
    }

    #[test]
    fn deterministic_failures_are_not_retried() {
        let cells = vec![SupervisedCell::new(key("w", "CPython", 0), move |_| {
            Err::<u64, _>(QoaError::FuelExhausted { steps: 5 })
        })];
        let mut opts = ExecutorOptions::new(2);
        opts.retry = quick_retry();
        let (committed, stats) = run_supervised(cells, &opts);
        assert!(matches!(
            &committed[0].verdict,
            CellVerdict::Failed { kind, attempts: 1, .. } if kind == "fuel"
        ));
        assert_eq!(stats.retries, 0);
    }

    #[test]
    fn budget_gate_sheds_lowest_priority_first() {
        let mut cells: Vec<SupervisedCell<u64>> = Vec::new();
        for i in 0..4u32 {
            cells.push(
                SupervisedCell::new(key("low", "CPython", i), move |_| Ok(u64::from(i)))
                    .with_priority(1)
                    .with_cost(2),
            );
        }
        for i in 0..2u32 {
            cells.push(
                SupervisedCell::new(key("high", "CPython", i), move |_| Ok(u64::from(i)))
                    .with_priority(9)
                    .with_cost(2),
            );
        }
        let mut opts = ExecutorOptions::new(3);
        opts.budget = Some(8); // room for both high (4) + two low (4)
        let (committed, stats) = run_supervised(cells, &opts);
        assert_eq!(stats.cells_shed_budget, 2);
        // The two *last-submitted* low-priority cells are the ones shed.
        for c in &committed {
            let shed = matches!(c.verdict, CellVerdict::Shed);
            let expect_shed = c.key.workload == "low" && c.key.value.parse::<u32>().ok() >= Some(2);
            assert_eq!(shed, expect_shed, "unexpected admission for {}", c.key);
        }
    }

    #[test]
    fn outcomes_are_identical_across_job_counts() {
        // A mixed batch: successes, a runtime failing every cell, a
        // second healthy runtime, and budget shedding.
        let build = || {
            let mut cells: Vec<SupervisedCell<u64>> = Vec::new();
            for i in 0..24u32 {
                let rt = if i % 3 == 0 { "flaky" } else { "steady" };
                cells.push(
                    SupervisedCell::new(key("w", rt, i), move |_| {
                        if i % 3 == 0 {
                            Err(QoaError::Guest { message: format!("bad {i}"), line: 1 })
                        } else {
                            Ok(u64::from(i) * 10)
                        }
                    })
                    .with_priority(i64::from(i % 5))
                    .with_cost(1),
                );
            }
            cells
        };
        let mut opts = ExecutorOptions::new(1);
        opts.budget = Some(20);
        opts.seed = 7;
        let (sequential, seq_stats) = run_supervised(build(), &opts);
        opts.jobs = 4;
        let (parallel, par_stats) = run_supervised(build(), &opts);
        assert_eq!(
            signature(&sequential),
            signature(&parallel),
            "jobs=1 and jobs=4 must commit identical outcomes"
        );
        // Every admitted flaky cell commits its own failure; the budget
        // sheds the four last-submitted priority-0 cells.
        assert_eq!(seq_stats.cells_failed, 7);
        assert_eq!(seq_stats.cells_shed_budget, 4);
        // Outcome counters agree too (speculation counters may differ).
        assert_eq!(seq_stats.cells_ok, par_stats.cells_ok);
        assert_eq!(seq_stats.cells_failed, par_stats.cells_failed);
        assert_eq!(seq_stats.cells_shed_budget, par_stats.cells_shed_budget);
    }

    #[test]
    fn a_late_result_behind_a_pending_lost_marker_is_a_discard() {
        let lost = || Report { index: 1, verdict: CellVerdict::Lost { attempts: 1 } };
        let late = || Report { index: 1, verdict: CellVerdict::Ok { value: 7u64, attempts: 1 } };
        let mut ready = BTreeMap::new();
        let mut stats = ExecutorStats::default();
        // The watchdog's marker for cell 1 waits behind uncommitted cell 0.
        absorb(lost(), 0, &mut ready, &mut stats);
        absorb(late(), 0, &mut ready, &mut stats);
        assert!(matches!(ready[&1], CellVerdict::Lost { .. }), "the first verdict wins");
        assert_eq!(stats.speculative_discards, 1);
        // Once cell 1 is committed, a late result still counts.
        ready.clear();
        absorb(late(), 2, &mut ready, &mut stats);
        assert!(ready.is_empty());
        assert_eq!(stats.speculative_discards, 2);
        // A late `Lost` marker is not a result.
        absorb(lost(), 2, &mut ready, &mut stats);
        assert_eq!(stats.speculative_discards, 2);
    }

    #[test]
    fn watchdog_marks_hung_cells_lost_and_the_sweep_survives() {
        let mut cells: Vec<SupervisedCell<u64>> = Vec::new();
        cells.push(SupervisedCell::new(key("w", "rt", 0), move |_| {
            // A genuine hang: ignores its deadline entirely.
            std::thread::sleep(Duration::from_millis(400));
            Ok(0)
        }));
        for i in 1..4u32 {
            cells.push(SupervisedCell::new(key("w", "rt", i), move |_| Ok(u64::from(i))));
        }
        let mut opts = ExecutorOptions::new(1); // single worker: the hang blocks everything
        opts.cell_deadline = Some(Duration::from_millis(30));
        opts.watchdog_grace = Duration::from_millis(20);
        opts.retry = RetryPolicy::none();
        let (committed, stats) = run_supervised(cells, &opts);
        assert!(
            matches!(committed[0].verdict, CellVerdict::Lost { .. }),
            "hung cell must be lost, got {:?}",
            committed[0].verdict
        );
        for c in &committed[1..] {
            assert!(
                matches!(c.verdict, CellVerdict::Ok { .. }),
                "replacement worker must finish the batch, got {:?} for {}",
                c.verdict,
                c.key
            );
        }
        assert_eq!(stats.cells_lost, 1);
        assert_eq!(stats.cells_ok, 3);
    }
}
