//! The serving daemon: admission, degradation ladder, bounded queues,
//! per-tenant breakers, and a deterministic virtual-time request journal.
//!
//! Time is virtual: the clock unit is one modeled micro-op ("vcycle"),
//! the same unit the attribution figures count. A request's service time
//! is the micro-op cost of its clean execution pass, and queueing is a
//! deterministic K-server simulation over those costs. Wall time is
//! measured and reported, but never enters an admission decision or the
//! journal — which is what makes `--seed` runs byte-identical across
//! hosts and `--jobs` settings, and lets chaos runs diff cleanly against
//! fault-free goldens.

use crate::admission::{TokenBucket, TokenBucketConfig};
use crate::arrivals::Request;
use crate::pool::{serve_one, ForkRun, Tier};
use qoa_chaos::{fnv1a, FaultPlan};
use qoa_core::{
    cell_seed, run_supervised, BreakerBank, BreakerOptions, BreakerState, CellKey, CellVerdict,
    ExecutorOptions, ExecutorStats, QoaError, RetryPolicy, SupervisedCell,
};
use qoa_obs::perfetto::json::encode_str;
use qoa_obs::Registry;
use qoa_workloads::{by_name, Scale};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// One registered workload: a named guest program at a fixed scale.
#[derive(Debug, Clone)]
pub struct WorkloadSpec {
    /// Registry name (also the journal label).
    pub name: String,
    /// Guest source at the configured scale.
    pub source: String,
}

/// One tenant's serving contract.
#[derive(Debug, Clone)]
pub struct TenantConfig {
    /// Tenant id used in journals and metrics.
    pub name: String,
    /// Admission priority of this tenant's requests.
    pub priority: i64,
    /// Relative request deadline in vcycles.
    pub deadline: u64,
    /// Admission quota.
    pub bucket: TokenBucketConfig,
    /// Traffic share for the load generator.
    pub weight: u32,
}

/// Queue-depth thresholds for the degradation ladder, in
/// request-equivalents of backlog (see [`serve`]).
#[derive(Debug, Clone, Copy)]
pub struct Ladder {
    /// Depth up to which requests get the full JIT tier.
    pub full_max: u64,
    /// Depth up to which requests get the JIT-degraded tier; beyond it
    /// the checked interpreter serves, and the bounded queue rejects.
    pub nojit_max: u64,
}

impl Ladder {
    /// The tier a window served at depth `depth` runs under.
    pub fn tier_for(&self, depth: u64) -> Tier {
        if depth <= self.full_max {
            Tier::Full
        } else if depth <= self.nojit_max {
            Tier::NoJit
        } else {
            Tier::Checked
        }
    }
}

/// Mid-request fault injection for the serving path.
#[derive(Debug, Clone, Copy)]
pub struct ChaosConfig {
    /// Plan seed; each request derives its own plan from this and its
    /// journal key.
    pub seed: u64,
    /// Maximum fault points armed per request.
    pub points: usize,
}

/// Full serving configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Registered workloads.
    pub workloads: Vec<WorkloadSpec>,
    /// Tenant table.
    pub tenants: Vec<TenantConfig>,
    /// OS worker threads driving request execution.
    pub jobs: usize,
    /// Virtual servers in the queueing model.
    pub virtual_workers: usize,
    /// Requests batched per admission window.
    pub window: usize,
    /// Bounded-queue capacity in request-equivalents of backlog.
    pub max_queue: u64,
    /// Degradation thresholds.
    pub ladder: Ladder,
    /// Tenant circuit-breaker tuning.
    pub breaker: BreakerOptions,
    /// Executor seed (retry jitter etc.; results don't depend on it).
    pub seed: u64,
    /// Optional fault injection.
    pub chaos: Option<ChaosConfig>,
}

impl ServeConfig {
    /// A config serving `names` at `scale` with the given tenants and
    /// the default knobs (2 jobs, 4 virtual workers, window 16,
    /// queue 48).
    ///
    /// # Errors
    ///
    /// Unknown workload names.
    pub fn new(
        names: &[&str],
        scale: Scale,
        tenants: Vec<TenantConfig>,
    ) -> Result<ServeConfig, QoaError> {
        let mut workloads = Vec::with_capacity(names.len());
        for name in names {
            let w = by_name(name).ok_or_else(|| QoaError::Journal {
                context: format!("serve config: unknown workload '{name}'"),
                source: std::io::Error::new(std::io::ErrorKind::NotFound, "workload"),
            })?;
            workloads.push(WorkloadSpec { name: (*name).to_string(), source: w.source(scale) });
        }
        let window = 16usize;
        let virtual_workers = 4usize;
        let max_queue = 48u64;
        Ok(ServeConfig {
            workloads,
            tenants,
            jobs: 2,
            virtual_workers,
            window,
            max_queue,
            ladder: Ladder {
                full_max: (window + virtual_workers) as u64,
                nojit_max: (window + virtual_workers) as u64 + max_queue / 2,
            },
            breaker: BreakerOptions::default(),
            seed: 1,
            chaos: None,
        })
    }

    /// Tenant names, in table order.
    pub fn tenant_names(&self) -> Vec<String> {
        self.tenants.iter().map(|t| t.name.clone()).collect()
    }

    /// Workload names, in table order.
    pub fn workload_names(&self) -> Vec<String> {
        self.workloads.iter().map(|w| w.name.clone()).collect()
    }
}

/// The standard three-tenant mix: a weight-6 free tier on a tight
/// quota, a weight-3 pro tier, and a weight-1 enterprise tier with the
/// largest burst and the most headroom. Quotas are sized against the
/// offered rate so that a 1x run admits nearly everything and a 2x run
/// clips the free tier first.
pub fn standard_tenants(rate_per_m: u64, mean_cost: u64) -> Vec<TenantConfig> {
    let base = mean_cost.max(1);
    vec![
        TenantConfig {
            name: "free".into(),
            priority: 0,
            deadline: base * 4,
            bucket: TokenBucketConfig {
                burst: 4,
                refill_per_m: (rate_per_m * 9 / 10).max(1),
            },
            weight: 6,
        },
        TenantConfig {
            name: "pro".into(),
            priority: 4,
            deadline: base * 8,
            bucket: TokenBucketConfig {
                burst: 8,
                refill_per_m: (rate_per_m * 9 / 20).max(1),
            },
            weight: 3,
        },
        TenantConfig {
            name: "enterprise".into(),
            priority: 8,
            deadline: base * 16,
            bucket: TokenBucketConfig {
                burst: 16,
                refill_per_m: (rate_per_m * 3 / 20).max(1),
            },
            weight: 1,
        },
    ]
}

// ---- calibration -----------------------------------------------------------

/// Measured baseline for one `(workload, tier)` pair, taken from a
/// fault-free fork at prewarm time.
#[derive(Debug, Clone)]
pub struct CalibEntry {
    /// Micro-op cost (virtual service cycles).
    pub cost: u64,
    /// Guest bytecodes executed.
    pub steps: u64,
    /// Expected `result` global.
    pub result: Option<String>,
    /// Expected stdout hash.
    pub out_hash: u64,
}

/// Calibration table for every registered `(workload, tier)` pair.
#[derive(Debug, Clone)]
pub struct Calibration {
    entries: BTreeMap<(usize, Tier), CalibEntry>,
    /// Mean full-tier cost across workloads: the capacity unit.
    pub mean_cost_full: u64,
}

impl Calibration {
    /// The entry for `(workload index, tier)`.
    pub fn entry(&self, workload: usize, tier: Tier) -> Option<&CalibEntry> {
        self.entries.get(&(workload, tier))
    }

    /// Estimated sustainable throughput in requests per million
    /// vcycles for `workers` virtual servers at the full tier.
    pub fn capacity_per_m(&self, workers: usize) -> u64 {
        (workers as u64).saturating_mul(1_000_000) / self.mean_cost_full.max(1)
    }
}

/// Pre-warms and calibrates every `(workload, tier)` pair on the
/// calling thread: one fault-free fork each, recording cost, steps, and
/// the expected answer, and cross-checking that all three tiers agree
/// on every workload's result.
///
/// # Errors
///
/// Compile/verify errors, or a cross-tier result divergence (which
/// would make the degradation ladder observable to clients).
pub fn calibrate(cfg: &ServeConfig) -> Result<Calibration, QoaError> {
    let mut entries = BTreeMap::new();
    let mut full_total = 0u64;
    for (wi, w) in cfg.workloads.iter().enumerate() {
        let mut baseline: Option<(Option<String>, u64)> = None;
        for tier in Tier::ALL {
            let run = serve_one(&w.source, tier, 0, None)?;
            match &baseline {
                None => baseline = Some((run.result.clone(), run.out_hash)),
                Some((result, out_hash)) => {
                    if *result != run.result || *out_hash != run.out_hash {
                        return Err(QoaError::Guest {
                            message: format!(
                                "tier divergence on '{}': {} answers {:?}, full answers {:?}",
                                w.name,
                                tier.name(),
                                run.result,
                                result
                            ),
                            line: 0,
                        });
                    }
                }
            }
            if tier == Tier::Full {
                full_total += run.cost;
            }
            entries.insert(
                (wi, tier),
                CalibEntry {
                    cost: run.cost,
                    steps: run.steps,
                    result: run.result,
                    out_hash: run.out_hash,
                },
            );
        }
    }
    let mean_cost_full = full_total / cfg.workloads.len().max(1) as u64;
    Ok(Calibration { entries, mean_cost_full })
}

/// Translates a relative deadline into a guest-bytecode fuel cap using
/// the calibrated steps-per-vcycle ratio, plus a small slack so the cap
/// only fires on genuinely over-deadline work. Returns 0 (unlimited)
/// when the calibration is degenerate.
pub fn fuel_cap(deadline: u64, entry: &CalibEntry) -> u64 {
    if entry.cost == 0 || entry.steps == 0 {
        return 0;
    }
    let steps = (u128::from(deadline) * u128::from(entry.steps)) / u128::from(entry.cost);
    (steps.min(u128::from(u64::MAX - 1024)) as u64).saturating_add(1024)
}

// ---- outcomes and records --------------------------------------------------

/// Why a request was shed (declined without a result, by design —
/// never a wrong or partial answer).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedCause {
    /// Tenant token bucket was empty at arrival.
    Admission,
    /// The bounded queue was full; lowest priority went first.
    Queue,
    /// The tenant's circuit breaker was open.
    Breaker,
    /// The deadline expired in queue or the deadline-derived fuel cap
    /// tripped mid-execution.
    Deadline,
}

impl ShedCause {
    /// Every cause, in a stable order.
    pub const ALL: [ShedCause; 4] =
        [ShedCause::Admission, ShedCause::Queue, ShedCause::Breaker, ShedCause::Deadline];

    /// Stable journal/metrics label.
    pub fn name(self) -> &'static str {
        match self {
            ShedCause::Admission => "shed-admission",
            ShedCause::Queue => "shed-queue",
            ShedCause::Breaker => "shed-breaker",
            ShedCause::Deadline => "shed-deadline",
        }
    }

    /// The bare cause label (no `shed-` prefix), used as the `cause`
    /// label value of `qoa_serve_shed_cause_total`.
    pub fn cause_label(self) -> &'static str {
        match self {
            ShedCause::Admission => "admission",
            ShedCause::Queue => "queue",
            ShedCause::Breaker => "breaker",
            ShedCause::Deadline => "deadline",
        }
    }
}

/// Final disposition of one request.
#[derive(Debug, Clone)]
pub enum Outcome {
    /// Served within deadline; the response payload is `result`.
    Ok {
        /// Virtual service start.
        start: u64,
        /// Virtual completion.
        done: u64,
        /// Service cost in vcycles.
        cost: u64,
        /// Guest bytecodes of the clean pass.
        steps: u64,
        /// Response payload (the `result` global).
        result: Option<String>,
        /// Guest stdout hash.
        out_hash: u64,
        /// Chaos faults recovered while serving.
        faults: u64,
        /// Snapshot restores consumed.
        restores: u64,
    },
    /// Declined by an overload or health gate.
    Shed {
        /// Which gate.
        cause: ShedCause,
    },
    /// A hard failure: organic guest error or lost worker. The serving
    /// invariant is that overload alone never produces these.
    Failed {
        /// [`QoaError::kind`] tag.
        kind: String,
        /// Rendered error.
        message: String,
    },
}

impl Outcome {
    /// Stable journal/metrics label.
    pub fn label(&self) -> &'static str {
        match self {
            Outcome::Ok { .. } => "ok",
            Outcome::Shed { cause } => cause.name(),
            Outcome::Failed { .. } => "failed",
        }
    }
}

/// One journal row: the request plus its disposition.
#[derive(Debug, Clone)]
pub struct RequestRecord {
    /// Request id (journal order).
    pub id: u64,
    /// Tenant name.
    pub tenant: String,
    /// Workload name.
    pub workload: String,
    /// Tier its admission window ran under.
    pub tier: Tier,
    /// Virtual arrival.
    pub arrival: u64,
    /// Admission priority.
    pub priority: i64,
    /// Relative deadline.
    pub deadline: u64,
    /// Disposition.
    pub outcome: Outcome,
}

// ---- the serve loop --------------------------------------------------------

/// Everything one serving run produced.
#[derive(Debug)]
pub struct ServeReport {
    /// Per-request records, in request-id order.
    pub records: Vec<RequestRecord>,
    /// Windows served per tier (`full`, `nojit`, `checked`).
    pub tier_windows: [u64; 3],
    /// Deepest queue depth observed (request-equivalents).
    pub depth_peak: u64,
    /// Executor counters summed over all windows.
    pub exec: ExecutorStats,
    /// Tenant breaker transitions into open.
    pub breaker_opened: u64,
    /// Tenant breaker transitions into half-open.
    pub breaker_half_opened: u64,
    /// Tenant breaker transitions into closed.
    pub breaker_closed: u64,
    /// Wall time of the whole run (reporting only).
    pub wall: Duration,
}

fn fold_stats(total: &mut ExecutorStats, s: &ExecutorStats) {
    total.jobs = total.jobs.max(s.jobs);
    total.cells_submitted += s.cells_submitted;
    total.cells_ok += s.cells_ok;
    total.cells_failed += s.cells_failed;
    total.cells_shed_budget += s.cells_shed_budget;
    total.cells_lost += s.cells_lost;
    total.attempts += s.attempts;
    total.retries += s.retries;
    total.queue_depth_peak = total.queue_depth_peak.max(s.queue_depth_peak);
    total.speculative_discards += s.speculative_discards;
}

fn invalid(context: String) -> QoaError {
    QoaError::Journal {
        context,
        source: std::io::Error::new(std::io::ErrorKind::InvalidInput, "serve config"),
    }
}

/// Serves `requests` (sorted by arrival) under `cfg`, returning the
/// full per-request report. Deterministic for a fixed `(cfg, requests,
/// calibration)` triple regardless of `cfg.jobs` or the host.
///
/// Lifecycle per admission window of `cfg.window` requests:
///
/// 1. **Depth**: backlog beyond the window's first arrival, in
///    request-equivalents of the calibrated mean cost, picks the
///    service tier via the ladder and the free queue slots.
/// 2. **Gates**: open tenant breaker → shed; empty token bucket →
///    shed. Survivors are submitted to the supervised executor with
///    the free slots as the admission budget, so overload sheds
///    lowest-priority-first.
/// 3. **Execution**: each admitted request forks the pre-warmed
///    snapshot on a worker (chaos plan armed when configured), capped
///    at its deadline-derived fuel.
/// 4. **Commit** (submission order): place on the least-loaded virtual
///    server; a request that would start past its deadline is dropped
///    without charging the server, one that finishes past it is
///    charged but still shed — the client never sees a late or
///    partial result. Organic guest errors fail the request and
///    advance the tenant's breaker.
///
/// # Errors
///
/// Configuration errors (empty tables, out-of-range indices). Request
/// failures are reported per-record, never as an `Err`.
pub fn serve(
    cfg: &ServeConfig,
    requests: &[Request],
    calib: &Calibration,
) -> Result<ServeReport, QoaError> {
    if cfg.workloads.is_empty() {
        return Err(invalid("serve: no workloads registered".into()));
    }
    if cfg.tenants.is_empty() {
        return Err(invalid("serve: no tenants configured".into()));
    }
    if cfg.virtual_workers == 0 || cfg.window == 0 {
        return Err(invalid("serve: virtual_workers and window must be nonzero".into()));
    }
    for req in requests {
        if req.tenant >= cfg.tenants.len() || req.workload >= cfg.workloads.len() {
            return Err(invalid(format!("serve: request {} references unknown tables", req.id)));
        }
    }

    let wall_start = Instant::now();
    let mean_cost = calib.mean_cost_full.max(1);
    let first_arrival = requests.first().map_or(0, |r| r.arrival);
    let mut worker_free = vec![first_arrival; cfg.virtual_workers];
    let mut buckets: Vec<TokenBucket> =
        cfg.tenants.iter().map(|t| TokenBucket::new(t.bucket, first_arrival)).collect();
    // Tenant breakers persist across admission windows; the shared
    // `BreakerBank` counts the transitions the report exposes.
    let mut breakers = BreakerBank::new(cfg.tenants.len(), &cfg.breaker);

    let mut report = ServeReport {
        records: Vec::with_capacity(requests.len()),
        tier_windows: [0; 3],
        depth_peak: 0,
        exec: ExecutorStats::default(),
        breaker_opened: 0,
        breaker_half_opened: 0,
        breaker_closed: 0,
        wall: Duration::ZERO,
    };
    let mut start_idx = 0;
    while start_idx < requests.len() {
        let end = (start_idx + cfg.window).min(requests.len());
        let window = &requests[start_idx..end];
        start_idx = end;
        let t0 = window[0].arrival;

        let backlog: u64 = worker_free.iter().map(|&f| f.saturating_sub(t0)).sum();
        let depth = backlog / mean_cost + window.len() as u64;
        report.depth_peak = report.depth_peak.max(depth);
        let tier = cfg.ladder.tier_for(depth);
        report.tier_windows[match tier {
            Tier::Full => 0,
            Tier::NoJit => 1,
            Tier::Checked => 2,
        }] += 1;
        let slots = cfg.max_queue.saturating_sub(backlog / mean_cost);

        // Gate pass: breaker, then quota. Survivors go to the executor.
        let mut outcomes: Vec<Option<Outcome>> = vec![None; window.len()];
        let mut admitted: Vec<(usize, &Request)> = Vec::with_capacity(window.len());
        for (pos, req) in window.iter().enumerate() {
            if breakers.state(req.tenant) == BreakerState::Open {
                breakers.on_shed(req.tenant);
                outcomes[pos] = Some(Outcome::Shed { cause: ShedCause::Breaker });
                continue;
            }
            if !buckets[req.tenant].try_take(req.arrival) {
                outcomes[pos] = Some(Outcome::Shed { cause: ShedCause::Admission });
                continue;
            }
            admitted.push((pos, req));
        }

        let mut cells = Vec::with_capacity(admitted.len());
        for (_, req) in &admitted {
            let w = &cfg.workloads[req.workload];
            let entry = calib.entry(req.workload, tier).ok_or_else(|| {
                invalid(format!("serve: no calibration for ({}, {})", w.name, tier.name()))
            })?;
            let fuel = fuel_cap(req.deadline, entry);
            let key = CellKey::new(
                w.name.clone(),
                cfg.tenants[req.tenant].name.clone(),
                "request",
                req.id.to_string(),
            );
            let plan = cfg.chaos.map(|c| {
                FaultPlan::seeded(
                    cell_seed(c.seed, &key),
                    entry.steps.max(1),
                    c.points,
                    tier.fault_kinds(),
                )
            });
            let source = w.source.clone();
            cells.push(
                SupervisedCell::new(key, move |_| serve_one(&source, tier, fuel, plan.as_ref()))
                    .with_priority(req.priority)
                    .with_cost(1),
            );
        }

        let mut xopts = ExecutorOptions::new(cfg.jobs.max(1));
        xopts.seed = cfg.seed;
        xopts.retry = RetryPolicy::none();
        xopts.budget = Some(slots);
        let (committed, stats) = run_supervised(cells, &xopts);
        fold_stats(&mut report.exec, &stats);

        for ((pos, req), cell) in admitted.iter().zip(committed) {
            let outcome = match cell.verdict {
                CellVerdict::Shed => Outcome::Shed { cause: ShedCause::Queue },
                CellVerdict::Ok { value: run, .. } => {
                    breakers.on_success(req.tenant);
                    place(&mut worker_free, req, run)
                }
                CellVerdict::Failed { kind, message, .. } => {
                    if kind == "fuel" {
                        // The deadline-derived fuel cap tripped: the
                        // request could not finish inside its deadline.
                        // Shed, never a partial result; the tenant's
                        // breaker is not advanced for load effects.
                        Outcome::Shed { cause: ShedCause::Deadline }
                    } else {
                        breakers.on_failure(req.tenant);
                        Outcome::Failed { kind, message }
                    }
                }
                CellVerdict::Lost { .. } => {
                    breakers.on_failure(req.tenant);
                    Outcome::Failed { kind: "lost".into(), message: "worker lost".into() }
                }
            };
            outcomes[*pos] = Some(outcome);
        }

        for (pos, req) in window.iter().enumerate() {
            let outcome = outcomes[pos].take().unwrap_or(Outcome::Failed {
                kind: "journal".into(),
                message: "request fell through the commit pass".into(),
            });
            report.records.push(RequestRecord {
                id: req.id,
                tenant: cfg.tenants[req.tenant].name.clone(),
                workload: cfg.workloads[req.workload].name.clone(),
                tier,
                arrival: req.arrival,
                priority: req.priority,
                deadline: req.deadline,
                outcome,
            });
        }
    }

    report.breaker_opened = breakers.opened;
    report.breaker_half_opened = breakers.half_opened;
    report.breaker_closed = breakers.closed;
    report.wall = wall_start.elapsed();
    Ok(report)
}

/// Places a completed execution on the least-loaded virtual server and
/// applies the deadline policy.
fn place(worker_free: &mut [u64], req: &Request, run: ForkRun) -> Outcome {
    let mut widx = 0;
    for (i, &free) in worker_free.iter().enumerate() {
        if free < worker_free[widx] {
            widx = i;
        }
    }
    let start = worker_free[widx].max(req.arrival);
    let cutoff = req.arrival + req.deadline;
    if start > cutoff {
        // Expired while queued: dropped at dequeue, server not charged.
        return Outcome::Shed { cause: ShedCause::Deadline };
    }
    let done = start + run.cost;
    worker_free[widx] = done;
    if done > cutoff {
        // Started in time but overran: the server burnt the cycles,
        // the client still gets a shed, not a late answer.
        return Outcome::Shed { cause: ShedCause::Deadline };
    }
    Outcome::Ok {
        start,
        done,
        cost: run.cost,
        steps: run.steps,
        result: run.result,
        out_hash: run.out_hash,
        faults: run.faults,
        restores: run.restores,
    }
}

// ---- report accessors ------------------------------------------------------

impl ServeReport {
    /// Requests with the given outcome label.
    pub fn count(&self, label: &str) -> u64 {
        self.records.iter().filter(|r| r.outcome.label() == label).count() as u64
    }

    /// Hard failures (never from overload alone).
    pub fn failed(&self) -> u64 {
        self.count("failed")
    }

    /// Every shed, across all four causes.
    pub fn shed_total(&self) -> u64 {
        self.records
            .iter()
            .filter(|r| matches!(r.outcome, Outcome::Shed { .. }))
            .count() as u64
    }

    /// Sheds attributed to one specific cause.
    pub fn shed(&self, cause: ShedCause) -> u64 {
        self.records
            .iter()
            .filter(|r| matches!(r.outcome, Outcome::Shed { cause: c } if c == cause))
            .count() as u64
    }

    /// Chaos faults recovered while serving.
    pub fn faults(&self) -> u64 {
        self.records
            .iter()
            .map(|r| match &r.outcome {
                Outcome::Ok { faults, .. } => *faults,
                _ => 0,
            })
            .sum()
    }

    /// Snapshot restores consumed by recovery.
    pub fn restores(&self) -> u64 {
        self.records
            .iter()
            .map(|r| match &r.outcome {
                Outcome::Ok { restores, .. } => *restores,
                _ => 0,
            })
            .sum()
    }

    /// Latencies of served requests, sorted ascending (vcycles).
    pub fn ok_latencies(&self) -> Vec<u64> {
        let mut v: Vec<u64> = self
            .records
            .iter()
            .filter_map(|r| match &r.outcome {
                Outcome::Ok { start: _, done, .. } => Some(done - r.arrival),
                _ => None,
            })
            .collect();
        v.sort_unstable();
        v
    }

    /// The `q`-per-mille percentile of served latency (e.g. 500, 990,
    /// 999), or 0 when nothing was served.
    pub fn latency_permille(&self, q: u64) -> u64 {
        let v = self.ok_latencies();
        if v.is_empty() {
            return 0;
        }
        let idx = ((v.len() as u64 - 1) * q / 1000) as usize;
        v[idx.min(v.len() - 1)]
    }

    /// Virtual span of the run: last completion minus first arrival.
    pub fn virtual_span(&self) -> u64 {
        let first = self.records.first().map_or(0, |r| r.arrival);
        let last = self
            .records
            .iter()
            .filter_map(|r| match &r.outcome {
                Outcome::Ok { done, .. } => Some(*done),
                _ => None,
            })
            .max()
            .unwrap_or(first);
        last.saturating_sub(first)
    }

    /// Exports serving counters (and the folded executor counters)
    /// into a metrics registry for Prometheus exposition.
    pub fn export(&self, reg: &mut Registry) {
        for label in
            ["ok", "shed-admission", "shed-queue", "shed-breaker", "shed-deadline", "failed"]
        {
            let id = reg.labeled_counter(
                "qoa_serve_requests_total",
                "Serving requests by final outcome",
                "outcome",
                label,
            );
            reg.add(id, self.count(label));
        }
        for cause in ShedCause::ALL {
            let id = reg.labeled_counter(
                "qoa_serve_shed_cause_total",
                "Shed requests by cause",
                "cause",
                cause.cause_label(),
            );
            reg.add(id, self.shed(cause));
        }
        let hist = reg.histogram(
            "qoa_serve_latency_vcycles",
            "Served request latency in virtual cycles",
        );
        for lat in self.ok_latencies() {
            reg.observe(hist, lat);
        }
        for (i, tier) in Tier::ALL.iter().enumerate() {
            let id = reg.labeled_counter(
                "qoa_serve_windows_total",
                "Admission windows by service tier",
                "tier",
                tier.name(),
            );
            reg.add(id, self.tier_windows[i]);
        }
        let depth =
            reg.gauge("qoa_serve_queue_depth_peak", "Deepest observed queue depth (requests)");
        reg.set(depth, self.depth_peak as f64);
        let faults =
            reg.counter("qoa_serve_faults_recovered_total", "Chaos faults recovered in-flight");
        reg.add(faults, self.faults());
        let restores =
            reg.counter("qoa_serve_snapshot_restores_total", "Snapshot restores consumed");
        reg.add(restores, self.restores());
        for (state, n) in [
            ("open", self.breaker_opened),
            ("half-open", self.breaker_half_opened),
            ("closed", self.breaker_closed),
        ] {
            let id = reg.labeled_counter(
                "qoa_serve_breaker_transitions_total",
                "Tenant breaker transitions",
                "to",
                state,
            );
            reg.add(id, n);
        }
        self.exec.export(reg);
    }

    /// Human-readable run summary.
    pub fn render(&self) -> String {
        let mut s = String::new();
        let span = self.virtual_span();
        let ok = self.count("ok");
        s.push_str(&format!(
            "requests {} over {} vcycles: ok {} | shed admission {} queue {} breaker {} deadline {} | failed {}\n",
            self.records.len(),
            span,
            ok,
            self.shed(ShedCause::Admission),
            self.shed(ShedCause::Queue),
            self.shed(ShedCause::Breaker),
            self.shed(ShedCause::Deadline),
            self.failed(),
        ));
        s.push_str(&format!(
            "tiers: full {} / nojit {} / checked {} windows; peak depth {}\n",
            self.tier_windows[0], self.tier_windows[1], self.tier_windows[2], self.depth_peak
        ));
        s.push_str(&format!(
            "latency vcycles: p50 {} p99 {} p999 {} max {}\n",
            self.latency_permille(500),
            self.latency_permille(990),
            self.latency_permille(999),
            self.ok_latencies().last().copied().unwrap_or(0),
        ));
        if span > 0 {
            s.push_str(&format!(
                "throughput: {} served per M vcycles (capacity unit)\n",
                ok.saturating_mul(1_000_000) / span.max(1)
            ));
        }
        s.push_str(&format!(
            "chaos: {} faults recovered via {} snapshot restores\n",
            self.faults(),
            self.restores()
        ));
        s.push_str(&format!(
            "executor: {} attempts, {} budget sheds; tenant breaker transitions open {} half {} closed {}\n",
            self.exec.attempts,
            self.exec.cells_shed_budget,
            self.breaker_opened,
            self.breaker_half_opened,
            self.breaker_closed
        ));
        s.push_str(&format!("wall: {:.1} ms\n", self.wall.as_secs_f64() * 1e3));
        s
    }
}

// ---- journal ---------------------------------------------------------------

/// `s` as a quoted JSON string.
pub(crate) fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    encode_str(&mut out, s);
    out
}

/// A quoted JSON string, or `null`.
pub(crate) fn opt_str(v: &Option<String>) -> String {
    v.as_deref().map_or_else(|| "null".into(), json_str)
}

/// Renders one journal row. Keys are in a fixed order; the
/// chaos-bookkeeping counters are always the trailing pair so
/// [`strip_fault_counters`] can reduce a line to its client-visible
/// core.
pub fn journal_line(rec: &RequestRecord) -> String {
    let (outcome, start, done, latency, cost, steps, result, out_hash, error, faults, restores) =
        match &rec.outcome {
            Outcome::Ok { start, done, cost, steps, result, out_hash, faults, restores } => (
                "ok".to_string(),
                start.to_string(),
                done.to_string(),
                (done - rec.arrival).to_string(),
                cost.to_string(),
                steps.to_string(),
                opt_str(result),
                format!("\"0x{out_hash:016x}\""),
                "null".to_string(),
                *faults,
                *restores,
            ),
            Outcome::Shed { cause } => (
                cause.name().to_string(),
                "null".into(),
                "null".into(),
                "null".into(),
                "null".into(),
                "null".into(),
                "null".into(),
                "null".into(),
                "null".into(),
                0,
                0,
            ),
            Outcome::Failed { kind, message } => (
                "failed".to_string(),
                "null".into(),
                "null".into(),
                "null".into(),
                "null".into(),
                "null".into(),
                "null".into(),
                "null".into(),
                json_str(&format!("{kind}: {message}")),
                0,
                0,
            ),
        };
    format!(
        "{{\"id\":{},\"tenant\":{},\"workload\":{},\"tier\":\"{}\",\"arrival\":{},\"priority\":{},\"deadline\":{},\"outcome\":\"{}\",\"start\":{},\"done\":{},\"latency\":{},\"cost\":{},\"steps\":{},\"result\":{},\"out_hash\":{},\"error\":{},\"faults\":{},\"restores\":{}}}",
        rec.id,
        json_str(&rec.tenant),
        json_str(&rec.workload),
        rec.tier.name(),
        rec.arrival,
        rec.priority,
        rec.deadline,
        outcome,
        start,
        done,
        latency,
        cost,
        steps,
        result,
        out_hash,
        error,
        faults,
        restores,
    )
}

/// Drops the trailing chaos counters (`faults`, `restores`) from a
/// journal line, leaving exactly the client-visible fields. A chaos run
/// and a fault-free run of the same admitted request set are
/// byte-identical under this projection.
pub fn strip_fault_counters(line: &str) -> String {
    match line.rfind(",\"faults\":") {
        Some(idx) => format!("{}}}", &line[..idx]),
        None => line.to_string(),
    }
}

fn fingerprint(cfg: &ServeConfig) -> u64 {
    let mut fields: Vec<String> = Vec::new();
    for w in &cfg.workloads {
        fields.push(w.name.clone());
        fields.push(w.source.clone());
    }
    for t in &cfg.tenants {
        fields.push(t.name.clone());
        fields.push(format!(
            "{}/{}/{}/{}/{}",
            t.priority, t.deadline, t.bucket.burst, t.bucket.refill_per_m, t.weight
        ));
    }
    fields.push(format!(
        "vw={}/win={}/q={}/full={}/nojit={}/seed={}",
        cfg.virtual_workers,
        cfg.window,
        cfg.max_queue,
        cfg.ladder.full_max,
        cfg.ladder.nojit_max,
        cfg.seed
    ));
    // Every field is followed by a 0xff separator byte.
    fnv1a(fields.iter().flat_map(|f| f.bytes().chain([0xff])))
}

/// Renders the full deterministic request journal: a header line (schema
/// version, config fingerprint, seeds) followed by one row per request
/// in id order. Contains no wall-clock values.
pub fn render_journal(cfg: &ServeConfig, report: &ServeReport) -> String {
    let chaos = match cfg.chaos {
        Some(c) => c.seed.to_string(),
        None => "null".into(),
    };
    let mut out = format!(
        "{{\"v\":1,\"kind\":\"qoa-serve-journal\",\"fingerprint\":\"0x{:016x}\",\"seed\":{},\"chaos_seed\":{},\"requests\":{}}}\n",
        fingerprint(cfg),
        cfg.seed,
        chaos,
        report.records.len()
    );
    for rec in &report.records {
        out.push_str(&journal_line(rec));
        out.push('\n');
    }
    out
}
