//! Snapshot-fork multi-tenant serving over the QOA stack.
//!
//! Composes the stack's robustness primitives into a serving daemon:
//!
//! * [`pool`] — pre-warmed [`qoa_chaos::Snapshot`]s of a
//!   [`qoa_core::Machine`], one per `(workload, tier)`, forked per
//!   request; chaos faults recover through the chaos runner's own
//!   restore-and-disarm loop, so clients see slow answers, never wrong
//!   ones.
//! * [`admission`] — per-tenant token buckets over virtual time.
//! * [`arrivals`] — seeded open-loop Poisson arrivals, pure-integer.
//! * [`server`] — the request lifecycle: admission gates, degradation
//!   ladder, bounded queues shedding lowest-priority-first through the
//!   supervised executor, per-tenant circuit breakers, deadline
//!   enforcement via calibrated fuel caps, and a deterministic
//!   virtual-time journal with `qoa-obs` metrics exposition.
//! * [`net`] — deterministic cluster transport: N replicated serve
//!   nodes behind a seeded fault-injected virtual network
//!   ([`NetFaultPlan`]), with client retries, idempotency-keyed dedup,
//!   hedging, and per-node breakers giving exactly-once semantics over
//!   an at-least-once transport.
//!
//! # Example: a tiny deterministic burst
//!
//! ```
//! use qoa_serve::{calibrate, generate, serve, standard_tenants};
//! use qoa_serve::{ArrivalSpec, ServeConfig, TenantMix};
//! use qoa_workloads::Scale;
//!
//! let mut cfg = ServeConfig::new(&["go"], Scale::Tiny, Vec::new()).expect("workloads");
//! let calib = calibrate(&cfg).expect("calibrates");
//! let rate = calib.capacity_per_m(cfg.virtual_workers) / 2;
//! cfg.tenants = standard_tenants(rate, calib.mean_cost_full);
//! let spec = ArrivalSpec {
//!     seed: 7,
//!     count: 32,
//!     rate_per_m: rate,
//!     tenants: cfg
//!         .tenants
//!         .iter()
//!         .map(|t| TenantMix { weight: t.weight, priority: t.priority, deadline: t.deadline })
//!         .collect(),
//!     workload_weights: vec![1],
//! };
//! let requests = generate(&spec);
//! let report = serve(&cfg, &requests, &calib).expect("serves");
//! assert_eq!(report.failed(), 0, "overload alone never hard-fails");
//! ```

pub mod admission;
pub mod arrivals;
pub mod net;
pub mod pool;
pub mod server;

pub use admission::{TokenBucket, TokenBucketConfig, MICRO};
pub use net::{
    oracle_baseline, oracle_exactly_once, render_cluster_journal, run_cluster, ClusterRecord,
    ClusterReport, NetConfig, NetFaultKind, NetFaultPlan, NetOutcome, Reply, VirtualNet,
};
pub use arrivals::{generate, parse_plan, plan_line, ArrivalSpec, Request, SplitMix64, TenantMix};
pub use pool::{hash_output, prewarm, serve_one, ForkRun, Tier};
pub use server::{
    calibrate, fuel_cap, journal_line, render_journal, serve, standard_tenants,
    strip_fault_counters, CalibEntry, Calibration, ChaosConfig, Ladder, Outcome, RequestRecord,
    ServeConfig, ServeReport, ShedCause, TenantConfig, WorkloadSpec,
};
