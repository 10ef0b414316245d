//! Experiment API: the paper's contribution as a reusable library.
//!
//! Glues the stack together — workload programs ([`qoa_workloads`]),
//! run-times ([`qoa_vm`] / [`qoa_jit`]), and the trace-driven simulator
//! ([`qoa_uarch`]) — into the three studies of *Quantitative Overhead
//! Analysis for Python* (IISWC 2018):
//!
//! * [`attribution`] — §IV: per-category cycle breakdowns on the simple
//!   core (Fig. 4/5/6, Table II).
//! * [`sweeps`] — §V-A: microarchitecture parameter sweeps on the OOO core
//!   (Fig. 7/8/9), and §V-B: nursery sweeps (Fig. 10–17).
//! * [`runtime`] — run/capture any program under any of the four modeled
//!   run-times.
//! * [`report`] — text/CSV tables printed by the `qoa-bench` figure
//!   binaries.
//!
//! # Example: a one-benchmark overhead breakdown
//!
//! ```
//! use qoa_core::attribution::attribute_workload;
//! use qoa_core::runtime::RuntimeConfig;
//! use qoa_model::{Category, RuntimeKind};
//! use qoa_uarch::UarchConfig;
//! use qoa_workloads::{by_name, Scale};
//!
//! let w = by_name("unpack_seq").expect("workload exists");
//! let b = attribute_workload(
//!     w,
//!     Scale::Tiny,
//!     &RuntimeConfig::new(RuntimeKind::CPython),
//!     &UarchConfig::skylake(),
//! )
//! .expect("runs");
//! assert!(b.shares[Category::CFunctionCall] > 0.0);
//! ```

pub mod attribution;
pub mod annotate;
pub mod benchsnap;
pub mod breaker;
pub mod chaos;
pub mod cli;
pub mod error;
pub mod executor;
pub mod harness;
pub mod isolate;
pub mod journal;
pub mod report;
pub mod runtime;
pub mod sweeps;
pub mod transport;

pub use annotate::render_annotated;
pub use attribution::{attribute_workload, average_shares, Breakdown};
pub use benchsnap::{
    diff_snapshots, parse_bench_json, render_bench_json, write_bench_json, BenchDiff, BenchEntry,
    BenchSnapshot, ClassDelta, BENCH_SCHEMA_VERSION,
};
pub use chaos::{
    capture_chaos, fault_kinds_for, oracle_check, stats_divergence, ChaosOptions, ChaosOutcome,
};
pub use breaker::{BreakerBank, BreakerCore, BreakerOptions, BreakerState};
pub use error::QoaError;
pub use executor::{
    available_jobs, cell_seed, run_supervised, CellVerdict, CommittedCell, ExecutorOptions,
    ExecutorStats, RetryPolicy, SupervisedCell,
};
pub use transport::VirtualRetryPolicy;
pub use harness::{
    breakdown_spec, nursery_spec, shared_trace_cache, sweep_param_spec, CellChaos, FailureNote,
    Harness, HarnessOptions, NurseryCell, SharedTraceCache, SweepCellPoint,
};
pub use isolate::{run_isolated, RunFailure, RunOutcome};
pub use journal::{CellKey, CellMetrics, CellOutcome, Journal, Metric, Sidecar, JOURNAL_VERSION};
pub use report::Table;
pub use runtime::{capture, capture_observed, run_with_sink, CapturedRun, Machine, RuntimeConfig};
pub use sweeps::{
    best_nursery, nursery_sweep, sweep_trace, NurseryPoint, SweepParam, SweepPoint,
    NURSERY_SIZES,
};
