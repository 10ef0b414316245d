//! Trace-driven microarchitecture simulator (the ZSim + DRAMSim2 substitute).
//!
//! Consumes the tagged [`qoa_model::MicroOp`] streams emitted by the
//! run-time crates and charges cycles under a configurable Skylake-like
//! machine (Table I of the paper):
//!
//! * [`SimpleCore`] — in-order, one cycle per op plus cache-miss stalls;
//!   gives *exact* per-category attribution and is what the Fig. 4/5/6
//!   overhead breakdowns run on, exactly as in §IV-B.2 of the paper.
//! * [`OooCore`] — approximate out-of-order model (issue width, ROB,
//!   bounded memory-level parallelism, branch mispredict flushes); used for
//!   the Fig. 7–9 parameter sweeps.
//! * [`MemoryHierarchy`] — L1I/L1D + L2 + LLC with true LRU and
//!   write-allocate, backed by a bandwidth-limited [`Dram`] channel.
//! * [`BranchUnit`] — two-level direction predictor + BTB + return stack,
//!   sweepable between 0.5× and 8× of the Table I sizing.
//! * [`TraceBuffer`] — capture a run once, replay it under many configs.
//!
//! # Example
//!
//! ```
//! use qoa_model::{Category, MicroOp, OpKind, OpSink, Pc, Phase};
//! use qoa_uarch::{SimpleCore, UarchConfig};
//!
//! let mut core = SimpleCore::new(&UarchConfig::skylake());
//! core.op(MicroOp {
//!     pc: Pc(0x400000),
//!     kind: OpKind::Alu,
//!     category: Category::Execute,
//!     phase: Phase::Interpreter,
//! });
//! let stats = core.finish();
//! assert_eq!(stats.instructions, 1);
//! ```

pub mod branch;
pub mod cache;
pub mod config;
pub mod dram;
mod memo;
pub mod ooo;
pub mod simple;
pub mod stats;
pub mod trace;

pub use branch::{BranchStats, BranchUnit, Btb, ReturnStack, TwoLevelPredictor};
pub use cache::{Access, Cache, CacheStats, HitLevel, MemoryHierarchy};
pub use config::{BranchConfig, CacheConfig, CoreConfig, MemConfig, UarchConfig};
pub use dram::Dram;
pub use ooo::OooCore;
pub use simple::SimpleCore;
pub use stats::ExecutionStats;
pub use trace::TraceBuffer;
