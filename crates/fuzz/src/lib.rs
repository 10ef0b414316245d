//! Differential semantics fuzzing for the QOA execution tiers.
//!
//! The paper's attribution numbers are only meaningful if every
//! configuration the stack can execute a program under — checked
//! interpreter, elided-check interpreter, the static optimizer's levels,
//! the tracing JIT, and chaos-recovered runs — computes *identical*
//! guest-visible semantics. The 85 hand-written workloads prove that for
//! the programs we thought to write; this crate generates the programs we
//! didn't.
//!
//! Three pieces, mirroring the classic generate → oracle → shrink loop:
//!
//! * [`gen`] — a seeded, SplitMix64-driven AST-level program generator.
//!   Every program is safe by construction (no overflow, no division by
//!   zero, no out-of-range subscripts, bounded loops and string growth)
//!   and is guaranteed to parse, compile, and pass the `qoa-analysis`
//!   verifier at any seed. The construct mix is biased toward the
//!   overhead categories of Table II: dispatch-hot arithmetic loops,
//!   C-call-dense native/method calls, and global reads inside loops for
//!   name-resolution depth.
//! * [`oracle`] — runs one program through the six-tier configuration
//!   matrix and compares guest-visible outcomes (the `result` global,
//!   printed output, and error identity) against the checked-interpreter
//!   baseline; the chaos tier is additionally held to the strict
//!   oracle against its fault-free twin: both traces identical record
//!   for record, so every [`ExecutionStats`] counter agrees too.
//! * [`shrink`] — a delta-debugging minimizer: block-level ddmin over
//!   every statement body, then single-step statement and expression
//!   reductions to a fixpoint, so the final repro is locally 1-minimal
//!   (no single removal or reduction still diverges).
//!
//! The `qoa-fuzz` binary fans sweeps through the supervised executor
//! (journal-deterministic at any `--jobs`) and emits self-contained repro
//! artifacts under `results/fuzz/`.
//!
//! [`ExecutionStats`]: qoa_uarch::ExecutionStats

pub mod gen;
pub mod oracle;
pub mod shrink;
pub mod sweep;

pub use gen::{generate, generate_source, GenConfig};
pub use oracle::{differential, plant_bug, BugPlant, Divergence, FuzzVerdict, TIER_NAMES};
pub use shrink::{shrink, ShrinkReport};
pub use sweep::{run_sweep, SweepOptions, SweepSummary};

/// The crate's single source of randomness: the stack-wide generator, so
/// every generated program is reproducible from `(sweep seed, program
/// index)` alone.
pub use qoa_chaos::SplitMix64;

/// The per-program seed: a pure function of the sweep seed and the
/// program's index, so any single program can be regenerated without
/// replaying the sweep.
pub fn program_seed(sweep_seed: u64, index: u64) -> u64 {
    let mut rng = SplitMix64::new(sweep_seed ^ index.wrapping_mul(0xA076_1D64_78BD_642F));
    rng.next_u64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn program_seeds_are_distinct() {
        let mut seen = std::collections::HashSet::new();
        for i in 0..1000 {
            assert!(seen.insert(program_seed(7, i)), "seed collision at index {i}");
        }
    }
}
