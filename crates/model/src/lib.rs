//! Shared vocabulary for the quantitative overhead analysis stack.
//!
//! This crate defines the types that every other layer of the reproduction
//! speaks: the overhead [`Category`] taxonomy of Table II of *Quantitative
//! Overhead Analysis for Python* (Ismail & Suh, IISWC 2018), the execution
//! [`Phase`] labels used to split PyPy-style runs into interpreter / JIT /
//! GC time, the [`MicroOp`] representation of a single simulated machine
//! instruction, and the simulated [address-space layout](mem) that makes
//! cache behaviour of the run-times observable.
//!
//! The run-time crates (`qoa-vm`, `qoa-jit`, `qoa-heap`) *emit* tagged
//! micro-ops; the simulator crate (`qoa-uarch`) *consumes* them and charges
//! cycles; the analysis crate (`qoa-core`) aggregates cycles by category and
//! phase. This mirrors the paper's methodology, where Pin annotations on the
//! CPython interpreter tag every static x86 instruction with a category and
//! ZSim charges cycles to it.
//!
//! # Example
//!
//! ```
//! use qoa_model::{Category, Group, MicroOp, OpKind, Phase, Pc};
//!
//! let op = MicroOp {
//!     pc: Pc(qoa_model::mem::INTERP_CODE_BASE),
//!     kind: OpKind::Load { addr: 0x5_0000_0040, size: 8 },
//!     category: Category::Dispatch,
//!     phase: Phase::Interpreter,
//! };
//! assert_eq!(op.category.group(), Group::InterpreterOp);
//! assert!(op.kind.is_memory());
//! ```

pub mod category;
pub mod emit;
pub mod feature;
pub mod mem;
pub mod op;
pub mod phase;

pub use category::{Category, CategoryMap, Group};
pub use emit::Emitter;
pub use feature::{Feature, Tier};
pub use mem::Segment;
pub use op::{CountingSink, FrameEvent, MicroOp, NullSink, OpKind, OpSink, Pc, RewindSink};
pub use phase::{Phase, PhaseMap};

/// Identifies which modeled run-time produced a measurement.
///
/// The paper evaluates CPython 2.7 (interpreter only), PyPy 5.3 with the JIT
/// disabled, PyPy 5.3 with the JIT enabled, and Google V8 4.2. The same four
/// configurations exist here.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum RuntimeKind {
    /// Reference-counted interpreter-only run-time (CPython model).
    CPython,
    /// Generational-GC run-time with the tracing JIT disabled (PyPy w/o JIT).
    PyPyNoJit,
    /// Generational-GC run-time with the tracing JIT enabled (PyPy w/ JIT).
    PyPyJit,
    /// JIT run-time under the V8-flavoured configuration preset.
    V8,
}

impl RuntimeKind {
    /// All four modeled run-times, in the paper's presentation order.
    pub const ALL: [RuntimeKind; 4] = [
        RuntimeKind::CPython,
        RuntimeKind::PyPyNoJit,
        RuntimeKind::PyPyJit,
        RuntimeKind::V8,
    ];

    /// Whether this run-time executes JIT-compiled code.
    pub fn has_jit(self) -> bool {
        matches!(self, RuntimeKind::PyPyJit | RuntimeKind::V8)
    }

    /// Whether this run-time uses the generational garbage collector
    /// (as opposed to CPython-style reference counting).
    pub fn has_generational_gc(self) -> bool {
        !matches!(self, RuntimeKind::CPython)
    }

    /// Human-readable label matching the paper's figure legends.
    pub fn label(self) -> &'static str {
        match self {
            RuntimeKind::CPython => "CPython",
            RuntimeKind::PyPyNoJit => "PyPy w/o JIT",
            RuntimeKind::PyPyJit => "PyPy",
            RuntimeKind::V8 => "V8",
        }
    }
}

impl std::str::FromStr for RuntimeKind {
    type Err = String;

    /// Parses the command-line spelling: `cpython`, `pypy-nojit`,
    /// `pypy-jit` or `v8`.
    fn from_str(s: &str) -> Result<RuntimeKind, String> {
        match s {
            "cpython" => Ok(RuntimeKind::CPython),
            "pypy-nojit" => Ok(RuntimeKind::PyPyNoJit),
            "pypy-jit" => Ok(RuntimeKind::PyPyJit),
            "v8" => Ok(RuntimeKind::V8),
            other => Err(format!("unknown runtime '{other}' (cpython|pypy-nojit|pypy-jit|v8)")),
        }
    }
}

impl std::fmt::Display for RuntimeKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runtime_kind_properties() {
        assert!(!RuntimeKind::CPython.has_jit());
        assert!(!RuntimeKind::PyPyNoJit.has_jit());
        assert!(RuntimeKind::PyPyJit.has_jit());
        assert!(RuntimeKind::V8.has_jit());
        assert!(!RuntimeKind::CPython.has_generational_gc());
        assert!(RuntimeKind::PyPyNoJit.has_generational_gc());
    }

    #[test]
    fn runtime_kind_parses_its_flag_names() {
        let names = ["cpython", "pypy-nojit", "pypy-jit", "v8"];
        for (name, kind) in names.into_iter().zip(RuntimeKind::ALL) {
            assert_eq!(name.parse(), Ok(kind));
        }
        // Figure-legend labels are display text, not flag spellings.
        for bad in ["", "pypy", "all", "CPython", "PyPy w/o JIT"] {
            assert!(bad.parse::<RuntimeKind>().is_err(), "{bad:?}");
        }
    }

    #[test]
    fn runtime_kind_labels_are_unique() {
        let labels: Vec<_> = RuntimeKind::ALL.iter().map(|r| r.label()).collect();
        let mut dedup = labels.to_vec();
        dedup.sort();
        dedup.dedup();
        assert_eq!(labels.len(), dedup.len());
    }
}
