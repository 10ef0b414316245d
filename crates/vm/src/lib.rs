//! The CPython-model virtual machine for the QOA stack.
//!
//! Executes [`qoa_frontend`] bytecode with the memory managers of
//! [`qoa_heap`], emitting a fully categorized [`qoa_model::MicroOp`] stream
//! that reproduces the cost structure of CPython 2.7 as analyzed in
//! *Quantitative Overhead Analysis for Python* (IISWC 2018): dispatch,
//! stack traffic, type checks, boxing, error checks, reference counting,
//! dict-probe name resolution, function setup/cleanup, object-allocation
//! churn, register-transfer address math, and — the paper's headline —
//! C-function-call convention crossings, both in the interpreter core and
//! inside the native library.
//!
//! The same VM also provides the *JIT-compiled* cost model
//! ([`CostMode::Trace`]) that `qoa-jit` drives: guards instead of full
//! type checks, unboxed virtual temporaries, virtualized frames, elided
//! dispatch — with C calls and library work preserved, matching the
//! paper's Fig. 5 finding that JIT compilation does not remove the C call
//! overhead.
//!
//! # Example
//!
//! ```
//! use qoa_model::CountingSink;
//! use qoa_vm::{Vm, VmConfig};
//!
//! let code = qoa_frontend::compile("total = 0\nfor i in range(10):\n    total = total + i\n")
//!     .expect("compiles");
//! let mut vm = Vm::new(VmConfig::default(), CountingSink::new());
//! vm.load_program(&code);
//! vm.run().expect("runs");
//! assert_eq!(vm.global_int("total"), Some(45));
//! ```

pub mod annotate;
pub mod dict;
pub mod idhash;
pub mod interp;
pub mod native;
pub mod native_lib;
pub mod object;
pub mod ops;
pub mod trace_refs;
pub mod vm;

pub use native::NativeFn;
pub use native_lib::Regex;
pub use object::{Obj, ObjKind, ObjRef};
pub use vm::{Block, CostMode, Frame, HeapMode, StepEvent, Vm, VmConfig, VmError, VmStats};

use dict::Key;
use qoa_model::OpSink;
use std::rc::Rc;

impl<S: OpSink> Vm<S> {
    /// Reads a global by name (borrowed reference), for inspection.
    pub fn global(&mut self, name: &str) -> Option<ObjRef> {
        let key = Key::Str(Rc::from(name));
        let globals = self.globals_ref();
        match self.kind(globals) {
            ObjKind::Dict(d) => {
                let mut probes = Vec::new();
                d.lookup(&key, &mut probes)
            }
            _ => None,
        }
    }

    /// Reads an integer global, for tests and result checking.
    pub fn global_int(&mut self, name: &str) -> Option<i64> {
        let r = self.global(name)?;
        match self.kind(r) {
            ObjKind::Int(v) => Some(*v),
            ObjKind::Bool(b) => Some(*b as i64),
            _ => None,
        }
    }

    /// Reads a float global.
    pub fn global_float(&mut self, name: &str) -> Option<f64> {
        let r = self.global(name)?;
        match self.kind(r) {
            ObjKind::Float(v) => Some(*v),
            ObjKind::Int(v) => Some(*v as f64),
            _ => None,
        }
    }

    /// Reads a string global.
    pub fn global_str(&mut self, name: &str) -> Option<String> {
        let r = self.global(name)?;
        match self.kind(r) {
            ObjKind::Str(s) => Some(s.to_string()),
            _ => None,
        }
    }

    /// Renders any global with the guest `str()` rules.
    pub fn global_display(&mut self, name: &str) -> Option<String> {
        let r = self.global(name)?;
        Some(self.display_string(r))
    }
}

/// Compiles and runs a program under the given configuration, returning
/// the VM for inspection.
///
/// # Errors
///
/// Returns a typed [`VmError`]: a compile error, a guest run-time error,
/// or a resource-limit cutoff (fuel, deadline, simulated OOM).
pub fn run_source<S: OpSink>(
    source: &str,
    cfg: VmConfig,
    sink: S,
) -> Result<Vm<S>, VmError> {
    let code = qoa_frontend::compile(source)?;
    let mut vm = Vm::new(cfg, sink);
    vm.load_program(&code);
    vm.run()?;
    Ok(vm)
}
