//! The capture pipeline, cut at its layer boundaries.
//!
//! [`qoa_core::capture`] runs parse → compile → optimize or verify →
//! execute into a [`TraceBuffer`] as one call. A traced pass needs each
//! step on its own, so [`capture_layered`] makes the same public calls
//! one by one, each in a span. It also executes the prepared code a
//! second time into a [`CountingSink`]: that run's wall is the VM's own
//! cost (`vm.execute`), and the trace-buffer run minus it is what
//! recording the trace adds (`uarch.trace.record_s`). The two runs must
//! emit the same number of micro-ops.

use crate::ledger::Ledger;
use qoa_analysis::Verified;
use qoa_core::{CapturedRun, QoaError, RuntimeConfig};
use qoa_frontend::{CodeObject, FrontendError};
use qoa_jit::{JitConfig, PyPyVm};
use qoa_model::{CountingSink, MicroOp, OpSink, RuntimeKind};
use qoa_uarch::TraceBuffer;
use qoa_vm::{HeapMode, Vm, VmConfig};
use std::rc::Rc;

/// Runs `source` under `rt` like [`qoa_core::capture`], with each layer
/// call in its own span of `ledger`.
///
/// # Errors
///
/// The typed [`QoaError`] of the failing layer. A micro-op count that
/// differs between the two executions is a [`QoaError::Guest`] naming
/// both counts.
pub fn capture_layered(
    source: &str,
    rt: &RuntimeConfig,
    ledger: &mut Ledger,
) -> Result<CapturedRun, QoaError> {
    ledger.count("frontend.src_bytes", source.len() as u64);
    let module = ledger
        .span("frontend.parse", || qoa_frontend::parse(source))
        .map_err(FrontendError::from)?;
    let code = ledger
        .span("frontend.compile", || qoa_frontend::compile_module(&module))
        .map_err(FrontendError::from)?;
    let (code, verified) = if rt.opt_level > 0 {
        let (v, report) =
            ledger.span("analysis.optimize", || qoa_analysis::optimize(&code, rt.opt_level))?;
        ledger.count("analysis.rewrites", report.total());
        (Rc::clone(v.get()), rt.elide_checks.then_some(v))
    } else if rt.elide_checks {
        let v = ledger.span("analysis.verify", || qoa_analysis::verify(&code))?;
        (code, Some(v))
    } else {
        (code, None)
    };

    let counted =
        ledger.span("vm.execute", || execute(&code, verified.as_ref(), rt, CountingSink::new()))?;
    let run = ledger.span("uarch.trace.capture", || {
        execute(&code, verified.as_ref(), rt, TraceBuffer::new())
    })?;
    let recorded = run.sink.len() as u64;
    if counted.sink.total() != recorded {
        return Err(QoaError::Guest {
            message: format!(
                "counting sink saw {} micro-ops, trace buffer recorded {recorded}",
                counted.sink.total()
            ),
            line: 0,
        });
    }

    ledger.count("vm.bytecodes", counted.vm.bytecodes);
    ledger.count("jit.traces_compiled", counted.jit.traces_compiled);
    ledger.count("jit.guard_failures", counted.jit.guard_failures);
    ledger.count("jit.deopts", counted.jit.deopts);
    ledger.count("heap.minor_collections", counted.vm.gc.minor_collections);
    ledger.count("heap.major_collections", counted.vm.gc.major_collections);
    ledger.count("heap.nursery_alloc_bytes", counted.vm.gc.nursery_allocated);
    ledger.count("uarch.trace.ops", recorded);
    ledger.count("uarch.trace.bytes", recorded * std::mem::size_of::<MicroOp>() as u64);
    Ok(run.into())
}

/// A finished execution into `sink`, in the shape of [`CapturedRun`].
struct Executed<S> {
    sink: S,
    vm: qoa_vm::VmStats,
    jit: qoa_jit::JitStats,
    output: Vec<String>,
    result: Option<String>,
}

impl From<Executed<TraceBuffer>> for CapturedRun {
    fn from(e: Executed<TraceBuffer>) -> Self {
        CapturedRun { trace: e.sink, vm: e.vm, jit: e.jit, output: e.output, result: e.result }
    }
}

/// Executes prepared code under `rt` into `sink`: the same VM set-up as
/// `qoa_core::capture`, which keeps it private. The benchmark runs the
/// CPython and PyPy run-times only.
fn execute<S: OpSink>(
    code: &Rc<CodeObject>,
    verified: Option<&Verified<Rc<CodeObject>>>,
    rt: &RuntimeConfig,
    sink: S,
) -> Result<Executed<S>, QoaError> {
    if rt.kind == RuntimeKind::CPython {
        let cfg = VmConfig {
            heap: HeapMode::Rc,
            max_steps: rt.max_steps,
            deadline: rt.deadline,
            max_heap_bytes: rt.max_heap_bytes,
        };
        let mut vm = Vm::new(cfg, sink);
        match verified {
            Some(v) => vm.load_verified(v),
            None => vm.load_program(code),
        }
        vm.run()?;
        let result = vm.global_display("result");
        let output = vm.output().to_vec();
        let (sink, stats) = vm.finish();
        return Ok(Executed { sink, vm: stats, jit: Default::default(), output, result });
    }
    assert_ne!(rt.kind, RuntimeKind::V8, "the benchmark never runs the V8 model");
    let base = JitConfig::default();
    let cfg = JitConfig {
        enabled: rt.kind == RuntimeKind::PyPyJit,
        nursery_size: rt.nursery.unwrap_or(base.nursery_size),
        max_steps: rt.max_steps,
        deadline: rt.deadline,
        max_heap_bytes: rt.max_heap_bytes,
        ..base
    };
    let mut vm = PyPyVm::new(cfg, sink);
    match verified {
        Some(v) => vm.load_verified(v),
        None => vm.load_program(code),
    }
    vm.run()?;
    let jit = vm.jit_stats();
    let result = vm.vm.global_display("result");
    let output = vm.vm.output().to_vec();
    let (sink, stats) = vm.vm.finish();
    Ok(Executed { sink, vm: stats, jit, output, result })
}
