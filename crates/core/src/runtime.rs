//! Running guest programs under the paper's four run-time configurations.

use crate::error::QoaError;
use qoa_analysis::Verified;
use qoa_frontend::CodeObject;
use qoa_jit::{JitConfig, JitStats, PyPyVm};
use qoa_model::{OpSink, RuntimeKind};
use qoa_obs::{ObsConfig, Observability};
use qoa_uarch::TraceBuffer;
use qoa_vm::{HeapMode, StepEvent, Vm, VmConfig, VmError, VmStats};
use std::rc::Rc;

/// Default execution fuel for experiment runs (guards against accidental
/// infinite loops in workload programs).
pub const DEFAULT_FUEL: u64 = 2_000_000_000;

/// A fully specified run-time configuration.
#[derive(Debug, Clone, Copy)]
pub struct RuntimeConfig {
    /// Which of the paper's run-times to model.
    pub kind: RuntimeKind,
    /// Nursery size override for the generational run-times (bytes).
    pub nursery: Option<u64>,
    /// Execution fuel (0 = unlimited).
    pub max_steps: u64,
    /// Wall-clock deadline for the run (`None` = unlimited). The VM
    /// polls this cooperatively every few thousand bytecodes.
    pub deadline: Option<std::time::Instant>,
    /// Simulated live-heap cap in bytes (0 = unlimited).
    pub max_heap_bytes: u64,
    /// Verify bytecode up front and elide the interpreter's dynamic
    /// guards (the default). When false the VM keeps its per-dispatch
    /// guard micro-ops and the verifier is skipped entirely.
    pub elide_checks: bool,
    /// Observability toggle. Disabled by default, which keeps the figure
    /// paths overhead-free: no frame capture, no spans, no sampling.
    pub obs: ObsConfig,
    /// Static optimization level (0 = off, the default). Levels map to
    /// [`qoa_analysis::Passes::for_level`]: 1 enables constant folding +
    /// dead-code elimination, 2 adds global→fast promotion and
    /// superinstruction fusion. Optimized code is always re-verified;
    /// a re-verification failure aborts the run (`QoaError::Verify`).
    pub opt_level: u8,
}

impl RuntimeConfig {
    /// Configuration for `kind` with its default nursery.
    pub fn new(kind: RuntimeKind) -> Self {
        RuntimeConfig {
            kind,
            nursery: None,
            max_steps: DEFAULT_FUEL,
            deadline: None,
            max_heap_bytes: 0,
            elide_checks: true,
            obs: ObsConfig::default(),
            opt_level: 0,
        }
    }

    /// Returns a copy with the nursery size set (ignored by CPython).
    pub fn with_nursery(mut self, bytes: u64) -> Self {
        self.nursery = Some(bytes);
        self
    }

    /// Returns a copy with the wall-clock deadline set (or cleared).
    pub fn with_deadline(mut self, deadline: Option<std::time::Instant>) -> Self {
        self.deadline = deadline;
        self
    }

    /// Returns a copy with the simulated live-heap cap set.
    pub fn with_heap_cap(mut self, bytes: u64) -> Self {
        self.max_heap_bytes = bytes;
        self
    }

    /// Returns a copy with check elision switched on or off.
    pub fn with_check_elision(mut self, on: bool) -> Self {
        self.elide_checks = on;
        self
    }

    /// Returns a copy with the observability configuration set.
    pub fn with_observability(mut self, obs: ObsConfig) -> Self {
        self.obs = obs;
        self
    }

    /// Returns a copy with the static optimization level set.
    pub fn with_opt_level(mut self, level: u8) -> Self {
        self.opt_level = level;
        self
    }
}

/// Everything captured from one guest-program run: the micro-op trace
/// (replayable under any hardware configuration) plus run-time statistics.
#[derive(Debug)]
pub struct CapturedRun {
    /// The micro-op stream.
    pub trace: TraceBuffer,
    /// Interpreter/allocator statistics.
    pub vm: VmStats,
    /// JIT statistics (zeroed for CPython).
    pub jit: JitStats,
    /// Captured guest `print` output.
    pub output: Vec<String>,
    /// Rendered value of the workload's `result` global, for verification.
    pub result: Option<String>,
}

/// Runs `source` under `rt`, capturing the full micro-op trace.
///
/// # Errors
///
/// Returns the typed [`QoaError`]: compile error, guest run-time error,
/// or resource cutoff (fuel, deadline, simulated OOM).
pub fn capture(source: &str, rt: &RuntimeConfig) -> Result<CapturedRun, QoaError> {
    run_with_sink(source, rt, trace_buffer(rt)).map(CapturedRun::from)
}

impl From<SinkRun<TraceBuffer>> for CapturedRun {
    fn from((trace, vm, jit, output, result): SinkRun<TraceBuffer>) -> Self {
        CapturedRun { trace, vm, jit, output, result }
    }
}

/// An empty trace for a run under `rt`, capturing guest frame events when
/// observability is on.
pub(crate) fn trace_buffer(rt: &RuntimeConfig) -> TraceBuffer {
    if rt.obs.enabled {
        TraceBuffer::with_frame_capture()
    } else {
        TraceBuffer::new()
    }
}

/// Runs `source` under `rt` with wall-clock spans recorded into `obs`
/// for every pipeline stage (parse, compile, verify, execute) and guest
/// frame events captured in the trace for the sampling profiler.
///
/// The captured trace and statistics are identical to [`capture`] with
/// observability enabled — this entry point only adds the wall spans.
///
/// # Errors
///
/// Returns the typed [`QoaError`]: compile error, guest run-time error,
/// or resource cutoff (fuel, deadline, simulated OOM).
pub fn capture_observed(
    source: &str,
    rt: &RuntimeConfig,
    obs: &mut Observability,
) -> Result<CapturedRun, QoaError> {
    let module = obs
        .wall_span("parse", || qoa_frontend::parse(source))
        .map_err(qoa_frontend::FrontendError::from)?;
    let code = obs
        .wall_span("compile", || qoa_frontend::compile_module(&module))
        .map_err(qoa_frontend::FrontendError::from)?;
    // One span around `prepare`, named for the step it takes (none when
    // there is neither optimization nor verification to do).
    let (code, verified) = if rt.opt_level > 0 {
        obs.wall_span("optimize", || prepare(code, rt))?
    } else if rt.elide_checks {
        obs.wall_span("verify", || prepare(code, rt))?
    } else {
        prepare(code, rt)?
    };
    obs.wall_span("execute", || {
        let mut machine =
            Machine::load(&code, verified.as_ref(), rt, TraceBuffer::with_frame_capture());
        machine.run()?;
        Ok(CapturedRun::from(machine.finish()))
    })
}

/// Everything a runtime execution yields besides the trace: the sink,
/// VM and JIT statistics, guest stdout, and the `result` global.
pub type SinkRun<S> = (S, VmStats, JitStats, Vec<String>, Option<String>);

/// Runs `source` under `rt` with an arbitrary sink (e.g. a core model
/// directly, when trace memory is a concern).
///
/// # Errors
///
/// Returns the typed [`QoaError`]: compile error, guest run-time error,
/// or resource cutoff (fuel, deadline, simulated OOM).
pub fn run_with_sink<S: OpSink>(
    source: &str,
    rt: &RuntimeConfig,
    sink: S,
) -> Result<SinkRun<S>, QoaError> {
    let mut machine = Machine::new(source, rt, sink)?;
    machine.run()?;
    Ok(machine.finish())
}

/// The code to load plus the elision token, when check elision is on.
pub(crate) type Prepared = (Rc<CodeObject>, Option<Verified<Rc<CodeObject>>>);

/// Optimizes (when `opt_level > 0`) and verifies compiled code per `rt`.
/// Optimized code is *always* re-verified — the [`Verified`] token is
/// simply dropped when check elision is off.
pub(crate) fn prepare(code: Rc<CodeObject>, rt: &RuntimeConfig) -> Result<Prepared, QoaError> {
    if rt.opt_level > 0 {
        let (v, _report) = qoa_analysis::optimize(&code, rt.opt_level)?;
        let code = Rc::clone(v.get());
        Ok((code, rt.elide_checks.then_some(v)))
    } else {
        let verified = if rt.elide_checks { Some(qoa_analysis::verify(&code)?) } else { None };
        Ok((code, verified))
    }
}

/// One guest program loaded into the machine its [`RuntimeConfig`] names:
/// the CPython model is a plain [`Vm`] over the refcounting heap; the PyPy
/// and V8 models are a [`PyPyVm`] (JIT on or off) over the generational
/// heap. [`Machine::load`] is the only place a run-time configuration
/// becomes a [`VmConfig`] or [`JitConfig`].
///
/// The whole machine is plain data behind `Clone`, so a
/// [`qoa_chaos::Snapshot`] of it captures interpreter, heap, JIT driver,
/// chaos state and sink together.
#[derive(Clone)]
pub struct Machine<S: OpSink>(Inner<S>);

#[derive(Clone)]
enum Inner<S: OpSink> {
    Interp(Box<Vm<S>>),
    Jit(Box<PyPyVm<S>>),
}

impl<S: OpSink> Machine<S> {
    /// Compiles `source`, optimizes and/or verifies it per `rt`, and
    /// loads it.
    ///
    /// # Errors
    ///
    /// The compile error, or the verifier's rejection of the code.
    pub fn new(source: &str, rt: &RuntimeConfig, sink: S) -> Result<Self, QoaError> {
        Machine::from_code(qoa_frontend::compile(source)?, rt, sink)
    }

    /// Optimizes and/or verifies compiled `code` per `rt`, and loads it.
    ///
    /// # Errors
    ///
    /// The verifier's rejection of the code.
    pub fn from_code(code: Rc<CodeObject>, rt: &RuntimeConfig, sink: S) -> Result<Self, QoaError> {
        let (code, verified) = prepare(code, rt)?;
        Ok(Machine::load(&code, verified.as_ref(), rt, sink))
    }

    /// Loads prepared code into a fresh machine for `rt`. A `verified`
    /// token loads its code with the dispatch guard checks elided;
    /// without one, `code` loads guarded.
    pub fn load(
        code: &Rc<CodeObject>,
        verified: Option<&Verified<Rc<CodeObject>>>,
        rt: &RuntimeConfig,
        sink: S,
    ) -> Self {
        let inner = match rt.kind {
            RuntimeKind::CPython => Inner::Interp(Box::new(Vm::new(
                VmConfig {
                    heap: HeapMode::Rc,
                    max_steps: rt.max_steps,
                    deadline: rt.deadline,
                    max_heap_bytes: rt.max_heap_bytes,
                },
                sink,
            ))),
            RuntimeKind::PyPyNoJit | RuntimeKind::PyPyJit | RuntimeKind::V8 => {
                let base =
                    if rt.kind == RuntimeKind::V8 { JitConfig::v8() } else { JitConfig::default() };
                let cfg = JitConfig {
                    enabled: rt.kind != RuntimeKind::PyPyNoJit,
                    nursery_size: rt.nursery.unwrap_or(base.nursery_size),
                    max_steps: rt.max_steps,
                    deadline: rt.deadline,
                    max_heap_bytes: rt.max_heap_bytes,
                    ..base
                };
                Inner::Jit(Box::new(PyPyVm::new(cfg, sink)))
            }
        };
        let mut machine = Machine(inner);
        match verified {
            Some(v) => machine.vm_mut().load_verified(v),
            None => machine.vm_mut().load_program(code),
        }
        machine
    }

    /// The underlying interpreter: fuel, chaos arming, injected-fault
    /// records and step counts live here.
    pub fn vm(&self) -> &Vm<S> {
        match &self.0 {
            Inner::Interp(vm) => vm,
            Inner::Jit(jit) => &jit.vm,
        }
    }

    /// Mutable access to the underlying interpreter.
    pub fn vm_mut(&mut self) -> &mut Vm<S> {
        match &mut self.0 {
            Inner::Interp(vm) => vm,
            Inner::Jit(jit) => &mut jit.vm,
        }
    }

    /// Runs the program to completion.
    ///
    /// # Errors
    ///
    /// The guest run-time error or resource cutoff that stopped it.
    pub fn run(&mut self) -> Result<(), QoaError> {
        match &mut self.0 {
            Inner::Interp(vm) => vm.run(),
            Inner::Jit(jit) => jit.run(),
        }
        .map_err(QoaError::from)
    }

    /// Executes one bytecode (under the JIT driver's state machine on the
    /// PyPy and V8 models). `Ok(true)` when the program has finished.
    ///
    /// # Errors
    ///
    /// The raw [`VmError`], so a chaos driver can tell an injected fault
    /// ([`Vm::take_injected`]) from an organic one.
    pub fn step(&mut self) -> Result<bool, VmError> {
        match &mut self.0 {
            Inner::Interp(vm) => Ok(matches!(vm.step()?, StepEvent::Done)),
            Inner::Jit(jit) => jit.step_driver(),
        }
    }

    /// Consumes the machine: its sink, VM and JIT statistics (zeroed for
    /// CPython), guest stdout, and the rendered `result` global.
    pub fn finish(self) -> SinkRun<S> {
        let (mut vm, jit) = match self.0 {
            Inner::Interp(vm) => (*vm, JitStats::default()),
            Inner::Jit(jit) => {
                let stats = jit.jit_stats();
                (jit.vm, stats)
            }
        };
        let result = vm.global_display("result");
        let output = vm.output().to_vec();
        let (sink, stats) = vm.finish();
        (sink, stats, jit, output, result)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: &str = "total = 0\nfor i in range(500):\n    total = total + i\nresult = total\n";

    #[test]
    fn all_runtimes_capture_and_agree() {
        let mut results = Vec::new();
        for kind in RuntimeKind::ALL {
            let run = capture(SRC, &RuntimeConfig::new(kind)).expect("runs");
            assert!(!run.trace.is_empty(), "{kind}: empty trace");
            results.push(run.result.expect("result"));
        }
        results.dedup();
        assert_eq!(results.len(), 1, "runtimes disagree: {results:?}");
    }

    #[test]
    fn guarded_and_elided_paths_agree() {
        let elided = capture(SRC, &RuntimeConfig::new(RuntimeKind::CPython)).expect("runs");
        let guarded = capture(
            SRC,
            &RuntimeConfig::new(RuntimeKind::CPython).with_check_elision(false),
        )
        .expect("runs");
        assert_eq!(elided.result, guarded.result);
        assert!(
            guarded.trace.len() > elided.trace.len(),
            "guards emit extra micro-ops: guarded {} vs elided {}",
            guarded.trace.len(),
            elided.trace.len()
        );
    }

    #[test]
    fn opt_levels_agree_and_shrink_dispatch() {
        let base = RuntimeConfig::new(RuntimeKind::CPython);
        let plain = capture(SRC, &base).expect("runs");
        for level in 1..=qoa_analysis::MAX_OPT_LEVEL {
            let opt = capture(SRC, &base.with_opt_level(level)).expect("runs");
            assert_eq!(opt.result, plain.result, "level {level} result");
            assert_eq!(opt.output, plain.output, "level {level} output");
            assert!(
                opt.vm.bytecodes <= plain.vm.bytecodes,
                "level {level}: {} > {} bytecodes",
                opt.vm.bytecodes,
                plain.vm.bytecodes
            );
        }
        // Level 2 promotes + fuses the module loop, so it must strictly
        // reduce executed bytecodes (dispatches).
        let l2 = capture(SRC, &base.with_opt_level(2)).expect("runs");
        assert!(l2.vm.bytecodes < plain.vm.bytecodes);
    }

    #[test]
    fn jit_runtimes_report_jit_stats() {
        let hot = "t = 0\nfor i in range(3000):\n    t = t + i\nresult = t\n";
        let run = capture(hot, &RuntimeConfig::new(RuntimeKind::PyPyJit)).expect("runs");
        assert!(run.jit.traces_compiled > 0);
        let run = capture(hot, &RuntimeConfig::new(RuntimeKind::PyPyNoJit)).expect("runs");
        assert_eq!(run.jit.traces_compiled, 0);
    }

    #[test]
    fn nursery_override_is_honored() {
        let alloc_heavy =
            "xs = []\nfor i in range(30000):\n    xs.append((i, i))\n    if len(xs) > 64:\n        xs.pop(0)\nresult = len(xs)\n";
        let small = capture(
            alloc_heavy,
            &RuntimeConfig::new(RuntimeKind::PyPyNoJit).with_nursery(256 << 10),
        )
        .expect("runs");
        let big = capture(
            alloc_heavy,
            &RuntimeConfig::new(RuntimeKind::PyPyNoJit).with_nursery(64 << 20),
        )
        .expect("runs");
        assert!(
            small.vm.gc.minor_collections > big.vm.gc.minor_collections,
            "small {:?} vs big {:?}",
            small.vm.gc,
            big.vm.gc
        );
    }
}
