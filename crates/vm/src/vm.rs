//! The virtual machine core: object table, memory management, and the
//! micro-op emission helpers shared by the interpreter and the native
//! library.
//!
//! The VM executes Pyl bytecode under one of two memory managers —
//! CPython-style reference counting ([`HeapMode::Rc`]) or the PyPy-style
//! generational collector ([`HeapMode::Gen`]) — and under one of two *cost
//! modes*: [`CostMode::Interp`] emits the full interpreter cost model
//! (dispatch, stack traffic, boxing, C calls, …), while
//! [`CostMode::Trace`] emits the residual cost of JIT-compiled code
//! (guards, unboxed arithmetic, real C calls) with straight-line PCs in
//! the JIT code region. The `qoa-jit` crate flips the cost mode; the
//! semantics never change.

use crate::dict::{DictObj, Key};
use crate::idhash::IdMap;
use crate::native::NativeRegistry;
use crate::object::{Obj, ObjKind, ObjRef};
use qoa_chaos::{ChaosState, FaultKind, FaultRecord};
use qoa_frontend::{CodeObject, Const, Opcode};
use qoa_heap::{GcConfig, GcStats, GenHeap, ObjId, RcHeap, RcStats, Tracer};
use qoa_model::{mem, Category, Emitter, MicroOp, OpKind, OpSink, Pc, Phase};
use std::collections::HashMap;
use std::rc::Rc;

/// Base PC of the garbage collector / allocator code region.
pub(crate) const GC_CODE_BASE: u64 = mem::INTERP_CODE_BASE + 0x3C_0000;

/// Memory-management strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HeapMode {
    /// CPython-style reference counting with immediate reclamation.
    Rc,
    /// PyPy-style generational garbage collection.
    Gen(GcConfig),
}

/// VM configuration.
#[derive(Debug, Clone, Copy)]
pub struct VmConfig {
    /// Memory manager.
    pub heap: HeapMode,
    /// Execution fuel: abort after this many bytecodes (0 = unlimited).
    pub max_steps: u64,
    /// Wall-clock cutoff: [`Vm::step`] fails with
    /// [`VmError::DeadlineExceeded`] once this instant passes (checked
    /// every [`DEADLINE_CHECK_INTERVAL`] bytecodes).
    pub deadline: Option<std::time::Instant>,
    /// Simulated-OOM cap on live heap bytes (0 = unlimited). Exceeding it
    /// fails the next step with [`VmError::OutOfMemory`].
    pub max_heap_bytes: u64,
}

impl Default for VmConfig {
    fn default() -> Self {
        VmConfig { heap: HeapMode::Rc, max_steps: 0, deadline: None, max_heap_bytes: 0 }
    }
}

impl VmConfig {
    /// Returns a copy whose deadline is `timeout` from now.
    pub fn with_timeout(mut self, timeout: std::time::Duration) -> Self {
        self.deadline = Some(std::time::Instant::now() + timeout);
        self
    }
}

/// How often (in bytecodes) the interpreter polls the wall clock for
/// [`VmConfig::deadline`].
pub const DEADLINE_CHECK_INTERVAL: u64 = 4096;

/// Cost model in effect (see module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CostMode {
    /// Full interpreter cost model.
    Interp,
    /// JIT-compiled-trace cost model; PCs advance through the trace's
    /// code region.
    Trace,
}

/// Why an execution stopped abnormally.
///
/// Every variant is recoverable from the host's point of view: the
/// experiment harness records it as a structured run failure instead of
/// aborting the sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VmError {
    /// The program failed to compile.
    Compile(qoa_frontend::FrontendError),
    /// A guest run-time error (e.g. `TypeError: ...`) at a source line.
    Runtime {
        /// Description (e.g. `TypeError: ...`).
        message: String,
        /// Source line of the faulting bytecode.
        line: u32,
    },
    /// The execution fuel budget ([`VmConfig::max_steps`]) ran out.
    FuelExhausted {
        /// Bytecodes executed when the budget ran out.
        steps: u64,
    },
    /// The wall-clock deadline ([`VmConfig::deadline`]) passed.
    DeadlineExceeded {
        /// Bytecodes executed when the deadline fired.
        steps: u64,
    },
    /// Simulated live heap exceeded [`VmConfig::max_heap_bytes`].
    OutOfMemory {
        /// Live bytes at the failing allocation.
        live_bytes: u64,
        /// The configured cap.
        limit_bytes: u64,
    },
    /// A fault injected by an armed chaos plan that has no organic
    /// counterpart (JIT compile failure, mid-trace abort). Step-class
    /// injections reuse the organic variants; this one exists so the
    /// experiment layer can tell a surfaced synthetic fault apart even
    /// without consulting the chaos state.
    Injected {
        /// [`qoa_chaos::FaultKind::name`] of the injected fault.
        what: &'static str,
        /// Bytecodes executed when it fired.
        steps: u64,
    },
}

impl VmError {
    /// A guest run-time error at `line`.
    pub fn runtime(message: impl Into<String>, line: u32) -> Self {
        VmError::Runtime { message: message.into(), line }
    }

    /// True for errors the guest program itself caused (compile and
    /// run-time errors), false for resource-limit cutoffs.
    pub fn is_guest_fault(&self) -> bool {
        matches!(self, VmError::Compile(_) | VmError::Runtime { .. })
    }
}

impl std::fmt::Display for VmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VmError::Compile(e) => write!(f, "compile error: {e}"),
            VmError::Runtime { message, line } => write!(f, "line {line}: {message}"),
            VmError::FuelExhausted { steps } => {
                write!(f, "execution fuel exhausted after {steps} bytecodes")
            }
            VmError::DeadlineExceeded { steps } => {
                write!(f, "wall-clock deadline exceeded after {steps} bytecodes")
            }
            VmError::OutOfMemory { live_bytes, limit_bytes } => {
                write!(f, "simulated OOM: {live_bytes} live bytes > {limit_bytes} byte cap")
            }
            VmError::Injected { what, steps } => {
                write!(f, "injected fault `{what}` after {steps} bytecodes")
            }
        }
    }
}

impl std::error::Error for VmError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            VmError::Compile(e) => Some(e),
            _ => None,
        }
    }
}

impl From<qoa_frontend::FrontendError> for VmError {
    fn from(e: qoa_frontend::FrontendError) -> Self {
        VmError::Compile(e)
    }
}

/// Compatibility with older `Result<_, String>` call sites.
impl From<VmError> for String {
    fn from(e: VmError) -> Self {
        e.to_string()
    }
}

/// What one [`Vm::step`] did, from the driver's point of view.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepEvent {
    /// Ordinary instruction.
    Continue,
    /// A backwards jump was taken (a loop iteration completed) — the
    /// tracing JIT keys its hot-loop counters on these.
    Backedge {
        /// Identity of the code object (see `location`).
        code: usize,
        /// Bytecode index of the loop header.
        target: usize,
    },
    /// The program finished.
    Done,
}

/// A loop block on the frame's block stack.
#[derive(Debug, Clone, Copy)]
pub struct Block {
    /// Bytecode index to jump to on `break`.
    pub end: usize,
    /// Value-stack depth to restore.
    pub stack_depth: usize,
}

/// An activation record.
#[derive(Debug, Clone)]
pub struct Frame {
    /// The executing code object.
    pub code: Rc<CodeObject>,
    /// The VM's registered metadata for `code`, carried here so dispatch
    /// reads it without a table lookup.
    pub(crate) meta: Rc<CodeMeta>,
    /// Next instruction index.
    pub pc: usize,
    /// Fast locals (parameters first).
    pub locals: Vec<Option<ObjRef>>,
    /// Value stack.
    pub stack: Vec<ObjRef>,
    /// Loop block stack.
    pub blocks: Vec<Block>,
    /// Simulated frame object (None for virtualized JIT frames).
    pub frame_obj: Option<ObjRef>,
    /// Class-body namespace dict, when executing a class body.
    pub class_ns: Option<ObjRef>,
    /// The callee object that created this frame (kept as a GC root).
    pub callee: Option<ObjRef>,
    /// For `__init__` frames: the instance to yield instead of the return
    /// value.
    pub init_instance: Option<ObjRef>,
}

/// A returned frame's emptied locals, value stack and block stack.
pub(crate) type FrameBufs = (Vec<Option<ObjRef>>, Vec<ObjRef>, Vec<Block>);

/// Execution statistics.
#[derive(Debug, Clone)]
pub struct VmStats {
    /// Bytecodes executed.
    pub bytecodes: u64,
    /// Guest objects allocated.
    pub allocations: u64,
    /// Guest function calls.
    pub calls: u64,
    /// Native ("C extension") calls.
    pub native_calls: u64,
    /// Dict probe slots touched (name resolution pressure).
    pub dict_probes: u64,
    /// Dispatch count per opcode, indexed by [`Opcode::index`]
    /// (always `Opcode::COUNT` entries).
    pub opcodes: Vec<u64>,
    /// Reference-counting heap statistics (Rc mode).
    pub rc: RcStats,
    /// Generational-GC statistics (Gen mode).
    pub gc: GcStats,
}

impl Default for VmStats {
    fn default() -> Self {
        VmStats {
            bytecodes: 0,
            allocations: 0,
            calls: 0,
            native_calls: 0,
            dict_probes: 0,
            opcodes: vec![0; Opcode::COUNT],
            rc: RcStats::default(),
            gc: GcStats::default(),
        }
    }
}

#[derive(Clone)]
pub(crate) enum HeapImpl {
    Rc(RcHeap),
    Gen(GenHeap),
}

/// The virtual machine.
///
/// Generic over the micro-op sink `S`, so the same execution can be counted
/// ([`qoa_model::CountingSink`]), captured ([`qoa_uarch::TraceBuffer`]
/// replays) or simulated cycle-by-cycle.
///
/// The whole machine is `Clone` (when the sink is): a clone is a complete
/// mid-run snapshot — interpreter, heap, *and* attribution state — which
/// is what the chaos engine's checkpoint/restore recovery is built on.
/// Guest objects are slab-indexed and code objects are shared `Rc`s whose
/// identity keys (`code_key`) stay valid across the clone, so a restored
/// machine re-executes bit-identically.
#[derive(Clone)]
pub struct Vm<S: OpSink> {
    pub(crate) sink: S,
    pub(crate) cfg: VmConfig,
    pub(crate) phase: Phase,
    pub(crate) cost: CostMode,
    /// Base PC of the current opcode handler (interp mode).
    pub(crate) handler_base: u64,
    /// Cursor through the JIT code region (trace mode).
    pub(crate) trace_pc: u64,
    pub(crate) slab: Vec<Obj>,
    pub(crate) free_slots: Vec<u32>,
    pub(crate) heap: HeapImpl,
    pub(crate) frames: Vec<Frame>,
    /// GC-visible temporaries (mid-instruction).
    pub(crate) scratch: Vec<ObjRef>,
    pub(crate) globals: ObjRef,
    pub(crate) builtins: ObjRef,
    none_ref: ObjRef,
    true_ref: ObjRef,
    false_ref: ObjRef,
    small_ints: Vec<ObjRef>,
    pub(crate) interned_strs: HashMap<Rc<str>, ObjRef>,
    pub(crate) natives: NativeRegistry,
    /// Per-code-object constant object tables and simulated co_code
    /// addresses, keyed by code identity. Frames carry their own `Rc`, so
    /// this is consulted once per call, not per bytecode.
    pub(crate) code_meta: IdMap<usize, Rc<CodeMeta>>,
    /// Interned name objects of every registered code object's `names`,
    /// from [`CodeMeta::name_base`] on; `None` until first needed.
    /// Interning allocates at the next static address, so it stays
    /// exactly as lazy as a per-use `intern_str` would be.
    pub(crate) name_objs: Vec<Option<ObjRef>>,
    next_code_addr: u64,
    static_bump: u64,
    pub(crate) probes: Vec<u32>,
    /// [`Vm::decref`]'s cascade worklist, kept between calls so a release
    /// does not allocate.
    decref_work: Vec<ObjRef>,
    /// Emptied locals, value-stack and block vectors of returned frames,
    /// reused by the next calls so a call does not allocate them.
    pub(crate) frame_bufs: Vec<FrameBufs>,
    /// Argument buffer for native calls (taken and given back per call).
    pub(crate) native_args: Vec<ObjRef>,
    /// `"__init__"`, the name instantiation looks up.
    pub(crate) init_name: Rc<str>,
    pub(crate) stats: VmStats,
    pub(crate) steps: u64,
    /// A fault detected mid-instruction (e.g. simulated OOM during an
    /// allocation); surfaced as the result of the next [`Vm::step`].
    pub(crate) pending_fault: Option<VmError>,
    /// Armed fault-injection state (`None` when chaos is off; the hooks
    /// then cost one branch per site and emit nothing).
    pub(crate) chaos: Option<ChaosState>,
    /// Whether the one emergency major collection allowed per
    /// cap-exceed event has already run (reset when usage drops back
    /// under the cap).
    emergency_gc_used: bool,
    /// Modeled C-call nesting depth (for C-stack addresses).
    pub(crate) c_depth: u32,
    /// Captured `print` output.
    pub(crate) output: Vec<String>,
    /// Final value returned by the module frame.
    pub(crate) result: Option<ObjRef>,
    /// Category native-body emissions carry (CLibrary vs Execute).
    pub(crate) lib_cat: Category,
    /// Whether the per-dispatch defensive guard checks are elided. Set
    /// only by [`Vm::load_verified`]: statically verified code has
    /// proved the properties the guards re-check dynamically, so their
    /// simulated cost ([`Category::ErrorCheck`] ops per dispatch) is
    /// skipped. Unverified code keeps the guards.
    pub(crate) elide_checks: bool,
    /// Last guest source line announced to the sink via
    /// [`FrameEvent::Line`](qoa_model::FrameEvent). Line events are
    /// delta-encoded: [`Vm::step`] emits one only when the fetched
    /// instruction's line differs from this. 0 = nothing announced yet.
    pub(crate) cur_line: u32,
}

/// Registered metadata for one code object. Immutable once built, so a
/// snapshot shares it with the machine it was cloned from.
#[derive(Debug)]
pub(crate) struct CodeMeta {
    /// Constants realized as (immortal) guest objects.
    pub consts: Vec<ObjRef>,
    /// Simulated address of `co_code`.
    pub code_addr: u64,
    /// Simulated address of `co_consts` pointer table.
    pub consts_addr: u64,
    /// Interned function name for frame events (cheap to clone per call;
    /// `Arc` so emitted traces stay shareable across threads).
    pub name: std::sync::Arc<str>,
    /// `names` as shared strings, built once so a name lookup clones an
    /// `Rc` instead of allocating a key.
    pub names: Vec<Rc<str>>,
    /// Index of `names[0]` in [`Vm::name_objs`].
    pub name_base: usize,
}

impl CodeMeta {
    /// The dict key for name `idx`.
    pub fn name_key(&self, idx: usize) -> Key {
        Key::Str(Rc::clone(&self.names[idx]))
    }
}

/// Identity key of a code object (Rc pointer address).
pub(crate) fn code_key(code: &Rc<CodeObject>) -> usize {
    Rc::as_ptr(code) as usize
}

const SMALL_INT_MIN: i64 = -5;
const SMALL_INT_MAX: i64 = 256;

impl<S: OpSink> Vm<S> {
    /// Creates a VM with the given configuration and sink.
    pub fn new(cfg: VmConfig, sink: S) -> Self {
        let heap = match cfg.heap {
            HeapMode::Rc => HeapImpl::Rc(RcHeap::new()),
            HeapMode::Gen(gc) => HeapImpl::Gen(GenHeap::new(gc)),
        };
        let mut vm = Vm {
            sink,
            cfg,
            phase: Phase::Interpreter,
            cost: CostMode::Interp,
            handler_base: mem::INTERP_CODE_BASE,
            trace_pc: mem::JIT_CODE_BASE,
            slab: Vec::with_capacity(1024),
            free_slots: Vec::new(),
            heap,
            frames: Vec::new(),
            scratch: Vec::new(),
            globals: ObjRef(0),
            builtins: ObjRef(0),
            none_ref: ObjRef(0),
            true_ref: ObjRef(0),
            false_ref: ObjRef(0),
            small_ints: Vec::new(),
            interned_strs: HashMap::new(),
            natives: NativeRegistry::new(),
            code_meta: IdMap::default(),
            name_objs: Vec::new(),
            next_code_addr: mem::STATIC_DATA_BASE + 0x10_0000,
            static_bump: mem::STATIC_DATA_BASE + 0x40_0000,
            probes: Vec::new(),
            decref_work: Vec::new(),
            frame_bufs: Vec::new(),
            native_args: Vec::new(),
            init_name: Rc::from("__init__"),
            stats: VmStats::default(),
            steps: 0,
            pending_fault: None,
            chaos: None,
            emergency_gc_used: false,
            c_depth: 0,
            output: Vec::new(),
            result: None,
            lib_cat: Category::CLibrary,
            elide_checks: false,
            cur_line: 0,
        };
        vm.none_ref = vm.alloc_immortal(ObjKind::None);
        vm.true_ref = vm.alloc_immortal(ObjKind::Bool(true));
        vm.false_ref = vm.alloc_immortal(ObjKind::Bool(false));
        vm.small_ints = (SMALL_INT_MIN..=SMALL_INT_MAX)
            .map(|v| vm.alloc_immortal(ObjKind::Int(v)))
            .collect();
        vm.globals = vm.alloc_immortal(ObjKind::Dict(DictObj::new()));
        vm.builtins = vm.alloc_immortal(ObjKind::Dict(DictObj::new()));
        vm.install_builtins();
        vm
    }

    /// Consumes the VM and returns the sink plus statistics.
    pub fn finish(mut self) -> (S, VmStats) {
        self.refresh_stats();
        (self.sink, self.stats)
    }

    /// The micro-op sink, for a checkpoint that moves it aside while the
    /// rest of the machine is cloned.
    pub fn sink_mut(&mut self) -> &mut S {
        &mut self.sink
    }

    /// Current statistics (heap counters refreshed).
    pub fn stats(&mut self) -> VmStats {
        self.refresh_stats();
        self.stats.clone()
    }

    fn refresh_stats(&mut self) {
        match &self.heap {
            HeapImpl::Rc(h) => self.stats.rc = h.stats(),
            HeapImpl::Gen(h) => self.stats.gc = h.stats(),
        }
    }

    /// Lines captured from the guest's `print`.
    pub fn output(&self) -> &[String] {
        &self.output
    }

    /// Bytecodes executed so far (the chaos engine's fault clock mirrors
    /// this counter).
    pub fn steps(&self) -> u64 {
        self.steps
    }

    // ---- per-request limits --------------------------------------------------

    /// Replaces the execution fuel budget (0 = unlimited). The serving
    /// layer calls this on a clone restored from a pre-warmed snapshot so
    /// each request carries its own deadline-derived fuel cap without
    /// re-capturing the snapshot.
    pub fn set_fuel(&mut self, max_steps: u64) {
        self.cfg.max_steps = max_steps;
    }

    // ---- fault injection -----------------------------------------------------

    /// Arms a chaos plan. With chaos disarmed (the default) every hook
    /// below is a single `None` branch and the simulation is bit-identical
    /// to a build without the engine.
    pub fn arm_chaos(&mut self, chaos: ChaosState) {
        self.chaos = Some(chaos);
    }

    /// The armed chaos state, if any.
    pub fn chaos(&self) -> Option<&ChaosState> {
        self.chaos.as_ref()
    }

    /// Mutable access to the armed chaos state (the experiment layer uses
    /// this to disarm a consumed fault point after restoring a snapshot).
    pub fn chaos_mut(&mut self) -> Option<&mut ChaosState> {
        self.chaos.as_mut()
    }

    /// Polls the armed plan for a due fault of `kind`. `None` when chaos
    /// is off or no point is due.
    pub fn chaos_poll(&mut self, kind: FaultKind) -> Option<FaultRecord> {
        self.chaos.as_mut()?.poll(kind)
    }

    /// Whether JIT faults should degrade in place instead of surfacing.
    pub fn chaos_degrade_jit(&self) -> bool {
        self.chaos.as_ref().is_some_and(|c| c.degrade_jit())
    }

    /// Notes a fault recovered in place (degrade mode).
    pub fn chaos_note_recovery(&mut self) {
        if let Some(c) = self.chaos.as_mut() {
            c.note_in_vm_recovery();
        }
    }

    /// Takes the record of the most recent injected fault. The experiment
    /// layer calls this after an error to tell injected faults (recover by
    /// restore) apart from organic ones (surface to the caller).
    pub fn take_injected(&mut self) -> Option<FaultRecord> {
        self.chaos.as_mut()?.take_last_injected()
    }

    /// Whether a fault raised mid-step (an allocation failure or a
    /// simulated OOM) is waiting to surface at the next step boundary.
    /// A snapshot taken now would carry it, so every restore of that
    /// snapshot would raise it again.
    pub fn has_pending_fault(&self) -> bool {
        self.pending_fault.is_some()
    }

    /// Whether the per-dispatch guard checks are elided (true only after
    /// `Vm::load_verified`).
    pub fn check_elision(&self) -> bool {
        self.elide_checks
    }

    /// The globals dict object.
    pub fn globals_ref(&self) -> ObjRef {
        self.globals
    }

    /// The `None` singleton.
    pub fn none(&self) -> ObjRef {
        self.none_ref
    }

    /// The `True`/`False` singletons.
    pub fn bool_ref(&self, b: bool) -> ObjRef {
        if b {
            self.true_ref
        } else {
            self.false_ref
        }
    }

    /// Read access to an object.
    ///
    /// # Panics
    ///
    /// Panics if the reference is stale (freed slab slot).
    pub fn obj(&self, r: ObjRef) -> &Obj {
        &self.slab[r.index()]
    }

    /// Mutable access to an object.
    pub fn obj_mut(&mut self, r: ObjRef) -> &mut Obj {
        &mut self.slab[r.index()]
    }

    /// The kind of an object.
    pub fn kind(&self, r: ObjRef) -> &ObjKind {
        &self.slab[r.index()].kind
    }

    /// Current cost mode.
    pub fn cost_mode(&self) -> CostMode {
        self.cost
    }

    /// Switches the cost model (used by the tracing JIT).
    pub fn set_cost_mode(&mut self, cost: CostMode) {
        self.cost = cost;
        self.phase = match cost {
            CostMode::Interp => Phase::Interpreter,
            CostMode::Trace => Phase::JitCode,
        };
        self.sink.phase_change(self.phase);
    }

    /// Sets the JIT-code PC cursor (start of a trace's code region).
    pub fn set_trace_pc(&mut self, pc: u64) {
        self.trace_pc = pc;
    }

    /// Emits the work of compiling a recorded trace: the optimizer reads
    /// the trace IR and writes machine code into the JIT code region
    /// ([`Phase::JitCompile`]). Returns nothing; cost only.
    pub fn emit_jit_compile(&mut self, trace_steps: usize, code_base: u64, code_len: u64) {
        let saved = self.phase;
        self.phase = Phase::JitCompile;
        self.sink.phase_change(Phase::JitCompile);
        let ir_base = mem::STATIC_DATA_BASE + 0x80_0000;
        // Several optimizer passes over the IR, then code emission.
        for pass in 0..3u64 {
            for i in 0..trace_steps as u64 {
                self.eload(960, Category::Execute, ir_base + (i * 3 + pass) % 4096 * 16);
                self.ealu(961, Category::Execute, 6);
            }
        }
        let words = (code_len / 8).min(1 << 16);
        for i in 0..words {
            self.estore(964, Category::Execute, code_base + i * 8);
            self.ealu(965, Category::Execute, 2);
        }
        self.phase = saved;
        self.sink.phase_change(saved);
    }

    /// Emits a deoptimization: reconstructing the interpreter state from
    /// the failed trace (writing back live values, reallocating virtualized
    /// frames).
    pub fn emit_deopt(&mut self) {
        // Materialize any virtual frames so the interpreter can resume.
        let missing: Vec<usize> = self
            .frames
            .iter()
            .enumerate()
            .filter(|(_, f)| f.frame_obj.is_none())
            .map(|(i, _)| i)
            .collect();
        for idx in missing {
            let nlocals = self.frames[idx].locals.len() as u64;
            let bytes = 96 + 8 * (nlocals + 24);
            let fo = self.alloc_obj(ObjKind::Buffer { bytes });
            let addr = self.obj_addr(fo);
            self.frames[idx].frame_obj = Some(fo);
            // Write back the frame's live values.
            for i in 0..(nlocals + 4) {
                self.estore(970, Category::FunctionSetup, addr + 96 + i * 8);
            }
        }
        // Also materialize any virtual numeric values that now live on.
        let live: Vec<crate::object::ObjRef> = self
            .frames
            .iter()
            .flat_map(|f| {
                f.locals
                    .iter()
                    .flatten()
                    .chain(f.stack.iter())
                    .copied()
                    .collect::<Vec<_>>()
            })
            .collect();
        for r in live {
            if self.obj(r).virtual_unboxed {
                self.materialize(r);
            }
        }
        self.ealu(974, Category::RichControlFlow, 8);
    }

    // ---- emission -----------------------------------------------------------

    #[inline]
    pub(crate) fn pc_for(&mut self, site: u32) -> Pc {
        match self.cost {
            CostMode::Interp => Pc(self.handler_base + (site as u64) * 4),
            CostMode::Trace => {
                let p = self.trace_pc;
                self.trace_pc += 4;
                Pc(p)
            }
        }
    }

    #[inline]
    pub(crate) fn emit(&mut self, site: u32, kind: OpKind, category: Category) {
        let pc = self.pc_for(site);
        self.sink.op(MicroOp { pc, kind, category, phase: self.phase });
    }

    #[inline]
    pub(crate) fn ealu(&mut self, site: u32, cat: Category, n: u32) {
        for i in 0..n {
            self.emit(site + i, OpKind::Alu, cat);
        }
    }

    #[inline]
    pub(crate) fn efp(&mut self, site: u32, cat: Category) {
        self.emit(site, OpKind::FpAlu, cat);
    }

    #[inline]
    pub(crate) fn eload(&mut self, site: u32, cat: Category, addr: u64) {
        self.emit(site, OpKind::Load { addr, size: 8 }, cat);
    }

    #[inline]
    pub(crate) fn estore(&mut self, site: u32, cat: Category, addr: u64) {
        self.emit(site, OpKind::Store { addr, size: 8 }, cat);
    }

    #[inline]
    pub(crate) fn ebranch(&mut self, site: u32, cat: Category, taken: bool) {
        let target = self.pc_for(site + 8);
        self.emit(site, OpKind::Branch { taken, target, indirect: false }, cat);
    }

    /// Emits one modeled C call: call + prologue at the callee, tagged
    /// [`Category::CFunctionCall`]. Pair with [`Vm::c_return`].
    pub(crate) fn c_call(&mut self, site: u32, target: u64, indirect: bool) {
        self.emit(site, OpKind::Call { target: Pc(target), indirect }, Category::CFunctionCall);
        // Prologue: push rbp, set up frame, spill callee-saved registers.
        let sp = self.c_stack_ptr();
        self.estore(site + 1, Category::CFunctionCall, sp);
        self.estore(site + 2, Category::CFunctionCall, sp - 8);
        self.estore(site + 3, Category::CFunctionCall, sp - 16);
        self.ealu(site + 4, Category::CFunctionCall, 2);
        self.c_depth += 1;
    }

    /// Emits one modeled C return: epilogue restores + `ret`.
    pub(crate) fn c_return(&mut self, site: u32) {
        self.c_depth = self.c_depth.saturating_sub(1);
        let sp = self.c_stack_ptr();
        self.eload(site, Category::CFunctionCall, sp - 16);
        self.eload(site + 1, Category::CFunctionCall, sp - 8);
        self.eload(site + 2, Category::CFunctionCall, sp);
        self.emit(site + 3, OpKind::Ret, Category::CFunctionCall);
    }

    fn c_stack_ptr(&self) -> u64 {
        mem::C_STACK_TOP - 64 - (self.c_depth as u64) * 48
    }

    // ---- object lifecycle ----------------------------------------------------

    fn alloc_slot(&mut self, obj: Obj) -> ObjRef {
        match self.free_slots.pop() {
            Some(i) => {
                self.slab[i as usize] = obj;
                ObjRef(i)
            }
            None => {
                self.slab.push(obj);
                ObjRef((self.slab.len() - 1) as u32)
            }
        }
    }

    /// Allocates an immortal object at a static address (singletons,
    /// interned constants). Emits nothing.
    pub(crate) fn alloc_immortal(&mut self, kind: ObjKind) -> ObjRef {
        let size = kind.heap_size().max(16).div_ceil(16) * 16;
        let addr = self.static_bump;
        self.static_bump += size;
        let mut obj = Obj::new(kind);
        obj.immortal = true;
        obj.static_addr = addr;
        obj.refcount = u32::MAX / 2;
        self.alloc_slot(obj)
    }

    /// Allocates a mortal guest object, emitting allocator traffic and —
    /// under the generational heap — running collections as needed.
    /// Numeric temporaries under the trace cost model stay *virtual*
    /// (no simulated allocation) until they escape.
    pub(crate) fn alloc_obj(&mut self, kind: ObjKind) -> ObjRef {
        self.stats.allocations += 1;
        if self.cost == CostMode::Trace
            && matches!(kind, ObjKind::Int(_) | ObjKind::Float(_) | ObjKind::Bool(_))
        {
            let mut obj = Obj::new(kind);
            obj.virtual_unboxed = true;
            return self.alloc_slot(obj);
        }
        let size = kind.heap_size();
        let r = self.alloc_slot(Obj::new(kind));
        self.alloc_backing(r, size);
        r
    }

    /// Gives a (possibly virtual) object a simulated allocation.
    pub(crate) fn alloc_backing(&mut self, r: ObjRef, size: u64) {
        // Injected allocation failure: one emergency collection (the
        // recovery attempt the real allocator would make), then the
        // allocation proceeds — allocation stays infallible — and the
        // simulated OOM surfaces at the next step boundary.
        let injected = self
            .chaos
            .as_mut()
            .and_then(|c| c.poll(FaultKind::AllocFault))
            .is_some();
        if injected && matches!(self.heap, HeapImpl::Gen(_)) {
            self.minor_gc();
        }
        let needs_major = match self.cfg.heap {
            HeapMode::Rc => {
                let Vm { heap, sink, phase, .. } = self;
                let HeapImpl::Rc(h) = heap else { unreachable!() };
                let mut e = Emitter::new(sink, *phase, GC_CODE_BASE);
                h.alloc(r.obj_id(), size, Category::ObjectAllocation, &mut e);
                false
            }
            HeapMode::Gen(_) => {
                let needs_minor = {
                    let HeapImpl::Gen(h) = &self.heap else { unreachable!() };
                    h.needs_minor(size)
                };
                if needs_minor {
                    self.minor_gc();
                }
                let Vm { heap, sink, phase, .. } = self;
                let HeapImpl::Gen(h) = heap else { unreachable!() };
                let mut e = Emitter::new(sink, *phase, GC_CODE_BASE);
                h.alloc(r.obj_id(), size, &mut e);
                h.needs_major()
            }
        };
        // `r` sits on no root yet (stack, locals or `scratch`), so root it
        // while an old-space collection — threshold or emergency — sweeps.
        self.scratch.push(r);
        if needs_major {
            self.major_gc();
        }
        self.check_heap_cap();
        self.scratch.pop();
        if injected && self.pending_fault.is_none() {
            let live = self.live_heap_bytes();
            self.pending_fault = Some(VmError::OutOfMemory {
                live_bytes: live,
                limit_bytes: if self.cfg.max_heap_bytes == 0 {
                    live
                } else {
                    self.cfg.max_heap_bytes
                },
            });
        }
    }

    fn live_heap_bytes(&self) -> u64 {
        match &self.heap {
            HeapImpl::Rc(h) => h.stats().live_bytes,
            HeapImpl::Gen(h) => h.live_bytes(),
        }
    }

    /// Flags a pending [`VmError::OutOfMemory`] when the simulated live
    /// heap exceeds the configured cap. Allocation itself stays infallible;
    /// the fault surfaces at the next [`Vm::step`] boundary. Under the
    /// generational heap, one emergency major collection runs first — if
    /// it brings usage back under the cap the run degrades gracefully
    /// instead of dying.
    fn check_heap_cap(&mut self) {
        if self.cfg.max_heap_bytes == 0 || self.pending_fault.is_some() {
            return;
        }
        let mut live = self.live_heap_bytes();
        if live <= self.cfg.max_heap_bytes {
            self.emergency_gc_used = false;
            return;
        }
        if matches!(self.heap, HeapImpl::Gen(_)) && !self.emergency_gc_used {
            self.emergency_gc_used = true;
            self.major_gc();
            live = self.live_heap_bytes();
            if live <= self.cfg.max_heap_bytes {
                return;
            }
        }
        self.pending_fault = Some(VmError::OutOfMemory {
            live_bytes: live,
            limit_bytes: self.cfg.max_heap_bytes,
        });
    }

    /// Materializes a virtual (trace-register) object into the heap, e.g.
    /// when it escapes the trace into a container, global, or frame.
    pub(crate) fn materialize(&mut self, r: ObjRef) {
        if !self.obj(r).virtual_unboxed {
            return;
        }
        self.obj_mut(r).virtual_unboxed = false;
        let size = self.obj(r).kind.heap_size();
        self.alloc_backing(r, size);
        // Store of the unboxed value + type tag into the fresh object.
        let addr = self.obj_addr(r);
        self.estore(900, Category::BoxUnbox, addr + 8);
        self.estore(901, Category::ObjectAllocation, addr);
    }

    /// The simulated address of an object (static for immortals, heap
    /// otherwise; virtual objects report a scratch-register address).
    pub(crate) fn obj_addr(&self, r: ObjRef) -> u64 {
        let o = &self.slab[r.index()];
        if o.immortal {
            return o.static_addr;
        }
        if o.virtual_unboxed {
            // Virtual values live in (modeled) registers; give them a
            // stack-scratch address so stray accesses stay harmless.
            return mem::C_STACK_TOP - 32;
        }
        match &self.heap {
            HeapImpl::Rc(h) => h.addr_of(r.obj_id()).unwrap_or(mem::STATIC_DATA_BASE),
            HeapImpl::Gen(h) => h.addr_of(r.obj_id()).unwrap_or(mem::STATIC_DATA_BASE),
        }
    }

    /// Increments a reference count (emits under Rc mode).
    pub(crate) fn incref(&mut self, r: ObjRef) {
        let o = &mut self.slab[r.index()];
        if o.immortal {
            // CPython refcounts singletons too; the traffic is real.
            if matches!(self.heap, HeapImpl::Rc(_)) && self.cost == CostMode::Interp {
                let addr = o.static_addr;
                self.estore(912, Category::GarbageCollection, addr);
                self.stats.rc.increfs += 1;
            }
            return;
        }
        o.refcount += 1;
        if matches!(self.heap, HeapImpl::Rc(_)) {
            let Vm { heap, sink, phase, .. } = self;
            let HeapImpl::Rc(h) = heap else { unreachable!() };
            let mut e = Emitter::new(sink, *phase, GC_CODE_BASE);
            h.incref(r.obj_id(), &mut e);
        }
    }

    /// Decrements a reference count; frees (and cascades) at zero under Rc
    /// mode, or reclaims virtual temporaries under the generational heap.
    pub(crate) fn decref(&mut self, r: ObjRef) {
        let mut worklist = std::mem::take(&mut self.decref_work);
        worklist.push(r);
        while let Some(r) = worklist.pop() {
            let o = &mut self.slab[r.index()];
            if o.immortal {
                if matches!(self.heap, HeapImpl::Rc(_)) && self.cost == CostMode::Interp {
                    let addr = o.static_addr;
                    self.estore(917, Category::GarbageCollection, addr);
                    self.ebranch(918, Category::GarbageCollection, false);
                    self.stats.rc.decrefs += 1;
                }
                continue;
            }
            debug_assert!(o.refcount > 0, "decref of dead object");
            o.refcount -= 1;
            let now_zero = o.refcount == 0;
            let is_virtual = o.virtual_unboxed;
            match self.cfg.heap {
                HeapMode::Rc => {
                    {
                        let Vm { heap, sink, phase, .. } = self;
                        let HeapImpl::Rc(h) = heap else { unreachable!() };
                        let mut e = Emitter::new(sink, *phase, GC_CODE_BASE);
                        h.decref(r.obj_id(), now_zero, &mut e);
                    }
                    if now_zero {
                        // Children lose a reference; free the object.
                        crate::trace_refs::for_each_child(&self.slab[r.index()], |c| {
                            worklist.push(c)
                        });
                        {
                            let Vm { heap, sink, phase, .. } = self;
                            let HeapImpl::Rc(h) = heap else { unreachable!() };
                            let mut e = Emitter::new(sink, *phase, GC_CODE_BASE);
                            h.free(r.obj_id(), Category::ObjectAllocation, &mut e);
                        }
                        self.release_slot(r);
                    }
                }
                HeapMode::Gen(_) => {
                    // No refcount traffic under the generational heap; only
                    // virtual temporaries are reclaimed eagerly.
                    if now_zero && is_virtual {
                        self.release_slot(r);
                    }
                }
            }
        }
        self.decref_work = worklist;
    }

    fn release_slot(&mut self, r: ObjRef) {
        let o = &mut self.slab[r.index()];
        o.kind = ObjKind::None;
        o.buffer = None;
        self.free_slots.push(r.0);
    }

    // ---- garbage collection ----------------------------------------------------

    /// Runs a minor collection now (normally triggered by allocation).
    pub fn minor_gc(&mut self) {
        let Vm { heap, sink, phase, slab, frames, scratch, globals, builtins, interned_strs, .. } =
            self;
        let HeapImpl::Gen(h) = heap else { return };
        let roots = VmRoots {
            slab,
            frames,
            scratch,
            globals: *globals,
            builtins: *builtins,
            interned: interned_strs,
        };
        let mut e = Emitter::new(sink, *phase, GC_CODE_BASE);
        let dead = h.minor_collect(&roots, &mut e);
        for id in dead {
            self.release_slot(ObjRef(id.0));
        }
    }

    /// Runs a major collection now.
    pub fn major_gc(&mut self) {
        let Vm { heap, sink, phase, slab, frames, scratch, globals, builtins, interned_strs, .. } =
            self;
        let HeapImpl::Gen(h) = heap else { return };
        let roots = VmRoots {
            slab,
            frames,
            scratch,
            globals: *globals,
            builtins: *builtins,
            interned: interned_strs,
        };
        let mut e = Emitter::new(sink, *phase, GC_CODE_BASE);
        let dead = h.major_collect(&roots, &mut e);
        for id in dead {
            self.release_slot(ObjRef(id.0));
        }
    }

    /// Emits the generational write barrier for `parent.field = child`.
    pub(crate) fn write_barrier(&mut self, parent: ObjRef, child: ObjRef) {
        if let HeapImpl::Gen(_) = self.heap {
            let Vm { heap, sink, phase, .. } = self;
            let HeapImpl::Gen(h) = heap else { unreachable!() };
            let mut e = Emitter::new(sink, *phase, GC_CODE_BASE);
            h.write_barrier(parent.obj_id(), child.obj_id(), &mut e);
        }
    }

    // ---- constants and interning -------------------------------------------------

    /// Returns the guest object for integer `v` (interned when small).
    pub(crate) fn make_int(&mut self, v: i64) -> ObjRef {
        if (SMALL_INT_MIN..=SMALL_INT_MAX).contains(&v) {
            let r = self.small_ints[(v - SMALL_INT_MIN) as usize];
            self.incref(r);
            return r;
        }
        self.alloc_obj(ObjKind::Int(v))
    }

    /// Returns the guest object for `v`.
    pub(crate) fn make_float(&mut self, v: f64) -> ObjRef {
        self.alloc_obj(ObjKind::Float(v))
    }

    /// Returns an interned immortal string object (names, const strings).
    pub(crate) fn intern_str(&mut self, s: &str) -> ObjRef {
        if let Some(&r) = self.interned_strs.get(s) {
            return r;
        }
        let rc: Rc<str> = Rc::from(s);
        let r = self.alloc_immortal(ObjKind::Str(Rc::clone(&rc)));
        self.interned_strs.insert(rc, r);
        r
    }

    /// Registers a code object: realizes its constants as immortal guest
    /// objects and assigns simulated addresses for `co_code`/`co_consts`.
    /// Returns its metadata (the already registered one on a repeat call).
    pub(crate) fn register_code(&mut self, code: &Rc<CodeObject>) -> Rc<CodeMeta> {
        let key = code_key(code);
        if let Some(meta) = self.code_meta.get(&key) {
            return Rc::clone(meta);
        }
        let code_addr = self.next_code_addr;
        self.next_code_addr += (code.code.len() as u64) * 4 + 64;
        let consts_addr = self.next_code_addr;
        self.next_code_addr += (code.consts.len() as u64) * 8 + 64;
        let consts: Vec<ObjRef> = code
            .consts
            .iter()
            .map(|c| match c {
                Const::None => self.none_ref,
                Const::Bool(b) => self.bool_ref(*b),
                Const::Int(v) if (SMALL_INT_MIN..=SMALL_INT_MAX).contains(v) => {
                    self.small_ints[(v - SMALL_INT_MIN) as usize]
                }
                Const::Int(v) => self.alloc_immortal(ObjKind::Int(*v)),
                Const::Float(v) => self.alloc_immortal(ObjKind::Float(*v)),
                Const::Str(s) => self.intern_str(s),
                Const::Code(inner) => {
                    self.register_code(inner);
                    self.alloc_immortal(ObjKind::Code(Rc::clone(inner)))
                }
            })
            .collect();
        let name: std::sync::Arc<str> = std::sync::Arc::from(code.name.as_str());
        let names = code.names.iter().map(|n| Rc::from(n.as_str())).collect();
        let name_base = self.name_objs.len();
        self.name_objs.resize(name_base + code.names.len(), None);
        let meta = Rc::new(CodeMeta { consts, code_addr, consts_addr, name, names, name_base });
        self.code_meta.insert(key, Rc::clone(&meta));
        meta
    }

    /// The interned string object for `meta`'s name `idx`: the same object
    /// [`Vm::intern_str`] returns, found without hashing after first use.
    pub(crate) fn name_obj(&mut self, meta: &CodeMeta, idx: usize) -> ObjRef {
        let slot = meta.name_base + idx;
        if let Some(r) = self.name_objs[slot] {
            return r;
        }
        let r = self.intern_str(&meta.names[idx]);
        self.name_objs[slot] = Some(r);
        r
    }

    /// Builds a [`Key`] from a guest object, if it is hashable.
    pub(crate) fn key_of(&self, r: ObjRef) -> Result<Key, String> {
        match &self.slab[r.index()].kind {
            ObjKind::Int(v) => Ok(Key::Int(*v)),
            ObjKind::Bool(b) => Ok(Key::Int(*b as i64)),
            ObjKind::None => Ok(Key::None),
            ObjKind::Str(s) => Ok(Key::Str(Rc::clone(s))),
            ObjKind::Tuple(items) => {
                let keys: Result<Vec<Key>, String> =
                    items.iter().map(|i| self.key_of(*i)).collect();
                Ok(Key::Tuple(keys?))
            }
            other => Err(format!("unhashable type: '{}'", other.type_name())),
        }
    }
}

/// GC root view over the VM's state.
struct VmRoots<'a> {
    slab: &'a [Obj],
    frames: &'a [Frame],
    scratch: &'a [ObjRef],
    globals: ObjRef,
    builtins: ObjRef,
    interned: &'a HashMap<Rc<str>, ObjRef>,
}

impl Tracer for VmRoots<'_> {
    fn roots(&self, visit: &mut dyn FnMut(ObjId)) {
        visit(self.globals.obj_id());
        visit(self.builtins.obj_id());
        for &r in self.scratch {
            visit(r.obj_id());
        }
        for f in self.frames {
            for r in f.locals.iter().flatten() {
                visit(r.obj_id());
            }
            for r in &f.stack {
                visit(r.obj_id());
            }
            if let Some(ns) = f.class_ns {
                visit(ns.obj_id());
            }
            if let Some(c) = f.callee {
                visit(c.obj_id());
            }
            if let Some(fo) = f.frame_obj {
                visit(fo.obj_id());
            }
            if let Some(i) = f.init_instance {
                visit(i.obj_id());
            }
        }
        for &r in self.interned.values() {
            visit(r.obj_id());
        }
    }

    fn refs(&self, id: ObjId, visit: &mut dyn FnMut(ObjId)) {
        if let Some(o) = self.slab.get(id.0 as usize) {
            crate::trace_refs::for_each_child(o, |c| visit(c.obj_id()));
        }
    }
}
