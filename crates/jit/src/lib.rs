//! PyPy-model tracing JIT driving the `qoa-vm` interpreter.
//!
//! Implements the just-in-time pipeline of the paper's Fig. 2:
//! **counters** on loop back-edges → **profiling/recording** of one loop
//! iteration (the bytecode location sequence, with implicit type and
//! branch guards) → **compilation** (the trace is assigned a region of the
//! simulated JIT code space and an optimizer-pass cost is charged under
//! [`qoa_model::Phase::JitCompile`]) → **compiled execution** (the same
//! semantics run under the [`qoa_vm::CostMode::Trace`] cost model:
//! no dispatch, no stack traffic, guards instead of full checks, unboxed
//! virtual temporaries, virtualized frames — but real C calls into the
//! native library, reproducing the paper's Fig. 5) → **guard failure**
//! handling: hot side-exits get their own compiled **bridge** traces
//! (as in PyPy — the paper's Fig. 2 notes "some additional steps can be
//! added to the JIT process to better handle guard failures"), cold ones
//! **deoptimize** back to the interpreter, and hopeless loops are
//! blacklisted.
//!
//! The `PyPy w/o JIT` configuration of the paper is this driver with the
//! JIT disabled: the interpreter cost model over the generational heap.
//!
//! # Example
//!
//! ```
//! use qoa_model::CountingSink;
//! use qoa_jit::{JitConfig, PyPyVm};
//!
//! let src = "total = 0\nfor i in range(2000):\n    total = total + i\n";
//! let code = qoa_frontend::compile(src).expect("compiles");
//! let mut vm = PyPyVm::new(JitConfig::default(), CountingSink::new());
//! vm.load_program(&code);
//! vm.run().expect("runs");
//! assert_eq!(vm.vm.global_int("total"), Some(1999000));
//! assert!(vm.jit_stats().trace_executions > 0);
//! ```

use qoa_frontend::CodeObject;
use qoa_heap::GcConfig;
use qoa_model::{mem, OpSink};
use qoa_vm::idhash::{IdMap, IdSet};
use qoa_vm::{CostMode, HeapMode, StepEvent, Vm, VmConfig, VmError};
use std::rc::Rc;

/// Tracing-JIT configuration.
#[derive(Debug, Clone, Copy)]
pub struct JitConfig {
    /// Whether the JIT is enabled at all (`false` = "PyPy w/o JIT").
    pub enabled: bool,
    /// Back-edge count that makes a loop hot (PyPy's default is 1039; the
    /// scaled-down workloads here use a smaller threshold).
    pub hot_threshold: u32,
    /// Guard failures at one side-exit before a bridge is compiled for it.
    pub bridge_threshold: u32,
    /// Maximum compiled fragments (main trace + bridges) per loop before
    /// the loop is considered trace-hostile and blacklisted.
    pub max_fragments: usize,
    /// Maximum recorded trace length (bytecodes) before aborting.
    pub trace_limit: usize,
    /// Simulated machine-code bytes per trace bytecode.
    pub code_bytes_per_step: u64,
    /// Nursery size for the generational heap.
    pub nursery_size: u64,
    /// Execution fuel (0 = unlimited).
    pub max_steps: u64,
    /// Wall-clock deadline (`None` = unlimited); polled cooperatively.
    pub deadline: Option<std::time::Instant>,
    /// Simulated live-heap cap in bytes (0 = unlimited).
    pub max_heap_bytes: u64,
}

impl Default for JitConfig {
    fn default() -> Self {
        JitConfig {
            enabled: true,
            hot_threshold: 64,
            bridge_threshold: 8,
            max_fragments: 48,
            trace_limit: 4096,
            code_bytes_per_step: 32,
            nursery_size: 4 << 20,
            max_steps: 0,
            deadline: None,
            max_heap_bytes: 0,
        }
    }
}

impl JitConfig {
    /// The paper's "PyPy w/o JIT" configuration.
    pub fn interpreter_only() -> Self {
        JitConfig { enabled: false, ..JitConfig::default() }
    }

    /// Returns a copy with the given nursery size (the §V-B sweep knob).
    pub fn with_nursery(mut self, bytes: u64) -> Self {
        self.nursery_size = bytes;
        self
    }

    /// V8-flavoured preset: a more eager (method-JIT-like) compilation
    /// threshold, larger generated code per step, and a smaller default
    /// nursery — the knobs that distinguish the V8 runs in Fig. 6/9/16.
    pub fn v8() -> Self {
        JitConfig {
            enabled: true,
            hot_threshold: 16,
            bridge_threshold: 4,
            max_fragments: 64,
            trace_limit: 8192,
            code_bytes_per_step: 48,
            nursery_size: 2 << 20,
            max_steps: 0,
            deadline: None,
            max_heap_bytes: 0,
        }
    }
}

/// JIT pipeline statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JitStats {
    /// Main loop traces compiled.
    pub traces_compiled: u64,
    /// Bridge traces compiled for hot side-exits.
    pub bridges_compiled: u64,
    /// Completed trace-loop iterations (main-trace wraps).
    pub trace_executions: u64,
    /// Guard failures (execution diverged from the running fragment).
    pub guard_failures: u64,
    /// Guard failures that continued in a compiled bridge.
    pub bridge_transfers: u64,
    /// Deoptimizations back to the interpreter.
    pub deopts: u64,
    /// Loops blacklisted as trace-hostile.
    pub blacklisted: u64,
    /// Recordings aborted (too long or program end).
    pub aborted_recordings: u64,
    /// Bytecodes executed under the trace cost model.
    pub jit_bytecodes: u64,
    /// Bytecodes executed under the interpreter cost model.
    pub interp_bytecodes: u64,
}

/// A bytecode location: (code identity, bytecode index).
type Loc = (usize, usize);

#[derive(Debug, Clone)]
struct Fragment {
    steps: Vec<Loc>,
    code_base: u64,
    /// (step index, diverged-to location) → bridge fragment index.
    bridges: IdMap<(usize, Loc), usize>,
    /// Guard-failure counts per (step index, diverged-to location).
    fail_counts: IdMap<(usize, Loc), u32>,
}

#[derive(Debug, Clone)]
struct LoopTraces {
    /// The loop header this loop's traces start at.
    header: Loc,
    fragments: Vec<Fragment>,
    blacklisted: bool,
    /// Side exits that failed to record a bridge; never retried.
    hopeless_exits: IdSet<(usize, usize, Loc)>,
}

impl LoopTraces {
    fn new(header: Loc, fragments: Vec<Fragment>, blacklisted: bool) -> Self {
        LoopTraces { header, fragments, blacklisted, hopeless_exits: IdSet::default() }
    }
}

#[derive(Debug, Clone)]
enum DriverState {
    Interp,
    Recording {
        header: Loc,
        /// `Some((fragment, idx, loc))` when recording a bridge for that
        /// side exit of the loop's fragment.
        parent: Option<(usize, usize, Loc)>,
        steps: Vec<Loc>,
    },
    Executing {
        /// Index of the loop in [`PyPyVm::loops`].
        lp: usize,
        frag: usize,
        idx: usize,
    },
}

/// The PyPy-model run-time: interpreter + generational GC + tracing JIT
/// with bridge compilation.
///
/// Like [`Vm`], the whole run-time is `Clone` (when the sink is): the
/// driver state machine, trace book-keeping, and the underlying machine
/// snapshot and restore together for chaos checkpoint/restore.
#[derive(Clone)]
pub struct PyPyVm<S: OpSink> {
    /// The underlying VM (public for inspection of globals, stats, output).
    pub vm: Vm<S>,
    cfg: JitConfig,
    counters: IdMap<Loc, u32>,
    /// Index in `loops` of each loop header's traces. The executing state
    /// carries the index, so a traced bytecode probes no table.
    loop_ids: IdMap<Loc, usize>,
    loops: Vec<LoopTraces>,
    state: DriverState,
    stats: JitStats,
    jit_code_bump: u64,
}

impl<S: OpSink> PyPyVm<S> {
    /// Creates the run-time with the given JIT configuration.
    pub fn new(cfg: JitConfig, sink: S) -> Self {
        let vm_cfg = VmConfig {
            heap: HeapMode::Gen(GcConfig::with_nursery(cfg.nursery_size)),
            max_steps: cfg.max_steps,
            deadline: cfg.deadline,
            max_heap_bytes: cfg.max_heap_bytes,
        };
        PyPyVm {
            vm: Vm::new(vm_cfg, sink),
            cfg,
            counters: IdMap::default(),
            loop_ids: IdMap::default(),
            loops: Vec::new(),
            state: DriverState::Interp,
            stats: JitStats::default(),
            jit_code_bump: mem::JIT_CODE_BASE,
        }
    }

    /// Loads a program (see [`Vm::load_program`]).
    pub fn load_program(&mut self, code: &Rc<CodeObject>) {
        self.vm.load_program(code);
    }

    /// Loads a statically verified program with dispatch guard checks
    /// elided (see [`Vm::load_verified`]).
    pub fn load_verified(&mut self, code: &qoa_analysis::Verified<Rc<CodeObject>>) {
        self.vm.load_verified(code);
    }

    /// JIT pipeline statistics.
    pub fn jit_stats(&self) -> JitStats {
        self.stats
    }

    /// Total bytes of simulated JIT code emitted.
    pub fn jit_code_bytes(&self) -> u64 {
        self.jit_code_bump - mem::JIT_CODE_BASE
    }

    /// Runs the program to completion.
    ///
    /// # Errors
    ///
    /// Propagates guest run-time errors.
    pub fn run(&mut self) -> Result<(), VmError> {
        loop {
            if self.step_driver()? {
                return Ok(());
            }
        }
    }

    /// Advances execution by one bytecode under the driver's state
    /// machine. Returns `true` when the program is done.
    ///
    /// Always inlined, like the three `drive_*` steps it dispatches to:
    /// it has two callers, [`PyPyVm::run`] and the chaos runner's step
    /// loop, and with two callers the compiler would otherwise leave a
    /// call per bytecode in the run loop.
    ///
    /// # Errors
    ///
    /// Propagates guest run-time errors.
    #[inline(always)]
    pub fn step_driver(&mut self) -> Result<bool, VmError> {
        match std::mem::replace(&mut self.state, DriverState::Interp) {
            DriverState::Interp => self.drive_interp(),
            DriverState::Recording { header, parent, steps } => {
                self.drive_recording(header, parent, steps)
            }
            DriverState::Executing { lp, frag, idx } => self.drive_executing(lp, frag, idx),
        }
    }

    #[inline(always)]
    fn drive_interp(&mut self) -> Result<bool, VmError> {
        // Entering a compiled loop?
        if self.cfg.enabled {
            if let Some(&lp) = self.vm.location().and_then(|loc| self.loop_ids.get(&loc)) {
                let lt = &self.loops[lp];
                if !lt.blacklisted && !lt.fragments.is_empty() {
                    let base = lt.fragments[0].code_base;
                    self.vm.set_cost_mode(CostMode::Trace);
                    self.vm.set_trace_pc(base);
                    self.state = DriverState::Executing { lp, frag: 0, idx: 0 };
                    return Ok(false);
                }
            }
        }
        self.stats.interp_bytecodes += 1;
        match self.vm.step()? {
            StepEvent::Done => return Ok(true),
            StepEvent::Backedge { code, target } if self.cfg.enabled => {
                let key = (code, target);
                let hot = {
                    let c = self.counters.entry(key).or_insert(0);
                    *c += 1;
                    *c
                };
                if hot >= self.cfg.hot_threshold && !self.loop_ids.contains_key(&key) {
                    self.state =
                        DriverState::Recording { header: key, parent: None, steps: Vec::new() };
                    return Ok(false);
                }
            }
            _ => {}
        }
        self.state = DriverState::Interp;
        Ok(false)
    }

    #[inline(always)]
    fn drive_recording(
        &mut self,
        header: Loc,
        parent: Option<(usize, usize, Loc)>,
        mut steps: Vec<Loc>,
    ) -> Result<bool, VmError> {
        let Some(loc) = self.vm.location() else {
            self.stats.aborted_recordings += 1;
            return Ok(true);
        };
        if loc == header && !steps.is_empty() {
            // Injected transient compile failure: the backend refuses this
            // recording. The loop is *not* blacklisted — its counter stays
            // hot, so a later attempt retries the compile, which is the
            // graceful-degradation path (interpreter keeps running either
            // way). In surface mode the fault propagates so the harness
            // can restore a checkpoint instead.
            if let Some(rec) = self.vm.chaos_poll(qoa_chaos::FaultKind::JitCompileFault) {
                self.stats.aborted_recordings += 1;
                self.state = DriverState::Interp;
                if self.vm.chaos_degrade_jit() {
                    self.vm.chaos_note_recovery();
                    return Ok(false);
                }
                return Err(VmError::Injected { what: rec.kind.name(), steps: self.vm.steps() });
            }
            // The path closed back to the loop header: compile it.
            self.finish_fragment(header, parent, steps);
            self.state = DriverState::Interp;
            return Ok(false);
        }
        if steps.len() >= self.cfg.trace_limit {
            self.stats.aborted_recordings += 1;
            match parent {
                None => {
                    // The main trace cannot be recorded: blacklist the loop.
                    self.add_loop(LoopTraces::new(header, Vec::new(), true));
                    self.stats.blacklisted += 1;
                }
                Some(exit) => {
                    if let Some(&lp) = self.loop_ids.get(&header) {
                        self.loops[lp].hopeless_exits.insert(exit);
                    }
                }
            }
            self.state = DriverState::Interp;
            return Ok(false);
        }
        steps.push(loc);
        self.stats.interp_bytecodes += 1;
        match self.vm.step()? {
            StepEvent::Done => {
                self.stats.aborted_recordings += 1;
                Ok(true)
            }
            _ => {
                self.state = DriverState::Recording { header, parent, steps };
                Ok(false)
            }
        }
    }

    #[inline(always)]
    fn drive_executing(&mut self, lp: usize, frag: usize, idx: usize) -> Result<bool, VmError> {
        let Some(loc) = self.vm.location() else { return Ok(true) };
        // Injected mid-trace abort: the compiled code hits a synthetic
        // failure and must deoptimize. The deopt leaves the interpreter
        // state fully materialized, so in degrade mode the run simply
        // continues interpreting (a phase change the sink records); in
        // surface mode the harness restores a checkpoint.
        if let Some(rec) = self.vm.chaos_poll(qoa_chaos::FaultKind::TraceAbort) {
            self.vm.emit_deopt();
            self.vm.set_cost_mode(CostMode::Interp);
            self.stats.deopts += 1;
            self.state = DriverState::Interp;
            if self.vm.chaos_degrade_jit() {
                self.vm.chaos_note_recovery();
                return Ok(false);
            }
            return Err(VmError::Injected { what: rec.kind.name(), steps: self.vm.steps() });
        }
        if loc != self.loops[lp].fragments[frag].steps[idx] {
            return self.handle_guard_failure(lp, frag, idx, loc);
        }
        self.stats.jit_bytecodes += 1;
        if let StepEvent::Done = self.vm.step()? {
            self.vm.set_cost_mode(CostMode::Interp);
            return Ok(true);
        }
        let lt = &self.loops[lp];
        let fragment = &lt.fragments[frag];
        if idx + 1 >= fragment.steps.len() {
            // Fragment complete: both the main trace and bridges jump back
            // to the top of the main loop code.
            if frag == 0 {
                self.stats.trace_executions += 1;
            }
            let base = lt.fragments[0].code_base;
            self.vm.set_trace_pc(base);
            self.state = DriverState::Executing { lp, frag: 0, idx: 0 };
        } else {
            self.state = DriverState::Executing { lp, frag, idx: idx + 1 };
        }
        Ok(false)
    }

    fn handle_guard_failure(
        &mut self,
        lp: usize,
        frag: usize,
        idx: usize,
        loc: Loc,
    ) -> Result<bool, VmError> {
        self.stats.guard_failures += 1;
        let bridge_threshold = self.cfg.bridge_threshold;
        let max_fragments = self.cfg.max_fragments;
        let lt = &mut self.loops[lp];

        // A compiled bridge for this exact side exit?
        if let Some(&bridge) = lt.fragments[frag].bridges.get(&(idx, loc)) {
            self.stats.bridge_transfers += 1;
            let base = lt.fragments[bridge].code_base;
            self.vm.set_trace_pc(base);
            self.state = DriverState::Executing { lp, frag: bridge, idx: 0 };
            return Ok(false);
        }

        // Count the failure; decide whether to record a bridge.
        let fails = {
            let c = lt.fragments[frag].fail_counts.entry((idx, loc)).or_insert(0);
            *c += 1;
            *c
        };
        let hopeless = lt.hopeless_exits.contains(&(frag, idx, loc));
        let room = lt.fragments.len() < max_fragments;
        if fails >= bridge_threshold && !hopeless && room {
            // Deoptimize this time, record the bridge as we go.
            self.vm.emit_deopt();
            self.vm.set_cost_mode(CostMode::Interp);
            self.stats.deopts += 1;
            self.state = DriverState::Recording {
                header: lt.header,
                parent: Some((frag, idx, loc)),
                steps: Vec::new(),
            };
            return Ok(false);
        }
        if fails >= bridge_threshold && !room {
            // Trace-hostile loop: too many distinct paths.
            lt.blacklisted = true;
            self.stats.blacklisted += 1;
        }
        // Cold exit: plain deoptimization.
        self.vm.emit_deopt();
        self.vm.set_cost_mode(CostMode::Interp);
        self.stats.deopts += 1;
        self.state = DriverState::Interp;
        Ok(false)
    }

    fn finish_fragment(&mut self, header: Loc, parent: Option<(usize, usize, Loc)>, steps: Vec<Loc>) {
        let code_len = (steps.len() as u64) * self.cfg.code_bytes_per_step;
        let code_base = self.jit_code_bump;
        self.jit_code_bump += code_len.div_ceil(64) * 64;
        self.vm.emit_jit_compile(steps.len(), code_base, code_len);
        let fragment = Fragment {
            steps,
            code_base,
            bridges: IdMap::default(),
            fail_counts: IdMap::default(),
        };
        match parent {
            None => {
                self.add_loop(LoopTraces::new(header, vec![fragment], false));
                self.stats.traces_compiled += 1;
            }
            Some((pfrag, idx, loc)) => {
                let Some(&lp) = self.loop_ids.get(&header) else { return };
                let lt = &mut self.loops[lp];
                if lt.blacklisted {
                    return;
                }
                lt.fragments.push(fragment);
                let bridge_id = lt.fragments.len() - 1;
                lt.fragments[pfrag].bridges.insert((idx, loc), bridge_id);
                self.stats.bridges_compiled += 1;
            }
        }
    }

    /// Records `lt` as the traces of its loop header, which has none yet
    /// (recording starts only at a header without traces).
    fn add_loop(&mut self, lt: LoopTraces) {
        self.loop_ids.insert(lt.header, self.loops.len());
        self.loops.push(lt);
    }
}

/// Compiles and runs a program under the PyPy-model run-time.
///
/// # Errors
///
/// Returns the compile error or the guest run-time error.
pub fn run_source<S: OpSink>(
    source: &str,
    cfg: JitConfig,
    sink: S,
) -> Result<PyPyVm<S>, VmError> {
    let code = qoa_frontend::compile(source)?;
    let mut vm = PyPyVm::new(cfg, sink);
    vm.load_program(&code);
    vm.run()?;
    Ok(vm)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qoa_model::{Category, CountingSink, Phase};

    fn run_jit(src: &str) -> PyPyVm<CountingSink> {
        run_source(src, JitConfig::default(), CountingSink::new())
            .unwrap_or_else(|e| panic!("jit run failed: {e}\n{src}"))
    }

    fn run_nojit(src: &str) -> PyPyVm<CountingSink> {
        run_source(src, JitConfig::interpreter_only(), CountingSink::new())
            .unwrap_or_else(|e| panic!("no-jit run failed: {e}\n{src}"))
    }

    const HOT_LOOP: &str = "total = 0\nfor i in range(5000):\n    total = total + i * 2\n";

    #[test]
    fn hot_loop_gets_compiled_and_executed() {
        let mut vm = run_jit(HOT_LOOP);
        assert_eq!(
            vm.vm.global_int("total"),
            Some((0..5000i64).map(|i| i * 2).sum())
        );
        let s = vm.jit_stats();
        assert_eq!(s.traces_compiled, 1, "{s:?}");
        assert!(s.trace_executions > 4000, "{s:?}");
        assert!(vm.jit_code_bytes() > 0);
    }

    #[test]
    fn jit_disabled_compiles_nothing() {
        let mut vm = run_nojit(HOT_LOOP);
        assert_eq!(
            vm.vm.global_int("total"),
            Some((0..5000i64).map(|i| i * 2).sum())
        );
        let s = vm.jit_stats();
        assert_eq!(s.traces_compiled, 0);
        assert_eq!(s.trace_executions, 0);
        assert_eq!(s.jit_bytecodes, 0);
    }

    #[test]
    fn jit_reduces_instruction_count() {
        let vm_jit = run_jit(HOT_LOOP);
        let vm_int = run_nojit(HOT_LOOP);
        let (sink_jit, _) = vm_jit.vm.finish();
        let (sink_int, _) = vm_int.vm.finish();
        assert!(
            (sink_jit.total() as f64) < sink_int.total() as f64 * 0.6,
            "jit {} vs interp {}",
            sink_jit.total(),
            sink_int.total()
        );
    }

    #[test]
    fn jit_phases_are_annotated() {
        let vm = run_jit(HOT_LOOP);
        let (sink, _) = vm.vm.finish();
        assert!(sink.by_phase[Phase::JitCompile] > 0, "compile phase missing");
        assert!(sink.by_phase[Phase::JitCode] > 0, "jit-code phase missing");
        assert!(sink.by_phase[Phase::Interpreter] > 0, "warmup phase missing");
    }

    #[test]
    fn trace_mode_elides_dispatch_and_stack() {
        // Dispatch/stack ops only come from the interpreter cost model, so
        // their share must drop sharply with the JIT on.
        let vm_jit = run_jit(HOT_LOOP);
        let vm_int = run_nojit(HOT_LOOP);
        let (sj, _) = vm_jit.vm.finish();
        let (si, _) = vm_int.vm.finish();
        let share =
            |s: &CountingSink, c: Category| s.by_category[c] as f64 / s.total() as f64;
        assert!(share(&sj, Category::Dispatch) < share(&si, Category::Dispatch) * 0.5);
        assert!(share(&sj, Category::Stack) < share(&si, Category::Stack) * 0.5);
    }

    #[test]
    fn semantics_match_interpreter_across_programs() {
        let programs: &[(&str, &str, i64)] = &[
            (
                "def fib(n):\n    a = 0\n    b = 1\n    i = 0\n    while i < n:\n        a, b = b, a + b\n        i += 1\n    return a\nx = fib(60)\n",
                "x",
                1548008755920,
            ),
            (
                "xs = []\nfor i in range(1000):\n    xs.append(i * i)\nx = sum(xs)\n",
                "x",
                (0..1000i64).map(|i| i * i).sum(),
            ),
            (
                "d = {}\nfor i in range(500):\n    d[i] = i * 3\nx = 0\nfor k in d:\n    x = x + d[k]\n",
                "x",
                (0..500i64).map(|i| i * 3).sum(),
            ),
            (
                "class Acc:\n    def __init__(self):\n        self.v = 0\n    def add(self, k):\n        self.v += k\na = Acc()\nfor i in range(800):\n    a.add(i)\nx = a.v\n",
                "x",
                (0..800i64).sum(),
            ),
        ];
        for (src, var, expect) in programs {
            let mut vm = run_jit(src);
            assert_eq!(vm.vm.global_int(var), Some(*expect), "jit: {src}");
            let mut vm = run_nojit(src);
            assert_eq!(vm.vm.global_int(var), Some(*expect), "nojit: {src}");
        }
    }

    #[test]
    fn branchy_loops_get_bridges_and_stay_compiled() {
        // The body alternates paths every iteration: the main trace's
        // guard fails immediately, a bridge gets compiled, and afterwards
        // both paths run as compiled code.
        let src = "
total = 0
for i in range(4000):
    if i % 2 == 0:
        total = total + 1
    else:
        total = total + 2
";
        let mut vm = run_jit(src);
        assert_eq!(vm.vm.global_int("total"), Some(4000 / 2 * 3));
        let s = vm.jit_stats();
        assert!(s.bridges_compiled >= 1, "{s:?}");
        assert!(s.bridge_transfers > 1000, "{s:?}");
        // Most execution should be compiled, not interpreted.
        assert!(s.jit_bytecodes > s.interp_bytecodes, "{s:?}");
    }

    #[test]
    fn rare_guard_failures_deoptimize_correctly() {
        let src = "
total = 0
for i in range(3000):
    if i % 13 == 0:
        total = total + 100
    else:
        total = total + 1
";
        let mut vm = run_jit(src);
        let expect: i64 = (0..3000i64).map(|i| if i % 13 == 0 { 100 } else { 1 }).sum();
        assert_eq!(vm.vm.global_int("total"), Some(expect));
        let s = vm.jit_stats();
        assert!(s.guard_failures > 0, "{s:?}");
        assert!(s.trace_executions > 0, "{s:?}");
    }

    #[test]
    fn path_explosion_blacklists_the_loop() {
        // More distinct hot paths than max_fragments: the loop must give
        // up and fall back to the interpreter without losing correctness.
        let cfg = JitConfig { max_fragments: 3, bridge_threshold: 2, ..JitConfig::default() };
        let src = "
rand_seed(9)
total = 0
for i in range(4000):
    k = randint(0, 9)
    if k == 0:
        total = total + 1
    elif k == 1:
        total = total + 2
    elif k == 2:
        total = total + 3
    elif k == 3:
        total = total + 4
    elif k == 4:
        total = total + 5
    elif k == 5:
        total = total + 6
    elif k == 6:
        total = total + 7
    elif k == 7:
        total = total + 8
    elif k == 8:
        total = total + 9
    else:
        total = total + 10
";
        let mut vm = run_source(src, cfg, CountingSink::new()).expect("runs");
        let s = vm.jit_stats();
        assert!(s.blacklisted > 0, "{s:?}");
        let total = vm.vm.global_int("total").expect("total");
        assert!(total > 4000, "computed {total}");
    }

    #[test]
    fn inlined_calls_are_traced_through() {
        let src = "
def double(x):
    return x * 2
total = 0
for i in range(2000):
    total = total + double(i)
";
        let mut vm = run_jit(src);
        assert_eq!(
            vm.vm.global_int("total"),
            Some((0..2000i64).map(|i| i * 2).sum())
        );
        let s = vm.jit_stats();
        assert_eq!(s.traces_compiled, 1, "{s:?}");
        assert!(s.trace_executions > 1500, "{s:?}");
    }

    #[test]
    fn c_calls_survive_in_traces() {
        // Calls into the native library cannot be traced away (Fig. 5).
        let src = "
total = 0
for i in range(2000):
    total = total + len('abcdef')
";
        let vm = run_jit(src);
        let s = vm.jit_stats();
        assert!(s.trace_executions > 1000, "{s:?}");
        let (sink, _) = vm.vm.finish();
        assert!(sink.by_category[Category::CFunctionCall] > 2000 * 8);
    }

    #[test]
    fn nursery_size_is_configurable() {
        let small = JitConfig::default().with_nursery(512 << 10);
        let vm = run_source(
            "xs = []\nfor i in range(20000):\n    xs.append([i])\n",
            small,
            CountingSink::new(),
        )
        .expect("runs");
        let mut inner = vm.vm;
        let stats = inner.stats();
        assert!(stats.gc.minor_collections > 0, "{:?}", stats.gc);
    }

    #[test]
    fn v8_preset_compiles_more_eagerly() {
        let src = "t = 0\nfor i in range(200):\n    t = t + i\n";
        let eager = run_source(src, JitConfig::v8(), CountingSink::new()).expect("runs");
        let lazy = run_source(src, JitConfig::default(), CountingSink::new()).expect("runs");
        assert!(eager.jit_stats().jit_bytecodes >= lazy.jit_stats().jit_bytecodes);
    }
}
