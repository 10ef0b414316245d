//! The bytecode interpreter.
//!
//! Each opcode handler performs the guest semantics *and* emits the
//! micro-ops a CPython-style C interpreter would execute for it, tagged
//! with the Table II categories: dispatch (computed-goto style — the
//! indirect jump to the next handler is emitted from the current handler's
//! code, so the BTB sees per-handler target streams), value-stack traffic
//! with `RegTransfer` address math, type checks, (un)boxing, error checks,
//! refcount maintenance, dict-probe name resolution, function
//! setup/cleanup, and the modeled C-calling-convention helper chains that
//! the paper identifies as the single largest overhead.
//!
//! Under [`CostMode::Trace`] the very same handlers emit the residual cost
//! of JIT-compiled code instead: type *guards*, unboxed arithmetic, no
//! dispatch, no stack traffic, virtualized frames — while C calls into the
//! native library remain (Fig. 5).

use crate::object::{ClassObj, FuncObj, IterState, ObjKind, ObjRef};
use crate::vm::{code_key, Block, CodeMeta, CostMode, Frame, StepEvent, Vm, VmError};
use qoa_frontend::{
    ccj_cmp, ccj_const, ccj_if_true, ccj_target, pair_hi, pair_lo, Cmp, CodeObject, Instr, Opcode,
};
use qoa_model::{mem, Category, FrameEvent, OpKind, OpSink, Pc};
use std::rc::Rc;

/// Byte span reserved per opcode handler in the interpreter code region.
const HANDLER_SPAN: u64 = 0x400;
/// Frame header bytes before the locals array.
const FRAME_HEADER: u64 = 96;

impl<S: OpSink> Vm<S> {
    /// Loads a module code object and pushes its frame. Call
    /// [`Vm::step`] or [`Vm::run`] afterwards.
    ///
    /// Code loaded this way is treated as *unverified*: every dispatch
    /// emits the defensive guard micro-ops (pc/operand-index bounds
    /// re-checks, tagged [`Category::ErrorCheck`]) a CPython-style
    /// interpreter performs on untrusted bytecode. Use
    /// [`Vm::load_verified`] to elide them.
    pub fn load_program(&mut self, code: &Rc<CodeObject>) {
        let meta = self.register_code(code);
        let name = std::sync::Arc::clone(&meta.name);
        let frame = self.new_frame(Rc::clone(code), meta, None, None);
        self.frames.push(frame);
        self.sink.frame_event(&FrameEvent::Push { name });
    }

    /// Loads a statically verified module and elides the per-dispatch
    /// guard checks: the [`qoa_analysis::Verified`] token proves stack
    /// depths, jump targets, and operand indices are in bounds, which is
    /// exactly what the guards re-check dynamically.
    ///
    /// The token is the only way to turn elision on, so the guarded and
    /// elided paths stay separately testable ([`Vm::check_elision`]
    /// reports which one is active).
    pub fn load_verified(&mut self, code: &qoa_analysis::Verified<Rc<CodeObject>>) {
        self.elide_checks = true;
        self.load_program(code.get());
    }

    /// Runs until the program completes.
    ///
    /// # Errors
    ///
    /// Returns the first guest run-time error (or fuel exhaustion).
    pub fn run(&mut self) -> Result<(), VmError> {
        loop {
            match self.step()? {
                StepEvent::Done => return Ok(()),
                _ => continue,
            }
        }
    }

    /// Location key of the next bytecode to execute: (code identity, pc).
    pub fn location(&self) -> Option<(usize, usize)> {
        self.frames.last().map(|f| (code_key(&f.code), f.pc))
    }

    /// Depth of the call stack.
    pub fn frame_depth(&self) -> usize {
        self.frames.len()
    }

    pub(crate) fn new_frame(
        &mut self,
        code: Rc<CodeObject>,
        meta: Rc<CodeMeta>,
        callee: Option<ObjRef>,
        class_ns: Option<ObjRef>,
    ) -> Frame {
        let nlocals = code.varnames.len();
        let (mut locals, mut stack, blocks) = self.frame_bufs.pop().unwrap_or_default();
        locals.resize(nlocals, None);
        // The compiler's declared stack bound sizes the frame exactly;
        // hand-built code may declare 0, so keep a small floor.
        stack.reserve(code.max_stack.max(4));
        // Frame objects are heap-allocated per call in the interpreter
        // (Table II: object allocation); JIT traces virtualize them away.
        let frame_obj = if self.cost == CostMode::Interp {
            let bytes = FRAME_HEADER + 8 * (nlocals as u64 + 24);
            Some(self.alloc_obj(ObjKind::Buffer { bytes }))
        } else {
            None
        };
        Frame {
            code,
            meta,
            pc: 0,
            locals,
            stack,
            blocks,
            frame_obj,
            class_ns,
            callee,
            init_instance: None,
        }
    }

    pub(crate) fn frame_addr(&self) -> u64 {
        match self.frames.last().and_then(|f| f.frame_obj) {
            Some(fo) => self.obj_addr(fo),
            None => mem::C_STACK_TOP - 4096,
        }
    }

    fn err(&self, message: impl Into<String>) -> VmError {
        let line = self
            .frames
            .last()
            .and_then(|f| f.code.code.get(f.pc.saturating_sub(1)))
            .map(|i| i.line)
            .unwrap_or(0);
        VmError::runtime(message, line)
    }

    // ---- frame access -----------------------------------------------------

    /// The active frame, or a guest error if execution has no frame. A
    /// missing frame can only come from malformed bytecode (hand-built
    /// [`CodeObject`]s), so it is reported, not panicked on.
    pub(crate) fn frame(&self) -> Result<&Frame, VmError> {
        self.frames.last().ok_or_else(|| VmError::runtime("no active frame", 0))
    }

    /// Mutable access to the active frame (see [`Vm::frame`]).
    pub(crate) fn frame_mut(&mut self) -> Result<&mut Frame, VmError> {
        self.frames.last_mut().ok_or_else(|| VmError::runtime("no active frame", 0))
    }

    // ---- value stack ------------------------------------------------------

    /// Pops a value (ownership moves to the caller).
    ///
    /// # Errors
    ///
    /// A guest error on value-stack underflow (malformed bytecode) rather
    /// than a panic, so one bad workload cannot abort a whole sweep.
    pub(crate) fn pop_s(&mut self, site: u32) -> Result<ObjRef, VmError> {
        let f = self.frame_mut()?;
        let v = f
            .stack
            .pop()
            .ok_or_else(|| VmError::runtime("value stack underflow", 0))?;
        let sp = f.stack.len();
        let nlocals = f.code.varnames.len() as u64;
        if self.cost == CostMode::Interp {
            let addr = self.frame_addr() + FRAME_HEADER + (nlocals + sp as u64) * 8;
            self.ealu(site, Category::RegTransfer, 1);
            self.eload(site + 1, Category::Stack, addr);
            self.ealu(site + 2, Category::Stack, 1);
        }
        Ok(v)
    }

    /// Pushes a value (takes ownership).
    pub(crate) fn push_s(&mut self, site: u32, v: ObjRef) -> Result<(), VmError> {
        let f = self.frame_mut()?;
        let sp = f.stack.len();
        f.stack.push(v);
        let nlocals = f.code.varnames.len() as u64;
        if self.cost == CostMode::Interp {
            let addr = self.frame_addr() + FRAME_HEADER + (nlocals + sp as u64) * 8;
            self.ealu(site, Category::RegTransfer, 1);
            self.estore(site + 1, Category::Stack, addr);
            self.ealu(site + 2, Category::Stack, 1);
        }
        Ok(())
    }

    fn peek_s(&self) -> Result<ObjRef, VmError> {
        self.frame()?
            .stack
            .last()
            .copied()
            .ok_or_else(|| VmError::runtime("value stack underflow", 0))
    }

    /// Reads local slot `idx` for a fused superinstruction: same
    /// micro-ops and same `UnboundLocalError` as a standalone `LoadFast`,
    /// and increfs the value for the caller.
    fn read_fast(&mut self, site: u32, idx: u32) -> Result<ObjRef, VmError> {
        let f = self.frame()?;
        let Some(v) = f.locals.get(idx as usize).copied().flatten() else {
            let name = f
                .code
                .varnames
                .get(idx as usize)
                .cloned()
                .unwrap_or_else(|| format!("<local {idx}>"));
            return Err(self.err(format!(
                "UnboundLocalError: local variable '{name}' referenced before assignment"
            )));
        };
        if self.cost == CostMode::Interp {
            let addr = self.frame_addr() + FRAME_HEADER + (idx as u64) * 8;
            self.ealu(site, Category::RegTransfer, 1);
            // The variable read itself is the program's own work.
            self.eload(site + 1, Category::Execute, addr);
        }
        self.incref(v);
        Ok(v)
    }

    // ---- type checks and unboxing ----------------------------------------------

    /// Emits a type-tag check (interp) or a type guard (trace).
    fn emit_typecheck(&mut self, site: u32, obj: ObjRef) {
        let addr = self.obj_addr(obj);
        self.eload(site, Category::TypeCheck, addr);
        self.ebranch(site + 1, Category::TypeCheck, false);
    }

    /// Emits the read of a numeric payload (unboxing).
    fn emit_unbox(&mut self, site: u32, obj: ObjRef) {
        if self.cost == CostMode::Trace && self.obj(obj).virtual_unboxed {
            return; // already in a register
        }
        let addr = self.obj_addr(obj);
        self.eload(site, Category::BoxUnbox, addr + 8);
    }

    pub(crate) fn as_int(&self, r: ObjRef) -> Option<i64> {
        match self.kind(r) {
            ObjKind::Int(v) => Some(*v),
            ObjKind::Bool(b) => Some(*b as i64),
            _ => None,
        }
    }

    pub(crate) fn as_float(&self, r: ObjRef) -> Option<f64> {
        match self.kind(r) {
            ObjKind::Float(v) => Some(*v),
            ObjKind::Int(v) => Some(*v as f64),
            ObjKind::Bool(b) => Some(*b as i64 as f64),
            _ => None,
        }
    }

    // ---- the interpreter loop -----------------------------------------------

    /// Executes one bytecode instruction.
    ///
    /// # Errors
    ///
    /// Returns a [`VmError`] on guest errors or fuel exhaustion.
    pub fn step(&mut self) -> Result<StepEvent, VmError> {
        let Some(frame) = self.frames.last() else {
            return Ok(StepEvent::Done);
        };
        if let Some(fault) = self.pending_fault.take() {
            return Err(fault);
        }
        if self.cfg.max_steps != 0 && self.steps >= self.cfg.max_steps {
            return Err(VmError::FuelExhausted { steps: self.steps });
        }
        if self.steps.is_multiple_of(crate::vm::DEADLINE_CHECK_INTERVAL) {
            if let Some(deadline) = self.cfg.deadline {
                if std::time::Instant::now() >= deadline {
                    return Err(VmError::DeadlineExceeded { steps: self.steps });
                }
            }
        }
        // Chaos step boundary: the fault clock ticks on executed bytecodes
        // (never wall time), and step-class injections surface through the
        // same variants their organic counterparts use.
        if let Some(chaos) = self.chaos.as_mut() {
            chaos.on_step();
            if chaos.poll(qoa_chaos::FaultKind::FuelTrip).is_some() {
                return Err(VmError::FuelExhausted { steps: self.steps });
            }
            if chaos.poll(qoa_chaos::FaultKind::DeadlineTrip).is_some() {
                return Err(VmError::DeadlineExceeded { steps: self.steps });
            }
        }
        self.steps += 1;
        self.stats.bytecodes += 1;

        let code = Rc::clone(&frame.code);
        let meta = Rc::clone(&frame.meta);
        let pc = frame.pc;
        let Some(&instr) = code.code.get(pc) else {
            return Err(self.err(format!("pc {pc} out of bounds (malformed bytecode)")));
        };
        let instr: Instr = instr;
        self.stats.opcodes[instr.op.index()] += 1;
        self.frame_mut()?.pc = pc + 1;

        // Announce guest source-line transitions before any of this
        // instruction's micro-ops, so a sampling replay attributes the
        // dispatch prologue to the line it dispatches for. Delta-encoded
        // and emitted in every cost mode: JIT trace execution drives the
        // same fetch, so compiled tiers carry lines too. Frame events
        // cost zero micro-ops and zero simulated cycles.
        if instr.line != self.cur_line {
            self.cur_line = instr.line;
            self.sink.frame_event(&FrameEvent::Line { line: instr.line });
        }

        // Dispatch: read co_code, decode, computed-goto to the handler.
        // Emitted from the *previous* handler's region (computed gotos),
        // so the BTB observes per-handler next-opcode streams.
        let next_handler = mem::INTERP_CODE_BASE + (instr.op.index() as u64) * HANDLER_SPAN;
        if self.cost == CostMode::Interp {
            let consts_addr = meta.consts_addr;
            let code_addr = meta.code_addr + (pc as u64) * 4;
            self.eload(240, Category::Dispatch, code_addr);
            self.ealu(241, Category::Dispatch, 2);
            if !self.elide_checks {
                // Defensive re-validation of the decoded instruction on
                // the hot path: pc bound, operand-index range, stack
                // limit. Statically verified code proves these hold, so
                // [`Vm::load_verified`] elides them.
                self.ealu(244, Category::ErrorCheck, 1);
                self.ebranch(245, Category::ErrorCheck, false);
            }
            self.emit(
                243,
                OpKind::Branch { taken: true, target: Pc(next_handler), indirect: true },
                Category::Dispatch,
            );
            self.handler_base = next_handler;
            // Residual handler machinery. The paper's Pin annotation marks
            // specific overhead instructions inside each handler; whatever
            // is left over lands in its `execute` residual (35.1% of
            // cycles on average). This models that unannotated remainder:
            // general register shuffling and C-body code that serves the
            // program's semantics rather than a named overhead.
            self.ealu(248, Category::Execute, 4);
            self.eload(252, Category::Execute, code_addr);
            self.eload(253, Category::Execute, consts_addr);
        }

        self.exec_instr(&code, &meta, instr)
    }

    fn exec_instr(
        &mut self,
        code: &Rc<CodeObject>,
        meta: &CodeMeta,
        instr: Instr,
    ) -> Result<StepEvent, VmError> {
        let arg = instr.arg;
        match instr.op {
            Opcode::Nop => {}
            Opcode::LoadConst => {
                let v = meta.consts[arg as usize];
                let consts_addr = meta.consts_addr + (arg as u64) * 8;
                if self.cost == CostMode::Interp {
                    self.ealu(0, Category::RegTransfer, 1);
                    self.eload(1, Category::ConstLoad, consts_addr);
                }
                self.incref(v);
                self.push_s(4, v)?;
            }
            Opcode::PopTop => {
                let v = self.pop_s(0)?;
                self.decref(v);
            }
            Opcode::DupTop => {
                let v = self.peek_s()?;
                self.incref(v);
                self.push_s(0, v)?;
            }
            Opcode::DupTopTwo => {
                let f = self.frame()?;
                let n = f.stack.len();
                let a = f.stack[n - 2];
                let b = f.stack[n - 1];
                self.incref(a);
                self.incref(b);
                self.push_s(0, a)?;
                self.push_s(3, b)?;
            }
            Opcode::RotTwo => {
                let f = self.frame_mut()?;
                let n = f.stack.len();
                f.stack.swap(n - 1, n - 2);
                if self.cost == CostMode::Interp {
                    self.ealu(0, Category::Stack, 2);
                }
            }
            Opcode::RotThree => {
                let f = self.frame_mut()?;
                let n = f.stack.len();
                let top = f.stack.remove(n - 1);
                f.stack.insert(n - 3, top);
                if self.cost == CostMode::Interp {
                    self.ealu(0, Category::Stack, 3);
                }
            }
            Opcode::LoadFast => {
                let f = self.frame()?;
                let Some(v) = f.locals[arg as usize] else {
                    let name = f.code.varnames[arg as usize].clone();
                    return Err(self.err(format!(
                        "UnboundLocalError: local variable '{name}' referenced before assignment"
                    )));
                };
                if self.cost == CostMode::Interp {
                    let addr = self.frame_addr() + FRAME_HEADER + (arg as u64) * 8;
                    self.ealu(0, Category::RegTransfer, 1);
                    // The variable read itself is the program's own work.
                    self.eload(1, Category::Execute, addr);
                }
                self.incref(v);
                self.push_s(4, v)?;
            }
            Opcode::StoreFast => {
                let v = self.pop_s(0)?;
                if self.cost == CostMode::Interp {
                    let addr = self.frame_addr() + FRAME_HEADER + (arg as u64) * 8;
                    self.ealu(3, Category::RegTransfer, 1);
                    // The variable write itself is the program's own work.
                    self.estore(4, Category::Execute, addr);
                }
                let f = self.frame_mut()?;
                let old = f.locals[arg as usize].replace(v);
                if let Some(old) = old {
                    self.decref(old);
                }
            }
            Opcode::LoadGlobal => {
                let v = self.load_global(&meta.names[arg as usize])?;
                self.incref(v);
                self.push_s(8, v)?;
            }
            Opcode::StoreGlobal => {
                let v = self.pop_s(0)?;
                let name_obj = self.name_obj(meta, arg as usize);
                let globals = self.globals;
                let key = meta.name_key(arg as usize);
                self.dict_insert(globals, key, name_obj, v, Category::NameResolution)?;
            }
            Opcode::LoadName => {
                // Class-body namespace load, falling back to globals.
                let key = meta.name_key(arg as usize);
                let ns = self.frames.last().and_then(|f| f.class_ns);
                let mut found = None;
                if let Some(ns) = ns {
                    found = self.dict_lookup(ns, &key, Category::NameResolution);
                }
                let v = match found {
                    Some(v) => v,
                    None => self.load_global(&meta.names[arg as usize])?,
                };
                self.incref(v);
                self.push_s(8, v)?;
            }
            Opcode::StoreName => {
                let v = self.pop_s(0)?;
                let name_obj = self.name_obj(meta, arg as usize);
                let ns = self
                    .frames
                    .last()
                    .and_then(|f| f.class_ns)
                    .unwrap_or(self.globals);
                let key = meta.name_key(arg as usize);
                self.dict_insert(ns, key, name_obj, v, Category::NameResolution)?;
            }
            Opcode::BinaryAdd
            | Opcode::BinarySubtract
            | Opcode::BinaryMultiply
            | Opcode::BinaryDivide
            | Opcode::BinaryFloorDivide
            | Opcode::BinaryModulo
            | Opcode::BinaryPower
            | Opcode::BinaryAnd
            | Opcode::BinaryOr
            | Opcode::BinaryXor
            | Opcode::BinaryLshift
            | Opcode::BinaryRshift => {
                let b = self.pop_s(0)?;
                let a = self.pop_s(3)?;
                let r = self.binary_op(instr.op, a, b)?;
                self.push_s(6, r)?;
            }
            Opcode::UnaryNegative => {
                let a = self.pop_s(0)?;
                self.emit_typecheck(10, a);
                self.emit_unbox(12, a);
                let r = match self.kind(a).clone() {
                    ObjKind::Int(v) => {
                        self.ealu(13, Category::Execute, 1);
                        let neg = v.checked_neg().ok_or_else(|| self.err("OverflowError"))?;
                        self.scratch.push(a);
                        let r = self.make_int(neg);
                        self.scratch.pop();
                        r
                    }
                    ObjKind::Float(v) => {
                        self.efp(13, Category::Execute);
                        self.scratch.push(a);
                        let r = self.make_float(-v);
                        self.scratch.pop();
                        r
                    }
                    other => {
                        return Err(self.err(format!(
                            "TypeError: bad operand type for unary -: '{}'",
                            other.type_name()
                        )))
                    }
                };
                self.decref(a);
                self.push_s(20, r)?;
            }
            Opcode::UnaryInvert => {
                let a = self.pop_s(0)?;
                self.emit_typecheck(10, a);
                self.emit_unbox(12, a);
                let Some(v) = self.as_int(a) else {
                    return Err(self.err("TypeError: bad operand type for unary ~"));
                };
                self.ealu(13, Category::Execute, 1);
                self.scratch.push(a);
                let r = self.make_int(!v);
                self.scratch.pop();
                self.decref(a);
                self.push_s(20, r)?;
            }
            Opcode::UnaryNot => {
                let a = self.pop_s(0)?;
                self.emit_typecheck(10, a);
                let truthy = self.kind(a).is_truthy();
                self.ealu(12, Category::Execute, 1);
                self.decref(a);
                let r = self.bool_ref(!truthy);
                self.incref(r);
                self.push_s(14, r)?;
            }
            Opcode::CompareOp => {
                let b = self.pop_s(0)?;
                let a = self.pop_s(3)?;
                let r = self.compare_op(Cmp::from_arg(arg), a, b)?;
                self.push_s(6, r)?;
            }
            Opcode::JumpAbsolute => {
                let f = self.frame_mut()?;
                let old = f.pc;
                f.pc = arg as usize;
                if self.cost == CostMode::Interp {
                    self.ealu(0, Category::RichControlFlow, 1);
                }
                if (arg as usize) < old {
                    return Ok(StepEvent::Backedge {
                        code: code_key(code),
                        target: arg as usize,
                    });
                }
            }
            Opcode::PopJumpIfFalse | Opcode::PopJumpIfTrue => {
                let v = self.pop_s(0)?;
                self.emit_typecheck(10, v);
                let truthy = self.kind(v).is_truthy();
                self.decref(v);
                let jump = if instr.op == Opcode::PopJumpIfFalse { !truthy } else { truthy };
                // The guest-visible conditional branch is the program's own
                // control flow; the block/condition management around it is
                // the overhead.
                self.ealu(11, Category::RichControlFlow, 1);
                self.ebranch(12, Category::Execute, jump);
                if jump {
                    let f = self.frame_mut()?;
                    let old = f.pc;
                    f.pc = arg as usize;
                    if (arg as usize) < old {
                        return Ok(StepEvent::Backedge {
                            code: code_key(code),
                            target: arg as usize,
                        });
                    }
                }
            }
            Opcode::JumpIfFalseOrPop | Opcode::JumpIfTrueOrPop => {
                let v = self.peek_s()?;
                self.emit_typecheck(10, v);
                let truthy = self.kind(v).is_truthy();
                let jump = if instr.op == Opcode::JumpIfFalseOrPop { !truthy } else { truthy };
                self.ealu(11, Category::RichControlFlow, 1);
                self.ebranch(12, Category::Execute, jump);
                if jump {
                    self.frame_mut()?.pc = arg as usize;
                } else {
                    let v = self.pop_s(14)?;
                    self.decref(v);
                }
            }
            Opcode::SetupLoop => {
                let f = self.frame_mut()?;
                let depth = f.stack.len();
                f.blocks.push(Block { end: arg as usize, stack_depth: depth });
                if self.cost == CostMode::Interp {
                    // Block-stack push: the "rich control flow" cost.
                    let addr = self.frame_addr() + 32;
                    self.ealu(0, Category::RichControlFlow, 2);
                    self.estore(2, Category::RichControlFlow, addr);
                    self.estore(3, Category::RichControlFlow, addr + 8);
                }
            }
            Opcode::PopBlock => {
                let f = self.frame_mut()?;
                f.blocks
                    .pop()
                    .ok_or_else(|| VmError::runtime("block stack underflow", instr.line))?;
                if self.cost == CostMode::Interp {
                    let addr = self.frame_addr() + 32;
                    self.ealu(0, Category::RichControlFlow, 1);
                    self.eload(1, Category::RichControlFlow, addr);
                }
            }
            Opcode::BreakLoop => {
                let f = self.frame_mut()?;
                let block = f
                    .blocks
                    .pop()
                    .ok_or_else(|| VmError::runtime("break with no enclosing loop", instr.line))?;
                f.pc = block.end;
                let extra: Vec<ObjRef> = f.stack.split_off(block.stack_depth);
                if self.cost == CostMode::Interp {
                    let addr = self.frame_addr() + 32;
                    self.ealu(0, Category::RichControlFlow, 2);
                    self.eload(2, Category::RichControlFlow, addr);
                }
                for v in extra {
                    self.decref(v);
                }
            }
            Opcode::GetIter => {
                let obj = self.pop_s(0)?;
                self.emit_typecheck(10, obj);
                // CPython: PyObject_GetIter via tp_iter function pointer.
                self.c_call(12, mem::INTERP_CODE_BASE + 0x8000, true);
                let state = match self.kind(obj) {
                    ObjKind::List(_) | ObjKind::Tuple(_) => IterState::Seq { seq: obj, index: 0 },
                    ObjKind::Str(_) => IterState::Str { s: obj, index: 0 },
                    ObjKind::Range { start, stop, step } => {
                        let (start, stop, step) = (*start, *stop, *step);
                        self.decref(obj);
                        IterState::Range { next: start, stop, step }
                    }
                    ObjKind::Dict(d) => {
                        let keys: Vec<ObjRef> = d.key_objs();
                        for &k in &keys {
                            self.incref(k);
                        }
                        self.decref(obj);
                        IterState::Keys { keys: keys.into(), index: 0 }
                    }
                    ObjKind::Iter(_) => {
                        // Iterating an iterator: pass through.
                        self.c_return(18);
                        self.push_s(20, obj)?;
                        return Ok(StepEvent::Continue);
                    }
                    other => {
                        return Err(self.err(format!(
                            "TypeError: '{}' object is not iterable",
                            other.type_name()
                        )))
                    }
                };
                // Ownership of `obj` (for Seq/Str) moved into the state,
                // which no root reaches until `iter` is pushed, so root
                // `obj` while the allocation may run a minor collection.
                self.scratch.push(obj);
                let iter = self.alloc_obj(ObjKind::Iter(state));
                self.scratch.pop();
                self.c_return(18);
                self.push_s(20, iter)?;
            }
            Opcode::ForIter => {
                let iter = self.peek_s()?;
                // CPython: iternext through a function pointer.
                if self.cost == CostMode::Interp {
                    let addr = self.obj_addr(iter);
                    self.eload(0, Category::FunctionResolution, addr);
                    self.c_call(2, mem::INTERP_CODE_BASE + 0x8800, true);
                }
                let next = self.iter_next(iter)?;
                if self.cost == CostMode::Interp {
                    self.c_return(8);
                }
                match next {
                    Some(v) => {
                        // Loop continues: the exhaustion branch is not taken.
                        self.ebranch(12, Category::RichControlFlow, false);
                        self.push_s(14, v)?;
                    }
                    None => {
                        self.ebranch(12, Category::RichControlFlow, true);
                        let it = self.pop_s(14)?;
                        self.decref(it);
                        self.frame_mut()?.pc = arg as usize;
                    }
                }
            }
            Opcode::BinarySubscr => {
                let idx = self.pop_s(0)?;
                let obj = self.pop_s(3)?;
                let r = self.subscr(obj, idx)?;
                self.push_s(6, r)?;
            }
            Opcode::StoreSubscr => {
                // Stack: [value, obj, idx]
                let idx = self.pop_s(0)?;
                let obj = self.pop_s(3)?;
                let value = self.pop_s(6)?;
                self.store_subscr(obj, idx, value)?;
            }
            Opcode::DeleteSubscr => {
                let idx = self.pop_s(0)?;
                let obj = self.pop_s(3)?;
                self.del_subscr(obj, idx)?;
            }
            Opcode::BuildList | Opcode::BuildTuple => {
                let n = arg as usize;
                let start = self.scratch.len();
                for _ in 0..n {
                    let v = self.pop_s(0)?;
                    self.scratch.push(v);
                }
                self.scratch[start..].reverse();
                let r = if instr.op == Opcode::BuildList {
                    let list = self.alloc_obj(ObjKind::List(self.scratch[start..].to_vec()));
                    self.attach_list_buffer(list, n);
                    list
                } else {
                    self.alloc_obj(ObjKind::Tuple(Rc::from(&self.scratch[start..])))
                };
                // Element stores into the fresh object.
                let base = self.obj_addr(r);
                for i in 0..n {
                    self.estore(8, Category::Execute, base + 40 + (i as u64) * 8);
                }
                self.scratch.truncate(start);
                self.push_s(12, r)?;
            }
            Opcode::BuildMap => {
                let n = arg as usize;
                let start = self.scratch.len();
                for _ in 0..(2 * n) {
                    let v = self.pop_s(0)?;
                    self.scratch.push(v);
                }
                self.scratch[start..].reverse();
                let d = self.alloc_obj(ObjKind::Dict(crate::dict::DictObj::new()));
                self.attach_dict_buffer(d);
                for i in 0..n {
                    let k = self.scratch[start + 2 * i];
                    let v = self.scratch[start + 2 * i + 1];
                    let key = self.key_of(k).map_err(|m| self.err(format!("TypeError: {m}")))?;
                    self.dict_insert(d, key, k, v, Category::Execute)?;
                }
                self.scratch.truncate(start);
                self.push_s(12, d)?;
            }
            Opcode::BuildSlice => {
                let hi = self.pop_s(0)?;
                let lo = self.pop_s(3)?;
                self.scratch.push(lo);
                self.scratch.push(hi);
                let r = self.alloc_obj(ObjKind::Slice { lo, hi });
                self.scratch.truncate(self.scratch.len() - 2);
                self.push_s(8, r)?;
            }
            Opcode::UnpackSequence => {
                let n = arg as usize;
                let seq = self.pop_s(0)?;
                self.emit_typecheck(10, seq);
                let len = match self.kind(seq) {
                    ObjKind::Tuple(_) | ObjKind::List(_) => self.seq_items(seq).len(),
                    other => {
                        return Err(self.err(format!(
                            "TypeError: cannot unpack '{}'",
                            other.type_name()
                        )))
                    }
                };
                self.ealu(12, Category::ErrorCheck, 1);
                self.ebranch(13, Category::ErrorCheck, len != n);
                if len != n {
                    return Err(self.err(format!(
                        "ValueError: expected {n} values to unpack, got {len}"
                    )));
                }
                let base = self.obj_addr(seq);
                // Pushing runs no guest code, so the items are read in place.
                for i in (0..n).rev() {
                    let v = self.seq_items(seq)[i];
                    self.eload(14, Category::Execute, base + 40 + (i as u64) * 8);
                    self.incref(v);
                    self.push_s(16, v)?;
                }
                self.decref(seq);
            }
            Opcode::LoadAttr => {
                let obj = self.pop_s(0)?;
                let r = self.load_attr(obj, &meta.names[arg as usize])?;
                self.push_s(8, r)?;
            }
            Opcode::StoreAttr => {
                // Stack: [value, obj]
                let obj = self.pop_s(0)?;
                let value = self.pop_s(3)?;
                self.store_attr(obj, meta, arg as usize, value)?;
            }
            Opcode::MakeFunction => {
                let code_obj = self.pop_s(0)?;
                let ObjKind::Code(func_code) = self.kind(code_obj) else {
                    return Err(self.err("MAKE_FUNCTION without code object"));
                };
                let func_code = Rc::clone(func_code);
                let n = arg as usize;
                let start = self.scratch.len();
                for _ in 0..n {
                    let d = self.pop_s(2)?;
                    self.scratch.push(d);
                }
                self.scratch[start..].reverse();
                let defaults: Vec<ObjRef> = self.scratch[start..].to_vec();
                self.register_code(&func_code);
                let f = self.alloc_obj(ObjKind::Func(FuncObj { code: func_code, defaults }));
                self.scratch.truncate(start);
                // Function-object init stores.
                let base = self.obj_addr(f);
                self.estore(8, Category::FunctionSetup, base + 16);
                self.estore(9, Category::FunctionSetup, base + 24);
                self.decref(code_obj);
                self.push_s(12, f)?;
            }
            Opcode::BuildClass => {
                let ns = self.pop_s(0)?;
                let base_obj = self.pop_s(3)?;
                let name = Rc::clone(&meta.names[arg as usize]);
                let base = match self.kind(base_obj) {
                    ObjKind::None => None,
                    ObjKind::Class(_) => Some(base_obj),
                    other => {
                        return Err(self.err(format!(
                            "TypeError: base must be a class, not '{}'",
                            other.type_name()
                        )))
                    }
                };
                self.scratch.push(ns);
                self.scratch.push(base_obj);
                let cls = self.alloc_obj(ObjKind::Class(ClassObj { name, dict: ns, base }));
                self.scratch.truncate(self.scratch.len() - 2);
                if base.is_none() {
                    self.decref(base_obj); // the popped None
                }
                self.push_s(8, cls)?;
            }
            Opcode::CallFunction => {
                return self.call_function(arg as usize);
            }
            Opcode::ReturnValue => {
                return self.return_value();
            }
            // Fused superinstructions (emitted only by the qoa-analysis
            // optimizer): one dispatch prologue covers a whole unfused
            // run, and intermediate values skip the value-stack round
            // trip. Guest-observable behavior — values, error messages,
            // error ordering — is bit-for-bit that of the unfused run.
            Opcode::LoadFastLoadFast => {
                let a = self.read_fast(0, pair_lo(arg))?;
                self.push_s(4, a)?;
                let b = match self.read_fast(6, pair_hi(arg)) {
                    Ok(b) => b,
                    Err(e) => {
                        // The unfused error path leaves `a` on the stack
                        // for frame teardown; here it never landed there.
                        self.decref(a);
                        return Err(e);
                    }
                };
                self.push_s(10, b)?;
            }
            Opcode::LoadFastLoadConst => {
                let a = self.read_fast(0, pair_lo(arg))?;
                self.push_s(4, a)?;
                let k = pair_hi(arg);
                let v = meta.consts[k as usize];
                let consts_addr = meta.consts_addr + (k as u64) * 8;
                if self.cost == CostMode::Interp {
                    self.ealu(6, Category::RegTransfer, 1);
                    self.eload(7, Category::ConstLoad, consts_addr);
                }
                self.incref(v);
                self.push_s(10, v)?;
            }
            Opcode::AddFastFast => {
                let a = self.read_fast(0, pair_lo(arg))?;
                let b = match self.read_fast(6, pair_hi(arg)) {
                    Ok(b) => b,
                    Err(e) => {
                        self.decref(a);
                        return Err(e);
                    }
                };
                // `binary_op` consumes both references, exactly as the
                // unfused BinaryAdd would after its two pops.
                let r = self.binary_op(Opcode::BinaryAdd, a, b)?;
                self.push_s(12, r)?;
            }
            Opcode::ConstCompareJump => {
                // LHS was pushed by earlier code; the constant RHS flows
                // straight from the pool and the bool result is consumed
                // without touching the stack.
                let a = self.pop_s(0)?;
                let kidx = ccj_const(arg);
                let k = meta.consts[kidx as usize];
                let consts_addr = meta.consts_addr + (kidx as u64) * 8;
                if self.cost == CostMode::Interp {
                    self.ealu(3, Category::RegTransfer, 1);
                    self.eload(4, Category::ConstLoad, consts_addr);
                }
                self.incref(k);
                let r = self.compare_op(Cmp::from_arg(ccj_cmp(arg)), a, k)?;
                let truthy = self.kind(r).is_truthy();
                self.decref(r);
                let jump = if ccj_if_true(arg) { truthy } else { !truthy };
                self.ealu(11, Category::RichControlFlow, 1);
                self.ebranch(12, Category::Execute, jump);
                if jump {
                    let target = ccj_target(arg) as usize;
                    let f = self.frame_mut()?;
                    let old = f.pc;
                    f.pc = target;
                    if target < old {
                        return Ok(StepEvent::Backedge { code: code_key(code), target });
                    }
                }
            }
        }
        Ok(StepEvent::Continue)
    }
}
