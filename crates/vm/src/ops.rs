//! Semantic helpers for the interpreter: arithmetic, comparisons,
//! subscripts, attribute access, dict machinery, iterators, calls and
//! returns. Each helper pairs the guest semantics with the CPython-model
//! cost emission (and its JIT-trace counterpart).

use crate::dict::Key;
use crate::object::{IterState, ObjKind, ObjRef};
use crate::vm::{CodeMeta, CostMode, Frame, StepEvent, Vm, VmError};
use qoa_frontend::{Cmp, CodeKind, Opcode};
use qoa_model::{mem, Category, FrameEvent, OpSink};
use std::rc::Rc;

/// Header bytes before a list/tuple's inline element storage.
const SEQ_HEADER: u64 = 40;
/// Bytes per dict slot (hash, key, value).
const DICT_SLOT: u64 = 24;

impl<S: OpSink> Vm<S> {
    #[inline]
    fn interp(&self) -> bool {
        self.cost == CostMode::Interp
    }

    /// C call emitted only under the interpreter cost model (PyPy's traces
    /// compile these helpers away; calls into the native library use
    /// [`Vm::c_call`] directly and survive in traces).
    pub(crate) fn icall(&mut self, site: u32, target_off: u64, indirect: bool) {
        if self.interp() {
            self.c_call(site, mem::INTERP_CODE_BASE + target_off, indirect);
        }
    }

    /// Matching return for [`Vm::icall`].
    pub(crate) fn iret(&mut self, site: u32) {
        if self.interp() {
            self.c_return(site);
        }
    }

    /// A *residual* helper call that even JIT-compiled code performs:
    /// PyPy's machine code still calls RPython helpers for dict lookups,
    /// attribute misses, string building and the like. Emitted in both
    /// cost modes (this is why Fig. 5 shows C-call overhead surviving the
    /// JIT at 7.5%).
    pub(crate) fn rcall(&mut self, site: u32, target_off: u64, indirect: bool) {
        self.c_call(site, mem::INTERP_CODE_BASE + target_off, indirect);
    }

    /// Matching return for [`Vm::rcall`].
    pub(crate) fn rret(&mut self, site: u32) {
        self.c_return(site);
    }

    pub(crate) fn type_error(&self, op: &str, a: ObjRef, b: ObjRef) -> VmError {
        self.err_here(format!(
            "TypeError: unsupported operand type(s) for {op}: '{}' and '{}'",
            self.kind(a).type_name(),
            self.kind(b).type_name()
        ))
    }

    pub(crate) fn err_here(&self, message: impl Into<String>) -> VmError {
        let line = self
            .frames
            .last()
            .and_then(|f| f.code.code.get(f.pc.saturating_sub(1)))
            .map(|i| i.line)
            .unwrap_or(0);
        VmError::runtime(message, line)
    }

    // ---- binary operations ---------------------------------------------------

    /// Executes a binary bytecode on owned operands; returns an owned result.
    pub(crate) fn binary_op(
        &mut self,
        op: Opcode,
        a: ObjRef,
        b: ObjRef,
    ) -> Result<ObjRef, VmError> {
        // Type checks on both operands (guards under the JIT).
        self.emit_typecheck2(16, a);
        self.emit_typecheck2(18, b);

        // int ⊗ int takes the ceval inline fast path; any other numeric mix
        // goes through the modeled PyNumber call chain.
        if self.as_int(a).is_some() && self.as_int(b).is_some() {
            let r = self.int_binary(op, a, b)?;
            self.decref(a);
            self.decref(b);
            return Ok(r);
        }
        if self.as_float(a).is_some() && self.as_float(b).is_some() {
            let r = self.float_binary(op, a, b)?;
            self.decref(a);
            self.decref(b);
            return Ok(r);
        }

        let r = match (op, self.kind(a), self.kind(b)) {
            // -------- str + str -------------------------------------------------
            (Opcode::BinaryAdd, ObjKind::Str(x), ObjKind::Str(y)) => {
                let (x, y) = (Rc::clone(x), Rc::clone(y));
                self.rcall(20, 0x9000, false);
                let out: Rc<str> = Rc::from(format!("{x}{y}"));
                let bytes = out.len() as u64;
                self.scratch.push(a);
                self.scratch.push(b);
                let r = self.alloc_obj(ObjKind::Str(out));
                self.scratch.truncate(self.scratch.len() - 2);
                // Copy both halves into the new string.
                let (aa, ba, ra) = (self.obj_addr(a), self.obj_addr(b), self.obj_addr(r));
                self.copy_span(24, aa + 48, ra + 48, x.len() as u64);
                self.copy_span(26, ba + 48, ra + 48 + x.len() as u64, y.len() as u64);
                let _ = bytes;
                self.rret(28);
                r
            }
            // -------- str * int / int * str ------------------------------------
            (Opcode::BinaryMultiply, ObjKind::Str(x), ObjKind::Int(n))
            | (Opcode::BinaryMultiply, ObjKind::Int(n), ObjKind::Str(x)) => {
                let (x, n) = (Rc::clone(x), (*n).max(0) as usize);
                self.rcall(20, 0x9040, false);
                let out: Rc<str> = Rc::from(x.repeat(n));
                self.scratch.push(a);
                self.scratch.push(b);
                let r = self.alloc_obj(ObjKind::Str(Rc::clone(&out)));
                self.scratch.truncate(self.scratch.len() - 2);
                let ra = self.obj_addr(r);
                self.copy_span(24, ra + 48, ra + 48, out.len() as u64);
                self.rret(28);
                r
            }
            // -------- str % value: simple formatting ---------------------------
            (Opcode::BinaryModulo, ObjKind::Str(fmt), _) => {
                let fmt = Rc::clone(fmt);
                self.rcall(20, 0x9080, false);
                let formatted = self.format_str(&fmt, b)?;
                self.scratch.push(a);
                self.scratch.push(b);
                let r = self.alloc_obj(ObjKind::Str(Rc::from(formatted.as_str())));
                self.scratch.truncate(self.scratch.len() - 2);
                let ra = self.obj_addr(r);
                self.copy_span(24, ra + 48, ra + 48, formatted.len() as u64);
                self.rret(28);
                r
            }
            // -------- list + list ------------------------------------------------
            (Opcode::BinaryAdd, ObjKind::List(x), ObjKind::List(y)) => {
                let (xn, yn) = (x.len() as u64, y.len() as u64);
                let mut items = Vec::with_capacity(x.len() + y.len());
                items.extend_from_slice(x);
                items.extend_from_slice(y);
                self.rcall(20, 0x90C0, false);
                for &i in &items {
                    self.incref(i);
                }
                let n = items.len();
                self.scratch.push(a);
                self.scratch.push(b);
                let r = self.alloc_obj(ObjKind::List(items));
                self.attach_list_buffer(r, n);
                self.scratch.truncate(self.scratch.len() - 2);
                let (aa, ba) = (self.buffer_addr(a), self.buffer_addr(b));
                let ra = self.buffer_addr(r);
                self.copy_span(24, aa, ra, xn * 8);
                self.copy_span(26, ba, ra + xn * 8, yn * 8);
                self.rret(28);
                r
            }
            // -------- list * int -------------------------------------------------
            (Opcode::BinaryMultiply, ObjKind::List(x), ObjKind::Int(n))
            | (Opcode::BinaryMultiply, ObjKind::Int(n), ObjKind::List(x)) => {
                let n = (*n).max(0) as usize;
                let mut items = Vec::with_capacity(x.len() * n);
                for _ in 0..n {
                    items.extend_from_slice(x);
                }
                self.rcall(20, 0x9100, false);
                for &i in &items {
                    self.incref(i);
                }
                let len = items.len();
                self.scratch.push(a);
                self.scratch.push(b);
                let r = self.alloc_obj(ObjKind::List(items));
                self.attach_list_buffer(r, len);
                self.scratch.truncate(self.scratch.len() - 2);
                let ra = self.buffer_addr(r);
                self.copy_span(24, ra, ra, (len as u64) * 8);
                self.rret(28);
                r
            }
            // -------- tuple + tuple ----------------------------------------------
            (Opcode::BinaryAdd, ObjKind::Tuple(x), ObjKind::Tuple(y)) => {
                let mut items = Vec::with_capacity(x.len() + y.len());
                items.extend_from_slice(x);
                items.extend_from_slice(y);
                self.rcall(20, 0x9140, false);
                for &i in &items {
                    self.incref(i);
                }
                self.scratch.push(a);
                self.scratch.push(b);
                let r = self.alloc_obj(ObjKind::Tuple(items.into()));
                self.scratch.truncate(self.scratch.len() - 2);
                self.rret(28);
                r
            }
            _ => return Err(self.type_error(op_symbol(op), a, b)),
        };
        self.decref(a);
        self.decref(b);
        Ok(r)
    }

    fn int_binary(&mut self, op: Opcode, a: ObjRef, b: ObjRef) -> Result<ObjRef, VmError> {
        let x = self.as_int(a).ok_or_else(|| self.err_here("TypeError: int operand expected"))?;
        let y = self.as_int(b).ok_or_else(|| self.err_here("TypeError: int operand expected"))?;
        self.emit_unbox2(30, a);
        self.emit_unbox2(31, b);
        let v: i64 = match op {
            Opcode::BinaryAdd => {
                self.ealu2(32, Category::Execute, 4);
                self.overflow_check(33, x.checked_add(y))?
            }
            Opcode::BinarySubtract => {
                self.ealu2(32, Category::Execute, 4);
                self.overflow_check(33, x.checked_sub(y))?
            }
            Opcode::BinaryMultiply => {
                self.emit(32, qoa_model::OpKind::Mul, Category::Execute);
                self.overflow_check(33, x.checked_mul(y))?
            }
            Opcode::BinaryDivide | Opcode::BinaryFloorDivide => {
                self.zero_check(33, y)?;
                self.emit(34, qoa_model::OpKind::Div, Category::Execute);
                x.div_euclid(y)
            }
            Opcode::BinaryModulo => {
                self.zero_check(33, y)?;
                self.emit(34, qoa_model::OpKind::Div, Category::Execute);
                x.rem_euclid(y)
            }
            Opcode::BinaryPower => {
                if y < 0 {
                    return Err(self.err_here("ValueError: negative exponent"));
                }
                let mut acc: i64 = 1;
                let mut base = x;
                let mut e = y;
                while e > 0 {
                    self.emit(35, qoa_model::OpKind::Mul, Category::Execute);
                    if e & 1 == 1 {
                        acc = acc
                            .checked_mul(base)
                            .ok_or_else(|| self.err_here("OverflowError: pow"))?;
                    }
                    e >>= 1;
                    if e > 0 {
                        base = base
                            .checked_mul(base)
                            .ok_or_else(|| self.err_here("OverflowError: pow"))?;
                    }
                }
                acc
            }
            Opcode::BinaryAnd => {
                self.ealu2(32, Category::Execute, 1);
                x & y
            }
            Opcode::BinaryOr => {
                self.ealu2(32, Category::Execute, 1);
                x | y
            }
            Opcode::BinaryXor => {
                self.ealu2(32, Category::Execute, 1);
                x ^ y
            }
            Opcode::BinaryLshift => {
                self.ealu2(32, Category::Execute, 1);
                let shift = u32::try_from(y)
                    .map_err(|_| self.err_here("ValueError: negative shift count"))?;
                self.overflow_check(33, x.checked_shl(shift))?
            }
            Opcode::BinaryRshift => {
                self.ealu2(32, Category::Execute, 1);
                let shift = y.clamp(0, 63) as u32;
                if y < 0 {
                    return Err(self.err_here("ValueError: negative shift count"));
                }
                x >> shift
            }
            other => return Err(self.err_here(format!("internal error: not an int binary op: {other:?}"))),
        };
        // Boxing the result: PyInt_FromLong.
        self.icall(40, 0x9200, false);
        self.scratch.push(a);
        self.scratch.push(b);
        let r = self.make_int(v);
        self.scratch.truncate(self.scratch.len() - 2);
        self.emit_box(44, r);
        self.iret(46);
        Ok(r)
    }

    fn float_binary(&mut self, op: Opcode, a: ObjRef, b: ObjRef) -> Result<ObjRef, VmError> {
        let x = self.as_float(a).ok_or_else(|| self.err_here("TypeError: numeric operand expected"))?;
        let y = self.as_float(b).ok_or_else(|| self.err_here("TypeError: numeric operand expected"))?;
        // Slow path: PyNumber_Add -> binary_op1 -> nb_add (indirect).
        self.icall(50, 0x9300, false);
        self.icall(56, 0x9340, true);
        self.emit_unbox2(62, a);
        self.emit_unbox2(63, b);
        // Sign/NaN/width handling in the C body is the program's work too.
        self.ealu2(63, Category::Execute, 3);
        let v = match op {
            Opcode::BinaryAdd => {
                self.efp2(64);
                x + y
            }
            Opcode::BinarySubtract => {
                self.efp2(64);
                x - y
            }
            Opcode::BinaryMultiply => {
                self.efp2(64);
                x * y
            }
            Opcode::BinaryDivide => {
                self.zero_check_f(65, y)?;
                self.efp2(64);
                x / y
            }
            Opcode::BinaryFloorDivide => {
                self.zero_check_f(65, y)?;
                self.efp2(64);
                (x / y).floor()
            }
            Opcode::BinaryModulo => {
                self.zero_check_f(65, y)?;
                self.efp2(64);
                x.rem_euclid(y)
            }
            Opcode::BinaryPower => {
                self.efp2(64);
                self.efp2(66);
                x.powf(y)
            }
            _ => return Err(self.type_error(op_symbol(op), a, b)),
        };
        // Result is an int if both operands were ints under `//` and `%`?
        // Python 2.7: int `op` float yields float; int//int handled in the
        // fast path, so everything here is a float.
        self.scratch.push(a);
        self.scratch.push(b);
        let r = self.make_float(v);
        self.scratch.truncate(self.scratch.len() - 2);
        self.emit_box(68, r);
        self.iret(70);
        self.iret(74);
        Ok(r)
    }

    fn overflow_check(&mut self, site: u32, v: Option<i64>) -> Result<i64, VmError> {
        self.ealu2(site, Category::ErrorCheck, 1);
        self.ebranch2(site + 1, Category::ErrorCheck, v.is_none());
        v.ok_or_else(|| self.err_here("OverflowError: integer overflow"))
    }

    fn zero_check(&mut self, site: u32, y: i64) -> Result<(), VmError> {
        self.ealu2(site, Category::ErrorCheck, 1);
        self.ebranch2(site + 1, Category::ErrorCheck, y == 0);
        if y == 0 {
            Err(self.err_here("ZeroDivisionError: integer division or modulo by zero"))
        } else {
            Ok(())
        }
    }

    fn zero_check_f(&mut self, site: u32, y: f64) -> Result<(), VmError> {
        self.ealu2(site, Category::ErrorCheck, 1);
        self.ebranch2(site + 1, Category::ErrorCheck, y == 0.0);
        if y == 0.0 {
            Err(self.err_here("ZeroDivisionError: float division by zero"))
        } else {
            Ok(())
        }
    }

    /// `%`-formatting: supports `%d`, `%s`, `%f` with tuple or scalar args.
    fn format_str(&mut self, fmt: &str, args: ObjRef) -> Result<String, VmError> {
        let arg_list: Vec<ObjRef> = match self.kind(args) {
            ObjKind::Tuple(t) => t.iter().copied().collect(),
            _ => vec![args],
        };
        let mut out = String::new();
        let mut ai = 0;
        let mut chars = fmt.chars().peekable();
        while let Some(c) = chars.next() {
            // Per-character formatting work.
            self.ealu2(80, Category::CLibrary, 1);
            if c != '%' {
                out.push(c);
                continue;
            }
            match chars.next() {
                Some('%') => out.push('%'),
                Some(spec @ ('d' | 's' | 'f')) => {
                    let Some(&arg) = arg_list.get(ai) else {
                        return Err(self.err_here("TypeError: not enough format arguments"));
                    };
                    ai += 1;
                    let rendered = match (spec, self.kind(arg)) {
                        ('f', k) => match k {
                            ObjKind::Float(v) => format!("{v:.6}"),
                            ObjKind::Int(v) => format!("{:.6}", *v as f64),
                            _ => return Err(self.err_here("TypeError: %f needs a number")),
                        },
                        (_, _) => self.display_string(arg),
                    };
                    out.push_str(&rendered);
                }
                other => {
                    return Err(
                        self.err_here(format!("ValueError: bad format character {other:?}"))
                    )
                }
            }
        }
        Ok(out)
    }

    /// Human-readable rendering (the `str()` / `print` view).
    pub(crate) fn display_string(&self, r: ObjRef) -> String {
        match self.kind(r) {
            ObjKind::None => "None".into(),
            ObjKind::Bool(true) => "True".into(),
            ObjKind::Bool(false) => "False".into(),
            ObjKind::Int(v) => v.to_string(),
            ObjKind::Float(v) => {
                if v.fract() == 0.0 && v.is_finite() && v.abs() < 1e16 {
                    format!("{v:.1}")
                } else {
                    v.to_string()
                }
            }
            ObjKind::Str(s) => s.to_string(),
            ObjKind::List(items) => {
                let inner: Vec<String> =
                    items.iter().map(|&i| self.repr_string(i)).collect();
                format!("[{}]", inner.join(", "))
            }
            ObjKind::Tuple(items) => {
                let inner: Vec<String> =
                    items.iter().map(|&i| self.repr_string(i)).collect();
                if inner.len() == 1 {
                    format!("({},)", inner[0])
                } else {
                    format!("({})", inner.join(", "))
                }
            }
            ObjKind::Dict(d) => {
                let inner: Vec<String> = d
                    .iter()
                    .map(|(k, v)| format!("{}: {}", self.repr_string(k), self.repr_string(v)))
                    .collect();
                format!("{{{}}}", inner.join(", "))
            }
            ObjKind::Range { start, stop, step } => format!("range({start}, {stop}, {step})"),
            ObjKind::Class(c) => format!("<class '{}'>", c.name),
            ObjKind::Instance { class, .. } => match self.kind(*class) {
                ObjKind::Class(c) => format!("<{} instance>", c.name),
                _ => "<instance>".into(),
            },
            ObjKind::Func(f) => format!("<function {}>", f.code.name),
            ObjKind::Native(_) => "<built-in function>".into(),
            other => format!("<{}>", other.type_name()),
        }
    }

    fn repr_string(&self, r: ObjRef) -> String {
        match self.kind(r) {
            ObjKind::Str(s) => format!("'{s}'"),
            _ => self.display_string(r),
        }
    }

    // ---- comparisons ------------------------------------------------------------

    /// Executes `COMPARE_OP` on owned operands; returns an owned bool.
    pub(crate) fn compare_op(&mut self, cmp: Cmp, a: ObjRef, b: ObjRef) -> Result<ObjRef, VmError> {
        self.emit_typecheck2(16, a);
        self.emit_typecheck2(18, b);
        let result: bool = match cmp {
            Cmp::In | Cmp::NotIn => {
                let contains = self.contains(b, a)?;
                if cmp == Cmp::In {
                    contains
                } else {
                    !contains
                }
            }
            _ => {
                let ord = self.compare_values(a, b, 20)?;
                match cmp {
                    Cmp::Eq => ord == std::cmp::Ordering::Equal,
                    Cmp::Ne => ord != std::cmp::Ordering::Equal,
                    Cmp::Lt => ord == std::cmp::Ordering::Less,
                    Cmp::Le => ord != std::cmp::Ordering::Greater,
                    Cmp::Gt => ord == std::cmp::Ordering::Greater,
                    Cmp::Ge => ord != std::cmp::Ordering::Less,
                    Cmp::In | Cmp::NotIn => {
                        return Err(self.err_here("internal error: containment compare routed to ordering path"))
                    }
                }
            }
        };
        self.decref(a);
        self.decref(b);
        let r = self.bool_ref(result);
        self.incref(r);
        Ok(r)
    }

    /// Three-way comparison with emission; `Equal` for incomparable
    /// equal-checked values is handled by the callers.
    fn compare_values(
        &mut self,
        a: ObjRef,
        b: ObjRef,
        site: u32,
    ) -> Result<std::cmp::Ordering, VmError> {
        use std::cmp::Ordering;
        match (self.kind(a), self.kind(b)) {
            (ObjKind::Int(_) | ObjKind::Bool(_), ObjKind::Int(_) | ObjKind::Bool(_)) => {
                // ceval fast path: inline compare.
                let x = self.as_int(a).ok_or_else(|| self.err_here("TypeError: int operand expected"))?;
                let y = self.as_int(b).ok_or_else(|| self.err_here("TypeError: int operand expected"))?;
                self.emit_unbox2(site, a);
                self.emit_unbox2(site + 1, b);
                self.ealu2(site + 2, Category::Execute, 3);
                Ok(x.cmp(&y))
            }
            (x, y)
                if matches!(x, ObjKind::Float(_) | ObjKind::Int(_) | ObjKind::Bool(_))
                    && matches!(y, ObjKind::Float(_) | ObjKind::Int(_) | ObjKind::Bool(_)) =>
            {
                let x = self.as_float(a).ok_or_else(|| self.err_here("TypeError: numeric operand expected"))?;
                let y = self.as_float(b).ok_or_else(|| self.err_here("TypeError: numeric operand expected"))?;
                self.icall(site, 0x9400, false);
                self.emit_unbox2(site + 6, a);
                self.emit_unbox2(site + 7, b);
                self.efp2(site + 8);
                self.iret(site + 10);
                Ok(x.partial_cmp(&y).unwrap_or(Ordering::Equal))
            }
            (ObjKind::Str(x), ObjKind::Str(y)) => {
                let (x, y) = (Rc::clone(x), Rc::clone(y));
                self.rcall(site, 0x9440, false);
                // Per-character compare loads, up to the shared prefix.
                let (aa, ba) = (self.obj_addr(a), self.obj_addr(b));
                let shared = x
                    .bytes()
                    .zip(y.bytes())
                    .take_while(|(p, q)| p == q)
                    .count()
                    .min(64);
                for i in 0..=(shared as u64 / 8) {
                    self.eload2(site + 6, Category::Execute, aa + 48 + i * 8);
                    self.eload2(site + 7, Category::Execute, ba + 48 + i * 8);
                }
                self.rret(site + 10);
                Ok(x.as_ref().cmp(y.as_ref()))
            }
            (ObjKind::List(_), ObjKind::List(_)) | (ObjKind::Tuple(_), ObjKind::Tuple(_)) => {
                self.compare_seq(a, b, site)
            }
            (ObjKind::None, ObjKind::None) => Ok(Ordering::Equal),
            (ObjKind::None, _) => Ok(Ordering::Less),
            (_, ObjKind::None) => Ok(Ordering::Greater),
            _ => {
                // Identity comparison as the final fallback (CPython 2.x
                // compares by type name; we only need eq/ne to behave).
                self.ealu2(site, Category::Execute, 1);
                Ok(if a == b { Ordering::Equal } else { Ordering::Less })
            }
        }
    }

    /// Lexicographic comparison of two lists or two tuples. Items are read
    /// by index: comparing runs no guest code, so neither side can change.
    fn compare_seq(
        &mut self,
        a: ObjRef,
        b: ObjRef,
        site: u32,
    ) -> Result<std::cmp::Ordering, VmError> {
        self.rcall(site, 0x9480, false);
        let (xn, yn) = (self.seq_items(a).len(), self.seq_items(b).len());
        let mut result = xn.cmp(&yn);
        for i in 0..xn.min(yn) {
            let (p, q) = (self.seq_items(a)[i], self.seq_items(b)[i]);
            let ord = self.compare_values(p, q, site + 12)?;
            if ord != std::cmp::Ordering::Equal {
                result = ord;
                break;
            }
        }
        self.rret(site + 20);
        Ok(result)
    }

    /// The items of a list or tuple (empty for any other object).
    pub(crate) fn seq_items(&self, r: ObjRef) -> &[ObjRef] {
        match self.kind(r) {
            ObjKind::List(items) => items,
            ObjKind::Tuple(items) => items,
            _ => &[],
        }
    }

    /// Pure-semantics equality (no emission) for membership and dict keys.
    pub(crate) fn value_eq(&self, a: ObjRef, b: ObjRef) -> bool {
        match (self.kind(a), self.kind(b)) {
            (ObjKind::Int(x), ObjKind::Int(y)) => x == y,
            (ObjKind::Bool(x), ObjKind::Bool(y)) => x == y,
            (ObjKind::Int(x), ObjKind::Bool(y)) => *x == *y as i64,
            (ObjKind::Bool(x), ObjKind::Int(y)) => *x as i64 == *y,
            (ObjKind::Float(x), ObjKind::Float(y)) => x == y,
            (ObjKind::Int(x), ObjKind::Float(y)) => *x as f64 == *y,
            (ObjKind::Float(x), ObjKind::Int(y)) => *x == *y as f64,
            (ObjKind::Str(x), ObjKind::Str(y)) => x == y,
            (ObjKind::None, ObjKind::None) => true,
            (ObjKind::Tuple(x), ObjKind::Tuple(y)) => {
                x.len() == y.len()
                    && x.iter().zip(y.iter()).all(|(&p, &q)| self.value_eq(p, q))
            }
            (ObjKind::List(x), ObjKind::List(y)) => {
                x.len() == y.len()
                    && x.iter().zip(y.iter()).all(|(&p, &q)| self.value_eq(p, q))
            }
            _ => a == b,
        }
    }

    fn contains(&mut self, container: ObjRef, item: ObjRef) -> Result<bool, VmError> {
        match self.kind(container) {
            ObjKind::Dict(_) => {
                let key = self
                    .key_of(item)
                    .map_err(|m| self.err_here(format!("TypeError: {m}")))?;
                // Program-data lookup: Execute, per the paper's call-site rule.
                Ok(self.dict_lookup(container, &key, Category::Execute).is_some())
            }
            ObjKind::List(_) | ObjKind::Tuple(_) => {
                let base = match self.kind(container) {
                    ObjKind::List(_) => self.buffer_addr(container),
                    _ => self.obj_addr(container) + SEQ_HEADER,
                };
                for i in 0..self.seq_items(container).len() {
                    self.eload2(90, Category::Execute, base + (i as u64) * 8);
                    self.ealu2(91, Category::Execute, 1);
                    if self.value_eq(self.seq_items(container)[i], item) {
                        return Ok(true);
                    }
                }
                Ok(false)
            }
            ObjKind::Str(s) => {
                let s = Rc::clone(s);
                let ObjKind::Str(needle) = self.kind(item) else {
                    return Err(self.err_here("TypeError: 'in <string>' requires string"));
                };
                let needle = Rc::clone(needle);
                // Substring scan cost.
                let base = self.obj_addr(container) + 48;
                for i in 0..(s.len() as u64 / 8 + 1).min(64) {
                    self.eload2(92, Category::Execute, base + i * 8);
                }
                Ok(s.contains(needle.as_ref()))
            }
            other => Err(self.err_here(format!(
                "TypeError: argument of type '{}' is not iterable",
                other.type_name()
            ))),
        }
    }

    // ---- dict machinery -----------------------------------------------------------

    /// Probing lookup with per-probe load emission.
    pub(crate) fn dict_lookup(
        &mut self,
        dict: ObjRef,
        key: &Key,
        cat: Category,
    ) -> Option<ObjRef> {
        let mut probes = std::mem::take(&mut self.probes);
        let found = match self.kind(dict) {
            ObjKind::Dict(d) => d.lookup(key, &mut probes),
            _ => None,
        };
        let base = self.buffer_addr(dict);
        for &slot in &probes {
            // Entry load, hash compare, key-pointer compare + key deref.
            self.eload2(100, cat, base + (slot as u64) * DICT_SLOT);
            self.ealu2(101, cat, 2);
            self.eload2(102, cat, base + (slot as u64) * DICT_SLOT + 8);
            self.ealu2(103, cat, 1);
        }
        self.stats.dict_probes += probes.len() as u64;
        self.probes = probes;
        found
    }

    /// Probing insert; takes ownership of `value`, increfs the key object
    /// on first insert, handles buffer growth, and emits barrier traffic.
    pub(crate) fn dict_insert(
        &mut self,
        dict: ObjRef,
        key: Key,
        key_obj: ObjRef,
        value: ObjRef,
        cat: Category,
    ) -> Result<(), VmError> {
        let mut probes = std::mem::take(&mut self.probes);
        let (old, cap_before, cap_after) = {
            let ObjKind::Dict(d) = &mut self.obj_mut(dict).kind else {
                return Err(self.err_here("TypeError: not a dict"));
            };
            let cap_before = d.capacity();
            let old = d.insert(key, key_obj, value, &mut probes);
            (old, cap_before, d.capacity())
        };
        let base = self.buffer_addr(dict);
        for &slot in &probes {
            self.eload2(104, cat, base + (slot as u64) * DICT_SLOT);
            self.ealu2(105, cat, 2);
            self.eload2(109, cat, base + (slot as u64) * DICT_SLOT + 8);
        }
        // The winning slot's writes.
        if let Some(&slot) = probes.last() {
            self.estore2(106, cat, base + (slot as u64) * DICT_SLOT + 8);
            self.estore2(107, cat, base + (slot as u64) * DICT_SLOT + 16);
        }
        self.stats.dict_probes += probes.len() as u64;
        self.probes = probes;
        if old.is_none() {
            self.incref(key_obj);
        }
        if cap_after != cap_before {
            self.grow_dict_buffer(dict, cap_after);
        }
        self.write_barrier(dict, value);
        self.write_barrier(dict, key_obj);
        if let Some(old) = old {
            self.decref(old);
        }
        Ok(())
    }

    /// Probing removal; returns the removed value (owned by the caller) and
    /// decrefs the stored key object.
    pub(crate) fn dict_remove(
        &mut self,
        dict: ObjRef,
        key: &Key,
        cat: Category,
    ) -> Option<ObjRef> {
        let mut probes = std::mem::take(&mut self.probes);
        let removed = {
            let ObjKind::Dict(d) = &mut self.obj_mut(dict).kind else {
                return None;
            };
            d.remove(key, &mut probes)
        };
        let base = self.buffer_addr(dict);
        for &slot in probes.iter().take(8) {
            self.eload2(108, cat, base + (slot as u64) * DICT_SLOT);
        }
        self.stats.dict_probes += probes.len() as u64;
        self.probes = probes;
        let (key_obj, value) = removed?;
        self.decref(key_obj);
        Some(value)
    }

    fn grow_dict_buffer(&mut self, dict: ObjRef, new_capacity: usize) {
        let old_buf = self.obj(dict).buffer;
        let bytes = (new_capacity as u64) * DICT_SLOT;
        self.scratch.push(dict);
        let new_buf = self.alloc_obj(ObjKind::Buffer { bytes });
        self.scratch.pop();
        if let Some(old) = old_buf {
            // Rehash copy: read the old table, write the new.
            let (oa, na) = (self.obj_addr(old), self.obj_addr(new_buf));
            let old_bytes = match self.kind(old) {
                ObjKind::Buffer { bytes } => *bytes,
                _ => 0,
            };
            self.copy_span(110, oa, na, old_bytes.min(1 << 16));
            self.decref(old);
        }
        self.obj_mut(dict).buffer = Some(new_buf);
        self.write_barrier(dict, new_buf);
    }

    /// Address of a container's backing buffer (or inline storage).
    pub(crate) fn buffer_addr(&self, obj: ObjRef) -> u64 {
        match self.obj(obj).buffer {
            Some(b) => self.obj_addr(b),
            None => self.obj_addr(obj) + SEQ_HEADER,
        }
    }

    /// Attaches a list's backing buffer sized for `len` elements.
    pub(crate) fn attach_list_buffer(&mut self, list: ObjRef, len: usize) {
        let cap = (len + (len >> 3) + 6) as u64;
        self.scratch.push(list);
        let buf = self.alloc_obj(ObjKind::Buffer { bytes: cap * 8 });
        self.scratch.pop();
        self.obj_mut(list).buffer = Some(buf);
        self.write_barrier(list, buf);
    }

    /// Attaches a fresh dict's backing buffer.
    pub(crate) fn attach_dict_buffer(&mut self, dict: ObjRef) {
        let cap = match self.kind(dict) {
            ObjKind::Dict(d) => d.capacity() as u64,
            _ => 8,
        };
        self.scratch.push(dict);
        let buf = self.alloc_obj(ObjKind::Buffer { bytes: cap * DICT_SLOT });
        self.scratch.pop();
        self.obj_mut(dict).buffer = Some(buf);
        self.write_barrier(dict, buf);
    }

    /// Grows a list's buffer if needed after an append (CPython growth
    /// pattern), emitting the realloc copy.
    pub(crate) fn maybe_grow_list(&mut self, list: ObjRef) {
        let len = match self.kind(list) {
            ObjKind::List(v) => v.len() as u64,
            _ => return,
        };
        let cap_bytes = match self.obj(list).buffer.map(|b| self.kind(b).clone()) {
            Some(ObjKind::Buffer { bytes }) => bytes,
            _ => 0,
        };
        if len * 8 <= cap_bytes {
            return;
        }
        let new_cap = len + (len >> 3) + 6;
        let old_buf = self.obj(list).buffer;
        self.scratch.push(list);
        let new_buf = self.alloc_obj(ObjKind::Buffer { bytes: new_cap * 8 });
        self.scratch.pop();
        if let Some(old) = old_buf {
            let (oa, na) = (self.obj_addr(old), self.obj_addr(new_buf));
            self.copy_span(112, oa, na, cap_bytes.min(1 << 16));
            self.decref(old);
        }
        self.obj_mut(list).buffer = Some(new_buf);
        self.write_barrier(list, new_buf);
    }

    /// Emits a bounded memcpy (one load+store per 8 bytes, capped so huge
    /// copies don't dominate pathologically).
    pub(crate) fn copy_span(&mut self, site: u32, src: u64, dst: u64, bytes: u64) {
        let words = (bytes / 8).min(4096);
        for i in 0..words {
            self.eload2(site, Category::Execute, src + i * 8);
            self.estore2(site + 1, Category::Execute, dst + i * 8);
        }
    }

    // ---- globals ----------------------------------------------------------------

    /// Resolves a global name (globals, then builtins). Returns a
    /// *borrowed* reference.
    pub(crate) fn load_global(&mut self, name: &Rc<str>) -> Result<ObjRef, VmError> {
        self.icall(120, 0x9500, false);
        let key = Key::Str(Rc::clone(name));
        let globals = self.globals;
        let found = self.dict_lookup(globals, &key, Category::NameResolution);
        let v = match found {
            Some(v) => v,
            None => {
                let builtins = self.builtins;
                match self.dict_lookup(builtins, &key, Category::NameResolution) {
                    Some(v) => v,
                    None => {
                        return Err(
                            self.err_here(format!("NameError: name '{name}' is not defined"))
                        )
                    }
                }
            }
        };
        self.iret(126);
        Ok(v)
    }

    // ---- subscripts -----------------------------------------------------------------

    fn index_i64(&mut self, idx: ObjRef) -> Result<i64, VmError> {
        self.as_int(idx)
            .ok_or_else(|| self.err_here("TypeError: indices must be integers"))
    }

    fn normalize_index(&mut self, i: i64, len: usize, clamp: bool) -> Result<usize, VmError> {
        let len = len as i64;
        let adjusted = if i < 0 { i + len } else { i };
        self.ealu2(130, Category::ErrorCheck, 1);
        self.ebranch2(131, Category::ErrorCheck, adjusted < 0 || adjusted >= len);
        if clamp {
            Ok(adjusted.clamp(0, len) as usize)
        } else if adjusted < 0 || adjusted >= len {
            Err(self.err_here("IndexError: index out of range"))
        } else {
            Ok(adjusted as usize)
        }
    }

    fn slice_bounds(&mut self, lo: ObjRef, hi: ObjRef, len: usize) -> Result<(usize, usize), VmError> {
        let l = match self.kind(lo) {
            ObjKind::None => 0,
            _ => {
                let v = self.index_i64(lo)?;
                let v = if v < 0 { v + len as i64 } else { v };
                v.clamp(0, len as i64) as usize
            }
        };
        let h = match self.kind(hi) {
            ObjKind::None => len,
            _ => {
                let v = self.index_i64(hi)?;
                let v = if v < 0 { v + len as i64 } else { v };
                v.clamp(0, len as i64) as usize
            }
        };
        Ok((l, h.max(l)))
    }

    /// `obj[idx]` on owned operands; returns an owned result.
    pub(crate) fn subscr(&mut self, obj: ObjRef, idx: ObjRef) -> Result<ObjRef, VmError> {
        self.emit_typecheck2(16, obj);
        self.emit_typecheck2(18, idx);
        let r = match (self.kind(obj), self.kind(idx)) {
            (ObjKind::List(items), ObjKind::Int(_) | ObjKind::Bool(_)) => {
                // ceval list fast path: inline bounds check + load.
                let len = items.len();
                let i = self.index_i64(idx)?;
                self.emit_unbox2(20, idx);
                let i = self.normalize_index(i, len, false)?;
                let base = self.buffer_addr(obj);
                self.ealu2(21, Category::Execute, 2);
                self.eload2(22, Category::Execute, base + (i as u64) * 8);
                let v = self.seq_items(obj)[i];
                self.incref(v);
                v
            }
            (ObjKind::Tuple(items), ObjKind::Int(_) | ObjKind::Bool(_)) => {
                let len = items.len();
                let i = self.index_i64(idx)?;
                self.emit_unbox2(20, idx);
                let i = self.normalize_index(i, len, false)?;
                let base = self.obj_addr(obj) + SEQ_HEADER;
                self.eload2(22, Category::Execute, base + (i as u64) * 8);
                let v = self.seq_items(obj)[i];
                self.incref(v);
                v
            }
            (ObjKind::Str(s), ObjKind::Int(_) | ObjKind::Bool(_)) => {
                let s = Rc::clone(s);
                let i = self.index_i64(idx)?;
                self.emit_unbox2(20, idx);
                let bytes = s.as_bytes();
                let i = self.normalize_index(i, bytes.len(), false)?;
                self.eload2(22, Category::Execute, self.obj_addr(obj) + 48 + i as u64);
                let ch: Rc<str> = Rc::from(&s[i..i + 1]);
                self.scratch.push(obj);
                self.scratch.push(idx);
                let r = self.alloc_obj(ObjKind::Str(ch));
                self.scratch.truncate(self.scratch.len() - 2);
                r
            }
            (ObjKind::Dict(_), _) => {
                self.rcall(24, 0x9600, false);
                let key = self
                    .key_of(idx)
                    .map_err(|m| self.err_here(format!("TypeError: {m}")))?;
                let found = self.dict_lookup(obj, &key, Category::Execute);
                self.rret(30);
                match found {
                    Some(v) => {
                        self.incref(v);
                        v
                    }
                    None => {
                        let k = self.display_string(idx);
                        return Err(self.err_here(format!("KeyError: {k}")));
                    }
                }
            }
            (ObjKind::List(items), &ObjKind::Slice { lo, hi }) => {
                let len = items.len();
                self.rcall(24, 0x9640, false);
                let (l, h) = self.slice_bounds(lo, hi, len)?;
                let slice: Vec<ObjRef> = self.seq_items(obj)[l..h].to_vec();
                for &v in &slice {
                    self.incref(v);
                }
                let n = slice.len();
                self.scratch.push(obj);
                self.scratch.push(idx);
                let r = self.alloc_obj(ObjKind::List(slice));
                self.attach_list_buffer(r, n);
                self.scratch.truncate(self.scratch.len() - 2);
                let src = self.buffer_addr(obj) + (l as u64) * 8;
                let dst = self.buffer_addr(r);
                self.copy_span(26, src, dst, (n as u64) * 8);
                self.rret(30);
                r
            }
            (ObjKind::Str(s), &ObjKind::Slice { lo, hi }) => {
                let s = Rc::clone(s);
                self.rcall(24, 0x9680, false);
                let (l, h) = self.slice_bounds(lo, hi, s.len())?;
                let sub: Rc<str> = Rc::from(&s[l..h]);
                let n = sub.len() as u64;
                self.scratch.push(obj);
                self.scratch.push(idx);
                let r = self.alloc_obj(ObjKind::Str(sub));
                self.scratch.truncate(self.scratch.len() - 2);
                let src = self.obj_addr(obj) + 48 + l as u64;
                let dst = self.obj_addr(r) + 48;
                self.copy_span(26, src, dst, n);
                self.rret(30);
                r
            }
            (ObjKind::Tuple(items), &ObjKind::Slice { lo, hi }) => {
                let len = items.len();
                self.rcall(24, 0x96C0, false);
                let (l, h) = self.slice_bounds(lo, hi, len)?;
                let slice: Vec<ObjRef> = self.seq_items(obj)[l..h].to_vec();
                for &v in &slice {
                    self.incref(v);
                }
                self.scratch.push(obj);
                self.scratch.push(idx);
                let r = self.alloc_obj(ObjKind::Tuple(slice.into()));
                self.scratch.truncate(self.scratch.len() - 2);
                self.rret(30);
                r
            }
            (o, i) => {
                return Err(self.err_here(format!(
                    "TypeError: '{}' indices must be valid, got '{}'",
                    o.type_name(),
                    i.type_name()
                )))
            }
        };
        self.decref(obj);
        self.decref(idx);
        Ok(r)
    }

    /// `obj[idx] = value` on owned operands.
    pub(crate) fn store_subscr(
        &mut self,
        obj: ObjRef,
        idx: ObjRef,
        value: ObjRef,
    ) -> Result<(), VmError> {
        self.emit_typecheck2(16, obj);
        match self.kind(obj) {
            ObjKind::List(items) => {
                let len = items.len();
                let i = self.index_i64(idx)?;
                self.emit_unbox2(20, idx);
                let i = self.normalize_index(i, len, false)?;
                // The JIT materializes values that escape into the heap.
                self.materialize(value);
                let base = self.buffer_addr(obj);
                self.estore2(22, Category::Execute, base + (i as u64) * 8);
                let old = {
                    let ObjKind::List(v) = &mut self.obj_mut(obj).kind else {
                        return Err(self.err_here("internal error: list changed kind"));
                    };
                    std::mem::replace(&mut v[i], value)
                };
                self.write_barrier(obj, value);
                self.decref(old);
            }
            ObjKind::Dict(_) => {
                self.rcall(24, 0x9700, false);
                self.materialize(value);
                self.materialize(idx);
                let key = self
                    .key_of(idx)
                    .map_err(|m| self.err_here(format!("TypeError: {m}")))?;
                self.dict_insert(obj, key, idx, value, Category::Execute)?;
                self.rret(30);
            }
            other => {
                return Err(self.err_here(format!(
                    "TypeError: '{}' object does not support item assignment",
                    other.type_name()
                )))
            }
        }
        self.decref(obj);
        self.decref(idx);
        Ok(())
    }

    /// `del obj[idx]` on owned operands.
    pub(crate) fn del_subscr(&mut self, obj: ObjRef, idx: ObjRef) -> Result<(), VmError> {
        self.emit_typecheck2(16, obj);
        match self.kind(obj) {
            ObjKind::Dict(_) => {
                self.rcall(24, 0x9740, false);
                let key = self
                    .key_of(idx)
                    .map_err(|m| self.err_here(format!("TypeError: {m}")))?;
                let removed = self.dict_remove(obj, &key, Category::Execute);
                self.rret(30);
                match removed {
                    Some(v) => self.decref(v),
                    None => {
                        let k = self.display_string(idx);
                        return Err(self.err_here(format!("KeyError: {k}")));
                    }
                }
            }
            ObjKind::List(items) => {
                let len = items.len();
                let i = self.index_i64(idx)?;
                let i = self.normalize_index(i, len, false)?;
                let removed = {
                    let ObjKind::List(v) = &mut self.obj_mut(obj).kind else {
                        return Err(self.err_here("internal error: list changed kind"));
                    };
                    v.remove(i)
                };
                // Shift emission.
                let base = self.buffer_addr(obj);
                for j in i..len.saturating_sub(1) {
                    self.eload2(26, Category::Execute, base + (j as u64 + 1) * 8);
                    self.estore2(27, Category::Execute, base + (j as u64) * 8);
                }
                self.decref(removed);
            }
            other => {
                return Err(self.err_here(format!(
                    "TypeError: '{}' object doesn't support item deletion",
                    other.type_name()
                )))
            }
        }
        self.decref(obj);
        self.decref(idx);
        Ok(())
    }

    // ---- attributes --------------------------------------------------------------------

    /// `obj.name` on an owned receiver; returns an owned result.
    pub(crate) fn load_attr(&mut self, obj: ObjRef, name: &Rc<str>) -> Result<ObjRef, VmError> {
        self.emit_typecheck2(16, obj);
        // PyObject_GetAttr -> tp_getattro (indirect).
        self.rcall(18, 0x9800, false);
        self.icall(24, 0x9840, true);
        let key = Key::Str(Rc::clone(name));
        let result = match *self.kind(obj) {
            ObjKind::Instance { class, dict } => {
                // Instance dict first.
                if let Some(v) = self.dict_lookup(dict, &key, Category::NameResolution) {
                    self.incref(v);
                    self.decref(obj);
                    v
                } else {
                    // Class chain next.
                    match self.class_chain_lookup(class, &key) {
                        Some(v) => {
                            if matches!(self.kind(v), ObjKind::Func(_) | ObjKind::Native(_)) {
                                // Descriptor bind: allocate a bound method.
                                self.eload2(30, Category::FunctionResolution, self.obj_addr(v));
                                self.ealu2(31, Category::FunctionResolution, 1);
                                self.incref(v);
                                self.scratch.push(obj);
                                self.scratch.push(v);
                                let bm =
                                    self.alloc_obj(ObjKind::BoundMethod { func: v, recv: obj });
                                self.scratch.truncate(self.scratch.len() - 2);
                                // `obj` ownership transfers into the bound method.
                                bm
                            } else {
                                self.incref(v);
                                self.decref(obj);
                                v
                            }
                        }
                        None => {
                            return Err(self.err_here(format!(
                                "AttributeError: instance has no attribute '{name}'"
                            )))
                        }
                    }
                }
            }
            ObjKind::Class(ref c) => {
                let mut cur = Some(c.dict);
                let mut base = c.base;
                let mut found = None;
                while let Some(d) = cur {
                    if let Some(v) = self.dict_lookup(d, &key, Category::NameResolution) {
                        found = Some(v);
                        break;
                    }
                    cur = match base {
                        Some(b) => match self.kind(b) {
                            ObjKind::Class(bc) => {
                                let next = bc.dict;
                                base = bc.base;
                                Some(next)
                            }
                            _ => None,
                        },
                        None => None,
                    };
                }
                match found {
                    Some(v) => {
                        self.incref(v);
                        self.decref(obj);
                        v
                    }
                    None => {
                        return Err(self.err_here(format!(
                            "AttributeError: type object has no attribute '{name}'"
                        )))
                    }
                }
            }
            ref kind => {
                // Built-in type method: consult the type's method table.
                let type_name = kind.type_name();
                match self.natives.method_for(type_name, name) {
                    Some(native_obj) => {
                        self.eload2(30, Category::FunctionResolution, mem::STATIC_DATA_BASE + 0x800);
                        self.eload2(31, Category::FunctionResolution, self.obj_addr(native_obj));
                        self.incref(native_obj);
                        self.scratch.push(obj);
                        let bm = self
                            .alloc_obj(ObjKind::BoundMethod { func: native_obj, recv: obj });
                        self.scratch.pop();
                        bm
                    }
                    None => {
                        return Err(self.err_here(format!(
                            "AttributeError: '{type_name}' object has no attribute '{name}'"
                        )))
                    }
                }
            }
        };
        self.iret(36);
        self.rret(40);
        Ok(result)
    }

    /// Walks the class chain for `key`; returns a borrowed reference.
    fn class_chain_lookup(&mut self, class: ObjRef, key: &Key) -> Option<ObjRef> {
        let mut cur = class;
        loop {
            let (dict, base) = match self.kind(cur) {
                ObjKind::Class(c) => (c.dict, c.base),
                _ => return None,
            };
            if let Some(v) = self.dict_lookup(dict, key, Category::NameResolution) {
                return Some(v);
            }
            cur = base?;
        }
    }

    /// `obj.name = value` on owned receiver and value, where `name` is
    /// name `idx` of the executing code object.
    pub(crate) fn store_attr(
        &mut self,
        obj: ObjRef,
        meta: &CodeMeta,
        idx: usize,
        value: ObjRef,
    ) -> Result<(), VmError> {
        self.emit_typecheck2(16, obj);
        self.icall(18, 0x9880, false);
        let name_obj = self.name_obj(meta, idx);
        let dict = match self.kind(obj) {
            ObjKind::Instance { dict, .. } => *dict,
            ObjKind::Class(c) => c.dict,
            other => {
                return Err(self.err_here(format!(
                    "AttributeError: '{}' object has no settable attributes",
                    other.type_name()
                )))
            }
        };
        self.materialize(value);
        self.dict_insert(dict, meta.name_key(idx), name_obj, value, Category::NameResolution)?;
        self.iret(26);
        self.decref(obj);
        Ok(())
    }

    // ---- iterators ----------------------------------------------------------------------

    /// Advances an iterator object; returns the next owned value.
    pub(crate) fn iter_next(&mut self, iter: ObjRef) -> Result<Option<ObjRef>, VmError> {
        let state_addr = self.obj_addr(iter);
        self.eload2(0, Category::Execute, state_addr + 16);
        self.ealu2(1, Category::Execute, 2);
        let state = match self.kind(iter) {
            ObjKind::Iter(s) => s.clone(),
            other => {
                return Err(self.err_here(format!(
                    "TypeError: '{}' is not an iterator",
                    other.type_name()
                )))
            }
        };
        let (next_value, new_state) = match state {
            IterState::Range { next, stop, step } => {
                self.ealu2(2, Category::Execute, 1);
                self.ebranch2(3, Category::ErrorCheck, false);
                let exhausted = if step > 0 { next >= stop } else { next <= stop };
                if exhausted {
                    (None, None)
                } else {
                    // Each iteration boxes a fresh int (CPython churn; the
                    // JIT keeps it virtual).
                    let v = self.make_int(next);
                    self.emit_box(4, v);
                    (Some(v), Some(IterState::Range { next: next + step, stop, step }))
                }
            }
            IterState::Seq { seq, index } => {
                let len = match self.kind(seq) {
                    ObjKind::List(v) => v.len(),
                    ObjKind::Tuple(v) => v.len(),
                    _ => 0,
                };
                self.ealu2(2, Category::ErrorCheck, 1);
                if index >= len {
                    (None, None)
                } else {
                    let v = match self.kind(seq) {
                        ObjKind::List(v) => v[index],
                        ObjKind::Tuple(v) => v[index],
                        _ => return Err(self.err_here("internal error: seq iterator over non-sequence")),
                    };
                    let base = self.buffer_addr(seq);
                    self.eload2(4, Category::Execute, base + (index as u64) * 8);
                    self.incref(v);
                    (Some(v), Some(IterState::Seq { seq, index: index + 1 }))
                }
            }
            IterState::Str { s, index } => {
                let owned = match self.kind(s) {
                    ObjKind::Str(x) => Rc::clone(x),
                    _ => return Err(self.err_here("internal error: str iterator over non-string")),
                };
                if index >= owned.len() {
                    (None, None)
                } else {
                    self.eload2(4, Category::Execute, self.obj_addr(s) + 48 + index as u64);
                    let ch: Rc<str> = Rc::from(&owned[index..index + 1]);
                    self.scratch.push(iter);
                    let v = self.alloc_obj(ObjKind::Str(ch));
                    self.scratch.pop();
                    (Some(v), Some(IterState::Str { s, index: index + 1 }))
                }
            }
            IterState::Keys { keys, index } => {
                self.ealu2(2, Category::ErrorCheck, 1);
                if index >= keys.len() {
                    (None, None)
                } else {
                    let v = keys[index];
                    self.eload2(4, Category::Execute, state_addr + 24);
                    self.incref(v);
                    (Some(v), Some(IterState::Keys { keys, index: index + 1 }))
                }
            }
        };
        if let Some(ns) = new_state {
            self.estore2(6, Category::Execute, state_addr + 16);
            if let ObjKind::Iter(s) = &mut self.obj_mut(iter).kind {
                *s = ns;
            }
        }
        Ok(next_value)
    }

    // ---- calls and returns ------------------------------------------------------------------

    /// `CALL_FUNCTION argc` — pops arguments and callee, then dispatches.
    pub(crate) fn call_function(&mut self, argc: usize) -> Result<StepEvent, VmError> {
        self.stats.calls += 1;
        // Pop args (reversed) and the callee into GC-visible scratch.
        let mark = self.scratch.len();
        for _ in 0..argc {
            let v = self.pop_s(0)?;
            self.scratch.push(v);
        }
        self.scratch[mark..].reverse();
        let callee = self.pop_s(3)?;
        self.scratch.push(callee);
        // CPython: call_function helper.
        self.emit_typecheck2(16, callee);
        self.icall(18, 0x9900, false);

        let ev = self.dispatch_call(callee, mark, argc);
        // Scratch cleanup happens inside dispatch_call paths.
        self.iret(60);
        ev
    }

    /// Dispatches a call; `mark..mark+argc` in scratch are the owned args,
    /// `mark+argc` is the owned callee. Consumes them all.
    ///
    /// Guest frames take their arguments straight from scratch: at every
    /// allocation on the way (class namespace, frame object) the GC roots
    /// end with the arguments in parameter order. A minor collection
    /// charges one load per root and traces the roots in order, so both
    /// the count and the order reach the simulated cycles.
    fn dispatch_call(
        &mut self,
        callee: ObjRef,
        mark: usize,
        argc: usize,
    ) -> Result<StepEvent, VmError> {
        match *self.kind(callee) {
            ObjKind::Func(_) => {
                // `callee` ownership moves into the frame's root slot.
                self.scratch.truncate(mark + argc);
                self.enter_function(callee, mark, None)?;
                Ok(StepEvent::Continue)
            }
            ObjKind::Native(id) => self.dispatch_native(id, None, callee, mark, argc),
            ObjKind::BoundMethod { func, recv } => match *self.kind(func) {
                ObjKind::Func(_) => {
                    self.incref(recv);
                    // The receiver becomes argument 0, in the callee's slot.
                    self.scratch[mark + argc] = recv;
                    self.scratch[mark..].rotate_right(1);
                    self.incref(func);
                    // The bound method itself is released; the frame
                    // keeps the function alive.
                    self.decref(callee);
                    self.enter_function(func, mark, None)?;
                    Ok(StepEvent::Continue)
                }
                ObjKind::Native(id) => self.dispatch_native(id, Some(recv), callee, mark, argc),
                ref other => Err(self.err_here(format!(
                    "TypeError: bound method wraps non-callable '{}'",
                    other.type_name()
                ))),
            },
            ObjKind::Class(_) => {
                // Instantiation: allocate the instance and its dict, then
                // run `__init__` if defined.
                self.ealu2(20, Category::FunctionSetup, 2);
                let dict = self.alloc_obj(ObjKind::Dict(crate::dict::DictObj::new()));
                self.scratch.push(dict);
                self.attach_dict_buffer(dict);
                self.incref(callee);
                let inst = self.alloc_obj(ObjKind::Instance { class: callee, dict });
                self.scratch.pop(); // dict ownership moved into instance
                self.scratch.push(inst);
                let init_key = Key::Str(Rc::clone(&self.init_name));
                let init = self.class_chain_lookup(callee, &init_key);
                match init {
                    Some(init_fn) => {
                        if !matches!(self.kind(init_fn), ObjKind::Func(_)) {
                            return Err(self.err_here("TypeError: __init__ must be a function"));
                        }
                        // arg0 = self (one extra ref for the argument).
                        self.incref(inst);
                        // The arguments follow the instance as a second
                        // copy; the originals stay below as roots until
                        // the frame owns them.
                        let args_at = self.scratch.len();
                        self.scratch.push(inst);
                        self.scratch.extend_from_within(mark..mark + argc);
                        self.incref(init_fn);
                        // Our original `inst` reference transfers into the
                        // frame's init_instance slot; scratch entries were
                        // all transferred, so truncate without decref.
                        self.enter_function(init_fn, args_at, Some(inst))?;
                        self.scratch.truncate(mark);
                        self.decref(callee);
                        Ok(StepEvent::Continue)
                    }
                    None => {
                        if argc != 0 {
                            return Err(
                                self.err_here("TypeError: this class takes no arguments")
                            );
                        }
                        // Scratch holds [callee, inst]; inst transfers to the
                        // stack, callee is released.
                        self.scratch.truncate(mark);
                        self.decref(callee);
                        self.push_s(56, inst)?;
                        Ok(StepEvent::Continue)
                    }
                }
            }
            ref other => Err(self.err_here(format!(
                "TypeError: '{}' object is not callable",
                other.type_name()
            ))),
        }
    }

    /// Calls native `id` on the owned args `mark..mark+argc` in scratch
    /// (bound to `recv` when it is a method), releases the args and
    /// `callee`, and pushes the result.
    fn dispatch_native(
        &mut self,
        id: crate::object::NativeId,
        recv: Option<ObjRef>,
        callee: ObjRef,
        mark: usize,
        argc: usize,
    ) -> Result<StepEvent, VmError> {
        // A reused buffer: natives read their args while mutating the VM.
        let mut args = std::mem::take(&mut self.native_args);
        args.clear();
        args.extend_from_slice(&self.scratch[mark..mark + argc]);
        let result = self.call_native(id, recv, &args);
        self.scratch.truncate(mark);
        if result.is_ok() {
            for &a in &args {
                self.decref(a);
            }
            self.decref(callee);
        }
        self.native_args = args;
        self.push_s(56, result?)?;
        Ok(StepEvent::Continue)
    }

    /// The default values of function object `func` (empty for anything
    /// else).
    fn func_defaults(&self, func: ObjRef) -> &[ObjRef] {
        match self.kind(func) {
            ObjKind::Func(f) => &f.defaults,
            _ => &[],
        }
    }

    /// Pushes a frame for a call of function object `callee`, whose owned
    /// arguments are `scratch[args_at..]`; they move into the frame's
    /// locals and scratch is truncated to `args_at`.
    fn enter_function(
        &mut self,
        callee: ObjRef,
        args_at: usize,
        init_instance: Option<ObjRef>,
    ) -> Result<(), VmError> {
        let ObjKind::Func(f) = self.kind(callee) else {
            return Err(self.err_here("internal error: calling a non-function"));
        };
        let code = Rc::clone(&f.code);
        let ndefaults = f.defaults.len();
        let meta = self.register_code(&code);
        let required = code.argcount - ndefaults.min(code.argcount);
        let nargs = self.scratch.len() - args_at;
        // Argument-count error check.
        self.ealu2(30, Category::ErrorCheck, 1);
        self.ebranch2(31, Category::ErrorCheck, false);
        if nargs < required || nargs > code.argcount {
            self.scratch.truncate(args_at);
            return Err(self.err_here(format!(
                "TypeError: {}() takes {} arguments ({} given)",
                code.name, code.argcount, nargs
            )));
        }
        // Fill defaults for missing trailing parameters.
        for i in ndefaults - (code.argcount - nargs)..ndefaults {
            let d = self.func_defaults(callee)[i];
            self.incref(d);
            self.scratch.push(d);
        }
        let nargs = code.argcount;
        // Class bodies run with a dict namespace.
        let class_ns = if code.kind == CodeKind::ClassBody {
            let ns = self.alloc_obj(ObjKind::Dict(crate::dict::DictObj::new()));
            self.scratch.push(ns);
            self.attach_dict_buffer(ns);
            self.scratch.pop();
            Some(ns)
        } else {
            None
        };
        // Function setup: argument processing, defaults handling, flag
        // checks — fast_function + eval frame entry.
        self.ealu2(32, Category::FunctionSetup, 12);
        self.icall(34, 0x9940, false);
        self.icall(40, 0x9980, false);
        // Argument copy into fast locals.
        let frame_name = std::sync::Arc::clone(&meta.name);
        let mut frame = self.new_frame(code, meta, Some(callee), class_ns);
        for (slot, &a) in frame.locals.iter_mut().zip(&self.scratch[args_at..]) {
            *slot = Some(a);
        }
        frame.init_instance = init_instance;
        self.scratch.truncate(args_at);
        self.frames.push(frame);
        self.sink.frame_event(&FrameEvent::Push { name: frame_name });
        if self.cost == CostMode::Interp {
            let frame_addr = self.frame_addr();
            for i in 0..nargs as u64 {
                self.estore(46, Category::FunctionSetup, frame_addr + 96 + i * 8);
            }
            self.ealu(47, Category::FunctionSetup, 4);
        }
        Ok(())
    }

    /// `RETURN_VALUE` — unwinds the current frame.
    pub(crate) fn return_value(&mut self) -> Result<StepEvent, VmError> {
        let is_class_body = self
            .frames
            .last()
            .map(|f| f.class_ns.is_some())
            .unwrap_or(false);
        let retval = if is_class_body {
            let ns = self.frames.last().and_then(|f| f.class_ns).ok_or_else(|| self.err_here("internal error: class body frame lost its namespace"))?;
            self.incref(ns);
            ns
        } else {
            self.pop_s(0)?
        };
        // Function cleanup + frame release: unwinding the call machinery.
        self.ealu2(4, Category::FunctionSetup, 10);
        let frame = self.frames.pop().ok_or_else(|| self.err_here("internal error: no frame to return from"))?;
        self.sink.frame_event(&FrameEvent::Pop);
        let Frame { mut locals, mut stack, mut blocks, class_ns, callee, frame_obj, init_instance, .. } =
            frame;
        for v in locals.drain(..).flatten() {
            self.decref(v);
        }
        for v in stack.drain(..) {
            self.decref(v);
        }
        blocks.clear();
        self.frame_bufs.push((locals, stack, blocks));
        if let Some(ns) = class_ns {
            self.decref(ns);
        }
        if let Some(c) = callee {
            self.decref(c);
        }
        if let Some(fo) = frame_obj {
            // Frame deallocation: the alloc/free churn of Table II.
            self.decref(fo);
        }
        // Matching returns for the call-entry helpers.
        self.iret(8);
        self.iret(12);
        let retval = match init_instance {
            Some(inst) => {
                // `__init__` frames yield the instance.
                self.decref(retval);
                inst
            }
            None => retval,
        };
        if self.frames.is_empty() {
            if let Some(prev) = self.result.replace(retval) {
                self.decref(prev);
            }
            return Ok(StepEvent::Done);
        }
        self.push_s(16, retval)?;
        Ok(StepEvent::Continue)
    }

    // ---- second-bank emission helpers (same cost-mode switch, avoiding
    // site collisions with interp.rs) --------------------------------------

    pub(crate) fn ealu2(&mut self, site: u32, cat: Category, n: u32) {
        self.ealu(site + 256, cat, n);
    }

    pub(crate) fn efp2(&mut self, site: u32) {
        self.efp(site + 256, Category::Execute);
    }

    pub(crate) fn eload2(&mut self, site: u32, cat: Category, addr: u64) {
        self.eload(site + 256, cat, addr);
    }

    pub(crate) fn estore2(&mut self, site: u32, cat: Category, addr: u64) {
        self.estore(site + 256, cat, addr);
    }

    pub(crate) fn ebranch2(&mut self, site: u32, cat: Category, taken: bool) {
        self.ebranch(site + 256, cat, taken);
    }

    pub(crate) fn emit_typecheck2(&mut self, site: u32, obj: ObjRef) {
        let addr = self.obj_addr(obj);
        self.eload(site + 256, Category::TypeCheck, addr);
        self.ebranch(site + 257, Category::TypeCheck, false);
    }

    pub(crate) fn emit_unbox2(&mut self, site: u32, obj: ObjRef) {
        if self.cost == CostMode::Trace && self.obj(obj).virtual_unboxed {
            return;
        }
        let addr = self.obj_addr(obj);
        self.eload(site + 256, Category::BoxUnbox, addr + 8);
    }

    /// Emits the stores that initialize a freshly boxed number.
    pub(crate) fn emit_box(&mut self, site: u32, obj: ObjRef) {
        if self.cost == CostMode::Trace && self.obj(obj).virtual_unboxed {
            return;
        }
        let addr = self.obj_addr(obj);
        self.estore(site + 256, Category::BoxUnbox, addr + 8);
        self.estore(site + 257, Category::ObjectAllocation, addr);
    }

    pub(crate) fn native_call_marker(&mut self) {
        self.stats.native_calls += 1;
    }
}

fn op_symbol(op: Opcode) -> &'static str {
    match op {
        Opcode::BinaryAdd => "+",
        Opcode::BinarySubtract => "-",
        Opcode::BinaryMultiply => "*",
        Opcode::BinaryDivide => "/",
        Opcode::BinaryFloorDivide => "//",
        Opcode::BinaryModulo => "%",
        Opcode::BinaryPower => "**",
        Opcode::BinaryAnd => "&",
        Opcode::BinaryOr => "|",
        Opcode::BinaryXor => "^",
        Opcode::BinaryLshift => "<<",
        Opcode::BinaryRshift => ">>",
        _ => "?",
    }
}
