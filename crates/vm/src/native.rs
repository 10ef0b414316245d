//! The native ("C extension") library.
//!
//! CPython programs spend an average of 7.0% of their time inside C
//! library code — and the pickle/regex benchmark group more than 64%
//! (§IV-C.1). This module models that library: every call crosses the
//! modeled C calling convention (so the paper's headline *C function call*
//! overhead exists inside library-heavy programs too), bodies run in
//! [`Phase::NativeLib`] with their work tagged [`Category::CLibrary`], and
//! data traffic touches the real simulated addresses of the guest objects.
//!
//! The heavyweight modules (JSON, pickle, the backtracking regex engine,
//! checksums, compression) live in [`crate::native_lib`].

use crate::dict::Key;
use crate::idhash::IdMap;
use crate::object::{IterState, NativeId, ObjKind, ObjRef};
use crate::vm::{CostMode, Vm, VmError};
use qoa_model::{mem, Category, OpSink, Phase};
use std::rc::Rc;

/// Every native function the run-time exposes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u16)]
#[allow(missing_docs)]
pub enum NativeFn {
    // Builtins
    Print = 0,
    Len,
    Range,
    Abs,
    Min,
    Max,
    Sum,
    Ord,
    Chr,
    IntCast,
    FloatCast,
    StrCast,
    // Math module
    Sqrt,
    Sin,
    Cos,
    Exp,
    Log,
    Floor,
    // Deterministic PRNG module
    RandSeed,
    Rand,
    RandInt,
    // Heavy library modules (bodies in `native_lib`)
    JsonDumps,
    JsonLoads,
    PickleDumps,
    PickleLoads,
    ReSearch,
    ReMatch,
    ReFindall,
    Crc32,
    Md5,
    Compress,
    // list methods
    ListAppend,
    ListPop,
    ListSort,
    ListReverse,
    ListExtend,
    ListInsert,
    ListIndex,
    ListCount,
    ListRemove,
    // dict methods
    DictGet,
    DictKeys,
    DictValues,
    DictItems,
    DictUpdate,
    DictPop,
    // str methods
    StrUpper,
    StrLower,
    StrSplit,
    StrJoin,
    StrStrip,
    StrReplace,
    StrFind,
    StrStartswith,
    StrEndswith,
}

impl NativeFn {
    /// Whether this function lives in an *extension module* (pickle, re,
    /// json, zlib, hashing, libm, random) as opposed to a core built-in
    /// type method compiled into the interpreter binary. The paper's "C
    /// library time" (7.0% average, >64% for the pickle/regex group)
    /// counts only the former; core-type method bodies are the program's
    /// own work (`Execute`).
    pub fn is_extension_module(self) -> bool {
        matches!(
            self,
            NativeFn::JsonDumps
                | NativeFn::JsonLoads
                | NativeFn::PickleDumps
                | NativeFn::PickleLoads
                | NativeFn::ReSearch
                | NativeFn::ReMatch
                | NativeFn::ReFindall
                | NativeFn::Crc32
                | NativeFn::Md5
                | NativeFn::Compress
                | NativeFn::Sqrt
                | NativeFn::Sin
                | NativeFn::Cos
                | NativeFn::Exp
                | NativeFn::Log
                | NativeFn::Floor
                | NativeFn::RandSeed
                | NativeFn::Rand
                | NativeFn::RandInt
        )
    }

    /// The id wrapper used in object payloads.
    pub fn id(self) -> NativeId {
        NativeId(self as u16)
    }

    /// Inverse of [`NativeFn::id`].
    ///
    /// # Panics
    ///
    /// Panics on an unknown id.
    pub fn from_id(id: NativeId) -> NativeFn {
        ALL_NATIVES[id.0 as usize].0
    }

    /// Base PC of this function's code in the native-library region.
    pub fn code_base(self) -> u64 {
        mem::NATIVE_CODE_BASE + (self as u16 as u64) * 0x800
    }
}

/// `(function, exposed name, method-receiver type or "" for builtins)`.
const ALL_NATIVES: &[(NativeFn, &str, &str)] = &[
    (NativeFn::Print, "print", ""),
    (NativeFn::Len, "len", ""),
    (NativeFn::Range, "range", ""),
    (NativeFn::Abs, "abs", ""),
    (NativeFn::Min, "min", ""),
    (NativeFn::Max, "max", ""),
    (NativeFn::Sum, "sum", ""),
    (NativeFn::Ord, "ord", ""),
    (NativeFn::Chr, "chr", ""),
    (NativeFn::IntCast, "int", ""),
    (NativeFn::FloatCast, "float", ""),
    (NativeFn::StrCast, "str", ""),
    (NativeFn::Sqrt, "sqrt", ""),
    (NativeFn::Sin, "sin", ""),
    (NativeFn::Cos, "cos", ""),
    (NativeFn::Exp, "exp", ""),
    (NativeFn::Log, "log", ""),
    (NativeFn::Floor, "floor", ""),
    (NativeFn::RandSeed, "rand_seed", ""),
    (NativeFn::Rand, "rand", ""),
    (NativeFn::RandInt, "randint", ""),
    (NativeFn::JsonDumps, "json_dumps", ""),
    (NativeFn::JsonLoads, "json_loads", ""),
    (NativeFn::PickleDumps, "pickle_dumps", ""),
    (NativeFn::PickleLoads, "pickle_loads", ""),
    (NativeFn::ReSearch, "re_search", ""),
    (NativeFn::ReMatch, "re_match", ""),
    (NativeFn::ReFindall, "re_findall", ""),
    (NativeFn::Crc32, "crc32", ""),
    (NativeFn::Md5, "md5", ""),
    (NativeFn::Compress, "compress", ""),
    (NativeFn::ListAppend, "append", "list"),
    (NativeFn::ListPop, "pop", "list"),
    (NativeFn::ListSort, "sort", "list"),
    (NativeFn::ListReverse, "reverse", "list"),
    (NativeFn::ListExtend, "extend", "list"),
    (NativeFn::ListInsert, "insert", "list"),
    (NativeFn::ListIndex, "index", "list"),
    (NativeFn::ListCount, "count", "list"),
    (NativeFn::ListRemove, "remove", "list"),
    (NativeFn::DictGet, "get", "dict"),
    (NativeFn::DictKeys, "keys", "dict"),
    (NativeFn::DictValues, "values", "dict"),
    (NativeFn::DictItems, "items", "dict"),
    (NativeFn::DictUpdate, "update", "dict"),
    (NativeFn::DictPop, "pop", "dict"),
    (NativeFn::StrUpper, "upper", "str"),
    (NativeFn::StrLower, "lower", "str"),
    (NativeFn::StrSplit, "split", "str"),
    (NativeFn::StrJoin, "join", "str"),
    (NativeFn::StrStrip, "strip", "str"),
    (NativeFn::StrReplace, "replace", "str"),
    (NativeFn::StrFind, "find", "str"),
    (NativeFn::StrStartswith, "startswith", "str"),
    (NativeFn::StrEndswith, "endswith", "str"),
];

/// Registry of native function objects and built-in type method tables.
#[derive(Debug, Clone, Default)]
pub struct NativeRegistry {
    methods: IdMap<(&'static str, &'static str), ObjRef>,
    /// Deterministic PRNG state for the `rand*` module.
    pub(crate) rng_state: u64,
}

impl NativeRegistry {
    /// Creates an empty registry (populated by `install_builtins`).
    pub fn new() -> Self {
        NativeRegistry { methods: IdMap::default(), rng_state: 0x9E3779B97F4A7C15 }
    }

    /// Looks up a method of a built-in type.
    pub fn method_for(&self, type_name: &str, attr: &str) -> Option<ObjRef> {
        self.methods.get(&(type_name, attr)).copied()
    }
}

impl<S: OpSink> Vm<S> {
    /// Installs the native library into the builtins namespace. Emits
    /// nothing (run-time initialization happens before measurement).
    pub(crate) fn install_builtins(&mut self) {
        let mut probes = Vec::new();
        for &(f, name, recv_type) in ALL_NATIVES {
            let obj = self.alloc_immortal(ObjKind::Native(f.id()));
            if recv_type.is_empty() {
                let name_obj = self.intern_str(name);
                let builtins = self.builtins;
                let ObjKind::Dict(d) = &mut self.obj_mut(builtins).kind else {
                    unreachable!("builtins is a dict")
                };
                d.insert(Key::Str(Rc::from(name)), name_obj, obj, &mut probes);
            } else {
                // Leak the name into a &'static str via the table constant.
                self.natives.methods.insert((recv_type, name), obj);
            }
        }
        // The builtins dict gets its backing buffer lazily-but-silently.
        let builtins = self.builtins;
        let cap = match self.kind(builtins) {
            ObjKind::Dict(d) => d.capacity() as u64,
            _ => 8,
        };
        let buf = self.alloc_immortal(ObjKind::Buffer { bytes: cap * 24 });
        self.obj_mut(builtins).buffer = Some(buf);
        // Globals buffer too.
        let globals = self.globals;
        let buf = self.alloc_immortal(ObjKind::Buffer { bytes: 8 * 24 });
        self.obj_mut(globals).buffer = Some(buf);
    }

    /// Invokes a native function: crosses the modeled C calling
    /// convention, runs the body in the native-library phase, and returns
    /// an owned result. `recv` and `args` are borrowed.
    pub(crate) fn call_native(
        &mut self,
        id: NativeId,
        recv: Option<ObjRef>,
        args: &[ObjRef],
    ) -> Result<ObjRef, VmError> {
        self.native_call_marker();
        let f = NativeFn::from_id(id);
        // Values that escape into C code must exist in the heap.
        if let Some(r) = recv {
            self.materialize(r);
        }
        for &a in args {
            self.materialize(a);
        }
        // CPython builds an argument tuple for METH_VARARGS functions; the
        // JIT calls the C function directly.
        let args_tuple = if self.cost_mode() == CostMode::Interp {
            for &a in args {
                self.incref(a);
            }
            let t = self.alloc_obj(ObjKind::Tuple(Rc::from(args)));
            self.scratch.push(t);
            Some(t)
        } else {
            None
        };
        // The call itself: indirect through the method table.
        self.c_call(200, f.code_base(), true);
        let saved_phase = self.phase;
        let saved_cat = self.lib_cat;
        if f.is_extension_module() {
            // Extension-module code is a separate phase and the paper's
            // "C library" time.
            self.phase = Phase::NativeLib;
            self.sink.phase_change(Phase::NativeLib);
            self.lib_cat = Category::CLibrary;
        } else {
            // Core-type method bodies are the program's own work.
            self.lib_cat = Category::Execute;
        }

        let result = self.native_body(f, recv, args);

        self.phase = saved_phase;
        self.lib_cat = saved_cat;
        self.sink.phase_change(saved_phase);
        self.c_return(208);
        if let Some(t) = args_tuple {
            self.scratch.pop();
            self.decref(t);
        }
        result
    }

    /// Emits `n` units of native-body ALU work (tagged `CLibrary` for
    /// extension modules, `Execute` for core-type methods).
    pub(crate) fn lib_work(&mut self, site: u32, n: u32) {
        let cat = self.lib_cat;
        self.ealu(site + 512, cat, n);
    }

    /// Emits a native-body load.
    pub(crate) fn lib_load(&mut self, site: u32, addr: u64) {
        let cat = self.lib_cat;
        self.eload(site + 512, cat, addr);
    }

    /// Emits a native-body store.
    pub(crate) fn lib_store(&mut self, site: u32, addr: u64) {
        let cat = self.lib_cat;
        self.estore(site + 512, cat, addr);
    }

    /// Emits a native-body floating-point op.
    pub(crate) fn lib_fp(&mut self, site: u32) {
        let cat = self.lib_cat;
        self.efp(site + 512, cat);
    }

    /// An internal helper call *within* the C library (the paper: "C
    /// function call overhead exists and is still significant even in the
    /// C library code").
    pub(crate) fn lib_call(&mut self, site: u32, f: NativeFn) {
        self.c_call(site + 512, f.code_base() + 0x100, false);
    }

    /// Matching return for [`Vm::lib_call`].
    pub(crate) fn lib_ret(&mut self, site: u32) {
        self.c_return(site + 512);
    }

    fn arity_err(&self, name: &str, args: &[ObjRef]) -> VmError {
        self.err_here(format!("TypeError: {name}() got {} arguments", args.len()))
    }

    fn native_body(
        &mut self,
        f: NativeFn,
        recv: Option<ObjRef>,
        args: &[ObjRef],
    ) -> Result<ObjRef, VmError> {
        match f {
            NativeFn::Print => {
                let parts: Vec<String> =
                    args.iter().map(|&a| self.display_string(a)).collect();
                let line = parts.join(" ");
                self.lib_work(0, (line.len() as u32).min(256));
                self.output.push(line);
                let n = self.none();
                self.incref(n);
                Ok(n)
            }
            NativeFn::Len => {
                let [a] = args else { return Err(self.arity_err("len", args)) };
                self.lib_load(0, self.obj_addr(*a) + 16);
                let n = match self.kind(*a) {
                    ObjKind::List(v) => v.len() as i64,
                    ObjKind::Tuple(v) => v.len() as i64,
                    ObjKind::Str(s) => s.len() as i64,
                    ObjKind::Dict(d) => d.len() as i64,
                    ObjKind::Range { start, stop, step } => {
                        if *step > 0 {
                            ((stop - start).max(0) + step - 1) / step
                        } else {
                            ((start - stop).max(0) + (-step) - 1) / (-step)
                        }
                    }
                    other => {
                        return Err(self.err_here(format!(
                            "TypeError: object of type '{}' has no len()",
                            other.type_name()
                        )))
                    }
                };
                Ok(self.make_int(n))
            }
            NativeFn::Range => {
                let (start, stop, step) = match args {
                    [stop] => (0, self.need_int(*stop)?, 1),
                    [start, stop] => (self.need_int(*start)?, self.need_int(*stop)?, 1),
                    [start, stop, step] => {
                        let step = self.need_int(*step)?;
                        if step == 0 {
                            return Err(self.err_here("ValueError: range() step must not be zero"));
                        }
                        (self.need_int(*start)?, self.need_int(*stop)?, step)
                    }
                    _ => return Err(self.arity_err("range", args)),
                };
                self.lib_work(0, 3);
                Ok(self.alloc_obj(ObjKind::Range { start, stop, step }))
            }
            NativeFn::Abs => {
                let [a] = args else { return Err(self.arity_err("abs", args)) };
                self.lib_work(0, 1);
                match self.kind(*a).clone() {
                    ObjKind::Int(v) => Ok(self.make_int(v.abs())),
                    ObjKind::Float(v) => Ok(self.make_float(v.abs())),
                    other => Err(self.err_here(format!(
                        "TypeError: bad operand type for abs(): '{}'",
                        other.type_name()
                    ))),
                }
            }
            NativeFn::Min | NativeFn::Max => {
                let items: Vec<ObjRef> = match args {
                    [one] => match self.kind(*one) {
                        ObjKind::List(v) => v.clone(),
                        ObjKind::Tuple(v) => v.iter().copied().collect(),
                        _ => args.to_vec(),
                    },
                    _ => args.to_vec(),
                };
                if items.is_empty() {
                    return Err(self.err_here("ValueError: min()/max() of empty sequence"));
                }
                let mut best = items[0];
                for &x in &items[1..] {
                    self.lib_load(0, self.obj_addr(x) + 8);
                    self.lib_work(1, 1);
                    let take = match (self.as_float(x), self.as_float(best)) {
                        (Some(a), Some(b)) => {
                            if f == NativeFn::Min {
                                a < b
                            } else {
                                a > b
                            }
                        }
                        _ => false,
                    };
                    if take {
                        best = x;
                    }
                }
                self.incref(best);
                Ok(best)
            }
            NativeFn::Sum => {
                let [a] = args else { return Err(self.arity_err("sum", args)) };
                let items: Vec<ObjRef> = match self.kind(*a) {
                    ObjKind::List(v) => v.clone(),
                    ObjKind::Tuple(v) => v.iter().copied().collect(),
                    _ => return Err(self.err_here("TypeError: sum() needs a sequence")),
                };
                let mut int_acc: i64 = 0;
                let mut float_acc: f64 = 0.0;
                let mut is_float = false;
                for &x in &items {
                    self.lib_load(0, self.obj_addr(x) + 8);
                    self.lib_work(1, 1);
                    match self.kind(x) {
                        ObjKind::Int(v) => int_acc = int_acc.wrapping_add(*v),
                        ObjKind::Bool(b) => int_acc += *b as i64,
                        ObjKind::Float(v) => {
                            is_float = true;
                            float_acc += v;
                        }
                        other => {
                            return Err(self.err_here(format!(
                                "TypeError: unsupported sum element '{}'",
                                other.type_name()
                            )))
                        }
                    }
                }
                if is_float {
                    Ok(self.make_float(float_acc + int_acc as f64))
                } else {
                    Ok(self.make_int(int_acc))
                }
            }
            NativeFn::Ord => {
                let [a] = args else { return Err(self.arity_err("ord", args)) };
                let ObjKind::Str(s) = self.kind(*a) else {
                    return Err(self.err_here("TypeError: ord() expects a string"));
                };
                let Some(c) = s.bytes().next() else {
                    return Err(self.err_here("TypeError: ord() expects a character"));
                };
                self.lib_load(0, self.obj_addr(*a) + 48);
                Ok(self.make_int(c as i64))
            }
            NativeFn::Chr => {
                let [a] = args else { return Err(self.arity_err("chr", args)) };
                let v = self.need_int(*a)?;
                if !(0..=127).contains(&v) {
                    return Err(self.err_here("ValueError: chr() arg not in range(128)"));
                }
                self.lib_work(0, 2);
                let s: Rc<str> = Rc::from((v as u8 as char).to_string().as_str());
                Ok(self.alloc_obj(ObjKind::Str(s)))
            }
            NativeFn::IntCast => {
                let [a] = args else { return Err(self.arity_err("int", args)) };
                self.lib_work(0, 2);
                match self.kind(*a).clone() {
                    ObjKind::Int(v) => Ok(self.make_int(v)),
                    ObjKind::Bool(b) => Ok(self.make_int(b as i64)),
                    ObjKind::Float(v) => Ok(self.make_int(v.trunc() as i64)),
                    ObjKind::Str(s) => {
                        self.lib_work(1, s.len().min(32) as u32);
                        let v: i64 = s.trim().parse().map_err(|_| {
                            self.err_here(format!("ValueError: invalid int literal: '{s}'"))
                        })?;
                        Ok(self.make_int(v))
                    }
                    other => Err(self.err_here(format!(
                        "TypeError: int() can't convert '{}'",
                        other.type_name()
                    ))),
                }
            }
            NativeFn::FloatCast => {
                let [a] = args else { return Err(self.arity_err("float", args)) };
                self.lib_work(0, 2);
                match self.kind(*a).clone() {
                    ObjKind::Int(v) => Ok(self.make_float(v as f64)),
                    ObjKind::Bool(b) => Ok(self.make_float(b as i64 as f64)),
                    ObjKind::Float(v) => Ok(self.make_float(v)),
                    ObjKind::Str(s) => {
                        self.lib_work(1, s.len().min(32) as u32);
                        let v: f64 = s.trim().parse().map_err(|_| {
                            self.err_here(format!("ValueError: invalid float literal: '{s}'"))
                        })?;
                        Ok(self.make_float(v))
                    }
                    other => Err(self.err_here(format!(
                        "TypeError: float() can't convert '{}'",
                        other.type_name()
                    ))),
                }
            }
            NativeFn::StrCast => {
                let [a] = args else { return Err(self.arity_err("str", args)) };
                let s = self.display_string(*a);
                self.lib_work(0, (s.len() as u32).min(128));
                Ok(self.alloc_obj(ObjKind::Str(Rc::from(s.as_str()))))
            }
            NativeFn::Sqrt | NativeFn::Sin | NativeFn::Cos | NativeFn::Exp | NativeFn::Log
            | NativeFn::Floor => {
                let [a] = args else { return Err(self.arity_err("math", args)) };
                let Some(v) = self.as_float(*a) else {
                    return Err(self.err_here("TypeError: a float is required"));
                };
                // libm-ish cost.
                for i in 0..8 {
                    self.lib_fp(i);
                }
                let r = match f {
                    NativeFn::Sqrt => {
                        if v < 0.0 {
                            return Err(self.err_here("ValueError: math domain error"));
                        }
                        v.sqrt()
                    }
                    NativeFn::Sin => v.sin(),
                    NativeFn::Cos => v.cos(),
                    NativeFn::Exp => v.exp(),
                    NativeFn::Log => {
                        if v <= 0.0 {
                            return Err(self.err_here("ValueError: math domain error"));
                        }
                        v.ln()
                    }
                    NativeFn::Floor => v.floor(),
                    other => {
                        return Err(self.err_here(format!(
                            "internal error: {other:?} routed to unary float dispatch"
                        )))
                    }
                };
                Ok(self.make_float(r))
            }
            NativeFn::RandSeed => {
                let [a] = args else { return Err(self.arity_err("rand_seed", args)) };
                let v = self.need_int(*a)?;
                self.natives.rng_state = (v as u64) | 1;
                self.lib_work(0, 2);
                let n = self.none();
                self.incref(n);
                Ok(n)
            }
            NativeFn::Rand => {
                let x = self.next_rand();
                self.lib_work(0, 4);
                Ok(self.make_float((x >> 11) as f64 / (1u64 << 53) as f64))
            }
            NativeFn::RandInt => {
                let [lo, hi] = args else { return Err(self.arity_err("randint", args)) };
                let lo = self.need_int(*lo)?;
                let hi = self.need_int(*hi)?;
                if hi < lo {
                    return Err(self.err_here("ValueError: randint range is empty"));
                }
                let x = self.next_rand();
                self.lib_work(0, 5);
                let span = (hi - lo + 1) as u64;
                Ok(self.make_int(lo + (x % span) as i64))
            }
            // Heavy modules in native_lib.rs:
            NativeFn::JsonDumps
            | NativeFn::JsonLoads
            | NativeFn::PickleDumps
            | NativeFn::PickleLoads
            | NativeFn::ReSearch
            | NativeFn::ReMatch
            | NativeFn::ReFindall
            | NativeFn::Crc32
            | NativeFn::Md5
            | NativeFn::Compress => self.native_lib_body(f, args),
            // Methods:
            _ => self.native_method_body(f, recv, args),
        }
    }

    pub(crate) fn next_rand(&mut self) -> u64 {
        // xorshift64*
        let mut x = self.natives.rng_state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.natives.rng_state = x;
        x.wrapping_mul(0x2545F4914F6CDD1D)
    }

    pub(crate) fn need_int(&self, r: ObjRef) -> Result<i64, VmError> {
        match self.kind(r) {
            ObjKind::Int(v) => Ok(*v),
            ObjKind::Bool(b) => Ok(*b as i64),
            other => Err(self.err_here(format!(
                "TypeError: an integer is required, got '{}'",
                other.type_name()
            ))),
        }
    }

    pub(crate) fn need_str(&self, r: ObjRef) -> Result<Rc<str>, VmError> {
        match self.kind(r) {
            ObjKind::Str(s) => Ok(Rc::clone(s)),
            other => Err(self.err_here(format!(
                "TypeError: a string is required, got '{}'",
                other.type_name()
            ))),
        }
    }

    fn need_recv(&self, recv: Option<ObjRef>, what: &str) -> Result<ObjRef, VmError> {
        recv.ok_or_else(|| self.err_here(format!("TypeError: {what} method needs a receiver")))
    }

    fn native_method_body(
        &mut self,
        f: NativeFn,
        recv: Option<ObjRef>,
        args: &[ObjRef],
    ) -> Result<ObjRef, VmError> {
        match f {
            // ---- list methods ------------------------------------------------
            NativeFn::ListAppend => {
                let recv = self.need_recv(recv, "list")?;
                let [item] = args else { return Err(self.arity_err("append", args)) };
                self.materialize(*item);
                self.incref(*item);
                {
                    let ObjKind::List(v) = &mut self.obj_mut(recv).kind else {
                        return Err(self.err_here("TypeError: append on non-list"));
                    };
                    v.push(*item);
                }
                let len = match self.kind(recv) {
                    ObjKind::List(v) => v.len() as u64,
                    _ => 0,
                };
                self.maybe_grow_list(recv);
                let base = self.buffer_addr(recv);
                self.lib_store(0, base + (len - 1) * 8);
                self.lib_store(1, self.obj_addr(recv) + 16);
                self.write_barrier(recv, *item);
                let n = self.none();
                self.incref(n);
                Ok(n)
            }
            NativeFn::ListPop => {
                let recv = self.need_recv(recv, "list")?;
                let idx = match args {
                    [] => None,
                    [i] => Some(self.need_int(*i)?),
                    _ => return Err(self.arity_err("pop", args)),
                };
                let popped = {
                    let ObjKind::List(v) = &mut self.obj_mut(recv).kind else {
                        return Err(self.err_here("TypeError: pop on non-list"));
                    };
                    if v.is_empty() {
                        None
                    } else {
                        match idx {
                            None => v.pop(),
                            Some(i) => {
                                let i = if i < 0 { i + v.len() as i64 } else { i };
                                if i < 0 || i >= v.len() as i64 {
                                    None
                                } else {
                                    Some(v.remove(i as usize))
                                }
                            }
                        }
                    }
                };
                let base = self.buffer_addr(recv);
                self.lib_load(0, base);
                self.lib_store(1, self.obj_addr(recv) + 16);
                popped.ok_or_else(|| self.err_here("IndexError: pop from empty list"))
            }
            NativeFn::ListSort => {
                let recv = self.need_recv(recv, "list")?;
                self.list_sort(recv)
            }
            NativeFn::ListReverse => {
                let recv = self.need_recv(recv, "list")?;
                let len = {
                    let ObjKind::List(v) = &mut self.obj_mut(recv).kind else {
                        return Err(self.err_here("TypeError: reverse on non-list"));
                    };
                    v.reverse();
                    v.len() as u64
                };
                let base = self.buffer_addr(recv);
                for i in 0..(len / 2).min(2048) {
                    self.lib_load(0, base + i * 8);
                    self.lib_store(1, base + (len - 1 - i) * 8);
                }
                let n = self.none();
                self.incref(n);
                Ok(n)
            }
            NativeFn::ListExtend => {
                let recv = self.need_recv(recv, "list")?;
                let [other] = args else { return Err(self.arity_err("extend", args)) };
                let items: Vec<ObjRef> = match self.kind(*other) {
                    ObjKind::List(v) => v.clone(),
                    ObjKind::Tuple(v) => v.iter().copied().collect(),
                    _ => return Err(self.err_here("TypeError: extend needs a sequence")),
                };
                for &i in &items {
                    self.materialize(i);
                    self.incref(i);
                    self.write_barrier(recv, i);
                }
                let n_new = items.len() as u64;
                {
                    let ObjKind::List(v) = &mut self.obj_mut(recv).kind else {
                        return Err(self.err_here("TypeError: extend on non-list"));
                    };
                    v.extend(items);
                }
                self.maybe_grow_list(recv);
                let base = self.buffer_addr(recv);
                for i in 0..n_new.min(2048) {
                    self.lib_store(0, base + i * 8);
                }
                let n = self.none();
                self.incref(n);
                Ok(n)
            }
            NativeFn::ListInsert => {
                let recv = self.need_recv(recv, "list")?;
                let [pos, item] = args else { return Err(self.arity_err("insert", args)) };
                let pos = self.need_int(*pos)?;
                self.materialize(*item);
                self.incref(*item);
                let shifted = {
                    let ObjKind::List(v) = &mut self.obj_mut(recv).kind else {
                        return Err(self.err_here("TypeError: insert on non-list"));
                    };
                    let i = pos.clamp(0, v.len() as i64) as usize;
                    v.insert(i, *item);
                    v.len() - i
                };
                self.maybe_grow_list(recv);
                let base = self.buffer_addr(recv);
                for i in 0..(shifted as u64).min(2048) {
                    self.lib_load(0, base + i * 8);
                    self.lib_store(1, base + i * 8 + 8);
                }
                self.write_barrier(recv, *item);
                let n = self.none();
                self.incref(n);
                Ok(n)
            }
            NativeFn::ListIndex => {
                let recv = self.need_recv(recv, "list")?;
                let [item] = args else { return Err(self.arity_err("index", args)) };
                let items = match self.kind(recv) {
                    ObjKind::List(v) => v.clone(),
                    _ => return Err(self.err_here("TypeError: index on non-list")),
                };
                let base = self.buffer_addr(recv);
                for (i, &e) in items.iter().enumerate() {
                    self.lib_load(0, base + (i as u64) * 8);
                    self.lib_work(1, 1);
                    if self.value_eq(e, *item) {
                        return Ok(self.make_int(i as i64));
                    }
                }
                Err(self.err_here("ValueError: value not in list"))
            }
            NativeFn::ListCount => {
                let recv = self.need_recv(recv, "list")?;
                let [item] = args else { return Err(self.arity_err("count", args)) };
                let items = match self.kind(recv) {
                    ObjKind::List(v) => v.clone(),
                    _ => return Err(self.err_here("TypeError: count on non-list")),
                };
                let base = self.buffer_addr(recv);
                let mut n = 0;
                for (i, &e) in items.iter().enumerate() {
                    self.lib_load(0, base + (i as u64) * 8);
                    self.lib_work(1, 1);
                    if self.value_eq(e, *item) {
                        n += 1;
                    }
                }
                Ok(self.make_int(n))
            }
            NativeFn::ListRemove => {
                let recv = self.need_recv(recv, "list")?;
                let [item] = args else { return Err(self.arity_err("remove", args)) };
                let items = match self.kind(recv) {
                    ObjKind::List(v) => v.clone(),
                    _ => return Err(self.err_here("TypeError: remove on non-list")),
                };
                let pos = items.iter().position(|&e| self.value_eq(e, *item));
                let Some(pos) = pos else {
                    return Err(self.err_here("ValueError: list.remove(x): x not in list"));
                };
                let removed = {
                    let ObjKind::List(v) = &mut self.obj_mut(recv).kind else {
                        return Err(self.err_here("internal error: list changed kind"));
                    };
                    v.remove(pos)
                };
                let base = self.buffer_addr(recv);
                for i in pos as u64..(items.len() as u64 - 1).min(pos as u64 + 2048) {
                    self.lib_load(0, base + (i + 1) * 8);
                    self.lib_store(1, base + i * 8);
                }
                self.decref(removed);
                let n = self.none();
                self.incref(n);
                Ok(n)
            }
            // ---- dict methods ------------------------------------------------------
            NativeFn::DictGet => {
                let recv = self.need_recv(recv, "dict")?;
                let (key_obj, default) = match args {
                    [k] => (*k, None),
                    [k, d] => (*k, Some(*d)),
                    _ => return Err(self.arity_err("get", args)),
                };
                let key = self
                    .key_of(key_obj)
                    .map_err(|m| self.err_here(format!("TypeError: {m}")))?;
                let cat = self.lib_cat;
                match self.dict_lookup(recv, &key, cat) {
                    Some(v) => {
                        self.incref(v);
                        Ok(v)
                    }
                    None => {
                        let d = default.unwrap_or(self.none());
                        self.incref(d);
                        Ok(d)
                    }
                }
            }
            NativeFn::DictKeys | NativeFn::DictValues => {
                let recv = self.need_recv(recv, "dict")?;
                let items: Vec<ObjRef> = match self.kind(recv) {
                    ObjKind::Dict(d) => {
                        if f == NativeFn::DictKeys {
                            d.key_objs()
                        } else {
                            d.values()
                        }
                    }
                    _ => return Err(self.err_here("TypeError: keys()/values() on non-dict")),
                };
                let base = self.buffer_addr(recv);
                for (i, &v) in items.iter().enumerate() {
                    self.lib_load(0, base + (i as u64) * 24);
                    self.incref(v);
                }
                let n = items.len();
                let list = self.alloc_obj(ObjKind::List(items));
                self.attach_list_buffer(list, n);
                Ok(list)
            }
            NativeFn::DictItems => {
                let recv = self.need_recv(recv, "dict")?;
                let pairs: Vec<(ObjRef, ObjRef)> = match self.kind(recv) {
                    ObjKind::Dict(d) => d.iter().collect(),
                    _ => return Err(self.err_here("TypeError: items() on non-dict")),
                };
                let base = self.buffer_addr(recv);
                let mut tuples = Vec::with_capacity(pairs.len());
                for (i, (k, v)) in pairs.iter().enumerate() {
                    self.lib_load(0, base + (i as u64) * 24);
                    self.incref(*k);
                    self.incref(*v);
                    self.scratch.push(*k);
                    self.scratch.push(*v);
                    let t = self.alloc_obj(ObjKind::Tuple(vec![*k, *v].into()));
                    self.scratch.truncate(self.scratch.len() - 2);
                    self.scratch.push(t);
                    tuples.push(t);
                }
                let n = tuples.len();
                let list = self.alloc_obj(ObjKind::List(tuples));
                self.scratch.truncate(self.scratch.len() - n);
                self.attach_list_buffer(list, n);
                Ok(list)
            }
            NativeFn::DictUpdate => {
                let recv = self.need_recv(recv, "dict")?;
                let [other] = args else { return Err(self.arity_err("update", args)) };
                let pairs: Vec<(ObjRef, ObjRef)> = match self.kind(*other) {
                    ObjKind::Dict(d) => d.iter().collect(),
                    _ => return Err(self.err_here("TypeError: update needs a dict")),
                };
                for (k, v) in pairs {
                    let key = self
                        .key_of(k)
                        .map_err(|m| self.err_here(format!("TypeError: {m}")))?;
                    self.incref(v);
                    let cat = self.lib_cat;
                    self.dict_insert(recv, key, k, v, cat)?;
                }
                let n = self.none();
                self.incref(n);
                Ok(n)
            }
            NativeFn::DictPop => {
                let recv = self.need_recv(recv, "dict")?;
                let [k] = args else { return Err(self.arity_err("pop", args)) };
                let key = self
                    .key_of(*k)
                    .map_err(|m| self.err_here(format!("TypeError: {m}")))?;
                let cat = self.lib_cat;
                match self.dict_remove(recv, &key, cat) {
                    Some(v) => Ok(v),
                    None => Err(self.err_here("KeyError: pop")),
                }
            }
            // ---- str methods ---------------------------------------------------------
            NativeFn::StrUpper | NativeFn::StrLower => {
                let recv = self.need_recv(recv, "str")?;
                let s = self.need_str(recv)?;
                let base = self.obj_addr(recv) + 48;
                for i in 0..(s.len() as u64 / 8 + 1).min(512) {
                    self.lib_load(0, base + i * 8);
                }
                let out = if f == NativeFn::StrUpper {
                    s.to_uppercase()
                } else {
                    s.to_lowercase()
                };
                Ok(self.alloc_obj(ObjKind::Str(Rc::from(out.as_str()))))
            }
            NativeFn::StrSplit => {
                let recv = self.need_recv(recv, "str")?;
                let s = self.need_str(recv)?;
                let parts: Vec<String> = match args {
                    [] => s.split_whitespace().map(str::to_owned).collect(),
                    [sep] => {
                        let sep = self.need_str(*sep)?;
                        s.split(sep.as_ref()).map(str::to_owned).collect()
                    }
                    _ => return Err(self.arity_err("split", args)),
                };
                let base = self.obj_addr(recv) + 48;
                for i in 0..(s.len() as u64 / 8 + 1).min(512) {
                    self.lib_load(0, base + i * 8);
                }
                let mark = self.scratch.len();
                for p in &parts {
                    let o = self.alloc_obj(ObjKind::Str(Rc::from(p.as_str())));
                    self.scratch.push(o);
                }
                let items: Vec<ObjRef> = self.scratch[mark..].to_vec();
                let n = items.len();
                let list = self.alloc_obj(ObjKind::List(items));
                self.scratch.truncate(mark);
                self.attach_list_buffer(list, n);
                Ok(list)
            }
            NativeFn::StrJoin => {
                let recv = self.need_recv(recv, "str")?;
                let sep = self.need_str(recv)?;
                let [seq] = args else { return Err(self.arity_err("join", args)) };
                let items: Vec<ObjRef> = match self.kind(*seq) {
                    ObjKind::List(v) => v.clone(),
                    ObjKind::Tuple(v) => v.iter().copied().collect(),
                    _ => return Err(self.err_here("TypeError: join needs a sequence")),
                };
                let mut out = String::new();
                for (i, &item) in items.iter().enumerate() {
                    let part = match self.kind(item) {
                        ObjKind::Str(p) => Rc::clone(p),
                        _ => return Err(self.err_here("TypeError: join needs strings")),
                    };
                    if i > 0 {
                        out.push_str(&sep);
                    }
                    out.push_str(&part);
                    self.lib_load(0, self.obj_addr(item) + 48);
                    self.lib_work(1, (part.len() as u32 / 8 + 1).min(64));
                }
                let r = self.alloc_obj(ObjKind::Str(Rc::from(out.as_str())));
                let ra = self.obj_addr(r) + 48;
                for i in 0..(out.len() as u64 / 8).min(512) {
                    self.lib_store(2, ra + i * 8);
                }
                Ok(r)
            }
            NativeFn::StrStrip => {
                let recv = self.need_recv(recv, "str")?;
                let s = self.need_str(recv)?;
                self.lib_work(0, (s.len() as u32 / 4 + 2).min(64));
                Ok(self.alloc_obj(ObjKind::Str(Rc::from(s.trim()))))
            }
            NativeFn::StrReplace => {
                let recv = self.need_recv(recv, "str")?;
                let s = self.need_str(recv)?;
                let [from, to] = args else { return Err(self.arity_err("replace", args)) };
                let from = self.need_str(*from)?;
                let to = self.need_str(*to)?;
                let base = self.obj_addr(recv) + 48;
                for i in 0..(s.len() as u64 / 8 + 1).min(512) {
                    self.lib_load(0, base + i * 8);
                    self.lib_work(1, 1);
                }
                let out = s.replace(from.as_ref(), to.as_ref());
                Ok(self.alloc_obj(ObjKind::Str(Rc::from(out.as_str()))))
            }
            NativeFn::StrFind => {
                let recv = self.need_recv(recv, "str")?;
                let s = self.need_str(recv)?;
                let [needle] = args else { return Err(self.arity_err("find", args)) };
                let needle = self.need_str(*needle)?;
                let base = self.obj_addr(recv) + 48;
                for i in 0..(s.len() as u64 / 8 + 1).min(512) {
                    self.lib_load(0, base + i * 8);
                }
                let pos = s.find(needle.as_ref()).map(|p| p as i64).unwrap_or(-1);
                Ok(self.make_int(pos))
            }
            NativeFn::StrStartswith | NativeFn::StrEndswith => {
                let recv = self.need_recv(recv, "str")?;
                let s = self.need_str(recv)?;
                let [p] = args else { return Err(self.arity_err("startswith", args)) };
                let p = self.need_str(*p)?;
                self.lib_work(0, (p.len() as u32 / 4 + 1).min(32));
                self.lib_load(1, self.obj_addr(recv) + 48);
                let r = if f == NativeFn::StrStartswith {
                    s.starts_with(p.as_ref())
                } else {
                    s.ends_with(p.as_ref())
                };
                let b = self.bool_ref(r);
                self.incref(b);
                Ok(b)
            }
            other => Err(self.err_here(format!("internal: unrouted native {other:?}"))),
        }
    }

    /// In-place merge sort with per-comparison emission.
    fn list_sort(&mut self, recv: ObjRef) -> Result<ObjRef, VmError> {
        let mut items = match self.kind(recv) {
            ObjKind::List(v) => v.clone(),
            _ => return Err(self.err_here("TypeError: sort on non-list")),
        };
        let base = self.buffer_addr(recv);
        // Merge sort so the comparison and movement costs are explicit.
        let mut width = 1;
        let n = items.len();
        let mut buf = items.clone();
        while width < n {
            let mut lo = 0;
            while lo < n {
                let mid = (lo + width).min(n);
                let hi = (lo + 2 * width).min(n);
                let (mut i, mut j, mut k) = (lo, mid, lo);
                while i < mid && j < hi {
                    self.lib_load(0, base + (i as u64 % 4096) * 8);
                    self.lib_load(1, base + (j as u64 % 4096) * 8);
                    self.lib_work(2, 1);
                    let le = self.sort_le(items[i], items[j]);
                    if le {
                        buf[k] = items[i];
                        i += 1;
                    } else {
                        buf[k] = items[j];
                        j += 1;
                    }
                    k += 1;
                }
                while i < mid {
                    buf[k] = items[i];
                    i += 1;
                    k += 1;
                }
                while j < hi {
                    buf[k] = items[j];
                    j += 1;
                    k += 1;
                }
                for x in lo..hi {
                    self.lib_store(3, base + (x as u64 % 4096) * 8);
                }
                lo = hi;
            }
            std::mem::swap(&mut items, &mut buf);
            width *= 2;
        }
        {
            let ObjKind::List(v) = &mut self.obj_mut(recv).kind else {
                return Err(self.err_here("internal error: list changed kind"));
            };
            *v = items;
        }
        let none = self.none();
        self.incref(none);
        Ok(none)
    }

    fn sort_le(&self, a: ObjRef, b: ObjRef) -> bool {
        match (self.kind(a), self.kind(b)) {
            (ObjKind::Str(x), ObjKind::Str(y)) => x <= y,
            (ObjKind::Tuple(x), ObjKind::Tuple(y)) => {
                for (&p, &q) in x.iter().zip(y.iter()) {
                    if self.value_eq(p, q) {
                        continue;
                    }
                    return self.sort_le(p, q);
                }
                x.len() <= y.len()
            }
            _ => match (self.as_float_quiet(a), self.as_float_quiet(b)) {
                (Some(x), Some(y)) => x <= y,
                _ => true,
            },
        }
    }

    fn as_float_quiet(&self, r: ObjRef) -> Option<f64> {
        match self.kind(r) {
            ObjKind::Float(v) => Some(*v),
            ObjKind::Int(v) => Some(*v as f64),
            ObjKind::Bool(b) => Some(*b as i64 as f64),
            _ => None,
        }
    }

    /// The entry in slot `slot` of dict `dict` (see [`crate::dict::DictObj::entry`]);
    /// `None` for an empty slot or a non-dict.
    pub(crate) fn dict_entry(&self, dict: ObjRef, slot: usize) -> Option<(ObjRef, ObjRef)> {
        match self.kind(dict) {
            ObjKind::Dict(d) => d.entry(slot),
            _ => None,
        }
    }

    /// Builds a fresh iterator object over a snapshot (test helper).
    #[doc(hidden)]
    pub fn debug_make_keys_iter(&mut self, keys: Vec<ObjRef>) -> ObjRef {
        self.alloc_obj(ObjKind::Iter(IterState::Keys { keys: keys.into(), index: 0 }))
    }
}
