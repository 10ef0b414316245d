//! Static overhead-category annotation, derived from the handlers.
//!
//! The paper labels interpreter code statically and weighs the labels by
//! executed cycles (§IV-A). Here [`instr_profile`] is the Table II
//! category profile of one guest instruction, and [`static_shares`] sums
//! it over a program with every instruction weighted equally, for
//! `fig04-static` and the fusible-sequence lint.
//!
//! No count is written down here: a profile counts the micro-ops that
//! executing the instruction once through [`Vm::step`] emits, so a
//! handler edit reaches every consumer. The canonical frame: refcounting
//! heap, [`CostMode::Interp`](crate::CostMode::Interp), code loaded with
//! [`Vm::load_verified`] (no dispatch guards), and the instruction is the
//! first with its opcode that a code object named `canon` executes:
//!
//! * `canon(a, b, xs, o)` gets `a = 1000`, `b = 2000` (ints outside the
//!   small-int cache), `xs = [1000, 2000]`, and an instance `o` with
//!   `o.x = 1000`. The module holds `xs` and `o` too, so no decref of a
//!   local frees anything, even when `canon` returns.
//! * Arithmetic is int ⊗ int on `a` and `b`, or on `a` and a small
//!   constant where `b` would overflow or land in the small-int cache, so
//!   every result is freshly boxed. Comparisons are `a < b`, whatever the
//!   `CompareOp` argument; conditional jumps test that bool.
//! * Dict lookups hit on the first probe: the global `g`, and `o.x` in
//!   the instance dict. Stores overwrite, except that `StoreName` binds a
//!   fresh name in a class body that `LoadName` then reads back.
//! * Subscripts are `list[int]` on `xs` (also `del xs[0]`, `xs[0:1]`).
//! * `for x in xs` gives `SetupLoop`, `GetIter`, a `ForIter` continuing
//!   over the list, `PopBlock` and `BreakLoop`. Both short-circuit
//!   operators fall through to their right operand.
//! * `CallFunction` calls a Python function; `ReturnValue` returns from
//!   `canon`. Opcodes whose cost grows with their argument (`BuildList`,
//!   `BuildTuple`, `BuildMap`, `UnpackSequence`, `CallFunction`,
//!   `MakeFunction`) run at the instruction's own argument; any other
//!   argument only names an operand and is ignored.
//! * Fused opcodes come from the same module optimized at
//!   [`MAX_OPT_LEVEL`]. The compiler never emits `Nop` or
//!   `PopJumpIfTrue` (on `True`), so they run in a hand-built module.
//!
//! Profiles are memoized per thread.

use crate::vm::{StepEvent, Vm, VmConfig};
use qoa_analysis::MAX_OPT_LEVEL;
use qoa_frontend::{CodeKind, CodeObject, Const, Instr, Opcode};
use qoa_model::{CategoryMap, CountingSink};
use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

/// Whether `op`'s argument is a count its cost grows with.
fn arg_sets_cost(op: Opcode) -> bool {
    use Opcode as O;
    matches!(
        op,
        O::BuildList | O::BuildTuple | O::BuildMap | O::UnpackSequence | O::CallFunction | O::MakeFunction
    )
}

/// The body of `canon` that executes `op` (with count argument `n`).
fn canon_body(op: Opcode, n: usize) -> String {
    use Opcode as O;
    let each = |f: &dyn Fn(usize) -> String| (0..n).map(|i| f(i) + ", ").collect::<String>();
    let a = |_| "a".to_string();
    let body = match op {
        O::LoadConst => "1000",
        O::PopTop | O::LoadFast => "a",
        O::DupTop | O::RotTwo => "o.x += a",
        O::DupTopTwo | O::RotThree => "xs[0] += a",
        O::StoreFast => "a = b",
        O::LoadGlobal => "g",
        O::StoreGlobal => "global g\n    g = b",
        O::LoadName | O::StoreName => "class canon:\n        y = 1000\n        z = y",
        O::LoadAttr => "o.x",
        O::StoreAttr => "o.x = b",
        O::BinarySubscr => "xs[0]",
        O::StoreSubscr => "xs[0] = b",
        O::DeleteSubscr => "del xs[0]",
        O::BinaryAdd | O::AddFastFast => "a + b",
        O::BinarySubtract | O::LoadFastLoadFast => "a - b",
        O::BinaryMultiply => "a * b",
        O::BinaryDivide => "a / 3",
        O::BinaryFloorDivide => "a // 3",
        O::BinaryModulo => "a % 700",
        O::BinaryPower => "a ** 2",
        O::BinaryAnd => "a & b",
        O::BinaryOr => "a | b",
        O::BinaryXor => "a ^ b",
        O::BinaryLshift => "a << 3",
        O::BinaryRshift => "a >> 1",
        O::UnaryNegative => "-a",
        O::UnaryInvert => "~a",
        O::UnaryNot => "not a",
        O::CompareOp => "a < b",
        O::PopJumpIfFalse => "if a < b:\n        a",
        O::JumpAbsolute => "if a < b:\n        a\n    else:\n        b",
        O::JumpIfFalseOrPop => "a and b",
        O::JumpIfTrueOrPop => "0 or b",
        O::SetupLoop | O::GetIter | O::ForIter | O::PopBlock => "for x in xs:\n        a",
        O::BreakLoop => "for x in xs:\n        break",
        O::BuildSlice => "xs[0:1]",
        O::ReturnValue => "return a",
        O::BuildClass => "class L:\n        pass",
        O::LoadFastLoadConst => "a - 1000",
        O::ConstCompareJump => "if g < 3000:\n        a",
        O::BuildList => return format!("[{}]", each(&a)),
        O::BuildTuple => return format!("({})", each(&a)),
        O::BuildMap => return format!("{{{}}}", each(&|i| format!("{}: a", 1000 + i))),
        O::UnpackSequence => {
            return format!("t = ({})\n    ({}) = t", each(&a), each(&|i| format!("p{i}")))
        }
        O::CallFunction => return format!("f({})", each(&a)),
        O::MakeFunction => {
            return format!("def h({}):\n        pass", each(&|i| format!("p{i}=a")))
        }
        O::Nop | O::PopJumpIfTrue => unreachable!("{op:?} has a hand-built program"),
    };
    body.to_string()
}

/// The canonical module for `op` at count argument `n`.
fn canonical_program(op: Opcode, n: usize) -> Rc<CodeObject> {
    if matches!(op, Opcode::Nop | Opcode::PopJumpIfTrue) {
        use Opcode as O;
        let code =
            [(O::LoadConst, 0), (O::PopJumpIfTrue, 2), (O::Nop, 0), (O::LoadConst, 1), (O::ReturnValue, 0)];
        return Rc::new(CodeObject {
            name: "canon".into(),
            kind: CodeKind::Module,
            argcount: 0,
            num_defaults: 0,
            varnames: vec![],
            names: vec![],
            consts: vec![Const::Bool(true), Const::None],
            code: code.into_iter().map(|(op, arg)| Instr { op, arg, line: 1 }).collect(),
            max_stack: 1,
        });
    }
    let params: Vec<String> = (0..n).map(|i| format!("p{i}")).collect();
    let src = format!(
        "class K:\n    def __init__(self):\n        self.x = 1000\n\
         g = 1000\ndef f({}):\n    return 0\ndef canon(a, b, xs, o):\n    {}\n\
         xs = [1000, 2000]\no = K()\ncanon(1000, 2000, xs, o)\n",
        params.join(", "),
        canon_body(op, n)
    );
    qoa_frontend::compile(&src).unwrap_or_else(|e| panic!("canonical {op:?} ({n}): {e}"))
}

/// Runs the canonical program up to the first `op` that `canon` executes
/// and counts the categories of the micro-ops that one step emits.
fn derive(op: Opcode, n: usize) -> CategoryMap<u64> {
    let code = canonical_program(op, n);
    // Only the optimizer emits fused opcodes.
    let unfused = code.iter_all().iter().any(|c| c.code.iter().any(|i| i.op == op));
    let level = if unfused { 0 } else { MAX_OPT_LEVEL };
    let (verified, _) = qoa_analysis::optimize(&code, level)
        .unwrap_or_else(|e| panic!("canonical {op:?} does not verify: {e}"));
    let mut vm = Vm::new(VmConfig::default(), CountingSink::new());
    vm.load_verified(&verified);
    let at_op = |vm: &Vm<CountingSink>| {
        let f = vm.frames.last();
        f.is_some_and(|f| f.code.name == "canon" && f.code.code.get(f.pc).is_some_and(|i| i.op == op))
    };
    while !at_op(&vm) {
        match vm.step() {
            Ok(StepEvent::Done) => panic!("canonical program never executes {op:?}"),
            Ok(_) => {}
            Err(e) => panic!("canonical program for {op:?} fails: {e}"),
        }
    }
    let before = vm.sink.by_category.clone();
    vm.step().unwrap_or_else(|e| panic!("canonical {op:?} fails: {e}"));
    CategoryMap::from_fn(|c| vm.sink.by_category[c] - before[c])
}

thread_local! {
    static PROFILES: RefCell<HashMap<(Opcode, u32), CategoryMap<u64>>> = RefCell::default();
}

/// The micro-op category profile of one static instruction: what the
/// interpreter emits executing it once on the canonical frame (see the
/// module docs).
///
/// # Panics
///
/// If the canonical program cannot run the instruction — only for an
/// opcode/argument shape neither the compiler nor the optimizer emits.
pub fn instr_profile(instr: Instr) -> CategoryMap<u64> {
    let key = (instr.op, if arg_sets_cost(instr.op) { instr.arg } else { 0 });
    if let Some(p) = PROFILES.with(|m| m.borrow().get(&key).cloned()) {
        return p;
    }
    let p = derive(key.0, key.1 as usize);
    PROFILES.with(|m| m.borrow_mut().insert(key, p.clone()));
    p
}

/// Sums [`instr_profile`] over every instruction of `root` and its nested
/// code objects, as per-category shares of the modeled micro-op total
/// (all zeros for an empty program).
pub fn static_shares(root: &Rc<CodeObject>) -> CategoryMap<f64> {
    let mut counts = CategoryMap::<u64>::default();
    for code in root.iter_all() {
        for &instr in &code.code {
            counts.merge(&instr_profile(instr));
        }
    }
    let total = counts.total() as f64;
    CategoryMap::from_fn(|c| if total > 0.0 { counts[c] as f64 / total } else { 0.0 })
}

#[cfg(test)]
mod tests {
    use super::*;
    use qoa_model::Category as C;

    fn profile(op: Opcode, arg: u32) -> CategoryMap<u64> {
        instr_profile(Instr { op, arg, line: 1 })
    }

    #[test]
    fn every_opcode_derives_with_the_verified_dispatch_prologue() {
        for op in Opcode::ALL {
            let p = profile(op, if arg_sets_cost(op) { 2 } else { 0 });
            assert_eq!(p[C::Dispatch], 4, "{op:?}: {p:?}");
        }
        // Nop is the bare prologue: no dispatch-guard ErrorCheck ops.
        let prologue = CategoryMap::from_fn(|c| match c {
            C::Dispatch => 4,
            C::Execute => 6,
            _ => 0,
        });
        assert_eq!(profile(Opcode::Nop, 0), prologue);
    }

    #[test]
    fn count_arguments_scale_the_profile() {
        for op in Opcode::ALL.into_iter().filter(|&op| arg_sets_cost(op)) {
            let (p1, p3) = (profile(op, 1), profile(op, 3));
            assert!(p3.total() > p1.total(), "{op:?}: {} vs {}", p3.total(), p1.total());
        }
        assert!(profile(Opcode::UnpackSequence, 0).total() > 0);
        // An argument that only names an operand does not change the cost.
        assert_eq!(profile(Opcode::LoadFast, 0), profile(Opcode::LoadFast, 3));
    }

    #[test]
    fn fusion_removes_only_interpreter_overhead() {
        use Opcode as O;
        let per_object = [
            C::GarbageCollection, C::TypeCheck, C::BoxUnbox, C::ObjectAllocation, C::ConstLoad,
            C::CFunctionCall, C::ErrorCheck,
        ];
        // The last column pins one known drift exactly: `ConstCompareJump`
        // branches on the comparison's bool without the 2-op type check
        // `PopJumpIfFalse` makes on it.
        for (fused, parts, skipped_type_checks) in [
            (O::LoadFastLoadFast, &[O::LoadFast, O::LoadFast][..], 0),
            (O::LoadFastLoadConst, &[O::LoadFast, O::LoadConst][..], 0),
            (O::AddFastFast, &[O::LoadFast, O::LoadFast, O::BinaryAdd][..], 0),
            (O::ConstCompareJump, &[O::LoadConst, O::CompareOp, O::PopJumpIfFalse][..], 2),
        ] {
            let f = profile(fused, 0);
            let mut unfused = CategoryMap::<u64>::default();
            for &op in parts {
                unfused.merge(&profile(op, 0));
            }
            unfused[C::TypeCheck] -= skipped_type_checks;
            for c in per_object {
                assert_eq!(f[c], unfused[c], "{fused:?} changes per-object {c:?}");
            }
            for c in [C::Dispatch, C::Stack, C::RegTransfer, C::Execute] {
                assert!(f[c] <= unfused[c], "{fused:?} adds {c:?}: {} > {}", f[c], unfused[c]);
            }
            assert!(f.total() < unfused.total(), "{fused:?} saves nothing");
        }
    }

    #[test]
    fn static_shares_cover_dispatch_and_sum_to_one() {
        let code = qoa_frontend::compile("t = 1 + 2\nresult = t\n").expect("compiles");
        let shares = static_shares(&code);
        assert!((shares.total() - 1.0).abs() < 1e-9);
        assert!(shares[C::Dispatch] > 0.0);
    }
}
