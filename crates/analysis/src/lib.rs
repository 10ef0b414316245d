//! Static analysis over guest bytecode: verification, lints, and the
//! optimizer.
//!
//! This crate is the static counterpart of the dynamic attribution in
//! `qoa-core`. Three passes share one CFG + abstract-interpretation
//! substrate ([`verify`]):
//!
//! 1. **Verifier** — proves stack-depth safety, jump-target validity,
//!    operand-index bounds, and block-stack consistency for every
//!    reachable path, rejecting malformed code with a typed
//!    [`VerifyError`] (span + opcode + reason). Success mints a
//!    [`Verified`] token, which is the VM's license to elide its dynamic
//!    per-dispatch guard checks (`Vm::load_verified`).
//! 2. **Lints** ([`lint`]) — dead code, constant-foldable operations,
//!    `LOAD_NAME`→`LOAD_FAST` promotion candidates, type-stable ops
//!    that a JIT would specialize, and fusible superinstruction runs
//!    (`qoa-lint`), which prices fusible runs with the [`InstrProfile`]
//!    its caller passes in (`qoa_vm::annotate`, above this crate).
//! 3. **Optimizer** ([`opt`]) — an analysis-driven pass manager that
//!    *acts* on those facts: constant folding, dead-code elimination,
//!    global→fast promotion, and superinstruction fusion, with every
//!    pass output re-verified ([`optimize`]).

#![warn(missing_docs)]

pub mod cfg;
pub mod facts;
pub mod lint;
pub mod opt;
pub mod verify;

pub use cfg::{BasicBlock, Cfg};
pub use facts::{LineFacts, StaticFacts, Verdict};
pub use lint::{InstrProfile, Lint, LintKind, Severity};
pub use opt::{
    fusion_candidates, optimize, optimize_with, FusionCandidate, OptError, OptReport, Passes,
    MAX_OPT_LEVEL,
};
pub use verify::{
    analyze, verify, verify_code, AbsVal, CodeAnalysis, EntryFacts, Origin, Ty, Verified,
    VerifyError, VerifyReason,
};

#[cfg(test)]
mod tests {
    use super::*;
    use qoa_frontend::{compile, CodeKind, CodeObject, Const, Instr, Opcode};
    use std::rc::Rc;

    fn raw(code: Vec<(Opcode, u32)>) -> Rc<CodeObject> {
        Rc::new(CodeObject {
            name: "hand".into(),
            kind: CodeKind::Function,
            argcount: 0,
            num_defaults: 0,
            varnames: vec!["x".into()],
            names: vec!["g".into()],
            consts: vec![Const::None, Const::Int(7)],
            code: code
                .into_iter()
                .map(|(op, arg)| Instr { op, arg, line: 1 })
                .collect(),
            max_stack: 8,
        })
    }

    #[test]
    fn compiler_output_verifies() {
        let src = "def f(a, b):\n    t = 0\n    for i in range(a):\n        if i % 2 == 0:\n            t = t + b\n        else:\n            t = t - 1\n    return t\nresult = f(10, 3)\n";
        let code = compile(src).expect("compiles");
        assert!(verify(&code).is_ok());
    }

    #[test]
    fn rejects_bad_jump_target() {
        let e = verify(&raw(vec![(Opcode::JumpAbsolute, 99)])).expect_err("bad jump");
        assert!(matches!(e.reason, VerifyReason::BadJump { target: 99, .. }), "{e}");
        assert_eq!(e.op, Some(Opcode::JumpAbsolute));
    }

    #[test]
    fn rejects_stack_underflow() {
        let e = verify(&raw(vec![(Opcode::BinaryAdd, 0), (Opcode::ReturnValue, 0)]))
            .expect_err("underflow");
        assert!(matches!(e.reason, VerifyReason::StackUnderflow { depth: 0, pops: 2 }), "{e}");
    }

    #[test]
    fn rejects_out_of_range_indices() {
        let e = verify(&raw(vec![(Opcode::LoadConst, 9), (Opcode::ReturnValue, 0)]))
            .expect_err("const index");
        assert!(matches!(e.reason, VerifyReason::BadConstIndex { index: 9, len: 2 }), "{e}");
        let e = verify(&raw(vec![(Opcode::LoadGlobal, 4), (Opcode::ReturnValue, 0)]))
            .expect_err("name index");
        assert!(matches!(e.reason, VerifyReason::BadNameIndex { index: 4, len: 1 }), "{e}");
        let e = verify(&raw(vec![(Opcode::LoadFast, 3), (Opcode::ReturnValue, 0)]))
            .expect_err("local index");
        assert!(matches!(e.reason, VerifyReason::BadLocalIndex { index: 3, len: 1 }), "{e}");
        let e = verify(&raw(vec![
            (Opcode::LoadConst, 1),
            (Opcode::LoadConst, 1),
            (Opcode::CompareOp, 42),
            (Opcode::ReturnValue, 0),
        ]))
        .expect_err("compare arg");
        assert!(matches!(e.reason, VerifyReason::BadCompareOp { arg: 42 }), "{e}");
    }

    #[test]
    fn rejects_falling_off_the_end_and_block_underflow() {
        let e = verify(&raw(vec![(Opcode::LoadConst, 0), (Opcode::PopTop, 0)]))
            .expect_err("falls off end");
        assert!(matches!(e.reason, VerifyReason::FallsOffEnd), "{e}");
        let e = verify(&raw(vec![(Opcode::PopBlock, 0), (Opcode::ReturnValue, 0)]))
            .expect_err("block underflow");
        assert!(matches!(e.reason, VerifyReason::BlockUnderflow), "{e}");
    }

    #[test]
    fn rejects_inconsistent_merge_depths() {
        // One arm leaves an extra operand behind before the join.
        let e = verify(&raw(vec![
            (Opcode::LoadConst, 1),
            (Opcode::PopJumpIfFalse, 4),
            (Opcode::LoadConst, 1),
            (Opcode::LoadConst, 1),
            (Opcode::LoadConst, 0), // join: depth 0 vs 2
            (Opcode::ReturnValue, 0),
        ]))
        .expect_err("depth mismatch");
        assert!(matches!(e.reason, VerifyReason::DepthMismatch { .. }), "{e}");
    }

    #[test]
    fn rejects_exceeding_declared_max_stack() {
        let mut code = (*raw(vec![
            (Opcode::LoadConst, 1),
            (Opcode::LoadConst, 1),
            (Opcode::LoadConst, 1),
            (Opcode::ReturnValue, 0),
        ]))
        .clone();
        code.max_stack = 2;
        let e = verify(&Rc::new(code)).expect_err("declared bound");
        assert!(
            matches!(e.reason, VerifyReason::ExceedsDeclaredMax { depth: 3, declared: 2 }),
            "{e}"
        );
    }

    #[test]
    fn verifies_nested_code_objects() {
        // The module verifies but the nested function is malformed.
        let inner = raw(vec![(Opcode::BinaryAdd, 0), (Opcode::ReturnValue, 0)]);
        let outer = Rc::new(CodeObject {
            name: "<module>".into(),
            kind: CodeKind::Module,
            argcount: 0,
            num_defaults: 0,
            varnames: vec![],
            names: vec![],
            consts: vec![Const::Code(Rc::clone(&inner)), Const::None],
            code: vec![
                Instr { op: Opcode::LoadConst, arg: 1, line: 1 },
                Instr { op: Opcode::ReturnValue, arg: 0, line: 1 },
            ],
            max_stack: 1,
        });
        let e = verify(&outer).expect_err("nested rejection");
        assert_eq!(e.code, "hand");
    }

    #[test]
    fn derived_depth_matches_declared_for_compiled_code() {
        let src = "xs = [1, 2, 3]\nt = 0\nfor x in xs:\n    t = t + x * (x + 1)\nresult = t\n";
        let code = compile(src).expect("compiles");
        for c in code.iter_all() {
            let a = verify_code(&c).expect("verifies");
            assert!(
                a.max_depth <= c.max_stack,
                "{}: derived {} > declared {}",
                c.name,
                a.max_depth,
                c.max_stack
            );
        }
    }

    #[test]
    fn lints_flag_seeded_patterns() {
        let src = "def f(x):\n    return x\n    y = x + 1\nn = 2 * 3\nresult = f(n)\n";
        let code = compile(src).expect("compiles");
        let lints = lint::lint_module(&code, |_| Default::default()).expect("verifies");
        let has = |kind: LintKind, sev: Severity| {
            lints.iter().any(|l| l.kind == kind && l.severity == sev)
        };
        assert!(has(LintKind::DeadCode, Severity::Warning), "dead user code: {lints:?}");
        assert!(has(LintKind::DeadCode, Severity::Note), "implicit tail: {lints:?}");
        assert!(has(LintKind::FoldableConst, Severity::Note), "2 * 3: {lints:?}");
        assert!(has(LintKind::PromotableLoad, Severity::Note), "module load of n: {lints:?}");
    }

    #[test]
    fn type_stable_lint_fires_on_concrete_types() {
        // `t` joins Float with Float across the back-edge (const
        // provenance is lost, the type is not), so `t + 1.5` is
        // type-stable without being foldable.
        let src = "def f():\n    t = 0.0\n    for i in range(3):\n        t = t + 1.5\n    return t\nresult = f()\n";
        let code = compile(src).expect("compiles");
        let lints = lint::lint_module(&code, |_| Default::default()).expect("verifies");
        assert!(lints.iter().any(|l| l.kind == LintKind::TypeStable), "{lints:?}");
    }
}
