//! Lints over verified bytecode.
//!
//! All lints run on the dataflow facts the verifier proved, so they
//! never fire on code that would not verify. Two severities:
//!
//! * **Warning** — findings a clean program should not have (genuinely
//!   unreachable user code). The `qoa-lint --deny warnings` CI gate
//!   fails on these.
//! * **Note** — optimization opportunities and compiler artifacts:
//!   constant-foldable operations, name loads promotable to fast locals,
//!   type-stable operations a JIT would specialize, and the compiler's
//!   own unreachable implicit-return tail.

use crate::verify::{CodeAnalysis, Origin, VerifyError};
use qoa_frontend::{CodeKind, CodeObject, Const, Instr, Opcode};
use qoa_model::{Category, CategoryMap};
use std::fmt;
use std::rc::Rc;

/// How serious a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Informational: an optimization opportunity or compiler artifact.
    Note,
    /// A defect in the program under analysis.
    Warning,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Note => "note",
            Severity::Warning => "warning",
        })
    }
}

/// What kind of finding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LintKind {
    /// Instructions unreachable from the entry point.
    DeadCode,
    /// An operation whose operands are all compile-time constants.
    FoldableConst,
    /// A dict-probed name load that could be a fast local slot.
    PromotableLoad,
    /// An operation with concrete static operand types on every path —
    /// a JIT specialization candidate.
    TypeStable,
    /// An instruction run the optimizer's peephole pass would fuse into
    /// one superinstruction, with its predicted micro-op savings.
    FusibleSequence,
}

impl LintKind {
    /// Short machine-readable tag.
    pub fn tag(self) -> &'static str {
        match self {
            LintKind::DeadCode => "dead-code",
            LintKind::FoldableConst => "const-fold",
            LintKind::PromotableLoad => "promotable-load",
            LintKind::TypeStable => "type-stable",
            LintKind::FusibleSequence => "fusible-sequence",
        }
    }
}

/// One lint finding.
#[derive(Debug, Clone)]
pub struct Lint {
    /// Name of the code object.
    pub code: String,
    /// Instruction index the finding anchors to.
    pub at: usize,
    /// 1-based source line (0 if unavailable).
    pub line: u32,
    /// Finding severity.
    pub severity: Severity,
    /// Finding kind.
    pub kind: LintKind,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for Lint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}] `{}` instr {} (line {}): {}",
            self.severity,
            self.kind.tag(),
            self.code,
            self.at,
            self.line,
            self.message
        )
    }
}

fn push_lint(
    out: &mut Vec<Lint>,
    code: &CodeObject,
    at: usize,
    severity: Severity,
    kind: LintKind,
    message: String,
) {
    out.push(Lint {
        code: code.name.clone(),
        at,
        line: code.code.get(at).map_or(0, |i| i.line),
        severity,
        kind,
        message,
    });
}

/// Whether the unreachable run `start..end` is the compiler's implicit
/// `return None` tail: every module/function body ends with
/// `LoadConst None; ReturnValue`, which is dead when the last statement
/// already returned.
fn is_implicit_return_tail(code: &CodeObject, start: usize, end: usize) -> bool {
    if end != code.code.len() || end - start != 2 {
        return false;
    }
    let a = code.code[start];
    let b = code.code[start + 1];
    a.op == Opcode::LoadConst
        && matches!(code.consts.get(a.arg as usize), Some(Const::None))
        && b.op == Opcode::ReturnValue
}

fn dead_code(code: &CodeObject, analysis: &CodeAnalysis, out: &mut Vec<Lint>) {
    let len = code.code.len();
    let mut i = 0;
    while i < len {
        if analysis.reachable(i) {
            i += 1;
            continue;
        }
        let start = i;
        while i < len && !analysis.reachable(i) {
            i += 1;
        }
        // Split the compiler's implicit `return None` tail off the end of
        // the run: the artifact is a note, anything before it is real
        // unreachable user code.
        let mut user_end = i;
        if i == len && i - start >= 2 && is_implicit_return_tail(code, i - 2, i) {
            user_end = i - 2;
            push_lint(
                out,
                code,
                user_end,
                Severity::Note,
                LintKind::DeadCode,
                format!(
                    "the compiler's implicit `return None` tail (instrs {}..{i})",
                    user_end
                ),
            );
        }
        if user_end > start {
            // A run of nothing but jumps is the compiler stitching an
            // always-returning arm to its join point — users cannot
            // write a bare jump, so real dead user code always contains
            // at least one non-jump instruction.
            let all_jumps = code.code[start..user_end]
                .iter()
                .all(|i| i.op == Opcode::JumpAbsolute);
            let (severity, what) = if all_jumps {
                (Severity::Note, "unreachable control-flow seam after a return")
            } else {
                (Severity::Warning, "unreachable instruction(s)")
            };
            push_lint(
                out,
                code,
                start,
                severity,
                LintKind::DeadCode,
                format!("{} {what} (instrs {start}..{user_end})", user_end - start),
            );
        }
    }
}

fn operand_count(op: Opcode) -> Option<usize> {
    match op {
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
        | Opcode::BinaryRshift
        | Opcode::CompareOp
        | Opcode::BinarySubscr => Some(2),
        Opcode::UnaryNegative | Opcode::UnaryNot | Opcode::UnaryInvert => Some(1),
        _ => None,
    }
}

fn value_lints(code: &CodeObject, analysis: &CodeAnalysis, out: &mut Vec<Lint>) {
    for (i, instr) in code.code.iter().enumerate() {
        let Some(n) = operand_count(instr.op) else { continue };
        let Some(facts) = analysis.entry.get(i).and_then(Option::as_ref) else {
            continue; // unreachable: covered by the dead-code lint
        };
        let operands: Vec<_> = (0..n).rev().filter_map(|k| facts.operand(k)).collect();
        if operands.len() < n {
            continue;
        }
        if operands.iter().all(|v| matches!(v.origin, Origin::Const(_))) {
            push_lint(
                out,
                code,
                i,
                Severity::Note,
                LintKind::FoldableConst,
                format!(
                    "{:?} of compile-time constants could fold at compile time",
                    instr.op
                ),
            );
        } else if operands.iter().all(|v| v.ty.is_concrete()) {
            let tys: Vec<String> = operands.iter().map(|v| v.ty.to_string()).collect();
            push_lint(
                out,
                code,
                i,
                Severity::Note,
                LintKind::TypeStable,
                format!(
                    "{:?} sees ({}) on every path — JIT specialization candidate",
                    instr.op,
                    tys.join(", ")
                ),
            );
        }
    }
}

fn promotable_loads(code: &CodeObject, analysis: &CodeAnalysis, out: &mut Vec<Lint>) {
    // A name both loaded and stored within the same module/class scope
    // resolves through dict probes every time, yet could live in an
    // indexed fast slot (LOAD_NAME/LOAD_GLOBAL -> LOAD_FAST), as
    // function scopes already do.
    if code.kind == CodeKind::Function {
        return;
    }
    let load = |op: Opcode| matches!(op, Opcode::LoadName | Opcode::LoadGlobal);
    let store = |op: Opcode| matches!(op, Opcode::StoreName | Opcode::StoreGlobal);
    let mut stored = vec![false; code.names.len()];
    for instr in &code.code {
        if store(instr.op) {
            stored[instr.arg as usize] = true;
        }
    }
    for (i, instr) in code.code.iter().enumerate() {
        if load(instr.op) && stored[instr.arg as usize] && analysis.reachable(i) {
            push_lint(
                out,
                code,
                i,
                Severity::Note,
                LintKind::PromotableLoad,
                format!(
                    "{:?} of locally-assigned `{}` could promote to LOAD_FAST",
                    instr.op, code.names[instr.arg as usize]
                ),
            );
        }
    }
}

/// The micro-op category profile one instruction costs; the VM derives
/// it from its handlers (`qoa_vm::annotate::instr_profile`).
pub type InstrProfile = fn(Instr) -> CategoryMap<u64>;

fn fusible_sequences(
    code: &CodeObject,
    analysis: &CodeAnalysis,
    profile: InstrProfile,
    out: &mut Vec<Lint>,
) {
    for cand in crate::opt::fusion_candidates(code) {
        if !analysis.reachable(cand.at) {
            continue; // covered by the dead-code lint
        }
        // Predicted savings: the modeled cost of the unfused run minus
        // the fused superinstruction's profile.
        let line = code.code[cand.at].line;
        let mut before = CategoryMap::<u64>::default();
        for k in 0..cand.len {
            before.merge(&profile(code.code[cand.at + k]));
        }
        let after = profile(Instr { op: cand.fused, arg: cand.arg, line });
        let saved = before.total().saturating_sub(after.total());
        let dispatch_saved =
            before[Category::Dispatch].saturating_sub(after[Category::Dispatch]);
        let ops: Vec<String> = (0..cand.len)
            .map(|k| format!("{:?}", code.code[cand.at + k].op))
            .collect();
        push_lint(
            out,
            code,
            cand.at,
            Severity::Note,
            LintKind::FusibleSequence,
            format!(
                "{} fuses to {:?}, saving ~{saved} modeled micro-ops ({dispatch_saved} dispatch) per execution",
                ops.join("+"),
                cand.fused
            ),
        );
    }
}

/// Runs every lint over one verified code object, pricing fusible runs
/// with `profile`.
pub fn lint_code(code: &CodeObject, analysis: &CodeAnalysis, profile: InstrProfile) -> Vec<Lint> {
    let mut out = Vec::new();
    dead_code(code, analysis, &mut out);
    value_lints(code, analysis, &mut out);
    promotable_loads(code, analysis, &mut out);
    fusible_sequences(code, analysis, profile, &mut out);
    out
}

/// Verifies `root` (and nested code) and lints everything, pricing
/// fusible runs with `profile`.
///
/// # Errors
///
/// The first [`VerifyError`] if verification fails — unverifiable code
/// cannot be linted.
pub fn lint_module(root: &Rc<CodeObject>, profile: InstrProfile) -> Result<Vec<Lint>, VerifyError> {
    let mut out = Vec::new();
    for (code, analysis) in crate::verify::analyze(root)? {
        out.extend(lint_code(&code, &analysis, profile));
    }
    Ok(out)
}
