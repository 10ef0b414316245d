//! The N-way differential oracle over the execution-tier matrix.
//!
//! Every program is run under six configurations:
//!
//! | tier            | runtime | checks  | opt | notes                        |
//! |-----------------|---------|---------|-----|------------------------------|
//! | `interp-checked`| CPython | dynamic | 0   | the semantic baseline        |
//! | `interp-elided` | CPython | elided  | 0   | verifier-backed guard elision|
//! | `opt1`          | CPython | elided  | 1   | fold + DCE                   |
//! | `opt2`          | CPython | elided  | 2   | + promotion + fusion         |
//! | `jit`           | PyPyJit | elided  | 0   | tracing JIT tiers            |
//! | `chaos`         | CPython | elided  | 0   | seeded faults + recovery     |
//!
//! Agreement demands identical guest-visible outcomes against the
//! checked-interpreter baseline: the rendered `result` global, the
//! printed output, and — when a tier fails — the same typed error. The
//! chaos tier is additionally held to the strict oracle against its
//! fault-free twin (`interp-elided`): both micro-op traces identical
//! record for record, frame events included, which implies equal
//! [`ExecutionStats`] on any core. Cross-tier trace or *ExecutionStats*
//! equality is deliberately **not** demanded — guard elision, the
//! optimizer, and the JIT legitimately change the micro-op stream; what
//! they may never change is what the program computes.
//!
//! Each program is parsed and compiled once, and every tier but a planted
//! `opt2` loads the same code; the three tiers at opt level 0 with checks
//! elided (`interp-elided`, `jit`, `chaos`) also share one verification.
//!
//! Only two tiers record a micro-op trace, because only their traces are
//! compared: the `interp-elided` twin (which also supplies the chaos
//! horizon and the reported bytecode count) and the `chaos` tier, the
//! two sides of [`oracle_check`]. The other four compare guest-visible
//! outcomes alone, so they run straight into a [`NullSink`] and never
//! materialize a trace. The shrinker predicate [`tier_diverges`] records
//! only for the chaos tier, where it needs both sides again.
//!
//! Fuel exhaustion in any tier makes the verdict [`Inconclusive`] rather
//! than a divergence: optimized tiers execute different bytecode counts,
//! so a program straddling the fuel limit would otherwise produce false
//! positives. Generated programs terminate by construction and sit far
//! under the fuel ceiling; only shrinker candidates that break a loop
//! counter ever hit this.
//!
//! [`Inconclusive`]: FuzzVerdict::Inconclusive
//! [`ExecutionStats`]: qoa_uarch::ExecutionStats

use qoa_analysis::Verified;
use qoa_chaos::FaultPlan;
use qoa_core::chaos::capture_chaos_loaded;
use qoa_core::runtime::SinkRun;
use qoa_core::{
    fault_kinds_for, oracle_check, run_isolated, CapturedRun, ChaosOptions, Machine, QoaError,
    RunFailure, RuntimeConfig,
};
use qoa_frontend::ast::{Expr, ExprKind, Module, Stmt, StmtKind};
use qoa_frontend::render::render_module;
use qoa_frontend::CodeObject;
use qoa_model::{NullSink, OpSink, RuntimeKind};
use qoa_uarch::{TraceBuffer, UarchConfig};
use std::rc::Rc;

/// The six tier labels, in evaluation order.
pub const TIER_NAMES: [&str; 6] =
    ["interp-checked", "interp-elided", "opt1", "opt2", "jit", "chaos"];

/// Execution fuel for oracle runs. Generated programs are bounded far
/// below this; a candidate that hits it (a shrinker mutation that broke
/// a loop counter) is judged inconclusive, never divergent.
pub const ORACLE_FUEL: u64 = 5_000_000;

/// A deliberately planted semantics bug, applied to the program text a
/// single tier executes — modeling a miscompile in that tier. Used by CI
/// mutation tests to prove the oracle catches and the shrinker minimizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BugPlant {
    /// Swap the operands of every binary `-`: `a - b` → `b - a`.
    /// Semantically visible whenever the operands differ; invisible to
    /// parsing, compilation, and the verifier.
    SwapSubOperands,
}

impl BugPlant {
    /// Parses the `--plant-bug` CLI spelling.
    pub fn parse(s: &str) -> Option<BugPlant> {
        match s {
            "swap-sub" => Some(BugPlant::SwapSubOperands),
            _ => None,
        }
    }

    /// The CLI spelling.
    pub fn name(self) -> &'static str {
        match self {
            BugPlant::SwapSubOperands => "swap-sub",
        }
    }
}

/// Applies `plant` to `source`, returning the mutated program text. The
/// mutation is AST-level, so the planted program always re-parses.
/// Returns `None` when the program has no applicable site (the planted
/// tier then runs the original program and trivially agrees).
pub fn plant_bug(source: &str, plant: BugPlant) -> Option<String> {
    let mut module = qoa_frontend::parse(source).ok()?;
    let mutated = match plant {
        BugPlant::SwapSubOperands => {
            let mut count = 0usize;
            for stmt in &mut module.body {
                swap_subs_stmt(stmt, &mut count);
            }
            count
        }
    };
    if mutated == 0 {
        return None;
    }
    Some(render_module(&module))
}

fn swap_subs_stmt(stmt: &mut Stmt, count: &mut usize) {
    match &mut stmt.kind {
        StmtKind::Expr(e) | StmtKind::Return(Some(e)) | StmtKind::Assign(_, e) => {
            swap_subs_expr(e, count);
        }
        StmtKind::AugAssign(_, _, e) => swap_subs_expr(e, count),
        StmtKind::If { cond, then, orelse } => {
            swap_subs_expr(cond, count);
            for s in then.iter_mut().chain(orelse.iter_mut()) {
                swap_subs_stmt(s, count);
            }
        }
        StmtKind::While { cond, body } => {
            swap_subs_expr(cond, count);
            for s in body {
                swap_subs_stmt(s, count);
            }
        }
        StmtKind::For { iter, body, .. } => {
            swap_subs_expr(iter, count);
            for s in body {
                swap_subs_stmt(s, count);
            }
        }
        StmtKind::DelIndex(a, b) => {
            swap_subs_expr(a, count);
            swap_subs_expr(b, count);
        }
        StmtKind::FuncDef(f) => {
            for s in &mut f.body {
                swap_subs_stmt(s, count);
            }
        }
        StmtKind::ClassDef(c) => {
            for s in &mut c.body {
                swap_subs_stmt(s, count);
            }
        }
        _ => {}
    }
}

fn swap_subs_expr(expr: &mut Expr, count: &mut usize) {
    // Recurse first so nested subtractions are swapped too.
    match &mut expr.kind {
        ExprKind::Bin(_, a, b)
        | ExprKind::Cmp(_, a, b)
        | ExprKind::And(a, b)
        | ExprKind::Or(a, b) => {
            swap_subs_expr(a, count);
            swap_subs_expr(b, count);
        }
        ExprKind::Unary(_, e) | ExprKind::Attr(e, _) => swap_subs_expr(e, count),
        ExprKind::Index(a, b) => {
            swap_subs_expr(a, count);
            swap_subs_expr(b, count);
        }
        ExprKind::Slice { obj, lo, hi } => {
            swap_subs_expr(obj, count);
            if let Some(lo) = lo {
                swap_subs_expr(lo, count);
            }
            if let Some(hi) = hi {
                swap_subs_expr(hi, count);
            }
        }
        ExprKind::Call { func, args } => {
            swap_subs_expr(func, count);
            for a in args {
                swap_subs_expr(a, count);
            }
        }
        ExprKind::List(xs) | ExprKind::Tuple(xs) => {
            for x in xs {
                swap_subs_expr(x, count);
            }
        }
        ExprKind::Dict(kvs) => {
            for (k, v) in kvs {
                swap_subs_expr(k, count);
                swap_subs_expr(v, count);
            }
        }
        _ => {}
    }
    if let ExprKind::Bin(op, a, b) = &mut expr.kind {
        if *op == qoa_frontend::ast::BinOp::Sub {
            std::mem::swap(a, b);
            *count += 1;
        }
    }
}

/// One divergence between a tier and the baseline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Divergence {
    /// The tier that disagreed.
    pub tier: String,
    /// What differed (results, output, error identity, or — for the
    /// chaos tier — the strict byte-identity oracle).
    pub detail: String,
}

/// The oracle's verdict on one program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FuzzVerdict {
    /// All six tiers agreed on the guest-visible outcome.
    Agree {
        /// The rendered `result` global (shared by every tier).
        result: Option<String>,
        /// Baseline bytecodes executed — a deterministic size metric.
        bytecodes: u64,
    },
    /// A tier hit the fuel ceiling; no semantic conclusion is drawn.
    Inconclusive,
    /// A tier disagreed with the checked-interpreter baseline.
    Diverge(Divergence),
}

impl FuzzVerdict {
    /// True for [`FuzzVerdict::Diverge`].
    pub fn diverged(&self) -> bool {
        matches!(self, FuzzVerdict::Diverge(_))
    }
}

/// A tier's guest-visible outcome: success carries `(result, output)`,
/// failure carries the typed error identity.
type TierOutcome = Result<(Option<String>, Vec<String>), String>;

/// A program compiled or verified once for several tiers, or the failure
/// text each of those tiers reports.
type Shared<T> = Result<T, String>;

/// The oracle's configuration for `kind`: elided checks, opt0, and the
/// oracle's fuel ceiling.
fn oracle_rt(kind: RuntimeKind) -> RuntimeConfig {
    let mut rt = RuntimeConfig::new(kind);
    rt.max_steps = ORACLE_FUEL;
    rt
}

fn failure_text(failure: RunFailure) -> String {
    format!("{}: {}", failure.error.kind(), failure.error)
}

/// Parses and compiles `source`, isolated like a tier run.
fn compile(source: &str) -> Shared<Rc<CodeObject>> {
    run_isolated(|| Ok(qoa_frontend::compile(source)?)).map_err(failure_text)
}

/// Runs `f` on a program compiled or verified once for several tiers,
/// isolated. A failure to compile or verify the program is `f`'s failure.
fn isolated<T, R>(shared: &Shared<T>, f: impl FnOnce(&T) -> Result<R, QoaError>) -> Shared<R> {
    let shared = shared.as_ref().map_err(Clone::clone)?;
    run_isolated(|| f(shared)).map_err(failure_text)
}

/// Verifies `code` for the tiers that load it at opt level 0 with checks
/// elided.
fn verify(code: &Shared<Rc<CodeObject>>) -> Shared<Verified<Rc<CodeObject>>> {
    isolated(code, |c| Ok(qoa_analysis::verify(c)?))
}

fn run_to_end<S: OpSink>(mut machine: Machine<S>) -> Result<SinkRun<S>, QoaError> {
    machine.run()?;
    Ok(machine.finish())
}

/// The outcome of a tier that runs straight into a [`NullSink`]: nothing
/// replays its micro-ops, so none are recorded.
fn outcome(run: Shared<SinkRun<NullSink>>) -> TierOutcome {
    run.map(|(_, _, _, output, result)| (result, output))
}

/// An outcome-only tier that loads `code` through [`Machine::from_code`].
fn from_code(code: &Shared<Rc<CodeObject>>, rt: &RuntimeConfig) -> TierOutcome {
    outcome(isolated(code, |c| run_to_end(Machine::from_code(Rc::clone(c), rt, NullSink)?)))
}

/// An outcome-only tier that loads the shared verified code.
fn from_verified(verified: &Shared<Verified<Rc<CodeObject>>>, rt: &RuntimeConfig) -> TierOutcome {
    outcome(isolated(verified, |v| run_to_end(Machine::load(v.get(), Some(v), rt, NullSink))))
}

/// Splits a recorded run into its outcome and, on success, the run whose
/// trace [`oracle_check`] compares.
fn recorded(run: Shared<CapturedRun>) -> (TierOutcome, Option<CapturedRun>) {
    match run {
        Ok(r) => (Ok((r.result.clone(), r.output.clone())), Some(r)),
        Err(e) => (Err(e), None),
    }
}

/// Captures the fault-free `interp-elided` twin from the shared verified
/// code.
fn twin_tier(
    verified: &Shared<Verified<Rc<CodeObject>>>,
    rt: &RuntimeConfig,
) -> (TierOutcome, Option<CapturedRun>) {
    recorded(isolated(verified, |v| {
        run_to_end(Machine::load(v.get(), Some(v), rt, TraceBuffer::new())).map(CapturedRun::from)
    }))
}

/// Captures the chaos tier from the shared verified code: seeded
/// interpreter faults with snapshot recovery. The horizon comes from the
/// elided twin so faults land mid-run.
fn chaos_tier(
    verified: &Shared<Verified<Rc<CodeObject>>>,
    rt: &RuntimeConfig,
    chaos_seed: u64,
    twin: Option<&CapturedRun>,
) -> (TierOutcome, Option<CapturedRun>) {
    let horizon = twin.map_or(1024, |r| r.vm.bytecodes.max(1));
    let plan = FaultPlan::seeded(chaos_seed, horizon, 6, fault_kinds_for(RuntimeKind::CPython));
    let opts = ChaosOptions::new(plan).with_checkpoint_every((horizon / 4).max(64));
    recorded(isolated(verified, |v| {
        let machine = Machine::load(v.get(), Some(v), rt, TraceBuffer::new());
        capture_chaos_loaded(v.get(), machine, &opts).map(|(run, _outcome)| run)
    }))
}

/// The strict oracle between the chaos run and its fault-free twin, when
/// both completed.
fn strict_divergence(twin: Option<&CapturedRun>, chaos: Option<&CapturedRun>) -> Option<String> {
    oracle_check(twin?, chaos?, &UarchConfig::skylake())
}

fn describe(outcome: &TierOutcome) -> String {
    match outcome {
        Ok((result, output)) => {
            format!("result={result:?} output_lines={}", output.len())
        }
        Err(e) => format!("error[{e}]"),
    }
}

fn is_fuel(outcome: &TierOutcome) -> bool {
    matches!(outcome, Err(e) if e.starts_with("fuel"))
}

/// The `opt2` tier: the planted program, compiled on its own, when `plant`
/// applies to `source`; otherwise the shared code.
fn opt2_tier(
    source: &str,
    code: &Shared<Rc<CodeObject>>,
    plant: Option<BugPlant>,
    rt: &RuntimeConfig,
) -> TierOutcome {
    match plant.and_then(|p| plant_bug(source, p)) {
        Some(planted) => from_code(&compile(&planted), rt),
        None => from_code(code, rt),
    }
}

/// Runs the full six-tier differential oracle on `source`.
///
/// `chaos_seed` seeds the chaos tier's fault plan. When `plant` is set,
/// the planted program text is what the `opt2` tier executes — modeling
/// a miscompile confined to that tier.
///
/// The program is parsed and compiled once for the other five tiers, and
/// verified once for the three at opt level 0 with checks elided
/// (`interp-elided`, `jit`, `chaos`). A program that fails to compile or
/// verify fails identically in each tier that shares the step.
pub fn differential(source: &str, chaos_seed: u64, plant: Option<BugPlant>) -> FuzzVerdict {
    let rt_checked = oracle_rt(RuntimeKind::CPython).with_check_elision(false);
    let rt_elided = oracle_rt(RuntimeKind::CPython);

    // Baseline: the checked interpreter.
    let code = compile(source);
    let baseline = from_code(&code, &rt_checked);
    if is_fuel(&baseline) {
        return FuzzVerdict::Inconclusive;
    }

    // The fault-free elided twin records: it sets the chaos horizon and is
    // the reference the chaos trace is held to.
    let verified = verify(&code);
    let (elided, twin) = twin_tier(&verified, &rt_elided);
    let (chaos, chaos_run) = chaos_tier(&verified, &rt_elided, chaos_seed, twin.as_ref());
    let tiers: [(&str, TierOutcome); 5] = [
        ("interp-elided", elided),
        ("opt1", from_code(&code, &rt_elided.with_opt_level(1))),
        ("opt2", opt2_tier(source, &code, plant, &rt_elided.with_opt_level(2))),
        ("jit", from_verified(&verified, &oracle_rt(RuntimeKind::PyPyJit))),
        ("chaos", chaos),
    ];

    if tiers.iter().any(|(_, o)| is_fuel(o)) {
        return FuzzVerdict::Inconclusive;
    }

    for (tier, outcome) in &tiers {
        if *outcome != baseline {
            return FuzzVerdict::Diverge(Divergence {
                tier: (*tier).to_string(),
                detail: format!(
                    "baseline {} vs {}",
                    describe(&baseline),
                    describe(outcome)
                ),
            });
        }
    }
    // The chaos tier must additionally be identical to its fault-free
    // twin: both traces, record for record.
    if let Some(div) = strict_divergence(twin.as_ref(), chaos_run.as_ref()) {
        return FuzzVerdict::Diverge(Divergence {
            tier: "chaos".to_string(),
            detail: format!("strict oracle vs interp-elided: {div}"),
        });
    }

    let bytecodes = twin.as_ref().map_or(0, |r| r.vm.bytecodes);
    let result = match baseline {
        Ok((result, _)) => result,
        Err(_) => None,
    };
    FuzzVerdict::Agree { result, bytecodes }
}

/// Fast single-tier divergence check: runs the checked-interpreter
/// baseline plus only the named tier, instead of the full six-way
/// matrix. This is the shrinker's predicate — a shrink explores
/// thousands of candidates, and the tier that diverged is already
/// known, so re-running the other four tiers per candidate would
/// multiply the wall-clock cost for no information. Fuel exhaustion in
/// either run yields `false`: inconclusive candidates never count as
/// still-failing. An unknown tier name falls back to the full oracle.
/// Like [`differential`], it compiles the program once.
pub fn tier_diverges(source: &str, tier: &str, chaos_seed: u64, plant: Option<BugPlant>) -> bool {
    let rt_elided = oracle_rt(RuntimeKind::CPython);

    let code = compile(source);
    let baseline = from_code(&code, &rt_elided.with_check_elision(false));
    if is_fuel(&baseline) {
        return false;
    }

    let outcome = match tier {
        // The baseline cannot diverge from itself.
        "interp-checked" => return false,
        "interp-elided" => from_verified(&verify(&code), &rt_elided),
        "opt1" => from_code(&code, &rt_elided.with_opt_level(1)),
        "opt2" => opt2_tier(source, &code, plant, &rt_elided.with_opt_level(2)),
        "jit" => from_verified(&verify(&code), &oracle_rt(RuntimeKind::PyPyJit)),
        "chaos" => {
            // The chaos tier needs its fault-free elided twin for the
            // fault horizon and the strict oracle.
            let verified = verify(&code);
            let (twin_outcome, twin) = twin_tier(&verified, &rt_elided);
            if is_fuel(&twin_outcome) {
                return false;
            }
            let (outcome, run) = chaos_tier(&verified, &rt_elided, chaos_seed, twin.as_ref());
            if is_fuel(&outcome) {
                return false;
            }
            return outcome != baseline || strict_divergence(twin.as_ref(), run.as_ref()).is_some();
        }
        _ => return differential(source, chaos_seed, plant).diverged(),
    };
    !is_fuel(&outcome) && outcome != baseline
}

/// Validates that `source` parses, compiles, and verifies — the
/// precondition for any oracle run or shrink candidate.
pub fn valid_program(source: &str) -> bool {
    match qoa_frontend::compile(source) {
        Ok(code) => qoa_analysis::verify_code(&code).is_ok(),
        Err(_) => false,
    }
}

/// Parses a module or returns `None` (shrinker helper).
pub fn parse_module(source: &str) -> Option<Module> {
    qoa_frontend::parse(source).ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{generate_source, GenConfig};

    #[test]
    fn generated_programs_agree_across_tiers() {
        let cfg = GenConfig::default();
        for seed in 0..8u64 {
            let src = generate_source(seed, &cfg);
            let verdict = differential(&src, seed.wrapping_mul(101), None);
            match verdict {
                FuzzVerdict::Agree { result, .. } => {
                    assert!(result.is_some(), "seed {seed}: no result global\n{src}");
                }
                other => panic!("seed {seed}: {other:?}\n{src}"),
            }
        }
    }

    #[test]
    fn planted_sub_swap_is_caught() {
        let src = "a = 10\nb = 3\nresult = a - b\n";
        let verdict = differential(src, 1, Some(BugPlant::SwapSubOperands));
        match verdict {
            FuzzVerdict::Diverge(d) => assert_eq!(d.tier, "opt2", "{d:?}"),
            other => panic!("planted bug not caught: {other:?}"),
        }
    }

    #[test]
    fn plant_returns_none_without_a_site() {
        assert!(plant_bug("x = 1 + 2\n", BugPlant::SwapSubOperands).is_none());
        let planted =
            plant_bug("x = 5 - 2\n", BugPlant::SwapSubOperands).expect("has a sub site");
        assert!(planted.contains("2 - 5"), "{planted}");
    }

    #[test]
    fn programs_that_do_not_compile_agree_on_the_error() {
        // A parse error, and a compile error in a program the plant
        // rewrites: every tier fails the same way, so the tiers agree.
        for (src, plant) in [
            ("x = (\n", None),
            ("x = 5 - 2\nbreak\n", None),
            ("x = 5 - 2\nbreak\n", Some(BugPlant::SwapSubOperands)),
        ] {
            let verdict = differential(src, 5, plant);
            assert_eq!(verdict, FuzzVerdict::Agree { result: None, bytecodes: 0 }, "{src:?}");
            for tier in TIER_NAMES {
                assert!(!tier_diverges(src, tier, 5, plant), "{tier} on {src:?}");
            }
        }
    }

    #[test]
    fn guest_errors_must_match_not_diverge() {
        // Division by zero fails identically everywhere: agreement, with
        // the error as the shared outcome.
        let src = "x = 1\nresult = x // 0\n";
        match differential(src, 3, None) {
            FuzzVerdict::Agree { result, .. } => assert_eq!(result, None),
            other => panic!("identical guest errors should agree: {other:?}"),
        }
    }
}
