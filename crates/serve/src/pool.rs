//! Snapshot-fork worker pool: pre-warmed machines, per-request clones.
//!
//! A serving VM is expensive to construct (parse, compile, verify, load)
//! but cheap to *clone*: every machine state in the stack is plain data
//! behind `Clone`. The pool therefore pre-warms one [`Machine`] per
//! `(workload, tier)` pair, built from the tier's [`RuntimeConfig`]
//! ([`Tier::runtime`]) exactly as the figures build theirs, captures a
//! [`qoa_chaos::Snapshot`] of it before the first guest bytecode runs,
//! and serves each request from a fresh restore of that snapshot — a
//! fork-style warm start.
//!
//! Machines hold `Rc` internals and are deliberately not `Send`, so
//! snapshots never cross threads. Each executor worker lazily warms its
//! own thread-local pool instead; results are identical regardless of
//! which worker serves a request, so determinism is unaffected.

use qoa_chaos::{fnv1a, ChaosState, FaultKind, FaultPlan, Snapshot};
use qoa_core::chaos::{drive, ChaosOutcome, CHECKPOINT_EVERY};
use qoa_core::runtime::Machine;
use qoa_core::{QoaError, RuntimeConfig};
use qoa_model::{CountingSink, RuntimeKind};
use std::cell::RefCell;
use std::collections::HashMap;

/// Graceful-degradation service tier, selected per admission window by
/// measured queue depth. Rejection (the final rung) is handled by the
/// bounded-queue shed gate, not by a tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Tier {
    /// Tracing JIT enabled, verified bytecode, guard micro-ops elided.
    Full,
    /// JIT disabled: skips per-request trace recording and compilation,
    /// which short forked requests never amortize.
    NoJit,
    /// Checked interpreter: plain `Vm` with its dynamic guards intact —
    /// the most conservative rung before outright rejection.
    Checked,
}

impl Tier {
    /// Every tier, in degradation order.
    pub const ALL: [Tier; 3] = [Tier::Full, Tier::NoJit, Tier::Checked];

    /// Stable journal/metrics label.
    pub fn name(self) -> &'static str {
        match self {
            Tier::Full => "full",
            Tier::NoJit => "nojit",
            Tier::Checked => "checked",
        }
    }

    /// The run-time configuration this tier serves under.
    pub fn runtime(self) -> RuntimeConfig {
        match self {
            Tier::Full => RuntimeConfig::new(RuntimeKind::PyPyJit),
            Tier::NoJit => RuntimeConfig::new(RuntimeKind::PyPyNoJit),
            Tier::Checked => RuntimeConfig::new(RuntimeKind::CPython).with_check_elision(false),
        }
    }

    /// Fault kinds a chaos plan may fire in this tier. Load-time
    /// corruption is excluded: serving forks restore post-load
    /// snapshots, so the load-path poll site is never reached.
    pub fn fault_kinds(self) -> &'static [FaultKind] {
        const JIT: [FaultKind; 5] = [
            FaultKind::AllocFault,
            FaultKind::FuelTrip,
            FaultKind::DeadlineTrip,
            FaultKind::JitCompileFault,
            FaultKind::TraceAbort,
        ];
        const INTERP: [FaultKind; 3] =
            [FaultKind::AllocFault, FaultKind::FuelTrip, FaultKind::DeadlineTrip];
        match self {
            Tier::Full => &JIT,
            Tier::NoJit | Tier::Checked => &INTERP,
        }
    }
}

/// Everything one forked request execution yields. `cost` is the
/// micro-op count of the final clean pass — the request's virtual
/// service time — and is identical whether or not faults were injected
/// and recovered along the way.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ForkRun {
    /// Micro-ops of the clean pass (virtual service cycles).
    pub cost: u64,
    /// Guest bytecodes executed by the clean pass.
    pub steps: u64,
    /// Rendered `result` global, the response payload.
    pub result: Option<String>,
    /// FNV-1a hash over guest stdout lines.
    pub out_hash: u64,
    /// Guest stdout line count.
    pub output_lines: u64,
    /// Chaos faults that fired and were recovered.
    pub faults: u64,
    /// Snapshot restores consumed by recovery (one per fault).
    pub restores: u64,
}

/// FNV-1a over output lines, newline-delimited.
pub fn hash_output(lines: &[String]) -> u64 {
    fnv1a(lines.iter().flat_map(|line| line.bytes().chain([b'\n'])))
}

/// Compiles, loads, and snapshots one machine for `(source, tier)`.
/// The snapshot is captured before the first guest bytecode executes,
/// so every restore replays the whole request from a warm start.
///
/// # Errors
///
/// Compile or verification failures of the workload source.
pub fn prewarm(source: &str, tier: Tier) -> Result<Snapshot<Machine<CountingSink>>, QoaError> {
    let machine = Machine::new(source, &tier.runtime(), CountingSink::default())?;
    Ok(Snapshot::capture(0, &machine))
}

/// A pre-warmed machine counting micro-ops as service cost.
type Warm = Snapshot<Machine<CountingSink>>;

thread_local! {
    /// Per-thread snapshot pool, keyed by workload identity and tier.
    /// Executor workers are born per batch; each warms lazily on first
    /// use and serves every subsequent fork of the same workload from
    /// the cached snapshot.
    static POOL: RefCell<HashMap<(u64, Tier), Warm>> = RefCell::new(HashMap::new());
}

/// Serves one request: restores a clone of the pre-warmed snapshot for
/// `(source, tier)`, caps its fuel at `fuel` guest bytecodes (0 =
/// unlimited), optionally arms a chaos plan, and runs to completion.
///
/// With a plan armed the request runs under [`drive`], the chaos
/// runner's recovery loop: when an armed fault fires, the machine rewinds
/// to its latest checkpoint with every consumed fault point disarmed and
/// carries on. The client observes a slower response, never a wrong one —
/// the clean pass is byte-for-byte the execution a fault-free serve would
/// have produced. Without a plan the machine runs its own loop.
///
/// # Errors
///
/// Compile/verify errors from a cold pool miss, or the organic (not
/// injected) guest error of the final pass — including
/// [`QoaError::FuelExhausted`] when the deadline-derived fuel cap trips,
/// which the server reports as a deadline shed, never a partial result.
pub fn serve_one(
    source: &str,
    tier: Tier,
    fuel: u64,
    plan: Option<&FaultPlan>,
) -> Result<ForkRun, QoaError> {
    let key = (fnv1a(source.bytes()), tier);
    let mut machine = POOL.with(|cell| {
        let mut pool = cell.borrow_mut();
        let snap = match pool.entry(key) {
            std::collections::hash_map::Entry::Occupied(e) => e.into_mut(),
            std::collections::hash_map::Entry::Vacant(e) => e.insert(prewarm(source, tier)?),
        };
        snap.restore().ok_or_else(|| QoaError::Guest {
            message: "snapshot version mismatch on restore".into(),
            line: 0,
        })
    })?;
    machine.vm_mut().set_fuel(fuel);
    let mut chaos = ChaosOutcome::default();
    match plan.filter(|p| !p.is_empty()) {
        Some(plan) => {
            machine.vm_mut().arm_chaos(ChaosState::new(plan.clone()));
            machine = drive(machine, CHECKPOINT_EVERY, &mut chaos)?;
        }
        None => machine.run()?,
    }
    let steps = machine.vm().steps();
    let (sink, _, _, output, result) = machine.finish();
    Ok(ForkRun {
        cost: sink.total(),
        steps,
        result,
        out_hash: hash_output(&output),
        output_lines: output.len() as u64,
        faults: chaos.restores,
        restores: chaos.restores,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: &str = "t = 0\nfor i in range(400):\n    t = t + i\nresult = t\n";

    #[test]
    fn tiers_agree_on_results() {
        let mut results = Vec::new();
        for tier in Tier::ALL {
            let run = serve_one(SRC, tier, 0, None).expect("serves");
            assert!(run.cost > 0, "{}: zero cost", tier.name());
            results.push(run.result.expect("result global"));
        }
        results.dedup();
        assert_eq!(results.len(), 1, "tiers disagree: {results:?}");
    }

    #[test]
    fn forks_are_independent_and_identical() {
        let a = serve_one(SRC, Tier::Full, 0, None).expect("first fork");
        let b = serve_one(SRC, Tier::Full, 0, None).expect("second fork");
        assert_eq!(a, b, "forks from one snapshot must be identical");
    }

    #[test]
    fn fuel_cap_trips_as_fuel_exhausted() {
        let err = serve_one(SRC, Tier::Checked, 10, None).expect_err("tiny fuel");
        assert_eq!(err.kind(), "fuel");
    }

    #[test]
    fn chaos_recovery_yields_clean_results() {
        let clean = serve_one(SRC, Tier::Full, 0, None).expect("fault-free");
        let mut recovered = 0u64;
        for seed in 0..24u64 {
            let plan = FaultPlan::seeded(seed, clean.steps, 2, Tier::Full.fault_kinds());
            let run = serve_one(SRC, Tier::Full, 0, Some(&plan)).expect("recovers");
            assert_eq!(run.result, clean.result, "seed {seed}: wrong result");
            assert_eq!(run.out_hash, clean.out_hash, "seed {seed}: wrong output");
            assert_eq!(run.cost, clean.cost, "seed {seed}: clean pass diverged");
            recovered += run.faults;
        }
        assert!(recovered > 0, "no fault ever fired across 24 seeds");
    }
}
