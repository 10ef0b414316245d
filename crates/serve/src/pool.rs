//! Snapshot-fork worker pool: pre-warmed machines, per-request clones.
//!
//! A serving VM is expensive to construct (parse, compile, verify, load)
//! but cheap to *clone*: every machine state in the stack is plain data
//! behind `Clone`. The pool therefore pre-warms one machine per
//! `(workload, tier)` pair, captures a [`qoa_chaos::Snapshot`] of it
//! before the first guest bytecode runs, and serves each request from a
//! fresh restore of that snapshot — a fork-style warm start.
//!
//! Machines hold `Rc` internals and are deliberately not `Send`, so
//! snapshots never cross threads. Each executor worker lazily warms its
//! own thread-local pool instead; results are identical regardless of
//! which worker serves a request, so determinism is unaffected.

use qoa_chaos::{fnv1a, ChaosState, FaultKind, FaultPlan, Snapshot};
use qoa_core::runtime::DEFAULT_FUEL;
use qoa_core::QoaError;
use qoa_jit::{JitConfig, PyPyVm};
use qoa_model::CountingSink;
use qoa_vm::{HeapMode, Vm, VmConfig};
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

/// A pre-warmable serving machine: either the tracing-JIT runtime or the
/// plain checked interpreter, both counting micro-ops as service cost.
#[derive(Clone)]
pub enum Machine {
    /// `PyPyVm` (JIT on or off per [`JitConfig::enabled`]).
    Jit(Box<PyPyVm<CountingSink>>),
    /// Plain `Vm` with dynamic guards.
    Interp(Box<Vm<CountingSink>>),
}

impl Machine {
    fn set_fuel(&mut self, fuel: u64) {
        match self {
            Machine::Jit(m) => m.set_fuel(fuel),
            Machine::Interp(m) => m.set_fuel(fuel),
        }
    }

    fn arm_chaos(&mut self, chaos: ChaosState) {
        match self {
            Machine::Jit(m) => m.arm_chaos(chaos),
            Machine::Interp(m) => m.arm_chaos(chaos),
        }
    }

    fn take_injected(&mut self) -> Option<qoa_chaos::FaultRecord> {
        match self {
            Machine::Jit(m) => m.take_injected(),
            Machine::Interp(m) => m.take_injected(),
        }
    }

    fn run(&mut self) -> Result<(), qoa_vm::VmError> {
        match self {
            Machine::Jit(m) => m.run(),
            Machine::Interp(m) => m.run(),
        }
    }

    fn steps(&self) -> u64 {
        match self {
            Machine::Jit(m) => m.vm.steps(),
            Machine::Interp(m) => m.steps(),
        }
    }

    fn finish(self) -> (Option<String>, Vec<String>, CountingSink) {
        let mut vm = match self {
            Machine::Jit(m) => m.vm,
            Machine::Interp(m) => *m,
        };
        let result = vm.global_display("result");
        let output = vm.output().to_vec();
        let (sink, _) = vm.finish();
        (result, output, sink)
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
pub fn prewarm(source: &str, tier: Tier) -> Result<Snapshot<Machine>, QoaError> {
    let code = qoa_frontend::compile(source)?;
    let machine = match tier {
        Tier::Checked => {
            let cfg = VmConfig {
                heap: HeapMode::Rc,
                max_steps: DEFAULT_FUEL,
                deadline: None,
                max_heap_bytes: 0,
            };
            let mut vm = Vm::new(cfg, CountingSink::default());
            vm.load_program(&code);
            Machine::Interp(Box::new(vm))
        }
        Tier::Full | Tier::NoJit => {
            let verified = qoa_analysis::verify(&code)?;
            let cfg = JitConfig {
                enabled: tier == Tier::Full,
                max_steps: DEFAULT_FUEL,
                deadline: None,
                ..JitConfig::default()
            };
            let mut vm = PyPyVm::new(cfg, CountingSink::default());
            vm.load_verified(&verified);
            Machine::Jit(Box::new(vm))
        }
    };
    Ok(Snapshot::capture(0, &machine))
}

thread_local! {
    /// Per-thread snapshot pool, keyed by workload identity and tier.
    /// Executor workers are born per batch; each warms lazily on first
    /// use and serves every subsequent fork of the same workload from
    /// the cached snapshot.
    static POOL: RefCell<HashMap<(u64, Tier), Snapshot<Machine>>> =
        RefCell::new(HashMap::new());
}

/// Serves one request: restores a clone of the pre-warmed snapshot for
/// `(source, tier)`, caps its fuel at `fuel` guest bytecodes (0 =
/// unlimited), optionally arms a chaos plan, and runs to completion.
///
/// Recovery loop: when an armed fault fires, the partial execution is
/// discarded, the snapshot is restored again with the consumed fault
/// point disarmed, and the request re-runs. The client observes a
/// slower response, never a wrong one — the clean pass is byte-for-byte
/// the execution a fault-free serve would have produced.
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
    POOL.with(|cell| {
        let mut pool = cell.borrow_mut();
        let snap = match pool.entry(key) {
            std::collections::hash_map::Entry::Occupied(e) => e.into_mut(),
            std::collections::hash_map::Entry::Vacant(e) => e.insert(prewarm(source, tier)?),
        };
        run_from(snap, fuel, plan)
    })
}

fn run_from(
    snap: &Snapshot<Machine>,
    fuel: u64,
    plan: Option<&FaultPlan>,
) -> Result<ForkRun, QoaError> {
    let mut disarmed: Vec<usize> = Vec::new();
    let mut faults = 0u64;
    loop {
        let mut machine = snap.restore().ok_or_else(|| QoaError::Guest {
            message: "snapshot version mismatch on restore".into(),
            line: 0,
        })?;
        machine.set_fuel(fuel);
        if let Some(plan) = plan {
            if !plan.is_empty() {
                let mut chaos = ChaosState::new(plan.clone());
                for &idx in &disarmed {
                    chaos.disarm(idx);
                }
                machine.arm_chaos(chaos);
            }
        }
        match machine.run() {
            Ok(()) => {
                let steps = machine.steps();
                let (result, output, sink) = machine.finish();
                return Ok(ForkRun {
                    cost: sink.total(),
                    steps,
                    result,
                    out_hash: hash_output(&output),
                    output_lines: output.len() as u64,
                    faults,
                    restores: faults,
                });
            }
            Err(err) => match machine.take_injected() {
                Some(record) => {
                    faults += 1;
                    if !disarmed.contains(&record.index) {
                        disarmed.push(record.index);
                    }
                }
                None => return Err(QoaError::from(err)),
            },
        }
    }
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
