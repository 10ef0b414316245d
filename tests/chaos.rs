//! Chaos-engine guards.
//!
//! The contracts the fault-injection layer must keep:
//!
//! * **Neutrality** — with the engine compiled in but no faults armed,
//!   the simulation is bit-identical to a plain capture: same micro-ops,
//!   same cycles, same per-category attribution, and zero snapshots.
//! * **Differential oracle** — every injected-then-recovered run is
//!   byte-identical to the fault-free baseline.
//! * **Degrade mode** — JIT faults deoptimize in place and the run still
//!   completes with the baseline's guest result.
//! * **Snapshot determinism** — restoring a mid-run checkpoint and
//!   resuming reproduces the remainder of the run exactly.
//! * **Exposition** — the chaos counters surface through the Prometheus
//!   text format under their contractual names.

use qoa::chaos::{FaultKind, FaultPlan, FaultPoint, Snapshot};
use qoa::core::runtime::{capture, RuntimeConfig};
use qoa::core::{capture_chaos, fault_kinds_for, oracle_check, stats_divergence, ChaosOptions};
use qoa::model::RuntimeKind;
use qoa::obs::metrics::Registry;
use qoa::obs::parse_exposition;
use qoa::uarch::UarchConfig;
use qoa::vm::{StepEvent, Vm, VmConfig};
use qoa::workloads::{by_name, Scale};

const WORKLOAD: &str = "go";

/// A loop hot enough to compile under the modeled PyPy JIT.
const HOT_SRC: &str = "t = 0\nfor i in range(3000):\n    t = t + i\nresult = t\n";

fn source() -> String {
    by_name(WORKLOAD).expect("workload").source(Scale::Tiny)
}

#[test]
fn disabled_chaos_engine_is_simulation_neutral() {
    let source = source();
    let uarch = UarchConfig::skylake();
    for kind in [RuntimeKind::CPython, RuntimeKind::PyPyJit] {
        let rt = RuntimeConfig::new(kind);
        let baseline = capture(&source, &rt).expect("baseline runs");
        let (run, out) =
            capture_chaos(&source, &rt, &ChaosOptions::new(FaultPlan::empty())).expect("runs");
        assert_eq!(out.faults_injected_total(), 0);
        assert_eq!(out.checkpoints_written, 0, "{kind:?}: empty plan must not snapshot");
        assert_eq!(oracle_check(&baseline, &run, &uarch), None, "{kind:?} diverged");
        // Spelled out on top of the oracle: the cycle counts are
        // bit-identical, so the disabled engine has zero simulated cost.
        let a = baseline.trace.simulate_simple(&uarch);
        let b = run.trace.simulate_simple(&uarch);
        assert_eq!(a.cycles, b.cycles, "{kind:?}: simulated cycles changed");
        assert_eq!(stats_divergence(&a, &b), None);
    }
}

#[test]
fn interpreter_faults_recover_byte_identically() {
    let source = source();
    let uarch = UarchConfig::skylake();
    let rt = RuntimeConfig::new(RuntimeKind::CPython);
    let baseline = capture(&source, &rt).expect("baseline runs");
    for kind in [FaultKind::FuelTrip, FaultKind::DeadlineTrip, FaultKind::AllocFault] {
        let opts = ChaosOptions::new(FaultPlan::single(1000, kind));
        let (run, out) = capture_chaos(&source, &rt, &opts)
            .unwrap_or_else(|e| panic!("{kind:?} not recovered: {e}"));
        assert_eq!(out.injected.get(kind.name()), Some(&1), "{kind:?} did not fire");
        assert_eq!(out.recoveries_total(), 1);
        assert!(out.restores >= 1, "{kind:?} recovered without a restore");
        assert!(out.checkpoints_written >= 1);
        assert_eq!(oracle_check(&baseline, &run, &uarch), None, "{kind:?} oracle violated");
    }
}

/// Regression: two faults inside one checkpoint window. The snapshot
/// predates both, so each restore must re-disarm *every* recovered point
/// — recovering them one-at-a-time against the same snapshot would
/// re-arm the other and livelock.
#[test]
fn multiple_faults_in_one_checkpoint_window_recover() {
    let source = source();
    let uarch = UarchConfig::skylake();
    let rt = RuntimeConfig::new(RuntimeKind::CPython);
    let baseline = capture(&source, &rt).expect("baseline runs");
    let plan = FaultPlan {
        seed: 7,
        points: vec![
            FaultPoint { tick: 2000, kind: FaultKind::DeadlineTrip },
            FaultPoint { tick: 2050, kind: FaultKind::DeadlineTrip },
            FaultPoint { tick: 2100, kind: FaultKind::FuelTrip },
        ],
    };
    // A cadence far larger than the run: the step-0 snapshot covers all
    // three faults.
    let opts = ChaosOptions::new(plan).with_checkpoint_every(10_000_000);
    let (run, out) = capture_chaos(&source, &rt, &opts).expect("recovers");
    assert_eq!(out.faults_injected_total(), 3);
    assert_eq!(out.restores, 3);
    assert_eq!(oracle_check(&baseline, &run, &uarch), None);
}

/// Regression: a checkpoint falls due while an injected fault is still
/// pending delivery. Generated program 179 of sweep seed 1 has a fault
/// horizon of 1415 bytecodes and a checkpoint every 353; its allocation
/// fault at tick 683 is raised mid-step inside step 706 (= 2 × 353) and
/// only surfaces at the next step boundary. A snapshot taken at that
/// boundary would carry the pending fault, so every restore would raise
/// it again and recovery would never finish. The run goes on a helper
/// thread so a regression fails the test instead of hanging the suite.
#[test]
fn checkpoint_never_captures_a_pending_fault() {
    let seed = qoa_fuzz::program_seed(1, 179);
    let (tx, rx) = std::sync::mpsc::channel();
    let worker = std::thread::spawn(move || {
        let source = qoa_fuzz::generate_source(seed, &qoa_fuzz::GenConfig::default());
        let mut rt = RuntimeConfig::new(RuntimeKind::CPython);
        rt.max_steps = qoa_fuzz::oracle::ORACLE_FUEL;
        let baseline = capture(&source, &rt).expect("fault-free run completes");
        let horizon = baseline.vm.bytecodes;
        let plan = FaultPlan::seeded(seed, horizon, 6, fault_kinds_for(rt.kind));
        let opts = ChaosOptions::new(plan).with_checkpoint_every((horizon / 4).max(64));
        let (run, out) = capture_chaos(&source, &rt, &opts).expect("recovers");
        let verdict = oracle_check(&baseline, &run, &UarchConfig::skylake());
        let _ = tx.send((horizon, opts.checkpoint_every, out, verdict));
    });
    let got = rx.recv_timeout(std::time::Duration::from_secs(120));
    assert!(
        !matches!(got, Err(std::sync::mpsc::RecvTimeoutError::Timeout)),
        "chaos recovery restores forever"
    );
    worker.join().expect("the chaos run completes without panicking");
    let (horizon, every, out, verdict) = got.expect("the chaos run reports its result");
    assert_eq!((horizon, every), (1415, 353), "the reproducer drifted");
    assert!(out.injected.get(FaultKind::AllocFault.name()).is_some_and(|&n| n >= 1), "{out:?}");
    assert_eq!(out.restores, 3, "{out:?}");
    assert_eq!(verdict, None, "oracle violated");
}

#[test]
fn jit_faults_recover_byte_identically() {
    let uarch = UarchConfig::skylake();
    let rt = RuntimeConfig::new(RuntimeKind::PyPyJit);
    let baseline = capture(HOT_SRC, &rt).expect("baseline runs");
    assert!(baseline.jit.traces_compiled > 0, "workload must exercise the JIT");
    for kind in [FaultKind::JitCompileFault, FaultKind::TraceAbort] {
        let opts = ChaosOptions::new(FaultPlan::single(1, kind));
        let (run, out) = capture_chaos(HOT_SRC, &rt, &opts)
            .unwrap_or_else(|e| panic!("{kind:?} not recovered: {e}"));
        assert_eq!(out.injected.get(kind.name()), Some(&1), "{kind:?} did not fire");
        assert!(out.restores >= 1);
        assert_eq!(oracle_check(&baseline, &run, &uarch), None, "{kind:?} oracle violated");
        // Restore-recovery rewinds the fault entirely: the recovered
        // run's JIT statistics match the baseline too.
        assert_eq!(run.jit.traces_compiled, baseline.jit.traces_compiled);
        assert_eq!(run.jit.deopts, baseline.jit.deopts);
    }
}

#[test]
fn bytecode_corruption_is_handled_at_load() {
    let source = source();
    let uarch = UarchConfig::skylake();
    let rt = RuntimeConfig::new(RuntimeKind::CPython);
    let baseline = capture(&source, &rt).expect("baseline runs");
    let opts = ChaosOptions::new(FaultPlan::single(0, FaultKind::BytecodeCorrupt));
    let (run, out) = capture_chaos(&source, &rt, &opts).expect("runs");
    assert_eq!(out.faults_injected_total(), 1);
    assert_eq!(
        out.verifier_caught + out.verifier_missed,
        1,
        "the corrupted load must be adjudicated"
    );
    // The pristine code is what ran either way.
    assert_eq!(oracle_check(&baseline, &run, &uarch), None);
}

#[test]
fn degrade_mode_completes_with_the_baseline_result() {
    let rt = RuntimeConfig::new(RuntimeKind::PyPyJit);
    let baseline = capture(HOT_SRC, &rt).expect("baseline runs");

    // Compile fault: the recording is discarded, the loop stays hot, and
    // a later attempt compiles it.
    let opts =
        ChaosOptions::new(FaultPlan::single(1, FaultKind::JitCompileFault)).with_degrade_jit();
    let (run, out) = capture_chaos(HOT_SRC, &rt, &opts).expect("degrades, not fails");
    assert_eq!(run.result, baseline.result);
    assert_eq!(out.restores, 0, "degrade mode must not restore");
    assert_eq!(out.recoveries.get("jit"), Some(&1));
    assert!(run.jit.aborted_recordings > baseline.jit.aborted_recordings);

    // Trace abort: the compiled loop deoptimizes back to the interpreter
    // and the run continues.
    let opts = ChaosOptions::new(FaultPlan::single(1, FaultKind::TraceAbort)).with_degrade_jit();
    let (run, out) = capture_chaos(HOT_SRC, &rt, &opts).expect("degrades, not fails");
    assert_eq!(run.result, baseline.result);
    assert_eq!(out.recoveries.get("jit"), Some(&1));
    assert!(run.jit.deopts > baseline.jit.deopts, "the abort must deoptimize");
}

#[test]
fn snapshot_restore_resumes_identically() {
    let source = source();
    let uarch = UarchConfig::skylake();
    let code = qoa::frontend::compile(&source).expect("compiles");

    let run_to_end = |mut vm: Vm<qoa::uarch::TraceBuffer>| {
        while !matches!(vm.step().expect("steps"), StepEvent::Done) {}
        let result = vm.global_display("result");
        let (trace, _) = vm.finish();
        (trace, result)
    };

    let mut reference = Vm::new(VmConfig::default(), qoa::uarch::TraceBuffer::new());
    reference.load_program(&code);
    let (full_trace, full_result) = run_to_end(reference);

    // Run a second machine part-way, checkpoint, throw the live machine
    // away, and finish from the restored snapshot.
    let mut vm = Vm::new(VmConfig::default(), qoa::uarch::TraceBuffer::new());
    vm.load_program(&code);
    for _ in 0..5000 {
        assert!(!matches!(vm.step().expect("steps"), StepEvent::Done), "ran out early");
    }
    let snap = Snapshot::capture(vm.steps(), &vm);
    drop(vm);
    let restored = snap.restore().expect("snapshot version matches");
    let (resumed_trace, resumed_result) = run_to_end(restored);

    assert_eq!(resumed_result, full_result);
    assert_eq!(resumed_trace.len(), full_trace.len(), "resumed trace length diverged");
    let a = full_trace.simulate_simple(&uarch);
    let b = resumed_trace.simulate_simple(&uarch);
    assert_eq!(stats_divergence(&a, &b), None, "resumed run simulates differently");
}

#[test]
fn chaos_counters_surface_in_the_exposition() {
    let source = source();
    let rt = RuntimeConfig::new(RuntimeKind::CPython);
    let opts = ChaosOptions::new(FaultPlan::single(1000, FaultKind::FuelTrip));
    let (_, out) = capture_chaos(&source, &rt, &opts).expect("recovers");

    let mut reg = Registry::new();
    out.export(&mut reg);
    let text = reg.expose();
    for name in [
        "qoa_chaos_faults_injected_total",
        "qoa_chaos_recoveries_total",
        "qoa_chaos_checkpoints_written_total",
        "qoa_chaos_restores_total",
    ] {
        assert!(text.contains(name), "exposition is missing {name}:\n{text}");
    }
    let exposition = parse_exposition(&text).expect("exposition round-trips");
    assert_eq!(
        exposition.get("qoa_chaos_faults_injected_total"),
        Some(out.faults_injected_total() as f64)
    );
    assert!(text.contains("qoa_chaos_recoveries_total{kind=\"fuel\"}"));
}
