//! The `fuzz-oracle` workload: generated programs through the six-tier
//! differential oracle.
//!
//! Many short, unrelated programs, each captured six times. It is the
//! only workload where the front end and analysis layers are visible,
//! and the only one that runs chaos recovery. The program set is fixed:
//! sweep seed 1, indices 0..200, each with the chaos seed `qoa-fuzz`
//! gives it. The run seed only orders the programs, so every seed must
//! reproduce the same verdicts and bytecode counts.
//!
//! Set-up drops two kinds of program that would stop a pass:
//!
//! * programs the checked interpreter rejects with the oracle's fuel and
//!   a 64 MB simulated heap cap. Some generated programs grow strings
//!   without bound (index 249 makes `differential` ask the host for more
//!   than 6 GB), which breaks the generator's bounded-growth promise;
//! * [`LIVELOCKS`]: programs whose chaos tier never finishes. Recovery
//!   cannot be bounded from outside, because a restore also rewinds the
//!   fuel and deadline clocks.
//!
//! Both count toward `fuzz.screened_out`.

use crate::ledger::Ledger;
use crate::pipeline::capture_layered;
use crate::{shuffle, Bench, PassOutput, Size};
use qoa_chaos::FaultPlan;
use qoa_core::{
    capture_chaos, fault_kinds_for, oracle_check, run_isolated, CapturedRun, ChaosOptions,
    RuntimeConfig,
};
use qoa_fuzz::oracle::ORACLE_FUEL;
use qoa_fuzz::{differential, generate_source, program_seed, FuzzVerdict, GenConfig};
use qoa_model::{CountingSink, RuntimeKind};
use qoa_uarch::UarchConfig;
use std::time::{Duration, Instant};

/// The sweep seed the program set is generated from.
const SWEEP_SEED: u64 = 1;

/// Simulated heap cap of the set-up screen.
const SCREEN_HEAP_BYTES: u64 = 64 << 20;

/// Indices whose chaos tier livelocks `qoa_core::capture_chaos` under
/// their sweep chaos seed. Index 179's plan injects an allocation fault
/// at tick 683 and a deadline trip at tick 1376 with checkpoints every
/// 353 bytecodes; recovery restores and re-fails forever.
const LIVELOCKS: [u64; 1] = [179];

struct Program {
    source: String,
    chaos_seed: u64,
}

pub(crate) struct FuzzOracle {
    programs: Vec<Program>,
    gen_secs: f64,
    screened_out: u64,
}

fn checked() -> RuntimeConfig {
    let mut rt = RuntimeConfig::new(RuntimeKind::CPython).with_check_elision(false);
    rt.max_steps = ORACLE_FUEL;
    rt
}

/// Generates and screens the program set (indices 0..200, or 0..8 for
/// [`Size::Smoke`]) and orders it by `seed`.
pub(crate) fn setup(size: Size, seed: u64) -> FuzzOracle {
    let count = if size == Size::Full { 200 } else { 8 };
    let t = Instant::now();
    let sources: Vec<String> = (0..count)
        .map(|i| generate_source(program_seed(SWEEP_SEED, i), &GenConfig::default()))
        .collect();
    let gen_secs = t.elapsed().as_secs_f64();

    let screen = checked().with_heap_cap(SCREEN_HEAP_BYTES);
    let mut programs = Vec::new();
    let mut screened_out = 0;
    for (i, source) in (0..).zip(sources) {
        let run = || qoa_core::run_with_sink(&source, &screen, CountingSink::new());
        if LIVELOCKS.contains(&i) || run_isolated(run).is_err() {
            screened_out += 1;
        } else {
            programs.push(Program { source, chaos_seed: program_seed(SWEEP_SEED, i) });
        }
    }
    shuffle(&mut programs, seed);
    FuzzOracle { programs, gen_secs, screened_out }
}

impl Bench for FuzzOracle {
    fn pass(&mut self, mut ledger: Option<&mut Ledger>) -> PassOutput {
        let mut out = PassOutput::default();
        for p in &self.programs {
            out.attempted += 1;
            let t = Instant::now();
            let verdict = match ledger.as_deref_mut() {
                None => differential(&p.source, p.chaos_seed, None),
                Some(l) => differential_layered(&p.source, p.chaos_seed, l),
            };
            out.item_secs.push(t.elapsed().as_secs_f64());
            match verdict {
                FuzzVerdict::Agree { bytecodes, .. } => out.sim_cycles += bytecodes,
                other => {
                    eprintln!("program with chaos seed {:#x}: {other:?}", p.chaos_seed);
                    out.failed += 1;
                }
            }
        }
        out
    }

    fn setup_layers(&self) -> Vec<(&'static str, f64)> {
        vec![("fuzz.gen_s", self.gen_secs), ("fuzz.screened_out", self.screened_out as f64)]
    }
}

/// A tier's guest-visible outcome, as `qoa_fuzz::oracle` compares it.
type Outcome = Result<(Option<String>, Vec<String>), String>;

fn outcome(run: &Result<CapturedRun, String>) -> Outcome {
    match run {
        Ok(r) => Ok((r.result.clone(), r.output.clone())),
        Err(e) => Err(e.clone()),
    }
}

fn is_fuel(o: &Outcome) -> bool {
    matches!(o, Err(e) if e.starts_with("fuel"))
}

/// One capture tier, isolated like `qoa_fuzz::oracle` isolates it, with
/// its wall added to `spent`.
fn tier(
    source: &str,
    rt: &RuntimeConfig,
    ledger: &mut Ledger,
    spent: &mut Duration,
) -> Result<CapturedRun, String> {
    let t = Instant::now();
    let run = run_isolated(|| capture_layered(source, rt, ledger))
        .map_err(|f| format!("{}: {}", f.error.kind(), f.error));
    *spent += t.elapsed();
    run
}

/// [`differential`] with each layer call in a span: the five capture
/// tiers through [`capture_layered`], then the chaos tier and its strict
/// oracle. Verdicts follow `qoa_fuzz::oracle` exactly; the divergence
/// detail is shortened to the tier name.
fn differential_layered(source: &str, chaos_seed: u64, ledger: &mut Ledger) -> FuzzVerdict {
    let elided =
        RuntimeConfig { max_steps: ORACLE_FUEL, ..RuntimeConfig::new(RuntimeKind::CPython) };
    let jit = RuntimeConfig { max_steps: ORACLE_FUEL, ..RuntimeConfig::new(RuntimeKind::PyPyJit) };
    let mut spent = Duration::ZERO;
    let baseline = outcome(&tier(source, &checked(), ledger, &mut spent));
    if is_fuel(&baseline) {
        ledger.time("fuzz.tier_capture", spent);
        return FuzzVerdict::Inconclusive;
    }
    let twin = tier(source, &elided, ledger, &mut spent);
    let tiers = [
        ("opt1", tier(source, &elided.with_opt_level(1), ledger, &mut spent)),
        ("opt2", tier(source, &elided.with_opt_level(2), ledger, &mut spent)),
        ("jit", tier(source, &jit, ledger, &mut spent)),
    ];
    ledger.time("fuzz.tier_capture", spent);

    let horizon = twin.as_ref().map_or(1024, |r| r.vm.bytecodes.max(1));
    let plan = FaultPlan::seeded(chaos_seed, horizon, 6, fault_kinds_for(RuntimeKind::CPython));
    let opts = ChaosOptions::new(plan).with_checkpoint_every((horizon / 4).max(64));
    let chaos = ledger.span("chaos.capture", || {
        run_isolated(|| capture_chaos(source, &elided, &opts))
            .map_err(|f| format!("{}: {}", f.error.kind(), f.error))
    });
    let chaos = chaos.map(|(run, stats)| {
        ledger.count("chaos.faults", stats.faults_injected_total());
        ledger.count("chaos.restores", stats.restores);
        run
    });

    let outcomes = [("interp-elided", outcome(&twin))]
        .into_iter()
        .chain(tiers.iter().map(|(name, run)| (*name, outcome(run))))
        .chain([("chaos", outcome(&chaos))]);
    let outcomes: Vec<(&str, Outcome)> = outcomes.collect();
    if outcomes.iter().any(|(_, o)| is_fuel(o)) {
        return FuzzVerdict::Inconclusive;
    }
    let diverge = |tier: &str| {
        FuzzVerdict::Diverge(qoa_fuzz::Divergence { tier: tier.to_string(), detail: String::new() })
    };
    if let Some((tier, _)) = outcomes.iter().find(|(_, o)| *o != baseline) {
        return diverge(tier);
    }
    if let (Ok(twin), Ok(chaos)) = (&twin, &chaos) {
        let uarch = UarchConfig::skylake();
        if ledger.span("fuzz.oracle_check", || oracle_check(twin, chaos, &uarch)).is_some() {
            return diverge("chaos");
        }
    }
    let result = baseline.ok().and_then(|(result, _)| result);
    FuzzVerdict::Agree { result, bytecodes: twin.map_or(0, |r| r.vm.bytecodes) }
}
