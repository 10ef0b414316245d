//! The three figure workloads: `trajectory`, `uarch-sweep` and `nursery`.
//!
//! All three have one shape. A cell is a guest program under one
//! run-time configuration: the pass captures its micro-op trace and
//! replays it on one or more core models. They differ in how often a
//! trace is replayed, which decides whether capture or replay dominates:
//!
//! * `trajectory`: the `qoa-bench` panel, each trace replayed once on the
//!   simple core (record once, replay once);
//! * `uarch-sweep`: the Fig. 7 method, each trace replayed on the
//!   out-of-order core at all 36 `SweepParam` points;
//! * `nursery`: the Fig. 14 method, the program re-executed at each of
//!   the 9 scaled nursery sizes and replayed once on the out-of-order
//!   core.
//!
//! Inputs are the paper's fixed configurations; the seed only orders the
//! cells, so every seed must reproduce the same simulated cycles.

use crate::ledger::{span_if, Ledger};
use crate::pipeline::capture_layered;
use crate::{shuffle, Bench, PassOutput, Size};
use qoa_core::sweeps::{SweepParam, NURSERY_SIZES_SCALED};
use qoa_core::RuntimeConfig;
use qoa_model::RuntimeKind;
use qoa_uarch::{TraceBuffer, UarchConfig};
use qoa_workloads::Scale;

/// Which core model replays a captured trace.
#[derive(Debug, Clone)]
enum Replay {
    /// Once on the in-order core.
    Simple,
    /// Once on the out-of-order core per configuration.
    Ooo(Vec<UarchConfig>),
}

/// One guest program under one run-time configuration.
#[derive(Debug, Clone)]
struct Cell {
    source: String,
    rt: RuntimeConfig,
}

/// A set of cells sharing one replay plan.
pub(crate) struct Figure {
    cells: Vec<Cell>,
    replay: Replay,
}

/// The program `name` at `scale`, compiled and verified once so that a
/// malformed input stops the run in set-up rather than mid-pass.
fn source(name: &str, scale: Scale) -> String {
    let src = qoa_workloads::by_name(name)
        .unwrap_or_else(|| panic!("workload '{name}' is not registered"))
        .source(scale);
    let code = qoa_frontend::compile(&src).unwrap_or_else(|e| panic!("{name}: {e}"));
    qoa_analysis::verify(&code).unwrap_or_else(|e| panic!("{name}: {e}"));
    src
}

/// {go, float, richards} x opt {0, 2} x {CPython, PyPy-JIT} at Small
/// scale, as `qoa-bench` measures it (Tiny for [`Size::Smoke`]).
pub(crate) fn trajectory(size: Size, seed: u64) -> Figure {
    let scale = if size == Size::Full { Scale::Small } else { Scale::Tiny };
    let mut cells = Vec::new();
    for name in ["go", "float", "richards"] {
        let src = source(name, scale);
        for opt in [0, qoa_analysis::MAX_OPT_LEVEL] {
            for kind in [RuntimeKind::CPython, RuntimeKind::PyPyJit] {
                let rt = RuntimeConfig::new(kind).with_opt_level(opt);
                cells.push(Cell { source: src.clone(), rt });
            }
        }
    }
    shuffle(&mut cells, seed);
    Figure { cells, replay: Replay::Simple }
}

/// {go, float, richards} at Tiny x {CPython, PyPy-JIT}, each replayed on
/// the out-of-order core at every `SweepParam` point (go alone for
/// [`Size::Smoke`]).
pub(crate) fn uarch_sweep(size: Size, seed: u64) -> Figure {
    let programs: &[&str] = if size == Size::Full { &["go", "float", "richards"] } else { &["go"] };
    let mut cells = Vec::new();
    for name in programs {
        let src = source(name, Scale::Tiny);
        for kind in [RuntimeKind::CPython, RuntimeKind::PyPyJit] {
            cells.push(Cell { source: src.clone(), rt: RuntimeConfig::new(kind) });
        }
    }
    shuffle(&mut cells, seed);
    let base = UarchConfig::skylake();
    let points = SweepParam::ALL
        .iter()
        .flat_map(|&p| p.values().into_iter().map(move |v| (p, v)))
        .map(|(p, v)| p.apply(&base, v))
        .collect();
    Figure { cells, replay: Replay::Ooo(points) }
}

/// {telco, fannkuch, spitfire} at Tiny under PyPy without the JIT, at the
/// 9 scaled nursery sizes (telco at 3 sizes for [`Size::Smoke`]).
pub(crate) fn nursery(size: Size, seed: u64) -> Figure {
    let (programs, sizes): (&[&str], &[u64]) = if size == Size::Full {
        (&["telco", "fannkuch", "spitfire"], &NURSERY_SIZES_SCALED)
    } else {
        (&["telco"], &NURSERY_SIZES_SCALED[..3])
    };
    let mut cells = Vec::new();
    for name in programs {
        let src = source(name, Scale::Tiny);
        for &bytes in sizes {
            let rt = RuntimeConfig::new(RuntimeKind::PyPyNoJit).with_nursery(bytes);
            cells.push(Cell { source: src.clone(), rt });
        }
    }
    shuffle(&mut cells, seed);
    Figure { cells, replay: Replay::Ooo(vec![UarchConfig::skylake()]) }
}

impl Figure {
    /// Replays `trace` per the plan and returns the summed cycles.
    fn replay(&self, trace: &TraceBuffer, mut ledger: Option<&mut Ledger>) -> u64 {
        let ops = trace.len() as u64;
        match &self.replay {
            Replay::Simple => {
                if let Some(l) = ledger.as_deref_mut() {
                    l.count("uarch.simple.ops", ops);
                }
                let uarch = UarchConfig::skylake();
                span_if(ledger, "uarch.simple.replay", || trace.simulate_simple(&uarch).cycles)
            }
            Replay::Ooo(points) => points
                .iter()
                .map(|cfg| {
                    if let Some(l) = ledger.as_deref_mut() {
                        l.count("uarch.ooo.replays", 1);
                        l.count("uarch.ooo.ops", ops);
                    }
                    span_if(ledger.as_deref_mut(), "uarch.ooo.replay", || {
                        trace.simulate_ooo(cfg).cycles
                    })
                })
                .sum(),
        }
    }
}

impl Bench for Figure {
    fn pass(&mut self, mut ledger: Option<&mut Ledger>) -> PassOutput {
        let mut out = PassOutput::default();
        for cell in &self.cells {
            out.attempted += 1;
            let run = match ledger.as_deref_mut() {
                None => qoa_core::capture(&cell.source, &cell.rt),
                Some(l) => capture_layered(&cell.source, &cell.rt, l),
            };
            match run {
                Ok(run) => out.sim_cycles += self.replay(&run.trace, ledger.as_deref_mut()),
                Err(e) => {
                    eprintln!("cell {:?} failed: {e}", cell.rt.kind);
                    out.failed += 1;
                }
            }
        }
        out
    }
}
