//! Ablation studies for the design choices DESIGN.md calls out.
//!
//! 1. **JIT pipeline stages** — interpreter-only vs. traces-without-bridges
//!    vs. the full pipeline: quantifies how much of the JIT's win comes
//!    from bridge compilation on branchy code (Fig. 2's "additional steps"
//!    discussion).
//! 2. **BTB capacity** — the paper finds indirect calls are ~11.9% of the
//!    C-function-call overhead and that BTB-focused prior work cannot
//!    remove the rest; this ablation removes/boosts the BTB and reports
//!    both the CPI delta and the instruction-level indirect-call share.
//! 3. **Nursery policy** — static half-of-LLC vs. maximum vs. best-per-app
//!    (the Fig. 17 policy comparison as a single table).

use qoa_bench::{cell_chaos, cli, emit, harness, run, Cli, NA};
use qoa_core::harness::{capture_cell, nursery_spec, NurseryCell};
use qoa_core::journal::{CellKey, CellMetrics, Metric};
use qoa_core::report::{f2, f3, pct, Table};
use qoa_core::runtime::RuntimeConfig;
use qoa_core::sweeps::{format_bytes, NURSERY_SIZES_SCALED};
use qoa_core::SupervisedCell;
use qoa_jit::JitConfig;
use qoa_model::{Category, OpKind, RuntimeKind};
use qoa_uarch::UarchConfig;
use qoa_workloads::by_name;

const JIT_STAGE_BENCHMARKS: [&str; 4] = ["eparse", "go", "richards", "fannkuch"];
const BTB_BENCHMARKS: [&str; 3] = ["richards", "deltablue", "nbody"];
const NURSERY_BENCHMARKS: [&str; 4] = ["spitfire", "unpack_seq", "html5lib", "telco"];

/// The batch results, consumed by the studies in spec order.
type Results = std::vec::IntoIter<Option<CellMetrics>>;

fn main() {
    let cli = cli();
    let mut h = harness(&cli, "ablation");
    let mut results = run(&cli, &mut h, specs(&cli)).into_iter();
    jit_stage_ablation(&cli, &mut results);
    btb_ablation(&cli, &mut results);
    nursery_policy_ablation(&cli, &mut results);
    std::process::exit(h.finish());
}

/// Every ablation cell, in the order the studies below render them.
fn specs(cli: &Cli) -> Vec<SupervisedCell<CellMetrics>> {
    let chaos = cell_chaos(cli);
    let scale = cli.scale;
    let mut specs = Vec::new();

    // Ablation 1: JIT pipeline stages. The PyPyVm is driven directly, so
    // these cells run without fault injection.
    let base = JitConfig { nursery_size: 512 << 10, ..JitConfig::default() };
    let stages = [
        ("interp-only", JitConfig { enabled: false, ..base }),
        ("no-bridges", JitConfig { bridge_threshold: u32::MAX, ..base }),
        ("full", base),
    ];
    for name in JIT_STAGE_BENCHMARKS {
        let w = by_name(name).expect("workload");
        for (tag, cfg) in stages {
            let key = CellKey::new(name, "PyPyJit", "jit-stage", tag);
            specs.push(SupervisedCell::new(key, move |deadline| {
                let uarch = UarchConfig::skylake();
                let cfg = JitConfig { deadline, ..cfg };
                // Verified code loads with the dispatch guards elided, as
                // `Machine::load` loads it for every other figure.
                let code = qoa_analysis::verify(&qoa_frontend::compile(&w.source(scale))?)?;
                let mut vm = qoa_jit::PyPyVm::new(cfg, qoa_uarch::TraceBuffer::new());
                vm.load_verified(&code);
                vm.run()?;
                let (trace, _) = vm.vm.finish();
                let cycles = trace.simulate_ooo(&uarch).cycles;
                let mut m = CellMetrics::new();
                m.insert("cycles".into(), Metric::Int(cycles as i64));
                Ok(m)
            }));
        }
    }

    // Ablation 2: BTB capacity.
    for name in BTB_BENCHMARKS {
        let w = by_name(name).expect("workload");
        let key = CellKey::new(name, "CPython", "btb", "ablation");
        let mkey = key.clone();
        specs.push(SupervisedCell::new(key, move |deadline| {
            let rt = RuntimeConfig::new(RuntimeKind::CPython).with_deadline(deadline);
            let run = capture_cell(&w.source(scale), &rt, chaos, &mkey)?;
            // Instruction-level share: indirect call/branch ops within the
            // C-function-call category (paper: 11.9% average).
            let mut ccall_ops = 0u64;
            let mut ccall_indirect = 0u64;
            for op in run.trace.ops() {
                if op.category == Category::CFunctionCall {
                    ccall_ops += 1;
                    if matches!(op.kind, OpKind::Call { indirect: true, .. } | OpKind::Ret) {
                        ccall_indirect += 1;
                    }
                }
            }
            let mut cfg_tiny = UarchConfig::skylake();
            cfg_tiny.branch.btb_entries = 16;
            let mut cfg_huge = UarchConfig::skylake();
            cfg_huge.branch.btb_entries = 1 << 16;
            let mut m = CellMetrics::new();
            m.insert("cpi_tiny".into(), Metric::Num(run.trace.simulate_ooo(&cfg_tiny).cpi()));
            m.insert(
                "cpi_base".into(),
                Metric::Num(run.trace.simulate_ooo(&UarchConfig::skylake()).cpi()),
            );
            m.insert("cpi_huge".into(), Metric::Num(run.trace.simulate_ooo(&cfg_huge).cpi()));
            m.insert(
                "indirect_share".into(),
                Metric::Num(ccall_indirect as f64 / ccall_ops.max(1) as f64),
            );
            Ok(m)
        }));
    }

    // Ablation 3: nursery policy.
    let rt = RuntimeConfig::new(RuntimeKind::PyPyJit);
    let uarch = UarchConfig::skylake();
    for name in NURSERY_BENCHMARKS {
        let w = by_name(name).expect("workload");
        for &n in NURSERY_SIZES_SCALED.iter() {
            specs.push(nursery_spec(w, scale, &rt, &uarch, n, "", chaos));
        }
    }
    specs
}

fn jit_stage_ablation(cli: &Cli, results: &mut Results) {
    let mut t = Table::new(
        "Ablation 1: JIT pipeline stages (cycles, OOO core)",
        &["benchmark", "interp-only", "traces only", "traces+bridges", "full speedup"],
    );
    for name in JIT_STAGE_BENCHMARKS {
        let mut stage = || Some(results.next()??.get("cycles")?.as_i64()? as u64);
        let interp = stage();
        let no_bridges = stage();
        let full = stage();
        let cell = |v: Option<u64>| v.map_or(NA.into(), |c| c.to_string());
        let speedup = match (interp, full) {
            (Some(i), Some(f)) => format!("{}x", f2(i as f64 / f.max(1) as f64)),
            _ => NA.into(),
        };
        t.row(vec![name.to_string(), cell(interp), cell(no_bridges), cell(full), speedup]);
    }
    emit(cli, &t);
}

fn btb_ablation(cli: &Cli, results: &mut Results) {
    let mut t = Table::new(
        "Ablation 2: BTB capacity on the CPython interpreter",
        &["benchmark", "CPI tiny BTB", "CPI baseline", "CPI huge BTB", "indirect share of C-call ops"],
    );
    for name in BTB_BENCHMARKS {
        let metrics = results.next().flatten();
        let get = |n: &str| metrics.as_ref().and_then(|m| m.get(n)?.as_f64());
        t.row(vec![
            name.to_string(),
            get("cpi_tiny").map_or(NA.into(), f3),
            get("cpi_base").map_or(NA.into(), f3),
            get("cpi_huge").map_or(NA.into(), f3),
            get("indirect_share").map_or(NA.into(), pct),
        ]);
    }
    emit(cli, &t);
}

fn nursery_policy_ablation(cli: &Cli, results: &mut Results) {
    let mut t = Table::new(
        "Ablation 3: nursery policy (cycles normalized to the 1MB static policy)",
        &["benchmark", "half-LLC (1MB)", "maximum", "best-per-app", "best size"],
    );
    for name in NURSERY_BENCHMARKS {
        let pts = NurseryCell::take_row(results, &NURSERY_SIZES_SCALED);
        let baseline = pts
            .iter()
            .flatten()
            .find(|p| p.nursery == (1 << 20))
            .map(|p| p.cycles as f64);
        let (Some(baseline), Some(max), Some(best)) =
            (baseline, pts.last().cloned().flatten(), NurseryCell::best(&pts))
        else {
            t.row(vec![name.to_string(), NA.into(), NA.into(), NA.into(), NA.into()]);
            continue;
        };
        t.row(vec![
            name.to_string(),
            "1.000".into(),
            f3(max.cycles as f64 / baseline),
            f3(best.cycles as f64 / baseline),
            format_bytes(best.nursery),
        ]);
    }
    emit(cli, &t);
}
