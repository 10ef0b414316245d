//! Fig. 4-static: static vs dynamic CPython overhead attribution.
//!
//! The static half weighs every *instruction* equally (the annotator's
//! per-opcode handler profiles, no execution frequencies); the dynamic
//! half is the usual cycle attribution on the simple core. Printing both
//! side by side shows how much of Fig. 4 is loop weighting rather than
//! opcode mix. The same cells also record the check-elision delta: the
//! cycles the verifier's `Verified` token saves over the guarded
//! dispatch path.

use qoa_bench::{cell_chaos, cli, emit, harness, limit, prewarm, NA};
use qoa_core::benchsnap::{write_bench_json, BenchEntry};
use qoa_core::harness::{capture_cell, run_cell_into, CellChaos};
use qoa_core::report::Table;
use qoa_core::runtime::RuntimeConfig;
use qoa_core::{Breakdown, CellKey, CellMetrics, Harness, Metric, QoaError, SupervisedCell};
use qoa_model::{Category, CategoryMap, RuntimeKind};
use qoa_uarch::{SimpleCore, UarchConfig};
use qoa_workloads::{Scale, Workload};

/// Static and dynamic shares plus the guard-elision cycle pair for one
/// benchmark.
struct StaticCell {
    name: String,
    stat: CategoryMap<f64>,
    dynamic: CategoryMap<f64>,
    cycles_elided: u64,
    cycles_guarded: u64,
}

fn static_key(w: &Workload, rt: &RuntimeConfig) -> CellKey {
    CellKey::new(w.name, format!("{:?}", rt.kind), "static-attribution", "simple-core")
}

fn measure_static(
    w: &Workload,
    scale: Scale,
    rt: RuntimeConfig,
    uarch: &UarchConfig,
    deadline: Option<std::time::Instant>,
    chaos: Option<CellChaos>,
    key: &CellKey,
) -> Result<CellMetrics, QoaError> {
    let src = w.source(scale);
    let code = qoa_frontend::compile(&src)?;
    let stat = qoa_analysis::annotate::static_shares(&code);
    let simple = |rt: RuntimeConfig| {
        run_cell_into(&src, &rt.with_deadline(deadline), chaos, key, SimpleCore::new(uarch))
            .map(|(core, _)| core.finish())
    };
    let dyn_stats = simple(rt)?;
    let b = Breakdown::from_stats(w.name, &dyn_stats);
    let g_stats = simple(rt.with_check_elision(false))?;
    let mut m = CellMetrics::new();
    m.insert("cycles.elided".into(), Metric::Int(dyn_stats.cycles as i64));
    m.insert("cycles.guarded".into(), Metric::Int(g_stats.cycles as i64));
    for c in Category::ALL {
        m.insert(format!("static.{c:?}"), Metric::Num(stat[c]));
        m.insert(format!("dynamic.{c:?}"), Metric::Num(b.shares[c]));
        m.insert(format!("delta.{c:?}"), Metric::Num(b.shares[c] - stat[c]));
    }
    Ok(m)
}

fn static_spec(
    w: &'static Workload,
    scale: Scale,
    rt: &RuntimeConfig,
    uarch: &UarchConfig,
    chaos: Option<CellChaos>,
) -> SupervisedCell<CellMetrics> {
    let key = static_key(w, rt);
    let rt = *rt;
    let uarch = uarch.clone();
    let mkey = key.clone();
    SupervisedCell::new(key, move |deadline| {
        measure_static(w, scale, rt, &uarch, deadline, chaos, &mkey)
    })
}

fn static_cell(
    h: &mut Harness,
    w: &Workload,
    scale: Scale,
    rt: &RuntimeConfig,
    uarch: &UarchConfig,
) -> Option<StaticCell> {
    let key = static_key(w, rt);
    let mkey = key.clone();
    let metrics =
        h.cell(key, |deadline| measure_static(w, scale, *rt, uarch, deadline, None, &mkey))?;
    let share = |prefix: &str| {
        CategoryMap::from_fn(|c| {
            metrics.get(&format!("{prefix}.{c:?}")).and_then(Metric::as_f64).unwrap_or(0.0)
        })
    };
    Some(StaticCell {
        name: w.name.to_string(),
        stat: share("static"),
        dynamic: share("dynamic"),
        cycles_elided: metrics.get("cycles.elided")?.as_i64()? as u64,
        cycles_guarded: metrics.get("cycles.guarded")?.as_i64()? as u64,
    })
}

/// `12.3/14.1` — static share / dynamic share, in percent.
fn pair(s: f64, d: f64) -> String {
    format!("{:.1}/{:.1}", s * 100.0, d * 100.0)
}

fn panel(title: &str, cats: &[Category], rows: &[StaticCell]) -> Table {
    let mut cols: Vec<&str> = vec!["benchmark"];
    let labels: Vec<String> = cats.iter().map(|c| c.label().to_string()).collect();
    cols.extend(labels.iter().map(|s| s.as_str()));
    let mut t = Table::new(title, &cols);
    for r in rows {
        let mut cells = vec![r.name.clone()];
        cells.extend(cats.iter().map(|&c| pair(r.stat[c], r.dynamic[c])));
        t.row(cells);
    }
    let n = rows.len().max(1) as f64;
    let mut cells = vec!["AVG".to_string()];
    cells.extend(cats.iter().map(|&c| {
        let s = rows.iter().map(|r| r.stat[c]).sum::<f64>() / n;
        let d = rows.iter().map(|r| r.dynamic[c]).sum::<f64>() / n;
        pair(s, d)
    }));
    t.row(cells);
    t
}

// ---- `--opt` mode: the static optimization pipeline ------------------------

/// Everything rendered for one benchmark of an `--opt` run.
struct OptCell {
    name: String,
    stat_before: CategoryMap<f64>,
    stat_after: CategoryMap<f64>,
    dyn_before: CategoryMap<f64>,
    dyn_after: CategoryMap<f64>,
    /// Simulated cycles per opt level (index = level).
    cycles: Vec<u64>,
    folded: u64,
    dce: u64,
    promoted: u64,
    fused: u64,
}

fn opt_key(w: &Workload) -> CellKey {
    CellKey::new(w.name, "CPython", "opt-pipeline", "simple-core")
}

/// Measures one benchmark across opt levels `0..=opt_level`: per-pass
/// rewrite counts, predicted (static) and measured (dynamic) category
/// shares before/after, and simulated cycles per level — and
/// enforces the semantics-preservation oracle (identical `result` and
/// output at every level) inside the cell, so a violation is a failed
/// cell, not a silently wrong row.
#[allow(clippy::too_many_arguments)]
fn measure_opt(
    w: &Workload,
    scale: Scale,
    rt: RuntimeConfig,
    opt_level: u8,
    uarch: &UarchConfig,
    deadline: Option<std::time::Instant>,
    chaos: Option<CellChaos>,
    key: &CellKey,
) -> Result<CellMetrics, QoaError> {
    let src = w.source(scale);
    let code = qoa_frontend::compile(&src)?;
    let stat_before = qoa_analysis::annotate::static_shares(&code);
    let (opt_code, report) = qoa_analysis::optimize(&code, opt_level)?;
    let stat_after = qoa_analysis::annotate::static_shares(opt_code.get());

    let mut m = CellMetrics::new();
    m.insert("opt.folded".into(), Metric::Int(report.folded as i64));
    m.insert("opt.dce".into(), Metric::Int(report.dce_removed as i64));
    m.insert("opt.promoted".into(), Metric::Int(report.promoted as i64));
    m.insert("opt.fused".into(), Metric::Int(report.fused as i64));
    for c in Category::ALL {
        m.insert(format!("static.before.{c:?}"), Metric::Num(stat_before[c]));
        m.insert(format!("static.after.{c:?}"), Metric::Num(stat_after[c]));
    }

    let mut baseline: Option<(Option<String>, Vec<String>)> = None;
    for level in 0..=opt_level {
        let rtl = rt.with_opt_level(level).with_deadline(deadline);
        let run = capture_cell(&src, &rtl, chaos, key)?;
        let stats = run.trace.simulate_simple(uarch);
        m.insert(format!("cycles.opt{level}"), Metric::Int(stats.cycles as i64));
        m.insert(format!("bytecodes.opt{level}"), Metric::Int(run.vm.bytecodes as i64));
        if level == 0 || level == opt_level {
            let tag = if level == 0 { "before" } else { "after" };
            let b = Breakdown::from_stats(w.name, &stats);
            for c in Category::ALL {
                m.insert(format!("dynamic.{tag}.{c:?}"), Metric::Num(b.shares[c]));
            }
        }
        match &baseline {
            None => baseline = Some((run.result.clone(), run.output.clone())),
            Some((r0, o0)) => {
                if run.result != *r0 || run.output != *o0 {
                    return Err(QoaError::Guest {
                        message: format!(
                            "semantics-preservation oracle violated at opt level {level}: \
                             result {:?} vs {:?}",
                            run.result, r0
                        ),
                        line: 0,
                    });
                }
            }
        }
    }
    Ok(m)
}

fn opt_spec(
    w: &'static Workload,
    scale: Scale,
    rt: &RuntimeConfig,
    opt_level: u8,
    uarch: &UarchConfig,
    chaos: Option<CellChaos>,
) -> SupervisedCell<CellMetrics> {
    let key = opt_key(w);
    let rt = *rt;
    let uarch = uarch.clone();
    let mkey = key.clone();
    SupervisedCell::new(key, move |deadline| {
        measure_opt(w, scale, rt, opt_level, &uarch, deadline, chaos, &mkey)
    })
}

fn opt_cell(
    h: &mut Harness,
    w: &Workload,
    scale: Scale,
    rt: &RuntimeConfig,
    opt_level: u8,
    uarch: &UarchConfig,
) -> Option<OptCell> {
    let key = opt_key(w);
    let mkey = key.clone();
    let metrics = h.cell(key, |deadline| {
        measure_opt(w, scale, *rt, opt_level, uarch, deadline, None, &mkey)
    })?;
    let share = |prefix: &str| {
        CategoryMap::from_fn(|c| {
            metrics.get(&format!("{prefix}.{c:?}")).and_then(Metric::as_f64).unwrap_or(0.0)
        })
    };
    let per_level = |prefix: &str| -> Vec<u64> {
        (0..=opt_level)
            .map(|l| {
                metrics
                    .get(&format!("{prefix}.opt{l}"))
                    .and_then(Metric::as_i64)
                    .unwrap_or(0) as u64
            })
            .collect()
    };
    let count = |k: &str| metrics.get(k).and_then(Metric::as_i64).unwrap_or(0) as u64;
    Some(OptCell {
        name: w.name.to_string(),
        stat_before: share("static.before"),
        stat_after: share("static.after"),
        dyn_before: share("dynamic.before"),
        dyn_after: share("dynamic.after"),
        cycles: per_level("cycles"),
        folded: count("opt.folded"),
        dce: count("opt.dce"),
        promoted: count("opt.promoted"),
        fused: count("opt.fused"),
    })
}

/// The categories the pipeline targets, for the before/after panels.
const OPT_CATS: [Category; 5] = [
    Category::Dispatch,
    Category::NameResolution,
    Category::Stack,
    Category::RegTransfer,
    Category::GarbageCollection,
];

fn opt_panel(
    title: &str,
    rows: &[OptCell],
    f: impl Fn(&OptCell, Category) -> (f64, f64),
) -> Table {
    let mut cols: Vec<&str> = vec!["benchmark"];
    let labels: Vec<String> = OPT_CATS.iter().map(|c| c.label().to_string()).collect();
    cols.extend(labels.iter().map(|s| s.as_str()));
    let mut t = Table::new(title, &cols);
    for r in rows {
        let mut cells = vec![r.name.clone()];
        cells.extend(OPT_CATS.iter().map(|&c| {
            let (b, a) = f(r, c);
            pair(b, a)
        }));
        t.row(cells);
    }
    let n = rows.len().max(1) as f64;
    let mut cells = vec!["AVG".to_string()];
    cells.extend(OPT_CATS.iter().map(|&c| {
        let b = rows.iter().map(|r| f(r, c).0).sum::<f64>() / n;
        let a = rows.iter().map(|r| f(r, c).1).sum::<f64>() / n;
        pair(b, a)
    }));
    t.row(cells);
    t
}

fn opt_mode(cli: &qoa_bench::Cli) -> ! {
    let opt_level = cli.opt_level.min(qoa_analysis::MAX_OPT_LEVEL);
    let mut h = harness(cli, "fig04-static-opt");
    // Both suites: the oracle and the cycle table cover all 85 workloads.
    let mut suite = limit(cli, qoa_workloads::python_suite());
    suite.extend(limit(cli, qoa_workloads::jetstream_suite()));
    let rt = RuntimeConfig::new(RuntimeKind::CPython);
    let uarch = UarchConfig::skylake();
    let chaos = cell_chaos(cli);
    prewarm(
        cli,
        &mut h,
        suite.iter().map(|&w| opt_spec(w, cli.scale, &rt, opt_level, &uarch, chaos)).collect(),
    );
    let mut rows: Vec<OptCell> = Vec::new();
    for w in &suite {
        eprintln!("running {} (opt 0..={opt_level})...", w.name);
        if let Some(r) = opt_cell(&mut h, w, cli.scale, &rt, opt_level, &uarch) {
            rows.push(r);
        }
    }
    if rows.is_empty() {
        eprintln!("no benchmark produced an optimization report");
        std::process::exit(h.finish().max(1));
    }

    emit(
        cli,
        &opt_panel(
            &format!(
                "Fig. 4-static --opt (a): predicted static shares, opt 0 -> {opt_level} (% of modeled micro-ops)"
            ),
            &rows,
            |r, c| (r.stat_before[c], r.stat_after[c]),
        ),
    );
    emit(
        cli,
        &opt_panel(
            &format!(
                "Fig. 4-static --opt (b): measured dynamic shares, opt 0 -> {opt_level} (% of cycles, CPython)"
            ),
            &rows,
            |r, c| (r.dyn_before[c], r.dyn_after[c]),
        ),
    );

    // Simulated-cycle deltas with the per-pass rewrite counts.
    let mut t = Table::new(
        format!("Fig. 4-static --opt (c): simulated cycles by opt level (0..={opt_level})"),
        &["benchmark", "cycles@0", &format!("cycles@{opt_level}"), "speedup", "folded", "dce", "promoted", "fused"],
    );
    for r in &rows {
        let c0 = r.cycles[0];
        let cn = *r.cycles.last().unwrap_or(&0);
        t.row(vec![
            r.name.clone(),
            c0.to_string(),
            cn.to_string(),
            if cn > 0 { format!("{:.3}x", c0 as f64 / cn as f64) } else { NA.into() },
            r.folded.to_string(),
            r.dce.to_string(),
            r.promoted.to_string(),
            r.fused.to_string(),
        ]);
    }
    let tot0: u64 = rows.iter().map(|r| r.cycles[0]).sum();
    let totn: u64 = rows.iter().map(|r| *r.cycles.last().unwrap_or(&0)).sum();
    t.row(vec![
        "TOTAL".into(),
        tot0.to_string(),
        totn.to_string(),
        if totn > 0 { format!("{:.3}x", tot0 as f64 / totn as f64) } else { NA.into() },
        rows.iter().map(|r| r.folded).sum::<u64>().to_string(),
        rows.iter().map(|r| r.dce).sum::<u64>().to_string(),
        rows.iter().map(|r| r.promoted).sum::<u64>().to_string(),
        rows.iter().map(|r| r.fused).sum::<u64>().to_string(),
    ]);
    emit(cli, &t);

    let n = rows.len() as f64;
    let avg = |f: &dyn Fn(&OptCell) -> f64| rows.iter().map(f).sum::<f64>() / n;
    println!("measured share reductions (dynamic, opt 0 -> {opt_level}, avg):");
    for c in [Category::Dispatch, Category::NameResolution] {
        let b = avg(&|r: &OptCell| r.dyn_before[c]);
        let a = avg(&|r: &OptCell| r.dyn_after[c]);
        println!("  {:<22} {:.1}% -> {:.1}% ({:+.1} pp)", c.label(), b * 100.0, a * 100.0, (a - b) * 100.0);
    }
    // Shares are relative, so a category whose neighbors shrink can gain
    // share while losing cycles; the absolute totals are the honest form
    // of the dispatch claim.
    println!("measured category cycle reductions (opt 0 -> {opt_level}, suite totals):");
    for c in [Category::Dispatch, Category::NameResolution] {
        let b: f64 = rows.iter().map(|r| r.dyn_before[c] * r.cycles[0] as f64).sum();
        let a: f64 =
            rows.iter().map(|r| r.dyn_after[c] * r.cycles[opt_level as usize] as f64).sum();
        println!("  {:<22} {:.0} -> {:.0} cycles ({:+.1}%)", c.label(), b, a, (a - b) / b * 100.0);
    }

    // BENCH snapshot: simulated cycles per workload per opt level.
    let mut entries = Vec::new();
    for r in &rows {
        for level in 0..=opt_level {
            entries.push(BenchEntry {
                class: format!("{}/opt{level}", r.name),
                cycles: r.cycles[level as usize],
            });
        }
    }
    match write_bench_json(&cli.journal_dir, "opt", "fig04-static", cli.seed, &entries) {
        Ok(path) => eprintln!("bench snapshot: {}", path.display()),
        Err(e) => {
            eprintln!("bench snapshot failed: {e}");
            std::process::exit(h.finish().max(1));
        }
    }
    std::process::exit(h.finish());
}

fn main() {
    let cli = cli();
    if cli.opt {
        opt_mode(&cli);
    }
    let mut h = harness(&cli, "fig04-static");
    let suite = limit(&cli, qoa_workloads::python_suite());
    let rt = RuntimeConfig::new(RuntimeKind::CPython);
    let uarch = UarchConfig::skylake();
    let chaos = cell_chaos(&cli);
    prewarm(
        &cli,
        &mut h,
        suite.iter().map(|&w| static_spec(w, cli.scale, &rt, &uarch, chaos)).collect(),
    );
    let mut rows: Vec<StaticCell> = Vec::new();
    for w in &suite {
        eprintln!("running {}...", w.name);
        if let Some(r) = static_cell(&mut h, w, cli.scale, &rt, &uarch) {
            rows.push(r);
        }
    }
    if rows.is_empty() {
        eprintln!("no benchmark produced an attribution");
        std::process::exit(h.finish().max(1));
    }

    emit(
        &cli,
        &panel(
            "Fig. 4-static (a): language features (static/dynamic % of cycles, CPython)",
            &Category::LANGUAGE_FEATURES,
            &rows,
        ),
    );
    emit(
        &cli,
        &panel(
            "Fig. 4-static (b): interpreter operations (static/dynamic % of cycles, CPython)",
            &Category::INTERPRETER_OPERATIONS,
            &rows,
        ),
    );

    // Where execution frequency moves the picture the most.
    let n = rows.len() as f64;
    let mut deltas: Vec<(Category, f64)> = Category::ALL
        .iter()
        .map(|&c| (c, rows.iter().map(|r| r.dynamic[c] - r.stat[c]).sum::<f64>() / n))
        .collect();
    deltas.sort_by(|a, b| b.1.abs().total_cmp(&a.1.abs()));
    println!("largest static-vs-dynamic share deltas (dynamic - static, avg):");
    for (c, d) in deltas.iter().take(5) {
        println!("  {:<22} {:+.1} pp", c.label(), d * 100.0);
    }

    // Check-elision headline: cycles on the guarded dispatch path vs the
    // verified (guard-free) path.
    let elided: u64 = rows.iter().map(|r| r.cycles_elided).sum();
    let guarded: u64 = rows.iter().map(|r| r.cycles_guarded).sum();
    if elided > 0 {
        println!(
            "dispatch guard cost: {:.2}% of cycles (verified elision speedup {:.3}x)",
            (guarded as f64 / elided as f64 - 1.0) * 100.0,
            guarded as f64 / elided as f64
        );
    }
    std::process::exit(h.finish());
}
