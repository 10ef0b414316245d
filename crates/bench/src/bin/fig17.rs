//! Fig. 17: normalized execution time with the best nursery size chosen
//! per application (PyPy w/ JIT, 2 MB LLC), against the static
//! half-of-cache (1 MB) baseline — plus the paper's two headline
//! averages: best-per-app (-21.4%) vs max-nursery-for-all (-9.8%).

use qoa_bench::{cell_chaos, cli, emit, harness, run, sweep_subset, NA};
use qoa_core::harness::{nursery_spec, NurseryCell};
use qoa_core::report::{f3, Table};
use qoa_core::runtime::RuntimeConfig;
use qoa_core::sweeps::{format_bytes, NURSERY_SIZES_SCALED as NURSERY_SIZES};
use qoa_model::RuntimeKind;
use qoa_uarch::UarchConfig;
use qoa_workloads::FIG14_BENCHMARKS;

fn main() {
    let cli = cli();
    let mut h = harness(&cli, "fig17");
    let suite = sweep_subset(&cli, qoa_workloads::python_suite(), &FIG14_BENCHMARKS);
    let rt = RuntimeConfig::new(RuntimeKind::PyPyJit);
    let uarch = UarchConfig::skylake();
    let chaos = cell_chaos(&cli);
    let mut specs = Vec::new();
    for &w in &suite {
        for &n in NURSERY_SIZES.iter() {
            specs.push(nursery_spec(w, cli.scale, &rt, &uarch, n, "", chaos));
        }
    }
    let mut results = run(&cli, &mut h, specs).into_iter();
    let baseline_idx = NURSERY_SIZES
        .iter()
        .position(|&b| b == (1 << 20))
        .expect("1MB nursery is in the sweep");
    let max_idx = NURSERY_SIZES.len() - 1;

    let mut t = Table::new(
        "Fig. 17: normalized execution time at the best nursery per benchmark",
        &["benchmark", "best nursery", "best/baseline", "max/baseline"],
    );
    let mut best_sum = 0.0;
    let mut best_n = 0usize;
    let mut max_sum = 0.0;
    let mut max_n = 0usize;
    for w in &suite {
        let pts = NurseryCell::take_row(&mut results, &NURSERY_SIZES);
        // Both columns normalize to the workload's own baseline point.
        let Some(base) = pts[baseline_idx].as_ref().map(|p| p.cycles.max(1) as f64) else {
            t.row(vec![w.name.to_string(), NA.into(), NA.into(), NA.into()]);
            continue;
        };
        let best = NurseryCell::best(&pts);
        let best_cell = best.map(|b| {
            let norm = b.cycles as f64 / base;
            best_sum += norm;
            best_n += 1;
            (format_bytes(b.nursery), f3(norm))
        });
        let max_cell = pts[max_idx].as_ref().map(|p| {
            let norm = p.cycles as f64 / base;
            max_sum += norm;
            max_n += 1;
            f3(norm)
        });
        let (best_nursery, best_norm) = best_cell.unwrap_or((NA.into(), NA.into()));
        t.row(vec![
            w.name.to_string(),
            best_nursery,
            best_norm,
            max_cell.unwrap_or(NA.into()),
        ]);
    }
    t.row(vec![
        "GEOMEAN/AVG".into(),
        "-".into(),
        if best_n == 0 { NA.into() } else { f3(best_sum / best_n as f64) },
        if max_n == 0 { NA.into() } else { f3(max_sum / max_n as f64) },
    ]);
    emit(&cli, &t);
    if best_n > 0 && max_n > 0 {
        println!(
            "best-per-app saves {:.1}% [paper: 21.4%]; max-for-all saves {:.1}% [paper: 9.8%]",
            (1.0 - best_sum / best_n as f64) * 100.0,
            (1.0 - max_sum / max_n as f64) * 100.0
        );
    }
    std::process::exit(h.finish());
}
