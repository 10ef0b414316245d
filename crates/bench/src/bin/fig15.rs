//! Fig. 15: per-benchmark normalized execution time across nursery sizes,
//! PyPy **without** JIT, on the paper's eight-benchmark subset.

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
    let mut h = harness(&cli, "fig15");
    let suite = sweep_subset(&cli, qoa_workloads::python_suite(), &FIG14_BENCHMARKS);
    let rt = RuntimeConfig::new(RuntimeKind::PyPyNoJit);
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

    let mut cols: Vec<String> = vec!["benchmark".into()];
    cols.extend(NURSERY_SIZES.iter().map(|&b| format_bytes(b)));
    let col_refs: Vec<&str> = cols.iter().map(|s| s.as_str()).collect();
    let mut t = Table::new(
        "Fig. 15: normalized execution time vs nursery (PyPy w/o JIT)",
        &col_refs,
    );
    for w in &suite {
        let pts = NurseryCell::take_row(&mut results, &NURSERY_SIZES);
        let base = pts[baseline_idx].as_ref().map(|p| p.cycles.max(1) as f64);
        let mut row = vec![w.name.to_string()];
        row.extend(pts.iter().map(|p| match (p, base) {
            (Some(p), Some(base)) => f3(p.cycles as f64 / base),
            _ => NA.into(),
        }));
        t.row(row);
    }
    emit(&cli, &t);
    std::process::exit(h.finish());
}
