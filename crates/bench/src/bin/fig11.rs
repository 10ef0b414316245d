//! Fig. 11: PyPy execution-time breakdown (GC / non-GC / overall) across
//! nursery sizes, normalized to the half-of-LLC nursery run (1 MB nursery
//! for the 2 MB cache), averaged over the benchmark subset.

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
    let mut h = harness(&cli, "fig11");
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

    let mut gc = vec![0.0f64; NURSERY_SIZES.len()];
    let mut non_gc = vec![0.0f64; NURSERY_SIZES.len()];
    let mut overall = vec![0.0f64; NURSERY_SIZES.len()];
    let mut count = vec![0usize; NURSERY_SIZES.len()];
    for _ in &suite {
        let pts = NurseryCell::take_row(&mut results, &NURSERY_SIZES);
        // Normalization needs the workload's own baseline point.
        let Some(baseline) = &pts[baseline_idx] else { continue };
        let base = baseline.cycles.max(1) as f64;
        for (i, p) in pts.iter().enumerate() {
            let Some(p) = p else { continue };
            gc[i] += p.gc_cycles as f64 / base;
            non_gc[i] += p.non_gc_cycles() as f64 / base;
            overall[i] += p.cycles as f64 / base;
            count[i] += 1;
        }
    }

    let mut cols: Vec<String> = vec!["component".into()];
    cols.extend(NURSERY_SIZES.iter().map(|&b| format_bytes(b)));
    let col_refs: Vec<&str> = cols.iter().map(|s| s.as_str()).collect();
    let mut t = Table::new(
        "Fig. 11: execution time vs nursery size, normalized to the 1MB-nursery run",
        &col_refs,
    );
    for (label, series) in [("GC", &gc), ("Non-GC", &non_gc), ("Overall", &overall)] {
        let mut row = vec![label.to_string()];
        row.extend(series.iter().zip(&count).map(|(v, &c)| {
            if c == 0 {
                NA.into()
            } else {
                f3(v / c as f64)
            }
        }));
        t.row(row);
    }
    emit(&cli, &t);
    std::process::exit(h.finish());
}
