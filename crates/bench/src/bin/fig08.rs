//! Fig. 8: per-benchmark CPI bars under the microarchitecture sweeps,
//! for PyPy with JIT on the paper's eight-benchmark subset.

use qoa_bench::{cell_chaos, cli, emit, harness, run, sweep_subset, NA};
use qoa_core::harness::{shared_trace_cache, sweep_param_spec, SweepCellPoint};
use qoa_core::report::{f3, Table};
use qoa_core::runtime::RuntimeConfig;
use qoa_core::sweeps::{SweepParam, SCALED_DEFAULT_NURSERY};
use qoa_model::RuntimeKind;
use qoa_uarch::UarchConfig;
use qoa_workloads::FIG8_BENCHMARKS;

fn main() {
    let cli = cli();
    let mut h = harness(&cli, "fig08");
    let suite = sweep_subset(&cli, qoa_workloads::python_suite(), &FIG8_BENCHMARKS);
    let rt = RuntimeConfig::new(RuntimeKind::PyPyJit).with_nursery(SCALED_DEFAULT_NURSERY);
    let base = UarchConfig::skylake();
    let chaos = cell_chaos(&cli);
    let mut specs = Vec::new();
    for &w in &suite {
        // One capture per benchmark, replayed by all six parameters.
        let cache = shared_trace_cache();
        for &param in SweepParam::ALL.iter() {
            specs.push(sweep_param_spec(w, cli.scale, &rt, &base, param, &cache, chaos));
        }
    }
    let mut results = run(&cli, &mut h, specs).into_iter();

    // swept[workload][param], in spec order.
    let mut swept: Vec<(&str, Vec<Option<Vec<SweepCellPoint>>>)> = Vec::new();
    for w in &suite {
        let per_param = SweepParam::ALL
            .iter()
            .map(|&param| SweepCellPoint::from_metrics(param, &results.next()??))
            .collect();
        swept.push((w.name, per_param));
    }

    for (pi, &param) in SweepParam::ALL.iter().enumerate() {
        let values = param.values();
        let mut cols: Vec<String> = vec!["benchmark".into()];
        cols.extend(values.iter().map(|&v| param.format_value(v)));
        let col_refs: Vec<&str> = cols.iter().map(|s| s.as_str()).collect();
        let mut t = Table::new(
            format!("Fig. 8: per-benchmark CPI (PyPy w/ JIT) vs {}", param.label()),
            &col_refs,
        );
        for (name, per_param) in &swept {
            let mut row = vec![name.to_string()];
            match &per_param[pi] {
                Some(pts) => row.extend(pts.iter().map(|p| f3(p.cpi))),
                None => row.extend(values.iter().map(|_| NA.to_string())),
            }
            t.row(row);
        }
        emit(&cli, &t);
    }
    std::process::exit(h.finish());
}
