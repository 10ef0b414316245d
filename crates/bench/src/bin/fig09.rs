//! Fig. 9: microarchitecture sweeps for the V8 preset over the
//! JetStream-analog suite (average CPI line per parameter).

use qoa_bench::{cell_chaos, cli, emit, harness, run, sweep_subset, NA};
use qoa_core::harness::{shared_trace_cache, sweep_param_spec, SweepCellPoint};
use qoa_core::report::{f3, Table};
use qoa_core::runtime::RuntimeConfig;
use qoa_core::sweeps::{SweepParam, SCALED_DEFAULT_NURSERY};
use qoa_model::RuntimeKind;
use qoa_uarch::UarchConfig;

/// Default JetStream subset: one per behavioural family.
const SUBSET: [&str; 8] = [
    "richards",
    "n-body",
    "splay",
    "hash-map",
    "regexp-2010",
    "typescript",
    "crypto-md5",
    "float-mm.c",
];

fn main() {
    let cli = cli();
    let mut h = harness(&cli, "fig09");
    let suite = sweep_subset(&cli, qoa_workloads::jetstream_suite(), &SUBSET);
    let rt = RuntimeConfig::new(RuntimeKind::V8).with_nursery(SCALED_DEFAULT_NURSERY);
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

    // sums[param][point], accumulated in spec order.
    let mut sums: Vec<Vec<f64>> =
        SweepParam::ALL.iter().map(|p| vec![0.0; p.values().len()]).collect();
    let mut counts = vec![0usize; SweepParam::ALL.len()];
    for _ in &suite {
        for (pi, &param) in SweepParam::ALL.iter().enumerate() {
            let m = results.next().flatten();
            let Some(pts) = m.and_then(|m| SweepCellPoint::from_metrics(param, &m)) else {
                continue;
            };
            for (i, p) in pts.iter().enumerate() {
                sums[pi][i] += p.cpi;
            }
            counts[pi] += 1;
        }
    }

    for (pi, &param) in SweepParam::ALL.iter().enumerate() {
        let values = param.values();
        let mut cols: Vec<String> = vec!["series".into()];
        cols.extend(values.iter().map(|&v| param.format_value(v)));
        let col_refs: Vec<&str> = cols.iter().map(|s| s.as_str()).collect();
        let mut t = Table::new(
            format!("Fig. 9: V8 average CPI vs {}", param.label()),
            &col_refs,
        );
        let mut row = vec!["V8".to_string()];
        row.extend(sums[pi].iter().map(|v| {
            if counts[pi] == 0 {
                NA.into()
            } else {
                f3(v / counts[pi] as f64)
            }
        }));
        t.row(row);
        emit(&cli, &t);
    }
    std::process::exit(h.finish());
}
