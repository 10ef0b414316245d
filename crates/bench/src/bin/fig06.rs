//! Fig. 6: C function call overhead for the V8-preset run-time over the
//! JetStream-analog suite (paper average: 5.6%).

use qoa_bench::{cell_chaos, cli, emit, harness, limit, run, NA};
use qoa_core::harness::breakdown_spec;
use qoa_core::Breakdown;
use qoa_core::report::{pct, Table};
use qoa_core::runtime::RuntimeConfig;
use qoa_model::{Category, RuntimeKind};
use qoa_uarch::UarchConfig;

fn main() {
    let cli = cli();
    let mut h = harness(&cli, "fig06");
    let suite = limit(&cli, qoa_workloads::jetstream_suite());
    let mut t = Table::new(
        "Fig. 6: C function call overhead, V8 preset (% of execution cycles)",
        &["benchmark", "c-function-call"],
    );
    let rt = RuntimeConfig::new(RuntimeKind::V8);
    let uarch = UarchConfig::skylake();
    let chaos = cell_chaos(&cli);
    let results = run(
        &cli,
        &mut h,
        suite.iter().map(|&w| breakdown_spec(w, cli.scale, &rt, &uarch, chaos)).collect(),
    );
    let mut shares = Vec::new();
    for (w, m) in suite.iter().zip(results) {
        match m.and_then(|m| Breakdown::from_metrics(w.name, &m)) {
            Some(b) => {
                shares.push(b.shares[Category::CFunctionCall]);
                t.row(vec![w.name.to_string(), pct(b.shares[Category::CFunctionCall])]);
            }
            None => {
                t.row(vec![w.name.to_string(), NA.into()]);
            }
        }
    }
    if shares.is_empty() {
        emit(&cli, &t);
        std::process::exit(h.finish().max(1));
    }
    let geomean = (shares.iter().map(|s| s.max(1e-6).ln()).sum::<f64>()
        / shares.len() as f64)
        .exp();
    let mean = shares.iter().sum::<f64>() / shares.len() as f64;
    t.row(vec!["GEOMEAN".into(), pct(geomean)]);
    emit(&cli, &t);
    println!("arithmetic mean {} [paper avg: 5.6%]", pct(mean));
    std::process::exit(h.finish());
}
