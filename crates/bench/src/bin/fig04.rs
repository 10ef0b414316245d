//! Fig. 4: CPython overhead breakdown per benchmark.
//!
//! Panel (a) shows the language-feature categories, panel (b) the
//! interpreter-operation categories, both as % of total execution cycles
//! on the simple core, plus the AVG row and the paper's headline scalars.

use qoa_bench::{cell_chaos, cli, emit, harness, limit, run};
use qoa_core::attribution::{average_shares, Breakdown};
use qoa_core::harness::breakdown_spec;
use qoa_core::report::{pct, Table};
use qoa_core::runtime::RuntimeConfig;
use qoa_model::{Category, CategoryMap, RuntimeKind};
use qoa_uarch::UarchConfig;

fn panel(title: &str, cats: &[Category], rows: &[Breakdown], avg: &CategoryMap<f64>) -> Table {
    let mut cols: Vec<&str> = vec!["benchmark"];
    let labels: Vec<String> = cats.iter().map(|c| c.label().to_string()).collect();
    cols.extend(labels.iter().map(|s| s.as_str()));
    let mut t = Table::new(title, &cols);
    for b in rows {
        let mut cells = vec![b.name.clone()];
        cells.extend(cats.iter().map(|&c| pct(b.shares[c])));
        t.row(cells);
    }
    let mut cells = vec!["AVG".to_string()];
    cells.extend(cats.iter().map(|&c| pct(avg[c])));
    t.row(cells);
    t
}

fn main() {
    let cli = cli();
    let mut h = harness(&cli, "fig04");
    let suite = limit(&cli, qoa_workloads::python_suite());
    let rt = RuntimeConfig::new(RuntimeKind::CPython);
    let uarch = UarchConfig::skylake();
    let chaos = cell_chaos(&cli);
    let results = run(
        &cli,
        &mut h,
        suite.iter().map(|&w| breakdown_spec(w, cli.scale, &rt, &uarch, chaos)).collect(),
    );
    let breakdowns: Vec<Breakdown> = suite
        .iter()
        .zip(results)
        .filter_map(|(w, m)| Breakdown::from_metrics(w.name, &m?))
        .collect();
    if breakdowns.is_empty() {
        eprintln!("no benchmark produced a breakdown");
        std::process::exit(h.finish().max(1));
    }
    let avg = average_shares(&breakdowns);

    emit(
        &cli,
        &panel(
            "Fig. 4(a): language features (% of execution cycles, CPython)",
            &Category::LANGUAGE_FEATURES,
            &breakdowns,
            &avg,
        ),
    );
    emit(
        &cli,
        &panel(
            "Fig. 4(b): interpreter operations (% of execution cycles, CPython)",
            &Category::INTERPRETER_OPERATIONS,
            &breakdowns,
            &avg,
        ),
    );
    if breakdowns.len() < suite.len() {
        println!(
            "(averages over the {} of {} benchmarks that ran)",
            breakdowns.len(),
            suite.len()
        );
    }

    // Headline scalars (§IV-C.1).
    let overhead_avg: f64 =
        breakdowns.iter().map(|b| b.overhead_share()).sum::<f64>() / breakdowns.len() as f64;
    let clib_avg = avg[Category::CLibrary];
    let heavy: Vec<&str> = breakdowns
        .iter()
        .filter(|b| b.shares[Category::CLibrary] > 0.64)
        .map(|b| b.name.as_str())
        .collect();
    println!("headline scalars (paper value in brackets):");
    println!("  C function call avg      {} [18.4%]", pct(avg[Category::CFunctionCall]));
    println!("  Dispatch avg             {} [14.2%]", pct(avg[Category::Dispatch]));
    println!("  Name resolution avg      {} [9.1%]", pct(avg[Category::NameResolution]));
    println!("  Function setup avg       {} [4.8%]", pct(avg[Category::FunctionSetup]));
    println!("  identified overheads avg {} [64.9%]", pct(overhead_avg));
    println!(
        "  implied slowdown floor   {:.1}x [2.8x]",
        1.0 / (1.0 - overhead_avg)
    );
    println!("  C library avg            {} [7.0%]", pct(clib_avg));
    println!("  >64% C-library group     {heavy:?}");
    std::process::exit(h.finish());
}
