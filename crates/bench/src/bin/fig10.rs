//! Fig. 10: LLC miss rate as a function of nursery size (PyPy w/ JIT,
//! 2 MB last-level cache). The paper's cliff: once the nursery outgrows
//! the cache, the miss rate jumps by roughly 2.4×.

use qoa_bench::{cell_chaos, cli, emit, harness, run, sweep_subset, NA};
use qoa_core::harness::{nursery_spec, NurseryCell};
use qoa_core::report::{pct, Table};
use qoa_core::runtime::RuntimeConfig;
use qoa_core::sweeps::{format_bytes, NURSERY_SIZES_SCALED as NURSERY_SIZES};
use qoa_model::RuntimeKind;
use qoa_uarch::UarchConfig;
use qoa_workloads::FIG14_BENCHMARKS;

fn main() {
    let cli = cli();
    let mut h = harness(&cli, "fig10");
    let suite = sweep_subset(&cli, qoa_workloads::python_suite(), &FIG14_BENCHMARKS);
    let rt = RuntimeConfig::new(RuntimeKind::PyPyJit);
    let uarch = UarchConfig::skylake(); // 2 MB LLC
    let chaos = cell_chaos(&cli);
    let mut specs = Vec::new();
    for &w in &suite {
        for &n in NURSERY_SIZES.iter() {
            specs.push(nursery_spec(w, cli.scale, &rt, &uarch, n, "", chaos));
        }
    }
    let mut results = run(&cli, &mut h, specs).into_iter();

    let mut cols: Vec<String> = vec!["series".into()];
    cols.extend(NURSERY_SIZES.iter().map(|&b| format_bytes(b)));
    let col_refs: Vec<&str> = cols.iter().map(|s| s.as_str()).collect();
    let mut t = Table::new(
        "Fig. 10: LLC miss rate vs nursery size (PyPy w/ JIT, 2MB LLC)",
        &col_refs,
    );

    let mut sum = vec![0.0f64; NURSERY_SIZES.len()];
    let mut count = vec![0usize; NURSERY_SIZES.len()];
    for _ in &suite {
        let pts = NurseryCell::take_row(&mut results, &NURSERY_SIZES);
        for (i, p) in pts.iter().enumerate() {
            if let Some(p) = p {
                sum[i] += p.llc_miss_rate;
                count[i] += 1;
            }
        }
    }
    let avg = |i: usize| (count[i] > 0).then(|| sum[i] / count[i] as f64);
    let mut row = vec!["LLC miss rate".to_string()];
    row.extend((0..NURSERY_SIZES.len()).map(|i| avg(i).map_or(NA.into(), pct)));
    t.row(row);
    emit(&cli, &t);

    // Compare the best in-cache point against the out-of-cache plateau.
    let small = (0..4).filter_map(avg).fold(f64::MAX, f64::min);
    let large = avg(NURSERY_SIZES.len() - 1);
    if let (true, Some(large)) = (small < f64::MAX, large) {
        println!(
            "cliff: {} (nursery fits LLC) -> {} (nursery >> LLC) = {:.2}x increase [paper: ~2.4x]",
            pct(small),
            pct(large),
            large / small.max(1e-9)
        );
    }
    std::process::exit(h.finish());
}
