//! Fig. 16: nursery sweep for the V8 preset at 2/4/8 MB last-level
//! caches, averaged over a JetStream subset and normalized per-config to
//! the 1 MB nursery run.

use qoa_bench::{cell_chaos, cli, emit, harness, run, sweep_subset, NA};
use qoa_core::harness::{nursery_spec, NurseryCell};
use qoa_core::report::{f3, Table};
use qoa_core::runtime::RuntimeConfig;
use qoa_core::sweeps::{format_bytes, NURSERY_SIZES_SCALED as NURSERY_SIZES};
use qoa_model::RuntimeKind;
use qoa_uarch::UarchConfig;

const SUBSET: [&str; 6] = ["splay", "hash-map", "richards", "tagcloud", "earley-boyer", "cdjs"];

fn main() {
    let cli = cli();
    let mut h = harness(&cli, "fig16");
    let suite = sweep_subset(&cli, qoa_workloads::jetstream_suite(), &SUBSET);
    let rt = RuntimeConfig::new(RuntimeKind::V8);
    let baseline_idx = NURSERY_SIZES
        .iter()
        .position(|&b| b == (1 << 20))
        .expect("1MB nursery is in the sweep");

    let chaos = cell_chaos(&cli);
    let mut specs = Vec::new();
    for llc in [2u64 << 20, 4 << 20, 8 << 20] {
        let uarch = UarchConfig::skylake().with_llc_size(llc);
        // Same (workload, runtime, nursery) at three LLC sizes: the tag
        // keeps their journal cells distinct.
        let tag = format!("@llc={}", format_bytes(llc));
        for &w in &suite {
            for &n in NURSERY_SIZES.iter() {
                specs.push(nursery_spec(w, cli.scale, &rt, &uarch, n, &tag, chaos));
            }
        }
    }
    let mut results = run(&cli, &mut h, specs).into_iter();

    let mut cols: Vec<String> = vec!["LLC size".into()];
    cols.extend(NURSERY_SIZES.iter().map(|&b| format_bytes(b)));
    let col_refs: Vec<&str> = cols.iter().map(|s| s.as_str()).collect();
    let mut t = Table::new(
        "Fig. 16: V8 normalized execution time vs nursery size",
        &col_refs,
    );
    for llc in [2u64 << 20, 4 << 20, 8 << 20] {
        let mut norm = vec![0.0f64; NURSERY_SIZES.len()];
        let mut count = vec![0usize; NURSERY_SIZES.len()];
        for _ in &suite {
            let pts = NurseryCell::take_row(&mut results, &NURSERY_SIZES);
            let Some(baseline) = &pts[baseline_idx] else { continue };
            let base = baseline.cycles.max(1) as f64;
            for (i, p) in pts.iter().enumerate() {
                let Some(p) = p else { continue };
                norm[i] += p.cycles as f64 / base;
                count[i] += 1;
            }
        }
        let mut row = vec![format_bytes(llc)];
        row.extend(
            norm.iter()
                .zip(&count)
                .map(|(v, &c)| if c == 0 { NA.into() } else { f3(v / c as f64) }),
        );
        t.row(row);
    }
    emit(&cli, &t);
    std::process::exit(h.finish());
}
