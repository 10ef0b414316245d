//! Tier-1 coverage for the versioned benchsnap schema and the
//! perf-trajectory regression gate: the committed snapshots must parse,
//! a snapshot without `schema_version` must be rejected, and the gate
//! must fail exactly on simulated-cycle regressions and coverage loss.

use qoa_core::{diff_snapshots, parse_bench_json, render_bench_json, BenchEntry};

#[test]
fn committed_snapshots_parse_under_the_versioned_schema() {
    for name in ["BENCH_opt.json", "BENCH_serve.json", "BENCH_trajectory.json"] {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("results").join(name);
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("reading {}: {e}", path.display()));
        let snap = parse_bench_json(&text)
            .unwrap_or_else(|e| panic!("parsing {}: {e}", path.display()));
        assert!(!snap.entries.is_empty(), "{name} has no classes");
    }
}

#[test]
fn committed_trajectory_covers_workloads_by_opt_level_and_tier() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("results")
        .join("BENCH_trajectory.json");
    let snap = parse_bench_json(&std::fs::read_to_string(path).expect("baseline committed"))
        .expect("parses");
    // ISSUE acceptance: >= 3 workload classes x opt {0, max} x two tiers.
    for wl in ["go", "float", "richards"] {
        for opt in ["opt0", "opt2"] {
            for tier in ["interp", "jit"] {
                let class = format!("{wl}/{opt}/{tier}");
                let e = snap.class(&class).unwrap_or_else(|| panic!("missing class {class}"));
                assert!(e.cycles > 0, "{class} measured zero cycles");
            }
        }
    }
}

#[test]
fn snapshot_without_schema_version_is_rejected() {
    // The original shape of BENCH_opt.json, from before the field existed.
    // Snapshots are regenerable, so the reader names the problem and the
    // fix instead of carrying a second reader for old files.
    let unversioned = concat!(
        "{\n",
        "  \"bench\": \"opt\",\n",
        "  \"tool\": \"fig04-static\",\n",
        "  \"seed\": 0,\n",
        "  \"classes\": [\n",
        "    {\"class\": \"go/opt0\", \"wall_nanos\": 1200, \"cycles\": 3400}\n",
        "  ],\n",
        "  \"totals\": {\"wall_nanos\": 1200, \"cycles\": 3400}\n",
        "}\n",
    );
    let err = parse_bench_json(unversioned).expect_err("unversioned snapshot");
    assert!(err.contains("schema_version is missing"), "{err}");
    assert!(err.contains("regenerate"), "{err}");
}

#[test]
fn renderer_and_parser_round_trip_exactly() {
    let entries = vec![
        BenchEntry { class: "float/opt0/interp".into(), wall_nanos: 9, cycles: 777 },
        BenchEntry { class: "float/opt2/jit".into(), wall_nanos: 3, cycles: 111 },
    ];
    let body = render_bench_json("trajectory", "qoa-bench", 1, &entries);
    let snap = parse_bench_json(&body).expect("round trips");
    assert_eq!(snap.entries, entries);
    assert_eq!(snap.seed, 1);
}

#[test]
fn gate_fails_only_on_cycle_regressions_or_dropped_classes() {
    let mk = |cycles: u64, wall: u64| {
        parse_bench_json(&render_bench_json(
            "trajectory",
            "qoa-bench",
            1,
            &[BenchEntry { class: "go/opt0/interp".into(), wall_nanos: wall, cycles }],
        ))
        .expect("parses")
    };
    // Wall noise inside and outside the band never gates.
    assert!(!diff_snapshots(&mk(100, 1000), &mk(100, 1100), 25.0).gate_failed());
    assert!(!diff_snapshots(&mk(100, 1000), &mk(100, 9000), 25.0).gate_failed());
    // A single extra cycle gates.
    assert!(diff_snapshots(&mk(100, 1000), &mk(101, 1000), 25.0).gate_failed());
    // An improvement does not.
    assert!(!diff_snapshots(&mk(100, 1000), &mk(99, 1000), 25.0).gate_failed());
    // Dropping the only measured class gates.
    let empty = parse_bench_json(&render_bench_json("trajectory", "qoa-bench", 1, &[]))
        .expect("parses");
    assert!(diff_snapshots(&mk(100, 1000), &empty, 25.0).gate_failed());
}
