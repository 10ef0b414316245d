//! Cross-crate integration tests: the paper's headline findings must hold
//! end-to-end, from guest source through run-times and the simulator to
//! the analysis layer.

use qoa::core::attribution::{attribute_workload, average_shares};
use qoa::core::runtime::{capture, run_with_sink, RuntimeConfig};
use qoa::core::sweeps::{nursery_sweep, sweep_trace, SweepParam};
use qoa::model::{Category, NullSink, Phase, RuntimeKind};
use qoa::uarch::UarchConfig;
use qoa::workloads::{by_name, Scale};

fn breakdown(name: &str, kind: RuntimeKind) -> qoa::core::Breakdown {
    attribute_workload(
        by_name(name).expect("workload"),
        Scale::Tiny,
        &RuntimeConfig::new(kind),
        &UarchConfig::skylake(),
    )
    .expect("runs")
}

#[test]
fn finding1_c_function_calls_are_a_major_cpython_overhead() {
    // §IV-C.1: C function calls average 18.4% — the single largest
    // interpreter-operation overhead for most benchmarks.
    let names = ["richards", "go", "deltablue", "nbody", "float"];
    let bs: Vec<_> = names
        .iter()
        .map(|n| breakdown(n, RuntimeKind::CPython))
        .collect();
    let avg = average_shares(&bs);
    assert!(
        avg[Category::CFunctionCall] > 0.10,
        "C-call share {:.3}",
        avg[Category::CFunctionCall]
    );
    assert!(avg[Category::Dispatch] > 0.05);
    // The overheads leave well under half the time for real execution —
    // the ≥2.8x headline.
    let overhead: f64 = bs.iter().map(|b| b.overhead_share()).sum::<f64>() / bs.len() as f64;
    assert!(overhead > 0.55, "overheads only {overhead:.3}");
}

#[test]
fn finding1b_c_calls_survive_the_jit_but_shrink() {
    // Fig. 4b vs Fig. 5: 18.4% on CPython vs 7.5% on PyPy.
    let c = breakdown("richards", RuntimeKind::CPython);
    let p = breakdown("richards", RuntimeKind::PyPyJit);
    assert!(p.shares[Category::CFunctionCall] > 0.005, "JIT erased C calls");
    assert!(
        p.shares[Category::CFunctionCall] < c.shares[Category::CFunctionCall],
        "JIT did not reduce C-call share"
    );
}

#[test]
fn finding1c_native_heavy_group_lives_in_c_library() {
    // §IV-C.1: the pickle/regex group spends >64% in C library code.
    for name in ["pickle", "regex_dna", "json_dumps"] {
        let b = breakdown(name, RuntimeKind::CPython);
        assert!(
            b.shares[Category::CLibrary] > 0.5,
            "{name}: C library only {:.3}",
            b.shares[Category::CLibrary]
        );
    }
}

#[test]
fn finding2_low_ilp_and_memory_sensitivity() {
    // §V-A: issue width barely matters; memory parameters matter for the
    // JIT run-time.
    let w = by_name("spitfire").expect("workload");
    let jit = capture(
        &w.source(Scale::Tiny),
        &RuntimeConfig::new(RuntimeKind::PyPyJit).with_nursery(512 << 10),
    )
    .expect("runs");
    let base = UarchConfig::skylake();

    let widths = sweep_trace(&jit.trace, SweepParam::IssueWidth, &base);
    let w4 = widths[1].cpi;
    let w32 = widths[4].cpi;
    assert!(
        (w4 - w32).abs() / w4 < 0.05,
        "issue width mattered too much: {w4} vs {w32}"
    );

    let lat = sweep_trace(&jit.trace, SweepParam::MemLatency, &base);
    assert!(
        lat[3].cpi > lat[0].cpi,
        "memory latency had no effect: {} vs {}",
        lat[0].cpi,
        lat[3].cpi
    );
}

#[test]
fn finding2b_jit_is_less_branch_sensitive_than_interpreter() {
    let w = by_name("eparse").expect("workload");
    let base = UarchConfig::skylake();
    let rel_branch_sensitivity = |kind: RuntimeKind| {
        let run = capture(
            &w.source(Scale::Tiny),
            &RuntimeConfig::new(kind).with_nursery(512 << 10),
        )
        .expect("runs");
        let pts = sweep_trace(&run.trace, SweepParam::BranchScale, &base);
        pts[0].cpi / pts[4].cpi // 0.5x tables vs 8x tables
    };
    let interp = rel_branch_sensitivity(RuntimeKind::CPython);
    let jit = rel_branch_sensitivity(RuntimeKind::PyPyJit);
    assert!(
        jit < interp,
        "JIT should be less branch-sensitive: jit {jit:.3} vs interp {interp:.3}"
    );
}

#[test]
fn finding3_nursery_trade_off_exists() {
    // §V-B: small nurseries collect often; big nurseries miss in the LLC.
    let w = by_name("spitfire").expect("workload");
    let pts = nursery_sweep(
        w,
        Scale::Tiny,
        &RuntimeConfig::new(RuntimeKind::PyPyJit),
        &UarchConfig::skylake(),
        &[128 << 10, 1 << 20, 16 << 20],
    )
    .expect("sweeps");
    // GC frequency falls monotonically with nursery size.
    assert!(pts[0].minor_collections > pts[1].minor_collections);
    assert!(pts[1].minor_collections >= pts[2].minor_collections);
    // GC cycles follow.
    assert!(pts[0].gc_cycles > pts[2].gc_cycles);
    // The big nursery pays in LLC misses.
    assert!(
        pts[2].llc_miss_rate > pts[1].llc_miss_rate,
        "no cache penalty: {} vs {}",
        pts[1].llc_miss_rate,
        pts[2].llc_miss_rate
    );
}

#[test]
fn finding3b_jit_amplifies_gc_share() {
    // Fig. 13: the JIT shrinks mutator time, so the GC share grows.
    let w = by_name("richards").expect("workload");
    let uarch = UarchConfig::skylake();
    let share = |kind: RuntimeKind| {
        let run = capture(
            &w.source(Scale::Small),
            &RuntimeConfig::new(kind).with_nursery(128 << 10),
        )
        .expect("runs");
        run.trace.simulate_ooo(&uarch).gc_share()
    };
    let nojit = share(RuntimeKind::PyPyNoJit);
    let jit = share(RuntimeKind::PyPyJit);
    assert!(nojit > 0.0, "no GC at all without JIT");
    assert!(
        jit > nojit,
        "JIT should amplify the GC share: {jit:.4} vs {nojit:.4}"
    );
}

#[test]
fn phases_partition_the_jit_run() {
    let w = by_name("fannkuch").expect("workload");
    let run = capture(
        &w.source(Scale::Tiny),
        &RuntimeConfig::new(RuntimeKind::PyPyJit).with_nursery(256 << 10),
    )
    .expect("runs");
    let stats = run.trace.simulate_simple(&UarchConfig::skylake());
    assert_eq!(stats.cycles_by_phase.total(), stats.cycles);
    assert!(stats.cycles_by_phase[Phase::JitCode] > 0);
    assert!(stats.cycles_by_phase[Phase::JitCompile] > 0);
    assert!(stats.cycles_by_phase[Phase::Interpreter] > 0);
}

#[test]
fn all_four_runtimes_agree_on_results() {
    for name in ["nqueens", "json_loads", "sym_sum"] {
        let w = by_name(name).expect("workload");
        let mut results = Vec::new();
        for kind in RuntimeKind::ALL {
            let run = capture(&w.source(Scale::Tiny), &RuntimeConfig::new(kind))
                .unwrap_or_else(|e| panic!("{name} on {kind}: {e}"));
            results.push(run.result.expect("result"));
        }
        results.dedup();
        assert_eq!(results.len(), 1, "{name}: runtimes disagree: {results:?}");
    }
}

#[test]
fn old_space_collection_keeps_the_object_being_allocated() {
    // Doubling a string soon crosses the generational heap's major
    // threshold. The collection runs inside the allocation of the new
    // string, before any root holds it; unrooted, the sweep freed it and
    // `v1` read back as a dead or `None` value.
    for (doublings, len) in [(21, "10485760"), (22, "20971520")] {
        let src = format!(
            "v1 = \"omega\"\nn = 0\nwhile n < {doublings}:\n    v1 = v1 + v1\n    n += 1\nresult = len(v1)\n"
        );
        for kind in [RuntimeKind::PyPyNoJit, RuntimeKind::PyPyJit] {
            let (_, vm, _, _, result) = run_with_sink(&src, &RuntimeConfig::new(kind), NullSink)
                .unwrap_or_else(|e| panic!("{doublings} doublings on {kind}: {e}"));
            assert!(vm.gc.major_collections > 0, "{kind}: no major collection ran");
            assert_eq!(result.as_deref(), Some(len), "{doublings} doublings on {kind}");
        }
    }
}

#[test]
fn a_nursery_smaller_than_the_large_object_floor_runs_to_the_end() {
    // pickle_list allocates objects larger than a 4 kB nursery but under
    // 32 kB; they must go to the large-object space, not the nursery.
    let src = by_name("pickle_list").expect("workload").source(Scale::Tiny);
    let (_, _, _, _, expected) =
        run_with_sink(&src, &RuntimeConfig::new(RuntimeKind::CPython), NullSink).expect("CPython");
    for kind in [RuntimeKind::PyPyNoJit, RuntimeKind::PyPyJit] {
        let rt = RuntimeConfig::new(kind).with_nursery(4096);
        let (_, vm, _, _, result) =
            run_with_sink(&src, &rt, NullSink).unwrap_or_else(|e| panic!("{kind}: {e}"));
        assert!(vm.gc.minor_collections > 0, "{kind}: no minor collection ran");
        assert_eq!(result, expected, "{kind}");
    }
}
