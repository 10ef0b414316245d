//! Integration tests for the differential semantics fuzzer.
//!
//! Three guarantees are pinned here rather than in the crate's unit
//! tests because they cross layers: generator → frontend → verifier
//! (safety by construction at any seed), oracle → shrinker (a planted
//! semantics bug is caught and minimized to a small, locally 1-minimal
//! repro), and sweep → executor → journal (byte-identical journals at
//! different `--jobs`). A fourth pins the premise that lets four of the
//! oracle's six tiers skip trace recording: a run into a `NullSink`
//! reaches the same guest-visible outcome as a recorded capture.

use proptest::prelude::*;
use qoa::core::{capture, run_isolated, run_with_sink, RuntimeConfig};
use qoa::model::{NullSink, RuntimeKind};
use qoa_fuzz::gen::{generate_source, GenConfig};
use qoa_fuzz::oracle::{
    differential, plant_bug, valid_program, BugPlant, FuzzVerdict, ORACLE_FUEL,
};
use qoa_fuzz::shrink::shrink;
use qoa_fuzz::sweep::{run_sweep, SweepOptions};
use std::path::{Path, PathBuf};

proptest! {
    /// Safety by construction: at *any* seed the generated program
    /// parses, compiles, and passes the analysis verifier.
    #[test]
    fn every_seed_generates_a_valid_program(seed in any::<u64>()) {
        let cfg = GenConfig::default();
        let src = generate_source(seed, &cfg);
        prop_assert!(
            valid_program(&src),
            "seed {seed} generated an invalid program:\n{src}"
        );
    }

    /// The statement budget is respected in spirit at any knob setting:
    /// smaller budgets produce smaller programs, and generation still
    /// yields a valid program at the extremes.
    #[test]
    fn generator_respects_small_budgets(seed in any::<u64>(), max_stmts in 4usize..16) {
        let cfg = GenConfig { max_stmts };
        let src = generate_source(seed, &cfg);
        prop_assert!(valid_program(&src), "seed {seed} max_stmts {max_stmts}:\n{src}");
    }
}

/// A deliberately planted semantics bug (operand swap on `-` in the
/// opt2 tier) is caught by the oracle and shrunk to a repro of at most
/// 10 statements that is locally 1-minimal: removing any single
/// statement makes the divergence disappear.
#[test]
fn planted_divergence_shrinks_to_a_minimal_repro() {
    // A program with a semantically visible subtraction buried among
    // irrelevant statements the shrinker must discard.
    let src = "\
noise1 = 100\n\
noise2 = noise1 * 3\n\
a = 10\n\
noise3 = 'alpha' + 'beta'\n\
b = 3\n\
noise4 = len(noise3)\n\
result = a - b\n\
noise5 = noise2 + noise4\n\
";
    let verdict = differential(src, 7, Some(BugPlant::SwapSubOperands));
    assert!(verdict.diverged(), "planted bug not caught: {verdict:?}");

    let mut evals = 0usize;
    let mut pred = |candidate: &str| {
        evals += 1;
        differential(candidate, 7, Some(BugPlant::SwapSubOperands)).diverged()
    };
    let report = shrink(src, &mut pred, 500);
    assert!(report.minimal, "shrink ran out of budget after {} evals", report.evals);
    assert!(
        report.stmts <= 10,
        "repro has {} statements, want <= 10:\n{}",
        report.stmts,
        report.source
    );
    assert!(
        differential(&report.source, 7, Some(BugPlant::SwapSubOperands)).diverged(),
        "shrunk repro no longer diverges:\n{}",
        report.source
    );

    // Local 1-minimality over whole statements: dropping any single
    // top-level statement must lose the divergence (or break validity).
    let lines: Vec<&str> = report.source.lines().collect();
    if lines.len() > 1 {
        for skip in 0..lines.len() {
            let mut reduced = String::new();
            for (i, line) in lines.iter().enumerate() {
                if i != skip {
                    reduced.push_str(line);
                    reduced.push('\n');
                }
            }
            if !valid_program(&reduced) {
                continue;
            }
            assert!(
                !differential(&reduced, 7, Some(BugPlant::SwapSubOperands)).diverged(),
                "dropping line {skip} still diverges — repro is not 1-minimal:\n{}",
                report.source
            );
        }
    }
}

/// The planted mutation actually rewrites the program text the opt2
/// tier runs (sanity for the mutation-testing CI job).
#[test]
fn plant_rewrites_subtraction_sites() {
    let planted = plant_bug("x = 7 - 2\ny = x - 1\n", BugPlant::SwapSubOperands)
        .expect("two sub sites");
    assert!(planted.contains("2 - 7"), "{planted}");
    assert!(planted.contains("1 - x"), "{planted}");
}

fn sweep_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("qoa-fuzz-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

fn smoke_opts(dir: &Path, jobs: usize) -> SweepOptions {
    let mut opts = SweepOptions::new(0x51EE7);
    opts.count = 6;
    opts.max_stmts = 16;
    opts.jobs = jobs;
    opts.journal_dir = dir.to_path_buf();
    opts.artifacts_dir = dir.to_path_buf();
    opts.corpus = true;
    opts
}

/// One small end-to-end sweep (generated programs + the corpus anchors)
/// is divergence-free, and the journal it writes is byte-identical when
/// the same sweep runs on four worker threads.
#[test]
fn sweep_with_corpus_is_clean_and_jobs_invariant() {
    let d1 = sweep_dir("w1");
    let d4 = sweep_dir("w4");
    let s1 = run_sweep(&smoke_opts(&d1, 1)).expect("jobs=1 sweep");
    let s4 = run_sweep(&smoke_opts(&d4, 4)).expect("jobs=4 sweep");
    assert!(s1.divergences.is_empty(), "{:?}", s1.divergences);
    assert_eq!(s1.programs, s4.programs);
    assert_eq!(s1.agreed, s4.agreed);
    let j1 = std::fs::read_to_string(&s1.journal_path).expect("read journal 1");
    let j4 = std::fs::read_to_string(&s4.journal_path).expect("read journal 4");
    assert_eq!(j1, j4, "journals differ across --jobs");
    let _ = std::fs::remove_dir_all(&d1);
    let _ = std::fs::remove_dir_all(&d4);
}

/// Corpus anchors agree across all six tiers at their suite scale.
#[test]
fn corpus_workloads_agree_across_tiers() {
    for w in qoa_workloads::corpus_suite() {
        let src = w.source(qoa_workloads::Scale::Tiny);
        let verdict = differential(&src, 0xC0FFEE, None);
        match verdict {
            FuzzVerdict::Agree { result, .. } => {
                assert!(result.is_some(), "{}: no result global", w.name);
            }
            other => panic!("{}: {other:?}", w.name),
        }
    }
}

/// What the oracle compares of a tier, plus its executed bytecodes (or
/// the error kind and message when the run fails).
type Seen = Result<(Option<String>, Vec<String>, u64), (String, String)>;

/// Runs `source` under `rt` into a `NullSink` and as a recorded capture.
fn null_and_captured(source: &str, rt: &RuntimeConfig) -> (Seen, Seen) {
    let failed = |f: qoa::core::RunFailure| (f.error.kind().to_string(), f.error.to_string());
    let live = run_isolated(|| run_with_sink(source, rt, NullSink))
        .map(|(_, vm, _, output, result)| (result, output, vm.bytecodes))
        .map_err(failed);
    let captured = run_isolated(|| capture(source, rt))
        .map(|run| (run.result, run.output, run.vm.bytecodes))
        .map_err(failed);
    (live, captured)
}

/// The four tiers the oracle runs for their outcome only.
fn outcome_only_tiers() -> [(&'static str, RuntimeConfig); 4] {
    let mut elided = RuntimeConfig::new(RuntimeKind::CPython);
    elided.max_steps = ORACLE_FUEL;
    let mut jit = RuntimeConfig::new(RuntimeKind::PyPyJit);
    jit.max_steps = ORACLE_FUEL;
    [
        ("interp-checked", elided.with_check_elision(false)),
        ("opt1", elided.with_opt_level(1)),
        ("opt2", elided.with_opt_level(2)),
        ("jit", jit),
    ]
}

/// Each outcome-only tier gives the same result, output, bytecode count
/// and typed error through a `NullSink` as through a recorded capture:
/// over the first 40 programs of sweep seed 1, and for a fuel cutoff, a
/// guest error and a simulated OOM.
#[test]
fn outcome_only_tiers_match_their_captures() {
    // Asserts agreement and returns the failure kind, if any.
    let check = |label: &str, source: &str, rt: &RuntimeConfig| {
        let (live, captured) = null_and_captured(source, rt);
        assert_eq!(live, captured, "{label}\n{source}");
        live.err().map(|(kind, _)| kind)
    };
    let cfg = GenConfig::default();
    for i in 0..40 {
        let src = generate_source(qoa_fuzz::program_seed(1, i), &cfg);
        for (tier, rt) in outcome_only_tiers() {
            let failed = check(&format!("program {i}, tier {tier}"), &src, &rt);
            assert_eq!(failed, None, "program {i} must run to completion under {tier}");
        }
    }

    let loop_src = "t = 0\nfor i in range(3000):\n    t = t + i\nresult = t\n";
    let guest_src = "x = 1\nresult = x // 0\n";
    let oom_src = "xs = []\nfor i in range(20000):\n    xs.append((i, i))\nresult = len(xs)\n";
    for (tier, rt) in outcome_only_tiers() {
        let mut starved = rt;
        starved.max_steps = 100;
        let capped = rt.with_heap_cap(64 << 10);
        assert_eq!(check(&format!("fuel, {tier}"), loop_src, &starved).as_deref(), Some("fuel"));
        assert_eq!(check(&format!("guest, {tier}"), guest_src, &rt).as_deref(), Some("guest"));
        assert_eq!(check(&format!("oom, {tier}"), oom_src, &capped).as_deref(), Some("oom"));
    }
}
