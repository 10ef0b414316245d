//! Line-level profiling contracts.
//!
//! The line-attribution layer rides the same zero-cost channel as the
//! rest of observability: `FrameEvent::Line` records are captured only
//! when frame capture is on, cost zero micro-ops and zero simulated
//! cycles, and the annotated-source pipeline built on them must be
//! byte-deterministic. Fused superinstructions must stay attributable —
//! a fused site reporting line 0 would silently fall out of the report.

use qoa::analysis::StaticFacts;
use qoa::core::runtime::{capture, RuntimeConfig};
use qoa::core::render_annotated;
use qoa::frontend::Opcode;
use qoa::model::{FrameEvent, RuntimeKind, Tier};
use qoa::obs::profiler::ObsCore;
use qoa::obs::{export_trace, parse_trace, ObsConfig};
use qoa::uarch::UarchConfig;
use qoa::workloads::{by_name, Scale};

const WORKLOAD: &str = "go";

fn rt_off() -> RuntimeConfig {
    RuntimeConfig::new(RuntimeKind::CPython)
}

fn rt_on() -> RuntimeConfig {
    rt_off().with_observability(ObsConfig::on().with_sample_every(512))
}

#[test]
fn line_attribution_compiled_in_but_toggled_off_is_free() {
    // With observability off the trace captures no frame events at all —
    // line attribution is compiled in but dormant — and the simulation
    // is bit-identical to one replayed with line attribution armed.
    let source = by_name(WORKLOAD).expect("workload").source(Scale::Tiny);
    let uarch = UarchConfig::skylake();

    let off = capture(&source, &rt_off()).expect("runs");
    assert!(
        !off.trace.frame_events().iter().any(|(_, e)| matches!(e, FrameEvent::Line { .. })),
        "line events captured with observability off"
    );
    let exact = off.trace.simulate_simple(&uarch);
    let mut core = ObsCore::new(&uarch, 512, 4096).with_base_tier(Tier::Interp);
    off.trace.replay(&mut core);
    let report = core.finish();
    assert_eq!(report.stats.cycles, exact.cycles, "line-aware replay changed cycles");
    // Without line events every sample lands in the synthetic bucket.
    assert_eq!(report.profile.line_samples(0), report.profile.total_samples);
}

#[test]
fn line_events_carry_zero_cycles_and_partition_the_samples() {
    let source = by_name(WORKLOAD).expect("workload").source(Scale::Tiny);
    let uarch = UarchConfig::skylake();

    let off = capture(&source, &rt_off()).expect("runs");
    let on = capture(&source, &rt_on()).expect("runs");
    assert!(
        on.trace.frame_events().iter().any(|(_, e)| matches!(e, FrameEvent::Line { .. })),
        "no line events captured with observability on"
    );
    assert_eq!(off.trace.len(), on.trace.len(), "line events cost micro-ops");

    let exact = off.trace.simulate_simple(&uarch);
    let mut core = ObsCore::new(&uarch, 512, 4096).with_base_tier(Tier::Interp);
    on.trace.replay(&mut core);
    let report = core.finish();
    assert_eq!(report.stats.cycles, exact.cycles, "line events changed simulated cycles");

    // Every sample is attributed to exactly one (line, tier) cell.
    let by_line: u64 = report.profile.lines().values().map(|m| m.total()).sum();
    assert_eq!(by_line, report.profile.total_samples, "line table lost samples");
    let real_lines = report
        .profile
        .lines()
        .keys()
        .filter(|(line, _)| *line > 0)
        .map(|(line, _)| *line)
        .collect::<std::collections::BTreeSet<_>>();
    assert!(real_lines.len() > 5, "too few distinct lines attributed: {real_lines:?}");
}

#[test]
fn fused_sites_keep_their_constituent_line() {
    // Fusion only combines same-line runs and the fused instruction
    // inherits the first constituent's line, so no fused site may carry
    // line 0 — the annotate report would lose it.
    let source = by_name(WORKLOAD).expect("workload").source(Scale::Tiny);
    let code = qoa::frontend::compile(&source).expect("compiles");
    let (opt, report) = qoa::analysis::optimize(&code, qoa::analysis::MAX_OPT_LEVEL)
        .expect("optimizes");
    assert!(report.fused > 0, "panel workload fused nothing; pick a better fixture");
    let mut fused_seen = 0;
    for c in opt.get().iter_all() {
        for instr in &c.code {
            let is_fused = matches!(
                instr.op,
                Opcode::LoadFastLoadFast
                    | Opcode::LoadFastLoadConst
                    | Opcode::AddFastFast
                    | Opcode::ConstCompareJump
            );
            if is_fused {
                fused_seen += 1;
                assert!(instr.line > 0, "fused instr in {} reports line 0", c.name);
            }
        }
        // The disassembler surfaces the constituent line for audit.
        if c.code.iter().any(|i| matches!(i.op, Opcode::AddFastFast)) {
            assert!(c.disassemble().contains("[fused, constituents line"), "{}", c.name);
        }
    }
    assert!(fused_seen > 0, "optimizer reported fusions but none found in code");

    // And end to end: an opt-2 run's annotate report keeps the fused
    // lines' samples out of the synthetic bucket.
    let rt = rt_on().with_opt_level(qoa::analysis::MAX_OPT_LEVEL);
    let run = capture(&source, &rt).expect("runs");
    let mut core =
        ObsCore::new(&UarchConfig::skylake(), 256, 4096).with_base_tier(Tier::Interp);
    run.trace.replay(&mut core);
    let profile = core.finish().profile;
    let synthetic = profile.line_samples(0);
    assert!(
        synthetic * 100 <= profile.total_samples,
        "synthetic bucket holds {synthetic} of {} samples under fusion",
        profile.total_samples
    );
}

#[test]
fn annotate_report_is_byte_identical_across_runs() {
    let source = by_name(WORKLOAD).expect("workload").source(Scale::Tiny);
    let uarch = UarchConfig::skylake();
    let render = || {
        let run = capture(&source, &rt_on()).expect("runs");
        let mut core = ObsCore::new(&uarch, 512, 4096).with_base_tier(Tier::Interp);
        run.trace.replay(&mut core);
        let code = qoa::frontend::compile(&source).expect("compiles");
        let facts = StaticFacts::collect(&code, qoa::vm::annotate::instr_profile).expect("verifies");
        render_annotated("go.py", &source, &core.finish().profile, &facts)
    };
    let first = render();
    assert_eq!(first, render(), "annotate output varies across identical runs");
    assert!(!first.contains("<line not in source>"), "sampled line outside source:\n{first}");
}

#[test]
fn line_tagged_spans_round_trip_through_perfetto_json() {
    let source = by_name(WORKLOAD).expect("workload").source(Scale::Tiny);
    let run = capture(&source, &rt_on()).expect("runs");
    let mut core =
        ObsCore::new(&UarchConfig::skylake(), 512, 4096).with_base_tier(Tier::Interp);
    run.trace.replay(&mut core);
    let report = core.finish();
    let tagged: Vec<_> = report.spans.iter().filter(|s| s.line.is_some()).collect();
    assert!(!tagged.is_empty(), "no cycle span carries a line tag");

    let json = export_trace(&report.spans);
    let parsed = parse_trace(&json).expect("round trips");
    assert_eq!(parsed.len(), report.spans.len());
    for (orig, back) in report.spans.iter().zip(&parsed) {
        assert_eq!(orig.line, back.line, "span line tag lost in Perfetto JSON");
    }
}
