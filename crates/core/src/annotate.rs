//! The `qoa-prof --annotate` report: guest source, one row per line,
//! with each line's sampled cycle share, dominant overhead feature,
//! dominant execution tier, and the static elidability verdict.
//!
//! SlipCover-style discipline: everything in the report is derived from
//! the deterministic replay (simulated-cycle samples) and from static
//! facts — no wall-clock numbers, no host identifiers — so the rendered
//! bytes are identical across runs, hosts, and `--jobs` settings, and a
//! committed report can be golden-diffed in CI.

use qoa_analysis::StaticFacts;
use qoa_model::{Feature, Tier};
use qoa_obs::profiler::Profile;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Renders the annotated-source report.
///
/// `file` is the display name for the guest program (e.g. `go.py`);
/// `source` is its text; `profile` is the finished sampling profile of
/// the replay; `facts` are the static lint facts for the *unoptimized*
/// module (the verdict column answers "what would elide this line's
/// overhead", so it is always judged from the unoptimized form).
pub fn render_annotated(
    file: &str,
    source: &str,
    profile: &Profile,
    facts: &StaticFacts,
) -> String {
    let total = profile.total_samples.max(1);
    let features = profile.line_features();

    // Per-line dominant tier and per-tier totals for the header.
    let mut tier_totals = [0u64; Tier::COUNT];
    let mut line_tiers: BTreeMap<u32, [u64; Tier::COUNT]> = BTreeMap::new();
    for ((line, tier), counts) in profile.lines() {
        let n = counts.total();
        tier_totals[*tier as usize] += n;
        line_tiers.entry(*line).or_default()[*tier as usize] += n;
    }

    let mut out = String::new();
    let _ = writeln!(out, "# annotated source: {file}");
    let _ = writeln!(
        out,
        "# samples: {} (one per {} simulated cycles)",
        profile.total_samples, profile.sample_every
    );
    let _ = writeln!(
        out,
        "# tier split: interp {} / checked {} / jit {}",
        tier_totals[Tier::Interp as usize],
        tier_totals[Tier::Checked as usize],
        tier_totals[Tier::Jit as usize]
    );
    let synthetic = profile.line_samples(0);
    if synthetic > 0 {
        let _ = writeln!(out, "# synthetic (no source line): {synthetic} samples");
    }
    let _ = writeln!(out, "#");
    let _ = writeln!(
        out,
        "#  line  share  feature          tier     verdict        | source"
    );

    for (i, text) in source.lines().enumerate() {
        let line = (i + 1) as u32;
        render_row(&mut out, line, Some(text), total, &features, &line_tiers, facts);
    }
    // Defensive: lines sampled beyond the source text (should not
    // happen; a mismatch between the profiled program and `source`
    // must be visible, not dropped).
    let source_lines = source.lines().count() as u32;
    for (&line, _) in features.range(source_lines + 1..) {
        render_row(&mut out, line, None, total, &features, &line_tiers, facts);
    }
    out
}

fn render_row(
    out: &mut String,
    line: u32,
    text: Option<&str>,
    total_samples: u64,
    features: &BTreeMap<u32, [u64; Feature::COUNT]>,
    line_tiers: &BTreeMap<u32, [u64; Tier::COUNT]>,
    facts: &StaticFacts,
) {
    let verdict = facts.verdict(line).label();
    let text = text.unwrap_or("<line not in source>");
    match features.get(&line) {
        Some(by_feature) if by_feature.iter().sum::<u64>() > 0 => {
            let samples: u64 = by_feature.iter().sum();
            let share = 100.0 * samples as f64 / total_samples as f64;
            let feature = dominant_feature(by_feature).label();
            let tier = line_tiers.get(&line).map_or(Tier::Interp, dominant_tier).label();
            let _ = writeln!(
                out,
                "{line:7} {share:5.1}%  {feature:<15}  {tier:<7}  {verdict} | {text}"
            );
        }
        _ => {
            let _ = writeln!(
                out,
                "{line:7}      .  {:<15}  {:<7}  {verdict} | {text}",
                "", ""
            );
        }
    }
}

/// The feature with the most samples; ties break toward the
/// lower-numbered feature (fixed enum order keeps the bytes stable).
fn dominant_feature(by_feature: &[u64; Feature::COUNT]) -> Feature {
    let mut best = Feature::ALL[0];
    for f in Feature::ALL {
        if by_feature[f as usize] > by_feature[best as usize] {
            best = f;
        }
    }
    best
}

/// The tier with the most samples; ties break toward interp.
fn dominant_tier(by_tier: &[u64; Tier::COUNT]) -> Tier {
    let mut best = Tier::ALL[0];
    for t in Tier::ALL {
        if by_tier[t as usize] > by_tier[best as usize] {
            best = t;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::{capture, RuntimeConfig};
    use qoa_model::RuntimeKind;
    use qoa_obs::profiler::ObsCore;
    use qoa_obs::ObsConfig;
    use qoa_uarch::UarchConfig;

    const SRC: &str = "t = 0\nfor i in range(50):\n    t = t + i * i\nresult = t\n";

    fn profile_of(rt: &RuntimeConfig) -> (Profile, StaticFacts) {
        let run = capture(SRC, rt).expect("runs");
        let mut core = ObsCore::new(&UarchConfig::skylake(), 64, 4096)
            .with_base_tier(Tier::base(rt.elide_checks));
        run.trace.replay(&mut core);
        let code = qoa_frontend::compile(SRC).expect("compiles");
        let facts = StaticFacts::collect(&code, qoa_vm::annotate::instr_profile).expect("verifies");
        (core.finish().profile, facts)
    }

    #[test]
    fn report_rows_cover_every_source_line_and_share_the_samples() {
        let rt = RuntimeConfig::new(RuntimeKind::CPython).with_observability(ObsConfig::on());
        let (profile, facts) = profile_of(&rt);
        let report = render_annotated("loop.py", SRC, &profile, &facts);
        assert!(report.starts_with("# annotated source: loop.py\n"), "{report}");
        // One row per source line, numbered.
        for (i, src_line) in SRC.lines().enumerate() {
            let needle = format!("| {src_line}");
            assert!(report.contains(&needle), "missing row for line {}: {report}", i + 1);
        }
        // The hot loop body must carry a share and a feature label.
        let body_row = report.lines().find(|l| l.contains("t = t + i * i")).expect("row");
        assert!(body_row.contains('%'), "hot line has no share: {body_row}");
        // No wall-clock contamination.
        assert!(!report.contains("nanos"), "{report}");
    }

    #[test]
    fn report_bytes_are_identical_across_runs() {
        let rt = RuntimeConfig::new(RuntimeKind::CPython).with_observability(ObsConfig::on());
        let (p1, f1) = profile_of(&rt);
        let (p2, f2) = profile_of(&rt);
        assert_eq!(
            render_annotated("loop.py", SRC, &p1, &f1),
            render_annotated("loop.py", SRC, &p2, &f2)
        );
    }

    #[test]
    fn jit_runtime_reports_jit_tier_rows() {
        let rt = RuntimeConfig::new(RuntimeKind::PyPyJit).with_observability(ObsConfig::on());
        let (profile, facts) = profile_of(&rt);
        let report = render_annotated("loop.py", SRC, &profile, &facts);
        assert!(report.contains("# tier split: interp "), "{report}");
        let jit_total: u64 = profile
            .lines()
            .iter()
            .filter(|((_, t), _)| *t == Tier::Jit)
            .map(|(_, m)| m.total())
            .sum();
        if jit_total > 0 {
            assert!(report.contains(" jit "), "jit samples but no jit rows: {report}");
        }
    }

    #[test]
    fn dominant_picks_break_ties_deterministically() {
        let mut by_feature = [0u64; Feature::COUNT];
        by_feature[Feature::Dispatch as usize] = 5;
        by_feature[Feature::Gc as usize] = 5;
        assert_eq!(dominant_feature(&by_feature), Feature::Dispatch);
        let by_tier = [3, 3, 3];
        assert_eq!(dominant_tier(&by_tier), Tier::Interp);
    }
}
