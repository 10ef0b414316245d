//! Per-line static-fact lookup for annotated-source reports.
//!
//! The lints in [`crate::lint`] anchor each finding to a source line;
//! this module aggregates them into a per-line table and derives the
//! *elidability verdict* the `qoa-prof --annotate` report prints next to
//! each hot line: whether the overhead sampled there is removed by a
//! static optimization level (the pass sets of
//! [`Passes::for_level`](crate::Passes::for_level)) or by JIT
//! specialization, or is resident — paid in every configuration.

use crate::lint::{lint_module, InstrProfile, Lint, LintKind};
use crate::verify::VerifyError;
use qoa_frontend::CodeObject;
use std::collections::BTreeMap;
use std::rc::Rc;

/// Count of static optimization facts anchored to one source line.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LineFacts {
    /// Dead instructions (removed by DCE, opt level 1).
    pub dead: u32,
    /// Constant-foldable operations (folded at opt level 1).
    pub foldable: u32,
    /// Dict-probed name loads promotable to fast locals (opt level 2).
    pub promotable: u32,
    /// Instruction runs the peephole pass would fuse (opt level 2).
    pub fusible: u32,
    /// Type-stable operations a JIT specializes away.
    pub type_stable: u32,
}

impl LineFacts {
    fn record(&mut self, kind: LintKind) {
        match kind {
            LintKind::DeadCode => self.dead += 1,
            LintKind::FoldableConst => self.foldable += 1,
            LintKind::PromotableLoad => self.promotable += 1,
            LintKind::FusibleSequence => self.fusible += 1,
            LintKind::TypeStable => self.type_stable += 1,
        }
    }

    /// The verdict these facts support on their own.
    pub fn verdict(&self) -> Verdict {
        // Cheapest elision wins: a static pass at a low opt level beats
        // one at a high level, and any static elision beats depending on
        // the JIT warming up.
        if self.dead > 0 || self.foldable > 0 {
            Verdict::ElidableAtOpt(1)
        } else if self.promotable > 0 || self.fusible > 0 {
            Verdict::ElidableAtOpt(2)
        } else if self.type_stable > 0 {
            Verdict::ElidableUnderJit
        } else {
            Verdict::Resident
        }
    }
}

/// The elidability verdict for one source line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// A static pass at this opt level removes the flagged overhead.
    ElidableAtOpt(u8),
    /// JIT type specialization removes the flagged overhead once the
    /// line's code gets hot.
    ElidableUnderJit,
    /// No static fact flags this line: its overhead is paid in every
    /// tier and at every opt level.
    Resident,
}

impl Verdict {
    /// Fixed-width label used by the annotated report (stable bytes).
    pub fn label(self) -> &'static str {
        match self {
            Verdict::ElidableAtOpt(1) => "elidable @opt1",
            Verdict::ElidableAtOpt(_) => "elidable @opt2",
            Verdict::ElidableUnderJit => "elidable (jit)",
            Verdict::Resident => "resident      ",
        }
    }
}

impl std::fmt::Display for Verdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label().trim_end())
    }
}

/// Static facts for one verified module, indexed by source line.
#[derive(Debug, Clone, Default)]
pub struct StaticFacts {
    by_line: BTreeMap<u32, LineFacts>,
}

impl StaticFacts {
    /// Runs the lint pipeline over `root` and every nested code object
    /// (pricing fusible runs with `profile`) and folds the findings into
    /// a per-line table. Findings without a line (line 0: the compiler's
    /// synthetic tail) are dropped — they have no source row to annotate.
    ///
    /// # Errors
    ///
    /// [`VerifyError`] when the module fails verification (the lints
    /// only exist on verified dataflow facts).
    pub fn collect(root: &Rc<CodeObject>, profile: InstrProfile) -> Result<StaticFacts, VerifyError> {
        Ok(StaticFacts::from_lints(&lint_module(root, profile)?))
    }

    /// Builds the table from already-computed lints.
    pub fn from_lints(lints: &[Lint]) -> StaticFacts {
        let mut by_line: BTreeMap<u32, LineFacts> = BTreeMap::new();
        for lint in lints {
            if lint.line > 0 {
                by_line.entry(lint.line).or_default().record(lint.kind);
            }
        }
        StaticFacts { by_line }
    }

    /// The facts anchored to `line`, if any lint fired there.
    pub fn line(&self, line: u32) -> Option<&LineFacts> {
        self.by_line.get(&line)
    }

    /// The elidability verdict for `line` ([`Verdict::Resident`] when no
    /// lint fired there).
    pub fn verdict(&self, line: u32) -> Verdict {
        self.by_line.get(&line).map_or(Verdict::Resident, LineFacts::verdict)
    }

    /// Number of lines with at least one fact.
    pub fn len(&self) -> usize {
        self.by_line.len()
    }

    /// True when no lint fired anywhere.
    pub fn is_empty(&self) -> bool {
        self.by_line.is_empty()
    }

    /// Iterates `(line, facts)` in ascending line order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &LineFacts)> {
        self.by_line.iter().map(|(line, facts)| (*line, facts))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lint::Severity;

    fn lint(line: u32, kind: LintKind) -> Lint {
        Lint {
            code: "<module>".into(),
            at: 0,
            line,
            severity: Severity::Note,
            kind,
            message: String::new(),
        }
    }

    #[test]
    fn verdict_prefers_the_cheapest_elision() {
        let facts = StaticFacts::from_lints(&[
            lint(1, LintKind::FoldableConst),
            lint(1, LintKind::TypeStable),
            lint(2, LintKind::PromotableLoad),
            lint(2, LintKind::TypeStable),
            lint(3, LintKind::TypeStable),
            lint(4, LintKind::FusibleSequence),
        ]);
        assert_eq!(facts.verdict(1), Verdict::ElidableAtOpt(1));
        assert_eq!(facts.verdict(2), Verdict::ElidableAtOpt(2));
        assert_eq!(facts.verdict(3), Verdict::ElidableUnderJit);
        assert_eq!(facts.verdict(4), Verdict::ElidableAtOpt(2));
        assert_eq!(facts.verdict(99), Verdict::Resident);
        assert_eq!(facts.len(), 4);
    }

    #[test]
    fn synthetic_line_zero_findings_are_dropped() {
        let facts = StaticFacts::from_lints(&[lint(0, LintKind::DeadCode)]);
        assert!(facts.is_empty());
        assert_eq!(facts.verdict(0), Verdict::Resident);
    }

    #[test]
    fn verdict_labels_are_fixed_width() {
        for v in [
            Verdict::ElidableAtOpt(1),
            Verdict::ElidableAtOpt(2),
            Verdict::ElidableUnderJit,
            Verdict::Resident,
        ] {
            assert_eq!(v.label().len(), 14, "{v:?}");
        }
    }

    #[test]
    fn collect_runs_on_a_real_module() {
        let source = "x = 1 + 2\nfor i in range(10):\n    y = x + i\nprint(y)\n";
        let code = qoa_frontend::compile(source).expect("compiles");
        let facts = StaticFacts::collect(&code, |_| Default::default()).expect("verifies");
        // The constant fold on line 1 must be visible as an opt-1 verdict.
        assert_eq!(facts.verdict(1), Verdict::ElidableAtOpt(1));
    }
}
