//! Benchmark workloads: the guest programs of the study.
//!
//! Two suites, mirroring the paper's §III setup:
//!
//! * **Python suite** — 48 programs named after the pyperformance / PyPy
//!   benchmarks the paper runs on CPython and PyPy (Fig. 4/5, 7/8, 10–15,
//!   17). Each is a real Pyl program written to land in the same
//!   behavioural class as its namesake: numeric kernels, object-oriented
//!   simulations, string/template processing, parsers, allocation-heavy
//!   churn, and native-library-dominated programs (pickle/regex/json), the
//!   last group reproducing the paper's ">64% of time in C library code"
//!   population.
//! * **JetStream suite** — 37 programs named after the JetStream 1.1
//!   benchmarks the paper runs on V8 (Fig. 6, 9, 16).
//!
//! Every workload takes a scale knob so the full-suite experiments stay
//! tractable on a laptop while preserving each program's character.

mod corpus;
mod jetstream;
mod python_suite;

/// Which suite a workload belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Suite {
    /// The pyperformance/PyPy-analog suite (48 programs).
    Python,
    /// The JetStream-analog suite (37 programs).
    JetStream,
    /// Larger program-shaped workloads anchoring the differential fuzzer.
    Corpus,
}

/// Behavioural class, used to sanity-check suite composition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Kind {
    /// Numeric kernels (floats, matrices, simulations).
    Numeric,
    /// Object-oriented simulations and solvers.
    ObjectOriented,
    /// String building, templates, formatting.
    Strings,
    /// Parsers and state machines written in the guest language.
    Parsing,
    /// Container churn and allocation stress.
    DataStructures,
    /// Dominated by native ("C extension") library calls.
    NativeHeavy,
}

/// Workload size: multiplies each program's base iteration count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Scale {
    /// Smoke-test size (CI-friendly).
    Tiny,
    /// Default size for full-suite experiments.
    Small,
    /// Larger runs for high-fidelity single-benchmark studies.
    Full,
}

impl Scale {
    /// The iteration multiplier.
    pub fn factor(self) -> u32 {
        match self {
            Scale::Tiny => 1,
            Scale::Small => 4,
            Scale::Full => 16,
        }
    }
}

impl std::str::FromStr for Scale {
    type Err = String;

    /// Parses the command-line spelling: `tiny`, `small` or `full`.
    fn from_str(s: &str) -> Result<Scale, String> {
        match s {
            "tiny" => Ok(Scale::Tiny),
            "small" => Ok(Scale::Small),
            "full" => Ok(Scale::Full),
            other => Err(format!("unknown scale '{other}' (tiny|small|full)")),
        }
    }
}

/// One benchmark program.
pub struct Workload {
    /// Name, matching the paper's figure x-axes.
    pub name: &'static str,
    /// Owning suite.
    pub suite: Suite,
    /// Behavioural class.
    pub kind: Kind,
    /// Base size parameter passed to the generator at `Scale::Tiny`.
    pub base: u32,
    source_fn: fn(u32) -> String,
}

impl Workload {
    /// Generates the program source at the given scale.
    pub fn source(&self, scale: Scale) -> String {
        (self.source_fn)(self.base * scale.factor())
    }

    /// Generates the program source with an explicit size parameter.
    pub fn source_with_n(&self, n: u32) -> String {
        (self.source_fn)(n)
    }
}

impl std::fmt::Debug for Workload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Workload")
            .field("name", &self.name)
            .field("suite", &self.suite)
            .field("kind", &self.kind)
            .finish()
    }
}

/// The 48-program Python-analog suite, in the paper's Fig. 4 order.
pub fn python_suite() -> &'static [Workload] {
    python_suite::SUITE
}

/// The 37-program JetStream-analog suite, in the paper's Fig. 6 order.
pub fn jetstream_suite() -> &'static [Workload] {
    jetstream::SUITE
}

/// The program-shaped corpus suite: multi-phase application-style
/// workloads that anchor the differential fuzzer's grammar bias.
pub fn corpus_suite() -> &'static [Workload] {
    corpus::SUITE
}

/// Looks up any workload by name across all suites.
pub fn by_name(name: &str) -> Option<&'static Workload> {
    python_suite()
        .iter()
        .chain(jetstream_suite().iter())
        .chain(corpus_suite().iter())
        .find(|w| w.name == name)
}

/// The subset of Python-suite benchmarks shown per-benchmark in the
/// paper's Fig. 8 microarchitecture sweeps.
pub const FIG8_BENCHMARKS: [&str; 8] = [
    "go",
    "float",
    "eparse",
    "spitfire",
    "regex_v8",
    "richards",
    "unpack_seq",
    "sym_integrate",
];

/// The subset shown per-benchmark in the nursery sweeps of Fig. 14/15.
pub const FIG14_BENCHMARKS: [&str; 8] = [
    "telco",
    "eparse",
    "fannkuch",
    "html5lib",
    "spitfire",
    "pyxl_bench",
    "unpack_seq",
    "logging_format",
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_parses_its_lowercase_name_only() {
        for scale in [Scale::Tiny, Scale::Small, Scale::Full] {
            assert_eq!(format!("{scale:?}").to_lowercase().parse(), Ok(scale));
        }
        for bad in ["", "Tiny", "medium", "tiny "] {
            assert!(bad.parse::<Scale>().is_err(), "{bad:?}");
        }
    }

    #[test]
    fn suite_sizes_match_the_paper() {
        assert_eq!(python_suite().len(), 48);
        assert_eq!(jetstream_suite().len(), 37);
    }

    #[test]
    fn names_are_unique_within_suites() {
        for suite in [python_suite(), jetstream_suite(), corpus_suite()] {
            let mut names: Vec<_> = suite.iter().map(|w| w.name).collect();
            names.sort();
            names.dedup();
            assert_eq!(names.len(), suite.len());
        }
    }

    #[test]
    fn figure_subsets_exist() {
        for n in FIG8_BENCHMARKS.iter().chain(FIG14_BENCHMARKS.iter()) {
            assert!(by_name(n).is_some(), "{n} missing");
        }
    }

    #[test]
    fn every_workload_compiles() {
        for w in python_suite()
            .iter()
            .chain(jetstream_suite().iter())
            .chain(corpus_suite().iter())
        {
            let src = w.source(Scale::Tiny);
            qoa_frontend::compile(&src)
                .unwrap_or_else(|e| panic!("{} does not compile: {e}\n{src}", w.name));
        }
    }

    #[test]
    fn scales_are_monotone() {
        let w = by_name("fannkuch").expect("fannkuch exists");
        assert!(w.source(Scale::Tiny).len() <= w.source(Scale::Full).len() + 8);
        assert!(Scale::Tiny.factor() < Scale::Small.factor());
        assert!(Scale::Small.factor() < Scale::Full.factor());
    }

    #[test]
    fn native_heavy_group_is_represented() {
        // The paper's pickle/regex group must exist for the C-library
        // findings to reproduce.
        let heavy: Vec<_> = python_suite()
            .iter()
            .filter(|w| w.kind == Kind::NativeHeavy)
            .map(|w| w.name)
            .collect();
        for expected in ["pickle", "pickle_dict", "pickle_list", "unpickle", "regex_dna"] {
            assert!(heavy.contains(&expected), "{expected} not NativeHeavy: {heavy:?}");
        }
    }
}
