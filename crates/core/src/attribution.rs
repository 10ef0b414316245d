//! Overhead attribution: the paper's §IV methodology.
//!
//! A workload's micro-op stream runs straight into the **simple core**
//! model (exact per-category cycle attribution, §IV-B.2) — one core, so
//! no trace is recorded — and is summarized
//! into a per-category share breakdown — the data behind Fig. 4 (CPython),
//! Fig. 5 (PyPy) and Fig. 6 (V8).

use crate::error::QoaError;
use crate::runtime::{run_with_sink, RuntimeConfig};
use qoa_model::{CategoryMap, RuntimeKind};
use qoa_uarch::{ExecutionStats, SimpleCore, UarchConfig};
use qoa_workloads::{Scale, Workload};

/// Per-benchmark attribution result.
#[derive(Debug, Clone)]
pub struct Breakdown {
    /// Benchmark name.
    pub name: String,
    /// Fraction of total cycles per category (sums to 1).
    pub shares: CategoryMap<f64>,
    /// Total simulated cycles.
    pub cycles: u64,
    /// Total simulated instructions.
    pub instructions: u64,
}

impl Breakdown {
    /// Builds a breakdown from simple-core execution statistics.
    pub fn from_stats(name: impl Into<String>, stats: &ExecutionStats) -> Self {
        Breakdown {
            name: name.into(),
            shares: stats.category_shares(),
            cycles: stats.cycles,
            instructions: stats.instructions,
        }
    }

    /// Share of cycles across the fourteen Table II overheads.
    ///
    /// Delegates to [`CategoryMap::overhead_share`], the single share code
    /// path also used by `ExecutionStats` and the `qoa-obs` metrics
    /// registry, so figure output and exported metrics cannot drift.
    pub fn overhead_share(&self) -> f64 {
        self.shares.overhead_share()
    }

    /// The residual `execute` + C-library share.
    pub fn compute_share(&self) -> f64 {
        self.shares.compute_share()
    }
}

/// Runs one workload and attributes its cycles (simple core, §IV style).
///
/// # Errors
///
/// Propagates the typed compile/run error.
pub fn attribute_workload(
    w: &Workload,
    scale: Scale,
    rt: &RuntimeConfig,
    uarch: &UarchConfig,
) -> Result<Breakdown, QoaError> {
    let (core, ..) = run_with_sink(&w.source(scale), rt, SimpleCore::new(uarch))?;
    Ok(Breakdown::from_stats(w.name, &core.finish()))
}

/// Attributes every workload in `suite` under `rt`.
///
/// # Errors
///
/// Propagates the first failing workload's error.
pub fn attribute_suite(
    suite: &[Workload],
    scale: Scale,
    rt: &RuntimeConfig,
    uarch: &UarchConfig,
) -> Result<Vec<Breakdown>, QoaError> {
    suite
        .iter()
        .map(|w| attribute_workload(w, scale, rt, uarch))
        .collect()
}

/// Arithmetic-mean category shares across breakdowns (the paper's "AVG"
/// bars).
pub fn average_shares(breakdowns: &[Breakdown]) -> CategoryMap<f64> {
    let n = breakdowns.len().max(1) as f64;
    CategoryMap::from_fn(|c| breakdowns.iter().map(|b| b.shares[c]).sum::<f64>() / n)
}

/// Convenience: the default CPython attribution setup of Fig. 4.
///
/// # Errors
///
/// Propagates workload errors.
pub fn figure4_breakdowns(scale: Scale) -> Result<Vec<Breakdown>, QoaError> {
    attribute_suite(
        qoa_workloads::python_suite(),
        scale,
        &RuntimeConfig::new(RuntimeKind::CPython),
        &UarchConfig::skylake(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use qoa_model::Category;
    use qoa_workloads::by_name;

    fn quick(name: &str, kind: RuntimeKind) -> Breakdown {
        let w = by_name(name).expect("workload");
        attribute_workload(
            w,
            Scale::Tiny,
            &RuntimeConfig::new(kind),
            &UarchConfig::skylake(),
        )
        .expect("attribution")
    }

    #[test]
    fn shares_sum_to_one() {
        let b = quick("fannkuch", RuntimeKind::CPython);
        let total: f64 = Category::ALL.iter().map(|&c| b.shares[c]).sum();
        assert!((total - 1.0).abs() < 1e-9, "sum = {total}");
        assert!((b.overhead_share() + b.compute_share() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn cpython_overheads_dominate_compute() {
        // The paper: identified overheads average 64.9% on CPython.
        let b = quick("richards", RuntimeKind::CPython);
        assert!(b.overhead_share() > 0.45, "overhead {}", b.overhead_share());
        assert!(b.shares[Category::CFunctionCall] > 0.05);
        assert!(b.shares[Category::Dispatch] > 0.03);
    }

    #[test]
    fn native_heavy_benchmarks_live_in_the_c_library() {
        // The paper: pickle/regex spend >64% in C library code.
        let b = quick("pickle", RuntimeKind::CPython);
        assert!(
            b.shares[Category::CLibrary] > 0.4,
            "CLibrary share {}",
            b.shares[Category::CLibrary]
        );
    }

    #[test]
    fn pypy_jit_has_lower_c_call_share_than_cpython() {
        // Fig. 5 vs Fig. 4b: 7.5% vs 18.4% on average.
        let c = quick("nqueens", RuntimeKind::CPython);
        let p = quick("nqueens", RuntimeKind::PyPyJit);
        assert!(
            p.shares[Category::CFunctionCall] < c.shares[Category::CFunctionCall],
            "pypy {} vs cpython {}",
            p.shares[Category::CFunctionCall],
            c.shares[Category::CFunctionCall]
        );
    }

    #[test]
    fn averaging_matches_manual_mean() {
        let a = quick("tuple_gc", RuntimeKind::CPython);
        let b = quick("unpack_seq", RuntimeKind::CPython);
        let avg = average_shares(&[a.clone(), b.clone()]);
        let expect = (a.shares[Category::Dispatch] + b.shares[Category::Dispatch]) / 2.0;
        assert!((avg[Category::Dispatch] - expect).abs() < 1e-12);
    }
}
