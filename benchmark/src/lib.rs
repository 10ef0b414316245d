//! `qoa-benchmark`: the repository's layered benchmark.
//!
//! Five workloads, each run in its own process on one thread. A run sets
//! up its inputs (five times, reporting the median as `setup_s`), then
//! runs timed passes for a fixed number of seconds and checks every
//! pass's outputs: the simulated cycles of a pass are pinned per workload
//! and every pass must reproduce them exactly.
//!
//! An untraced run reports the end-to-end metrics of `BENCHMARK.json`. A
//! traced run alternates untraced passes with traced ones, in which every
//! call into a layer (`qoa_frontend`, `qoa_analysis`, `qoa_vm`/`qoa_jit`,
//! `qoa_uarch`, `qoa_core` chaos, `qoa_fuzz`, `qoa_serve`) runs in its own
//! wall span, and reports the per-layer metrics. Layers are measured from
//! outside, through their public functions only.

pub mod compare;
pub mod spec;

mod cluster;
mod figure;
mod fuzz;
mod ledger;
mod pipeline;
mod stats;

use ledger::Ledger;
use qoa_obs::SpanEvent;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// The seed a run uses when none is given.
pub const DEFAULT_SEED: u64 = 1;

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The `qoa-bench` panel: capture, then one simple-core replay.
    Trajectory,
    /// The Fig. 7 method: one capture, 36 out-of-order replays.
    UarchSweep,
    /// The Fig. 14 method: one execution and replay per nursery size.
    Nursery,
    /// Generated programs through the six-tier differential oracle.
    FuzzOracle,
    /// Replicated serving over a fault-injected virtual network.
    Cluster,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 5] = [
        Workload::Trajectory,
        Workload::UarchSweep,
        Workload::Nursery,
        Workload::FuzzOracle,
        Workload::Cluster,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Trajectory => "trajectory",
            Workload::UarchSweep => "uarch-sweep",
            Workload::Nursery => "nursery",
            Workload::FuzzOracle => "fuzz-oracle",
            Workload::Cluster => "cluster",
        }
    }

    /// The workload called `name`.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Simulated cycles of one full-size pass, at every seed. For
    /// `trajectory` this is `totals.cycles` of
    /// `results/BENCH_trajectory.json`; for `fuzz-oracle` it counts
    /// baseline-tier bytecodes, and for `cluster` acked service vcycles.
    pub fn pinned_sim_cycles(self) -> u64 {
        match self {
            Workload::Trajectory => 61_308_096,
            Workload::UarchSweep => 327_608_053,
            Workload::Nursery => 98_406_554,
            Workload::FuzzOracle => 918_530,
            Workload::Cluster => 604_767_184,
        }
    }
}

/// How much work one pass does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The benchmark's workloads, with pinned outputs.
    Full,
    /// A few items of each workload, for tests. Outputs are checked only
    /// for agreement between passes.
    Smoke,
}

/// What one pass produced.
#[derive(Debug, Default)]
pub(crate) struct PassOutput {
    /// Simulated cycles summed over the pass.
    sim_cycles: u64,
    /// Items attempted (cells, verdicts, requests).
    attempted: u64,
    /// Items that failed or produced a wrong output.
    failed: u64,
    /// Further exact results, which every pass must reproduce.
    exact: BTreeMap<&'static str, u64>,
    /// Host seconds per item, where an item is timed on its own.
    item_secs: Vec<f64>,
}

/// A workload after set-up: runs passes over its inputs.
pub(crate) trait Bench {
    /// Runs one pass; with a ledger, every layer call runs in a span.
    fn pass(&mut self, ledger: Option<&mut Ledger>) -> PassOutput;

    /// Layer numbers measured during set-up.
    fn setup_layers(&self) -> Vec<(&'static str, f64)> {
        Vec::new()
    }
}

fn setup(workload: Workload, size: Size, seed: u64) -> Box<dyn Bench> {
    match workload {
        Workload::Trajectory => Box::new(figure::trajectory(size, seed)),
        Workload::UarchSweep => Box::new(figure::uarch_sweep(size, seed)),
        Workload::Nursery => Box::new(figure::nursery(size, seed)),
        Workload::FuzzOracle => Box::new(fuzz::setup(size, seed)),
        Workload::Cluster => Box::new(cluster::setup(size, seed)),
    }
}

/// A seeded Fisher-Yates shuffle.
pub(crate) fn shuffle<T>(items: &mut [T], seed: u64) {
    let mut rng = qoa_fuzz::SplitMix64::new(seed);
    for i in (1..items.len()).rev() {
        items.swap(i, rng.below(i as u64 + 1) as usize);
    }
}

/// How to run one workload.
#[derive(Debug, Clone, Copy)]
pub struct RunOptions {
    /// Which workload.
    pub workload: Workload,
    /// Pass size.
    pub size: Size,
    /// Input seed.
    pub seed: u64,
    /// Seconds of passes to run (at least one pass of each kind runs).
    pub seconds: f64,
    /// Report per-layer metrics instead of end-to-end ones.
    pub trace: bool,
}

/// The outcome of one run.
#[derive(Debug)]
pub struct Report {
    /// Items attempted over all passes.
    pub attempted: u64,
    /// Items failed over all passes, including every item of a pass whose
    /// outputs did not match.
    pub failed: u64,
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Spans of the last traced pass (empty for an untraced run).
    pub spans: Vec<SpanEvent>,
}

/// One finished traced pass.
struct Traced {
    wall: f64,
    spans: BTreeMap<String, f64>,
    timers: BTreeMap<&'static str, f64>,
    counts: BTreeMap<&'static str, u64>,
}

/// Set-up repetitions per run. The count is fixed so that what set-up
/// leaves resident, and so `peak_rss_mb`, does not depend on timing.
const SETUP_REPS: usize = 5;

/// Sets `opts.workload` up [`SETUP_REPS`] times and returns the last
/// set-up with the median set-up wall.
fn setup_median(opts: &RunOptions) -> (Box<dyn Bench>, f64) {
    let mut secs = Vec::new();
    let mut bench = None;
    for _ in 0..SETUP_REPS {
        drop(bench.take());
        let t = Instant::now();
        bench = Some(setup(opts.workload, opts.size, opts.seed));
        secs.push(t.elapsed().as_secs_f64());
    }
    (bench.expect("at least one set-up"), stats::median(&secs))
}

/// Runs one workload: set-up, then passes for `opts.seconds`.
pub fn run(opts: &RunOptions) -> Report {
    let (mut bench, setup_s) = setup_median(opts);
    let pin = (opts.size == Size::Full).then(|| opts.workload.pinned_sim_cycles());

    let mut untraced: Vec<(f64, PassOutput)> = Vec::new();
    let mut traced: Vec<Traced> = Vec::new();
    let mut spans = Vec::new();
    let (mut attempted, mut failed) = (0, 0);
    let mut reference: Option<(u64, BTreeMap<&'static str, u64>)> = None;
    let mut ref_counts: Option<BTreeMap<&'static str, u64>> = None;
    let start = Instant::now();
    loop {
        let trace_this = opts.trace && untraced.len() > traced.len();
        let mut ledger = trace_this.then(Ledger::default);
        let t = Instant::now();
        let out = bench.pass(ledger.as_mut());
        let wall = t.elapsed().as_secs_f64();

        // Outputs: the pin, then agreement with the first pass.
        let mut mismatch = Vec::new();
        if let Some(p) = pin.filter(|&p| p != out.sim_cycles) {
            mismatch.push(format!("sim_cycles {} != pinned {p}", out.sim_cycles));
        }
        let exact = (out.sim_cycles, out.exact.clone());
        match &reference {
            None => reference = Some(exact),
            Some(r) if *r != exact => mismatch.push("exact results differ from pass 1".into()),
            Some(_) => {}
        }
        if let Some(l) = &ledger {
            match &ref_counts {
                None => ref_counts = Some(l.counts().clone()),
                Some(c) if c != l.counts() => {
                    mismatch.push("layer counts differ from the first traced pass".into());
                }
                Some(_) => {}
            }
        }
        attempted += out.attempted;
        failed += if mismatch.is_empty() { out.failed } else { out.attempted };
        for m in mismatch {
            eprintln!("{}: pass {}: {m}", opts.workload.name(), untraced.len() + traced.len() + 1);
        }

        match ledger {
            Some(l) => {
                spans = l.spans();
                traced.push(Traced {
                    wall,
                    spans: l.span_secs(),
                    timers: l.timers(),
                    counts: l.counts().clone(),
                });
            }
            None => untraced.push((wall, out)),
        }
        let enough = !untraced.is_empty() && (!opts.trace || !traced.is_empty());
        if enough && start.elapsed() >= Duration::from_secs_f64(opts.seconds) {
            break;
        }
    }

    let walls: Vec<f64> = untraced.iter().map(|(w, _)| *w).collect();
    let first = &untraced[0].1;
    let metrics = if opts.trace {
        let items: Vec<f64> = untraced.iter().flat_map(|(_, o)| o.item_secs.clone()).collect();
        layer_metrics(&walls, &traced, first, &items, &bench.setup_layers())
    } else {
        BTreeMap::from([
            ("wall_s", stats::median(&walls)),
            ("setup_s", setup_s),
            ("peak_rss_mb", peak_rss_mb()),
            ("sim_cycles", first.sim_cycles as f64),
        ])
    };
    Report { attempted, failed, metrics, spans }
}

/// The per-layer metrics of a traced run. Times are medians over traced
/// passes; counts are exact and equal in every pass.
fn layer_metrics(
    untraced_walls: &[f64],
    traced: &[Traced],
    first: &PassOutput,
    item_secs: &[f64],
    setup_layers: &[(&'static str, f64)],
) -> BTreeMap<&'static str, f64> {
    let med = |f: &dyn Fn(&Traced) -> f64| stats::median(&traced.iter().map(f).collect::<Vec<_>>());
    let span = |name: &'static str| move |t: &Traced| t.spans.get(name).copied().unwrap_or(0.0);
    let counts = &traced[0].counts;
    let count = |name: &str| counts.get(name).copied().unwrap_or(0) as f64;
    let exact = |name: &str| first.exact.get(name).copied().unwrap_or(0) as f64;
    // Seconds per unit, or 0 where the layer did no work.
    let per = |secs: f64, n: f64| if n > 0.0 { secs / n } else { 0.0 };
    const MB: f64 = (1 << 20) as f64;

    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
    for (metric, name) in [
        ("frontend.parse_s", "frontend.parse"),
        ("frontend.compile_s", "frontend.compile"),
        ("analysis.verify_s", "analysis.verify"),
        ("analysis.optimize_s", "analysis.optimize"),
        ("vm.execute_s", "vm.execute"),
        ("uarch.simple.replay_s", "uarch.simple.replay"),
        ("uarch.ooo.replay_s", "uarch.ooo.replay"),
        ("chaos.capture_s", "chaos.capture"),
        ("fuzz.oracle_check_s", "fuzz.oracle_check"),
    ] {
        m.insert(metric, med(&span(name)));
    }
    m.insert("frontend.src_kb", count("frontend.src_bytes") / 1024.0);
    m.insert("analysis.rewrites", count("analysis.rewrites"));
    m.insert("vm.bytecodes", count("vm.bytecodes"));
    m.insert("vm.ns_per_bytecode", per(m["vm.execute_s"] * 1e9, count("vm.bytecodes")));
    for name in [
        "jit.traces_compiled",
        "jit.guard_failures",
        "jit.deopts",
        "heap.minor_collections",
        "heap.major_collections",
        "uarch.trace.ops",
        "uarch.ooo.replays",
        "chaos.faults",
        "chaos.restores",
    ] {
        m.insert(name, count(name));
    }
    m.insert("heap.nursery_alloc_mb", count("heap.nursery_alloc_bytes") / MB);
    let record = med(&|t| span("uarch.trace.capture")(t) - span("vm.execute")(t));
    m.insert("uarch.trace.record_s", record);
    m.insert("uarch.trace.mb", count("uarch.trace.bytes") / MB);
    m.insert("uarch.trace.ns_per_op", per(record * 1e9, count("uarch.trace.ops")));
    m.insert(
        "uarch.simple.ns_per_op",
        per(m["uarch.simple.replay_s"] * 1e9, count("uarch.simple.ops")),
    );
    m.insert("uarch.ooo.ns_per_op", per(m["uarch.ooo.replay_s"] * 1e9, count("uarch.ooo.ops")));

    m.insert(
        "fuzz.tier_capture_s",
        med(&|t| t.timers.get("fuzz.tier_capture").copied().unwrap_or(0.0)),
    );
    m.insert("fuzz.verdict_p50_ms", stats::percentile(item_secs, 0.5) * 1e3);
    m.insert("fuzz.verdict_p90_ms", stats::percentile(item_secs, 0.9) * 1e3);
    for name in ["fuzz.gen_s", "fuzz.screened_out", "serve.calibrate_s"] {
        m.insert(name, 0.0);
    }
    for &(name, v) in setup_layers {
        m.insert(name, v);
    }

    let serve_one_s = med(&|t| per(span("serve.serve_one")(t), count("serve.serves")));
    m.insert("serve.prewarm_s", med(&|t| per(span("serve.prewarm")(t), count("serve.prewarms"))));
    m.insert(
        "serve.restore_us",
        med(&|t| per(span("serve.restore")(t), count("serve.restores"))) * 1e6,
    );
    m.insert("serve.serve_one_ms", serve_one_s * 1e3);
    for name in [
        "net.sent",
        "net.dropped",
        "net.duplicated",
        "net.retries",
        "net.hedges",
        "net.timeouts",
        "net.executions",
        "net.dedup_hits",
        "net.inflight_dups",
        "net.crashes",
        "net.snapshots",
        "net.ack_p50_vcycles",
        "net.ack_p99_vcycles",
    ] {
        m.insert(name, exact(name));
    }
    m.insert("net.useful_ratio", per(exact("net.acked"), exact("net.executions")));
    m.insert("net.shed_frac", per(exact("net.shed"), exact("net.requests")));
    let executions = exact("net.executions");
    m.insert("net.sim_s", med(&|t| span("net.run_cluster")(t) - executions * serve_one_s));

    let pass_s = med(&|t| t.wall);
    m.insert("trace.pass_s", pass_s);
    m.insert("trace.overhead_s", pass_s - stats::median(untraced_walls));
    m.insert("other.unattributed_s", med(&|t| t.wall - t.spans.values().sum::<f64>()));
    m
}

/// The process's peak resident set (`VmHWM`) in MB.
///
/// # Panics
///
/// Without a Linux `/proc/self/status`, which the benchmark requires.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("reading /proc/self/status");
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .expect("/proc/self/status reports VmHWM in kB");
    kb / 1024.0
}

impl Report {
    /// True when no item failed.
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed`, and each metric of `names` with its unit.
    ///
    /// # Errors
    ///
    /// Names a metric the run did not produce.
    pub fn render(&self, names: &[spec::MetricSpec]) -> Result<String, String> {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, m) in names.iter().enumerate() {
            let v = self
                .metrics
                .get(m.name.as_str())
                .ok_or_else(|| format!("metric '{}' was not measured", m.name))?;
            let sep = if i == 0 { "" } else { ", " };
            let _ =
                write!(out, "{sep}\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}", m.name, m.unit);
        }
        out.push_str("}}");
        Ok(out)
    }
}
