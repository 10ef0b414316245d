//! Fault isolation and resume, end to end: a diverging guest program must
//! become a recorded failure (not a crashed sweep), and a killed sweep must
//! resume from its journal with byte-identical figure output.

use qoa::core::harness::{nursery_spec, Harness, HarnessOptions, NurseryCell};
use qoa::core::journal::{CellKey, CellMetrics, Metric};
use qoa::core::runtime::RuntimeConfig;
use qoa::core::{ExecutorOptions, QoaError, RetryPolicy, SupervisedCell};
use qoa::model::{CountingSink, RuntimeKind};
use qoa::uarch::UarchConfig;
use qoa::vm::{VmConfig, VmError};
use qoa::workloads::{by_name, Scale};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

const DIVERGING: &str = "while True:\n    pass\n";

fn tmp_journal(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("qoa-resilience-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn options(tag: &str) -> HarnessOptions {
    let mut opts = HarnessOptions::new("figtest", "cfg");
    opts.journal_dir = tmp_journal(tag);
    opts
}

/// Runs `specs` as one single-worker batch.
fn run(h: &mut Harness, specs: Vec<SupervisedCell<CellMetrics>>) -> Vec<Option<CellMetrics>> {
    h.run(specs, &ExecutorOptions::new(1)).0
}

fn x(v: i64) -> CellMetrics {
    let mut m = CellMetrics::new();
    m.insert("x".into(), Metric::Int(v));
    m
}

/// A cell that sets `ran` when it executes and returns `x = v`.
fn flagged(key: CellKey, ran: &Arc<AtomicBool>, v: i64) -> SupervisedCell<CellMetrics> {
    let ran = Arc::clone(ran);
    SupervisedCell::new(key, move |_| {
        ran.store(true, Ordering::SeqCst);
        Ok(x(v))
    })
}

/// A forever-looping guest is cut off by the execution fuel and recorded
/// as a failure; the sibling cells of the sweep still run to completion.
#[test]
fn diverging_guest_is_recorded_without_aborting_siblings() {
    let opts = options("fuel");
    let dir = opts.journal_dir.clone();
    let mut h = Harness::open(opts).expect("open");

    let looping = SupervisedCell::new(CellKey::new("forever", "CPython", "p", "1"), |_| {
        let cfg = VmConfig { max_steps: 50_000, ..VmConfig::default() };
        qoa::vm::run_source(DIVERGING, cfg, CountingSink::new()).map_err(QoaError::from)?;
        Ok(CellMetrics::new())
    });
    let sibling = SupervisedCell::new(CellKey::new("ok", "CPython", "p", "1"), |_| {
        let mut vm = qoa::vm::run_source("x = 2 + 3\n", VmConfig::default(), CountingSink::new())
            .map_err(QoaError::from)?;
        Ok(x(vm.global_int("x").unwrap_or(-1)))
    });
    let results = run(&mut h, vec![looping, sibling]);
    assert!(results[0].is_none(), "diverging guest must not produce metrics");
    let sibling = results[1].as_ref().expect("sibling cell must still run");
    assert_eq!(sibling.get("x").and_then(Metric::as_i64), Some(5));

    assert_eq!(h.failures().len(), 1);
    assert_eq!(h.failures()[0].kind, "fuel");
    // 1 of 2 cells failed: above the default 25% threshold.
    assert_eq!(h.finish(), 1);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Same shape under the wall-clock deadline instead of fuel.
#[test]
fn diverging_guest_is_cut_off_by_the_deadline() {
    let mut opts = options("deadline");
    let dir = opts.journal_dir.clone();
    opts.deadline = Some(Duration::from_millis(50));
    opts.max_failure_rate = 1.0;
    let mut h = Harness::open(opts).expect("open");

    let looping = SupervisedCell::new(CellKey::new("forever", "CPython", "p", "1"), |deadline| {
        let cfg = VmConfig { deadline, ..VmConfig::default() };
        qoa::vm::run_source(DIVERGING, cfg, CountingSink::new()).map_err(QoaError::from)?;
        Ok(CellMetrics::new())
    });
    // A deadline overrun is transient; one attempt keeps the test short.
    let mut exec = ExecutorOptions::new(1);
    exec.retry = RetryPolicy::none();
    let (results, _) = h.run(vec![looping], &exec);
    assert!(results[0].is_none());
    assert_eq!(h.failures()[0].kind, "deadline");
    assert_eq!(h.finish(), 0, "within the 100% threshold");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A panicking cell is caught, recorded, and journaled: the rerun skips it
/// without executing the closure again.
#[test]
fn guest_panic_is_journaled_and_not_rerun() {
    let opts = options("panic");
    let dir = opts.journal_dir.clone();
    let key = CellKey::new("boom", "CPython", "p", "1");
    {
        let mut h = Harness::open(opts.clone()).expect("open");
        let boom = SupervisedCell::new(key.clone(), |_| panic!("simulated driver bug"));
        let r = run(&mut h, vec![boom]);
        assert!(r[0].is_none());
        assert_eq!(h.failures()[0].kind, "panic");
        assert!(h.failures()[0].message.contains("simulated driver bug"));
    }
    let mut h = Harness::open(opts).expect("reopen");
    let ran = Arc::new(AtomicBool::new(false));
    let r = run(&mut h, vec![flagged(key, &ran, 0)]);
    assert!(!ran.load(Ordering::SeqCst), "journaled failure must not re-run");
    assert!(r[0].is_none(), "failure is replayed from the journal");
    assert_eq!(h.cells_skipped(), 1);
    assert_eq!(h.failures()[0].kind, "panic");
    let _ = std::fs::remove_dir_all(&dir);
}

fn render(points: &[Option<NurseryCell>]) -> String {
    // A miniature figure body: what fig10/fig11 would print for these
    // cells. Byte-identical output means byte-identical figures.
    points
        .iter()
        .map(|p| match p {
            Some(p) => format!(
                "{} {} {} {}\n",
                p.cycles, p.gc_cycles, p.llc_miss_rate, p.minor_collections
            ),
            None => "n/a\n".to_string(),
        })
        .collect()
}

/// Kill a sweep halfway, rerun it, and compare against an uninterrupted
/// run: the resumed figure output must be byte-identical.
#[test]
fn killed_sweep_resumes_from_the_journal_byte_identically() {
    let sizes = [128u64 << 10, 256 << 10];
    let w = by_name("tuple_gc").expect("workload");
    let rt = RuntimeConfig::new(RuntimeKind::PyPyNoJit);
    let uarch = UarchConfig::skylake();
    let sweep = |h: &mut Harness, sizes: &[u64]| {
        let specs = sizes
            .iter()
            .map(|&n| nursery_spec(w, Scale::Tiny, &rt, &uarch, n, "", None))
            .collect();
        NurseryCell::take_row(&mut run(h, specs).into_iter(), sizes)
    };

    // Uninterrupted reference run in its own journal.
    let ref_opts = options("resume-ref");
    let ref_dir = ref_opts.journal_dir.clone();
    let reference = sweep(&mut Harness::open(ref_opts).expect("open"), &sizes);

    // Interrupted run: the process dies after the first point...
    let opts = options("resume");
    let dir = opts.journal_dir.clone();
    {
        let mut h = Harness::open(opts.clone()).expect("open");
        sweep(&mut h, &sizes[..1])[0].as_ref().expect("first point runs");
        // (harness dropped without finish: simulates a kill)
    }

    // ...and the rerun completes the sweep, first point from the journal.
    let mut h = Harness::open(opts).expect("reopen");
    let resumed = sweep(&mut h, &sizes);
    assert_eq!(h.cells_skipped(), 1, "first point must come from the journal");
    assert_eq!(render(&resumed), render(&reference), "figure output must be byte-identical");

    let _ = std::fs::remove_dir_all(&ref_dir);
    let _ = std::fs::remove_dir_all(&dir);
}

/// `--fresh` semantics: the journal is ignored and cells re-run.
#[test]
fn fresh_reruns_journaled_cells() {
    let opts = options("fresh");
    let dir = opts.journal_dir.clone();
    let key = CellKey::new("w", "CPython", "p", "1");
    {
        let mut h = Harness::open(opts.clone()).expect("open");
        run(&mut h, vec![SupervisedCell::new(key.clone(), |_| Ok(x(1)))]);
    }
    let mut fresh_opts = opts;
    fresh_opts.fresh = true;
    let mut h = Harness::open(fresh_opts).expect("reopen fresh");
    let ran = Arc::new(AtomicBool::new(false));
    let m = run(&mut h, vec![flagged(key, &ran, 2)]);
    assert!(ran.load(Ordering::SeqCst), "--fresh must re-measure");
    assert_eq!(m[0].as_ref().expect("runs").get("x").and_then(Metric::as_i64), Some(2));
    let _ = std::fs::remove_dir_all(&dir);
}

/// The journal is a cache: lines from another format version — an
/// unversioned first-format line, a `"version":4` line — are skipped on
/// open, so the journal starts empty and the cell reruns and is rewritten
/// under the current version.
#[test]
fn other_version_journal_lines_rerun() {
    let opts = options("oldversion");
    let dir = opts.journal_dir.clone();
    let tail = "\"workload\":\"w\",\"runtime\":\"CPython\",\"param\":\"p\",\"value\":\"1\",\
                \"status\":\"ok\",\"metrics\":{\"x\":1}}\n";
    let unversioned = format!("{{\"figure\":\"figtest\",\"config\":\"cfg\",{tail}");
    let v4 = format!("{{\"figure\":\"figtest\",\"config\":\"cfg\",\"version\":4,{tail}");
    std::fs::create_dir_all(&dir).expect("mkdir");
    let path = dir.join("figtest.journal.jsonl");
    std::fs::write(&path, format!("{unversioned}{v4}")).expect("write");

    let mut h = Harness::open(opts).expect("open");
    let ran = Arc::new(AtomicBool::new(false));
    let m = run(&mut h, vec![flagged(CellKey::new("w", "CPython", "p", "1"), &ran, 2)]);
    assert!(ran.load(Ordering::SeqCst), "an old-version line must not answer the cell");
    assert_eq!(h.cells_skipped(), 0);
    assert_eq!(m[0].as_ref().expect("runs").get("x").and_then(Metric::as_i64), Some(2));
    let text = std::fs::read_to_string(&path).expect("read");
    let version = format!("\"version\":{},", qoa::core::journal::JOURNAL_VERSION);
    assert_eq!(text.lines().count(), 1, "{text}");
    assert!(text.contains(&version), "{text}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// An unwritable journal (its directory is a regular file) is reported
/// through the exit code, but every cell still runs exactly once: results
/// come from the executor's verdicts, not from re-reading the journal.
#[test]
fn unwritable_journal_runs_each_cell_once() {
    let mut opts = options("unwritable");
    let blocker = opts.journal_dir.clone();
    std::fs::write(&blocker, "not a directory").expect("write blocker file");
    opts.journal_dir = blocker.clone();
    let mut h = Harness::open(opts).expect("open: nothing to read yet");
    let runs: Arc<Vec<AtomicUsize>> = Arc::new((0..6).map(|_| AtomicUsize::new(0)).collect());
    let specs = (0..6)
        .map(|i| {
            let runs = Arc::clone(&runs);
            SupervisedCell::new(CellKey::new(format!("w{i}"), "CPython", "p", "1"), move |_| {
                runs[i].fetch_add(1, Ordering::SeqCst);
                Ok(x(i as i64))
            })
        })
        .collect();
    let (results, _) = h.run(specs, &ExecutorOptions::new(2));
    for (i, count) in runs.iter().enumerate() {
        assert_eq!(count.load(Ordering::SeqCst), 1, "cell w{i} must run exactly once");
    }
    let got: Vec<Option<i64>> =
        results.iter().map(|m| m.as_ref().and_then(|m| m.get("x")?.as_i64())).collect();
    assert_eq!(got, (0..6).map(Some).collect::<Vec<_>>(), "results in submission order");
    assert!(h.failures().is_empty());
    assert_eq!(h.finish(), 1, "an unwritable journal must fail the run");
    let _ = std::fs::remove_file(&blocker);
}

/// The typed taxonomy end to end: each guest-visible failure mode maps to
/// its own [`QoaError`] kind.
#[test]
fn error_taxonomy_classifies_failure_modes() {
    let cases: [(&str, VmConfig, &str); 4] = [
        ("x = (\n", VmConfig::default(), "compile"),
        ("x = 1 // 0\n", VmConfig::default(), "guest"),
        (DIVERGING, VmConfig { max_steps: 10_000, ..VmConfig::default() }, "fuel"),
        (
            "xs = []\nwhile True:\n    xs.append(xs)\n",
            VmConfig { max_heap_bytes: 64 << 10, max_steps: 50_000_000, ..VmConfig::default() },
            "oom",
        ),
    ];
    for (src, cfg, want) in cases {
        let err = qoa::vm::run_source(src, cfg, CountingSink::new())
            .map(|_| ())
            .map_err(QoaError::from)
            .expect_err(src);
        assert_eq!(err.kind(), want, "{src} -> {err}");
    }
    let deadline_err: VmError = {
        let cfg = VmConfig::default().with_timeout(Duration::from_millis(20));
        qoa::vm::run_source(DIVERGING, cfg, CountingSink::new())
            .map(|_| ())
            .expect_err("deadline must fire")
    };
    assert_eq!(QoaError::from(deadline_err).kind(), "deadline");
}
