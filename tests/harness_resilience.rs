//! Fault isolation and resume, end to end: a diverging guest program must
//! become a recorded failure (not a crashed sweep), and a killed sweep must
//! resume from its journal with byte-identical figure output.

use qoa::core::harness::{nursery_cell, Harness, HarnessOptions, NurseryCell};
use qoa::core::journal::{CellKey, CellMetrics, Metric};
use qoa::core::runtime::RuntimeConfig;
use qoa::core::QoaError;
use qoa::model::{CountingSink, RuntimeKind};
use qoa::uarch::UarchConfig;
use qoa::vm::{VmConfig, VmError};
use qoa::workloads::{by_name, Scale};
use std::path::PathBuf;
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

/// A forever-looping guest is cut off by the execution fuel and recorded
/// as a failure; the sibling cells of the sweep still run to completion.
#[test]
fn diverging_guest_is_recorded_without_aborting_siblings() {
    let opts = options("fuel");
    let dir = opts.journal_dir.clone();
    let mut h = Harness::open(opts).expect("open");

    let looping = h.cell(CellKey::new("forever", "CPython", "p", "1"), |_| {
        let cfg = VmConfig { max_steps: 50_000, ..VmConfig::default() };
        qoa::vm::run_source(DIVERGING, cfg, CountingSink::new()).map_err(QoaError::from)?;
        Ok(CellMetrics::new())
    });
    assert!(looping.is_none(), "diverging guest must not produce metrics");

    let sibling = h.cell(CellKey::new("ok", "CPython", "p", "1"), |_| {
        let mut vm = qoa::vm::run_source("x = 2 + 3\n", VmConfig::default(), CountingSink::new())
            .map_err(QoaError::from)?;
        let mut m = CellMetrics::new();
        m.insert("x".into(), Metric::Int(vm.global_int("x").unwrap_or(-1)));
        Ok(m)
    });
    let sibling = sibling.expect("sibling cell must still run");
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

    let looping = h.cell(CellKey::new("forever", "CPython", "p", "1"), |deadline| {
        let cfg = VmConfig { deadline, ..VmConfig::default() };
        qoa::vm::run_source(DIVERGING, cfg, CountingSink::new()).map_err(QoaError::from)?;
        Ok(CellMetrics::new())
    });
    assert!(looping.is_none());
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
        let r = h.cell(key.clone(), |_| panic!("simulated driver bug"));
        assert!(r.is_none());
        assert_eq!(h.failures()[0].kind, "panic");
        assert!(h.failures()[0].message.contains("simulated driver bug"));
    }
    let mut h = Harness::open(opts).expect("reopen");
    let r = h.cell(key, |_| {
        unreachable!("journaled failure must not re-run");
    });
    assert!(r.is_none(), "failure is replayed from the journal");
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

    // Uninterrupted reference run in its own journal.
    let ref_opts = options("resume-ref");
    let ref_dir = ref_opts.journal_dir.clone();
    let mut h = Harness::open(ref_opts).expect("open");
    let reference: Vec<_> = sizes
        .iter()
        .map(|&n| nursery_cell(&mut h, w, Scale::Tiny, &rt, &uarch, n, ""))
        .collect();

    // Interrupted run: the process dies after the first point...
    let opts = options("resume");
    let dir = opts.journal_dir.clone();
    {
        let mut h = Harness::open(opts.clone()).expect("open");
        nursery_cell(&mut h, w, Scale::Tiny, &rt, &uarch, sizes[0], "").expect("first point runs");
        // (harness dropped without finish: simulates a kill)
    }

    // ...and the rerun completes the sweep, first point from the journal.
    let mut h = Harness::open(opts).expect("reopen");
    let resumed: Vec<_> = sizes
        .iter()
        .map(|&n| nursery_cell(&mut h, w, Scale::Tiny, &rt, &uarch, n, ""))
        .collect();
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
        h.cell(key.clone(), |_| {
            let mut m = CellMetrics::new();
            m.insert("x".into(), Metric::Int(1));
            Ok(m)
        });
    }
    let mut fresh_opts = opts;
    fresh_opts.fresh = true;
    let mut h = Harness::open(fresh_opts).expect("reopen fresh");
    let ran = std::cell::Cell::new(false);
    let m = h.cell(key, |_| {
        ran.set(true);
        let mut m = CellMetrics::new();
        m.insert("x".into(), Metric::Int(2));
        Ok(m)
    });
    assert!(ran.get(), "--fresh must re-measure");
    assert_eq!(m.expect("runs").get("x").and_then(Metric::as_i64), Some(2));
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
    let ran = std::cell::Cell::new(false);
    let m = h.cell(CellKey::new("w", "CPython", "p", "1"), |_| {
        ran.set(true);
        let mut m = CellMetrics::new();
        m.insert("x".into(), Metric::Int(2));
        Ok(m)
    });
    assert!(ran.get(), "an old-version line must not answer the cell");
    assert_eq!(h.cells_skipped(), 0);
    assert_eq!(m.expect("runs").get("x").and_then(Metric::as_i64), Some(2));
    let text = std::fs::read_to_string(&path).expect("read");
    let version = format!("\"version\":{},", qoa::core::journal::JOURNAL_VERSION);
    assert_eq!(text.lines().count(), 1, "{text}");
    assert!(text.contains(&version), "{text}");
    let _ = std::fs::remove_dir_all(&dir);
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
