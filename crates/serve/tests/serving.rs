//! End-to-end serving invariants: determinism across jobs counts, the
//! chaos differential oracle, and graceful overload degradation.

use qoa_serve::{
    calibrate, generate, journal_line, render_journal, serve, standard_tenants,
    strip_fault_counters, ArrivalSpec, Calibration, ChaosConfig, Outcome, ServeConfig, TenantMix,
};
use qoa_workloads::Scale;

fn base() -> (ServeConfig, Calibration) {
    let mut cfg = ServeConfig::new(&["go"], Scale::Tiny, Vec::new()).expect("workload resolves");
    let calib = calibrate(&cfg).expect("calibrates");
    let rate = calib.capacity_per_m(cfg.virtual_workers);
    cfg.tenants = standard_tenants(rate, calib.mean_cost_full);
    (cfg, calib)
}

fn burst(cfg: &ServeConfig, calib: &Calibration, count: usize, load_pct: u64, seed: u64) -> Vec<qoa_serve::Request> {
    let rate = (calib.capacity_per_m(cfg.virtual_workers) * load_pct / 100).max(1);
    generate(&ArrivalSpec {
        seed,
        count,
        rate_per_m: rate,
        tenants: cfg
            .tenants
            .iter()
            .map(|t| TenantMix { weight: t.weight, priority: t.priority, deadline: t.deadline })
            .collect(),
        workload_weights: vec![1; cfg.workloads.len()],
    })
}

#[test]
fn journal_is_identical_across_jobs_counts() {
    let (mut cfg, calib) = base();
    let requests = burst(&cfg, &calib, 40, 120, 9);
    cfg.jobs = 1;
    let seq = serve(&cfg, &requests, &calib).expect("serves sequentially");
    cfg.jobs = 4;
    let par = serve(&cfg, &requests, &calib).expect("serves in parallel");
    assert_eq!(
        render_journal(&cfg, &seq),
        render_journal(&cfg, &par),
        "virtual-time journal must not depend on OS thread count"
    );
}

#[test]
fn chaos_run_matches_fault_free_modulo_counters() {
    let (mut cfg, calib) = base();
    let requests = burst(&cfg, &calib, 40, 110, 5);
    let clean = serve(&cfg, &requests, &calib).expect("fault-free run");
    cfg.chaos = Some(ChaosConfig { seed: 11, points: 2 });
    let chaotic = serve(&cfg, &requests, &calib).expect("chaos run");
    assert!(chaotic.faults() > 0, "chaos seed 11 should fire at least once over 40 requests");
    assert_eq!(chaotic.faults(), chaotic.restores(), "every fault recovers via one restore");
    let clean_lines: Vec<String> =
        clean.records.iter().map(|r| strip_fault_counters(&journal_line(r))).collect();
    let chaos_lines: Vec<String> =
        chaotic.records.iter().map(|r| strip_fault_counters(&journal_line(r))).collect();
    assert_eq!(
        clean_lines, chaos_lines,
        "client-visible journal must be byte-identical: slow answers, never wrong ones"
    );
}

#[test]
fn overload_sheds_but_never_fails() {
    let (cfg, calib) = base();
    let requests = burst(&cfg, &calib, 60, 200, 3);
    let report = serve(&cfg, &requests, &calib).expect("serves at 2x");
    assert_eq!(report.failed(), 0, "overload alone must never hard-fail a request");
    assert!(report.shed_total() > 0, "2x offered load must shed something");
    assert_eq!(
        report.count("ok") + report.shed_total(),
        requests.len() as u64,
        "every request is either served or shed"
    );
    for rec in &report.records {
        if let Outcome::Ok { done, result, .. } = &rec.outcome {
            assert!(done - rec.arrival <= rec.deadline, "request {} returned late", rec.id);
            assert!(result.is_some(), "request {} served without a payload", rec.id);
        }
    }
}

#[test]
fn served_answers_match_calibration_baseline() {
    let (cfg, calib) = base();
    let requests = burst(&cfg, &calib, 24, 80, 2);
    let report = serve(&cfg, &requests, &calib).expect("serves at 0.8x");
    let mut served = 0;
    for rec in &report.records {
        if let Outcome::Ok { result, out_hash, .. } = &rec.outcome {
            let wi = cfg.workloads.iter().position(|w| w.name == rec.workload).expect("known");
            let entry = calib.entry(wi, rec.tier).expect("calibrated");
            assert_eq!(result, &entry.result, "request {} wrong payload", rec.id);
            assert_eq!(*out_hash, entry.out_hash, "request {} wrong stdout", rec.id);
            served += 1;
        }
    }
    assert!(served > 0, "a 0.8x burst should serve most requests");
}

#[test]
fn metrics_exposition_round_trips() {
    let (cfg, calib) = base();
    let requests = burst(&cfg, &calib, 24, 150, 8);
    let report = serve(&cfg, &requests, &calib).expect("serves");
    let mut reg = qoa_obs::Registry::new();
    report.export(&mut reg);
    let text = reg.expose();
    let parsed = qoa_obs::parse_exposition(&text).expect("round-trips");
    let total: f64 = ["ok", "shed-admission", "shed-queue", "shed-breaker", "shed-deadline", "failed"]
        .iter()
        .map(|o| {
            parsed
                .get(&format!("qoa_serve_requests_total{{outcome=\"{o}\"}}"))
                .unwrap_or(0.0)
        })
        .sum();
    assert_eq!(total as u64, requests.len() as u64, "request counters must cover every request");
    assert!(text.contains("qoa_serve_latency_vcycles"), "latency histogram missing");
    assert!(text.contains("qoa_executor_cells_total"), "executor counters missing");
}

/// Replicates the CI `serve-smoke` loadgen invocation at the library
/// level and diffs against the committed golden. If this fails after an
/// intentional behavior change, regenerate with the command in
/// EXPERIMENTS.md ("Serving under load").
#[test]
fn golden_journal_matches_committed() {
    let mut cfg =
        ServeConfig::new(&["go", "float"], Scale::Tiny, Vec::new()).expect("workloads resolve");
    let calib = calibrate(&cfg).expect("calibrates");
    let rate = (calib.capacity_per_m(cfg.virtual_workers) * 130 / 100).max(1);
    cfg.tenants = standard_tenants(rate, calib.mean_cost_full);
    cfg.seed = 7;
    cfg.chaos = Some(ChaosConfig { seed: 11, points: 2 });
    let requests = generate(&ArrivalSpec {
        seed: 7,
        count: 120,
        rate_per_m: rate,
        tenants: cfg
            .tenants
            .iter()
            .map(|t| TenantMix { weight: t.weight, priority: t.priority, deadline: t.deadline })
            .collect(),
        workload_weights: vec![1; cfg.workloads.len()],
    });
    let report = serve(&cfg, &requests, &calib).expect("serves");
    let golden = include_str!("golden/serve_smoke.jsonl");
    assert_eq!(
        render_journal(&cfg, &report),
        golden,
        "journal drifted from tests/golden/serve_smoke.jsonl — regenerate if intentional"
    );
}

#[test]
fn each_tier_serves_exactly_its_runtime_config() {
    use qoa_chaos::FaultPlan;
    use qoa_core::{capture_chaos, run_with_sink, ChaosOptions};
    use qoa_model::CountingSink;
    use qoa_serve::{hash_output, serve_one, Tier};

    for name in ["go", "float"] {
        let source = qoa_workloads::by_name(name).expect("workload exists").source(Scale::Tiny);
        for tier in Tier::ALL {
            let rt = tier.runtime();
            let label = format!("{name}/{}", tier.name());
            let clean = serve_one(&source, tier, 0, None).expect("serves");
            let (sink, stats, _, output, result) =
                run_with_sink(&source, &rt, CountingSink::new()).expect("runs");
            assert_eq!(
                (clean.cost, clean.steps, &clean.result, clean.out_hash),
                (sink.total(), stats.bytecodes, &result, hash_output(&output)),
                "{label}: fault-free serve differs from its runtime config"
            );
            let mut faults = 0;
            for seed in 0..8u64 {
                let plan = FaultPlan::seeded(seed, clean.steps, 2, tier.fault_kinds());
                let served = serve_one(&source, tier, 0, Some(&plan)).expect("serve recovers");
                let (captured, outcome) =
                    capture_chaos(&source, &rt, &ChaosOptions::new(plan)).expect("chaos recovers");
                assert_eq!(
                    (served.cost, &served.result, served.faults),
                    (captured.trace.len() as u64, &captured.result, outcome.restores),
                    "{label} seed {seed}: serving and the chaos runner disagree"
                );
                assert_eq!(served.cost, clean.cost, "{label} seed {seed}: clean pass diverged");
                faults += served.faults;
            }
            assert!(faults > 0, "{label}: no fault fired across 8 seeds");
        }
    }
}
