//! Cluster-transport invariants: the differential oracle (every acked
//! answer byte-identical to the fault-free single-node baseline) across
//! many seeded fault plans, exactly-once commits under crash/duplicate
//! pressure, determinism of the cluster journal, and the golden smoke
//! journal that pins the format.

use qoa_serve::net::{ClientStats, NetConfig, NetFaultKind, NetFaultPlan};
use qoa_serve::{
    calibrate, generate, oracle_baseline, oracle_exactly_once, render_cluster_journal,
    run_cluster, standard_tenants, ArrivalSpec, Calibration, ClusterReport, NetOutcome,
    ServeConfig, TenantMix,
};
use qoa_workloads::Scale;

fn base() -> (ServeConfig, Calibration) {
    let mut cfg = ServeConfig::new(&["go"], Scale::Tiny, Vec::new()).expect("workload resolves");
    let calib = calibrate(&cfg).expect("calibrates");
    let rate = calib.capacity_per_m(cfg.virtual_workers);
    cfg.tenants = standard_tenants(rate, calib.mean_cost_full);
    (cfg, calib)
}

fn burst(
    cfg: &ServeConfig,
    calib: &Calibration,
    count: usize,
    load_pct: u64,
    seed: u64,
) -> Vec<qoa_serve::Request> {
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

fn horizon(requests: &[qoa_serve::Request], net: &NetConfig) -> u64 {
    requests.last().map_or(0, |r| r.arrival) + 20 * net.rto
}

/// Tentpole acceptance: across >= 20 seeded NetFaultPlans on a 3-node
/// cluster, every client-acked response is byte-identical to the
/// fault-free baseline, nothing commits twice, and nothing hard-fails.
#[test]
fn differential_oracle_across_twenty_fault_plans() {
    let (cfg, calib) = base();
    let requests = burst(&cfg, &calib, 24, 80, 17);
    let net_cfg = NetConfig::tuned(3, &calib);
    let mut faulted_plans = 0u64;
    let mut total_retries = 0u64;
    for seed in 1..=20u64 {
        let plan = NetFaultPlan::seeded(
            seed,
            horizon(&requests, &net_cfg),
            net_cfg.nodes,
            90,
            &NetFaultKind::ALL,
        );
        if !plan.is_empty() {
            faulted_plans += 1;
        }
        let report =
            run_cluster(&cfg, &net_cfg, &requests, &calib, &plan).expect("cluster runs");
        oracle_baseline(&report, &calib)
            .unwrap_or_else(|e| panic!("seed {seed}: baseline oracle: {e}"));
        oracle_exactly_once(&report)
            .unwrap_or_else(|e| panic!("seed {seed}: exactly-once oracle: {e}"));
        assert_eq!(
            report.failed(),
            0,
            "seed {seed}: faults must never produce a hard failure (got {})",
            report.failed()
        );
        assert_eq!(
            report.acked_ok() + report.shed_total(),
            requests.len() as u64,
            "seed {seed}: every request resolves to exactly one ack or shed"
        );
        // The run drains every queued event: a clean, reordered or
        // delayed send is delivered once, a duplicated one twice, a
        // dropped or partition-blocked one never.
        let net = &report.net;
        assert_eq!(
            net.delivered,
            net.sent - net.dropped - net.partition_blocked + net.duplicated,
            "seed {seed}: every scheduled delivery is processed and counted once"
        );
        assert!(net.delivered > 0, "seed {seed}: deliveries are counted");
        total_retries += report.client.retries;
    }
    assert_eq!(faulted_plans, 20, "every seeded plan should carry faults at 90 per mille");
    assert!(total_retries > 0, "20 faulted plans must force at least one retry somewhere");
}

/// The cluster journal is a pure function of (config, requests, plan):
/// two runs produce byte-identical journals, and a fault-free cluster
/// acks everything without retries.
#[test]
fn cluster_journal_is_deterministic_and_clean_plan_acks_all() {
    let (cfg, calib) = base();
    let requests = burst(&cfg, &calib, 16, 60, 11);
    let net_cfg = NetConfig::tuned(3, &calib);
    let plan = NetFaultPlan::none();
    let a = run_cluster(&cfg, &net_cfg, &requests, &calib, &plan).expect("first run");
    let b = run_cluster(&cfg, &net_cfg, &requests, &calib, &plan).expect("second run");
    assert_eq!(
        render_cluster_journal(&cfg, &net_cfg, &plan, &a),
        render_cluster_journal(&cfg, &net_cfg, &plan, &b),
        "cluster journal must be reproducible"
    );
    assert_eq!(a.failed(), 0);
    assert_eq!(a.acked_ok(), requests.len() as u64, "clean plan, light load: all acked");
    assert_eq!(a.client, ClientStats::default(), "no faults => no retries/hedges/timeouts");
    assert_eq!(a.net.delivered, a.net.sent, "clean plan: every send delivered once");
    assert_eq!(a.duplicate_executions, 0);
}

/// Drop faults force retries; the dedup window turns any retry of an
/// executed request into a replay, never a second execution.
#[test]
fn drops_force_retries_without_duplicate_execution() {
    let (cfg, calib) = base();
    let requests = burst(&cfg, &calib, 32, 70, 23);
    let net_cfg = NetConfig::tuned(3, &calib);
    let plan = NetFaultPlan::seeded(
        5,
        horizon(&requests, &net_cfg),
        net_cfg.nodes,
        250,
        &[NetFaultKind::Drop, NetFaultKind::Duplicate],
    );
    let report = run_cluster(&cfg, &net_cfg, &requests, &calib, &plan).expect("cluster runs");
    assert!(report.client.retries > 0, "25% drop/dup must force retries");
    assert_eq!(report.duplicate_executions, 0, "dedup window absorbs every duplicate");
    assert_eq!(report.failed(), 0);
    oracle_baseline(&report, &calib).expect("baseline oracle");
    let dedup_hits: u64 = report.nodes.iter().map(|n| n.dedup_hits).sum();
    let inflight: u64 = report.nodes.iter().map(|n| n.inflight_dups).sum();
    assert!(
        dedup_hits + inflight > 0,
        "duplicated/retried requests should hit the dedup or in-flight guard"
    );
}

/// Crashes lose uncommitted work but never an acked answer: the node
/// restores its committed core (dedup window included) and clients
/// re-drive everything that was in flight.
#[test]
fn crashes_restore_committed_state_and_lose_nothing_acked() {
    let (cfg, calib) = base();
    let requests = burst(&cfg, &calib, 24, 70, 31);
    let net_cfg = NetConfig::tuned(3, &calib);
    let plan = NetFaultPlan::seeded(
        9,
        horizon(&requests, &net_cfg),
        net_cfg.nodes,
        0,
        &[NetFaultKind::Crash],
    );
    assert!(!plan.crashes.is_empty(), "crash kind must schedule crashes");
    let report = run_cluster(&cfg, &net_cfg, &requests, &calib, &plan).expect("cluster runs");
    assert!(report.crashes() > 0, "scheduled crashes must fire");
    assert_eq!(report.failed(), 0, "crash + failover must not fail requests");
    assert_eq!(report.duplicate_executions, 0);
    oracle_baseline(&report, &calib).expect("baseline oracle");
    oracle_exactly_once(&report).expect("exactly-once oracle");
}

/// Hedged requests ack from whichever replica answers first; the loser
/// is cancelled or its late ack discarded, and answers stay identical.
#[test]
fn hedging_acks_first_and_cancels_the_rest() {
    let (cfg, calib) = base();
    let requests = burst(&cfg, &calib, 24, 70, 41);
    let mut net_cfg = NetConfig::tuned(3, &calib);
    net_cfg.hedge_after = Some(net_cfg.rto / 2);
    let plan = NetFaultPlan::seeded(
        13,
        horizon(&requests, &net_cfg),
        net_cfg.nodes,
        120,
        &[NetFaultKind::Delay, NetFaultKind::Drop],
    );
    let report = run_cluster(&cfg, &net_cfg, &requests, &calib, &plan).expect("cluster runs");
    assert!(report.client.hedges > 0, "delayed answers must trigger hedges");
    assert_eq!(report.failed(), 0);
    assert_eq!(report.duplicate_executions, 0, "hedges never double-commit on one node");
    oracle_baseline(&report, &calib).expect("baseline oracle");
    assert!(
        report.client.cancels > 0 || report.client.late_acks > 0 || report.cross_node_executions == 0,
        "a hedge that raced to two nodes leaves a cancel or a late ack behind"
    );
}

/// Every ack carries the same payload the single-node `serve` path
/// would produce — checked per-record against calibration, which the
/// single-node differential tests already pin to `serve` itself.
#[test]
fn acked_payloads_match_single_node_baseline_exactly() {
    let (cfg, calib) = base();
    let requests = burst(&cfg, &calib, 16, 60, 53);
    let net_cfg = NetConfig::tuned(3, &calib);
    let plan = NetFaultPlan::seeded(
        3,
        horizon(&requests, &net_cfg),
        net_cfg.nodes,
        100,
        &NetFaultKind::ALL,
    );
    let report = run_cluster(&cfg, &net_cfg, &requests, &calib, &plan).expect("cluster runs");
    for rec in &report.records {
        if let NetOutcome::Ok { result, out_hash, tier, .. } = &rec.outcome {
            let entry = calib.entry(rec.workload_idx, *tier).expect("calibrated tier");
            assert_eq!(result, &entry.result, "request {} payload", rec.id);
            assert_eq!(*out_hash, entry.out_hash, "request {} output hash", rec.id);
        }
    }
}

fn smoke_report(cfg: &ServeConfig, calib: &Calibration) -> (NetConfig, NetFaultPlan, ClusterReport)
{
    let requests = burst(cfg, calib, 20, 70, 77);
    let net_cfg = NetConfig::tuned(3, calib);
    let plan = NetFaultPlan::seeded(
        7,
        horizon(&requests, &net_cfg),
        net_cfg.nodes,
        90,
        &[NetFaultKind::Drop, NetFaultKind::Reorder, NetFaultKind::Crash],
    );
    let report = run_cluster(cfg, &net_cfg, &requests, calib, &plan).expect("smoke runs");
    (net_cfg, plan, report)
}

/// The committed golden journal pins both the line format and the exact
/// virtual-time behavior of the drop+reorder+crash smoke run. Set
/// `QOA_BLESS=1` to regenerate after an intentional change.
#[test]
fn golden_cluster_smoke_journal() {
    let (cfg, calib) = base();
    let (net_cfg, plan, report) = smoke_report(&cfg, &calib);
    let rendered = render_cluster_journal(&cfg, &net_cfg, &plan, &report);
    let golden = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden/cluster_smoke.jsonl");
    if std::env::var_os("QOA_BLESS").is_some() {
        std::fs::write(&golden, &rendered).expect("bless golden");
        return;
    }
    let expected = std::fs::read_to_string(&golden)
        .expect("golden journal committed (QOA_BLESS=1 to create)");
    assert_eq!(
        rendered, expected,
        "cluster smoke journal drifted; run with QOA_BLESS=1 if intentional"
    );
}
