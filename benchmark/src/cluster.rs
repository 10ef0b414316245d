//! The `cluster` workload: replicated serving over a fault-injected
//! virtual network.
//!
//! Three nodes serve {go, float, richards} at Tiny scale, offered 70% of
//! one node's calibrated capacity. Arrivals come from
//! `qoa_serve::generate`: open-loop Poisson in virtual time, so the
//! generator is never late. One arrival trace of 300 requests is replayed
//! under the network fault plans of seeds 1 to 4, as `qoa-cluster --seeds
//! 4` runs them, with all six fault kinds at 90 per mille. The run seed
//! only orders the plans, so every seed must reproduce the same acked
//! service cost. The serving path forks and executes with no trace and no
//! core model, so capture- and replay-side changes must show nothing here.

use crate::ledger::{span_if, Ledger};
use crate::{shuffle, Bench, PassOutput, Size};
use qoa_serve::net::{NetConfig, NetFaultKind, NetFaultPlan};
use qoa_serve::{
    calibrate, generate, oracle_baseline, oracle_exactly_once, prewarm, run_cluster, serve_one,
    standard_tenants, ArrivalSpec, Calibration, ClusterReport, NetOutcome, Request, ServeConfig,
    TenantMix, Tier,
};
use qoa_workloads::Scale;
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

const NODES: usize = 3;
const LOAD_PCT: u64 = 70;
const FAULT_PER_MILLE: u32 = 90;
/// The arrival trace's seed, shared by every run seed.
const ARRIVAL_SEED: u64 = 1;
/// Snapshot restores and forked requests timed per workload by the
/// traced pass's serve probe.
const PROBE_RESTORES: u64 = 64;
const PROBE_SERVES: u64 = 8;

/// Set-ups so far in this process. The serve snapshot pool is keyed by
/// source text and lives as long as the thread, so each set-up tags the
/// sources with its own trailing comment: calibration then prewarms cold
/// every time, and the guest computes exactly what it did untagged.
static SETUPS: AtomicU64 = AtomicU64::new(0);

pub(crate) struct Cluster {
    cfg: ServeConfig,
    calib: Calibration,
    net_cfg: NetConfig,
    requests: Vec<Request>,
    plans: Vec<NetFaultPlan>,
    calibrate_secs: f64,
}

/// Calibrates the serve nodes and derives the arrival trace and fault
/// plans: 4 plans x 300 requests, or 1 x 40 for [`Size::Smoke`]. The
/// plans run in an order drawn from `seed`.
pub(crate) fn setup(size: Size, seed: u64) -> Cluster {
    let (plans, count) = if size == Size::Full { (4, 300) } else { (1, 40) };
    let mut cfg = ServeConfig::new(&["go", "float", "richards"], Scale::Tiny, Vec::new())
        .expect("registered workloads");
    let tag = SETUPS.fetch_add(1, Ordering::Relaxed);
    for w in &mut cfg.workloads {
        w.source.push_str(&format!("\n# set-up {tag}\n"));
    }
    let t = Instant::now();
    let calib = calibrate(&cfg).expect("calibration of registered workloads");
    let calibrate_secs = t.elapsed().as_secs_f64();
    let rate = (calib.capacity_per_m(cfg.virtual_workers) * LOAD_PCT / 100).max(1);
    cfg.tenants = standard_tenants(rate, calib.mean_cost_full);
    let requests = generate(&ArrivalSpec {
        seed: ARRIVAL_SEED,
        count,
        rate_per_m: rate,
        tenants: cfg
            .tenants
            .iter()
            .map(|t| TenantMix { weight: t.weight, priority: t.priority, deadline: t.deadline })
            .collect(),
        workload_weights: vec![1; cfg.workloads.len()],
    });
    let net_cfg = NetConfig::tuned(NODES, &calib);
    let horizon = requests.last().map_or(0, |r| r.arrival) + 20 * net_cfg.rto;
    let mut plans: Vec<NetFaultPlan> = (1..=plans)
        .map(|net_seed| {
            NetFaultPlan::seeded(net_seed, horizon, NODES, FAULT_PER_MILLE, &NetFaultKind::ALL)
        })
        .collect();
    shuffle(&mut plans, seed);
    Cluster { cfg, calib, net_cfg, requests, plans, calibrate_secs }
}

impl Cluster {
    /// Checks one report and folds its counts into `out`.
    fn record(&self, report: &ClusterReport, out: &mut PassOutput, acks: &mut Vec<u64>) {
        let n = report.records.len() as u64;
        out.attempted += n;
        let breach =
            oracle_baseline(report, &self.calib).and_then(|()| oracle_exactly_once(report)).err();
        if let Some(e) = &breach {
            eprintln!("cluster oracle breach: {e}");
            out.failed += n;
        } else {
            out.failed += report.failed();
        }
        for rec in &report.records {
            if let NetOutcome::Ok { cost, .. } = rec.outcome {
                out.sim_cycles += cost;
            }
        }
        acks.extend(report.ack_latencies());
        let nodes = |f: fn(&qoa_serve::net::NodeStats) -> u64| report.nodes.iter().map(f).sum();
        for (name, v) in [
            ("net.requests", n),
            ("net.acked", report.acked_ok()),
            ("net.shed", report.shed_total()),
            ("net.sent", report.net.sent),
            ("net.dropped", report.net.dropped),
            ("net.duplicated", report.net.duplicated),
            ("net.retries", report.client.retries),
            ("net.hedges", report.client.hedges),
            ("net.timeouts", report.client.timeouts),
            ("net.executions", report.executed_total()),
            ("net.dedup_hits", nodes(|s| s.dedup_hits)),
            ("net.inflight_dups", nodes(|s| s.inflight_dups)),
            ("net.crashes", report.crashes()),
            ("net.snapshots", nodes(|s| s.snapshots)),
        ] {
            *out.exact.entry(name).or_insert(0) += v;
        }
    }

    /// Times the serve layer on its own: per workload, one prewarm,
    /// [`PROBE_RESTORES`] snapshot restores and [`PROBE_SERVES`] forked
    /// requests.
    fn probe(&self, ledger: &mut Ledger) {
        for w in &self.cfg.workloads {
            let snap = ledger
                .span("serve.prewarm", || prewarm(&w.source, Tier::Full))
                .expect("prewarm of a calibrated workload");
            ledger.span("serve.restore", || {
                for _ in 0..PROBE_RESTORES {
                    black_box(snap.restore());
                }
            });
            ledger.span("serve.serve_one", || {
                for _ in 0..PROBE_SERVES {
                    serve_one(&w.source, Tier::Full, 0, None)
                        .expect("serving a calibrated workload");
                }
            });
            ledger.count("serve.prewarms", 1);
            ledger.count("serve.restores", PROBE_RESTORES);
            ledger.count("serve.serves", PROBE_SERVES);
        }
    }
}

/// The nearest-rank `permille` percentile of sorted `v`, or 0.
fn rank(v: &[u64], permille: usize) -> u64 {
    let i = (v.len() * permille).div_ceil(1000).max(1);
    v.get(i - 1).copied().unwrap_or(0)
}

impl Bench for Cluster {
    fn pass(&mut self, mut ledger: Option<&mut Ledger>) -> PassOutput {
        let mut out = PassOutput::default();
        let mut acks = Vec::new();
        for plan in &self.plans {
            let run = || run_cluster(&self.cfg, &self.net_cfg, &self.requests, &self.calib, plan);
            match span_if(ledger.as_deref_mut(), "net.run_cluster", run) {
                Ok(report) => span_if(ledger.as_deref_mut(), "net.oracle", || {
                    self.record(&report, &mut out, &mut acks)
                }),
                Err(e) => {
                    eprintln!("cluster run failed: {e}");
                    out.attempted += self.requests.len() as u64;
                    out.failed += self.requests.len() as u64;
                }
            }
        }
        acks.sort_unstable();
        out.exact.insert("net.ack_p50_vcycles", rank(&acks, 500));
        out.exact.insert("net.ack_p99_vcycles", rank(&acks, 990));
        if let Some(l) = ledger {
            self.probe(l);
        }
        out
    }

    fn setup_layers(&self) -> Vec<(&'static str, f64)> {
        vec![("serve.calibrate_s", self.calibrate_secs)]
    }
}
