//! Deterministic cluster transport: N replicated serve nodes behind a
//! fault-injected simulated network.
//!
//! A single-node K-server simulation (PR 6) cannot exercise the failure
//! modes that dominate real serving: lost, duplicated, and reordered
//! messages, node crashes, partial partitions. This module adds them —
//! *simulated and seeded*, following the repo's chaos discipline — as a
//! virtual-time event simulation:
//!
//! * [`NetFaultPlan`] — a SplitMix64-seeded schedule over six network
//!   fault kinds ([`NetFaultKind`]): drop, duplicate, reorder, delay,
//!   partial partition, and node crash/restart. Message fates are a
//!   pure function of `(plan seed, send sequence)`; crash and partition
//!   windows derive from [`qoa_chaos::seeded_schedule`], the same
//!   generator behind the VM fault plans.
//! * [`VirtualNet`] — applies the plan at send time, turning each send
//!   into zero, one or two timed [`Delivery`]s for the simulation's
//!   event queue.
//! * [`run_cluster`] — the protocol that makes this at-least-once
//!   transport behave exactly-once: client timeouts with capped
//!   exponential backoff + seeded jitter
//!   ([`qoa_core::VirtualRetryPolicy`]), per-request idempotency keys
//!   with a bounded server-side dedup window, hedged requests with
//!   first-ack-wins cancellation, and per-node client breakers
//!   ([`qoa_core::BreakerBank`]) driving failover. Each node keeps the
//!   PR-6 guarantees — token-bucket admission, deadline→fuel caps, the
//!   degradation ladder — and *commits* every execution (dedup entry +
//!   [`qoa_chaos::Snapshot`] of its durable core) **before** the ack is
//!   sent, so a crash never forgets an acked execution and a retry of
//!   an executed request is answered from the window, never re-run.
//!
//! The whole simulation is single-threaded over one event queue keyed
//! by `(virtual time, class, sequence)`: byte-determinism is by construction,
//! and `qoa-cluster` gets `--jobs` parallelism by fanning *seeds*
//! through the supervised executor, whose ordered commit keeps the
//! concatenated cluster journal identical at any job count. See DESIGN §17 for the
//! full exactly-once argument.

use crate::admission::TokenBucket;
use crate::arrivals::{Request, SplitMix64};
use crate::pool::{serve_one, Tier};
use crate::server::{
    fuel_cap, json_str, opt_str, Calibration, Outcome, ServeConfig, ShedCause,
};
use qoa_chaos::{seeded_schedule, Snapshot};
use qoa_core::{BreakerBank, BreakerOptions, QoaError, VirtualRetryPolicy};
use qoa_obs::Registry;
use std::collections::{BTreeMap, VecDeque};
use std::time::{Duration, Instant};

/// A numbered endpoint. Server nodes are `0..n`; the driving client
/// takes the next id after the last node.
pub type NodeId = usize;

/// One message on its way through the network.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Delivery<P> {
    /// Virtual time at which the message arrives at `dst`.
    pub at: u64,
    /// Receiving endpoint.
    pub dst: NodeId,
    /// The payload.
    pub payload: P,
}

// ---- fault kinds and plan ---------------------------------------------------

/// The six simulated network fault kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum NetFaultKind {
    /// The message is silently lost.
    Drop,
    /// The message is delivered twice (the copy arrives later).
    Duplicate,
    /// The message's delivery delay is redrawn so it can overtake or
    /// fall behind its neighbors.
    Reorder,
    /// The message is delivered late.
    Delay,
    /// A partial partition: one (endpoint, endpoint) link is down for a
    /// window; messages sent across it are lost.
    Partition,
    /// A node crashes (losing queue and in-flight work, reverting to
    /// its last committed snapshot) and restarts after a downtime.
    Crash,
}

impl NetFaultKind {
    /// Every kind, in a stable order.
    pub const ALL: [NetFaultKind; 6] = [
        NetFaultKind::Drop,
        NetFaultKind::Duplicate,
        NetFaultKind::Reorder,
        NetFaultKind::Delay,
        NetFaultKind::Partition,
        NetFaultKind::Crash,
    ];

    /// Stable label used for metrics, journals, and CLI flags.
    pub fn name(self) -> &'static str {
        match self {
            NetFaultKind::Drop => "drop",
            NetFaultKind::Duplicate => "duplicate",
            NetFaultKind::Reorder => "reorder",
            NetFaultKind::Delay => "delay",
            NetFaultKind::Partition => "partition",
            NetFaultKind::Crash => "crash",
        }
    }

    /// Parses a CLI label back into a kind.
    pub fn from_name(s: &str) -> Option<NetFaultKind> {
        NetFaultKind::ALL.into_iter().find(|k| k.name() == s)
    }

    fn bit(self) -> u8 {
        match self {
            NetFaultKind::Drop => 1,
            NetFaultKind::Duplicate => 2,
            NetFaultKind::Reorder => 4,
            NetFaultKind::Delay => 8,
            NetFaultKind::Partition => 16,
            NetFaultKind::Crash => 32,
        }
    }
}

impl std::fmt::Display for NetFaultKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One scheduled link outage: traffic between `a` and `b` (both
/// directions) is lost while `start <= t < end`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionWindow {
    /// One endpoint (a node id, or the client id = node count).
    pub a: NodeId,
    /// The other endpoint.
    pub b: NodeId,
    /// First blocked virtual cycle.
    pub start: u64,
    /// First virtual cycle past the outage.
    pub end: u64,
}

/// A seeded, reproducible schedule of network faults.
///
/// Message-level fates (drop / duplicate / reorder / delay) are decided
/// per send as a pure function of `(seed, send sequence)`; crash and
/// partition schedules are fixed vectors derived once from the seed.
/// The same `(seed, horizon, nodes, per_mille, kinds)` always yields
/// the same plan — on any host.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NetFaultPlan {
    /// Seed the plan was derived from.
    pub seed: u64,
    /// Probability (per mille) that a message suffers one of the
    /// message-level kinds in `msg_kinds`.
    pub per_mille: u32,
    /// Message-level kinds the plan may inject, ascending.
    pub msg_kinds: Vec<NetFaultKind>,
    /// Crash schedule: `(virtual time, node)`, sorted.
    pub crashes: Vec<(u64, NodeId)>,
    /// Partition windows, sorted by start.
    pub partitions: Vec<PartitionWindow>,
}

/// What the plan decided for one sent message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MsgFate {
    Clean,
    Fault(NetFaultKind),
}

const MSG_SALT: u64 = 0x6e65_745f_6d73_6721;
const CRASH_SALT: u64 = 0x6e65_745f_6372_6173;
const PART_SALT: u64 = 0x6e65_745f_7061_7274;

impl NetFaultPlan {
    /// A plan that injects nothing: the cluster behaves like a reliable
    /// network with constant latency.
    pub fn none() -> NetFaultPlan {
        NetFaultPlan {
            seed: 0,
            per_mille: 0,
            msg_kinds: Vec::new(),
            crashes: Vec::new(),
            partitions: Vec::new(),
        }
    }

    /// Derives a plan from `seed` over a cluster of `nodes` nodes and a
    /// virtual horizon.
    ///
    /// `kinds` selects which fault kinds may appear: the message-level
    /// subset drives per-send fates at probability `per_mille`/1000;
    /// [`NetFaultKind::Crash`] adds up to `nodes` crash points in the
    /// middle half of the horizon; [`NetFaultKind::Partition`] adds up
    /// to two link outages of an eighth of the horizon each.
    pub fn seeded(
        seed: u64,
        horizon: u64,
        nodes: usize,
        per_mille: u32,
        kinds: &[NetFaultKind],
    ) -> NetFaultPlan {
        let horizon = horizon.max(8);
        let mut msg_kinds: Vec<NetFaultKind> = kinds
            .iter()
            .copied()
            .filter(|k| {
                matches!(
                    k,
                    NetFaultKind::Drop
                        | NetFaultKind::Duplicate
                        | NetFaultKind::Reorder
                        | NetFaultKind::Delay
                )
            })
            .collect();
        msg_kinds.sort_unstable();
        msg_kinds.dedup();

        let mut crashes: Vec<(u64, NodeId)> = Vec::new();
        if kinds.contains(&NetFaultKind::Crash) && nodes > 0 {
            // Crash points land in the middle half of the horizon so a
            // crashed node both receives traffic before and serves
            // traffic after.
            for (tick, node) in seeded_schedule(seed ^ CRASH_SALT, horizon / 2, nodes, nodes) {
                crashes.push((horizon / 4 + tick, node));
            }
            crashes.sort_unstable();
            crashes.dedup_by_key(|&mut (_, n)| n);
        }

        let mut partitions: Vec<PartitionWindow> = Vec::new();
        if kinds.contains(&NetFaultKind::Partition) && nodes > 0 {
            let endpoints = nodes + 1; // nodes plus the client
            let mut rng = SplitMix64::new(seed ^ PART_SALT);
            let n = 1 + (rng.next_u64() as usize % 2);
            for _ in 0..n {
                let a = rng.next_u64() as usize % endpoints;
                let b = rng.next_u64() as usize % endpoints;
                let start = 1 + rng.next_u64() % horizon;
                let len = horizon / 8 + rng.next_u64() % (horizon / 8).max(1);
                if a != b {
                    partitions.push(PartitionWindow { a, b, start, end: start + len });
                }
            }
            partitions.sort_unstable_by_key(|w| (w.start, w.a, w.b));
        }

        NetFaultPlan { seed, per_mille: per_mille.min(1000), msg_kinds, crashes, partitions }
    }

    /// True when the plan can inject nothing at all.
    pub fn is_empty(&self) -> bool {
        (self.per_mille == 0 || self.msg_kinds.is_empty())
            && self.crashes.is_empty()
            && self.partitions.is_empty()
    }

    /// The fate of send sequence `seq`: a pure function of the plan
    /// seed and the sequence number.
    fn message_fate(&self, seq: u64) -> MsgFate {
        if self.per_mille == 0 || self.msg_kinds.is_empty() {
            return MsgFate::Clean;
        }
        let mut rng = SplitMix64::new(self.seed ^ MSG_SALT ^ seq.wrapping_mul(0x9e37_79b9));
        if rng.next_u64() % 1000 >= u64::from(self.per_mille) {
            return MsgFate::Clean;
        }
        MsgFate::Fault(self.msg_kinds[rng.next_u64() as usize % self.msg_kinds.len()])
    }

    /// True while the `a <-> b` link is inside a partition window at
    /// virtual time `t`.
    pub fn blocked(&self, a: NodeId, b: NodeId, t: u64) -> bool {
        self.partitions.iter().any(|w| {
            ((w.a == a && w.b == b) || (w.a == b && w.b == a)) && t >= w.start && t < w.end
        })
    }

    /// Render the plan's kind set as a stable `+`-joined label.
    pub fn kinds_label(&self) -> String {
        let mut labels: Vec<&str> = self.msg_kinds.iter().map(|k| k.name()).collect();
        if !self.crashes.is_empty() {
            labels.push(NetFaultKind::Crash.name());
        }
        if !self.partitions.is_empty() {
            labels.push(NetFaultKind::Partition.name());
        }
        if labels.is_empty() {
            "none".into()
        } else {
            labels.join("+")
        }
    }
}

// ---- the virtual network ----------------------------------------------------

/// Message-fate counters for one simulated network.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Messages offered to the transport.
    pub sent: u64,
    /// Deliveries that reached their destination endpoint.
    pub delivered: u64,
    /// Messages lost by a drop fault.
    pub dropped: u64,
    /// Messages delivered twice.
    pub duplicated: u64,
    /// Messages with a redrawn (reordering) delay.
    pub reordered: u64,
    /// Messages delivered late by a delay fault.
    pub delayed: u64,
    /// Messages lost to a partition window.
    pub partition_blocked: u64,
}

/// The seeded virtual-time network: applies a [`NetFaultPlan`] at send
/// time. It keeps no queue; the caller schedules the deliveries.
#[derive(Debug)]
pub struct VirtualNet {
    plan: NetFaultPlan,
    base_delay: u64,
    next_seq: u64,
    /// Fault kind applied to each faulted send, for per-request latency
    /// attribution.
    faulted: BTreeMap<u64, NetFaultKind>,
    /// Message-fate counters.
    pub stats: NetStats,
}

impl VirtualNet {
    /// A network with one-way latency `base_delay` vcycles under `plan`.
    pub fn new(plan: NetFaultPlan, base_delay: u64) -> VirtualNet {
        VirtualNet {
            plan,
            base_delay: base_delay.max(1),
            next_seq: 0,
            faulted: BTreeMap::new(),
            stats: NetStats::default(),
        }
    }

    /// The fault kind the plan applied to send `seq`, if any.
    pub fn fate_kind(&self, seq: u64) -> Option<NetFaultKind> {
        self.faulted.get(&seq).copied()
    }

    /// Offers a message at virtual time `now`. Returns its send sequence
    /// number and the zero, one or two deliveries the plan makes of it,
    /// in the order they must be queued (`None` slots carry nothing).
    /// Fates are a pure function of the plan seed and the send sequence.
    pub fn send<P: Clone>(
        &mut self,
        now: u64,
        src: NodeId,
        dst: NodeId,
        payload: P,
    ) -> (u64, [Option<Delivery<P>>; 2]) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.stats.sent += 1;
        let deliver = |at: u64, payload: P| Some(Delivery { at, dst, payload });

        if self.plan.blocked(src, dst, now) {
            self.stats.partition_blocked += 1;
            self.faulted.insert(seq, NetFaultKind::Partition);
            return (seq, [None, None]);
        }

        // A dedicated RNG per sequence keeps every derived quantity a
        // pure function of (plan seed, seq).
        let mut rng =
            SplitMix64::new(self.plan.seed ^ MSG_SALT ^ seq.wrapping_mul(0x85eb_ca6b) ^ 0xfee1);
        let deliveries = match self.plan.message_fate(seq) {
            MsgFate::Clean => [deliver(now + self.base_delay, payload), None],
            MsgFate::Fault(NetFaultKind::Drop) => {
                self.stats.dropped += 1;
                self.faulted.insert(seq, NetFaultKind::Drop);
                [None, None]
            }
            MsgFate::Fault(NetFaultKind::Duplicate) => {
                self.stats.duplicated += 1;
                self.faulted.insert(seq, NetFaultKind::Duplicate);
                let extra = self.base_delay * (1 + rng.next_u64() % 3);
                [
                    deliver(now + self.base_delay, payload.clone()),
                    deliver(now + self.base_delay + extra, payload),
                ]
            }
            MsgFate::Fault(NetFaultKind::Reorder) => {
                self.stats.reordered += 1;
                self.faulted.insert(seq, NetFaultKind::Reorder);
                // Redraw the delay in [0, 4·base): the message can now
                // overtake earlier sends or fall behind later ones.
                let delay = rng.next_u64() % (self.base_delay * 4);
                [deliver(now + delay, payload), None]
            }
            MsgFate::Fault(NetFaultKind::Delay) => {
                self.stats.delayed += 1;
                self.faulted.insert(seq, NetFaultKind::Delay);
                let delay = self.base_delay * (2 + rng.next_u64() % 6);
                [deliver(now + delay, payload), None]
            }
            // Partition is handled by the link check above; crash is a
            // node-level schedule, not a message fate.
            MsgFate::Fault(NetFaultKind::Partition | NetFaultKind::Crash) => {
                [deliver(now + self.base_delay, payload), None]
            }
        };
        (seq, deliveries)
    }
}

// ---- protocol messages ------------------------------------------------------

/// A server's answer to one request key.
#[derive(Debug, Clone, PartialEq)]
pub enum Reply {
    /// Committed execution (or a dedup-window hit replaying one).
    Ok {
        /// The `result` global of the clean pass.
        result: Option<String>,
        /// Guest stdout hash.
        out_hash: u64,
        /// Service cost in vcycles.
        cost: u64,
        /// Guest bytecodes executed.
        steps: u64,
        /// Tier the execution ran under.
        tier: Tier,
        /// True when answered from the dedup window.
        dedup: bool,
    },
    /// Declined by an overload or deadline gate — never cached, never
    /// terminal for the node.
    Shed {
        /// Which gate declined.
        cause: ShedCause,
    },
    /// Organic guest failure (must not happen for calibrated workloads).
    Failed {
        /// [`QoaError::kind`] tag.
        kind: String,
        /// Rendered error.
        message: String,
    },
}

/// One protocol message.
#[derive(Debug, Clone, PartialEq)]
pub enum Msg {
    /// Client → node: execute (or replay) idempotency key `key`.
    Request {
        /// Idempotency key (the request id).
        key: u64,
        /// Attempt number, for diagnostics.
        attempt: u32,
        /// Tenant index.
        tenant: usize,
        /// Workload index.
        workload: usize,
        /// Relative deadline in vcycles.
        deadline: u64,
    },
    /// Node → client: the answer for `key`.
    Response {
        /// Idempotency key this answers.
        key: u64,
        /// Responding node.
        node: NodeId,
        /// The answer.
        reply: Reply,
    },
    /// Client → node: `key` was answered elsewhere; drop it if queued.
    Cancel {
        /// Idempotency key to abandon.
        key: u64,
    },
}

// ---- cluster configuration --------------------------------------------------

/// Network/protocol tuning for one cluster run.
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Replicated serve nodes.
    pub nodes: usize,
    /// One-way message latency in vcycles.
    pub base_delay: u64,
    /// Per-attempt client timeout (retransmit timer) in vcycles.
    pub rto: u64,
    /// Client retry policy (attempt count, backoff, jitter).
    pub retry: VirtualRetryPolicy,
    /// Hedge a still-unanswered request to a second node after this
    /// many vcycles (None disables hedging).
    pub hedge_after: Option<u64>,
    /// Server-side dedup window: committed executions remembered per
    /// node. Must exceed the number of keys that can be in flight or
    /// retried; eviction past it reopens the duplicate-execution hole.
    pub dedup_window: usize,
    /// Per-node client breaker tuning.
    pub breaker: BreakerOptions,
    /// Crash downtime before restart, in vcycles.
    pub downtime: u64,
}

impl NetConfig {
    /// Tuning derived from a calibration: timers scale with the
    /// measured service cost so the defaults stay sane across scales.
    pub fn tuned(nodes: usize, calib: &Calibration) -> NetConfig {
        let cost = calib.mean_cost_full.max(1);
        let base_delay = (cost / 20).max(64);
        // Generous: one queued request ahead plus the round trip.
        let rto = 4 * base_delay + 3 * cost;
        NetConfig {
            nodes: nodes.max(1),
            base_delay,
            rto,
            retry: VirtualRetryPolicy {
                max_attempts: 10,
                base: rto / 2,
                cap: rto * 8,
                jitter_permille: 250,
            },
            hedge_after: None,
            dedup_window: 4096,
            breaker: BreakerOptions { failure_threshold: 3, cooldown_sheds: 4 },
            downtime: 2 * rto,
        }
    }
}

// ---- cluster records and report ---------------------------------------------

/// Final client-side disposition of one request.
#[derive(Debug, Clone)]
pub enum NetOutcome {
    /// Acked with a payload.
    Ok {
        /// Virtual time the ack reached the client.
        acked_at: u64,
        /// Service cost in vcycles.
        cost: u64,
        /// Guest bytecodes of the serving pass.
        steps: u64,
        /// Response payload.
        result: Option<String>,
        /// Guest stdout hash.
        out_hash: u64,
        /// Tier the execution ran under.
        tier: Tier,
        /// True when the ack came from a dedup-window replay.
        dedup: bool,
        /// Node that answered.
        node: NodeId,
    },
    /// A node shed the request; terminal at the client.
    Shed {
        /// Which gate declined.
        cause: ShedCause,
        /// Node that declined.
        node: NodeId,
    },
    /// The client gave up (retry budget exhausted) or a node reported
    /// an organic failure. Zero under every tested fault plan.
    Failed {
        /// Failure class (`timeout`, or a [`QoaError::kind`] tag).
        kind: String,
        /// Rendered reason.
        message: String,
    },
}

impl NetOutcome {
    /// Stable journal/metrics label.
    pub fn label(&self) -> &'static str {
        match self {
            NetOutcome::Ok { .. } => "ok",
            NetOutcome::Shed { cause, .. } => cause.name(),
            NetOutcome::Failed { .. } => "failed",
        }
    }
}

/// One cluster journal row.
#[derive(Debug, Clone)]
pub struct ClusterRecord {
    /// Request id == idempotency key.
    pub id: u64,
    /// Tenant name.
    pub tenant: String,
    /// Workload name.
    pub workload: String,
    /// Workload index in the serve config.
    pub workload_idx: usize,
    /// Virtual arrival at the client.
    pub arrival: u64,
    /// Send attempts (1 = no retries).
    pub attempts: u32,
    /// Hedged sends.
    pub hedges: u32,
    /// Bitmask of [`NetFaultKind`]s that touched this request's
    /// messages.
    pub fault_mask: u8,
    /// Disposition.
    pub outcome: NetOutcome,
}

impl ClusterRecord {
    /// The fault kinds that touched this request, ascending.
    pub fn fault_kinds(&self) -> Vec<NetFaultKind> {
        NetFaultKind::ALL.into_iter().filter(|k| self.fault_mask & k.bit() != 0).collect()
    }
}

/// Client-protocol counters for one cluster run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ClientStats {
    /// Retransmissions (attempts beyond the first).
    pub retries: u64,
    /// Hedged sends.
    pub hedges: u64,
    /// Attempt timers that fired without an answer.
    pub timeouts: u64,
    /// Responses that arrived after the request was already acked.
    pub late_acks: u64,
    /// Cancel messages sent after first ack.
    pub cancels: u64,
}

/// Per-node serving counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NodeStats {
    /// Committed executions.
    pub executed: u64,
    /// Requests answered from the dedup window.
    pub dedup_hits: u64,
    /// Duplicate requests absorbed while the original was in flight.
    pub inflight_dups: u64,
    /// Requests shed (all causes).
    pub sheds: u64,
    /// Messages lost because the node was down.
    pub lost_down: u64,
    /// Crashes suffered.
    pub crashes: u64,
    /// Queued requests removed by a cancel.
    pub cancelled: u64,
    /// Committed-state snapshots captured.
    pub snapshots: u64,
}

/// Everything one cluster run produced.
#[derive(Debug)]
pub struct ClusterReport {
    /// Per-request rows, in request-id order.
    pub records: Vec<ClusterRecord>,
    /// Network message-fate counters.
    pub net: NetStats,
    /// Client protocol counters.
    pub client: ClientStats,
    /// Per-node serving counters.
    pub nodes: Vec<NodeStats>,
    /// Executions committed more than once for one (node, key) — the
    /// exactly-once oracle requires this to be zero, always.
    pub duplicate_executions: u64,
    /// Keys executed on more than one node (hedges/failover; benign —
    /// the client still acks exactly one answer).
    pub cross_node_executions: u64,
    /// Client breaker transitions (opened, half-opened, closed).
    pub breaker: (u64, u64, u64),
    /// Wall time of the simulation (reporting only; never journaled).
    pub wall: Duration,
}

// ---- the simulation ---------------------------------------------------------

/// A node's durable core: exactly the state that survives a crash,
/// captured as a [`Snapshot`] at every commit. The work queue and any
/// in-flight execution are deliberately *not* here — a crash loses
/// them, and the retry/dedup protocol is what makes that safe.
#[derive(Debug, Clone)]
struct NodeCore {
    buckets: Vec<TokenBucket>,
    dedup: BTreeMap<u64, Reply>,
    dedup_order: VecDeque<u64>,
    executed: u64,
}

impl NodeCore {
    fn remember(&mut self, key: u64, reply: Reply, window: usize) {
        if self.dedup.insert(key, reply).is_none() {
            self.dedup_order.push_back(key);
        }
        while self.dedup_order.len() > window.max(1) {
            if let Some(old) = self.dedup_order.pop_front() {
                self.dedup.remove(&old);
            }
        }
    }
}

/// One queued request on a node.
#[derive(Debug, Clone)]
struct PendingReq {
    key: u64,
    workload: usize,
    deadline: u64,
    enqueued: u64,
}

/// An execution in progress on a node.
#[derive(Debug)]
struct Executing {
    key: u64,
    reply: Reply,
}

struct Node {
    core: NodeCore,
    committed: Snapshot<NodeCore>,
    queue: VecDeque<PendingReq>,
    executing: Option<Executing>,
    down: bool,
    /// Bumped on every crash; stale completion events check it.
    epoch: u64,
    stats: NodeStats,
}

/// Client-side state for one request.
struct ClientReq {
    tenant: usize,
    workload: usize,
    deadline: u64,
    attempts: u32,
    hedges: u32,
    fault_mask: u8,
    last_node: NodeId,
    first_node: NodeId,
    sent_to: Vec<NodeId>,
    done: Option<NetOutcome>,
}

/// Simulation events, processed in [`EventQueue`] order.
#[derive(Debug)]
enum Event {
    Deliver(Delivery<Msg>),
    Arrive { idx: usize },
    Send { idx: usize, node: NodeId, attempt: u32 },
    Timeout { idx: usize, attempt: u32 },
    Hedge { idx: usize },
    NodeStart { node: NodeId },
    NodeComplete { node: NodeId, epoch: u64 },
    Crash { node: NodeId },
    Restart { node: NodeId },
}

/// The simulation's one event queue, keyed `(time, class, n)`. A
/// delivery has class 0 and every other event class 1, so deliveries
/// due at `t` drain before other events at `t`: an ack and its timeout
/// racing at `t` resolve to the ack, on every host. `n` counts pushes,
/// so ties within a class go in enqueue order.
#[derive(Debug, Default)]
struct EventQueue {
    events: BTreeMap<(u64, u8, u64), Event>,
    pushed: u64,
}

impl EventQueue {
    fn push(&mut self, at: u64, ev: Event) {
        let class = u8::from(!matches!(ev, Event::Deliver(_)));
        self.events.insert((at, class, self.pushed), ev);
        self.pushed += 1;
    }

    fn pop(&mut self) -> Option<(u64, Event)> {
        self.events.pop_first().map(|((at, ..), ev)| (at, ev))
    }
}

struct Sim<'a> {
    cfg: &'a ServeConfig,
    net_cfg: &'a NetConfig,
    calib: &'a Calibration,
    net: VirtualNet,
    events: EventQueue,
    nodes: Vec<Node>,
    reqs: Vec<ClientReq>,
    breakers: BreakerBank,
    client: ClientStats,
    /// Committed executions per (node, key): the exactly-once ledger.
    exec_counts: BTreeMap<(NodeId, u64), u32>,
}

impl Sim<'_> {
    fn client_id(&self) -> NodeId {
        self.net_cfg.nodes
    }

    /// Offers `msg` to the network and queues whatever it delivers.
    fn send(&mut self, t: u64, src: NodeId, dst: NodeId, msg: Msg) -> u64 {
        let (seq, deliveries) = self.net.send(t, src, dst, msg);
        for d in deliveries.into_iter().flatten() {
            self.events.push(d.at, Event::Deliver(d));
        }
        seq
    }

    /// First healthy node at or after `start` (client breaker board);
    /// falls back to `start` itself when every breaker is open.
    fn pick_node(&self, start: usize) -> NodeId {
        let n = self.net_cfg.nodes;
        (0..n).map(|i| (start + i) % n).find(|&c| self.breakers.healthy(c)).unwrap_or(start % n)
    }

    /// Sends one attempt of request `idx` to `node` and arms its timer.
    fn send_attempt(&mut self, t: u64, idx: usize, node: NodeId, attempt: u32) {
        let (key, tenant, workload, deadline) = {
            let r = &self.reqs[idx];
            (idx as u64, r.tenant, r.workload, r.deadline)
        };
        let seq = self.send(
            t,
            self.client_id(),
            node,
            Msg::Request { key, attempt, tenant, workload, deadline },
        );
        if let Some(kind) = self.net.fate_kind(seq) {
            self.reqs[idx].fault_mask |= kind.bit();
        }
        let r = &mut self.reqs[idx];
        r.last_node = node;
        if !r.sent_to.contains(&node) {
            r.sent_to.push(node);
        }
        self.events.push(t + self.net_cfg.rto, Event::Timeout { idx, attempt });
    }

    /// Node `node` answers `key` to the client.
    fn respond(&mut self, t: u64, node: NodeId, key: u64, reply: Reply) {
        let seq = self.send(t, node, self.client_id(), Msg::Response { key, node, reply });
        if let Some(kind) = self.net.fate_kind(seq) {
            if let Some(r) = self.reqs.get_mut(key as usize) {
                r.fault_mask |= kind.bit();
            }
        }
    }

    /// Starts the next queued request on `node` if it is idle.
    fn node_start(&mut self, t: u64, node: NodeId) {
        loop {
            if self.nodes[node].down || self.nodes[node].executing.is_some() {
                return;
            }
            let Some(pending) = self.nodes[node].queue.pop_front() else { return };
            if t > pending.enqueued + pending.deadline {
                // Expired while queued: dropped at dequeue, never run.
                self.nodes[node].stats.sheds += 1;
                self.respond(t, node, pending.key, Reply::Shed { cause: ShedCause::Deadline });
                continue;
            }
            let depth = self.nodes[node].queue.len() as u64;
            let tier = self.cfg.ladder.tier_for(depth);
            let Some(entry) = self.calib.entry(pending.workload, tier) else {
                self.respond(
                    t,
                    node,
                    pending.key,
                    Reply::Failed {
                        kind: "calibration".into(),
                        message: "no calibration entry".into(),
                    },
                );
                continue;
            };
            let fuel = fuel_cap(pending.deadline, entry);
            let source = &self.cfg.workloads[pending.workload].source;
            match serve_one(source, tier, fuel, None) {
                Ok(run) => {
                    let epoch = self.nodes[node].epoch;
                    let reply = Reply::Ok {
                        result: run.result,
                        out_hash: run.out_hash,
                        cost: run.cost,
                        steps: run.steps,
                        tier,
                        dedup: false,
                    };
                    self.nodes[node].executing = Some(Executing { key: pending.key, reply });
                    self.events.push(t + run.cost, Event::NodeComplete { node, epoch });
                    return;
                }
                Err(err) => {
                    // The deadline-derived fuel cap tripping is a shed,
                    // never a partial answer; anything else is organic.
                    let reply = if err.kind() == "fuel" {
                        self.nodes[node].stats.sheds += 1;
                        Reply::Shed { cause: ShedCause::Deadline }
                    } else {
                        Reply::Failed { kind: err.kind().into(), message: err.to_string() }
                    };
                    self.respond(t, node, pending.key, reply);
                    continue;
                }
            }
        }
    }

    /// Commit an execution: dedup entry + snapshot **before** the ack.
    fn node_complete(&mut self, t: u64, node: NodeId, epoch: u64) {
        if self.nodes[node].down || self.nodes[node].epoch != epoch {
            return; // the node crashed after this was scheduled
        }
        let Some(done) = self.nodes[node].executing.take() else { return };
        let n = &mut self.nodes[node];
        n.core.remember(done.key, done.reply.clone(), self.net_cfg.dedup_window);
        n.core.executed += 1;
        n.stats.executed += 1;
        n.committed = Snapshot::capture(t, &n.core);
        n.stats.snapshots += 1;
        *self.exec_counts.entry((node, done.key)).or_insert(0) += 1;
        self.respond(t, node, done.key, done.reply);
        self.node_start(t, node);
    }

    fn on_deliver(&mut self, t: u64, d: Delivery<Msg>) {
        if d.dst == self.client_id() {
            if let Msg::Response { key, node, reply } = d.payload {
                self.client_response(t, key, node, reply);
            }
            return;
        }
        let node = d.dst;
        if self.nodes[node].down {
            self.nodes[node].stats.lost_down += 1;
            return;
        }
        match d.payload {
            Msg::Request { key, tenant, workload, deadline, .. } => {
                // Idempotency: committed keys replay from the window —
                // no second execution, no admission charge.
                if let Some(hit) = self.nodes[node].core.dedup.get(&key).cloned() {
                    self.nodes[node].stats.dedup_hits += 1;
                    let replay = match hit {
                        Reply::Ok { result, out_hash, cost, steps, tier, .. } => {
                            Reply::Ok { result, out_hash, cost, steps, tier, dedup: true }
                        }
                        other => other,
                    };
                    self.respond(t, node, key, replay);
                    return;
                }
                // A duplicate of a queued/executing key is absorbed: the
                // original's response will answer the client.
                let in_flight = self.nodes[node].queue.iter().any(|p| p.key == key)
                    || self.nodes[node].executing.as_ref().is_some_and(|e| e.key == key);
                if in_flight {
                    self.nodes[node].stats.inflight_dups += 1;
                    return;
                }
                if !self.nodes[node].core.buckets[tenant].try_take(t) {
                    self.nodes[node].stats.sheds += 1;
                    self.respond(t, node, key, Reply::Shed { cause: ShedCause::Admission });
                    return;
                }
                if self.nodes[node].queue.len() as u64 >= self.cfg.max_queue {
                    self.nodes[node].stats.sheds += 1;
                    self.respond(t, node, key, Reply::Shed { cause: ShedCause::Queue });
                    return;
                }
                self.nodes[node]
                    .queue
                    .push_back(PendingReq { key, workload, deadline, enqueued: t });
                self.node_start(t, node);
            }
            Msg::Cancel { key } => {
                let before = self.nodes[node].queue.len();
                self.nodes[node].queue.retain(|p| p.key != key);
                let removed = (before - self.nodes[node].queue.len()) as u64;
                self.nodes[node].stats.cancelled += removed;
            }
            Msg::Response { .. } => {}
        }
    }

    fn client_response(&mut self, t: u64, key: u64, node: NodeId, reply: Reply) {
        let idx = key as usize;
        if self.reqs[idx].done.is_some() {
            self.client.late_acks += 1;
            return;
        }
        // A responsive node is a healthy node, even when it sheds.
        match &reply {
            Reply::Failed { .. } => {
                self.breakers.on_failure(node);
            }
            _ => {
                self.breakers.on_success(node);
            }
        }
        let outcome = match reply {
            Reply::Ok { result, out_hash, cost, steps, tier, dedup } => NetOutcome::Ok {
                acked_at: t,
                cost,
                steps,
                result,
                out_hash,
                tier,
                dedup,
                node,
            },
            Reply::Shed { cause } => NetOutcome::Shed { cause, node },
            Reply::Failed { kind, message } => NetOutcome::Failed { kind, message },
        };
        // First ack wins: cancel every other replica we contacted.
        let others: Vec<NodeId> =
            self.reqs[idx].sent_to.iter().copied().filter(|&n| n != node).collect();
        for other in others {
            self.send(t, self.client_id(), other, Msg::Cancel { key });
            self.client.cancels += 1;
        }
        self.reqs[idx].done = Some(outcome);
    }

    fn on_event(&mut self, t: u64, ev: Event) {
        match ev {
            Event::Deliver(d) => {
                self.net.stats.delivered += 1;
                self.on_deliver(t, d);
            }
            Event::Arrive { idx } => {
                let node = self.pick_node(idx % self.net_cfg.nodes);
                self.reqs[idx].first_node = node;
                self.reqs[idx].attempts = 1;
                self.send_attempt(t, idx, node, 1);
                if let Some(after) = self.net_cfg.hedge_after {
                    if self.net_cfg.nodes > 1 {
                        self.events.push(t + after, Event::Hedge { idx });
                    }
                }
            }
            Event::Send { idx, node, attempt } => {
                if self.reqs[idx].done.is_some() || self.reqs[idx].attempts != attempt {
                    return;
                }
                self.send_attempt(t, idx, node, attempt);
            }
            Event::Timeout { idx, attempt } => {
                if self.reqs[idx].done.is_some() || self.reqs[idx].attempts != attempt {
                    return;
                }
                self.client.timeouts += 1;
                self.breakers.on_failure(self.reqs[idx].last_node);
                if attempt >= self.net_cfg.retry.max_attempts {
                    self.reqs[idx].done = Some(NetOutcome::Failed {
                        kind: "timeout".into(),
                        message: format!("gave up after {attempt} attempts"),
                    });
                    return;
                }
                let next_attempt = attempt + 1;
                self.reqs[idx].attempts = next_attempt;
                self.client.retries += 1;
                let backoff = self.net_cfg.retry.backoff(self.cfg.seed, idx as u64, attempt);
                let node = self.pick_node(self.reqs[idx].last_node + 1);
                self.events.push(t + backoff, Event::Send { idx, node, attempt: next_attempt });
            }
            Event::Hedge { idx } => {
                let r = &self.reqs[idx];
                if r.done.is_some() || r.attempts != 1 || r.hedges > 0 {
                    return;
                }
                let node = self.pick_node(r.first_node + 1);
                if node == r.first_node {
                    return;
                }
                self.reqs[idx].hedges = 1;
                self.client.hedges += 1;
                let key = idx as u64;
                let (tenant, workload, deadline) =
                    (self.reqs[idx].tenant, self.reqs[idx].workload, self.reqs[idx].deadline);
                let seq = self.send(
                    t,
                    self.client_id(),
                    node,
                    Msg::Request { key, attempt: 1, tenant, workload, deadline },
                );
                if let Some(kind) = self.net.fate_kind(seq) {
                    self.reqs[idx].fault_mask |= kind.bit();
                }
                if !self.reqs[idx].sent_to.contains(&node) {
                    self.reqs[idx].sent_to.push(node);
                }
            }
            Event::NodeStart { node } => self.node_start(t, node),
            Event::NodeComplete { node, epoch } => self.node_complete(t, node, epoch),
            Event::Crash { node } => {
                if self.nodes[node].down {
                    return;
                }
                let n = &mut self.nodes[node];
                n.down = true;
                n.epoch += 1;
                n.queue.clear();
                n.executing = None;
                // Revert to the last committed snapshot: every acked
                // execution (dedup window included) survives; anything
                // uncommitted is gone and will be retried by clients.
                if let Some(core) = n.committed.restore() {
                    n.core = core;
                }
                n.stats.crashes += 1;
                self.events.push(t + self.net_cfg.downtime, Event::Restart { node });
            }
            Event::Restart { node } => {
                self.nodes[node].down = false;
                self.events.push(t, Event::NodeStart { node });
            }
        }
    }

    fn run(&mut self) {
        while let Some((t, ev)) = self.events.pop() {
            self.on_event(t, ev);
        }
    }
}

/// Runs one seeded cluster simulation: `requests` from a single client
/// against `net_cfg.nodes` replicated serve nodes over a network driven
/// by `plan`.
///
/// # Errors
///
/// Fails on an empty or inconsistent configuration (no nodes, requests
/// referencing unknown tables).
pub fn run_cluster(
    cfg: &ServeConfig,
    net_cfg: &NetConfig,
    requests: &[Request],
    calib: &Calibration,
    plan: &NetFaultPlan,
) -> Result<ClusterReport, QoaError> {
    let invalid = |m: String| QoaError::Journal {
        context: m,
        source: std::io::Error::new(std::io::ErrorKind::InvalidInput, "cluster config"),
    };
    if net_cfg.nodes == 0 {
        return Err(invalid("cluster: at least one node required".into()));
    }
    if cfg.workloads.is_empty() || cfg.tenants.is_empty() {
        return Err(invalid("cluster: workloads and tenants must be configured".into()));
    }
    for req in requests {
        if req.tenant >= cfg.tenants.len() || req.workload >= cfg.workloads.len() {
            return Err(invalid(format!("cluster: request {} references unknown tables", req.id)));
        }
    }

    let wall_start = Instant::now();
    let nodes: Vec<Node> = (0..net_cfg.nodes)
        .map(|_| {
            let core = NodeCore {
                buckets: cfg.tenants.iter().map(|t| TokenBucket::new(t.bucket, 0)).collect(),
                dedup: BTreeMap::new(),
                dedup_order: VecDeque::new(),
                executed: 0,
            };
            Node {
                committed: Snapshot::capture(0, &core),
                core,
                queue: VecDeque::new(),
                executing: None,
                down: false,
                epoch: 0,
                stats: NodeStats::default(),
            }
        })
        .collect();

    let reqs: Vec<ClientReq> = requests
        .iter()
        .map(|r| ClientReq {
            tenant: r.tenant,
            workload: r.workload,
            deadline: r.deadline,
            attempts: 0,
            hedges: 0,
            fault_mask: 0,
            last_node: 0,
            first_node: 0,
            sent_to: Vec::new(),
            done: None,
        })
        .collect();

    let mut sim = Sim {
        cfg,
        net_cfg,
        calib,
        net: VirtualNet::new(plan.clone(), net_cfg.base_delay),
        events: EventQueue::default(),
        nodes,
        reqs,
        breakers: BreakerBank::new(net_cfg.nodes, &net_cfg.breaker),
        client: ClientStats::default(),
        exec_counts: BTreeMap::new(),
    };
    for (idx, req) in requests.iter().enumerate() {
        sim.events.push(req.arrival, Event::Arrive { idx });
    }
    for &(at, node) in &plan.crashes {
        if node < net_cfg.nodes {
            sim.events.push(at, Event::Crash { node });
        }
    }
    sim.run();

    let mut duplicate_executions = 0u64;
    let mut per_key_nodes: BTreeMap<u64, u32> = BTreeMap::new();
    for (&(_, key), &count) in &sim.exec_counts {
        duplicate_executions += u64::from(count.saturating_sub(1));
        *per_key_nodes.entry(key).or_insert(0) += 1;
    }
    let cross_node_executions =
        per_key_nodes.values().filter(|&&n| n > 1).map(|&n| u64::from(n - 1)).sum();

    let records = requests
        .iter()
        .enumerate()
        .map(|(idx, req)| {
            let r = &sim.reqs[idx];
            ClusterRecord {
                id: req.id,
                tenant: cfg.tenants[req.tenant].name.clone(),
                workload: cfg.workloads[req.workload].name.clone(),
                workload_idx: req.workload,
                arrival: req.arrival,
                attempts: r.attempts,
                hedges: r.hedges,
                fault_mask: r.fault_mask,
                outcome: r.done.clone().unwrap_or(NetOutcome::Failed {
                    kind: "unresolved".into(),
                    message: "request never resolved (simulation bug)".into(),
                }),
            }
        })
        .collect();

    Ok(ClusterReport {
        records,
        net: sim.net.stats.clone(),
        client: sim.client.clone(),
        nodes: sim.nodes.iter().map(|n| n.stats.clone()).collect(),
        duplicate_executions,
        cross_node_executions,
        breaker: (sim.breakers.opened, sim.breakers.half_opened, sim.breakers.closed),
        wall: wall_start.elapsed(),
    })
}

// ---- oracles ----------------------------------------------------------------

/// The differential baseline oracle: every acked `Ok` response must be
/// byte-identical — `result` and output hash — to the fault-free
/// single-node answer for its workload, which is exactly the
/// calibration entry (calibration already proves all tiers agree).
///
/// # Errors
///
/// Returns a description of the first divergent ack.
pub fn oracle_baseline(report: &ClusterReport, calib: &Calibration) -> Result<(), String> {
    for rec in &report.records {
        let NetOutcome::Ok { result, out_hash, tier, .. } = &rec.outcome else { continue };
        let entry = calib
            .entry(rec.workload_idx, *tier)
            .ok_or_else(|| format!("request {}: no calibration entry", rec.id))?;
        if *result != entry.result || *out_hash != entry.out_hash {
            return Err(format!(
                "request {} ({}): acked {:?}/{:x}, fault-free baseline {:?}/{:x}",
                rec.id, rec.workload, result, out_hash, entry.result, entry.out_hash
            ));
        }
    }
    Ok(())
}

/// The exactly-once oracle: no (node, key) committed twice, and every
/// request resolved to exactly one client-side outcome.
///
/// # Errors
///
/// Returns a description of the violated invariant.
pub fn oracle_exactly_once(report: &ClusterReport) -> Result<(), String> {
    if report.duplicate_executions != 0 {
        return Err(format!(
            "{} duplicate committed executions (dedup window breached)",
            report.duplicate_executions
        ));
    }
    for rec in &report.records {
        if matches!(rec.outcome, NetOutcome::Failed { .. } if rec.attempts == 0) {
            return Err(format!("request {} never sent", rec.id));
        }
    }
    Ok(())
}

// ---- report accessors -------------------------------------------------------

impl ClusterReport {
    /// Requests with the given outcome label.
    pub fn count(&self, label: &str) -> u64 {
        self.records.iter().filter(|r| r.outcome.label() == label).count() as u64
    }

    /// Acked `Ok` responses.
    pub fn acked_ok(&self) -> u64 {
        self.count("ok")
    }

    /// Hard failures (timeouts included); zero under every tested plan.
    pub fn failed(&self) -> u64 {
        self.count("failed")
    }

    /// Every shed, across all causes.
    pub fn shed_total(&self) -> u64 {
        self.records
            .iter()
            .filter(|r| matches!(r.outcome, NetOutcome::Shed { .. }))
            .count() as u64
    }

    /// Acks served from a dedup window instead of a fresh execution.
    pub fn dedup_acks(&self) -> u64 {
        self.records
            .iter()
            .filter(|r| matches!(r.outcome, NetOutcome::Ok { dedup: true, .. }))
            .count() as u64
    }

    /// End-to-end ack latencies (arrival → ack), sorted ascending.
    pub fn ack_latencies(&self) -> Vec<u64> {
        let mut v: Vec<u64> = self
            .records
            .iter()
            .filter_map(|r| match &r.outcome {
                NetOutcome::Ok { acked_at, .. } => Some(acked_at.saturating_sub(r.arrival)),
                _ => None,
            })
            .collect();
        v.sort_unstable();
        v
    }

    /// The `q`-per-mille ack-latency percentile (500, 990, 999), or 0
    /// when nothing was acked.
    pub fn latency_permille(&self, q: u64) -> u64 {
        let v = self.ack_latencies();
        if v.is_empty() {
            return 0;
        }
        let idx = ((v.len() as u64 - 1) * q / 1000) as usize;
        v[idx.min(v.len() - 1)]
    }

    /// Total committed executions across nodes.
    pub fn executed_total(&self) -> u64 {
        self.nodes.iter().map(|n| n.executed).sum()
    }

    /// Total crashes suffered.
    pub fn crashes(&self) -> u64 {
        self.nodes.iter().map(|n| n.crashes).sum()
    }

    /// Exports `qoa_net_*` / `qoa_cluster_*` counters and per-fault-kind
    /// ack-latency histograms into a metrics registry.
    pub fn export(&self, reg: &mut Registry) {
        for (fate, n) in [
            ("sent", self.net.sent),
            ("delivered", self.net.delivered),
            ("dropped", self.net.dropped),
            ("duplicated", self.net.duplicated),
            ("reordered", self.net.reordered),
            ("delayed", self.net.delayed),
            ("partition-blocked", self.net.partition_blocked),
        ] {
            let id = reg.labeled_counter(
                "qoa_net_msgs_total",
                "Simulated network messages by fate",
                "fate",
                fate,
            );
            reg.add(id, n);
        }
        for (name, help, n) in [
            ("qoa_net_retries_total", "Client retransmissions", self.client.retries),
            ("qoa_net_hedges_total", "Hedged requests", self.client.hedges),
            ("qoa_net_timeouts_total", "Client attempt timeouts", self.client.timeouts),
            ("qoa_net_late_acks_total", "Responses after first ack", self.client.late_acks),
            ("qoa_net_cancels_total", "Cancels sent after first ack", self.client.cancels),
            (
                "qoa_net_dedup_hits_total",
                "Requests answered from a dedup window",
                self.nodes.iter().map(|n| n.dedup_hits).sum(),
            ),
            (
                "qoa_net_inflight_dups_total",
                "Duplicate requests absorbed in flight",
                self.nodes.iter().map(|n| n.inflight_dups).sum(),
            ),
            ("qoa_net_crashes_total", "Node crashes", self.crashes()),
            (
                "qoa_net_duplicate_executions_total",
                "Per-node executions committed twice for one key (must be 0)",
                self.duplicate_executions,
            ),
            (
                "qoa_net_cross_node_executions_total",
                "Keys executed on more than one node (hedge/failover)",
                self.cross_node_executions,
            ),
            ("qoa_cluster_executions_total", "Committed executions", self.executed_total()),
        ] {
            let id = reg.counter(name, help);
            reg.add(id, n);
        }
        for label in
            ["ok", "shed-admission", "shed-queue", "shed-breaker", "shed-deadline", "failed"]
        {
            let id = reg.labeled_counter(
                "qoa_cluster_requests_total",
                "Cluster requests by final outcome",
                "outcome",
                label,
            );
            reg.add(id, self.count(label));
        }
        for (state, n) in [
            ("open", self.breaker.0),
            ("half-open", self.breaker.1),
            ("closed", self.breaker.2),
        ] {
            let id = reg.labeled_counter(
                "qoa_net_breaker_transitions_total",
                "Per-node client breaker transitions",
                "to",
                state,
            );
            reg.add(id, n);
        }
        // The registry has no labeled histograms; per-fault-kind latency
        // distributions get one histogram series each, plus "clean" for
        // requests no fault touched.
        let clean = reg.histogram(
            "qoa_net_ack_latency_vcycles_clean",
            "Ack latency of requests untouched by faults",
        );
        let mut kind_hists = Vec::new();
        for kind in NetFaultKind::ALL {
            let name = format!("qoa_net_ack_latency_vcycles_{}", kind.name());
            let help = format!("Ack latency of requests touched by a {} fault", kind.name());
            kind_hists.push(reg.histogram(&name, &help));
        }
        for rec in &self.records {
            let NetOutcome::Ok { acked_at, .. } = rec.outcome else { continue };
            let lat = acked_at.saturating_sub(rec.arrival);
            if rec.fault_mask == 0 {
                reg.observe(clean, lat);
            }
            for (i, kind) in NetFaultKind::ALL.iter().enumerate() {
                if rec.fault_mask & kind.bit() != 0 {
                    reg.observe(kind_hists[i], lat);
                }
            }
        }
    }

    /// Human-readable run summary.
    pub fn render(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!(
            "cluster: {} requests over {} nodes: ok {} (dedup {}) | shed {} | failed {}\n",
            self.records.len(),
            self.nodes.len(),
            self.acked_ok(),
            self.dedup_acks(),
            self.shed_total(),
            self.failed(),
        ));
        s.push_str(&format!(
            "net: {} sent / {} delivered | dropped {} dup {} reorder {} delay {} partition {}\n",
            self.net.sent,
            self.net.delivered,
            self.net.dropped,
            self.net.duplicated,
            self.net.reordered,
            self.net.delayed,
            self.net.partition_blocked,
        ));
        s.push_str(&format!(
            "client: {} retries, {} hedges, {} timeouts, {} late acks, {} cancels\n",
            self.client.retries,
            self.client.hedges,
            self.client.timeouts,
            self.client.late_acks,
            self.client.cancels,
        ));
        s.push_str(&format!(
            "nodes: {} executions ({} dedup hits, {} in-flight dups), {} crashes; \
             duplicate-executions {} cross-node {}\n",
            self.executed_total(),
            self.nodes.iter().map(|n| n.dedup_hits).sum::<u64>(),
            self.nodes.iter().map(|n| n.inflight_dups).sum::<u64>(),
            self.crashes(),
            self.duplicate_executions,
            self.cross_node_executions,
        ));
        s.push_str(&format!(
            "ack latency vcycles: p50 {} p99 {} p999 {} max {}\n",
            self.latency_permille(500),
            self.latency_permille(990),
            self.latency_permille(999),
            self.ack_latencies().last().copied().unwrap_or(0),
        ));
        s.push_str(&format!(
            "breakers: open {} half {} closed {}\n",
            self.breaker.0, self.breaker.1, self.breaker.2
        ));
        s.push_str(&format!("wall: {:.1} ms\n", self.wall.as_secs_f64() * 1e3));
        s
    }
}

// ---- the cluster journal ----------------------------------------------------

/// Renders one cluster journal row. Keys are in a fixed order; no wall
/// times, so lines are byte-identical across hosts and `--jobs`.
pub fn cluster_journal_line(rec: &ClusterRecord) -> String {
    let faults = {
        let kinds = rec.fault_kinds();
        if kinds.is_empty() {
            "none".to_string()
        } else {
            kinds.iter().map(|k| k.name()).collect::<Vec<_>>().join("+")
        }
    };
    let head = format!(
        "{{\"id\":{},\"tenant\":{},\"workload\":{},\"arrival\":{},\
         \"attempts\":{},\"hedges\":{},\"faults\":\"{}\"",
        rec.id,
        json_str(&rec.tenant),
        json_str(&rec.workload),
        rec.arrival,
        rec.attempts,
        rec.hedges,
        faults,
    );
    match &rec.outcome {
        NetOutcome::Ok { acked_at, cost, steps, result, out_hash, tier, dedup, node } => {
            let result = opt_str(result);
            format!(
                "{head},\"outcome\":\"ok\",\"node\":{node},\"tier\":\"{}\",\"acked\":{acked_at},\
                 \"cost\":{cost},\"steps\":{steps},\"result\":{result},\"hash\":{out_hash},\
                 \"dedup\":{}}}",
                tier.name(),
                u8::from(*dedup),
            )
        }
        NetOutcome::Shed { cause, node } => {
            format!("{head},\"outcome\":\"{}\",\"node\":{node}}}", cause.name())
        }
        NetOutcome::Failed { kind, message } => {
            format!(
                "{head},\"outcome\":\"failed\",\"kind\":{},\"error\":{}}}",
                json_str(kind),
                json_str(message)
            )
        }
    }
}

/// Renders the full deterministic cluster journal: a header line
/// describing the run, then one row per request in id order.
pub fn render_cluster_journal(
    cfg: &ServeConfig,
    net_cfg: &NetConfig,
    plan: &NetFaultPlan,
    report: &ClusterReport,
) -> String {
    let mut s = format!(
        "{{\"v\":1,\"kind\":\"qoa-cluster-journal\",\"nodes\":{},\"seed\":{},\
         \"net_seed\":{},\"plan\":\"{}\",\"per_mille\":{},\"requests\":{}}}\n",
        net_cfg.nodes,
        cfg.seed,
        plan.seed,
        plan.kinds_label(),
        plan.per_mille,
        report.records.len(),
    );
    for rec in &report.records {
        s.push_str(&cluster_journal_line(rec));
        s.push('\n');
    }
    s
}

/// Converts an acked cluster record into the single-node [`Outcome`]
/// shape, for code that wants to compare the two journals.
pub fn as_serve_outcome(rec: &ClusterRecord) -> Option<Outcome> {
    match &rec.outcome {
        NetOutcome::Ok { acked_at, cost, steps, result, out_hash, .. } => Some(Outcome::Ok {
            start: acked_at.saturating_sub(*cost),
            done: *acked_at,
            cost: *cost,
            steps: *steps,
            result: result.clone(),
            out_hash: *out_hash,
            faults: 0,
            restores: 0,
        }),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_plans_are_reproducible_and_gated_by_kinds() {
        let a = NetFaultPlan::seeded(42, 100_000, 3, 80, &NetFaultKind::ALL);
        let b = NetFaultPlan::seeded(42, 100_000, 3, 80, &NetFaultKind::ALL);
        assert_eq!(a, b);
        assert!(!a.crashes.is_empty(), "crash kind requested");
        let no_crash = NetFaultPlan::seeded(42, 100_000, 3, 80, &[NetFaultKind::Drop]);
        assert!(no_crash.crashes.is_empty());
        assert!(no_crash.partitions.is_empty());
        assert_eq!(no_crash.msg_kinds, vec![NetFaultKind::Drop]);
        let c = NetFaultPlan::seeded(43, 100_000, 3, 80, &NetFaultKind::ALL);
        assert_ne!(a, c, "different seeds should (almost surely) differ");
    }

    #[test]
    fn message_fates_are_pure_functions_of_seq() {
        let plan = NetFaultPlan::seeded(7, 10_000, 3, 500, &NetFaultKind::ALL);
        for seq in 0..64 {
            assert_eq!(plan.message_fate(seq), plan.message_fate(seq));
        }
        let fates: Vec<MsgFate> = (0..256).map(|s| plan.message_fate(s)).collect();
        assert!(
            fates.iter().any(|f| matches!(f, MsgFate::Fault(_))),
            "at 50% per-message probability some of 256 messages must fault"
        );
        assert!(fates.iter().any(|f| matches!(f, MsgFate::Clean)));
    }

    #[test]
    fn deliveries_run_in_time_then_entry_order_before_same_instant_events() {
        let mut net = VirtualNet::new(NetFaultPlan::none(), 10);
        let mut queue = EventQueue::default();
        queue.push(10, Event::NodeStart { node: 0 });
        for (now, key) in [(5, 3), (0, 1), (0, 2)] {
            for d in net.send(now, 0, 1, Msg::Cancel { key }).1.into_iter().flatten() {
                queue.push(d.at, Event::Deliver(d));
            }
        }
        let mut order = Vec::new();
        while let Some((t, ev)) = queue.pop() {
            order.push(match ev {
                Event::Deliver(Delivery { payload: Msg::Cancel { key }, .. }) => (t, key),
                _ => (t, 0),
            });
        }
        assert_eq!(order, vec![(10, 1), (10, 2), (10, 0), (15, 3)]);
        assert_eq!(net.stats.sent, 3);
    }

    #[test]
    fn partition_blocks_both_directions_inside_the_window() {
        let plan = NetFaultPlan {
            seed: 0,
            per_mille: 0,
            msg_kinds: Vec::new(),
            crashes: Vec::new(),
            partitions: vec![PartitionWindow { a: 0, b: 3, start: 100, end: 200 }],
        };
        assert!(plan.blocked(0, 3, 100));
        assert!(plan.blocked(3, 0, 150));
        assert!(!plan.blocked(0, 3, 200), "end is exclusive");
        assert!(!plan.blocked(1, 3, 150), "other links unaffected");
        let mut net = VirtualNet::new(plan, 10);
        let delivered = |net: &mut VirtualNet, now, src, dst| {
            net.send(now, src, dst, 9).1.iter().flatten().count()
        };
        assert_eq!(delivered(&mut net, 150, 0, 3), 0, "blocked message never delivered");
        assert_eq!(delivered(&mut net, 150, 3, 0), 0, "blocked the other way too");
        assert_eq!(net.stats.partition_blocked, 2);
        assert_eq!(delivered(&mut net, 200, 0, 3), 1, "delivered after the window");
    }

    #[test]
    fn dedup_window_remembers_then_evicts() {
        let mut core = NodeCore {
            buckets: Vec::new(),
            dedup: BTreeMap::new(),
            dedup_order: VecDeque::new(),
            executed: 0,
        };
        let reply = Reply::Shed { cause: ShedCause::Queue };
        for key in 0..5 {
            core.remember(key, reply.clone(), 3);
        }
        assert_eq!(core.dedup.len(), 3);
        assert!(!core.dedup.contains_key(&0), "oldest evicted");
        assert!(core.dedup.contains_key(&4));
    }
}
