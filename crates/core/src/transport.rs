//! The cluster transport contract: virtual-time message passing plus
//! the integer retry/backoff discipline the cluster client runs on.
//!
//! The serving layer (PR 6) proved that a *virtual-time* simulation —
//! every admission, queueing, and journaling decision driven by a
//! simulated clock, wall time reporting-only — is what makes a whole
//! serving run byte-deterministic across hosts and `--jobs`. This
//! module extends that contract to a *network*: a [`Transport`] carries
//! envelopes between numbered endpoints with delivery times chosen
//! deterministically (typically by a seeded fault plan), and a
//! [`VirtualRetryPolicy`] gives clients capped exponential backoff with
//! seeded jitter as a pure function of `(seed, key, attempt)` — the
//! same discipline as the executor's wall-clock
//! [`RetryPolicy`](crate::executor::RetryPolicy), but in integer
//! virtual cycles so schedules are exactly reproducible and diffable.
//!
//! The concrete simulated network (fault injection, partitions, node
//! crashes) lives in `qoa_serve::net`; this module is deliberately thin
//! so future transports (real sockets, shared-memory rings) can slot in
//! behind the same trait without dragging serve-layer types into core.

use qoa_chaos::{fnv1a, SplitMix64};

/// A numbered endpoint on a transport. Server nodes are `0..n`; by
/// convention the driving client takes the next id after the last node.
pub type NodeId = usize;

/// One message queued on or delivered by a transport.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Delivery<P> {
    /// Virtual time at which the message arrives at `dst`.
    pub at: u64,
    /// The transport-assigned send sequence number (unique per send;
    /// duplicated deliveries share it).
    pub seq: u64,
    /// Sending endpoint.
    pub src: NodeId,
    /// Receiving endpoint.
    pub dst: NodeId,
    /// The payload.
    pub payload: P,
}

/// A virtual-time message transport.
///
/// Sends are non-blocking and may be dropped, duplicated, delayed, or
/// reordered by the implementation — the only contract is determinism:
/// for a fixed construction seed and send sequence, delivery times and
/// fates are identical on every host. Time never advances inside the
/// transport; the caller owns the clock, asks [`next_wake`] where the
/// earliest pending delivery sits, and drains with [`poll`].
///
/// [`next_wake`]: Transport::next_wake
/// [`poll`]: Transport::poll
pub trait Transport {
    /// Message payload type.
    type Payload;

    /// Queues a message at virtual time `now` and returns its send
    /// sequence number. The implementation decides its fate (delivery
    /// time, loss, duplication) deterministically.
    fn send(&mut self, now: u64, src: NodeId, dst: NodeId, payload: Self::Payload) -> u64;

    /// Virtual time of the earliest pending delivery, if any.
    fn next_wake(&self) -> Option<u64>;

    /// Pops the earliest pending delivery with `at <= now`, in
    /// deterministic `(at, seq)` order. Returns `None` when nothing is
    /// due yet.
    fn poll(&mut self, now: u64) -> Option<Delivery<Self::Payload>>;
}

// ---- seeded virtual-time retry ---------------------------------------------

/// Capped exponential backoff with seeded jitter over **virtual
/// cycles** — the integer twin of the executor's wall-clock
/// [`RetryPolicy`](crate::executor::RetryPolicy). Every delay is a pure
/// function of `(seed, key, attempt)`: no floats, no clocks, no state,
/// so a rerun of the same seeded cluster produces the same retry
/// schedule down to the cycle regardless of host or thread count.
#[derive(Debug, Clone)]
pub struct VirtualRetryPolicy {
    /// Total attempts per request (1 = no retries).
    pub max_attempts: u32,
    /// Backoff after the first failed attempt, in virtual cycles.
    pub base: u64,
    /// Backoff ceiling, in virtual cycles.
    pub cap: u64,
    /// Jitter half-width in permille of the computed delay: the jittered
    /// delay is uniform in `[d·(1000-j)/1000, d·(1000+j)/1000]`.
    pub jitter_permille: u32,
}

impl Default for VirtualRetryPolicy {
    fn default() -> Self {
        VirtualRetryPolicy {
            max_attempts: 10,
            base: 2_000,
            cap: 64_000,
            jitter_permille: 250,
        }
    }
}

impl VirtualRetryPolicy {
    /// A policy that never retries.
    pub fn none() -> VirtualRetryPolicy {
        VirtualRetryPolicy { max_attempts: 1, ..VirtualRetryPolicy::default() }
    }

    /// The delay slept after failed attempt `attempt` (1-based) of the
    /// request identified by `key`, in virtual cycles.
    pub fn backoff(&self, seed: u64, key: u64, attempt: u32) -> u64 {
        let exp = attempt.saturating_sub(1).min(20);
        let raw = self.base.saturating_mul(1u64 << exp).min(self.cap.max(1));
        if self.jitter_permille == 0 {
            return raw.max(1);
        }
        let j = u64::from(self.jitter_permille.min(1000));
        let mut rng =
            SplitMix64::new(seed ^ fnv1a(key.to_le_bytes()) ^ (u64::from(attempt) << 32));
        let factor = 1000 - j + rng.next_u64() % (2 * j + 1);
        (raw.saturating_mul(factor) / 1000).max(1)
    }

    /// The full deterministic schedule for one request: the delay after
    /// each failed attempt `1..max_attempts`.
    pub fn schedule(&self, seed: u64, key: u64) -> Vec<u64> {
        (1..self.max_attempts).map(|a| self.backoff(seed, key, a)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_pure_and_jitter_bounded() {
        let p = VirtualRetryPolicy {
            max_attempts: 8,
            base: 1_000,
            cap: 20_000,
            jitter_permille: 300,
        };
        let a = p.schedule(42, 7);
        let b = p.schedule(42, 7);
        assert_eq!(a, b, "pure function of (seed, key, attempt)");
        assert_ne!(a, p.schedule(42, 8), "different keys decorrelate");
        for (i, d) in a.iter().enumerate() {
            let raw = (1_000u64 << i).min(20_000);
            assert!(*d >= raw * 700 / 1000 && *d <= raw * 1300 / 1000, "attempt {i}: {d}");
        }
    }

    #[test]
    fn zero_jitter_is_exact_and_capped() {
        let p = VirtualRetryPolicy {
            max_attempts: 6,
            base: 1_000,
            cap: 3_000,
            jitter_permille: 0,
        };
        assert_eq!(p.schedule(1, 1), vec![1_000, 2_000, 3_000, 3_000, 3_000]);
    }
}
