//! The integer retry/backoff discipline the cluster client runs on.
//!
//! [`VirtualRetryPolicy`] gives clients capped exponential backoff with
//! seeded jitter as a pure function of `(seed, key, attempt)` — the same
//! discipline as the executor's wall-clock
//! [`RetryPolicy`](crate::executor::RetryPolicy), but in integer virtual
//! cycles so schedules are exactly reproducible and diffable. The
//! simulated network it drives lives in `qoa_serve::net`.

use qoa_chaos::{fnv1a, SplitMix64};

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
