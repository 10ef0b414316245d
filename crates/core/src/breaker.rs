//! The circuit-breaker state machine and the shared breaker bank.
//!
//! One breaker implementation serves both layers that shed on it: the
//! serving daemon keeps one per tenant and advances it across admission
//! windows; the cluster client keeps one per server node and advances it
//! on acks and timeouts. [`BreakerBank`] is their shared "advance the
//! machine, count the transition" loop: an indexed set of
//! [`BreakerCore`]s with the transition counters every report wants.

/// Circuit-breaker tuning for one protected entity.
#[derive(Debug, Clone)]
pub struct BreakerOptions {
    /// Consecutive committed failures that open the breaker.
    pub failure_threshold: u32,
    /// Cells shed while open before the breaker half-opens and probes.
    pub cooldown_sheds: u32,
}

impl Default for BreakerOptions {
    fn default() -> Self {
        BreakerOptions { failure_threshold: 5, cooldown_sheds: 8 }
    }
}

/// The classic three-state breaker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: cells run, consecutive failures are counted.
    Closed,
    /// Tripped: the entity's work is shed without running.
    Open,
    /// Cooled down: the next cell runs as a probe and decides.
    HalfOpen,
}

/// The breaker state machine itself, advanced strictly by committed
/// outcomes. Each `on_*` method returns the transition it caused, if
/// any.
#[derive(Debug, Clone)]
pub struct BreakerCore {
    state: BreakerState,
    consecutive_failures: u32,
    sheds_while_open: u32,
    opts: BreakerOptions,
}

impl BreakerCore {
    /// A closed breaker with the given tuning.
    pub fn new(opts: BreakerOptions) -> BreakerCore {
        BreakerCore {
            state: BreakerState::Closed,
            consecutive_failures: 0,
            sheds_while_open: 0,
            opts,
        }
    }

    /// The current state.
    pub fn state(&self) -> BreakerState {
        self.state
    }

    /// A committed success: closes a half-open breaker, resets the
    /// failure streak.
    pub fn on_success(&mut self) -> Option<BreakerState> {
        self.consecutive_failures = 0;
        if self.state == BreakerState::HalfOpen {
            self.state = BreakerState::Closed;
            return Some(self.state);
        }
        None
    }

    /// A committed failure: trips a closed breaker at the threshold and
    /// re-opens a half-open one immediately.
    pub fn on_failure(&mut self) -> Option<BreakerState> {
        match self.state {
            BreakerState::Closed => {
                self.consecutive_failures += 1;
                if self.consecutive_failures >= self.opts.failure_threshold {
                    self.state = BreakerState::Open;
                    self.sheds_while_open = 0;
                    return Some(self.state);
                }
                None
            }
            BreakerState::HalfOpen => {
                self.state = BreakerState::Open;
                self.sheds_while_open = 0;
                Some(self.state)
            }
            BreakerState::Open => None,
        }
    }

    /// A cell shed while open: after the cooldown, half-open for a probe.
    pub fn on_shed(&mut self) -> Option<BreakerState> {
        if self.state == BreakerState::Open {
            self.sheds_while_open += 1;
            if self.sheds_while_open >= self.opts.cooldown_sheds {
                self.state = BreakerState::HalfOpen;
                return Some(self.state);
            }
        }
        None
    }
}

/// An indexed set of breakers — one per tenant or node — with the three
/// transition counters every layer reports. The `on_*` methods advance
/// the indexed core, count the transition, and return it so callers can
/// drive side effects off the state change.
#[derive(Debug, Clone)]
pub struct BreakerBank {
    cores: Vec<BreakerCore>,
    /// Transitions into open.
    pub opened: u64,
    /// Transitions into half-open.
    pub half_opened: u64,
    /// Transitions into closed (successful probes).
    pub closed: u64,
}

impl BreakerBank {
    /// `n` closed breakers sharing one tuning.
    pub fn new(n: usize, opts: &BreakerOptions) -> BreakerBank {
        BreakerBank {
            cores: (0..n).map(|_| BreakerCore::new(opts.clone())).collect(),
            opened: 0,
            half_opened: 0,
            closed: 0,
        }
    }

    /// Number of breakers in the bank.
    pub fn len(&self) -> usize {
        self.cores.len()
    }

    /// True when the bank protects nothing.
    pub fn is_empty(&self) -> bool {
        self.cores.is_empty()
    }

    /// Current state of breaker `i`.
    pub fn state(&self, i: usize) -> BreakerState {
        self.cores[i].state()
    }

    /// True while breaker `i` admits traffic (closed or probing).
    pub fn healthy(&self, i: usize) -> bool {
        self.cores[i].state() != BreakerState::Open
    }

    fn note(&mut self, t: Option<BreakerState>) -> Option<BreakerState> {
        match t {
            Some(BreakerState::Open) => self.opened += 1,
            Some(BreakerState::HalfOpen) => self.half_opened += 1,
            Some(BreakerState::Closed) => self.closed += 1,
            None => {}
        }
        t
    }

    /// Committed success for entity `i`.
    pub fn on_success(&mut self, i: usize) -> Option<BreakerState> {
        let t = self.cores[i].on_success();
        self.note(t)
    }

    /// Committed failure for entity `i`.
    pub fn on_failure(&mut self, i: usize) -> Option<BreakerState> {
        let t = self.cores[i].on_failure();
        self.note(t)
    }

    /// A shed charged to entity `i`'s open breaker.
    pub fn on_shed(&mut self, i: usize) -> Option<BreakerState> {
        let t = self.cores[i].on_shed();
        self.note(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bank_counts_full_lifecycle() {
        let mut bank =
            BreakerBank::new(2, &BreakerOptions { failure_threshold: 2, cooldown_sheds: 1 });
        assert!(bank.healthy(0));
        assert_eq!(bank.on_failure(0), None);
        assert_eq!(bank.on_failure(0), Some(BreakerState::Open));
        assert!(!bank.healthy(0));
        assert!(bank.healthy(1), "sibling breaker unaffected");
        assert_eq!(bank.on_shed(0), Some(BreakerState::HalfOpen));
        assert_eq!(bank.on_success(0), Some(BreakerState::Closed));
        assert_eq!((bank.opened, bank.half_opened, bank.closed), (1, 1, 1));
    }

    #[test]
    fn failed_probe_reopens_and_counts() {
        let mut bank =
            BreakerBank::new(1, &BreakerOptions { failure_threshold: 1, cooldown_sheds: 1 });
        assert_eq!(bank.on_failure(0), Some(BreakerState::Open));
        assert_eq!(bank.on_shed(0), Some(BreakerState::HalfOpen));
        assert_eq!(bank.on_failure(0), Some(BreakerState::Open));
        assert_eq!(bank.opened, 2);
    }
}
