//! Per-layer accounting for one traced pass.
//!
//! Every call into a layer runs inside a host-wall span recorded through
//! [`qoa_obs::Observability::wall_span`]. Spans never nest, so each
//! span's duration is its layer's self time and the part of a pass that
//! no span covers is the unattributed remainder. Exact counts (bytecodes,
//! micro-ops, collections) are recorded at the same call sites.

use qoa_obs::{ObsConfig, Observability, SpanEvent};
use std::collections::BTreeMap;
use std::time::Duration;

/// Span capacity of one traced pass: the largest pass (fuzz-oracle)
/// records about 30 spans per generated program.
const SPAN_CAPACITY: usize = 1 << 16;

/// Spans, counts and timers of one traced pass.
#[derive(Debug)]
pub struct Ledger {
    obs: Observability,
    counts: BTreeMap<&'static str, u64>,
    timers: BTreeMap<&'static str, Duration>,
}

impl Default for Ledger {
    fn default() -> Self {
        Ledger {
            obs: Observability::new(ObsConfig { ring_capacity: SPAN_CAPACITY, ..ObsConfig::on() }),
            counts: BTreeMap::new(),
            timers: BTreeMap::new(),
        }
    }
}

impl Ledger {
    /// Runs `f`, one call into the layer `name`, inside a wall span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.obs.wall_span(name, f)
    }

    /// Adds `n` to the exact count `name`.
    pub fn count(&mut self, name: &'static str, n: u64) {
        *self.counts.entry(name).or_insert(0) += n;
    }

    /// Adds `d` to the timer `name`: an aggregate over several spans,
    /// reported beside them but not counted toward coverage.
    pub fn time(&mut self, name: &'static str, d: Duration) {
        *self.timers.entry(name).or_default() += d;
    }

    /// The exact counts.
    pub fn counts(&self) -> &BTreeMap<&'static str, u64> {
        &self.counts
    }

    /// Seconds per timer.
    pub fn timers(&self) -> BTreeMap<&'static str, f64> {
        self.timers.iter().map(|(&k, d)| (k, d.as_secs_f64())).collect()
    }

    /// The recorded spans, oldest first.
    ///
    /// # Panics
    ///
    /// When the span ring overflowed, which would silently shrink every
    /// layer's time.
    pub fn spans(&self) -> Vec<SpanEvent> {
        assert_eq!(self.obs.dropped(), 0, "span ring overflowed; raise SPAN_CAPACITY");
        self.obs.wall_spans()
    }

    /// Seconds of self time per layer.
    pub fn span_secs(&self) -> BTreeMap<String, f64> {
        let mut out = BTreeMap::new();
        for s in self.spans() {
            *out.entry(s.name.to_string()).or_insert(0.0) += s.dur as f64 / 1e9;
        }
        out
    }
}

/// Runs `f` in a span of `ledger` when there is one, or bare when not.
pub(crate) fn span_if<T>(
    ledger: Option<&mut Ledger>,
    name: &'static str,
    f: impl FnOnce() -> T,
) -> T {
    match ledger {
        Some(l) => l.span(name, f),
        None => f(),
    }
}
