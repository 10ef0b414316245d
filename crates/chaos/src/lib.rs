//! Deterministic fault injection for the QOA stack.
//!
//! A [`FaultPlan`] is a seeded schedule of injection points — each one a
//! [`FaultKind`] armed at a specific [`FaultClock`] tick. The clock counts
//! *simulated* work (executed guest bytecodes), never wall-clock time, so a
//! plan replayed against the same program injects at exactly the same
//! machine state every time. The VM and JIT layers poll [`ChaosState`] at
//! their natural fault sites (step boundary, allocation, trace compile,
//! trace execution); the experiment layer recovers by restoring a
//! [`Snapshot`] taken before the injection and disarming the consumed
//! point, which makes a recovered run byte-identical to a fault-free one
//! by construction.
//!
//! This crate is deliberately dependency-free plain data: the VM embeds a
//! `ChaosState` (or `None` when chaos is off), and everything here is
//! `Clone` so fault bookkeeping snapshots and restores together with the
//! machine it instruments. Being the leaf every layer already imports, it
//! also holds the stack's one seedable generator ([`SplitMix64`]) and one
//! identity hash ([`fnv1a`]).

/// The kinds of fault the engine can inject.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FaultKind {
    /// Allocation failure in the heap backing store (simulated OOM after
    /// one emergency collection).
    AllocFault,
    /// Fuel (step budget) trips at a step boundary.
    FuelTrip,
    /// Deadline trips at a step boundary.
    DeadlineTrip,
    /// A corrupted code object is presented at load time; the verifier is
    /// the recovery path.
    BytecodeCorrupt,
    /// Trace compilation fails after recording (transient JIT backend
    /// failure).
    JitCompileFault,
    /// A compiled trace aborts mid-execution and must deoptimize.
    TraceAbort,
}

impl FaultKind {
    /// Every kind, in a stable order.
    pub const ALL: [FaultKind; 6] = [
        FaultKind::AllocFault,
        FaultKind::FuelTrip,
        FaultKind::DeadlineTrip,
        FaultKind::BytecodeCorrupt,
        FaultKind::JitCompileFault,
        FaultKind::TraceAbort,
    ];

    /// Kinds that can fire under an interpreter-only runtime (no JIT).
    pub const INTERP: [FaultKind; 4] = [
        FaultKind::AllocFault,
        FaultKind::FuelTrip,
        FaultKind::DeadlineTrip,
        FaultKind::BytecodeCorrupt,
    ];

    /// Stable label used for counters, journal records and reports.
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::AllocFault => "alloc",
            FaultKind::FuelTrip => "fuel",
            FaultKind::DeadlineTrip => "deadline",
            FaultKind::BytecodeCorrupt => "bytecode-corrupt",
            FaultKind::JitCompileFault => "jit-compile",
            FaultKind::TraceAbort => "trace-abort",
        }
    }

    /// True for kinds injected inside the VM/JIT step loop (as opposed to
    /// load-time corruption handled by the experiment layer).
    pub fn is_runtime(self) -> bool {
        !matches!(self, FaultKind::BytecodeCorrupt)
    }
}

impl std::fmt::Display for FaultKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One scheduled injection: fire `kind` once the clock reaches `tick`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPoint {
    /// Simulated-work tick (executed guest bytecodes) at which the fault
    /// arms. The fault fires at the *first poll of the matching site* at
    /// or after this tick, so e.g. an [`FaultKind::AllocFault`] armed at
    /// tick 100 fires at the first allocation from step 100 onward.
    pub tick: u64,
    /// What to inject.
    pub kind: FaultKind,
}

/// A seeded, reproducible schedule of fault points.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultPlan {
    /// Seed the plan was derived from (0 for hand-built plans).
    pub seed: u64,
    /// Injection points, sorted by tick.
    pub points: Vec<FaultPoint>,
}

impl FaultPlan {
    /// A plan that injects nothing. Arming the engine with it must leave
    /// the simulation bit-identical to running without chaos at all.
    pub fn empty() -> FaultPlan {
        FaultPlan::default()
    }

    /// A single hand-placed fault.
    pub fn single(tick: u64, kind: FaultKind) -> FaultPlan {
        FaultPlan { seed: 0, points: vec![FaultPoint { tick, kind }] }
    }

    /// Derives a plan from `seed`: up to `max_points` faults drawn from
    /// `kinds`, at ticks uniform in `[1, horizon]`. The same
    /// (seed, horizon, kinds) always yields the same plan.
    pub fn seeded(seed: u64, horizon: u64, max_points: usize, kinds: &[FaultKind]) -> FaultPlan {
        let mut points: Vec<FaultPoint> = seeded_schedule(seed, horizon, max_points, kinds.len())
            .into_iter()
            .map(|(tick, idx)| FaultPoint { tick, kind: kinds[idx] })
            .collect();
        points.sort_by_key(|p| (p.tick, p.kind));
        FaultPlan { seed, points }
    }

    /// True when no faults are scheduled.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }
}

/// The generic seeded schedule every fault-plan family derives from: up
/// to `max_points` draws of `(tick, kind_index)` with ticks uniform in
/// `[1, horizon]` and kind indices uniform in `[0, n_kinds)`, in draw
/// order (callers sort by whatever key their domain wants). A pure
/// function of the arguments — the VM chaos plans ([`FaultPlan::seeded`])
/// and the simulated-network fault plans (`qoa_serve::net`) share this
/// one derivation, so "seeded plan" means exactly one thing in the
/// stack.
pub fn seeded_schedule(
    seed: u64,
    horizon: u64,
    max_points: usize,
    n_kinds: usize,
) -> Vec<(u64, usize)> {
    let mut rng = SplitMix64::new(seed ^ 0x9e37_79b9_7f4a_7c15);
    let horizon = horizon.max(1);
    let mut points = Vec::new();
    if n_kinds > 0 && max_points > 0 {
        let n = 1 + (rng.next_u64() as usize % max_points);
        for _ in 0..n {
            let tick = 1 + rng.next_u64() % horizon;
            let idx = rng.next_u64() as usize % n_kinds;
            points.push((tick, idx));
        }
    }
    points
}

/// Deterministic clock: ticks once per executed guest bytecode, mirroring
/// the VM's step counter. No wall-clock source feeds it, which is the
/// whole determinism argument — see DESIGN.md §11.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultClock {
    ticks: u64,
}

impl FaultClock {
    /// A clock at tick zero.
    pub fn new() -> FaultClock {
        FaultClock::default()
    }

    /// Advances one simulated step.
    pub fn advance(&mut self) {
        self.ticks += 1;
    }

    /// Current tick.
    pub fn now(&self) -> u64 {
        self.ticks
    }
}

/// Record of one injected fault, reported back to the experiment layer so
/// it can disarm the consumed point after restoring a snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultRecord {
    /// Index of the consumed point within the plan.
    pub index: usize,
    /// What fired.
    pub kind: FaultKind,
    /// Clock tick at which it fired.
    pub tick: u64,
}

/// Live injection state embedded in an instrumented machine.
///
/// Everything here is plain data and `Clone`: snapshotting the machine
/// snapshots the chaos bookkeeping with it, so a restore rewinds fault
/// state and machine state together.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChaosState {
    plan: FaultPlan,
    clock: FaultClock,
    /// `consumed[i]` — plan point `i` already fired (or was disarmed).
    consumed: Vec<bool>,
    /// The most recent injection, taken by the experiment layer to decide
    /// whether an error was injected or organic.
    last_injected: Option<FaultRecord>,
    /// When set, JIT faults degrade in place (deopt + continue) instead of
    /// surfacing an error for checkpoint/restore recovery.
    degrade_jit: bool,
    /// Count of faults recovered *inside* the machine (degrade mode).
    in_vm_recoveries: u64,
}

impl ChaosState {
    /// Arms a plan. The clock starts at zero.
    pub fn new(plan: FaultPlan) -> ChaosState {
        let consumed = vec![false; plan.points.len()];
        ChaosState {
            plan,
            clock: FaultClock::new(),
            consumed,
            last_injected: None,
            degrade_jit: false,
            in_vm_recoveries: 0,
        }
    }

    /// Switches JIT faults to degrade-in-place mode.
    pub fn with_degrade_jit(mut self) -> ChaosState {
        self.degrade_jit = true;
        self
    }

    /// Whether JIT faults degrade in place rather than surfacing.
    pub fn degrade_jit(&self) -> bool {
        self.degrade_jit
    }

    /// The armed plan.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Advances the clock one step. Called once per executed bytecode.
    pub fn on_step(&mut self) {
        self.clock.advance();
    }

    /// Current clock tick.
    pub fn now(&self) -> u64 {
        self.clock.now()
    }

    /// Fires the first unconsumed point of `kind` whose tick has been
    /// reached. Consumes the point and remembers it as the last injection.
    pub fn poll(&mut self, kind: FaultKind) -> Option<FaultRecord> {
        let now = self.clock.now();
        for (i, p) in self.plan.points.iter().enumerate() {
            if !self.consumed[i] && p.kind == kind && p.tick <= now {
                self.consumed[i] = true;
                let rec = FaultRecord { index: i, kind, tick: now };
                self.last_injected = Some(rec);
                return Some(rec);
            }
        }
        None
    }

    /// Fires any unconsumed point of `kind` regardless of tick — used for
    /// load-time faults ([`FaultKind::BytecodeCorrupt`]) that precede the
    /// first step.
    pub fn poll_at_load(&mut self, kind: FaultKind) -> Option<FaultRecord> {
        for (i, p) in self.plan.points.iter().enumerate() {
            if !self.consumed[i] && p.kind == kind {
                self.consumed[i] = true;
                let rec = FaultRecord { index: i, kind, tick: self.clock.now() };
                self.last_injected = Some(rec);
                return Some(rec);
            }
        }
        None
    }

    /// Marks a point consumed without firing it. Called on a *restored*
    /// machine so the point that triggered the restore cannot re-fire.
    pub fn disarm(&mut self, index: usize) {
        if let Some(slot) = self.consumed.get_mut(index) {
            *slot = true;
        }
    }

    /// Takes the record of the last injection, if any.
    pub fn take_last_injected(&mut self) -> Option<FaultRecord> {
        self.last_injected.take()
    }

    /// Notes a fault recovered in place (degrade mode).
    pub fn note_in_vm_recovery(&mut self) {
        self.in_vm_recoveries += 1;
        self.last_injected = None;
    }

    /// Faults recovered in place so far.
    pub fn in_vm_recoveries(&self) -> u64 {
        self.in_vm_recoveries
    }

    /// True once every scheduled point has fired or been disarmed.
    pub fn exhausted(&self) -> bool {
        self.consumed.iter().all(|&c| c)
    }
}

/// Version tag of the in-memory snapshot format. Bump when the captured
/// state gains fields that an older restore path would misinterpret.
pub const SNAPSHOT_VERSION: u32 = 1;

/// A versioned mid-run snapshot of an instrumented machine.
///
/// The machine type `M` carries interpreter, heap, *and* attribution state
/// (the op sink is part of the machine), so restoring rewinds the entire
/// simulation — including any micro-ops a failed recovery attempt emitted —
/// to the checkpoint. Deterministic re-execution from there reproduces the
/// fault-free trace byte for byte. The chaos runner captures its machine
/// with an empty stand-in sink and rewinds the live sink itself, so a
/// checkpoint never copies the trace.
#[derive(Debug, Clone)]
pub struct Snapshot<M> {
    version: u32,
    steps: u64,
    state: M,
}

impl<M: Clone> Snapshot<M> {
    /// Captures `machine` at `steps` executed bytecodes.
    pub fn capture(steps: u64, machine: &M) -> Snapshot<M> {
        Snapshot { version: SNAPSHOT_VERSION, steps, state: machine.clone() }
    }

    /// Snapshot format version.
    pub fn version(&self) -> u32 {
        self.version
    }

    /// Executed-bytecode count at capture time.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Restores the captured machine. `None` when the snapshot's format
    /// version is not the one this code writes (cannot happen in-process;
    /// the check guards future serialized snapshots).
    pub fn restore(&self) -> Option<M> {
        (self.version == SNAPSHOT_VERSION).then(|| self.state.clone())
    }
}

/// SplitMix64: the stack's one seedable generator. Fault plans, retry
/// jitter, per-cell seeds, fuzz programs, arrivals and network fates all
/// draw from it, so a seed means the same thing in every layer. Seed
/// salts stay at the call sites; `tests/pinned_streams.rs` pins the
/// stream.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// A generator seeded with `seed`.
    #[inline]
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64 { state: seed }
    }

    /// The next raw 64-bit value.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform f64 in `[0, 1)`.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A value in `[0, n)`; `n` must be nonzero.
    #[inline]
    pub fn below(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0);
        self.next_u64() % n
    }

    /// True with probability `pct`/100.
    #[inline]
    pub fn chance(&mut self, pct: u64) -> bool {
        self.below(100) < pct
    }

    /// A uniformly chosen element of a nonempty slice.
    #[inline]
    pub fn pick<'a, T>(&mut self, xs: &'a [T]) -> &'a T {
        &xs[self.below(xs.len() as u64) as usize]
    }
}

/// FNV-1a 64 over `bytes`: the stack's one string and identity hash.
/// It takes an iterator so callers can hash a sequence of pieces, with
/// separators, without joining them first.
#[inline]
pub fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes
        .into_iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_plans_are_reproducible() {
        let a = FaultPlan::seeded(42, 10_000, 4, &FaultKind::ALL);
        let b = FaultPlan::seeded(42, 10_000, 4, &FaultKind::ALL);
        assert_eq!(a, b);
        assert!(!a.is_empty());
        assert!(a.points.iter().all(|p| p.tick >= 1 && p.tick <= 10_000));
        let c = FaultPlan::seeded(43, 10_000, 4, &FaultKind::ALL);
        assert_ne!(a, c, "different seeds should (almost surely) differ");
    }

    #[test]
    fn poll_fires_once_at_or_after_tick() {
        let mut st = ChaosState::new(FaultPlan::single(3, FaultKind::FuelTrip));
        assert_eq!(st.poll(FaultKind::FuelTrip), None, "tick 0 < 3");
        for _ in 0..3 {
            st.on_step();
        }
        assert_eq!(st.poll(FaultKind::DeadlineTrip), None, "kind mismatch");
        let rec = st.poll(FaultKind::FuelTrip).expect("fires at tick 3");
        assert_eq!(rec, FaultRecord { index: 0, kind: FaultKind::FuelTrip, tick: 3 });
        assert_eq!(st.poll(FaultKind::FuelTrip), None, "consumed");
        assert!(st.exhausted());
    }

    #[test]
    fn disarm_prevents_refire_after_restore() {
        let plan = FaultPlan::single(1, FaultKind::AllocFault);
        let mut st = ChaosState::new(plan);
        let pristine = st.clone(); // stands in for the snapshot
        st.on_step();
        let rec = st.poll(FaultKind::AllocFault).expect("fires");
        // Restore: rewind to pristine state, then disarm the consumed point.
        let mut restored = pristine;
        restored.disarm(rec.index);
        restored.on_step();
        assert_eq!(restored.poll(FaultKind::AllocFault), None, "must not re-fire");
    }

    #[test]
    fn load_faults_fire_before_any_step() {
        let mut st = ChaosState::new(FaultPlan::single(500, FaultKind::BytecodeCorrupt));
        assert!(st.poll_at_load(FaultKind::BytecodeCorrupt).is_some());
        assert!(st.poll_at_load(FaultKind::BytecodeCorrupt).is_none());
    }

    #[test]
    fn snapshot_round_trips_state() {
        let st = ChaosState::new(FaultPlan::seeded(7, 100, 3, &FaultKind::INTERP));
        let snap = Snapshot::capture(12, &st);
        assert_eq!(snap.version(), SNAPSHOT_VERSION);
        assert_eq!(snap.steps(), 12);
        assert_eq!(snap.restore(), Some(st));
    }
}
