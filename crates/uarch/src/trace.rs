//! Trace capture and replay.
//!
//! The paper's microarchitecture sweeps (Fig. 7–9) re-simulate the *same*
//! program execution under many hardware configurations. Because simulated
//! timing never feeds back into run-time behaviour (just as with Pin+ZSim),
//! the micro-op stream can be captured once per (benchmark, run-time) pair
//! and replayed through each configuration — the standard trace-driven
//! simulation methodology.
//!
//! # Record layout
//!
//! A trace stores each op as a 16-byte record, half the size of a
//! [`MicroOp`]: a `u32` pc, a kind tag, the [`Category`], the [`Phase`], one
//! flags/size byte (the access size of a load or store; the taken and
//! indirect bits of a branch or call) and one `u64` payload (the data
//! address, or the branch/call target). Replay decodes each record back to
//! the identical `MicroOp`. The cores' `op` methods are `#[inline]`, so on
//! the replay path the decode's match on the tag folds into the core's own
//! dispatch on the op kind.
//!
//! The pc fits in 32 bits because every code segment of the simulated
//! address space ends at or below [`mem::CODE_END`], which is pinned at
//! compile time to 4 GiB. Recording a pc beyond 32 bits panics instead of
//! truncating. Branch and call targets sit in the `u64` payload, so they
//! carry no bound.
//!
//! # Recycled storage
//!
//! Each thread keeps at most one spare record buffer. A new trace takes it;
//! a dropped trace gives its buffer back, and the thread keeps whichever of
//! the two has the larger capacity. Back-to-back captures on a thread then
//! write into pages that are already faulted in, rather than faulting in a
//! fresh buffer for every capture. The spare outlives the trace that grew
//! it, so a `--jobs N` run can hold N of them, one per worker thread, each
//! the size of the largest trace that thread dropped.
//!
//! # Recorded outcomes
//!
//! [`TraceBuffer::simulate_ooo`] replays only the timing half of the
//! out-of-order core where it can. Which level satisfies each access and
//! which branches are mispredicted depend on the trace, the cache geometry
//! and the predictor tables alone, so a trace keeps the outcomes its
//! out-of-order replays observed under two keys: the geometry (size,
//! associativity and line of all four caches; latencies left out) and the
//! predictor tables (L1/L2 entries, history bits, BTB, RAS; the mispredict
//! penalty left out). A replay reads the half recorded under its keys and
//! records the other from the live models. The outcomes are stored
//! compactly: one varint per access that missed L1 and one bit per control
//! transfer, plus the cache and branch statistics (layout in `memo.rs`).
//! A Fig. 7 sweep of 36 points thus walks the caches at 13 geometries and
//! the predictor at 5 table sizes.
//!
//! The first out-of-order replay of a trace neither reads nor records, so
//! a trace replayed once (a nursery-sweep cell) pays nothing; recording
//! starts with the second. The recorded outcomes sit behind a
//! `Mutex` of `Arc`s, locked only to look up and to store, so workers that
//! share one trace replay concurrently. A trace that grows after recording
//! starts over, a rewound one drops them, and a clone starts with none.
//!
//! [`mem::CODE_END`]: qoa_model::mem::CODE_END

use crate::memo::{BranchKey, BranchLog, BranchSide, CacheKey, CacheLog, CacheSide, Side};
use crate::stats::ExecutionStats;
use crate::{OooCore, SimpleCore, UarchConfig};
use qoa_model::{Category, FrameEvent, MicroOp, OpKind, OpSink, Pc, Phase, RewindSink};
use std::cell::Cell;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

thread_local! {
    /// This thread's spare record buffer: empty, and the largest one
    /// dropped since the last trace took it.
    static SPARE: Cell<Vec<Record>> = const { Cell::new(Vec::new()) };
}

/// An in-memory micro-op trace.
///
/// Optionally records guest [`FrameEvent`]s alongside the ops (see
/// [`TraceBuffer::with_frame_capture`]); replay interleaves them at the
/// exact op positions where they were observed, so a replay sink sees the
/// same call-stack evolution the live run produced. Frame capture is off
/// by default: the figure paths never pay for it.
#[derive(Debug)]
pub struct TraceBuffer {
    ops: Vec<Record>,
    /// `(op_index, event)`: the event fired just before `ops[op_index]`
    /// (or after the last op when `op_index == ops.len()`).
    frames: Vec<(u64, FrameEvent)>,
    capture_frames: bool,
    /// Outcomes recorded by earlier out-of-order replays. Concurrent
    /// replays of one shared trace take the lock only to look up and to
    /// store, never while replaying.
    memo: Mutex<ReplayMemo>,
}

/// An empty trace on unallocated storage. Unlike [`TraceBuffer::new`], it
/// leaves the thread's spare buffer where it is, so it can stand in for a
/// live trace while a machine is snapshotted (see [`RewindSink`]).
impl Default for TraceBuffer {
    fn default() -> Self {
        TraceBuffer {
            ops: Vec::new(),
            frames: Vec::new(),
            capture_frames: false,
            memo: Mutex::default(),
        }
    }
}

/// A clone starts without recorded outcomes.
impl Clone for TraceBuffer {
    fn clone(&self) -> Self {
        TraceBuffer {
            ops: self.ops.clone(),
            frames: self.frames.clone(),
            capture_frames: self.capture_frames,
            memo: Mutex::default(),
        }
    }
}

/// The outcomes a trace's out-of-order replays have recorded, by key.
#[derive(Debug, Default)]
struct ReplayMemo {
    /// The trace length they belong to: a trace that has grown since
    /// starts over.
    len: usize,
    /// Out-of-order replays of the trace at `len` ops.
    replays: u64,
    caches: Vec<(CacheKey, Arc<CacheLog>)>,
    branches: Vec<(BranchKey, Arc<BranchLog>)>,
}

/// What one replay reads from the memo: `None` for a half to record.
type Recorded = (Option<Arc<CacheLog>>, Option<Arc<BranchLog>>);

impl ReplayMemo {
    /// Counts a replay of a trace of `len` ops and returns the outcomes
    /// recorded under `keys`, or `None` on the trace's first replay, which
    /// neither reads nor records.
    fn lookup(&mut self, len: usize, keys: &(CacheKey, BranchKey)) -> Option<Recorded> {
        if self.len != len {
            *self = ReplayMemo { len, ..ReplayMemo::default() };
        }
        self.replays += 1;
        (self.replays > 1).then(|| (find(&self.caches, &keys.0), find(&self.branches, &keys.1)))
    }

    /// Keeps newly recorded outcomes. A concurrent replay may have stored
    /// the same key first; both recorded the same outcomes.
    fn store(
        &mut self,
        keys: (CacheKey, BranchKey),
        caches: Option<CacheLog>,
        branches: Option<BranchLog>,
    ) {
        if let Some(log) = caches.filter(|_| find(&self.caches, &keys.0).is_none()) {
            self.caches.push((keys.0, Arc::new(log)));
        }
        if let Some(log) = branches.filter(|_| find(&self.branches, &keys.1).is_none()) {
            self.branches.push((keys.1, Arc::new(log)));
        }
    }
}

fn find<K: PartialEq, T>(logs: &[(K, Arc<T>)], key: &K) -> Option<Arc<T>> {
    logs.iter().find(|(k, _)| k == key).map(|(_, log)| Arc::clone(log))
}

impl Drop for TraceBuffer {
    fn drop(&mut self) {
        let mut ops = std::mem::take(&mut self.ops);
        ops.clear();
        // Fails only while the thread's locals are being torn down; the
        // buffer is then simply freed.
        let _ = SPARE.try_with(|spare| {
            let kept = spare.take();
            spare.set(if ops.capacity() > kept.capacity() { ops } else { kept });
        });
    }
}

impl TraceBuffer {
    /// Creates an empty trace on the thread's spare buffer.
    pub fn new() -> Self {
        let mut t = Self::default();
        t.ops = SPARE.try_with(Cell::take).unwrap_or_default();
        t
    }

    /// Creates an empty trace with pre-reserved capacity.
    pub fn with_capacity(ops: usize) -> Self {
        let mut t = Self::new();
        t.ops.reserve(ops);
        t
    }

    /// Creates an empty trace that also records guest frame events.
    pub fn with_frame_capture() -> Self {
        let mut t = Self::new();
        t.capture_frames = true;
        t
    }

    /// Number of captured micro-ops.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// The captured ops, decoded in order.
    pub fn ops(&self) -> impl ExactSizeIterator<Item = MicroOp> + '_ {
        self.ops.iter().map(Record::decode)
    }

    /// The index of the first op at which `self` and `other` differ, or
    /// the shorter length when one is a prefix of the other; `None` when
    /// both hold the same ops record for record. Frame events are not
    /// compared.
    pub fn first_difference(&self, other: &TraceBuffer) -> Option<usize> {
        match self.ops.iter().zip(&other.ops).position(|(a, b)| a != b) {
            Some(i) => Some(i),
            None => {
                (self.ops.len() != other.ops.len()).then(|| self.ops.len().min(other.ops.len()))
            }
        }
    }

    /// The captured guest frame events, as `(op_index, event)` pairs.
    /// Empty unless built via [`TraceBuffer::with_frame_capture`].
    pub fn frame_events(&self) -> &[(u64, FrameEvent)] {
        &self.frames
    }

    /// Replays the trace into any sink, re-delivering frame events at the
    /// op positions where they were captured.
    pub fn replay<S: OpSink>(&self, sink: &mut S) {
        let mut phase = None;
        let mut from = 0;
        for (at, event) in &self.frames {
            let at = *at as usize;
            replay_records(&self.ops[from..at], &mut phase, sink);
            sink.frame_event(event);
            from = at;
        }
        replay_records(&self.ops[from..], &mut phase, sink);
    }

    /// Replays through a fresh [`SimpleCore`] built from `cfg`.
    pub fn simulate_simple(&self, cfg: &UarchConfig) -> ExecutionStats {
        let mut core = SimpleCore::new(cfg);
        self.replay(&mut core);
        core.finish()
    }

    /// Replays through a fresh [`OooCore`] built from `cfg`.
    ///
    /// From the trace's second out-of-order replay on, each replay reads
    /// the cache levels and mispredicts an earlier replay recorded under
    /// the same cache geometry and predictor tables, and records the
    /// half it cannot read (see the module docs). The statistics equal
    /// those of `self.replay(&mut OooCore::new(cfg))` byte for byte.
    pub fn simulate_ooo(&self, cfg: &UarchConfig) -> ExecutionStats {
        let mut core = OooCore::new(cfg);
        let keys = (CacheKey::of(cfg), BranchKey::of(cfg));
        // Its own statement, so the lock is released before any replay.
        let recorded = self.memo().lookup(self.ops.len(), &keys);
        let Some((caches, branches)) = recorded else {
            self.replay(&mut core);
            return core.finish();
        };
        let mut cache_side = CacheSide::new(caches.as_deref());
        let mut branch_side = BranchSide::new(branches.as_deref());
        // The core ignores phase changes and frame events: ops alone
        // decide its statistics.
        for r in &self.ops {
            core.step(r.decode(), &mut cache_side, &mut branch_side);
        }
        let mut stats = core.finish();
        let new_caches = match cache_side {
            Side::Read(_) => {
                let log = caches.as_ref().expect("a read side has a log");
                [stats.l1i, stats.l1d, stats.l2, stats.llc] = log.stats;
                None
            }
            Side::Record(r) => Some(r.finish([stats.l1i, stats.l1d, stats.l2, stats.llc])),
        };
        let new_branches = match branch_side {
            Side::Read(_) => {
                stats.branch = branches.as_ref().expect("a read side has a log").stats;
                None
            }
            Side::Record(r) => Some(r.finish(stats.branch)),
        };
        if new_caches.is_some() || new_branches.is_some() {
            self.memo().store(keys, new_caches, new_branches);
        }
        stats
    }

    fn memo(&self) -> MutexGuard<'_, ReplayMemo> {
        // Every update leaves the memo whole, so a panicked holder's data
        // is still good.
        self.memo.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Delivers `records` to `sink`, announcing each change of phase first.
#[inline]
fn replay_records<S: OpSink>(records: &[Record], phase: &mut Option<Phase>, sink: &mut S) {
    for r in records {
        let op = r.decode();
        if *phase != Some(op.phase) {
            *phase = Some(op.phase);
            sink.phase_change(op.phase);
        }
        sink.op(op);
    }
}

impl OpSink for TraceBuffer {
    #[inline]
    fn op(&mut self, op: MicroOp) {
        self.ops.push(Record::encode(op));
    }

    fn phase_change(&mut self, _phase: Phase) {}

    fn frame_event(&mut self, event: &FrameEvent) {
        if self.capture_frames {
            self.frames.push((self.ops.len() as u64, event.clone()));
        }
    }
}

/// A mark is the op and frame-event counts; a rewind truncates to them and
/// drops the recorded replay outcomes, which belong to the longer trace.
impl RewindSink for TraceBuffer {
    type Mark = (usize, usize);

    fn mark(&self) -> (usize, usize) {
        (self.ops.len(), self.frames.len())
    }

    fn rewind(&mut self, &(ops, frames): &(usize, usize)) {
        self.ops.truncate(ops);
        self.frames.truncate(frames);
        *self.memo.get_mut().unwrap_or_else(PoisonError::into_inner) = ReplayMemo::default();
    }
}

/// The operational class of a [`Record`]: [`OpKind`] without its fields.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
enum Tag {
    Alu,
    FpAlu,
    Mul,
    Div,
    Load,
    Store,
    Branch,
    Call,
    Ret,
}

/// `Record::flags` bit of a taken branch.
const TAKEN: u8 = 1;
/// `Record::flags` bit of an indirect branch or call.
const INDIRECT: u8 = 2;

/// One [`MicroOp`] in 16 bytes; see the module docs for the layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Record {
    /// Data address of a load or store; target of a branch or call.
    payload: u64,
    pc: u32,
    tag: Tag,
    category: Category,
    phase: Phase,
    /// Access size of a load or store; `TAKEN | INDIRECT` bits of a branch
    /// or call.
    flags: u8,
}

const _: () = assert!(std::mem::size_of::<Record>() == 16);

impl Record {
    #[inline]
    fn encode(op: MicroOp) -> Record {
        let Ok(pc) = u32::try_from(op.pc.0) else {
            panic!("pc {} lies beyond the 32-bit code segments (mem::CODE_END)", op.pc)
        };
        let bit = |on: bool, flag: u8| if on { flag } else { 0 };
        let (tag, flags, payload) = match op.kind {
            OpKind::Alu => (Tag::Alu, 0, 0),
            OpKind::FpAlu => (Tag::FpAlu, 0, 0),
            OpKind::Mul => (Tag::Mul, 0, 0),
            OpKind::Div => (Tag::Div, 0, 0),
            OpKind::Load { addr, size } => (Tag::Load, size, addr),
            OpKind::Store { addr, size } => (Tag::Store, size, addr),
            OpKind::Branch { taken, target, indirect } => {
                (Tag::Branch, bit(taken, TAKEN) | bit(indirect, INDIRECT), target.0)
            }
            OpKind::Call { target, indirect } => (Tag::Call, bit(indirect, INDIRECT), target.0),
            OpKind::Ret => (Tag::Ret, 0, 0),
        };
        Record { payload, pc, tag, category: op.category, phase: op.phase, flags }
    }

    #[inline(always)]
    fn decode(&self) -> MicroOp {
        let kind = match self.tag {
            Tag::Alu => OpKind::Alu,
            Tag::FpAlu => OpKind::FpAlu,
            Tag::Mul => OpKind::Mul,
            Tag::Div => OpKind::Div,
            Tag::Load => OpKind::Load { addr: self.payload, size: self.flags },
            Tag::Store => OpKind::Store { addr: self.payload, size: self.flags },
            Tag::Branch => OpKind::Branch {
                taken: self.flags & TAKEN != 0,
                target: Pc(self.payload),
                indirect: self.flags & INDIRECT != 0,
            },
            Tag::Call => {
                OpKind::Call { target: Pc(self.payload), indirect: self.flags & INDIRECT != 0 }
            }
            Tag::Ret => OpKind::Ret,
        };
        MicroOp { pc: Pc(u64::from(self.pc)), kind, category: self.category, phase: self.phase }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qoa_model::{Category, CountingSink, FrameEvent, OpKind, Pc};

    fn sample_trace() -> TraceBuffer {
        let mut t = TraceBuffer::new();
        for i in 0..100u64 {
            t.op(MicroOp {
                pc: Pc(0x400000 + (i % 8) * 4),
                kind: if i % 3 == 0 {
                    OpKind::Load { addr: 0x5_0000_0000 + i * 8, size: 8 }
                } else {
                    OpKind::Alu
                },
                category: Category::Execute,
                phase: if i < 50 { Phase::Interpreter } else { Phase::GcMinor },
            });
        }
        t
    }

    #[test]
    fn capture_then_replay_preserves_counts() {
        let t = sample_trace();
        assert_eq!(t.len(), 100);
        let mut sink = CountingSink::new();
        t.replay(&mut sink);
        assert_eq!(sink.total(), 100);
        assert_eq!(sink.by_phase[Phase::Interpreter], 50);
        assert_eq!(sink.by_phase[Phase::GcMinor], 50);
    }

    #[test]
    fn frame_events_replay_at_their_op_positions() {
        struct Recorder {
            log: Vec<(usize, String)>,
            ops: usize,
        }
        impl OpSink for Recorder {
            fn op(&mut self, _op: MicroOp) {
                self.ops += 1;
            }
            fn frame_event(&mut self, event: &FrameEvent) {
                let label = match event {
                    FrameEvent::Push { name } => format!("push {name}"),
                    FrameEvent::Pop => "pop".to_string(),
                    FrameEvent::Line { line } => format!("line {line}"),
                };
                self.log.push((self.ops, label));
            }
        }

        let mk = |i: u64| MicroOp {
            pc: Pc(0x400000 + i * 4),
            kind: OpKind::Alu,
            category: Category::Execute,
            phase: Phase::Interpreter,
        };
        let mut t = TraceBuffer::with_frame_capture();
        t.frame_event(&FrameEvent::Push { name: "<module>".into() });
        t.op(mk(0));
        t.frame_event(&FrameEvent::Push { name: "f".into() });
        t.op(mk(1));
        t.op(mk(2));
        t.frame_event(&FrameEvent::Pop);
        t.frame_event(&FrameEvent::Pop);
        assert_eq!(t.frame_events().len(), 4);

        let mut r = Recorder { log: Vec::new(), ops: 0 };
        t.replay(&mut r);
        assert_eq!(r.ops, 3);
        assert_eq!(
            r.log,
            vec![
                (0, "push <module>".to_string()),
                (1, "push f".to_string()),
                (3, "pop".to_string()),
                (3, "pop".to_string()),
            ]
        );

        // Default buffers ignore frame events entirely.
        let mut plain = TraceBuffer::new();
        plain.frame_event(&FrameEvent::Pop);
        assert!(plain.frame_events().is_empty());
    }

    /// Every `OpKind` shape: both values of each bool, the access sizes,
    /// and addresses and targets at both ends of the `u64` range.
    fn every_kind() -> Vec<OpKind> {
        let mut kinds = vec![OpKind::Alu, OpKind::FpAlu, OpKind::Mul, OpKind::Div, OpKind::Ret];
        for addr in [0, 0x5_0000_0040, u64::MAX] {
            for size in [0, 1, 2, 4, 8, 16, u8::MAX] {
                kinds.push(OpKind::Load { addr, size });
                kinds.push(OpKind::Store { addr, size });
            }
        }
        for target in [Pc(0), Pc(0x2000_0040), Pc(u64::MAX)] {
            for indirect in [false, true] {
                kinds.push(OpKind::Call { target, indirect });
                for taken in [false, true] {
                    kinds.push(OpKind::Branch { taken, target, indirect });
                }
            }
        }
        kinds
    }

    #[test]
    fn records_round_trip_every_op_shape() {
        let pcs =
            [0, qoa_model::mem::INTERP_CODE_BASE, qoa_model::mem::CODE_END - 4, u32::MAX as u64];
        let mut ops = Vec::new();
        for (i, kind) in every_kind().into_iter().enumerate() {
            for category in Category::ALL {
                for phase in Phase::ALL {
                    ops.push(MicroOp { pc: Pc(pcs[i % pcs.len()]), kind, category, phase });
                }
            }
        }
        let mut t = TraceBuffer::new();
        for &op in &ops {
            t.op(op);
        }
        assert_eq!(t.ops().len(), ops.len());
        assert_eq!(t.ops().collect::<Vec<_>>(), ops);
    }

    #[test]
    #[should_panic(expected = "beyond the 32-bit code segments")]
    fn a_pc_beyond_32_bits_fails_loudly() {
        let mut t = TraceBuffer::new();
        t.op(MicroOp {
            pc: Pc(1 << 32),
            kind: OpKind::Alu,
            category: Category::Execute,
            phase: Phase::Interpreter,
        });
    }

    /// A frame-capturing trace of `sample_trace`'s ops with events
    /// scattered through it.
    fn framed_trace() -> TraceBuffer {
        let mut t = TraceBuffer::with_frame_capture();
        t.frame_event(&FrameEvent::Push { name: "<module>".into() });
        for (i, op) in sample_trace().ops().enumerate() {
            if i % 17 == 5 {
                t.frame_event(&FrameEvent::Line { line: i as u32 });
            }
            t.op(op);
        }
        t.frame_event(&FrameEvent::Pop);
        t
    }

    fn assert_same_replay(a: &TraceBuffer, b: &TraceBuffer) {
        assert_eq!(a.ops().collect::<Vec<_>>(), b.ops().collect::<Vec<_>>());
        assert_eq!(a.frame_events(), b.frame_events());
        let cfg = UarchConfig::skylake();
        assert_eq!(a.simulate_simple(&cfg), b.simulate_simple(&cfg));
        assert_eq!(a.simulate_ooo(&cfg), b.simulate_ooo(&cfg));
    }

    #[test]
    fn a_trace_on_recycled_storage_replays_like_a_fresh_one() {
        // A new thread starts without a spare, so this trace is fresh.
        let fresh = std::thread::spawn(framed_trace).join().expect("fresh trace");

        let sample = sample_trace();
        let mut larger = TraceBuffer::new();
        for _ in 0..50 {
            for op in sample.ops() {
                larger.op(MicroOp { kind: OpKind::Store { addr: u64::MAX, size: 1 }, ..op });
            }
        }
        let grown = larger.ops.capacity();
        drop(larger);

        let recycled = framed_trace();
        assert_eq!(recycled.ops.capacity(), grown, "the dropped buffer was not reused");
        assert_same_replay(&recycled, &fresh);
    }

    #[test]
    fn a_clone_replays_identically_after_the_original_is_dropped() {
        let original = framed_trace();
        let reference = std::thread::spawn(framed_trace).join().expect("reference trace");
        let snapshot = original.clone();
        drop(original);
        // The next trace on this thread reuses the original's storage.
        let mut reuse = TraceBuffer::new();
        for op in sample_trace().ops() {
            reuse.op(MicroOp { category: Category::CLibrary, ..op });
        }
        assert_same_replay(&snapshot, &reference);
    }

    #[test]
    fn a_rewound_and_regrown_trace_replays_like_a_fresh_one() {
        let half = sample_trace();
        // The same ops with every load on a line the first half never
        // touched: cold misses where the first half's loads would hit.
        let moved = |op: MicroOp| match op.kind {
            OpKind::Load { addr, size } => {
                MicroOp { kind: OpKind::Load { addr: addr + (1 << 20), size }, ..op }
            }
            _ => op,
        };
        let mut t = TraceBuffer::with_frame_capture();
        half.ops().for_each(|op| t.op(op));
        let mark = t.mark();
        t.frame_event(&FrameEvent::Pop);
        half.ops().map(moved).for_each(|op| t.op(op));
        // Two out-of-order replays record outcomes for a trace of this
        // length; the rewind must drop them.
        let cfg = UarchConfig::skylake();
        let before = t.simulate_ooo(&cfg);
        t.simulate_ooo(&cfg);
        t.rewind(&mark);
        assert_eq!(t.len(), half.len());
        assert!(t.frame_events().is_empty());
        half.ops().for_each(|op| t.op(op));

        let mut fresh = TraceBuffer::with_frame_capture();
        half.ops().chain(half.ops()).for_each(|op| fresh.op(op));
        assert_ne!(fresh.simulate_ooo(&cfg), before, "the regrown ops must replay differently");
        assert_eq!(t.first_difference(&fresh), None);
        assert_same_replay(&t, &fresh);
        assert_eq!(t.simulate_ooo(&cfg), fresh.simulate_ooo(&cfg));
    }

    #[test]
    fn first_difference_finds_the_first_unequal_op() {
        let a = sample_trace();
        assert_eq!(a.first_difference(&sample_trace()), None);
        let mut b = TraceBuffer::new();
        for (i, op) in a.ops().enumerate() {
            b.op(if i == 42 { MicroOp { pc: Pc(op.pc.0 + 4), ..op } } else { op });
        }
        assert_eq!(a.first_difference(&b), Some(42));
        let mut prefix = TraceBuffer::new();
        a.ops().take(60).for_each(|op| prefix.op(op));
        assert_eq!(a.first_difference(&prefix), Some(60));
        assert_eq!(prefix.first_difference(&a), Some(60));
    }

    #[test]
    fn replay_is_deterministic_across_cores() {
        let t = sample_trace();
        let cfg = UarchConfig::skylake();
        let a = t.simulate_ooo(&cfg);
        let b = t.simulate_ooo(&cfg);
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.instructions, b.instructions);
        let s = t.simulate_simple(&cfg);
        assert_eq!(s.instructions, 100);
    }
}
