//! Recorded replay outcomes: the out-of-order replay's outcome half, kept
//! so that later replays of the same trace only run its timing half.
//!
//! Which level of the hierarchy satisfies an access depends only on the
//! access stream and the cache geometry; whether a branch is mispredicted
//! depends only on the stream and the predictor's tables. Latencies,
//! issue width, the ROB and the DRAM channel only *time* those events. So
//! a replay can take each op's outcomes from an earlier replay of the
//! same trace under the same geometry (for caches) or the same tables
//! (for branches), and produce byte-identical statistics. See
//! [`TraceBuffer::simulate_ooo`](crate::TraceBuffer::simulate_ooo) for
//! when outcomes are recorded and reused.
//!
//! # Layout
//!
//! A log holds bytes plus the final statistics of the model that produced
//! them, which a reuse reports in place of the idle model's zeros.
//!
//! * Cache levels are stored sparsely: one LEB128 varint per access that
//!   missed L1. Op `n`'s instruction fetch sits at position `2n` and its
//!   data access at `2n + 1`; the varint holds the distance from the
//!   previous miss's position, shifted left past two bits for the level
//!   that satisfied the access (1 for L2, 2 for L3, 3 for memory). Every
//!   access the log skips hit L1. Under 1.1% of ops miss L1 on the Fig. 7
//!   traces.
//! * Mispredicts are one bit per control transfer (branch, call or
//!   return), set when it was mispredicted. Interpreter dispatch
//!   mispredicts about a third of the control transfers, which are about
//!   an eighth of the ops, so a bit each costs a third of what a
//!   one-byte varint per mispredict would.

use crate::branch::{BranchStats, BranchUnit};
use crate::cache::{CacheStats, HitLevel, MemoryHierarchy};
use crate::config::{BranchConfig, CacheConfig, UarchConfig};
use crate::ooo::{BranchOutcomes, CacheOutcomes, Models};
use qoa_model::MicroOp;

/// What decides every cache level of a replay: size, associativity and
/// line of all four caches, latencies left out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct CacheKey([CacheConfig; 4]);

impl CacheKey {
    pub(crate) fn of(cfg: &UarchConfig) -> Self {
        let geometry = |c: CacheConfig| CacheConfig { latency: 0, ..c };
        CacheKey([cfg.l1i, cfg.l1d, cfg.l2, cfg.l3].map(geometry))
    }
}

/// What decides every mispredict of a replay: the predictor's tables
/// (direction, BTB and return stack), the mispredict penalty left out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct BranchKey(BranchConfig);

impl BranchKey {
    pub(crate) fn of(cfg: &UarchConfig) -> Self {
        BranchKey(BranchConfig { mispredict_penalty: 0, ..cfg.branch })
    }
}

/// One replay's recorded outcomes of one kind, with the statistics of the
/// model that produced them.
#[derive(Debug)]
pub(crate) struct Log<S> {
    bytes: Vec<u8>,
    pub(crate) stats: S,
}

/// Recorded cache levels, with `[l1i, l1d, l2, llc]` statistics.
pub(crate) type CacheLog = Log<[CacheStats; 4]>;
/// Recorded mispredicts.
pub(crate) type BranchLog = Log<BranchStats>;

/// One half of a memoized replay: a log to read back, or a recorder that
/// fills a new log from the live model.
pub(crate) enum Side<R, W> {
    /// Read what an earlier replay recorded.
    Read(R),
    /// Ask the model and record what it answers.
    Record(W),
}

/// The cache half of a memoized replay.
pub(crate) type CacheSide<'a> = Side<MissCursor<'a>, MissRecorder>;
/// The branch half of a memoized replay.
pub(crate) type BranchSide<'a> = Side<BitCursor<'a>, BitRecorder>;

impl<'a> CacheSide<'a> {
    /// Reads `log` when there is one, else records.
    pub(crate) fn new(log: Option<&'a CacheLog>) -> Self {
        match log {
            Some(log) => Side::Read(MissCursor::new(&log.bytes)),
            None => Side::Record(MissRecorder::default()),
        }
    }
}

impl<'a> BranchSide<'a> {
    /// Reads `log` when there is one, else records.
    pub(crate) fn new(log: Option<&'a BranchLog>) -> Self {
        match log {
            Some(log) => Side::Read(BitCursor { bytes: &log.bytes, next: 0 }),
            None => Side::Record(BitRecorder::default()),
        }
    }
}

impl CacheOutcomes for CacheSide<'_> {
    #[inline(always)]
    fn level(
        &mut self,
        mem: &mut MemoryHierarchy,
        n: u64,
        addr: u64,
        instruction: bool,
    ) -> HitLevel {
        // Fetch then data: op `n`'s accesses sit at positions 2n, 2n + 1.
        let at = 2 * n + u64::from(!instruction);
        match self {
            Side::Read(cursor) => cursor.take(at),
            Side::Record(recorder) => {
                let level = mem.level(addr, instruction);
                recorder.push(at, level);
                level
            }
        }
    }
}

impl BranchOutcomes for BranchSide<'_> {
    #[inline(always)]
    fn mispredicted(&mut self, unit: &mut BranchUnit, op: &MicroOp) -> bool {
        match self {
            Side::Read(cursor) => cursor.take(),
            Side::Record(recorder) => {
                let mispredicted = Models.mispredicted(unit, op);
                recorder.push(mispredicted);
                mispredicted
            }
        }
    }
}

/// Appends the L1 misses among the accesses it is shown to a new cache
/// log.
#[derive(Debug, Default)]
pub(crate) struct MissRecorder {
    bytes: Vec<u8>,
    /// The position of the previous miss.
    last: u64,
}

impl MissRecorder {
    fn push(&mut self, at: u64, level: HitLevel) {
        let code = match level {
            HitLevel::L1 => return,
            HitLevel::L2 => 1,
            HitLevel::L3 => 2,
            HitLevel::Memory => 3,
        };
        let mut v = (at - self.last) << 2 | code;
        self.last = at;
        while v >= 0x80 {
            self.bytes.push(v as u8 | 0x80);
            v >>= 7;
        }
        self.bytes.push(v as u8);
    }

    /// The finished log, with the caches' statistics.
    pub(crate) fn finish(mut self, stats: [CacheStats; 4]) -> CacheLog {
        self.bytes.shrink_to_fit();
        Log { bytes: self.bytes, stats }
    }
}

/// Reads a cache log's misses back in order.
pub(crate) struct MissCursor<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// The position of the next unread miss; `u64::MAX` once none is left.
    next: u64,
    /// That miss's level.
    level: HitLevel,
}

impl<'a> MissCursor<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        let mut cursor = MissCursor { bytes, pos: 0, next: 0, level: HitLevel::L1 };
        cursor.advance();
        cursor
    }

    /// The level that satisfied the access at position `at`. Positions
    /// must be asked about in increasing order, and every position that
    /// holds a miss must be asked.
    #[inline(always)]
    fn take(&mut self, at: u64) -> HitLevel {
        if at != self.next {
            return HitLevel::L1;
        }
        let level = self.level;
        self.advance();
        level
    }

    fn advance(&mut self) {
        let mut v = 0u64;
        let mut shift = 0;
        loop {
            let Some(&byte) = self.bytes.get(self.pos) else {
                self.next = u64::MAX;
                return;
            };
            self.pos += 1;
            v |= u64::from(byte & 0x7f) << shift;
            if byte < 0x80 {
                break;
            }
            shift += 7;
        }
        self.next += v >> 2;
        self.level = match v & 3 {
            1 => HitLevel::L2,
            2 => HitLevel::L3,
            _ => HitLevel::Memory,
        };
    }
}

/// Appends one bit per control transfer to a new branch log.
#[derive(Debug, Default)]
pub(crate) struct BitRecorder {
    bytes: Vec<u8>,
    bits: u64,
}

impl BitRecorder {
    fn push(&mut self, mispredicted: bool) {
        let bit = self.bits % 8;
        if bit == 0 {
            self.bytes.push(0);
        }
        if let Some(last) = self.bytes.last_mut() {
            *last |= u8::from(mispredicted) << bit;
        }
        self.bits += 1;
    }

    /// The finished log, with the predictor's statistics.
    pub(crate) fn finish(mut self, stats: BranchStats) -> BranchLog {
        self.bytes.shrink_to_fit();
        Log { bytes: self.bytes, stats }
    }
}

/// Reads a branch log's bits back in order, one per control transfer.
pub(crate) struct BitCursor<'a> {
    bytes: &'a [u8],
    next: usize,
}

impl BitCursor<'_> {
    #[inline(always)]
    fn take(&mut self) -> bool {
        let bit = self.bytes[self.next / 8] >> (self.next % 8) & 1;
        self.next += 1;
        bit == 1
    }
}
