//! PyPy-style generational garbage collector.
//!
//! New objects are bump-allocated in a contiguous **nursery** whose size is
//! the paper's central tuning knob (§V-B, Fig. 10–17). When the nursery
//! fills, a **minor collection** traces the young generation from the roots
//! and the remembered set, copies survivors into the **old space**, and
//! resets the bump pointer — so nursery addresses are reused every cycle,
//! which is precisely why a nursery that fits in the LLC stays cache-hot
//! and one that does not trashes it (Fig. 10's ~2.4× miss-rate cliff). The
//! old space is collected with a mark-sweep pass when it outgrows a
//! threshold (PyPy runs this incrementally; we run it in one pass at minor
//! boundaries, which preserves the cost accounting).
//!
//! Every phase of the collector emits categorized micro-ops
//! ([`Category::GarbageCollection`]) under [`Phase::GcMinor`] /
//! [`Phase::GcMajor`], so both the GC-time share (Fig. 11, 13) and its
//! cache footprint are observable.

use crate::{ObjId, Tracer};
use qoa_model::{mem, Category, Emitter, OpSink, Phase};

/// Emission sites within the collector's code region.
mod site {
    pub const ALLOC: u32 = 0x000;
    pub const BARRIER: u32 = 0x040;
    pub const MINOR_SCAN: u32 = 0x080;
    pub const MINOR_COPY: u32 = 0x0C0;
    pub const MINOR_RESET: u32 = 0x100;
    pub const MAJOR_MARK: u32 = 0x140;
    pub const MAJOR_SWEEP: u32 = 0x180;
}

/// Which space an object currently lives in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Space {
    /// The nursery (young generation).
    Young,
    /// The old generation.
    Old,
    /// The large-object space (never copied).
    Large,
}

/// Generational-collector configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GcConfig {
    /// Nursery size in bytes (the paper sweeps 512 kB – 128 MB).
    pub nursery_size: u64,
    /// Allocations larger than this go straight to the large-object space.
    pub large_threshold: u64,
    /// Run a major collection when old-space live bytes exceed this.
    pub major_threshold: u64,
    /// Growth factor applied to `major_threshold` after each major GC.
    pub major_growth_num: u64,
    /// Denominator of the growth factor.
    pub major_growth_den: u64,
    /// Fixed per-minor-collection work (stack maps, remembered-set and
    /// page management, write-barrier bookkeeping) in micro-ops. Real
    /// minor-pause floors are tens of microseconds — tens of thousands of
    /// instructions — even when nothing survives.
    pub minor_fixed_ops: u32,
}

impl GcConfig {
    /// PyPy-like defaults with the given nursery size. Objects above an
    /// eighth of the nursery, or above 32 kB, go to the large-object
    /// space; the threshold never exceeds the nursery itself, so every
    /// object bump-allocated in the nursery fits in an empty one.
    pub fn with_nursery(nursery_size: u64) -> Self {
        GcConfig {
            nursery_size,
            large_threshold: (nursery_size / 8).max(32 << 10).min(nursery_size),
            major_threshold: 16 << 20,
            major_growth_num: 18,
            major_growth_den: 10,
            minor_fixed_ops: 60_000,
        }
    }
}

impl Default for GcConfig {
    /// PyPy's default nursery is a few megabytes; 4 MB here.
    fn default() -> Self {
        GcConfig::with_nursery(4 << 20)
    }
}

/// Collector statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GcStats {
    /// Minor (nursery) collections performed.
    pub minor_collections: u64,
    /// Major (old-space) collections performed.
    pub major_collections: u64,
    /// Total bytes bump-allocated in the nursery.
    pub nursery_allocated: u64,
    /// Total bytes copied out of the nursery by minor collections.
    pub bytes_promoted: u64,
    /// Young objects reclaimed by minor collections.
    pub young_reclaimed: u64,
    /// Old/large objects reclaimed by major collections.
    pub old_reclaimed: u64,
    /// Current live bytes in the old space.
    pub old_live_bytes: u64,
    /// Objects currently in the remembered set.
    pub remembered_len: u64,
}

impl GcStats {
    /// Fraction of nursery-allocated bytes that survived to the old space.
    pub fn survival_rate(&self) -> f64 {
        if self.nursery_allocated == 0 {
            0.0
        } else {
            self.bytes_promoted as f64 / self.nursery_allocated as f64
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Record {
    addr: u64,
    size: u64,
    space: Space,
    remembered: bool,
}

/// The generational heap.
#[derive(Debug, Clone)]
pub struct GenHeap {
    cfg: GcConfig,
    nursery_bump: u64,
    old_bump: u64,
    old_free: std::collections::HashMap<u64, Vec<u64>>,
    large_bump: u64,
    records: Vec<Option<Record>>,
    remembered: Vec<ObjId>,
    stats: GcStats,
    major_threshold: u64,
    mark: Vec<bool>,
}

impl GenHeap {
    /// Creates a heap with the given configuration.
    ///
    /// # Panics
    ///
    /// Panics if the nursery size exceeds the segment headroom.
    pub fn new(cfg: GcConfig) -> Self {
        assert!(cfg.nursery_size <= mem::NURSERY_MAX_SIZE);
        assert!(cfg.nursery_size >= 4096);
        GenHeap {
            cfg,
            nursery_bump: 0,
            old_bump: mem::OLD_SPACE_BASE,
            old_free: std::collections::HashMap::new(),
            large_bump: mem::LARGE_OBJECT_BASE,
            records: Vec::new(),
            remembered: Vec::new(),
            stats: GcStats::default(),
            major_threshold: cfg.major_threshold,
            mark: Vec::new(),
        }
    }

    /// The configuration in effect.
    pub fn config(&self) -> &GcConfig {
        &self.cfg
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> GcStats {
        let mut s = self.stats;
        s.remembered_len = self.remembered.len() as u64;
        s
    }

    fn slot(&mut self, id: ObjId) -> &mut Option<Record> {
        let idx = id.index();
        if idx >= self.records.len() {
            self.records.resize(idx + 1, None);
        }
        &mut self.records[idx]
    }

    fn get(&self, id: ObjId) -> Option<Record> {
        self.records.get(id.index()).copied().flatten()
    }

    /// Simulated address of `id`, if allocated.
    pub fn addr_of(&self, id: ObjId) -> Option<u64> {
        self.get(id).map(|r| r.addr)
    }

    /// Space of `id`, if allocated.
    pub fn space_of(&self, id: ObjId) -> Option<Space> {
        self.get(id).map(|r| r.space)
    }

    /// Number of live (tracked) objects.
    pub fn live_objects(&self) -> usize {
        self.records.iter().filter(|r| r.is_some()).count()
    }

    /// Bytes remaining in the nursery before the next minor collection.
    pub fn nursery_headroom(&self) -> u64 {
        self.cfg.nursery_size - self.nursery_bump
    }

    /// Current live bytes: old space plus the occupied nursery prefix.
    pub fn live_bytes(&self) -> u64 {
        self.stats.old_live_bytes + self.nursery_bump
    }

    /// Whether an allocation of `size` would trigger a minor collection.
    pub fn needs_minor(&self, size: u64) -> bool {
        let rounded = Self::round(size);
        rounded <= self.cfg.large_threshold && self.nursery_bump + rounded > self.cfg.nursery_size
    }

    /// Whether the old space has outgrown its threshold.
    pub fn needs_major(&self) -> bool {
        self.stats.old_live_bytes > self.major_threshold
    }

    fn round(size: u64) -> u64 {
        size.max(16).div_ceil(16) * 16
    }

    /// Bump-allocates `size` bytes for `id` in the nursery (or the
    /// large-object space for big allocations). Emits the fast-path
    /// bump-pointer ops and the object's initializing stores.
    ///
    /// # Panics
    ///
    /// Panics if `id` is already allocated, or if the nursery lacks
    /// headroom — call [`GenHeap::minor_collect`] first when
    /// [`GenHeap::needs_minor`] says so.
    pub fn alloc<S: OpSink>(
        &mut self,
        id: ObjId,
        size: u64,
        e: &mut Emitter<'_, S>,
    ) -> u64 {
        let rounded = Self::round(size);
        let (addr, space) = if rounded > self.cfg.large_threshold {
            let addr = self.large_bump;
            self.large_bump += rounded;
            self.stats.old_live_bytes += rounded;
            (addr, Space::Large)
        } else {
            assert!(
                self.nursery_bump + rounded <= self.cfg.nursery_size,
                "nursery exhausted: run minor_collect first"
            );
            // Fast path: load bump, compare limit, store bump.
            e.load(site::ALLOC, Category::ObjectAllocation, self.bump_ptr_addr());
            e.alu(site::ALLOC + 1, Category::ObjectAllocation, 1);
            e.branch(site::ALLOC + 2, Category::ObjectAllocation, false, site::MINOR_SCAN);
            e.store(site::ALLOC + 3, Category::ObjectAllocation, self.bump_ptr_addr());
            let addr = mem::NURSERY_BASE + self.nursery_bump;
            self.nursery_bump += rounded;
            self.stats.nursery_allocated += rounded;
            (addr, Space::Young)
        };
        let prev = self.slot(id).replace(Record { addr, size: rounded, space, remembered: false });
        assert!(prev.is_none(), "{id} allocated twice");
        addr
    }

    fn bump_ptr_addr(&self) -> u64 {
        mem::STATIC_DATA_BASE + 0x2000
    }

    /// Generational write barrier: the VM calls this on every reference
    /// store `parent.field = child`. Old/large parents holding young
    /// children enter the remembered set.
    pub fn write_barrier<S: OpSink>(
        &mut self,
        parent: ObjId,
        child: ObjId,
        e: &mut Emitter<'_, S>,
    ) {
        // The barrier's flag test is real work on every pointer store.
        e.alu(site::BARRIER, Category::GarbageCollection, 1);
        let (Some(p), Some(c)) = (self.get(parent), self.get(child)) else {
            return;
        };
        if p.space != Space::Young && c.space == Space::Young && !p.remembered {
            e.store(site::BARRIER + 1, Category::GarbageCollection, p.addr);
            self.remembered.push(parent);
            if let Some(rec) = self.slot(parent).as_mut() {
                rec.remembered = true;
            }
        }
    }

    /// Runs a minor (nursery) collection: traces the young generation from
    /// `tracer`'s roots plus the remembered set, copies survivors to the
    /// old space, and resets the nursery. Returns the ids whose objects
    /// died (the VM reclaims their Rust-side storage).
    pub fn minor_collect<T: Tracer, S: OpSink>(
        &mut self,
        tracer: &T,
        e: &mut Emitter<'_, S>,
    ) -> Vec<ObjId> {
        e.with_phase(Phase::GcMinor, |e| self.minor_inner(tracer, e))
    }

    fn minor_inner<T: Tracer, S: OpSink>(
        &mut self,
        tracer: &T,
        e: &mut Emitter<'_, S>,
    ) -> Vec<ObjId> {
        self.stats.minor_collections += 1;
        // Fixed pause work: shadow-stack scan, remembered-set maintenance,
        // nursery page management.
        let fixed = self.cfg.minor_fixed_ops;
        for i in 0..fixed / 5 {
            e.alu(site::MINOR_SCAN + 8, Category::GarbageCollection, 4);
            e.load(
                site::MINOR_SCAN + 9,
                Category::GarbageCollection,
                qoa_model::mem::STATIC_DATA_BASE + 0x3000 + ((i % 512) as u64) * 8,
            );
        }
        self.mark.clear();
        self.mark.resize(self.records.len(), false);

        // Root enumeration: roots and remembered-set entries seed the scan.
        let mut work: Vec<ObjId> = Vec::new();
        tracer.roots(&mut |id| work.push(id));
        // Roots are loaded from frames/stacks.
        for _ in 0..work.len() {
            e.load(site::MINOR_SCAN, Category::GarbageCollection, self.bump_ptr_addr());
        }
        let remembered = std::mem::take(&mut self.remembered);
        for &parent in &remembered {
            if let Some(rec) = self.get(parent) {
                // Scan the remembered old object's fields for young refs.
                e.load_span(site::MINOR_SCAN + 1, Category::GarbageCollection, rec.addr, rec.size);
                tracer.refs(parent, &mut |child| work.push(child));
                if let Some(r) = self.slot(parent).as_mut() {
                    r.remembered = false;
                }
            }
        }

        // Trace the young reachable set. Recorded *old* objects terminate
        // the scan (their young references are covered by the remembered
        // set), but unrecorded objects — immortal singletons, interned
        // constants, static namespaces like the globals dict — are pinned
        // roots that must be traced *through* on every minor collection.
        let mut survivors: Vec<ObjId> = Vec::new();
        while let Some(id) = work.pop() {
            if id.index() >= self.mark.len() {
                self.mark.resize(id.index() + 1, false);
            }
            if self.mark[id.index()] {
                continue;
            }
            self.mark[id.index()] = true;
            match self.get(id) {
                None => {
                    // Pinned/static object: trace through its references.
                    tracer.refs(id, &mut |child| work.push(child));
                }
                Some(rec) if rec.space == Space::Young => {
                    survivors.push(id);
                    // Scanning the object's fields for references.
                    e.load_span(
                        site::MINOR_SCAN + 2,
                        Category::GarbageCollection,
                        rec.addr,
                        rec.size,
                    );
                    tracer.refs(id, &mut |child| work.push(child));
                }
                Some(_) => {}
            }
        }

        // Copy survivors to the old space.
        for &id in &survivors {
            let rec = self.get(id).expect("survivor vanished");
            let new_addr = self.old_alloc(rec.size);
            e.load_span(site::MINOR_COPY, Category::GarbageCollection, rec.addr, rec.size);
            e.store_span(site::MINOR_COPY + 1, Category::GarbageCollection, new_addr, rec.size);
            self.stats.bytes_promoted += rec.size;
            self.stats.old_live_bytes += rec.size;
            if let Some(r) = self.slot(id).as_mut() {
                r.addr = new_addr;
                r.space = Space::Old;
            }
        }

        // Everything young and unmarked is dead; the nursery resets.
        let mut dead = Vec::new();
        for (idx, slot) in self.records.iter_mut().enumerate() {
            if let Some(rec) = slot {
                if rec.space == Space::Young && !self.mark.get(idx).copied().unwrap_or(false) {
                    self.stats.young_reclaimed += 1;
                    dead.push(ObjId(idx as u32));
                    *slot = None;
                }
            }
        }
        e.store(site::MINOR_RESET, Category::GarbageCollection, self.bump_ptr_addr());
        self.nursery_bump = 0;
        dead
    }

    fn old_alloc(&mut self, size: u64) -> u64 {
        let key = size.next_power_of_two().max(16);
        if let Some(addr) = self.old_free.get_mut(&key).and_then(|v| v.pop()) {
            return addr;
        }
        let addr = self.old_bump;
        self.old_bump += key;
        addr
    }

    /// Runs a major (old-space) collection: full mark from the roots, then
    /// sweep of unmarked old/large objects. Returns the ids that died.
    pub fn major_collect<T: Tracer, S: OpSink>(
        &mut self,
        tracer: &T,
        e: &mut Emitter<'_, S>,
    ) -> Vec<ObjId> {
        e.with_phase(Phase::GcMajor, |e| self.major_inner(tracer, e))
    }

    fn major_inner<T: Tracer, S: OpSink>(
        &mut self,
        tracer: &T,
        e: &mut Emitter<'_, S>,
    ) -> Vec<ObjId> {
        self.stats.major_collections += 1;
        let fixed = self.cfg.minor_fixed_ops * 4;
        for i in 0..fixed / 5 {
            e.alu(site::MAJOR_MARK + 8, Category::GarbageCollection, 4);
            e.load(
                site::MAJOR_MARK + 9,
                Category::GarbageCollection,
                qoa_model::mem::STATIC_DATA_BASE + 0x3000 + ((i % 512) as u64) * 8,
            );
        }
        self.mark.clear();
        self.mark.resize(self.records.len(), false);
        let mut work: Vec<ObjId> = Vec::new();
        tracer.roots(&mut |id| work.push(id));
        while let Some(id) = work.pop() {
            if id.index() >= self.mark.len() {
                self.mark.resize(id.index() + 1, false);
            }
            if self.mark[id.index()] {
                continue;
            }
            self.mark[id.index()] = true;
            if let Some(rec) = self.get(id) {
                // Mark bit write + header read.
                e.load(site::MAJOR_MARK, Category::GarbageCollection, rec.addr);
                e.store(site::MAJOR_MARK + 1, Category::GarbageCollection, rec.addr);
                // Field scan.
                e.load_span(site::MAJOR_MARK + 2, Category::GarbageCollection, rec.addr, rec.size);
            }
            tracer.refs(id, &mut |child| work.push(child));
        }
        // Sweep old and large spaces.
        let mut dead = Vec::new();
        for (idx, slot) in self.records.iter_mut().enumerate() {
            if let Some(rec) = slot {
                if rec.space != Space::Young && !self.mark.get(idx).copied().unwrap_or(false) {
                    e.store(site::MAJOR_SWEEP, Category::GarbageCollection, rec.addr);
                    self.stats.old_reclaimed += 1;
                    self.stats.old_live_bytes = self.stats.old_live_bytes.saturating_sub(rec.size);
                    if rec.space == Space::Old {
                        self.old_free
                            .entry(rec.size.next_power_of_two().max(16))
                            .or_default()
                            .push(rec.addr);
                    }
                    dead.push(ObjId(idx as u32));
                    *slot = None;
                }
            }
        }
        self.remembered.retain(|id| {
            self.records
                .get(id.index())
                .copied()
                .flatten()
                .is_some()
        });
        self.major_threshold = (self.stats.old_live_bytes.max(self.cfg.major_threshold)
            * self.cfg.major_growth_num)
            / self.cfg.major_growth_den;
        dead
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::Graph;
    use qoa_model::CountingSink;

    fn emitter(sink: &mut CountingSink) -> Emitter<'_, CountingSink> {
        Emitter::new(sink, Phase::Interpreter, mem::INTERP_CODE_BASE)
    }

    fn heap() -> GenHeap {
        GenHeap::new(GcConfig::with_nursery(64 << 10))
    }

    #[test]
    fn nursery_allocation_is_sequential() {
        let mut h = heap();
        let mut sink = CountingSink::new();
        let mut e = emitter(&mut sink);
        let a = h.alloc(ObjId(0), 32, &mut e);
        let b = h.alloc(ObjId(1), 32, &mut e);
        assert_eq!(b, a + 32);
        assert_eq!(Space::Young, h.space_of(ObjId(0)).expect("ObjId(0) is live after alloc"));
    }

    #[test]
    fn minor_collect_promotes_reachable_and_frees_dead() {
        let mut h = heap();
        let mut sink = CountingSink::new();
        let mut e = emitter(&mut sink);
        h.alloc(ObjId(0), 32, &mut e);
        h.alloc(ObjId(1), 32, &mut e);
        h.alloc(ObjId(2), 32, &mut e);
        let graph = Graph {
            roots: vec![ObjId(0)],
            edges: [(ObjId(0), vec![ObjId(1)])].into_iter().collect(),
        };
        let dead = h.minor_collect(&graph, &mut e);
        assert_eq!(dead, vec![ObjId(2)]);
        assert_eq!(h.space_of(ObjId(0)), Some(Space::Old));
        assert_eq!(h.space_of(ObjId(1)), Some(Space::Old));
        assert_eq!(h.space_of(ObjId(2)), None);
        assert_eq!(h.stats().minor_collections, 1);
        assert_eq!(h.stats().young_reclaimed, 1);
        assert!(h.stats().bytes_promoted >= 64);
        assert_eq!(h.nursery_headroom(), h.config().nursery_size);
    }

    #[test]
    fn nursery_addresses_are_reused_after_collection() {
        let mut h = heap();
        let mut sink = CountingSink::new();
        let mut e = emitter(&mut sink);
        let a = h.alloc(ObjId(0), 32, &mut e);
        let graph = Graph::default(); // nothing reachable
        h.minor_collect(&graph, &mut e);
        let b = h.alloc(ObjId(1), 32, &mut e);
        assert_eq!(a, b, "nursery bump must reset");
    }

    #[test]
    fn remembered_set_keeps_young_objects_alive() {
        let mut h = heap();
        let mut sink = CountingSink::new();
        let mut e = emitter(&mut sink);
        // Promote parent to old space first.
        h.alloc(ObjId(0), 32, &mut e);
        let g0 = Graph { roots: vec![ObjId(0)], edges: Default::default() };
        h.minor_collect(&g0, &mut e);
        assert_eq!(h.space_of(ObjId(0)), Some(Space::Old));
        // Young child referenced only from the old parent.
        h.alloc(ObjId(1), 32, &mut e);
        h.write_barrier(ObjId(0), ObjId(1), &mut e);
        // Note: roots deliberately DO NOT include the parent this time —
        // only the remembered set can save the child.
        let g1 = Graph {
            roots: vec![],
            edges: [(ObjId(0), vec![ObjId(1)])].into_iter().collect(),
        };
        let dead = h.minor_collect(&g1, &mut e);
        assert!(dead.is_empty(), "child must survive via remembered set");
        assert_eq!(h.space_of(ObjId(1)), Some(Space::Old));
    }

    #[test]
    fn without_barrier_hidden_young_object_dies() {
        // The converse of the test above: no barrier call, no survival.
        let mut h = heap();
        let mut sink = CountingSink::new();
        let mut e = emitter(&mut sink);
        h.alloc(ObjId(0), 32, &mut e);
        let g0 = Graph { roots: vec![ObjId(0)], edges: Default::default() };
        h.minor_collect(&g0, &mut e);
        h.alloc(ObjId(1), 32, &mut e);
        let g1 = Graph {
            roots: vec![],
            edges: [(ObjId(0), vec![ObjId(1)])].into_iter().collect(),
        };
        let dead = h.minor_collect(&g1, &mut e);
        assert_eq!(dead, vec![ObjId(1)]);
    }

    #[test]
    fn large_objects_bypass_the_nursery() {
        let mut h = heap();
        let mut sink = CountingSink::new();
        let mut e = emitter(&mut sink);
        let big = h.config().large_threshold + 1;
        h.alloc(ObjId(0), big, &mut e);
        assert_eq!(h.space_of(ObjId(0)), Some(Space::Large));
        // A minor collection with no roots must NOT free a large object.
        let dead = h.minor_collect(&Graph::default(), &mut e);
        assert!(dead.is_empty());
        // A major collection does.
        let dead = h.major_collect(&Graph::default(), &mut e);
        assert_eq!(dead, vec![ObjId(0)]);
    }

    #[test]
    fn major_collect_reclaims_unreachable_old_objects() {
        let mut h = heap();
        let mut sink = CountingSink::new();
        let mut e = emitter(&mut sink);
        h.alloc(ObjId(0), 32, &mut e);
        h.alloc(ObjId(1), 32, &mut e);
        let g = Graph { roots: vec![ObjId(0), ObjId(1)], edges: Default::default() };
        h.minor_collect(&g, &mut e);
        assert_eq!(h.live_objects(), 2);
        // Now only obj 0 is rooted.
        let g2 = Graph { roots: vec![ObjId(0)], edges: Default::default() };
        let dead = h.major_collect(&g2, &mut e);
        assert_eq!(dead, vec![ObjId(1)]);
        assert_eq!(h.stats().major_collections, 1);
        assert_eq!(h.live_objects(), 1);
    }

    #[test]
    fn old_space_blocks_are_reused_after_major() {
        let mut h = heap();
        let mut sink = CountingSink::new();
        let mut e = emitter(&mut sink);
        h.alloc(ObjId(0), 32, &mut e);
        let g = Graph { roots: vec![ObjId(0)], edges: Default::default() };
        h.minor_collect(&g, &mut e);
        let old_addr = h.addr_of(ObjId(0)).expect("ObjId(0) survives the minor collection");
        h.major_collect(&Graph::default(), &mut e);
        // New young object promoted into the freed old block.
        h.alloc(ObjId(1), 32, &mut e);
        let g1 = Graph { roots: vec![ObjId(1)], edges: Default::default() };
        h.minor_collect(&g1, &mut e);
        assert_eq!(h.addr_of(ObjId(1)), Some(old_addr));
    }

    #[test]
    fn gc_ops_carry_gc_phase() {
        let mut h = heap();
        let mut sink = CountingSink::new();
        {
            let mut e = emitter(&mut sink);
            h.alloc(ObjId(0), 64, &mut e);
            let g = Graph { roots: vec![ObjId(0)], edges: Default::default() };
            h.minor_collect(&g, &mut e);
        }
        assert!(sink.by_phase[Phase::GcMinor] > 0);
        assert!(sink.by_category[Category::GarbageCollection] > 0);
    }

    #[test]
    fn needs_minor_respects_headroom() {
        let mut h = GenHeap::new(GcConfig::with_nursery(4096));
        let mut sink = CountingSink::new();
        let mut e = emitter(&mut sink);
        assert!(!h.needs_minor(1024));
        h.alloc(ObjId(0), 4000, &mut e);
        assert!(h.needs_minor(1024));
    }

    #[test]
    #[should_panic(expected = "nursery exhausted")]
    fn alloc_past_nursery_panics() {
        let mut h = GenHeap::new(GcConfig::with_nursery(4096));
        let mut sink = CountingSink::new();
        let mut e = emitter(&mut sink);
        h.alloc(ObjId(0), 4000, &mut e);
        h.alloc(ObjId(1), 1024, &mut e);
    }

    #[test]
    fn survival_rate_tracks_promotion() {
        let mut h = heap();
        let mut sink = CountingSink::new();
        let mut e = emitter(&mut sink);
        for i in 0..10 {
            h.alloc(ObjId(i), 32, &mut e);
        }
        // Half survive.
        let g = Graph {
            roots: (0..5).map(ObjId).collect(),
            edges: Default::default(),
        };
        h.minor_collect(&g, &mut e);
        let rate = h.stats().survival_rate();
        assert!((rate - 0.5).abs() < 1e-9, "rate = {rate}");
    }
}
