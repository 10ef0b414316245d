//! The simple in-order core model used for overhead attribution.
//!
//! Mirrors §IV-B.2 of the paper: *"we use the simple core model and use the
//! number of cycles each instruction takes to execute. In the simple core
//! model, instruction latency is only affected by misses in the instruction
//! and data caches. Otherwise, an instruction takes a single cycle."*
//! Because each instruction's cycles are independent of its neighbours, the
//! per-category attribution is exact — which is why the paper (and this
//! reproduction) use it for the Fig. 4/5/6 breakdowns.

use crate::cache::MemoryHierarchy;
use crate::config::UarchConfig;
use crate::stats::ExecutionStats;
use qoa_model::{MicroOp, OpKind, OpSink};

/// In-order, one-op-per-cycle core with cache-miss stalls.
#[derive(Debug)]
pub struct SimpleCore {
    mem: MemoryHierarchy,
    stats: ExecutionStats,
    last_fetch_line: u64,
    line_mask: u64,
}

impl SimpleCore {
    /// Builds a simple core over the hierarchy described by `cfg`.
    ///
    /// The core/branch parts of the configuration are ignored: the simple
    /// core has no pipeline or predictor, exactly like ZSim's simple model.
    pub fn new(cfg: &UarchConfig) -> Self {
        cfg.validate();
        SimpleCore {
            mem: MemoryHierarchy::new(cfg),
            stats: ExecutionStats::default(),
            last_fetch_line: u64::MAX,
            line_mask: !(cfg.l1i.line - 1),
        }
    }

    /// Finishes the run and returns the accumulated statistics.
    pub fn finish(mut self) -> ExecutionStats {
        self.stats.l1i = self.mem.l1i_stats();
        self.stats.l1d = self.mem.l1d_stats();
        self.stats.l2 = self.mem.l2_stats();
        self.stats.llc = self.mem.llc_stats();
        self.stats.dram_bytes = self.mem.dram_bytes();
        self.stats
    }

    /// Read-only view of the statistics accumulated so far (cache counters
    /// are only folded in by [`SimpleCore::finish`]).
    pub fn stats(&self) -> &ExecutionStats {
        &self.stats
    }
}

impl OpSink for SimpleCore {
    #[inline]
    fn op(&mut self, op: MicroOp) {
        let mut cycles = 1u64;
        // Instruction fetch: charged once per new line, matching a simple
        // fetch unit that streams within a line.
        let line = op.pc.0 & self.line_mask;
        if line != self.last_fetch_line {
            self.last_fetch_line = line;
            cycles += self.mem.fetch(op.pc.0, self.stats.cycles).penalty;
        }
        // Data access.
        if let OpKind::Load { addr, .. } | OpKind::Store { addr, .. } = op.kind {
            cycles += self.mem.data(addr, self.stats.cycles).penalty;
        }
        self.stats.cycles += cycles;
        self.stats.instructions += 1;
        self.stats.cycles_by_category[op.category] += cycles;
        self.stats.instructions_by_category[op.category] += 1;
        self.stats.cycles_by_phase[op.phase] += cycles;
        self.stats.instructions_by_phase[op.phase] += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qoa_model::{Category, Pc, Phase};

    fn op(pc: u64, kind: OpKind, category: Category) -> MicroOp {
        MicroOp { pc: Pc(pc), kind, category, phase: Phase::Interpreter }
    }

    #[test]
    fn alu_ops_on_same_line_take_one_cycle_after_warmup() {
        let mut core = SimpleCore::new(&UarchConfig::skylake());
        core.op(op(0x400000, OpKind::Alu, Category::Execute)); // cold fetch
        let warm_start = core.stats().cycles;
        for i in 0..10 {
            core.op(op(0x400004 + i * 4, OpKind::Alu, Category::Execute));
        }
        let s = core.finish();
        assert_eq!(s.cycles - warm_start, 10);
        assert_eq!(s.instructions, 11);
    }

    #[test]
    fn cache_miss_charges_cycles_to_the_ops_category() {
        let mut core = SimpleCore::new(&UarchConfig::skylake());
        // Warm the fetch line with an Execute op.
        core.op(op(0x400000, OpKind::Alu, Category::Execute));
        core.op(op(
            0x400004,
            OpKind::Load { addr: 0x5_0000_0000, size: 8 },
            Category::Dispatch,
        ));
        let s = core.finish();
        // The cold load went to memory: 1 + L3 + DRAM latency at least.
        assert!(s.cycles_by_category[Category::Dispatch] > 200);
        assert_eq!(s.instructions_by_category[Category::Dispatch], 1);
    }

    #[test]
    fn attribution_is_exact_per_category() {
        let mut core = SimpleCore::new(&UarchConfig::skylake());
        for i in 0..100 {
            let cat = if i % 2 == 0 { Category::Stack } else { Category::Execute };
            core.op(op(0x400000 + (i % 4) * 4, OpKind::Alu, cat));
        }
        let s = core.finish();
        assert_eq!(
            s.cycles,
            s.cycles_by_category.total(),
            "category cycles must sum to total cycles"
        );
        assert_eq!(s.instructions, 100);
    }

    #[test]
    fn phase_attribution_sums_to_total() {
        let mut core = SimpleCore::new(&UarchConfig::skylake());
        for i in 0..50 {
            let phase = if i < 25 { Phase::Interpreter } else { Phase::GcMinor };
            core.op(MicroOp {
                pc: Pc(0x400000 + i * 4),
                kind: OpKind::Alu,
                category: Category::Execute,
                phase,
            });
        }
        let s = core.finish();
        assert_eq!(s.cycles_by_phase.total(), s.cycles);
        assert!(s.cycles_by_phase[Phase::GcMinor] > 0);
    }
}
