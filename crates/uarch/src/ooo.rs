//! Approximate out-of-order core model used for the §V parameter sweeps.
//!
//! A one-pass, trace-driven OOO approximation in the spirit of ZSim's OOO
//! model: dispatch is bounded by issue width, the ROB bounds the in-flight
//! window, loads overlap through a bounded set of miss-status registers,
//! branch mispredicts flush the front end, and instruction fetch stalls on
//! I-cache misses. Dependences between micro-ops are synthesized
//! deterministically from the static PC (interpreter code is chain-heavy,
//! which is what produces the paper's "low instruction-level parallelism"
//! finding — CPI barely improves past a 4-wide issue).
//!
//! Exact per-instruction attribution is *not* well-defined on an OOO
//! pipeline (the paper makes the same observation and uses the simple core
//! for Fig. 4); this core attributes the monotone retire-clock deltas, which
//! is good enough for the per-phase lines of Fig. 7.
//!
//! Each op runs in two halves. The outcome half decides which cache level
//! satisfies its fetch and data access and whether a control transfer is
//! mispredicted; it depends only on the op stream, the cache geometry and
//! the predictor tables. The timing half (dispatch, ROB, MSHRs, the DRAM
//! channel's queue, retire-clock attribution) turns those outcomes into
//! cycles. A core fed as an [`OpSink`] asks the models for the outcomes;
//! a replay of a trace can instead take them from an earlier replay under
//! the same geometry and tables (see [`crate::trace`]), and run the timing
//! half alone.

use crate::branch::BranchUnit;
use crate::cache::{HitLevel, MemoryHierarchy};
use crate::config::UarchConfig;
use crate::stats::ExecutionStats;
use qoa_model::{MicroOp, OpKind, OpSink};

const Q: u64 = 256; // fixed-point scale for fractional dispatch slots

/// Approximate out-of-order core.
#[derive(Debug)]
pub struct OooCore {
    mem: MemoryHierarchy,
    branch: BranchUnit,
    stats: ExecutionStats,
    /// Completion time (cycles, q8) of each ROB slot; op `n` owns slot
    /// `n % rob.len()`.
    rob: Vec<u64>,
    /// The slot of the next op: the op count modulo the ROB size.
    slot: usize,
    ops: u64,
    next_dispatch_q8: u64,
    dispatch_step_q8: u64,
    fetch_ready_q8: u64,
    retire_clock_q8: u64,
    last_fetch_line: u64,
    line_mask: u64,
    mshr: Vec<u64>, // completion times (q8) of outstanding load misses
    load_latency: u64,
}

/// Where [`OooCore::step`] takes an op's cache levels from.
pub(crate) trait CacheOutcomes {
    /// The level that satisfies op `n`'s instruction fetch (`instruction`)
    /// or data access at `addr`. An op's fetch is asked about before its
    /// data access.
    fn level(
        &mut self,
        mem: &mut MemoryHierarchy,
        n: u64,
        addr: u64,
        instruction: bool,
    ) -> HitLevel;
}

/// Where [`OooCore::step`] takes a branch, call or return's mispredict
/// from.
pub(crate) trait BranchOutcomes {
    /// Whether `op`, a control transfer, was mispredicted. Control
    /// transfers are asked about in trace order.
    fn mispredicted(&mut self, unit: &mut BranchUnit, op: &MicroOp) -> bool;
}

/// The live outcome source: walks the caches and consults (and trains)
/// the predictor.
pub(crate) struct Models;

impl CacheOutcomes for Models {
    #[inline(always)]
    fn level(
        &mut self,
        mem: &mut MemoryHierarchy,
        _n: u64,
        addr: u64,
        instruction: bool,
    ) -> HitLevel {
        mem.level(addr, instruction)
    }
}

impl BranchOutcomes for Models {
    #[inline(always)]
    fn mispredicted(&mut self, unit: &mut BranchUnit, op: &MicroOp) -> bool {
        match op.kind {
            OpKind::Branch { taken, target, indirect } => {
                unit.branch(op.pc, taken, target, indirect)
            }
            OpKind::Call { target, indirect } => unit.call(op.pc, target, indirect),
            _ => unit.ret(op.pc),
        }
    }
}

impl OooCore {
    /// Builds an OOO core from the configuration.
    pub fn new(cfg: &UarchConfig) -> Self {
        cfg.validate();
        let rob_size = cfg.core.rob_size.max(1);
        let mshr_slots = (cfg.core.load_queue / 7).clamp(2, 24);
        OooCore {
            mem: MemoryHierarchy::new(cfg),
            branch: BranchUnit::new(&cfg.branch),
            stats: ExecutionStats::default(),
            rob: vec![0; rob_size],
            slot: 0,
            ops: 0,
            next_dispatch_q8: 0,
            dispatch_step_q8: (Q / cfg.core.issue_width as u64).max(1),
            fetch_ready_q8: 0,
            retire_clock_q8: 0,
            last_fetch_line: u64::MAX,
            line_mask: !(cfg.l1i.line - 1),
            mshr: vec![0; mshr_slots],
            load_latency: cfg.l1d.latency.saturating_sub(1).max(1),
        }
    }

    /// Finishes the run and returns the accumulated statistics.
    pub fn finish(mut self) -> ExecutionStats {
        self.stats.cycles = self.retire_clock_q8 >> 8;
        self.stats.l1i = self.mem.l1i_stats();
        self.stats.l1d = self.mem.l1d_stats();
        self.stats.l2 = self.mem.l2_stats();
        self.stats.llc = self.mem.llc_stats();
        self.stats.branch = self.branch.stats();
        self.stats.dram_bytes = self.mem.dram_bytes();
        self.stats
    }

    /// Read-only view of statistics accumulated so far (cycles and cache
    /// counters are folded in by [`OooCore::finish`]).
    pub fn stats(&self) -> &ExecutionStats {
        &self.stats
    }

    /// Current cycle estimate (for progress reporting).
    pub fn cycles_so_far(&self) -> u64 {
        self.retire_clock_q8 >> 8
    }

    /// Times one op. Its cache levels come from `caches` and its
    /// mispredict from `branches`: the models themselves on the live
    /// path, or outcomes an earlier replay of the same trace recorded.
    /// Either way the timing half (dispatch, ROB, MSHRs, the DRAM
    /// channel's queue, retire-clock attribution) runs here.
    #[inline(always)]
    pub(crate) fn step(
        &mut self,
        op: MicroOp,
        caches: &mut impl CacheOutcomes,
        branches: &mut impl BranchOutcomes,
    ) {
        let n = self.ops;
        self.ops += 1;
        let slot = self.slot;
        self.slot = if slot + 1 == self.rob.len() { 0 } else { slot + 1 };

        // --- Front end ----------------------------------------------------
        let mut dispatch = self.next_dispatch_q8.max(self.fetch_ready_q8);
        // ROB full: cannot dispatch until the op that owns this slot retires.
        let rob_ready = self.rob[slot];
        if rob_ready > dispatch {
            dispatch = rob_ready;
        }
        // Instruction fetch, once per new line.
        let line = op.pc.0 & self.line_mask;
        if line != self.last_fetch_line {
            self.last_fetch_line = line;
            let level = caches.level(&mut self.mem, n, op.pc.0, true);
            let penalty = self.mem.penalty(level, dispatch >> 8);
            if penalty > 0 {
                // Fetch bubble: front end stalls for the miss.
                self.fetch_ready_q8 = dispatch + (penalty << 8);
                dispatch = self.fetch_ready_q8;
            }
        }
        self.next_dispatch_q8 = dispatch + self.dispatch_step_q8;

        // --- Dependences ---------------------------------------------------
        // Synthetic producer at distance 1..=3, derived from the static PC:
        // the same static instruction always has the same dependence shape.
        let dist = 1 + ((op.pc.0 >> 2) % 3);
        let mut start = dispatch;
        if n >= dist {
            // Op `n - dist`'s slot, without dividing by the ROB size.
            let size = self.rob.len();
            let back = if (dist as usize) < size { dist as usize } else { dist as usize % size };
            let dep = if slot >= back { slot - back } else { slot + size - back };
            let dep_done = self.rob[dep];
            if dep_done > start {
                start = dep_done;
            }
        }

        // --- Execute --------------------------------------------------------
        let mut latency: u64 = match op.kind {
            OpKind::Alu => 1,
            OpKind::FpAlu => 3,
            OpKind::Mul => 3,
            OpKind::Div => 16,
            OpKind::Load { .. } => self.load_latency,
            OpKind::Store { .. } => 1,
            OpKind::Branch { .. } | OpKind::Call { .. } | OpKind::Ret => 1,
        };
        match op.kind {
            OpKind::Load { addr, .. } => {
                let level = caches.level(&mut self.mem, n, addr, false);
                let penalty = self.mem.penalty(level, start >> 8);
                if penalty > 0 {
                    // Need a free MSHR slot to overlap the miss.
                    let (idx, &earliest) = self
                        .mshr
                        .iter()
                        .enumerate()
                        .min_by_key(|(_, &t)| t)
                        .expect("mshr is non-empty");
                    if earliest > start {
                        start = earliest;
                    }
                    let done = start + (penalty << 8);
                    self.mshr[idx] = done;
                    latency += penalty;
                }
            }
            OpKind::Store { addr, .. } => {
                // The store itself retires through the store buffer, but a
                // write-allocate miss occupies a miss-status register and
                // DRAM bandwidth; once the MSHRs saturate, dispatch stalls.
                // This is what makes allocation streams that overflow the
                // LLC expensive (the paper's nursery-size cliff).
                let level = caches.level(&mut self.mem, n, addr, false);
                let penalty = self.mem.penalty(level, start >> 8);
                if penalty > 0 {
                    let (idx, &earliest) = self
                        .mshr
                        .iter()
                        .enumerate()
                        .min_by_key(|(_, &t)| t)
                        .expect("mshr is non-empty");
                    if earliest > start {
                        start = earliest;
                    }
                    self.mshr[idx] = start + (penalty << 8);
                }
            }
            OpKind::Branch { .. } | OpKind::Call { .. } | OpKind::Ret => {
                // The predictor is always consulted (and trained); only a
                // mispredict stalls the front end.
                let mispredicted = branches.mispredicted(&mut self.branch, &op);
                if mispredicted {
                    let resolve = start + (1 << 8);
                    self.fetch_ready_q8 =
                        resolve + (self.branch.mispredict_penalty << 8);
                }
            }
            _ => {}
        }

        let complete = start + (latency << 8);
        self.rob[slot] = complete;

        // --- Retire-clock attribution ---------------------------------------
        self.stats.instructions += 1;
        self.stats.instructions_by_category[op.category] += 1;
        self.stats.instructions_by_phase[op.phase] += 1;
        if complete > self.retire_clock_q8 {
            let delta = (complete >> 8) - (self.retire_clock_q8 >> 8);
            self.retire_clock_q8 = complete;
            self.stats.cycles_by_category[op.category] += delta;
            self.stats.cycles_by_phase[op.phase] += delta;
        }
    }
}

impl OpSink for OooCore {
    #[inline]
    fn op(&mut self, op: MicroOp) {
        self.step(op, &mut Models, &mut Models);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qoa_model::{Category, Pc, Phase};

    fn exec_op(pc: u64, kind: OpKind) -> MicroOp {
        MicroOp { pc: Pc(pc), kind, category: Category::Execute, phase: Phase::Interpreter }
    }

    /// A synthetic hot loop: mix of ALU, loads to a small working set, and a
    /// well-predicted loop branch.
    fn run_loop(cfg: &UarchConfig, iters: u64, spread: u64) -> ExecutionStats {
        let mut core = OooCore::new(cfg);
        for i in 0..iters {
            for j in 0..8u64 {
                core.op(exec_op(0x400000 + j * 4, OpKind::Alu));
            }
            core.op(exec_op(
                0x400020,
                OpKind::Load { addr: 0x5_0000_0000 + (i * 64) % spread, size: 8 },
            ));
            core.op(exec_op(
                0x400024,
                OpKind::Branch { taken: true, target: Pc(0x400000), indirect: false },
            ));
        }
        core.finish()
    }

    #[test]
    fn wider_issue_helps_then_saturates() {
        let base = UarchConfig::skylake();
        let cpi2 = run_loop(&base.clone().with_issue_width(2), 2000, 4096).cpi();
        let cpi4 = run_loop(&base.clone().with_issue_width(4), 2000, 4096).cpi();
        let cpi16 = run_loop(&base.clone().with_issue_width(16), 2000, 4096).cpi();
        let cpi32 = run_loop(&base.with_issue_width(32), 2000, 4096).cpi();
        assert!(cpi2 >= cpi4, "2-wide {cpi2} should be >= 4-wide {cpi4}");
        // Low ILP: going from 16 to 32 must change almost nothing.
        assert!((cpi16 - cpi32).abs() / cpi16 < 0.02, "16w={cpi16} 32w={cpi32}");
    }

    #[test]
    fn large_working_set_raises_cpi() {
        let cfg = UarchConfig::skylake();
        let small = run_loop(&cfg, 4000, 16 << 10).cpi();
        let large = run_loop(&cfg, 4000, 64 << 20).cpi();
        assert!(large > small * 1.2, "small={small} large={large}");
    }

    #[test]
    fn slower_memory_raises_cpi_only_when_missing() {
        let fast = UarchConfig::skylake().with_mem_latency(50);
        let slow = UarchConfig::skylake().with_mem_latency(400);
        // Small working set: only cold misses see the latency.
        let f_small = run_loop(&fast, 50_000, 4 << 10).cpi();
        let s_small = run_loop(&slow, 50_000, 4 << 10).cpi();
        // Large working set: every iteration misses.
        let f_large = run_loop(&fast, 2000, 64 << 20).cpi();
        let s_large = run_loop(&slow, 2000, 64 << 20).cpi();
        assert!(s_large > f_large * 1.3, "fast={f_large} slow={s_large}");
        // Relative sensitivity must be far higher when missing (the paper's
        // actual claim shape).
        let sens_small = s_small / f_small;
        let sens_large = s_large / f_large;
        assert!(
            sens_large > sens_small * 1.2,
            "small sens {sens_small}, large sens {sens_large}"
        );
        assert!(sens_small < 1.15, "small working set too sensitive: {sens_small}");
    }

    #[test]
    fn low_bandwidth_throttles_streaming() {
        let wide = UarchConfig::skylake().with_mem_bandwidth(25600);
        let narrow = UarchConfig::skylake().with_mem_bandwidth(200);
        let w = run_loop(&wide, 2000, 64 << 20).cpi();
        let n = run_loop(&narrow, 2000, 64 << 20).cpi();
        assert!(n > w * 2.0, "wide={w} narrow={n}");
    }

    #[test]
    fn mispredicted_indirect_branches_cost_cycles() {
        let cfg = UarchConfig::skylake();
        let run = |targets: u64| {
            let mut core = OooCore::new(&cfg);
            for i in 0..4000u64 {
                core.op(exec_op(0x400000, OpKind::Alu));
                // Indirect branch cycling through `targets` distinct targets.
                core.op(exec_op(
                    0x400100,
                    OpKind::Branch {
                        taken: true,
                        target: Pc(0x410000 + (i % targets) * 256),
                        indirect: true,
                    },
                ));
            }
            core.finish()
        };
        let stable = run(1).cpi();
        let wild = run(13).cpi();
        assert!(wild > stable * 1.3, "stable={stable} wild={wild}");
    }

    #[test]
    fn streaming_stores_beyond_llc_are_throttled() {
        // Write-allocate misses occupy MSHRs: a store stream that
        // overflows the LLC (a too-large nursery) must cost more than one
        // that stays resident.
        let cfg = UarchConfig::skylake();
        let run = |span: u64| {
            let mut core = OooCore::new(&cfg);
            for pass in 0..4u64 {
                let _ = pass;
                for i in 0..40_000u64 {
                    core.op(exec_op(0x400000, OpKind::Alu));
                    core.op(exec_op(
                        0x400004,
                        OpKind::Store { addr: 0x5_0000_0000 + (i * 64) % span, size: 8 },
                    ));
                }
            }
            core.finish().cpi()
        };
        let resident = run(512 << 10); // fits the 2 MB LLC
        let streaming = run(64 << 20); // overflows it
        assert!(
            streaming > resident * 1.15,
            "resident={resident} streaming={streaming}"
        );
    }

    #[test]
    fn instruction_and_cycle_accounting_consistent() {
        let s = run_loop(&UarchConfig::skylake(), 500, 4096);
        assert_eq!(s.instructions, 500 * 10);
        assert_eq!(s.cycles_by_phase.total(), s.cycles);
        assert_eq!(s.cycles_by_category.total(), s.cycles);
        assert!(s.cpi() >= 0.25, "cpi = {}", s.cpi());
    }
}
