//! `TraceBuffer::simulate_ooo` reads the cache levels and mispredicts an
//! earlier replay recorded under the same cache geometry and predictor
//! tables. These tests hold it to the live replay,
//! `trace.replay(&mut OooCore::new(cfg))`, byte for byte: across the Fig. 7
//! sweep in either order, from threads sharing one trace, on a clone, on a
//! trace grown after its outcomes were recorded, and at configurations
//! that differ from a recorded one in a single key field.

use qoa_model::{Category, MicroOp, OpKind, OpSink, Pc, Phase};
use qoa_uarch::{ExecutionStats, OooCore, TraceBuffer, UarchConfig};
use std::sync::{Arc, Barrier};

/// xorshift64: a fixed, dependency-free op stream.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Appends `bytecodes` interpreter-shaped steps to `trace`: an indirect
/// dispatch into one of 96 handlers spread over 96 kB of code (more than
/// the L1I holds), loads from a hot stack, from 8192 objects 320 B apart
/// and along three conflict ladders, an allocation stream of stores
/// wrapping through 6 MB, a data-dependent conditional branch, an
/// indirect jump with a stable target per handler, and calls whose
/// nesting occasionally overflows the return stack. Every cache level and
/// every kind of mispredict is reached at some Fig. 7 point.
fn interpret(trace: &mut TraceBuffer, rng: &mut Rng, bytecodes: u64) {
    let op = |pc: u64, kind: OpKind, phase: Phase| MicroOp {
        pc: Pc(pc),
        kind,
        category: Category::Execute,
        phase,
    };
    const CODE: u64 = 0x40_0000;
    const STACK: u64 = 0x7_0000_0000;
    const HEAP: u64 = 0x5_0000_0000;
    const NURSERY: u64 = 0x6_0000_0000;
    // Conflict ladders, each cycled through: `(first line, stride, lines)`.
    // Their outcomes turn on associativity. All share one L1 set with the
    // 12-line ladder, whose lines also share one L2 set and one L3 set (16
    // ways hold them, 8 do not); the 3-line ladder fits one L2 set at 4
    // ways but not 2; the 6-line ladder fits its own L1 set at 8 ways but
    // not 4.
    const LADDERS: [(u64, u64, u64); 3] = [
        (0x8_0000_0000, 256 << 10, 12),
        (0x8_0000_2000, 128 << 10, 3),
        (0x8_0000_0040, 128 << 10, 6),
    ];
    let mut bump = 0u64;
    let mut depth = 0u64;
    for step in 0..bytecodes {
        let handler = CODE + 0x1_0000 + rng.below(96) * 1024;
        let phase = if rng.below(8) == 0 { Phase::GcMinor } else { Phase::Interpreter };
        trace.op(op(CODE, OpKind::Load { addr: STACK + rng.below(64) * 8, size: 8 }, phase));
        trace.op(op(
            CODE + 4,
            OpKind::Branch { taken: true, target: Pc(handler), indirect: true },
            phase,
        ));
        for i in 0..rng.below(6) {
            let kind = match rng.below(5) {
                0 => OpKind::Mul,
                1 => OpKind::FpAlu,
                _ => OpKind::Alu,
            };
            trace.op(op(handler + i * 16, kind, phase));
        }
        let object = HEAP + rng.below(8192) * 320;
        trace.op(op(handler + 92, OpKind::Load { addr: object, size: 8 }, phase));
        let other = HEAP + rng.below(8192) * 320;
        trace.op(op(handler + 96, OpKind::Load { addr: other, size: 8 }, phase));
        if rng.below(3) == 0 {
            bump = (bump + 48) % (6 << 20);
            trace.op(op(handler + 100, OpKind::Store { addr: NURSERY + bump, size: 8 }, phase));
        }
        for (i, (first, stride, lines)) in LADDERS.into_iter().enumerate() {
            let addr = first + (step % lines) * stride;
            trace.op(op(handler + 84 + i as u64 * 4, OpKind::Load { addr, size: 8 }, phase));
        }
        let taken = (object >> 6) & 1 == 1 || rng.below(4) == 0;
        trace.op(op(
            handler + 104,
            OpKind::Branch { taken, target: Pc(handler + 128), indirect: false },
            phase,
        ));
        // A virtual call through the handler's own, stable target.
        trace.op(op(
            handler + 116,
            OpKind::Branch { taken: true, target: Pc(handler + 512), indirect: true },
            phase,
        ));
        if rng.below(4) == 0 && depth < 40 {
            depth += 1;
            let callee = CODE + 0x3_0000 + rng.below(8) * 256;
            trace.op(op(
                handler + 108,
                OpKind::Call { target: Pc(callee), indirect: false },
                phase,
            ));
            trace.op(op(callee, OpKind::Div, phase));
        } else if depth > 0 && rng.below(3) == 0 {
            depth -= 1;
            trace.op(op(handler + 112, OpKind::Ret, phase));
        }
    }
}

fn program() -> TraceBuffer {
    let mut trace = TraceBuffer::new();
    interpret(&mut trace, &mut Rng(0x9e37_79b9_7f4a_7c15), 4_000);
    trace
}

/// The 36 points of the Fig. 7 sweep (`qoa_core::sweeps::SweepParam`'s
/// grid), applied to the Table I baseline.
fn fig7_points() -> Vec<UarchConfig> {
    let base = UarchConfig::skylake;
    let mut points = Vec::new();
    points.extend([2, 4, 8, 16, 32].map(|w| base().with_issue_width(w)));
    points.extend([1, 2, 4, 8, 16].map(|h| base().with_branch_scale(h as f64 / 2.0)));
    points.extend((18..=24).map(|log| base().with_llc_size(1 << log)));
    points.extend((6..=12).map(|log| base().with_line_size(1 << log)));
    points.extend([50, 100, 200, 400].map(|l| base().with_mem_latency(l)));
    points.extend((0..8).map(|i| base().with_mem_bandwidth(200 << i)));
    points
}

fn live(trace: &TraceBuffer, cfg: &UarchConfig) -> ExecutionStats {
    let mut core = OooCore::new(cfg);
    trace.replay(&mut core);
    core.finish()
}

/// Replays `trace` at every point in order and checks each against the
/// live replay.
fn assert_matches_live<'a>(trace: &TraceBuffer, points: impl IntoIterator<Item = &'a UarchConfig>) {
    for (i, cfg) in points.into_iter().enumerate() {
        assert_eq!(trace.simulate_ooo(cfg), live(trace, cfg), "replay {i} differs at {cfg:?}");
    }
}

#[test]
fn the_program_reaches_every_outcome() {
    let trace = program();
    for cfg in [UarchConfig::skylake(), UarchConfig::skylake().with_line_size(4096)] {
        let s = live(&trace, &cfg);
        assert!(s.l1i.misses > 0 && s.l1d.misses > 0, "{s:?}");
        assert!(s.l2.misses > 0 && s.llc.misses > 0 && s.dram_bytes > 0, "{s:?}");
        assert!(s.branch.direction_mispredicts > 0 && s.branch.target_mispredicts > 0, "{s:?}");
    }
    let llc_misses = |size| live(&trace, &UarchConfig::skylake().with_llc_size(size)).llc.misses;
    assert!(llc_misses(256 << 10) > llc_misses(16 << 20), "the LLC sweep changes nothing");
}

#[test]
fn memoized_replay_matches_live_across_the_sweep() {
    assert_matches_live(&program(), &fig7_points());
}

#[test]
fn memoized_replay_matches_live_in_reverse_order() {
    assert_matches_live(&program(), fig7_points().iter().rev());
}

#[test]
fn threads_sharing_one_trace_match_live() {
    let trace = program();
    let points = fig7_points();
    let expected: Vec<ExecutionStats> = points.iter().map(|cfg| live(&trace, cfg)).collect();
    let trace = Arc::new(trace);
    let start = Barrier::new(4);
    std::thread::scope(|scope| {
        for w in 0..4 {
            let (trace, points, expected, start) = (Arc::clone(&trace), &points, &expected, &start);
            scope.spawn(move || {
                start.wait();
                // Each worker walks the sweep from a different point.
                for k in 0..points.len() {
                    let i = (k + w * 9) % points.len();
                    assert_eq!(trace.simulate_ooo(&points[i]), expected[i], "point {i}");
                }
            });
        }
    });
}

#[test]
fn a_clone_replays_like_the_original() {
    let points = fig7_points();
    let original = program();
    assert_matches_live(&original, &points);
    let copy = original.clone();
    drop(original);
    assert_matches_live(&copy, points.iter().rev());
}

#[test]
fn a_trace_grown_after_recording_matches_live() {
    let points = fig7_points();
    let mut trace = program();
    assert_matches_live(&trace, &points);
    interpret(&mut trace, &mut Rng(7), 1_000);
    assert_matches_live(&trace, &points);
}

#[test]
fn every_key_field_separates_recorded_outcomes() {
    // Each variant differs from the baseline in one field that decides
    // cache levels or mispredicts; none may reuse the baseline's outcomes.
    let base = UarchConfig::skylake;
    let mut variants = Vec::new();
    for level in 0..4 {
        let cache = |c: &mut UarchConfig| match level {
            0 => c.l1i,
            1 => c.l1d,
            2 => c.l2,
            _ => c.l3,
        };
        let mut set = |edit: &dyn Fn(&mut qoa_uarch::CacheConfig)| {
            let mut c = base();
            let mut geometry = cache(&mut c);
            edit(&mut geometry);
            match level {
                0 => c.l1i = geometry,
                1 => c.l1d = geometry,
                2 => c.l2 = geometry,
                _ => c.l3 = geometry,
            }
            variants.push(c);
        };
        set(&|g| g.size /= 8);
        set(&|g| g.assoc /= 2);
        set(&|g| g.line *= 2);
    }
    let mut branch = |edit: &dyn Fn(&mut qoa_uarch::BranchConfig)| {
        let mut c = base();
        edit(&mut c.branch);
        variants.push(c);
    };
    branch(&|b| b.l1_entries = 16);
    branch(&|b| b.l2_entries = 16);
    branch(&|b| b.history_bits = 1);
    branch(&|b| b.btb_entries = 16);
    branch(&|b| b.ras_depth = 2);

    let trace = program();
    // Two baseline replays: the second records its outcomes.
    assert_matches_live(&trace, &[base(), base()]);
    for cfg in &variants {
        assert_ne!(live(&trace, cfg), live(&trace, &base()), "variant changes nothing: {cfg:?}");
    }
    assert_matches_live(&trace, &variants);
}
