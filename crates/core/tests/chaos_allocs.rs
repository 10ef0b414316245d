//! Host-allocation test of chaos recovery: a checkpoint marks the trace
//! instead of copying it, so a recovered run allocates about what the
//! machine's own state needs, not one trace prefix per checkpoint and
//! per restore.
//!
//! A counting global allocator tallies the bytes each thread asks for.

use qoa_chaos::{FaultKind, FaultPlan};
use qoa_core::{capture, capture_chaos, oracle_check, ChaosOptions, RuntimeConfig};
use qoa_model::RuntimeKind;
use qoa_uarch::UarchConfig;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    // Fails only while the thread's locals are being torn down.
    let _ = BYTES.try_with(|c| c.set(c.get() + bytes as u64));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const SRC: &str = "t = 0\nfor i in range(4000):\n    t = t + i * 3\nresult = t\n";

#[test]
fn a_recovered_run_allocates_less_than_half_again_its_trace() {
    let rt = RuntimeConfig::new(RuntimeKind::CPython);
    let baseline = capture(SRC, &rt).expect("runs");
    let steps = baseline.vm.bytecodes;
    // One fault late in the run keeps the runner checkpointing until then.
    let plan = FaultPlan::single(steps * 9 / 10, FaultKind::FuelTrip);
    let opts = ChaosOptions::new(plan).with_checkpoint_every(steps / 8);
    // A second capture, dropped at once, leaves this thread a spare trace
    // buffer large enough for the chaos run, so the measured run does not
    // count the growth of its own trace.
    drop(capture(SRC, &rt).expect("runs"));

    let before = BYTES.with(Cell::get);
    let (run, outcome) = capture_chaos(SRC, &rt, &opts).expect("recovers");
    let allocated = BYTES.with(Cell::get) - before;

    assert!(outcome.checkpoints_written >= 3, "{outcome:?}");
    assert!(outcome.restores >= 1, "{outcome:?}");
    assert_eq!(oracle_check(&baseline, &run, &UarchConfig::skylake()), None);
    let trace_bytes = (run.trace.len() * 16) as u64;
    assert!(
        allocated * 2 < trace_bytes * 3,
        "{allocated} bytes allocated for a {trace_bytes}-byte trace ({} checkpoints, {} restores)",
        outcome.checkpoints_written,
        outcome.restores
    );
}
