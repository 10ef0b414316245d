//! Host-allocation regression test: in steady state the VM's per-bytecode
//! path (reference counting, name resolution, dispatch and the JIT
//! driver) allocates nothing on the host heap, so a run's allocation
//! count does not grow with its iteration count.
//!
//! A counting global allocator tallies allocations per thread, so tests
//! running in parallel do not see each other's.

use qoa_heap::GcConfig;
use qoa_jit::{JitConfig, PyPyVm};
use qoa_model::CountingSink;
use qoa_vm::{HeapMode, Vm, VmConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Attribute load/store on an instance, global load/store, list
/// subscript/store and dict subscript, `n` times. Every value stays a
/// cached small int, so the loop allocates no guest objects either (a
/// guest allocation may legitimately grow the slab or run a collection).
fn program(n: u32) -> String {
    format!(
        "class Box:
    def __init__(self):
        self.x = 0
reps = [0] * {n}
o = Box()
xs = [0, 1, 2, 3]
d = {{'a': 1, 'b': 2}}
g = 0
for r in reps:
    o.x = 1 - o.x
    g = o.x + d['a']
    xs[o.x] = g
    total = xs[1] + d['b'] - g
"
    )
}

/// Host allocations made while `run` executes, on this thread only.
fn allocs(run: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    run();
    ALLOCS.with(Cell::get) - before
}

fn run_vm(heap: HeapMode, n: u32) {
    let code = qoa_frontend::compile(&program(n)).expect("compiles");
    let mut vm = Vm::new(VmConfig { heap, ..VmConfig::default() }, CountingSink::new());
    vm.load_program(&code);
    vm.run().expect("runs");
    assert!(vm.global_int("total").is_some());
}

fn run_jit(n: u32) {
    let code = qoa_frontend::compile(&program(n)).expect("compiles");
    let mut vm = PyPyVm::new(JitConfig::default(), CountingSink::new());
    vm.load_program(&code);
    vm.run().expect("runs");
    assert!(vm.jit_stats().trace_executions > u64::from(n) / 2, "{:?}", vm.jit_stats());
}

/// Asserts that doubling the iteration count adds no host allocations.
fn assert_flat(label: &str, run: impl Fn(u32)) {
    const N: u32 = 2_000;
    let once = allocs(|| run(N));
    let twice = allocs(|| run(2 * N));
    assert_eq!(
        twice, once,
        "{label}: {once} host allocations at {N} iterations, {twice} at {}",
        2 * N
    );
}

#[test]
fn rc_heap_loop_allocates_nothing_per_iteration() {
    assert_flat("rc heap", |n| run_vm(HeapMode::Rc, n));
}

#[test]
fn gen_heap_loop_allocates_nothing_per_iteration() {
    assert_flat("gen heap", |n| run_vm(HeapMode::Gen(GcConfig::default()), n));
}

#[test]
fn jit_loop_allocates_nothing_per_iteration() {
    assert_flat("jit", run_jit);
}
