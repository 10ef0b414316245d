//! Simulated address-space layout.
//!
//! All run-time state lives at *simulated* 64-bit addresses so that the
//! cache hierarchy in `qoa-uarch` observes realistic access streams: the
//! interpreter's static code, the JIT code region, the C stack used by the
//! modeled calling convention, the reference-counted heap, and the
//! generational GC's nursery / old space. Segment placement guarantees that
//! distinct kinds of state never alias.

/// Base of the interpreter's static code (the "CPython binary" text section).
pub const INTERP_CODE_BASE: u64 = 0x0040_0000;
/// Size reserved for interpreter code.
pub const INTERP_CODE_SIZE: u64 = 0x0040_0000; // 4 MiB

/// Base of the native "C extension" library code.
pub const NATIVE_CODE_BASE: u64 = 0x0100_0000;
/// Size reserved for native library code.
pub const NATIVE_CODE_SIZE: u64 = 0x0100_0000; // 16 MiB

/// Base of run-time static data (interned names, dispatch tables, profiling
/// counters).
pub const STATIC_DATA_BASE: u64 = 0x0300_0000;
/// Size reserved for static data.
pub const STATIC_DATA_SIZE: u64 = 0x0100_0000; // 16 MiB

/// Base of the JIT code region (traces are laid out sequentially here).
pub const JIT_CODE_BASE: u64 = 0x2000_0000;
/// Size reserved for JIT code.
pub const JIT_CODE_SIZE: u64 = 0x1000_0000; // 256 MiB

/// End of the highest code segment. The interpreter, native and JIT code
/// segments — and so every [`Pc`](crate::Pc) a run-time emits — lie below
/// it. A recorded trace stores the pc in 32 bits, so this bound must stay
/// at or below 4 GiB; the assertion below checks it at compile time.
pub const CODE_END: u64 = JIT_CODE_BASE + JIT_CODE_SIZE;
const _: () = assert!(CODE_END <= 1 << 32);

/// Base (top) of the simulated C stack; the stack grows down from here.
pub const C_STACK_TOP: u64 = 0x7fff_ffff_f000;
/// Size reserved for the C stack.
pub const C_STACK_SIZE: u64 = 0x0080_0000; // 8 MiB

/// Base of the reference-counted heap (CPython object heap).
pub const RC_HEAP_BASE: u64 = 0x1_0000_0000;
/// Size reserved for the reference-counted heap.
pub const RC_HEAP_SIZE: u64 = 0x1_0000_0000; // 4 GiB

/// Base of the generational GC's nursery.
pub const NURSERY_BASE: u64 = 0x5_0000_0000;
/// Maximum nursery size supported by the layout (the paper sweeps up to
/// 128 MB).
pub const NURSERY_MAX_SIZE: u64 = 0x2000_0000; // 512 MiB headroom

/// Base of the generational GC's old space.
pub const OLD_SPACE_BASE: u64 = 0x6_0000_0000;
/// Size reserved for the old space.
pub const OLD_SPACE_SIZE: u64 = 0x2_0000_0000; // 8 GiB

/// Base of the large-object space (objects allocated outside the nursery).
pub const LARGE_OBJECT_BASE: u64 = 0x9_0000_0000;
/// Size reserved for the large-object space.
pub const LARGE_OBJECT_SIZE: u64 = 0x1_0000_0000; // 4 GiB

/// A named region of the simulated address space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Segment {
    /// Interpreter static code.
    InterpCode,
    /// Native library code.
    NativeCode,
    /// Run-time static data.
    StaticData,
    /// JIT-generated code.
    JitCode,
    /// The simulated C stack.
    CStack,
    /// Reference-counted heap.
    RcHeap,
    /// Generational GC nursery.
    Nursery,
    /// Generational GC old space.
    OldSpace,
    /// Large-object space.
    LargeObject,
}

impl Segment {
    /// All segments.
    pub const ALL: [Segment; 9] = [
        Segment::InterpCode,
        Segment::NativeCode,
        Segment::StaticData,
        Segment::JitCode,
        Segment::CStack,
        Segment::RcHeap,
        Segment::Nursery,
        Segment::OldSpace,
        Segment::LargeObject,
    ];

    /// Inclusive base address of the segment.
    pub fn base(self) -> u64 {
        match self {
            Segment::InterpCode => INTERP_CODE_BASE,
            Segment::NativeCode => NATIVE_CODE_BASE,
            Segment::StaticData => STATIC_DATA_BASE,
            Segment::JitCode => JIT_CODE_BASE,
            Segment::CStack => C_STACK_TOP - C_STACK_SIZE,
            Segment::RcHeap => RC_HEAP_BASE,
            Segment::Nursery => NURSERY_BASE,
            Segment::OldSpace => OLD_SPACE_BASE,
            Segment::LargeObject => LARGE_OBJECT_BASE,
        }
    }

    /// Segment size in bytes.
    pub fn size(self) -> u64 {
        match self {
            Segment::InterpCode => INTERP_CODE_SIZE,
            Segment::NativeCode => NATIVE_CODE_SIZE,
            Segment::StaticData => STATIC_DATA_SIZE,
            Segment::JitCode => JIT_CODE_SIZE,
            Segment::CStack => C_STACK_SIZE,
            Segment::RcHeap => RC_HEAP_SIZE,
            Segment::Nursery => NURSERY_MAX_SIZE,
            Segment::OldSpace => OLD_SPACE_SIZE,
            Segment::LargeObject => LARGE_OBJECT_SIZE,
        }
    }

    /// Exclusive end address of the segment.
    pub fn end(self) -> u64 {
        self.base() + self.size()
    }

    /// Whether `addr` falls inside this segment.
    pub fn contains(self, addr: u64) -> bool {
        addr >= self.base() && addr < self.end()
    }

    /// Classifies an address, if it falls in any known segment.
    pub fn of(addr: u64) -> Option<Segment> {
        Segment::ALL.into_iter().find(|s| s.contains(addr))
    }

    /// Short label for reports.
    pub fn label(self) -> &'static str {
        match self {
            Segment::InterpCode => "interp-code",
            Segment::NativeCode => "native-code",
            Segment::StaticData => "static-data",
            Segment::JitCode => "jit-code",
            Segment::CStack => "c-stack",
            Segment::RcHeap => "rc-heap",
            Segment::Nursery => "nursery",
            Segment::OldSpace => "old-space",
            Segment::LargeObject => "large-object",
        }
    }
}

impl std::fmt::Display for Segment {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn segments_are_disjoint() {
        for (i, a) in Segment::ALL.iter().enumerate() {
            for b in &Segment::ALL[i + 1..] {
                let disjoint = a.end() <= b.base() || b.end() <= a.base();
                assert!(disjoint, "{a} overlaps {b}");
            }
        }
    }

    #[test]
    fn classification_matches_contains() {
        for s in Segment::ALL {
            assert_eq!(Segment::of(s.base()), Some(s));
            assert_eq!(Segment::of(s.end() - 1), Some(s));
        }
        assert_eq!(Segment::of(0), None);
    }

    #[test]
    fn code_segments_end_below_the_32_bit_pc_bound() {
        for s in [Segment::InterpCode, Segment::NativeCode, Segment::JitCode] {
            assert!(s.end() <= CODE_END, "{s} ends above CODE_END");
        }
        assert_eq!(CODE_END, 0x3000_0000);
        assert!(CODE_END - 1 <= u64::from(u32::MAX));
    }

    #[test]
    fn nursery_headroom_covers_paper_sweep() {
        // The paper sweeps nursery sizes 512 kB .. 128 MB.
        assert!(Segment::Nursery.size() >= 128 << 20);
    }
}
