//! Golden values for the stack's seeded primitives. Every journal, golden
//! and pinned cycle count depends on these exact streams, so a moved
//! constant or seed salt fails here first, with the raw value that moved,
//! instead of as a diff in some downstream golden.

use qoa_chaos::{fnv1a, seeded_schedule, SplitMix64};
use qoa_core::executor::cell_seed;
use qoa_core::journal::CellKey;
use qoa_core::transport::VirtualRetryPolicy;

#[test]
fn splitmix64_streams_are_pinned() {
    let first8 = |seed| {
        let mut rng = SplitMix64::new(seed);
        [(); 8].map(|()| rng.next_u64())
    };
    assert_eq!(
        first8(0),
        [
            0xe220_a839_7b1d_cdaf,
            0x6e78_9e6a_a1b9_65f4,
            0x06c4_5d18_8009_454f,
            0xf88b_b8a8_724c_81ec,
            0x1b39_896a_51a8_749b,
            0x53cb_9f0c_747e_a2ea,
            0x2c82_9abe_1f45_32e1,
            0xc584_133a_c916_ab3c,
        ]
    );
    assert_eq!(
        first8(42),
        [
            0xbdd7_3226_2feb_6e95,
            0x28ef_e333_b266_f103,
            0x4752_6757_130f_9f52,
            0x581c_e1ff_0e4a_e394,
            0x09bc_585a_2448_23f2,
            0xde44_31fa_3c80_db06,
            0x37e9_671c_4537_6d5d,
            0xccf6_35ee_9e9e_2fa4,
        ]
    );
}

#[test]
fn fnv1a_is_pinned() {
    assert_eq!(fnv1a("".bytes()), 0xcbf2_9ce4_8422_2325);
    assert_eq!(fnv1a("go".bytes()), 0x0895_3907_b53f_670b);
}

#[test]
fn seed_derivations_are_pinned() {
    let key = CellKey::new("go", "CPython", "nursery", "4096");
    assert_eq!(cell_seed(7, &key), 0xe40c_e614_23f5_d0f1);
    assert_eq!(qoa_fuzz::program_seed(7, 3), 0xde1a_2f50_3644_e647);
    assert_eq!(
        seeded_schedule(42, 10_000, 4, 6),
        vec![(3859, 0), (3251, 0), (4926, 2), (2006, 2)]
    );
    assert_eq!(VirtualRetryPolicy::default().backoff(42, 7, 3), 7856);
}
