//! A deterministic hasher for identity keys.
//!
//! Code identities (`Rc` addresses), bytecode locations and the built-in
//! method table's `(type, name)` pairs are probed on the interpreter's
//! and the JIT driver's hot paths. The standard library's SipHash is
//! keyed per process and costs tens of nanoseconds per probe; these keys
//! are a few machine words or a few bytes, and none is chosen by an
//! adversary, so a multiply-rotate mix will do. The hash does not depend
//! on the process, so iteration order is repeatable too.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Multiply-rotate hasher over machine words.
#[derive(Debug, Default, Clone, Copy)]
pub struct IdHasher(u64);

impl IdHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

impl Hasher for IdHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.add(u64::from_le_bytes(w.try_into().expect("chunks of 8 bytes")));
        }
        for &b in words.remainder() {
            self.add(b as u64);
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add(n as u64);
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(n as u64);
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        // The product's entropy sits in its high bits; rotate them down
        // to where the table takes its bucket index (addresses end in
        // zeros, so the low bits of the product are all alike).
        self.0.rotate_left(26)
    }
}

/// A `HashMap` keyed by identities.
pub type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// A `HashSet` of identities.
pub type IdSet<K> = HashSet<K, BuildHasherDefault<IdHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(v: T) -> u64 {
        BuildHasherDefault::<IdHasher>::default().hash_one(v)
    }

    #[test]
    fn aligned_addresses_spread_over_low_bits() {
        let buckets: HashSet<u64> = (0..64u64).map(|i| hash_of(0x5555_0000 + i * 16) & 63).collect();
        assert!(buckets.len() > 32, "{} of 64 buckets used", buckets.len());
    }

    #[test]
    fn hashing_is_deterministic_and_order_sensitive() {
        assert_eq!(hash_of((1usize, 2usize)), hash_of((1usize, 2usize)));
        assert_ne!(hash_of((1usize, 2usize)), hash_of((2usize, 1usize)));
    }
}
