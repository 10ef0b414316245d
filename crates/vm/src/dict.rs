//! Open-addressing hash table for guest dicts, globals and namespaces.
//!
//! Name resolution in CPython is a dict probe sequence — the *name
//! resolution* overhead of Table II. To make that cost visible to the
//! cache simulator, lookups report exactly which slots they touched; the
//! VM turns each probe into a simulated load of `buffer + slot * 24`
//! (hash, key, value words per slot, like CPython's `PyDictEntry`).
//!
//! Keys are restricted to hashable guest values (ints, strings, bools,
//! `None`, and tuples thereof), captured as a self-contained [`Key`] so
//! equality needs no VM context.

use crate::object::ObjRef;
use qoa_chaos::fnv1a;
use std::rc::Rc;

/// A self-contained hashable key.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Key {
    /// Integer key (bools hash like ints, as in Python).
    Int(i64),
    /// String key.
    Str(Rc<str>),
    /// `None` key.
    None,
    /// Tuple of hashable keys.
    Tuple(Vec<Key>),
}

impl Key {
    /// A stable 64-bit hash (FNV-1a based).
    pub fn hash(&self) -> u64 {
        match self {
            Key::Int(v) => fnv1a(v.to_le_bytes()),
            Key::Str(s) => fnv1a(s.bytes()),
            Key::None => 0x517c_c1b7_2722_0a95,
            Key::Tuple(items) => {
                let mut h = 0x345b_91d1_c2f1_a7a3u64;
                for item in items {
                    h = h.rotate_left(13) ^ item.hash();
                }
                h
            }
        }
    }
}

/// Number of slots a probe sequence touched, plus their indices.
pub type Probes = Vec<u32>;

#[derive(Debug, Clone)]
struct Slot {
    hash: u64,
    key: Key,
    /// The guest object used as key (kept alive for iteration and GC).
    key_obj: ObjRef,
    value: ObjRef,
}

/// An open-addressing dict with CPython-style perturbed probing.
#[derive(Debug, Clone)]
pub struct DictObj {
    slots: Vec<Option<Slot>>,
    mask: u64,
    used: usize,
    /// Bumped on every mutation; the tracing JIT guards cached global
    /// lookups on this, exactly like PyPy's dict version tags.
    pub version: u64,
}

impl Default for DictObj {
    fn default() -> Self {
        Self::new()
    }
}

const INITIAL_SLOTS: usize = 8;

impl DictObj {
    /// Creates an empty dict (8 slots, like CPython).
    pub fn new() -> Self {
        DictObj {
            slots: vec![None; INITIAL_SLOTS],
            mask: (INITIAL_SLOTS - 1) as u64,
            used: 0,
            version: 0,
        }
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.used
    }

    /// Whether the dict is empty.
    pub fn is_empty(&self) -> bool {
        self.used == 0
    }

    /// Current capacity in slots (for buffer sizing).
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Looks up `key`, reporting the probe sequence.
    pub fn lookup(&self, key: &Key, probes: &mut Probes) -> Option<ObjRef> {
        probes.clear();
        let hash = key.hash();
        let mut perturb = hash;
        let mut i = hash & self.mask;
        loop {
            probes.push(i as u32);
            match &self.slots[i as usize] {
                None => return None,
                Some(s) if s.hash == hash && s.key == *key => return Some(s.value),
                _ => {
                    perturb >>= 5;
                    i = (i.wrapping_mul(5).wrapping_add(perturb).wrapping_add(1)) & self.mask;
                }
            }
        }
    }

    /// Inserts or replaces, reporting probes. Returns the previous value.
    pub fn insert(
        &mut self,
        key: Key,
        key_obj: ObjRef,
        value: ObjRef,
        probes: &mut Probes,
    ) -> Option<ObjRef> {
        probes.clear();
        self.version = self.version.wrapping_add(1);
        if (self.used + 1) * 3 >= self.slots.len() * 2 {
            self.grow();
        }
        let hash = key.hash();
        let mut perturb = hash;
        let mut i = hash & self.mask;
        loop {
            probes.push(i as u32);
            match &mut self.slots[i as usize] {
                slot @ None => {
                    *slot = Some(Slot { hash, key, key_obj, value });
                    self.used += 1;
                    return None;
                }
                Some(s) if s.hash == hash && s.key == key => {
                    // Replacement keeps the originally stored key object,
                    // exactly like CPython's dict setitem.
                    let old = s.value;
                    s.value = value;
                    return Some(old);
                }
                _ => {
                    perturb >>= 5;
                    i = (i.wrapping_mul(5).wrapping_add(perturb).wrapping_add(1)) & self.mask;
                }
            }
        }
    }

    /// Removes `key`, reporting probes. Returns the removed slot's stored
    /// key object and value.
    ///
    /// Removal re-inserts the displaced cluster (simpler than tombstones
    /// and equivalent for cost accounting at our load factors).
    pub fn remove(&mut self, key: &Key, probes: &mut Probes) -> Option<(ObjRef, ObjRef)> {
        probes.clear();
        let hash = key.hash();
        let mut perturb = hash;
        let mut i = hash & self.mask;
        loop {
            probes.push(i as u32);
            match &self.slots[i as usize] {
                None => return None,
                Some(s) if s.hash == hash && s.key == *key => {
                    let removed = self.slots[i as usize].take().expect("slot present");
                    self.used -= 1;
                    self.version = self.version.wrapping_add(1);
                    // Re-insert everything to repair probe chains.
                    let entries: Vec<Slot> =
                        self.slots.iter_mut().filter_map(|s| s.take()).collect();
                    self.used = 0;
                    let mut scratch = Vec::new();
                    for e in entries {
                        self.insert(e.key, e.key_obj, e.value, &mut scratch);
                        self.version = self.version.wrapping_sub(1);
                    }
                    return Some((removed.key_obj, removed.value));
                }
                _ => {
                    perturb >>= 5;
                    i = (i.wrapping_mul(5).wrapping_add(perturb).wrapping_add(1)) & self.mask;
                }
            }
        }
    }

    fn grow(&mut self) {
        let new_size = (self.slots.len() * 4).max(INITIAL_SLOTS);
        let old = std::mem::replace(&mut self.slots, vec![None; new_size]);
        self.mask = (new_size - 1) as u64;
        self.used = 0;
        let mut scratch = Vec::new();
        for slot in old.into_iter().flatten() {
            self.insert(slot.key, slot.key_obj, slot.value, &mut scratch);
            self.version = self.version.wrapping_sub(1);
        }
    }

    /// The `(key_obj, value)` pair in slot `i` (`None` for an empty slot).
    /// Walking `0..capacity()` visits the pairs in [`DictObj::iter`] order.
    pub fn entry(&self, i: usize) -> Option<(ObjRef, ObjRef)> {
        self.slots[i].as_ref().map(|s| (s.key_obj, s.value))
    }

    /// Iterates `(key_obj, value)` pairs in slot order.
    pub fn iter(&self) -> impl Iterator<Item = (ObjRef, ObjRef)> + '_ {
        self.slots
            .iter()
            .flatten()
            .map(|s| (s.key_obj, s.value))
    }

    /// Snapshot of the key objects (for `keys()` / iteration).
    pub fn key_objs(&self) -> Vec<ObjRef> {
        self.slots.iter().flatten().map(|s| s.key_obj).collect()
    }

    /// Snapshot of the values.
    pub fn values(&self) -> Vec<ObjRef> {
        self.slots.iter().flatten().map(|s| s.value).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn k(s: &str) -> Key {
        Key::Str(Rc::from(s))
    }

    #[test]
    fn insert_lookup_remove_round_trip() {
        let mut d = DictObj::new();
        let mut probes = Vec::new();
        assert_eq!(d.lookup(&k("a"), &mut probes), None);
        assert!(!probes.is_empty());
        d.insert(k("a"), ObjRef(1), ObjRef(10), &mut probes);
        d.insert(k("b"), ObjRef(2), ObjRef(20), &mut probes);
        assert_eq!(d.lookup(&k("a"), &mut probes), Some(ObjRef(10)));
        assert_eq!(d.lookup(&k("b"), &mut probes), Some(ObjRef(20)));
        assert_eq!(d.len(), 2);
        assert_eq!(d.remove(&k("a"), &mut probes).map(|(_, v)| v), Some(ObjRef(10)));
        assert_eq!(d.lookup(&k("a"), &mut probes), None);
        assert_eq!(d.len(), 1);
    }

    #[test]
    fn replacement_returns_old_value() {
        let mut d = DictObj::new();
        let mut probes = Vec::new();
        d.insert(k("x"), ObjRef(1), ObjRef(10), &mut probes);
        let old = d.insert(k("x"), ObjRef(1), ObjRef(11), &mut probes);
        assert_eq!(old, Some(ObjRef(10)));
        assert_eq!(d.len(), 1);
    }

    #[test]
    fn growth_preserves_entries() {
        let mut d = DictObj::new();
        let mut probes = Vec::new();
        for i in 0..1000 {
            d.insert(Key::Int(i), ObjRef(i as u32), ObjRef(i as u32 + 1), &mut probes);
        }
        assert_eq!(d.len(), 1000);
        assert!(d.capacity() >= 1500);
        for i in 0..1000 {
            assert_eq!(
                d.lookup(&Key::Int(i), &mut probes),
                Some(ObjRef(i as u32 + 1)),
                "key {i}"
            );
        }
    }

    #[test]
    fn collisions_lengthen_probe_sequences() {
        let mut d = DictObj::new();
        let mut probes = Vec::new();
        for i in 0..6 {
            d.insert(Key::Int(i), ObjRef(i as u32), ObjRef(0), &mut probes);
        }
        let mut max_probes = 0;
        for i in 0..6 {
            d.lookup(&Key::Int(i), &mut probes);
            max_probes = max_probes.max(probes.len());
        }
        assert!(max_probes >= 1);
    }

    #[test]
    fn version_changes_on_mutation_only() {
        let mut d = DictObj::new();
        let mut probes = Vec::new();
        let v0 = d.version;
        d.lookup(&k("nope"), &mut probes);
        assert_eq!(d.version, v0);
        d.insert(k("a"), ObjRef(1), ObjRef(2), &mut probes);
        assert_ne!(d.version, v0);
    }

    #[test]
    fn tuple_keys_work() {
        let mut d = DictObj::new();
        let mut probes = Vec::new();
        let key = Key::Tuple(vec![Key::Int(1), Key::Str(Rc::from("a"))]);
        d.insert(key.clone(), ObjRef(5), ObjRef(6), &mut probes);
        assert_eq!(d.lookup(&key, &mut probes), Some(ObjRef(6)));
        let other = Key::Tuple(vec![Key::Int(1), Key::Str(Rc::from("b"))]);
        assert_eq!(d.lookup(&other, &mut probes), None);
    }

    #[test]
    fn key_hashes_are_stable_and_spread() {
        assert_eq!(Key::Int(7).hash(), Key::Int(7).hash());
        assert_ne!(Key::Int(7).hash(), Key::Int(8).hash());
        assert_ne!(k("a").hash(), k("b").hash());
        assert_ne!(Key::Int(0).hash(), Key::None.hash());
        // Slots feed simulated addresses, so the FNV-1a values are pinned.
        assert_eq!(k("abc").hash(), 0xe71f_a219_0541_574b);
        assert_eq!(Key::Int(7).hash(), 0x4bd7_a317_074c_5b62);
        assert_eq!(Key::Int(-1).hash(), 0x8cf5_1a8b_fca3_883d);
    }

    #[test]
    fn iteration_yields_all_pairs() {
        let mut d = DictObj::new();
        let mut probes = Vec::new();
        for i in 0..20 {
            d.insert(Key::Int(i), ObjRef(i as u32), ObjRef(100 + i as u32), &mut probes);
        }
        let pairs: Vec<_> = d.iter().collect();
        assert_eq!(pairs.len(), 20);
        assert_eq!(d.key_objs().len(), 20);
        assert_eq!(d.values().len(), 20);
    }
}
