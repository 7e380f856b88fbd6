//! A fast, deterministic hasher for the simulator's index maps.
//!
//! The memory model keys its page store and armed-fault table by small
//! integer addresses; `std`'s default SipHash spends most of its time on
//! DoS resistance the simulator does not need (keys come from the simulated
//! address space, not an adversary). This is the Fx multiply-rotate hash
//! used by rustc: one rotate, one xor, one multiply per word, fully
//! deterministic across runs and platforms — so swapping it in cannot
//! change any simulated number, only wall-clock time. (The maps it backs
//! are never iterated for output, so even iteration order is immaterial.)
//!
//! It also holds [`splitmix64`], the one seeded bit mixer every crate's
//! generators and property tests draw from.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Multiplier from Fx hash (derived from the golden ratio, as in rustc).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// The Fx multiply-rotate hasher state.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            let mut w = [0u8; 8];
            w.copy_from_slice(c);
            self.add_to_hash(u64::from_le_bytes(w));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut w = [0u8; 8];
            w[..rem.len()].copy_from_slice(rem);
            self.add_to_hash(u64::from_le_bytes(w));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add_to_hash(n as u64);
    }

    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.add_to_hash(n as u64);
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add_to_hash(n as u64);
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add_to_hash(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add_to_hash(n as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// A `BuildHasher` producing [`FxHasher`]s (zero-sized, `Default`).
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` keyed with [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// One SplitMix64 step: advance `state` and return the next 64 bits. Tiny
/// and seedable; it fills `apps::rng::Rng`'s state, draws the crash-point
/// and fault schedules, and drives the property tests.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(v: &T) -> u64 {
        FxBuildHasher::default().hash_one(v)
    }

    #[test]
    fn deterministic_across_builders() {
        // Unlike RandomState, two independently-built maps hash identically.
        assert_eq!(hash_of(&0xdead_beefu64), hash_of(&0xdead_beefu64));
        assert_eq!(hash_of(&"line"), hash_of(&"line"));
    }

    #[test]
    fn distinguishes_nearby_keys() {
        // Adjacent page numbers (the dominant key pattern) must not collide.
        let h: Vec<u64> = (0u64..64).map(|k| hash_of(&k)).collect();
        for i in 0..h.len() {
            for j in (i + 1)..h.len() {
                assert_ne!(h[i], h[j], "keys {i} and {j} collide");
            }
        }
    }

    #[test]
    fn map_roundtrip() {
        let mut m: FxHashMap<u64, u64> = FxHashMap::default();
        for k in 0..1000u64 {
            m.insert(k, k * 3);
        }
        for k in 0..1000u64 {
            assert_eq!(m.get(&k), Some(&(k * 3)));
        }
    }
}
