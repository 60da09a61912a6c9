//! A deterministic, DoS-hardening-free hasher for the driver's hot state
//! tables.
//!
//! The simulator's per-attempt and per-wjob maps (`attempts`,
//! `pending_map_ids`, …) are keyed by small integers and tuples of small
//! integers, looked up on every heartbeat. `std`'s default SipHash-1-3
//! spends most of each lookup hashing; since every key here is
//! simulator-internal (never attacker-controlled input), the collision
//! hardening buys nothing. This is the rustc-style Fx multiply-rotate
//! hash: one rotate, one xor, one multiply per word, with fully
//! deterministic output — which also keeps the driver's behaviour
//! independent of `RandomState`'s per-process seeds.
//!
//! Determinism note: swapping the hasher can only change *iteration
//! order* of a map, never its contents. The driver never iterates a
//! [`FastMap`] in an order-sensitive way (its iteration sites sort
//! ids first or fold commutative counters), so simulation results are
//! bit-identical to the SipHash build.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// The 64-bit Fx multiplier (a truncation of π's golden-ratio-like
/// constant, as used by rustc's FxHash).
const K: u64 = 0x517c_c1b7_2722_0a95;

/// A fast, deterministic, non-cryptographic hasher for small
/// simulator-internal keys.
#[derive(Debug, Default, Clone, Copy)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add_to_hash(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.add_to_hash(u64::from_le_bytes(word));
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
}

/// Deterministic `BuildHasher` for [`FxHasher`].
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` on [`FxHasher`]: the driver's hot state tables use this
/// instead of the SipHash default.
pub type FastMap<K, V> = HashMap<K, V, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    #[test]
    fn deterministic_across_builders() {
        let a = FxBuildHasher::default().hash_one((7u64, 9u32));
        let b = FxBuildHasher::default().hash_one((7u64, 9u32));
        assert_eq!(a, b);
        assert_ne!(
            FxBuildHasher::default().hash_one(1u64),
            FxBuildHasher::default().hash_one(2u64)
        );
    }

    #[test]
    fn map_behaves_like_hashmap() {
        let mut m: FastMap<(u64, u32), Vec<u32>> = FastMap::default();
        for i in 0..1_000u64 {
            m.insert((i, (i % 7) as u32), vec![i as u32]);
        }
        assert_eq!(m.len(), 1_000);
        for i in 0..1_000u64 {
            assert_eq!(m.get(&(i, (i % 7) as u32)), Some(&vec![i as u32]));
        }
        assert!(m.remove(&(3, 3)).is_some());
        assert!(!m.contains_key(&(3, 3)));
    }

    #[test]
    fn hashes_byte_tails() {
        // Exercise the non-multiple-of-8 path of `write`.
        let h1 = FxBuildHasher::default().hash_one("abc");
        let h2 = FxBuildHasher::default().hash_one("abd");
        assert_ne!(h1, h2);
    }
}
