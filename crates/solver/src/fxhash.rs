//! A fast, deterministic hasher for the engine's per-instruction maps.
//!
//! The keys on the symbolic hot path are small integers and small
//! structs of them (expression ids, interned nodes, page numbers, HL
//! PCs). `std`'s default SipHash with a random seed is built to resist
//! hash flooding and costs tens of nanoseconds per probe on such keys;
//! this Fx-style multiply-rotate hash (the scheme rustc uses for its own
//! tables) costs a few. It is unseeded, so iteration order is the same
//! in every process.
//!
//! Guest programs can steer some keys (addresses, HL PCs), so a hostile
//! guest could in principle force collisions. That degrades a run's speed,
//! never its results, and the time any one session can spend is already
//! bounded by its instruction budget and, in `chef-serve`, by the per-slice
//! watchdog.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// `HashMap` with [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;
/// `HashSet` with [`FxHasher`].
pub type FxHashSet<K> = HashSet<K, FxBuildHasher>;
/// Builds [`FxHasher`]s (no per-map state).
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// Odd multiplier with well-spread bits.
const K: u64 = 0xf135_7aea_2e62_a9c5;
/// Finishing multiplier (2^64 / golden ratio).
const FOLD: u64 = 0x9e37_79b9_7f4a_7c15;

/// Word-at-a-time multiplicative hasher.
#[derive(Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = self.hash.wrapping_add(word).wrapping_mul(K);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add(u64::from_le_bytes(c.try_into().unwrap()));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(buf) ^ ((rest.len() as u64) << 59));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(i as u64);
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add(i as u64);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    /// Folded 128-bit multiply: XOR-ing the product's halves spreads
    /// every input bit over the low bits, where hash tables take their
    /// bucket index. Without it, keys whose low bits are constant (aligned
    /// addresses, shifted PCs) would share a few buckets.
    #[inline]
    fn finish(&self) -> u64 {
        let p = (self.hash as u128) * (FOLD as u128);
        (p as u64) ^ ((p >> 64) as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash<T: Hash>(v: &T) -> u64 {
        FxBuildHasher::default().hash_one(v)
    }

    #[test]
    fn deterministic_and_order_sensitive() {
        assert_eq!(hash(&(1u32, 2u64)), hash(&(1u32, 2u64)));
        assert_ne!(hash(&(1u32, 2u32)), hash(&(2u32, 1u32)));
        assert_ne!(hash(&"ab"), hash(&"ab\0"));
    }

    #[test]
    fn aligned_keys_spread_over_low_bits() {
        // Page-aligned addresses and HL PCs with a constant low half must
        // not pile into a few buckets of a power-of-two table.
        for shift in [0u32, 12, 32, 40] {
            let buckets: FxHashSet<u64> =
                (0..1024u64).map(|k| hash(&(k << shift)) & 1023).collect();
            assert!(
                buckets.len() > 550,
                "shift {shift}: {} buckets",
                buckets.len()
            );
        }
    }
}
