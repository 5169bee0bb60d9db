//! Deterministic hash collections — the one row-id hash.
//!
//! Every `DetHashMap` / `DetHashSet` in the workspace is keyed by a
//! [`crate::RowId`]: the cluster's placement directory and its stripes,
//! each shard archive's slot index, the reservoir's sample
//! index, the tree's sample → leaf map. They all hash through
//! [`DetHasher`], a SplitMix64 finaliser ([`crate::faults::mix64`]) folded
//! over the key's `u64` words: two multiplies and three xor-shifts per id
//! in place of SipHash-1-3's four rounds over a 32-byte state.
//!
//! **Why fixed, not keyed.** `std`'s `RandomState` seeds differ per
//! process *and per instance*, which makes iteration order — and therefore
//! floating-point summation order — irreproducible, and JanusAQP's
//! estimates must be bit-for-bit reproducible under a fixed seed. The
//! archive and reservoir indexes drop their per-instance keys
//! deliberately, too: row ids are assigned by the application, not by an
//! adversary, and the directory in front of every shard already hashed
//! the same ids with a fixed key, so a per-instance key bought nothing.
//!
//! **Why salted.** Shard and stripe placement *also* run `mix64` over the
//! row id: `ShardPolicy::HashById` sends an id to `mix64(id) % shards`, and
//! the directory stripe is bits 32–35 of `mix64(id)`. If the map hash were
//! that same function, every key a shard archive holds would share its low
//! bits (and every key a stripe holds bits 32–35), so each table would use
//! only a fraction of hashbrown's buckets. The seed word [`SALT`] is
//! xor-ed in before the finaliser, which makes the map hash an unrelated
//! function of the id (`det_hash` tests pin the spread).

use crate::faults::mix64;
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Initial state of every [`DetHasher`]; decorrelates the map hash from
/// the `mix64(id)` that shard and stripe placement use.
pub const SALT: u64 = 0x243f_6a88_85a3_08d3;

/// SplitMix64 folded over `u64` words, seeded with [`SALT`].
#[derive(Clone, Copy, Debug)]
pub struct DetHasher {
    state: u64,
}

impl Default for DetHasher {
    #[inline]
    fn default() -> Self {
        DetHasher { state: SALT }
    }
}

impl Hasher for DetHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.state
    }

    #[inline]
    fn write_u64(&mut self, word: u64) {
        self.state = mix64(self.state ^ word);
    }

    /// Bytes fold in as little-endian words, the last one zero-padded.
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }
}

/// Fixed-seed build hasher over [`DetHasher`].
pub type DetBuildHasher = BuildHasherDefault<DetHasher>;

/// `HashMap` with deterministic iteration order across runs.
pub type DetHashMap<K, V> = HashMap<K, V, DetBuildHasher>;

/// `HashSet` with deterministic iteration order across runs.
pub type DetHashSet<T> = HashSet<T, DetBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    #[test]
    fn iteration_order_is_reproducible() {
        let build = || {
            let mut s: DetHashSet<u64> = DetHashSet::default();
            for i in 0..1000 {
                s.insert(i * 7919 % 997);
            }
            s.into_iter().collect::<Vec<_>>()
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn map_order_is_reproducible() {
        let build = || {
            let mut m: DetHashMap<u64, f64> = DetHashMap::default();
            for i in 0..500u64 {
                m.insert(i.wrapping_mul(0x9e3779b9), i as f64);
            }
            m.into_iter().collect::<Vec<_>>()
        };
        assert_eq!(build(), build());
    }

    /// Largest bucket over the low 12 bits of `hash(id)` for the first
    /// 64k ids `keep` admits, as a multiple of the mean bucket load.
    fn worst_bucket(hash: impl Fn(u64) -> u64, keep: impl Fn(u64) -> bool) -> f64 {
        const IDS: usize = 1 << 16;
        const BUCKETS: usize = 1 << 12;
        let mut load = vec![0u32; BUCKETS];
        for id in (0u64..).filter(|&id| keep(id)).take(IDS) {
            load[hash(id) as usize & (BUCKETS - 1)] += 1;
        }
        let max = *load.iter().max().unwrap();
        max as f64 / (IDS / BUCKETS) as f64
    }

    #[test]
    fn map_hash_spreads_the_ids_of_one_shard_and_one_stripe() {
        // A uniform hash fills 4096 buckets at mean 16 like Poisson(16):
        // its fullest bucket exceeds 2× the mean in ~41% of draws but
        // 2.5× in under 0.1%. Crowding one shard's ids into a quarter of
        // the buckets puts the fullest at 4× the mean or more.
        const BOUND: f64 = 2.5;
        let map_hash = |id: u64| DetBuildHasher::default().hash_one(id);
        // One `HashById` shard of 4 and one directory stripe of 16: the
        // placement rules in `janus-cluster`'s router and directory.
        let on_shard = |id: u64| mix64(id).is_multiple_of(4);
        let on_stripe = |id: u64| (mix64(id) >> 32) & 15 == 0;
        for (name, keep) in [
            ("shard", &on_shard as &dyn Fn(u64) -> bool),
            ("stripe", &on_stripe),
        ] {
            let worst = worst_bucket(map_hash, keep);
            assert!(worst <= BOUND, "{name} ids: worst bucket {worst}× the mean");
        }
        // The unsalted placement hash itself does crowd them — the
        // failure the salt exists to avoid.
        assert!(worst_bucket(mix64, on_shard) >= 4.0);
    }
}
