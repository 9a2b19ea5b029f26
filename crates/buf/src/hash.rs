//! A fixed hasher for tables keyed by ids the kernel minted itself.
//!
//! std's `HashMap` defaults to SipHash-1-3 under a per-process random
//! seed: protection against keys an adversary chose, paid on every
//! probe, and a draw of OS entropy the pure core must not make. The
//! kernel's hot tables — the unified cache, the VM window, descriptor
//! liveness (and the checksum cache's flat index, which is not a
//! [`FixedMap`] but hashes with [`FixedState`]) — are keyed by file,
//! chunk, pool, connection and domain ids that the kernel allocated,
//! and the one string-keyed table (the §4.2 metadata cache) stores only
//! names the file store already resolved, bounded by its capacity. For
//! those, [`FixedHasher`] is a multiply–rotate fold per word with one
//! avalanche at the end: a few cycles per key, no seed, the same table
//! layout in every run.
//!
//! Not for keys from outside the program: it has no collision
//! resistance.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use crate::digest::splitmix64;

/// 2^64 / φ, odd: the Fibonacci-hashing multiplier.
const K: u64 = 0x9e37_79b9_7f4a_7c15;

/// The word-at-a-time hasher behind [`FixedMap`].
#[derive(Debug, Default, Clone, Copy)]
pub struct FixedHasher(u64);

impl FixedHasher {
    #[inline]
    fn mix(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for FixedHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.mix(u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
        }
        let tail = words.remainder();
        if !tail.is_empty() {
            // The length rides in the top byte the tail cannot reach,
            // so "ab" and "ab\0" fold differently.
            let mut w = [0u8; 8];
            w[..tail.len()].copy_from_slice(tail);
            w[7] = tail.len() as u8;
            self.mix(u64::from_le_bytes(w));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.mix(v as u64);
    }

    #[inline]
    fn write_u16(&mut self, v: u16) {
        self.mix(v as u64);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.mix(v as u64);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.mix(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.mix(v as u64);
    }

    /// The avalanche ([`splitmix64`]'s finalizer, as shard routing
    /// uses). A multiply only carries upwards: the low bits of the
    /// folded state depend on the low bits of the keys alone, and
    /// hashbrown picks the bucket from the low bits and the control
    /// tag from the top seven. Page-strided offsets and `j·4096`
    /// connection ids would otherwise share a handful of buckets.
    #[inline]
    fn finish(&self) -> u64 {
        splitmix64(self.0)
    }
}

/// The seed-free `BuildHasher` of [`FixedHasher`].
pub type FixedState = BuildHasherDefault<FixedHasher>;

/// A `HashMap` probed through [`FixedHasher`]. Iteration order is a
/// function of the insertion history, not of a process seed — still,
/// sort before folding one into a digest.
pub type FixedMap<K, V> = HashMap<K, V, FixedState>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BufferId, ChunkId, Generation, PoolId};
    use std::hash::{BuildHasher, Hash};

    /// Distinct low-16-bit buckets and top-7-bit tags (the two things
    /// hashbrown reads off a hash) over 2^16 keys.
    fn spread<T: Hash>(keys: impl Iterator<Item = T>) -> (usize, usize) {
        let state = FixedState::default();
        let mut buckets = vec![false; 1 << 16];
        let mut tags = [false; 128];
        let mut n = 0;
        for k in keys {
            let h = state.hash_one(k);
            buckets[(h & 0xffff) as usize] = true;
            tags[(h >> 57) as usize] = true;
            n += 1;
        }
        assert_eq!(n, 1 << 16);
        (
            buckets.iter().filter(|&&b| b).count(),
            tags.iter().filter(|&&t| t).count(),
        )
    }

    /// The key shapes the kernel's tables actually hold must keep
    /// spreading (cf. `shard_of_conn`'s uniformity regression): a
    /// uniform hash fills 1 − 1/e ≈ 63 % of 2^16 buckets with 2^16
    /// keys; a plain multiply without the final avalanche leaves
    /// strided keys in 16.
    #[test]
    fn structured_keys_spread() {
        const N: u64 = 1 << 16;
        let shapes: [(&str, (usize, usize)); 4] = [
            ("sequential file ids", spread(1..=N)),
            (
                "page-strided buffer offsets",
                spread((0..N).map(|j| BufferId {
                    chunk: ChunkId(j / 16),
                    offset: (j % 16) as u32 * 4096,
                })),
            ),
            ("j·4096 conn ids", spread((0..N).map(|j| j * 4096))),
            (
                "small-range ⟨pool, chunk, generation⟩",
                spread((0..N).map(|j| {
                    (
                        PoolId((j % 8) as u32),
                        ChunkId(j / 8 % 1024),
                        Generation(j / 8192),
                    )
                })),
            ),
        ];
        for (shape, (buckets, tags)) in shapes {
            assert!(
                buckets * 100 >= 55 * (1 << 16),
                "{shape}: {buckets} of 65536 buckets"
            );
            assert!(tags >= 120, "{shape}: {tags} of 128 tags");
        }
    }

    #[test]
    fn byte_strings_fold_their_length() {
        let state = FixedState::default();
        assert_ne!(state.hash_one("ab"), state.hash_one("ab\0"));
        assert_ne!(state.hash_one("/f000001"), state.hash_one("/f000002"));
        // No seed: a fresh state hashes identically.
        assert_eq!(
            state.hash_one("/index.html"),
            FixedState::default().hash_one("/index.html")
        );
    }
}
