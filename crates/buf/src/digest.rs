//! Stable state digests for deterministic-replay checks.
//!
//! The pure kernel core exposes a `state_hash()` so that a replayed
//! command journal can be checked bit-for-bit against the live run. The
//! hash must be stable across processes and runs, so it cannot use
//! `std::collections::hash_map::DefaultHasher` (randomly seeded) or any
//! pointer identity. [`Fnv64`] is a plain FNV-1a fold; every crate that
//! owns a piece of kernel state implements a `digest(&mut Fnv64)` helper
//! over it, always iterating unordered containers in sorted key order.

use crate::aggregate::Aggregate;

/// A 64-bit FNV-1a hasher with a fixed, seed-free initial state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv64(u64);

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

impl Fnv64 {
    /// Creates a hasher at the canonical FNV offset basis.
    pub fn new() -> Self {
        Fnv64(FNV_OFFSET)
    }

    /// Folds raw bytes into the digest.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        let mut h = self.0;
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(FNV_PRIME);
        }
        self.0 = h;
    }

    /// Folds a `u64` (little-endian) into the digest.
    pub fn write_u64(&mut self, v: u64) {
        self.write_bytes(&v.to_le_bytes());
    }

    /// Folds a `u32` into the digest.
    pub fn write_u32(&mut self, v: u32) {
        self.write_bytes(&v.to_le_bytes());
    }

    /// Folds a `usize` into the digest (always as 64 bits).
    pub fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    /// Folds a boolean into the digest.
    pub fn write_bool(&mut self, v: bool) {
        self.write_bytes(&[v as u8]);
    }

    /// Folds a string (length-prefixed) into the digest.
    pub fn write_str(&mut self, s: &str) {
        self.write_u64(s.len() as u64);
        self.write_bytes(s.as_bytes());
    }

    /// The digest value so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64::new()
    }
}

/// Finalizer of the splitmix64 generator: a full-avalanche 64-bit mixer.
///
/// Every output bit depends on every input bit, so taking `mix % n` (or
/// any bit subset) of the result distributes sequential or structured
/// ids uniformly. Used for shard routing — the PR 5 lesson is that
/// truncating an id (`id & 0xFF`) aliases structured id spaces, so all
/// routing decisions must pass the *full* 64-bit id through this mixer
/// first.
#[inline]
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Folds an aggregate's identity and contents into a digest: length, then
/// per slice the ⟨pool, buffer, generation, view offset, view length⟩
/// tuple followed by the viewed bytes. A lazily sealed buffer's bytes
/// are streamed from its producer, so digesting leaves it unread.
pub fn digest_aggregate(agg: &Aggregate, h: &mut Fnv64) {
    h.write_u64(agg.len());
    h.write_u64(agg.num_slices() as u64);
    for s in agg.slices() {
        h.write_u32(s.pool().0);
        h.write_u64(s.id().chunk.0);
        h.write_u32(s.id().offset);
        h.write_u64(s.generation().0);
        h.write_u64(s.offset_in_buffer() as u64);
        h.write_u64(s.len() as u64);
        let (inner, off, len) = s.parts();
        inner.stream(off, len, &mut |run| h.write_bytes(run));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Acl, BufferPool, DomainId, PoolId};

    #[test]
    fn fnv_is_stable_and_order_sensitive() {
        let mut a = Fnv64::new();
        a.write_u64(1);
        a.write_u64(2);
        let mut b = Fnv64::new();
        b.write_u64(2);
        b.write_u64(1);
        assert_ne!(a.finish(), b.finish());
        let mut c = Fnv64::new();
        c.write_u64(1);
        c.write_u64(2);
        assert_eq!(a.finish(), c.finish());
        // Known-good FNV-1a of the empty input.
        assert_eq!(Fnv64::new().finish(), 0xcbf2_9ce4_8422_2325);
    }

    fn pool() -> BufferPool {
        BufferPool::new(PoolId(1), Acl::with_domain(DomainId(1)), 4096)
    }

    #[test]
    fn aggregate_digest_depends_on_identity_and_bytes() {
        let pool = pool();
        let a = Aggregate::from_bytes(&pool, b"hello");
        let b = Aggregate::from_bytes(&pool, b"hello");
        let mut ha = Fnv64::new();
        digest_aggregate(&a, &mut ha);
        let mut hb = Fnv64::new();
        digest_aggregate(&b, &mut hb);
        // Same bytes, different buffers: identity differs.
        assert_ne!(ha.finish(), hb.finish());
        // Same aggregate digests identically.
        let mut ha2 = Fnv64::new();
        digest_aggregate(&a, &mut ha2);
        assert_eq!(ha.finish(), ha2.finish());
    }

    fn ramp(seed: u64, offset: u64, len: u64, sink: &mut dyn FnMut(&[u8])) {
        let bytes: Vec<u8> = (offset..offset + len).map(|i| (seed + i) as u8).collect();
        sink(&bytes);
    }

    #[test]
    fn a_lazy_aggregate_digests_like_its_eager_twin_without_being_read() {
        let digest = |agg: &Aggregate| {
            let mut h = Fnv64::new();
            digest_aggregate(agg, &mut h);
            h.finish()
        };
        let (eager_pool, lazy_pool) = (pool(), pool());
        let eager = Aggregate::fill_aligned(&eager_pool, 10_000, 64, |at, mut b| {
            ramp(5, at, b.capacity() as u64, &mut |run| b.put(run));
            b.freeze()
        });
        let lazy =
            Aggregate::fill_aligned(&lazy_pool, 10_000, 64, |at, b| b.freeze_lazy(ramp, 5, at));
        // A view that starts and ends inside buffers streams its range.
        let (eager_mid, lazy_mid) = (eager.range(100, 9_000), lazy.range(100, 9_000));
        assert_eq!(digest(&lazy), digest(&eager));
        assert_eq!(digest(&lazy_mid.unwrap()), digest(&eager_mid.unwrap()));
        assert!(lazy.slices().all(|s| !s.is_produced()));
        assert_eq!(lazy.to_vec(), eager.to_vec());
        assert_eq!(digest(&lazy), digest(&eager), "produced, same digest");
    }
}
