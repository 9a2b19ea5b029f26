//! The Internet checksum cache (§3.9).
//!
//! "IO-Lite provides with each buffer a generation number ... this
//! generation number, combined with the buffer's address, provides a
//! systemwide unique identifier for the contents of the buffer", which
//! lets TCP reuse a previously computed checksum whenever the same slice
//! is transmitted again — eliminating "the only remaining data-touching
//! operation on the critical I/O path" for cached documents.
//!
//! The cache is bounded by real per-entry eviction (second-chance /
//! CLOCK over the entry table): when a cold slice arrives at a full
//! cache, it replaces the least-recently-referenced entry instead of
//! flushing the whole map, so the hot-document working set survives
//! cold-tail traffic.
//!
//! # Structure and complexity contract
//!
//! The index is keyed by *buffer identity* ⟨pool, buffer, generation⟩
//! and maps to the head of that buffer's chain: the entries over one
//! buffer (its whole-slice sum and its send-window sub-range sums,
//! typically 1–3) are linked through the slot table by intrusive
//! `prev`/`next` indices, and ⟨offset, len⟩ is compared while walking
//! the chain. The index is one flat table of 8-byte entries (a fully
//! mixed 32-bit hash and the head slot + 1; 1 MB for 2¹⁶ buffers),
//! probed linearly, a tag match confirmed against the head slot's key;
//! deletion shifts back (no tombstones), and it doubles at half load.
//!
//! * **Hit:** O(1) expected — one hash, a short probe and chain walk.
//! * **Replacement:** amortized O(1) — one hand sweep can clear up to a
//!   full table of reference bits; unlinking the victim and linking the
//!   newcomer touch only their chain neighbours and probe clusters.
//! * **Invalidation** ([`ChecksumCache::invalidate_aggregate`]):
//!   O(entries on the retired buffers), allocation-free — never a
//!   function of how many unrelated sums are resident.
//! * **Layout:** a pure function of the operation sequence. The index
//!   is only ever probed, never iterated; victims leave in chain
//!   order and the hole is filled by the last slot, so
//!   [`ChecksumCache::digest`] (and the kernel's `state_hash` above
//!   it) repeats exactly for the same calls.

use iolite_buf::{BufferId, FixedState, Generation, PoolId, Slice};
use std::hash::BuildHasher;

use crate::checksum::{slice_sum, PartialSum};

/// End-of-chain marker for the intrusive slot links. Slot indices are
/// `u32`, so the table is bounded to `NIL` entries.
const NIL: u32 = u32::MAX;

/// Buffer identity (§3.9): what the index is keyed by, and what a
/// write retires. The pool id is part of it because chunk ids and
/// generations are per-pool counters — slices from two pools can
/// otherwise share a ⟨buffer, generation⟩ pair while holding different
/// bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
struct BufKey {
    pool: PoolId,
    buffer: BufferId,
    generation: Generation,
}

impl BufKey {
    fn of(s: &Slice) -> BufKey {
        BufKey {
            pool: s.pool(),
            buffer: s.id(),
            generation: s.generation(),
        }
    }
}

/// Cache key: the systemwide-unique content identifier of a slice.
///
/// Offsets and lengths are kept at full `u64` width: two distinct
/// slices ≥4 GiB apart in one buffer must never collide, since a
/// collision serves a stale checksum on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Key {
    buf: BufKey,
    offset: u64,
    len: u64,
}

impl Key {
    fn of(s: &Slice) -> Key {
        Key {
            buf: BufKey::of(s),
            offset: s.offset_in_buffer() as u64,
            len: s.len() as u64,
        }
    }
}

/// One resident checksum with its CLOCK reference bit and its links in
/// the chain of entries over the same buffer. Only the 16-bit
/// accumulator is stored: a slice sum always covers `key.len` bytes.
#[derive(Debug, Clone, Copy)]
struct Slot {
    key: Key,
    prev: u32,
    next: u32,
    sum: u16,
    referenced: bool,
}

impl Slot {
    fn partial_sum(&self) -> PartialSum {
        PartialSum {
            sum: self.sum,
            len: self.key.len,
        }
    }
}

/// Buffer identity → head slot, one `hash << 32 | (slot + 1)` per bucket (0: empty).
#[derive(Debug, Clone, Default)]
struct HeadIndex {
    buckets: Vec<u64>,
    len: usize,
}

impl HeadIndex {
    /// The fixed hasher's fold and `splitmix64` finalizer in 32 bits: tag, and home under the mask.
    fn hash(buf: &BufKey) -> u32 {
        FixedState::default().hash_one(buf) as u32
    }

    /// `Ok`: `buf`'s bucket (tag match confirmed by the head's key); `Err`: the empty one ending the probe.
    fn probe(&self, slots: &[Slot], buf: &BufKey, tag: u32) -> Result<usize, usize> {
        let mask = self.buckets.len().wrapping_sub(1);
        let mut i = tag as usize & mask;
        while let Some(&e @ 1..) = self.buckets.get(i) {
            if (e >> 32) as u32 == tag && slots[e as u32 as usize - 1].key.buf == *buf {
                return Ok(i);
            }
            i = (i + 1) & mask;
        }
        Err(i)
    }

    fn head(&self, slots: &[Slot], buf: &BufKey) -> Option<u32> {
        Some(self.buckets[self.probe(slots, buf, Self::hash(buf)).ok()?] as u32 - 1)
    }

    /// Makes `slot` the head of `buf`'s chain; returns the previous head.
    fn set_head(&mut self, slots: &[Slot], buf: &BufKey, slot: u32) -> Option<u32> {
        if self.len * 2 >= self.buckets.len() {
            self.grow();
        }
        let tag = Self::hash(buf);
        let (Ok(i) | Err(i)) = self.probe(slots, buf, tag);
        let old = std::mem::replace(&mut self.buckets[i], (tag as u64) << 32 | (slot as u64 + 1));
        self.len += (old == 0) as usize;
        (old != 0).then(|| old as u32 - 1)
    }

    /// Drops `buf`'s entry (it must be indexed), shifting each later
    /// member of its cluster into the hole if that keeps it on its path.
    fn remove(&mut self, slots: &[Slot], buf: &BufKey) {
        let (Ok(mut hole) | Err(mut hole)) = self.probe(slots, buf, Self::hash(buf));
        let mask = self.buckets.len() - 1;
        let mut i = (hole + 1) & mask;
        while let e @ 1.. = self.buckets[i] {
            if i.wrapping_sub((e >> 32) as usize) & mask >= i.wrapping_sub(hole) & mask {
                self.buckets[hole] = e;
                hole = i;
            }
            i = (i + 1) & mask;
        }
        self.buckets[hole] = 0;
        self.len -= 1;
    }

    /// Doubles the table (first 64 buckets), reinserting every entry.
    fn grow(&mut self) {
        let mask = (self.buckets.len() * 2).max(64) - 1;
        for e in std::mem::replace(&mut self.buckets, vec![0; mask + 1])
            .into_iter()
            .filter(|&e| e != 0)
        {
            let mut i = (e >> 32) as usize & mask;
            while self.buckets[i] != 0 {
                i = (i + 1) & mask;
            }
            self.buckets[i] = e;
        }
    }
}

/// Cache effectiveness counters. Byte counts belong to the caller:
/// [`ChecksumCache::sum_for`] says whether each slice hit.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CksumCacheStats {
    /// Slice sums served from cache.
    pub hits: u64,
    /// Slice sums computed (and inserted).
    pub misses: u64,
    /// Entries replaced by the CLOCK hand to admit new slices.
    pub evictions: u64,
    /// Entries dropped because their underlying buffers were retired by
    /// a write (PUT over a cached file): a stale sum must never be
    /// served, and a dead-version entry must not pollute the bounded
    /// table.
    pub invalidations: u64,
}

/// A bounded map from slice identity to its partial checksum.
///
/// # Examples
///
/// ```
/// use iolite_buf::{Acl, Aggregate, BufferPool, PoolId};
/// use iolite_net::ChecksumCache;
///
/// let pool = BufferPool::new(PoolId(1), Acl::kernel_only(), 4096);
/// let agg = Aggregate::from_bytes(&pool, b"hot document");
/// let mut cache = ChecksumCache::new(1024);
/// let s = &agg.slice_at(0);
/// let (first, hit) = cache.sum_for(s);
/// assert!(!hit);
/// assert_eq!(cache.sum_for(s), (first, true));
/// assert_eq!(cache.stats().hits, 1);
/// ```
#[derive(Debug, Clone)]
pub struct ChecksumCache {
    capacity: usize,
    enabled: bool,
    /// Buffer identity → slot index of the head of that buffer's
    /// chain. Probed only: the slot layout must not depend on table
    /// order.
    heads: HeadIndex,
    slots: Vec<Slot>,
    hand: usize,
    stats: CksumCacheStats,
}

impl ChecksumCache {
    /// Creates a cache bounded to `capacity` entries (at least 1, at
    /// most `u32::MAX` — the width of the chain links).
    pub fn new(capacity: usize) -> Self {
        ChecksumCache {
            capacity: capacity.clamp(1, NIL as usize),
            enabled: true,
            // Grows lazily alongside `slots`: the kernel default is
            // 2¹⁶ entries, which would be megabytes if preallocated.
            heads: HeadIndex::default(),
            slots: Vec::new(),
            hand: 0,
            stats: CksumCacheStats::default(),
        }
    }

    /// Enables or disables caching (the Fig. 11 ablation switch).
    /// Disabled, every request recomputes — exactly the conventional
    /// network stack's behaviour.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Returns the partial sum for a slice, from cache when possible,
    /// and whether it came from cache (`false`: the checksum loop
    /// touched every byte of `s`).
    pub fn sum_for(&mut self, s: &Slice) -> (PartialSum, bool) {
        if !self.enabled {
            self.stats.misses += 1;
            return (slice_sum(s), false);
        }
        let key = Key::of(s);
        if let Some(idx) = self.find(&key) {
            self.slots[idx].referenced = true;
            self.stats.hits += 1;
            return (self.slots[idx].partial_sum(), true);
        }
        let sum = slice_sum(s);
        self.stats.misses += 1;
        self.admit(key, sum.sum);
        (sum, false)
    }

    /// Whether a sum for exactly this slice is resident. Read-only: the
    /// reference bit and the counters are untouched.
    pub fn contains(&self, s: &Slice) -> bool {
        self.find(&Key::of(s)).is_some()
    }

    /// Walks the chain of `key`'s buffer for its ⟨offset, len⟩.
    fn find(&self, key: &Key) -> Option<usize> {
        let mut i = self.heads.head(&self.slots, &key.buf)?;
        while i != NIL {
            let slot = &self.slots[i as usize];
            if slot.key.offset == key.offset && slot.key.len == key.len {
                return Some(i as usize);
            }
            i = slot.next;
        }
        None
    }

    /// Admits a freshly computed sum, replacing a CLOCK victim when the
    /// table is full.
    fn admit(&mut self, key: Key, sum: u16) {
        let idx = if self.slots.len() < self.capacity {
            self.slots.push(Slot {
                key,
                prev: NIL,
                next: NIL,
                sum,
                referenced: false,
            });
            self.slots.len() - 1
        } else {
            // Second chance: sweep the hand past recently referenced
            // slots (clearing their bits) to the first unreferenced one,
            // and replace it. Terminates within two sweeps.
            while self.slots[self.hand].referenced {
                self.slots[self.hand].referenced = false;
                self.hand = (self.hand + 1) % self.capacity;
            }
            let idx = self.hand;
            self.unlink(idx);
            let slot = &mut self.slots[idx];
            slot.key = key;
            slot.sum = sum;
            slot.referenced = false;
            self.stats.evictions += 1;
            self.hand = (self.hand + 1) % self.capacity;
            idx
        };
        self.link(idx);
        debug_assert!(self.chains_consistent());
    }

    /// Makes slot `idx` the head of its buffer's chain.
    fn link(&mut self, idx: usize) {
        let next = self
            .heads
            .set_head(&self.slots, &self.slots[idx].key.buf, idx as u32)
            .unwrap_or(NIL);
        self.slots[idx].prev = NIL;
        self.slots[idx].next = next;
        if next != NIL {
            self.slots[next as usize].prev = idx as u32;
        }
    }

    /// Takes slot `idx` out of its buffer's chain; the chain's head
    /// entry goes with its last member.
    fn unlink(&mut self, idx: usize) {
        let Slot {
            key, prev, next, ..
        } = self.slots[idx];
        if next != NIL {
            self.slots[next as usize].prev = prev;
        }
        if prev != NIL {
            self.slots[prev as usize].next = next;
        } else if next != NIL {
            self.heads.set_head(&self.slots, &key.buf, next);
        } else {
            self.heads.remove(&self.slots, &key.buf);
        }
    }

    /// Unlinks slot `idx` and compacts the table by moving the last
    /// slot into the hole, re-pointing the moved slot's neighbours (or
    /// its head) at its new index.
    fn remove_slot(&mut self, idx: usize) {
        self.unlink(idx);
        let last = self.slots.len() - 1;
        if idx != last && self.slots[last].prev == NIL {
            // Re-pointed while the index can still read the moved key.
            self.heads
                .set_head(&self.slots, &self.slots[last].key.buf, idx as u32);
        }
        self.slots.swap_remove(idx);
        if let Some(&Slot { prev, next, .. }) = self.slots.get(idx) {
            if next != NIL {
                self.slots[next as usize].prev = idx as u32;
            }
            if prev != NIL {
                self.slots[prev as usize].next = idx as u32;
            }
        }
    }

    /// Drops every cached checksum computed over any buffer of `agg`'s
    /// slices — whole-slice sums and sub-range sums alike (send windows
    /// cache arbitrary subranges, so matching must be by buffer
    /// identity ⟨pool, buffer, generation⟩, not by exact key).
    ///
    /// This is the mutation hook (§3.5 meets §3.9): when a write
    /// replaces a cached aggregate, the replaced buffers' checksums are
    /// dead weight at best — and, should a buffer be recycled into a
    /// same-generation identity by a snapshot-restoring test harness, a
    /// stale hit at worst. Returns the number of entries removed.
    ///
    /// Cost is one probe per slice of `agg` plus O(1) per entry
    /// removed; entries leave head-first in chain order.
    pub fn invalidate_aggregate(&mut self, agg: &iolite_buf::Aggregate) -> u64 {
        if self.slots.is_empty() {
            return 0;
        }
        let mut removed = 0u64;
        for s in agg.slices() {
            let buf = BufKey::of(s);
            // A second slice over an already-retired buffer finds no
            // head: an O(1) miss.
            while let Some(head) = self.heads.head(&self.slots, &buf) {
                self.remove_slot(head as usize);
                removed += 1;
            }
        }
        if removed > 0 {
            self.stats.invalidations += removed;
            // The hand may now point past the shortened table.
            self.hand %= self.slots.len().max(1);
            debug_assert!(self.chains_consistent());
        }
        removed
    }

    /// Debug-build structural check: `prev`/`next` are symmetric and
    /// stay within one buffer, every chain start is that buffer's head
    /// (so no head exists for an empty chain), walking from the heads
    /// reaches every slot exactly once, and the index holds just the
    /// heads. A full walk, so it only runs on tables small enough to
    /// keep debug-build serving tests at O(1) per operation; the
    /// property suite lives below the limit.
    fn chains_consistent(&self) -> bool {
        const FULL_WALK_LIMIT: usize = 256;
        if self.slots.len() > FULL_WALK_LIMIT {
            return true;
        }
        let (mut starts, mut reached) = (0, 0);
        for (i, slot) in self.slots.iter().enumerate() {
            if slot.prev != NIL {
                continue;
            }
            starts += 1;
            if self.heads.head(&self.slots, &slot.key.buf) != Some(i as u32) {
                return false;
            }
            // Cannot loop: re-entering a visited slot would need its
            // `prev` to name two predecessors.
            let mut at = i as u32;
            loop {
                reached += 1;
                let next = self.slots[at as usize].next;
                if next == NIL {
                    break;
                }
                match self.slots.get(next as usize) {
                    Some(n) if n.prev == at && n.key.buf == slot.key.buf => at = next,
                    _ => return false,
                }
            }
        }
        // One index entry per chain, tagged with its head's hash, no empty bucket between it and home.
        let (b, mask) = (
            &self.heads.buckets,
            self.heads.buckets.len().wrapping_sub(1),
        );
        let mut entries = b.iter().enumerate().filter(|&(_, &e)| e != 0);
        let indexed = entries.clone().count() == starts && starts == self.heads.len;
        indexed
            && reached == self.slots.len()
            && entries.all(|(i, &e)| {
                let (tag, home) = ((e >> 32) as u32, (e >> 32) as usize & mask);
                self.slots
                    .get(e as u32 as usize - 1)
                    .is_some_and(|s| HeadIndex::hash(&s.key.buf) == tag)
                    && (0..=i.wrapping_sub(home) & mask).all(|d| b[(home + d) & mask] != 0)
            })
    }

    /// Counters so far.
    pub fn stats(&self) -> CksumCacheStats {
        self.stats
    }

    /// Cached entries.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Folds the cache's state into a stable digest. Slot order is the
    /// table's physical order (deterministic: admissions, the CLOCK
    /// hand and chain-order invalidation are all sequential), so no
    /// sorting is needed.
    pub fn digest(&self, h: &mut iolite_buf::Fnv64) {
        h.write_u64(self.capacity as u64);
        h.write_bool(self.enabled);
        h.write_u64(self.hand as u64);
        for v in [
            self.stats.hits,
            self.stats.misses,
            self.stats.evictions,
            self.stats.invalidations,
        ] {
            h.write_u64(v);
        }
        h.write_u64(self.slots.len() as u64);
        for slot in &self.slots {
            h.write_u32(slot.key.buf.pool.0);
            h.write_u64(slot.key.buf.buffer.chunk.0);
            h.write_u32(slot.key.buf.buffer.offset);
            h.write_u64(slot.key.buf.generation.0);
            h.write_u64(slot.key.offset);
            h.write_u64(slot.key.len);
            h.write_u32(slot.sum as u32);
            h.write_bool(slot.referenced);
            h.write_u32(slot.prev);
            h.write_u32(slot.next);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iolite_buf::{splitmix64, Acl, Aggregate, BufferPool, ChunkId, PoolId};
    use std::collections::{btree_map::Entry, BTreeMap, BTreeSet};

    fn slice(pool: &BufferPool, data: &[u8]) -> Slice {
        Aggregate::from_bytes(pool, data).slice_at(0).clone()
    }

    fn buf_key(chunk: u64, offset: u32, generation: u64) -> BufKey {
        let buffer = BufferId {
            chunk: ChunkId(chunk),
            offset,
        };
        BufKey {
            pool: PoolId(1),
            buffer,
            generation: Generation(generation),
        }
    }

    #[test]
    fn second_transmission_hits() {
        let pool = BufferPool::new(PoolId(1), Acl::kernel_only(), 4096);
        let s = slice(&pool, b"document body");
        let mut c = ChecksumCache::new(16);
        let (a, first_hit) = c.sum_for(&s);
        let (b, second_hit) = c.sum_for(&s);
        assert_eq!(a, b);
        assert_eq!((first_hit, second_hit), (false, true));
        let st = c.stats();
        assert_eq!((st.hits, st.misses), (1, 1));
    }

    #[test]
    fn different_subranges_are_distinct_keys() {
        let pool = BufferPool::new(PoolId(1), Acl::kernel_only(), 4096);
        let s = slice(&pool, b"abcdefgh");
        let mut c = ChecksumCache::new(16);
        c.sum_for(&s);
        let sub = s.sub(0, 4).unwrap();
        c.sum_for(&sub);
        assert_eq!(
            c.stats().misses,
            2,
            "sub-range must not hit whole-slice sum"
        );
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn recycled_buffer_generation_prevents_stale_hit() {
        let pool = BufferPool::new(PoolId(1), Acl::kernel_only(), 64);
        let mut c = ChecksumCache::new(16);
        // Fill the chunk completely so recycling reuses the same address.
        let s1 = slice(&pool, &[0x11; 64]);
        let id1 = (s1.id(), s1.generation());
        let (sum1, _) = c.sum_for(&s1);
        drop(s1);
        let s2 = slice(&pool, &[0x22; 64]);
        assert_eq!(s2.id(), id1.0, "address must be reused for this test");
        assert_ne!(s2.generation(), id1.1);
        let (sum2, _) = c.sum_for(&s2);
        assert_ne!(sum1.sum, sum2.sum);
        assert_eq!(c.stats().hits, 0, "no stale hit across generations");
    }

    #[test]
    fn disabled_cache_always_computes() {
        let pool = BufferPool::new(PoolId(1), Acl::kernel_only(), 4096);
        let s = slice(&pool, b"body");
        let mut c = ChecksumCache::new(16);
        c.set_enabled(false);
        assert!(!c.sum_for(&s).1);
        assert!(!c.sum_for(&s).1);
        assert_eq!(c.stats().misses, 2);
        assert!(c.is_empty());
    }

    #[test]
    fn capacity_bound_holds() {
        let pool = BufferPool::new(PoolId(1), Acl::kernel_only(), 4096);
        let mut c = ChecksumCache::new(4);
        let slices: Vec<Slice> = (0..10).map(|i| slice(&pool, &[i as u8; 8])).collect();
        for s in &slices {
            c.sum_for(s);
        }
        assert!(c.len() <= 4);
        assert_eq!(c.stats().evictions, 6, "each overflow replaces one entry");
    }

    /// Regression: the old clear-all bound dropped the entire map when a
    /// single cold slice overflowed it. A recently referenced hot slice
    /// must survive an arbitrary stream of one-off cold slices.
    #[test]
    fn hot_slice_survives_cold_overflow() {
        let pool = BufferPool::new(PoolId(1), Acl::kernel_only(), 64 * 1024);
        let hot = slice(&pool, &[0x5A; 100]);
        let mut c = ChecksumCache::new(8);
        c.sum_for(&hot);
        let cold: Vec<Slice> = (0..64).map(|i| slice(&pool, &[i as u8; 16])).collect();
        for (i, s) in cold.iter().enumerate() {
            c.sum_for(s);
            if i % 3 == 0 {
                // Retransmission keeps the hot entry's reference bit set.
                assert!(
                    c.sum_for(&hot).1,
                    "hot slice recomputed after {i} cold slices"
                );
            }
        }
        assert!(c.len() <= 8);
        // Every hot access after the first was a hit.
        assert_eq!(c.stats().misses, 1 + 64);
    }

    /// Regression: `Key` used to truncate `offset_in_buffer`/`len` to
    /// `u32`, so two distinct slices ≥4 GiB apart in one buffer (or
    /// whose lengths differ by a multiple of 2³²) collided and served a
    /// stale checksum on the wire. Keys are synthesized directly: no
    /// test can allocate a 4 GiB buffer, but the collision was purely a
    /// property of the key arithmetic.
    #[test]
    fn distant_subranges_do_not_collide_under_truncation() {
        let buf = buf_key(1, 0, 1);
        let near = Key {
            buf,
            offset: 0,
            len: 1460,
        };
        let far = Key {
            buf,
            offset: 1 << 32,
            len: 1460,
        };
        let long = Key {
            buf,
            offset: 0,
            len: (1u64 << 32) + 1460,
        };
        // These are exactly the pairs `as u32` used to conflate.
        assert_eq!(near.offset as u32, far.offset as u32);
        assert_eq!(near.len as u32, long.len as u32);
        assert_ne!(near, far);
        assert_ne!(near, long);
        // And the chain walk over their shared buffer keeps the sums
        // distinct.
        let mut c = ChecksumCache::new(16);
        for (key, sum) in [(near, 1u16), (far, 2), (long, 3)] {
            assert_eq!(c.find(&key), None);
            c.admit(key, sum);
        }
        assert_eq!(c.len(), 3);
        for (key, sum) in [(near, 1u16), (far, 2), (long, 3)] {
            let idx = c.find(&key).expect("admitted");
            assert_eq!(c.slots[idx].partial_sum(), PartialSum { sum, len: key.len });
        }
    }

    /// Regression: chunk ids and generations are per-pool counters, so
    /// the first allocation of every pool is ⟨chunk 0, offset 0,
    /// generation 0⟩. Two pools' same-length first slices must not
    /// share a checksum entry (e.g. two CGI instances, each with its
    /// own pool, §3.10).
    #[test]
    fn different_pools_do_not_collide() {
        let a = BufferPool::new(PoolId(1), Acl::kernel_only(), 4096);
        let b = BufferPool::new(PoolId(2), Acl::kernel_only(), 4096);
        let sa = slice(&a, &[0x11; 64]);
        let sb = slice(&b, &[0x22; 64]);
        assert_eq!(sa.id(), sb.id(), "per-pool ids must coincide for this test");
        assert_eq!(sa.generation(), sb.generation());
        let mut c = ChecksumCache::new(16);
        let (sum_a, _) = c.sum_for(&sa);
        let (sum_b, _) = c.sum_for(&sb);
        assert_ne!(sum_a.sum, sum_b.sum, "no stale cross-pool checksum");
        assert_eq!(c.stats().hits, 0);
        assert_eq!(c.len(), 2);
    }

    /// A write retires the cached aggregate's buffers: every checksum
    /// over them — whole-slice and sub-range — must leave the table, so
    /// the next transmission recomputes instead of hitting, while
    /// unrelated entries survive untouched.
    #[test]
    fn invalidate_aggregate_drops_all_subranges() {
        let pool = BufferPool::new(PoolId(1), Acl::kernel_only(), 4096);
        let doc = Aggregate::from_bytes(&pool, b"cached document body");
        let other = slice(&pool, b"unrelated");
        let mut c = ChecksumCache::new(16);
        let s = doc.slice_at(0);
        c.sum_for(s);
        c.sum_for(&s.sub(0, 6).unwrap());
        c.sum_for(&s.sub(3, 9).unwrap());
        c.sum_for(&other);
        assert_eq!(c.len(), 4);
        let removed = c.invalidate_aggregate(&doc);
        assert_eq!(removed, 3, "whole slice plus both send-window subranges");
        assert_eq!(c.len(), 1, "the unrelated entry survives");
        assert_eq!(c.stats().invalidations, 3);
        // The next access over the (now logically stale) slice must be
        // a recompute, not a hit.
        assert!(!c.sum_for(s).1);
        assert!(c.sum_for(&other).1, "survivor still hits");
        // Invalidating an aggregate with no cached sums is a no-op.
        assert_eq!(c.invalidate_aggregate(&doc), 1, "re-admitted whole sum");
        assert_eq!(c.invalidate_aggregate(&doc), 0);
    }

    /// The `0` fast path on an empty table, and the exact removed count
    /// when two slices of the retired aggregate share one buffer: the
    /// first visit pops the whole chain, the second finds no head.
    #[test]
    fn invalidate_counts_shared_buffer_once() {
        let pool = BufferPool::new(PoolId(1), Acl::kernel_only(), 4096);
        let doc = Aggregate::from_bytes(&pool, b"one buffer, two windows");
        let s = doc.slice_at(0);
        let mut two_windows = Aggregate::empty();
        two_windows.append_slice(s.sub(0, 5).unwrap());
        two_windows.append_slice(s.sub(12, 6).unwrap());
        assert_eq!(two_windows.slices().count(), 2);

        let mut c = ChecksumCache::new(16);
        assert_eq!(c.invalidate_aggregate(&two_windows), 0, "empty table");
        assert_eq!(c.stats().invalidations, 0);

        c.sum_for(s);
        c.sum_for(&s.sub(0, 5).unwrap());
        c.sum_for(&s.sub(12, 6).unwrap());
        let other = slice(&pool, b"survivor");
        c.sum_for(&other);
        assert_eq!(c.invalidate_aggregate(&two_windows), 3);
        assert_eq!(c.stats().invalidations, 3);
        assert_eq!(c.len(), 1);
        assert!(c.contains(&other) && !c.contains(s));
    }

    /// The chain links are `u32`: a larger requested capacity is
    /// clamped below the `NIL` marker, and zero still admits one entry.
    #[test]
    fn capacity_is_clamped_to_link_width() {
        assert_eq!(ChecksumCache::new(usize::MAX).capacity, NIL as usize);
        assert_eq!(ChecksumCache::new(0).capacity, 1);
        assert_eq!(ChecksumCache::new(1 << 16).capacity, 1 << 16);
    }

    /// The slot layout — and so `digest`, and the kernel `state_hash`
    /// above it — is a function of the op sequence alone. Invalidation
    /// used to pick victims in `HashMap` iteration order (per-instance
    /// `RandomState`), and each removal swap-compacts the table, so a
    /// buffer with several cached send windows left 16 fresh caches
    /// with 16 different layouts.
    #[test]
    fn layout_is_a_function_of_the_op_sequence() {
        let pool = BufferPool::new(PoolId(1), Acl::kernel_only(), 64 * 1024);
        let doc = Aggregate::from_bytes(&pool, &[0x3C; 4096]);
        let windows: Vec<Slice> = (0..8)
            .map(|i| doc.slice_at(0).sub(i * 512, 512).unwrap())
            .collect();
        let unrelated: Vec<Slice> = (0..8).map(|i| slice(&pool, &[i as u8; 32])).collect();
        let later: Vec<Slice> = (0..26)
            .map(|i| slice(&pool, &[0x80 + i as u8; 48]))
            .collect();

        let digests: Vec<u64> = (0..16)
            .map(|_| {
                let mut c = ChecksumCache::new(16);
                // Interleaved, so the doomed chain's slots are spread
                // through the table.
                for (w, u) in windows.iter().zip(&unrelated) {
                    c.sum_for(w);
                    c.sum_for(u);
                }
                assert_eq!(c.invalidate_aggregate(&doc), 8);
                // Folded twice: the compacted layout itself, then what
                // the CLOCK hand makes of it.
                let mut h = iolite_buf::Fnv64::new();
                c.digest(&mut h);
                for s in &later[..8] {
                    c.sum_for(s);
                }
                // Full again. Two survivors of the compaction get a
                // second chance; 18 more admissions take the hand all
                // the way round and past them.
                c.sum_for(&unrelated[1]);
                c.sum_for(&unrelated[5]);
                for s in &later[8..] {
                    c.sum_for(s);
                }
                assert_eq!(c.stats().evictions, 18);
                c.digest(&mut h);
                h.finish()
            })
            .collect();
        assert!(
            digests.iter().all(|d| *d == digests[0]),
            "same calls, different layouts: {digests:x?}"
        );
    }

    /// CLOCK gives one-shot entries a second chance only when
    /// re-referenced: a scan that reuses nothing cycles through the
    /// table without disturbing entries whose bits are set.
    #[test]
    fn clock_hand_skips_referenced_entries() {
        let pool = BufferPool::new(PoolId(1), Acl::kernel_only(), 4096);
        let mut c = ChecksumCache::new(4);
        let keep: Vec<Slice> = (0..3)
            .map(|i| slice(&pool, &[0xF0 + i as u8; 24]))
            .collect();
        for s in &keep {
            c.sum_for(s);
        }
        // Re-reference all three: their bits are set.
        for s in &keep {
            c.sum_for(s);
        }
        // Two cold slices overflow the 4-entry table; each eviction must
        // take the single unreferenced slot (the previous cold entry),
        // never one of the referenced hot three... as long as the hot
        // set is re-referenced between overflows.
        for i in 0..8u8 {
            c.sum_for(&slice(&pool, &[i; 12]));
            for s in &keep {
                c.sum_for(s);
            }
        }
        let st = c.stats();
        // 3 first-touch computes + 8 cold computes; every other access hit.
        assert_eq!((st.misses, st.hits), (11, 3 + 8 * 3));
    }

    /// The index against a `BTreeMap` model from 64 buckets through two doublings, over new
    /// chains, head replacements and any slot's removal (the swapped-in last slot heading a
    /// chain included); every buffer hashes to the top 24 of 256 buckets, so clusters wrap.
    #[test]
    fn index_matches_a_map_model() {
        let bufs: Vec<_> = (0..)
            .map(|j| buf_key(j, 0, 0))
            .filter(|b| HeadIndex::hash(b) as u8 >= 232)
            .take(80)
            .collect();
        let (mut c, mut model) = (ChecksumCache::new(1024), BTreeMap::new());
        let (mut r, mut moved_heads, mut wraps) = (0, 0, 0);
        for _ in 0..5000 {
            r = splitmix64(r);
            let key = Key {
                buf: bufs[(r % 80) as usize],
                offset: r >> 63,
                len: 1,
            };
            if r >> 32 & 7 == 0 && !c.is_empty() {
                let (idx, last) = ((r >> 8) as usize % c.len(), c.len() - 1);
                moved_heads += (idx != last && c.slots[last].prev == NIL) as u32;
                model.remove(&c.slots[idx].key);
                c.remove_slot(idx);
            } else if let Entry::Vacant(vacant) = model.entry(key) {
                c.admit(key, *vacant.insert(r as u16));
            }
            let chains: BTreeSet<BufKey> = model.keys().map(|k| k.buf).collect();
            assert!(c.chains_consistent() && (c.len(), c.heads.len) == (model.len(), chains.len()));
            assert!(model
                .iter()
                .all(|(key, &sum)| c.find(key).map(|i| c.slots[i].sum) == Some(sum)));
            let mask = c.heads.buckets.len() - 1;
            wraps += c
                .heads
                .buckets
                .iter()
                .enumerate()
                .any(|(i, &e)| e != 0 && (e >> 32) as usize & mask > i) as u32;
        }
        assert!(moved_heads > 0 && wraps > 0 && c.heads.buckets.len() == 256);
    }

    /// The index hash spreads the identities pools mint (cf. `hash::tests::structured_keys_spread`):
    /// 2^16 keys fill ≥ 55 % of 2^16 buckets (uniform: 1 − 1/e ≈ 63 %). A chunk-local hash puts
    /// a chunk's buffers in neighbouring buckets and clusters the linear probes.
    #[test]
    fn index_hash_spreads_structured_keys() {
        const N: usize = 1 << 16;
        let shapes = [
            (
                "sequential chunk ids",
                (|j| buf_key(j, 0, 0)) as fn(u64) -> BufKey,
            ),
            ("page-strided offsets", |j| {
                buf_key(j / 16, (j % 16) as u32 * 4096, 0)
            }),
            ("one chunk, 2^16 generations", |j| buf_key(7, 0, j)),
        ];
        for (shape, key) in shapes {
            let homes: BTreeSet<usize> = (0..N as u64)
                .map(|j| HeadIndex::hash(&key(j)) as usize % N)
                .collect();
            assert!(
                homes.len() * 100 >= 55 * N,
                "{shape}: {} of {N} buckets",
                homes.len()
            );
        }
    }
}
