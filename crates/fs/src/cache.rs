//! The unified IO-Lite file cache (§3.5, §3.7).
//!
//! Maps file-id → buffer aggregates (entries are whole files). The cache "has no
//! statically allocated storage": it holds references into pageable
//! IO-Lite buffers, so an entry's memory is shared with every other
//! subsystem referencing the same buffers.
//!
//! Key semantics reproduced here:
//!
//! * **Snapshot writes** (§3.5): a write *replaces* the cached aggregate;
//!   the replaced buffers "persist as long as other references to them
//!   exist" — automatic, because entries hold refcounted slices.
//! * **Reference-aware eviction** (§3.7): entries currently referenced
//!   outside the cache (tracked with explicit pins by the kernel, e.g.
//!   while the network transmits them) are evicted only as a last
//!   resort.
//! * **Budgeted size**: the eviction loop drives residency to the budget
//!   the physical-memory accountant grants — this is the lever the WAN
//!   experiment (§5.7) turns.
//!
//! # Complexity contract
//!
//! Built for tens of thousands of entries, thousands of them pinned in
//! flight. The policy order is read only by the victim search, so it is
//! kept lazily: an unpinned and a pinned min-heap of `(ord, key, stamp)`
//! ranks, each a lower bound on its entry's `ord`, live while the entry
//! carries its stamp. `lookup`, `pin` and `unpin` are O(1); they push a
//! rank only on a hit that lowers `ord` or an unpin whose live rank is
//! in the pinned heap. `evict_one` is amortized O((1 + D) log n)
//! however many entries are pinned, D being the dirty entries ranked
//! ahead of the victim (bounded by the write-back threshold); stale and
//! orphaned ranks are paid for by the hit or remove that made them, and
//! the heaps are rebuilt once they hold over 2·entries + 64 ranks.
//! `insert` and `remove` are O(log n) plus the evictions they cause.
//!
//! # Pin accounting
//!
//! Pin counts are keyed by [`CacheKey`], *independent of entry
//! lifetime*: a write that replaces an entry (snapshot semantics), or
//! an eviction followed by re-admission, carries the key's outstanding
//! pin count over to the new entry. This is load-bearing for
//! correctness — the kernel releases pins when a transmission drains,
//! possibly long after the entry it originally pinned was replaced.
//! With per-entry counts, an unpin belonging to a *replaced* entry
//! would steal the pin of a newer in-flight request on the same key,
//! leaving data the network still references evictable.

use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap};

use iolite_buf::{Aggregate, FixedMap};

use crate::disk::FileId;
use crate::policy::Policy;

/// Cache entry key: which file (every entry is a whole file).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CacheKey {
    /// The file.
    pub file: FileId,
}

impl CacheKey {
    /// Key for a whole-file entry.
    pub fn whole(file: FileId) -> Self {
        CacheKey { file }
    }
}

/// Cache activity counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookup hits.
    pub hits: u64,
    /// Lookup misses.
    pub misses: u64,
    /// Bytes served from cache.
    pub bytes_hit: u64,
    /// Entries inserted.
    pub insertions: u64,
    /// Entries evicted by the policy.
    pub evictions: u64,
    /// Entries replaced by writes (snapshot semantics).
    pub write_replacements: u64,
    /// Evictions that had to sacrifice a pinned (referenced) entry.
    pub pinned_evictions: u64,
    /// Entries installed dirty (PUT bodies awaiting write-back).
    pub dirty_installs: u64,
    /// Dirty entries superseded by a newer write before they were ever
    /// flushed — the write coalescing CAWL counts on.
    pub dirty_coalesced: u64,
}

struct Entry {
    agg: Aggregate,
    len: u64,
    ord: u64,
    /// The stamp of the entry's live rank, and whether that rank is in
    /// the pinned heap.
    stamp: u64,
    queued_pinned: bool,
}

/// The unified file cache.
///
/// See the [module docs](self) for the complexity contract and the
/// key-scoped pin-accounting rules.
///
/// # Examples
///
/// ```
/// use iolite_buf::{Acl, Aggregate, BufferPool, PoolId};
/// use iolite_fs::{CacheKey, FileId, Policy, UnifiedCache};
///
/// let pool = BufferPool::new(PoolId(1), Acl::kernel_only(), 64 * 1024);
/// let mut cache = UnifiedCache::new(Policy::Lru, 1 << 20);
/// let key = CacheKey::whole(FileId(1));
/// cache.insert(key, Aggregate::from_bytes(&pool, b"doc"));
/// assert!(cache.lookup(&key).is_some());
/// ```
pub struct UnifiedCache {
    policy: Policy,
    budget: u64,
    entries: FixedMap<CacheKey, Entry>,
    /// Victim ranks by pin state: an unpinned entry's live rank is in
    /// `heaps[0]`, a pinned one's in either (`heaps[1]` is §3.7's last
    /// resort). Every pushed rank takes a fresh `stamp`.
    heaps: [BinaryHeap<Reverse<(u64, CacheKey, u64)>>; 2],
    stamp: u64,
    /// Outstanding outside references per key; absent means zero.
    /// Survives entry replacement and eviction (see module docs).
    pin_counts: FixedMap<CacheKey, u32>,
    /// Keys whose entries are dirty, in key order — the deterministic
    /// flush order the write-back scheduler batches from. Dirty entries
    /// hold bytes the backing store does not, so the victim search
    /// passes over them until the write-back scheduler marks them clean.
    dirty: BTreeSet<CacheKey>,
    /// Aggregates displaced from a *pinned* key (write replacement or
    /// last-resort eviction) — §3.5 snapshots still referenced by the
    /// key's outside consumers. Holding them here keeps their buffer
    /// refcounts a property of this pure state rather than of the
    /// consumers' (host-side) clones, so pool chunk release — and thus
    /// every later allocation offset — replays identically. Dropped
    /// when the key's pin count returns to zero.
    limbo: FixedMap<CacheKey, Vec<Aggregate>>,
    /// Total bytes held by dirty entries (the CAWL threshold input).
    dirty_bytes: u64,
    clock: u64,
    gds_l: u64,
    resident: u64,
    stats: CacheStats,
}

impl UnifiedCache {
    /// Creates a cache with the given policy and initial byte budget.
    pub fn new(policy: Policy, budget: u64) -> Self {
        UnifiedCache {
            policy,
            budget,
            entries: FixedMap::default(),
            heaps: Default::default(),
            stamp: 0,
            pin_counts: FixedMap::default(),
            dirty: BTreeSet::new(),
            limbo: FixedMap::default(),
            dirty_bytes: 0,
            clock: 0,
            gds_l: 0,
            resident: 0,
            stats: CacheStats::default(),
        }
    }

    /// Bytes of file data currently cached.
    pub fn resident_bytes(&self) -> u64 {
        self.resident
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Activity counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Updates the byte budget (the physical-memory accountant calls
    /// this as competing reservations change) and evicts down to it.
    ///
    /// Returns the evicted entries so callers can account for buffers
    /// that remain alive through other references.
    pub fn set_budget(&mut self, budget: u64) -> Vec<(CacheKey, Aggregate)> {
        self.budget = budget;
        self.enforce_budget()
    }

    /// The current byte budget.
    pub fn budget(&self) -> u64 {
        self.budget
    }

    /// Whether `key` is cached.
    pub fn contains(&self, key: &CacheKey) -> bool {
        self.entries.contains_key(key)
    }

    /// A read-only view of an entry's bytes — no clock advance, no
    /// ordering refresh. Audit paths (end-of-run cache-vs-store
    /// consistency checks) use this so observation does not perturb
    /// the replacement state being observed.
    pub fn peek(&self, key: &CacheKey) -> Option<&Aggregate> {
        self.entries.get(key).map(|e| &e.agg)
    }

    /// Looks up an extent, refreshing its replacement priority in place.
    /// The LRU clock and GDS `L + c/size` stay above the queued rank
    /// unless a last-resort eviction lowered `L`; only then is one pushed.
    ///
    /// The returned aggregate shares buffers with the cache entry — this
    /// is the single-physical-copy sharing of §3.1.
    pub fn lookup(&mut self, key: &CacheKey) -> Option<Aggregate> {
        self.clock += 1;
        let Some(entry) = self.entries.get_mut(key) else {
            self.stats.misses += 1;
            return None;
        };
        let ord = self.policy.order_key(self.clock, self.gds_l, entry.len);
        let fell = ord < entry.ord;
        entry.ord = ord;
        self.stats.hits += 1;
        self.stats.bytes_hit += entry.len;
        let agg = entry.agg.clone();
        if fell {
            self.requeue(*key);
        }
        Some(agg)
    }

    /// Inserts (or overwrites) an extent, then evicts to budget.
    ///
    /// A key's outstanding pin count carries over to the new entry (see
    /// the module docs): data inserted under a key the network still
    /// references is itself treated as referenced.
    ///
    /// Returns evicted entries.
    pub fn insert(&mut self, key: CacheKey, agg: Aggregate) -> Vec<(CacheKey, Aggregate)> {
        self.install(key, agg, false)
    }

    /// Inserts an extent *dirty*: the aggregate holds bytes the backing
    /// store does not yet (a PUT body installed by CoW replacement,
    /// §3.5). Dirty entries are exempt from eviction until the
    /// write-back scheduler marks them clean — discarding one would
    /// lose the write — so the budget may be transiently exceeded when
    /// only dirty entries remain; the write-back scheduler's dirty
    /// threshold relieves that between ticks, not eviction.
    ///
    /// Returns evicted (clean) entries, as [`UnifiedCache::insert`].
    pub fn insert_dirty(&mut self, key: CacheKey, agg: Aggregate) -> Vec<(CacheKey, Aggregate)> {
        self.install(key, agg, true)
    }

    fn install(
        &mut self,
        key: CacheKey,
        agg: Aggregate,
        dirty: bool,
    ) -> Vec<(CacheKey, Aggregate)> {
        self.clock += 1;
        let len = agg.len();
        // Overwrite: `remove` unwinds the old entry's residency and
        // orphans its rank; its buffers persist while referenced.
        self.remove(&key);
        let ord = self.policy.order_key(self.clock, self.gds_l, len);
        self.entries.insert(
            key,
            Entry {
                agg,
                len,
                ord,
                stamp: 0,
                queued_pinned: false,
            },
        );
        self.requeue(key);
        self.resident += len;
        self.stats.insertions += 1;
        if dirty {
            self.dirty.insert(key);
            self.dirty_bytes += len;
            self.stats.dirty_installs += 1;
        }
        self.enforce_budget()
    }

    /// Removes an entry (IOL_write replacement, §3.5), returning its
    /// aggregate. The buffers persist while other references exist, and
    /// so does the key's pin count — outstanding references are a
    /// property of the key's consumers, not of one entry generation.
    pub fn remove(&mut self, key: &CacheKey) -> Option<Aggregate> {
        let entry = self.entries.remove(key)?;
        if self.dirty.remove(key) {
            // A dirty entry leaving the table was superseded before its
            // flush (the caller re-installs new bytes under the key):
            // its unflushed bytes no longer need writing — coalescing.
            self.dirty_bytes -= entry.len;
            self.stats.dirty_coalesced += 1;
        }
        self.resident -= entry.len;
        if self.pin_counts.contains_key(key) {
            // The key is still referenced outside the cache: park the
            // displaced snapshot until the last unpin, so its buffers'
            // lifetime is decided here, deterministically, not by when
            // the outside holders drop their clones.
            self.limbo.entry(*key).or_default().push(entry.agg.clone());
        }
        Some(entry.agg)
    }

    /// Removes an entry as part of a write (counts as replacement).
    pub fn replace_for_write(&mut self, key: &CacheKey) -> Option<Aggregate> {
        let out = self.remove(key);
        if out.is_some() {
            self.stats.write_replacements += 1;
        }
        out
    }

    /// Marks `key` as referenced outside the cache (network holds it,
    /// an application holds it...). O(1): the entry's rank stays where
    /// it is queued until the victim search meets it.
    ///
    /// The count registers even when no entry is currently cached under
    /// `key` (it may have been evicted between the caller's read and
    /// its pin): a later insert under the key is then born referenced.
    pub fn pin(&mut self, key: &CacheKey) {
        *self.pin_counts.entry(*key).or_insert(0) += 1;
    }

    /// Releases one outside reference. O(1): the entry is re-queued
    /// (O(log n)) only on the last release, and only if its live rank
    /// sits in the pinned heap.
    pub fn unpin(&mut self, key: &CacheKey) {
        let Some(count) = self.pin_counts.get_mut(key) else {
            return;
        };
        *count -= 1;
        if *count == 0 {
            self.pin_counts.remove(key);
            self.limbo.remove(key);
            if self.entries.get(key).is_some_and(|e| e.queued_pinned) {
                self.requeue(*key);
            }
        }
    }

    /// Number of pins on a key (0 if never pinned or fully released).
    pub fn pins(&self, key: &CacheKey) -> u32 {
        self.pin_counts.get(key).copied().unwrap_or(0)
    }

    /// Whether `key`'s entry is dirty (awaiting write-back).
    pub fn is_dirty(&self, key: &CacheKey) -> bool {
        self.dirty.contains(key)
    }

    /// Total bytes held by dirty entries — the CAWL threshold input.
    pub fn dirty_bytes(&self) -> u64 {
        self.dirty_bytes
    }

    /// Dirty keys in deterministic (key) order — the flush order the
    /// write-back scheduler batches from.
    pub fn dirty_keys(&self) -> impl Iterator<Item = &CacheKey> {
        self.dirty.iter()
    }

    /// The cached length of `key`'s entry, without touching its
    /// replacement priority (flush planning must not refresh recency).
    pub fn entry_len(&self, key: &CacheKey) -> Option<u64> {
        self.entries.get(key).map(|e| e.len)
    }

    /// Marks a dirty entry clean: its bytes have been scheduled into
    /// the staging tier / backing store, so it is ordinary evictable
    /// cache content again. Returns the entry's length, or `None` if
    /// the key holds no dirty entry.
    pub fn mark_clean(&mut self, key: &CacheKey) -> Option<u64> {
        if !self.dirty.remove(key) {
            return None;
        }
        let len = self.entries[key].len;
        self.dirty_bytes -= len;
        Some(len)
    }

    /// Evicts entries until residency fits the budget.
    pub(crate) fn enforce_budget(&mut self) -> Vec<(CacheKey, Aggregate)> {
        let mut evicted = Vec::new();
        while self.resident > self.budget {
            match self.evict_one() {
                Some(kv) => evicted.push(kv),
                None => break,
            }
        }
        evicted
    }

    /// Evicts a single entry by the active policy: the best *clean*
    /// unpinned victim, else the best clean pinned one (the §3.7
    /// two-level rule). Dirty entries are never victims — discarding
    /// one would lose a write the store hasn't seen — so a cache whose
    /// remaining entries are all dirty returns `None` until write-back
    /// cleans one.
    ///
    /// Amortized O((1 + D) log n) where D is the number of dirty entries
    /// ranked ahead of the victim; D is bounded by the write-back
    /// scheduler's dirty threshold, so the complexity contract survives
    /// write bursts.
    pub fn evict_one(&mut self) -> Option<(CacheKey, Aggregate)> {
        let (ord, key) = match self.best_clean(false) {
            Some(victim) => victim,
            None => {
                let victim = self.best_clean(true)?;
                self.stats.pinned_evictions += 1;
                victim
            }
        };
        if self.policy == Policy::Gds {
            // The evicted entry's H becomes the new floor L.
            self.gds_l = ord;
        }
        self.stats.evictions += 1;
        let agg = self.remove(&key)?;
        Some((key, agg))
    }

    /// Pops the pinned heap if `pinned`, else the unpinned one, to its
    /// least clean `(ord, key)`. Orphaned ranks are dropped, stale or
    /// misplaced ones re-queued, dirty ones set aside and restored.
    fn best_clean(&mut self, pinned: bool) -> Option<(u64, CacheKey)> {
        let (heap, mut dirty, mut found) = (usize::from(pinned), Vec::new(), None);
        while let Some(rank @ Reverse((ord, key, stamp))) = self.heaps[heap].pop() {
            let Some(e) = self.entries.get(&key).filter(|e| e.stamp == stamp) else {
                continue;
            };
            if e.ord > ord || self.pin_counts.contains_key(&key) != pinned {
                self.requeue(key);
            } else if self.dirty.contains(&key) {
                dirty.push(rank);
            } else {
                found = Some((ord, key));
                break;
            }
        }
        self.heaps[heap].extend(dirty);
        found
    }

    /// Queues a fresh rank at `key`'s current `ord`, in the heap of its
    /// pin state, orphaning the one it had. Every push is made here, so
    /// the heaps are rebuilt here once they exceed 2·entries + 64 ranks.
    fn requeue(&mut self, key: CacheKey) {
        let pinned = self.pin_counts.contains_key(&key);
        let e = self.entries.get_mut(&key).expect("key is cached");
        self.stamp += 1;
        (e.stamp, e.queued_pinned) = (self.stamp, pinned);
        self.heaps[usize::from(pinned)].push(Reverse((e.ord, key, self.stamp)));
        if self.queued_ranks() > 2 * self.entries.len() + 64 {
            self.heaps = Default::default();
            let keys: Vec<CacheKey> = self.entries.keys().copied().collect();
            keys.into_iter().for_each(|k| self.requeue(k));
        }
    }

    /// Ranks queued in both heaps, live and orphaned (complexity tests).
    #[doc(hidden)]
    pub fn queued_ranks(&self) -> usize {
        self.heaps[0].len() + self.heaps[1].len()
    }

    /// Iterates over cached keys (diagnostics, tests).
    pub fn keys(&self) -> impl Iterator<Item = &CacheKey> {
        self.entries.keys()
    }

    /// Deep-forks the cache for a kernel-state snapshot.
    ///
    /// Entry aggregates are rebound through `forker` (see
    /// [`iolite_buf::PoolForker`]), so the snapshot owns independent
    /// buffers and the original cache can keep mutating freely.
    pub fn snapshot(&self, forker: &mut iolite_buf::PoolForker) -> UnifiedCache {
        UnifiedCache {
            policy: self.policy,
            budget: self.budget,
            entries: self
                .entries
                .iter()
                .map(|(k, e)| {
                    let agg = forker.fork_aggregate(&e.agg);
                    (*k, Entry { agg, ..*e })
                })
                .collect(),
            heaps: self.heaps.clone(),
            stamp: self.stamp,
            pin_counts: self.pin_counts.clone(),
            dirty: self.dirty.clone(),
            limbo: self
                .limbo
                .iter()
                .map(|(k, v)| (*k, v.iter().map(|a| forker.fork_aggregate(a)).collect()))
                .collect(),
            dirty_bytes: self.dirty_bytes,
            clock: self.clock,
            gds_l: self.gds_l,
            resident: self.resident,
            stats: self.stats,
        }
    }

    /// Folds the cache's replay-relevant state into a stable digest
    /// (sorted iteration; no pointer identity).
    pub fn digest(&self, h: &mut iolite_buf::Fnv64) {
        h.write_u64(self.budget);
        h.write_u64(self.clock);
        h.write_u64(self.gds_l);
        h.write_u64(self.resident);
        h.write_u64(self.dirty_bytes);
        for v in [
            self.stats.hits,
            self.stats.misses,
            self.stats.bytes_hit,
            self.stats.insertions,
            self.stats.evictions,
            self.stats.write_replacements,
            self.stats.pinned_evictions,
            self.stats.dirty_installs,
            self.stats.dirty_coalesced,
        ] {
            h.write_u64(v);
        }
        h.write_u64(self.entries.len() as u64);
        let mut keys: Vec<CacheKey> = self.entries.keys().copied().collect();
        keys.sort_unstable();
        for k in keys {
            let e = &self.entries[&k];
            h.write_u64(k.file.0);
            h.write_u64(e.len);
            h.write_u64(e.ord);
            h.write_bool(self.pin_counts.contains_key(&k));
            h.write_bool(self.dirty.contains(&k));
            iolite_buf::digest_aggregate(&e.agg, h);
        }
        let mut pins: Vec<(CacheKey, u32)> =
            self.pin_counts.iter().map(|(k, v)| (*k, *v)).collect();
        pins.sort_unstable();
        h.write_u64(pins.len() as u64);
        for (k, v) in pins {
            h.write_u64(k.file.0);
            h.write_u32(v);
        }
        let mut limbo_keys: Vec<CacheKey> = self.limbo.keys().copied().collect();
        limbo_keys.sort_unstable();
        h.write_u64(limbo_keys.len() as u64);
        for k in limbo_keys {
            h.write_u64(k.file.0);
            let parked = &self.limbo[&k];
            h.write_u64(parked.len() as u64);
            for a in parked {
                iolite_buf::digest_aggregate(a, h);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iolite_buf::{Acl, BufferPool, PoolId};

    fn pool() -> BufferPool {
        BufferPool::new(PoolId(1), Acl::kernel_only(), 64 * 1024)
    }

    fn agg(p: &BufferPool, n: usize) -> Aggregate {
        Aggregate::from_bytes(p, &vec![0xAB; n])
    }

    #[test]
    fn hit_and_miss_accounting() {
        let p = pool();
        let mut c = UnifiedCache::new(Policy::Lru, 1 << 20);
        let k = CacheKey::whole(FileId(1));
        assert!(c.lookup(&k).is_none());
        c.insert(k, agg(&p, 100));
        let got = c.lookup(&k).unwrap();
        assert_eq!(got.len(), 100);
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.bytes_hit), (1, 1, 100));
    }

    #[test]
    fn lru_evicts_least_recent() {
        let p = pool();
        let mut c = UnifiedCache::new(Policy::Lru, 250);
        let (k1, k2, k3) = (
            CacheKey::whole(FileId(1)),
            CacheKey::whole(FileId(2)),
            CacheKey::whole(FileId(3)),
        );
        c.insert(k1, agg(&p, 100));
        c.insert(k2, agg(&p, 100));
        // Touch k1 so k2 becomes LRU.
        c.lookup(&k1);
        let evicted = c.insert(k3, agg(&p, 100));
        assert_eq!(evicted.len(), 1);
        assert_eq!(evicted[0].0, k2);
        assert!(c.contains(&k1) && c.contains(&k3));
    }

    #[test]
    fn gds_prefers_evicting_large_entries() {
        let p = pool();
        let mut c = UnifiedCache::new(Policy::Gds, 100_000);
        let small = CacheKey::whole(FileId(1));
        let large = CacheKey::whole(FileId(2));
        c.insert(small, agg(&p, 1_000));
        c.insert(large, agg(&p, 60_000));
        // Both inserted; now overflow the budget.
        let trigger = CacheKey::whole(FileId(3));
        let evicted = c.insert(trigger, agg(&p, 50_000));
        assert_eq!(evicted[0].0, large, "GDS evicts the big file first");
        assert!(c.contains(&small));
    }

    #[test]
    fn gds_floor_ages_old_entries() {
        let p = pool();
        let mut c = UnifiedCache::new(Policy::Gds, 3_000);
        let key = CacheKey::whole;
        c.insert(key(FileId(1)), agg(&p, 1_000));
        c.insert(key(FileId(2)), agg(&p, 1_000));
        c.insert(key(FileId(3)), agg(&p, 1_000));
        // Force one eviction: equal H values, so the floor L rises to
        // that common H.
        let first = c.insert(key(FileId(4)), agg(&p, 1_000));
        assert_eq!(first.len(), 1);
        // Touch FileId(2): its H is recomputed above the raised floor.
        c.lookup(&key(FileId(2)));
        // Next eviction must take an untouched entry, not the refreshed
        // one — recency enters GDS exactly through the L floor.
        let second = c.insert(key(FileId(5)), agg(&p, 1_000));
        assert_ne!(second[0].0, key(FileId(2)));
        assert!(c.contains(&key(FileId(2))));
    }

    #[test]
    fn pinned_entries_survive_unpinned_ones() {
        let p = pool();
        let mut c = UnifiedCache::new(Policy::Lru, 250);
        let (k1, k2, k3) = (
            CacheKey::whole(FileId(1)),
            CacheKey::whole(FileId(2)),
            CacheKey::whole(FileId(3)),
        );
        c.insert(k1, agg(&p, 100));
        c.insert(k2, agg(&p, 100));
        c.pin(&k1);
        // k1 is older, but pinned: k2 must be the victim.
        let evicted = c.insert(k3, agg(&p, 100));
        assert_eq!(evicted[0].0, k2);
        assert_eq!(c.stats().pinned_evictions, 0);
    }

    #[test]
    fn all_pinned_falls_back_to_pinned_eviction() {
        let p = pool();
        let mut c = UnifiedCache::new(Policy::Lru, 1 << 20);
        let k1 = CacheKey::whole(FileId(1));
        let k2 = CacheKey::whole(FileId(2));
        c.insert(k1, agg(&p, 100));
        c.insert(k2, agg(&p, 100));
        c.pin(&k1);
        c.pin(&k2);
        // Everything is referenced; shrinking the budget must still make
        // progress, sacrificing pinned entries LRU-first.
        let evicted = c.set_budget(150);
        assert_eq!(evicted.len(), 1);
        assert_eq!(evicted[0].0, k1);
        assert_eq!(c.stats().pinned_evictions, 1);
    }

    #[test]
    fn write_replacement_preserves_old_buffers() {
        let p = pool();
        let mut c = UnifiedCache::new(Policy::Lru, 1 << 20);
        let k = CacheKey::whole(FileId(1));
        c.insert(k, Aggregate::from_bytes(&p, b"version-1"));
        // A reader holds the old snapshot.
        let snapshot = c.lookup(&k).unwrap();
        let _old = c.replace_for_write(&k).unwrap();
        c.insert(k, Aggregate::from_bytes(&p, b"version-2"));
        // The reader's snapshot still reads the old value.
        assert_eq!(snapshot.to_vec(), b"version-1");
        assert_eq!(c.lookup(&k).unwrap().to_vec(), b"version-2");
        assert_eq!(c.stats().write_replacements, 1);
    }

    #[test]
    fn budget_shrink_evicts() {
        let p = pool();
        let mut c = UnifiedCache::new(Policy::Lru, 1 << 20);
        for i in 0..10 {
            c.insert(CacheKey::whole(FileId(i)), agg(&p, 1_000));
        }
        assert_eq!(c.resident_bytes(), 10_000);
        let evicted = c.set_budget(4_500);
        assert_eq!(evicted.len(), 6);
        assert!(c.resident_bytes() <= 4_500);
        assert_eq!(c.len(), 4);
    }

    #[test]
    fn unpin_reenables_eviction() {
        let p = pool();
        let mut c = UnifiedCache::new(Policy::Lru, 1 << 20);
        let k = CacheKey::whole(FileId(1));
        c.insert(k, agg(&p, 100));
        c.pin(&k);
        c.pin(&k);
        c.unpin(&k);
        assert_eq!(c.pins(&k), 1);
        c.unpin(&k);
        assert_eq!(c.pins(&k), 0);
        let (victim, _) = c.evict_one().unwrap();
        assert_eq!(victim, k);
        assert_eq!(c.stats().pinned_evictions, 0);
    }

    /// Regression for the pin-steal interleaving: request A pins the
    /// key, a write replaces the entry, request B pins the key, then
    /// A's deferred unpin fires. With per-entry pin counts the
    /// replacement dropped A's pin, so A's unpin stole B's and left
    /// B's in-flight entry evictable.
    #[test]
    fn write_replacement_preserves_pin_counts() {
        let p = pool();
        let mut c = UnifiedCache::new(Policy::Lru, 1 << 20);
        let hot = CacheKey::whole(FileId(1));
        let cold = CacheKey::whole(FileId(2));
        c.insert(hot, Aggregate::from_bytes(&p, b"version-1"));
        c.insert(cold, agg(&p, 9));
        // Request A starts transmitting the hot document.
        c.pin(&hot);
        // A write replaces the entry mid-transmission (§3.5 snapshot).
        let _old = c.replace_for_write(&hot);
        assert_eq!(c.pins(&hot), 1, "pin survives the entry's removal");
        c.insert(hot, Aggregate::from_bytes(&p, b"version-2"));
        assert_eq!(c.pins(&hot), 1, "pin carries onto the new entry");
        // Request B starts transmitting the new version.
        c.pin(&hot);
        assert_eq!(c.pins(&hot), 2);
        // A's transmission drains; its deferred unpin fires.
        c.unpin(&hot);
        // B's pin must still protect the entry: the victim is the cold
        // unpinned entry, not the hot in-flight one.
        assert_eq!(c.pins(&hot), 1);
        let (victim, _) = c.evict_one().unwrap();
        assert_eq!(victim, cold, "in-flight entry must not be the victim");
        assert!(c.contains(&hot));
        assert_eq!(c.stats().pinned_evictions, 0);
    }

    /// A pin registered while the key's entry is evicted (the kernel
    /// pinned after its read raced an eviction) still guards a
    /// re-admitted entry, and the balanced unpin releases it.
    #[test]
    fn pin_outlives_eviction_and_readmission() {
        let p = pool();
        let mut c = UnifiedCache::new(Policy::Lru, 1 << 20);
        let k = CacheKey::whole(FileId(1));
        c.insert(k, agg(&p, 100));
        c.pin(&k);
        let (victim, _) = c.evict_one().unwrap();
        assert_eq!(victim, k);
        assert_eq!(c.stats().pinned_evictions, 1);
        assert_eq!(c.pins(&k), 1, "outside reference outlives the entry");
        // Re-admission under the still-referenced key: born pinned.
        c.insert(k, agg(&p, 100));
        c.insert(CacheKey::whole(FileId(2)), agg(&p, 100));
        let (victim, _) = c.evict_one().unwrap();
        assert_eq!(victim, CacheKey::whole(FileId(2)));
        // The deferred release finally fires: k becomes evictable.
        c.unpin(&k);
        let (victim, _) = c.evict_one().unwrap();
        assert_eq!(victim, k);
    }

    /// The victim heaps stay consistent through pin/unpin/lookup
    /// interleavings: a pinned entry met in the unpinned heap moves to
    /// the pinned one, and its last unpin queues it back.
    #[test]
    fn pin_transitions_move_between_indexes() {
        let p = pool();
        let mut c = UnifiedCache::new(Policy::Lru, 1 << 20);
        let (k1, k2) = (CacheKey::whole(FileId(1)), CacheKey::whole(FileId(2)));
        c.insert(k1, agg(&p, 100));
        c.insert(k2, agg(&p, 100));
        c.pin(&k1);
        // Refresh the pinned entry's priority: it must stay pinned-ranked.
        c.lookup(&k1);
        // k2 is the only unpinned entry and must be the victim even
        // though k1 is older by insertion.
        let (victim, _) = c.evict_one().unwrap();
        assert_eq!(victim, k2);
        c.unpin(&k1);
        let (victim, _) = c.evict_one().unwrap();
        assert_eq!(victim, k1);
        assert_eq!(c.stats().pinned_evictions, 0);
        assert!(c.is_empty());
    }

    /// Dirty entries are never eviction victims — not from the unpinned
    /// heap, and not via the pinned-heap fallback. Only `mark_clean`
    /// re-enables eviction.
    #[test]
    fn dirty_entries_survive_eviction_until_clean() {
        let p = pool();
        let mut c = UnifiedCache::new(Policy::Lru, 1 << 20);
        let (kd, kc) = (CacheKey::whole(FileId(1)), CacheKey::whole(FileId(2)));
        c.insert_dirty(kd, agg(&p, 100));
        c.insert(kc, agg(&p, 100));
        assert!(c.is_dirty(&kd));
        assert_eq!(c.dirty_bytes(), 100);
        // The dirty entry is LRU-older, but the clean one is the victim.
        let (victim, _) = c.evict_one().unwrap();
        assert_eq!(victim, kc);
        // Only a dirty entry remains: eviction must refuse, even via the
        // pinned fallback.
        assert!(c.evict_one().is_none());
        c.pin(&kd);
        assert!(c.evict_one().is_none());
        c.unpin(&kd);
        // Write-back completes: the entry turns clean and evictable.
        assert_eq!(c.mark_clean(&kd), Some(100));
        assert!(!c.is_dirty(&kd));
        assert_eq!(c.dirty_bytes(), 0);
        assert_eq!(c.mark_clean(&kd), None, "second clean is a no-op");
        let (victim, _) = c.evict_one().unwrap();
        assert_eq!(victim, kd);
        let s = c.stats();
        assert_eq!((s.dirty_installs, s.dirty_coalesced), (1, 0));
    }

    /// A dirty install over an existing dirty entry coalesces: the
    /// superseded write's bytes leave the dirty ledger and the event is
    /// counted, so write-back never flushes a stale version.
    #[test]
    fn dirty_reinstall_coalesces_accounting() {
        let p = pool();
        let mut c = UnifiedCache::new(Policy::Lru, 1 << 20);
        let k = CacheKey::whole(FileId(1));
        c.insert_dirty(k, agg(&p, 100));
        c.insert_dirty(k, agg(&p, 300));
        assert_eq!(c.dirty_bytes(), 300);
        let s = c.stats();
        assert_eq!((s.dirty_installs, s.dirty_coalesced), (2, 1));
        // A clean install over a dirty entry also retires the dirty
        // bytes (the caller flushed or discarded the pending write).
        c.insert(k, agg(&p, 50));
        assert_eq!(c.dirty_bytes(), 0);
        assert!(!c.is_dirty(&k));
        assert_eq!(c.stats().dirty_coalesced, 2);
    }

    /// Dirty state survives a deep snapshot fork: flags, the dirty
    /// ledger, and digests all carry over.
    #[test]
    fn snapshot_carries_dirty_state() {
        let p = pool();
        let mut c = UnifiedCache::new(Policy::Lru, 1 << 20);
        let k = CacheKey::whole(FileId(1));
        c.insert_dirty(k, agg(&p, 100));
        let mut forker = iolite_buf::PoolForker::default();
        let snap = c.snapshot(&mut forker);
        assert!(snap.is_dirty(&k));
        assert_eq!(snap.dirty_bytes(), 100);
        let (mut h1, mut h2) = (iolite_buf::Fnv64::new(), iolite_buf::Fnv64::new());
        c.digest(&mut h1);
        snap.digest(&mut h2);
        assert_eq!(h1.finish(), h2.finish(), "snapshot digest must match");
        // Digests must distinguish dirty from clean.
        c.mark_clean(&k);
        let mut h3 = iolite_buf::Fnv64::new();
        c.digest(&mut h3);
        assert_ne!(h2.finish(), h3.finish());
    }
}
