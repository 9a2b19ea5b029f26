//! Observational equivalence of the lazily ranked `UnifiedCache`
//! against a scan-based reference model.
//!
//! The production cache keeps its policy order lazily: two min-heaps
//! (unpinned, pinned) of lower-bound ranks, fixed up only when the victim
//! search pops a stale, orphaned, misplaced or dirty one, so a hit, a pin
//! and an unpin touch no heap. The model below is the pre-segregation
//! implementation — one exact global priority queue, re-ranked on every
//! hit, and a linear scan past pinned and dirty entries — with the same
//! key-scoped pin accounting. Under random operation sequences both must
//! agree on victim choice, stats, dirty accounting and residency (the
//! §3.7 two-level rule, the GDS `L`-floor semantics and "a dirty entry is
//! never a victim" are behaviour, not implementation detail).

use std::collections::{BTreeSet, HashMap};

use iolite_buf::{Acl, Aggregate, BufferPool, PoolId};
use iolite_fs::{CacheKey, CacheStats, FileId, Policy, UnifiedCache};
use proptest::prelude::*;

/// The scan-based reference: a single priority queue over all entries;
/// the victim search walks it linearly to skip pinned and dirty entries.
struct ScanCache {
    policy: Policy,
    budget: u64,
    entries: HashMap<CacheKey, (u64 /* len */, u64 /* ord */)>,
    queue: BTreeSet<(u64, CacheKey)>,
    pin_counts: HashMap<CacheKey, u32>,
    dirty: BTreeSet<CacheKey>,
    dirty_bytes: u64,
    clock: u64,
    gds_l: u64,
    resident: u64,
    stats: CacheStats,
}

impl ScanCache {
    fn new(policy: Policy, budget: u64) -> Self {
        ScanCache {
            policy,
            budget,
            entries: HashMap::new(),
            queue: BTreeSet::new(),
            pin_counts: HashMap::new(),
            dirty: BTreeSet::new(),
            dirty_bytes: 0,
            clock: 0,
            gds_l: 0,
            resident: 0,
            stats: CacheStats::default(),
        }
    }

    fn order_key(&self, len: u64) -> u64 {
        // The model shares the production priority formula — the
        // behaviour under test is the *victim search*, not the formula.
        self.policy.order_key(self.clock, self.gds_l, len)
    }

    fn lookup(&mut self, key: &CacheKey) -> Option<u64> {
        self.clock += 1;
        if let Some((len, ord)) = self.entries.get(key).copied() {
            self.queue.remove(&(ord, *key));
            let ord = self.order_key(len);
            self.entries.insert(*key, (len, ord));
            self.queue.insert((ord, *key));
            self.stats.hits += 1;
            self.stats.bytes_hit += len;
            Some(len)
        } else {
            self.stats.misses += 1;
            None
        }
    }

    fn insert(&mut self, key: CacheKey, len: u64, dirty: bool) -> Vec<CacheKey> {
        self.clock += 1;
        self.remove(&key);
        let ord = self.order_key(len);
        self.entries.insert(key, (len, ord));
        self.queue.insert((ord, key));
        self.resident += len;
        self.stats.insertions += 1;
        if dirty {
            self.dirty.insert(key);
            self.dirty_bytes += len;
            self.stats.dirty_installs += 1;
        }
        self.enforce_budget()
    }

    fn remove(&mut self, key: &CacheKey) -> Option<u64> {
        let (len, ord) = self.entries.remove(key)?;
        self.queue.remove(&(ord, *key));
        self.resident -= len;
        if self.dirty.remove(key) {
            self.dirty_bytes -= len;
            self.stats.dirty_coalesced += 1;
        }
        Some(len)
    }

    fn mark_clean(&mut self, key: &CacheKey) -> Option<u64> {
        if !self.dirty.remove(key) {
            return None;
        }
        let len = self.entries[key].0;
        self.dirty_bytes -= len;
        Some(len)
    }

    fn replace_for_write(&mut self, key: &CacheKey) -> Option<u64> {
        let out = self.remove(key);
        if out.is_some() {
            self.stats.write_replacements += 1;
        }
        out
    }

    fn pin(&mut self, key: &CacheKey) {
        *self.pin_counts.entry(*key).or_insert(0) += 1;
    }

    fn unpin(&mut self, key: &CacheKey) {
        if let Some(c) = self.pin_counts.get_mut(key) {
            *c -= 1;
            if *c == 0 {
                self.pin_counts.remove(key);
            }
        }
    }

    fn pins(&self, key: &CacheKey) -> u32 {
        self.pin_counts.get(key).copied().unwrap_or(0)
    }

    fn set_budget(&mut self, budget: u64) -> Vec<CacheKey> {
        self.budget = budget;
        self.enforce_budget()
    }

    fn enforce_budget(&mut self) -> Vec<CacheKey> {
        let mut evicted = Vec::new();
        while self.resident > self.budget {
            match self.evict_one() {
                Some(k) => evicted.push(k),
                None => break,
            }
        }
        evicted
    }

    /// The pre-segregation victim search: O(n) scan for the first clean
    /// unpinned entry in global priority order, else the first clean one.
    /// A dirty entry is never a victim, pinned or not.
    fn evict_one(&mut self) -> Option<CacheKey> {
        let clean = |(_, k): &&(u64, CacheKey)| !self.dirty.contains(k);
        let victim = self
            .queue
            .iter()
            .filter(clean)
            .find(|(_, k)| !self.pin_counts.contains_key(k))
            .or_else(|| self.queue.iter().find(clean))
            .copied()?;
        let (ord, key) = victim;
        if self.pin_counts.contains_key(&key) {
            self.stats.pinned_evictions += 1;
        }
        if self.policy == Policy::Gds {
            self.gds_l = ord;
        }
        self.stats.evictions += 1;
        self.remove(&key)?;
        Some(key)
    }
}

#[derive(Debug, Clone)]
enum Op {
    Insert(u8),
    InsertDirty(u8),
    MarkClean(u8),
    Lookup(u8),
    Remove(u8),
    ReplaceForWrite(u8),
    Pin(u8),
    Unpin(u8),
    SetBudget(u32),
    EvictOne,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        any::<u8>().prop_map(Op::Insert),
        any::<u8>().prop_map(Op::InsertDirty),
        any::<u8>().prop_map(Op::MarkClean),
        any::<u8>().prop_map(Op::Lookup),
        any::<u8>().prop_map(Op::Remove),
        any::<u8>().prop_map(Op::ReplaceForWrite),
        any::<u8>().prop_map(Op::Pin),
        any::<u8>().prop_map(Op::Unpin),
        (0u32..1 << 18).prop_map(Op::SetBudget),
        Just(Op::EvictOne),
    ]
}

/// Entry sizes vary with key and version so GDS priorities differ
/// across keys and across re-insertions of the same key.
fn len_for(key: u8, version: u64) -> u64 {
    64 + (key as u64 % 13) * 100 + (version % 7) * 33
}

proptest! {
    #![proptest_config(ProptestConfig::default())]

    /// The lazily ranked cache and the scan-based model agree on victim
    /// choice, stats, pin counts, dirty accounting and residency over
    /// arbitrary operation sequences under every policy.
    #[test]
    fn segregated_index_matches_scan_model(
        ops in proptest::collection::vec(op_strategy(), 1..250),
        policy in prop_oneof![Just(Policy::Lru), Just(Policy::Gds)],
    ) {
        let pool = BufferPool::new(PoolId(1), Acl::kernel_only(), 64 * 1024);
        let mut real = UnifiedCache::new(policy, 1 << 18);
        let mut model = ScanCache::new(policy, 1 << 18);
        let mut version = 0u64;

        for op in &ops {
            match op {
                Op::Insert(k) | Op::InsertDirty(k) => {
                    version += 1;
                    let key = CacheKey::whole(FileId(*k as u64 % 24));
                    let len = len_for(*k % 24, version);
                    let agg = Aggregate::from_bytes(&pool, &vec![0xC3; len as usize]);
                    let dirty = matches!(op, Op::InsertDirty(_));
                    let evicted_real = if dirty {
                        real.insert_dirty(key, agg)
                    } else {
                        real.insert(key, agg)
                    };
                    let evicted_real: Vec<CacheKey> =
                        evicted_real.into_iter().map(|(k, _)| k).collect();
                    prop_assert_eq!(evicted_real, model.insert(key, len, dirty));
                }
                Op::MarkClean(k) => {
                    let key = CacheKey::whole(FileId(*k as u64 % 24));
                    prop_assert_eq!(real.mark_clean(&key), model.mark_clean(&key));
                }
                Op::Lookup(k) => {
                    let key = CacheKey::whole(FileId(*k as u64 % 24));
                    let got = real.lookup(&key).map(|a| a.len());
                    prop_assert_eq!(got, model.lookup(&key));
                }
                Op::Remove(k) => {
                    let key = CacheKey::whole(FileId(*k as u64 % 24));
                    let got = real.remove(&key).map(|a| a.len());
                    prop_assert_eq!(got, model.remove(&key));
                }
                Op::ReplaceForWrite(k) => {
                    let key = CacheKey::whole(FileId(*k as u64 % 24));
                    let got = real.replace_for_write(&key).map(|a| a.len());
                    prop_assert_eq!(got, model.replace_for_write(&key));
                }
                Op::Pin(k) => {
                    let key = CacheKey::whole(FileId(*k as u64 % 24));
                    real.pin(&key);
                    model.pin(&key);
                    prop_assert_eq!(real.pins(&key), model.pins(&key));
                }
                Op::Unpin(k) => {
                    let key = CacheKey::whole(FileId(*k as u64 % 24));
                    real.unpin(&key);
                    model.unpin(&key);
                    prop_assert_eq!(real.pins(&key), model.pins(&key));
                }
                Op::SetBudget(b) => {
                    let evicted_real: Vec<CacheKey> = real
                        .set_budget(*b as u64)
                        .into_iter()
                        .map(|(k, _)| k)
                        .collect();
                    prop_assert_eq!(evicted_real, model.set_budget(*b as u64));
                }
                Op::EvictOne => {
                    let got = real.evict_one().map(|(k, _)| k);
                    prop_assert_eq!(got, model.evict_one());
                }
            }
            // Invariants after every step: identical observable state.
            prop_assert_eq!(real.stats(), model.stats);
            prop_assert_eq!(real.resident_bytes(), model.resident);
            prop_assert_eq!(real.len(), model.entries.len());
            prop_assert_eq!(real.dirty_bytes(), model.dirty_bytes);
            prop_assert!(real.dirty_keys().eq(model.dirty.iter()));
        }
    }
}

// ---- complexity guard -----------------------------------------------------

/// Eviction must not pay for what the network holds. 2^16 entries
/// pinned mid-transmission — under LRU all older than anything that
/// follows, so a single-queue victim search walks every one of them —
/// then 2^18 rounds of insert-one/evict-one over a four-entry unpinned
/// window: a second with the segregated indexes, 2^34 pinned entries
/// passed over under the scan model above. Victims must leave oldest
/// first, as the policy orders them. No clock: a regression shows as a
/// suite that never finishes.
#[test]
fn evict_cost_does_not_scale_with_pinned_entries() {
    const PINNED: u64 = 1 << 16;
    const ROUNDS: u64 = 1 << 18;
    const WINDOW: u64 = 4;
    let pool = BufferPool::new(PoolId(1), Acl::kernel_only(), 64 * 1024);
    let body = || Aggregate::from_bytes(&pool, &[0xEE; 16]);
    let mut cache = UnifiedCache::new(Policy::Lru, u64::MAX);
    for i in 0..PINNED + WINDOW {
        let key = CacheKey::whole(FileId(i));
        cache.insert(key, body());
        if i < PINNED {
            cache.pin(&key);
        }
    }
    for round in 0..ROUNDS {
        let newest = PINNED + WINDOW + round;
        let (victim, agg) = cache.evict_one().expect("an unpinned victim");
        assert_eq!(victim, CacheKey::whole(FileId(newest - WINDOW)));
        cache.insert(CacheKey::whole(FileId(newest)), agg);
    }
    let stats = cache.stats();
    assert_eq!((stats.evictions, stats.pinned_evictions), (ROUNDS, 0));
    assert_eq!(cache.len() as u64, PINNED + WINDOW);
    // Only with the window gone does the search fall back to a pinned
    // entry (§3.7's last resort), again oldest first.
    for _ in 0..WINDOW {
        cache.evict_one().expect("window entry");
    }
    assert_eq!(
        cache.evict_one().map(|(k, _)| k),
        Some(CacheKey::whole(FileId(0)))
    );
    assert_eq!(cache.stats().pinned_evictions, 1);
}

/// The one hit that must queue a rank. Under GDS a hit re-ranks an entry
/// at `L + c/size`, which stays at or above its queued rank while `L`
/// only rises; a last-resort eviction of a pinned entry ranked below `L`
/// lowers it. Here X is ranked at `2·10^10` while `L` = 10^10, then the
/// pinned P (10^9) is evicted as the last resort and `L` falls to 10^9.
/// X's next hit gives it 1.1·10^10, under Y's 1.21·10^10: X must now be
/// the victim, which it is only if the hit queued a fresh rank.
#[test]
fn a_hit_after_the_gds_floor_falls_is_re_ranked() {
    let pool = BufferPool::new(PoolId(1), Acl::kernel_only(), 64 * 1024);
    let body = |n: usize| Aggregate::from_bytes(&pool, &vec![0x5A; n]);
    let key = |i| CacheKey::whole(FileId(i));
    let (p, v, x, y) = (key(1), key(2), key(3), key(4));
    let mut cache = UnifiedCache::new(Policy::Gds, u64::MAX);
    cache.insert(p, body(1_000));
    cache.pin(&p);
    cache.insert(v, body(100));
    assert_eq!(
        cache.evict_one().map(|(k, _)| k),
        Some(v),
        "L rises to 10^10"
    );
    cache.insert(x, body(100));
    cache.pin(&x);
    assert_eq!(
        cache.evict_one().map(|(k, _)| k),
        Some(p),
        "last resort: L falls"
    );
    assert_eq!(cache.stats().pinned_evictions, 1);
    cache.unpin(&x);
    cache.insert(y, body(90));
    assert!(cache.lookup(&x).is_some());
    assert_eq!(cache.evict_one().map(|(k, _)| k), Some(x));
    assert_eq!(cache.evict_one().map(|(k, _)| k), Some(y));
}

/// A hit, a pin and an unpin queue nothing, and orphaned ranks are
/// reclaimed. 2^20 rounds of pin/lookup/unpin (eight requests in flight)
/// over 2^10 resident entries under each policy, with no eviction, leave
/// exactly one queued rank per entry; then 2^16 write replacements, each
/// orphaning a rank, keep the heaps within 2·entries + 64 ranks, and
/// victims still leave in policy order. No clock: a heap that grew per
/// hit shows in the count, not in a timing.
#[test]
fn heaps_do_not_grow_with_hits_pins_or_rewrites() {
    const ENTRIES: u64 = 1 << 10;
    const ROUNDS: u64 = 1 << 20;
    const REWRITES: u64 = 1 << 16;
    const IN_FLIGHT: u64 = 8;
    let pool = BufferPool::new(PoolId(1), Acl::kernel_only(), 64 * 1024);
    let body = |i: u64| Aggregate::from_bytes(&pool, &vec![0x3C; 16 + (i % 61) as usize]);
    let key = |i: u64| CacheKey::whole(FileId(i));
    let bound = |c: &UnifiedCache| 2 * c.len() + 64;
    for policy in [Policy::Lru, Policy::Gds] {
        let mut cache = UnifiedCache::new(policy, u64::MAX);
        for i in 0..ENTRIES {
            cache.insert(key(i), body(i));
        }
        let pick = |r: u64| key(r.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 54);
        for r in 0..ROUNDS {
            cache.pin(&pick(r));
            assert!(cache.lookup(&pick(r)).is_some());
            if r >= IN_FLIGHT {
                cache.unpin(&pick(r - IN_FLIGHT));
            }
            assert!(cache.queued_ranks() <= bound(&cache));
        }
        for r in ROUNDS - IN_FLIGHT..ROUNDS {
            cache.unpin(&pick(r));
        }
        assert_eq!(
            cache.queued_ranks(),
            cache.len(),
            "{policy:?}: a hit, pin or unpin queued a rank"
        );
        assert_eq!(cache.stats().evictions, 0);
        for r in 0..REWRITES {
            let k = key(r % ENTRIES);
            cache.replace_for_write(&k);
            cache.insert(k, body(r % ENTRIES));
            assert!(cache.queued_ranks() <= bound(&cache));
        }
        if policy == Policy::Lru {
            // Rewritten oldest-first, so they leave oldest-first.
            for i in 0..ENTRIES {
                assert_eq!(cache.evict_one().map(|(k, _)| k), Some(key(i)));
            }
        }
    }
}
