//! Observational equivalence of the segregated-index `UnifiedCache`
//! against a scan-based reference model.
//!
//! The production cache keeps pinned and unpinned entries in separate
//! ordered indexes so `evict_one` is O(log n); the model below is the
//! pre-segregation implementation — one global priority queue and a
//! linear scan past pinned entries — with the same key-scoped pin
//! accounting. Under random operation sequences both must agree on
//! victim choice, stats, and residency (the §3.7 two-level rule and
//! the GDS `L`-floor semantics are behaviour, not implementation
//! detail).

use std::collections::{BTreeSet, HashMap};

use iolite_buf::{Acl, Aggregate, BufferPool, PoolId};
use iolite_fs::{CacheKey, CacheStats, FileId, Policy, UnifiedCache};
use proptest::prelude::*;

/// The scan-based reference: a single priority queue over all entries;
/// the victim search walks it linearly to skip pinned entries.
struct ScanCache {
    policy: Policy,
    budget: u64,
    entries: HashMap<CacheKey, (u64 /* len */, u64 /* ord */)>,
    queue: BTreeSet<(u64, CacheKey)>,
    pin_counts: HashMap<CacheKey, u32>,
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

    fn insert(&mut self, key: CacheKey, len: u64) -> Vec<CacheKey> {
        self.clock += 1;
        self.remove(&key);
        let ord = self.order_key(len);
        self.entries.insert(key, (len, ord));
        self.queue.insert((ord, key));
        self.resident += len;
        self.stats.insertions += 1;
        self.enforce_budget()
    }

    fn remove(&mut self, key: &CacheKey) -> Option<u64> {
        let (len, ord) = self.entries.remove(key)?;
        self.queue.remove(&(ord, *key));
        self.resident -= len;
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

    /// The pre-segregation victim search: O(n) scan for the first
    /// unpinned entry in global priority order, else the global head.
    fn evict_one(&mut self) -> Option<CacheKey> {
        let victim = self
            .queue
            .iter()
            .find(|(_, k)| !self.pin_counts.contains_key(k))
            .or_else(|| self.queue.iter().next())
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
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The segregated-index cache and the scan-based model agree on
    /// victim choice, stats, pin counts, and residency over arbitrary
    /// operation sequences under every policy.
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
                Op::Insert(k) => {
                    version += 1;
                    let key = CacheKey::whole(FileId(*k as u64 % 24));
                    let len = len_for(*k % 24, version);
                    let evicted_real: Vec<CacheKey> = real
                        .insert(key, Aggregate::from_bytes(&pool, &vec![0xC3; len as usize]))
                        .into_iter()
                        .map(|(k, _)| k)
                        .collect();
                    let evicted_model = model.insert(key, len);
                    prop_assert_eq!(evicted_real, evicted_model);
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
