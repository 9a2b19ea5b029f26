//! The pageout daemon's cache-eviction trigger (§3.7).
//!
//! The paper's rule, verbatim: "If, during the period since the last
//! cache entry eviction, more than half of VM pages selected for
//! replacement were pages containing cached I/O data, then it is assumed
//! that the current file cache is too large, and we evict one cache
//! entry. Because the cache is enlarged on every miss, this policy tends
//! to keep the file cache at a size such that about half of all VM page
//! replacements affect file cache pages."
//!
//! The file-cache module reports page replacements to this daemon and
//! asks it whether to evict; backing-store writes are counted so the
//! multi-backing-store behaviour (paging space plus the files a page
//! caches for) stays observable.

/// Classification of a page selected for replacement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PageClass {
    /// The page holds cached I/O data (IO-Lite buffers backing the file
    /// cache).
    CachedIo,
    /// Any other page (application anonymous memory, program text...).
    Other,
}

/// What the pageout daemon decided to do under memory pressure.
///
/// With a write path (PR 10) the daemon is no longer just an eviction
/// trigger: dirty cache entries cannot be discarded, so pressure on a
/// write-heavy cache must be relieved by *write-back* (clean the dirty
/// data, then it becomes evictable), while pressure on a read-heavy
/// cache is still relieved by plain clean eviction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PageoutAction {
    /// Flush dirty entries through the write-back scheduler.
    WriteBack,
    /// Evict one clean cache entry (§3.7).
    EvictClean,
    /// No action: the §3.7 predicate is not armed.
    Idle,
}

/// Implements the §3.7 eviction-trigger rule and pageout statistics.
#[derive(Debug, Default, Clone)]
pub struct PageoutDaemon {
    /// Replacements observed since the last cache-entry eviction.
    cached_io_since_evict: u64,
    other_since_evict: u64,
    /// Lifetime counters.
    total_cached_io: u64,
    total_other: u64,
    evictions_signalled: u64,
    backing_store_writes: u64,
    backing_store_bytes: u64,
    dirty_writebacks: u64,
    clean_evictions: u64,
}

impl PageoutDaemon {
    /// Creates an idle daemon.
    pub fn new() -> Self {
        PageoutDaemon::default()
    }

    /// Records that the VM system selected a page of `class` for
    /// replacement.
    pub fn page_replaced(&mut self, class: PageClass) {
        match class {
            PageClass::CachedIo => {
                self.cached_io_since_evict += 1;
                self.total_cached_io += 1;
            }
            PageClass::Other => {
                self.other_since_evict += 1;
                self.total_other += 1;
            }
        }
    }

    /// The §3.7 predicate: should the file cache evict one entry now?
    ///
    /// True when more than half of the pages replaced since the previous
    /// eviction held cached I/O data. Callers that evict must then call
    /// [`PageoutDaemon::eviction_performed`].
    pub(crate) fn should_evict_cache_entry(&self) -> bool {
        let total = self.cached_io_since_evict + self.other_since_evict;
        total > 0 && self.cached_io_since_evict * 2 > total
    }

    /// Resets the per-period counters after the cache evicted an entry.
    pub fn eviction_performed(&mut self) {
        self.evictions_signalled += 1;
        self.cached_io_since_evict = 0;
        self.other_since_evict = 0;
    }

    /// Arbitrates dirty write-back vs. clean eviction under pressure.
    ///
    /// When the §3.7 predicate is armed, the daemon relieves pressure by
    /// the cheapest *safe* action: a clean victim is evicted for free,
    /// but once the dirty pool passes the write-back scheduler's
    /// threshold — or when every remaining entry is dirty and there is
    /// nothing clean to evict — the answer is write-back, because
    /// cleaning is the only way to mint new victims. Records the
    /// decision; the caller performs it and then calls
    /// [`PageoutDaemon::eviction_performed`] to close the period.
    pub fn arbitrate(
        &mut self,
        dirty_bytes: u64,
        dirty_threshold: u64,
        has_clean_victim: bool,
    ) -> PageoutAction {
        if !self.should_evict_cache_entry() {
            return PageoutAction::Idle;
        }
        let dirty_armed = dirty_bytes > 0 && dirty_bytes >= dirty_threshold;
        if dirty_armed || (!has_clean_victim && dirty_bytes > 0) {
            self.dirty_writebacks += 1;
            PageoutAction::WriteBack
        } else if has_clean_victim {
            self.clean_evictions += 1;
            PageoutAction::EvictClean
        } else {
            PageoutAction::Idle
        }
    }

    /// Records a backing-store write performed while paging out an
    /// IO-Lite buffer page (possibly to several stores: paging space plus
    /// each file caching the page, §3.7).
    pub fn backing_store_write(&mut self, stores: u64, bytes: u64) {
        self.backing_store_writes += stores;
        self.backing_store_bytes += stores * bytes;
    }

    /// Lifetime count of cached-I/O page replacements.
    pub fn total_cached_io(&self) -> u64 {
        self.total_cached_io
    }

    /// Number of cache-entry evictions signalled.
    pub fn evictions(&self) -> u64 {
        self.evictions_signalled
    }

    /// Backing-store writes issued (one per store per page).
    pub fn backing_writes(&self) -> u64 {
        self.backing_store_writes
    }

    /// Bytes written to backing stores.
    pub fn backing_bytes(&self) -> u64 {
        self.backing_store_bytes
    }

    /// Pressure resolutions decided as dirty write-back.
    pub fn dirty_writebacks(&self) -> u64 {
        self.dirty_writebacks
    }

    /// Pressure resolutions decided as clean eviction.
    pub fn clean_evictions(&self) -> u64 {
        self.clean_evictions
    }

    /// Folds the daemon's counters into a stable digest.
    pub fn digest(&self, h: &mut iolite_buf::Fnv64) {
        for v in [
            self.cached_io_since_evict,
            self.other_since_evict,
            self.total_cached_io,
            self.total_other,
            self.evictions_signalled,
            self.backing_store_writes,
            self.backing_store_bytes,
            self.dirty_writebacks,
            self.clean_evictions,
        ] {
            h.write_u64(v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_replacements_no_eviction() {
        let d = PageoutDaemon::new();
        assert!(!d.should_evict_cache_entry());
    }

    #[test]
    fn majority_rule_exact() {
        let mut d = PageoutDaemon::new();
        d.page_replaced(PageClass::CachedIo);
        d.page_replaced(PageClass::Other);
        // Exactly half: not "more than half".
        assert!(!d.should_evict_cache_entry());
        d.page_replaced(PageClass::CachedIo);
        // 2 of 3: evict.
        assert!(d.should_evict_cache_entry());
    }

    #[test]
    fn eviction_resets_period() {
        let mut d = PageoutDaemon::new();
        for _ in 0..10 {
            d.page_replaced(PageClass::CachedIo);
        }
        assert!(d.should_evict_cache_entry());
        d.eviction_performed();
        assert!(!d.should_evict_cache_entry());
        assert_eq!(d.evictions(), 1);
        // Lifetime counters survive the reset.
        assert_eq!(d.total_cached_io(), 10);
    }

    #[test]
    fn equilibrium_sits_at_half_cached_io_traffic() {
        // The paper: the policy "tends to keep the file cache at a size
        // such that about half of all VM page replacements affect file
        // cache pages". Above that share, evictions fire repeatedly;
        // at or below it, they stop.
        let run = |cached_per_10: u32| {
            let mut d = PageoutDaemon::new();
            let mut evictions = 0;
            for i in 0..1000u32 {
                d.page_replaced(if i % 10 < cached_per_10 {
                    PageClass::CachedIo
                } else {
                    PageClass::Other
                });
                if d.should_evict_cache_entry() {
                    d.eviction_performed();
                    evictions += 1;
                }
            }
            evictions
        };
        // 80% cached-I/O traffic: cache is clearly too big; many signals.
        assert!(run(8) > 100, "heavy traffic must keep evicting");
        // 30% cached-I/O traffic: cache is small; only the initial
        // transient (the pattern's leading cached-I/O run) evicts.
        assert!(run(3) <= 3, "light traffic must not keep evicting");
    }

    #[test]
    fn arbiter_picks_safe_cheapest_action() {
        let mut d = PageoutDaemon::new();
        // Predicate not armed: always idle, no counters.
        assert_eq!(d.arbitrate(1000, 100, true), PageoutAction::Idle);
        for _ in 0..3 {
            d.page_replaced(PageClass::CachedIo);
        }
        // Armed, dirty below threshold, clean victim exists: evict free.
        assert_eq!(d.arbitrate(50, 100, true), PageoutAction::EvictClean);
        // Armed, dirty over threshold: write-back wins even with a clean
        // victim available.
        assert_eq!(d.arbitrate(100, 100, true), PageoutAction::WriteBack);
        // Armed, all entries dirty: write-back is the only safe relief.
        assert_eq!(d.arbitrate(10, 100, false), PageoutAction::WriteBack);
        // Armed, nothing dirty and nothing clean (empty cache): idle.
        assert_eq!(d.arbitrate(0, 100, false), PageoutAction::Idle);
        assert_eq!((d.dirty_writebacks(), d.clean_evictions()), (2, 1));
        // The decisions change the digest.
        let mut h1 = iolite_buf::Fnv64::new();
        d.digest(&mut h1);
        d.arbitrate(0, 100, true);
        let mut h2 = iolite_buf::Fnv64::new();
        d.digest(&mut h2);
        assert_ne!(h1.finish(), h2.finish());
    }

    #[test]
    fn backing_store_multi_write() {
        let mut d = PageoutDaemon::new();
        // One page caching data for two files plus paging space: three
        // stores.
        d.backing_store_write(3, 4096);
        assert_eq!(d.backing_writes(), 3);
        assert_eq!(d.backing_bytes(), 3 * 4096);
    }
}
