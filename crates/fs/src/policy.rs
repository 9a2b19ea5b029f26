//! Cache replacement policies (§3.7, §5.6).
//!
//! The paper ships two relevant behaviours:
//!
//! * The **default rule**: entries ordered "first by current use ...,
//!   then by time of last access"; evict the LRU *unreferenced* entry,
//!   else the LRU referenced entry. In this implementation that rule is
//!   [`Policy::Lru`] combined with the cache's pin-awareness — pinned
//!   (currently referenced) entries are passed over and only chosen when
//!   nothing else remains.
//! * **Greedy Dual-Size** ([`Policy::Gds`]): the application-customized
//!   policy Flash-Lite installs through IO-Lite's cache-policy hook
//!   (§5: "a policy that performs well on Web workloads", Cao & Irani).
//!   Each entry carries `H = L + cost/size`; the minimum-`H` entry is
//!   evicted and its `H` becomes the new floor `L`.
//!
//! The Fig. 11 ablation switches Flash-Lite between the two.

/// A replacement policy for the unified file cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Policy {
    /// Least-recently-used ordering (the paper's default rule when
    /// combined with pin preference).
    Lru,
    /// Greedy Dual-Size with uniform miss cost: favors keeping small,
    /// popular documents, maximizing request hit ratio.
    Gds,
}

/// Fixed-point scale for GDS `H` values (1/size with sizes up to ~1GB
/// still yields distinct integer priorities).
pub(crate) const GDS_SCALE: u64 = 1_000_000_000_000;

impl Policy {
    /// The ordering key a (re)inserted or accessed entry receives.
    ///
    /// * LRU: the current logical clock.
    /// * GDS: `L + SCALE / size` (uniform cost).
    ///
    /// Public but hidden: the cache-equivalence property suite shares
    /// this single implementation with its reference model so formula
    /// changes cannot silently diverge from the test's expectations.
    #[doc(hidden)]
    pub fn order_key(self, clock: u64, gds_l: u64, size: u64) -> u64 {
        match self {
            Policy::Lru => clock,
            Policy::Gds => gds_l + GDS_SCALE / size.max(1),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lru_key_is_clock() {
        assert_eq!(Policy::Lru.order_key(42, 0, 1000), 42);
    }

    #[test]
    fn gds_prefers_small_files() {
        let small = Policy::Gds.order_key(0, 0, 1_000);
        let large = Policy::Gds.order_key(0, 0, 1_000_000);
        // Smaller files get higher H, so they are evicted later.
        assert!(small > large);
    }

    #[test]
    fn gds_floor_raises_priority() {
        let early = Policy::Gds.order_key(0, 0, 1_000_000);
        let late = Policy::Gds.order_key(0, 500_000, 1_000_000);
        assert!(late > early, "aging via L must raise fresh entries");
    }

    #[test]
    fn gds_zero_size_is_safe() {
        // Defensive: empty files never divide by zero.
        assert_eq!(Policy::Gds.order_key(0, 7, 0), 7 + GDS_SCALE);
    }
}
