//! Cache-ownership protocol for sharded serving.
//!
//! When the kernel is instantiated once per core (shared-nothing
//! sharding), the unified cache is partitioned too, and the design
//! question is who may hold a file's bytes. Every file has exactly one
//! **home shard**, chosen by mixing its id through splitmix64 — the
//! same full-width-mixing discipline as connection routing, so a
//! structured id space (files are created in creation order) cannot
//! skew the partition. The home shard is the only shard that reads the
//! file from disk and the only one whose cache entry is authoritative;
//! a shard that needs a non-resident remote file messages the home
//! shard and receives the home's buffers by reference.
//!
//! What the requesting shard does with them is the
//! [`CacheOwnership`] policy:
//!
//! - [`CacheOwnership::HomeOnly`] sends the home's buffers as they are
//!   and drops them. Aggregate cache residency stays exactly one entry
//!   per file (no replica memory), but every remote request for a hot
//!   file pays a round-trip — this mode *measures* hot-spot imbalance.
//! - [`CacheOwnership::Replicate`] installs a copy into the local
//!   cache (a journaled `CacheInstall`), so a shard's second and later
//!   requests for a remote-homed file hit locally. Hot entries end up
//!   replicated on the shards that want them, trading memory for
//!   locality — the LBICA-style answer to Zipf skew.
//!
//! Neither mode ever takes a lock on another shard's state; the
//! protocol is message-passing only.

use iolite_buf::splitmix64;

use crate::disk::FileId;

/// What a shard does with bytes fetched from a file's home shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOwnership {
    /// Only the home shard caches a file; remote shards re-request per
    /// miss and serve the home's buffers without caching them.
    HomeOnly,
    /// Remote shards install fetched bytes as local cache replicas, so
    /// repeated access to a hot remote file becomes shard-local.
    Replicate,
}

/// The shard that owns `file`'s authoritative cache entry and its disk
/// reads.
///
/// # Panics
///
/// Panics if `shards` is zero.
pub fn home_shard(file: FileId, shards: usize) -> usize {
    assert!(shards > 0, "at least one shard");
    (splitmix64(file.0) % shards as u64) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn home_assignment_is_deterministic_and_total() {
        for shards in 1..=8 {
            for id in [0u64, 1, 9_999, u64::MAX] {
                let h = home_shard(FileId(id), shards);
                assert!(h < shards);
                assert_eq!(h, home_shard(FileId(id), shards));
            }
        }
    }

    /// File ids are handed out sequentially by creation order — the
    /// most structured id space possible. Homing must still be
    /// uniform.
    #[test]
    fn sequential_file_ids_home_uniformly() {
        for shards in [2usize, 4, 8] {
            let n = 10_000usize;
            let mut counts = vec![0usize; shards];
            for id in 0..n {
                counts[home_shard(FileId(id as u64), shards)] += 1;
            }
            let mean = n as f64 / shards as f64;
            for (s, &c) in counts.iter().enumerate() {
                let dev = (c as f64 - mean).abs() / mean;
                assert!(
                    dev < 0.10,
                    "shard {s} homes {c} of {n} files ({shards} shards): \
                     {:.1}% off uniform",
                    dev * 100.0
                );
            }
        }
    }
}
