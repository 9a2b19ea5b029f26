//! Cache ownership for sharded serving: one owner per file.
//!
//! When the kernel is instantiated once per core (shared-nothing
//! sharding), the unified cache is partitioned too. Every file has
//! exactly one **home shard**, chosen by mixing its id through
//! splitmix64 — the same full-width-mixing discipline as connection
//! routing, so a structured id space (files are created in creation
//! order) cannot skew the partition. The home shard is the only shard
//! that reads the file from disk, writes it, or caches it. A shard that
//! serves a request for a remote file messages the home shard and sends
//! the home's buffers by reference, without copying or caching them, so
//! the fleet holds a file's data once — IO-Lite's unified cache (§3),
//! partitioned rather than replicated.
//!
//! No shard ever takes a lock on another shard's state; the protocol is
//! message-passing only.

use iolite_buf::splitmix64;

use crate::disk::FileId;

/// What a shard does with bytes fetched from a file's home shard. One
/// policy is left, so nothing in the workspace branches on it; the enum
/// stays only because `perf/` names it (its workload specs and shard
/// contexts set `HomeOnly`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOwnership {
    /// Only the home shard caches a file; other shards fetch it from the
    /// home for each request (concurrent requests share one fetch) and
    /// serve the home's buffers without caching them.
    HomeOnly,
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
