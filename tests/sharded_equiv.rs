//! Cross-shard equivalence: over random corpora, scripts and shard
//! counts, a shared-nothing sharded fleet
//! serves **byte-identical responses** and **identical aggregate
//! request counts** to a single-shard run of the same connections —
//! every shard's journal replays bit-identically through the pure core
//! from a blank state, and a second run of the same fleet reproduces
//! every shard's state digest, loop counters and simulated CPU.

use std::collections::HashMap;

use iolite::core::{replay, shard_of_conn, ConnId, CostModel, Kernel, KernelState, Pid};
use iolite::fs::{home_shard, CacheOwnership, Policy};
use iolite::http::event_loop::EventLoopConfig;
use iolite::http::response_header;
use iolite::http::sharded::{run_sharded, ShardedConfig};
use iolite::vm::MemAccount;
use proptest::prelude::*;

fn config(shards: usize, journal: bool) -> ShardedConfig {
    ShardedConfig {
        shards,
        ownership: CacheOwnership::HomeOnly,
        cost: CostModel::pentium_ii_333(),
        policy: Policy::Gds,
        journal,
        loop_cfg: EventLoopConfig {
            capture_responses: true,
            ..EventLoopConfig::default()
        },
    }
}

/// Responses for `path` must be `header ++ body` ground truth — checked
/// against the serving shard's own store (every shard holds the full
/// corpus; only cache residency is partitioned).
fn assert_ground_truth(kernel: &Kernel, path: &str, response: &[u8]) {
    let file = kernel.store.lookup(path).expect("corpus file");
    let flen = kernel.store.len(file).unwrap();
    let body = kernel.store.read(file, 0, flen).unwrap();
    let mut expected = response_header(flen, true);
    expected.extend_from_slice(&body);
    assert_eq!(response, expected, "response for {path}");
}

proptest! {
    #[test]
    fn sharded_serving_is_equivalent_to_single_shard(
        sizes in proptest::collection::vec(1u64..60_000, 2..6),
        picks in proptest::collection::vec(any::<u64>(), 4..24),
        conn_seed in any::<u64>(),
        shards in 2usize..5,
    ) {
        let paths: Vec<String> = (0..sizes.len()).map(|i| format!("/f{i:05}")).collect();
        let setup = |k: &mut Kernel| -> Pid {
            let pid = k.spawn("server");
            for (i, &bytes) in sizes.iter().enumerate() {
                k.create_synthetic_file(&paths[i], bytes, 0x5_0000 + i as u64);
            }
            pid
        };
        // Structured conn ids (stride 4096 off a random base): the
        // full-width mixer must spread them; scripts deal the picks
        // round-robin onto 8 connections.
        let n_conns = picks.len().min(8);
        let mut conns: Vec<(u64, Vec<String>)> = (0..n_conns)
            .map(|j| (conn_seed.wrapping_add(j as u64 * 4096), Vec::new()))
            .collect();
        for (j, pick) in picks.iter().enumerate() {
            let path = paths[(*pick % paths.len() as u64) as usize].clone();
            conns[j % n_conns].1.push(path);
        }

        let base = run_sharded(&config(1, false), setup, conns.clone());
        let fleet = run_sharded(&config(shards, true), setup, conns.clone());
        prop_assert!(fleet.max_inbox_depth <= n_conns, "depth {}", fleet.max_inbox_depth);

        // Identical aggregate counts.
        prop_assert_eq!(base.failed(), 0);
        prop_assert_eq!(fleet.failed(), 0);
        prop_assert_eq!(fleet.completed(), base.completed());
        prop_assert_eq!(fleet.completed() as usize, picks.len());
        prop_assert_eq!(base.remote_reads(), 0, "one shard never routes");

        // Identical per-path request multisets (partitioning moved
        // requests between shards; it must not change what was served).
        let count_paths = |r: &iolite::http::ShardedReport| -> HashMap<String, u64> {
            let mut m = HashMap::new();
            for s in &r.shards {
                for req in &s.report.requests {
                    *m.entry(req.path.clone()).or_insert(0) += 1;
                }
            }
            m
        };
        prop_assert_eq!(count_paths(&fleet), count_paths(&base));

        // Byte-identical responses: both runs must match ground truth
        // (hence each other), remote and local serves alike.
        for report in [&base, &fleet] {
            for s in &report.shards {
                prop_assert_eq!(s.report.stats.blocked_io, 0, "no busy-spin");
                for req in &s.report.requests {
                    assert_ground_truth(
                        &s.kernel,
                        &req.path,
                        req.response.as_ref().expect("captured"),
                    );
                }
            }
        }

        // Same inputs, same fleet: a multi-shard run is a function of
        // its arguments, shard by shard.
        let again = run_sharded(&config(shards, true), setup, conns);
        for (a, b) in fleet.shards.iter().zip(&again.shards) {
            prop_assert_eq!(a.kernel.state_hash(), b.kernel.state_hash(), "shard {}", a.shard);
            prop_assert_eq!(a.report.stats, b.report.stats, "shard {}", a.shard);
            prop_assert_eq!(a.kernel.metrics.cpu(), b.kernel.metrics.cpu(), "shard {}", a.shard);
        }

        // Every shard's journal replays bit-identically from a blank
        // state: this corpus never evicts, so no shard recycles a chunk
        // another shard still holds (see
        // `a_home_that_evicts_lent_buffers_does_not_replay_alone`).
        for outcome in fleet.shards {
            let mut kernel = outcome.kernel;
            let journal = kernel.take_journal().expect("journal was recording");
            prop_assert!(!journal.is_empty());
            let (replayed, metrics) =
                replay(KernelState::new(CostModel::pentium_ii_333(), Policy::Gds), &journal);
            prop_assert_eq!(
                replayed.state_hash(),
                kernel.state_hash(),
                "shard {} journal must replay to the live state digest",
                outcome.shard
            );
            prop_assert_eq!(
                metrics,
                kernel.metrics.clone(),
                "shard {} replayed metrics must match",
                outcome.shard
            );
        }
    }
}

/// The hole in the property's replay check, pinned. A `HomeOnly`
/// requester answers its clients with the home's own buffers and keeps
/// them in its journal, so when the home evicts a lent entry, its live
/// cache pool cannot recycle those chunks while a replay of the home's
/// journal alone can. From then on the home's chunk ids, generations and
/// checksum keys depend on another shard's journal. A lone kernel
/// serving the same requests already diverges under eviction (its own
/// journal holds its buffers), so this is ROADMAP item 1's defect;
/// making buffer lifetime a journaled fact flips the last assertion.
#[test]
fn a_home_that_evicts_lent_buffers_does_not_replay_alone() {
    let setup = |k: &mut Kernel| -> Pid {
        let pid = k.spawn("server");
        // Leave the cache 60 KB: one or two documents.
        let squeeze = k.physmem.cache_budget() - 60 * 1024;
        k.mem_reserve(MemAccount::SocketCopies, squeeze);
        for f in 0..16 {
            k.create_synthetic_file(&format!("/f{f}"), 30_000 + f * 1_000, f);
        }
        pid
    };
    let mut probe = Kernel::with_policy(CostModel::pentium_ii_333(), Policy::Gds);
    setup(&mut probe);
    let remote: Vec<String> = (0..16)
        .map(|f| format!("/f{f}"))
        .filter(|path| home_shard(probe.store.lookup(path).unwrap(), 2) == 1)
        .collect();
    // Three connections on shard 0, each cycling the remote documents.
    let script: Vec<String> = remote
        .iter()
        .cycle()
        .take(4 * remote.len())
        .cloned()
        .collect();
    let conns = (0..)
        .filter(|&c| shard_of_conn(ConnId(c), 2) == 0)
        .take(3)
        .map(|c| (c, script.clone()))
        .collect();
    let fleet = run_sharded(&config(2, true), setup, conns);
    assert_eq!(fleet.failed(), 0);
    assert!(fleet.remote_reads() > 0 && fleet.shards[1].kernel.cache.stats().evictions > 0);
    let matches: Vec<bool> = fleet
        .shards
        .into_iter()
        .map(|outcome| {
            let mut kernel = outcome.kernel;
            let journal = kernel.take_journal().expect("journal was recording");
            let blank = KernelState::new(CostModel::pentium_ii_333(), Policy::Gds);
            replay(blank, &journal).0.state_hash() == kernel.state_hash()
        })
        .collect();
    assert!(matches[0], "the requester's journal replays alone");
    assert!(
        !matches[1],
        "the home's replay no longer depends on the requester: flip this"
    );
}
