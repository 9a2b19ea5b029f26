//! Minimized storm seeds that once exposed bugs (PR 9). Each entry
//! pins a `StormConfig` that used to wedge, corrupt, or leak; the fix
//! is described at the test, and the seed stays forever.
//!
//! The randomized campaign lives here too: a short sweep of fresh
//! seeds every CI run (`STORM_CAMPAIGN` widens it), printing the
//! failing seed so it can be minimized and added above.

use iolite::storm::{campaign, run_storm, StormConfig};

/// Chaos seed 3 wedged the whole run: a slowloris client whose final
/// cumulative ACK was lost never re-ACKed the server's go-back-N
/// retransmissions (duplicates produce no consume beat once
/// `resp_consumed == resp_read`), so the server rewound and re-sent the
/// tail window forever — an infinite RTO chain, a connection parked in
/// `Draining`, and a transmission pin held on `/f2` for the rest of
/// time. Fixed by re-ACKing on every segment arrival (TCP's dup-ACK),
/// not only on consumption progress.
#[test]
fn chaos_seed_3_slowloris_lost_final_ack() {
    let report = run_storm(&StormConfig::chaos(3));
    assert_eq!(report.violations, Vec::<String>::new());
    report.verify_replay().expect("journal replay");
}

/// The same wedge reproduced under every-client slowloris with tiny
/// consume chunks — the harshest version of the lost-final-ACK dance.
#[test]
fn all_slowloris_tiny_chunks_terminate() {
    let cfg = StormConfig {
        slowloris: 1.0,
        slow_chunk: 64,
        ..StormConfig::hostile(3)
    };
    let report = run_storm(&cfg);
    assert_eq!(report.violations, Vec::<String>::new());
    assert_eq!(report.completed(), 16);
}

/// Writes seed 1009 caught replay divergence through snapshot lifetime
/// (PR 10): a PUT replaced a whole-file entry while readers still held
/// transmission pins, and the displaced aggregate's buffers were then
/// freed at a time decided by the *readers'* host-side clones — which
/// exist live but not under replay, so pool chunk release (and every
/// later allocation offset) diverged. Fixed by parking displaced
/// aggregates of pinned keys in the cache's limbo table until the
/// journaled unpin.
#[test]
fn writes_seed_1009_pinned_replacement_replays() {
    let report = run_storm(&StormConfig::writes(1009));
    assert_eq!(report.violations, Vec::<String>::new());
    report.verify_replay().expect("journal replay");
}

/// Writes seed 1015 caught the deeper version of the same class, down
/// to a 2-client 2-file run: the recorded journal itself holds every
/// `IolWriteFd` command's response aggregate, so its `Arc`s kept cache
/// chunks alive in the live run that replay (whose journal references
/// the live pool, not its own) let drain — in-op chunk scavenging
/// keyed off ambient refcounts could never replay. The fix then was an
/// append-only cache pool; the pool no longer is one (a miss allocates
/// through `BufferPool::alloc_inner`, which recycles chunks nobody
/// holds), and both runs below must still replay.
#[test]
fn writes_seed_1015_journal_held_chunks_replay() {
    let minimized = StormConfig {
        clients: 2,
        files: 2,
        requests_per_client: 2,
        ..StormConfig::writes(1015)
    };
    for cfg in [minimized, StormConfig::writes(1015)] {
        let report = run_storm(&cfg);
        assert_eq!(report.violations, Vec::<String>::new());
        report.verify_replay().expect("journal replay");
    }
}

/// Sharded write-chaos seed 1 once caught stale cache replicas (a
/// non-home shard kept a copy of bytes a remote write had replaced).
/// Replicas are gone: a fleet caches each file only on its home shard.
/// The seed now guards the invariant that replaced them — remote writes
/// under loss, duplication, reordering and resets leave no cache entry
/// off a file's home shard (the quiesce audit's one-owner check) and
/// every home entry equal to its store — and per-shard replay.
#[test]
fn sharded_write_chaos_replicas_track_home() {
    let cfg = StormConfig {
        shards: 2,
        ..StormConfig::write_chaos(1)
    };
    let report = run_storm(&cfg);
    assert_eq!(report.violations, Vec::<String>::new());
    report.verify_replay().expect("journal replay");
}

/// Fixed-seed smoke: one run of each preset, plus a 2-shard chaos run,
/// must stay violation-free and replay exactly.
#[test]
fn fixed_seed_smoke() {
    for cfg in [
        StormConfig::calm(1),
        StormConfig::hostile(1),
        StormConfig::chaos(1),
        StormConfig {
            shards: 2,
            ..StormConfig::chaos(1)
        },
        StormConfig::writes(1),
        StormConfig::write_chaos(1),
        StormConfig {
            shards: 2,
            ..StormConfig::write_chaos(1)
        },
    ] {
        let report = run_storm(&cfg);
        assert_eq!(report.violations, Vec::<String>::new(), "cfg {cfg:?}");
        report.verify_replay().expect("journal replay");
    }
}

/// Randomized campaign. Default: a quick sweep fresh enough to catch
/// regressions; `STORM_CAMPAIGN=<n>` sweeps `n` seeds per preset. On
/// failure the panic names the preset and seed — minimize by shrinking
/// the config's knobs with that seed held fixed, then pin it above.
#[test]
fn randomized_campaign() {
    let n: u64 = std::env::var("STORM_CAMPAIGN")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(25);
    // Seeds rotate daily-ish via the campaign width only; the sweep
    // itself must stay deterministic, so the base is fixed.
    let sweep = |name: &str, mk: fn(u64) -> StormConfig| {
        if let Err((seed, violations)) = campaign(mk, 1000..1000 + n) {
            panic!(
                "storm campaign failed: preset={name} seed={seed}\n{}",
                violations.join("\n")
            );
        }
    };
    sweep("hostile", StormConfig::hostile);
    sweep("chaos", StormConfig::chaos);
    sweep("sharded-chaos", |s| StormConfig {
        shards: 2,
        ..StormConfig::chaos(s)
    });
    sweep("writes", StormConfig::writes);
    sweep("write-chaos", StormConfig::write_chaos);
    sweep("sharded-write-chaos", |s| StormConfig {
        shards: 2,
        ..StormConfig::write_chaos(s)
    });
}
