//! Deterministic replay: a journaled 256-connection event-loop run is
//! reproduced bit-for-bit by folding the recorded commands through the
//! pure core (`iolite_core::replay`) from the same initial state.
//!
//! This is the PR 6 acceptance test for the functional-core split: the
//! imperative shell's only state mutations go through `Command`s, so
//! the journal plus the initial `KernelState` *is* the run — simulated
//! CPU included: every charge is an effect of a journaled command, so
//! the replayed ledger holds the loop's `LoopStats::cpu` plus whatever
//! the kernel had billed before the loop was built.

use iolite_core::{replay, CostModel, Kernel, KernelState};
use iolite_fs::Policy;
use iolite_http::{EventLoopConfig, EventLoopServer};

/// A static corpus small enough to never evict (the replay contract
/// requires the journaled run and the replayed run to see identical
/// cache residency, which zero evictions makes trivially true).
const CORPUS: &[(&str, u64)] = &[
    ("/index.html", 4_096),
    ("/logo.gif", 1_337),
    ("/styles.css", 2_048),
    ("/app.js", 8_192),
    ("/docs/a.html", 3_000),
    ("/docs/b.html", 5_500),
    ("/docs/c.html", 700),
    ("/data/blob.bin", 16_384),
];

#[test]
fn event_loop_run_replays_to_identical_state_and_metrics() {
    let cost = CostModel::pentium_ii_333();
    let mut kernel = Kernel::with_policy(cost, Policy::Gds);
    // Journal from the very first command: the replay's initial state
    // is `KernelState::new` with the same cost model and policy.
    kernel.start_journal();
    let pid = kernel.spawn("server");
    for (name, bytes) in CORPUS {
        kernel.create_synthetic_file(name, *bytes, 7);
    }

    // 256 closed-loop clients, each walking the corpus from a different
    // phase so requests interleave across the whole file set.
    let scripts: Vec<Vec<String>> = (0..256)
        .map(|c| {
            (0..4)
                .map(|r| CORPUS[(c + r * 3) % CORPUS.len()].0.to_string())
                .collect()
        })
        .collect();
    let cfg = EventLoopConfig {
        drain_per_tick: 8 * 1024,
        ..EventLoopConfig::default()
    };
    let base = kernel.metrics.cpu();
    let (report, mut kernel) = EventLoopServer::new(kernel, pid, scripts, None, cfg).run();
    assert_eq!(report.stats.completed, 256 * 4);
    // What this run cost when the loop summed every outcome's charge by
    // hand, to the nanosecond.
    assert_eq!(report.stats.cpu.as_nanos(), 263_872_685);
    assert_eq!(report.stats.failed, 0);
    assert_eq!(report.stats.blocked_io, 0, "readiness-driven, no spin");
    assert_eq!(
        kernel.cache.stats().evictions,
        0,
        "corpus must fit the cache for the zero-eviction replay premise"
    );

    let journal = kernel.take_journal().expect("journal was recording");
    assert!(
        journal.len() > 256 * 4,
        "a 1024-request run journals more than one command per request"
    );
    let live_hash = kernel.state_hash();
    let live_metrics = kernel.metrics.clone();
    assert!(live_metrics.syscalls > 0, "the run did real work");

    // Fold the journal through the pure core from the initial state.
    let (replayed, metrics) = replay(KernelState::new(cost, Policy::Gds), &journal);
    assert_eq!(
        replayed.state_hash(),
        live_hash,
        "replayed state digest must match the live run"
    );
    assert_eq!(metrics, live_metrics, "replayed metrics must match");
    assert_eq!(
        metrics.cpu(),
        base + report.stats.cpu,
        "the replayed ledger is the loop's CPU plus the base at construction"
    );
}

#[test]
fn journal_is_off_by_default_and_restartable() {
    let cost = CostModel::pentium_ii_333();
    let mut kernel = Kernel::new(cost);
    kernel.spawn("a");
    assert!(kernel.journal().is_none(), "no recording unless asked");
    assert!(kernel.take_journal().is_none());

    // A journal started mid-life replays against a snapshot taken at
    // the same point, not against the initial state.
    let baseline = kernel.snapshot();
    kernel.start_journal();
    let pid = kernel.spawn("b");
    let f = kernel.create_file("/x", b"hello");
    let fd = kernel.open_file(pid, f);
    let body = kernel.iol_read_fd(pid, fd, 5).expect("read").0;
    assert_eq!(body.to_vec(), b"hello");
    let journal = kernel.take_journal().expect("recording");
    let (replayed, _) = replay(baseline, &journal);
    assert_eq!(replayed.state_hash(), kernel.state_hash());
}
