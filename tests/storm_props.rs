//! Storm acceptance properties (PR 9): the adversarial-wire harness is
//! deterministic, journaled, and — crucially — *invisible to the
//! application*. Under ≥1% loss with reordering, duplication, and
//! slowloris clients, every connection's responses are byte-identical
//! to a clean sequential run over the ideal internal wire, the
//! checksum-cache profile is identical, and the server never blocks on
//! I/O.

use iolite::core::{shard_of_conn, ConnId, CostModel, Kernel};
use iolite::fs::Policy;
use iolite::http::event_loop::{EventLoopConfig, EventLoopServer, LoopReport};
use iolite::storm::{plan, run_storm, StormConfig};

/// Rebuilds the storm's exact per-shard workload (corpus, scripts,
/// shard partition) and serves it over the ideal *internal* wire —
/// the clean sequential baseline the storm must match.
fn clean_baseline(cfg: &StormConfig) -> Vec<(LoopReport, Kernel)> {
    let p = plan(cfg);
    let cost = CostModel::pentium_ii_333();
    let mut shard_scripts: Vec<Vec<Vec<String>>> = vec![Vec::new(); cfg.shards];
    for c in 0..cfg.clients {
        let s = shard_of_conn(ConnId(p.conn_ids[c]), cfg.shards);
        shard_scripts[s].push(p.scripts[c].clone());
    }
    shard_scripts
        .into_iter()
        .map(|scripts| {
            let mut kernel = Kernel::with_policy(cost, Policy::Gds);
            let pid = kernel.spawn("storm-server");
            for (i, bytes) in p.file_sizes.iter().enumerate() {
                kernel.create_synthetic_file(&format!("/f{i}"), *bytes, i as u64);
            }
            let loop_cfg = EventLoopConfig {
                capture_responses: true,
                ..EventLoopConfig::default()
            };
            EventLoopServer::new(kernel, pid, scripts, None, loop_cfg).run()
        })
        .collect()
}

/// Per-connection ordered `(path, response bytes)` sequences.
fn per_conn(report: &LoopReport, conns: usize) -> Vec<Vec<(String, Vec<u8>)>> {
    let mut out = vec![Vec::new(); conns];
    for r in &report.requests {
        out[r.conn].push((
            r.path.clone(),
            r.response.clone().expect("capture_responses was on"),
        ));
    }
    out
}

fn assert_storm_matches_clean(cfg: &StormConfig) {
    assert!(
        cfg.loss >= 0.01 && cfg.reorder > 0.0 && cfg.slowloris > 0.0,
        "this property is about a genuinely hostile wire"
    );
    let storm = run_storm(cfg);
    assert_eq!(storm.violations, Vec::<String>::new());
    assert_eq!(
        storm.completed(),
        (cfg.clients * cfg.requests_per_client) as u64,
        "no resets/churn: every scripted request must complete"
    );
    let baseline = clean_baseline(cfg);
    for (s, (clean_report, clean_kernel)) in baseline.iter().enumerate() {
        // The server never blocked on I/O, storm or not.
        assert_eq!(storm.reports[s].stats.blocked_io, 0);
        assert_eq!(clean_report.stats.blocked_io, 0);
        // Byte-identical responses, per connection, in order.
        let conns = storm.conn_counts[s];
        assert_eq!(
            per_conn(&storm.reports[s], conns),
            per_conn(clean_report, conns),
            "shard {s}: storm responses diverge from the clean run"
        );
        // Identical checksum-cache profile: the loss/reorder/slowloris
        // wire changed *when* bytes moved, never *what* was checksummed
        // or how much of it the checksum cache absorbed.
        assert_eq!(
            storm.metrics[s].bytes_checksummed, clean_kernel.metrics.bytes_checksummed,
            "shard {s}: checksummed bytes diverge"
        );
        assert_eq!(
            storm.metrics[s].bytes_checksum_cached, clean_kernel.metrics.bytes_checksum_cached,
            "shard {s}: checksum-cache hits diverge"
        );
    }
}

#[test]
fn same_seed_is_bit_identical() {
    for mk in [
        StormConfig::hostile,
        StormConfig::chaos,
        (|s| StormConfig {
            shards: 2,
            ..StormConfig::chaos(s)
        }) as fn(u64) -> StormConfig,
    ] {
        let a = run_storm(&mk(42));
        let b = run_storm(&mk(42));
        assert_eq!(a.state_hashes, b.state_hashes);
        assert_eq!(a.metrics, b.metrics);
        assert_eq!(a.wire, b.wire);
        assert_eq!(a.sim_time, b.sim_time);
        for (ra, rb) in a.reports.iter().zip(&b.reports) {
            assert_eq!(ra.stats, rb.stats);
        }
    }
}

#[test]
fn storm_run_replays_exactly_single_shard() {
    let report = run_storm(&StormConfig::hostile(11));
    assert_eq!(report.violations, Vec::<String>::new());
    report.verify_replay().expect("journal replay");
}

#[test]
fn storm_run_replays_exactly_two_shards() {
    let cfg = StormConfig {
        shards: 2,
        ..StormConfig::hostile(12)
    };
    let report = run_storm(&cfg);
    assert_eq!(report.violations, Vec::<String>::new());
    report.verify_replay().expect("journal replay");
}

#[test]
fn hostile_storm_matches_clean_run() {
    let cfg = StormConfig {
        capture_responses: true,
        ..StormConfig::hostile(13)
    };
    assert_storm_matches_clean(&cfg);
}

#[test]
fn hostile_storm_matches_clean_run_two_shards() {
    let cfg = StormConfig {
        shards: 2,
        capture_responses: true,
        ..StormConfig::hostile(14)
    };
    assert_storm_matches_clean(&cfg);
}
