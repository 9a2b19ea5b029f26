//! Scenario fingerprints: fixed storms and paper-server experiments at
//! small sizes, each reduced to one line of observable outputs and
//! compared with the committed table `tests/golden_runs.txt`.
//!
//! A storm line holds its headline counts and an FNV-64 digest of
//! everything the run shows from outside: per shard, the kernel's
//! `Metrics` (`time_by_category` included), `CacheStats`,
//! `CksumCacheStats`, `LoopStats` and every completed response (its
//! connection, path, size, hit flag and exact bytes); per run, the wire
//! counters, the violations and the quiesce time. An experiment line
//! digests its `ExperimentResult`, which is what the figures read. The
//! event-loop line is `crates/http/tests/replay.rs`'s journaled
//! 256-connection run, digested the way a storm shard is.
//!
//! The kernel's `state_hash` is left out on purpose. It digests internal
//! layout, which moves when a deleted field leaves the digest while
//! nothing observable moves; this table is the check that nothing did.
//!
//! On a mismatch the test prints the whole new table. A change that
//! moves a line says why in its description and commits the new table.

use std::fmt::{Debug, Write as _};

use iolite::buf::Fnv64;
use iolite::core::{CostModel, Kernel};
use iolite::fs::Policy;
use iolite::http::{
    EventLoopConfig, EventLoopServer, Experiment, ExperimentConfig, ServerKind, WorkloadKind,
};
use iolite::storm::{run_storm, StormConfig};
use iolite::trace::{TraceSpec, Workload};

const GOLDEN: &str = include_str!("golden_runs.txt");

/// Folds a value's `Debug` rendering into `h`: every field, by name.
fn fold(h: &mut Fnv64, value: &impl Debug) {
    h.write_str(&format!("{value:?}"));
}

fn storm_line(name: &str, preset: StormConfig, shards: usize) -> String {
    let cfg = StormConfig {
        shards,
        capture_responses: true,
        ..preset
    };
    let report = run_storm(&cfg);
    let mut h = Fnv64::new();
    for (kernel, run) in report.kernels.iter().zip(&report.reports) {
        fold(&mut h, &kernel.metrics);
        fold(&mut h, &kernel.cache.stats());
        fold(&mut h, &kernel.cksum.stats());
        fold(&mut h, &run.stats);
        for req in &run.requests {
            fold(&mut h, &(req.conn, &req.path, req.bytes, req.cache_hit));
            h.write_bytes(req.response.as_deref().unwrap_or_default());
        }
    }
    fold(&mut h, &report.wire);
    fold(&mut h, &report.violations);
    fold(&mut h, &report.sim_time);
    format!(
        "storm {name} seed={} shards={shards} completed={} failed={} segments={} digest={:016x}",
        cfg.seed,
        report.completed(),
        report.failed(),
        report.wire.segments,
        h.finish()
    )
}

fn experiment_line(name: &str, server: ServerKind, workload: WorkloadKind) -> String {
    let mut cfg = ExperimentConfig::new(server, workload);
    cfg.clients = 16;
    cfg.requests = 300;
    cfg.warmup = 50;
    cfg.seed = 1;
    // A small machine: once the conventional servers reserve their
    // socket copies, the file cache no longer holds the data set.
    cfg.cost = CostModel {
        ram_bytes: 5 << 20,
        kernel_reserve_bytes: 2 << 20,
        server_reserve_bytes: 1 << 20,
        ..CostModel::pentium_ii_333()
    };
    let result = Experiment::run_config(cfg);
    let mut h = Fnv64::new();
    fold(&mut h, &result);
    format!(
        "experiment {name} requests={} failed={} evictions={} digest={:016x}",
        result.requests,
        result.failed_requests,
        result.evictions,
        h.finish()
    )
}

/// `crates/http/tests/replay.rs`'s run: 256 closed-loop clients walk
/// an eight-file corpus from staggered phases, with the journal on.
fn event_loop_line() -> String {
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
    let mut kernel = Kernel::with_policy(CostModel::pentium_ii_333(), Policy::Gds);
    kernel.start_journal();
    let pid = kernel.spawn("server");
    for (name, bytes) in CORPUS {
        kernel.create_synthetic_file(name, *bytes, 7);
    }
    let scripts: Vec<Vec<String>> = (0..256)
        .map(|c| {
            (0..4)
                .map(|r| CORPUS[(c + r * 3) % CORPUS.len()].0.to_string())
                .collect()
        })
        .collect();
    let cfg = EventLoopConfig {
        drain_per_tick: 8 * 1024,
        capture_responses: true,
        ..EventLoopConfig::default()
    };
    let (report, kernel) = EventLoopServer::new(kernel, pid, scripts, None, cfg).run();
    let mut h = Fnv64::new();
    fold(&mut h, &kernel.metrics);
    fold(&mut h, &kernel.cache.stats());
    fold(&mut h, &kernel.cksum.stats());
    fold(&mut h, &report.stats);
    for req in &report.requests {
        fold(&mut h, &(req.conn, &req.path, req.bytes, req.cache_hit));
        h.write_bytes(req.response.as_deref().unwrap_or_default());
    }
    format!(
        "event_loop replay conns=256 completed={} failed={} digest={:016x}",
        report.stats.completed,
        report.stats.failed,
        h.finish()
    )
}

fn table() -> String {
    let presets = [
        ("calm", StormConfig::calm(1)),
        ("hostile", StormConfig::hostile(1)),
        ("chaos", StormConfig::chaos(1)),
        ("writes", StormConfig::writes(1)),
        ("write_chaos", StormConfig::write_chaos(1)),
    ];
    let mut lines = Vec::new();
    for (name, preset) in presets {
        for shards in [1, 2] {
            lines.push(storm_line(name, preset, shards));
        }
    }
    let trace = Workload::synthesize(&TraceSpec::subtrace_150mb(), 1).stratified_subset(6 << 20);
    for server in [ServerKind::FlashLite, ServerKind::Flash, ServerKind::Apache] {
        let workload = WorkloadKind::TraceSampled {
            workload: trace.clone(),
        };
        lines.push(experiment_line(server.label(), server, workload));
    }
    for server in [ServerKind::FlashLite, ServerKind::Flash] {
        let workload = WorkloadKind::Cgi { bytes: 20_000 };
        lines.push(experiment_line(
            &format!("{}-cgi", server.label()),
            server,
            workload,
        ));
    }
    lines.push(event_loop_line());
    lines.iter().fold(String::new(), |mut out, line| {
        let _ = writeln!(out, "{line}");
        out
    })
}

#[test]
fn scenario_fingerprints_match_the_committed_table() {
    let got = table();
    if got != GOLDEN {
        let moved: Vec<&str> = got
            .lines()
            .filter(|l| !GOLDEN.lines().any(|g| g == *l))
            .collect();
        panic!(
            "{} scenario line(s) moved:\n{}\n\nthe full new table (tests/golden_runs.txt):\n{got}",
            moved.len(),
            moved.join("\n")
        );
    }
}
