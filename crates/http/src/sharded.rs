//! Shared-nothing sharded serving: N shards, each owning its own
//! [`Kernel`] (state, unified cache, fd table, sockets) and its own
//! [`EventLoopServer`], driven on one host thread in a fixed round
//! order ([`run_round`]).
//!
//! Connections are routed to shards by mixing the **full 64-bit**
//! connection id through [`shard_of_conn`]; documents have a single
//! home shard ([`iolite_fs::home_shard`]) that owns their disk reads,
//! their writes and their only cache entry. A shard that serves a
//! remote document sends a typed [`ShardMsg`](iolite_core::ShardMsg)
//! over the fabric's unbounded per-shard FIFOs, parks the connection,
//! and answers it with the home's buffers — no shard ever takes a lock
//! on another's state, and no file is cached twice. A fleet serves the
//! files `setup` created; a PUT to any other path gets the 404 a GET
//! would.
//!
//! # The scaling metric
//!
//! The machine under this simulation has however many cores it has; the
//! serving model's parallelism is expressed in *simulated* CPU. A
//! sharded run's cost is the parallel makespan — the largest per-shard
//! simulated CPU time — so [`ShardedReport::requests_per_cpu_sec`] is
//! total completed requests over that maximum. A perfectly balanced
//! 4-shard fleet does 4× the work per makespan second; skew (one shard
//! homing the Zipf head) shows up directly as
//! [`ShardedReport::imbalance`].
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::todo)]
#![deny(
    clippy::unimplemented,
    clippy::allow_attributes,
    clippy::allow_attributes_without_reason
)]

use std::sync::mpsc::sync_channel;

use iolite_core::{shard_of_conn, ConnId, CostModel, Kernel, Pid, ShardFabric};
use iolite_fs::{CacheOwnership, Policy};
use iolite_sim::SimTime;

use crate::event_loop::{EventLoopConfig, EventLoopServer, LoopReport, ShardContext};

/// Configuration for one sharded run.
#[derive(Debug, Clone, Copy)]
pub struct ShardedConfig {
    /// Number of shards (kernels, event loops). Must be ≥ 1.
    pub shards: usize,
    /// Kept for `perf/`, which sets it: `HomeOnly` is the only policy,
    /// so nothing reads it.
    pub ownership: CacheOwnership,
    /// Cost model for every shard's kernel.
    pub cost: CostModel,
    /// Cache policy for every shard's kernel.
    pub policy: Policy,
    /// Record each shard's journal (for per-shard replay checks).
    pub journal: bool,
    /// Per-shard event-loop configuration.
    pub loop_cfg: EventLoopConfig,
}

/// One shard's complete outcome: its loop report plus its kernel (for
/// cache stats, metrics, journal, and state-hash inspection).
pub struct ShardOutcome {
    /// The shard's index in the fleet.
    pub shard: usize,
    /// Its event loop's counters and completed requests.
    pub report: LoopReport,
    /// Its kernel, post-run.
    pub kernel: Kernel,
}

/// The aggregated outcome of a sharded run.
pub struct ShardedReport {
    /// Per-shard outcomes, indexed by shard id.
    pub shards: Vec<ShardOutcome>,
    /// The most messages any inbox held when [`run_round`] drained it,
    /// over the whole run (0 for a fleet of one).
    pub max_inbox_depth: usize,
}

impl ShardedReport {
    /// Total completed requests across the fleet.
    pub fn completed(&self) -> u64 {
        self.shards.iter().map(|s| s.report.stats.completed).sum()
    }

    /// Total failed requests across the fleet.
    pub fn failed(&self) -> u64 {
        self.shards.iter().map(|s| s.report.stats.failed).sum()
    }

    /// Total remote reads (requests served via the fabric).
    pub fn remote_reads(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.report.stats.remote_reads)
            .sum()
    }

    /// The parallel makespan: the largest per-shard simulated CPU time.
    pub fn max_shard_cpu(&self) -> SimTime {
        self.shards
            .iter()
            .map(|s| s.report.stats.cpu)
            .max()
            .unwrap_or(SimTime::ZERO)
    }

    /// Fleet throughput per simulated CPU second, on the makespan (see
    /// module docs): completed requests / max per-shard CPU.
    pub fn requests_per_cpu_sec(&self) -> f64 {
        let cpu = self.max_shard_cpu().as_secs();
        if cpu == 0.0 {
            return 0.0;
        }
        self.completed() as f64 / cpu
    }

    /// Hot-spot imbalance: max per-shard CPU over mean per-shard CPU
    /// (1.0 = perfectly balanced; the lost fraction of ideal speedup).
    pub fn imbalance(&self) -> f64 {
        let total: f64 = self
            .shards
            .iter()
            .map(|s| s.report.stats.cpu.as_secs())
            .sum();
        let mean = total / self.shards.len() as f64;
        if mean == 0.0 {
            return 1.0;
        }
        self.max_shard_cpu().as_secs() / mean
    }
}

/// Runs `conns` — `(conn_id, request script)` pairs — across
/// `cfg.shards` shared-nothing shards and aggregates the outcome.
///
/// `setup` builds each shard's kernel contents and returns the server
/// pid; it runs once per shard and **must be deterministic** (every
/// shard needs the identical file store, in identical creation order,
/// so `FileId`s agree fleet-wide). It must not allocate buffers (warm
/// the cache, say): each shard's pools enter its id namespace only when
/// [`attach_fabric`] runs, after `setup`, so a chunk minted earlier has
/// the same id on every shard and would alias across the fabric. When
/// `cfg.journal` is set the journal starts before `setup`, so replaying
/// a shard's journal from a blank state reproduces its kernel
/// bit-for-bit.
///
/// The fleet is driven by [`run_round`] until every shard is done, so
/// the report is a function of the arguments alone.
///
/// # Panics
///
/// Panics if `cfg.shards` is zero or a shard's loop is stuck (see
/// [`run_round`]).
pub fn run_sharded<F>(
    cfg: &ShardedConfig,
    setup: F,
    conns: Vec<(u64, Vec<String>)>,
) -> ShardedReport
where
    F: Fn(&mut Kernel) -> Pid,
{
    assert!(cfg.shards > 0, "at least one shard");
    let n = cfg.shards;
    // Partition scripts by mixed full-width conn id.
    let mut per_shard: Vec<Vec<Vec<String>>> = vec![Vec::new(); n];
    for (id, script) in conns {
        per_shard[shard_of_conn(ConnId(id), n)].push(script);
    }
    let mut servers: Vec<EventLoopServer> = per_shard
        .into_iter()
        .map(|scripts| {
            let mut kernel = Kernel::with_policy(cfg.cost, cfg.policy);
            if cfg.journal {
                kernel.start_journal();
            }
            let pid = setup(&mut kernel);
            EventLoopServer::new(kernel, pid, scripts, None, cfg.loop_cfg)
        })
        .collect();
    attach_fabric(&mut servers);
    let mut max_inbox_depth = 0;
    while !servers.iter().all(EventLoopServer::is_done) {
        max_inbox_depth = max_inbox_depth.max(run_round(&mut servers));
    }
    let shards = servers
        .into_iter()
        .enumerate()
        .map(|(shard, server)| {
            let (report, kernel) = server.into_report();
            ShardOutcome {
                shard,
                report,
                kernel,
            }
        })
        .collect();
    ShardedReport {
        shards,
        max_inbox_depth,
    }
}

/// Attaches a fabric to `servers`, `servers[i]` being shard `i`: one
/// unbounded FIFO inbox per shard, so no send is ever refused. A fleet
/// of one never routes remotely and gets no fabric. Attaching places
/// shard `i`'s pools in id namespace `i` (see
/// [`EventLoopServer::attach_shard`]); chunks minted before then are
/// not fleet-unique.
pub fn attach_fabric(servers: &mut [EventLoopServer]) {
    let shards = servers.len();
    if shards <= 1 {
        return;
    }
    // The capacity argument is ignored (see `ShardFabric::new`).
    let fabric = ShardFabric::new(shards, 0);
    // Nothing reads `done_tx` (see `ShardContext`); its receiver drops here.
    let (done_tx, _) = sync_channel(0);
    for (server, mailbox) in servers.iter_mut().zip(fabric.mailboxes) {
        server.attach_shard(ShardContext {
            mailbox,
            shards,
            ownership: CacheOwnership::HomeOnly,
            done_tx: done_tx.clone(),
        });
    }
}

/// One round of a fleet driven on one thread: every server ticks in
/// shard order, done ones included (a done or parked server's tick
/// issues no I/O call and no poll), then every inbox is pumped in shard
/// order until a full pass handles nothing. A `RemoteRead` sent during
/// shard A's tick is answered in shard B's pump, and the `RemoteData`
/// lands on A before A's next tick. This order decides a fleet's
/// simulated outcome, and it leaves every inbox empty.
///
/// Returns the most messages one `pump_fabric` call handled in the
/// round: the depth of that inbox when it was drained, since no shard
/// sends to itself.
///
/// # Panics
///
/// Panics if a server passes the event loop's tick backstop (10 M
/// ticks): a stuck state machine, by construction a bug.
pub fn run_round(servers: &mut [EventLoopServer]) -> usize {
    for server in servers.iter_mut() {
        server.tick_checked();
    }
    let mut deepest = 0;
    loop {
        // A pass handled nothing exactly when its busiest inbox was empty.
        let busiest = servers
            .iter_mut()
            .map(EventLoopServer::pump_fabric)
            .max()
            .unwrap_or(0);
        if busiest == 0 {
            return deepest;
        }
        deepest = deepest.max(busiest);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iolite_fs::home_shard;

    fn corpus(k: &mut Kernel) -> Pid {
        let pid = k.spawn("server");
        for f in 0..16 {
            k.create_synthetic_file(&format!("/f{f}"), 4_000 + f * 512, f);
        }
        pid
    }

    fn zipfish_conns(n: u64) -> Vec<(u64, Vec<String>)> {
        (0..n)
            .map(|i| {
                // Structured ids (stride 4096) — routing must still
                // spread them.
                let id = i * 4096;
                let script = vec![
                    format!("/f{}", i % 4),      // hot head
                    format!("/f{}", 4 + i % 12), // long tail
                    format!("/f{}", i % 4),      // head again, later
                ];
                (id, script)
            })
            .collect()
    }

    fn base_cfg(shards: usize) -> ShardedConfig {
        ShardedConfig {
            shards,
            ownership: CacheOwnership::HomeOnly,
            cost: CostModel::pentium_ii_333(),
            policy: Policy::Gds,
            journal: false,
            loop_cfg: EventLoopConfig::default(),
        }
    }

    #[test]
    fn sharded_fleet_completes_every_request() {
        for shards in [1usize, 2, 4] {
            let report = run_sharded(&base_cfg(shards), corpus, zipfish_conns(64));
            assert_eq!(report.completed(), 192, "{shards} shards");
            assert_eq!(report.failed(), 0);
            for s in &report.shards {
                assert_eq!(
                    s.report.stats.blocked_io, 0,
                    "shard {} must stay readiness-driven",
                    s.shard
                );
            }
        }
    }

    #[test]
    fn single_shard_run_never_touches_the_fabric() {
        let cfg = base_cfg(1);
        let report = run_sharded(&cfg, corpus, zipfish_conns(32));
        assert_eq!(report.remote_reads(), 0);
        assert_eq!(report.shards[0].report.stats.remote_hits, 0);
    }

    #[test]
    fn admission_limit_bounds_inflight() {
        let mut cfg = base_cfg(2);
        cfg.loop_cfg.admission_limit = 4;
        let report = run_sharded(&cfg, corpus, zipfish_conns(64));
        assert_eq!(report.completed(), 192);
        for s in &report.shards {
            assert!(
                s.report.stats.max_inflight <= 4,
                "shard {} saw {} in flight",
                s.shard,
                s.report.stats.max_inflight
            );
        }
    }

    /// The makespan metric is what the scaling table reports; sanity:
    /// it is positive, at most the CPU sum, and imbalance ≥ 1.
    #[test]
    fn makespan_metric_is_sane() {
        let report = run_sharded(&base_cfg(4), corpus, zipfish_conns(64));
        let max = report.max_shard_cpu();
        let sum: f64 = report
            .shards
            .iter()
            .map(|s| s.report.stats.cpu.as_secs())
            .sum();
        assert!(max > SimTime::ZERO);
        assert!(max.as_secs() <= sum);
        assert!(report.imbalance() >= 1.0);
        assert!(report.requests_per_cpu_sec() > 0.0);
    }

    /// Buffer identity is fleet-unique (§3.9). Shard 0 serves a local
    /// document, then fetches a remote one of the same length; each is
    /// the first read into its shard's cache pool, so without the
    /// shards' id namespaces the home's buffer would carry the local
    /// one's ⟨pool, chunk, offset, generation⟩, and the remote
    /// payload's first send would hit the local document's checksum.
    #[test]
    fn a_remote_buffer_never_aliases_a_local_checksum() {
        let mut servers = Vec::new();
        for shard in 0..2 {
            let mut k = Kernel::with_policy(CostModel::pentium_ii_333(), Policy::Gds);
            let pid = k.spawn("server");
            let files: Vec<_> = (0..8)
                .map(|f| k.create_synthetic_file(&format!("/f{f}"), 4_000, f))
                .collect();
            // The first document homed on shard 0, then the first on 1.
            let script = (0..2)
                .filter_map(|home| files.iter().position(|&f| home_shard(f, 2) == home))
                .map(|f| format!("/f{f}"))
                .collect();
            let scripts = if shard == 0 { vec![script] } else { Vec::new() };
            servers.push(EventLoopServer::new(
                k,
                pid,
                scripts,
                None,
                EventLoopConfig::default(),
            ));
        }
        attach_fabric(&mut servers);
        while !servers.iter().all(EventLoopServer::is_done) {
            run_round(&mut servers);
        }
        let stats = servers[0].stats();
        assert_eq!((stats.completed, stats.remote_reads), (2, 1));
        let sums = servers[0].kernel().cksum.stats();
        assert_eq!(
            (sums.hits, sums.misses),
            (0, 4),
            "two heads and two payloads, each checksummed once"
        );
    }

    /// A remote PUT's body crosses the fabric by reference and lands at
    /// home with one copy into the home's pool, which the home bills —
    /// time and bytes alike: `N` body bytes raise its
    /// `Metrics::bytes_copied` by `N`.
    #[test]
    fn a_remote_put_counts_its_landed_copy() {
        const N: u64 = 12_345;
        let mut servers = Vec::new();
        for shard in 0..2 {
            let mut k = Kernel::with_policy(CostModel::pentium_ii_333(), Policy::Gds);
            let pid = k.spawn("server");
            let files: Vec<_> = (0..8)
                .map(|f| k.create_synthetic_file(&format!("/f{f}"), 4_000, f))
                .collect();
            let remote = files.iter().position(|&f| home_shard(f, 2) == 1);
            let script = remote
                .map(|f| format!("PUT /f{f} {N}"))
                .into_iter()
                .collect();
            let scripts = if shard == 0 { vec![script] } else { Vec::new() };
            servers.push(EventLoopServer::new(
                k,
                pid,
                scripts,
                None,
                EventLoopConfig::default(),
            ));
        }
        attach_fabric(&mut servers);
        let before = servers[1].kernel().metrics.bytes_copied;
        while !servers.iter().all(EventLoopServer::is_done) {
            run_round(&mut servers);
        }
        let stats = servers[0].stats();
        assert_eq!((stats.puts, stats.remote_writes, stats.failed), (1, 1, 0));
        assert_eq!(servers[1].kernel().metrics.bytes_copied - before, N);
    }

    /// Every file's home shard serves it from disk exactly once
    /// fleet-wide under HomeOnly: disk_ops equals the per-shard count
    /// of homed-and-requested files (plus nothing else).
    #[test]
    fn only_home_shards_read_disk() {
        let shards = 4;
        let report = run_sharded(&base_cfg(shards), corpus, zipfish_conns(64));
        for s in &report.shards {
            let homed: Vec<u64> = (0..16)
                .filter(|&f| {
                    let file = s.kernel.store.lookup(&format!("/f{f}")).expect("exists");
                    home_shard(file, shards) == s.shard
                })
                .collect();
            assert!(
                s.kernel.metrics.disk_ops <= homed.len() as u64,
                "shard {} did {} disk ops for {} homed files",
                s.shard,
                s.kernel.metrics.disk_ops,
                homed.len()
            );
        }
    }
}
