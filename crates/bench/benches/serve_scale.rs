//! `serve_scale`: reference-aware caching at production scale (§3.7,
//! §3.9), and event-loop throughput vs concurrency (PR 5).
//!
//! Four scenarios guard the cache layer's and event loop's scaling
//! behaviour:
//!
//! * `request_churn_10k` — the real HTTP driver path (`serve_static`)
//!   over a 10k-file Zipf corpus with thousands of concurrent
//!   connections holding pins mid-transmission, while the memory
//!   accountant wobbles the cache budget under load. A deterministic
//!   stats pass prints eviction counts and hit rates (recorded in
//!   EXPERIMENTS.md) before the timed run.
//! * `evict_pinned_prefix` — adversarial eviction cost vs entry count:
//!   every entry except the best victim is pinned, so a scan-based
//!   `evict_one` walks the whole pinned prefix while an indexed one
//!   stays O(log n).
//! * `cksum_cold_pressure` — a hot slice's checksum must survive an
//!   overflow of cold slices through the bounded checksum cache.
//! * `event_loop_concurrency` — throughput vs concurrency through the
//!   readiness-driven server: 256/1024/2048 nonblocking connections
//!   multiplexed per `iol_poll` tick over a Zipf corpus, zero busy-spin
//!   (asserted). A deterministic stats pass prints requests per
//!   simulated CPU second at each level (recorded in EXPERIMENTS.md).
//! * `sharded_sweep` (PR 7) — shared-nothing thread-per-core scaling:
//!   the same total connection load over 1/2/4/8 shards, each shard
//!   per-core provisioned with the PR 3 single-kernel cache budget,
//!   with requests-per-cpu-second measured on the parallel makespan
//!   (max per-shard simulated CPU). An extra fixed-total-RAM row
//!   (the single-kernel budget *split* across 2 shards) quantifies
//!   the replication tax when adding shards cannot add memory. A
//!   deterministic stats pass prints the scaling table and writes
//!   `BENCH_serve_scale.json` at the repo root (throughput, hit rate,
//!   evictions, fabric traffic per shard count).
//!   `IOLITE_SWEEP_CONNS` overrides the sweep's connection count for
//!   local experiments.

use std::collections::VecDeque;
use std::io::Write as _;
use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use iolite_buf::{Acl, Aggregate, BufferPool, PoolId, Slice};
use iolite_core::{CostModel, Fd, Kernel, KernelState};
use iolite_fs::{CacheKey, CacheOwnership, FileId, Policy, UnifiedCache, WritebackConfig};
use iolite_http::{run_sharded, server::serve_static, ServerKind, ShardedConfig, ShardedReport};
use iolite_net::{ChecksumCache, DEFAULT_MSS, DEFAULT_TSS};
use iolite_sim::SimRng;
use iolite_trace::{TraceSpec, Workload};
use iolite_vm::MemAccount;

/// Short measurement windows: benches document magnitudes, not publishable
/// microbenchmark precision.
fn quick<M: criterion::measurement::Measurement>(
    mut g: criterion::BenchmarkGroup<'_, M>,
) -> criterion::BenchmarkGroup<'_, M> {
    g.sample_size(10);
    g.warm_up_time(Duration::from_millis(500));
    g.measurement_time(Duration::from_secs(2));
    g
}

/// The 10k-file corpus: Zipf popularity, log-normal sizes, three times
/// the cache budget so eviction never stops.
fn scale_spec() -> TraceSpec {
    TraceSpec {
        name: "SCALE-10K",
        files: 10_000,
        total_bytes: 192 << 20,
        requests: 1_000_000,
        mean_request_bytes: 16 << 10,
        zipf_s: 1.0,
        size_sigma: 1.4,
    }
}

/// Number of simulated concurrent connections (and the depth of the
/// in-flight pin queue: every response in flight pins its cache entry
/// until the transmission drains, §3.7).
const CONNS: usize = 2048;
const PIN_DEPTH: usize = 4096;
/// Budget wobble: extra socket-copy reservation toggled under load.
const WOBBLE_BYTES: u64 = 24 << 20;
/// Length of the deterministic stats pass.
const STATS_REQUESTS: u64 = 30_000;

struct ScaleRig {
    kernel: Kernel,
    pid: iolite_core::Pid,
    /// The server's open-file set (one descriptor per corpus file).
    files: Vec<Fd>,
    /// Kernel socket descriptors, one per simulated connection.
    socks: Vec<Fd>,
    workload: Workload,
    rng: SimRng,
    inflight: VecDeque<CacheKey>,
    served: u64,
    wobbled: bool,
}

impl ScaleRig {
    fn new() -> Self {
        let workload = Workload::synthesize(&scale_spec(), 7);
        let mut cost = CostModel::pentium_ii_333();
        cost.ram_bytes = 64 << 20;
        let mut state = KernelState::new(cost, Policy::Gds);
        // Undersize the checksum cache relative to the corpus's slice
        // population so its replacement policy is actually exercised
        // (the kernel default never overflows in a 30k-request pass).
        state.cksum = ChecksumCache::new(8192);
        let mut kernel = Kernel::from_state(state);
        kernel.mem_reserve(MemAccount::Server, cost.server_reserve_bytes);
        let pid = kernel.spawn("server");
        let files: Vec<Fd> = workload
            .files()
            .iter()
            .map(|f| {
                let id = kernel.create_synthetic_file(&f.name, f.bytes, 7 ^ f.bytes);
                kernel.open_file(pid, id)
            })
            .collect();
        let socks = (0..CONNS)
            .map(|_| {
                kernel.socket_create(pid, ServerKind::FlashLite.buffer_mode(), DEFAULT_MSS, DEFAULT_TSS)
            })
            .collect();
        ScaleRig {
            kernel,
            pid,
            files,
            socks,
            workload,
            rng: SimRng::new(11),
            inflight: VecDeque::with_capacity(PIN_DEPTH + 1),
            served: 0,
            wobbled: false,
        }
    }

    /// Serves one Zipf-sampled request with pin churn and periodic
    /// budget wobble; returns response bytes.
    fn step(&mut self) -> u64 {
        let idx = self.workload.sample_request(&mut self.rng);
        let file = self.files[idx];
        let sock = self.socks[self.served as usize % CONNS];
        let rc = serve_static(&mut self.kernel, ServerKind::FlashLite, sock, self.pid, file);
        if let Some(key) = rc.pin_key {
            self.inflight.push_back(key);
        }
        // The oldest in-flight transmission drains: release its pin.
        if self.inflight.len() > PIN_DEPTH {
            let key = self.inflight.pop_front().expect("non-empty");
            self.kernel.cache_unpin(key);
        }
        self.served += 1;
        // Budget shrink under load: competing socket-buffer memory
        // appears and disappears; rebalance drives set_budget.
        if self.served.is_multiple_of(512) {
            if self.wobbled {
                self.kernel.mem_release(MemAccount::SocketCopies, WOBBLE_BYTES);
            } else {
                self.kernel.mem_reserve(MemAccount::SocketCopies, WOBBLE_BYTES);
            }
            self.wobbled = !self.wobbled;
            self.kernel.rebalance_cache();
        }
        rc.response_bytes
    }
}

fn bench_request_churn(c: &mut Criterion) {
    let mut rig = ScaleRig::new();
    // Deterministic stats pass: same numbers on every run, recorded in
    // EXPERIMENTS.md as the before/after comparison.
    for _ in 0..STATS_REQUESTS {
        rig.step();
    }
    let cs = rig.kernel.cache.stats();
    let ck = rig.kernel.cksum.stats();
    println!(
        "serve_scale stats after {STATS_REQUESTS} requests: \
         file cache {} entries, {} evictions ({} pinned), hit rate {:.3}; \
         checksum cache hit rate {:.3} ({} hits / {} misses)",
        rig.kernel.cache.len(),
        cs.evictions,
        cs.pinned_evictions,
        cs.hits as f64 / (cs.hits + cs.misses).max(1) as f64,
        ck.hits as f64 / (ck.hits + ck.misses).max(1) as f64,
        ck.hits,
        ck.misses,
    );
    let mut g = quick(c.benchmark_group("serve_scale"));
    g.throughput(Throughput::Elements(1));
    g.bench_function("request_churn_10k", |b| b.iter(|| rig.step()));
    g.finish();
}

fn bench_evict_pinned_prefix(c: &mut Criterion) {
    let mut g = quick(c.benchmark_group("cache_evict"));
    g.throughput(Throughput::Elements(1));
    for n in [1_000u64, 10_000, 50_000] {
        let pool = BufferPool::new(PoolId(1), Acl::kernel_only(), 64 * 1024);
        let mut cache = UnifiedCache::new(Policy::Lru, u64::MAX);
        for i in 0..n {
            let key = CacheKey::whole(FileId(i));
            cache.insert(key, Aggregate::from_bytes(&pool, &[0xEE; 256]));
            // Pin everything except the newest entry: the network holds
            // the rest mid-transmission, so the victim search must pass
            // over the whole pinned population.
            if i < n - 1 {
                cache.pin(&key);
            }
        }
        g.bench_function(format!("pinned_prefix_{n}"), |b| {
            b.iter(|| {
                // Steady state: evict the single unpinned entry and
                // reinsert it as the newest unpinned one.
                let (key, agg) = cache.evict_one().expect("victim");
                cache.insert(key, agg);
                key
            })
        });
    }
    g.finish();
}

fn bench_cksum_cold_pressure(c: &mut Criterion) {
    let pool = BufferPool::new(PoolId(2), Acl::kernel_only(), 64 * 1024);
    let hot_agg = Aggregate::from_bytes(&pool, &[0x5A; 1000]);
    let hot = hot_agg.slice_at(0).clone();
    let cold: Vec<Slice> = (0..8192)
        .map(|i| {
            Aggregate::from_bytes(&pool, &[(i % 251) as u8; 32])
                .slice_at(0)
                .clone()
        })
        .collect();
    // Deterministic stats pass: a hot document is retransmitted every 8
    // requests while 8192 one-off cold slices stream through a
    // 1024-entry cache.
    let mut cache = ChecksumCache::new(1024);
    cache.sum_for(&hot);
    let mut hot_hits = 0u64;
    let mut hot_accesses = 0u64;
    for (i, s) in cold.iter().enumerate() {
        cache.sum_for(s);
        if i % 8 == 0 {
            let computed_before = cache.stats().bytes_computed;
            cache.sum_for(&hot);
            hot_accesses += 1;
            if cache.stats().bytes_computed == computed_before {
                hot_hits += 1;
            }
        }
    }
    let st = cache.stats();
    println!(
        "cksum_cold_pressure stats: hot slice hit {hot_hits}/{hot_accesses}, \
         overall hit rate {:.3} ({} hits / {} misses)",
        st.hits as f64 / (st.hits + st.misses).max(1) as f64,
        st.hits,
        st.misses,
    );
    let mut g = quick(c.benchmark_group("cksum_cold_pressure"));
    g.throughput(Throughput::Elements(9));
    let mut i = 0usize;
    g.bench_function("sum_under_pressure", |b| {
        b.iter(|| {
            // 8 cold slices + 1 hot retransmission per iteration.
            let mut acc = 0u16;
            for _ in 0..8 {
                acc ^= cache.sum_for(&cold[i % cold.len()]).sum;
                i += 1;
            }
            acc ^ cache.sum_for(&hot).sum
        })
    });
    g.finish();
}

/// The event-loop corpus: smaller than SCALE-10K (each timed iteration
/// rebuilds the rig), still Zipf-skewed with a multi-chunk tail.
fn loop_spec() -> TraceSpec {
    TraceSpec {
        name: "LOOP-512",
        files: 512,
        total_bytes: 24 << 20,
        requests: 100_000,
        mean_request_bytes: 16 << 10,
        zipf_s: 1.0,
        size_sigma: 1.2,
    }
}

/// Builds and runs one event-loop pass: `conns` closed-loop clients,
/// `reqs_per_conn` Zipf-sampled requests each.
fn run_event_loop(conns: usize, reqs_per_conn: usize) -> iolite_http::LoopReport {
    let workload = Workload::synthesize(&loop_spec(), 13);
    let mut kernel = Kernel::with_policy(CostModel::pentium_ii_333(), Policy::Gds);
    let pid = kernel.spawn("server");
    let paths: Vec<String> = workload
        .files()
        .iter()
        .map(|f| {
            kernel.create_synthetic_file(&f.name, f.bytes, 13 ^ f.bytes);
            f.name.clone()
        })
        .collect();
    let mut rng = SimRng::new(conns as u64);
    let scripts: Vec<Vec<String>> = (0..conns)
        .map(|_| {
            (0..reqs_per_conn)
                .map(|_| paths[workload.sample_request(&mut rng)].clone())
                .collect()
        })
        .collect();
    let cfg = iolite_http::EventLoopConfig {
        drain_per_tick: 16 * 1024,
        ..iolite_http::EventLoopConfig::default()
    };
    let (report, _) = iolite_http::EventLoopServer::new(kernel, pid, scripts, None, cfg).run();
    assert_eq!(report.stats.blocked_io, 0, "readiness-driven: no spin");
    report
}

fn bench_event_loop_concurrency(c: &mut Criterion) {
    // Deterministic stats pass: throughput vs concurrency, printed for
    // the EXPERIMENTS.md table.
    for conns in [256usize, 1024, 2048] {
        let report = run_event_loop(conns, 2);
        let s = report.stats;
        println!(
            "event_loop stats at {conns} conns: {} requests in {} ticks \
             ({} polls, {} fds scanned), max in-flight {}, hit rate {:.3}, \
             sim CPU {:.1}ms => {:.0} requests/cpu-sec",
            s.completed,
            s.ticks,
            s.polls,
            s.poll_entries,
            s.max_inflight,
            s.cache_hits as f64 / s.completed.max(1) as f64,
            s.cpu.as_ms(),
            s.requests_per_cpu_sec(),
        );
        assert_eq!(s.failed, 0);
        assert!(s.max_inflight >= conns, "all clients in flight at once");
    }
    let mut g = quick(c.benchmark_group("event_loop"));
    for conns in [256usize, 1024, 2048] {
        g.throughput(Throughput::Elements(2 * conns as u64));
        g.bench_function(format!("conns_{conns}"), |b| {
            b.iter(|| run_event_loop(conns, 2).stats.completed)
        });
    }
    g.finish();
}

/// Builds and runs one mixed GET/PUT event-loop pass (PR 10):
/// `put_ratio` of the requests upload fresh document bodies through the
/// zero-copy ingest path (dirty unified-cache installs, write-back
/// between request events); the rest are Zipf-sampled GETs. Returns the
/// loop report plus the kernel's metrics so the stats pass can read the
/// flush/NVM counters.
fn run_mixed_loop(
    conns: usize,
    reqs_per_conn: usize,
    put_ratio: f64,
    wb: WritebackConfig,
) -> (iolite_http::LoopReport, iolite_core::Metrics) {
    let workload = Workload::synthesize(&loop_spec(), 13);
    let mut kernel = Kernel::with_policy(CostModel::pentium_ii_333(), Policy::Gds);
    kernel.set_writeback(wb);
    let pid = kernel.spawn("server");
    let paths: Vec<String> = workload
        .files()
        .iter()
        .map(|f| {
            kernel.create_synthetic_file(&f.name, f.bytes, 13 ^ f.bytes);
            f.name.clone()
        })
        .collect();
    let mut rng = SimRng::new(conns as u64 ^ 0x1091_0e5e);
    let scripts: Vec<Vec<String>> = (0..conns)
        .map(|_| {
            (0..reqs_per_conn)
                .map(|_| {
                    let path = &paths[workload.sample_request(&mut rng)];
                    if rng.chance(put_ratio) {
                        // Replacement bodies up to twice the corpus's
                        // mean document size, never degenerate.
                        format!("PUT {path} {}", 1 + rng.next_below(32 * 1024))
                    } else {
                        path.clone()
                    }
                })
                .collect()
        })
        .collect();
    let cfg = iolite_http::EventLoopConfig {
        drain_per_tick: 16 * 1024,
        ..iolite_http::EventLoopConfig::default()
    };
    let (report, kernel) = iolite_http::EventLoopServer::new(kernel, pid, scripts, None, cfg).run();
    assert_eq!(report.stats.blocked_io, 0, "readiness-driven: no spin");
    let metrics = kernel.metrics.clone();
    (report, metrics)
}

fn bench_event_loop_mixed_writes(c: &mut Criterion) {
    // Deterministic stats passes: the three write-burst tables recorded
    // in EXPERIMENTS.md, next to the read-only table above.
    //
    // (1) Read-latency interference: how much does admitting PUTs cost
    // the GETs sharing the loop?
    println!("write interference at 1024 conns (WritebackConfig::default_tuning):");
    for ratio in [0.0f64, 0.1, 0.3, 0.5] {
        let (report, m) = run_mixed_loop(1024, 2, ratio, WritebackConfig::default_tuning());
        let s = report.stats;
        println!(
            "  {:>3.0}% PUT: {} requests ({} puts, {} KB ingested), \
             {} flushes, sim CPU {:.1}ms => {:.0} requests/cpu-sec",
            ratio * 100.0,
            s.completed,
            s.puts,
            s.put_bytes >> 10,
            m.writeback_flushes,
            s.cpu.as_ms(),
            s.requests_per_cpu_sec(),
        );
        assert_eq!(s.failed, 0);
        assert!(ratio == 0.0 || s.puts > 0, "the mix must actually write");
    }
    // (2) Dirty-threshold x flush-batch sweep (CAWL's two knobs) at the
    // 30% PUT point.
    println!("dirty-threshold x flush-batch sweep at 1024 conns, 30% PUT:");
    for dirty_kb in [16u64, 64, 256] {
        for batch_kb in [64u64, 256] {
            let wb = WritebackConfig {
                dirty_threshold_bytes: dirty_kb << 10,
                flush_batch_bytes: batch_kb << 10,
                ..WritebackConfig::default_tuning()
            };
            let (_, m) = run_mixed_loop(1024, 2, 0.3, wb);
            println!(
                "  dirty {dirty_kb:>3} KB, batch {batch_kb:>3} KB: \
                 {} flushes, {} KB written back ({} KB via NVM), \
                 {} disk writes",
                m.writeback_flushes,
                m.bytes_written_back >> 10,
                m.nvm_absorbed_bytes >> 10,
                m.disk_write_ops,
            );
        }
    }
    // (3) NVM-tier absorption: the staging tier's capacity decides how
    // much of the burst skips the disk's positioning costs.
    println!("NVM staging-tier absorption at 1024 conns, 30% PUT:");
    for nvm_mb in [0u64, 1, 8] {
        let wb = WritebackConfig {
            nvm_capacity_bytes: nvm_mb << 20,
            ..WritebackConfig::default_tuning()
        };
        let (_, m) = run_mixed_loop(1024, 2, 0.3, wb);
        println!(
            "  NVM {nvm_mb} MB: {} KB written back ({} KB absorbed, \
             {} KB demoted), {} disk writes / {} KB",
            m.bytes_written_back >> 10,
            m.nvm_absorbed_bytes >> 10,
            m.nvm_demoted_bytes >> 10,
            m.disk_write_ops,
            m.disk_write_bytes >> 10,
        );
    }
    let mut g = quick(c.benchmark_group("event_loop"));
    let (conns, ratio) = (1024usize, 0.3f64);
    g.throughput(Throughput::Elements(2 * conns as u64));
    g.bench_function("conns_1024_put30", |b| {
        b.iter(|| {
            run_mixed_loop(conns, 2, ratio, WritebackConfig::default_tuning())
                .0
                .stats
                .completed
        })
    });
    g.finish();
}

// ---- sharded sweep (PR 7) ----------------------------------------------

/// Per-shard cache budget for the headline rows: every shard is a
/// whole stock `pentium_ii_333` machine (128 MB — the same budget
/// every prior serve_scale table ran under), i.e. per-core
/// provisioning where fleet RAM grows with the fleet. A separate
/// fixed-total row splits this one machine's budget across two
/// shards to quantify what replicating the Zipf head costs when
/// adding shards cannot add memory.
const SWEEP_SHARD_RAM: u64 = 128 << 20;
/// Per-shard admission limit: bounds in-flight response memory at the
/// 2^18-connection point.
const SWEEP_ADMISSION: usize = 2048;

/// (total connections, shard counts) for the sweep; fast mode keeps the
/// CI run bounded, the full run produces the committed table.
/// `IOLITE_SWEEP_CONNS` overrides the connection count for local
/// experiments between the two sizes.
fn sweep_params() -> (usize, Vec<usize>) {
    let fast = std::env::var_os("CRITERION_SHIM_FAST").is_some();
    let conns = std::env::var("IOLITE_SWEEP_CONNS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(if fast { 1 << 12 } else { 1 << 18 });
    if fast {
        (conns, vec![1, 2])
    } else {
        (conns, vec![1, 2, 4, 8])
    }
}

/// One sweep point: `total_conns` single-request Zipf connections over
/// `shards` shared-nothing shards, each owning `ram_per_shard` bytes
/// of cache budget.
fn run_sweep_point(
    workload: &Workload,
    shards: usize,
    ownership: CacheOwnership,
    total_conns: usize,
    ram_per_shard: u64,
) -> ShardedReport {
    let mut cost = CostModel::pentium_ii_333();
    cost.ram_bytes = ram_per_shard;
    let cfg = ShardedConfig {
        shards,
        ownership,
        cost,
        policy: Policy::Gds,
        journal: false,
        loop_cfg: iolite_http::EventLoopConfig {
            drain_per_tick: 16 * 1024,
            admission_limit: SWEEP_ADMISSION,
            ..iolite_http::EventLoopConfig::default()
        },
    };
    let paths: Vec<String> = workload.files().iter().map(|f| f.name.clone()).collect();
    let mut rng = SimRng::new(0x5eed);
    // Structured conn ids (stride 4096): shard routing sees the id
    // spaces real listeners hand out, not dense integers.
    let conns: Vec<(u64, Vec<String>)> = (0..total_conns)
        .map(|j| {
            let path = paths[workload.sample_request(&mut rng)].clone();
            (j as u64 * 4096, vec![path])
        })
        .collect();
    let report = run_sharded(
        &cfg,
        |k: &mut Kernel| {
            let reserve = k.cost.server_reserve_bytes;
            k.mem_reserve(MemAccount::Server, reserve);
            let pid = k.spawn("server");
            for f in workload.files() {
                k.create_synthetic_file(&f.name, f.bytes, 7 ^ f.bytes);
            }
            pid
        },
        conns,
    );
    assert_eq!(report.failed(), 0);
    for s in &report.shards {
        assert_eq!(
            s.report.stats.blocked_io, 0,
            "shard {} must stay readiness-driven",
            s.shard
        );
    }
    report
}

/// A formatted sweep row plus its JSON encoding.
struct SweepRow {
    shards: usize,
    ownership: &'static str,
    report: ShardedReport,
    total_conns: usize,
    ram_per_shard: u64,
}

impl SweepRow {
    fn hit_rate(&self) -> f64 {
        let (mut hits, mut misses) = (0u64, 0u64);
        for s in &self.report.shards {
            let cs = s.kernel.cache.stats();
            hits += cs.hits;
            misses += cs.misses;
        }
        hits as f64 / (hits + misses).max(1) as f64
    }

    fn evictions(&self) -> u64 {
        self.report
            .shards
            .iter()
            .map(|s| s.kernel.cache.stats().evictions)
            .sum()
    }

    fn json(&self, speedup: f64) -> String {
        format!(
            "    {{\"shards\": {}, \"ownership\": \"{}\", \"connections\": {}, \
             \"cache_ram_per_shard_bytes\": {}, \
             \"completed\": {}, \"requests_per_cpu_sec\": {:.0}, \
             \"speedup_vs_one_shard\": {:.2}, \"makespan_cpu_ms\": {:.1}, \
             \"imbalance\": {:.3}, \"hit_rate\": {:.3}, \"evictions\": {}, \
             \"remote_fetches\": {}}}",
            self.shards,
            self.ownership,
            self.total_conns,
            self.ram_per_shard,
            self.report.completed(),
            self.report.requests_per_cpu_sec(),
            speedup,
            self.report.max_shard_cpu().as_ms(),
            self.report.imbalance(),
            self.hit_rate(),
            self.evictions(),
            self.report.remote_reads(),
        )
    }
}

fn bench_sharded_sweep(c: &mut Criterion) {
    let fast = std::env::var_os("CRITERION_SHIM_FAST").is_some();
    let (total_conns, shard_counts) = sweep_params();
    let workload = Workload::synthesize(&scale_spec(), 7);
    // Deterministic stats pass: the committed scaling table. Headline
    // rows are per-core provisioned (every shard gets the PR 3
    // single-kernel budget).
    let mut rows: Vec<SweepRow> = shard_counts
        .iter()
        .map(|&shards| SweepRow {
            shards,
            ownership: "replicate",
            report: run_sweep_point(
                &workload,
                shards,
                CacheOwnership::Replicate,
                total_conns,
                SWEEP_SHARD_RAM,
            ),
            total_conns,
            ram_per_shard: SWEEP_SHARD_RAM,
        })
        .collect();
    // One HomeOnly point at the largest fleet: quantifies what hot-spot
    // concentration costs when replicas are forbidden.
    let largest = *shard_counts.last().expect("non-empty sweep");
    if largest > 1 {
        rows.push(SweepRow {
            shards: largest,
            ownership: "home_only",
            report: run_sweep_point(
                &workload,
                largest,
                CacheOwnership::HomeOnly,
                total_conns,
                SWEEP_SHARD_RAM,
            ),
            total_conns,
            ram_per_shard: SWEEP_SHARD_RAM,
        });
        // One fixed-total-RAM point: the single-kernel budget *split*
        // across two shards. Replicating the Zipf head into half-size
        // caches is the measured cost of shared-nothing sharding when
        // adding shards cannot add memory (see EXPERIMENTS.md).
        rows.push(SweepRow {
            shards: 2,
            ownership: "replicate",
            report: run_sweep_point(
                &workload,
                2,
                CacheOwnership::Replicate,
                total_conns,
                SWEEP_SHARD_RAM / 2,
            ),
            total_conns,
            ram_per_shard: SWEEP_SHARD_RAM / 2,
        });
    }
    let base_rps = rows[0].report.requests_per_cpu_sec();
    println!(
        "sharded_sweep ({total_conns} connections, {} MB cache budget per shard):",
        SWEEP_SHARD_RAM >> 20
    );
    let mut json_rows = Vec::new();
    for row in &rows {
        let speedup = row.report.requests_per_cpu_sec() / base_rps;
        println!(
            "  {} shard(s) [{} @ {} MB/shard]: {:.0} req/cpu-sec ({:.2}x), \
             makespan {:.1}ms, imbalance {:.3}, hit rate {:.3}, {} evictions, \
             {} remote fetches ({} waits)",
            row.shards,
            row.ownership,
            row.ram_per_shard >> 20,
            row.report.requests_per_cpu_sec(),
            speedup,
            row.report.max_shard_cpu().as_ms(),
            row.report.imbalance(),
            row.hit_rate(),
            row.evictions(),
            row.report.remote_reads(),
            row.report
                .shards
                .iter()
                .map(|s| s.report.stats.remote_waits)
                .sum::<u64>(),
        );
        json_rows.push(row.json(speedup));
    }
    let json = format!(
        "{{\n  \"bench\": \"serve_scale/sharded_sweep\",\n  \
         \"corpus\": \"{}\",\n  \"cache_ram_per_shard_bytes\": {},\n  \
         \"admission_limit\": {},\n  \"fast_mode\": {},\n  \"rows\": [\n{}\n  ]\n}}\n",
        scale_spec().name,
        SWEEP_SHARD_RAM,
        SWEEP_ADMISSION,
        fast,
        json_rows.join(",\n")
    );
    // Only the full-size run regenerates the committed artifact — the
    // fast CI sweep would otherwise clobber the real table with its
    // 4096-connection smoke numbers.
    if !fast {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_serve_scale.json");
        write_artifact(path, &json);
        println!("sharded_sweep table written to {path}");
    }

    // The PR 7 acceptance bar, checked on the full-size sweep after
    // the whole table and JSON artifact are out (a failing run still
    // leaves full diagnostics). The fast CI sweep is too small to be
    // meaningful and the fixed-total row is exempt — it exists to
    // measure the replication tax, not to clear the bar.
    if !fast {
        for row in &rows {
            if row.ownership != "replicate" || row.ram_per_shard != SWEEP_SHARD_RAM {
                continue;
            }
            let speedup = row.report.requests_per_cpu_sec() / base_rps;
            if row.shards == 2 {
                assert!(speedup >= 1.7, "2-shard speedup {speedup:.2} < 1.7");
            }
            if row.shards == 4 {
                assert!(speedup >= 3.0, "4-shard speedup {speedup:.2} < 3.0");
            }
        }
    }

    // Timed: one mid-size 2-shard point per iteration.
    let mut g = quick(c.benchmark_group("sharded"));
    g.throughput(Throughput::Elements(1 << 12));
    g.bench_function("shards_2_conns_4096", |b| {
        b.iter(|| {
            run_sweep_point(&workload, 2, CacheOwnership::Replicate, 1 << 12, SWEEP_SHARD_RAM)
                .completed()
        })
    });
    g.finish();
}

/// Host-side artifact write. The `disallowed_types` lint banning
/// `std::fs::File` guards the pure kernel core; bench tooling writing
/// its own results file is exactly the host I/O the kernel never does.
#[allow(clippy::disallowed_types)]
fn write_artifact(path: &str, contents: &str) {
    std::fs::File::create(path)
        .and_then(|mut f| f.write_all(contents.as_bytes()))
        .expect("write bench artifact");
}

criterion_group!(
    benches,
    bench_request_churn,
    bench_evict_pinned_prefix,
    bench_cksum_cold_pressure,
    bench_event_loop_concurrency,
    bench_event_loop_mixed_writes,
    bench_sharded_sweep
);
criterion_main!(benches);
