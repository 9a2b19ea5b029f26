//! The PR 7 sharded scaling table: shared-nothing sharded serving over
//! 1/2/4/8 shards, in simulated CPU (`repro scale`).
//!
//! 2^18 single-request connections over the SCALE-10K Zipf corpus.
//! Headline rows are per-core provisioned — every shard is a stock
//! `pentium_ii_333` machine with the 128 MB budget — and requests per
//! CPU second are taken on the parallel makespan (max per-shard
//! simulated CPU), so idle shards don't help and a hot shard hurts. Each
//! file is cached only on its home shard, so adding shards adds cache:
//! one fixed-total-RAM row (the single machine's budget *split* across 2
//! shards) prices sharding when it cannot add memory.
//!
//! Every fleet is driven on one host thread in a fixed round order
//! (`iolite_http::run_round`), so each row is a function of the sweep's
//! constants: `repro scale` prints the same table on every run, and its
//! stdout is committed as `crates/bench/repro_scale.txt`.

use iolite_core::{CostModel, Kernel};
use iolite_fs::{CacheOwnership, Policy};
use iolite_http::{run_sharded, EventLoopConfig, ShardOutcome, ShardedConfig, ShardedReport};
use iolite_sim::SimRng;
use iolite_trace::{TraceSpec, Workload};
use iolite_vm::MemAccount;

/// Connections in the sweep, one Zipf-sampled request each.
const CONNS: usize = 1 << 18;
/// Per-shard cache budget of the headline rows.
const SHARD_RAM: u64 = 128 << 20;
/// Per-shard admission limit: bounds in-flight response memory.
const ADMISSION: usize = 2048;

/// The 10k-file corpus: Zipf popularity, log-normal sizes, 192 MB.
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

/// One row of the table.
pub struct ScaleRow {
    /// Shard count.
    pub shards: usize,
    /// Cache budget per shard, in bytes.
    pub ram_per_shard: u64,
    /// The PR 7 bar: least speedup over the one-shard row this row must
    /// show (0 for rows that measure a tax instead of clearing a bar).
    /// `repro scale` prints its bar line from these.
    pub min_speedup: f64,
    /// The fleet's report (per-shard loop stats and kernels).
    pub report: ShardedReport,
}

impl ScaleRow {
    /// `stat` summed over the fleet's shards.
    fn sum(&self, stat: impl Fn(&ShardOutcome) -> u64) -> u64 {
        self.report.shards.iter().map(stat).sum()
    }

    /// Fleet-wide file-cache hit rate.
    pub fn hit_rate(&self) -> f64 {
        let hits = self.sum(|s| s.kernel.cache.stats().hits);
        let misses = self.sum(|s| s.kernel.cache.stats().misses);
        hits as f64 / (hits + misses).max(1) as f64
    }

    /// Fleet-wide file-cache evictions.
    pub fn evictions(&self) -> u64 {
        self.sum(|s| s.kernel.cache.stats().evictions)
    }

    /// Requests that parked behind another connection's remote fetch.
    pub fn remote_waits(&self) -> u64 {
        self.sum(|s| s.report.stats.remote_waits)
    }

    /// Whether any shard issued an I/O call its poll did not justify.
    pub fn spun(&self) -> bool {
        self.sum(|s| s.report.stats.blocked_io) != 0
    }
}

fn run_point(
    workload: &Workload,
    (shards, ram_per_shard, min_speedup): (usize, u64, f64),
) -> ScaleRow {
    let mut cost = CostModel::pentium_ii_333();
    cost.ram_bytes = ram_per_shard;
    let cfg = ShardedConfig {
        shards,
        ownership: CacheOwnership::HomeOnly,
        cost,
        policy: Policy::Gds,
        journal: false,
        loop_cfg: EventLoopConfig {
            drain_per_tick: 16 * 1024,
            admission_limit: ADMISSION,
            ..EventLoopConfig::default()
        },
    };
    let paths: Vec<String> = workload.files().iter().map(|f| f.name.clone()).collect();
    let mut rng = SimRng::new(0x5eed);
    // Structured conn ids (stride 4096): shard routing sees the id
    // spaces real listeners hand out, not dense integers.
    let conns: Vec<(u64, Vec<String>)> = (0..CONNS)
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
    ScaleRow {
        shards,
        ram_per_shard,
        min_speedup,
        report,
    }
}

/// Runs the sweep: 1/2/4/8 shards, and 2 shards at fixed total RAM. The
/// first row is the speedup baseline.
pub fn sweep() -> Vec<ScaleRow> {
    let workload = Workload::synthesize(&scale_spec(), 7);
    [
        (1, SHARD_RAM, 0.0),
        (2, SHARD_RAM, 1.7),
        (4, SHARD_RAM, 3.0),
        (8, SHARD_RAM, 0.0),
        (2, SHARD_RAM / 2, 0.0),
    ]
    .into_iter()
    .map(|point| run_point(&workload, point))
    .collect()
}
