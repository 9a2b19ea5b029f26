//! Per-layer drivers for the traced run: each function times direct
//! calls into one layer's public API, at the workload's own request
//! sizes and key stream, and returns that layer's metrics.
//!
//! A layer a workload never enters reports 0 (the write-back counters
//! on a GET-only workload, the fabric on a single shard).

use std::collections::VecDeque;
use std::hint::black_box;
use std::time::Instant;

use iolite_buf::{Acl, Aggregate, BufferPool, PoolId};
use iolite_core::{step, Command, CostModel, Fd, Journal, Kernel, KernelState, Metrics, Pid};
use iolite_fs::{CacheKey, CacheOwnership, FileId, Policy, UnifiedCache};
use iolite_http::server::serve_static;
use iolite_http::{
    parse_request_agg, request_bytes, response_header, run_sharded, ServerKind, ShardedConfig,
};
use iolite_ipc::{Pipe, PipeMode};
use iolite_net::{BufferMode, ChecksumCache, TcpConn, TcpReceiver, DEFAULT_MSS, DEFAULT_TSS};
use iolite_storm::{run_storm, StormConfig};
use iolite_trace::{Workload, WorkloadFile};
use iolite_vm::MemAccount;

use crate::engine::{self, RepResult};
use crate::metrics::Values;
use crate::span::{SpanId, Trace};
use crate::stats;
use crate::workloads::{Entry, TickInputs, TickSpec};

/// Chunk size of the harness's own buffer pools (the benches' choice).
const CHUNK: usize = 64 * 1024;

/// Batches per micro-measurement; the median batch is reported.
const BATCHES: usize = 5;

/// Median of `BATCHES` samples.
fn median_batches(sample: impl FnMut() -> f64) -> f64 {
    stats::median(
        &std::iter::repeat_with(sample)
            .take(BATCHES)
            .collect::<Vec<_>>(),
    )
}

/// Median over `BATCHES` batches of the mean nanoseconds per operation;
/// `batch` runs one batch and returns how many operations it did.
fn ns_per_op(mut batch: impl FnMut() -> u64) -> f64 {
    median_batches(|| {
        let t0 = Instant::now();
        let ops = batch();
        t0.elapsed().as_nanos() as f64 / ops.max(1) as f64
    })
}

/// What one `Instant::now()` pair costs, so per-call timings can have
/// it subtracted.
pub fn timer_overhead_ns() -> f64 {
    let samples: Vec<f64> = (0..2001)
        .map(|_| {
            let t0 = Instant::now();
            black_box(t0).elapsed().as_nanos() as f64
        })
        .collect();
    stats::median(&samples)
}

fn pool(id: u32) -> BufferPool {
    BufferPool::new(PoolId(id), Acl::kernel_only(), CHUNK)
}

/// The documents up to `n` connections ask for first: a deterministic
/// sample of the workload's own request stream for the micro-drivers.
pub fn sample_files(inputs: &TickInputs, n: usize) -> impl Iterator<Item = &WorkloadFile> {
    let files = inputs.workload.files();
    inputs
        .conns
        .iter()
        .flat_map(|(_, s)| s.first())
        .take(n)
        .map(|e| match *e {
            Entry::Get { file } | Entry::Put { file } => &files[file],
        })
}

/// The micro-drivers every workload's traced run shares — `buf`, `net`,
/// `ipc` and `http.message` at the sampled documents' sizes and paths,
/// then the storm side-run — each under its own span. Returns the
/// storm's contract violations.
pub fn shared_micro(
    sample: &[&WorkloadFile],
    seed: u64,
    seconds: f64,
    trace: &mut Trace,
    parent: SpanId,
    out: &mut Values,
) -> Vec<String> {
    // Body sizes capped so one driver never allocates more than a few MB.
    let sizes: Vec<u64> = sample
        .iter()
        .take(32)
        .map(|f| f.bytes.min(1 << 20))
        .collect();
    trace.scope("buf", parent, || buf_layer(&sizes, out));
    trace.scope("net", parent, || net_layer(&sizes, out));
    trace.scope("ipc", parent, || ipc_layer(out));
    trace.scope("http.message", parent, || parse_layer(sample, out));
    storm_layer(seed, seconds, trace, parent, out)
}

/// `header ++ body` aggregates over fresh buffers, one per size.
fn responses(pool: &BufferPool, sizes: &[u64]) -> Vec<Aggregate> {
    sizes
        .iter()
        .map(|&len| {
            let mut r = Aggregate::from_bytes(pool, &response_header(len, true));
            r.append(&Aggregate::from_bytes(pool, &vec![0xA5; len as usize]));
            r
        })
        .collect()
}

/// `buf.*`: aggregate arithmetic and pool allocation.
fn buf_layer(sizes: &[u64], out: &mut Values) {
    let pool = pool(900);
    let resp = responses(&pool, sizes);
    let mss = DEFAULT_MSS as u64;
    out.insert(
        "buf.agg.range_ns",
        ns_per_op(|| {
            for _ in 0..200 {
                for r in &resp {
                    black_box(r.range(r.len() / 4, r.len() / 2).expect("in range"));
                }
            }
            200 * resp.len() as u64
        }),
    );
    out.insert(
        "buf.agg.advance_ns",
        ns_per_op(|| {
            let mut ops = 0;
            for r in &resp {
                let mut a = r.clone();
                while a.len() > mss {
                    a.advance(mss);
                    ops += 1;
                }
                black_box(&a);
            }
            ops
        }),
    );
    let header = Aggregate::from_bytes(&pool, &response_header(1, true));
    out.insert(
        "buf.agg.append_ns",
        ns_per_op(|| {
            for _ in 0..200 {
                for r in &resp {
                    let mut a = Aggregate::empty();
                    a.append(&header);
                    a.append(r);
                    black_box(&a);
                }
            }
            400 * resp.len() as u64
        }),
    );
    let kb: u64 = resp.iter().map(Aggregate::len).sum::<u64>().div_ceil(1024);
    out.insert(
        "buf.agg.scan_ns_per_kb",
        ns_per_op(|| {
            let mut acc = 0u64;
            for r in &resp {
                for chunk in r.chunks() {
                    acc = chunk.iter().fold(acc, |a, &b| a.wrapping_add(u64::from(b)));
                }
            }
            black_box(acc);
            kb
        }),
    );
    out.insert(
        "buf.pool.alloc_ns",
        ns_per_op(|| {
            for _ in 0..50 {
                for &len in sizes {
                    black_box(
                        pool.alloc((len as usize).clamp(1, CHUNK))
                            .expect("fits a chunk"),
                    );
                }
            }
            50 * sizes.len() as u64
        }),
    );
}

/// `net.*`: checksum cache, TCP send accounting, reassembly.
fn net_layer(sizes: &[u64], out: &mut Values) {
    let mut pools = 910u32;
    let mut fresh = || {
        pools += 1;
        responses(&pool(pools), sizes)
    };
    let mut cache = ChecksumCache::new(1 << 16);
    // Compute: every slice is new to the cache.
    let kb = sizes.iter().sum::<u64>().div_ceil(1024);
    out.insert(
        "net.cksum.compute_ns_per_kb",
        median_batches(|| {
            let batch = fresh(); // Untimed: new buffers, so every sum misses.
            let t0 = Instant::now();
            for r in &batch {
                for s in r.slices() {
                    black_box(cache.sum_for(s));
                }
            }
            t0.elapsed().as_nanos() as f64 / kb as f64
        }),
    );
    let resp = fresh();
    let slices: u64 = resp.iter().map(|r| r.num_slices() as u64).sum();
    for r in &resp {
        for s in r.slices() {
            cache.sum_for(s);
        }
    }
    out.insert(
        "net.cksum.hit_ns",
        ns_per_op(|| {
            for _ in 0..50 {
                for r in &resp {
                    for s in r.slices() {
                        black_box(cache.sum_for(s));
                    }
                }
            }
            50 * slices
        }),
    );
    let mut conn = TcpConn::new(1, BufferMode::ZeroCopy, DEFAULT_MSS, DEFAULT_TSS);
    conn.establish();
    out.insert(
        "net.tcp.send_ns_per_segment",
        ns_per_op(|| {
            let mut segments = 0;
            for _ in 0..50 {
                for r in &resp {
                    segments += conn.send(r, &mut cache).segments;
                }
            }
            segments
        }),
    );
    out.insert(
        "net.cksum.invalidate_ns",
        ns_per_op(|| {
            for r in &resp {
                for s in r.slices() {
                    cache.sum_for(s);
                }
            }
            for r in &resp {
                black_box(cache.invalidate_aggregate(r));
            }
            resp.len() as u64
        }),
    );
    let mss = DEFAULT_MSS as u64;
    out.insert(
        "net.reassembly.ns_per_segment",
        ns_per_op(|| {
            let mut segments = 0;
            for r in &resp {
                let mut rx = TcpReceiver::new(0);
                let mut seq = 0;
                while seq < r.len() {
                    let len = mss.min(r.len() - seq);
                    rx.on_segment(seq, r.range(seq, len).expect("in range"));
                    seq += len;
                    segments += 1;
                }
                black_box(rx.read_available());
            }
            segments
        }),
    );
}

/// `fs.cache.*` timings: the workload's key stream against a standalone
/// `UnifiedCache` at the same budget and policy.
pub fn cache_layer(spec: &TickSpec, inputs: &TickInputs, overhead_ns: f64, out: &mut Values) {
    let budget = KernelState::new(engine::cost_model(spec), Policy::Gds)
        .cache
        .budget();
    let mut cache = UnifiedCache::new(Policy::Gds, budget);
    let files = inputs.workload.files();
    let pool = pool(930);
    // One backing aggregate; entries are zero-copy ranges of it, so the
    // cache sees true sizes without the harness holding the corpus.
    let largest = files.iter().map(|f| f.bytes).max().unwrap_or(1);
    let backing = Aggregate::from_bytes(&pool, &vec![0u8; largest as usize]);
    let (mut hit, mut evict, mut pin, mut dirty) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let timed = |f: &mut dyn FnMut()| {
        let t0 = Instant::now();
        f();
        (t0.elapsed().as_nanos() as f64 - overhead_ns).max(0.0)
    };
    let stream = inputs.conns.iter().flat_map(|(_, s)| s).take(200_000);
    for e in stream {
        match *e {
            Entry::Get { file } => {
                let key = CacheKey::whole(FileId(file as u64));
                let mut found = false;
                let ns = timed(&mut || found = black_box(cache.lookup(&key)).is_some());
                if found {
                    hit.push(ns);
                } else {
                    let agg = backing.range(0, files[file].bytes).expect("in range");
                    let mut evicted = 0;
                    let ns = timed(&mut || evicted = cache.insert(key, agg.clone()).len());
                    if evicted > 0 {
                        evict.push(ns);
                    }
                }
                pin.push(timed(&mut || {
                    cache.pin(&key);
                    cache.unpin(&key);
                }));
            }
            Entry::Put { file } => {
                let key = CacheKey::whole(FileId(file as u64));
                let agg = backing.range(0, files[file].bytes).expect("in range");
                dirty.push(timed(&mut || {
                    black_box(cache.insert_dirty(key, agg.clone()));
                }));
                cache.mark_clean(&key);
            }
        }
    }
    out.insert("fs.cache.lookup_hit_ns", stats::median(&hit));
    out.insert("fs.cache.insert_evict_ns", stats::median(&evict));
    out.insert("fs.cache.pin_unpin_ns", stats::median(&pin));
    out.insert("fs.cache.insert_dirty_ns", stats::median(&dirty));
}

/// `ipc.pipe.roundtrip_ns`: a zero-copy pipe write + read of 20 KB.
fn ipc_layer(out: &mut Values) {
    let doc = Aggregate::from_bytes(&pool(940), &vec![0x42; 20 << 10]);
    let mut pipe = Pipe::new(PipeMode::ZeroCopy, 64 << 10);
    out.insert(
        "ipc.pipe.roundtrip_ns",
        ns_per_op(|| {
            for _ in 0..2000 {
                black_box(pipe.write(&doc));
                black_box(pipe.read(u64::MAX));
            }
            2000
        }),
    );
}

/// `http.message.parse_ns`: `parse_request_agg` over the workload's
/// own request heads.
fn parse_layer(sample: &[&WorkloadFile], out: &mut Values) {
    let pool = pool(950);
    let reqs: Vec<Aggregate> = sample
        .iter()
        .map(|f| Aggregate::from_bytes(&pool, &request_bytes(&f.name, true)))
        .collect();
    out.insert(
        "http.message.parse_ns",
        ns_per_op(|| {
            for _ in 0..20 {
                for r in &reqs {
                    black_box(parse_request_agg(r));
                }
            }
            20 * reqs.len() as u64
        }),
    );
}

/// A kernel holding `workload`'s corpus with every document open and
/// `socks` client sockets: what sequential `serve_static` runs against.
pub struct StaticRig {
    pub kernel: Kernel,
    pub pid: Pid,
    pub files: Vec<Fd>,
    pub socks: Vec<Fd>,
    kind: ServerKind,
    inflight: VecDeque<CacheKey>,
    served: usize,
}

impl StaticRig {
    pub fn new(
        workload: &Workload,
        file_seed: u64,
        cost: CostModel,
        kind: ServerKind,
        socks: usize,
    ) -> StaticRig {
        let policy = match kind {
            ServerKind::FlashLite => Policy::Gds,
            _ => Policy::Lru,
        };
        let mut kernel = Kernel::with_policy(cost, policy);
        kernel.mem_reserve(MemAccount::Server, cost.server_reserve_bytes);
        let pid = kernel.spawn("server");
        let files = workload
            .files()
            .iter()
            .map(|f| {
                let id = kernel.create_synthetic_file(&f.name, f.bytes, file_seed ^ f.bytes);
                kernel.open_file(pid, id)
            })
            .collect();
        let socks = (0..socks)
            .map(|_| kernel.socket_create(pid, kind.buffer_mode(), cost.mss, cost.tss))
            .collect();
        StaticRig {
            kernel,
            pid,
            files,
            socks,
            kind,
            inflight: VecDeque::new(),
            served: 0,
        }
    }

    /// Serves one request for document `file`, holding its transmission
    /// pin until one response per socket is in flight (what the closed
    /// loop does); returns the response's application bytes.
    pub fn serve(&mut self, file: usize) -> u64 {
        let sock = self.socks[self.served % self.socks.len()];
        self.served += 1;
        let rc = serve_static(
            &mut self.kernel,
            self.kind,
            sock,
            self.pid,
            self.files[file],
        );
        if let Some(key) = rc.pin_key {
            self.inflight.push_back(key);
            if self.inflight.len() > self.socks.len() {
                if let Some(old) = self.inflight.pop_front() {
                    self.kernel.cache_unpin(old);
                }
            }
        }
        rc.response_bytes
    }
}

/// `http.server.serve_static_us`: the sequential path over the head of
/// the workload's own GET stream.
pub fn serve_static_layer(spec: &TickSpec, inputs: &TickInputs, out: &mut Values) {
    let mut rig = StaticRig::new(
        &inputs.workload,
        inputs.file_seed,
        engine::cost_model(spec),
        ServerKind::FlashLite,
        spec.conns,
    );
    let gets: Vec<usize> = inputs
        .conns
        .iter()
        .flat_map(|(_, s)| s)
        .filter_map(|e| match *e {
            Entry::Get { file } => Some(file),
            Entry::Put { .. } => None,
        })
        .take(40_000)
        .collect();
    let per_batch = gets.len().div_ceil(BATCHES).max(1);
    let mut batches = gets.chunks(per_batch);
    out.insert(
        "http.server.serve_static_us",
        ns_per_op(|| {
            let batch = batches.next().unwrap_or(&[]);
            for &file in batch {
                black_box(rig.serve(file));
            }
            batch.len() as u64
        }) / 1e3,
    );
}

/// Which layer of the kernel a command exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    File,
    Socket,
    Poll,
    Cache,
    Write,
    Other,
}

pub fn family(cmd: &Command) -> Family {
    match cmd {
        Command::Open { .. }
        | Command::OpenFile { .. }
        | Command::IolPread { .. }
        | Command::IolReadFd { .. }
        | Command::CloseFd { .. } => Family::File,
        Command::IolWriteFd { .. }
        | Command::SocketDrain { .. }
        | Command::SocketDeliver { .. } => Family::Socket,
        Command::Poll { .. } => Family::Poll,
        Command::CachePin { .. }
        | Command::CacheUnpin { .. }
        | Command::CacheInstall { .. }
        | Command::CacheInvalidate { .. } => Family::Cache,
        Command::PutInstall { .. } | Command::WriteBack { .. } | Command::NvmDemote { .. } => {
            Family::Write
        }
        _ => Family::Other,
    }
}

/// What replaying one shard's journal measured.
#[derive(Debug, Default)]
pub struct StepCosts {
    /// ns inside `step`, timed-phase commands only, by family (indexed
    /// as `Family as usize`).
    pub family_ns: [f64; 6],
    /// Timed-phase commands.
    pub cmds: u64,
    /// ns inside `step` over the whole journal, and its length.
    pub all_ns: f64,
    pub all_cmds: u64,
    pub poll_fds: u64,
    pub put_installs: u64,
    pub put_install_ns: f64,
    pub hash_match: bool,
    pub state_hash_ms: f64,
    pub snapshot_ms: f64,
}

/// Replays one shard's journal twice on a fresh `KernelState`, each
/// time exactly as `iolite_core::replay` folds it (effects absorbed into
/// fresh `Metrics`, errors re-stepped).
///
/// The first pass reads the clock three times in all, so its totals are
/// what `step` really costs. The second reads it around every command —
/// which perturbs ~100 ns commands too much to trust the sum, but not
/// the *proportions* — and its per-family times are scaled to the first
/// pass's total. Commands before `timed_from` are set-up and warm-up:
/// stepped, not billed.
pub fn replay_steps(
    cost: CostModel,
    journal: &Journal,
    timed_from: usize,
    live: &(u64, Metrics),
    overhead_ns: f64,
) -> StepCosts {
    let mut c = StepCosts::default();
    let commands = journal.commands();
    let timed_from = timed_from.min(commands.len());
    let mut fx = Vec::new();

    // Pass 1: totals, and whether the replay reproduces the live run.
    let mut state = KernelState::new(cost, Policy::Gds);
    let mut metrics = Metrics::new();
    let mut fold = |cmds: &[Command]| {
        let t0 = Instant::now();
        for cmd in cmds {
            fx.clear();
            let _ = black_box(step(&mut state, cmd, &mut fx));
            for e in &fx {
                metrics.absorb(e);
            }
        }
        t0.elapsed().as_nanos() as f64
    };
    let warm_ns = fold(&commands[..timed_from]);
    let timed_ns = fold(&commands[timed_from..]);
    c.cmds = (commands.len() - timed_from) as u64;
    c.all_cmds = commands.len() as u64;
    c.all_ns = warm_ns + timed_ns;
    c.hash_match = state.state_hash() == live.0 && metrics == live.1;
    let ms = |f: &mut dyn FnMut()| {
        median_batches(|| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64() * 1e3
        })
    };
    c.state_hash_ms = ms(&mut || {
        black_box(state.state_hash());
    });
    c.snapshot_ms = ms(&mut || {
        black_box(state.snapshot());
    });
    drop(state);

    // Pass 2: proportions by command family.
    let mut state = KernelState::new(cost, Policy::Gds);
    let mut fx = Vec::new();
    let mut put_install_ns = 0.0;
    for (i, cmd) in commands.iter().enumerate() {
        fx.clear();
        let t0 = Instant::now();
        let _ = black_box(step(&mut state, cmd, &mut fx));
        let ns = (t0.elapsed().as_nanos() as f64 - overhead_ns).max(0.0);
        if i < timed_from {
            continue;
        }
        c.family_ns[family(cmd) as usize] += ns;
        match cmd {
            Command::Poll { fds, .. } => c.poll_fds += fds.len() as u64,
            Command::PutInstall { .. } => {
                c.put_installs += 1;
                put_install_ns += ns;
            }
            _ => {}
        }
    }
    let scale = timed_ns / c.family_ns.iter().sum::<f64>().max(1.0);
    c.family_ns.iter_mut().for_each(|ns| *ns *= scale);
    c.put_install_ns = put_install_ns * scale;
    c
}

/// `core.step.*`, `core.poll.*`, `core.replay.*`: replays the traced
/// repetition's journals under a `replay → step` span.
pub fn core_layer(
    spec: &TickSpec,
    traced: &RepResult,
    plain_serve_s: f64,
    overhead_ns: f64,
    trace: &mut Trace,
    parent: SpanId,
    out: &mut Values,
) {
    let span = trace.open("replay", parent);
    let costs: Vec<StepCosts> = traced
        .journals
        .iter()
        .zip(&traced.live)
        .zip(&traced.at_warm.journal_len)
        .map(|((journal, live), &from)| {
            trace.scope("step", span, || {
                replay_steps(engine::cost_model(spec), journal, from, live, overhead_ns)
            })
        })
        .collect();
    trace.close(span);
    let reqs = traced.timed_requests().max(1) as f64;
    let sum = |f: &dyn Fn(&StepCosts) -> f64| costs.iter().map(f).sum::<f64>();
    let total_ns = sum(&|c| c.family_ns.iter().sum());
    out.insert("core.step.total_s", total_ns / 1e9);
    out.insert("core.step.cmds_per_req", sum(&|c| c.cmds as f64) / reqs);
    for (name, fam) in [
        ("core.step.file_ns", Family::File),
        ("core.step.socket_ns", Family::Socket),
        ("core.step.poll_ns", Family::Poll),
        ("core.step.cache_ns", Family::Cache),
        ("core.step.write_ns", Family::Write),
        ("core.step.other_ns", Family::Other),
    ] {
        out.insert(name, sum(&|c| c.family_ns[fam as usize]) / reqs);
    }
    let puts = sum(&|c| c.put_installs as f64);
    out.insert(
        "core.step.put_install_us",
        if puts > 0.0 {
            sum(&|c| c.put_install_ns) / puts / 1e3
        } else {
            0.0
        },
    );
    out.insert(
        "core.poll.ns_per_fd",
        sum(&|c| c.family_ns[Family::Poll as usize]) / sum(&|c| c.poll_fds as f64).max(1.0),
    );
    out.insert(
        "core.replay.cmds_per_s",
        sum(&|c| c.all_cmds as f64) / (sum(&|c| c.all_ns) / 1e9).max(1e-9),
    );
    out.insert(
        "core.replay.state_hash_match",
        f64::from(u8::from(costs.iter().all(|c| c.hash_match))),
    );
    out.insert("core.state_hash_ms", sum(&|c| c.state_hash_ms));
    out.insert("core.snapshot_ms", sum(&|c| c.snapshot_ms));
    // What the shell, the effect fold and the event loop itself cost:
    // the share of the untraced serve wall that is not inside `step`.
    out.insert(
        "http.event_loop.self_share",
        1.0 - total_ns / 1e9 / plain_serve_s.max(1e-9),
    );
}

/// `storm.*`: the only external-wire, journal-always-on path. Returns
/// the contract violations (empty = clean).
fn storm_layer(
    seed: u64,
    seconds: f64,
    trace: &mut Trace,
    parent: SpanId,
    out: &mut Values,
) -> Vec<String> {
    let cfg = StormConfig {
        clients: ((1024.0 * seconds / crate::workloads::RUN_SECONDS) as usize).clamp(16, 1024),
        requests_per_client: 16,
        files: 64,
        ..StormConfig::hostile(seed)
    };
    let t0 = Instant::now();
    let report = trace.scope("storm", parent, || run_storm(&cfg));
    let wall = t0.elapsed().as_secs_f64().max(1e-9);
    out.insert(
        "storm.hostile.wall_req_per_s",
        report.completed() as f64 / wall,
    );
    out.insert(
        "storm.hostile.segments_per_s",
        report.wire.segments as f64 / wall,
    );
    let t0 = Instant::now();
    let replayed = trace.scope("storm.verify_replay", parent, || report.verify_replay());
    out.insert("storm.verify_replay_ms", t0.elapsed().as_secs_f64() * 1e3);
    let mut violations = report.violations.clone();
    if let Err(e) = replayed {
        violations.push(format!("storm replay: {e}"));
    }
    let scripted = (cfg.clients * cfg.requests_per_client) as u64;
    if report.completed() != scripted || report.failed() != 0 {
        violations.push(format!(
            "storm completed {} of {scripted} ({} failed)",
            report.completed(),
            report.failed()
        ));
    }
    violations
}

/// `http.sharded.threaded_speedup`: wall time of the threaded
/// `run_sharded` on one shard over two — informational only, it
/// measures the host scheduler as much as the program.
pub fn threaded_layer(
    spec: &TickSpec,
    inputs: &TickInputs,
    trace: &mut Trace,
    parent: SpanId,
    out: &mut Values,
) {
    let conns = || -> Vec<(u64, Vec<String>)> {
        inputs
            .conns
            .iter()
            .map(|(id, s)| (*id, inputs.script_strings(s)))
            .collect()
    };
    let mut wall = |shards: usize| {
        let cfg = ShardedConfig {
            shards,
            ownership: CacheOwnership::HomeOnly,
            cost: engine::cost_model(spec),
            policy: Policy::Gds,
            journal: false,
            loop_cfg: engine::loop_cfg(spec, false),
        };
        let scripts = conns();
        let t0 = Instant::now();
        let report = trace.scope("run_sharded", parent, || {
            run_sharded(
                &cfg,
                |k: &mut Kernel| engine::populate(k, spec, inputs),
                scripts,
            )
        });
        assert_eq!(report.failed(), 0, "threaded side-run failed requests");
        t0.elapsed().as_secs_f64()
    };
    let one = wall(1);
    let two = wall(2);
    out.insert("http.sharded.threaded_speedup", one / two.max(1e-9));
}

#[cfg(test)]
mod tests {
    use super::*;
    use iolite_core::Pid;

    #[test]
    fn commands_group_into_the_documented_families() {
        let pid = Pid(1);
        let fd = Fd(3);
        assert_eq!(
            family(&Command::Open {
                pid,
                path: "/a".into()
            }),
            Family::File
        );
        assert_eq!(family(&Command::CloseFd { pid, fd }), Family::File);
        assert_eq!(
            family(&Command::SocketDrain { pid, fd, max: 1 }),
            Family::Socket
        );
        assert_eq!(
            family(&Command::Poll {
                pid,
                fds: Vec::new()
            }),
            Family::Poll
        );
        assert_eq!(
            family(&Command::CachePin {
                key: CacheKey::whole(FileId(1))
            }),
            Family::Cache
        );
        assert_eq!(family(&Command::WriteBack { max_bytes: 0 }), Family::Write);
        assert_eq!(family(&Command::ResetClock), Family::Other);
    }
}
