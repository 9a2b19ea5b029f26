//! The tick-driven engine: builds a (possibly sharded) fleet of
//! `EventLoopServer`s from a workload's inputs, drives `tick()` /
//! `pump_fabric()` itself from one thread, and measures everything
//! **from outside** — wall time around the public calls, counters from
//! the public stats.
//!
//! A multi-shard fleet runs as a single-thread pumped fleet
//! (`ShardFabric::new` + `attach_shard`, then tick every shard and pump
//! the fabric to quiescence, as `crates/storm` does), so the numbers
//! measure the program and not the host scheduler.

use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::time::Instant;

use iolite_core::{
    shard_of_conn, ConnId, CostModel, Journal, Kernel, Metrics, Pid, ShardFabric, ShardMsg,
};
use iolite_fs::{CacheStats, Policy, WritebackConfig};
use iolite_http::{
    created, response_header, EventLoopConfig, EventLoopServer, LoopStats, ShardContext,
};
use iolite_net::CksumCacheStats;
use iolite_sim::SimTime;
use iolite_vm::MemAccount;

use crate::span::{Span, SpanId, Trace};
use crate::stats;
use crate::workloads::{Entry, TickInputs, TickSpec, WARMUP_SHARE, WINDOWS};

/// Inbox headroom beyond the fleet-wide in-flight bound (mirrors
/// `iolite_http::sharded`).
const FABRIC_SLACK: usize = 8;

/// The machine every shard runs on: the paper's testbed with the
/// workload's RAM.
pub fn cost_model(spec: &TickSpec) -> CostModel {
    let mut cost = CostModel::pentium_ii_333();
    cost.ram_bytes = spec.ram_bytes;
    cost
}

/// Populates a fresh kernel with the workload's corpus; returns the
/// server pid. Deterministic, so every shard (and every replay) sees
/// identical `FileId`s. All mutations go through journaled commands.
pub fn populate(kernel: &mut Kernel, spec: &TickSpec, inputs: &TickInputs) -> Pid {
    let reserve = kernel.cost.server_reserve_bytes;
    kernel.mem_reserve(MemAccount::Server, reserve);
    if spec.writeback {
        kernel.set_writeback(WritebackConfig::default_tuning());
    }
    let pid = kernel.spawn("server");
    for f in inputs.workload.files() {
        kernel.create_synthetic_file(&f.name, f.bytes, inputs.file_seed ^ f.bytes);
    }
    pid
}

/// The event-loop configuration every tick workload uses.
pub fn loop_cfg(spec: &TickSpec, capture: bool) -> EventLoopConfig {
    EventLoopConfig {
        admission_limit: spec.admission_limit,
        capture_responses: capture,
        ..EventLoopConfig::default()
    }
}

/// A fleet of shards driven from one thread.
pub struct Fleet {
    pub servers: Vec<EventLoopServer>,
    /// `shard_conns[s][i]` is the index into `inputs.conns` of shard
    /// `s`'s `i`-th connection.
    pub shard_conns: Vec<Vec<usize>>,
    // Held so the fabric stays connected for the whole run.
    _senders: Vec<SyncSender<ShardMsg>>,
    _done: Option<(SyncSender<usize>, Receiver<usize>)>,
}

impl Fleet {
    /// Builds kernels, corpora and servers. `journal` starts each
    /// kernel's journal before its first command, so a replay from
    /// `KernelState::new` reproduces the run.
    pub fn build(spec: &TickSpec, inputs: &TickInputs, journal: bool, capture: bool) -> Fleet {
        let n = spec.shards;
        let mut scripts: Vec<Vec<Vec<String>>> = vec![Vec::new(); n];
        let mut shard_conns: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (i, (id, script)) in inputs.conns.iter().enumerate() {
            let s = shard_of_conn(ConnId(*id), n);
            scripts[s].push(inputs.script_strings(script));
            shard_conns[s].push(i);
        }
        let capacity = scripts
            .iter()
            .map(|s| match spec.admission_limit {
                0 => s.len(),
                limit => s.len().min(limit),
            })
            .sum::<usize>()
            + FABRIC_SLACK;
        let mut servers: Vec<EventLoopServer> = scripts
            .into_iter()
            .map(|scripts| {
                let mut kernel = Kernel::with_policy(cost_model(spec), Policy::Gds);
                if journal {
                    kernel.start_journal();
                }
                let pid = populate(&mut kernel, spec, inputs);
                EventLoopServer::new(kernel, pid, scripts, None, loop_cfg(spec, capture))
            })
            .collect();
        let (mut senders, mut done) = (Vec::new(), None);
        if n > 1 {
            let fabric = ShardFabric::new(n, capacity);
            let (done_tx, done_rx) = sync_channel(n);
            senders = fabric.senders;
            for (server, mailbox) in servers.iter_mut().zip(fabric.mailboxes) {
                server.attach_shard(ShardContext {
                    mailbox,
                    shards: n,
                    ownership: spec.ownership,
                    done_tx: done_tx.clone(),
                });
            }
            done = Some((done_tx, done_rx));
        }
        Fleet {
            servers,
            shard_conns,
            _senders: senders,
            _done: done,
        }
    }

    pub fn done(&self) -> bool {
        self.servers.iter().all(EventLoopServer::is_done)
    }

    /// Serves every script to its end, untimed.
    pub fn drive_to_end(&mut self) {
        let mut drv = Driver::new(self);
        while !self.done() {
            drv.round(self, None);
        }
    }

    fn sum(&self, f: impl Fn(&LoopStats) -> u64) -> u64 {
        self.servers.iter().map(|s| f(s.stats())).sum()
    }
}

/// Counter snapshot across the fleet at one instant.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    pub completed: u64,
    pub response_bytes: u64,
    pub cpu: Vec<SimTime>,
    pub metrics: Metrics,
    pub ticks: u64,
    pub poll_entries: u64,
    pub cache: CacheStats,
    pub cksum: CksumCacheStats,
    pub remote_reads: u64,
    pub put_bytes: u64,
    /// Per-shard journal length (0 when not journaling).
    pub journal_len: Vec<usize>,
}

impl Snapshot {
    fn take(fleet: &Fleet) -> Snapshot {
        let mut metrics = Metrics::new();
        let mut cache = CacheStats::default();
        let mut cksum = CksumCacheStats::default();
        for s in &fleet.servers {
            let k = s.kernel();
            metrics.merge(&k.metrics);
            let c = k.cache.stats();
            cache.hits += c.hits;
            cache.misses += c.misses;
            cache.evictions += c.evictions;
            cache.dirty_installs += c.dirty_installs;
            let ck = k.cksum.stats();
            cksum.hits += ck.hits;
            cksum.misses += ck.misses;
            cksum.invalidations += ck.invalidations;
        }
        Snapshot {
            completed: fleet.sum(|s| s.completed),
            response_bytes: fleet.sum(|s| s.response_bytes),
            cpu: fleet.servers.iter().map(|s| s.stats().cpu).collect(),
            metrics,
            ticks: fleet.sum(|s| s.ticks),
            poll_entries: fleet.sum(|s| s.poll_entries),
            cache,
            cksum,
            remote_reads: fleet.sum(|s| s.remote_reads),
            put_bytes: fleet.sum(|s| s.put_bytes),
            journal_len: fleet
                .servers
                .iter()
                .map(|s| s.kernel().journal().map_or(0, Journal::len))
                .collect(),
        }
    }
}

/// One equal-request window of the timed phase.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Window {
    /// The window ends with this round (rounds are counted from 1).
    pub end_round: usize,
    pub requests: u64,
    pub bytes: u64,
}

/// Wall time at the end of every round of a repetition: `at[i]` is
/// nanoseconds from the start of round 1 to the end of round `i`
/// (`at[0]` = 0).
pub struct Timeline {
    at: Vec<u64>,
}

impl Timeline {
    pub fn new(round_ns: &[u64]) -> Timeline {
        let mut at = Vec::with_capacity(round_ns.len() + 1);
        let mut t = 0;
        at.push(t);
        for ns in round_ns {
            t += ns;
            at.push(t);
        }
        Timeline { at }
    }

    /// The quiet composite of identical repetitions: every round takes
    /// as long as it did in the repetition that got through it fastest.
    ///
    /// Repetitions do bit-identical work at a fixed seed (the harness
    /// asserts it), so round `k` costs the program the same in each; a
    /// rendition that took longer was disturbed from outside — on this
    /// shared sandbox neighbours slow a run by 10-25 %, for anything
    /// from a millisecond to minutes, and only ever slow it. Taking the
    /// least-disturbed rendition of *every round* rejects that without
    /// hiding how the program's own speed changes through a run
    /// (`put_mix30` slows as it goes): each round still counts once.
    pub fn quietest(reps: &[&[u64]]) -> Timeline {
        Timeline::new(&stats::elementwise_min(reps))
    }

    /// Seconds from the end of round `a` to the end of round `b`.
    pub fn between_s(&self, a: usize, b: usize) -> f64 {
        (self.at[b] - self.at[a]) as f64 / 1e9
    }

    /// A completion's latency: the closed-loop client issued the
    /// request when its previous response completed.
    pub fn latency_ms(&self, c: Completion) -> f64 {
        (self.at[c.done as usize] - self.at[c.issued as usize]) as f64 / 1e6
    }
}

/// A timed request, as the rounds after which the harness saw the
/// connection's previous completion (`issued`; 0 = before round 1) and
/// this one (`done`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Completion {
    pub issued: u32,
    pub done: u32,
}

/// Everything one repetition measured.
pub struct RepResult {
    pub setup_s: f64,
    /// Wall nanoseconds of every round since the repetition's first
    /// (one round = tick every shard, pump the fabric, harvest).
    pub round_ns: Vec<u64>,
    /// Rounds spent before the timed phase.
    pub warm_rounds: usize,
    pub windows: Vec<Window>,
    /// Timed completions in harvest order.
    pub completions: Vec<Completion>,
    pub at_warm: Snapshot,
    pub at_end: Snapshot,
    pub max_inflight: u64,
    pub failed: u64,
    pub blocked_io: u64,
    pub scripted: u64,
    /// Messages `pump_fabric` handled in the timed phase.
    pub fabric_msgs: u64,
    /// Wall time inside `pump_fabric` in the timed phase (traced only).
    pub pump_ns: u64,
    /// Per-shard journals (when journaling).
    pub journals: Vec<Journal>,
    /// Per-shard live `state_hash` and metrics (when journaling).
    pub live: Vec<(u64, Metrics)>,
    /// Output check failures (empty = correct).
    pub errors: Vec<String>,
}

impl RepResult {
    pub fn timed_requests(&self) -> u64 {
        self.at_end.completed - self.at_warm.completed
    }

    /// Scripted requests that failed or never completed.
    pub fn missing(&self) -> u64 {
        self.failed + (self.scripted - self.at_end.completed)
    }

    /// The round with which the timed phase ends (its last completion).
    pub fn last_round(&self) -> usize {
        self.windows
            .last()
            .map_or(self.warm_rounds, |w| w.end_round)
    }

    /// This repetition's own timed wall time.
    pub fn serve_s(&self) -> f64 {
        Timeline::new(&self.round_ns).between_s(self.warm_rounds, self.last_round())
    }

    /// The paper's clock: timed completions per simulated CPU second,
    /// on the parallel makespan (largest per-shard CPU).
    pub fn sim_req_per_s(&self) -> f64 {
        let makespan = self
            .at_end
            .cpu
            .iter()
            .zip(&self.at_warm.cpu)
            .map(|(e, w)| e.saturating_sub(*w))
            .max()
            .unwrap_or(SimTime::ZERO);
        self.timed_requests() as f64 / makespan.as_secs().max(1e-12)
    }
}

/// How one repetition is instrumented.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// End-to-end measurement: tracing and journaling off.
    Plain,
    /// `Kernel::start_journal()` on, no spans.
    Journal,
    /// Journal on and a span around every `tick()` / `pump_fabric()`.
    Traced,
}

/// Where traced repetitions record.
pub struct TraceCtx<'a> {
    pub trace: &'a mut Trace,
    /// The span the repetition's phases hang under (`workload`).
    pub parent: SpanId,
}

/// Connections per shard whose requests get a `request[conn,seq]`
/// span: enough to read timelines off, bounded so a traced run's span
/// file stays a few MB.
const REQUEST_SPAN_CONNS: usize = 16;

/// Runs one repetition: untimed set-up and warm-up, then the timed
/// phase in `WINDOWS` equal-request windows, then the output checks.
pub fn run_rep(
    spec: &TickSpec,
    seed: u64,
    reqs_per_conn: u64,
    mode: Mode,
    mut tr: Option<TraceCtx<'_>>,
) -> RepResult {
    let t_setup = Instant::now();
    let sp = open(&mut tr, "setup.synth");
    let inputs = TickInputs::generate(spec, seed, reqs_per_conn);
    close(&mut tr, sp);
    let sp = open(&mut tr, "setup.kernel+server");
    let mut fleet = Fleet::build(spec, &inputs, mode != Mode::Plain, false);
    close(&mut tr, sp);

    let scripted = inputs.scripted();
    let warm_target = (scripted as f64 * WARMUP_SHARE) as u64;
    let mut drv = Driver::new(&fleet);

    let sp = open(&mut tr, "warmup");
    while drv.completed < warm_target && !fleet.done() {
        drv.round(&mut fleet, None);
    }
    close(&mut tr, sp);
    let at_warm = Snapshot::take(&fleet);
    let warm_rounds = drv.round_ns.len();
    let setup_s = t_setup.elapsed().as_secs_f64();

    // Timed phase.
    let serve_span = open(&mut tr, "serve");
    let ends: Vec<u64> = stats::window_ends(scripted - drv.completed, WINDOWS)
        .into_iter()
        .map(|e| e + drv.completed)
        .collect();
    drv.timed = true;
    drv.fabric_msgs = 0;
    let mut windows: Vec<Window> = Vec::with_capacity(ends.len());
    let (mut w_completed, mut w_bytes) = (drv.completed, drv.bytes);
    drv.resync();
    while !fleet.done() {
        let ctx = match (&mut tr, serve_span) {
            (Some(t), Some(serve)) if mode == Mode::Traced => {
                Some((&mut *t.trace, serve, t.parent))
            }
            _ => None,
        };
        drv.round(&mut fleet, ctx);
        while windows.len() < ends.len() && drv.completed >= ends[windows.len()] {
            windows.push(Window {
                end_round: drv.round_ns.len(),
                requests: drv.completed - w_completed,
                bytes: drv.bytes - w_bytes,
            });
            (w_completed, w_bytes) = (drv.completed, drv.bytes);
        }
    }
    close(&mut tr, serve_span);
    // Zero-request windows can only appear when --quick leaves fewer
    // timed requests than windows.
    windows.retain(|w| w.requests > 0);
    let at_end = Snapshot::take(&fleet);

    let mut res = RepResult {
        setup_s,
        round_ns: std::mem::take(&mut drv.round_ns),
        warm_rounds,
        windows,
        completions: std::mem::take(&mut drv.completions),
        at_warm,
        at_end,
        max_inflight: fleet
            .servers
            .iter()
            .map(|s| s.stats().max_inflight as u64)
            .sum(),
        failed: fleet.sum(|s| s.failed),
        blocked_io: fleet.sum(|s| s.blocked_io),
        scripted,
        fabric_msgs: drv.fabric_msgs,
        pump_ns: drv.pump_ns,
        journals: Vec::new(),
        live: Vec::new(),
        errors: Vec::new(),
    };
    check_outputs(&inputs, &mut res);
    if mode != Mode::Plain {
        for server in fleet.servers {
            let (_, mut kernel) = server.into_report();
            res.live.push((kernel.state_hash(), kernel.metrics.clone()));
            res.journals.push(kernel.take_journal().unwrap_or_default());
        }
    }
    res
}

fn open(tr: &mut Option<TraceCtx<'_>>, name: &'static str) -> Option<SpanId> {
    tr.as_mut().map(|t| t.trace.open(name, t.parent))
}

fn close(tr: &mut Option<TraceCtx<'_>>, span: Option<SpanId>) {
    if let (Some(t), Some(id)) = (tr.as_mut(), span) {
        t.trace.close(id);
    }
}

/// The harness's side of the loop: completions seen so far, and the
/// wall-clock bookkeeping that turns them into a timeline.
struct Driver {
    /// Completed requests harvested per shard.
    seen: Vec<usize>,
    /// `last_done[s][conn]`: the round after which the connection's
    /// previous completion was seen (0 = none yet).
    last_done: Vec<Vec<u32>>,
    epoch: Instant,
    /// When the previous round ended, ns since `epoch`.
    prev_end: u64,
    round_ns: Vec<u64>,
    completed: u64,
    bytes: u64,
    timed: bool,
    completions: Vec<Completion>,
    fabric_msgs: u64,
    pump_ns: u64,
    /// On the span-sampled connections: requests completed so far and
    /// when (trace clock) the latest did.
    conn_seq: Vec<[(u64, u64); REQUEST_SPAN_CONNS]>,
}

impl Driver {
    fn new(fleet: &Fleet) -> Driver {
        Driver {
            seen: vec![0; fleet.servers.len()],
            last_done: fleet
                .servers
                .iter()
                .map(|s| vec![0; s.conn_count()])
                .collect(),
            epoch: Instant::now(),
            prev_end: 0,
            round_ns: Vec::new(),
            completed: 0,
            bytes: 0,
            timed: false,
            completions: Vec::new(),
            fabric_msgs: 0,
            pump_ns: 0,
            conn_seq: vec![[(0, 0); REQUEST_SPAN_CONNS]; fleet.servers.len()],
        }
    }

    /// Restarts the round clock, so harness work done between two
    /// rounds (snapshots, span bookkeeping) is not billed to the next.
    fn resync(&mut self) {
        self.prev_end = self.epoch.elapsed().as_nanos() as u64;
    }

    /// One round: tick every shard, pump the fabric to quiescence,
    /// harvest completions. With a trace — `(trace, serve span,
    /// workload span)` — every `tick`/`pump` call gets a span under
    /// `serve`, and sampled requests a span under `workload`.
    fn round(&mut self, fleet: &mut Fleet, mut tr: Option<(&mut Trace, SpanId, SpanId)>) {
        let round = self.round_ns.len() as u64 + 1;
        // Runs one call into the server; when tracing, under a span
        // whose `seq` is what the call returned.
        let mut spanned = |name: &'static str, shard: usize, call: &mut dyn FnMut() -> usize| {
            let Some((trace, serve, _)) = tr.as_mut() else {
                return (call(), 0);
            };
            let start_ns = trace.now_ns();
            let n = call();
            let end_ns = trace.now_ns();
            trace.push(Span {
                name,
                start_ns,
                end_ns,
                parent: *serve,
                shard: shard as u32,
                id: round,
                seq: n as u64,
            });
            (n, end_ns - start_ns)
        };
        for (s, server) in fleet.servers.iter_mut().enumerate() {
            spanned("tick", s, &mut || {
                server.tick();
                0
            });
        }
        if fleet.servers.len() > 1 {
            loop {
                let mut handled = 0;
                for (s, server) in fleet.servers.iter_mut().enumerate() {
                    let (n, ns) = spanned("pump", s, &mut || server.pump_fabric());
                    handled += n;
                    self.pump_ns += ns;
                }
                if handled == 0 {
                    break;
                }
                self.fabric_msgs += handled as u64;
            }
        }
        let trace_now = tr.as_ref().map(|(trace, _, _)| trace.now_ns());
        for (s, server) in fleet.servers.iter().enumerate() {
            let reqs = server.completed_requests();
            for r in &reqs[self.seen[s]..] {
                self.completed += 1;
                self.bytes += r.bytes;
                let issued = std::mem::replace(&mut self.last_done[s][r.conn], round as u32);
                if self.timed {
                    self.completions.push(Completion {
                        issued,
                        done: round as u32,
                    });
                }
                if r.conn < REQUEST_SPAN_CONNS {
                    let (seq, last_ns) = &mut self.conn_seq[s][r.conn];
                    *seq += 1;
                    if let (Some((trace, _, workload)), Some(end_ns)) = (tr.as_mut(), trace_now) {
                        // The first traced completion only marks when
                        // the next request was issued.
                        if *last_ns > 0 {
                            trace.push(Span {
                                name: "request",
                                start_ns: *last_ns,
                                end_ns,
                                parent: *workload,
                                shard: s as u32,
                                id: r.conn as u64,
                                seq: *seq,
                            });
                        }
                        *last_ns = end_ns;
                    }
                }
            }
            self.seen[s] = reqs.len();
        }
        let now = self.epoch.elapsed().as_nanos() as u64;
        self.round_ns.push(now - self.prev_end);
        self.prev_end = now;
    }
}

/// Application bytes of a `200` carrying `len` body bytes.
pub fn response_len(len: u64) -> u64 {
    response_header(len, true).len() as u64 + len
}

/// The output checks every repetition must pass: nothing failed,
/// nothing blocked, every scripted request completed, and the response
/// and upload bytes match sums recomputed from corpus sizes without
/// consulting the server.
fn check_outputs(inputs: &TickInputs, res: &mut RepResult) {
    let mut err = |m: String| res.errors.push(m);
    if res.failed != 0 {
        err(format!("{} requests failed", res.failed));
    }
    if res.blocked_io != 0 {
        err(format!(
            "blocked_io = {} (the loop busy-spun)",
            res.blocked_io
        ));
    }
    if res.at_end.completed != res.scripted {
        err(format!(
            "completed {} of {} scripted requests",
            res.at_end.completed, res.scripted
        ));
    }
    // A GET is answered with header ++ document, a PUT (which replaces
    // a document with new bytes of the same length) with the fixed 201.
    let files = inputs.workload.files();
    let created_len = created(true).len() as u64;
    let expected: u64 = inputs
        .conns
        .iter()
        .flat_map(|(_, script)| script)
        .map(|e| match *e {
            Entry::Get { file } => response_len(files[file].bytes),
            Entry::Put { .. } => created_len,
        })
        .sum();
    if expected != res.at_end.response_bytes {
        err(format!(
            "response bytes {} != recomputed {expected}",
            res.at_end.response_bytes
        ));
    }
    let put_bytes: u64 = inputs
        .conns
        .iter()
        .flat_map(|(_, script)| script)
        .map(|e| match *e {
            Entry::Get { .. } => 0,
            Entry::Put { file } => files[file].bytes,
        })
        .sum();
    if put_bytes != res.at_end.put_bytes {
        err(format!(
            "ingested {} PUT bytes, scripts upload {put_bytes}",
            res.at_end.put_bytes
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{by_name, Kind};

    fn tick_spec(name: &str) -> TickSpec {
        match by_name(name).expect("workload exists").kind {
            Kind::Tick(spec) => spec,
            Kind::Paper { .. } => panic!("{name} is not tick-driven"),
        }
    }

    #[test]
    fn timeline_is_a_running_sum_of_rounds() {
        let t = Timeline::new(&[5, 7, 11]);
        assert_eq!(t.between_s(0, 3), 23e-9);
        assert_eq!(t.between_s(2, 3), 11e-9);
        assert_eq!(t.latency_ms(Completion { issued: 0, done: 2 }), 12e-6);
    }

    #[test]
    fn a_small_repetition_checks_out_and_repeats_exactly() {
        // Two shards, so ticks, pumps, remote reads and the harvest all run.
        let spec = TickSpec {
            conns: 64,
            ..tick_spec("shard2_home_only")
        };
        let a = run_rep(&spec, 7, 6, Mode::Plain, None);
        let b = run_rep(&spec, 7, 6, Mode::Plain, None);
        assert_eq!(a.errors, Vec::<String>::new());
        assert_eq!(a.at_end.completed, 64 * 6);
        assert_eq!(a.completions.len() as u64, a.timed_requests());
        assert_eq!(
            a.windows.iter().map(|w| w.requests).sum::<u64>(),
            a.timed_requests()
        );
        assert_eq!(a.windows.last().map(|w| w.end_round), Some(a.last_round()));
        assert!(
            a.at_end.remote_reads > 0,
            "HomeOnly on two shards crosses the fabric"
        );
        assert!(a
            .completions
            .iter()
            .all(|c| c.issued < c.done && c.done as usize <= a.round_ns.len()));
        // Identical work: the composite timeline depends on it.
        assert_eq!(
            (a.round_ns.len(), &a.windows, &a.completions),
            (b.round_ns.len(), &b.windows, &b.completions)
        );
        assert_eq!(a.sim_req_per_s().to_bits(), b.sim_req_per_s().to_bits());
    }

    #[test]
    fn a_journaled_put_repetition_hands_back_its_journal() {
        let spec = TickSpec {
            conns: 32,
            ..tick_spec("put_mix30")
        };
        let rep = run_rep(&spec, 3, 8, Mode::Journal, None);
        assert_eq!(rep.errors, Vec::<String>::new());
        assert!(rep.at_end.put_bytes > 0, "30% of the script uploads");
        assert_eq!(rep.journals.len(), 1);
        assert!(rep.journals[0].len() > rep.at_warm.journal_len[0]);
        assert_eq!(rep.live.len(), 1);
    }
}
