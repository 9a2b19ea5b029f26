//! The storm engine: the real serving path driven over the adversarial
//! wire on simulated time.
//!
//! One [`run_storm`] call owns every shard's [`EventLoopServer`] (in
//! [`EventLoopConfig::external_wire`] mode) on a single host thread and
//! interleaves server ticks, fabric pumping, segment deliveries, ACKs,
//! retransmission timers, slowloris pacing beats, and client resets
//! through one [`EventQueue`] — the whole run is a deterministic
//! function of the [`StormConfig`].
//!
//! [`EventLoopConfig::external_wire`]: iolite_http::EventLoopConfig

use iolite_buf::{splitmix64, Aggregate, BufferPool};
use iolite_core::{
    replay, shard_of_conn, ConnId, CostModel, Journal, Kernel, KernelState, Metrics, Pid,
};
use iolite_fs::{CacheKey, Policy};
use iolite_http::{
    attach_fabric, parse_put_entry, put_request_bytes, request_bytes, run_round,
    synthetic_put_body, EventLoopConfig, EventLoopServer, LoopReport,
};
use iolite_net::{TcpReceiver, DEFAULT_MSS, DEFAULT_TSS};
use iolite_sim::{EventQueue, SimRng, SimTime};

use crate::config::StormConfig;
use crate::wire::WireSender;

/// Largest dribble segment a slowloris client puts on the wire.
const DRIBBLE_BYTES: u64 = 3;

/// Wire-level counters for one storm run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WireStats {
    /// Data segments put on the wire (both directions).
    pub segments: u64,
    /// Segments the wire dropped.
    pub lost: u64,
    /// Segments the wire duplicated.
    pub duplicated: u64,
    /// Segments that drew extra jitter delay (the reordering source).
    pub reordered: u64,
    /// Retransmission timer fires that rewound a sender.
    pub rto_fires: u64,
    /// ACKs put on the wire.
    pub acks: u64,
    /// ACKs the wire dropped.
    pub acks_lost: u64,
    /// Client resets injected.
    pub resets: u64,
    /// Reassembled request bytes the kernel refused because the peer
    /// had already closed — the retransmit-after-peer-close path.
    pub deliveries_rejected: u64,
}

/// The deterministic expansion of a [`StormConfig`]: corpus, scripts,
/// roles, connection ids. [`run_storm`] works from this, and
/// equivalence tests rebuild the identical clean-wire baseline from it.
#[derive(Debug, Clone)]
pub struct StormPlan {
    /// Corpus file sizes; file `i` is named `/f{i}`.
    pub file_sizes: Vec<u64>,
    /// Per-client request scripts.
    pub scripts: Vec<Vec<String>>,
    /// Which clients play slowloris.
    pub slow: Vec<bool>,
    /// Response-byte threshold after which a client resets, if any.
    pub reset_after: Vec<Option<u64>>,
    /// Per-client start times (µs) — connection churn staggering.
    pub start_us: Vec<u64>,
    /// Full-width connection ids (shard routing and pattern keys).
    pub conn_ids: Vec<u64>,
}

/// Expands `cfg` into its corpus, scripts, and client roles — the same
/// expansion [`run_storm`] performs, exposed so a test can drive the
/// identical workload over a clean internal wire for comparison.
pub fn plan(cfg: &StormConfig) -> StormPlan {
    let mut root = SimRng::new(cfg.seed);
    let mut corpus = root.fork(1);
    let file_sizes: Vec<u64> = (0..cfg.files)
        .map(|_| 512 + corpus.next_below(cfg.max_file_bytes.saturating_sub(511).max(1)))
        .collect();
    let mut scripts_rng = root.fork(2);
    let head = (cfg.files / 4).max(1);
    let scripts: Vec<Vec<String>> = (0..cfg.clients)
        .map(|_| {
            (0..cfg.requests_per_client)
                .map(|_| {
                    // The PUT draw is guarded so a zero rate makes no
                    // RNG call at all — read-only configs keep the
                    // exact draw sequence every pinned seed was
                    // minimized against.
                    if cfg.put > 0.0 && scripts_rng.chance(cfg.put) {
                        let f = scripts_rng.next_index(cfg.files);
                        let len = 1 + scripts_rng.next_below(cfg.max_put_bytes.max(1));
                        return format!("PUT /f{f} {len}");
                    }
                    // Half the requests hit a hot head, half the tail —
                    // the cache and checksum cache see both reuse and
                    // cold misses.
                    let f = if scripts_rng.chance(0.5) {
                        scripts_rng.next_index(head)
                    } else {
                        scripts_rng.next_index(cfg.files)
                    };
                    format!("/f{f}")
                })
                .collect()
        })
        .collect();
    let mut roles = root.fork(3);
    let slow: Vec<bool> = (0..cfg.clients)
        .map(|_| roles.chance(cfg.slowloris))
        .collect();
    let reset_after: Vec<Option<u64>> = (0..cfg.clients)
        .map(|_| {
            roles
                .chance(cfg.reset)
                .then(|| 1 + roles.next_below(cfg.max_file_bytes))
        })
        .collect();
    let start_us: Vec<u64> = (0..cfg.clients)
        .map(|_| {
            if roles.chance(cfg.churn) {
                // Late arrivals spread across a few thousand ticks:
                // connections come alive while others are mid-stream
                // (or already dead).
                roles.next_below(cfg.tick_us * 2_000 + 1)
            } else {
                0
            }
        })
        .collect();
    // Structured ids (stride 4096) — shard routing must spread them,
    // per the PR 5/PR 7 aliasing lesson.
    let conn_ids: Vec<u64> = (0..cfg.clients).map(|c| c as u64 * 4096).collect();
    StormPlan {
        file_sizes,
        scripts,
        slow,
        reset_after,
        start_us,
        conn_ids,
    }
}

/// The synthetic response-direction payload byte at stream offset
/// `seq` of connection `conn`. The kernel's socket send buffer models
/// occupancy, not contents, so the wire carries this deterministic
/// pattern instead; the client-side reassembly queue must reproduce it
/// byte-for-byte in order, which [`run_storm`] verifies on every
/// in-order delivery.
pub(crate) fn pattern_byte(conn: u64, seq: u64) -> u8 {
    (splitmix64(conn ^ (seq >> 3).wrapping_mul(0x9E37_79B9_7F4A_7C15)) >> ((seq & 7) * 8)) as u8
}

/// Everything a storm run produced, per shard plus wire-level totals.
pub struct StormReport {
    /// Per-shard loop reports (stats + completed requests).
    pub reports: Vec<LoopReport>,
    /// Per-shard kernels, post-run (journals already taken).
    pub kernels: Vec<Kernel>,
    /// Per-shard command journals (always recorded).
    pub journals: Vec<Journal>,
    /// Per-shard `state_hash()` at end of run.
    pub state_hashes: Vec<u64>,
    /// Per-shard kernel metrics at end of run.
    pub metrics: Vec<Metrics>,
    /// Connections hosted by each shard.
    pub conn_counts: Vec<usize>,
    /// Wire-level counters.
    pub wire: WireStats,
    /// Contract violations observed during the run (empty = clean).
    pub violations: Vec<String>,
    /// Simulated time at which the run quiesced.
    pub sim_time: SimTime,
    /// The cost model every shard ran under (replay needs it).
    pub cost: CostModel,
}

impl StormReport {
    /// Completed requests across the fleet.
    pub fn completed(&self) -> u64 {
        self.reports.iter().map(|r| r.stats.completed).sum()
    }

    /// Failed requests across the fleet.
    pub fn failed(&self) -> u64 {
        self.reports.iter().map(|r| r.stats.failed).sum()
    }

    /// Replays every shard's journal through the pure core and checks
    /// the reproduced state hashes and metrics against the live run.
    ///
    /// # Errors
    ///
    /// Returns a description of the first shard whose replay diverges.
    pub fn verify_replay(&self) -> Result<(), String> {
        for (s, journal) in self.journals.iter().enumerate() {
            let (state, metrics) = replay(KernelState::new(self.cost, Policy::Gds), journal);
            if state.state_hash() != self.state_hashes[s] {
                return Err(format!("shard {s}: replayed state hash diverges"));
            }
            if metrics != self.metrics[s] {
                return Err(format!("shard {s}: replayed metrics diverge"));
            }
        }
        Ok(())
    }
}

/// A storm event. All payload bytes are regenerated at delivery time
/// from stream positions, so events stay tiny.
#[derive(Debug, Clone, Copy)]
enum Ev {
    /// One server tick on every shard (plus fabric pumping), then a
    /// harvest of new response bytes and completions.
    Tick,
    /// Client `c` comes alive and issues its first request.
    Start { c: usize },
    /// A data segment arrives at its receiver.
    Seg {
        c: usize,
        dir: Dir,
        seq: u64,
        len: u64,
    },
    /// A cumulative ACK arrives back at its sender.
    Ack { c: usize, dir: Dir, ack: u64 },
    /// A retransmission timer fires (stale unless `epoch` is live).
    Rto { c: usize, dir: Dir, epoch: u64 },
    /// Slowloris pacing beat: put a few more request bytes on the wire.
    Dribble { c: usize },
    /// Slowloris consumption beat: consume (and ACK) response bytes.
    Consume { c: usize },
    /// Client `c` resets the connection (FIN/RST mid-response).
    Reset { c: usize },
}

/// Which way a segment is traveling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Dir {
    /// Client → server: real request bytes.
    Req,
    /// Server → client: response bytes in sequence space.
    Resp,
}

/// One client connection's wire state, both directions.
struct Client {
    shard: usize,
    /// Connection index within its shard's server.
    idx: usize,
    /// Pattern key (the full-width conn id).
    key: u64,
    script: Vec<String>,
    slow: bool,
    reset_after: Option<u64>,
    alive: bool,
    started: bool,
    /// Requests begun so far.
    next_req: usize,
    /// Responses the server has finished for this connection.
    completed: usize,
    /// Sum of finished responses' lengths (server-side truth).
    resp_expected: u64,
    // Client → server.
    req_stream: Vec<u8>,
    req_tx: WireSender,
    /// Server-side reassembly of request bytes — the real
    /// `iolite_net` reorder queue under fire.
    req_rx: TcpReceiver,
    dribbling: bool,
    // Server → client.
    resp_tx: WireSender,
    /// Client-side reassembly of the response pattern stream.
    resp_rx: TcpReceiver,
    /// In-order response bytes received and verified.
    resp_read: u64,
    /// Bytes consumed → cumulatively ACKed (lags `resp_read` for
    /// slowloris clients; equal otherwise).
    resp_consumed: u64,
    consuming: bool,
    /// Bytes acknowledged into `socket_drain` at the server.
    resp_drained: u64,
    reset_pending: bool,
}

/// The engine: servers, clients, queue, fault RNG.
struct Storm {
    cfg: StormConfig,
    q: EventQueue<Ev>,
    faults: SimRng,
    servers: Vec<EventLoopServer>,
    pids: Vec<Pid>,
    pools: Vec<BufferPool>,
    clients: Vec<Client>,
    /// `conn_map[s][i]` = client owning shard `s`'s connection `i`.
    conn_map: Vec<Vec<usize>>,
    /// Per-shard count of completion records already harvested.
    seen: Vec<usize>,
    /// Server ticks taken so far (liveness backstop).
    ticks: u64,
    wire: WireStats,
    violations: Vec<String>,
}

fn us(v: u64) -> SimTime {
    SimTime::from_us(v as f64)
}

/// Runs one storm to quiescence. Same `cfg` ⇒ bit-identical
/// [`StormReport`] (state hashes, metrics, stats, wire counters).
///
/// # Panics
///
/// Panics if a server's state machine wedges past
/// [`StormConfig::max_ticks`] — by construction a bug, and the panic
/// (with the seed) is the minimized reproducer.
pub fn run_storm(cfg: &StormConfig) -> StormReport {
    let plan = plan(cfg);
    let cost = CostModel::pentium_ii_333();
    let loop_cfg = EventLoopConfig {
        capture_responses: cfg.capture_responses,
        external_wire: true,
        ..EventLoopConfig::default()
    };

    // Partition clients onto shards by mixed full-width conn id.
    let mut shard_scripts: Vec<Vec<Vec<String>>> = vec![Vec::new(); cfg.shards];
    let mut conn_map: Vec<Vec<usize>> = vec![Vec::new(); cfg.shards];
    let mut placement = Vec::with_capacity(cfg.clients);
    for c in 0..cfg.clients {
        let s = shard_of_conn(ConnId(plan.conn_ids[c]), cfg.shards);
        placement.push((s, shard_scripts[s].len()));
        shard_scripts[s].push(plan.scripts[c].clone());
        conn_map[s].push(c);
    }

    // Every shard gets an identical corpus (same creation order, so
    // FileIds agree fleet-wide), journaled from the first command.
    let mut servers = Vec::with_capacity(cfg.shards);
    let mut pids = Vec::with_capacity(cfg.shards);
    let mut pools = Vec::with_capacity(cfg.shards);
    for scripts in shard_scripts {
        let mut kernel = Kernel::with_policy(cost, Policy::Gds);
        kernel.start_journal();
        let pid = kernel.spawn("storm-server");
        for (i, bytes) in plan.file_sizes.iter().enumerate() {
            kernel.create_synthetic_file(&format!("/f{i}"), *bytes, i as u64);
        }
        let server = EventLoopServer::new(kernel, pid, scripts, None, loop_cfg);
        pools.push(server.kernel().process(pid).pool().clone());
        pids.push(pid);
        servers.push(server);
    }

    attach_fabric(&mut servers);

    let mut root = SimRng::new(cfg.seed);
    let faults = root.fork(4);
    let mss = DEFAULT_MSS as u64;
    let clients: Vec<Client> = (0..cfg.clients)
        .map(|c| {
            let (shard, idx) = placement[c];
            Client {
                shard,
                idx,
                key: plan.conn_ids[c].wrapping_add(1),
                script: plan.scripts[c].clone(),
                slow: plan.slow[c],
                reset_after: plan.reset_after[c],
                alive: true,
                started: false,
                next_req: 0,
                completed: 0,
                resp_expected: 0,
                req_stream: Vec::new(),
                req_tx: WireSender::new(mss, cfg.wire_window),
                req_rx: TcpReceiver::new(0),
                dribbling: false,
                resp_tx: WireSender::new(mss, cfg.wire_window.min(DEFAULT_TSS as u64)),
                resp_rx: TcpReceiver::new(0),
                resp_read: 0,
                resp_consumed: 0,
                consuming: false,
                resp_drained: 0,
                reset_pending: false,
            }
        })
        .collect();

    let mut storm = Storm {
        cfg: *cfg,
        q: EventQueue::new(),
        faults,
        servers,
        pids,
        pools,
        clients,
        conn_map,
        seen: vec![0; cfg.shards],
        ticks: 0,
        wire: WireStats::default(),
        violations: Vec::new(),
    };
    storm.q.schedule(SimTime::ZERO, Ev::Tick);
    for c in 0..storm.clients.len() {
        storm.q.schedule(us(plan.start_us[c]), Ev::Start { c });
    }
    while let Some((_, ev)) = storm.q.pop() {
        storm.handle(ev);
    }
    storm.finish(cost)
}

impl Storm {
    fn handle(&mut self, ev: Ev) {
        match ev {
            Ev::Tick => self.on_tick(),
            Ev::Start { c } => self.on_start(c),
            Ev::Seg { c, dir, seq, len } => self.on_segment(c, dir, seq, len),
            Ev::Ack { c, dir, ack } => self.on_ack(c, dir, ack),
            Ev::Rto { c, dir, epoch } => self.on_rto(c, dir, epoch),
            Ev::Dribble { c } => self.on_dribble(c),
            Ev::Consume { c } => self.on_consume(c),
            Ev::Reset { c } => self.on_reset(c),
        }
    }

    fn all_done(&self) -> bool {
        self.servers.iter().all(EventLoopServer::is_done)
    }

    fn on_tick(&mut self) {
        self.ticks += 1;
        if self.ticks > self.cfg.max_ticks {
            // Wedged: some connection can make no progress. Record the
            // full picture, kill every client so outstanding timer and
            // pacing chains die, and stop ticking — the run then drains
            // and reports instead of hanging.
            self.violations.push(format!(
                "wedged after {} ticks: {}",
                self.cfg.max_ticks,
                self.diagnose()
            ));
            for c in 0..self.clients.len() {
                self.clients[c].alive = false;
                self.clients[c].req_tx.disarm();
                self.clients[c].resp_tx.disarm();
            }
            return;
        }
        run_round(&mut self.servers);
        self.harvest();
        if !self.all_done() {
            let dt = self.cfg.tick_us;
            self.q.schedule_after(us(dt), Ev::Tick);
        }
    }

    /// Post-tick bookkeeping: new completions, newly queued response
    /// bytes, retired connections, and next-request triggers.
    fn harvest(&mut self) {
        for s in 0..self.servers.len() {
            loop {
                let (conn, bytes) = {
                    let reqs = self.servers[s].completed_requests();
                    if self.seen[s] >= reqs.len() {
                        break;
                    }
                    let e = &reqs[self.seen[s]];
                    (e.conn, e.bytes)
                };
                self.seen[s] += 1;
                let c = self.conn_map[s][conn];
                self.clients[c].completed += 1;
                self.clients[c].resp_expected += bytes;
            }
        }
        for c in 0..self.clients.len() {
            let (s, idx) = (self.clients[c].shard, self.clients[c].idx);
            if self.servers[s].conn_done(idx) {
                // Retired (script exhausted or failed): kill timers so
                // no retransmission chain outlives the connection.
                self.clients[c].req_tx.disarm();
                self.clients[c].resp_tx.disarm();
                continue;
            }
            if !self.clients[c].started || !self.clients[c].alive {
                continue;
            }
            // New response bytes entered the send buffer this tick:
            // they go on the wire as segments.
            let pid = self.pids[s];
            let sock = self.servers[s].sock(idx);
            let unacked = self.servers[s]
                .kernel()
                .socket_unacked(pid, sock)
                .unwrap_or(0);
            let w = self.clients[c].resp_drained + unacked;
            if w > self.clients[c].resp_tx.offered() {
                self.clients[c].resp_tx.offer(w);
                self.emit(c, Dir::Resp);
            }
            // Closed loop: the next request goes out once the previous
            // response is finished at the server *and* fully received
            // at the client.
            let cl = &self.clients[c];
            if cl.next_req < cl.script.len()
                && cl.completed == cl.next_req
                && cl.resp_read == cl.resp_expected
                && cl.req_tx.done()
            {
                self.begin_request(c);
            }
        }
    }

    /// One line per unfinished connection: where it is stuck.
    fn diagnose(&self) -> String {
        let mut out = Vec::new();
        for (c, cl) in self.clients.iter().enumerate() {
            if self.servers[cl.shard].conn_done(cl.idx) {
                continue;
            }
            out.push(format!(
                "client {c} (shard {s}): started={} alive={} reqs {}/{} done {} \
                 req_tx(off={},acked={},unsent={}) resp exp={} read={} consumed={} \
                 resp_tx(off={},acked={}) drained={}",
                cl.started,
                cl.alive,
                cl.next_req,
                cl.script.len(),
                cl.completed,
                cl.req_tx.offered(),
                cl.req_tx.acked(),
                cl.req_tx.unsent(),
                cl.resp_expected,
                cl.resp_read,
                cl.resp_consumed,
                cl.resp_tx.offered(),
                cl.resp_tx.acked(),
                cl.resp_drained,
                s = cl.shard,
            ));
        }
        out.join("; ")
    }

    fn on_start(&mut self, c: usize) {
        if !self.clients[c].alive {
            return;
        }
        self.clients[c].started = true;
        self.begin_request(c);
    }

    fn begin_request(&mut self, c: usize) {
        let path = self.clients[c].script[self.clients[c].next_req].clone();
        self.clients[c].next_req += 1;
        // A `"PUT <path> <len>"` entry uploads the deterministic body;
        // anything else is a GET — the same encoding the event loop's
        // internal injection uses.
        let bytes = match parse_put_entry(&path) {
            Some((p, len)) => put_request_bytes(p, &synthetic_put_body(p, len), true),
            None => request_bytes(&path, true),
        };
        self.clients[c].req_stream.extend_from_slice(&bytes);
        let total = self.clients[c].req_stream.len() as u64;
        self.clients[c].req_tx.offer(total);
        if self.clients[c].slow {
            self.ensure_dribble(c);
        } else {
            self.emit(c, Dir::Req);
        }
    }

    /// Puts every currently sendable segment of `c`'s `dir` stream on
    /// the wire and (re)arms the retransmission timer.
    fn emit(&mut self, c: usize, dir: Dir) {
        loop {
            let seg = match dir {
                Dir::Req => self.clients[c].req_tx.next_segment(),
                Dir::Resp => self.clients[c].resp_tx.next_segment(),
            };
            let Some((seq, len)) = seg else { break };
            self.launch(c, dir, seq, len);
        }
        self.arm_rto(c, dir);
    }

    fn arm_rto(&mut self, c: usize, dir: Dir) {
        let rto = self.rto_us();
        let tx = match dir {
            Dir::Req => &mut self.clients[c].req_tx,
            Dir::Resp => &mut self.clients[c].resp_tx,
        };
        if tx.in_flight() == 0 {
            tx.disarm();
            return;
        }
        let epoch = tx.arm();
        self.q.schedule_after(us(rto), Ev::Rto { c, dir, epoch });
    }

    fn rto_us(&self) -> u64 {
        (2 * self.cfg.rtt_us + self.cfg.jitter_us).max(8 * self.cfg.tick_us)
    }

    /// One segment enters the wire: loss, duplication, and jitter are
    /// decided here, delivery is a scheduled [`Ev::Seg`].
    fn launch(&mut self, c: usize, dir: Dir, seq: u64, len: u64) {
        self.wire.segments += 1;
        let owd = self.cfg.rtt_us / 2;
        if self.faults.chance(self.cfg.loss) {
            self.wire.lost += 1;
        } else {
            let mut delay = owd;
            if self.cfg.jitter_us > 0 && self.faults.chance(self.cfg.reorder) {
                self.wire.reordered += 1;
                delay += self.faults.next_below(self.cfg.jitter_us + 1);
            }
            self.q
                .schedule_after(us(delay), Ev::Seg { c, dir, seq, len });
        }
        if self.faults.chance(self.cfg.dup) {
            self.wire.duplicated += 1;
            let delay = owd + self.faults.next_below(self.cfg.jitter_us + 1);
            self.q
                .schedule_after(us(delay), Ev::Seg { c, dir, seq, len });
        }
    }

    /// A cumulative ACK enters the wire back toward the sender.
    fn send_ack(&mut self, c: usize, dir: Dir, ack: u64) {
        self.wire.acks += 1;
        if self.faults.chance(self.cfg.loss) {
            self.wire.acks_lost += 1;
            return;
        }
        let mut delay = self.cfg.rtt_us / 2;
        if self.cfg.jitter_us > 0 && self.faults.chance(self.cfg.reorder) {
            delay += self.faults.next_below(self.cfg.jitter_us + 1);
        }
        self.q.schedule_after(us(delay), Ev::Ack { c, dir, ack });
    }

    fn on_segment(&mut self, c: usize, dir: Dir, seq: u64, len: u64) {
        match dir {
            Dir::Req => self.on_request_segment(c, seq, len),
            Dir::Resp => self.on_response_segment(c, seq, len),
        }
    }

    /// Request bytes arrive at the server: through the real reassembly
    /// queue, then whatever became in-order is delivered to the kernel
    /// socket. Delivery to a peer-closed socket is refused by the
    /// kernel — the retransmit-after-peer-close case — and the wire
    /// absorbs the refusal.
    fn on_request_segment(&mut self, c: usize, seq: u64, len: u64) {
        let (s, idx) = (self.clients[c].shard, self.clients[c].idx);
        let end = (seq + len) as usize;
        if end > self.clients[c].req_stream.len() {
            self.violations
                .push(format!("client {c}: request segment past stream end"));
            return;
        }
        let payload = Aggregate::from_bytes(
            &self.pools[s],
            &self.clients[c].req_stream[seq as usize..end],
        );
        self.clients[c].req_rx.on_segment(seq, payload);
        if let Some(agg) = self.clients[c].req_rx.read_available() {
            let pid = self.pids[s];
            let sock = self.servers[s].sock(idx);
            if self.servers[s]
                .kernel_mut()
                .socket_deliver(pid, sock, agg)
                .is_err()
            {
                self.wire.deliveries_rejected += 1;
            }
        }
        let ack = self.clients[c].req_rx.next_seq();
        self.send_ack(c, Dir::Req, ack);
    }

    /// Response-pattern bytes arrive at the client: through the
    /// client-side reassembly queue; every in-order byte is verified
    /// against the pattern stream, consumption drives the cumulative
    /// ACK (paced, for slowloris clients).
    fn on_response_segment(&mut self, c: usize, seq: u64, len: u64) {
        if !self.clients[c].alive {
            return;
        }
        let key = self.clients[c].key;
        let bytes: Vec<u8> = (seq..seq + len).map(|s| pattern_byte(key, s)).collect();
        let payload = Aggregate::from_bytes(&self.pools[self.clients[c].shard], &bytes);
        self.clients[c].resp_rx.on_segment(seq, payload);
        if let Some(agg) = self.clients[c].resp_rx.read_available() {
            let got = agg.to_vec();
            let base = self.clients[c].resp_read;
            for (off, b) in got.iter().enumerate() {
                if *b != pattern_byte(key, base + off as u64) {
                    self.violations.push(format!(
                        "client {c}: response byte {} corrupted through reassembly",
                        base + off as u64
                    ));
                    break;
                }
            }
            self.clients[c].resp_read += got.len() as u64;
        }
        if let Some(at) = self.clients[c].reset_after {
            if !self.clients[c].reset_pending && self.clients[c].resp_read >= at {
                self.clients[c].reset_pending = true;
                let delay = 1 + self.faults.next_below(self.cfg.rtt_us.max(1));
                self.q.schedule_after(us(delay), Ev::Reset { c });
            }
        }
        if self.clients[c].slow {
            if self.clients[c].resp_consumed >= self.clients[c].resp_read {
                // Nothing left to consume, so no pacing beat will fire —
                // yet a segment arrived (a retransmission, meaning our
                // last ACK was lost). Re-ACK now, like TCP's dup-ACK on
                // every arrival, or the sender rewinds forever.
                let ack = self.clients[c].resp_consumed;
                self.send_ack(c, Dir::Resp, ack);
            } else {
                self.ensure_consume(c);
            }
        } else {
            self.clients[c].resp_consumed = self.clients[c].resp_read;
            let ack = self.clients[c].resp_consumed;
            self.send_ack(c, Dir::Resp, ack);
        }
    }

    fn on_ack(&mut self, c: usize, dir: Dir, ack: u64) {
        match dir {
            Dir::Req => {
                if self.clients[c].req_tx.on_ack(ack) {
                    if self.clients[c].alive && !self.clients[c].slow {
                        self.emit(c, Dir::Req);
                    } else {
                        self.arm_rto(c, Dir::Req);
                    }
                }
            }
            Dir::Resp => {
                if self.clients[c].resp_tx.on_ack(ack) {
                    // The wire acknowledged bytes: free the kernel send
                    // buffer so the server's next poll sees writability.
                    let newly = ack.saturating_sub(self.clients[c].resp_drained);
                    if newly > 0 {
                        let (s, idx) = (self.clients[c].shard, self.clients[c].idx);
                        let pid = self.pids[s];
                        let sock = self.servers[s].sock(idx);
                        // A reset connection's drain is refused by the
                        // kernel (dead peer) — ignored here, the
                        // server-side peer-close check fails the
                        // request on its own.
                        if let Ok(n) = self.servers[s].kernel_mut().socket_drain(pid, sock, newly) {
                            self.clients[c].resp_drained += n;
                            if n != newly {
                                self.violations.push(format!(
                                    "client {c}: wire acked {newly} bytes but only \
                                     {n} were in the send buffer"
                                ));
                            }
                        }
                    }
                    self.emit(c, Dir::Resp);
                }
            }
        }
    }

    fn on_rto(&mut self, c: usize, dir: Dir, epoch: u64) {
        let (s, idx) = (self.clients[c].shard, self.clients[c].idx);
        let retired = self.servers[s].conn_done(idx) || !self.clients[c].alive;
        let tx = match dir {
            Dir::Req => &mut self.clients[c].req_tx,
            Dir::Resp => &mut self.clients[c].resp_tx,
        };
        if !tx.timer_live(epoch) {
            return;
        }
        if retired || tx.in_flight() == 0 {
            tx.disarm();
            return;
        }
        self.wire.rto_fires += 1;
        tx.rewind();
        self.emit(c, dir);
    }

    fn on_dribble(&mut self, c: usize) {
        self.clients[c].dribbling = false;
        if !self.clients[c].alive {
            return;
        }
        if let Some((seq, len)) = self.clients[c].req_tx.next_segment_capped(DRIBBLE_BYTES) {
            self.launch(c, Dir::Req, seq, len);
            self.arm_rto(c, Dir::Req);
        }
        self.ensure_dribble(c);
    }

    fn ensure_dribble(&mut self, c: usize) {
        let cl = &mut self.clients[c];
        if cl.dribbling || cl.req_tx.unsent() == 0 {
            return;
        }
        cl.dribbling = true;
        let beat = self.cfg.slow_interval_us;
        self.q.schedule_after(us(beat), Ev::Dribble { c });
    }

    fn on_consume(&mut self, c: usize) {
        self.clients[c].consuming = false;
        if !self.clients[c].alive {
            return;
        }
        let target = self.clients[c].resp_read;
        if self.clients[c].resp_consumed < target {
            let next = (self.clients[c].resp_consumed + self.cfg.slow_chunk).min(target);
            self.clients[c].resp_consumed = next;
            self.send_ack(c, Dir::Resp, next);
        }
        if self.clients[c].resp_consumed < self.clients[c].resp_read {
            self.ensure_consume(c);
        }
    }

    fn ensure_consume(&mut self, c: usize) {
        let cl = &mut self.clients[c];
        if cl.consuming || cl.resp_consumed >= cl.resp_read {
            return;
        }
        cl.consuming = true;
        let beat = self.cfg.slow_interval_us;
        self.q.schedule_after(us(beat), Ev::Consume { c });
    }

    /// The client tears the connection down (FIN/RST). The server
    /// discovers it through its own paths: `epipe`/`eof` readiness
    /// while parsing or sending, the peer-closed check while draining.
    fn on_reset(&mut self, c: usize) {
        if !self.clients[c].alive {
            return;
        }
        self.clients[c].alive = false;
        self.wire.resets += 1;
        self.clients[c].req_tx.disarm();
        self.clients[c].resp_tx.disarm();
        let (s, idx) = (self.clients[c].shard, self.clients[c].idx);
        let pid = self.pids[s];
        let sock = self.servers[s].sock(idx);
        let _ = self.servers[s].kernel_mut().socket_peer_close(pid, sock);
    }

    /// Queue drained: collect reports, journals, hashes, and run the
    /// end-of-run contract checks.
    fn finish(mut self, cost: CostModel) -> StormReport {
        let sim_time = self.q.now();
        if !self.all_done() {
            self.violations
                .push("run quiesced with live connections".to_string());
        }
        let mut reports = Vec::new();
        let mut kernels = Vec::new();
        for server in self.servers {
            let (report, kernel) = server.into_report();
            reports.push(report);
            kernels.push(kernel);
        }
        let mut journals = Vec::new();
        let mut state_hashes = Vec::new();
        let mut metrics = Vec::new();
        for (s, kernel) in kernels.iter_mut().enumerate() {
            match kernel.take_journal() {
                Some(j) => journals.push(j),
                None => self
                    .violations
                    .push(format!("shard {s}: journal was not recording")),
            }
            state_hashes.push(kernel.state_hash());
            metrics.push(kernel.metrics.clone());
        }
        for (s, report) in reports.iter().enumerate() {
            if report.stats.blocked_io != 0 {
                self.violations.push(format!(
                    "shard {s}: blocked_io = {} (readiness discipline broken)",
                    report.stats.blocked_io
                ));
            }
        }
        // Pin hygiene: every transmission pin must be back at zero —
        // failed and reset connections included. And cache-vs-store
        // consistency: whatever the wire did to PUT bodies (loss,
        // duplication, reordering, mid-body resets), a cached entry
        // must hold exactly the authoritative bytes — a torn or
        // misassembled upload in the cache is corruption, dirty or not
        // (dirty entries match too: the install writes the store image
        // in the same step). And one owner per file: in a fleet only
        // a file's home shard reads, writes or caches it, so an entry
        // on any other shard is a violation in itself (a non-home
        // shard's store is a creation-time seed, which no cache entry
        // of its own could be checked against).
        for (s, kernel) in kernels.iter().enumerate() {
            for f in 0..self.cfg.files {
                let Some(file) = kernel.store.lookup(&format!("/f{f}")) else {
                    continue;
                };
                let key = CacheKey::whole(file);
                let pins = kernel.cache.pins(&key);
                if pins != 0 {
                    self.violations
                        .push(format!("shard {s}: /f{f} leaked {pins} cache pins"));
                }
                let Some(agg) = kernel.cache.peek(&key) else {
                    continue;
                };
                let home = iolite_fs::home_shard(file, kernels.len());
                let store_len = kernel.store.len(file).unwrap_or(0);
                let cached = agg.to_vec();
                let stored = kernel.store.read(file, 0, store_len).unwrap_or_default();
                if home != s {
                    self.violations
                        .push(format!("shard {s}: /f{f} cached off its home {home}"));
                } else if cached != stored {
                    self.violations.push(format!(
                        "shard {s}: /f{f} cache entry ({} bytes) diverges from \
                         its store image ({} bytes)",
                        cached.len(),
                        stored.len()
                    ));
                }
            }
        }
        StormReport {
            reports,
            kernels,
            journals,
            state_hashes,
            metrics,
            conn_counts: self.conn_map.iter().map(Vec::len).collect(),
            wire: self.wire,
            violations: self.violations,
            sim_time,
            cost,
        }
    }
}

/// Runs `seeds` through `mk`, returning the first seed whose run
/// reports violations (with their descriptions) — the campaign driver
/// CI uses; a failing seed is the minimized reproducer to land in
/// `tests/storm_regressions.rs`.
///
/// # Errors
///
/// The failing `(seed, violations)` pair, if any.
pub fn campaign(
    mk: impl Fn(u64) -> StormConfig,
    seeds: impl IntoIterator<Item = u64>,
) -> Result<(), (u64, Vec<String>)> {
    for seed in seeds {
        let report = run_storm(&mk(seed));
        if !report.violations.is_empty() {
            return Err((seed, report.violations));
        }
        if let Err(e) = report.verify_replay() {
            return Err((seed, vec![e]));
        }
    }
    Ok(())
}
