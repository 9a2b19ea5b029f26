//! The readiness-driven server: one process, N in-flight connections,
//! zero busy-waiting (§5/§6's event-driven architecture made real).
//!
//! [`crate::server::serve_static`] serves a request *whole* in one
//! synchronous call — fine for cost decomposition, but it cannot
//! interleave connections, which is exactly the regime where the
//! paper's servers live: Flash and Flash-Lite multiplex thousands of
//! nonblocking descriptors behind `select`. [`EventLoopServer`] is that
//! shape on the IO-Lite kernel: every client connection is a
//! **nonblocking** socket whose send buffer is bounded at Tss, each tick
//! issues **one `iol_poll`** over the sockets it waits on, and the loop
//! acts only on descriptors the kernel reported ready — an I/O call
//! returning [`IolError::WouldBlock`] is counted as a bug
//! ([`LoopStats::blocked_io`], asserted zero in the test suite).
//!
//! # One request record, one phase
//!
//! A connection is a request record — `path`, `keep_alive`, the
//! transmission `pin`, `cache_hit` — beside a phase that carries only
//! what that phase needs:
//!
//! | phase | holds | polls | leaves when |
//! |---|---|---|---|
//! | `Idle` | — | — | injection admits the next script entry |
//! | `Receiving` | bytes so far; a PUT's body span once the head parsed | readable | the parser sees the head terminator (GET, 404) or the declared body is in (PUT) |
//! | `PutWait` | — | — | the home shard acks the `RemoteWrite` |
//! | `CgiWait` | — | — | the CGI pipe frees up |
//! | `CgiStream` | bytes sent / received over the pipe | the pipe's two ends | the whole document crossed the pipe |
//! | `RemoteWait` | — | — | the home shard's `RemoteData` lands |
//! | `Sending` | the response, next slice to write | writable | every slice is written |
//! | `Draining` | byte count, captured bytes | — | the wire acknowledged everything |
//! | `Done` | — | — | never (script exhausted, or the peer died) |
//!
//! Every response — document, CGI output, 404, 201 — is framed by the
//! one `respond` (`head ++ body` by reference, exactly what
//! `serve_static` and `cgi` build, which the equivalence property
//! depends on) and leaves through `Sending` → `Draining`.
//!
//! **The pin rule.** The network references the cached document until
//! the response drains (§3.7). `open_static` takes that pin and records
//! it in the request record; `finish_request` and `fail_conn` — the only
//! two ways a request ends — are the only two places it is released.
//! Nothing else touches it, so no exit can leak or double-release one.
//!
//! Socket write windows are aligned to the response aggregate's slice
//! boundaries. A slice is never split mid-send, so the checksum cache
//! sees exactly the ⟨buffer, generation, range⟩ keys a whole-response
//! `IOL_write` would produce — the event loop is byte- *and*
//! checksum-cache-identical to sequential [`serve_static`], which the
//! `readiness` property suite pins down. CGI responses flow through the
//! ACL-carrying kernel pipe under the same readiness discipline, and a
//! peer hanging up mid-transfer fails that one request instead of
//! panicking the server.
//!
//! [`serve_static`]: crate::server::serve_static
// A bad request or a dead peer fails the connection, never the server
// (PR 5). Each `#[expect]` below is a site no request input reaches;
// `tests/contracts.rs` counts them.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::todo)]
#![deny(
    clippy::unimplemented,
    clippy::allow_attributes,
    clippy::allow_attributes_without_reason
)]

use std::collections::{HashMap, VecDeque};
use std::sync::mpsc::SyncSender;

use iolite_buf::{Aggregate, BufferPool};
use iolite_core::{
    short_ok, Charge, CostCategory, Fd, IolError, Kernel, Pid, Readiness, ShardMailbox, ShardMsg,
};
use iolite_fs::{home_shard, CacheKey, CacheOwnership, FileId};
use iolite_net::BufferMode;
use iolite_sim::SimTime;

use crate::cgi::CgiProcess;
use crate::message::{created_head, not_found, ok_head, parse_lines, request_head, Method};

/// Safety bound on the ticks of [`EventLoopServer::run`] and of a
/// sharded fleet's rounds; exceeding it panics with diagnostics (a
/// correctness bug would otherwise spin forever).
const MAX_TICKS: u64 = 10_000_000;

/// Tuning knobs for one event-loop run.
#[derive(Debug, Clone, Copy)]
pub struct EventLoopConfig {
    /// Send-buffer bytes the simulated wire acknowledges per connection
    /// per tick. Smaller values stretch responses over more ticks and
    /// deepen the multiplexing (more connections simultaneously
    /// mid-stream).
    pub drain_per_tick: u64,
    /// Record every completed response's exact bytes (equivalence
    /// tests; off for benchmarks).
    pub capture_responses: bool,
    /// Most connections simultaneously mid-request (0 = unlimited).
    /// Idle connections with script left wait their turn, bounding
    /// in-flight response memory at very large connection counts
    /// (2^18+ in the sharded sweep).
    pub admission_limit: usize,
    /// Hand the wire to an external driver (the storm harness). When
    /// set, the loop neither synthesizes request bytes at injection
    /// (the driver delivers whatever the adversarial wire reassembles,
    /// via [`iolite_core::Kernel::socket_deliver`]) nor auto-acks
    /// `drain_per_tick` bytes per tick (the driver calls
    /// [`iolite_core::Kernel::socket_drain`] as simulated ACKs arrive).
    /// Injection still pops one script entry per request — the script
    /// length is the request count a connection serves — and drains
    /// still complete when the send buffer empties.
    pub external_wire: bool,
}

impl Default for EventLoopConfig {
    fn default() -> Self {
        EventLoopConfig {
            drain_per_tick: 16 * 1024,
            capture_responses: false,
            admission_limit: 0,
            external_wire: false,
        }
    }
}

/// Counters describing one run of the loop.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LoopStats {
    /// Event-loop iterations.
    pub ticks: u64,
    /// `iol_poll` calls issued.
    pub polls: u64,
    /// Total descriptors scanned across all polls.
    pub poll_entries: u64,
    /// Requests served to completion (response fully acknowledged).
    pub completed: u64,
    /// Requests failed by a peer hang-up (pipe EPIPE, socket reset).
    pub failed: u64,
    /// I/O calls that returned `WouldBlock`. A readiness-driven loop
    /// acts only on ready descriptors, so this must stay **zero** —
    /// any other value means the loop busy-spun.
    pub blocked_io: u64,
    /// Most connections simultaneously mid-request at any tick.
    pub max_inflight: usize,
    /// Application response bytes across completed requests.
    pub response_bytes: u64,
    /// Completed requests whose document came from the file cache.
    pub cache_hits: u64,
    /// Fetches sent over the cross-shard fabric (sharded runs only).
    /// Single-flight: concurrent requests for the same remote file
    /// share one fetch, so this counts fabric traffic, not requests.
    pub remote_reads: u64,
    /// Requests that waited on a remote fetch (their own or a
    /// coalesced one) instead of being served locally.
    pub remote_waits: u64,
    /// Remote fetches the home shard served from *its* cache.
    pub remote_hits: u64,
    /// Completed PUT uploads (also counted in `completed`).
    pub puts: u64,
    /// Body bytes ingested across completed PUTs.
    pub put_bytes: u64,
    /// PUT bodies routed to their file's home shard over the fabric
    /// (sharded runs only).
    pub remote_writes: u64,
    /// Simulated CPU the server's kernel consumed since
    /// [`EventLoopServer::new`] — polls, syscalls, checksums, packet
    /// work, page mappings, parsing: the kernel's one ledger
    /// ([`iolite_core::Metrics::cpu`]) less its value at construction.
    /// Current as of the last `tick`, `pump_fabric` or report.
    pub cpu: SimTime,
}

/// One completed request's record.
#[derive(Debug, Clone)]
pub struct CompletedRequest {
    /// Connection index the request was served on.
    pub conn: usize,
    /// Requested path.
    pub path: String,
    /// Response bytes (header + body).
    pub bytes: u64,
    /// Whether the document came from the unified file cache.
    pub cache_hit: bool,
    /// The exact response bytes (only when
    /// [`EventLoopConfig::capture_responses`] is set).
    pub response: Option<Vec<u8>>,
}

/// The final report of a run.
#[derive(Debug)]
pub struct LoopReport {
    /// Counters for the run.
    pub stats: LoopStats,
    /// Completed requests in completion order.
    pub requests: Vec<CompletedRequest>,
}

/// Server-side poll results, tagged by connection index.
type ServerEvents = Vec<(usize, Readiness)>;

/// The active CGI transfer's poll results: (CGI write end readiness,
/// server read end readiness). `None` when no transfer is active.
type CgiEvents = Option<(Readiness, Readiness)>;

/// The request a connection is serving: its identity, kept beside the
/// phase so no phase change has to carry it along.
#[derive(Default)]
struct Req {
    path: String,
    keep_alive: bool,
    /// The cache entry the network references until the response
    /// drains. Taken by `open_static`; released by `finish_request` or
    /// `fail_conn`, and by nothing else (the module docs' pin rule).
    pin: Option<CacheKey>,
    cache_hit: bool,
}

/// What a connection is doing right now (the module docs' table).
enum Phase {
    /// No request in flight; the script decides what happens next.
    Idle,
    /// Accumulating request bytes by reference. `body` is `None` until
    /// the head parses; for a PUT it is then `(body_at, len)` — `len`
    /// body bytes must follow the head's end at `body_at`, and
    /// completion splits them out with pure slice arithmetic, the
    /// zero-copy ingest the write path is built around.
    Receiving {
        buf: Aggregate,
        body: Option<(u64, u64)>,
    },
    /// Waiting for the file's home shard to acknowledge a
    /// `RemoteWrite` (sharded runs only).
    PutWait,
    /// Waiting for the CGI pipe (one transfer at a time per process).
    CgiWait,
    /// This connection owns the CGI pipe: the CGI writes, we read.
    CgiStream { sent: u64, received: Aggregate },
    /// Waiting for the file's home shard to answer a `RemoteRead`
    /// (sharded runs only; at most one outstanding read per conn).
    RemoteWait,
    /// Streaming the response to the socket, window by window;
    /// `next_slice` is the next response slice to send (windows are
    /// slice-aligned).
    Sending {
        response: Aggregate,
        next_slice: usize,
    },
    /// All bytes written; waiting for the wire to acknowledge them.
    Draining {
        bytes: u64,
        captured: Option<Vec<u8>>,
    },
    /// Script exhausted (or the connection died).
    Done,
}

/// One client connection.
struct Conn {
    sock: Fd,
    phase: Phase,
    req: Req,
    /// Paths this client will request, in order (closed loop: the next
    /// one is issued as soon as the previous response completes).
    script: VecDeque<String>,
}

/// The readiness-driven server. See the module docs for the shape.
pub struct EventLoopServer {
    kernel: Kernel,
    pid: Pid,
    conns: Vec<Conn>,
    cgi: Option<CgiProcess>,
    /// Connection currently owning the CGI pipe, if any.
    cgi_owner: Option<usize>,
    /// Connections waiting their turn on the pipe.
    cgi_queue: VecDeque<usize>,
    cfg: EventLoopConfig,
    stats: LoopStats,
    /// The kernel's CPU ledger when the server was built (`stats.cpu`
    /// counts from here).
    cpu_base: SimTime,
    requests: Vec<CompletedRequest>,
    /// Cross-shard serving context; `None` outside sharded runs (and
    /// for single-shard fleets, which never route remotely).
    shard: Option<ShardContext>,
    /// Single-flight remote fetches: connections waiting for each
    /// in-flight remote file, in arrival order. The first waiter's
    /// arrival sent the `RemoteRead`; the entry is consumed by the
    /// matching `RemoteData`.
    remote_pending: HashMap<FileId, Vec<usize>>,
}

/// One shard's view of the fleet, attached via
/// [`EventLoopServer::attach_shard`] (the workspace's fleets do it
/// through [`crate::sharded::attach_fabric`]).
pub struct ShardContext {
    /// This shard's fabric endpoint (inbox + senders to every shard).
    pub mailbox: ShardMailbox,
    /// Fleet size.
    pub shards: usize,
    /// Kept for `perf/src/engine.rs`, which builds a context by hand:
    /// `HomeOnly` is the only policy, so nothing reads it.
    pub ownership: CacheOwnership,
    /// Kept for callers outside the workspace that build a context by
    /// hand; nothing in the workspace sends on it or reads it.
    pub done_tx: SyncSender<usize>,
}

/// Requests whose path starts with this prefix route to the CGI
/// process; everything else is a static file lookup.
pub const CGI_PREFIX: &str = "/cgi-bin/";

impl EventLoopServer {
    /// Builds a server multiplexing one nonblocking socket per script.
    /// `scripts[i]` is the request sequence client `i` issues
    /// closed-loop; files must already exist in the kernel (CGI paths
    /// — anything under [`CGI_PREFIX`] — need `cgi`).
    pub fn new(
        mut kernel: Kernel,
        pid: Pid,
        scripts: Vec<Vec<String>>,
        cgi: Option<CgiProcess>,
        cfg: EventLoopConfig,
    ) -> Self {
        let conns = scripts
            .into_iter()
            .map(|script| {
                let sock = kernel.socket_create(
                    pid,
                    BufferMode::ZeroCopy,
                    kernel.cost.mss,
                    kernel.cost.tss,
                );
                #[expect(clippy::expect_used, reason = "the socket was created just above")]
                kernel
                    .set_nonblocking(pid, sock, true)
                    .expect("fresh socket");
                Conn {
                    sock,
                    phase: Phase::Idle,
                    req: Req::default(),
                    script: script.into(),
                }
            })
            .collect();
        EventLoopServer {
            cpu_base: kernel.metrics.cpu(),
            kernel,
            pid,
            conns,
            cgi,
            cgi_owner: None,
            cgi_queue: VecDeque::new(),
            cfg,
            stats: LoopStats::default(),
            requests: Vec::new(),
            shard: None,
            remote_pending: HashMap::new(),
        }
    }

    /// The kernel (checksum-cache state, metrics) — primarily for the
    /// equivalence suite.
    pub fn kernel(&self) -> &Kernel {
        &self.kernel
    }

    /// Mutable kernel access (tests inject faults: peer closes,
    /// descriptor hang-ups).
    pub fn kernel_mut(&mut self) -> &mut Kernel {
        &mut self.kernel
    }

    /// A connection's socket descriptor (tests drive peer behaviour).
    pub fn sock(&self, conn: usize) -> Fd {
        self.conns[conn].sock
    }

    /// The server's pid (an external wire driver needs it for
    /// `socket_deliver`/`socket_drain` calls on the server's kernel).
    pub fn pid(&self) -> Pid {
        self.pid
    }

    /// Number of connections the server multiplexes.
    pub fn conn_count(&self) -> usize {
        self.conns.len()
    }

    /// Whether connection `i` has retired (script exhausted or failed).
    pub fn conn_done(&self, i: usize) -> bool {
        matches!(self.conns[i].phase, Phase::Done)
    }

    /// Counters so far (an external driver reads progress mid-run).
    pub fn stats(&self) -> &LoopStats {
        &self.stats
    }

    /// Requests completed so far, in completion order.
    pub fn completed_requests(&self) -> &[CompletedRequest] {
        &self.requests
    }

    /// Whether every connection has retired — the external driver's
    /// termination test (it owns the loop that [`run`](Self::run) would
    /// otherwise be).
    pub fn is_done(&self) -> bool {
        self.conns.iter().all(|c| matches!(c.phase, Phase::Done))
    }

    /// Finishes an externally driven run: the report and the kernel,
    /// exactly what [`run`](Self::run) returns.
    pub fn into_report(mut self) -> (LoopReport, Kernel) {
        self.sync_cpu();
        (
            LoopReport {
                stats: self.stats,
                requests: self.requests,
            },
            self.kernel,
        )
    }

    /// Installs a shard context. The fleet that holds this server then
    /// interleaves [`tick`](Self::tick) with
    /// [`pump_fabric`](Self::pump_fabric) on one thread in a fixed
    /// order ([`crate::sharded::run_round`]), so a run is a function of
    /// its inputs.
    ///
    /// The kernel's pools enter the shard's id namespace first (a
    /// journaled [`Kernel::id_namespace`]), so this shard's buffers can
    /// cross the fabric by reference without aliasing another shard's.
    pub fn attach_shard(&mut self, ctx: ShardContext) {
        self.kernel.id_namespace(ctx.mailbox.id);
        self.shard = Some(ctx);
    }

    /// Handles every cross-shard message already queued on this shard's
    /// inbox, nonblocking; returns how many were handled (0 without a
    /// shard context). A fleet alternates this with
    /// [`tick`](Self::tick) until it quiesces.
    pub fn pump_fabric(&mut self) -> usize {
        if self.shard.is_none() {
            return 0;
        }
        let mut handled = 0;
        while let Ok(msg) = self.shard_ctx().mailbox.inbox.try_recv() {
            handled += 1;
            self.handle_shard_msg(msg);
        }
        self.sync_cpu();
        handled
    }

    /// Brings `stats.cpu` up to the kernel's ledger.
    fn sync_cpu(&mut self) {
        self.stats.cpu = self.kernel.metrics.cpu() - self.cpu_base;
    }

    /// Runs the loop until every script is exhausted, returning the
    /// report and the kernel.
    ///
    /// # Panics
    ///
    /// Panics if `MAX_TICKS` (10 M) elapse first — a stuck state
    /// machine, by construction a bug.
    pub fn run(mut self) -> (LoopReport, Kernel) {
        while !self.is_done() {
            self.tick_checked();
        }
        self.into_report()
    }

    /// One tick under the `MAX_TICKS` backstop of [`run`](Self::run)
    /// and of [`crate::sharded::run_round`].
    pub(crate) fn tick_checked(&mut self) {
        self.tick();
        assert!(
            self.stats.ticks <= MAX_TICKS,
            "event loop stuck after {} ticks ({} completed, {} failed)",
            self.stats.ticks,
            self.stats.completed,
            self.stats.failed,
        );
    }

    /// Connections mid-request (neither idle nor retired).
    fn inflight(&self) -> usize {
        self.conns
            .iter()
            .filter(|c| !matches!(c.phase, Phase::Idle | Phase::Done))
            .count()
    }

    /// One event-loop iteration: inject, drain, poll once, dispatch.
    pub fn tick(&mut self) {
        self.stats.ticks += 1;
        self.inject_requests();
        self.drain_wires();
        let (server_events, cgi_events) = self.poll();
        self.dispatch(&server_events, cgi_events);
        self.tick_writeback();
        self.stats.max_inflight = self.stats.max_inflight.max(self.inflight());
        self.sync_cpu();
    }

    /// Background persistence between request events: when accumulated
    /// dirty bytes arm the threshold, one journaled flush batch runs
    /// (CAWL: entries coalesce, one disk positioning per batch with a
    /// disk share); independently, the NVM staging tier drains one
    /// chunk toward disk so it can absorb the next burst. Both are
    /// pure-state-read gated, so an all-clean cache costs nothing.
    fn tick_writeback(&mut self) {
        if self.kernel.writeback_due() {
            self.kernel.write_back(0);
        }
        if self.kernel.nvm_demote_due() {
            self.kernel.nvm_demote();
        }
    }

    /// Closed-loop clients: an idle connection with script left issues
    /// its next request (the harness playing the remote peer), subject
    /// to [`EventLoopConfig::admission_limit`].
    fn inject_requests(&mut self) {
        let limit = self.cfg.admission_limit;
        let mut inflight = if limit == 0 { 0 } else { self.inflight() };
        for i in 0..self.conns.len() {
            let conn = &mut self.conns[i];
            if !matches!(conn.phase, Phase::Idle) {
                continue;
            }
            if limit > 0 && inflight >= limit && !conn.script.is_empty() {
                continue;
            }
            let Some(entry) = conn.script.pop_front() else {
                conn.phase = Phase::Done;
                continue;
            };
            inflight += 1;
            conn.phase = Phase::Receiving {
                buf: Aggregate::empty(),
                body: None,
            };
            if self.cfg.external_wire {
                // The storm harness plays the remote peer: request
                // bytes arrive through the adversarial wire (segments →
                // reassembly → `socket_deliver`), possibly much later.
                // The connection just starts listening; the popped
                // entry only counts the request against the script.
                continue;
            }
            let sock = conn.sock;
            let agg = client_request(self.kernel.process(self.pid).pool(), &entry, true);
            // The peer hung up between requests: this client's
            // remaining script is unreachable — fail it, don't panic
            // the server.
            if self.kernel.socket_deliver(self.pid, sock, agg).is_err() {
                self.fail_conn(i);
            }
        }
    }

    /// The simulated wire acknowledges up to `drain_per_tick` bytes per
    /// connection, freeing send-buffer space (and completing drains). A
    /// drain error means the peer is gone — nothing will ever ACK the
    /// in-flight bytes, so the response fails rather than "completing"
    /// against a dead peer.
    fn drain_wires(&mut self) {
        for i in 0..self.conns.len() {
            let draining = match self.conns[i].phase {
                Phase::Sending { .. } => false,
                Phase::Draining { .. } => true,
                _ => continue,
            };
            let sock = self.conns[i].sock;
            let peer_gone = if self.cfg.external_wire {
                // The harness drains on ACK arrival; here we only watch
                // for a peer that died while bytes were in flight (its
                // ACKs will never come, so the drain check below would
                // otherwise wait forever).
                self.kernel
                    .socket_peer_closed(self.pid, sock)
                    .unwrap_or(true)
            } else {
                self.kernel
                    .socket_drain(self.pid, sock, self.cfg.drain_per_tick)
                    .is_err()
            };
            if peer_gone {
                self.fail_conn(i);
            } else if draining && self.kernel.socket_unacked(self.pid, sock) == Ok(0) {
                self.finish_request(i);
            }
        }
    }

    /// One `iol_poll` by `pid` over `fds`, counted.
    fn poll_fds(&mut self, pid: Pid, fds: &[Fd]) -> Vec<Readiness> {
        let events = self.kernel.iol_poll(pid, fds);
        self.stats.polls += 1;
        self.stats.poll_entries += fds.len() as u64;
        events
    }

    /// One `iol_poll` over every connection that waits on its socket,
    /// plus (when a CGI transfer is active) the CGI process's own poll
    /// of its write end — each protection domain runs its own event
    /// loop.
    fn poll(&mut self) -> (ServerEvents, CgiEvents) {
        let mut entries = Vec::new();
        let mut owners = Vec::new();
        for (i, conn) in self.conns.iter().enumerate() {
            if let Phase::Receiving { .. } | Phase::Sending { .. } = conn.phase {
                entries.push(conn.sock);
                owners.push(i);
            }
        }
        // An active CGI transfer adds the pipe's read end, last.
        let cgi = self
            .cgi
            .as_ref()
            .filter(|_| self.cgi_owner.is_some())
            .map(|cgi| (cgi.pid, cgi.write_fd(), cgi.server_read_fd()));
        if let Some((_, _, rfd)) = cgi {
            entries.push(rfd);
        }
        let mut rfd_ready = Readiness::PENDING;
        let mut server_events = Vec::with_capacity(owners.len());
        if !entries.is_empty() {
            let events = self.poll_fds(self.pid, &entries);
            if let (Some(_), Some(&last)) = (cgi, events.last()) {
                rfd_ready = last;
            }
            server_events = owners.into_iter().zip(events).collect();
        }
        // The CGI process polls its own write end.
        let cgi_events = cgi.map(|(cgi_pid, wfd, _)| {
            let events = self.poll_fds(cgi_pid, &[wfd]);
            (events[0], rfd_ready)
        });
        (server_events, cgi_events)
    }

    fn dispatch(&mut self, server_events: &ServerEvents, cgi_events: CgiEvents) {
        for &(i, ready) in server_events {
            match self.conns[i].phase {
                Phase::Receiving { .. } => self.advance_recv(i, ready),
                Phase::Sending { .. } => self.advance_send(i, ready),
                // The phase may have changed since the poll (e.g. a
                // fault injected by a test); skip stale events.
                _ => {}
            }
        }
        if let Some((wfd_ready, rfd_ready)) = cgi_events {
            self.advance_cgi(wfd_ready, rfd_ready);
        }
    }

    /// Receiving: read available request bytes, appended by reference.
    /// Until the head has parsed, ask the parser itself whether its
    /// terminator arrived — one scanner, so "has the header arrived"
    /// and "does it parse" cannot disagree — then route (static open,
    /// CGI queue, PUT body ingest, 404). Once a PUT's head has parsed,
    /// complete it when the declared body is in.
    fn advance_recv(&mut self, i: usize, ready: Readiness) {
        if ready.eof || ready.epipe {
            // Peer hung up before completing its request.
            return self.fail_conn(i);
        }
        if !ready.readable {
            return;
        }
        let conn = &mut self.conns[i];
        let chunk = match self.kernel.iol_read_fd(self.pid, conn.sock, u64::MAX) {
            Ok((chunk, _)) => chunk,
            Err(IolError::WouldBlock) => {
                self.stats.blocked_io += 1;
                return;
            }
            Err(_) => return self.fail_conn(i),
        };
        let Phase::Receiving { buf, body } = &mut conn.phase else {
            unreachable!("dispatch sends only Receiving connections here");
        };
        buf.append(&chunk);
        if body.is_some() {
            return self.try_complete_put(i);
        }
        let (parsed, Some(body_at)) = parse_lines(buf.chunks()) else {
            // No head terminator yet: keep listening.
            return;
        };
        // Request parse + per-request bookkeeping + the IOL API's extra
        // (the serve_static cost structure).
        let cost = &self.kernel.cost;
        let parse =
            Charge::us(cost.http_parse_us + cost.server_fixed_us + cost.iol_request_extra_us);
        self.kernel.charge(CostCategory::Request, parse);
        let Some(req) = parsed else {
            // Malformed request: a 404/400-style short response.
            conn.req.path = String::from("<bad-request>");
            return self.respond(i, &[not_found()], &Aggregate::empty());
        };
        conn.req.path = req.path;
        conn.req.keep_alive = req.keep_alive;
        match req.method {
            Method::Get if conn.req.path.starts_with(CGI_PREFIX) && self.cgi.is_some() => {
                // CGI dispatch: forward + wake the CGI process.
                let dispatch = Charge::us(self.kernel.cost.cgi_dispatch_us);
                self.kernel.charge(CostCategory::Request, dispatch);
                self.kernel.context_switch(2);
                if self.cgi_owner.is_none() {
                    self.cgi_owner = Some(i);
                    conn.phase = Phase::CgiStream {
                        sent: 0,
                        received: Aggregate::empty(),
                    };
                } else {
                    self.cgi_queue.push_back(i);
                    conn.phase = Phase::CgiWait;
                }
            }
            Method::Get => self.open_static(i),
            Method::Put => {
                *body = Some((body_at, req.content_length));
                // The first read may already have delivered the body.
                self.try_complete_put(i);
            }
            // POST parses, but no handler is mounted: the 404 route
            // answers (the body, if any, is left on the wire).
            Method::Post => self.respond(i, &[not_found()], &Aggregate::empty()),
        }
    }

    /// Completes a PUT whose declared body has fully arrived: the body
    /// is split out of the receive aggregate at the header boundary —
    /// pure slice arithmetic, the bytes never move — and installed.
    fn try_complete_put(&mut self, i: usize) {
        let Phase::Receiving {
            buf,
            body: Some((body_at, len)),
        } = &self.conns[i].phase
        else {
            return;
        };
        // `body_at` is an offset into `buf`, so the subtraction cannot
        // wrap — unlike `body_at + len`, whose `len` the client chose.
        if buf.len() - body_at < *len {
            return;
        }
        let Ok(body) = buf.range(*body_at, *len) else {
            // In bounds by the length check above; a breach means the
            // aggregate lied about its length — fail, don't panic.
            return self.fail_conn(i);
        };
        self.stats.put_bytes += body.len();
        if self.try_remote_write(i, &body) {
            return;
        }
        let path = &self.conns[i].req.path;
        let file = match self.kernel.store.lookup(path) {
            Some(file) => file,
            // A fleet cannot create a file: an id minted on one shard
            // names another file on the others, and its home would be
            // picked by that id. The GET route's 404 answers.
            None if self.shard.as_ref().is_some_and(|ctx| ctx.shards > 1) => {
                return self.respond(i, &[not_found()], &Aggregate::empty())
            }
            // First PUT to this path: create the (empty) file so an id
            // exists to install under.
            None => self.kernel.create_file(path, &[]),
        };
        self.kernel.put_install(self.pid, file, &body);
        self.respond_created(i);
    }

    /// Queues the short 201 response acknowledging a completed PUT.
    fn respond_created(&mut self, i: usize) {
        self.stats.puts += 1;
        let head = created_head(self.conns[i].req.keep_alive);
        self.respond(i, &head, &Aggregate::empty());
    }

    /// Frames `head ++ body` by reference — the head's parts copied
    /// into the server's IO-Lite pool, the body's slices appended
    /// untouched — and starts streaming it. Every route answers here.
    fn respond(&mut self, i: usize, head: &[&[u8]], body: &Aggregate) {
        let mut response = Aggregate::from_parts(self.kernel.process(self.pid).pool(), head);
        response.append(body);
        self.conns[i].phase = Phase::Sending {
            response,
            next_slice: 0,
        };
    }

    /// Static route: open by path, snapshot-read the document, pin the
    /// cache entry for the transmission, and answer `header ++ body`.
    /// In sharded runs a document homed elsewhere is fetched by message
    /// instead (see [`try_remote_route`](Self::try_remote_route)).
    fn open_static(&mut self, i: usize) {
        if self.try_remote_route(i) {
            return;
        }
        match self.snapshot_document(i) {
            Ok(Some((file, body, cache_hit))) => {
                // The network references the cached entry until the
                // response drains (§3.7) — same pin lifecycle as
                // serve_static.
                let key = CacheKey::whole(file);
                self.kernel.cache_pin(key);
                self.conns[i].req.pin = Some(key);
                self.conns[i].req.cache_hit = cache_hit;
                self.respond(i, &ok_head(body.len(), true, &mut [0; 20]), &body);
            }
            Ok(None) => self.respond(i, &[not_found()], &Aggregate::empty()),
            // A descriptor operation failed mid-snapshot: the request
            // cannot be answered, but the server lives on.
            Err(_) => self.fail_conn(i),
        }
    }

    /// Opens and snapshot-reads the document connection `i` asked for:
    /// `Ok(None)` when the path does not resolve (the 404 route
    /// answers), `Err` when a descriptor operation fails mid-snapshot.
    fn snapshot_document(
        &mut self,
        i: usize,
    ) -> Result<Option<(FileId, Aggregate, bool)>, IolError> {
        let Ok((file_fd, _)) = self.kernel.open(self.pid, &self.conns[i].req.path) else {
            return Ok(None);
        };
        let len = self.kernel.fd_len(self.pid, file_fd)?;
        let file = self.kernel.fd_file(self.pid, file_fd)?;
        let (body, rout) = self.kernel.iol_pread(self.pid, file_fd, 0, len)?;
        self.kernel.close_fd(self.pid, file_fd)?;
        Ok(Some((file, body, rout.cache_hit)))
    }

    /// Sending: write as many *whole response slices* as fit in the
    /// send buffer. Never splitting a slice keeps the checksum-cache
    /// keys identical to a whole-response write; a slice is at most one
    /// chunk (≤ Tss), so a fully drained buffer always fits the next
    /// one — progress is guaranteed without ever seeing `WouldBlock`.
    fn advance_send(&mut self, i: usize, ready: Readiness) {
        if ready.epipe {
            // The peer closed mid-response: fail this request.
            return self.fail_conn(i);
        }
        if !ready.writable {
            return;
        }
        let sock = self.conns[i].sock;
        let Ok(space) = self.kernel.socket_space(self.pid, sock) else {
            // The socket vanished between poll and dispatch (a test
            // injected a close): the response can never finish.
            return self.fail_conn(i);
        };
        let Phase::Sending {
            response,
            next_slice,
        } = &mut self.conns[i].phase
        else {
            unreachable!("dispatch sends only Sending connections here");
        };
        let next = (*next_slice < response.num_slices()).then(|| response.slice_at(*next_slice));
        if next.is_none_or(|s| s.len() as u64 > space) {
            // Writable, but not by a whole slice yet: let the wire
            // drain further. No window built, no syscall — no busy-spin.
            return;
        }
        let window = response.whole_slices(*next_slice, space);
        let take = window.num_slices();
        match self.kernel.iol_write_fd(self.pid, sock, &window) {
            Ok(_) => {}
            // Cannot happen: the window was sized to the space the
            // kernel reported. Counted so the suite can prove it.
            Err(IolError::WouldBlock | IolError::ShortIo { .. }) => {
                self.stats.blocked_io += 1;
                return;
            }
            Err(_) => return self.fail_conn(i),
        }
        *next_slice += take;
        if *next_slice == response.num_slices() {
            let captured = self.cfg.capture_responses.then(|| response.to_vec());
            self.conns[i].phase = Phase::Draining {
                bytes: response.len(),
                captured,
            };
        }
    }

    /// The active CGI transfer: the CGI process writes its document to
    /// the pipe when writable; the server drains the pipe when
    /// readable; a dead peer fails the request and hands the pipe to
    /// the next waiter.
    fn advance_cgi(&mut self, wfd_ready: Readiness, rfd_ready: Readiness) {
        // An owner without a CGI process cannot exist (ownership is
        // only assigned when `self.cgi` is set) — but if it did, there
        // would be nothing to advance.
        let (Some(owner), Some(cgi)) = (self.cgi_owner, &self.cgi) else {
            return;
        };
        let (cgi_pid, wfd, rfd) = (cgi.pid, cgi.write_fd(), cgi.server_read_fd());
        let doc_len = cgi.document().len();
        if rfd_ready.invalid || rfd_ready.eof {
            // The server-side read end vanished (or the pipe closed
            // under us): the transfer can never complete.
            return self.fail_cgi_owner();
        }
        let Phase::CgiStream { sent, received } = &mut self.conns[owner].phase else {
            unreachable!("cgi_owner always points at a CgiStream connection");
        };
        // Writer side (the CGI process's own loop).
        if wfd_ready.epipe && *sent < doc_len {
            // The server's read end is gone: EPIPE, request failed.
            return self.fail_cgi_owner();
        }
        if wfd_ready.writable && *sent < doc_len {
            let Ok(remaining) = cgi.document().range(*sent, doc_len - *sent) else {
                // `sent` ran past the document — unreachable by
                // construction, but failing the transfer beats a
                // panic.
                return self.fail_cgi_owner();
            };
            match short_ok(self.kernel.iol_write_fd(cgi_pid, wfd, &remaining)) {
                Ok(accepted) => *sent += accepted,
                Err(IolError::WouldBlock) => self.stats.blocked_io += 1,
                Err(_) => return self.fail_cgi_owner(),
            }
        }
        // Reader side (the server's loop).
        if rfd_ready.readable {
            match self.kernel.iol_read_fd(self.pid, rfd, u64::MAX) {
                Ok((chunk, _)) => received.append(&chunk),
                Err(IolError::WouldBlock) => self.stats.blocked_io += 1,
                Err(_) => return self.fail_cgi_owner(),
            }
        }
        // Transfer complete: answer the client and release the pipe.
        if received.len() == doc_len {
            let body = std::mem::take(received);
            self.respond(owner, &ok_head(doc_len, true, &mut [0; 20]), &body);
            self.release_cgi();
        }
    }

    /// The CGI transfer's peer died: fail the owning request, hand the
    /// pipe to the next waiter.
    fn fail_cgi_owner(&mut self) {
        let Some(owner) = self.cgi_owner else {
            return;
        };
        self.fail_conn(owner);
        self.release_cgi();
    }

    /// Hands CGI-pipe ownership to the next queued connection (the
    /// queue only ever holds `CgiWait` connections, which nothing can
    /// fail: they are neither polled nor drained).
    fn release_cgi(&mut self) {
        self.cgi_owner = self.cgi_queue.pop_front();
        if let Some(next) = self.cgi_owner {
            debug_assert!(matches!(self.conns[next].phase, Phase::CgiWait));
            self.conns[next].phase = Phase::CgiStream {
                sent: 0,
                received: Aggregate::empty(),
            };
        }
    }

    /// Records a completed request, releases its transmission pin, and
    /// returns the connection to the closed loop. With
    /// [`fail_conn`](Self::fail_conn), one of the two ways a request
    /// ends.
    fn finish_request(&mut self, i: usize) {
        let conn = &mut self.conns[i];
        let Phase::Draining { bytes, captured } = std::mem::replace(&mut conn.phase, Phase::Idle)
        else {
            unreachable!("only a fully written response finishes");
        };
        let req = std::mem::take(&mut conn.req);
        if let Some(key) = req.pin {
            self.kernel.cache_unpin(key);
        }
        self.stats.completed += 1;
        self.stats.response_bytes += bytes;
        self.stats.cache_hits += u64::from(req.cache_hit);
        self.requests.push(CompletedRequest {
            conn: i,
            path: req.path,
            bytes,
            cache_hit: req.cache_hit,
            response: captured,
        });
    }

    /// Fails the in-flight request on `i`, releases the transmission
    /// pin if it held one, and retires the connection (the peer is
    /// gone; the rest of its script is unreachable).
    fn fail_conn(&mut self, i: usize) {
        if let Some(key) = self.conns[i].req.pin.take() {
            self.kernel.cache_unpin(key);
        }
        self.stats.failed += 1;
        self.conns[i].phase = Phase::Done;
    }

    // ---- Sharded serving -------------------------------------------------
    //
    // The shared-nothing protocol: this shard's kernel is touched only
    // by this server; a document homed on another shard is fetched by a
    // `RemoteRead` message and the home's buffers come back by
    // reference (immutable, with fleet-unique identity). No lock on any
    // kernel or cache is ever taken on this path.

    /// The shard context. Only called from the sharded paths, all of
    /// which are reachable solely once
    /// [`attach_shard`](Self::attach_shard) installed the context.
    #[expect(clippy::expect_used, reason = "installed before any sharded path runs")]
    fn shard_ctx(&self) -> &ShardContext {
        self.shard
            .as_ref()
            .expect("attach_shard installs the context")
    }

    /// The file connection `i`'s request names and its home shard, when
    /// that home is *another* shard. `None` — serve or install locally
    /// — when this is not a sharded run, the fleet has one shard, the
    /// home shard is us, or the path does not resolve in this shard's
    /// namespace (the local 404 answers a GET or a PUT alike).
    fn remote_home(&self, i: usize) -> Option<(FileId, usize)> {
        let ctx = self.shard.as_ref().filter(|ctx| ctx.shards > 1)?;
        let file = self.kernel.store.lookup(&self.conns[i].req.path)?;
        let home = home_shard(file, ctx.shards);
        (home != ctx.mailbox.id).then_some((file, home))
    }

    /// Routes a static request for a remotely-homed document over the
    /// fabric, parking the connection in `RemoteWait`. Returns `false`
    /// when the request should be served locally (no remote home; see
    /// [`remote_home`](Self::remote_home)).
    fn try_remote_route(&mut self, i: usize) -> bool {
        let Some((file, home)) = self.remote_home(i) else {
            return false;
        };
        // Single-flight: only the first waiter for a file sends the
        // fetch; later arrivals park behind it (a thundering herd of
        // per-connection fetches for the Zipf head would otherwise
        // flood the fabric with duplicate copies).
        self.stats.remote_waits += 1;
        let waiters = self.remote_pending.entry(file).or_default();
        waiters.push(i);
        if waiters.len() == 1 {
            self.stats.remote_reads += 1;
            let mailbox = &self.shard_ctx().mailbox;
            mailbox.send(
                home,
                ShardMsg::RemoteRead {
                    from: mailbox.id,
                    file,
                },
            );
        }
        self.conns[i].phase = Phase::RemoteWait;
        true
    }

    /// Routes a PUT body for a remotely-homed file over the fabric,
    /// parking the connection in `PutWait` until the home shard's ack.
    /// Only the home shard ever writes a file, so writes serialize
    /// there without any cross-shard lock. Returns `false` when the
    /// write should be installed locally (no remote home; see
    /// [`remote_home`](Self::remote_home)).
    fn try_remote_write(&mut self, i: usize, body: &Aggregate) -> bool {
        let Some((file, home)) = self.remote_home(i) else {
            return false;
        };
        self.stats.remote_writes += 1;
        // The body crosses by reference; the home shard copies it into
        // its own pool and bills that copy (`serve_remote_write`).
        let ctx = self.shard_ctx();
        ctx.mailbox.send(
            home,
            ShardMsg::RemoteWrite {
                from: ctx.mailbox.id,
                token: i as u64,
                file,
                body: body.clone(),
            },
        );
        self.conns[i].phase = Phase::PutWait;
        true
    }

    /// Copies a remote write's body into this, the home, shard's pool,
    /// billed (and journaled) here, where the bytes land, since the
    /// app-side `pack` is invisible to the kernel. It is the fabric's
    /// only copy: a remote read never lands, its waiters send the
    /// home's buffers as they are.
    fn land_copied(&mut self, body: &Aggregate) -> Aggregate {
        let c = self.kernel.cost.copy(body.len());
        self.kernel.charge_copied(CostCategory::Copy, c, body.len());
        body.pack(self.kernel.process(self.pid).pool())
    }

    /// Home-shard side of a remote write: the body lands in this
    /// shard's pool (the writer's buffers carry the writer's ACL, so
    /// they never enter this cache by reference) and installs through
    /// this kernel's own journaled put path, then the ack releases the
    /// writer's connection.
    fn serve_remote_write(&mut self, from: usize, token: u64, file: FileId, body: &Aggregate) {
        let body = self.land_copied(body);
        self.kernel.put_install(self.pid, file, &body);
        self.shard_ctx()
            .mailbox
            .send(from, ShardMsg::RemoteWriteAck { token });
    }

    /// Handles one inbound cross-shard message.
    fn handle_shard_msg(&mut self, msg: ShardMsg) {
        match msg {
            ShardMsg::RemoteRead { from, file } => self.serve_remote_read(from, file),
            ShardMsg::RemoteData {
                file,
                body,
                home_hit,
            } => self.finish_remote(file, &body, home_hit),
            ShardMsg::RemoteWrite {
                from,
                token,
                file,
                body,
            } => self.serve_remote_write(from, token, file, &body),
            // Writer side: the home shard acknowledged the PUT; answer
            // the parked connection's client (unless the writer failed
            // while the ack was in flight).
            ShardMsg::RemoteWriteAck { token } => {
                let i = token as usize;
                if matches!(self.conns.get(i).map(|c| &c.phase), Some(Phase::PutWait)) {
                    self.respond_created(i);
                }
            }
        }
    }

    /// Home-shard side of a remote read: snapshot the document through
    /// this kernel's own (journaled) open/read path — the only disk
    /// read the fleet ever does for this file — then hand the buffers
    /// to the requester by reference.
    fn serve_remote_read(&mut self, from: usize, file: FileId) {
        let fd = self.kernel.open_file(self.pid, file);
        // The RemoteRead protocol has no failure reply: a snapshot
        // error on the home shard would leave the requester's waiters
        // parked forever, a worse failure than surfacing the bug — and
        // the fd was just opened by FileId, so no error is reachable
        // from request input. Hence the three expects below.
        #[expect(clippy::expect_used, reason = "RemoteRead has no failure reply")]
        let len = self.kernel.fd_len(self.pid, fd).expect("open file");
        // IOL_read, not pread: IO-Lite aggregates are immutable, so
        // the home shard hands the requester a *reference* (syscall +
        // disk on a cold home + page maps — no byte copy, exactly
        // like a local zero-copy serve), and the same buffers cross
        // the fabric: no host copy either.
        #[expect(clippy::expect_used, reason = "RemoteRead has no failure reply")]
        let (body, out) = self
            .kernel
            .iol_read_fd(self.pid, fd, len)
            .expect("document read");
        let home_hit = out.cache_hit;
        #[expect(clippy::expect_used, reason = "RemoteRead has no failure reply")]
        self.kernel
            .close_fd(self.pid, fd)
            .expect("close after snapshot");
        self.shard_ctx().mailbox.send(
            from,
            ShardMsg::RemoteData {
                file,
                body,
                home_hit,
            },
        );
    }

    /// Requester side: the home shard's buffers arrived; answer every
    /// connection waiting on this file with them — no copy, no local
    /// cache entry, no pin — so a later fetch of the same file sends the
    /// same buffers and hits this shard's checksum cache.
    fn finish_remote(&mut self, file: FileId, body: &Aggregate, home_hit: bool) {
        let waiters = self.remote_pending.remove(&file).unwrap_or_default();
        self.stats.remote_hits += u64::from(home_hit);
        for i in waiters {
            // A waiter that failed while the read was in flight is skipped.
            if matches!(self.conns.get(i).map(|c| &c.phase), Some(Phase::RemoteWait)) {
                self.respond(i, &ok_head(body.len(), true, &mut [0; 20]), body);
            }
        }
    }
}

/// Parses a script entry: `"PUT <path> <len>"` means upload `len`
/// deterministic bytes (see [`synthetic_put_body`]) to `path`;
/// anything else is a GET of the entry itself.
pub fn parse_put_entry(entry: &str) -> Option<(&str, u64)> {
    let rest = entry.strip_prefix("PUT ")?;
    let (path, len) = rest.rsplit_once(' ')?;
    Some((path, len.parse().ok()?))
}

/// The deterministic body a scripted `"PUT <path> <len>"` uploads —
/// reproducible from the entry alone, so tests and external drivers
/// can verify stored bytes without carrying payloads around. Byte `i`
/// is `(seed · (i | 1)) >> 24` (wrapping, truncated to a byte), `seed`
/// being [`put_body_seed`]`(path)`.
pub fn synthetic_put_body(path: &str, len: u64) -> Vec<u8> {
    let mut body = vec![0; len as usize];
    synthetic_put_body_into(put_body_seed(path), 0, &mut body);
    body
}

/// The seed of `path`'s [`synthetic_put_body`]: FNV-1a of the path.
pub fn put_body_seed(path: &str) -> u64 {
    path.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    })
}

/// Writes bytes `offset..offset + dst.len()` of the [`synthetic_put_body`]
/// seeded `seed` into `dst`. Bytes `2k` and `2k + 1` are both bits 24–31
/// of `seed · (2k + 1)`, whose low 32 bits alone reach them, so the body
/// is a `u32` progression stepping `2 · seed` per byte pair: sixteen
/// lanes advance by `32 · seed` per 32 bytes, with no multiply.
pub fn synthetic_put_body_into(seed: u64, offset: u64, dst: &mut [u8]) {
    let seed = seed as u32;
    let pair = |k: u64| seed.wrapping_mul((2 * k + 1) as u32);
    let (mut k, mut dst) = (offset / 2, dst);
    if offset % 2 == 1 {
        if let Some((odd, rest)) = std::mem::take(&mut dst).split_first_mut() {
            *odd = (pair(k) >> 24) as u8;
            (k, dst) = (k + 1, rest);
        }
    }
    let mut lanes: [u32; 16] = std::array::from_fn(|j| pair(k + j as u64));
    let step = seed.wrapping_mul(32);
    let mut blocks = dst.chunks_exact_mut(32);
    for block in &mut blocks {
        for (two, lane) in block.chunks_exact_mut(2).zip(&mut lanes) {
            // The lane's top byte twice (this form vectorizes).
            let top_twice = ((*lane >> 16) & 0xff00 | *lane >> 24) as u16;
            two.copy_from_slice(&top_twice.to_le_bytes());
            *lane = lane.wrapping_add(step);
        }
    }
    for (i, byte) in blocks.into_remainder().iter_mut().enumerate() {
        *byte = (lanes[i / 2] >> 24) as u8;
    }
}

/// The built-in client's request for one script entry, built straight
/// in `pool`: a GET's head parts, or a PUT's head parts followed by its
/// [`synthetic_put_body`] streamed in batches — each byte written once,
/// into buffers allocated exactly as [`Aggregate::from_bytes`] would
/// allocate [`request_bytes`](crate::message::request_bytes) /
/// [`put_request_bytes`](crate::message::put_request_bytes).
pub fn client_request(pool: &BufferPool, entry: &str, keep_alive: bool) -> Aggregate {
    let mut digits = [0; 20];
    let Some((path, len)) = parse_put_entry(entry) else {
        return Aggregate::from_parts(pool, &request_head(entry, None, keep_alive, &mut digits));
    };
    let mut head = request_head(path, Some(len), keep_alive, &mut digits);
    let head_len: u64 = head.iter().map(|p| p.len() as u64).sum();
    let (seed, mut batch) = (put_body_seed(path), [0; 1024]);
    Aggregate::fill_aligned(pool, head_len + len, 1, |at, mut b| {
        for part in &mut head {
            let n = part.len().min(b.remaining());
            b.put(&part[..n]);
            *part = &part[n..];
        }
        // Room left means the head is written: the rest is body.
        while b.remaining() > 0 {
            let body_at = at + (b.capacity() - b.remaining()) as u64 - head_len;
            let n = b.remaining().min(batch.len());
            synthetic_put_body_into(seed, body_at, &mut batch[..n]);
            b.put(&batch[..n]);
        }
        b.freeze()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use iolite_core::CostModel;
    use iolite_fs::Policy;
    use iolite_ipc::PipeMode;

    fn rig(files: &[(&str, u64)]) -> (Kernel, Pid) {
        let mut k = Kernel::with_policy(CostModel::pentium_ii_333(), Policy::Gds);
        let pid = k.spawn("server");
        for (name, bytes) in files {
            k.create_synthetic_file(name, *bytes, 7);
        }
        (k, pid)
    }

    #[test]
    fn serves_a_static_script_to_completion() {
        let (k, pid) = rig(&[("/a", 100_000), ("/b", 3_000)]);
        let scripts = vec![
            vec!["/a".to_string(), "/b".to_string()],
            vec!["/b".to_string(), "/a".to_string(), "/missing".to_string()],
        ];
        let cfg = EventLoopConfig {
            capture_responses: true,
            ..EventLoopConfig::default()
        };
        let server = EventLoopServer::new(k, pid, scripts, None, cfg);
        let (report, kernel) = server.run();
        assert_eq!(report.stats.completed, 5);
        assert_eq!(report.stats.failed, 0);
        assert_eq!(report.stats.blocked_io, 0, "readiness-driven, no spin");
        // Every response carries the right document bytes.
        for req in &report.requests {
            let body = req.response.as_ref().expect("captured");
            if req.path == "/missing" {
                assert!(body.starts_with(b"HTTP/1.1 404"));
                continue;
            }
            let file = kernel.store.lookup(&req.path).expect("exists");
            let flen = kernel.store.len(file).unwrap();
            let expected = kernel.store.read(file, 0, flen).unwrap();
            assert!(body.ends_with(&expected), "{} body intact", req.path);
            assert_eq!(
                body.len(),
                crate::message::response_header(flen, true).len() + expected.len()
            );
        }
        // Pins released once drained: the corpus is evictable again.
        for path in ["/a", "/b"] {
            let file = kernel.store.lookup(path).unwrap();
            assert_eq!(kernel.cache.pins(&CacheKey::whole(file)), 0);
        }
    }

    #[test]
    fn multiplexes_while_responses_drain() {
        // 100KB responses, 8KB acked per tick: every connection spends
        // many ticks mid-stream, so all must be in flight at once.
        let (k, pid) = rig(&[("/doc", 100_000)]);
        let scripts = vec![vec!["/doc".to_string()]; 32];
        let cfg = EventLoopConfig {
            drain_per_tick: 8 * 1024,
            ..EventLoopConfig::default()
        };
        let (report, _) = EventLoopServer::new(k, pid, scripts, None, cfg).run();
        assert_eq!(report.stats.completed, 32);
        assert_eq!(report.stats.blocked_io, 0);
        assert_eq!(report.stats.max_inflight, 32, "true multiplexing");
        // 31 of 32 requests ride the cache (and the checksum cache).
        assert_eq!(report.stats.cache_hits, 31);
    }

    #[test]
    fn cgi_requests_flow_through_the_pipe_without_spinning() {
        let (mut k, pid) = rig(&[("/static", 20_000)]);
        // 150KB document > the 64KB pipe: several fill/drain rounds.
        let cgi = CgiProcess::new(&mut k, pid, 150_000, PipeMode::ZeroCopy);
        let expected = cgi.document().to_vec();
        let scripts = vec![
            vec![format!("{CGI_PREFIX}doc")],
            vec!["/static".to_string(), format!("{CGI_PREFIX}doc")],
            vec![format!("{CGI_PREFIX}doc")],
        ];
        let cfg = EventLoopConfig {
            capture_responses: true,
            ..EventLoopConfig::default()
        };
        let (report, _) = EventLoopServer::new(k, pid, scripts, Some(cgi), cfg).run();
        assert_eq!(report.stats.completed, 4);
        assert_eq!(report.stats.failed, 0);
        assert_eq!(report.stats.blocked_io, 0, "CGI included: no busy-spin");
        for req in report
            .requests
            .iter()
            .filter(|r| r.path.starts_with(CGI_PREFIX))
        {
            let body = req.response.as_ref().expect("captured");
            assert!(body.ends_with(&expected), "CGI bytes intact");
        }
    }

    #[test]
    fn put_then_get_serves_new_bytes_and_writes_back() {
        let (k, pid) = rig(&[("/doc", 50_000)]);
        // One connection, closed loop: the GET runs strictly after the
        // PUT completed, so it must observe the new bytes.
        let scripts = vec![vec!["PUT /doc 70000".to_string(), "/doc".to_string()]];
        let cfg = EventLoopConfig {
            capture_responses: true,
            ..EventLoopConfig::default()
        };
        let (report, kernel) = EventLoopServer::new(k, pid, scripts, None, cfg).run();
        assert_eq!(report.stats.completed, 2);
        assert_eq!(report.stats.failed, 0);
        assert_eq!(report.stats.blocked_io, 0, "readiness-driven, no spin");
        assert_eq!(report.stats.puts, 1);
        assert_eq!(report.stats.put_bytes, 70_000);
        let expected = synthetic_put_body("/doc", 70_000);
        // The store image holds the replacement (length change included).
        let file = kernel.store.lookup("/doc").unwrap();
        assert_eq!(kernel.store.len(file), Some(70_000));
        assert_eq!(kernel.store.read(file, 0, 70_000).unwrap(), expected);
        // The PUT was answered 201; the GET served the new bytes.
        let put = &report.requests[0];
        assert!(put.response.as_ref().unwrap().starts_with(b"HTTP/1.1 201"));
        let get = &report.requests[1];
        assert!(get.response.as_ref().unwrap().ends_with(&expected));
        assert!(get.cache_hit, "the dirty install is a cache entry");
        // 70 000 dirty bytes armed the 64 KB threshold: the loop
        // flushed between events, leaving nothing dirty at exit.
        assert!(kernel.metrics.writeback_flushes >= 1);
        assert_eq!(kernel.cache.dirty_bytes(), 0);
        // The transmission pin was released.
        assert_eq!(kernel.cache.pins(&CacheKey::whole(file)), 0);
    }

    #[test]
    fn put_body_fragmented_across_ticks_ingests_incrementally() {
        let (k, pid) = rig(&[]);
        let scripts = vec![vec!["PUT /new 4096".to_string()]];
        let cfg = EventLoopConfig {
            external_wire: true,
            ..EventLoopConfig::default()
        };
        let mut server = EventLoopServer::new(k, pid, scripts, None, cfg);
        let body = synthetic_put_body("/new", 4096);
        let req = crate::message::put_request_bytes("/new", &body, true);
        let sock = server.sock(0);
        server.tick(); // Enters Parsing; the external wire owns delivery.
        let pool = server.kernel().process(pid).pool().clone();
        // Header and body dribble in: several reads, several ticks —
        // the BodyIngest state must carry partial bodies across them.
        for frag in req.chunks(700) {
            let agg = Aggregate::from_bytes(&pool, frag);
            server
                .kernel_mut()
                .socket_deliver(pid, sock, agg)
                .expect("open socket");
            server.tick();
        }
        let mut guard = 0;
        while !server.is_done() {
            let _ = server.kernel_mut().socket_drain(pid, sock, 16 * 1024);
            server.tick();
            guard += 1;
            assert!(guard < 100, "PUT never completed");
        }
        let (report, kernel) = server.into_report();
        assert_eq!(report.stats.completed, 1);
        assert_eq!(report.stats.puts, 1);
        assert_eq!(report.stats.blocked_io, 0);
        // The path did not exist: the PUT created it.
        let file = kernel.store.lookup("/new").expect("created by PUT");
        assert_eq!(kernel.store.read(file, 0, 4096).unwrap(), body);
    }

    #[test]
    fn peer_close_while_draining_fails_the_request() {
        let (k, pid) = rig(&[("/doc", 5_000)]);
        let scripts = vec![vec!["/doc".to_string()]];
        let cfg = EventLoopConfig {
            drain_per_tick: 1024,
            ..EventLoopConfig::default()
        };
        let mut server = EventLoopServer::new(k, pid, scripts, None, cfg);
        // Tick 1 parses and opens; tick 2 writes the whole (small)
        // response, leaving the connection Draining.
        for _ in 0..2 {
            server.tick();
        }
        let sock = server.sock(0);
        server
            .kernel_mut()
            .socket_peer_close(pid, sock)
            .expect("open socket");
        let (report, kernel) = server.run();
        // A dead peer never ACKs: the drain can't complete, so the
        // request fails — it must not be reported as served.
        assert_eq!(report.stats.completed, 0);
        assert_eq!(report.stats.failed, 1);
        let file = kernel.store.lookup("/doc").unwrap();
        assert_eq!(kernel.cache.pins(&CacheKey::whole(file)), 0);
    }

    #[test]
    fn peer_close_while_idle_fails_cleanly_at_injection() {
        let (k, pid) = rig(&[("/doc", 5_000)]);
        let scripts = vec![vec!["/doc".to_string()], vec!["/doc".to_string()]];
        let mut server = EventLoopServer::new(k, pid, scripts, None, EventLoopConfig::default());
        // Client 0 disconnects before issuing its request: injection
        // must fail that connection, not panic the server.
        let sock0 = server.sock(0);
        server
            .kernel_mut()
            .socket_peer_close(pid, sock0)
            .expect("open socket");
        let (report, _) = server.run();
        assert_eq!(report.stats.failed, 1);
        assert_eq!(report.stats.completed, 1, "the other client is served");
    }

    #[test]
    fn peer_close_mid_response_fails_only_that_connection() {
        let (k, pid) = rig(&[("/doc", 200_000)]);
        let scripts = vec![vec!["/doc".to_string()]; 2];
        let cfg = EventLoopConfig {
            drain_per_tick: 16 * 1024,
            ..EventLoopConfig::default()
        };
        let mut server = EventLoopServer::new(k, pid, scripts, None, cfg);
        // A few ticks in, client 0 disconnects mid-stream.
        for _ in 0..3 {
            server.tick();
        }
        let sock0 = server.sock(0);
        server
            .kernel_mut()
            .socket_peer_close(pid, sock0)
            .expect("open socket");
        let (report, kernel) = server.run();
        assert_eq!(report.stats.failed, 1, "the dead peer's request fails");
        assert_eq!(report.stats.completed, 1, "the other connection finishes");
        assert_eq!(report.stats.blocked_io, 0);
        // The failed transmission's pin was released.
        let file = kernel.store.lookup("/doc").unwrap();
        assert_eq!(kernel.cache.pins(&CacheKey::whole(file)), 0);
    }
}
