//! The closed-loop experiment engine behind every figure.
//!
//! Clients issue requests as soon as the previous response arrives
//! ("a client issues a new request as soon as a response is received",
//! §5.1). The server machine is one CPU (FIFO), one disk (FIFO), and
//! five network links; request lifecycles thread through those resources
//! with the costs produced by the server models, and aggregate output
//! bandwidth is measured exactly as the figures report it.
//!
//! Memory is accounted live: conventional socket buffers reserve `Tss`
//! per draining connection, Apache adds per-connection process memory,
//! and the file cache's budget is rebalanced as those reservations move
//! — the §5.7 WAN effect emerges rather than being assumed.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use iolite_core::{Charge, CostCategory, CostModel, Fd, Kernel, Pid};
use iolite_fs::{CacheKey, Policy};
use iolite_ipc::PipeMode;
use iolite_sim::{FifoResource, LinkSet, RateMeter, SimRng, SimTime, Summary};
use iolite_trace::{RandomSampler, RequestStream, SharedLogReplay};
use iolite_vm::MemAccount;

use crate::cgi::CgiProcess;
use crate::server::{serve_static, ServerKind};
use crate::workloads::WorkloadKind;

/// Configuration of one experiment run (one figure data point).
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// Which server runs.
    pub server: ServerKind,
    /// What the clients request.
    pub workload: WorkloadKind,
    /// Number of concurrent clients.
    pub clients: usize,
    /// Requests measured (after warm-up).
    pub requests: u64,
    /// Warm-up requests excluded from measurement.
    pub warmup: u64,
    /// HTTP/1.1 persistent connections (§5.2)?
    pub persistent: bool,
    /// Round-trip time to clients, milliseconds (0 = LAN; §5.7 sweeps).
    pub rtt_ms: f64,
    /// Checksum cache enabled (Fig. 11 ablation)?
    pub checksum_cache: bool,
    /// Access logging enabled? "Access logging was disabled to ensure
    /// fairness" in the paper's runs (§5); enabling it reproduces the
    /// quoted 13–16% Apache / 3–5% Flash cost.
    pub access_logging: bool,
    /// File-cache policy override (Fig. 11 runs Flash-Lite with LRU).
    pub policy: Option<Policy>,
    /// Random seed.
    pub seed: u64,
    /// The machine model (defaults to the paper's testbed; ablations
    /// and scaled-down tests override it).
    pub cost: CostModel,
}

impl ExperimentConfig {
    /// A sensible default: fill in server + workload, tweak the rest.
    pub fn new(server: ServerKind, workload: WorkloadKind) -> Self {
        ExperimentConfig {
            server,
            workload,
            clients: 40,
            requests: 4000,
            warmup: 400,
            persistent: false,
            rtt_ms: 0.0,
            checksum_cache: true,
            access_logging: false,
            policy: None,
            seed: 42,
            cost: CostModel::pentium_ii_333(),
        }
    }
}

/// The measured outcome of one experiment run.
#[derive(Debug, Clone)]
pub struct ExperimentResult {
    /// Aggregate output bandwidth (application bytes), Mb/s — the
    /// y-axis of Figs. 3–6, 8, 10–12.
    pub mbit_s: f64,
    /// Requests measured.
    pub requests: u64,
    /// Application bytes delivered in the measurement window.
    pub bytes: u64,
    /// Simulated duration of the measurement window, seconds.
    pub sim_seconds: f64,
    /// File-cache hit rate over measured requests.
    pub hit_rate: f64,
    /// Server CPU utilization.
    pub cpu_utilization: f64,
    /// Disk utilization.
    pub disk_utilization: f64,
    /// Mean response time, milliseconds.
    pub mean_response_ms: f64,
    /// Bytes copied per measured request (mechanism indicator).
    pub copied_per_request: f64,
    /// Checksum bytes served from cache per measured request.
    pub csum_cached_per_request: f64,
    /// File-cache evictions during measurement.
    pub evictions: u64,
    /// Requests that failed because a peer (pipe or socket) hung up
    /// mid-transfer; healthy runs report 0.
    pub failed_requests: u64,
}

/// Pending resource release at a future instant.
#[derive(PartialEq, Eq, PartialOrd, Ord)]
enum Release {
    SocketMem(u64),
    /// An Apache worker finished: drop its socket buffer and process
    /// memory, freeing a `MaxClients` slot.
    ApacheConn(u64),
    Unpin(CacheKey),
}

/// The experiment engine.
pub struct Experiment {
    cfg: ExperimentConfig,
    kernel: Kernel,
    server_pid: Pid,
    /// One kernel socket descriptor per client, in the server's table.
    socks: Vec<Fd>,
    cpu: FifoResource,
    disk: FifoResource,
    links: LinkSet,
    /// The server's open-file set: one descriptor per document.
    files: Vec<Fd>,
    cgi: Option<CgiProcess>,
    stream: Box<dyn RequestStream>,
    rng: SimRng,
}

impl Experiment {
    /// Builds the testbed for a configuration.
    pub(crate) fn new(cfg: ExperimentConfig) -> Self {
        let cost = cfg.cost;
        let policy = cfg.policy.unwrap_or(match cfg.server {
            ServerKind::FlashLite => Policy::Gds,
            _ => Policy::Lru,
        });
        let mut kernel = Kernel::with_policy(cost, policy);
        kernel.set_checksum_cache(cfg.checksum_cache);
        kernel.mem_reserve(MemAccount::Server, cost.server_reserve_bytes);
        let server_pid = kernel.spawn("server");
        let rng = SimRng::new(cfg.seed);

        // Materialize the file set.
        let mut files = Vec::new();
        let mut cgi = None;
        let stream: Box<dyn RequestStream> = match &cfg.workload {
            WorkloadKind::SingleFile { bytes } => {
                let f = kernel.create_synthetic_file("/doc", *bytes, cfg.seed);
                files.push(kernel.open_file(server_pid, f));
                Box::new(ConstantStream)
            }
            WorkloadKind::TraceReplay { workload, log_len } => {
                for f in workload.files() {
                    let id = kernel.create_synthetic_file(&f.name, f.bytes, cfg.seed ^ f.bytes);
                    files.push(kernel.open_file(server_pid, id));
                }
                Box::new(SharedLogReplay::new(workload, *log_len, cfg.seed))
            }
            WorkloadKind::TraceSampled { workload } => {
                for f in workload.files() {
                    let id = kernel.create_synthetic_file(&f.name, f.bytes, cfg.seed ^ f.bytes);
                    files.push(kernel.open_file(server_pid, id));
                }
                Box::new(RandomSampler::new(workload.clone()))
            }
            WorkloadKind::Cgi { bytes } => {
                let mode = match cfg.server {
                    ServerKind::FlashLite => PipeMode::ZeroCopy,
                    _ => PipeMode::Copy,
                };
                cgi = Some(CgiProcess::new(&mut kernel, server_pid, *bytes, mode));
                Box::new(ConstantStream)
            }
        };

        // Connections: one kernel socket per client, in the server's
        // buffering mode, addressed by descriptor.
        let socks = (0..cfg.clients)
            .map(|_| kernel.socket_create(server_pid, cfg.server.buffer_mode(), cost.mss, cost.tss))
            .collect();

        // Apache with persistent connections keeps one process per
        // client alive for the whole run.
        if cfg.server == ServerKind::Apache && cfg.persistent {
            let workers = cfg.clients.min(cost.apache_max_clients) as u64;
            kernel.mem_reserve(
                MemAccount::ProcessOverhead,
                workers * cost.apache_per_conn_bytes,
            );
        }

        let links = LinkSet::new(cost.net_links, cost.link_mbit_s);
        Experiment {
            cfg,
            kernel,
            server_pid,
            socks,
            cpu: FifoResource::new(),
            disk: FifoResource::new(),
            links,
            files,
            cgi,
            stream,
            rng,
        }
    }

    /// Runs the experiment to completion.
    pub(crate) fn run(mut self) -> ExperimentResult {
        let rtt = SimTime::from_ms(self.cfg.rtt_ms);
        let one_way = SimTime::from_ms(self.cfg.rtt_ms / 2.0);
        let total_requests = self.cfg.warmup + self.cfg.requests;

        // Client ready-to-issue events.
        let mut issue: BinaryHeap<Reverse<(SimTime, usize)>> = (0..self.cfg.clients)
            .map(|c| Reverse((SimTime::ZERO, c)))
            .collect();
        // Deferred releases of memory/pins at transmission completion.
        let mut releases: BinaryHeap<Reverse<(SimTime, u64, Release)>> = BinaryHeap::new();
        let mut release_seq = 0u64;
        let mut apache_active = 0u64;

        let mut completed = 0u64;
        let mut failed = 0u64;
        let mut measured_bytes = 0u64;
        let mut hits = 0u64;
        let mut meter: Option<RateMeter> = None;
        // Measurement starts when the warmup-th request retires —
        // success *or* failure — so both completion paths share this.
        let start_measurement = |kernel: &Kernel, at: SimTime| {
            let mut m = RateMeter::new(at);
            m.close(at);
            (
                m,
                kernel.metrics.bytes_copied,
                kernel.metrics.bytes_checksum_cached,
                kernel.cache.stats().evictions,
            )
        };
        let mut response_times = Summary::new();
        let mut copied_at_meas_start = 0u64;
        let mut cached_at_meas_start = 0u64;
        let mut evictions_at_meas_start = 0u64;

        while completed < total_requests {
            let Some(Reverse((now, client))) = issue.pop() else {
                break;
            };
            // Apply releases that completed before this instant.
            while let Some(Reverse((t, _, _))) = releases.peek() {
                if *t > now {
                    break;
                }
                let Some(Reverse((_, _, rel))) = releases.pop() else {
                    break;
                };
                match rel {
                    Release::SocketMem(bytes) => {
                        self.kernel.mem_release(MemAccount::SocketCopies, bytes)
                    }
                    Release::ApacheConn(sock) => {
                        let per_conn = self.kernel.cost.apache_per_conn_bytes;
                        self.kernel.mem_release(MemAccount::SocketCopies, sock);
                        self.kernel
                            .mem_release(MemAccount::ProcessOverhead, per_conn);
                        apache_active = apache_active.saturating_sub(1);
                    }
                    Release::Unpin(key) => self.kernel.cache_unpin(key),
                }
            }

            let Some(file_idx) = self.stream.next_request(&mut self.rng) else {
                break;
            };

            // --- connection setup (non-persistent: handshake RTT plus
            // server-side accept/close CPU), billed like the rest ---
            let mut pre = Charge::ZERO;
            if self.cfg.access_logging {
                let log = Charge::us(match self.cfg.server {
                    ServerKind::Apache => self.kernel.cost.apache_log_us,
                    _ => self.kernel.cost.event_log_us,
                });
                self.kernel.charge(CostCategory::Request, log);
                pre += log;
            }
            let mut arrive = now + one_way; // Request propagation.
            if !self.cfg.persistent {
                arrive += rtt; // SYN/SYN-ACK round trip first.
                let cost = &self.kernel.cost;
                let setup = Charge::us(cost.tcp_accept_us + cost.tcp_close_us);
                self.kernel.charge(CostCategory::TcpControl, setup);
                pre += setup;
            }

            // --- serve ---
            let rc = match &self.cfg.workload {
                WorkloadKind::Cgi { .. } => {
                    let cgi = self.cgi.as_mut().expect("cgi configured");
                    match cgi.serve(
                        &mut self.kernel,
                        self.cfg.server,
                        self.socks[client],
                        self.server_pid,
                    ) {
                        Ok(rc) => rc,
                        Err(_) => {
                            // A dead pipe/socket peer fails this one
                            // request; the client moves on and the
                            // server keeps running. The failure still
                            // counts toward the request budget, so a
                            // failure landing exactly on the warmup
                            // boundary must initialize the meter like
                            // a success would.
                            failed += 1;
                            completed += 1;
                            if completed == self.cfg.warmup {
                                let (m, c, x, e) = start_measurement(&self.kernel, arrive);
                                (meter, copied_at_meas_start) = (Some(m), c);
                                (cached_at_meas_start, evictions_at_meas_start) = (x, e);
                            }
                            issue.push(Reverse((arrive, client)));
                            continue;
                        }
                    }
                }
                _ => {
                    let file = self.files[file_idx];
                    serve_static(
                        &mut self.kernel,
                        self.cfg.server,
                        self.socks[client],
                        self.server_pid,
                        file,
                    )
                }
            };

            // --- thread through resources: CPU (pre+parse) → disk
            // (miss) → CPU (rest) → link ---
            let cost = &self.kernel.cost;
            let parse = Charge::us(cost.http_parse_us + cost.server_fixed_us);
            let after_parse = self.cpu.submit(arrive, (pre + parse).time);
            let send_cpu = rc.cpu.saturating_sub(parse.time);
            let ready = if rc.disk_time > SimTime::ZERO {
                self.disk.submit(after_parse, rc.disk_time)
            } else {
                after_parse
            };
            let after_cpu = self.cpu.submit(ready, send_cpu);
            let window_rate = self
                .kernel
                .socket(self.server_pid, self.socks[client])
                .expect("client socket")
                .window_rate(rtt.as_secs());
            let done = self.links.link_for_client(client).transmit(
                after_cpu,
                rc.wire_bytes,
                window_rate,
                one_way,
            );

            // --- memory + pins held until the response drains ---
            if self.cfg.server == ServerKind::Apache && !self.cfg.persistent {
                // One worker per connection, bounded by MaxClients:
                // beyond the cap, connections sit in the listen backlog
                // and hold no memory.
                if apache_active < self.kernel.cost.apache_max_clients as u64 {
                    apache_active += 1;
                    let per_conn = self.kernel.cost.apache_per_conn_bytes;
                    self.kernel
                        .mem_reserve(MemAccount::SocketCopies, rc.owned_sock_bytes);
                    self.kernel
                        .mem_reserve(MemAccount::ProcessOverhead, per_conn);
                    release_seq += 1;
                    releases.push(Reverse((
                        done,
                        release_seq,
                        Release::ApacheConn(rc.owned_sock_bytes),
                    )));
                }
            } else if rc.owned_sock_bytes > 0 {
                self.kernel
                    .mem_reserve(MemAccount::SocketCopies, rc.owned_sock_bytes);
                release_seq += 1;
                releases.push(Reverse((
                    done,
                    release_seq,
                    Release::SocketMem(rc.owned_sock_bytes),
                )));
            }
            if let Some(key) = rc.pin_key {
                release_seq += 1;
                releases.push(Reverse((done, release_seq, Release::Unpin(key))));
            }
            self.kernel.rebalance_cache();

            // --- bookkeeping ---
            completed += 1;
            if completed == self.cfg.warmup {
                let (m, c, x, e) = start_measurement(&self.kernel, done);
                (meter, copied_at_meas_start) = (Some(m), c);
                (cached_at_meas_start, evictions_at_meas_start) = (x, e);
            }
            if completed > self.cfg.warmup {
                if let Some(m) = &mut meter {
                    m.record(done, rc.response_bytes as f64);
                }
                measured_bytes += rc.response_bytes;
                hits += u64::from(rc.cache_hit);
                response_times.record((done.saturating_sub(now)).as_ms());
            }
            issue.push(Reverse((done, client)));
        }

        let meter = meter.unwrap_or_else(|| RateMeter::new(SimTime::ZERO));
        let horizon = self.cpu.next_free().max(self.disk.next_free());
        let measured = completed.saturating_sub(self.cfg.warmup);
        ExperimentResult {
            mbit_s: meter.mbit_per_sec(),
            requests: measured,
            bytes: measured_bytes,
            sim_seconds: meter.total() / meter.per_second().max(1e-12),
            hit_rate: if measured > 0 {
                hits as f64 / measured as f64
            } else {
                0.0
            },
            cpu_utilization: self.cpu.utilization(horizon),
            disk_utilization: self.disk.utilization(horizon),
            mean_response_ms: response_times.mean(),
            copied_per_request: (self.kernel.metrics.bytes_copied - copied_at_meas_start) as f64
                / measured.max(1) as f64,
            csum_cached_per_request: (self.kernel.metrics.bytes_checksum_cached
                - cached_at_meas_start) as f64
                / measured.max(1) as f64,
            evictions: self.kernel.cache.stats().evictions - evictions_at_meas_start,
            failed_requests: failed,
        }
    }

    /// Convenience: build and run.
    pub fn run_config(cfg: ExperimentConfig) -> ExperimentResult {
        Experiment::new(cfg).run()
    }
}

/// Stream for single-file/CGI workloads: always file 0.
struct ConstantStream;

impl RequestStream for ConstantStream {
    fn next_request(&mut self, _rng: &mut SimRng) -> Option<usize> {
        Some(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(server: ServerKind, bytes: u64, persistent: bool) -> ExperimentResult {
        let mut cfg = ExperimentConfig::new(server, WorkloadKind::SingleFile { bytes });
        cfg.requests = 1500;
        cfg.warmup = 200;
        cfg.persistent = persistent;
        Experiment::run_config(cfg)
    }

    #[test]
    fn single_file_ordering_matches_paper() {
        // Fig. 3 at 100KB: Flash-Lite > Flash > Apache.
        let fl = quick(ServerKind::FlashLite, 100 << 10, false);
        let f = quick(ServerKind::Flash, 100 << 10, false);
        let a = quick(ServerKind::Apache, 100 << 10, false);
        assert!(fl.mbit_s > f.mbit_s, "FL {} vs F {}", fl.mbit_s, f.mbit_s);
        assert!(f.mbit_s > a.mbit_s, "F {} vs A {}", f.mbit_s, a.mbit_s);
        // All hot after warmup.
        assert!(fl.hit_rate > 0.99);
    }

    #[test]
    fn small_files_converge() {
        // Fig. 3 ≤5KB: Flash ≈ Flash-Lite (within ~15%).
        let fl = quick(ServerKind::FlashLite, 2 << 10, false);
        let f = quick(ServerKind::Flash, 2 << 10, false);
        let ratio = fl.mbit_s / f.mbit_s;
        assert!(ratio < 1.2, "ratio {ratio}");
    }

    #[test]
    fn persistent_connections_help_small_files() {
        // Fig. 4: request rate for small files rises significantly.
        let np = quick(ServerKind::FlashLite, 10 << 10, false);
        let p = quick(ServerKind::FlashLite, 10 << 10, true);
        assert!(
            p.mbit_s > np.mbit_s * 1.5,
            "persistent {} vs {}",
            p.mbit_s,
            np.mbit_s
        );
    }

    #[test]
    fn flashlite_saturates_network_on_large_files() {
        let fl = quick(ServerKind::FlashLite, 200 << 10, false);
        // Network cap is 420 Mb/s; Flash-Lite should be close to it.
        assert!(fl.mbit_s > 350.0, "got {}", fl.mbit_s);
        let f = quick(ServerKind::Flash, 200 << 10, false);
        assert!(f.mbit_s < 330.0, "Flash must stay CPU-bound: {}", f.mbit_s);
    }

    #[test]
    fn cgi_halves_conventional_but_not_iolite() {
        let mk = |server, bytes| {
            let mut cfg = ExperimentConfig::new(server, WorkloadKind::Cgi { bytes });
            cfg.requests = 800;
            cfg.warmup = 100;
            cfg
        };
        let f_static = quick(ServerKind::Flash, 100 << 10, false);
        let f_cgi = Experiment::run_config(mk(ServerKind::Flash, 100 << 10));
        let ratio = f_cgi.mbit_s / f_static.mbit_s;
        assert!(ratio < 0.7, "Flash CGI ratio {ratio}");
        let fl_static = quick(ServerKind::FlashLite, 100 << 10, false);
        let fl_cgi = Experiment::run_config(mk(ServerKind::FlashLite, 100 << 10));
        let ratio_fl = fl_cgi.mbit_s / fl_static.mbit_s;
        assert!(ratio_fl > 0.75, "Flash-Lite CGI ratio {ratio_fl}");
    }

    #[test]
    fn access_logging_costs_match_section_5() {
        // §5: logging drops Apache 13-16%, Flash/Flash-Lite 3-5%.
        let run = |server, logging| {
            let mut cfg =
                ExperimentConfig::new(server, WorkloadKind::SingleFile { bytes: 20 << 10 });
            cfg.requests = 1200;
            cfg.warmup = 200;
            cfg.access_logging = logging;
            Experiment::run_config(cfg).mbit_s
        };
        let apache_drop = 1.0 - run(ServerKind::Apache, true) / run(ServerKind::Apache, false);
        let flash_drop = 1.0 - run(ServerKind::Flash, true) / run(ServerKind::Flash, false);
        let fl_drop = 1.0 - run(ServerKind::FlashLite, true) / run(ServerKind::FlashLite, false);
        assert!(
            (0.08..=0.20).contains(&apache_drop),
            "apache drop {apache_drop}"
        );
        assert!(
            (0.01..=0.08).contains(&flash_drop),
            "flash drop {flash_drop}"
        );
        assert!((0.01..=0.10).contains(&fl_drop), "fl drop {fl_drop}");
        assert!(apache_drop > 2.0 * flash_drop);
    }

    #[test]
    fn determinism_same_seed_same_result() {
        let a = quick(ServerKind::Flash, 20 << 10, false);
        let b = quick(ServerKind::Flash, 20 << 10, false);
        assert_eq!(a.mbit_s, b.mbit_s);
        assert_eq!(a.bytes, b.bytes);
    }

    #[test]
    fn wan_delay_hurts_conventional_servers() {
        // Miniature §5.7 on a proportionally scaled machine: the data
        // set marginally fits in memory (paper: 120MB on 128MB), and
        // scaling clients with delay makes conventional socket buffers
        // squeeze the file cache. Scaled down 4× for test speed.
        use iolite_trace::{TraceSpec, Workload};
        let w = Workload::synthesize(&TraceSpec::subtrace_150mb(), 3).log_prefix(28 << 20, 3);
        let mut cost = CostModel::pentium_ii_333();
        cost.ram_bytes = 32 << 20;
        cost.kernel_reserve_bytes = 2 << 20;
        cost.server_reserve_bytes = 1 << 20;
        let mk = |server, rtt_ms: f64, clients| {
            let mut cfg = ExperimentConfig::new(
                server,
                WorkloadKind::TraceSampled {
                    workload: w.clone(),
                },
            );
            cfg.clients = clients;
            cfg.requests = 4000;
            cfg.warmup = 2000;
            cfg.rtt_ms = rtt_ms;
            cfg.cost = cost;
            Experiment::run_config(cfg)
        };
        let f_lan = mk(ServerKind::Flash, 0.0, 16);
        let f_wan = mk(ServerKind::Flash, 100.0, 225);
        let fl_lan = mk(ServerKind::FlashLite, 0.0, 16);
        let fl_wan = mk(ServerKind::FlashLite, 100.0, 225);
        let f_drop = f_wan.mbit_s / f_lan.mbit_s;
        let fl_drop = fl_wan.mbit_s / fl_lan.mbit_s;
        assert!(
            f_drop < 0.92,
            "Flash must lose throughput under WAN load: {f_drop}"
        );
        assert!(
            fl_drop > f_drop + 0.02,
            "Flash-Lite must be less affected: {fl_drop} vs {f_drop}"
        );
        // Flash's loss is memory-driven: its cache got squeezed.
        assert!(f_wan.evictions > f_lan.evictions);
    }
}
