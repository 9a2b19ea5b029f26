//! `paper_servers`: the engine behind every `repro` figure —
//! `driver::Experiment` + `serve_static` for Flash-Lite, Flash and
//! Apache over the §5.5 150 MB subtrace, plus FastCGI on each server.
//!
//! `Experiment::run_config` is one monolithic call (its own warm-up and
//! testbed construction happen inside it, as a `repro` user pays them),
//! so a window here is one fresh pass over all six configurations
//! rather than a slice of a longer run, and request latency cannot be
//! observed through it. Latency is therefore the wall time of the
//! driver's unit of work — one sequential `serve_static` call — over
//! the same sampled request stream on each of the three servers.

use std::time::Instant;

use iolite_core::CostModel;
use iolite_http::{Experiment, ExperimentConfig, ExperimentResult, ServerKind, WorkloadKind};
use iolite_sim::SimRng;
use iolite_trace::{TraceSpec, Workload};

use crate::layers::StaticRig;
use crate::span::{SpanId, Trace};
use crate::workloads::{CORPUS_SEED, WARMUP_SHARE, WINDOWS};

pub const SERVERS: [(ServerKind, &str); 3] = [
    (ServerKind::FlashLite, "flashlite"),
    (ServerKind::Flash, "flash"),
    (ServerKind::Apache, "apache"),
];

/// Sizes of one repetition.
#[derive(Debug, Clone, Copy)]
pub struct PaperSizes {
    pub clients: usize,
    /// Measured requests per trace-sampled `run_config` call (a quarter
    /// more are its warm-up).
    pub requests: u64,
    pub cgi_bytes: u64,
    /// Timed `serve_static` calls per server in the latency pass.
    pub latency_calls: usize,
}

/// One `run_config` call, timed from outside.
pub struct Call {
    pub server: &'static str,
    pub cgi: bool,
    pub wall_s: f64,
    pub result: ExperimentResult,
}

/// Everything one repetition measured.
pub struct PaperRep {
    pub setup_s: f64,
    pub synth_ms: f64,
    /// Every `run_config` call, window by window (six per window).
    pub calls: Vec<Call>,
    /// `serve_static` wall latency per call, ms, all servers pooled.
    pub latencies_ms: Vec<f64>,
    /// Mean `serve_static` call on the Flash-Lite rig, µs.
    pub serve_static_us: f64,
    /// Flash-Lite rig page mappings per call over the timed pass.
    pub pages_mapped_per_req: f64,
    pub errors: Vec<String>,
}

impl PaperRep {
    pub fn sim_req_per_s(&self) -> f64 {
        let reqs: u64 = self.calls.iter().map(|c| c.result.requests).sum();
        let sim: f64 = self.calls.iter().map(|c| c.result.sim_seconds).sum();
        reqs as f64 / sim.max(1e-12)
    }

    /// Bytes copied per measured request across all six configurations
    /// — the paper's thesis as a count (Flash-Lite's share is ~0).
    pub fn copied_bytes_per_req(&self) -> f64 {
        let reqs: u64 = self.calls.iter().map(|c| c.result.requests).sum();
        let copied: f64 = self
            .calls
            .iter()
            .map(|c| c.result.copied_per_request * c.result.requests as f64)
            .sum();
        copied / reqs.max(1) as f64
    }

    pub fn attempted(&self) -> u64 {
        self.calls.iter().map(|c| c.result.requests).sum::<u64>() + self.latencies_ms.len() as u64
    }
}

fn config(
    server: ServerKind,
    workload: WorkloadKind,
    sizes: &PaperSizes,
    requests: u64,
    seed: u64,
) -> ExperimentConfig {
    let mut cfg = ExperimentConfig::new(server, workload);
    cfg.clients = sizes.clients;
    cfg.requests = requests;
    cfg.warmup = requests / 4;
    cfg.seed = seed;
    cfg
}

/// Runs one repetition: synthesize the trace and build the latency
/// rigs (set-up), then `WINDOWS` fresh passes over the six
/// configurations, then the `serve_static` latency pass.
pub fn run_rep(
    sizes: &PaperSizes,
    seed: u64,
    mut trace: Option<(&mut Trace, SpanId)>,
    overhead_ns: f64,
) -> PaperRep {
    let t_setup = Instant::now();
    let workload = Workload::synthesize(&TraceSpec::subtrace_150mb(), CORPUS_SEED);
    let synth_ms = t_setup.elapsed().as_secs_f64() * 1e3;
    let cost = CostModel::pentium_ii_333();
    let mut rigs: Vec<StaticRig> = SERVERS
        .iter()
        .map(|(kind, _)| StaticRig::new(&workload, seed, cost, *kind, sizes.clients))
        .collect();
    // The same request stream for every server, warm-up first.
    let mut rng = SimRng::new(seed ^ 0x1a7e);
    let warm = (sizes.latency_calls as f64 * WARMUP_SHARE / (1.0 - WARMUP_SHARE)) as usize;
    let stream: Vec<usize> = (0..warm + sizes.latency_calls)
        .map(|_| workload.sample_request(&mut rng))
        .collect();
    for rig in &mut rigs {
        for &file in &stream[..warm] {
            rig.serve(file);
        }
    }
    let setup_s = t_setup.elapsed().as_secs_f64();

    let mut rep = PaperRep {
        setup_s,
        synth_ms,
        calls: Vec::new(),
        latencies_ms: Vec::with_capacity(3 * sizes.latency_calls),
        serve_static_us: 0.0,
        pages_mapped_per_req: 0.0,
        errors: Vec::new(),
    };
    for _ in 0..WINDOWS {
        for cgi in [false, true] {
            for (kind, name) in SERVERS {
                let (wk, requests) = if cgi {
                    (
                        WorkloadKind::Cgi {
                            bytes: sizes.cgi_bytes,
                        },
                        (sizes.requests / 4).max(8),
                    )
                } else {
                    (
                        WorkloadKind::TraceSampled {
                            workload: workload.clone(),
                        },
                        sizes.requests,
                    )
                };
                let cfg = config(kind, wk, sizes, requests, seed);
                let span = trace
                    .as_mut()
                    .map(|(t, parent)| t.open("run_config", *parent));
                let t0 = Instant::now();
                let result = Experiment::run_config(cfg);
                let wall_s = t0.elapsed().as_secs_f64();
                if let (Some((t, _)), Some(id)) = (trace.as_mut(), span) {
                    t.close(id);
                }
                if result.failed_requests != 0 {
                    rep.errors.push(format!(
                        "{name}: {} failed requests",
                        result.failed_requests
                    ));
                }
                if result.requests != requests {
                    rep.errors.push(format!(
                        "{name}: measured {} of {requests}",
                        result.requests
                    ));
                }
                rep.calls.push(Call {
                    server: name,
                    cgi,
                    wall_s,
                    result,
                });
            }
        }
    }

    // Latency pass: one timed call per request, per server.
    let files = workload.files();
    for (i, rig) in rigs.iter_mut().enumerate() {
        let mapped_before = rig.kernel.metrics.pages_mapped;
        let mut total_ns = 0.0;
        for &file in &stream[warm..] {
            let t0 = Instant::now();
            let bytes = rig.serve(file);
            let ns = (t0.elapsed().as_nanos() as f64 - overhead_ns).max(1.0);
            total_ns += ns;
            rep.latencies_ms.push(ns / 1e6);
            if bytes != crate::engine::response_len(files[file].bytes) {
                rep.errors.push(format!(
                    "{}: {bytes} response bytes for {}",
                    SERVERS[i].1, files[file].name
                ));
            }
        }
        if i == 0 {
            let n = sizes.latency_calls.max(1) as f64;
            rep.serve_static_us = total_ns / n / 1e3;
            rep.pages_mapped_per_req = (rig.kernel.metrics.pages_mapped - mapped_before) as f64 / n;
        }
    }
    rep
}
