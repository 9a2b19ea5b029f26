//! One regeneration function per figure (paper §5).

use iolite_apps::{run_cat_grep, run_permute_wc, run_wc, ApiMode, AppCosts, CompilePipeline};
use iolite_core::{CostModel, Kernel};
use iolite_fs::Policy;
use iolite_http::{Experiment, ExperimentConfig, ServerKind, WorkloadKind};
use iolite_trace::{cdf::cdf_series, TraceSpec, Workload};

/// Run lengths per data point. [`Scale::full`] is the one set `repro`
/// runs: shorter runs do not carry the paper's claims (fig. 11's
/// disk-bound point and fig. 12's delay sweep need these lengths).
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Measured requests per data point.
    pub requests: u64,
    /// Warm-up requests per data point.
    pub warmup: u64,
    /// Requests for trace-replay points.
    pub trace_requests: u64,
    /// Warm-up requests for trace points. The paper's trace runs last
    /// one hour; compulsory (first-touch) misses are a negligible
    /// fraction there, so shorter replays must warm the cache first or
    /// cold misses drown the steady-state signal.
    pub trace_warmup: u64,
    /// Permute word count (10 in the paper).
    pub permute_n: usize,
}

impl Scale {
    /// Paper-approximating run lengths.
    pub fn full() -> Self {
        Scale {
            requests: 3000,
            warmup: 300,
            trace_requests: 50_000,
            trace_warmup: 25_000,
            permute_n: 10,
        }
    }
}

/// The document sizes of Figs. 3–6 ("the data points below 20KB are
/// 500 bytes, 1KB, 2KB, 3KB, 5KB, 7KB, 10KB, and 15KB").
pub(crate) fn figure_sizes() -> Vec<u64> {
    vec![
        500,
        1 << 10,
        2 << 10,
        3 << 10,
        5 << 10,
        7 << 10,
        10 << 10,
        15 << 10,
        20 << 10,
        30 << 10,
        50 << 10,
        75 << 10,
        100 << 10,
        150 << 10,
        200 << 10,
    ]
}

/// The three servers in figure order.
pub(crate) fn servers() -> [ServerKind; 3] {
    [ServerKind::FlashLite, ServerKind::Flash, ServerKind::Apache]
}

/// One bandwidth row: size plus Mb/s per server.
#[derive(Debug, Clone)]
pub struct BandwidthRow {
    /// Document size (bytes) or sweep parameter.
    pub x: u64,
    /// Mb/s for [Flash-Lite, Flash, Apache] (or variant list).
    pub mbps: Vec<f64>,
}

fn single_file_sweep(scale: Scale, persistent: bool, cgi: bool) -> Vec<BandwidthRow> {
    figure_sizes()
        .into_iter()
        .map(|bytes| {
            let mbps = servers()
                .iter()
                .map(|&server| {
                    let workload = if cgi {
                        WorkloadKind::Cgi { bytes }
                    } else {
                        WorkloadKind::SingleFile { bytes }
                    };
                    let mut cfg = ExperimentConfig::new(server, workload);
                    cfg.requests = scale.requests;
                    cfg.warmup = scale.warmup;
                    cfg.persistent = persistent;
                    Experiment::run_config(cfg).mbit_s
                })
                .collect();
            BandwidthRow { x: bytes, mbps }
        })
        .collect()
}

/// Fig. 3: HTTP single-file test, non-persistent connections.
pub fn fig03(scale: Scale) -> Vec<BandwidthRow> {
    single_file_sweep(scale, false, false)
}

/// Fig. 4: persistent (HTTP/1.1) single-file test.
pub fn fig04(scale: Scale) -> Vec<BandwidthRow> {
    single_file_sweep(scale, true, false)
}

/// Fig. 5: HTTP/FastCGI, non-persistent.
pub fn fig05(scale: Scale) -> Vec<BandwidthRow> {
    single_file_sweep(scale, false, true)
}

/// Fig. 6: persistent-HTTP/FastCGI.
pub fn fig06(scale: Scale) -> Vec<BandwidthRow> {
    single_file_sweep(scale, true, true)
}

/// A Fig. 7 / Fig. 9 row: trace statistics plus CDF anchors.
#[derive(Debug, Clone)]
pub struct TraceRow {
    /// Trace name.
    pub name: String,
    /// Files, requests, total MB, mean request KB (achieved).
    pub files: usize,
    /// Requests in the original log.
    pub requests: u64,
    /// Total data size, MB.
    pub total_mb: u64,
    /// Achieved mean request size, KB.
    pub mean_request_kb: f64,
    /// CDF: (files, cum-requests, cum-bytes) anchor points.
    pub anchors: Vec<(usize, f64, f64)>,
}

/// Fig. 7: characteristics of the ECE / CS / MERGED traces.
pub fn fig07() -> Vec<TraceRow> {
    [TraceSpec::ece(), TraceSpec::cs(), TraceSpec::merged()]
        .into_iter()
        .map(|spec| trace_row(&spec))
        .collect()
}

/// Fig. 9: the 150MB MERGED subtrace.
pub fn fig09() -> TraceRow {
    trace_row(&TraceSpec::subtrace_150mb())
}

fn trace_row(spec: &TraceSpec) -> TraceRow {
    let w = Workload::synthesize(spec, 42);
    let series = cdf_series(&w, 100);
    let anchor_files: Vec<usize> = vec![w.len() / 10, w.len() / 4, w.len() / 2, w.len()];
    let mut anchors = Vec::new();
    for af in anchor_files {
        if let Some(p) = series.iter().find(|p| p.files >= af) {
            anchors.push((p.files, p.cum_requests, p.cum_bytes));
        }
    }
    TraceRow {
        name: spec.name.to_string(),
        files: w.len(),
        requests: spec.requests,
        total_mb: w.total_bytes() >> 20,
        mean_request_kb: w.mean_request_bytes() / 1024.0,
        anchors,
    }
}

/// A Fig. 8 row: one trace, Mb/s per server.
#[derive(Debug, Clone)]
pub struct TraceBandwidthRow {
    /// Trace name.
    pub name: String,
    /// Mb/s for [Flash-Lite, Flash, Apache].
    pub mbps: Vec<f64>,
    /// Hit rate per server (diagnostics).
    pub hit_rates: Vec<f64>,
}

/// Fig. 8: overall trace performance, 64 clients, shared-log replay.
pub fn fig08(scale: Scale) -> Vec<TraceBandwidthRow> {
    [TraceSpec::ece(), TraceSpec::cs(), TraceSpec::merged()]
        .into_iter()
        .map(|spec| {
            let w = Workload::synthesize(&spec, 42);
            let mut mbps = Vec::new();
            let mut hit_rates = Vec::new();
            for server in servers() {
                let mut cfg = ExperimentConfig::new(
                    server,
                    WorkloadKind::TraceReplay {
                        workload: w.clone(),
                        log_len: scale.trace_requests + scale.trace_warmup,
                    },
                );
                cfg.clients = 64;
                cfg.requests = scale.trace_requests;
                cfg.warmup = scale.trace_warmup;
                let r = Experiment::run_config(cfg);
                mbps.push(r.mbit_s);
                hit_rates.push(r.hit_rate);
            }
            TraceBandwidthRow {
                name: spec.name.to_string(),
                mbps,
                hit_rates,
            }
        })
        .collect()
}

/// The Fig. 10 / Fig. 11 data-set sizes (MB).
pub(crate) fn dataset_sizes_mb() -> Vec<u64> {
    vec![30, 60, 90, 120, 150]
}

/// Fig. 10: MERGED subtrace, bandwidth vs data-set size.
pub fn fig10(scale: Scale) -> Vec<BandwidthRow> {
    let base = Workload::synthesize(&TraceSpec::subtrace_150mb(), 42);
    dataset_sizes_mb()
        .into_iter()
        .map(|mb| {
            let w = if mb >= 150 {
                base.clone()
            } else {
                base.stratified_subset(mb << 20)
            };
            let mbps = servers()
                .iter()
                .map(|&server| {
                    let mut cfg = ExperimentConfig::new(
                        server,
                        WorkloadKind::TraceSampled {
                            workload: w.clone(),
                        },
                    );
                    cfg.clients = 64;
                    cfg.requests = scale.trace_requests;
                    cfg.warmup = scale.trace_warmup;
                    Experiment::run_config(cfg).mbit_s
                })
                .collect();
            BandwidthRow { x: mb, mbps }
        })
        .collect()
}

/// Fig. 11 variant labels, in column order.
pub fn fig11_variants() -> [&'static str; 5] {
    [
        "Flash-Lite",
        "FL-LRU",
        "FL-noCksum",
        "FL-LRU-noCksum",
        "Flash",
    ]
}

/// Fig. 11: optimization contributions — Flash-Lite with/without the
/// checksum cache and with GDS vs LRU, against Flash.
pub fn fig11(scale: Scale) -> Vec<BandwidthRow> {
    let base = Workload::synthesize(&TraceSpec::subtrace_150mb(), 42);
    dataset_sizes_mb()
        .into_iter()
        .map(|mb| {
            let w = if mb >= 150 {
                base.clone()
            } else {
                base.stratified_subset(mb << 20)
            };
            let variants: Vec<(ServerKind, Option<Policy>, bool)> = vec![
                (ServerKind::FlashLite, None, true),
                (ServerKind::FlashLite, Some(Policy::Lru), true),
                (ServerKind::FlashLite, None, false),
                (ServerKind::FlashLite, Some(Policy::Lru), false),
                (ServerKind::Flash, None, true),
            ];
            let mbps = variants
                .into_iter()
                .map(|(server, policy, cksum)| {
                    let mut cfg = ExperimentConfig::new(
                        server,
                        WorkloadKind::TraceSampled {
                            workload: w.clone(),
                        },
                    );
                    cfg.clients = 64;
                    cfg.requests = scale.trace_requests;
                    cfg.warmup = scale.trace_warmup;
                    cfg.policy = policy;
                    cfg.checksum_cache = cksum;
                    Experiment::run_config(cfg).mbit_s
                })
                .collect();
            BandwidthRow { x: mb, mbps }
        })
        .collect()
}

/// The Fig. 12 delay points: (RTT ms, client count), scaling clients
/// linearly from 64 (LAN) to 900 (150ms) as §5.7 describes.
pub(crate) fn wan_points() -> Vec<(f64, usize)> {
    [0.0f64, 5.0, 50.0, 100.0, 150.0]
        .into_iter()
        .map(|d| (d, (64.0 + (900.0 - 64.0) * d / 150.0).round() as usize))
        .collect()
}

/// Fig. 12: throughput vs WAN delay, 120MB data set.
pub fn fig12(scale: Scale) -> Vec<BandwidthRow> {
    let base = Workload::synthesize(&TraceSpec::subtrace_150mb(), 42);
    let w = base.stratified_subset(120 << 20);
    wan_points()
        .into_iter()
        .map(|(rtt_ms, clients)| {
            let mbps = servers()
                .iter()
                .map(|&server| {
                    let mut cfg = ExperimentConfig::new(
                        server,
                        WorkloadKind::TraceSampled {
                            workload: w.clone(),
                        },
                    );
                    cfg.clients = clients;
                    cfg.requests = scale.trace_requests;
                    cfg.warmup = scale.trace_warmup;
                    cfg.rtt_ms = rtt_ms;
                    Experiment::run_config(cfg).mbit_s
                })
                .collect();
            BandwidthRow {
                x: rtt_ms as u64,
                mbps,
            }
        })
        .collect()
}

/// A Fig. 13 row: application runtimes under both APIs.
#[derive(Debug, Clone)]
pub struct AppRow {
    /// Application name.
    pub name: &'static str,
    /// Conventional (POSIX) runtime, ms.
    pub posix_ms: f64,
    /// IO-Lite runtime, ms.
    pub iolite_ms: f64,
    /// The paper's reported reduction, percent.
    pub paper_reduction_pct: f64,
}

impl AppRow {
    /// Measured runtime reduction, percent.
    pub fn reduction_pct(&self) -> f64 {
        100.0 * (1.0 - self.iolite_ms / self.posix_ms)
    }
}

/// Fig. 13: wc, cat|grep, permute|wc, gcc runtimes.
pub fn fig13(scale: Scale) -> Vec<AppRow> {
    let costs = AppCosts::calibrated();
    let mut rows = Vec::new();

    // wc on a cached 1.75MB file.
    let mut k = Kernel::new(CostModel::pentium_ii_333());
    let pid = k.spawn("wc");
    let f = k.create_synthetic_file("/big.txt", 1_750_000, 1);
    run_wc(&mut k, pid, f, ApiMode::Posix, &costs);
    k.reset_clock();
    let (_, posix) = run_wc(&mut k, pid, f, ApiMode::Posix, &costs);
    k.reset_clock();
    let (_, iolite) = run_wc(&mut k, pid, f, ApiMode::IoLite, &costs);
    rows.push(AppRow {
        name: "wc",
        posix_ms: posix.as_ms(),
        iolite_ms: iolite.as_ms(),
        paper_reduction_pct: 37.0,
    });

    // permute | wc.
    let mut k = Kernel::new(CostModel::pentium_ii_333());
    let p = k.spawn("permute");
    let wcp = k.spawn("wc");
    let (_, posix) = run_permute_wc(&mut k, p, wcp, scale.permute_n, ApiMode::Posix, &costs);
    k.reset_clock();
    let (_, iolite) = run_permute_wc(&mut k, p, wcp, scale.permute_n, ApiMode::IoLite, &costs);
    rows.push(AppRow {
        name: "permute",
        posix_ms: posix.as_ms(),
        iolite_ms: iolite.as_ms(),
        paper_reduction_pct: 33.0,
    });

    // cat | grep on 1.75MB.
    let mut k = Kernel::new(CostModel::pentium_ii_333());
    let cat = k.spawn("cat");
    let grep = k.spawn("grep");
    let mut text = Vec::new();
    while text.len() < 1_750_000 {
        text.extend_from_slice(b"ordinary prose line with nothing special here\n");
        text.extend_from_slice(b"a line that mentions iolite for the pattern\n");
    }
    let f = k.create_file("/prose.txt", &text);
    run_cat_grep(&mut k, cat, grep, f, b"iolite", ApiMode::Posix, &costs);
    k.reset_clock();
    let (_, posix) = run_cat_grep(&mut k, cat, grep, f, b"iolite", ApiMode::Posix, &costs);
    k.reset_clock();
    let (_, iolite) = run_cat_grep(&mut k, cat, grep, f, b"iolite", ApiMode::IoLite, &costs);
    rows.push(AppRow {
        name: "grep",
        posix_ms: posix.as_ms(),
        iolite_ms: iolite.as_ms(),
        paper_reduction_pct: 48.0,
    });

    // gcc chain on a 167KB source set.
    let mut k = Kernel::new(CostModel::pentium_ii_333());
    let pipeline = CompilePipeline::new(&mut k);
    let src = k.create_synthetic_file("/src.c", 167_000, 3);
    pipeline.compile(&mut k, src, ApiMode::Posix, &costs);
    k.reset_clock();
    let (_, posix) = pipeline.compile(&mut k, src, ApiMode::Posix, &costs);
    k.reset_clock();
    let (_, iolite) = pipeline.compile(&mut k, src, ApiMode::IoLite, &costs);
    rows.push(AppRow {
        name: "gcc",
        posix_ms: posix.as_ms(),
        iolite_ms: iolite.as_ms(),
        paper_reduction_pct: 0.0,
    });

    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure_sizes_match_paper_list() {
        let sizes = figure_sizes();
        assert_eq!(sizes[0], 500);
        assert!(sizes.contains(&(15 << 10)));
        assert_eq!(*sizes.last().unwrap(), 200 << 10);
    }

    #[test]
    fn wan_points_scale_linearly() {
        let pts = wan_points();
        assert_eq!(pts[0], (0.0, 64));
        assert_eq!(pts.last().unwrap().1, 900);
    }

    /// Shapes and directions hold well below the paper's run lengths;
    /// the magnitudes `repro check` gates do not.
    fn short() -> Scale {
        Scale {
            requests: 600,
            warmup: 100,
            permute_n: 7,
            ..Scale::full()
        }
    }

    #[test]
    fn fig03_fast_has_correct_shape() {
        let rows = fig03(short());
        assert_eq!(rows.len(), figure_sizes().len());
        let last = rows.last().unwrap();
        // Flash-Lite > Flash > Apache at 200KB.
        assert!(last.mbps[0] > last.mbps[1]);
        assert!(last.mbps[1] > last.mbps[2]);
    }

    #[test]
    fn fig13_fast_directions() {
        let rows = fig13(short());
        let by_name = |n: &str| rows.iter().find(|r| r.name == n).unwrap().reduction_pct();
        assert!(by_name("wc") > 20.0);
        assert!(by_name("grep") > 30.0);
        assert!(by_name("permute") > 20.0);
        assert!(by_name("gcc").abs() < 5.0);
    }
}
