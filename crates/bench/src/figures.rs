//! The paper's evaluation (§5) as a table: one [`Figure`] row per
//! figure in [`FIGURES`], computed through a [`Lab`] that runs each
//! figure, and each Figs. 10–12 experiment point, at most once.

use std::collections::BTreeMap;
use std::fmt;

use iolite_apps::{run_cat_grep, run_permute_wc, run_wc, ApiMode, AppCosts, CompilePipeline};
use iolite_core::{CostModel, Kernel};
use iolite_fs::Policy;
use iolite_http::{Experiment, ExperimentConfig, ServerKind, WorkloadKind};
use iolite_sim::SimTime;
use iolite_trace::{cdf::cdf_series, TraceSpec, Workload};

use crate::claims::Claim;

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

/// One figure of §5: what `repro <key>` prints and how it is computed.
pub struct Figure {
    /// The `repro` selector.
    pub key: &'static str,
    /// The heading line.
    pub title: &'static str,
    /// The paper's statements about the figure, printed under the title.
    pub paper: &'static [&'static str],
    /// Whether [`crate::claims::claims`] reads this figure (`check`
    /// computes only these).
    pub claimed: bool,
    /// Computes the figure's rows.
    pub run: fn(&mut Lab) -> Rows,
}

impl Figure {
    /// Prints the title, the paper's statements, then `rows`.
    pub fn print(&self, rows: &Rows) {
        println!("\n==== {} ====", self.title);
        for line in self.paper {
            println!("  paper: {line}");
        }
        print!("{rows}");
    }
}

/// Every figure, in paper (and `repro all`) order.
#[rustfmt::skip]
pub const FIGURES: [Figure; 11] = [
    Figure { key: "fig3", claimed: true, run: |lab| single_file_sweep(lab.scale, false, false),
        title: "Figure 3: HTTP single-file test (non-persistent, 40 clients)",
        paper: &["Flash-Lite +38-43% over Flash for >=50KB; +73-94% over Apache",
                 "Flash and Flash-Lite roughly equal at <=5KB",
                 "Flash up to +71% over Apache around 20KB"] },
    Figure { key: "fig4", claimed: true, run: |lab| single_file_sweep(lab.scale, true, false),
        title: "Figure 4: persistent-connection single-file test",
        paper: &["small-file rates rise strongly for Flash/Flash-Lite, little for Apache",
                 "Flash-Lite within 10% of network saturation at 17KB; saturates >=30KB",
                 "Flash-Lite up to +43% over Flash for >=20KB"] },
    Figure { key: "fig5", claimed: true, run: |lab| single_file_sweep(lab.scale, false, true),
        title: "Figure 5: HTTP/FastCGI (non-persistent)",
        paper: &["Flash/Apache CGI bandwidth roughly half their static rates",
                 "Flash-Lite CGI approaches 87% of its static speed",
                 "Flash-Lite CGI beats Flash static"] },
    Figure { key: "fig6", claimed: false, run: |lab| single_file_sweep(lab.scale, true, true),
        title: "Figure 6: persistent-HTTP/FastCGI",
        paper: &["Flash/Apache gain little from persistence (pipe-bound); Flash-Lite gains"] },
    Figure { key: "fig7", claimed: false,
        run: |_| Rows::Traces(full_traces().iter().map(trace_row).collect()),
        title: "Figure 7: trace characteristics (synthesized to published stats)",
        paper: &["ECE: 783529 reqs, 10195 files, 523MB; top 5000 files = 95% reqs / 39% bytes",
                 "CS: 3746842 reqs, 26948 files, 933MB",
                 "MERGED: 2290909 reqs, 37703 files, 1418MB"] },
    Figure { key: "fig8", claimed: false, run: fig08,
        title: "Figure 8: overall trace performance (64 clients, shared-log replay)",
        paper: &["Flash-Lite significantly outperforms Flash and Apache on ECE and CS",
                 "MERGED: poor locality, all servers disk-bound and close"] },
    Figure { key: "fig9", claimed: false,
        run: |_| Rows::Traces(vec![trace_row(&TraceSpec::subtrace_150mb())]),
        title: "Figure 9: 150MB MERGED subtrace",
        paper: &["28403 reqs, 5459 files, 150MB; top 1000 files = 74% reqs / 20% bytes"] },
    Figure { key: "fig10", claimed: true, run: |lab| lab.sweep("dataset MB", SERVER_COLS.to_vec(),
            dataset_sizes_mb().map(|mb| (mb, servers().map(|s| Point::lan(mb, s))))),
        title: "Figure 10: MERGED subtrace, bandwidth vs data-set size (64 clients)",
        paper: &["in-memory region: Flash-Lite +34-50% over Flash",
                 "disk-bound region: +44-67% (GDS cache policy)",
                 "Flash +65-88% over Apache in-memory, +71-110% disk-bound"] },
    Figure { key: "fig11", claimed: true, run: |lab| lab.sweep("dataset MB",
            FIG11_VARIANTS.map(|v| v.0).to_vec(),
            dataset_sizes_mb().map(|mb| (mb, FIG11_VARIANTS.map(|(_, server, policy, checksum_cache)|
                Point { policy, checksum_cache, ..Point::lan(mb, server) })))),
        title: "Figure 11: optimization contributions (Fig. 10 workload)",
        paper: &["copy elimination alone: 21-33% (FL-noCksum vs Flash, in-memory)",
                 "checksum caching: +10-15% on top",
                 "GDS vs LRU: +17-28% on disk-heavy workloads"] },
    Figure { key: "fig12", claimed: true, run: |lab| lab.sweep("RTT ms", SERVER_COLS.to_vec(),
            wan_points().map(|(rtt_ms, clients)| (rtt_ms as u64, servers().map(|s|
                Point { clients, rtt_ms, ..Point::lan(120, s) })))),
        title: "Figure 12: throughput vs WAN delay (120MB data set, clients 64->900)",
        paper: &["Flash drops ~33%, Apache ~50% as delay grows (socket copies squeeze cache)",
                 "Flash-Lite unaffected (references, not copies)"] },
    Figure { key: "fig13", claimed: true, run: |lab| Rows::Apps(fig13(lab.scale)),
        title: "Figure 13: application runtimes (POSIX vs IO-Lite)",
        paper: &["wc -37%, permute -33%, grep -48%, gcc ~0%"] },
];

/// Computed figures by [`Figure::key`]: what the claims judge.
pub type Figures = BTreeMap<&'static str, Rows>;

/// Computes figures on demand and keeps them, so a process computes each
/// figure, and each Figs. 10–12 experiment point, at most once.
pub struct Lab {
    scale: Scale,
    figures: Figures,
    subtrace: Option<Workload>,
    points: Vec<(Point, f64)>,
}

impl Lab {
    /// An empty lab at `scale`.
    pub fn new(scale: Scale) -> Self {
        Lab {
            scale,
            figures: Figures::new(),
            subtrace: None,
            points: Vec::new(),
        }
    }

    /// `figure`'s rows, computed on first use.
    pub fn figure(&mut self, figure: &Figure) -> &Rows {
        if !self.figures.contains_key(figure.key) {
            let rows = (figure.run)(self);
            self.figures.insert(figure.key, rows);
        }
        &self.figures[figure.key]
    }

    /// Every claim, judged after computing the figures it reads.
    pub fn claims(&mut self) -> Vec<Claim> {
        for figure in FIGURES.iter().filter(|f| f.claimed) {
            self.figure(figure);
        }
        crate::claims::claims(&self.figures)
    }

    /// A bandwidth table of sampled-trace points, one row per x.
    fn sweep<const N: usize>(
        &mut self,
        x: &'static str,
        cols: Vec<&'static str>,
        points: impl IntoIterator<Item = (u64, [Point; N])>,
    ) -> Rows {
        let rows = points
            .into_iter()
            .map(|(x, row)| BandwidthRow {
                x,
                mbps: row.into_iter().map(|p| self.sampled(p)).collect(),
            })
            .collect();
        Rows::Bandwidth { x, cols, rows }
    }

    /// Mb/s of one point of Figs. 10–12, run unless an identical point
    /// already has.
    fn sampled(&mut self, p: Point) -> f64 {
        if let Some(&(_, mbps)) = self.points.iter().find(|(q, _)| *q == p) {
            return mbps;
        }
        let base = self
            .subtrace
            .get_or_insert_with(|| Workload::synthesize(&TraceSpec::subtrace_150mb(), 42));
        let workload = if p.mb >= 150 {
            base.clone()
        } else {
            base.stratified_subset(p.mb << 20)
        };
        let mut cfg = ExperimentConfig::new(p.server, WorkloadKind::TraceSampled { workload });
        cfg.clients = p.clients;
        cfg.requests = self.scale.trace_requests;
        cfg.warmup = self.scale.trace_warmup;
        cfg.rtt_ms = p.rtt_ms;
        cfg.checksum_cache = p.checksum_cache;
        cfg.policy = p.policy;
        let mbps = Experiment::run_config(cfg).mbit_s;
        self.points.push((p, mbps));
        mbps
    }
}

/// One Figs. 10–12 experiment: every field in which their points
/// differ. Two equal points are the same experiment.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Point {
    /// Data set: the 150MB MERGED subtrace, stratified down to this.
    mb: u64,
    server: ServerKind,
    policy: Option<Policy>,
    checksum_cache: bool,
    clients: usize,
    rtt_ms: f64,
}

impl Point {
    /// A Fig. 10 point: 64 LAN clients, the server's own cache policy.
    fn lan(mb: u64, server: ServerKind) -> Point {
        Point {
            mb,
            server,
            policy: None,
            checksum_cache: true,
            clients: 64,
            rtt_ms: 0.0,
        }
    }
}

/// The server columns, in figure order.
const SERVER_COLS: [&str; 3] = ["Flash-Lite", "Flash", "Apache"];

/// The three servers in figure order.
pub(crate) fn servers() -> [ServerKind; 3] {
    [ServerKind::FlashLite, ServerKind::Flash, ServerKind::Apache]
}

/// Fig. 11's columns: Flash-Lite with and without GDS and the checksum
/// cache, against Flash — (label, server, policy override, checksum cache).
const FIG11_VARIANTS: [(&str, ServerKind, Option<Policy>, bool); 5] = [
    ("Flash-Lite", ServerKind::FlashLite, None, true),
    ("FL-LRU", ServerKind::FlashLite, Some(Policy::Lru), true),
    ("FL-noCksum", ServerKind::FlashLite, None, false),
    (
        "FL-LRU-noCksum",
        ServerKind::FlashLite,
        Some(Policy::Lru),
        false,
    ),
    ("Flash", ServerKind::Flash, None, true),
];

/// The document sizes of Figs. 3–6 ("the data points below 20KB are
/// 500 bytes, 1KB, 2KB, 3KB, 5KB, 7KB, 10KB, and 15KB").
pub(crate) fn figure_sizes() -> Vec<u64> {
    let kb = [1, 2, 3, 5, 7, 10, 15, 20, 30, 50, 75, 100, 150, 200].map(|kb| kb << 10);
    std::iter::once(500).chain(kb).collect()
}

/// The Fig. 10 / Fig. 11 data-set sizes (MB).
pub(crate) fn dataset_sizes_mb() -> [u64; 5] {
    [30, 60, 90, 120, 150]
}

/// The Fig. 12 delay points: (RTT ms, client count), scaling clients
/// linearly from 64 (LAN) to 900 (150ms) as §5.7 describes.
pub(crate) fn wan_points() -> [(f64, usize); 5] {
    [0.0f64, 5.0, 50.0, 100.0, 150.0]
        .map(|d| (d, (64.0 + (900.0 - 64.0) * d / 150.0).round() as usize))
}

/// A computed figure.
#[derive(Debug, Clone)]
pub enum Rows {
    /// Figs. 3–6 and 10–12: Mb/s per column at each x.
    Bandwidth {
        /// The x axis (`"size"` prints bytes as B/KB).
        x: &'static str,
        /// Column labels.
        cols: Vec<&'static str>,
        /// One row per x.
        rows: Vec<BandwidthRow>,
    },
    /// Figs. 7 and 9: trace statistics.
    Traces(Vec<TraceRow>),
    /// Fig. 8: Mb/s and hit rate per server, per trace.
    Servers(Vec<TraceBandwidthRow>),
    /// Fig. 13: application runtimes.
    Apps(Vec<AppRow>),
}

/// `label` right-aligned, ` 123.4Mb` per value, then `end`.
fn mbps_line(f: &mut fmt::Formatter<'_>, label: &str, mbps: &[f64], end: &str) -> fmt::Result {
    write!(f, "{label:>10}")?;
    mbps.iter().try_for_each(|v| write!(f, " {v:>10.1}Mb"))?;
    writeln!(f, "{end}")
}

/// `x` right-aligned, each column label, then `end`.
fn head_line(f: &mut fmt::Formatter<'_>, x: &str, cols: &[&str], end: &str) -> fmt::Result {
    write!(f, "{x:>10}")?;
    cols.iter().try_for_each(|c| write!(f, " {c:>12}"))?;
    writeln!(f, "{end}")
}

impl fmt::Display for Rows {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Rows::Bandwidth { x, cols, rows } => {
                head_line(f, x, cols, "")?;
                for row in rows {
                    let label = match (*x, row.x) {
                        ("size", b) if b >= 1024 => format!("{}KB", b >> 10),
                        ("size", b) => format!("{b}B"),
                        (_, x) => x.to_string(),
                    };
                    mbps_line(f, &label, &row.mbps, "")?;
                }
            }
            Rows::Traces(rows) => {
                for row in rows {
                    writeln!(
                        f,
                        "{:>14}: {} files, {} paper-log requests, {}MB, mean request {:.1}KB",
                        row.name, row.files, row.requests, row.total_mb, row.mean_request_kb
                    )?;
                    for (files, reqs, bytes) in &row.anchors {
                        let (reqs, bytes) = (100.0 * reqs, 100.0 * bytes);
                        writeln!(
                            f,
                            "              top {files:>6} files: {reqs:>5.1}% of requests, {bytes:>5.1}% of bytes"
                        )?;
                    }
                }
            }
            Rows::Servers(rows) => {
                head_line(f, "trace", &SERVER_COLS, "   (hit rates)")?;
                for row in rows {
                    let [a, b, c] = [0, 1, 2].map(|i| row.hit_rates[i]);
                    let end = format!("   ({a:.2}/{b:.2}/{c:.2})");
                    mbps_line(f, &row.name, &row.mbps, &end)?;
                }
            }
            Rows::Apps(rows) => {
                writeln!(
                    f,
                    "       app        POSIX      IO-Lite   measured      paper"
                )?;
                for r in rows {
                    let (name, posix, iolite) = (r.name, r.posix_ms, r.iolite_ms);
                    let (measured, paper) = (r.reduction_pct(), r.paper_reduction_pct);
                    writeln!(
                        f,
                        "{name:>10} {posix:>10.1}ms {iolite:>10.1}ms {measured:>9.1}% {paper:>9.1}%"
                    )?;
                }
            }
        }
        Ok(())
    }
}

/// One bandwidth row: size plus Mb/s per server.
#[derive(Debug, Clone)]
pub struct BandwidthRow {
    /// Document size (bytes) or sweep parameter.
    pub x: u64,
    /// Mb/s for [Flash-Lite, Flash, Apache] (or variant list).
    pub mbps: Vec<f64>,
}

/// Figs. 3–6: every server at every document size.
fn single_file_sweep(scale: Scale, persistent: bool, cgi: bool) -> Rows {
    let point = |bytes, server| {
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
    };
    let rows = figure_sizes()
        .into_iter()
        .map(|x| BandwidthRow {
            x,
            mbps: servers().map(|server| point(x, server)).to_vec(),
        })
        .collect();
    Rows::Bandwidth {
        x: "size",
        cols: SERVER_COLS.to_vec(),
        rows,
    }
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

/// The three full traces of Figs. 7 and 8.
fn full_traces() -> [TraceSpec; 3] {
    [TraceSpec::ece(), TraceSpec::cs(), TraceSpec::merged()]
}

fn trace_row(spec: &TraceSpec) -> TraceRow {
    let w = Workload::synthesize(spec, 42);
    let series = cdf_series(&w, 100);
    let anchors = [10, 4, 2, 1]
        .into_iter()
        .filter_map(|d| series.iter().find(|p| p.files >= w.len() / d))
        .map(|p| (p.files, p.cum_requests, p.cum_bytes))
        .collect();
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
fn fig08(lab: &mut Lab) -> Rows {
    let scale = lab.scale;
    let run = |w: &Workload, server| {
        let log_len = scale.trace_requests + scale.trace_warmup;
        let workload = w.clone();
        let mut cfg =
            ExperimentConfig::new(server, WorkloadKind::TraceReplay { workload, log_len });
        cfg.clients = 64;
        cfg.requests = scale.trace_requests;
        cfg.warmup = scale.trace_warmup;
        Experiment::run_config(cfg)
    };
    let rows = full_traces().map(|spec| {
        let w = Workload::synthesize(&spec, 42);
        let runs = servers().map(|server| run(&w, server));
        TraceBandwidthRow {
            name: spec.name.to_string(),
            mbps: runs.iter().map(|r| r.mbit_s).collect(),
            hit_rates: runs.iter().map(|r| r.hit_rate).collect(),
        }
    });
    Rows::Servers(rows.to_vec())
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

/// Times `app` under POSIX and then IO-Lite, each on a freshly reset
/// clock; `warm` first runs it once untimed (a cached input file).
fn app_row(
    name: &'static str,
    paper_reduction_pct: f64,
    warm: bool,
    k: &mut Kernel,
    mut app: impl FnMut(&mut Kernel, ApiMode) -> SimTime,
) -> AppRow {
    if warm {
        app(k, ApiMode::Posix);
        k.reset_clock();
    }
    let posix_ms = app(k, ApiMode::Posix).as_ms();
    k.reset_clock();
    let iolite_ms = app(k, ApiMode::IoLite).as_ms();
    AppRow {
        name,
        posix_ms,
        iolite_ms,
        paper_reduction_pct,
    }
}

/// Fig. 13: wc, cat|grep, permute|wc, gcc runtimes.
pub fn fig13(scale: Scale) -> Vec<AppRow> {
    let costs = AppCosts::calibrated();
    let machine = || Kernel::new(CostModel::pentium_ii_333());

    // wc on a cached 1.75MB file.
    let mut k = machine();
    let pid = k.spawn("wc");
    let f = k.create_synthetic_file("/big.txt", 1_750_000, 1);
    let wc = app_row("wc", 37.0, true, &mut k, |k, m| {
        run_wc(k, pid, f, m, &costs).1
    });

    // permute | wc.
    let mut k = machine();
    let (p, wcp) = (k.spawn("permute"), k.spawn("wc"));
    let permute = app_row("permute", 33.0, false, &mut k, |k, mode| {
        run_permute_wc(k, p, wcp, scale.permute_n, mode, &costs).1
    });

    // cat | grep on 1.75MB.
    let mut k = machine();
    let (cat, grep_pid) = (k.spawn("cat"), k.spawn("grep"));
    let mut text = Vec::new();
    while text.len() < 1_750_000 {
        text.extend_from_slice(b"ordinary prose line with nothing special here\n");
        text.extend_from_slice(b"a line that mentions iolite for the pattern\n");
    }
    let f = k.create_file("/prose.txt", &text);
    let grep = app_row("grep", 48.0, true, &mut k, |k, mode| {
        run_cat_grep(k, cat, grep_pid, f, b"iolite", mode, &costs).1
    });

    // gcc chain on a 167KB source set.
    let mut k = machine();
    let pipeline = CompilePipeline::new(&mut k);
    let src = k.create_synthetic_file("/src.c", 167_000, 3);
    let gcc = app_row("gcc", 0.0, true, &mut k, |k, m| {
        pipeline.compile(k, src, m, &costs).1
    });

    vec![wc, permute, grep, gcc]
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
        let Rows::Bandwidth { rows, .. } = (FIGURES[0].run)(&mut Lab::new(short())) else {
            panic!("fig3 is a bandwidth table");
        };
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
