//! The six workloads: what each one is, why it exists, and how its
//! inputs are made from the seed.
//!
//! Every workload is **closed loop**: a scripted client issues its next
//! request only when the previous response has completed (the only
//! arrival model the engine's public API offers), and all clients are
//! driven from one thread. Sizes are frozen here; `--seconds` scales
//! *requests per connection only*.

use iolite_fs::CacheOwnership;
use iolite_sim::SimRng;
use iolite_trace::{TraceSpec, Workload};

/// `run_seconds` in `BENCHMARK.json`: the run length the frozen
/// per-connection request counts below were sized for on the commit
/// that defined the benchmark.
pub const RUN_SECONDS: f64 = 10.0;

/// Identical repetitions per run: `setup_s` is their median, wall
/// metrics come from the quietest rendition of each window across
/// them, and the simulated-clock and count metrics must come out
/// bit-identical across them.
pub const REPS: usize = 8;

/// Equal-request windows per repetition.
pub const WINDOWS: u64 = 5;

/// Seed of every corpus *shape* (file count, sizes, popularity ranks).
/// The shape is part of a workload's definition, like its size: a
/// 64-file corpus redrawn per `--seed` is a different workload (mean
/// response size moves by ~6 %, so run-to-run spreads would measure the
/// inputs, not the program). `--seed` drives everything drawn *from*
/// the corpus: file contents, every request pick, which script entries
/// are PUTs, and their body lengths.
pub const CORPUS_SEED: u64 = 0x10_117E;

/// Share of every script served untimed first, so caches are full and
/// lazy set-up is done before the clock starts.
pub const WARMUP_SHARE: f64 = 0.2;

/// A workload served by ticking `EventLoopServer`s.
#[derive(Debug, Clone)]
pub struct TickSpec {
    pub corpus: TraceSpec,
    /// Simulated machine RAM per shard (sets the cache budget).
    pub ram_bytes: u64,
    /// Closed-loop client connections.
    pub conns: usize,
    /// Requests per connection for a `RUN_SECONDS` run, all
    /// repetitions together, warm-up included.
    pub reqs_per_conn: f64,
    /// Share of script entries that are `PUT`s (each replaces its
    /// document with new bytes of the same length).
    pub put_share: f64,
    /// Run the CAWL write-back scheduler (`WritebackConfig::default_tuning`).
    pub writeback: bool,
    pub shards: usize,
    pub ownership: CacheOwnership,
    pub admission_limit: usize,
}

/// What a workload runs.
#[derive(Debug, Clone)]
pub enum Kind {
    Tick(TickSpec),
    /// `driver::Experiment` over the paper's three servers.
    Paper {
        clients: usize,
        /// Measured requests per `run_config` call for a `RUN_SECONDS`
        /// run, all windows of all repetitions together.
        requests: f64,
        cgi_bytes: u64,
        /// Timed `serve_static` calls per server (the latency pass) for
        /// a `RUN_SECONDS` run, all repetitions together.
        latency_calls: f64,
    },
}

/// A named workload.
#[derive(Debug, Clone)]
pub struct Spec {
    pub name: &'static str,
    /// One line for `BENCHMARK.json`.
    pub why: &'static str,
    pub kind: Kind,
}

fn tick(corpus: TraceSpec, ram_mb: u64, conns: usize, reqs_per_conn: f64) -> TickSpec {
    TickSpec {
        corpus,
        ram_bytes: ram_mb << 20,
        conns,
        reqs_per_conn,
        put_share: 0.0,
        writeback: false,
        shards: 1,
        ownership: CacheOwnership::HomeOnly,
        admission_limit: 0,
    }
}

/// `SCALE-10K` of `crates/bench/benches/serve_scale.rs`: 10 k files,
/// 192 MB — three times the 64 MB it is served from.
fn scale_10k() -> TraceSpec {
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

/// `LOOP-512` of the same bench: the event-loop corpus.
fn loop_512() -> TraceSpec {
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

/// All workloads, in report order. Names are final: later issues cite
/// them.
pub fn all() -> Vec<Spec> {
    vec![
        Spec {
            name: "hot_small",
            why: "Everything cached (hit ~1, 0 evictions): per-request fixed cost dominates - parse, open/pread/write, poll scan, effect shell.",
            kind: Kind::Tick(tick(
                TraceSpec {
                    name: "HOT-512",
                    files: 512,
                    total_bytes: 4 << 20,
                    requests: 1_000_000,
                    mean_request_bytes: 4 << 10,
                    zipf_s: 1.0,
                    size_sigma: 1.2,
                },
                128,
                256,
                HOT_SMALL_REQS,
            )),
        },
        Spec {
            name: "churn_zipf",
            why: "Working set 3x the cache: eviction never stops, misses hit the simulated disk and recompute checksums, thousands of pins in flight.",
            kind: Kind::Tick(tick(scale_10k(), 64, 1024, CHURN_ZIPF_REQS)),
        },
        Spec {
            name: "big_stream",
            why: "Per-byte path: ~512 KB responses streamed window by window over ~45 ticks; aggregate range/advance, TCP and per-tick overhead dominate.",
            kind: Kind::Tick(tick(
                TraceSpec {
                    name: "BIG-64",
                    files: 64,
                    total_bytes: 64 << 20,
                    requests: 1_000_000,
                    mean_request_bytes: 512 << 10,
                    zipf_s: 0.6,
                    size_sigma: 0.8,
                },
                128,
                64,
                BIG_STREAM_REQS,
            )),
        },
        Spec {
            name: "put_mix30",
            why: "30% PUT: body ingest, dirty install, checksum invalidation, write-back and NVM between ticks - a read-path win that taxes writes shows here.",
            kind: Kind::Tick(TickSpec {
                put_share: 0.3,
                writeback: true,
                ..tick(loop_512(), 128, 1024, PUT_MIX30_REQS)
            }),
        },
        Spec {
            name: "shard2_home_only",
            why: "Two shards, HomeOnly: the fabric does the most work it can (~30% of requests are RemoteReads, each paying the Vec<u8> payload copy); single-thread pumped fleet.",
            kind: Kind::Tick(TickSpec {
                shards: 2,
                ownership: CacheOwnership::HomeOnly,
                admission_limit: 1024,
                ..tick(scale_10k(), 64, 2048, SHARD2_REQS)
            }),
        },
        Spec {
            name: "paper_servers",
            why: "driver::Experiment + serve_static for Flash-Lite/Flash/Apache and CGI: the engine behind every repro figure and the only user of the copy path, mmap and pipes.",
            kind: Kind::Paper {
                clients: 64,
                requests: PAPER_REQS,
                cgi_bytes: 20 << 10,
                latency_calls: PAPER_LATENCY_CALLS,
            },
        },
    ]
}

// Frozen sizes: requests per connection (or per `run_config` call) that
// make the timed phases of one run sum to ~RUN_SECONDS on the commit
// that defined the benchmark (2-core sandbox). A later change that
// makes the program faster shortens the run; it must not edit these.
const HOT_SMALL_REQS: f64 = 10_000.0;
const CHURN_ZIPF_REQS: f64 = 720.0;
const BIG_STREAM_REQS: f64 = 13_000.0;
const PUT_MIX30_REQS: f64 = 290.0;
const SHARD2_REQS: f64 = 420.0;
const PAPER_REQS: f64 = 240_000.0;
const PAPER_LATENCY_CALLS: f64 = 90_000.0;

/// Looks a workload up by name.
pub fn by_name(name: &str) -> Option<Spec> {
    all().into_iter().find(|s| s.name == name)
}

/// Requests per connection for one repetition of a `seconds` run.
pub fn scaled(per_run: f64, seconds: f64, parts: usize, floor: u64) -> u64 {
    ((per_run * seconds / RUN_SECONDS / parts as f64).round() as u64).max(floor)
}

/// One script entry, kept structured so the harness can recompute
/// expected response sizes without parsing its own strings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Entry {
    Get {
        file: usize,
    },
    /// Replace the document with new bytes of the same length.
    Put {
        file: usize,
    },
}

/// Everything a tick-driven repetition serves, derived from the seed.
pub struct TickInputs {
    /// The synthesized corpus (files most popular first).
    pub workload: Workload,
    /// What `Workload::synthesize` took, ms.
    pub synth_ms: f64,
    /// Seed of file `i`'s synthetic contents is `file_seed ^ bytes`.
    pub file_seed: u64,
    /// `(connection id, script)`; ids are structured (stride 4096) like
    /// the id spaces real listeners hand out.
    pub conns: Vec<(u64, Vec<Entry>)>,
}

impl TickInputs {
    /// File contents, scripts and PUT lengths from `seed` via `SimRng`
    /// over the frozen corpus shape: the same seed gives the same
    /// inputs, and the program sees only these.
    pub fn generate(spec: &TickSpec, seed: u64, reqs_per_conn: u64) -> TickInputs {
        let t0 = std::time::Instant::now();
        let workload = Workload::synthesize(&spec.corpus, CORPUS_SEED);
        let synth_ms = t0.elapsed().as_secs_f64() * 1e3;
        let mut root = SimRng::new(seed ^ 0x5eed_1011);
        let mut picks = root.fork(1);
        let mut puts = root.fork(2);
        let conns = (0..spec.conns)
            .map(|j| {
                let script = (0..reqs_per_conn)
                    .map(|_| {
                        let file = workload.sample_request(&mut picks);
                        if spec.put_share > 0.0 && puts.chance(spec.put_share) {
                            // A PUT replaces the document with new
                            // bytes of the same length. A random
                            // length would make every later GET of the
                            // file a different size, and Zipf 1.0 sends
                            // ~15 % of all requests to the top file: the
                            // run's byte volume would then hang on a
                            // handful of draws (it moved by 16 % from
                            // seed to seed when lengths were random).
                            Entry::Put { file }
                        } else {
                            Entry::Get { file }
                        }
                    })
                    .collect();
                (j as u64 * 4096, script)
            })
            .collect();
        TickInputs {
            workload,
            synth_ms,
            file_seed: seed,
            conns,
        }
    }

    /// The script strings `EventLoopServer` takes (`"PUT <path> <len>"`
    /// or a bare path).
    pub fn script_strings(&self, script: &[Entry]) -> Vec<String> {
        let files = self.workload.files();
        script
            .iter()
            .map(|e| match *e {
                Entry::Get { file } => files[file].name.clone(),
                Entry::Put { file } => format!("PUT {} {}", files[file].name, files[file].bytes),
            })
            .collect()
    }

    /// Scripted requests across all connections.
    pub fn scripted(&self) -> u64 {
        self.conns.iter().map(|(_, s)| s.len() as u64).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_final() {
        let names: Vec<_> = all().iter().map(|s| s.name).collect();
        assert_eq!(
            names,
            [
                "hot_small",
                "churn_zipf",
                "big_stream",
                "put_mix30",
                "shard2_home_only",
                "paper_servers"
            ]
        );
        for s in all() {
            assert!(s.why.len() <= 200, "{} why too long", s.name);
            assert!(!s.why.contains('\n'));
        }
    }

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let Kind::Tick(spec) = by_name("put_mix30").expect("exists").kind else {
            panic!("tick workload");
        };
        let a = TickInputs::generate(&spec, 7, 5);
        let b = TickInputs::generate(&spec, 7, 5);
        let c = TickInputs::generate(&spec, 8, 5);
        assert_eq!(a.conns, b.conns);
        assert_ne!(a.conns, c.conns);
        assert_eq!(a.scripted(), 1024 * 5);
        let puts = a
            .conns
            .iter()
            .flat_map(|(_, s)| s)
            .filter(|e| matches!(e, Entry::Put { .. }))
            .count();
        assert!(
            (1200..1900).contains(&puts),
            "~30% of 5120 are PUTs, got {puts}"
        );
        let top = a.workload.files()[0].bytes;
        assert!(a.script_strings(&[Entry::Put { file: 0 }])[0].ends_with(&format!(" {top}")));
        assert!(a
            .script_strings(&a.conns[0].1)
            .iter()
            .all(|s| s.starts_with('/') || s.starts_with("PUT /")));
    }

    #[test]
    fn seconds_scale_requests_only() {
        assert_eq!(scaled(4000.0, 10.0, 3, 5), 1333);
        assert_eq!(scaled(4000.0, 5.0, 3, 5), 667);
        assert_eq!(scaled(100.0, 0.1, 3, 5), 5, "floored for --quick");
    }
}
