//! The knob set that fully determines a storm.
//!
//! A [`StormConfig`] plus nothing else reproduces a run bit-for-bit:
//! every random draw (corpus sizes, request scripts, client roles,
//! per-segment fault coin flips, jitter delays) comes from
//! [`iolite_sim::SimRng`] streams forked from `seed`, and all ordering
//! comes from [`iolite_sim::EventQueue`]'s deterministic tie-breaking.

/// Seed plus fault-rate knobs for one storm run. Everything the run
/// does — corpus, scripts, roles, losses, delays — derives from these
/// fields alone.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StormConfig {
    /// Root seed; every sub-stream forks from it.
    pub seed: u64,
    /// Shards in the fleet (1 = single kernel, no fabric traffic).
    pub shards: usize,
    /// Closed-loop clients (each is one connection).
    pub clients: usize,
    /// Requests per client script.
    pub requests_per_client: usize,
    /// Files in the synthetic corpus (`/f0`, `/f1`, …).
    pub files: usize,
    /// Largest corpus file, bytes (sizes are drawn in `[512, max]`).
    pub max_file_bytes: u64,
    /// Per-segment (and per-ACK) drop probability.
    pub loss: f64,
    /// Per-segment duplication probability (the copy takes its own
    /// jittered path, so duplicates commonly arrive out of order).
    pub dup: f64,
    /// Probability a segment draws extra jitter delay — the reordering
    /// mechanism: a delayed segment is overtaken by its successors.
    pub reorder: f64,
    /// Round-trip propagation time, microseconds (one-way = half).
    pub rtt_us: u64,
    /// Maximum extra delay for a reordered segment, microseconds.
    pub jitter_us: u64,
    /// Fraction of clients playing slowloris: request bytes dribbled a
    /// few bytes per beat, response bytes consumed (and thus ACKed) in
    /// small paced chunks instead of at wire speed.
    pub slowloris: f64,
    /// Fraction of clients that reset (FIN/RST) mid-response.
    pub reset: f64,
    /// Fraction of clients with a staggered (late) start — connection
    /// churn: conns come alive and die throughout the run instead of
    /// in lockstep.
    pub churn: f64,
    /// Server tick cadence in simulated microseconds.
    pub tick_us: u64,
    /// Slowloris pacing beat, microseconds.
    pub slow_interval_us: u64,
    /// Response bytes a slowloris client consumes per beat.
    pub slow_chunk: u64,
    /// Wire flight-size cap per direction, bytes (the sliding window).
    pub wire_window: u64,
    /// Probability a script entry is a PUT upload instead of a GET.
    /// Zero keeps the plan's RNG draw sequence byte-identical to the
    /// read-only engine (the PUT draws are guarded), so every pinned
    /// pre-write seed still reproduces exactly.
    pub put: f64,
    /// Largest PUT body, bytes (lengths are drawn in `[1, max]`).
    pub max_put_bytes: u64,
    /// Safety bound on the ticks of one storm (the harness drives
    /// `tick()` itself, so this is its own wedge guard).
    pub max_ticks: u64,
    /// Record exact response bytes (equivalence suites; off for speed).
    pub capture_responses: bool,
}

impl StormConfig {
    /// A moderately hostile default: ~1% loss, 1% duplication, heavy
    /// reordering, a quarter of the clients slowloris, no resets or
    /// churn (every request must complete).
    pub fn hostile(seed: u64) -> StormConfig {
        StormConfig {
            seed,
            shards: 1,
            clients: 8,
            requests_per_client: 2,
            files: 6,
            max_file_bytes: 24 * 1024,
            loss: 0.01,
            dup: 0.01,
            reorder: 0.25,
            rtt_us: 2_000,
            jitter_us: 1_500,
            slowloris: 0.25,
            reset: 0.0,
            churn: 0.0,
            tick_us: 200,
            slow_interval_us: 1_000,
            slow_chunk: 2 * 1024,
            wire_window: 16 * 1460,
            put: 0.0,
            max_put_bytes: 8 * 1024,
            max_ticks: 2_000_000,
            capture_responses: false,
        }
    }

    /// A clean wire: no loss, no duplication, no reordering, no jitter,
    /// every client at full speed. The anchor for equivalence checks.
    pub fn calm(seed: u64) -> StormConfig {
        StormConfig {
            loss: 0.0,
            dup: 0.0,
            reorder: 0.0,
            jitter_us: 0,
            slowloris: 0.0,
            ..StormConfig::hostile(seed)
        }
    }

    /// Everything at once: loss, duplication, reordering, slowloris,
    /// mid-response resets, and connection churn. Completion of every
    /// request is *not* guaranteed here — the contract is that the
    /// server survives, stays readiness-driven, and leaks nothing.
    pub fn chaos(seed: u64) -> StormConfig {
        StormConfig {
            loss: 0.02,
            dup: 0.02,
            reset: 0.3,
            churn: 0.4,
            ..StormConfig::hostile(seed)
        }
    }

    /// The hostile wire with a third of the traffic PUT uploads: lost,
    /// reordered, and dribbled request *bodies* now hit the write
    /// path's ingest, and every request must still complete.
    pub fn writes(seed: u64) -> StormConfig {
        StormConfig {
            put: 0.35,
            ..StormConfig::hostile(seed)
        }
    }

    /// [`StormConfig::chaos`] plus PUT traffic: uploads torn mid-body
    /// by resets, duplicated body segments, churned writers. The
    /// contract gains a clause — a lost or reordered body must never
    /// corrupt the cache (cache-vs-store consistency is audited at end
    /// of run) or wedge a connection.
    pub fn write_chaos(seed: u64) -> StormConfig {
        StormConfig {
            put: 0.35,
            ..StormConfig::chaos(seed)
        }
    }
}
