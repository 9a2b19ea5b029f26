//! The metric catalog: every name the benchmark reports, with its unit
//! and direction. `BENCHMARK.json` is generated from these tables
//! (`iolite-perf manifest`) and a unit test keeps the committed file in
//! step, so the contract and the code cannot drift apart.

use std::collections::BTreeMap;

use crate::json::{obj, Value};
use crate::workloads;

/// Which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// An end-to-end metric: what a user of the system would see. `bound`
/// is the share of the parent's median by which it may worsen before a
/// change counts as a regression.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

/// A single layer's metric (no bound; it explains, it does not gate).
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

use Better::{Higher, Lower};

// Bounds are three times the widest spread (IQR over median of ten runs
// at ten seeds) seen on any workload on the commit that defined the
// benchmark, rounded up: 6 % for the wall metrics on a good day with
// whole-run slow-downs of the shared sandbox on a bad one, 4 % for the
// simulated clock (ten seeds draw ten request streams), 7 % for RSS.
const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

pub const END_TO_END: &[EndToEnd] = &[
    e2e("wall_req_per_s", "req/s", Higher, 0.20),
    e2e("wall_mb_per_s", "MB/s", Higher, 0.20),
    e2e("req_latency_p50_ms", "ms", Lower, 0.20),
    e2e("req_latency_p99_ms", "ms", Lower, 0.25),
    e2e("sim_req_per_s", "req/sim-s", Higher, 0.12),
    e2e("setup_s", "s", Lower, 0.25),
    e2e("peak_rss_mb", "MB", Lower, 0.20),
];

const fn pl(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

pub const PER_LAYER: &[PerLayer] = &[
    // The two end-to-end candidates that can legitimately read 0 (the
    // contract wants end-to-end metrics that never do).
    pl("sim_copied_bytes_per_req", "B/req", Lower),
    pl("failed_share", "ratio", Lower),
    // iolite-http: the event loop, measured per tick() call.
    pl("http.event_loop.tick_p50_us", "us", Lower),
    pl("http.event_loop.tick_p99_us", "us", Lower),
    pl("http.event_loop.ticks_per_req", "1/req", Lower),
    pl("http.event_loop.poll_entries_per_req", "1/req", Lower),
    pl("http.event_loop.max_inflight", "count", Higher),
    pl("http.event_loop.self_share", "ratio", Lower),
    pl("http.event_loop.tick_drift", "ratio", Lower),
    pl("http.message.parse_ns", "ns", Lower),
    pl("http.server.serve_static_us", "us", Lower),
    pl("http.driver.flashlite.wall_req_per_s", "req/s", Higher),
    pl("http.driver.flashlite.sim_mbit_s", "Mbit/s", Higher),
    pl("http.driver.flash.wall_req_per_s", "req/s", Higher),
    pl("http.driver.flash.sim_mbit_s", "Mbit/s", Higher),
    pl("http.driver.apache.wall_req_per_s", "req/s", Higher),
    pl("http.driver.apache.sim_mbit_s", "Mbit/s", Higher),
    pl("http.driver.cgi.wall_req_per_s", "req/s", Higher),
    pl("http.sharded.threaded_speedup", "ratio", Higher),
    pl("http.sharded.remote_fetch_share", "ratio", Lower),
    // iolite-core: pure::step timed per command on a replay.
    pl("core.step.total_s", "s", Lower),
    pl("core.step.cmds_per_req", "1/req", Lower),
    pl("core.step.file_ns", "ns/req", Lower),
    pl("core.step.socket_ns", "ns/req", Lower),
    pl("core.step.poll_ns", "ns/req", Lower),
    pl("core.step.cache_ns", "ns/req", Lower),
    pl("core.step.write_ns", "ns/req", Lower),
    pl("core.step.other_ns", "ns/req", Lower),
    pl("core.step.put_install_us", "us", Lower),
    pl("core.poll.ns_per_fd", "ns/fd", Lower),
    pl("core.journal.overhead_pct", "%", Lower),
    pl("core.replay.cmds_per_s", "cmd/s", Higher),
    pl("core.replay.state_hash_match", "count", Higher),
    pl("core.state_hash_ms", "ms", Lower),
    pl("core.snapshot_ms", "ms", Lower),
    pl("core.shard.pump_ns_per_msg", "ns", Lower),
    pl("core.shard.msgs_per_req", "1/req", Lower),
    pl("core.sim_us_per_req.copy", "us/req", Lower),
    pl("core.sim_us_per_req.checksum", "us/req", Lower),
    pl("core.sim_us_per_req.pagemap", "us/req", Lower),
    pl("core.sim_us_per_req.syscall", "us/req", Lower),
    pl("core.sim_us_per_req.ctxswitch", "us/req", Lower),
    pl("core.sim_us_per_req.request", "us/req", Lower),
    pl("core.sim_us_per_req.tcpcontrol", "us/req", Lower),
    pl("core.sim_us_per_req.packet", "us/req", Lower),
    pl("core.sim_us_per_req.procmodel", "us/req", Lower),
    pl("core.sim_us_per_req.appcompute", "us/req", Lower),
    // iolite-fs.
    pl("fs.cache.hit_rate", "ratio", Higher),
    pl("fs.cache.evictions_per_kreq", "1/kreq", Lower),
    pl("fs.cache.lookup_hit_ns", "ns", Lower),
    pl("fs.cache.insert_evict_ns", "ns", Lower),
    pl("fs.cache.pin_unpin_ns", "ns", Lower),
    pl("fs.cache.insert_dirty_ns", "ns", Lower),
    pl("fs.disk.sim_ops_per_kreq", "1/kreq", Lower),
    pl("fs.writeback.flushes", "count", Lower),
    pl("fs.writeback.bytes_per_put_byte", "ratio", Lower),
    pl("fs.writeback.nvm_absorbed_share", "ratio", Higher),
    // iolite-net.
    pl("net.cksum.hit_rate", "ratio", Higher),
    pl("net.cksum.hit_ns", "ns", Lower),
    pl("net.cksum.compute_ns_per_kb", "ns/KB", Lower),
    pl("net.cksum.invalidate_ns", "ns", Lower),
    pl("net.tcp.send_ns_per_segment", "ns", Lower),
    pl("net.reassembly.ns_per_segment", "ns", Lower),
    // iolite-buf.
    pl("buf.agg.range_ns", "ns", Lower),
    pl("buf.agg.advance_ns", "ns", Lower),
    pl("buf.agg.append_ns", "ns", Lower),
    pl("buf.agg.scan_ns_per_kb", "ns/KB", Lower),
    pl("buf.pool.alloc_ns", "ns", Lower),
    // iolite-vm, iolite-ipc, iolite-trace.
    pl("vm.pages_mapped_per_req", "1/req", Lower),
    pl("ipc.pipe.roundtrip_ns", "ns", Lower),
    pl("trace.synthesize_ms", "ms", Lower),
    // iolite-storm: the external-wire, journal-always-on path.
    pl("storm.hostile.wall_req_per_s", "req/s", Higher),
    pl("storm.hostile.segments_per_s", "1/s", Higher),
    pl("storm.verify_replay_ms", "ms", Lower),
    // The harness itself.
    pl("perf.trace_overhead_pct", "%", Lower),
    pl("perf.harness_share", "ratio", Lower),
    pl("perf.window_iqr_pct", "%", Lower),
];

/// The per-layer metrics that are counts read from public stats (or
/// simulated time, which is a count too): they must repeat exactly at
/// a fixed seed, and the harness asserts it.
pub const EXACT: &[&str] = &[
    "sim_copied_bytes_per_req",
    "failed_share",
    "http.event_loop.poll_entries_per_req",
    "http.event_loop.max_inflight",
    "http.sharded.remote_fetch_share",
    "core.shard.msgs_per_req",
    "core.sim_us_per_req.copy",
    "core.sim_us_per_req.checksum",
    "core.sim_us_per_req.pagemap",
    "core.sim_us_per_req.syscall",
    "core.sim_us_per_req.ctxswitch",
    "core.sim_us_per_req.request",
    "core.sim_us_per_req.tcpcontrol",
    "core.sim_us_per_req.packet",
    "core.sim_us_per_req.procmodel",
    "core.sim_us_per_req.appcompute",
    "fs.cache.hit_rate",
    "fs.cache.evictions_per_kreq",
    "fs.disk.sim_ops_per_kreq",
    "fs.writeback.flushes",
    "fs.writeback.bytes_per_put_byte",
    "fs.writeback.nvm_absorbed_share",
    "net.cksum.hit_rate",
    "vm.pages_mapped_per_req",
];

/// Measured values by metric name.
pub type Values = BTreeMap<&'static str, f64>;

/// The unit of a metric in either table.
pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find(|(n, _)| *n == name)
        .map_or("", |(_, u)| u)
}

/// `{"name": {"value": v, "unit": u}, ...}` for the last line a run
/// prints. Every catalog name of the run's kind must have been
/// measured; a name that was not is a harness bug.
///
/// # Panics
///
/// Panics when a catalog metric has no value.
pub fn to_json(names: impl Iterator<Item = &'static str>, values: &Values) -> Value {
    obj(names.map(|name| {
        let v = values
            .get(name)
            .unwrap_or_else(|| panic!("metric {name} was not measured"));
        (
            name,
            obj([
                ("value", Value::Num(*v)),
                ("unit", Value::Str(unit_of(name).to_string())),
            ]),
        )
    }))
}

/// The contents of `BENCHMARK.json`.
pub fn manifest() -> String {
    let workloads = workloads::all()
        .iter()
        .map(|w| {
            obj([
                ("name", Value::Str(w.name.into())),
                ("why", Value::Str(w.why.into())),
            ])
        })
        .collect();
    let e2e = END_TO_END
        .iter()
        .map(|m| {
            obj([
                ("name", Value::Str(m.name.into())),
                ("unit", Value::Str(m.unit.into())),
                ("better", Value::Str(m.better.as_str().into())),
                ("bound", Value::Num(m.bound)),
            ])
        })
        .collect();
    let layers = PER_LAYER
        .iter()
        .map(|m| {
            obj([
                ("name", Value::Str(m.name.into())),
                ("unit", Value::Str(m.unit.into())),
                ("better", Value::Str(m.better.as_str().into())),
            ])
        })
        .collect();
    let command = [
        "cargo",
        "run",
        "--release",
        "--quiet",
        "--offline",
        "--manifest-path",
        "perf/Cargo.toml",
        "--",
        "one",
    ];
    obj([
        (
            "command",
            Value::Arr(command.iter().map(|s| Value::Str((*s).into())).collect()),
        ),
        ("paths", Value::Arr(vec![Value::Str("perf".into())])),
        ("run_seconds", Value::Num(workloads::RUN_SECONDS)),
        ("workloads", Value::Arr(workloads)),
        ("end_to_end", Value::Arr(e2e)),
        ("per_layer", Value::Arr(layers)),
    ])
    .to_json_pretty()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(n: &str) -> bool {
        n.len() <= 64
            && n.starts_with(|c: char| c.is_ascii_alphanumeric())
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn valid_unit(u: &str) -> bool {
        !u.is_empty()
            && u.len() <= 16
            && u.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn catalog_meets_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
            .chain(workloads::all().iter().map(|w| (w.name, "count")))
        {
            assert!(valid_name(name), "bad name {name}");
            assert!(valid_unit(unit), "bad unit {unit} on {name}");
            assert!(seen.insert(name), "{name} used twice");
        }
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(
            END_TO_END.iter().all(|m| m.bound <= setup.bound),
            "setup_s has the largest bound"
        );
        for name in EXACT {
            assert!(
                PER_LAYER.iter().any(|m| m.name == *name),
                "{name} not in catalog"
            );
        }
    }

    #[test]
    fn committed_benchmark_json_matches_the_catalog() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            committed,
            manifest(),
            "regenerate with `iolite-perf manifest > BENCHMARK.json`"
        );
        assert!(committed.len() <= 64 * 1024);
    }
}
