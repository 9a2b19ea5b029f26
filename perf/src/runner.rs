//! One workload, one process: the untraced run that produces the
//! end-to-end metrics and the separate traced run that produces the
//! per-layer ones.
//!
//! End-to-end metrics are always measured with tracing and journaling
//! off. The traced run repeats the workload at half length three ways —
//! plain, journal on, journal on plus spans — so the difference between
//! them *is* the journaling and tracing overhead.

use iolite_core::CostCategory;
use iolite_trace::{TraceSpec, Workload};

use crate::engine::{self, Fleet, Mode, RepResult, Timeline, TraceCtx};
use crate::layers::{self, StaticRig};
use crate::metrics::{Values, EXACT, PER_LAYER};
use crate::paper::{self, PaperRep, PaperSizes};
use crate::span::{Trace, ROOT};
use crate::stats;
use crate::workloads::{self, Entry, Kind, Spec, TickInputs, TickSpec, REPS, WINDOWS};

/// What a run hands back to the command line.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub values: Values,
    /// Sample counts and other context, printed above the result line.
    pub notes: Vec<String>,
    /// Output-check failures (any makes the run incorrect).
    pub errors: Vec<String>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.errors.is_empty()
    }
}

/// Runs one workload; `trace` selects the traced run.
pub fn run(spec: &Spec, seed: u64, seconds: f64, trace: bool) -> Outcome {
    match (&spec.kind, trace) {
        (Kind::Tick(t), false) => tick_untraced(t, seed, seconds),
        (Kind::Tick(t), true) => tick_traced(spec.name, t, seed, seconds),
        (
            Kind::Paper {
                clients,
                requests,
                cgi_bytes,
                latency_calls,
            },
            _,
        ) => {
            // The traced run repeats the workload at half length.
            let reps = if trace { 2 * REPS } else { REPS };
            let sizes = PaperSizes {
                clients: *clients,
                requests: workloads::scaled(*requests, seconds, reps * WINDOWS as usize, 40),
                cgi_bytes: *cgi_bytes,
                latency_calls: workloads::scaled(*latency_calls, seconds, reps, 200) as usize,
            };
            if trace {
                paper_traced(spec.name, &sizes, seed, seconds)
            } else {
                paper_untraced(&sizes, seed)
            }
        }
    }
}

/// `VmHWM` of this process, MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// What the wall-clock end-to-end metrics are computed from: the
/// timed phase of the quiet composite run (see `Timeline::quietest`).
struct Timed {
    requests: u64,
    bytes: u64,
    wall_s: f64,
    latencies_ms: Vec<f64>,
}

fn wall_metrics(mut timed: Timed, setups: &[f64], out: &mut Values, notes: &mut Vec<String>) {
    out.insert("wall_req_per_s", timed.requests as f64 / timed.wall_s);
    out.insert("wall_mb_per_s", timed.bytes as f64 / 1e6 / timed.wall_s);
    let lat = &mut timed.latencies_ms;
    stats::sort(lat);
    out.insert("req_latency_p50_ms", stats::percentile_sorted(lat, 50.0));
    out.insert("req_latency_p99_ms", stats::percentile_sorted(lat, 99.0));
    out.insert("setup_s", stats::median(setups));
    out.insert("peak_rss_mb", peak_rss_mb());
    notes.push(format!(
        "samples: quiet composite of {} repetitions = {} requests in {:.3} s; {} latencies ({} beyond p99); {} set-ups",
        setups.len(),
        timed.requests,
        timed.wall_s,
        lat.len(),
        stats::samples_beyond(lat.len().max(1), 99.0),
        setups.len(),
    ));
}

/// Requests per second of every window on a timeline.
fn window_rates(rep: &RepResult, timeline: &Timeline) -> Vec<f64> {
    let mut from = rep.warm_rounds;
    rep.windows
        .iter()
        .map(|w| {
            let rate = w.requests as f64 / timeline.between_s(from, w.end_round).max(1e-12);
            from = w.end_round;
            rate
        })
        .collect()
}

fn rates_line(rates: &[f64]) -> String {
    rates
        .iter()
        .map(|r| format!("{r:.0}"))
        .collect::<Vec<_>>()
        .join(" ")
}

const CATEGORIES: [(&str, CostCategory); 10] = [
    ("core.sim_us_per_req.copy", CostCategory::Copy),
    ("core.sim_us_per_req.checksum", CostCategory::Checksum),
    ("core.sim_us_per_req.pagemap", CostCategory::PageMap),
    ("core.sim_us_per_req.syscall", CostCategory::Syscall),
    ("core.sim_us_per_req.ctxswitch", CostCategory::ContextSwitch),
    ("core.sim_us_per_req.request", CostCategory::Request),
    ("core.sim_us_per_req.tcpcontrol", CostCategory::TcpControl),
    ("core.sim_us_per_req.packet", CostCategory::Packet),
    ("core.sim_us_per_req.procmodel", CostCategory::ProcessModel),
    ("core.sim_us_per_req.appcompute", CostCategory::AppCompute),
];

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// The count metrics of one repetition, read from public stats over
/// the timed phase. Every one must repeat exactly at a fixed seed.
fn count_values(rep: &RepResult) -> Values {
    let (w, e) = (&rep.at_warm, &rep.at_end);
    let reqs = rep.timed_requests();
    let mut v = Values::new();
    v.insert(
        "sim_copied_bytes_per_req",
        ratio(e.metrics.bytes_copied - w.metrics.bytes_copied, reqs),
    );
    v.insert("failed_share", ratio(rep.missing(), rep.scripted));
    v.insert(
        "http.event_loop.poll_entries_per_req",
        ratio(e.poll_entries - w.poll_entries, reqs),
    );
    v.insert("http.event_loop.max_inflight", rep.max_inflight as f64);
    v.insert(
        "http.sharded.remote_fetch_share",
        ratio(e.remote_reads - w.remote_reads, reqs),
    );
    v.insert("core.shard.msgs_per_req", ratio(rep.fabric_msgs, reqs));
    for (name, cat) in CATEGORIES {
        let us = e
            .metrics
            .time_in(cat)
            .saturating_sub(w.metrics.time_in(cat))
            .as_secs()
            * 1e6;
        v.insert(name, us / reqs.max(1) as f64);
    }
    let (hits, misses) = (e.cache.hits - w.cache.hits, e.cache.misses - w.cache.misses);
    v.insert("fs.cache.hit_rate", ratio(hits, hits + misses));
    v.insert(
        "fs.cache.evictions_per_kreq",
        1e3 * ratio(e.cache.evictions - w.cache.evictions, reqs),
    );
    v.insert(
        "fs.disk.sim_ops_per_kreq",
        1e3 * ratio(e.metrics.disk_ops - w.metrics.disk_ops, reqs),
    );
    let written = e.metrics.bytes_written_back - w.metrics.bytes_written_back;
    v.insert(
        "fs.writeback.flushes",
        (e.metrics.writeback_flushes - w.metrics.writeback_flushes) as f64,
    );
    v.insert(
        "fs.writeback.bytes_per_put_byte",
        ratio(written, e.put_bytes - w.put_bytes),
    );
    v.insert(
        "fs.writeback.nvm_absorbed_share",
        ratio(
            e.metrics.nvm_absorbed_bytes - w.metrics.nvm_absorbed_bytes,
            written,
        ),
    );
    let (hits, misses) = (e.cksum.hits - w.cksum.hits, e.cksum.misses - w.cksum.misses);
    v.insert("net.cksum.hit_rate", ratio(hits, hits + misses));
    v.insert(
        "vm.pages_mapped_per_req",
        ratio(e.metrics.pages_mapped - w.metrics.pages_mapped, reqs),
    );
    v
}

/// Asserts the simulated-clock and count metrics are bit-identical
/// across in-process repetitions at the same seed.
fn check_determinism(sims: &[f64], counts: &[Values], errors: &mut Vec<String>) {
    if sims.iter().any(|s| s.to_bits() != sims[0].to_bits()) {
        errors.push(format!(
            "sim_req_per_s differs across repetitions: {sims:?}"
        ));
    }
    for name in EXACT {
        let vals: Vec<f64> = counts.iter().filter_map(|c| c.get(name).copied()).collect();
        if vals.iter().any(|v| v.to_bits() != vals[0].to_bits()) {
            errors.push(format!("{name} differs across repetitions: {vals:?}"));
        }
    }
}

fn tick_untraced(spec: &TickSpec, seed: u64, seconds: f64) -> Outcome {
    let reqs = workloads::scaled(spec.reqs_per_conn, seconds, REPS, 5);
    let reps: Vec<RepResult> = (0..REPS)
        .map(|_| engine::run_rep(spec, seed, reqs, Mode::Plain, None))
        .collect();
    let mut errors: Vec<String> = reps.iter().flat_map(|r| r.errors.clone()).collect();
    errors.extend(capture_check(spec, seed));
    let sims: Vec<f64> = reps.iter().map(RepResult::sim_req_per_s).collect();
    let counts: Vec<Values> = reps.iter().map(count_values).collect();
    check_determinism(&sims, &counts, &mut errors);

    let mut values = Values::new();
    let mut notes = vec![format!(
        "closed loop: {} connections x {reqs} requests, {} shard(s), one load-generating thread, {REPS} repetitions",
        spec.conns, spec.shards
    )];
    // Identical work means identical shape: same rounds, same windows,
    // same completions. The composite timeline depends on it.
    let first = &reps[0];
    if reps.iter().any(|r| {
        r.round_ns.len() != first.round_ns.len()
            || r.windows != first.windows
            || r.completions != first.completions
    }) {
        errors.push("repetitions differ in rounds, windows or completion order".into());
    }
    let rounds: Vec<&[u64]> = reps.iter().map(|r| &r.round_ns[..]).collect();
    let quiet = Timeline::quietest(&rounds);
    for (i, rep) in reps.iter().enumerate() {
        let own = window_rates(rep, &Timeline::new(&rep.round_ns));
        notes.push(format!(
            "repetition {} window req/s: {}",
            i + 1,
            rates_line(&own)
        ));
    }
    notes.push(format!(
        "quiet composite window req/s: {}",
        rates_line(&window_rates(first, &quiet))
    ));
    let converging: Vec<String> = (1..=rounds.len())
        .map(|k| {
            let t = Timeline::quietest(&rounds[..k]);
            format!("{:.3}", t.between_s(first.warm_rounds, first.last_round()))
        })
        .collect();
    notes.push(format!(
        "composite timed wall after 1..{} repetitions, s: {}",
        rounds.len(),
        converging.join(" ")
    ));
    let timed = Timed {
        requests: first.windows.iter().map(|w| w.requests).sum(),
        bytes: first.windows.iter().map(|w| w.bytes).sum(),
        wall_s: quiet.between_s(first.warm_rounds, first.last_round()),
        latencies_ms: first
            .completions
            .iter()
            .map(|c| quiet.latency_ms(*c))
            .collect(),
    };
    let setups: Vec<f64> = reps.iter().map(|r| r.setup_s).collect();
    wall_metrics(timed, &setups, &mut values, &mut notes);
    values.insert("sim_req_per_s", sims[0]);
    let attempted: u64 = reps.iter().map(|r| r.scripted).sum();
    let failed: u64 = reps.iter().map(RepResult::missing).sum();
    Outcome {
        attempted,
        failed,
        values,
        notes,
        errors,
    }
}

/// A ≤256-request pass with `capture_responses` on: every response must
/// equal `header ++ document` byte for byte, and every response's size
/// (and their sum) must equal what sequential `serve_static` reports
/// for the same request on a fresh kernel.
fn capture_check(spec: &TickSpec, seed: u64) -> Vec<String> {
    let small = TickSpec {
        conns: 16,
        put_share: 0.0,
        ..spec.clone()
    };
    let inputs = TickInputs::generate(&small, seed, 16);
    let mut fleet = Fleet::build(&small, &inputs, false, true);
    fleet.drive_to_end();
    let mut rig = StaticRig::new(
        &inputs.workload,
        inputs.file_seed,
        engine::cost_model(&small),
        iolite_http::ServerKind::FlashLite,
        small.conns,
    );
    let files = inputs.workload.files();
    let mut errors = Vec::new();
    let (mut checked, mut loop_bytes, mut seq_bytes) = (0, 0u64, 0u64);
    for (s, server) in fleet.servers.iter().enumerate() {
        let kernel = server.kernel();
        let mut next = vec![0usize; server.conn_count()];
        for r in server.completed_requests() {
            let script = &inputs.conns[fleet.shard_conns[s][r.conn]].1;
            let Some(Entry::Get { file }) = script.get(next[r.conn]).copied() else {
                errors.push(format!("capture: unscripted completion on conn {}", r.conn));
                continue;
            };
            next[r.conn] += 1;
            checked += 1;
            let doc = &files[file];
            let mut expected = iolite_http::response_header(doc.bytes, true);
            let id = kernel.store.lookup(&doc.name);
            expected.extend(
                id.and_then(|id| kernel.store.read(id, 0, doc.bytes))
                    .unwrap_or_default(),
            );
            if r.path != doc.name || r.response.as_deref() != Some(&expected[..]) {
                errors.push(format!(
                    "capture: response for {} differs from header ++ document",
                    doc.name
                ));
            }
            let sequential = rig.serve(file);
            if sequential != r.bytes {
                errors.push(format!(
                    "capture: {} is {} bytes, serve_static says {sequential}",
                    doc.name, r.bytes
                ));
            }
            loop_bytes += r.bytes;
            seq_bytes += sequential;
        }
    }
    if checked != inputs.scripted() || loop_bytes != seq_bytes {
        errors.push(format!(
            "capture: checked {checked} of {} requests, {loop_bytes} vs {seq_bytes} bytes",
            inputs.scripted()
        ));
    }
    errors.truncate(8);
    errors
}

/// Fills every per-layer name the run did not measure with 0: the layer
/// was not entered on this workload.
fn fill_unentered(values: &mut Values) {
    for m in PER_LAYER {
        values.entry(m.name).or_insert(0.0);
    }
}

fn write_trace(trace: &Trace, workload: &str, seed: u64, notes: &mut Vec<String>) {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
    let path = format!("{dir}/trace-{workload}.json");
    let written = std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(&path, trace.to_json(workload, seed)));
    match written {
        Ok(()) => notes.push(format!("{} spans written to {path}", trace.spans.len())),
        Err(e) => notes.push(format!("could not write {path}: {e}")),
    }
}

fn tick_traced(name: &str, spec: &TickSpec, seed: u64, seconds: f64) -> Outcome {
    let reqs = workloads::scaled(spec.reqs_per_conn, seconds, 2 * REPS, 5);
    let overhead_ns = layers::timer_overhead_ns();
    let mut trace = Trace::new();
    let root = trace.open("workload", ROOT);

    let plain = engine::run_rep(spec, seed, reqs, Mode::Plain, None);
    let journaled = engine::run_rep(spec, seed, reqs, Mode::Journal, None);
    let ctx = TraceCtx {
        trace: &mut trace,
        parent: root,
    };
    let traced = engine::run_rep(spec, seed, reqs, Mode::Traced, Some(ctx));
    let three = [&plain, &journaled, &traced];
    let mut errors: Vec<String> = three.iter().flat_map(|r| r.errors.clone()).collect();
    let attempted: u64 = three.iter().map(|r| r.scripted).sum();
    let failed: u64 = three.iter().map(|r| r.missing()).sum();
    let [plain_serve_s, journal_serve_s, traced_serve_s] = three.map(RepResult::serve_s);
    let mut notes = vec![format!(
        "traced run: {} connections x {reqs} requests, three ways (plain {plain_serve_s:.2} s, journal {journal_serve_s:.2} s, journal+spans {traced_serve_s:.2} s), each once: per-layer timings carry the sandbox's noise; timer overhead {overhead_ns:.0} ns subtracted per timed call",
        spec.conns,
    )];

    let mut v = count_values(&plain);
    let rps = window_rates(&plain, &Timeline::new(&plain.round_ns));
    v.insert("perf.window_iqr_pct", stats::iqr_share(&rps) * 100.0);
    v.insert(
        "core.journal.overhead_pct",
        (journal_serve_s / plain_serve_s - 1.0) * 100.0,
    );
    v.insert(
        "perf.trace_overhead_pct",
        (traced_serve_s / plain_serve_s - 1.0) * 100.0,
    );

    // The event loop, from the tick spans under `serve`.
    if let Some(serve) = trace.find("serve") {
        let ticks: Vec<&crate::span::Span> = trace
            .spans
            .iter()
            .filter(|s| s.parent == serve && s.name == "tick")
            .collect();
        let mut durs: Vec<f64> = ticks.iter().map(|s| s.dur_ns() as f64 / 1e3).collect();
        stats::sort(&mut durs);
        v.insert(
            "http.event_loop.tick_p50_us",
            stats::percentile_sorted(&durs, 50.0),
        );
        v.insert(
            "http.event_loop.tick_p99_us",
            stats::percentile_sorted(&durs, 99.0),
        );
        v.insert(
            "perf.harness_share",
            trace.self_ns(serve) as f64 / trace.spans[serve as usize].dur_ns().max(1) as f64,
        );
        // Tick time per request, last window over first: equal-request
        // windows, so 1.0 means ticks cost the same late in the run.
        let per_req = |w: usize| {
            let after = if w == 0 {
                traced.warm_rounds
            } else {
                traced.windows[w - 1].end_round
            };
            let rounds = after as u64 + 1..=traced.windows[w].end_round as u64;
            let ns: u64 = ticks
                .iter()
                .filter(|s| rounds.contains(&s.id))
                .map(|s| s.dur_ns())
                .sum();
            ns as f64 / traced.windows[w].requests.max(1) as f64
        };
        if let Some(last) = traced.windows.len().checked_sub(1) {
            v.insert(
                "http.event_loop.tick_drift",
                per_req(last) / per_req(0).max(1e-9),
            );
        }
    }
    v.insert(
        "http.event_loop.ticks_per_req",
        ratio(
            plain.at_end.ticks - plain.at_warm.ticks,
            plain.timed_requests(),
        ),
    );
    v.insert(
        "core.shard.pump_ns_per_msg",
        ratio(traced.pump_ns, traced.fabric_msgs),
    );

    layers::core_layer(
        spec,
        &traced,
        plain_serve_s,
        overhead_ns,
        &mut trace,
        root,
        &mut v,
    );
    drop((plain, journaled, traced));

    // Micro-drivers at the workload's own sizes, keys and paths.
    let micro = trace.open("micro", root);
    let inputs = TickInputs::generate(spec, seed, reqs);
    v.insert("trace.synthesize_ms", inputs.synth_ms);
    trace.scope("fs.cache", micro, || {
        layers::cache_layer(spec, &inputs, overhead_ns, &mut v)
    });
    trace.scope("http.server", micro, || {
        layers::serve_static_layer(spec, &inputs, &mut v)
    });
    if spec.shards > 1 {
        layers::threaded_layer(spec, &inputs, &mut trace, micro, &mut v);
    }
    let sample: Vec<_> = layers::sample_files(&inputs, 512).collect();
    errors.extend(layers::shared_micro(
        &sample, seed, seconds, &mut trace, micro, &mut v,
    ));
    trace.close(micro);
    trace.close(root);

    fill_unentered(&mut v);
    notes.push(format!(
        "serve span (plain) {plain_serve_s:.3} s = core.step.* {:.3} s + event loop, shell and effect fold {:.3} s",
        v["core.step.total_s"],
        plain_serve_s - v["core.step.total_s"],
    ));
    write_trace(&trace, name, seed, &mut notes);
    Outcome {
        attempted,
        failed,
        values: v,
        notes,
        errors,
    }
}

fn paper_errors<'a>(reps: impl IntoIterator<Item = &'a PaperRep>) -> Vec<String> {
    let mut errors: Vec<String> = reps.into_iter().flat_map(|r| r.errors.clone()).collect();
    errors.truncate(8);
    errors
}

fn paper_untraced(sizes: &PaperSizes, seed: u64) -> Outcome {
    let overhead_ns = layers::timer_overhead_ns();
    let reps: Vec<PaperRep> = (0..REPS)
        .map(|_| paper::run_rep(sizes, seed, None, overhead_ns))
        .collect();
    let mut errors = paper_errors(&reps);
    let sims: Vec<f64> = reps.iter().map(PaperRep::sim_req_per_s).collect();
    let copied: Vec<Values> = reps
        .iter()
        .map(|r| Values::from([("sim_copied_bytes_per_req", r.copied_bytes_per_req())]))
        .collect();
    check_determinism(&sims, &copied, &mut errors);
    // Every window of every repetition ran the same six configurations
    // at the same seed: their simulated results must be identical too.
    for rep in &reps {
        for (a, b) in rep
            .calls
            .iter()
            .zip(rep.calls.iter().skip(2 * paper::SERVERS.len()))
        {
            if a.result.mbit_s.to_bits() != b.result.mbit_s.to_bits() {
                errors.push(format!("{} Mb/s differs between windows", a.server));
            }
        }
    }
    let mut values = Values::new();
    let mut notes = vec![format!(
        "closed loop: {} simulated clients; per window 3 servers x ({} + {} warm-up trace-sampled requests, then {} CGI); latency = {} sequential serve_static calls per server; {REPS} repetitions",
        sizes.clients,
        sizes.requests,
        sizes.requests / 4,
        (sizes.requests / 4).max(8),
        sizes.latency_calls
    )];
    // The quiet composite. Every window of every repetition is a
    // rendition of the same six run_config calls, so each call takes as
    // long as in the rendition that ran it fastest; likewise every
    // serve_static call across the repetitions' latency passes.
    let per_window = 2 * paper::SERVERS.len();
    let renditions: Vec<Vec<f64>> = reps
        .iter()
        .flat_map(|r| r.calls.chunks(per_window))
        .map(|w| w.iter().map(|c| c.wall_s).collect())
        .collect();
    let quiet_calls =
        stats::elementwise_min(&renditions.iter().map(|w| &w[..]).collect::<Vec<_>>());
    let own: Vec<f64> = renditions.iter().map(|w| w.iter().sum()).collect();
    let window = &reps[0].calls[..per_window.min(reps[0].calls.len())];
    let window_requests: u64 = window.iter().map(|c| c.result.requests).sum();
    notes.push(format!(
        "window req/s over {} renditions: min {:.0} median {:.0} max {:.0}",
        own.len(),
        window_requests as f64 / own.iter().copied().fold(0.0, f64::max),
        window_requests as f64 / stats::median(&own),
        window_requests as f64 / own.iter().copied().fold(f64::INFINITY, f64::min),
    ));
    let lats: Vec<&[f64]> = reps.iter().map(|r| &r.latencies_ms[..]).collect();
    let timed = Timed {
        requests: window_requests,
        bytes: window.iter().map(|c| c.result.bytes).sum(),
        wall_s: quiet_calls.iter().sum(),
        latencies_ms: stats::elementwise_min(&lats),
    };
    let setups: Vec<f64> = reps.iter().map(|r| r.setup_s).collect();
    wall_metrics(timed, &setups, &mut values, &mut notes);
    values.insert("sim_req_per_s", sims[0]);
    let failed: u64 = reps
        .iter()
        .flat_map(|r| &r.calls)
        .map(|c| c.result.failed_requests)
        .sum();
    Outcome {
        attempted: reps.iter().map(PaperRep::attempted).sum(),
        failed,
        values,
        notes,
        errors,
    }
}

fn paper_traced(name: &str, sizes: &PaperSizes, seed: u64, seconds: f64) -> Outcome {
    let overhead_ns = layers::timer_overhead_ns();
    let mut trace = Trace::new();
    let root = trace.open("workload", ROOT);
    let plain = paper::run_rep(sizes, seed, None, overhead_ns);
    let traced = paper::run_rep(sizes, seed, Some((&mut trace, root)), overhead_ns);
    let mut errors = paper_errors([&plain, &traced]);
    let wall = |rep: &PaperRep| rep.calls.iter().map(|c| c.wall_s).sum::<f64>();
    let mut v = Values::new();
    let notes_head = format!(
        "traced run: {} requests per run_config call, twice (plain {:.2} s, with spans {:.2} s); the kernel is private to Experiment, so no journal: core.step.* and the event loop read 0",
        sizes.requests,
        wall(&plain),
        wall(&traced)
    );
    let mut notes = vec![notes_head];

    let failed: u64 = plain.calls.iter().map(|c| c.result.failed_requests).sum();
    v.insert("sim_copied_bytes_per_req", plain.copied_bytes_per_req());
    v.insert("failed_share", ratio(failed, plain.attempted()));
    let rate = |pick: &dyn Fn(&paper::Call) -> bool| {
        let calls = plain.calls.iter().filter(|c| pick(c));
        let (reqs, wall) = calls.fold((0u64, 0.0), |(r, w), c| {
            (r + c.result.requests, w + c.wall_s)
        });
        reqs as f64 / wall.max(1e-9)
    };
    for (server, wall_name, sim_name) in [
        (
            "flashlite",
            "http.driver.flashlite.wall_req_per_s",
            "http.driver.flashlite.sim_mbit_s",
        ),
        (
            "flash",
            "http.driver.flash.wall_req_per_s",
            "http.driver.flash.sim_mbit_s",
        ),
        (
            "apache",
            "http.driver.apache.wall_req_per_s",
            "http.driver.apache.sim_mbit_s",
        ),
    ] {
        v.insert(wall_name, rate(&|c| c.server == server && !c.cgi));
        let sim = plain
            .calls
            .iter()
            .find(|c| c.server == server && !c.cgi)
            .map_or(0.0, |c| c.result.mbit_s);
        v.insert(sim_name, sim);
    }
    v.insert("http.driver.cgi.wall_req_per_s", rate(&|c| c.cgi));
    v.insert("http.server.serve_static_us", plain.serve_static_us);
    v.insert("vm.pages_mapped_per_req", plain.pages_mapped_per_req);
    v.insert("trace.synthesize_ms", plain.synth_ms);
    // One window = one fresh pass over the six configurations.
    let rps: Vec<f64> = plain
        .calls
        .chunks(2 * paper::SERVERS.len())
        .map(|w| {
            w.iter().map(|c| c.result.requests).sum::<u64>() as f64
                / w.iter().map(|c| c.wall_s).sum::<f64>()
        })
        .collect();
    v.insert("perf.window_iqr_pct", stats::iqr_share(&rps) * 100.0);
    v.insert(
        "perf.trace_overhead_pct",
        (wall(&traced) / wall(&plain) - 1.0) * 100.0,
    );
    let in_calls = trace.child_sum_ns(root, "run_config") as f64 / 1e9;
    v.insert(
        "perf.harness_share",
        (1.0 - in_calls / wall(&traced).max(1e-9)).max(0.0),
    );
    let attempted = plain.attempted() + traced.attempted();
    drop((plain, traced));

    let micro = trace.open("micro", root);
    let corpus = Workload::synthesize(&TraceSpec::subtrace_150mb(), workloads::CORPUS_SEED);
    let mut rng = iolite_sim::SimRng::new(seed ^ 0x9a75);
    let sample: Vec<_> = (0..512)
        .map(|_| &corpus.files()[corpus.sample_request(&mut rng)])
        .collect();
    errors.extend(layers::shared_micro(
        &sample, seed, seconds, &mut trace, micro, &mut v,
    ));
    trace.close(micro);
    trace.close(root);

    fill_unentered(&mut v);
    write_trace(&trace, name, seed, &mut notes);
    Outcome {
        attempted,
        failed,
        values: v,
        notes,
        errors,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn composites_take_the_quietest_rendition_of_each_position() {
        // Repetition 1 was disturbed in its second round, repetition 2
        // in its first; the program itself is slow in round 3.
        let (a, b) = ([10u64, 19, 30], [14u64, 10, 31]);
        let quiet = Timeline::quietest(&[&a, &b]);
        assert_eq!(
            quiet.between_s(0, 3),
            50e-9,
            "every round counts once, slow phase kept"
        );
        assert_eq!(quiet.between_s(1, 2), 10e-9);
        let c = engine::Completion { issued: 1, done: 3 };
        assert_eq!(quiet.latency_ms(c), 40e-6);
    }

    #[test]
    fn wall_metrics_come_from_the_timed_composite() {
        let (mut v, mut notes) = (Values::new(), Vec::new());
        let timed = Timed {
            requests: 300,
            bytes: 300_000,
            wall_s: 4.0,
            latencies_ms: vec![3.0, 1.0, 2.0, 4.0],
        };
        wall_metrics(timed, &[0.3, 0.1, 0.2], &mut v, &mut notes);
        assert_eq!(v["wall_req_per_s"], 75.0);
        assert_eq!(v["wall_mb_per_s"], 0.075);
        assert_eq!(v["req_latency_p50_ms"], 2.0);
        assert_eq!(v["req_latency_p99_ms"], 4.0);
        assert_eq!(v["setup_s"], 0.2);
        assert!(notes[0].contains("300 requests"));
    }
}
