//! Ablation benchmarks for the design decisions DESIGN.md §6 calls out:
//! pool recycling, early demultiplexing, in-place mutation, and chunk
//! size. Each prints the *simulated* mechanism delta once, then
//! benchmarks the host-side cost of the mechanism.

use criterion::{criterion_group, criterion_main, Criterion};
use iolite_buf::{Acl, Aggregate, BufferPool, DomainId, PoolId};
use iolite_fs::{CacheKey, FileId, Policy, UnifiedCache};
use iolite_net::{FilterRule, RxPath, SegmentHeader, StreamId};
use iolite_sim::SimRng;
use iolite_trace::{TraceSpec, Workload};
use iolite_vm::IoLiteWindow;

/// Short measurement windows: benches document magnitudes, not publishable
/// microbenchmark precision.
fn quick<M: criterion::measurement::Measurement>(
    mut g: criterion::BenchmarkGroup<'_, M>,
) -> criterion::BenchmarkGroup<'_, M> {
    g.sample_size(10);
    g.warm_up_time(std::time::Duration::from_millis(500));
    g.measurement_time(std::time::Duration::from_secs(2));
    g
}

/// Policy ablation: request hit rates of LRU / GDS / GDSF on the
/// 150MB subtrace at half-size cache (the §3.7 customization hook).
fn policy_hit_rates() -> Vec<(Policy, f64)> {
    let w = Workload::synthesize(&TraceSpec::subtrace_150mb(), 42);
    let pool = BufferPool::new(PoolId(9), Acl::kernel_only(), 64 * 1024);
    [Policy::Lru, Policy::Gds, Policy::Gdsf]
        .into_iter()
        .map(|policy| {
            let mut cache = UnifiedCache::new(policy, 75 << 20);
            let mut rng = SimRng::new(7);
            let mut hits = 0u64;
            let n = 60_000u64;
            for _ in 0..n {
                let idx = w.sample_request(&mut rng);
                let key = CacheKey::whole(FileId(idx as u64));
                if cache.lookup(&key).is_none() {
                    // Miss: "fetch" and insert a placeholder of the
                    // file's real size (content is irrelevant to policy
                    // behaviour, and this keeps the sweep fast).
                    let size = w.files()[idx].bytes;
                    cache.insert(key, placeholder(&pool, size));
                } else {
                    hits += 1;
                }
            }
            (policy, hits as f64 / n as f64)
        })
        .collect()
}

/// A sparse stand-in aggregate of the right accounted length.
fn placeholder(pool: &BufferPool, size: u64) -> Aggregate {
    // One real slice, repeated by reference to reach `size` cheaply.
    let base = Aggregate::from_bytes(pool, &[0u8; 4096]);
    let slice = base.slice_at(0).clone();
    let mut agg = Aggregate::empty();
    let mut remaining = size;
    while remaining > 0 {
        let take = remaining.min(4096) as usize;
        agg.append_slice(slice.sub(0, take).expect("in range"));
        remaining -= take as u64;
    }
    agg
}

/// Recycling ablation: map-operation counts for a pipe-style stream of
/// 64KB messages with and without chunk recycling.
fn recycling_delta() -> (u64, u64) {
    let run = |hold: bool| -> u64 {
        let pool = BufferPool::new(PoolId(1), Acl::with_domain(DomainId(1)), 64 * 1024);
        let mut window = IoLiteWindow::new(64 * 1024);
        let acl = pool.acl();
        let mut keep = Vec::new();
        for _ in 0..100 {
            let msg = Aggregate::from_bytes(&pool, &[0u8; 64 * 1024]);
            let chunks = msg.slices().map(|s| s.id().chunk);
            window.transfer(chunks, DomainId(1), &acl).unwrap();
            if hold {
                // Prevent recycling: every message keeps its buffers
                // (sequential-sharing systems without recycling).
                keep.push(msg);
            }
        }
        window.stats().pages_mapped
    };
    (run(false), run(true))
}

/// Demux ablation: copied bytes with and without early demultiplexing.
fn demux_delta() -> (u64, u64) {
    let run = |enabled: bool| -> u64 {
        let mut rx = RxPath::new();
        rx.filter_mut().set_enabled(enabled);
        rx.filter_mut().add_rule(FilterRule {
            dst_port: 80,
            src_ip: None,
            src_port: None,
            stream: StreamId(1),
        });
        rx.bind_stream(
            StreamId(1),
            BufferPool::new(PoolId(2), Acl::with_domain(DomainId(1)), 64 * 1024),
        );
        let header = SegmentHeader {
            src_ip: 1,
            dst_ip: 2,
            src_port: 1234,
            dst_port: 80,
            seq: 0,
            ack: 0,
            flags: 0x18,
            payload_len: 1460,
        };
        let payload = [0u8; 1460];
        for _ in 0..100 {
            rx.receive(&header, &payload);
        }
        rx.stats().bytes_copied
    };
    (run(true), run(false))
}

/// In-place ablation: mutating a 64KB buffer via the §3.1-footnote
/// optimization vs the chaining path.
fn bench_inplace(c: &mut Criterion) {
    let pool = BufferPool::new(PoolId(3), Acl::kernel_only(), 64 * 1024);
    let mut g = quick(c.benchmark_group("ablate_inplace"));
    g.bench_function("unshared_in_place", |b| {
        b.iter(|| {
            let agg = Aggregate::from_bytes(&pool, &[0u8; 4096]);
            let mut s = agg.slice_at(0).clone();
            drop(agg);
            s.try_mutate_in_place(|bytes| bytes[100] = 7).unwrap();
            s
        })
    });
    g.bench_function("shared_chain", |b| {
        let agg = Aggregate::from_bytes(&pool, &[0u8; 4096]);
        b.iter(|| agg.replace(&pool, 100, 1, &[7]).unwrap())
    });
    g.finish();
}

/// Chunk-size ablation: first-transfer mapping cost vs ACL granularity.
fn chunk_size_sweep() -> Vec<(usize, u64)> {
    [16 * 1024, 64 * 1024, 256 * 1024]
        .into_iter()
        .map(|chunk| {
            let pool = BufferPool::new(PoolId(4), Acl::with_domain(DomainId(1)), chunk);
            let mut window = IoLiteWindow::new(chunk);
            let acl = pool.acl();
            // Transfer 1MB of fresh data.
            let mut held = Vec::new();
            for _ in 0..16 {
                let msg = Aggregate::from_bytes(&pool, &vec![0u8; 64 * 1024]);
                let chunks = msg.slices().map(|s| s.id().chunk);
                window.transfer(chunks, DomainId(1), &acl).unwrap();
                held.push(msg);
            }
            (chunk, window.stats().chunk_maps)
        })
        .collect()
}

fn print_deltas_once() {
    use std::sync::Once;
    static ONCE: Once = Once::new();
    if std::env::args().any(|a| a == "--test") {
        return;
    }
    ONCE.call_once(|| {
        let (with, without) = recycling_delta();
        eprintln!(
            "--- ablation: pool recycling: pages mapped for 100x64KB stream: \
             with recycling {with}, without {without} (the §3.2 claim)"
        );
        let (with, without) = demux_delta();
        eprintln!(
            "--- ablation: early demux: payload bytes copied for 100 packets: \
             with demux {with}, without {without} (the §3.6 claim)"
        );
        for (chunk, maps) in chunk_size_sweep() {
            eprintln!(
                "--- ablation: chunk size {:>6}KB -> {maps} map ops per fresh MB \
                 (§4.5 granularity trade-off)",
                chunk >> 10
            );
        }
        for (policy, hit) in policy_hit_rates() {
            eprintln!(
                "--- ablation: cache policy {policy:?}: request hit rate {:.3} \
                 (150MB subtrace, 75MB cache; the §3.7 customization hook)",
                hit
            );
        }
    });
}

fn bench_recycling(c: &mut Criterion) {
    print_deltas_once();
    let mut g = quick(c.benchmark_group("ablate_recycling"));
    g.bench_function("delta", |b| b.iter(recycling_delta));
    g.finish();
}

fn bench_demux(c: &mut Criterion) {
    let mut g = quick(c.benchmark_group("ablate_demux"));
    g.bench_function("delta", |b| b.iter(demux_delta));
    g.finish();
}

criterion_group!(benches, bench_recycling, bench_demux, bench_inplace);
criterion_main!(benches);
