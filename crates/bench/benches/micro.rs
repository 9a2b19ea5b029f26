//! Microbenchmarks of the core IO-Lite mechanisms (host performance of
//! this implementation, not simulated time).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use iolite_buf::{Acl, Aggregate, BufferPool, DomainId, PoolId};
use iolite_fs::{CacheKey, FileId, Policy, UnifiedCache};
use iolite_ipc::{Pipe, PipeMode};
use iolite_net::{internet_checksum, ChecksumCache};
use iolite_vm::MmapView;

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

fn pool() -> BufferPool {
    BufferPool::new(PoolId(1), Acl::with_domain(DomainId(1)), 64 * 1024)
}

fn bench_aggregates(c: &mut Criterion) {
    let p = pool();
    let data = vec![0xA5u8; 64 * 1024];
    let mut g = quick(c.benchmark_group("aggregate"));
    g.throughput(Throughput::Bytes(64 * 1024));
    g.bench_function("from_bytes_64k", |b| {
        b.iter(|| Aggregate::from_bytes(&p, &data))
    });
    let agg = Aggregate::from_bytes(&p, &data);
    g.bench_function("clone_share", |b| b.iter(|| agg.clone()));
    g.bench_function("split_at_mid", |b| b.iter(|| agg.split_at(32 * 1024)));
    g.bench_function("concat", |b| b.iter(|| agg.concat(&agg)));
    g.bench_function("range_4k", |b| b.iter(|| agg.range(1000, 4096).unwrap()));
    g.bench_function("replace_16b", |b| {
        b.iter(|| agg.replace(&p, 100, 16, b"0123456789abcdef").unwrap())
    });
    g.finish();
}

/// A 256-slice aggregate (64KB in 256-byte buffers): the fragmentation
/// degree §3.8's indexing-cost analysis worries about. These benches
/// make the aggregate core's structural costs visible so index/cursor
/// changes are measurable (before/after tables live in EXPERIMENTS.md).
fn frag_aggregate() -> (BufferPool, Aggregate) {
    let tiny = BufferPool::new(PoolId(3), Acl::with_domain(DomainId(1)), 256);
    let data = vec![0x3Cu8; 64 * 1024];
    let agg = Aggregate::from_bytes(&tiny, &data);
    assert_eq!(agg.num_slices(), 256);
    (tiny, agg)
}

fn bench_fragmented(c: &mut Criterion) {
    let (_tiny, agg) = frag_aggregate();
    let big = pool();
    let mut g = quick(c.benchmark_group("aggregate_frag256"));
    g.bench_function("advance_sweep_256x256", |b| {
        // Consume the whole aggregate front-to-back in 256-byte steps.
        b.iter_batched(
            || agg.clone(),
            |mut a| {
                while !a.is_empty() {
                    a.advance(256);
                }
                a
            },
            BatchSize::SmallInput,
        )
    });
    g.bench_function("byte_at_sweep_1k", |b| {
        // 1024 random-ish probes across the full range.
        b.iter(|| {
            let mut acc = 0u64;
            let mut i = 7u64;
            for _ in 0..1024 {
                i = (i * 31 + 17) % agg.len();
                acc += agg.byte_at(i).unwrap() as u64;
            }
            acc
        })
    });
    g.bench_function("copy_to_4k_mid", |b| {
        let mut dst = vec![0u8; 4096];
        b.iter(|| agg.copy_to(30 * 1024, &mut dst))
    });
    g.bench_function("copy_to_256b_deep", |b| {
        // Small window deep in the aggregate: slice location, not the
        // memcpy, is the dominant cost being measured.
        let mut dst = vec![0u8; 256];
        b.iter(|| agg.copy_to(60 * 1024, &mut dst))
    });
    g.bench_function("range_4k_mid", |b| b.iter(|| agg.range(30 * 1024, 4096)));
    g.bench_function("truncate_tail", |b| {
        b.iter_batched(
            || agg.clone(),
            |mut a| {
                a.truncate(63 * 1024);
                a
            },
            BatchSize::SmallInput,
        )
    });
    g.bench_function("prepend_64_slices", |b| {
        let single = Aggregate::from_bytes(&big, &[0u8; 64]);
        b.iter_batched(
            || agg.clone(),
            |mut a| {
                for _ in 0..64 {
                    a.prepend(&single);
                }
                a
            },
            BatchSize::SmallInput,
        )
    });
    g.bench_function("pack_64k", |b| b.iter(|| agg.pack(&big)));
    g.bench_function("iter_bytes_scan_64k", |b| {
        b.iter(|| agg.iter_bytes().fold(0u64, |a, x| a + x as u64))
    });
    g.bench_function("cursor_scan_64k", |b| {
        // The vectored fast path: run-wise scan via the zero-alloc cursor.
        b.iter(|| {
            let mut cur = agg.cursor();
            let mut acc = 0u64;
            while let Some(chunk) = cur.next_chunk() {
                acc += chunk.iter().map(|&x| x as u64).sum::<u64>();
            }
            acc
        })
    });
    g.finish();
}

fn bench_pool(c: &mut Criterion) {
    let mut g = quick(c.benchmark_group("pool"));
    g.bench_function("alloc_freeze_recycle_4k", |b| {
        let p = pool();
        b.iter(|| {
            let mut m = p.alloc(4096).unwrap();
            m.put(&[0u8; 4096]);
            m.freeze()
        })
    });
    g.bench_function("alloc_fresh_chunks", |b| {
        // Hold every allocation: no recycling possible.
        b.iter_batched(
            pool,
            |p| {
                let mut keep = Vec::new();
                for _ in 0..16 {
                    let mut m = p.alloc(64 * 1024).unwrap();
                    m.put(&[0u8; 64 * 1024]);
                    keep.push(m.freeze());
                }
                keep
            },
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

fn bench_checksum(c: &mut Criterion) {
    let p = pool();
    let agg = Aggregate::from_bytes(&p, &vec![0x5Au8; 64 * 1024]);
    let mut g = quick(c.benchmark_group("checksum"));
    g.throughput(Throughput::Bytes(64 * 1024));
    g.bench_function("compute_64k", |b| b.iter(|| internet_checksum(&agg)));
    g.bench_function("cached_64k", |b| {
        let mut cache = ChecksumCache::new(1024);
        cache.sum_for(agg.slice_at(0));
        b.iter(|| cache.sum_for(agg.slice_at(0)))
    });
    // The §3.9 complexity contract: retiring one buffer costs the
    // entries on that buffer, not the table's population — the two
    // `invalidate_*` rows stay within 2x of each other — and a hit in a
    // full kernel-sized table stays one probe plus a short chain walk.
    g.throughput(Throughput::Elements(1));
    let windows: Vec<_> = (0..3)
        .map(|i| agg.slice_at(0).sub(i * 64, 64).unwrap())
        .collect();
    // A table holding `residents` sums over unrelated buffers, with
    // room for the three windows.
    let resident_table = |residents: usize| {
        let unrelated: Vec<Aggregate> = (0..residents)
            .map(|i| Aggregate::from_bytes(&p, &(i as u64).to_le_bytes()))
            .collect();
        let mut cache = ChecksumCache::new(residents + windows.len());
        for a in &unrelated {
            cache.sum_for(a.slice_at(0));
        }
        (cache, unrelated)
    };
    let (mut small, _small_residents) = resident_table(1 << 10);
    let (mut full, residents) = resident_table(1 << 16);
    for (name, cache) in [("1k", &mut small), ("64k", &mut full)] {
        // One PUT over a document last sent in three windows: admit
        // the three sub-range sums, then retire their buffer.
        g.bench_function(format!("invalidate_1_of_{name}"), |b| {
            b.iter(|| {
                for w in &windows {
                    cache.sum_for(w);
                }
                cache.invalidate_aggregate(&agg)
            })
        });
    }
    g.bench_function("sum_for_hit_64k", |b| {
        let mut i = 0;
        b.iter(|| {
            i = (i + 7919) % residents.len();
            full.sum_for(residents[i].slice_at(0))
        })
    });
    g.finish();
}

fn bench_unified_cache(c: &mut Criterion) {
    let p = pool();
    let mut g = quick(c.benchmark_group("unified_cache"));
    for policy in [Policy::Lru, Policy::Gds] {
        let mut cache = UnifiedCache::new(policy, 64 << 20);
        for i in 0..1000 {
            cache.insert(
                CacheKey::whole(FileId(i)),
                Aggregate::from_bytes(&p, &vec![0u8; 4096]),
            );
        }
        g.bench_function(format!("lookup_hit_{policy:?}"), |b| {
            let mut i = 0u64;
            b.iter(|| {
                i = (i + 7) % 1000;
                cache.lookup(&CacheKey::whole(FileId(i)))
            })
        });
    }
    // Steady-state insert+evict churn.
    g.bench_function("insert_evict_churn", |b| {
        let mut cache = UnifiedCache::new(Policy::Gds, 1 << 20);
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            cache.insert(
                CacheKey::whole(FileId(i)),
                Aggregate::from_bytes(&p, &vec![0u8; 16 * 1024]),
            )
        })
    });
    g.finish();
}

fn bench_pipes(c: &mut Criterion) {
    let p = pool();
    let msg = Aggregate::from_bytes(&p, &vec![0u8; 32 * 1024]);
    let mut g = quick(c.benchmark_group("pipe"));
    g.throughput(Throughput::Bytes(32 * 1024));
    g.bench_function("copy_mode_roundtrip_32k", |b| {
        let mut pipe = Pipe::new(PipeMode::Copy, 64 * 1024);
        b.iter(|| {
            pipe.write(&msg);
            pipe.read(u64::MAX)
        })
    });
    g.bench_function("zero_copy_roundtrip_32k", |b| {
        let mut pipe = Pipe::new(PipeMode::ZeroCopy, 64 * 1024);
        b.iter(|| {
            pipe.write(&msg);
            pipe.read(u64::MAX)
        })
    });
    g.finish();
}

fn bench_mmap(c: &mut Criterion) {
    let p = pool();
    let tiny = BufferPool::new(PoolId(2), Acl::kernel_only(), 1000);
    let data = vec![1u8; 64 * 1024];
    let contiguous = Aggregate::from_bytes_aligned(&p, &data, 4096);
    let fragmented = Aggregate::from_bytes(&tiny, &data);
    let mut g = quick(c.benchmark_group("mmap"));
    g.throughput(Throughput::Bytes(64 * 1024));
    g.bench_function("direct_read_64k", |b| {
        b.iter_batched(
            || MmapView::new(contiguous.clone()),
            |mut v| v.read_all(),
            BatchSize::SmallInput,
        )
    });
    g.bench_function("fragmented_read_64k", |b| {
        b.iter_batched(
            || MmapView::new(fragmented.clone()),
            |mut v| v.read_all(),
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_aggregates,
    bench_fragmented,
    bench_pool,
    bench_checksum,
    bench_unified_cache,
    bench_pipes,
    bench_mmap
);
criterion_main!(benches);
