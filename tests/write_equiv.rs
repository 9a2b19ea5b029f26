//! Write-path equivalence (PR 10): over interleaved GET/PUT workloads,
//! every served response is an **untorn version** of the document (the
//! initial bytes or some completed PUT body, never a mix), the final
//! store image agrees with the unified cache, the journal replays
//! bit-identically through the pure core, and a shared-nothing sharded
//! fleet with home-routed writes serves the same bytes as a
//! single-shard run.

use std::collections::HashMap;

use iolite::buf::Aggregate;
use iolite::core::{replay, shard_of_conn, ConnId, CostModel, Kernel, KernelState, Pid, Whence};
use iolite::fs::{home_shard, CacheKey, CacheOwnership, Policy};
use iolite::http::event_loop::{EventLoopConfig, EventLoopServer};
use iolite::http::sharded::{run_sharded, ShardedConfig};
use iolite::http::{created, response_header, synthetic_put_body};
use iolite::net::checksum::reference_checksum;
use iolite::net::{internet_checksum, BufferMode, DEFAULT_MSS, DEFAULT_TSS};
use proptest::prelude::*;

/// A journaled write-capable kernel with the Flash-Lite configuration
/// (GDS cache policy, §3.9 checksum cache on).
fn journaled_kernel() -> Kernel {
    let mut k = Kernel::with_policy(CostModel::pentium_ii_333(), Policy::Gds);
    k.start_journal();
    k.set_checksum_cache(true);
    k
}

/// Replays the kernel's journal from a blank state and asserts both the
/// state digest and the effect-fold metrics land bit-identically.
fn assert_replays(mut kernel: Kernel) {
    let journal = kernel.take_journal().expect("journal was recording");
    assert!(!journal.is_empty());
    let (replayed, metrics) = replay(
        KernelState::new(CostModel::pentium_ii_333(), Policy::Gds),
        &journal,
    );
    assert_eq!(
        replayed.state_hash(),
        kernel.state_hash(),
        "journal must replay to the live state digest"
    );
    assert_eq!(metrics, kernel.metrics, "replayed metrics must match");
}

/// Satellite 1: GET → PUT → GET on one connection. The first GET serves
/// the original bytes, the PUT answers 201, and the second GET serves
/// the replacement — byte-verified against the store and
/// checksum-verified against the reference sum (a stale §3.9 entry
/// surviving the PUT would break the latter).
#[test]
fn get_put_get_roundtrip_is_byte_and_checksum_verified() {
    let mut k = journaled_kernel();
    let pid = k.spawn("server");
    k.create_synthetic_file("/doc", 50_000, 11);
    let file = k.store.lookup("/doc").unwrap();
    let initial = k.store.read(file, 0, 50_000).unwrap();

    let scripts = vec![vec![
        "/doc".to_string(),
        "PUT /doc 30000".to_string(),
        "/doc".to_string(),
    ]];
    let cfg = EventLoopConfig {
        capture_responses: true,
        ..EventLoopConfig::default()
    };
    let (report, mut kernel) = EventLoopServer::new(k, pid, scripts, None, cfg).run();
    assert_eq!(report.stats.completed, 3);
    assert_eq!(report.stats.failed, 0);
    assert_eq!(report.stats.blocked_io, 0);
    assert_eq!(report.stats.puts, 1);

    let new_body = synthetic_put_body("/doc", 30_000);
    let mut want_old = response_header(initial.len() as u64, true);
    want_old.extend_from_slice(&initial);
    let mut want_new = response_header(new_body.len() as u64, true);
    want_new.extend_from_slice(&new_body);
    let got: Vec<&Vec<u8>> = report
        .requests
        .iter()
        .map(|r| r.response.as_ref().expect("captured"))
        .collect();
    assert_eq!(got[0], &want_old, "first GET serves the original");
    assert_eq!(got[1], &created(true), "PUT answers 201");
    assert_eq!(got[2], &want_new, "second GET serves the replacement");

    // Store image and cache entry both hold the replacement, and a
    // fresh read checksums to the reference over the new bytes.
    assert_eq!(kernel.store.len(file), Some(30_000));
    assert_eq!(kernel.store.read(file, 0, 30_000).unwrap(), new_body);
    let (fd, _) = kernel.open(pid, "/doc").unwrap();
    let (agg, _) = kernel.iol_pread(pid, fd, 0, 30_000).unwrap();
    assert_eq!(agg.to_vec(), new_body);
    assert_eq!(internet_checksum(&agg), reference_checksum(&new_body));

    assert_replays(kernel);
}

/// The §3.9 staleness mechanism directly: transmit a document twice
/// (the second ride is fully checksum-cached), replace it with
/// `put_install`, and transmit the re-read — the post-PUT send must
/// compute every byte fresh. A cached sum surviving the PUT would
/// surface here as `csum_bytes_cached > 0` over different bytes.
#[test]
fn stale_checksum_is_never_served_after_put() {
    let mut k = journaled_kernel();
    let pid = k.spawn("server");
    k.create_synthetic_file("/doc", 10_000, 3);
    let file = k.store.lookup("/doc").unwrap();
    let sock = k.socket_create(pid, BufferMode::ZeroCopy, DEFAULT_MSS, DEFAULT_TSS);

    let (fd, _) = k.open(pid, "/doc").unwrap();
    let (body, _) = k.iol_pread(pid, fd, 0, 10_000).unwrap();
    let (_, first) = k.iol_write_fd(pid, sock, &body).unwrap();
    assert_eq!(first.net.unwrap().csum_bytes_computed, 10_000);
    let (_, second) = k.iol_write_fd(pid, sock, &body).unwrap();
    assert_eq!(
        second.net.unwrap().csum_bytes_cached,
        10_000,
        "the cache must be live before the PUT for the test to mean anything"
    );

    let new_body = synthetic_put_body("/doc", 12_000);
    let pool = k.process(pid).pool().clone();
    let agg = Aggregate::from_bytes(&pool, &new_body);
    k.put_install(pid, file, &agg);

    let (fd2, _) = k.open(pid, "/doc").unwrap();
    let (reread, _) = k.iol_pread(pid, fd2, 0, 12_000).unwrap();
    assert_eq!(reread.to_vec(), new_body);
    let (_, third) = k.iol_write_fd(pid, sock, &reread).unwrap();
    let send = third.net.unwrap();
    assert_eq!(send.csum_bytes_cached, 0, "no stale sums after the PUT");
    assert_eq!(send.csum_bytes_computed, 12_000);
    assert_eq!(internet_checksum(&reread), reference_checksum(&new_body));

    assert_replays(k);
}

/// A PUT replaces the whole file without generating the old bytes: over
/// a synthetic file of 2^40 bytes, far too large to materialize, the
/// body becomes the file's only content in the store and the cache, and
/// the journal replays.
#[test]
fn put_over_a_huge_synthetic_file_never_materializes_it() {
    let mut k = journaled_kernel();
    let pid = k.spawn("server");
    let file = k.create_synthetic_file("/huge", 1 << 40, 5);
    let pool = k.process(pid).pool().clone();
    k.put_install(pid, file, &Aggregate::from_bytes(&pool, b"small"));
    assert_eq!(k.store.len(file), Some(5));
    assert_eq!(k.store.read(file, 0, 1 << 40).unwrap(), b"small");
    let (fd, _) = k.open(pid, "/huge").unwrap();
    let (agg, _) = k.iol_pread(pid, fd, 0, 1 << 40).unwrap();
    assert_eq!(agg.to_vec(), b"small");
    assert_replays(k);
}

/// The store keeps a PUT body in the server's own buffers, so a
/// snapshot must fork it rather than share it. Held across the rest of
/// a PUT-heavy run, a snapshot leaves the live run's `state_hash` where
/// an unsnapshotted twin's lands, and still digests as the state it
/// took. (A store `clone` would keep the chunks under the snapshot's
/// bodies alive, so the live pool would mint chunks its twin recycles.)
#[test]
fn a_held_snapshot_does_not_steer_the_live_run() {
    let run = |snapshot_at: Option<u64>| {
        let mut k = Kernel::with_policy(CostModel::pentium_ii_333(), Policy::Gds);
        let pid = k.spawn("server");
        let files: Vec<_> = (0..4)
            .map(|f| k.create_file(&format!("/f{f}"), &[]))
            .collect();
        let pool = k.process(pid).pool().clone();
        let mut held = None;
        for round in 0..64 {
            if snapshot_at == Some(round) {
                held = Some((k.snapshot(), k.state_hash()));
            }
            let body = synthetic_put_body("/f", 20_000 + 97 * round);
            k.put_install(
                pid,
                files[round as usize % 4],
                &Aggregate::from_bytes(&pool, &body),
            );
        }
        (k.state_hash(), held)
    };
    let (twin, _) = run(None);
    let (live, held) = run(Some(21));
    assert_eq!(live, twin, "a held snapshot changed the live run");
    let (snapshot, hash_when_taken) = held.unwrap();
    assert_eq!(snapshot.state_hash(), hash_when_taken);
}

/// A POSIX `write` over a kept PUT body turns it into explicit bytes
/// and patches them: the store and the cache read back the body with
/// the patch in place, across the body's buffer boundaries and past its
/// end, and the journal replays.
#[test]
fn a_posix_write_over_a_kept_body_reads_back() {
    let mut k = journaled_kernel();
    let pid = k.spawn("server");
    let file = k.create_file("/doc", &[]);
    let body = synthetic_put_body("/doc", 150_000);
    let pool = k.process(pid).pool().clone();
    k.put_install(pid, file, &Aggregate::from_bytes(&pool, &body));
    let (fd, _) = k.open(pid, "/doc").unwrap();
    let mut want = body;
    for at in [65_530, 149_998] {
        k.lseek(pid, fd, at, Whence::Set).unwrap();
        k.posix_write_fd(pid, fd, b"patch").unwrap();
        want.resize(want.len().max(at as usize + 5), 0);
        want[at as usize..at as usize + 5].copy_from_slice(b"patch");
    }
    assert_eq!(k.store.read(file, 0, u64::MAX).unwrap(), want);
    let (agg, _) = k.iol_pread(pid, fd, 0, u64::MAX).unwrap();
    assert_eq!(agg.to_vec(), want);
    assert_replays(k);
}

/// A GET after a remote PUT, on the writer's own shard, serves the whole
/// new document. A remote write that changed `/f` from 7136 to 13608
/// bytes commits at the home; the writer's shard keeps its
/// creation-time store image (7136 bytes) and no cache entry, so it
/// must fetch the document from the home rather than size or read it
/// locally: framed by the local store, the GET would serve a torn
/// 7136-byte prefix.
#[test]
fn a_get_after_a_remote_put_serves_the_whole_new_document() {
    let config = ShardedConfig {
        shards: 3,
        ownership: CacheOwnership::HomeOnly,
        cost: CostModel::pentium_ii_333(),
        policy: Policy::Gds,
        journal: false,
        loop_cfg: EventLoopConfig {
            capture_responses: true,
            ..EventLoopConfig::default()
        },
    };
    let setup = |k: &mut Kernel| -> Pid {
        let pid = k.spawn("server");
        // With three shards, FileId(0) is homed on shard 1; conn id 1
        // lands on shard 2, so the PUT and both GETs cross the fabric
        // (the asserts on remote traffic below guard both placements).
        k.create_synthetic_file("/f", 7_136, 0x6_0000);
        pid
    };
    let conns = vec![(
        1u64,
        vec![
            "PUT /f 13608".to_string(),
            "/f".to_string(),
            "/f".to_string(),
        ],
    )];
    let report = run_sharded(&config, setup, conns);
    assert_eq!(report.failed(), 0);
    assert_eq!(report.completed(), 3);
    let writes: u64 = report
        .shards
        .iter()
        .map(|s| s.report.stats.remote_writes)
        .sum();
    assert_eq!(
        writes, 1,
        "the PUT must route over the fabric to mean anything"
    );
    assert_eq!(report.remote_reads(), 2, "both GETs fetch from the home");
    let new_body = synthetic_put_body("/f", 13_608);
    let mut want = response_header(new_body.len() as u64, true);
    want.extend_from_slice(&new_body);
    let gets: Vec<&Vec<u8>> = report
        .shards
        .iter()
        .flat_map(|s| &s.report.requests)
        .filter_map(|r| r.response.as_ref())
        .filter(|r| r.starts_with(b"HTTP/1.1 200"))
        .collect();
    assert_eq!(gets.len(), 2);
    for got in gets {
        assert_eq!(got, &want, "a GET must serve the full new document");
    }
}

/// A fleet cannot create a file. Each shard PUTs a path no shard has,
/// then GETs it: a `FileId` minted by one shard's `create_file` names a
/// different file on the other shards, and a later GET routed to that
/// id's home served another shard's new file (with two shards, shard 0
/// got `/new1`'s 150 bytes). So in a fleet both requests get the 404; a
/// single shard still creates the file and serves it back.
#[test]
fn a_put_to_a_new_path_in_a_fleet_is_refused() {
    for shards in [1usize, 2, 3] {
        let config = ShardedConfig {
            shards,
            ownership: CacheOwnership::HomeOnly,
            cost: CostModel::pentium_ii_333(),
            policy: Policy::Gds,
            journal: false,
            loop_cfg: EventLoopConfig {
                capture_responses: true,
                ..EventLoopConfig::default()
            },
        };
        let setup = |k: &mut Kernel| -> Pid {
            let pid = k.spawn("server");
            k.create_synthetic_file("/f", 4_000, 0x9_0000);
            pid
        };
        let conns: Vec<(u64, Vec<String>)> = (0..shards)
            .map(|s| {
                let id = (0u64..)
                    .find(|&id| shard_of_conn(ConnId(id), shards) == s)
                    .expect("some conn id lands on every shard");
                let script = vec![format!("PUT /new{s} {}", 100 + 50 * s), format!("/new{s}")];
                (id, script)
            })
            .collect();
        let report = run_sharded(&config, setup, conns);
        assert_eq!(report.failed(), 0, "{shards} shards");
        assert_eq!(report.completed(), 2 * shards as u64, "{shards} shards");
        let requests = || report.shards.iter().flat_map(|s| &s.report.requests);
        // No GET serves another file's bytes...
        for req in requests() {
            let resp = req.response.as_ref().expect("captured");
            if resp.starts_with(b"HTTP/1.1 200") {
                let s: u64 = req.path["/new".len()..].parse().expect("/new{s}");
                let body = synthetic_put_body(&req.path, 100 + 50 * s);
                let mut want = response_header(body.len() as u64, true);
                want.extend_from_slice(&body);
                assert!(
                    *resp == want,
                    "{shards} shards: {} served another file's bytes ({} in all)",
                    req.path,
                    resp.len()
                );
            }
        }
        // ...because a fleet answers both requests with the 404.
        for req in requests() {
            let resp = req.response.as_ref().expect("captured");
            let want = if shards > 1 { "404" } else { "20" };
            assert!(
                resp.starts_with(format!("HTTP/1.1 {want}").as_bytes()),
                "{shards} shards, {}: {}",
                req.path,
                String::from_utf8_lossy(&resp[..resp.len().min(40)])
            );
        }
    }
}

/// `writers` connections on shard 1 of a 2-shard fleet each PUT a file
/// homed on shard 0, all at once. A parked writer waits on one message
/// (its `RemoteWrite`, then the home's `RemoteWriteAck`), so no inbox
/// holds more than one message per writer. Every PUT completes, and the
/// measured depth stays within that bound.
fn remote_write_flood(writers: usize) {
    let config = ShardedConfig {
        shards: 2,
        ownership: CacheOwnership::HomeOnly,
        cost: CostModel::pentium_ii_333(),
        policy: Policy::Gds,
        journal: false,
        loop_cfg: EventLoopConfig::default(),
    };
    let setup = |k: &mut Kernel| -> Pid {
        let pid = k.spawn("server");
        for f in 0..16 {
            k.create_synthetic_file(&format!("/f{f}"), 4_000, 0x8_0000 + f);
        }
        pid
    };
    let mut probe = Kernel::with_policy(config.cost, config.policy);
    setup(&mut probe);
    let homed: Vec<String> = (0..16)
        .map(|f| format!("/f{f}"))
        .filter(|path| home_shard(probe.store.lookup(path).expect("corpus"), 2) == 0)
        .collect();
    assert!(!homed.is_empty(), "some file must be homed on shard 0");
    let conns: Vec<(u64, Vec<String>)> = (0u64..)
        .filter(|&id| shard_of_conn(ConnId(id), 2) == 1)
        .take(writers)
        .enumerate()
        .map(|(i, id)| (id, vec![format!("PUT {} 100", homed[i % homed.len()])]))
        .collect();
    let report = run_sharded(&config, setup, conns);
    let case = format!("{writers} writers");
    assert_eq!(report.completed(), writers as u64, "{case}");
    assert_eq!(report.failed(), 0, "{case}");
    let remote_writes: u64 = report
        .shards
        .iter()
        .map(|s| s.report.stats.remote_writes)
        .sum();
    assert_eq!(remote_writes, writers as u64, "{case}: every PUT routes");
    assert!(
        report.max_inbox_depth <= writers,
        "{case}: an inbox held {} messages",
        report.max_inbox_depth
    );
}

#[test]
fn a_remote_write_flood_completes_within_the_inbox_bound() {
    for writers in [256, 4_096] {
        remote_write_flood(writers);
    }
}

/// Acceptance criterion: a journaled 256-connection mixed GET/PUT run
/// completes with `blocked_io == 0` and replays bit-identically
/// (state digest + metrics) from a blank state.
#[test]
fn acceptance_256_connections_mixed_workload_replays() {
    let mut k = journaled_kernel();
    let pid = k.spawn("server");
    let files = 12usize;
    let paths: Vec<String> = (0..files).map(|i| format!("/f{i}")).collect();
    for (i, path) in paths.iter().enumerate() {
        k.create_synthetic_file(path, 4_000 + 2_400 * i as u64, 0x7_0000 + i as u64);
    }
    // A deterministic mix: every connection issues three requests,
    // roughly a third of them PUTs.
    let mut x = 0x243F_6A88_85A3_08D3u64;
    let mut step = || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let scripts: Vec<Vec<String>> = (0..256)
        .map(|_| {
            (0..3)
                .map(|_| {
                    let path = &paths[(step() % files as u64) as usize];
                    if step() % 3 == 0 {
                        format!("PUT {path} {}", 1 + step() % 16_000)
                    } else {
                        path.clone()
                    }
                })
                .collect()
        })
        .collect();
    let (report, kernel) =
        EventLoopServer::new(k, pid, scripts, None, EventLoopConfig::default()).run();
    assert_eq!(report.stats.completed, 768);
    assert_eq!(report.stats.failed, 0);
    assert_eq!(report.stats.blocked_io, 0, "readiness-driven, no spin");
    assert!(report.stats.puts > 150, "the mix must actually write");
    assert_replays(kernel);
}

proptest! {
    /// Interleaved GETs and PUTs across concurrent connections: every
    /// GET serves an untorn version (the initial bytes or some
    /// complete PUT body — never a mix), the cache agrees with the
    /// store at quiesce, no pins leak, and the journal replays.
    #[test]
    fn interleaved_gets_and_puts_stay_consistent_and_replay(
        sizes in proptest::collection::vec(1u64..40_000, 2..5),
        ops in proptest::collection::vec(
            (any::<u64>(), any::<bool>(), 1u64..20_000), 4..20),
    ) {
        let mut k = journaled_kernel();
        let pid = k.spawn("server");
        let paths: Vec<String> = (0..sizes.len()).map(|i| format!("/f{i}")).collect();
        // Every version a GET may legally serve: the initial bytes
        // plus each PUT body targeting the path.
        let mut versions: HashMap<String, Vec<Vec<u8>>> = HashMap::new();
        for (i, &bytes) in sizes.iter().enumerate() {
            k.create_synthetic_file(&paths[i], bytes, 0x5_0000 + i as u64);
            let file = k.store.lookup(&paths[i]).unwrap();
            versions.insert(paths[i].clone(), vec![k.store.read(file, 0, bytes).unwrap()]);
        }
        let n_conns = ops.len().min(6);
        let mut scripts = vec![Vec::new(); n_conns];
        for (j, &(pick, is_put, len)) in ops.iter().enumerate() {
            let path = &paths[(pick % paths.len() as u64) as usize];
            if is_put {
                versions.get_mut(path).unwrap().push(synthetic_put_body(path, len));
                scripts[j % n_conns].push(format!("PUT {path} {len}"));
            } else {
                scripts[j % n_conns].push(path.clone());
            }
        }
        let cfg = EventLoopConfig {
            capture_responses: true,
            ..EventLoopConfig::default()
        };
        let (report, kernel) = EventLoopServer::new(k, pid, scripts, None, cfg).run();
        prop_assert_eq!(report.stats.completed as usize, ops.len());
        prop_assert_eq!(report.stats.failed, 0);
        prop_assert_eq!(report.stats.blocked_io, 0);

        for req in &report.requests {
            let resp = req.response.as_ref().expect("captured");
            if resp.starts_with(b"HTTP/1.1 201") {
                prop_assert_eq!(resp, &created(true));
                continue;
            }
            let ok = versions[&req.path].iter().any(|v| {
                let mut want = response_header(v.len() as u64, true);
                want.extend_from_slice(v);
                *resp == want
            });
            prop_assert!(ok, "{}: response is a torn or unknown version", req.path);
        }

        // Quiesce: the store holds some complete version, the cache
        // entry (when resident) matches it, and no pins leak.
        for path in &paths {
            let file = kernel.store.lookup(path).unwrap();
            let len = kernel.store.len(file).unwrap();
            let stored = kernel.store.read(file, 0, len).unwrap();
            prop_assert!(
                versions[path].contains(&stored),
                "{path}: store holds a torn or unknown version"
            );
            let key = CacheKey::whole(file);
            prop_assert_eq!(kernel.cache.pins(&key), 0, "{} leaked pins", path);
            if let Some(agg) = kernel.cache.peek(&key) {
                prop_assert_eq!(agg.to_vec(), stored, "{} cache diverges from store", path);
            }
        }
        assert_replays(kernel);
    }

    /// A shared-nothing fleet with home-routed writes serves the same
    /// bytes as a single shard. Each path's full GET/PUT history lives
    /// on one connection, so its response sequence is determined and
    /// partitioning must not change it; afterwards the home shard's
    /// store (the write authority) must match the single-shard image.
    #[test]
    fn sharded_write_serving_matches_single_shard(
        sizes in proptest::collection::vec(1u64..30_000, 2..5),
        op_picks in proptest::collection::vec(
            (any::<bool>(), 1u64..15_000), 6..18),
        conn_seed in any::<u64>(),
        shards in 2usize..5,
    ) {
        let config = |shards: usize, journal: bool| ShardedConfig {
            shards,
            ownership: CacheOwnership::HomeOnly,
            cost: CostModel::pentium_ii_333(),
            policy: Policy::Gds,
            journal,
            loop_cfg: EventLoopConfig {
                capture_responses: true,
                ..EventLoopConfig::default()
            },
        };
        let paths: Vec<String> = (0..sizes.len()).map(|i| format!("/f{i}")).collect();
        let setup = {
            let sizes = sizes.clone();
            let paths = paths.clone();
            move |k: &mut Kernel| -> Pid {
                let pid = k.spawn("server");
                for (i, &bytes) in sizes.iter().enumerate() {
                    k.create_synthetic_file(&paths[i], bytes, 0x6_0000 + i as u64);
                }
                pid
            }
        };
        // Path-partitioned scripts: connection `i % n` owns path `i`,
        // so every file's write history is serial on one connection.
        let n_conns = paths.len().min(4);
        let mut conns: Vec<(u64, Vec<String>)> = (0..n_conns)
            .map(|j| (conn_seed.wrapping_add(j as u64 * 4096), Vec::new()))
            .collect();
        for (j, &(is_put, len)) in op_picks.iter().enumerate() {
            let p = j % paths.len();
            let path = &paths[p];
            conns[p % n_conns].1.push(if is_put {
                format!("PUT {path} {len}")
            } else {
                path.clone()
            });
        }

        let in_flight = conns.len();
        let base = run_sharded(&config(1, false), setup.clone(), conns.clone());
        let fleet = run_sharded(&config(shards, true), setup, conns);
        prop_assert!(fleet.max_inbox_depth <= in_flight, "depth {}", fleet.max_inbox_depth);

        prop_assert_eq!(base.failed(), 0);
        prop_assert_eq!(fleet.failed(), 0);
        prop_assert_eq!(fleet.completed(), base.completed());
        prop_assert_eq!(fleet.completed() as usize, op_picks.len());

        // Identical per-path response multisets: each path's history
        // is fixed by its owning connection, so the bytes served must
        // survive partitioning exactly.
        let responses = |r: &iolite::http::ShardedReport| {
            let mut m: HashMap<String, Vec<Vec<u8>>> = HashMap::new();
            for s in &r.shards {
                assert_eq!(s.report.stats.blocked_io, 0, "no busy-spin");
                for req in &s.report.requests {
                    m.entry(req.path.clone())
                        .or_default()
                        .push(req.response.clone().expect("captured"));
                }
            }
            for v in m.values_mut() {
                v.sort_unstable();
            }
            m
        };
        prop_assert_eq!(responses(&fleet), responses(&base));

        // The home shard's store — the write authority under
        // shared-nothing sharding — matches the single-shard image.
        for path in &paths {
            let truth = &base.shards[0].kernel.store;
            let file = truth.lookup(path).unwrap();
            let len = truth.len(file).unwrap();
            let home = home_shard(file, shards);
            let fleet_store = &fleet.shards[home].kernel.store;
            prop_assert_eq!(fleet_store.len(file), Some(len), "{}", path);
            prop_assert_eq!(
                fleet_store.read(file, 0, len),
                truth.read(file, 0, len),
                "{}: home store diverges from single-shard store",
                path
            );
        }

        // Every shard's journal replays bit-identically.
        for outcome in fleet.shards {
            let mut kernel = outcome.kernel;
            let journal = kernel.take_journal().expect("journal was recording");
            let (replayed, metrics) = replay(
                KernelState::new(CostModel::pentium_ii_333(), Policy::Gds),
                &journal,
            );
            prop_assert_eq!(
                replayed.state_hash(),
                kernel.state_hash(),
                "shard {} journal must replay to the live state digest",
                outcome.shard
            );
            prop_assert_eq!(metrics, kernel.metrics.clone(), "shard {}", outcome.shard);
        }
    }
}
