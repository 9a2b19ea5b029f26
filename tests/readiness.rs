//! Readiness semantics end-to-end (PR 5): `iol_poll` edge cases at the
//! descriptor layer, and — property-checked — the guarantee that the
//! readiness-driven event loop serves **byte-identical responses with
//! identical checksum-cache state** to the sequential `serve_static`
//! path over the same request set, while multiplexing ≥ 1024
//! connections with zero busy-spin on `WouldBlock`.

use iolite::buf::Aggregate;
use iolite::core::{CostModel, Fd, IolError, Kernel};
use iolite::fs::{CacheKey, Policy};
use iolite::http::event_loop::{EventLoopConfig, EventLoopServer, CGI_PREFIX};
use iolite::http::server::{serve_static, ServerKind};
use iolite::http::{response_header, CgiProcess};
use iolite::ipc::PipeMode;
use iolite::net::BufferMode;
use proptest::prelude::*;

fn kernel() -> Kernel {
    Kernel::with_policy(CostModel::pentium_ii_333(), Policy::Gds)
}

// ---- iol_poll edge cases ------------------------------------------------

/// EOF on an empty, closed pipe: while a writer lives the empty pipe is
/// merely pending; once the last write end closes, buffered data stays
/// readable and `eof` appears only after the drain.
#[test]
fn poll_eof_on_empty_closed_pipe() {
    let mut k = kernel();
    let a = k.spawn("producer");
    let b = k.spawn("consumer");
    let (w, r) = k.pipe_between(a, b, PipeMode::ZeroCopy);
    let ev = k.iol_poll(b, &[r]);
    assert!(!ev[0].readable && !ev[0].eof, "open writer: just pending");
    let pool = k.process(a).pool().clone();
    k.iol_write_fd(a, w, &Aggregate::from_bytes(&pool, b"tail"))
        .unwrap();
    k.close_fd(a, w).unwrap();
    // Closed but not yet drained: readable, not EOF.
    let ev = k.iol_poll(b, &[r]);
    assert!(ev[0].readable && !ev[0].eof);
    let (got, _) = k.iol_read_fd(b, r, 100).unwrap();
    assert_eq!(got.to_vec(), b"tail");
    // Empty + closed: EOF, and the read agrees.
    let ev = k.iol_poll(b, &[r]);
    assert!(ev[0].eof && !ev[0].readable);
    assert!(k.iol_read_fd(b, r, 100).unwrap().0.is_empty());
}

/// Writable-after-drain on both pipe and nonblocking socket: a full
/// buffer is not writable; draining it flips the readiness bit.
#[test]
fn poll_writable_after_drain() {
    let mut k = kernel();
    let a = k.spawn("producer");
    let b = k.spawn("consumer");
    let (w, r) = k.pipe_between(a, b, PipeMode::ZeroCopy);
    let pool = k.process(a).pool().clone();
    let fill = Aggregate::from_bytes(&pool, &[1u8; 64 * 1024]);
    k.iol_write_fd(a, w, &fill).unwrap();
    let ev = k.iol_poll(a, &[w]);
    assert!(!ev[0].writable, "full pipe is not writable");
    k.iol_read_fd(b, r, 1024).unwrap();
    let ev = k.iol_poll(a, &[w]);
    assert!(ev[0].writable, "reader drained: writable again");
    // Same transition on a nonblocking socket's send buffer.
    let sock = k.socket_create(a, BufferMode::ZeroCopy, 1460, 64 * 1024);
    k.set_nonblocking(a, sock, true).unwrap();
    iolite::core::short_ok(k.iol_write_fd(a, sock, &fill)).unwrap();
    let ev = k.iol_poll(a, &[sock]);
    assert!(!ev[0].writable, "Tss exhausted");
    k.socket_drain(a, sock, 16 * 1024).unwrap();
    let ev = k.iol_poll(a, &[sock]);
    assert!(ev[0].writable, "ACKed bytes free the buffer");
}

/// EPIPE readiness: the peer disappearing is itself an event — the
/// write end of a reader-less pipe and a peer-closed socket both
/// report `epipe`, whatever direction the caller was waiting for.
#[test]
fn poll_epipe_readiness() {
    let mut k = kernel();
    let a = k.spawn("producer");
    let b = k.spawn("consumer");
    let (w, r) = k.pipe_between(a, b, PipeMode::ZeroCopy);
    let ev = k.iol_poll(a, &[w]);
    assert!(ev[0].writable && !ev[0].epipe);
    k.close_fd(b, r).unwrap();
    let ev = k.iol_poll(a, &[w]);
    assert!(ev[0].epipe && !ev[0].writable, "no reader left");
    // Socket peer close reports epipe the same way.
    let sock = k.socket_create(a, BufferMode::ZeroCopy, 1460, 64 * 1024);
    k.socket_peer_close(a, sock).unwrap();
    let ev = k.iol_poll(a, &[sock]);
    assert!(ev[0].epipe && ev[0].eof);
    let pool = k.process(a).pool().clone();
    let msg = Aggregate::from_bytes(&pool, b"late");
    assert_eq!(k.iol_write_fd(a, sock, &msg), Err(IolError::Closed));
}

// ---- the acceptance bar: ≥1024-way multiplexing, CGI included ----------

/// 1024 static connections plus a CGI contingent, all in flight at
/// once, all served through `iol_poll` with zero busy-spin — and again
/// at 2048, the top of the concurrency sweep EXPERIMENTS.md tabulates.
#[test]
fn multiplexes_1024_connections_with_zero_busy_spin() {
    for statics in [1024usize, 2048] {
        let mut k = kernel();
        let pid = k.spawn("server");
        k.create_synthetic_file("/hot", 30_000, 5);
        k.create_synthetic_file("/warm", 8_000, 6);
        let cgi = CgiProcess::new(&mut k, pid, 12_000, PipeMode::ZeroCopy);
        let mut scripts: Vec<Vec<String>> = (0..statics)
            .map(|i| vec![if i % 3 == 0 { "/warm" } else { "/hot" }.to_string()])
            .collect();
        for _ in 0..8 {
            scripts.push(vec![format!("{CGI_PREFIX}doc")]);
        }
        let conns = scripts.len();
        let cfg = EventLoopConfig {
            drain_per_tick: 16 * 1024,
            ..EventLoopConfig::default()
        };
        let (report, kernel) = EventLoopServer::new(k, pid, scripts, Some(cgi), cfg).run();
        assert_eq!(report.stats.completed, conns as u64);
        assert_eq!(report.stats.failed, 0);
        assert_eq!(
            report.stats.blocked_io, 0,
            "readiness-driven multiplexing must never spin on WouldBlock"
        );
        assert!(
            report.stats.max_inflight >= conns,
            "all {conns} connections in flight at once, got {}",
            report.stats.max_inflight
        );
        // Documents went through the cache; every transmission pin drained.
        for path in ["/hot", "/warm"] {
            let file = kernel.store.lookup(path).unwrap();
            assert_eq!(kernel.cache.pins(&CacheKey::whole(file)), 0);
        }
    }
}

/// The CGI regression through the loop: the server's read end closes
/// *mid-transfer*; that request fails with EPIPE, queued CGI requests
/// fail in turn (the pipe is gone for good), static traffic completes.
#[test]
fn cgi_reader_hangup_fails_requests_without_killing_the_loop() {
    let mut k = kernel();
    let pid = k.spawn("server");
    k.create_synthetic_file("/static", 20_000, 3);
    // 200KB document: the pipe transfer takes several fill/drain rounds.
    let cgi = CgiProcess::new(&mut k, pid, 200_000, PipeMode::ZeroCopy);
    let rfd = cgi.server_read_fd();
    let scripts = vec![
        vec![format!("{CGI_PREFIX}doc")],
        vec![format!("{CGI_PREFIX}doc")],
        vec!["/static".to_string()],
    ];
    let mut server = EventLoopServer::new(k, pid, scripts, Some(cgi), EventLoopConfig::default());
    // Let the transfer get going, then hang up the server's read end.
    for _ in 0..3 {
        server.tick();
    }
    server.kernel_mut().close_fd(pid, rfd).unwrap();
    let (report, _) = server.run();
    assert_eq!(report.stats.failed, 2, "both CGI requests fail with EPIPE");
    assert_eq!(report.stats.completed, 1, "static traffic is unaffected");
    assert_eq!(report.stats.blocked_io, 0);
}

// ---- event loop ≡ sequential serve_static -------------------------------

/// Builds a kernel + corpus; returns (kernel, pid, paths).
fn corpus(sizes: &[u64]) -> (Kernel, iolite::core::Pid, Vec<String>) {
    let mut k = kernel();
    let pid = k.spawn("server");
    let paths: Vec<String> = sizes
        .iter()
        .enumerate()
        .map(|(i, &bytes)| {
            let path = format!("/f{i:05}");
            k.create_synthetic_file(&path, bytes, 0x10_0000 + i as u64);
            path
        })
        .collect();
    (k, pid, paths)
}

proptest! {
    /// Over a random corpus and random per-connection scripts, the
    /// event loop's responses are byte-identical to `header ++ body`
    /// ground truth, and the checksum cache ends in exactly the state a
    /// sequential `serve_static` pass over the same requests produces
    /// (same hits/misses/bytes, same resident entries).
    #[test]
    fn event_loop_matches_sequential_serving(
        sizes in proptest::collection::vec(1u64..150_000, 1..5),
        picks in proptest::collection::vec(any::<u64>(), 1..10),
        conns in 1usize..5,
        drain_kb in 4u64..64,
    ) {
        // Deal the request picks onto `conns` round-robin scripts.
        let (k1, pid1, paths) = corpus(&sizes);
        let mut scripts: Vec<Vec<String>> = vec![Vec::new(); conns];
        for (j, pick) in picks.iter().enumerate() {
            scripts[j % conns].push(paths[(*pick % paths.len() as u64) as usize].clone());
        }
        let cfg = EventLoopConfig {
            drain_per_tick: drain_kb * 1024,
            capture_responses: true,
            ..EventLoopConfig::default()
        };
        let (report, k1) =
            EventLoopServer::new(k1, pid1, scripts.clone(), None, cfg).run();
        prop_assert_eq!(report.stats.failed, 0);
        prop_assert_eq!(report.stats.blocked_io, 0, "no busy-spin, ever");
        prop_assert_eq!(report.stats.completed as usize, picks.len());

        // Byte-identical responses against ground truth.
        for req in &report.requests {
            let file = k1.store.lookup(&req.path).expect("corpus file");
            let flen = k1.store.len(file).unwrap();
            let expected_body = k1.store.read(file, 0, flen).unwrap();
            let mut expected = response_header(flen, true);
            expected.extend_from_slice(&expected_body);
            prop_assert_eq!(
                req.response.as_ref().expect("captured"),
                &expected,
                "response for {} must match header ++ body",
                req.path
            );
        }

        // Sequential reference: the same request multiset through
        // serve_static on a fresh kernel.
        let (mut k2, pid2, paths2) = corpus(&sizes);
        prop_assert_eq!(&paths, &paths2);
        let file_fds: Vec<Fd> = paths
            .iter()
            .map(|p| {
                let id = k2.store.lookup(p).unwrap();
                k2.open_file(pid2, id)
            })
            .collect();
        let socks: Vec<Fd> = (0..conns)
            .map(|_| {
                k2.socket_create(pid2, BufferMode::ZeroCopy, k2.cost.mss, k2.cost.tss)
            })
            .collect();
        let mut seq_bytes = 0u64;
        let mut seq_hits = 0u64;
        for (c, script) in scripts.iter().enumerate() {
            for path in script {
                let idx = paths.iter().position(|p| p == path).unwrap();
                let rc = serve_static(
                    &mut k2,
                    ServerKind::FlashLite,
                    socks[c],
                    pid2,
                    file_fds[idx],
                );
                seq_bytes += rc.response_bytes;
                seq_hits += u64::from(rc.cache_hit);
                if let Some(key) = rc.pin_key {
                    k2.cache_unpin(key);
                }
            }
        }
        prop_assert_eq!(report.stats.response_bytes, seq_bytes);
        prop_assert_eq!(report.stats.cache_hits, seq_hits);
        // Identical checksum-cache state: the chunk-streamed sends hit
        // exactly the slice keys a whole-response send would.
        prop_assert_eq!(k1.cksum.stats(), k2.cksum.stats());
        prop_assert_eq!(k1.cksum.len(), k2.cksum.len());
        prop_assert_eq!(k1.metrics.bytes_checksummed, k2.metrics.bytes_checksummed);
        prop_assert_eq!(k1.metrics.bytes_checksum_cached, k2.metrics.bytes_checksum_cached);
    }
}
