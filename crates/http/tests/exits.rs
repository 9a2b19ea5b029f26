//! Every way a request leaves the event loop: answered (a bare-LF head
//! included — the regression this file opened with), or failed by a
//! dead peer in the phases the in-module tests do not reach, with the
//! transmission pin released and everyone else served either way.

use iolite_buf::Aggregate;
use iolite_core::{CostModel, Kernel, Pid};
use iolite_fs::{CacheKey, Policy};
use iolite_http::{
    put_request_bytes, request_bytes, synthetic_put_body, CgiProcess, EventLoopConfig,
    EventLoopServer, LoopReport, CGI_PREFIX,
};
use iolite_ipc::PipeMode;

const CORPUS: [(&str, u64); 2] = [("/doc", 40_000), ("/other", 9_000)];

fn rig() -> (Kernel, Pid) {
    let mut k = Kernel::with_policy(CostModel::pentium_ii_333(), Policy::Gds);
    let pid = k.spawn("server");
    for (name, bytes) in CORPUS {
        k.create_synthetic_file(name, bytes, 7);
    }
    (k, pid)
}

/// An `external_wire` server with one single-request connection per
/// entry of `conns`; the test plays the wire.
fn external(k: Kernel, pid: Pid, conns: usize) -> EventLoopServer {
    let cfg = EventLoopConfig {
        capture_responses: true,
        external_wire: true,
        ..EventLoopConfig::default()
    };
    let scripts = vec![vec!["<wire>".to_string()]; conns];
    let mut server = EventLoopServer::new(k, pid, scripts, None, cfg);
    server.tick(); // Every connection starts listening.
    server
}

fn deliver(server: &mut EventLoopServer, conn: usize, bytes: &[u8]) {
    let (pid, sock) = (server.pid(), server.sock(conn));
    let agg = Aggregate::from_bytes(server.kernel().process(pid).pool(), bytes);
    server
        .kernel_mut()
        .socket_deliver(pid, sock, agg)
        .expect("open socket");
}

/// Ticks an external-wire server to completion, acknowledging
/// everything written each round. Panics rather than spin: a request
/// the loop never answers is the failure these tests exist to catch.
fn drive(mut server: EventLoopServer) -> (LoopReport, Kernel) {
    let pid = server.pid();
    while !server.is_done() {
        for i in 0..server.conn_count() {
            let sock = server.sock(i);
            let _ = server.kernel_mut().socket_drain(pid, sock, u64::MAX);
        }
        server.tick();
        assert!(server.stats().ticks < 1_000, "a request was never answered");
    }
    server.into_report()
}

fn assert_no_pins(kernel: &Kernel) {
    for (name, _) in CORPUS {
        let file = kernel.store.lookup(name).expect("corpus file");
        assert_eq!(
            kernel.cache.pins(&CacheKey::whole(file)),
            0,
            "{name} still pinned"
        );
    }
}

/// Regression: `parse_request` accepts bare-LF line endings (RFC 9112
/// §2.2), but the loop used to decide "has the head arrived" with a
/// second scanner that only knew `\r\n\r\n` — so this request sat in
/// the receive phase until the tick backstop, never answered.
#[test]
fn bare_lf_request_is_answered() {
    let (k, pid) = rig();
    let mut server = external(k, pid, 1);
    deliver(&mut server, 0, b"GET /doc HTTP/1.1\nHost: x\n\n");
    let (report, kernel) = drive(server);
    assert_eq!(report.stats.completed, 1);
    assert_eq!(report.stats.blocked_io, 0);
    let response = report.requests[0].response.as_ref().expect("captured");
    assert!(response.starts_with(b"HTTP/1.1 200 OK"));
    let file = kernel.store.lookup("/doc").unwrap();
    assert!(response.ends_with(&kernel.store.read(file, 0, 40_000).unwrap()));
    assert_no_pins(&kernel);
}

/// The peer dies mid-PUT-body (head parsed, body partly in): that
/// upload fails, installs nothing, and the other connections — one of
/// them reading the same document — are served.
#[test]
fn peer_close_mid_put_body_fails_only_that_upload() {
    let (k, pid) = rig();
    let mut server = external(k, pid, 3);
    let put = put_request_bytes("/doc", &synthetic_put_body("/doc", 4_096), true);
    deliver(&mut server, 0, &put[..put.len() - 1_000]);
    deliver(&mut server, 1, &request_bytes("/doc", true));
    deliver(&mut server, 2, &request_bytes("/other", true));
    server.tick(); // The head parses; the body is 1 000 bytes short.
    let sock = server.sock(0);
    server
        .kernel_mut()
        .socket_peer_close(pid, sock)
        .expect("open socket");
    let (report, kernel) = drive(server);
    assert_eq!(report.stats.failed, 1, "the truncated upload fails");
    assert_eq!(report.stats.completed, 2, "the readers are served");
    assert_eq!(report.stats.puts, 0);
    assert_eq!(report.stats.blocked_io, 0);
    let file = kernel.store.lookup("/doc").unwrap();
    assert_eq!(
        kernel.store.len(file),
        Some(40_000),
        "nothing was installed"
    );
    assert_no_pins(&kernel);
}

/// A declared length no client could ever send must not wrap the
/// "is the body in yet" arithmetic (it used to: `body_at + len`); the
/// connection just waits for a body, and fails when the peer leaves.
#[test]
fn absurd_content_length_waits_instead_of_wrapping() {
    let (k, pid) = rig();
    let mut server = external(k, pid, 1);
    let head = format!(
        "PUT /doc HTTP/1.1\r\nContent-Length: {}\r\n\r\nxyz",
        u64::MAX
    );
    deliver(&mut server, 0, head.as_bytes());
    for _ in 0..3 {
        server.tick();
    }
    assert!(!server.is_done(), "still waiting for the declared body");
    let sock = server.sock(0);
    server
        .kernel_mut()
        .socket_peer_close(pid, sock)
        .expect("open socket");
    let (report, kernel) = drive(server);
    assert_eq!((report.stats.failed, report.stats.puts), (1, 0));
    assert_no_pins(&kernel);
}

/// The client whose request owns the CGI pipe dies with a second CGI
/// request queued behind it: the owner's request fails, the pipe is
/// handed on, and the queued waiter and the static traffic are served.
#[test]
fn peer_close_while_owning_the_cgi_pipe_serves_the_queued_waiter() {
    let (mut k, pid) = rig();
    // 150KB document > the 64KB pipe: several fill/drain rounds.
    let cgi = CgiProcess::new(&mut k, pid, 150_000, PipeMode::ZeroCopy);
    let expected = cgi.document().to_vec();
    let scripts = vec![
        vec![format!("{CGI_PREFIX}doc")],
        vec![format!("{CGI_PREFIX}doc")],
        vec!["/doc".to_string()],
    ];
    let cfg = EventLoopConfig {
        capture_responses: true,
        ..EventLoopConfig::default()
    };
    let mut server = EventLoopServer::new(k, pid, scripts, Some(cgi), cfg);
    server.tick(); // Connection 0 takes the pipe; connection 1 queues.
    let sock = server.sock(0);
    server
        .kernel_mut()
        .socket_peer_close(pid, sock)
        .expect("open socket");
    let (report, kernel) = server.run();
    assert_eq!(report.stats.failed, 1, "the dead owner's request fails");
    assert_eq!(
        report.stats.completed, 2,
        "the waiter and the static GET finish"
    );
    assert_eq!(report.stats.blocked_io, 0);
    let waiter = report
        .requests
        .iter()
        .find(|r| r.conn == 1)
        .expect("served");
    assert!(waiter
        .response
        .as_ref()
        .expect("captured")
        .ends_with(&expected));
    assert_no_pins(&kernel);
}
