//! The receive side of the stack: the segments a send is billed for
//! reassemble, by reference and in any arrival order, into exactly the
//! bytes sent; and the pool isolation between CGI instances that
//! decides which process may map received data (§3.6, §3.10).
//!
//! §3.6's early demultiplexing is assumed rather than simulated: every
//! payload handed to `Kernel::socket_deliver` already lives in the
//! receiving process's pool (`tests/fd_semantics.rs` reads one back).

use iolite::buf::Aggregate;
use iolite::core::{CostModel, Kernel};
use iolite::http::{CgiProcess, ServerKind};
use iolite::ipc::PipeMode;
use iolite::net::{BufferMode, TcpReceiver, DEFAULT_MSS, DEFAULT_TSS};

#[test]
fn send_and_receive_compose_byte_exact() {
    // Serve a document, cut it at the MSS offsets its send bills
    // segments for, reassemble on the client side in reverse order:
    // bytes must match the store.
    let mut k = Kernel::new(CostModel::pentium_ii_333());
    let pid = k.spawn("server");
    let file = k.create_synthetic_file("/doc", 10_000, 4);
    let expected = k.store.read(file, 0, 10_000).unwrap();
    let fd = k.open_file(pid, file);
    let (body, _) = k.iol_read_fd(pid, fd, 10_000).unwrap();

    let sock = k.socket_create(pid, BufferMode::ZeroCopy, DEFAULT_MSS, DEFAULT_TSS);
    let send = k.iol_write_fd(pid, sock, &body).unwrap().1.net.unwrap();
    let len = body.len();
    let mut segments: Vec<(u64, Aggregate)> = (0..len)
        .step_by(DEFAULT_MSS)
        .map(|seq| {
            (
                seq,
                body.range(seq, (len - seq).min(DEFAULT_MSS as u64))
                    .unwrap(),
            )
        })
        .collect();
    assert_eq!(segments.len() as u64, send.segments);
    segments.reverse(); // Worst-case delivery order.

    let mut receiver = TcpReceiver::new(0);
    for (seq, payload) in segments {
        receiver.on_segment(seq, payload);
    }
    let got = receiver.read_available().unwrap();
    assert_eq!(got.to_vec(), expected);
    assert!(
        receiver.stats().out_of_order > 0,
        "order was actually reversed"
    );
}

#[test]
fn cgi_instances_have_isolated_pools() {
    // §3.10: "the server process and every CGI application instance
    // have separate buffer pools with different ACLs."
    let mut k = Kernel::new(CostModel::pentium_ii_333());
    let server = k.spawn("server");
    let cgi_a = CgiProcess::new(&mut k, server, 10_000, PipeMode::ZeroCopy);
    let cgi_b = CgiProcess::new(&mut k, server, 10_000, PipeMode::ZeroCopy);

    // Each CGI's pool admits itself and the server — not its sibling.
    assert!(cgi_a.pool.acl().allows(cgi_a.pid.domain()));
    assert!(cgi_a.pool.acl().allows(server.domain()));
    assert!(!cgi_a.pool.acl().allows(cgi_b.pid.domain()));
    // The kernel's refusal to map A's output into B is
    // `sibling_cgi_is_denied_the_pipe_without_destroying_data`.
}

/// The kernel-enforced pipe ACL (§3.10): a sibling CGI that gets hold
/// of a descriptor to another CGI's pipe is *denied* the zero-copy
/// read — and, crucially, the denial destroys nothing: the data is
/// still there for the legitimate server reader afterwards.
#[test]
fn sibling_cgi_is_denied_the_pipe_without_destroying_data() {
    use iolite::core::IolError;

    let mut k = Kernel::new(CostModel::pentium_ii_333());
    let server = k.spawn("server");
    let cgi_a = CgiProcess::new(&mut k, server, 1_000, PipeMode::ZeroCopy);
    let cgi_b = CgiProcess::new(&mut k, server, 1_000, PipeMode::ZeroCopy);

    // A queues a message for the server.
    let doc = cgi_a.document().clone();
    let part = doc.range(0, 100).unwrap();
    let wfd = cgi_a.write_fd();
    k.iol_write_fd(cgi_a.pid, wfd, &part).unwrap();

    // B (not on A's pool ACL) inherits a descriptor to A's pipe read
    // end — say through a leaked fork — and tries to read it.
    let server_rfd = cgi_a.server_read_fd();
    let obj = k.fd_object(server, server_rfd).expect("read end resolves");
    let leaked = k.install_fd(cgi_b.pid, obj);
    let denied = k.iol_read_fd(cgi_b.pid, leaked, u64::MAX).unwrap_err();
    assert_eq!(
        denied,
        IolError::PermissionDenied {
            domain: cgi_b.pid.domain()
        }
    );

    // The denial destroyed nothing: the server still reads every byte.
    let (got, _) = k.iol_read_fd(server, server_rfd, u64::MAX).unwrap();
    assert_eq!(got.to_vec(), part.to_vec());
}

#[test]
fn two_cgi_processes_serve_distinct_content_through_one_server() {
    let mut k = Kernel::new(CostModel::pentium_ii_333());
    let server = k.spawn("server");
    let mut cgi_a = CgiProcess::new(&mut k, server, 5_000, PipeMode::ZeroCopy);
    let mut cgi_b = CgiProcess::new(&mut k, server, 7_000, PipeMode::ZeroCopy);
    let sock = k.socket_create(server, BufferMode::ZeroCopy, DEFAULT_MSS, DEFAULT_TSS);

    let ra = cgi_a
        .serve(&mut k, ServerKind::FlashLite, sock, server)
        .expect("healthy pipe");
    let rb = cgi_b
        .serve(&mut k, ServerKind::FlashLite, sock, server)
        .expect("healthy pipe");
    assert!(rb.response_bytes > ra.response_bytes);
    // Still zero copies anywhere.
    assert_eq!(k.metrics.bytes_copied, 0);
    // Both CGIs' chunks are now mapped in the server, independently.
    let chunk_a = cgi_a.document().slice_at(0).id().chunk;
    let chunk_b = cgi_b.document().slice_at(0).id().chunk;
    assert!(k.window.is_mapped(chunk_a, server.domain()));
    assert!(k.window.is_mapped(chunk_b, server.domain()));
}
