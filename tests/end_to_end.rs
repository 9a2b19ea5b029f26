//! End-to-end data-path integrity: the bytes a server hands its socket
//! must equal the bytes on disk, through every server model, the CGI
//! path, and both pipe modes — all of it driven through the
//! descriptor-based IOL API (files, pipes, and sockets behind fds).
//!
//! The wire itself is accounting (§4.1's mbufs are assumed, not built):
//! a socket write is checked against the `SendOutcome` the kernel bills
//! and the driver reserves as socket memory.

use iolite::buf::Aggregate;
use iolite::core::{CostModel, Kernel, Pid};
use iolite::http::{parse_request, request_bytes, response_header, CgiProcess, ServerKind};
use iolite::ipc::PipeMode;
use iolite::net::{BufferMode, SendOutcome, DEFAULT_MSS, DEFAULT_TSS, TCP_IP_HEADER_BYTES};

/// Writes `payload` whole to a fresh blocking socket of `pid` in `mode`
/// and returns the send accounting the write carries.
fn socket_write(k: &mut Kernel, pid: Pid, mode: BufferMode, payload: &Aggregate) -> SendOutcome {
    let sock = k.socket_create(pid, mode, DEFAULT_MSS, DEFAULT_TSS);
    let (n, out) = k.iol_write_fd(pid, sock, payload).unwrap();
    assert_eq!(n, payload.len(), "a blocking socket takes the whole write");
    out.net.expect("socket writes carry SendOutcome")
}

#[test]
fn static_file_reaches_client_byte_exact_zero_copy() {
    let mut k = Kernel::new(CostModel::pentium_ii_333());
    let pid = k.spawn("server");
    let file = k.create_synthetic_file("/doc", 150_000, 99);
    let disk_bytes = k.store.read(file, 0, 150_000).unwrap();

    // The Flash-Lite path: IOL_read on the document fd, concat header,
    // IOL_write on the socket fd.
    let fd = k.open_file(pid, file);
    let (body, _) = k.iol_read_fd(pid, fd, 150_000).unwrap();
    let header = response_header(body.len(), false);
    let mut response = Aggregate::from_bytes(k.process(pid).pool(), &header);
    response.append(&body);
    let sent = response.to_vec();
    assert_eq!(&sent[..header.len()], &header[..]);
    assert_eq!(&sent[header.len()..], &disk_bytes[..]);

    // Zero-copy: nothing copied, every byte checksummed once, and the
    // socket owns only each segment's 128-byte mbuf header.
    let len = response.len();
    let segments = len.div_ceil(DEFAULT_MSS as u64);
    let expected = SendOutcome {
        segments,
        payload_bytes: len,
        header_bytes: segments * TCP_IP_HEADER_BYTES as u64,
        csum_bytes_computed: len,
        csum_bytes_cached: 0,
        bytes_copied: 0,
        owned_occupancy: segments * 128,
    };
    assert_eq!(
        socket_write(&mut k, pid, BufferMode::ZeroCopy, &response),
        expected
    );
}

#[test]
fn static_file_reaches_client_byte_exact_copy_mode() {
    let mut k = Kernel::new(CostModel::pentium_ii_333());
    let pid = k.spawn("server");
    let file = k.create_synthetic_file("/doc", 80_000, 5);
    let disk_bytes = k.store.read(file, 0, 80_000).unwrap();
    let fd = k.open_file(pid, file);
    let (body, _) = k.iol_read_fd(pid, fd, 80_000).unwrap();
    assert_eq!(body.to_vec(), disk_bytes);

    // Copy mode: the payload is copied and checksummed whole, and the
    // socket reserves its full send buffer (Tss).
    let segments = 80_000u64.div_ceil(DEFAULT_MSS as u64);
    let expected = SendOutcome {
        segments,
        payload_bytes: 80_000,
        header_bytes: segments * TCP_IP_HEADER_BYTES as u64,
        csum_bytes_computed: 80_000,
        csum_bytes_cached: 0,
        bytes_copied: 80_000,
        owned_occupancy: DEFAULT_TSS as u64,
    };
    assert_eq!(socket_write(&mut k, pid, BufferMode::Copy, &body), expected);
}

#[test]
fn cgi_document_reaches_server_byte_exact_via_both_pipe_modes() {
    for mode in [PipeMode::Copy, PipeMode::ZeroCopy] {
        let mut k = Kernel::new(CostModel::pentium_ii_333());
        let server = k.spawn("server");
        let cgi = CgiProcess::new(&mut k, server, 50_000, mode);
        let expected = cgi.document().to_vec();

        // Push the document through the CGI's own descriptor pair,
        // exactly as the request path does.
        let (wfd, rfd) = (cgi.write_fd(), cgi.server_read_fd());
        let mut received = Vec::new();
        let mut offset = 0u64;
        while offset < expected.len() as u64 {
            let rest = cgi
                .document()
                .range(offset, expected.len() as u64 - offset)
                .unwrap();
            offset += iolite::core::short_ok(k.iol_write_fd(cgi.pid, wfd, &rest)).unwrap();
            if let Ok((chunk, _)) = k.iol_read_fd(server, rfd, u64::MAX) {
                received.extend_from_slice(&chunk.to_vec());
            }
        }
        assert_eq!(received, expected, "mode {mode:?}");
    }
}

#[test]
fn http_messages_round_trip_through_parser() {
    let req = request_bytes("/f00042", true);
    let parsed = parse_request(&req).unwrap();
    assert_eq!(parsed.path, "/f00042");
    assert!(parsed.keep_alive);
}

#[test]
fn checksum_cache_agrees_with_reference_over_server_path() {
    use iolite::net::checksum::reference_checksum;
    use iolite::net::internet_checksum;

    let mut k = Kernel::new(CostModel::pentium_ii_333());
    let pid = k.spawn("server");
    let file = k.create_synthetic_file("/doc", 30_000, 17);
    let fd = k.open_file(pid, file);
    let (body, _) = k.iol_read_fd(pid, fd, 30_000).unwrap();
    let direct = k.store.read(file, 0, 30_000).unwrap();
    assert_eq!(internet_checksum(&body), reference_checksum(&direct));
}

#[test]
fn serve_static_is_deterministic_across_kernels() {
    for kind in [ServerKind::Flash, ServerKind::FlashLite, ServerKind::Apache] {
        let run = || {
            let mut k = Kernel::new(CostModel::pentium_ii_333());
            let pid = k.spawn("server");
            let f = k.create_synthetic_file("/d", 40_000, 1);
            let fd = k.open_file(pid, f);
            let sock = k.socket_create(pid, kind.buffer_mode(), DEFAULT_MSS, DEFAULT_TSS);
            let a = iolite::http::server::serve_static(&mut k, kind, sock, pid, fd);
            let b = iolite::http::server::serve_static(&mut k, kind, sock, pid, fd);
            (a.cpu, b.cpu, a.response_bytes)
        };
        assert_eq!(run(), run(), "{kind:?}");
    }
}
