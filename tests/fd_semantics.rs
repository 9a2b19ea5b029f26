//! Descriptor-layer semantics across the whole stack (§3.4): one `Fd`
//! capability for files, pipes, sockets, and stdio; `dup` sharing;
//! precise errors; and — property-checked — the guarantee that routing
//! the TCP send path through descriptors changed neither segmentation
//! nor checksum-cache behavior.

use iolite::buf::{Acl, Aggregate, BufferPool, PoolId};
use iolite::core::{
    ConnId, CostCategory, CostModel, Fd, FdObject, IolError, Kernel, PipeId, Whence, FD_LIMIT,
};
use iolite::ipc::PipeMode;
use iolite::net::{
    BufferMode, ChecksumCache, TcpConn, DEFAULT_MSS, DEFAULT_TSS, MAX_SEGMENT_PAYLOAD,
    TCP_IP_HEADER_BYTES,
};
use proptest::prelude::*;

fn kernel() -> Kernel {
    Kernel::new(CostModel::pentium_ii_333())
}

#[test]
fn dup_shares_one_offset_through_iol_read_fd() {
    let mut k = kernel();
    let pid = k.spawn("app");
    k.create_file("/seq", b"abcdefghijkl");
    let (fd, _) = k.open(pid, "/seq").unwrap();
    let dup = k.dup_fd(pid, fd).unwrap();
    // Reads through either number advance the one shared description.
    assert_eq!(k.iol_read_fd(pid, fd, 4).unwrap().0.to_vec(), b"abcd");
    assert_eq!(k.iol_read_fd(pid, dup, 4).unwrap().0.to_vec(), b"efgh");
    // lseek through the dup moves the original too.
    k.lseek(pid, dup, -2, Whence::Cur).unwrap();
    assert_eq!(k.iol_read_fd(pid, fd, 6).unwrap().0.to_vec(), b"ghijkl");
    // An independent open has its own offset.
    let (other, _) = k.open(pid, "/seq").unwrap();
    assert_eq!(k.iol_read_fd(pid, other, 2).unwrap().0.to_vec(), b"ab");
    // Closing one number keeps the description alive for the other.
    k.close_fd(pid, fd).unwrap();
    k.lseek(pid, dup, 0, Whence::Set).unwrap();
    assert_eq!(k.iol_read_fd(pid, dup, 2).unwrap().0.to_vec(), b"ab");
}

#[test]
fn socket_fds_round_trip_through_the_tcp_send_path() {
    let mut k = kernel();
    let pid = k.spawn("server");
    let file = k.create_synthetic_file("/doc", 20_000, 8);
    let fd = k.open_file(pid, file);
    let (body, _) = k.iol_read_fd(pid, fd, 20_000).unwrap();

    let sock = k.socket_create(pid, BufferMode::ZeroCopy, DEFAULT_MSS, DEFAULT_TSS);
    // IOL_write on the socket descriptor: the send-path accounting
    // rides the outcome.
    let (n, out) = k.iol_write_fd(pid, sock, &body).unwrap();
    assert_eq!(n, 20_000);
    let send = out.net.expect("socket writes carry SendOutcome");
    assert_eq!(send.payload_bytes, 20_000);
    assert_eq!(send.bytes_copied, 0, "zero-copy mode");
    // The inbound direction works through the same descriptor: deliver
    // at the kernel edge, read with IOL_read.
    let pool = k.process(pid).pool().clone();
    k.socket_deliver(pid, sock, Aggregate::from_bytes(&pool, b"ACK"))
        .unwrap();
    assert_eq!(k.iol_read_fd(pid, sock, 100).unwrap().0.to_vec(), b"ACK");
}

/// An MSS past what a segment can carry is capped at
/// `MAX_SEGMENT_PAYLOAD` behind the descriptor too: a write just over
/// the IP total-length limit bills two segments, not one.
#[test]
fn socket_mss_is_capped_to_a_representable_segment() {
    let mut k = kernel();
    let pid = k.spawn("server");
    let sock = k.socket_create(pid, BufferMode::ZeroCopy, usize::MAX, DEFAULT_TSS);
    let len = u64::from(MAX_SEGMENT_PAYLOAD) + 4096;
    let payload = Aggregate::from_bytes(k.process(pid).pool(), &vec![0xA5; len as usize]);
    let (n, out) = k.iol_write_fd(pid, sock, &payload).unwrap();
    assert_eq!(n, len);
    let send = out.net.expect("socket writes carry SendOutcome");
    assert_eq!(send.segments, 2);
    assert_eq!(send.header_bytes, 2 * TCP_IP_HEADER_BYTES as u64);
}

#[test]
fn stdio_fds_work_immediately_after_spawn() {
    let mut k = kernel();
    let pid = k.spawn("tool");
    let pool = k.process(pid).pool().clone();
    // The triple exists without any setup: write stdout/stderr, read
    // stdin, through the ordinary IOL calls.
    let out_msg = Aggregate::from_bytes(&pool, b"to stdout");
    let err_msg = Aggregate::from_bytes(&pool, b"to stderr");
    k.iol_write_fd(pid, Fd::STDOUT, &out_msg).unwrap();
    k.iol_write_fd(pid, Fd::STDERR, &err_msg).unwrap();
    assert_eq!(k.read_stdout(pid, 100).unwrap().0.to_vec(), b"to stdout");
    assert_eq!(k.read_stderr(pid, 100).unwrap().0.to_vec(), b"to stderr");
    let input = Aggregate::from_bytes(&pool, b"from tty");
    k.feed_stdin(pid, &input).unwrap();
    assert_eq!(
        k.iol_read_fd(pid, Fd::STDIN, 100).unwrap().0.to_vec(),
        b"from tty"
    );
    // stdin is read-only, stdout write-only — the fd layer says so.
    assert!(matches!(
        k.iol_write_fd(pid, Fd::STDIN, &out_msg),
        Err(IolError::BadFdKind { .. })
    ));
    assert!(matches!(
        k.iol_read_fd(pid, Fd::STDOUT, 10),
        Err(IolError::BadFdKind { .. })
    ));
    // And dup2 re-plumbs it like a shell: `tool | sink`.
    let sink = k.spawn("sink");
    let (w, r) = k.pipe_between(pid, sink, PipeMode::ZeroCopy);
    k.dup2_fd(pid, w, Fd::STDOUT).unwrap();
    k.dup2_fd(sink, r, Fd::STDIN).unwrap();
    let piped = Aggregate::from_bytes(&pool, b"piped");
    k.iol_write_fd(pid, Fd::STDOUT, &piped).unwrap();
    assert_eq!(
        k.iol_read_fd(sink, Fd::STDIN, 100).unwrap().0.to_vec(),
        b"piped"
    );
}

#[test]
fn close_then_use_returns_not_open() {
    let mut k = kernel();
    let pid = k.spawn("app");
    let f = k.create_file("/f", b"data");
    let fd = k.open_file(pid, f);
    k.close_fd(pid, fd).unwrap();
    // Every operation on the dead number is EBADF.
    assert!(matches!(
        k.iol_read_fd(pid, fd, 10),
        Err(IolError::NotOpen { .. })
    ));
    let pool = k.process(pid).pool().clone();
    let msg = Aggregate::from_bytes(&pool, b"x");
    assert!(matches!(
        k.iol_write_fd(pid, fd, &msg),
        Err(IolError::NotOpen { .. })
    ));
    assert!(matches!(
        k.lseek(pid, fd, 0, Whence::Set),
        Err(IolError::NotOpen { .. })
    ));
    assert!(k.close_fd(pid, fd).is_err(), "double close is EBADF");
    // Same story for sockets.
    let sock = k.socket_create(pid, BufferMode::ZeroCopy, DEFAULT_MSS, DEFAULT_TSS);
    k.close_fd(pid, sock).unwrap();
    assert!(matches!(
        k.iol_write_fd(pid, sock, &msg),
        Err(IolError::NotOpen { .. })
    ));
}

/// §3.6 as the model has it: a payload delivered in the receiver's own
/// pool is read back by reference on a zero-copy socket (same buffer,
/// same generation, nothing copied), while a conventional socket's
/// `recv` bills the copy-out: exactly the payload's length.
#[test]
fn socket_reads_hand_over_delivered_buffers_or_bill_the_copy() {
    let mut k = kernel();
    let pid = k.spawn("server");
    let payload = Aggregate::from_bytes(k.process(pid).pool(), &[5u8; 3000]);
    let zero_copy = k.socket_create(pid, BufferMode::ZeroCopy, DEFAULT_MSS, DEFAULT_TSS);
    k.socket_deliver(pid, zero_copy, payload.clone()).unwrap();
    let (got, _) = k.iol_read_fd(pid, zero_copy, u64::MAX).unwrap();
    let (sent, read) = (payload.slice_at(0), got.slice_at(0));
    assert_eq!(
        (read.id(), read.generation()),
        (sent.id(), sent.generation())
    );
    assert_eq!(k.metrics.bytes_copied, 0);

    let copying = k.socket_create(pid, BufferMode::Copy, DEFAULT_MSS, DEFAULT_TSS);
    k.socket_deliver(pid, copying, payload.clone()).unwrap();
    let copy_time = k.metrics.time_in(CostCategory::Copy);
    let (got, _) = k.iol_read_fd(pid, copying, u64::MAX).unwrap();
    assert_eq!(got.to_vec(), payload.to_vec());
    assert_eq!(k.metrics.bytes_copied, payload.len());
    assert_eq!(
        k.metrics.time_in(CostCategory::Copy) - copy_time,
        k.cost.copy(payload.len()).time
    );
}

/// Regression: `install_fd` takes any object id, minted or not, and is
/// journaled. A descriptor over a pipe id the kernel never created used
/// to panic the poll scan (`self.pipes[&id]`) — the scan is total: it
/// reports `invalid`; I/O through it is `EBADF`, and replay agrees.
#[test]
fn a_dangling_pipe_id_polls_invalid_and_fails_io_without_panicking() {
    let mut k = kernel();
    let initial = k.snapshot();
    k.start_journal();
    let pid = k.spawn("app");
    let r = k.install_fd(pid, FdObject::PipeRead(PipeId(77)));
    let w = k.install_fd(pid, FdObject::PipeWrite(PipeId(77)));
    let events = k.iol_poll(pid, &[r, w, Fd::STDIN]);
    assert!(events[0].invalid && events[1].invalid, "{events:?}");
    assert!(!events[2].invalid, "one stale entry does not fail the scan");
    assert_eq!(
        k.iol_read_fd(pid, r, 8).unwrap_err(),
        IolError::NotOpen { fd: r }
    );
    let msg = Aggregate::from_bytes(k.process(pid).pool(), b"x");
    assert_eq!(
        k.iol_write_fd(pid, w, &msg).unwrap_err(),
        IolError::NotOpen { fd: w }
    );
    // The numbers themselves are ordinary: they dup and close.
    let dup = k.dup_fd(pid, r).unwrap();
    for fd in [r, w, dup] {
        k.close_fd(pid, fd).unwrap();
    }
    let journal = k.take_journal().unwrap();
    let (replayed, _) = iolite::core::replay(initial, &journal);
    assert_eq!(replayed.state_hash(), k.state_hash());
}

/// Regression, the socket shape: a descriptor over an unminted
/// connection id used to panic `iol_write_fd`/`iol_read_fd`/
/// `socket_deliver` at `.expect("registered socket")`. Every socket
/// call now reports it `EBADF`.
#[test]
fn a_dangling_socket_id_is_not_open_to_every_socket_call() {
    let mut k = kernel();
    let initial = k.snapshot();
    k.start_journal();
    let pid = k.spawn("app");
    let fd = k.install_fd(pid, FdObject::Socket(ConnId(99)));
    let bad = IolError::NotOpen { fd };
    let msg = Aggregate::from_bytes(k.process(pid).pool(), b"x");
    assert_eq!(k.iol_write_fd(pid, fd, &msg).unwrap_err(), bad);
    assert_eq!(k.iol_read_fd(pid, fd, 8).unwrap_err(), bad);
    assert_eq!(k.socket_deliver(pid, fd, msg.clone()).unwrap_err(), bad);
    assert_eq!(k.socket_send_accounted(pid, fd, 8).unwrap_err(), bad);
    assert_eq!(k.set_nonblocking(pid, fd, true).unwrap_err(), bad);
    assert_eq!(k.socket_drain(pid, fd, 8).unwrap_err(), bad);
    assert_eq!(k.socket_peer_close(pid, fd).unwrap_err(), bad);
    assert_eq!(k.socket_space(pid, fd).unwrap_err(), bad);
    assert_eq!(k.socket_unacked(pid, fd).unwrap_err(), bad);
    assert_eq!(k.socket_peer_closed(pid, fd).unwrap_err(), bad);
    assert_eq!(k.socket(pid, fd).unwrap_err(), bad);
    let events = k.iol_poll(pid, &[fd]);
    assert!(events[0].invalid);
    // Still a descriptor: introspectable, closable, and its last close
    // (of a socket that never was) is a no-op.
    assert_eq!(k.fd_object(pid, fd), Ok(FdObject::Socket(ConnId(99))));
    k.close_fd(pid, fd).unwrap();
    let journal = k.take_journal().unwrap();
    let (replayed, _) = iolite::core::replay(initial, &journal);
    assert_eq!(replayed.state_hash(), k.state_hash());
}

/// Regression: `lseek` computed its target in `i128` and stored
/// `target as u64`, so two seeks by `i64::MAX` and one by 10 wrapped
/// the offset round to 8. `off_t` ends at `i64::MAX`.
#[test]
fn lseek_refuses_offsets_past_off_t_max() {
    let mut k = kernel();
    let pid = k.spawn("app");
    k.create_file("/f", b"0123456789");
    let (fd, _) = k.open(pid, "/f").unwrap();
    let top = i64::MAX as u64;
    assert_eq!(k.lseek(pid, fd, i64::MAX, Whence::Set).unwrap().0, top);
    for (offset, whence) in [
        (i64::MAX, Whence::Cur),
        (10, Whence::Cur),
        (i64::MAX, Whence::End),
    ] {
        assert_eq!(
            k.lseek(pid, fd, offset, whence).unwrap_err(),
            IolError::InvalidSeek { requested: offset }
        );
        // A refused seek leaves the offset where it was.
        assert_eq!(k.lseek(pid, fd, 0, Whence::Cur).unwrap().0, top);
    }
    // Reading up there is plain EOF, on either interface, and the
    // offset stays put instead of wrapping.
    assert!(k.iol_read_fd(pid, fd, 100).unwrap().0.is_empty());
    assert!(k.posix_read_fd(pid, fd, 100).unwrap().0.is_empty());
    assert_eq!(k.lseek(pid, fd, 0, Whence::Cur).unwrap().0, top);
    // The legal range is unchanged, negative targets included.
    assert_eq!(k.lseek(pid, fd, -(i64::MAX - 4), Whence::Cur).unwrap().0, 4);
    assert_eq!(k.iol_read_fd(pid, fd, 3).unwrap().0.to_vec(), b"456");
    assert_eq!(
        k.lseek(pid, fd, -8, Whence::Cur).unwrap_err(),
        IolError::InvalidSeek { requested: -8 }
    );
    assert_eq!(k.lseek(pid, fd, -3, Whence::End).unwrap().0, 7);
}

/// Regression: a file write ending past `off_t` resized the store to
/// its end and panicked the kernel ("attempt to add with overflow",
/// "capacity overflow"). Every write path lands in one check: a write
/// whose offset or end passes `i64::MAX` is `EINVAL`, the bound `lseek`
/// enforces, refused before anything is billed or stored.
#[test]
fn file_writes_past_off_t_max_are_refused() {
    let mut k = kernel();
    let pid = k.spawn("app");
    let f = k.create_file("/f", b"0123456789");
    let (fd, _) = k.open(pid, "/f").unwrap();
    let byte = Aggregate::from_bytes(k.process(pid).pool(), b"x");
    let top = k.lseek(pid, fd, i64::MAX, Whence::Set).unwrap().0;
    let (t, copied) = (k.now(), k.metrics.bytes_copied);
    for offset in [u64::MAX, 1 << 63, top] {
        assert_eq!(
            k.iol_pwrite(pid, fd, offset, &byte).unwrap_err(),
            IolError::InvalidSeek {
                requested: offset as i64
            }
        );
    }
    let refused = IolError::InvalidSeek {
        requested: i64::MAX,
    };
    assert_eq!(k.iol_write_fd(pid, fd, &byte).unwrap_err(), refused);
    assert_eq!(k.posix_write_fd(pid, fd, b"x").unwrap_err(), refused);
    // Nothing moved: not the clock, the copy count, the file or the offset.
    assert_eq!((k.now(), k.metrics.bytes_copied), (t, copied));
    assert_eq!(k.store.read(f, 0, 100).unwrap(), b"0123456789");
    assert_eq!(k.lseek(pid, fd, 0, Whence::Cur).unwrap().0, top);
    // The bound is inclusive: an empty write at `i64::MAX` is legal.
    assert_eq!(k.iol_write_fd(pid, fd, &Aggregate::empty()).unwrap().0, 0);
}

/// Regression: the accounting-only send is the copy path's; on a
/// zero-copy socket it tripped an assertion inside the TCP layer and
/// panicked the kernel. It is `BadFdKind` now, billed nothing.
#[test]
fn accounted_send_on_a_zero_copy_socket_is_refused() {
    let mut k = kernel();
    let pid = k.spawn("app");
    let sock = k.socket_create(pid, BufferMode::ZeroCopy, DEFAULT_MSS, DEFAULT_TSS);
    let t = k.now();
    assert!(matches!(
        k.socket_send_accounted(pid, sock, 1000),
        Err(IolError::BadFdKind { fd, .. }) if fd == sock
    ));
    assert_eq!(k.now(), t);
    let copy = k.socket_create(pid, BufferMode::Copy, DEFAULT_MSS, DEFAULT_TSS);
    assert_eq!(
        k.socket_send_accounted(pid, copy, 1000)
            .unwrap()
            .0
            .payload_bytes,
        1000
    );
}

/// `dup2_fd` and `install_fd_at` take the number from the caller; one
/// at or past [`FD_LIMIT`] is `EBADF` (as past `RLIMIT_NOFILE`), not a
/// slot table sized to reach it.
#[test]
fn caller_chosen_descriptor_numbers_stop_at_fd_limit() {
    let mut k = kernel();
    let pid = k.spawn("app");
    let (r, w) = k.pipe_fds(pid, PipeMode::ZeroCopy);
    let read_end = k.fd_object(pid, r).unwrap();
    for at in [Fd(FD_LIMIT), Fd(u32::MAX)] {
        assert_eq!(k.dup2_fd(pid, w, at), Err(IolError::NotOpen { fd: at }));
        assert_eq!(
            k.install_fd_at(pid, at, read_end),
            Err(IolError::NotOpen { fd: at })
        );
        assert_eq!(k.fd_object(pid, at), Err(IolError::NotOpen { fd: at }));
    }
    // The refusals displaced and closed nothing: the pipe still flows.
    let msg = Aggregate::from_bytes(k.process(pid).pool(), b"still here");
    k.iol_write_fd(pid, w, &msg).unwrap();
    assert_eq!(
        k.iol_read_fd(pid, r, 100).unwrap().0.to_vec(),
        b"still here"
    );
    // Below the limit both calls work as ever.
    assert_eq!(k.dup2_fd(pid, w, Fd(4000)), Ok(Fd(4000)));
    assert_eq!(k.install_fd_at(pid, Fd(4001), read_end), Ok(Fd(4001)));
}

proptest! {
    /// Tentpole invariant: moving `TcpConn` behind the descriptor table
    /// changed nothing about the send path. For arbitrary payloads,
    /// fragmentations, and MSS choices, socket-fd writes produce the
    /// accounting of a hand-driven `TcpConn::send`, with identical
    /// checksum-cache behavior (first send computes, retransmission is
    /// served from cache).
    #[test]
    fn socket_fd_writes_match_direct_tcpconn_send(
        data in proptest::collection::vec(any::<u8>(), 1..6000),
        frag in 64usize..2048,
        mss_pick in 0usize..3,
    ) {
        let mss = [536, 1460, 9000][mss_pick];
        // One fragmented aggregate, shared by both paths (identical
        // slice identities, so identical checksum-cache keys).
        let pool = BufferPool::new(PoolId(500), Acl::kernel_only(), frag);
        let payload = Aggregate::from_bytes(&pool, &data);

        // Path A: the kernel socket behind a descriptor.
        let mut k = kernel();
        let pid = k.spawn("server");
        let sock = k.socket_create(pid, BufferMode::ZeroCopy, mss, DEFAULT_TSS);
        let (_, first) = k.iol_write_fd(pid, sock, &payload).unwrap();
        let (_, second) = k.iol_write_fd(pid, sock, &payload).unwrap();

        // Path B: a hand-driven connection with the same identity (the
        // kernel numbers connections from 1) and its own cache.
        let conn = TcpConn::new(1, BufferMode::ZeroCopy, mss, DEFAULT_TSS);
        let mut cache = ChecksumCache::new(1 << 16);
        let d_first = conn.send(&payload, &mut cache);
        let d_second = conn.send(&payload, &mut cache);

        // Identical send accounting on both transmissions.
        prop_assert_eq!(first.net.unwrap(), d_first);
        prop_assert_eq!(second.net.unwrap(), d_second);
        // Checksum-cache behavior unchanged: compute once, then cached.
        prop_assert_eq!(d_first.csum_bytes_computed, data.len() as u64);
        prop_assert_eq!(second.net.unwrap().csum_bytes_computed, 0);
        prop_assert_eq!(second.net.unwrap().csum_bytes_cached, data.len() as u64);
        // And the kernel's cache saw exactly what the direct one did,
        // and its ledger counted the bytes the direct sends report.
        prop_assert_eq!(k.cksum.stats(), cache.stats());
        let computed = d_first.csum_bytes_computed + d_second.csum_bytes_computed;
        let cached = d_first.csum_bytes_cached + d_second.csum_bytes_cached;
        prop_assert_eq!(k.metrics.bytes_checksummed, computed);
        prop_assert_eq!(k.metrics.bytes_checksum_cached, cached);
    }

    /// Pipes behind descriptors preserve content under arbitrary
    /// chunked writes with flow control (`ShortIo` carries progress).
    #[test]
    fn pipe_fd_stream_preserves_bytes_under_flow_control(
        data in proptest::collection::vec(any::<u8>(), 1..200_000),
        mode_pick in any::<bool>(),
    ) {
        let mode = if mode_pick { PipeMode::ZeroCopy } else { PipeMode::Copy };
        let mut k = kernel();
        let a = k.spawn("writer");
        let b = k.spawn("reader");
        let (w, r) = k.pipe_between(a, b, mode);
        let pool = k.process(a).pool().clone();
        let agg = Aggregate::from_bytes(&pool, &data);
        let mut sent = 0u64;
        let mut received = Vec::new();
        while sent < agg.len() {
            let rest = agg.range(sent, agg.len() - sent).unwrap();
            sent += iolite::core::short_ok(k.iol_write_fd(a, w, &rest)).unwrap();
            if let Ok((chunk, _)) = k.iol_read_fd(b, r, u64::MAX) {
                received.extend_from_slice(&chunk.to_vec());
            }
        }
        k.close_fd(a, w).unwrap();
        loop {
            let (chunk, _) = k.iol_read_fd(b, r, u64::MAX).unwrap();
            if chunk.is_empty() {
                break; // EOF
            }
            received.extend_from_slice(&chunk.to_vec());
        }
        prop_assert_eq!(received, data);
    }
}
