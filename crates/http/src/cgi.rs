//! FastCGI: persistent third-party CGI processes (§3.10, §5.3).
//!
//! "A test CGI program, when receiving a request, sends a 'dynamic'
//! document of a given size from its memory to the Web server process
//! via a UNIX pipe; the server transmits the data on the client's
//! connection."
//!
//! The CGI process is a separate protection domain: conventional
//! servers pay two pipe copies per byte plus context switches per
//! fill/drain round; Flash-Lite passes the CGI's buffer aggregates by
//! reference (and, because the CGI serves the same in-memory document
//! repeatedly, the checksum cache keeps working end-to-end — the paper's
//! fault-isolation-without-copies result).
//!
//! The pipe is a *kernel* pipe addressed by descriptors — the CGI holds
//! its write end, the server its read end — and it carries the CGI
//! pool's ACL, so the kernel itself enforces §3.10's isolation on every
//! zero-copy transfer (a sibling CGI's domain would get
//! `PermissionDenied`, not a mapping).

use iolite_buf::{Acl, Aggregate, BufferPool};
use iolite_core::{short_ok, Charge, CostCategory, Fd, IolError, Kernel, Pid};
use iolite_ipc::PipeMode;

use crate::server::{send_response, RequestCosts, ServerKind};

/// One persistent (FastCGI-style) CGI process.
pub struct CgiProcess {
    /// The CGI's own protection domain.
    pub pid: Pid,
    /// The CGI's buffer pool, whose ACL admits the server process
    /// ("the server process and every CGI application instance have
    /// separate buffer pools with different ACLs", §3.10).
    pub pool: BufferPool,
    /// The in-memory dynamic document it serves.
    doc: Aggregate,
    /// The CGI-side write end of the request pipe.
    wfd: Fd,
    /// The server-side read end of the request pipe.
    server_rfd: Fd,
}

impl CgiProcess {
    /// Spawns a CGI process serving `size` bytes of in-memory content,
    /// wired to `server_pid` by an ACL-carrying kernel pipe.
    pub fn new(kernel: &mut Kernel, server_pid: Pid, size: u64, mode: PipeMode) -> Self {
        let pid = kernel.spawn("cgi");
        let acl = Acl::with_domains(&[pid.domain(), server_pid.domain()]);
        let pool = kernel.create_pool(acl.clone());
        // Deterministic "dynamic" content, generated once and kept in
        // the CGI's memory across requests (FastCGI persistence).
        let mut content = vec![0u8; size as usize];
        for (i, b) in content.iter_mut().enumerate() {
            *b = (i as u64).wrapping_mul(2654435761).to_le_bytes()[0];
        }
        let doc = Aggregate::from_bytes(&pool, &content);
        let (wfd, server_rfd) = kernel.pipe_between_with_acl(pid, server_pid, mode, acl);
        CgiProcess {
            pid,
            pool,
            doc,
            wfd,
            server_rfd,
        }
    }

    /// The document the CGI serves.
    pub fn document(&self) -> &Aggregate {
        &self.doc
    }

    /// The CGI-side write descriptor (tests drive the pipe directly).
    pub fn write_fd(&self) -> Fd {
        self.wfd
    }

    /// The server-side read descriptor.
    pub fn server_read_fd(&self) -> Fd {
        self.server_rfd
    }

    /// Handles one request end-to-end: pipe transfer into the server,
    /// then transmission on the client's socket descriptor. Returns what
    /// the request cost (the kernel's CPU ledger across the call).
    ///
    /// # Errors
    ///
    /// A pipe or socket peer disappearing mid-transfer surfaces as the
    /// underlying [`IolError`] — [`IolError::Closed`] (EPIPE) when the
    /// server hung up the read end or the client connection died,
    /// [`IolError::PermissionDenied`] if the pipe's ACL refuses the
    /// reader. The driver turns this into a *failed request*; a dead
    /// peer must never take the whole server down.
    pub fn serve(
        &mut self,
        kernel: &mut Kernel,
        kind: ServerKind,
        sock: Fd,
        server_pid: Pid,
    ) -> Result<RequestCosts, IolError> {
        let before = kernel.metrics.cpu();
        let mut rc = RequestCosts::default();
        // Server: parse + bookkeeping + CGI dispatch (forward the
        // request, wake the CGI process: two context switches).
        let parse = Charge::us(kernel.cost.http_parse_us + kernel.cost.server_fixed_us);
        kernel.charge(CostCategory::Request, parse);
        let dispatch = Charge::us(kernel.cost.cgi_dispatch_us);
        kernel.charge(CostCategory::Request, dispatch);
        if kind == ServerKind::FlashLite {
            let extra = Charge::us(kernel.cost.iol_request_extra_us);
            kernel.charge(CostCategory::Request, extra);
        }
        kernel.context_switch(2);

        // Transfer the document through the pipe in fill/drain rounds:
        // the CGI writes its descriptor, the server reads its own, and
        // each call bills its syscalls, copies and ACL-gated first-time
        // mappings.
        let mut received = Aggregate::empty();
        let mut offset = 0u64;
        let total = self.doc.len();
        while offset < total {
            let remaining = self.doc.range(offset, total - offset).expect("in range");
            // A short write is flow control; a closed pipe (the server
            // hung up its read end) is a failed request, not a panic.
            offset += short_ok(kernel.iol_write_fd(self.pid, self.wfd, &remaining))?;
            // Reader drains what the writer queued.
            match kernel.iol_read_fd(server_pid, self.server_rfd, u64::MAX) {
                Ok((chunk, _)) => received.append(&chunk),
                Err(IolError::WouldBlock) => {}
                Err(e) => return Err(e),
            }
            if offset < total {
                // The producer blocked on a full pipe: switch back and
                // forth.
                kernel.context_switch(2);
            }
        }

        // Server sends the received data on the client's socket.
        send_response(kernel, kind, sock, server_pid, &received, &mut rc)?;
        rc.cpu = kernel.metrics.cpu() - before;
        Ok(rc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::response_header;
    use iolite_core::CostModel;
    use iolite_net::{BufferMode, DEFAULT_MSS, DEFAULT_TSS};

    fn run(kind: ServerKind, size: u64) -> (Kernel, RequestCosts, RequestCosts) {
        let mut k = Kernel::new(CostModel::pentium_ii_333());
        let server = k.spawn("server");
        let mode = if kind == ServerKind::FlashLite {
            PipeMode::ZeroCopy
        } else {
            PipeMode::Copy
        };
        let mut cgi = CgiProcess::new(&mut k, server, size, mode);
        let sock = k.socket_create(server, kind.buffer_mode(), DEFAULT_MSS, DEFAULT_TSS);
        let first = cgi.serve(&mut k, kind, sock, server).expect("healthy pipe");
        let warm = cgi.serve(&mut k, kind, sock, server).expect("healthy pipe");
        (k, first, warm)
    }

    #[test]
    fn conventional_cgi_copies_four_times_per_byte() {
        // Pipe in, pipe out, socket copy — and the checksum on top.
        let (k, _, warm) = run(ServerKind::Flash, 100_000);
        // At least 3 copies of the 100KB document.
        assert!(k.metrics.bytes_copied >= 2 * 3 * 100_000);
        assert!(warm.cpu > k.cost.copy(300_000).time);
    }

    #[test]
    fn iolite_cgi_is_copy_free_and_checksum_cached() {
        let mut k = Kernel::new(CostModel::pentium_ii_333());
        let server = k.spawn("server");
        let mut cgi = CgiProcess::new(&mut k, server, 100_000, PipeMode::ZeroCopy);
        let sock = k.socket_create(server, BufferMode::ZeroCopy, DEFAULT_MSS, DEFAULT_TSS);
        cgi.serve(&mut k, ServerKind::FlashLite, sock, server)
            .expect("healthy pipe");
        let summed = k.metrics.time_in(CostCategory::Checksum);
        cgi.serve(&mut k, ServerKind::FlashLite, sock, server)
            .expect("healthy pipe");
        assert_eq!(k.metrics.bytes_copied, 0, "no copies anywhere");
        // Second request: body checksum cached; only headers computed.
        let csum = k.metrics.time_in(CostCategory::Checksum) - summed;
        assert!(csum < k.cost.checksum(1000).time, "{csum}");
        assert!(k.metrics.bytes_checksum_cached >= 100_000);
    }

    #[test]
    fn cgi_data_arrives_intact() {
        let mut k = Kernel::new(CostModel::pentium_ii_333());
        let server = k.spawn("server");
        let mut cgi = CgiProcess::new(&mut k, server, 10_000, PipeMode::ZeroCopy);
        let expected = cgi.document().to_vec();
        let sock = k.socket_create(server, BufferMode::ZeroCopy, DEFAULT_MSS, DEFAULT_TSS);
        let rc = cgi
            .serve(&mut k, ServerKind::FlashLite, sock, server)
            .expect("healthy pipe");
        assert_eq!(
            rc.response_bytes as usize,
            expected.len() + response_header(10_000, true).len()
        );
    }

    #[test]
    fn iolite_cgi_cheaper_than_conventional() {
        let (_, _, warm_fl) = run(ServerKind::FlashLite, 200_000);
        let (_, _, warm_f) = run(ServerKind::Flash, 200_000);
        assert!(warm_fl.cpu.as_us() * 1.5 < warm_f.cpu.as_us());
    }

    #[test]
    fn warm_iolite_cgi_needs_no_new_mappings() {
        let mut k = Kernel::new(CostModel::pentium_ii_333());
        let server = k.spawn("server");
        let mut cgi = CgiProcess::new(&mut k, server, 100_000, PipeMode::ZeroCopy);
        let sock = k.socket_create(server, BufferMode::ZeroCopy, DEFAULT_MSS, DEFAULT_TSS);
        cgi.serve(&mut k, ServerKind::FlashLite, sock, server)
            .expect("healthy pipe");
        let mapped_after_first = k.metrics.pages_mapped;
        cgi.serve(&mut k, ServerKind::FlashLite, sock, server)
            .expect("healthy pipe");
        assert_eq!(
            k.metrics.pages_mapped, mapped_after_first,
            "steady state rides persistent mappings"
        );
    }

    /// Regression: the server hanging up its read end mid-stream used
    /// to panic the CGI loop (`expect("cgi pipe stays open")`); it must
    /// surface as `Closed` (EPIPE) so the driver can fail the one
    /// request and keep serving.
    #[test]
    fn last_reader_close_fails_the_request_instead_of_panicking() {
        let mut k = Kernel::new(CostModel::pentium_ii_333());
        let server = k.spawn("server");
        // 150KB > the 64KB pipe: the transfer needs several fill/drain
        // rounds, so the hang-up lands mid-stream.
        let mut cgi = CgiProcess::new(&mut k, server, 150_000, PipeMode::ZeroCopy);
        let sock = k.socket_create(server, BufferMode::ZeroCopy, DEFAULT_MSS, DEFAULT_TSS);
        // The server's only read-end descriptor disappears.
        k.close_fd(server, cgi.server_read_fd()).unwrap();
        let err = cgi.serve(&mut k, ServerKind::FlashLite, sock, server);
        assert_eq!(err.unwrap_err(), IolError::Closed, "EPIPE, not a panic");
        // The CGI process itself survives to serve a healthy pipe later.
        let mut healthy = CgiProcess::new(&mut k, server, 10_000, PipeMode::ZeroCopy);
        assert!(healthy
            .serve(&mut k, ServerKind::FlashLite, sock, server)
            .is_ok());
    }

    /// The kernel pipe carries the CGI pool's ACL: the server's domain
    /// is admitted (a denial would fail `serve` with
    /// `PermissionDenied`), so the transfer maps; the isolation itself
    /// is pinned down in `tests/receive_path.rs` against a sibling CGI.
    #[test]
    fn pipe_transfers_are_acl_gated() {
        let mut k = Kernel::new(CostModel::pentium_ii_333());
        let server = k.spawn("server");
        let mut cgi = CgiProcess::new(&mut k, server, 5_000, PipeMode::ZeroCopy);
        let sock = k.socket_create(server, BufferMode::ZeroCopy, DEFAULT_MSS, DEFAULT_TSS);
        cgi.serve(&mut k, ServerKind::FlashLite, sock, server)
            .expect("server admitted");
        assert!(cgi.pool.acl().allows(server.domain()));
    }
}
