//! The three server models (§5).
//!
//! One request = one call to [`serve_static`] (or
//! [`crate::cgi::CgiProcess::serve`]): the function drives the *real*
//! kernel data structures (unified cache, window, checksum cache) and
//! returns what the request cost for the event driver to schedule — the
//! kernel's CPU ledger across the call, since every kernel operation
//! bills itself and the server bills only the work the kernel does not
//! do. Servers differ only in the mechanisms the paper names — the cost
//! model itself is shared.
//!
//! All I/O is descriptor-based: the document arrives as a file [`Fd`]
//! (the server's open-file set) and the client connection as a socket
//! [`Fd`] in the kernel's registry — `IOL_write` on the socket *is* the
//! transmission (§3.4), zero-copy or copying per the server's mode.

use iolite_buf::Aggregate;
use iolite_core::{Charge, CostCategory, Fd, IolError, Kernel, Pid};
use iolite_fs::CacheKey;
use iolite_net::BufferMode;
use iolite_sim::SimTime;

use crate::message::response_header;

/// Which server is running.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServerKind {
    /// Event-driven, mmap + copying writev (the paper's aggressive
    /// baseline).
    Flash,
    /// Flash ported to the IO-Lite API (zero-copy, checksum cache, GDS).
    FlashLite,
    /// Process-per-connection Apache 1.3.1 model.
    Apache,
}

impl ServerKind {
    /// The TCP buffering mode this server's sends use.
    pub fn buffer_mode(self) -> BufferMode {
        match self {
            ServerKind::FlashLite => BufferMode::ZeroCopy,
            _ => BufferMode::Copy,
        }
    }

    /// Display name matching the paper's figures.
    pub fn label(self) -> &'static str {
        match self {
            ServerKind::Flash => "Flash",
            ServerKind::FlashLite => "Flash-Lite",
            ServerKind::Apache => "Apache",
        }
    }
}

/// What one served request cost and produced.
#[derive(Debug, Default)]
pub struct RequestCosts {
    /// Simulated CPU the request consumed: the kernel's ledger
    /// ([`iolite_core::Metrics::cpu`]) after the request less before it
    /// — one kernel, driven in sequence, so the change is the request's.
    pub cpu: SimTime,
    /// Device time for a cache miss (schedule on the disk resource).
    pub disk_time: SimTime,
    /// Whether the file cache hit.
    pub cache_hit: bool,
    /// Response bytes at the application layer (header + body).
    pub response_bytes: u64,
    /// Bytes on the wire (application bytes + per-segment TCP/IP
    /// headers).
    pub wire_bytes: u64,
    /// Owned socket-buffer memory pinned while the response drains
    /// (copies for conventional servers; mbuf headers for IO-Lite).
    pub owned_sock_bytes: u64,
    /// Cache entry to pin until transmission completes (Flash-Lite:
    /// the network references the entry, §3.7).
    pub pin_key: Option<CacheKey>,
}

/// Serves one static-file request on the socket descriptor `sock`,
/// returning its costs.
///
/// `server_pid` is the server process (the domain file data transfers
/// into, and the table both descriptors live in); `file_fd` is the
/// document's descriptor in the server's open-file set. The caller
/// charges TCP setup/teardown separately, because connection lifetime
/// is the driver's business (persistent vs not).
pub fn serve_static(
    kernel: &mut Kernel,
    kind: ServerKind,
    sock: Fd,
    server_pid: Pid,
    file_fd: Fd,
) -> RequestCosts {
    let before = kernel.metrics.cpu();
    let mut rc = RequestCosts::default();
    // Request parse + event-loop bookkeeping (all servers).
    let parse = Charge::us(kernel.cost.http_parse_us + kernel.cost.server_fixed_us);
    kernel.charge(CostCategory::Request, parse);
    match kind {
        ServerKind::FlashLite => serve_iolite(kernel, sock, server_pid, file_fd, &mut rc),
        _ => serve_conventional(kernel, kind, sock, server_pid, file_fd, &mut rc),
    }
    rc.cpu = kernel.metrics.cpu() - before;
    rc
}

/// The Flash-Lite path: `IOL_read`, aggregate concatenation, `IOL_write`
/// on the socket descriptor (§3.10's walk-through).
fn serve_iolite(
    kernel: &mut Kernel,
    sock: Fd,
    server_pid: Pid,
    file_fd: Fd,
    rc: &mut RequestCosts,
) {
    // The IOL API's own per-request bookkeeping (aggregate and pool
    // management; see cost-model docs).
    let extra = Charge::us(kernel.cost.iol_request_extra_us);
    kernel.charge(CostCategory::Request, extra);
    let file = kernel
        .fd_file(server_pid, file_fd)
        .expect("document descriptor");
    let len = kernel
        .fd_len(server_pid, file_fd)
        .expect("document descriptor");
    // IOL_read: snapshot aggregate of the whole document (positional —
    // the serve path never moves the shared offset).
    let (body, outcome) = kernel
        .iol_pread(server_pid, file_fd, 0, len)
        .expect("document read");
    rc.cache_hit = outcome.cache_hit;
    rc.disk_time = outcome.disk_time;
    send_response(kernel, ServerKind::FlashLite, sock, server_pid, &body, rc)
        .expect("socket write");
    // The network now references the cached entry: pin until drained.
    // The pin is keyed by CacheKey and registers even if the entry was
    // evicted between the IOL_read above and here (or is later replaced
    // by a write), so the driver's deferred unpin at transmission
    // completion is always balanced against exactly this reference.
    rc.pin_key = Some(CacheKey::whole(file));
    kernel.cache_pin(CacheKey::whole(file));
}

/// The Flash/Apache path: mmap'd file cache, copying send.
fn serve_conventional(
    kernel: &mut Kernel,
    kind: ServerKind,
    sock: Fd,
    server_pid: Pid,
    file_fd: Fd,
    rc: &mut RequestCosts,
) {
    // The mmap-backed read through the page cache: the file cache is
    // consulted for real. Flash keeps a bounded mapped-file cache, and
    // only a miss (tail files) costs an mmap/munmap cycle; Apache maps
    // and unmaps per request. Mapping cost amortizes via the window's
    // per-domain chunk mappings.
    let (body, outcome) = kernel
        .mapped_read(server_pid, file_fd, kind != ServerKind::Apache)
        .expect("document read");
    rc.cache_hit = outcome.cache_hit;
    rc.disk_time = outcome.disk_time;
    send_response(kernel, kind, sock, server_pid, &body, rc).expect("socket write");
}

/// Frames `header ++ body` and transmits it on `sock` — the one send
/// tail every server and the CGI path share — filling `rc`'s
/// response/wire/occupancy fields. The socket bills the send itself;
/// Apache's process model is billed here.
///
/// Flash-Lite allocates the header in IO-Lite space ("allocating memory
/// for response headers ... is handled with memory allocation from
/// IO-Lite space"), concatenates the body by reference, and
/// `IOL_write`s the aggregate: a zero-copy send with checksum caching.
/// Flash and Apache `writev(header, body)`: one syscall, then the
/// kernel copies the payload into socket mbufs and checksums
/// everything, every time; Apache adds its process-model cost.
///
/// # Errors
///
/// The socket write's [`IolError`] when the client connection died.
pub(crate) fn send_response(
    kernel: &mut Kernel,
    kind: ServerKind,
    sock: Fd,
    server_pid: Pid,
    body: &Aggregate,
    rc: &mut RequestCosts,
) -> Result<(), IolError> {
    let header = response_header(body.len(), true);
    rc.response_bytes = header.len() as u64 + body.len();
    let send = if kind == ServerKind::FlashLite {
        let mut response = Aggregate::from_bytes(kernel.process(server_pid).pool(), &header);
        response.append(body);
        let (_, wout) = kernel.iol_write_fd(server_pid, sock, &response)?;
        wout.net.expect("socket writes carry SendOutcome")
    } else {
        let (send, _) = kernel.socket_send_accounted(server_pid, sock, rc.response_bytes)?;
        send
    };
    rc.wire_bytes = rc.response_bytes + send.header_bytes;
    rc.owned_sock_bytes = send.owned_occupancy;
    if kind == ServerKind::Apache {
        // The process-per-connection model: scheduling, inter-process
        // select, per-request process work (§5.1: Apache trails Flash
        // even on identical data paths), plus slower internal buffer
        // management per byte.
        let model = Charge::us(
            kernel.cost.apache_request_extra_us
                + rc.response_bytes as f64 * kernel.cost.apache_extra_ns_per_byte / 1000.0,
        );
        kernel.charge(CostCategory::ProcessModel, model);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use iolite_core::CostModel;
    use iolite_fs::Policy;
    use iolite_net::{DEFAULT_MSS, DEFAULT_TSS};
    use iolite_vm::MemAccount;

    fn setup(kind: ServerKind) -> (Kernel, Pid, Fd, Fd) {
        let policy = if kind == ServerKind::FlashLite {
            Policy::Gds
        } else {
            Policy::Lru
        };
        let mut k = Kernel::with_policy(CostModel::pentium_ii_333(), policy);
        let pid = k.spawn("server");
        let f = k.create_synthetic_file("/doc", 100_000, 9);
        let file_fd = k.open_file(pid, f);
        let sock = k.socket_create(pid, kind.buffer_mode(), DEFAULT_MSS, DEFAULT_TSS);
        (k, pid, file_fd, sock)
    }

    #[test]
    fn flash_lite_hot_request_touches_no_data() {
        let (mut k, pid, f, sock) = setup(ServerKind::FlashLite);
        // Warm the caches.
        let first = serve_static(&mut k, ServerKind::FlashLite, sock, pid, f);
        assert!(!first.cache_hit);
        k.cache_unpin(first.pin_key.unwrap());
        let before = k.metrics.clone();
        let warm = serve_static(&mut k, ServerKind::FlashLite, sock, pid, f);
        assert!(warm.cache_hit);
        // Only the fresh response header is checksummed; the body rides
        // the checksum cache. No copies at all.
        let billed = |cat| k.metrics.time_in(cat) - before.time_in(cat);
        let csum = billed(CostCategory::Checksum);
        assert!(
            csum < k.cost.checksum(1000).time,
            "body checksum must be cached: {csum}"
        );
        assert_eq!(billed(CostCategory::Copy), SimTime::ZERO);
        assert_eq!(k.metrics.bytes_copied, 0);
    }

    #[test]
    fn flash_hot_request_copies_and_checksums_everything() {
        let (mut k, pid, f, sock) = setup(ServerKind::Flash);
        serve_static(&mut k, ServerKind::Flash, sock, pid, f);
        let copied_before = k.metrics.time_in(CostCategory::Copy);
        let warm = serve_static(&mut k, ServerKind::Flash, sock, pid, f);
        assert!(warm.cache_hit);
        let copy_time = k.metrics.time_in(CostCategory::Copy) - copied_before;
        assert!(copy_time >= k.cost.socket_copy(100_000).time);
    }

    #[test]
    fn apache_pays_process_model_extra() {
        let (mut k, pid, f, sock) = setup(ServerKind::Apache);
        serve_static(&mut k, ServerKind::Apache, sock, pid, f);
        let warm = serve_static(&mut k, ServerKind::Apache, sock, pid, f);
        let (mut k2, pid2, f2, sock2) = setup(ServerKind::Flash);
        serve_static(&mut k2, ServerKind::Flash, sock2, pid2, f2);
        let flash_warm = serve_static(&mut k2, ServerKind::Flash, sock2, pid2, f2);
        assert!(warm.cpu > flash_warm.cpu);
    }

    #[test]
    fn ordering_flashlite_fastest_on_hot_files() {
        let mut totals = Vec::new();
        for kind in [ServerKind::FlashLite, ServerKind::Flash, ServerKind::Apache] {
            let (mut k, pid, f, sock) = setup(kind);
            let first = serve_static(&mut k, kind, sock, pid, f);
            if let Some(key) = first.pin_key {
                k.cache_unpin(key);
            }
            let warm = serve_static(&mut k, kind, sock, pid, f);
            totals.push((kind.label(), warm.cpu));
        }
        assert!(totals[0].1 < totals[1].1, "{totals:?}");
        assert!(totals[1].1 < totals[2].1, "{totals:?}");
    }

    /// Regression for the driver pin lifecycle: two overlapping
    /// transmissions of one document with a snapshot write between
    /// them. The first response's deferred unpin (the driver's
    /// `Release::Unpin`) must not strip the second response's pin.
    #[test]
    fn overlapping_transmissions_survive_write_replacement() {
        let (mut k, pid, f, sock) = setup(ServerKind::FlashLite);
        let file = k.fd_file(pid, f).unwrap();
        let key = CacheKey::whole(file);
        // Response A goes out and holds its pin while draining.
        let rc_a = serve_static(&mut k, ServerKind::FlashLite, sock, pid, f);
        assert_eq!(rc_a.pin_key, Some(key));
        // A writer replaces the document mid-transmission (§3.5).
        let patch = Aggregate::from_bytes(k.process(pid).pool(), &[0x42; 64]);
        k.iol_pwrite(pid, f, 0, &patch).unwrap();
        // Response B starts on the new snapshot.
        let rc_b = serve_static(&mut k, ServerKind::FlashLite, sock, pid, f);
        assert_eq!(rc_b.pin_key, Some(key));
        assert_eq!(k.cache.pins(&key), 2);
        // A's transmission drains first: the driver releases its pin.
        k.cache_unpin(rc_a.pin_key.unwrap());
        // B is still in flight: its entry must not be the next victim.
        assert_eq!(k.cache.pins(&key), 1);
        let other = k.create_synthetic_file("/other", 1_000, 3);
        let other_fd = k.open_file(pid, other);
        serve_static(&mut k, ServerKind::FlashLite, sock, pid, other_fd);
        k.cache_unpin(CacheKey::whole(other));
        // Squeeze the budget one byte under residency: one victim.
        k.rebalance_cache();
        let squeeze = k.physmem.available() + 1;
        k.mem_reserve(MemAccount::SocketCopies, squeeze);
        assert_eq!(k.rebalance_cache(), 1);
        assert!(!k.cache.contains(&CacheKey::whole(other)));
        assert!(k.cache.contains(&key), "in-flight doc survives");
        // B drains: now the document is evictable again.
        k.cache_unpin(rc_b.pin_key.unwrap());
        assert_eq!(k.cache.pins(&key), 0);
    }

    #[test]
    fn miss_costs_disk_time() {
        let (mut k, pid, f, sock) = setup(ServerKind::Flash);
        let cold = serve_static(&mut k, ServerKind::Flash, sock, pid, f);
        assert!(!cold.cache_hit);
        assert!(cold.disk_time > SimTime::from_ms(8.0));
    }

    #[test]
    fn memory_occupancy_differs_by_mode() {
        let (mut k, pid, f, sock) = setup(ServerKind::Flash);
        let rc = serve_static(&mut k, ServerKind::Flash, sock, pid, f);
        assert_eq!(rc.owned_sock_bytes, 64 * 1024, "Tss-capped copies");
        let (mut k2, pid2, f2, sock2) = setup(ServerKind::FlashLite);
        let rc2 = serve_static(&mut k2, ServerKind::FlashLite, sock2, pid2, f2);
        assert!(rc2.owned_sock_bytes < 16 * 1024, "references, not copies");
        assert!(rc2.pin_key.is_some());
        assert!(k2.cache.pins(&rc2.pin_key.unwrap()) > 0);
    }
}
