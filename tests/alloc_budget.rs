//! Hit-path host cost (PR 22): what a cached GET and a by-value
//! aggregate hand-off ask of the heap, counted exactly — and what the
//! byte-moving paths (PUT ingest, a remote fetch, a cold miss) ask of
//! it per byte.
//!
//! IO-Lite passes aggregates by value and buffers by reference (§3.1),
//! so once the working set is resident a request should cost the host
//! what the model says happens: the request's bytes arriving, its path,
//! and the two buffers it allocates (request, response head) — not a
//! slice-list allocation per hand-off. A counting `#[global_allocator]`
//! local to this test binary turns that into an assertion; no clock is
//! read. The per-byte slopes are what the retired `hot-path-alloc` lint
//! stood in for: one more body-sized copy on the serving path moves them
//! by a whole byte per byte.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use iolite::buf::{Acl, Aggregate, BufferPool, PoolId};
use iolite::core::{CostModel, Kernel};
use iolite::fs::{home_shard, Policy};
use iolite::http::event_loop::{EventLoopConfig, EventLoopServer};
use iolite::http::server::serve_static;
use iolite::http::sharded::{attach_fabric, run_round};
use iolite::http::ServerKind;
use iolite::net::{DEFAULT_MSS, DEFAULT_TSS};

thread_local! {
    /// Allocator calls (`alloc` + `realloc`) made by this thread. Per
    /// thread, so the tests of this binary can run in parallel.
    static HEAP_CALLS: Cell<u64> = const { Cell::new(0) };
    /// Bytes those calls asked for (a `realloc` counts its new size).
    static HEAP_BYTES: Cell<u64> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    HEAP_CALLS.with(|n| n.set(n.get() + 1));
    HEAP_BYTES.with(|n| n.set(n.get() + bytes as u64));
}

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`,
// whose contract is the one the caller upholds; the only addition is two
// thread-local counter bumps, which neither allocate (const-initialised
// `Cell`s, no destructor) nor unwind.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: `layout` is the caller's, passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` via `alloc`/`realloc` above
        // with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: as for `dealloc`; `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn heap_calls() -> u64 {
    HEAP_CALLS.with(Cell::get)
}

fn heap_bytes() -> u64 {
    HEAP_BYTES.with(Cell::get)
}

/// Allocator calls per cached GET, client included. The residue is the
/// parsed path (1) and two IO-Lite buffers — request and response
/// head, each written from its parts — at a data block and an `Arc`
/// each (4); the request's bytes take no call of their own. Per-tick
/// scratch and the growth of the completed-request log amortise over
/// the 64 connections to the rest of the 5.41 measured (6.41 while the
/// client `format!`ted each request, 6.57 while the unified cache
/// re-ranked a B-tree on every hit, pin and unpin, and 23 before slice
/// lists were kept inline).
const GET_BUDGET: f64 = 5.4066 + 0.5;

#[test]
fn cached_get_stays_within_the_allocation_budget() {
    const CONNS: usize = 64;
    const WARM: usize = 64;
    const TIMED: usize = 10_000usize.div_ceil(CONNS);
    let mut k = Kernel::with_policy(CostModel::pentium_ii_333(), Policy::Gds);
    let pid = k.spawn("server");
    let files: Vec<String> = (0..32).map(|f| format!("/f{f:05}")).collect();
    for (f, path) in files.iter().enumerate() {
        k.create_synthetic_file(path, 2_000 + 300 * f as u64, f as u64);
    }
    let scripts = (0..CONNS)
        .map(|c| {
            (0..WARM + TIMED)
                .map(|r| files[(c * 7 + r * 13) % files.len()].clone())
                .collect()
        })
        .collect();
    let mut server = EventLoopServer::new(k, pid, scripts, None, EventLoopConfig::default());
    // Warm-up: every file cached and checksummed, every table and
    // per-connection buffer at its steady-state capacity.
    while server.stats().completed < (CONNS * WARM) as u64 {
        server.tick();
    }
    let (calls, done) = (heap_calls(), server.stats().completed);
    while server.stats().completed < done + (CONNS * TIMED) as u64 {
        server.tick();
    }
    let requests = server.stats().completed - done;
    let per_request = (heap_calls() - calls) as f64 / requests as f64;
    assert!(requests >= 10_000, "timed {requests} requests");
    assert_eq!(server.stats().failed, 0);
    assert_eq!(
        server.stats().cache_hits,
        server.stats().completed - files.len() as u64
    );
    assert!(
        per_request <= GET_BUDGET,
        "{per_request:.2} allocator calls per cached GET (budget {GET_BUDGET})"
    );
}

/// Passing a small aggregate by value is free: none of the hand-offs
/// on the request path allocates for the slice list while the result
/// has at most `Aggregate::INLINE_SLICES` slices (header + ≤ 128 KB).
#[test]
fn small_aggregate_hand_offs_do_not_allocate() {
    let pool = BufferPool::new(PoolId(1), Acl::kernel_only(), 64 * 1024);
    let head = Aggregate::from_bytes(&pool, b"HTTP/1.1 200 OK\r\n\r\n");
    let body = Aggregate::from_bytes(&pool, &[7u8; 100_000]);
    assert_eq!(
        head.num_slices() + body.num_slices(),
        Aggregate::INLINE_SLICES
    );
    let before = heap_calls();
    let mut response = head.clone();
    response.append(&body);
    let window = response.range(10, 70_000).unwrap();
    let mut rest = response.clone();
    rest.advance(window.len() + 10);
    rest.truncate(1_000);
    let mut framed = Aggregate::empty();
    framed.prepend(&rest);
    framed.prepend(&head);
    let (a, b) = framed.split_at(500);
    let sent = response.whole_slices(0, u64::MAX);
    assert_eq!(heap_calls() - before, 0, "short slice lists live inline");
    assert_eq!(
        (window.num_slices(), a.len(), b.len(), sent.len()),
        (3, 500, 519, 100_019)
    );
}

/// Heap bytes per extra byte of a value, from runs at two sizes: what
/// does not grow with the size (tables, scripts, per-request records)
/// cancels, and what is left is the copies made of each byte.
fn slope(small: (u64, u64), large: (u64, u64)) -> f64 {
    (large.0 - small.0) as f64 / (large.1 - small.1) as f64
}

/// The two sizes both slopes are measured between: one 64 KB chunk
/// holds either, head included, so the buffer count per value is the
/// same at both.
const SMALL: u64 = 8 * 1024;
const LARGE: u64 = 40 * 1024;

/// Heap bytes of `CONNS` × `PUTS` scripted PUTs of `len` body bytes
/// each, through `tick()` (internal wire, journal off), and the body
/// bytes the server ingested.
fn put_ingest(len: u64) -> (u64, u64) {
    const CONNS: usize = 8;
    const PUTS: usize = 16;
    let mut k = Kernel::with_policy(CostModel::pentium_ii_333(), Policy::Gds);
    let pid = k.spawn("server");
    let scripts = (0..CONNS)
        .map(|c| {
            (0..PUTS)
                .map(|r| format!("PUT /u{} {len}", (c + r) % 8))
                .collect()
        })
        .collect();
    let mut server = EventLoopServer::new(k, pid, scripts, None, EventLoopConfig::default());
    let before = heap_bytes();
    while !server.is_done() {
        server.tick();
    }
    let bytes = heap_bytes() - before;
    let stats = server.stats();
    assert_eq!((stats.puts, stats.failed), ((CONNS * PUTS) as u64, 0));
    (bytes, stats.put_bytes)
}

/// Heap bytes per PUT body byte, client included: the pool buffer the
/// client writes the body into is the body's only copy (1). The server
/// splits it out and installs it by reference, in the cache and in the
/// file store alike. 1.0003 measured (3.0629 while the client collected
/// the body, staged the request and the server copied it in); a
/// `to_vec` of the receive aggregate in `try_complete_put`, or a store
/// that copies the body, adds a whole byte per byte.
const PUT_BYTES_PER_BODY_BYTE: f64 = 1.0003 + 0.5;

#[test]
fn put_ingest_copies_each_body_byte_a_fixed_number_of_times() {
    let per_byte = slope(put_ingest(SMALL), put_ingest(LARGE));
    assert!(
        per_byte <= PUT_BYTES_PER_BODY_BYTE,
        "{per_byte:.4} heap bytes per PUT body byte (budget {PUT_BYTES_PER_BODY_BYTE})"
    );
}

/// A 2-shard `HomeOnly` fleet over one corpus of `len`-byte documents
/// (`/f0` … `/f23`, the same on both shards): shard 0 has one
/// connection, whose script `script` builds from the paths homed on
/// shard 1; shard 1 has none. Returns the fleet and those paths.
fn remote_fleet(
    len: u64,
    script: impl Fn(&[String]) -> Vec<String>,
) -> (Vec<EventLoopServer>, Vec<String>) {
    let mut servers = Vec::new();
    let mut remote: Vec<String> = Vec::new();
    for shard in 0..2 {
        let mut k = Kernel::with_policy(CostModel::pentium_ii_333(), Policy::Gds);
        let pid = k.spawn("server");
        remote = (0..24)
            .filter_map(|f| {
                let path = format!("/f{f}");
                let file = k.create_synthetic_file(&path, len, f);
                (home_shard(file, 2) == 1).then_some(path)
            })
            .collect();
        let scripts = if shard == 0 {
            vec![script(&remote)]
        } else {
            Vec::new()
        };
        servers.push(EventLoopServer::new(
            k,
            pid,
            scripts,
            None,
            EventLoopConfig::default(),
        ));
    }
    attach_fabric(&mut servers);
    (servers, remote)
}

/// Passes over the remote documents in [`remote_fetch`]: the first
/// warms the home's cache, the rest are timed.
const PASSES: usize = 8;

/// Shard 0 of [`remote_fleet`] fetching every remote document
/// [`PASSES`] times, driven by `run_round` as every fleet is. Returns
/// the heap bytes of the passes after the first, which brings every
/// document into its home's cache, and the bytes they fetched; and
/// shard 0's checksum-cache hits and misses over those passes.
fn remote_fetch(len: u64) -> ((u64, u64), (u64, u64)) {
    let (mut servers, remote) = remote_fleet(len, |remote| {
        let passes = remote.iter().cycle().take(remote.len() * PASSES);
        passes.cloned().collect()
    });
    let fetches = remote.len() as u64;
    while servers[0].stats().completed < fetches {
        run_round(&mut servers);
    }
    let cksum = servers[0].kernel().cksum.stats();
    let before = heap_bytes();
    while !servers[0].is_done() {
        run_round(&mut servers);
    }
    let bytes = heap_bytes() - before;
    let stats = servers[0].stats();
    let timed = fetches * (PASSES as u64 - 1);
    assert_eq!(
        (stats.completed, stats.failed),
        (fetches * PASSES as u64, 0)
    );
    assert_eq!(
        (stats.remote_reads, stats.remote_hits),
        (fetches * PASSES as u64, timed)
    );
    let after = servers[0].kernel().cksum.stats();
    let sums = (after.hits - cksum.hits, after.misses - cksum.misses);
    ((bytes, timed * len), sums)
}

/// Heap bytes per remotely fetched byte: none. The home's buffers cross
/// the fabric by reference and are sent as they are (0.0000 measured;
/// 2.0000 while `serve_remote_read` copied the document onto the
/// channel and `land_copied` copied it again into the requester's
/// pool). One copy of the payload anywhere on the path adds a whole
/// byte per byte.
const FETCH_BYTES_PER_BYTE: f64 = 0.0 + 0.5;

#[test]
fn remote_fetch_copies_each_byte_a_fixed_number_of_times() {
    let per_byte = slope(remote_fetch(SMALL).0, remote_fetch(LARGE).0);
    assert!(
        per_byte <= FETCH_BYTES_PER_BYTE,
        "{per_byte:.4} heap bytes per remotely fetched byte (budget {FETCH_BYTES_PER_BYTE})"
    );
}

/// A document fetched again is the same home buffers sent again, so
/// after the first pass every payload slice's checksum comes from the
/// requester's cache (§3.9): the only sums computed are the response
/// heads', one fresh buffer per response. (A landed copy is a fresh
/// buffer too, and missed every time.) Both sizes fit one 64 KB chunk,
/// so a payload is one slice.
#[test]
fn repeated_remote_fetches_hit_the_requesters_checksum_cache() {
    for len in [SMALL, LARGE] {
        let ((_, bytes), (hits, misses)) = remote_fetch(len);
        let responses = bytes / len;
        assert_eq!(
            (hits, misses),
            (responses, responses),
            "{len}-byte documents: checksum hits and misses over passes 2..{PASSES}"
        );
    }
}

/// Heap bytes of shard 0 of [`remote_fleet`] PUTting a `len`-byte body
/// to every remote document four times, and the body bytes it sent.
fn remote_put(len: u64) -> (u64, u64) {
    const PUTS: usize = 4;
    let (mut servers, remote) = remote_fleet(len, |remote| {
        let puts = remote.iter().cycle().take(remote.len() * PUTS);
        puts.map(|path| format!("PUT {path} {len}")).collect()
    });
    let before = heap_bytes();
    while !servers[0].is_done() {
        run_round(&mut servers);
    }
    let bytes = heap_bytes() - before;
    let stats = servers[0].stats();
    let puts = (remote.len() * PUTS) as u64;
    assert_eq!(
        (stats.puts, stats.remote_writes, stats.failed),
        (puts, puts, 0)
    );
    (bytes, stats.put_bytes)
}

/// Heap bytes per remotely PUT body byte: the pool buffer the client
/// writes the body into (1), and the home shard's copy into its own
/// pool (1) — the body crosses the fabric by reference, but it stays in
/// the writer's pool, under the writer's ACL, until the home copies it.
/// 2.0006 measured (3.0006 while the writer copied the body onto the
/// channel first).
const REMOTE_PUT_BYTES_PER_BODY_BYTE: f64 = 2.0006 + 0.5;

#[test]
fn remote_put_copies_each_body_byte_a_fixed_number_of_times() {
    let per_byte = slope(remote_put(SMALL), remote_put(LARGE));
    assert!(
        per_byte <= REMOTE_PUT_BYTES_PER_BODY_BYTE,
        "{per_byte:.4} heap bytes per remote PUT body byte \
         (budget {REMOTE_PUT_BYTES_PER_BODY_BYTE})"
    );
}

/// Heap bytes of `kind` serving 16 distinct `len`-byte synthetic
/// documents once each through `serve_static` — every request a cold
/// miss — and the document bytes it served.
fn cold_serve(kind: ServerKind, len: u64) -> (u64, u64) {
    const DOCS: u64 = 16;
    let mut k = Kernel::with_policy(CostModel::pentium_ii_333(), Policy::Gds);
    let pid = k.spawn("server");
    let sock = k.socket_create(pid, kind.buffer_mode(), DEFAULT_MSS, DEFAULT_TSS);
    let fds: Vec<_> = (0..DOCS)
        .map(|d| {
            let file = k.create_synthetic_file(&format!("/d{d}"), len, d);
            k.open_file(pid, file)
        })
        .collect();
    let before = heap_bytes();
    for fd in fds {
        assert!(!serve_static(&mut k, kind, sock, pid, fd).cache_hit);
    }
    (heap_bytes() - before, DOCS * len)
}

/// Heap bytes per document byte of a Flash cold miss: none. The miss
/// puts the document in the unified cache, but Flash's copying
/// `writev` and its checksum are billed by length, so no host code
/// reads the bytes, and a synthetic file's buffers produce them only
/// when read; the residue is send bookkeeping per segment. 0.0027
/// measured (1.0027 while a miss generated every byte into its cache
/// buffers).
const FLASH_MISS_BYTES_PER_BYTE: f64 = 0.0027 + 0.5;

#[test]
fn a_flash_cold_miss_generates_no_document_byte() {
    let kind = ServerKind::Flash;
    let per_byte = slope(cold_serve(kind, SMALL), cold_serve(kind, LARGE));
    assert!(
        per_byte <= FLASH_MISS_BYTES_PER_BYTE,
        "{per_byte:.4} heap bytes per document byte (budget {FLASH_MISS_BYTES_PER_BYTE})"
    );
}

/// Heap bytes per document byte of a Flash-Lite cold miss and its
/// send: the cache buffers' bytes, produced once, when the send's
/// checksum first reads them (1). The response goes out by reference;
/// a second generation, or a copy of the bytes on the way (a fork of
/// the cache, say), adds a whole byte per byte. 1.0028 measured, as
/// when the miss itself generated the bytes.
const FLASH_LITE_MISS_BYTES_PER_BYTE: f64 = 1.0028 + 0.5;

#[test]
fn a_flash_lite_cold_miss_generates_each_byte_once() {
    let kind = ServerKind::FlashLite;
    let per_byte = slope(cold_serve(kind, SMALL), cold_serve(kind, LARGE));
    assert!(
        per_byte <= FLASH_LITE_MISS_BYTES_PER_BYTE,
        "{per_byte:.4} heap bytes per document byte (budget {FLASH_LITE_MISS_BYTES_PER_BYTE})"
    );
}
