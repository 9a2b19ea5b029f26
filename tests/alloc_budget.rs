//! Hit-path host cost (PR 22): what a cached GET and a by-value
//! aggregate hand-off ask of the heap, counted exactly.
//!
//! IO-Lite passes aggregates by value and buffers by reference (§3.1),
//! so once the working set is resident a request should cost the host
//! what the model says happens: the request's bytes arriving, its path,
//! and the two buffers it allocates (request, response head) — not a
//! slice-list allocation per hand-off. A counting `#[global_allocator]`
//! local to this test binary turns that into an assertion; no clock is
//! read.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use iolite::buf::{Acl, Aggregate, BufferPool, PoolId};
use iolite::core::{CostModel, Kernel};
use iolite::fs::Policy;
use iolite::http::event_loop::{EventLoopConfig, EventLoopServer};

thread_local! {
    /// Allocator calls (`alloc` + `realloc`) made by this thread. Per
    /// thread, so the tests of this binary can run in parallel.
    static HEAP_CALLS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`,
// whose contract is the one the caller upholds; the only addition is a
// thread-local counter bump, which neither allocates (const-initialised
// `Cell`, no destructor) nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        HEAP_CALLS.with(|n| n.set(n.get() + 1));
        // SAFETY: `layout` is the caller's, passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` via `alloc`/`realloc` above
        // with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        HEAP_CALLS.with(|n| n.set(n.get() + 1));
        // SAFETY: as for `dealloc`; `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn heap_calls() -> u64 {
    HEAP_CALLS.with(Cell::get)
}

/// Allocator calls per cached GET, client included. The residue is the
/// request's bytes (1), its parsed path (1) and two IO-Lite buffers —
/// request and response head — at a data block and an `Arc` each (4);
/// per-tick scratch and the growth of the completed-request log
/// amortise over the 64 connections to the rest of the 6.57 measured.
/// The parent commit spent 23.
const GET_BUDGET: u64 = 7;

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
    assert_eq!(server.stats().cache_hits, server.stats().completed - files.len() as u64);
    assert!(
        per_request <= GET_BUDGET as f64,
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
    assert_eq!(head.num_slices() + body.num_slices(), Aggregate::INLINE_SLICES);
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
    assert_eq!((window.num_slices(), a.len(), b.len(), sent.len()), (3, 500, 519, 100_019));
}
