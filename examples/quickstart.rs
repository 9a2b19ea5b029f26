//! Quickstart: the IO-Lite buffer system in five minutes.
//!
//! Demonstrates the paper's §3.1 core ideas — immutable buffers, mutable
//! aggregates, pool recycling with generation numbers — the §3.9
//! checksum cache riding on them, and the §3.4 descriptor API: one `Fd`
//! capability and one fallible `IOL_read`/`IOL_write` pair for files,
//! pipes, sockets, and stdio.
//!
//! Run with: `cargo run --release --example quickstart`

use iolite::buf::{Acl, Aggregate, BufferPool, DomainId, PoolId};
use iolite::core::{CostModel, Fd, IolError, Kernel, Whence};
use iolite::net::{internet_checksum, BufferMode, ChecksumCache, DEFAULT_MSS, DEFAULT_TSS};

fn main() {
    // --- 1. Pools and aggregates -------------------------------------
    // A pool determines the ACL of everything allocated from it (§3.3).
    let server = DomainId(1);
    let pool = BufferPool::new(PoolId(1), Acl::with_domain(server), 64 * 1024);

    let body = Aggregate::from_bytes(&pool, b"<html>hello, unified I/O</html>");
    let header = Aggregate::from_bytes(&pool, b"HTTP/1.0 200 OK\r\n\r\n");

    // Concatenation is pointer manipulation: no bytes move.
    let response = header.concat(&body);
    println!(
        "response: {} bytes in {} slices",
        response.len(),
        response.num_slices()
    );

    // --- 2. Mutation without mutation ---------------------------------
    // Buffers are immutable; aggregates mutate by chaining (§3.8).
    let edited = response
        .replace(&pool, response.len() - 7, 0, b" (edited)")
        .expect("in range");
    println!("edited:   {}", String::from_utf8_lossy(&edited.to_vec()));
    println!("original: {}", String::from_utf8_lossy(&response.to_vec()));

    // --- 3. Checksum caching (§3.9) -----------------------------------
    let mut cache = ChecksumCache::new(1024);
    let slice = &body.slice_at(0);
    let (first, first_hit) = cache.sum_for(slice);
    let (second, second_hit) = cache.sum_for(slice);
    assert_eq!((first, first_hit, second_hit), (second, false, true));
    println!(
        "checksum 0x{:04x}: computed over {} bytes once, then served from cache",
        internet_checksum(&body),
        slice.len(),
    );

    // --- 4. Recycling and generations ---------------------------------
    // Drop everything: the pool's chunks drain and recycle with bumped
    // generation numbers, so stale checksums can never be served.
    let old_id = slice.id();
    let old_gen = slice.generation();
    drop((body, header, response, edited));
    let fresh = Aggregate::from_bytes(&pool, &vec![0u8; 64 * 1024]);
    let s = &fresh.slice_at(0);
    println!(
        "chunk {} reused: generation {} -> {} (checksum cache key changed)",
        s.id().chunk,
        old_gen,
        s.generation()
    );
    assert_eq!(s.id().chunk, old_id.chunk);
    assert_ne!(s.generation(), old_gen);
    println!("pool stats: {:?}", pool.stats());

    // --- 5. One descriptor to rule them all (§3.4) --------------------
    // Files, pipes, sockets, and the stdio triple installed at spawn
    // all answer to the same two calls, and every call is fallible.
    let mut k = Kernel::new(CostModel::pentium_ii_333());
    let pid = k.spawn("app");
    k.create_file("/hello.txt", b"hello through a descriptor");
    let (fd, _) = k.open(pid, "/hello.txt").expect("path resolves");
    k.lseek(pid, fd, 6, Whence::Set).expect("files seek");
    let (tail, _) = k.iol_read_fd(pid, fd, 100).expect("open file");
    println!(
        "file fd {fd:?} read: {}",
        String::from_utf8_lossy(&tail.to_vec())
    );

    // The same call transmits on a TCP socket (zero-copy, checksummed).
    let sock = k.socket_create(pid, BufferMode::ZeroCopy, DEFAULT_MSS, DEFAULT_TSS);
    let (sent, out) = k.iol_write_fd(pid, sock, &tail).expect("socket up");
    let send = out.net.expect("socket writes carry send accounting");
    println!(
        "socket fd {sock:?} sent {sent} bytes as {} segment(s), {} checksummed",
        send.segments, send.csum_bytes_computed
    );

    // And the stdio triple is just descriptors 0/1/2.
    let stdout_msg = Aggregate::from_bytes(&pool, b"printed via fd 1");
    k.iol_write_fd(pid, Fd::STDOUT, &stdout_msg)
        .expect("stdout open");
    let (console, _) = k.read_stdout(pid, 100).expect("console drains");
    println!(
        "console saw: {}",
        String::from_utf8_lossy(&console.to_vec())
    );

    // Errors are values: close-then-use is EBADF, not a panic.
    k.close_fd(pid, fd).expect("first close");
    match k.iol_read_fd(pid, fd, 10) {
        Err(IolError::NotOpen { fd }) => println!("after close: fd {} is EBADF", fd.0),
        other => panic!("expected NotOpen, got {other:?}"),
    }
}
