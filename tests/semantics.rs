//! Cross-crate semantic invariants: snapshot isolation, access control,
//! unified-cache sharing, and memory-accounting conservation.

use iolite::buf::Aggregate;
use iolite::core::{CostModel, Kernel};
use iolite::net::{BufferMode, DEFAULT_MSS, DEFAULT_TSS};
use iolite::vm::MemAccount;

#[test]
fn iol_read_snapshots_survive_writes_and_evictions() {
    let mut k = Kernel::new(CostModel::pentium_ii_333());
    let pid = k.spawn("app");
    let f = k.create_file("/f", b"generation-one-content");
    let fd = k.open_file(pid, f);
    let (snap1, _) = k.iol_pread(pid, fd, 0, 100).unwrap();

    // Overwrite the file; take a second snapshot.
    let patch = Aggregate::from_bytes(k.process(pid).pool(), b"generation-TWO-content!");
    k.iol_pwrite(pid, fd, 0, &patch).unwrap();
    let (snap2, _) = k.iol_pread(pid, fd, 0, 100).unwrap();

    // Evict everything from the cache (budget to zero and back).
    k.mem_reserve(MemAccount::SocketCopies, u64::MAX / 2);
    k.rebalance_cache();
    assert_eq!(k.cache.len(), 0);
    k.mem_release(MemAccount::SocketCopies, u64::MAX / 2);
    k.rebalance_cache();

    // Both snapshots still read their respective generations.
    assert_eq!(snap1.to_vec(), b"generation-one-content");
    assert_eq!(snap2.to_vec(), b"generation-TWO-content!");

    // A fresh read misses (evicted) but returns current content.
    let (now, out) = k.iol_pread(pid, fd, 0, 100).unwrap();
    assert!(!out.cache_hit);
    assert_eq!(now.to_vec(), b"generation-TWO-content!");
}

#[test]
fn concurrent_readers_share_one_physical_copy() {
    let mut k = Kernel::new(CostModel::pentium_ii_333());
    let a = k.spawn("reader-a");
    let b = k.spawn("reader-b");
    let f = k.create_synthetic_file("/shared", 100_000, 3);
    // Independent opens in two protection domains.
    let fd_a = k.open_file(a, f);
    let fd_b = k.open_file(b, f);
    let (agg_a, _) = k.iol_read_fd(a, fd_a, 100_000).unwrap();
    let (agg_b, _) = k.iol_read_fd(b, fd_b, 100_000).unwrap();
    // Same buffers, not equal copies.
    for (sa, sb) in agg_a.slices().zip(agg_b.slices()) {
        assert!(sa.same_buffer(sb));
    }
    // And the cache entry is the same storage too.
    let (agg_c, out) = k.iol_pread(a, fd_a, 0, 100_000).unwrap();
    assert!(out.cache_hit);
    assert!(agg_c.slice_at(0).same_buffer(agg_a.slice_at(0)));
}

#[test]
fn memory_accounts_are_conserved() {
    let mut k = Kernel::new(CostModel::pentium_ii_333());
    let pid = k.spawn("app");
    let total = k.physmem.total();
    // Load some files, squeeze, release, and verify accounting closes.
    for i in 0..20 {
        let f = k.create_synthetic_file(&format!("/f{i}"), 1 << 20, i);
        let fd = k.open_file(pid, f);
        k.iol_read_fd(pid, fd, 1 << 20).unwrap();
        k.close_fd(pid, fd).unwrap();
    }
    k.rebalance_cache();
    assert_eq!(
        k.physmem.held(MemAccount::FileCache),
        k.cache.resident_bytes()
    );
    assert!(k.physmem.used() <= total, "no phantom memory");

    k.mem_reserve(MemAccount::SocketCopies, 100 << 20);
    k.rebalance_cache();
    // The cache shrank to fit.
    assert!(k.cache.resident_bytes() <= k.physmem.cache_budget());
    k.mem_release(MemAccount::SocketCopies, 100 << 20);
    k.rebalance_cache();
    assert_eq!(k.physmem.held(MemAccount::SocketCopies), 0);
}

/// An account past `u64::MAX` is a machine with nothing left for the
/// cache (§5.7's squeeze at its limit), never a sum that wraps back to
/// the kernel's own reservation and reports the cache ~116 MB free.
#[test]
fn oversubscription_saturates_instead_of_wrapping() {
    let mut k = Kernel::new(CostModel::pentium_ii_333());
    let pid = k.spawn("app");
    let f = k.create_synthetic_file("/f", 1 << 20, 1);
    let fd = k.open_file(pid, f);
    k.iol_read_fd(pid, fd, 1 << 20).unwrap();
    assert!(k.physmem.held(MemAccount::Kernel) > 0 && k.cache.resident_bytes() > 0);
    k.mem_reserve(MemAccount::SocketCopies, u64::MAX);
    k.mem_reserve(MemAccount::SocketCopies, 1);
    k.rebalance_cache();
    assert_eq!(k.physmem.held(MemAccount::SocketCopies), u64::MAX);
    assert_eq!((k.physmem.used(), k.physmem.available()), (u64::MAX, 0));
    assert_eq!(k.physmem.cache_budget(), 0);
    assert_eq!(k.cache.resident_bytes(), 0, "the squeeze evicts everything");
}

/// The cache pool is not append-only: a miss after an eviction lands in
/// chunks the eviction drained, under a new generation — so a buffer's
/// identity depends on who else held it. ROADMAP item 1 flips this
/// deliberately.
#[test]
fn cache_pool_recycles_drained_chunks() {
    let mut k = Kernel::new(CostModel::pentium_ii_333());
    let pid = k.spawn("app");
    let mut keys = Vec::new();
    for i in 0..2 {
        let f = k.create_synthetic_file(&format!("/f{i}"), 1 << 20, i);
        let fd = k.open_file(pid, f);
        let (agg, _) = k.iol_pread(pid, fd, 0, 1 << 20).unwrap();
        keys.push(
            agg.slices()
                .map(|s| (s.id(), s.generation()))
                .collect::<Vec<_>>(),
        );
        // Squeeze the budget to nothing and back: the entry is evicted.
        k.mem_reserve(MemAccount::SocketCopies, u64::MAX / 2);
        k.rebalance_cache();
        k.mem_release(MemAccount::SocketCopies, u64::MAX / 2);
    }
    assert_eq!(k.cache.resident_bytes(), 0);
    let recycled = keys[1]
        .iter()
        .filter(|(id, generation)| keys[0].iter().any(|(old, g)| old == id && g != generation))
        .count();
    assert!(
        recycled > 0,
        "the second read reused none of the first read's chunks"
    );
}

#[test]
fn pool_recycling_is_observable_system_wide() {
    // A chunk drained and reused must present a new generation to the
    // checksum cache through the whole stack.
    let mut k = Kernel::new(CostModel::pentium_ii_333());
    let pid = k.spawn("app");
    let pool = k.process(pid).pool().clone();
    let sock = k.socket_create(pid, BufferMode::ZeroCopy, DEFAULT_MSS, DEFAULT_TSS);
    let a1 = Aggregate::from_bytes(&pool, &[0xAAu8; 64 * 1024]);
    let key1 = (a1.slice_at(0).id(), a1.slice_at(0).generation());
    k.iol_write_fd(pid, sock, &a1).unwrap();
    assert!(!k.cksum.is_empty(), "the send cached its sums");
    drop(a1);
    let a2 = Aggregate::from_bytes(&pool, &[0xBBu8; 64 * 1024]);
    let s2 = a2.slice_at(0);
    assert_eq!(s2.id(), key1.0, "chunk address reused");
    assert_ne!(s2.generation(), key1.1, "generation bumped");
    let (_, out) = k.iol_write_fd(pid, sock, &a2).unwrap();
    let send = out.net.expect("socket writes carry SendOutcome");
    assert_eq!(send.csum_bytes_cached, 0, "no stale checksum served");
    assert_eq!(send.csum_bytes_computed, a2.len());
    assert_eq!(k.cksum.stats().hits, 0);
}

/// A cache miss on a synthetic file seals its buffers lazily: the bytes
/// are produced when first read. A Flash read (`mapped_read`, which
/// bills its send by length) leaves them unread; a write or a PUT that
/// follows changes the file, yet the aggregate read before it still
/// reads the bytes of its moment (§3.5), as an eagerly filled one would.
#[test]
fn a_lazily_sealed_read_keeps_the_bytes_of_its_moment() {
    const LEN: u64 = 100_000;
    let mut k = Kernel::new(CostModel::pentium_ii_333());
    let pid = k.spawn("server");
    let f = k.create_synthetic_file("/doc", LEN, 9);
    let fd = k.open_file(pid, f);
    let before = k.store.read(f, 0, LEN).unwrap();
    let (old, out) = k.mapped_read(pid, fd, true).unwrap();
    assert!(!out.cache_hit);
    assert!(
        old.slices().all(|s| !s.is_produced()),
        "Flash reads no byte"
    );

    let patch = Aggregate::from_bytes(k.process(pid).pool(), &[0x42; 64]);
    k.iol_pwrite(pid, fd, 0, &patch).unwrap();
    let (patched, _) = k.mapped_read(pid, fd, true).unwrap();
    let body = Aggregate::from_bytes(k.process(pid).pool(), b"a whole new body");
    k.put_install(pid, f, &body);
    let (put, _) = k.mapped_read(pid, fd, true).unwrap();

    assert!(old.slices().all(|s| !s.is_produced()));
    assert_eq!(
        old.to_vec(),
        before,
        "the snapshot reads its moment's bytes"
    );
    assert_eq!(&patched.to_vec()[..64], &[0x42; 64]);
    assert_eq!(patched.to_vec()[64..], before[64..]);
    assert_eq!(put.to_vec(), b"a whole new body");
}

/// A cold read of a synthetic document reads as the file store's bytes,
/// and reading them changes no observable state: the digest streams an
/// unread buffer from its producer, so `state_hash` (and a snapshot's)
/// is the same before and after the bytes exist, and neither produces
/// them.
#[test]
fn producing_a_lazy_entrys_bytes_moves_no_state() {
    let mut k = Kernel::new(CostModel::pentium_ii_333());
    let pid = k.spawn("server");
    let docs: Vec<_> = (0..4)
        .map(|d| k.create_synthetic_file(&format!("/d{d}"), 30_000 + 9_000 * d, d))
        .collect();
    let mut reads = Vec::new();
    for &f in &docs {
        let fd = k.open_file(pid, f);
        reads.push((f, k.mapped_read(pid, fd, true).unwrap().0));
    }
    let unread = k.state_hash();
    assert_eq!(k.snapshot().state_hash(), unread);
    assert!(reads
        .iter()
        .all(|(_, a)| a.slices().all(|s| !s.is_produced())));
    for (f, agg) in &reads {
        assert_eq!(agg.to_vec(), k.store.read(*f, 0, u64::MAX).unwrap());
    }
    assert!(reads
        .iter()
        .all(|(_, a)| a.slices().all(|s| s.is_produced())));
    assert_eq!(k.state_hash(), unread);
    assert_eq!(k.snapshot().state_hash(), unread);
}
