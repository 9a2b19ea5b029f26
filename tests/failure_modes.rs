//! Failure injection: every error path a user of the public API can
//! hit must fail loudly, precisely, and without corrupting state.

use iolite::buf::{Acl, Aggregate, BufError, BufferPool, PoolId};
use iolite::core::{CostModel, Fd, IolError, Kernel, Whence};
use iolite::ipc::{Pipe, PipeMode};

#[test]
fn oversized_allocation_is_rejected_not_truncated() {
    let pool = BufferPool::new(PoolId(1), Acl::kernel_only(), 4096);
    let err = pool.alloc(4097).unwrap_err();
    assert_eq!(
        err,
        BufError::TooLarge {
            requested: 4097,
            max: 4096
        }
    );
    // The pool remains usable.
    assert!(pool.alloc(4096).is_ok());
    assert_eq!(pool.stats().allocs, 1);
}

#[test]
fn aggregate_range_errors_are_precise() {
    let pool = BufferPool::new(PoolId(1), Acl::kernel_only(), 4096);
    let agg = Aggregate::from_bytes(&pool, b"12345");
    match agg.range(3, 3) {
        Err(BufError::OutOfRange {
            requested,
            available,
        }) => {
            assert_eq!(requested, 6);
            assert_eq!(available, 5);
        }
        other => panic!("expected OutOfRange, got {other:?}"),
    }
    // replace past the end fails and leaves the aggregate intact.
    assert!(agg.replace(&pool, 4, 2, b"xx").is_err());
    assert_eq!(agg.to_vec(), b"12345");
}

#[test]
fn acl_denial_leaves_no_mapping_behind() {
    let mut k = Kernel::new(CostModel::pentium_ii_333());
    let owner = k.spawn("owner");
    let intruder = k.spawn("intruder");
    let acl = Acl::with_domain(owner.domain());
    let (w, r) = k.pipe_between_with_acl(owner, owner, PipeMode::ZeroCopy, acl.clone());
    let pool = k.create_pool(acl);
    let secret = Aggregate::from_bytes(&pool, b"top secret");
    let chunk = secret.slice_at(0).id().chunk;
    k.iol_write_fd(owner, w, &secret).unwrap();

    // A read end installed in the intruder's table is refused.
    let object = k.fd_object(owner, r).unwrap();
    let stolen = k.install_fd(intruder, object);
    assert_eq!(
        k.iol_read_fd(intruder, stolen, 100).unwrap_err(),
        IolError::PermissionDenied {
            domain: intruder.domain()
        }
    );
    assert!(
        !k.window.is_mapped(chunk, intruder.domain()),
        "denial must not leak a mapping"
    );
    // The owner still reads fine afterwards.
    let (got, _) = k.iol_read_fd(owner, r, 100).unwrap();
    assert_eq!(got.to_vec(), b"top secret");
}

#[test]
fn unknown_descriptors_and_paths_fail_precisely() {
    let mut k = Kernel::new(CostModel::pentium_ii_333());
    let pid = k.spawn("app");
    // A descriptor that was never opened is EBADF, not garbage data.
    let ghost = Fd(9999);
    assert!(matches!(
        k.iol_read_fd(pid, ghost, 100),
        Err(IolError::NotOpen { .. })
    ));
    assert!(matches!(
        k.posix_read_fd(pid, ghost, 100),
        Err(IolError::NotOpen { .. })
    ));
    assert!(matches!(
        k.lseek(pid, ghost, 0, Whence::Set),
        Err(IolError::NotOpen { .. })
    ));
    assert!(k.dup_fd(pid, ghost).is_err());
    assert!(k.close_fd(pid, ghost).is_err());
    // A missing path is ENOENT at open.
    assert_eq!(k.open(pid, "/no/such/file"), Err(IolError::NotFound));
    // A descriptor opened on a file that was never stored reads empty
    // (the store treats unknown ids as empty objects), not fatally.
    let fd = k.open_file(pid, iolite::fs::FileId(9999));
    let (agg, out) = k.iol_read_fd(pid, fd, 100).unwrap();
    assert!(agg.is_empty());
    assert!(!out.cache_hit);
}

#[test]
fn wrong_kind_descriptors_are_bad_fd_kind() {
    let mut k = Kernel::new(CostModel::pentium_ii_333());
    let pid = k.spawn("app");
    let (r, w) = k.pipe_fds(pid, PipeMode::ZeroCopy);
    let pool = BufferPool::new(PoolId(77), Acl::kernel_only(), 4096);
    let msg = Aggregate::from_bytes(&pool, b"x");
    // Reading a write end / writing a read end.
    assert!(matches!(
        k.iol_read_fd(pid, w, 10),
        Err(IolError::BadFdKind { .. })
    ));
    assert!(matches!(
        k.iol_write_fd(pid, r, &msg),
        Err(IolError::BadFdKind { .. })
    ));
    // Seeking or mapping a pipe (ESPIPE).
    assert!(matches!(
        k.lseek(pid, r, 0, Whence::Set),
        Err(IolError::BadFdKind { .. })
    ));
    assert!(matches!(
        k.mapped_read(pid, r, false),
        Err(IolError::BadFdKind { .. })
    ));
    assert!(k.fd_len(pid, r).is_err());
}

#[test]
fn pipe_misuse_is_contained() {
    // Reading an empty pipe is EAGAIN, not an error.
    let mut p = Pipe::new(PipeMode::ZeroCopy, 64);
    assert!(p.read(10).is_none());
    // Zero-length reads never dequeue.
    let pool = BufferPool::new(PoolId(1), Acl::kernel_only(), 4096);
    p.write(&Aggregate::from_bytes(&pool, b"x"));
    assert!(p.read(0).is_none());
    assert_eq!(p.buffered(), 1);
    // Filling the pipe is a short write; writing to a full one accepts
    // zero bytes.
    let big = Aggregate::from_bytes(&pool, &[0u8; 64]);
    assert_eq!(p.write(&big), 63);
    assert_eq!(p.write(&big), 0);
}

#[test]
#[should_panic(expected = "closed pipe")]
fn writing_a_closed_pipe_panics_like_epipe() {
    let mut p = Pipe::new(PipeMode::Copy, 64);
    p.close();
    let pool = BufferPool::new(PoolId(1), Acl::kernel_only(), 4096);
    p.write(&Aggregate::from_bytes(&pool, b"sigpipe"));
}

#[test]
fn cache_budget_zero_still_serves_reads() {
    // A pathological memory squeeze must degrade, not break.
    let mut k = Kernel::new(CostModel::pentium_ii_333());
    let pid = k.spawn("app");
    let f = k.create_synthetic_file("/f", 50_000, 1);
    let fd = k.open_file(pid, f);
    k.mem_reserve(iolite::vm::MemAccount::SocketCopies, u64::MAX / 2);
    k.rebalance_cache();
    let (a, o1) = k.iol_pread(pid, fd, 0, 50_000).unwrap();
    let (b, o2) = k.iol_pread(pid, fd, 0, 50_000).unwrap();
    // Every read misses (nothing fits), but data stays correct.
    assert!(!o1.cache_hit && !o2.cache_hit);
    assert_eq!(a.to_vec(), b.to_vec());
    assert_eq!(a.len(), 50_000);
}

#[test]
fn empty_file_round_trips_everywhere() {
    let mut k = Kernel::new(CostModel::pentium_ii_333());
    let pid = k.spawn("app");
    let f = k.create_file("/empty", b"");
    let fd = k.open_file(pid, f);
    let (agg, _) = k.iol_read_fd(pid, fd, 100).unwrap();
    assert!(agg.is_empty());
    let (mapped, _) = k.mapped_read(pid, fd, false).unwrap();
    assert!(mapped.is_empty());
    let (bytes, _) = k.posix_read_fd(pid, fd, 100).unwrap();
    assert!(bytes.is_empty());
}
