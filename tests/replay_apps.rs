//! Journaled replay of the *non-HTTP* kernel surface.
//!
//! The replay suites under `crates/http/tests` and the storms drive the
//! event loop, which calls a narrow slice of the shell (`open`,
//! `iol_pread`, `iol_write_fd`, `iol_poll`, the socket and cache
//! calls). This suite journals everything else an application touches
//! — the §5.8 programs over pipes, a shell-style `a | b` plumbed with
//! `dup2` onto the stdio triple, the POSIX veneer, `lseek`, mapped reads, and
//! a CGI request over the ACL pipe — and checks that folding the
//! journal through `iolite_core::replay` from the same initial state
//! reproduces the live run's `state_hash` and `Metrics`. A shell
//! method that journaled the wrong `Command` (or wrong arguments) for
//! its `op_*` would diverge here.

use iolite::apps::{run_cat_grep, run_permute_wc, run_wc, ApiMode, AppCosts, CompilePipeline};
use iolite::buf::{Acl, Aggregate};
use iolite::core::{
    replay, short_ok, CostModel, Fd, FdObject, IolError, Kernel, KernelState, Whence,
};
use iolite::fs::Policy;
use iolite::http::{CgiProcess, ServerKind};
use iolite::ipc::PipeMode;
use iolite::net::{DEFAULT_MSS, DEFAULT_TSS};

/// Replays `k`'s journal from a fresh initial state and checks the
/// fixed point.
fn assert_replays(k: &mut Kernel, cost: CostModel, policy: Policy) {
    let journal = k.take_journal().expect("journal was recording");
    assert!(!journal.is_empty());
    let (replayed, metrics) = replay(KernelState::new(cost, policy), &journal);
    assert_eq!(
        replayed.state_hash(),
        k.state_hash(),
        "state diverged on replay"
    );
    assert_eq!(metrics, k.metrics, "metrics diverged on replay");
}

#[test]
fn apps_pipelines_replay_bit_identically() {
    let cost = CostModel::pentium_ii_333();
    let mut k = Kernel::new(cost);
    k.start_journal();
    let costs = AppCosts::calibrated();

    // wc over a file, both APIs (posix_read_fd / iol_read_fd).
    let wc = k.spawn("wc");
    let big = k.create_synthetic_file("/big.txt", 300_000, 5);
    let (posix_counts, _) = run_wc(&mut k, wc, big, ApiMode::Posix, &costs);
    k.reset_clock();
    let (iol_counts, _) = run_wc(&mut k, wc, big, ApiMode::IoLite, &costs);
    assert_eq!(posix_counts, iol_counts);

    // cat | grep over a copy-mode pipe, permute | wc over a zero-copy
    // one: short writes, WouldBlock reads and context switches included.
    let cat = k.spawn("cat");
    let grep = k.spawn("grep");
    let prose = k.create_file(
        "/prose.txt",
        &b"plain line\na line naming zwaenepoel\n".repeat(4000),
    );
    let (found, _) = run_cat_grep(
        &mut k,
        cat,
        grep,
        prose,
        b"zwaenepoel",
        ApiMode::Posix,
        &costs,
    );
    assert_eq!(found.matches, 4000);
    // The same pipeline through the IO-Lite API over a zero-copy pipe:
    // the 36-byte line pairs straddle every 64 KB buffer boundary, and
    // the contiguity copy grep makes of each split line must reach
    // `Metrics` through the journal like every other charge.
    let copied = k.metrics.bytes_copied;
    let (found_iol, _) = run_cat_grep(
        &mut k,
        cat,
        grep,
        prose,
        b"zwaenepoel",
        ApiMode::IoLite,
        &costs,
    );
    assert_eq!(found_iol.matches, 4000);
    assert!(k.metrics.bytes_copied > copied, "no line was split");
    let permute = k.spawn("permute");
    let (streamed, _) = run_permute_wc(&mut k, permute, wc, 6, ApiMode::IoLite, &costs);
    assert!(streamed.bytes > 0);

    // The gcc chain: four processes, three pipes per compile.
    let gcc = CompilePipeline::new(&mut k);
    let src = k.create_synthetic_file("/src.c", 40_000, 3);
    let (obj_posix, _) = gcc.compile(&mut k, src, ApiMode::Posix, &costs);
    let (obj_iol, _) = gcc.compile(&mut k, src, ApiMode::IoLite, &costs);
    assert_eq!(obj_posix, obj_iol);

    assert_replays(&mut k, cost, Policy::Lru);
}

#[test]
fn shell_plumbing_and_posix_veneer_replay_bit_identically() {
    let cost = CostModel::pentium_ii_333();
    let mut k = Kernel::new(cost);
    k.start_journal();
    let a = k.spawn("producer");
    let b = k.spawn("consumer");
    let pool = k.process(a).pool().clone();

    // `a | b`, shell-style: the pipe ends are dup2'd onto a's stdout
    // and b's stdin, then the original numbers are closed.
    let (w, r) = k.pipe_between(a, b, PipeMode::ZeroCopy);
    k.dup2_fd(a, w, Fd::STDOUT).unwrap();
    k.dup2_fd(b, r, Fd::STDIN).unwrap();
    k.close_fd(a, w).unwrap();
    k.close_fd(b, r).unwrap();
    let line = Aggregate::from_bytes(&pool, b"through the stdio triple\n");
    k.iol_write_fd(a, Fd::STDOUT, &line).unwrap();
    let (got, _) = k.iol_read_fd(b, Fd::STDIN, 1 << 16).unwrap();
    assert_eq!(got.to_vec(), line.to_vec());
    // 100KB into the 64KB pipe: ShortIo, then WouldBlock — rejected
    // attempts are journaled too (they trap, and replay re-steps them).
    let flood = Aggregate::from_bytes(&pool, &[7u8; 100 * 1024]);
    assert_eq!(
        short_ok(k.iol_write_fd(a, Fd::STDOUT, &flood)),
        Ok(64 * 1024)
    );
    assert_eq!(
        k.iol_write_fd(a, Fd::STDOUT, &flood),
        Err(IolError::WouldBlock)
    );
    let ev = k.iol_poll(b, &[Fd::STDIN, Fd(99)]);
    assert!(ev[0].readable && ev[1].invalid);
    k.iol_read_fd(b, Fd::STDIN, u64::MAX).unwrap();

    // The console side of the triple: b still owns its stdout/stderr.
    let out = Aggregate::from_bytes(k.process(b).pool(), b"result\n");
    k.iol_write_fd(b, Fd::STDOUT, &out).unwrap();
    k.iol_write_fd(b, Fd::STDERR, &out).unwrap();
    assert_eq!(k.read_stdout(b, 100).unwrap().0.to_vec(), b"result\n");
    assert_eq!(k.read_stderr(b, 100).unwrap().0.to_vec(), b"result\n");
    assert!(matches!(k.read_stdout(b, 100), Err(IolError::WouldBlock)));
    let c = k.spawn("reader");
    k.feed_stdin(c, &line).unwrap();
    assert_eq!(
        k.iol_read_fd(c, Fd::STDIN, 100).unwrap().0.len(),
        line.len()
    );

    // Descriptor plumbing: pipe(2) pair, fork-style inheritance,
    // exact-number installs, dup, close, and the failures.
    let (pr, pw) = k.pipe_fds(c, PipeMode::Copy);
    let FdObject::PipeWrite(pipe) = k.fd_object(c, pw).unwrap() else {
        panic!("write end resolves to a pipe");
    };
    let inherited = k.install_fd(a, FdObject::PipeWrite(pipe));
    k.install_fd_at(a, Fd(9), FdObject::PipeWrite(pipe))
        .unwrap();
    k.iol_write_fd(a, inherited, &line).unwrap();
    let dup = k.dup_fd(c, pr).unwrap();
    assert_eq!(k.iol_read_fd(c, dup, 100).unwrap().0.len(), line.len());
    assert!(k.dup_fd(c, Fd(77)).is_err());
    assert!(k.close_fd(c, Fd(77)).is_err());
    assert!(k.dup2_fd(c, Fd(77), Fd(5)).is_err());

    // Files: path open (hit and ENOENT), the copying veneer, seeks,
    // positional I/O, mapped reads, a second pool, an ACL'd pipe.
    k.create_file("/notes", b"0123456789abcdef");
    let (fd, _) = k.open(c, "/notes").unwrap();
    assert_eq!(k.open(c, "/missing"), Err(IolError::NotFound));
    let (again, _) = k.open(c, "/notes").unwrap();
    assert_eq!(k.fd_file(c, again), k.fd_file(c, fd));
    k.close_fd(c, again).unwrap();
    assert_eq!(k.posix_read_fd(c, fd, 4).unwrap().0, b"0123");
    assert_eq!(k.lseek(c, fd, -6, Whence::End).unwrap().0, 10);
    k.posix_write_fd(c, fd, b"ABCDEF").unwrap();
    assert!(k.lseek(c, fd, -1, Whence::Set).is_err());
    assert!(k.lseek(c, pr, 0, Whence::Set).is_err());
    let patch = Aggregate::from_bytes(k.process(c).pool(), b"xy");
    k.iol_pwrite(c, fd, 2, &patch).unwrap();
    assert_eq!(
        k.iol_pread(c, fd, 0, 100).unwrap().0.to_vec(),
        b"01xy456789ABCDEF"
    );
    let (mapped, _) = k.mapped_read(c, fd, false).unwrap();
    assert_eq!(mapped.to_vec(), b"01xy456789ABCDEF");
    assert!(k.mapped_read(c, pr, false).is_err());
    let acl = Acl::with_domain(c.domain());
    let private = k.create_pool(acl.clone());
    let secret = Aggregate::from_bytes(&private, b"for c only");
    let (sw, sr) = k.pipe_between_with_acl(c, c, PipeMode::ZeroCopy, acl);
    k.iol_write_fd(c, sw, &secret).unwrap();
    let read_end = k.fd_object(c, sr).unwrap();
    let stolen = k.install_fd(a, read_end);
    assert!(k.iol_read_fd(a, stolen, 100).is_err());
    assert_eq!(k.iol_read_fd(c, sr, 100).unwrap().0.to_vec(), b"for c only");
    k.context_switch(1);
    k.mapped_read(c, fd, true).unwrap();
    k.mapped_read(c, fd, false).unwrap();
    k.close_fd(c, fd).unwrap();

    assert_replays(&mut k, cost, Policy::Lru);
}

#[test]
fn cgi_request_replays_bit_identically() {
    let cost = CostModel::pentium_ii_333();
    for (kind, mode) in [
        (ServerKind::FlashLite, PipeMode::ZeroCopy),
        (ServerKind::Flash, PipeMode::Copy),
    ] {
        let mut k = Kernel::with_policy(cost, Policy::Gds);
        k.start_journal();
        let server = k.spawn("server");
        let sock = k.socket_create(server, kind.buffer_mode(), DEFAULT_MSS, DEFAULT_TSS);
        let mut cgi = CgiProcess::new(&mut k, server, 150_000, mode);
        // Twice: the second request rides warm mappings and, on the
        // zero-copy path, the checksum cache.
        let cold = cgi.serve(&mut k, kind, sock, server).unwrap();
        let warm = cgi.serve(&mut k, kind, sock, server).unwrap();
        assert_eq!(cold.response_bytes, warm.response_bytes);
        assert!(warm.cpu <= cold.cpu);
        // A sibling CGI is refused by the pipe's ACL — before dequeuing
        // (ACLs gate zero-copy transfers; copy pipes hand out copies).
        if mode == PipeMode::ZeroCopy {
            let sibling = k.spawn("sibling-cgi");
            let FdObject::PipeRead(pipe) = k.fd_object(server, cgi.server_read_fd()).unwrap()
            else {
                panic!("server end resolves to a pipe");
            };
            let stolen = k.install_fd(sibling, FdObject::PipeRead(pipe));
            short_ok(k.iol_write_fd(cgi.pid, cgi.write_fd(), cgi.document())).unwrap();
            assert!(matches!(
                k.iol_read_fd(sibling, stolen, 100),
                Err(IolError::PermissionDenied { .. })
            ));
        }
        assert_replays(&mut k, cost, Policy::Gds);
    }
}

/// Known hole, pinned (ROADMAP item 1): a copy-mode pipe digests its
/// queued bytes by scratch-buffer identity, and whether a scratch chunk
/// is recycled depends on whether the *live* reader still holds the
/// previous read — replay drops every read result at once. A run that
/// ends with bytes queued in a copy-mode pipe behind a still-held read
/// therefore replays to a different `state_hash` (the suites above
/// drain their copy pipes). Un-ignore when buffer lifetime stops
/// depending on who holds an `Arc`. The cache pool is no different: it
/// recycles drained chunks too (`tests/semantics.rs::
/// cache_pool_recycles_drained_chunks`).
#[test]
#[ignore = "known replay hole: copy-pipe scratch recycling depends on caller-held reads"]
fn copy_pipe_scratch_recycling_diverges_on_replay() {
    let cost = CostModel::pentium_ii_333();
    let mut k = Kernel::new(cost);
    k.start_journal();
    let a = k.spawn("a");
    let b = k.spawn("b");
    let (w, r) = k.pipe_between(a, b, PipeMode::Copy);
    let chunk = Aggregate::from_bytes(k.process(a).pool(), &[1u8; 64 * 1024]);
    k.iol_write_fd(a, w, &chunk).unwrap();
    let _held = k.iol_read_fd(b, r, u64::MAX).unwrap();
    k.iol_write_fd(a, w, &chunk).unwrap();
    assert_replays(&mut k, cost, Policy::Lru);
}
