#![warn(missing_docs)]
//! Interprocess communication: pipes (paper §3.2, §4.4).
//!
//! "If the processes on both ends of a pipe or UNIX domain socket-pair
//! use the IO-Lite API, then the data transfer proceeds copy-free by
//! passing the associated IO-Lite buffers by reference."
//!
//! [`Pipe`] implements both worlds over real data (a socket pair is two
//! of them):
//!
//! * [`PipeMode::Copy`] — conventional BSD: the writer copies bytes into
//!   a bounded kernel buffer, the reader copies them out again (two
//!   copies per byte), and a large transfer degenerates into many
//!   fill/drain rounds with context switches — the CGI bottleneck of
//!   Figs. 5/6.
//! * [`PipeMode::ZeroCopy`] — IO-Lite: aggregates queue by reference;
//!   no byte is touched, and recycled buffers make the steady state
//!   approach shared-memory cost (the `permute` result of §5.8).
//!
//! The crate counts nothing: a call returns what it moved, and the
//! kernel bills a copy-mode pipe's copy-in and copy-out from its mode —
//! every byte a copy-mode write accepts or a read returns is one copy.

use std::collections::VecDeque;

use iolite_buf::{Acl, Aggregate, BufferPool, PoolId};

/// Buffering behaviour of a pipe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PipeMode {
    /// Conventional copy-in/copy-out through a kernel buffer.
    Copy,
    /// IO-Lite pass-by-reference.
    ZeroCopy,
}

/// A bounded, unidirectional byte channel between two domains.
///
/// # Examples
///
/// ```
/// use iolite_buf::{Acl, Aggregate, BufferPool, PoolId};
/// use iolite_ipc::{Pipe, PipeMode};
///
/// let pool = BufferPool::new(PoolId(1), Acl::kernel_only(), 4096);
/// let mut pipe = Pipe::new(PipeMode::ZeroCopy, 64 * 1024);
/// let msg = Aggregate::from_bytes(&pool, b"hello");
/// assert_eq!(pipe.write(&msg), 5);
/// let got = pipe.read(100).unwrap();
/// assert_eq!(got.to_vec(), b"hello");
/// ```
#[derive(Debug)]
pub struct Pipe {
    mode: PipeMode,
    capacity: u64,
    queue: VecDeque<Aggregate>,
    buffered: u64,
    closed: bool,
    /// The kernel-buffer backing for copy mode, persistent across
    /// writes: drained copies return their chunks to this pool's free
    /// list, so the steady-state hot pipe path (the Fig. 5/6 CGI
    /// experiment) recycles chunks instead of allocating a fresh pool
    /// per `write`. `None` for zero-copy pipes, which never copy.
    scratch: Option<BufferPool>,
}

impl Pipe {
    /// Creates a pipe with the given mode and kernel-buffer capacity.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(mode: PipeMode, capacity: u64) -> Self {
        assert!(capacity > 0);
        Pipe {
            mode,
            capacity,
            queue: VecDeque::new(),
            buffered: 0,
            closed: false,
            // A kernel-side pool holding anonymous copies, allocated
            // only when the mode can copy. Its id must still be unique:
            // chunk ids and generations are per-pool counters, and the
            // checksum cache keys on ⟨pool, buffer, generation⟩ — two
            // pools sharing one id would alias each other's slice
            // identities and could serve a stale checksum on the wire.
            scratch: (mode == PipeMode::Copy)
                .then(|| BufferPool::new(next_scratch_pool_id(), Acl::kernel_only(), 64 * 1024)),
        }
    }

    /// Creates a pipe whose copy-mode scratch pool uses a caller-chosen
    /// id instead of the process-global descending counter.
    ///
    /// The pure kernel core uses this: scratch ids allocated from the
    /// global atomic would differ between a live run and a journal
    /// replay, breaking deterministic state digests. The caller promises
    /// `scratch_id` stays in the descending kernel band (above
    /// `u32::MAX / 2`) so it can never alias kernel-assigned pool ids.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero or `scratch_id` is outside the
    /// reserved band.
    pub fn with_scratch_id(mode: PipeMode, capacity: u64, scratch_id: PoolId) -> Self {
        assert!(capacity > 0);
        assert!(
            scratch_id.0 > u32::MAX / 2,
            "scratch pool id must sit in the reserved kernel band"
        );
        Pipe {
            mode,
            capacity,
            queue: VecDeque::new(),
            buffered: 0,
            closed: false,
            scratch: (mode == PipeMode::Copy)
                .then(|| BufferPool::new(scratch_id, Acl::kernel_only(), 64 * 1024)),
        }
    }

    /// Deep-forks the pipe for a kernel-state snapshot: the scratch pool
    /// is forked and queued aggregates are rebound through `forker`.
    pub fn fork(&self, forker: &mut iolite_buf::PoolForker) -> Pipe {
        let scratch = self.scratch.as_ref().map(|p| p.fork(forker));
        Pipe {
            mode: self.mode,
            capacity: self.capacity,
            queue: self
                .queue
                .iter()
                .map(|a| forker.fork_aggregate(a))
                .collect(),
            buffered: self.buffered,
            closed: self.closed,
            scratch,
        }
    }

    /// Folds the pipe's state into a stable digest.
    pub fn digest(&self, h: &mut iolite_buf::Fnv64) {
        h.write_bool(matches!(self.mode, PipeMode::ZeroCopy));
        h.write_u64(self.capacity);
        h.write_u64(self.buffered);
        h.write_bool(self.closed);
        h.write_u64(self.queue.len() as u64);
        for a in &self.queue {
            iolite_buf::digest_aggregate(a, h);
        }
    }

    /// The pipe's mode.
    pub fn mode(&self) -> PipeMode {
        self.mode
    }

    /// Bytes currently buffered in the pipe.
    pub fn buffered(&self) -> u64 {
        self.buffered
    }

    /// Remaining capacity.
    pub fn space(&self) -> u64 {
        self.capacity - self.buffered
    }

    /// Whether the write end has been closed.
    pub fn is_closed(&self) -> bool {
        self.closed
    }

    /// Closes the write end; readers drain what remains then see EOF.
    pub fn close(&mut self) {
        self.closed = true;
    }

    /// Writes as much of `data` as fits, returning the bytes accepted.
    ///
    /// Zero-copy mode enqueues a sub-aggregate by reference; copy mode
    /// physically duplicates the accepted bytes (the kernel-buffer
    /// copy-in). A short write means the pipe is full: the producer must
    /// block until a reader drains it (one fill/drain round).
    ///
    /// # Panics
    ///
    /// Panics if the pipe is closed.
    pub fn write(&mut self, data: &Aggregate) -> u64 {
        assert!(!self.closed, "write to closed pipe");
        let take = data.len().min(self.space());
        if take == 0 {
            return 0;
        }
        let part = data.range(0, take).expect("in range");
        let queued = match self.mode {
            PipeMode::ZeroCopy => part,
            PipeMode::Copy => {
                // Copy-in: the kernel buffer holds its own bytes. Each
                // byte is copied exactly once, straight into recycled
                // scratch chunks — the conventional path pays one
                // copy-in, not a materialize-then-copy double, and no
                // allocation in the steady state.
                part.pack(self.scratch.as_ref().expect("copy mode has scratch"))
            }
        };
        self.queue.push_back(queued);
        self.buffered += take;
        take
    }

    /// Reads up to `max` bytes.
    ///
    /// Returns `None` when the pipe is empty (EAGAIN, or EOF if closed).
    /// In copy mode the returned bytes are the copy-out the caller
    /// bills; zero-copy hands references through.
    pub fn read(&mut self, max: u64) -> Option<Aggregate> {
        if max == 0 || self.queue.is_empty() {
            return None;
        }
        let mut out = Aggregate::empty();
        while out.len() < max {
            let Some(front) = self.queue.front_mut() else {
                break;
            };
            let want = max - out.len();
            if front.len() <= want {
                out.append(front);
                self.queue.pop_front();
            } else {
                let head = front.range(0, want).expect("in range");
                front.advance(want);
                out.append(&head);
            }
        }
        self.buffered -= out.len();
        Some(out)
    }
}

/// Allocates a unique id for a pipe's kernel-side scratch pool. Ids
/// descend from just below the top of the id space (the topmost 256
/// stay reserved) while the kernel assigns process/user pool ids
/// ascending from 1, so the bands never meet.
fn next_scratch_pool_id() -> PoolId {
    use std::sync::atomic::{AtomicU32, Ordering};
    static NEXT: AtomicU32 = AtomicU32::new(u32::MAX - 256);
    let id = NEXT.fetch_sub(1, Ordering::Relaxed);
    // Fail loudly long before wrap-around could walk the descending
    // band into kernel-assigned ids and alias pool identities.
    assert!(id > u32::MAX / 2, "scratch pool id space exhausted");
    PoolId(id)
}

#[cfg(test)]
mod tests {
    use super::*;
    use iolite_buf::{Acl, BufferPool, PoolId};

    fn pool() -> BufferPool {
        BufferPool::new(PoolId(1), Acl::kernel_only(), 64 * 1024)
    }

    fn agg(data: &[u8]) -> Aggregate {
        Aggregate::from_bytes(&pool(), data)
    }

    #[test]
    fn zero_copy_roundtrip_no_copies() {
        let mut p = Pipe::new(PipeMode::ZeroCopy, 1024);
        let msg = agg(b"payload");
        assert_eq!(p.write(&msg), 7);
        let got = p.read(100).unwrap();
        assert_eq!(got.to_vec(), b"payload");
        // The reader's aggregate references the writer's buffer.
        assert!(got.slice_at(0).same_buffer(msg.slice_at(0)));
    }

    #[test]
    fn copy_mode_copies_twice() {
        let mut p = Pipe::new(PipeMode::Copy, 1024);
        let msg = agg(b"payload");
        // Copy-in + copy-out: the kernel bills one copy per byte each
        // call moves.
        assert_eq!(p.write(&msg), 7);
        let got = p.read(100).unwrap();
        assert_eq!(got.to_vec(), b"payload");
        assert!(!got.slice_at(0).same_buffer(msg.slice_at(0)));
    }

    /// Regression: copy mode used to allocate a brand-new `BufferPool`
    /// on every `write` — allocation churn on the hot pipe path the
    /// Fig. 5/6 CGI experiment measures. The persistent scratch pool
    /// must recycle its chunks in the steady state.
    #[test]
    fn copy_mode_scratch_pool_recycles_chunks() {
        let msg = agg(&[7u8; 32 * 1024]);
        let mut p = Pipe::new(PipeMode::Copy, 64 * 1024);
        for _ in 0..100 {
            assert_eq!(p.write(&msg), 32 * 1024);
            let got = p.read(u64::MAX).unwrap();
            assert_eq!(got.len(), 32 * 1024);
        }
        let scratch = p.scratch.as_ref().expect("copy mode has scratch");
        let st = scratch.stats();
        assert!(
            st.chunks_created <= 3,
            "steady state must not allocate fresh chunks: {}",
            st.chunks_created
        );
        // Two 32KB copies pack into each 64KB chunk, so every other
        // write drains-and-recycles one chunk.
        assert!(
            st.chunks_recycled >= 45,
            "drained copies must recycle: {}",
            st.chunks_recycled
        );
        assert!(scratch.resident_bytes() <= 3 * 64 * 1024);
    }

    /// Regression: two pipes' scratch pools must not alias. Chunk ids
    /// and generations are per-pool counters, so same-shaped first
    /// copies land on identical per-pool coordinates — only the pool id
    /// keeps their checksum-cache identities distinct.
    #[test]
    fn scratch_pools_have_distinct_identities() {
        let mut p1 = Pipe::new(PipeMode::Copy, 1024);
        let mut p2 = Pipe::new(PipeMode::Copy, 1024);
        p1.write(&agg(b"first pipe"));
        p2.write(&agg(b"other data"));
        let a = p1.read(100).unwrap();
        let b = p2.read(100).unwrap();
        assert_eq!(a.slice_at(0).id(), b.slice_at(0).id());
        assert_eq!(a.slice_at(0).generation(), b.slice_at(0).generation());
        assert_ne!(a.slice_at(0).pool(), b.slice_at(0).pool());
        // Scratch ids stay clear of the reserved top of the id space.
        assert!(a.slice_at(0).pool().0 <= u32::MAX - 256);
        assert!(b.slice_at(0).pool().0 <= u32::MAX - 256);
        // Zero-copy pipes never allocate a scratch pool at all.
        assert!(Pipe::new(PipeMode::ZeroCopy, 1024).scratch.is_none());
    }

    #[test]
    fn capacity_forces_short_writes() {
        let mut p = Pipe::new(PipeMode::ZeroCopy, 10);
        let msg = agg(&[1u8; 25]);
        assert_eq!(p.write(&msg), 10, "a short write: the pipe is full");
        assert_eq!(p.space(), 0);
        // Drain and continue: the fill/drain round structure.
        let got = p.read(10).unwrap();
        assert_eq!(got.len(), 10);
        let rest = msg.range(10, 15).unwrap();
        assert_eq!(p.write(&rest), 10);
    }

    #[test]
    fn partial_reads_preserve_order() {
        let mut p = Pipe::new(PipeMode::ZeroCopy, 1024);
        p.write(&agg(b"abcdef"));
        p.write(&agg(b"ghij"));
        let first = p.read(4).unwrap();
        assert_eq!(first.to_vec(), b"abcd");
        let second = p.read(100).unwrap();
        assert_eq!(second.to_vec(), b"efghij");
        assert!(p.read(10).is_none());
    }

    #[test]
    fn read_spans_queued_messages() {
        let mut p = Pipe::new(PipeMode::Copy, 1024);
        p.write(&agg(b"one"));
        p.write(&agg(b"two"));
        let got = p.read(6).unwrap();
        assert_eq!(got.to_vec(), b"onetwo");
        assert_eq!(p.buffered(), 0);
    }

    #[test]
    fn close_semantics() {
        let mut p = Pipe::new(PipeMode::ZeroCopy, 1024);
        p.write(&agg(b"last"));
        p.close();
        assert!(p.is_closed());
        // Remaining data still drains after close.
        assert_eq!(p.read(10).unwrap().to_vec(), b"last");
        assert!(p.read(10).is_none());
    }

    #[test]
    #[should_panic(expected = "closed pipe")]
    fn write_after_close_panics() {
        let mut p = Pipe::new(PipeMode::Copy, 16);
        p.close();
        p.write(&agg(b"x"));
    }

    #[test]
    fn short_writes_track_rounds() {
        let mut p = Pipe::new(PipeMode::Copy, 8);
        let msg = agg(&[0u8; 64]);
        let mut offset = 0u64;
        let mut rounds = 0;
        while offset < 64 {
            let part = msg.range(offset, 64 - offset).unwrap();
            let n = p.write(&part);
            assert_eq!(n, 8, "every write fills the pipe");
            offset += n;
            if offset < 64 {
                p.read(8).unwrap();
                rounds += 1;
            }
        }
        assert_eq!(rounds, 7, "64 bytes through an 8-byte pipe");
    }
}
