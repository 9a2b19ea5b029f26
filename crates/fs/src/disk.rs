//! Simulated disk: file contents and access timing.
//!
//! Contents are *real bytes* — the end-to-end tests verify byte equality
//! through the whole server path — but large files are generated
//! deterministically on demand (`FileContent::Synthetic`) so trace data
//! sets of hundreds of megabytes cost no host memory until read; a PUT
//! body stays in the IO-Lite buffers it arrived in (`FileContent::Buffers`).
//! "Until read" holds down to the buffer: a cache miss on a synthetic
//! file seals its buffers lazily with [`stream_synthetic`] as their
//! producer, so bytes no one reads (a copying server's, billed by
//! length) are never generated.
//!
//! Reads land where the caller says: [`FileStore::stream`] hands a file
//! extent, run by run, to a caller-owned sink (the file cache appends
//! each run to the IO-Lite buffer it is filling, §3.5), and one
//! generator, [`stream_synthetic`], produces every synthetic byte — four
//! independent SplitMix64 lanes into a batch that stays in L1 — for
//! reads, lazily sealed buffers and materialization on first write
//! alike. [`FileStore::read`] is the same call into a fresh `Vec`.

use std::collections::BTreeMap;

use iolite_buf::{Aggregate, PoolForker};
use iolite_sim::SimTime;

/// A file identifier (inode-number analog).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FileId(pub u64);

/// How a file's bytes are stored.
#[derive(Debug, Clone)]
pub enum FileContent {
    /// Deterministic pseudo-random bytes parameterized by a seed.
    ///
    /// Byte `i` of the file is a pure function of `(seed, i)`, so any
    /// extent can be generated independently.
    Synthetic {
        /// File length in bytes.
        len: u64,
        /// Content seed.
        seed: u64,
    },
    /// Explicitly stored bytes (files written by tests/applications).
    Explicit(Vec<u8>),
    /// A PUT body kept by reference in the buffers it arrived in, shared
    /// with its cache entry (§3.5); boxed to keep the enum small.
    Buffers(Box<Aggregate>),
}

impl FileContent {
    /// The file's length.
    fn len(&self) -> u64 {
        match self {
            FileContent::Synthetic { len, .. } => *len,
            FileContent::Explicit(v) => v.len() as u64,
            FileContent::Buffers(body) => body.len(),
        }
    }
}

/// Bytes `8b..8b + 8` of a synthetic file: SplitMix64 of `seed ^ b·PHI`, little-endian.
const PHI: u64 = 0x9E37_79B9_7F4A_7C15;

/// Bytes generated per [`stream_synthetic`] batch: a stack buffer that stays in L1.
const BATCH: usize = 1024;

/// Streams bytes `offset..offset + len` of the synthetic file `seed`
/// into `sink`, a batch of whole 32-byte groups at a time — the one
/// generator every read and materialization goes through. A group is
/// four independent lanes whose Weyl terms `b·PHI` are `k·PHI` apart,
/// each stepping `4·PHI`, so their multiplies overlap. Two lanes share
/// a `u128`, which keeps the multiplies scalar: vectorized, baseline
/// x86-64 emulates each 64-bit multiply with three 32-bit ones. It is
/// the [`iolite_buf::Producer`] of a synthetic file's lazily sealed
/// cache buffers ([`FileStore::synthetic_seed`]).
pub fn stream_synthetic(seed: u64, offset: u64, len: u64, sink: &mut dyn FnMut(&[u8])) {
    let block = |weyl: u64| {
        let mut z = seed ^ weyl;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) as u128
    };
    let pair = |weyl: u64| (block(weyl) | block(weyl.wrapping_add(PHI)) << 64).to_le_bytes();
    let mut batch = [0u8; BATCH];
    let mut weyl = (offset / 8).wrapping_mul(PHI);
    let (mut skip, mut left) = ((offset % 8) as usize, len);
    while left > 0 {
        let take = left.min((BATCH - skip) as u64) as usize;
        let groups = &mut batch[..(skip + take).next_multiple_of(32)];
        for group in groups.chunks_exact_mut(32) {
            group[..16].copy_from_slice(&pair(weyl));
            group[16..].copy_from_slice(&pair(weyl.wrapping_add(PHI.wrapping_mul(2))));
            weyl = weyl.wrapping_add(PHI.wrapping_mul(4));
        }
        sink(&groups[skip..skip + take]);
        (skip, left) = (0, left - take as u64);
    }
}

/// The server's file store: names, sizes, contents.
///
/// `Clone` shares kept PUT bodies' immutable buffers; kernel-state
/// snapshots take [`FileStore::fork`] instead.
#[derive(Debug, Default, Clone)]
pub struct FileStore {
    files: BTreeMap<FileId, FileContent>,
    names: BTreeMap<String, FileId>,
    next_id: u64,
}

impl FileStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        FileStore::default()
    }

    /// Creates a file with the given content, returning its id.
    pub fn create(&mut self, name: impl Into<String>, content: FileContent) -> FileId {
        let id = FileId(self.next_id);
        self.next_id += 1;
        self.files.insert(id, content);
        self.names.insert(name.into(), id);
        id
    }

    /// Creates a synthetic file of `len` bytes.
    pub fn create_synthetic(&mut self, name: impl Into<String>, len: u64, seed: u64) -> FileId {
        self.create(name, FileContent::Synthetic { len, seed })
    }

    /// The seed of a synthetic file's content: its bytes are
    /// [`stream_synthetic`]`(seed, ..)`. `None` for any other file.
    pub fn synthetic_seed(&self, id: FileId) -> Option<u64> {
        match self.files.get(&id)? {
            FileContent::Synthetic { seed, .. } => Some(*seed),
            _ => None,
        }
    }

    /// Looks a file up by name.
    pub fn lookup(&self, name: &str) -> Option<FileId> {
        self.names.get(name).copied()
    }

    /// The file's length, or `None` if it does not exist.
    pub fn len(&self, id: FileId) -> Option<u64> {
        self.files.get(&id).map(|c| c.len())
    }

    /// Streams the file's bytes `offset..offset + len`, clamped to the
    /// file end, into `sink` as consecutive runs, and returns how many
    /// bytes that was; `None` for unknown files.
    ///
    /// This is the producer disk reads land through: the file cache
    /// streams into the IO-Lite buffer it is filling (§3.5), so each
    /// byte is written once and no staging copy exists. Explicit content
    /// is one run, a kept body one per buffer, synthetic content one per batch.
    pub fn stream(
        &self,
        id: FileId,
        offset: u64,
        len: u64,
        mut sink: impl FnMut(&[u8]),
    ) -> Option<u64> {
        let content = self.files.get(&id)?;
        let start = offset.min(content.len());
        let n = len.min(content.len() - start);
        match content {
            FileContent::Synthetic { seed, .. } => stream_synthetic(*seed, start, n, &mut sink),
            FileContent::Explicit(v) => sink(&v[start as usize..][..n as usize]),
            FileContent::Buffers(body) => body
                .range(start, n)
                .expect("clamped")
                .chunks()
                .for_each(sink),
        }
        Some(n)
    }

    /// Reads `len` bytes at `offset`, clamped to the file end, into a
    /// fresh vector ([`FileStore::stream`] for callers without a
    /// destination of their own).
    ///
    /// Returns `None` for unknown files.
    pub fn read(&self, id: FileId, offset: u64, len: u64) -> Option<Vec<u8>> {
        let avail = self.len(id)?.saturating_sub(offset);
        let mut out = Vec::with_capacity(len.min(avail) as usize);
        self.stream(id, offset, len, |run| out.extend_from_slice(run));
        Some(out)
    }

    /// Turns a synthetic file or a kept body into explicit bytes (no-op
    /// for explicit files). Returns `false` for unknown files.
    fn materialize(&mut self, id: FileId) -> bool {
        match self.files.get(&id) {
            None => false,
            Some(FileContent::Explicit(_)) => true,
            Some(_) => {
                let v = self.read(id, 0, u64::MAX).expect("file exists");
                self.files.insert(id, FileContent::Explicit(v));
                true
            }
        }
    }

    /// Writes `data` at `offset`, growing the file if needed.
    ///
    /// Synthetic files and kept bodies are materialized on first write
    /// (only small files are written in the experiments). Returns
    /// `false` for unknown files.
    pub fn write(&mut self, id: FileId, offset: u64, data: &[u8]) -> bool {
        if !self.materialize(id) {
            return false;
        }
        let Some(FileContent::Explicit(v)) = self.files.get_mut(&id) else {
            unreachable!()
        };
        let end = offset as usize + data.len();
        if v.len() < end {
            v.resize(end, 0);
        }
        v[offset as usize..end].copy_from_slice(data);
        true
    }

    /// Makes `body` (a PUT body) the file's whole content by reference:
    /// the store keeps the body's buffers, copies no byte, and never
    /// generates a synthetic file's old bytes. Returns `false` for
    /// unknown files.
    pub fn replace(&mut self, id: FileId, body: &Aggregate) -> bool {
        let Some(content) = self.files.get_mut(&id) else {
            return false;
        };
        match content {
            // Empty, a synthetic file stays synthetic: a prefix of it is
            // still the same pure function of `(seed, i)`.
            FileContent::Synthetic { len, .. } if body.is_empty() => *len = 0,
            _ => *content = FileContent::Buffers(Box::new(body.clone())),
        }
        true
    }

    /// Deep-forks the store for a kernel-state snapshot: kept bodies are
    /// rebound through `forker` after the pools they view, so a held
    /// snapshot pins no live buffer (a `Clone` would, stalling recycling).
    pub fn fork(&self, forker: &mut PoolForker) -> FileStore {
        let mut fork = self.clone();
        for content in fork.files.values_mut() {
            if let FileContent::Buffers(body) = content {
                **body = forker.fork_aggregate(body);
            }
        }
        fork
    }

    /// Folds the store's state into a stable digest. Content digests use
    /// the parameters (synthetic) or the bytes (explicit and kept alike),
    /// so a materialized-then-rewritten file digests by its contents.
    pub fn digest(&self, h: &mut iolite_buf::Fnv64) {
        h.write_u64(self.next_id);
        h.write_u64(self.files.len() as u64);
        for (id, content) in &self.files {
            h.write_u64(id.0);
            if let FileContent::Synthetic { len, seed } = content {
                h.write_bytes(&[0]);
                h.write_u64(*len);
                h.write_u64(*seed);
            } else {
                h.write_bytes(&[1]);
                h.write_u64(content.len());
                self.stream(*id, 0, u64::MAX, |run| h.write_bytes(run));
            }
        }
        h.write_u64(self.names.len() as u64);
        for (name, id) in &self.names {
            h.write_str(name);
            h.write_u64(id.0);
        }
    }
}

/// Disk timing: average positioning (seek + rotation) plus sequential
/// transfer, representative of the paper's late-90s SCSI server disk.
#[derive(Debug, Clone, Copy)]
pub struct DiskModel {
    /// Average positioning time per access, in milliseconds.
    pub avg_position_ms: f64,
    /// Sequential transfer rate, MB/s.
    pub transfer_mb_s: f64,
}

impl DiskModel {
    /// Service time for one access of `bytes`.
    pub fn access_time(&self, bytes: u64) -> SimTime {
        SimTime::from_ms(self.avg_position_ms)
            + SimTime::from_secs(bytes as f64 / (self.transfer_mb_s * 1_000_000.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iolite_buf::{Acl, BufferPool, PoolId};

    #[test]
    fn synthetic_reads_are_deterministic() {
        let mut fs = FileStore::new();
        let id = fs.create_synthetic("a", 1000, 42);
        let a = fs.read(id, 0, 1000).unwrap();
        let b = fs.read(id, 0, 1000).unwrap();
        assert_eq!(a, b);
        // An extent read equals the corresponding slice of a full read.
        let mid = fs.read(id, 100, 50).unwrap();
        assert_eq!(mid, &a[100..150]);
    }

    #[test]
    fn different_seeds_differ() {
        let mut fs = FileStore::new();
        let a = fs.create_synthetic("a", 256, 1);
        let b = fs.create_synthetic("b", 256, 2);
        assert_ne!(fs.read(a, 0, 256), fs.read(b, 0, 256));
    }

    #[test]
    fn reads_clamp_to_eof() {
        let mut fs = FileStore::new();
        let id = fs.create("f", FileContent::Explicit(b"hello".to_vec()));
        assert_eq!(fs.read(id, 3, 100).unwrap(), b"lo");
        assert_eq!(fs.read(id, 10, 5).unwrap(), b"");
        assert!(fs.read(FileId(99), 0, 1).is_none());
    }

    #[test]
    fn write_grows_and_patches() {
        let mut fs = FileStore::new();
        let id = fs.create("f", FileContent::Explicit(b"hello".to_vec()));
        assert!(fs.write(id, 3, b"p!"));
        assert_eq!(fs.read(id, 0, 10).unwrap(), b"help!");
        assert!(fs.write(id, 6, b"x"));
        assert_eq!(fs.read(id, 0, 10).unwrap(), b"help!\0x");
    }

    #[test]
    fn synthetic_materializes_on_write() {
        let mut fs = FileStore::new();
        let id = fs.create_synthetic("f", 100, 7);
        let before = fs.read(id, 0, 100).unwrap();
        assert!(fs.write(id, 50, b"ZZZ"));
        let after = fs.read(id, 0, 100).unwrap();
        assert_eq!(&after[..50], &before[..50]);
        assert_eq!(&after[50..53], b"ZZZ");
        assert_eq!(&after[53..], &before[53..]);
    }

    #[test]
    fn replace_installs_the_whole_body() {
        let pool = BufferPool::new(PoolId(1), Acl::kernel_only(), 4);
        let body = Aggregate::from_bytes(&pool, b"new body");
        let (mut fs, mut twin) = (FileStore::new(), FileStore::new());
        fs.create_synthetic("huge", 1 << 40, 7);
        fs.create("old", FileContent::Explicit(b"a longer old body".to_vec()));
        fs.create_synthetic("s", 100, 7);
        for id in [FileId(0), FileId(1)] {
            assert!(fs.replace(id, &body));
            assert_eq!(fs.read(id, 0, u64::MAX).unwrap(), b"new body");
            assert_eq!(fs.read(id, 3, 4).unwrap(), b" bod");
        }
        assert!(fs.replace(FileId(2), &Aggregate::empty()));
        assert!(!fs.replace(FileId(99), &body));
        // Kept bodies (two 4-byte buffers) digest as the same bytes held
        // explicitly; an empty body leaves a synthetic file synthetic.
        twin.create("huge", FileContent::Explicit(b"new body".to_vec()));
        twin.create("old", FileContent::Explicit(b"new body".to_vec()));
        twin.create_synthetic("s", 0, 7);
        let [mut h, mut h_twin] = [iolite_buf::Fnv64::new(), iolite_buf::Fnv64::new()];
        fs.digest(&mut h);
        twin.digest(&mut h_twin);
        assert_eq!(h.finish(), h_twin.finish());
    }

    #[test]
    fn lookup_by_name() {
        let mut fs = FileStore::new();
        let id = fs.create_synthetic("/docs/index.html", 512, 1);
        assert_eq!(fs.lookup("/docs/index.html"), Some(id));
        assert_eq!(fs.lookup("/nope"), None);
        assert_eq!(fs.len(id), Some(512));
    }

    #[test]
    fn disk_model_times() {
        let d = DiskModel {
            avg_position_ms: 10.0,
            transfer_mb_s: 10.0,
        };
        // 1MB at 10MB/s = 100ms, plus 10ms positioning.
        let t = d.access_time(1_000_000);
        assert!((t.as_ms() - 110.0).abs() < 1e-6, "{t}");
    }
}
