//! Simulated disk: file contents and access timing.
//!
//! Contents are *real bytes* — the end-to-end tests verify byte equality
//! through the whole server path — but large files are generated
//! deterministically on demand (`FileContent::Synthetic`) so trace data
//! sets of hundreds of megabytes cost no host memory until read.
//!
//! Reads land where the caller says: [`FileStore::read_into`] writes a
//! file extent straight into a caller-owned destination (the file cache
//! hands it IO-Lite buffers, §3.5), and one generator, `fill_synthetic`,
//! produces every synthetic byte — for reads, for materialization on
//! first write and for zero-extension alike. [`FileStore::read`] is the
//! same call into a fresh `Vec`.

use std::collections::BTreeMap;

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
}

impl FileContent {
    /// The file's length.
    fn len(&self) -> u64 {
        match self {
            FileContent::Synthetic { len, .. } => *len,
            FileContent::Explicit(v) => v.len() as u64,
        }
    }
}

/// The 8 bytes of synthetic block `block`: a SplitMix64 hash of the
/// block index. Cheap and deterministic.
fn synthetic_block(seed: u64, block: u64) -> [u8; 8] {
    let mut z = seed ^ block.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    z.to_le_bytes()
}

/// Writes bytes `offset..offset + dst.len()` of the synthetic file
/// `seed` into `dst` — the one generator every read, materialization
/// and extension goes through. Whole 8-byte blocks are stored with one
/// `copy_from_slice` each; only an unaligned head and tail are partial.
fn fill_synthetic(seed: u64, offset: u64, dst: &mut [u8]) {
    let mut block = offset / 8;
    let skew = (offset % 8) as usize;
    // Unaligned head: the rest of the block `offset` falls inside.
    let (head, body) = dst.split_at_mut(((8 - skew) % 8).min(dst.len()));
    if !head.is_empty() {
        head.copy_from_slice(&synthetic_block(seed, block)[skew..skew + head.len()]);
        block += 1;
    }
    let mut blocks = body.chunks_exact_mut(8);
    for b in &mut blocks {
        b.copy_from_slice(&synthetic_block(seed, block));
        block += 1;
    }
    let tail = blocks.into_remainder();
    tail.copy_from_slice(&synthetic_block(seed, block)[..tail.len()]);
}

/// The server's file store: names, sizes, contents.
///
/// `Clone` is a true deep copy (plain owned data), used by kernel-state
/// snapshots.
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

    /// Looks a file up by name.
    pub fn lookup(&self, name: &str) -> Option<FileId> {
        self.names.get(name).copied()
    }

    /// The file's length, or `None` if it does not exist.
    pub fn len(&self, id: FileId) -> Option<u64> {
        self.files.get(&id).map(|c| c.len())
    }

    /// Reads the file's bytes at `offset` straight into `dst`, clamped to
    /// the file end, and returns how many bytes were written (the
    /// prefix of `dst`; the rest is left untouched).
    ///
    /// This is the primitive disk reads land through: the caller owns
    /// the destination (an IO-Lite buffer being filled, §3.5), so no
    /// staging copy exists. Synthetic content is generated a whole
    /// 8-byte block per store, explicit content is one
    /// `copy_from_slice`. Returns `None` for unknown files.
    pub fn read_into(&self, id: FileId, offset: u64, dst: &mut [u8]) -> Option<usize> {
        let content = self.files.get(&id)?;
        let start = offset.min(content.len());
        let avail = usize::try_from(content.len() - start).unwrap_or(usize::MAX);
        let n = dst.len().min(avail);
        let dst = &mut dst[..n];
        match content {
            FileContent::Synthetic { seed, .. } => fill_synthetic(*seed, start, dst),
            FileContent::Explicit(v) => {
                let start = start as usize;
                dst.copy_from_slice(&v[start..start + n]);
            }
        }
        Some(n)
    }

    /// Reads `len` bytes at `offset`, clamped to the file end, into a
    /// fresh vector ([`FileStore::read_into`] for callers without a
    /// destination of their own).
    ///
    /// Returns `None` for unknown files.
    pub fn read(&self, id: FileId, offset: u64, len: u64) -> Option<Vec<u8>> {
        let avail = self.len(id)?.saturating_sub(offset);
        let mut out = vec![0; len.min(avail) as usize];
        self.read_into(id, offset, &mut out)?;
        Some(out)
    }

    /// Turns a synthetic file into explicit bytes (no-op for explicit
    /// files). Returns `false` for unknown files.
    fn materialize(&mut self, id: FileId) -> bool {
        match self.files.get(&id) {
            None => false,
            Some(FileContent::Explicit(_)) => true,
            Some(FileContent::Synthetic { len, .. }) => {
                let v = self.read(id, 0, *len).expect("file exists");
                self.files.insert(id, FileContent::Explicit(v));
                true
            }
        }
    }

    /// Writes `data` at `offset`, growing the file if needed.
    ///
    /// Synthetic files are materialized on first write (only small files
    /// are written in the experiments). Returns `false` for unknown
    /// files.
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

    /// Truncates the file to `len` bytes, or zero-extends it to `len`.
    ///
    /// Shrinking a synthetic file keeps it synthetic (a prefix of a
    /// synthetic file is the same pure function of `(seed, i)`), so a
    /// PUT that replaces a huge trace file never materializes the old
    /// bytes just to discard them. Returns `false` for unknown files.
    pub fn truncate(&mut self, id: FileId, new_len: u64) -> bool {
        if let Some(FileContent::Synthetic { len, .. }) = self.files.get_mut(&id) {
            if new_len <= *len {
                *len = new_len;
                return true;
            }
        }
        // Zero-extension breaks the synthetic generator contract:
        // materialize the real prefix, then grow.
        if !self.materialize(id) {
            return false;
        }
        let Some(FileContent::Explicit(v)) = self.files.get_mut(&id) else {
            unreachable!()
        };
        v.resize(new_len as usize, 0);
        true
    }

    /// Folds the store's state into a stable digest. Content digests use
    /// the parameters (synthetic) or the bytes (explicit), so a
    /// materialized-then-rewritten file digests by its actual contents.
    pub fn digest(&self, h: &mut iolite_buf::Fnv64) {
        h.write_u64(self.next_id);
        h.write_u64(self.files.len() as u64);
        for (id, content) in &self.files {
            h.write_u64(id.0);
            match content {
                FileContent::Synthetic { len, seed } => {
                    h.write_bytes(&[0]);
                    h.write_u64(*len);
                    h.write_u64(*seed);
                }
                FileContent::Explicit(v) => {
                    h.write_bytes(&[1]);
                    h.write_u64(v.len() as u64);
                    h.write_bytes(v);
                }
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
    fn truncate_shrinks_and_extends() {
        let mut fs = FileStore::new();
        let id = fs.create_synthetic("f", 100, 7);
        let before = fs.read(id, 0, 100).unwrap();
        // Shrinking stays synthetic: no materialization, same prefix.
        assert!(fs.truncate(id, 40));
        assert!(matches!(
            fs.read(id, 0, 100).as_deref(),
            Some(b) if b == &before[..40]
        ));
        assert_eq!(fs.len(id), Some(40));
        // Zero-extension materializes.
        assert!(fs.truncate(id, 50));
        let after = fs.read(id, 0, 50).unwrap();
        assert_eq!(&after[..40], &before[..40]);
        assert_eq!(&after[40..], &[0u8; 10]);
        // Explicit shrink.
        assert!(fs.truncate(id, 3));
        assert_eq!(fs.read(id, 0, 50).unwrap(), &before[..3]);
        assert!(!fs.truncate(FileId(99), 0));
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
