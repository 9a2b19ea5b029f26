//! Borrowing cursors over aggregates.
//!
//! An [`AggCursor`] walks an [`Aggregate`]'s byte runs without
//! allocating or copying: consumers see `&[u8]` chunks and advance a
//! position. This is the vectored fast path the §3.8 indexing-cost
//! analysis calls for — hot consumers (TCP reassembly, HTTP parsing,
//! pipes, the converted UNIX utilities) iterate runs instead of calling
//! `byte_at` per byte or materializing with `to_vec`.

use crate::aggregate::Aggregate;

/// A zero-alloc forward cursor over an [`Aggregate`]'s bytes.
///
/// Creation at an interior offset is O(log n) via the aggregate's
/// cumulative-offset index; every subsequent step is O(1) per run
/// touched.
///
/// # Examples
///
/// ```
/// use iolite_buf::{Acl, Aggregate, BufferPool, PoolId};
///
/// let pool = BufferPool::new(PoolId(1), Acl::kernel_only(), 4);
/// let agg = Aggregate::from_bytes(&pool, b"status: ok");
/// let mut cur = agg.cursor();
/// assert!(cur.starts_with(b"status:"));
/// assert_eq!(cur.find_byte(b' '), Some(7));
/// cur.advance(8);
/// let mut rest = Vec::new();
/// while let Some(chunk) = cur.next_chunk() {
///     rest.extend_from_slice(chunk);
/// }
/// assert_eq!(rest, b"ok");
/// ```
#[derive(Clone)]
pub struct AggCursor<'a> {
    agg: &'a Aggregate,
    /// Index of the current slice in the aggregate's list.
    idx: usize,
    /// Offset within the current slice; invariant: strictly less than
    /// the slice's length whenever `idx` is in bounds.
    off: usize,
    /// Logical position from the aggregate's start.
    pos: u64,
}

impl<'a> AggCursor<'a> {
    pub(crate) fn new(agg: &'a Aggregate, offset: u64) -> Self {
        if offset >= agg.len() {
            return AggCursor {
                agg,
                idx: agg.num_slices(),
                off: 0,
                pos: agg.len(),
            };
        }
        let (idx, off) = agg.locate(offset);
        AggCursor {
            agg,
            idx,
            off,
            pos: offset,
        }
    }

    /// Logical position from the aggregate's start.
    pub fn position(&self) -> u64 {
        self.pos
    }

    /// Bytes left between the cursor and the end.
    pub fn remaining(&self) -> u64 {
        self.agg.len() - self.pos
    }

    /// The unread part of the current byte run, without consuming it.
    /// `None` at the end.
    pub fn peek_chunk(&self) -> Option<&'a [u8]> {
        let s = self.agg.get_slice(self.idx)?;
        Some(&s.as_bytes()[self.off..])
    }

    /// Returns the unread part of the current run and steps past it.
    pub fn next_chunk(&mut self) -> Option<&'a [u8]> {
        let chunk = self.peek_chunk()?;
        self.idx += 1;
        self.off = 0;
        self.pos += chunk.len() as u64;
        Some(chunk)
    }

    /// Moves forward `n` bytes (clamped to the end).
    pub fn advance(&mut self, n: u64) {
        let n = n.min(self.remaining());
        self.pos += n;
        let mut left = n as usize;
        while left > 0 {
            let slen = self.agg.slice_at(self.idx).len() - self.off;
            if left < slen {
                self.off += left;
                return;
            }
            left -= slen;
            self.idx += 1;
            self.off = 0;
        }
    }

    /// Copies up to `dst.len()` bytes into `dst`, consuming them;
    /// returns the count copied.
    pub fn copy_to(&mut self, dst: &mut [u8]) -> usize {
        let mut written = 0;
        while written < dst.len() {
            let Some(chunk) = self.peek_chunk() else {
                break;
            };
            let n = chunk.len().min(dst.len() - written);
            dst[written..written + n].copy_from_slice(&chunk[..n]);
            written += n;
            self.advance(n as u64);
        }
        written
    }

    /// The logical offset (from the aggregate's start) of the first
    /// `byte` at or after the cursor. Does not consume.
    pub fn find_byte(&self, byte: u8) -> Option<u64> {
        let mut probe = self.clone();
        while let Some(chunk) = probe.peek_chunk() {
            if let Some(i) = chunk.iter().position(|&b| b == byte) {
                return Some(probe.pos + i as u64);
            }
            probe.next_chunk();
        }
        None
    }

    /// Whether the bytes at the cursor begin with `needle`. Does not
    /// consume.
    pub fn starts_with(&self, needle: &[u8]) -> bool {
        if (needle.len() as u64) > self.remaining() {
            return false;
        }
        let mut probe = self.clone();
        let mut rest = needle;
        while !rest.is_empty() {
            let chunk = probe.peek_chunk().expect("length checked");
            let n = chunk.len().min(rest.len());
            if chunk[..n] != rest[..n] {
                return false;
            }
            rest = &rest[n..];
            probe.advance(n as u64);
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Acl, BufferPool, PoolId};

    fn frag(data: &[u8], chunk: usize) -> Aggregate {
        let p = BufferPool::new(PoolId(1), Acl::kernel_only(), chunk);
        Aggregate::from_bytes(&p, data)
    }

    #[test]
    fn chunks_cover_the_value_exactly() {
        let a = frag(b"abcdefghij", 3);
        let mut cur = a.cursor();
        let mut out = Vec::new();
        while let Some(c) = cur.next_chunk() {
            out.extend_from_slice(c);
        }
        assert_eq!(out, b"abcdefghij");
        assert_eq!(cur.remaining(), 0);
        assert!(cur.peek_chunk().is_none());
    }

    #[test]
    fn cursor_at_interior_offset() {
        let a = frag(b"abcdefghij", 3);
        let mut cur = a.cursor_at(4);
        assert_eq!(cur.position(), 4);
        assert_eq!(cur.remaining(), 6);
        assert_eq!(cur.peek_chunk().unwrap(), b"ef");
        let mut dst = [0u8; 4];
        assert_eq!(cur.copy_to(&mut dst), 4);
        assert_eq!(&dst, b"efgh");
        assert_eq!(cur.position(), 8);
    }

    #[test]
    fn cursor_past_end_is_empty() {
        let a = frag(b"abc", 2);
        let mut cur = a.cursor_at(100);
        assert_eq!(cur.remaining(), 0);
        assert!(cur.next_chunk().is_none());
        let mut dst = [0u8; 2];
        assert_eq!(cur.copy_to(&mut dst), 0);
    }

    #[test]
    fn advance_clamps_and_lands_mid_slice() {
        let a = frag(b"abcdefghij", 4);
        let mut cur = a.cursor();
        cur.advance(5);
        assert_eq!(cur.peek_chunk().unwrap(), b"fgh");
        cur.advance(1000);
        assert_eq!(cur.remaining(), 0);
    }

    #[test]
    fn find_byte_does_not_consume() {
        let a = frag(b"key=value;done", 2);
        let cur = a.cursor();
        assert_eq!(cur.find_byte(b'='), Some(3));
        assert_eq!(cur.find_byte(b';'), Some(9));
        assert_eq!(cur.position(), 0, "probe left the cursor in place");
        let tail = a.cursor_at(10);
        assert_eq!(tail.find_byte(b';'), None);
    }

    #[test]
    fn starts_with_across_boundaries() {
        let a = frag(b"Content-Length: 42", 5);
        assert!(a.cursor().starts_with(b"Content-Length:"));
        assert!(a.cursor_at(16).starts_with(b"42"));
        assert!(!a.cursor_at(16).starts_with(b"424"));
    }

    #[test]
    fn empty_aggregate_cursor() {
        let a = Aggregate::empty();
        let mut cur = a.cursor();
        assert_eq!(cur.remaining(), 0);
        assert!(cur.next_chunk().is_none());
        assert_eq!(cur.find_byte(b'x'), None);
        assert!(cur.starts_with(b""));
        assert!(!cur.starts_with(b"x"));
    }
}
