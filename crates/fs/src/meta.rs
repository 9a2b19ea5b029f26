//! The "old" buffer cache, retained for file-system metadata (§4.2).
//!
//! "As in the original BSD kernel, the file system continues to use the
//! 'old' buffer cache to hold file system metadata." Name→inode lookups
//! go through this LRU cache; a miss stands for a metadata disk access.
//!
//! # Complexity
//!
//! Hit, miss and eviction are all O(1): one hash table maps a name to a
//! slot index, and the slots are threaded on an intrusive recency list
//! (most recent at `head`, the LRU victim at `tail`) — the shape the
//! checksum cache has. Nothing on [`MetadataCache::lookup`]'s path
//! walks the entry set; `crates/fs/tests/prop_meta_equiv.rs` holds the
//! cache to the scan-for-the-oldest-stamp model it replaced.

use std::sync::Arc;

use iolite_buf::FixedMap;

use crate::disk::FileId;

/// "No slot": terminates the recency list.
const NIL: usize = usize::MAX;

/// One cached name, linked into the recency list.
#[derive(Debug, Clone)]
struct Slot {
    /// The key this slot is indexed under (shared with the index, so a
    /// miss allocates the name once).
    name: Arc<str>,
    id: FileId,
    /// Clock value of the last lookup that touched the entry. The list
    /// order is the stamp order; the stamp itself feeds the digest.
    stamp: u64,
    /// Neighbour towards `head` (more recently used).
    prev: usize,
    /// Neighbour towards `tail` (less recently used).
    next: usize,
}

/// A fixed-capacity LRU cache of name→file metadata lookups.
///
/// `Clone` is an independent copy, used by kernel-state snapshots (the
/// immutable name strings are shared, nothing mutable is). LRU eviction
/// is exact and deterministic: every lookup ticks the clock and moves
/// the entry it hits to the front, so the list's tail is always the
/// entry with the oldest stamp and never depends on hash iteration
/// order.
#[derive(Debug, Clone)]
pub struct MetadataCache {
    capacity: usize,
    clock: u64,
    /// Name → index into `slots`. Probed, never iterated on the lookup
    /// path.
    index: FixedMap<Arc<str>, usize>,
    slots: Vec<Slot>,
    /// Most recently used slot, or `NIL` when empty.
    head: usize,
    /// Least recently used slot — the next victim — or `NIL`.
    tail: usize,
    hits: u64,
    misses: u64,
}

impl MetadataCache {
    /// Creates a cache holding at most `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0);
        MetadataCache {
            capacity,
            clock: 0,
            index: FixedMap::default(),
            slots: Vec::new(),
            head: NIL,
            tail: NIL,
            hits: 0,
            misses: 0,
        }
    }

    /// Looks up a name; on a miss, `resolve` supplies the id (a metadata
    /// disk access in the timing model) and the result is cached,
    /// evicting the least recently used entry when full.
    ///
    /// Returns `(id, was_hit)`. A hit allocates nothing; every outcome
    /// is O(1).
    pub fn lookup(
        &mut self,
        name: &str,
        resolve: impl FnOnce() -> Option<FileId>,
    ) -> Option<(FileId, bool)> {
        self.clock += 1;
        if let Some(&i) = self.index.get(name) {
            self.slots[i].stamp = self.clock;
            self.hits += 1;
            if self.head != i {
                self.unlink(i);
                self.link_front(i);
            }
            return Some((self.slots[i].id, true));
        }
        let id = resolve()?;
        self.misses += 1;
        let name: Arc<str> = Arc::from(name);
        let slot = Slot {
            name: Arc::clone(&name),
            id,
            stamp: self.clock,
            prev: NIL,
            next: NIL,
        };
        let i = if self.index.len() >= self.capacity {
            // Evict the least recently used entry; its slot is reused.
            let victim = self.tail;
            self.unlink(victim);
            self.index.remove(&*self.slots[victim].name);
            self.slots[victim] = slot;
            victim
        } else {
            self.slots.push(slot);
            self.slots.len() - 1
        };
        self.index.insert(name, i);
        self.link_front(i);
        Some((id, false))
    }

    /// Detaches slot `i` from the recency list.
    fn unlink(&mut self, i: usize) {
        let Slot { prev, next, .. } = self.slots[i];
        match prev {
            NIL => self.head = next,
            p => self.slots[p].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.slots[n].prev = prev,
        }
    }

    /// Makes the detached slot `i` the most recently used.
    fn link_front(&mut self, i: usize) {
        let old = self.head;
        self.slots[i].prev = NIL;
        self.slots[i].next = old;
        match old {
            NIL => self.tail = i,
            h => self.slots[h].prev = i,
        }
        self.head = i;
    }

    /// Hit count.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Miss count.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Entries currently cached.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Folds the cache's state into a stable digest (sorted by name, so
    /// neither hash order nor slot layout shows).
    pub fn digest(&self, h: &mut iolite_buf::Fnv64) {
        h.write_u64(self.capacity as u64);
        h.write_u64(self.clock);
        h.write_u64(self.hits);
        h.write_u64(self.misses);
        let mut entries: Vec<(&str, usize)> = self.index.iter().map(|(n, &i)| (&**n, i)).collect();
        entries.sort_unstable();
        h.write_u64(entries.len() as u64);
        for (name, i) in entries {
            h.write_str(name);
            h.write_u64(self.slots[i].id.0);
            h.write_u64(self.slots[i].stamp);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miss_then_hit() {
        let mut c = MetadataCache::new(4);
        let (id, hit) = c.lookup("/a", || Some(FileId(1))).unwrap();
        assert_eq!(id, FileId(1));
        assert!(!hit);
        let (id, hit) = c.lookup("/a", || unreachable!()).unwrap();
        assert_eq!(id, FileId(1));
        assert!(hit);
        assert_eq!(c.hits(), 1);
        assert_eq!(c.misses(), 1);
    }

    #[test]
    fn unknown_name_not_cached() {
        let mut c = MetadataCache::new(4);
        assert!(c.lookup("/missing", || None).is_none());
        assert_eq!(c.len(), 0);
    }

    #[test]
    fn lru_eviction_at_capacity() {
        let mut c = MetadataCache::new(2);
        c.lookup("/a", || Some(FileId(1)));
        c.lookup("/b", || Some(FileId(2)));
        // Touch /a so /b is the LRU.
        c.lookup("/a", || unreachable!());
        c.lookup("/c", || Some(FileId(3)));
        assert_eq!(c.len(), 2);
        // /b was evicted; /a survived.
        let (_, hit_a) = c.lookup("/a", || Some(FileId(1))).unwrap();
        assert!(hit_a);
        let (_, hit_b) = c.lookup("/b", || Some(FileId(2))).unwrap();
        assert!(!hit_b);
    }
}
