//! [`IdTable`]: a dense table indexed by a kernel-minted id.
//!
//! `pure::IdAlloc` mints pids, pipe ids and connection ids
//! sequentially from 1 and the kernel never deletes an object, so a map
//! keyed by such an id already *is* an array: slot `id − 1` holds the
//! value. Lookup is one bounds-checked index — O(1), no comparisons, no
//! pointer chase — and iteration walks the slots in id order, which is
//! the order the sorted maps this replaces iterated in (so
//! `KernelState::snapshot` and `state_hash` fold the same bytes).
//!
//! Slots are optional because one caller — the per-process descriptor
//! tables — materialises an entry for whatever pid it is handed, minted
//! or not, so ids can arrive out of order. A gap costs one empty slot
//! per skipped id; [`ID_GAP_LIMIT`] bounds how far ahead of the table's
//! end a single insert may reach, so a wild id is a loud bug instead of
//! a multi-gigabyte allocation. An id that was never inserted — 0, or
//! anything past the end — simply resolves to `None`.

use std::marker::PhantomData;

use crate::kernel::{ConnId, PipeId};
use crate::process::Pid;

/// How far past the end of the table one insert may land (in ids).
const ID_GAP_LIMIT: usize = 1 << 20;

/// An id minted sequentially from 1: slot `id − 1` of an [`IdTable`].
pub(crate) trait DenseId: Copy {
    /// The slot this id names; `None` for 0 (never minted) or an id
    /// that does not fit the address space.
    fn slot(self) -> Option<usize>;
    /// The id naming `slot`.
    fn from_slot(slot: usize) -> Self;
}

macro_rules! dense_id {
    ($($id:ident: $int:ty),*) => {$(
        impl DenseId for $id {
            fn slot(self) -> Option<usize> {
                usize::try_from(self.0).ok()?.checked_sub(1)
            }
            fn from_slot(slot: usize) -> Self {
                $id(<$int>::try_from(slot + 1).expect("slot was reached through an id"))
            }
        }
    )*};
}
dense_id!(Pid: u32, PipeId: u32, ConnId: u64);

/// A dense id-indexed table (module docs).
#[derive(Debug, Clone)]
pub(crate) struct IdTable<K, V> {
    slots: Vec<Option<V>>,
    live: usize,
    _key: PhantomData<K>,
}

impl<K, V> Default for IdTable<K, V> {
    fn default() -> Self {
        IdTable {
            slots: Vec::new(),
            live: 0,
            _key: PhantomData,
        }
    }
}

impl<K: DenseId, V> IdTable<K, V> {
    /// The value at `id`, if one was inserted. O(1).
    pub(crate) fn get(&self, id: K) -> Option<&V> {
        self.slots.get(id.slot()?)?.as_ref()
    }

    /// Mutable access to the value at `id`. O(1).
    pub(crate) fn get_mut(&mut self, id: K) -> Option<&mut V> {
        self.slots.get_mut(id.slot()?)?.as_mut()
    }

    /// The slot for `id`, growing the table to reach it. O(1) for the
    /// next sequential id, O(gap) otherwise.
    ///
    /// # Panics
    ///
    /// Panics on id 0 and on an id [`ID_GAP_LIMIT`] or more past the
    /// end of the table: neither can come from the allocator.
    fn slot_mut(&mut self, id: K) -> &mut Option<V> {
        let slot = id.slot().expect("kernel ids start at 1");
        if slot >= self.slots.len() {
            assert!(
                slot - self.slots.len() < ID_GAP_LIMIT,
                "id {} is far beyond every minted id",
                slot + 1
            );
            self.slots.resize_with(slot + 1, || None);
        }
        &mut self.slots[slot]
    }

    /// Stores `value` at `id`, replacing any value already there.
    ///
    /// # Panics
    ///
    /// As [`IdTable::get_or_default`].
    pub(crate) fn insert(&mut self, id: K, value: V) {
        let fresh = self.slot_mut(id).replace(value).is_none();
        self.live += usize::from(fresh);
    }

    /// The value at `id`, inserting `V::default()` first if absent.
    ///
    /// # Panics
    ///
    /// Panics on id 0 and on an id [`ID_GAP_LIMIT`] or more past the
    /// end of the table.
    pub(crate) fn get_or_default(&mut self, id: K) -> &mut V
    where
        V: Default,
    {
        if self.get(id).is_none() {
            self.insert(id, V::default());
        }
        self.get_mut(id).expect("present or just inserted")
    }

    /// Number of values present.
    pub(crate) fn len(&self) -> usize {
        self.live
    }

    /// The present values with their ids, in ascending id order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (K, &V)> + '_ {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(slot, v)| Some((K::from_slot(slot), v.as_ref()?)))
    }

    /// A table holding `f(value)` at every present id (deep forks).
    pub(crate) fn map(&self, mut f: impl FnMut(&V) -> V) -> IdTable<K, V> {
        IdTable {
            slots: self.slots.iter().map(|v| v.as_ref().map(&mut f)).collect(),
            live: self.live,
            _key: PhantomData,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_ids_fill_consecutive_slots_and_iterate_in_id_order() {
        let mut t: IdTable<PipeId, &str> = IdTable::default();
        t.insert(PipeId(1), "a");
        t.insert(PipeId(2), "b");
        t.insert(PipeId(2), "c");
        assert_eq!(t.len(), 2, "replacement is not growth");
        assert_eq!(t.get(PipeId(2)), Some(&"c"));
        *t.get_mut(PipeId(1)).unwrap() = "z";
        let seen: Vec<_> = t.iter().map(|(id, v)| (id, *v)).collect();
        assert_eq!(seen, [(PipeId(1), "z"), (PipeId(2), "c")]);
    }

    #[test]
    fn unminted_ids_resolve_to_none() {
        let mut t: IdTable<ConnId, u8> = IdTable::default();
        t.insert(ConnId(1), 7);
        for id in [0, 2, 99, u64::MAX] {
            assert_eq!(t.get(ConnId(id)), None);
            assert_eq!(t.get_mut(ConnId(id)), None);
        }
    }

    #[test]
    fn gaps_are_skipped_by_len_iter_and_map() {
        let mut t: IdTable<Pid, Vec<u8>> = IdTable::default();
        t.get_or_default(Pid(3)).push(9);
        t.get_or_default(Pid(3)).push(8);
        t.get_or_default(Pid(1));
        assert_eq!(t.len(), 2);
        assert_eq!(t.get(Pid(2)), None);
        let forked = t.map(|v| v.iter().map(|b| b + 1).collect());
        let seen: Vec<_> = forked.iter().map(|(id, v)| (id, v.clone())).collect();
        assert_eq!(seen, [(Pid(1), vec![]), (Pid(3), vec![10, 9])]);
        assert_eq!(forked.len(), 2);
    }

    #[test]
    #[should_panic(expected = "far beyond every minted id")]
    fn a_wild_id_is_refused_before_it_is_allocated_for() {
        let mut t: IdTable<Pid, u8> = IdTable::default();
        t.insert(Pid(u32::MAX), 0);
    }

    #[test]
    #[should_panic(expected = "kernel ids start at 1")]
    fn id_zero_cannot_be_inserted() {
        let mut t: IdTable<Pid, u8> = IdTable::default();
        t.insert(Pid(0), 0);
    }
}
