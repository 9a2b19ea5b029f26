//! The slice list behind an [`crate::Aggregate`].
//!
//! Aggregates are handed between subsystems **by value** (§3.1), and
//! nearly every one a server handles is a request, a header, or a
//! header plus a body of a chunk or two. So up to [`INLINE`] slices
//! live in the aggregate itself
//! — building, cloning, ranging over or appending to such a list never
//! touches the heap — and a longer list spills to one deque whose
//! entries carry cumulative end offsets, the index that keeps `locate`
//! logarithmic at §3.8's fragmentation degrees. The representation is a
//! function of the slice count alone: inline iff it fits.

use std::collections::VecDeque;

use crate::slice::Slice;

/// Slices an aggregate holds without a heap allocation: a response
/// header plus two 64 KB body chunks (documents up to 128 KB). Measured
/// at 2, 3 and 4 (PR 22, EXPERIMENTS.md): 4 is slower on `hot_small` —
/// the struct is moved by value far more often than it holds a fourth
/// slice — and 3 cannot be told apart from 2.
pub(crate) const INLINE: usize = 3;

/// The absolute coordinate of logical offset 0 in a list at the moment
/// it spills.
///
/// A spilled list keeps its end offsets in a monotonically increasing
/// absolute coordinate space, so dropping from the front (base moves
/// up) and prepending (base moves down) both avoid renumbering.
/// Starting mid-range leaves 2^63 bytes of headroom in each direction.
const ORIGIN: u64 = 1 << 63;

/// One slice of a spilled list and the absolute offset just past it.
/// Ends are strictly increasing because empty slices are never stored.
#[derive(Clone)]
struct Entry {
    slice: Slice,
    end: u64,
}

/// A deque of slices with logarithmic offset lookup.
#[derive(Clone, Default)]
pub(crate) struct SliceList(Repr);

#[derive(Clone)]
enum Repr {
    /// `slots[..n]` are `Some`, the rest `None` (`Option<Slice>` has
    /// the `Arc` niche, so a slot is the size of a slice).
    Inline {
        slots: [Option<Slice>; INLINE],
        n: u8,
    },
    /// More than [`INLINE`] slices; `base` is the absolute offset of
    /// logical byte 0 (the start of the first entry).
    Spilled { entries: VecDeque<Entry>, base: u64 },
}

impl Default for Repr {
    fn default() -> Self {
        Repr::Inline {
            slots: [const { None }; INLINE],
            n: 0,
        }
    }
}

impl SliceList {
    pub(crate) fn len(&self) -> usize {
        match &self.0 {
            Repr::Inline { n, .. } => *n as usize,
            Repr::Spilled { entries, .. } => entries.len(),
        }
    }

    pub(crate) fn get(&self, i: usize) -> Option<&Slice> {
        match &self.0 {
            Repr::Inline { slots, .. } => slots.get(i)?.as_ref(),
            Repr::Spilled { entries, .. } => entries.get(i).map(|e| &e.slice),
        }
    }

    pub(crate) fn front(&self) -> Option<&Slice> {
        self.get(0)
    }

    pub(crate) fn back(&self) -> Option<&Slice> {
        self.get(self.len().checked_sub(1)?)
    }

    /// Locates the slice containing logical offset `idx`, returning
    /// `(slice index, offset within that slice)`: a scan of at most
    /// [`INLINE`] lengths, or a binary search of the spilled ends.
    ///
    /// Precondition: `idx` is less than the list's total length.
    pub(crate) fn locate(&self, idx: u64) -> (usize, usize) {
        match &self.0 {
            Repr::Inline { slots, .. } => {
                let mut rest = idx;
                for (i, s) in slots.iter().flatten().enumerate() {
                    if rest < s.len() as u64 {
                        return (i, rest as usize);
                    }
                    rest -= s.len() as u64;
                }
                unreachable!("offset {idx} is past the end of the list")
            }
            Repr::Spilled { entries, base } => {
                let target = base + idx;
                // First slice whose end is strictly beyond the target.
                let i = entries.partition_point(|e| e.end <= target);
                let e = &entries[i];
                let start = e.end - e.slice.len() as u64;
                (i, (target - start) as usize)
            }
        }
    }

    /// Moves a full inline list into a deque, indexed from [`ORIGIN`].
    fn spill(&mut self) -> (&mut VecDeque<Entry>, &mut u64) {
        if let Repr::Inline { slots, .. } = &mut self.0 {
            // Room to grow: a list that outgrew the inline slots is
            // usually a multi-chunk body still being appended to.
            let mut entries = VecDeque::with_capacity(4 * INLINE);
            let mut end = ORIGIN;
            for slice in slots.iter_mut().filter_map(Option::take) {
                end += slice.len() as u64;
                entries.push_back(Entry { slice, end });
            }
            self.0 = Repr::Spilled {
                entries,
                base: ORIGIN,
            };
        }
        match &mut self.0 {
            Repr::Spilled { entries, base } => (entries, base),
            Repr::Inline { .. } => unreachable!("just spilled"),
        }
    }

    /// Moves a spilled list that fits again back inline.
    fn unspill(&mut self) {
        if let Repr::Spilled { entries, .. } = &mut self.0 {
            if entries.len() <= INLINE {
                let n = entries.len() as u8;
                let mut drain = entries.drain(..).map(|e| e.slice);
                let slots = std::array::from_fn(|_| drain.next());
                drop(drain);
                self.0 = Repr::Inline { slots, n };
            }
        }
    }

    /// Appends a (non-empty) slice. O(1) amortized.
    pub(crate) fn push_back(&mut self, s: Slice) {
        if let Repr::Inline { slots, n } = &mut self.0 {
            if let Some(slot) = slots.get_mut(*n as usize) {
                *slot = Some(s);
                *n += 1;
                return;
            }
        }
        let (entries, base) = self.spill();
        let end = entries.back().map_or(*base, |e| e.end) + s.len() as u64;
        entries.push_back(Entry { slice: s, end });
    }

    /// Prepends a (non-empty) slice. O(1) amortized: a spilled list
    /// moves its base down instead of renumbering.
    pub(crate) fn push_front(&mut self, s: Slice) {
        if let Repr::Inline { slots, n } = &mut self.0 {
            if (*n as usize) < INLINE {
                slots[..=*n as usize].rotate_right(1);
                slots[0] = Some(s);
                *n += 1;
                return;
            }
        }
        let (entries, base) = self.spill();
        let end = *base;
        *base -= s.len() as u64;
        entries.push_front(Entry { slice: s, end });
    }

    pub(crate) fn pop_front(&mut self) -> Option<Slice> {
        match &mut self.0 {
            Repr::Inline { slots, n } => {
                let s = slots[0].take()?;
                slots[..*n as usize].rotate_left(1);
                *n -= 1;
                Some(s)
            }
            Repr::Spilled { entries, base } => {
                let e = entries.pop_front()?;
                *base = e.end;
                self.unspill();
                Some(e.slice)
            }
        }
    }

    pub(crate) fn pop_back(&mut self) -> Option<Slice> {
        match &mut self.0 {
            Repr::Inline { slots, n } => {
                let s = slots[(*n as usize).checked_sub(1)?].take();
                *n -= 1;
                s
            }
            Repr::Spilled { entries, .. } => {
                let e = entries.pop_back()?;
                self.unspill();
                Some(e.slice)
            }
        }
    }

    /// Drops the first `cut` bytes of the first slice, in place.
    ///
    /// Precondition: `cut` is less than that slice's length.
    pub(crate) fn trim_front(&mut self, cut: usize) {
        let front = match &mut self.0 {
            Repr::Inline { slots, .. } => slots[0].as_mut(),
            Repr::Spilled { entries, base } => {
                *base += cut as u64;
                entries.front_mut().map(|e| &mut e.slice)
            }
        }
        .expect("trim of an empty list");
        *front = front.sub(cut, front.len() - cut).expect("cut < len");
    }

    /// Drops the last `cut` bytes of the last slice, in place.
    ///
    /// Precondition: `cut` is less than that slice's length.
    pub(crate) fn trim_back(&mut self, cut: usize) {
        let back = match &mut self.0 {
            Repr::Inline { slots, n } => (*n as usize)
                .checked_sub(1)
                .and_then(|last| slots[last].as_mut()),
            Repr::Spilled { entries, .. } => entries.back_mut().map(|e| {
                e.end -= cut as u64;
                &mut e.slice
            }),
        }
        .expect("trim of an empty list");
        *back = back.sub(0, back.len() - cut).expect("cut < len");
    }
}
