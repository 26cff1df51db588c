//! Values under stable `u32` slots, for a world-scale population that
//! comes and goes: pending events, stored frames, queued cells.
//!
//! A freed slot is the next one filled, so a [`Slab`] grows only when
//! every slot is taken. It allocates nothing before the first insert,
//! doubles from one slot while it holds fewer than [`STEP`], and then
//! grows one step at a time, so the slots reserved are at most the most
//! values ever held plus one step. The slots are one vector: fixed
//! chunks that never move would cost every access a second index
//! (DESIGN.md §5).
//! [`Lists`] threads FIFO lists through a slab's slots, one `u32` link a
//! slot; each list's owner keeps its [`List`]. A value can also be
//! stored on no list and linked onto one later, by slot, and a slot can
//! move from list to list without leaving the slab.

use std::collections::VecDeque;

/// The largest doubling and every later growth, in slots.
pub const STEP: usize = 1024;
/// The capacity at the first insert: an owner that only ever holds one
/// value reserves one slot.
const FIRST: usize = 1;
/// No slot: the end of a list, and an empty list's head and tail.
const NIL: u32 = u32::MAX;

/// How a slab's slots are used.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SlabUse {
    /// Values held now.
    pub held: usize,
    /// The most values ever held at once: the slots ever filled.
    pub high_water: usize,
    /// Slots reserved: at most `high_water` plus one [`STEP`].
    pub reserved: usize,
}

/// Values of type `T` under `u32` slots (see the module docs).
pub struct Slab<T> {
    /// Every slot ever filled; `None` when free.
    slots: Vec<Option<T>>,
    /// Free slots, last freed on top.
    free: Vec<u32>,
}

impl<T> Default for Slab<T> {
    fn default() -> Self {
        Slab {
            slots: Vec::new(),
            free: Vec::new(),
        }
    }
}

/// A copy that reserves what its original reserves, so it grows at the
/// same inserts: a forked world's slabs stay the unforked run's.
impl<T: Clone> Clone for Slab<T> {
    fn clone(&self) -> Self {
        Slab {
            slots: clone_reserving(&self.slots),
            free: clone_reserving(&self.free),
        }
    }
}

/// A copy of `v` with `v`'s capacity (a derived `clone` keeps only the
/// length), so the copy grows at the same pushes as `v`.
pub fn clone_reserving<T: Clone>(v: &Vec<T>) -> Vec<T> {
    let mut copy = Vec::with_capacity(v.capacity());
    copy.extend_from_slice(v);
    copy
}

/// [`clone_reserving`] for a ring.
pub fn clone_deque_reserving<T: Clone>(q: &VecDeque<T>) -> VecDeque<T> {
    let mut copy = VecDeque::with_capacity(q.capacity());
    copy.extend(q.iter().cloned());
    copy
}

impl<T> Slab<T> {
    /// Stores `value` and returns its slot.
    #[inline]
    pub fn insert(&mut self, value: T) -> u32 {
        match self.free.pop() {
            Some(i) => {
                // A free slot holds `None`: nothing to drop.
                std::mem::forget(self.slot_mut(i).replace(value));
                i
            }
            None => self.grow(value),
        }
    }

    /// A new slot, for a value that finds every slot taken: at most once
    /// per slot of the high water, so out of the per-value path.
    #[cold]
    #[inline(never)]
    fn grow(&mut self, value: T) -> u32 {
        let i = self.slots.len();
        if i == self.slots.capacity() {
            self.slots.reserve_exact(i.clamp(FIRST, STEP));
            if i >= STEP {
                // Past the doubling, the free list keeps pace with the
                // slots exactly, so a removal never allocates.
                self.free.reserve_exact(self.slots.capacity());
            }
        }
        self.slots.push(Some(value));
        u32::try_from(i)
            .ok()
            .filter(|&i| i != NIL)
            .expect("fewer than 2^32 - 1 slots")
    }

    #[inline]
    fn slot_mut(&mut self, i: u32) -> &mut Option<T> {
        &mut self.slots[i as usize]
    }

    /// The value in slot `i`; panics if the slot is free.
    #[inline]
    pub fn get(&self, i: u32) -> &T {
        self.slots[i as usize]
            .as_ref()
            .expect("a slab index names a held value")
    }

    /// The value in slot `i`, or `None` if the slot is free or past the
    /// high water.
    #[inline]
    pub fn try_get(&self, i: u32) -> Option<&T> {
        self.slots.get(i as usize)?.as_ref()
    }

    /// The value in slot `i`, mutably; panics if the slot is free.
    #[inline]
    pub fn get_mut(&mut self, i: u32) -> &mut T {
        self.slot_mut(i)
            .as_mut()
            .expect("a slab index names a held value")
    }

    /// Takes the value out of slot `i` and frees the slot; panics if the
    /// slot is free.
    #[inline]
    pub fn remove(&mut self, i: u32) -> T {
        // Swapped out whole rather than `take`n: `take` can store the
        // `None` niche into the middle of the value it moves out and copy
        // the value around that byte, and a wide copy of the value soon
        // after stalls on the split stores (5–9 ns an event on a
        // `Net`-only loop whose frame has a `bool` niche).
        let mut value = None;
        std::mem::swap(self.slot_mut(i), &mut value);
        self.free.push(i);
        value.expect("a slab index names a held value")
    }

    /// The values held, in slot order.
    pub fn values(&self) -> impl Iterator<Item = &T> {
        self.slots.iter().flatten()
    }

    /// Values held, the high water and the slots reserved.
    pub fn usage(&self) -> SlabUse {
        SlabUse {
            held: self.slots.len() - self.free.len(),
            high_water: self.slots.len(),
            reserved: self.slots.capacity(),
        }
    }

    /// Bytes reserved: the slots and the free list.
    pub fn reserved_bytes(&self) -> usize {
        self.usage().reserved * std::mem::size_of::<Option<T>>() + self.free.capacity() * 4
    }
}

/// One FIFO list through a [`Lists`]' slots: its first and last slot.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct List {
    head: u32,
    tail: u32,
}

impl List {
    /// The empty list.
    pub const EMPTY: List = List {
        head: NIL,
        tail: NIL,
    };

    /// `true` if the list holds nothing.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.head == NIL
    }

    /// The slot at the tail of the list.
    #[inline]
    pub fn back(&self) -> Option<u32> {
        (self.tail != NIL).then_some(self.tail)
    }
}

/// A [`Slab`] whose values each sit on one FIFO [`List`]; the lists'
/// ends belong to their owners.
pub struct Lists<T> {
    slab: Slab<T>,
    /// `next[i]` is the slot after slot `i` on its list, or [`NIL`].
    next: Vec<u32>,
}

impl<T> Default for Lists<T> {
    fn default() -> Self {
        Lists {
            slab: Slab::default(),
            next: Vec::new(),
        }
    }
}

/// A copy that reserves what its original reserves (see [`Slab`]'s).
impl<T: Clone> Clone for Lists<T> {
    fn clone(&self) -> Self {
        Lists {
            slab: self.slab.clone(),
            next: clone_reserving(&self.next),
        }
    }
}

impl<T> Lists<T> {
    /// Stores `value` on no list and returns its slot, for
    /// [`Lists::link_back`] later.
    #[inline]
    pub fn insert(&mut self, value: T) -> u32 {
        let i = self.slab.insert(value);
        if i as usize == self.next.len() {
            self.grow_links();
        }
        i
    }

    /// Appends `value` at the tail of `list`.
    #[inline]
    pub fn push_back(&mut self, list: &mut List, value: T) {
        let i = self.insert(value);
        self.link_back(list, i);
    }

    /// A link for a new slot, reserved in step with the slab.
    #[cold]
    #[inline(never)]
    fn grow_links(&mut self) {
        let slots = self.slab.usage().reserved;
        self.next.reserve_exact(slots - self.next.len());
        self.next.push(NIL);
    }

    /// Removes and returns the value at the head of `list`.
    #[inline]
    pub fn pop_front(&mut self, list: &mut List) -> Option<T> {
        let i = self.unlink_front(list)?;
        Some(self.slab.remove(i))
    }

    /// Links slot `i`, which holds a value on no list, at the tail of
    /// `list`.
    #[inline]
    pub fn link_back(&mut self, list: &mut List, i: u32) {
        self.next[i as usize] = NIL;
        match list.tail {
            NIL => list.head = i,
            tail => self.next[tail as usize] = i,
        }
        list.tail = i;
    }

    /// Unlinks the head of `list` and returns its slot, whose value
    /// stays stored on no list.
    #[inline]
    pub fn unlink_front(&mut self, list: &mut List) -> Option<u32> {
        let i = list.head;
        if i == NIL {
            return None;
        }
        list.head = self.next[i as usize];
        if list.head == NIL {
            list.tail = NIL;
        }
        Some(i)
    }

    /// The value in slot `i`; panics if the slot is free.
    #[inline]
    pub fn get(&self, i: u32) -> &T {
        self.slab.get(i)
    }

    /// The value in slot `i`, mutably; panics if the slot is free.
    #[inline]
    pub fn get_mut(&mut self, i: u32) -> &mut T {
        self.slab.get_mut(i)
    }

    /// Takes the value out of slot `i`, which is on no list, and frees
    /// the slot; panics if the slot is free.
    #[inline]
    pub fn remove(&mut self, i: u32) -> T {
        self.slab.remove(i)
    }

    /// The values of `list`, in list order.
    #[inline]
    pub fn iter(&self, list: List) -> impl Iterator<Item = &T> {
        let slots = std::iter::successors((list.head != NIL).then_some(list.head), |&i| {
            Some(self.next[i as usize]).filter(|&n| n != NIL)
        });
        slots.map(|i| self.slab.get(i))
    }

    /// Hands every value of `list` that `pred` picks to `take`, in list
    /// order, and frees its slot; the rest stay on `list` in their order.
    //
    // Inline: the calendar's refill runs it about once per event, and
    // out of line it cost `path3_bulk` ~10% `cells_per_s`.
    #[inline]
    pub fn take_if(&mut self, list: &mut List, pred: impl Fn(&T) -> bool, mut take: impl FnMut(T)) {
        let (mut prev, mut i) = (NIL, list.head);
        while i != NIL {
            let after = self.next[i as usize];
            if pred(self.slab.get(i)) {
                take(self.slab.remove(i));
                match prev {
                    NIL => list.head = after,
                    p => self.next[p as usize] = after,
                }
            } else {
                prev = i;
            }
            i = after;
        }
        list.tail = prev;
    }

    /// Moves every value of `from`, in list order and keeping its slot,
    /// to the tail of `into[to(value)]`.
    pub fn relink(&mut self, from: List, into: &mut [List], to: impl Fn(&T) -> usize) {
        let mut i = from.head;
        while i != NIL {
            // Read the old successor before `link` overwrites it.
            let after = self.next[i as usize];
            self.link_back(&mut into[to(self.slab.get(i))], i);
            i = after;
        }
    }

    /// Values held, the high water and the slots reserved.
    pub fn usage(&self) -> SlabUse {
        self.slab.usage()
    }

    /// Bytes reserved: the slab's and the links'.
    pub fn reserved_bytes(&self) -> usize {
        self.slab.reserved_bytes() + self.next.capacity() * 4
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nothing_is_reserved_before_the_first_insert() {
        let slab: Slab<u64> = Slab::default();
        assert_eq!(slab.reserved_bytes(), 0);
        let lists: Lists<u64> = Lists::default();
        assert_eq!(lists.reserved_bytes(), 0);
    }

    #[test]
    fn growth_doubles_to_a_step_then_adds_steps() {
        let mut slab = Slab::default();
        let mut reserved = Vec::new();
        for i in 0..3 * STEP + 1 {
            assert_eq!(slab.insert(i) as usize, i, "fresh slots are dense");
            if reserved.last() != Some(&slab.usage().reserved) {
                reserved.push(slab.usage().reserved);
            }
        }
        let doublings: Vec<usize> = (0..=10).map(|s| 1 << s).collect();
        assert_eq!(reserved[..doublings.len()], doublings[..]);
        assert_eq!(reserved[doublings.len()..], [2 * STEP, 3 * STEP, 4 * STEP]);
        assert_eq!(slab.free.capacity(), 4 * STEP, "the free list keeps pace");
    }

    #[test]
    fn a_freed_slot_is_the_next_filled() {
        let mut slab = Slab::default();
        let (a, b) = (slab.insert('a'), slab.insert('b'));
        assert_eq!(slab.remove(a), 'a');
        assert_eq!(slab.remove(b), 'b');
        assert_eq!((slab.insert('c'), slab.insert('d')), (b, a));
        let usage = slab.usage();
        assert_eq!((usage.held, usage.high_water), (2, 2));
    }

    #[test]
    fn take_if_keeps_the_rest_in_order() {
        let mut lists = Lists::default();
        let mut list = List::EMPTY;
        for v in 0..10 {
            lists.push_back(&mut list, v);
        }
        let mut taken = Vec::new();
        lists.take_if(&mut list, |v| v % 3 == 0, |v| taken.push(v));
        assert_eq!(taken, [0, 3, 6, 9]);
        lists.push_back(&mut list, 10);
        let rest: Vec<i32> = lists.iter(list).copied().collect();
        assert_eq!(rest, [1, 2, 4, 5, 7, 8, 10]);
    }
}
