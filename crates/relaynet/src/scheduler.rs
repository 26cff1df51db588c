//! Per-link circuit scheduling.
//!
//! Tor relays do not serve their outgoing connection first-come-first-
//! served across circuits: they pick the next *circuit* to send from
//! (classically round-robin, later EWMA-weighted). This matters for
//! congestion experiments — under FIFO, a sender that overshoots its
//! window grabs queue positions and is rewarded with earlier service;
//! under round-robin, overshooting only delays the sender's own cells.
//! BackTap inherits the round-robin model, so this reproduction does too.
//!
//! Mechanically: each overlay node hands its egress link **one frame at a
//! time**. While the link serializes, further frames wait here, in
//! per-circuit queues; on `TxComplete` the overlay pulls the next frame —
//! feedback frames first (they are the transport's control signal, like
//! ACKs), then data cells round-robin across circuits.
//!
//! What waits is whatever the owner queues: the world's `Egress` keeps
//! its frames in the `Net`'s one store and queues their 4-byte
//! [`FrameHandle`](netsim::net::FrameHandle)s here
//! (`LinkScheduler<FrameHandle>`), so a scheduled frame is stored once,
//! and a queue's capacity costs 4 bytes a slot rather than a frame's
//! size. The default, `LinkScheduler<WireFrame>`, queues frames by value
//! and runs the same code.
//!
//! The per-circuit queues live in a `Vec` of slots indexed by a small
//! integer, with a LIFO free list recycling vacated slots — and their
//! `VecDeque` buffers with them — and the rotation ring carrying slot
//! indices. A small `BTreeMap` maps the circuit id to its slot, so the
//! per-cell lookup stays `O(log active)` while no circuit activation
//! allocates a queue buffer. These slots stay hand-rolled rather than a
//! `simcore::slab::Slab`, whose `remove` drops the value, buffer and
//! all, so every activation would allocate again. Per-circuit `List`s
//! through one `Lists<FrameHandle>` per scheduler kept every digest but
//! more than doubled the schedulers' bytes on `star50_churn`
//! (DESIGN.md §5), and one `Lists` per world would change `push_cell`
//! and `pop`. The rotation order is bit-identical to the historical
//! map-of-queues implementation — the queue-equivalence fingerprints
//! guard it.

use std::collections::{BTreeMap, VecDeque};

use simcore::slab::{clone_deque_reserving, clone_reserving};

use crate::ids::CircId;
use crate::wire::WireFrame;

/// Slab sentinel: the slot holds no circuit.
const VACANT: CircId = CircId(u32::MAX);

/// One slab slot: a circuit with queued cells (or a vacated slot whose
/// queue allocation is waiting to be reused).
struct CircSlot<F> {
    circ: CircId,
    queue: VecDeque<F>,
}

/// A copy whose queue reserves what the original's reserves.
impl<F: Clone> Clone for CircSlot<F> {
    fn clone(&self) -> Self {
        CircSlot {
            circ: self.circ,
            queue: clone_deque_reserving(&self.queue),
        }
    }
}

/// Round-robin frame scheduler for one egress link, queueing frames or
/// handles to them (`F`; see module docs).
pub struct LinkScheduler<F = WireFrame> {
    /// Control frames (feedback): strict priority, FIFO among themselves.
    feedback: VecDeque<F>,
    /// Dense slab of per-circuit queues; `rotation` and the free list
    /// hold indices into it.
    slots: Vec<CircSlot<F>>,
    /// Active circuit → slab slot (maintained on activation/vacation).
    index: BTreeMap<CircId, u32>,
    /// Vacated slot indices awaiting reuse (LIFO for determinism).
    free: Vec<u32>,
    /// Rotation order over slots with queued cells.
    rotation: VecDeque<u32>,
    /// Telemetry: largest number of frames ever waiting here.
    hwm: usize,
    /// Current number of frames waiting.
    len: usize,
}

impl<F> Default for LinkScheduler<F> {
    fn default() -> Self {
        LinkScheduler {
            feedback: VecDeque::new(),
            slots: Vec::new(),
            index: BTreeMap::new(),
            free: Vec::new(),
            rotation: VecDeque::new(),
            hwm: 0,
            len: 0,
        }
    }
}

/// A copy that reserves what its original reserves, queue by queue, so a
/// forked world's schedulers grow at the same frames.
impl<F: Clone> Clone for LinkScheduler<F> {
    fn clone(&self) -> Self {
        LinkScheduler {
            feedback: clone_deque_reserving(&self.feedback),
            slots: clone_reserving(&self.slots),
            index: self.index.clone(),
            free: clone_reserving(&self.free),
            rotation: clone_deque_reserving(&self.rotation),
            hwm: self.hwm,
            len: self.len,
        }
    }
}

impl<F> LinkScheduler<F> {
    /// Creates an empty scheduler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Queues a feedback frame (strict priority over data).
    pub fn push_feedback(&mut self, frame: F) {
        self.feedback.push_back(frame);
        self.bump();
    }

    /// Queues a data cell on `circ`'s queue, activating the circuit in
    /// the rotation if it had nothing queued.
    pub fn push_cell(&mut self, circ: CircId, frame: F) {
        debug_assert!(circ != VACANT, "cannot schedule the vacant sentinel");
        let slot = match self.index.get(&circ) {
            Some(&slot) => slot,
            None => {
                let slot = match self.free.pop() {
                    Some(slot) => {
                        let s = &mut self.slots[slot as usize];
                        debug_assert!(s.circ == VACANT && s.queue.is_empty());
                        s.circ = circ;
                        slot
                    }
                    None => {
                        self.slots.push(CircSlot {
                            circ,
                            queue: VecDeque::new(),
                        });
                        u32::try_from(self.slots.len() - 1).expect("too many scheduled circuits")
                    }
                };
                self.index.insert(circ, slot);
                self.rotation.push_back(slot);
                slot
            }
        };
        debug_assert_eq!(self.slots[slot as usize].circ, circ, "index out of sync");
        self.slots[slot as usize].queue.push_back(frame);
        self.bump();
    }

    /// Picks the next frame: feedback first, then the next circuit in the
    /// rotation (which moves to the back if it still has cells).
    pub fn pop(&mut self) -> Option<F> {
        if let Some(fb) = self.feedback.pop_front() {
            self.len -= 1;
            return Some(fb);
        }
        let slot = self.rotation.pop_front()?;
        let s = &mut self.slots[slot as usize];
        let frame = s.queue.pop_front().expect("queued circuits are non-empty");
        if s.queue.is_empty() {
            let circ = std::mem::replace(&mut s.circ, VACANT);
            self.index.remove(&circ);
            self.free.push(slot);
        } else {
            self.rotation.push_back(slot);
        }
        self.len -= 1;
        Some(frame)
    }

    /// Removes **every** queued data cell of `circ`, returning the frames
    /// in queue order, and drops the circuit from the rotation. Used at
    /// teardown: cells of a closed circuit must not occupy link time just
    /// to be discarded at the receiver — the caller pays their owed
    /// feedback and reclaims their payload buffers instead. Feedback
    /// frames are never drained (they are control traffic for the
    /// *neighbour's* transport and must flow regardless).
    pub fn drain_circuit(&mut self, circ: CircId) -> VecDeque<F> {
        let Some(slot) = self.index.remove(&circ) else {
            return VecDeque::new();
        };
        let s = &mut self.slots[slot as usize];
        s.circ = VACANT;
        let drained = std::mem::take(&mut s.queue);
        self.free.push(slot);
        self.rotation.retain(|&r| r != slot);
        self.len -= drained.len();
        drained
    }

    /// Frames currently waiting.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if nothing is waiting.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Largest backlog ever observed (telemetry).
    pub fn high_water_mark(&self) -> usize {
        self.hwm
    }

    /// Queue slots held reserved: the capacity of the feedback queue and
    /// of every per-circuit queue, vacant slab slots' included. A slot's
    /// queue keeps the capacity of the longest backlog any circuit left
    /// in it; a drained circuit takes its queue's buffer with it.
    pub fn reserved_slots(&self) -> usize {
        let circuits: usize = self.slots.iter().map(|s| s.queue.capacity()).sum();
        self.feedback.capacity() + circuits
    }

    /// Bytes reserved: the queue slots ([`reserved_slots`]), the slot
    /// vector, the free list and the rotation. The index map's nodes,
    /// one entry per circuit with cells queued, are not counted.
    ///
    /// [`reserved_slots`]: LinkScheduler::reserved_slots
    pub fn reserved_bytes(&self) -> usize {
        use std::mem::size_of;
        self.reserved_slots() * size_of::<F>()
            + self.slots.capacity() * size_of::<CircSlot<F>>()
            + (self.free.capacity() + self.rotation.capacity()) * size_of::<u32>()
    }

    fn bump(&mut self) {
        self.len += 1;
        self.hwm = self.hwm.max(self.len);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::net::Net;
    use torcell::cell::{Cell, Feedback};
    use torcell::ids::CircuitId;

    fn frames() -> (WireFrame, WireFrame) {
        let mut net: Net<WireFrame> = Net::new();
        let a = net.add_node("a");
        let b = net.add_node("b");
        let cell = WireFrame {
            src: a,
            dst: b,
            payload: crate::wire::FramePayload::Cell {
                cell: Cell::destroy(CircuitId(1), 0),
                hop_seq: 0,
            },
            confirm: None,
        };
        let fb = WireFrame {
            src: a,
            dst: b,
            payload: crate::wire::FramePayload::Feedback(Feedback {
                circ: CircuitId(1),
                seq: 0,
            }),
            confirm: None,
        };
        (cell, fb)
    }

    fn tag_of(frame: &WireFrame) -> u64 {
        match &frame.payload {
            crate::wire::FramePayload::Cell { hop_seq, .. } => *hop_seq,
            crate::wire::FramePayload::Feedback(fb) => 1_000 + fb.seq,
        }
    }

    fn cell_with_seq(seq: u64) -> WireFrame {
        let (mut cell, _) = frames();
        if let crate::wire::FramePayload::Cell { hop_seq, .. } = &mut cell.payload {
            *hop_seq = seq;
        }
        cell
    }

    #[test]
    fn empty_scheduler() {
        let mut s: LinkScheduler = LinkScheduler::new();
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
        assert!(s.pop().is_none());
        assert_eq!(s.high_water_mark(), 0);
    }

    #[test]
    fn feedback_has_strict_priority() {
        let (_, fb) = frames();
        let mut s = LinkScheduler::new();
        s.push_cell(CircId(0), cell_with_seq(1));
        s.push_feedback(fb);
        assert_eq!(tag_of(&s.pop().unwrap()), 1_000, "feedback first");
        assert_eq!(tag_of(&s.pop().unwrap()), 1);
    }

    #[test]
    fn round_robin_across_circuits() {
        let mut s = LinkScheduler::new();
        // Circuit 0 queues three cells before circuit 1 queues two.
        s.push_cell(CircId(0), cell_with_seq(1));
        s.push_cell(CircId(0), cell_with_seq(2));
        s.push_cell(CircId(0), cell_with_seq(3));
        s.push_cell(CircId(1), cell_with_seq(11));
        s.push_cell(CircId(1), cell_with_seq(12));
        assert_eq!(s.rotation.len(), 2);
        let order: Vec<u64> = std::iter::from_fn(|| s.pop().map(|f| tag_of(&f))).collect();
        // FIFO would give 1,2,3,11,12; round-robin interleaves.
        assert_eq!(order, vec![1, 11, 2, 12, 3]);
    }

    #[test]
    fn per_circuit_order_is_fifo() {
        let mut s = LinkScheduler::new();
        for seq in 1..=4 {
            s.push_cell(CircId(7), cell_with_seq(seq));
        }
        let order: Vec<u64> = std::iter::from_fn(|| s.pop().map(|f| tag_of(&f))).collect();
        assert_eq!(order, vec![1, 2, 3, 4]);
    }

    #[test]
    fn rotation_survives_emptying_and_refilling() {
        let mut s = LinkScheduler::new();
        s.push_cell(CircId(0), cell_with_seq(1));
        assert_eq!(tag_of(&s.pop().unwrap()), 1);
        assert!(s.is_empty());
        s.push_cell(CircId(0), cell_with_seq(2));
        s.push_cell(CircId(1), cell_with_seq(11));
        assert_eq!(tag_of(&s.pop().unwrap()), 2);
        assert_eq!(tag_of(&s.pop().unwrap()), 11);
    }

    #[test]
    fn high_water_mark_counts_all_classes() {
        let (_, fb) = frames();
        let mut s = LinkScheduler::new();
        s.push_cell(CircId(0), cell_with_seq(1));
        s.push_feedback(fb);
        s.push_cell(CircId(1), cell_with_seq(2));
        assert_eq!(s.high_water_mark(), 3);
        s.pop();
        s.pop();
        s.pop();
        assert_eq!(s.high_water_mark(), 3);
        assert!(s.is_empty());
    }

    #[test]
    fn slab_slots_are_reused_across_activations() {
        let mut s = LinkScheduler::new();
        // Three circuits activate and fully drain, several times over:
        // the slab must stop growing after the first wave.
        for round in 0..5u64 {
            for c in 0..3u32 {
                s.push_cell(CircId(c + round as u32 * 100), cell_with_seq(round * 10));
            }
            while s.pop().is_some() {}
        }
        assert!(s.is_empty());
        assert_eq!(s.slots.len(), 3, "slab grew under churn");
        assert_eq!(s.rotation.len(), 0);
    }

    #[test]
    fn drain_circuit_removes_only_that_circuit() {
        let mut s = LinkScheduler::new();
        let (_, fb) = frames();
        s.push_cell(CircId(0), cell_with_seq(1));
        s.push_cell(CircId(1), cell_with_seq(11));
        s.push_cell(CircId(0), cell_with_seq(2));
        s.push_feedback(fb);
        let drained = s.drain_circuit(CircId(0));
        assert_eq!(
            drained.iter().map(tag_of).collect::<Vec<_>>(),
            vec![1, 2],
            "drain returns the circuit's frames in queue order"
        );
        assert_eq!(s.len(), 2, "the other circuit and the feedback remain");
        assert_eq!(s.rotation.len(), 1);
        // Feedback still has priority, then the surviving circuit.
        assert_eq!(tag_of(&s.pop().unwrap()), 1_000);
        assert_eq!(tag_of(&s.pop().unwrap()), 11);
        assert!(s.is_empty());
        // Draining an unknown circuit is a no-op.
        assert!(s.drain_circuit(CircId(42)).is_empty());
    }

    #[test]
    fn drain_then_requeue_reuses_the_slot() {
        let mut s = LinkScheduler::new();
        s.push_cell(CircId(3), cell_with_seq(1));
        let _ = s.drain_circuit(CircId(3));
        s.push_cell(CircId(4), cell_with_seq(2));
        assert_eq!(s.slots.len(), 1, "vacated slot must be reused");
        assert_eq!(tag_of(&s.pop().unwrap()), 2);
    }
}
