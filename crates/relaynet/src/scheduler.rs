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
//! size. A `LinkScheduler<WireFrame>` queues frames by value and runs the
//! same code.
//!
//! The rotation holds the queues: one entry per circuit with cells
//! queued, in service order, each carrying its own queue. A cell finds
//! its circuit's queue by scanning the rotation, and that scan is short:
//! over every world of 1 s csbench runs on seeds 1–3, the most circuits
//! ever queued on one link is 1 on `path3_bulk`, 2 on
//! `consensus7k_epochs`, 4–5 on `star16_faults` and 5 on `star50_churn`,
//! and 10 on the Figure 1c star (`fig1_cdf`, 50 circuits).
//! A queue that empties waits among the spares, and the next circuit to
//! activate takes the last one emptied, buffer and all, so activations
//! stop allocating once a link has served its busiest moment. Nothing
//! here is a map, so every heap byte the scheduler holds is in
//! [`LinkScheduler::reserved_bytes`].

use std::collections::VecDeque;

use simcore::slab::clone_deque_reserving;

use crate::ids::CircId;

/// Round-robin frame scheduler for one egress link, queueing frames or
/// handles to them (`F`; see module docs).
pub struct LinkScheduler<F> {
    /// Control frames (feedback): strict priority, FIFO among themselves.
    feedback: VecDeque<F>,
    /// The circuits with queued cells, in service order, each with its
    /// queue.
    rotation: VecDeque<(CircId, VecDeque<F>)>,
    /// Emptied queues awaiting reuse, last emptied on top.
    spare: Vec<VecDeque<F>>,
    /// Telemetry: largest number of frames ever waiting here.
    hwm: usize,
    /// Current number of frames waiting.
    len: usize,
}

impl<F> Default for LinkScheduler<F> {
    fn default() -> Self {
        LinkScheduler {
            feedback: VecDeque::new(),
            rotation: VecDeque::new(),
            spare: Vec::new(),
            hwm: 0,
            len: 0,
        }
    }
}

/// A copy that reserves what its original reserves, queue by queue, so a
/// forked world's schedulers grow at the same frames.
impl<F: Clone> Clone for LinkScheduler<F> {
    fn clone(&self) -> Self {
        let mut rotation = VecDeque::with_capacity(self.rotation.capacity());
        rotation.extend(
            self.rotation
                .iter()
                .map(|(circ, queue)| (*circ, clone_deque_reserving(queue))),
        );
        let mut spare = Vec::with_capacity(self.spare.capacity());
        spare.extend(self.spare.iter().map(clone_deque_reserving));
        LinkScheduler {
            feedback: clone_deque_reserving(&self.feedback),
            rotation,
            spare,
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

    /// Queues a data cell on `circ`'s queue, activating the circuit at
    /// the back of the rotation, with the last emptied queue, if it had
    /// nothing queued.
    pub fn push_cell(&mut self, circ: CircId, frame: F) {
        match self.rotation.iter_mut().find(|(c, _)| *c == circ) {
            Some((_, queue)) => queue.push_back(frame),
            None => {
                let mut queue = self.spare.pop().unwrap_or_default();
                queue.push_back(frame);
                self.rotation.push_back((circ, queue));
            }
        }
        self.bump();
    }

    /// Picks the next frame: feedback first, then the front circuit of
    /// the rotation, which moves to the back if it still has cells.
    pub fn pop(&mut self) -> Option<F> {
        if let Some(fb) = self.feedback.pop_front() {
            self.len -= 1;
            return Some(fb);
        }
        let (_, queue) = self.rotation.front_mut()?;
        let frame = queue.pop_front().expect("queued circuits are non-empty");
        if queue.is_empty() {
            let (_, queue) = self.rotation.pop_front().expect("just served");
            self.spare.push(queue);
        } else {
            self.rotation.rotate_left(1);
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
        let Some(at) = self.rotation.iter().position(|(c, _)| *c == circ) else {
            return VecDeque::new();
        };
        let (_, drained) = self.rotation.remove(at).expect("a found entry is in range");
        // The drained buffer leaves with its frames. An empty queue takes
        // its place on top of the spares, so the buffers later circuits
        // reuse, and `reserved_slots`, are the slot model's (see the
        // tests).
        self.spare.push(VecDeque::new());
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
    /// of every circuit queue, the spares' included. A queue keeps the
    /// capacity of the longest backlog any circuit left in it; a drained
    /// circuit takes its queue's buffer with it.
    pub fn reserved_slots(&self) -> usize {
        let queues = self
            .rotation
            .iter()
            .map(|(_, queue)| queue)
            .chain(&self.spare);
        self.feedback.capacity() + queues.map(VecDeque::capacity).sum::<usize>()
    }

    /// Bytes reserved: the queue slots ([`reserved_slots`]), the
    /// rotation's entries (a circuit id and its queue, 40 B) and the
    /// spares (a queue, 32 B). Every heap byte the scheduler holds.
    ///
    /// [`reserved_slots`]: LinkScheduler::reserved_slots
    pub fn reserved_bytes(&self) -> usize {
        use std::mem::size_of;
        self.reserved_slots() * size_of::<F>()
            + self.rotation.capacity() * size_of::<(CircId, VecDeque<F>)>()
            + self.spare.capacity() * size_of::<VecDeque<F>>()
    }

    fn bump(&mut self) {
        self.len += 1;
        self.hwm = self.hwm.max(self.len);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    use crate::wire::WireFrame;
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
        let mut s: LinkScheduler<WireFrame> = LinkScheduler::new();
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
    fn queues_are_reused_across_activations() {
        let mut s = LinkScheduler::new();
        // Three circuits activate and fully drain, several times over:
        // after the first wave every activation takes a spare queue, and
        // the queues stop growing.
        let mut reserved = 0;
        for round in 0..5u64 {
            for c in 0..3u32 {
                s.push_cell(CircId(c + round as u32 * 100), cell_with_seq(round * 10));
            }
            assert_eq!(s.rotation.len(), 3);
            assert!(s.spare.is_empty(), "an activation left a spare queue idle");
            while s.pop().is_some() {}
            assert_eq!(s.spare.len(), 3, "an emptied queue is not a spare");
            if round == 0 {
                reserved = s.reserved_slots();
            }
            assert_eq!(s.reserved_slots(), reserved, "queues grew under churn");
        }
        assert!(s.is_empty());
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
    fn drain_then_requeue_reuses_a_spare_queue() {
        let mut s = LinkScheduler::new();
        s.push_cell(CircId(3), cell_with_seq(1));
        assert_eq!(s.drain_circuit(CircId(3)).len(), 1);
        assert!(s.rotation.is_empty());
        assert_eq!(
            s.spare.len(),
            1,
            "an empty queue takes the drained one's place"
        );
        assert_eq!(
            s.reserved_slots(),
            0,
            "the drained buffer left with its frames"
        );
        s.push_cell(CircId(4), cell_with_seq(2));
        assert!(s.spare.is_empty(), "the spare queue must be reused");
        assert_eq!(tag_of(&s.pop().unwrap()), 2);
    }

    /// The scheduler as it was before the rotation held the queues: a
    /// vector of slots, each a circuit and its queue, a sentinel for a
    /// vacant slot, a LIFO free list of vacant slots, a rotation of slot
    /// indices and a map from circuit to slot. The reference model for
    /// the rotation.
    struct SlotScheduler<F> {
        feedback: VecDeque<F>,
        slots: Vec<(CircId, VecDeque<F>)>,
        index: BTreeMap<CircId, u32>,
        free: Vec<u32>,
        rotation: VecDeque<u32>,
        hwm: usize,
        len: usize,
    }

    const VACANT: CircId = CircId(u32::MAX);

    impl<F> SlotScheduler<F> {
        fn new() -> Self {
            SlotScheduler {
                feedback: VecDeque::new(),
                slots: Vec::new(),
                index: BTreeMap::new(),
                free: Vec::new(),
                rotation: VecDeque::new(),
                hwm: 0,
                len: 0,
            }
        }

        fn push_feedback(&mut self, frame: F) {
            self.feedback.push_back(frame);
            self.bump();
        }

        fn push_cell(&mut self, circ: CircId, frame: F) {
            let slot = match self.index.get(&circ) {
                Some(&slot) => slot,
                None => {
                    let slot = match self.free.pop() {
                        Some(slot) => {
                            self.slots[slot as usize].0 = circ;
                            slot
                        }
                        None => {
                            self.slots.push((circ, VecDeque::new()));
                            self.slots.len() as u32 - 1
                        }
                    };
                    self.index.insert(circ, slot);
                    self.rotation.push_back(slot);
                    slot
                }
            };
            self.slots[slot as usize].1.push_back(frame);
            self.bump();
        }

        fn pop(&mut self) -> Option<F> {
            if let Some(fb) = self.feedback.pop_front() {
                self.len -= 1;
                return Some(fb);
            }
            let slot = self.rotation.pop_front()?;
            let (circ, queue) = &mut self.slots[slot as usize];
            let frame = queue.pop_front().expect("queued circuits are non-empty");
            if queue.is_empty() {
                self.index.remove(circ);
                *circ = VACANT;
                self.free.push(slot);
            } else {
                self.rotation.push_back(slot);
            }
            self.len -= 1;
            Some(frame)
        }

        fn drain_circuit(&mut self, circ: CircId) -> VecDeque<F> {
            let Some(slot) = self.index.remove(&circ) else {
                return VecDeque::new();
            };
            let (circ, queue) = &mut self.slots[slot as usize];
            *circ = VACANT;
            let drained = std::mem::take(queue);
            self.free.push(slot);
            self.rotation.retain(|&r| r != slot);
            self.len -= drained.len();
            drained
        }

        fn reserved_slots(&self) -> usize {
            let circuits: usize = self.slots.iter().map(|(_, q)| q.capacity()).sum();
            self.feedback.capacity() + circuits
        }

        fn bump(&mut self) {
            self.len += 1;
            self.hwm = self.hwm.max(self.len);
        }
    }

    /// Random runs of `push_cell` over up to 12 circuits, `push_feedback`,
    /// `pop`, and `drain_circuit` of queued, idle and unseen circuits give
    /// what the slot scheduler gives: every popped and drained frame, and
    /// after every operation the backlog, its high water and the queue
    /// slots reserved.
    #[test]
    fn the_rotation_matches_the_slot_scheduler() {
        use simcore::rng::SimRng;

        for seed in 0..40u64 {
            let mut rng = SimRng::seed_from(0x5C4E_D000 + seed);
            let circuits = rng.range_u64(1, 13);
            let mut sched = LinkScheduler::new();
            let mut model = SlotScheduler::new();
            let mut next_frame = 0u64;
            for op in 0..3_000 {
                let ctx = format!("seed {seed} op {op}");
                // Filling and emptying phases alternate, so backlogs both
                // build up and run dry.
                let pushes = if (op / 200) % 2 == 0 { 60 } else { 30 };
                let pick = rng.range_u64(0, 100);
                if pick < pushes {
                    let circ = CircId(rng.range_u64(0, circuits) as u32);
                    sched.push_cell(circ, next_frame);
                    model.push_cell(circ, next_frame);
                    next_frame += 1;
                } else if pick < pushes + 5 {
                    sched.push_feedback(next_frame);
                    model.push_feedback(next_frame);
                    next_frame += 1;
                } else if pick < 95 {
                    assert_eq!(sched.pop(), model.pop(), "{ctx}");
                } else {
                    let queued: Vec<CircId> = model.index.keys().copied().collect();
                    let circ = if pick < 98 && !queued.is_empty() {
                        queued[rng.range_usize(0, queued.len())]
                    } else {
                        CircId(rng.range_u64(0, circuits + 2) as u32)
                    };
                    assert_eq!(
                        sched.drain_circuit(circ),
                        model.drain_circuit(circ),
                        "{ctx}"
                    );
                }
                assert_eq!(sched.len(), model.len, "{ctx}");
                assert_eq!(sched.high_water_mark(), model.hwm, "{ctx}");
                assert_eq!(sched.reserved_slots(), model.reserved_slots(), "{ctx}");
            }
        }
    }
}
