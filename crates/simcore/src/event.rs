//! The pending-event queue.
//!
//! Two implementations, selected by [`QueueKind`] and wrapped in the
//! [`EventQueue`] facade the simulator owns:
//!
//! * [`CalendarQueue`] (the default) — a Brown-style calendar queue: a
//!   power-of-two ring of unsorted buckets, each covering `width`
//!   nanoseconds of virtual time, with the bucket count and width
//!   adapting to the pending population. Every bucket is a list through
//!   one entry slab, so the queue's memory follows the events pending.
//!   Scheduling is O(1) (compute the bucket, link a free slot at its
//!   tail) and dequeue is amortized O(1) for the short-horizon timer
//!   churn that dominates overlay runs.
//! * [`HeapQueue`] — a stable binary heap, kept as the differential
//!   oracle: property tests assert both implementations produce
//!   identical `(time, id, event)` pop sequences.
//!
//! Both are *stable* min-priority queues keyed on [`SimTime`]: events
//! scheduled for the same instant pop in push order (FIFO tie-breaking by
//! the monotonically increasing sequence number that `pop` reports as the
//! [`EventId`]). Stability is what makes the whole simulator
//! deterministic.
//!
//! Nothing leaves either queue except through `pop`. A model that
//! changes its mind about a scheduled event lets it fire and ignores it
//! (the overlay's circuit timers carry an incarnation and go stale,
//! DESIGN.md §12).

use std::collections::BinaryHeap;

use crate::slab::{clone_reserving, List, Lists, SlabUse};
use crate::time::SimTime;

/// The push sequence number of an event, unique within one queue and
/// reported by `pop` alongside the event's time.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub struct EventId(pub(crate) u64);

/// Exact counts of the work a queue did off its O(1) push/pop path, and
/// the slots it holds reserved. Read through
/// [`Simulator::queue_work`](crate::sim::Simulator::queue_work); a pure
/// function of the push/pop sequence, so it repeats to the digit across
/// runs and hosts. The heap oracle reports only `reserved_slots`.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct QueueWork {
    /// Pushes that landed inside the sorted ready run and paid an O(k)
    /// insert.
    pub merge_inserts: u64,
    /// Divisions moved from a bucket into the ready run.
    pub refills: u64,
    /// Entries those refills moved.
    pub refilled: u64,
    /// Ring rebuilds (growth or run pressure), each O(n).
    pub resizes: u64,
    /// Entry slots allocated right now: the ready run's capacity plus
    /// the entry slab's (for the heap, its one vector's). A slab slot
    /// also carries a 4-byte list link.
    pub reserved_slots: usize,
}

/// Which pending-event structure a queue uses.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum QueueKind {
    /// The calendar queue (default; O(1) schedule).
    #[default]
    Calendar,
    /// The stable binary heap (differential oracle).
    BinaryHeap,
}

// ---------------------------------------------------------------------
// HeapQueue — the binary heap, kept as the differential oracle.
// ---------------------------------------------------------------------

#[derive(Clone)]
struct Entry<E> {
    time: SimTime,
    id: EventId,
    event: E,
}

// Order entries so that the *earliest* (time, id) pair is the heap maximum,
// because `BinaryHeap` is a max-heap.
impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.id == other.id
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed: smaller (time, id) compares greater.
        (other.time, other.id).cmp(&(self.time, self.id))
    }
}

/// The original `BinaryHeap`-backed stable queue, kept as the
/// differential oracle for [`CalendarQueue`]; performance is not a goal
/// here.
#[derive(Clone)]
pub struct HeapQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    next_seq: u64,
}

impl<E> Default for HeapQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> HeapQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        HeapQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    /// Schedules `event` at absolute `time`.
    pub fn push(&mut self, time: SimTime, event: E) {
        let id = EventId(self.next_seq);
        self.next_seq += 1;
        self.heap.push(Entry { time, id, event });
    }

    /// Removes and returns the earliest event as `(time, id, event)`.
    pub fn pop(&mut self) -> Option<(SimTime, EventId, E)> {
        self.heap.pop().map(|e| (e.time, e.id, e.event))
    }

    /// The timestamp of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.time)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// `true` if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// The heap does no off-path work; only its reservation is reported.
    pub fn work(&self) -> QueueWork {
        QueueWork {
            reserved_slots: self.heap.capacity(),
            ..QueueWork::default()
        }
    }
}

// ---------------------------------------------------------------------
// CalendarQueue — the default structure.
// ---------------------------------------------------------------------

/// Smallest bucket count; also the initial one.
const MIN_BUCKETS: usize = 16;
/// Largest bucket count (memory bound; beyond this, occupancy grows).
const MAX_BUCKETS: usize = 1 << 21;
/// Initial bucket width as a power-of-two shift: 2^10 = 1024 ns.
/// Re-estimated at resizes. Widths are always powers of two so the hot
/// bucket/division computations are shifts, not divisions.
const INITIAL_SHIFT: u32 = 10;
/// A refill run longer than this hints the bucket width no longer fits
/// the event-time distribution and a re-estimate is worth its O(n).
const RUN_PRESSURE: usize = 64;
/// Entries the width rule samples at a resize, evenly across the
/// bucket side.
const SAMPLE: usize = 64;

#[derive(Clone)]
struct CalEntry<E> {
    time: u64,
    seq: u64,
    event: E,
}

/// A calendar queue with a sorted bottom run: O(1) schedule, amortized
/// O(log k) dequeue (k = entries per bucket-width of time), exact
/// `(time, id)` FIFO ordering.
///
/// Entries live in a power-of-two ring of unsorted buckets, each covering
/// `2^shift` nanoseconds of virtual time (Brown's calendar queue). The
/// twist — borrowed from ladder queues — is the **ready run**: dequeue
/// extracts the entire earliest non-empty division from its bucket, sorts
/// it once by `(time, seq)` *descending*, and then serves pops off the
/// back of that vector in O(1). Same-instant event storms (fan-outs
/// scheduled for one tick) therefore cost one O(k log k) sort instead of
/// k linear bucket scans, and the FIFO tie-break falls out of the sort
/// key.
///
/// A bucket is a list through one entry slab ([`Lists`]): every
/// bucket-side entry sits in a slab slot from push until its division
/// is refilled, and a freed slot is reused last-freed first. The slab
/// never shrinks and grows by bounded steps, so it reserves at most one
/// [`STEP`](crate::slab::STEP) past the most entries ever on the bucket
/// side, whatever spread of buckets they passed through.
///
/// Invariant: every entry in the ready run precedes every bucket entry in
/// time (the run is a whole minimal division; later pushes that would
/// land inside the run's time range are merge-inserted into it).
pub struct CalendarQueue<E> {
    /// The earliest division, sorted by `(time, seq)` descending; pops
    /// come off the back.
    ready: Vec<CalEntry<E>>,
    /// The bucket side: every entry on a bucket list.
    entries: Lists<CalEntry<E>>,
    /// Power-of-two ring of bucket lists; entry `e` is on bucket
    /// `(e.time >> shift) & mask`, in push order.
    buckets: Vec<List>,
    mask: u64,
    /// log2 of the bucket width in nanoseconds.
    shift: u32,
    /// Entries on the bucket side (drives ring sizing).
    in_buckets: usize,
    /// Scan floor: no pending entry is earlier than this (rewound if a
    /// standalone user pushes below it).
    cur: u64,
    next_seq: u64,
    /// Operations since the last resize — the amortization guard that
    /// lets run pressure trigger a width re-estimate at most once per
    /// O(n) operations.
    since_resize: usize,
    /// Run length that triggers a width re-estimate. Starts at
    /// [`RUN_PRESSURE`]; a re-estimate that fails to change the width
    /// (irreducible same-instant clusters) doubles it, so hopeless
    /// rebuilds stop, while a genuinely shifted distribution (even longer
    /// runs) still gets retried.
    pressure_floor: usize,
    /// Off-path work so far; `reserved_slots` is filled in by `work()`.
    work: QueueWork,
}

impl<E> Default for CalendarQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

/// A copy that reserves what its original reserves, the ready run
/// included, so a fork's [`QueueWork::reserved_slots`] stays the
/// unforked run's.
impl<E: Clone> Clone for CalendarQueue<E> {
    fn clone(&self) -> Self {
        CalendarQueue {
            ready: clone_reserving(&self.ready),
            entries: self.entries.clone(),
            buckets: self.buckets.clone(),
            ..*self
        }
    }
}

impl<E> CalendarQueue<E> {
    /// Creates an empty queue; the bucket array and the entry slab grow
    /// with the pending population.
    pub fn new() -> Self {
        CalendarQueue {
            ready: Vec::new(),
            entries: Lists::default(),
            buckets: vec![List::EMPTY; MIN_BUCKETS],
            mask: (MIN_BUCKETS - 1) as u64,
            shift: INITIAL_SHIFT,
            in_buckets: 0,
            cur: 0,
            next_seq: 0,
            since_resize: 0,
            pressure_floor: RUN_PRESSURE,
            work: QueueWork::default(),
        }
    }

    /// Schedules `event` at absolute `time`.
    pub fn push(&mut self, time: SimTime, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.since_resize += 1;
        let t = time.as_nanos();
        if t < self.cur {
            self.cur = t;
        }
        let entry = CalEntry {
            time: t,
            seq,
            event,
        };
        // An entry inside the ready run's time range merge-inserts into
        // the run (descending order) to preserve the run-precedes-buckets
        // invariant.
        if self.ready.first().is_some_and(|front| t <= front.time) {
            let pos = self.ready.partition_point(|e| (e.time, e.seq) > (t, seq));
            self.ready.insert(pos, entry);
            self.work.merge_inserts += 1;
            return;
        }
        let b = self.bucket_of(t);
        self.entries.push_back(&mut self.buckets[b], entry);
        self.in_buckets += 1;
        self.maybe_grow();
    }

    /// Removes and returns the earliest event as `(time, id, event)`.
    //
    // Out of line on purpose. Under csbench's build settings (release,
    // 16 codegen units, no LTO) inlining this into
    // `Simulator::run_with_limits` costs 5–11% `cells_per_s` on every
    // workload, and whether it inlines flips with unrelated code changes;
    // with one codegen unit the picture reverses (DESIGN.md §5,
    // "Measured and not landed").
    #[inline(never)]
    pub fn pop(&mut self) -> Option<(SimTime, EventId, E)> {
        if self.ready.is_empty() && self.in_buckets > 0 {
            self.refill();
        }
        let e = self.ready.pop()?;
        self.cur = e.time;
        Some((SimTime::from_nanos(e.time), EventId(e.seq), e.event))
    }

    /// The timestamp of the earliest pending event, if any. Takes `&mut
    /// self` because it may have to pull the next division into the
    /// ready run.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        if self.ready.is_empty() && self.in_buckets > 0 {
            self.refill();
        }
        self.ready.last().map(|e| SimTime::from_nanos(e.time))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.ready.len() + self.in_buckets
    }

    /// `true` if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The work counts so far, with the slots reserved right now.
    pub fn work(&self) -> QueueWork {
        QueueWork {
            reserved_slots: self.ready.capacity() + self.entries.usage().reserved,
            ..self.work
        }
    }

    #[inline]
    fn bucket_of(&self, time: u64) -> usize {
        ((time >> self.shift) & self.mask) as usize
    }

    /// Moves the earliest non-empty division out of its bucket into the
    /// (empty) ready run and sorts it. Standard calendar scan: walk
    /// divisions upward from the scan floor; if a whole ring cycle finds
    /// nothing (sparse far-future events), fall back to a direct global
    /// scan.
    fn refill(&mut self) {
        debug_assert!(self.ready.is_empty() && self.in_buckets > 0);
        let nb = self.buckets.len() as u64;
        let shift = self.shift;
        let d0 = self.cur >> shift;
        let division = (d0..d0 + nb).find(|&d| {
            self.entries
                .iter(self.buckets[(d & self.mask) as usize])
                .any(|e| e.time >> shift == d)
        });
        let d = division.unwrap_or_else(|| {
            // Empty year: global scan for the earliest entry.
            let all = self.buckets.iter().flat_map(|&b| self.entries.iter(b));
            let min = all.map(|e| e.time).min();
            min.expect("in_buckets > 0 implies a pending entry") >> shift
        });
        // The division's entries move into the run and free their slots;
        // the others (aliased divisions, when the ring is shorter than
        // the pending time span) stay linked in their order.
        let ready = &mut self.ready;
        self.entries.take_if(
            &mut self.buckets[(d & self.mask) as usize],
            |e| e.time >> shift == d,
            |e| ready.push(e),
        );
        self.in_buckets -= self.ready.len();
        self.since_resize += self.ready.len();
        self.work.refills += 1;
        self.work.refilled += self.ready.len() as u64;
        self.cur = d << shift;
        // Run pressure: a run far longer than a bucket should hold means
        // the width no longer matches the event-time distribution (e.g.
        // it was estimated while everything sat at one instant).
        // Re-estimate — at most once per O(n) operations, so the O(n)
        // rebuild amortizes to O(1) and an irreducibly clustered
        // population (one giant same-time storm) cannot thrash. The
        // extracted run is unaffected: it precedes all bucket entries in
        // time whatever the new width is.
        if self.ready.len() > self.pressure_floor && self.since_resize > self.len() {
            let old_shift = self.shift;
            self.resize();
            self.pressure_floor = if self.shift == old_shift {
                self.ready.len() * 2
            } else {
                RUN_PRESSURE
            };
        }
        // Entries arrive in push (seq) order, so for the dominant
        // same-time run this is a reversal the sort detects in O(k).
        self.ready
            .sort_unstable_by_key(|e| std::cmp::Reverse((e.time, e.seq)));
    }

    /// Rebuilds the ring with a population-appropriate bucket count and a
    /// width re-estimated from the bucket entries' time spread. Entries
    /// keep their slab slots; only the lists are relinked, walked in
    /// bucket-index order and then list order, which is also the order
    /// the width sample is taken in. The ready run is untouched.
    fn resize(&mut self) {
        let target = self
            .in_buckets
            .next_power_of_two()
            .clamp(MIN_BUCKETS, MAX_BUCKETS);
        let step = self.in_buckets.div_ceil(SAMPLE).max(1);
        let times: Vec<u64> = self
            .buckets
            .iter()
            .flat_map(|&bucket| self.entries.iter(bucket))
            .step_by(step)
            .map(|e| e.time)
            .collect();
        if let Some(w) = estimate_width(self.in_buckets, times) {
            // Round down to a power of two: narrower buckets cost cheap
            // empty-bucket probes, wider ones cost longer ready runs.
            self.shift = 63 - w.max(1).leading_zeros();
        }
        let old = std::mem::replace(&mut self.buckets, vec![List::EMPTY; target]);
        self.mask = (target - 1) as u64;
        let (shift, mask) = (self.shift, self.mask);
        for bucket in old {
            self.entries.relink(bucket, &mut self.buckets, |e| {
                ((e.time >> shift) & mask) as usize
            });
        }
        self.since_resize = 0;
        self.work.resizes += 1;
    }

    #[inline]
    fn maybe_grow(&mut self) {
        if self.in_buckets > 2 * self.buckets.len() && self.buckets.len() < MAX_BUCKETS {
            self.resize();
        }
    }
}

/// Width rule: the time span of the *near-term* sample divided by the
/// estimated number of *distinct* event times in it. `times` is an even
/// sample of a bucket side of `population` entries. The near-term
/// sample is the sorted sample cut below its far-future tail, if it has
/// one: a minority of samples separated from the rest by a gap wider than
/// the rest's whole span; a sample without such a gap is used whole. The
/// cut keeps a few far-future entries (circuit timers hundreds of ms
/// ahead of µs-spaced transport events) from setting the width: one
/// sampled timer would widen buckets 30–60×, piling dozens of near-term
/// events into each.
///
/// Event populations whose timestamps cluster on a few instants
/// (synchronized timers) want one cluster per bucket — dividing by the
/// raw population would shatter clusters across aliased buckets.
/// Duplicates are detected from sample collisions: a sample with
/// collisions implies few distinct values population-wide, while an
/// all-distinct sample implies a dense distinct population, whose
/// near-term share is the sample's kept share. `None` if the sample
/// spans no time at all — all-equal times keep the previous width.
fn estimate_width(population: usize, mut times: Vec<u64>) -> Option<u64> {
    if population < 2 {
        return None;
    }
    times.sort_unstable();
    let sampled = times.len();
    // The far-future tail: every sample above the first gap wider than
    // the whole span below it, with more than half the sample below.
    if let Some(cut) = (sampled / 2 + 1..sampled).find(|&i| {
        let below = times[i - 1] - times[0];
        below > 0 && times[i] - times[i - 1] > below
    }) {
        times.truncate(cut);
    }
    let span = times[times.len() - 1] - times[0];
    if span == 0 {
        return None;
    }
    let distinct = 1 + times.windows(2).filter(|w| w[1] > w[0]).count();
    let divisor = if distinct < times.len() {
        // Collisions in the sample: the population has few distinct
        // instants, and the sample almost surely saw them all.
        distinct as u64
    } else {
        (population * times.len() / sampled) as u64
    };
    Some((span / divisor).max(1))
}

// ---------------------------------------------------------------------
// EventQueue — the facade the simulator owns.
// ---------------------------------------------------------------------

/// A stable min-priority queue of timestamped events — the facade over
/// the [`QueueKind`]-selected implementation.
///
/// # Examples
///
/// ```
/// use simcore::event::EventQueue;
/// use simcore::time::SimTime;
///
/// let mut q = EventQueue::new();
/// q.push(SimTime::from_millis(2), "late");
/// q.push(SimTime::from_millis(1), "early");
/// q.push(SimTime::from_millis(1), "early-second");
///
/// assert_eq!(q.pop().map(|(t, _, e)| (t.as_millis(), e)), Some((1, "early")));
/// assert_eq!(q.pop().map(|(t, _, e)| (t.as_millis(), e)), Some((1, "early-second")));
/// assert_eq!(q.pop().map(|(t, _, e)| (t.as_millis(), e)), Some((2, "late")));
/// assert!(q.pop().is_none());
/// ```
#[derive(Clone)]
pub enum EventQueue<E> {
    /// Calendar-queue backed (default).
    Calendar(CalendarQueue<E>),
    /// Binary-heap backed (differential oracle).
    Heap(HeapQueue<E>),
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

macro_rules! delegate {
    ($self:ident, $q:ident => $body:expr) => {
        match $self {
            EventQueue::Calendar($q) => $body,
            EventQueue::Heap($q) => $body,
        }
    };
}

impl<E> EventQueue<E> {
    /// Creates an empty calendar-backed queue.
    pub fn new() -> Self {
        Self::with_kind(QueueKind::Calendar)
    }

    /// Creates an empty queue of the given kind.
    pub fn with_kind(kind: QueueKind) -> Self {
        match kind {
            QueueKind::Calendar => EventQueue::Calendar(CalendarQueue::new()),
            QueueKind::BinaryHeap => EventQueue::Heap(HeapQueue::new()),
        }
    }

    /// Schedules `event` at absolute time `time`.
    ///
    /// Events with equal timestamps are delivered in push order.
    #[inline]
    pub fn push(&mut self, time: SimTime, event: E) {
        delegate!(self, q => q.push(time, event))
    }

    /// Removes and returns the earliest event as `(time, id, event)`.
    #[inline]
    pub fn pop(&mut self) -> Option<(SimTime, EventId, E)> {
        delegate!(self, q => q.pop())
    }

    /// The timestamp of the earliest pending event, if any.
    #[inline]
    pub fn peek_time(&mut self) -> Option<SimTime> {
        delegate!(self, q => q.peek_time())
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        delegate!(self, q => q.len())
    }

    /// `true` if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Exact off-path work counts and the current reservation.
    pub fn work(&self) -> QueueWork {
        delegate!(self, q => q.work())
    }

    /// The calendar's entry slab: entries on the bucket side now, the
    /// most ever, and its share of `reserved_slots`. `None` for the heap.
    pub fn entries(&self) -> Option<SlabUse> {
        match self {
            EventQueue::Calendar(q) => Some(q.entries.usage()),
            EventQueue::Heap(_) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimTime;

    fn ms(v: u64) -> SimTime {
        SimTime::from_millis(v)
    }

    /// Every test runs against both implementations through the facade.
    fn both(check: impl Fn(EventQueue<i64>)) {
        check(EventQueue::with_kind(QueueKind::Calendar));
        check(EventQueue::with_kind(QueueKind::BinaryHeap));
    }

    #[test]
    fn pops_in_time_order() {
        both(|mut q| {
            q.push(ms(30), 3);
            q.push(ms(10), 1);
            q.push(ms(20), 2);
            let order: Vec<i64> = std::iter::from_fn(|| q.pop().map(|(_, _, e)| e)).collect();
            assert_eq!(order, vec![1, 2, 3]);
        });
    }

    #[test]
    fn equal_times_are_fifo() {
        both(|mut q| {
            for i in 0..100 {
                q.push(ms(5), i);
            }
            let order: Vec<i64> = std::iter::from_fn(|| q.pop().map(|(_, _, e)| e)).collect();
            assert_eq!(order, (0..100).collect::<Vec<_>>());
        });
    }

    #[test]
    fn interleaved_equal_and_unequal() {
        both(|mut q| {
            q.push(ms(1), 10); // t1-first
            q.push(ms(0), 0); // t0
            q.push(ms(1), 11); // t1-second
            assert_eq!(q.pop().unwrap().2, 0);
            assert_eq!(q.pop().unwrap().2, 10);
            assert_eq!(q.pop().unwrap().2, 11);
        });
    }

    #[test]
    fn pop_reports_the_push_sequence() {
        both(|mut q| {
            q.push(ms(1), 0);
            q.push(ms(0), 1);
            assert_eq!(q.pop().map(|(_, id, e)| (id, e)), Some((EventId(1), 1)));
            assert_eq!(q.pop().map(|(_, id, e)| (id, e)), Some((EventId(0), 0)));
        });
    }

    #[test]
    fn peek_does_not_remove() {
        both(|mut q| {
            q.push(ms(7), 0);
            assert_eq!(q.peek_time(), Some(ms(7)));
            assert_eq!(q.len(), 1);
            q.pop();
            assert_eq!(q.peek_time(), None);
        });
    }

    #[test]
    fn len_and_empty() {
        both(|mut q| {
            assert!(q.is_empty());
            q.push(ms(1), 0);
            q.push(ms(2), 0);
            assert_eq!(q.len(), 2);
            q.pop();
            assert_eq!(q.len(), 1);
            assert!(!q.is_empty());
        });
    }

    #[test]
    fn large_randomish_workload_sorted() {
        // Pseudo-random but deterministic insertion order.
        both(|mut q| {
            let mut x: u64 = 0x9E3779B97F4A7C15;
            for _ in 0..1000 {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                q.push(SimTime::from_nanos(x % 10_000), x as i64);
            }
            let mut last = SimTime::ZERO;
            let mut count = 0;
            while let Some((t, _, _)) = q.pop() {
                assert!(t >= last);
                last = t;
                count += 1;
            }
            assert_eq!(count, 1000);
        });
    }

    #[test]
    fn calendar_resizes_through_growth_and_drain() {
        let mut q: CalendarQueue<u64> = CalendarQueue::new();
        // Push far past the initial bucket count to force growth…
        for i in 0..10_000u64 {
            q.push(SimTime::from_nanos(i * 37), i);
        }
        // …then drain, asserting exact order throughout.
        for i in 0..10_000u64 {
            let (_, _, e) = q.pop().expect("entry remains");
            assert_eq!(e, i, "37ns-spaced pushes pop in push order");
        }
        assert!(q.pop().is_none());
    }

    #[test]
    fn refilling_to_the_same_population_reserves_nothing_more() {
        // Each round lands in divisions and buckets the rounds before it
        // never touched; the slab reuses the slots they freed.
        const N: u64 = 5_000;
        let mut q: CalendarQueue<u64> = CalendarQueue::new();
        let mut reserved = Vec::new();
        for round in 0..4u64 {
            let base = round * 1_000_003_001;
            for i in 0..N {
                q.push(SimTime::from_nanos(base + i * (37 + round)), i);
            }
            for i in 0..N {
                assert_eq!(q.pop().map(|(_, _, e)| e), Some(i));
            }
            reserved.push(q.work().reserved_slots);
        }
        assert!(reserved[0] <= 2 * N as usize, "{reserved:?}");
        assert!(reserved.windows(2).all(|w| w[1] == w[0]), "{reserved:?}");
    }

    /// The bucket shift a calendar settles on for `times`, pushed in order
    /// and then re-estimated over the whole population.
    fn settled_shift(times: impl IntoIterator<Item = u64>) -> u32 {
        let mut q: CalendarQueue<()> = CalendarQueue::new();
        for t in times {
            q.push(SimTime::from_nanos(t), ());
        }
        q.resize();
        q.shift
    }

    /// 2600 events 1 µs apart (the near-term population of a faulty
    /// star), with one timer 100–600 ms ahead pushed after every
    /// `dense_per_timer` of them when that is non-zero.
    fn dense_with_timers(dense_per_timer: u64) -> Vec<u64> {
        let mut times = Vec::new();
        let mut timers = 0u64;
        for i in 0..2600u64 {
            times.push(i * 1_000);
            if dense_per_timer > 0 && (i + 1) % dense_per_timer == 0 {
                // Distinct instants spread over the window out of order.
                times.push(100_000_000 + (timers + 1) * 48_271_003 % 500_000_000);
                timers += 1;
            }
        }
        times
    }

    #[test]
    fn far_future_timers_do_not_set_the_width() {
        let dense = settled_shift(dense_with_timers(0));
        // 1 µs spacing rounds down to 512 ns buckets.
        assert_eq!(dense, 9);
        // 1%, 3% and 5% of the population 100–600 ms ahead.
        for dense_per_timer in [99, 32, 19] {
            let shift = settled_shift(dense_with_timers(dense_per_timer));
            assert!(
                shift.abs_diff(dense) <= 1,
                "one timer per {dense_per_timer} events: shift {shift}, dense alone {dense}"
            );
        }
    }

    #[test]
    fn clustered_and_equal_populations_keep_their_width() {
        // Few distinct instants want one cluster per bucket: span over
        // distinct instants, whatever the population.
        let clusters = |instants: u64, gap: u64| (0..2000u64).map(move |i| (i % instants) * gap);
        // 350 µs over 8 instants, 3 ms over 4, 30 µs over 16.
        assert_eq!(settled_shift(clusters(8, 50_000)), 15);
        assert_eq!(settled_shift(clusters(4, 1_000_000)), 19);
        assert_eq!(settled_shift(clusters(16, 2_000)), 10);
        // All-equal times carry no width information: the initial shift
        // stays.
        assert_eq!(settled_shift((0..2000).map(|_| 7_000)), INITIAL_SHIFT);
    }

    #[test]
    fn calendar_handles_push_below_scan_floor() {
        // Standalone (non-simulator) users may push below the last popped
        // time; the scan floor rewinds instead of losing the entry.
        let mut q: CalendarQueue<u64> = CalendarQueue::new();
        q.push(SimTime::from_millis(10), 1);
        q.pop();
        q.push(SimTime::from_millis(5), 2);
        assert_eq!(q.pop().map(|(t, _, e)| (t.as_millis(), e)), Some((5, 2)));
    }
}
