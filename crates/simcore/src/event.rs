//! The pending-event queue.
//!
//! Two interchangeable implementations sit behind the [`PendingEvents`]
//! trait seam, selected by [`QueueKind`] and wrapped in the [`EventQueue`]
//! facade the simulator owns:
//!
//! * [`CalendarQueue`] (the default) — a Brown-style calendar queue: a
//!   power-of-two ring of unsorted buckets, each covering `width`
//!   nanoseconds of virtual time, with the bucket count and width
//!   adapting to the live population. Scheduling is O(1) (compute the
//!   bucket, append), cancellation is O(1) expected (a dense id-window
//!   index finds the bucket, see below), and dequeue is amortized O(1)
//!   for the short-horizon timer churn that dominates overlay runs.
//! * [`HeapQueue`] — the original stable binary heap, kept as the
//!   differential oracle: property tests assert both implementations
//!   produce identical `(time, id, event)` pop sequences.
//!
//! Both are *stable* min-priority queues keyed on [`SimTime`]: events
//! scheduled for the same instant pop in push order (FIFO tie-breaking by
//! the monotonically increasing sequence number that doubles as the
//! [`EventId`]). Stability is what makes the whole simulator
//! deterministic.
//!
//! # Cancellation without tombstones
//!
//! Event ids are dense and monotone, so the calendar queue maps every id
//! in the window `[base_id, next_seq)` to its bucket through a plain
//! `VecDeque` — no hash map, no tombstone set. Cancelling removes the
//! entry from its bucket immediately; cancelling an id that already fired
//! is a detectable no-op. The window head advances as the oldest ids
//! retire, so memory is bounded by the id span of *pending* events, not
//! by run length (the leak the old `Simulator`-side tombstone set had).

// cs-lint: allow(nondeterministic-iteration, reason = "legacy HeapQueue membership sets, see field docs")
use std::collections::{BinaryHeap, HashSet};

use crate::time::SimTime;

/// Identifier of a scheduled event, unique within one simulation run.
///
/// Returned by [`EventQueue::push`] so callers can later cancel the event
/// (see [`crate::sim::Simulator::cancel`]).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct EventId(pub(crate) u64);

impl EventId {
    /// The raw sequence number.
    pub fn as_u64(self) -> u64 {
        self.0
    }
}

/// Which pending-event structure a queue uses.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum QueueKind {
    /// The calendar queue (default; O(1) schedule/cancel).
    #[default]
    Calendar,
    /// The legacy stable binary heap (differential oracle).
    BinaryHeap,
}

/// The seam between the simulator loop and the pending-event structure:
/// a stable time-ordered queue with cancellation.
///
/// Implementations must pop in strictly non-decreasing `(time, id)`
/// order, break time ties by push order, and never yield a cancelled
/// event.
pub trait PendingEvents<E> {
    /// Schedules `event` at absolute `time`; returns a fresh monotone id.
    fn push(&mut self, time: SimTime, event: E) -> EventId;
    /// Removes and returns the earliest live event.
    fn pop(&mut self) -> Option<(SimTime, EventId, E)>;
    /// The timestamp of the earliest live event, if any. Takes `&mut
    /// self` so implementations may discard dead entries or refresh a
    /// cached minimum.
    fn peek_time(&mut self) -> Option<SimTime>;
    /// Cancels a pending event; returns `false` (and does nothing) if the
    /// id already fired, was already cancelled, or was discarded.
    fn cancel(&mut self, id: EventId) -> bool;
    /// Number of live pending events.
    fn len(&self) -> usize;
    /// `true` if no live events are pending.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// Largest number of simultaneously pending events observed.
    fn high_water_mark(&self) -> usize;
    /// Total number of events ever pushed.
    fn pushed_total(&self) -> u64;
    /// Discards all pending events; the id counter keeps advancing.
    fn clear(&mut self);
}

// ---------------------------------------------------------------------
// HeapQueue — the legacy binary heap, kept as the differential oracle.
// ---------------------------------------------------------------------

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

/// The original `BinaryHeap`-backed stable queue.
///
/// Cancellation is tombstone-based internally, but leak-free: a `live`
/// set distinguishes pending ids, so cancelling a fired id is a no-op
/// that stores nothing, and [`HeapQueue::clear`] drops tombstones along
/// with the entries they referenced. Kept primarily as the differential
/// oracle for [`CalendarQueue`]; performance is not a goal here.
pub struct HeapQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    // cs-lint: allow(nondeterministic-iteration, reason = "membership-only: insert/remove/contains, never iterated, so hash order cannot reach pop order")
    /// Ids currently pending (pushed, not yet popped or cancelled).
    live: HashSet<u64>,
    // cs-lint: allow(nondeterministic-iteration, reason = "membership-only: insert/remove/contains, never iterated, so hash order cannot reach pop order")
    /// Ids cancelled while pending; their heap entries are skipped on pop.
    cancelled: HashSet<u64>,
    next_seq: u64,
    high_water: usize,
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
            // cs-lint: allow(nondeterministic-iteration, reason = "constructing the membership-only sets documented on the fields")
            live: HashSet::new(),
            // cs-lint: allow(nondeterministic-iteration, reason = "constructing the membership-only sets documented on the fields")
            cancelled: HashSet::new(),
            next_seq: 0,
            high_water: 0,
        }
    }

    /// Drops dead entries off the top of the heap.
    fn skim(&mut self) {
        while let Some(top) = self.heap.peek() {
            if self.cancelled.remove(&top.id.0) {
                self.heap.pop();
            } else {
                break;
            }
        }
    }
}

impl<E> PendingEvents<E> for HeapQueue<E> {
    fn push(&mut self, time: SimTime, event: E) -> EventId {
        let id = EventId(self.next_seq);
        self.next_seq += 1;
        self.heap.push(Entry { time, id, event });
        self.live.insert(id.0);
        self.high_water = self.high_water.max(self.live.len());
        id
    }

    fn pop(&mut self) -> Option<(SimTime, EventId, E)> {
        self.skim();
        let e = self.heap.pop()?;
        self.live.remove(&e.id.0);
        Some((e.time, e.id, e.event))
    }

    fn peek_time(&mut self) -> Option<SimTime> {
        self.skim();
        self.heap.peek().map(|e| e.time)
    }

    fn cancel(&mut self, id: EventId) -> bool {
        if self.live.remove(&id.0) {
            self.cancelled.insert(id.0);
            true
        } else {
            false
        }
    }

    fn len(&self) -> usize {
        self.live.len()
    }

    fn high_water_mark(&self) -> usize {
        self.high_water
    }

    fn pushed_total(&self) -> u64 {
        self.next_seq
    }

    fn clear(&mut self) {
        self.heap.clear();
        self.live.clear();
        self.cancelled.clear();
    }
}

// ---------------------------------------------------------------------
// CalendarQueue — the default structure.
// ---------------------------------------------------------------------

/// Sentinel in the id-window index: this id is no longer pending.
const NOT_PENDING: u32 = u32::MAX;
/// Sentinel in the id-window index: this id sits in the sorted ready run.
const IN_READY: u32 = u32::MAX - 1;
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

struct CalEntry<E> {
    time: u64,
    seq: u64,
    event: E,
}

/// A calendar queue with a sorted bottom run: O(1) schedule and cancel,
/// amortized O(log k) dequeue (k = entries per bucket-width of time),
/// exact `(time, id)` FIFO ordering.
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
/// Invariant: every entry in the ready run precedes every bucket entry in
/// time (the run is a whole minimal division; later pushes that would
/// land inside the run's time range are merge-inserted into it).
pub struct CalendarQueue<E> {
    /// The earliest division, sorted by `(time, seq)` descending; pops
    /// come off the back.
    ready: Vec<CalEntry<E>>,
    /// Power-of-two ring of unsorted buckets; entry `e` lives in bucket
    /// `(e.time >> shift) & mask`.
    buckets: Vec<Vec<CalEntry<E>>>,
    mask: u64,
    /// log2 of the bucket width in nanoseconds.
    shift: u32,
    /// Live entries (ready run + buckets).
    n: usize,
    /// Live entries on the bucket side only (drives ring sizing).
    in_buckets: usize,
    /// Scan floor: no live entry is earlier than this (rewound if a
    /// standalone user pushes below it).
    cur: u64,
    next_seq: u64,
    high_water: usize,
    /// Location hint of every id in `[base_id, next_seq)`, offset by
    /// `head`: a bucket index, [`IN_READY`], or [`NOT_PENDING`]. Bucket
    /// hints may be stale for entries that moved into the ready run —
    /// cancel falls through to a run scan when the bucket misses. The
    /// prefix `[..head]` is retired; it is compacted away once it
    /// dominates the vector, so memory is bounded by the id span of
    /// *pending* events.
    live: Vec<u32>,
    /// Index into `live` of the oldest not-yet-retired id.
    head: usize,
    /// Id corresponding to `live[0]`.
    base_id: u64,
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
}

impl<E> Default for CalendarQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> CalendarQueue<E> {
    /// Creates an empty queue; the bucket array grows with the pending
    /// population.
    pub fn new() -> Self {
        CalendarQueue {
            ready: Vec::new(),
            buckets: (0..MIN_BUCKETS).map(|_| Vec::new()).collect(),
            mask: (MIN_BUCKETS - 1) as u64,
            shift: INITIAL_SHIFT,
            n: 0,
            in_buckets: 0,
            cur: 0,
            next_seq: 0,
            high_water: 0,
            live: Vec::new(),
            head: 0,
            base_id: 0,
            since_resize: 0,
            pressure_floor: RUN_PRESSURE,
        }
    }

    #[inline]
    fn bucket_of(&self, time: u64) -> u32 {
        ((time >> self.shift) & self.mask) as u32
    }

    /// Marks `seq` done in the id window and advances the window head
    /// past retired ids; compacts the retired prefix away once it
    /// dominates (amortized O(1)).
    #[inline]
    fn retire(&mut self, seq: u64) {
        let idx = (seq - self.base_id) as usize;
        if idx != self.head {
            // Out-of-order retire: mark it; the head sweeps past once the
            // older ids are done.
            self.live[idx] = NOT_PENDING;
            return;
        }
        self.head += 1;
        while self.head < self.live.len() && self.live[self.head] == NOT_PENDING {
            self.head += 1;
        }
        if self.head >= 64 && self.head * 2 >= self.live.len() {
            self.live.drain(..self.head);
            self.base_id += self.head as u64;
            self.head = 0;
        }
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
        let mut division = None;
        for i in 0..nb {
            let d = d0 + i;
            let b = (d & self.mask) as usize;
            if self.buckets[b].iter().any(|e| e.time >> shift == d) {
                division = Some(d);
                break;
            }
        }
        let d = division.unwrap_or_else(|| {
            // Empty year: global scan for the earliest entry.
            let mut min: Option<u64> = None;
            for bucket in &self.buckets {
                for e in bucket {
                    if min.is_none_or(|m| e.time < m) {
                        min = Some(e.time);
                    }
                }
            }
            min.expect("in_buckets > 0 implies a live entry") >> shift
        });
        let bucket = &mut self.buckets[(d & self.mask) as usize];
        if bucket.iter().all(|e| e.time >> shift == d) {
            // Common case: the bucket holds exactly one division. Swap it
            // in wholesale; the bucket inherits the drained run's buffer.
            std::mem::swap(bucket, &mut self.ready);
        } else {
            // Aliased case (ring shorter than the live time span): split
            // the bucket, matching entries into the run.
            for e in std::mem::take(bucket) {
                if e.time >> shift == d {
                    self.ready.push(e);
                } else {
                    bucket.push(e);
                }
            }
        }
        self.in_buckets -= self.ready.len();
        self.since_resize += self.ready.len();
        self.cur = d << shift;
        // Run pressure: a run far longer than a bucket should hold means
        // the width no longer matches the event-time distribution (e.g.
        // it was estimated while everything sat at one instant).
        // Re-estimate — at most once per O(n) operations, so the O(n)
        // rebuild amortizes to O(1) and an irreducibly clustered
        // population (one giant same-time storm) cannot thrash. The
        // extracted run is unaffected: it precedes all bucket entries in
        // time whatever the new width is.
        if self.ready.len() > self.pressure_floor && self.since_resize > self.n {
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
    /// width re-estimated from the bucket entries' time spread. The ready
    /// run is untouched.
    fn resize(&mut self) {
        let target = self
            .in_buckets
            .next_power_of_two()
            .clamp(MIN_BUCKETS, MAX_BUCKETS);
        let mut all: Vec<CalEntry<E>> = Vec::with_capacity(self.in_buckets);
        for bucket in &mut self.buckets {
            all.append(bucket);
        }
        if let Some(w) = estimate_width(&all) {
            // Round down to a power of two: narrower buckets cost cheap
            // empty-bucket probes, wider ones cost longer ready runs.
            self.shift = 63 - w.max(1).leading_zeros();
        }
        if self.buckets.len() != target {
            self.buckets = (0..target).map(|_| Vec::new()).collect();
            self.mask = (target - 1) as u64;
        }
        for e in all {
            let b = self.bucket_of(e.time);
            self.live[(e.seq - self.base_id) as usize] = b;
            self.buckets[b as usize].push(e);
        }
        self.since_resize = 0;
    }

    #[inline]
    fn maybe_grow(&mut self) {
        if self.in_buckets > 2 * self.buckets.len() && self.buckets.len() < MAX_BUCKETS {
            self.resize();
        }
    }

    #[inline]
    fn maybe_shrink(&mut self) {
        if self.buckets.len() > MIN_BUCKETS && self.in_buckets < self.buckets.len() / 4 {
            self.resize();
        }
    }
}

/// Width rule: the sampled time span divided by the estimated number of
/// *distinct* event times. Event populations whose timestamps cluster on
/// a few instants (synchronized timers) want one cluster per bucket —
/// dividing by the raw population would shatter clusters across aliased
/// buckets. Duplicates are detected from sample collisions: a sample
/// with collisions implies few distinct values population-wide, while an
/// all-distinct sample implies a dense distinct population. `None` if
/// the sample spans no time at all — all-equal times keep the previous
/// width.
fn estimate_width<E>(entries: &[CalEntry<E>]) -> Option<u64> {
    if entries.len() < 2 {
        return None;
    }
    // Sample evenly across the population to bound the sort.
    const SAMPLE: usize = 64;
    let step = entries.len().div_ceil(SAMPLE);
    let mut times: Vec<u64> = entries.iter().step_by(step).map(|e| e.time).collect();
    times.sort_unstable();
    let span = times.last().expect("len >= 2 checked above")
        - times.first().expect("len >= 2 checked above");
    if span == 0 {
        return None;
    }
    let distinct = 1 + times.windows(2).filter(|w| w[1] > w[0]).count();
    let divisor = if distinct < times.len() {
        // Collisions in the sample: the population has few distinct
        // instants, and the sample almost surely saw them all.
        distinct as u64
    } else {
        entries.len() as u64
    };
    Some((span / divisor).max(1))
}

impl<E> PendingEvents<E> for CalendarQueue<E> {
    fn push(&mut self, time: SimTime, event: E) -> EventId {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.since_resize += 1;
        let t = time.as_nanos();
        if t < self.cur {
            self.cur = t;
        }
        self.n += 1;
        self.high_water = self.high_water.max(self.n);
        // An entry inside the ready run's time range merge-inserts into
        // the run (descending order) to preserve the run-precedes-buckets
        // invariant.
        if self.ready.first().is_some_and(|front| t <= front.time) {
            let pos = self.ready.partition_point(|e| (e.time, e.seq) > (t, seq));
            self.ready.insert(
                pos,
                CalEntry {
                    time: t,
                    seq,
                    event,
                },
            );
            self.live.push(IN_READY);
            return EventId(seq);
        }
        let b = self.bucket_of(t);
        self.buckets[b as usize].push(CalEntry {
            time: t,
            seq,
            event,
        });
        self.live.push(b);
        self.in_buckets += 1;
        self.maybe_grow();
        EventId(seq)
    }

    fn pop(&mut self) -> Option<(SimTime, EventId, E)> {
        if self.ready.is_empty() {
            if self.in_buckets == 0 {
                return None;
            }
            self.refill();
        }
        let e = self.ready.pop().expect("refill produced a run");
        self.n -= 1;
        self.cur = e.time;
        self.retire(e.seq);
        Some((SimTime::from_nanos(e.time), EventId(e.seq), e.event))
    }

    fn peek_time(&mut self) -> Option<SimTime> {
        if self.ready.is_empty() {
            if self.in_buckets == 0 {
                return None;
            }
            self.refill();
        }
        Some(SimTime::from_nanos(self.ready.last().expect("run").time))
    }

    fn cancel(&mut self, id: EventId) -> bool {
        let seq = id.0;
        if seq < self.base_id || seq >= self.next_seq {
            return false;
        }
        let idx = (seq - self.base_id) as usize;
        if idx < self.head {
            // Swept past by an in-order retire (those skip the slot
            // write); nothing below the head is pending.
            return false;
        }
        let hint = self.live[idx];
        if hint == NOT_PENDING {
            return false;
        }
        if hint != IN_READY {
            // The hint may be stale in two ways for entries that moved to
            // the ready run without a rewrite: it can point at a bucket
            // that no longer holds the entry, or — after the ring shrank
            // (resize only re-hints bucket entries) — past the ring
            // entirely. Treat both as a miss and fall through to the run.
            if let Some(bucket) = self.buckets.get_mut(hint as usize) {
                if let Some(pos) = bucket.iter().position(|e| e.seq == seq) {
                    bucket.swap_remove(pos);
                    self.n -= 1;
                    self.in_buckets -= 1;
                    self.retire(seq);
                    self.maybe_shrink();
                    return true;
                }
            }
        }
        let pos = self
            .ready
            .iter()
            .position(|e| e.seq == seq)
            .expect("pending entry is in its hinted bucket or the run");
        self.ready.remove(pos);
        self.n -= 1;
        self.retire(seq);
        true
    }

    fn len(&self) -> usize {
        self.n
    }

    fn high_water_mark(&self) -> usize {
        self.high_water
    }

    fn pushed_total(&self) -> u64 {
        self.next_seq
    }

    fn clear(&mut self) {
        for bucket in &mut self.buckets {
            bucket.clear();
        }
        self.ready.clear();
        self.live.clear();
        self.head = 0;
        self.base_id = self.next_seq;
        self.n = 0;
        self.in_buckets = 0;
    }
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

    /// Which implementation backs this queue.
    pub fn kind(&self) -> QueueKind {
        match self {
            EventQueue::Calendar(_) => QueueKind::Calendar,
            EventQueue::Heap(_) => QueueKind::BinaryHeap,
        }
    }

    /// Schedules `event` at absolute time `time` and returns its id.
    ///
    /// Events with equal timestamps are delivered in push order.
    #[inline]
    pub fn push(&mut self, time: SimTime, event: E) -> EventId {
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

    /// Cancels a pending event in O(1); returns `false` (a no-op) if it
    /// already fired, was already cancelled, or was cleared away.
    #[inline]
    pub fn cancel(&mut self, id: EventId) -> bool {
        delegate!(self, q => q.cancel(id))
    }

    /// Number of pending events (cancelled events are gone immediately,
    /// so this is exact).
    pub fn len(&self) -> usize {
        delegate!(self, q => q.len())
    }

    /// `true` if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Largest number of simultaneously pending events observed so far.
    /// Useful for sizing and for detecting event-storm bugs.
    pub fn high_water_mark(&self) -> usize {
        delegate!(self, q => q.high_water_mark())
    }

    /// Total number of events ever pushed.
    pub fn pushed_total(&self) -> u64 {
        delegate!(self, q => q.pushed_total())
    }

    /// Discards all pending events (the sequence counter keeps advancing
    /// so ids remain unique within the run). Cancellation state of the
    /// discarded events is discarded with them — nothing is stranded.
    pub fn clear(&mut self) {
        delegate!(self, q => q.clear())
    }
}

impl<E> PendingEvents<E> for EventQueue<E> {
    fn push(&mut self, time: SimTime, event: E) -> EventId {
        EventQueue::push(self, time, event)
    }
    fn pop(&mut self) -> Option<(SimTime, EventId, E)> {
        EventQueue::pop(self)
    }
    fn peek_time(&mut self) -> Option<SimTime> {
        EventQueue::peek_time(self)
    }
    fn cancel(&mut self, id: EventId) -> bool {
        EventQueue::cancel(self, id)
    }
    fn len(&self) -> usize {
        EventQueue::len(self)
    }
    fn high_water_mark(&self) -> usize {
        EventQueue::high_water_mark(self)
    }
    fn pushed_total(&self) -> u64 {
        EventQueue::pushed_total(self)
    }
    fn clear(&mut self) {
        EventQueue::clear(self)
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
    fn ids_are_unique_and_monotone() {
        both(|mut q| {
            let a = q.push(ms(1), 0);
            let b = q.push(ms(0), 0);
            assert!(b.as_u64() > a.as_u64());
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
    fn high_water_mark_tracks_peak() {
        both(|mut q| {
            for i in 0..5 {
                q.push(ms(i), 0);
            }
            for _ in 0..5 {
                q.pop();
            }
            q.push(ms(9), 0);
            assert_eq!(q.high_water_mark(), 5);
            assert_eq!(q.pushed_total(), 6);
        });
    }

    #[test]
    fn clear_keeps_id_counter() {
        both(|mut q| {
            q.push(ms(1), 0);
            q.clear();
            assert!(q.is_empty());
            let id = q.push(ms(1), 0);
            assert_eq!(id.as_u64(), 1);
        });
    }

    #[test]
    fn cancel_removes_event_immediately() {
        both(|mut q| {
            let _a = q.push(ms(1), 1);
            let b = q.push(ms(2), 2);
            q.push(ms(3), 3);
            assert!(q.cancel(b));
            assert_eq!(q.len(), 2, "cancelled events leave the queue at once");
            let order: Vec<i64> = std::iter::from_fn(|| q.pop().map(|(_, _, e)| e)).collect();
            assert_eq!(order, vec![1, 3]);
        });
    }

    #[test]
    fn cancel_of_fired_event_is_a_noop() {
        both(|mut q| {
            let id = q.push(ms(1), 1);
            q.pop();
            assert!(!q.cancel(id), "cancelling a fired event reports false");
            assert!(!q.cancel(id), "and stays a no-op on repeat");
            q.push(ms(2), 2);
            assert_eq!(q.pop().unwrap().2, 2);
        });
    }

    #[test]
    fn cancel_twice_reports_false() {
        both(|mut q| {
            let id = q.push(ms(1), 1);
            assert!(q.cancel(id));
            assert!(!q.cancel(id));
            assert!(q.is_empty());
        });
    }

    #[test]
    fn cancel_after_clear_is_a_noop() {
        // Regression: the old Simulator-side tombstone set stranded
        // entries for events discarded by clear(); now clear() drops all
        // cancellation state with the events.
        both(|mut q| {
            let id = q.push(ms(5), 1);
            q.clear();
            assert!(!q.cancel(id), "cleared events cannot be cancelled");
            q.push(ms(1), 2);
            assert_eq!(q.pop().unwrap().2, 2);
            assert!(q.pop().is_none());
        });
    }

    #[test]
    fn cancel_of_min_refreshes_peek() {
        both(|mut q| {
            let a = q.push(ms(1), 1);
            q.push(ms(2), 2);
            assert_eq!(q.peek_time(), Some(ms(1)));
            assert!(q.cancel(a));
            assert_eq!(q.peek_time(), Some(ms(2)));
            assert_eq!(q.pop().unwrap().2, 2);
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
    fn calendar_resizes_through_growth_and_shrink() {
        let mut q: CalendarQueue<u64> = CalendarQueue::new();
        // Push far past the initial bucket count to force growth…
        for i in 0..10_000u64 {
            q.push(SimTime::from_nanos(i * 37), i);
        }
        // …then drain to force shrink, asserting exact order throughout.
        for i in 0..10_000u64 {
            let (_, _, e) = q.pop().expect("entry remains");
            assert_eq!(e, i, "37ns-spaced pushes pop in push order");
        }
        assert!(q.pop().is_none());
    }

    #[test]
    fn calendar_id_window_stays_bounded() {
        // Pending ids span a window; once they retire the window head
        // advances and memory is reclaimed.
        let mut q: CalendarQueue<u64> = CalendarQueue::new();
        for round in 0..100u64 {
            for i in 0..100 {
                q.push(SimTime::from_nanos(round * 1000 + i), i);
            }
            for _ in 0..100 {
                q.pop();
            }
            assert!(
                q.live.len() - q.head <= 100,
                "pending id window must not grow across rounds"
            );
            assert!(
                q.live.len() <= 400,
                "retired prefix must compact away (len {})",
                q.live.len()
            );
        }
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

    #[test]
    fn cancel_of_ready_entry_survives_ring_shrink() {
        // Regression: entries moved into the ready run keep stale bucket
        // hints; after cancels shrink the ring, a stale hint can point
        // past it. Cancel must fall through to the run, not panic.
        let mut q: CalendarQueue<u64> = CalendarQueue::new();
        let mut clump = Vec::new();
        for i in 0..8u64 {
            clump.push(q.push(SimTime::ZERO, i));
        }
        let mut spread = Vec::new();
        for i in 0..10_000u64 {
            spread.push(q.push(SimTime::from_nanos((i + 1) * 1_000), 100 + i));
        }
        // Move the t=0 clump into the ready run (hints go stale).
        assert_eq!(q.peek_time(), Some(SimTime::ZERO));
        // Cancel the spread so the ring shrinks far below the clump's
        // stale bucket indexes.
        for id in spread {
            assert!(q.cancel(id));
        }
        for id in clump {
            assert!(q.cancel(id), "ready-run entries remain cancellable");
        }
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn facade_kind_is_observable() {
        let q: EventQueue<u32> = EventQueue::new();
        assert_eq!(q.kind(), QueueKind::Calendar);
        let q: EventQueue<u32> = EventQueue::with_kind(QueueKind::BinaryHeap);
        assert_eq!(q.kind(), QueueKind::BinaryHeap);
    }
}
