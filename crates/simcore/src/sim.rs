//! The discrete-event simulation loop.
//!
//! Architecture (mirrors the event-driven style of ns-3 and smoltcp):
//!
//! * All mutable model state lives in a single **world** value supplied by
//!   the user. The world implements [`World`] and reacts to events.
//! * Events are plain values of the world's associated `Event` type. They
//!   carry ids/handles, never references, so the world remains a single
//!   ownership root — no `Rc<RefCell<…>>` graphs.
//! * The [`Simulator`] owns the world and a stable time-ordered
//!   [`EventQueue`]; it pops events one at a time, advances the virtual
//!   clock, and calls [`World::handle`] with a [`Context`] through which the
//!   handler schedules follow-up events.
//!
//! The loop is strictly single-threaded and, given a fixed seed for any
//! randomness inside the world, bit-for-bit deterministic.
//!
//! # Examples
//!
//! A ping-pong of two events until a counter runs out:
//!
//! ```
//! use simcore::sim::{Context, Simulator, StopReason, World};
//! use simcore::time::{SimDuration, SimTime};
//!
//! enum Ev { Ping, Pong }
//! struct PingPong { remaining: u32, pings: u32 }
//!
//! impl World for PingPong {
//!     type Event = Ev;
//!     fn handle(&mut self, ctx: &mut Context<'_, Ev>, ev: Ev) {
//!         match ev {
//!             Ev::Ping => {
//!                 self.pings += 1;
//!                 ctx.schedule_in(SimDuration::from_millis(1), Ev::Pong);
//!             }
//!             Ev::Pong => {
//!                 if self.remaining > 0 {
//!                     self.remaining -= 1;
//!                     ctx.schedule_in(SimDuration::from_millis(1), Ev::Ping);
//!                 }
//!             }
//!         }
//!     }
//! }
//!
//! let mut sim = Simulator::new(PingPong { remaining: 9, pings: 0 });
//! sim.schedule_at(SimTime::ZERO, Ev::Ping);
//! let report = sim.run();
//! assert_eq!(sim.world().pings, 10);
//! assert_eq!(report.reason, StopReason::QueueEmpty);
//! assert_eq!(sim.now(), SimTime::from_millis(19));
//! ```

use crate::event::{EventQueue, QueueKind, QueueWork};
use crate::time::{SimDuration, SimTime};

/// The simulation model: one value owning all mutable state, reacting to
/// events.
///
/// Handlers receive `&mut self` plus a [`Context`] for scheduling; they must
/// not block or perform wall-clock I/O (the simulator provides the only
/// clock that exists).
pub trait World {
    /// The event type dispatched to [`World::handle`].
    type Event;

    /// Reacts to one event at virtual time `ctx.now()`.
    fn handle(&mut self, ctx: &mut Context<'_, Self::Event>, event: Self::Event);
}

/// Why a call to one of the `run*` methods returned.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum StopReason {
    /// No pending events remain; the simulation has naturally quiesced.
    QueueEmpty,
    /// The configured time horizon was reached.
    TimeLimit,
    /// The configured maximum number of events was processed.
    EventLimit,
}

/// Summary of one `run*` invocation.
#[derive(Clone, Copy, Debug)]
pub struct RunReport {
    /// Why the run returned.
    pub reason: StopReason,
    /// Events processed *by this invocation*.
    pub events_processed: u64,
    /// Virtual clock value when the run returned.
    pub end_time: SimTime,
}

/// Scheduling capability handed to [`World::handle`].
///
/// Borrowing the queue (rather than the whole simulator) lets handlers
/// schedule while the world itself is mutably borrowed.
pub struct Context<'a, E> {
    now: SimTime,
    queue: &'a mut EventQueue<E>,
}

impl<'a, E> Context<'a, E> {
    /// The current virtual time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `event` at the absolute instant `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` lies in the past — time travel would silently corrupt
    /// causality, so it is rejected loudly.
    pub fn schedule_at(&mut self, at: SimTime, event: E) {
        assert!(
            at >= self.now,
            "cannot schedule an event in the past: now={}, requested={}",
            self.now,
            at
        );
        self.queue.push(at, event)
    }

    /// Schedules `event` after the relative delay `delay`. A zero delay
    /// runs it at the current instant, after every event already queued
    /// for this instant (FIFO among equal timestamps).
    pub fn schedule_in(&mut self, delay: SimDuration, event: E) {
        self.queue.push(self.now + delay, event)
    }
}

/// Limits for [`Simulator::run_with_limits`].
#[derive(Clone, Copy, Debug, Default)]
pub struct RunLimits {
    /// Process no event with a timestamp strictly greater than this.
    /// On return the clock is advanced to exactly this instant.
    pub until: Option<SimTime>,
    /// Process at most this many events in this invocation.
    pub max_events: Option<u64>,
}

/// A tracing probe: called with every event just before it is handled.
pub type Probe<E> = Box<dyn FnMut(SimTime, &E)>;

/// The event loop: owns the world, the clock, and the pending-event queue.
pub struct Simulator<W: World> {
    world: W,
    queue: EventQueue<W::Event>,
    now: SimTime,
    processed_total: u64,
    probe: Option<Probe<W::Event>>,
}

impl<W: World> Simulator<W> {
    /// Creates a simulator at time zero around `world`, with the default
    /// (calendar) event queue.
    pub fn new(world: W) -> Self {
        Self::with_queue(world, QueueKind::default())
    }

    /// Creates a simulator with an explicit event-queue implementation —
    /// the seam the differential determinism tests drive.
    pub fn with_queue(world: W, kind: QueueKind) -> Self {
        Simulator {
            world,
            queue: EventQueue::with_kind(kind),
            now: SimTime::ZERO,
            processed_total: 0,
            probe: None,
        }
    }

    /// The current virtual time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Shared access to the world.
    pub fn world(&self) -> &W {
        &self.world
    }

    /// Mutable access to the world (for setup and for reading results
    /// between runs).
    pub fn world_mut(&mut self) -> &mut W {
        &mut self.world
    }

    /// Consumes the simulator, returning the world.
    pub fn into_world(self) -> W {
        self.world
    }

    /// Total events processed over the lifetime of this simulator.
    pub fn events_processed(&self) -> u64 {
        self.processed_total
    }

    /// Number of currently pending (not yet fired) events.
    pub fn pending_events(&self) -> usize {
        self.queue.len()
    }

    /// The event queue's exact off-path work so far and the entry slots
    /// it reserves now ([`QueueWork`]). Fingerprint-neutral: reading it
    /// changes nothing simulated.
    pub fn queue_work(&self) -> QueueWork {
        self.queue.work()
    }

    /// Installs a probe called with every event just before it is handled.
    /// Intended for tracing and debugging; must not mutate model state.
    pub fn set_probe(&mut self, probe: Probe<W::Event>) {
        self.probe = Some(probe);
    }

    /// Schedules an event at an absolute instant (setup-time counterpart of
    /// [`Context::schedule_at`]).
    ///
    /// # Panics
    ///
    /// Panics if `at` lies in the past.
    pub fn schedule_at(&mut self, at: SimTime, event: W::Event) {
        assert!(
            at >= self.now,
            "cannot schedule an event in the past: now={}, requested={}",
            self.now,
            at
        );
        self.queue.push(at, event)
    }

    /// Schedules an event after a relative delay.
    pub fn schedule_in(&mut self, delay: SimDuration, event: W::Event) {
        self.queue.push(self.now + delay, event)
    }

    /// Processes exactly one event. Returns `false` if the queue is
    /// empty.
    pub fn step(&mut self) -> bool {
        let Some((time, _id, event)) = self.queue.pop() else {
            return false;
        };
        debug_assert!(
            time >= self.now,
            "event queue produced an out-of-order event"
        );
        self.now = time;
        if let Some(probe) = &mut self.probe {
            probe(time, &event);
        }
        let mut ctx = Context {
            now: self.now,
            queue: &mut self.queue,
        };
        self.world.handle(&mut ctx, event);
        self.processed_total += 1;
        true
    }

    /// Runs until no event is pending, so the report's reason is always
    /// [`StopReason::QueueEmpty`]; [`Simulator::run_with_limits`] bounds a
    /// run by time or event count, and [`Simulator::step`] by one event.
    pub fn run(&mut self) -> RunReport {
        self.run_with_limits(RunLimits::default())
    }

    /// Runs subject to the given limits. See [`RunLimits`].
    pub fn run_with_limits(&mut self, limits: RunLimits) -> RunReport {
        let start_processed = self.processed_total;
        if limits.until.is_none() && limits.max_events.is_none() {
            // Unbounded run: no horizon to compare against, so skip the
            // per-event peek and drive the queue straight through pop.
            while self.step() {}
            return RunReport {
                reason: StopReason::QueueEmpty,
                events_processed: self.processed_total - start_processed,
                end_time: self.now,
            };
        }
        let reason = loop {
            if let Some(max) = limits.max_events {
                if self.processed_total - start_processed >= max {
                    break StopReason::EventLimit;
                }
            }
            match self.queue.peek_time() {
                None => break StopReason::QueueEmpty,
                Some(t) => {
                    if let Some(horizon) = limits.until {
                        if t > horizon {
                            break StopReason::TimeLimit;
                        }
                    }
                }
            }
            if !self.step() {
                break StopReason::QueueEmpty;
            }
        };
        if reason == StopReason::TimeLimit
            || (reason == StopReason::QueueEmpty && limits.until.is_some())
        {
            // Advance the clock to the horizon so back-to-back bounded runs
            // observe continuous time.
            if let Some(horizon) = limits.until {
                if horizon > self.now {
                    self.now = horizon;
                }
            }
        }
        RunReport {
            reason,
            events_processed: self.processed_total - start_processed,
            end_time: self.now,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A world that records (time, value) for every event it sees and can
    /// schedule chains/fan-outs driven by the event value.
    #[derive(Default)]
    struct Recorder {
        seen: Vec<(SimTime, u32)>,
        chain_period: Option<SimDuration>,
        chain_left: u32,
    }

    impl World for Recorder {
        type Event = u32;
        fn handle(&mut self, ctx: &mut Context<'_, u32>, ev: u32) {
            self.seen.push((ctx.now(), ev));
            if let Some(p) = self.chain_period {
                if self.chain_left > 0 {
                    self.chain_left -= 1;
                    ctx.schedule_in(p, ev + 1);
                }
            }
        }
    }

    fn ms(v: u64) -> SimTime {
        SimTime::from_millis(v)
    }

    #[test]
    fn empty_run_reports_queue_empty() {
        let mut sim = Simulator::new(Recorder::default());
        let r = sim.run();
        assert_eq!(r.reason, StopReason::QueueEmpty);
        assert_eq!(r.events_processed, 0);
        assert_eq!(sim.now(), SimTime::ZERO);
    }

    #[test]
    fn events_fire_in_order_and_clock_advances() {
        let mut sim = Simulator::new(Recorder::default());
        sim.schedule_at(ms(5), 2);
        sim.schedule_at(ms(1), 1);
        sim.schedule_at(ms(9), 3);
        let r = sim.run();
        assert_eq!(r.events_processed, 3);
        assert_eq!(sim.world().seen, vec![(ms(1), 1), (ms(5), 2), (ms(9), 3)]);
        assert_eq!(sim.now(), ms(9));
    }

    #[test]
    fn chained_scheduling_from_handler() {
        let mut sim = Simulator::new(Recorder {
            chain_period: Some(SimDuration::from_millis(10)),
            chain_left: 4,
            ..Default::default()
        });
        sim.schedule_at(SimTime::ZERO, 0);
        sim.run();
        let values: Vec<u32> = sim.world().seen.iter().map(|&(_, v)| v).collect();
        assert_eq!(values, vec![0, 1, 2, 3, 4]);
        assert_eq!(sim.now(), ms(40));
    }

    fn until(horizon: SimTime) -> RunLimits {
        RunLimits {
            until: Some(horizon),
            max_events: None,
        }
    }

    #[test]
    fn horizon_stops_the_run_and_resumes() {
        let mut sim = Simulator::new(Recorder {
            chain_period: Some(SimDuration::from_millis(10)),
            chain_left: 100,
            ..Default::default()
        });
        sim.schedule_at(SimTime::ZERO, 0);
        let r = sim.run_with_limits(until(ms(35)));
        assert_eq!(r.reason, StopReason::TimeLimit);
        assert_eq!(sim.world().seen.len(), 4); // t = 0, 10, 20, 30
        assert_eq!(sim.now(), ms(35)); // clock parked exactly at horizon
        let r2 = sim.run_with_limits(until(ms(55)));
        assert_eq!(r2.reason, StopReason::TimeLimit);
        assert_eq!(sim.world().seen.len(), 6); // + t = 40, 50
    }

    #[test]
    fn horizon_with_empty_queue_advances_clock() {
        let mut sim = Simulator::new(Recorder::default());
        let r = sim.run_with_limits(until(ms(123)));
        assert_eq!(r.reason, StopReason::QueueEmpty);
        assert_eq!(sim.now(), ms(123));
    }

    #[test]
    fn event_limit() {
        let mut sim = Simulator::new(Recorder {
            chain_period: Some(SimDuration::from_millis(1)),
            chain_left: u32::MAX,
            ..Default::default()
        });
        sim.schedule_at(SimTime::ZERO, 0);
        let r = sim.run_with_limits(RunLimits {
            until: None,
            max_events: Some(7),
        });
        assert_eq!(r.reason, StopReason::EventLimit);
        assert_eq!(r.events_processed, 7);
        assert_eq!(sim.world().seen.len(), 7);
    }

    #[test]
    fn runs_identically_on_both_queue_kinds() {
        use crate::event::QueueKind;
        let run = |kind| {
            let mut sim = Simulator::with_queue(
                Recorder {
                    chain_period: Some(SimDuration::from_millis(3)),
                    chain_left: 50,
                    ..Default::default()
                },
                kind,
            );
            sim.schedule_at(SimTime::ZERO, 0);
            sim.run();
            sim.into_world().seen
        };
        assert_eq!(run(QueueKind::Calendar), run(QueueKind::BinaryHeap));
    }

    #[test]
    #[should_panic(expected = "cannot schedule an event in the past")]
    fn scheduling_in_the_past_panics() {
        let mut sim = Simulator::new(Recorder::default());
        sim.schedule_at(ms(10), 1);
        sim.run();
        sim.schedule_at(ms(5), 2);
    }

    #[test]
    fn zero_delay_runs_fifo_at_same_instant() {
        struct FanOut {
            seen: Vec<u32>,
        }
        impl World for FanOut {
            type Event = u32;
            fn handle(&mut self, ctx: &mut Context<'_, u32>, ev: u32) {
                self.seen.push(ev);
                if ev == 0 {
                    ctx.schedule_in(SimDuration::ZERO, 10);
                    ctx.schedule_in(SimDuration::ZERO, 11);
                }
            }
        }
        let mut sim = Simulator::new(FanOut { seen: vec![] });
        sim.schedule_at(SimTime::ZERO, 0);
        sim.schedule_at(SimTime::ZERO, 1);
        sim.run();
        // Event 1 was queued before the handler of 0 pushed 10/11, so FIFO
        // at the same instant yields 0, 1, 10, 11.
        assert_eq!(sim.world().seen, vec![0, 1, 10, 11]);
    }

    #[test]
    fn probe_observes_every_event() {
        use std::cell::RefCell;
        use std::rc::Rc;
        let log: Rc<RefCell<Vec<u32>>> = Rc::default();
        let log2 = log.clone();
        let mut sim = Simulator::new(Recorder::default());
        sim.set_probe(Box::new(move |_, ev| log2.borrow_mut().push(*ev)));
        sim.schedule_at(ms(1), 7);
        sim.schedule_at(ms(2), 8);
        sim.run();
        assert_eq!(*log.borrow(), vec![7, 8]);
    }

    #[test]
    fn step_returns_false_on_empty() {
        let mut sim = Simulator::new(Recorder::default());
        assert!(!sim.step());
        sim.schedule_at(ms(1), 1);
        assert!(sim.step());
        assert!(!sim.step());
    }

    #[test]
    fn processed_total_accumulates_across_runs() {
        let mut sim = Simulator::new(Recorder::default());
        sim.schedule_at(ms(1), 1);
        sim.run();
        sim.schedule_at(ms(2), 2);
        sim.run();
        assert_eq!(sim.events_processed(), 2);
    }

    #[test]
    fn into_world_returns_state() {
        let mut sim = Simulator::new(Recorder::default());
        sim.schedule_at(ms(1), 42);
        sim.run();
        let world = sim.into_world();
        assert_eq!(world.seen, vec![(ms(1), 42)]);
    }
}
