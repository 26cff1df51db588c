//! # simcore — deterministic discrete-event simulation kernel
//!
//! The foundation of the CircuitStart reproduction: a small, strictly
//! deterministic discrete-event simulator in the spirit of ns-3's core,
//! designed around the event-driven philosophy of smoltcp — simple,
//! robust, no clever type machinery.
//!
//! ## Pieces
//!
//! * [`time`] — fixed-point nanosecond [`SimTime`](time::SimTime) /
//!   [`SimDuration`](time::SimDuration).
//! * [`event`] — a *stable* (FIFO for equal timestamps) priority queue of
//!   pending events.
//! * [`sim`] — the [`Simulator`](sim::Simulator) event loop and the
//!   [`World`](sim::World) trait implemented by models.
//! * [`rng`] — seeded, labelled-stream random numbers so experiments are
//!   reproducible bit-for-bit.
//! * [`exec`] — the runtime seam: an [`Executor`](exec::Executor) runs
//!   independent deterministic worlds either sequentially (the oracle)
//!   or across scoped worker threads, with outputs placed by job index
//!   so the choice is unobservable.
//!
//! ## Design rules
//!
//! 1. **Single ownership root.** All model state lives in one `World`
//!    value; events carry ids, not references.
//! 2. **Stable ordering.** Same-timestamp events fire in schedule order.
//! 3. **No wall clock, no threads, no global state — inside one world.**
//!    The event loop is strictly single-threaded: two runs with the same
//!    seed produce identical traces, byte for byte. Parallelism lives
//!    only *above* the loop ([`exec`]), across independent worlds, and
//!    is differentially tested to leave every output bit unchanged.
//!
//! ## Example
//!
//! ```
//! use simcore::prelude::*;
//!
//! struct Counter { fired: u32 }
//! impl World for Counter {
//!     type Event = ();
//!     fn handle(&mut self, ctx: &mut Context<'_, ()>, _: ()) {
//!         self.fired += 1;
//!         if self.fired < 3 {
//!             ctx.schedule_in(SimDuration::from_micros(100), ());
//!         }
//!     }
//! }
//!
//! let mut sim = Simulator::new(Counter { fired: 0 });
//! sim.schedule_at(SimTime::ZERO, ());
//! sim.run();
//! assert_eq!(sim.world().fired, 3);
//! assert_eq!(sim.now(), SimTime::from_micros(200));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod event;
pub mod exec;
pub mod rng;
pub mod sim;
pub mod time;

/// Convenience re-exports of the items almost every user needs.
pub mod prelude {
    pub use crate::event::QueueKind;
    pub use crate::exec::{DeterministicExecutor, Executor, ThreadedExecutor};
    pub use crate::rng::SimRng;
    pub use crate::sim::{Context, RunLimits, RunReport, Simulator, StopReason, World};
    pub use crate::time::{SimDuration, SimTime};
}

pub use event::{CalendarQueue, EventId, EventQueue, HeapQueue, QueueKind, QueueWork};
pub use exec::{execute_typed, DeterministicExecutor, Executor, ThreadedExecutor};
pub use rng::SimRng;
pub use sim::{Context, RunLimits, RunReport, Simulator, StopReason, World};
pub use time::{SimDuration, SimTime};
