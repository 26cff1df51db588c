//! Differential property suite: the calendar queue and the binary heap
//! must be observationally identical. Seeded (`SimRng`-driven) operation
//! sequences are replayed against both implementations, asserting
//! identical `(time, id, event)` pop sequences, identical peeks and
//! identical lengths. Two shapes of sequence: arbitrary interleavings of
//! push / pop / peek / len at arbitrary times (including below the last
//! popped time), and the hold model the simulator actually produces —
//! pop the earliest event, push its successor at `popped + d` — alone and
//! with a stream of far-future timers on top.

use simcore::event::{CalendarQueue, HeapQueue};
use simcore::rng::SimRng;
use simcore::time::SimTime;

/// One scripted operation, generated once and applied to both queues.
#[derive(Clone, Copy, Debug)]
enum Op {
    Push(u64),
    Pop,
    Peek,
    Len,
}

fn arb_op(rng: &mut SimRng, time_scale: u64) -> Op {
    match rng.range_u64(0, 100) {
        0..=49 => Op::Push(rng.range_u64(0, time_scale)),
        50..=84 => Op::Pop,
        85..=92 => Op::Peek,
        _ => Op::Len,
    }
}

/// Pops both queues until empty; the remaining sequences must match.
fn drain_identically(cal: &mut CalendarQueue<u64>, heap: &mut HeapQueue<u64>, seed: u64) {
    loop {
        let a = cal.pop();
        assert_eq!(a, heap.pop(), "seed {seed}: drain diverges");
        if a.is_none() {
            break;
        }
    }
}

/// Applies `ops` random operations to both queues in lockstep, asserting
/// equality of every observable result.
fn run_differential(seed: u64, ops: usize, time_scale: u64) {
    let mut rng = SimRng::seed_from(seed);
    let mut cal: CalendarQueue<u64> = CalendarQueue::new();
    let mut heap: HeapQueue<u64> = HeapQueue::new();
    let mut payload: u64 = 0;

    for step in 0..ops {
        match arb_op(&mut rng, time_scale) {
            Op::Push(t) => {
                payload += 1;
                let time = SimTime::from_nanos(t);
                cal.push(time, payload);
                heap.push(time, payload);
            }
            Op::Pop => {
                assert_eq!(
                    cal.pop(),
                    heap.pop(),
                    "seed {seed} step {step}: pops diverge"
                );
            }
            Op::Peek => {
                assert_eq!(
                    cal.peek_time(),
                    heap.peek_time(),
                    "seed {seed} step {step}: peeks diverge"
                );
            }
            Op::Len => {
                assert_eq!(
                    cal.len(),
                    heap.len(),
                    "seed {seed} step {step}: lens diverge"
                );
                assert_eq!(cal.is_empty(), heap.is_empty());
            }
        }
    }
    drain_identically(&mut cal, &mut heap, seed);
}

#[test]
fn random_interleavings_match_across_seeds() {
    for seed in 0..20 {
        run_differential(0xD1FF_0000 + seed, 4_000, 1_000_000);
    }
}

#[test]
fn clustered_times_match() {
    // Few distinct instants — the regime that exercises same-time FIFO
    // runs and the width estimator's duplicate detection.
    for seed in 0..10 {
        run_differential(0xC1_0000 + seed, 4_000, 50);
    }
}

#[test]
fn wide_time_range_matches() {
    // Sparse far-future events exercise the empty-year global-scan path.
    for seed in 0..10 {
        run_differential(0x31DE_0000 + seed, 2_000, u64::MAX / 4);
    }
}

/// One push of a hold run: the delay after the popped time, and how many
/// events were pending when it was pushed.
struct HoldPush {
    delay: u64,
    pending: usize,
}

/// The simulator's access pattern: seed `population` events, then `ops`
/// times pop the earliest and push a successor at `popped + d`, with `d`
/// zero (a same-instant follow-up), a few ns, or wide (a timer). On
/// `far_percent` of the pops it also arms a timer 100–600 ms ahead (a
/// circuit's build or liveness timer); in the larger populations these
/// pile up as a far-future tail. Returns the push log of the successors.
fn run_hold(seed: u64, population: usize, ops: usize, far_percent: u64) -> Vec<HoldPush> {
    const WIDE: u64 = 10_000_000;
    const FAR: (u64, u64) = (100_000_000, 600_000_000);
    let mut rng = SimRng::seed_from(seed);
    let mut cal: CalendarQueue<u64> = CalendarQueue::new();
    let mut heap: HeapQueue<u64> = HeapQueue::new();
    for i in 0..population as u64 {
        let time = SimTime::from_nanos(rng.range_u64(0, 10_000));
        cal.push(time, i);
        heap.push(time, i);
    }
    let mut log = Vec::with_capacity(ops);
    for step in 0..ops {
        let popped = cal.pop();
        assert_eq!(popped, heap.pop(), "seed {seed} step {step}: pops diverge");
        let (time, _, event) = popped.expect("the population never drains");
        if rng.range_u64(0, 100) < far_percent {
            let at = SimTime::from_nanos(time.as_nanos() + rng.range_u64(FAR.0, FAR.1));
            cal.push(at, event);
            heap.push(at, event);
        }
        let delay = match rng.range_u64(0, 3) {
            0 => 0,
            1 => rng.range_u64(1, 8),
            _ => rng.range_u64(0, WIDE),
        };
        log.push(HoldPush {
            delay,
            pending: cal.len(),
        });
        let at = SimTime::from_nanos(time.as_nanos() + delay);
        cal.push(at, event + 1);
        heap.push(at, event + 1);
    }
    drain_identically(&mut cal, &mut heap, seed);
    log
}

#[test]
fn hold_model_matches() {
    let mut log = Vec::new();
    for (i, population) in [1usize, 8, 64, 1_000, 10_000].into_iter().enumerate() {
        for seed in 0..4u64 {
            log.extend(run_hold(
                0x401D_0000 + 16 * i as u64 + seed,
                population,
                10_000,
                0,
            ));
        }
    }
    // Zero-delay pushes into a non-empty queue are what lands inside the
    // calendar's ready run (its merge-insert path); the suite is only
    // worth its name if it produced them.
    let merges = log.iter().filter(|p| p.delay == 0 && p.pending > 0).count();
    assert!(
        merges > 1_000,
        "only {merges} zero-delay pushes into a non-empty queue"
    );
}

#[test]
fn hold_model_with_far_future_timers_matches() {
    // The population the width rule cuts its far-future tail from: µs to
    // ms-spaced hold events with 1–5% of pops arming a 100–600 ms timer.
    for (i, population) in [64usize, 1_000, 10_000].into_iter().enumerate() {
        for far_percent in [1, 3, 5] {
            run_hold(
                0xFA2_0000 + 16 * i as u64 + far_percent,
                population,
                20_000,
                far_percent,
            );
        }
    }
}
