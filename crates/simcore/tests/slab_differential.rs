//! Differential property suite for `simcore::slab`. Seeded
//! (`SimRng`-driven) operation sequences run on a `Slab` against a model
//! of its slots and its last-freed-first free list, and on `Lists`
//! against a `VecDeque` per list, asserting identical slots, values,
//! pops, tails and counts; half the list traffic goes slot by slot
//! (store, link, unlink, move to another list, remove). Each run alternates growth phases, which carry the
//! population across the doubling-to-steps boundary and several steps
//! past it, with shrink phases that hand freed slots back for reuse;
//! lists are drained part-way and emptied along the way. A `Slab` run
//! also forks its slab mid-run and drives both copies in lockstep: a
//! copy reserves what its original reserves, so the two grow alike.

use std::collections::VecDeque;

use simcore::rng::SimRng;
use simcore::slab::{List, Lists, Slab, SlabUse, STEP};

/// Operations per growth or shrink phase: a growth phase alone takes
/// the population past two steps.
const PHASE: usize = 4_000;

/// Whether operation `op` falls in a shrink phase.
fn shrinking(op: usize) -> bool {
    (op / PHASE) % 2 == 1
}

/// Percent of operations that insert: most in a growth phase, few in a
/// shrink phase.
fn insert_share(op: usize) -> u64 {
    if shrinking(op) {
        25
    } else {
        85
    }
}

/// The bound every slab keeps: at most one step past its high water,
/// and before the first step, a power of two.
fn assert_within_a_step(usage: SlabUse, seed: u64, op: usize) {
    assert!(
        usage.reserved <= usage.high_water + STEP,
        "seed {seed} op {op}: {usage:?}"
    );
    if usage.reserved < STEP {
        assert!(usage.reserved == 0 || usage.reserved.is_power_of_two());
    }
}

/// `slab` holds what `model` holds, slot by slot and in `values()`;
/// `try_get` finds nothing in a free slot or past the high water.
fn assert_slots_match(slab: &Slab<u64>, model: &[Option<u64>], seed: u64, op: usize) {
    for (slot, value) in (0..).zip(model) {
        assert_eq!(
            slab.try_get(slot),
            value.as_ref(),
            "seed {seed} op {op}: slot {slot}"
        );
    }
    assert_eq!(
        slab.try_get(model.len() as u32),
        None,
        "seed {seed} op {op}"
    );
    assert_eq!(slab.try_get(u32::MAX), None, "seed {seed} op {op}");
    assert!(
        slab.values().eq(model.iter().flatten()),
        "seed {seed} op {op}"
    );
}

/// `Slab` against its model: slot `i` holds `model[i]`, and an insert
/// takes the most recently freed slot, or a new one past the high water.
/// From a shrink phase mid-run, a clone takes every operation too.
fn run_slab(seed: u64, ops: usize) {
    let mut rng = SimRng::seed_from(seed);
    let mut slab: Slab<u64> = Slab::default();
    let mut fork: Option<Slab<u64>> = None;
    let mut model: Vec<Option<u64>> = Vec::new();
    let mut free: Vec<u32> = Vec::new();
    let mut held: Vec<u32> = Vec::new();
    for op in 0..ops {
        if op == ops * 3 / 8 {
            fork = Some(slab.clone());
        }
        if held.is_empty() || rng.range_u64(0, 100) < insert_share(op) {
            let value = rng.u64();
            let slot = slab.insert(value);
            let expected = free.pop().unwrap_or(model.len() as u32);
            assert_eq!(slot, expected, "seed {seed} op {op}: slot reuse order");
            if let Some(fork) = &mut fork {
                assert_eq!(fork.insert(value), slot, "seed {seed} op {op}: fork");
            }
            if slot as usize == model.len() {
                model.push(None);
            }
            model[slot as usize] = Some(value);
            assert_eq!(slab.try_get(slot), Some(&value));
            held.push(slot);
        } else {
            let slot = held.swap_remove(rng.range_usize(0, held.len()));
            let value = model[slot as usize].take();
            assert_eq!(Some(slab.remove(slot)), value, "seed {seed} op {op}");
            if let Some(fork) = &mut fork {
                assert_eq!(Some(fork.remove(slot)), value, "seed {seed} op {op}: fork");
            }
            assert_eq!(slab.try_get(slot), None, "seed {seed} op {op}: freed");
            free.push(slot);
        }
        if let Some(&slot) = held.last() {
            *slab.get_mut(slot) ^= 1;
            if let Some(fork) = &mut fork {
                *fork.get_mut(slot) ^= 1;
            }
            let value = model[slot as usize].as_mut().expect("held");
            *value ^= 1;
            assert_eq!(slab.get(slot), value);
        }
        let usage = slab.usage();
        assert_eq!((usage.held, usage.high_water), (held.len(), model.len()));
        assert_within_a_step(usage, seed, op);
        if let Some(fork) = &fork {
            assert_eq!(fork.usage(), usage, "seed {seed} op {op}: fork");
            assert_eq!(fork.reserved_bytes(), slab.reserved_bytes());
        }
        if op % 997 == 0 {
            assert_slots_match(&slab, &model, seed, op);
        }
    }
    assert_slots_match(&slab, &model, seed, ops);
    assert_slots_match(&fork.expect("forked mid-run"), &model, seed, ops);
    assert!(
        model.len() > 2 * STEP,
        "seed {seed}: the run never went two steps past the doubling"
    );
}

/// `Lists` against a `VecDeque` per list.
fn run_lists(seed: u64, ops: usize, lists: usize) {
    let mut rng = SimRng::seed_from(seed);
    let mut slab: Lists<u64> = Lists::default();
    let mut ends = vec![List::EMPTY; lists];
    let mut model = vec![VecDeque::new(); lists];
    let (mut next, mut high_water) = (0u64, 0usize);
    for op in 0..ops {
        let l = rng.range_usize(0, lists);
        match rng.range_u64(0, 100) {
            // Every other value is stored first and linked by slot.
            x if x < insert_share(op) => {
                if next % 2 == 0 {
                    slab.push_back(&mut ends[l], next);
                } else {
                    let slot = slab.insert(next);
                    slab.link_back(&mut ends[l], slot);
                }
                model[l].push_back(next);
                next += 1;
            }
            // Every other pop unlinks by slot, then moves the value to
            // the back of another list or takes it out.
            x if x < 98 || !shrinking(op) => {
                if x % 2 == 0 {
                    let popped = slab.pop_front(&mut ends[l]);
                    assert_eq!(popped, model[l].pop_front(), "seed {seed} op {op}");
                } else if let Some(slot) = slab.unlink_front(&mut ends[l]) {
                    let value = model[l].pop_front();
                    assert_eq!(Some(slab.get(slot)), value.as_ref(), "seed {seed} op {op}");
                    if x % 3 == 0 {
                        let to = rng.range_usize(0, lists);
                        slab.link_back(&mut ends[to], slot);
                        model[to].extend(value);
                    } else {
                        assert_eq!(Some(slab.remove(slot)), value, "seed {seed} op {op}");
                    }
                } else {
                    assert!(model[l].is_empty(), "seed {seed} op {op}");
                }
            }
            // While shrinking, drain the list part-way, or empty it.
            x => {
                let take = if x == 98 {
                    model[l].len() / 2
                } else {
                    model[l].len()
                };
                for _ in 0..take {
                    let popped = slab.pop_front(&mut ends[l]);
                    assert_eq!(popped, model[l].pop_front(), "seed {seed} op {op}");
                }
            }
        }
        assert_eq!(ends[l].is_empty(), model[l].is_empty());
        assert_eq!(
            ends[l].back().map(|slot| slab.get(slot)),
            model[l].back(),
            "seed {seed} op {op}"
        );
        let usage = slab.usage();
        let held: usize = model.iter().map(VecDeque::len).sum();
        high_water = high_water.max(held);
        assert_eq!((usage.held, usage.high_water), (held, high_water));
        assert_within_a_step(usage, seed, op);
        if op % 997 == 0 {
            for (end, deque) in ends.iter().zip(&model) {
                assert!(slab.iter(*end).eq(deque.iter()), "seed {seed} op {op}");
            }
        }
    }
    for (end, deque) in ends.iter_mut().zip(&mut model) {
        while let Some(value) = deque.pop_front() {
            assert_eq!(slab.pop_front(end), Some(value), "seed {seed}: final drain");
        }
        assert_eq!(slab.pop_front(end), None);
        assert!(end.is_empty());
    }
    assert_eq!(slab.usage().held, 0);
    assert!(
        high_water > 2 * STEP,
        "seed {seed}: the run never went two steps past the doubling"
    );
}

#[test]
fn slab_slots_and_values_match_the_model() {
    for seed in 0..6 {
        run_slab(0x51AB_0000 + seed, 4 * PHASE);
    }
}

#[test]
fn lists_match_a_deque_per_list() {
    for (seed, lists) in (0..6).zip([1, 2, 7, 16, 64, 300]) {
        run_lists(0x1157_0000 + seed, 4 * PHASE, lists);
    }
}

/// The long form: many more seeds and phases.
#[test]
#[ignore = "long form: cargo test --release -p simcore --test slab_differential -- --ignored"]
fn long_form_matches_across_many_seeds() {
    for seed in 0..64 {
        run_slab(0x51AB_1000 + seed, 40 * PHASE);
        run_lists(0x1157_1000 + seed, 40 * PHASE, 1 + seed as usize * 5);
    }
}
