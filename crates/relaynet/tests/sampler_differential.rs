//! The sampler seam, differentially: the Fenwick tree every world
//! places through must reproduce the `LinearSampler` oracle **pick for
//! pick** — same draws, same RNG consumption, same maintained totals —
//! over random directories, zero-weight patterns, and incremental
//! update storms that issue every load, liveness and blame update a
//! world issues (DESIGN.md §11).

use simcore::rng::SimRng;
use simcore::time::SimDuration;

use relaynet::directory::{Directory, DirectoryConfig};
use relaynet::sampler::{Sampler, SamplerKind};
use relaynet::selection::{all_policies, select, DirectoryView, SelectionEngine};

/// Integer-quantized weights drawn like a consensus: log-uniform
/// bandwidths, with a configurable fraction zeroed (dead relays).
fn random_weights(n: usize, zero_fraction: f64, rng: &mut SimRng) -> Vec<f64> {
    let zeros = ((n as f64) * zero_fraction) as usize;
    let dark: Vec<usize> = rng.sample_distinct(n, zeros);
    let mut w: Vec<f64> = (0..n)
        .map(|_| rng.range_f64(1.0, 125_000_000.0).round())
        .collect();
    for &i in &dark {
        w[i] = 0.0;
    }
    w
}

#[test]
fn fenwick_matches_linear_pick_for_pick() {
    // 3 seeds × 4 sizes × 3 zero-weight patterns, 200 draw rounds each.
    for seed in [11u64, 47, 1003] {
        for n in [5usize, 64, 257, 1024] {
            for zero_fraction in [0.0, 0.25, 0.6] {
                let mut setup = SimRng::seed_from(seed ^ (n as u64) << 8);
                let weights = random_weights(n, zero_fraction, &mut setup);
                let positive = weights.iter().filter(|&&w| w > 0.0).count();
                let k = 3.min(positive);
                if k == 0 {
                    continue;
                }
                let mut lin = Sampler::build(SamplerKind::Linear, &weights);
                let mut fen = Sampler::build(SamplerKind::Fenwick, &weights);
                let mut rng_l = SimRng::seed_from(seed.wrapping_mul(31));
                let mut rng_f = rng_l.clone();
                let mut picks_l = Vec::new();
                let mut picks_f = Vec::new();
                for round in 0..200 {
                    lin.draw_distinct(&mut rng_l, k, &mut picks_l);
                    fen.draw_distinct(&mut rng_f, k, &mut picks_f);
                    assert_eq!(
                        picks_l, picks_f,
                        "seed {seed} n {n} zeros {zero_fraction} round {round}"
                    );
                    assert_eq!(lin.total(), fen.total(), "totals diverged");
                    assert_eq!(lin.selectable(), fen.selectable());
                }
                // Identical RNG consumption: both streams sit at the
                // same point, so a shared draw still agrees.
                assert_eq!(
                    rng_l.range_f64(0.0, 1e9),
                    rng_f.range_f64(0.0, 1e9),
                    "samplers consumed different amounts of randomness"
                );
            }
        }
    }
}

#[test]
fn incremental_updates_match_a_full_rebuild() {
    // Storm of point updates against both implementations, then verify
    // each against a from-scratch rebuild of the same weight vector:
    // the maintained state (weights, total, selectable count) and the
    // next draws must be indistinguishable from a fresh build.
    for seed in [3u64, 91, 777] {
        let mut setup = SimRng::seed_from(seed);
        let n = 300;
        let mut weights = random_weights(n, 0.3, &mut setup);
        let mut lin = Sampler::build(SamplerKind::Linear, &weights);
        let mut fen = Sampler::build(SamplerKind::Fenwick, &weights);
        for _ in 0..2000 {
            let i = setup.range_usize(0, n);
            // Mix zeroing (departures), revivals, and load-style bumps.
            let w = match setup.range_usize(0, 3) {
                0 => 0.0,
                1 => setup.range_f64(1.0, 125_000_000.0).round(),
                _ => (weights[i] / 2.0).round(),
            };
            weights[i] = w;
            lin.set(i, w);
            fen.set(i, w);
        }
        let rebuilt = Sampler::build(SamplerKind::Fenwick, &weights);
        assert_eq!(fen.total(), rebuilt.total(), "seed {seed}: total drifted");
        assert_eq!(fen.selectable(), rebuilt.selectable());
        for (i, &w) in weights.iter().enumerate() {
            assert_eq!(lin.weight(i), w);
            assert_eq!(fen.weight(i), w);
        }
        let k = 3.min(fen.selectable());
        if k > 0 {
            let mut rng_a = SimRng::seed_from(seed + 1);
            let mut rng_b = rng_a.clone();
            let mut rng_c = rng_a.clone();
            let (mut a, mut b, mut c) = (Vec::new(), Vec::new(), Vec::new());
            let mut rebuilt = rebuilt;
            lin.draw_distinct(&mut rng_a, k, &mut a);
            fen.draw_distinct(&mut rng_b, k, &mut b);
            rebuilt.draw_distinct(&mut rng_c, k, &mut c);
            assert_eq!(a, b);
            assert_eq!(b, c, "incrementally maintained ≠ rebuilt");
        }
    }
}

#[test]
fn engine_matches_policy_over_generated_directories() {
    // End-to-end: for every shipped policy, the incremental engine over
    // either sampler must reproduce a from-scratch `select` exactly
    // while load, liveness and blame churn underneath — the three
    // updates a world routes into its engine — 3 seeds each.
    for seed in [5u64, 29, 403] {
        for kind in [SamplerKind::Linear, SamplerKind::Fenwick] {
            for policy in all_policies() {
                let mut dir = Directory::generate(
                    &DirectoryConfig {
                        relays: 120,
                        ..DirectoryConfig::default()
                    },
                    &SimRng::seed_from(seed),
                );
                let mut load = vec![0u32; dir.len()];
                let mut excluded = vec![false; dir.len()];
                let mut engine = SelectionEngine::new(
                    policy.as_ref(),
                    &DirectoryView::with_exclusions(&dir, &load, &excluded),
                    kind,
                );
                let mut rng_a = SimRng::seed_from(seed ^ 0xFEED);
                let mut rng_b = rng_a.clone();
                let mut mutate = SimRng::seed_from(seed + 7);
                for round in 0..150 {
                    let view = DirectoryView::with_exclusions(&dir, &load, &excluded);
                    let want = select(policy.as_ref(), &view, &mut rng_a, 3);
                    let got = engine.select(policy.as_ref(), &view, &mut rng_b, 3);
                    assert_eq!(
                        got,
                        want.as_slice(),
                        "{} {kind:?} seed {seed} round {round}",
                        policy.name()
                    );
                    // Load increments/decrements like the placement ledger.
                    for &r in got {
                        load[r] += 1;
                    }
                    let picked: Vec<usize> = got.to_vec();
                    for r in picked {
                        engine.load_changed(
                            policy.as_ref(),
                            &DirectoryView::with_exclusions(&dir, &load, &excluded),
                            r,
                        );
                    }
                    if round % 20 == 19 {
                        let d = mutate.range_usize(0, dir.len());
                        let next = !dir.is_live(d);
                        dir.set_live(d, next);
                        engine.relay_changed(
                            policy.as_ref(),
                            &DirectoryView::with_exclusions(&dir, &load, &excluded),
                            d,
                        );
                    }
                    // Blame after a circuit timeout, and its reversal.
                    if round % 10 == 4 {
                        let b = mutate.range_usize(0, dir.len());
                        excluded[b] = !excluded[b];
                        engine.relay_changed(
                            policy.as_ref(),
                            &DirectoryView::with_exclusions(&dir, &load, &excluded),
                            b,
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn draw_without_replacement_restores_the_sampler() {
    // Exhaustive draws must leave the sampler exactly as built: the
    // undo stack puts every zeroed weight back, and integer exactness
    // returns the total to its original value bit for bit.
    let weights: Vec<f64> = (1..=40).map(|i| (i * 1000) as f64).collect();
    for kind in [SamplerKind::Linear, SamplerKind::Fenwick] {
        let mut s = Sampler::build(kind, &weights);
        let total = s.total();
        let mut rng = SimRng::seed_from(77);
        let mut out = Vec::new();
        for _ in 0..50 {
            s.draw_distinct(&mut rng, weights.len(), &mut out);
            let mut sorted = out.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, (0..weights.len()).collect::<Vec<_>>());
            assert_eq!(s.total(), total, "{kind:?}: total not restored");
            assert_eq!(s.selectable(), weights.len());
        }
    }
}

#[test]
fn dark_relays_draw_identically_to_a_dense_directory() {
    // Liveness zeroing must not perturb the draw sequence relative to a
    // directory that never contained the dark relays (indices remapped)
    // — zero weights are exact no-ops in every prefix sum.
    let mut dir = Directory::from_specs(
        (1..=12u64)
            .map(|i| relaynet::RelaySpec {
                bandwidth: netsim::bandwidth::Bandwidth::from_mbps(10 * i),
                delay: SimDuration::from_millis(i),
            })
            .collect(),
    );
    let dense = Directory::from_specs(
        (1..=12u64)
            .filter(|i| i % 3 != 0)
            .map(|i| relaynet::RelaySpec {
                bandwidth: netsim::bandwidth::Bandwidth::from_mbps(10 * i),
                delay: SimDuration::from_millis(i),
            })
            .collect(),
    );
    for i in (2..12).step_by(3) {
        dir.set_live(i, false); // every i with (i+1) % 3 == 0 goes dark
    }
    let sparse_to_dense: Vec<usize> = (0..12).filter(|i| (i + 1) % 3 != 0).enumerate().fold(
        vec![usize::MAX; 12],
        |mut m, (d, s)| {
            m[s] = d;
            m
        },
    );
    let load_a = vec![0u32; dir.len()];
    let load_b = vec![0u32; dense.len()];
    let policy = relaynet::BandwidthWeighted;
    let mut rng_a = SimRng::seed_from(13);
    let mut rng_b = rng_a.clone();
    for _ in 0..100 {
        let a = select(&policy, &DirectoryView::new(&dir, &load_a), &mut rng_a, 3);
        let b = select(&policy, &DirectoryView::new(&dense, &load_b), &mut rng_b, 3);
        let a_mapped: Vec<usize> = a.iter().map(|&i| sparse_to_dense[i]).collect();
        assert_eq!(a_mapped, b, "dark relays perturbed the draws");
    }
}
