//! Property tests for the wire codec and onion layering: round-trips for
//! *every* representable cell, and detection of corruption. These
//! properties license the simulator's structured-cell fast path.
//!
//! Generation is driven by [`simcore::rng::SimRng`] from fixed seeds —
//! the same randomized coverage as a proptest suite, but reproducible
//! bit-for-bit and free of external dependencies.

use simcore::rng::SimRng;
use torcell::prelude::*;

const CASES: usize = 256;

fn arb_relay_command(rng: &mut SimRng) -> RelayCommand {
    const ALL: [RelayCommand; 7] = [
        RelayCommand::Begin,
        RelayCommand::Data,
        RelayCommand::End,
        RelayCommand::Connected,
        RelayCommand::Sendme,
        RelayCommand::Extend,
        RelayCommand::Extended,
    ];
    ALL[rng.range_usize(0, ALL.len())]
}

fn arb_bytes(rng: &mut SimRng, min: usize, max_inclusive: usize) -> Vec<u8> {
    let len = rng.range_usize(min, max_inclusive + 1);
    let mut data = vec![0u8; len];
    rng.fill_bytes(&mut data);
    data
}

fn arb_handshake(rng: &mut SimRng) -> [u8; HANDSHAKE_LEN] {
    let mut hs = [0u8; HANDSHAKE_LEN];
    rng.fill_bytes(&mut hs);
    hs
}

fn arb_cell(rng: &mut SimRng) -> Cell {
    let circ = CircuitId(rng.u32());
    match rng.range_usize(0, 5) {
        0 => Cell::create(circ, arb_handshake(rng)),
        1 => Cell::created(circ, arb_handshake(rng)),
        2 => Cell::destroy(circ, (rng.u32() & 0xFF) as u8),
        3 => Cell {
            circ,
            body: CellBody::Padding,
        },
        _ => {
            let data = arb_bytes(rng, 0, RELAY_DATA_MAX);
            Cell {
                circ,
                body: CellBody::Relay(RelayCell {
                    cmd: arb_relay_command(rng),
                    stream: StreamId((rng.u32() & 0xFFFF) as u16),
                    digest: payload_digest(&data),
                    data,
                }),
            }
        }
    }
}

#[test]
fn cell_round_trip() {
    let mut rng = SimRng::seed_from(0xC0DEC);
    for _ in 0..CASES {
        let cell = arb_cell(&mut rng);
        let wire = encode_cell(&cell);
        assert_eq!(wire.len(), CELL_LEN);
        let decoded = decode_cell(&wire).expect("decode");
        assert_eq!(decoded, cell);
    }
}

#[test]
fn encoding_is_injective_on_distinct_cells() {
    let mut rng = SimRng::seed_from(0x1A1A);
    for _ in 0..CASES {
        let a = arb_cell(&mut rng);
        let b = arb_cell(&mut rng);
        let ea = encode_cell(&a);
        let eb = encode_cell(&b);
        if a == b {
            assert_eq!(ea, eb);
        } else {
            assert_ne!(ea, eb, "distinct cells must encode differently");
        }
    }
}

#[test]
fn feedback_round_trip() {
    let mut rng = SimRng::seed_from(0xFB);
    for _ in 0..CASES {
        let fb = Feedback {
            circ: CircuitId(rng.u32()),
            seq: rng.u64(),
        };
        let wire = encode_feedback(&fb);
        assert_eq!(wire.len(), FEEDBACK_WIRE_LEN);
        assert_eq!(decode_feedback(&wire), Ok(fb));
    }
}

#[test]
fn feedback_corruption_is_detected() {
    let mut rng = SimRng::seed_from(0xBADF);
    for _ in 0..CASES {
        let fb = Feedback {
            circ: CircuitId(rng.u32()),
            seq: rng.u64(),
        };
        let flip_byte = rng.range_usize(0, FEEDBACK_WIRE_LEN);
        let flip_bits = rng.range_u64(1, 256) as u8;
        let mut wire = encode_feedback(&fb);
        wire[flip_byte] ^= flip_bits;
        // Any single-byte corruption must not decode to the same frame
        // (magic, checksum, or value changes).
        match decode_feedback(&wire) {
            Err(_) => {}
            Ok(decoded) => assert_ne!(decoded, fb),
        }
    }
}

#[test]
fn truncated_cells_never_decode() {
    let mut rng = SimRng::seed_from(0x7271);
    for _ in 0..CASES {
        let cell = arb_cell(&mut rng);
        let cut = rng.range_usize(0, CELL_LEN);
        let wire = encode_cell(&cell);
        assert!(decode_cell(&wire[..cut]).is_err());
    }
}

#[test]
fn layer_cipher_is_involutive() {
    let mut rng = SimRng::seed_from(0x1417);
    for _ in 0..CASES {
        let cipher = LayerCipher::new(LayerKey(rng.u64()));
        let nonce = rng.u64();
        let data = arb_bytes(&mut rng, 0, 599);
        let mut buf = data.clone();
        cipher.apply(nonce, &mut buf);
        cipher.apply(nonce, &mut buf);
        assert_eq!(buf, data);
    }
}

#[test]
fn onion_route_recognizes_exactly_the_target_hop() {
    let mut rng = SimRng::seed_from(0x0111);
    for _ in 0..CASES {
        let hops = rng.range_usize(1, 6);
        let target = rng.range_usize(0, 5) % hops;
        let payload = arb_bytes(&mut rng, 8, RELAY_DATA_MAX);
        let key_seed = rng.u64();
        let mut route = OnionRoute::new();
        let mut relays: Vec<RelayCrypt> = Vec::new();
        for i in 0..hops {
            let key = LayerKey(
                key_seed
                    .wrapping_add(i as u64)
                    .wrapping_mul(0x9E3779B97F4A7C15)
                    | 1,
            );
            route.push_layer(key);
            relays.push(RelayCrypt::new(key));
        }
        let mut cell = RelayCell::data(StreamId(1), payload.clone());
        route.wrap_for_hop(target, &mut cell);
        let mut recognized_at = None;
        for (i, relay) in relays.iter_mut().enumerate().take(target + 1) {
            if relay.strip_forward(&mut cell) {
                recognized_at = Some(i);
                break;
            }
        }
        assert_eq!(recognized_at, Some(target));
        assert_eq!(cell.data, payload);
    }
}

#[test]
fn digest_mismatch_detected_after_tamper() {
    let mut rng = SimRng::seed_from(0xD163);
    for _ in 0..CASES {
        let payload = arb_bytes(&mut rng, 1, 64);
        let idx = rng.range_usize(0, 64);
        let bits = rng.range_u64(1, 256) as u8;
        let mut cell = RelayCell::data(StreamId(1), payload);
        let i = idx % cell.data.len();
        cell.data[i] ^= bits;
        assert!(!cell.digest_ok());
    }
}

// ---------------------------------------------------------------------
// Differential tests for the fused one-pass block loops (DESIGN.md §2):
// the reference is the definition, restated independently — one
// keystream byte at a time, one digest word at a time, one layer at a
// time, strip *then* digest — over every payload length 0..=560 (all 32
// block residues, the empty payload, both sides of `RELAY_DATA_MAX`).
// ---------------------------------------------------------------------

/// Longest payload the differential suites cover.
const MAX_LEN: usize = 560;

/// A DATA relay cell of any length (`RelayCell::data` stops at
/// `RELAY_DATA_MAX`; the layer loops do not care).
fn cell_of(data: Vec<u8>) -> RelayCell {
    RelayCell {
        cmd: RelayCommand::Data,
        stream: StreamId(1),
        digest: payload_digest(&data),
        data,
    }
}

/// SplitMix64's increment, which is also the stand-in for a zero lane.
const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// The lane seeding, by definition: four successive SplitMix64 outputs
/// from `key ^ nonce·C`, a zero output (a dead xorshift state) replaced.
fn reference_lanes(key: u64, nonce: u64) -> [u64; 4] {
    let mut state = key ^ nonce.wrapping_mul(0xD6E8_FEB8_6659_FD93);
    let mut lanes = [0u64; 4];
    for lane in &mut lanes {
        state = state.wrapping_add(GOLDEN);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        *lane = if z == 0 { GOLDEN } else { z };
    }
    lanes
}

/// The keystream definition, byte by byte: stream word `i` is the next
/// xorshift64* output of lane `i % 4`, little-endian; a byte tail takes
/// the low bytes of the next word.
fn bytewise_apply(key: u64, nonce: u64, data: &mut [u8]) {
    let mut lanes = reference_lanes(key, nonce);
    let mut word = 0u64;
    for (i, byte) in data.iter_mut().enumerate() {
        if i % 8 == 0 {
            let state = &mut lanes[(i / 8) % 4];
            *state ^= *state >> 12;
            *state ^= *state << 25;
            *state ^= *state >> 27;
            word = state.wrapping_mul(0x2545_F491_4F6C_DD1D);
        }
        *byte ^= (word >> (8 * (i % 8))) as u8;
    }
}

/// The digest definition, one word at a time: whole word `i` folds into
/// accumulator `i % 4`; the accumulators are rotated apart and XORed;
/// the zero-padded tail word and the length go in last.
fn wordwise_digest(data: &[u8]) -> u32 {
    const SEED: u64 = 0x811c_9dc5_2545_f491;
    let mut h = [SEED, SEED ^ 1, SEED ^ 2, SEED ^ 3];
    let whole = data.len() / 8;
    for i in 0..whole {
        let word = u64::from_le_bytes(data[8 * i..8 * i + 8].try_into().expect("8 bytes"));
        h[i % 4] = (h[i % 4] ^ word)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .rotate_left(23);
    }
    let mut tail_word = 0u64;
    for (i, &b) in data[8 * whole..].iter().enumerate() {
        tail_word |= u64::from(b) << (8 * i);
    }
    let mixed = h[0] ^ h[1].rotate_left(16) ^ h[2].rotate_left(32) ^ h[3].rotate_left(48);
    let mixed = (mixed ^ tail_word ^ data.len() as u64).wrapping_mul(0x2545_F491_4F6C_DD1D);
    (mixed >> 32) as u32
}

/// Random, distinct layer keys; half the time the first one is a
/// degenerate seed: key 0 at counter 0, the key whose second cell has
/// pre-seed state 0, or a key whose first cell lands a lane on SplitMix64's
/// one zero output.
fn arb_keys(rng: &mut SimRng, n: usize) -> Vec<u64> {
    let mut keys: Vec<u64> = (0..n).map(|_| rng.u64() | 2).collect();
    match rng.range_usize(0, 6) {
        0 => keys[0] = 0,
        1 => keys[0] = 0xD6E8_FEB8_6659_FD93, // pre-seed state 0 at nonce 1
        2 => keys[0] = zero_lane_key(rng.range_usize(0, 4)),
        _ => {}
    }
    keys
}

/// The key whose nonce-0 seeding would leave `lane` at zero without the
/// guard: SplitMix64's output map fixes 0, so the lane's input must be 0.
fn zero_lane_key(lane: usize) -> u64 {
    GOLDEN.wrapping_mul(lane as u64 + 1).wrapping_neg()
}

/// The layer-at-a-time client the fused loops replaced, on the reference
/// definitions only: per-layer counters kept here, `bytewise_apply` per
/// layer, then `wordwise_digest` over the buffer again.
struct ReferenceRoute {
    keys: Vec<u64>,
    fwd: Vec<u64>,
    bwd: Vec<u64>,
}

impl ReferenceRoute {
    fn new(keys: &[u64]) -> ReferenceRoute {
        ReferenceRoute {
            keys: keys.to_vec(),
            fwd: vec![0; keys.len()],
            bwd: vec![0; keys.len()],
        }
    }

    fn wrap_for_hop(&mut self, hop: usize, cell: &mut RelayCell) {
        for i in (0..=hop).rev() {
            bytewise_apply(self.keys[i], self.fwd[i], &mut cell.data);
            self.fwd[i] += 1;
        }
    }

    fn unwrap_inbound(&mut self, cell: &mut RelayCell) -> Option<usize> {
        for i in 0..self.keys.len() {
            bytewise_apply(self.keys[i], self.bwd[i], &mut cell.data);
            self.bwd[i] += 1;
            if wordwise_digest(&cell.data) == cell.digest {
                return Some(i);
            }
        }
        None
    }
}

fn route_of(keys: &[u64]) -> OnionRoute {
    let mut route = OnionRoute::new();
    for &k in keys {
        route.push_layer(LayerKey(k));
    }
    route
}

#[test]
fn layer_cipher_equals_the_bytewise_keystream_at_every_length() {
    let mut rng = SimRng::seed_from(0xB17E);
    for len in 0..=MAX_LEN {
        let key = arb_keys(&mut rng, 1)[0];
        let nonce = rng.range_u64(0, 3);
        let data = arb_bytes(&mut rng, len, len);
        let mut fast = data.clone();
        let mut slow = data;
        LayerCipher::new(LayerKey(key)).apply(nonce, &mut fast);
        bytewise_apply(key, nonce, &mut slow);
        assert_eq!(fast, slow, "len {len} key {key:#x} nonce {nonce}");
    }
}

#[test]
fn fused_wrap_equals_layer_by_layer_for_every_length_and_route() {
    let mut rng = SimRng::seed_from(0xF05E);
    for len in 0..=MAX_LEN {
        // hops 1..=9 crosses the group-of-4 boundary twice (4 + 4 + 1).
        for hops in 1..=9 {
            let keys = arb_keys(&mut rng, hops);
            let mut fused = route_of(&keys);
            let mut reference = ReferenceRoute::new(&keys);
            // Several cells per route, the first for the last hop: the
            // per-layer counters must advance exactly as the reference's
            // do, or a later cell's bytes diverge.
            for round in 0..3 {
                let hop = if round == 0 {
                    hops - 1
                } else {
                    rng.range_usize(0, hops)
                };
                let mut a = cell_of(arb_bytes(&mut rng, len, len));
                let mut b = a.clone();
                fused.wrap_for_hop(hop, &mut a);
                reference.wrap_for_hop(hop, &mut b);
                assert_eq!(a, b, "len {len} hops {hops} round {round} hop {hop}");
            }
        }
    }
}

#[test]
fn fused_strip_equals_apply_then_digest_check() {
    let mut rng = SimRng::seed_from(0x5721);
    for len in 0..=MAX_LEN {
        let key = arb_keys(&mut rng, 1)[0];
        let cipher = LayerCipher::new(LayerKey(key));
        let mut relay = RelayCrypt::new(LayerKey(key));
        let plain = cell_of(arb_bytes(&mut rng, len, len));
        // Four cells through one relay (counters 0..4): addressed to it,
        // still wearing an inner layer, wrapped under the wrong key, and
        // addressed to it but with one bit flipped in flight.
        for (nonce, case) in ["recognized", "inner layer", "wrong key", "bit flip"]
            .into_iter()
            .enumerate()
        {
            let mut cell = plain.clone();
            match case {
                "inner layer" => LayerCipher::new(LayerKey(rng.u64())).apply(7, &mut cell.data),
                "wrong key" => LayerCipher::new(LayerKey(!key)).apply(nonce as u64, &mut cell.data),
                _ => {}
            }
            if case != "wrong key" {
                cipher.apply(nonce as u64, &mut cell.data);
            }
            if case == "bit flip" && len > 0 {
                let at = rng.range_usize(0, len);
                cell.data[at] ^= 1 << rng.range_usize(0, 8);
            }
            let mut expect = cell.clone();
            bytewise_apply(key, nonce as u64, &mut expect.data);
            let verdict = relay.strip_forward(&mut cell);
            assert_eq!(cell, expect, "len {len} {case}: buffer");
            assert_eq!(
                verdict,
                wordwise_digest(&expect.data) == expect.digest,
                "len {len} {case}: verdict"
            );
            // Not vacuous: from 8 bytes up the verdicts are the intended ones.
            if len >= 8 {
                assert_eq!(verdict, case == "recognized", "len {len} {case}");
            }
        }
    }
}

#[test]
fn fused_unwrap_equals_layer_by_layer_for_every_length_and_route() {
    let mut rng = SimRng::seed_from(0x1B0D);
    for len in 0..=MAX_LEN {
        for hops in 1..=9 {
            let keys = arb_keys(&mut rng, hops);
            let mut fused = route_of(&keys);
            let mut reference = ReferenceRoute::new(&keys);
            let mut relays: Vec<RelayCrypt> =
                keys.iter().map(|&k| RelayCrypt::new(LayerKey(k))).collect();
            // A reply from a random hop, then garbage (every layer's
            // counter burns one), then another reply: the third only
            // unwraps if the counters moved identically on the first two.
            for round in 0..3 {
                let origin = rng.range_usize(0, hops);
                let mut a = cell_of(arb_bytes(&mut rng, len, len));
                if round == 1 {
                    a.digest ^= 0x5A5A_5A5A;
                    for relay in relays.iter_mut().rev() {
                        relay.add_backward(&mut a);
                    }
                } else {
                    for relay in relays[..=origin].iter_mut().rev() {
                        relay.add_backward(&mut a);
                    }
                }
                let mut b = a.clone();
                let got = fused.unwrap_inbound(&mut a);
                assert_eq!(
                    got,
                    reference.unwrap_inbound(&mut b),
                    "len {len} hops {hops}"
                );
                assert_eq!(a, b, "len {len} hops {hops} round {round}");
                if len >= 8 {
                    assert_eq!(got, (round != 1).then_some(origin));
                }
            }
        }
    }
}

#[test]
fn payload_digest_equals_the_wordwise_digest_at_every_length() {
    let mut rng = SimRng::seed_from(0xD16E);
    for len in 0..=MAX_LEN {
        let data = arb_bytes(&mut rng, len, len);
        assert_eq!(payload_digest(&data), wordwise_digest(&data), "len {len}");
    }
}

#[test]
fn every_single_bit_flip_of_a_full_payload_changes_the_digest() {
    let mut rng = SimRng::seed_from(0xF11B);
    let mut data = arb_bytes(&mut rng, RELAY_DATA_MAX, RELAY_DATA_MAX);
    let base = payload_digest(&data);
    for bit in 0..8 * RELAY_DATA_MAX {
        data[bit / 8] ^= 1 << (bit % 8);
        assert_ne!(payload_digest(&data), base, "bit {bit}");
        data[bit / 8] ^= 1 << (bit % 8);
    }
}

#[test]
fn digest_depends_on_word_order_within_and_across_lanes_and_on_length() {
    let mut rng = SimRng::seed_from(0x5A4B);
    for _ in 0..CASES {
        let data = arb_bytes(&mut rng, RELAY_DATA_MAX, RELAY_DATA_MAX);
        let base = payload_digest(&data);
        let swapped = |i: usize, j: usize, len: usize| {
            let mut moved = data.clone();
            for k in 0..len {
                moved.swap(i * len + k, j * len + k);
            }
            assert_ne!(moved, data, "random words and blocks are distinct");
            payload_digest(&moved)
        };
        // Words 1 and 6 sit in lanes 1 and 2; words 1 and 5 both in lane 1;
        // blocks 0 and 1 reorder every lane at once.
        assert_ne!(swapped(1, 6, 8), base, "two words of different lanes");
        assert_ne!(swapped(1, 5, 8), base, "two words of one lane");
        assert_ne!(swapped(0, 1, 32), base, "two whole blocks");
        // Zero-extension, by a byte, a word and a block: the length is mixed in.
        for pad in [1, 8, 32] {
            let mut longer = data[..RELAY_DATA_MAX - 40].to_vec();
            let short = payload_digest(&longer);
            longer.resize(longer.len() + pad, 0);
            assert_ne!(payload_digest(&longer), short, "zero-extended by {pad}");
        }
    }
}

#[test]
fn degenerate_seeds_still_give_four_live_lanes() {
    // Key 0 at nonce 0, the key that zeroed the pre-seed state of the old
    // single-chain generator at nonce 1, and the four keys that each land
    // one lane on SplitMix64's zero output.
    let mut seeds = vec![(0, 0), (0xD6E8_FEB8_6659_FD93, 1)];
    seeds.extend((0..4).map(|lane| (zero_lane_key(lane), 0)));
    for (key, nonce) in seeds {
        let lanes = reference_lanes(key, nonce);
        assert!(lanes.iter().all(|&l| l != 0), "key {key:#x}: {lanes:x?}");
        // A dead lane would leave every fourth word of the payload in
        // the clear; the production seeding agrees with the reference.
        let mut data = vec![0u8; 64];
        LayerCipher::new(LayerKey(key)).apply(nonce, &mut data);
        for (i, word) in data.chunks(8).enumerate() {
            assert_ne!(word, [0u8; 8], "key {key:#x} word {i} unencrypted");
        }
        let mut reference = vec![0u8; 64];
        bytewise_apply(key, nonce, &mut reference);
        assert_eq!(data, reference, "key {key:#x}");
    }
    // The guard is exercised, not just present: lane 2 of this key is
    // the replaced value.
    assert_eq!(reference_lanes(zero_lane_key(2), 0)[2], GOLDEN);
}
