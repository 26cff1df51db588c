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
                    recognized: 0,
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
        let payload = arb_bytes(&mut rng, 0, RELAY_DATA_MAX);
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
        let mut cell = RelayCell {
            digest: route.digest_key(target).digest(&payload),
            ..RelayCell::data(StreamId(1), payload.clone())
        };
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
// the reference is the definition, restated independently — keystream
// word `i` from `(seed, i)` alone, one byte at a time, one digest word at
// a time, one layer at a time, strip *then* check — over every payload
// length 0..=560 (all 32 block residues, the empty payload, both sides of
// `RELAY_DATA_MAX`).
// ---------------------------------------------------------------------

/// Longest payload the differential suites cover.
const MAX_LEN: usize = 560;

/// A DATA relay cell of any length (`RelayCell::data` stops at
/// `RELAY_DATA_MAX`; the layer loops do not care), addressed to the hop
/// whose layer key is `key` by its digest.
fn cell_of(key: u64, data: Vec<u8>) -> RelayCell {
    RelayCell {
        cmd: RelayCommand::Data,
        recognized: 0,
        stream: StreamId(1),
        digest: wordwise_digest(reference_digest_lanes(key), &data),
        data,
    }
}

/// The step between a stream's counters.
const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// Counters a stream keeps off 0.
const ZERO_FREE: u64 = 1 << 32;

/// The word function: xorshift, multiply, xorshift.
fn mix(z: u64) -> u64 {
    let z = (z ^ (z >> 32)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z ^ (z >> 29)
}

/// The inverse of an odd `a` mod 2^64, bit by bit: adding `2^b` to `x`
/// flips bit `b` of `a·x` and leaves the bits below it alone.
fn inverse(a: u64) -> u64 {
    let mut x = 1u64;
    for bit in 1..64 {
        if (a.wrapping_mul(x) >> bit) & 1 == 1 {
            x |= 1 << bit;
        }
    }
    x
}

/// The seed of the stream for (`key`, `nonce`), by definition: `key ^
/// nonce·C`, moved back `ZERO_FREE` counters when one of its first
/// `ZERO_FREE` counters (`seed + k·GAMMA`) is 0.
fn reference_seed(key: u64, nonce: u64) -> u64 {
    let seed = key ^ nonce.wrapping_mul(0xD6E8_FEB8_6659_FD93);
    let zero_at = seed.wrapping_neg().wrapping_mul(inverse(GAMMA));
    if zero_at < ZERO_FREE {
        seed.wrapping_sub(ZERO_FREE.wrapping_mul(GAMMA))
    } else {
        seed
    }
}

/// Keystream word `i` of (`key`, `nonce`), from the seed and `i` alone:
/// the mix of counter `i + 1`. No word depends on another.
fn reference_word(key: u64, nonce: u64, i: usize) -> u64 {
    let counter = reference_seed(key, nonce).wrapping_add(GAMMA.wrapping_mul(i as u64 + 1));
    mix(counter)
}

/// The byte a layer XORs into `recognized`: the low byte of counter 0's
/// word.
fn reference_recognized(key: u64, nonce: u64) -> u8 {
    mix(reference_seed(key, nonce)) as u8
}

/// The keystream definition, byte by byte: byte `i` is byte `i % 8` of
/// word `i / 8`, little-endian; a byte tail takes the low bytes of the
/// next word.
fn bytewise_apply(key: u64, nonce: u64, data: &mut [u8]) {
    for (i, byte) in data.iter_mut().enumerate() {
        *byte ^= (reference_word(key, nonce, i / 8) >> (8 * (i % 8))) as u8;
    }
}

/// One layer on a cell: its payload and its `recognized` byte.
fn reference_layer(key: u64, nonce: u64, cell: &mut RelayCell) {
    bytewise_apply(key, nonce, &mut cell.data);
    cell.recognized ^= reference_recognized(key, nonce);
}

/// The recognition rule at the hop keyed `key`: the byte reads 0 and
/// the digest under that hop's lanes verifies.
fn reference_recognizes(key: u64, cell: &RelayCell) -> bool {
    cell.recognized == 0 && wordwise_digest(reference_digest_lanes(key), &cell.data) == cell.digest
}

/// The digest's fixed seed.
const SEED: u64 = 0x811c_9dc5_2545_f491;

/// The lanes `payload_digest` starts from, which belong to no layer.
const UNKEYED_LANES: [u64; 4] = [SEED, SEED ^ 1, SEED ^ 2, SEED ^ 3];

/// The lanes the layer keyed `key` digests from: lane `j` is the mix of
/// `(key ^ SEED) + (j + 1)·GAMMA`.
fn reference_digest_lanes(key: u64) -> [u64; 4] {
    let mut lanes = [0; 4];
    for (j, lane) in lanes.iter_mut().enumerate() {
        *lane = mix((key ^ SEED).wrapping_add(GAMMA.wrapping_mul(j as u64 + 1)));
    }
    lanes
}

/// The digest definition, one word at a time, from `lanes`: whole word
/// `i` folds into accumulator `i % 4`; the accumulators are rotated apart
/// and XORed; the zero-padded tail word and the length go in last.
fn wordwise_digest(lanes: [u64; 4], data: &[u8]) -> u32 {
    let mut h = lanes;
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

/// The key whose counter `k` at nonce 0 is 0 without the guard.
fn zero_counter_key(k: u64) -> u64 {
    GAMMA.wrapping_mul(k).wrapping_neg()
}

/// Random, distinct layer keys; half the time the first one is a
/// degenerate seed: key 0 (counter 0 of nonce 0 is 0), or a key one of
/// whose first cell's counters inside a payload would be 0.
fn arb_keys(rng: &mut SimRng, n: usize) -> Vec<u64> {
    let mut keys: Vec<u64> = (0..n).map(|_| rng.u64() | 2).collect();
    match rng.range_usize(0, 4) {
        0 => keys[0] = 0,
        1 => keys[0] = zero_counter_key(rng.range_u64(1, 72)),
        _ => {}
    }
    keys
}

/// The layer-at-a-time client the fused loops replaced, on the reference
/// definitions only: per-layer counters kept here, `reference_layer` per
/// layer, then the recognition rule over the buffer again.
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
            reference_layer(self.keys[i], self.fwd[i], cell);
            self.fwd[i] += 1;
        }
    }

    fn unwrap_inbound(&mut self, cell: &mut RelayCell) -> Option<usize> {
        for i in 0..self.keys.len() {
            reference_layer(self.keys[i], self.bwd[i], cell);
            self.bwd[i] += 1;
            if reference_recognizes(self.keys[i], cell) {
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
                let mut a = cell_of(keys[hop], arb_bytes(&mut rng, len, len));
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
        let mut relay = RelayCrypt::new(LayerKey(key));
        let plain = arb_bytes(&mut rng, len, len);
        // Four cells through one relay (counters 0..4): addressed to it,
        // addressed to the next hop and still wearing its layer, wrapped
        // for another relay, and addressed to it but with one bit flipped
        // in flight.
        for (nonce, case) in ["recognized", "inner layer", "wrong key", "bit flip"]
            .into_iter()
            .enumerate()
        {
            let nonce = nonce as u64;
            let mut cell = match case {
                "inner layer" => {
                    let next = rng.u64();
                    let mut cell = cell_of(next, plain.clone());
                    reference_layer(next, 7, &mut cell);
                    cell
                }
                "wrong key" => {
                    let mut cell = cell_of(!key, plain.clone());
                    reference_layer(!key, nonce, &mut cell);
                    cell
                }
                _ => cell_of(key, plain.clone()),
            };
            if case != "wrong key" {
                reference_layer(key, nonce, &mut cell);
            }
            let flipped = case == "bit flip" && len > 0;
            if flipped {
                let at = rng.range_usize(0, len);
                cell.data[at] ^= 1 << rng.range_usize(0, 8);
            }
            let mut expect = cell.clone();
            reference_layer(key, nonce, &mut expect);
            let verdict = relay.strip_forward(&mut cell);
            assert_eq!(cell, expect, "len {len} {case}: cell");
            assert_eq!(
                verdict,
                reference_recognizes(key, &expect),
                "len {len} {case}: verdict"
            );
            // Not vacuous: at every length, the empty payload included,
            // the relay takes exactly the intact cell addressed to it.
            let intact_for_me = case == "recognized" || (case == "bit flip" && !flipped);
            assert_eq!(verdict, intact_for_me, "len {len} {case}");
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
                let mut a = cell_of(keys[origin], arb_bytes(&mut rng, len, len));
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
                assert_eq!(got, (round != 1).then_some(origin));
            }
        }
    }
}

#[test]
fn payload_digest_equals_the_wordwise_digest_at_every_length() {
    let mut rng = SimRng::seed_from(0xD16E);
    for len in 0..=MAX_LEN {
        let data = arb_bytes(&mut rng, len, len);
        assert_eq!(
            payload_digest(&data),
            wordwise_digest(UNKEYED_LANES, &data),
            "len {len}"
        );
        // A layer's digest is the same definition from its own lanes.
        let key = arb_keys(&mut rng, 1)[0];
        assert_eq!(
            DigestKey::of(LayerKey(key)).digest(&data),
            wordwise_digest(reference_digest_lanes(key), &data),
            "len {len} key {key:#x}"
        );
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
fn keystream_word_i_depends_on_the_seed_and_i_alone_at_every_length() {
    // Counter mode has no chain: word `i` is a function of (seed, i), so
    // the words of a payload can be checked in any order, and a longer
    // payload's stream extends a shorter one's.
    let mut rng = SimRng::seed_from(0xC7A5);
    let mut previous: Vec<u8> = Vec::new();
    let (key, nonce) = (rng.u64(), rng.range_u64(0, 3));
    for len in 0..=MAX_LEN {
        let mut stream = vec![0u8; len];
        LayerCipher::new(LayerKey(key)).apply(nonce, &mut stream);
        for i in (0..len.div_ceil(8)).rev() {
            let end = (8 * i + 8).min(len);
            let word = &stream[8 * i..end];
            let expect = reference_word(key, nonce, i).to_le_bytes();
            assert_eq!(word, &expect[..end - 8 * i], "len {len} word {i}");
        }
        assert_eq!(
            stream[..previous.len()],
            previous[..],
            "len {len}: not a prefix"
        );
        previous = stream;
    }
}

#[test]
fn seeds_whose_counters_would_cross_zero_still_encrypt_every_word() {
    // `mix` fixes 0, so a counter of 0 would leave a word in the clear.
    // The keys whose counter `k` is 0 at nonce 0, for `k` = 0 (the byte's
    // counter) and every word of a `MAX_LEN` payload, and the same seeds
    // reached at nonce 1.
    assert_eq!(mix(0), 0);
    let words = MAX_LEN.div_ceil(8) as u64;
    for k in 0..=words {
        for nonce in [0u64, 1] {
            let key = zero_counter_key(k) ^ nonce.wrapping_mul(0xD6E8_FEB8_6659_FD93);
            let mut data = vec![0u8; MAX_LEN];
            LayerCipher::new(LayerKey(key)).apply(nonce, &mut data);
            for (i, word) in data.chunks(8).enumerate() {
                assert_ne!(word, [0u8; 8], "k {k} nonce {nonce}: word {i} in the clear");
            }
            let mut reference = vec![0u8; MAX_LEN];
            bytewise_apply(key, nonce, &mut reference);
            assert_eq!(data, reference, "k {k} nonce {nonce}");
            assert_ne!(mix(reference_seed(key, nonce)), 0, "k {k}: the byte's word");
        }
    }
}

#[test]
fn fused_seal_equals_fill_digest_then_layer_by_layer_for_every_length_and_route() {
    let mut rng = SimRng::seed_from(0x5EA1);
    for len in 0..=RELAY_DATA_MAX {
        for hops in [1, 2, 3, 4, 5, 9] {
            let keys = arb_keys(&mut rng, hops);
            let mut fused = route_of(&keys);
            let mut reference = ReferenceRoute::new(&keys);
            // A sealed cell, a wrapped one, and a sealed one again: the
            // seal advances the per-layer counters exactly as a wrap does.
            for round in 0..3 {
                let hop = rng.range_usize(0, hops);
                let plain = arb_bytes(&mut rng, len, len);
                let mut b = cell_of(keys[hop], plain.clone());
                reference.wrap_for_hop(hop, &mut b);
                let a = if round == 1 {
                    let mut a = cell_of(keys[hop], plain);
                    fused.wrap_for_hop(hop, &mut a);
                    a
                } else {
                    let pooled = Vec::with_capacity(RELAY_DATA_MAX);
                    fused.seal_for_hop(hop, RelayCommand::Data, StreamId(1), &plain, pooled)
                };
                assert_eq!(a, b, "len {len} hops {hops} round {round} hop {hop}");
            }
        }
    }
}

#[test]
fn the_recognized_byte_reads_zero_at_the_target_and_at_a_passing_hop_only_on_a_collision() {
    let mut rng = SimRng::seed_from(0x2EC0);
    let (mut passing, mut collisions) = (0u32, 0u32);
    for _ in 0..4096 {
        let hops = rng.range_usize(1, 7);
        let target = rng.range_usize(0, hops);
        let keys = arb_keys(&mut rng, hops);
        let payload = arb_bytes(&mut rng, 0, RELAY_DATA_MAX);
        let mut route = route_of(&keys);
        let mut relays: Vec<RelayCrypt> =
            keys.iter().map(|&k| RelayCrypt::new(LayerKey(k))).collect();
        let mut cell = if rng.range_usize(0, 2) == 0 {
            route.seal_for_hop(
                target,
                RelayCommand::Data,
                StreamId(1),
                &payload,
                Vec::new(),
            )
        } else {
            let mut cell = cell_of(keys[target], payload.clone());
            route.wrap_for_hop(target, &mut cell);
            cell
        };
        for (hop, relay) in relays.iter_mut().enumerate().take(target + 1) {
            let recognized = relay.strip_forward(&mut cell);
            // The byte only decides whether to digest: the decision is
            // the one the hop's digest alone would make.
            let digest_verifies = relay.digest_key().digest(&cell.data) == cell.digest;
            assert_eq!(recognized, digest_verifies, "hop {hop} of {target}");
            assert_eq!(recognized, hop == target, "hop {hop} of {target}");
            if hop == target {
                assert_eq!(cell.recognized, 0);
            } else {
                passing += 1;
                collisions += u32::from(cell.recognized == 0);
            }
        }
        assert_eq!(cell.data, payload);
    }
    // A passing hop reads 0 when the remaining layers' bytes cancel: odds
    // 2^-8, so ~20 of these ~5,000 passing strips (a 3σ band is ±13).
    let expected = f64::from(passing) / 256.0;
    let spread = 3.0 * expected.sqrt();
    assert!(passing > 4_000, "{passing} passing strips");
    assert!(
        (f64::from(collisions) - expected).abs() <= spread,
        "{collisions} collisions in {passing} passing strips, expected {expected:.1} ± {spread:.1}"
    );
}

#[test]
fn one_byte_cells_are_never_taken_early_by_a_passing_hop() {
    // A passing hop's byte reads 0 with odds 2^-8, and a 1-byte payload
    // still wearing one layer cancels to the plaintext with odds 2^-8
    // more: a digest that belonged to no hop verified there with odds
    // 2^-16, about 8 of these 2^19 passing strips. Under the target hop's
    // key it verifies only on a 32-bit collision.
    let mut rng = SimRng::seed_from(0x1B17E);
    let mut early = 0u32;
    for _ in 0..1 << 18 {
        let keys: Vec<LayerKey> = (0..3).map(|_| LayerKey(rng.u64())).collect();
        let mut route = OnionRoute::new();
        for &key in &keys {
            route.push_layer(key);
        }
        let plain = [rng.u64() as u8];
        let mut cell = route.seal_for_hop(2, RelayCommand::Data, StreamId(1), &plain, Vec::new());
        for &key in &keys[..2] {
            early += u32::from(RelayCrypt::new(key).strip_forward(&mut cell));
        }
    }
    assert_eq!(early, 0, "1-byte cells taken early by a passing hop");
}
