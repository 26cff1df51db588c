//! Onion-layering stand-in.
//!
//! # ⚠ Not cryptography
//!
//! Real Tor wraps relay payloads in per-hop AES-CTR layers with SHA-1
//! running digests. The CircuitStart experiments measure **congestion
//! dynamics**; the only properties of the onion layers that matter there
//! are (a) payload size is preserved by each layer and (b) each hop applies
//! or removes exactly one layer. This module reproduces that *structure*
//! with a keyed xorshift keystream — deterministic, size-preserving,
//! trivially invertible, and completely insecure — shaped like the counter
//! mode it stands for: independent 32-byte blocks, consumed by one block
//! loop. See DESIGN.md §2 for the substitution rationale.

use crate::cell::RelayCell;

/// A 64-bit layer key (stand-in for negotiated key material).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct LayerKey(pub u64);

impl LayerKey {
    /// Derives a key from a handshake blob, mimicking key agreement: both
    /// ends of a CREATE/CREATED exchange derive the same key.
    pub fn from_handshake(handshake: &[u8]) -> LayerKey {
        let mut k: u64 = 0x2545_F491_4F6C_DD1D;
        for &b in handshake {
            k ^= u64::from(b);
            k = k.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17);
        }
        // Avoid the degenerate all-zero xorshift state.
        LayerKey(if k == 0 { 1 } else { k })
    }
}

/// One onion layer: a keyed, position-synchronized XOR keystream.
///
/// Applying the layer twice with the same starting offset is the identity,
/// which is exactly how the tests verify wrap/unwrap symmetry.
#[derive(Clone, Debug)]
pub struct LayerCipher {
    key: LayerKey,
}

impl LayerCipher {
    /// Creates a cipher from a key.
    pub fn new(key: LayerKey) -> LayerCipher {
        LayerCipher { key }
    }

    /// XORs the keystream for (`key`, `nonce`) over `data` in place.
    /// `nonce` must match between apply and un-apply; callers use the
    /// per-cell sequence number.
    ///
    /// The keystream is counter-mode shaped: 32-byte blocks of four
    /// 8-byte little-endian words, word `i` of the stream drawn from lane
    /// `i mod 4` of four independent xorshift64* generators (see
    /// [`Keystream`]). A payload that ends inside a block uses the leading
    /// bytes of that block.
    pub fn apply(&self, nonce: u64, data: &mut [u8]) {
        xor_keystreams([self.keystream(nonce)], data, |h, _| h);
    }

    /// The keystream for (`key`, `nonce`), positioned at its first block.
    #[inline]
    fn keystream(&self, nonce: u64) -> Keystream {
        Keystream::new(self.key.0 ^ nonce.wrapping_mul(0xD6E8_FEB8_6659_FD93))
    }
}

/// Words per keystream block, and accumulator lanes of the digest.
const LANES: usize = 4;
/// Bytes per keystream block.
const BLOCK_LEN: usize = 8 * LANES;

/// One layer's keystream generator: [`LANES`] independent xorshift64*
/// states, one per word position of a block.
///
/// This is the shape of what it stands in for — AES-CTR blocks do not
/// depend on one another — and it is what lets a core overlap the lanes'
/// latencies instead of waiting out one serial chain per payload. A real
/// cipher would supply a different *block* generator to the same loop.
#[derive(Clone, Copy)]
struct Keystream([u64; LANES]);

impl Keystream {
    /// Expands `seed` into the lane states with a SplitMix64 sequence.
    #[inline]
    fn new(seed: u64) -> Keystream {
        let mut state = seed;
        Keystream(std::array::from_fn(|_| {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            nonzero_lane(z ^ (z >> 31))
        }))
    }

    /// The next block: every lane advances one xorshift64* step.
    #[inline]
    fn next_block(&mut self) -> [u64; LANES] {
        // One xorshift stage across all lanes at a time, not one lane's
        // three stages at a time: the chains then reach the core already
        // interleaved, which a four-layer wrap (16 chains, more than it
        // has registers for) measurably needs.
        for x in &mut self.0 {
            *x ^= *x >> 12;
        }
        for x in &mut self.0 {
            *x ^= *x << 25;
        }
        for x in &mut self.0 {
            *x ^= *x >> 27;
        }
        self.0.map(|x| x.wrapping_mul(0x2545_F491_4F6C_DD1D))
    }
}

/// Avoids the degenerate all-zero xorshift state (SplitMix64's output map
/// is a bijection, so exactly one seed per lane would land on it).
#[inline]
fn nonzero_lane(lane: u64) -> u64 {
    if lane == 0 {
        0x9E37_79B9_7F4A_7C15
    } else {
        lane
    }
}

#[inline]
fn load_word(chunk: &[u8]) -> u64 {
    u64::from_le_bytes(chunk.try_into().expect("exact chunk"))
}

/// The bytes of `tail` (fewer than 8) as a zero-padded little-endian word.
#[inline]
fn load_tail(tail: &[u8]) -> u64 {
    tail.iter()
        .enumerate()
        .fold(0, |word, (i, &byte)| word | u64::from(byte) << (8 * i))
}

/// XORs one keystream block over the whole words of `block` (at most
/// [`LANES`]) and folds each result into its lane.
#[inline]
fn xor_words<'a>(
    words: impl Iterator<Item = &'a mut [u8]>,
    key: [u64; LANES],
    lanes: &mut [u64; LANES],
    fold: impl Fn(u64, u64) -> u64,
) {
    for ((chunk, k), h) in words.zip(key).zip(lanes) {
        let word = load_word(chunk) ^ k;
        chunk.copy_from_slice(&word.to_le_bytes());
        *h = fold(*h, word);
    }
}

/// The one loop that walks a payload: XORs `N` keystreams over `data` in
/// a **single** pass, a 32-byte block per step, and folds word `i` of the
/// result into accumulator lane `i mod 4` with `fold`; returns the lanes
/// and the result's zero-padded tail word (0 when `data` is a whole
/// number of words) — the things [`payload_digest`] is made of. A
/// remainder shorter than a block is handled once, from one more block.
///
/// XOR commutes, so the bytes equal applying the `N` layers one after
/// another in any order; but the `4 N` independent xorshift chains and
/// the four digest chains advance side by side (their latencies overlap
/// instead of serialising) and the payload is loaded and stored once
/// rather than `N` times.
#[inline]
fn xor_keystreams<const N: usize>(
    mut streams: [Keystream; N],
    data: &mut [u8],
    fold: impl Fn(u64, u64) -> u64,
) -> ([u64; LANES], u64) {
    let mut next_key = move || {
        streams.iter_mut().fold([0; LANES], |mut key, stream| {
            for (k, word) in key.iter_mut().zip(stream.next_block()) {
                *k ^= word;
            }
            key
        })
    };
    let mut lanes = DIGEST_LANES;
    let mut blocks = data.chunks_exact_mut(BLOCK_LEN);
    for block in &mut blocks {
        xor_words(block.chunks_exact_mut(8), next_key(), &mut lanes, &fold);
    }
    let rest = blocks.into_remainder();
    let mut tail_word = 0;
    if !rest.is_empty() {
        let key = next_key();
        let tail_key = key[rest.len() / 8];
        let mut words = rest.chunks_exact_mut(8);
        xor_words(&mut words, key, &mut lanes, &fold);
        let tail = words.into_remainder();
        for (byte, k) in tail.iter_mut().zip(tail_key.to_le_bytes()) {
            *byte ^= k;
        }
        tail_word = load_tail(tail);
    }
    (lanes, tail_word)
}

/// Removes one layer from `data` **and** returns [`payload_digest`] of
/// the result, in one pass: the keystream chains and the digest chains
/// are independent, so the digest rides along with the strip instead of
/// re-walking the buffer.
#[inline]
fn strip_and_digest(stream: Keystream, data: &mut [u8]) -> u32 {
    let len = data.len();
    let (lanes, tail_word) = xor_keystreams([stream], data, digest_word);
    digest_finish(lanes, tail_word, len)
}

/// Client-side onion state with **per-layer cell counters**, mirroring how
/// Tor's stateful AES-CTR streams stay synchronized when cells leave the
/// circuit early ("leaky pipe"): a cell recognized at hop `k` advances only
/// the counters of layers `0..=k`, because hops beyond `k` never see it.
///
/// Relays keep a single per-direction counter (they process every cell
/// that traverses them exactly once), so both sides stay in lockstep.
#[derive(Clone, Debug, Default)]
pub struct OnionRoute {
    layers: Vec<LayerCipher>,
    /// Client-side counter per layer, forward direction.
    fwd_counters: Vec<u64>,
    /// Client-side counter per layer, backward direction.
    bwd_counters: Vec<u64>,
    /// Walks of a `cell.data` performed so far (work count, see
    /// [`OnionRoute::payload_passes`]).
    payload_passes: u64,
}

impl OnionRoute {
    /// Creates an empty route (no hops negotiated yet).
    pub fn new() -> OnionRoute {
        OnionRoute::default()
    }

    /// Appends the layer shared with the newly added hop.
    pub fn push_layer(&mut self, key: LayerKey) {
        self.layers.push(LayerCipher::new(key));
        self.fwd_counters.push(0);
        self.bwd_counters.push(0);
    }

    /// Number of negotiated hops.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// `true` before the first hop is negotiated.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// How many times this route has walked a cell payload end to end —
    /// a noise-free work count (a pure function of the cells processed):
    /// one per group of ≤ 4 layers in [`wrap_for_hop`](Self::wrap_for_hop),
    /// one per layer attempted in [`unwrap_inbound`](Self::unwrap_inbound).
    pub fn payload_passes(&self) -> u64 {
        self.payload_passes
    }

    /// Wraps an outbound relay cell so that it is recognized at layer
    /// `hop` (0 = first relay); counters of layers `0..=hop` advance.
    /// All `hop + 1` keystreams are XORed in one pass over the payload
    /// (groups of 4 on longer routes) — XOR commutes, so the bytes are
    /// those of applying the layers innermost-first one at a time.
    ///
    /// The payload must be **at least 8 bytes**. Recognition is "digest
    /// verifies after stripping", so an earlier hop falsely recognizes an
    /// `n`-byte payload whenever the layers still on it cancel over those
    /// `n` bytes — probability 2^(-8n), and certainty at `n = 0`, where
    /// every layer is a no-op (see the `empty_payload_…` test).
    ///
    /// # Panics
    ///
    /// Panics if `hop` is out of range.
    pub fn wrap_for_hop(&mut self, hop: usize, cell: &mut RelayCell) {
        assert!(
            hop < self.layers.len(),
            "wrap_for_hop: hop {hop} out of range"
        );
        let mut lo = 0;
        while lo <= hop {
            let n = (hop + 1 - lo).min(4);
            match n {
                1 => self.wrap_group::<1>(lo, &mut cell.data),
                2 => self.wrap_group::<2>(lo, &mut cell.data),
                3 => self.wrap_group::<3>(lo, &mut cell.data),
                _ => self.wrap_group::<4>(lo, &mut cell.data),
            }
            lo += n;
        }
    }

    /// Applies forward layers `lo..lo + N` in one pass and advances their
    /// counters.
    fn wrap_group<const N: usize>(&mut self, lo: usize, data: &mut [u8]) {
        let streams = std::array::from_fn(|j| {
            let stream = self.layers[lo + j].keystream(self.fwd_counters[lo + j]);
            self.fwd_counters[lo + j] += 1;
            stream
        });
        xor_keystreams::<N>(streams, data, |h, _| h);
        self.payload_passes += 1;
    }

    /// Unwraps an inbound (backward) relay cell layer by layer until the
    /// digest verifies, returning the hop it originated from. Counters of
    /// every attempted layer advance, exactly like Tor's stream ciphers.
    /// Each attempt strips and digests in one pass.
    ///
    /// Returns `None` (after consuming one count on every layer) if no
    /// layer produces a valid digest — a corrupt or misrouted cell.
    pub fn unwrap_inbound(&mut self, cell: &mut RelayCell) -> Option<usize> {
        for i in 0..self.layers.len() {
            let stream = self.layers[i].keystream(self.bwd_counters[i]);
            self.bwd_counters[i] += 1;
            self.payload_passes += 1;
            if strip_and_digest(stream, &mut cell.data) == cell.digest {
                return Some(i);
            }
        }
        None
    }
}

/// Relay-side cipher state for one circuit: one layer key and one counter
/// per direction.
#[derive(Clone, Debug)]
pub struct RelayCrypt {
    cipher: LayerCipher,
    fwd_counter: u64,
    bwd_counter: u64,
    /// Walks of a `cell.data` performed so far (work count).
    payload_passes: u64,
}

impl RelayCrypt {
    /// Creates relay-side state from the hop's key.
    pub fn new(key: LayerKey) -> RelayCrypt {
        RelayCrypt {
            cipher: LayerCipher::new(key),
            fwd_counter: 0,
            bwd_counter: 0,
            payload_passes: 0,
        }
    }

    /// How many times this relay has walked a cell payload end to end:
    /// one per [`strip_forward`](Self::strip_forward) (strip and digest
    /// share the pass), one per [`add_backward`](Self::add_backward).
    pub fn payload_passes(&self) -> u64 {
        self.payload_passes
    }

    /// Strips this relay's layer from a forward cell (client → exit) and
    /// reports whether the cell is now *recognized* (digest valid ⇒ this
    /// relay is the target and must consume it).
    pub fn strip_forward(&mut self, cell: &mut RelayCell) -> bool {
        let stream = self.cipher.keystream(self.fwd_counter);
        self.fwd_counter += 1;
        self.payload_passes += 1;
        strip_and_digest(stream, &mut cell.data) == cell.digest
    }

    /// Adds this relay's layer to a backward cell (toward the client) —
    /// used both for cells it forwards and for cells it originates.
    pub fn add_backward(&mut self, cell: &mut RelayCell) {
        self.cipher.apply(self.bwd_counter, &mut cell.data);
        self.bwd_counter += 1;
        self.payload_passes += 1;
    }
}

const DIGEST_SEED: u64 = 0x811c_9dc5_2545_f491;

/// The digest's accumulator lanes before the first word: `SEED ^ j`.
const DIGEST_LANES: [u64; LANES] = [
    DIGEST_SEED,
    DIGEST_SEED ^ 1,
    DIGEST_SEED ^ 2,
    DIGEST_SEED ^ 3,
];

/// Folds one whole payload word into its lane of the digest state.
#[inline]
fn digest_word(h: u64, word: u64) -> u64 {
    (h ^ word)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .rotate_left(23)
}

/// Combines the lanes (each rotated apart, so equal lanes do not cancel),
/// folds the zero-padded tail word and the payload length, and truncates.
#[inline]
fn digest_finish(lanes: [u64; LANES], tail_word: u64, len: usize) -> u32 {
    let [h0, h1, h2, h3] = lanes;
    let h = h0 ^ h1.rotate_left(16) ^ h2.rotate_left(32) ^ h3.rotate_left(48);
    let h = (h ^ tail_word ^ (len as u64)).wrapping_mul(0x2545_F491_4F6C_DD1D);
    (h >> 32) as u32
}

/// Payload digest — a keyed multiply-rotate mix over 8-byte words, word
/// `i` folded into accumulator lane `i mod 4` so the four chains advance
/// side by side.
///
/// Stands in for Tor's running SHA-1 "recognized" digest: it lets the
/// recognizing hop detect payload corruption in tests, nothing more — so
/// it is built for throughput (one multiply per 8 bytes, four in flight),
/// not security. This is the standalone form cell construction uses; the
/// per-hop recognition paths compute the same value inside their strip
/// pass.
pub fn payload_digest(data: &[u8]) -> u32 {
    let mut lanes = DIGEST_LANES;
    let mut fold_words = |words: &mut std::slice::ChunksExact<'_, u8>| {
        for (h, chunk) in lanes.iter_mut().zip(words) {
            *h = digest_word(*h, load_word(chunk));
        }
    };
    let mut blocks = data.chunks_exact(BLOCK_LEN);
    for block in &mut blocks {
        fold_words(&mut block.chunks_exact(8));
    }
    let mut words = blocks.remainder().chunks_exact(8);
    fold_words(&mut words);
    digest_finish(lanes, load_tail(words.remainder()), data.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::StreamId;

    #[test]
    fn digest_distinguishes_payloads() {
        assert_ne!(payload_digest(b"hello"), payload_digest(b"hellp"));
        // Length is mixed in, so a zero-padded tail cannot collide with a
        // shorter payload, and single-byte flips in any word position are
        // detected.
        assert_ne!(payload_digest(b""), payload_digest(&[0]));
        assert_ne!(payload_digest(&[0; 8]), payload_digest(&[0; 16]));
        let mut long = [7u8; 64];
        let base = payload_digest(&long);
        for i in 0..64 {
            long[i] ^= 0x80;
            assert_ne!(payload_digest(&long), base, "flip at {i} undetected");
            long[i] ^= 0x80;
        }
    }

    #[test]
    fn key_from_handshake_is_deterministic_and_sensitive() {
        let a = LayerKey::from_handshake(&[1, 2, 3]);
        let b = LayerKey::from_handshake(&[1, 2, 3]);
        let c = LayerKey::from_handshake(&[1, 2, 4]);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(a.0, 0);
    }

    #[test]
    fn cipher_is_involutive() {
        let cipher = LayerCipher::new(LayerKey(0xDEADBEEF));
        let original: Vec<u8> = (0..=255).collect();
        let mut data = original.clone();
        cipher.apply(42, &mut data);
        assert_ne!(data, original, "keystream must change the data");
        cipher.apply(42, &mut data);
        assert_eq!(data, original, "applying twice must restore");
    }

    #[test]
    fn different_nonces_differ() {
        let cipher = LayerCipher::new(LayerKey(7));
        let mut a = vec![0u8; 64];
        let mut b = vec![0u8; 64];
        cipher.apply(1, &mut a);
        cipher.apply(2, &mut b);
        assert_ne!(a, b);
    }

    #[test]
    fn zero_key_zero_nonce_still_encrypts() {
        // Engineered degenerate case: state must not collapse to zero.
        let cipher = LayerCipher::new(LayerKey(0));
        let mut data = vec![0u8; 32];
        cipher.apply(0, &mut data);
        assert_ne!(data, vec![0u8; 32]);
    }

    #[test]
    fn lane_seeding_never_yields_a_dead_lane() {
        assert_eq!(nonzero_lane(0), 0x9E37_79B9_7F4A_7C15, "injected zero");
        assert_eq!(nonzero_lane(5), 5);
        // Key 0 at nonce 0, and the key whose nonce-1 pre-seed state is 0.
        for (key, nonce) in [(0, 0), (0xD6E8_FEB8_6659_FD93, 1)] {
            let lanes = LayerCipher::new(LayerKey(key)).keystream(nonce).0;
            assert!(lanes.iter().all(|&lane| lane != 0), "{lanes:x?}");
        }
        // SplitMix64's output map fixes 0, so the seed that makes lane
        // `j`'s input 0 would kill that lane without the guard.
        for j in 0..LANES {
            let seed = 0x9E37_79B9_7F4A_7C15u64
                .wrapping_mul(j as u64 + 1)
                .wrapping_neg();
            let lanes = Keystream::new(seed).0;
            assert_eq!(lanes[j], nonzero_lane(0), "lane {j} of {lanes:x?}");
            assert!(lanes.iter().all(|&lane| lane != 0));
        }
    }

    #[test]
    fn stream_word_i_comes_from_lane_i_mod_four() {
        // The block layout, stated once against the generator itself: 80
        // zero bytes under the keystream are two and a half blocks.
        let mut stream = LayerCipher::new(LayerKey(99)).keystream(3);
        let mut data = vec![0u8; 80];
        LayerCipher::new(LayerKey(99)).apply(3, &mut data);
        let blocks = [
            stream.next_block(),
            stream.next_block(),
            stream.next_block(),
        ];
        for (i, word) in data.chunks(8).enumerate() {
            assert_eq!(load_word(word), blocks[i / LANES][i % LANES], "word {i}");
        }
    }

    /// Builds a matched client route + relay states for `n` hops.
    fn route_of(n: usize) -> (OnionRoute, Vec<RelayCrypt>) {
        let mut route = OnionRoute::new();
        let mut relays = Vec::new();
        for i in 0..n {
            let key = LayerKey::from_handshake(&[i as u8, 0xAA, 7]);
            route.push_layer(key);
            relays.push(RelayCrypt::new(key));
        }
        (route, relays)
    }

    #[test]
    fn onion_route_full_path_recognition() {
        let (mut route, mut relays) = route_of(3);
        let mut cell = RelayCell::data(StreamId(1), b"to the exit".to_vec());
        route.wrap_for_hop(2, &mut cell);
        assert!(
            !relays[0].strip_forward(&mut cell),
            "guard must not recognize"
        );
        assert!(
            !relays[1].strip_forward(&mut cell),
            "middle must not recognize"
        );
        assert!(relays[2].strip_forward(&mut cell), "exit recognizes");
        assert_eq!(cell.data, b"to the exit");
    }

    #[test]
    fn leaky_pipe_counters_stay_in_sync() {
        // Cell 0 targets hop 0 (like an EXTEND), cell 1 targets hop 2.
        // Hop 2's counter must not advance for cell 0.
        let (mut route, mut relays) = route_of(3);

        let mut early = RelayCell::data(StreamId(0), b"extend".to_vec());
        route.wrap_for_hop(0, &mut early);
        assert!(relays[0].strip_forward(&mut early), "hop 0 consumes cell 0");

        let mut data = RelayCell::data(StreamId(1), b"payload".to_vec());
        route.wrap_for_hop(2, &mut data);
        assert!(!relays[0].strip_forward(&mut data));
        assert!(!relays[1].strip_forward(&mut data));
        assert!(relays[2].strip_forward(&mut data), "hop 2 still in sync");
        assert_eq!(data.data, b"payload");
    }

    #[test]
    fn backward_origination_from_any_hop() {
        let (mut route, mut relays) = route_of(3);
        // Hop 1 originates a backward cell (e.g. EXTENDED); hop 0 adds its
        // layer in transit; the client unwraps and learns the origin.
        let mut cell = RelayCell::data(StreamId(0), b"extended".to_vec());
        relays[1].add_backward(&mut cell);
        relays[0].add_backward(&mut cell);
        let origin = route.unwrap_inbound(&mut cell);
        assert_eq!(origin, Some(1));
        assert_eq!(cell.data, b"extended");

        // Next backward cell from the exit: all three layers.
        let mut cell2 = RelayCell::data(StreamId(1), b"connected".to_vec());
        relays[2].add_backward(&mut cell2);
        relays[1].add_backward(&mut cell2);
        relays[0].add_backward(&mut cell2);
        assert_eq!(route.unwrap_inbound(&mut cell2), Some(2));
        assert_eq!(cell2.data, b"connected");
    }

    #[test]
    fn unwrap_of_garbage_returns_none() {
        let (mut route, _) = route_of(2);
        let mut cell = RelayCell {
            cmd: crate::cell::RelayCommand::Data,
            stream: StreamId(1),
            digest: 0xBAD,
            data: b"garbage".to_vec(),
        };
        assert_eq!(route.unwrap_inbound(&mut cell), None);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn wrap_for_unknown_hop_panics() {
        let (mut route, _) = route_of(1);
        let mut cell = RelayCell::data(StreamId(1), vec![]);
        route.wrap_for_hop(1, &mut cell);
    }

    #[test]
    fn many_cells_stay_in_sync_under_mixed_targets() {
        let (mut route, mut relays) = route_of(3);
        // Deterministic pseudo-random interleaving of forward targets and
        // backward origins: every per-layer counter, in both directions,
        // must stay in lockstep with its relay over 10k cells.
        let mut x = 7u64;
        for round in 0..10_000u32 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let hop = ((x >> 33) % 3) as usize;
            let backward = (x >> 40) & 1 == 1;
            let mut payload = round.to_be_bytes().to_vec();
            payload.resize(8 + (x >> 48) as usize % 489, 0xA5);
            let mut cell = RelayCell::data(StreamId(1), payload.clone());
            if backward {
                for relay in relays[..=hop].iter_mut().rev() {
                    relay.add_backward(&mut cell);
                }
                assert_eq!(route.unwrap_inbound(&mut cell), Some(hop), "round {round}");
            } else {
                route.wrap_for_hop(hop, &mut cell);
                let recognized_at = relays.iter_mut().position(|r| r.strip_forward(&mut cell));
                assert_eq!(recognized_at, Some(hop), "round {round}");
            }
            assert_eq!(cell.data, payload);
        }
    }

    #[test]
    fn empty_payload_is_recognized_by_the_first_hop_whatever_it_was_wrapped_for() {
        // Why `wrap_for_hop` demands ≥ 8 payload bytes (and why there is no
        // empty-payload relay-cell constructor): every layer is a no-op on
        // zero bytes, so the digest of "" verifies at hop 0 although the
        // cell was addressed to hop 2 — the leaky pipe leaks early.
        let (mut route, mut relays) = route_of(3);
        let mut cell = RelayCell::data(StreamId(1), Vec::new());
        route.wrap_for_hop(2, &mut cell);
        assert!(relays[0].strip_forward(&mut cell), "documented hazard");
        // Eight bytes are enough for the same addressing to hold.
        let (mut route, mut relays) = route_of(3);
        let mut cell = RelayCell::data(StreamId(1), vec![0; 8]);
        route.wrap_for_hop(2, &mut cell);
        assert!(!relays[0].strip_forward(&mut cell));
        assert!(!relays[1].strip_forward(&mut cell));
        assert!(relays[2].strip_forward(&mut cell));
    }

    #[test]
    fn payload_passes_count_one_walk_per_fused_pass() {
        let (mut route, mut relays) = route_of(9);
        let mut cell = RelayCell::data(StreamId(1), vec![3; 64]);
        // ≤ 4 layers share one pass; 9 layers take groups of 4 + 4 + 1.
        for (hop, total) in [(0, 1), (3, 2), (4, 4), (8, 7)] {
            route.wrap_for_hop(hop, &mut cell);
            assert_eq!(
                route.payload_passes(),
                total,
                "after wrapping for hop {hop}"
            );
        }
        // Strip and digest share a pass; so does each unwrap attempt.
        relays[0].strip_forward(&mut cell);
        assert_eq!(relays[0].payload_passes(), 1);
        let mut reply = RelayCell::data(StreamId(1), vec![4; 64]);
        for relay in relays[..=5].iter_mut().rev() {
            relay.add_backward(&mut reply);
        }
        assert_eq!(relays[0].payload_passes(), 2);
        assert_eq!(route.unwrap_inbound(&mut reply), Some(5));
        assert_eq!(route.payload_passes(), 7 + 6);
    }
}
