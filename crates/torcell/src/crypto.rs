//! Onion-layering stand-in.
//!
//! # ⚠ Not cryptography
//!
//! Real Tor wraps relay payloads in per-hop AES-CTR layers with SHA-1
//! running digests. The CircuitStart experiments measure **congestion
//! dynamics**; the only properties of the onion layers that matter there
//! are (a) payload size is preserved by each layer and (b) each hop applies
//! or removes exactly one layer. This module reproduces that *structure*
//! with a keyed counter-mode keystream — deterministic, size-preserving,
//! trivially invertible, and completely insecure: word `i` of a layer's
//! stream is a fixed bijective mix of counter `i + 1`, consumed 32 bytes
//! at a time by one block loop. See DESIGN.md §2 for the substitution
//! rationale.

use crate::cell::{RelayCell, RelayCommand, RELAY_DATA_MAX};
use crate::ids::StreamId;

/// A 64-bit layer key (stand-in for negotiated key material).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct LayerKey(pub u64);

impl LayerKey {
    /// Derives a key from a handshake blob, mimicking key agreement: both
    /// ends of a CREATE/CREATED exchange derive the same key. Every key is
    /// usable, 0 included: [`Keystream::new`] guards the counters.
    pub fn from_handshake(handshake: &[u8]) -> LayerKey {
        let mut k: u64 = 0x2545_F491_4F6C_DD1D;
        for &b in handshake {
            k ^= u64::from(b);
            k = k.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17);
        }
        LayerKey(k)
    }
}

/// One onion layer: a keyed, position-synchronized XOR keystream, and
/// the layer's [`DigestKey`].
///
/// Applying the layer twice with the same starting offset is the identity,
/// which is exactly how the tests verify wrap/unwrap symmetry.
#[derive(Clone, Debug)]
pub struct LayerCipher {
    key: LayerKey,
    digest: DigestKey,
}

impl LayerCipher {
    /// Creates a cipher from a key, deriving its digest key once.
    pub fn new(key: LayerKey) -> LayerCipher {
        LayerCipher {
            key,
            digest: DigestKey::of(key),
        }
    }

    /// XORs the keystream for (`key`, `nonce`) over `data` in place.
    /// `nonce` must match between apply and un-apply; callers use the
    /// per-cell sequence number.
    ///
    /// The keystream is counter mode: word `i` (8 bytes, little-endian)
    /// is [`mix`] of counter `i + 1` (see [`Keystream`]). A payload that
    /// ends inside a word uses the leading bytes of that word.
    pub fn apply(&self, nonce: u64, data: &mut [u8]) {
        xor_keystreams([self.keystream(nonce)], data, [0; LANES], |h, _| h);
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

/// The step between successive counters of a stream: odd, so its 2^64
/// counters are all distinct.
const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// `GAMMA`'s inverse mod 2^64. An odd `x` is its own inverse mod 8, and
/// each Newton step doubles the correct low bits: 3 → 6 → … → 96.
const GAMMA_INV: u64 = {
    let mut inv = GAMMA;
    let mut step = 0;
    while step < 5 {
        inv = inv.wrapping_mul(2u64.wrapping_sub(GAMMA.wrapping_mul(inv)));
        step += 1;
    }
    inv
};

/// Counters `0..ZERO_FREE` of every stream are non-zero: 2^32 words, a
/// 32 GiB payload.
const ZERO_FREE: u64 = 1 << 32;

/// The word function: xorshift → multiply → xorshift, a bijection of
/// `u64` that is nonlinear in its input, so successive counters' words
/// cannot be strength-reduced to one add each (a word function linear in
/// the counter is in DESIGN §5's register for that reason). It fixes 0,
/// which is why [`Keystream::new`] keeps the counters off 0.
#[inline]
fn mix(z: u64) -> u64 {
    let z = (z ^ (z >> 32)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z ^ (z >> 29)
}

/// One layer's keystream for one cell: a counter. Counter `k` is
/// `seed + k·GAMMA`; word `i` of the payload stream is [`mix`] of counter
/// `i + 1`, and counter 0 gives the byte the layer XORs into a cell's
/// `recognized` field.
///
/// Blocks are independent, as AES-CTR's are: no word waits on another,
/// so a core computes a block's words — and, in a fused pass, every
/// layer's — side by side. [`Keystream::next_block`] is the 32-byte seam
/// a ChaCha-class `block(key, nonce, counter)` plugs into.
#[derive(Clone, Copy)]
struct Keystream {
    /// Counter of the last word handed out (0 before the first block).
    counter: u64,
}

impl Keystream {
    /// Positions a stream at `seed`. A counter of 0 would leave its word
    /// of the payload in the clear, so a seed whose counters
    /// `0..ZERO_FREE` reach 0 (odds 2^-32) steps back `ZERO_FREE`
    /// counters, which moves that zero past the window. O(1): counter `k`
    /// is 0 exactly at `k = −seed·GAMMA⁻¹`.
    #[inline]
    fn new(seed: u64) -> Keystream {
        let zero_at = seed.wrapping_neg().wrapping_mul(GAMMA_INV);
        let counter = if zero_at < ZERO_FREE {
            seed.wrapping_sub(ZERO_FREE.wrapping_mul(GAMMA))
        } else {
            seed
        };
        Keystream { counter }
    }

    /// The byte this layer XORs into `recognized`: the low byte of the
    /// word at counter 0, which no payload word uses. Read it before the
    /// first block.
    #[inline]
    fn recognized(&self) -> u8 {
        mix(self.counter) as u8
    }

    /// The next block: the words of the next four counters.
    #[inline]
    fn next_block(&mut self) -> [u64; LANES] {
        let base = self.counter;
        self.counter = base.wrapping_add(GAMMA.wrapping_mul(LANES as u64));
        std::array::from_fn(|j| mix(base.wrapping_add(GAMMA.wrapping_mul(j as u64 + 1))))
    }
}

/// The XOR of `N` keystreams' next blocks: the key of one step of a
/// fused pass.
#[inline]
fn next_key<const N: usize>(streams: &mut [Keystream; N]) -> [u64; LANES] {
    streams.iter_mut().fold([0; LANES], |mut key, stream| {
        for (k, word) in key.iter_mut().zip(stream.next_block()) {
            *k ^= word;
        }
        key
    })
}

/// The XOR of `N` layers' `recognized` bytes.
#[inline]
fn recognized_of<const N: usize>(streams: &[Keystream; N]) -> u8 {
    streams
        .iter()
        .fold(0, |byte, stream| byte ^ stream.recognized())
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

/// The one loop that walks a payload in place: XORs `N` keystreams over
/// `data` in a **single** pass, a 32-byte block per step, and folds word
/// `i` of the result into accumulator lane `i mod 4` (starting from
/// `lanes`) with `fold`; returns the lanes and the result's zero-padded
/// tail word (0 when `data` is a whole number of words) — the things
/// [`DigestKey::digest`] is made of. A remainder shorter than a block is
/// handled once, from one more block.
///
/// XOR commutes, so the bytes equal applying the `N` layers one after
/// another in any order; but the `4 N` keystream words of a step and the
/// four digest chains are independent (their latencies overlap instead of
/// serialising) and the payload is loaded and stored once rather than `N`
/// times.
#[inline]
fn xor_keystreams<const N: usize>(
    mut streams: [Keystream; N],
    data: &mut [u8],
    mut lanes: [u64; LANES],
    fold: impl Fn(u64, u64) -> u64,
) -> ([u64; LANES], u64) {
    let mut blocks = data.chunks_exact_mut(BLOCK_LEN);
    for block in &mut blocks {
        let key = next_key(&mut streams);
        xor_words(block.chunks_exact_mut(8), key, &mut lanes, &fold);
    }
    let rest = blocks.into_remainder();
    let mut tail_word = 0;
    if !rest.is_empty() {
        let key = next_key(&mut streams);
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

/// The client's one walk of a new payload: reads `plain` once, appends it
/// to `out` under `N` keystreams, and folds the *plaintext* words into the
/// digest on the way; returns `key.digest(plain)`. A remainder shorter
/// than a block takes one more block, as in [`xor_keystreams`].
#[inline]
fn seal<const N: usize>(
    mut streams: [Keystream; N],
    key: DigestKey,
    plain: &[u8],
    out: &mut Vec<u8>,
) -> u32 {
    let mut lanes = key.0;
    let mut blocks = plain.chunks_exact(BLOCK_LEN);
    for block in &mut blocks {
        let key = next_key(&mut streams);
        let mut sealed = [0u8; BLOCK_LEN];
        let words = block.chunks_exact(8).zip(sealed.chunks_exact_mut(8));
        for (((src, dst), k), h) in words.zip(key).zip(&mut lanes) {
            let word = load_word(src);
            *h = digest_word(*h, word);
            dst.copy_from_slice(&(word ^ k).to_le_bytes());
        }
        out.extend_from_slice(&sealed);
    }
    let rest = blocks.remainder();
    let mut tail_word = 0;
    if !rest.is_empty() {
        let key = next_key(&mut streams);
        let mut words = rest.chunks_exact(8);
        for ((src, k), h) in (&mut words).zip(key).zip(&mut lanes) {
            let word = load_word(src);
            *h = digest_word(*h, word);
            out.extend_from_slice(&(word ^ k).to_le_bytes());
        }
        let tail = words.remainder();
        tail_word = load_tail(tail);
        let sealed = tail_word ^ key[rest.len() / 8];
        out.extend_from_slice(&sealed.to_le_bytes()[..tail.len()]);
    }
    digest_finish(lanes, tail_word, plain.len())
}

/// Removes one layer from `cell` and reports whether the cell is now
/// *recognized*: the `recognized` byte reads 0 **and** the layer's digest
/// (`key`) of the stripped payload equals `cell.digest`. As in Tor, the
/// byte is checked first, so a hop a cell only passes through never
/// digests it; when the byte does read 0, the digest rides along in the
/// strip's pass (the keystream and digest chains share no state).
#[inline]
fn strip(stream: Keystream, key: DigestKey, cell: &mut RelayCell) -> bool {
    cell.recognized ^= stream.recognized();
    if cell.recognized != 0 {
        xor_keystreams([stream], &mut cell.data, [0; LANES], |h, _| h);
        return false;
    }
    let len = cell.data.len();
    let (lanes, tail_word) = xor_keystreams([stream], &mut cell.data, key.0, digest_word);
    digest_finish(lanes, tail_word, len) == cell.digest
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
    /// one per group of ≤ 4 layers in [`wrap_for_hop`](Self::wrap_for_hop)
    /// and [`seal_for_hop`](Self::seal_for_hop), one per layer attempted
    /// in [`unwrap_inbound`](Self::unwrap_inbound).
    pub fn payload_passes(&self) -> u64 {
        self.payload_passes
    }

    /// Wraps an outbound relay cell so that it is recognized at layer
    /// `hop` (0 = first relay); counters of layers `0..=hop` advance.
    /// All `hop + 1` keystreams are XORed in one pass over the payload
    /// (groups of 4 on longer routes) — XOR commutes, so the bytes are
    /// those of applying the layers innermost-first one at a time — and
    /// each layer XORs its byte into `recognized`, which therefore reads
    /// 0 at hop `hop` and, at an earlier hop, only when the remaining
    /// layers' bytes cancel (odds 2^-8).
    ///
    /// `cell.digest` must be [`digest_key(hop)`](Self::digest_key)'s
    /// digest of the payload. An earlier hop whose byte reads 0 checks it
    /// under its own key, so it takes the cell only on a 32-bit digest
    /// collision, at any payload length.
    ///
    /// # Panics
    ///
    /// Panics if `hop` is out of range.
    pub fn wrap_for_hop(&mut self, hop: usize, cell: &mut RelayCell) {
        assert!(
            hop < self.layers.len(),
            "wrap_for_hop: hop {hop} out of range"
        );
        self.wrap_layers(0, hop, cell);
    }

    /// Builds a relay cell for `hop` from its plaintext in **one walk**:
    /// the first group of ≤ 4 layers reads `plain`, folds its digest under
    /// `hop`'s [`DigestKey`], XORs the layers' keystreams and appends the
    /// result to `buf` (an empty buffer, typically from a pool); the byte
    /// is set as [`wrap_for_hop`](Self::wrap_for_hop) sets it. The cell
    /// equals `RelayCell { cmd, .. }` over `plain` with its digest,
    /// wrapped for `hop` — fill, digest and wrap fused.
    ///
    /// # Panics
    ///
    /// Panics if `hop` is out of range or `plain` exceeds
    /// [`RELAY_DATA_MAX`].
    pub fn seal_for_hop(
        &mut self,
        hop: usize,
        cmd: RelayCommand,
        stream: StreamId,
        plain: &[u8],
        mut buf: Vec<u8>,
    ) -> RelayCell {
        assert!(
            hop < self.layers.len(),
            "seal_for_hop: hop {hop} out of range"
        );
        assert!(
            plain.len() <= RELAY_DATA_MAX,
            "relay payload of {} bytes exceeds max {RELAY_DATA_MAX}",
            plain.len()
        );
        debug_assert!(buf.is_empty(), "seal_for_hop appends to an empty buffer");
        let n = (hop + 1).min(4);
        let key = self.digest_key(hop);
        let (digest, recognized) = match n {
            1 => self.seal_group::<1>(key, plain, &mut buf),
            2 => self.seal_group::<2>(key, plain, &mut buf),
            3 => self.seal_group::<3>(key, plain, &mut buf),
            _ => self.seal_group::<4>(key, plain, &mut buf),
        };
        let mut cell = RelayCell {
            cmd,
            recognized,
            stream,
            digest,
            data: buf,
        };
        self.wrap_layers(n, hop, &mut cell);
        cell
    }

    /// The digest key of layer `hop`: a cell addressed to `hop` carries
    /// its digest under this key.
    ///
    /// # Panics
    ///
    /// Panics if `hop` is out of range.
    pub fn digest_key(&self, hop: usize) -> DigestKey {
        self.layers[hop].digest
    }

    /// The forward keystreams of layers `lo..lo + N`; their counters
    /// advance.
    fn fwd_streams<const N: usize>(&mut self, lo: usize) -> [Keystream; N] {
        std::array::from_fn(|j| {
            let stream = self.layers[lo + j].keystream(self.fwd_counters[lo + j]);
            self.fwd_counters[lo + j] += 1;
            stream
        })
    }

    /// Seals `plain` into `out` under forward layers `0..N` in one pass;
    /// returns the plaintext's digest under `key` and the layers'
    /// `recognized` byte.
    fn seal_group<const N: usize>(
        &mut self,
        key: DigestKey,
        plain: &[u8],
        out: &mut Vec<u8>,
    ) -> (u32, u8) {
        let streams = self.fwd_streams::<N>(0);
        self.payload_passes += 1;
        let recognized = recognized_of(&streams);
        (seal(streams, key, plain, out), recognized)
    }

    /// Applies forward layers `lo..=hop` in place, ≤ 4 per pass.
    fn wrap_layers(&mut self, mut lo: usize, hop: usize, cell: &mut RelayCell) {
        while lo <= hop {
            let n = (hop + 1 - lo).min(4);
            match n {
                1 => self.wrap_group::<1>(lo, cell),
                2 => self.wrap_group::<2>(lo, cell),
                3 => self.wrap_group::<3>(lo, cell),
                _ => self.wrap_group::<4>(lo, cell),
            }
            lo += n;
        }
    }

    /// Applies forward layers `lo..lo + N` in one pass.
    fn wrap_group<const N: usize>(&mut self, lo: usize, cell: &mut RelayCell) {
        let streams = self.fwd_streams::<N>(lo);
        cell.recognized ^= recognized_of(&streams);
        xor_keystreams(streams, &mut cell.data, [0; LANES], |h, _| h);
        self.payload_passes += 1;
    }

    /// Unwraps an inbound (backward) relay cell layer by layer until it
    /// is recognized (see [`RelayCrypt::strip_forward`]), returning the
    /// hop it originated from. Counters of every attempted layer advance,
    /// exactly like Tor's stream ciphers. Each attempt is one pass; only
    /// an attempt whose `recognized` byte reads 0 digests the payload,
    /// under that layer's [`DigestKey`].
    ///
    /// Returns `None` (after consuming one count on every layer) if no
    /// layer recognizes the cell — a corrupt or misrouted cell.
    pub fn unwrap_inbound(&mut self, cell: &mut RelayCell) -> Option<usize> {
        for i in 0..self.layers.len() {
            let stream = self.layers[i].keystream(self.bwd_counters[i]);
            self.bwd_counters[i] += 1;
            self.payload_passes += 1;
            if strip(stream, self.layers[i].digest, cell) {
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

    /// This hop's digest key: a cell it originates carries its digest
    /// under this key.
    pub fn digest_key(&self) -> DigestKey {
        self.cipher.digest
    }

    /// How many times this relay has walked a cell payload end to end:
    /// one per [`strip_forward`](Self::strip_forward) (a digest, when
    /// there is one, shares the pass), one per
    /// [`add_backward`](Self::add_backward), two per
    /// [`seal_backward`](Self::seal_backward).
    pub fn payload_passes(&self) -> u64 {
        self.payload_passes
    }

    /// Strips this relay's layer from a forward cell (client → exit) and
    /// reports whether the cell is now *recognized* (`recognized` byte 0
    /// and digest valid ⇒ this relay is the target and must consume it).
    /// A cell whose byte reads non-zero is passing through: it is not
    /// digested.
    pub fn strip_forward(&mut self, cell: &mut RelayCell) -> bool {
        let stream = self.cipher.keystream(self.fwd_counter);
        self.fwd_counter += 1;
        self.payload_passes += 1;
        strip(stream, self.cipher.digest, cell)
    }

    /// Adds this relay's layer to a backward cell it forwards (toward the
    /// client).
    pub fn add_backward(&mut self, cell: &mut RelayCell) {
        let stream = self.cipher.keystream(self.bwd_counter);
        cell.recognized ^= stream.recognized();
        xor_keystreams([stream], &mut cell.data, [0; LANES], |h, _| h);
        self.bwd_counter += 1;
        self.payload_passes += 1;
    }

    /// Builds a backward cell this hop originates (EXTENDED, CONNECTED)
    /// from its plaintext `data`: digests it under this layer's
    /// [`DigestKey`], so the client recognizes it at this hop, then adds
    /// the layer as [`add_backward`](Self::add_backward) does — two walks.
    pub fn seal_backward(
        &mut self,
        cmd: RelayCommand,
        stream: StreamId,
        data: Vec<u8>,
    ) -> RelayCell {
        self.payload_passes += 1;
        let mut cell = RelayCell {
            cmd,
            recognized: 0,
            stream,
            digest: self.cipher.digest.digest(&data),
            data,
        };
        self.add_backward(&mut cell);
        cell
    }
}

const DIGEST_SEED: u64 = 0x811c_9dc5_2545_f491;

/// A layer's digest key: the four accumulator lanes its payload digest
/// starts from, derived from the layer key at handshake, as Tor seeds
/// each hop's running digest (`Df`/`Db`) from its handshake. A cell
/// carries its digest under the key of the hop it is addressed to, so a
/// passing hop whose `recognized` byte happens to read 0 still rejects
/// it: its own key gives another digest (odds 2^-32 of a collision),
/// whatever the payload's length.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct DigestKey([u64; LANES]);

/// The lanes of [`payload_digest`]: `SEED ^ j`.
const UNKEYED: DigestKey = DigestKey([
    DIGEST_SEED,
    DIGEST_SEED ^ 1,
    DIGEST_SEED ^ 2,
    DIGEST_SEED ^ 3,
]);

impl DigestKey {
    /// The digest key of the layer keyed `key`: lane `j` is [`mix`] of
    /// `(key ^ SEED) + (j + 1)·γ`, the counter construction of the
    /// keystream from another origin.
    pub fn of(key: LayerKey) -> DigestKey {
        let origin = key.0 ^ DIGEST_SEED;
        DigestKey(std::array::from_fn(|j| {
            mix(origin.wrapping_add(GAMMA.wrapping_mul(j as u64 + 1)))
        }))
    }

    /// The payload digest under this key — a multiply-rotate mix over
    /// 8-byte words, word `i` folded into accumulator lane `i mod 4` so
    /// the four chains advance side by side.
    ///
    /// Stands in for Tor's running SHA-1 "recognized" digest: it lets the
    /// recognizing hop detect payload corruption in tests, nothing more —
    /// so it is built for throughput (one multiply per 8 bytes, four in
    /// flight), not security. This is the standalone form a relay's
    /// [`RelayCrypt::seal_backward`] uses; the client's seal and the
    /// recognizing hops compute the same value inside their one pass.
    pub fn digest(self, data: &[u8]) -> u32 {
        let mut lanes = self.0;
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
}

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

/// The digest under a fixed key that belongs to no layer: the feedback
/// frame's checksum, and the digest [`RelayCell::data`] gives a cell not
/// yet addressed to a hop.
pub fn payload_digest(data: &[u8]) -> u32 {
    UNKEYED.digest(data)
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
    fn gamma_inv_is_the_inverse_of_gamma() {
        assert_eq!(GAMMA.wrapping_mul(GAMMA_INV), 1);
    }

    #[test]
    fn stream_word_i_is_the_mix_of_counter_i_plus_one() {
        // The block layout, stated once against the generator itself: 80
        // zero bytes under the keystream are two and a half blocks, and
        // the recognized byte comes from counter 0.
        let seed = 99 ^ 3u64.wrapping_mul(0xD6E8_FEB8_6659_FD93);
        let stream = LayerCipher::new(LayerKey(99)).keystream(3);
        assert_eq!(stream.counter, seed, "an ordinary seed is not stepped");
        assert_eq!(stream.recognized(), mix(seed) as u8);
        let mut data = vec![0u8; 80];
        LayerCipher::new(LayerKey(99)).apply(3, &mut data);
        for (i, word) in data.chunks(8).enumerate() {
            let counter = seed.wrapping_add(GAMMA.wrapping_mul(i as u64 + 1));
            assert_eq!(load_word(word), mix(counter), "word {i}");
        }
    }

    #[test]
    fn a_seed_whose_counters_reach_zero_is_stepped_off_it() {
        assert_eq!(mix(0), 0, "the word function fixes 0: the guard is needed");
        // The seed whose counter `k` is 0, at the window's edges and
        // inside a payload; and the first seed past the window.
        let zero_at = |k: u64| GAMMA.wrapping_mul(k).wrapping_neg();
        for k in [0, 1, 2, 63, ZERO_FREE - 1] {
            let stream = Keystream::new(zero_at(k));
            assert_eq!(stream.counter, zero_at(k + ZERO_FREE), "k = {k}");
            assert_ne!(stream.counter, 0);
        }
        assert_eq!(
            Keystream::new(zero_at(ZERO_FREE)).counter,
            zero_at(ZERO_FREE)
        );
        let mut stream = Keystream::new(zero_at(5));
        assert_ne!(mix(stream.counter), 0);
        for _ in 0..32 {
            assert!(stream.next_block().iter().all(|&word| word != 0));
        }
    }

    /// A cell carrying `data`, addressed by its digest under `key`.
    fn addressed(key: DigestKey, stream: u16, data: &[u8]) -> RelayCell {
        RelayCell {
            digest: key.digest(data),
            ..RelayCell::data(StreamId(stream), data.to_vec())
        }
    }

    #[test]
    fn each_layer_digests_under_its_own_key() {
        let (a, b) = (LayerKey(1), LayerKey(2));
        assert_ne!(DigestKey::of(a), DigestKey::of(b));
        assert_eq!(LayerCipher::new(a).digest, DigestKey::of(a));
        for data in [&b""[..], b"x", b"payload!"] {
            let (da, db) = (DigestKey::of(a).digest(data), DigestKey::of(b).digest(data));
            assert_ne!(da, db, "{data:?}");
            assert_ne!(da, payload_digest(data), "{data:?}");
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
        let mut cell = addressed(route.digest_key(2), 1, b"to the exit");
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

        let mut early = addressed(route.digest_key(0), 0, b"extend");
        route.wrap_for_hop(0, &mut early);
        assert!(relays[0].strip_forward(&mut early), "hop 0 consumes cell 0");

        let mut data = addressed(route.digest_key(2), 1, b"payload");
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
        let mut cell = addressed(relays[1].digest_key(), 0, b"extended");
        relays[1].add_backward(&mut cell);
        relays[0].add_backward(&mut cell);
        let origin = route.unwrap_inbound(&mut cell);
        assert_eq!(origin, Some(1));
        assert_eq!(cell.data, b"extended");

        // Next backward cell from the exit: all three layers.
        let mut cell2 = addressed(relays[2].digest_key(), 1, b"connected");
        relays[2].add_backward(&mut cell2);
        relays[1].add_backward(&mut cell2);
        relays[0].add_backward(&mut cell2);
        assert_eq!(route.unwrap_inbound(&mut cell2), Some(2));
        assert_eq!(cell2.data, b"connected");
    }

    #[test]
    fn seal_backward_is_digest_then_add_backward_at_every_length() {
        let key = LayerKey::from_handshake(&[9, 0xAA, 7]);
        let (mut sealer, mut reference) = (RelayCrypt::new(key), RelayCrypt::new(key));
        let cmd = RelayCommand::Connected;
        for len in 0..=RELAY_DATA_MAX {
            let data: Vec<u8> = (0..len).map(|i| (i * 7 + len) as u8).collect();
            let mut expected = addressed(reference.digest_key(), 3, &data);
            expected.cmd = cmd;
            reference.add_backward(&mut expected);
            let walks = sealer.payload_passes();
            let cell = sealer.seal_backward(cmd, StreamId(3), data);
            assert_eq!(cell, expected, "length {len}");
            assert_eq!(sealer.bwd_counter, reference.bwd_counter, "length {len}");
            assert_eq!(sealer.payload_passes(), walks + 2, "length {len}");
        }
    }

    #[test]
    fn unwrap_of_garbage_returns_none() {
        let (mut route, _) = route_of(2);
        let mut cell = RelayCell {
            cmd: crate::cell::RelayCommand::Data,
            recognized: 0,
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
            payload.resize((x >> 48) as usize % 497, 0xA5);
            let mut cell = addressed(relays[hop].digest_key(), 1, &payload);
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
    fn empty_payload_is_never_taken_early() {
        // Every layer is a no-op on zero bytes, so an empty cell reaches
        // each hop as it left the client. A passing hop whose byte reads
        // 0 (the remaining layers' bytes cancel, odds 2^-8) checks the
        // digest under its own key, and the cell carries the target's.
        let mut zero_bytes = 0;
        for round in 0..4096u32 {
            let mut route = OnionRoute::new();
            let mut relays = Vec::new();
            for i in 0..3u32 {
                let key = LayerKey::from_handshake(&(round * 3 + i).to_le_bytes());
                route.push_layer(key);
                relays.push(RelayCrypt::new(key));
            }
            let mut cell = addressed(route.digest_key(2), 1, b"");
            route.wrap_for_hop(2, &mut cell);
            for relay in &mut relays[..2] {
                assert!(!relay.strip_forward(&mut cell), "round {round}");
                zero_bytes += usize::from(cell.recognized == 0);
            }
            assert!(relays[2].strip_forward(&mut cell), "round {round}");
        }
        // 8192 passing strips × 2^-8 ≈ 32 expected: the byte did read 0,
        // and the digest turned the cell away.
        assert!((8..=64).contains(&zero_bytes), "{zero_bytes} zero bytes");
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
        // A seal is a wrap whose first pass also reads the plaintext and
        // folds the digest: the same count.
        let cmd = crate::cell::RelayCommand::Data;
        for (hop, total) in [(0, 8), (3, 9), (8, 12)] {
            route.seal_for_hop(hop, cmd, StreamId(1), &[5; 64], Vec::new());
            assert_eq!(route.payload_passes(), total, "after sealing for hop {hop}");
        }
        // Strip and digest share a pass; so does each unwrap attempt.
        relays[0].strip_forward(&mut cell);
        assert_eq!(relays[0].payload_passes(), 1);
        let mut reply = addressed(relays[5].digest_key(), 1, &[4; 64]);
        for relay in relays[..=5].iter_mut().rev() {
            relay.add_backward(&mut reply);
        }
        assert_eq!(relays[0].payload_passes(), 2);
        assert_eq!(route.unwrap_inbound(&mut reply), Some(5));
        assert_eq!(route.payload_passes(), 12 + 6);
    }
}
