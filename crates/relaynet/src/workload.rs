//! The workload model: flows, stream multiplexing, arrival processes,
//! and circuit churn.
//!
//! A **flow** is one application-level request: "deliver `requested`
//! bytes to the server". Flows are the unit of byte conservation — a
//! flow survives circuit teardown and is re-attached (with its remaining
//! bytes) to the rebuilt circuit, so the sum of delivered bytes always
//! converges to the sum requested, no matter how often circuits churn
//! underneath (DESIGN.md §8).
//!
//! A **stream** is a flow's attachment to one circuit incarnation: a
//! [`torcell::ids::StreamId`] multiplexed over the circuit's single
//! `CircId`, with its own BEGIN/CONNECTED handshake, DATA byte
//! accounting, and END. A circuit carries several concurrent streams;
//! the client round-robins DATA generation across the open ones.
//!
//! A [`WorkloadSpec`] is the scenario-level knob: how many streams per
//! circuit, how their arrivals are staggered (immediate, uniformly
//! jittered, or bursty on/off "web-like"), and whether the circuit
//! churns (tears down mid-experiment and rebuilds). The spec is
//! *resolved* once, at build time, with a dedicated [`SimRng`] stream —
//! every offset and teardown point is drawn up front so the experiment
//! stays bit-identical across event-queue implementations.

use simcore::rng::SimRng;
use simcore::time::{SimDuration, SimTime};

use crate::directory::EpochDelta;

/// Index of a flow within one [`crate::network::TorNetwork`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct FlowId(pub u32);

impl FlowId {
    /// The raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for FlowId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "flow#{}", self.0)
    }
}

/// Mutable record of one application-level request, tracked across
/// circuit incarnations by the network (the server side updates it as
/// DATA arrives).
#[derive(Clone, Copy, Debug)]
pub struct FlowState {
    /// Total payload bytes the application asked for.
    pub requested: u64,
    /// Payload bytes delivered to the server so far (across all circuit
    /// incarnations that carried the flow).
    pub delivered: u64,
    /// DATA cells delivered so far.
    pub cells_delivered: u64,
    /// When the flow's request was issued (first arrival at a client).
    pub arrival_at: Option<SimTime>,
    /// When the last requested byte reached the server.
    pub completed_at: Option<SimTime>,
    /// How many circuit incarnations have carried this flow.
    pub carried_by: u32,
}

impl FlowState {
    /// Creates a fresh flow of `requested` bytes.
    pub fn new(requested: u64) -> FlowState {
        assert!(requested > 0, "a flow must request at least one byte");
        FlowState {
            requested,
            delivered: 0,
            cells_delivered: 0,
            arrival_at: None,
            completed_at: None,
            carried_by: 0,
        }
    }

    /// Bytes still owed to the server.
    pub fn remaining(&self) -> u64 {
        self.requested - self.delivered
    }

    /// Whether every requested byte has been delivered.
    pub fn complete(&self) -> bool {
        self.delivered >= self.requested
    }

    /// Request-to-last-byte latency, once complete — the per-stream
    /// completion metric the workload CDFs aggregate.
    pub fn completion_time(&self) -> Option<SimDuration> {
        match (self.arrival_at, self.completed_at) {
            (Some(a), Some(b)) => b.checked_duration_since(a),
            _ => None,
        }
    }
}

/// One flow's attachment to one circuit incarnation, as resolved at
/// build (or rebuild) time. Stream ids are 1-based and dense: stream
/// `i` of a circuit carries id `i + 1` (id 0 is the circuit-control
/// stream).
#[derive(Clone, Copy, Debug)]
pub struct StreamSpec {
    /// The flow this stream carries.
    pub flow: FlowId,
    /// Bytes to transfer on this incarnation (the flow's remaining bytes
    /// at attach time).
    pub bytes: u64,
    /// Arrival offset after the circuit's start event; the stream opens
    /// (BEGIN) only once this much simulated time has passed.
    pub offset: SimDuration,
}

/// The fully resolved workload of one circuit incarnation: which flows
/// it carries, and when (if ever) it is torn down and rebuilt.
#[derive(Clone, Debug, Default)]
pub struct CircuitWorkload {
    /// Streams multiplexed over the circuit, in stream-id order.
    pub streams: Vec<StreamSpec>,
    /// Pending teardown points: `teardown_after[0]` fires this many
    /// simulated time units after this incarnation starts; the rest are
    /// inherited by successive rebuilds. Empty = this incarnation runs
    /// to natural completion (the final cycle).
    pub teardown_after: Vec<SimDuration>,
    /// Pause between an incarnation's full teardown (all slots
    /// reclaimed) and the successor's build.
    pub rebuild_delay: SimDuration,
}

/// How stream arrivals are spread over time after the circuit starts.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub enum ArrivalSpec {
    /// Every stream is requested the moment the circuit starts.
    #[default]
    Immediate,
    /// Each stream's arrival is drawn uniformly from `[0, max_ms]`
    /// after circuit start — staggered, uncorrelated requests.
    UniformJitter {
        /// Upper bound of the stagger window (milliseconds).
        max_ms: f64,
    },
    /// Bursty on/off "web-like" pattern: streams arrive in bursts of
    /// `burst`; between bursts the client is off for a gap drawn
    /// uniformly from `gap_ms` (think: page load → quiet → next click).
    OnOff {
        /// Streams issued back-to-back per on-period.
        burst: usize,
        /// Off-period range between bursts (milliseconds).
        gap_ms: (f64, f64),
    },
}

/// When and how often a circuit is torn down and rebuilt.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ChurnSpec {
    /// Teardown point, drawn uniformly from this range (milliseconds
    /// after the incarnation starts). Shorter than the transfer ⇒ the
    /// DESTROY races in-flight DATA cells.
    pub teardown_after_ms: (f64, f64),
    /// Delay between full teardown and the rebuild (milliseconds).
    pub rebuild_delay_ms: f64,
    /// Number of teardown/rebuild cycles. The incarnation after the
    /// last rebuild runs to completion, so no requested byte is ever
    /// abandoned.
    pub cycles: u32,
}

/// Scenario-level workload knob: streams per circuit, their arrival
/// process, and optional churn. `Default` reproduces the pre-workload
/// behaviour exactly: one immediate bulk stream, no churn.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WorkloadSpec {
    /// Concurrent streams multiplexed over each circuit. The circuit's
    /// payload bytes are split evenly across them.
    pub streams_per_circuit: usize,
    /// Arrival process for the streams.
    pub arrival: ArrivalSpec,
    /// Teardown/rebuild behaviour; `None` = circuits live forever.
    pub churn: Option<ChurnSpec>,
}

impl Default for WorkloadSpec {
    fn default() -> Self {
        WorkloadSpec {
            streams_per_circuit: 1,
            arrival: ArrivalSpec::Immediate,
            churn: None,
        }
    }
}

impl WorkloadSpec {
    /// Splits `file_bytes` across the configured stream count (spread
    /// evenly, remainder on the first stream).
    ///
    /// # Panics
    ///
    /// Panics if the stream count is 0 or exceeds `file_bytes`.
    pub fn split_bytes(&self, file_bytes: u64) -> Vec<u64> {
        assert!(
            self.streams_per_circuit > 0,
            "streams per circuit must be positive"
        );
        let n = self.streams_per_circuit as u64;
        assert!(
            file_bytes >= n,
            "cannot split {file_bytes} bytes across {n} streams"
        );
        let each = file_bytes / n;
        let mut out = vec![each; n as usize];
        out[0] += file_bytes - each * n;
        out
    }

    /// Resolves the spec into a concrete [`CircuitWorkload`]: draws
    /// every arrival offset and teardown point from `rng`, registering
    /// each stream's flow through `register_flow` (the network hands
    /// out [`FlowId`]s).
    ///
    /// # Panics
    ///
    /// Panics on a spec that names no sensible workload: no streams, a
    /// burst of 0, or a negative or NaN stagger, gap or rebuild delay
    /// (0 is legal for each: no delay).
    pub fn resolve(
        &self,
        file_bytes: u64,
        rng: &mut SimRng,
        mut register_flow: impl FnMut(u64) -> FlowId,
    ) -> CircuitWorkload {
        let bytes = self.split_bytes(file_bytes);
        let offsets = self.arrival_offsets(bytes.len(), rng);
        let streams = bytes
            .into_iter()
            .zip(offsets)
            .map(|(b, offset)| StreamSpec {
                flow: register_flow(b),
                bytes: b,
                offset,
            })
            .collect();
        let (teardown_after, rebuild_delay) = match self.churn {
            None => (Vec::new(), SimDuration::ZERO),
            Some(churn) => {
                let (lo, hi) = churn.teardown_after_ms;
                assert!(lo > 0.0 && hi >= lo, "teardown range must be positive");
                assert!(
                    churn.rebuild_delay_ms >= 0.0,
                    "rebuild delay must be non-negative, got {} ms",
                    churn.rebuild_delay_ms
                );
                let points = (0..churn.cycles)
                    .map(|_| {
                        let ms = if hi > lo { rng.range_f64(lo, hi) } else { lo };
                        SimDuration::from_secs_f64(ms / 1e3)
                    })
                    .collect();
                (
                    points,
                    SimDuration::from_secs_f64(churn.rebuild_delay_ms / 1e3),
                )
            }
        };
        CircuitWorkload {
            streams,
            teardown_after,
            rebuild_delay,
        }
    }

    fn arrival_offsets(&self, n: usize, rng: &mut SimRng) -> Vec<SimDuration> {
        match self.arrival {
            ArrivalSpec::Immediate => vec![SimDuration::ZERO; n],
            ArrivalSpec::UniformJitter { max_ms } => {
                assert!(
                    max_ms >= 0.0,
                    "arrival jitter must be non-negative, got {max_ms} ms"
                );
                (0..n)
                    .map(|_| {
                        let ms = if max_ms > 0.0 {
                            rng.range_f64(0.0, max_ms)
                        } else {
                            0.0
                        };
                        SimDuration::from_secs_f64(ms / 1e3)
                    })
                    .collect()
            }
            ArrivalSpec::OnOff { burst, gap_ms } => {
                assert!(burst > 0, "on/off burst must be positive");
                let (lo, hi) = gap_ms;
                assert!(
                    lo >= 0.0 && hi >= 0.0,
                    "on/off gap must be non-negative, got {lo}..{hi} ms"
                );
                let mut at = SimDuration::ZERO;
                (0..n)
                    .map(|i| {
                        if i > 0 && i % burst == 0 {
                            let ms = if hi > lo { rng.range_f64(lo, hi) } else { lo };
                            at += SimDuration::from_secs_f64(ms / 1e3);
                        }
                        at
                    })
                    .collect()
            }
        }
    }
}

/// Scenario-level knob for consensus epoch churn: how often the
/// directory publishes a delta, how many relays move per epoch, and how
/// large the standby (dark) pool is. Like [`WorkloadSpec`], the spec is
/// resolved once at build time with a dedicated [`SimRng`] stream, so
/// the whole join/leave schedule is drawn up front and the run stays
/// bit-identical across event-queue implementations.
///
/// The relay universe is fixed at provisioning time (every relay keeps
/// its access link); epochs only toggle *liveness*. A fraction of the
/// universe starts dark as the standby pool new joiners are drawn from
/// — the membership-as-a-stream shape of real consensus documents.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EpochSpec {
    /// Simulated time between consecutive epoch boundaries (ms).
    pub interval_ms: f64,
    /// Number of epoch boundaries to schedule.
    pub epochs: u32,
    /// Relays leaving (and, standby pool permitting, joining) per epoch.
    pub churn: usize,
    /// Fraction of the provisioned universe that starts dark, forming
    /// the standby pool joiners are drawn from, in `[0, 0.9]`.
    pub standby_fraction: f64,
}

impl Default for EpochSpec {
    fn default() -> Self {
        EpochSpec {
            interval_ms: 200.0,
            epochs: 3,
            churn: 2,
            standby_fraction: 0.2,
        }
    }
}

/// The fully resolved epoch schedule: which relays start dark, and one
/// [`EpochDelta`] per boundary.
#[derive(Clone, Debug, Default)]
pub struct EpochSchedule {
    /// Relays dark at t=0 (the initial standby pool).
    pub initial_dark: Vec<u32>,
    /// Directory deltas, in boundary order.
    pub deltas: Vec<EpochDelta>,
}

impl EpochSpec {
    /// The epoch interval as a [`SimDuration`].
    pub fn interval(&self) -> SimDuration {
        assert!(
            self.interval_ms > 0.0,
            "epoch interval must be positive, got {} ms",
            self.interval_ms
        );
        SimDuration::from_secs_f64(self.interval_ms / 1e3)
    }

    /// Draws the whole join/leave schedule for a `relays`-sized
    /// universe. Departures are clamped so at least `min_live` relays
    /// stay live after every epoch (circuits must keep finding paths);
    /// joins are drawn from the relays dark *before* the boundary, so a
    /// relay never leaves and rejoins in the same delta.
    ///
    /// # Panics
    ///
    /// Panics on no relays, a `min_live` above them, or a
    /// `standby_fraction` that is NaN or outside `[0, 0.9]`.
    pub fn resolve(&self, relays: usize, min_live: usize, rng: &mut SimRng) -> EpochSchedule {
        assert!(relays > 0, "an epoch schedule needs relays");
        assert!(
            min_live <= relays,
            "cannot keep {min_live} relays live out of {relays}"
        );
        assert!(
            (0.0..=0.9).contains(&self.standby_fraction),
            "standby_fraction must be in [0, 0.9], got {}",
            self.standby_fraction
        );
        let standby = ((relays as f64) * self.standby_fraction) as usize;
        let standby = standby.min(relays - min_live);
        let initial_dark: Vec<u32> = rng
            .sample_distinct(relays, standby)
            .into_iter()
            .map(|r| r as u32)
            .collect();
        // Track the live/dark partition while drawing, so each delta is
        // consistent with the state the run will actually be in. The
        // live set starts in index order, read off a dense mask (one
        // pass, not one scan of the standby pool per relay).
        let mut is_dark = vec![false; relays];
        for &r in &initial_dark {
            is_dark[r as usize] = true;
        }
        let mut dark: Vec<u32> = initial_dark.clone();
        let mut live: Vec<u32> = (0..relays as u32)
            .filter(|&r| !is_dark[r as usize])
            .collect();
        let mut deltas = Vec::with_capacity(self.epochs as usize);
        for _ in 0..self.epochs {
            // Joins first, from the pool dark before this boundary.
            let joins = self.churn.min(dark.len());
            let mut join = Vec::with_capacity(joins);
            for _ in 0..joins {
                let i = rng.range_usize(0, dark.len());
                join.push(dark.swap_remove(i));
            }
            // Leaves are drawn from the *pre-join* live set — a relay
            // never joins and leaves in the same delta — clamped so the
            // post-epoch population keeps the floor.
            let leaves = self
                .churn
                .min((live.len() + join.len()).saturating_sub(min_live))
                .min(live.len());
            let mut leave = Vec::with_capacity(leaves);
            for _ in 0..leaves {
                let i = rng.range_usize(0, live.len());
                leave.push(live.swap_remove(i));
            }
            live.extend_from_slice(&join);
            dark.extend_from_slice(&leave);
            deltas.push(EpochDelta { leave, join });
        }
        EpochSchedule {
            initial_dark,
            deltas,
        }
    }
}

/// Scenario-level knob for fault injection: how many relays crash (and
/// when), how many transient link stalls occur, and how the client's
/// detection/recovery machinery is tuned. Like [`EpochSpec`], the spec
/// is resolved once at build time with a dedicated [`SimRng`] stream —
/// a fault-free configuration derives no stream and stays bit-identical
/// to a build from before faults existed.
///
/// Crashes are *silent*: from the crash instant the relay drops every
/// frame addressed to it — no DESTROY, no omniscient teardown. Clients
/// learn of the failure only through their own timers (the detection
/// knobs below) and recover by abandoning the circuit, blaming the
/// suspect hop, and rebuilding around it under exponential backoff.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultSpec {
    /// Relays that crash, drawn distinct from the crashable set.
    pub crashes: usize,
    /// Crash instants, drawn uniformly from this window (ms).
    pub crash_window_ms: (f64, f64),
    /// Transient link stalls to inject (a relay's access link drops to
    /// a trickle, then restores — the "slow relay" failure mode).
    pub stalls: usize,
    /// Stall onset window (ms).
    pub stall_window_ms: (f64, f64),
    /// How long each stall lasts (ms).
    pub stall_duration_ms: f64,
    /// Rate divisor while stalled, at least 1: the link runs at
    /// `rate / factor`.
    pub stall_factor: f64,
    /// Build-completion timer: a circuit not fully established this long
    /// after its build started is abandoned (ms).
    pub build_timeout_ms: f64,
    /// Liveness timer: an established circuit whose end-to-end progress
    /// counter has not advanced over this long is declared stalled (ms).
    pub liveness_timeout_ms: f64,
    /// Backoff base: the first retry waits this long (ms).
    pub backoff_base_ms: f64,
    /// Uniform jitter added on top of the exponential delay (ms).
    pub backoff_jitter_ms: f64,
    /// Ceiling on the exponential delay, pre-jitter, at least the base
    /// (ms).
    pub backoff_cap_ms: f64,
    /// Timeouts a circuit may absorb before its flows are parked rather
    /// than retried again.
    pub max_retries: u32,
}

impl Default for FaultSpec {
    fn default() -> Self {
        FaultSpec {
            crashes: 1,
            crash_window_ms: (50.0, 150.0),
            stalls: 0,
            stall_window_ms: (50.0, 150.0),
            stall_duration_ms: 40.0,
            stall_factor: 100.0,
            build_timeout_ms: 150.0,
            liveness_timeout_ms: 250.0,
            backoff_base_ms: 10.0,
            backoff_jitter_ms: 5.0,
            backoff_cap_ms: 320.0,
            max_retries: 6,
        }
    }
}

/// One transient link stall, fully resolved: relay `relay`'s access
/// link drops to a fraction of its provisioned rate at `at`, restoring
/// `duration` later. The builder maps the relay to its link and rates
/// and schedules the pair as [`crate::event::TorEvent::SetLinkRate`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LinkStall {
    /// Stall onset.
    pub at: SimDuration,
    /// How long the link stays throttled.
    pub duration: SimDuration,
    /// The relay whose access link stalls.
    pub relay: u32,
}

/// The fully resolved fault schedule: every crash instant, victim, and
/// stall drawn up front from the dedicated stream.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultSchedule {
    /// `(crash instant, relay)` pairs, in draw order.
    pub crashes: Vec<(SimDuration, u32)>,
    /// Transient stalls, in draw order.
    pub stalls: Vec<LinkStall>,
}

impl FaultSpec {
    /// The build-completion timeout as a duration.
    pub fn build_timeout(&self) -> SimDuration {
        assert!(
            self.build_timeout_ms > 0.0,
            "build timeout must be positive"
        );
        SimDuration::from_secs_f64(self.build_timeout_ms / 1e3)
    }

    /// The liveness timeout as a duration.
    pub fn liveness_timeout(&self) -> SimDuration {
        assert!(
            self.liveness_timeout_ms > 0.0,
            "liveness timeout must be positive"
        );
        SimDuration::from_secs_f64(self.liveness_timeout_ms / 1e3)
    }

    /// The backoff law: retry `retry` waits
    /// `min(base · 2^retry, cap) + jitter_frac · jitter`, with
    /// `jitter_frac` drawn from `[0, 1)` by the caller (the network owns
    /// the jitter stream so fault-free runs never consume it).
    pub fn backoff(&self, retry: u32, jitter_frac: f64) -> SimDuration {
        let exp = self.backoff_base_ms * f64::powi(2.0, retry.min(24) as i32);
        let capped = exp.min(self.backoff_cap_ms);
        let jitter = self.backoff_jitter_ms * jitter_frac;
        SimDuration::from_secs_f64((capped + jitter) / 1e3)
    }

    /// Draws the whole fault schedule. `candidates` are the relays that
    /// may crash or stall (the builder passes the initially-live set so
    /// faults hit relays that matter); victims are distinct, so a relay
    /// crashes at most once. Crash counts clamp to the candidate pool.
    ///
    /// # Panics
    ///
    /// Panics, naming the field, on a `stall_factor` below 1, a negative
    /// `stall_duration_ms`, `backoff_base_ms` or `backoff_jitter_ms`, a
    /// `backoff_cap_ms` below the base, or a NaN in any of them — whether
    /// or not there are candidates.
    pub fn resolve(&self, candidates: &[u32], rng: &mut SimRng) -> FaultSchedule {
        assert!(
            self.stall_factor >= 1.0,
            "stall_factor must be at least 1, got {}",
            self.stall_factor
        );
        for (field, ms) in [
            ("stall_duration_ms", self.stall_duration_ms),
            ("backoff_base_ms", self.backoff_base_ms),
            ("backoff_jitter_ms", self.backoff_jitter_ms),
        ] {
            assert!(ms >= 0.0, "{field} must be non-negative, got {ms}");
        }
        assert!(
            self.backoff_cap_ms >= self.backoff_base_ms,
            "backoff_cap_ms must be at least backoff_base_ms ({}), got {}",
            self.backoff_base_ms,
            self.backoff_cap_ms
        );
        if candidates.is_empty() {
            return FaultSchedule::default();
        }
        let window = |range: (f64, f64), rng: &mut SimRng| {
            let (lo, hi) = range;
            assert!(lo >= 0.0 && hi >= lo, "fault window must be ordered");
            let ms = if hi > lo { rng.range_f64(lo, hi) } else { lo };
            SimDuration::from_secs_f64(ms / 1e3)
        };
        let n = self.crashes.min(candidates.len());
        let crashes = rng
            .sample_distinct(candidates.len(), n)
            .into_iter()
            .map(|i| (window(self.crash_window_ms, rng), candidates[i]))
            .collect();
        let stalls = (0..self.stalls)
            .map(|_| {
                let relay = candidates[rng.range_usize(0, candidates.len())];
                LinkStall {
                    at: window(self.stall_window_ms, rng),
                    duration: SimDuration::from_secs_f64(self.stall_duration_ms / 1e3),
                    relay,
                }
            })
            .collect();
        FaultSchedule { crashes, stalls }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn resolve(spec: &WorkloadSpec, bytes: u64, seed: u64) -> CircuitWorkload {
        let mut rng = SimRng::seed_from(seed);
        let mut next = 0u32;
        spec.resolve(bytes, &mut rng, |_| {
            next += 1;
            FlowId(next - 1)
        })
    }

    #[test]
    fn a_flow_is_at_most_64_bytes() {
        // Three byte and cell counts, two timestamps and a carrier count.
        let size = std::mem::size_of::<FlowState>();
        assert!(size <= 64, "a flow is {size} bytes");
    }

    #[test]
    fn default_spec_is_one_immediate_bulk_stream() {
        let wl = resolve(&WorkloadSpec::default(), 10_000, 1);
        assert_eq!(wl.streams.len(), 1);
        assert_eq!(wl.streams[0].bytes, 10_000);
        assert_eq!(wl.streams[0].offset, SimDuration::ZERO);
        assert!(wl.teardown_after.is_empty());
    }

    #[test]
    fn bytes_split_evenly_with_remainder_on_first() {
        let spec = WorkloadSpec {
            streams_per_circuit: 3,
            ..Default::default()
        };
        assert_eq!(spec.split_bytes(10), vec![4, 3, 3]);
        let wl = resolve(&spec, 100_001, 2);
        assert_eq!(wl.streams.len(), 3);
    }

    #[test]
    #[should_panic(expected = "cannot split")]
    fn split_rejects_more_streams_than_bytes() {
        let spec = WorkloadSpec {
            streams_per_circuit: 8,
            ..Default::default()
        };
        spec.split_bytes(4);
    }

    #[test]
    #[should_panic(expected = "streams per circuit must be positive")]
    fn split_rejects_zero_streams() {
        let spec = WorkloadSpec {
            streams_per_circuit: 0,
            ..Default::default()
        };
        spec.split_bytes(4);
    }

    #[test]
    #[should_panic(expected = "arrival jitter must be non-negative")]
    fn resolve_rejects_negative_arrival_jitter() {
        resolve(
            &WorkloadSpec {
                streams_per_circuit: 4,
                arrival: ArrivalSpec::UniformJitter { max_ms: -1.0 },
                churn: None,
            },
            4_000,
            1,
        );
    }

    #[test]
    #[should_panic(expected = "on/off burst must be positive")]
    fn resolve_rejects_zero_burst() {
        resolve(
            &WorkloadSpec {
                streams_per_circuit: 4,
                arrival: ArrivalSpec::OnOff {
                    burst: 0,
                    gap_ms: (5.0, 5.0),
                },
                churn: None,
            },
            4_000,
            1,
        );
    }

    #[test]
    #[should_panic(expected = "on/off gap must be non-negative")]
    fn resolve_rejects_nan_gap() {
        resolve(
            &WorkloadSpec {
                streams_per_circuit: 4,
                arrival: ArrivalSpec::OnOff {
                    burst: 2,
                    gap_ms: (f64::NAN, 5.0),
                },
                churn: None,
            },
            4_000,
            1,
        );
    }

    #[test]
    #[should_panic(expected = "rebuild delay must be non-negative")]
    fn resolve_rejects_negative_rebuild_delay() {
        resolve(
            &WorkloadSpec {
                streams_per_circuit: 4,
                arrival: ArrivalSpec::Immediate,
                churn: Some(ChurnSpec {
                    teardown_after_ms: (10.0, 30.0),
                    rebuild_delay_ms: -2.0,
                    cycles: 1,
                }),
            },
            4_000,
            1,
        );
    }

    #[test]
    #[should_panic(expected = "start jitter must be non-negative")]
    fn star_rejects_nan_start_jitter() {
        let star = crate::builder::StarScenario {
            start_jitter_ms: f64::NAN,
            ..Default::default()
        };
        let _ = star.build(crate::test_cc::unlimited_factory(), 1);
    }

    #[test]
    fn jitter_offsets_are_bounded_and_seeded() {
        let spec = WorkloadSpec {
            streams_per_circuit: 6,
            arrival: ArrivalSpec::UniformJitter { max_ms: 50.0 },
            ..Default::default()
        };
        let a = resolve(&spec, 60_000, 7);
        let b = resolve(&spec, 60_000, 7);
        for (x, y) in a.streams.iter().zip(&b.streams) {
            assert_eq!(x.offset, y.offset, "same seed, same offsets");
            assert!(x.offset <= SimDuration::from_millis(50));
        }
        assert!(
            a.streams.iter().any(|s| s.offset > SimDuration::ZERO),
            "jitter must actually stagger"
        );
    }

    #[test]
    fn onoff_bursts_share_offsets_and_gaps_accumulate() {
        let spec = WorkloadSpec {
            streams_per_circuit: 6,
            arrival: ArrivalSpec::OnOff {
                burst: 2,
                gap_ms: (5.0, 5.0),
            },
            ..Default::default()
        };
        let wl = resolve(&spec, 60_000, 3);
        let offs: Vec<_> = wl.streams.iter().map(|s| s.offset).collect();
        assert_eq!(offs[0], offs[1], "burst members arrive together");
        assert_eq!(offs[2], offs[3]);
        assert_eq!(offs[2], SimDuration::from_millis(5));
        assert_eq!(offs[4], SimDuration::from_millis(10));
    }

    #[test]
    fn churn_draws_one_teardown_per_cycle() {
        let spec = WorkloadSpec {
            streams_per_circuit: 2,
            arrival: ArrivalSpec::Immediate,
            churn: Some(ChurnSpec {
                teardown_after_ms: (10.0, 30.0),
                rebuild_delay_ms: 2.0,
                cycles: 3,
            }),
        };
        let wl = resolve(&spec, 50_000, 11);
        assert_eq!(wl.teardown_after.len(), 3);
        for &t in &wl.teardown_after {
            assert!(t >= SimDuration::from_millis(10) && t <= SimDuration::from_millis(30));
        }
        assert_eq!(wl.rebuild_delay, SimDuration::from_millis(2));
    }

    #[test]
    fn epoch_schedule_is_consistent_and_seeded() {
        let spec = EpochSpec {
            interval_ms: 100.0,
            epochs: 8,
            churn: 3,
            standby_fraction: 0.25,
        };
        let a = spec.resolve(40, 10, &mut SimRng::seed_from(5));
        let b = spec.resolve(40, 10, &mut SimRng::seed_from(5));
        assert_eq!(a.initial_dark, b.initial_dark, "same seed, same schedule");
        assert_eq!(a.deltas, b.deltas);
        assert_eq!(a.deltas.len(), 8);
        // Replay the schedule and check the invariants: live floor held,
        // no join from the live set, no leave from the dark set, no
        // relay both joining and leaving in one delta.
        let mut live = [true; 40];
        for &r in &a.initial_dark {
            live[r as usize] = false;
        }
        for delta in &a.deltas {
            for &j in &delta.join {
                assert!(!live[j as usize], "join drawn from a live relay");
                assert!(!delta.leave.contains(&j), "join and leave in one delta");
                live[j as usize] = true;
            }
            for &l in &delta.leave {
                assert!(live[l as usize], "leave drawn from a dark relay");
                live[l as usize] = false;
            }
            let alive = live.iter().filter(|&&x| x).count();
            assert!(alive >= 10, "live floor violated: {alive}");
        }
    }

    #[test]
    fn epoch_schedule_clamps_when_the_pool_runs_dry() {
        // No standby pool and a floor right at the starting population:
        // nothing can ever leave, and nothing can join.
        let spec = EpochSpec {
            interval_ms: 50.0,
            epochs: 4,
            churn: 5,
            standby_fraction: 0.0,
        };
        let sched = spec.resolve(12, 12, &mut SimRng::seed_from(9));
        assert!(sched.initial_dark.is_empty());
        assert!(sched.deltas.iter().all(|d| d.is_empty()));
    }

    #[test]
    fn fault_schedule_is_distinct_bounded_and_seeded() {
        let spec = FaultSpec {
            crashes: 4,
            crash_window_ms: (20.0, 80.0),
            stalls: 3,
            stall_window_ms: (10.0, 40.0),
            stall_duration_ms: 15.0,
            ..Default::default()
        };
        let candidates: Vec<u32> = (0..12).filter(|r| r % 2 == 0).collect();
        let a = spec.resolve(&candidates, &mut SimRng::seed_from(21));
        let b = spec.resolve(&candidates, &mut SimRng::seed_from(21));
        assert_eq!(a, b, "same seed, same schedule");
        assert_eq!(a.crashes.len(), 4);
        let mut victims: Vec<u32> = a.crashes.iter().map(|&(_, r)| r).collect();
        victims.sort_unstable();
        victims.dedup();
        assert_eq!(victims.len(), 4, "a relay crashes at most once");
        for &(at, r) in &a.crashes {
            assert!(candidates.contains(&r), "victim outside the candidates");
            assert!(at >= SimDuration::from_millis(20) && at <= SimDuration::from_millis(80));
        }
        assert_eq!(a.stalls.len(), 3);
        for s in &a.stalls {
            assert!(candidates.contains(&s.relay));
            assert!(s.at >= SimDuration::from_millis(10) && s.at <= SimDuration::from_millis(40));
            assert_eq!(s.duration, SimDuration::from_millis(15));
        }
    }

    #[test]
    fn fault_schedule_clamps_to_the_candidate_pool() {
        let spec = FaultSpec {
            crashes: 10,
            ..Default::default()
        };
        let sched = spec.resolve(&[3, 7], &mut SimRng::seed_from(2));
        assert_eq!(sched.crashes.len(), 2, "clamped to the pool");
        let empty = spec.resolve(&[], &mut SimRng::seed_from(2));
        assert!(empty.crashes.is_empty() && empty.stalls.is_empty());
    }

    /// Resolves `spec` against no candidates: validation comes first.
    fn resolve_faults(spec: FaultSpec) {
        spec.resolve(&[], &mut SimRng::seed_from(1));
    }

    #[test]
    #[should_panic(expected = "stall_factor")]
    fn fault_spec_rejects_a_stall_factor_below_one() {
        resolve_faults(FaultSpec {
            stall_factor: 0.5,
            ..Default::default()
        });
    }

    #[test]
    #[should_panic(expected = "stall_duration_ms")]
    fn fault_spec_rejects_a_negative_stall_duration() {
        resolve_faults(FaultSpec {
            stall_duration_ms: -1.0,
            ..Default::default()
        });
    }

    #[test]
    #[should_panic(expected = "backoff_base_ms")]
    fn fault_spec_rejects_a_nan_backoff_base() {
        resolve_faults(FaultSpec {
            backoff_base_ms: f64::NAN,
            ..Default::default()
        });
    }

    #[test]
    #[should_panic(expected = "backoff_jitter_ms")]
    fn fault_spec_rejects_a_negative_backoff_jitter() {
        resolve_faults(FaultSpec {
            backoff_jitter_ms: -5.0,
            ..Default::default()
        });
    }

    #[test]
    #[should_panic(expected = "backoff_cap_ms")]
    fn fault_spec_rejects_a_backoff_cap_below_the_base() {
        resolve_faults(FaultSpec {
            backoff_base_ms: 10.0,
            backoff_cap_ms: 5.0,
            ..Default::default()
        });
    }

    #[test]
    #[should_panic(expected = "standby_fraction")]
    fn epoch_spec_rejects_a_nan_standby_fraction() {
        let spec = EpochSpec {
            standby_fraction: f64::NAN,
            ..Default::default()
        };
        spec.resolve(10, 3, &mut SimRng::seed_from(1));
    }

    #[test]
    fn backoff_law_is_exponential_capped_and_jittered() {
        let spec = FaultSpec {
            backoff_base_ms: 10.0,
            backoff_jitter_ms: 4.0,
            backoff_cap_ms: 100.0,
            ..Default::default()
        };
        assert_eq!(spec.backoff(0, 0.0), SimDuration::from_millis(10));
        assert_eq!(spec.backoff(1, 0.0), SimDuration::from_millis(20));
        assert_eq!(spec.backoff(3, 0.0), SimDuration::from_millis(80));
        // Capped: 10 · 2^4 = 160 → 100.
        assert_eq!(spec.backoff(4, 0.0), SimDuration::from_millis(100));
        assert_eq!(spec.backoff(30, 0.0), SimDuration::from_millis(100));
        // Jitter rides on top of the cap.
        assert_eq!(spec.backoff(4, 1.0), SimDuration::from_millis(104));
        assert_eq!(spec.backoff(0, 0.5), SimDuration::from_millis(12));
    }

    #[test]
    fn flow_state_accounting() {
        let mut f = FlowState::new(1000);
        assert_eq!(f.remaining(), 1000);
        assert!(!f.complete());
        f.delivered = 1000;
        assert!(f.complete());
        f.arrival_at = Some(SimTime::from_millis(5));
        f.completed_at = Some(SimTime::from_millis(105));
        assert_eq!(f.completion_time(), Some(SimDuration::from_millis(100)));
    }
}
