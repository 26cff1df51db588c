//! Global circuit records and per-circuit experiment results.

use simcore::time::{SimDuration, SimTime};

use crate::ids::{CircId, OverlayId};
use crate::workload::CircuitWorkload;

/// Static description of one circuit (simulator bookkeeping; nodes learn
/// their role through the CREATE/EXTEND walk, not from this record).
/// Churn creates one record per incarnation — the workload's flows are
/// the durable identity, circuits come and go.
#[derive(Clone, Debug)]
pub struct CircuitInfo {
    /// Full path: `[client, relay…, server]`.
    pub path: Vec<OverlayId>,
    /// When the build was kicked off, once started.
    pub started_at: Option<SimTime>,
    /// The resolved workload this incarnation carries.
    pub workload: CircuitWorkload,
    /// Which rebuild cycle this incarnation is (0 = original build).
    pub incarnation: u32,
    /// Whether this incarnation currently holds a +1 in the placement
    /// load ledger (set when placed, cleared exactly once at reclaim —
    /// the flag that lets epoch churn and the ledger verifier reason
    /// about torn-down-but-not-yet-rebuilt circuits).
    pub accounted: bool,
    /// Consecutive timeout-driven abandons charged against this flow
    /// lineage (carried across incarnations; reset when a rebuild
    /// completes its transfer or a parked lineage resumes). Drives the
    /// exponential backoff law and the retry cap.
    pub retries: u32,
    /// Delivered bytes across this incarnation's flows when its pending
    /// liveness timer was armed (0 before the first one). The circuit
    /// has at most one timer pending, so the snapshot lives here rather
    /// than in the event.
    pub(crate) liveness_snapshot: u64,
}

/// Measured outcome of one circuit's transfer.
#[derive(Clone, Copy, Debug)]
pub struct CircuitResult {
    /// Which circuit.
    pub circ: CircId,
    /// When the client sent the first DATA cell.
    pub first_data_at: Option<SimTime>,
    /// When the last DATA cell reached the server application.
    pub last_byte_at: Option<SimTime>,
    /// Whether the server consumed the trailing END (transfer complete).
    pub completed: bool,
    /// Payload bytes delivered to the server.
    pub bytes_delivered: u64,
    /// DATA cells delivered to the server.
    pub cells_delivered: u64,
    /// Payload-verification failures observed by the server (must be 0).
    pub payload_errors: u64,
}

impl CircuitResult {
    /// Time to last byte measured from the first DATA cell sent — the
    /// transfer-time metric used for the Figure 1c CDF (isolates transport
    /// ramp-up from circuit-build latency).
    pub fn transfer_time(&self) -> Option<SimDuration> {
        match (self.first_data_at, self.last_byte_at) {
            (Some(a), Some(b)) => b.checked_duration_since(a),
            _ => None,
        }
    }

    /// Mean goodput over the transfer, bits per second.
    pub fn goodput_bps(&self) -> Option<f64> {
        let t = self.transfer_time()?;
        if t.is_zero() {
            return None;
        }
        Some(self.bytes_delivered as f64 * 8.0 / t.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result() -> CircuitResult {
        CircuitResult {
            circ: CircId(0),
            first_data_at: Some(SimTime::from_millis(70)),
            last_byte_at: Some(SimTime::from_millis(570)),
            completed: true,
            bytes_delivered: 1_000_000,
            cells_delivered: 2_017,
            payload_errors: 0,
        }
    }

    #[test]
    fn transfer_time() {
        let r = result();
        assert_eq!(r.transfer_time(), Some(SimDuration::from_millis(500)));
    }

    #[test]
    fn goodput() {
        let r = result();
        let g = r.goodput_bps().unwrap();
        assert!(
            (g - 16_000_000.0).abs() < 1.0,
            "8 Mbit / 0.5 s = 16 Mbit/s, got {g}"
        );
    }

    #[test]
    fn incomplete_result_yields_none() {
        let r = CircuitResult {
            circ: CircId(1),
            first_data_at: None,
            last_byte_at: None,
            completed: false,
            bytes_delivered: 0,
            cells_delivered: 0,
            payload_errors: 0,
        };
        assert_eq!(r.transfer_time(), None);
        assert_eq!(r.goodput_bps(), None);
    }
}
