//! The unit of transmission.

/// Anything that can be sent over a [`crate::net::Net`] link.
///
/// The network model only needs to know how many bytes a frame occupies on
/// the wire; higher layers (the Tor overlay) define the actual frame types
/// and routing.
pub trait Frame {
    /// Size on the wire in bytes, **including all headers**.
    fn wire_size(&self) -> u32;

    /// Whether the sender acts at the instant this frame finishes
    /// serializing. If so the frame waits in [`Net::transmitting_mut`]
    /// for a [`NetEvent::TxComplete`] of its own; if not it departs
    /// silently — same delivery time, one kernel event fewer (see the
    /// timing model in [`crate::net`]).
    ///
    /// [`Net::transmitting_mut`]: crate::net::Net::transmitting_mut
    /// [`NetEvent::TxComplete`]: crate::net::NetEvent::TxComplete
    fn awaits_departure(&self) -> bool {
        true
    }
}

/// A minimal frame carrying only its size — handy for unit tests and
/// raw-throughput benchmarks.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct RawFrame {
    /// Size on the wire in bytes.
    pub bytes: u32,
    /// Free-form tag for test assertions.
    pub tag: u64,
}

impl Frame for RawFrame {
    fn wire_size(&self) -> u32 {
        self.bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn raw_frame_reports_size() {
        let f = RawFrame { bytes: 512, tag: 7 };
        assert_eq!(f.wire_size(), 512);
        assert!(f.awaits_departure(), "the hop probe counts two events");
    }
}
