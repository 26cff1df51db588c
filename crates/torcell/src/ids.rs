//! Identifier newtypes for the Tor data plane.

use std::fmt;

/// A circuit identifier, scoped to one connection between two adjacent
/// relays (as in Tor, circuit ids are *link-local*: each hop of a circuit
/// may use a different id).
///
/// Id `0` is reserved for link-level control traffic and never names a
/// circuit.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct CircuitId(pub u32);

impl CircuitId {
    /// Reserved id for link-level control cells.
    pub const CONTROL: CircuitId = CircuitId(0);
}

impl fmt::Display for CircuitId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "circ#{}", self.0)
    }
}

/// A stream identifier, scoped to one circuit. Stream id `0` addresses the
/// circuit itself (circuit-level relay cells, e.g. SENDME).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct StreamId(pub u16);

impl StreamId {
    /// Addresses the circuit itself rather than a stream.
    pub const CIRCUIT: StreamId = StreamId(0);
}

impl fmt::Display for StreamId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "stream#{}", self.0)
    }
}

/// Per-hop cell sequence number used by the hop-by-hop transport to match
/// feedback messages to the cells that triggered them.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct CellSeq(pub u64);

impl CellSeq {
    /// The next sequence number.
    pub fn next(self) -> CellSeq {
        CellSeq(self.0 + 1)
    }
}

impl fmt::Display for CellSeq {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "seq#{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays() {
        assert_eq!(CircuitId(7).to_string(), "circ#7");
        assert_eq!(StreamId(3).to_string(), "stream#3");
        assert_eq!(CellSeq(9).to_string(), "seq#9");
    }

    #[test]
    fn seq_next() {
        assert_eq!(CellSeq(0).next(), CellSeq(1));
        assert_eq!(CellSeq::default(), CellSeq(0));
    }

    #[test]
    fn ids_are_ordered_and_dedupable() {
        // Sorted-Vec dedup instead of a HashSet: the assertion is
        // order-stable, and id types only need Ord for it.
        let mut s = vec![CircuitId(1), CircuitId(1), CircuitId(2)];
        s.sort();
        s.dedup();
        assert_eq!(s, vec![CircuitId(1), CircuitId(2)]);
        assert!(CircuitId(1) < CircuitId(2));
        assert!(StreamId(1) < StreamId(2));
    }
}
