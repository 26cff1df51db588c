//! Overlay-level identifiers.

use std::fmt;

/// Index of an overlay node (client, relay, or server) within one
/// [`crate::network::TorNetwork`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct OverlayId(pub u32);

impl OverlayId {
    /// The raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for OverlayId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "node#{}", self.0)
    }
}

/// Global circuit index within one network (simulator bookkeeping; the
/// wire uses link-local [`torcell::ids::CircuitId`]s, one per hop, as in Tor).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct CircId(pub u32);

impl CircId {
    /// The raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for CircId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "circuit#{}", self.0)
    }
}

/// Which way a cell travels along a circuit.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Direction {
    /// Client → server.
    Forward,
    /// Server → client.
    Backward,
}

impl Direction {
    /// The opposite direction.
    pub fn opposite(self) -> Direction {
        match self {
            Direction::Forward => Direction::Backward,
            Direction::Backward => Direction::Forward,
        }
    }
}

impl fmt::Display for Direction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Direction::Forward => write!(f, "forward"),
            Direction::Backward => write!(f, "backward"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays() {
        assert_eq!(OverlayId(3).to_string(), "node#3");
        assert_eq!(CircId(5).to_string(), "circuit#5");
        assert_eq!(Direction::Forward.to_string(), "forward");
        assert_eq!(Direction::Backward.to_string(), "backward");
    }

    #[test]
    fn opposite() {
        assert_eq!(Direction::Forward.opposite(), Direction::Backward);
        assert_eq!(Direction::Backward.opposite(), Direction::Forward);
    }

    #[test]
    fn indexing() {
        assert_eq!(OverlayId(7).index(), 7);
        assert_eq!(CircId(9).index(), 9);
    }
}
