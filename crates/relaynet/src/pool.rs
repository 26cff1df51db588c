//! Recycling pool for cell payload buffers.
//!
//! The data path moves one `Vec<u8>` per DATA cell from the client
//! (which fills it with the deterministic pattern) through the onion
//! layers to the server (which verifies and counts it). Without a pool
//! that is one heap allocation and one free per cell; with it, the
//! server hands every consumed payload back and the steady-state
//! transfer allocates nothing — the same few buffers (bounded by the
//! number of cells in flight) cycle through the overlay.
//!
//! The pool keeps every buffer handed back. Idle buffers never outnumber
//! the buffers outstanding at the peak, so no cap on them could lower
//! peak memory.

use simcore::slab::clone_reserving;
use torcell::cell::RELAY_DATA_MAX;

/// A free list of full-size payload buffers.
#[derive(Debug, Default)]
pub struct PayloadPool {
    free: Vec<Vec<u8>>,
    /// Buffers handed out that the pool had to allocate fresh.
    allocated: u64,
    /// Buffers handed out from the free list.
    reused: u64,
    /// Full-size buffers handed back. After a run fully quiesces,
    /// `returned == allocated + reused` — no payload buffer is ever lost
    /// in flight, even across mid-transfer teardowns.
    returned: u64,
    /// Largest idle free-list size ever observed.
    idle_hwm: usize,
}

/// A copy keeps each idle buffer's capacity, which
/// [`reclaim`](PayloadPool::reclaim) reads once the buffer is handed out
/// and back, and the free list's, so it reserves what its original does.
impl Clone for PayloadPool {
    fn clone(&self) -> Self {
        let mut free = Vec::with_capacity(self.free.capacity());
        free.extend(self.free.iter().map(clone_reserving));
        PayloadPool { free, ..*self }
    }
}

impl PayloadPool {
    /// Creates an empty pool.
    pub fn new() -> PayloadPool {
        PayloadPool::default()
    }

    /// Hands out an *empty* buffer with at least [`RELAY_DATA_MAX`]
    /// capacity, reusing a reclaimed one when available. Contents are for
    /// the caller to produce (no zero-fill — the data path writes every
    /// byte it sends, so pre-clearing would be a dead store per cell).
    pub fn acquire(&mut self) -> Vec<u8> {
        match self.free.pop() {
            Some(mut buf) => {
                self.reused += 1;
                buf.clear();
                buf
            }
            None => {
                self.allocated += 1;
                Vec::with_capacity(RELAY_DATA_MAX)
            }
        }
    }

    /// Returns a consumed payload's buffer to the pool. Undersized
    /// buffers (control-cell payloads that were never pool-allocated)
    /// are dropped.
    pub fn reclaim(&mut self, buf: Vec<u8>) {
        if buf.capacity() >= RELAY_DATA_MAX {
            self.returned += 1;
            self.free.push(buf);
            self.idle_hwm = self.idle_hwm.max(self.free.len());
        }
    }

    /// `(fresh allocations, reuses)` handed out so far — the telemetry
    /// that proves the steady state is allocation-free.
    pub fn stats(&self) -> (u64, u64) {
        (self.allocated, self.reused)
    }

    /// Buffers handed out so far (fresh + reused).
    pub fn acquired(&self) -> u64 {
        self.allocated + self.reused
    }

    /// Full-size buffers handed back so far. A quiesced, fully
    /// torn-down run satisfies `returned() == acquired()` — the
    /// conservation invariant the mid-flight-DESTROY tests assert.
    pub fn returned(&self) -> u64 {
        self.returned
    }

    /// Buffers currently idle in the pool.
    pub fn idle(&self) -> usize {
        self.free.len()
    }

    /// Bytes the pool reserves: its free list and the idle buffers on it.
    pub fn reserved_bytes(&self) -> usize {
        let idle: usize = self.free.iter().map(Vec::capacity).sum();
        self.free.capacity() * std::mem::size_of::<Vec<u8>>() + idle
    }

    /// Largest idle population ever observed (bounded by the peak
    /// number of payloads simultaneously at rest — itself bounded by
    /// cells in flight).
    pub fn idle_hwm(&self) -> usize {
        self.idle_hwm
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn acquire_allocates_then_reuses() {
        let mut pool = PayloadPool::new();
        let mut a = pool.acquire();
        assert!(a.is_empty());
        a.resize(496, 7);
        pool.reclaim(a);
        assert_eq!(pool.idle(), 1);
        assert_eq!(pool.idle_hwm(), 1);
        assert_eq!(pool.returned(), 1);
        let b = pool.acquire();
        assert!(b.is_empty(), "reused buffers come back cleared");
        assert!(b.capacity() >= RELAY_DATA_MAX);
        assert_eq!(pool.stats(), (1, 1));
        assert_eq!(pool.acquired(), 2);
        assert_eq!(pool.idle(), 0);
        assert_eq!(pool.idle_hwm(), 1, "high-water mark survives draining");
    }

    #[test]
    fn undersized_buffers_are_not_pooled() {
        let mut pool = PayloadPool::new();
        pool.reclaim(vec![1, 2, 3]);
        assert_eq!(pool.idle(), 0);
        assert_eq!(pool.returned(), 0, "undersized buffers are not counted");
    }

    /// A forked world's buffers are pool buffers wherever the original's
    /// are: a stream's short last DATA payload in a copied cell, and a
    /// copied pool's idle buffers once handed out and back.
    #[test]
    fn copies_keep_their_buffers_poolable() {
        use torcell::cell::RelayCell;
        use torcell::ids::StreamId;

        let mut pool = PayloadPool::new();
        let mut short = pool.acquire();
        short.resize(3, 7);
        let cell = RelayCell::data(StreamId(1), short);
        pool.reclaim(cell.clone().data);
        let mut fork = pool.clone();
        let idle = fork.acquire();
        fork.reclaim(idle);
        assert_eq!((pool.returned(), fork.returned()), (1, 2));
        assert_eq!(fork.idle(), 1);
    }
}
