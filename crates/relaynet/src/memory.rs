//! The world's memory ledger: the bytes each world-scale owner reserves.
//!
//! Every owner counts itself — capacity times element size, plus the
//! heap buffers it owns — and [`TorNetwork::memory`] only adds them up.
//! Reading the ledger changes nothing, so it is fingerprint-neutral.
//!
//! [`TorNetwork::memory`]: crate::TorNetwork::memory

/// Bytes reserved by each world-scale owner of a [`TorNetwork`](crate::TorNetwork).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct MemoryLedger {
    /// `Net`'s frame store: its slots, free list and the list links
    /// that are every link's egress queue and in-flight FIFO.
    pub frame_store: usize,
    /// Every hop transport's ring of send times.
    pub hop_send_times: usize,
    /// Every node's participation slab.
    pub node_slabs: usize,
    /// The world's one slab of queued hop cells and its list links.
    pub hop_cells: usize,
    /// The link schedulers' handle queues, rotations and spare queues.
    pub schedulers: usize,
    /// The link-route table.
    pub link_routes: usize,
    /// The payload pool's free list and the idle buffers on it.
    pub payload_pool: usize,
}

impl MemoryLedger {
    /// Adds another world's ledger to this one, owner by owner.
    pub fn merge(&mut self, other: &MemoryLedger) {
        // Exhaustive destructure (no `..`): an owner added to the ledger
        // without deciding how it merges is a compile error here.
        let MemoryLedger {
            frame_store,
            hop_send_times,
            node_slabs,
            hop_cells,
            schedulers,
            link_routes,
            payload_pool,
        } = *other;
        self.frame_store += frame_store;
        self.hop_send_times += hop_send_times;
        self.node_slabs += node_slabs;
        self.hop_cells += hop_cells;
        self.schedulers += schedulers;
        self.link_routes += link_routes;
        self.payload_pool += payload_pool;
    }

    /// Every owner's name and bytes, in field order.
    pub fn export(&self) -> [(&'static str, usize); 7] {
        // Exhaustive destructure, same contract as `merge`.
        let MemoryLedger {
            frame_store,
            hop_send_times,
            node_slabs,
            hop_cells,
            schedulers,
            link_routes,
            payload_pool,
        } = *self;
        [
            ("frame_store", frame_store),
            ("hop_send_times", hop_send_times),
            ("node_slabs", node_slabs),
            ("hop_cells", hop_cells),
            ("schedulers", schedulers),
            ("link_routes", link_routes),
            ("payload_pool", payload_pool),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_adds_every_owner_and_export_names_each_once() {
        let one = MemoryLedger {
            frame_store: 1,
            hop_send_times: 2,
            node_slabs: 3,
            hop_cells: 4,
            schedulers: 5,
            link_routes: 6,
            payload_pool: 7,
        };
        let mut sum = one;
        sum.merge(&one);
        let doubled: Vec<usize> = sum.export().iter().map(|&(_, b)| b).collect();
        assert_eq!(doubled, [2, 4, 6, 8, 10, 12, 14]);
        let mut names: Vec<&str> = one.export().iter().map(|&(n, _)| n).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 7);
    }
}
