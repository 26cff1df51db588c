//! The frozen reference kernel and the calibrator built on it.
//!
//! Back-to-back runs of one unchanged binary on this class of box move
//! by ±15–20% in raw wall time while `/proc/self/schedstat` CPU time
//! tracks wall time — the machine's speed drifts, the process is not
//! pre-empted. Every measured section is therefore bracketed by a pass
//! of this kernel, and host time is reported in *calibrated* seconds:
//! `raw × REF_NOMINAL_S / mean(ref before, ref after)`.
//!
//! The kernel is self-contained on purpose (its own heap, its own
//! generator, no workspace call): it must cost the same whatever a
//! later PR does to the simulator. Its mix is the simulator's kind of
//! work — a pending-event-set "hold" on a binary heap, and on every
//! fourth operation a keystream pass over one 512-byte cell of a
//! buffer pool — and its working set (a 2 MiB heap, an 8 MiB pool) is
//! deliberately larger than the caches nearest the core. The drift is
//! mostly contention for the shared cache and memory: a kernel that
//! fits in L1 does not feel it, and calibrating the star and consensus
//! workloads with one left 9–13% run-to-run spread where this one
//! leaves 5–6% (README, "Noise study"). DO NOT EDIT: any change
//! rescales every calibrated number recorded before it.

use std::time::Instant;

use crate::stats::calibrate;

const HEAP_LEN: usize = 1 << 18;
const HOLD_OPS: u32 = 130_000;
const CELL_BYTES: usize = 512;
const POOL_CELLS: usize = 1 << 14;

#[inline]
fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// The kernel's state: allocated once, so a pass times the hold
/// operations alone and never the allocator or first-touch page faults.
/// Passes continue from one another; each does statistically the same
/// work.
pub struct RefKernel {
    heap: Vec<u64>,
    pool: Vec<u8>,
    x: u64,
    op: u32,
}

impl RefKernel {
    pub fn new() -> RefKernel {
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut heap: Vec<u64> = (0..HEAP_LEN).map(|_| xorshift(&mut x) >> 40).collect();
        heap.sort_unstable(); // a sorted array is a valid min-heap
        RefKernel {
            heap,
            pool: vec![1u8; POOL_CELLS * CELL_BYTES],
            x,
            op: 0,
        }
    }

    /// One pass is `hold(HOLD_OPS)`: hold operations (replace the minimum with
    /// `minimum + increment`, sift down) over the `HEAP_LEN`-entry
    /// min-heap, keystreaming a pseudo-randomly chosen cell of the pool
    /// on every fourth. Returns a checksum so the work cannot be
    /// optimised away.
    fn hold(&mut self, ops: u32) -> u64 {
        let heap = &mut self.heap[..];
        let mut acc: u64 = 0;
        for _ in 0..ops {
            let t = heap[0] + (xorshift(&mut self.x) >> 44) + 1;
            let mut i = 0;
            loop {
                let l = 2 * i + 1;
                if l >= HEAP_LEN {
                    break;
                }
                let r = l + 1;
                let c = if r < HEAP_LEN && heap[r] < heap[l] {
                    r
                } else {
                    l
                };
                if heap[c] >= t {
                    break;
                }
                heap[i] = heap[c];
                i = c;
            }
            heap[i] = t;
            self.op = self.op.wrapping_add(1);
            if self.op % 4 == 0 {
                let mut k = t | 1;
                let at = (k.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 20) as usize % POOL_CELLS;
                let cell = &mut self.pool[at * CELL_BYTES..(at + 1) * CELL_BYTES];
                for chunk in cell.chunks_exact_mut(8) {
                    let w = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"))
                        ^ xorshift(&mut k);
                    chunk.copy_from_slice(&w.to_le_bytes());
                }
                acc = acc.wrapping_add(u64::from(cell[(t % CELL_BYTES as u64) as usize]));
            }
        }
        acc.wrapping_add(heap[0])
    }

    fn timed(&mut self, ops: u32) -> f64 {
        let t0 = Instant::now();
        std::hint::black_box(self.hold(ops));
        t0.elapsed().as_secs_f64()
    }
}

/// A section's raw wall time beside its calibrated time.
#[derive(Clone, Copy, Debug)]
pub struct Timed {
    pub raw_s: f64,
    pub cal_s: f64,
}

/// Brackets measured sections with reference passes. Consecutive
/// sections share the pass between them, so `n` sections cost `n + 1`
/// passes.
pub struct Calibrator {
    kernel: RefKernel,
    ops: u32,
    last_ref_s: f64,
    /// Every reference-pass time seen, for the report.
    pub ref_passes_s: Vec<f64>,
}

impl Calibrator {
    /// Warms the kernel up (one discarded pass) and takes the first
    /// bracket side.
    pub fn new() -> Calibrator {
        Calibrator::with_ops(HOLD_OPS)
    }

    /// A calibrator whose passes are `1/divisor` of the frozen kernel:
    /// for unit tests in unoptimised builds, where a full pass takes
    /// longer than the tiny worlds it brackets. Never for a measurement.
    #[cfg(test)]
    pub fn shrunk(divisor: u32) -> Calibrator {
        Calibrator::with_ops(HOLD_OPS / divisor)
    }

    fn with_ops(ops: u32) -> Calibrator {
        let mut kernel = RefKernel::new();
        kernel.timed(ops);
        let first = kernel.timed(ops);
        Calibrator {
            kernel,
            ops,
            last_ref_s: first,
            ref_passes_s: vec![first],
        }
    }

    /// Runs `section`, which returns what it produced and the raw seconds
    /// it wants charged (it may time only part of what it does), then
    /// closes the bracket. A failing section aborts the measurement, so
    /// its bracket is left open.
    pub fn try_bracket<T>(
        &mut self,
        section: impl FnOnce() -> Result<(T, f64), String>,
    ) -> Result<(T, Timed), String> {
        let before = self.last_ref_s;
        let (produced, raw_s) = section()?;
        let after = self.kernel.timed(self.ops);
        self.last_ref_s = after;
        self.ref_passes_s.push(after);
        let timed = Timed {
            raw_s,
            cal_s: calibrate(raw_s, before, after),
        };
        Ok((produced, timed))
    }

    /// [`Calibrator::try_bracket`] for a section that cannot fail and
    /// produces only its time.
    pub fn bracket(&mut self, section: impl FnOnce() -> f64) -> Timed {
        self.try_bracket(|| Ok(((), section())))
            .expect("the section is infallible")
            .1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_pass_is_a_pure_function() {
        // Frozen work: the checksum pins the operation sequence, so an
        // accidental edit to the kernel fails here.
        let (mut a, mut b) = (RefKernel::new(), RefKernel::new());
        assert_eq!(a.hold(HOLD_OPS), b.hold(HOLD_OPS));
        assert_eq!(a.hold(HOLD_OPS), b.hold(HOLD_OPS));
        assert_eq!(RefKernel::new().hold(HOLD_OPS), 6_699_808);
    }
}
