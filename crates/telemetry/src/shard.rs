//! Per-worker telemetry shards behind seqlock-style snapshots.
//!
//! Each dataplane worker owns exactly one [`ShardWriter`]; the sampler
//! thread holds the matching [`Shard`] handles and takes consistent
//! snapshots without ever blocking the writer. The protocol is the
//! classic sequence lock (the same one the kernel uses for jiffies and
//! cpustat): the writer bumps a sequence number to odd, mutates in
//! place, then bumps it to even; a reader copies the data and retries
//! if the sequence changed (or was odd) around its copy.
//!
//! The writer never allocates and never blocks: a publish is two
//! atomic stores, a fence, and a handful of plain stores into the
//! shard. All the expensive work (cloning histogram buckets) happens
//! on the reader side, once per sampling interval.
//!
//! **Shape invariant**: a write session must never resize any `Vec`
//! inside [`WorkerSample`] — readers rely on the heap layout being
//! stable while they copy. [`ShardWriter::write`] debug-asserts this.

use std::cell::UnsafeCell;
use std::sync::atomic::{fence, AtomicU64, Ordering};
use std::sync::Arc;

use falcon_metrics::Histogram;
use serde::Serialize;

pub use crate::schema::ShardCounters;
use crate::schema::{self, Shape, WORKER};

/// Where a worker's wall-clock went, in nanoseconds. The five buckets
/// are chained timestamp segments: every nanosecond of the worker loop
/// lands in exactly one of them, so they sum to `wall_ns` by
/// construction (the conformance suite asserts ≥ 95 % closure).
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct StallBreakdown {
    /// Executing stage work (spin budget, wire verification, and the
    /// per-packet bookkeeping that rides between stage boundaries).
    pub busy_ns: u64,
    /// Publishing batches downstream (`flush_outbound`), including the
    /// time spent staging into full rings and accounting tail drops.
    pub stall_push_ns: u64,
    /// Sweeping upstream rings for input (`pop_batch` and the
    /// per-sweep accounting that follows a drain).
    pub stall_pop_ns: u64,
    /// Steering: policy choice, flow-table routing, and the
    /// hand-over-hand in-flight guard exchange.
    pub guard_wait_ns: u64,
    /// Idle backoff (spin → yield → park) when no ring had work.
    pub idle_ns: u64,
    /// Total wall-clock of the worker loop, barrier to exit.
    pub wall_ns: u64,
}

impl StallBreakdown {
    /// Nanoseconds attributed to one of the five named buckets.
    pub fn attributed_ns(&self) -> u64 {
        self.busy_ns + self.stall_push_ns + self.stall_pop_ns + self.guard_wait_ns + self.idle_ns
    }

    /// Fraction of wall-clock the buckets explain (1.0 for an idle
    /// shard that has not measured anything yet).
    pub fn coverage(&self) -> f64 {
        if self.wall_ns == 0 {
            1.0
        } else {
            self.attributed_ns() as f64 / self.wall_ns as f64
        }
    }

    /// Bucket-wise difference vs an earlier snapshot (saturating).
    pub fn delta_since(&self, earlier: &StallBreakdown) -> StallBreakdown {
        StallBreakdown {
            busy_ns: self.busy_ns.saturating_sub(earlier.busy_ns),
            stall_push_ns: self.stall_push_ns.saturating_sub(earlier.stall_push_ns),
            stall_pop_ns: self.stall_pop_ns.saturating_sub(earlier.stall_pop_ns),
            guard_wait_ns: self.guard_wait_ns.saturating_sub(earlier.guard_wait_ns),
            idle_ns: self.idle_ns.saturating_sub(earlier.idle_ns),
            wall_ns: self.wall_ns.saturating_sub(earlier.wall_ns),
        }
    }
}

impl ShardCounters {
    /// Zeroed counters shaped for `n_stages` pipeline stages and
    /// `n_reasons` drop reasons.
    pub fn zeroed(n_stages: usize, n_reasons: usize) -> Self {
        let mut c = ShardCounters::default();
        for row in WORKER {
            let n = match row.shape {
                Shape::Scalar => 1,
                Shape::PerStage => n_stages,
                Shape::PerReason => n_reasons,
            };
            (row.cells_mut)(&mut c, n);
        }
        c
    }

    /// Total drops across all reasons.
    pub fn dropped(&self) -> u64 {
        self.drops.iter().sum()
    }

    /// Element-wise difference vs an earlier snapshot (saturating).
    pub fn delta_since(&self, earlier: &ShardCounters) -> ShardCounters {
        schema::delta(WORKER, self, earlier)
    }

    /// Adds another delta into this one (used by conservation tests to
    /// telescope interval deltas back into a cumulative total).
    pub fn accumulate(&mut self, delta: &ShardCounters) {
        for row in WORKER {
            let add = (row.cells)(delta);
            for (x, y) in (row.cells_mut)(self, add.len()).iter_mut().zip(add) {
                *x += y;
            }
        }
    }
}

/// The data behind one worker's seqlock: everything the sampler reads.
#[derive(Debug, Clone)]
pub struct WorkerSample {
    /// Monotonic counters (deltas telescope).
    pub counters: ShardCounters,
    /// Cumulative stall attribution (deltas telescope).
    pub stall: StallBreakdown,
    /// Instantaneous depth-gauge reading for this worker's inbound
    /// load estimate at the last publish (a gauge, not a counter).
    pub ring_depth: u64,
    /// Largest per-update depth-gauge staleness observed so far; the
    /// documented bound is one NAPI budget.
    pub depth_staleness: u64,
    /// Cumulative per-stage service-time histogram shards. Interval
    /// views come from [`Histogram::delta_since`].
    pub stage_service_ns: Vec<Histogram>,
}

impl WorkerSample {
    /// Empty sample shaped for `n_stages` stages, `n_reasons` reasons.
    pub fn zeroed(n_stages: usize, n_reasons: usize) -> Self {
        WorkerSample {
            counters: ShardCounters::zeroed(n_stages, n_reasons),
            stall: StallBreakdown::default(),
            ring_depth: 0,
            depth_staleness: 0,
            stage_service_ns: (0..n_stages).map(|_| Histogram::new()).collect(),
        }
    }

    // Only consulted by the debug-build shape assertion in
    // `ShardWriter::write`.
    #[cfg_attr(not(debug_assertions), allow(dead_code))]
    fn shape(&self) -> [usize; WORKER.len() + 1] {
        std::array::from_fn(|i| match WORKER.get(i) {
            Some(row) => (row.cells)(&self.counters).len(),
            None => self.stage_service_ns.len(),
        })
    }
}

/// One worker's telemetry shard: seqlock-protected [`WorkerSample`].
///
/// Cache-line aligned so neighbouring workers' sequence words never
/// share a line (the writer bumps `seq` twice per publish).
#[repr(align(128))]
pub struct Shard {
    seq: AtomicU64,
    data: UnsafeCell<WorkerSample>,
}

// SAFETY: all access to `data` goes through the seqlock protocol —
// the unique `ShardWriter` mutates between odd/even transitions of
// `seq`, and readers discard any copy whose surrounding sequence
// reads disagree (or were odd). The shape invariant (no Vec resize in
// a write session) keeps racy reader copies from observing a torn
// heap layout; torn *values* are discarded by the sequence check.
unsafe impl Sync for Shard {}
unsafe impl Send for Shard {}

impl Shard {
    fn new(init: WorkerSample) -> Arc<Shard> {
        Arc::new(Shard {
            seq: AtomicU64::new(0),
            data: UnsafeCell::new(init),
        })
    }

    /// Takes a consistent snapshot, retrying while a write is in
    /// flight. Never blocks the writer.
    pub fn read(&self) -> WorkerSample {
        loop {
            let s1 = self.seq.load(Ordering::Acquire);
            if s1 & 1 == 1 {
                std::hint::spin_loop();
                continue;
            }
            // SAFETY: see the Sync impl. The copy may race with a
            // writer; the sequence check below discards torn copies.
            let copy = unsafe { (*self.data.get()).clone() };
            fence(Ordering::Acquire);
            let s2 = self.seq.load(Ordering::Relaxed);
            if s1 == s2 {
                return copy;
            }
        }
    }

    /// Number of completed write sessions (even seq / 2).
    pub fn publishes(&self) -> u64 {
        self.seq.load(Ordering::Acquire) / 2
    }
}

/// The single-writer handle to a [`Shard`]. Deliberately not `Clone`:
/// exactly one worker thread may publish into a shard.
pub struct ShardWriter {
    shard: Arc<Shard>,
}

impl ShardWriter {
    /// Runs one write session. The closure mutates the shard data in
    /// place; it must not resize any contained `Vec` (debug-asserted).
    #[inline]
    pub fn write<F: FnOnce(&mut WorkerSample)>(&mut self, f: F) {
        let s = self.shard.seq.load(Ordering::Relaxed);
        self.shard.seq.store(s.wrapping_add(1), Ordering::Relaxed);
        fence(Ordering::Release);
        // SAFETY: `self` is the unique writer and the sequence is now
        // odd, so readers will retry any copy taken during `f`.
        let data = unsafe { &mut *self.shard.data.get() };
        #[cfg(debug_assertions)]
        let shape = data.shape();
        f(data);
        #[cfg(debug_assertions)]
        debug_assert_eq!(shape, data.shape(), "write session resized a shard Vec");
        self.shard.seq.store(s.wrapping_add(2), Ordering::Release);
    }
}

/// Allocates a shard and its unique writer.
pub fn shard_pair(init: WorkerSample) -> (Arc<Shard>, ShardWriter) {
    let shard = Shard::new(init);
    let writer = ShardWriter {
        shard: Arc::clone(&shard),
    };
    (shard, writer)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;

    #[test]
    fn snapshot_sees_published_write() {
        let (shard, mut w) = shard_pair(WorkerSample::zeroed(4, 5));
        w.write(|d| {
            d.counters.sweeps = 3;
            d.counters.processed_per_stage[1] = 7;
            d.stall.busy_ns = 99;
            d.stage_service_ns[0].record(250);
        });
        let snap = shard.read();
        assert_eq!(snap.counters.sweeps, 3);
        assert_eq!(snap.counters.processed_per_stage[1], 7);
        assert_eq!(snap.stall.busy_ns, 99);
        assert_eq!(snap.stage_service_ns[0].count(), 1);
        assert_eq!(shard.publishes(), 1);
    }

    #[test]
    fn concurrent_reads_are_internally_consistent() {
        // The writer keeps two counters in lockstep; a torn read would
        // observe them unequal. Hammer from a reader thread.
        let (shard, mut w) = shard_pair(WorkerSample::zeroed(2, 5));
        let stop = Arc::new(AtomicBool::new(false));
        let reader = {
            let shard = Arc::clone(&shard);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut reads = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let s = shard.read();
                    assert_eq!(
                        s.counters.delivered, s.counters.sweeps,
                        "torn snapshot escaped the seqlock"
                    );
                    assert_eq!(s.counters.delivered, s.stall.busy_ns);
                    reads += 1;
                }
                reads
            })
        };
        for i in 1..=200_000u64 {
            w.write(|d| {
                d.counters.sweeps = i;
                d.counters.delivered = i;
                d.stall.busy_ns = i;
            });
        }
        stop.store(true, Ordering::Relaxed);
        let reads = reader.join().unwrap();
        assert!(reads > 0);
        let last = shard.read();
        assert_eq!(last.counters.sweeps, 200_000);
    }

    #[test]
    fn counter_deltas_telescope() {
        // Every cell of every row moves between the two snapshots.
        let mut a = ShardCounters::zeroed(3, 5);
        let mut b = a.clone();
        for (i, row) in WORKER.iter().enumerate() {
            let cells = (row.cells_mut)(&mut a, 0).iter_mut();
            for (j, (x, y)) in cells.zip((row.cells_mut)(&mut b, 0)).enumerate() {
                *x = 10 * i as u64 + j as u64 + 1;
                *y = 3 * *x + 1;
            }
        }
        let d = b.delta_since(&a);
        for row in WORKER {
            for ((x, y), z) in (row.cells)(&a)
                .iter()
                .zip((row.cells)(&d))
                .zip((row.cells)(&b))
            {
                assert_eq!(x + y, *z, "{}", row.key);
            }
        }
        let mut total = ShardCounters::zeroed(3, 5);
        total.accumulate(&a.delta_since(&ShardCounters::zeroed(3, 5)));
        total.accumulate(&d);
        assert_eq!(total, b);
    }

    #[test]
    fn stall_breakdown_coverage() {
        let s = StallBreakdown {
            busy_ns: 60,
            stall_push_ns: 10,
            stall_pop_ns: 10,
            guard_wait_ns: 10,
            idle_ns: 10,
            wall_ns: 100,
        };
        assert_eq!(s.attributed_ns(), 100);
        assert!((s.coverage() - 1.0).abs() < 1e-9);
        assert_eq!(StallBreakdown::default().coverage(), 1.0);
        let earlier = StallBreakdown {
            busy_ns: 30,
            wall_ns: 50,
            ..StallBreakdown::default()
        };
        let d = s.delta_since(&earlier);
        assert_eq!(d.busy_ns, 30);
        assert_eq!(d.wall_ns, 50);
    }
}
