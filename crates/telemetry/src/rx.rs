//! Rx-thread telemetry: shared counters the live-socket ingestion
//! frontend publishes while it pulls datagrams off the OS socket.
//!
//! Unlike the per-worker shards, the rx side is a single producer with
//! a handful of monotonic counters, so plain relaxed atomics are enough
//! — no seqlock, no shape invariant to guard. The sampler snapshots
//! them alongside the worker shards each tick; the JSONL exporter emits
//! one `"kind":"rx"` delta line per interval and the Prometheus
//! exposition grows `falcon_rx_*` series.

use std::sync::atomic::{AtomicU64, Ordering};

pub use crate::schema::RxSample;

/// Monotonic counters owned by the socket rx thread. All increments
/// are relaxed: the rx thread is the only writer and the sampler only
/// needs eventually-consistent monotone reads.
#[derive(Debug, Default)]
pub struct RxCounters {
    datagrams: AtomicU64,
    batches: AtomicU64,
    eagain_spins: AtomicU64,
    runts: AtomicU64,
    sock_drops: AtomicU64,
}

impl RxCounters {
    /// Fresh zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one successful batched read of `datagrams` datagrams.
    pub fn add_batch(&self, datagrams: u64) {
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.datagrams.fetch_add(datagrams, Ordering::Relaxed);
    }

    /// Records one empty read (`EAGAIN`/`EWOULDBLOCK` spin).
    pub fn add_eagain(&self) {
        self.eagain_spins.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a datagram too short to be a VXLAN outer frame, counted
    /// at the rx boundary before it ever reaches the pipeline.
    pub fn add_runt(&self) {
        self.runts.fetch_add(1, Ordering::Relaxed);
    }

    /// Publishes the kernel's cumulative receive-queue overflow count
    /// (`SO_RXQ_OVFL`); pass the latest cumulative value, not a delta.
    pub fn set_sock_drops(&self, cumulative: u64) {
        self.sock_drops.store(cumulative, Ordering::Relaxed);
    }

    /// Point-in-time copy of every counter.
    pub fn snapshot(&self) -> RxSample {
        RxSample {
            datagrams: self.datagrams.load(Ordering::Relaxed),
            batches: self.batches.load(Ordering::Relaxed),
            eagain_spins: self.eagain_spins.load(Ordering::Relaxed),
            runts: self.runts.load(Ordering::Relaxed),
            sock_drops: self.sock_drops.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_snapshot() {
        let c = RxCounters::new();
        c.add_batch(8);
        c.add_batch(3);
        c.add_eagain();
        c.add_runt();
        c.set_sock_drops(5);
        let s = c.snapshot();
        assert_eq!(
            s,
            RxSample {
                datagrams: 11,
                batches: 2,
                eagain_spins: 1,
                runts: 1,
                sock_drops: 5,
            }
        );
    }

    #[test]
    fn deltas_telescope() {
        let c = RxCounters::new();
        c.add_batch(4);
        let a = c.snapshot();
        c.add_batch(6);
        c.add_eagain();
        let b = c.snapshot();
        let d = crate::schema::delta(crate::schema::RX, &b, &a);
        assert_eq!(d.datagrams, 6);
        assert_eq!(d.batches, 1);
        assert_eq!(d.eagain_spins, 1);
        // Saturating: a reversed pair cannot underflow.
        assert_eq!(crate::schema::delta(crate::schema::RX, &a, &b).datagrams, 0);
    }
}
