//! A hand-rolled bounded single-producer/single-consumer ring.
//!
//! This is the real-thread analogue of `falcon_netdev`'s modeled
//! `RxRing`: a fixed-capacity tail-drop FIFO, except here "concurrent"
//! means actual cores, so the indices are atomics and the hot fields
//! live on their own cache lines. The design is the classic Lamport
//! queue with index caching:
//!
//! * the producer owns `tail`, the consumer owns `head`; each side
//!   *reads* the other's index only when its cached copy says the ring
//!   looks full/empty, so steady-state push/pop touches one shared
//!   cache line, not two;
//! * slots are written before the `Release` store of `tail` publishes
//!   them, and read after the `Acquire` load that observes them — the
//!   only synchronization a SPSC FIFO needs;
//! * capacity is rounded up to a power of two so the index wrap is a
//!   mask, not a division.
//!
//! `std`-only by design: the point of this crate is to demonstrate the
//! paper's wall-clock parallelism without reaching for crossbeam.

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Pads a value to a cache line so the producer's and consumer's hot
/// indices never false-share.
#[repr(align(64))]
#[derive(Debug, Default)]
struct CachePadded<T>(T);

/// The shared ring storage. `head` trails `tail`; both increase
/// monotonically and are reduced modulo capacity only at slot access.
#[derive(Debug)]
struct Shared<T> {
    mask: usize,
    buf: Box<[UnsafeCell<MaybeUninit<T>>]>,
    /// Consumer position (next slot to pop).
    head: CachePadded<AtomicUsize>,
    /// Producer position (next slot to fill).
    tail: CachePadded<AtomicUsize>,
}

// SAFETY: slots are only accessed by the side that owns the index range
// covering them (producer: head..head+cap unfilled region; consumer:
// published head..tail region), with Release/Acquire pairs ordering the
// handoff. T must be Send because values cross threads.
unsafe impl<T: Send> Sync for Shared<T> {}
unsafe impl<T: Send> Send for Shared<T> {}

impl<T> Drop for Shared<T> {
    fn drop(&mut self) {
        // Exclusive access here: drain whatever was never popped.
        let mut head = *self.head.0.get_mut();
        let tail = *self.tail.0.get_mut();
        while head != tail {
            unsafe { (*self.buf[head & self.mask].get()).assume_init_drop() };
            head = head.wrapping_add(1);
        }
    }
}

/// The producing half of a ring; `Send` but tied to one thread at a
/// time.
#[derive(Debug)]
pub struct Producer<T> {
    shared: Arc<Shared<T>>,
    /// Local copy of `tail` (only we advance it).
    tail: usize,
    /// Last observed consumer position; refreshed only on apparent
    /// full.
    cached_head: usize,
    /// Packets rejected because the ring was full (tail-drop
    /// accounting, mirroring the modeled `RxRing::dropped`).
    dropped: u64,
}

/// The consuming half of a ring.
#[derive(Debug)]
pub struct Consumer<T> {
    shared: Arc<Shared<T>>,
    /// Local copy of `head` (only we advance it).
    head: usize,
    /// Last observed producer position; refreshed only on apparent
    /// empty.
    cached_tail: usize,
}

/// Creates a bounded SPSC ring holding at least `capacity` items
/// (rounded up to a power of two, minimum 2).
pub fn ring<T>(capacity: usize) -> (Producer<T>, Consumer<T>) {
    let cap = capacity.max(2).next_power_of_two();
    let buf: Box<[UnsafeCell<MaybeUninit<T>>]> = (0..cap)
        .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
        .collect();
    let shared = Arc::new(Shared {
        mask: cap - 1,
        buf,
        head: CachePadded(AtomicUsize::new(0)),
        tail: CachePadded(AtomicUsize::new(0)),
    });
    (
        Producer {
            shared: Arc::clone(&shared),
            tail: 0,
            cached_head: 0,
            dropped: 0,
        },
        Consumer {
            shared,
            head: 0,
            cached_tail: 0,
        },
    )
}

impl<T> Producer<T> {
    /// Slots in the ring.
    pub fn capacity(&self) -> usize {
        self.shared.mask + 1
    }

    /// Attempts to enqueue; on a full ring the value is handed back.
    #[inline]
    pub fn try_push(&mut self, value: T) -> Result<(), T> {
        let cap = self.shared.mask + 1;
        if self.tail.wrapping_sub(self.cached_head) == cap {
            self.cached_head = self.shared.head.0.load(Ordering::Acquire);
            if self.tail.wrapping_sub(self.cached_head) == cap {
                return Err(value);
            }
        }
        unsafe {
            (*self.shared.buf[self.tail & self.shared.mask].get()).write(value);
        }
        self.tail = self.tail.wrapping_add(1);
        self.shared.tail.0.store(self.tail, Ordering::Release);
        Ok(())
    }

    /// Enqueues, or counts a tail-drop and discards the value. Returns
    /// whether the value was accepted.
    #[inline]
    pub fn push_or_drop(&mut self, value: T) -> bool {
        match self.try_push(value) {
            Ok(()) => true,
            Err(_) => {
                self.dropped += 1;
                false
            }
        }
    }

    /// Items dropped by [`push_or_drop`](Self::push_or_drop) and
    /// [`push_batch_or_drop`](Self::push_batch_or_drop).
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Enqueues as many items as fit from the front of `batch`,
    /// draining exactly the accepted prefix, and returns how many were
    /// accepted. The whole batch costs at most one `Acquire` refresh of
    /// the consumer index (only when the ring looks full) and exactly
    /// one `Release` publish — versus one of each per item on the
    /// [`try_push`](Self::try_push) path. Items that don't fit stay in
    /// `batch`, in order, for the caller to retry or drop.
    pub fn push_batch(&mut self, batch: &mut Vec<T>) -> usize {
        if batch.is_empty() {
            return 0;
        }
        let cap = self.shared.mask + 1;
        let mut free = cap - self.tail.wrapping_sub(self.cached_head);
        if free < batch.len() {
            self.cached_head = self.shared.head.0.load(Ordering::Acquire);
            free = cap - self.tail.wrapping_sub(self.cached_head);
        }
        let n = free.min(batch.len());
        if n == 0 {
            return 0;
        }
        for value in batch.drain(..n) {
            unsafe {
                (*self.shared.buf[self.tail & self.shared.mask].get()).write(value);
            }
            self.tail = self.tail.wrapping_add(1);
        }
        self.shared.tail.0.store(self.tail, Ordering::Release);
        n
    }

    /// Enqueues what fits from `batch` and tail-drops the rest, with
    /// exact drop accounting: `batch` is left empty, the return value
    /// is the accepted count, and [`dropped`](Self::dropped) grows by
    /// exactly `batch.len() - accepted`.
    pub fn push_batch_or_drop(&mut self, batch: &mut Vec<T>) -> usize {
        let accepted = self.push_batch(batch);
        self.dropped += batch.len() as u64;
        batch.clear();
        accepted
    }

    /// Occupancy as seen from the producer side (exact for our own
    /// pushes, conservative about concurrent pops).
    pub fn len(&self) -> usize {
        let head = self.shared.head.0.load(Ordering::Acquire);
        self.tail.wrapping_sub(head)
    }

    /// Whether the ring looks empty from the producer side.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T> Consumer<T> {
    /// Slots in the ring.
    pub fn capacity(&self) -> usize {
        self.shared.mask + 1
    }

    /// Dequeues the oldest item, if any.
    #[inline]
    pub fn pop(&mut self) -> Option<T> {
        if self.head == self.cached_tail {
            self.cached_tail = self.shared.tail.0.load(Ordering::Acquire);
            if self.head == self.cached_tail {
                return None;
            }
        }
        let value =
            unsafe { (*self.shared.buf[self.head & self.shared.mask].get()).assume_init_read() };
        self.head = self.head.wrapping_add(1);
        self.shared.head.0.store(self.head, Ordering::Release);
        Some(value)
    }

    /// Dequeues up to `max` items into `out`, preserving FIFO order,
    /// and returns how many arrived. The whole batch costs at most one
    /// `Acquire` refresh of the producer index (only when the ring
    /// looks empty) and exactly one `Release` publish of the consumer
    /// index — versus one of each per item on the [`pop`](Self::pop)
    /// path.
    pub fn pop_batch(&mut self, out: &mut Vec<T>, max: usize) -> usize {
        if max == 0 {
            return 0;
        }
        let mut avail = self.cached_tail.wrapping_sub(self.head);
        if avail == 0 {
            self.cached_tail = self.shared.tail.0.load(Ordering::Acquire);
            avail = self.cached_tail.wrapping_sub(self.head);
            if avail == 0 {
                return 0;
            }
        }
        let n = avail.min(max);
        out.reserve(n);
        for _ in 0..n {
            let value = unsafe {
                (*self.shared.buf[self.head & self.shared.mask].get()).assume_init_read()
            };
            out.push(value);
            self.head = self.head.wrapping_add(1);
        }
        self.shared.head.0.store(self.head, Ordering::Release);
        n
    }

    /// Occupancy as seen from the consumer side (exact for our own
    /// pops, conservative about concurrent pushes).
    pub fn len(&self) -> usize {
        let tail = self.shared.tail.0.load(Ordering::Acquire);
        tail.wrapping_sub(self.head)
    }

    /// Whether the ring looks empty from the consumer side.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_within_one_thread() {
        let (mut tx, mut rx) = ring::<u32>(4);
        assert_eq!(tx.capacity(), 4);
        assert!(rx.pop().is_none());
        for i in 0..4 {
            assert!(tx.try_push(i).is_ok());
        }
        assert_eq!(tx.try_push(99), Err(99), "full ring hands the value back");
        assert_eq!(rx.len(), 4);
        for i in 0..4 {
            assert_eq!(rx.pop(), Some(i));
        }
        assert!(rx.pop().is_none());
        // Space reclaimed after pops.
        assert!(tx.try_push(7).is_ok());
        assert_eq!(rx.pop(), Some(7));
    }

    #[test]
    fn capacity_rounds_to_power_of_two() {
        let (tx, _rx) = ring::<u8>(5);
        assert_eq!(tx.capacity(), 8);
        let (tx, _rx) = ring::<u8>(0);
        assert_eq!(tx.capacity(), 2);
    }

    #[test]
    fn drop_accounting() {
        let (mut tx, _rx) = ring::<u64>(2);
        assert!(tx.push_or_drop(1));
        assert!(tx.push_or_drop(2));
        assert!(!tx.push_or_drop(3));
        assert!(!tx.push_or_drop(4));
        assert_eq!(tx.dropped(), 2);
    }

    #[test]
    fn unread_items_are_dropped_with_the_ring() {
        // Arc payload proves slot destructors run on ring teardown.
        let marker = Arc::new(());
        {
            let (mut tx, _rx) = ring::<Arc<()>>(8);
            for _ in 0..5 {
                assert!(tx.try_push(Arc::clone(&marker)).is_ok());
            }
            assert_eq!(Arc::strong_count(&marker), 6);
        }
        assert_eq!(Arc::strong_count(&marker), 1);
    }

    #[test]
    fn batch_roundtrip_preserves_fifo() {
        let (mut tx, mut rx) = ring::<u32>(8);
        let mut batch: Vec<u32> = (0..5).collect();
        assert_eq!(tx.push_batch(&mut batch), 5);
        assert!(batch.is_empty(), "accepted prefix is drained");
        let mut more: Vec<u32> = (5..12).collect();
        assert_eq!(tx.push_batch(&mut more), 3, "only 3 slots left");
        assert_eq!(more, vec![8, 9, 10, 11], "rejects stay in order");
        let mut out = Vec::new();
        assert_eq!(rx.pop_batch(&mut out, 64), 8);
        assert_eq!(out, (0..8).collect::<Vec<u32>>());
        assert_eq!(rx.pop_batch(&mut out, 64), 0, "empty ring pops nothing");
    }

    #[test]
    fn batch_drop_accounting_is_exact() {
        let (mut tx, mut rx) = ring::<u32>(4);
        let mut batch: Vec<u32> = (0..10).collect();
        assert_eq!(tx.push_batch_or_drop(&mut batch), 4);
        assert!(batch.is_empty());
        assert_eq!(tx.dropped(), 6, "exactly the overflow suffix dropped");
        let mut out = Vec::new();
        assert_eq!(rx.pop_batch(&mut out, 2), 2, "max bounds the batch");
        assert_eq!(out, vec![0, 1]);
        // Space reclaimed: a second batch now partially fits.
        let mut again: Vec<u32> = (10..15).collect();
        assert_eq!(tx.push_batch_or_drop(&mut again), 2);
        assert_eq!(tx.dropped(), 9);
    }

    #[test]
    fn undrained_batches_run_destructors() {
        // Arc payloads prove destructors run wherever batch items end
        // up parked: still in the ring, still in the pop buffer, or
        // still in the rejected suffix of a push batch.
        let marker = Arc::new(());
        {
            let (mut tx, mut rx) = ring::<Arc<()>>(4);
            let mut batch: Vec<Arc<()>> = (0..6).map(|_| Arc::clone(&marker)).collect();
            assert_eq!(tx.push_batch(&mut batch), 4);
            assert_eq!(batch.len(), 2, "2 rejects left in the batch vec");
            let mut out = Vec::new();
            assert_eq!(rx.pop_batch(&mut out, 2), 2);
            assert_eq!(Arc::strong_count(&marker), 7);
            // `batch` (rejects), `out` (undrained pops), and the ring
            // (2 never-popped slots) all drop here.
        }
        assert_eq!(Arc::strong_count(&marker), 1);
    }

    #[test]
    fn cross_thread_handoff() {
        let (mut tx, mut rx) = ring::<u64>(64);
        let n = 100_000u64;
        let producer = std::thread::spawn(move || {
            for i in 0..n {
                loop {
                    match tx.try_push(i) {
                        Ok(()) => break,
                        Err(_) => std::thread::yield_now(),
                    }
                }
            }
        });
        let mut expected = 0u64;
        while expected < n {
            match rx.pop() {
                Some(v) => {
                    assert_eq!(v, expected, "FIFO across threads");
                    expected += 1;
                }
                None => std::thread::yield_now(),
            }
        }
        producer.join().expect("producer thread");
        assert!(rx.pop().is_none());
    }
}
