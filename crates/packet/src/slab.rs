//! Pre-registered slab buffer pool for the wire hot path.
//!
//! In steady state, every wire-mode packet used to cost one `Box` for
//! the [`WireBuf`] shell, one `Vec` for the segment list, and one heap
//! buffer per segment — all freed a few microseconds later on a
//! different core. This module replaces that churn with the way real
//! drivers run their rx descriptor rings: a [`SlabPool`] pre-allocates
//! fixed-size slots in two classes (MTU and jumbo), leases them out as
//! generation-tagged [`SlabSeg`]s, and takes them back through a
//! bounded MPSC return ring that any worker thread can push into
//! without locks. The pool owner (the packet source thread) drains the
//! ring back into its freelists on every lease, so buffers circulate
//! source → ring mesh → delivery → return ring → source without a
//! single `malloc` once the run is warm.
//!
//! Exhaustion never fails: when a class runs dry the pool falls back to
//! a plain heap buffer and counts it ([`SlabCounters::fallbacks`]), so
//! undersized pools degrade to exactly the old allocation behaviour.
//! Dropped segments self-return via `Drop`, which makes every drop path
//! in the executor (tail drops, malformed frames, panics) leak-free by
//! construction; recycling the *shell* too ([`recycle`]) is the
//! explicit fast path delivery and drop sites use.

use core::fmt;
use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use serde::Serialize;

use crate::desc::WireBuf;

/// Slot size of the MTU class: covers a full 1500-byte inner frame plus
/// the VXLAN envelope, and matches the ingest path's receive scratch.
pub const MTU_SLOT: usize = 2048;
/// Slot size of the jumbo class: a 9000-byte jumbo frame plus envelope
/// headroom.
pub const JUMBO_SLOT: usize = 9728;

const N_CLASSES: usize = 2;

/// Pool sizing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlabConfig {
    /// Slots of [`MTU_SLOT`] bytes.
    pub mtu_slots: usize,
    /// Slots of [`JUMBO_SLOT`] bytes.
    pub jumbo_slots: usize,
}

impl Default for SlabConfig {
    fn default() -> Self {
        SlabConfig {
            mtu_slots: 1024,
            jumbo_slots: 32,
        }
    }
}

/// Monotonic pool counters, shared with telemetry. All relaxed: these
/// are statistics, not synchronization. Laid out by writer: the pool
/// owner's four share the first cache line, and the two that producers
/// bump on every return share the second, so a worker's return never
/// pulls the owner's line away from it.
#[derive(Debug, Default)]
#[repr(C, align(64))]
pub struct SlabCounters {
    /// Segments leased from a pool freelist.
    pub leases: AtomicU64,
    /// Heap-fallback segments handed out because a class was dry (or
    /// the request exceeded the jumbo class).
    pub fallbacks: AtomicU64,
    /// Slots drained from the return ring back into a freelist.
    pub recycles: AtomicU64,
    /// Returned slots whose generation tag did not match (discarded).
    pub gen_errors: AtomicU64,
    _owner_line: [u8; 32],
    /// Cross-thread pushes into the return rings (segments + shells).
    pub returns: AtomicU64,
    /// Returns lost because a ring was full (the buffer is freed).
    pub ring_drops: AtomicU64,
}

const _: () =
    assert!(std::mem::offset_of!(SlabCounters, returns) == 64 && size_of::<SlabCounters>() == 128);

impl SlabCounters {
    /// Coherent-enough snapshot for export (relaxed loads).
    pub fn snapshot(&self) -> SlabSample {
        SlabSample {
            leases: self.leases.load(Ordering::Relaxed),
            fallbacks: self.fallbacks.load(Ordering::Relaxed),
            recycles: self.recycles.load(Ordering::Relaxed),
            returns: self.returns.load(Ordering::Relaxed),
            ring_drops: self.ring_drops.load(Ordering::Relaxed),
            gen_errors: self.gen_errors.load(Ordering::Relaxed),
        }
    }
}

/// One snapshot of [`SlabCounters`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct SlabSample {
    /// See [`SlabCounters::leases`].
    pub leases: u64,
    /// See [`SlabCounters::fallbacks`].
    pub fallbacks: u64,
    /// See [`SlabCounters::recycles`].
    pub recycles: u64,
    /// See [`SlabCounters::returns`].
    pub returns: u64,
    /// See [`SlabCounters::ring_drops`].
    pub ring_drops: u64,
    /// See [`SlabCounters::gen_errors`].
    pub gen_errors: u64,
}

/// Packed identity of a leased slot: class, slot index, and the
/// generation the slot had when leased. The generation is validated and
/// bumped on every recycle, so a stale return (a logic bug that would
/// be a use-after-free in a real driver) is detected and discarded
/// instead of corrupting the freelist.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct SlotTag(u64);

impl SlotTag {
    fn new(class: usize, index: usize, gen: u32) -> Self {
        SlotTag(((class as u64) << 56) | ((index as u64 & 0x00FF_FFFF) << 32) | gen as u64)
    }
    fn class(self) -> usize {
        (self.0 >> 56) as usize
    }
    fn index(self) -> usize {
        ((self.0 >> 32) & 0x00FF_FFFF) as usize
    }
    fn gen(self) -> u32 {
        self.0 as u32
    }
}

/// The cross-thread half of a pool: the return rings and generation
/// table every leased segment keeps an `Arc` to. Cache-aligned, so the
/// `Arc`'s reference counts in front of it sit on a line of their own,
/// apart from the rings' indices.
#[repr(align(64))]
pub struct PoolShared {
    seg_ring: MpscRing<(SlotTag, Vec<u8>)>,
    shell_ring: MpscRing<Box<WireBuf>>,
    gens: [Vec<AtomicU32>; N_CLASSES],
    counters: Arc<SlabCounters>,
}

impl fmt::Debug for PoolShared {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PoolShared")
            .field("mtu_slots", &self.gens[0].len())
            .field("jumbo_slots", &self.gens[1].len())
            .finish()
    }
}

impl PoolShared {
    fn push_seg(&self, tag: SlotTag, buf: Vec<u8>) {
        self.counters.returns.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `&self` keeps the ring alive for the whole call.
        if unsafe { MpscRing::push(&self.seg_ring, (tag, buf)) }.is_err() {
            self.counters.ring_drops.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Pushes a pooled shell home without taking a reference count:
    /// the shell's own `Arc` keeps the pool alive up to the store that
    /// publishes it, and a shell the full ring refuses is dropped only
    /// after the last access through `this`.
    ///
    /// # Safety
    /// `this` must be the pool `shell` holds its `Arc` to.
    unsafe fn push_shell(this: *const PoolShared, shell: Box<WireBuf>) {
        // SAFETY: `shell` keeps `*this` alive until it is published;
        // after a successful push neither reference is used again.
        let counters = unsafe { &*(*this).counters };
        counters.returns.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as above; `push` touches the ring last in the store
        // that publishes the shell.
        if let Err(shell) = unsafe { MpscRing::push(&raw const (*this).shell_ring, shell) } {
            counters.ring_drops.fetch_add(1, Ordering::Relaxed);
            drop(shell);
        }
    }
}

/// One leased buffer segment: either a pool slot (returned to its pool
/// on drop, from any thread) or a detached heap buffer
/// (exhaustion-fallback or test convenience; dropped normally).
///
/// Dereferences to its byte contents. The underlying `Vec` is exposed
/// for in-place frame building; growing it past the slot size works
/// (the pool re-mints the slot on return) but re-introduces the
/// allocation the pool exists to avoid.
pub struct SlabSeg {
    buf: Vec<u8>,
    origin: Option<(Arc<PoolShared>, SlotTag)>,
}

impl SlabSeg {
    /// Wraps a plain heap buffer (no pool, dropped normally).
    pub fn detached(buf: Vec<u8>) -> Self {
        SlabSeg { buf, origin: None }
    }

    /// Whether this segment is backed by a pool slot.
    pub fn is_pooled(&self) -> bool {
        self.origin.is_some()
    }

    /// The byte contents, mutably.
    ///
    /// Contract for pooled segments: shrink freely (`clear`/`truncate`)
    /// and extend within the slot's capacity; operations that move or
    /// shrink the allocation itself forfeit the slot (it is re-minted
    /// on return) and may reintroduce heap traffic.
    pub fn vec_mut(&mut self) -> &mut Vec<u8> {
        &mut self.buf
    }

    /// Shortens the contents to `len` (no-op if already shorter).
    pub fn truncate(&mut self, len: usize) {
        self.buf.truncate(len);
    }

    /// Decomposes the segment into its bare buffer and a [`RawSlot`]
    /// recording the pool identity, without returning the slot.
    ///
    /// For I/O layers that need a plain `Vec<u8>` to hand to the
    /// kernel (e.g. `recvmmsg` iovecs): receive directly into the
    /// bare buffer, then reattach with [`SlabSeg::from_raw`]. The
    /// caller owns the obligation to reassemble — dropping the parts
    /// separately leaks the slot until the pool is torn down.
    pub fn into_raw(self) -> (Vec<u8>, RawSlot) {
        let mut this = std::mem::ManuallyDrop::new(self);
        (std::mem::take(&mut this.buf), RawSlot(this.origin.take()))
    }

    /// Reassembles a segment from [`SlabSeg::into_raw`] parts. The
    /// buffer must be the one the `RawSlot` came from (the pool's
    /// generation check discards mismatched returns defensively, but
    /// pairing them correctly is the caller's contract).
    pub fn from_raw(buf: Vec<u8>, raw: RawSlot) -> SlabSeg {
        SlabSeg { buf, origin: raw.0 }
    }
}

/// The pool identity of a decomposed [`SlabSeg`] (see
/// [`SlabSeg::into_raw`]). Inert on its own: dropping it without
/// reassembling leaks the slot's freelist entry for the pool's
/// lifetime, it never double-returns.
#[derive(Debug, Default)]
pub struct RawSlot(Option<(Arc<PoolShared>, SlotTag)>);

impl RawSlot {
    /// Whether the decomposed segment was pool-backed.
    pub fn is_pooled(&self) -> bool {
        self.0.is_some()
    }
}

impl Deref for SlabSeg {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.buf
    }
}

impl DerefMut for SlabSeg {
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.buf
    }
}

impl From<Vec<u8>> for SlabSeg {
    fn from(buf: Vec<u8>) -> Self {
        SlabSeg::detached(buf)
    }
}

impl Clone for SlabSeg {
    /// Clones detach: the copy is a plain heap buffer, never a second
    /// lease on the same slot.
    fn clone(&self) -> Self {
        SlabSeg::detached(self.buf.clone())
    }
}

impl Default for SlabSeg {
    fn default() -> Self {
        SlabSeg::detached(Vec::new())
    }
}

impl fmt::Debug for SlabSeg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SlabSeg")
            .field("len", &self.buf.len())
            .field("pooled", &self.is_pooled())
            .finish()
    }
}

impl PartialEq for SlabSeg {
    fn eq(&self, other: &Self) -> bool {
        self.buf == other.buf
    }
}
impl Eq for SlabSeg {}

impl PartialEq<Vec<u8>> for SlabSeg {
    fn eq(&self, other: &Vec<u8>) -> bool {
        &self.buf == other
    }
}
impl PartialEq<[u8]> for SlabSeg {
    fn eq(&self, other: &[u8]) -> bool {
        self.buf == other
    }
}
impl PartialEq<SlabSeg> for Vec<u8> {
    fn eq(&self, other: &SlabSeg) -> bool {
        self == &other.buf
    }
}

impl Drop for SlabSeg {
    fn drop(&mut self) {
        if let Some((shared, tag)) = self.origin.take() {
            shared.push_seg(tag, std::mem::take(&mut self.buf));
        }
    }
}

/// The single-owner half of the pool: freelists plus the drain cursor
/// of the return rings. Lives on the packet-source thread; leased
/// segments and shells travel to any thread and find their own way
/// back.
pub struct SlabPool {
    shared: Arc<PoolShared>,
    /// Freelists of `(slot index, buffer)`: every slot keeps the
    /// permanent index it was minted with, which is what ties it to its
    /// row in the generation table across lease/return cycles.
    free: [Vec<(u32, Vec<u8>)>; N_CLASSES],
    /// Shells are cached already-boxed: `lease_shell` hands the `Box`
    /// straight out, so the box itself is part of what the pool
    /// recycles (unboxing here would put a `Box::new` back on the
    /// per-lease path).
    #[allow(clippy::vec_box)]
    shells: Vec<Box<WireBuf>>,
    shell_cap: usize,
}

impl fmt::Debug for SlabPool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SlabPool")
            .field("free_mtu", &self.free[0].len())
            .field("free_jumbo", &self.free[1].len())
            .field("shells", &self.shells.len())
            .finish()
    }
}

const CLASS_LEN: [usize; N_CLASSES] = [MTU_SLOT, JUMBO_SLOT];

impl SlabPool {
    /// Pre-allocates every slot and shell up front.
    pub fn new(cfg: SlabConfig) -> Self {
        let slots = [cfg.mtu_slots, cfg.jumbo_slots];
        let total = cfg.mtu_slots + cfg.jumbo_slots;
        let ring_cap = (total + 64).next_power_of_two();
        let counters = Arc::new(SlabCounters::default());
        let shared = Arc::new(PoolShared {
            seg_ring: MpscRing::new(ring_cap),
            shell_ring: MpscRing::new(ring_cap),
            gens: [
                (0..slots[0]).map(|_| AtomicU32::new(0)).collect(),
                (0..slots[1]).map(|_| AtomicU32::new(0)).collect(),
            ],
            counters,
        });
        let free = [
            (0..slots[0])
                .map(|i| (i as u32, vec![0u8; CLASS_LEN[0]]))
                .collect(),
            (0..slots[1])
                .map(|i| (i as u32, vec![0u8; CLASS_LEN[1]]))
                .collect(),
        ];
        // Carve the shell cache at its cap up front: `take_back_shell`
        // pushes into this Vec on the steady-state recycle path, and a
        // lazily-grown Vec would smuggle an allocation back in there.
        // Mint one shell per slot too — every in-flight shell carries at
        // least one minted segment, so `total` shells cover the deepest
        // possible backlog and `lease_shell` never has to fall back to
        // the heap while the pool itself isn't exhausted.
        let shell_cap = total.max(16);
        let mut shells = Vec::with_capacity(shell_cap);
        shells.extend((0..total).map(|_| Box::new(WireBuf::new_pooled(shared.clone()))));
        SlabPool {
            shared,
            free,
            shells,
            shell_cap,
        }
    }

    /// The pool's counters, shareable with telemetry.
    pub fn counters(&self) -> Arc<SlabCounters> {
        self.shared.counters.clone()
    }

    /// Leases a segment of at least `len` readable bytes. Pool slots
    /// come back full-length (slot-class size, fully initialized);
    /// heap fallbacks come back exactly `len` long, zeroed.
    pub fn acquire(&mut self, len: usize) -> SlabSeg {
        self.drain_returns();
        let class = CLASS_LEN.iter().position(|&c| len <= c);
        if let Some(class) = class {
            if let Some((index, mut buf)) = self.free[class].pop() {
                restore_slot(&mut buf, CLASS_LEN[class]);
                let gen = self.shared.gens[class][index as usize].load(Ordering::Relaxed);
                let tag = SlotTag::new(class, index as usize, gen);
                self.shared.counters.leases.fetch_add(1, Ordering::Relaxed);
                return SlabSeg {
                    buf,
                    origin: Some((self.shared.clone(), tag)),
                };
            }
        }
        self.shared
            .counters
            .fallbacks
            .fetch_add(1, Ordering::Relaxed);
        SlabSeg::detached(vec![0u8; len])
    }

    /// Leases a recycled `WireBuf` shell (cleared, segment-list
    /// capacity retained) or mints a fresh pooled one.
    pub fn lease_shell(&mut self) -> Box<WireBuf> {
        self.drain_returns();
        self.shells
            .pop()
            .unwrap_or_else(|| Box::new(WireBuf::new_pooled(self.shared.clone())))
    }

    /// Drains both return rings into the freelists. Called on every
    /// lease; cheap when the rings are empty (one atomic load each).
    pub fn drain_returns(&mut self) {
        // SAFETY: `SlabPool` is the unique consumer of its rings (it is
        // not clonable and `pop` takes `&mut self`).
        while let Some(shell) = unsafe { self.shared.shell_ring.pop() } {
            self.take_back_shell(shell);
        }
        while let Some((tag, buf)) = unsafe { self.shared.seg_ring.pop() } {
            self.take_back_seg(tag, buf);
        }
    }

    fn take_back_shell(&mut self, mut shell: Box<WireBuf>) {
        // Dropping the segments (GRO's spent ones included) routes each
        // pooled slot through the seg ring (their own `Drop`), drained
        // right after in the caller.
        shell.clear();
        if self.shells.len() < self.shell_cap {
            self.shells.push(shell);
        }
    }

    fn take_back_seg(&mut self, tag: SlotTag, mut buf: Vec<u8>) {
        let class = tag.class().min(N_CLASSES - 1);
        let gens = &self.shared.gens[class];
        let ok = gens
            .get(tag.index())
            .map(|g| g.load(Ordering::Relaxed) == tag.gen())
            .unwrap_or(false);
        if !ok {
            self.shared
                .counters
                .gen_errors
                .fetch_add(1, Ordering::Relaxed);
            return;
        }
        gens[tag.index()].fetch_add(1, Ordering::Relaxed);
        if self.free[class].len() < gens.len() {
            restore_slot(&mut buf, CLASS_LEN[class]);
            self.free[class].push((tag.index() as u32, buf));
            self.shared
                .counters
                .recycles
                .fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Free slots currently in the pool, per class (diagnostics).
    pub fn free_slots(&self) -> (usize, usize) {
        (self.free[0].len(), self.free[1].len())
    }
}

/// Restores a returned slot to full length. Slots are minted fully
/// initialized and only ever shrunk/overwritten within their capacity,
/// so when the capacity is untouched the bytes up to it are still
/// initialized and `set_len` is sound; a slot whose allocation was
/// moved or shrunk by a caller is re-zeroed the slow way.
fn restore_slot(buf: &mut Vec<u8>, class_len: usize) {
    if buf.capacity() == class_len {
        // SAFETY: minted as `vec![0; class_len]`; `Vec` never moves its
        // allocation without changing capacity, so all `class_len`
        // bytes remain initialized.
        unsafe { buf.set_len(class_len) }
    } else {
        buf.clear();
        buf.resize(class_len, 0);
        buf.shrink_to_fit();
    }
}

/// Returns a wire buffer — shell, segment list, and slots — to its
/// owning pool in one ring push. `false` means the shell was not
/// pool-backed and was dropped normally (any pooled segments inside
/// still self-return via their own `Drop`).
///
/// The push takes no reference count of its own (no `Arc` clone and
/// drop per delivery): the shell's `Arc` vouches for the pool.
pub fn recycle(buf: Box<WireBuf>) -> bool {
    let Some(shared) = buf.shell.as_ref().map(Arc::as_ptr) else {
        return false;
    };
    // SAFETY: `shared` is the pool `buf` holds its `Arc` to.
    unsafe { PoolShared::push_shell(shared, buf) };
    true
}

/// Bounded MPSC ring (Vyukov-style bounded queue): many producers push
/// with one CAS, the single consumer pops without contention. `push`
/// hands the value back when full instead of blocking — the caller
/// frees the buffer, which only costs the allocation the pool would
/// have saved. The producers' `enqueue` and the consumer's `dequeue`
/// sit on cache lines of their own.
struct MpscRing<T> {
    cells: Box<[RingCell<T>]>,
    mask: usize,
    enqueue: CachePadded<AtomicUsize>,
    dequeue: CachePadded<AtomicUsize>,
}

/// A value alone on its cache line.
#[derive(Debug, Default)]
#[repr(align(64))]
struct CachePadded<T>(T);

impl<T> Deref for CachePadded<T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.0
    }
}

struct RingCell<T> {
    seq: AtomicUsize,
    val: UnsafeCell<MaybeUninit<T>>,
}

// SAFETY: cells are handed off with acquire/release on `seq`; the value
// slot is only touched by the producer that won the CAS or the single
// consumer observing the released sequence.
unsafe impl<T: Send> Sync for MpscRing<T> {}
unsafe impl<T: Send> Send for MpscRing<T> {}

impl<T> MpscRing<T> {
    fn new(capacity: usize) -> Self {
        let cap = capacity.next_power_of_two().max(2);
        MpscRing {
            cells: (0..cap)
                .map(|i| RingCell {
                    seq: AtomicUsize::new(i),
                    val: UnsafeCell::new(MaybeUninit::uninit()),
                })
                .collect(),
            mask: cap - 1,
            enqueue: CachePadded(AtomicUsize::new(0)),
            dequeue: CachePadded(AtomicUsize::new(0)),
        }
    }

    /// Multi-producer push; hands `val` back if the ring is full.
    ///
    /// Takes the ring by raw pointer, so no reference to it outlives
    /// the store that publishes `val`: once published, `val` may be
    /// popped and dropped at once, and with it the last reference
    /// keeping the ring alive (a pooled shell's `Arc`).
    ///
    /// # Safety
    /// `ring` must point to a live ring, and stay live until this call
    /// publishes `val` or returns.
    unsafe fn push(ring: *const Self, val: T) -> Result<(), T> {
        // SAFETY: live until `val` is published, per the contract; the
        // references below are last used before the publishing store.
        let (cells, mask, enqueue) = unsafe { (&(*ring).cells, (*ring).mask, &(*ring).enqueue) };
        let mut pos = enqueue.load(Ordering::Relaxed);
        loop {
            let cell = &cells[pos & mask];
            let seq = cell.seq.load(Ordering::Acquire);
            let dif = seq as isize - pos as isize;
            if dif == 0 {
                match enqueue.compare_exchange_weak(
                    pos,
                    pos + 1,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        // SAFETY: winning the CAS grants exclusive
                        // write access to this cell until `seq` is
                        // released below.
                        unsafe { (*cell.val.get()).write(val) };
                        cell.seq.store(pos + 1, Ordering::Release);
                        return Ok(());
                    }
                    Err(p) => pos = p,
                }
            } else if dif < 0 {
                return Err(val);
            } else {
                pos = enqueue.load(Ordering::Relaxed);
            }
        }
    }

    /// Single-consumer pop.
    ///
    /// # Safety
    /// Must only be called from one thread at a time (the pool owner).
    unsafe fn pop(&self) -> Option<T> {
        let pos = self.dequeue.load(Ordering::Relaxed);
        let cell = &self.cells[pos & self.mask];
        let seq = cell.seq.load(Ordering::Acquire);
        if (seq as isize) - ((pos + 1) as isize) < 0 {
            return None;
        }
        // SAFETY: the released `seq` proves the producer finished
        // writing; single-consumer contract gives exclusive read.
        let val = unsafe { (*cell.val.get()).assume_init_read() };
        cell.seq.store(pos + self.mask + 1, Ordering::Release);
        self.dequeue.store(pos + 1, Ordering::Relaxed);
        Some(val)
    }
}

impl<T> Drop for MpscRing<T> {
    fn drop(&mut self) {
        // SAFETY: `&mut self` proves no other consumer exists.
        while unsafe { self.pop() }.is_some() {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lease_and_self_return_round_trip() {
        let mut pool = SlabPool::new(SlabConfig {
            mtu_slots: 4,
            jumbo_slots: 1,
        });
        let c = pool.counters();
        {
            let seg = pool.acquire(1500);
            assert!(seg.is_pooled());
            assert_eq!(seg.len(), MTU_SLOT);
            assert_eq!(pool.free_slots().0, 3);
        } // dropped → return ring
        pool.drain_returns();
        assert_eq!(pool.free_slots().0, 4);
        let s = c.snapshot();
        assert_eq!(s.leases, 1);
        assert_eq!(s.returns, 1);
        assert_eq!(s.recycles, 1);
        assert_eq!(s.fallbacks, 0);
    }

    #[test]
    fn exhaustion_falls_back_to_heap_and_counts() {
        let mut pool = SlabPool::new(SlabConfig {
            mtu_slots: 2,
            jumbo_slots: 0,
        });
        let a = pool.acquire(100);
        let b = pool.acquire(100);
        let c = pool.acquire(100);
        assert!(a.is_pooled() && b.is_pooled());
        assert!(!c.is_pooled());
        assert_eq!(c.len(), 100);
        assert_eq!(pool.counters().snapshot().fallbacks, 1);
        drop((a, b, c));
        pool.drain_returns();
        assert_eq!(pool.free_slots().0, 2);
    }

    #[test]
    fn jumbo_class_and_oversize_fallback() {
        let mut pool = SlabPool::new(SlabConfig {
            mtu_slots: 1,
            jumbo_slots: 1,
        });
        let j = pool.acquire(MTU_SLOT + 1);
        assert!(j.is_pooled());
        assert_eq!(j.len(), JUMBO_SLOT);
        let huge = pool.acquire(JUMBO_SLOT + 1);
        assert!(!huge.is_pooled());
        assert_eq!(pool.counters().snapshot().fallbacks, 1);
    }

    #[test]
    fn shell_recycle_carries_segments_home() {
        let mut pool = SlabPool::new(SlabConfig {
            mtu_slots: 2,
            jumbo_slots: 0,
        });
        let mut shell = pool.lease_shell();
        let mut seg = pool.acquire(64);
        seg.truncate(64);
        shell.segs.push(seg);
        shell.inner = Some(10..20);
        assert!(recycle(shell));
        pool.drain_returns();
        assert_eq!(pool.free_slots().0, 2);
        let shell2 = pool.lease_shell();
        assert!(shell2.segs.is_empty());
        assert!(shell2.inner.is_none());
        let s = pool.counters().snapshot();
        assert!(s.returns >= 2, "shell push + seg push, got {}", s.returns);
    }

    #[test]
    fn detached_shell_recycle_is_a_no_op() {
        let buf = WireBuf::single(vec![1, 2, 3]);
        assert!(!recycle(buf));
    }

    #[test]
    fn slots_recycle_across_threads() {
        let mut pool = SlabPool::new(SlabConfig {
            mtu_slots: 8,
            jumbo_slots: 0,
        });
        let segs: Vec<SlabSeg> = (0..8).map(|_| pool.acquire(256)).collect();
        assert_eq!(pool.free_slots().0, 0);
        let handles: Vec<_> = segs
            .into_iter()
            .map(|seg| std::thread::spawn(move || drop(seg)))
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        pool.drain_returns();
        assert_eq!(pool.free_slots().0, 8);
        assert_eq!(pool.counters().snapshot().recycles, 8);
        // Leases after cross-thread recycling hand out real slots.
        assert!(pool.acquire(256).is_pooled());
    }

    #[test]
    fn clone_detaches() {
        let mut pool = SlabPool::new(SlabConfig {
            mtu_slots: 1,
            jumbo_slots: 0,
        });
        let seg = pool.acquire(10);
        let copy = seg.clone();
        assert!(!copy.is_pooled());
        assert_eq!(&*copy, &*seg);
        drop(seg);
        pool.drain_returns();
        assert_eq!(pool.free_slots().0, 1);
        drop(copy); // plain heap drop, nothing returns twice
        pool.drain_returns();
        assert_eq!(pool.free_slots().0, 1);
    }

    #[test]
    fn mpsc_ring_full_push_fails() {
        let ring: MpscRing<u32> = MpscRing::new(2);
        // SAFETY: the ring outlives every push.
        let push = |v| unsafe { MpscRing::push(&ring, v) };
        assert_eq!(push(1), Ok(()));
        assert_eq!(push(2), Ok(()));
        assert_eq!(push(3), Err(3), "a full ring hands the value back");
        assert_eq!(unsafe { ring.pop() }, Some(1));
        assert_eq!(push(4), Ok(()));
        assert_eq!(unsafe { ring.pop() }, Some(2));
        assert_eq!(unsafe { ring.pop() }, Some(4));
        assert_eq!(unsafe { ring.pop() }, None);
    }

    #[test]
    fn mpsc_ring_concurrent_producers_lose_nothing() {
        let ring: Arc<MpscRing<u64>> = Arc::new(MpscRing::new(1024));
        let producers: Vec<_> = (0..4u64)
            .map(|p| {
                let r = ring.clone();
                std::thread::spawn(move || {
                    for i in 0..200u64 {
                        // SAFETY: `r` keeps the ring alive.
                        while unsafe { MpscRing::push(&*r, p * 1000 + i) }.is_err() {
                            std::thread::yield_now();
                        }
                    }
                })
            })
            .collect();
        let mut got = Vec::new();
        while got.len() < 800 {
            // SAFETY: single consumer thread.
            if let Some(v) = unsafe { ring.pop() } {
                got.push(v);
            } else {
                std::thread::yield_now();
            }
        }
        for h in producers {
            h.join().unwrap();
        }
        got.sort_unstable();
        got.dedup();
        assert_eq!(got.len(), 800);
    }
}
