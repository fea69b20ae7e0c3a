//! [`PktDesc`]: the compact packet descriptor the real-thread dataplane
//! moves through its rings.
//!
//! The deterministic simulation carries full frame bytes in an
//! [`SkBuff`](crate::SkBuff) because it re-parses headers at every
//! stage. The multi-threaded executor runs the *modeled* receive path —
//! stage costs, steering, and ordering are what is being exercised — so
//! its queues move a 40-byte descriptor instead of an allocation per
//! packet, the way a real driver passes descriptors while the payload
//! stays put in DMA memory. In wire mode the descriptor additionally
//! owns a [`WireBuf`] of real frame bytes behind one pointer-sized
//! `Option<Box<_>>` field, so the ring slot stays small and modeled-mode
//! runs pay nothing. The wire buffer's segments are
//! [`SlabSeg`]s — pool-leased slots in steady state
//! (see [`slab`](crate::slab)), detached heap buffers otherwise — and
//! the shell itself can be pool-backed so delivery recycles the whole
//! thing with one ring push instead of three frees.

use core::ops::Range;
use std::sync::Arc;

use crate::slab::{PoolShared, SlabSeg};
use crate::PacketId;

/// Owned wire bytes travelling with a descriptor in wire mode.
///
/// One `WireBuf` holds the VXLAN-encapsulated outer frame(s) of one
/// logical packet. A UDP packet is a single segment; a TCP message
/// arrives as several MSS-sized segments which the GRO stage coalesces
/// back into one. After the VXLAN stage decapsulates, `inner` records
/// where the inner Ethernet frame sits inside `segs[0]` — offsets, not
/// a copy, mirroring how the kernel advances `skb->data`.
#[derive(Debug, Default)]
pub struct WireBuf {
    /// Outer (encapsulated) frames, oldest first. GRO replaces multiple
    /// segments with a single coalesced frame.
    pub segs: Vec<SlabSeg>,
    /// Byte range of the decapsulated inner frame within `segs[0]`,
    /// set by the VXLAN device stage.
    pub inner: Option<Range<usize>>,
    /// Segments GRO consumed ([`WireBuf::set_single`]). They ride along
    /// to delivery, so the shell's one recycle push returns them too,
    /// and the pool owner releases them; the GRO worker frees nothing.
    spent: Vec<SlabSeg>,
    /// The pool this shell recycles to, if it was pool-leased.
    pub(crate) shell: Option<Arc<PoolShared>>,
}

impl Clone for WireBuf {
    /// Clones detach: copied segments are plain heap buffers and the
    /// copy's shell is not pool-backed.
    fn clone(&self) -> Self {
        WireBuf {
            segs: self.segs.clone(),
            inner: self.inner.clone(),
            spent: Vec::new(),
            shell: None,
        }
    }
}

impl PartialEq for WireBuf {
    /// Equality is over contents (segments + inner range); whether
    /// either side is pool-backed, and what GRO consumed, is invisible,
    /// so differential oracles can compare slab and heap runs directly.
    fn eq(&self, other: &Self) -> bool {
        self.segs == other.segs && self.inner == other.inner
    }
}
impl Eq for WireBuf {}

impl WireBuf {
    /// Wraps a single outer frame.
    pub fn single(frame: Vec<u8>) -> Box<WireBuf> {
        Box::new(WireBuf {
            segs: vec![SlabSeg::from(frame)],
            inner: None,
            spent: Vec::new(),
            shell: None,
        })
    }

    /// Wraps a multi-segment (pre-GRO) packet.
    pub fn segments(segs: Vec<Vec<u8>>) -> Box<WireBuf> {
        Box::new(WireBuf {
            segs: segs.into_iter().map(SlabSeg::from).collect(),
            inner: None,
            spent: Vec::new(),
            shell: None,
        })
    }

    /// Wraps already-leased segments (the zero-copy ingest and slab
    /// frame-factory paths).
    pub fn leased(segs: Vec<SlabSeg>) -> Box<WireBuf> {
        Box::new(WireBuf {
            segs,
            inner: None,
            spent: Vec::new(),
            shell: None,
        })
    }

    /// A fresh pool-backed shell (used by [`crate::slab::SlabPool`]).
    /// The spent list starts empty and unallocated: minting a pool
    /// allocates no more than it did before the list existed, and the
    /// list's capacity, once grown, is kept across recycles.
    pub(crate) fn new_pooled(shell: Arc<PoolShared>) -> WireBuf {
        WireBuf {
            segs: Vec::with_capacity(4),
            inner: None,
            spent: Vec::new(),
            shell: Some(shell),
        }
    }

    /// Empties the shell for its next lease (on the pool owner's
    /// thread): the segments and the spent list drop here, each pooled
    /// slot returning through its own `Drop`. Capacities are kept.
    pub(crate) fn clear(&mut self) {
        self.inner = None;
        self.segs.clear();
        self.spent.clear();
    }

    /// Frames one received datagram as a single-segment buffer.
    ///
    /// This is the copying fallback the ingestion path used before the
    /// slab pool: it moves the bytes out of a recycled socket buffer
    /// into a fresh heap segment. The zero-copy path instead leases a
    /// slot, lands the datagram in it directly, and wraps it with
    /// [`WireBuf::leased`] — indistinguishable downstream.
    pub fn from_datagram(bytes: &[u8]) -> Box<WireBuf> {
        WireBuf::single(bytes.to_vec())
    }

    /// Replaces all segments with one owned frame (the GRO coalesce
    /// path). The replaced segments move to the spent list instead of
    /// dropping here: a pooled slot's drop is a cross-thread return (an
    /// `Arc` decrement, a counter and a ring CAS on lines the pool owner
    /// also writes), and riding home with the shell makes it one push
    /// for all of them. Both lists keep their capacity, so a warm shell
    /// allocates nothing here.
    pub fn set_single(&mut self, frame: Vec<u8>) {
        self.spent.append(&mut self.segs);
        self.segs.push(SlabSeg::from(frame));
    }

    /// Total bytes currently held — the on-wire size of the packet.
    pub fn wire_bytes(&self) -> u64 {
        self.segs.iter().map(|s| s.len() as u64).sum()
    }

    /// The decapsulated inner frame, if the VXLAN stage has run.
    pub fn inner_frame(&self) -> Option<&[u8]> {
        let r = self.inner.clone()?;
        self.segs.first()?.get(r)
    }
}

/// Immutable identity of one packet travelling the threaded dataplane.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PktDesc {
    /// Unique id of this packet within one run.
    pub id: PacketId,
    /// Simulation-level flow identifier.
    pub flow: u64,
    /// Per-flow sequence number assigned at injection; the ordering
    /// invariant asserts it is strictly increasing per (flow, device).
    pub seq: u64,
    /// `skb->hash`: the flow hash both RSS and Falcon steer by.
    pub rx_hash: u32,
    /// UDP payload bytes this packet represents (drives the
    /// byte-dependent components of the stage cost model).
    pub payload_len: u32,
    /// Real frame bytes, present only in wire mode. `None` keeps the
    /// modeled-mode descriptor a plain few-word value.
    pub wire: Option<Box<WireBuf>>,
}

impl PktDesc {
    /// Builds a descriptor with no wire bytes (modeled mode).
    pub fn new(id: u64, flow: u64, seq: u64, rx_hash: u32, payload_len: u32) -> Self {
        PktDesc {
            id: PacketId(id),
            flow,
            seq,
            rx_hash,
            payload_len,
            wire: None,
        }
    }

    /// Attaches owned wire bytes to the descriptor.
    pub fn with_wire(mut self, wire: Box<WireBuf>) -> Self {
        self.wire = Some(wire);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn descriptor_is_small() {
        // The whole point: a ring slot is a few words, not an skb. The
        // optional wire buffer hides behind one niche-optimized pointer.
        assert!(std::mem::size_of::<PktDesc>() <= 40);
        let d = PktDesc::new(7, 3, 11, 0xDEAD_BEEF, 64);
        let d2 = d.clone();
        assert_eq!(d, d2);
        assert_eq!(d.id, PacketId(7));
        assert_eq!(d.payload_len, 64);
        assert!(d.wire.is_none());
    }

    #[test]
    fn wire_buf_accessors() {
        let seg0 = vec![0u8; 100];
        let seg1 = vec![1u8; 60];
        let mut buf = *WireBuf::segments(vec![seg0, seg1]);
        assert_eq!(buf.wire_bytes(), 160);
        assert_eq!(buf.inner_frame(), None);
        buf.inner = Some(50..100);
        assert_eq!(buf.inner_frame().unwrap().len(), 50);
        // Out-of-range bounds are reported as absent, not a panic.
        buf.inner = Some(50..101);
        assert_eq!(buf.inner_frame(), None);

        let d = PktDesc::new(1, 2, 3, 4, 5).with_wire(WireBuf::single(vec![9u8; 10]));
        assert_eq!(d.wire.as_ref().unwrap().wire_bytes(), 10);
    }

    #[test]
    fn from_datagram_matches_single_segment_path() {
        let bytes: Vec<u8> = (0..200u16).map(|b| b as u8).collect();
        let a = WireBuf::from_datagram(&bytes);
        let b = WireBuf::segments(vec![bytes.clone()]);
        assert_eq!(a, b);
        assert_eq!(a.wire_bytes(), 200);
        assert_eq!(a.segs.len(), 1);
        assert_eq!(a.inner, None);
    }

    #[test]
    fn set_single_reuses_the_segment_list() {
        let mut buf = *WireBuf::segments(vec![vec![1u8; 10], vec![2u8; 10]]);
        let cap = buf.segs.capacity();
        buf.set_single(vec![3u8; 30]);
        assert_eq!(buf.segs.len(), 1);
        assert_eq!(buf.wire_bytes(), 30);
        assert!(buf.segs.capacity() >= 1 && buf.segs.capacity() <= cap.max(2));
    }

    #[test]
    fn pooled_and_heap_bufs_compare_equal_by_contents() {
        use crate::slab::{SlabConfig, SlabPool};
        let mut pool = SlabPool::new(SlabConfig {
            mtu_slots: 2,
            jumbo_slots: 0,
        });
        let payload: Vec<u8> = (0..100u8).collect();
        let mut seg = pool.acquire(payload.len());
        seg.vec_mut().clear();
        seg.vec_mut().extend_from_slice(&payload);
        let mut pooled = pool.lease_shell();
        pooled.segs.push(seg);
        let heap = WireBuf::single(payload);
        assert_eq!(pooled, heap);
        assert!(crate::slab::recycle(pooled));
    }
}
