//! Per-worker flow-verdict cache: the ONCache answer to the overlay
//! tax.
//!
//! The slow path pays outer parse + checksum, VXLAN decap, two FDB
//! lookups, and a flow dissection on *every* packet, even though the
//! verdict — where the inner frame lives, which bridge port it egresses
//! — is stable for a flow between FDB changes. This module caches that
//! verdict in a bounded flat table so the hot path can skip the modeled
//! kernel-stack stages, with three properties the differential oracle
//! depends on:
//!
//! * **Byte-honest keying.** The key ([`flow_cache_key`]) is a
//!   four-lane mixing hash ([`falcon_packet::mix64`]) over the
//!   packet's header prefix — outer Ethernet/IPv4/UDP/VXLAN
//!   envelope plus the inner Ethernet/IPv4/L4 headers — with the fields
//!   that legitimately vary per packet *within* a flow (inner L4
//!   checksum, TCP sequence number) masked out, and the frame length
//!   folded in. Any bit flip in a byte the slow path would have
//!   verified changes the key, so corruption always misses and takes
//!   the full verifying path; flips in the masked bytes or the payload
//!   are exactly the ones the always-run delivery stage (inner L4
//!   checksum + digest) catches, at the same stage as the uncached leg.
//! * **Fill only on full proof.** A verdict is inserted only after the
//!   complete slow chain ([`full_verdict`]) passes — outer checks,
//!   decap bounds, VNI membership, both FDB lookups, flow dissection.
//!   Failures are never cached, so a bad frame re-fails at the exact
//!   stage whose check it breaks.
//! * **Epoch invalidation.** Every entry records the FDB epoch it was
//!   proven under. A lookup against a newer epoch reports
//!   [`Lookup::Stale`] and drops the entry, forcing re-verification —
//!   a stale verdict can never deliver through a dead FDB entry.
//!
//! Eviction is CLOCK-style second chance over a short probe window of
//! the flat slot array, with one guarantee the proptests pin down: the
//! victim is never the entry inserted immediately before.

use std::ops::Range;

use falcon_packet::encap::{decap_bounds, verify_l4_checksum};
use falcon_packet::{
    EtherType, EthernetHdr, MacAddr, ETHERNET_HDR_LEN, IPV4_HDR_LEN, TCP_HDR_LEN, UDP_HDR_LEN,
    VXLAN_HDR_LEN,
};

use crate::Fdb;

/// Offset of the inner Ethernet header in an encapsulated frame.
const INNER_ETH: usize = ETHERNET_HDR_LEN + IPV4_HDR_LEN + UDP_HDR_LEN + VXLAN_HDR_LEN;
/// Offset of the inner IPv4 header.
const INNER_IP: usize = INNER_ETH + ETHERNET_HDR_LEN;
/// Offset of the inner IPv4 protocol byte.
const INNER_IP_PROTO: usize = INNER_IP + 9;
/// Offset of the inner L4 header.
const INNER_L4: usize = INNER_IP + IPV4_HDR_LEN;

/// Seed of the flow-cache key hash; distinct from the delivery digest
/// seed so key and digest streams never alias.
const KEY_SEED: u64 = 0x5ca8_f10c_ac4e_4b1d;

/// Largest hashed prefix: outer envelope + inner Ethernet/IPv4/TCP,
/// plus the 8 folded-in length bytes.
const KEY_BUF: usize = INNER_L4 + TCP_HDR_LEN + 8;

/// Hashes an encapsulated single-segment frame down to its flow-cache
/// key, or `None` if the frame is too short or carries an inner
/// protocol the cache does not understand (those take the slow path).
///
/// The hash covers every header byte the slow path verifies — outer
/// envelope through the inner L4 header — except the fields that vary
/// per packet within a flow and are re-checked on the hit path anyway
/// by the delivery stage's inner-checksum verify: the inner UDP
/// checksum, or the inner TCP sequence number and checksum. The frame
/// length is folded in so truncation or extension changes the key.
pub fn flow_cache_key(frame: &[u8]) -> Option<u64> {
    if frame.len() <= INNER_IP_PROTO {
        return None;
    }
    // (hashed prefix end, masked ranges) per inner L4 protocol.
    let (hdr_end, masks): (usize, [Range<usize>; 2]) = match frame[INNER_IP_PROTO] {
        17 => (INNER_L4 + UDP_HDR_LEN, [INNER_L4 + 6..INNER_L4 + 8, 0..0]),
        6 => (
            INNER_L4 + TCP_HDR_LEN,
            [INNER_L4 + 4..INNER_L4 + 8, INNER_L4 + 16..INNER_L4 + 18],
        ),
        _ => return None,
    };
    if frame.len() < hdr_end {
        return None;
    }
    // Stage the prefix on the stack — masked fields zeroed, frame
    // length appended — then run the four-lane mixer over it in one
    // pass. One memcpy plus a word-at-a-time hash replaces the old
    // byte-at-a-time masked FNV loop.
    let mut staged = [0u8; KEY_BUF];
    staged[..hdr_end].copy_from_slice(&frame[..hdr_end]);
    for m in &masks {
        staged[m.clone()].fill(0);
    }
    staged[hdr_end..hdr_end + 8].copy_from_slice(&(frame.len() as u64).to_le_bytes());
    Some(falcon_packet::mix64(KEY_SEED, &staged[..hdr_end + 8]))
}

/// The cached slow-path result for one flow's frames.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Verdict {
    /// Start of the inner frame within the outer (decap offset).
    pub inner_start: u32,
    /// End of the inner frame within the outer.
    pub inner_end: u32,
    /// Egress bridge port from the FDB lookup on the inner dst MAC.
    pub bridge_port: u16,
    /// FDB epoch this verdict was proven under.
    pub fdb_epoch: u64,
}

/// Runs the complete verifying slow chain on one encapsulated frame
/// and returns the verdict to cache, or `None` if any check fails
/// (failures are never cached — the per-stage slow path reports them).
///
/// This is the byte work of pNIC verify + VXLAN decap + bridge lookup
/// in one pass: outer parse, host-MAC filter, outer IPv4/UDP checksum,
/// decap bounds, VNI membership, both inner-MAC FDB lookups, and flow
/// dissection. The delivery stage's inner L4 checksum is deliberately
/// *not* part of the verdict: it covers per-packet payload and always
/// runs, hit or miss.
pub fn full_verdict(
    frame: &[u8],
    host_mac: MacAddr,
    want_vni: u32,
    fdb: &Fdb,
    fdb_epoch: u64,
) -> Option<Verdict> {
    let eth = EthernetHdr::parse(frame).ok()?;
    if eth.dst != host_mac || eth.ethertype != EtherType::Ipv4 {
        return None;
    }
    verify_l4_checksum(frame).ok()?;
    let b = decap_bounds(frame).ok()?;
    if b.vni != want_vni {
        return None;
    }
    let inner = &frame[b.inner.clone()];
    let ieth = EthernetHdr::parse(inner).ok()?;
    fdb.lookup(ieth.src)?;
    let port = fdb.lookup(ieth.dst)?;
    falcon_packet::encap::dissect_flow(inner).ok()?;
    Some(Verdict {
        inner_start: b.inner.start as u32,
        inner_end: b.inner.end as u32,
        bridge_port: port,
        fdb_epoch,
    })
}

/// Monotonic counters of one cache's lifetime, exported per worker
/// through the telemetry shards.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that returned a same-epoch verdict.
    pub hits: u64,
    /// Lookups that found nothing (stale finds count here too: the
    /// caller takes the same slow path either way, so the hit rate is
    /// `hits / (hits + misses)`).
    pub misses: u64,
    /// Occupied entries replaced to make room for a new flow.
    pub evictions: u64,
    /// Entries dropped because their epoch predated the lookup's —
    /// the lazy half of FDB-change invalidation.
    pub invalidations: u64,
}

#[derive(Debug, Clone)]
struct Slot {
    key: u64,
    refbit: bool,
    verdict: Verdict,
}

/// The result of one cache consult.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lookup {
    /// Same-epoch verdict found; use it.
    Fresh(Verdict),
    /// An entry existed but its epoch predates the current one. The
    /// entry has been dropped; re-verify on the slow path and insert
    /// the fresh verdict.
    Stale,
    /// No entry. Take the slow path; insert on success.
    Miss,
}

/// A bounded flat flow-verdict cache: power-of-two slot array, short
/// linear probe window, CLOCK second-chance eviction within the
/// window. Single-owner (one per worker), no interior locking.
#[derive(Debug)]
pub struct FlowCache {
    slots: Vec<Option<Slot>>,
    mask: usize,
    window: usize,
    /// Slot of the most recent insert — never the eviction victim.
    last_insert: usize,
    len: usize,
    /// Lifetime counters; read by the executor's telemetry publish.
    pub stats: CacheStats,
}

impl FlowCache {
    /// A cache with at least `entries` slots (rounded up to a power of
    /// two, minimum 8).
    pub fn new(entries: usize) -> FlowCache {
        let cap = entries.next_power_of_two().max(8);
        FlowCache {
            slots: vec![None; cap],
            mask: cap - 1,
            window: 8.min(cap),
            last_insert: usize::MAX,
            len: 0,
            stats: CacheStats::default(),
        }
    }

    /// Total slot count.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Occupied slot count. Never exceeds [`FlowCache::capacity`].
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn home(&self, key: u64) -> usize {
        ((key ^ (key >> 32) ^ (key >> 17)) as usize) & self.mask
    }

    /// Consults the cache for `key` against the current FDB `epoch`.
    /// A fresh hit marks the entry recently-used; a stale find is
    /// eagerly dropped so the refilled verdict lands in its slot.
    pub fn lookup(&mut self, key: u64, epoch: u64) -> Lookup {
        let home = self.home(key);
        for i in 0..self.window {
            let idx = (home + i) & self.mask;
            if let Some(slot) = &mut self.slots[idx] {
                if slot.key == key {
                    if slot.verdict.fdb_epoch == epoch {
                        slot.refbit = true;
                        self.stats.hits += 1;
                        return Lookup::Fresh(slot.verdict);
                    }
                    self.slots[idx] = None;
                    self.len -= 1;
                    if self.last_insert == idx {
                        self.last_insert = usize::MAX;
                    }
                    self.stats.invalidations += 1;
                    self.stats.misses += 1;
                    return Lookup::Stale;
                }
            }
        }
        self.stats.misses += 1;
        Lookup::Miss
    }

    /// Inserts (or refreshes) `key`'s verdict. If the probe window is
    /// full, a CLOCK pass over it clears reference bits and evicts the
    /// first unreferenced entry — skipping the slot of the immediately
    /// preceding insert, so a new flow can never evict the entry that
    /// was just proven.
    pub fn insert(&mut self, key: u64, verdict: Verdict) {
        let home = self.home(key);
        // Refresh in place, or take the first free slot in the window.
        let mut free: Option<usize> = None;
        for i in 0..self.window {
            let idx = (home + i) & self.mask;
            match &mut self.slots[idx] {
                Some(slot) if slot.key == key => {
                    slot.verdict = verdict;
                    slot.refbit = true;
                    self.last_insert = idx;
                    return;
                }
                Some(_) => {}
                None => {
                    if free.is_none() {
                        free = Some(idx);
                    }
                }
            }
        }
        if let Some(idx) = free {
            // New entries start unreferenced (one-hit wonders evict
            // first); the `last_insert` skip is what protects a brand
            // new entry from the very next insert's CLOCK pass.
            self.slots[idx] = Some(Slot {
                key,
                refbit: false,
                verdict,
            });
            self.len += 1;
            self.last_insert = idx;
            return;
        }
        // Window full: second-chance scan. Two passes suffice — the
        // first clears every reference bit it crosses, so the second
        // finds a victim even if all entries started referenced.
        for round in 0..2 {
            for i in 0..self.window {
                let idx = (home + i) & self.mask;
                if idx == self.last_insert {
                    continue;
                }
                let slot = self.slots[idx].as_mut().expect("window was full");
                if slot.refbit && round == 0 {
                    slot.refbit = false;
                    continue;
                }
                self.stats.evictions += 1;
                self.slots[idx] = Some(Slot {
                    key,
                    refbit: false,
                    verdict,
                });
                self.last_insert = idx;
                return;
            }
        }
        unreachable!("second CLOCK pass always finds an unreferenced victim");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FrameFactory;

    fn verdict(epoch: u64) -> Verdict {
        Verdict {
            inner_start: 50,
            inner_end: 150,
            bridge_port: 3,
            fdb_epoch: epoch,
        }
    }

    #[test]
    fn key_is_stable_within_a_flow_and_distinct_across_flows() {
        let f = FrameFactory::default();
        let k0a = flow_cache_key(&f.udp_wire(0, 0, 256)[0]).unwrap();
        let k0b = flow_cache_key(&f.udp_wire(0, 99, 256)[0]).unwrap();
        let k1 = flow_cache_key(&f.udp_wire(1, 0, 256)[0]).unwrap();
        assert_eq!(k0a, k0b, "seq must not change the key");
        assert_ne!(k0a, k1, "flows must not share a key");
    }

    #[test]
    fn key_is_stable_across_tcp_seq_numbers() {
        let f = FrameFactory::default();
        // Single-segment TCP messages: seq and checksum vary, key must not.
        let a = flow_cache_key(&f.tcp_wire(2, 0, 512, 1448)[0]).unwrap();
        let b = flow_cache_key(&f.tcp_wire(2, 7, 512, 1448)[0]).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn key_changes_on_any_verified_header_byte() {
        let f = FrameFactory::default();
        let frame = f.udp_wire(0, 0, 256).remove(0);
        let base = flow_cache_key(&frame).unwrap();
        // Every hashed byte: outer envelope through the inner UDP
        // header, minus the masked inner-checksum bytes.
        for i in 0..INNER_L4 + UDP_HDR_LEN {
            if (INNER_L4 + 6..INNER_L4 + 8).contains(&i) {
                continue;
            }
            let mut m = frame.clone();
            m[i] ^= 0x10;
            // A flip must change the key — or make the frame
            // uncacheable outright (e.g. the inner IP proto byte),
            // which also forces the verifying slow path.
            assert_ne!(
                flow_cache_key(&m),
                Some(base),
                "flip at byte {i} must not keep the key"
            );
        }
    }

    #[test]
    fn key_masks_exactly_the_delivery_checked_fields() {
        let f = FrameFactory::default();
        let frame = f.udp_wire(0, 0, 256).remove(0);
        let base = flow_cache_key(&frame).unwrap();
        for i in INNER_L4 + 6..INNER_L4 + 8 {
            let mut m = frame.clone();
            m[i] ^= 0x10;
            assert_eq!(
                flow_cache_key(&m).unwrap(),
                base,
                "inner UDP checksum byte {i} is masked"
            );
        }
        // Payload flips keep the key too — the delivery stage's inner
        // checksum is what catches them, cached or not.
        let mut m = frame.clone();
        let last = m.len() - 1;
        m[last] ^= 0x10;
        assert_eq!(flow_cache_key(&m).unwrap(), base);
    }

    #[test]
    fn key_folds_in_frame_length() {
        let f = FrameFactory::default();
        let frame = f.udp_wire(0, 0, 256).remove(0);
        let base = flow_cache_key(&frame).unwrap();
        let mut longer = frame.clone();
        longer.push(0);
        assert_ne!(flow_cache_key(&longer).unwrap(), base);
    }

    #[test]
    fn runt_and_unknown_proto_are_uncacheable() {
        assert_eq!(flow_cache_key(&[0u8; 20]), None);
        let f = FrameFactory::default();
        let mut frame = f.udp_wire(0, 0, 64).remove(0);
        frame[INNER_IP_PROTO] = 47; // GRE: not a protocol we cache
        assert_eq!(flow_cache_key(&frame), None);
    }

    #[test]
    fn full_verdict_matches_the_slow_chain() {
        let f = FrameFactory::default();
        let fdb = Fdb::for_flows(&f, 2);
        let frame = f.udp_wire(1, 0, 128).remove(0);
        let v = full_verdict(&frame, FrameFactory::host_mac(), f.vni, &fdb, 7).unwrap();
        let b = decap_bounds(&frame).unwrap();
        assert_eq!(v.inner_start as usize, b.inner.start);
        assert_eq!(v.inner_end as usize, b.inner.end);
        // Destination (veth) side of flow 1 lands on port 2*1 + 1.
        assert_eq!(v.bridge_port, 3);
        assert_eq!(v.fdb_epoch, 7);
    }

    #[test]
    fn full_verdict_refuses_every_failing_frame() {
        let f = FrameFactory::default();
        let fdb = Fdb::for_flows(&f, 1);
        let host = FrameFactory::host_mac();
        let good = f.udp_wire(0, 0, 128).remove(0);
        assert!(full_verdict(&good, host, f.vni, &fdb, 0).is_some());
        // Wrong host MAC.
        assert!(full_verdict(&good, MacAddr::from_index(0xBAD), f.vni, &fdb, 0).is_none());
        // Wrong VNI.
        assert!(full_verdict(&good, host, f.vni + 1, &fdb, 0).is_none());
        // Unknown inner MACs (flow 3 not programmed).
        let unknown = f.udp_wire(3, 0, 128).remove(0);
        assert!(full_verdict(&unknown, host, f.vni, &fdb, 0).is_none());
        // Outer IP corruption breaks the header checksum.
        let mut corrupt = good.clone();
        corrupt[ETHERNET_HDR_LEN + 15] ^= 0x01;
        assert!(full_verdict(&corrupt, host, f.vni, &fdb, 0).is_none());
    }

    #[test]
    fn fresh_hit_stale_drop_miss() {
        let mut c = FlowCache::new(16);
        assert_eq!(c.lookup(42, 0), Lookup::Miss);
        c.insert(42, verdict(0));
        assert_eq!(c.lookup(42, 0), Lookup::Fresh(verdict(0)));
        // Epoch moved: the entry is stale, reported once, then gone.
        assert_eq!(c.lookup(42, 1), Lookup::Stale);
        assert_eq!(c.lookup(42, 1), Lookup::Miss);
        assert_eq!(c.stats.hits, 1);
        assert_eq!(c.stats.misses, 3);
        assert_eq!(c.stats.invalidations, 1);
        assert_eq!(c.len(), 0);
    }

    #[test]
    fn refresh_updates_in_place() {
        let mut c = FlowCache::new(16);
        c.insert(7, verdict(0));
        c.insert(7, verdict(1));
        assert_eq!(c.len(), 1);
        assert_eq!(c.lookup(7, 1), Lookup::Fresh(verdict(1)));
    }

    #[test]
    fn eviction_keeps_len_bounded_and_spares_last_insert() {
        let mut c = FlowCache::new(8); // one window covers the whole table
        for key in 0..64u64 {
            c.insert(key, verdict(0));
            assert!(c.len() <= c.capacity());
            assert_eq!(
                c.lookup(key, 0),
                Lookup::Fresh(verdict(0)),
                "the just-inserted key must always be resident"
            );
            if key > 0 {
                // The previous insert may have been evicted later, but
                // never by the insert immediately after it.
                let prev = key - 1;
                assert!(
                    matches!(c.lookup(prev, 0), Lookup::Fresh(_)),
                    "insert of {key} evicted the immediately preceding insert {prev}"
                );
            }
        }
        assert!(c.stats.evictions > 0);
    }

    #[test]
    fn clock_prefers_unreferenced_victims() {
        let mut c = FlowCache::new(8);
        for key in 0..8u64 {
            c.insert(key, verdict(0));
        }
        // Touch everything except key 3, then insert a colliding flow:
        // the victim must be an untouched entry.
        for key in 0..8u64 {
            if key != 3 {
                assert!(matches!(c.lookup(key, 0), Lookup::Fresh(_)));
            }
        }
        c.insert(100, verdict(0));
        assert!(matches!(c.lookup(100, 0), Lookup::Fresh(_)));
        assert_eq!(
            c.lookup(3, 0),
            Lookup::Miss,
            "the one unreferenced entry is the CLOCK victim"
        );
    }
}
