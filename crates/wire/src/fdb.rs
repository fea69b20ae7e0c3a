//! The bridge's forwarding database.
//!
//! A Linux bridge forwards by destination MAC; on a static overlay the
//! daemon (e.g. flannel/Cilium's agent) programs the FDB instead of
//! flooding unknown unicast. This FDB is strict the same way: both the
//! source and destination MAC of an inner frame must be known, so a
//! corrupted inner Ethernet header — the one region no checksum covers —
//! is still caught at the bridge stage instead of delivering garbage.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{RwLock, RwLockReadGuard};

use falcon_packet::{fold_mul, MacAddr};

use crate::FrameFactory;

/// Multiplier of the key hash (the 64-bit golden-ratio constant).
const MAC_HASH_K: u64 = 0x9E37_79B9_7F4A_7C15;

/// The FDB's key hash: one multiply-and-fold of the 48-bit MAC. The
/// keys are programmed by the control plane, not chosen per packet by a
/// peer, so SipHash's flooding resistance buys nothing here.
#[derive(Debug, Clone, Copy, Default)]
struct MacHasher(u64);

impl Hasher for MacHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, v: u64) {
        self.0 = fold_mul(self.0 ^ v, MAC_HASH_K);
    }
}

/// A MAC as the FDB's hash key: its 48 bits in the low end of a `u64`.
fn mac_key(mac: MacAddr) -> u64 {
    let [a, b, c, d, e, f] = mac.0;
    u64::from_be_bytes([0, 0, a, b, c, d, e, f])
}

/// MAC → bridge port, plus the strict membership check.
#[derive(Debug, Clone, Default)]
pub struct Fdb {
    ports: HashMap<u64, u16, BuildHasherDefault<MacHasher>>,
}

impl Fdb {
    /// An FDB pre-programmed with both endpoint MACs of flows
    /// `0..flows`, as [`FrameFactory::inner_macs`] assigns them. The
    /// source side lands on port `2*flow`, the destination (veth) side
    /// on `2*flow + 1`. Sized up front: the set-up inserts never rehash.
    pub fn for_flows(factory: &FrameFactory, flows: u64) -> Fdb {
        // `inner_macs` wraps at 2^15 flows, so larger runs reprogram
        // the same MACs.
        let distinct = flows.min(0x8000) as usize;
        let mut ports = HashMap::with_capacity_and_hasher(2 * distinct, Default::default());
        for flow in 0..flows {
            let (src, dst) = factory.inner_macs(flow);
            let port = (flow as u16).wrapping_mul(2);
            ports.insert(mac_key(src), port & 0x7FFF);
            ports.insert(mac_key(dst), port.wrapping_add(1) & 0x7FFF);
        }
        Fdb { ports }
    }

    /// Looks up a MAC, returning its bridge port.
    pub fn lookup(&self, mac: MacAddr) -> Option<u16> {
        self.ports.get(&mac_key(mac)).copied()
    }

    /// Programs (or re-points) one MAC → port mapping.
    pub fn set(&mut self, mac: MacAddr, port: u16) {
        self.ports.insert(mac_key(mac), port);
    }

    /// Unprograms one MAC, returning the port it pointed at.
    pub fn remove(&mut self, mac: MacAddr) -> Option<u16> {
        self.ports.remove(&mac_key(mac))
    }

    /// Number of programmed entries.
    pub fn len(&self) -> usize {
        self.ports.len()
    }

    /// Whether the FDB is empty.
    pub fn is_empty(&self) -> bool {
        self.ports.is_empty()
    }
}

/// A mutable FDB shared between the control plane and the workers,
/// with an epoch counter the flow-verdict cache keys its invalidation
/// on.
///
/// Every mutation bumps the epoch *while holding the write lock*, so a
/// reader that takes the read lock and then reads the epoch sees an
/// epoch consistent with the table contents — a cached verdict stamped
/// with that epoch was proven against exactly that table. The
/// lock-free [`SharedFdb::epoch`] read used on cache lookups is
/// RCU-like: a packet racing a control-plane change may observe either
/// the old or the new state (exactly like a frame in flight during a
/// real `bridge fdb replace`), but an epoch observed after a change
/// can never validate a verdict proven before it.
#[derive(Debug, Default)]
pub struct SharedFdb {
    table: RwLock<Fdb>,
    epoch: AtomicU64,
}

impl SharedFdb {
    /// Wraps an initial table at epoch 0.
    pub fn new(fdb: Fdb) -> SharedFdb {
        SharedFdb {
            table: RwLock::new(fdb),
            epoch: AtomicU64::new(0),
        }
    }

    /// The current invalidation epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Read access for the slow path (and for verdict fills, which
    /// must read the epoch under the same guard via
    /// [`SharedFdb::epoch`] to stamp a consistent verdict).
    pub fn read(&self) -> RwLockReadGuard<'_, Fdb> {
        self.table.read().expect("fdb lock never poisoned")
    }

    /// Programs (or re-points) a MAC → port mapping, invalidating all
    /// cached verdicts by bumping the epoch.
    pub fn set(&self, mac: MacAddr, port: u16) {
        let mut g = self.table.write().expect("fdb lock never poisoned");
        g.set(mac, port);
        self.epoch.fetch_add(1, Ordering::Release);
    }

    /// Unprograms a MAC, invalidating all cached verdicts.
    pub fn remove(&self, mac: MacAddr) -> Option<u16> {
        let mut g = self.table.write().expect("fdb lock never poisoned");
        let prev = g.remove(mac);
        self.epoch.fetch_add(1, Ordering::Release);
        prev
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use proptest::prelude::*;

    use super::*;

    /// One scripted FDB operation on MAC index `mac`.
    #[derive(Debug, Clone)]
    enum Op {
        Set(u64, u16),
        Remove(u64),
        Lookup(u64),
    }

    /// Draws an op over a small MAC space, so sets, removes and lookups
    /// keep hitting the same keys.
    fn op_strategy(macs: u64) -> impl Strategy<Value = Op> {
        (0..macs * 3 * 0x8000).prop_map(move |x| {
            let (mac, port) = ((x / 3) % macs, (x / (3 * macs)) as u16);
            match x % 3 {
                0 => Op::Set(mac, port),
                1 => Op::Remove(mac),
                _ => Op::Lookup(mac),
            }
        })
    }

    proptest! {
        /// The hashed FDB agrees with an ordered-map reference on every
        /// lookup, remove and length, under any op sequence.
        #[test]
        fn agrees_with_an_ordered_map_reference(
            ops in prop::collection::vec(op_strategy(40), 1..300),
        ) {
            let f = FrameFactory::default();
            let mut fdb = Fdb::for_flows(&f, 4);
            let mut model: BTreeMap<[u8; 6], u16> = (0..4)
                .flat_map(|flow| {
                    let (src, dst) = f.inner_macs(flow);
                    [(src.0, 2 * flow as u16), (dst.0, 2 * flow as u16 + 1)]
                })
                .collect();
            for op in ops {
                match op {
                    Op::Set(i, port) => {
                        let mac = MacAddr::from_index(0x1_0000 + i);
                        fdb.set(mac, port);
                        model.insert(mac.0, port);
                    }
                    Op::Remove(i) => {
                        let mac = MacAddr::from_index(0x1_0000 + i);
                        prop_assert_eq!(fdb.remove(mac), model.remove(&mac.0));
                    }
                    Op::Lookup(i) => {
                        let mac = MacAddr::from_index(0x1_0000 + i);
                        prop_assert_eq!(fdb.lookup(mac), model.get(&mac.0).copied());
                    }
                }
                prop_assert_eq!(fdb.len(), model.len());
                prop_assert_eq!(fdb.is_empty(), model.is_empty());
            }
            for (mac, port) in &model {
                prop_assert_eq!(fdb.lookup(MacAddr(*mac)), Some(*port));
            }
        }
    }

    #[test]
    fn for_flows_programs_every_mac_at_its_port() {
        let f = FrameFactory::default();
        let flows = 32_768u64;
        let fdb = Fdb::for_flows(&f, flows);
        assert_eq!(fdb.len(), 2 * flows as usize);
        for flow in 0..flows {
            let (src, dst) = f.inner_macs(flow);
            let port = 2 * flow as u16;
            assert_eq!(fdb.lookup(src), Some(port & 0x7FFF), "flow {flow} source");
            assert_eq!(
                fdb.lookup(dst),
                Some((port + 1) & 0x7FFF),
                "flow {flow} veth"
            );
        }
        // Below and above the programmed MAC range, and a broadcast.
        for unknown in [
            MacAddr::from_index(0xFFFF),
            MacAddr::from_index(0x1_0000 + 2 * flows),
            MacAddr::from_index(0xDEAD_BEEF),
            MacAddr::BROADCAST,
        ] {
            assert_eq!(fdb.lookup(unknown), None, "{unknown:?} must miss");
        }
    }

    #[test]
    fn knows_both_ends_of_each_flow() {
        let f = FrameFactory::default();
        let fdb = Fdb::for_flows(&f, 4);
        assert_eq!(fdb.len(), 8);
        for flow in 0..4 {
            let (src, dst) = f.inner_macs(flow);
            assert!(fdb.lookup(src).is_some());
            assert!(fdb.lookup(dst).is_some());
            assert_ne!(fdb.lookup(src), fdb.lookup(dst));
        }
        assert_eq!(fdb.lookup(MacAddr::from_index(0xDEAD)), None);
    }

    #[test]
    fn set_and_remove_mutate_the_table() {
        let mut fdb = Fdb::default();
        let mac = MacAddr::from_index(5);
        assert_eq!(fdb.lookup(mac), None);
        fdb.set(mac, 9);
        assert_eq!(fdb.lookup(mac), Some(9));
        fdb.set(mac, 10);
        assert_eq!(fdb.lookup(mac), Some(10));
        assert_eq!(fdb.remove(mac), Some(10));
        assert_eq!(fdb.lookup(mac), None);
    }

    #[test]
    fn shared_fdb_bumps_epoch_on_every_mutation() {
        let f = FrameFactory::default();
        let shared = SharedFdb::new(Fdb::for_flows(&f, 2));
        assert_eq!(shared.epoch(), 0);
        let (_, dst) = f.inner_macs(0);
        shared.set(dst, 77);
        assert_eq!(shared.epoch(), 1);
        assert_eq!(shared.read().lookup(dst), Some(77));
        assert_eq!(shared.remove(dst), Some(77));
        assert_eq!(shared.epoch(), 2);
        assert_eq!(shared.read().lookup(dst), None);
    }
}
