//! falcon-wire: real byte-level packets for the threaded dataplane.
//!
//! The executor's pipeline stages model the paper's receive path as
//! calibrated busy-spin costs. This crate supplies the *bytes*: a
//! [`FrameFactory`] that builds deterministic inner UDP/TCP frames and
//! VXLAN-encapsulates them, the per-stage verification work each
//! pipeline hop performs on those bytes ([`stage`]), the strict bridge
//! [`Fdb`], and a seeded [`Corruptor`] that flips bits at a configured
//! rate so malformed-frame handling can be tested with exact per-stage
//! drop accounting.
//!
//! The split of responsibilities with `falcon-dataplane`: this crate
//! knows frames and nothing about threads, rings, or steering; the
//! executor calls [`stage`] functions inside its stage budget and maps
//! [`stage::WireError`] to `DropReason::Malformed`.

pub mod cache;
pub mod conn;
pub mod corrupt;
pub mod factory;
pub mod fdb;
pub mod stage;

pub use cache::{flow_cache_key, full_verdict, CacheStats, FlowCache, Lookup, Verdict};
pub use conn::{conn_observe, ConnObservation};
pub use corrupt::Corruptor;
pub use factory::{FrameFactory, SlabFrameBuilder};
pub use fdb::{Fdb, SharedFdb};
pub use stage::{bridge_lookup, deliver_verify, gro_coalesce, pnic_verify, vxlan_decap};
pub use stage::{Delivery, WireError};

/// Bytes a pipeline stage just touched when it ran over `buf`: the
/// full on-wire length while the packet is still encapsulated, the
/// decapsulated inner frame after the VXLAN stage has run. Telemetry's
/// per-stage byte counters are fed from this, so the exported
/// byte-per-stage series shrinks at decap exactly like the real
/// receive path's `skb->len` does.
pub fn stage_touched_bytes(buf: &falcon_packet::WireBuf) -> u64 {
    buf.inner_frame()
        .map_or_else(|| buf.wire_bytes(), |f| f.len() as u64)
}

/// Seed of the delivery digest. Matches nothing else in the tree on
/// purpose — it digests application payload, not trace hops.
const DIGEST_SEED: u64 = 0xcbf2_9ce4_8422_2325;

/// The delivery digest: a four-lane mixing hash over the payload (see
/// [`falcon_packet::mix`]). Replaced byte-at-a-time FNV-1a — same
/// role, same collision-test behaviour, one loop iteration per 32
/// bytes over four independent multiply chains. Every producer and consumer of digests (generator
/// oracle, delivery stage, conformance checks) calls this one function,
/// so the value change is invisible to the differential oracles.
pub fn payload_digest(bytes: &[u8]) -> u64 {
    falcon_packet::mix64(DIGEST_SEED, bytes)
}

/// Byte-at-a-time differential reference for [`payload_digest`]:
/// identical output, scalar lane assembly.
pub fn payload_digest_scalar(bytes: &[u8]) -> u64 {
    falcon_packet::mix64_scalar(DIGEST_SEED, bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_bytes_shrink_at_decap() {
        let mut buf = falcon_packet::WireBuf::single(vec![0u8; 120]);
        assert_eq!(stage_touched_bytes(&buf), 120);
        buf.inner = Some(50..120);
        assert_eq!(stage_touched_bytes(&buf), 70);
    }

    #[test]
    fn digest_distinguishes_payloads() {
        assert_eq!(payload_digest(b"abc"), payload_digest(b"abc"));
        assert_ne!(payload_digest(b"abc"), payload_digest(b"abd"));
        assert_ne!(payload_digest(b""), payload_digest(b"\0"));
    }
}
