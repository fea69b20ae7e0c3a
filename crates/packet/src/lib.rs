//! Packet substrate for the Falcon reproduction.
//!
//! Real byte-level framing keeps the simulation honest: the overlay path
//! genuinely encapsulates the container frame inside an outer
//! Ethernet/IPv4/UDP/VXLAN envelope (RFC 7348), the flow dissector
//! really parses the headers it hashes, and decapsulation really strips
//! the 50-byte outer envelope. The modules are:
//!
//! * [`ethernet`], [`ipv4`], [`udp`], [`tcp`], [`vxlan`] — header codecs.
//! * [`checksum`] — the Internet checksum.
//! * [`skbuff`] — the [`SkBuff`] metadata wrapper that
//!   travels through the simulated kernel (device pointer, rx hash,
//!   timestamps, GRO segment count, per-flow sequence numbers).
//! * [`encap`] — VXLAN encapsulation/decapsulation.
//! * [`desc`] — the compact [`PktDesc`] descriptor the real-thread
//!   dataplane (`falcon-dataplane`) moves through its lock-free rings.

pub mod checksum;
pub mod desc;
pub mod encap;
pub mod ethernet;
pub mod ipv4;
pub mod mix;
pub mod skbuff;
pub mod slab;
pub mod tcp;
pub mod udp;
pub mod vxlan;

pub use desc::{PktDesc, WireBuf};
pub use encap::{
    build_tcp_frame, build_udp_frame, decap_bounds, dissect_flow, fill_l4_checksum,
    verify_l4_checksum, vxlan_decapsulate, vxlan_encapsulate, vxlan_encapsulate_into, DecapBounds,
    EncapParams, VXLAN_OVERHEAD,
};
pub use ethernet::{EtherType, EthernetHdr, MacAddr, ETHERNET_HDR_LEN};
pub use ipv4::{IpProto, Ipv4Addr4, Ipv4Hdr, IPV4_HDR_LEN};
pub use mix::{fold_mul, mix64, mix64_scalar};
pub use skbuff::{FragMeta, PacketId, SkBuff, TraceHop};
pub use slab::{RawSlot, SlabConfig, SlabCounters, SlabPool, SlabSample, SlabSeg};
pub use tcp::{TcpFlags, TcpHdr, TCP_HDR_LEN};
pub use udp::{UdpHdr, UDP_HDR_LEN, VXLAN_PORT};
pub use vxlan::{VxlanHdr, VXLAN_HDR_LEN};

/// Errors produced when parsing packet bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The buffer is shorter than the header being parsed.
    Truncated {
        /// Header or layer that failed to parse.
        what: &'static str,
        /// Bytes required.
        need: usize,
        /// Bytes available.
        have: usize,
    },
    /// A header field has an unsupported or corrupt value.
    Malformed {
        /// Header or layer that failed to parse.
        what: &'static str,
        /// Human-readable description of the problem.
        why: &'static str,
    },
    /// A checksum did not verify.
    BadChecksum {
        /// Header whose checksum failed.
        what: &'static str,
    },
}

impl core::fmt::Display for CodecError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            CodecError::Truncated { what, need, have } => {
                write!(f, "truncated {what}: need {need} bytes, have {have}")
            }
            CodecError::Malformed { what, why } => write!(f, "malformed {what}: {why}"),
            CodecError::BadChecksum { what } => write!(f, "bad {what} checksum"),
        }
    }
}

impl std::error::Error for CodecError {}
