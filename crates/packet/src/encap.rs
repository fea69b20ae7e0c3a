//! VXLAN encapsulation and decapsulation, plus inner-frame builders.
//!
//! The overlay data path wraps a container's Ethernet frame in an outer
//! Ethernet + IPv4 + UDP(4789) + VXLAN envelope on transmit, and strips
//! it on receive. [`VXLAN_OVERHEAD`] (50 bytes) is the per-packet byte
//! tax the paper's Figure 2 throughput tests pay on the wire.

use core::ops::Range;

use falcon_khash::FlowKeys;
use serde::{Deserialize, Serialize};

use crate::checksum::{fold, pseudo_header_sum, sum_words};
use crate::ethernet::{EtherType, EthernetHdr, MacAddr, ETHERNET_HDR_LEN};
use crate::ipv4::{IpProto, Ipv4Addr4, Ipv4Hdr, IPV4_HDR_LEN};
use crate::tcp::{TcpFlags, TcpHdr, TCP_HDR_LEN};
use crate::udp::{UdpHdr, UDP_HDR_LEN, VXLAN_PORT};
use crate::vxlan::{VxlanHdr, VXLAN_HDR_LEN};
use crate::CodecError;

/// Bytes added by VXLAN encapsulation: outer Ethernet (14) + outer IPv4
/// (20) + outer UDP (8) + VXLAN (8).
pub const VXLAN_OVERHEAD: usize = ETHERNET_HDR_LEN + IPV4_HDR_LEN + UDP_HDR_LEN + VXLAN_HDR_LEN;

/// Parameters of the outer (host-network) envelope.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct EncapParams {
    /// Source (local host) MAC.
    pub src_mac: MacAddr,
    /// Destination (peer host) MAC.
    pub dst_mac: MacAddr,
    /// Source (local host) IP.
    pub src_ip: Ipv4Addr4,
    /// Destination (peer host) IP.
    pub dst_ip: Ipv4Addr4,
    /// Outer UDP source port. Real VXLAN derives it from the inner flow
    /// hash so that RSS can still spread *different* overlay flows.
    pub src_port: u16,
    /// The VXLAN network identifier.
    pub vni: u32,
}

/// Encapsulates an inner Ethernet frame in a VXLAN envelope.
///
/// # Examples
///
/// ```
/// use falcon_packet::encap::{vxlan_encapsulate, vxlan_decapsulate, EncapParams};
/// use falcon_packet::{Ipv4Addr4, MacAddr, VXLAN_OVERHEAD};
///
/// let inner = vec![0xAA; 100];
/// let params = EncapParams {
///     src_mac: MacAddr::from_index(1),
///     dst_mac: MacAddr::from_index(2),
///     src_ip: Ipv4Addr4::new(192, 168, 0, 1),
///     dst_ip: Ipv4Addr4::new(192, 168, 0, 2),
///     src_port: 49152,
///     vni: 42,
/// };
/// let outer = vxlan_encapsulate(&inner, &params);
/// assert_eq!(outer.len(), inner.len() + VXLAN_OVERHEAD);
/// let (decap, vni) = vxlan_decapsulate(&outer).unwrap();
/// assert_eq!(decap, &inner[..]);
/// assert_eq!(vni, 42);
/// ```
pub fn vxlan_encapsulate(inner_frame: &[u8], params: &EncapParams) -> Vec<u8> {
    let mut out = Vec::with_capacity(inner_frame.len() + VXLAN_OVERHEAD);
    vxlan_encapsulate_into(&mut out, inner_frame, params);
    out
}

/// [`vxlan_encapsulate`] into a caller-owned buffer: clears `out` and
/// writes the envelope plus inner frame, reusing `out`'s capacity. The
/// slab hot path builds frames directly inside pool slots with this —
/// no allocation when the slot's capacity covers the frame.
pub fn vxlan_encapsulate_into(out: &mut Vec<u8>, inner_frame: &[u8], params: &EncapParams) {
    out.clear();
    vxlan_header_into(out, inner_frame.len(), params);
    out.extend_from_slice(inner_frame);
    debug_assert_eq!(out.len(), inner_frame.len() + VXLAN_OVERHEAD);
}

/// Appends the [`VXLAN_OVERHEAD`] bytes of envelope (outer Ethernet,
/// IPv4, UDP and VXLAN headers) for an inner frame of `inner_len`
/// bytes to `out`, without clearing it. The inner frame goes right
/// after; GRO writes it there piece by piece.
pub fn vxlan_header_into(out: &mut Vec<u8>, inner_len: usize, params: &EncapParams) {
    let total = inner_len + VXLAN_OVERHEAD;
    EthernetHdr {
        dst: params.dst_mac,
        src: params.src_mac,
        ethertype: EtherType::Ipv4,
    }
    .push_onto(out);
    Ipv4Hdr {
        total_len: (total - ETHERNET_HDR_LEN) as u16,
        ident: 0,
        ttl: 64,
        proto: IpProto::Udp,
        src: params.src_ip,
        dst: params.dst_ip,
    }
    .push_onto(out);
    UdpHdr {
        src_port: params.src_port,
        dst_port: VXLAN_PORT,
        len: (UDP_HDR_LEN + VXLAN_HDR_LEN + inner_len) as u16,
        checksum: 0,
    }
    .push_onto(out);
    VxlanHdr::new(params.vni).push_onto(out);
}

/// Where the inner frame lives inside a VXLAN-encapsulated buffer.
///
/// Returned by [`decap_bounds`]: the decapsulated frame is described by
/// a byte range into the *original* buffer instead of a borrowed slice,
/// so a receive path that owns the buffer can decap without copying —
/// truncate/shift in place, or just carry the offsets forward the way
/// the kernel advances `skb->data`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecapBounds {
    /// Byte range of the inner Ethernet frame within the outer buffer.
    pub inner: Range<usize>,
    /// The VXLAN network identifier from the envelope.
    pub vni: u32,
    /// Outer UDP source port (real VXLAN derives it from the inner flow
    /// hash; useful for RSS-consistency checks).
    pub src_port: u16,
}

/// Parses a VXLAN envelope and returns the inner frame's byte range and
/// VNI, without borrowing into (or copying out of) the buffer.
///
/// Beyond header parsing, the outer envelope's length fields must agree
/// with the buffer: `ipv4.total_len` and `udp.len` must both reach
/// exactly to the end of `outer_frame` (no trailing slack, no overrun).
///
/// # Examples
///
/// ```
/// use falcon_packet::encap::{decap_bounds, vxlan_encapsulate, EncapParams};
/// use falcon_packet::{Ipv4Addr4, MacAddr, VXLAN_OVERHEAD};
///
/// let inner = vec![0x5A; 64];
/// let params = EncapParams {
///     src_mac: MacAddr::from_index(1),
///     dst_mac: MacAddr::from_index(2),
///     src_ip: Ipv4Addr4::new(192, 168, 0, 1),
///     dst_ip: Ipv4Addr4::new(192, 168, 0, 2),
///     src_port: 49152,
///     vni: 42,
/// };
/// let mut outer = vxlan_encapsulate(&inner, &params);
/// let b = decap_bounds(&outer).unwrap();
/// assert_eq!(b.inner, VXLAN_OVERHEAD..VXLAN_OVERHEAD + inner.len());
/// assert_eq!(b.vni, 42);
/// // Zero-copy strip: drop the envelope prefix in place.
/// outer.drain(..b.inner.start);
/// assert_eq!(outer, inner);
/// ```
pub fn decap_bounds(outer_frame: &[u8]) -> Result<DecapBounds, CodecError> {
    let eth = EthernetHdr::parse(outer_frame)?;
    if eth.ethertype != EtherType::Ipv4 {
        return Err(CodecError::Malformed {
            what: "vxlan-outer",
            why: "not IPv4",
        });
    }
    let ip_off = ETHERNET_HDR_LEN;
    let ip = Ipv4Hdr::parse(&outer_frame[ip_off..])?;
    if ip.proto != IpProto::Udp {
        return Err(CodecError::Malformed {
            what: "vxlan-outer",
            why: "not UDP",
        });
    }
    if ip_off + ip.total_len as usize != outer_frame.len() {
        return Err(CodecError::Malformed {
            what: "vxlan-outer",
            why: "ipv4 total_len does not match frame",
        });
    }
    let udp_off = ip_off + IPV4_HDR_LEN;
    let udp = UdpHdr::parse(&outer_frame[udp_off..])?;
    if udp.dst_port != VXLAN_PORT {
        return Err(CodecError::Malformed {
            what: "vxlan-outer",
            why: "not port 4789",
        });
    }
    if udp_off + udp.len as usize != outer_frame.len() {
        return Err(CodecError::Malformed {
            what: "vxlan-outer",
            why: "udp len does not match frame",
        });
    }
    let vxlan_off = udp_off + UDP_HDR_LEN;
    let vxlan = VxlanHdr::parse(&outer_frame[vxlan_off..])?;
    Ok(DecapBounds {
        inner: vxlan_off + VXLAN_HDR_LEN..outer_frame.len(),
        vni: vxlan.vni,
        src_port: udp.src_port,
    })
}

/// Strips a VXLAN envelope, returning the inner frame bytes and the VNI.
///
/// Fails if the outer headers do not parse as Ethernet/IPv4/UDP-to-4789/
/// VXLAN. This is the borrowed-slice convenience over [`decap_bounds`];
/// hot paths that own the buffer should use the bounds form and strip in
/// place instead of copying the returned slice.
pub fn vxlan_decapsulate(outer_frame: &[u8]) -> Result<(&[u8], u32), CodecError> {
    let b = decap_bounds(outer_frame)?;
    Ok((&outer_frame[b.inner], b.vni))
}

/// Computes and writes the inner L4 (UDP or TCP) checksum of `frame` in
/// place, over the IPv4 pseudo-header plus L4 header and payload.
///
/// The frame's builders ([`build_udp_frame`]/[`build_tcp_frame`]) emit a
/// zero checksum field; call this afterwards to make the frame
/// end-to-end verifiable. For UDP, a computed checksum of `0x0000` is
/// transmitted as `0xFFFF` per RFC 768, because an on-wire zero means
/// "no checksum".
pub fn fill_l4_checksum(frame: &mut [u8]) -> Result<(), CodecError> {
    let (ip, l4_range, csum_off) = l4_layout(frame)?;
    frame[csum_off] = 0;
    frame[csum_off + 1] = 0;
    let acc = pseudo_header_sum(ip.src.0, ip.dst.0, ip.proto.to_u8(), l4_range.len() as u16);
    let mut csum = !fold(sum_words(&frame[l4_range], acc));
    if csum == 0 && ip.proto == IpProto::Udp {
        csum = 0xFFFF;
    }
    frame[csum_off..csum_off + 2].copy_from_slice(&csum.to_be_bytes());
    Ok(())
}

/// Verifies the inner L4 (UDP or TCP) checksum of `frame` against the
/// IPv4 pseudo-header plus L4 bytes.
///
/// A UDP checksum field of zero means "not computed" (RFC 768) and
/// passes. Returns [`CodecError::BadChecksum`] on mismatch.
pub fn verify_l4_checksum(frame: &[u8]) -> Result<(), CodecError> {
    let (ip, l4_range, csum_off) = l4_layout(frame)?;
    let (what, is_udp) = match ip.proto {
        IpProto::Udp => ("udp", true),
        IpProto::Tcp => ("tcp", false),
        IpProto::Other(_) => unreachable!("l4_layout only admits UDP/TCP"),
    };
    if is_udp && frame[csum_off] == 0 && frame[csum_off + 1] == 0 {
        return Ok(()); // RFC 768: zero on the wire = no checksum.
    }
    let acc = pseudo_header_sum(ip.src.0, ip.dst.0, ip.proto.to_u8(), l4_range.len() as u16);
    if fold(sum_words(&frame[l4_range], acc)) != 0xFFFF {
        return Err(CodecError::BadChecksum { what });
    }
    Ok(())
}

/// Parses the Ethernet+IPv4 prefix of `frame` and locates the L4 bytes:
/// returns the IPv4 header, the L4 range (header plus payload, exactly
/// `total_len - 20` bytes), and the absolute offset of the L4 checksum
/// field. Rejects non-IPv4, non-UDP/TCP, and frames shorter than
/// `total_len` claims.
fn l4_layout(frame: &[u8]) -> Result<(Ipv4Hdr, Range<usize>, usize), CodecError> {
    let eth = EthernetHdr::parse(frame)?;
    if eth.ethertype != EtherType::Ipv4 {
        return Err(CodecError::Malformed {
            what: "l4-checksum",
            why: "not IPv4",
        });
    }
    let ip = Ipv4Hdr::parse(&frame[ETHERNET_HDR_LEN..])?;
    let l4_off = ETHERNET_HDR_LEN + IPV4_HDR_LEN;
    let l4_end = ETHERNET_HDR_LEN + ip.total_len as usize;
    if l4_end > frame.len() {
        return Err(CodecError::Truncated {
            what: "l4-checksum",
            need: l4_end,
            have: frame.len(),
        });
    }
    let csum_off = match ip.proto {
        IpProto::Udp => {
            if l4_end - l4_off < UDP_HDR_LEN {
                return Err(CodecError::Truncated {
                    what: "udp",
                    need: UDP_HDR_LEN,
                    have: l4_end - l4_off,
                });
            }
            l4_off + 6
        }
        IpProto::Tcp => {
            if l4_end - l4_off < TCP_HDR_LEN {
                return Err(CodecError::Truncated {
                    what: "tcp",
                    need: TCP_HDR_LEN,
                    have: l4_end - l4_off,
                });
            }
            l4_off + 16
        }
        IpProto::Other(_) => {
            return Err(CodecError::Malformed {
                what: "l4-checksum",
                why: "unsupported L4 protocol",
            })
        }
    };
    Ok((ip, l4_off..l4_end, csum_off))
}

/// Builds a UDP datagram frame: Ethernet + IPv4 + UDP + payload.
pub fn build_udp_frame(
    src_mac: MacAddr,
    dst_mac: MacAddr,
    keys: &FlowKeys,
    payload: &[u8],
) -> Vec<u8> {
    let mut out = Vec::with_capacity(ETHERNET_HDR_LEN + IPV4_HDR_LEN + UDP_HDR_LEN + payload.len());
    build_udp_frame_into(&mut out, src_mac, dst_mac, keys, payload);
    out
}

/// [`build_udp_frame`] into a caller-owned buffer (cleared first,
/// capacity reused — the frame factory's amortized-zero-alloc path).
pub fn build_udp_frame_into(
    out: &mut Vec<u8>,
    src_mac: MacAddr,
    dst_mac: MacAddr,
    keys: &FlowKeys,
    payload: &[u8],
) {
    let total_ip = IPV4_HDR_LEN + UDP_HDR_LEN + payload.len();
    out.clear();
    EthernetHdr {
        dst: dst_mac,
        src: src_mac,
        ethertype: EtherType::Ipv4,
    }
    .push_onto(out);
    Ipv4Hdr {
        total_len: total_ip as u16,
        ident: 0,
        ttl: 64,
        proto: IpProto::Udp,
        src: Ipv4Addr4(keys.src_addr),
        dst: Ipv4Addr4(keys.dst_addr),
    }
    .push_onto(out);
    UdpHdr {
        src_port: keys.src_port,
        dst_port: keys.dst_port,
        len: (UDP_HDR_LEN + payload.len()) as u16,
        checksum: 0,
    }
    .push_onto(out);
    out.extend_from_slice(payload);
}

/// Builds a TCP segment frame: Ethernet + IPv4 + TCP + payload.
#[allow(clippy::too_many_arguments)]
pub fn build_tcp_frame(
    src_mac: MacAddr,
    dst_mac: MacAddr,
    keys: &FlowKeys,
    seq: u32,
    ack: u32,
    flags: TcpFlags,
    window: u16,
    payload: &[u8],
) -> Vec<u8> {
    let mut out = Vec::with_capacity(ETHERNET_HDR_LEN + IPV4_HDR_LEN + TCP_HDR_LEN + payload.len());
    build_tcp_frame_into(
        &mut out, src_mac, dst_mac, keys, seq, ack, flags, window, payload,
    );
    out
}

/// [`build_tcp_frame`] into a caller-owned buffer (cleared first,
/// capacity reused).
#[allow(clippy::too_many_arguments)]
pub fn build_tcp_frame_into(
    out: &mut Vec<u8>,
    src_mac: MacAddr,
    dst_mac: MacAddr,
    keys: &FlowKeys,
    seq: u32,
    ack: u32,
    flags: TcpFlags,
    window: u16,
    payload: &[u8],
) {
    out.clear();
    tcp_header_into(
        out,
        src_mac,
        dst_mac,
        keys,
        seq,
        ack,
        flags,
        window,
        payload.len(),
    );
    out.extend_from_slice(payload);
}

/// Appends the Ethernet, IPv4 and TCP headers of a TCP segment carrying
/// `payload_len` bytes to `out`, without clearing it. The checksum
/// field is zero, as in [`build_tcp_frame`]; the payload goes right
/// after.
#[allow(clippy::too_many_arguments)]
pub fn tcp_header_into(
    out: &mut Vec<u8>,
    src_mac: MacAddr,
    dst_mac: MacAddr,
    keys: &FlowKeys,
    seq: u32,
    ack: u32,
    flags: TcpFlags,
    window: u16,
    payload_len: usize,
) {
    let total_ip = IPV4_HDR_LEN + TCP_HDR_LEN + payload_len;
    EthernetHdr {
        dst: dst_mac,
        src: src_mac,
        ethertype: EtherType::Ipv4,
    }
    .push_onto(out);
    Ipv4Hdr {
        total_len: total_ip as u16,
        ident: 0,
        ttl: 64,
        proto: IpProto::Tcp,
        src: Ipv4Addr4(keys.src_addr),
        dst: Ipv4Addr4(keys.dst_addr),
    }
    .push_onto(out);
    TcpHdr {
        src_port: keys.src_port,
        dst_port: keys.dst_port,
        seq,
        ack,
        flags,
        window,
    }
    .push_onto(out);
}

/// Dissects the flow keys from an (inner or host) frame starting at its
/// Ethernet header — the simulation's flow dissector.
pub fn dissect_flow(frame: &[u8]) -> Result<FlowKeys, CodecError> {
    let eth = EthernetHdr::parse(frame)?;
    if eth.ethertype != EtherType::Ipv4 {
        return Err(CodecError::Malformed {
            what: "dissect",
            why: "not IPv4",
        });
    }
    let ip = Ipv4Hdr::parse(&frame[ETHERNET_HDR_LEN..])?;
    let l4 = &frame[ETHERNET_HDR_LEN + IPV4_HDR_LEN..];
    match ip.proto {
        IpProto::Udp => {
            let udp = UdpHdr::parse(l4)?;
            Ok(FlowKeys {
                src_addr: ip.src.0,
                dst_addr: ip.dst.0,
                src_port: udp.src_port,
                dst_port: udp.dst_port,
                ip_proto: 17,
            })
        }
        IpProto::Tcp => {
            let tcp = TcpHdr::parse(l4)?;
            Ok(FlowKeys {
                src_addr: ip.src.0,
                dst_addr: ip.dst.0,
                src_port: tcp.src_port,
                dst_port: tcp.dst_port,
                ip_proto: 6,
            })
        }
        IpProto::Other(_) => Err(CodecError::Malformed {
            what: "dissect",
            why: "unsupported L4 protocol",
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> EncapParams {
        EncapParams {
            src_mac: MacAddr::from_index(1),
            dst_mac: MacAddr::from_index(2),
            src_ip: Ipv4Addr4::new(192, 168, 0, 1),
            dst_ip: Ipv4Addr4::new(192, 168, 0, 2),
            src_port: 55555,
            vni: 7,
        }
    }

    fn inner_udp() -> Vec<u8> {
        let keys = FlowKeys::udp(
            Ipv4Addr4::new(10, 0, 0, 1).0,
            5001,
            Ipv4Addr4::new(10, 0, 0, 2).0,
            8080,
        );
        build_udp_frame(
            MacAddr::from_index(10),
            MacAddr::from_index(11),
            &keys,
            &[9u8; 32],
        )
    }

    #[test]
    fn encap_decap_round_trip() {
        let inner = inner_udp();
        let outer = vxlan_encapsulate(&inner, &params());
        assert_eq!(outer.len(), inner.len() + VXLAN_OVERHEAD);
        let (decap, vni) = vxlan_decapsulate(&outer).unwrap();
        assert_eq!(decap, &inner[..]);
        assert_eq!(vni, 7);
    }

    #[test]
    fn outer_flow_differs_from_inner_flow() {
        // The whole point of encapsulation: the host network sees the
        // outer (host IP, port-4789) flow, not the container flow.
        let inner = inner_udp();
        let outer = vxlan_encapsulate(&inner, &params());
        let inner_keys = dissect_flow(&inner).unwrap();
        let outer_keys = dissect_flow(&outer).unwrap();
        assert_ne!(inner_keys, outer_keys);
        assert_eq!(outer_keys.dst_port, VXLAN_PORT);
        assert_eq!(outer_keys.src_addr, Ipv4Addr4::new(192, 168, 0, 1).0);
    }

    #[test]
    fn decap_rejects_plain_udp() {
        // A frame whose UDP port is not 4789 is not VXLAN.
        let frame = inner_udp();
        assert!(matches!(
            vxlan_decapsulate(&frame),
            Err(CodecError::Malformed {
                why: "not port 4789",
                ..
            })
        ));
    }

    #[test]
    fn decap_rejects_tcp_outer() {
        let keys = FlowKeys::tcp(1, 2, 3, 4);
        let frame = build_tcp_frame(
            MacAddr::from_index(1),
            MacAddr::from_index(2),
            &keys,
            0,
            0,
            TcpFlags::data(),
            100,
            &[],
        );
        assert!(matches!(
            vxlan_decapsulate(&frame),
            Err(CodecError::Malformed { why: "not UDP", .. })
        ));
    }

    #[test]
    fn dissect_udp_and_tcp() {
        let ukeys = FlowKeys::udp(100, 1, 200, 2);
        let uframe = build_udp_frame(
            MacAddr::from_index(1),
            MacAddr::from_index(2),
            &ukeys,
            &[0; 8],
        );
        assert_eq!(dissect_flow(&uframe).unwrap(), ukeys);

        let tkeys = FlowKeys::tcp(100, 1, 200, 2);
        let tframe = build_tcp_frame(
            MacAddr::from_index(1),
            MacAddr::from_index(2),
            &tkeys,
            5,
            6,
            TcpFlags::data(),
            100,
            &[0; 8],
        );
        assert_eq!(dissect_flow(&tframe).unwrap(), tkeys);
    }

    #[test]
    fn decap_bounds_matches_slice_decap() {
        let inner = inner_udp();
        let outer = vxlan_encapsulate(&inner, &params());
        let b = decap_bounds(&outer).unwrap();
        assert_eq!(b.inner, VXLAN_OVERHEAD..outer.len());
        assert_eq!(&outer[b.inner.clone()], &inner[..]);
        assert_eq!(b.vni, 7);
        assert_eq!(b.src_port, 55555);
        let (slice, vni) = vxlan_decapsulate(&outer).unwrap();
        assert_eq!(slice, &outer[b.inner]);
        assert_eq!(vni, b.vni);
    }

    #[test]
    fn decap_bounds_rejects_length_lies() {
        let inner = inner_udp();
        let outer = vxlan_encapsulate(&inner, &params());

        // Trailing slack: both length fields stop short of the buffer.
        let mut padded = outer.clone();
        padded.push(0);
        assert!(matches!(
            decap_bounds(&padded),
            Err(CodecError::Malformed {
                why: "ipv4 total_len does not match frame",
                ..
            })
        ));

        // A UDP length that disagrees with the (valid) IPv4 length.
        let mut lied = outer.clone();
        let udp_len_off = ETHERNET_HDR_LEN + IPV4_HDR_LEN + 4;
        let udp = UdpHdr::parse(&outer[ETHERNET_HDR_LEN + IPV4_HDR_LEN..]).unwrap();
        lied[udp_len_off..udp_len_off + 2].copy_from_slice(&(udp.len - 1).to_be_bytes());
        assert!(matches!(
            decap_bounds(&lied),
            Err(CodecError::Malformed {
                why: "udp len does not match frame",
                ..
            })
        ));
    }

    #[test]
    fn fill_and_verify_udp_checksum_round_trip() {
        // Odd-length payload exercises the RFC 1071 trailing-byte pad.
        for payload_len in [0usize, 1, 31, 32, 33] {
            let keys = FlowKeys::udp(0x0A000001, 5001, 0x0A000002, 8080);
            let payload: Vec<u8> = (0..payload_len).map(|i| i as u8).collect();
            let mut frame = build_udp_frame(
                MacAddr::from_index(1),
                MacAddr::from_index(2),
                &keys,
                &payload,
            );
            // Builders emit checksum 0 ("not computed"): verify passes.
            verify_l4_checksum(&frame).unwrap();
            fill_l4_checksum(&mut frame).unwrap();
            let csum_off = ETHERNET_HDR_LEN + IPV4_HDR_LEN + 6;
            assert_ne!(
                &frame[csum_off..csum_off + 2],
                &[0, 0],
                "filled UDP checksum must never be on-wire zero"
            );
            verify_l4_checksum(&frame).unwrap();
            // Corrupt a payload byte: detected.
            if payload_len > 0 {
                let last = frame.len() - 1;
                frame[last] ^= 0x10;
                assert_eq!(
                    verify_l4_checksum(&frame),
                    Err(CodecError::BadChecksum { what: "udp" })
                );
            }
        }
    }

    #[test]
    fn udp_zero_checksum_transmitted_as_ffff() {
        // RFC 768: if the computed checksum is 0x0000 it is transmitted
        // as 0xFFFF. Engineer a frame whose checksum computes to zero:
        // start from any filled frame and absorb its checksum value into
        // two payload bytes so the total sum becomes all-ones.
        let keys = FlowKeys::udp(0x0A000001, 5001, 0x0A000002, 8080);
        let mut frame = build_udp_frame(
            MacAddr::from_index(1),
            MacAddr::from_index(2),
            &keys,
            &[0u8; 4],
        );
        fill_l4_checksum(&mut frame).unwrap();
        let csum_off = ETHERNET_HDR_LEN + IPV4_HDR_LEN + 6;
        let csum = u16::from_be_bytes([frame[csum_off], frame[csum_off + 1]]);
        // Put the complement-closing value in the (word-aligned) payload.
        let payload_off = ETHERNET_HDR_LEN + IPV4_HDR_LEN + UDP_HDR_LEN;
        frame[payload_off..payload_off + 2].copy_from_slice(&csum.to_be_bytes());
        fill_l4_checksum(&mut frame).unwrap();
        assert_eq!(
            u16::from_be_bytes([frame[csum_off], frame[csum_off + 1]]),
            0xFFFF,
            "computed zero must be transmitted as 0xFFFF"
        );
        verify_l4_checksum(&frame).unwrap();
    }

    #[test]
    fn fill_and_verify_tcp_checksum_round_trip() {
        for payload_len in [1usize, 999, 1448] {
            let keys = FlowKeys::tcp(0x0A000001, 43210, 0x0A000002, 5201);
            let payload: Vec<u8> = (0..payload_len).map(|i| (i * 7) as u8).collect();
            let mut frame = build_tcp_frame(
                MacAddr::from_index(1),
                MacAddr::from_index(2),
                &keys,
                1000,
                0,
                TcpFlags::data(),
                0xFFFF,
                &payload,
            );
            // TCP has no "no checksum" escape: a zeroed field must fail.
            assert_eq!(
                verify_l4_checksum(&frame),
                Err(CodecError::BadChecksum { what: "tcp" })
            );
            fill_l4_checksum(&mut frame).unwrap();
            verify_l4_checksum(&frame).unwrap();
            frame[ETHERNET_HDR_LEN + IPV4_HDR_LEN + 4] ^= 0x01; // seq bit
            assert_eq!(
                verify_l4_checksum(&frame),
                Err(CodecError::BadChecksum { what: "tcp" })
            );
        }
    }

    #[test]
    fn nested_encapsulation_parses() {
        // VXLAN-in-VXLAN should still round-trip (the stack never does
        // this, but the codec must not care).
        let inner = inner_udp();
        let mid = vxlan_encapsulate(&inner, &params());
        let outer = vxlan_encapsulate(&mid, &params());
        let (once, _) = vxlan_decapsulate(&outer).unwrap();
        let (twice, _) = vxlan_decapsulate(once).unwrap();
        assert_eq!(twice, &inner[..]);
    }
}
