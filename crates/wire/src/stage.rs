//! Per-stage byte work of the wire-mode receive path.
//!
//! Each function is the real slice of work one pipeline stage performs
//! on the frame bytes, mirroring the modeled stages one-to-one:
//!
//! * pNIC poll — [`pnic_verify`]: outer parse, host-MAC filter, outer
//!   IPv4/UDP checksum verify (per segment).
//! * pNIC GRO half — [`gro_coalesce`]: coalesces contiguous TCP
//!   segments into one frame (runs inside the pNIC stage when the
//!   pipeline is unsplit, as its own stage under `split_gro`).
//! * VXLAN device — [`vxlan_decap`]: zero-copy offset-based decap via
//!   [`decap_bounds`] plus the VNI membership check.
//! * bridge — [`bridge_lookup`]: strict FDB lookup over the inner
//!   Ethernet header and [`dissect_flow`] keys.
//! * veth — [`deliver_verify`]: inner L4 checksum verify and the
//!   delivery digest over the application payload.
//!
//! Every failure maps to exactly one [`WireError`], which the executor
//! converts into a per-stage `DropReason::Malformed` count.

use falcon_khash::FlowKeys;
use falcon_packet::encap::{
    decap_bounds, dissect_flow, fill_l4_checksum, tcp_header_into, verify_l4_checksum,
    vxlan_header_into, EncapParams, VXLAN_OVERHEAD,
};
use falcon_packet::{
    CodecError, EtherType, EthernetHdr, IpProto, Ipv4Hdr, MacAddr, TcpHdr, WireBuf,
    ETHERNET_HDR_LEN, IPV4_HDR_LEN, TCP_HDR_LEN, UDP_HDR_LEN,
};

use crate::{payload_digest, Fdb};

/// Why a stage rejected a packet's bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// A header failed to parse or a checksum failed to verify.
    Codec(CodecError),
    /// The outer destination MAC is not the host NIC's.
    NotOurMac,
    /// The VXLAN VNI does not name our overlay segment.
    VniMismatch {
        /// VNI carried by the envelope.
        got: u32,
        /// VNI of the overlay this dataplane serves.
        want: u32,
    },
    /// An inner MAC (source or destination) is not in the bridge FDB.
    FdbMiss,
    /// GRO saw segments of different flows in one packet.
    GroFlowMismatch,
    /// GRO saw a non-contiguous TCP sequence run.
    GroSeqGap,
    /// GRO was asked to coalesce non-TCP segments.
    GroNotTcp,
    /// A stage needed wire bytes the descriptor does not carry (or a
    /// pre-decap stage found an un-coalesced multi-segment buffer).
    NoBuffer,
}

impl From<CodecError> for WireError {
    fn from(e: CodecError) -> Self {
        WireError::Codec(e)
    }
}

impl core::fmt::Display for WireError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            WireError::Codec(e) => write!(f, "{e}"),
            WireError::NotOurMac => write!(f, "outer dst MAC is not ours"),
            WireError::VniMismatch { got, want } => {
                write!(f, "VNI mismatch: got {got}, want {want}")
            }
            WireError::FdbMiss => write!(f, "inner MAC not in FDB"),
            WireError::GroFlowMismatch => write!(f, "GRO segments from different flows"),
            WireError::GroSeqGap => write!(f, "GRO sequence gap"),
            WireError::GroNotTcp => write!(f, "GRO on non-TCP segments"),
            WireError::NoBuffer => write!(f, "no wire buffer on descriptor"),
        }
    }
}

impl std::error::Error for WireError {}

/// pNIC poll: per segment, parse the outer Ethernet header, drop frames
/// not addressed to the host NIC, and verify the outer IPv4 header and
/// UDP checksums (a zero UDP checksum is legal per RFC 7348 §4.1 and
/// skipped, exactly the hardware rx-checksum-offload contract).
pub fn pnic_verify(buf: &WireBuf, host_mac: MacAddr) -> Result<(), WireError> {
    if buf.segs.is_empty() {
        return Err(WireError::NoBuffer);
    }
    for seg in &buf.segs {
        let eth = EthernetHdr::parse(seg)?;
        if eth.dst != host_mac {
            return Err(WireError::NotOurMac);
        }
        if eth.ethertype != EtherType::Ipv4 {
            return Err(WireError::Codec(CodecError::Malformed {
                what: "vxlan-outer",
                why: "not IPv4",
            }));
        }
        verify_l4_checksum(seg)?;
    }
    Ok(())
}

/// GRO: coalesce the segments of one logical packet into a single
/// frame. A single segment passes through untouched; multiple segments
/// must be same-flow TCP with a contiguous sequence run, and are merged
/// into one inner frame (first segment's headers over the concatenated
/// payload, checksum refreshed) re-encapsulated under the first
/// segment's envelope — byte-identical to what the sender would have
/// emitted without segmentation.
///
/// Two passes. The first verifies and parses every segment and sums the
/// payload. The second allocates the merged frame once at its final
/// size, writes both header stacks into it, appends each payload once
/// and makes one checksum pass. The consumed segments move to the
/// buffer's spent list ([`WireBuf::set_single`]) and go home with it.
pub fn gro_coalesce(buf: &mut WireBuf) -> Result<(), WireError> {
    if buf.segs.is_empty() {
        return Err(WireError::NoBuffer);
    }
    if buf.segs.len() == 1 {
        return Ok(());
    }
    let mut head: Option<(EthernetHdr, Ipv4Hdr, TcpHdr, EncapParams)> = None;
    let mut expect_seq = 0u32;
    let mut payload_len = 0usize;
    for seg in &buf.segs {
        let b = decap_bounds(seg)?;
        let inner = &seg[b.inner.clone()];
        // GRO only coalesces checksum-verified segments (the kernel's
        // tcp_gro_receive contract): the merge below re-checksums the
        // concatenated payload, so an unverified corrupt segment would
        // otherwise be laundered into a "valid" merged frame.
        verify_l4_checksum(inner)?;
        let ieth = EthernetHdr::parse(inner)?;
        let iip = Ipv4Hdr::parse(&inner[ETHERNET_HDR_LEN..])?;
        if iip.proto != IpProto::Tcp {
            return Err(WireError::GroNotTcp);
        }
        let l4_off = ETHERNET_HDR_LEN + IPV4_HDR_LEN;
        let l4_end = ETHERNET_HDR_LEN + iip.total_len as usize;
        if l4_end > inner.len() || l4_end < l4_off + TCP_HDR_LEN {
            return Err(WireError::Codec(CodecError::Truncated {
                what: "tcp",
                need: l4_off + TCP_HDR_LEN,
                have: inner.len(),
            }));
        }
        let itcp = TcpHdr::parse(&inner[l4_off..])?;
        debug_assert_eq!(b.inner.start, VXLAN_OVERHEAD);
        let seg_len = seg_payload(seg).len();
        match &head {
            None => {
                // Reconstruct the envelope from the first segment so the
                // merged frame re-encapsulates identically.
                let oeth = EthernetHdr::parse(seg)?;
                let oip = Ipv4Hdr::parse(&seg[ETHERNET_HDR_LEN..])?;
                let oudp = falcon_packet::UdpHdr::parse(&seg[ETHERNET_HDR_LEN + IPV4_HDR_LEN..])?;
                let params = EncapParams {
                    src_mac: oeth.src,
                    dst_mac: oeth.dst,
                    src_ip: oip.src,
                    dst_ip: oip.dst,
                    src_port: oudp.src_port,
                    vni: b.vni,
                };
                expect_seq = itcp.seq;
                head = Some((ieth, iip, itcp, params));
            }
            Some((heth, hip, htcp, _)) => {
                let same_flow = ieth.src == heth.src
                    && ieth.dst == heth.dst
                    && iip.src == hip.src
                    && iip.dst == hip.dst
                    && itcp.src_port == htcp.src_port
                    && itcp.dst_port == htcp.dst_port;
                if !same_flow {
                    return Err(WireError::GroFlowMismatch);
                }
                if itcp.seq != expect_seq {
                    return Err(WireError::GroSeqGap);
                }
            }
        }
        expect_seq = expect_seq.wrapping_add(seg_len as u32);
        payload_len += seg_len;
    }
    let (heth, hip, htcp, params) = head.expect("at least one segment parsed");
    let keys = FlowKeys::tcp(hip.src.0, htcp.src_port, hip.dst.0, htcp.dst_port);
    let inner_len = ETHERNET_HDR_LEN + IPV4_HDR_LEN + TCP_HDR_LEN + payload_len;
    let mut merged = Vec::with_capacity(VXLAN_OVERHEAD + inner_len);
    vxlan_header_into(&mut merged, inner_len, &params);
    tcp_header_into(
        &mut merged,
        heth.src,
        heth.dst,
        &keys,
        htcp.seq,
        htcp.ack,
        htcp.flags,
        htcp.window,
        payload_len,
    );
    for seg in &buf.segs {
        merged.extend_from_slice(seg_payload(seg));
    }
    fill_l4_checksum(&mut merged[VXLAN_OVERHEAD..])?;
    buf.set_single(merged);
    buf.inner = None;
    Ok(())
}

/// The TCP payload of a VXLAN-encapsulated segment whose layout
/// [`gro_coalesce`]'s first pass has checked. Every parser on this path
/// rejects IPv4 and TCP options, so each header has its fixed length
/// and the inner IPv4 `total_len` alone places the payload's end.
fn seg_payload(seg: &[u8]) -> &[u8] {
    const INNER_IP: usize = VXLAN_OVERHEAD + ETHERNET_HDR_LEN;
    let total_len = u16::from_be_bytes([seg[INNER_IP + 2], seg[INNER_IP + 3]]) as usize;
    &seg[INNER_IP + IPV4_HDR_LEN + TCP_HDR_LEN..INNER_IP + total_len]
}

/// VXLAN device: offset-based decap — record where the inner frame
/// lives instead of copying it out — plus the VNI membership check.
pub fn vxlan_decap(buf: &mut WireBuf, want_vni: u32) -> Result<(), WireError> {
    if buf.segs.len() != 1 {
        return Err(WireError::NoBuffer);
    }
    let b = decap_bounds(&buf.segs[0])?;
    if b.vni != want_vni {
        return Err(WireError::VniMismatch {
            got: b.vni,
            want: want_vni,
        });
    }
    buf.inner = Some(b.inner);
    Ok(())
}

/// Bridge: strict FDB lookup. Both inner MACs must be programmed (no
/// unknown-unicast flooding on the overlay), and the frame must dissect
/// to valid flow keys. Returns the egress bridge port.
pub fn bridge_lookup(buf: &WireBuf, fdb: &Fdb) -> Result<u16, WireError> {
    let inner = buf.inner_frame().ok_or(WireError::NoBuffer)?;
    let eth = EthernetHdr::parse(inner)?;
    fdb.lookup(eth.src).ok_or(WireError::FdbMiss)?;
    let port = fdb.lookup(eth.dst).ok_or(WireError::FdbMiss)?;
    dissect_flow(inner)?;
    Ok(port)
}

/// What the veth end handed to the container.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Delivery {
    /// Digest of the application payload bytes.
    pub digest: u64,
    /// Application payload length in bytes (goodput numerator).
    pub payload_len: u64,
}

/// veth: verify the inner L4 checksum against its pseudo-header and
/// digest the application payload — the container-visible bytes.
pub fn deliver_verify(buf: &WireBuf) -> Result<Delivery, WireError> {
    let inner = buf.inner_frame().ok_or(WireError::NoBuffer)?;
    verify_l4_checksum(inner)?;
    let ip = Ipv4Hdr::parse(&inner[ETHERNET_HDR_LEN..])?;
    let l4_off = ETHERNET_HDR_LEN + IPV4_HDR_LEN;
    let l4_end = ETHERNET_HDR_LEN + ip.total_len as usize;
    let hdr_len = match ip.proto {
        IpProto::Tcp => TCP_HDR_LEN,
        IpProto::Udp => UDP_HDR_LEN,
        IpProto::Other(_) => {
            return Err(WireError::Codec(CodecError::Malformed {
                what: "deliver",
                why: "unsupported L4 protocol",
            }))
        }
    };
    // verify_l4_checksum already bounds-checked l4_end against the
    // frame and the header length against the L4 slice.
    let payload = &inner[l4_off + hdr_len..l4_end];
    Ok(Delivery {
        digest: payload_digest(payload),
        payload_len: payload.len() as u64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FrameFactory;

    fn factory() -> FrameFactory {
        FrameFactory::default()
    }

    /// Runs the full unsplit receive chain on a buffer.
    fn rx(buf: &mut WireBuf, fdb: &Fdb, vni: u32) -> Result<Delivery, WireError> {
        pnic_verify(buf, FrameFactory::host_mac())?;
        gro_coalesce(buf)?;
        vxlan_decap(buf, vni)?;
        bridge_lookup(buf, fdb)?;
        deliver_verify(buf)
    }

    #[test]
    fn udp_chain_delivers_expected_digest() {
        let f = factory();
        let fdb = Fdb::for_flows(&f, 2);
        let mut buf = *WireBuf::segments(f.udp_wire(1, 5, 777));
        let d = rx(&mut buf, &fdb, f.vni).unwrap();
        assert_eq!(d.payload_len, 777);
        assert_eq!(d.digest, FrameFactory::expected_digest(1, 5, 777));
    }

    #[test]
    fn tcp_gro_chain_reconstructs_canonical_frame() {
        let f = factory();
        let fdb = Fdb::for_flows(&f, 2);
        let mut buf = *WireBuf::segments(f.tcp_wire(0, 3, 4096, 1448));
        assert_eq!(buf.segs.len(), 3);
        pnic_verify(&buf, FrameFactory::host_mac()).unwrap();
        gro_coalesce(&mut buf).unwrap();
        assert_eq!(buf.segs.len(), 1);
        // The merged outer frame must be byte-identical to an unsegmented
        // encapsulation of the canonical inner frame.
        let canonical = f.inner_frame(true, 0, 3, 4096);
        let expect_outer = falcon_packet::vxlan_encapsulate(&canonical, &f.encap_params(0));
        assert_eq!(buf.segs[0], expect_outer);
        vxlan_decap(&mut buf, f.vni).unwrap();
        assert_eq!(buf.inner_frame().unwrap(), &canonical[..]);
        bridge_lookup(&buf, &fdb).unwrap();
        let d = deliver_verify(&buf).unwrap();
        assert_eq!(d.payload_len, 4096);
        assert_eq!(d.digest, FrameFactory::expected_digest(0, 3, 4096));
    }

    #[test]
    fn wrong_host_mac_rejected_at_pnic() {
        let f = factory();
        let buf = *WireBuf::segments(f.udp_wire(0, 0, 64));
        assert_eq!(
            pnic_verify(&buf, MacAddr::from_index(0xBAD)),
            Err(WireError::NotOurMac)
        );
    }

    #[test]
    fn outer_ip_corruption_rejected_at_pnic() {
        let f = factory();
        let mut segs = f.udp_wire(0, 0, 64);
        segs[0][ETHERNET_HDR_LEN + 15] ^= 0x01; // outer IPv4 src byte
        let buf = *WireBuf::segments(segs);
        assert!(matches!(
            pnic_verify(&buf, FrameFactory::host_mac()),
            Err(WireError::Codec(CodecError::BadChecksum { what: "ipv4" }))
        ));
    }

    #[test]
    fn gro_gap_rejected() {
        let f = factory();
        let mut segs = f.tcp_wire(0, 0, 4096, 1448);
        segs.remove(1); // lose the middle segment
        let mut buf = *WireBuf::segments(segs);
        assert_eq!(gro_coalesce(&mut buf), Err(WireError::GroSeqGap));
    }

    #[test]
    fn gro_flow_mix_rejected() {
        let f = factory();
        let mut segs = f.tcp_wire(0, 0, 2896, 1448);
        segs[1] = f.tcp_wire(1, 0, 2896, 1448)[1].clone();
        let mut buf = *WireBuf::segments(segs);
        assert_eq!(gro_coalesce(&mut buf), Err(WireError::GroFlowMismatch));
    }

    #[test]
    fn vni_mismatch_rejected_at_decap() {
        let f = factory();
        let mut buf = *WireBuf::segments(f.udp_wire(0, 0, 64));
        assert_eq!(
            vxlan_decap(&mut buf, f.vni + 1),
            Err(WireError::VniMismatch {
                got: f.vni,
                want: f.vni + 1
            })
        );
    }

    #[test]
    fn unknown_inner_mac_rejected_at_bridge() {
        let f = factory();
        let fdb = Fdb::for_flows(&f, 1); // knows flow 0 only
        let mut buf = *WireBuf::segments(f.udp_wire(3, 0, 64));
        pnic_verify(&buf, FrameFactory::host_mac()).unwrap();
        vxlan_decap(&mut buf, f.vni).unwrap();
        assert_eq!(bridge_lookup(&buf, &fdb), Err(WireError::FdbMiss));
    }

    #[test]
    fn corrupt_segment_payload_rejected_at_gro_not_laundered() {
        // A payload flip inside one MSS segment must die at the GRO
        // stage — the merge re-checksums the concatenated payload, so
        // without the per-segment verify the flip would ride a freshly
        // "valid" checksum all the way to delivery.
        let f = factory();
        let mut segs = f.tcp_wire(0, 0, 4096, 1448);
        let last = segs[1].len() - 1;
        segs[1][last] ^= 0x04; // payload byte of the middle segment
        let mut buf = *WireBuf::segments(segs);
        pnic_verify(&buf, FrameFactory::host_mac()).unwrap();
        assert_eq!(
            gro_coalesce(&mut buf),
            Err(WireError::Codec(CodecError::BadChecksum { what: "tcp" }))
        );
    }

    #[test]
    fn inner_payload_corruption_rejected_at_veth() {
        let f = factory();
        let fdb = Fdb::for_flows(&f, 1);
        let mut segs = f.udp_wire(0, 0, 256);
        let last = segs[0].len() - 1;
        segs[0][last] ^= 0x80; // payload byte: only the inner L4 checksum sees it
        let mut buf = *WireBuf::segments(segs);
        pnic_verify(&buf, FrameFactory::host_mac()).unwrap();
        vxlan_decap(&mut buf, f.vni).unwrap();
        bridge_lookup(&buf, &fdb).unwrap();
        assert_eq!(
            deliver_verify(&buf),
            Err(WireError::Codec(CodecError::BadChecksum { what: "udp" }))
        );
    }
}
