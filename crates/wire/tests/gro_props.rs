//! Properties of the single-copy GRO merge.
//!
//! [`gro_coalesce`] verifies and parses every segment first, then writes
//! the merged frame once, at its final size. These properties pin it to
//! the three-copy composition it replaced, kept here only as the
//! reference:
//!
//! 1. **Same bytes.** For message lengths 1…9,000 and any MSS (odd ones
//!    included), the merged frame is byte-identical to the reference
//!    merge, which is itself the sender's unsegmented frame.
//! 2. **No laundering.** A single bit flip anywhere in any segment's
//!    inner frame (the bytes GRO verifies) is rejected at GRO, never
//!    merged under a fresh checksum.
//! 3. **Every slot comes home once.** The consumed segments ride along
//!    in the buffer; once it is released and the pool drains its
//!    returns, every leased slot was returned exactly once, with no
//!    generation error.

use falcon_khash::FlowKeys;
use falcon_packet::encap::{
    build_tcp_frame, decap_bounds, fill_l4_checksum, vxlan_encapsulate, EncapParams,
};
use falcon_packet::slab::recycle;
use falcon_packet::{
    EthernetHdr, Ipv4Hdr, SlabConfig, SlabPool, SlabSeg, TcpHdr, UdpHdr, WireBuf, ETHERNET_HDR_LEN,
    IPV4_HDR_LEN, TCP_HDR_LEN, VXLAN_OVERHEAD,
};
use falcon_wire::{gro_coalesce, FrameFactory, SlabFrameBuilder};
use proptest::prelude::*;

/// The merge as it was before the single-copy rewrite: concatenate the
/// payloads into a growing `Vec`, build the inner frame over it, fill
/// its checksum, then encapsulate a copy under the first segment's
/// envelope. Only for well-formed, same-flow, contiguous segments.
fn reference_merge(segs: &[Vec<u8>]) -> Vec<u8> {
    if segs.len() == 1 {
        return segs[0].clone();
    }
    let mut payload = Vec::new();
    for seg in segs {
        let inner = &seg[decap_bounds(seg).unwrap().inner];
        let ip = Ipv4Hdr::parse(&inner[ETHERNET_HDR_LEN..]).unwrap();
        let l4_off = ETHERNET_HDR_LEN + IPV4_HDR_LEN;
        payload.extend_from_slice(
            &inner[l4_off + TCP_HDR_LEN..ETHERNET_HDR_LEN + ip.total_len as usize],
        );
    }
    let first = &segs[0];
    let b = decap_bounds(first).unwrap();
    let inner = &first[b.inner.clone()];
    let eth = EthernetHdr::parse(inner).unwrap();
    let ip = Ipv4Hdr::parse(&inner[ETHERNET_HDR_LEN..]).unwrap();
    let tcp = TcpHdr::parse(&inner[ETHERNET_HDR_LEN + IPV4_HDR_LEN..]).unwrap();
    let keys = FlowKeys::tcp(ip.src.0, tcp.src_port, ip.dst.0, tcp.dst_port);
    let mut merged = build_tcp_frame(
        eth.src, eth.dst, &keys, tcp.seq, tcp.ack, tcp.flags, tcp.window, &payload,
    );
    fill_l4_checksum(&mut merged).unwrap();
    let oeth = EthernetHdr::parse(first).unwrap();
    let oip = Ipv4Hdr::parse(&first[ETHERNET_HDR_LEN..]).unwrap();
    let oudp = UdpHdr::parse(&first[ETHERNET_HDR_LEN + IPV4_HDR_LEN..]).unwrap();
    let params = EncapParams {
        src_mac: oeth.src,
        dst_mac: oeth.dst,
        src_ip: oip.src,
        dst_ip: oip.dst,
        src_port: oudp.src_port,
        vni: b.vni,
    };
    vxlan_encapsulate(&merged, &params)
}

/// Checks property 1 for one message: GRO's output equals the
/// reference merge and the sender's unsegmented frame.
fn assert_merges_like_reference(flow: u64, seq: u64, msg: usize, mss: usize) {
    let f = FrameFactory::default();
    let segs = f.tcp_wire(flow, seq, msg, mss);
    let mut buf = *WireBuf::segments(segs.clone());
    gro_coalesce(&mut buf).unwrap_or_else(|e| panic!("msg={msg} mss={mss}: {e}"));
    assert_eq!(buf.segs.len(), 1);
    let reference = reference_merge(&segs);
    assert!(
        buf.segs[0] == reference,
        "msg={msg} mss={mss}: differs from the reference"
    );
    let canonical = vxlan_encapsulate(&f.inner_frame(true, flow, seq, msg), &f.encap_params(flow));
    assert!(
        reference == canonical,
        "msg={msg} mss={mss}: reference is not canonical"
    );
}

#[test]
fn edge_lengths_merge_like_reference() {
    for msg in [
        1usize, 2, 31, 32, 33, 1447, 1448, 1449, 2896, 4096, 8999, 9000,
    ] {
        for mss in [1usize, 7, 13, 536, 1447, 1448, 1449, 4095, 8999, 9000] {
            assert_merges_like_reference(3, 17, msg, mss);
        }
    }
}

/// Message `(flow, seq)`'s segments, each copied into a slot leased
/// from `pool`.
fn leased_segments(
    pool: &mut SlabPool,
    flow: u64,
    seq: u64,
    msg: usize,
    mss: usize,
) -> Vec<SlabSeg> {
    FrameFactory::default()
        .tcp_wire(flow, seq, msg, mss)
        .into_iter()
        .map(|bytes| {
            let mut seg = pool.acquire(bytes.len());
            seg.vec_mut().clear();
            seg.vec_mut().extend_from_slice(&bytes);
            seg
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Property 1 over random message lengths and MSS values.
    #[test]
    fn merged_frame_matches_reference(
        flow in 0u64..4096,
        seq in 0u64..1_000_000,
        msg in 1usize..=9000,
        mss in 1usize..=9000,
    ) {
        assert_merges_like_reference(flow, seq, msg, mss);
    }

    /// Property 2: a flipped bit in any segment's inner frame dies at
    /// GRO. The segment count is at least two, so GRO merges.
    #[test]
    fn any_inner_bit_flip_is_rejected_at_gro(
        msg in 2usize..=9000,
        mss_pick in 0usize..1_000_000,
        seg_pick in 0usize..1_000_000,
        bit_pick in 0usize..1_000_000_000,
    ) {
        let mss = 1 + mss_pick % (msg - 1);
        let mut segs = FrameFactory::default().tcp_wire(5, 9, msg, mss);
        prop_assert!(segs.len() >= 2);
        let k = seg_pick % segs.len();
        let inner_bits = (segs[k].len() - VXLAN_OVERHEAD) * 8;
        let bit = bit_pick % inner_bits;
        segs[k][VXLAN_OVERHEAD + bit / 8] ^= 1 << (bit % 8);
        let mut buf = *WireBuf::segments(segs);
        prop_assert!(
            gro_coalesce(&mut buf).is_err(),
            "flip of inner bit {} in segment {} (msg {}, mss {}) was merged", bit, k, msg, mss
        );
    }

    /// Property 3: leased segments consumed by GRO return exactly once.
    /// In a plain shell every return is a segment's, so after the drain
    /// `returns == leases`. In a pooled shell (the slab builder's) the
    /// shell's one push carries them home, and every leased slot is
    /// back on its freelist.
    #[test]
    fn consumed_segments_return_exactly_once(
        msg in 1usize..=9000,
        mss in 536usize..=1448,
        rounds in 1u64..8,
    ) {
        let mut pool = SlabPool::new(SlabConfig { mtu_slots: 64, jumbo_slots: 0 });
        let counters = pool.counters();
        for seq in 0..rounds {
            let mut buf = WireBuf::leased(leased_segments(&mut pool, 1, seq, msg, mss));
            gro_coalesce(&mut buf).unwrap();
            drop(buf);
            pool.drain_returns();
            let c = counters.snapshot();
            prop_assert_eq!(c.returns, c.leases);
            prop_assert_eq!(c.gen_errors, 0);
        }
        let before = counters.snapshot();
        let mut builder = SlabFrameBuilder::new(FrameFactory::default());
        for seq in 0..rounds {
            let mut buf = builder.tcp_wire(&mut pool, 2, seq, msg, mss);
            gro_coalesce(&mut buf).unwrap();
            prop_assert!(recycle(buf));
            pool.drain_returns();
        }
        let c = counters.snapshot();
        prop_assert_eq!(c.recycles - before.recycles, c.leases - before.leases);
        prop_assert_eq!(c.returns - before.returns, c.leases - before.leases + rounds);
        prop_assert_eq!(c.gen_errors, 0);
        prop_assert_eq!(c.fallbacks, 0);
        prop_assert_eq!(pool.free_slots(), (64, 0));
    }
}
