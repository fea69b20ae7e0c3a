//! The per-function CPU cost model.
//!
//! Every kernel function the receive path executes is assigned a fixed
//! cost plus (where it matters) a per-byte component. The values are
//! calibration constants, chosen so that the *vanilla* data path
//! reproduces the magnitudes the paper measures on real hardware:
//!
//! * a native host receive of a small UDP packet costs ~2 µs of CPU
//!   spread over three cores (hardirq+driver poll, RPS-steered stack
//!   softirq, app-side copy), sustaining ~1.2 Mpps for one flow;
//! * the overlay path adds decapsulation plus two more device stages,
//!   roughly tripling the per-packet softirq cost serialized on a single
//!   core (paper §3.2: NET_RX ×3.6, one core pegged);
//! * for TCP at 4 KB messages, `skb_allocation` and `napi_gro_receive`
//!   each contribute ~45 % of the first stage's load (paper Figure 9a).
//!
//! Two kernel generations are provided, because the paper evaluates
//! both 4.19 and 5.4 and notes 5.4's `sk_buff` allocation changes
//! "achieve performance improvements as well as causing regressions":
//! [`CostModel::kernel_4_19`] and [`CostModel::kernel_5_4`] (cheaper
//! allocation, slightly costlier UDP receive).

use falcon_simcore::SimDuration;
use serde::{Deserialize, Serialize};

/// Which kernel generation's cost profile to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum KernelVersion {
    /// Linux 4.19 (the paper's primary target).
    K419,
    /// Linux 5.4 (the port, with allocator changes).
    K54,
}

impl KernelVersion {
    /// Figure label.
    pub fn label(self) -> &'static str {
        match self {
            KernelVersion::K419 => "4.19",
            KernelVersion::K54 => "5.4",
        }
    }
}

/// Nanosecond costs of the simulated kernel functions.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CostModel {
    /// `pNIC_interrupt`: the top-half IRQ handler.
    pub hardirq_ns: u64,
    /// `skb_allocation`: driver ring refill + skb metadata setup, per
    /// wire segment.
    pub skb_alloc_ns: u64,
    /// Extra allocation cost per byte (buffer zeroing/DMA sync).
    pub skb_alloc_per_byte: f64,
    /// `napi_gro_receive` per TCP segment (flow table walk + checksum).
    pub gro_receive_tcp_ns: u64,
    /// GRO per-byte cost on TCP segments (pull-up + checksum).
    pub gro_per_byte: f64,
    /// `napi_gro_receive` for non-coalescable traffic (UDP): the early
    /// "not GRO-able" exit.
    pub gro_receive_other_ns: u64,
    /// `netif_receive_skb` / `__netif_receive_skb_core` dispatch.
    pub netif_receive_ns: u64,
    /// `get_rps_cpu`: flow hash + table lookup.
    pub get_rps_cpu_ns: u64,
    /// `enqueue_to_backlog`: remote queue insert.
    pub enqueue_backlog_ns: u64,
    /// Cost charged on the *target* core for an inter-processor
    /// interrupt (backlog kick or rescheduling).
    pub ipi_cost_ns: u64,
    /// Latency before the IPI is seen by the target core.
    pub ipi_latency_ns: u64,
    /// `process_backlog` per-packet overhead.
    pub process_backlog_ns: u64,
    /// `ip_rcv` + routing for a non-fragment.
    pub ip_rcv_ns: u64,
    /// Per-fragment `ip_defrag` bookkeeping.
    pub ip_defrag_frag_ns: u64,
    /// `udp_rcv` lookup + socket charge.
    pub udp_rcv_ns: u64,
    /// `tcp_v4_rcv` fixed cost (state machine, sequence checks).
    pub tcp_rcv_ns: u64,
    /// `vxlan_rcv`: outer header strip + VNI lookup + inner dissect.
    pub vxlan_rcv_ns: u64,
    /// VXLAN per-byte touch cost.
    pub vxlan_per_byte: f64,
    /// `gro_cell_poll` per-packet overhead.
    pub gro_cell_poll_ns: u64,
    /// `br_handle_frame` + `br_forward`: FDB lookup + forward.
    pub bridge_ns: u64,
    /// `veth_xmit`: hand-off into the peer namespace.
    pub veth_xmit_ns: u64,
    /// `netif_rx` itself (stage transition function entry).
    pub netif_rx_ns: u64,
    /// `sock_queue_rcv_skb`: socket receive-queue insert + wakeup.
    pub sock_queue_ns: u64,
    /// `copy_to_user`, per byte (~17 GB/s single-core copy).
    pub copy_to_user_per_byte: f64,
    /// `sock_recvmsg` syscall fixed overhead.
    pub sock_recvmsg_ns: u64,
    /// Cache-miss penalty charged to a stage that runs on a different
    /// core than the packet's previous stage (Falcon's loss-of-locality
    /// overhead, paper §6.3).
    pub locality_penalty_ns: u64,
    /// Server-side `sendmsg` fixed cost (responses, acks).
    pub tx_sendmsg_ns: u64,
    /// Server-side transmit per-byte cost (copy from user).
    pub tx_per_byte: f64,
    /// VXLAN encapsulation on transmit.
    pub tx_encap_ns: u64,
    /// Driver + qdisc transmit cost.
    pub tx_driver_ns: u64,
    /// `tcp_send_ack` from softirq context.
    pub tcp_send_ack_ns: u64,
}

impl CostModel {
    /// The Linux 4.19 profile.
    pub fn kernel_4_19() -> Self {
        CostModel {
            hardirq_ns: 250,
            skb_alloc_ns: 360,
            skb_alloc_per_byte: 0.010,
            gro_receive_tcp_ns: 180,
            gro_per_byte: 0.15,
            gro_receive_other_ns: 40,
            netif_receive_ns: 150,
            get_rps_cpu_ns: 60,
            enqueue_backlog_ns: 90,
            ipi_cost_ns: 150,
            ipi_latency_ns: 600,
            process_backlog_ns: 120,
            ip_rcv_ns: 180,
            ip_defrag_frag_ns: 150,
            udp_rcv_ns: 260,
            tcp_rcv_ns: 500,
            vxlan_rcv_ns: 320,
            vxlan_per_byte: 0.02,
            gro_cell_poll_ns: 110,
            bridge_ns: 230,
            veth_xmit_ns: 160,
            netif_rx_ns: 70,
            sock_queue_ns: 100,
            copy_to_user_per_byte: 0.06,
            sock_recvmsg_ns: 500,
            locality_penalty_ns: 60,
            tx_sendmsg_ns: 450,
            tx_per_byte: 0.05,
            tx_encap_ns: 350,
            tx_driver_ns: 250,
            tcp_send_ack_ns: 250,
        }
    }

    /// The Linux 5.4 profile: cheaper `sk_buff` allocation (the paper's
    /// "major changes in sk_buff allocation"), slightly costlier UDP
    /// receive (the regression the paper alludes to).
    pub fn kernel_5_4() -> Self {
        CostModel {
            skb_alloc_ns: 300,
            skb_alloc_per_byte: 0.008,
            netif_receive_ns: 140,
            udp_rcv_ns: 300,
            ..Self::kernel_4_19()
        }
    }

    /// Profile for a kernel version.
    pub fn for_kernel(kernel: KernelVersion) -> Self {
        match kernel {
            KernelVersion::K419 => Self::kernel_4_19(),
            KernelVersion::K54 => Self::kernel_5_4(),
        }
    }

    /// Fixed + per-byte cost helper.
    pub fn with_bytes(fixed_ns: u64, per_byte: f64, bytes: usize) -> SimDuration {
        SimDuration::from_nanos(fixed_ns + (per_byte * bytes as f64) as u64)
    }

    /// Cost of `skb_allocation` for one wire segment of `bytes`.
    pub fn skb_alloc(&self, bytes: usize) -> SimDuration {
        Self::with_bytes(self.skb_alloc_ns, self.skb_alloc_per_byte, bytes)
    }

    /// Cost of `napi_gro_receive` for one segment.
    pub fn gro_receive(&self, is_tcp: bool, bytes: usize) -> SimDuration {
        if is_tcp {
            Self::with_bytes(self.gro_receive_tcp_ns, self.gro_per_byte, bytes)
        } else {
            SimDuration::from_nanos(self.gro_receive_other_ns)
        }
    }

    /// Cost of `vxlan_rcv` for one packet of `bytes`.
    pub fn vxlan_rcv(&self, bytes: usize) -> SimDuration {
        Self::with_bytes(self.vxlan_rcv_ns, self.vxlan_per_byte, bytes)
    }

    /// Cost of copying `bytes` to user space plus the recvmsg syscall.
    pub fn copy_to_user(&self, bytes: usize) -> SimDuration {
        Self::with_bytes(0, self.copy_to_user_per_byte, bytes)
    }

    /// Server-side transmit cost for a payload of `bytes` (fixed +
    /// copy), excluding encap and driver.
    pub fn tx_sendmsg(&self, bytes: usize) -> SimDuration {
        Self::with_bytes(self.tx_sendmsg_ns, self.tx_per_byte, bytes)
    }

    /// Service-time decomposition of the overlay UDP receive path into
    /// its four softirq stages, for a UDP payload of `payload` bytes.
    ///
    /// This is the stage extraction the real-thread dataplane executes:
    /// each entry is the summed cost of the kernel functions one stage
    /// runs, exactly as [`rxpath`](crate::rxpath) plans them for a
    /// non-GRO overlay packet:
    ///
    /// 0. pNIC driver poll (`mlx5e_napi_poll`): allocation, GRO
    ///    fast-exit, `netif_receive_skb`, backlog handoff;
    /// 1. outer stack (`process_backlog` on the pNIC backlog): IP/UDP
    ///    receive and VXLAN decapsulation, `netif_rx` into the cell;
    /// 2. VXLAN `gro_cell_poll`: bridge forward, veth crossing, backlog
    ///    handoff;
    /// 3. container stack: `process_backlog`, inner IP/UDP receive,
    ///    socket queueing.
    ///
    /// The cache-miss penalty a stage pays when it runs on a different
    /// core than its predecessor is *not* included — it is a property
    /// of the placement, not the stage; callers add
    /// [`locality_penalty_ns`](Self::locality_penalty_ns) per remote
    /// transition.
    pub fn overlay_udp_stage_ns(&self, payload: usize) -> [u64; 4] {
        // Outer frame: Ethernet(14) + IP(20) + UDP(8) + payload, inside
        // a 50-byte VXLAN envelope.
        let inner_frame = 14 + 20 + 8 + payload;
        let wire_frame = inner_frame + falcon_packet::VXLAN_OVERHEAD;
        let a = self.skb_alloc(wire_frame).as_nanos()
            + self.gro_receive(false, wire_frame).as_nanos()
            + self.netif_receive_ns
            + self.enqueue_backlog_ns;
        let b = self.process_backlog_ns
            + self.ip_rcv_ns
            + self.udp_rcv_ns
            + self.vxlan_rcv(wire_frame).as_nanos()
            + self.netif_rx_ns;
        let c = self.gro_cell_poll_ns
            + self.netif_receive_ns
            + self.bridge_ns
            + self.veth_xmit_ns
            + self.netif_rx_ns
            + self.enqueue_backlog_ns;
        let d = self.process_backlog_ns + self.ip_rcv_ns + self.udp_rcv_ns + self.sock_queue_ns;
        [a, b, c, d]
    }

    /// Labels for the four stages of
    /// [`overlay_udp_stage_ns`](Self::overlay_udp_stage_ns).
    pub const OVERLAY_STAGE_LABELS: [&'static str; 4] =
        ["pnic_poll", "outer_stack", "gro_cell", "container_stack"];

    /// Labels for the five stages of the `_split` shapes.
    pub const OVERLAY_STAGE_LABELS_SPLIT: [&'static str; 5] = [
        "pnic_alloc",
        "pnic_gro",
        "outer_stack",
        "gro_cell",
        "container_stack",
    ];

    /// The split shape of [`overlay_udp_stage_ns`](Self::overlay_udp_stage_ns):
    /// the pNIC stage decomposed into its `skb_allocation` and
    /// `napi_gro_receive` halves (paper §4.2, the Figure 9a split).
    ///
    /// The partition is exact — `split[0] + split[1]` equals the
    /// unsplit stage 0 cost, and the later stages are unchanged. The
    /// alloc half keeps `enqueue_to_backlog` (it ends by handing the
    /// skb to the GRO half's backlog); the GRO half keeps
    /// `netif_receive_skb` (GRO completion flows straight into stack
    /// dispatch). Splitting itself is free at the cost-model level: the
    /// price of the extra hop is the placement's
    /// [`locality_penalty_ns`](Self::locality_penalty_ns), charged by
    /// the executor like any other remote transition.
    pub fn overlay_udp_stage_ns_split(&self, payload: usize) -> [u64; 5] {
        let [a, b, c, d] = self.overlay_udp_stage_ns(payload);
        let wire_frame = 14 + 20 + 8 + payload + falcon_packet::VXLAN_OVERHEAD;
        let a1 = self.skb_alloc(wire_frame).as_nanos() + self.enqueue_backlog_ns;
        let a2 = a - a1;
        [a1, a2, b, c, d]
    }

    /// Per-segment `skb_allocation` and `napi_gro_receive` totals for a
    /// GRO-coalesced TCP message of `msg` bytes arriving as wire
    /// segments of at most `mss` payload bytes each.
    fn tcp_pnic_halves(&self, msg: usize, mss: usize) -> (u64, u64) {
        let msg = msg.max(1);
        let mss = mss.max(1);
        let mut alloc = 0u64;
        let mut gro = 0u64;
        let mut off = 0usize;
        while off < msg {
            let chunk = (msg - off).min(mss);
            // Ethernet(14) + IP(20) + TCP(20) per wire segment, inside
            // the VXLAN envelope.
            let wire_seg = 14 + 20 + 20 + chunk + falcon_packet::VXLAN_OVERHEAD;
            alloc += self.skb_alloc(wire_seg).as_nanos();
            gro += self.gro_receive(true, wire_seg).as_nanos();
            off += chunk;
        }
        (alloc, gro)
    }

    /// Service-time decomposition of the overlay receive path for one
    /// GRO-coalesced TCP message of `msg` bytes segmented at `mss` on
    /// the wire — the Figure-13 TCP-4KB shape.
    ///
    /// Unlike UDP, the pNIC stage pays allocation and GRO **per wire
    /// segment** (`ceil(msg / mss)` of them) before the merged
    /// super-skb traverses the rest of the path once. That is what
    /// makes the first stage the bottleneck (~45 % alloc / ~45 % GRO,
    /// paper Figure 9a) and GRO splitting worth a core.
    pub fn overlay_tcp_stage_ns(&self, msg: usize, mss: usize) -> [u64; 4] {
        let (alloc, gro) = self.tcp_pnic_halves(msg, mss);
        let a = alloc + gro + self.netif_receive_ns + self.enqueue_backlog_ns;
        // The merged skb: one set of inner headers over the full
        // message. The outer stack still parses IP/UDP/VXLAN (the
        // envelope is UDP regardless of the inner protocol).
        let wire_total = 14 + 20 + 20 + msg.max(1) + falcon_packet::VXLAN_OVERHEAD;
        let b = self.process_backlog_ns
            + self.ip_rcv_ns
            + self.udp_rcv_ns
            + self.vxlan_rcv(wire_total).as_nanos()
            + self.netif_rx_ns;
        let c = self.gro_cell_poll_ns
            + self.netif_receive_ns
            + self.bridge_ns
            + self.veth_xmit_ns
            + self.netif_rx_ns
            + self.enqueue_backlog_ns;
        let d = self.process_backlog_ns + self.ip_rcv_ns + self.tcp_rcv_ns + self.sock_queue_ns;
        [a, b, c, d]
    }

    /// The split shape of [`overlay_tcp_stage_ns`](Self::overlay_tcp_stage_ns),
    /// same exact-partition rule as
    /// [`overlay_udp_stage_ns_split`](Self::overlay_udp_stage_ns_split).
    pub fn overlay_tcp_stage_ns_split(&self, msg: usize, mss: usize) -> [u64; 5] {
        let [a, b, c, d] = self.overlay_tcp_stage_ns(msg, mss);
        let (alloc, _) = self.tcp_pnic_halves(msg, mss);
        let a1 = alloc + self.enqueue_backlog_ns;
        let a2 = a - a1;
        [a1, a2, b, c, d]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_profiles_differ_where_documented() {
        let k419 = CostModel::kernel_4_19();
        let k54 = CostModel::kernel_5_4();
        assert!(k54.skb_alloc_ns < k419.skb_alloc_ns, "5.4 allocates faster");
        assert!(k54.udp_rcv_ns > k419.udp_rcv_ns, "5.4 UDP regression");
        assert_eq!(
            k54.vxlan_rcv_ns, k419.vxlan_rcv_ns,
            "unchanged costs shared"
        );
    }

    #[test]
    fn for_kernel_dispatch() {
        assert_eq!(
            CostModel::for_kernel(KernelVersion::K419).skb_alloc_ns,
            CostModel::kernel_4_19().skb_alloc_ns
        );
        assert_eq!(
            CostModel::for_kernel(KernelVersion::K54).skb_alloc_ns,
            CostModel::kernel_5_4().skb_alloc_ns
        );
    }

    #[test]
    fn per_byte_components() {
        let m = CostModel::kernel_4_19();
        assert_eq!(m.skb_alloc(0).as_nanos(), 360);
        assert_eq!(m.skb_alloc(1000).as_nanos(), 370);
        assert!(m.gro_receive(true, 1448) > m.gro_receive(false, 1448));
        assert_eq!(
            m.gro_receive(false, 64_000).as_nanos(),
            40,
            "UDP ignores size"
        );
        assert_eq!(m.copy_to_user(10_000).as_nanos(), 600);
    }

    #[test]
    fn gro_dominates_at_large_tcp_segments() {
        // The Figure 9a condition: alloc and GRO comparable, both large.
        let m = CostModel::kernel_4_19();
        let alloc = m.skb_alloc(1448).as_nanos() as f64;
        let gro = m.gro_receive(true, 1448).as_nanos() as f64;
        let ratio = gro / alloc;
        assert!((0.7..1.5).contains(&ratio), "alloc vs GRO balance: {ratio}");
    }

    #[test]
    fn overlay_stage_extraction_matches_path_shape() {
        let m = CostModel::kernel_4_19();
        let stages = m.overlay_udp_stage_ns(64);
        // Every stage costs something, and the serialized total is the
        // ~3 µs the paper measures for one overlay packet (§3.2).
        for (label, ns) in CostModel::OVERLAY_STAGE_LABELS.iter().zip(stages) {
            assert!(ns > 0, "stage {label} has zero cost");
        }
        let total: u64 = stages.iter().sum();
        assert!(
            (2_000..6_000).contains(&total),
            "overlay per-packet cost {total}ns out of calibration range"
        );
        // The pipeline bottleneck must be well under the serialized
        // total, or running stages on different cores buys nothing.
        let max = *stages.iter().max().expect("non-empty");
        assert!(
            (max as f64) < 0.5 * total as f64,
            "bottleneck {max}ns vs total {total}ns leaves no parallelism"
        );
        // Larger payloads only grow byte-dependent stages.
        let big = m.overlay_udp_stage_ns(1400);
        assert!(big[0] > stages[0]);
        assert!(big[1] > stages[1]);
        assert_eq!(big[2], stages[2]);
        assert_eq!(big[3], stages[3]);
    }

    #[test]
    fn kernel_labels() {
        assert_eq!(KernelVersion::K419.label(), "4.19");
        assert_eq!(KernelVersion::K54.label(), "5.4");
    }

    #[test]
    fn split_shape_partitions_the_pnic_stage_exactly() {
        for m in [CostModel::kernel_4_19(), CostModel::kernel_5_4()] {
            for payload in [0usize, 64, 1400, 4096, 65_000] {
                let four = m.overlay_udp_stage_ns(payload);
                let five = m.overlay_udp_stage_ns_split(payload);
                assert_eq!(five[0] + five[1], four[0], "payload {payload}");
                assert_eq!(&five[2..], &four[1..]);
            }
            let four = m.overlay_tcp_stage_ns(4096, 1448);
            let five = m.overlay_tcp_stage_ns_split(4096, 1448);
            assert_eq!(five[0] + five[1], four[0]);
            assert_eq!(&five[2..], &four[1..]);
        }
    }

    #[test]
    fn tcp_4k_pnic_stage_splits_near_forty_five_forty_five() {
        // Figure 9a: at TCP 4KB, skb_allocation and napi_gro_receive
        // each carry ~45 % of the pNIC stage.
        let m = CostModel::kernel_4_19();
        let [a, ..] = m.overlay_tcp_stage_ns(4096, 1448);
        let [a1, a2, ..] = m.overlay_tcp_stage_ns_split(4096, 1448);
        let alloc_share = a1 as f64 / a as f64;
        let gro_share = a2 as f64 / a as f64;
        assert!(
            (0.35..0.55).contains(&alloc_share),
            "alloc share {alloc_share}"
        );
        assert!((0.35..0.55).contains(&gro_share), "gro share {gro_share}");
    }

    #[test]
    fn tcp_4k_bottleneck_moves_under_split() {
        // Unsplit, the per-segment pNIC stage dominates the TCP-4KB
        // path; the split must knock the bottleneck down far enough
        // that a fifth core can buy throughput.
        let m = CostModel::kernel_5_4();
        let four = m.overlay_tcp_stage_ns(4096, 1448);
        let five = m.overlay_tcp_stage_ns_split(4096, 1448);
        let unsplit_max = *four.iter().max().expect("non-empty");
        let split_max = *five.iter().max().expect("non-empty");
        assert_eq!(unsplit_max, four[0], "pNIC stage is the TCP bottleneck");
        assert!(
            (split_max as f64) < 0.75 * unsplit_max as f64,
            "split bottleneck {split_max}ns vs unsplit {unsplit_max}ns"
        );
        // Still one message's worth of work overall.
        assert_eq!(
            five.iter().sum::<u64>(),
            four.iter().sum::<u64>(),
            "splitting adds no modeled work"
        );
    }
}
