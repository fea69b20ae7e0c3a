//! The benchmark's workload table: each entry is one fixed dataplane
//! configuration plus the traffic the benchmark's own generator offers
//! it, and the reason the workload exists.

use falcon_dataplane::PolicyKind;

/// The three steering policies every workload runs, in report order.
pub const POLICIES: [PolicyKind; 3] = [
    PolicyKind::Vanilla,
    PolicyKind::Falcon,
    PolicyKind::Replicate,
];

/// Worker threads every leg asks for (clamped to the host's cores by the
/// dataplane). The generator adds one more thread.
pub const WORKERS: usize = 2;

/// Inter-worker ring capacity (8x the dataplane default). Saturating legs
/// keep at most a quarter of it in flight; on the paced workload it
/// absorbs ~80 ms of one worker stalling (the host descheduling a vCPU)
/// before Falcon's worker-to-worker hops would tail-drop.
pub const RING_CAPACITY: usize = 4096;

/// Packets per burst on a saturating leg. The source injects a burst only
/// once the previous one has drained, so no ring ever holds more than
/// this and the leg runs loss-free.
pub const BURST: u64 = 1024;

/// Packets a paced workload offers at once, all due at the same time.
/// Bursts leave the workers idle long enough to park between them, and
/// let the generator sleep instead of competing for a worker's core.
pub const PACED_BURST: u64 = 32;

/// Flow-cache entries per worker when a workload turns the cache on.
pub const FLOW_CACHE_ENTRIES: usize = 4096;

/// What one injected unit is on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Traffic {
    /// One VXLAN-encapsulated UDP datagram of `payload` bytes.
    Udp { payload: usize },
    /// One TCP message of `msg` bytes, cut into `mss`-sized segments
    /// that the pNIC stage coalesces (GRO).
    Tcp { msg: usize, mss: usize },
}

impl Traffic {
    /// Application payload bytes per injected unit.
    pub fn payload(self) -> usize {
        match self {
            Traffic::Udp { payload } => payload,
            Traffic::Tcp { msg, .. } => msg,
        }
    }

    /// Wire segments per injected unit.
    pub fn segments(self) -> usize {
        match self {
            Traffic::Udp { .. } => 1,
            Traffic::Tcp { msg, mss } => msg.div_ceil(mss).max(1),
        }
    }
}

/// One named workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    /// One line: why this workload is in the benchmark.
    pub why: &'static str,
    pub traffic: Traffic,
    /// Concurrent flows.
    pub flows: usize,
    /// Flow ids are drawn from `0..flow_space`; the dataplane's bridge FDB
    /// is programmed for exactly that range.
    pub flow_space: u64,
    /// Run the pNIC stage as the two split-GRO half-stages.
    pub split_gro: bool,
    /// Modeled stage-cost scale (1000 = cost model as-is, 0 = native:
    /// only the real byte work).
    pub work_scale_milli: u64,
    pub flow_cache: bool,
    /// Fixed offered rate in packets per second (open loop, in bursts of
    /// [`PACED_BURST`]); 0 = saturating: back-to-back bursts of [`BURST`],
    /// each offered once the previous one has drained.
    pub pace_pps: u64,
    /// Injected units per measured leg.
    pub leg_packets: u64,
    /// Injected units per leg under `--smoke`.
    pub smoke_packets: u64,
}

impl Workload {
    /// Whether the generator offers load as fast as the dataplane takes it.
    pub fn saturating(&self) -> bool {
        self.pace_pps == 0
    }
}

/// Every workload, in run order.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "sf-tcp4k-modeled",
        why: "one heavy TCP flow (paper Fig. 13): only pipelining or spraying parallelizes it; modeled spin dominates, so steering moves it and byte loops do not",
        traffic: Traffic::Tcp { msg: 4096, mss: 1448 },
        flows: 1,
        flow_space: 1,
        split_gro: true,
        work_scale_milli: 1000,
        flow_cache: false,
        pace_pps: 0,
        leg_packets: 40_000,
        smoke_packets: 1_500,
    },
    Workload {
        name: "mf-udp64-native",
        why: "64 flows of 64-B UDP with no modeled cost: per-packet overhead (rings, steering, slab, conntrack, flow-cache hits) sets the rate",
        traffic: Traffic::Udp { payload: 64 },
        flows: 64,
        flow_space: 4_096,
        split_gro: false,
        work_scale_milli: 0,
        flow_cache: true,
        pace_pps: 0,
        leg_packets: 150_000,
        smoke_packets: 4_000,
    },
    Workload {
        name: "mf-1400-native",
        why: "16384 flows of 1400-B UDP, cache off: checksum/digest byte work and conntrack/FDB working sets beyond the flow cache",
        traffic: Traffic::Udp { payload: 1400 },
        flows: 16_384,
        flow_space: 32_768,
        split_gro: false,
        work_scale_milli: 0,
        flow_cache: false,
        pace_pps: 0,
        leg_packets: 120_000,
        smoke_packets: 4_000,
    },
    Workload {
        name: "paced-udp64-modeled",
        why: "16 flows at a fixed 100 kpps in 32-packet bursts: workers park between bursts, so the backoff park/wake and hand-off path sets latency from each packet's due time",
        traffic: Traffic::Udp { payload: 64 },
        flows: 16,
        flow_space: 1_024,
        split_gro: false,
        work_scale_milli: 1000,
        flow_cache: false,
        pace_pps: 100_000,
        leg_packets: 40_000,
        smoke_packets: 2_000,
    },
];

/// Looks a workload up by name.
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}
