//! The benchmark's metric tables: every end-to-end and per-layer metric
//! by name, with its unit, its direction, and the end-to-end metric and
//! workload a change to it should move. `BENCHMARK.json` lists the same
//! names; the smoke test holds the two equal.

use crate::workloads::POLICIES;

/// Which direction is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One metric's definition.
#[derive(Debug, Clone)]
pub struct MetricDef {
    pub name: String,
    pub unit: &'static str,
    pub better: Better,
    /// End-to-end metrics: the share of the parent's median by which the
    /// metric may worsen before a change counts as a regression.
    pub bound: Option<f64>,
    /// The end-to-end metric and workload this metric should move.
    pub moves: &'static str,
}

fn def(name: String, unit: &'static str, better: Better, moves: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
        moves,
    }
}

/// Goodput may drop by this share of the parent's median. Calibrated on
/// a shared 2-core VM whose CPU speed itself wanders: a fixed
/// single-threaded loop timed every few seconds there showed a 27 %
/// quartile spread, and medians of ten 20-second runs of unchanged code
/// spread by up to 18 % (goodput) and 22 % (latency).
pub const GOODPUT_BOUND: f64 = 0.25;
/// Latency percentiles may rise by this share (same calibration).
pub const LATENCY_BOUND: f64 = 0.25;
/// Set-up time may rise by this share: the largest bound allowed, since
/// set-up is a few milliseconds of allocation and thread spawning.
pub const SETUP_BOUND: f64 = 0.25;

/// The end-to-end metrics every workload reports, gated by their bounds.
pub fn end_to_end() -> Vec<MetricDef> {
    let mut out = Vec::new();
    for p in POLICIES {
        let p = p.label();
        for (base, unit, better, bound) in [
            ("goodput_gbps", "Gb/s", Better::Higher, GOODPUT_BOUND),
            ("lat_p50_us", "us", Better::Lower, LATENCY_BOUND),
            ("lat_p90_us", "us", Better::Lower, LATENCY_BOUND),
        ] {
            out.push(MetricDef {
                bound: Some(bound),
                ..def(format!("{p}.{base}"), unit, better, "")
            });
        }
    }
    out.push(MetricDef {
        bound: Some(SETUP_BOUND),
        ..def("setup_s".into(), "s", Better::Lower, "")
    });
    out
}

/// Stage labels of both pipeline shapes (4-stage and split 5-stage).
pub const STAGE_LABELS: [&str; 6] = [
    "pnic_poll",
    "pnic_alloc",
    "pnic_gro",
    "outer_stack",
    "gro_cell",
    "container_stack",
];

/// Per-policy layer metrics: (name, unit, better, what it should move).
const PER_POLICY: [(&str, &str, Better, &str); 17] = [
    (
        "executor.busy_share",
        "ratio",
        Better::Higher,
        "goodput_gbps on mf-*-native and sf-tcp4k-modeled",
    ),
    (
        "executor.push_share",
        "ratio",
        Better::Lower,
        "goodput_gbps on mf-*-native and sf-tcp4k-modeled",
    ),
    (
        "executor.pop_share",
        "ratio",
        Better::Lower,
        "goodput_gbps on mf-*-native and sf-tcp4k-modeled",
    ),
    (
        "executor.guard_share",
        "ratio",
        Better::Lower,
        "goodput_gbps on mf-*-native and sf-tcp4k-modeled",
    ),
    (
        "executor.idle_share",
        "ratio",
        Better::Lower,
        "goodput_gbps on mf-*-native and sf-tcp4k-modeled",
    ),
    (
        "executor.busy_ns_per_pkt",
        "ns",
        Better::Lower,
        "goodput_gbps on mf-*-native and sf-tcp4k-modeled",
    ),
    (
        "spin.parks_per_kpkt",
        "count",
        Better::Lower,
        "lat_p50_us/lat_p90_us on paced-udp64-modeled; no change on saturating workloads",
    ),
    (
        "spin.yields_per_kpkt",
        "count",
        Better::Lower,
        "lat_p50_us/lat_p90_us on paced-udp64-modeled; no change on saturating workloads",
    ),
    (
        "dataplane.drop_ratio",
        "ratio",
        Better::Lower,
        "failed on every workload",
    ),
    (
        "cache.hit_ratio",
        "ratio",
        Better::Higher,
        "goodput_gbps on mf-udp64-native",
    ),
    (
        "slab.fallbacks",
        "count",
        Better::Lower,
        "goodput_gbps on mf-udp64-native",
    ),
    (
        "injector.inject_ns_p50",
        "ns",
        Better::Lower,
        "goodput_gbps on mf-udp64-native",
    ),
    (
        "gen.blocked_share",
        "ratio",
        Better::Higher,
        "guard: >= 0.5 on every saturating leg, else the generator is the bottleneck",
    ),
    (
        "telemetry.overhead_ratio",
        "ratio",
        Better::Lower,
        "goodput_gbps of the traced leg against the untraced median",
    ),
    (
        "lat_p99_us",
        "us",
        Better::Lower,
        "reported, not gated: tail latency of the leg",
    ),
    (
        "lat_p999_us",
        "us",
        Better::Lower,
        "reported, not gated: tail latency of the leg",
    ),
    (
        "lat_samples",
        "count",
        Better::Higher,
        "reported: latency samples per leg behind the percentiles",
    ),
];

/// Layer metrics measured once per workload (not per policy).
const GLOBAL: [(&str, &str, Better, &str); 10] = [
    (
        "steer.second_choice_ratio.falcon",
        "ratio",
        Better::Lower,
        "falcon.goodput_gbps on sf-tcp4k-modeled",
    ),
    (
        "steer.migrations.falcon",
        "count",
        Better::Lower,
        "falcon.goodput_gbps on sf-tcp4k-modeled",
    ),
    (
        "conntrack.updates_per_pkt",
        "count",
        Better::Lower,
        "goodput_gbps on mf-1400-native",
    ),
    (
        "conntrack.entries",
        "count",
        Better::Lower,
        "goodput_gbps on mf-1400-native",
    ),
    (
        "slab.leases_per_pkt",
        "count",
        Better::Lower,
        "goodput_gbps on mf-udp64-native",
    ),
    (
        "gen.late_p50_us",
        "us",
        Better::Lower,
        "lat_p50_us on paced-udp64-modeled",
    ),
    (
        "gen.late_p99_us",
        "us",
        Better::Lower,
        "lat_p90_us on paced-udp64-modeled",
    ),
    (
        "slab.mint_ms",
        "ms",
        Better::Lower,
        "setup_s on every workload",
    ),
    (
        "executor.spawn_ms",
        "ms",
        Better::Lower,
        "setup_s on every workload",
    ),
    (
        "gen.prebuild_s",
        "s",
        Better::Lower,
        "nothing: frame pre-building is excluded from setup_s",
    ),
];

/// Single-threaded replay medians, one call of each layer's public
/// function on the workload's own frames.
pub const REPLAY: [(&str, &str, &str); 16] = [
    (
        "wire.pnic_verify_ns",
        "ns",
        "goodput_gbps on mf-1400-native (byte work); no change on sf-tcp4k-modeled",
    ),
    (
        "wire.gro_coalesce_ns",
        "ns",
        "goodput_gbps on mf-1400-native (byte work); no change on sf-tcp4k-modeled",
    ),
    (
        "wire.vxlan_decap_ns",
        "ns",
        "goodput_gbps on mf-udp64-native (per packet)",
    ),
    (
        "wire.bridge_lookup_ns",
        "ns",
        "goodput_gbps on mf-udp64-native (per packet)",
    ),
    (
        "wire.conn_observe_ns",
        "ns",
        "goodput_gbps on mf-udp64-native (per packet)",
    ),
    (
        "wire.deliver_verify_ns",
        "ns",
        "goodput_gbps on mf-1400-native (byte work); no change on sf-tcp4k-modeled",
    ),
    (
        "wire.flow_cache_key_ns",
        "ns",
        "goodput_gbps on mf-udp64-native (per packet)",
    ),
    (
        "wire.cache_lookup_ns",
        "ns",
        "goodput_gbps on mf-udp64-native (per packet)",
    ),
    (
        "conntrack.record_ns",
        "ns",
        "goodput_gbps on mf-udp64-native (per packet)",
    ),
    (
        "slab.acquire_copy_ns",
        "ns",
        "goodput_gbps on mf-udp64-native (per packet)",
    ),
    (
        "slab.recycle_ns",
        "ns",
        "goodput_gbps on mf-udp64-native (per packet)",
    ),
    (
        "steer.route_ns",
        "ns",
        "goodput_gbps on mf-udp64-native (per packet)",
    ),
    (
        "steer.choose_ns",
        "ns",
        "goodput_gbps on mf-udp64-native (per packet)",
    ),
    (
        "spsc.hop_ns",
        "ns",
        "goodput_gbps on mf-udp64-native (per packet)",
    ),
    (
        "packet.checksum_ns_per_kb",
        "ns/KB",
        "goodput_gbps on mf-1400-native (byte work); no change on sf-tcp4k-modeled",
    ),
    (
        "packet.mix64_ns_per_kb",
        "ns/KB",
        "goodput_gbps on mf-1400-native (byte work); no change on sf-tcp4k-modeled",
    ),
];

/// Every per-layer metric, in report order.
pub fn per_layer() -> Vec<MetricDef> {
    let mut out = Vec::new();
    for (base, unit, better, moves) in PER_POLICY {
        for p in POLICIES {
            out.push(def(format!("{base}.{}", p.label()), unit, better, moves));
        }
    }
    for (name, unit, better, moves) in GLOBAL {
        out.push(def(name.into(), unit, better, moves));
    }
    for label in STAGE_LABELS {
        for q in ["p50", "p99"] {
            out.push(def(
                format!("telemetry.stage.{label}.service_{q}_ns"),
                "ns",
                Better::Lower,
                "falcon.goodput_gbps on the workloads whose pipeline has the stage",
            ));
        }
    }
    for (name, unit, moves) in REPLAY {
        out.push(def(name.into(), unit, Better::Lower, moves));
    }
    out
}
