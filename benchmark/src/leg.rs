//! One measured leg: a single `run_scenario_from` call under one policy,
//! fed by the benchmark's source, then checked and reduced to numbers.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use falcon_dataplane::{
    run_scenario_from, PolicyKind, RunOutput, Scenario, TelemetrySpec, TrafficShape,
};
use falcon_packet::SlabPool;
use falcon_trace::{DropReason, DELIVERY_CHECK};

use crate::source::{drive, slab_config, Inputs, Offer, SourceStats};
use crate::stats::percentile_sorted;
use crate::workloads::{Traffic, Workload, FLOW_CACHE_ENTRIES, RING_CAPACITY, WORKERS};

/// A leg whose generator spends less than this share of its time inside
/// `Injector::inject` was limited by the generator, not the dataplane.
pub const GENERATOR_BOUND_SHARE: f64 = 0.5;

/// The dataplane configuration one leg runs.
pub fn scenario(w: &Workload, policy: PolicyKind, packets: u64) -> Scenario {
    let shape = match w.traffic {
        Traffic::Udp { .. } => TrafficShape::Udp,
        Traffic::Tcp { mss, .. } => TrafficShape::TcpGro { mss },
    };
    Scenario {
        policy,
        workers: WORKERS,
        packets,
        flows: w.flow_space,
        payload: w.traffic.payload(),
        shape,
        split_gro: w.split_gro,
        ring_capacity: RING_CAPACITY,
        work_scale_milli: w.work_scale_milli,
        pin: true,
        wire: true,
        flow_cache: w.flow_cache,
        flow_cache_entries: FLOW_CACHE_ENTRIES,
        ..Scenario::default()
    }
}

/// A finished leg's raw output.
pub struct RawLeg {
    pub policy: PolicyKind,
    pub out: RunOutput,
    pub src: SourceStats,
    /// `SlabPool::new`, seconds.
    pub mint_s: f64,
    /// Entering `run_scenario_from` until the source starts, seconds.
    pub spawn_s: f64,
}

/// Runs one leg.
pub fn run(
    w: &Workload,
    inputs: &Arc<Inputs>,
    policy: PolicyKind,
    offer: Offer,
    telemetry: Option<TelemetrySpec>,
) -> RawLeg {
    let mut sc = scenario(w, policy, offer.packets);
    sc.telemetry = telemetry;
    let t0 = Instant::now();
    let pool = SlabPool::new(slab_config(w.traffic, offer.packets));
    let mint_s = t0.elapsed().as_secs_f64();
    let src_inputs = Arc::clone(inputs);
    let entered = Instant::now();
    let (out, src) = run_scenario_from(&sc, move |inj| drive(inj, &src_inputs, pool, offer));
    let spawn_s = src
        .started
        .map_or(0.0, |s| s.duration_since(entered).as_secs_f64());
    RawLeg {
        policy,
        out,
        src,
        mint_s,
        spawn_s,
    }
}

/// A leg reduced to its checks and numbers.
#[derive(Debug)]
pub struct Leg {
    pub policy: PolicyKind,
    pub effective_workers: usize,
    pub host_cores: usize,
    /// Core the generator thread was pinned to (`usize::MAX` = unpinned).
    pub generator_core: usize,
    pub injected: u64,
    /// Packets not delivered intact, plus order violations (duplicates
    /// for Replicate).
    pub failed: u64,
    /// Broken correctness checks, one line each (empty = green).
    pub failures: Vec<String>,
    pub generator_bound: bool,
    /// Metric values keyed by metric name without the policy suffix.
    pub values: BTreeMap<&'static str, f64>,
}

impl Leg {
    /// Whether the generator thread plus the workers outnumber the cores.
    pub fn oversubscribed(&self) -> bool {
        self.effective_workers + 1 > self.host_cores
    }

    pub fn value(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }
}

fn share(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// Checks a leg and extracts its metrics.
pub fn evaluate(w: &Workload, inputs: &Inputs, raw: &RawLeg, planned: u64) -> Leg {
    let out = &raw.out;
    let src = &raw.src;
    let mut failures = Vec::new();
    let label = raw.policy.label();

    let delivered = out.delivered();
    let dropped = out.dropped();
    if out.injected != planned || delivered + dropped != out.injected {
        failures.push(format!(
            "{label}: conservation: injected {} of {planned}, delivered {delivered} + dropped {dropped}",
            out.injected
        ));
    }
    let deliveries = out.deliveries();
    let mismatched = deliveries
        .iter()
        .filter(|&&(flow, seq, digest)| {
            inputs
                .flow_index
                .get(&flow)
                .is_none_or(|&fi| inputs.template(fi, seq).digest != digest)
        })
        .count() as u64;
    if mismatched > 0 || deliveries.len() as u64 != delivered {
        failures.push(format!(
            "{label}: {mismatched} delivered digests differ from their templates ({} digests for {delivered} deliveries)",
            deliveries.len()
        ));
    }
    let (checks, violations) = out.order_audit();
    if violations > 0 || checks == 0 {
        failures.push(format!(
            "{label}: order audit: {violations} violations in {checks} checks"
        ));
    }
    let malformed = out.drops_by_reason()[DropReason::Malformed.index()];
    if malformed > 0 {
        failures.push(format!("{label}: {malformed} malformed frames"));
    }
    let slab = out.slab.unwrap_or_default();
    if slab.gen_errors > 0 {
        failures.push(format!(
            "{label}: {} slab generation errors",
            slab.gen_errors
        ));
    }

    // Latency: from injection on saturating legs, from the due time on
    // paced legs. Each worker pushes its k-th latency sample together
    // with its k-th delivery record, which names the packet.
    let mut lat: Vec<u64> = Vec::with_capacity(delivered as usize);
    for ws in &out.workers_stats {
        if w.saturating() {
            lat.extend_from_slice(&ws.latencies);
            continue;
        }
        let records = ws.order_log.iter().filter(|r| r.3 == DELIVERY_CHECK);
        for (&l, r) in ws.latencies.iter().zip(records) {
            let late = inputs
                .index_of(r.2, r.4)
                .and_then(|i| src.late_ns.get(i as usize))
                .copied()
                .unwrap_or(0);
            lat.push(l + late);
        }
    }
    lat.sort_unstable();
    let us = |p: f64| percentile_sorted(&lat, p) as f64 / 1e3;

    let mut late = src.late_ns.clone();
    late.sort_unstable();
    let mut inject = src.inject_ns.clone();
    inject.sort_unstable();

    let sum = |f: fn(&falcon_dataplane::WorkerStats) -> u64| -> u64 {
        out.workers_stats.iter().map(f).sum()
    };
    let wall = sum(|s| s.stall.wall_ns);
    let busy = sum(|s| s.stall.busy_ns);
    let decisions = sum(|s| s.decisions);
    let per_kpkt = |n: u64| share(n * 1000, delivered);
    let blocked_share = share(src.blocked_ns, src.active_ns);
    let values: BTreeMap<&'static str, f64> = [
        (
            "goodput_gbps",
            out.bytes_delivered() as f64 * 8.0 / out.wall_ns.max(1) as f64,
        ),
        ("lat_p50_us", us(50.0)),
        ("lat_p90_us", us(90.0)),
        ("lat_p99_us", us(99.0)),
        ("lat_p999_us", us(99.9)),
        ("lat_samples", lat.len() as f64),
        ("setup_s", raw.mint_s + raw.spawn_s),
        ("slab.mint_ms", raw.mint_s * 1e3),
        ("executor.spawn_ms", raw.spawn_s * 1e3),
        ("executor.busy_share", share(busy, wall)),
        (
            "executor.push_share",
            share(sum(|s| s.stall.stall_push_ns), wall),
        ),
        (
            "executor.pop_share",
            share(sum(|s| s.stall.stall_pop_ns), wall),
        ),
        (
            "executor.guard_share",
            share(sum(|s| s.stall.guard_wait_ns), wall),
        ),
        ("executor.idle_share", share(sum(|s| s.stall.idle_ns), wall)),
        ("executor.busy_ns_per_pkt", share(busy, delivered)),
        ("spin.parks_per_kpkt", per_kpkt(sum(|s| s.idle_parks))),
        ("spin.yields_per_kpkt", per_kpkt(sum(|s| s.idle_yields))),
        (
            "steer.second_choice_ratio",
            share(sum(|s| s.second_choices), decisions),
        ),
        ("steer.migrations", sum(|s| s.migrations) as f64),
        ("dataplane.drop_ratio", share(dropped, out.injected)),
        ("cache.hit_ratio", out.flow_cache_hit_rate()),
        (
            "conntrack.updates_per_pkt",
            share(out.conntrack_counters().updates, delivered),
        ),
        ("slab.fallbacks", slab.fallbacks as f64),
        ("slab.leases_per_pkt", share(slab.leases, out.injected)),
        (
            "injector.inject_ns_p50",
            percentile_sorted(&inject, 50.0) as f64,
        ),
        ("gen.blocked_share", blocked_share),
        (
            "gen.late_p50_us",
            percentile_sorted(&late, 50.0) as f64 / 1e3,
        ),
        (
            "gen.late_p99_us",
            percentile_sorted(&late, 99.0) as f64 / 1e3,
        ),
    ]
    .into_iter()
    .collect();

    Leg {
        policy: raw.policy,
        effective_workers: out.workers,
        host_cores: out.host_cores,
        generator_core: src.pinned_core,
        injected: out.injected,
        failed: dropped + mismatched + violations,
        failures,
        generator_bound: w.saturating() && blocked_share < GENERATOR_BOUND_SHARE,
        values,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::find;

    /// A source that spends 20 us building every frame cannot keep two
    /// native workers busy: the leg must be flagged generator-bound.
    #[test]
    fn slow_generator_is_flagged() {
        let w = find("mf-udp64-native").expect("workload");
        let inputs = Arc::new(Inputs::build(w, 7));
        let offer = Offer {
            packets: 300,
            gap_ns: 0,
            stall_ns: 20_000,
        };
        let raw = run(w, &inputs, PolicyKind::Vanilla, offer, None);
        let leg = evaluate(w, &inputs, &raw, offer.packets);
        assert!(leg.failures.is_empty(), "{:?}", leg.failures);
        assert!(
            leg.generator_bound,
            "gen.blocked_share {}",
            leg.value("gen.blocked_share")
        );
    }
}
