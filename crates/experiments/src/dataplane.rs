//! The real-thread dataplane's scenario presets and its Perfetto
//! timeline.
//!
//! Everything else in this crate measures the *simulation* (virtual
//! time, one thread). This module sizes
//! [`falcon_dataplane::run_scenario`] runs, where the same modeled
//! stage costs are busy-spun on real pinned threads, for the two
//! scales, and exports a traced Falcon run (`falcon-repro
//! --dataplane-trace`) so the thread-level pipelining is visible. The
//! dataplane's performance numbers come from the `falcon-benchmark`
//! package (`benchmark/`), not from here.
//!
//! With `split_gro` the preset switches to the Figure-13 TCP-4KB shape
//! (one GRO-coalesced 4096-byte message per injected unit, MSS 1448)
//! and runs the five-hop pipeline: that is the traffic whose pNIC
//! stage carries the ~45 %/~45 % alloc/GRO halves splitting exists to
//! peel apart. On UDP the pNIC stage is never the bottleneck, so a
//! split run there would measure nothing.

use falcon_dataplane::{run_scenario, PolicyKind, Scenario, TelemetrySpec, TrafficShape};
use falcon_trace::chrome;

use crate::measure::Scale;

/// The dataplane scenario at a given scale.
///
/// `Quick` shrinks the packet count and scales the stage costs down so
/// a smoke run finishes in tens of milliseconds even on a loaded 2-core
/// CI runner; `Full` runs the model costs as-is for a measurement worth
/// quoting. With `split_gro`, the scenario injects the TCP-4KB shape
/// and the pipeline grows the fifth (GRO-half) hop. With `wire`, every
/// injected unit carries real VXLAN-encapsulated bytes and each stage
/// does its byte-level slice of work inside the modeled budget.
pub fn scenario_for(
    scale: Scale,
    workers: usize,
    flows: u64,
    split_gro: bool,
    wire: bool,
) -> Scenario {
    let mut base = Scenario {
        wire,
        ..Scenario::default()
    };
    if split_gro {
        base.split_gro = true;
        base.shape = TrafficShape::TcpGro { mss: 1448 };
        base.payload = 4096;
    }
    match scale {
        Scale::Quick => Scenario {
            workers,
            flows,
            packets: 6_000,
            work_scale_milli: 250,
            ..base
        },
        Scale::Full => Scenario {
            workers,
            flows,
            packets: if split_gro { 40_000 } else { 80_000 },
            work_scale_milli: 1000,
            ..base
        },
    }
}

/// Runs a traced Falcon dataplane pass and returns Perfetto JSON.
///
/// Uses a reduced packet count so the trace stays loadable; the point
/// of the artifact is *seeing* the stages of one flow overlap on
/// different worker tracks, not volume.
pub fn chrome_trace(scale: Scale, workers: usize, flows: u64, split_gro: bool) -> String {
    let mut scenario =
        scenario_for(scale, workers, flows, split_gro, false).with_policy(PolicyKind::Falcon);
    scenario.packets = scenario.packets.min(3_000);
    scenario.trace_capacity = 64 * 1024;
    // A traced run also carries telemetry: the sampler's snapshots
    // become Perfetto counter tracks (ring depth, stall shares) drawn
    // above the per-worker slice tracks. A short interval keeps the
    // counters dense enough to see on a run this brief.
    scenario.telemetry = Some(TelemetrySpec {
        interval_ms: 5,
        jsonl_path: None,
        prom_addr: None,
        prom_addr_tx: None,
    });
    let out = run_scenario(&scenario);
    let tracks = out
        .telemetry
        .as_ref()
        .map(|run| falcon_telemetry::counter_tracks(&run.samples))
        .unwrap_or_default();
    chrome::export_with_counters(&out.merged_events(), &out.meta, &tracks)
}

#[cfg(test)]
mod tests {
    use super::*;
    use falcon_dataplane::{ConntrackOracle, DataplaneReport, RunOutput};

    /// The quick preset at 2 workers under `policy`, run and condensed.
    fn quick(
        policy: PolicyKind,
        flows: u64,
        split_gro: bool,
        wire: bool,
    ) -> (RunOutput, DataplaneReport) {
        let scenario = scenario_for(Scale::Quick, 2, flows, split_gro, wire).with_policy(policy);
        let out = run_scenario(&scenario);
        let report = DataplaneReport::from_run(&out);
        (out, report)
    }

    const BOTH: [PolicyKind; 2] = [PolicyKind::Vanilla, PolicyKind::Falcon];

    #[test]
    fn quick_comparison_is_sound() {
        for policy in BOTH {
            let (_, r) = quick(policy, 1, false, false);
            assert_eq!(r.delivered + r.dropped, r.injected);
            assert_eq!(r.reorder_violations, 0);
        }
    }

    #[test]
    fn quick_wire_comparison_carries_bytes() {
        for policy in BOTH {
            let (_, r) = quick(policy, 2, false, true);
            assert!(r.wire);
            assert_eq!(r.delivered + r.dropped, r.injected);
            assert!(r.bytes_in > 0, "wire bytes were injected");
            assert_eq!(r.bytes_out, r.delivered * 64, "64 B payload per packet");
            assert!(r.goodput_gbps > 0.0);
            assert_eq!(r.corrupted_segments, 0);
            assert_eq!(r.malformed_per_stage.values().sum::<u64>(), 0);
            assert_eq!(r.reorder_violations, 0);
        }
    }

    #[test]
    fn quick_split_comparison_runs_five_stages() {
        for policy in BOTH {
            let (_, r) = quick(policy, 1, true, false);
            assert!(r.split_gro);
            assert_eq!(r.stages, 5);
            assert_eq!(r.delivered + r.dropped, r.injected);
            assert_eq!(r.reorder_violations, 0);
            assert!(r.processed_per_stage.contains_key("pnic_gro"));
        }
    }

    #[test]
    fn quick_replicate_comparison_carries_oracle() {
        let (vanilla_out, v) = quick(PolicyKind::Vanilla, 1, false, true);
        let (repl_out, r) = quick(PolicyKind::Replicate, 1, false, true);
        assert!(r.wire);
        assert_eq!(r.policy, "replicate");
        assert_eq!(r.delivered + r.dropped, r.injected);
        assert_eq!(r.reorder_violations, 0, "replicate leg ran a packet twice");
        let ct = r.conntrack.as_ref().expect("conntrack report on wire run");
        assert!(ct.updates > 0);
        if v.dropped == 0 && r.dropped == 0 {
            let o = ConntrackOracle::new(&vanilla_out, &repl_out);
            assert!(o.tables_equal, "SCR merge diverged from ground truth");
            assert!(o.deliveries_equal, "delivery multisets diverged");
        }
    }

    #[test]
    fn quick_flow_cache_comparison_records_both_legs() {
        let (_, uncached) = quick(PolicyKind::Falcon, 2, false, true);
        assert!(
            uncached.flow_cache.is_none(),
            "uncached legs carry no cache counters"
        );
        let mut scenario =
            scenario_for(Scale::Quick, 2, 2, false, true).with_policy(PolicyKind::Falcon);
        scenario.flow_cache = true;
        scenario.flow_cache_entries = 1024;
        let cached = DataplaneReport::from_run(&run_scenario(&scenario));
        assert!(cached.wire);
        assert_eq!(cached.delivered + cached.dropped, cached.injected);
        assert_eq!(cached.reorder_violations, 0);
        let fc = cached.flow_cache.as_ref().expect("cache counters");
        assert!(fc.hits > 0);
        assert!(
            fc.hit_rate >= 0.9,
            "steady-flow hit rate must clear 0.9, got {}",
            fc.hit_rate
        );
    }

    #[test]
    fn dataplane_trace_exports_perfetto_json() {
        let json = chrome_trace(Scale::Quick, 2, 1, false);
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("pnic_poll"), "stage slices present");
    }

    #[test]
    fn split_trace_exports_the_gro_half() {
        let json = chrome_trace(Scale::Quick, 2, 1, true);
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("pnic_gro"), "gro half slices present");
    }
}
