//! Shared helpers for the cross-crate integration tests in `tests/`.
//!
//! Besides the small scenario builders, this crate hosts the
//! *differential conformance* vocabulary used by
//! `tests/conformance.rs`: the same logical pipeline runs in two
//! engines — the discrete-event simulator (virtual time, one thread)
//! and the `falcon-dataplane` executor (real threads, wall clock) — and
//! the invariants that are engine-independent must agree. Each engine
//! gets an `assert_*_conforms` helper that checks its own books
//! (conservation, ordering, trace-stream consistency) and returns the
//! [`ConservationReport`] so the test can then compare the
//! cross-engine facts: pipeline depth, drop accounting, and the
//! presence of the GRO-split half-stage.

use falcon::FalconConfig;
use falcon_cpusim::CpuSet;
use falcon_dataplane::{run_scenario, DataplaneReport, PolicyKind, RunOutput, PNIC_SPLIT_IF};
use falcon_experiments::dataplane::scenario_for;
use falcon_experiments::measure::Scale;
use falcon_experiments::scenario::{Mode, Scenario, MF_APP_CORES, SF_APP_CORE};
use falcon_netdev::LinkSpeed;
use falcon_netstack::sim::SimRunner;
use falcon_netstack::{KernelVersion, Pacing};
use falcon_trace::{check_stream, ConservationReport, DropReason, EventKind};
use falcon_wire::FrameFactory;
use falcon_workloads::{TcpStreams, TcpStreamsConfig, UdpStressApp, UdpStressConfig};

/// Builds a small single-flow UDP scenario for invariant testing.
pub fn small_udp_runner(mode: Mode, rate: f64, payload: usize, seed: u64) -> SimRunner {
    let scenario =
        Scenario::single_flow(mode, KernelVersion::K419, LinkSpeed::HundredGbit).with_seed(seed);
    let mut cfg = UdpStressConfig::single_flow(payload);
    cfg.senders_per_flow = 2;
    cfg.pacing = Pacing::PoissonPps(rate / 2.0);
    cfg.app_cores = vec![SF_APP_CORE];
    scenario.build(Box::new(UdpStressApp::new(cfg)))
}

/// The default Falcon mode for the single-flow shape.
pub fn falcon_mode() -> Mode {
    Mode::Falcon(FalconConfig::new(CpuSet::range(1, 5)))
}

/// The Figure-13 multi-flow Falcon mode: dedicated pipeline cores 4–7,
/// optionally with the pNIC stage split into its alloc/GRO halves.
pub fn tcp4k_falcon(split_gro: bool) -> Mode {
    Mode::Falcon(FalconConfig::new(CpuSet::range(4, 8)).with_split_gro(split_gro))
}

/// Builds the Figure-13 TCP-4KB shape: `flows` streams of 4096-byte
/// messages, deep windows, RPS pinned to cores 0–3 so the Falcon cores
/// 4–7 stay dedicated to pipelined stages. This is the traffic whose
/// pNIC stage carries the ~45 %/~45 % alloc/GRO split the paper's §4.2
/// peels apart; UDP would never exercise the fifth stage (the sim only
/// splits GRO-eligible TCP flows).
pub fn tcp4k_runner(mode: Mode, flows: usize, seed: u64) -> SimRunner {
    let scenario = Scenario::multi_flow(mode, KernelVersion::K419, LinkSpeed::HundredGbit)
        .with_seed(seed)
        .tweak(|stack| {
            stack.rps = Some(CpuSet::range(0, 4));
        });
    let mut cfg = TcpStreamsConfig::single(4096);
    cfg.n_flows = flows;
    cfg.window = 384;
    cfg.app_cores = MF_APP_CORES.to_vec();
    scenario.build(Box::new(TcpStreams::new(cfg)))
}

/// Asserts the simulator-side conformance invariants on a traced run
/// and returns the stream report for cross-engine comparison.
///
/// `require_order` should be true for vanilla (which never migrates
/// stages) and false for Falcon, whose hotspot-escape migrations may
/// legally reorder a handful of packets.
pub fn assert_sim_conforms(runner: &SimRunner, require_order: bool) -> ConservationReport {
    let tracer = runner.tracer();
    assert_eq!(tracer.overflow(), 0, "sim trace ring wrapped; size it up");
    let report = check_stream(&tracer.events());
    assert!(report.enqueues > 0, "sim trace saw no traffic");
    assert!(report.delivered > 0, "sim trace saw no deliveries");
    assert!(
        report.unmatched.is_empty(),
        "sim enqueue/consume imbalance (first 5): {:?}",
        &report.unmatched[..report.unmatched.len().min(5)]
    );
    assert!(
        report.hop_mismatches.is_empty(),
        "sim hop-digest mismatches (first 5): {:?}",
        &report.hop_mismatches[..report.hop_mismatches.len().min(5)]
    );
    if require_order {
        assert!(
            report.order_violations.is_empty(),
            "sim order violations: {:?}",
            report.order_violations
        );
    }
    // Drop-reason totals: every counted drop produced one QueueDrop.
    assert_eq!(
        report.drops,
        runner.counters().total_drops(),
        "sim trace drops disagree with unified counters"
    );
    report
}

/// A 2 × 2 (flows, workers) scaling grid on the real-thread dataplane:
/// at each cell, the quick preset (`work_scale_milli` 250) capped at
/// 3,000 packets, run under Vanilla and then Falcon and condensed.
/// Every cell oversubscribes, so the workers axis is not clamped to the
/// host's cores; a nonzero `chaos_steer_period` forces migrations on
/// the Falcon leg (Vanilla has no hop that can move).
pub fn quick_sweep(
    split_gro: bool,
    wire: bool,
    chaos_steer_period: u64,
) -> Vec<[DataplaneReport; 2]> {
    let mut points = Vec::new();
    for flows in 1..=2 {
        for workers in 1..=2 {
            let mut s = scenario_for(Scale::Quick, workers, flows, split_gro, wire);
            s.packets = 3_000;
            s.oversubscribe = true;
            s.chaos_steer_period = chaos_steer_period;
            points.push([PolicyKind::Vanilla, PolicyKind::Falcon].map(|policy| {
                DataplaneReport::from_run(&run_scenario(&s.clone().with_policy(policy)))
            }));
        }
    }
    points
}

/// Asserts the dataplane-side conformance invariants on a run and
/// returns the stream report (empty if the run was untraced).
///
/// Checks the executor's own books — exact conservation, a zero from
/// the per-(flow, device) order audit, per-stage execution accounting
/// keyed on [`RunOutput::stages`] (never a hardcoded 4) — and, when a
/// trace was captured, replays the identical `check_stream` pass the
/// simulator's stream must satisfy.
pub fn assert_dataplane_conforms(out: &RunOutput) -> ConservationReport {
    assert_eq!(
        out.delivered() + out.dropped(),
        out.injected,
        "dataplane conservation: every packet delivered or dropped"
    );
    let (checks, violations) = out.order_audit();
    assert!(checks > 0, "dataplane order audit observed nothing");
    assert_eq!(violations, 0, "dataplane per-(flow, device) order violated");
    let by_reason: u64 = out.drops_by_reason().iter().sum();
    assert_eq!(by_reason, out.dropped(), "drop-reason totals must close");

    // Stage accounting: stage s executes once per packet that reached
    // it, so `executions == packets × stages` holds per stage, with the
    // deficit between neighbours exactly the drops at that hop.
    let stages = out.stages();
    let per_stage = out.processed_per_stage();
    assert_eq!(per_stage.len(), stages);
    assert_eq!(per_stage[0], out.injected - out.inject_drops);
    assert_eq!(per_stage[stages - 1], out.delivered());
    assert!(
        per_stage.windows(2).all(|w| w[0] >= w[1]),
        "a later stage executed more often than an earlier one"
    );
    let in_pipeline_drops: u64 = out
        .workers_stats
        .iter()
        .map(|w| w.drops.iter().sum::<u64>())
        .sum();
    let deficit: u64 = per_stage.windows(2).map(|w| w[0] - w[1]).sum();
    assert_eq!(deficit, in_pipeline_drops);

    if out.merged_events().is_empty() {
        return ConservationReport::default();
    }
    assert_eq!(out.trace_overflow(), 0, "dataplane trace ring wrapped");
    let report = check_stream(&out.merged_events());
    assert!(report.delivered > 0, "dataplane trace saw no deliveries");
    assert!(
        report.unmatched.is_empty(),
        "dataplane enqueue/consume imbalance (first 5): {:?}",
        &report.unmatched[..report.unmatched.len().min(5)]
    );
    assert!(
        report.hop_mismatches.is_empty(),
        "dataplane hop-digest mismatches (first 5): {:?}",
        &report.hop_mismatches[..report.hop_mismatches.len().min(5)]
    );
    assert!(
        report.order_violations.is_empty(),
        "dataplane trace order violations: {:?}",
        report.order_violations
    );
    assert_eq!(report.delivered, out.delivered());
    assert_eq!(
        report.drops,
        out.dropped(),
        "dataplane trace drops disagree with run counters"
    );
    report
}

/// Asserts the wire-mode conformance invariants on a run and returns
/// the stream report (empty if the run was untraced).
///
/// This is the malformed-aware sibling of [`assert_dataplane_conforms`]:
/// corrupted frames legally drop *mid-stage* (before the stage's
/// `processed` bump), so the strict `per_stage[0] == injected -
/// inject_drops` book no longer holds — each stage's execution count is
/// instead down by exactly the frames it rejected as malformed. On top
/// of the relaxed stage books this adds the wire oracle: every
/// delivered `(flow, seq)` payload digest must equal what
/// [`FrameFactory`] generated for it, bit for bit, and byte counters
/// must close against the delivery count. With corruption off the
/// malformed counts are all zero and this helper is exactly as strict
/// as the plain one.
pub fn assert_wire_conforms(out: &RunOutput, payload: usize) -> ConservationReport {
    assert!(out.wire, "assert_wire_conforms needs a wire-mode run");
    assert_eq!(
        out.delivered() + out.dropped(),
        out.injected,
        "wire conservation: every packet delivered or dropped"
    );
    let (checks, violations) = out.order_audit();
    assert!(checks > 0, "wire order audit observed nothing");
    assert_eq!(violations, 0, "wire per-(flow, device) order violated");
    let lost_wakeups: u64 = out.workers_stats.iter().map(|w| w.lost_wakeups).sum();
    assert_eq!(
        lost_wakeups, 0,
        "a parked worker waited out its safety timeout with packets queued"
    );
    let by_reason = out.drops_by_reason();
    assert_eq!(
        by_reason.iter().sum::<u64>(),
        out.dropped(),
        "drop-reason totals must close"
    );

    // The differential oracle: the executor never saw the generator,
    // only bytes, yet every delivered payload must hash to exactly what
    // the factory built for that (flow, seq). Corruption cannot forge a
    // delivery — a flipped frame either dies as Malformed or (when the
    // flip lands in a field no stage checks) still carries the original
    // payload untouched.
    let deliveries = out.deliveries();
    assert_eq!(deliveries.len() as u64, out.delivered());
    for &(flow, seq, digest) in &deliveries {
        assert_eq!(
            digest,
            FrameFactory::expected_digest(flow, seq, payload),
            "payload digest mismatch at flow {flow} seq {seq}"
        );
    }
    assert_eq!(
        out.bytes_delivered(),
        out.delivered() * payload as u64,
        "delivered bytes must equal deliveries x payload"
    );
    assert!(
        out.bytes_injected >= out.bytes_delivered(),
        "cannot deliver more application bytes than were injected"
    );

    // Malformed accounting: the per-stage counts close against the
    // reason total, and the stage books hold with the malformed deficit
    // folded in.
    let malformed = out.malformed_per_stage();
    let stages = out.stages();
    let per_stage = out.processed_per_stage();
    assert_eq!(per_stage.len(), stages);
    assert_eq!(malformed.len(), stages);
    assert_eq!(
        malformed.iter().sum::<u64>(),
        by_reason[DropReason::Malformed.index()],
        "per-stage malformed counts must sum to the reason total"
    );
    assert_eq!(per_stage[0], out.injected - out.inject_drops - malformed[0]);
    assert_eq!(per_stage[stages - 1], out.delivered());
    for s in 1..stages {
        assert!(
            per_stage[s] + malformed[s] <= per_stage[s - 1],
            "stage {s} executed more packets than its predecessor passed on"
        );
    }
    let in_pipeline_drops: u64 = out
        .workers_stats
        .iter()
        .map(|w| w.drops.iter().sum::<u64>())
        .sum();
    assert_eq!(
        (out.injected - out.inject_drops) - out.delivered(),
        in_pipeline_drops,
        "everything past the injector ring is delivered or drop-counted"
    );

    if out.merged_events().is_empty() {
        return ConservationReport::default();
    }
    assert_eq!(out.trace_overflow(), 0, "wire trace ring wrapped");
    let report = check_stream(&out.merged_events());
    assert!(report.delivered > 0, "wire trace saw no deliveries");
    assert!(
        report.unmatched.is_empty(),
        "wire enqueue/consume imbalance (first 5): {:?}",
        &report.unmatched[..report.unmatched.len().min(5)]
    );
    assert!(
        report.hop_mismatches.is_empty(),
        "wire hop-digest mismatches (first 5): {:?}",
        &report.hop_mismatches[..report.hop_mismatches.len().min(5)]
    );
    assert!(
        report.order_violations.is_empty(),
        "wire trace order violations: {:?}",
        report.order_violations
    );
    assert_eq!(report.delivered, out.delivered());
    assert_eq!(
        report.drops,
        out.dropped(),
        "wire trace drops disagree with run counters"
    );
    report
}

/// The distinct softirq checkpoints (devices) a traced run executed
/// stages at. The GRO-split half-stage shows up here as its synthetic
/// device — `eth0:gro` in the sim, [`PNIC_SPLIT_IF`] in the dataplane —
/// so pipeline depth is comparable across engines.
pub fn stage_checkpoints(events: &[falcon_trace::Event]) -> std::collections::BTreeSet<u32> {
    events
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::StageExec { checkpoint, .. } => Some(checkpoint),
            _ => None,
        })
        .collect()
}

/// Convenience re-export so conformance tests name the split device the
/// same way the executor does.
pub const DATAPLANE_SPLIT_IF: u32 = PNIC_SPLIT_IF;
