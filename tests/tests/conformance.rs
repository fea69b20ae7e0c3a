//! Differential conformance: the discrete-event simulator and the
//! real-thread dataplane executor run the same logical pipeline, and
//! every engine-independent invariant must agree.
//!
//! The two engines share the cost model, the steering math, and the
//! trace vocabulary, but nothing else — virtual time vs wall clock,
//! one thread vs a pinned pool. Whatever still matches is therefore a
//! property of the *pipeline*, not of an engine:
//!
//! * **Packet conservation** — delivered + dropped == injected, and the
//!   trace stream's enqueue/consume ledger balances per packet.
//! * **Stage-count per packet** — every delivered packet's `Deliver`
//!   event carries a hop count and hop digest that `check_stream`
//!   revalidates against the observed `StageExec` sequence; with GRO
//!   splitting on, the pipeline is exactly one hop deeper.
//! * **Per-(flow, device) order** — zero violations wherever the engine
//!   promises them (dataplane always; sim vanilla always; sim Falcon
//!   may migrate off hotspots, so only the stream ledger is required).
//! * **Drop-reason totals** — the per-reason counters and the trace's
//!   `QueueDrop` events tell the same story on both engines.
//!
//! The last two tests are the satellite direction check: on the
//! Figure-13 TCP-4KB shape, GRO splitting must not cost throughput in
//! either engine (and on real cores should buy some).

use falcon_dataplane::{
    available_cores, run_scenario, DataplaneReport, PolicyKind, Scenario, TrafficShape,
    SPLIT_STAGES, STAGES,
};
use falcon_experiments::scenario::Mode;
use falcon_integration_tests::{
    assert_dataplane_conforms, assert_sim_conforms, small_udp_runner, stage_checkpoints,
    tcp4k_falcon, tcp4k_runner, DATAPLANE_SPLIT_IF,
};
use falcon_simcore::SimDuration;
use falcon_trace::{EventKind, DELIVERY_CHECK};

/// Large enough that no conformance run wraps the sim trace ring.
const SIM_RING: usize = 1 << 20;

/// A traced dataplane scenario sized for invariant checking: stage
/// costs scaled down but kept far enough apart (work_scale 100) that
/// consecutive stage executions of one packet get distinct timestamps,
/// and a trace ring that provably never wraps (asserted post-run).
fn dp_scenario(split_gro: bool, workers: usize, flows: u64, packets: u64) -> Scenario {
    let mut s = Scenario {
        policy: PolicyKind::Falcon,
        workers,
        flows,
        packets,
        payload: 512,
        work_scale_milli: 100,
        inject_gap_ns: 0,
        pin: false,
        oversubscribe: true,
        trace_capacity: 1 << 18,
        ..Scenario::default()
    };
    if split_gro {
        s.split_gro = true;
        s.shape = TrafficShape::TcpGro { mss: 1448 };
        s.payload = 4096;
    }
    s
}

/// Every `Deliver` event in a dataplane trace must report the same
/// pipeline depth: `stages` softirq hops plus the delivery checkpoint.
fn assert_uniform_depth(out: &falcon_dataplane::RunOutput) {
    let want = out.stages() as u32 + 1;
    let mut seen = 0u64;
    for e in out.merged_events() {
        if let EventKind::Deliver { hops, .. } = e.kind {
            assert_eq!(hops, want, "a packet traversed the wrong stage count");
            seen += 1;
        }
    }
    assert_eq!(seen, out.delivered(), "every delivery must be traced");
}

/// The devices a trace shows steering decisions keyed by (Falcon's
/// choices, and its gated-off passes in the simulator).
fn steering_devices(events: &[falcon_trace::Event]) -> std::collections::BTreeSet<u32> {
    events
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::FalconChoice { ifindex, .. } | EventKind::FalconGated { ifindex, .. } => {
                Some(ifindex)
            }
            _ => None,
        })
        .collect()
}

/// Four-stage pipeline: both engines conserve packets, balance their
/// trace ledgers, agree drop totals with their counters, and neither
/// visits the GRO-split checkpoint.
#[test]
fn four_stage_conformance_agrees_across_engines() {
    // Simulator side (vanilla: strict order is also promised).
    let mut sim = small_udp_runner(falcon_integration_tests::falcon_mode(), 250_000.0, 512, 11);
    sim.enable_tracing(SIM_RING);
    sim.run_for(SimDuration::from_millis(6));
    assert_sim_conforms(&sim, false);
    let split_if = sim.machine().ifx.pnic_split;
    let sim_cps = stage_checkpoints(&sim.tracer().events());
    assert!(
        !sim_cps.contains(&split_if),
        "4-stage sim run must never execute the split half-stage"
    );

    // Dataplane side.
    let out = run_scenario(&dp_scenario(false, 2, 3, 3_000));
    assert_eq!(out.stages(), STAGES);
    assert_dataplane_conforms(&out);
    assert_uniform_depth(&out);
    let dp_cps = stage_checkpoints(&out.merged_events());
    assert!(!dp_cps.contains(&DATAPLANE_SPLIT_IF));
    // Distinct softirq checkpoints == pipeline depth (stage B shares
    // the pNIC device but is flagged as its own checkpoint).
    let softirq: Vec<u32> = dp_cps
        .into_iter()
        .filter(|&c| c != DELIVERY_CHECK)
        .collect();
    assert_eq!(softirq.len(), STAGES);
}

/// Five-stage pipeline: with `split_gro` on, both engines grow exactly
/// one extra softirq hop, and that hop runs at the synthetic split
/// device so steering can place it on its own core.
#[test]
fn five_stage_split_conformance_agrees_across_engines() {
    // Simulator side: the Figure-13 TCP-4KB shape, Falcon with GRO
    // splitting. The split half-stage appears at `eth0:gro`.
    let mut sim = tcp4k_runner(tcp4k_falcon(true), 2, 7);
    sim.enable_tracing(SIM_RING);
    sim.run_for(SimDuration::from_millis(4));
    assert_sim_conforms(&sim, false);
    let split_if = sim.machine().ifx.pnic_split;
    assert!(
        stage_checkpoints(&sim.tracer().events()).contains(&split_if),
        "sim split run never executed the GRO half-stage"
    );
    // The hop into the GRO half is a steering point keyed by the split
    // device, in both engines.
    assert!(
        steering_devices(&sim.tracer().events()).contains(&split_if),
        "sim split run never steered the GRO half-stage"
    );

    // Control: the same shape without splitting never visits it.
    let mut ctrl = tcp4k_runner(tcp4k_falcon(false), 2, 7);
    ctrl.enable_tracing(SIM_RING);
    ctrl.run_for(SimDuration::from_millis(4));
    assert_sim_conforms(&ctrl, false);
    assert!(!stage_checkpoints(&ctrl.tracer().events()).contains(&split_if));

    // Dataplane side: same invariant set, plus exact per-packet depth.
    let out = run_scenario(&dp_scenario(true, 3, 4, 2_500));
    assert_eq!(out.stages(), SPLIT_STAGES);
    assert_dataplane_conforms(&out);
    assert_uniform_depth(&out);
    let dp_cps = stage_checkpoints(&out.merged_events());
    assert!(
        dp_cps.contains(&DATAPLANE_SPLIT_IF),
        "dataplane split run never executed the GRO half-stage"
    );
    assert!(
        steering_devices(&out.merged_events()).contains(&DATAPLANE_SPLIT_IF),
        "dataplane split run never steered the GRO half-stage"
    );
    let softirq: Vec<u32> = dp_cps
        .into_iter()
        .filter(|&c| c != DELIVERY_CHECK)
        .collect();
    assert_eq!(softirq.len(), SPLIT_STAGES);
}

/// The acceptance gate: the five-stage pipeline under the PR-2 chaos
/// knobs — steering rotated every other packet, destination sweeps
/// stalled — must still satisfy the full conformance set, including the
/// trace-stream ledger.
#[test]
fn five_stage_chaos_conformance_holds() {
    let mut s = dp_scenario(true, 4, 2, 2_000);
    s.chaos_steer_period = 2;
    s.chaos_sweep_stall_ns = 800;
    let out = run_scenario(&s);
    assert_eq!(out.stages(), SPLIT_STAGES);
    assert_dataplane_conforms(&out);
    assert_uniform_depth(&out);
}

/// The sweep grid, differentially: every (flows × workers) cell of a
/// small grid runs the batched executor under the full conformance set
/// — conservation, per-packet stage counts via the hop digest, the
/// order audit, and the trace-stream ledger — on both pipeline shapes.
/// Batching (ring batches, outbox staging, deferred counter flushes)
/// must be invisible to every one of these invariants at every cell.
#[test]
fn sweep_grid_conforms_at_every_point() {
    for split in [false, true] {
        for flows in 1..=2u64 {
            for workers in 1..=2usize {
                let out = run_scenario(&dp_scenario(split, workers, flows, 1_200));
                assert_eq!(
                    out.stages(),
                    if split { SPLIT_STAGES } else { STAGES },
                    "grid cell ({flows}, {workers}) ran the wrong shape"
                );
                assert_dataplane_conforms(&out);
                assert_uniform_depth(&out);
            }
        }
    }
}

/// The sweep grid under the chaos knobs: forced steering rotation plus
/// stalled destination sweeps at every multi-worker cell. This is the
/// adversarial half of the acceptance gate — the batched hot path must
/// hold the order audit at zero while migrations are being hammered at
/// every grid point.
#[test]
fn sweep_grid_chaos_conformance_holds() {
    for flows in 1..=2u64 {
        for workers in 2..=3usize {
            let mut s = dp_scenario(true, workers, flows, 1_000);
            s.chaos_steer_period = 2;
            s.chaos_sweep_stall_ns = 500;
            let out = run_scenario(&s);
            assert_dataplane_conforms(&out);
            assert_uniform_depth(&out);
        }
    }
}

/// The `--sweep` artifact path end-to-end: the experiments crate's grid
/// runner (the same code behind `falcon-repro --dataplane --sweep`)
/// must produce one comparison per cell with conservation intact and
/// zero reorder violations — here with chaos steering layered on top of
/// every point, so the JSON consumers' pass/fail line
/// (`total_reorder_violations`) is demonstrably adversarial, not idle.
#[test]
fn sweep_report_audits_zero_violations_under_chaos() {
    use falcon_experiments::dataplane::run_sweep;
    use falcon_experiments::measure::Scale;
    let sweep = run_sweep(Scale::Quick, 2, 2, true, 3, false, None, false);
    assert_eq!(sweep.points.len(), 4, "2 flows x 2 workers");
    assert_eq!(sweep.total_reorder_violations(), 0);
    for p in &sweep.points {
        let c = &p.comparison;
        assert_eq!(c.vanilla.delivered + c.vanilla.dropped, c.vanilla.injected);
        assert_eq!(c.falcon.delivered + c.falcon.dropped, c.falcon.injected);
        assert!(c.vanilla.order_checks > 0);
        assert!(c.falcon.order_checks > 0);
    }
}

/// Drop accounting under pressure: tiny rings force mid-pipeline drops
/// in the dataplane, a hot sender forces ring drops in the sim, and on
/// both engines the trace's `QueueDrop` events must equal the engine's
/// own drop counters (asserted inside the conformance helpers).
#[test]
fn drop_reason_totals_agree_with_traces() {
    // Dataplane: 4-slot rings on the 5-stage shape all but guarantee
    // drops. "All but": on an oversubscribed host the injector thread
    // can be starved hard enough that packets trickle through without
    // ever filling a ring, so retry the provocation a couple of times.
    // Conformance is asserted on every attempt either way.
    let mut s = dp_scenario(true, 3, 2, 4_000);
    s.ring_capacity = 4;
    let mut provoked = false;
    for _ in 0..3 {
        let out = run_scenario(&s);
        assert_dataplane_conforms(&out);
        if out.dropped() > 0 {
            provoked = true;
            break;
        }
    }
    assert!(provoked, "scenario failed to provoke drops in 3 attempts");

    // Simulator: overdrive the single-flow sender against the
    // serialized vanilla overlay, which saturates (and drops) first.
    let mut sim = small_udp_runner(Mode::Vanilla, 2_500_000.0, 512, 3);
    sim.enable_tracing(SIM_RING);
    sim.run_for(SimDuration::from_millis(6));
    assert_sim_conforms(&sim, false);
    assert!(
        sim.counters().total_drops() > 0,
        "sim scenario failed to provoke drops"
    );
}

/// Satellite direction check, simulator side: on the Figure-13 TCP-4KB
/// shape, the GRO-split pipeline must out-deliver the unsplit one.
///
/// The sim's split comparison is the figure's own: Host+ (the host
/// network with `split_gro`) against plain Host. Falcon-vs-Falcon is
/// *not* a clean split measurement in the simulator, because the
/// unsplit NIC poll coalesces consecutive same-flow segments right out
/// of the ring — a second confounding variable the split path
/// deliberately defers — while on real cores the dataplane test below
/// isolates the split itself. Virtual time makes this deterministic;
/// at 1–2 flows the sim shows the paper's Figure-13 lift (~1.5x at one
/// flow), and the band below only asserts the direction.
#[test]
fn sim_split_gro_lifts_tcp4k_throughput() {
    let delivered = |mode: Mode| {
        let mut runner = tcp4k_runner(mode, 1, 42);
        runner.run_for(SimDuration::from_millis(8));
        runner.counters().total_delivered()
    };
    let plain = delivered(Mode::Host);
    let split = delivered(match tcp4k_falcon(true) {
        Mode::Falcon(cfg) => Mode::HostPlus(cfg),
        _ => unreachable!(),
    });
    assert!(plain > 0, "no-split run delivered nothing");
    assert!(
        split as f64 >= plain as f64 * 1.05,
        "GRO splitting lost throughput in the sim: split {split} vs plain {plain}"
    );
}

/// Satellite direction check, dataplane side: the same comparison on
/// real cores. Needs at least four logical cores for pipelining to
/// beat serialization at all; on smaller hosts this test *skips
/// explicitly* (with a message) rather than passing silently.
#[test]
fn dataplane_split_gro_speedup_direction() {
    let cores = available_cores();
    if cores < 4 {
        eprintln!(
            "SKIPPED dataplane_split_gro_speedup_direction: needs >=4 logical \
             cores to pipeline across, host has {cores}"
        );
        return;
    }
    let throughput = |split: bool| {
        let mut s = Scenario {
            policy: PolicyKind::Falcon,
            workers: cores.min(SPLIT_STAGES),
            flows: 2,
            packets: 20_000,
            payload: 4096,
            shape: TrafficShape::TcpGro { mss: 1448 },
            split_gro: split,
            work_scale_milli: 250,
            inject_gap_ns: 0,
            trace_capacity: 0,
            ..Scenario::default()
        };
        if !split {
            s.workers = cores.min(STAGES);
        }
        DataplaneReport::from_run(&run_scenario(&s)).throughput_pps
    };
    let plain = throughput(false);
    let split = throughput(true);
    assert!(
        split >= plain * 0.9,
        "GRO splitting lost throughput on real cores: split {split:.0} vs plain {plain:.0} pps"
    );
}
