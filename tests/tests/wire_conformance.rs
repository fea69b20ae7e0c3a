//! Wire-mode differential conformance: real bytes through real threads.
//!
//! In wire mode every injected descriptor carries an actual
//! VXLAN-encapsulated Ethernet frame, and every stage does its real
//! slice of the kernel's work on those bytes — outer parse and checksum
//! at the pNIC, segment coalescing in the GRO half, offset-based decap
//! at the VXLAN device, FDB lookup at the bridge, inner-checksum verify
//! and payload digest at delivery. The oracle is *differential*: the
//! executor never talks to the frame generator, yet every delivered
//! payload digest must equal what [`FrameFactory`] built for that
//! `(flow, seq)` — across both steering policies, the split-GRO
//! five-stage shape, a sweep grid, and with a chaos corruptor flipping
//! bits on the wire.
//!
//! With corruption on, the books must still close exactly: every
//! flipped frame either dies at the precise stage whose check it broke
//! (counted per stage under `DropReason::Malformed`) or — when the flip
//! lands in a field no stage inspects — delivers with its payload
//! provably untouched. No silent corruption, no double counting.

use falcon_dataplane::{run_scenario, PolicyKind, Scenario, TrafficShape};
use falcon_integration_tests::{assert_dataplane_conforms, assert_wire_conforms, quick_sweep};
use falcon_trace::DropReason;

/// A traced wire-mode scenario sized for invariant checking (same
/// shape discipline as `conformance.rs`'s `dp_scenario`).
fn wire_scenario(policy: PolicyKind, workers: usize, flows: u64, packets: u64) -> Scenario {
    Scenario {
        policy,
        workers,
        flows,
        packets,
        payload: 512,
        work_scale_milli: 100,
        inject_gap_ns: 0,
        pin: false,
        oversubscribe: true,
        trace_capacity: 1 << 18,
        wire: true,
        ..Scenario::default()
    }
}

/// Same, on the Figure-13 TCP-4KB split-GRO shape: each injected unit
/// is a whole 4096-byte message arriving as three 1448-byte MSS
/// segments that the GRO half-stage must coalesce back together.
fn wire_split_scenario(policy: PolicyKind, workers: usize, flows: u64, packets: u64) -> Scenario {
    let mut s = wire_scenario(policy, workers, flows, packets);
    s.split_gro = true;
    s.shape = TrafficShape::TcpGro { mss: 1448 };
    s.payload = 4096;
    s
}

/// Corruption off: on the four-stage UDP shape, both steering policies
/// deliver every payload bit-exact, and the strict (malformed-free)
/// conformance helper agrees with the wire-aware one.
#[test]
fn wire_digests_match_generator_under_both_policies() {
    for policy in [PolicyKind::Vanilla, PolicyKind::Falcon] {
        let s = wire_scenario(policy, 2, 3, 3_000);
        let out = run_scenario(&s);
        assert!(out.delivered() > 0, "{policy:?} wire run delivered nothing");
        assert_eq!(out.malformed_per_stage().iter().sum::<u64>(), 0);
        assert_dataplane_conforms(&out);
        assert_wire_conforms(&out, s.payload);
    }
}

/// Corruption off, five-stage split-GRO: the GRO half coalesces the MSS
/// segments back into one message per descriptor, and the delivered
/// digest is the digest of the *whole* reassembled message — under both
/// policies, with the per-segment encapsulation overhead visible in
/// `bytes_injected`.
#[test]
fn wire_split_gro_digests_match_whole_messages() {
    for policy in [PolicyKind::Vanilla, PolicyKind::Falcon] {
        let s = wire_split_scenario(policy, 3, 2, 1_500);
        let out = run_scenario(&s);
        assert!(
            out.delivered() > 0,
            "{policy:?} split wire run delivered nothing"
        );
        assert_dataplane_conforms(&out);
        assert_wire_conforms(&out, s.payload);
        // Three segments per message, each re-encapsulated: the wire
        // carries strictly more than the application payload.
        assert!(
            out.bytes_injected > out.injected * s.payload as u64,
            "encap + segmentation overhead must show up on the wire"
        );
    }
}

/// Corruption off, a small sweep grid over flows x workers on both
/// policies: the digest oracle holds at every cell.
#[test]
fn wire_sweep_grid_holds_digest_oracle() {
    for policy in [PolicyKind::Vanilla, PolicyKind::Falcon] {
        for flows in 1..=2u64 {
            for workers in 1..=2usize {
                let s = wire_scenario(policy, workers, flows, 1_200);
                let out = run_scenario(&s);
                assert!(out.delivered() > 0);
                assert_wire_conforms(&out, s.payload);
            }
        }
    }
}

/// Corruption on: a chaos corruptor flips one bit in ~30 % of wire
/// segments. Every corrupted frame must either be rejected at the exact
/// stage whose verification it broke — counted per stage under
/// `DropReason::Malformed`, with conservation intact — or deliver with
/// a bit-exact payload (the flip landed in a field no stage checks:
/// outer source MAC, VXLAN reserved bytes, a zeroed checksum field).
#[test]
fn wire_corruption_accounts_every_drop_per_stage() {
    let mut s = wire_scenario(PolicyKind::Falcon, 2, 3, 4_000);
    s.corrupt_per_million = 300_000;
    s.wire_seed = 7;
    let out = run_scenario(&s);
    assert!(out.corrupted_segments > 0, "the corruptor never fired");
    let malformed = out.drops_by_reason()[DropReason::Malformed.index()];
    assert!(malformed > 0, "30 % corruption must kill some frames");
    assert!(out.delivered() > 0, "most frames must still get through");
    assert_wire_conforms(&out, s.payload);
}

/// Corruption and chaos steering together, on the five-stage split
/// shape: forced migrations hammer the in-flight guard while malformed
/// segments drop mid-GRO, and the order audit plus the per-stage books
/// must still come out exact.
#[test]
fn wire_corruption_survives_chaos_steering_on_split_shape() {
    let mut s = wire_split_scenario(PolicyKind::Falcon, 3, 2, 1_500);
    s.corrupt_per_million = 200_000;
    s.wire_seed = 21;
    s.chaos_steer_period = 2;
    let out = run_scenario(&s);
    assert!(out.corrupted_segments > 0, "the corruptor never fired");
    assert!(out.delivered() > 0);
    assert!(
        out.drops_by_reason()[DropReason::Malformed.index()] > 0,
        "corrupting 20 % of segments must break some coalesces"
    );
    assert_wire_conforms(&out, s.payload);
}

/// The sweep grid with wire bytes: every cell of the 2 × 2 (flows,
/// workers) grid carries real bytes under both policies, audits zero
/// reorder violations and reports non-zero goodput.
#[test]
fn wire_sweep_artifact_carries_bytes_and_audits_clean() {
    let points = quick_sweep(false, true, 0);
    assert_eq!(points.len(), 4, "2 flows x 2 workers");
    for r in points.iter().flatten() {
        assert_eq!(r.reorder_violations, 0);
        assert!(r.wire, "sweep cell lost the wire flag");
        assert!(r.bytes_in > 0, "sweep cell injected no bytes");
        assert!(r.bytes_out > 0, "sweep cell delivered no bytes");
        assert!(r.goodput_gbps > 0.0);
        assert_eq!(r.delivered + r.dropped, r.injected);
    }
}
