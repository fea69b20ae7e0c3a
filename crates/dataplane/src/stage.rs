//! The stage work: what each pipeline stage is and what it does to a
//! packet's bytes.
//!
//! The pipeline runs the modeled overlay receive path, with stage costs
//! from the same [`CostModel`] the simulation uses (`overlay_udp_stage_ns`
//! and friends):
//!
//! ```text
//! injector ─▸ [A pnic_poll] ─▸ [B outer_stack] ─▸ [C gro_cell] ─▸ [D container_stack] ─▸ deliver
//!              RSS worker        same worker        steered          steered
//! ```
//!
//! A→B is always local (driver poll feeds the same CPU's backlog, as in
//! the kernel); B→C and C→D are the two steering points the paper's
//! softirq pipelining exploits, keyed by the vxlan and veth ifindexes.
//!
//! With [`Scenario::split_gro`](crate::Scenario::split_gro) on, the pNIC stage itself splits into
//! its `skb_allocation` and `napi_gro_receive` halves (paper §4.2, the
//! Figure 13 "Host+" mechanism) and the pipeline grows a fifth hop:
//!
//! ```text
//! injector ─▸ [A1 alloc] ─▸ [A2 gro] ─▸ [B] ─▸ [C] ─▸ [D] ─▸ deliver
//!              RSS worker    steered    local  steered steered
//! ```
//!
//! The A1→A2 hop is a steering point keyed by a synthetic device,
//! [`PNIC_SPLIT_IF`]: Falcon's `(flow, device)` hash then places the
//! GRO half on its own core, exactly how the paper peels the two ~45 %
//! halves of the TCP-4KB bottleneck stage apart. A2→B stays local (GRO
//! completion flows straight into the stack dispatch on the same CPU).
//!
//! Both shapes are written down once, as stage plans: one [`StageSpec`]
//! row per stage giving its label, checkpoint, the steering device of
//! the hop into it, the queue it reads (which fixes the trace event of
//! an enqueue and the drop reason when it is full) and its wire-mode
//! byte work ([`wire_stage_work`]). The stage plan is the one place the
//! pipeline shape lives; the worker loop, the wire work, the drop
//! accounting and the trace emission all read the row instead of asking
//! which shape runs.

use std::sync::Arc;

use falcon_conntrack::ConnShard;
use falcon_netstack::CostModel;
use falcon_packet::{MacAddr, WireBuf};
use falcon_trace::{DropReason, EventKind, TraceMeta, STAGE_B_CHECK};
use falcon_wire::{
    bridge_lookup, conn_observe, deliver_verify, flow_cache_key, full_verdict, gro_coalesce,
    pnic_verify, vxlan_decap, Delivery, FlowCache, Lookup, SharedFdb, WireError,
};

/// Ifindex of the physical NIC (stage A, and B via the stage-B flag).
pub const PNIC_IF: u32 = 1;
/// Ifindex of the vxlan device (stage C's input queue — the gro_cell).
pub const VXLAN_IF: u32 = 2;
/// Ifindex of the container-side veth (stage D's input backlog).
pub const VETH_IF: u32 = 3;
/// Synthetic ifindex of the split-off `napi_gro_receive` half-stage
/// (the simulator's "eth0:gro" device). Giving the half its own device
/// id is what lets Falcon's `(flow, device)` hash steer it to a core
/// distinct from the allocation half.
pub const PNIC_SPLIT_IF: u32 = 4;

/// Number of pipeline stages in the unsplit path.
pub const STAGES: usize = 4;
/// Number of pipeline stages with GRO splitting on.
pub const SPLIT_STAGES: usize = 5;

/// Device table for trace export: the devices whose checkpoints the
/// plan's stages stamp.
pub(crate) fn trace_meta(plan: &[StageSpec], workers: usize) -> TraceMeta {
    const DEVICES: [(u32, &str); 4] = [
        (PNIC_IF, "pnic"),
        (VXLAN_IF, "vxlan0"),
        (VETH_IF, "veth0"),
        (PNIC_SPLIT_IF, "pnic:gro"),
    ];
    TraceMeta {
        n_cores: workers,
        devices: DEVICES
            .iter()
            .filter(|(dev, _)| plan.iter().any(|s| s.checkpoint == *dev))
            .map(|&(dev, name)| (dev, name.to_string()))
            .collect(),
    }
}

/// Stage labels for the unsplit / split pipelines.
pub fn stage_labels(split: bool) -> &'static [&'static str] {
    if split {
        &L5
    } else {
        &L4
    }
}

/// The queue a packet waits in before a stage runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Queue {
    /// The NIC's rx ring, filled by the injector.
    Ring,
    /// A CPU's backlog.
    Backlog,
    /// The vxlan device's gro_cell.
    GroCell,
}

impl Queue {
    /// Why a packet is lost when this queue is full.
    pub(crate) fn drop_reason(self) -> DropReason {
        match self {
            Queue::Ring => DropReason::Ring,
            Queue::Backlog => DropReason::Backlog,
            Queue::GroCell => DropReason::GroCell,
        }
    }

    /// The trace event for a packet entering this queue on `cpu`.
    pub(crate) fn enqueue_event(self, cpu: usize, pkt: u64, flow: u64, qlen: usize) -> EventKind {
        match self {
            Queue::Ring => EventKind::RingEnqueue {
                queue: cpu,
                pkt,
                flow,
                qlen,
            },
            Queue::Backlog => EventKind::BacklogEnqueue {
                cpu,
                pkt,
                flow,
                qlen,
            },
            Queue::GroCell => EventKind::GroCellEnqueue {
                cpu,
                pkt,
                flow,
                qlen,
            },
        }
    }
}

/// The byte work a stage does in wire mode (see [`wire_stage_work`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum WireOp {
    /// Outer verify plus GRO coalescing: the unsplit pNIC poll.
    VerifyCoalesce,
    /// Outer verify only: the split pipeline's allocation half.
    Verify,
    /// GRO coalescing only: the split pipeline's GRO half.
    Coalesce,
    /// Zero-copy VXLAN decap.
    Decap,
    /// FDB lookup and the conntrack observation.
    Bridge,
    /// Inner checksum verify and the payload digest.
    Deliver,
}

/// One row of a stage plan: everything the pipeline needs to know
/// about a stage besides its modeled cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct StageSpec {
    pub(crate) label: &'static str,
    /// Checkpoint id the stage stamps into trace, audit and hop digest.
    pub(crate) checkpoint: u32,
    /// The steering device for the hop *into* the stage, or `None` when
    /// that hop is backlog-local (the driver poll, or the GRO half,
    /// feeding its own CPU's backlog: no steering point exists there).
    pub(crate) steer: Option<u32>,
    pub(crate) queue: Queue,
    pub(crate) op: WireOp,
}

const fn stage(
    label: &'static str,
    checkpoint: u32,
    steer: Option<u32>,
    queue: Queue,
    op: WireOp,
) -> StageSpec {
    StageSpec {
        label,
        checkpoint,
        steer,
        queue,
        op,
    }
}

const L4: [&str; STAGES] = CostModel::OVERLAY_STAGE_LABELS;
const L5: [&str; SPLIT_STAGES] = CostModel::OVERLAY_STAGE_LABELS_SPLIT;
const STAGE_B: u32 = PNIC_IF | STAGE_B_CHECK;

#[rustfmt::skip]
const FOUR_STAGE_PLAN: [StageSpec; STAGES] = [
    stage(L4[0], PNIC_IF,  None,           Queue::Ring,    WireOp::VerifyCoalesce),
    stage(L4[1], STAGE_B,  None,           Queue::Backlog, WireOp::Decap),
    stage(L4[2], VXLAN_IF, Some(VXLAN_IF), Queue::GroCell, WireOp::Bridge),
    stage(L4[3], VETH_IF,  Some(VETH_IF),  Queue::Backlog, WireOp::Deliver),
];

/// The split pipeline: the pNIC poll becomes two halves, and the GRO
/// half gets the synthetic split device's checkpoint and steering key.
#[rustfmt::skip]
const FIVE_STAGE_PLAN: [StageSpec; SPLIT_STAGES] = [
    stage(L5[0], PNIC_IF,       None,                Queue::Ring,    WireOp::Verify),
    stage(L5[1], PNIC_SPLIT_IF, Some(PNIC_SPLIT_IF), Queue::Backlog, WireOp::Coalesce),
    stage(L5[2], STAGE_B,       None,                Queue::Backlog, WireOp::Decap),
    stage(L5[3], VXLAN_IF,      Some(VXLAN_IF),      Queue::GroCell, WireOp::Bridge),
    stage(L5[4], VETH_IF,       Some(VETH_IF),       Queue::Backlog, WireOp::Deliver),
];

/// The stage plan of the unsplit or split pipeline: the one place the
/// pipeline's shape is written down.
pub(crate) fn plan(split: bool) -> &'static [StageSpec] {
    if split {
        &FIVE_STAGE_PLAN
    } else {
        &FOUR_STAGE_PLAN
    }
}

/// Per-worker wire-mode context: what the byte-level stage work needs
/// beyond the packet's own buffer.
#[derive(Clone)]
pub(crate) struct WireCtx {
    /// The bridge FDB, shared across workers behind an epoch-stamped
    /// RwLock so control-plane mutations (tests, future config reload)
    /// invalidate every worker's cached verdicts.
    pub(crate) fdb: Arc<SharedFdb>,
    pub(crate) host_mac: MacAddr,
    pub(crate) vni: u32,
}

/// Applies one packet's conntrack observation to the worker's shard.
/// Runs inside the bridge stage — on both the verifying slow path and
/// the flow-cache fast path, because state mutation is exactly the work
/// a cached verdict must never skip. `seq` is the packet's per-flow
/// virtual time; a frame that doesn't dissect is a silent no-op (it
/// cannot happen for frames the bridge just verified or previously
/// cached).
fn observe_conntrack(conntrack: Option<&mut ConnShard>, buf: &WireBuf, seq: u64) {
    let Some(shard) = conntrack else { return };
    let Some(inner) = buf.inner_frame() else {
        return;
    };
    if let Some(obs) = conn_observe(inner) {
        shard.record(obs.key, obs.flags, obs.payload_len, seq);
    }
}

/// The real byte slice of work a pipeline stage performs in wire
/// mode, by its plan row's [`WireOp`], mirroring the kernel path the
/// stage stands for:
///
/// - pNIC poll: outer Ethernet/IP parse, host-MAC filter, outer UDP
///   checksum verify — and, on the unsplit pipeline, GRO coalescing of
///   the segment train (the split pipeline runs coalescing as its own
///   A2 half-stage).
/// - outer stack: zero-copy VXLAN decap — [`vxlan_decap`] records the
///   inner frame as an offset range, no bytes move.
/// - gro_cell (bridge): strict FDB lookup over both inner MACs plus
///   the inner 5-tuple dissect.
/// - container stack: inner L4 checksum verify and the payload
///   delivery digest.
///
/// Returns the delivery evidence at the last stage, `None` earlier;
/// the `bool` is true when a fresh flow-cache hit replaced the stage's
/// kernel work outright (decap / bridge), telling the caller to skip
/// the modeled stage budget too.
///
/// With a cache, single-segment frames are keyed ([`flow_cache_key`])
/// and consulted at every stage before the delivery verify:
///
/// - A **fresh hit** at decap applies the cached inner-frame offsets;
///   at the bridge it stands in for both FDB lookups. Both skip the
///   stage's modeled spin — the cached path genuinely avoids that
///   kernel work, which is the goodput win. A hit at the pNIC stages
///   skips the redundant outer verify but keeps the spin: the driver
///   poll and GRO machinery run regardless of what the stack caches.
/// - A **miss** (or an epoch-stale entry, dropped by the lookup) runs
///   the stage's full verifying slow path, then re-proves the complete
///   chain ([`full_verdict`]) and fills the cache — under the FDB read
///   guard, reading the epoch under that same guard, so a concurrent
///   FDB change can never produce a verdict stamped fresher than the
///   table it was proven against. Failing frames are never cached.
///
/// The delivery stage is never cached: the inner L4 checksum and the
/// payload digest cover per-packet bytes, so they always run — cached
/// and uncached runs drop payload corruption at the same stage.
#[inline]
pub(crate) fn wire_stage_work(
    wire: &WireCtx,
    op: WireOp,
    buf: &mut WireBuf,
    mut cache: Option<&mut FlowCache>,
    cache_key: &mut Option<u64>,
    conntrack: Option<&mut ConnShard>,
    seq: u64,
) -> Result<(Option<Delivery>, bool), WireError> {
    // Cache consult: single-segment frames only (a pre-GRO segment
    // train has no stable key until coalescing re-encapsulates it).
    let mut consulted_miss = false;
    if let Some(cache) = cache.as_deref_mut() {
        if op != WireOp::Deliver && buf.segs.len() == 1 {
            if cache_key.is_none() {
                *cache_key = flow_cache_key(&buf.segs[0]);
            }
            if let Some(key) = *cache_key {
                match cache.lookup(key, wire.fdb.epoch()) {
                    Lookup::Fresh(v) => match op {
                        // The verdict proves the outer envelope already
                        // verified byte-identically (modulo fields the
                        // delivery stage re-checks), so the pNIC verify
                        // is redundant — but its driver budget is not.
                        WireOp::VerifyCoalesce | WireOp::Verify | WireOp::Coalesce => {
                            return Ok((None, false))
                        }
                        WireOp::Decap => {
                            buf.inner = Some(v.inner_start as usize..v.inner_end as usize);
                            return Ok((None, true));
                        }
                        WireOp::Bridge => {
                            // The cached verdict stands in for the FDB
                            // lookups, but the bridge stage is stateful
                            // now: the conntrack update is per-packet
                            // work no verdict can cache, so it runs on
                            // the fast path too — cached and uncached
                            // runs must end with identical tables.
                            observe_conntrack(conntrack, buf, seq);
                            return Ok((None, true));
                        }
                        WireOp::Deliver => unreachable!("delivery is never cached"),
                    },
                    Lookup::Stale | Lookup::Miss => consulted_miss = true,
                }
            }
        }
    }
    let result = match op {
        WireOp::VerifyCoalesce => pnic_verify(buf, wire.host_mac)
            .and_then(|()| gro_coalesce(buf))
            .map(|()| None),
        WireOp::Verify => pnic_verify(buf, wire.host_mac).map(|()| None),
        WireOp::Coalesce => gro_coalesce(buf).map(|()| None),
        WireOp::Decap => vxlan_decap(buf, wire.vni).map(|()| None),
        WireOp::Bridge => bridge_lookup(buf, &wire.fdb.read()).map(|_port| {
            // Slow-path bridge pass: the frame just proved both FDB
            // entries and a valid 5-tuple, so the stateful half of
            // the stage applies its conntrack observation.
            observe_conntrack(conntrack, buf, seq);
            None
        }),
        WireOp::Deliver => deliver_verify(buf).map(Some),
    };
    // Fill on a consulted miss whose slow work just passed: prove the
    // whole chain once and cache the verdict, so this flow's remaining
    // stages — and every later packet of the flow — hit. The epoch is
    // read under the same read guard the proof runs against.
    if result.is_ok() && consulted_miss {
        if let (Some(cache), Some(key)) = (cache, *cache_key) {
            let fdb = wire.fdb.read();
            let epoch = wire.fdb.epoch();
            if let Some(v) = full_verdict(&buf.segs[0], wire.host_mac, wire.vni, &fdb, epoch) {
                cache.insert(key, v);
            }
        }
    }
    result.map(|d| (d, false))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pins both stage plans row by row: the checkpoint each stage
    /// stamps, the device steering the hop into it, the queue it reads
    /// (and so the drop reason for a full one) and its wire op.
    #[test]
    fn stage_plans_pin_every_row() {
        use DropReason as D;
        use Queue::{Backlog, GroCell, Ring};
        use WireOp::*;
        let b = PNIC_IF | STAGE_B_CHECK;
        #[rustfmt::skip]
        let four = [
            ("pnic_poll",       PNIC_IF,  None,           Ring,    D::Ring,    VerifyCoalesce),
            ("outer_stack",     b,        None,           Backlog, D::Backlog, Decap),
            ("gro_cell",        VXLAN_IF, Some(VXLAN_IF), GroCell, D::GroCell, Bridge),
            ("container_stack", VETH_IF,  Some(VETH_IF),  Backlog, D::Backlog, Deliver),
        ];
        #[rustfmt::skip]
        let five = [
            ("pnic_alloc",      PNIC_IF,       None,                Ring,    D::Ring,    Verify),
            ("pnic_gro",        PNIC_SPLIT_IF, Some(PNIC_SPLIT_IF), Backlog, D::Backlog, Coalesce),
            ("outer_stack",     b,             None,                Backlog, D::Backlog, Decap),
            ("gro_cell",        VXLAN_IF,      Some(VXLAN_IF),      GroCell, D::GroCell, Bridge),
            ("container_stack", VETH_IF,       Some(VETH_IF),       Backlog, D::Backlog, Deliver),
        ];
        for (split, want) in [(false, &four[..]), (true, &five[..])] {
            let rows = plan(split);
            assert_eq!(rows.len(), want.len());
            assert_eq!(rows.len(), stage_labels(split).len());
            for (i, (row, w)) in rows.iter().zip(want).enumerate() {
                let got = (
                    row.label,
                    row.checkpoint,
                    row.steer,
                    row.queue,
                    row.queue.drop_reason(),
                    row.op,
                );
                assert_eq!(got, *w, "split={split} stage {i}");
                assert_eq!(row.label, stage_labels(split)[i]);
            }
        }
    }
}
