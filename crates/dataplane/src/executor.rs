//! The threaded pipeline executor: the modeled overlay receive path on
//! real OS threads.
//!
//! The simulation (`netstack::rxpath`) models the four-stage container
//! receive path as discrete events; this module *runs* it. Each worker
//! is one pinned OS thread standing in for a CPU's NET_RX softirq. The
//! stages and their CPU costs come from the same
//! [`CostModel`](falcon_netstack::CostModel) the simulation uses
//! (`overlay_udp_stage_ns` and friends), turned into real core
//! occupancy by deadline busy-spinning:
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
//! With [`Scenario::split_gro`] on, the pNIC stage itself splits into
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
//! Workers exchange packets over the SPSC ring mesh; every steered hop
//! registers with the global [`FlowTable`], and the registration stays
//! held until the packet has executed the *following* stage (not just
//! the routed one). That extra hold is the reordering guard: because
//! the ring mesh is per-(src, dst), two same-flow packets that reach
//! one stage's worker from *different* upstream workers travel on
//! different rings and the fixed-order inbound sweep could pop them
//! inverted. Holding the previous hop's registration through the next
//! stage means a (flow, device) pair can only migrate when no packet of
//! that flow sits anywhere between that stage's routing decision and
//! the next stage's completion — so all in-flight same-flow packets for
//! a stage always share one upstream worker, hence one FIFO ring.
//! (The kernel's `rps_dev_flow` qtail check gets this for free from the
//! single per-CPU backlog; the ring mesh has to buy it explicitly.)

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Duration;

use falcon_conntrack::{merge_shards, ConnCounters, ConnShard, ConnTable};
use falcon_khash::hash_32;
use falcon_netstack::CostModel;
use falcon_packet::{MacAddr, PktDesc, WireBuf};
use falcon_telemetry::{
    Hub, RunMeta, Sampler, SamplerConfig, ShardWriter, StallBreakdown, TelemetryRun,
    DEFAULT_INTERVAL_MS,
};
use falcon_trace::{
    hop_hash_extend, Context, DropReason, Event, EventKind, TraceMeta, Tracer, DELIVERY_CHECK,
    HOP_HASH_INIT, STAGE_B_CHECK,
};
use falcon_wire::{
    bridge_lookup, conn_observe, deliver_verify, flow_cache_key, full_verdict, gro_coalesce,
    pnic_verify, vxlan_decap, CacheStats, Corruptor, Delivery, Fdb, FlowCache, FrameFactory,
    Lookup, SharedFdb, WireError,
};

use crate::affinity::{available_cores, clamp_workers, pin_current_thread};
use crate::spin::{spin_for_ns, Backoff, Epoch, IdleTier, ParkSlot, Wake};
use crate::spsc::{ring, Consumer, Producer};
use crate::steer::{release, DepthGauge, FlowTable, InflightGuard, Policy, PolicyKind};

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

/// What kind of traffic the injected descriptors stand for — it picks
/// which `CostModel` stage extraction prices the pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrafficShape {
    /// Non-coalescable UDP datagrams of `payload` bytes each.
    Udp,
    /// One GRO-coalesced TCP message of `payload` bytes per injected
    /// descriptor, segmented at `mss` bytes on the wire — the
    /// Figure-13 TCP-4KB shape where the pNIC stage pays per-segment
    /// allocation + GRO and becomes the bottleneck splitting relieves.
    TcpGro {
        /// Wire segment payload size (1448 for standard Ethernet MSS).
        mss: usize,
    },
}

impl TrafficShape {
    /// Short label for reports.
    pub fn label(self) -> String {
        match self {
            TrafficShape::Udp => "udp".to_string(),
            TrafficShape::TcpGro { mss } => format!("tcp-gro(mss={mss})"),
        }
    }
}

/// One run's worth of configuration.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Steering policy under test.
    pub policy: PolicyKind,
    /// Requested worker count (clamped to the host's logical cores).
    pub workers: usize,
    /// Packets to inject.
    pub packets: u64,
    /// Distinct flows, round-robin across packets.
    pub flows: u64,
    /// Payload bytes per injected unit (drives the modeled stage
    /// costs; a whole coalesced message under [`TrafficShape::TcpGro`]).
    pub payload: usize,
    /// Traffic shape pricing the stages.
    pub shape: TrafficShape,
    /// Run the pNIC stage as two half-stages on the five-hop pipeline
    /// (paper §4.2 GRO splitting; the Figure 13 "Host+" mechanism).
    pub split_gro: bool,
    /// Capacity of each inter-worker SPSC ring.
    pub ring_capacity: usize,
    /// NAPI-style batch budget per inbound ring per sweep.
    pub napi_budget: usize,
    /// Falcon's depth-triggered two-choice rehash (on by default).
    /// Placement tests switch it off to pin steering to the
    /// (flow, device) hash's first choice regardless of load — under
    /// oversubscribed overload the load threshold legitimately
    /// rehashes almost every decision, which makes emergent placement
    /// assertions scheduling-dependent.
    pub steer_two_choice: bool,
    /// Stage-cost scale in milli-units (1000 = model costs as-is;
    /// tests use small values to run fast).
    pub work_scale_milli: u64,
    /// Pacing gap between injected packets, ns (0 = open loop: inject
    /// as fast as backpressure allows).
    pub inject_gap_ns: u64,
    /// Pin workers to cores.
    pub pin: bool,
    /// Per-worker trace ring capacity (0 = tracing off).
    pub trace_capacity: usize,
    /// Test-only knob: lift the host-core clamp on `workers`, so a
    /// multi-worker pipeline runs (oversubscribed) even on small CI
    /// hosts. Correctness suites need genuine ring crossings; perf
    /// runs leave this off and accept the clamp.
    pub oversubscribe: bool,
    /// Test-only chaos knob: when nonzero, every steered hop overrides
    /// the policy's preference with a worker that rotates every
    /// `chaos_steer_period` packets, forcing constant (flow, device)
    /// migration pressure on the flow table's in-flight guard. Also
    /// lifts the host-core clamp on `workers`, so the churn runs
    /// genuinely multi-worker (oversubscribed) even on small CI hosts
    /// (0 = off; real runs leave it off).
    pub chaos_steer_period: u64,
    /// Test-only chaos knob: busy-spin this many ns between inbound
    /// ring polls in every worker's sweep. A stalled destination sweep
    /// is what turns a cross-ring enqueue inversion into an execution
    /// inversion — the consumer resumes mid-sweep past the ring that
    /// holds the earlier packet — so this widens the reorder-race
    /// window from scheduler-preemption-rare to near-certain
    /// (0 = off; real runs leave it off).
    pub chaos_sweep_stall_ns: u64,
    /// Run the pipeline on real bytes: the injector builds genuine
    /// VXLAN-encapsulated frames ([`falcon_wire::FrameFactory`]) and
    /// every stage performs its byte-level slice of work (outer
    /// parse + checksum verify, GRO coalescing, zero-copy decap, FDB
    /// lookup, inner verify + payload digest) before spinning out
    /// whatever remains of the modeled stage budget. Malformed frames
    /// drop with [`DropReason::Malformed`] at the stage that caught
    /// them.
    pub wire: bool,
    /// Wire-mode chaos knob: corrupt roughly this many out of every
    /// million wire segments (one flipped bit each, from a seeded
    /// deterministic stream). 0 = pristine frames. Ignored unless
    /// `wire` is on.
    pub corrupt_per_million: u32,
    /// Seed of the wire-mode corruptor stream; a fixed `(seed, rate)`
    /// corrupts the same segments every run.
    pub wire_seed: u64,
    /// Wire mode: give every worker a private flow-verdict cache
    /// ([`falcon_wire::FlowCache`]). The slow-path result — decap
    /// offsets, bridge port — is cached per flow after one full
    /// verifying pass, so subsequent packets of the flow skip the
    /// modeled decap and bridge stages entirely (the pNIC stages keep
    /// their driver budget; the delivery stage's inner checksum and
    /// digest always run). Cached verdicts are epoch-invalidated on any
    /// FDB change. Ignored unless `wire` is on.
    pub flow_cache: bool,
    /// Entries per worker's flow cache (rounded up to a power of two,
    /// minimum 8). Ignored unless `flow_cache` is on.
    pub flow_cache_entries: usize,
    /// Wire mode: MTU-class slots in the injector's slab buffer pool
    /// (0 = the pool's default sizing). Frames are built in place
    /// inside pre-registered slots and the slots recirculate through
    /// delivery/drop, so steady-state generation allocates nothing.
    /// Tests shrink this to force heap-fallback exhaustion on purpose.
    pub slab_slots: usize,
    /// Live telemetry: when set, every worker publishes its shard each
    /// sweep and a sampler thread snapshots the shards on the
    /// configured interval, streaming JSONL / Prometheus / Perfetto
    /// counter tracks as configured (`None` = telemetry off, zero
    /// hot-path cost beyond a branch).
    pub telemetry: Option<TelemetrySpec>,
}

/// What the telemetry sampler should do with its snapshots.
#[derive(Debug, Clone, Default)]
pub struct TelemetrySpec {
    /// Sampling interval in ms (0 = [`DEFAULT_INTERVAL_MS`]).
    pub interval_ms: u64,
    /// Stream per-interval worker deltas as JSON lines to this path.
    pub jsonl_path: Option<String>,
    /// Serve Prometheus text exposition from this `addr:port`. Port 0
    /// binds ephemerally; the bound address is reported through
    /// [`TelemetryRun::prom_addr`] and, live, via `prom_addr_tx`.
    pub prom_addr: Option<String>,
    /// Receives the bound exposition address as soon as the listener
    /// is up — the only way to learn an ephemeral (port 0) address
    /// while the run is still in flight. The send is best-effort: a
    /// dropped receiver never stalls the run.
    pub prom_addr_tx: Option<std::sync::mpsc::Sender<std::net::SocketAddr>>,
}

impl Default for Scenario {
    fn default() -> Self {
        Scenario {
            policy: PolicyKind::Falcon,
            workers: 4,
            packets: 80_000,
            flows: 1,
            payload: 64,
            shape: TrafficShape::Udp,
            split_gro: false,
            ring_capacity: 512,
            napi_budget: 64,
            steer_two_choice: true,
            work_scale_milli: 1000,
            inject_gap_ns: 0,
            pin: true,
            trace_capacity: 0,
            oversubscribe: false,
            chaos_steer_period: 0,
            chaos_sweep_stall_ns: 0,
            wire: false,
            corrupt_per_million: 0,
            wire_seed: 1,
            flow_cache: false,
            flow_cache_entries: 4096,
            slab_slots: 0,
            telemetry: None,
        }
    }
}

impl Scenario {
    /// The scenario with a different policy, all else equal.
    pub fn with_policy(mut self, policy: PolicyKind) -> Self {
        self.policy = policy;
        self
    }

    /// The scenario with GRO splitting toggled, all else equal.
    pub fn with_split_gro(mut self, on: bool) -> Self {
        self.split_gro = on;
        self
    }

    /// How many stages this scenario's pipeline runs.
    pub fn n_stages(&self) -> usize {
        if self.split_gro {
            SPLIT_STAGES
        } else {
            STAGES
        }
    }

    /// The modeled per-stage service costs for this scenario, before
    /// `work_scale_milli` scaling.
    pub fn stage_service_ns(&self, cost: &CostModel) -> Vec<u64> {
        match (self.shape, self.split_gro) {
            (TrafficShape::Udp, false) => cost.overlay_udp_stage_ns(self.payload).to_vec(),
            (TrafficShape::Udp, true) => cost.overlay_udp_stage_ns_split(self.payload).to_vec(),
            (TrafficShape::TcpGro { mss }, false) => {
                cost.overlay_tcp_stage_ns(self.payload, mss).to_vec()
            }
            (TrafficShape::TcpGro { mss }, true) => {
                cost.overlay_tcp_stage_ns_split(self.payload, mss).to_vec()
            }
        }
    }

    /// Stage labels matching [`stage_service_ns`](Self::stage_service_ns).
    pub fn stage_labels(&self) -> &'static [&'static str] {
        stage_labels(self.split_gro)
    }

    /// Device table for trace export.
    pub fn trace_meta(&self, workers: usize) -> TraceMeta {
        let mut devices = vec![
            (PNIC_IF, "pnic".to_string()),
            (VXLAN_IF, "vxlan0".to_string()),
            (VETH_IF, "veth0".to_string()),
        ];
        if self.split_gro {
            devices.push((PNIC_SPLIT_IF, "pnic:gro".to_string()));
        }
        TraceMeta {
            n_cores: workers,
            devices,
        }
    }
}

/// Stage labels for the unsplit / split pipelines.
pub fn stage_labels(split: bool) -> &'static [&'static str] {
    const FOUR: &[&str] = &CostModel::OVERLAY_STAGE_LABELS;
    const FIVE: &[&str] = &CostModel::OVERLAY_STAGE_LABELS_SPLIT;
    if split {
        FIVE
    } else {
        FOUR
    }
}

/// A per-(flow, checkpoint, seq) observation for the post-run ordering
/// audit: (lamport clock, worker, flow, checkpoint, seq).
///
/// Earlier revisions drew a ticket from one run-global `AtomicU64` per
/// stage execution — two contended RMWs per packet-stage, the hottest
/// shared cache line in the whole pipeline. The ticket is now a
/// per-worker Lamport clock: each worker keeps a local counter, stamps
/// every record with `local = max(local, pkt_clock) + 1`, carries the
/// clock on the packet across ring hops, and folds it through the
/// in-flight guard's `release_lc` across migration edges. Every
/// happens-before path between two executions at one (flow, checkpoint)
/// — same-thread program order, the ring's release/acquire handoff, or
/// the guard-drain edge a migration synchronizes on — therefore forces
/// strictly increasing clocks, so sorting by `(clock, worker)` replays
/// the audit in causal order with zero shared-line traffic on the hot
/// path. Records the protocol leaves genuinely concurrent (which would
/// already be a guard bug) tie-break by worker id.
type OrderRec = (u64, u32, u64, u32, u64);

/// A packet in flight through the threaded pipeline.
struct DpPkt {
    desc: PktDesc,
    /// Stage to execute on arrival (0=first … `n_stages-1`=last).
    stage: u8,
    /// Epoch timestamp of injection (for one-way latency).
    injected_ns: u64,
    /// Epoch timestamp of the last enqueue (for queueing time).
    enqueued_ns: u64,
    /// Worker that ran the previous stage (`usize::MAX` = none).
    last_worker: usize,
    /// Running FNV-1a digest over the (checkpoint, cpu) hops executed
    /// so far (the ring-crossing equivalent of the simulator's
    /// `skb.trace` log), emitted verbatim at delivery so the
    /// conservation checker can prove it saw every hop in order.
    hop_digest: u64,
    /// Hops folded into `hop_digest`.
    hops: u32,
    /// In-flight guard of the most recent (flow, device) routing. Held
    /// until the packet executes the *next* stage (see `prev_guard`),
    /// or until delivery/drop.
    guard: Option<Arc<InflightGuard>>,
    /// The guard from the routing *before* `guard`, released once the
    /// current stage has executed. Holding it across the hop is what
    /// keeps all in-flight same-flow packets for a stage on one
    /// upstream ring: the pair can't migrate while any packet sits
    /// between its routing decision and the next stage's completion.
    prev_guard: Option<Arc<InflightGuard>>,
    /// The packet's Lamport clock: the latest audit ticket stamped on
    /// it, carried across ring hops (and, via the guard's release
    /// clock, across migrations) so the receiving worker's clock jumps
    /// past every record that happens-before this packet's next one.
    lc: u64,
    /// Flow-cache key of this packet's (single-segment) frame, hashed
    /// once at the first cache consult and carried across hops so later
    /// stages probe without re-hashing. `None` until computed — and
    /// `None` again on an uncacheable frame, which re-derives per stage
    /// (rare: short or non-UDP/TCP inner frames).
    cache_key: Option<u64>,
}

/// What one worker brings home after the run.
#[derive(Debug, Default)]
pub struct WorkerStats {
    /// Stages executed, by stage index (4 or 5 entries).
    pub processed: Vec<u64>,
    /// Packets delivered to the (modeled) socket.
    pub delivered: u64,
    /// Drops by [`DropReason`] index.
    pub drops: [u64; DropReason::ALL.len()],
    /// Real ns this worker spent busy-spinning stage work.
    pub busy_ns: u64,
    /// Steering decisions taken (the A1→A2, B→C and C→D hops).
    pub decisions: u64,
    /// Decisions that used the two-choice rehash.
    pub second_choices: u64,
    /// (flow, device) migrations performed.
    pub migrations: u64,
    /// Whether the pin syscall succeeded.
    pub pinned: bool,
    /// This worker's trace events.
    pub events: Vec<Event>,
    /// Events the trace ring overwrote (0 = the stream is complete).
    pub trace_overflow: u64,
    /// Ordering observations.
    pub order_log: Vec<OrderRec>,
    /// One-way delivery latencies, ns.
    pub latencies: Vec<u64>,
    /// Idle steps spent in the spin-hint tier.
    pub idle_spins: u64,
    /// Idle steps spent yielding.
    pub idle_yields: u64,
    /// Idle steps in the park tier, including those whose re-check
    /// found work before the thread slept.
    pub idle_parks: u64,
    /// Parks that ended by the safety timeout while an inbound ring
    /// already held packets: a producer's publish that failed to wake
    /// this worker. The park handshake makes this 0; a producer
    /// descheduled between its publish and its wake for longer than the
    /// park's grace yields would also read as one.
    pub lost_wakeups: u64,
    /// Full inbound-ring sweeps performed.
    pub sweeps: u64,
    /// Wire mode: application payload bytes this worker delivered.
    pub bytes_delivered: u64,
    /// Wire mode: `(flow, seq, payload digest)` per delivery — the
    /// evidence the conformance checker compares against
    /// [`FrameFactory::expected_digest`].
    pub digests: Vec<(u64, u64, u64)>,
    /// Wire mode: malformed-frame drops by the stage that caught them
    /// (4 or 5 entries).
    pub malformed_per_stage: Vec<u64>,
    /// Wire mode: bytes each stage touched (on-wire size until decap,
    /// inner-frame size after; 4 or 5 entries).
    pub bytes_per_stage: Vec<u64>,
    /// Flow-verdict cache counters (hits, misses, evictions,
    /// invalidations) — all zero unless the run had `flow_cache` on.
    pub flow_cache: CacheStats,
    /// Wire mode: pool-backed wire buffers this worker recycled whole
    /// (one shell-ring push covering the shell and every leased slot in
    /// it) at delivery or drop. Heap-built buffers drop normally and
    /// are not counted.
    pub slab_recycles: u64,
    /// Wire mode: this worker's conntrack replica (the SCR state
    /// shard), carried home whole so the orchestrator can merge the
    /// shards and the differential oracle can compare merged tables
    /// across policies. `None` outside wire mode.
    pub conntrack: Option<ConnShard>,
    /// Where this worker's wall-clock went: every ns between the start
    /// barrier and thread exit lands in exactly one of the five
    /// attribution buckets (busy work, stalled pushing into a full
    /// downstream ring, popping upstream rings, guard/steering
    /// bookkeeping, idle backoff) — the buckets sum to `stall.wall_ns`
    /// by construction. Unlike `busy_ns` (pure stage-spin time, kept
    /// for goodput math), `stall.busy_ns` also absorbs the per-packet
    /// bookkeeping that surrounds the spin.
    pub stall: StallBreakdown,
}

/// Everything a run produces: per-worker stats plus run-level facts.
#[derive(Debug)]
pub struct RunOutput {
    /// The scenario as actually run (workers clamped).
    pub policy: PolicyKind,
    /// Workers actually spawned.
    pub workers: usize,
    /// Logical cores on the host.
    pub host_cores: usize,
    /// Whether the pipeline ran the five-stage split shape.
    pub split_gro: bool,
    /// Packets handed to the injector.
    pub injected: u64,
    /// Ring-full drops at injection.
    pub inject_drops: u64,
    /// Wall-clock ns from start barrier to pipeline quiescence.
    pub wall_ns: u64,
    /// Modeled per-stage service ns (post-scaling; 4 or 5 entries).
    pub stage_ns: Vec<u64>,
    /// (flow, device) pairs the flow table ended up tracking.
    pub flow_pairs: usize,
    /// Per-worker results.
    pub workers_stats: Vec<WorkerStats>,
    /// The injector's trace events (ring enqueues and inject drops).
    pub injector_events: Vec<Event>,
    /// Events the injector's trace ring overwrote.
    pub injector_overflow: u64,
    /// Whether this run carried real bytes through the stages.
    pub wire: bool,
    /// Wire mode: total wire bytes the injector enqueued (segments of
    /// packets that made it onto a stage-A ring; 0 outside wire mode).
    pub bytes_injected: u64,
    /// Wire mode: segments the corruptor flipped a bit in.
    pub corrupted_segments: u64,
    /// Device table for trace export.
    pub meta: TraceMeta,
    /// Live-telemetry output (samples taken, exporter outcomes), when
    /// [`Scenario::telemetry`] was set.
    pub telemetry: Option<TelemetryRun>,
    /// Final slab-pool counters of the packet source's buffer pool
    /// (leases, recycles, heap fallbacks, …), when the source attached
    /// one ([`Injector::attach_slab_counters`]). Snapshotted after the
    /// workers join, so every recycle push is visible.
    pub slab: Option<falcon_packet::SlabSample>,
}

impl RunOutput {
    /// Number of pipeline stages this run executed.
    pub fn stages(&self) -> usize {
        self.stage_ns.len()
    }

    /// Stage labels matching [`stage_ns`](Self::stage_ns).
    pub fn stage_labels(&self) -> &'static [&'static str] {
        stage_labels(self.split_gro)
    }

    /// Total packets delivered.
    pub fn delivered(&self) -> u64 {
        self.workers_stats.iter().map(|w| w.delivered).sum()
    }

    /// Total drops (in-pipeline plus injection).
    pub fn dropped(&self) -> u64 {
        self.inject_drops
            + self
                .workers_stats
                .iter()
                .map(|w| w.drops.iter().sum::<u64>())
                .sum::<u64>()
    }

    /// Drops by reason, including the injector's ring drops.
    pub fn drops_by_reason(&self) -> [u64; DropReason::ALL.len()] {
        let mut out = [0u64; DropReason::ALL.len()];
        out[DropReason::Ring.index()] = self.inject_drops;
        for w in &self.workers_stats {
            for (acc, d) in out.iter_mut().zip(w.drops.iter()) {
                *acc += d;
            }
        }
        out
    }

    /// Wire mode: application payload bytes delivered across workers.
    pub fn bytes_delivered(&self) -> u64 {
        self.workers_stats.iter().map(|w| w.bytes_delivered).sum()
    }

    /// Wire mode: every delivery's `(flow, seq, payload digest)`,
    /// gathered across workers (unordered).
    pub fn deliveries(&self) -> Vec<(u64, u64, u64)> {
        self.workers_stats
            .iter()
            .flat_map(|w| w.digests.iter().copied())
            .collect()
    }

    /// Wire mode: malformed-frame drops summed across workers, by the
    /// stage that caught them.
    pub fn malformed_per_stage(&self) -> Vec<u64> {
        let mut per_stage = vec![0u64; self.stages()];
        for w in &self.workers_stats {
            for (acc, m) in per_stage.iter_mut().zip(w.malformed_per_stage.iter()) {
                *acc += m;
            }
        }
        per_stage
    }

    /// Wire mode: bytes touched per stage summed across workers.
    pub fn bytes_per_stage(&self) -> Vec<u64> {
        let mut per_stage = vec![0u64; self.stages()];
        for w in &self.workers_stats {
            for (acc, b) in per_stage.iter_mut().zip(w.bytes_per_stage.iter()) {
                *acc += b;
            }
        }
        per_stage
    }

    /// Flow-verdict cache counters summed across workers (all zero
    /// when the run had no cache).
    pub fn flow_cache_stats(&self) -> CacheStats {
        let mut out = CacheStats::default();
        for w in &self.workers_stats {
            out.hits += w.flow_cache.hits;
            out.misses += w.flow_cache.misses;
            out.evictions += w.flow_cache.evictions;
            out.invalidations += w.flow_cache.invalidations;
        }
        out
    }

    /// Flow-cache hit rate, `hits / (hits + misses)` (0.0 when the
    /// cache never consulted).
    pub fn flow_cache_hit_rate(&self) -> f64 {
        let s = self.flow_cache_stats();
        let consults = s.hits + s.misses;
        if consults == 0 {
            0.0
        } else {
            s.hits as f64 / consults as f64
        }
    }

    /// Wire mode: the run's final conntrack table — the per-worker SCR
    /// shards merged through the delta-log replay. For serialized
    /// policies the merge is trivially exact (each flow's packets all
    /// landed in seq order somewhere); for `Replicate` it is the
    /// reconcile step that proves the replicated state converged to
    /// the serialized ground truth. `None` outside wire mode.
    pub fn conntrack_table(&self) -> Option<ConnTable> {
        let shards: Vec<&ConnShard> = self
            .workers_stats
            .iter()
            .filter_map(|w| w.conntrack.as_ref())
            .collect();
        if shards.is_empty() {
            None
        } else {
            Some(merge_shards(shards))
        }
    }

    /// Conntrack/SCR counters summed across workers (all zero outside
    /// wire mode).
    pub fn conntrack_counters(&self) -> ConnCounters {
        let mut out = ConnCounters::default();
        for w in &self.workers_stats {
            if let Some(c) = w.conntrack.as_ref() {
                out.updates += c.counters.updates;
                out.transitions += c.counters.transitions;
                out.delta_records += c.counters.delta_records;
            }
        }
        out
    }

    /// Stage executions summed across workers, by stage index.
    pub fn processed_per_stage(&self) -> Vec<u64> {
        let mut per_stage = vec![0u64; self.stages()];
        for w in &self.workers_stats {
            for (acc, p) in per_stage.iter_mut().zip(w.processed.iter()) {
                *acc += p;
            }
        }
        per_stage
    }

    /// Events the trace rings overwrote anywhere (workers + injector);
    /// nonzero means the merged stream is incomplete and conservation
    /// checks over it are not meaningful.
    pub fn trace_overflow(&self) -> u64 {
        self.injector_overflow
            + self
                .workers_stats
                .iter()
                .map(|w| w.trace_overflow)
                .sum::<u64>()
    }

    /// All trace events (workers + injector) merged chronologically.
    pub fn merged_events(&self) -> Vec<Event> {
        falcon_trace::merge_streams(
            self.workers_stats
                .iter()
                .map(|w| w.events.clone())
                .chain(std::iter::once(self.injector_events.clone())),
        )
    }

    /// Replays every worker's ordering log through the netstack's
    /// [`OrderTracker`](falcon_netstack::ordering::OrderTracker) and returns
    /// (checks, violations). Entries are sorted by the per-worker
    /// Lamport clock stamped as each stage finished (worker id breaks
    /// clock ties). The clock is carried on packets across ring hops
    /// and folded through the in-flight guard's release clock across
    /// migration edges, so any two executions at one (flow, checkpoint)
    /// that the guard protocol orders carry strictly ordered stamps —
    /// the sort replays them in causal order, and a protocol violation
    /// (an execution inversion the guard should have prevented) still
    /// surfaces as a seq regression. Unlike a (timestamp, seq) key, the
    /// clock can't sort genuinely inverted completions into "correct"
    /// order and bias the oracle toward passing.
    pub fn order_audit(&self) -> (u64, u64) {
        let mut log: Vec<OrderRec> = self
            .workers_stats
            .iter()
            .flat_map(|w| w.order_log.iter().copied())
            .collect();
        // Replicate runs under the relaxed SCR ordering contract: a
        // flow's packets execute concurrently on many workers, so
        // per-flow seq monotonicity is *expected* to break — that is
        // the policy's whole trade. What must still hold is exactness:
        // every (flow, checkpoint) executes each seq exactly once
        // (duplicate-freedom; losses already fail the delivery
        // conservation checks). The audit degrades to that check:
        // checks = records audited, violations = duplicates.
        if self.policy == PolicyKind::Replicate {
            let mut seen = std::collections::HashSet::with_capacity(log.len());
            let mut dups = 0u64;
            for &(_, _, flow, checkpoint, seq) in &log {
                if !seen.insert((flow, checkpoint, seq)) {
                    dups += 1;
                }
            }
            return (log.len() as u64, dups);
        }
        log.sort_unstable_by_key(|&(lc, worker, _, _, _)| (lc, worker));
        let mut tracker = falcon_netstack::ordering::OrderTracker::new();
        for (_, _, flow, checkpoint, seq) in log {
            tracker.check(flow, checkpoint, seq, 1);
        }
        (tracker.checks(), tracker.violations())
    }
}

/// Stage checkpoint ids, by stage index. The split pipeline gives the
/// GRO half-stage the synthetic split device's checkpoint.
fn checkpoint(split: bool, stage: u8) -> u32 {
    if split {
        match stage {
            0 => PNIC_IF,
            1 => PNIC_SPLIT_IF,
            2 => PNIC_IF | STAGE_B_CHECK,
            3 => VXLAN_IF,
            4 => VETH_IF,
            _ => unreachable!("no split stage {stage}"),
        }
    } else {
        match stage {
            0 => PNIC_IF,
            1 => PNIC_IF | STAGE_B_CHECK,
            2 => VXLAN_IF,
            3 => VETH_IF,
            _ => unreachable!("no stage {stage}"),
        }
    }
}

/// The steering device for the hop *into* `stage`, or `None` when the
/// hop is backlog-local (the driver poll — or the GRO half — feeding
/// its own CPU's backlog, where no steering point exists).
fn steer_ifindex(split: bool, stage: u8) -> Option<u32> {
    if split {
        match stage {
            1 => Some(PNIC_SPLIT_IF),
            3 => Some(VXLAN_IF),
            4 => Some(VETH_IF),
            _ => None,
        }
    } else {
        match stage {
            2 => Some(VXLAN_IF),
            3 => Some(VETH_IF),
            _ => None,
        }
    }
}

/// What feeds each stage (for drop classification on a full ring).
fn drop_reason_into(split: bool, stage: u8) -> DropReason {
    let gro_cell_stage = if split { 3 } else { 2 };
    match stage {
        0 => DropReason::Ring,
        s if s == gro_cell_stage => DropReason::GroCell,
        _ => DropReason::Backlog,
    }
}

/// Per-worker wire-mode context: what the byte-level stage work needs
/// beyond the packet's own buffer.
struct WireCtx {
    /// The bridge FDB, shared across workers behind an epoch-stamped
    /// RwLock so control-plane mutations (tests, future config reload)
    /// invalidate every worker's cached verdicts.
    fdb: Arc<SharedFdb>,
    host_mac: MacAddr,
    vni: u32,
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

/// The real byte slice of work each pipeline stage performs in wire
/// mode, mirroring the kernel path the stage stands for:
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
#[allow(clippy::too_many_arguments)]
fn wire_stage_work(
    wire: &WireCtx,
    split: bool,
    stage: u8,
    buf: &mut WireBuf,
    mut cache: Option<&mut FlowCache>,
    cache_key: &mut Option<u64>,
    conntrack: Option<&mut ConnShard>,
    seq: u64,
) -> Result<(Option<Delivery>, bool), WireError> {
    let op = if split { stage } else { stage + 1 };
    // Cache consult: single-segment frames only (a pre-GRO segment
    // train has no stable key until coalescing re-encapsulates it).
    let mut consulted_miss = false;
    if let Some(cache) = cache.as_deref_mut() {
        if op < 4 && buf.segs.len() == 1 {
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
                        0 | 1 => return Ok((None, false)),
                        2 => {
                            buf.inner = Some(v.inner_start as usize..v.inner_end as usize);
                            return Ok((None, true));
                        }
                        3 => {
                            // The cached verdict stands in for the FDB
                            // lookups, but the bridge stage is stateful
                            // now: the conntrack update is per-packet
                            // work no verdict can cache, so it runs on
                            // the fast path too — cached and uncached
                            // runs must end with identical tables.
                            observe_conntrack(conntrack, buf, seq);
                            return Ok((None, true));
                        }
                        _ => unreachable!("delivery is never cached"),
                    },
                    Lookup::Stale | Lookup::Miss => consulted_miss = true,
                }
            }
        }
    }
    let result = match op {
        // Split stage 0 verifies only; unsplit stage 0 (op 1 skipped
        // via the offset) both verifies and coalesces.
        0 => pnic_verify(buf, wire.host_mac).map(|()| None),
        1 => {
            if !split {
                pnic_verify(buf, wire.host_mac)?;
            }
            gro_coalesce(buf).map(|()| None)
        }
        2 => vxlan_decap(buf, wire.vni).map(|()| None),
        3 => bridge_lookup(buf, &wire.fdb.read()).map(|_port| {
            // Slow-path bridge pass: the frame just proved both FDB
            // entries and a valid 5-tuple, so the stateful half of
            // the stage applies its conntrack observation.
            observe_conntrack(conntrack, buf, seq);
            None
        }),
        4 => deliver_verify(buf).map(Some),
        _ => unreachable!("no wire work for stage {stage}"),
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

/// The inbound-ring visit order for sweep number `sweep` of a worker
/// with `nsrc` source rings: the identity order rotated by the sweep
/// count. A fixed scan from index 0 gives ring 0's producer structural
/// priority — under saturation it is always drained first, so its
/// producer sees free slots soonest and later rings' producers eat the
/// tail drops. Rotating the starting index hands the "drained first"
/// advantage to each ring in turn.
pub fn sweep_order(sweep: u64, nsrc: usize) -> impl Iterator<Item = usize> {
    let n = nsrc.max(1);
    let start = (sweep % n as u64) as usize;
    (0..nsrc).map(move |k| (start + k) % n)
}

struct WorkerCtx {
    me: usize,
    /// Logical CPU this worker pins to — the topology-aware plan's
    /// target for slot `me`, not necessarily `me` itself (on a
    /// multi-socket host the plan keeps adjacent workers on one node).
    core: usize,
    stage_ns: Vec<u64>,
    split: bool,
    labels: &'static [&'static str],
    locality_penalty_ns: u64,
    napi_budget: usize,
    chaos_steer_period: u64,
    chaos_sweep_stall_ns: u64,
    /// Wire-mode context (`None` = stages spin their full budget with
    /// no byte work, the pre-wire behavior).
    wire: Option<WireCtx>,
    /// This worker's private flow-verdict cache (`None` = every packet
    /// takes the full verifying slow path). Private per worker: no
    /// interior locking, no cross-core cache-line traffic.
    cache: Option<FlowCache>,
    /// This worker's conntrack replica — the SCR state shard the
    /// stateful bridge stage mutates (`Some` exactly when wire mode is
    /// on). Private per worker like the cache; the orchestrator merges
    /// the shards after the run ([`RunOutput::conntrack_table`]).
    conntrack: Option<ConnShard>,
    epoch: Epoch,
    /// This worker's Lamport clock for the ordering audit (see
    /// [`OrderRec`]): bumped past the packet's carried clock on every
    /// stage execution, never touched by another core.
    lc: u64,
    policy: Arc<Policy>,
    flows: Arc<FlowTable>,
    depths: Arc<DepthGauge>,
    delivered: Arc<AtomicU64>,
    dropped: Arc<AtomicU64>,
    shutdown: Arc<AtomicBool>,
    /// Every worker's park slot, by worker index: this worker parks on
    /// its own and wakes a destination's after publishing to it.
    park: Arc<[ParkSlot]>,
    inbound: Vec<Consumer<DpPkt>>,
    outbound: Vec<Producer<DpPkt>>,
    /// Scratch for one ring's popped batch (capacity = NAPI budget).
    batch: Vec<DpPkt>,
    /// Per-destination staging for steered packets, flushed once per
    /// drained batch: one ring publish + one gauge RMW cover the whole
    /// flight instead of one of each per packet. Staged packets still
    /// hold their routing's in-flight guard, so the hand-over-hand
    /// migration protocol is oblivious to the extra buffering.
    outbox: Vec<Vec<DpPkt>>,
    /// Deliveries not yet folded into the shared `delivered` counter.
    delivered_delta: u64,
    /// Drops not yet folded into the shared `dropped` counter.
    dropped_delta: u64,
    tracer: Tracer,
    stats: WorkerStats,
    /// Live-telemetry shard writer (`None` = telemetry off; the hot
    /// path pays one branch).
    telemetry: Option<ShardWriter>,
    /// Per-stage service samples accumulated since the last shard
    /// publish: `(stage, service_ns)`. Drained into the shard's
    /// histograms inside the seqlock write so the recording cost stays
    /// out of the per-packet path.
    hist_scratch: Vec<(u8, u64)>,
}

impl WorkerCtx {
    fn run(mut self, barrier: Arc<Barrier>, pin: bool) -> WorkerStats {
        if pin {
            self.stats.pinned = pin_current_thread(self.core);
        }
        // Producers may wake this worker as soon as they pass the
        // barrier, so the slot must know its thread before then.
        let park = Arc::clone(&self.park);
        let slot = &park[self.me];
        slot.register();
        barrier.wait();
        let mut backoff = Backoff::new();
        let nsrc = self.inbound.len();
        // Stall attribution runs on a chained timestamp: `t` is the
        // epoch time up to which this worker's wall-clock has been
        // attributed. Every boundary reads the epoch once, charges the
        // elapsed span to exactly one bucket, and advances `t` — so the
        // buckets sum to `t - wall_start` identically, and unattributed
        // gaps are impossible by construction.
        let wall_start = self.epoch.now_ns();
        let mut t = wall_start;
        loop {
            let mut did_work = false;
            for src in sweep_order(self.stats.sweeps, nsrc) {
                if self.chaos_sweep_stall_ns > 0 {
                    // Chaos stall (tests only): freeze mid-sweep so
                    // packets can pile into rings the sweep already
                    // passed — the inversion shape the guard must
                    // defeat.
                    spin_for_ns(self.chaos_sweep_stall_ns);
                }
                let got = self.inbound[src].pop_batch(&mut self.batch, self.napi_budget);
                // Ring-poll boundary: the poll itself (and any chaos
                // stall riding ahead of it) is time spent hunting
                // upstream rings for input.
                let now = self.epoch.now_ns();
                self.stats.stall.stall_pop_ns += now - t;
                t = now;
                if got == 0 {
                    continue;
                }
                // One gauge RMW for the whole batch; our own staged
                // packets are folded back into the steering signal via
                // `load_plus`, so self-visible depth stays exact.
                self.depths.sub(self.me, got);
                self.depths.note_staleness(self.me, got);
                did_work = true;
                let mut batch = std::mem::take(&mut self.batch);
                for pkt in batch.drain(..) {
                    self.run_packet(pkt, &mut t);
                }
                self.batch = batch;
                // Flush this batch's steered packets before polling the
                // next ring: staging never outlives one drained batch,
                // which keeps the depth signal other workers see stale
                // by at most one NAPI budget.
                self.flush_outbound();
                // Push boundary: everything since the last packet's
                // final boundary was downstream publishing (ring
                // publish, gauge updates, tail-drop accounting).
                let now = self.epoch.now_ns();
                self.stats.stall.stall_push_ns += now - t;
                t = now;
            }
            self.stats.sweeps += 1;
            // Publish delivery/drop progress before any idle wait, or
            // the orchestrator's quiescence poll would stall against
            // counters parked in this worker's locals.
            self.flush_counters();
            self.stats.stall.wall_ns = t - wall_start;
            // Publish before a park too, or a parked worker's idle time
            // would stay invisible to the sampler for up to 64 parks.
            if did_work || self.stats.sweeps.is_multiple_of(64) || backoff.parks_next() {
                self.publish_telemetry();
            }
            if did_work {
                backoff.reset();
            } else {
                if self.shutdown.load(Ordering::Acquire) {
                    let now = self.epoch.now_ns();
                    self.stats.stall.idle_ns += now - t;
                    t = now;
                    break;
                }
                // The park re-check covers every location a producer
                // publishes to before waking this slot: the inbound
                // rings and the shutdown flag.
                let tier = backoff.idle(slot, || {
                    self.inbound_pending() || self.shutdown.load(Ordering::Acquire)
                });
                match tier {
                    IdleTier::Spin => self.stats.idle_spins += 1,
                    IdleTier::Yield => self.stats.idle_yields += 1,
                    IdleTier::Park(wake) => {
                        self.stats.idle_parks += 1;
                        if wake == Wake::TimedOut && self.inbound_pending() {
                            self.stats.lost_wakeups += 1;
                        }
                    }
                }
                // Idle boundary: the backoff step (plus the shutdown
                // check and telemetry publish that preceded it) is
                // time with no work available.
                let now = self.epoch.now_ns();
                self.stats.stall.idle_ns += now - t;
                t = now;
            }
        }
        self.stats.stall.wall_ns = t - wall_start;
        self.publish_telemetry();
        self.stats.trace_overflow = self.tracer.overflow();
        self.stats.events = self.tracer.events();
        // Carry the conntrack replica home whole: the orchestrator
        // merges the per-worker shards into the run's final table.
        self.stats.conntrack = self.conntrack.take();
        self.stats
    }

    /// Whether any inbound ring holds a published packet.
    fn inbound_pending(&self) -> bool {
        self.inbound.iter().any(|ring| !ring.is_empty())
    }

    /// Publishes one destination's staged packets: gauge up-front (the
    /// consumer decrements after pop, so counting after a successful
    /// publish could race that decrement and underflow), one batched
    /// ring publish, then exact tail-drop accounting for whatever the
    /// full ring rejected.
    fn flush_outbound(&mut self) {
        for dst in 0..self.outbound.len() {
            if self.outbox[dst].is_empty() {
                continue;
            }
            let mut staged = std::mem::take(&mut self.outbox[dst]);
            let m = staged.len();
            self.depths.add(dst, m);
            self.depths.note_staleness(dst, m);
            let now = self.epoch.now_ns();
            // Consumers may pop these the instant the publish lands, so
            // anything needed for tracing the accepted prefix must be
            // copied out first.
            let meta: Vec<(u64, u64, u8)> = if self.tracer.is_enabled() {
                staged
                    .iter()
                    .map(|p| (p.desc.id.0, p.desc.flow, p.stage))
                    .collect()
            } else {
                Vec::new()
            };
            let accepted = self.outbound[dst].push_batch(&mut staged);
            if accepted > 0 {
                self.park[dst].wake();
            }
            self.depths.sub(dst, m - accepted);
            if self.tracer.is_enabled() {
                let qlen = self.depths.depth(dst);
                let gro_cell_stage: u8 = if self.split { 3 } else { 2 };
                for &(pkt_id, flow, stage_in) in meta.iter().take(accepted) {
                    let kind = if stage_in == gro_cell_stage {
                        EventKind::GroCellEnqueue {
                            cpu: dst,
                            pkt: pkt_id,
                            flow,
                            qlen,
                        }
                    } else {
                        EventKind::BacklogEnqueue {
                            cpu: dst,
                            pkt: pkt_id,
                            flow,
                            qlen,
                        }
                    };
                    self.tracer.emit(now, kind);
                }
            }
            // Tail drop, kernel style: the stage's input queue is full
            // and nobody retries. `staged` now holds exactly the
            // rejected suffix.
            for mut pkt in staged.drain(..) {
                if let Some(guard) = pkt.guard.as_deref() {
                    release(guard, self.lc);
                }
                if let Some(prev) = pkt.prev_guard.as_deref() {
                    release(prev, self.lc);
                }
                if let Some(wire) = pkt.desc.wire.take() {
                    if falcon_packet::slab::recycle(wire) {
                        self.stats.slab_recycles += 1;
                    }
                }
                let reason = drop_reason_into(self.split, pkt.stage);
                self.stats.drops[reason.index()] += 1;
                self.tracer.emit(
                    now,
                    EventKind::QueueDrop {
                        reason,
                        cpu: dst,
                        pkt: pkt.desc.id.0,
                        flow: pkt.desc.flow,
                    },
                );
                self.dropped_delta += 1;
            }
            // Hand the (emptied) buffer back so its capacity survives.
            self.outbox[dst] = staged;
        }
    }

    /// Folds locally-accumulated delivery/drop counts into the shared
    /// run counters — one RMW per counter per sweep instead of per
    /// packet.
    fn flush_counters(&mut self) {
        if self.delivered_delta > 0 {
            self.delivered
                .fetch_add(self.delivered_delta, Ordering::Release);
            self.delivered_delta = 0;
        }
        if self.dropped_delta > 0 {
            self.dropped
                .fetch_add(self.dropped_delta, Ordering::Release);
            self.dropped_delta = 0;
        }
    }

    /// One seqlock write session: copies the worker's cumulative
    /// counters and stall buckets into its telemetry shard and drains
    /// the service-time scratch into the per-stage histograms. No-op
    /// (beyond clearing the scratch) when telemetry is off.
    fn publish_telemetry(&mut self) {
        // Mirror the cache's lifetime counters into the stats snapshot
        // first: the final `run()` publish is what makes them visible
        // to the orchestrator even with telemetry off.
        if let Some(cache) = &self.cache {
            self.stats.flow_cache = cache.stats;
        }
        let Some(writer) = self.telemetry.as_mut() else {
            self.hist_scratch.clear();
            return;
        };
        let depth = self.depths.depth(self.me) as u64;
        let staleness = self.depths.staleness(self.me) as u64;
        let conn = self
            .conntrack
            .as_ref()
            .map(|c| c.counters)
            .unwrap_or_default();
        let stats = &self.stats;
        let scratch = &mut self.hist_scratch;
        writer.write(|s| {
            s.counters.sweeps = stats.sweeps;
            s.counters
                .processed_per_stage
                .copy_from_slice(&stats.processed);
            s.counters.delivered = stats.delivered;
            s.counters.bytes_delivered = stats.bytes_delivered;
            s.counters.drops.copy_from_slice(&stats.drops);
            s.counters
                .malformed_per_stage
                .copy_from_slice(&stats.malformed_per_stage);
            s.counters
                .bytes_per_stage
                .copy_from_slice(&stats.bytes_per_stage);
            s.counters.decisions = stats.decisions;
            s.counters.second_choices = stats.second_choices;
            s.counters.migrations = stats.migrations;
            s.counters.flow_cache_hits = stats.flow_cache.hits;
            s.counters.flow_cache_misses = stats.flow_cache.misses;
            s.counters.flow_cache_evictions = stats.flow_cache.evictions;
            s.counters.flow_cache_invalidations = stats.flow_cache.invalidations;
            s.counters.conntrack_updates = conn.updates;
            s.counters.conntrack_transitions = conn.transitions;
            s.counters.scr_delta_records = conn.delta_records;
            s.stall = stats.stall.clone();
            s.ring_depth = depth;
            s.depth_staleness = staleness;
            for &(stage, ns) in scratch.iter() {
                s.stage_service_ns[stage as usize].record(ns);
            }
        });
        scratch.clear();
    }

    /// Executes the packet's current stage, then advances it through
    /// the pipeline — inline while hops stay local, over a ring when
    /// they leave this worker.
    ///
    /// `t` is the caller's chained attribution timestamp (see `run`):
    /// stage completion charges `busy`, the steering block charges
    /// `guard`, and whatever trails the last boundary rides into the
    /// caller's next one.
    fn run_packet(&mut self, mut pkt: DpPkt, t: &mut u64) {
        let last_stage = (self.stage_ns.len() - 1) as u8;
        loop {
            let stage = pkt.stage;
            let cp = checkpoint(self.split, stage);
            let start = self.epoch.now_ns();
            let queued_ns = start.saturating_sub(pkt.enqueued_ns);
            let mut service_ns = self.stage_ns[stage as usize];
            if pkt.last_worker != usize::MAX && pkt.last_worker != self.me {
                service_ns += self.locality_penalty_ns;
            }
            // Wire mode: do the stage's real byte work first, then spin
            // out whatever remains of the modeled budget — the stage's
            // core occupancy stays calibrated to the cost model while
            // the bytes stay honest. A fresh flow-cache hit at the
            // decap or bridge stage skips the budget too: the cached
            // verdict replaces that stage's kernel work outright.
            let mut delivery = None;
            let mut cache_hit_skip = false;
            if let Some(wire) = self.wire.as_ref() {
                let split = self.split;
                let cache = self.cache.as_mut();
                let conntrack = self.conntrack.as_mut();
                let cache_key = &mut pkt.cache_key;
                let seq = pkt.desc.seq;
                let outcome = pkt
                    .desc
                    .wire
                    .as_deref_mut()
                    .ok_or(WireError::NoBuffer)
                    .and_then(|buf| {
                        wire_stage_work(wire, split, stage, buf, cache, cache_key, conntrack, seq)
                            .map(|(d, skip)| (d, skip, falcon_wire::stage_touched_bytes(buf)))
                    });
                match outcome {
                    Ok((d, skip, touched)) => {
                        delivery = d;
                        cache_hit_skip = skip;
                        self.stats.bytes_per_stage[stage as usize] += touched;
                    }
                    Err(_malformed) => {
                        // The frame failed this stage's verification:
                        // drop it here, kernel style (no budget spin —
                        // a drop frees the core early). Both held
                        // routings release so the flow can migrate.
                        let now = self.epoch.now_ns();
                        let wire_ns = now.saturating_sub(start);
                        self.stats.busy_ns += wire_ns;
                        self.stats.stall.busy_ns += now - *t;
                        *t = now;
                        let lc = self.lc.max(pkt.lc);
                        if let Some(guard) = pkt.guard.take() {
                            release(&guard, lc);
                        }
                        if let Some(prev) = pkt.prev_guard.take() {
                            release(&prev, lc);
                        }
                        if let Some(wire) = pkt.desc.wire.take() {
                            if falcon_packet::slab::recycle(wire) {
                                self.stats.slab_recycles += 1;
                            }
                        }
                        self.stats.drops[DropReason::Malformed.index()] += 1;
                        self.stats.malformed_per_stage[stage as usize] += 1;
                        self.tracer.emit(
                            self.epoch.now_ns(),
                            EventKind::QueueDrop {
                                reason: DropReason::Malformed,
                                cpu: self.me,
                                pkt: pkt.desc.id.0,
                                flow: pkt.desc.flow,
                            },
                        );
                        self.dropped_delta += 1;
                        return;
                    }
                }
            }
            let spun = if self.wire.is_some() {
                let wire_ns = self.epoch.now_ns().saturating_sub(start);
                if cache_hit_skip {
                    // Fresh flow-cache hit at decap/bridge: the cached
                    // verdict replaced the stage's kernel work, so the
                    // modeled budget is genuinely not owed. This is
                    // where the cache buys goodput.
                    wire_ns
                } else {
                    wire_ns + spin_for_ns(service_ns.saturating_sub(wire_ns))
                }
            } else {
                spin_for_ns(service_ns)
            };
            let done = self.epoch.now_ns();
            // Busy boundary: the stage spin plus all per-packet
            // bookkeeping since the previous boundary.
            self.stats.stall.busy_ns += done - *t;
            *t = done;
            self.stats.processed[stage as usize] += 1;
            self.stats.busy_ns += spun;
            if self.telemetry.is_some() {
                self.hist_scratch.push((stage, spun));
            }
            pkt.hop_digest = hop_hash_extend(pkt.hop_digest, cp, self.me);
            pkt.hops += 1;
            if self.tracer.is_enabled() {
                self.tracer.emit(
                    start,
                    EventKind::Exec {
                        core: self.me,
                        ctx: Context::SoftIrq,
                        func: self.labels[stage as usize],
                        dur_ns: spun,
                    },
                );
                self.tracer.emit(
                    done,
                    EventKind::StageExec {
                        checkpoint: cp,
                        cpu: self.me,
                        ctx: Context::SoftIrq,
                        pkt: pkt.desc.id.0,
                        flow: pkt.desc.flow,
                        seq: pkt.desc.seq,
                        queued_ns,
                        service_ns: spun,
                    },
                );
            }
            // Audit ticket: bump this worker's Lamport clock past the
            // packet's carried clock. Consecutive executions at one
            // (flow, checkpoint) are linked by happens-before
            // (same-thread program order, the ring's release/acquire
            // across a hop, or the guard-drain edge a migration
            // synchronizes on), and the clock is carried along every
            // one of those edges — so their tickets come out strictly
            // increasing without a single shared-line RMW.
            self.lc = self.lc.max(pkt.lc) + 1;
            pkt.lc = self.lc;
            self.stats
                .order_log
                .push((self.lc, self.me as u32, pkt.desc.flow, cp, pkt.desc.seq));
            // The stage has executed: the packet has retired from the
            // *previous* routing, so that registration can drop. The
            // current routing's guard stays held until the next stage
            // runs (or the packet delivers/drops). The release clock
            // makes this execution's ticket visible to whichever worker
            // a subsequent migration lands on.
            if let Some(prev) = pkt.prev_guard.take() {
                release(&prev, self.lc);
            }

            if stage == last_stage {
                let latency = done.saturating_sub(pkt.injected_ns);
                self.stats.delivered += 1;
                self.stats.latencies.push(latency);
                self.lc += 1;
                self.stats.order_log.push((
                    self.lc,
                    self.me as u32,
                    pkt.desc.flow,
                    DELIVERY_CHECK,
                    pkt.desc.seq,
                ));
                // Delivery is itself a checkpoint, as in the
                // simulator's skb hop log; folding it in keeps the
                // digest comparable across the two executors.
                pkt.hop_digest = hop_hash_extend(pkt.hop_digest, DELIVERY_CHECK, self.me);
                pkt.hops += 1;
                if self.tracer.is_enabled() {
                    self.tracer.emit(
                        done,
                        EventKind::StageExec {
                            checkpoint: DELIVERY_CHECK,
                            cpu: self.me,
                            ctx: Context::SoftIrq,
                            pkt: pkt.desc.id.0,
                            flow: pkt.desc.flow,
                            seq: pkt.desc.seq,
                            queued_ns: 0,
                            service_ns: 0,
                        },
                    );
                }
                self.tracer.emit(
                    done,
                    EventKind::Deliver {
                        cpu: self.me,
                        pkt: pkt.desc.id.0,
                        flow: pkt.desc.flow,
                        latency_ns: latency,
                        hops: pkt.hops,
                        hop_hash: pkt.hop_digest,
                    },
                );
                if let Some(guard) = pkt.guard.take() {
                    release(&guard, self.lc);
                }
                if let Some(d) = delivery {
                    self.stats.bytes_delivered += d.payload_len;
                    self.stats
                        .digests
                        .push((pkt.desc.flow, pkt.desc.seq, d.digest));
                }
                // The packet is consumed: hand its wire buffer back to
                // the injector's slab pool in one shell-ring push. A
                // heap-built buffer recycles nothing and just drops.
                if let Some(wire) = pkt.desc.wire.take() {
                    if falcon_packet::slab::recycle(wire) {
                        self.stats.slab_recycles += 1;
                    }
                }
                self.delivered_delta += 1;
                return;
            }

            pkt.last_worker = self.me;
            pkt.stage += 1;
            pkt.enqueued_ns = done;

            let Some(ifindex) = steer_ifindex(self.split, pkt.stage) else {
                // A backlog-local hop (A→B unsplit, A2→B split): the
                // poll loop feeds its own CPU's backlog, no steering
                // point exists there. The upstream routing's guard
                // rides along until the stage after next has run.
                if self.tracer.is_enabled() {
                    self.tracer.emit(
                        done,
                        EventKind::BacklogEnqueue {
                            cpu: self.me,
                            pkt: pkt.desc.id.0,
                            flow: pkt.desc.flow,
                            qlen: self.depths.depth(self.me),
                        },
                    );
                }
                continue;
            };

            // SCR run-to-completion: under Replicate a packet executes
            // every remaining stage on the worker it landed on — no
            // policy choice, no flow-table registration, no guards.
            // Cross-worker state consistency is the conntrack shards'
            // job, not the steering layer's. Chaos steering still
            // rotates packets across workers (guard-free hops) so the
            // merge path gets exercised under adversarial placement.
            if self.policy.kind() == PolicyKind::Replicate {
                self.stats.decisions += 1;
                let mut dst = self.me;
                if let Some(rot) = pkt.desc.seq.checked_div(self.chaos_steer_period) {
                    let n = self.outbound.len();
                    dst = (rot as usize + pkt.stage as usize) % n;
                }
                let now = self.epoch.now_ns();
                self.stats.stall.guard_wait_ns += now - *t;
                *t = now;
                if dst == self.me {
                    if self.tracer.is_enabled() {
                        self.tracer.emit(
                            done,
                            EventKind::BacklogEnqueue {
                                cpu: self.me,
                                pkt: pkt.desc.id.0,
                                flow: pkt.desc.flow,
                                qlen: self.depths.depth(self.me),
                            },
                        );
                    }
                    continue;
                }
                self.outbox[dst].push(pkt);
                return;
            }
            // A steering point (A1→A2 when split, B→C, C→D). Resolve
            // the policy's preference, then the flow table's
            // order-safe verdict. The load signal folds this worker's
            // own staged-but-unpublished packets back in (`load_plus`),
            // so the only staleness other workers' staging introduces
            // is bounded by one NAPI budget per peer.
            let mut choice = self.policy.choose_by(pkt.desc.rx_hash, ifindex, |c| {
                self.depths.load_plus(c, self.outbox[c].len())
            });
            // Chaos steering (tests only, None when the period is 0):
            // rotate the preferred worker so nearly every packet asks
            // the flow table for a migration, hammering the in-flight
            // guard.
            if let Some(rot) = pkt.desc.seq.checked_div(self.chaos_steer_period) {
                let n = self.outbound.len();
                choice.worker = (rot as usize + pkt.stage as usize) % n;
                choice.second = false;
            }
            self.stats.decisions += 1;
            if choice.second {
                self.stats.second_choices += 1;
            }
            let route = self.flows.route(pkt.desc.flow, ifindex, choice.worker);
            if self.tracer.is_enabled() {
                self.tracer.emit(
                    done,
                    EventKind::FalconChoice {
                        ifindex,
                        hash: pkt.desc.rx_hash,
                        first: choice.first,
                        chosen: route.worker,
                        second: choice.second,
                    },
                );
                if route.migrated {
                    self.tracer.emit(
                        done,
                        EventKind::FlowMigration {
                            flow: pkt.desc.flow,
                            ifindex,
                            from: self.me,
                            to: route.worker,
                        },
                    );
                }
            }
            if route.migrated {
                self.stats.migrations += 1;
            }
            // Hand-over-hand: the old routing's guard becomes the
            // previous-hop hold, released only after the new stage
            // executes.
            pkt.prev_guard = pkt.guard.take();
            pkt.guard = Some(route.guard);
            // Fold the guard's release clock in: if this routing was a
            // migration, the drained predecessor's tickets now
            // happen-before everything this packet stamps next.
            pkt.lc = pkt.lc.max(route.lc);
            // Guard boundary: the policy choice, flow-table routing and
            // hand-over-hand guard exchange since the busy boundary.
            let now = self.epoch.now_ns();
            self.stats.stall.guard_wait_ns += now - *t;
            *t = now;
            let stage_in = pkt.stage;
            let gro_cell_stage: u8 = if self.split { 3 } else { 2 };
            if route.worker == self.me {
                // Steered to ourselves: still a queue insert
                // conceptually, just with no ring crossing.
                if self.tracer.is_enabled() {
                    let qlen = self.depths.depth(self.me);
                    let kind = if stage_in == gro_cell_stage {
                        EventKind::GroCellEnqueue {
                            cpu: self.me,
                            pkt: pkt.desc.id.0,
                            flow: pkt.desc.flow,
                            qlen,
                        }
                    } else {
                        EventKind::BacklogEnqueue {
                            cpu: self.me,
                            pkt: pkt.desc.id.0,
                            flow: pkt.desc.flow,
                            qlen,
                        }
                    };
                    self.tracer.emit(done, kind);
                }
                continue;
            }
            // Stage toward the destination; the batch flush after this
            // ring's drain publishes it (ring + gauge) in one shot.
            // Ordering is safe because the staged packet still holds
            // both guards: the (flow, device) pair can't migrate while
            // it sits here, so all in-flight same-flow packets for the
            // routed stage keep sharing this worker's FIFO path.
            self.outbox[route.worker].push(pkt);
            return;
        }
    }
}

/// How long the injector yields against a full stage-A ring before
/// giving up and tail-dropping. Open-loop injection wants backpressure,
/// not loss, so this is generous; it only trips if workers stall.
const INJECT_MAX_YIELDS: u32 = 1_000_000;

/// The provenance header stamped on every BENCH artifact: schema
/// version, git sha, hostname, and this host's core/package summary
/// from the sysfs topology (identity fallback when unreadable).
pub fn run_meta(artifact: &str) -> RunMeta {
    let cores = available_cores();
    let (packages, summary) = match crate::topology::CpuTopology::detect() {
        Some(topo) => (
            topo.packages(),
            format!("{} logical cpus / {} packages", topo.len(), topo.packages()),
        ),
        None => (1, format!("{cores} logical cpus (topology unreadable)")),
    };
    RunMeta::collect(artifact, cores, packages, &summary)
}

/// A stable per-flow RSS hash, like the NIC's Toeplitz over the
/// 5-tuple. Shared by the synthetic injector and the live-socket
/// ingestion frontend so both steer a given flow identically.
pub fn rss_hash_for_flow(flow: u64) -> u32 {
    hash_32(0x517c_c1b7u32.wrapping_add(flow as u32), 32)
}

/// The handle a packet source drives to push descriptors into a
/// running pipeline. It owns the injector slot of the ring mesh
/// (source index `n`) and replicates exactly what the synthetic
/// injector does per packet: route through the [`FlowTable`], charge
/// the depth gauge, and spin-then-drop on a full ring — so an external
/// source (e.g. the live-socket rx thread) feeds the same stages,
/// steering policies, and in-flight guard as every other run.
pub struct Injector {
    to_workers: Vec<Producer<DpPkt>>,
    policy: Arc<Policy>,
    flows: Arc<FlowTable>,
    depths: Arc<DepthGauge>,
    delivered: Arc<AtomicU64>,
    dropped: Arc<AtomicU64>,
    /// The workers' park slots: each successful push wakes its
    /// destination if it is parked.
    park: Arc<[ParkSlot]>,
    epoch: Epoch,
    tracer: Tracer,
    rx_counters: Arc<falcon_telemetry::RxCounters>,
    telem_hub: Option<Arc<Hub>>,
    /// Wire mode: the run's shared bridge FDB, so a scripted source can
    /// mutate the control plane mid-run (epoch-invalidating every
    /// worker's cached flow verdicts). `None` outside wire mode.
    fdb: Option<Arc<SharedFdb>>,
    injected: u64,
    inject_drops: u64,
    bytes_injected: u64,
    /// Slab-pool counters of the packet source's buffer pool, once the
    /// source attaches them — surfaced in [`RunOutput::slab`] and, with
    /// telemetry on, streamed as `"kind":"slab"` JSONL lines and
    /// `falcon_slab_*` Prometheus series.
    slab: Option<Arc<falcon_packet::SlabCounters>>,
}

impl Injector {
    /// Run-relative nanoseconds on the pipeline's epoch.
    pub fn now_ns(&self) -> u64 {
        self.epoch.now_ns()
    }

    /// Packets handed to [`inject`](Self::inject) so far (delivered or
    /// dropped, every one is accounted for by quiescence).
    pub fn injected(&self) -> u64 {
        self.injected
    }

    /// Packets tail-dropped at the injector because a worker ring
    /// stayed full past the yield budget.
    pub fn inject_drops(&self) -> u64 {
        self.inject_drops
    }

    /// Wire mode: the run's shared bridge FDB. Mutating it (set /
    /// remove) bumps the invalidation epoch, so every worker's cached
    /// flow verdicts re-verify on their next consult. The FDB-churn
    /// conformance tests drive this between injection phases.
    pub fn fdb(&self) -> Option<&Arc<SharedFdb>> {
        self.fdb.as_ref()
    }

    /// Blocks until every packet injected so far is accounted for as a
    /// delivery or a drop (60 s deadline, same as the orchestrator's
    /// quiescence poll — it only trips if the pipeline wedges). A
    /// scripted source calls this before mutating shared control-plane
    /// state (e.g. the FDB) so the mutation is quiescent: no packet is
    /// in flight to race it, which keeps churn runs deterministic.
    pub fn wait_quiesced(&self) {
        let deadline = std::time::Instant::now() + Duration::from_secs(60);
        while self.delivered.load(Ordering::Acquire) + self.dropped.load(Ordering::Acquire)
            < self.injected
        {
            if std::time::Instant::now() >= deadline {
                break;
            }
            std::thread::yield_now();
        }
    }

    /// Rx-thread telemetry counters. Always present and free to
    /// increment; call [`enable_rx_telemetry`](Self::enable_rx_telemetry)
    /// once to also surface them through the live sampler.
    pub fn rx_counters(&self) -> &Arc<falcon_telemetry::RxCounters> {
        &self.rx_counters
    }

    /// Attaches the rx counters to the run's telemetry hub (if the
    /// scenario has telemetry on), so they stream as `"kind":"rx"`
    /// JSONL lines and `falcon_rx_*` Prometheus series. Synthetic runs
    /// never call this, which keeps their exports byte-compatible.
    /// Returns the counters for convenience.
    pub fn enable_rx_telemetry(&mut self) -> Arc<falcon_telemetry::RxCounters> {
        if let Some(hub) = &self.telem_hub {
            hub.attach_rx(Arc::clone(&self.rx_counters));
        }
        Arc::clone(&self.rx_counters)
    }

    /// Attaches the source's slab-pool counters to the run: they land
    /// in [`RunOutput::slab`] at the end and, when the scenario has
    /// telemetry on, stream live through the sampler. Mirrors
    /// [`enable_rx_telemetry`](Self::enable_rx_telemetry).
    pub fn attach_slab_counters(&mut self, counters: Arc<falcon_packet::SlabCounters>) {
        if let Some(hub) = &self.telem_hub {
            hub.attach_slab(Arc::clone(&counters));
        }
        self.slab = Some(counters);
    }

    /// Routes one descriptor and pushes it at the chosen worker's
    /// ring, yielding while the ring is full and tail-dropping (guard
    /// released, drop counted) after the yield budget. Returns whether
    /// the packet entered the pipeline; either way it is counted, so
    /// the orchestrator's quiescence poll stays exact.
    pub fn inject(&mut self, desc: PktDesc) -> bool {
        self.injected += 1;
        let pkt_bytes = desc.wire.as_ref().map_or(0, |w| w.wire_bytes());
        let id = desc.id.0;
        let flow = desc.flow;
        // Replicate sprays packets across workers round-robin at the
        // injector — deliberately ignoring the flow hash, so a single
        // heavy flow spreads over every core instead of pinning its
        // RSS core. No flow-table registration and no guard: SCR
        // replaces serialization with per-worker state replicas.
        let (dst, guard, lc) = if self.policy.kind() == PolicyKind::Replicate {
            (
                ((self.injected - 1) % self.to_workers.len() as u64) as usize,
                None,
                0,
            )
        } else {
            let want = self.policy.rss_worker(desc.rx_hash);
            let route = self.flows.route(flow, PNIC_IF, want);
            // The audit clock seeds from the guard: after an RSS
            // migration the receiving worker must stamp past the
            // drained predecessor's records.
            (route.worker, Some(route.guard), route.lc)
        };
        let now = self.epoch.now_ns();
        let mut pkt = DpPkt {
            desc,
            stage: 0,
            injected_ns: now,
            enqueued_ns: now,
            last_worker: usize::MAX,
            hop_digest: HOP_HASH_INIT,
            hops: 0,
            guard,
            prev_guard: None,
            lc,
            cache_key: None,
        };
        let mut yields = 0u32;
        loop {
            // Gauge before push, undone on failure — same underflow
            // hazard as the worker's enqueue.
            self.depths.inc(dst);
            match self.to_workers[dst].try_push(pkt) {
                Ok(()) => {
                    self.park[dst].wake();
                    self.bytes_injected += pkt_bytes;
                    if self.tracer.is_enabled() {
                        self.tracer.emit(
                            self.epoch.now_ns(),
                            EventKind::RingEnqueue {
                                queue: dst,
                                pkt: id,
                                flow,
                                qlen: self.depths.depth(dst),
                            },
                        );
                    }
                    return true;
                }
                Err(mut back) => {
                    self.depths.dec(dst);
                    yields += 1;
                    if yields >= INJECT_MAX_YIELDS {
                        if let Some(guard) = back.guard.as_deref() {
                            release(guard, back.lc);
                        }
                        // Recycle the dropped packet's wire buffer so a
                        // wedged worker can't bleed the slab pool dry.
                        if let Some(wire) = back.desc.wire.take() {
                            falcon_packet::slab::recycle(wire);
                        }
                        self.inject_drops += 1;
                        self.tracer.emit(
                            self.epoch.now_ns(),
                            EventKind::QueueDrop {
                                reason: DropReason::Ring,
                                cpu: dst,
                                pkt: id,
                                flow,
                            },
                        );
                        self.dropped.fetch_add(1, Ordering::Release);
                        return false;
                    }
                    pkt = back;
                    std::thread::yield_now();
                }
            }
        }
    }
}

/// Worker-thread count a scenario actually runs with. Chaos and
/// oversubscribed runs deliberately skip the host-core clamp: their
/// correctness stress needs real multi-worker ring crossings even on a
/// 1-core CI host and doesn't care about perf-clean pinning.
fn effective_workers(scenario: &Scenario) -> usize {
    if scenario.chaos_steer_period > 0 || scenario.oversubscribe {
        scenario.workers.max(1)
    } else {
        clamp_workers(scenario.workers)
    }
}

/// Sizes the slab pool from the scenario's packet budget so the
/// steady-state wire path never falls back to the heap.
///
/// The number of segments alive at once is bounded by what the rings
/// and in-flight batches can hold: each of the `n` workers has `n + 1`
/// inbound rings (peers + injector) of `ring_capacity` slots, plus a
/// NAPI batch and an outbox per peer in flight on each worker, plus
/// injector slack. Short runs need no more than every packet resident
/// simultaneously, so take the min of the two bounds, convert packets
/// to wire segments per the traffic shape, and cap at 64 Ki slots so a
/// huge `packets` budget can't balloon the pool.
fn size_slab_for(scenario: &Scenario, cfg: &mut falcon_packet::SlabConfig) {
    let n = effective_workers(scenario);
    let (seg_payload, segs_per_pkt) = match scenario.shape {
        TrafficShape::Udp => (scenario.payload, 1),
        TrafficShape::TcpGro { mss } => (
            scenario.payload.min(mss.max(1)),
            scenario.payload.div_ceil(mss.max(1)).max(1),
        ),
    };
    let inflight_pkts =
        (n + 1) * n * scenario.ring_capacity + n * (n + 1) * scenario.napi_budget.max(1) + 64;
    let slots = (scenario.packets as usize)
        .min(inflight_pkts)
        .saturating_mul(segs_per_pkt)
        .saturating_add(64)
        .min(65_536);
    // Headers (ethernet + ipv4 + l4 + VXLAN encapsulation) add ~104
    // bytes on top of the segment payload; 128 leaves margin.
    if seg_payload + 128 <= falcon_packet::slab::MTU_SLOT {
        cfg.mtu_slots = cfg.mtu_slots.max(slots);
    } else {
        cfg.jumbo_slots = cfg.jumbo_slots.max(slots);
    }
}

/// Waits out one injection gap. A gap well past the scheduler's
/// granularity sleeps through all but its last 100 µs and spins only
/// the tail: an injector spinning for milliseconds would hold a core
/// the workers it feeds need on a small host, keeping them from ever
/// going idle. Short gaps spin, for precise pacing.
fn pace(gap_ns: u64) {
    const SPIN_TAIL_NS: u64 = 100_000;
    if gap_ns <= 2 * SPIN_TAIL_NS {
        spin_for_ns(gap_ns);
        return;
    }
    let start = std::time::Instant::now();
    std::thread::sleep(Duration::from_nanos(gap_ns - SPIN_TAIL_NS));
    let slept = start.elapsed().as_nanos() as u64;
    spin_for_ns(gap_ns.saturating_sub(slept));
}

/// The synthetic in-process packet source [`run_scenario`] runs:
/// `scenario.packets` descriptors round-robin across flows, with real
/// wire bytes (possibly chaos-corrupted) in wire mode. Returns the
/// number of segments the corruptor flipped.
///
/// Wire frames are built in place inside slab-pool slots
/// ([`falcon_wire::SlabFrameBuilder`]): the pool's slots and shells
/// recirculate through the workers' delivery/drop recycling, so after
/// the first lap of the pool the source allocates nothing per packet.
/// The bytes are identical to the old heap path by construction.
fn synthetic_source(scenario: &Scenario, inj: &mut Injector) -> u64 {
    let factory = FrameFactory::default();
    let mut corruptor = Corruptor::new(scenario.wire_seed, scenario.corrupt_per_million);
    let mut seqs = vec![0u64; scenario.flows.max(1) as usize];
    let mut slab = scenario.wire.then(|| {
        let mut cfg = falcon_packet::SlabConfig::default();
        if scenario.slab_slots > 0 {
            cfg.mtu_slots = scenario.slab_slots;
        } else {
            size_slab_for(scenario, &mut cfg);
        }
        let pool = falcon_packet::SlabPool::new(cfg);
        inj.attach_slab_counters(pool.counters());
        (pool, falcon_wire::SlabFrameBuilder::new(factory))
    });
    for i in 0..scenario.packets {
        let flow = i % scenario.flows.max(1);
        let seq = seqs[flow as usize];
        seqs[flow as usize] += 1;
        let mut desc = PktDesc::new(
            i,
            flow,
            seq,
            rss_hash_for_flow(flow),
            scenario.payload as u32,
        );
        if let Some((pool, builder)) = slab.as_mut() {
            // Real bytes: the exact segments a sender's TSO would
            // emit, possibly bit-flipped by the chaos corruptor before
            // they hit the "NIC".
            let mut wire = match scenario.shape {
                TrafficShape::Udp => builder.udp_wire(pool, flow, seq, scenario.payload),
                TrafficShape::TcpGro { mss } => {
                    builder.tcp_wire(pool, flow, seq, scenario.payload, mss)
                }
            };
            for seg in wire.segs.iter_mut() {
                corruptor.maybe_corrupt(seg);
            }
            desc = desc.with_wire(wire);
        }
        inj.inject(desc);
        pace(scenario.inject_gap_ns);
    }
    if let Some((pool, _)) = slab.as_mut() {
        // Let the pipeline finish, then drain the return rings once so
        // the run's final counters show the full recycle picture (and
        // leak diagnostics can compare free slots against the config).
        inj.wait_quiesced();
        pool.drain_returns();
    }
    corruptor.flipped
}

/// Runs one scenario to completion and returns the full output.
///
/// Spawns `scenario.workers` (clamped to the host) worker threads plus
/// an injector, waits for every injected packet to be delivered or
/// dropped, then joins everything and hands back per-worker stats.
pub fn run_scenario(scenario: &Scenario) -> RunOutput {
    let s = scenario.clone();
    let (mut out, flipped) = run_scenario_from(scenario, move |inj| synthetic_source(&s, inj));
    out.corrupted_segments = flipped;
    out
}

/// Runs one scenario with an external packet source in the injector
/// slot.
///
/// `source` runs on the injector thread after the start barrier and
/// drives [`Injector::inject`] until it has no more packets; its
/// return value is handed back next to the [`RunOutput`]. Quiescence
/// waits on the *actual* injected count, not `scenario.packets` —
/// `scenario.packets` only pre-sizes the per-worker logs, so a source
/// should still set it to its best packet-count estimate.
pub fn run_scenario_from<S, R>(scenario: &Scenario, source: S) -> (RunOutput, R)
where
    S: FnOnce(&mut Injector) -> R + Send + 'static,
    R: Send + 'static,
{
    let n = effective_workers(scenario);
    let cost = CostModel::kernel_5_4();
    let mut stage_ns = scenario.stage_service_ns(&cost);
    for s in stage_ns.iter_mut() {
        *s = *s * scenario.work_scale_milli / 1000;
    }
    let locality_penalty_ns = cost.locality_penalty_ns * scenario.work_scale_milli / 1000;
    let n_stages = stage_ns.len();

    // Wire mode: one factory describes every frame; the FDB is
    // programmed once with both endpoint MACs of every flow and shared
    // read-only across workers.
    let wire_setup = if scenario.wire {
        let factory = FrameFactory::default();
        let fdb = Arc::new(SharedFdb::new(Fdb::for_flows(
            &factory,
            scenario.flows.max(1),
        )));
        Some((factory, fdb))
    } else {
        None
    };

    let policy = Arc::new(Policy::with_two_choice(
        scenario.policy,
        n,
        scenario.steer_two_choice,
    ));
    let flows = Arc::new(FlowTable::new(n * 4));
    let depths = Arc::new(DepthGauge::new(n, scenario.napi_budget.max(1)));
    let delivered = Arc::new(AtomicU64::new(0));
    let dropped = Arc::new(AtomicU64::new(0));
    let shutdown = Arc::new(AtomicBool::new(false));
    let park: Arc<[ParkSlot]> = (0..n).map(|_| ParkSlot::new()).collect();
    // Workers + injector + the orchestrating thread.
    let barrier = Arc::new(Barrier::new(n + 2));
    let epoch = Epoch::start();

    // Ring mesh: producer side indexed [src][dst], consumer side
    // [dst][src]. Sources 0..n are workers; source n is the injector.
    let mut producers: Vec<Vec<Option<Producer<DpPkt>>>> =
        (0..=n).map(|_| (0..n).map(|_| None).collect()).collect();
    let mut consumers: Vec<Vec<Option<Consumer<DpPkt>>>> =
        (0..n).map(|_| (0..=n).map(|_| None).collect()).collect();
    for (src, row) in producers.iter_mut().enumerate() {
        for (dst, slot) in row.iter_mut().enumerate() {
            let (tx, rx) = ring::<DpPkt>(scenario.ring_capacity);
            *slot = Some(tx);
            consumers[dst][src] = Some(rx);
        }
    }

    let napi_budget = scenario.napi_budget.max(1);
    // NUMA/SMT-aware pin targets: worker slot `me` pins to
    // `pin_plan[me]`. Falls back to the identity plan when the sysfs
    // topology is unreadable.
    let pin_plan = crate::topology::core_plan(n);
    // Preallocate the per-worker logs from the packet budget: the
    // order log holds every stage execution plus the delivery record,
    // and a single worker can in the worst case run all of them.
    // Growing these mid-run reallocates inside the hot path and shows
    // up as latency outliers.
    let order_log_cap = (scenario.packets as usize).saturating_mul(n_stages + 1);

    // Rx-thread telemetry counters: always created (they are a few
    // atomics), attached to the sampler's hub when telemetry is on, and
    // handed to the packet source through the Injector.
    let rx_counters = Arc::new(falcon_telemetry::RxCounters::new());

    // Live telemetry: one shard per worker, writers handed out by
    // worker index; the sampler thread starts before the workers pass
    // the barrier so the run's first interval is covered.
    let mut telemetry_setup = scenario.telemetry.as_ref().map(|spec| {
        let labels = stage_labels(scenario.split_gro)
            .iter()
            .map(|s| s.to_string())
            .collect();
        let (hub, writers) = Hub::new(n, labels, DropReason::ALL.len());
        let interval_ms = if spec.interval_ms == 0 {
            DEFAULT_INTERVAL_MS
        } else {
            spec.interval_ms
        };
        let sampler = Sampler::spawn(
            Arc::clone(&hub),
            move || epoch.now_ns(),
            SamplerConfig {
                interval_ms,
                jsonl_path: spec.jsonl_path.clone(),
                prom_addr: spec.prom_addr.clone(),
                meta: run_meta("telemetry"),
            },
        )
        .expect("telemetry sampler: bad --prom-addr or unwritable path");
        // Report the bound exposition address while the run is live —
        // with port 0 this is the only way a caller can learn it in
        // time to scrape mid-flight.
        if let (Some(tx), Some(addr)) = (&spec.prom_addr_tx, sampler.prom_addr()) {
            let _ = tx.send(addr);
        }
        (sampler, writers, hub)
    });
    let mut telem_writers: Vec<Option<ShardWriter>> = match telemetry_setup.as_mut() {
        Some((_, writers, _)) => std::mem::take(writers).into_iter().map(Some).collect(),
        None => (0..n).map(|_| None).collect(),
    };
    let telem_hub = telemetry_setup.as_ref().map(|(_, _, hub)| Arc::clone(hub));

    let mut handles = Vec::with_capacity(n);
    for (me, inbound_row) in consumers.into_iter().enumerate() {
        let ctx = WorkerCtx {
            me,
            core: pin_plan[me],
            stage_ns: stage_ns.clone(),
            split: scenario.split_gro,
            labels: stage_labels(scenario.split_gro),
            locality_penalty_ns,
            napi_budget,
            chaos_steer_period: scenario.chaos_steer_period,
            chaos_sweep_stall_ns: scenario.chaos_sweep_stall_ns,
            wire: wire_setup.as_ref().map(|(factory, fdb)| WireCtx {
                fdb: Arc::clone(fdb),
                host_mac: FrameFactory::host_mac(),
                vni: factory.vni,
            }),
            cache: (scenario.wire && scenario.flow_cache)
                .then(|| FlowCache::new(scenario.flow_cache_entries)),
            conntrack: scenario.wire.then(ConnShard::new),
            epoch,
            lc: 0,
            policy: Arc::clone(&policy),
            flows: Arc::clone(&flows),
            depths: Arc::clone(&depths),
            delivered: Arc::clone(&delivered),
            dropped: Arc::clone(&dropped),
            shutdown: Arc::clone(&shutdown),
            park: Arc::clone(&park),
            inbound: inbound_row.into_iter().flatten().collect(),
            outbound: producers[me]
                .iter_mut()
                .map(|p| p.take().expect("worker producer"))
                .collect(),
            batch: Vec::with_capacity(napi_budget),
            outbox: (0..n).map(|_| Vec::with_capacity(napi_budget)).collect(),
            delivered_delta: 0,
            dropped_delta: 0,
            tracer: if scenario.trace_capacity > 0 {
                Tracer::new(scenario.trace_capacity)
            } else {
                Tracer::disabled()
            },
            stats: WorkerStats {
                processed: vec![0; n_stages],
                order_log: Vec::with_capacity(order_log_cap),
                latencies: Vec::with_capacity(scenario.packets as usize),
                digests: Vec::with_capacity(if scenario.wire {
                    scenario.packets as usize
                } else {
                    0
                }),
                malformed_per_stage: vec![0; n_stages],
                bytes_per_stage: vec![0; n_stages],
                ..WorkerStats::default()
            },
            telemetry: telem_writers[me].take(),
            hist_scratch: Vec::with_capacity(napi_budget.saturating_mul(n_stages + 1)),
        };
        let barrier = Arc::clone(&barrier);
        let pin = scenario.pin;
        handles.push(
            std::thread::Builder::new()
                .name(format!("dp-worker-{me}"))
                .spawn(move || ctx.run(barrier, pin))
                .expect("spawn worker"),
        );
    }

    // Injector: source index n. The source (synthetic or external)
    // runs on this thread and drives the Injector handle.
    let injector = {
        let to_workers: Vec<Producer<DpPkt>> = producers[n]
            .iter_mut()
            .map(|p| p.take().expect("injector producer"))
            .collect();
        let policy = Arc::clone(&policy);
        let flows_table = Arc::clone(&flows);
        let depths = Arc::clone(&depths);
        let delivered = Arc::clone(&delivered);
        let dropped = Arc::clone(&dropped);
        let park = Arc::clone(&park);
        let barrier = Arc::clone(&barrier);
        let rx_counters = Arc::clone(&rx_counters);
        let inj_fdb = wire_setup.as_ref().map(|(_, fdb)| Arc::clone(fdb));
        let trace_capacity = scenario.trace_capacity;
        std::thread::Builder::new()
            .name("dp-injector".to_string())
            .spawn(move || {
                let tracer = if trace_capacity > 0 {
                    Tracer::new(trace_capacity)
                } else {
                    Tracer::disabled()
                };
                barrier.wait();
                let mut inj = Injector {
                    to_workers,
                    policy,
                    flows: flows_table,
                    depths,
                    delivered,
                    dropped,
                    park,
                    epoch,
                    tracer,
                    rx_counters,
                    telem_hub,
                    fdb: inj_fdb,
                    injected: 0,
                    inject_drops: 0,
                    bytes_injected: 0,
                    slab: None,
                };
                let result = source(&mut inj);
                let Injector {
                    injected,
                    inject_drops,
                    bytes_injected,
                    tracer,
                    slab,
                    ..
                } = inj;
                (
                    injected,
                    inject_drops,
                    bytes_injected,
                    tracer.overflow(),
                    tracer.events(),
                    slab,
                    result,
                )
            })
            .expect("spawn injector")
    };
    drop(producers);

    barrier.wait();
    let t0 = epoch.now_ns();
    let (
        injected,
        inject_drops,
        bytes_injected,
        injector_overflow,
        injector_events,
        slab_counters,
        source_out,
    ) = injector.join().expect("injector thread");

    // Quiescence: every injected packet is accounted for as a delivery
    // or a drop — against the count the source actually injected, which
    // for an external source may differ from `scenario.packets`. The
    // deadline only trips if the pipeline wedges.
    let deadline = std::time::Instant::now() + Duration::from_secs(60);
    while delivered.load(Ordering::Acquire) + dropped.load(Ordering::Acquire) < injected {
        if std::time::Instant::now() >= deadline {
            break;
        }
        std::thread::yield_now();
    }
    let wall_ns = epoch.now_ns() - t0;
    shutdown.store(true, Ordering::Release);
    // Wake every parked worker so it sees the flag now, not after its
    // park times out.
    for slot in park.iter() {
        slot.wake();
    }

    let workers_stats: Vec<WorkerStats> = handles
        .into_iter()
        .map(|h| h.join().expect("worker thread"))
        .collect();

    // Stop the sampler only after the workers have joined: its final
    // snapshot then sees every worker's last publish, so the interval
    // deltas telescope exactly to the final stats.
    let telemetry = telemetry_setup.map(|(sampler, _, _)| sampler.finish());

    (
        RunOutput {
            policy: scenario.policy,
            workers: n,
            host_cores: available_cores(),
            split_gro: scenario.split_gro,
            injected,
            inject_drops,
            wall_ns,
            stage_ns,
            flow_pairs: flows.pairs(),
            workers_stats,
            injector_events,
            injector_overflow,
            wire: scenario.wire,
            bytes_injected,
            corrupted_segments: 0,
            meta: scenario.trace_meta(n),
            telemetry,
            slab: slab_counters.map(|c| c.snapshot()),
        },
        source_out,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fast scenario for unit tests: tiny work units, modest packet
    /// count, no pinning (CI runners may share cores).
    fn quick(policy: PolicyKind, workers: usize) -> Scenario {
        Scenario {
            policy,
            workers,
            packets: 2_000,
            flows: 3,
            payload: 64,
            ring_capacity: 256,
            napi_budget: 32,
            work_scale_milli: 20,
            inject_gap_ns: 0,
            pin: false,
            trace_capacity: 0,
            ..Scenario::default()
        }
    }

    #[test]
    fn telemetry_shards_match_final_stats_and_stall_closes() {
        let mut s = quick(PolicyKind::Falcon, 2);
        s.telemetry = Some(TelemetrySpec {
            interval_ms: 1,
            ..TelemetrySpec::default()
        });
        let out = run_scenario(&s);
        let run = out.telemetry.as_ref().expect("telemetry run");
        assert!(!run.samples.is_empty());
        let last = run.samples.last().expect("final snapshot");
        assert_eq!(last.workers.len(), out.workers);
        for (w, stats) in out.workers_stats.iter().enumerate() {
            let shard = &last.workers[w];
            // The sampler's final snapshot runs after the workers have
            // joined, so the cumulative shard equals the final stats.
            assert_eq!(shard.counters.delivered, stats.delivered);
            assert_eq!(shard.counters.sweeps, stats.sweeps);
            assert_eq!(shard.counters.processed_per_stage, stats.processed);
            assert_eq!(shard.counters.drops.as_slice(), &stats.drops[..]);
            assert_eq!(shard.counters.decisions, stats.decisions);
            assert_eq!(shard.counters.migrations, stats.migrations);
            assert_eq!(shard.stall, stats.stall);
            // Chained attribution: the five buckets sum to wall-clock
            // exactly, not just ≥ 95 %.
            assert_eq!(
                stats.stall.attributed_ns(),
                stats.stall.wall_ns,
                "worker {w} stall buckets must close"
            );
            assert!(stats.stall.wall_ns > 0);
            // The depth gauge's documented staleness bound, measured:
            // no batched update ever exceeded one NAPI budget.
            assert!(
                shard.depth_staleness <= s.napi_budget as u64,
                "worker {w} staleness {} > NAPI budget {}",
                shard.depth_staleness,
                s.napi_budget
            );
            // Every stage execution landed one service-time sample.
            let hist_count: u64 = shard.stage_service_ns.iter().map(|h| h.count()).sum();
            let processed: u64 = stats.processed.iter().sum();
            assert_eq!(hist_count, processed, "worker {w} histogram coverage");
        }
    }

    #[test]
    fn vanilla_conserves_and_orders() {
        let out = run_scenario(&quick(PolicyKind::Vanilla, 2));
        assert_eq!(out.delivered() + out.dropped(), out.injected);
        let (checks, violations) = out.order_audit();
        assert!(checks > 0);
        assert_eq!(violations, 0, "vanilla must never reorder");
    }

    #[test]
    fn falcon_conserves_and_orders() {
        let out = run_scenario(&quick(PolicyKind::Falcon, 2));
        assert_eq!(out.delivered() + out.dropped(), out.injected);
        let (checks, violations) = out.order_audit();
        assert!(checks > 0);
        assert_eq!(violations, 0, "falcon must never reorder");
    }

    #[test]
    fn every_stage_runs_once_per_delivered_packet() {
        let out = run_scenario(&quick(PolicyKind::Falcon, 2));
        let delivered = out.delivered();
        let per_stage = out.processed_per_stage();
        assert_eq!(per_stage.len(), STAGES);
        // Stage A ran for everything that entered; the last stage
        // exactly for deliveries; drops in between explain any
        // difference.
        assert_eq!(per_stage[STAGES - 1], delivered);
        assert!(per_stage.windows(2).all(|w| w[0] >= w[1]));
        assert_eq!(per_stage[0], out.injected - out.inject_drops);
    }

    #[test]
    fn split_gro_runs_five_stages() {
        let mut s = quick(PolicyKind::Falcon, 2);
        s.split_gro = true;
        s.shape = TrafficShape::TcpGro { mss: 1448 };
        s.payload = 4096;
        let out = run_scenario(&s);
        assert_eq!(out.stages(), SPLIT_STAGES);
        assert_eq!(out.stage_labels()[1], "pnic_gro");
        assert_eq!(out.delivered() + out.dropped(), out.injected);
        let per_stage = out.processed_per_stage();
        assert_eq!(per_stage.len(), SPLIT_STAGES);
        assert_eq!(per_stage[SPLIT_STAGES - 1], out.delivered());
        assert!(per_stage.windows(2).all(|w| w[0] >= w[1]));
        assert_eq!(per_stage[0], out.injected - out.inject_drops);
        let (checks, violations) = out.order_audit();
        assert!(checks > 0);
        assert_eq!(violations, 0, "split pipeline must never reorder");
    }

    /// The split half must be a real steering point: under Falcon the
    /// GRO half-stage keys the `(flow, device)` hash with its own
    /// synthetic ifindex, [`PNIC_SPLIT_IF`], so it lands on a core
    /// chosen independently of the allocation half's RSS placement.
    #[test]
    fn split_gro_steers_halves_to_distinct_workers() {
        let workers = 4;
        let mut s = quick(PolicyKind::Falcon, workers);
        s.oversubscribe = true; // genuine multi-worker even on 1-core CI
        s.split_gro = true;
        s.shape = TrafficShape::TcpGro { mss: 1448 };
        s.payload = 4096;
        s.packets = 1_200;
        s.flows = 8;
        // Pin steering to the (flow, device) hash's first choice: this
        // test asserts *placement* (the synthetic GRO device hashes the
        // half away from the RSS worker), and under oversubscribed
        // 1-core overload the load threshold rehashes almost every
        // decision — the second hash can legitimately land the GRO half
        // back on its RSS worker for every flow.
        s.steer_two_choice = false;
        s.work_scale_milli = 50;
        s.trace_capacity = 65_536;
        let out = run_scenario(&s);
        assert_eq!(out.workers, workers);
        assert_eq!(out.trace_overflow(), 0, "trace ring too small for test");
        // From the trace: per flow, which workers ran the alloc half
        // (checkpoint PNIC_IF) vs the GRO half (PNIC_SPLIT_IF)?
        use std::collections::{BTreeMap, BTreeSet};
        let mut alloc_cpus: BTreeMap<u64, BTreeSet<usize>> = BTreeMap::new();
        let mut gro_cpus: BTreeMap<u64, BTreeSet<usize>> = BTreeMap::new();
        for e in out.merged_events() {
            if let EventKind::StageExec {
                checkpoint,
                cpu,
                flow,
                ..
            } = e.kind
            {
                if checkpoint == PNIC_IF {
                    alloc_cpus.entry(flow).or_default().insert(cpu);
                } else if checkpoint == PNIC_SPLIT_IF {
                    gro_cpus.entry(flow).or_default().insert(cpu);
                }
            }
        }
        // Every flow's GRO half ran, and for at least one flow it ran
        // on a worker its alloc half never used: the halves are
        // genuinely steered apart, not riding the RSS placement.
        assert_eq!(gro_cpus.len() as u64, s.flows);
        let split_apart = gro_cpus.iter().any(|(flow, gro)| {
            let alloc = alloc_cpus.get(flow).expect("alloc half traced");
            gro.iter().any(|cpu| !alloc.contains(cpu))
        });
        assert!(
            split_apart,
            "no flow's GRO half ever left its alloc worker: alloc={alloc_cpus:?} gro={gro_cpus:?}"
        );
    }

    #[test]
    fn tracing_captures_the_pipeline() {
        let mut s = quick(PolicyKind::Falcon, 2);
        s.packets = 200;
        s.work_scale_milli = 200;
        s.trace_capacity = 16_384;
        let out = run_scenario(&s);
        assert_eq!(out.trace_overflow(), 0, "trace ring too small for test");
        let events = out.merged_events();
        let execs = events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Exec { .. }))
            .count();
        let delivers = events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Deliver { .. }))
            .count();
        assert_eq!(delivers as u64, out.delivered());
        assert!(execs as u64 >= out.delivered() * STAGES as u64);
        // Chronological after merge.
        assert!(events.windows(2).all(|w| w[0].at_ns <= w[1].at_ns));
        // And the stream is a valid conservation story: every enqueue
        // matched, hop digests agree, per-(flow, checkpoint) sequences
        // monotone.
        let report = falcon_trace::check_stream(&events);
        assert!(report.ok(), "conservation report failed: {report:?}");
        assert_eq!(report.delivered, out.delivered());
    }

    #[test]
    fn split_trace_stream_passes_conservation() {
        let mut s = quick(PolicyKind::Falcon, 3);
        s.oversubscribe = true;
        s.split_gro = true;
        s.shape = TrafficShape::TcpGro { mss: 1448 };
        s.payload = 4096;
        s.packets = 300;
        s.work_scale_milli = 200;
        s.trace_capacity = 32_768;
        let out = run_scenario(&s);
        assert_eq!(out.trace_overflow(), 0, "trace ring too small for test");
        let events = out.merged_events();
        let report = falcon_trace::check_stream(&events);
        assert!(report.ok(), "conservation report failed: {report:?}");
        // Five softirq checkpoints per delivered packet (the Deliver
        // event's hop count also includes the delivery checkpoint).
        for e in &events {
            if let EventKind::Deliver { hops, .. } = e.kind {
                assert_eq!(hops as usize, SPLIT_STAGES + 1);
            }
        }
        // The split device shows up as its own checkpoint.
        assert!(events.iter().any(|e| matches!(
            e.kind,
            EventKind::StageExec {
                checkpoint: PNIC_SPLIT_IF,
                ..
            }
        )));
    }

    /// The C-stage migration race: releasing a stage's guard before the
    /// packet lands at the next stage let a legal migration put two
    /// same-flow packets in flight to one stage-D worker over
    /// *different* source rings, where the fixed-order inbound sweep
    /// can pop them inverted. The reproducing shape needs all three
    /// chaos ingredients: per-packet steering rotation (so migrations
    /// are constantly requested), an injection gap that lands the next
    /// packet between its predecessor's C-execution and D-execution (so
    /// the migration is legal under the broken early release), and a
    /// stalled destination sweep (so the cross-ring enqueue inversion
    /// becomes an execution inversion). Under the early-release guard
    /// these configurations produce hundreds of violations per 3k
    /// packets even on a 1-core host; the hand-over-hand guard
    /// (previous hop held until the next stage executes) must hold the
    /// audit at zero.
    #[test]
    fn forced_migration_churn_never_reorders() {
        for (gap, stall) in [(4_000u64, 1_000u64), (4_000, 2_000), (8_000, 1_000)] {
            let mut s = quick(PolicyKind::Falcon, 4);
            s.packets = 3_000;
            s.flows = 1;
            s.work_scale_milli = 5;
            s.chaos_steer_period = 1;
            s.inject_gap_ns = gap;
            s.chaos_sweep_stall_ns = stall;
            let out = run_scenario(&s);
            assert_eq!(out.workers, 4, "chaos lifts the core clamp");
            assert_eq!(out.delivered() + out.dropped(), out.injected);
            let (checks, violations) = out.order_audit();
            assert!(checks > 0);
            assert_eq!(
                violations, 0,
                "reordered under migration churn (gap={gap} stall={stall})"
            );
        }
    }

    /// Paced companion to the churn test: with an injection gap longer
    /// than the whole pipeline, every packet finds its flow quiescent,
    /// so each chaos rotation actually migrates — proving the churn
    /// configuration exercises migration itself, not just refusals.
    #[test]
    fn paced_migration_churn_migrates_and_orders() {
        let mut s = quick(PolicyKind::Falcon, 4);
        s.packets = 300;
        s.flows = 1;
        s.work_scale_milli = 5;
        s.chaos_steer_period = 1;
        s.inject_gap_ns = 50_000;
        let out = run_scenario(&s);
        let (_, violations) = out.order_audit();
        assert_eq!(violations, 0);
        let migrations: u64 = out.workers_stats.iter().map(|w| w.migrations).sum();
        assert!(migrations > 0, "paced chaos steering must migrate");
    }

    #[test]
    fn sweep_order_rotates_without_skipping() {
        let nsrc = 5;
        let mut led = vec![0u32; nsrc];
        for sweep in 0..(nsrc as u64 * 3) {
            let order: Vec<usize> = sweep_order(sweep, nsrc).collect();
            // Each sweep visits every ring exactly once.
            let mut seen = order.clone();
            seen.sort_unstable();
            assert_eq!(seen, (0..nsrc).collect::<Vec<_>>());
            led[order[0]] += 1;
        }
        // Over 3 full rotations, each ring led exactly 3 times: no ring
        // keeps structural priority.
        assert!(led.iter().all(|&c| c == 3), "biased lead counts: {led:?}");
        // Degenerate cases don't panic or divide by zero.
        assert_eq!(sweep_order(7, 0).count(), 0);
        assert_eq!(sweep_order(7, 1).collect::<Vec<_>>(), vec![0]);
    }

    /// Starvation regression for the rotated sweep: three producers
    /// saturate tiny rings into one consumer that drains them exactly
    /// the way the worker loop does (rotated start, NAPI-bounded
    /// batches). With a fixed scan from index 0, ring 0's producer is
    /// always drained first and later rings eat nearly all the drops;
    /// rotation must keep every producer's acceptance share
    /// non-negligible.
    #[test]
    fn rotated_sweep_prevents_ring_starvation() {
        use crate::spsc::ring;
        const PRODUCERS: usize = 3;
        const TARGET: u64 = 3_000;
        let stop = Arc::new(AtomicBool::new(false));
        let mut txs = Vec::new();
        let mut rxs = Vec::new();
        for _ in 0..PRODUCERS {
            let (tx, rx) = ring::<u64>(8);
            txs.push(tx);
            rxs.push(rx);
        }
        let producers: Vec<_> = txs
            .into_iter()
            .map(|mut tx| {
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    // Open loop with tail drops, like a saturated
                    // steering hop; yield on full so the single-core CI
                    // host interleaves producers and consumer.
                    let mut i = 0u64;
                    while !stop.load(Ordering::Acquire) {
                        if tx.try_push(i).is_err() {
                            std::thread::yield_now();
                        }
                        i = i.wrapping_add(1);
                    }
                })
            })
            .collect();
        let mut accepted = vec![0u64; PRODUCERS];
        let mut batch = Vec::with_capacity(8);
        let mut sweep = 0u64;
        while accepted.iter().sum::<u64>() < TARGET {
            for src in sweep_order(sweep, PRODUCERS) {
                let got = rxs[src].pop_batch(&mut batch, 8);
                accepted[src] += got as u64;
                batch.clear();
            }
            sweep += 1;
        }
        stop.store(true, Ordering::Release);
        for h in producers {
            h.join().expect("producer");
        }
        let total: u64 = accepted.iter().sum();
        for (src, &acc) in accepted.iter().enumerate() {
            assert!(
                acc * 20 >= total,
                "ring {src} starved: {acc}/{total} accepted ({accepted:?})"
            );
        }
    }

    #[test]
    fn idle_backoff_is_recorded() {
        let out = run_scenario(&quick(PolicyKind::Falcon, 2));
        // Workers idle at least while the injector paces and at
        // shutdown; some tier must have registered steps.
        let idle: u64 = out
            .workers_stats
            .iter()
            .map(|w| w.idle_spins + w.idle_yields + w.idle_parks)
            .sum();
        assert!(idle > 0, "no idle steps recorded");
        let sweeps: u64 = out.workers_stats.iter().map(|w| w.sweeps).sum();
        assert!(sweeps > 0);
    }

    #[test]
    fn single_worker_degenerates_to_serial() {
        let out = run_scenario(&quick(PolicyKind::Falcon, 1));
        assert_eq!(out.workers, 1);
        assert_eq!(out.delivered() + out.dropped(), out.injected);
        let (_, violations) = out.order_audit();
        assert_eq!(violations, 0);
    }

    #[test]
    fn wire_mode_delivers_exact_payload_digests() {
        let mut s = quick(PolicyKind::Falcon, 2);
        s.wire = true;
        s.packets = 600;
        s.flows = 4;
        let out = run_scenario(&s);
        assert!(out.wire);
        assert_eq!(out.delivered() + out.dropped(), out.injected);
        assert!(out.bytes_injected > 0, "wire frames were injected");
        assert_eq!(out.corrupted_segments, 0);
        // Pristine frames: nothing is malformed, every delivered
        // payload digests to exactly what the factory generated.
        assert_eq!(out.malformed_per_stage().iter().sum::<u64>(), 0);
        let deliveries = out.deliveries();
        assert_eq!(deliveries.len() as u64, out.delivered());
        for (flow, seq, digest) in deliveries {
            assert_eq!(
                digest,
                FrameFactory::expected_digest(flow, seq, s.payload),
                "payload digest mismatch for flow {flow} seq {seq}"
            );
        }
        assert_eq!(out.bytes_delivered(), out.delivered() * s.payload as u64);
        let (checks, violations) = out.order_audit();
        assert!(checks > 0);
        assert_eq!(violations, 0);
    }

    #[test]
    fn replicate_conserves_and_stays_duplicate_free() {
        let mut s = quick(PolicyKind::Replicate, 4);
        s.oversubscribe = true; // genuine multi-worker even on 1-core CI
        let out = run_scenario(&s);
        assert_eq!(out.policy, PolicyKind::Replicate);
        assert_eq!(out.delivered() + out.dropped(), out.injected);
        // The relaxed SCR contract: per-flow order may break (that is
        // the point of round-robin spraying), but every (flow,
        // checkpoint, seq) still executes exactly once.
        let (checks, dups) = out.order_audit();
        assert!(checks > 0);
        assert_eq!(dups, 0, "replicate ran some (flow, checkpoint, seq) twice");
    }

    #[test]
    fn replicate_conntrack_merge_matches_vanilla_ground_truth() {
        let mk = |policy| {
            let mut s = quick(policy, 4);
            s.oversubscribe = true;
            s.wire = true;
            s.packets = 800;
            s.flows = 4;
            // Drop-free by construction (rings hold the whole run):
            // cross-policy table equality is only defined when both
            // policies process the same packet set.
            s.ring_capacity = 2_048;
            s
        };
        let vanilla = run_scenario(&mk(PolicyKind::Vanilla));
        let repl = run_scenario(&mk(PolicyKind::Replicate));
        assert_eq!(vanilla.dropped(), 0, "oracle precondition: drop-free");
        assert_eq!(repl.dropped(), 0, "oracle precondition: drop-free");
        let vt = vanilla.conntrack_table().expect("wire mode tracks conns");
        let rt = repl.conntrack_table().expect("wire mode tracks conns");
        assert_eq!(
            vt, rt,
            "replicated conntrack state must reconcile to serialized ground truth"
        );
        // The bridge stage saw every packet exactly once.
        assert_eq!(vt.summary().pkts, vanilla.injected);
        assert_eq!(vt.len() as u64, mk(PolicyKind::Vanilla).flows);
        let c = repl.conntrack_counters();
        assert_eq!(c.updates, repl.injected);
        // Round-robin injection with run-to-completion workers: every
        // worker owned a share of the flow's packets and tracked state
        // in its own shard.
        let active = repl
            .workers_stats
            .iter()
            .filter(|w| w.delivered > 0)
            .count();
        assert_eq!(
            active, 4,
            "replicate must spread one flow across all workers"
        );
    }

    #[test]
    fn wire_split_gro_coalesces_segments_back_to_one_message() {
        let mut s = quick(PolicyKind::Falcon, 2);
        s.wire = true;
        s.split_gro = true;
        s.shape = TrafficShape::TcpGro { mss: 1448 };
        s.payload = 4096;
        s.packets = 300;
        s.flows = 3;
        let out = run_scenario(&s);
        assert_eq!(out.stages(), SPLIT_STAGES);
        assert_eq!(out.delivered() + out.dropped(), out.injected);
        // Three wire segments per message land as one coalesced
        // delivery with the whole message's digest.
        for (flow, seq, digest) in out.deliveries() {
            assert_eq!(digest, FrameFactory::expected_digest(flow, seq, s.payload));
        }
        assert_eq!(out.bytes_delivered(), out.delivered() * s.payload as u64);
        // The wire carries per-segment headers, so bytes in exceeds
        // payload × packets.
        assert!(out.bytes_injected > out.injected * s.payload as u64);
    }

    #[test]
    fn wire_corruption_drops_malformed_with_exact_accounting() {
        let mut s = quick(PolicyKind::Falcon, 2);
        s.wire = true;
        s.packets = 1_000;
        s.flows = 4;
        s.corrupt_per_million = 300_000; // ~30 % of segments
        s.wire_seed = 7;
        let out = run_scenario(&s);
        assert!(out.corrupted_segments > 0, "corruptor must have fired");
        assert_eq!(out.delivered() + out.dropped(), out.injected);
        let malformed = out.drops_by_reason()[DropReason::Malformed.index()];
        assert!(malformed > 0, "corrupted frames must be caught");
        assert_eq!(
            malformed,
            out.malformed_per_stage().iter().sum::<u64>(),
            "per-stage malformed counts must sum to the reason total"
        );
        // Corruption can escape detection only in fields no check
        // covers (outer src MAC, VXLAN reserved bits, …) — and those
        // never touch the payload, so every delivery still digests to
        // the generated bytes.
        for (flow, seq, digest) in out.deliveries() {
            assert_eq!(digest, FrameFactory::expected_digest(flow, seq, s.payload));
        }
        let (_, violations) = out.order_audit();
        assert_eq!(violations, 0, "malformed drops must not break ordering");
    }
}
