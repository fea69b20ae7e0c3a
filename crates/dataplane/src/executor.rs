//! The threaded pipeline executor's orchestration: the modeled overlay
//! receive path on real OS threads.
//!
//! The simulation (`netstack::rxpath`) models the container receive
//! path as discrete events; this module *runs* it. It builds one run
//! from a [`Scenario`]: the per-(src, dst) SPSC ring mesh, the run state
//! shared by every thread, one pinned worker thread per CPU (the worker
//! loop), the injector thread driving the packet source through an
//! [`Injector`], and the optional telemetry sampler. It then waits for
//! quiescence, joins everything and folds the results into a
//! [`RunOutput`]. The stage plan and each stage's byte work live in
//! `stage`, the worker loop and the reordering guard in `worker`, and
//! the run output and its folds in `output`.

use std::sync::Arc;
use std::time::Duration;

use falcon_conntrack::ConnShard;
use falcon_khash::hash_32;
use falcon_netstack::CostModel;
use falcon_packet::PktDesc;
use falcon_telemetry::{Hub, RunMeta, Sampler, SamplerConfig, DEFAULT_INTERVAL_MS};
use falcon_trace::{DropReason, EventKind, Tracer};
use falcon_wire::{Corruptor, Fdb, FlowCache, FrameFactory, SharedFdb};

use crate::affinity::{available_cores, clamp_workers};
use crate::output::{RunOutput, WorkerStats};
use crate::spin::{spin_for_ns, Epoch};
use crate::spsc::{ring, Consumer, Producer};
use crate::stage::{plan, trace_meta, Queue, WireCtx};
use crate::steer::{Policy, PolicyKind};
use crate::worker::{DpPkt, RunState, WorkerCtx};

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
    /// Test-only chaos knob: when nonzero, a steered hop whose
    /// placement can move overrides the policy's preference with a
    /// worker that rotates every `chaos_steer_period` packets. Under
    /// Falcon that rotation goes through the flow table, forcing
    /// constant (flow, device) migration pressure on its in-flight
    /// guard; under Replicate it bounces packets across workers on
    /// guard-free hops, the conntrack merge's worst case. Vanilla runs
    /// to completion on its RSS worker and has no hop to rotate. Also
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
    /// (0 = sized from the packet budget, see [`Injector::slab_config`]).
    /// Frames are built in place inside pre-registered slots and the
    /// slots recirculate through delivery/drop, so steady-state
    /// generation allocates nothing.
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
    /// [`TelemetryRun::prom_addr`](falcon_telemetry::TelemetryRun::prom_addr)
    /// and, live, via `prom_addr_tx`.
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
/// injector does per packet: pick the RSS worker (or the next worker
/// round-robin under Replicate), charge the depth gauge, and
/// yield-then-drop on a full ring — so an external source (e.g. the
/// live-socket rx thread) feeds the same stages, steering policies,
/// and in-flight guard as every other run.
pub struct Injector {
    to_workers: Vec<Producer<DpPkt>>,
    /// The state shared with the workers; each successful push wakes
    /// its destination's park slot if it is parked.
    run: Arc<RunState>,
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
    /// The slab-pool sizing for this run's packet source.
    slab_cfg: falcon_packet::SlabConfig,
    /// Slab-pool counters of the packet source's buffer pool, once the
    /// source attaches them — surfaced in [`RunOutput::slab`] and, with
    /// telemetry on, streamed as `"kind":"slab"` JSONL lines and
    /// `falcon_slab_*` Prometheus series.
    slab: Option<Arc<falcon_packet::SlabCounters>>,
}

impl Injector {
    /// Run-relative nanoseconds on the pipeline's epoch.
    pub fn now_ns(&self) -> u64 {
        self.run.epoch.now_ns()
    }

    /// Wire mode: the run's shared bridge FDB. Mutating it (set /
    /// remove) bumps the invalidation epoch, so every worker's cached
    /// flow verdicts re-verify on their next consult. The FDB-churn
    /// conformance tests drive this between injection phases.
    pub fn fdb(&self) -> Option<&Arc<SharedFdb>> {
        self.fdb.as_ref()
    }

    /// Blocks until every packet injected so far is accounted for as a
    /// delivery or a drop (60 s deadline, shared with the orchestrator's
    /// quiescence wait; it only trips if the pipeline wedges). A
    /// scripted source calls this before mutating shared control-plane
    /// state (e.g. the FDB) so the mutation is quiescent: no packet is
    /// in flight to race it, which keeps churn runs deterministic.
    pub fn wait_quiesced(&self) {
        self.run.wait_quiesced(self.injected);
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

    /// The slab-pool sizing for this run's packet source: a pool this
    /// large never falls back to the heap in steady state.
    pub fn slab_config(&self) -> falcon_packet::SlabConfig {
        self.slab_cfg
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

    /// Pushes one descriptor at its worker's ring, yielding while the
    /// ring is full and tail-dropping (drop counted) after the yield
    /// budget. Returns whether the packet entered the pipeline; either
    /// way it is counted, so the orchestrator's quiescence poll stays
    /// exact.
    ///
    /// The packet enters on its flow's RSS worker holding no flow-table
    /// registration. That is order-safe only because a flow's `rx_hash`
    /// is fixed for the whole run, so all of a flow's packets share one
    /// ring to one worker (see the `worker` module doc); a source must
    /// keep it fixed, as [`rss_hash_for_flow`] does.
    pub fn inject(&mut self, desc: PktDesc) -> bool {
        self.injected += 1;
        let pkt_bytes = desc.wire.as_ref().map_or(0, |w| w.wire_bytes());
        let id = desc.id.0;
        let flow = desc.flow;
        // Replicate sprays packets across workers round-robin at the
        // injector — deliberately ignoring the flow hash, so a single
        // heavy flow spreads over every core instead of pinning its
        // RSS core: SCR replaces serialization with per-worker state
        // replicas.
        let dst = if self.run.policy.kind() == PolicyKind::Replicate {
            ((self.injected - 1) % self.to_workers.len() as u64) as usize
        } else {
            self.run.policy.rss_worker(desc.rx_hash)
        };
        let run = &*self.run;
        let mut pkt = DpPkt::new(desc, run.epoch.now_ns());
        let mut yields = 0u32;
        loop {
            // Gauge before push, undone on failure — same underflow
            // hazard as the worker's enqueue.
            run.depths.inc(dst);
            match self.to_workers[dst].try_push(pkt) {
                Ok(()) => {
                    run.park[dst].wake();
                    self.bytes_injected += pkt_bytes;
                    if self.tracer.is_enabled() {
                        let qlen = run.depths.depth(dst);
                        let kind = Queue::Ring.enqueue_event(dst, id, flow, qlen);
                        self.tracer.emit(run.epoch.now_ns(), kind);
                    }
                    return true;
                }
                Err(mut back) => {
                    run.depths.dec(dst);
                    yields += 1;
                    if yields >= INJECT_MAX_YIELDS {
                        // Recycling the buffer keeps a wedged worker from
                        // bleeding the slab pool dry.
                        back.retire(&run.flows, 0);
                        self.inject_drops += 1;
                        self.tracer.emit(
                            run.epoch.now_ns(),
                            EventKind::QueueDrop {
                                reason: Queue::Ring.drop_reason(),
                                cpu: dst,
                                pkt: id,
                                flow,
                            },
                        );
                        run.count(0, 1);
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

/// The slab-pool sizing for a scenario's packet source: the synthetic
/// injector and the live-socket rx thread both lease from a pool sized
/// here, so the steady-state wire path never falls back to the heap.
/// A nonzero [`Scenario::slab_slots`] overrides the MTU class outright.
///
/// The number of segments alive at once is bounded by what the rings
/// and in-flight batches can hold: each of the `n` workers has `n + 1`
/// inbound rings (peers + injector) of `ring_capacity` slots, plus a
/// NAPI batch (`napi_budget`, at least 1) and an outbox per peer in
/// flight on each worker, plus injector slack. Short runs need no more
/// than every packet resident simultaneously, so take the min of the
/// two bounds, convert packets to wire segments per the traffic shape,
/// and cap at 64 Ki slots so a huge `packets` budget can't balloon the
/// pool. A source that keeps
/// slots of its own leased (the rx thread's armed receive batch) adds
/// them on top of [`Injector::slab_config`].
fn slab_config_for(scenario: &Scenario, n: usize, napi_budget: usize) -> falcon_packet::SlabConfig {
    let mut cfg = falcon_packet::SlabConfig::default();
    if scenario.slab_slots > 0 {
        cfg.mtu_slots = scenario.slab_slots;
        return cfg;
    }
    let (seg_payload, segs_per_pkt) = match scenario.shape {
        TrafficShape::Udp => (scenario.payload, 1),
        TrafficShape::TcpGro { mss } => (
            scenario.payload.min(mss.max(1)),
            scenario.payload.div_ceil(mss.max(1)).max(1),
        ),
    };
    let inflight_pkts = (n + 1) * n * scenario.ring_capacity + n * (n + 1) * napi_budget + 64;
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
    cfg
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
        let pool = falcon_packet::SlabPool::new(inj.slab_config());
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

/// A per-thread trace ring of `capacity` events; tracing is off when
/// the capacity is 0.
fn tracer(capacity: usize) -> Tracer {
    if capacity > 0 {
        Tracer::new(capacity)
    } else {
        Tracer::disabled()
    }
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
    let plan = plan(scenario.split_gro);
    let cost = CostModel::kernel_5_4();
    let scale = |ns: u64| ns * scenario.work_scale_milli / 1000;
    let stage_ns: Vec<u64> = scenario
        .stage_service_ns(&cost)
        .into_iter()
        .map(scale)
        .collect();
    let locality_penalty_ns = scale(cost.locality_penalty_ns);
    let n_stages = plan.len();
    let napi_budget = scenario.napi_budget.max(1);

    // Wire mode: one factory describes every frame; the FDB is
    // programmed once with both endpoint MACs of every flow and shared
    // read-only across workers.
    let wire = scenario.wire.then(|| {
        let factory = FrameFactory::default();
        let fdb = Fdb::for_flows(&factory, scenario.flows.max(1));
        WireCtx {
            fdb: Arc::new(SharedFdb::new(fdb)),
            host_mac: FrameFactory::host_mac(),
            vni: factory.vni,
        }
    });

    let epoch = Epoch::start();
    let policy = Policy::with_two_choice(scenario.policy, n, scenario.steer_two_choice);
    // Only Falcon's steered hops register: every flow once per steered
    // device of the plan.
    let steer_pairs = if scenario.policy == PolicyKind::Falcon {
        scenario.flows.max(1) as usize * plan.iter().filter(|s| s.steer.is_some()).count()
    } else {
        0
    };
    let run = Arc::new(RunState::new(policy, n, steer_pairs, napi_budget, epoch));

    // Ring mesh: producer side indexed [src][dst], consumer side
    // [dst][src]. Sources 0..n are workers; source n is the injector.
    let mut consumers: Vec<Vec<Consumer<DpPkt>>> = (0..n).map(|_| Vec::new()).collect();
    let mut producers: Vec<Vec<Producer<DpPkt>>> = Vec::with_capacity(n + 1);
    for _src in 0..=n {
        let row = consumers.iter_mut().map(|inbound| {
            let (tx, rx) = ring(scenario.ring_capacity);
            inbound.push(rx);
            tx
        });
        producers.push(row.collect());
    }
    let to_workers = producers.pop().expect("the injector's row");

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

    // Live telemetry: one shard per worker, writers handed out by
    // worker index; the sampler thread starts before the workers pass
    // the barrier so the run's first interval is covered.
    let mut telem_writers = Vec::new();
    let telemetry_setup = scenario.telemetry.as_ref().map(|spec| {
        let labels = plan.iter().map(|s| s.label.to_string()).collect();
        let (hub, writers) = Hub::new(n, labels, DropReason::ALL.len());
        telem_writers = writers;
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
        (sampler, hub)
    });
    let mut telem_writers = telem_writers.into_iter();

    let mut handles = Vec::with_capacity(n);
    for (me, (inbound, outbound)) in consumers.into_iter().zip(producers).enumerate() {
        let ctx = WorkerCtx {
            me,
            core: pin_plan[me],
            plan,
            stage_ns: stage_ns.clone(),
            locality_penalty_ns,
            napi_budget,
            chaos_steer_period: scenario.chaos_steer_period,
            chaos_sweep_stall_ns: scenario.chaos_sweep_stall_ns,
            wire: wire.clone(),
            cache: (scenario.wire && scenario.flow_cache)
                .then(|| FlowCache::new(scenario.flow_cache_entries)),
            conntrack: scenario.wire.then(ConnShard::new),
            lc: 0,
            run: Arc::clone(&run),
            inbound,
            outbound,
            batch: Vec::with_capacity(napi_budget),
            outbox: (0..n).map(|_| Vec::with_capacity(napi_budget)).collect(),
            delivered_delta: 0,
            dropped_delta: 0,
            tracer: tracer(scenario.trace_capacity),
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
            telemetry: telem_writers.next(),
            hist_scratch: Vec::with_capacity(napi_budget.saturating_mul(n_stages + 1)),
        };
        let pin = scenario.pin;
        handles.push(
            std::thread::Builder::new()
                .name(format!("dp-worker-{me}"))
                .spawn(move || ctx.run(pin))
                .expect("spawn worker"),
        );
    }

    // Injector: source index n. The source (synthetic or external)
    // runs on the injector thread and drives this handle, which the
    // thread hands back whole once the source returns.
    let mut inj = Injector {
        to_workers,
        run: Arc::clone(&run),
        tracer: tracer(scenario.trace_capacity),
        // Rx-thread telemetry counters: always created (they are a few
        // atomics) and attached to the sampler's hub on request.
        rx_counters: Arc::new(falcon_telemetry::RxCounters::new()),
        telem_hub: telemetry_setup.as_ref().map(|(_, hub)| Arc::clone(hub)),
        fdb: wire.map(|w| w.fdb),
        injected: 0,
        inject_drops: 0,
        bytes_injected: 0,
        slab_cfg: slab_config_for(scenario, n, napi_budget),
        slab: None,
    };
    let injector = std::thread::Builder::new()
        .name("dp-injector".to_string())
        .spawn(move || {
            inj.run.start.wait();
            let source_out = source(&mut inj);
            (inj, source_out)
        })
        .expect("spawn injector");

    run.start.wait();
    let t0 = epoch.now_ns();
    let (inj, source_out) = injector.join().expect("injector thread");

    // Quiescence against the count the source actually injected, which
    // for an external source may differ from `scenario.packets`.
    run.wait_quiesced(inj.injected);
    let wall_ns = epoch.now_ns() - t0;
    run.shut_down();

    let workers_stats: Vec<WorkerStats> = handles
        .into_iter()
        .map(|h| h.join().expect("worker thread"))
        .collect();

    // Stop the sampler only after the workers have joined: its final
    // snapshot then sees every worker's last publish, so the interval
    // deltas telescope exactly to the final stats.
    let telemetry = telemetry_setup.map(|(sampler, _)| sampler.finish());

    (
        RunOutput {
            policy: scenario.policy,
            workers: n,
            host_cores: available_cores(),
            split_gro: scenario.split_gro,
            injected: inj.injected,
            inject_drops: inj.inject_drops,
            wall_ns,
            stage_ns,
            flow_pairs: run.flows.pairs(),
            workers_stats,
            injector_events: inj.tracer.events(),
            injector_overflow: inj.tracer.overflow(),
            wire: scenario.wire,
            bytes_injected: inj.bytes_injected,
            corrupted_segments: 0,
            meta: trace_meta(plan, n),
            telemetry,
            slab: inj.slab.map(|c| c.snapshot()),
        },
        source_out,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stage::{PNIC_IF, PNIC_SPLIT_IF, SPLIT_STAGES, STAGES};

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

    /// Only Falcon's steered hops can move a flow between workers, so
    /// only they touch the flow table. Vanilla runs to completion on its
    /// RSS worker even under chaos steering, on both pipeline shapes: no
    /// (flow, device) pair registers, no worker is charged guard time,
    /// and every delivered packet ran all its stages on one cpu. Falcon
    /// registers each flow once per steered row of the plan, and not at
    /// injection.
    #[test]
    fn only_falcon_steered_hops_use_the_flow_table() {
        use std::collections::{BTreeSet, HashMap};
        for split in [false, true] {
            let mut s = quick(PolicyKind::Vanilla, 4);
            s.split_gro = split;
            s.chaos_steer_period = 2;
            s.packets = 600;
            s.trace_capacity = 65_536;
            let out = run_scenario(&s);
            assert_eq!(out.trace_overflow(), 0, "trace ring too small for test");
            assert_eq!(
                out.flow_pairs, 0,
                "vanilla registered pairs (split={split})"
            );
            for (w, stats) in out.workers_stats.iter().enumerate() {
                assert_eq!(
                    stats.stall.guard_wait_ns, 0,
                    "vanilla worker {w} was charged guard time (split={split})"
                );
            }
            let events = out.merged_events();
            let mut cpus: HashMap<u64, BTreeSet<usize>> = HashMap::new();
            for e in &events {
                if let EventKind::StageExec { cpu, pkt, .. } = e.kind {
                    cpus.entry(pkt).or_default().insert(cpu);
                }
            }
            let mut delivered = 0;
            for e in &events {
                if let EventKind::Deliver { pkt, .. } = e.kind {
                    delivered += 1;
                    assert_eq!(
                        cpus[&pkt].len(),
                        1,
                        "vanilla packet {pkt} ran on cpus {:?} (split={split})",
                        cpus[&pkt]
                    );
                }
            }
            assert_eq!(delivered, out.delivered());
        }
        for split in [false, true] {
            let mut s = quick(PolicyKind::Falcon, 2);
            s.split_gro = split;
            s.flows = 3;
            s.packets = 600;
            // Rings hold the whole run: every flow reaches every hop.
            s.ring_capacity = 1_024;
            let out = run_scenario(&s);
            assert_eq!(out.dropped(), 0);
            let steered = plan(split).iter().filter(|r| r.steer.is_some()).count();
            assert_eq!(out.flow_pairs, 3 * steered, "split={split}");
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
