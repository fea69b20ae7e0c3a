//! The worker loop: one pinned OS thread per CPU standing in for its
//! NET_RX softirq, and the run state the workers share with the
//! injector.
//!
//! Each worker sweeps its inbound rings NAPI-style, runs every popped
//! packet's stage (the plan row's byte work plus the modeled spin), and
//! hands the packet on: inline while the next hop stays on this worker,
//! over the ring to another worker when the policy steers it away.
//!
//! Workers exchange packets over the SPSC ring mesh. Only Falcon's
//! steered hops can move a flow between workers, so only they register
//! with the global [`FlowTable`]; every other hop is static. The
//! ordering argument, stage by stage:
//!
//! * **Into the pipeline.** The injector puts every packet of a flow on
//!   the flow's RSS worker, `rss_worker(rx_hash)`, which is fixed for
//!   the run because a flow's `rx_hash` is. One injector and one RSS
//!   worker mean one FIFO ring, and the RSS worker runs the flow's
//!   packets in ring order. No registration is needed (Replicate's
//!   round-robin spray promises no per-flow order at all).
//! * **Static hops.** A backlog-local hop (A→B, A2→B) and every steered
//!   row under Vanilla and Replicate run to completion on the current
//!   worker: program order on one thread keeps the flow's order.
//!   (Replicate's chaos rotation moves packets, guard-free, and is
//!   checked only for duplicate freedom.)
//! * **Falcon's steered hops.** The first one (B→C, or A1→A2 when
//!   split) is reached by every packet of the flow from the RSS worker,
//!   in order, over one ring. It registers with the table, and the
//!   registration stays held until the packet has executed the
//!   *following* stage (not just the routed one). That extra hold is
//!   the reordering guard for the next hop: because the ring mesh is
//!   per-(src, dst), two same-flow packets that reach one stage's
//!   worker from *different* upstream workers travel on different
//!   rings and the fixed-order inbound sweep could pop them inverted.
//!   Holding the previous hop's registration through the next stage
//!   means a (flow, device) pair can only migrate when no packet of
//!   that flow sits anywhere between that stage's routing decision and
//!   the next stage's completion — so all in-flight same-flow packets
//!   for a stage always share one upstream worker, hence one FIFO ring.
//!   By induction from the first steered hop, every stage sees the
//!   flow's packets in order.
//!
//! (The kernel's `rps_dev_flow` qtail check gets this for free from the
//! single per-CPU backlog; the ring mesh has to buy it explicitly.)

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Duration;

use falcon_conntrack::ConnShard;
use falcon_packet::PktDesc;
use falcon_telemetry::ShardWriter;
use falcon_trace::{
    hop_hash_extend, Context, DropReason, EventKind, Tracer, DELIVERY_CHECK, HOP_HASH_INIT,
};
use falcon_wire::{FlowCache, WireError};

use crate::affinity::pin_current_thread;
use crate::output::WorkerStats;
use crate::spin::{spin_for_ns, spin_until, Backoff, Epoch, IdleTier, ParkSlot, Wake};
use crate::spsc::{Consumer, Producer};
use crate::stage::{wire_stage_work, StageSpec, WireCtx};
use crate::steer::{DepthGauge, FlowTable, GuardId, Policy, PolicyKind};

/// The run-wide state every worker and the injector share: built once
/// per run, held behind one `Arc` by each of them.
pub(crate) struct RunState {
    pub(crate) policy: Policy,
    pub(crate) flows: FlowTable,
    pub(crate) depths: DepthGauge,
    /// Every worker's park slot, by worker index: a worker parks on its
    /// own and a producer wakes a destination's after publishing to it.
    pub(crate) park: Box<[ParkSlot]>,
    pub(crate) epoch: Epoch,
    /// The start line every worker, the injector and the orchestrating
    /// thread cross together.
    pub(crate) start: Barrier,
    progress: Progress,
}

/// The run's three mutated atomics, on a cache line of their own so no
/// read of the steering state beside them ever shares it.
#[derive(Default)]
#[repr(align(64))]
struct Progress {
    delivered: AtomicU64,
    dropped: AtomicU64,
    shutdown: AtomicBool,
}

const _: () = assert!(size_of::<Progress>() == 64 && align_of::<Progress>() == 64);

impl RunState {
    /// The state of an `n`-worker run under `policy`, its flow table
    /// sized for `steer_pairs` (flow, device) pairs.
    pub(crate) fn new(
        policy: Policy,
        n: usize,
        steer_pairs: usize,
        napi_budget: usize,
        epoch: Epoch,
    ) -> Self {
        RunState {
            policy,
            flows: FlowTable::new(steer_pairs),
            depths: DepthGauge::new(n, napi_budget),
            park: (0..n).map(|_| ParkSlot::new()).collect(),
            epoch,
            start: Barrier::new(n + 2),
            progress: Progress::default(),
        }
    }

    /// Folds `delivered` deliveries and `dropped` drops into the run's
    /// counters; a zero count costs no RMW.
    pub(crate) fn count(&self, delivered: u64, dropped: u64) {
        if delivered > 0 {
            self.progress
                .delivered
                .fetch_add(delivered, Ordering::Release);
        }
        if dropped > 0 {
            self.progress.dropped.fetch_add(dropped, Ordering::Release);
        }
    }

    fn is_shut_down(&self) -> bool {
        self.progress.shutdown.load(Ordering::Acquire)
    }

    /// Tells every worker to exit once idle, waking the parked ones so
    /// they see the flag now, not after their park times out.
    pub(crate) fn shut_down(&self) {
        self.progress.shutdown.store(true, Ordering::Release);
        for slot in self.park.iter() {
            slot.wake();
        }
    }

    /// Yields until `injected` packets are accounted for as deliveries
    /// or drops. The 60 s deadline only trips if the pipeline wedges.
    pub(crate) fn wait_quiesced(&self, injected: u64) {
        let deadline = std::time::Instant::now() + Duration::from_secs(60);
        while self.progress.delivered.load(Ordering::Acquire)
            + self.progress.dropped.load(Ordering::Acquire)
            < injected
            && std::time::Instant::now() < deadline
        {
            std::thread::yield_now();
        }
    }
}

/// A packet in flight through the threaded pipeline.
pub(crate) struct DpPkt {
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
    /// In-flight guard of the most recent steered (flow, device)
    /// routing (Falcon only; a packet enters holding none). Held until
    /// the packet executes the *next* stage (see `prev_guard`), or
    /// until delivery/drop.
    guard: Option<GuardId>,
    /// The guard from the routing *before* `guard`, released once the
    /// current stage has executed. Holding it across the hop is what
    /// keeps all in-flight same-flow packets for a stage on one
    /// upstream ring: the pair can't migrate while any packet sits
    /// between its routing decision and the next stage's completion.
    prev_guard: Option<GuardId>,
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

impl DpPkt {
    /// A packet entering the pipeline at stage 0 at epoch time `now`,
    /// holding no registration, with audit clock 0.
    pub(crate) fn new(desc: PktDesc, now: u64) -> Self {
        DpPkt {
            desc,
            stage: 0,
            injected_ns: now,
            enqueued_ns: now,
            last_worker: usize::MAX,
            hop_digest: HOP_HASH_INIT,
            hops: 0,
            guard: None,
            prev_guard: None,
            lc: 0,
            cache_key: None,
        }
    }

    /// Takes the packet out of the pipeline, delivered or dropped:
    /// releases any held routings in `flows` at audit clock `lc`, so
    /// the flow can migrate, and hands its wire buffer back to the slab
    /// pool in one shell-ring push. Returns whether a pool-backed
    /// buffer was recycled (a heap-built one recycles nothing and just
    /// drops).
    #[inline]
    pub(crate) fn retire(&mut self, flows: &FlowTable, lc: u64) -> bool {
        let guards = [self.guard.take(), self.prev_guard.take()];
        for id in guards.into_iter().flatten() {
            flows.release(id, lc);
        }
        let wire = self.desc.wire.take();
        wire.is_some_and(falcon_packet::slab::recycle)
    }
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

/// One worker thread: its rings, its private per-worker state (cache,
/// conntrack shard, tracer, telemetry shard) and its stats.
pub(crate) struct WorkerCtx {
    pub(crate) me: usize,
    /// Logical CPU this worker pins to — the topology-aware plan's
    /// target for slot `me`, not necessarily `me` itself (on a
    /// multi-socket host the plan keeps adjacent workers on one node).
    pub(crate) core: usize,
    /// The run's stage plan, indexed like `stage_ns`.
    pub(crate) plan: &'static [StageSpec],
    pub(crate) stage_ns: Vec<u64>,
    pub(crate) locality_penalty_ns: u64,
    pub(crate) napi_budget: usize,
    pub(crate) chaos_steer_period: u64,
    pub(crate) chaos_sweep_stall_ns: u64,
    /// Wire-mode context (`None` = stages spin their full budget with
    /// no byte work, the pre-wire behavior).
    pub(crate) wire: Option<WireCtx>,
    /// This worker's private flow-verdict cache (`None` = every packet
    /// takes the full verifying slow path). Private per worker: no
    /// interior locking, no cross-core cache-line traffic.
    pub(crate) cache: Option<FlowCache>,
    /// This worker's conntrack replica — the SCR state shard the
    /// stateful bridge stage mutates (`Some` exactly when wire mode is
    /// on). Private per worker like the cache; the orchestrator merges
    /// the shards after the run ([`RunOutput::conntrack_table`]).
    ///
    /// [`RunOutput::conntrack_table`]: crate::RunOutput::conntrack_table
    pub(crate) conntrack: Option<ConnShard>,
    /// This worker's Lamport clock for the ordering audit (see
    /// [`OrderRec`]): bumped past the packet's carried clock on every
    /// stage execution, never touched by another core.
    ///
    /// [`OrderRec`]: crate::output::OrderRec
    pub(crate) lc: u64,
    /// The state shared with the other workers and the injector.
    pub(crate) run: Arc<RunState>,
    pub(crate) inbound: Vec<Consumer<DpPkt>>,
    pub(crate) outbound: Vec<Producer<DpPkt>>,
    /// Scratch for one ring's popped batch (capacity = NAPI budget).
    pub(crate) batch: Vec<DpPkt>,
    /// Per-destination staging for steered packets, flushed once per
    /// drained batch: one ring publish + one gauge RMW cover the whole
    /// flight instead of one of each per packet. Staged Falcon packets
    /// still hold their routing's in-flight guard, so the hand-over-hand
    /// migration protocol is oblivious to the extra buffering.
    pub(crate) outbox: Vec<Vec<DpPkt>>,
    /// Deliveries not yet folded into the shared `delivered` counter.
    pub(crate) delivered_delta: u64,
    /// Drops not yet folded into the shared `dropped` counter.
    pub(crate) dropped_delta: u64,
    pub(crate) tracer: Tracer,
    pub(crate) stats: WorkerStats,
    /// Live-telemetry shard writer (`None` = telemetry off; the hot
    /// path pays one branch).
    pub(crate) telemetry: Option<ShardWriter>,
    /// Per-stage service samples accumulated since the last shard
    /// publish: `(stage, service_ns)`. Drained into the shard's
    /// histograms inside the seqlock write so the recording cost stays
    /// out of the per-packet path.
    pub(crate) hist_scratch: Vec<(u8, u64)>,
}

/// One link of the chained stall attribution: charges the wall-clock
/// since `*t` to `bucket`, advances `*t` to now, and returns now.
fn charge(epoch: &Epoch, t: &mut u64, bucket: &mut u64) -> u64 {
    let now = epoch.now_ns();
    charge_to(now, t, bucket);
    now
}

/// [`charge`] up to a reading `now` the caller already took.
fn charge_to(now: u64, t: &mut u64, bucket: &mut u64) {
    *bucket += now - *t;
    *t = now;
}

impl WorkerCtx {
    /// The worker loop: sweeps the inbound rings until the run shuts
    /// down and the worker is idle, then hands back its stats.
    pub(crate) fn run(mut self, pin: bool) -> WorkerStats {
        if pin {
            self.stats.pinned = pin_current_thread(self.core);
        }
        // Producers may wake this worker as soon as they cross the
        // start line, so the slot must know its thread before then.
        let run = Arc::clone(&self.run);
        let slot = &run.park[self.me];
        slot.register();
        run.start.wait();
        let mut backoff = Backoff::new();
        let nsrc = self.inbound.len();
        // Stall attribution runs on a chained timestamp: `t` is the
        // epoch time up to which this worker's wall-clock has been
        // attributed. Every boundary reads the epoch once, charges the
        // elapsed span to exactly one bucket, and advances `t` — so the
        // buckets sum to `t - wall_start` identically, and unattributed
        // gaps are impossible by construction.
        let wall_start = self.run.epoch.now_ns();
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
                charge(&run.epoch, &mut t, &mut self.stats.stall.stall_pop_ns);
                if got == 0 {
                    continue;
                }
                // One gauge RMW for the whole batch; our own staged
                // packets are folded back into the steering signal via
                // `load_plus`, so self-visible depth stays exact.
                self.run.depths.sub(self.me, got);
                self.run.depths.note_staleness(self.me, got);
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
                charge(&run.epoch, &mut t, &mut self.stats.stall.stall_push_ns);
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
                if self.run.is_shut_down() {
                    charge(&run.epoch, &mut t, &mut self.stats.stall.idle_ns);
                    break;
                }
                // The park re-check covers every location a producer
                // publishes to before waking this slot: the inbound
                // rings and the shutdown flag.
                let tier = backoff.idle(slot, || self.inbound_pending() || self.run.is_shut_down());
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
                charge(&run.epoch, &mut t, &mut self.stats.stall.idle_ns);
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
            self.run.depths.add(dst, m);
            self.run.depths.note_staleness(dst, m);
            let now = self.run.epoch.now_ns();
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
                self.run.park[dst].wake();
            }
            self.run.depths.sub(dst, m - accepted);
            for &(pkt_id, flow, stage_in) in meta.iter().take(accepted) {
                self.trace_enqueue(now, dst, pkt_id, flow, stage_in);
            }
            // Tail drop, kernel style: the stage's input queue is full
            // and nobody retries. `staged` now holds exactly the
            // rejected suffix.
            for pkt in staged.drain(..) {
                let reason = self.plan[pkt.stage as usize].queue.drop_reason();
                self.drop_pkt(pkt, reason, dst, now, self.lc);
            }
            // Hand the (emptied) buffer back so its capacity survives.
            self.outbox[dst] = staged;
        }
    }

    /// Traces packet `pkt` of `flow` entering `stage`'s input queue on
    /// worker `cpu`; the plan row says which queue that is.
    fn trace_enqueue(&mut self, at: u64, cpu: usize, pkt: u64, flow: u64, stage: u8) {
        if self.tracer.is_enabled() {
            let qlen = self.run.depths.depth(cpu);
            let kind = self.plan[stage as usize]
                .queue
                .enqueue_event(cpu, pkt, flow, qlen);
            self.tracer.emit(at, kind);
        }
    }

    /// Drops a packet inside the pipeline: retires it at audit clock
    /// `lc`, counts `reason`, and traces the drop at `cpu`'s queue.
    fn drop_pkt(&mut self, mut pkt: DpPkt, reason: DropReason, cpu: usize, at: u64, lc: u64) {
        if pkt.retire(&self.run.flows, lc) {
            self.stats.slab_recycles += 1;
        }
        self.stats.drops[reason.index()] += 1;
        self.tracer.emit(
            at,
            EventKind::QueueDrop {
                reason,
                cpu,
                pkt: pkt.desc.id.0,
                flow: pkt.desc.flow,
            },
        );
        self.dropped_delta += 1;
    }

    /// Folds locally-accumulated delivery/drop counts into the shared
    /// run counters — one RMW per counter per sweep instead of per
    /// packet.
    fn flush_counters(&mut self) {
        self.run.count(self.delivered_delta, self.dropped_delta);
        self.delivered_delta = 0;
        self.dropped_delta = 0;
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
        let depth = self.run.depths.depth(self.me) as u64;
        let staleness = self.run.depths.staleness(self.me) as u64;
        let conn = self
            .conntrack
            .as_ref()
            .map(|c| c.counters)
            .unwrap_or_default();
        let stats = &self.stats;
        let scratch = &mut self.hist_scratch;
        writer.write(|s| {
            let c = &mut s.counters;
            c.sweeps = stats.sweeps;
            c.processed_per_stage.copy_from_slice(&stats.processed);
            c.delivered = stats.delivered;
            c.bytes_delivered = stats.bytes_delivered;
            c.drops.copy_from_slice(&stats.drops);
            c.malformed_per_stage
                .copy_from_slice(&stats.malformed_per_stage);
            c.bytes_per_stage.copy_from_slice(&stats.bytes_per_stage);
            c.spin_ns_per_stage.copy_from_slice(&stats.spin_ns);
            c.decisions = stats.decisions;
            c.second_choices = stats.second_choices;
            c.migrations = stats.migrations;
            c.flow_cache_hits = stats.flow_cache.hits;
            c.flow_cache_misses = stats.flow_cache.misses;
            c.flow_cache_evictions = stats.flow_cache.evictions;
            c.flow_cache_invalidations = stats.flow_cache.invalidations;
            c.conntrack_updates = conn.updates;
            c.conntrack_transitions = conn.transitions;
            c.scr_delta_records = conn.delta_records;
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
        let last_stage = (self.plan.len() - 1) as u8;
        loop {
            let stage = pkt.stage;
            let spec = self.plan[stage as usize];
            let cp = spec.checkpoint;
            let start = self.run.epoch.now_ns();
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
                        wire_stage_work(wire, spec.op, buf, cache, cache_key, conntrack, seq)
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
                        // a drop frees the core early).
                        let now = charge(&self.run.epoch, t, &mut self.stats.stall.busy_ns);
                        self.stats.busy_ns += now.saturating_sub(start);
                        self.stats.malformed_per_stage[stage as usize] += 1;
                        let lc = self.lc.max(pkt.lc);
                        self.drop_pkt(pkt, DropReason::Malformed, self.me, now, lc);
                        return;
                    }
                }
            }
            // Spin until the stage's deadline: the byte work above ran
            // inside the modeled budget, so the stage occupies its core
            // for the budget, not the budget plus the work. A fresh
            // flow-cache hit at decap/bridge owes no budget: the cached
            // verdict replaced the stage's kernel work, which is where
            // the cache buys goodput. The spin's last clock read is the
            // stage's `done`; a native stage (`service_ns == 0`) reads
            // the clock twice in all: at start and after its work.
            let budget = if cache_hit_skip { 0 } else { service_ns };
            let worked = self.run.epoch.now_ns();
            let done = if worked < start + budget {
                spin_until(&self.run.epoch, start + budget)
            } else {
                worked
            };
            self.stats.spin_ns[stage as usize] += done - worked;
            // Busy boundary: the stage's work and spin plus all
            // per-packet bookkeeping since the previous boundary.
            charge_to(done, t, &mut self.stats.stall.busy_ns);
            let served = done - start;
            self.stats.processed[stage as usize] += 1;
            self.stats.busy_ns += served;
            if self.telemetry.is_some() {
                self.hist_scratch.push((stage, served));
            }
            if self.tracer.is_enabled() {
                self.tracer.emit(
                    start,
                    EventKind::Exec {
                        core: self.me,
                        ctx: Context::SoftIrq,
                        func: spec.label,
                        dur_ns: served,
                    },
                );
            }
            self.pass_checkpoint(&mut pkt, cp, done, queued_ns, served);
            // The stage has executed: the packet has retired from the
            // *previous* routing, so that registration can drop. The
            // current routing's guard stays held until the next stage
            // runs (or the packet delivers/drops). The release clock
            // makes this execution's ticket visible to whichever worker
            // a subsequent migration lands on.
            if let Some(prev) = pkt.prev_guard.take() {
                self.run.flows.release(prev, self.lc);
            }

            if stage == last_stage {
                let latency = done.saturating_sub(pkt.injected_ns);
                self.stats.delivered += 1;
                self.stats.latencies.push(latency);
                // Delivery is itself a checkpoint, as in the
                // simulator's skb hop log; folding it in keeps the
                // digest comparable across the two executors.
                self.pass_checkpoint(&mut pkt, DELIVERY_CHECK, done, 0, 0);
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
                if let Some(d) = delivery {
                    self.stats.bytes_delivered += d.payload_len;
                    self.stats
                        .digests
                        .push((pkt.desc.flow, pkt.desc.seq, d.digest));
                }
                if pkt.retire(&self.run.flows, self.lc) {
                    self.stats.slab_recycles += 1;
                }
                self.delivered_delta += 1;
                return;
            }

            pkt.last_worker = self.me;
            pkt.stage += 1;
            pkt.enqueued_ns = done;

            let dst = match self.plan[pkt.stage as usize].steer {
                // A backlog-local hop (A→B unsplit, A2→B split): the
                // poll loop feeds its own CPU's backlog, no steering
                // point exists there. Any upstream routing's guard
                // rides along until the stage after next has run.
                None => self.me,
                Some(ifindex) if self.run.policy.kind() == PolicyKind::Falcon => {
                    self.steer_hop(&mut pkt, ifindex, done, t)
                }
                Some(_) => self.run_to_completion_hop(&pkt),
            };
            if dst == self.me {
                // Still a queue insert conceptually, just with no ring
                // crossing.
                self.trace_enqueue(done, self.me, pkt.desc.id.0, pkt.desc.flow, pkt.stage);
                continue;
            }
            // Stage toward the destination; the batch flush after this
            // ring's drain publishes it (ring + gauge) in one shot.
            // Ordering is safe because a Falcon packet still holds both
            // guards: the (flow, device) pair can't migrate while it
            // sits here, so all in-flight same-flow packets for the
            // routed stage keep sharing this worker's FIFO path.
            self.outbox[dst].push(pkt);
            return;
        }
    }

    /// Records `pkt` passing checkpoint `cp` on this worker at `at`:
    /// folds the hop into the packet's digest, traces the execution and
    /// stamps the ordering audit.
    ///
    /// The audit ticket bumps this worker's Lamport clock past the
    /// packet's carried clock. Consecutive executions at one (flow,
    /// checkpoint) are linked by happens-before (same-thread program
    /// order, the ring's release/acquire across a hop, or the
    /// guard-drain edge a migration synchronizes on), and the clock is
    /// carried along every one of those edges — so their tickets come
    /// out strictly increasing without a single shared-line RMW.
    fn pass_checkpoint(
        &mut self,
        pkt: &mut DpPkt,
        cp: u32,
        at: u64,
        queued_ns: u64,
        service_ns: u64,
    ) {
        pkt.hop_digest = hop_hash_extend(pkt.hop_digest, cp, self.me);
        pkt.hops += 1;
        if self.tracer.is_enabled() {
            self.tracer.emit(
                at,
                EventKind::StageExec {
                    checkpoint: cp,
                    cpu: self.me,
                    ctx: Context::SoftIrq,
                    pkt: pkt.desc.id.0,
                    flow: pkt.desc.flow,
                    seq: pkt.desc.seq,
                    queued_ns,
                    service_ns,
                },
            );
        }
        self.lc = self.lc.max(pkt.lc) + 1;
        pkt.lc = self.lc;
        self.stats
            .order_log
            .push((self.lc, self.me as u32, pkt.desc.flow, cp, pkt.desc.seq));
    }

    /// The chaos rotation's worker for `pkt`'s next hop (tests only;
    /// `None` when the period is 0).
    fn chaos_worker(&self, pkt: &DpPkt) -> Option<usize> {
        let rot = pkt.desc.seq.checked_div(self.chaos_steer_period)?;
        Some((rot as usize + pkt.stage as usize) % self.outbound.len())
    }

    /// A steered row under a policy whose placement cannot move: the
    /// packet executes every remaining stage on the worker it landed on
    /// — no policy choice, no flow-table registration, no guards.
    /// Vanilla's choice for every device is the RSS worker the packet
    /// already runs on; Replicate runs to completion by design, and
    /// cross-worker state consistency is the conntrack shards' job.
    /// Chaos steering still rotates Replicate's packets across workers
    /// (guard-free hops) so the merge path gets exercised under
    /// adversarial placement. Returns the destination worker. It takes
    /// no guard, so it charges no guard time: the hop's few
    /// instructions ride into the next boundary's bucket.
    fn run_to_completion_hop(&mut self, pkt: &DpPkt) -> usize {
        self.stats.decisions += 1;
        match self.run.policy.kind() {
            PolicyKind::Replicate => self.chaos_worker(pkt).unwrap_or(self.me),
            _ => self.me,
        }
    }

    /// A Falcon steering point (A1→A2 when split, B→C, C→D) keyed by
    /// device `ifindex`: resolves the policy's preference, then the
    /// flow table's order-safe verdict, and swaps the packet's guards
    /// hand over hand. Returns the destination worker.
    fn steer_hop(&mut self, pkt: &mut DpPkt, ifindex: u32, done: u64, t: &mut u64) -> usize {
        // The load signal folds this worker's own staged-but-unpublished
        // packets back in (`load_plus`), so the only staleness other
        // workers' staging introduces is bounded by one NAPI budget per
        // peer.
        let mut choice = self.run.policy.choose_by(pkt.desc.rx_hash, ifindex, |c| {
            self.run.depths.load_plus(c, self.outbox[c].len())
        });
        // Chaos steering: rotate the preferred worker so nearly every
        // packet asks the flow table for a migration, hammering the
        // in-flight guard.
        if let Some(worker) = self.chaos_worker(pkt) {
            choice.worker = worker;
            choice.second = false;
        }
        self.stats.decisions += 1;
        if choice.second {
            self.stats.second_choices += 1;
        }
        let route = self.run.flows.route(pkt.desc.flow, ifindex, choice.worker);
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
        pkt.guard = Some(route.guard.id());
        // Fold the guard's release clock in: if this routing was a
        // migration, the drained predecessor's tickets now
        // happen-before everything this packet stamps next.
        pkt.lc = pkt.lc.max(route.lc);
        // Guard boundary: the policy choice, flow-table routing and
        // hand-over-hand guard exchange since the busy boundary.
        charge(&self.run.epoch, t, &mut self.stats.stall.guard_wait_ns);
        route.worker
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
}
