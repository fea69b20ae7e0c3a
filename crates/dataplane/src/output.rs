//! The run output: what each worker brings home, and the folds that
//! turn the per-worker stats into run-level totals and the post-run
//! ordering audit.

use falcon_conntrack::{merge_shards, ConnCounters, ConnShard, ConnTable};
use falcon_telemetry::{StallBreakdown, TelemetryRun};
use falcon_trace::{DropReason, Event, TraceMeta};
use falcon_wire::CacheStats;

use crate::stage::stage_labels;
use crate::steer::PolicyKind;

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
pub(crate) type OrderRec = (u64, u32, u64, u32, u64);

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
    /// [`FrameFactory::expected_digest`](falcon_wire::FrameFactory::expected_digest).
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
    /// [`Scenario::telemetry`](crate::Scenario::telemetry) was set.
    pub telemetry: Option<TelemetryRun>,
    /// Final slab-pool counters of the packet source's buffer pool
    /// (leases, recycles, heap fallbacks, …), when the source attached
    /// one ([`Injector::attach_slab_counters`]). Snapshotted after the
    /// workers join, so every recycle push is visible.
    ///
    /// [`Injector::attach_slab_counters`]: crate::Injector::attach_slab_counters
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
        self.drops_by_reason().iter().sum()
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

    /// Sums one per-stage counter vector across workers.
    fn per_stage(&self, counter: fn(&WorkerStats) -> &[u64]) -> Vec<u64> {
        let mut sum = vec![0u64; self.stages()];
        for w in &self.workers_stats {
            for (acc, v) in sum.iter_mut().zip(counter(w)) {
                *acc += v;
            }
        }
        sum
    }

    /// Wire mode: malformed-frame drops summed across workers, by the
    /// stage that caught them.
    pub fn malformed_per_stage(&self) -> Vec<u64> {
        self.per_stage(|w| &w.malformed_per_stage)
    }

    /// Wire mode: bytes touched per stage summed across workers.
    pub fn bytes_per_stage(&self) -> Vec<u64> {
        self.per_stage(|w| &w.bytes_per_stage)
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
        self.per_stage(|w| &w.processed)
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stage::STAGES;

    /// Pins every cross-worker fold of [`RunOutput`] on a hand-built
    /// two-worker run: per-stage sums, the injector's drops counted
    /// once under `Ring`, and the flow-cache totals.
    #[test]
    fn run_output_folds_sum_workers_and_injector() {
        let worker = |k: u64| {
            let mut drops = [0u64; DropReason::ALL.len()];
            drops[DropReason::Backlog.index()] = k;
            drops[DropReason::Malformed.index()] = 10 * k;
            WorkerStats {
                processed: vec![100 * k, 90 * k, 80 * k, 70 * k],
                delivered: 70 * k,
                drops,
                malformed_per_stage: vec![k, 2 * k, 3 * k, 4 * k],
                bytes_per_stage: vec![1000 * k, 900 * k, 800 * k, 700 * k],
                flow_cache: CacheStats {
                    hits: 5 * k,
                    misses: 6 * k,
                    evictions: 7 * k,
                    invalidations: 8 * k,
                },
                ..WorkerStats::default()
            }
        };
        let out = RunOutput {
            policy: PolicyKind::Falcon,
            workers: 2,
            host_cores: 2,
            split_gro: false,
            injected: 1_000,
            inject_drops: 9,
            wall_ns: 1,
            stage_ns: vec![1; STAGES],
            flow_pairs: 0,
            workers_stats: vec![worker(1), worker(2)],
            injector_events: Vec::new(),
            injector_overflow: 0,
            wire: true,
            bytes_injected: 0,
            corrupted_segments: 0,
            meta: TraceMeta::default(),
            telemetry: None,
            slab: None,
        };
        assert_eq!(out.processed_per_stage(), vec![300, 270, 240, 210]);
        assert_eq!(out.malformed_per_stage(), vec![3, 6, 9, 12]);
        assert_eq!(out.bytes_per_stage(), vec![3000, 2700, 2400, 2100]);
        assert_eq!(out.delivered(), 210);
        assert_eq!(out.dropped(), 9 + 3 + 30);
        let s = out.flow_cache_stats();
        assert_eq!(
            (s.hits, s.misses, s.evictions, s.invalidations),
            (15, 18, 21, 24)
        );
        let by_reason = out.drops_by_reason();
        assert_eq!(by_reason[DropReason::Ring.index()], 9);
        assert_eq!(by_reason[DropReason::Backlog.index()], 3);
        assert_eq!(by_reason[DropReason::Malformed.index()], 30);
        assert_eq!(by_reason.iter().sum::<u64>(), out.dropped());
    }
}
