//! Steering policies for the threaded executor, and the global
//! flow-steering table that makes Falcon's placement order-safe.
//!
//! The policies are the paper's two contenders, turned into real
//! scheduling decisions:
//!
//! * [`Policy::Vanilla`] — every stage of a flow runs on the flow-hash
//!   core, fully serialized: the overlay status quo the paper's §3
//!   measures.
//! * [`Policy::Falcon`] — per-(flow, device) placement via the same
//!   `get_falcon_cpu` hash the simulation uses
//!   ([`falcon::balance::falcon_choices_by`]), with the two-choice load
//!   balancer reading *live* per-worker queue depths instead of a
//!   smoothed load sample.
//!
//! Only Falcon's steered hops can move a flow between workers. A flow
//! enters on its RSS worker, which is fixed because a flow's `rx_hash`
//! is; under Vanilla every later stage runs to completion there, so no
//! Vanilla hop (and no injection) has a placement that can change, and
//! none of them touches the table.
//!
//! Because Falcon's balancer reads volatile depths, its preferred
//! target for a (flow, device) pair can change between packets —
//! exactly the hazard "Why Does Flow Director Cause Packet Reordering?"
//! describes. The [`FlowTable`] closes it the way the kernel's
//! `rps_dev_flow` qtail check does: a (flow, device) pair may only
//! migrate to a new worker when it has zero packets in flight at that
//! stage. Like the kernel's `rps_dev_flow` array the table is flat and
//! lock-free: each pair's worker and in-flight count share one atomic
//! word, and each packet carries the 4-byte id of the entries it is
//! registered with. Unlike the kernel — where one backlog per CPU makes
//! "drained" safe on its own — the executor's per-(src, dst) ring mesh
//! means packets arriving from different upstream workers travel on
//! different FIFOs, so the executor holds each registration until the
//! packet has executed the *next* stage (hand-over-hand), not merely
//! the routed one. The chain starts at the first steered hop: every
//! packet of a flow reaches it from the one RSS worker over one FIFO
//! ring, so the hop into the pipeline needs no registration. See the
//! `worker` module doc for the full argument.

use std::num::NonZeroU32;
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;

use falcon::balance::falcon_choices_by;
use falcon::FalconConfig;
use falcon_cpusim::CpuSet;
use falcon_packet::fold_mul;
use serde::{Deserialize, Serialize};

/// Which steering policy a dataplane run uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PolicyKind {
    /// All stages on the flow-hash core (serialized RSS behavior).
    Vanilla,
    /// Device-aware hashing + two-choice balancing (the paper).
    Falcon,
    /// State-Compute Replication: spread every flow's packets across
    /// workers round-robin with *no* per-(flow, device) serialization;
    /// each worker replicates the stateful bridge computation in its
    /// own conntrack shard, reconciled after the run by a delta-log
    /// merge. Trades per-flow delivery order (relaxed to the SCR
    /// duplicate-freedom contract) for immunity to the single-heavy-flow
    /// pin that serializing policies suffer.
    Replicate,
}

impl PolicyKind {
    /// Report label.
    pub fn label(self) -> &'static str {
        match self {
            PolicyKind::Vanilla => "vanilla",
            PolicyKind::Falcon => "falcon",
            PolicyKind::Replicate => "replicate",
        }
    }

    /// Parses a report label back into a kind (the benchmark's
    /// `<metric>.<policy>` names).
    pub fn from_label(label: &str) -> Option<PolicyKind> {
        match label {
            "vanilla" => Some(PolicyKind::Vanilla),
            "falcon" => Some(PolicyKind::Falcon),
            "replicate" => Some(PolicyKind::Replicate),
            _ => None,
        }
    }
}

/// Aligns each worker's depth counter to its own cache line.
#[repr(align(64))]
#[derive(Debug, Default)]
struct PaddedCounter(AtomicUsize);

/// Live per-worker inbound queue depths — the dataplane's substitute
/// for the simulation's smoothed [`LoadTracker`](falcon_cpusim::LoadTracker).
///
/// Producers increment the target's gauge *before* pushing and undo the
/// increment if the push fails; consumers decrement after pop. The
/// order matters: incrementing after a successful push races the
/// consumer's decrement (pop can land between push and increment) and
/// underflows the counter to `usize::MAX`, which would read as load 1.0
/// and trigger spurious two-choice rehashes until the increment lands.
/// `load()` normalizes depth against
/// `busy_depth` (≈ one NAPI budget): a worker with a full batch already
/// queued reads as load 1.0, which is when the two-choice balancer
/// starts looking elsewhere.
///
/// **Staleness bound under batching.** The batched executor touches
/// each counter once per (sweep, ring) instead of once per packet:
/// consumers `sub` a whole pop batch up front, producers `add` a whole
/// staged batch at flush. The depth another worker reads can therefore
/// be off by at most one NAPI budget in either direction: under-read
/// by an upstream worker's unflushed outbound staging buffer
/// (≤ `napi_budget`, flushed at the end of processing every inbound
/// batch), or by the consumer's up-front `sub` of a batch it is still
/// working through (which moves those packets from "queued" to
/// "in service" a batch early). The local worker's own staged packets
/// are folded back in via [`load_plus`](Self::load_plus), so a
/// steering decision is never stale with respect to the decisions the
/// same worker just made — the feedback loop that matters for
/// two-choice stability. Cross-worker error stays bounded by one NAPI
/// budget and self-corrects every sweep.
///
/// That bound is not just documentation: every batched update reports
/// its size through [`note_staleness`](Self::note_staleness), and the
/// per-worker maximum is exported as the sampled `depth_staleness`
/// metric — so telemetry (and the conformance tests) can verify the
/// gauge never went staler than one NAPI budget.
#[derive(Debug)]
pub struct DepthGauge {
    depths: Vec<PaddedCounter>,
    /// Largest single batched adjustment observed per worker — the
    /// realized staleness bound of that worker's depth signal.
    staleness: Vec<PaddedCounter>,
    busy_depth: usize,
}

impl DepthGauge {
    /// Creates gauges for `workers` workers.
    pub fn new(workers: usize, busy_depth: usize) -> Self {
        DepthGauge {
            depths: (0..workers).map(|_| PaddedCounter::default()).collect(),
            staleness: (0..workers).map(|_| PaddedCounter::default()).collect(),
            busy_depth: busy_depth.max(1),
        }
    }

    /// Records one packet queued toward `worker`.
    #[inline]
    pub fn inc(&self, worker: usize) {
        self.depths[worker].0.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one packet dequeued by `worker`.
    #[inline]
    pub fn dec(&self, worker: usize) {
        self.depths[worker].0.fetch_sub(1, Ordering::Relaxed);
    }

    /// Records `n` packets queued toward `worker` in one RMW — the
    /// batched flush path's single shared-cache-line touch per
    /// (sweep, destination) instead of one per packet.
    #[inline]
    pub fn add(&self, worker: usize, n: usize) {
        if n > 0 {
            self.depths[worker].0.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Records `n` packets dequeued by `worker` in one RMW (the batched
    /// consumer-side companion to [`add`](Self::add)).
    #[inline]
    pub fn sub(&self, worker: usize, n: usize) {
        if n > 0 {
            self.depths[worker].0.fetch_sub(n, Ordering::Relaxed);
        }
    }

    /// Current queued-packet count for `worker`.
    #[inline]
    pub fn depth(&self, worker: usize) -> usize {
        self.depths[worker].0.load(Ordering::Relaxed)
    }

    /// Depth normalized to `0..=1` against the busy threshold.
    #[inline]
    pub fn load(&self, worker: usize) -> f64 {
        (self.depth(worker) as f64 / self.busy_depth as f64).min(1.0)
    }

    /// Like [`load`](Self::load), with `extra` locally-staged packets
    /// folded in. The batched executor publishes its outbound packets
    /// to the gauge once per flush, not per packet; folding the
    /// not-yet-flushed staging count back in keeps *this* worker's
    /// steering decisions exactly as fresh as the per-packet gauge gave
    /// them. (Other workers' staged packets stay invisible until their
    /// flush — see the staleness-bound note on [`DepthGauge`].)
    #[inline]
    pub fn load_plus(&self, worker: usize, extra: usize) -> f64 {
        ((self.depth(worker) + extra) as f64 / self.busy_depth as f64).min(1.0)
    }

    /// Records that `worker`'s depth signal was stale by `n` packets
    /// for one batched update: a consumer's up-front `sub` of a batch
    /// it is still serving, or a producer's staged-but-unflushed
    /// outbound buffer published in one `add`. Keeps the per-worker
    /// maximum; the executor calls this at every batched gauge touch,
    /// so the exported metric is the *realized* staleness bound.
    #[inline]
    pub fn note_staleness(&self, worker: usize, n: usize) {
        if n > 0 {
            self.staleness[worker].0.fetch_max(n, Ordering::Relaxed);
        }
    }

    /// Largest batched-update staleness observed for `worker` so far.
    /// The documented bound is one NAPI budget (`busy_depth`).
    #[inline]
    pub fn staleness(&self, worker: usize) -> usize {
        self.staleness[worker].0.load(Ordering::Relaxed)
    }

    /// Number of workers tracked.
    pub fn workers(&self) -> usize {
        self.depths.len()
    }
}

/// A steering decision: the preferred worker and whether the two-choice
/// rehash was taken.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Choice {
    /// First-choice worker from the device-aware hash.
    pub first: usize,
    /// Preferred worker for the stage (== `first` unless rehashed).
    pub worker: usize,
    /// Whether the first choice was over threshold and the second
    /// random choice was used.
    pub second: bool,
}

/// A steering policy instance, shared read-only across workers.
#[derive(Debug)]
pub enum Policy {
    /// Serialized: flow-hash placement for every stage.
    Vanilla {
        /// The worker set hashed over.
        workers: CpuSet,
    },
    /// The paper's Algorithm 1 over live queue depths.
    Falcon {
        /// Falcon knobs; `falcon_cpus` is the worker set.
        config: FalconConfig,
    },
    /// State-Compute Replication: packet-level round-robin at injection,
    /// run-to-completion on the receiving worker, per-worker state
    /// replicas merged after the run. No guards, no migration.
    Replicate {
        /// The worker set packets are spread over.
        workers: CpuSet,
    },
}

impl Policy {
    /// Builds the policy for `kind` over workers `0..n`.
    pub fn new(kind: PolicyKind, n_workers: usize) -> Self {
        Policy::with_two_choice(kind, n_workers, true)
    }

    /// Like [`Policy::new`], with the Falcon policy's depth-triggered
    /// two-choice rehash switched on or off (off = always the
    /// (flow, device) hash's first choice, load ignored). Vanilla
    /// hashes unconditionally and ignores the flag.
    pub fn with_two_choice(kind: PolicyKind, n_workers: usize, two_choice: bool) -> Self {
        match kind {
            PolicyKind::Vanilla => Policy::Vanilla {
                workers: CpuSet::first_n(n_workers),
            },
            PolicyKind::Falcon => Policy::Falcon {
                config: FalconConfig::new(CpuSet::first_n(n_workers))
                    .with_always_on(true)
                    .with_two_choice(two_choice),
            },
            PolicyKind::Replicate => Policy::Replicate {
                workers: CpuSet::first_n(n_workers),
            },
        }
    }

    /// The policy's report label.
    pub fn kind(&self) -> PolicyKind {
        match self {
            Policy::Vanilla { .. } => PolicyKind::Vanilla,
            Policy::Falcon { .. } => PolicyKind::Falcon,
            Policy::Replicate { .. } => PolicyKind::Replicate,
        }
    }

    /// The core a flow's packets arrive on (RSS): both policies pin
    /// stage A to the flow-hash worker, like the NIC's indirection
    /// table does.
    pub fn rss_worker(&self, rx_hash: u32) -> usize {
        match self {
            // Replicate doesn't pin flows to an RSS core — the injector
            // round-robins per packet and ignores this — but keep the
            // hash pick as a sensible answer for callers that ask.
            Policy::Vanilla { workers } | Policy::Replicate { workers } => {
                workers.pick_by_hash(rx_hash)
            }
            Policy::Falcon { config } => config.falcon_cpus.pick_by_hash(rx_hash),
        }
    }

    /// Picks the worker for the stage behind device `ifindex`.
    pub fn choose(&self, rx_hash: u32, ifindex: u32, depths: &DepthGauge) -> Choice {
        self.choose_by(rx_hash, ifindex, |c| depths.load(c))
    }

    /// Picks the worker for the stage behind device `ifindex`, reading
    /// per-worker load through `load`. The batched executor uses this
    /// to fold its locally-staged (not yet flushed) packets into the
    /// gauge reading — see [`DepthGauge::load_plus`].
    pub fn choose_by(&self, rx_hash: u32, ifindex: u32, load: impl Fn(usize) -> f64) -> Choice {
        match self {
            // The executor never asks these two: their packets run to
            // completion where they landed. Answer with the hash pick
            // (Vanilla's RSS worker) so the Choice contract stays total.
            Policy::Vanilla { workers } | Policy::Replicate { workers } => {
                let worker = workers.pick_by_hash(rx_hash);
                Choice {
                    first: worker,
                    worker,
                    second: false,
                }
            }
            Policy::Falcon { config } => {
                let (first, worker, second) = falcon_choices_by(config, rx_hash, ifindex, load);
                Choice {
                    first,
                    worker,
                    second,
                }
            }
        }
    }
}

/// One (flow, device) registration: the key, the chain link of its
/// bucket, the worker the pair runs on packed with the packet count that
/// blocks its migration, and a Lamport-clock high-water mark that
/// threads the ordering audit's happens-before chain through
/// migrations.
///
/// `state` packs `(worker, in_flight)` into one word, so a route reads
/// the count, decides, moves the pair and registers its packet in one
/// CAS. Entries never move and never die while the table lives.
///
/// The clock is what lets the audit ticket be *per-worker* instead of
/// a run-global RMW (the old design's hottest shared cache line: two
/// `fetch_add`s on one counter per stage execution, from every worker
/// at once). Each worker stamps its order records with a local Lamport
/// counter; packets carry the clock across rings (the ring's
/// release/acquire publishes it); and this field carries it across the
/// one remaining cross-worker edge — a migration, where packet B may
/// execute a checkpoint on a different worker than packet A did,
/// linked only by "A's guard drained before B routed". The releaser
/// folds its clock in *before* the `Release` decrement of the count; a
/// router whose `Acquire` CAS observes the count at 0 therefore also
/// observes the clock, and hands it to the routed packet. Every
/// happens-before path between two executions at one (flow,
/// checkpoint) — same-thread program order, ring handoff, or guard
/// drain — thus forces strictly increasing ticket values, so sorting
/// the merged logs by (clock, worker) reconstructs the true order
/// without any run-global synchronization.
#[derive(Debug, Default)]
struct FlowEntry {
    flow: AtomicU64,
    ifindex: AtomicU32,
    /// The next entry in this entry's bucket chain (0 = end).
    next: AtomicU32,
    /// `worker << 32 | in_flight`.
    state: AtomicU64,
    /// Lamport-clock high-water mark of completed releases.
    release_lc: AtomicU64,
}

/// Packs a pair's worker and in-flight count into one `state` word.
fn pack(worker: usize, in_flight: u32) -> u64 {
    ((worker as u64) << 32) | u64::from(in_flight)
}

/// Splits a `state` word into its worker and in-flight count.
fn unpack(state: u64) -> (usize, u32) {
    ((state >> 32) as usize, state as u32)
}

impl FlowEntry {
    fn is(&self, flow: u64, ifindex: u32) -> bool {
        self.flow.load(Ordering::Relaxed) == flow && self.ifindex.load(Ordering::Relaxed) == ifindex
    }

    fn release(&self, lc: u64) {
        self.release_lc.fetch_max(lc, Ordering::Relaxed);
        let before = self.state.fetch_sub(1, Ordering::Release);
        debug_assert!(unpack(before).1 > 0, "released a drained registration");
    }
}

/// A (flow, device) registration's id in its [`FlowTable`]: four bytes a
/// packet carries instead of a pointer (`Option<GuardId>` is four bytes
/// too). [`FlowTable::release`] takes it back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GuardId(NonZeroU32);

/// A held in-flight registration, as [`FlowTable::route`] hands it out.
#[derive(Debug, Clone, Copy)]
pub struct InflightGuard<'t> {
    entry: &'t FlowEntry,
    id: GuardId,
}

impl InflightGuard<'_> {
    /// The registration's id, for a packet to carry across rings.
    pub fn id(&self) -> GuardId {
        self.id
    }
}

/// One resolved route: where the packet actually goes, and the
/// in-flight guard the consumer must release after the stage runs.
#[derive(Debug)]
pub struct Route<'t> {
    /// Worker the packet must be enqueued to.
    pub worker: usize,
    /// In-flight guard for this (flow, device); already counted.
    pub guard: InflightGuard<'t>,
    /// Whether this packet moved the pair to a new worker.
    pub migrated: bool,
    /// Lamport clock observed at routing; the packet must fold this
    /// into its own clock so executions after a migration tick later
    /// than everything the drained guard completed.
    pub lc: u64,
}

/// Releases one in-flight registration, recording the releasing
/// packet's Lamport clock. The executor calls this (through
/// [`FlowTable::release`]) once the packet can no longer be overtaken
/// on its way out of the routed stage: after the *following* stage has
/// executed, or on delivery, or when the packet was dropped. The clock
/// fold-in precedes the `Release` decrement, so any router that sees
/// the count hit zero also sees the clock (see [`FlowTable::route`]).
#[inline]
pub fn release(guard: &InflightGuard<'_>, lc: u64) {
    guard.entry.release(lc);
}

/// Entries in the arena's first segment; segment `k` holds
/// `SEG0 << k`, so `SEGMENTS` of them cover every `u32` id.
const SEG0_BITS: u32 = 10;
const SEG0: usize = 1 << SEG0_BITS;
const SEGMENTS: usize = (u32::BITS - SEG0_BITS + 1) as usize;
/// Bucket heads a table starts with at least, whatever its pair hint:
/// 64 KiB of heads keep chains short even for a caller that hints low.
const MIN_BUCKETS: usize = 1 << 14;
/// Bucket heads a table starts with at most (64 MiB of heads).
const MAX_BUCKETS: usize = 1 << 24;
/// Multiplier of the (flow, device) key hash (from splitmix64).
const KEY_HASH_K: u64 = 0xBF58_476D_1CE4_E5B9;

/// The global sticky (flow, device) → worker table with in-flight
/// migration protection: an insert-only, lock-free hash table, the
/// executor's `rps_dev_flow` array.
///
/// Bucket heads and chain links are `AtomicU32` entry ids (0 = none).
/// Entries live in an arena of geometrically growing segments, each
/// allocated on first use, so the table holds any number of pairs and
/// set-up touches nothing but the bucket array. A new pair is published
/// with one CAS on its bucket head; a route is one CAS on its entry's
/// packed state; a release is one `fetch_max` and one `fetch_sub`.
#[derive(Debug)]
pub struct FlowTable {
    buckets: Box<[AtomicU32]>,
    segments: [OnceLock<Box<[FlowEntry]>>; SEGMENTS],
    /// Entry ids handed out so far (published or not).
    claimed: AtomicU32,
    /// Entries published into a bucket: the distinct pairs.
    pairs: AtomicUsize,
}

impl FlowTable {
    /// Creates a table sized for about `pairs` (flow, device) pairs:
    /// one bucket head per pair, rounded up to a power of two, within a
    /// floor and a ceiling. More pairs than the hint still fit; their
    /// chains grow.
    pub fn new(pairs: usize) -> Self {
        let n = pairs.clamp(MIN_BUCKETS, MAX_BUCKETS).next_power_of_two();
        FlowTable {
            buckets: (0..n).map(|_| AtomicU32::new(0)).collect(),
            segments: std::array::from_fn(|_| OnceLock::new()),
            claimed: AtomicU32::new(0),
            pairs: AtomicUsize::new(0),
        }
    }

    fn bucket(&self, flow: u64, ifindex: u32) -> &AtomicU32 {
        let h = fold_mul(flow ^ (u64::from(ifindex) << 48), KEY_HASH_K);
        &self.buckets[h as usize & (self.buckets.len() - 1)]
    }

    /// The entry behind a published or claimed id.
    fn entry(&self, id: GuardId) -> &FlowEntry {
        let (seg, off) = segment_of(id.0.get() - 1);
        &self.segments[seg]
            .get()
            .expect("ids are claimed before use")[off]
    }

    /// Claims a fresh entry, allocating its segment on first use.
    fn claim(&self) -> (GuardId, &FlowEntry) {
        let idx = self.claimed.fetch_add(1, Ordering::Relaxed);
        assert!(idx < u32::MAX, "flow table out of entry ids");
        let (seg, off) = segment_of(idx);
        let entries = self.segments[seg]
            .get_or_init(|| (0..SEG0 << seg).map(|_| FlowEntry::default()).collect());
        let id = GuardId(NonZeroU32::new(idx + 1).expect("idx < u32::MAX"));
        (id, &entries[off])
    }

    /// Walks a bucket chain from id `from` up to (not including) id
    /// `until`, looking for the (flow, device) entry.
    fn find(&self, from: u32, until: u32, flow: u64, ifindex: u32) -> Option<InflightGuard<'_>> {
        let mut cur = from;
        while cur != until {
            let id = GuardId(NonZeroU32::new(cur)?);
            let entry = self.entry(id);
            if entry.is(flow, ifindex) {
                return Some(InflightGuard { entry, id });
            }
            cur = entry.next.load(Ordering::Acquire);
        }
        None
    }

    /// Resolves where a (flow, device) packet runs, given the policy's
    /// preferred worker. The preference is honored immediately for new
    /// pairs; an established pair follows its current worker until it
    /// has zero packets in flight, then migrates. The returned route
    /// has one in-flight registration the consumer must [`release`].
    pub fn route(&self, flow: u64, ifindex: u32, want: usize) -> Route<'_> {
        let bucket = self.bucket(flow, ifindex);
        let mut head = bucket.load(Ordering::Acquire);
        if let Some(guard) = self.find(head, 0, flow, ifindex) {
            return enter(guard, want);
        }
        // A new pair: publish a fresh entry at the chain's head, already
        // holding this packet's registration.
        let (id, entry) = self.claim();
        entry.flow.store(flow, Ordering::Relaxed);
        entry.ifindex.store(ifindex, Ordering::Relaxed);
        entry.state.store(pack(want, 1), Ordering::Relaxed);
        loop {
            entry.next.store(head, Ordering::Relaxed);
            match bucket.compare_exchange(head, id.0.get(), Ordering::Release, Ordering::Acquire) {
                Ok(_) => {
                    self.pairs.fetch_add(1, Ordering::Relaxed);
                    return Route {
                        worker: want,
                        guard: InflightGuard { entry, id },
                        migrated: false,
                        lc: 0,
                    };
                }
                // Another router published into this bucket first: only
                // the chain's new prefix can hold this key. If it does,
                // the claimed entry stays unpublished.
                Err(now) => {
                    if let Some(guard) = self.find(now, head, flow, ifindex) {
                        return enter(guard, want);
                    }
                    head = now;
                }
            }
        }
    }

    /// Releases the registration `id` at Lamport clock `lc` (see the
    /// free [`release`]); the packet-side form of it.
    #[inline]
    pub fn release(&self, id: GuardId, lc: u64) {
        self.entry(id).release(lc);
    }

    /// Total (flow, device) pairs tracked.
    pub fn pairs(&self) -> usize {
        self.pairs.load(Ordering::Relaxed)
    }
}

/// Registers one packet with an established pair in one CAS: the pair
/// moves to `want` only when the count reads 0, and the count goes up
/// by one either way.
fn enter(guard: InflightGuard<'_>, want: usize) -> Route<'_> {
    let state = &guard.entry.state;
    let mut cur = state.load(Ordering::Relaxed);
    loop {
        let (worker, in_flight) = unpack(cur);
        let to = if worker != want && in_flight == 0 {
            want
        } else {
            worker
        };
        let next = pack(to, in_flight + 1);
        match state.compare_exchange_weak(cur, next, Ordering::Acquire, Ordering::Relaxed) {
            // Reading the release clock after the Acquire CAS means: if
            // the count read 0, this read is ordered after every prior
            // release's fold-in (the CAS syncs with each Release
            // decrement), so a migrated packet inherits a clock later
            // than everything that drained. When the count was nonzero
            // the pair could not migrate and same-worker program order
            // carries the happens-before instead; the (possibly stale)
            // clock read is then merely a harmless extra lower bound.
            Ok(_) => {
                return Route {
                    worker: to,
                    guard,
                    migrated: to != worker,
                    lc: guard.entry.release_lc.load(Ordering::Relaxed),
                }
            }
            Err(now) => cur = now,
        }
    }
}

/// The (segment, offset) of arena index `idx`: segment `k` starts at
/// `SEG0 * (2^k - 1)`.
fn segment_of(idx: u32) -> (usize, usize) {
    let x = (u64::from(idx) >> SEG0_BITS) + 1;
    let seg = x.ilog2() as usize;
    let start = (SEG0 as u64) * ((1u64 << seg) - 1);
    (seg, (u64::from(idx) - start) as usize)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn depth_gauge_staleness_tracks_max_batched_update() {
        let g = DepthGauge::new(2, 64);
        assert_eq!(g.staleness(0), 0);
        g.note_staleness(0, 5);
        g.note_staleness(0, 3);
        assert_eq!(g.staleness(0), 5, "keeps the maximum");
        g.note_staleness(0, 64);
        assert_eq!(g.staleness(0), 64);
        g.note_staleness(1, 0);
        assert_eq!(g.staleness(1), 0, "zero-sized updates don't count");
        assert_eq!(g.staleness(0), 64);
    }

    #[test]
    fn vanilla_serializes_all_stages() {
        let p = Policy::new(PolicyKind::Vanilla, 4);
        let depths = DepthGauge::new(4, 64);
        let h = 0xBEEF_CAFE;
        let a = p.rss_worker(h);
        let b = p.choose(h, 2, &depths);
        let c = p.choose(h, 3, &depths);
        assert_eq!(a, b.worker);
        assert_eq!(b.worker, c.worker, "vanilla never leaves the flow core");
        assert!(!b.second && !c.second);
    }

    #[test]
    fn falcon_spreads_stages_of_one_flow() {
        let p = Policy::new(PolicyKind::Falcon, 8);
        let depths = DepthGauge::new(8, 64);
        let mut spread = 0;
        for f in 0..200u32 {
            let h = 0x9E37_0000u32.wrapping_add(f.wrapping_mul(2_654_435_761));
            let b = p.choose(h, 2, &depths).worker;
            let c = p.choose(h, 3, &depths).worker;
            if b != c {
                spread += 1;
            }
        }
        assert!(spread > 120, "only {spread}/200 flows had distinct stages");
    }

    /// GRO splitting rides on the same mechanism: the split half's
    /// synthetic device id (`stage::PNIC_SPLIT_IF`) must hash a
    /// flow's GRO half away from its alloc half's RSS placement for
    /// most flows, or the fifth stage would just serialize behind the
    /// first.
    #[test]
    fn split_device_places_gro_half_off_the_rss_worker() {
        let p = Policy::new(PolicyKind::Falcon, 8);
        let depths = DepthGauge::new(8, 64);
        let mut apart = 0;
        for f in 0..200u32 {
            let h = 0x9E37_0000u32.wrapping_add(f.wrapping_mul(2_654_435_761));
            let alloc = p.rss_worker(h);
            let gro = p.choose(h, crate::stage::PNIC_SPLIT_IF, &depths).worker;
            if alloc != gro {
                apart += 1;
            }
        }
        assert!(apart > 120, "only {apart}/200 flows split off the RSS core");
    }

    #[test]
    fn falcon_second_choice_reads_live_depths() {
        let p = Policy::new(PolicyKind::Falcon, 4);
        let depths = DepthGauge::new(4, 8);
        // Find a (hash, dev) whose first choice is worker 2.
        let (h, dev) = (0..10_000u32)
            .flat_map(|h| [(h, 2u32), (h, 3u32)])
            .find(|&(h, d)| p.choose(h, d, &depths).worker == 2)
            .expect("some input maps to worker 2");
        // Saturate worker 2's queue: the rehash engages.
        for _ in 0..8 {
            depths.inc(2);
        }
        let choice = p.choose(h, dev, &depths);
        assert!(choice.second, "depth-saturated first choice must rehash");
        // Draining the queue restores the first choice.
        for _ in 0..8 {
            depths.dec(2);
        }
        let calm = p.choose(h, dev, &depths);
        assert_eq!(calm.worker, 2);
        assert!(!calm.second);
    }

    #[test]
    fn flow_table_blocks_inflight_migration() {
        let t = FlowTable::new(8);
        let r1 = t.route(7, 2, 0);
        assert_eq!(r1.worker, 0);
        assert!(!r1.migrated);
        // One packet in flight: a different preference must not move
        // the pair.
        let r2 = t.route(7, 2, 3);
        assert_eq!(r2.worker, 0, "migration with packets in flight");
        assert!(!r2.migrated);
        // Drain both packets, then the pair may move.
        release(&r1.guard, 10);
        release(&r2.guard, 20);
        let r3 = t.route(7, 2, 3);
        assert_eq!(r3.worker, 3);
        assert!(r3.migrated);
        assert!(
            r3.lc >= 20,
            "a migrated route must inherit the drained releases' clock"
        );
        release(&r3.guard, 30);
        assert_eq!(t.pairs(), 1);
    }

    #[test]
    fn flow_table_pairs_are_independent() {
        let t = FlowTable::new(4);
        let a = t.route(1, 2, 0);
        let b = t.route(1, 3, 1);
        let c = t.route(2, 2, 2);
        assert_eq!((a.worker, b.worker, c.worker), (0, 1, 2));
        assert_eq!(t.pairs(), 3);
    }

    /// The longest bucket chain in `t`.
    fn longest_chain(t: &FlowTable) -> usize {
        t.buckets
            .iter()
            .map(|head| {
                let mut len = 0;
                let mut cur = head.load(Ordering::Acquire);
                while let Some(id) = NonZeroU32::new(cur) {
                    len += 1;
                    cur = t.entry(GuardId(id)).next.load(Ordering::Acquire);
                }
                len
            })
            .max()
            .unwrap_or(0)
    }

    #[test]
    fn flow_table_holds_more_pairs_than_its_hint() {
        // The benchmark's replay sizes its table for 8 pairs and routes
        // every flow of a 16k-flow workload through one device.
        let t = FlowTable::new(8);
        for flow in 0..16_384u64 {
            let r = t.route(flow, 2, (flow % 2) as usize);
            assert_eq!(r.worker, (flow % 2) as usize);
            release(&r.guard, flow);
        }
        assert_eq!(t.pairs(), 16_384);
        // Consecutive flow ids spread over the floor's buckets.
        let longest = longest_chain(&t);
        assert!(longest <= 8, "longest chain {longest}");
        // Every pair is still found, not re-created.
        for flow in 0..16_384u64 {
            let r = t.route(flow, 2, (flow % 2) as usize);
            assert!(!r.migrated);
            release(&r.guard, flow);
        }
        assert_eq!(t.pairs(), 16_384);
    }

    #[test]
    fn arena_segments_tile_the_id_space() {
        assert_eq!(segment_of(0), (0, 0));
        assert_eq!(segment_of(SEG0 as u32 - 1), (0, SEG0 - 1));
        assert_eq!(segment_of(SEG0 as u32), (1, 0));
        assert_eq!(segment_of(3 * SEG0 as u32 - 1), (1, 2 * SEG0 - 1));
        assert_eq!(segment_of(3 * SEG0 as u32), (2, 0));
        let (seg, off) = segment_of(u32::MAX - 1);
        assert!(seg < SEGMENTS && off < SEG0 << seg);
        // A packet's two guard ids cost it eight bytes.
        assert_eq!(size_of::<Option<GuardId>>(), 4);
    }

    #[test]
    fn depth_gauge_normalizes() {
        let g = DepthGauge::new(2, 10);
        assert_eq!(g.load(0), 0.0);
        for _ in 0..5 {
            g.inc(0);
        }
        assert!((g.load(0) - 0.5).abs() < 1e-9);
        for _ in 0..20 {
            g.inc(0);
        }
        assert_eq!(g.load(0), 1.0, "saturates at 1.0");
        assert_eq!(g.depth(1), 0);
    }
}
