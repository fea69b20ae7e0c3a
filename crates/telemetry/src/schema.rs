//! The counter tables: the one place each exported counter is named.
//!
//! Each counter family — a worker's shard ([`WORKER`]), the socket rx
//! thread ([`RX`]) and the packet source's slab pool ([`SLAB`]) — is one
//! static table with a [`Row`] per counter. A row gives the counter's
//! JSONL key and nesting group, its Prometheus family name, help text
//! and [`Kind`], and reaches the field it exports. The shard's delta
//! and accumulate helpers, the JSONL lines and the Prometheus exposition
//! all loop over the rows, so a new counter is one row.
//! [`ShardCounters`] and [`RxSample`] are declared by their tables; the
//! slab table reads the fields of [`SlabSample`].

use falcon_packet::SlabSample;
use falcon_trace::DropReason;
use serde::Serialize;

/// How a counter reads across sampling intervals.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Only ever grows: JSONL writes the interval delta, Prometheus a
    /// `counter` (whose name ends in `_total`).
    Counter,
    /// A level: JSONL writes the current value, Prometheus a `gauge`.
    Gauge,
}

impl Kind {
    /// The Prometheus `# TYPE` of this kind.
    pub fn prom_type(self) -> &'static str {
        match self {
            Kind::Counter => "counter",
            Kind::Gauge => "gauge",
        }
    }
}

/// What a row's cells stand for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Shape {
    /// One value.
    Scalar,
    /// One value per pipeline stage, in stage order.
    PerStage,
    /// One value per drop reason, at `DropReason::index()`.
    PerReason,
}

/// One exported counter of a sample type `T`.
pub struct Row<T> {
    /// JSONL key.
    pub key: &'static str,
    /// JSONL object the key nests in; `None` for the top level.
    pub group: Option<&'static str>,
    /// JSONL key that also carries the cumulative value, written after
    /// every row's delta.
    pub total: Option<&'static str>,
    /// Prometheus family name.
    pub prom: &'static str,
    /// Prometheus help text.
    pub help: &'static str,
    /// Counter or gauge.
    pub kind: Kind,
    /// Scalar, per stage or per drop reason.
    pub shape: Shape,
    /// The field's cells.
    pub cells: fn(&T) -> &[u64],
    /// The field's cells, first grown with zeros to at least `n`.
    pub cells_mut: fn(&mut T, usize) -> &mut [u64],
}

impl<T> Row<T> {
    /// The row's cells in `s`, each with the label value that names it
    /// (empty for a scalar, `?` for a stage past `stages`).
    pub fn labelled<'a>(&self, s: &T, stages: &'a [String]) -> Vec<(&'a str, u64)> {
        let cells = (self.cells)(s);
        match self.shape {
            Shape::Scalar => vec![("", cells[0])],
            Shape::PerStage => cells
                .iter()
                .enumerate()
                .map(|(i, &v)| (stages.get(i).map_or("?", String::as_str), v))
                .collect(),
            Shape::PerReason => DropReason::ALL
                .iter()
                .map(|r| (r.label(), cells.get(r.index()).copied().unwrap_or(0)))
                .collect(),
        }
    }
}

/// Storage of one counter field: a single cell or a vector of them.
trait Cells {
    /// The cells.
    fn cells(&self) -> &[u64];
    /// The cells, first grown with zeros to at least `n`.
    fn cells_mut(&mut self, n: usize) -> &mut [u64];
}

impl Cells for u64 {
    fn cells(&self) -> &[u64] {
        std::slice::from_ref(self)
    }
    fn cells_mut(&mut self, _: usize) -> &mut [u64] {
        std::slice::from_mut(self)
    }
}

impl Cells for Vec<u64> {
    fn cells(&self) -> &[u64] {
        self
    }
    fn cells_mut(&mut self, n: usize) -> &mut [u64] {
        if self.len() < n {
            self.resize(n, 0);
        }
        self
    }
}

/// `cur` with each counter row's cells replaced by their saturating
/// delta since `prev`; gauge rows and fields outside the table keep
/// `cur`'s value.
pub fn delta<T: Clone>(table: &[Row<T>], cur: &T, prev: &T) -> T {
    let mut d = cur.clone();
    for row in table.iter().filter(|r| r.kind == Kind::Counter) {
        for (x, y) in (row.cells_mut)(&mut d, 0).iter_mut().zip((row.cells)(prev)) {
            *x = x.saturating_sub(*y);
        }
    }
    d
}

/// Builds a table: `field: type => Shape Kind "key" [in "group"]
/// [+ "total"], "prom", "help";` per row. With `pub struct` in front it
/// also declares the sample type, one field per row documented by its
/// help text.
macro_rules! counter_table {
    (
        $(#[$attr:meta])*
        pub struct $ty:ident in $table:ident {
            $($field:ident: $cell:ty => $shape:ident $kind:ident $key:literal
                $(in $group:literal)? $(+ $total:literal)?, $prom:literal, $help:literal;)*
        }
    ) => {
        $(#[$attr])*
        pub struct $ty {
            $(#[doc = $help] pub $field: $cell,)*
        }
        counter_table! {
            $ty in $table {
                $($field: $cell => $shape $kind $key $(in $group)? $(+ $total)?, $prom, $help;)*
            }
        }
    };
    (
        $ty:ident in $table:ident {
            $($field:ident: $cell:ty => $shape:ident $kind:ident $key:literal
                $(in $group:literal)? $(+ $total:literal)?, $prom:literal, $help:literal;)*
        }
    ) => {
        #[doc = concat!("Export schema of [`", stringify!($ty), "`], one row per counter.")]
        pub const $table: &[Row<$ty>] = &[$(Row {
            key: $key,
            group: counter_table!(@opt $($group)?),
            total: counter_table!(@opt $($total)?),
            prom: $prom,
            help: $help,
            kind: Kind::$kind,
            shape: Shape::$shape,
            cells: |s| Cells::cells(&s.$field),
            cells_mut: |s, n| Cells::cells_mut(&mut s.$field, n),
        },)*];
    };
    (@opt) => { None };
    (@opt $v:literal) => { Some($v) };
}

counter_table! {
    /// Monotonic event counters a worker publishes each sweep. Every
    /// field only ever increases, so sampler deltas telescope: the sum
    /// of all interval deltas equals the final cumulative value exactly.
    #[derive(Debug, Clone, Default, PartialEq, Serialize)]
    pub struct ShardCounters in WORKER {
        sweeps: u64 => Scalar Counter "sweeps",
            "falcon_worker_sweeps_total",
            "Worker loop iterations that found work.";
        processed_per_stage: Vec<u64> => PerStage Counter "processed_per_stage",
            "falcon_worker_processed_total",
            "Stage executions, per pipeline stage.";
        delivered: u64 => Scalar Counter "delivered",
            "falcon_worker_delivered_total",
            "Packets delivered to the app endpoint.";
        bytes_delivered: u64 => Scalar Counter "bytes_delivered",
            "falcon_worker_bytes_delivered_total",
            "Application payload bytes delivered (wire mode).";
        drops: Vec<u64> => PerReason Counter "drops",
            "falcon_worker_drops_total",
            "Packets dropped, by reason.";
        malformed_per_stage: Vec<u64> => PerStage Counter "malformed_per_stage",
            "falcon_worker_malformed_total",
            "Frames rejected by byte-level verification, per stage.";
        bytes_per_stage: Vec<u64> => PerStage Counter "bytes_per_stage",
            "falcon_worker_stage_bytes_total",
            "Wire bytes touched per stage (wire mode).";
        decisions: u64 => Scalar Counter "decisions",
            "falcon_worker_steer_decisions_total",
            "Steering decisions taken.";
        second_choices: u64 => Scalar Counter "second_choices",
            "falcon_worker_steer_second_choices_total",
            "Two-choice rehash wins.";
        migrations: u64 => Scalar Counter "migrations",
            "falcon_worker_migrations_total",
            "(flow, stage) migrations caused by this worker's decisions.";
        flow_cache_hits: u64 => Scalar Counter "hits" in "flow_cache",
            "falcon_worker_flow_cache_hits_total",
            "Flow-verdict cache consults that returned a fresh verdict.";
        flow_cache_misses: u64 => Scalar Counter "misses" in "flow_cache",
            "falcon_worker_flow_cache_misses_total",
            "Flow-verdict cache consults that took the slow path (stale finds included).";
        flow_cache_evictions: u64 => Scalar Counter "evictions" in "flow_cache",
            "falcon_worker_flow_cache_evictions_total",
            "Flow-verdict cache entries replaced to make room.";
        flow_cache_invalidations: u64 => Scalar Counter "invalidations" in "flow_cache",
            "falcon_worker_flow_cache_invalidations_total",
            "Flow-verdict cache entries dropped by FDB epoch bumps.";
        conntrack_updates: u64 => Scalar Counter "updates" in "conntrack",
            "falcon_worker_conntrack_updates_total",
            "Conntrack observations absorbed by this worker's SCR shard.";
        conntrack_transitions: u64 => Scalar Counter "transitions" in "conntrack",
            "falcon_worker_conntrack_transitions_total",
            "Conntrack observations that moved a connection's state machine.";
        scr_delta_records: u64 => Scalar Counter "scr_delta_records" in "conntrack",
            "falcon_worker_scr_delta_records_total",
            "Compact state-delta records appended for the SCR merge.";
        spin_ns_per_stage: Vec<u64> => PerStage Counter "spin_ns_per_stage",
            "falcon_worker_stage_spin_ns_total",
            "Ns spun after the byte work to fill the modeled stage budget, per stage.";
    }
}

counter_table! {
    /// One snapshot of the rx-thread counters (cumulative since rx start).
    #[derive(Debug, Clone, Default, PartialEq, Eq)]
    pub struct RxSample in RX {
        datagrams: u64 => Scalar Counter "datagrams",
            "falcon_rx_datagrams_total",
            "Datagrams read off the ingest socket.";
        batches: u64 => Scalar Counter "batches",
            "falcon_rx_batches_total",
            "Batched reads that returned at least one datagram.";
        eagain_spins: u64 => Scalar Counter "eagain_spins",
            "falcon_rx_eagain_spins_total",
            "Empty reads (EAGAIN) the rx thread spun through.";
        runts: u64 => Scalar Counter "runts",
            "falcon_rx_runts_total",
            "Datagrams rejected at the rx boundary as too short.";
        sock_drops: u64 => Scalar Gauge "sock_drops_total",
            "falcon_rx_sock_drops",
            "Kernel receive-queue overflow estimate (SO_RXQ_OVFL).";
    }
}

counter_table! {
    SlabSample in SLAB {
        leases: u64 => Scalar Counter "leases",
            "falcon_slab_leases_total",
            "Segments leased from a slab-pool freelist.";
        recycles: u64 => Scalar Counter "recycles",
            "falcon_slab_recycles_total",
            "Slots drained from the return rings back into a freelist.";
        returns: u64 => Scalar Counter "returns",
            "falcon_slab_returns_total",
            "Cross-thread pushes into the slab return rings.";
        fallbacks: u64 => Scalar Counter "fallbacks" + "fallbacks_total",
            "falcon_slab_fallbacks_total",
            "Heap-fallback segments handed out because the pool was dry.";
        ring_drops: u64 => Scalar Counter "ring_drops",
            "falcon_slab_ring_drops_total",
            "Returns lost to a full return ring (buffer freed).";
        gen_errors: u64 => Scalar Counter "gen_errors",
            "falcon_slab_gen_errors_total",
            "Returned slots discarded on a generation-tag mismatch.";
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::WorkerSample;
    use crate::{jsonl, prom};
    use std::collections::BTreeSet;

    /// Checks one table: its Prometheus names are new to `prom`, only
    /// counters end in `_total`, and its JSONL keys are unique per group.
    fn check_rows<T>(table: &[Row<T>], prom: &mut BTreeSet<&'static str>) {
        let mut keys = BTreeSet::new();
        for r in table {
            assert!(prom.insert(r.prom), "{} exported twice", r.prom);
            let counter = r.kind == Kind::Counter;
            assert_eq!(r.prom.ends_with("_total"), counter, "{}", r.prom);
            assert!(keys.insert((r.group, r.key)), "{} repeated", r.key);
            if let Some(total) = r.total {
                assert!(keys.insert((None, total)), "{total} twice");
            }
        }
    }

    #[test]
    fn table_names_are_unique_and_well_formed() {
        let mut prom = BTreeSet::new();
        check_rows(WORKER, &mut prom);
        check_rows(RX, &mut prom);
        check_rows(SLAB, &mut prom);
    }

    /// Worker `w`'s cumulative sample: every cell distinct and nonzero,
    /// and `prev` distinct from the current snapshot. Histograms hold
    /// samples whose mean × count is exact.
    fn worker(w: u64, cur: bool) -> WorkerSample {
        let mut s = WorkerSample::zeroed(5, DropReason::ALL.len());
        for (i, row) in WORKER.iter().enumerate() {
            for (j, x) in (row.cells_mut)(&mut s.counters, 0).iter_mut().enumerate() {
                let (i, j) = (i as u64, j as u64);
                let v = 1000 * (w + 1) + 10 * i + j + 1;
                let back = (5 * i + j + 1) * (w + 2);
                *x = if cur { v } else { v - back };
            }
        }
        let k = if cur { 0 } else { 11 * (w + 1) };
        s.stall.busy_ns = 7000 + w - k;
        s.stall.stall_push_ns = 7100 + w - 2 * k;
        s.stall.stall_pop_ns = 7200 + w - 3 * k;
        s.stall.guard_wait_ns = 7300 + w - 4 * k;
        s.stall.idle_ns = 7400 + w - 5 * k;
        s.stall.wall_ns = 40_000 + w - 6 * k;
        s.ring_depth = 31 + w + k;
        s.depth_staleness = 64 + w + k;
        for (i, h) in s.stage_service_ns.iter_mut().enumerate() {
            let a = 100 * (i as u64 + 1) + 10 * w;
            h.record_n(a, 2);
            if cur {
                h.record_n(a + 200, 2);
            }
        }
        s
    }

    /// A sample of a scalar table holding `values` in row order.
    fn scalars<T: Default>(table: &[Row<T>], values: &[u64]) -> T {
        assert_eq!(table.len(), values.len());
        let mut s = T::default();
        for (row, &v) in table.iter().zip(values) {
            (row.cells_mut)(&mut s, 0)[0] = v;
        }
        s
    }

    /// A Prometheus body as a set of families: each family's `# HELP`
    /// and `# TYPE` lines with its sorted series lines.
    fn families(text: &str) -> BTreeSet<Vec<String>> {
        let mut out = BTreeSet::new();
        for block in text.split("# HELP ").filter(|b| !b.is_empty()) {
            let mut lines: Vec<String> = block.lines().map(str::to_string).collect();
            lines[2..].sort();
            assert!(out.insert(lines), "family rendered twice");
        }
        out
    }

    /// Exports of a fixed snapshot pair match what the hand-written
    /// exporters produced before the tables existed: JSONL byte for
    /// byte, Prometheus as a set of families. Worker 1's `migrations`
    /// and the rx `eagain_spins` went backwards, pinning the saturating
    /// delta.
    #[test]
    fn exports_match_golden() {
        let stages = "pnic_alloc pnic_gro outer_stack gro_cell container_stack";
        let stages: Vec<String> = stages.split(' ').map(String::from).collect();
        let cur = vec![worker(0, true), worker(1, true)];
        let mut prev = vec![worker(0, false), worker(1, false)];
        prev[1].counters.migrations = 5000;
        let rx_cur = scalars(RX, &[900, 40, 77, 3, 12]);
        let rx_prev = scalars(RX, &[400, 25, 80, 1, 5]);
        let slab_cur = scalars(SLAB, &[5000, 4800, 9700, 9, 2, 1]);
        let slab_prev = scalars(SLAB, &[3000, 2900, 5900, 4, 1, 0]);

        let t = 123_456;
        let mut lines = jsonl::sample_lines(t, &cur, &prev, &stages);
        lines.push(jsonl::delta_line("rx", t, RX, &rx_cur, &rx_prev));
        lines.push(jsonl::delta_line("slab", t, SLAB, &slab_cur, &slab_prev));
        assert_eq!(
            lines.join("\n") + "\n",
            include_str!("../testdata/exports.jsonl")
        );

        let mut body = prom::render(t, &cur, &stages);
        body.push_str(&prom::render_family(RX, &rx_cur));
        body.push_str(&prom::render_family(SLAB, &slab_cur));
        assert_eq!(
            families(&body),
            families(include_str!("../testdata/exports.prom"))
        );
    }
}
