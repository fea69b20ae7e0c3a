//! `falcon-telemetry`: always-available, low-overhead live telemetry
//! for the threaded dataplane.
//!
//! The paper's claim is about *where cycles go* — stage serialization,
//! not per-packet cost, caps overlay throughput — and that claim needs
//! continuous occupancy/stall evidence, not just end-of-run totals.
//! This crate provides the measurement substrate:
//!
//! * [`shard`] — each worker owns a cache-padded, seqlock-protected
//!   telemetry shard: monotonic counters, a five-bucket stall
//!   attribution ([`StallBreakdown`]), per-stage service-time
//!   [`falcon_metrics::Histogram`] shards, and depth-gauge gauges.
//!   Publishing is wait-free for the worker; consistency costs fall
//!   on the reader.
//! * [`sample`] — a [`Sampler`] thread snapshots every shard each
//!   `--telemetry-interval-ms` while the run is in flight.
//! * Exporters: [`jsonl`] streams per-interval deltas to a JSONL file
//!   (`falcon-benchmark` writes one per leg); [`prom`] serves Prometheus text
//!   exposition from a tiny TCP listener behind `--prom-addr`;
//!   [`counters`] turns the series into Perfetto counter tracks that
//!   merge into the existing Chrome trace export.
//! * [`meta`] — the [`RunMeta`] provenance header every BENCH
//!   artifact is stamped with.
//! * [`schema`] — the counter tables, the one place a counter's
//!   exported names live: its JSONL key, Prometheus family, help text
//!   and kind. The exporters and the shard's delta helpers loop over
//!   the rows. A new worker counter is one row in [`schema::WORKER`],
//!   plus its field in `falcon-dataplane`'s `WorkerStats` (the
//!   benchmark and the reports read those fields by name) and one copy
//!   line in the executor's telemetry publish.
//!
//! The executor integration (who fills the shards, and what the five
//! stall buckets mean there) lives in `falcon-dataplane`.

pub mod counters;
pub mod jsonl;
pub mod meta;
pub mod prom;
pub mod rx;
pub mod sample;
pub mod schema;
pub mod shard;

pub use counters::counter_tracks;
pub use meta::RunMeta;
pub use prom::{parse_exposition, scrape, PromMetric, PromServer};
pub use rx::{RxCounters, RxSample};
pub use sample::{Hub, Sampler, SamplerConfig, TelemetryRun, TelemetrySample, DEFAULT_INTERVAL_MS};
pub use shard::{shard_pair, Shard, ShardCounters, ShardWriter, StallBreakdown, WorkerSample};

/// Number of drop-reason counter slots shards are shaped for.
pub const N_DROP_REASONS: usize = falcon_trace::DropReason::ALL.len();
