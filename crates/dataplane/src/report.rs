//! Machine-readable run reports.
//!
//! A [`DataplaneReport`] condenses one [`RunOutput`] into the numbers
//! the paper's evaluation cares about — throughput, one-way latency
//! distribution, per-stage/per-worker occupancy, steering behavior, and
//! the ordering audit. The live-socket ingest comparison embeds one per
//! leg (`BENCH_ingest.json`), and the conformance suites read it. The
//! [`ConntrackOracle`] is the SCR pass/fail line the `falcon-benchmark`
//! package checks on every drop-free round; that package, not this
//! module, produces the dataplane's performance numbers.

use std::collections::BTreeMap;

use falcon_conntrack::ConnSummary;
use falcon_telemetry::StallBreakdown;
use serde::Serialize;

use crate::RunOutput;

/// Summary statistics over one-way delivery latencies.
#[derive(Debug, Clone, Serialize)]
pub struct LatencySummary {
    /// Arithmetic mean, ns.
    pub mean_ns: u64,
    /// Median, ns.
    pub p50_ns: u64,
    /// 99th percentile, ns.
    pub p99_ns: u64,
    /// Worst observed, ns.
    pub max_ns: u64,
}

impl LatencySummary {
    /// Computes the summary; all zeros when nothing was delivered.
    pub fn from_samples(samples: &mut [u64]) -> Self {
        if samples.is_empty() {
            return LatencySummary {
                mean_ns: 0,
                p50_ns: 0,
                p99_ns: 0,
                max_ns: 0,
            };
        }
        samples.sort_unstable();
        let sum: u128 = samples.iter().map(|&v| v as u128).sum();
        LatencySummary {
            mean_ns: (sum / samples.len() as u128) as u64,
            p50_ns: percentile(samples, 50.0),
            p99_ns: percentile(samples, 99.0),
            max_ns: *samples.last().expect("non-empty"),
        }
    }
}

/// Nearest-rank percentile over a sorted slice.
fn percentile(sorted: &[u64], p: f64) -> u64 {
    debug_assert!(!sorted.is_empty());
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// One run, condensed for JSON output.
#[derive(Debug, Clone, Serialize)]
pub struct DataplaneReport {
    /// Steering policy ("vanilla" or "falcon").
    pub policy: String,
    /// Pipeline stages this run executed (4, or 5 with `split_gro`).
    /// Conservation checkers must use this — never a hardcoded 4 — to
    /// assert `executions == packets × stages` on fully-delivered runs.
    pub stages: usize,
    /// Whether the pNIC stage ran split into its alloc/GRO halves.
    pub split_gro: bool,
    /// Worker threads actually used.
    pub workers: usize,
    /// Logical cores on the host.
    pub host_cores: usize,
    /// Whether every worker's core pin succeeded.
    pub pinned: bool,
    /// Packets injected.
    pub injected: u64,
    /// Packets delivered end-to-end.
    pub delivered: u64,
    /// Packets dropped anywhere.
    pub dropped: u64,
    /// Drops keyed by reason label.
    pub drops_by_reason: BTreeMap<String, u64>,
    /// Wall-clock duration of the run, ns.
    pub wall_ns: u64,
    /// Delivered packets per second of wall time.
    pub throughput_pps: f64,
    /// One-way latency distribution.
    pub latency: LatencySummary,
    /// Modeled per-stage service cost, ns, keyed by stage label.
    pub stage_service_ns: BTreeMap<String, u64>,
    /// Stage executions keyed by stage label.
    pub processed_per_stage: BTreeMap<String, u64>,
    /// Stage executions per worker per stage (`[worker][stage]`) — the
    /// placement picture that shows the split halves landing on
    /// distinct cores.
    pub per_worker_stage_processed: Vec<Vec<u64>>,
    /// Total stage executions per worker (the load-spread picture).
    pub per_worker_processed: Vec<u64>,
    /// Busy-spun ns per worker.
    pub per_worker_busy_ns: Vec<u64>,
    /// Steering decisions taken at the B→C and C→D hops.
    pub steer_decisions: u64,
    /// Decisions that engaged the two-choice rehash.
    pub second_choices: u64,
    /// (flow, device) migrations the flow table allowed.
    pub migrations: u64,
    /// (flow, device) pairs tracked.
    pub flow_pairs: usize,
    /// Ordering-audit checks performed.
    pub order_checks: u64,
    /// Ordering-audit violations (must be 0).
    pub reorder_violations: u64,
    /// Whether the run carried real bytes through the stages.
    pub wire: bool,
    /// Wire mode: wire bytes the injector enqueued (headers +
    /// envelopes + payload; 0 outside wire mode).
    pub bytes_in: u64,
    /// Wire mode: application payload bytes delivered to containers.
    pub bytes_out: u64,
    /// Wire mode: delivered-payload goodput, Gbit/s of wall time.
    pub goodput_gbps: f64,
    /// Wire mode: segments the chaos corruptor bit-flipped.
    pub corrupted_segments: u64,
    /// Wire mode: malformed-frame drops keyed by the label of the
    /// stage whose verification caught them.
    pub malformed_per_stage: BTreeMap<String, u64>,
    /// Wire mode: bytes each stage touched, keyed by stage label
    /// (on-wire size until decap, inner-frame size after).
    pub bytes_per_stage: BTreeMap<String, u64>,
    /// Flow-verdict cache counters plus the derived hit rate, when the
    /// run consulted a cache (`None` on uncached runs).
    pub flow_cache: Option<FlowCacheReport>,
    /// The run's final conntrack table (per-worker SCR shards merged)
    /// plus the shard counters (`None` outside wire mode).
    pub conntrack: Option<ConntrackReport>,
    /// Slab buffer-pool counters, when the run built its frames in a
    /// pool (`None` outside wire mode).
    pub slab: Option<SlabReport>,
    /// Per-worker stall attribution: where each worker's wall-clock
    /// went (busy / push-stalled / pop-sweeping / guard-steering /
    /// idle), summing to that worker's `wall_ns` by construction.
    pub per_worker_stall: Vec<StallBreakdown>,
    /// Smallest per-worker stall coverage (attributed / wall); the
    /// conformance bar is ≥ 0.95, the construction gives 1.0.
    pub stall_coverage_min: f64,
    /// Live-telemetry summary, when the run sampled shards.
    pub telemetry: Option<TelemetrySummary>,
}

/// Slab buffer-pool counters for one wire run: the numbers the
/// zero-alloc claim rides on. `fallbacks` is the honesty counter — a
/// steady-state run sized correctly reports 0.
#[derive(Debug, Clone, Serialize)]
pub struct SlabReport {
    /// Segments leased from the pool freelists.
    pub leases: u64,
    /// Heap-fallback segments handed out because a class was dry.
    pub fallbacks: u64,
    /// Returned slots restored onto a freelist.
    pub recycles: u64,
    /// Ring pushes from consumers (shells + segments).
    pub returns: u64,
    /// Returns dropped because a ring was full (buffer freed instead).
    pub ring_drops: u64,
    /// Returns rejected by the generation check (must be 0).
    pub gen_errors: u64,
    /// Buffers the workers recycled at delivery/drop sites.
    pub worker_recycles: u64,
}

/// Bridge-stage conntrack state for one run: the merged table's
/// per-state summary plus the SCR shard counters summed across
/// workers.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct ConntrackReport {
    /// Per-state entry counts and packet/byte totals of the final
    /// merged table.
    pub summary: ConnSummary,
    /// Observations absorbed by the workers' shards.
    pub updates: u64,
    /// Observations that moved a connection's state machine.
    pub transitions: u64,
    /// State-delta records the workers appended for the SCR merge.
    pub scr_delta_records: u64,
}

/// The SCR differential oracle for a replicate run: the replicated
/// run's merged conntrack table must be *byte-identical* to
/// the serialized ground truth's, and the delivery multiset (flow, seq,
/// digest, sorted) must match exactly. This is the relaxed SCR
/// contract's pass/fail line — order may differ, state and data may
/// not.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct ConntrackOracle {
    /// Merged-table equality (serialized ground truth vs replicated).
    pub tables_equal: bool,
    /// Sorted delivery-multiset equality.
    pub deliveries_equal: bool,
    /// Connections in the ground-truth table.
    pub entries: u64,
    /// Packets the ground-truth table absorbed.
    pub pkts: u64,
}

impl ConntrackOracle {
    /// Compares a serialized ground-truth run against a replicated run
    /// of the same scenario.
    pub fn new(ground: &RunOutput, replicated: &RunOutput) -> Self {
        let gt = ground.conntrack_table().unwrap_or_default();
        let rt = replicated.conntrack_table().unwrap_or_default();
        let mut gd = ground.deliveries();
        let mut rd = replicated.deliveries();
        gd.sort_unstable();
        rd.sort_unstable();
        ConntrackOracle {
            tables_equal: gt == rt,
            deliveries_equal: gd == rd,
            entries: gt.len() as u64,
            pkts: gt.summary().pkts,
        }
    }

    /// Whether both halves of the contract held.
    pub fn holds(&self) -> bool {
        self.tables_equal && self.deliveries_equal
    }
}

/// Flow-verdict cache counters for one run, summed across the workers'
/// private caches, with the derived hit rate.
#[derive(Debug, Clone, Serialize)]
pub struct FlowCacheReport {
    /// Consults that returned a fresh same-epoch verdict.
    pub hits: u64,
    /// Consults that took the verifying slow path (stale finds
    /// included — the caller pays the slow path either way).
    pub misses: u64,
    /// Entries replaced to make room for new flows.
    pub evictions: u64,
    /// Entries dropped because an FDB epoch bump outdated them.
    pub invalidations: u64,
    /// `hits / (hits + misses)`.
    pub hit_rate: f64,
}

/// What the telemetry sampler did during one run, condensed for the
/// report (the full time series streams to the run's JSONL file).
#[derive(Debug, Clone, Serialize)]
pub struct TelemetrySummary {
    /// Sampling interval actually used, ms.
    pub interval_ms: u64,
    /// Snapshots taken (the last one post-quiescence).
    pub samples: u64,
    /// JSONL artifact path, if streaming was on.
    pub jsonl_path: Option<String>,
    /// Data lines written to the JSONL artifact.
    pub jsonl_lines: u64,
    /// First JSONL I/O error, if any.
    pub jsonl_error: Option<String>,
    /// Bound Prometheus exposition address, if serving was on.
    pub prom_addr: Option<String>,
    /// Scrapes the exposition listener answered.
    pub scrapes: u64,
    /// Largest depth-gauge staleness any worker observed (bounded by
    /// one NAPI budget; see `DepthGauge`).
    pub max_depth_staleness: u64,
}

impl DataplaneReport {
    /// Condenses a finished run.
    pub fn from_run(out: &RunOutput) -> Self {
        let labels = out.stage_labels();
        let delivered = out.delivered();
        let dropped = out.dropped();
        let mut latencies: Vec<u64> = out
            .workers_stats
            .iter()
            .flat_map(|w| w.latencies.iter().copied())
            .collect();
        let per_stage = out.processed_per_stage();
        let (order_checks, reorder_violations) = out.order_audit();
        let throughput_pps = if out.wall_ns > 0 {
            delivered as f64 * 1e9 / out.wall_ns as f64
        } else {
            0.0
        };
        let bytes_out = out.bytes_delivered();
        let goodput_gbps = if out.wall_ns > 0 {
            bytes_out as f64 * 8.0 / out.wall_ns as f64
        } else {
            0.0
        };
        DataplaneReport {
            policy: out.policy.label().to_string(),
            stages: out.stages(),
            split_gro: out.split_gro,
            workers: out.workers,
            host_cores: out.host_cores,
            pinned: !out.workers_stats.is_empty() && out.workers_stats.iter().all(|w| w.pinned),
            injected: out.injected,
            delivered,
            dropped,
            drops_by_reason: falcon_trace::DropReason::ALL
                .iter()
                .zip(out.drops_by_reason().iter())
                .map(|(r, &n)| (r.label().to_string(), n))
                .collect(),
            wall_ns: out.wall_ns,
            throughput_pps,
            latency: LatencySummary::from_samples(&mut latencies),
            stage_service_ns: labels
                .iter()
                .zip(out.stage_ns.iter())
                .map(|(l, &ns)| (l.to_string(), ns))
                .collect(),
            processed_per_stage: labels
                .iter()
                .zip(per_stage.iter())
                .map(|(l, &n)| (l.to_string(), n))
                .collect(),
            per_worker_stage_processed: out
                .workers_stats
                .iter()
                .map(|w| w.processed.clone())
                .collect(),
            per_worker_processed: out
                .workers_stats
                .iter()
                .map(|w| w.processed.iter().sum())
                .collect(),
            per_worker_busy_ns: out.workers_stats.iter().map(|w| w.busy_ns).collect(),
            steer_decisions: out.workers_stats.iter().map(|w| w.decisions).sum(),
            second_choices: out.workers_stats.iter().map(|w| w.second_choices).sum(),
            migrations: out.workers_stats.iter().map(|w| w.migrations).sum(),
            flow_pairs: out.flow_pairs,
            order_checks,
            reorder_violations,
            wire: out.wire,
            bytes_in: out.bytes_injected,
            bytes_out,
            goodput_gbps,
            corrupted_segments: out.corrupted_segments,
            malformed_per_stage: labels
                .iter()
                .zip(out.malformed_per_stage().iter())
                .map(|(l, &n)| (l.to_string(), n))
                .collect(),
            bytes_per_stage: labels
                .iter()
                .zip(out.bytes_per_stage().iter())
                .map(|(l, &n)| (l.to_string(), n))
                .collect(),
            flow_cache: {
                let s = out.flow_cache_stats();
                let consults = s.hits + s.misses;
                (consults > 0).then(|| FlowCacheReport {
                    hits: s.hits,
                    misses: s.misses,
                    evictions: s.evictions,
                    invalidations: s.invalidations,
                    hit_rate: s.hits as f64 / consults as f64,
                })
            },
            conntrack: out.conntrack_table().map(|t| {
                let c = out.conntrack_counters();
                ConntrackReport {
                    summary: t.summary(),
                    updates: c.updates,
                    transitions: c.transitions,
                    scr_delta_records: c.delta_records,
                }
            }),
            slab: out.slab.as_ref().map(|s| SlabReport {
                leases: s.leases,
                fallbacks: s.fallbacks,
                recycles: s.recycles,
                returns: s.returns,
                ring_drops: s.ring_drops,
                gen_errors: s.gen_errors,
                worker_recycles: out.workers_stats.iter().map(|w| w.slab_recycles).sum(),
            }),
            per_worker_stall: out.workers_stats.iter().map(|w| w.stall.clone()).collect(),
            stall_coverage_min: out
                .workers_stats
                .iter()
                .map(|w| w.stall.coverage())
                .fold(1.0f64, f64::min),
            telemetry: out.telemetry.as_ref().map(|run| TelemetrySummary {
                interval_ms: run.interval_ms,
                samples: run.samples.len() as u64,
                jsonl_path: run.jsonl_path.clone(),
                jsonl_lines: run.jsonl_lines,
                jsonl_error: run.jsonl_error.clone(),
                prom_addr: run.prom_addr.clone(),
                scrapes: run.scrapes,
                max_depth_staleness: run
                    .samples
                    .last()
                    .map(|s| {
                        s.workers
                            .iter()
                            .map(|w| w.depth_staleness)
                            .max()
                            .unwrap_or(0)
                    })
                    .unwrap_or(0),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::{run_scenario, Scenario, TelemetrySpec};
    use crate::steer::PolicyKind;

    fn tiny(policy: PolicyKind) -> Scenario {
        Scenario {
            policy,
            workers: 2,
            packets: 500,
            flows: 2,
            work_scale_milli: 20,
            pin: false,
            ..Scenario::default()
        }
    }

    #[test]
    fn latency_summary_percentiles() {
        let mut v: Vec<u64> = (1..=100).collect();
        let s = LatencySummary::from_samples(&mut v);
        assert_eq!(s.p50_ns, 50);
        assert_eq!(s.p99_ns, 99);
        assert_eq!(s.max_ns, 100);
        assert_eq!(s.mean_ns, 50);
        let mut empty: Vec<u64> = vec![];
        assert_eq!(LatencySummary::from_samples(&mut empty).max_ns, 0);
    }

    #[test]
    fn report_is_consistent_and_serializes() {
        let out = run_scenario(&tiny(PolicyKind::Falcon));
        let report = DataplaneReport::from_run(&out);
        assert_eq!(report.stages, 4);
        assert_eq!(report.delivered + report.dropped, report.injected);
        assert_eq!(report.reorder_violations, 0);
        assert_eq!(report.per_worker_processed.len(), report.workers);
        let total_drops: u64 = report.drops_by_reason.values().sum();
        assert_eq!(total_drops, report.dropped);
        let json = serde_json::to_string_pretty(&report).expect("serializes");
        assert!(json.contains("\"throughput_pps\""));
        assert!(json.contains("\"falcon\""));
        // The optional sections appear exactly on the runs that feed
        // them: conntrack on wire runs, cache counters on cached runs,
        // the sampler summary on telemetry runs.
        assert!(report.conntrack.is_none());
        assert!(report.telemetry.is_none());
        let mut s = tiny(PolicyKind::Falcon);
        s.wire = true;
        let uncached = DataplaneReport::from_run(&run_scenario(&s));
        assert!(uncached.conntrack.is_some(), "conntrack on wire runs");
        assert!(uncached.flow_cache.is_none());
        s.flow_cache = true;
        s.telemetry = Some(TelemetrySpec {
            interval_ms: 2,
            jsonl_path: None,
            prom_addr: None,
            prom_addr_tx: None,
        });
        let cached = DataplaneReport::from_run(&run_scenario(&s));
        assert!(cached.flow_cache.is_some_and(|f| f.hits + f.misses > 0));
        let t = cached.telemetry.as_ref().expect("telemetry summary");
        assert!(t.samples >= 1);
        assert_eq!(t.interval_ms, 2);
    }

    #[test]
    fn split_report_records_five_stages() {
        let mut s = tiny(PolicyKind::Falcon);
        s.split_gro = true;
        s.shape = crate::executor::TrafficShape::TcpGro { mss: 1448 };
        s.payload = 4096;
        let out = run_scenario(&s);
        let report = DataplaneReport::from_run(&out);
        assert_eq!(report.stages, 5);
        assert!(report.split_gro);
        assert_eq!(report.stage_service_ns.len(), 5);
        assert_eq!(report.processed_per_stage.len(), 5);
        assert!(report.stage_service_ns.contains_key("pnic_alloc"));
        assert!(report.stage_service_ns.contains_key("pnic_gro"));
        // The matrix agrees with the per-stage totals — the
        // stages-aware conservation identity: on a drop-free run every
        // stage executes exactly `packets` times, so total executions
        // equal `packets × stages`.
        for (w, row) in report.per_worker_stage_processed.iter().enumerate() {
            assert_eq!(row.len(), report.stages);
            assert_eq!(
                row.iter().sum::<u64>(),
                report.per_worker_processed[w],
                "worker {w} matrix disagrees with its total"
            );
        }
        if report.dropped == 0 {
            let execs: u64 = report.processed_per_stage.values().sum();
            assert_eq!(execs, report.injected * report.stages as u64);
        }
    }
}
