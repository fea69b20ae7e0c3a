//! JSONL time-series exporter: one header line of [`RunMeta`], then
//! one line per (sampling interval, worker) holding the *delta* of
//! every monotonic counter plus instantaneous gauges and interval
//! service-time summaries. Append-only and line-oriented so a run can
//! be tailed while in flight and the artifact survives a crash
//! mid-run.

use falcon_metrics::Histogram;
use serde::{Serialize, Value};

use crate::meta::RunMeta;
use crate::schema::{self, Row, Shape, WORKER};
use crate::shard::WorkerSample;

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn s(v: &str) -> Value {
    Value::Str(v.to_string())
}

fn int(v: u64) -> Value {
    Value::Int(v as i128)
}

/// Interval summary of a service-time histogram (the full bucket array
/// stays out of the artifact on purpose — 3 712 buckets per stage per
/// interval would dwarf the data).
fn hist_summary(stage: &str, h: &Histogram) -> Value {
    obj(vec![
        ("stage", s(stage)),
        ("count", int(h.count())),
        ("mean_ns", Value::Float(h.mean())),
        ("p50_ns", int(h.percentile(50.0))),
        ("p99_ns", int(h.percentile(99.0))),
        ("max_ns", int(h.max())),
    ])
}

/// The artifact's first line: schema + provenance + run shape.
pub fn header_line(meta: &RunMeta, interval_ms: u64, workers: usize, stages: &[String]) -> String {
    let v = obj(vec![
        ("kind", s("header")),
        ("meta", meta.to_value()),
        ("interval_ms", int(interval_ms)),
        ("workers", int(workers as u64)),
        (
            "stages",
            Value::Array(stages.iter().map(|l| s(l)).collect()),
        ),
    ]);
    serde_json::to_string(&v).expect("telemetry header always serializes")
}

/// One line per worker for a sampling tick: counter deltas vs the
/// previous snapshot, gauges as-is, and per-stage interval histograms.
pub fn sample_lines(
    t_ns: u64,
    cur: &[WorkerSample],
    prev: &[WorkerSample],
    stages: &[String],
) -> Vec<String> {
    cur.iter()
        .zip(prev.iter())
        .enumerate()
        .map(|(w, (c, p))| {
            let service = Value::Array(
                c.stage_service_ns
                    .iter()
                    .zip(p.stage_service_ns.iter())
                    .enumerate()
                    .map(|(i, (ch, ph))| {
                        let label = stages.get(i).map(String::as_str).unwrap_or("?");
                        hist_summary(label, &ch.delta_since(ph))
                    })
                    .collect(),
            );
            let mut fields = vec![
                ("kind", s("sample")),
                ("t_ns", int(t_ns)),
                ("worker", int(w as u64)),
            ];
            fields.extend(counter_fields(WORKER, &c.counters, &p.counters));
            fields.extend([
                ("stall", c.stall.delta_since(&p.stall).to_value()),
                ("ring_depth", int(c.ring_depth)),
                ("depth_staleness", int(c.depth_staleness)),
                ("stage_service_ns", service),
            ]);
            serde_json::to_string(&obj(fields)).expect("telemetry sample always serializes")
        })
        .collect()
}

/// One line per sampling tick for a scalar counter family (`kind` is
/// `"rx"` for [`RX`](crate::schema::RX), `"slab"` for
/// [`SLAB`](crate::schema::SLAB)): each counter's delta vs the previous
/// snapshot and each gauge's level, then the cumulative totals.
pub fn delta_line<T: Clone>(kind: &str, t_ns: u64, table: &[Row<T>], cur: &T, prev: &T) -> String {
    let mut fields = vec![("kind", s(kind)), ("t_ns", int(t_ns))];
    fields.extend(counter_fields(table, cur, prev));
    serde_json::to_string(&obj(fields)).expect("telemetry delta line always serializes")
}

/// The JSONL fields of `table` in row order: counter deltas and gauge
/// levels, rows sharing a group nested in one object under its name,
/// then every row's cumulative total.
fn counter_fields<T: Clone>(table: &[Row<T>], cur: &T, prev: &T) -> Vec<(&'static str, Value)> {
    let d = schema::delta(table, cur, prev);
    let mut out: Vec<(&str, Value)> = Vec::new();
    for row in table {
        let cells = row.labelled(&d, &[]);
        let v = match row.shape {
            Shape::Scalar => int(cells[0].1),
            Shape::PerStage => Value::Array(cells.iter().map(|&(_, n)| int(n)).collect()),
            Shape::PerReason => obj(cells.iter().map(|&(l, n)| (l, int(n))).collect()),
        };
        let Some(group) = row.group else {
            out.push((row.key, v));
            continue;
        };
        if out.last().map(|(k, _)| *k) != Some(group) {
            out.push((group, Value::Object(Vec::new())));
        }
        if let Some((_, Value::Object(members))) = out.last_mut() {
            members.push((row.key.to_string(), v));
        }
    }
    for row in table {
        if let Some(total) = row.total {
            out.push((total, int((row.cells)(cur)[0])));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rx::RxSample;
    use crate::schema::{RX, SLAB};

    #[test]
    fn slab_line_is_valid_json_with_deltas() {
        let prev = falcon_packet::SlabSample {
            leases: 100,
            fallbacks: 1,
            recycles: 90,
            returns: 95,
            ring_drops: 0,
            gen_errors: 0,
        };
        let cur = falcon_packet::SlabSample {
            leases: 250,
            fallbacks: 3,
            recycles: 240,
            returns: 245,
            ring_drops: 1,
            gen_errors: 0,
        };
        let line = delta_line("slab", 555, SLAB, &cur, &prev);
        assert!(!line.contains('\n'));
        let v: Value = serde_json::from_str(&line).expect("slab line parses");
        assert_eq!(v.get("kind").and_then(Value::as_str), Some("slab"));
        assert_eq!(v.get("t_ns").and_then(Value::as_u64), Some(555));
        assert_eq!(v.get("leases").and_then(Value::as_u64), Some(150));
        assert_eq!(v.get("recycles").and_then(Value::as_u64), Some(150));
        assert_eq!(v.get("fallbacks").and_then(Value::as_u64), Some(2));
        assert_eq!(v.get("ring_drops").and_then(Value::as_u64), Some(1));
        assert_eq!(v.get("fallbacks_total").and_then(Value::as_u64), Some(3));
    }

    #[test]
    fn rx_line_is_valid_json_with_deltas() {
        let prev = RxSample {
            datagrams: 10,
            batches: 2,
            eagain_spins: 5,
            runts: 0,
            sock_drops: 1,
        };
        let cur = RxSample {
            datagrams: 25,
            batches: 4,
            eagain_spins: 9,
            runts: 1,
            sock_drops: 3,
        };
        let line = delta_line("rx", 777, RX, &cur, &prev);
        assert!(!line.contains('\n'));
        let v: Value = serde_json::from_str(&line).expect("rx line parses");
        assert_eq!(v.get("kind").and_then(Value::as_str), Some("rx"));
        assert_eq!(v.get("t_ns").and_then(Value::as_u64), Some(777));
        assert_eq!(v.get("datagrams").and_then(Value::as_u64), Some(15));
        assert_eq!(v.get("batches").and_then(Value::as_u64), Some(2));
        assert_eq!(v.get("eagain_spins").and_then(Value::as_u64), Some(4));
        assert_eq!(v.get("runts").and_then(Value::as_u64), Some(1));
        assert_eq!(v.get("sock_drops_total").and_then(Value::as_u64), Some(3));
    }

    #[test]
    fn header_and_samples_are_valid_jsonl() {
        let meta = RunMeta::collect("telemetry", 4, 1, "4 cores / 1 package");
        let stages: Vec<String> = ["pnic_poll", "outer_stack"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let head = header_line(&meta, 50, 2, &stages);
        let parsed = serde_json::from_str(&head).expect("header parses");
        assert_eq!(parsed.get("kind").and_then(Value::as_str), Some("header"));
        assert!(parsed.get("meta").is_some());

        let prev = vec![WorkerSample::zeroed(2, 5); 2];
        let mut cur = prev.clone();
        cur[1].counters.sweeps = 4;
        cur[1].counters.delivered = 3;
        cur[1].counters.drops[4] = 1;
        cur[1].stall.busy_ns = 500;
        cur[1].stall.wall_ns = 700;
        cur[1].stage_service_ns[0].record(250);
        let lines = sample_lines(12_345, &cur, &prev, &stages);
        assert_eq!(lines.len(), 2);
        for line in &lines {
            assert!(!line.contains('\n'));
            serde_json::from_str(line).expect("sample line parses");
        }
        let w1 = serde_json::from_str(&lines[1]).unwrap();
        assert_eq!(w1.get("delivered").and_then(Value::as_u64), Some(3));
        assert_eq!(
            w1.get("drops")
                .and_then(|d| d.get("malformed"))
                .and_then(Value::as_u64),
            Some(1)
        );
        let stall = w1.get("stall").expect("stall object");
        assert_eq!(stall.get("busy_ns").and_then(Value::as_u64), Some(500));
    }
}
