//! Telemetry conformance: the live sampler must never disagree with
//! the ground truth the executor reports at the end of the run.
//!
//! Three books have to balance. (1) *Stall attribution*: the chained
//! timestamp in the worker loop charges every nanosecond of wall-clock
//! to exactly one of {busy, push-stall, pop-stall, guard-wait, idle},
//! so per worker the five buckets sum to the loop's wall time — the
//! paper-style "where did the cycles go" evidence is exhaustive, not
//! sampled. (2) *Counter conservation*: summing the sampler's
//! per-interval deltas telescopes to the final cumulative shard, which
//! in turn equals the executor's own [`WorkerStats`] — including drops
//! and per-stage malformed counts with a chaos corruptor flipping bits
//! on the wire. (3) *Exporter fidelity*: the JSONL stream is
//! well-formed line-delimited JSON whose deltas re-add to the final
//! totals, and the Prometheus endpoint serves parseable exposition
//! whose gauges match a live snapshot.
//!
//! [`WorkerStats`]: falcon_dataplane::WorkerStats

use falcon_dataplane::{run_scenario, PolicyKind, Scenario, TelemetrySpec};
use falcon_telemetry::ShardCounters;
use falcon_trace::DropReason;

/// A telemetry-enabled scenario sized for invariant checking: enough
/// packets that the sampler ticks several times at a 1 ms interval,
/// small enough to stay test-quick.
fn telem_scenario(policy: PolicyKind, workers: usize, wire: bool) -> Scenario {
    Scenario {
        policy,
        workers,
        flows: 3,
        packets: 8_000,
        payload: 256,
        work_scale_milli: 100,
        inject_gap_ns: 0,
        pin: false,
        oversubscribe: true,
        wire,
        telemetry: Some(TelemetrySpec {
            interval_ms: 1,
            ..TelemetrySpec::default()
        }),
        ..Scenario::default()
    }
}

/// ISSUE acceptance: per worker, busy + push + pop + guard + idle
/// must cover ≥ 95 % of loop wall-clock. The chained-timestamp design
/// actually closes the books *exactly*, which this asserts too.
#[test]
fn stall_attribution_closes_for_both_policies() {
    for policy in [PolicyKind::Vanilla, PolicyKind::Falcon] {
        for wire in [false, true] {
            let out = run_scenario(&telem_scenario(policy, 2, wire));
            for (w, stats) in out.workers_stats.iter().enumerate() {
                let st = &stats.stall;
                assert!(st.wall_ns > 0, "{policy:?} wire={wire} worker {w} ran");
                assert_eq!(
                    st.attributed_ns(),
                    st.wall_ns,
                    "{policy:?} wire={wire} worker {w}: buckets must sum to wall-clock"
                );
                assert!(
                    st.coverage() >= 0.95,
                    "{policy:?} wire={wire} worker {w}: coverage {}",
                    st.coverage()
                );
            }
        }
    }
}

/// Summing the sampler's interval deltas reproduces the executor's
/// final per-worker counters exactly — nothing double-counted, nothing
/// lost between snapshots, and the final snapshot (taken after the
/// workers joined) *is* the final stats.
#[test]
fn sampler_deltas_conserve_final_stats() {
    let out = run_scenario(&telem_scenario(PolicyKind::Falcon, 2, true));
    let run = out.telemetry.as_ref().expect("telemetry enabled");
    assert!(run.samples.len() >= 2, "sampler ticked during the run");
    let last = run.samples.last().unwrap();
    for (w, stats) in out.workers_stats.iter().enumerate() {
        // Telescoping sum of deltas == cumulative final shard.
        let n_stages = stats.processed.len();
        let mut total = ShardCounters::zeroed(n_stages, DropReason::ALL.len());
        let mut prev = ShardCounters::zeroed(n_stages, DropReason::ALL.len());
        for s in &run.samples {
            total.accumulate(&s.workers[w].counters.delta_since(&prev));
            prev = s.workers[w].counters.clone();
        }
        assert_eq!(total, last.workers[w].counters, "worker {w} telescopes");
        // Final shard == executor ground truth.
        let c = &last.workers[w].counters;
        assert_eq!(c.delivered, stats.delivered, "worker {w} delivered");
        assert_eq!(c.sweeps, stats.sweeps, "worker {w} sweeps");
        assert_eq!(c.processed_per_stage, stats.processed, "worker {w}");
        assert_eq!(c.drops.as_slice(), &stats.drops[..], "worker {w} drops");
        assert_eq!(c.bytes_delivered, stats.bytes_delivered, "worker {w}");
        assert_eq!(c.bytes_per_stage, stats.bytes_per_stage, "worker {w}");
        assert_eq!(c.decisions, stats.decisions, "worker {w} decisions");
        assert_eq!(c.migrations, stats.migrations, "worker {w} migrations");
    }
    // Run-level conservation: the shards' delivered/drops explain every
    // injected packet, same as the executor's own books.
    let delivered: u64 = last.workers.iter().map(|s| s.counters.delivered).sum();
    let dropped: u64 = last
        .workers
        .iter()
        .map(|s| s.counters.drops.iter().sum::<u64>())
        .sum();
    assert_eq!(delivered + dropped + out.inject_drops, out.injected);
}

/// Conservation holds under adversarial corruption: every malformed
/// frame the stages caught shows up in the shards, per stage, exactly
/// as the executor counted it.
#[test]
fn sampler_conserves_malformed_drops_under_corruption() {
    let mut s = telem_scenario(PolicyKind::Falcon, 2, true);
    s.corrupt_per_million = 60_000; // ~6 % of segments take a bit flip
    s.wire_seed = 7;
    let out = run_scenario(&s);
    let run = out.telemetry.as_ref().expect("telemetry enabled");
    let last = run.samples.last().unwrap();
    let mut total_malformed = 0u64;
    for (w, stats) in out.workers_stats.iter().enumerate() {
        let c = &last.workers[w].counters;
        assert_eq!(
            c.malformed_per_stage, stats.malformed_per_stage,
            "worker {w} malformed-per-stage"
        );
        assert_eq!(c.drops.as_slice(), &stats.drops[..], "worker {w} drops");
        total_malformed += stats.malformed_per_stage.iter().sum::<u64>();
    }
    assert!(total_malformed > 0, "corruptor actually corrupted");
    // Books still close with the corruptor on.
    assert_eq!(out.delivered() + out.dropped(), out.injected);
}

/// The JSONL artifact is tail-able line-delimited JSON: a header line
/// carrying the RunMeta provenance stamp, then one delta line per
/// (tick, worker) whose delivered counts re-add to the final total.
#[test]
fn jsonl_stream_is_well_formed_and_conserves() {
    let dir = std::env::temp_dir().join("falcon-telemetry-conformance");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("stream-{}.jsonl", std::process::id()));
    let mut s = telem_scenario(PolicyKind::Falcon, 2, true);
    s.telemetry = Some(TelemetrySpec {
        interval_ms: 1,
        jsonl_path: Some(path.to_string_lossy().into_owned()),
        prom_addr: None,
        prom_addr_tx: None,
    });
    let out = run_scenario(&s);
    let run = out.telemetry.as_ref().expect("telemetry enabled");
    assert!(run.jsonl_error.is_none(), "{:?}", run.jsonl_error);

    let text = std::fs::read_to_string(&path).unwrap();
    let mut lines = text.lines();
    let header = serde_json::from_str(lines.next().expect("header line")).expect("header parses");
    assert_eq!(
        header.get("kind").and_then(serde::Value::as_str),
        Some("header")
    );
    let meta = header.get("meta").expect("meta stamped");
    assert_eq!(
        meta.get("schema_version").and_then(serde::Value::as_u64),
        Some(1)
    );
    assert!(meta
        .get("hostname")
        .and_then(serde::Value::as_str)
        .is_some());
    assert!(meta
        .get("created_utc")
        .and_then(serde::Value::as_str)
        .is_some());
    assert_eq!(
        header.get("workers").and_then(serde::Value::as_u64),
        Some(out.workers as u64)
    );
    let stages = header
        .get("stages")
        .and_then(serde::Value::as_array)
        .unwrap();
    assert_eq!(stages.len(), out.workers_stats[0].processed.len());

    let mut data_lines = 0u64;
    let mut delivered_from_deltas = 0u64;
    let mut last_t = 0u64;
    for line in lines {
        let v: serde::Value = serde_json::from_str(line).expect("sample line parses");
        let kind = v.get("kind").and_then(serde::Value::as_str);
        if kind == Some("slab") {
            // Wire runs interleave the slab pool's delta stream; it
            // shares the tick timestamps but not the worker schema.
            let t = v.get("t_ns").and_then(serde::Value::as_u64).unwrap();
            assert!(t >= last_t, "timestamps monotone");
            last_t = t.max(last_t);
            data_lines += 1;
            continue;
        }
        assert_eq!(kind, Some("sample"));
        let worker = v.get("worker").and_then(serde::Value::as_u64).unwrap();
        assert!(worker < out.workers as u64);
        let t = v.get("t_ns").and_then(serde::Value::as_u64).unwrap();
        assert!(t >= last_t, "timestamps monotone");
        last_t = t.max(last_t);
        delivered_from_deltas += v.get("delivered").and_then(serde::Value::as_u64).unwrap();
        data_lines += 1;
    }
    assert_eq!(data_lines, run.jsonl_lines, "every write accounted");
    assert!(data_lines > 0, "stream is non-empty");
    assert_eq!(
        delivered_from_deltas,
        out.delivered(),
        "JSONL deltas re-add to the run's delivered total"
    );
    std::fs::remove_file(&path).ok();
}

/// A live scrape during the run returns parseable Prometheus text
/// exposition (no curl needed: [`falcon_telemetry::scrape`] is a
/// plain-TCP test client), and the listener's scrape count lands in
/// the run summary. The listener binds port 0 and reports its actual
/// address through `prom_addr_tx` — no probe-bind/release race: the
/// address that arrives on the channel is, by construction, a port the
/// listener owns right now.
#[test]
fn prometheus_endpoint_serves_parseable_exposition() {
    let (addr_tx, addr_rx) = std::sync::mpsc::channel();
    let mut s = telem_scenario(PolicyKind::Falcon, 2, true);
    s.packets = 40_000; // long enough to scrape mid-flight
    s.telemetry = Some(TelemetrySpec {
        interval_ms: 1,
        jsonl_path: None,
        prom_addr: Some("127.0.0.1:0".to_string()),
        prom_addr_tx: Some(addr_tx),
    });
    let runner = std::thread::spawn(move || run_scenario(&s));
    let addr = addr_rx
        .recv_timeout(std::time::Duration::from_secs(30))
        .expect("bound address arrives while the run is in flight");
    assert_ne!(addr.port(), 0, "ephemeral bind resolved to a real port");
    // The listener owns the port already — a connect cannot race the
    // bind — and the sampler publishes a zeroed exposition before the
    // address is sent, so one scrape must parse even ahead of the
    // first tick.
    let body = falcon_telemetry::scrape(&addr).expect("scraped while the run was live");
    let out = runner.join().expect("run completes");
    let metrics = falcon_telemetry::parse_exposition(&body);
    assert!(!metrics.is_empty(), "exposition parses into samples");
    for name in [
        "falcon_worker_delivered_total",
        "falcon_worker_stall_ns_total",
        "falcon_worker_ring_depth",
    ] {
        assert!(
            metrics.iter().any(|m| m.name == name),
            "metric {name} missing from exposition:\n{body}"
        );
    }
    // Every worker is labeled.
    for w in 0..out.workers {
        assert!(metrics
            .iter()
            .any(|m| m.label("worker") == Some(&w.to_string())));
    }
    let run = out.telemetry.as_ref().expect("telemetry enabled");
    assert!(run.scrapes >= 1, "listener counted our scrape");
    assert_eq!(
        run.prom_addr.as_deref(),
        Some(addr.to_string().as_str()),
        "summary reports the same bound address the channel delivered"
    );
}
