//! CLI driver for the live-socket ingestion comparison (`--ingest`).
//!
//! `falcon-repro` calls through here: size an
//! [`IngestConfig`] for the requested [`Scale`], run vanilla vs Falcon
//! over real loopback datagrams, and render the result for humans. The
//! JSON artifact (`BENCH_ingest.json`) is the serialized
//! [`IngestComparison`] itself.

use falcon_dataplane::TelemetrySpec;
use falcon_ingest::{run_ingest_comparison, IngestComparison, IngestConfig, IngestSideReport};

use crate::measure::Scale;

/// Sizes a live-ingestion run the way [`crate::dataplane::scenario_for`]
/// sizes a synthetic one: quick is CI-sized, full is a measurement.
/// The stage-cost scale is lowered versus the synthetic runs because
/// the sender and rx thread occupy cores too — at full modeled cost a
/// small host backs the socket up into kernel drops, which is a
/// measurement of the host, not of the steering policy.
pub fn config_for(scale: Scale, workers: usize, flows: u64, rx_batch: usize) -> IngestConfig {
    let base = IngestConfig {
        workers,
        flows: flows.max(1),
        rx_batch,
        ..IngestConfig::default()
    };
    match scale {
        Scale::Quick => IngestConfig {
            packets: 6_000,
            payload: 256,
            work_scale_milli: 100,
            ..base
        },
        Scale::Full => IngestConfig {
            packets: 60_000,
            payload: 256,
            work_scale_milli: 250,
            ..base
        },
    }
}

/// Runs the comparison with optional live telemetry on the Falcon leg.
pub fn run_comparison_with(
    scale: Scale,
    workers: usize,
    flows: u64,
    rx_batch: usize,
    telemetry: Option<TelemetrySpec>,
) -> std::io::Result<IngestComparison> {
    let mut cfg = config_for(scale, workers, flows, rx_batch);
    cfg.telemetry = telemetry;
    run_ingest_comparison(&cfg)
}

fn render_side(label: &str, side: &IngestSideReport) -> String {
    let p = &side.pipeline;
    format!(
        "  {:<8} {:>10.0} pps  {:>6.3} gbps  delivered {:<7} malformed {:<5} \
         socket-loss {:<5} rx {} ({} batches, {} empty polls{})  oracle {}\n",
        label,
        p.throughput_pps,
        p.goodput_gbps,
        p.delivered,
        side.malformed,
        side.socket_loss,
        side.rx_backend,
        side.rx_batches,
        side.rx_eagain_spins,
        match side.rx_sock_drops {
            Some(d) => format!(", {d} kernel drops"),
            None => String::new(),
        },
        if side.oracle_ok { "ok" } else { "FAIL" },
    )
}

/// Human-readable summary, matching the dataplane render style.
pub fn render(cmp: &IngestComparison) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "live ingestion: {} datagrams x {} flows, {}B payload, rx batch {}\n",
        cmp.packets, cmp.flows, cmp.payload, cmp.rx_batch
    ));
    out.push_str(&render_side("vanilla", &cmp.vanilla));
    out.push_str(&render_side("falcon", &cmp.falcon));
    out.push_str(&format!("  speedup  {:>10.2}x\n", cmp.speedup));
    // The rx batch histogram tells whether batching actually engaged:
    // all-ones means the rx thread kept pace syscall-per-datagram.
    let hist = &cmp.falcon.rx_batch_hist;
    let peak = hist
        .iter()
        .enumerate()
        .skip(1)
        .max_by_key(|&(_, c)| *c)
        .map(|(n, _)| n)
        .unwrap_or(0);
    out.push_str(&format!(
        "  falcon rx batch histogram peaks at {} datagram(s)/read\n",
        peak
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_comparison_runs_and_renders() {
        let mut cfg = config_for(Scale::Quick, 2, 4, 16);
        cfg.packets = 2_000;
        cfg.work_scale_milli = 20;
        cfg.oversubscribe = true;
        let cmp = run_ingest_comparison(&cfg).expect("comparison");
        assert!(cmp.vanilla.oracle_ok, "{:?}", cmp.vanilla.oracle_errors);
        assert!(cmp.falcon.oracle_ok, "{:?}", cmp.falcon.oracle_errors);
        assert_eq!(cmp.meta.artifact, "ingest");
        let text = render(&cmp);
        assert!(text.contains("speedup"));
        assert!(text.contains("oracle ok"));
        // The artifact must serialize (it is BENCH_ingest.json).
        let json = serde_json::to_string_pretty(&cmp).expect("serializable");
        assert!(json.contains("\"schema_version\""));
    }
}
