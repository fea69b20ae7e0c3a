//! `falcon-bench`: machine-readable benchmark reports.
//!
//! The criterion benches under `benches/` are for interactive tuning;
//! this binary is for CI and scripts. It runs the representative
//! single-flow UDP simulation under Host / Con / Falcon and emits the
//! summary as JSON. The threaded dataplane is measured by the
//! `falcon-benchmark` package (`benchmark/`); its live-socket ingest
//! run is `falcon-repro --ingest`.
//!
//! ```text
//! falcon-bench --json                          # simulation summary to stdout
//! falcon-bench --out BENCH_simulation.json     # ... to a file
//! falcon-bench --quick                         # CI-sized load
//! ```

use std::process::ExitCode;

use falcon_bench::measure_single_flow_udp;
use falcon_experiments::measure::{RunStats, Scale};
use falcon_experiments::scenario::{Mode, Scenario};
use serde::Serialize;

/// One simulated mode's benchmark summary.
#[derive(Debug, Serialize)]
struct SimBenchEntry {
    /// Mode label ("host", "con", "falcon").
    mode: String,
    /// Offered load, packets per second.
    offered_pps: f64,
    /// Messages delivered in the measured window.
    delivered: u64,
    /// Drops in the measured window.
    drops: u64,
    /// Delivered packets per (simulated) second.
    pps: f64,
    /// Delivered payload Gbit/s.
    gbps: f64,
    /// One-way latency median, ns.
    latency_p50_ns: u64,
    /// One-way latency 99th percentile, ns.
    latency_p99_ns: u64,
    /// Machine busy share, core-units.
    busy_cores: f64,
}

impl SimBenchEntry {
    fn new(mode: &str, offered_pps: f64, stats: &RunStats) -> Self {
        SimBenchEntry {
            mode: mode.to_string(),
            offered_pps,
            delivered: stats.delivered,
            drops: stats.drops,
            pps: stats.pps(),
            gbps: stats.gbps(),
            latency_p50_ns: stats.latency.percentile(50.0),
            latency_p99_ns: stats.latency.percentile(99.0),
            busy_cores: stats.total_busy_cores(),
        }
    }
}

/// The whole simulation benchmark report.
#[derive(Debug, Serialize)]
struct SimBenchReport {
    /// Workload description.
    workload: String,
    /// UDP payload bytes.
    payload: usize,
    /// Per-mode results.
    results: Vec<SimBenchEntry>,
}

fn simulation_report(rate: f64, payload: usize) -> SimBenchReport {
    let modes = [
        ("host", Mode::Host),
        ("con", Mode::Vanilla),
        ("falcon", Mode::Falcon(Scenario::sf_falcon())),
    ];
    let results = modes
        .into_iter()
        .map(|(label, mode)| {
            let stats = measure_single_flow_udp(mode, rate, payload);
            SimBenchEntry::new(label, rate, &stats)
        })
        .collect();
    SimBenchReport {
        workload: format!("single-flow UDP, fixed {rate:.0} pps"),
        payload,
        results,
    }
}

fn usage() {
    eprintln!(
        "usage: falcon-bench [--json] [--quick] [--out <path>]\n\
         default prints a text summary of the simulation benches; --json \
         prints JSON; --out also writes the JSON to a file; --quick runs \
         the CI-sized load. The threaded dataplane is measured by \
         falcon-benchmark (cargo run --release --manifest-path \
         benchmark/Cargo.toml); its ingest run is falcon-repro --ingest."
    );
}

fn main() -> ExitCode {
    let mut json = false;
    let mut scale = Scale::Full;
    let mut out: Option<String> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => json = true,
            "--quick" | "-q" => scale = Scale::Quick,
            "--out" => match args.next() {
                Some(path) => out = Some(path),
                None => {
                    eprintln!("--out requires a path");
                    usage();
                    return ExitCode::FAILURE;
                }
            },
            "--help" | "-h" => {
                usage();
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unknown argument: {other}");
                usage();
                return ExitCode::FAILURE;
            }
        }
    }

    let rate = match scale {
        Scale::Quick => 50_000.0,
        Scale::Full => 200_000.0,
    };
    eprintln!("simulation benches: Host / Con / Falcon single-flow UDP at {rate:.0} pps...");
    let report = simulation_report(rate, 64);
    let rendered = serde_json::to_string_pretty(&report).expect("serializable");
    if json {
        println!("{rendered}");
    } else {
        for e in &report.results {
            println!(
                "  {:<8} {:>10.0} pps  {:>6.3} gbps  drops {:<6} p50 {:>7} ns  p99 {:>7} ns  busy {:.2} cores",
                e.mode, e.pps, e.gbps, e.drops, e.latency_p50_ns, e.latency_p99_ns, e.busy_cores,
            );
        }
    }
    if let Some(path) = out {
        if let Err(e) = std::fs::write(&path, &rendered) {
            eprintln!("cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("wrote {path}");
    }
    ExitCode::SUCCESS
}
