//! `falcon-repro`: regenerate the paper's figures from the simulation.
//!
//! ```text
//! falcon-repro --list                  # available figure ids
//! falcon-repro all                     # run everything at full scale
//! falcon-repro --quick fig10           # quick (test-scale) run of one figure
//! falcon-repro --json fig18            # machine-readable output
//! falcon-repro fig11 --trace out.json  # also write a Perfetto timeline
//! falcon-repro --stage-latency         # per-stage latency decomposition
//! falcon-repro --dataplane-trace dp.json  # real threads: a traced Falcon run
//! falcon-repro --ingest                # live loopback sockets: vanilla vs Falcon
//! ```
//!
//! The threaded dataplane's performance numbers come from the
//! `falcon-benchmark` package (`benchmark/`).

use std::num::{NonZeroU64, NonZeroUsize};
use std::process::ExitCode;
use std::str::FromStr;

use falcon_experiments::dataplane;
use falcon_experiments::figs;
use falcon_experiments::ingest;
use falcon_experiments::measure::Scale;
use falcon_experiments::tracedrun;

fn usage() {
    eprintln!(
        "usage: falcon-repro [--quick] [--json] [--list] [--trace <out.json>] \
         [--stage-latency] [--dataplane-trace <out.json>] [--split-gro] \
         [--workers <n>] [--flows <n>] [--ingest] [--ingest-out <path>] \
         [--rx-batch <n>] [--telemetry] [--telemetry-interval-ms <n>] \
         [--telemetry-out <path>] [--prom-addr <ip:port>] <fig-id>... | all\n\
         --dataplane-trace runs the modeled rx path on --workers real \
         pinned threads under Falcon and writes a Perfetto timeline of it \
         (--split-gro runs the five-hop pipeline, pNIC stage split into \
         alloc/GRO halves, on the Figure-13 TCP-4KB shape); --ingest \
         sends real VXLAN datagrams over a loopback UDP socket into the \
         pipeline (batched recvmmsg rx thread, differential oracle with \
         explicit loss accounting) and writes the vanilla-vs-falcon \
         comparison to --ingest-out (default BENCH_ingest.json); \
         --rx-batch sets its datagrams per batched read; --telemetry \
         attaches the live sampler to the --ingest falcon leg and streams \
         per-interval deltas to --telemetry-out (default \
         BENCH_telemetry.jsonl), serving Prometheus text exposition on \
         --prom-addr if given (port 0 binds ephemerally and the bound \
         address is printed when the listener is up). The threaded \
         dataplane's performance numbers come from falcon-benchmark \
         (cargo run --release --manifest-path benchmark/Cargo.toml)\n\
         figure ids: {}",
        figs::all()
            .iter()
            .map(|&(id, _)| id)
            .collect::<Vec<_>>()
            .join(", ")
    );
}

/// The value after `flag`, parsed; the error names what it requires.
/// The `NonZero` integer types keep counts positive.
fn value<T: FromStr>(
    args: &mut impl Iterator<Item = String>,
    flag: &str,
    requires: &str,
) -> Result<T, String> {
    args.next()
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("{flag} requires {requires}"))
}

fn main() -> ExitCode {
    let mut scale = Scale::Full;
    let mut json = false;
    let mut trace_out: Option<String> = None;
    let mut stage_latency = false;
    let mut split_gro = false;
    let mut workers: usize = 4;
    let mut flows: u64 = 1;
    let mut dataplane_trace: Option<String> = None;
    let mut telemetry = false;
    let mut telemetry_interval_ms: u64 = 0;
    let mut telemetry_out = "BENCH_telemetry.jsonl".to_string();
    let mut prom_addr: Option<String> = None;
    let mut run_ingest = false;
    let mut ingest_out = "BENCH_ingest.json".to_string();
    let mut rx_batch: usize = 32;
    let mut wanted: Vec<String> = Vec::new();

    const PATH: &str = "a path";
    const OUT: &str = "an output path";
    const POSITIVE: &str = "a positive integer";
    let mut parse = || -> Result<Option<ExitCode>, String> {
        let mut args = std::env::args().skip(1);
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--quick" | "-q" => scale = Scale::Quick,
                "--json" => json = true,
                "--trace" => trace_out = Some(value(&mut args, &arg, OUT)?),
                "--stage-latency" => stage_latency = true,
                "--split-gro" => split_gro = true,
                "--workers" => workers = value::<NonZeroUsize>(&mut args, &arg, POSITIVE)?.get(),
                "--flows" => flows = value::<NonZeroU64>(&mut args, &arg, POSITIVE)?.get(),
                "--dataplane-trace" => dataplane_trace = Some(value(&mut args, &arg, OUT)?),
                "--telemetry" => telemetry = true,
                "--telemetry-interval-ms" => {
                    telemetry_interval_ms = value::<NonZeroU64>(&mut args, &arg, POSITIVE)?.get();
                    telemetry = true;
                }
                "--telemetry-out" => {
                    telemetry_out = value(&mut args, &arg, PATH)?;
                    telemetry = true;
                }
                "--prom-addr" => {
                    prom_addr = Some(value(&mut args, &arg, "an ip:port")?);
                    telemetry = true;
                }
                "--ingest" => run_ingest = true,
                "--ingest-out" => {
                    ingest_out = value(&mut args, &arg, PATH)?;
                    run_ingest = true;
                }
                "--rx-batch" => rx_batch = value::<NonZeroUsize>(&mut args, &arg, POSITIVE)?.get(),
                "--list" | "-l" => {
                    for (id, _) in figs::all() {
                        println!("{id}");
                    }
                    return Ok(Some(ExitCode::SUCCESS));
                }
                "--help" | "-h" => {
                    usage();
                    return Ok(Some(ExitCode::SUCCESS));
                }
                other if other.starts_with('-') => return Err(format!("unknown flag: {other}")),
                id => wanted.push(id.to_string()),
            }
        }
        Ok(None)
    };
    match parse() {
        Ok(None) => {}
        Ok(Some(code)) => return code,
        Err(msg) => {
            eprintln!("{msg}");
            usage();
            return ExitCode::FAILURE;
        }
    }

    if wanted.is_empty()
        && trace_out.is_none()
        && !stage_latency
        && dataplane_trace.is_none()
        && !run_ingest
    {
        usage();
        return ExitCode::FAILURE;
    }

    // Surfaces the Prometheus listener's bound address the moment it is
    // up — the only way to learn the port when --prom-addr ends in :0.
    let (prom_addr_tx, prom_addr_rx) = std::sync::mpsc::channel::<std::net::SocketAddr>();
    let prom_printer = std::thread::spawn(move || {
        while let Ok(addr) = prom_addr_rx.recv() {
            eprintln!("prometheus exposition listening on http://{addr}/metrics");
        }
    });

    let registry = figs::all();
    let run_all = wanted.iter().any(|w| w == "all");
    let selected: Vec<_> = registry
        .iter()
        .filter(|(id, _)| run_all || wanted.iter().any(|w| w == id))
        .collect();

    if !run_all {
        for w in &wanted {
            if !registry.iter().any(|(id, _)| id == w) {
                eprintln!("unknown figure id: {w}");
                usage();
                return ExitCode::FAILURE;
            }
        }
    }

    for (id, runner) in selected {
        eprintln!("running {id} ({:?} scale)...", scale);
        let result = runner(scale);
        if json {
            println!(
                "{}",
                serde_json::to_string_pretty(&result).expect("serializable")
            );
        } else {
            println!("{result}");
        }
    }

    if let Some(path) = trace_out {
        eprintln!("tracing a single-flow Falcon run ({:?} scale)...", scale);
        let trace_json = tracedrun::chrome_trace(scale);
        if let Err(e) = std::fs::write(&path, trace_json) {
            eprintln!("cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("wrote {path} (load it at https://ui.perfetto.dev)");
    }

    if stage_latency {
        eprintln!(
            "stage-latency decomposition, Con vs Falcon ({:?} scale)...",
            scale
        );
        print!("{}", tracedrun::stage_latency_report(scale));
    }

    if let Some(path) = dataplane_trace {
        eprintln!(
            "tracing a falcon dataplane run, {workers} worker(s) requested ({:?} scale){}...",
            scale,
            if split_gro { ", split-gro 5-stage" } else { "" }
        );
        let trace_json = dataplane::chrome_trace(scale, workers, flows, split_gro);
        if let Err(e) = std::fs::write(&path, trace_json) {
            eprintln!("cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("wrote {path} (load it at https://ui.perfetto.dev)");
    }

    if run_ingest {
        eprintln!(
            "ingest: live loopback VXLAN datagrams, vanilla vs falcon, \
             {workers} worker(s), {flows} flow(s), rx batch {rx_batch} \
             ({:?} scale)...",
            scale
        );
        let spec = telemetry.then(|| falcon_dataplane::TelemetrySpec {
            interval_ms: telemetry_interval_ms,
            jsonl_path: Some(telemetry_out.clone()),
            prom_addr: prom_addr.clone(),
            prom_addr_tx: Some(prom_addr_tx.clone()),
        });
        let cmp = match ingest::run_comparison_with(scale, workers, flows, rx_batch, spec) {
            Ok(cmp) => cmp,
            Err(e) => {
                eprintln!("ingest run failed: {e}");
                return ExitCode::FAILURE;
            }
        };
        if json {
            println!(
                "{}",
                serde_json::to_string_pretty(&cmp).expect("serializable")
            );
        } else {
            print!("{}", ingest::render(&cmp));
        }
        let bench_json = serde_json::to_string_pretty(&cmp).expect("serializable");
        if let Err(e) = std::fs::write(&ingest_out, bench_json) {
            eprintln!("cannot write {ingest_out}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("wrote {ingest_out}");
        if !cmp.vanilla.oracle_ok || !cmp.falcon.oracle_ok {
            eprintln!(
                "FAIL: differential oracle rejected the run: {:?} {:?}",
                cmp.vanilla.oracle_errors, cmp.falcon.oracle_errors
            );
            return ExitCode::FAILURE;
        }
    }

    // All senders gone → the printer drains and exits.
    drop(prom_addr_tx);
    let _ = prom_printer.join();

    ExitCode::SUCCESS
}
