//! Command line of the dataplane benchmark.
//!
//! ```text
//! falcon-benchmark [--seed N] [--reps N] [--workload NAME]... [--seconds S]
//!                  [--trace 0|1] [--smoke] [--out DIR]
//! falcon-benchmark compare <parent.json> <change.json>
//! ```
//!
//! Without `--seconds` every selected workload runs `--reps` rounds (one
//! leg per policy each) plus the traced part, prints every metric with
//! its unit, and writes `<out>/results.json`. With `--seconds`, rounds
//! repeat until that much time is measured, and the last line of stdout
//! is one JSON object: the end-to-end metrics with `--trace 0`, the
//! per-layer metrics with `--trace 1`. The exit code is non-zero when any
//! correctness check fails.

use std::path::PathBuf;
use std::process::ExitCode;

use falcon_benchmark::compare::{compare, Verdict};
use falcon_benchmark::leg::GENERATOR_BOUND_SHARE;
use falcon_benchmark::metrics::{end_to_end, per_layer};
use falcon_benchmark::run::{generator_bound, run_workload, to_json, Options, WorkloadRun};
use falcon_benchmark::stats::{median, quartiles};
use falcon_benchmark::workloads::{find, Workload, WORKLOADS};
use serde_json::Value;

fn usage() -> String {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    format!(
        "usage: falcon-benchmark [--seed N] [--reps N] [--workload NAME]... [--seconds S] \
         [--trace 0|1] [--smoke] [--out DIR]\n       falcon-benchmark compare <parent.json> <change.json>\n\
         workloads: {}",
        names.join(", ")
    )
}

struct Cli {
    opts: Options,
    workloads: Vec<&'static Workload>,
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut opts = Options {
        seed: 1,
        reps: 10,
        seconds: None,
        trace: true,
        smoke: false,
        out_dir: PathBuf::from("target/benchmark"),
    };
    let mut workloads = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{arg} needs a value"));
        match arg.as_str() {
            "--seed" => opts.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--reps" => opts.reps = value()?.parse().map_err(|e| format!("--reps: {e}"))?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                opts.seconds = Some(s);
            }
            "--trace" => {
                opts.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--workload" => {
                let name = value()?;
                workloads.push(find(name).ok_or_else(|| format!("unknown workload {name}"))?);
            }
            "--smoke" => opts.smoke = true,
            "--out" => opts.out_dir = PathBuf::from(value()?),
            "-h" | "--help" => return Err(usage()),
            other => return Err(format!("unknown argument {other}\n{}", usage())),
        }
    }
    if workloads.is_empty() {
        workloads = WORKLOADS.iter().collect();
    }
    Ok(Cli { opts, workloads })
}

fn print_run(run: &WorkloadRun) {
    let w = run.workload;
    println!(
        "== {} ({:.1} s measured, {} legs, {} attempted, {} failed)",
        w.name,
        run.measured_s,
        run.legs.len(),
        run.attempted(),
        run.failed()
    );
    println!("   {}", w.why);
    for (d, values) in run.end_to_end() {
        let (q1, q3) = quartiles(&values);
        println!(
            "   {:<26} {:>12.4} {:<5} q1 {:.4} q3 {:.4} n={} (bound {:.0}%)",
            d.name,
            median(&values),
            d.unit,
            q1,
            q3,
            values.len(),
            d.bound.unwrap_or(0.0) * 100.0
        );
    }
    let layers = run.per_layer();
    for d in per_layer() {
        println!("   {:<46} {:>14.4} {}", d.name, layers[&d.name], d.unit);
    }
    for (i, l) in generator_bound(&run.legs) {
        eprintln!(
            "GENERATOR-BOUND: {} leg {i} ({}): gen.blocked_share {:.3} < {GENERATOR_BOUND_SHARE}",
            w.name,
            l.policy.label(),
            l.value("gen.blocked_share")
        );
    }
    for f in run
        .failures
        .iter()
        .chain(run.legs.iter().flat_map(|l| l.failures.iter()))
    {
        eprintln!("CORRECTNESS: {}: {f}", w.name);
    }
}

/// The one-line result: end-to-end metrics (untraced) or per-layer
/// metrics (traced), each as measured.
fn result_line(run: &WorkloadRun, trace: bool) -> String {
    let metrics: Vec<(String, &str, f64)> = if trace {
        let layers = run.per_layer();
        per_layer()
            .into_iter()
            .map(|d| (d.name.clone(), d.unit, layers[&d.name]))
            .collect()
    } else {
        run.end_to_end()
            .into_iter()
            .map(|(d, values)| (d.name, d.unit, median(&values)))
            .collect()
    };
    let finite = metrics.iter().all(|m| m.2.is_finite());
    let metrics = metrics
        .into_iter()
        .map(|(name, unit, v)| {
            let v = Value::Object(vec![
                ("value".into(), Value::Float(v)),
                ("unit".into(), Value::Str(unit.into())),
            ]);
            (name, v)
        })
        .collect();
    serde_json::to_string(&Value::Object(vec![
        ("correct".into(), Value::Bool(run.correct() && finite)),
        (
            "attempted".into(),
            Value::Int(run.attempted().max(1) as i128),
        ),
        ("failed".into(), Value::Int(run.failed() as i128)),
        ("metrics".into(), Value::Object(metrics)),
    ]))
    .unwrap_or_default()
}

fn run_compare(parent: &str, change: &str) -> Result<ExitCode, String> {
    let load = |p: &str| -> Result<Value, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
        serde_json::from_str(&text).map_err(|e| format!("{p}: {e}"))
    };
    let rows = compare(&load(parent)?, &load(change)?)?;
    println!(
        "{:<20} {:<24} {:>28} {:>28} {:>9} {:>6}  verdict",
        "workload",
        "metric",
        "parent median [q1, q3]",
        "change median [q1, q3]",
        "worse_by",
        "bound"
    );
    let fmt = |(m, q1, q3): (f64, f64, f64)| format!("{m:.4} [{q1:.4}, {q3:.4}]");
    for r in &rows {
        println!(
            "{:<20} {:<24} {:>28} {:>28} {:>+8.2}% {:>5.1}%  {}",
            r.workload,
            format!("{} ({})", r.metric, r.unit),
            fmt(r.parent),
            fmt(r.change),
            r.worse_by * 100.0,
            r.bound * 100.0,
            r.verdict.label()
        );
    }
    Ok(if rows.iter().any(|r| r.verdict == Verdict::Regressed) {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

fn real_main(args: &[String]) -> Result<ExitCode, String> {
    if args.first().map(String::as_str) == Some("compare") {
        return match args {
            [_, parent, change] => run_compare(parent, change),
            _ => Err(usage()),
        };
    }
    let cli = parse(args)?;
    std::fs::create_dir_all(&cli.opts.out_dir)
        .map_err(|e| format!("{}: {e}", cli.opts.out_dir.display()))?;
    let mut runs = Vec::new();
    for &w in &cli.workloads {
        let run = run_workload(w, &cli.opts);
        print_run(&run);
        runs.push(run);
    }
    let correct = runs.iter().all(WorkloadRun::correct);
    let meta = serde_json::to_value(&falcon_dataplane::run_meta("benchmark"));
    let command = std::iter::once("falcon-benchmark".to_string())
        .chain(args.iter().cloned())
        .collect::<Vec<_>>()
        .join(" ");
    let doc = Value::Object(vec![
        ("meta".into(), meta),
        ("seed".into(), Value::Int(cli.opts.seed as i128)),
        ("reps".into(), Value::Int(cli.opts.reps as i128)),
        (
            "seconds".into(),
            cli.opts.seconds.map_or(Value::Null, Value::Float),
        ),
        ("command".into(), Value::Str(command)),
        ("correct".into(), Value::Bool(correct)),
        (
            "end_to_end_metrics".into(),
            Value::Array(
                end_to_end()
                    .iter()
                    .map(|d| Value::Str(d.name.clone()))
                    .collect(),
            ),
        ),
        (
            "workloads".into(),
            Value::Array(runs.iter().map(to_json).collect()),
        ),
    ]);
    let path = cli.opts.out_dir.join("results.json");
    let text = serde_json::to_string_pretty(&doc).map_err(|e| e.to_string())?;
    std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("results: {}", path.display());
    if let [run] = runs.as_slice() {
        println!("{}", result_line(run, cli.opts.trace));
    }
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match real_main(&args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("falcon-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
