//! Smoke test: every workload at `--smoke` sizes, traced, with all
//! correctness checks green, every metric present and finite, and the
//! names in `BENCHMARK.json` equal to the benchmark's own tables.

use std::path::PathBuf;
use std::process::Command;

use falcon_benchmark::metrics::{end_to_end, per_layer, MetricDef};
use falcon_benchmark::run::{run_workload, Options};
use falcon_benchmark::workloads::WORKLOADS;
use serde_json::Value;

fn benchmark_json() -> Value {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json next to the benchmark");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

fn array<'a>(doc: &'a Value, key: &str) -> &'a [Value] {
    doc.get(key).and_then(Value::as_array).expect(key)
}

fn field<'a>(v: &'a Value, key: &str) -> &'a str {
    v.get(key).and_then(Value::as_str).expect(key)
}

/// `(name, unit, better, bound)` of a table or of `BENCHMARK.json`.
type Row = (String, String, String, Option<f64>);

fn table(defs: Vec<MetricDef>) -> Vec<Row> {
    defs.into_iter()
        .map(|d| (d.name, d.unit.into(), d.better.label().into(), d.bound))
        .collect()
}

fn declared(doc: &Value, key: &str) -> Vec<Row> {
    array(doc, key)
        .iter()
        .map(|m| {
            (
                field(m, "name").into(),
                field(m, "unit").into(),
                field(m, "better").into(),
                m.get("bound").and_then(Value::as_f64),
            )
        })
        .collect()
}

#[test]
fn benchmark_json_matches_the_binary_tables() {
    let doc = benchmark_json();
    let workloads: Vec<(String, String)> = array(&doc, "workloads")
        .iter()
        .map(|w| (field(w, "name").into(), field(w, "why").into()))
        .collect();
    let ours: Vec<(String, String)> = WORKLOADS
        .iter()
        .map(|w| (w.name.into(), w.why.into()))
        .collect();
    assert_eq!(workloads, ours);
    assert_eq!(declared(&doc, "end_to_end"), table(end_to_end()));
    assert_eq!(declared(&doc, "per_layer"), table(per_layer()));
}

#[test]
fn every_workload_runs_green_at_smoke_size() {
    let doc = benchmark_json();
    let out_dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("smoke");
    std::fs::create_dir_all(&out_dir).expect("scratch dir");
    let opts = Options {
        seed: 1,
        reps: 1,
        seconds: None,
        trace: true,
        smoke: true,
        out_dir: out_dir.clone(),
    };
    for w in &WORKLOADS {
        let run = run_workload(w, &opts);
        assert!(
            run.correct(),
            "{}: {:?} {:?}",
            w.name,
            run.failures,
            run.legs
                .iter()
                .flat_map(|l| &l.failures)
                .collect::<Vec<_>>()
        );
        assert_eq!(run.failed(), 0, "{}: failed operations", w.name);
        let e2e = run.end_to_end();
        for m in array(&doc, "end_to_end") {
            let name = field(m, "name");
            let (_, values) = e2e
                .iter()
                .find(|(d, _)| d.name == name)
                .unwrap_or_else(|| panic!("{}: no {name}", w.name));
            assert!(
                !values.is_empty() && values.iter().all(|v| v.is_finite() && *v > 0.0),
                "{}: {name} = {values:?}",
                w.name
            );
        }
        let layers = run.per_layer();
        for m in array(&doc, "per_layer") {
            let name = field(m, "name");
            assert!(
                layers[name].is_finite(),
                "{}: {name} = {}",
                w.name,
                layers[name]
            );
        }
        assert!(out_dir.join(format!("{}.spans.json", w.name)).exists());
        assert!(out_dir
            .join(format!("{}.falcon.telemetry.jsonl", w.name))
            .exists());
    }
}

#[test]
fn result_line_has_the_documented_shape() {
    let out_dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("smoke-cli");
    let out = Command::new(env!("CARGO_BIN_EXE_falcon-benchmark"))
        .args([
            "--workload",
            "paced-udp64-modeled",
            "--smoke",
            "--seed",
            "3",
        ])
        .args(["--seconds", "0.05", "--trace", "0", "--out"])
        .arg(&out_dir)
        .output()
        .expect("run the benchmark binary");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let last: Value = serde_json::from_str(stdout.lines().last().expect("output")).expect("JSON");
    let Value::Object(pairs) = &last else {
        panic!("not an object: {last:?}")
    };
    let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(last.get("correct").and_then(Value::as_bool), Some(true));
    assert!(last.get("attempted").and_then(Value::as_u64) >= Some(1));
    let Some(Value::Object(metrics)) = last.get("metrics") else {
        panic!("no metrics")
    };
    let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
    let want: Vec<String> = end_to_end().into_iter().map(|d| d.name).collect();
    assert_eq!(names, want);
    assert!(out_dir.join("results.json").exists());

    let bad = Command::new(env!("CARGO_BIN_EXE_falcon-benchmark"))
        .args(["--workload", "no-such-workload"])
        .output()
        .expect("run the benchmark binary");
    assert!(!bad.status.success());
}
