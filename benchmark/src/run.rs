//! Runs one workload: pre-build its inputs, warm up, run interleaved
//! rounds of one leg per policy, then (when traced) one telemetry leg per
//! policy and the single-threaded replay. Reduces everything to the
//! metric tables.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use falcon_dataplane::{ConntrackOracle, PolicyKind, TelemetrySpec};
use serde_json::Value;

use crate::leg::{self, Leg};
use crate::metrics::{end_to_end, per_layer, STAGE_LABELS};
use crate::replay;
use crate::source::{Inputs, Offer};
use crate::stats::{median, quartiles};
use crate::workloads::{Workload, POLICIES, WORKERS};

/// How much to run.
#[derive(Debug, Clone)]
pub struct Options {
    pub seed: u64,
    /// Rounds (one leg per policy each) when no time budget is set.
    pub reps: usize,
    /// Keep starting rounds until this much time has been measured.
    pub seconds: Option<f64>,
    /// Run the traced part: telemetry legs and the replay.
    pub trace: bool,
    /// Tiny legs, for the smoke test.
    pub smoke: bool,
    /// Where telemetry and span files go.
    pub out_dir: PathBuf,
}

/// Frames pushed through the replay.
const REPLAY_PACKETS: u64 = 2_000;
const SMOKE_REPLAY_PACKETS: u64 = 200;

/// Everything one workload produced.
#[derive(Debug)]
pub struct WorkloadRun {
    pub workload: &'static Workload,
    pub legs: Vec<Leg>,
    pub prebuild_s: f64,
    pub conntrack_entries: u64,
    /// Traced legs, one per policy.
    pub traced: Vec<Leg>,
    /// Metrics only the traced part measures.
    pub traced_metrics: BTreeMap<String, f64>,
    pub failures: Vec<String>,
    pub measured_s: f64,
}

impl WorkloadRun {
    pub fn correct(&self) -> bool {
        self.failures.is_empty() && self.legs.iter().all(|l| l.failures.is_empty())
    }

    pub fn attempted(&self) -> u64 {
        self.legs.iter().map(|l| l.injected).sum()
    }

    pub fn failed(&self) -> u64 {
        self.legs.iter().map(|l| l.failed).sum()
    }

    fn values(&self, policy: Option<PolicyKind>, name: &str) -> Vec<f64> {
        self.legs
            .iter()
            .filter(|l| policy.is_none_or(|p| l.policy == p))
            .map(|l| l.value(name))
            .collect()
    }

    /// Per-rep values of every end-to-end metric, by name.
    pub fn end_to_end(&self) -> Vec<(crate::metrics::MetricDef, Vec<f64>)> {
        end_to_end()
            .into_iter()
            .map(|d| {
                let values = match d.name.split_once('.') {
                    Some((p, base)) => self.values(PolicyKind::from_label(p), base),
                    None => self.values(None, &d.name),
                };
                (d, values)
            })
            .collect()
    }

    /// Every per-layer metric's value (medians over legs).
    pub fn per_layer(&self) -> BTreeMap<String, f64> {
        let mut out = BTreeMap::new();
        for d in per_layer() {
            let (base, policy) = match d.name.rsplit_once('.') {
                Some((base, p)) => match PolicyKind::from_label(p) {
                    Some(p) => (base, Some(p)),
                    None => (d.name.as_str(), None),
                },
                None => (d.name.as_str(), None),
            };
            let v = if let Some(v) = self.traced_metrics.get(&d.name) {
                *v
            } else {
                match d.name.as_str() {
                    "gen.prebuild_s" => self.prebuild_s,
                    "conntrack.entries" => self.conntrack_entries as f64,
                    _ => median(&self.values(policy, base)),
                }
            };
            out.insert(d.name, v);
        }
        out
    }
}

/// Legs that were limited by the generator.
pub fn generator_bound(legs: &[Leg]) -> impl Iterator<Item = (usize, &Leg)> {
    legs.iter().enumerate().filter(|(_, l)| l.generator_bound)
}

/// Runs one round: a leg per policy, starting with policy `round % 3`
/// so no policy always runs first. Checks the SCR conntrack oracle of
/// replicate against vanilla when both ran drop-free.
fn round(
    w: &'static Workload,
    inputs: &Arc<Inputs>,
    offer: Offer,
    round: usize,
    failures: &mut Vec<String>,
    conntrack_entries: &mut u64,
) -> Vec<Leg> {
    let mut raws: Vec<leg::RawLeg> = (0..POLICIES.len())
        .map(|k| POLICIES[(round + k) % POLICIES.len()])
        .map(|p| leg::run(w, inputs, p, offer, None))
        .collect();
    raws.sort_by_key(|r| POLICIES.iter().position(|&p| p == r.policy));
    let (vanilla, replicate) = (&raws[0].out, &raws[2].out);
    if vanilla.dropped() == 0 && replicate.dropped() == 0 {
        let oracle = ConntrackOracle::new(vanilla, replicate);
        *conntrack_entries = oracle.entries;
        if !oracle.holds() {
            failures.push(format!(
                "round {round}: SCR oracle: tables_equal={} deliveries_equal={}",
                oracle.tables_equal, oracle.deliveries_equal
            ));
        }
    }
    raws.iter()
        .map(|r| leg::evaluate(w, inputs, r, offer.packets))
        .collect()
}

/// Runs a workload under `opts`.
pub fn run_workload(w: &'static Workload, opts: &Options) -> WorkloadRun {
    let t0 = Instant::now();
    let inputs = Arc::new(Inputs::build(w, opts.seed));
    let prebuild_s = t0.elapsed().as_secs_f64();
    let packets = if opts.smoke {
        w.smoke_packets
    } else {
        w.leg_packets
    };
    let offer = Offer {
        packets,
        gap_ns: 1_000_000_000u64.checked_div(w.pace_pps).unwrap_or(0),
        stall_ns: 0,
    };
    let mut failures = Vec::new();
    let mut conntrack_entries = 0;

    // Warm-up: one short leg per policy, not measured, so first-touch
    // page faults and lazily built state are out of the timed legs.
    let warm = Offer {
        packets: (packets / 4).max(1),
        ..offer
    };
    for p in POLICIES {
        leg::run(w, &inputs, p, warm, None);
    }

    let measure = Instant::now();
    let mut legs = Vec::new();
    let mut r = 0;
    loop {
        let done = match opts.seconds {
            Some(s) => measure.elapsed() >= Duration::from_secs_f64(s) && r >= 1,
            None => r >= opts.reps.max(1),
        };
        if done {
            break;
        }
        legs.extend(round(
            w,
            &inputs,
            offer,
            r,
            &mut failures,
            &mut conntrack_entries,
        ));
        r += 1;
    }
    let measured_s = measure.elapsed().as_secs_f64();

    let mut traced = Vec::new();
    let mut traced_metrics = BTreeMap::new();
    if opts.trace {
        for p in POLICIES {
            let path = opts
                .out_dir
                .join(format!("{}.{}.telemetry.jsonl", w.name, p.label()));
            let spec = TelemetrySpec {
                interval_ms: 10,
                jsonl_path: Some(path.to_string_lossy().into_owned()),
                ..TelemetrySpec::default()
            };
            let raw = leg::run(w, &inputs, p, offer, Some(spec));
            let untraced = median(
                &legs
                    .iter()
                    .filter(|l: &&Leg| l.policy == p)
                    .map(|l| l.value("goodput_gbps"))
                    .collect::<Vec<_>>(),
            );
            let l = leg::evaluate(w, &inputs, &raw, offer.packets);
            traced_metrics.insert(
                format!("telemetry.overhead_ratio.{}", p.label()),
                1.0 - l.value("goodput_gbps") / untraced.max(f64::MIN_POSITIVE),
            );
            if p == PolicyKind::Falcon {
                stage_percentiles(w, &raw.out, &mut traced_metrics);
            }
            failures.extend(l.failures.iter().map(|f| format!("traced {f}")));
            traced.push(l);
        }
        let replay = replay::run(
            w,
            &inputs,
            if opts.smoke {
                SMOKE_REPLAY_PACKETS
            } else {
                REPLAY_PACKETS
            },
        );
        if replay.failures > 0 {
            failures.push(format!(
                "replay: {} frames failed a layer or their digest",
                replay.failures
            ));
        }
        let path = opts.out_dir.join(format!("{}.spans.json", w.name));
        if let Err(e) = replay::write_chrome_trace(&path, &replay.spans) {
            failures.push(format!("writing {}: {e}", path.display()));
        }
        traced_metrics.extend(replay.metrics.iter().map(|(k, v)| (k.to_string(), *v)));
    }

    WorkloadRun {
        workload: w,
        legs,
        prebuild_s,
        conntrack_entries,
        traced,
        traced_metrics,
        failures,
        measured_s,
    }
}

/// Per-stage service-time percentiles from the traced Falcon leg's final
/// telemetry snapshot (workers merged). Stages absent from this
/// workload's pipeline report 0.
fn stage_percentiles(
    w: &Workload,
    out: &falcon_dataplane::RunOutput,
    into: &mut BTreeMap<String, f64>,
) {
    let labels = falcon_dataplane::stage_labels(w.split_gro);
    let last = out.telemetry.as_ref().and_then(|t| t.samples.last());
    for label in STAGE_LABELS {
        let mut hist = falcon_metrics::Histogram::new();
        if let (Some(stage), Some(sample)) = (labels.iter().position(|&l| l == label), last) {
            for ws in &sample.workers {
                if let Some(h) = ws.stage_service_ns.get(stage) {
                    hist.merge(h);
                }
            }
        }
        for (q, p) in [("p50", 50.0), ("p99", 99.0)] {
            into.insert(
                format!("telemetry.stage.{label}.service_{q}_ns"),
                hist.percentile(p) as f64,
            );
        }
    }
}

fn leg_json(l: &Leg, index: usize) -> Value {
    let mut pairs = vec![
        ("index".to_string(), Value::Int(index as i128)),
        ("policy".into(), Value::Str(l.policy.label().into())),
        ("requested_workers".into(), Value::Int(WORKERS as i128)),
        (
            "effective_workers".into(),
            Value::Int(l.effective_workers as i128),
        ),
        ("generator_threads".into(), Value::Int(1)),
        (
            "generator_core".into(),
            if l.generator_core == usize::MAX {
                Value::Null
            } else {
                Value::Int(l.generator_core as i128)
            },
        ),
        ("host_cores".into(), Value::Int(l.host_cores as i128)),
        ("oversubscribed".into(), Value::Bool(l.oversubscribed())),
        ("injected".into(), Value::Int(l.injected as i128)),
        ("failed".into(), Value::Int(l.failed as i128)),
        ("generator_bound".into(), Value::Bool(l.generator_bound)),
        (
            "failures".into(),
            Value::Array(l.failures.iter().cloned().map(Value::Str).collect()),
        ),
    ];
    pairs.extend(
        l.values
            .iter()
            .map(|(k, v)| (k.to_string(), Value::Float(*v))),
    );
    Value::Object(pairs)
}

/// The workload's section of `results.json`.
pub fn to_json(run: &WorkloadRun) -> Value {
    let w = run.workload;
    let e2e = run
        .end_to_end()
        .into_iter()
        .map(|(d, values)| {
            let (q1, q3) = quartiles(&values);
            (
                d.name.clone(),
                Value::Object(vec![
                    ("unit".into(), Value::Str(d.unit.into())),
                    ("better".into(), Value::Str(d.better.label().into())),
                    ("bound".into(), Value::Float(d.bound.unwrap_or(0.0))),
                    ("median".into(), Value::Float(median(&values))),
                    ("q1".into(), Value::Float(q1)),
                    ("q3".into(), Value::Float(q3)),
                    (
                        "values".into(),
                        Value::Array(values.into_iter().map(Value::Float).collect()),
                    ),
                ]),
            )
        })
        .collect();
    let layer_values = run.per_layer();
    let layers = per_layer()
        .into_iter()
        .map(|d| {
            (
                d.name.clone(),
                Value::Object(vec![
                    ("unit".into(), Value::Str(d.unit.into())),
                    ("better".into(), Value::Str(d.better.label().into())),
                    ("value".into(), Value::Float(layer_values[&d.name])),
                    ("moves".into(), Value::Str(d.moves.into())),
                ]),
            )
        })
        .collect();
    let bound: Vec<Value> = generator_bound(&run.legs)
        .map(|(i, l)| Value::Str(format!("leg {i} ({})", l.policy.label())))
        .collect();
    Value::Object(vec![
        ("name".into(), Value::Str(w.name.into())),
        ("why".into(), Value::Str(w.why.into())),
        (
            "config".into(),
            Value::Str(format!(
                "{:?}",
                leg::scenario(w, PolicyKind::Falcon, w.leg_packets)
            )),
        ),
        ("correct".into(), Value::Bool(run.correct())),
        ("attempted".into(), Value::Int(run.attempted() as i128)),
        ("failed".into(), Value::Int(run.failed() as i128)),
        (
            "failures".into(),
            Value::Array(run.failures.iter().cloned().map(Value::Str).collect()),
        ),
        ("generator_bound_legs".into(), Value::Array(bound)),
        ("measured_s".into(), Value::Float(run.measured_s)),
        ("end_to_end".into(), Value::Object(e2e)),
        ("per_layer".into(), Value::Object(layers)),
        (
            "legs".into(),
            Value::Array(
                run.legs
                    .iter()
                    .enumerate()
                    .map(|(i, l)| leg_json(l, i))
                    .collect(),
            ),
        ),
        (
            "traced_legs".into(),
            Value::Array(
                run.traced
                    .iter()
                    .enumerate()
                    .map(|(i, l)| leg_json(l, i))
                    .collect(),
            ),
        ),
    ])
}
