//! `falcon-benchmark compare <parent.json> <change.json>`: one row per
//! (workload, end-to-end metric) with both sides' medians and quartiles,
//! the change against the metric's bound, and a verdict.

use serde_json::Value;

use crate::stats::{median, quartiles};

/// The outcome of one (workload, metric) pairing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// No worse than the bound allows.
    Ok,
    /// Worse than the parent by more than the bound.
    Regressed,
    /// The run-to-run spread is wider than the bound and the change does
    /// not beat the parent on every run, so the data cannot tell.
    Unresolved,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One compared pairing.
#[derive(Debug, Clone)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub unit: String,
    pub parent: (f64, f64, f64),
    pub change: (f64, f64, f64),
    /// How much worse the change's median is, as a share of the parent's
    /// median (negative = better).
    pub worse_by: f64,
    pub bound: f64,
    pub verdict: Verdict,
}

/// Judges one metric from both sides' per-run values.
pub fn judge(parent: &[f64], change: &[f64], higher_is_better: bool, bound: f64) -> (f64, Verdict) {
    let (pm, cm) = (median(parent), median(change));
    let sign = if higher_is_better { -1.0 } else { 1.0 };
    let worse_by = sign * (cm - pm) / pm.abs().max(f64::MIN_POSITIVE);
    let spread = |v: &[f64]| {
        let (q1, q3) = quartiles(v);
        (q3 - q1) / median(v).abs().max(f64::MIN_POSITIVE)
    };
    let better = |c: f64, p: f64| if higher_is_better { c > p } else { c < p };
    let all_better = change.iter().all(|&c| parent.iter().all(|&p| better(c, p)));
    let verdict = if spread(parent).max(spread(change)) > bound && !all_better {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    };
    (worse_by, verdict)
}

fn floats(v: Option<&Value>) -> Vec<f64> {
    v.and_then(Value::as_array)
        .map(|a| a.iter().filter_map(Value::as_f64).collect())
        .unwrap_or_default()
}

fn workloads(doc: &Value) -> Vec<&Value> {
    doc.get("workloads")
        .and_then(Value::as_array)
        .map(|a| a.iter().collect())
        .unwrap_or_default()
}

/// Compares two `results.json` documents, pairing workloads by name.
pub fn compare(parent: &Value, change: &Value) -> Result<Vec<Row>, String> {
    let mut rows = Vec::new();
    for pw in workloads(parent) {
        let name = pw.get("name").and_then(Value::as_str).unwrap_or_default();
        let Some(cw) = workloads(change)
            .into_iter()
            .find(|c| c.get("name").and_then(Value::as_str) == Some(name))
        else {
            return Err(format!(
                "workload {name} is missing from the change's results"
            ));
        };
        let Some(Value::Object(metrics)) = pw.get("end_to_end") else {
            return Err(format!("workload {name} has no end_to_end section"));
        };
        for (metric, pm) in metrics {
            let cm = cw
                .get("end_to_end")
                .and_then(|e| e.get(metric))
                .ok_or_else(|| format!("{name}: {metric} is missing from the change's results"))?;
            let (pv, cv) = (floats(pm.get("values")), floats(cm.get("values")));
            if pv.is_empty() || cv.is_empty() {
                return Err(format!("{name}: {metric} has no values"));
            }
            let higher = pm.get("better").and_then(Value::as_str) == Some("higher");
            let bound = pm.get("bound").and_then(Value::as_f64).unwrap_or(0.0);
            let (worse_by, verdict) = judge(&pv, &cv, higher, bound);
            let side = |v: &[f64]| {
                let (q1, q3) = quartiles(v);
                (median(v), q1, q3)
            };
            rows.push(Row {
                workload: name.to_string(),
                metric: metric.clone(),
                unit: pm
                    .get("unit")
                    .and_then(Value::as_str)
                    .unwrap_or_default()
                    .to_string(),
                parent: side(&pv),
                change: side(&cv),
                worse_by,
                bound,
                verdict,
            });
        }
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_bound_and_spread() {
        let parent = [10.0, 10.1, 9.9, 10.0, 10.05];
        // A 1 % goodput dip inside a 5 % bound.
        assert_eq!(
            judge(&parent, &[9.9, 9.95, 9.85, 9.9, 9.9], true, 0.05).1,
            Verdict::Ok
        );
        // A 20 % dip on tight runs.
        assert_eq!(
            judge(&parent, &[8.0, 8.1, 7.9, 8.0, 8.0], true, 0.05).1,
            Verdict::Regressed
        );
        // Spread wider than the bound and no clean win: unresolved.
        assert_eq!(
            judge(&parent, &[5.0, 15.0, 9.0, 11.0, 7.0], true, 0.05).1,
            Verdict::Unresolved
        );
        // Wide spread, but every change run beats every parent run.
        assert_eq!(
            judge(&parent, &[12.0, 20.0, 14.0, 30.0, 16.0], true, 0.05).1,
            Verdict::Ok
        );
        // Lower-is-better: a latency rise is the regression.
        let (worse, v) = judge(&[100.0; 5], &[130.0; 5], false, 0.1);
        assert!((worse - 0.3).abs() < 1e-9);
        assert_eq!(v, Verdict::Regressed);
    }
}
