//! Prometheus text exposition (format 0.0.4) over a tiny blocking TCP
//! listener, plus a curl-less scrape client and exposition parser so
//! CI can verify a live scrape without external tooling.
//!
//! The listener is deliberately minimal: accept, read the request
//! head, write the latest pre-rendered exposition, close. It runs on
//! its own thread with a non-blocking accept loop so shutdown never
//! hangs on a missing final connection.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use crate::schema::{Row, Shape, WORKER};
use crate::shard::WorkerSample;

/// Appends one metric family: its `# HELP`/`# TYPE` head, then one
/// line per `(labels, value)` (no braces when `labels` is empty).
fn family(out: &mut String, name: &str, help: &str, kind: &str, lines: &[(String, u64)]) {
    out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} {kind}\n"));
    for (labels, value) in lines {
        if labels.is_empty() {
            out.push_str(&format!("{name} {value}\n"));
        } else {
            out.push_str(&format!("{name}{{{labels}}} {value}\n"));
        }
    }
}

/// One family per row of `table`, holding a series per cell of each
/// `(labels, sample)`: the sample's labels, then the cell's stage or
/// drop reason.
fn table_families<T>(table: &[Row<T>], samples: &[(String, &T)], stages: &[String]) -> String {
    let mut out = String::with_capacity(256 * table.len());
    for row in table {
        let mut lines = Vec::new();
        for (labels, sample) in samples {
            for (label, v) in row.labelled(sample, stages) {
                let labels = match row.shape {
                    Shape::Scalar => labels.clone(),
                    Shape::PerStage => format!("{labels},stage=\"{label}\""),
                    Shape::PerReason => format!("{labels},reason=\"{label}\""),
                };
                lines.push((labels, v));
            }
        }
        family(&mut out, row.prom, row.help, row.kind.prom_type(), &lines);
    }
    out
}

/// Renders the cumulative state of all workers as one exposition body.
pub fn render(t_ns: u64, workers: &[WorkerSample], stages: &[String]) -> String {
    let mut out = String::with_capacity(8192);
    let per_worker = |f: &dyn Fn(&WorkerSample) -> u64| -> Vec<(String, u64)> {
        workers
            .iter()
            .enumerate()
            .map(|(w, s)| (format!("worker=\"{w}\""), f(s)))
            .collect()
    };
    let counters: Vec<_> = workers
        .iter()
        .enumerate()
        .map(|(w, s)| (format!("worker=\"{w}\""), &s.counters))
        .collect();
    out.push_str(&table_families(WORKER, &counters, stages));

    let mut stall_lines = Vec::new();
    for (w, s) in workers.iter().enumerate() {
        for (bucket, v) in [
            ("busy", s.stall.busy_ns),
            ("push", s.stall.stall_push_ns),
            ("pop", s.stall.stall_pop_ns),
            ("guard", s.stall.guard_wait_ns),
            ("idle", s.stall.idle_ns),
        ] {
            stall_lines.push((format!("worker=\"{w}\",bucket=\"{bucket}\""), v));
        }
    }
    for (name, help, kind, lines) in [
        (
            "falcon_worker_stall_ns_total",
            "Stall attribution: where each worker's wall-clock went.",
            "counter",
            stall_lines,
        ),
        (
            "falcon_worker_wall_ns_total",
            "Total measured wall-clock of the worker loop.",
            "counter",
            per_worker(&|s| s.stall.wall_ns),
        ),
        (
            "falcon_worker_ring_depth",
            "Depth-gauge reading at the last publish.",
            "gauge",
            per_worker(&|s| s.ring_depth),
        ),
        (
            "falcon_worker_depth_staleness",
            "Largest depth-gauge staleness observed (bound: one NAPI budget).",
            "gauge",
            per_worker(&|s| s.depth_staleness),
        ),
        (
            "falcon_telemetry_sample_timestamp_ns",
            "Run-relative timestamp of this snapshot.",
            "gauge",
            vec![(String::from("source=\"sampler\""), t_ns)],
        ),
    ] {
        family(&mut out, name, help, kind, &lines);
    }

    out.push_str(
        "# HELP falcon_stage_service_ns Per-stage service time summary.\n# TYPE falcon_stage_service_ns summary\n",
    );
    for (w, s) in workers.iter().enumerate() {
        for (i, h) in s.stage_service_ns.iter().enumerate() {
            let stage = stages.get(i).map(String::as_str).unwrap_or("?");
            for q in [50.0, 90.0, 99.0] {
                out.push_str(&format!(
                    "falcon_stage_service_ns{{worker=\"{w}\",stage=\"{stage}\",quantile=\"{}\"}} {}\n",
                    q / 100.0,
                    h.percentile(q)
                ));
            }
            for (suffix, v) in [("sum", h.sum()), ("count", h.count().into())] {
                out.push_str(&format!(
                    "falcon_stage_service_ns_{suffix}{{worker=\"{w}\",stage=\"{stage}\"}} {v}\n"
                ));
            }
        }
    }
    out
}

/// Renders a scalar counter family ([`RX`](crate::schema::RX) or
/// [`SLAB`](crate::schema::SLAB)) as an exposition fragment, appended
/// to [`render`]'s body on runs that attached that family's counters.
pub fn render_family<T>(table: &[Row<T>], sample: &T) -> String {
    table_families(table, &[(String::new(), sample)], &[])
}

/// One parsed exposition sample.
#[derive(Debug, Clone, PartialEq)]
pub struct PromMetric {
    /// Metric name (before the label braces).
    pub name: String,
    /// Label key/value pairs in exposition order.
    pub labels: Vec<(String, String)>,
    /// Sample value.
    pub value: f64,
}

impl PromMetric {
    /// Looks up one label's value.
    pub fn label(&self, key: &str) -> Option<&str> {
        self.labels
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// Parses text exposition format 0.0.4 (the subset [`render`] emits):
/// `name{k="v",...} value` lines, skipping comments and blanks.
pub fn parse_exposition(text: &str) -> Vec<PromMetric> {
    let mut out = Vec::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (head, value) = match line.rsplit_once(' ') {
            Some(parts) => parts,
            None => continue,
        };
        let value: f64 = match value.parse() {
            Ok(v) => v,
            Err(_) => continue,
        };
        let (name, labels) = match head.split_once('{') {
            Some((name, rest)) => {
                let body = rest.strip_suffix('}').unwrap_or(rest);
                let labels = body
                    .split(',')
                    .filter_map(|pair| {
                        let (k, v) = pair.split_once('=')?;
                        Some((k.trim().to_string(), v.trim().trim_matches('"').to_string()))
                    })
                    .collect();
                (name.to_string(), labels)
            }
            None => (head.to_string(), Vec::new()),
        };
        out.push(PromMetric {
            name,
            labels,
            value,
        });
    }
    out
}

/// The blocking exposition listener. Serves whatever body was last
/// [`PromServer::publish`]ed to every connection.
pub struct PromServer {
    addr: SocketAddr,
    latest: Arc<Mutex<String>>,
    scrapes: Arc<AtomicU64>,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl PromServer {
    /// Binds `addr` (e.g. `127.0.0.1:9464`, or port 0 for ephemeral)
    /// and starts the accept loop.
    pub fn bind(addr: &str) -> std::io::Result<PromServer> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local = listener.local_addr()?;
        let latest = Arc::new(Mutex::new(String::from(
            "# falcon telemetry: no sample published yet\n",
        )));
        let scrapes = Arc::new(AtomicU64::new(0));
        let stop = Arc::new(AtomicBool::new(false));
        let handle = {
            let latest = Arc::clone(&latest);
            let scrapes = Arc::clone(&scrapes);
            let stop = Arc::clone(&stop);
            std::thread::Builder::new()
                .name("falcon-prom".into())
                .spawn(move || loop {
                    match listener.accept() {
                        Ok((mut stream, _)) => {
                            let body = latest.lock().map(|g| g.clone()).unwrap_or_default();
                            if serve_one(&mut stream, &body).is_ok() {
                                scrapes.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                            if stop.load(Ordering::Acquire) {
                                break;
                            }
                            std::thread::sleep(Duration::from_millis(2));
                        }
                        Err(_) => {
                            if stop.load(Ordering::Acquire) {
                                break;
                            }
                            std::thread::sleep(Duration::from_millis(2));
                        }
                    }
                })?
        };
        Ok(PromServer {
            addr: local,
            latest,
            scrapes,
            stop,
            handle: Some(handle),
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Replaces the exposition body served to the next scrape.
    pub fn publish(&self, body: String) {
        if let Ok(mut g) = self.latest.lock() {
            *g = body;
        }
    }

    /// Scrapes served so far.
    pub fn scrapes(&self) -> u64 {
        self.scrapes.load(Ordering::Relaxed)
    }

    /// Stops the accept loop and returns the total scrape count.
    pub fn shutdown(mut self) -> u64 {
        self.stop.store(true, Ordering::Release);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
        self.scrapes.load(Ordering::Relaxed)
    }
}

impl Drop for PromServer {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

fn serve_one(stream: &mut TcpStream, body: &str) -> std::io::Result<()> {
    stream.set_nonblocking(false)?;
    stream.set_read_timeout(Some(Duration::from_millis(500)))?;
    stream.set_write_timeout(Some(Duration::from_millis(500)))?;
    // Drain the request head; we serve the same body for any path.
    let mut buf = [0u8; 1024];
    let mut head = Vec::new();
    loop {
        match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => {
                head.extend_from_slice(&buf[..n]);
                if head.windows(4).any(|w| w == b"\r\n\r\n") || head.len() > 8192 {
                    break;
                }
            }
            Err(_) => break,
        }
    }
    let response = format!(
        "HTTP/1.1 200 OK\r\nContent-Type: text/plain; version=0.0.4; charset=utf-8\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{}",
        body.len(),
        body
    );
    stream.write_all(response.as_bytes())?;
    stream.flush()
}

/// Curl-less scrape client: fetches one exposition body from `addr`.
pub fn scrape(addr: &SocketAddr) -> std::io::Result<String> {
    let mut stream = TcpStream::connect_timeout(addr, Duration::from_secs(2))?;
    stream.set_read_timeout(Some(Duration::from_secs(2)))?;
    stream.set_write_timeout(Some(Duration::from_secs(2)))?;
    stream.write_all(b"GET /metrics HTTP/1.1\r\nHost: falcon\r\nConnection: close\r\n\r\n")?;
    let mut raw = String::new();
    stream.read_to_string(&mut raw)?;
    match raw.split_once("\r\n\r\n") {
        Some((_, body)) => Ok(body.to_string()),
        None => Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "response had no header/body separator",
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::WorkerSample;

    fn sample() -> Vec<WorkerSample> {
        let mut w0 = WorkerSample::zeroed(2, 5);
        w0.counters.sweeps = 11;
        w0.counters.delivered = 7;
        w0.counters.drops[4] = 2;
        w0.stall.busy_ns = 900;
        w0.stall.wall_ns = 1_000;
        w0.ring_depth = 3;
        w0.depth_staleness = 8;
        w0.stage_service_ns[0].record_n(250, 10);
        vec![w0, WorkerSample::zeroed(2, 5)]
    }

    fn labels() -> Vec<String> {
        vec!["pnic_poll".into(), "outer_stack".into()]
    }

    #[test]
    fn render_parse_round_trip() {
        let body = render(42, &sample(), &labels());
        let metrics = parse_exposition(&body);
        let get = |name: &str, worker: &str| -> Vec<&PromMetric> {
            metrics
                .iter()
                .filter(|m| m.name == name && m.label("worker") == Some(worker))
                .collect()
        };
        assert_eq!(get("falcon_worker_delivered_total", "0")[0].value, 7.0);
        assert_eq!(get("falcon_worker_delivered_total", "1")[0].value, 0.0);
        let malformed = metrics
            .iter()
            .find(|m| {
                m.name == "falcon_worker_drops_total"
                    && m.label("worker") == Some("0")
                    && m.label("reason") == Some("malformed")
            })
            .expect("malformed drop counter");
        assert_eq!(malformed.value, 2.0);
        let busy = metrics
            .iter()
            .find(|m| {
                m.name == "falcon_worker_stall_ns_total"
                    && m.label("worker") == Some("0")
                    && m.label("bucket") == Some("busy")
            })
            .expect("busy stall counter");
        assert_eq!(busy.value, 900.0);
        let q50 = metrics
            .iter()
            .find(|m| {
                m.name == "falcon_stage_service_ns"
                    && m.label("worker") == Some("0")
                    && m.label("stage") == Some("pnic_poll")
                    && m.label("quantile") == Some("0.5")
            })
            .expect("service summary");
        assert!(q50.value >= 250.0);
        assert_eq!(get("falcon_worker_depth_staleness", "0")[0].value, 8.0);
    }

    #[test]
    fn summary_sum_is_exact() {
        // Seven samples summing to 29: mean × count would render
        // 29.000000000000004.
        let mut w = WorkerSample::zeroed(1, 5);
        w.stage_service_ns[0].record_n(4, 6);
        w.stage_service_ns[0].record(5);
        let body = render(0, &[w], &labels()[..1]);
        let sum = "falcon_stage_service_ns_sum{worker=\"0\",stage=\"pnic_poll\"} 29\n";
        assert!(body.contains(sum), "{body}");
    }

    #[test]
    fn listener_serves_published_body() {
        let server = PromServer::bind("127.0.0.1:0").expect("bind ephemeral");
        let addr = server.local_addr();
        server.publish(render(1, &sample(), &labels()));
        let body = scrape(&addr).expect("scrape");
        assert!(body.contains("falcon_worker_delivered_total{worker=\"0\"} 7"));
        let parsed = parse_exposition(&body);
        assert!(!parsed.is_empty());
        assert_eq!(server.scrapes(), 1);
        assert_eq!(server.shutdown(), 1);
    }
}
