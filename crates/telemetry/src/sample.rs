//! The sampler: a background thread that snapshots every worker shard
//! on a fixed interval while the run is in flight, and drives the
//! exporters (JSONL artifact, Prometheus listener, in-memory series
//! for the Perfetto counter tracks and the conservation tests).

use std::io::Write;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crate::jsonl;
use crate::meta::RunMeta;
use crate::prom::{self, PromServer};
use crate::rx::{RxCounters, RxSample};
use crate::schema::{RX, SLAB};
use crate::shard::{shard_pair, Shard, ShardWriter, WorkerSample};

/// Default sampling interval when `--telemetry` is given bare.
pub const DEFAULT_INTERVAL_MS: u64 = 100;

/// All worker shards of one run, plus the stage labels needed to
/// render exports.
pub struct Hub {
    shards: Vec<Arc<Shard>>,
    stage_labels: Vec<String>,
    n_reasons: usize,
    /// Optional rx-thread counters, attached once by an ingestion
    /// frontend before (or even while) the sampler runs. Kept outside
    /// the worker shards on purpose: the shards' shape invariant (no
    /// resize during a write session) must not depend on whether a
    /// socket frontend exists.
    rx: std::sync::OnceLock<Arc<RxCounters>>,
    /// Optional slab-pool counters, attached once by the packet source
    /// when it generates frames from a pre-registered buffer pool.
    /// Same shape rationale as `rx`.
    slab: std::sync::OnceLock<Arc<falcon_packet::SlabCounters>>,
}

impl Hub {
    /// Allocates one shard per worker shaped for the pipeline, and
    /// hands back the per-worker writer handles (index = worker id).
    pub fn new(
        workers: usize,
        stage_labels: Vec<String>,
        n_reasons: usize,
    ) -> (Arc<Hub>, Vec<ShardWriter>) {
        let n_stages = stage_labels.len();
        let (shards, writers): (Vec<_>, Vec<_>) = (0..workers)
            .map(|_| shard_pair(WorkerSample::zeroed(n_stages, n_reasons)))
            .unzip();
        (
            Arc::new(Hub {
                shards,
                stage_labels,
                n_reasons,
                rx: std::sync::OnceLock::new(),
                slab: std::sync::OnceLock::new(),
            }),
            writers,
        )
    }

    /// Attaches the rx-thread counters. Only the first attach wins;
    /// later calls are ignored (there is one rx thread per run).
    pub fn attach_rx(&self, counters: Arc<RxCounters>) {
        let _ = self.rx.set(counters);
    }

    /// Snapshot of the rx-thread counters, if a frontend attached any.
    pub fn rx_snapshot(&self) -> Option<RxSample> {
        self.rx.get().map(|c| c.snapshot())
    }

    /// Attaches the packet source's slab-pool counters. Only the first
    /// attach wins (there is one source pool per run).
    pub fn attach_slab(&self, counters: Arc<falcon_packet::SlabCounters>) {
        let _ = self.slab.set(counters);
    }

    /// Snapshot of the slab-pool counters, if a source attached any.
    pub fn slab_snapshot(&self) -> Option<falcon_packet::SlabSample> {
        self.slab.get().map(|c| c.snapshot())
    }

    /// Number of worker shards.
    pub fn workers(&self) -> usize {
        self.shards.len()
    }

    /// Pipeline stage labels, in stage order.
    pub fn stage_labels(&self) -> &[String] {
        &self.stage_labels
    }

    /// Consistent snapshot of every shard (not cross-shard atomic:
    /// each worker's view is internally consistent, which is all the
    /// per-worker accounting needs).
    pub fn snapshot(&self) -> Vec<WorkerSample> {
        self.shards.iter().map(|s| s.read()).collect()
    }

    /// Zero-shaped baseline matching this hub's shards.
    pub fn zeroed(&self) -> Vec<WorkerSample> {
        self.shards
            .iter()
            .map(|_| WorkerSample::zeroed(self.stage_labels.len(), self.n_reasons))
            .collect()
    }
}

/// One sampling tick: run-relative timestamp + all worker snapshots.
#[derive(Debug, Clone)]
pub struct TelemetrySample {
    /// Run-relative nanoseconds (same epoch as the trace stream).
    pub t_ns: u64,
    /// Cumulative per-worker snapshots (index = worker id).
    pub workers: Vec<WorkerSample>,
    /// Cumulative rx-thread counters (socket ingestion runs only).
    pub rx: Option<RxSample>,
    /// Cumulative slab-pool counters (slab-backed sources only).
    pub slab: Option<falcon_packet::SlabSample>,
}

/// Sampler configuration.
#[derive(Debug, Clone)]
pub struct SamplerConfig {
    /// Snapshot interval in milliseconds (clamped to ≥ 1).
    pub interval_ms: u64,
    /// Stream per-interval deltas to this JSONL path.
    pub jsonl_path: Option<String>,
    /// Serve Prometheus exposition on this address (e.g. `127.0.0.1:0`).
    pub prom_addr: Option<String>,
    /// Provenance stamped into the JSONL header.
    pub meta: RunMeta,
}

/// Everything the sampler produced, returned by [`Sampler::finish`].
#[derive(Debug, Clone)]
pub struct TelemetryRun {
    /// Interval the run actually used.
    pub interval_ms: u64,
    /// Every snapshot taken, in order; the last one is taken *after*
    /// the workers exited, so its counters equal the final stats.
    pub samples: Vec<TelemetrySample>,
    /// JSONL artifact path, if streaming was enabled.
    pub jsonl_path: Option<String>,
    /// Data lines written to the JSONL artifact (excludes header).
    pub jsonl_lines: u64,
    /// First JSONL I/O error, if any (the run itself never fails).
    pub jsonl_error: Option<String>,
    /// Bound exposition address, if the listener was enabled.
    pub prom_addr: Option<String>,
    /// Scrapes the listener served.
    pub scrapes: u64,
    /// Final rx-thread counters (socket ingestion runs only).
    pub rx_totals: Option<RxSample>,
    /// Final slab-pool counters (slab-backed sources only).
    pub slab_totals: Option<falcon_packet::SlabSample>,
}

/// Handle to the running sampler thread.
pub struct Sampler {
    stop: Arc<AtomicBool>,
    handle: JoinHandle<TelemetryRun>,
    prom_addr: Option<std::net::SocketAddr>,
}

impl Sampler {
    /// Spawns the sampler over `hub`, snapshotting every
    /// `cfg.interval_ms` using `now_ns` for run-relative timestamps
    /// (pass the dataplane epoch so counter tracks line up with the
    /// trace). Binding `cfg.prom_addr` happens here, so a bad address
    /// fails fast instead of inside the thread, and the listener serves
    /// a parseable (all-zero) exposition from the moment this returns.
    pub fn spawn<F>(hub: Arc<Hub>, now_ns: F, cfg: SamplerConfig) -> std::io::Result<Sampler>
    where
        F: Fn() -> u64 + Send + 'static,
    {
        let prom = match &cfg.prom_addr {
            Some(addr) => Some(PromServer::bind(addr)?),
            None => None,
        };
        // Serve the zeroed exposition until the first tick, so a scrape
        // that lands as soon as the address is known already parses.
        if let Some(p) = &prom {
            p.publish(prom::render(now_ns(), &hub.zeroed(), hub.stage_labels()));
        }
        let prom_addr = prom.as_ref().map(|p| p.local_addr());
        let stop = Arc::new(AtomicBool::new(false));
        let thread_stop = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("falcon-sampler".into())
            .spawn(move || sampler_loop(hub, now_ns, cfg, prom, thread_stop))?;
        Ok(Sampler {
            stop,
            handle,
            prom_addr,
        })
    }

    /// The bound exposition address (useful with port 0).
    pub fn prom_addr(&self) -> Option<std::net::SocketAddr> {
        self.prom_addr
    }

    /// Stops the sampler. The thread takes one final snapshot after
    /// observing the stop flag, so everything the workers published
    /// before this call is captured; call it after joining the
    /// workers and the deltas telescope exactly to the final stats.
    pub fn finish(self) -> TelemetryRun {
        self.stop.store(true, Ordering::Release);
        self.handle.join().expect("sampler thread never panics")
    }
}

fn sampler_loop<F: Fn() -> u64>(
    hub: Arc<Hub>,
    now_ns: F,
    cfg: SamplerConfig,
    prom: Option<PromServer>,
    stop: Arc<AtomicBool>,
) -> TelemetryRun {
    let interval_ms = cfg.interval_ms.max(1);
    let mut out = TelemetryRun {
        interval_ms,
        samples: Vec::new(),
        jsonl_path: cfg.jsonl_path.clone(),
        jsonl_lines: 0,
        jsonl_error: None,
        prom_addr: prom.as_ref().map(|p| p.local_addr().to_string()),
        scrapes: 0,
        rx_totals: None,
        slab_totals: None,
    };
    let stages: Vec<String> = hub.stage_labels().to_vec();
    let mut writer = match &cfg.jsonl_path {
        Some(path) => match std::fs::File::create(path) {
            Ok(f) => {
                let mut w = std::io::BufWriter::new(f);
                let head = jsonl::header_line(&cfg.meta, interval_ms, hub.workers(), &stages);
                if let Err(e) = writeln!(w, "{head}") {
                    out.jsonl_error = Some(e.to_string());
                }
                Some(w)
            }
            Err(e) => {
                out.jsonl_error = Some(e.to_string());
                None
            }
        },
        None => None,
    };

    let mut prev = hub.zeroed();
    let mut prev_rx = RxSample::default();
    let mut prev_slab = falcon_packet::SlabSample::default();
    loop {
        let stopping = stop.load(Ordering::Acquire);
        let t = now_ns();
        let cur = hub.snapshot();
        let cur_rx = hub.rx_snapshot();
        let cur_slab = hub.slab_snapshot();
        if let Some(w) = writer.as_mut() {
            let mut lines = jsonl::sample_lines(t, &cur, &prev, &stages);
            if let Some(rx) = cur_rx.as_ref() {
                lines.push(jsonl::delta_line("rx", t, RX, rx, &prev_rx));
            }
            if let Some(slab) = cur_slab.as_ref() {
                lines.push(jsonl::delta_line("slab", t, SLAB, slab, &prev_slab));
            }
            for line in lines {
                match writeln!(w, "{line}") {
                    Ok(()) => out.jsonl_lines += 1,
                    Err(e) => {
                        if out.jsonl_error.is_none() {
                            out.jsonl_error = Some(e.to_string());
                        }
                    }
                }
            }
        }
        if let Some(p) = prom.as_ref() {
            let mut body = prom::render(t, &cur, &stages);
            if let Some(rx) = cur_rx.as_ref() {
                body.push_str(&prom::render_family(RX, rx));
            }
            if let Some(slab) = cur_slab.as_ref() {
                body.push_str(&prom::render_family(SLAB, slab));
            }
            p.publish(body);
        }
        if let Some(rx) = cur_rx.as_ref() {
            prev_rx = rx.clone();
            out.rx_totals = Some(rx.clone());
        }
        if let Some(slab) = cur_slab.as_ref() {
            prev_slab = *slab;
            out.slab_totals = Some(*slab);
        }
        out.samples.push(TelemetrySample {
            t_ns: t,
            workers: cur.clone(),
            rx: cur_rx,
            slab: cur_slab,
        });
        prev = cur;
        if stopping {
            break;
        }
        sleep_interruptible(Duration::from_millis(interval_ms), &stop);
    }
    if let Some(mut w) = writer.take() {
        if let Err(e) = w.flush() {
            if out.jsonl_error.is_none() {
                out.jsonl_error = Some(e.to_string());
            }
        }
    }
    if let Some(p) = prom {
        out.scrapes = p.shutdown();
    }
    out
}

/// Sleeps up to `total`, returning early once `stop` is raised so a
/// long interval never delays shutdown.
fn sleep_interruptible(total: Duration, stop: &AtomicBool) {
    let chunk = Duration::from_millis(2);
    let mut slept = Duration::ZERO;
    while slept < total {
        if stop.load(Ordering::Acquire) {
            return;
        }
        let step = chunk.min(total - slept);
        std::thread::sleep(step);
        slept += step;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    fn test_meta() -> RunMeta {
        RunMeta::collect("telemetry-test", 2, 1, "test")
    }

    #[test]
    fn sampler_captures_final_state_and_deltas_telescope() {
        let (hub, mut writers) = Hub::new(2, vec!["a".into(), "b".into()], 5);
        let start = Instant::now();
        let sampler = Sampler::spawn(
            Arc::clone(&hub),
            move || start.elapsed().as_nanos() as u64,
            SamplerConfig {
                interval_ms: 1,
                jsonl_path: None,
                prom_addr: None,
                meta: test_meta(),
            },
        )
        .expect("spawn");
        // Simulate two workers publishing for a few milliseconds.
        for round in 1..=50u64 {
            for (w, writer) in writers.iter_mut().enumerate() {
                writer.write(|d| {
                    d.counters.sweeps = round;
                    d.counters.delivered = round * (w as u64 + 1);
                    d.stall.busy_ns = round * 100;
                    d.stall.wall_ns = round * 120;
                    d.stage_service_ns[0].record(250);
                });
            }
            std::thread::sleep(Duration::from_micros(200));
        }
        let run = sampler.finish();
        assert!(run.samples.len() >= 2, "expected multiple ticks");
        let last = run.samples.last().unwrap();
        assert_eq!(last.workers[0].counters.delivered, 50);
        assert_eq!(last.workers[1].counters.delivered, 100);
        assert_eq!(last.workers[0].stage_service_ns[0].count(), 50);
        // Telescoping: summing interval deltas reproduces the final
        // cumulative counters exactly.
        for w in 0..2 {
            let mut total = crate::shard::ShardCounters::zeroed(2, 5);
            let mut prev = WorkerSample::zeroed(2, 5);
            for s in &run.samples {
                total.accumulate(&s.workers[w].counters.delta_since(&prev.counters));
                prev = s.workers[w].clone();
            }
            assert_eq!(total, last.workers[w].counters, "worker {w}");
        }
        // Timestamps are monotonic.
        for pair in run.samples.windows(2) {
            assert!(pair[0].t_ns <= pair[1].t_ns);
        }
    }

    #[test]
    fn sampler_streams_jsonl_and_serves_prometheus() {
        let dir = std::env::temp_dir().join("falcon-telemetry-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("sampler-{}.jsonl", std::process::id()));
        let (hub, mut writers) = Hub::new(1, vec!["a".into()], 5);
        // The clock holds the sampler thread before its first snapshot
        // until `release` drops; `spawn`'s own reading goes through.
        let (release, gate) = std::sync::mpsc::channel::<()>();
        let gate = std::sync::Mutex::new(gate);
        let start = Instant::now();
        let sampler = Sampler::spawn(
            Arc::clone(&hub),
            move || {
                if std::thread::current().name() == Some("falcon-sampler") {
                    let _ = gate.lock().unwrap().recv();
                }
                start.elapsed().as_nanos() as u64
            },
            SamplerConfig {
                interval_ms: 1,
                jsonl_path: Some(path.to_string_lossy().into_owned()),
                prom_addr: Some("127.0.0.1:0".into()),
                meta: test_meta(),
            },
        )
        .expect("spawn");
        // Before the first tick the listener serves the zeroed state.
        let addr = sampler.prom_addr().expect("prom bound");
        let body = crate::prom::scrape(&addr).expect("scrape");
        assert!(body.contains("falcon_worker_delivered_total{worker=\"0\"} 0"));
        drop(release);
        writers[0].write(|d| {
            d.counters.delivered = 9;
            d.counters.sweeps = 9;
        });
        std::thread::sleep(Duration::from_millis(10));
        let body = crate::prom::scrape(&addr).expect("scrape");
        assert!(body.contains("falcon_worker_delivered_total{worker=\"0\"} 9"));
        let run = sampler.finish();
        assert_eq!(run.scrapes, 2);
        assert!(run.jsonl_error.is_none(), "{:?}", run.jsonl_error);
        assert!(run.jsonl_lines >= 1);
        let text = std::fs::read_to_string(&path).unwrap();
        let mut lines = text.lines();
        let head = serde_json::from_str(lines.next().unwrap()).expect("header parses");
        assert_eq!(
            head.get("kind").and_then(serde::Value::as_str),
            Some("header")
        );
        for line in lines {
            serde_json::from_str(line).expect("sample line parses");
        }
        std::fs::remove_file(&path).ok();
    }
}
