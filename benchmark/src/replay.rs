//! The traced replay: a workload's pre-built frames pushed one at a time,
//! on one thread, through each layer's public functions in executor
//! order. Every call is an in-memory span (name, start, end, parent);
//! spans of one packet share its id. The spans are written out as a
//! Chrome trace at the end, and their medians are the per-layer costs.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

use falcon_conntrack::ConnShard;
use falcon_dataplane::steer::release;
use falcon_dataplane::{ring, DepthGauge, FlowTable, Policy, PolicyKind};
use falcon_packet::checksum::internet_checksum;
use falcon_packet::{mix64, SlabPool};
use falcon_wire::{
    bridge_lookup, conn_observe, deliver_verify, flow_cache_key, full_verdict, gro_coalesce,
    pnic_verify, vxlan_decap, Fdb, FlowCache, FrameFactory, Lookup, SharedFdb,
};

use crate::source::{slab_config, Inputs};
use crate::stats::median;
use crate::workloads::{Workload, FLOW_CACHE_ENTRIES, WORKERS};

/// Steering devices of the executor's B→C and C→D hops.
const VXLAN_IF: u32 = 2;
const VETH_IF: u32 = 3;

/// One recorded call.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub pkt: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Bytes the call processed (0 when not a byte loop).
    pub bytes: u64,
}

/// In-memory span recorder.
struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Times `f` as a span named `name` under `parent`.
    fn span<T>(
        &mut self,
        name: &'static str,
        pkt: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let start_ns = self.now();
        let out = std::hint::black_box(f());
        let end_ns = self.now();
        self.spans.push(Span {
            name,
            pkt,
            start_ns,
            end_ns,
            parent,
            bytes: 0,
        });
        out
    }
}

/// What the replay produced.
#[derive(Debug)]
pub struct Replay {
    pub spans: Vec<Span>,
    /// Per-layer medians, by metric name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Frames whose delivery digest differed from their template's, or
    /// that a layer rejected.
    pub failures: u64,
}

/// Replays `packets` of the workload's frames.
pub fn run(w: &Workload, inputs: &Inputs, packets: u64) -> Replay {
    let factory = FrameFactory::default();
    let fdb = SharedFdb::new(Fdb::for_flows(&factory, w.flow_space));
    let host_mac = FrameFactory::host_mac();
    let mut pool = SlabPool::new(slab_config(w.traffic, 64));
    let mut cache = FlowCache::new(FLOW_CACHE_ENTRIES);
    let mut shard = ConnShard::new();
    let flows = FlowTable::new(WORKERS * 4);
    let policy = Policy::new(PolicyKind::Falcon, WORKERS);
    let depths = DepthGauge::new(WORKERS, 64);
    let (mut tx, mut rx) = ring::<u64>(64);
    let mut rec = Recorder {
        epoch: Instant::now(),
        spans: Vec::with_capacity(packets as usize * 18),
    };
    let mut failures = 0u64;

    for i in 0..packets {
        let (fi, seq) = inputs.packet(i);
        let flow = inputs.flows[fi];
        let tpl = inputs.template(fi, seq);
        let root = rec.spans.len();
        rec.spans.push(Span {
            name: "replay.packet",
            pkt: i,
            start_ns: rec.now(),
            end_ns: 0,
            parent: None,
            bytes: 0,
        });
        let p = Some(root);
        let mut buf = rec.span("slab.acquire_copy", i, p, || {
            let mut buf = pool.lease_shell();
            for bytes in &tpl.segs {
                let mut seg = pool.acquire(bytes.len());
                seg.vec_mut().clear();
                seg.vec_mut().extend_from_slice(bytes);
                buf.segs.push(seg);
            }
            buf
        });
        let ok = rec
            .span("wire.pnic_verify", i, p, || pnic_verify(&buf, host_mac))
            .is_ok()
            && rec
                .span("wire.gro_coalesce", i, p, || gro_coalesce(&mut buf))
                .is_ok();
        if !ok {
            failures += 1;
            falcon_packet::slab::recycle(buf);
            rec.spans[root].end_ns = rec.now();
            continue;
        }
        let key = rec.span("wire.flow_cache_key", i, p, || flow_cache_key(&buf.segs[0]));
        if let Some(key) = key {
            let epoch = fdb.epoch();
            let hit = rec.span("wire.cache_lookup", i, p, || cache.lookup(key, epoch));
            if matches!(hit, Lookup::Miss | Lookup::Stale) {
                if let Some(v) =
                    full_verdict(&buf.segs[0], host_mac, factory.vni, &fdb.read(), epoch)
                {
                    cache.insert(key, v);
                }
            }
        }
        let mut delivered = None;
        if rec
            .span("wire.vxlan_decap", i, p, || {
                vxlan_decap(&mut buf, factory.vni)
            })
            .is_ok()
            && rec
                .span("wire.bridge_lookup", i, p, || {
                    bridge_lookup(&buf, &fdb.read())
                })
                .is_ok()
        {
            let inner = buf.inner_frame().unwrap_or_default();
            if let Some(obs) = rec.span("wire.conn_observe", i, p, || conn_observe(inner)) {
                rec.span("conntrack.record", i, p, || {
                    shard.record(obs.key, obs.flags, obs.payload_len, seq)
                });
            }
            delivered = rec
                .span("wire.deliver_verify", i, p, || deliver_verify(&buf))
                .ok();
            rec.span("packet.checksum", i, p, || internet_checksum(inner));
            rec.spans.last_mut().expect("just pushed").bytes = inner.len() as u64;
            rec.span("packet.mix64", i, p, || mix64(seq, inner));
            rec.spans.last_mut().expect("just pushed").bytes = inner.len() as u64;
        }
        if delivered.is_none_or(|d| d.digest != tpl.digest) {
            failures += 1;
        }
        rec.span("steer.route", i, p, || {
            let route = flows.route(flow, VXLAN_IF, fi % WORKERS);
            release(&route.guard, i);
            route.worker
        });
        let hash = inputs.rss[fi];
        rec.span("steer.choose", i, p, || {
            policy.choose(hash, VETH_IF, &depths)
        });
        rec.span("spsc.hop", i, p, || {
            tx.try_push(i).ok();
            rx.pop()
        });
        rec.span("slab.recycle", i, p, || {
            falcon_packet::slab::recycle(buf);
            pool.drain_returns();
        });
        rec.spans[root].end_ns = rec.now();
    }

    let mut by_name: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for s in &rec.spans {
        let dur = (s.end_ns - s.start_ns) as f64;
        let v = if s.bytes > 0 {
            dur * 1024.0 / s.bytes as f64
        } else {
            dur
        };
        by_name.entry(s.name).or_default().push(v);
    }
    let metrics = crate::metrics::REPLAY
        .iter()
        .map(|&(metric, _, _)| {
            let span = metric
                .trim_end_matches("_ns_per_kb")
                .trim_end_matches("_ns");
            (metric, by_name.get(span).map_or(0.0, |v| median(v)))
        })
        .collect();
    Replay {
        spans: rec.spans,
        metrics,
        failures,
    }
}

/// Self time of each span: its duration minus what its children cover.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut out: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            out[p] = out[p].saturating_sub(s.end_ns - s.start_ns);
        }
    }
    out
}

/// Writes spans as Chrome trace-event JSON (open in ui.perfetto.dev).
pub fn write_chrome_trace(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let selfs = self_times(spans);
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(f, "{{\"displayTimeUnit\":\"ns\",\"traceEvents\":[")?;
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            f,
            "{}{{\"name\":\"{}\",\"cat\":\"replay\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"pkt\":{},\"span\":{i},\"parent\":{parent},\"self_ns\":{}}}}}",
            if i == 0 { "" } else { "," },
            s.name,
            s.start_ns as f64 / 1e3,
            (s.end_ns - s.start_ns) as f64 / 1e3,
            s.pkt,
            selfs[i],
        )?;
    }
    writeln!(f, "]}}")?;
    f.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let span = |start_ns, end_ns, parent| Span {
            name: "x",
            pkt: 0,
            start_ns,
            end_ns,
            parent,
            bytes: 0,
        };
        let spans = [
            span(0, 100, None),
            span(10, 30, Some(0)),
            span(40, 90, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 50]);
    }
}
