//! The benchmark's own packet source: frames are pre-built in set-up, so
//! the timed loop only leases slab slots, copies bytes into them and
//! calls [`Injector::inject`] — the numbers measure the dataplane, not
//! the frame generator.

use std::collections::HashMap;
use std::time::Instant;

use falcon_dataplane::{
    clamp_workers, core_plan, pin_current_thread, rss_hash_for_flow, spin_for_ns, Injector, Policy,
    PolicyKind,
};
use falcon_packet::slab::MTU_SLOT;
use falcon_packet::{PktDesc, SlabConfig, SlabPool};
use falcon_wire::FrameFactory;

use crate::workloads::{Traffic, Workload, BURST, PACED_BURST, WORKERS};

/// Distinct payloads kept per flow, capped so the template set stays a
/// few tens of MiB; flows reuse them cyclically.
const TEMPLATE_BUDGET: usize = 16_384;

/// One pre-built frame: its wire segments and the digest the delivery
/// stage must report for it.
#[derive(Debug)]
pub struct Template {
    pub segs: Vec<Vec<u8>>,
    pub digest: u64,
}

/// A workload's generated inputs: the flows it offers and the frames it
/// sends. A pure function of the workload and the seed.
#[derive(Debug)]
pub struct Inputs {
    pub flows: Vec<u64>,
    pub rss: Vec<u32>,
    /// `flow id -> index into flows`.
    pub flow_index: HashMap<u64, usize>,
    /// Templates per flow; packet `seq` of flow `f` carries template
    /// `f * per_flow + seq % per_flow`.
    pub per_flow: usize,
    pub templates: Vec<Template>,
    pub traffic: Traffic,
}

/// splitmix64: the benchmark's only source of randomness.
pub fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Picks `w.flows` distinct flow ids from `0..w.flow_space`, the same
/// number landing on each RSS worker, so two seeds offer equally
/// balanced load and differ only in which flows and payloads they use.
fn pick_flows(w: &Workload, seed: u64) -> Vec<u64> {
    if w.flows as u64 >= w.flow_space {
        return (0..w.flow_space).collect();
    }
    let rss = Policy::new(PolicyKind::Vanilla, WORKERS);
    let per_worker = w.flows.div_ceil(WORKERS);
    let mut taken = [0usize; WORKERS];
    let mut seen = std::collections::HashSet::new();
    let mut flows = Vec::with_capacity(w.flows);
    let mut state = seed;
    while flows.len() < w.flows {
        state = mix(state);
        let flow = state % w.flow_space;
        let worker = rss.rss_worker(rss_hash_for_flow(flow));
        if taken[worker] < per_worker && seen.insert(flow) {
            taken[worker] += 1;
            flows.push(flow);
        }
    }
    flows
}

impl Inputs {
    /// Builds every template with the program's own frame factory.
    pub fn build(w: &Workload, seed: u64) -> Inputs {
        let flows = pick_flows(w, seed);
        let per_flow = (TEMPLATE_BUDGET / flows.len()).clamp(1, 1024);
        // The seed also shifts which messages of each flow are sent, so
        // payload bytes (and digests) differ between seeds.
        let seq_base = mix(seed ^ 0x5EED) % (1 << 20);
        let factory = FrameFactory::default();
        let payload = w.traffic.payload();
        let mut templates = Vec::with_capacity(flows.len() * per_flow);
        for &flow in &flows {
            for k in 0..per_flow as u64 {
                let seq = seq_base + k;
                templates.push(Template {
                    segs: match w.traffic {
                        Traffic::Udp { payload } => factory.udp_wire(flow, seq, payload),
                        Traffic::Tcp { msg, mss } => factory.tcp_wire(flow, seq, msg, mss),
                    },
                    digest: FrameFactory::expected_digest(flow, seq, payload),
                });
            }
        }
        Inputs {
            rss: flows.iter().map(|&f| rss_hash_for_flow(f)).collect(),
            flow_index: flows.iter().enumerate().map(|(i, &f)| (f, i)).collect(),
            flows,
            per_flow,
            templates,
            traffic: w.traffic,
        }
    }

    /// Packet `i` of a leg: (flow index, per-flow seq). Flows take turns.
    pub fn packet(&self, i: u64) -> (usize, u64) {
        let n = self.flows.len() as u64;
        ((i % n) as usize, i / n)
    }

    /// The template packet `seq` of flow index `fi` carries.
    pub fn template(&self, fi: usize, seq: u64) -> &Template {
        &self.templates[fi * self.per_flow + (seq % self.per_flow as u64) as usize]
    }

    /// Packet index of `(flow, seq)`, inverting [`Inputs::packet`].
    pub fn index_of(&self, flow: u64, seq: u64) -> Option<u64> {
        let fi = *self.flow_index.get(&flow)?;
        Some(seq * self.flows.len() as u64 + fi as u64)
    }
}

/// A slab pool holding four saturating bursts (the one in flight, the
/// next one being built, and slack); paced legs keep far fewer packets
/// in flight. Exhaustion is not an error: the pool falls back to the heap
/// and counts it (`slab.fallbacks`).
pub fn slab_config(traffic: Traffic, packets: u64) -> SlabConfig {
    let slots = packets.min(4 * BURST) as usize * traffic.segments() + 64;
    let seg = match traffic {
        Traffic::Udp { payload } => payload,
        Traffic::Tcp { mss, .. } => mss,
    };
    if seg + 128 <= MTU_SLOT {
        SlabConfig {
            mtu_slots: slots,
            jumbo_slots: 0,
        }
    } else {
        SlabConfig {
            mtu_slots: 0,
            jumbo_slots: slots,
        }
    }
}

/// The core the generator pins itself to: the next one the dataplane's
/// pin plan would hand a worker. A free core when the host has one more
/// core than workers; otherwise the plan wraps and the generator shares
/// the first worker's core — the same core on every leg, so every policy
/// sees the same placement.
pub fn generator_core() -> usize {
    let workers = clamp_workers(WORKERS);
    core_plan(workers + 1)[workers]
}

/// What the source measured about itself during one leg.
#[derive(Debug, Default)]
pub struct SourceStats {
    /// When the source closure started running (end of the dataplane's
    /// set-up).
    pub started: Option<Instant>,
    /// The core the generator ran pinned to (`usize::MAX` = pinning
    /// failed).
    pub pinned_core: usize,
    /// Source run time, from building the first packet to the last
    /// inject (paced) or the last burst's drain (saturating), ns.
    pub active_ns: u64,
    /// Time spent inside `Injector::inject` and `wait_quiesced`, ns:
    /// the source waiting on the dataplane.
    pub blocked_ns: u64,
    /// Every 8th `inject` call's duration, ns.
    pub inject_ns: Vec<u64>,
    /// Paced legs: how late each packet was injected against its due
    /// time, ns, by packet index.
    pub late_ns: Vec<u64>,
}

/// How the source offers one leg's packets.
#[derive(Debug, Clone, Copy)]
pub struct Offer {
    pub packets: u64,
    /// Paced legs: gap between due times, ns. 0 = saturating: bursts of
    /// [`BURST`] packets, each injected once the previous one drained.
    pub gap_ns: u64,
    /// Extra busy time per packet while it is built, ns. Always 0 in
    /// measured legs; the generator-bound test uses it to slow the
    /// source down on purpose.
    pub stall_ns: u64,
}

/// Leases slots for packet `i`, copies its template in, and wraps it.
fn build(pool: &mut SlabPool, inputs: &Inputs, i: u64, stall_ns: u64) -> PktDesc {
    let (fi, seq) = inputs.packet(i);
    let mut buf = pool.lease_shell();
    for bytes in &inputs.template(fi, seq).segs {
        let mut seg = pool.acquire(bytes.len());
        let v = seg.vec_mut();
        v.clear();
        v.extend_from_slice(bytes);
        buf.segs.push(seg);
    }
    spin_for_ns(stall_ns);
    let payload = inputs.traffic.payload() as u32;
    PktDesc::new(i, inputs.flows[fi], seq, inputs.rss[fi], payload).with_wire(buf)
}

/// Injects one packet, timing the call.
fn inject_timed(inj: &mut Injector, desc: PktDesc, i: u64, stats: &mut SourceStats) {
    let t0 = inj.now_ns();
    inj.inject(desc);
    let dt = inj.now_ns() - t0;
    stats.blocked_ns += dt;
    if i.is_multiple_of(8) {
        stats.inject_ns.push(dt);
    }
}

/// Waits until epoch time `due`: sleeps while far ahead, then yields.
/// Never spins — on a small host the generator shares a core with a
/// worker, and a spinning generator would delay that worker by whole
/// scheduler slices.
fn wait_until(inj: &Injector, due: u64) {
    const SLEEP_MARGIN_NS: u64 = 60_000;
    let mut now = inj.now_ns();
    while now < due {
        if due - now > SLEEP_MARGIN_NS + 10_000 {
            std::thread::sleep(std::time::Duration::from_nanos(due - now - SLEEP_MARGIN_NS));
        } else {
            std::thread::yield_now();
        }
        now = inj.now_ns();
    }
}

/// The timed loop. Paced legs build each burst of [`PACED_BURST`]
/// packets, wait for its due time and inject it. Saturating legs inject
/// a pre-built burst back to back, build the next burst while the
/// pipeline works, then wait for it to drain: the latency of a burst's
/// packets is the time the dataplane takes to clear the queue in front
/// of them.
pub fn drive(inj: &mut Injector, inputs: &Inputs, mut pool: SlabPool, offer: Offer) -> SourceStats {
    let mut stats = SourceStats {
        started: Some(Instant::now()),
        inject_ns: Vec::with_capacity(offer.packets as usize / 8 + 1),
        late_ns: Vec::with_capacity(if offer.gap_ns > 0 {
            offer.packets as usize
        } else {
            0
        }),
        ..SourceStats::default()
    };
    stats.pinned_core = generator_core();
    if !pin_current_thread(stats.pinned_core) {
        stats.pinned_core = usize::MAX;
    }
    inj.attach_slab_counters(pool.counters());
    let begin = inj.now_ns();
    let burst_of = |start: u64, len: u64| start..(start + len).min(offer.packets);
    if offer.gap_ns > 0 {
        let mut burst = Vec::with_capacity(PACED_BURST as usize);
        for start in (0..offer.packets).step_by(PACED_BURST as usize) {
            burst.extend(
                burst_of(start, PACED_BURST).map(|i| build(&mut pool, inputs, i, offer.stall_ns)),
            );
            // Every packet of a burst is due when the burst is.
            let due = begin + start * offer.gap_ns;
            wait_until(inj, due);
            for (k, desc) in burst.drain(..).enumerate() {
                stats.late_ns.push(inj.now_ns() - due);
                inject_timed(inj, desc, start + k as u64, &mut stats);
            }
        }
    } else {
        let burst_of = |start: u64| burst_of(start, BURST);
        let mut burst: Vec<PktDesc> = burst_of(0)
            .map(|i| build(&mut pool, inputs, i, offer.stall_ns))
            .collect();
        let mut next = Vec::with_capacity(burst.len());
        let mut start = 0;
        while !burst.is_empty() {
            for (k, desc) in burst.drain(..).enumerate() {
                inject_timed(inj, desc, start + k as u64, &mut stats);
            }
            start = (start + BURST).min(offer.packets);
            next.extend(burst_of(start).map(|i| build(&mut pool, inputs, i, offer.stall_ns)));
            let t0 = inj.now_ns();
            inj.wait_quiesced();
            stats.blocked_ns += inj.now_ns() - t0;
            std::mem::swap(&mut burst, &mut next);
        }
    }
    stats.active_ns = inj.now_ns() - begin;
    inj.wait_quiesced();
    pool.drain_returns();
    stats
}
