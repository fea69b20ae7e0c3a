//! Allocation conformance for the wire-mode hot path.
//!
//! The slab pool's whole reason to exist is that the steady-state
//! packet path — build frame in a pooled slot, inject, run every
//! stage, deliver, recycle — touches the allocator **zero** times per
//! packet. Claims like that rot silently, so this harness wraps the
//! global allocator in a counting shim and measures the real pipeline:
//! after a warmup lap primes the pool, the flow tables, and every
//! preallocated log, a measured batch of packets must drive the
//! process-wide allocation count up by exactly zero.
//!
//! The same harness proves the fallback story: a deliberately starved
//! pool (a handful of slots against thousands of in-flight packets)
//! must keep the run correct while counting its heap fallbacks
//! honestly.
//!
//! TCP messages cost exactly one allocation each: GRO's merged frame,
//! allocated once at its final size. Everything else on their path
//! (segment leases, the consumed segments riding home in the shell,
//! shell recycling) stays allocation-free once each shell in use has
//! been through GRO once (its spent list allocates then, not at mint).
//!
//! All legs live in ONE `#[test]` — the measurement window spans
//! every thread in the process, so nothing else may run concurrently.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use falcon_dataplane::{
    rss_hash_for_flow, run_scenario, run_scenario_from, Injector, PolicyKind, Scenario,
    TrafficShape,
};
use falcon_packet::{PktDesc, SlabConfig, SlabPool};
use falcon_wire::{FrameFactory, SlabFrameBuilder};

/// Counts every allocator entry point; frees are irrelevant to the
/// zero-alloc claim (recycling *releases* memory, it must not acquire
/// any).
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

// SAFETY: pure pass-through to `System` plus a relaxed counter bump.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

const FLOWS: u64 = 4;
const PAYLOAD: usize = 512;
const WARMUP: u64 = 6_000;
const MEASURED: u64 = 2_000;

fn wire_scenario(packets: u64) -> Scenario {
    Scenario {
        policy: PolicyKind::Vanilla,
        workers: 2,
        flows: FLOWS,
        packets,
        payload: PAYLOAD,
        work_scale_milli: 100,
        inject_gap_ns: 0,
        pin: false,
        oversubscribe: true,
        // Tracing off: the trace ring is preallocated anyway, but the
        // measured window should exercise exactly the shipping path.
        trace_capacity: 0,
        wire: true,
        ..Scenario::default()
    }
}

/// The TCP leg's message length and MSS: three segments per message,
/// the sf-tcp4k shape.
const TCP_MSG: usize = 4096;
const TCP_MSS: usize = 1448;

fn tcp_scenario(packets: u64) -> Scenario {
    Scenario {
        payload: TCP_MSG,
        shape: TrafficShape::TcpGro { mss: TCP_MSS },
        ..wire_scenario(packets)
    }
}

/// TCP messages per injected burst (see [`Source::send`]).
const TCP_BURST: usize = 64;

/// The test's packet source: a roomy slab pool, the frame builder and
/// each flow's next sequence number.
struct Source {
    pool: SlabPool,
    builder: SlabFrameBuilder,
    seqs: Vec<u64>,
    tcp: bool,
    /// A TCP burst, built whole before any of it is injected.
    staged: Vec<PktDesc>,
}

impl Source {
    fn build(&mut self, i: u64) -> PktDesc {
        let flow = i % FLOWS;
        let seq = self.seqs[flow as usize];
        self.seqs[flow as usize] += 1;
        let pool = &mut self.pool;
        let (wire, len) = if self.tcp {
            let wire = self.builder.tcp_wire(pool, flow, seq, TCP_MSG, TCP_MSS);
            (wire, TCP_MSG)
        } else {
            (self.builder.udp_wire(pool, flow, seq, PAYLOAD), PAYLOAD)
        };
        PktDesc::new(i, flow, seq, rss_hash_for_flow(flow), len as u32).with_wire(wire)
    }

    /// Injects packets `range`, then waits for the pipeline to go idle
    /// and takes every returned buffer back. UDP packets go out one by
    /// one as they are built. TCP messages go out in bursts, each built
    /// whole and drained before the next, so every burst leases the
    /// same shells off the top of the pool's stack: a shell's spent
    /// list allocates once, on its first GRO, and this keeps the
    /// measured window on shells the warmup already used.
    fn send(&mut self, inj: &mut Injector, range: std::ops::Range<u64>) {
        if !self.tcp {
            for i in range {
                let desc = self.build(i);
                inj.inject(desc);
            }
        } else {
            for start in range.clone().step_by(TCP_BURST) {
                for i in start..(start + TCP_BURST as u64).min(range.end) {
                    let desc = self.build(i);
                    self.staged.push(desc);
                }
                for desc in self.staged.drain(..) {
                    inj.inject(desc);
                }
                inj.wait_quiesced();
                self.pool.drain_returns();
            }
        }
        inj.wait_quiesced();
        self.pool.drain_returns();
    }
}

/// Runs `scenario` (`WARMUP + MEASURED` packets) from a roomy slab
/// pool and returns its output with the process-wide allocation count
/// and the pool's fallbacks over the measured batch, which starts from
/// an idle pipeline with every recycled buffer back on the freelists.
fn measure(scenario: &Scenario, tcp: bool) -> (falcon_dataplane::RunOutput, (u64, u64)) {
    run_scenario_from(scenario, move |inj| {
        // Plenty of headroom over ring capacity so exhaustion can't
        // sneak a fallback allocation into the measured window.
        let cfg = SlabConfig {
            mtu_slots: 4096,
            ..SlabConfig::default()
        };
        let mut src = Source {
            pool: SlabPool::new(cfg),
            builder: SlabFrameBuilder::new(FrameFactory::default()),
            seqs: vec![0u64; FLOWS as usize],
            tcp,
            staged: Vec::with_capacity(TCP_BURST),
        };
        let counters = src.pool.counters();
        inj.attach_slab_counters(src.pool.counters());

        src.send(inj, 0..WARMUP);
        let before = ALLOCS.load(Ordering::SeqCst);
        src.send(inj, WARMUP..WARMUP + MEASURED);
        let after = ALLOCS.load(Ordering::SeqCst);

        (after - before, counters.snapshot().fallbacks)
    })
}

/// Leg 1: after warmup, a measured batch of UDP wire packets through
/// the full two-worker pipeline performs zero allocations anywhere in
/// the process. Leg 2: a measured batch of three-segment TCP messages
/// performs exactly one allocation per message. Leg 3: a starved pool
/// falls back to the heap, counts every fallback, and the run still
/// completes correctly.
#[test]
fn wire_steady_state_allocates_nothing_and_exhaustion_is_counted() {
    // ---- Leg 1: steady state is alloc-free. -------------------------
    let (out, (delta, fallbacks_live)) = measure(&wire_scenario(WARMUP + MEASURED), false);
    assert_eq!(
        out.delivered(),
        WARMUP + MEASURED,
        "alloc run must deliver everything (drops would skew the count)"
    );
    assert_eq!(
        fallbacks_live, 0,
        "steady-state leg must never fall back to the heap"
    );
    assert_eq!(
        delta, 0,
        "steady-state wire path allocated {delta} times over {MEASURED} packets"
    );

    // ---- Leg 2: a TCP message allocates its merged frame only. -----
    let (out, (delta, fallbacks_live)) = measure(&tcp_scenario(WARMUP + MEASURED), true);
    assert_eq!(
        out.delivered(),
        WARMUP + MEASURED,
        "TCP alloc run must deliver everything"
    );
    assert_eq!(
        fallbacks_live, 0,
        "TCP leg must never fall back to the heap"
    );
    assert_eq!(
        delta, MEASURED,
        "steady-state TCP path allocated {delta} times over {MEASURED} messages \
         (one merged frame each expected)"
    );

    // ---- Leg 3: exhaustion falls back, visibly. ---------------------
    let mut starved = wire_scenario(3_000);
    starved.slab_slots = 8;
    let out = run_scenario(&starved);
    assert_eq!(out.delivered(), 3_000, "starved run still delivers");
    let slab = out.slab.expect("wire run reports slab counters");
    assert!(slab.leases > 0, "starved pool still leases its 8 slots");
    assert!(
        slab.fallbacks > 0,
        "8 slots against 3000 packets must overflow to the heap"
    );
}
