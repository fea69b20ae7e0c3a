//! The rx thread: socket → [`WireBuf`](falcon_packet::WireBuf) → executor rings.
//!
//! This is the live replacement for the synthetic injector loop. It
//! drains the socket in batches straight into slab-pool slots, frames
//! each datagram into a single-segment [`WireBuf`](falcon_packet::WireBuf)
//! without parsing anything beyond the outer UDP source port (the flow
//! is recovered from the RSS-style port mapping the [`FrameFactory`]
//! uses, exactly what a NIC's 5-tuple hash would key on), and hands
//! descriptors to the [`Injector`]. The kernel's copy into the iovec
//! is the only copy a frame sees: [`RecvBatch::take_wire`] moves the
//! filled slot downstream instead of copying out of recycled scratch.
//! Steering, guards, stages, and telemetry downstream are untouched —
//! the pipeline cannot tell live frames from synthetic ones, which is
//! what makes the differential oracle fair.
//!
//! [`FrameFactory`]: falcon_wire::FrameFactory

use std::collections::HashMap;
use std::io;
use std::time::{Duration, Instant};

use falcon_dataplane::{rss_hash_for_flow, Injector};
use falcon_packet::{PktDesc, SlabPool};

use crate::rx::{BatchRx, RecvBatch};

/// Smallest frame the wire pipeline can possibly accept: outer
/// eth(14) + IPv4(20) + UDP(8) + VXLAN(8) headers plus an inner
/// eth + IPv4 + UDP set with an empty payload. Anything shorter is
/// counted as a runt and never enters the rings — the stages would
/// reject it anyway, but dropping it here keeps the rx/injected
/// conservation identity exact.
pub const MIN_DATAGRAM: usize = 92;

/// Byte offset of the outer UDP source port in a VXLAN frame
/// (eth 14 + IPv4 20).
const OUTER_SPORT_OFF: usize = 34;

/// Base of the factory's flow→source-port mapping.
const SPORT_BASE: u16 = 49152;

/// Rx-loop tuning.
#[derive(Clone, Debug)]
pub struct RxConfig {
    /// Datagrams per batched read.
    pub batch: usize,
    /// After the sender finishes, keep draining until the socket has
    /// been silent this long (covers loopback delivery latency).
    pub drain_ms: u64,
}

impl Default for RxConfig {
    fn default() -> Self {
        RxConfig {
            batch: 32,
            drain_ms: 60,
        }
    }
}

/// What the rx thread saw, for reports and conservation checks.
#[derive(Clone, Debug)]
pub struct RxStats {
    /// Datagrams read off the socket.
    pub datagrams: u64,
    /// Non-empty batched reads.
    pub batches: u64,
    /// Empty polls (`EAGAIN` spins).
    pub eagain_spins: u64,
    /// Datagrams below [`MIN_DATAGRAM`], dropped pre-pipeline.
    pub runts: u64,
    /// Kernel receive-queue overflow count (`SO_RXQ_OVFL`), if the
    /// socket reported one.
    pub sock_drops: Option<u64>,
    /// Descriptors handed to the injector (`datagrams - runts`).
    pub injected: u64,
    /// `batch_hist[n]` = how many reads returned exactly `n`
    /// datagrams (index 0 unused; empty reads are `eagain_spins`).
    pub batch_hist: Vec<u64>,
    /// Which receive backend ran ("recvmmsg" or "recv-loop").
    pub backend: &'static str,
}

/// Drains `rx` into the pipeline until `tx_done()` holds and the
/// socket has stayed silent for `cfg.drain_ms`. Each datagram gets an
/// rx-assigned arrival sequence per flow (the sender's own seq lives
/// inside the encrypted-to-us payload; arrival order is what the
/// order tracker and oracle key on) and the same RSS hash the
/// synthetic injector would have used, so steering decisions match.
pub fn rx_into_pipeline(
    rx: &mut dyn BatchRx,
    inj: &mut Injector,
    tx_done: impl Fn() -> bool,
    cfg: &RxConfig,
) -> RxStats {
    let counters = inj.enable_rx_telemetry();
    // The run's pool sizing, plus the receive batch this thread keeps
    // armed for the kernel on top of what is in flight downstream.
    let mut slab = inj.slab_config();
    slab.mtu_slots += cfg.batch;
    let mut batch = RecvBatch::with_pool(cfg.batch, SlabPool::new(slab));
    if let Some(pool) = batch.pool() {
        inj.attach_slab_counters(pool.counters());
    }
    // Everything the rx counters do not already count.
    let mut sock_drops = None;
    let mut injected = 0;
    let mut batch_hist = vec![0; batch.capacity() + 1];
    let mut arrival_seq: HashMap<u64, u64> = HashMap::new();
    let mut next_id: u64 = 0;
    let drain = Duration::from_millis(cfg.drain_ms);
    let mut last_rx = Instant::now();

    loop {
        match rx.recv_batch(&mut batch) {
            Ok(n) => {
                last_rx = Instant::now();
                batch_hist[n.min(batch.capacity())] += 1;
                counters.add_batch(n as u64);
                for i in 0..n {
                    let bytes = batch.datagram(i);
                    if bytes.len() < MIN_DATAGRAM {
                        counters.add_runt();
                        continue;
                    }
                    let sport =
                        u16::from_be_bytes([bytes[OUTER_SPORT_OFF], bytes[OUTER_SPORT_OFF + 1]]);
                    let flow = sport.wrapping_sub(SPORT_BASE) as u64;
                    let len = bytes.len();
                    let seq_slot = arrival_seq.entry(flow).or_insert(0);
                    let seq = *seq_slot;
                    *seq_slot += 1;
                    let desc = PktDesc::new(
                        next_id,
                        flow,
                        seq,
                        rss_hash_for_flow(flow),
                        (len - MIN_DATAGRAM) as u32,
                    )
                    .with_wire(batch.take_wire(i));
                    next_id += 1;
                    injected += 1;
                    inj.inject(desc);
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                counters.add_eagain();
                if tx_done() && last_rx.elapsed() > drain {
                    break;
                }
                std::thread::yield_now();
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => {
                // A hard socket error ends ingestion; the loss shows
                // up in the conservation identity rather than hanging
                // the run.
                eprintln!("falcon-ingest: rx socket error: {e}");
                break;
            }
        }
        if let Some(d) = batch.sock_drops {
            sock_drops = Some(d);
            counters.set_sock_drops(d);
        }
    }
    // Sweep any buffers the workers recycled after the last acquire so
    // the pool's return counter reflects the whole run.
    batch.drain_returns();
    let totals = counters.snapshot();
    RxStats {
        datagrams: totals.datagrams,
        batches: totals.batches,
        eagain_spins: totals.eagain_spins,
        runts: totals.runts,
        sock_drops,
        injected,
        batch_hist,
        backend: rx.backend(),
    }
}
