//! Park/wake hand-off tests: the lost-wakeup stress for
//! [`ParkSlot`]'s handshake, and the executor's paced run in which every
//! hand-off meets a parked worker.
//!
//! Both need idle threads to actually reach the park tier, which takes
//! 64 spin and 64 yield steps. A yield is fast only when no other thread
//! wants the core, so these tests live in their own binary (cargo runs
//! test binaries one after another) and take [`SERIAL`] so they never
//! overlap each other either.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use falcon_dataplane::spsc::ring;
use falcon_dataplane::{run_scenario, ParkSlot, PolicyKind, Scenario, Wake};

static SERIAL: Mutex<()> = Mutex::new(());

/// Lost-wakeup stress for the park handshake: 100k single-item
/// hand-offs over one SPSC ring, the consumer parking on its slot every
/// time the ring is empty. The producer waits for each item to be taken
/// before publishing the next, so every publish meets the consumer
/// somewhere on its way into the park — before the flag, between the
/// flag and the re-check, or asleep. The park timeout is 10 s, so a
/// single lost wake-up alone pushes the run past the bound.
#[test]
fn park_slot_never_loses_a_wakeup() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    const HANDOFFS: u64 = 100_000;
    const TIMEOUT: Duration = Duration::from_secs(10);
    let slot = Arc::new(ParkSlot::new());
    let (mut tx, mut rx) = ring::<u64>(2);
    let (registered_tx, registered_rx) = std::sync::mpsc::channel();
    let consumer = {
        let slot = Arc::clone(&slot);
        std::thread::spawn(move || {
            slot.register();
            registered_tx.send(()).expect("producer is waiting");
            let (mut woken, mut timed_out) = (0u64, 0u64);
            let mut next = 0u64;
            while next < HANDOFFS {
                if let Some(v) = rx.pop() {
                    assert_eq!(v, next, "FIFO across the hand-off");
                    next += 1;
                    continue;
                }
                match slot.park(TIMEOUT, || !rx.is_empty()) {
                    Wake::Ready => {}
                    Wake::Woken => woken += 1,
                    Wake::TimedOut => timed_out += 1,
                }
            }
            (woken, timed_out)
        })
    };
    registered_rx.recv().expect("consumer registered");
    let start = Instant::now();
    for i in 0..HANDOFFS {
        // Poll hot, then yield: a pure spin would starve a consumer that
        // shares this core.
        let mut polls = 0u32;
        while !tx.is_empty() {
            polls += 1;
            if polls > 256 {
                std::thread::yield_now();
            }
        }
        // A varying delay sweeps the publish across the consumer's path
        // from its empty poll into the sleep.
        for k in 0..i % 64 {
            std::hint::black_box(k);
        }
        tx.try_push(i).expect("the consumer drained the ring");
        slot.wake();
    }
    let (woken, timed_out) = consumer.join().expect("consumer thread");
    let elapsed = start.elapsed();
    assert_eq!(timed_out, 0, "a park ended by its timeout: lost wake-up");
    assert!(
        woken > 0,
        "the consumer never slept; the test exercised nothing"
    );
    assert!(
        elapsed < TIMEOUT / 2,
        "{HANDOFFS} hand-offs took {elapsed:?}, not well under one {TIMEOUT:?} timeout"
    );
}

/// Packets 2 ms apart: every worker runs out of spin and yield steps
/// between packets and parks, so each injection and each cross-worker
/// hop is a hand-off to a parked worker. Every one of them must be woken
/// by its producer, never found by the safety timeout.
#[test]
fn paced_hand_offs_wake_parked_workers() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let s = Scenario {
        policy: PolicyKind::Falcon,
        workers: 2,
        packets: 150,
        flows: 3,
        ring_capacity: 256,
        napi_budget: 32,
        work_scale_milli: 20,
        inject_gap_ns: 2_000_000,
        pin: false,
        // Genuine cross-worker hops even on a 1-core host.
        oversubscribe: true,
        ..Scenario::default()
    };
    let out = run_scenario(&s);
    assert_eq!(out.delivered() + out.dropped(), out.injected);
    let (checks, violations) = out.order_audit();
    assert!(checks > 0);
    assert_eq!(violations, 0);
    let parks: u64 = out.workers_stats.iter().map(|w| w.idle_parks).sum();
    assert!(parks > 0, "paced workers never parked");
    let lost: u64 = out.workers_stats.iter().map(|w| w.lost_wakeups).sum();
    assert_eq!(
        lost, 0,
        "a parked worker waited out its timeout with work queued"
    );
}
