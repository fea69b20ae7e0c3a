//! Contract tests for the global flow-steering table ([`FlowTable`])
//! under concurrent route/release, through its public API only.
//!
//! The executor's ordering argument rests on four properties of the
//! table, each checked here with several threads racing on a handful of
//! (flow, device) pairs:
//!
//! 1. **One entry per key.** Threads racing the first route of one pair
//!    create exactly one entry, so `pairs()` is exact and every racer
//!    is told the same worker.
//! 2. **No migration in flight.** A pair changes worker only when its
//!    in-flight count was 0: all routes of one pair that are held at the
//!    same time name the same worker.
//! 3. **Drain.** Once every route is released, every count is 0 again,
//!    so every pair migrates on its next route.
//! 4. **Clock inheritance.** A migrated route's clock is at least that
//!    of every release that drained before it.
//!
//! A shadow model in the test tracks each pair's held routes. A route
//! joins the shadow after `route` returns and leaves it before
//! `release` runs, so the shadow's holders are always a subset of the
//! table's true in-flight set.
//!
//! Debug builds use a reduced operation count so `cargo test` stays
//! fast; the CI dataplane job runs this file with `--release`.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Barrier, Mutex};

use falcon_dataplane::steer::release;
use falcon_dataplane::FlowTable;

const THREADS: usize = 4;
const WORKERS: usize = 4;
/// Steering devices of the four-stage plan (pnic, vxlan0, veth0).
const DEVICES: [u32; 3] = [1, 2, 3];

/// Route/release operations per thread: many in release, fewer in debug.
fn ops_per_thread() -> usize {
    if cfg!(debug_assertions) {
        20_000
    } else {
        400_000
    }
}

/// Deterministic per-thread xorshift stream.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)
    }

    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Flow ids: a few consecutive ones (the synthetic source's) and a few
/// scattered ones (hash-like, as a live source's flows look).
fn flow_ids(n: u64) -> Vec<u64> {
    (0..n)
        .map(|i| {
            if i % 2 == 0 {
                i
            } else {
                i.wrapping_mul(0xD6E8_FEB8_6659_FD93)
            }
        })
        .collect()
}

/// The test's view of one (flow, device) pair.
#[derive(Default)]
struct Shadow {
    /// Workers of the routes currently held, by holder ticket.
    holders: Vec<(u64, usize)>,
    /// Highest clock any release of this pair has recorded.
    released_lc: u64,
    /// The worker the last shadowed route named.
    last_worker: Option<usize>,
}

/// A spinning barrier: racers leave it within a few hundred
/// nanoseconds of each other, close enough to collide on one key's
/// first route (a parked barrier wakes them microseconds apart).
struct SpinBarrier {
    n: usize,
    arrived: AtomicUsize,
    generation: AtomicUsize,
}

impl SpinBarrier {
    fn new(n: usize) -> Self {
        SpinBarrier {
            n,
            arrived: AtomicUsize::new(0),
            generation: AtomicUsize::new(0),
        }
    }

    fn wait(&self) {
        let generation = self.generation.load(Ordering::Acquire);
        if self.arrived.fetch_add(1, Ordering::AcqRel) + 1 == self.n {
            self.arrived.store(0, Ordering::Relaxed);
            self.generation.fetch_add(1, Ordering::Release);
            return;
        }
        let mut spins = 0u32;
        while self.generation.load(Ordering::Acquire) == generation {
            spins += 1;
            if spins.is_multiple_of(64) {
                // More racers than cores: let the others reach the line.
                std::thread::yield_now();
            }
            std::hint::spin_loop();
        }
    }
}

#[test]
fn racing_first_routes_create_one_entry_per_key() {
    let table = FlowTable::new(8);
    let flows = flow_ids(1024);
    let keys: Vec<(u64, u32)> = flows
        .iter()
        .flat_map(|&f| DEVICES.iter().map(move |&d| (f, d)))
        .collect();
    let line = SpinBarrier::new(THREADS);
    let per_thread: Vec<Vec<usize>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let (table, keys, line) = (&table, &keys, &line);
                s.spawn(move || {
                    // Every thread asks for a different worker and holds
                    // every route, so no pair may move once created: all
                    // racers must be told the creator's worker. One key
                    // per round, all racers released onto it at once.
                    let mut routes = Vec::with_capacity(keys.len());
                    for &(flow, dev) in keys {
                        line.wait();
                        routes.push(table.route(flow, dev, t % WORKERS));
                    }
                    let workers = routes.iter().map(|r| r.worker).collect();
                    // Release only once every racer has routed every key.
                    line.wait();
                    for (i, r) in routes.iter().enumerate() {
                        release(&r.guard, i as u64);
                    }
                    workers
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    assert_eq!(table.pairs(), keys.len(), "one entry per (flow, device)");
    for (k, key) in keys.iter().enumerate() {
        let first = per_thread[0][k];
        for workers in &per_thread[1..] {
            assert_eq!(workers[k], first, "racers disagree on {key:?}");
        }
    }
}

#[test]
fn pairs_move_only_when_drained_and_inherit_the_drained_clock() {
    let table = FlowTable::new(8);
    let flows = flow_ids(8);
    let keys: Vec<(u64, u32)> = flows
        .iter()
        .flat_map(|&f| DEVICES[1..].iter().map(move |&d| (f, d)))
        .collect();
    let shadows: Vec<Mutex<Shadow>> = keys.iter().map(|_| Mutex::default()).collect();
    // One run-wide clock source: every release records a fresh, larger
    // value, so "at least every drained release" is a real bound.
    let clock = AtomicU64::new(1);
    let tickets = AtomicU64::new(0);
    let migrations = AtomicUsize::new(0);
    let start = Barrier::new(THREADS);
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let (table, keys, shadows) = (&table, &keys, &shadows);
            let (clock, tickets, migrations, start) = (&clock, &tickets, &migrations, &start);
            s.spawn(move || {
                let mut rng = Rng::new(t as u64 + 1);
                // Routes this thread holds: (key index, ticket, route).
                let mut held = Vec::new();
                start.wait();
                for _ in 0..ops_per_thread() {
                    if held.len() < 3 && (held.is_empty() || rng.below(2) == 0) {
                        let k = rng.below(keys.len());
                        let (flow, dev) = keys[k];
                        let want = rng.below(WORKERS);
                        let before = shadows[k].lock().unwrap().released_lc;
                        let r = table.route(flow, dev, want);
                        let ticket = tickets.fetch_add(1, Ordering::Relaxed);
                        let mut sh = shadows[k].lock().unwrap();
                        for &(_, w) in &sh.holders {
                            assert_eq!(w, r.worker, "{:?} moved with a route in flight", keys[k]);
                        }
                        if r.migrated {
                            assert_eq!(r.worker, want, "a migration takes the wanted worker");
                            assert!(
                                r.lc >= before,
                                "migrated route's clock {} is behind a drained release's {before}",
                                r.lc
                            );
                            migrations.fetch_add(1, Ordering::Relaxed);
                        }
                        sh.holders.push((ticket, r.worker));
                        sh.last_worker = Some(r.worker);
                        drop(sh);
                        held.push((k, ticket, r));
                    } else {
                        let (k, ticket, r) = held.swap_remove(rng.below(held.len()));
                        let lc = clock.fetch_add(1, Ordering::Relaxed);
                        {
                            let mut sh = shadows[k].lock().unwrap();
                            sh.holders.retain(|&(tk, _)| tk != ticket);
                            sh.released_lc = sh.released_lc.max(lc);
                        }
                        release(&r.guard, lc);
                    }
                }
                for (k, ticket, r) in held.drain(..) {
                    let lc = clock.fetch_add(1, Ordering::Relaxed);
                    {
                        let mut sh = shadows[k].lock().unwrap();
                        sh.holders.retain(|&(tk, _)| tk != ticket);
                        sh.released_lc = sh.released_lc.max(lc);
                    }
                    release(&r.guard, lc);
                }
            });
        }
    });
    assert!(
        migrations.load(Ordering::Relaxed) > 0,
        "the stress never migrated a pair"
    );
    assert_eq!(table.pairs(), keys.len());
    // Every route was released: every count is back at 0, so each pair
    // now moves to any other worker on its next route and carries the
    // clock of every release that drained.
    for (k, &(flow, dev)) in keys.iter().enumerate() {
        let sh = shadows[k].lock().unwrap();
        assert!(sh.holders.is_empty());
        let old = table.route(flow, dev, sh.last_worker.unwrap_or(0));
        let want = (old.worker + 1) % WORKERS;
        release(&old.guard, sh.released_lc);
        let moved = table.route(flow, dev, want);
        assert!(moved.migrated, "{:?} did not drain to 0", keys[k]);
        assert_eq!(moved.worker, want);
        assert!(moved.lc >= sh.released_lc);
        release(&moved.guard, sh.released_lc + 1);
    }
}
