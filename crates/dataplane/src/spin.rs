//! Deadline busy-spinning: turning modeled nanosecond costs into real
//! CPU occupancy.
//!
//! Each pipeline stage's cost model says "this stage costs N ns of CPU"
//! — the worker must actually *occupy its core* for that long, or the
//! wall-clock comparison between serialized (vanilla) and pipelined
//! (Falcon) execution would measure nothing. Spinning against a
//! monotonic-clock deadline (rather than a calibrated iteration count)
//! is robust to frequency scaling and preemption: a worker that gets
//! descheduled mid-stage simply finishes its stage later, exactly like
//! a real softirq losing its core.
//!
//! The other half of the module is what a worker does with no work:
//! [`Backoff`] spins, then yields, then parks on the worker's
//! [`ParkSlot`]. The park is event-driven, the threaded analogue of the
//! IPI a kernel core sends to raise NET_RX on the core whose backlog it
//! just filled: every producer calls [`ParkSlot::wake`] right after it
//! publishes, and the slot's fence handshake guarantees that a publish
//! either is seen by the worker's last re-check or unparks it.

use std::sync::atomic::{fence, AtomicBool, Ordering};
use std::sync::OnceLock;
use std::thread::Thread;
use std::time::{Duration, Instant};

/// A shared epoch for cross-thread timestamps. `Instant` is a monotonic
/// clock, so nanosecond offsets from one copied epoch are comparable
/// across worker threads — the property the post-run ordering merge
/// relies on.
#[derive(Debug, Clone, Copy)]
pub struct Epoch(Instant);

impl Epoch {
    /// Starts the clock.
    pub fn start() -> Self {
        Epoch(Instant::now())
    }

    /// Nanoseconds since the epoch.
    #[inline]
    pub fn now_ns(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }
}

impl Default for Epoch {
    fn default() -> Self {
        Epoch::start()
    }
}

/// Busy-spins until `epoch` reads `deadline` ns or later, and returns
/// the reading that ended the spin (the caller's "done" timestamp, so it
/// needs no clock read of its own). A deadline already past costs one
/// read. One pause hint per clock read bounds the overshoot to one read
/// plus one hint; several hints per read would let each stage overrun
/// its budget by their sum.
#[inline]
pub fn spin_until(epoch: &Epoch, deadline: u64) -> u64 {
    let mut now = epoch.now_ns();
    while now < deadline {
        std::hint::spin_loop();
        now = epoch.now_ns();
    }
    now
}

/// Busy-spins the calling thread for `ns` nanoseconds of wall time and
/// returns the actually-elapsed duration (≥ `ns`; more if preempted).
/// The same loop as [`spin_until`], against a deadline `ns` from now.
#[inline]
pub fn spin_for_ns(ns: u64) -> u64 {
    if ns == 0 {
        return 0;
    }
    spin_until(&Epoch::start(), ns)
}

/// How a park-tier step ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Wake {
    /// The re-check after announcing the park found work (or shutdown):
    /// the thread never slept.
    Ready,
    /// A producer claimed the park flag and unparked the thread (or the
    /// park returned early for any other reason).
    Woken,
    /// The full timeout elapsed and no producer claimed the flag.
    TimedOut,
}

/// Which tier an idle step landed in. Ordered by escalation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum IdleTier {
    /// Busy spin-hint: cheapest, keeps the core hot for an imminent
    /// arrival.
    Spin,
    /// `yield_now`: gives the scheduler a chance (essential when
    /// producers share this core).
    Yield,
    /// Park on the worker's [`ParkSlot`] until a producer publishes to
    /// it: stops burning the core entirely once the ring mesh has been
    /// dry for a while.
    Park(Wake),
}

/// One consumer's park slot: the flag producers check after every
/// publish, and the handle they unpark. Cache-padded, because every
/// producer reads the flag on every publish and only the owner writes it.
///
/// The handshake is a Dekker pair over two locations, the consumer's
/// rings and `parked`:
///
/// ```text
/// consumer (park)               producer (wake)
///   parked = true                 publish (ring tail, Release)
///   fence(SeqCst)                 fence(SeqCst)
///   re-check rings, shutdown      if parked.swap(false): unpark
///   park unless work was seen
/// ```
///
/// The two `SeqCst` fences are totally ordered. If the consumer's fence
/// comes first, the producer's flag read (after its own fence) sees
/// `parked = true` and unparks — or sees a later clear by a consumer
/// that is already awake, whose next park re-checks after a fence that
/// now follows the producer's. If the producer's fence comes first, the
/// consumer's re-check sees the published tail and it never sleeps.
/// Either way a publish cannot slip between the re-check and the sleep
/// unnoticed; an unpark that lands before the sleep begins leaves the
/// thread's park token set, so the sleep returns at once. The `swap`
/// makes each announced park wake at most once, however many producers
/// race to claim it.
#[derive(Debug, Default)]
#[repr(align(64))]
pub struct ParkSlot {
    parked: AtomicBool,
    thread: OnceLock<Thread>,
}

impl ParkSlot {
    /// An empty slot; [`register`](Self::register) binds it to a thread.
    pub fn new() -> Self {
        ParkSlot::default()
    }

    /// Binds the slot to the calling thread, the only one that may
    /// [`park`](Self::park) on it. Call once, before any producer can
    /// publish to this consumer (the executor's workers do it before the
    /// start barrier), so no wake ever finds the handle missing.
    pub fn register(&self) {
        let fresh = self.thread.set(std::thread::current()).is_ok();
        assert!(fresh, "park slot registered twice");
    }

    /// Consumer side: announces the park, re-checks `has_work`, and
    /// sleeps for at most `timeout` unless work was already visible.
    /// `has_work` must read every location producers publish to before
    /// they call [`wake`](Self::wake), and must not block on anything
    /// that parks the thread: that would consume a wake's token.
    ///
    /// A park that times out with work visible gives producers a few
    /// yields to claim the flag before reporting [`Wake::TimedOut`]: a
    /// publish that landed as the timer fired still has its flag check
    /// in flight, and on a shared core that producer may be the thread
    /// this wake-up just preempted.
    pub fn park(&self, timeout: Duration, has_work: impl Fn() -> bool) -> Wake {
        const GRACE_YIELDS: u32 = 8;
        debug_assert!(
            self.thread
                .get()
                .is_some_and(|t| t.id() == std::thread::current().id()),
            "park on a slot registered to another thread (or none)"
        );
        self.parked.store(true, Ordering::Relaxed);
        fence(Ordering::SeqCst);
        if has_work() {
            self.parked.store(false, Ordering::Relaxed);
            return Wake::Ready;
        }
        let start = Instant::now();
        std::thread::park_timeout(timeout);
        let timed_out = start.elapsed() >= timeout;
        if timed_out && has_work() {
            for _ in 0..GRACE_YIELDS {
                if !self.parked.load(Ordering::Acquire) {
                    break;
                }
                std::thread::yield_now();
            }
        }
        // A producer that claimed the flag has already cleared it; the
        // flag still being ours means nobody woke this park.
        let unclaimed = self.parked.swap(false, Ordering::AcqRel);
        if unclaimed && timed_out {
            Wake::TimedOut
        } else {
            Wake::Woken
        }
    }

    /// Producer side: call right after publishing to this slot's
    /// consumer. Costs a fence and a shared read when the consumer is
    /// awake; unparks it (once) when it announced a park.
    #[inline]
    pub fn wake(&self) {
        fence(Ordering::SeqCst);
        if self.parked.load(Ordering::Relaxed) && self.parked.swap(false, Ordering::AcqRel) {
            if let Some(thread) = self.thread.get() {
                thread.unpark();
            }
        }
    }
}

/// Tiered idle backoff for the worker sweep loop: a run of spin-hints,
/// then a run of yields, then parks that a producer cuts short.
///
/// A bare `yield_now` loop (the previous idle strategy) is the worst of
/// both worlds: on a dedicated core it burns full power making syscalls
/// for nothing, and on a shared core it thrashes the run queue. The
/// tiers mirror what real busy-poll NAPI drivers do — stay hot while an
/// arrival is plausibly imminent, get politer as the idle stretch
/// grows. The last tier is the IPI of the kernel's receive path: the
/// worker sleeps on its [`ParkSlot`] and the producer that next
/// publishes to it wakes it, so a hand-off to an idle worker costs one
/// unpark, not a poll interval. The park timeout is only a safety net;
/// it should never be what delivers a packet. `reset()` on any work
/// snaps straight back to the hot tier.
#[derive(Debug)]
pub struct Backoff {
    step: u32,
}

impl Backoff {
    /// Idle steps spent in the spin-hint tier before yielding.
    const SPIN_STEPS: u32 = 64;
    /// Further idle steps spent yielding before parking.
    const YIELD_STEPS: u32 = 64;
    /// Safety timeout of one park. Producers wake a parked worker when
    /// they publish to it, so this bounds only the damage of a lost
    /// wake-up (counted by the executor as `lost_wakeups`).
    const PARK_TIMEOUT: Duration = Duration::from_millis(1);

    /// A fresh backoff, starting at the hot tier.
    pub fn new() -> Self {
        Backoff { step: 0 }
    }

    /// Work was found: snap back to the hot tier.
    #[inline]
    pub fn reset(&mut self) {
        self.step = 0;
    }

    /// Whether the next [`idle`](Self::idle) step parks.
    #[inline]
    pub fn parks_next(&self) -> bool {
        self.step >= Self::SPIN_STEPS + Self::YIELD_STEPS
    }

    /// One idle step: waits according to the current tier, escalates,
    /// and reports which tier this step used. The park tier sleeps on
    /// `slot` (see [`ParkSlot::park`] for what `has_work` must check).
    #[inline]
    pub fn idle(&mut self, slot: &ParkSlot, has_work: impl Fn() -> bool) -> IdleTier {
        let tier = if self.step < Self::SPIN_STEPS {
            for _ in 0..32 {
                std::hint::spin_loop();
            }
            IdleTier::Spin
        } else if !self.parks_next() {
            std::thread::yield_now();
            IdleTier::Yield
        } else {
            IdleTier::Park(slot.park(Self::PARK_TIMEOUT, has_work))
        };
        self.step = self.step.saturating_add(1);
        tier
    }
}

impl Default for Backoff {
    fn default() -> Self {
        Backoff::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spin_meets_its_deadline() {
        let spent = spin_for_ns(200_000);
        assert!(spent >= 200_000, "returned early: {spent}ns");
        // Not absurdly late either (schedulers permitting); allow 50x
        // slack for loaded CI machines.
        assert!(spent < 10_000_000, "suspiciously long spin: {spent}ns");
    }

    #[test]
    fn spin_until_returns_the_reading_that_ended_it() {
        let e = Epoch::start();
        let deadline = e.now_ns() + 50_000;
        let done = spin_until(&e, deadline);
        assert!(done >= deadline, "returned early: {done} < {deadline}");
        assert!(e.now_ns() >= done, "reading from the future");
        // A deadline already past returns its one reading at once.
        let late = spin_until(&e, 0);
        assert!(late >= done);
    }

    #[test]
    fn zero_is_free() {
        assert_eq!(spin_for_ns(0), 0);
    }

    #[test]
    fn backoff_escalates_and_resets() {
        let slot = ParkSlot::new();
        slot.register();
        let mut b = Backoff::new();
        assert_eq!(b.idle(&slot, || false), IdleTier::Spin);
        for _ in 0..Backoff::SPIN_STEPS {
            b.idle(&slot, || false);
        }
        assert_eq!(b.idle(&slot, || false), IdleTier::Yield);
        for _ in 0..Backoff::YIELD_STEPS - 1 {
            b.idle(&slot, || false);
        }
        assert!(b.parks_next());
        // Work visible at the re-check: the park tier never sleeps.
        assert_eq!(b.idle(&slot, || true), IdleTier::Park(Wake::Ready));
        // No work and no producer: only the safety timeout ends it.
        assert_eq!(
            b.idle(&slot, || false),
            IdleTier::Park(Wake::TimedOut),
            "stays parked while idle"
        );
        b.reset();
        assert!(!b.parks_next());
        assert_eq!(
            b.idle(&slot, || false),
            IdleTier::Spin,
            "work snaps back to hot tier"
        );
    }

    /// The two orders a lost wake-up needs, forced with channels. A
    /// publish that lands before the park is announced must be seen by
    /// the re-check; one that lands after the re-check must find the
    /// flag set and unpark, so the sleep returns at once on the token.
    #[test]
    fn forced_interleavings_never_lose_a_wake() {
        const TIMEOUT: Duration = Duration::from_secs(10);
        let slot = std::sync::Arc::new(ParkSlot::new());
        slot.register();
        let (mut tx, mut rx) = crate::spsc::ring::<u32>(4);

        // Publish and wake first: nobody is parked, so nothing unparks.
        tx.try_push(1).expect("ring has room");
        slot.wake();
        assert_eq!(slot.park(TIMEOUT, || !rx.is_empty()), Wake::Ready);
        assert_eq!(rx.pop(), Some(1));

        // Publish between the re-check and the sleep: the re-check
        // reports the ring empty, then the producer publishes and wakes
        // before the consumer sleeps. The hand-shake spins on an atomic:
        // a blocking channel would park this thread and eat the token.
        let step = std::sync::Arc::new(std::sync::atomic::AtomicU8::new(0));
        let producer = {
            let (slot, step) = (std::sync::Arc::clone(&slot), std::sync::Arc::clone(&step));
            std::thread::spawn(move || {
                while step.load(Ordering::Acquire) != 1 {
                    std::thread::yield_now();
                }
                tx.try_push(2).expect("ring has room");
                slot.wake();
                step.store(2, Ordering::Release);
            })
        };
        let start = Instant::now();
        let wake = slot.park(TIMEOUT, || {
            let empty = rx.is_empty();
            step.store(1, Ordering::Release);
            while step.load(Ordering::Acquire) != 2 {
                std::thread::yield_now();
            }
            !empty
        });
        producer.join().expect("producer thread");
        assert_eq!(wake, Wake::Woken);
        assert!(start.elapsed() < TIMEOUT / 2, "slept through the wake");
        assert_eq!(rx.pop(), Some(2));
    }

    #[test]
    fn epoch_is_monotonic() {
        let e = Epoch::start();
        let a = e.now_ns();
        spin_for_ns(10_000);
        let b = e.now_ns();
        assert!(b > a);
    }
}
