//! `falcon-dataplane`: the modeled overlay receive path on real cores.
//!
//! Everything else in this workspace *simulates* the paper's container
//! receive pipeline — deterministic virtual time, one thread. This
//! crate closes the loop: it runs the same modeled stages
//! (pNIC poll → outer stack + VXLAN decap → gro_cell/bridge/veth →
//! container stack, with the pNIC poll optionally split into its
//! alloc/GRO halves per the paper's §4.2 GRO splitting) on actual OS
//! threads pinned to actual cores, with the same stage costs
//! ([`CostModel::overlay_udp_stage_ns`] and its `_split`/TCP variants
//! busy-spun into real CPU occupancy), the same steering math
//! ([`falcon::balance::falcon_choices_by`] over live queue depths), and
//! the same ordering invariant (checked post-run with the netstack's
//! `OrderTracker`). The wall clock — not virtual time — is the
//! measurement: Falcon's softirq pipelining must beat the serialized
//! vanilla path with real threads or not at all.
//!
//! [`CostModel::overlay_udp_stage_ns`]: falcon_netstack::CostModel::overlay_udp_stage_ns
//!
//! The moving parts:
//!
//! * [`spsc`] — a hand-rolled bounded SPSC ring (cache-padded Lamport
//!   queue), the per-worker backlog;
//! * [`affinity`] — `sched_setaffinity` pinning and worker clamping;
//! * [`topology`] — sysfs CPU-topology parsing and the NUMA/SMT-aware
//!   pin plan (adjacent workers share a node while one has cores);
//! * [`spin`] — deadline busy-spinning, the shared timestamp epoch, and
//!   the idle backoff whose last tier parks until a producer wakes it;
//! * [`steer`] — the Vanilla/Falcon policies, live depth gauges, and
//!   the in-flight-guarded flow table that forbids order-breaking
//!   migration;
//! * [`executor`] — run orchestration: the ring mesh, thread spawn and
//!   pinning, the injector, the telemetry sampler and quiescence;
//! * `worker` — the per-CPU worker loop, the in-flight reordering
//!   guard, and the run state workers share with the injector;
//! * `stage` — the stage plans and each stage's wire-mode byte work;
//! * `output` — per-worker stats, the run output and its folds;
//! * [`report`] — serializable run reports and the SCR conntrack
//!   oracle. The `falcon-benchmark` package (`benchmark/`) is what
//!   turns runs into performance numbers.

pub mod affinity;
pub mod executor;
mod output;
pub mod report;
pub mod spin;
pub mod spsc;
mod stage;
pub mod steer;
pub mod topology;
mod worker;

pub use affinity::{available_cores, clamp_workers, pin_current_thread};
pub use executor::{
    rss_hash_for_flow, run_meta, run_scenario, run_scenario_from, Injector, Scenario,
    TelemetrySpec, TrafficShape,
};
pub use output::{RunOutput, WorkerStats};
pub use report::{
    ConntrackOracle, ConntrackReport, DataplaneReport, FlowCacheReport, LatencySummary,
    TelemetrySummary,
};
pub use spin::{spin_for_ns, Backoff, Epoch, IdleTier, ParkSlot, Wake};
pub use spsc::{ring, Consumer, Producer};
pub use stage::{stage_labels, PNIC_SPLIT_IF, SPLIT_STAGES, STAGES};
pub use steer::{DepthGauge, FlowTable, InflightGuard, Policy, PolicyKind};
pub use topology::{core_plan, CpuTopology};
pub use worker::sweep_order;
