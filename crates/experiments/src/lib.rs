//! Experiment harness: everything needed to regenerate the paper's
//! evaluation.
//!
//! * [`scenario`] — canonical machine topologies and the
//!   Host / Con (vanilla overlay) / Falcon configuration triples every
//!   figure compares.
//! * [`measure`] — the measurement protocol: warm up, snapshot, run the
//!   measured window, diff. Produces [`measure::RunStats`] with packet
//!   rates, latency percentiles, per-core/per-context CPU usage,
//!   interrupt counts and steering statistics.
//! * [`table`] — plain-text result tables (what `falcon-repro` prints).
//! * [`figs`] — one module per figure of the paper (2, 4, 5, 6, 9a,
//!   10–19), each returning a [`table::FigResult`].
//! * [`tracedrun`] — representative traced runs backing
//!   `falcon-repro --trace` (Chrome/Perfetto timeline JSON) and
//!   `--stage-latency` (per-stage queueing/service decomposition).
//! * [`dataplane`] — the real-thread executor's scenario presets and
//!   the traced Falcon run behind `falcon-repro --dataplane-trace`. The
//!   dataplane's performance numbers come from the `falcon-benchmark`
//!   package (`benchmark/`).
//!
//! Run everything with the `falcon-repro` binary:
//!
//! ```text
//! falcon-repro --quick all
//! falcon-repro fig10 fig12
//! falcon-repro --list
//! ```

pub mod dataplane;
pub mod figs;
pub mod ingest;
pub mod measure;
pub mod ratesearch;
pub mod scenario;
pub mod table;
pub mod tracedrun;

pub use measure::{RunStats, Scale};
pub use ratesearch::{max_sustainable, RatePoint};
pub use scenario::{Mode, Scenario};
pub use table::{FigResult, Table};
