//! The sweep grid as *data*: declarative campaign specs, a
//! content-addressed result cache, a resumable parallel runner, and the
//! line-delimited JSON protocol of the `campaign_server` daemon.
//!
//! A campaign is a grid written down: every job *names* its workload in a
//! [`WorkloadRegistry`](robustify_core::WorkloadRegistry) and carries
//! declarative solver and fault-model specs, so the whole experiment can
//! be serialized, shipped to a daemon, hashed, checkpointed, and resumed.
//! A test or example that needs a bespoke instance registers a small
//! local registry whose factory ignores its seed.
//!
//! The pieces:
//!
//! * [`CampaignSpec`] / [`JobSpec`] — the wire format: grid axes plus
//!   jobs, round-tripping through canonical JSON.
//! * [`ResultCache`] — per-cell trial records on disk, keyed by a content
//!   hash of everything that determines the cell's trials (workload,
//!   instantiation, seed, trials, rate, solver, fault model). Because the
//!   executor is bit-deterministic in exactly those inputs, replaying a
//!   cached cell is indistinguishable from re-running it — which is what
//!   makes resuming a killed campaign sound.
//! * [`run`] / [`run_with_budget`] — the executor: cache-hit cells replay
//!   instantly, missing cells decompose into trial-granular items on the
//!   shared work-stealing [`Scheduler`](crate::Scheduler) (so a heavy
//!   sparse cell load-balances across workers instead of serializing),
//!   each cell checkpoints as its last trial lands, and the assembled
//!   [`SweepResult`](crate::SweepResult) is emitted by the same
//!   CSV/JSON code paths on every execution path. The `_on` variants
//!   ([`run_on`] / [`run_with_budget_on`]) execute on an already-running
//!   pool — the daemon's process-wide scheduler.
//! * [`protocol`] — newline-delimited JSON requests/events over
//!   stdin/stdout or TCP, shared by the daemon and its thin clients.

mod cache;
pub mod protocol;
mod runner;
mod spec;

pub use cache::ResultCache;
pub use runner::{
    resolve_cells, run, run_on, run_with_budget, run_with_budget_on, CampaignOutcome, CampaignRun,
    CellUpdate, ResolvedCell,
};
pub use spec::{CampaignSpec, Instantiate, JobSpec};
