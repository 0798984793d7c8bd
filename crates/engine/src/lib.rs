//! The experiment engine: a multi-threaded, bit-deterministic executor
//! over `(problem × fault model × fault rate × solver)` grids.
//!
//! Every figure of the paper is the same experiment shape: for each fault
//! rate, run `N` independently seeded trials of some `(problem, solver)`
//! pairing and aggregate success rates or error quantiles. This crate
//! executes that shape once, in parallel, instead of each binary
//! hand-rolling serial loops:
//!
//! * [`campaign`] — the grid as *data*: a
//!   [`CampaignSpec`](campaign::CampaignSpec) holds the axes (fault rates
//!   or supply voltages, trials per cell, base seed, default
//!   [`FaultModelSpec`](stochastic_fpu::FaultModelSpec), worker threads)
//!   and [`JobSpec`](campaign::JobSpec) columns that name workloads in a
//!   [`WorkloadRegistry`](robustify_core::WorkloadRegistry), each with
//!   optional solver, fault-model and trial-count overrides — so the
//!   injector scenario itself is a sweepable axis.
//!   [`CampaignSpec::voltages`](campaign::CampaignSpec::voltages) makes
//!   *supply voltage* the grid axis: each column's rate is derived
//!   through a [`VoltageErrorModel`](stochastic_fpu::VoltageErrorModel)
//!   (Figure 5.2) and every cell gains energy accounting
//!   (`energy = P(V) × FLOPs`, Figure 6.7) in the emitted provenance.
//!   Around the grid sit a content-addressed on-disk result cache, a
//!   resumable parallel runner, and the line-delimited JSON protocol of
//!   the `campaign_server` daemon.
//! * [`SweepResult`] / [`CellStats`] / [`MetricSummary`] — streaming
//!   aggregates (success rate, error quantiles, FLOP/fault totals) with
//!   CSV and JSON emitters.
//! * [`scheduler`] — the shared work-stealing pool underneath the runner:
//!   a flattened `(cell × trial-chunk)` item space on per-worker FIFO
//!   deques with front-stealing, so heterogeneous cells load-balance and
//!   the daemon multiplexes concurrent submissions fairly onto one
//!   process-wide pool.
//!
//! # Determinism
//!
//! Trial `i` of any cell always runs on an FPU seeded by
//! [`derive_trial_seed`]`(base_seed, i)` — the exact SplitMix derivation
//! of the original serial harness — and aggregation folds records in
//! trial-index order. Worker threads only decide *when* a trial runs,
//! never *what* it computes or how results combine, so a campaign's
//! emitted output is byte-identical for 1 thread and N threads.
//!
//! # Examples
//!
//! ```
//! use robustify_core::{DynProblem, SolverSpec, Verdict, WorkloadRegistry};
//! use robustify_engine::campaign::{self, CampaignSpec, JobSpec};
//! use stochastic_fpu::{Fpu, NoisyFpu};
//!
//! struct Add;
//!
//! impl DynProblem for Add {
//!     fn name(&self) -> &'static str {
//!         "add"
//!     }
//!
//!     fn run_trial_dyn(&self, _spec: &SolverSpec, fpu: &mut NoisyFpu) -> Verdict {
//!         Verdict::from_metric((fpu.add(1.0, 1.0) - 2.0).abs(), 1e-9)
//!     }
//! }
//!
//! let mut registry = WorkloadRegistry::new();
//! registry.register(
//!     "add",
//!     Box::new(|_seed| Box::new(Add)),
//!     Box::new(|_seed| SolverSpec::baseline()),
//! );
//! let spec = CampaignSpec::new("demo")
//!     .rates(vec![0.0, 50.0])
//!     .trials(8)
//!     .seed(42)
//!     .job(JobSpec::new("add", "add"));
//! let run = campaign::run(&spec, &registry, None, |_| {}).unwrap();
//! assert_eq!(run.result.cell(0, 0).success_rate(), 100.0);
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod campaign;
pub mod scheduler;
mod stats;
mod sweep;

pub use scheduler::{JobHandle, Placement, Scheduler, WorkSet};
pub use stats::{CellStats, MetricSummary, TrialRecord};
pub use sweep::{
    derive_trial_seed, extended_fault_rates, paper_fault_rates, problem_seed, SweepResult,
};
