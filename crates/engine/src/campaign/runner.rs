//! The campaign executor: resolve jobs against a registry, replay
//! cache-hit cells, decompose the misses into trial-granular items on the
//! shared work-stealing [`Scheduler`], checkpoint each cell as its last
//! trial lands, and assemble a standard [`SweepResult`].

use super::cache::ResultCache;
use super::spec::{CampaignSpec, Instantiate};
use crate::scheduler::{self, Scheduler, WorkSet};
use crate::stats::{CellStats, TrialRecord};
use crate::sweep::{derive_trial_seed, problem_seed, CaseParts};
use crate::SweepResult;
use robustify_core::{DynProblem, SolverSpec, WorkloadRegistry};
use std::sync::mpsc::{self, Sender};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;
use stochastic_fpu::json::escape;
use stochastic_fpu::{FaultModelSpec, FaultRate, Fpu, NoisyFpu};

/// One grid cell after resolution: which `(job, rate)` it is and the
/// canonical content key its records are cached under.
#[derive(Debug, Clone, PartialEq)]
pub struct ResolvedCell {
    /// Index into [`CampaignSpec::jobs`].
    pub job_index: usize,
    /// Index into [`CampaignSpec::rates_pct`].
    pub rate_index: usize,
    /// The canonical key document (see [`ResultCache`]).
    pub key_json: String,
}

/// A progress event: one cell finished (by execution or cache replay).
#[derive(Debug, Clone, PartialEq)]
pub struct CellUpdate {
    /// Index into [`CampaignSpec::jobs`].
    pub job_index: usize,
    /// Index into [`CampaignSpec::rates_pct`].
    pub rate_index: usize,
    /// The job label.
    pub label: String,
    /// The cell's fault rate (percent of FLOPs).
    pub rate_pct: f64,
    /// Whether the cell was replayed from the cache.
    pub cached: bool,
    /// Trials in the cell.
    pub trials: usize,
    /// Successful trials in the cell.
    pub successes: usize,
}

/// A finished campaign.
#[derive(Debug)]
pub struct CampaignRun {
    /// The assembled result — emitted by the same CSV/JSON paths whether
    /// its cells ran here, replayed from the cache, or ran on a daemon.
    pub result: SweepResult,
    /// Total cells in the grid.
    pub cells_total: usize,
    /// Cells replayed from the cache rather than executed.
    pub cells_cached: usize,
}

/// What [`run_with_budget`] came back with.
#[derive(Debug)]
pub enum CampaignOutcome {
    /// Every cell finished (boxed: a completed run carries the whole
    /// aggregated document, dwarfing the out-of-budget counters).
    Complete(Box<CampaignRun>),
    /// The execution budget ran out first; finished cells are
    /// checkpointed, so a re-run with the same cache resumes from here.
    OutOfBudget {
        /// Cells executed (and checkpointed) this run.
        cells_executed: usize,
        /// Cells replayed from the cache this run.
        cells_cached: usize,
    },
}

struct ResolvedJob {
    label: String,
    workload: String,
    instantiate: Instantiate,
    solver: SolverSpec,
    fault_model: FaultModelSpec,
    trials: usize,
}

/// Everything that makes `spec` unrunnable on `registry`: the structural
/// checks of [`CampaignSpec::validate`], then every job's workload name.
/// The daemon calls this before it sends `accepted`.
pub(crate) fn validate_against(
    spec: &CampaignSpec,
    registry: &WorkloadRegistry,
) -> Result<(), String> {
    spec.validate()?;
    match spec
        .jobs()
        .iter()
        .find(|job| !registry.contains(job.workload()))
    {
        Some(job) => Err(format!(
            "unknown workload \"{}\" (registry has: {})",
            job.workload(),
            registry.names().join(", "),
        )),
        None => Ok(()),
    }
}

fn resolve_jobs(
    spec: &CampaignSpec,
    registry: &WorkloadRegistry,
) -> Result<Vec<ResolvedJob>, String> {
    validate_against(spec, registry)?;
    spec.jobs()
        .iter()
        .map(|job| {
            let solver = match job.solver() {
                Some(s) => s.clone(),
                // Default solvers are seed-tuned per instance; resolve
                // against the campaign's base seed, which is also the
                // fixed-instantiation seed.
                None => registry
                    .default_solver(job.workload(), spec.base_seed())
                    .expect("validate_against checked the workload"),
            };
            Ok(ResolvedJob {
                label: job.label().to_string(),
                workload: job.workload().to_string(),
                instantiate: job.instantiate(),
                solver,
                fault_model: job
                    .fault_model()
                    .cloned()
                    .unwrap_or_else(|| spec.fault_model().clone()),
                trials: job.trials().unwrap_or_else(|| spec.trials_per_cell()),
            })
        })
        .collect()
}

/// The canonical content key of one cell: exactly the inputs the
/// deterministic executor's records depend on, nothing else. Grid
/// provenance that does not alter trials (campaign name, voltage labels,
/// thread count) is deliberately absent, so equivalent cells share work
/// across campaigns.
fn cell_key_json(job: &ResolvedJob, base_seed: u64, rate_pct: f64) -> String {
    format!(
        "{{\"workload\":\"{}\",\"instantiate\":\"{}\",\"base_seed\":{},\"trials\":{},\
         \"rate_pct\":{},\"solver\":{},\"fault_model\":{}}}",
        escape(&job.workload),
        job.instantiate.name(),
        base_seed,
        job.trials,
        rate_pct,
        job.solver.to_json(),
        job.fault_model.to_json(),
    )
}

/// Resolves a campaign's grid into its cells and their cache keys (cell
/// order: jobs outer, rates inner), without running anything.
pub fn resolve_cells(
    spec: &CampaignSpec,
    registry: &WorkloadRegistry,
) -> Result<Vec<ResolvedCell>, String> {
    let jobs = resolve_jobs(spec, registry)?;
    let mut cells = Vec::with_capacity(jobs.len() * spec.rates_pct().len());
    for (job_index, job) in jobs.iter().enumerate() {
        for (rate_index, &rate_pct) in spec.rates_pct().iter().enumerate() {
            cells.push(ResolvedCell {
                job_index,
                rate_index,
                key_json: cell_key_json(job, spec.base_seed(), rate_pct),
            });
        }
    }
    Ok(cells)
}

/// One executing (cache-missed) cell inside the flattened trial space.
struct ExecCell {
    /// Index into the full resolved grid (`slots`).
    slot: usize,
    job_index: usize,
    rate_index: usize,
    /// First flat item index of this cell's trials.
    offset: usize,
    trials: usize,
    key_json: String,
    /// For a fixed-instantiation job, its index into
    /// [`CampaignWorkSet::fixed`]; `None` materializes per trial.
    fixed: Option<usize>,
    /// Trials still missing. The worker that takes this to zero assembles
    /// the cell in trial-index order, checkpoints it, and reports it.
    remaining: Mutex<usize>,
}

/// `(grid slot, assembled records, checkpoint error)` — one per finished
/// cell, streamed back to the submitting thread.
type CellDone = (usize, Vec<TrialRecord>, Option<String>);

/// A campaign's cache-missed cells as a flattened scheduler item space:
/// item `i` is one trial, whose FPU and workload seeds depend only on its
/// trial index ([`derive_trial_seed`], [`problem_seed`]) — so a cell's
/// records are bit-identical no matter which worker runs which trial.
///
/// The set *owns* everything per-job (resolved jobs, cells, record slots,
/// the report channel) and borrows only the registry and cache at `'env`:
/// daemon connection handlers are shorter-lived than the shared pool, so
/// their submissions must not borrow handler-local state.
struct CampaignWorkSet<'env> {
    jobs: Arc<Vec<ResolvedJob>>,
    rates: Vec<f64>,
    base_seed: u64,
    registry: &'env WorkloadRegistry,
    cache: Option<&'env ResultCache>,
    cells: Vec<ExecCell>,
    /// One problem per distinct workload among the fixed-instantiation
    /// jobs, materialized at `base_seed` on first use and shared by every
    /// cell of every job on that workload.
    fixed: Vec<OnceLock<Box<dyn DynProblem>>>,
    records: Vec<Mutex<Option<TrialRecord>>>,
    tx: Sender<CellDone>,
}

impl WorkSet for CampaignWorkSet<'_> {
    fn run_item(&self, index: usize) {
        let position = self.cells.partition_point(|c| c.offset <= index) - 1;
        let cell = &self.cells[position];
        let trial = (index - cell.offset) as u64;
        let job = &self.jobs[cell.job_index];
        let rate = FaultRate::percent_of_flops(self.rates[cell.rate_index]);
        let mut fpu = NoisyFpu::new(
            rate,
            job.fault_model.clone(),
            derive_trial_seed(self.base_seed, trial),
        );
        let verdict = match cell.fixed {
            Some(instance) => self.fixed[instance]
                .get_or_init(|| {
                    self.registry
                        .materialize(&job.workload, self.base_seed)
                        .expect("resolved")
                })
                .run_trial_dyn(&job.solver, &mut fpu),
            None => self
                .registry
                .materialize(&job.workload, problem_seed(self.base_seed, trial))
                .expect("resolved")
                .run_trial_dyn(&job.solver, &mut fpu),
        };
        *self.records[index].lock().expect("record slot") = Some(TrialRecord {
            verdict,
            flops: fpu.flops(),
            faults: fpu.faults(),
        });
        let finished = {
            let mut left = cell.remaining.lock().expect("cell counter");
            *left -= 1;
            *left == 0
        };
        if finished {
            // Assemble in trial-index order: the steal schedule decided
            // *when* each record was produced, never how they combine.
            let records: Vec<TrialRecord> = (cell.offset..cell.offset + cell.trials)
                .map(|i| {
                    self.records[i]
                        .lock()
                        .expect("record slot")
                        .take()
                        .expect("every trial ran")
                })
                .collect();
            // Checkpoint before reporting, so every reported cell is
            // durable even if the process dies right after.
            let store_err = self.cache.and_then(|c| {
                c.store(&cell.key_json, &records)
                    .err()
                    .map(|e| e.to_string())
            });
            let _ = self.tx.send((cell.slot, records, store_err));
        }
    }
}

fn stats_of(records: &[TrialRecord]) -> CellStats {
    let mut stats = CellStats::new();
    for record in records {
        stats.push(record);
    }
    stats
}

/// Runs a campaign to completion on a private worker pool sized by the
/// spec. Cache-hit cells replay instantly; missing cells decompose into
/// trial-granular scheduler items, checkpointing to `cache` as each
/// cell's last trial lands. `on_cell` observes every finished cell
/// (cached ones first, in grid order; executed ones in completion order).
pub fn run(
    spec: &CampaignSpec,
    registry: &WorkloadRegistry,
    cache: Option<&ResultCache>,
    on_cell: impl FnMut(&CellUpdate),
) -> Result<CampaignRun, String> {
    match run_internal(spec, registry, cache, None, None, on_cell)? {
        CampaignOutcome::Complete(run) => Ok(*run),
        CampaignOutcome::OutOfBudget { .. } => unreachable!("no budget was set"),
    }
}

/// [`run`], but executing on an already-running shared [`Scheduler`] —
/// the daemon path, where every connection's trials interleave on one
/// process-wide pool instead of each spawning its own.
pub fn run_on<'env>(
    spec: &CampaignSpec,
    registry: &'env WorkloadRegistry,
    cache: Option<&'env ResultCache>,
    pool: &Scheduler<'env>,
    on_cell: impl FnMut(&CellUpdate),
) -> Result<CampaignRun, String> {
    match run_internal(spec, registry, cache, None, Some(pool), on_cell)? {
        CampaignOutcome::Complete(run) => Ok(*run),
        CampaignOutcome::OutOfBudget { .. } => unreachable!("no budget was set"),
    }
}

/// [`run`], but stopping after at most `cell_budget` cells have been
/// *executed* (cache replays are free). This is the resumption primitive:
/// a killed daemon is equivalent to an exhausted budget, and re-running
/// the same campaign against the same cache picks up where it stopped.
pub fn run_with_budget(
    spec: &CampaignSpec,
    registry: &WorkloadRegistry,
    cache: Option<&ResultCache>,
    cell_budget: Option<usize>,
    on_cell: impl FnMut(&CellUpdate),
) -> Result<CampaignOutcome, String> {
    run_internal(spec, registry, cache, cell_budget, None, on_cell)
}

/// [`run_with_budget`] on an already-running shared [`Scheduler`].
pub fn run_with_budget_on<'env>(
    spec: &CampaignSpec,
    registry: &'env WorkloadRegistry,
    cache: Option<&'env ResultCache>,
    cell_budget: Option<usize>,
    pool: &Scheduler<'env>,
    on_cell: impl FnMut(&CellUpdate),
) -> Result<CampaignOutcome, String> {
    run_internal(spec, registry, cache, cell_budget, Some(pool), on_cell)
}

fn run_internal<'env>(
    spec: &CampaignSpec,
    registry: &'env WorkloadRegistry,
    cache: Option<&'env ResultCache>,
    cell_budget: Option<usize>,
    pool: Option<&Scheduler<'env>>,
    mut on_cell: impl FnMut(&CellUpdate),
) -> Result<CampaignOutcome, String> {
    // detlint::allow(nondeterministic-order, reason = "wall-clock campaign timing; excluded from result bytes")
    let start = Instant::now();
    let jobs = Arc::new(resolve_jobs(spec, registry)?);
    let cells = resolve_cells(spec, registry)?;
    let base_seed = spec.base_seed();
    let rates = spec.rates_pct();

    // Replay phase: resolve every cell against the cache first, so the
    // budget is spent only on genuinely new work.
    let mut slots: Vec<Option<Vec<TrialRecord>>> = vec![None; cells.len()];
    let mut misses: Vec<usize> = Vec::new();
    for (i, cell) in cells.iter().enumerate() {
        match cache.and_then(|c| c.load(&cell.key_json)) {
            Some(records) => slots[i] = Some(records),
            None => misses.push(i),
        }
    }
    let cells_cached = cells.len() - misses.len();
    for (i, slot) in slots.iter().enumerate() {
        if let Some(records) = slot {
            let cell = &cells[i];
            let stats = stats_of(records);
            on_cell(&CellUpdate {
                job_index: cell.job_index,
                rate_index: cell.rate_index,
                label: jobs[cell.job_index].label.clone(),
                rate_pct: rates[cell.rate_index],
                cached: true,
                trials: stats.trials(),
                successes: stats.successes(),
            });
        }
    }

    // The budget is applied up front: exactly the first
    // `min(budget, misses)` missing cells (in grid order) are enqueued.
    // The pre-refactor design let each worker claim a budget slot before
    // popping the queue, so a worker racing an empty queue consumed a
    // slot without executing a cell and interrupted runs under-executed
    // their budget; truncating the work list first cannot leak.
    let executing: Vec<usize> = match cell_budget {
        Some(budget) => misses.iter().copied().take(budget).collect(),
        None => misses,
    };

    let threads = match pool {
        Some(p) => p.workers(),
        None => {
            if spec.thread_count() > 0 {
                spec.thread_count()
            } else {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
            }
        }
    };

    let mut store_error: Option<String> = None;
    let mut cells_executed = 0usize;
    if !executing.is_empty() {
        // Fixed jobs on one workload share its instance: all of them
        // materialize it at the base seed.
        let mut fixed_workloads: Vec<&str> = Vec::new();
        let fixed_of: Vec<Option<usize>> = jobs
            .iter()
            .map(|job| match job.instantiate {
                Instantiate::Fixed => Some(
                    fixed_workloads
                        .iter()
                        .position(|&w| w == job.workload)
                        .unwrap_or_else(|| {
                            fixed_workloads.push(&job.workload);
                            fixed_workloads.len() - 1
                        }),
                ),
                Instantiate::PerTrial => None,
            })
            .collect();
        // Flatten the executing cells into one trial-granular item space.
        let mut exec_cells = Vec::with_capacity(executing.len());
        let mut offsets = Vec::with_capacity(executing.len() + 1);
        let mut total = 0usize;
        for &slot in &executing {
            let cell = &cells[slot];
            let trials = jobs[cell.job_index].trials;
            offsets.push(total);
            exec_cells.push(ExecCell {
                slot,
                job_index: cell.job_index,
                rate_index: cell.rate_index,
                offset: total,
                trials,
                key_json: cell.key_json.clone(),
                fixed: fixed_of[cell.job_index],
                remaining: Mutex::new(trials),
            });
            total += trials;
        }
        offsets.push(total);

        let (tx, rx) = mpsc::channel::<CellDone>();
        let set: Arc<dyn WorkSet + 'env> = Arc::new(CampaignWorkSet {
            jobs: Arc::clone(&jobs),
            rates: rates.to_vec(),
            base_seed,
            registry,
            cache,
            cells: exec_cells,
            fixed: fixed_workloads.iter().map(|_| OnceLock::new()).collect(),
            records: (0..total).map(|_| Mutex::new(None)).collect(),
            tx,
        });
        let chunks = scheduler::cell_chunks(&offsets, threads);

        // The channel (unbounded, so workers never block on it) streams
        // each finished cell back for progress reporting. A `recv` error
        // means a worker died mid-cell and its cell can never arrive; the
        // panic itself resurfaces when the worker's scope joins.
        let mut drain = |rx: &mpsc::Receiver<CellDone>| {
            while cells_executed < executing.len() {
                let Ok((slot, records, store_err)) = rx.recv() else {
                    break;
                };
                if let Some(err) = store_err {
                    store_error.get_or_insert(err);
                }
                let cell = &cells[slot];
                let stats = stats_of(&records);
                on_cell(&CellUpdate {
                    job_index: cell.job_index,
                    rate_index: cell.rate_index,
                    label: jobs[cell.job_index].label.clone(),
                    rate_pct: rates[cell.rate_index],
                    cached: false,
                    trials: stats.trials(),
                    successes: stats.successes(),
                });
                slots[slot] = Some(records);
                cells_executed += 1;
            }
        };
        match pool {
            // Shared pool (the daemon): the pool is already running; the
            // submitting thread streams cell events while workers execute.
            // No `set` clone is retained here, so if a worker dies the
            // channel disconnects and `drain` stops instead of hanging.
            Some(p) => {
                let handle = p.submit(set, chunks);
                drain(&rx);
                handle.wait();
            }
            // Private pool, parallel: identical wiring on a scoped
            // scheduler owned by this call.
            None if threads > 1 => {
                let local = Scheduler::new(threads);
                std::thread::scope(|scope| {
                    local.start(scope);
                    let handle = local.submit(set, chunks);
                    drain(&rx);
                    handle.wait();
                    local.shutdown();
                });
            }
            // Serial: run the chunks inline in submission order; events
            // buffer in the channel and drain afterwards (the channel is
            // unbounded, so the inline sends cannot block).
            None => {
                for chunk in chunks {
                    for index in chunk {
                        set.run_item(index);
                    }
                }
                drop(set);
                drain(&rx);
            }
        }
    }
    if let Some(err) = store_error {
        return Err(format!("cache checkpoint failed: {err}"));
    }
    if slots.iter().any(Option::is_none) {
        return Ok(CampaignOutcome::OutOfBudget {
            cells_executed,
            cells_cached,
        });
    }

    // Assembly: fold records into per-cell aggregates in grid order and
    // hand them to the standard result type, so emission is shared by
    // every execution path.
    let n_rates = rates.len();
    let case_parts: Vec<CaseParts> = jobs
        .iter()
        .enumerate()
        .map(|(job_index, job)| CaseParts {
            label: job.label.clone(),
            spec_json: job.solver.to_json(),
            fault_model: job.fault_model.clone(),
            cells: (0..n_rates)
                .map(|rate_index| {
                    let slot = slots[job_index * n_rates + rate_index]
                        .as_ref()
                        .expect("all cells resolved");
                    stats_of(slot)
                })
                .collect(),
        })
        .collect();
    let result = SweepResult::from_parts(
        spec.name().to_string(),
        case_parts,
        rates.to_vec(),
        spec.voltages_axis().map(<[f64]>::to_vec),
        spec.energy_model().cloned(),
        base_seed,
        threads,
        start.elapsed(),
    );
    Ok(CampaignOutcome::Complete(Box::new(CampaignRun {
        result,
        cells_total: cells.len(),
        cells_cached,
    })))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::JobSpec;
    use robustify_core::{DynProblem, Verdict};
    use std::path::PathBuf;
    use stochastic_fpu::{BitFaultModel, BitWidth, Fpu, VoltageErrorModel};

    /// A seed-deterministic FPU workload: accumulate through the noisy
    /// FPU and judge the drift. The seed biases the target so instances
    /// are distinguishable.
    struct Drift {
        target: f64,
    }

    impl DynProblem for Drift {
        fn name(&self) -> &'static str {
            "drift"
        }

        fn run_trial_dyn(&self, _spec: &SolverSpec, fpu: &mut NoisyFpu) -> Verdict {
            let mut acc = 0.0;
            for i in 0..48 {
                acc = fpu.add(acc, (i % 5) as f64 * 0.5);
            }
            Verdict::from_metric((acc - self.target).abs(), 0.75)
        }
    }

    fn registry() -> WorkloadRegistry {
        let mut reg = WorkloadRegistry::new();
        reg.register(
            "drift",
            Box::new(|seed| {
                Box::new(Drift {
                    target: 48.0 + (seed % 3) as f64,
                })
            }),
            Box::new(|_| SolverSpec::baseline()),
        );
        reg
    }

    fn campaign() -> CampaignSpec {
        CampaignSpec::new("toy")
            .rates(vec![0.0, 5.0, 20.0])
            .trials(12)
            .seed(9)
            .threads(2)
            .job(JobSpec::new("fixed", "drift"))
            .job(JobSpec::new("fresh", "drift").per_trial().with_trials(7))
    }

    fn temp_cache(tag: &str) -> (PathBuf, ResultCache) {
        let dir = std::env::temp_dir().join(format!(
            "robustify-runner-test-{tag}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = ResultCache::open(&dir).expect("open cache");
        (dir, cache)
    }

    #[test]
    fn warm_cache_replays_byte_identically() {
        let reg = registry();
        let spec = campaign();
        let (dir, cache) = temp_cache("warm");
        let cold = run(&spec, &reg, Some(&cache), |_| {}).expect("cold run");
        assert_eq!(cold.cells_cached, 0);
        assert_eq!(cold.cells_total, 6);
        let mut updates = Vec::new();
        let warm = run(&spec, &reg, Some(&cache), |u| updates.push(u.clone())).expect("warm run");
        assert_eq!(warm.cells_cached, 6, "every cell replays");
        assert!(updates.iter().all(|u| u.cached));
        assert_eq!(warm.result.to_csv(), cold.result.to_csv());
        assert_eq!(warm.result.to_json(), cold.result.to_json());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn interrupted_campaign_resumes_to_identical_output() {
        let reg = registry();
        let spec = campaign();
        let fresh = run(&spec, &reg, None, |_| {}).expect("uncached run");
        let (dir, cache) = temp_cache("resume");
        // Budget of 2 cells ≈ a SIGKILL mid-grid: some cells durable,
        // some never started.
        let halted =
            run_with_budget(&spec, &reg, Some(&cache), Some(2), |_| {}).expect("budgeted run");
        match halted {
            CampaignOutcome::OutOfBudget {
                cells_executed,
                cells_cached,
            } => {
                assert_eq!(cells_executed, 2);
                assert_eq!(cells_cached, 0);
            }
            CampaignOutcome::Complete(_) => panic!("budget of 2 must interrupt 6 cells"),
        }
        assert_eq!(cache.len(), 2, "interrupted cells are checkpointed");
        let resumed = run(&spec, &reg, Some(&cache), |_| {}).expect("resumed run");
        assert_eq!(resumed.cells_cached, 2, "resume skips checkpointed cells");
        assert_eq!(
            resumed.result.to_csv(),
            fresh.result.to_csv(),
            "resumed CSV is byte-identical to an uninterrupted run"
        );
        assert_eq!(resumed.result.to_json(), fresh.result.to_json());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The budget-claim leak regression: the pre-refactor executor let a
    /// worker claim a budget slot and then find the queue empty, so a
    /// budget of exactly `misses` could under-execute. Now budget ==
    /// misses must execute every cell and complete.
    #[test]
    fn budget_equal_to_misses_executes_every_cell() {
        let reg = registry();
        let spec = campaign();
        let fresh = run(&spec, &reg, None, |_| {}).expect("uncached run");
        let (dir, cache) = temp_cache("exact-budget");
        let outcome =
            run_with_budget(&spec, &reg, Some(&cache), Some(6), |_| {}).expect("budgeted run");
        match outcome {
            CampaignOutcome::Complete(run) => {
                assert_eq!(run.cells_cached, 0);
                assert_eq!(cache.len(), 6, "all six cells checkpointed");
                assert_eq!(run.result.to_json(), fresh.result.to_json());
            }
            CampaignOutcome::OutOfBudget { cells_executed, .. } => {
                panic!("budget == misses must complete, executed {cells_executed}")
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The shared-pool path (`run_on`) produces byte-identical documents
    /// to the private-pool path, even under a forced-steal placement, and
    /// both match the serial inline path.
    #[test]
    fn shared_pool_run_matches_private_pool_run() {
        let reg = registry();
        let spec = campaign();
        let local = run(&spec, &reg, None, |_| {}).expect("private-pool run");
        let serial = run(&spec.clone().threads(1), &reg, None, |_| {}).expect("serial run");
        assert_eq!(serial.result.to_csv(), local.result.to_csv());
        assert_eq!(serial.result.to_json(), local.result.to_json());
        assert_eq!(serial.result.total_trials(), (12 + 7) * 3);
        let pool = crate::Scheduler::new(3).with_placement(crate::Placement::Pinned(1));
        let pooled = std::thread::scope(|scope| {
            pool.start(scope);
            let run = run_on(&spec, &reg, None, &pool, |_| {});
            pool.shutdown();
            run
        })
        .expect("shared-pool run");
        assert_eq!(pooled.result.to_csv(), local.result.to_csv());
        assert_eq!(pooled.result.to_json(), local.result.to_json());
        assert_eq!(pooled.cells_total, 6);
    }

    /// A fixed workload is materialized once per campaign, however many
    /// cells and fixed jobs use it; per-trial jobs still materialize one
    /// instance per trial.
    #[test]
    fn fixed_workloads_materialize_once_per_campaign() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        for threads in [1, 2] {
            let base_seed = 9;
            let fixed = Arc::new(AtomicUsize::new(0));
            let fresh = Arc::new(AtomicUsize::new(0));
            let mut reg = WorkloadRegistry::new();
            let (f, p) = (Arc::clone(&fixed), Arc::clone(&fresh));
            reg.register(
                "counted",
                Box::new(move |seed| {
                    let counter = if seed == base_seed { &f } else { &p };
                    counter.fetch_add(1, Ordering::Relaxed);
                    Box::new(Drift { target: 48.0 })
                }),
                Box::new(|_| SolverSpec::baseline()),
            );
            let spec = CampaignSpec::new("count")
                .rates(vec![0.0, 5.0, 20.0])
                .trials(4)
                .seed(base_seed)
                .threads(threads)
                .job(JobSpec::new("a", "counted"))
                .job(JobSpec::new("b", "counted").with_trials(3))
                .job(JobSpec::new("c", "counted").per_trial().with_trials(5));
            run(&spec, &reg, None, |_| {}).expect("counted campaign");
            assert_eq!(fixed.load(Ordering::Relaxed), 1, "threads {threads}");
            assert_eq!(fresh.load(Ordering::Relaxed), 3 * 5, "threads {threads}");
        }
    }

    #[test]
    fn cache_keys_isolate_every_grid_axis() {
        let reg = registry();
        let spec = campaign();
        let cells = resolve_cells(&spec, &reg).expect("resolve");
        assert_eq!(cells.len(), 6);
        for (i, a) in cells.iter().enumerate() {
            for b in &cells[i + 1..] {
                assert_ne!(a.key_json, b.key_json, "cells must not share keys");
            }
        }
        // Re-resolution is stable, and a seed change moves every key.
        assert_eq!(resolve_cells(&spec, &reg).expect("resolve"), cells);
        let reseeded = resolve_cells(&campaign().seed(10), &reg).expect("resolve");
        for (a, b) in cells.iter().zip(&reseeded) {
            assert_ne!(a.key_json, b.key_json);
        }
    }

    #[test]
    fn unknown_workloads_fail_resolution() {
        let reg = registry();
        let spec = CampaignSpec::new("x")
            .rates(vec![1.0])
            .trials(2)
            .job(JobSpec::new("a", "nope"));
        let err = run(&spec, &reg, None, |_| {}).unwrap_err();
        assert!(err.contains("unknown workload"), "got: {err}");
    }

    /// A zero-trial job override is a validation error, not a runner
    /// panic.
    #[test]
    fn zero_trial_job_overrides_fail_validation() {
        let spec = CampaignSpec::new("x")
            .rates(vec![1.0])
            .trials(5)
            .job(JobSpec::new("a", "drift").with_trials(0));
        let err = run(&spec, &registry(), None, |_| {}).unwrap_err();
        assert!(err.contains("positive"), "got: {err}");
    }

    /// Runs a one-job drift campaign serially and returns its result.
    fn run_drift(spec: CampaignSpec) -> SweepResult {
        run(
            &spec.trials(3).seed(1).threads(1),
            &registry(),
            None,
            |_| {},
        )
        .expect("drift campaign")
        .result
    }

    #[test]
    fn emitters_have_expected_shape() {
        let result = run_drift(
            CampaignSpec::new("shape")
                .rates(vec![2.0])
                .job(JobSpec::new("only", "drift")),
        );
        let csv = result.to_csv();
        assert!(csv.starts_with("case,fault_model,fault_rate_pct"));
        assert!(csv.contains("only,transient_emulated,2,"));
        assert_eq!(csv.lines().count(), 2);
        let json = result.to_json();
        assert!(json.contains("\"name\":\"shape\""));
        assert!(json.contains("\"rate_pct\":2"));
        let solver = format!("\"spec\":{}", SolverSpec::baseline().to_json());
        assert!(json.contains(&solver), "every case carries its solver");
        assert!(json.contains("\"fault_model\":{\"kind\":\"transient\""));
        assert_eq!(result.case_cell("only", 0).trials(), 3);
    }

    #[test]
    fn rate_campaigns_emit_empty_voltage_fields() {
        let result = run_drift(
            CampaignSpec::new("t")
                .rates(vec![1.0])
                .job(JobSpec::new("a", "drift")),
        );
        assert_eq!(result.voltages(), None);
        assert_eq!(result.voltage(0, 0), None);
        assert_eq!(result.energy_per_trial(0, 0), None);
        assert!(result.to_json().contains("\"voltages\":null"));
        assert!(result.to_json().contains("\"energy_per_trial\":null"));
        let csv = result.to_csv();
        let row = csv.lines().nth(1).expect("data row");
        assert!(row.ends_with(",,"), "empty voltage/energy fields: {row}");
    }

    #[test]
    fn voltage_axis_campaigns_carry_energy_provenance() {
        let model = VoltageErrorModel::paper_figure_5_2();
        let result = run_drift(
            CampaignSpec::new("volt")
                .voltages(vec![1.0, 0.7], model.clone())
                .job(JobSpec::new("a", "drift")),
        );
        assert_eq!(result.voltages(), Some(&[1.0, 0.7][..]));
        assert_eq!(result.voltage(0, 1), Some(0.7));
        let flops = result.cell(0, 1).flops_per_trial();
        assert_eq!(
            result.energy_per_trial(0, 1),
            Some(model.energy(flops, 0.7))
        );
        // The derived rate grid follows Figure 5.2: lower voltage, more
        // faults per FLOP.
        assert!(result.rates_pct()[1] > result.rates_pct()[0]);
        let csv = result.to_csv();
        assert!(csv.starts_with(
            "case,fault_model,fault_rate_pct,trials,successes,success_rate,\
             median,mean,max,failures,flops,faults,voltage,energy_per_trial"
        ));
        let last = csv.trim_end().lines().last().expect("data row");
        assert_eq!(last.split(',').count(), 14);
        assert!(result.to_json().contains("\"voltages\":[1,0.7]"));
        assert!(result.to_json().contains("\"voltage\":0.7"));
    }

    #[test]
    fn voltage_linked_job_overrides_supply_cell_voltage() {
        let model = VoltageErrorModel::paper_figure_5_2();
        let result = run_drift(
            CampaignSpec::new("t")
                .rates(vec![50.0])
                .job(
                    JobSpec::new("pinned", "drift")
                        .with_fault_model(FaultModelSpec::voltage_linked(model.clone(), 0.8)),
                )
                .job(JobSpec::new("grid", "drift")),
        );
        // The pinned job reports its own operating point and energy even
        // though the campaign itself has no voltage axis…
        assert_eq!(result.voltage(0, 0), Some(0.8));
        let flops = result.cell(0, 0).flops_per_trial();
        assert_eq!(
            result.energy_per_trial(0, 0),
            Some(model.energy(flops, 0.8))
        );
        // …while its grid-rated neighbour reports none.
        assert_eq!(result.voltage(1, 0), None);
        assert_eq!(result.energy_per_trial(1, 0), None);
    }

    #[test]
    fn per_job_fault_models_reach_the_emitters() {
        let result = run_drift(
            CampaignSpec::new("models")
                .rates(vec![10.0])
                .job(JobSpec::new("default", "drift"))
                .job(
                    JobSpec::new("stuck", "drift").with_fault_model(FaultModelSpec::stuck_at(
                        52,
                        true,
                        BitWidth::F64,
                    )),
                )
                .job(
                    JobSpec::new("lsb", "drift")
                        .with_fault_model(BitFaultModel::lsb_only(BitWidth::F64))
                        .with_trials(15),
                ),
        );
        assert_eq!(result.fault_model(0).name(), "transient_emulated");
        assert_eq!(result.fault_model(1).name(), "stuck1_bit52");
        // An LSB-only injector perturbs the drift far less than the
        // emulated distribution, and the job's trial override holds.
        let lsb = result.cell(2, 0);
        assert!(lsb.summary().median() <= result.cell(0, 0).summary().median());
        assert_eq!(lsb.trials(), 15);
        let csv = result.to_csv();
        assert!(csv.contains("stuck,stuck1_bit52,10,"));
        assert!(result.to_json().contains("\"kind\":\"stuck_at\""));
    }
}
