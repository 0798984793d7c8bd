//! Per-layer probes for the traced run. Each one calls a layer's public
//! entry point on the workload's own inputs, from outside, inside a span
//! named after the layer.

use crate::trace::Tracer;
use robustify_core::{SolveMethod, WorkloadRegistry};
use robustify_engine::campaign::{resolve_cells, CampaignSpec, Instantiate, ResultCache};
use robustify_engine::{derive_trial_seed, problem_seed, CellStats, Scheduler, SweepResult};
use robustify_engine::{TrialRecord, WorkSet};
use robustify_linalg::{CsrMatrix, Matrix};
use std::hint::black_box;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;
use stochastic_fpu::{FaultModelSpec, FaultRate, FlopOp, Fpu, NoisyFpu};

fn seconds_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// The vector lengths an application's kernels run on: its problem
/// dimensions at the registry's scale (sorting: 5 keys and their 5×5
/// relaxation; least squares: 10 columns, 100 rows; IIR: 10 taps, 500
/// samples; matching: 30 edges; Poisson: 5 nonzeros per row, 102,400
/// unknowns).
pub fn kernel_lengths(app: &str) -> &'static [usize] {
    match app {
        "sorting" => &[5, 25],
        "least_squares" => &[10, 100],
        "iir" => &[10, 500],
        "matching" => &[30],
        "poisson2d" => &[5, 102_400],
        _ => &[32],
    }
}

/// FLOPs each kernel and length runs per probe.
const KERNEL_FLOPS: u64 = 600_000;

/// Nanoseconds per FLOP at one fault rate, under the default emulated
/// transient model.
#[derive(Debug, Clone, Copy)]
pub struct FpuCost {
    /// `NoisyFpu`'s batch kernels (`dot_batch`, `gemv_row`) over the
    /// workload's vector lengths.
    pub kernels: f64,
    /// The kernels plus as many FLOPs of scalar `execute`.
    pub with_scalar: f64,
}

/// [`FpuCost`] at `rate_pct` over `lengths`: the median of three passes.
pub fn fpu_cost(rate_pct: f64, lengths: &[usize], tracer: &mut Tracer) -> FpuCost {
    let pass = |seed: u64| {
        let mut fpu = NoisyFpu::new(
            FaultRate::percent_of_flops(rate_pct),
            FaultModelSpec::default(),
            seed,
        );
        let start = Instant::now();
        for &len in lengths {
            let x: Vec<f64> = (0..len).map(|i| 1.0 + i as f64 * 1e-3).collect();
            let y: Vec<f64> = (0..len).map(|i| 0.5 - i as f64 * 1e-4).collect();
            let until = fpu.flops() + KERNEL_FLOPS;
            while fpu.flops() < until {
                black_box(fpu.dot_batch(black_box(&x), black_box(&y)));
            }
            let until = fpu.flops() + KERNEL_FLOPS;
            while fpu.flops() < until {
                black_box(fpu.gemv_row(0.25, black_box(&x), black_box(&y)));
            }
        }
        let kernel_s = seconds_since(start);
        let kernel_flops = fpu.flops();
        let start = Instant::now();
        let mut acc = 1.0;
        while fpu.flops() < 2 * kernel_flops {
            acc = fpu.execute(FlopOp::Mul, acc, 1.000_000_1);
            acc = fpu.execute(FlopOp::Add, acc, black_box(1e-9));
        }
        black_box(acc);
        let total_s = kernel_s + seconds_since(start);
        (
            kernel_s * 1e9 / kernel_flops as f64,
            total_s * 1e9 / fpu.flops() as f64,
        )
    };
    let span = tracer.open("fpu.kernels", None, 0);
    let samples: Vec<(f64, f64)> = (1..=3).map(pass).collect();
    tracer.close(span);
    let median = |pick: fn(&(f64, f64)) -> f64| {
        crate::stats::median(&samples.iter().map(pick).collect::<Vec<_>>())
    };
    FpuCost {
        kernels: median(|s| s.0),
        with_scalar: median(|s| s.1),
    }
}

/// Million stored nonzeros per second of `CsrMatrix::matvec` at each
/// rate: the aggregate over all rates, and one figure per rate.
pub fn spmv_mnnz_per_s(a: &CsrMatrix, rates_pct: &[f64], tracer: &mut Tracer) -> (f64, Vec<f64>) {
    let x: Vec<f64> = (0..a.cols()).map(|i| 1.0 + (i % 7) as f64 * 0.1).collect();
    let (mut nnz, mut seconds) = (0.0, 0.0);
    let mut per_rate = Vec::new();
    for (k, &rate) in rates_pct.iter().enumerate() {
        let mut fpu = NoisyFpu::new(
            FaultRate::percent_of_flops(rate),
            FaultModelSpec::default(),
            17,
        );
        let reps = 6;
        let span = tracer.open("linalg.spmv", None, k as u64);
        let start = Instant::now();
        for _ in 0..reps {
            black_box(a.matvec(&mut fpu, black_box(&x)).expect("square operator"));
        }
        let s = seconds_since(start);
        tracer.close(span);
        per_rate.push(a.nnz() as f64 * reps as f64 / s / 1e6);
        nnz += a.nnz() as f64 * reps as f64;
        seconds += s;
    }
    (nnz / seconds / 1e6, per_rate)
}

/// Nanoseconds per FLOP of dense `Matrix::matvec` + `matvec_t` on `a`,
/// over all `rates_pct`.
pub fn gemv_ns_per_flop(a: &Matrix, rates_pct: &[f64], tracer: &mut Tracer) -> f64 {
    let x: Vec<f64> = (0..a.cols()).map(|i| 1.0 - i as f64 * 0.01).collect();
    let y: Vec<f64> = (0..a.rows()).map(|i| 0.5 + i as f64 * 0.01).collect();
    let (mut flops, mut seconds) = (0u64, 0.0);
    for (k, &rate) in rates_pct.iter().enumerate() {
        let mut fpu = NoisyFpu::new(
            FaultRate::percent_of_flops(rate),
            FaultModelSpec::default(),
            23,
        );
        let span = tracer.open("linalg.gemv", None, k as u64);
        let start = Instant::now();
        while fpu.flops() < 2 * KERNEL_FLOPS {
            black_box(a.matvec(&mut fpu, black_box(&x)).expect("shapes match"));
            black_box(a.matvec_t(&mut fpu, black_box(&y)).expect("shapes match"));
        }
        seconds += seconds_since(start);
        tracer.close(span);
        flops += fpu.flops();
    }
    seconds * 1e9 / flops as f64
}

/// Milliseconds per CGLS iteration of `Poisson2d::solve_cg(iterations)`
/// over all `rates_pct`.
pub fn cgls_iter_ms(
    problem: &robustify_apps::poisson2d::Poisson2d,
    iterations: usize,
    rates_pct: &[f64],
    tracer: &mut Tracer,
) -> f64 {
    let (mut iters, mut seconds) = (0usize, 0.0);
    for (k, &rate) in rates_pct.iter().enumerate() {
        let mut fpu = NoisyFpu::new(
            FaultRate::percent_of_flops(rate),
            FaultModelSpec::default(),
            29,
        );
        let span = tracer.open("core.cgls", None, k as u64);
        let start = Instant::now();
        let report = problem.solve_cg(iterations, &mut fpu);
        seconds += seconds_since(start);
        tracer.close(span);
        iters += report.iterations.max(1);
    }
    seconds * 1e3 / iters as f64
}

/// One replayed trial.
#[derive(Debug, Clone)]
pub struct TrialSample {
    /// Registry workload name.
    pub app: String,
    /// Fault rate, percent of FLOPs.
    pub rate_pct: f64,
    /// Wall time of the `run_trial_dyn` call.
    pub seconds: f64,
    /// The trial's record.
    pub record: TrialRecord,
    /// SGD iteration budget, for SGD solvers.
    pub sgd_iterations: Option<usize>,
}

/// A replayed cell: its cache key and records, in trial order.
pub struct ReplayCell {
    /// `(job, rate)` indices.
    pub at: (usize, usize),
    /// The cell's canonical cache key.
    pub key_json: String,
    /// Records in trial order.
    pub records: Vec<TrialRecord>,
}

/// A serial replay of a campaign.
#[derive(Default)]
pub struct Replay {
    /// Every trial, in grid order.
    pub trials: Vec<TrialSample>,
    /// Every cell, in grid order.
    pub cells: Vec<ReplayCell>,
    /// `(workload, seconds)` per `WorkloadRegistry::materialize` call.
    pub materialize: Vec<(String, f64)>,
}

/// Replays every trial of `spec` on one thread, seeded exactly as
/// `campaign::run` seeds it: `run_trial_dyn` is timed per call (span
/// `apps.trial`, with `registry.materialize` as its child when the trial
/// materializes its instance).
pub fn replay(
    spec: &CampaignSpec,
    registry: &WorkloadRegistry,
    tracer: &mut Tracer,
    into: &mut Replay,
) -> Result<(), String> {
    let keys = resolve_cells(spec, registry)?;
    let base = spec.base_seed();
    for cell in keys {
        let job = &spec.jobs()[cell.job_index];
        let rate_pct = spec.rates_pct()[cell.rate_index];
        let solver = match job.solver() {
            Some(s) => s.clone(),
            None => registry
                .default_solver(job.workload(), base)
                .ok_or("unknown workload")?,
        };
        let sgd_iterations = (solver.method == SolveMethod::Sgd).then_some(solver.iterations);
        let model = job.fault_model().unwrap_or(spec.fault_model()).clone();
        let trials = job.trials().unwrap_or(spec.trials_per_cell());
        let mut fixed = None;
        let mut records = Vec::with_capacity(trials);
        for trial in 0..trials as u64 {
            let request = (cell.job_index * 1000 + cell.rate_index) as u64;
            let span = tracer.open("apps.trial", None, request);
            let seed = match job.instantiate() {
                Instantiate::Fixed => base,
                Instantiate::PerTrial => problem_seed(base, trial),
            };
            if job.instantiate() == Instantiate::PerTrial || fixed.is_none() {
                let m = tracer.open("registry.materialize", Some(span), request);
                let start = Instant::now();
                fixed = registry.materialize(job.workload(), seed);
                into.materialize
                    .push((job.workload().to_string(), seconds_since(start)));
                tracer.close(m);
            }
            let problem = fixed.as_ref().ok_or("unknown workload")?;
            let mut fpu = NoisyFpu::new(
                FaultRate::percent_of_flops(rate_pct),
                model.clone(),
                derive_trial_seed(base, trial),
            );
            let start = Instant::now();
            let verdict = problem.run_trial_dyn(&solver, &mut fpu);
            let seconds = seconds_since(start);
            tracer.close(span);
            let record = TrialRecord {
                verdict,
                flops: fpu.flops(),
                faults: fpu.faults(),
            };
            records.push(record);
            into.trials.push(TrialSample {
                app: job.workload().to_string(),
                rate_pct,
                seconds,
                record,
                sgd_iterations,
            });
        }
        into.cells.push(ReplayCell {
            at: (cell.job_index, cell.rate_index),
            key_json: cell.key_json,
            records,
        });
    }
    Ok(())
}

/// Checks a serial replay against the parallel run's result: every
/// cell's trials, successes, FLOPs and faults must agree.
pub fn check_replay(cells: &[ReplayCell], result: &SweepResult) -> Vec<String> {
    cells
        .iter()
        .filter_map(|cell| {
            let mut stats = CellStats::new();
            cell.records.iter().for_each(|r| stats.push(r));
            let run = result.cell(cell.at.0, cell.at.1);
            let a = (
                stats.trials(),
                stats.successes(),
                stats.flops(),
                stats.faults(),
            );
            let b = (run.trials(), run.successes(), run.flops(), run.faults());
            (a != b).then(|| {
                format!(
                    "{} cell {:?}: serial replay {a:?} != parallel run {b:?}",
                    result.name(),
                    cell.at
                )
            })
        })
        .collect()
}

struct NoOp(AtomicUsize);

impl WorkSet for NoOp {
    fn run_item(&self, _index: usize) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }
}

/// Microseconds per item of a no-op `WorkSet` with the workload's cell
/// structure (`jobs`: trials per cell, one list per campaign), pushed
/// through `Scheduler::submit` and `JobHandle::wait` on a pool of
/// `workers`: the median over 200 jobs, cycling through the campaigns.
pub fn scheduler_item_us(jobs: &[Vec<usize>], workers: usize, tracer: &mut Tracer) -> f64 {
    let shapes: Vec<(usize, Vec<std::ops::Range<usize>>)> = jobs
        .iter()
        .map(|trials_per_cell| {
            let mut offsets = vec![0];
            for &t in trials_per_cell {
                offsets.push(offsets.last().copied().unwrap_or(0) + t);
            }
            let items = *offsets.last().expect("offsets start at 0");
            (
                items,
                robustify_engine::scheduler::cell_chunks(&offsets, workers),
            )
        })
        .collect();
    let pool = Scheduler::new(workers);
    let mut samples = Vec::new();
    std::thread::scope(|scope| {
        pool.start(scope);
        for (job, (items, chunks)) in shapes.iter().cycle().take(200).enumerate() {
            let set = Arc::new(NoOp(AtomicUsize::new(0)));
            let span = tracer.open("scheduler.job", None, job as u64);
            let start = Instant::now();
            pool.submit(set.clone(), chunks.clone()).wait();
            samples.push(seconds_since(start) * 1e6 / *items as f64);
            tracer.close(span);
            assert_eq!(set.0.load(Ordering::Relaxed), *items, "every item ran once");
        }
        pool.shutdown();
    });
    crate::stats::median(&samples)
}

/// `ResultCache::store` then `load` of every replayed cell in a fresh
/// cache under `dir`: median milliseconds per store and per load, and the
/// mean entry size in bytes. A load that returns other records than were
/// stored is an error.
pub fn cache_probe(
    dir: &Path,
    cells: &[ReplayCell],
    tracer: &mut Tracer,
) -> Result<(f64, f64, f64), String> {
    let _ = std::fs::remove_dir_all(dir);
    let cache = ResultCache::open(dir).map_err(|e| format!("cache dir: {e}"))?;
    let (mut stores, mut loads, mut bytes) = (Vec::new(), Vec::new(), 0.0);
    let same = |a: &[TrialRecord], b: &[TrialRecord]| {
        a.len() == b.len()
            && a.iter().zip(b).all(|(x, y)| {
                (
                    x.verdict.success,
                    x.verdict.metric.to_bits(),
                    x.flops,
                    x.faults,
                ) == (
                    y.verdict.success,
                    y.verdict.metric.to_bits(),
                    y.flops,
                    y.faults,
                )
            })
    };
    for (i, cell) in cells.iter().enumerate() {
        let span = tracer.open("cache.store", None, i as u64);
        let start = Instant::now();
        cache
            .store(&cell.key_json, &cell.records)
            .map_err(|e| format!("cache store: {e}"))?;
        stores.push(seconds_since(start) * 1e3);
        tracer.close(span);
        let span = tracer.open("cache.load", None, i as u64);
        let start = Instant::now();
        let loaded = cache.load(&cell.key_json);
        loads.push(seconds_since(start) * 1e3);
        tracer.close(span);
        if !loaded.is_some_and(|l| same(&l, &cell.records)) {
            return Err(format!("cache load of cell {i} returned other records"));
        }
        bytes += std::fs::metadata(dir.join(ResultCache::file_name(&cell.key_json)))
            .map_err(|e| format!("cache entry: {e}"))?
            .len() as f64;
    }
    let _ = std::fs::remove_dir_all(dir);
    Ok((
        crate::stats::median(&stores),
        crate::stats::median(&loads),
        bytes / cells.len().max(1) as f64,
    ))
}
