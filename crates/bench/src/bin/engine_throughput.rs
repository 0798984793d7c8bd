//! Engine throughput measurement: trials/second of a representative
//! sorting campaign at 1 worker thread and across a thread-count curve, a
//! batched-vs-scalar FPU dispatch comparison, and cold-vs-warm campaign
//! cache timings, emitted as JSON for the perf trajectory
//! (`BENCH_engine.json`).
//!
//! The serial and parallel runs execute identical work with identical
//! results (the engine's determinism guarantee), so their ratio is pure
//! parallel speedup; on a multi-core host the whole curve (2, 4, …
//! threads) is recorded, while a single-core host records an empty curve
//! instead of a bogus ~0.95 "speedup". The batched and scalar runs also
//! execute identical work with identical results (the FPU's bit-identity
//! contract — the countdown skip-ahead fast path never changes a single
//! bit), so their ratio is pure dispatch overhead removed; the comparison
//! asserts the per-trial verdicts and FLOP/fault counters match before
//! timing counts. A separate rate-0 pass records the fault-free ceiling,
//! where whole batches run on the vectorizable fast lane. The campaign
//! timing runs the same grid twice through the content-addressed result
//! cache: the cold pass executes and checkpoints every cell, the warm
//! pass must replay byte-identically from disk, and their ratio is the
//! cache's replay speedup. A mixed-weight campaign (µs-scale sorting
//! trials next to heavy paper-scale Poisson CG cells) is then timed
//! three ways: serial, trial-granular on the work-stealing scheduler,
//! and a cell-granular emulation of the pre-scheduler executor — the
//! first ratio is the campaign's parallel speedup (asserted
//! byte-identical first), the second is the straggler cost that
//! whole-cell scheduling pays when one heavy cell pins a worker while
//! the rest idle. Finally a
//! sparse entry times CSR SpMV over the paper-scale Poisson matrix
//! (10⁵ unknowns, ~5 entries/row) in stored-nonzeros per second,
//! batched vs scalar, after asserting the same bit-identity contract on
//! the sparse kernels.

#![forbid(unsafe_code)]
use rand::rngs::StdRng;
use rand::SeedableRng;
use robustify_apps::poisson2d::Poisson2d;
use robustify_apps::sorting::SortProblem;
use robustify_bench::workloads::{paper_registry, POISSON_GRID};
use robustify_bench::ExperimentOptions;
use robustify_core::{
    AggressiveStepping, GradientGuard, RobustProblem, SolverSpec, StepSchedule, Verdict,
    WorkloadRegistry,
};
use robustify_engine::campaign::{self, CampaignSpec, Instantiate, JobSpec, ResultCache};
use robustify_engine::{derive_trial_seed, problem_seed, SweepResult};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};
use stochastic_fpu::{FaultRate, Fpu, NoisyFpu};

const RATES_PCT: [f64; 3] = [1.0, 5.0, 10.0];

fn specs() -> Vec<(&'static str, SolverSpec)> {
    let guard = GradientGuard::Adaptive {
        factor: 3.0,
        reject: 30.0,
    };
    vec![
        ("baseline", SolverSpec::baseline()),
        (
            "sgd_as_sqs",
            SolverSpec::sgd(10_000, StepSchedule::Sqrt { gamma0: 0.1 })
                .with_guard(guard)
                .with_aggressive_stepping(AggressiveStepping::default()),
        ),
    ]
}

/// The sorting grid the throughput passes measure: one per-trial
/// `sorting` job per solver in [`specs`].
fn sort_campaign(opts: &ExperimentOptions, name: &str, trials: usize) -> CampaignSpec {
    let mut spec = opts.campaign(name).rates(RATES_PCT.to_vec()).trials(trials);
    for (label, solver) in specs() {
        spec = spec.job(
            JobSpec::new(label, "sorting")
                .per_trial()
                .with_solver(solver),
        );
    }
    spec
}

fn run(opts: &ExperimentOptions, trials: usize, threads: usize) -> SweepResult {
    let spec = sort_campaign(opts, "engine_throughput", trials).threads(threads);
    campaign::run(&spec, &paper_registry(), None, |_| {})
        .expect("sorting campaign")
        .result
}

/// One serial pass over the whole grid with the FPU's skip-ahead fast path
/// forced on or off, replicating the engine's per-trial seeding exactly.
/// Returns the wall time and the per-trial `(success, flops, faults)`
/// records used to assert batched == scalar.
fn manual_serial_run(
    opts: &ExperimentOptions,
    trials: usize,
    rates_pct: &[f64],
    batched: bool,
) -> (Duration, Vec<(bool, u64, u64)>) {
    let specs = specs();
    let mut records = Vec::with_capacity(specs.len() * rates_pct.len() * trials);
    // detlint::allow(nondeterministic-order, reason = "wall-clock throughput timing; never enters deterministic artifacts")
    let start = Instant::now();
    for (_, spec) in &specs {
        for &pct in rates_pct {
            for trial in 0..trials as u64 {
                let problem = SortProblem::random(
                    &mut StdRng::seed_from_u64(problem_seed(opts.seed, trial)),
                    5,
                );
                let mut fpu = NoisyFpu::new(
                    FaultRate::percent_of_flops(pct),
                    opts.fault_model_spec(),
                    derive_trial_seed(opts.seed, trial),
                );
                fpu.set_batching(batched);
                let Verdict { success, .. } = problem.run_trial(spec, &mut fpu);
                records.push((success, fpu.flops(), fpu.faults()));
            }
        }
    }
    (start.elapsed(), records)
}

/// Runs the identical grid as a declarative campaign twice through a
/// fresh content-addressed cache: a cold executing pass and a warm pass
/// that must replay every cell from disk byte-identically. Returns
/// `(cold_s, warm_s, cells)`.
fn campaign_cache_timing(opts: &ExperimentOptions, trials: usize) -> (f64, f64, usize) {
    let registry = paper_registry();
    let spec = sort_campaign(opts, "engine_throughput_campaign", trials);
    let dir =
        std::env::temp_dir().join(format!("robustify-throughput-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cache = ResultCache::open(&dir).expect("open cache");
    // detlint::allow(nondeterministic-order, reason = "wall-clock throughput timing; never enters deterministic artifacts")
    let start = Instant::now();
    let cold = campaign::run(&spec, &registry, Some(&cache), |_| {}).expect("cold campaign");
    let cold_s = start.elapsed().as_secs_f64();
    assert_eq!(
        cold.cells_cached, 0,
        "the cold pass must execute every cell"
    );
    // detlint::allow(nondeterministic-order, reason = "wall-clock throughput timing; never enters deterministic artifacts")
    let start = Instant::now();
    let warm = campaign::run(&spec, &registry, Some(&cache), |_| {}).expect("warm campaign");
    let warm_s = start.elapsed().as_secs_f64();
    assert_eq!(
        warm.cells_cached, warm.cells_total,
        "the warm pass must replay every cell from the cache"
    );
    assert_eq!(
        cold.result.to_json(),
        warm.result.to_json(),
        "cache replay must be byte-identical to execution"
    );
    let _ = std::fs::remove_dir_all(&dir);
    (cold_s, warm_s, cold.cells_total)
}

/// One pass over `spec`'s grid with the pre-scheduler execution shape —
/// workers claim whole cells from a shared counter and run every trial
/// of a claimed cell themselves — to expose the straggler cost the
/// trial-granular scheduler removes. Mirrors the runner's per-trial
/// seeding and instantiation exactly; returns wall seconds.
fn cell_granular_run(spec: &CampaignSpec, registry: &WorkloadRegistry, threads: usize) -> f64 {
    let cells: Vec<(usize, f64)> = spec
        .jobs()
        .iter()
        .enumerate()
        .flat_map(|(j, _)| spec.rates_pct().iter().map(move |&r| (j, r)))
        .collect();
    let expected: usize = spec
        .jobs()
        .iter()
        .map(|job| job.trials().unwrap_or(spec.trials_per_cell()) * spec.rates_pct().len())
        .sum();
    let next = AtomicUsize::new(0);
    let ran = AtomicUsize::new(0);
    // detlint::allow(nondeterministic-order, reason = "wall-clock throughput timing; never enters deterministic artifacts")
    let start = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(&(job_index, rate_pct)) = cells.get(i) else {
                    break;
                };
                let job = &spec.jobs()[job_index];
                let solver = job.solver().cloned().unwrap_or_else(|| {
                    registry
                        .default_solver(job.workload(), spec.base_seed())
                        .expect("registered workload")
                });
                let model = job.fault_model().unwrap_or(spec.fault_model());
                let trials = job.trials().unwrap_or(spec.trials_per_cell());
                let fixed = (job.instantiate() == Instantiate::Fixed).then(|| {
                    registry
                        .materialize(job.workload(), spec.base_seed())
                        .expect("registered workload")
                });
                for trial in 0..trials as u64 {
                    let mut fpu = NoisyFpu::new(
                        FaultRate::percent_of_flops(rate_pct),
                        model.clone(),
                        derive_trial_seed(spec.base_seed(), trial),
                    );
                    let verdict = match &fixed {
                        Some(problem) => problem.run_trial_dyn(&solver, &mut fpu),
                        None => registry
                            .materialize(job.workload(), problem_seed(spec.base_seed(), trial))
                            .expect("registered workload")
                            .run_trial_dyn(&solver, &mut fpu),
                    };
                    std::hint::black_box(verdict);
                    ran.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
    });
    let elapsed = start.elapsed().as_secs_f64();
    assert_eq!(
        ran.load(Ordering::Relaxed),
        expected,
        "cell-granular emulation must run the full grid"
    );
    elapsed
}

/// The scheduler comparison on a deliberately mixed-weight grid: a
/// per-trial sorting job (many µs-scale trials) next to a heavy
/// paper-scale Poisson CG job. Times the campaign serial, trial-granular
/// parallel (asserting byte-identity first — the speedup must be free),
/// and through the cell-granular emulation at the same width. Returns
/// the JSON fields for the trajectory document; on a single-core host
/// every field is `null` (the "parallel" numbers would just be scheduler
/// overhead misread as a regression).
fn campaign_parallel_timing(opts: &ExperimentOptions, trials: usize, host_cores: usize) -> String {
    if host_cores <= 1 {
        return "\"campaign_parallel_speedup\":null,\"campaign_cell_granular_s\":null,\
                \"campaign_trial_granular_s\":null,\"campaign_straggler_speedup\":null"
            .to_string();
    }
    let registry = paper_registry();
    let sgd = specs().remove(1).1;
    let heavy_trials = (trials / 4).max(2);
    let mixed = |threads: usize| {
        opts.campaign("engine_throughput_mixed")
            .rates(RATES_PCT.to_vec())
            .trials(trials)
            .threads(threads)
            .job(
                JobSpec::new("sort", "sorting")
                    .per_trial()
                    .with_solver(sgd.clone()),
            )
            .job(JobSpec::new("poisson", "poisson2d").with_trials(heavy_trials))
    };
    let timed = |threads: usize| {
        let spec = mixed(threads);
        // detlint::allow(nondeterministic-order, reason = "wall-clock throughput timing; never enters deterministic artifacts")
        let start = Instant::now();
        let run = campaign::run(&spec, &registry, None, |_| {}).expect("mixed campaign");
        (start.elapsed().as_secs_f64(), run)
    };
    let (serial_s, serial_run) = timed(1);
    let (trial_granular_s, parallel_run) = timed(host_cores);
    assert_eq!(
        serial_run.result.to_json(),
        parallel_run.result.to_json(),
        "determinism guarantee violated by the mixed campaign at {host_cores} threads"
    );
    let cell_granular_s = cell_granular_run(&mixed(host_cores), &registry, host_cores);
    format!(
        "\"campaign_parallel_speedup\":{:.2},\"campaign_cell_granular_s\":{:.3},\
         \"campaign_trial_granular_s\":{:.3},\"campaign_straggler_speedup\":{:.2}",
        serial_s / trial_granular_s,
        cell_granular_s,
        trial_granular_s,
        cell_granular_s / trial_granular_s,
    )
}

/// Sparse SpMV throughput on the large Poisson matrix: batched vs scalar
/// dispatch over the identical FLOP sequence (asserted bit-identical
/// first), at rate 0 (the fault-free fast-lane ceiling) and at a small
/// nonzero rate. Returns the JSON fields for the trajectory document.
fn sparse_spmv_timing(opts: &ExperimentOptions) -> String {
    let grid = if opts.fast { 64 } else { POISSON_GRID };
    let problem = Poisson2d::new(grid, &mut StdRng::seed_from_u64(opts.seed));
    let a = problem.a().clone();
    let x: Vec<f64> = (0..a.cols())
        .map(|i| 0.5 + (i % 17) as f64 * 0.0625)
        .collect();
    let reps = if opts.fast { 8 } else { 40 };

    let run = |batched: bool, rate_pct: f64| -> (Duration, Vec<u64>, u64, u64) {
        let mut fpu = NoisyFpu::new(
            FaultRate::percent_of_flops(rate_pct),
            opts.fault_model_spec(),
            derive_trial_seed(opts.seed, 0),
        );
        fpu.set_batching(batched);
        // detlint::allow(nondeterministic-order, reason = "wall-clock throughput timing; never enters deterministic artifacts")
        let start = Instant::now();
        let mut last = Vec::new();
        for _ in 0..reps {
            last = a.matvec(&mut fpu, &x).expect("shapes match");
        }
        let elapsed = start.elapsed();
        let bits = last.iter().map(|f| f.to_bits()).collect();
        (elapsed, bits, fpu.flops(), fpu.faults())
    };

    let mnnz = |elapsed: Duration| (reps * a.nnz()) as f64 / elapsed.as_secs_f64() / 1e6;
    let (batched0, batched0_bits, batched0_flops, batched0_faults) = run(true, 0.0);
    let (scalar0, scalar0_bits, scalar0_flops, scalar0_faults) = run(false, 0.0);
    assert_eq!(
        (batched0_bits, batched0_flops, batched0_faults),
        (scalar0_bits, scalar0_flops, scalar0_faults),
        "bit-identity contract violated by sparse SpMV at rate 0"
    );
    let (noisy_b, noisy_b_bits, noisy_b_flops, noisy_b_faults) = run(true, 0.1);
    let (_, noisy_s_bits, noisy_s_flops, noisy_s_faults) = run(false, 0.1);
    assert_eq!(
        (noisy_b_bits, noisy_b_flops, noisy_b_faults),
        (noisy_s_bits, noisy_s_flops, noisy_s_faults),
        "bit-identity contract violated by sparse SpMV at rate 0.1%"
    );

    format!(
        "\"sparse_workload\":\"poisson2d_csr_spmv\",\"sparse_grid\":{},\
         \"sparse_unknowns\":{},\"sparse_nnz\":{},\
         \"sparse_spmv_mnnz_per_s_batched_rate0\":{:.1},\
         \"sparse_spmv_mnnz_per_s_scalar_rate0\":{:.1},\
         \"sparse_spmv_batch_speedup_rate0\":{:.2},\
         \"sparse_spmv_mnnz_per_s_batched_noisy\":{:.1}",
        grid,
        a.cols(),
        a.nnz(),
        mnnz(batched0),
        mnnz(scalar0),
        scalar0.as_secs_f64() / batched0.as_secs_f64(),
        mnnz(noisy_b),
    )
}

fn main() {
    let opts = ExperimentOptions::parse();
    let trials = opts.trials(40, 8);

    let serial = run(&opts, trials, 1);

    // Batched vs scalar FPU dispatch on the identical serial workload: the
    // countdown skip-ahead fast path must change throughput only, never a
    // result bit.
    let (batched_elapsed, batched_records) = manual_serial_run(&opts, trials, &RATES_PCT, true);
    let (scalar_elapsed, scalar_records) = manual_serial_run(&opts, trials, &RATES_PCT, false);
    assert_eq!(
        batched_records, scalar_records,
        "bit-identity contract violated: batched and scalar dispatch disagree"
    );
    let total = batched_records.len() as f64;
    let batched_tps = total / batched_elapsed.as_secs_f64();
    let scalar_tps = total / scalar_elapsed.as_secs_f64();

    // The fault-free ceiling: at rate 0 every batch runs whole on the
    // fault-free fast lane (`run_exact` grants the full span), so this
    // is the raw-speed number the vectorizable lanes are accountable to.
    let (batched0_elapsed, batched0_records) = manual_serial_run(&opts, trials, &[0.0], true);
    let (scalar0_elapsed, scalar0_records) = manual_serial_run(&opts, trials, &[0.0], false);
    assert_eq!(
        batched0_records, scalar0_records,
        "bit-identity contract violated at rate 0"
    );
    let total0 = batched0_records.len() as f64;
    let batched0_tps = total0 / batched0_elapsed.as_secs_f64();
    let scalar0_tps = total0 / scalar0_elapsed.as_secs_f64();

    let (campaign_cold_s, campaign_warm_s, campaign_cells) = campaign_cache_timing(&opts, trials);

    let sparse_fields = sparse_spmv_timing(&opts);

    // The parallel-speedup curve: every measured thread count up to the
    // host's cores, each asserted byte-identical to the serial run first.
    // On a single-core host the "parallel" run would be the serial run
    // plus scheduling overhead — a ~0.95 ratio that reads as a perf
    // regression in the trajectory — so the curve stays empty there.
    let host_cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let campaign_fields = campaign_parallel_timing(&opts, trials, host_cores);
    let mut curve = Vec::new();
    if host_cores > 1 {
        let mut counts: Vec<usize> = [2usize, 4, 8]
            .into_iter()
            .filter(|&t| t <= host_cores)
            .collect();
        if !counts.contains(&host_cores) {
            counts.push(host_cores);
        }
        for threads in counts {
            let parallel = run(&opts, trials, threads);
            assert_eq!(
                serial.to_json(),
                parallel.to_json(),
                "determinism guarantee violated at {threads} threads"
            );
            curve.push(format!(
                "{{\"threads\":{},\"elapsed_s\":{:.3},\"trials_per_s\":{:.2},\"speedup\":{:.2}}}",
                parallel.threads(),
                parallel.elapsed().as_secs_f64(),
                parallel.throughput(),
                parallel.throughput() / serial.throughput(),
            ));
        }
    }
    let note = if host_cores == 1 {
        ",\"note\":\"single-core host; speedup curve and campaign scheduling timings skipped\""
    } else {
        ""
    };

    println!(
        "{{\"sweep\":\"sorting fig6.1-style\",\"trials\":{},\"threads_serial\":1,\
         \"elapsed_serial_s\":{:.3},\"trials_per_s_serial\":{:.2},\
         \"trials_per_s_scalar_dispatch\":{:.2},\"trials_per_s_batched_dispatch\":{:.2},\
         \"batch_speedup\":{:.2},\"trials_per_s_scalar_dispatch_rate0\":{:.2},\
         \"trials_per_s_batched_dispatch_rate0\":{:.2},\"batch_speedup_rate0\":{:.2},\
         \"host_cores\":{},\"speedup_curve\":[{}],\
         \"campaign_cells\":{},\"campaign_cold_s\":{:.3},\"campaign_warm_s\":{:.3},\
         \"campaign_replay_speedup\":{:.1},{campaign_fields},{}{}}}",
        serial.total_trials(),
        serial.elapsed().as_secs_f64(),
        serial.throughput(),
        scalar_tps,
        batched_tps,
        batched_tps / scalar_tps,
        scalar0_tps,
        batched0_tps,
        batched0_tps / scalar0_tps,
        host_cores,
        curve.join(","),
        campaign_cells,
        campaign_cold_s,
        campaign_warm_s,
        campaign_cold_s / campaign_warm_s,
        sparse_fields,
        note,
    );
}
