//! The three workloads: how each is generated from the seed, run, timed
//! and checked, in the untraced (end-to-end) and traced (per-layer) modes.
//!
//! * `paper_grid` — the Chapter 6 figure grid in process.
//! * `nominal_sparse` — a voltage-axis grid near nominal with the
//!   102,400-unknown Poisson solve, in process.
//! * `daemon_mixed` — two closed-loop clients submitting small campaigns
//!   to one `campaign_server` with a cache.

use crate::daemon::{self, Daemon, StreamPlan, StreamRun};
use crate::host::{self, mix};
use crate::layers::{self, Replay};
use crate::stats::{self, median};
use crate::trace::Tracer;
use crate::{Opts, Report};
use robustify_bench::workloads::{paper_least_squares, paper_poisson2d, paper_registry};
use robustify_core::WorkloadRegistry;
use robustify_engine::campaign::{self, CampaignSpec, JobSpec};
use robustify_engine::SweepResult;
use std::io::BufRead;
use std::process::{Command, Stdio};
use std::time::Instant;
use stochastic_fpu::json::{self, escape, JsonValue};
use stochastic_fpu::VoltageErrorModel;

/// Trials per cell of `paper_grid` (4 apps × 3 rates).
const PAPER_TRIALS: usize = 10;
/// Trials per cell of the Poisson column of `nominal_sparse`.
const SPARSE_POISSON_TRIALS: usize = 12;
/// Trials per cell of the dense columns of `nominal_sparse`.
const SPARSE_DENSE_TRIALS: usize = 48;
/// Daemon starts made only to time set-up, per untraced `daemon_mixed`
/// run (each stream's own start adds one more sample).
const SETUP_SAMPLES: usize = 15;
/// Timed repeats a run makes at least, however short `--seconds` is.
const MIN_REPEATS: usize = 3;

/// The campaign a grid workload runs for `seed`.
pub fn grid_spec(workload: &str, seed: u64) -> CampaignSpec {
    let base = mix(seed, 1) >> 33;
    match workload {
        "paper_grid" => ["sorting", "least_squares", "iir", "matching"].iter().fold(
            CampaignSpec::new("paper_grid")
                .rates(vec![1.0, 5.0, 10.0])
                .trials(PAPER_TRIALS)
                .seed(base)
                .threads(host::nproc()),
            |spec, app| spec.job(JobSpec::new(app, app).per_trial()),
        ),
        "nominal_sparse" => CampaignSpec::new("nominal_sparse")
            .voltages(vec![1.0, 0.9, 0.8], VoltageErrorModel::paper_figure_5_2())
            .trials(SPARSE_DENSE_TRIALS)
            .seed(base)
            .threads(host::nproc())
            .job(JobSpec::new("poisson2d", "poisson2d").with_trials(SPARSE_POISSON_TRIALS))
            .job(JobSpec::new("least_squares", "least_squares").per_trial())
            .job(JobSpec::new("iir", "iir").per_trial()),
        other => panic!("{other} is not a grid workload"),
    }
}

/// ", IQR x% of the median" for a sample set, or nothing for one value.
fn spread(values: &[f64]) -> String {
    stats::iqr_share(values).map_or(String::new(), |s| {
        format!(", IQR {:.1}% of the median", s * 100.0)
    })
}

fn stream_plan(seed: u64) -> StreamPlan {
    daemon::plan(mix(seed, 2))
}

/// One document in a fresh process, as a figure binary produces it: build
/// the registry, resolve each job's default solver and materialize its
/// instance (set-up), print `ready`, run the grid once, and print one JSON
/// line with the grid time, the process's peak RSS and both documents.
/// Run as a child process (`--child`).
pub fn child(opts: &Opts) {
    let registry = paper_registry();
    let spec = grid_spec(&opts.workload, opts.seed);
    for job in spec.jobs() {
        let solver = registry.default_solver(job.workload(), spec.base_seed());
        let problem = registry.materialize(job.workload(), spec.base_seed());
        assert!(solver.is_some() && problem.is_some(), "registered workload");
    }
    println!("ready");
    let run = run_grid(&spec, &registry, &mut Tracer::new(false), 0).unwrap_or_else(|e| {
        eprintln!("perfbench child: campaign::run: {e}");
        std::process::exit(1)
    });
    println!(
        "{{\"grid_s\":{},\"peak_rss_mb\":{},\"csv\":\"{}\",\"json\":\"{}\"}}",
        run.seconds,
        host::peak_rss_mb(std::process::id()).unwrap_or(f64::NAN),
        escape(&run.csv),
        escape(&run.json)
    );
}

/// What one `--child` process reported.
struct ChildRun {
    /// Spawn → `ready`.
    setup_s: f64,
    grid_s: f64,
    peak_rss_mb: f64,
    csv: String,
    json: String,
}

/// Spawns one `--child` process and reads its report.
fn grid_child(opts: &Opts) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let start = Instant::now();
    let mut child = Command::new(&exe)
        .args(["--child", "--workload", &opts.workload])
        .args(["--seed", &opts.seed.to_string()])
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("spawn child: {e}"))?;
    let mut out = std::io::BufReader::new(child.stdout.take().expect("piped"));
    let (mut ready, mut report) = (String::new(), String::new());
    let read = out.read_line(&mut ready);
    let setup_s = start.elapsed().as_secs_f64();
    let read = read.and_then(|_| out.read_line(&mut report));
    let status = child.wait().map_err(|e| format!("child: {e}"))?;
    if read.is_err() || !status.success() || ready.trim() != "ready" {
        return Err(format!("grid child failed ({status})"));
    }
    let doc = json::parse(report.trim()).map_err(|e| format!("child report: {e}"))?;
    let num = |key: &str| doc.get(key).and_then(JsonValue::as_f64);
    let text = |key: &str| doc.get(key).and_then(JsonValue::as_str).map(str::to_string);
    match (num("grid_s"), num("peak_rss_mb"), text("csv"), text("json")) {
        (Some(grid_s), Some(peak_rss_mb), Some(csv), Some(json)) => Ok(ChildRun {
            setup_s,
            grid_s,
            peak_rss_mb,
            csv,
            json,
        }),
        _ => Err(format!("child report lacks a field: {}", report.trim())),
    }
}

/// One complete campaign document, timed.
struct GridRun {
    result: SweepResult,
    csv: String,
    json: String,
    /// Start → both documents emitted.
    seconds: f64,
    /// Start → each `on_cell` callback.
    cell_s: Vec<f64>,
    /// Start → `campaign::run` returned.
    returned_s: f64,
    cached: usize,
}

/// Runs `spec` in process to its CSV and JSON documents: span
/// `runner.grid` holds one `runner.cell` per finished cell (the previous
/// cell's `on_cell` → this one's) and `runner.emit` (emission), so its
/// self time is the tail from the last cell to `campaign::run` returning.
fn run_grid(
    spec: &CampaignSpec,
    registry: &WorkloadRegistry,
    tracer: &mut Tracer,
    request: u64,
) -> Result<GridRun, String> {
    let start = Instant::now();
    let mut cells = Vec::new();
    let mut cached = 0;
    let run = campaign::run(spec, registry, None, |update| {
        cells.push(Instant::now());
        cached += usize::from(update.cached);
    })?;
    let returned = Instant::now();
    let csv = run.result.to_csv();
    let json = run.result.to_json();
    let end = Instant::now();
    let root = tracer.record("runner.grid", None, request, start, end);
    let mut from = start;
    for &at in &cells {
        tracer.record("runner.cell", Some(root), request, from, at);
        from = at;
    }
    tracer.record("runner.emit", Some(root), request, returned, end);
    let since = |at: Instant| at.duration_since(start).as_secs_f64();
    Ok(GridRun {
        seconds: since(end),
        cell_s: cells.into_iter().map(since).collect(),
        returned_s: since(returned),
        cached,
        result: run.result,
        csv,
        json,
    })
}

/// `Ok` when the (CSV, JSON) documents `got` are byte-identical to
/// `want`; otherwise an error naming both fingerprints.
fn compare_documents(what: &str, got: (&str, &str), want: (&str, &str)) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!(
            "{what}: documents {} differ from {}",
            host::fingerprint_of(&[got.0, got.1]),
            host::fingerprint_of(&[want.0, want.1])
        ))
    }
}

fn describe_grid(spec: &CampaignSpec, csv: &str, json: &str) {
    let trials: usize = spec
        .jobs()
        .iter()
        .map(|j| j.trials().unwrap_or(spec.trials_per_cell()) * spec.rates_pct().len())
        .sum();
    println!(
        "grid {}: {} jobs x {} rates, {} trials, base_seed={}, threads={}",
        spec.name(),
        spec.jobs().len(),
        spec.rates_pct().len(),
        trials,
        spec.base_seed(),
        host::nproc()
    );
    println!(
        "document fingerprint fnv1a64={} (csv {} B, json {} B)",
        host::fingerprint_of(&[csv, json]),
        csv.len(),
        json.len()
    );
}

/// Runs the workload named in `opts` and fills `report`.
pub fn run(opts: &Opts, report: &mut Report) {
    let outcome = match (opts.workload.as_str(), opts.trace) {
        ("daemon_mixed", false) => daemon_untraced(opts, report),
        ("daemon_mixed", true) => daemon_traced(opts, report),
        (_, false) => grid_untraced(opts, report),
        (_, true) => grid_traced(opts, report),
    };
    if let Err(e) = outcome {
        report.op(Err(e));
    }
}

/// Each document comes from a fresh process, as a user's figure binary
/// produces it, so set-up, time and peak memory are measured per document
/// with no allocator state carried over from the previous one.
fn grid_untraced(opts: &Opts, report: &mut Report) -> Result<(), String> {
    let spec = grid_spec(&opts.workload, opts.seed);
    let start = Instant::now();
    let mut runs: Vec<ChildRun> = Vec::new();
    while runs.len() < MIN_REPEATS || start.elapsed().as_secs_f64() < opts.seconds {
        let run = grid_child(opts)?;
        match runs.first() {
            None => {
                describe_grid(&spec, &run.csv, &run.json);
                report.op(Ok(()));
            }
            Some(first) => report.op(compare_documents(
                "document of a later process vs the run's first",
                (&run.csv, &run.json),
                (&first.csv, &first.json),
            )),
        }
        runs.push(run);
    }
    let setup: Vec<f64> = runs.iter().map(|r| r.setup_s).collect();
    let times: Vec<f64> = runs.iter().map(|r| r.grid_s).collect();
    let peaks: Vec<f64> = runs.iter().map(|r| r.peak_rss_mb).collect();
    println!("  setup_s samples = {setup:.4?} s");
    println!("  grid_s samples = {times:.4?} s");
    println!("  peak_rss_mb samples = {peaks:.2?} MB");
    report.metric(
        "setup_s",
        median(&setup),
        "s",
        &format!(
            "median of {} fresh processes, spawn → registry materialized{}",
            setup.len(),
            spread(&setup)
        ),
    );
    report.metric(
        "wall_s",
        median(&times),
        "s",
        &format!(
            "grid_s: median of {} documents, each from a fresh process{}",
            times.len(),
            spread(&times)
        ),
    );
    Report::info(
        "grid_s",
        median(&times),
        "s",
        "the same figure, by its workload name",
    );
    report.metric(
        "peak_rss_mb",
        peaks.iter().copied().fold(f64::NAN, f64::max),
        "MB",
        "highest VmHWM among the document processes",
    );
    Ok(())
}

/// The pieces of a workload the per-layer probes run on.
struct LayerInputs<'a> {
    /// The executed campaigns (a grid's one, or the stream's distinct ones).
    specs: &'a [CampaignSpec],
    /// Their replay, checked against the parallel results.
    replay: Replay,
    /// Untraced wall time of the workload's unit (a grid, a stream).
    wall_s: f64,
}

fn distinct<T: PartialEq + Clone>(items: impl Iterator<Item = T>) -> Vec<T> {
    let mut out: Vec<T> = Vec::new();
    for item in items {
        if !out.contains(&item) {
            out.push(item);
        }
    }
    out
}

/// The probes every workload shares: `fpu`, `linalg`, `core`, `apps`,
/// `registry`, `scheduler`, `cache` and the accounting check.
fn layer_metrics(
    opts: &Opts,
    inputs: &LayerInputs,
    tracer: &mut Tracer,
    report: &mut Report,
) -> Result<(), String> {
    let apps = distinct(
        inputs
            .specs
            .iter()
            .flat_map(|s| s.jobs().iter().map(|j| j.workload().to_string())),
    );
    let rates = distinct(
        inputs
            .specs
            .iter()
            .flat_map(|s| s.rates_pct().iter().copied()),
    );
    let lengths = distinct(
        apps.iter()
            .flat_map(|a| layers::kernel_lengths(a).iter().copied()),
    );
    let trials = &inputs.replay.trials;

    // fpu: the fast lane at rate 0, the strike lane at each grid rate.
    let fast = layers::fpu_cost(0.0, &lengths, tracer).kernels;
    let per_rate: Vec<layers::FpuCost> = rates
        .iter()
        .map(|&r| layers::fpu_cost(r, &lengths, tracer))
        .collect();
    report.metric(
        "fpu.fast_ns_per_flop",
        fast,
        "ns/flop",
        &format!("dot_batch+gemv_row at rate 0, lengths {lengths:?}"),
    );
    for (r, cost) in rates.iter().zip(&per_rate) {
        Report::info(
            &format!("fpu.strike_ns_per_flop@{r}%"),
            cost.with_scalar,
            "ns/flop",
            &format!("batch kernels alone {:.4} ns/flop", cost.kernels),
        );
    }
    let strike = per_rate.iter().map(|c| c.with_scalar).sum::<f64>() / per_rate.len() as f64;
    report.metric(
        "fpu.strike_ns_per_flop",
        strike,
        "ns/flop",
        "batch kernels + scalar execute, mean over the rates",
    );
    let flops: u64 = trials.iter().map(|t| t.record.flops).sum();
    let faults: u64 = trials.iter().map(|t| t.record.faults).sum();
    report.metric(
        "fpu.flops",
        flops as f64,
        "count",
        "all trials of the workload, from the records",
    );
    report.metric(
        "fpu.faults_per_mflop",
        faults as f64 / (flops as f64 / 1e6),
        "1/Mflop",
        "",
    );

    // linalg: CSR SpMV on the workload's Poisson matrix, dense products on
    // its least-squares system.
    let sparse_seed = inputs
        .specs
        .iter()
        .find(|s| s.jobs().iter().any(|j| j.workload() == "poisson2d"))
        .map_or(mix(opts.seed, 5) >> 33, CampaignSpec::base_seed);
    let poisson = paper_poisson2d(sparse_seed);
    let (spmv, spmv_per_rate) = layers::spmv_mnnz_per_s(poisson.a(), &rates, tracer);
    for (r, v) in rates.iter().zip(&spmv_per_rate) {
        Report::info(&format!("linalg.spmv_mnnz_per_s@{r}%"), *v, "Mnnz/s", "");
    }
    report.metric(
        "linalg.spmv_mnnz_per_s",
        spmv,
        "Mnnz/s",
        &format!("{} nnz", poisson.a().nnz()),
    );
    let dense_seed = inputs
        .specs
        .iter()
        .find(|s| s.jobs().iter().any(|j| j.workload() == "least_squares"))
        .map_or(mix(opts.seed, 6) >> 33, CampaignSpec::base_seed);
    let lsq = paper_least_squares(dense_seed);
    let gemv = layers::gemv_ns_per_flop(lsq.a(), &rates, tracer);
    report.metric(
        "linalg.gemv_ns_per_flop",
        gemv,
        "ns/flop",
        "100x10 matvec + matvec_t",
    );

    // core: one CGLS iteration, one SGD iteration.
    let budget = robustify_apps::poisson2d::CG_BUDGET;
    let cgls = layers::cgls_iter_ms(&poisson, budget, &rates, tracer);
    report.metric(
        "core.cgls_iter_ms",
        cgls,
        "ms",
        &format!("Poisson2d::solve_cg({budget}) / iterations"),
    );
    let sgd: Vec<&layers::TrialSample> = trials
        .iter()
        .filter(|t| t.sgd_iterations.is_some())
        .collect();
    for app in &apps {
        let (s, i) = sgd
            .iter()
            .filter(|t| &t.app == app)
            .fold((0.0, 0usize), |(s, i), t| {
                (s + t.seconds, i + t.sgd_iterations.unwrap_or(0))
            });
        if i > 0 {
            Report::info(
                &format!("core.sgd_iter_us@{app}"),
                s * 1e6 / i as f64,
                "us",
                "",
            );
        }
    }
    let (s, i) = sgd.iter().fold((0.0, 0usize), |(s, i), t| {
        (s + t.seconds, i + t.sgd_iterations.unwrap_or(0))
    });
    report.metric(
        "core.sgd_iter_us",
        s * 1e6 / i.max(1) as f64,
        "us",
        "all SGD trials",
    );

    // apps: the serial replay's per-trial times.
    let ms: Vec<f64> = trials.iter().map(|t| t.seconds * 1e3).collect();
    for app in &apps {
        let app_ms: Vec<f64> = trials
            .iter()
            .filter(|t| &t.app == app)
            .map(|t| t.seconds * 1e3)
            .collect();
        Report::info(
            &format!("apps.trial_ms.p50@{app}"),
            median(&app_ms),
            "ms",
            "",
        );
    }
    report.metric(
        "apps.trial_ms.p50",
        median(&ms),
        "ms",
        &format!("{} serial trials", ms.len()),
    );
    let tail = stats::tail(&ms, 10).ok_or("too few trials for a tail percentile")?;
    report.metric(
        "apps.trial_ms.tail",
        tail.value,
        "ms",
        &format!(
            "p{} of {} trials, {} beyond",
            tail.percentile, tail.samples, tail.beyond
        ),
    );
    let successes = trials.iter().filter(|t| t.record.verdict.success).count();
    report.metric(
        "apps.success_share",
        successes as f64 / trials.len() as f64,
        "ratio",
        "",
    );

    // registry: one instance of each application.
    let mut materialize_ms = 0.0;
    for app in &apps {
        let samples: Vec<f64> = inputs
            .replay
            .materialize
            .iter()
            .filter(|(a, _)| a == app)
            .map(|(_, s)| s * 1e3)
            .collect();
        Report::info(
            &format!("registry.materialize_ms@{app}"),
            median(&samples),
            "ms",
            "",
        );
        materialize_ms += median(&samples);
    }
    report.metric(
        "registry.materialize_ms",
        materialize_ms,
        "ms",
        "one instance of each app",
    );

    // scheduler: dispatch cost with the workload's cell structure, and
    // how busy the workers were.
    let jobs: Vec<Vec<usize>> = inputs
        .specs
        .iter()
        .map(|s| {
            s.jobs()
                .iter()
                .flat_map(|j| vec![j.trials().unwrap_or(s.trials_per_cell()); s.rates_pct().len()])
                .collect()
        })
        .collect();
    let item_us = layers::scheduler_item_us(&jobs, host::nproc(), tracer);
    report.metric(
        "scheduler.item_us",
        item_us,
        "us",
        "no-op WorkSet, submit + wait",
    );
    let busy: f64 = trials.iter().map(|t| t.seconds).sum();
    report.metric(
        "scheduler.busy_share",
        busy / (inputs.wall_s * host::nproc() as f64),
        "ratio",
        "serial trial time / (wall x workers)",
    );

    // cache: store and load of the workload's cells.
    let dir = opts
        .work_dir
        .join(format!("cache-probe-{}", std::process::id()));
    let (store, load, bytes) = layers::cache_probe(&dir, &inputs.replay.cells, tracer)?;
    report.metric(
        "cache.store_ms",
        store,
        "ms",
        "median per cell, fsync included",
    );
    report.metric("cache.load_ms", load, "ms", "median per cell");
    report.metric("cache.entry_bytes", bytes, "B", "mean per cell");

    // L3 accounting: FLOPs x the batch kernels' ns/FLOP at the cell's
    // rate, against the measured trial time.
    let ns_at =
        |rate: f64| per_rate[rates.iter().position(|&r| r == rate).expect("grid rate")].kernels;
    let mut predicted = 0.0;
    for app in &apps {
        let (p, m) = trials
            .iter()
            .filter(|t| &t.app == app)
            .fold((0.0, 0.0), |(p, m), t| {
                (
                    p + t.record.flops as f64 * ns_at(t.rate_pct) * 1e-9,
                    m + t.seconds,
                )
            });
        predicted += p;
        Report::info(
            &format!("accounting.unexplained_share@{app}"),
            1.0 - p / m,
            "ratio",
            &format!("{m:.3} s measured, {p:.3} s predicted"),
        );
    }
    report.metric(
        "accounting.unexplained_share",
        1.0 - predicted / busy,
        "ratio",
        "1 - predicted / measured serial trial time",
    );
    Ok(())
}

fn write_spans(opts: &Opts, tracer: &Tracer) {
    for (layer, seconds) in tracer.self_seconds_by_layer() {
        Report::info(
            &format!("self_s.{layer}"),
            seconds,
            "s",
            "self time of the layer's spans",
        );
    }
    let path = opts
        .work_dir
        .join(format!("spans-{}-seed{}.json", opts.workload, opts.seed));
    match std::fs::write(&path, tracer.to_json()) {
        Ok(()) => println!(
            "spans: {} written to {}",
            tracer.spans().len(),
            path.display()
        ),
        Err(e) => println!("spans: could not write {}: {e}", path.display()),
    }
}

fn grid_traced(opts: &Opts, report: &mut Report) -> Result<(), String> {
    let registry = paper_registry();
    let spec = grid_spec(&opts.workload, opts.seed);
    let mut tracer = Tracer::new(true);
    let mut off = Tracer::new(false);
    let reference = run_grid(&spec, &registry, &mut off, 0)?;
    report.op(Ok(()));
    describe_grid(&spec, &reference.csv, &reference.json);

    // Untraced and traced repeats alternate, so drift in the host's speed
    // reaches both alike.
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let start = Instant::now();
    while untraced.len() < 2 || start.elapsed().as_secs_f64() < opts.seconds / 2.0 {
        for (runs, spans) in [(&mut untraced, &mut off), (&mut traced, &mut tracer)] {
            let run = run_grid(&spec, &registry, spans, runs.len() as u64 + 1)?;
            report.op(compare_documents(
                "repeat vs the run's first",
                (&run.csv, &run.json),
                (&reference.csv, &reference.json),
            ));
            runs.push(run);
        }
    }
    let wall = median(&untraced.iter().map(|r| r.seconds).collect::<Vec<_>>());
    let wall_traced = median(&traced.iter().map(|r| r.seconds).collect::<Vec<_>>());
    report.metric(
        "trace.overhead_share",
        wall_traced / wall - 1.0,
        "ratio",
        &format!("traced grid_s {wall_traced:.4} s vs untraced {wall:.4} s"),
    );
    let cell_ms: Vec<f64> = traced
        .iter()
        .flat_map(|r| r.cell_s.iter().map(|s| s * 1e3))
        .collect();
    report.metric(
        "runner.cell_ms.p50",
        median(&cell_ms),
        "ms",
        "start → on_cell, all cells",
    );
    let tails: Vec<f64> = traced
        .iter()
        .map(|r| (r.returned_s - r.cell_s.last().copied().unwrap_or(0.0)) * 1e3)
        .collect();
    report.metric(
        "runner.tail_ms",
        median(&tails),
        "ms",
        "last on_cell → campaign::run returns",
    );
    let cached: usize = traced.iter().map(|r| r.cached).sum();
    report.metric(
        "cache.hit_share",
        cached as f64 / cell_ms.len() as f64,
        "ratio",
        "grids run without a cache",
    );

    // Serial replay, checked cell by cell against the parallel result.
    let mut replay = Replay::default();
    layers::replay(&spec, &registry, &mut tracer, &mut replay)?;
    report.op(
        match layers::check_replay(&replay.cells, &reference.result).as_slice() {
            [] => Ok(()),
            [first, ..] => Err(first.clone()),
        },
    );
    let specs = [spec.clone()];
    let inputs = LayerInputs {
        specs: &specs,
        replay,
        wall_s: wall,
    };
    layer_metrics(opts, &inputs, &mut tracer, report)?;

    // protocol: the same grid through the daemon must give the same
    // documents (equivalence 4).
    let daemon = Daemon::start(&opts.server_bin, None)?;
    let reply = daemon.connect()?.submit(&spec);
    let stopped = daemon.stop();
    let reply = reply?;
    report.op(stopped);
    record_reply_spans(&mut tracer, 0, &reply);
    report.op(compare_documents(
        "daemon vs in-process run",
        (&reply.csv, &reply.json),
        (&reference.csv, &reference.json),
    ));
    report.metric(
        "protocol.accept_ms",
        reply.accepted_s * 1e3,
        "ms",
        "submit → accepted",
    );
    report.metric(
        "protocol.done_ms",
        reply.done_gap_s() * 1e3,
        "ms",
        "last cell → done",
    );
    report.metric(
        "protocol.doc_bytes",
        reply.done_bytes as f64,
        "B",
        "the done line",
    );
    write_spans(opts, &tracer);
    Ok(())
}

/// Client-side spans of one submit: `protocol.submit` (sent → done)
/// holding `runner.cells` (accepted → last cell), so the protocol's self
/// time is the accept and the document hand-off.
fn record_reply_spans(tracer: &mut Tracer, request: u64, reply: &daemon::Reply) {
    let at = |s: f64| reply.sent + std::time::Duration::from_secs_f64(s);
    let root = tracer.record(
        "protocol.submit",
        None,
        request,
        reply.sent,
        at(reply.done_s),
    );
    let last = reply.cells.last().map_or(reply.accepted_s, |c| c.0);
    tracer.record(
        "runner.cells",
        Some(root),
        request,
        at(reply.accepted_s),
        at(last),
    );
}

/// Starts a daemon on a fresh, empty cache directory.
fn fresh_daemon(opts: &Opts, tag: &str) -> Result<(Daemon, std::path::PathBuf), String> {
    let dir = opts
        .work_dir
        .join(format!("cache-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("cache dir: {e}"))?;
    Ok((Daemon::start(&opts.server_bin, Some(&dir))?, dir))
}

/// One stream on a fresh daemon: the run, the daemon's set-up time and
/// its peak RSS.
fn one_stream(
    opts: &Opts,
    plan: &StreamPlan,
    tag: &str,
    report: &mut Report,
) -> Result<(StreamRun, f64, f64), String> {
    let (daemon, dir) = fresh_daemon(opts, tag)?;
    let run = daemon::run_stream(&daemon, plan);
    let rss = daemon.peak_rss_mb();
    let ready = daemon.ready_s;
    report.op(daemon.stop());
    let _ = std::fs::remove_dir_all(&dir);
    let run = run?;
    Ok((
        run,
        ready,
        rss.ok_or("no /proc status for the daemon's peak RSS")?,
    ))
}

/// Counts a stream's entries and its failures.
fn check(
    plan: &StreamPlan,
    run: &StreamRun,
    reference: Option<&[(String, String)]>,
    report: &mut Report,
) {
    let failures = daemon::check_stream(plan, run, reference);
    report.attempted += plan.entries.len();
    for f in failures {
        report.fail(f);
    }
}

/// Equivalence 4: every distinct campaign run in process must give the
/// daemon's documents.
fn in_process_matches(
    plan: &StreamPlan,
    docs: &[(String, String)],
    registry: &WorkloadRegistry,
    tracer: &mut Tracer,
    report: &mut Report,
) -> Vec<GridRun> {
    let mut runs = Vec::new();
    for (i, (spec, (csv, json))) in plan.specs.iter().zip(docs).enumerate() {
        match run_grid(spec, registry, tracer, i as u64) {
            Ok(run) => {
                report.op(compare_documents(
                    &format!("{}: in-process run vs daemon", spec.name()),
                    (&run.csv, &run.json),
                    (csv, json),
                ));
                runs.push(run);
            }
            Err(e) => report.op(Err(format!("{}: campaign::run: {e}", spec.name()))),
        }
    }
    runs
}

fn stream_fingerprint(docs: &[(String, String)]) -> String {
    let parts: Vec<&str> = docs
        .iter()
        .flat_map(|(c, j)| [c.as_str(), j.as_str()])
        .collect();
    host::fingerprint_of(&parts)
}

fn describe_stream(plan: &StreamPlan, docs: &[(String, String)]) {
    let repeats = plan
        .entries
        .iter()
        .filter(|e| e.repeat_of.is_some())
        .count();
    println!(
        "stream: {} clients x {} rounds = {} submits ({} repeats of an earlier campaign, {} fresh), closed loop",
        daemon::CLIENTS,
        daemon::ROUNDS,
        plan.entries.len(),
        repeats,
        plan.specs.len()
    );
    println!("documents fingerprint fnv1a64={}", stream_fingerprint(docs));
}

fn daemon_untraced(opts: &Opts, report: &mut Report) -> Result<(), String> {
    let plan = stream_plan(opts.seed);
    let mut setup = Vec::new();
    for i in 0..SETUP_SAMPLES {
        let (daemon, dir) = fresh_daemon(opts, &format!("setup{i}"))?;
        setup.push(daemon.ready_s);
        report.op(daemon.stop());
        let _ = std::fs::remove_dir_all(&dir);
    }

    let start = Instant::now();
    let mut runs: Vec<StreamRun> = Vec::new();
    let mut rss = Vec::new();
    let mut reference: Option<Vec<(String, String)>> = None;
    while runs.len() < MIN_REPEATS || start.elapsed().as_secs_f64() < opts.seconds {
        let (run, ready, peak) = one_stream(opts, &plan, &format!("stream{}", runs.len()), report)?;
        check(&plan, &run, reference.as_deref(), report);
        if reference.is_none() {
            let docs = daemon::documents(&plan, &run);
            describe_stream(&plan, &docs);
            reference = Some(docs);
        }
        setup.push(ready);
        rss.push(peak);
        let broken = run.replies.iter().any(Result::is_err);
        runs.push(run);
        if broken {
            // A stalled daemon would stall every later stream too.
            break;
        }
    }
    let registry = paper_registry();
    let docs = reference.expect("at least one stream");
    in_process_matches(&plan, &docs, &registry, &mut Tracer::new(false), report);

    let walls: Vec<f64> = runs.iter().map(|r| r.wall_s).collect();
    println!("  stream wall samples = {walls:.4?} s");
    report.metric(
        "setup_s",
        median(&setup),
        "s",
        &format!(
            "median of {} daemon starts, spawn → first pong{}",
            setup.len(),
            spread(&setup)
        ),
    );
    report.metric(
        "wall_s",
        median(&walls),
        "s",
        &format!(
            "median of {} streams, first submit → last done{}",
            walls.len(),
            spread(&walls)
        ),
    );
    println!("  peak_rss_mb samples = {rss:.2?} MB");
    report.metric(
        "peak_rss_mb",
        rss.iter().copied().fold(f64::NAN, f64::max),
        "MB",
        "highest VmHWM among the run's daemons",
    );

    let mut all = Vec::new();
    let (mut hits, mut misses) = (Vec::new(), Vec::new());
    for run in &runs {
        for (entry, reply) in plan.entries.iter().zip(&run.replies) {
            if let Ok(r) = reply {
                let ms = r.done_s * 1e3;
                all.push(ms);
                if entry.repeat_of.is_some() {
                    hits.push(ms)
                } else {
                    misses.push(ms)
                }
            }
        }
    }
    Report::info(
        "submit_p50_ms",
        median(&all),
        "ms",
        &format!("{} submits", all.len()),
    );
    if let Some(t) = stats::tail(&all, 10) {
        Report::info(
            "submit_tail_ms",
            t.value,
            "ms",
            &format!(
                "p{} of {} submits, {} beyond",
                t.percentile, t.samples, t.beyond
            ),
        );
    }
    Report::info(
        "hit_p50_ms",
        median(&hits),
        "ms",
        &format!("{} fully cached submits", hits.len()),
    );
    Report::info(
        "miss_p50_ms",
        median(&misses),
        "ms",
        &format!("{} executing submits", misses.len()),
    );
    Report::info(
        "submits_per_s",
        all.len() as f64 / walls.iter().sum::<f64>(),
        "1/s",
        &format!("{} clients", daemon::CLIENTS),
    );
    Ok(())
}

fn daemon_traced(opts: &Opts, report: &mut Report) -> Result<(), String> {
    let plan = stream_plan(opts.seed);
    let mut tracer = Tracer::new(true);
    // Untraced and traced streams alternate, so drift in the host's speed
    // reaches both alike. The spans come from the traced streams' replies.
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let mut reference: Option<Vec<(String, String)>> = None;
    for round in 0..2 {
        for (runs, tag) in [(&mut untraced, "untraced"), (&mut traced, "traced")] {
            let (run, _, _) = one_stream(opts, &plan, &format!("{tag}{round}"), report)?;
            check(&plan, &run, reference.as_deref(), report);
            if reference.is_none() {
                let docs = daemon::documents(&plan, &run);
                describe_stream(&plan, &docs);
                reference = Some(docs);
            }
            runs.push(run);
        }
    }
    let docs = reference.expect("at least one stream");
    let replies: Vec<&daemon::Reply> = traced
        .iter()
        .flat_map(|run| run.replies.iter().filter_map(|r| r.as_ref().ok()))
        .collect();
    for (i, reply) in replies.iter().enumerate() {
        record_reply_spans(&mut tracer, i as u64, reply);
    }
    let wall = median(&untraced.iter().map(|r| r.wall_s).collect::<Vec<_>>());
    let wall_traced = median(&traced.iter().map(|r| r.wall_s).collect::<Vec<_>>());
    report.metric(
        "trace.overhead_share",
        wall_traced / wall - 1.0,
        "ratio",
        &format!("traced stream {wall_traced:.4} s vs untraced {wall:.4} s"),
    );
    let accept: Vec<f64> = replies.iter().map(|r| r.accepted_s * 1e3).collect();
    let done: Vec<f64> = replies.iter().map(|r| r.done_gap_s() * 1e3).collect();
    report.metric(
        "protocol.accept_ms",
        median(&accept),
        "ms",
        "submit → accepted, median",
    );
    report.metric(
        "protocol.done_ms",
        median(&done),
        "ms",
        "last cell → done, median",
    );
    let bytes: usize = replies.iter().map(|r| r.done_bytes).sum();
    report.metric(
        "protocol.doc_bytes",
        bytes as f64 / replies.len().max(1) as f64,
        "B",
        "mean done line",
    );
    let (cells, cached) = replies.iter().fold((0, 0), |(n, c), r| {
        (
            n + r.cells.len(),
            c + r.cells.iter().filter(|x| x.1).count(),
        )
    });
    report.metric(
        "cache.hit_share",
        cached as f64 / cells.max(1) as f64,
        "ratio",
        "cached flags on cell events",
    );

    // The runner in process, on the stream's distinct campaigns.
    let registry = paper_registry();
    let runs = in_process_matches(&plan, &docs, &registry, &mut tracer, report);
    let cell_ms: Vec<f64> = runs
        .iter()
        .flat_map(|r| r.cell_s.iter().map(|s| s * 1e3))
        .collect();
    report.metric(
        "runner.cell_ms.p50",
        median(&cell_ms),
        "ms",
        "start → on_cell, in process",
    );
    let tails: Vec<f64> = runs
        .iter()
        .map(|r| (r.returned_s - r.cell_s.last().copied().unwrap_or(0.0)) * 1e3)
        .collect();
    report.metric(
        "runner.tail_ms",
        median(&tails),
        "ms",
        "last on_cell → campaign::run returns",
    );

    let mut replay = Replay::default();
    for (spec, run) in plan.specs.iter().zip(&runs) {
        let before = replay.cells.len();
        layers::replay(spec, &registry, &mut tracer, &mut replay)?;
        report.op(
            match layers::check_replay(&replay.cells[before..], &run.result).as_slice() {
                [] => Ok(()),
                [first, ..] => Err(first.clone()),
            },
        );
    }
    let inputs = LayerInputs {
        specs: &plan.specs,
        replay,
        wall_s: wall,
    };
    layer_metrics(opts, &inputs, &mut tracer, report)?;
    write_spans(opts, &tracer);
    Ok(())
}
