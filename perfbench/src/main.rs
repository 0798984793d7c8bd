//! The repository's benchmark: runs one named workload for a fixed time,
//! checks every output document, and prints each metric by name with its
//! unit. The last line of standard output is the machine-readable result:
//!
//! ```text
//! {"correct": true, "attempted": 9, "failed": 0, "metrics": {"setup_s": {"value": 0.01, "unit": "s"}, ...}}
//! ```
//!
//! Usage: `perfbench --workload <paper_grid|nominal_sparse|daemon_mixed>
//! --seed <n> --seconds <s> --trace <0|1> --server-bin <campaign_server>`.
//! `--trace 0` reports the end-to-end metrics; `--trace 1` runs the
//! traced pass and reports the per-layer ones. See `perfbench/README.md`.

#![forbid(unsafe_code)]

mod daemon;
mod host;
mod layers;
mod stats;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::path::PathBuf;

/// The end-to-end metrics every workload reports with `--trace 0`.
pub const END_TO_END: [&str; 3] = ["setup_s", "wall_s", "peak_rss_mb"];

/// The per-layer metrics every workload reports with `--trace 1`.
pub const PER_LAYER: [&str; 25] = [
    "fpu.fast_ns_per_flop",
    "fpu.strike_ns_per_flop",
    "fpu.flops",
    "fpu.faults_per_mflop",
    "linalg.spmv_mnnz_per_s",
    "linalg.gemv_ns_per_flop",
    "core.cgls_iter_ms",
    "core.sgd_iter_us",
    "apps.trial_ms.p50",
    "apps.trial_ms.tail",
    "apps.success_share",
    "registry.materialize_ms",
    "scheduler.item_us",
    "scheduler.busy_share",
    "runner.cell_ms.p50",
    "runner.tail_ms",
    "cache.load_ms",
    "cache.store_ms",
    "cache.entry_bytes",
    "cache.hit_share",
    "protocol.accept_ms",
    "protocol.done_ms",
    "protocol.doc_bytes",
    "accounting.unexplained_share",
    "trace.overhead_share",
];

/// The benchmark's workloads.
pub const WORKLOADS: [&str; 3] = ["paper_grid", "nominal_sparse", "daemon_mixed"];

/// Parsed command line.
pub struct Opts {
    /// One of [`WORKLOADS`].
    pub workload: String,
    /// The workload seed: every input is generated from it.
    pub seed: u64,
    /// How long the measured phase runs.
    pub seconds: f64,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
    /// The `campaign_server` executable.
    pub server_bin: PathBuf,
    /// Scratch space for cache directories and the span file:
    /// `.bench_work` in the working directory.
    pub work_dir: PathBuf,
}

/// Collects operations, failures and metrics, and prints the report.
pub struct Report {
    attempted: usize,
    failures: Vec<String>,
    metrics: BTreeMap<&'static str, (f64, &'static str)>,
}

impl Report {
    fn new() -> Self {
        Report {
            attempted: 0,
            failures: Vec::new(),
            metrics: BTreeMap::new(),
        }
    }

    /// Counts one checked operation; an `Err` is a failed one.
    pub fn op(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            self.fail(e);
        }
    }

    /// Records a failure of an operation already counted.
    pub fn fail(&mut self, reason: String) {
        println!("FAIL {reason}");
        self.failures.push(reason);
    }

    /// A reported metric of this mode: printed, and part of the result.
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str, note: &str) {
        Self::info(name, value, unit, note);
        self.metrics.insert(name, (value, unit));
    }

    /// A printed-only figure.
    pub fn info(name: &str, value: f64, unit: &str, note: &str) {
        if note.is_empty() {
            println!("  {name} = {value} {unit}");
        } else {
            println!("  {name} = {value} {unit}  ({note})");
        }
    }

    fn finish(mut self, expected: &[&'static str]) -> bool {
        let fail_share = self.failures.len() as f64 / self.attempted.max(1) as f64;
        Self::info(
            "fail_share",
            fail_share,
            "ratio",
            &format!(
                "{} failed of {} attempted",
                self.failures.len(),
                self.attempted
            ),
        );
        for name in expected {
            match self.metrics.get(name) {
                Some((v, _)) if v.is_finite() => {}
                _ => self
                    .failures
                    .push(format!("metric {name} was not measured")),
            }
        }
        let metrics: Vec<String> = expected
            .iter()
            .filter_map(|name| {
                let (value, unit) = self.metrics.get(name)?;
                value
                    .is_finite()
                    .then(|| format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"))
            })
            .collect();
        let correct = self.failures.is_empty();
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted.max(1),
            self.failures.len(),
            metrics.join(", ")
        );
        correct
    }
}

fn usage(msg: &str) -> ! {
    eprintln!(
        "perfbench: {msg}\nusage: perfbench --workload <{}> --seed <n> --seconds <s> \
         --trace <0|1> --server-bin <path>",
        WORKLOADS.join("|")
    );
    std::process::exit(2)
}

fn parse() -> (Opts, bool) {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut child = false;
    let mut server_bin = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || {
            args.next()
                .unwrap_or_else(|| usage(&format!("{flag} needs a value")))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value()),
            "--seed" => seed = Some(value().parse().unwrap_or_else(|_| usage("bad --seed"))),
            "--seconds" => {
                seconds = value()
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s > 0.0)
                    .unwrap_or_else(|| usage("bad --seconds"))
            }
            "--trace" => {
                trace = match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                }
            }
            "--server-bin" => server_bin = Some(PathBuf::from(value())),
            "--child" => child = true,
            other => usage(&format!("unknown flag {other}")),
        }
    }
    let workload = workload.unwrap_or_else(|| usage("--workload is required"));
    if !WORKLOADS.contains(&workload.as_str()) {
        usage(&format!("unknown workload {workload}"));
    }
    let opts = Opts {
        workload,
        seed: seed.unwrap_or_else(|| usage("--seed is required")),
        seconds,
        trace,
        server_bin: server_bin.unwrap_or_else(|| {
            if child {
                PathBuf::new()
            } else {
                usage("--server-bin is required")
            }
        }),
        work_dir: PathBuf::from(".bench_work"),
    };
    (opts, child)
}

fn main() {
    let (opts, child) = parse();
    if child {
        workloads::child(&opts);
        return;
    }
    println!(
        "perfbench workload={} seed={} seconds={} trace={}",
        opts.workload, opts.seed, opts.seconds, opts.trace as u8
    );
    println!("host {}", host::fingerprint());
    if let Err(e) = std::fs::create_dir_all(&opts.work_dir) {
        usage(&format!("work dir {}: {e}", opts.work_dir.display()));
    }
    let mut report = Report::new();
    workloads::run(&opts, &mut report);
    let expected: &[&'static str] = if opts.trace { &PER_LAYER } else { &END_TO_END };
    if !report.finish(expected) {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stochastic_fpu::json::{self, JsonValue};

    fn names(doc: &JsonValue, key: &str) -> Vec<String> {
        match doc.get(key) {
            Some(JsonValue::Array(items)) => items
                .iter()
                .filter_map(|m| {
                    m.get("name")
                        .and_then(JsonValue::as_str)
                        .map(str::to_string)
                })
                .collect(),
            _ => panic!("BENCHMARK.json lacks {key}"),
        }
    }

    #[test]
    fn benchmark_json_lists_exactly_the_reported_metrics_and_workloads() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = json::parse(&text).expect("BENCHMARK.json parses");
        assert_eq!(names(&doc, "end_to_end"), END_TO_END);
        assert_eq!(names(&doc, "per_layer"), PER_LAYER);
        assert_eq!(names(&doc, "workloads"), WORKLOADS);
    }

    #[test]
    fn a_failed_operation_makes_the_result_incorrect() {
        let mut report = Report::new();
        report.op(Ok(()));
        report.op(Err("document differs".to_string()));
        for name in END_TO_END {
            report.metric(name, 1.0, "s", "");
        }
        assert!(!report.finish(&END_TO_END));

        let mut report = Report::new();
        report.op(Ok(()));
        report.metric("setup_s", 1.0, "s", "");
        // A metric that was never measured is a failure too.
        assert!(!report.finish(&END_TO_END));
    }
}
