//! A multi-application campaign on the parallel engine: three of the
//! paper's problems — sorting, bipartite matching and SVM training — swept
//! over fault rates with one declarative grid, aggregated
//! deterministically regardless of thread count. The sorting column also
//! demonstrates the fault-model axis: it runs under a mul/div-only
//! injector instead of the campaign's default transient flip.
//!
//! ```sh
//! cargo run --release --example parallel_sweep
//! ```

use rand::{rngs::StdRng, SeedableRng};
use robustify::apps::matching::MatchingProblem;
use robustify::apps::sorting::SortProblem;
use robustify::apps::svm::{Dataset, SvmProblem};
use robustify::core::{SolverSpec, StepSchedule, WorkloadRegistry};
use robustify::engine::campaign::{self, CampaignSpec, JobSpec};
use robustify::fpu::{BitFaultModel, FaultModelSpec, FlopOp};
use robustify::graph::generators::random_bipartite;

fn main() {
    let sqs = |iters| SolverSpec::sgd(iters, StepSchedule::Sqrt { gamma0: 0.1 });

    // The workloads the jobs name: each factory draws a fresh instance
    // from the trial's seed, and each default solver is the one run here.
    let mut registry = WorkloadRegistry::new();
    registry.register(
        "sorting",
        Box::new(|seed| Box::new(SortProblem::random(&mut StdRng::seed_from_u64(seed), 5))),
        Box::new(move |_| sqs(5000)),
    );
    registry.register(
        "matching",
        Box::new(|seed| {
            Box::new(MatchingProblem::new(random_bipartite(
                &mut StdRng::seed_from_u64(seed),
                5,
                6,
                30,
            )))
        }),
        Box::new(move |_| sqs(5000)),
    );
    registry.register(
        "svm",
        Box::new(|seed| {
            let data = Dataset::separable_blobs(&mut StdRng::seed_from_u64(seed), 30, 4, 2.0, 0.9);
            Box::new(SvmProblem::new(data, 0.05).expect("λ is positive"))
        }),
        Box::new(move |_| sqs(2000)),
    );

    let spec = CampaignSpec::new("multi_app")
        .rates(vec![1.0, 5.0, 10.0])
        .trials(20)
        .seed(42)
        .model(BitFaultModel::emulated())
        .job(
            JobSpec::new("sorting_muldiv_faults", "sorting")
                .per_trial()
                .with_fault_model(FaultModelSpec::op_selective(
                    vec![FlopOp::Mul, FlopOp::Div],
                    FaultModelSpec::default(),
                )),
        )
        .job(JobSpec::new("matching", "matching").per_trial())
        .job(JobSpec::new("svm", "svm").per_trial());
    // All (job × rate × trial) cells run in parallel.
    let result = campaign::run(&spec, &registry, None, |_| {})
        .expect("valid campaign")
        .result;
    print!("{}", result.to_csv());
    eprintln!(
        "{} trials at {:.0} trials/s",
        result.total_trials(),
        result.throughput()
    );
}
