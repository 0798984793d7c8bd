//! A fragile application on a stochastic processor: sorting.
//!
//! Sorting is "traditionally not thought of as an application that is
//! error tolerant" — one corrupted comparison and the output is wrong.
//! This example sweeps quicksort and the robustified LP-based sort side by
//! side across fault rates on the parallel engine and reports success over
//! repeated trials.
//!
//! ```sh
//! cargo run --release --example sorting_under_faults
//! ```

use robustify::apps::sorting::SortProblem;
use robustify::core::{
    AggressiveStepping, GradientGuard, SolverSpec, StepSchedule, WorkloadRegistry,
};
use robustify::engine::campaign::{self, CampaignSpec, JobSpec};
use robustify::fpu::BitFaultModel;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let problem = SortProblem::new(vec![7.5, -3.0, 142.0, 0.25, 11.0])?;
    println!("input: {:?}", problem.input());

    // The paper's strongest sorting configuration: 1/sqrt(t) steps plus
    // an aggressive-stepping tail.
    let robust = SolverSpec::sgd(10_000, StepSchedule::Sqrt { gamma0: 0.1 })
        .with_guard(GradientGuard::Adaptive {
            factor: 3.0,
            reject: 30.0,
        })
        .with_aggressive_stepping(AggressiveStepping::default());

    // A one-workload registry pinned to this input: the factory ignores
    // its seed, so every trial sorts the same array under its own faults.
    let mut registry = WorkloadRegistry::new();
    registry.register(
        "input",
        Box::new(move |_| Box::new(problem.clone())),
        Box::new(|_| SolverSpec::baseline()),
    );
    let spec = CampaignSpec::new("sorting_under_faults")
        .rates(vec![0.5, 2.0, 5.0, 10.0, 20.0])
        .trials(60)
        .seed(7)
        .model(BitFaultModel::emulated())
        .job(JobSpec::new("quicksort", "input"))
        .job(JobSpec::new("robust_sgd", "input").with_solver(robust));
    let result = campaign::run(&spec, &registry, None, |_| {})?.result;

    println!(
        "{:>12} {:>14} {:>14}",
        "fault_rate_%", "quicksort_%", "robust_sgd_%"
    );
    for (rate_idx, rate_pct) in result.rates_pct().iter().enumerate() {
        println!(
            "{rate_pct:>12} {:>14.1} {:>14.1}",
            result.cell(0, rate_idx).success_rate(),
            result.cell(1, rate_idx).success_rate(),
        );
    }
    Ok(())
}
