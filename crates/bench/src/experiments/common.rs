//! Shared experiment plumbing: populations, trainers, convergence runs, and
//! command-line handling for the figure binaries.

use papaya_core::client::ClientTrainer;
use papaya_core::surrogate::{ProceduralSurrogate, SurrogateConfig};
use papaya_core::TaskConfig;
use papaya_data::population::{Population, PopulationConfig};
use papaya_sim::scenario::{EvalPolicy, RunLimits, Scenario, TaskReport};
use papaya_sim::ServerOptimizerKind;
use std::sync::Arc;

/// Experiment scale: `Quick` for CI-sized runs, `Full` for the runs recorded
/// in EXPERIMENTS.md.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Small populations and concurrencies; finishes in seconds.
    Quick,
    /// The full sweep (minutes).
    Full,
}

impl Scale {
    /// Population size used for the surrogate experiments.
    pub(crate) fn population_size(&self) -> usize {
        match self {
            Scale::Quick => 4_000,
            Scale::Full => 20_000,
        }
    }

    /// Concurrency sweep (Figures 3, 8, 9).
    pub(crate) fn concurrencies(&self) -> Vec<usize> {
        match self {
            Scale::Quick => vec![65, 130, 325, 650],
            Scale::Full => vec![130, 650, 1300, 2000, 2600],
        }
    }

    /// The reference concurrency used by Figures 7, 10, 12, 13 (1300 in the
    /// paper).
    pub(crate) fn reference_concurrency(&self) -> usize {
        match self {
            Scale::Quick => 325,
            Scale::Full => 1300,
        }
    }

    /// The reference aggregation goal (`K = 100` in the paper, scaled with
    /// concurrency for quick runs).
    pub(crate) fn reference_aggregation_goal(&self) -> usize {
        match self {
            Scale::Quick => 25,
            Scale::Full => 100,
        }
    }
}

/// Parsed command-line arguments shared by all figure binaries.
#[derive(Clone, Debug)]
pub struct CliArgs {
    /// Experiment scale.
    pub scale: Scale,
    /// RNG seed.
    pub seed: u64,
}

/// Parses `--quick` / `--full` / `--seed N` from `std::env::args`.  A flag
/// it does not know, a `--seed` without a value, or a seed that is not a
/// `u64` prints the error and a usage line and exits with status 2: a typo
/// must not silently reproduce a different figure.
pub fn parse_args() -> CliArgs {
    let args: Vec<String> = std::env::args().skip(1).collect();
    parse_from(&args).unwrap_or_else(|error| {
        eprintln!("error: {error}\nusage: [--quick | --full] [--seed N]");
        std::process::exit(2)
    })
}

/// [`parse_args`] over an explicit argument list (program name excluded).
fn parse_from(args: &[String]) -> Result<CliArgs, String> {
    let mut parsed = CliArgs {
        scale: Scale::Quick,
        seed: 42,
    };
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => parsed.scale = Scale::Quick,
            "--full" => parsed.scale = Scale::Full,
            "--seed" => {
                let value = args.next().ok_or("--seed needs a value")?;
                parsed.seed = value
                    .parse()
                    .map_err(|_| format!("--seed {value:?} is not an unsigned integer"))?;
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(parsed)
}

/// The surrogate configuration used by the convergence experiments: enough
/// gradient noise that cohort size matters, plus heavy-client bias so
/// over-selection hurts.
pub(crate) fn experiment_surrogate_config() -> SurrogateConfig {
    SurrogateConfig {
        dim: 32,
        heterogeneity: 0.8,
        volume_bias: 2.0,
        local_learning_rate: 0.05,
        batch_size: 32,
        max_local_steps: 4,
        // Large per-update gradient noise puts the experiments in the
        // noise-limited regime the paper operates in: aggregating more client
        // updates per server step improves the step's signal-to-noise ratio,
        // which is what makes cohort size / aggregation goal matter.
        gradient_noise: 60.0,
        init_distance: 8.0,
    }
}

/// Builds the default synthetic population.
pub(crate) fn population(size: usize, seed: u64) -> Population {
    Population::generate(&PopulationConfig::default().with_size(size), seed)
}

/// Builds the surrogate trainer over a population.
pub(crate) fn surrogate(population: &Population, seed: u64) -> Arc<ProceduralSurrogate> {
    Arc::new(ProceduralSurrogate::new(
        population,
        experiment_surrogate_config(),
        seed,
    ))
}

/// The initial population loss of a surrogate objective (used to set
/// relative loss targets).
pub(crate) fn initial_loss(trainer: &ProceduralSurrogate) -> f64 {
    let all: Vec<usize> = (0..trainer.num_clients()).collect();
    trainer.evaluate(&trainer.initial_parameters(), &all)
}

/// A target loss for convergence experiments: the achievable floor (loss at
/// the population optimum) plus 5 % of the initial-to-floor gap.
pub(crate) fn target_loss(trainer: &ProceduralSurrogate) -> f64 {
    let all: Vec<usize> = (0..trainer.num_clients()).collect();
    let floor = trainer.evaluate(&trainer.population_optimum(), &all);
    let initial = initial_loss(trainer);
    floor + 0.05 * (initial - floor)
}

/// Runs one task to a target loss (or the virtual-time cap) through the
/// unified [`Scenario`] entrypoint and returns the task's report.
pub(crate) fn run_to_target(
    task: TaskConfig,
    population: &Population,
    trainer: &Arc<ProceduralSurrogate>,
    target_loss: f64,
    max_hours: f64,
    seed: u64,
) -> TaskReport {
    Scenario::builder()
        .population(population.clone())
        .task_with_trainer(task, trainer.clone())
        .limits(
            RunLimits::default()
                .with_target_loss(target_loss)
                .with_max_virtual_time_hours(max_hours),
        )
        .eval(
            EvalPolicy::default()
                .with_interval_s(60.0)
                .with_sample_size(300),
        )
        // FedAdam on the server, as in Section 7.1.
        .server_optimizer(ServerOptimizerKind::FedAdam {
            learning_rate: 0.02,
            beta1: 0.9,
        })
        .seed(seed)
        .build()
        .run()
        .into_single()
}

/// Formats an `Option<f64>` hours value for table output.
pub fn fmt_hours(hours: Option<f64>) -> String {
    match hours {
        Some(h) => format!("{h:8.2}"),
        None => "   >cap ".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_expose_growing_sweeps() {
        assert!(Scale::Quick.population_size() < Scale::Full.population_size());
        assert!(Scale::Quick.concurrencies().len() <= Scale::Full.concurrencies().len());
        assert!(Scale::Quick.reference_concurrency() < Scale::Full.reference_concurrency());
    }

    fn parse(args: &[&str]) -> Result<CliArgs, String> {
        let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        parse_from(&args)
    }

    #[test]
    fn parse_from_reads_scale_and_seed() {
        let defaults = parse(&[]).expect("no arguments is valid");
        assert_eq!((defaults.scale, defaults.seed), (Scale::Quick, 42));
        let args = parse(&["--full", "--seed", "7"]).expect("valid arguments");
        assert_eq!((args.scale, args.seed), (Scale::Full, 7));
    }

    #[test]
    fn parse_from_rejects_an_unknown_flag() {
        let error = parse(&["--quick", "--sede", "7"]).unwrap_err();
        assert!(error.contains("--sede"), "{error}");
    }

    #[test]
    fn parse_from_rejects_a_dangling_seed() {
        let error = parse(&["--full", "--seed"]).unwrap_err();
        assert!(error.contains("needs a value"), "{error}");
    }

    #[test]
    fn parse_from_rejects_a_non_numeric_seed() {
        let error = parse(&["--seed", "abc"]).unwrap_err();
        assert!(error.contains("abc"), "{error}");
    }

    #[test]
    fn run_to_target_converges_for_a_small_async_task() {
        let pop = population(1_500, 3);
        let trainer = surrogate(&pop, 3);
        let target = target_loss(&trainer);
        assert!(target < initial_loss(&trainer));
        let result = run_to_target(
            TaskConfig::async_task("t", 64, 16),
            &pop,
            &trainer,
            target,
            50.0,
            3,
        );
        assert!(result.hours_to_target.is_some(), "did not reach target");
    }

    #[test]
    fn fmt_hours_handles_missing() {
        assert!(fmt_hours(None).contains(">cap"));
        assert!(fmt_hours(Some(1.5)).contains("1.50"));
    }
}
