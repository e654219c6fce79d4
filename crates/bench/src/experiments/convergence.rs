//! Convergence-time experiments: Figures 3, 9, 10, 12, and 13.

use crate::experiments::common::{
    fmt_hours, initial_loss, population, surrogate, target_loss, Scale,
};
use papaya_core::TaskConfig;
use papaya_sim::scenario::TaskReport;

/// One row of a concurrency sweep.
#[derive(Clone, Debug)]
pub struct SweepRow {
    /// Concurrency of the configuration.
    pub(crate) concurrency: usize,
    /// SyncFL (30 % over-selection) report.
    pub(crate) sync: TaskReport,
    /// AsyncFL (K = reference aggregation goal) report.
    pub(crate) async_fl: TaskReport,
}

impl SweepRow {
    /// AsyncFL speedup over SyncFL in wall-clock time to target
    /// (`None` when either configuration missed the target).
    pub(crate) fn speedup(&self) -> Option<f64> {
        Some(self.sync.hours_to_target? / self.async_fl.hours_to_target?)
    }

    /// Communication-efficiency gain: SyncFL trips / AsyncFL trips.
    pub(crate) fn comm_gain(&self) -> f64 {
        self.sync.comm_trips() as f64 / self.async_fl.comm_trips().max(1) as f64
    }
}

/// Runs the SyncFL-only sweep of Figure 3 (time-to-target and communication
/// trips as concurrency grows).
pub fn fig3(scale: Scale, seed: u64) -> Vec<(usize, TaskReport)> {
    let pop = population(scale.population_size(), seed);
    let trainer = surrogate(&pop, seed);
    let target = target_loss(&trainer);
    scale
        .concurrencies()
        .into_iter()
        .map(|concurrency| {
            let task = TaskConfig::sync_task(format!("sync-{concurrency}"), concurrency, 0.3);
            let result = crate::experiments::common::run_to_target(
                task, &pop, &trainer, target, 150.0, seed,
            );
            (concurrency, result)
        })
        .collect()
}

/// Runs the Sync-vs-Async sweep of Figure 9 (and the server-update counts
/// behind Figure 8).
pub fn fig9(scale: Scale, seed: u64) -> Vec<SweepRow> {
    let pop = population(scale.population_size(), seed);
    let trainer = surrogate(&pop, seed);
    let target = target_loss(&trainer);
    let goal = scale.reference_aggregation_goal();
    scale
        .concurrencies()
        .into_iter()
        .map(|concurrency| {
            let sync = crate::experiments::common::run_to_target(
                TaskConfig::sync_task(format!("sync-{concurrency}"), concurrency, 0.3),
                &pop,
                &trainer,
                target,
                150.0,
                seed,
            );
            let async_fl = crate::experiments::common::run_to_target(
                TaskConfig::async_task(format!("async-{concurrency}"), concurrency, goal),
                &pop,
                &trainer,
                target,
                150.0,
                seed,
            );
            SweepRow {
                concurrency,
                sync,
                async_fl,
            }
        })
        .collect()
}

/// Runs the aggregation-goal sweep of Figure 10 at the reference
/// concurrency: hours to target and server updates per hour for varying `K`.
pub fn fig10(scale: Scale, seed: u64) -> Vec<(usize, TaskReport)> {
    let pop = population(scale.population_size(), seed);
    let trainer = surrogate(&pop, seed);
    let target = target_loss(&trainer);
    let concurrency = scale.reference_concurrency();
    let goals: Vec<usize> = match scale {
        Scale::Quick => vec![25, 80, 160, 325],
        Scale::Full => vec![100, 300, 650, 1000, 1300],
    };
    goals
        .into_iter()
        .map(|k| {
            let task = TaskConfig::async_task(format!("async-k{k}"), concurrency, k);
            let result = crate::experiments::common::run_to_target(
                task, &pop, &trainer, target, 150.0, seed,
            );
            (k, result)
        })
        .collect()
}

/// The four configurations of Figures 12 and 13.
#[derive(Clone, Debug)]
pub struct FourConfigResult {
    /// Configuration label.
    pub label: &'static str,
    /// Scenario outcome for the configuration (loss curve, hours to
    /// target, ...).
    pub result: TaskReport,
}

/// Runs the four-configuration comparison of Figures 12/13: SyncFL without
/// over-selection, SyncFL with over-selection, AsyncFL with K equal to the
/// SyncFL goal, and AsyncFL with the small reference K.
pub fn fig12(scale: Scale, seed: u64) -> Vec<FourConfigResult> {
    let pop = population(scale.population_size(), seed);
    let trainer = surrogate(&pop, seed);
    let target = target_loss(&trainer);
    let concurrency = scale.reference_concurrency();
    let large_k = (concurrency as f64 / 1.3).round() as usize;
    let small_k = scale.reference_aggregation_goal();

    let configs: Vec<(&'static str, TaskConfig)> = vec![
        (
            "SyncFL w/o over-selection",
            TaskConfig::sync_task("sync-noos", large_k, 0.0),
        ),
        (
            "SyncFL w/ over-selection",
            TaskConfig::sync_task("sync-os", concurrency, 0.3),
        ),
        (
            "AsyncFL K=large",
            TaskConfig::async_task("async-large-k", concurrency, large_k),
        ),
        (
            "AsyncFL K=small",
            TaskConfig::async_task("async-small-k", concurrency, small_k),
        ),
    ];
    configs
        .into_iter()
        .map(|(label, task)| FourConfigResult {
            label,
            result: crate::experiments::common::run_to_target(
                task, &pop, &trainer, target, 250.0, seed,
            ),
        })
        .collect()
}

/// Prints a Figure 9 style table.
pub fn print_fig9(rows: &[SweepRow]) {
    println!(
        "concurrency | sync hours | async hours | speedup | sync trips | async trips | comm gain"
    );
    for row in rows {
        println!(
            "{:11} | {} | {} | {:7.2} | {:10} | {:11} | {:9.2}",
            row.concurrency,
            fmt_hours(row.sync.hours_to_target),
            fmt_hours(row.async_fl.hours_to_target),
            row.speedup().unwrap_or(f64::NAN),
            row.sync.comm_trips(),
            row.async_fl.comm_trips(),
            row.comm_gain(),
        );
    }
}

/// Prints the initial-loss / target context line used by several binaries.
pub fn print_target_context(scale: Scale, seed: u64) {
    let pop = population(scale.population_size(), seed);
    let trainer = surrogate(&pop, seed);
    println!(
        "# population = {} devices, initial loss = {:.4}, target loss = {:.4}",
        pop.len(),
        initial_loss(&trainer),
        target_loss(&trainer)
    );
}
