//! Privacy-utility ablation: the DP-vs-clear convergence gap as a function
//! of the noise multiplier.
//!
//! The paper's privacy story pairs secure aggregation with user-level DP;
//! the cost of the DP half is a convergence gap that grows with the noise
//! multiplier `z`.  This experiment runs the *same* FedBuff scenario across
//! a `z` sweep (`0` is the clear-equivalent baseline — bit-exact by the
//! `dp_equivalence` suite) and reports, per multiplier: the final evaluated
//! loss, the remaining-loss fraction relative to the clear run, the clip
//! fraction, the per-release noise std, and the cumulative `(ε, δ)` the
//! accountant certifies.  Uniform (non-example) weighting keeps the
//! per-release noise std at `C·z/K`, so the multiplier sweep maps directly
//! onto a signal-to-noise sweep.

use crate::experiments::common::population;
use papaya_core::surrogate::SurrogateObjective;
use papaya_core::{DpConfig, TaskConfig};
use papaya_sim::scenario::{EvalPolicy, RunLimits, Scenario, TaskReport};
use std::sync::Arc;

use super::common::{experiment_surrogate_config, Scale};

/// The noise multipliers swept (0 = clear-equivalent baseline).
pub(crate) const NOISE_MULTIPLIERS: [f64; 5] = [0.0, 0.25, 0.5, 1.0, 2.0];

/// One row of the privacy-utility ablation.
#[derive(Clone, Debug)]
pub struct DpAblationRow {
    /// Noise multiplier `z` of this run.
    pub(crate) noise_multiplier: f64,
    /// Final evaluated population loss.
    pub(crate) final_loss: f64,
    /// `final_loss / clear_final_loss` — 1.0 for the baseline, growing
    /// with `z` (the convergence gap).
    pub(crate) loss_vs_clear: f64,
    /// Server updates (all of them accounted DP releases).
    pub(crate) releases: u64,
    /// Lifetime fraction of accepted updates that were clipped.
    pub(crate) clip_fraction: f64,
    /// Noise std of the last release (`C·z / weight_total`).
    pub(crate) noise_std: f64,
    /// Cumulative `epsilon(target_delta)` after the last release
    /// (`∞` at `z = 0`).
    pub(crate) epsilon: f64,
}

/// The `δ` the sweep reports ε at.
pub const ABLATION_DELTA: f64 = 1e-6;

fn run_once(scale: Scale, seed: u64, noise_multiplier: f64) -> TaskReport {
    let size = match scale {
        Scale::Quick => 1_000,
        Scale::Full => 8_000,
    };
    let hours = match scale {
        Scale::Quick => 1.0,
        Scale::Full => 4.0,
    };
    let pop = population(size, seed);
    let trainer = Arc::new(SurrogateObjective::new(
        &pop,
        experiment_surrogate_config(),
        seed,
    ));
    let dp = DpConfig::new(2.0, noise_multiplier)
        // K-of-population per release, claimed conservatively.
        .with_sampling_rate((32.0 / size as f64).min(1.0))
        .with_target_delta(ABLATION_DELTA);
    Scenario::builder()
        .population(pop)
        .task_with_trainer(
            TaskConfig::async_task("dp-ablation", 64, 32)
                .with_example_weighting(false)
                .with_dp(dp),
            trainer,
        )
        .limits(RunLimits::default().with_max_virtual_time_hours(hours))
        .eval(EvalPolicy::default().with_interval_s(600.0))
        .seed(seed)
        .build()
        .run()
        .into_single()
}

/// Runs the noise-multiplier sweep.
pub fn dp_ablation(scale: Scale, seed: u64) -> Vec<DpAblationRow> {
    let reports: Vec<TaskReport> = NOISE_MULTIPLIERS
        .iter()
        .map(|&z| run_once(scale, seed, z))
        .collect();
    let clear_loss = reports[0].final_loss;
    NOISE_MULTIPLIERS
        .iter()
        .zip(&reports)
        .map(|(&z, report)| {
            let dp = &report.metrics.dp;
            DpAblationRow {
                noise_multiplier: z,
                final_loss: report.final_loss,
                loss_vs_clear: report.final_loss / clear_loss,
                releases: dp.releases,
                clip_fraction: dp.clip_fraction(),
                noise_std: dp.release_trace.last().map_or(0.0, |r| r.noise_std),
                epsilon: dp.cumulative_epsilon,
            }
        })
        .collect()
}

/// Prints the ablation table.
pub fn print_dp_ablation(rows: &[DpAblationRow]) {
    println!(
        "{:>6} {:>12} {:>10} {:>9} {:>8} {:>10} {:>14}",
        "z", "final_loss", "vs_clear", "releases", "clip%", "noise_std", "epsilon"
    );
    for row in rows {
        let epsilon = if row.epsilon.is_finite() {
            format!("{:.3}", row.epsilon)
        } else {
            "inf (no noise)".to_string()
        };
        println!(
            "{:>6.2} {:>12.5} {:>10.3} {:>9} {:>8.1} {:>10.5} {:>14}",
            row.noise_multiplier,
            row.final_loss,
            row.loss_vs_clear,
            row.releases,
            100.0 * row.clip_fraction,
            row.noise_std,
            epsilon,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ablation_shapes_match_the_privacy_utility_trade_off() {
        let rows = dp_ablation(Scale::Quick, 7);
        assert_eq!(rows.len(), NOISE_MULTIPLIERS.len());
        // The clear-equivalent baseline: no privacy claimed, no noise.
        assert_eq!(rows[0].loss_vs_clear, 1.0);
        assert_eq!(rows[0].epsilon, f64::INFINITY);
        assert_eq!(rows[0].noise_std, 0.0);
        for row in &rows {
            assert!(row.releases > 10, "z={}: barely ran", row.noise_multiplier);
        }
        // Convergence gap: the heaviest noise is clearly worse than clear,
        // and the sweep's extremes order correctly (middle points may jitter
        // within simulation noise; the equivalence suite pins a strict
        // ordering on widely spaced multipliers).
        let last = rows.last().unwrap();
        assert!(
            last.loss_vs_clear > 1.02,
            "no convergence gap at z=2: {}",
            last.loss_vs_clear
        );
        // ε decreases as z rises over the noised rows.
        for pair in rows[1..].windows(2) {
            assert!(pair[0].epsilon.is_finite());
            assert!(
                pair[1].epsilon <= pair[0].epsilon,
                "epsilon rose with noise: {pair:?}"
            );
        }
        // Noise std rises linearly with z at a fixed clip bound and goal.
        for pair in rows[1..].windows(2) {
            assert!(pair[1].noise_std > pair[0].noise_std);
        }
    }
}
