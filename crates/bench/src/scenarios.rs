//! The canonical scenarios: named, seeded [`Scenario`] definitions whose
//! `Report::fingerprint()` values pin the simulator's behaviour.
//!
//! Nothing here measures anything.  Wall-clock, throughput, peak RSS and
//! the per-layer attribution all live in the repo benchmark (`benchmark/`),
//! which builds its own workloads.  This module only *defines* runs, for
//! the callers that need the same run by name:
//! `tests/golden_fingerprints.rs` (every fingerprint committed, and checked
//! sequentially and on a worker pool), the `fingerprints` bin that prints
//! them, and the `control_plane_soak` bin.
//!
//! Eight scenarios, each in a full and a `quick` size:
//!
//! * `fedbuff-20k` — single-task FedBuff over a 20 000-device population,
//!   the paper's reference asynchronous workload;
//! * `fedbuff-20k-secagg` — the same workload through AsyncSecAgg
//!   (session-cached key exchange, ratcheted masks, per-buffer TSA key
//!   release);
//! * `fedbuff-20k-dp` — the same workload with user-level differential
//!   privacy (per-update L2 clipping, seeded Gaussian release noise, RDP
//!   accounting);
//! * `timed-hybrid` — the deadline-release strategy, which stresses the
//!   exact-deadline event path;
//! * `fleet-crash` — a 6-task multi-tenant fleet with an injected
//!   Aggregator crash, which stresses the control plane;
//! * `fedbuff-1m` — FedBuff over a **million-device** population (never
//!   shrunk by `quick`): flat sampling pool, packed population,
//!   procedural trainer, bounded traces (`docs/SCALING.md`);
//! * `fleet-scale` — a 4-task fleet over 200 000 devices (50 000 quick),
//!   the control plane at fleet population scale, also trace-bounded;
//! * `lm-tiny` — FedBuff over 60 devices training the real character LSTM
//!   (`papaya-lm`), the one scenario whose fingerprint passes through the
//!   LSTM kernels; one size, `quick` or not.
//!
//! plus [`soak_scenario`], the turbulent fleet run behind
//! `control_plane_soak`.

use crate::experiments::common::population;
use papaya_core::config::SecAggMode;
use papaya_core::surrogate::{ProceduralSurrogate, SurrogateConfig};
use papaya_core::{DpConfig, TaskConfig};
use papaya_data::dataset::FederatedTextDataset;
use papaya_data::population::{Population, PopulationConfig};
use papaya_lm::{LmClientTrainer, LmConfig};
use papaya_sim::scenario::{EvalPolicy, FleetSpec, RunLimits, Scenario};
use papaya_sim::Parallelism;
use std::sync::Arc;

/// The procedural surrogate on a configuration heavy enough that client
/// training dominates the event loop, as the real LSTM does in production:
/// the trainer of every canonical surrogate scenario.  (The
/// figure-experiment config is tuned for convergence dynamics instead and
/// trains in ~1 µs, which would exercise the event queue rather than the
/// training path.)
pub fn perf_trainer(population: &Population, seed: u64) -> Arc<ProceduralSurrogate> {
    let config = SurrogateConfig {
        dim: 128,
        heterogeneity: 0.5,
        volume_bias: 2.0,
        local_learning_rate: 0.05,
        batch_size: 16,
        max_local_steps: 32,
        gradient_noise: 1.0,
        init_distance: 8.0,
    };
    Arc::new(ProceduralSurrogate::new(population, config, seed))
}

/// Builds one canonical scenario by name.
///
/// # Panics
///
/// Panics on an unknown scenario name; see [`SCENARIO_NAMES`].
pub fn build_scenario(name: &str, quick: bool, parallelism: Parallelism, seed: u64) -> Scenario {
    let scale = |full: usize, q: usize| if quick { q } else { full };
    match name {
        "fedbuff-20k" => {
            let pop = population(scale(20_000, 2_000), seed);
            let trainer = perf_trainer(&pop, seed);
            Scenario::builder()
                .population(pop)
                .task_with_trainer(
                    TaskConfig::async_task("fedbuff-20k", scale(1024, 256), scale(128, 32)),
                    trainer,
                )
                .limits(
                    RunLimits::default()
                        .with_max_virtual_time_hours(100.0)
                        .with_max_client_updates(scale(40_000, 4_000) as u64)
                        .with_parallelism(parallelism),
                )
                .eval(
                    EvalPolicy::default()
                        .with_interval_s(1800.0)
                        .with_sample_size(100),
                )
                .seed(seed)
                .build()
        }
        "fedbuff-20k-secagg" => {
            // The fedbuff-20k workload with AsyncSecAgg in the loop: every
            // accepted update runs the client protocol (session-cached key
            // exchange, ratcheted masking) and every release is one batched
            // TSA key release.  The update budget predates the session cache
            // (when per-update DH dominated the wall clock) and is kept so
            // the committed fingerprint does not move.
            let pop = population(scale(20_000, 2_000), seed);
            let trainer = perf_trainer(&pop, seed);
            Scenario::builder()
                .population(pop)
                .task_with_trainer(
                    TaskConfig::async_task("fedbuff-20k-secagg", scale(1024, 256), scale(128, 32))
                        .with_secagg(SecAggMode::AsyncSecAgg),
                    trainer,
                )
                .limits(
                    RunLimits::default()
                        .with_max_virtual_time_hours(100.0)
                        .with_max_client_updates(scale(10_000, 1_200) as u64)
                        .with_parallelism(parallelism),
                )
                .eval(
                    EvalPolicy::default()
                        .with_interval_s(1800.0)
                        .with_sample_size(100),
                )
                .seed(seed)
                .build()
        }
        "fedbuff-20k-dp" => {
            // The fedbuff-20k workload with the DP layer in the loop: every
            // accepted update is L2-clipped (a norm + scale over the model
            // dimension) and every release draws model-dimension Gaussian
            // noise and one accountant query.  Cheap enough per update that
            // the clear scenario's budget is kept.  (The concurrency-over-
            // population sampling rate models amplification for the typical
            // user; FedBuff selection is speed-biased, so it is not a
            // worst-case certificate — see papaya_core::dp.)
            let pop = population(scale(20_000, 2_000), seed);
            let trainer = perf_trainer(&pop, seed);
            Scenario::builder()
                .population(pop)
                .task_with_trainer(
                    TaskConfig::async_task("fedbuff-20k-dp", scale(1024, 256), scale(128, 32))
                        .with_dp(DpConfig::new(2.0, 1.0).with_sampling_rate(
                            scale(1024, 256) as f64 / scale(20_000, 2_000) as f64,
                        )),
                    trainer,
                )
                .limits(
                    RunLimits::default()
                        .with_max_virtual_time_hours(100.0)
                        .with_max_client_updates(scale(40_000, 4_000) as u64)
                        .with_parallelism(parallelism),
                )
                .eval(
                    EvalPolicy::default()
                        .with_interval_s(1800.0)
                        .with_sample_size(100),
                )
                .seed(seed)
                .build()
        }
        "timed-hybrid" => {
            let pop = population(scale(6_000, 1_500), seed);
            let trainer = perf_trainer(&pop, seed);
            Scenario::builder()
                .population(pop)
                .task_with_trainer(
                    TaskConfig::timed_hybrid_task(
                        "timed-hybrid",
                        scale(512, 128),
                        scale(128, 32),
                        if quick { 120.0 } else { 300.0 },
                    ),
                    trainer,
                )
                .limits(
                    RunLimits::default()
                        .with_max_virtual_time_hours(100.0)
                        .with_max_client_updates(scale(20_000, 2_500) as u64)
                        .with_parallelism(parallelism),
                )
                .eval(
                    EvalPolicy::default()
                        .with_interval_s(1800.0)
                        .with_sample_size(100),
                )
                .seed(seed)
                .build()
        }
        "fleet-crash" => {
            let pop = population(scale(10_000, 2_500), seed);
            let trainer = perf_trainer(&pop, seed);
            let unit = scale(4, 1);
            let tasks = vec![
                TaskConfig::async_task("keyboard-lm", 48 * unit, 12 * unit),
                TaskConfig::async_task("speech-kws", 24 * unit, 8 * unit)
                    .with_min_capability_tier(1),
                TaskConfig::sync_task("photo-ranker", 30 * unit, 0.3),
                TaskConfig::async_task("smart-reply", 16 * unit, 4 * unit)
                    .with_min_capability_tier(2),
                TaskConfig::timed_hybrid_task("health-study", 16 * unit, 32 * unit, 600.0),
                TaskConfig::sync_task("face-cluster", 24 * unit, 0.0),
            ];
            let mut builder = Scenario::builder()
                .population(pop)
                .fleet(FleetSpec::new(3, 4))
                .crash_at(if quick { 600.0 } else { 1800.0 }, 0)
                .limits(
                    RunLimits::default()
                        .with_max_virtual_time_hours(if quick { 0.5 } else { 1.5 })
                        .with_parallelism(parallelism),
                )
                .eval(
                    EvalPolicy::default()
                        .with_interval_s(900.0)
                        .with_sample_size(100),
                )
                .seed(seed);
            for task in tasks {
                // Shares the trainer so tasks compete on timing, not setup cost.
                builder = builder.task_with_trainer(task, trainer.clone());
            }
            builder.build()
        }
        "fedbuff-1m" => {
            // A million devices even when quick: this scenario exists for
            // the memory story, so the population never shrinks — only
            // the update budget and concurrency do.  The pieces that make a
            // million idle clients affordable are all on this path: the
            // packed population (12 B/device), the flat sampling pool
            // (8 B/device), the procedural surrogate (4 B/device instead of
            // dim floats), and the default trace budget, which keeps metrics
            // O(budget) rather than O(events).
            let pop = population(1_000_000, seed);
            let trainer = perf_trainer(&pop, seed);
            Scenario::builder()
                .population(pop)
                .task_with_trainer(
                    TaskConfig::async_task("fedbuff-1m", scale(4096, 1024), scale(256, 64)),
                    trainer,
                )
                .limits(
                    RunLimits::default()
                        .with_max_virtual_time_hours(100.0)
                        .with_max_client_updates(scale(40_000, 3_000) as u64)
                        .with_parallelism(parallelism),
                )
                .eval(
                    EvalPolicy::default()
                        .with_interval_s(3600.0)
                        .with_sample_size(100),
                )
                .seed(seed)
                .build()
        }
        "fleet-scale" => {
            // The multi-tenant control plane at fleet population scale: four
            // tasks sharing 200k devices (50k quick) through three
            // aggregators and four selectors, no injected crash — this
            // exercises steady-state routing/selection where fleet-crash
            // exercises failover.
            let pop = population(scale(200_000, 50_000), seed);
            let trainer = perf_trainer(&pop, seed);
            let unit = scale(4, 1);
            let tasks = vec![
                TaskConfig::async_task("assistant-lm", 256 * unit, 64 * unit),
                TaskConfig::async_task("photo-tagger", 128 * unit, 32 * unit)
                    .with_min_capability_tier(1),
                TaskConfig::timed_hybrid_task("telemetry", 64 * unit, 16 * unit, 600.0),
                TaskConfig::sync_task("ranker", 96 * unit, 0.2),
            ];
            let mut builder = Scenario::builder()
                .population(pop)
                .fleet(FleetSpec::new(3, 4))
                .limits(
                    RunLimits::default()
                        .with_max_virtual_time_hours(if quick { 0.5 } else { 2.0 })
                        .with_parallelism(parallelism),
                )
                .eval(
                    EvalPolicy::default()
                        .with_interval_s(900.0)
                        .with_sample_size(100),
                )
                .seed(seed);
            for task in tasks {
                builder = builder.task_with_trainer(task, trainer.clone());
            }
            builder.build()
        }
        "lm-tiny" => {
            // The real LSTM trainer under FedBuff, shaped like the repo
            // benchmark's `lm-pool` workload (12–200 four-word sentences a
            // device, 8 sequences a participation) and small enough for the
            // test profile: 96 client updates are 24 server steps, and every
            // delta and every evaluation goes through `papaya-lm`.
            let mut config = PopulationConfig::default().with_size(60);
            config.min_examples = 12;
            config.max_examples = 200;
            let pop = Population::generate(&config, seed);
            let dataset = Arc::new(FederatedTextDataset::generate(&pop, 4, seed));
            let trainer =
                Arc::new(LmClientTrainer::new(dataset, LmConfig::tiny()).with_max_sequences(8));
            Scenario::builder()
                .population(pop)
                .task_with_trainer(TaskConfig::async_task("lm-tiny", 8, 4), trainer)
                .limits(
                    RunLimits::default()
                        .with_max_virtual_time_hours(100.0)
                        .with_max_client_updates(96)
                        .with_parallelism(parallelism),
                )
                .eval(
                    EvalPolicy::default()
                        .with_interval_s(30.0)
                        .with_sample_size(16),
                )
                .seed(seed)
                .build()
        }
        other => panic!("unknown scenario {other:?}; known: {SCENARIO_NAMES:?}"),
    }
}

/// The canonical scenario set, in run order.
pub const SCENARIO_NAMES: [&str; 8] = [
    "fedbuff-20k",
    "fedbuff-20k-secagg",
    "fedbuff-20k-dp",
    "timed-hybrid",
    "fleet-crash",
    "fedbuff-1m",
    "fleet-scale",
    "lm-tiny",
];

/// The `control_plane_soak` scenario: three tasks on a 2-Aggregator fleet
/// through a partial failure (t=1200 s), total loss (t=1800 s, orphaning
/// every task) and a recovery (t=2700 s) whose heartbeat triggers the
/// reconcile pass, with an optional control-plane checkpoint restore in
/// between.  Shared by the soak binary and the golden-fingerprint test.
pub fn soak_scenario(
    quick: bool,
    seed: u64,
    restore_at: Option<f64>,
    parallelism: Parallelism,
) -> Scenario {
    let (population_size, hours) = if quick { (1_500, 1.5) } else { (10_000, 4.0) };
    let mut builder = Scenario::builder()
        .population(population(population_size, seed))
        .task(TaskConfig::async_task("keyboard-lm", 48, 12))
        .task(TaskConfig::async_task("smart-reply", 24, 8))
        .task(TaskConfig::sync_task("photo-ranker", 30, 0.3))
        .fleet(FleetSpec::new(2, 3))
        .limits(
            RunLimits::default()
                .with_max_virtual_time_hours(hours)
                .with_parallelism(parallelism),
        )
        .eval(EvalPolicy::default().with_interval_s(300.0))
        .crash_at(1200.0, 0)
        .crash_at(1800.0, 1)
        .recover_at(2700.0, 0)
        .seed(seed);
    if let Some(time_s) = restore_at {
        builder = builder.restore_control_plane_at(time_s);
    }
    builder.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_scenarios_build_quick() {
        for name in SCENARIO_NAMES {
            let scenario = build_scenario(name, true, Parallelism::sequential(), 1);
            assert!(!scenario.tasks().is_empty(), "{name}");
        }
    }

    #[test]
    #[should_panic(expected = "unknown scenario")]
    fn unknown_scenario_panics() {
        let _ = build_scenario("nope", true, Parallelism::sequential(), 1);
    }
}
