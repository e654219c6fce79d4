//! Golden `Report::fingerprint()` values, committed so a refactor of the
//! run loop is checked against the tree rather than against memory.
//!
//! `golden_fingerprints.txt` holds one `name<TAB>fingerprint` line per
//! scenario: the eight canonical scenarios of `bench::scenarios` (quick
//! sizes, seed 42 — the values `cargo run -p bench --bin fingerprints`
//! prints) plus three shapes that set lacks: a direct synchronous task with
//! over-selection and dropouts, a direct `robust(dp(secure(fedbuff)))`
//! stack under scaled attackers, and the `control_plane_soak` fleet run
//! (crash, total loss, control-plane restore, recovery).
//!
//! Every scenario runs twice, on the event-loop thread alone and on a
//! four-thread worker pool, and both runs must produce the committed line:
//! this is the one place that holds every canonical scenario to the
//! executor's bit-identity contract.
//!
//! A change that must not alter behaviour leaves the file byte-identical.
//! One that means to alter it replaces the file with the text this test
//! prints on mismatch, and the diff of the file is the review artifact.

use bench::scenarios::{build_scenario, soak_scenario, SCENARIO_NAMES};
use papaya_core::config::SecAggMode;
use papaya_core::{AdversarySpec, DpConfig, Malice, RobustConfig, RobustDefense, TaskConfig};
use papaya_data::population::{Population, PopulationConfig};
use papaya_sim::scenario::{EvalPolicy, RunLimits, Scenario};
use papaya_sim::Parallelism;

const SEED: u64 = 42;
const GOLDEN: &str = include_str!("golden_fingerprints.txt");

fn population(size: usize, dropout: f64) -> Population {
    Population::generate(
        &PopulationConfig::default()
            .with_size(size)
            .with_dropout(dropout),
        SEED,
    )
}

/// Direct synchronous rounds with 30 % over-selection over a population
/// where one selection in five drops out: round-end aborts, failed
/// participations and their replacements all feed the fingerprint.
fn sync_over_selection(parallelism: Parallelism) -> Scenario {
    Scenario::builder()
        .population(population(1_200, 0.2))
        .task(TaskConfig::sync_task("sync-over-selection", 60, 0.3))
        .limits(
            RunLimits::default()
                .with_max_virtual_time_hours(3.0)
                .with_parallelism(parallelism),
        )
        .eval(EvalPolicy::default().with_interval_s(600.0))
        .seed(SEED)
        .build()
}

/// Direct FedBuff under the full decorator stack with 10 % scaled
/// attackers: every release is a TSA key release, a DP release and an
/// estimator release, and the conditional robustness section of the
/// fingerprint is hashed.
fn robust_dp_secure_stack(parallelism: Parallelism) -> Scenario {
    Scenario::builder()
        .population(population(600, 0.05))
        .task(
            TaskConfig::async_task("robust-dp-secure", 32, 8)
                .with_secagg(SecAggMode::AsyncSecAgg)
                .with_dp(DpConfig::new(4.0, 0.5).with_sampling_rate(0.05))
                .with_robust(RobustConfig::new(RobustDefense::TrimmedMean {
                    trim_fraction: 0.1,
                }))
                .with_adversary(AdversarySpec::new(0.1, Malice::Scaled { factor: 50.0 })),
        )
        .limits(
            RunLimits::default()
                .with_max_virtual_time_hours(10.0)
                .with_max_client_updates(400)
                .with_parallelism(parallelism),
        )
        .eval(EvalPolicy::default().with_interval_s(600.0))
        .seed(SEED)
        .build()
}

/// The golden file's text as the tree produces it at `parallelism`.
fn fingerprints(parallelism: Parallelism) -> String {
    let mut scenarios: Vec<(&str, Scenario)> = SCENARIO_NAMES
        .iter()
        .map(|&name| (name, build_scenario(name, true, parallelism, SEED)))
        .collect();
    scenarios.push((
        "direct-sync-over-selection",
        sync_over_selection(parallelism),
    ));
    scenarios.push((
        "direct-robust-dp-secure",
        robust_dp_secure_stack(parallelism),
    ));
    scenarios.push((
        "control-plane-soak",
        soak_scenario(true, SEED, Some(2_000.0), parallelism),
    ));
    scenarios
        .iter()
        .map(|(name, scenario)| format!("{name}\t{}\n", scenario.run().fingerprint()))
        .collect()
}

#[test]
fn fingerprints_match_the_golden_file() {
    for parallelism in [Parallelism::sequential(), Parallelism(4)] {
        let actual = fingerprints(parallelism);
        assert!(
            actual == GOLDEN,
            "fingerprints at {parallelism:?} differ from the golden file; if they \
             moved at every thread count and that is intended, replace \
             crates/bench/tests/golden_fingerprints.txt with:\n{actual}"
        );
    }
}
