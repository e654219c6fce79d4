//! Golden `Report::fingerprint()` values, committed so a refactor of the
//! run loop is checked against the tree rather than against memory.
//!
//! `golden_fingerprints.txt` holds one `name<TAB>fingerprint` line per
//! scenario: the eight canonical scenarios of `bench::scenarios` (quick
//! sizes, seed 42 — the values `cargo run -p bench --bin fingerprints`
//! prints) plus five shapes that set lacks: a direct synchronous task with
//! over-selection and dropouts, a direct `robust(dp(secure(fedbuff)))`
//! stack under scaled attackers, the `control_plane_soak` fleet run
//! (crash, total loss, control-plane restore, recovery), FedBuff at a
//! staleness bound the run reaches, and a norm filter that rejects scaled
//! attackers.
//!
//! Every scenario runs twice, on the event-loop thread alone and on a
//! four-thread worker pool, and both runs must produce the committed line:
//! this is the one place that holds every canonical scenario to the
//! executor's bit-identity contract.  Every report must also pass
//! `Report::audit`, the ledger's accounting laws, and every counter in
//! `covered_counters` must move in at least one scenario, so each policy
//! those counters record is reached by some golden line.
//!
//! A change that must not alter behaviour leaves the file byte-identical.
//! One that means to alter it replaces the file with the text this test
//! prints on mismatch, and the diff of the file is the review artifact.

use bench::scenarios::{build_scenario, perf_trainer, soak_scenario, SCENARIO_NAMES};
use papaya_core::config::SecAggMode;
use papaya_core::{AdversarySpec, DpConfig, Malice, RobustConfig, RobustDefense, TaskConfig};
use papaya_data::population::{Population, PopulationConfig};
use papaya_sim::metrics::MetricsCollector;
use papaya_sim::scenario::{EvalPolicy, Report, RunLimits, Scenario};
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

/// Direct FedBuff 256/32 whose staleness bound of 4 the run reaches: the
/// runtime's sweep aborts the oldest in-flight clients after releases.
fn tight_staleness(parallelism: Parallelism) -> Scenario {
    let population = population(2_000, 0.05);
    let trainer = perf_trainer(&population, SEED);
    Scenario::builder()
        .population(population)
        .task_with_trainer(
            TaskConfig::async_task("tight-staleness", 256, 32).with_max_staleness(4),
            trainer,
        )
        .limits(
            RunLimits::default()
                .with_max_virtual_time_hours(100.0)
                .with_max_client_updates(2_000)
                .with_parallelism(parallelism),
        )
        .eval(
            EvalPolicy::default()
                .with_interval_s(1800.0)
                .with_sample_size(100),
        )
        .seed(SEED)
        .build()
}

/// The shape of [`robust_dp_secure_stack`] under a norm filter alone: the
/// scaled attackers' updates are rejected before they reach the buffer.
fn norm_filter(parallelism: Parallelism) -> Scenario {
    Scenario::builder()
        .population(population(600, 0.05))
        .task(
            TaskConfig::async_task("norm-filter", 32, 8)
                .with_robust(RobustConfig::new(RobustDefense::NormFilter {
                    max_norm: 5.0,
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

/// Direct FedBuff under the full decorator stack with 10 % scaled
/// attackers: every release is a TSA key release, a DP release and an
/// estimator release, and the attack and robustness counters and traces
/// all move away from their clear-run zeros.
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

/// The counters each of which some golden scenario must move, summed over
/// a report's tasks or read from its fleet roll-up.
fn covered_counters(report: &Report) -> [(&'static str, u64); 10] {
    let sum = |count: fn(&MetricsCollector) -> u64| -> u64 {
        report.tasks.iter().map(|task| count(&task.metrics)).sum()
    };
    let plane = &report.fleet.control_plane;
    [
        (
            "rejected_by_defense_updates",
            sum(|m| m.rejected_by_defense_updates),
        ),
        ("aborted_by_round_end", sum(|m| m.aborted_by_round_end)),
        ("lost_buffered_updates", sum(|m| m.lost_buffered_updates)),
        ("lost_in_transit_updates", plane.lost_in_transit_updates),
        ("tasks_orphaned", plane.tasks_orphaned),
        ("tasks_reconciled", plane.tasks_reconciled),
        ("stale_route_refusals", plane.stale_route_refusals),
        ("dp.releases", sum(|m| m.dp.releases)),
        ("secure.masked_updates", sum(|m| m.secure.masked_updates)),
        (
            "robust.estimator_releases",
            sum(|m| m.robust.estimator_releases),
        ),
    ]
}

/// The golden file's text as the tree produces it at `parallelism`, and
/// the reports behind it.
fn fingerprints(parallelism: Parallelism) -> (String, Vec<Report>) {
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
    scenarios.push(("direct-tight-staleness", tight_staleness(parallelism)));
    scenarios.push(("direct-norm-filter", norm_filter(parallelism)));
    let mut text = String::new();
    let mut reports = Vec::new();
    for (name, scenario) in &scenarios {
        let report = scenario.run();
        assert_eq!(report.audit(), Ok(()), "{name} at {parallelism:?}");
        text += &format!("{name}\t{}\n", report.fingerprint());
        reports.push(report);
    }
    (text, reports)
}

#[test]
fn fingerprints_match_the_golden_file() {
    for parallelism in [Parallelism::sequential(), Parallelism(4)] {
        let (actual, reports) = fingerprints(parallelism);
        assert!(
            actual == GOLDEN,
            "fingerprints at {parallelism:?} differ from the golden file; if they \
             moved at every thread count and that is intended, replace \
             crates/bench/tests/golden_fingerprints.txt with:\n{actual}"
        );
        let counters: Vec<_> = reports.iter().map(covered_counters).collect();
        for (at, (counter, _)) in counters[0].iter().enumerate() {
            assert!(
                counters.iter().any(|counts| counts[at].1 > 0),
                "no golden scenario moves {counter} at {parallelism:?}"
            );
        }
    }
}
