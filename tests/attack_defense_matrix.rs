//! The attack-vs-defense scenario matrix.
//!
//! Every typed malicious behavior is run three ways against the same
//! composition and seed:
//!
//! 1. **clean** — honest population, no defense: the convergence baseline;
//! 2. **attacked** — the Byzantine cohort on, no defense: the attack must
//!    visibly degrade convergence (otherwise it is not worth defending
//!    against);
//! 3. **defended** — the same cohort against its matched defense: the
//!    defense must restore convergence to near the clean baseline.
//!
//! The pairings follow each defense's strength: the norm filter catches
//! magnitude attacks, the coordinate median survives minority sign flips
//! and garbage releases, and the trimmed mean discards colluding and
//! metadata-lying tails.  A final case pins the identity contract: neutral
//! defenses over an honest population are bit-identical to running clear.

use papaya_core::config::SecAggMode;
use papaya_core::{AdversarySpec, DeviationKind, Malice, RobustConfig, RobustDefense, TaskConfig};
use papaya_data::population::{Population, PopulationConfig};
use papaya_sim::scenario::{EvalPolicy, Report, RunLimits, Scenario};

fn population(n: usize) -> Population {
    Population::generate(&PopulationConfig::default().with_size(n), 29)
}

/// Runs one cell of the matrix: a FedBuff task (optionally secure, for the
/// SecAgg-deviation rows) with the given adversary and defense.
fn run(
    secagg: SecAggMode,
    adversary: Option<AdversarySpec>,
    robust: Option<RobustConfig>,
) -> Report {
    // Buffer of 12: large enough that the Bernoulli-sampled malicious
    // cohort stays a per-buffer minority, which is the regime the
    // estimator defenses are designed for.
    let mut task = TaskConfig::async_task("matrix", 24, 12).with_secagg(secagg);
    if let Some(spec) = adversary {
        task = task.with_adversary(spec);
    }
    if let Some(config) = robust {
        task = task.with_robust(config);
    }
    let report = Scenario::builder()
        .population(population(400))
        .task(task)
        .limits(RunLimits::default().with_max_virtual_time_hours(0.5))
        .eval(EvalPolicy::default().with_interval_s(600.0))
        .seed(41)
        .build()
        .run();
    assert_eq!(report.audit(), Ok(()));
    report
}

/// Asserts one attack row: the attack degrades the undefended run and the
/// matched defense restores convergence.
///
/// "Degrades" means the attacked final loss is non-finite or worse than the
/// clean baseline by more than `degrade_factor`; "restores" means the
/// defended final loss lands within `restore_factor` of clean — both
/// factors chosen per attack strength, well clear of run-to-run noise.
fn assert_row(
    label: &str,
    secagg: SecAggMode,
    adversary: AdversarySpec,
    defense: RobustConfig,
    degrade_factor: f64,
    restore_factor: f64,
) {
    let clean = run(secagg, None, None);
    let attacked = run(secagg, Some(adversary), None);
    let defended = run(secagg, Some(adversary), Some(defense));

    let clean_loss = clean.single().final_loss;
    let attacked_loss = attacked.single().final_loss;
    let defended_loss = defended.single().final_loss;
    eprintln!(
        "{label}: clean={clean_loss:.6} attacked={attacked_loss:.6} defended={defended_loss:.6}"
    );

    assert!(
        attacked.single().metrics.attacked_updates > 0,
        "{label}: the adversary never fired"
    );
    assert!(
        !attacked_loss.is_finite() || attacked_loss > clean_loss * degrade_factor,
        "{label}: undefended attack did not degrade convergence \
         (clean {clean_loss}, attacked {attacked_loss})"
    );
    assert!(
        defended_loss.is_finite() && defended_loss <= clean_loss * restore_factor,
        "{label}: defense failed to restore convergence \
         (clean {clean_loss}, defended {defended_loss})"
    );
    assert!(
        !attacked_loss.is_finite() || defended_loss < attacked_loss,
        "{label}: defended run is no better than the undefended one"
    );
}

#[test]
fn norm_filter_stops_scaled_updates() {
    assert_row(
        "scaled x100 vs norm filter",
        SecAggMode::Disabled,
        AdversarySpec::new(0.3, Malice::Scaled { factor: 100.0 }),
        RobustConfig::new(RobustDefense::NormFilter { max_norm: 5.0 }),
        2.0,
        2.0,
    );
}

#[test]
fn coordinate_median_survives_sign_flips() {
    assert_row(
        "sign-flip vs coordinate median",
        SecAggMode::Disabled,
        AdversarySpec::new(0.2, Malice::SignFlip { scale: 5.0 }),
        RobustConfig::new(RobustDefense::CoordinateMedian),
        2.0,
        2.0,
    );
}

#[test]
fn trimmed_mean_discards_a_colluding_cohort() {
    assert_row(
        "collusion vs trimmed mean",
        SecAggMode::Disabled,
        AdversarySpec::new(0.2, Malice::Collusion { magnitude: 25.0 }),
        RobustConfig::new(RobustDefense::TrimmedMean { trim_fraction: 0.4 }),
        2.0,
        3.0,
    );
}

#[test]
fn trimmed_mean_blunts_staleness_liars() {
    assert_row(
        "staleness liar vs trimmed mean",
        SecAggMode::Disabled,
        AdversarySpec::new(0.4, Malice::StalenessLiar),
        RobustConfig::new(RobustDefense::TrimmedMean { trim_fraction: 0.4 }),
        1.5,
        5.0,
    );
}

#[test]
fn trimmed_mean_replaces_wrong_counter_garbage() {
    assert_row(
        "secagg wrong-counter vs trimmed mean",
        SecAggMode::AsyncSecAgg,
        AdversarySpec::new(
            0.3,
            Malice::SecAggDeviation {
                kind: DeviationKind::WrongCounter,
            },
        ),
        RobustConfig::new(RobustDefense::TrimmedMean {
            trim_fraction: 0.35,
        }),
        2.0,
        2.0,
    );
}

#[test]
fn coordinate_median_replaces_garbage_mask_releases() {
    assert_row(
        "secagg garbage-mask vs coordinate median",
        SecAggMode::AsyncSecAgg,
        AdversarySpec::new(
            0.3,
            Malice::SecAggDeviation {
                kind: DeviationKind::GarbageMask,
            },
        ),
        RobustConfig::new(RobustDefense::CoordinateMedian),
        2.0,
        2.0,
    );
}

#[test]
fn neutral_defenses_over_an_honest_population_run_bit_identical_to_clear() {
    // Both neutral settings — the infinite norm filter and the zero-trim
    // trimmed mean — are pure pass-throughs: same model bits, same event
    // stream, same fingerprint as the clear run.
    let clear = run(SecAggMode::Disabled, None, None);
    for neutral in [
        RobustConfig::neutral(),
        RobustConfig::new(RobustDefense::TrimmedMean { trim_fraction: 0.0 }),
    ] {
        let defended = run(SecAggMode::Disabled, None, Some(neutral));
        assert_eq!(
            clear.fingerprint(),
            defended.fingerprint(),
            "{neutral:?} was not a pure pass-through"
        );
    }
}

#[test]
fn engaged_defenses_add_no_events_to_the_run() {
    // An engaged estimator rewrites every release and records one trace
    // entry per release, yet accepts the same uploads at the same times: the
    // defended run must process exactly the clear run's events.
    let clear = run(SecAggMode::Disabled, None, None);
    for defense in [
        RobustDefense::CoordinateMedian,
        RobustDefense::TrimmedMean { trim_fraction: 0.2 },
    ] {
        let defended = run(SecAggMode::Disabled, None, Some(RobustConfig::new(defense)));
        let m = &defended.single().metrics;
        assert!(m.robust.estimator_releases > 0, "{defense:?} never engaged");
        assert_eq!(m.robust.estimator_releases, m.server_updates);
        assert_eq!(
            clear.events_processed, defended.events_processed,
            "{defense:?} changed the event stream"
        );
    }
}

#[test]
fn every_attack_leaves_a_labeled_ground_truth_trail() {
    // The ground-truth attack telemetry is what the matrix above trusts;
    // pin that each behavior label lands in the metrics exactly once per
    // corrupted upload.
    let spec = AdversarySpec::new(0.3, Malice::SignFlip { scale: 2.0 });
    let report = run(SecAggMode::Disabled, Some(spec), None);
    let m = &report.single().metrics;
    assert!(m.attacked_updates > 0);
    assert_eq!(m.attacks_by_label.len(), 1);
    assert_eq!(
        m.attacks_by_label.get("sign-flip"),
        Some(&m.attacked_updates)
    );
    assert_eq!(m.attack_trace.len() as u64, m.attacked_updates);
}
