//! Secure aggregation under Aggregator failure (the paper's fault-tolerance
//! story, privately): when the Aggregator holding a secure task's masked
//! buffer dies, the buffered masked updates are dropped **without** a TSA
//! key release — the TSA never unmasks a partial buffer, so the crash leaks
//! nothing — and the task converges anyway after the Coordinator reassigns
//! it to a survivor.

use papaya_core::config::SecAggMode;
use papaya_core::TaskConfig;
use papaya_data::population::{Population, PopulationConfig};
use papaya_sim::scenario::{EvalPolicy, FleetSpec, Report, Scenario};
use papaya_sim::RunLimits;

fn run_fleet(crash: Option<(f64, usize)>) -> Report {
    let population = Population::generate(
        &PopulationConfig::default()
            .with_size(1_200)
            .with_dropout(0.05),
        71,
    );
    // Both tasks run securely, so whichever Aggregator the crash hits, a
    // masked buffer is lost.
    let mut builder = Scenario::builder()
        .population(population)
        .task(TaskConfig::async_task("secure-a", 48, 12).with_secagg(SecAggMode::AsyncSecAgg))
        .task(TaskConfig::async_task("secure-b", 32, 8).with_secagg(SecAggMode::AsyncSecAgg))
        .fleet(FleetSpec::new(2, 2))
        .limits(RunLimits::default().with_max_virtual_time_hours(2.0))
        .eval(EvalPolicy::default().with_interval_s(600.0))
        .seed(71);
    if let Some((time_s, aggregator)) = crash {
        builder = builder.crash_at(time_s, aggregator);
    }
    let report = builder.build().run();
    assert_eq!(report.audit(), Ok(()));
    report
}

#[test]
fn aggregator_crash_drops_masked_buffer_without_key_release() {
    let report = run_fleet(Some((1_800.0, 0)));

    assert_eq!(report.fleet.control_plane.aggregator_failures, 1);
    assert!(
        report.fleet.control_plane.task_reassignments >= 1,
        "orphaned task was never reassigned"
    );

    let total_lost: u64 = report
        .tasks
        .iter()
        .map(|t| t.metrics.lost_buffered_updates)
        .sum();
    let total_buffers_dropped: u64 = report
        .tasks
        .iter()
        .map(|t| t.metrics.secure.buffers_dropped_unreleased)
        .sum();
    assert!(total_lost > 0, "crash landed on an empty buffer; re-seed");
    assert!(
        total_buffers_dropped >= 1,
        "masked buffer was not dropped on the secure path"
    );

    for task in &report.tasks {
        let m = &task.metrics;
        // The TSA released exactly one key per server update: no partial
        // buffer — in particular not the crashed one — was ever unmasked.
        assert_eq!(
            m.secure.tsa_key_releases, m.server_updates,
            "{}: partial-buffer unmask detected",
            task.name
        );
        assert_eq!(
            m.secure.masked_updates, m.aggregated_updates,
            "{}",
            task.name
        );
        // Post-crash convergence: the run kept training to a better loss.
        assert!(task.server_updates() > 0, "{}", task.name);
        assert!(
            task.final_loss < task.initial_loss,
            "{} did not converge past the crash: {} -> {}",
            task.name,
            task.initial_loss,
            task.final_loss
        );
    }
}

#[test]
fn aggregator_crash_invalidates_cached_sessions_and_forces_rehandshakes() {
    // A crash wipes the replacement TSA's session table (the enclave's
    // in-memory key cache dies with the machine), so every post-crash
    // participation on the reassigned task must pay a fresh DH handshake.
    // Observable fleet-wide: the crash run records strictly more
    // first-contact handshakes (cache misses) than the identical run
    // without a crash, where each client handshakes at most once per task.
    // (That rejected uploads pin no session state, and that a reset drops
    // the masked buffer without any key release, are pinned per-operation
    // by the SecureAggregator unit suite.)
    let crashed = run_fleet(Some((1_800.0, 0)));
    let healthy = run_fleet(None);

    let misses = |r: &Report| -> u64 {
        r.tasks
            .iter()
            .map(|t| t.metrics.secure.session_cache_misses)
            .sum()
    };
    let hits = |r: &Report| -> u64 {
        r.tasks
            .iter()
            .map(|t| t.metrics.secure.session_cache_hits)
            .sum()
    };
    assert!(hits(&healthy) > 0, "session cache never resumed");
    assert!(
        misses(&crashed) > misses(&healthy),
        "crash did not force re-handshakes: {} misses with crash vs {} without",
        misses(&crashed),
        misses(&healthy)
    );
    // The session cache keeps amortizing after the failover: resumed
    // participations still dominate first contacts over the whole run.
    assert!(
        hits(&crashed) > misses(&crashed),
        "cache stopped amortizing after the crash: {} hits vs {} misses",
        hits(&crashed),
        misses(&crashed)
    );
}
