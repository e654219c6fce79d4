//! Scale-out suite: the million-client path's load-bearing claims.
//!
//! `docs/SCALING.md` rests on two properties, each pinned here from outside
//! the implementing crates:
//!
//! 1. **Decimation is deterministic and fingerprint-invisible.**  At a
//!    fixed `RunLimits::trace_budget` the fingerprint is invariant across
//!    thread counts and the retained traces respect the budget.  Every
//!    trace digests each sample it is offered before decimation decides
//!    whether to keep it, so the fingerprint pins what the run *offered*:
//!    runs at different budgets, including one that keeps every sample,
//!    have one fingerprint and bit-equal means.  Retention is a reporting
//!    choice.
//! 2. **Idle clients are O(bytes).**  The combined per-idle-device state
//!    across the packed population and the sampling pool is a documented
//!    constant number of bytes, asserted at compile time.
//!
//! The sampling pool's draw sequence is held to a naive `Vec` +
//! `swap_remove` model by its own unit test in `papaya-sim`.

use papaya_core::TaskConfig;
use papaya_data::population::{Population, PopulationConfig};
use papaya_sim::metrics::MetricsCollector;
use papaya_sim::sampling::ShardedSamplingPool;
use papaya_sim::scenario::{EvalPolicy, Report, RunLimits, Scenario};
use papaya_sim::Parallelism;

// Claim 2, at compile time: a packed population record (speed + example
// count) plus a pool slot (free-list entry + slot index) per idle device.
// 24 bytes of headroom documented in docs/SCALING.md; a struct growing
// past it fails this build, not a profiling session six months later.
const IDLE_BYTES_PER_DEVICE: usize =
    Population::BYTES_PER_DEVICE + ShardedSamplingPool::BYTES_PER_DEVICE;
const _: () = assert!(
    IDLE_BYTES_PER_DEVICE <= 24,
    "idle per-device state outgrew the documented 24-byte budget"
);

fn population(n: usize) -> Population {
    Population::generate(
        &PopulationConfig::default().with_size(n).with_dropout(0.1),
        23,
    )
}

fn scenario(limits: RunLimits, parallelism: Parallelism) -> Report {
    scenario_of(
        TaskConfig::async_task("scale-out", 64, 16),
        limits,
        parallelism,
    )
}

fn scenario_of(task: TaskConfig, limits: RunLimits, parallelism: Parallelism) -> Report {
    let report = Scenario::builder()
        .population(population(900))
        .task(task)
        .limits(
            limits
                .with_max_virtual_time_hours(2.0)
                .with_parallelism(parallelism),
        )
        .eval(EvalPolicy::default().with_interval_s(600.0))
        .seed(47)
        .build()
        .run();
    assert_eq!(report.audit(), Ok(()));
    report
}

/// Claim 1: at a fixed bounded budget the fingerprint is invariant across
/// thread counts — decimation is part of the deterministic contract, not a
/// lossy afterthought.
#[test]
fn budgeted_fingerprints_are_invariant_across_threads() {
    let budget = 64;
    let reference = scenario(
        RunLimits::default().with_trace_budget(budget),
        Parallelism::sequential(),
    )
    .fingerprint();
    for parallelism in [Parallelism(1), Parallelism(4)] {
        let report = scenario(RunLimits::default().with_trace_budget(budget), parallelism);
        assert_eq!(
            reference,
            report.fingerprint(),
            "budgeted fingerprint diverged at {parallelism:?}"
        );
    }
}

/// Claim 1: the budget actually bounds the retained traces while the
/// counters (which are exact, never decimated) still see every event, each
/// bounded trace was offered every sample a run that keeps everything kept,
/// and no budget changes the fingerprint or a reported mean.  The sync run
/// with over-selection completes enough rounds to overflow the small
/// budgets with round durations too.
#[test]
fn decimation_bounds_traces_and_is_fingerprint_invisible() {
    // Above every offer count of either run, so the reference keeps all.
    const EVERY_OFFER: usize = 1 << 20;
    for (task, rounds) in [
        (TaskConfig::async_task("scale-out", 64, 16), false),
        (TaskConfig::sync_task("scale-out-sync", 16, 0.3), true),
    ] {
        let run = |limits: RunLimits| scenario_of(task.clone(), limits, Parallelism::sequential());
        let reference = run(RunLimits::default().with_trace_budget(EVERY_OFFER));
        let full = &reference.single().metrics;
        let traces = |m: &MetricsCollector| {
            [
                (m.participations.len(), m.participations.offered()),
                (m.loss_curve.len(), m.loss_curve.offered()),
                (m.utilization_trace.len(), m.utilization_trace.offered()),
                (m.attack_trace.len(), m.attack_trace.offered()),
                (m.round_durations_s.len(), m.round_durations_s.offered()),
            ]
        };
        for (kept, offered) in traces(full) {
            assert_eq!(kept as u64, offered, "{}: the reference dropped", task.name);
        }
        assert!(
            full.participations.offered() > 4096,
            "{}: too small for the default budget to decimate ({} participations)",
            task.name,
            full.participations.offered()
        );
        assert_eq!(
            full.round_durations_s.offered() > 64,
            rounds,
            "{}: {} rounds",
            task.name,
            full.round_durations_s.offered()
        );
        for (budget, limits) in [
            (32, RunLimits::default().with_trace_budget(32)),
            (64, RunLimits::default().with_trace_budget(64)),
            (4096, RunLimits::default()),
        ] {
            let bounded = run(limits);
            let m = &bounded.single().metrics;
            let at = format!("{} at budget {budget}", task.name);
            for ((kept, offered), (_, all)) in traces(m).into_iter().zip(traces(full)) {
                assert_eq!(offered, all, "{at}");
                assert!(
                    kept as u64 <= offered.min(budget as u64),
                    "{kept} kept of {offered}: {at}"
                );
            }
            // An overflowed trace keeps more than half its budget, which
            // pins the default at 4 096.
            assert!(m.participations.len() > budget / 2, "{at}");
            // Decimation drops trace samples, never counter increments or
            // what the means are computed from.
            assert_eq!(m.comm_trips, full.comm_trips);
            assert_eq!(m.aggregated_updates, full.aggregated_updates);
            for (mean, bits, full_bits) in [
                (
                    "active clients",
                    m.mean_active_clients().to_bits(),
                    full.mean_active_clients().to_bits(),
                ),
                (
                    "round duration",
                    m.mean_round_duration_s().to_bits(),
                    full.mean_round_duration_s().to_bits(),
                ),
                (
                    "staleness",
                    m.mean_staleness().to_bits(),
                    full.mean_staleness().to_bits(),
                ),
            ] {
                assert_eq!(bits, full_bits, "mean {mean} moved: {at}");
            }
            assert_eq!(bounded.events_processed, reference.events_processed);
            assert_eq!(
                bounded.fingerprint(),
                reference.fingerprint(),
                "{at} changed the fingerprint"
            );
        }
    }
}

/// Claim 2, at run time: the documented record sizes are what the packed
/// containers actually store, and the materialized [`DeviceProfile`] they
/// replace is several times larger — i.e. the profile really is re-derived
/// on demand, not cached per device.
#[test]
fn idle_state_measures_within_the_documented_budget() {
    let n = 10_000;
    let pop = population(n);
    let pool = ShardedSamplingPool::new(n);
    assert_eq!(pop.len(), n);
    assert_eq!(pool.available(), n);
    // f64 speed + u32 examples; u32 free-list entry + u32 slot index.
    assert_eq!(Population::BYTES_PER_DEVICE, 12);
    assert_eq!(ShardedSamplingPool::BYTES_PER_DEVICE, 8);
    assert!(std::mem::size_of_val(&pop.device(0)) > Population::BYTES_PER_DEVICE);
}
