//! The secure-vs-clear equivalence suite: the proof that AsyncSecAgg is
//! wired through the whole Scenario pipeline without changing anything the
//! paper's evaluation measures.
//!
//! For each aggregation strategy, the *identical* scenario is run twice —
//! once in the clear and once with `SecAggMode::AsyncSecAgg` — and the two
//! runs must agree on every protocol-level count (selections, uploads,
//! accepts/rejects/discards, server updates) because the secure pipeline
//! only changes the numerics, never the policy; the final model parameters
//! must match to fixed-point tolerance; and every secure release must have
//! been a TSA key release over a full buffer.  A final test pins that the
//! secure path keeps the executor's bit-identity guarantee across thread
//! counts.

use papaya_core::config::SecAggMode;
use papaya_core::TaskConfig;
use papaya_data::population::{Population, PopulationConfig};
use papaya_sim::scenario::{EvalPolicy, Report, RunLimits, Scenario};
use papaya_sim::Parallelism;

fn population(n: usize) -> Population {
    Population::generate(
        &PopulationConfig::default().with_size(n).with_dropout(0.05),
        29,
    )
}

fn run(task: TaskConfig, hours: f64, parallelism: Parallelism) -> Report {
    let report = Scenario::builder()
        .population(population(600))
        .task(task)
        .limits(
            RunLimits::default()
                .with_max_virtual_time_hours(hours)
                .with_parallelism(parallelism),
        )
        .eval(EvalPolicy::default().with_interval_s(600.0))
        .seed(41)
        .build()
        .run();
    assert_eq!(report.audit(), Ok(()));
    report
}

/// Runs `task` in the clear and through AsyncSecAgg and asserts the
/// equivalence contract.  Returns `(clear, secure)` for extra per-strategy
/// assertions.
fn assert_secure_matches_clear(task: TaskConfig, hours: f64) -> (Report, Report) {
    let clear = run(
        task.clone().with_secagg(SecAggMode::Disabled),
        hours,
        Parallelism::sequential(),
    );
    let secure = run(
        task.with_secagg(SecAggMode::AsyncSecAgg),
        hours,
        Parallelism::sequential(),
    );
    let (c, s) = (&clear.single().metrics, &secure.single().metrics);

    // Identical trajectory: masking must not change a single policy
    // decision.
    assert_eq!(c.comm_trips, s.comm_trips);
    assert_eq!(c.server_updates, s.server_updates);
    assert_eq!(c.aggregated_updates, s.aggregated_updates);
    assert_eq!(c.rejected_stale_updates, s.rejected_stale_updates);
    assert_eq!(c.discarded_updates, s.discarded_updates);
    assert_eq!(c.failed_participations, s.failed_participations);
    assert_eq!(c.participations, s.participations);
    assert!(s.server_updates > 0, "nothing was aggregated");
    assert_eq!(
        clear.events_processed, secure.events_processed,
        "key releases are telemetry, not events"
    );

    // Secure bookkeeping: every accepted upload was masked, every server
    // update was a full-buffer key release, and the TEE saw only
    // O(1) bytes per client.
    assert_eq!(s.secure.masked_updates, s.aggregated_updates);
    assert_eq!(s.secure.tsa_key_releases, s.server_updates);
    assert_eq!(
        s.secure.quantization_error_trace.len(),
        s.server_updates as usize,
        "one quantization sample per key release"
    );
    let per_client = s.secure.tee_bytes_in_per_client();
    assert!(
        per_client > 0.0 && per_client < 2_048.0,
        "TEE traffic should be a few hundred bytes/client, got {per_client}"
    );
    assert_eq!(c.secure.masked_updates, 0, "clear run ran the protocol");

    // Final parameters agree to fixed-point tolerance.  Per release the
    // element-wise decode error is bounded by (accepted+1)/2 quanta of the
    // 2^-16 grid divided by the weight total; summed over every release the
    // budget below is ~100x looser than the observed gap.
    let clear_params = &clear.single().final_params;
    let secure_params = &secure.single().final_params;
    let max_diff = clear_params
        .as_slice()
        .iter()
        .zip(secure_params.as_slice())
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f32, f32::max);
    let budget = 1e-3 + s.server_updates as f32 * 1e-4;
    assert!(
        max_diff <= budget,
        "secure diverged from clear: {max_diff} > {budget}"
    );
    assert!(
        s.secure.max_quantization_error() < 1e-3,
        "per-release quantization error too large: {}",
        s.secure.max_quantization_error()
    );
    assert_eq!(
        s.secure.out_of_range_releases, 0,
        "the overflow detector false-positived on a healthy run"
    );

    // And the learning outcome is indistinguishable.
    let (cl, sl) = (clear.single().final_loss, secure.single().final_loss);
    assert!(sl < clear.single().initial_loss, "secure run did not learn");
    assert!(
        (cl - sl).abs() <= 0.02 * cl.abs().max(1e-9),
        "losses diverged: clear {cl} vs secure {sl}"
    );
    (clear, secure)
}

#[test]
fn fedbuff_secure_run_matches_clear_run() {
    let (_, secure) = assert_secure_matches_clear(TaskConfig::async_task("fedbuff", 32, 8), 1.0);
    let m = &secure.single().metrics;
    assert!(secure.single().server_updates() > 10);
    // Policy-dropped masked uploads are exactly the aggregator-level
    // rejections (the runtime aborts most doomed-stale clients before they
    // upload, so both are usually zero here; the masked-discard path itself
    // is pinned by the secure-aggregator unit and conformance suites).
    assert_eq!(
        m.secure.masked_discarded,
        m.rejected_stale_updates + m.discarded_updates
    );
}

#[test]
fn sync_round_secure_run_matches_clear_run() {
    let (_, secure) = assert_secure_matches_clear(TaskConfig::sync_task("sync", 30, 0.3), 2.0);
    let m = &secure.single().metrics;
    // Over-selection waste: stragglers were aborted by closing rounds, and
    // every completed round was one full-cohort key release.
    assert!(m.aborted_by_round_end > 0, "no over-selection waste");
    assert!(!m.round_durations_s.is_empty(), "no round completed");
}

#[test]
fn timed_hybrid_secure_run_matches_clear_run() {
    // Goal far above what the concurrency can deliver inside a deadline:
    // releases come from the deadline, so the exact-deadline event
    // machinery drives partial-buffer TSA key releases (threshold 1).
    let (_, secure) = assert_secure_matches_clear(
        TaskConfig::timed_hybrid_task("hybrid", 24, 2_000, 600.0),
        2.0,
    );
    let m = &secure.single().metrics;
    assert!(m.server_updates > 3, "deadline releases missing");
    assert!(
        m.aggregated_updates < 2_000 * m.server_updates,
        "every release met the goal; the deadline path went untested"
    );
}

/// Runs `task` through the session-cached protocol (`AsyncSecAgg`) and the
/// legacy per-update key-exchange protocol (`AsyncSecAggPerUpdate`) and
/// asserts the two are **bitwise** interchangeable: masks cancel exactly in
/// both modes, so every released aggregate — and therefore the final model —
/// must be bit-identical, while the session mode does strictly less TEE
/// traffic and key-exchange work.  Fingerprints are *expected* to differ
/// (TEE byte counts and cache counters are hashed), so the comparison is on
/// parameters and policy counters, never fingerprints.
fn assert_session_matches_per_update(task: TaskConfig, hours: f64) -> (Report, Report) {
    let session = run(
        task.clone().with_secagg(SecAggMode::AsyncSecAgg),
        hours,
        Parallelism::sequential(),
    );
    let per_update = run(
        task.with_secagg(SecAggMode::AsyncSecAggPerUpdate),
        hours,
        Parallelism::sequential(),
    );
    let (s, p) = (&session.single().metrics, &per_update.single().metrics);

    // Identical policy trajectory.
    assert_eq!(s.comm_trips, p.comm_trips);
    assert_eq!(s.server_updates, p.server_updates);
    assert_eq!(s.aggregated_updates, p.aggregated_updates);
    assert_eq!(s.rejected_stale_updates, p.rejected_stale_updates);
    assert_eq!(s.discarded_updates, p.discarded_updates);
    assert_eq!(s.participations, p.participations);
    assert_eq!(s.secure.masked_updates, p.secure.masked_updates);
    assert_eq!(s.secure.tsa_key_releases, p.secure.tsa_key_releases);
    assert!(s.server_updates > 0, "nothing was aggregated");

    // Bitwise-identical learning: the one-time pads differ between the two
    // key schedules but cancel exactly inside each released buffer sum.
    assert_eq!(
        session.single().final_params.as_slice(),
        per_update.single().final_params.as_slice(),
        "session-cached releases must be bit-identical to per-update releases"
    );
    assert_eq!(session.single().final_loss, per_update.single().final_loss);

    // The cache must actually amortize: resumed participations skip the DH
    // exchange entirely, and the per-client TEE ingress drops from a full
    // CompletingMessage to a 16-byte MaskRef.
    assert!(s.secure.session_cache_misses > 0, "no first contacts");
    assert!(s.secure.dh_exchanges_saved > 0, "cache never resumed");
    assert_eq!(s.secure.dh_exchanges_saved, s.secure.session_cache_hits);
    assert_eq!(p.secure.dh_exchanges_saved, 0, "legacy mode has no cache");
    assert!(
        s.secure.tee_bytes_in < p.secure.tee_bytes_in,
        "session mode must shrink TEE ingress: {} vs {}",
        s.secure.tee_bytes_in,
        p.secure.tee_bytes_in
    );
    (session, per_update)
}

#[test]
fn fedbuff_session_cache_matches_per_update_exchange() {
    assert_session_matches_per_update(TaskConfig::async_task("fedbuff", 32, 8), 1.0);
}

#[test]
fn sync_round_session_cache_matches_per_update_exchange() {
    assert_session_matches_per_update(TaskConfig::sync_task("sync", 30, 0.3), 2.0);
}

#[test]
fn timed_hybrid_session_cache_matches_per_update_exchange() {
    assert_session_matches_per_update(
        TaskConfig::timed_hybrid_task("hybrid", 24, 2_000, 600.0),
        2.0,
    );
}

#[test]
fn dp_stacked_session_cache_matches_per_update_exchange() {
    // DP goes outermost; its noise lands on the decoded aggregate, which is
    // bit-identical between the two key schedules, so the noised model must
    // be too.
    use papaya_core::dp::DpConfig;
    let task = TaskConfig::async_task("dp-secure", 32, 8).with_dp(DpConfig::new(2.0, 0.5));
    let (session, _) = assert_session_matches_per_update(task, 1.0);
    let m = &session.single().metrics;
    assert!(m.dp.releases > 0, "DP pipeline never released");
    assert!(m.dp.cumulative_epsilon > 0.0, "accountant never charged");
}

#[test]
fn secure_fingerprint_is_thread_count_invariant() {
    // Acceptance criterion: a secure scenario's fingerprint must be
    // bit-identical at any Parallelism setting.
    let task = || TaskConfig::async_task("secure", 32, 8).with_secagg(SecAggMode::AsyncSecAgg);
    let sequential = run(task(), 0.5, Parallelism::sequential());
    assert!(sequential.single().metrics.secure.tsa_key_releases > 0);
    for workers in [1, 4] {
        let parallel = run(task(), 0.5, Parallelism(workers));
        assert_eq!(
            sequential.fingerprint(),
            parallel.fingerprint(),
            "secure run diverged at {workers} workers"
        );
    }
}
