//! Property tests for the DP pipeline (clipping, noise, accounting).
//!
//! The privacy guarantee rests on four mechanical facts, each checked here
//! over random inputs: (1) no clipped update ever exceeds the L2 bound —
//! clipping is what gives a release finite sensitivity; (2) clipping is the
//! identity inside the bound — utility is only spent when the guarantee
//! needs it; (3) the noise stream is bit-deterministic per seed — the
//! simulator's reproducibility contract extends to noised runs; and (4) the
//! accountant's ε is monotone in releases and decreasing in the noise
//! multiplier — more releases can never claim *more* privacy, and more
//! noise can never cost more.

use papaya_core::aggregator::Aggregator;
use papaya_core::client::ClientUpdate;
use papaya_core::dp::{DpAggregator, DpConfig, PrivacyAccountant};
use papaya_core::fedbuff::FedBuffAggregator;
use papaya_core::staleness::StalenessWeighting;
use papaya_nn::params::ParamVec;
use proptest::prelude::*;

fn update(id: usize, delta: Vec<f32>, examples: usize) -> ClientUpdate {
    ClientUpdate {
        client_id: id,
        delta: ParamVec::from_vec(delta),
        num_examples: examples,
        start_version: 0,
        train_loss: 0.0,
    }
}

/// A goal-1 DP FedBuff aggregator: every accepted update is released alone,
/// so the release *is* the (clipped, optionally noised) update.
fn dp_goal_one(config: DpConfig, seed: u64) -> DpAggregator {
    DpAggregator::new(
        Box::new(FedBuffAggregator::new(1, StalenessWeighting::Constant)),
        config,
        seed,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Whatever the input vector, the released (zero-noise, goal-1) delta
    /// never exceeds the clip bound beyond `f32` rounding slack.
    #[test]
    fn clipped_updates_never_exceed_the_bound(
        values in proptest::collection::vec(-1000.0f32..1000.0, 1..32),
        clip_bound in 0.01f64..100.0,
    ) {
        let mut agg = dp_goal_one(DpConfig::new(clip_bound, 0.0), 1);
        agg.accumulate(update(0, values, 10), 0, 0.0);
        let released = agg.take(0.0).expect("goal 1 releases immediately");
        let norm = released.norm() as f64;
        prop_assert!(
            norm <= clip_bound * (1.0 + 1e-5),
            "norm {norm} exceeds bound {clip_bound}"
        );
    }

    /// An update already inside the bound passes through bit-exact (no
    /// rescaling by 1.0, no rounding): the DP release equals the clear
    /// release bitwise when no clipping or noise applies.
    #[test]
    fn clipping_is_identity_inside_the_bound(
        values in proptest::collection::vec(-10.0f32..10.0, 1..32),
    ) {
        let norm = values.iter().map(|v| (*v as f64).powi(2)).sum::<f64>().sqrt();
        let clip_bound = norm + 1.0;
        let mut clear = FedBuffAggregator::new(1, StalenessWeighting::Constant);
        let mut dp = dp_goal_one(DpConfig::new(clip_bound, 0.0), 2);
        clear.accumulate(update(0, values.clone(), 10), 0, 0.0);
        dp.accumulate(update(0, values, 10), 0, 0.0);
        let clear_out = clear.take(0.0).unwrap();
        let dp_out = dp.take(0.0).unwrap();
        prop_assert_eq!(clear_out.as_slice(), dp_out.as_slice());
        prop_assert_eq!(dp.telemetry().clipped_updates, 0);
    }

    /// The noise stream is a pure function of the seed: equal seeds give
    /// bit-identical noised releases, and the released delta actually moved
    /// away from the clear value (the noise is not a no-op).
    #[test]
    fn noise_is_bit_deterministic_per_seed(
        values in proptest::collection::vec(-5.0f32..5.0, 1..16),
        seed in 0u64..1_000_000,
        noise_multiplier in 0.1f64..5.0,
    ) {
        let run = |seed: u64| {
            let mut agg = dp_goal_one(DpConfig::new(10.0, noise_multiplier), seed);
            agg.accumulate(update(0, values.clone(), 10), 0, 0.0);
            agg.take(0.0).unwrap()
        };
        let (a, b) = (run(seed), run(seed));
        prop_assert_eq!(a.as_slice(), b.as_slice(), "same seed diverged");
        let other = run(seed ^ 0xFFFF_FFFF);
        prop_assert_ne!(a.as_slice(), other.as_slice(), "seed ignored");
    }

    /// ε is monotone non-decreasing in the number of releases, for any
    /// sampling rate and positive noise.
    #[test]
    fn accountant_epsilon_is_monotone_in_releases(
        sampling_rate in 0.001f64..=1.0,
        noise_multiplier in 0.3f64..5.0,
        delta_exp in 3u32..9,
        steps in 1usize..50,
    ) {
        let delta = 10f64.powi(-(delta_exp as i32));
        let mut accountant = PrivacyAccountant::new(sampling_rate, noise_multiplier);
        let mut previous = accountant.epsilon(delta);
        prop_assert_eq!(previous, 0.0);
        for _ in 0..steps {
            accountant.record_release();
            let epsilon = accountant.epsilon(delta);
            prop_assert!(
                epsilon >= previous,
                "epsilon decreased: {previous} -> {epsilon}"
            );
            prop_assert!(epsilon.is_finite() && epsilon > 0.0);
            previous = epsilon;
        }
    }

    /// More noise can never cost more privacy: ε is non-increasing in the
    /// noise multiplier at a fixed release count.
    #[test]
    fn accountant_epsilon_decreases_with_noise(
        sampling_rate in 0.001f64..=1.0,
        noise_low in 0.3f64..3.0,
        noise_gap in 0.1f64..3.0,
        releases in 1u64..200,
    ) {
        let delta = 1e-5;
        let epsilon_at = |z: f64| {
            let mut accountant = PrivacyAccountant::new(sampling_rate, z);
            for _ in 0..releases {
                accountant.record_release();
            }
            accountant.epsilon(delta)
        };
        let (low, high) = (epsilon_at(noise_low), epsilon_at(noise_low + noise_gap));
        prop_assert!(
            high <= low,
            "more noise cost more privacy: z={noise_low} -> {low}, \
             z={} -> {high}",
            noise_low + noise_gap
        );
    }
}
