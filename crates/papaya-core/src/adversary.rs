//! Typed Byzantine client behaviors.
//!
//! The paper's production system assumes well-behaved clients; at millions
//! of devices the threat model must extend past crashes to adversarial
//! updates.  This module is the attack half of that extension (the defense
//! half is [`crate::robust`]): an [`AdversarySpec`] marks a deterministic
//! fraction of the client population as malicious and gives every malicious
//! client one typed [`Malice`] behavior.  Simulation drivers consult the
//! spec at the upload choke point — after local training, before the update
//! reaches the aggregator — so the attack surface is exactly what a real
//! server faces: it sees only what the device chooses to send.
//!
//! Behaviors are modeled on the malicious-party test harnesses of
//! threshold-crypto implementations (tofn-style `malicious` modules): each
//! behavior is a small, named, individually testable deviation from the
//! honest protocol, and the attack-vs-defense matrix in `papaya-sim` proves
//! which [`crate::robust::RobustDefense`] neutralizes which behavior.
//!
//! Everything here is deterministic: membership is a pure hash of
//! `(seed, client_id)` and the collusion target is a pure function of the
//! seed, so adversarial runs are bit-identical at any thread count, like
//! every other part of the simulator.

use papaya_nn::params::ParamVec;

/// How a SecAgg-enabled malicious client deviates from the masking
/// protocol (instead of, or in addition to, corrupting its delta).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DeviationKind {
    /// The client uploads a mask reference claiming the *next* ratchet
    /// counter instead of the one its mask was actually expanded from.
    /// The TSA's monotone floor accepts the higher counter, expands a
    /// different mask seed, and the unmask leaves mask residue on the
    /// aggregate — detectable as an out-of-range release, never a panic.
    WrongCounter,
    /// The client applies its pad twice, so the TSA's unmask removes only
    /// one copy and the released aggregate carries a full pseudorandom
    /// pad of garbage.
    GarbageMask,
}

impl DeviationKind {
    /// Stable attack label for telemetry and reports.
    pub(crate) fn label(&self) -> &'static str {
        match self {
            DeviationKind::WrongCounter => "secagg-wrong-counter",
            DeviationKind::GarbageMask => "secagg-garbage-mask",
        }
    }
}

/// One typed malicious behavior, applied by every malicious client.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Malice {
    /// Uploads `-scale * delta`: the classic sign-flip (gradient-ascent)
    /// attack, optionally amplified.
    SignFlip {
        /// Amplification applied on top of the flip; `1.0` is a pure flip.
        scale: f64,
    },
    /// Uploads `factor * delta`: a scaled (boosted) update that dominates
    /// the weighted average without changing direction.
    Scaled {
        /// The boost factor (e.g. `100.0`).
        factor: f64,
    },
    /// Colluding cohort: every malicious client discards its honest delta
    /// and uploads the *same* pseudorandom target vector of the given L2
    /// magnitude (derived from the adversary seed), steering the model
    /// toward a shared poisoned point.
    Collusion {
        /// L2 norm of the shared target vector.
        magnitude: f64,
    },
    /// Staleness liar: the client trains against the *initial* global
    /// model forever (never re-downloading) but reports the current
    /// version as its start version, claiming staleness 0 so staleness
    /// down-weighting never discounts its increasingly stale update.
    StalenessLiar,
    /// SecAgg protocol deviation (only meaningful for secure tasks; a
    /// clear task treats this as honest behavior).
    SecAggDeviation {
        /// Which protocol step is violated.
        kind: DeviationKind,
    },
}

impl Malice {
    /// Stable attack label for telemetry, traces, and reports.
    pub fn label(&self) -> &'static str {
        match self {
            Malice::SignFlip { .. } => "sign-flip",
            Malice::Scaled { .. } => "scaled",
            Malice::Collusion { .. } => "collusion",
            Malice::StalenessLiar => "staleness-liar",
            Malice::SecAggDeviation { kind } => kind.label(),
        }
    }
}

/// The adversarial client model of one task: which clients are malicious
/// and what they do.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AdversarySpec {
    /// Fraction of the client population that is malicious, in `[0, 1]`.
    /// Membership is decided per client id by a deterministic hash, so the
    /// realized fraction converges to this value over the population.
    pub fraction: f64,
    /// The behavior every malicious client exhibits.
    pub malice: Malice,
    /// Seed for membership hashing and the collusion target (independent
    /// of the task seed, so the same attack can be replayed against
    /// different training randomness).
    pub seed: u64,
}

impl AdversarySpec {
    /// An adversary where the given fraction of clients exhibits `malice`.
    pub fn new(fraction: f64, malice: Malice) -> Self {
        AdversarySpec {
            fraction,
            malice,
            seed: 0xBAD_C0DE,
        }
    }

    /// Sets the membership/targeting seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Panics unless every knob is in its valid range; called by
    /// scenario-side config validation.
    ///
    /// # Panics
    ///
    /// Panics on a fraction outside `[0, 1]` or a non-finite / non-positive
    /// attack parameter.
    pub fn validate(&self) {
        // Exhaustive destructure: a new adversary knob must be
        // range-checked here (or explicitly ignored) before it compiles.
        let AdversarySpec {
            fraction,
            malice,
            seed: _,
        } = *self;
        assert!(
            (0.0..=1.0).contains(&fraction),
            "adversary: fraction must be in [0, 1], got {fraction}"
        );
        match malice {
            Malice::SignFlip { scale } => assert!(
                scale.is_finite() && scale > 0.0,
                "adversary: sign-flip scale must be positive and finite, got {scale}"
            ),
            Malice::Scaled { factor } => assert!(
                factor.is_finite(),
                "adversary: scale factor must be finite, got {factor}"
            ),
            Malice::Collusion { magnitude } => assert!(
                magnitude.is_finite() && magnitude > 0.0,
                "adversary: collusion magnitude must be positive and finite, got {magnitude}"
            ),
            Malice::StalenessLiar | Malice::SecAggDeviation { .. } => {}
        }
    }

    /// Whether `client_id` is malicious under this spec.  A pure hash of
    /// `(seed, client_id)` compared against the fraction — deterministic,
    /// stateless, and O(1) per call.
    pub fn is_malicious(&self, client_id: usize) -> bool {
        if self.fraction <= 0.0 {
            return false;
        }
        if self.fraction >= 1.0 {
            return true;
        }
        let h = splitmix64(self.seed ^ (client_id as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        // Top 53 bits as a uniform in [0, 1).
        ((h >> 11) as f64 / (1u64 << 53) as f64) < self.fraction
    }

    /// The SecAgg protocol deviation malicious clients perform, if the
    /// behavior is one.
    pub fn deviation(&self) -> Option<DeviationKind> {
        match self.malice {
            Malice::SecAggDeviation { kind } => Some(kind),
            _ => None,
        }
    }

    /// Whether malicious clients lie about their staleness (train against
    /// the initial model while claiming the current version).
    pub fn lies_about_staleness(&self) -> bool {
        matches!(self.malice, Malice::StalenessLiar)
    }

    /// Applies the behavior's delta corruption in place (the upload-time
    /// transformation a malicious device performs on its own update).
    /// No-op for behaviors that corrupt metadata or protocol state instead
    /// of the delta, and for honest clients.
    pub fn corrupt_delta(&self, client_id: usize, delta: &mut ParamVec) {
        if !self.is_malicious(client_id) {
            return;
        }
        match self.malice {
            Malice::SignFlip { scale } => delta.scale(-scale as f32),
            Malice::Scaled { factor } => delta.scale(factor as f32),
            Malice::Collusion { magnitude } => {
                // Every colluder uploads the identical target vector, so
                // the attack survives averaging at full strength.
                let target = collusion_target(self.seed, delta.len(), magnitude);
                delta.as_mut_slice().copy_from_slice(target.as_slice());
            }
            Malice::StalenessLiar | Malice::SecAggDeviation { .. } => {}
        }
    }
}

/// The shared collusion target: a pseudorandom direction derived from the
/// adversary seed, scaled to the requested L2 magnitude.
pub(crate) fn collusion_target(seed: u64, dimension: usize, magnitude: f64) -> ParamVec {
    let mut values = Vec::with_capacity(dimension);
    for i in 0..dimension {
        let h = splitmix64(seed ^ 0xC011_0DE0 ^ (i as u64).wrapping_mul(0x2545_F491_4F6C_DD1D));
        // Uniform in [-1, 1).
        values.push(((h >> 11) as f64 / (1u64 << 52) as f64 - 1.0) as f32);
    }
    let mut target = ParamVec::from_vec(values);
    let norm = target.norm() as f64;
    if norm > 0.0 {
        target.scale((magnitude / norm) as f32);
    }
    target
}

/// SplitMix64: a fast, well-mixed 64-bit hash (Steele et al., 2014), used
/// for membership and targeting so adversary checks cost a few ALU ops
/// instead of a cryptographic hash per upload.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn membership_is_deterministic_and_tracks_the_fraction() {
        let spec = AdversarySpec::new(0.3, Malice::SignFlip { scale: 1.0 });
        let malicious = (0..10_000).filter(|&id| spec.is_malicious(id)).count();
        // The hash is uniform; 30 % ± a small tolerance over 10k clients.
        assert!(
            (2_700..=3_300).contains(&malicious),
            "realized fraction off: {malicious}/10000"
        );
        for id in 0..100 {
            assert_eq!(spec.is_malicious(id), spec.is_malicious(id));
        }
        // Different seeds pick different cohorts.
        let reseeded = spec.with_seed(7);
        assert!((0..1000).any(|id| spec.is_malicious(id) != reseeded.is_malicious(id)));
    }

    #[test]
    fn fraction_extremes_are_exact() {
        let none = AdversarySpec::new(0.0, Malice::StalenessLiar);
        let all = AdversarySpec::new(1.0, Malice::StalenessLiar);
        assert!((0..1000).all(|id| !none.is_malicious(id)));
        assert!((0..1000).all(|id| all.is_malicious(id)));
    }

    #[test]
    fn sign_flip_negates_and_scales() {
        let spec = AdversarySpec::new(1.0, Malice::SignFlip { scale: 2.0 });
        let mut delta = ParamVec::from_vec(vec![1.0, -0.5]);
        spec.corrupt_delta(0, &mut delta);
        assert_eq!(delta.as_slice(), &[-2.0, 1.0]);
    }

    #[test]
    fn scaled_attack_boosts_without_turning() {
        let spec = AdversarySpec::new(1.0, Malice::Scaled { factor: 100.0 });
        let mut delta = ParamVec::from_vec(vec![0.1, 0.2]);
        spec.corrupt_delta(3, &mut delta);
        assert!((delta.as_slice()[0] - 10.0).abs() < 1e-5);
        assert!((delta.as_slice()[1] - 20.0).abs() < 1e-5);
    }

    #[test]
    fn honest_clients_are_untouched() {
        let spec = AdversarySpec::new(0.5, Malice::Scaled { factor: 100.0 });
        let honest = (0..1000).find(|&id| !spec.is_malicious(id)).unwrap();
        let mut delta = ParamVec::from_vec(vec![1.0, 2.0]);
        spec.corrupt_delta(honest, &mut delta);
        assert_eq!(delta.as_slice(), &[1.0, 2.0]);
    }

    #[test]
    fn colluders_share_one_target_of_the_requested_magnitude() {
        let spec = AdversarySpec::new(1.0, Malice::Collusion { magnitude: 5.0 });
        let mut a = ParamVec::from_vec(vec![1.0, 2.0, 3.0]);
        let mut b = ParamVec::from_vec(vec![-9.0, 0.0, 4.0]);
        spec.corrupt_delta(0, &mut a);
        spec.corrupt_delta(71, &mut b);
        assert_eq!(a.as_slice(), b.as_slice(), "colluders must agree");
        assert!((a.norm() as f64 - 5.0).abs() < 1e-4);
        // A different seed steers somewhere else.
        let mut c = ParamVec::from_vec(vec![0.0, 0.0, 0.0]);
        spec.with_seed(99).corrupt_delta(0, &mut c);
        assert_ne!(a.as_slice(), c.as_slice());
    }

    #[test]
    fn metadata_attacks_leave_the_delta_alone() {
        for malice in [
            Malice::StalenessLiar,
            Malice::SecAggDeviation {
                kind: DeviationKind::WrongCounter,
            },
        ] {
            let spec = AdversarySpec::new(1.0, malice);
            let mut delta = ParamVec::from_vec(vec![1.0, -1.0]);
            spec.corrupt_delta(0, &mut delta);
            assert_eq!(delta.as_slice(), &[1.0, -1.0]);
        }
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(
            AdversarySpec::new(0.1, Malice::SignFlip { scale: 1.0 })
                .malice
                .label(),
            "sign-flip"
        );
        assert_eq!(Malice::Scaled { factor: 2.0 }.label(), "scaled");
        assert_eq!(Malice::Collusion { magnitude: 1.0 }.label(), "collusion");
        assert_eq!(Malice::StalenessLiar.label(), "staleness-liar");
        assert_eq!(
            Malice::SecAggDeviation {
                kind: DeviationKind::WrongCounter
            }
            .label(),
            "secagg-wrong-counter"
        );
        assert_eq!(
            Malice::SecAggDeviation {
                kind: DeviationKind::GarbageMask
            }
            .label(),
            "secagg-garbage-mask"
        );
    }

    #[test]
    fn accessors_expose_metadata_behaviors() {
        let liar = AdversarySpec::new(0.2, Malice::StalenessLiar);
        assert!(liar.lies_about_staleness());
        assert_eq!(liar.deviation(), None);
        let deviant = AdversarySpec::new(
            0.2,
            Malice::SecAggDeviation {
                kind: DeviationKind::GarbageMask,
            },
        );
        assert!(!deviant.lies_about_staleness());
        assert_eq!(deviant.deviation(), Some(DeviationKind::GarbageMask));
    }

    #[test]
    #[should_panic(expected = "fraction must be in [0, 1]")]
    fn out_of_range_fraction_rejected() {
        AdversarySpec::new(1.5, Malice::StalenessLiar).validate();
    }

    #[test]
    #[should_panic(expected = "collusion magnitude must be positive")]
    fn non_finite_magnitude_rejected() {
        AdversarySpec::new(
            0.5,
            Malice::Collusion {
                magnitude: f64::NAN,
            },
        )
        .validate();
    }

    #[test]
    #[should_panic(expected = "scale factor must be finite")]
    fn non_finite_scale_rejected() {
        AdversarySpec::new(
            0.5,
            Malice::Scaled {
                factor: f64::INFINITY,
            },
        )
        .validate();
    }
}
