//! Bounded metric traces via deterministic stride decimation.
//!
//! The simulator's per-event traces (utilization samples, loss curve,
//! participation records) historically grew with the event count — fine at
//! 20k devices, hostile at a million, where a trace entry per event turns
//! the metrics layer into the resident-set ceiling.  [`DecimatedTrace`] is
//! a drop-in bounded recorder: it keeps at most a [`TraceBudget`] of
//! samples by *stride doubling* — record every sample until the budget
//! fills, then drop every other retained sample and record only every 2nd
//! offer, then every 4th, and so on.
//!
//! Properties the simulator's determinism pin needs (`docs/DETERMINISM.md`):
//!
//! * **Deterministic** — which samples survive is a pure function of the
//!   offer sequence and the budget; no randomness, no wall-clock.
//! * **Order-preserving** — retained samples keep their offer order, and
//!   every retained sample's offer index is a multiple of the current
//!   stride (the first offer is always retained).
//! * **Bounded** — at most `budget` samples are resident, ever; memory is
//!   O(budget) regardless of run length.
//! * **Budget-invisible to the fingerprint** — every offered sample is
//!   folded into the trace's running [`Digest`] before the stride decides
//!   whether to keep it, so the digest and the offer count pin everything
//!   the run produced.  `Report::fingerprint()` hashes those two and reads
//!   no sample: retention is a reporting choice, and runs that differ only
//!   in their budget have one fingerprint.
//!
//! A `default()` trace records every sample; a `papaya-sim` run keeps at
//! most `RunLimits::trace_budget` (4 096 by default) of each per-event one.

use std::ops::Deref;

/// A running word-wise digest, shared by every trace and
/// `Report::fingerprint()`.  For a fixed word each step is a bijection of
/// the state (xor, multiply by an odd constant, rotate); the rotation brings
/// a word's high bits down to where the next multiply spreads them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Digest(u64);

impl Digest {
    /// Folds one word into the state.
    #[inline]
    pub fn word(&mut self, word: u64) {
        self.0 = (self.0 ^ word)
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .rotate_left(29);
    }

    /// The current state.
    pub fn value(&self) -> u64 {
        self.0
    }
}

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

/// A value a [`DecimatedTrace`] can record: it folds itself into a
/// [`Digest`] as a fixed sequence of words.
pub trait TraceSample {
    /// Folds this sample's words into `digest`.
    fn fold_into(&self, digest: &mut Digest);
}

impl TraceSample for f64 {
    fn fold_into(&self, digest: &mut Digest) {
        digest.word(self.to_bits());
    }
}

impl TraceSample for (f64, usize) {
    fn fold_into(&self, digest: &mut Digest) {
        digest.word(self.0.to_bits());
        digest.word(self.1 as u64);
    }
}

impl TraceSample for (f64, f64) {
    fn fold_into(&self, digest: &mut Digest) {
        digest.word(self.0.to_bits());
        digest.word(self.1.to_bits());
    }
}

/// Retention budget for a [`DecimatedTrace`].
///
/// Either `TraceBudget::UNBOUNDED` (keep every sample) or
/// [`TraceBudget::bounded`]`(n)` (keep at most `n` samples by stride
/// decimation).  Surfaced per run as `RunLimits::trace_budget` in
/// `papaya-sim`, bounded at 4 096 by default.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceBudget {
    max_samples: usize,
}

impl TraceBudget {
    /// Keep every offered sample (the historical behaviour).
    pub(crate) const UNBOUNDED: TraceBudget = TraceBudget {
        max_samples: usize::MAX,
    };

    /// Keep at most `max_samples` samples.
    ///
    /// # Panics
    ///
    /// Panics when `max_samples < 2`: stride doubling halves the retained
    /// set, so a budget of at least two is needed to make progress.
    pub fn bounded(max_samples: usize) -> Self {
        assert!(
            max_samples >= 2,
            "a trace budget must retain at least 2 samples, got {max_samples}"
        );
        TraceBudget { max_samples }
    }
}

/// A bounded, deterministically decimated metric trace.
///
/// Behaves like a read-only `Vec<T>` (it derefs to `[T]`), but `push` may
/// silently skip samples once the configured [`TraceBudget`] fills: the
/// trace then retains only every `stride`-th offered sample, doubling the
/// stride each time the budget would overflow.  With the default unbounded
/// budget every sample is retained and the container is exactly the
/// historical `Vec` trace.
#[derive(Clone, Debug, PartialEq)]
pub struct DecimatedTrace<T> {
    samples: Vec<T>,
    budget: TraceBudget,
    /// Record every `stride`-th offered sample (power of two; 1 until the
    /// budget first fills).
    stride: u64,
    /// Total samples ever offered via `push`.
    offered: u64,
    /// Every offered sample, folded in offer order.
    digest: Digest,
}

impl<T> DecimatedTrace<T> {
    /// Creates an empty trace with the given budget.
    pub(crate) fn with_budget(budget: TraceBudget) -> Self {
        DecimatedTrace {
            samples: Vec::new(),
            budget,
            stride: 1,
            offered: 0,
            digest: Digest::default(),
        }
    }

    /// Replaces the budget of a trace that has not recorded anything yet.
    ///
    /// The budget is a construction-time property (the stride and the
    /// retained set assume it from the first offer), so re-budgeting a
    /// populated trace is a logic error.
    ///
    /// # Panics
    ///
    /// Panics when samples have already been offered.
    pub fn set_budget(&mut self, budget: TraceBudget) {
        assert!(
            self.offered == 0,
            "trace budget must be set before the first sample"
        );
        self.budget = budget;
    }

    /// Total samples ever offered (retained or not).
    pub fn offered(&self) -> u64 {
        self.offered
    }

    /// The digest of every sample ever offered, in offer order; a function
    /// of the offers alone, whatever the budget retained.
    pub fn digest(&self) -> u64 {
        self.digest.value()
    }

    /// The retained samples, in offer order.
    pub fn as_slice(&self) -> &[T] {
        &self.samples
    }
}

impl<T: TraceSample> DecimatedTrace<T> {
    /// Offers a sample: folds it into the digest, then retains it when the
    /// current stride selects it.
    pub fn push(&mut self, sample: T) {
        sample.fold_into(&mut self.digest);
        let index = self.offered;
        self.offered += 1;
        // The stride starts at 1 and only ever doubles, so "multiple of the
        // stride" is a mask, not a division.
        debug_assert!(self.stride.is_power_of_two());
        if index & (self.stride - 1) != 0 {
            return;
        }
        if self.samples.len() >= self.budget.max_samples {
            // Budget full: drop every other retained sample and double the
            // stride.  Retained offer indices stay multiples of the (new)
            // stride, so the surviving set is exactly what a from-scratch
            // run at the final stride would have kept.
            let mut keep = 0usize;
            self.samples.retain(|_| {
                let retained = keep.is_multiple_of(2);
                keep += 1;
                retained
            });
            self.stride *= 2;
            if index & (self.stride - 1) != 0 {
                return;
            }
        }
        self.samples.push(sample);
    }
}

impl<T> Default for DecimatedTrace<T> {
    fn default() -> Self {
        DecimatedTrace::with_budget(TraceBudget::UNBOUNDED)
    }
}

/// An unbounded trace that was offered `samples` in order (test
/// convenience).
impl<T: TraceSample> From<Vec<T>> for DecimatedTrace<T> {
    fn from(samples: Vec<T>) -> Self {
        let mut trace = DecimatedTrace::default();
        samples.into_iter().for_each(|sample| trace.push(sample));
        trace
    }
}

impl<T> Deref for DecimatedTrace<T> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        &self.samples
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl TraceSample for u64 {
        fn fold_into(&self, digest: &mut Digest) {
            digest.word(*self);
        }
    }

    #[test]
    fn the_digest_covers_every_offer_whatever_the_budget_keeps() {
        let offers = |changed: u64| {
            let mut unbounded = DecimatedTrace::default();
            let mut bounded = DecimatedTrace::with_budget(TraceBudget::bounded(32));
            for i in 0..5_000u64 {
                let sample = if i == 4_999 { changed } else { i * 7 };
                unbounded.push(sample);
                bounded.push(sample);
            }
            assert!(bounded.len() <= 32);
            assert_eq!(bounded.offered(), unbounded.offered());
            assert_eq!(bounded.digest(), unbounded.digest());
            (bounded.as_slice().to_vec(), bounded.digest())
        };
        // The last offer is odd, so no stride above 1 retains it; changing
        // it still moves the digest.
        let (kept, digest) = offers(1);
        let (kept_changed, digest_changed) = offers(3);
        assert_eq!(kept, kept_changed);
        assert_ne!(digest, digest_changed);
    }

    #[test]
    fn unbounded_trace_retains_everything() {
        let mut t = DecimatedTrace::default();
        for i in 0..10_000u64 {
            t.push(i);
        }
        assert_eq!(t.len(), 10_000);
        assert_eq!(t.offered(), 10_000);
        assert_eq!(t.stride, 1);
        assert_eq!(t[4321], 4321);
    }

    #[test]
    fn bounded_trace_never_exceeds_its_budget() {
        let mut t = DecimatedTrace::with_budget(TraceBudget::bounded(64));
        for i in 0..100_000u64 {
            t.push(i);
            assert!(t.len() <= 64, "len {} at offer {i}", t.len());
        }
        assert_eq!(t.offered(), 100_000);
        assert!(t.stride >= 100_000 / 64);
    }

    #[test]
    fn retained_samples_are_stride_multiples_in_order() {
        let mut t = DecimatedTrace::with_budget(TraceBudget::bounded(16));
        for i in 0..10_000u64 {
            t.push(i);
        }
        let stride = t.stride;
        assert_eq!(t.first(), Some(&0), "the first offer always survives");
        for window in t.windows(2) {
            assert!(window[0] < window[1], "order preserved");
        }
        for &sample in t.iter() {
            assert_eq!(sample % stride, 0, "sample {sample} vs stride {stride}");
        }
    }

    #[test]
    fn decimation_is_deterministic() {
        let run = || {
            let mut t = DecimatedTrace::with_budget(TraceBudget::bounded(32));
            for i in 0..5_000u64 {
                t.push(i * 3);
            }
            (t.as_slice().to_vec(), t.stride, t.offered())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn from_vec_matches_pushing() {
        let mut pushed = DecimatedTrace::default();
        for i in 0..5u64 {
            pushed.push(i);
        }
        let converted = DecimatedTrace::from((0..5u64).collect::<Vec<_>>());
        assert_eq!(pushed, converted);
    }

    #[test]
    #[should_panic(expected = "at least 2 samples")]
    fn tiny_budgets_are_rejected() {
        let _ = TraceBudget::bounded(1);
    }

    #[test]
    #[should_panic(expected = "before the first sample")]
    fn rebudgeting_a_populated_trace_panics() {
        let mut t = DecimatedTrace::default();
        t.push(1u64);
        t.set_budget(TraceBudget::bounded(8));
    }
}
