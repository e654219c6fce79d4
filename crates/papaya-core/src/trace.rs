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
//! * **Fingerprint-honest** — the decimation parameters (budget, final
//!   stride, offers seen) are part of the trace's observable state, so
//!   `Report::fingerprint()` hashes them whenever a budget is active: two
//!   runs with different budgets hash differently instead of colliding on
//!   a truncated prefix.
//!
//! The default budget is [`TraceBudget::UNBOUNDED`], which records every
//! sample — bit-compatible with the historical unbounded `Vec` traces, so
//! existing scenario fingerprints are unchanged unless a budget is
//! explicitly configured (the `RunLimits::trace_budget` knob in
//! `papaya-sim`).

use std::ops::Deref;

/// Retention budget for a [`DecimatedTrace`].
///
/// Either [`TraceBudget::UNBOUNDED`] (the default: keep every sample) or
/// [`TraceBudget::bounded`]`(n)` (keep at most `n` samples by stride
/// decimation).  Surfaced per run as `RunLimits::trace_budget` in
/// `papaya-sim`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceBudget {
    max_samples: usize,
}

impl TraceBudget {
    /// Keep every offered sample (the historical behaviour).
    pub const UNBOUNDED: TraceBudget = TraceBudget {
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

    /// Whether this budget actually bounds the trace.
    pub fn is_bounded(&self) -> bool {
        self.max_samples != usize::MAX
    }

    /// Maximum retained samples (`usize::MAX` when unbounded).
    pub fn max_samples(&self) -> usize {
        self.max_samples
    }
}

impl Default for TraceBudget {
    fn default() -> Self {
        TraceBudget::UNBOUNDED
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
}

impl<T> DecimatedTrace<T> {
    /// Creates an empty trace with the given budget.
    pub fn with_budget(budget: TraceBudget) -> Self {
        DecimatedTrace {
            samples: Vec::new(),
            budget,
            stride: 1,
            offered: 0,
        }
    }

    /// Replaces the budget of a trace that has not recorded anything yet.
    ///
    /// The budget is a construction-time property (it participates in the
    /// decimation state that fingerprints hash), so re-budgeting a
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

    /// Offers a sample; retains it when the current stride selects it.
    pub fn push(&mut self, sample: T) {
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

    /// Total samples ever offered (retained or not).
    pub fn offered(&self) -> u64 {
        self.offered
    }

    /// Current decimation stride (1 while the budget has never filled).
    pub fn stride(&self) -> u64 {
        self.stride
    }

    /// The configured budget.
    pub fn budget(&self) -> TraceBudget {
        self.budget
    }

    /// The retained samples, in offer order.
    pub fn as_slice(&self) -> &[T] {
        &self.samples
    }
}

impl<T> Default for DecimatedTrace<T> {
    fn default() -> Self {
        DecimatedTrace::with_budget(TraceBudget::UNBOUNDED)
    }
}

/// An unbounded trace pre-populated with `samples` (test convenience; the
/// offer counter matches the sample count).
impl<T> From<Vec<T>> for DecimatedTrace<T> {
    fn from(samples: Vec<T>) -> Self {
        DecimatedTrace {
            offered: samples.len() as u64,
            samples,
            budget: TraceBudget::UNBOUNDED,
            stride: 1,
        }
    }
}

impl<T> Deref for DecimatedTrace<T> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        &self.samples
    }
}

impl<'a, T> IntoIterator for &'a DecimatedTrace<T> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;

    fn into_iter(self) -> Self::IntoIter {
        self.samples.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unbounded_trace_retains_everything() {
        let mut t = DecimatedTrace::default();
        for i in 0..10_000u64 {
            t.push(i);
        }
        assert_eq!(t.len(), 10_000);
        assert_eq!(t.offered(), 10_000);
        assert_eq!(t.stride(), 1);
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
        assert!(t.stride() >= 100_000 / 64);
    }

    #[test]
    fn retained_samples_are_stride_multiples_in_order() {
        let mut t = DecimatedTrace::with_budget(TraceBudget::bounded(16));
        for i in 0..10_000u64 {
            t.push(i);
        }
        let stride = t.stride();
        assert_eq!(t.first(), Some(&0), "the first offer always survives");
        for window in t.windows(2) {
            assert!(window[0] < window[1], "order preserved");
        }
        for &sample in &t {
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
            (t.as_slice().to_vec(), t.stride(), t.offered())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn from_vec_matches_pushing() {
        let mut pushed = DecimatedTrace::default();
        for i in 0..5 {
            pushed.push(i);
        }
        let converted = DecimatedTrace::from((0..5).collect::<Vec<_>>());
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
        t.push(1);
        t.set_budget(TraceBudget::bounded(8));
    }
}
