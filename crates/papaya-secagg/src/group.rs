//! Finite Abelian group vectors used for additive one-time-pad masking.
//!
//! The protocol operates on vectors over `Z_n` (Appendix A.2 / D).  Elements
//! are stored as `u64` for any modulus `2 <= n < 2^64`: `Z_{2^32}` by
//! default, `Z_{2^40}` in the simulator.  A [`GroupVec`] keeps its elements
//! reduced (`< n`), so element-wise addition and subtraction are one
//! overflow-aware compare-and-subtract each, with no division.

/// Parameters of the finite group `Z_n`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GroupParams {
    modulus: u64,
}

impl GroupParams {
    /// The default group `Z_{2^32}` used for 32-bit fixed-point updates.
    pub fn z2_32() -> Self {
        GroupParams {
            modulus: 1u64 << 32,
        }
    }

    /// A group with an arbitrary modulus `n >= 2`.
    ///
    /// # Panics
    ///
    /// Panics if `modulus < 2`.
    pub fn new(modulus: u64) -> Self {
        assert!(modulus >= 2, "group modulus must be at least 2");
        GroupParams { modulus }
    }

    /// The group modulus `n`.
    pub fn modulus(&self) -> u64 {
        self.modulus
    }

    /// `n - 1` when `n` is a power of two: reduction is then this mask.
    /// Loop-invariant wherever it is used, so it costs nothing per element.
    #[inline]
    fn low_bits(&self) -> Option<u64> {
        self.modulus.is_power_of_two().then_some(self.modulus - 1)
    }

    /// Reduces a value into the group.
    #[inline]
    pub fn reduce(&self, v: u64) -> u64 {
        match self.low_bits() {
            Some(mask) => v & mask,
            None => v % self.modulus,
        }
    }

    /// Group addition.
    #[inline]
    pub fn add(&self, a: u64, b: u64) -> u64 {
        self.add_reduced(self.reduce(a), self.reduce(b))
    }

    /// Group subtraction.
    #[inline]
    pub fn sub(&self, a: u64, b: u64) -> u64 {
        self.sub_reduced(self.reduce(a), self.reduce(b))
    }

    /// `a + b mod n` for `a, b < n`.  The sum of two reduced elements is
    /// below `2n`, so one subtraction reduces it; above `n = 2^63` that sum
    /// can pass `2^64`, and the carry stands for the lost bit.  A power of
    /// two (at most `2^63`, so no carry) is a mask, with no data-dependent
    /// branch for pseudorandom masks to mispredict.
    #[inline]
    fn add_reduced(&self, a: u64, b: u64) -> u64 {
        debug_assert!(a < self.modulus && b < self.modulus);
        if let Some(mask) = self.low_bits() {
            return a.wrapping_add(b) & mask;
        }
        let (sum, carry) = a.overflowing_add(b);
        if carry || sum >= self.modulus {
            sum.wrapping_sub(self.modulus)
        } else {
            sum
        }
    }

    /// `a - b mod n` for `a, b < n`.
    #[inline]
    fn sub_reduced(&self, a: u64, b: u64) -> u64 {
        debug_assert!(a < self.modulus && b < self.modulus);
        if let Some(mask) = self.low_bits() {
            return a.wrapping_sub(b) & mask;
        }
        let (diff, borrow) = a.overflowing_sub(b);
        if borrow {
            diff.wrapping_add(self.modulus)
        } else {
            diff
        }
    }

    fn all_reduced(&self, values: &[u64]) -> bool {
        values.iter().all(|&v| v < self.modulus)
    }
}

/// A vector of group elements, each kept reduced (`< n`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GroupVec {
    params: GroupParams,
    values: Vec<u64>,
}

impl GroupVec {
    /// The all-zero vector of the given length.
    pub fn zeros(params: GroupParams, len: usize) -> Self {
        GroupVec {
            params,
            values: vec![0; len],
        }
    }

    /// Builds a vector from raw values (each reduced into the group).
    pub fn from_values(params: GroupParams, values: Vec<u64>) -> Self {
        let values = values.into_iter().map(|v| params.reduce(v)).collect();
        GroupVec { params, values }
    }

    /// Builds a vector from values already reduced into the group, skipping
    /// the reduction pass of [`GroupVec::from_values`].  Callers that fill a
    /// buffer element-by-element with reduced values (mask expansion,
    /// fixed-point encoding) use this to avoid a second walk over the
    /// vector.
    pub(crate) fn from_reduced(params: GroupParams, values: Vec<u64>) -> Self {
        debug_assert!(
            params.all_reduced(&values),
            "from_reduced given an unreduced value"
        );
        GroupVec { params, values }
    }

    /// The group parameters.
    pub(crate) fn params(&self) -> GroupParams {
        self.params
    }

    /// Vector length.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Returns true when the vector is empty.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The raw group elements.
    pub fn values(&self) -> &[u64] {
        &self.values
    }

    /// Element-wise in-place addition.
    ///
    /// # Panics
    ///
    /// Panics on length or group mismatch.
    pub fn add_assign(&mut self, other: &GroupVec) {
        assert_eq!(self.params, other.params, "group mismatch");
        self.add_assign_slice(&other.values);
    }

    /// Element-wise in-place addition of a raw slice of reduced group
    /// elements, used by the batched TSA release to accumulate many mask
    /// expansions through one reusable scratch buffer without constructing
    /// an intermediate `GroupVec` per mask.
    ///
    /// # Panics
    ///
    /// Panics on length mismatch.
    pub fn add_assign_slice(&mut self, other: &[u64]) {
        assert_eq!(self.len(), other.len(), "length mismatch");
        debug_assert!(
            self.params.all_reduced(other),
            "add_assign_slice given an unreduced value"
        );
        for (a, &b) in self.values.iter_mut().zip(other.iter()) {
            *a = self.params.add_reduced(*a, b);
        }
    }

    /// Element-wise sum, returning a new vector.
    ///
    /// # Panics
    ///
    /// Panics on length or group mismatch.
    pub fn add(&self, other: &GroupVec) -> GroupVec {
        self.zip_with(other, GroupParams::add_reduced)
    }

    /// Element-wise in-place subtraction.
    ///
    /// # Panics
    ///
    /// Panics on length or group mismatch.
    pub fn sub_assign(&mut self, other: &GroupVec) {
        assert_eq!(self.params, other.params, "group mismatch");
        assert_eq!(self.len(), other.len(), "length mismatch");
        for (a, &b) in self.values.iter_mut().zip(other.values.iter()) {
            *a = self.params.sub_reduced(*a, b);
        }
    }

    /// Element-wise difference, returning a new vector.
    ///
    /// # Panics
    ///
    /// Panics on length or group mismatch.
    pub fn sub(&self, other: &GroupVec) -> GroupVec {
        self.zip_with(other, GroupParams::sub_reduced)
    }

    /// A new vector of `op(self[i], other[i])`, built in one walk.
    fn zip_with(&self, other: &GroupVec, op: impl Fn(&GroupParams, u64, u64) -> u64) -> GroupVec {
        assert_eq!(self.params, other.params, "group mismatch");
        assert_eq!(self.len(), other.len(), "length mismatch");
        let values = self
            .values
            .iter()
            .zip(other.values.iter())
            .map(|(&a, &b)| op(&self.params, a, b))
            .collect();
        GroupVec {
            params: self.params,
            values,
        }
    }

    /// Serialized size in bytes (used by the boundary-cost accounting):
    /// 8 bytes per element.
    pub(crate) fn byte_len(&self) -> usize {
        self.values.len() * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_sub_inverse() {
        let params = GroupParams::new(1000);
        let a = GroupVec::from_values(params, vec![1, 999, 500, 0]);
        let b = GroupVec::from_values(params, vec![999, 2, 600, 123]);
        let sum = a.add(&b);
        assert_eq!(sum.values(), &[0, 1, 100, 123]);
        assert_eq!(sum.sub(&b), a);
    }

    #[test]
    fn values_reduced_on_construction() {
        let params = GroupParams::new(10);
        let v = GroupVec::from_values(params, vec![10, 11, 25]);
        assert_eq!(v.values(), &[0, 1, 5]);
    }

    #[test]
    fn z2_32_no_overflow_on_many_additions() {
        let params = GroupParams::z2_32();
        let near_max = (1u64 << 32) - 1;
        let mut acc = GroupVec::zeros(params, 3);
        let v = GroupVec::from_values(params, vec![near_max, near_max, near_max]);
        for _ in 0..1000 {
            acc.add_assign(&v);
        }
        // 1000 * (2^32 - 1) mod 2^32 = -1000 mod 2^32
        assert_eq!(acc.values()[0], (1u64 << 32) - 1000);
    }

    #[test]
    fn moduli_above_two_to_the_63_do_not_overflow() {
        // Two reduced elements of such a group can sum past 2^64; the
        // reduction has to see the carry.
        for n in [(1u64 << 63) + 1, u64::MAX] {
            let params = GroupParams::new(n);
            let wide = |v: u128| (v % n as u128) as u64;
            for (a, b) in [(n - 1, n - 1), (n - 1, 1), (n - 1, 0), (1 << 63, 1 << 63)] {
                let (a, b) = (params.reduce(a), params.reduce(b));
                assert_eq!(params.add(a, b), wide(a as u128 + b as u128), "{a} + {b}");
                assert_eq!(
                    params.sub(a, b),
                    wide(n as u128 + a as u128 - b as u128),
                    "{a} - {b}"
                );
                assert_eq!(params.add(params.sub(a, b), b), a);
            }
            let mut acc = GroupVec::from_values(params, vec![n - 1, 5]);
            acc.add_assign(&GroupVec::from_values(params, vec![n - 1, n - 5]));
            assert_eq!(acc.values(), &[n - 2, 0]);
            acc.sub_assign(&GroupVec::from_values(params, vec![n - 1, 1]));
            assert_eq!(acc.values(), &[n - 1, n - 1]);
        }
    }

    #[test]
    fn power_of_two_reduction_is_a_mask() {
        for shift in [1u32, 32, 40, 63] {
            let params = GroupParams::new(1u64 << shift);
            for v in [0u64, 1, (1 << shift) - 1, 1 << shift, u64::MAX] {
                assert_eq!(params.reduce(v), v % (1u64 << shift));
            }
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "unreduced value")]
    fn add_assign_slice_rejects_unreduced_input_in_debug() {
        let params = GroupParams::new(7);
        let mut a = GroupVec::zeros(params, 2);
        a.add_assign_slice(&[1, 7]);
    }

    #[test]
    fn associativity_and_commutativity() {
        let params = GroupParams::new(251);
        let a = GroupVec::from_values(params, vec![7, 13]);
        let b = GroupVec::from_values(params, vec![250, 100]);
        let c = GroupVec::from_values(params, vec![33, 249]);
        assert_eq!(a.add(&b), b.add(&a));
        assert_eq!(a.add(&b).add(&c), a.add(&b.add(&c)));
    }

    #[test]
    #[should_panic(expected = "group mismatch")]
    fn mismatched_groups_panic() {
        let a = GroupVec::zeros(GroupParams::new(7), 2);
        let b = GroupVec::zeros(GroupParams::new(11), 2);
        let _ = a.add(&b);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_panic() {
        let params = GroupParams::new(7);
        let a = GroupVec::zeros(params, 2);
        let b = GroupVec::zeros(params, 3);
        let _ = a.add(&b);
    }

    #[test]
    fn from_reduced_matches_from_values_on_reduced_input() {
        let params = GroupParams::new(1000);
        let raw = vec![0u64, 1, 999, 500];
        assert_eq!(
            GroupVec::from_reduced(params, raw.clone()),
            GroupVec::from_values(params, raw)
        );
    }

    #[test]
    fn add_assign_slice_matches_add_assign() {
        let params = GroupParams::new(97);
        let mut a = GroupVec::from_values(params, vec![10, 96, 0]);
        let mut b = a.clone();
        let other = GroupVec::from_values(params, vec![90, 1, 96]);
        a.add_assign(&other);
        b.add_assign_slice(other.values());
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn add_assign_slice_length_mismatch_panics() {
        let params = GroupParams::new(7);
        let mut a = GroupVec::zeros(params, 2);
        a.add_assign_slice(&[1, 2, 3]);
    }

    #[test]
    fn byte_len_accounting() {
        let v = GroupVec::zeros(GroupParams::z2_32(), 100);
        assert_eq!(v.byte_len(), 800);
    }
}
