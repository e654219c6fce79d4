//! Fixed-width big unsigned integers with Montgomery modular arithmetic.
//!
//! The Diffie–Hellman exchange between clients and the Trusted Secure
//! Aggregator (Appendix A.1 of the PAPAYA paper) needs modular exponentiation
//! over a large prime group.  This module provides a small, from-scratch,
//! constant-width big-integer type [`Uint`] and a [`Montgomery`] context that
//! performs efficient `a^e mod n` for odd moduli.
//!
//! Widths are expressed in 64-bit limbs via const generics; [`U2048`]
//! (32 limbs) is the width used by the RFC 3526 group 14 modulus, and
//! [`U256`] (4 limbs) is used by the fast test group.

use std::cmp::Ordering;
use std::fmt;

/// Fixed-width little-endian (limb order) unsigned integer with `N` 64-bit limbs.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Uint<const N: usize> {
    /// Limbs in little-endian order: `limbs[0]` is the least significant.
    limbs: [u64; N],
}

/// 2048-bit unsigned integer (32 limbs).
pub type U2048 = Uint<32>;
/// 256-bit unsigned integer (4 limbs).
pub type U256 = Uint<4>;

impl<const N: usize> fmt::Debug for Uint<N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "0x")?;
        let mut started = false;
        for limb in self.limbs.iter().rev() {
            if started {
                write!(f, "{limb:016x}")?;
            } else if *limb != 0 {
                write!(f, "{limb:x}")?;
                started = true;
            }
        }
        if !started {
            write!(f, "0")?;
        }
        Ok(())
    }
}

impl<const N: usize> fmt::Display for Uint<N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

impl<const N: usize> Default for Uint<N> {
    fn default() -> Self {
        Self::ZERO
    }
}

impl<const N: usize> Uint<N> {
    /// The value 0.
    pub const ZERO: Self = Uint { limbs: [0u64; N] };

    /// The value 1.
    pub fn one() -> Self {
        let mut limbs = [0u64; N];
        limbs[0] = 1;
        Uint { limbs }
    }

    /// Constructs from little-endian limbs.
    pub fn from_limbs(limbs: [u64; N]) -> Self {
        Uint { limbs }
    }

    /// Returns the little-endian limbs.
    pub fn limbs(&self) -> &[u64; N] {
        &self.limbs
    }

    /// Constructs from a `u64`.
    pub fn from_u64(v: u64) -> Self {
        let mut limbs = [0u64; N];
        limbs[0] = v;
        Uint { limbs }
    }

    /// Parses a big-endian byte slice.  Bytes beyond the width are an error.
    ///
    /// # Panics
    ///
    /// Panics if `bytes.len() > N * 8`.
    pub fn from_be_bytes(bytes: &[u8]) -> Self {
        assert!(
            bytes.len() <= N * 8,
            "byte slice of length {} does not fit in {} limbs",
            bytes.len(),
            N
        );
        let mut limbs = [0u64; N];
        for (i, b) in bytes.iter().rev().enumerate() {
            limbs[i / 8] |= (*b as u64) << ((i % 8) * 8);
        }
        Uint { limbs }
    }

    /// Serializes to big-endian bytes (`N * 8` bytes, zero padded).
    pub fn to_be_bytes(&self) -> Vec<u8> {
        let mut out = vec![0u8; N * 8];
        self.write_be_bytes(&mut out);
        out
    }

    /// Writes the big-endian serialization into `out` without allocating.
    ///
    /// # Panics
    ///
    /// Panics if `out` is not exactly `N * 8` bytes long.
    pub fn write_be_bytes(&self, out: &mut [u8]) {
        assert_eq!(out.len(), N * 8, "output must be the serialized width");
        for (chunk, limb) in out.chunks_exact_mut(8).zip(self.limbs.iter().rev()) {
            chunk.copy_from_slice(&limb.to_be_bytes());
        }
    }

    /// Parses a hexadecimal string (no `0x` prefix, whitespace ignored).
    ///
    /// # Panics
    ///
    /// Panics on non-hex characters or if the value does not fit.
    pub fn from_hex(s: &str) -> Self {
        let cleaned: String = s.chars().filter(|c| !c.is_whitespace()).collect();
        assert!(cleaned.len() <= N * 16, "hex string too long for width");
        let mut bytes = Vec::with_capacity(cleaned.len().div_ceil(2));
        let padded = if cleaned.len() % 2 == 1 {
            format!("0{cleaned}")
        } else {
            cleaned
        };
        for i in (0..padded.len()).step_by(2) {
            #[expect(
                clippy::expect_used,
                reason = "documented panic: from_hex is a test/constant helper whose contract rejects non-hex input"
            )]
            bytes.push(u8::from_str_radix(&padded[i..i + 2], 16).expect("invalid hex digit"));
        }
        Self::from_be_bytes(&bytes)
    }

    /// Returns true if the value is zero.
    pub fn is_zero(&self) -> bool {
        self.limbs.iter().all(|&l| l == 0)
    }

    /// Returns true if the value is odd.
    pub fn is_odd(&self) -> bool {
        self.limbs[0] & 1 == 1
    }

    /// Returns the index of the highest set bit, or `None` for zero.
    pub fn highest_bit(&self) -> Option<usize> {
        for (i, limb) in self.limbs.iter().enumerate().rev() {
            if *limb != 0 {
                return Some(i * 64 + 63 - limb.leading_zeros() as usize);
            }
        }
        None
    }

    /// Returns bit `i` (little-endian bit order).
    pub fn bit(&self, i: usize) -> bool {
        if i >= N * 64 {
            return false;
        }
        (self.limbs[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Returns 4-bit window `w` (bits `4w..4w+4`; windows never straddle a
    /// limb boundary since 64 is a multiple of 4).
    #[inline]
    pub fn window4(&self, w: usize) -> u64 {
        let bit = w * 4;
        if bit >= N * 64 {
            return 0;
        }
        (self.limbs[bit / 64] >> (bit % 64)) & 0xf
    }

    /// Compares two values.
    pub fn cmp_value(&self, other: &Self) -> Ordering {
        for i in (0..N).rev() {
            match self.limbs[i].cmp(&other.limbs[i]) {
                Ordering::Equal => continue,
                ord => return ord,
            }
        }
        Ordering::Equal
    }

    /// Adds, returning the result and the carry-out.
    #[expect(
        clippy::needless_range_loop,
        reason = "index style keeps the carry chain legible across the three arrays"
    )]
    pub fn overflowing_add(&self, other: &Self) -> (Self, bool) {
        let mut out = [0u64; N];
        let mut carry = 0u64;
        for i in 0..N {
            let (s1, c1) = self.limbs[i].overflowing_add(other.limbs[i]);
            let (s2, c2) = s1.overflowing_add(carry);
            out[i] = s2;
            carry = (c1 as u64) + (c2 as u64);
        }
        (Uint { limbs: out }, carry != 0)
    }

    /// Subtracts, returning the result and the borrow-out.
    #[expect(
        clippy::needless_range_loop,
        reason = "index style keeps the borrow chain legible across the three arrays"
    )]
    pub fn overflowing_sub(&self, other: &Self) -> (Self, bool) {
        let mut out = [0u64; N];
        let mut borrow = 0u64;
        for i in 0..N {
            let (d1, b1) = self.limbs[i].overflowing_sub(other.limbs[i]);
            let (d2, b2) = d1.overflowing_sub(borrow);
            out[i] = d2;
            borrow = (b1 as u64) + (b2 as u64);
        }
        (Uint { limbs: out }, borrow != 0)
    }

    /// Modular addition `(self + other) mod modulus`, assuming both operands
    /// are already reduced.
    pub fn add_mod(&self, other: &Self, modulus: &Self) -> Self {
        let (sum, carry) = self.overflowing_add(other);
        if carry || sum.cmp_value(modulus) != Ordering::Less {
            sum.overflowing_sub(modulus).0
        } else {
            sum
        }
    }

    /// Modular doubling.
    pub fn double_mod(&self, modulus: &Self) -> Self {
        self.add_mod(self, modulus)
    }

    /// Reduces `self` modulo `modulus` (general, bit-by-bit; used only at
    /// setup time, not in hot loops).
    pub fn reduce(&self, modulus: &Self) -> Self {
        assert!(!modulus.is_zero(), "modulus must be non-zero");
        if self.cmp_value(modulus) == Ordering::Less {
            return *self;
        }
        let mut result = Self::ZERO;
        let highest = match self.highest_bit() {
            Some(h) => h,
            None => return Self::ZERO,
        };
        for i in (0..=highest).rev() {
            result = result.double_mod(modulus);
            if self.bit(i) {
                result = result.add_mod(&Self::one(), modulus);
            }
        }
        result
    }
}

impl<const N: usize> PartialOrd for Uint<N> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<const N: usize> Ord for Uint<N> {
    fn cmp(&self, other: &Self) -> Ordering {
        self.cmp_value(other)
    }
}

/// Montgomery-form modular arithmetic context for an odd modulus.
///
/// Supports modular multiplication and exponentiation in `O(w^2)` limb
/// operations per multiplication using the CIOS method, where `w ≤ N` is the
/// number of limbs the modulus actually occupies.  Arithmetic runs at the
/// modulus's *active* width, so a 256-bit group embedded in a `Uint<32>`
/// costs 4-limb multiplications, not 32-limb ones.
///
/// The width the simulator's Diffie–Hellman group uses (4 limbs, 256 bits)
/// runs the multiplication body with the width as a compile-time constant on
/// `[u64; 4]` arrays; every other width, the 2048-bit RFC 3526 group's
/// included, runs the same body on storage-width arrays with the width read
/// at run time.  The choice is made from the modulus alone.
#[derive(Clone, Debug)]
pub struct Montgomery<const N: usize> {
    modulus: Uint<N>,
    /// Number of significant limbs of the modulus; all arithmetic and the
    /// Montgomery radix use this width.
    active: usize,
    /// `-modulus^{-1} mod 2^64`.
    n0_inv: u64,
    /// `R^2 mod modulus` where `R = 2^(64 w)` and `w` is the active width.
    r2: Uint<N>,
    /// `R mod modulus` (the Montgomery form of 1).
    r1: Uint<N>,
}

/// CIOS (coarsely integrated operand scanning) Montgomery multiplication:
/// returns `a * b * 2^(-64 w) mod n` for reduced `a` and `b`, computed on the
/// low `w` limbs of `W`-limb arrays (limbs `w..W` of every operand must be
/// zero, and stay zero in the result).  The two overflow limbs of the
/// accumulator are held in scalars.
///
/// This is the only multiplication body in the module.  It is
/// `#[inline(always)]` so that a caller passing `w` as a literal gets
/// constant loop bounds and an accumulator the compiler can keep in
/// registers; a caller passing the modulus's run-time width gets the general
/// loop.  Both compute the same limbs.
#[expect(
    clippy::needless_range_loop,
    reason = "index style keeps the CIOS carry chains legible across `t`, `a`, `b`"
)]
#[inline(always)]
fn cios<const W: usize>(
    w: usize,
    a: &[u64; W],
    b: &[u64; W],
    n: &[u64; W],
    n0_inv: u64,
) -> [u64; W] {
    assert!(0 < w && w <= W, "active width exceeds the array width");
    let mut t = [0u64; W];
    let mut t_hi = 0u64; // t[w]
    let mut t_hi2; // t[w + 1]; assigned each iteration before use
    for i in 0..w {
        // t += a[i] * b
        let mut carry = 0u128;
        for j in 0..w {
            let sum = t[j] as u128 + (a[i] as u128) * (b[j] as u128) + carry;
            t[j] = sum as u64;
            carry = sum >> 64;
        }
        let sum = t_hi as u128 + carry;
        t_hi = sum as u64;
        t_hi2 = (sum >> 64) as u64;

        // m = t[0] * n0_inv mod 2^64
        let m = t[0].wrapping_mul(n0_inv);
        // t += m * n; then shift right one limb.
        let sum = t[0] as u128 + (m as u128) * (n[0] as u128);
        let mut carry = sum >> 64;
        for j in 1..w {
            let sum = t[j] as u128 + (m as u128) * (n[j] as u128) + carry;
            t[j - 1] = sum as u64;
            carry = sum >> 64;
        }
        let sum = t_hi as u128 + carry;
        t[w - 1] = sum as u64;
        t_hi = t_hi2 + ((sum >> 64) as u64);
    }
    // One conditional subtraction brings the result below the modulus.
    let mut at_least_n = true;
    for j in (0..w).rev() {
        if t[j] != n[j] {
            at_least_n = t[j] > n[j];
            break;
        }
    }
    if t_hi != 0 || at_least_n {
        let mut borrow = false;
        for j in 0..w {
            let (d, b1) = t[j].overflowing_sub(n[j]);
            let (d, b2) = d.overflowing_sub(borrow as u64);
            t[j] = d;
            borrow = b1 | b2;
        }
    }
    t
}

/// The low `W` limbs of `x`, for handing to [`cios`].
fn narrow<const N: usize, const W: usize>(x: &Uint<N>) -> [u64; W] {
    let mut out = [0u64; W];
    out.copy_from_slice(&x.limbs[..W]);
    out
}

/// The value 1 on `W` limbs: multiplying by it converts out of Montgomery
/// form.
fn one<const W: usize>() -> [u64; W] {
    let mut out = [0u64; W];
    out[0] = 1;
    out
}

/// `W` limbs zero-extended back to the storage width.
fn widen<const N: usize, const W: usize>(x: &[u64; W]) -> Uint<N> {
    let mut limbs = [0u64; N];
    limbs[..W].copy_from_slice(x);
    Uint { limbs }
}

impl<const N: usize> Montgomery<N> {
    /// Creates a context for the given odd modulus.
    ///
    /// # Panics
    ///
    /// Panics if `modulus` is even or zero.
    pub fn new(modulus: Uint<N>) -> Self {
        assert!(
            modulus.is_odd(),
            "Montgomery arithmetic requires an odd modulus"
        );
        #[expect(
            clippy::expect_used,
            reason = "documented panic: Montgomery construction requires a non-zero odd modulus (asserted above)"
        )]
        let active = modulus.highest_bit().expect("modulus must be non-zero") / 64 + 1;
        let n0_inv = inv_mod_2_64(modulus.limbs[0]).wrapping_neg();

        // r1 = 2^(64 w) mod modulus, computed by repeated modular doubling
        // of 1.  The radix must match the active width mont_mul runs at, or
        // every conversion in and out of Montgomery form would be off by a
        // power of two.
        let mut r1 = Uint::<N>::one().reduce(&modulus);
        for _ in 0..(64 * active) {
            r1 = r1.double_mod(&modulus);
        }
        // r2 = 2^(128 w) mod modulus = r1 doubled 64 w more times.
        let mut r2 = r1;
        for _ in 0..(64 * active) {
            r2 = r2.double_mod(&modulus);
        }
        Montgomery {
            modulus,
            active,
            n0_inv,
            r2,
            r1,
        }
    }

    /// Returns the modulus.
    pub fn modulus(&self) -> &Uint<N> {
        &self.modulus
    }

    /// Width of the arrays this context's arithmetic runs on: the active
    /// width where it has the fixed-width instantiation, the storage width
    /// otherwise.  Fixed-base tables are laid out at this stride.
    fn array_width(&self) -> usize {
        match self.active {
            4 => self.active,
            _ => N,
        }
    }

    /// Converts into Montgomery form.  Operands at or above the modulus are
    /// reduced first: active-width multiplication requires both inputs'
    /// limbs beyond the modulus width to be zero.
    pub fn to_mont(&self, a: &Uint<N>) -> Uint<N> {
        if a.cmp_value(&self.modulus) == Ordering::Less {
            self.mont_mul(a, &self.r2)
        } else {
            self.mont_mul(&a.reduce(&self.modulus), &self.r2)
        }
    }

    /// Converts out of Montgomery form.
    pub fn from_mont(&self, a: &Uint<N>) -> Uint<N> {
        self.mont_mul(a, &Uint::one())
    }

    /// Montgomery multiplication: returns `a * b * R^{-1} mod modulus`.
    ///
    /// Both operands must be reduced (below the modulus); every caller in
    /// this module guarantees it.  Runs at the modulus's active width `w`:
    /// only the low `w` limbs participate.
    pub fn mont_mul(&self, a: &Uint<N>, b: &Uint<N>) -> Uint<N> {
        match self.active {
            4 => self.mul_at::<4>(4, a, b),
            w => self.mul_at::<N>(w, a, b),
        }
    }

    #[inline(always)]
    fn mul_at<const W: usize>(&self, w: usize, a: &Uint<N>, b: &Uint<N>) -> Uint<N> {
        let n = narrow::<N, W>(&self.modulus);
        widen(&cios(w, &narrow(a), &narrow(b), &n, self.n0_inv))
    }

    /// Modular multiplication `a * b mod modulus` for ordinary (non-Montgomery)
    /// operands.
    pub fn mul_mod(&self, a: &Uint<N>, b: &Uint<N>) -> Uint<N> {
        let am = self.to_mont(a);
        let bm = self.to_mont(b);
        self.from_mont(&self.mont_mul(&am, &bm))
    }

    /// Modular exponentiation `base^exponent mod modulus` using a fixed
    /// 4-bit window over Montgomery form (left-to-right): ~w/4 windowed
    /// multiplies instead of one per set bit, on top of the w squarings.
    pub fn pow_mod<const E: usize>(&self, base: &Uint<N>, exponent: &Uint<E>) -> Uint<N> {
        match self.active {
            4 => self.pow_at::<4, E>(4, base, exponent),
            w => self.pow_at::<N, E>(w, base, exponent),
        }
    }

    /// [`pow_mod`](Montgomery::pow_mod) on `W`-limb arrays at active width
    /// `w`; operands are narrowed once on entry and the result widened once
    /// on exit, so the ~335 multiplications in between move `W` limbs each,
    /// not `N`.
    #[inline(always)]
    fn pow_at<const W: usize, const E: usize>(
        &self,
        w: usize,
        base: &Uint<N>,
        exponent: &Uint<E>,
    ) -> Uint<N> {
        let highest = match exponent.highest_bit() {
            Some(h) => h,
            None => return Uint::one().reduce(&self.modulus),
        };
        let n = narrow::<N, W>(&self.modulus);
        // powers[d - 1] = base^d in Montgomery form, d = 1..=15.
        let base_m = cios(
            w,
            &narrow(&base.reduce(&self.modulus)),
            &narrow(&self.r2),
            &n,
            self.n0_inv,
        );
        let mut powers = [base_m; 15];
        for d in 1..15 {
            powers[d] = cios(w, &powers[d - 1], &base_m, &n, self.n0_inv);
        }
        let mut acc: [u64; W] = narrow(&self.r1); // Montgomery form of 1.
        let top_window = highest / 4;
        for window in (0..=top_window).rev() {
            if window != top_window {
                for _ in 0..4 {
                    acc = cios(w, &acc, &acc, &n, self.n0_inv);
                }
            }
            let digit = exponent.window4(window);
            if digit != 0 {
                acc = cios(w, &acc, &powers[digit as usize - 1], &n, self.n0_inv);
            }
        }
        widen(&cios(w, &acc, &one(), &n, self.n0_inv))
    }

    /// Builds a fixed-base window table for repeated exponentiations of the
    /// same `base` with exponents up to `exp_bits` bits.  Costs ~18 modular
    /// multiplications per 4-bit window to build; each subsequent
    /// [`pow_mod_fixed`](Montgomery::pow_mod_fixed) then needs at most one
    /// multiplication per window and **no squarings** — ~6x cheaper than
    /// [`pow_mod`](Montgomery::pow_mod) for 256-bit exponents.  Worth it
    /// from roughly four exponentiations on the same base.
    pub fn precompute_base(&self, base: &Uint<N>, exp_bits: usize) -> FixedBase<N> {
        let windows = exp_bits.div_ceil(4);
        let stride = self.array_width();
        let mut table = Vec::with_capacity(windows * 15 * stride);
        // window_base = base^(16^i) in Montgomery form.
        let mut window_base = self.to_mont(&base.reduce(&self.modulus));
        for i in 0..windows {
            if i > 0 {
                for _ in 0..4 {
                    window_base = self.mont_mul(&window_base, &window_base);
                }
            }
            // Entry i * 15 + (d - 1) = base^(d * 16^i), d = 1..=15.
            let mut acc = window_base;
            table.extend_from_slice(&acc.limbs[..stride]);
            for _ in 1..15 {
                acc = self.mont_mul(&acc, &window_base);
                table.extend_from_slice(&acc.limbs[..stride]);
            }
        }
        FixedBase {
            table,
            stride,
            windows,
        }
    }

    /// Fixed-base exponentiation against a table from
    /// [`precompute_base`](Montgomery::precompute_base).  Bit-identical to
    /// [`pow_mod`](Montgomery::pow_mod) on the same base.
    ///
    /// # Panics
    ///
    /// Panics if the exponent has set bits beyond the table's `exp_bits`, or
    /// if the table was built by a context of another modulus width.
    pub fn pow_mod_fixed<const E: usize>(
        &self,
        base: &FixedBase<N>,
        exponent: &Uint<E>,
    ) -> Uint<N> {
        assert!(
            exponent.highest_bit().map_or(0, |h| h / 4 + 1) <= base.windows,
            "exponent exceeds the precomputed window count"
        );
        assert_eq!(
            base.stride,
            self.array_width(),
            "fixed-base table was built for another modulus width"
        );
        match self.active {
            4 => self.pow_fixed_at::<4, E>(4, base, exponent),
            w => self.pow_fixed_at::<N, E>(w, base, exponent),
        }
    }

    #[inline(always)]
    fn pow_fixed_at<const W: usize, const E: usize>(
        &self,
        w: usize,
        base: &FixedBase<N>,
        exponent: &Uint<E>,
    ) -> Uint<N> {
        let n = narrow::<N, W>(&self.modulus);
        let mut acc: [u64; W] = narrow(&self.r1); // Montgomery form of 1.
        let mut entry = [0u64; W];
        for window in 0..base.windows {
            let digit = exponent.window4(window);
            if digit != 0 {
                let at = (window * 15 + digit as usize - 1) * W;
                entry.copy_from_slice(&base.table[at..at + W]);
                acc = cios(w, &acc, &entry, &n, self.n0_inv);
            }
        }
        widen(&cios(w, &acc, &one(), &n, self.n0_inv))
    }
}

/// A precomputed 4-bit fixed-base window table: Montgomery-form powers
/// `base^(d * 16^i)` for every window `i` and nonzero digit `d`, built by
/// [`Montgomery::precompute_base`].  Exponentiation against it
/// ([`Montgomery::pow_mod_fixed`]) needs no squarings at all, which is what
/// makes per-epoch bases (a group generator, a TSA epoch key) cheap to
/// exponentiate thousands of times.
///
/// Entries are stored back to back at the width the owning context
/// multiplies at, so the table of a 256-bit group is 30 KiB whatever the
/// storage width of its [`Uint`].
#[derive(Clone, Debug)]
pub struct FixedBase<const N: usize> {
    /// Entry `i * 15 + (d - 1)`, `stride` limbs long, is `base^(d * 16^i)`
    /// in Montgomery form.
    table: Vec<u64>,
    /// Limbs per entry.
    stride: usize,
    /// Number of 4-bit exponent windows covered.
    windows: usize,
}

/// Computes the inverse of `a` modulo `2^64` for odd `a` (Newton iteration).
fn inv_mod_2_64(a: u64) -> u64 {
    debug_assert!(a & 1 == 1);
    let mut x = a; // correct to 3 bits
    for _ in 0..5 {
        x = x.wrapping_mul(2u64.wrapping_sub(a.wrapping_mul(x)));
    }
    debug_assert_eq!(a.wrapping_mul(x), 1);
    x
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn roundtrip_bytes() {
        let v = U256::from_hex("deadbeef00112233445566778899aabbccddeeff0102030405060708090a0b0c");
        let bytes = v.to_be_bytes();
        assert_eq!(U256::from_be_bytes(&bytes), v);
    }

    #[test]
    fn add_sub_inverse() {
        let a = U256::from_hex("ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff00");
        let b = U256::from_u64(0x12);
        let (sum, carry) = a.overflowing_add(&b);
        assert!(!carry);
        let (diff, borrow) = sum.overflowing_sub(&b);
        assert!(!borrow);
        assert_eq!(diff, a);
    }

    #[test]
    fn add_carries_across_limbs() {
        let a = U256::from_hex("ffffffffffffffff");
        let b = U256::from_u64(1);
        let (sum, carry) = a.overflowing_add(&b);
        assert!(!carry);
        assert_eq!(sum, U256::from_hex("10000000000000000"));
    }

    #[test]
    fn overflow_detected() {
        let max = U256::from_limbs([u64::MAX; 4]);
        let (_, carry) = max.overflowing_add(&U256::one());
        assert!(carry);
        let (_, borrow) = U256::ZERO.overflowing_sub(&U256::one());
        assert!(borrow);
    }

    #[test]
    fn reduce_small_modulus() {
        // 1000 mod 7 = 6
        let a = U256::from_u64(1000);
        let m = U256::from_u64(7);
        assert_eq!(a.reduce(&m), U256::from_u64(6));
    }

    #[test]
    fn inv_mod_2_64_works() {
        for a in [1u64, 3, 5, 0xffff_ffff_ffff_fff1, 0x1234_5679] {
            let inv = inv_mod_2_64(a);
            assert_eq!(a.wrapping_mul(inv), 1, "a = {a}");
        }
    }

    #[test]
    fn montgomery_small_prime() {
        // p = 101 (prime). Check multiplication table entries.
        let p = U256::from_u64(101);
        let ctx = Montgomery::new(p);
        for a in [0u64, 1, 2, 50, 100] {
            for b in [0u64, 1, 3, 99, 100] {
                let res = ctx.mul_mod(&U256::from_u64(a), &U256::from_u64(b));
                assert_eq!(res, U256::from_u64((a * b) % 101), "{a} * {b} mod 101");
            }
        }
    }

    #[test]
    fn montgomery_pow_matches_naive() {
        let p = U256::from_u64(1_000_000_007);
        let ctx = Montgomery::new(p);
        let base = U256::from_u64(123_456_789);
        let result = ctx.pow_mod(&base, &U256::from_u64(65_537));
        // Naive computation with u128 arithmetic.
        let mut acc: u128 = 1;
        let b: u128 = 123_456_789;
        let m: u128 = 1_000_000_007;
        let mut e = 65_537u32;
        let mut cur = b % m;
        while e > 0 {
            if e & 1 == 1 {
                acc = acc * cur % m;
            }
            cur = cur * cur % m;
            e >>= 1;
        }
        assert_eq!(result, U256::from_u64(acc as u64));
    }

    #[test]
    fn fermat_little_theorem_256bit() {
        // secp256k1 field prime: a^(p-1) = 1 mod p for a not divisible by p.
        let p = U256::from_hex("fffffffffffffffffffffffffffffffffffffffffffffffffffffffefffffc2f");
        let ctx = Montgomery::new(p);
        let p_minus_1 = p.overflowing_sub(&U256::one()).0;
        for a in [2u64, 3, 65_537, 0xdeadbeef] {
            let r = ctx.pow_mod(&U256::from_u64(a), &p_minus_1);
            assert_eq!(r, U256::one(), "a = {a}");
        }
    }

    #[test]
    fn pow_zero_exponent_is_one() {
        let p = U256::from_u64(97);
        let ctx = Montgomery::new(p);
        assert_eq!(ctx.pow_mod(&U256::from_u64(5), &U256::ZERO), U256::one());
    }

    #[test]
    #[should_panic(expected = "odd modulus")]
    fn even_modulus_rejected() {
        let _ = Montgomery::new(U256::from_u64(100));
    }

    #[test]
    fn narrow_modulus_in_wide_type_matches_narrow_type() {
        // The DH module embeds the 256-bit test group in a Uint<32>; the
        // active-width fast path must agree with a natively 4-limb context.
        let hex = "fffffffffffffffffffffffffffffffffffffffffffffffffffffffefffffc2f";
        let wide = Montgomery::new(U2048::from_hex(hex));
        let narrow = Montgomery::new(U256::from_hex(hex));
        for (a, e) in [(2u64, 65_537u64), (0xdeadbeef, 12_345), (3, u64::MAX)] {
            let rw = wide.pow_mod(&U2048::from_u64(a), &U2048::from_u64(e));
            let rn = narrow.pow_mod(&U256::from_u64(a), &U256::from_u64(e));
            assert_eq!(rw.to_be_bytes()[32 * 8 - 32..], rn.to_be_bytes()[..]);
        }
    }

    #[test]
    fn fixed_base_matches_pow_mod() {
        // The no-squaring fixed-base path must agree bit-for-bit with plain
        // square-and-multiply across exponent shapes (sparse, dense, tiny,
        // full-width) — the session handshake depends on the two paths being
        // interchangeable.
        let p = U256::from_hex("fffffffffffffffffffffffffffffffffffffffffffffffffffffffefffffc2f");
        let ctx = Montgomery::new(p);
        let base = U256::from_u64(5);
        let table = ctx.precompute_base(&base, 256);
        let exponents = [
            U256::ZERO,
            U256::one(),
            U256::from_u64(2),
            U256::from_u64(0xdead_beef),
            U256::from_u64(1 << 63),
            U256::from_hex("ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff"),
            U256::from_hex("8000000000000000000000000000000000000000000000000000000000000001"),
            U256::from_hex("123456789abcdef0fedcba9876543210aa55aa55aa55aa550123456789abcdef"),
        ];
        for e in exponents {
            assert_eq!(
                ctx.pow_mod_fixed(&table, &e),
                ctx.pow_mod(&base, &e),
                "e = {e}"
            );
        }
    }

    #[test]
    fn fixed_base_works_at_full_width() {
        let p = U2048::from_u64(1_000_000_007);
        let ctx = Montgomery::new(p);
        let base = U2048::from_u64(123_456_789);
        let table = ctx.precompute_base(&base, 64);
        let e = U2048::from_u64(65_537);
        assert_eq!(ctx.pow_mod_fixed(&table, &e), ctx.pow_mod(&base, &e));
    }

    #[test]
    #[should_panic(expected = "exceeds the precomputed window count")]
    fn fixed_base_rejects_oversized_exponents() {
        let p = U256::from_u64(97);
        let ctx = Montgomery::new(p);
        let table = ctx.precompute_base(&U256::from_u64(5), 8);
        let _ = ctx.pow_mod_fixed(&table, &U256::from_u64(1 << 9));
    }

    #[test]
    fn window4_extracts_nibbles() {
        let v = U256::from_hex("a1b2c3d4");
        assert_eq!(v.window4(0), 0x4);
        assert_eq!(v.window4(1), 0xd);
        assert_eq!(v.window4(6), 0x1);
        assert_eq!(v.window4(7), 0xa);
        assert_eq!(v.window4(8), 0);
        assert_eq!(v.window4(10_000), 0);
    }

    #[test]
    fn to_mont_reduces_oversized_operands() {
        // mul_mod feeds raw (possibly unreduced) operands through to_mont;
        // values at or above the modulus must be reduced before the
        // active-width multiply sees them.
        let p = U2048::from_u64(1_000_000_007);
        let ctx = Montgomery::new(p);
        let big = U2048::from_hex("ffffffffffffffffffffffffffffffff"); // 128 bits
        let expected = big.reduce(&p);
        let r = ctx.mul_mod(&big, &U2048::from_u64(1));
        assert_eq!(r, expected);
        let reduced: u128 = big
            .to_be_bytes()
            .iter()
            .fold(0u128, |acc, &b| (acc * 256 + b as u128) % 1_000_000_007);
        let r2 = ctx.mul_mod(&big, &big);
        assert_eq!(
            r2,
            U2048::from_u64((reduced * reduced % 1_000_000_007) as u64)
        );
    }

    const P256: &str = "fffffffffffffffffffffffffffffffffffffffffffffffffffffffefffffc2f";
    const RFC3526_2048: &str = "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD129024E088A67CC74\
         020BBEA63B139B22514A08798E3404DDEF9519B3CD3A431B302B0A6DF25F1437\
         4FE1356D6D51C245E485B576625E7EC6F44C42E9A637ED6B0BFF5CB6F406B7ED\
         EE386BFB5A899FA5AE9F24117C4B1FE649286651ECE45B3DC2007CB8A163BF05\
         98DA48361C55D39A69163FA8FD24CF5F83655D23DCA3AD961C62F356208552BB\
         9ED529077096966D670C354E4ABC9804F1746C08CA18217C32905E462E36CE3B\
         E39E772C180E86039B2783A2EC07A28FB5C55DF06F4C52C9DE2BCBF695581718\
         3995497CEA956AE515D2261898FA051015728E5A8AACAA68FFFFFFFFFFFFFFFF";

    /// The fixed-width instantiation the public entry points pick for
    /// `modulus`, against the run-time-width instantiation of the same body
    /// (what a modulus of any other width runs): every multiplication and
    /// exponentiation must agree limb for limb.
    fn fixed_width_agrees_with_run_time_width(
        modulus: U2048,
        a: [u64; 32],
        b: [u64; 32],
        e: [u64; 4],
    ) -> Result<(), TestCaseError> {
        let ctx = Montgomery::new(modulus);
        prop_assert_eq!(ctx.active, 4, "the fixed width");
        let a = U2048::from_limbs(a).reduce(&modulus);
        let b = U2048::from_limbs(b).reduce(&modulus);
        let e = U256::from_limbs(e);
        prop_assert_eq!(ctx.mont_mul(&a, &b), ctx.mul_at::<32>(ctx.active, &a, &b));
        let by_run_time_width = ctx.pow_at::<32, 4>(ctx.active, &a, &e);
        prop_assert_eq!(ctx.pow_mod(&a, &e), by_run_time_width);
        let table = ctx.precompute_base(&a, 256);
        prop_assert_eq!(ctx.pow_mod_fixed(&table, &e), by_run_time_width);
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        #[test]
        fn fixed_width_4_matches_run_time_width(
            a in any::<[u64; 4]>(), b in any::<[u64; 4]>(), e in any::<[u64; 4]>(),
        ) {
            let widen = |x: [u64; 4]| core::array::from_fn(|i| if i < 4 { x[i] } else { 0 });
            fixed_width_agrees_with_run_time_width(U2048::from_hex(P256), widen(a), widen(b), e)?;
        }

        /// A one-limb prime has no fixed-width instantiation: the run-time
        /// width is all it runs, checked against 128-bit arithmetic.
        #[test]
        fn one_limb_prime_matches_u128_arithmetic(
            a in any::<u64>(), b in any::<u64>(), e in any::<u64>(),
        ) {
            const P: u64 = 0xffff_ffff_ffff_ffc5; // 2^64 - 59
            let ctx = Montgomery::new(U2048::from_u64(P));
            prop_assert_eq!(ctx.active, 1);
            let (a, b) = (a % P, b % P);
            let mul = |x: u64, y: u64| (x as u128 * y as u128 % P as u128) as u64;
            prop_assert_eq!(
                ctx.mul_mod(&U2048::from_u64(a), &U2048::from_u64(b)),
                U2048::from_u64(mul(a, b))
            );
            let (mut acc, mut square) = (1u64, a);
            for bit in 0..64 {
                if e >> bit & 1 == 1 {
                    acc = mul(acc, square);
                }
                square = mul(square, square);
            }
            let exponent = U256::from_u64(e);
            prop_assert_eq!(ctx.pow_mod(&U2048::from_u64(a), &exponent), U2048::from_u64(acc));
            let table = ctx.precompute_base(&U2048::from_u64(a), 64);
            prop_assert_eq!(ctx.pow_mod_fixed(&table, &exponent), U2048::from_u64(acc));
        }
    }

    #[test]
    fn fermat_little_theorem_2048bit_group() {
        // RFC 3526 group 14 modulus at full 32-limb width: the w == N case
        // must be untouched by the active-width path.  A short exponent
        // keeps the test fast.
        let p = U2048::from_hex(RFC3526_2048);
        let ctx = Montgomery::new(p);
        // g^(2^20) via pow_mod against 20 iterated mul_mod squarings.
        let g = U2048::from_u64(2);
        let mut by_mul = g.reduce(&p);
        for _ in 0..20 {
            by_mul = ctx.mul_mod(&by_mul, &by_mul);
        }
        // Exponent 2^20: bit 20 set.
        let e = U2048::from_u64(1 << 20);
        assert_eq!(ctx.pow_mod(&g, &e), by_mul);
    }
}
