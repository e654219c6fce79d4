//! Fixed-width big unsigned integers with modular arithmetic.
//!
//! The Diffie–Hellman exchange between clients and the Trusted Secure
//! Aggregator (Appendix A.1 of the PAPAYA paper) needs modular exponentiation
//! over a large prime group.  This module provides a small, from-scratch,
//! constant-width big-integer type [`Uint`] and a [`Montgomery`] context that
//! performs efficient `a^e mod n` for odd moduli.
//!
//! The context has two multiplication bodies and the modulus picks one.  A
//! modulus `2^256 − c` with `c < 2^64`, the simulator's group, multiplies
//! on four limbs and reduces by folding the high half by `c`, because
//! `2^256 ≡ c`; its residues need no Montgomery form.  Every other odd
//! modulus, the 2048-bit RFC 3526 group among them, runs CIOS Montgomery
//! multiplication at the width the modulus occupies.  The fold replaces the
//! reduction half of a multiply, not just some of its limb products, which
//! is why the simulator's group has its own body.  Both return the unique
//! residue in `[0, n)`, and the window loops of every exponentiation are
//! written once, over both.
//!
//! Widths are expressed in 64-bit limbs via const generics; `U2048`
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
pub(crate) type U2048 = Uint<32>;
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
    pub(crate) const ZERO: Self = Uint { limbs: [0u64; N] };

    /// The value 1.
    pub(crate) fn one() -> Self {
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
    pub(crate) fn write_be_bytes(&self, out: &mut [u8]) {
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
    pub(crate) fn from_hex(s: &str) -> Self {
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
    pub(crate) fn is_zero(&self) -> bool {
        self.limbs.iter().all(|&l| l == 0)
    }

    /// Returns true if the value is odd.
    pub(crate) fn is_odd(&self) -> bool {
        self.limbs[0] & 1 == 1
    }

    /// Returns the index of the highest set bit, or `None` for zero.
    pub(crate) fn highest_bit(&self) -> Option<usize> {
        for (i, limb) in self.limbs.iter().enumerate().rev() {
            if *limb != 0 {
                return Some(i * 64 + 63 - limb.leading_zeros() as usize);
            }
        }
        None
    }

    /// Returns bit `i` (little-endian bit order).
    pub(crate) fn bit(&self, i: usize) -> bool {
        if i >= N * 64 {
            return false;
        }
        (self.limbs[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Returns 4-bit window `w` (bits `4w..4w+4`; windows never straddle a
    /// limb boundary since 64 is a multiple of 4).
    #[inline(always)]
    pub(crate) fn window4(&self, w: usize) -> u64 {
        let bit = w * 4;
        if bit >= N * 64 {
            return 0;
        }
        (self.limbs[bit / 64] >> (bit % 64)) & 0xf
    }

    /// Compares two values.
    pub(crate) fn cmp_value(&self, other: &Self) -> Ordering {
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
    pub(crate) fn add_mod(&self, other: &Self, modulus: &Self) -> Self {
        let (sum, carry) = self.overflowing_add(other);
        if carry || sum.cmp_value(modulus) != Ordering::Less {
            sum.overflowing_sub(modulus).0
        } else {
            sum
        }
    }

    /// Modular doubling.
    pub(crate) fn double_mod(&self, modulus: &Self) -> Self {
        self.add_mod(self, modulus)
    }

    /// Reduces `self` modulo `modulus` (general, bit-by-bit; used only at
    /// setup time, not in hot loops).
    pub(crate) fn reduce(&self, modulus: &Self) -> Self {
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

/// Modular arithmetic context for an odd modulus: multiplication and
/// exponentiation `a^e mod n`.
///
/// [`Montgomery::new`] picks one of two multiplication bodies from the
/// modulus alone:
///
/// - **The special form.** A four-limb modulus `2^256 − c` with `c < 2^64`,
///   which is the secp256k1 field prime of the simulator's Diffie–Hellman
///   group ([`crate::dh::DhGroup::test_group_256`]).  A multiply is a 4×4
///   schoolbook product and a square a 10-product squaring.  Because
///   `2^256 ≡ c`, the 512-bit result is reduced by folding its high half
///   twice by `c`, then by a final carry and one conditional subtraction.
///   Folding by a constant that fits in one limb costs a fraction of a
///   Montgomery reduction, which is half of every CIOS multiply.  Residues
///   stay in plain form, so entering and leaving the body are identities.
/// - **CIOS Montgomery multiplication** for every other odd modulus: the
///   2048-bit RFC 3526 group, small test primes, any width.  It runs at the
///   modulus's *active* width `w ≤ N`, the number of limbs the modulus
///   occupies, read at run time, so a narrow modulus in a wide `Uint`
///   costs `w`-limb products.
///
/// Both bodies return the unique residue in `[0, n)`, so a result does not
/// depend on which body computed it.  Every CIOS field is kept for a
/// special-form modulus too; the tests compare the two bodies through it.
#[derive(Clone, Debug)]
pub struct Montgomery<const N: usize> {
    /// The modulus's CIOS body, run when it has no special form.
    cios: Cios<N>,
    /// The special-form body, when the modulus is `2^256 − c`.
    fold: Option<Fold>,
}

/// One multiplication body.  It keeps residues as `W`-limb arrays in its
/// own representation; every operand is below the modulus, and every
/// result is too.  The window loops are written once, over this trait.
trait Body<const W: usize> {
    /// The representation of 1.
    fn one(&self) -> [u64; W];
    /// The representation of a reduced value.
    fn enter(&self, a: &[u64; W]) -> [u64; W];
    /// The value a representation stands for.
    fn leave(&self, a: &[u64; W]) -> [u64; W];
    /// The product of two representations.
    fn mul(&self, a: &[u64; W], b: &[u64; W]) -> [u64; W];
    /// The square of a representation.
    fn sqr(&self, a: &[u64; W]) -> [u64; W];

    /// `a * b mod n` for reduced `a` and `b`.
    fn mul_mod<const N: usize>(&self, a: &Uint<N>, b: &Uint<N>) -> Uint<N> {
        let product = self.mul(&self.enter(&narrow(a)), &self.enter(&narrow(b)));
        widen(&self.leave(&product))
    }

    /// `base^exponent mod n` for a reduced `base`, by a fixed 4-bit window
    /// read left to right: a multiply per nonzero window on top of the
    /// squarings, instead of one per set bit.
    fn pow<const N: usize, const E: usize>(&self, base: &Uint<N>, exponent: &Uint<E>) -> Uint<N> {
        // powers[d - 1] = base^d, d = 1..=15.
        let mut powers = [self.enter(&narrow(base)); 15];
        for d in 1..15 {
            powers[d] = self.mul(&powers[d - 1], &powers[0]);
        }
        let top_window = exponent.highest_bit().map_or(0, |h| h / 4);
        let mut acc = self.one();
        for window in (0..=top_window).rev() {
            if window != top_window {
                for _ in 0..4 {
                    acc = self.sqr(&acc);
                }
            }
            let digit = exponent.window4(window);
            if digit != 0 {
                acc = self.mul(&acc, &powers[digit as usize - 1]);
            }
        }
        widen(&self.leave(&acc))
    }

    /// The fixed-base table of a reduced `base` over `windows` 4-bit
    /// windows: entry `i * 15 + (d - 1)` is `base^(d * 16^i)`.
    fn precompute<const N: usize>(&self, base: &Uint<N>, windows: usize) -> FixedBase<N> {
        let mut table = Vec::with_capacity(windows * 15 * W);
        // window_base = base^(16^i).
        let mut window_base = self.enter(&narrow(base));
        for i in 0..windows {
            if i > 0 {
                for _ in 0..4 {
                    window_base = self.sqr(&window_base);
                }
            }
            let mut acc = window_base;
            table.extend_from_slice(&acc);
            for _ in 1..15 {
                acc = self.mul(&acc, &window_base);
                table.extend_from_slice(&acc);
            }
        }
        FixedBase {
            table,
            stride: W,
            windows,
        }
    }

    /// `base^exponent mod n` against a table from
    /// [`precompute`](Body::precompute): one multiply per nonzero window
    /// and no squarings.
    fn pow_fixed<const N: usize, const E: usize>(
        &self,
        base: &FixedBase<N>,
        exponent: &Uint<E>,
    ) -> Uint<N> {
        assert_eq!(
            base.stride, W,
            "fixed-base table was built for another modulus"
        );
        let mut acc = self.one();
        let mut entry = [0u64; W];
        for window in 0..base.windows {
            let digit = exponent.window4(window);
            if digit != 0 {
                let at = (window * 15 + digit as usize - 1) * W;
                entry.copy_from_slice(&base.table[at..at + W]);
                acc = self.mul(&acc, &entry);
            }
        }
        widen(&self.leave(&acc))
    }
}

/// The low `W` limbs of `x`.
fn narrow<const N: usize, const W: usize>(x: &Uint<N>) -> [u64; W] {
    let mut out = [0u64; W];
    out.copy_from_slice(&x.limbs[..W]);
    out
}

/// `W` limbs zero-extended to the storage width.
fn widen<const N: usize, const W: usize>(x: &[u64; W]) -> Uint<N> {
    let mut limbs = [0u64; N];
    limbs[..W].copy_from_slice(x);
    Uint { limbs }
}

/// CIOS (coarsely integrated operand scanning) Montgomery multiplication
/// at the modulus's active width, on storage-width arrays.  Residues are
/// in Montgomery form `a R mod n`, `R = 2^(64 w)`.
#[derive(Clone, Debug)]
struct Cios<const N: usize> {
    modulus: Uint<N>,
    /// Number of significant limbs of the modulus; all arithmetic and the
    /// Montgomery radix use this width.
    active: usize,
    /// `-modulus^{-1} mod 2^64`.
    n0_inv: u64,
    /// `R^2 mod modulus`.
    r2: Uint<N>,
    /// `R mod modulus` (the Montgomery form of 1).
    r1: Uint<N>,
}

impl<const N: usize> Cios<N> {
    /// # Panics
    ///
    /// Panics if `modulus` is zero.
    fn new(modulus: Uint<N>) -> Self {
        #[expect(
            clippy::expect_used,
            reason = "documented panic: Montgomery construction requires a non-zero odd modulus (asserted by the caller)"
        )]
        let active = modulus.highest_bit().expect("modulus must be non-zero") / 64 + 1;
        let n0_inv = inv_mod_2_64(modulus.limbs[0]).wrapping_neg();

        // r1 = 2^(64 w) mod modulus, computed by repeated modular doubling
        // of 1.  The radix must match the active width `cios` runs at, or
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
        Cios {
            modulus,
            active,
            n0_inv,
            r2,
            r1,
        }
    }
}

impl<const N: usize> Body<N> for Cios<N> {
    fn one(&self) -> [u64; N] {
        self.r1.limbs
    }

    fn enter(&self, a: &[u64; N]) -> [u64; N] {
        self.mul(a, &self.r2.limbs)
    }

    fn leave(&self, a: &[u64; N]) -> [u64; N] {
        // A Montgomery product with 1 converts back out of Montgomery form.
        self.mul(a, &Uint::<N>::one().limbs)
    }

    fn mul(&self, a: &[u64; N], b: &[u64; N]) -> [u64; N] {
        cios(self.active, a, b, &self.modulus.limbs, self.n0_inv)
    }

    fn sqr(&self, a: &[u64; N]) -> [u64; N] {
        self.mul(a, a)
    }
}

/// CIOS Montgomery multiplication: returns `a * b * 2^(-64 w) mod n` for
/// reduced `a` and `b`, computed on the low `w` limbs of `N`-limb arrays
/// (limbs `w..N` of every operand must be zero, and stay zero in the
/// result).  The two overflow limbs of the accumulator are held in scalars.
#[expect(
    clippy::needless_range_loop,
    reason = "index style keeps the CIOS carry chains legible across `t`, `a`, `b`"
)]
#[inline(always)]
fn cios<const N: usize>(
    w: usize,
    a: &[u64; N],
    b: &[u64; N],
    n: &[u64; N],
    n0_inv: u64,
) -> [u64; N] {
    assert!(0 < w && w <= N, "active width exceeds the array width");
    let mut t = [0u64; N];
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

/// The special-form body for the modulus `p = 2^256 − c`, `0 < c < 2^64`:
/// plain residues on four limbs, reduced by folding by `c`.
#[derive(Clone, Copy, Debug)]
struct Fold {
    c: u64,
}

impl Fold {
    /// The body for `modulus` if it is `2^256 − c` with `c < 2^64`: limbs
    /// 1 to 3 all ones and nothing above them.  The modulus is odd, so its
    /// low limb is nonzero and `c` is its two's complement.
    fn of<const N: usize>(modulus: &Uint<N>) -> Option<Self> {
        let limbs = &modulus.limbs;
        let special = N >= 4
            && limbs[1..4].iter().all(|&l| l == u64::MAX)
            && limbs[4..].iter().all(|&l| l == 0);
        special.then(|| Fold {
            c: limbs[0].wrapping_neg(),
        })
    }

    /// The residue in `[0, p)` of the 512-bit `t` (little-endian limbs).
    #[inline(always)]
    fn reduce(&self, t: &[u64; 8]) -> [u64; 4] {
        let c = self.c as u128;
        // First fold: lo + hi * c, below 2^320; its fifth limb is `top`.
        let mut r = [0u64; 4];
        let mut top = 0u128;
        for i in 0..4 {
            let sum = t[i] as u128 + t[i + 4] as u128 * c + top;
            r[i] = sum as u64;
            top = sum >> 64;
        }
        // Second fold: r + top * c, below 2^256 + 2^128.
        let (r, carried) = add_wide(&r, top * c);
        let (plus_c, at_least_p) = add_wide(&r, c);
        if carried || at_least_p {
            // A final carry out of the second fold is worth c again; it
            // left r below 2^128, so r + c is below p.  Otherwise r < 2^256
            // < 2p, and r ≥ p exactly when r + c carries out of 256 bits:
            // the low 256 bits of r + c are then r − p.
            plus_c
        } else {
            r
        }
    }
}

/// `r + x` for `x ≤ (2^64 − 1)^2`, and whether it carried out of 256 bits.
#[inline(always)]
fn add_wide(r: &[u64; 4], x: u128) -> ([u64; 4], bool) {
    let mut out = [0u64; 4];
    let mut carry = x;
    for (o, limb) in out.iter_mut().zip(r) {
        let sum = *limb as u128 + carry;
        *o = sum as u64;
        carry = sum >> 64;
    }
    (out, carry != 0)
}

impl Body<4> for Fold {
    fn one(&self) -> [u64; 4] {
        [1, 0, 0, 0]
    }

    fn enter(&self, a: &[u64; 4]) -> [u64; 4] {
        *a
    }

    fn leave(&self, a: &[u64; 4]) -> [u64; 4] {
        *a
    }

    /// 4×4 schoolbook product, then [`Fold::reduce`].
    #[inline(always)]
    fn mul(&self, a: &[u64; 4], b: &[u64; 4]) -> [u64; 4] {
        let mut t = [0u64; 8];
        for i in 0..4 {
            let mut carry = 0u128;
            for j in 0..4 {
                let sum = t[i + j] as u128 + a[i] as u128 * b[j] as u128 + carry;
                t[i + j] = sum as u64;
                carry = sum >> 64;
            }
            t[i + 4] = carry as u64;
        }
        self.reduce(&t)
    }

    /// The six cross products once, doubled by a one-bit shift, plus the
    /// four squares: ten limb products where [`mul`](Body::mul) takes
    /// sixteen.
    #[inline(always)]
    fn sqr(&self, a: &[u64; 4]) -> [u64; 4] {
        let mut t = [0u64; 8];
        for i in 0..3 {
            let mut carry = 0u128;
            for j in i + 1..4 {
                let sum = t[i + j] as u128 + a[i] as u128 * a[j] as u128 + carry;
                t[i + j] = sum as u64;
                carry = sum >> 64;
            }
            t[i + 4] = carry as u64;
        }
        for k in (1..8).rev() {
            t[k] = t[k] << 1 | t[k - 1] >> 63;
        }
        let mut carry = 0u128;
        for i in 0..4 {
            let square = a[i] as u128 * a[i] as u128;
            let sum = t[2 * i] as u128 + (square as u64) as u128 + carry;
            t[2 * i] = sum as u64;
            let sum = t[2 * i + 1] as u128 + (square >> 64) + (sum >> 64);
            t[2 * i + 1] = sum as u64;
            carry = sum >> 64;
        }
        self.reduce(&t)
    }
}

impl<const N: usize> Montgomery<N> {
    /// Creates a context for the given odd modulus, with the body the
    /// modulus's form picks.
    ///
    /// # Panics
    ///
    /// Panics if `modulus` is even or zero.
    pub fn new(modulus: Uint<N>) -> Self {
        assert!(
            modulus.is_odd(),
            "Montgomery arithmetic requires an odd modulus"
        );
        Montgomery {
            cios: Cios::new(modulus),
            fold: Fold::of(&modulus),
        }
    }

    /// `a` reduced below the modulus.
    fn reduced(&self, a: &Uint<N>) -> Uint<N> {
        a.reduce(&self.cios.modulus)
    }

    /// Modular multiplication `a * b mod modulus`; operands at or above the
    /// modulus are reduced first.
    pub fn mul_mod(&self, a: &Uint<N>, b: &Uint<N>) -> Uint<N> {
        let (a, b) = (self.reduced(a), self.reduced(b));
        match &self.fold {
            Some(fold) => fold.mul_mod(&a, &b),
            None => self.cios.mul_mod(&a, &b),
        }
    }

    /// Modular exponentiation `base^exponent mod modulus` using a fixed
    /// 4-bit window (left-to-right): ~w/4 windowed multiplies instead of
    /// one per set bit, on top of the w squarings.
    pub fn pow_mod<const E: usize>(&self, base: &Uint<N>, exponent: &Uint<E>) -> Uint<N> {
        let base = self.reduced(base);
        match &self.fold {
            Some(fold) => fold.pow(&base, exponent),
            None => self.cios.pow(&base, exponent),
        }
    }

    /// Builds a fixed-base window table for repeated exponentiations of the
    /// same `base` with exponents up to `exp_bits` bits.  Costs ~18 modular
    /// multiplications per 4-bit window to build; each subsequent
    /// [`pow_mod_fixed`](Montgomery::pow_mod_fixed) then needs at most one
    /// multiplication per window and **no squarings** — ~6x cheaper than
    /// [`pow_mod`](Montgomery::pow_mod) for 256-bit exponents.  Worth it
    /// from roughly four exponentiations on the same base.
    pub(crate) fn precompute_base(&self, base: &Uint<N>, exp_bits: usize) -> FixedBase<N> {
        let base = self.reduced(base);
        let windows = exp_bits.div_ceil(4);
        match &self.fold {
            Some(fold) => fold.precompute(&base, windows),
            None => self.cios.precompute(&base, windows),
        }
    }

    /// Fixed-base exponentiation against a table from
    /// [`precompute_base`](Montgomery::precompute_base).  Bit-identical to
    /// [`pow_mod`](Montgomery::pow_mod) on the same base.
    ///
    /// # Panics
    ///
    /// Panics if the exponent has set bits beyond the table's `exp_bits`, or
    /// if the table was built by a context whose body keeps residues at
    /// another width.
    pub(crate) fn pow_mod_fixed<const E: usize>(
        &self,
        base: &FixedBase<N>,
        exponent: &Uint<E>,
    ) -> Uint<N> {
        assert!(
            exponent.highest_bit().map_or(0, |h| h / 4 + 1) <= base.windows,
            "exponent exceeds the precomputed window count"
        );
        match &self.fold {
            Some(fold) => fold.pow_fixed(base, exponent),
            None => self.cios.pow_fixed(base, exponent),
        }
    }
}

/// A precomputed 4-bit fixed-base window table: the powers
/// `base^(d * 16^i)` for every window `i` and nonzero digit `d`, in the
/// representation of the body that built it, by
/// [`Montgomery::precompute_base`].  Exponentiation against it
/// ([`Montgomery::pow_mod_fixed`]) needs no squarings at all, which is what
/// makes per-epoch bases (a group generator, a TSA epoch key) cheap to
/// exponentiate thousands of times.
///
/// Entries are stored back to back at the width the owning body keeps
/// residues at: four limbs for a special-form modulus, so the table of the
/// simulator's 256-bit group is 30 KiB whatever the storage width of its
/// [`Uint`]; the storage width for a CIOS modulus.
#[derive(Clone, Debug)]
pub(crate) struct FixedBase<const N: usize> {
    /// Entry `i * 15 + (d - 1)`, `stride` limbs long, is `base^(d * 16^i)`.
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
        // The DH module embeds the 256-bit test group in a Uint<32>; its
        // special form must agree with a natively 4-limb context's.
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
        // mul_mod takes raw (possibly unreduced) operands; values at or
        // above the modulus must be reduced before the active-width CIOS
        // multiply converts them into Montgomery form.
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

    /// The secp256k1 field prime `2^256 − c`, `c = 2^32 + 977`, in the
    /// storage width the Diffie–Hellman module uses.
    fn special_form() -> (Montgomery<32>, Fold) {
        let ctx = Montgomery::new(U2048::from_hex(P256));
        let fold = ctx.fold.expect("2^256 - c takes the special form");
        assert_eq!(fold.c, (1 << 32) + 977);
        (ctx, fold)
    }

    /// The special form against the run-time-width CIOS body of the same
    /// modulus, which is what any modulus without a special form runs: a
    /// product, a square, an exponentiation and a fixed-base
    /// exponentiation must agree limb for limb.
    fn special_form_agrees_with_run_time_width(
        a: &U2048,
        b: &U2048,
        e: &U256,
    ) -> Result<(), TestCaseError> {
        let (ctx, fold) = special_form();
        let cios = &ctx.cios;
        prop_assert_eq!(cios.active, 4);
        let (a, b) = (ctx.reduced(a), ctx.reduced(b));
        prop_assert_eq!(fold.mul_mod(&a, &b), cios.mul_mod(&a, &b));
        let a4: [u64; 4] = narrow(&a);
        prop_assert_eq!(
            widen::<32, 4>(&fold.sqr(&a4)),
            Uint::from_limbs(cios.leave(&cios.sqr(&cios.enter(&a.limbs))))
        );
        prop_assert_eq!(fold.sqr(&a4), fold.mul(&a4, &a4));
        let by_cios = cios.pow(&a, e);
        prop_assert_eq!(ctx.pow_mod(&a, e), by_cios);
        let table = ctx.precompute_base(&a, 256);
        prop_assert_eq!(table.stride, 4);
        prop_assert_eq!(ctx.pow_mod_fixed(&table, e), by_cios);
        Ok(())
    }

    /// [`Fold::reduce`] of a 512-bit value against bit-by-bit reduction.
    fn fold_reduces_like_uint(fold: &Fold, t: [u64; 8]) -> Result<(), TestCaseError> {
        let p = Uint::<8>::from_hex(P256);
        let expected = Uint::<8>::from_limbs(t).reduce(&p);
        prop_assert_eq!(widen::<8, 4>(&fold.reduce(&t)), expected, "t = {:?}", t);
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn special_form_matches_run_time_width(
            a in any::<[u64; 4]>(), b in any::<[u64; 4]>(), e in any::<[u64; 4]>(),
            t in any::<[u64; 8]>(),
        ) {
            special_form_agrees_with_run_time_width(
                &widen(&a), &widen(&b), &U256::from_limbs(e),
            )?;
            fold_reduces_like_uint(&special_form().1, t)?;
        }
    }

    #[test]
    fn special_form_edge_operands_reach_every_branch_of_the_fold() {
        let (ctx, fold) = special_form();
        let p = U2048::from_hex(P256);
        let minus = |k: u64| p.overflowing_sub(&U2048::from_u64(k)).0;
        let all_ones = U2048::from_hex(&"f".repeat(64));
        // (2^256 − 1) / 3: times 3 it is 2^256 − 1, a product with a zero
        // high half whose low half is at least p.
        let third = U2048::from_hex(&"5".repeat(64));
        let operands = [
            U2048::ZERO,
            U2048::one(),
            U2048::from_u64(3),
            third,
            minus(2),
            minus(1),
        ];
        let exponents = [
            U256::ZERO,
            U256::one(),
            U256::from_u64(2),
            U256::from_hex(&"f".repeat(64)),
        ];
        for a in &operands {
            for b in &operands {
                special_form_agrees_with_run_time_width(a, b, &U256::from_u64(0xdead_beef))
                    .unwrap();
            }
            for e in &exponents {
                special_form_agrees_with_run_time_width(a, a, e).unwrap();
            }
        }
        assert_eq!(
            ctx.mul_mod(&U2048::from_u64(3), &third),
            U2048::from_u64(fold.c - 1),
            "2^256 − 1 ≡ c − 1 needs the conditional subtraction"
        );
        // Inputs in [p, 2^256) are reduced on entry.
        let five = U2048::from_u64(5);
        let e = U256::from_u64(65_537);
        for above in [p, p.overflowing_add(&five).0, all_ones] {
            let low = above.reduce(&p);
            assert_eq!(ctx.pow_mod(&above, &e), ctx.pow_mod(&low, &e));
            assert_eq!(ctx.mul_mod(&above, &five), ctx.mul_mod(&low, &five));
        }
        // The fold itself, on 512-bit values: p − 1 and p (no high half),
        // 2^256 − 1 (the conditional subtraction), (p − 1)^2 (the largest
        // product of reduced operands), and high halves of all ones, where
        // the second fold carries out and takes the final carry.
        let m = u64::MAX;
        let p_limbs = narrow::<32, 4>(&p);
        let p_minus_1 = narrow::<32, 4>(&minus(1));
        let mut square = [0u64; 8];
        for i in 0..4 {
            let mut carry = 0u128;
            for j in 0..4 {
                let sum =
                    square[i + j] as u128 + p_minus_1[i] as u128 * p_minus_1[j] as u128 + carry;
                square[i + j] = sum as u64;
                carry = sum >> 64;
            }
            square[i + 4] = carry as u64;
        }
        for t in [
            [0; 8],
            [1, 0, 0, 0, 0, 0, 0, 0],
            [p_minus_1[0], m, m, m, 0, 0, 0, 0],
            [p_limbs[0], m, m, m, 0, 0, 0, 0],
            [m, m, m, m, 0, 0, 0, 0],
            square,
            [0, 0, 0, 0, m, m, m, m],
            [m; 8],
        ] {
            fold_reduces_like_uint(&fold, t).unwrap();
        }
        let c_squared_minus_1 = (fold.c as u128).pow(2) - 1;
        assert_eq!(
            fold.reduce(&[m; 8]),
            [
                c_squared_minus_1 as u64,
                (c_squared_minus_1 >> 64) as u64,
                0,
                0
            ],
            "2^512 − 1 ≡ c² − 1"
        );
    }

    #[test]
    fn special_form_known_answers() {
        // 5^e mod p, computed by the fixed-width CIOS body this form
        // replaced.
        let (ctx, _) = special_form();
        let five = U2048::from_u64(5);
        for (e, expected) in [
            ("3", "7d"),
            (
                "10001",
                "49e7a38858dddf318e0a1c7d14308670f8aae78f3dcfefa3de2584ded340a16e",
            ),
            (
                "123456789abcdef0fedcba9876543210aa55aa55aa55aa550123456789abcdef",
                "a2ece4bfe55324b5c9210500d50e2e583c582e19a15097ebe4621715fb71c9fc",
            ),
            // (p − 1) / 2: 5 is not a square mod p.
            (
                "7fffffffffffffffffffffffffffffffffffffffffffffffffffffff7ffffe17",
                "fffffffffffffffffffffffffffffffffffffffffffffffffffffffefffffc2e",
            ),
            // p − 2: the inverse of 5.
            (
                "fffffffffffffffffffffffffffffffffffffffffffffffffffffffefffffc2d",
                "99999999999999999999999999999999999999999999999999999998fffffdb6",
            ),
            (
                "ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff",
                "39b0ac0df15233177d413295e9f5f3bd0f9c7a79f50b874c0fbea90d1f41d50c",
            ),
        ] {
            let e = U256::from_hex(e);
            let expected = U2048::from_hex(expected);
            assert_eq!(ctx.pow_mod(&five, &e), expected, "5^{e}");
            let table = ctx.precompute_base(&five, 256);
            assert_eq!(ctx.pow_mod_fixed(&table, &e), expected, "5^{e} by table");
        }
    }

    #[test]
    #[ignore = "2^22 triples, about 30 s in release: run with --release -- --ignored"]
    fn special_form_sweep_of_2_pow_22_triples() {
        let (ctx, fold) = special_form();
        let cios = &ctx.cios;
        let mut rng = crate::chacha20::ChaCha20Rng::from_seed([22u8; 32]);
        let mut draw = || -> [u64; 4] { core::array::from_fn(|_| rng.next_u64()) };
        for _ in 0..1 << 22 {
            let (a, b) = (draw(), draw());
            let e = Uint::<1>::from_u64(draw()[0]);
            let (a, b) = (ctx.reduced(&widen(&a)), ctx.reduced(&widen(&b)));
            let a4: [u64; 4] = narrow(&a);
            assert_eq!(fold.mul_mod(&a, &b), cios.mul_mod(&a, &b), "{a} * {b}");
            assert_eq!(
                widen::<32, 4>(&fold.sqr(&a4)),
                cios.mul_mod(&a, &a),
                "{a}^2"
            );
            assert_eq!(fold.pow(&a, &e), cios.pow(&a, &e), "{a}^{e}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// A one-limb prime has no special form: the run-time-width CIOS
        /// body is all it runs, checked against 128-bit arithmetic.
        #[test]
        fn one_limb_prime_matches_u128_arithmetic(
            a in any::<u64>(), b in any::<u64>(), e in any::<u64>(),
        ) {
            const P: u64 = 0xffff_ffff_ffff_ffc5; // 2^64 - 59
            let ctx = Montgomery::new(U2048::from_u64(P));
            prop_assert_eq!(ctx.cios.active, 1);
            prop_assert!(ctx.fold.is_none());
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
