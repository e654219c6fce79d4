//! `f32` `exp`, `tanh` and `ln` built from IEEE 754 basic operations only.
//!
//! IEEE 754 fixes `+ − × ÷` bit for bit, but not `exp` or `tanh`: `f32::exp`
//! is whatever the host's libm returns, and glibc, musl and Apple's libm
//! differ in the last bits.  These functions use basic arithmetic,
//! comparisons, selects and bit reinterpretation and nothing else — no
//! `mul_add`, whose fused rounding a host may lack, and no `round` or
//! `floor`, which are libm calls on baseline x86-64 — so the bits they
//! return are a property of this source, the same on every host.  Every
//! function states its error against the correctly rounded result in units
//! in the last place (ulp); `tests/math.rs` checks the bound over every
//! finite input of the function's unsaturated range, in release.
//!
//! `exp` and `tanh` are branch-free — clamps and selects, not `if`s on the
//! argument — so a loop that calls them can be vectorised.

/// `1.5 · 2^23`: adding it to an `f32` below `2^22` in magnitude leaves no
/// fraction bits, so `(y + ROUNDER) − ROUNDER` is `y` rounded to the
/// nearest integer, ties to even.
const ROUNDER: f32 = 12_582_912.0;

/// `ln 2` in two parts.  `LN_2_HI` has 15 significant bits, so `n · LN_2_HI`
/// is exact for every integer `|n| < 2^9`; `LN_2_LO` is the rest, rounded.
const LN_2_HI: f32 = f32::from_bits(0x3f31_7200);
const LN_2_LO: f32 = f32::from_bits(0x35bf_be8e);

/// `2^-26`: below it `1 + x` is within half an ulp of 1.
const EXP_IS_ONE_BELOW: f32 = 1.0 / 67_108_864.0;

/// `2^-13`: below it `x − x³/3` is within a quarter ulp of `x`.
const TANH_IS_X_BELOW: f32 = 1.0 / 8192.0;

/// `2^k` for `−126 ≤ k ≤ 127`, built from its bits.
fn pow2(k: i32) -> f32 {
    f32::from_bits(((k + 127) as u32) << 23)
}

/// `e^x`, within 1 ulp of the correctly rounded result for every finite
/// `x`.  Saturates to `+∞` from 88.72284 up and to `0.0` from −103.972084
/// down; `exp(NaN)` is NaN.
///
/// Cody–Waite reduction: `x = n·ln 2 + r` with `n` the nearest integer to
/// `x·log2 e` and `|r| ≲ ½ ln 2`; `e^r` by its Taylor polynomial to degree
/// 7; then the product with `2^n`, taken as two normal powers of two so
/// that a subnormal result is rounded once, by the second product.
#[inline]
pub fn exp(x: f32) -> f32 {
    // Past these bounds the result has already saturated, and inside them
    // both halves of `2^n` are normal.  `clamp` keeps a NaN.  Below 2^-26
    // in magnitude `e^x` rounds to 1, which `x = 0` gives without the
    // underflowing products a tiny `r` would cost.
    let x = if x.abs() < EXP_IS_ONE_BELOW {
        0.0
    } else {
        x.clamp(-104.0, 89.0)
    };
    let shifted = x * std::f32::consts::LOG2_E + ROUNDER;
    let n = shifted - ROUNDER;
    // `x − n·LN_2_HI` is exact: `n·LN_2_HI` is, and it lies within a factor
    // of two of `x`.
    let r = (x - n * LN_2_HI) - n * LN_2_LO;
    let p = 1.0
        + r * (1.0
            + r * (1.0 / 2.0
                + r * (1.0 / 6.0
                    + r * (1.0 / 24.0
                        + r * (1.0 / 120.0 + r * (1.0 / 720.0 + r * (1.0 / 5040.0)))))));
    // `n` as an integer: the low bits of `shifted`.
    let k = shifted.to_bits() as i32 - ROUNDER.to_bits() as i32;
    let half = k >> 1;
    p * pow2(half) * pow2(k - half)
}

/// `tanh x`, within 2 ulp of the correctly rounded result for every finite
/// `x`.  Exactly odd, `±1.0` from `|x| = 9.010914` up, `tanh(NaN)` is NaN.
///
/// `1 − 2/(e^{2|x|} + 1)` with the sign of `x` copied back; below |x| = ½,
/// where that difference would cancel, the odd Taylor polynomial through
/// `x^13`.  Both are computed and one is selected.
#[inline]
pub fn tanh(x: f32) -> f32 {
    let a = x.abs();
    let large = 1.0 - 2.0 / (exp(2.0 * a) + 1.0);
    // Below 2^-13, `tanh x` rounds to `x`.  The polynomial is evaluated at
    // no less than that, where none of its products underflows: on x86 an
    // underflowing product costs a microcode assist of a hundred cycles.
    let p = a.max(TANH_IS_X_BELOW);
    let z = p * p;
    let small = p + p
        * (z * (-1.0 / 3.0
            + z * (2.0 / 15.0
                + z * (-17.0 / 315.0
                    + z * (62.0 / 2835.0
                        + z * (-1382.0 / 155_925.0 + z * (21_844.0 / 6_081_075.0)))))));
    let magnitude = if a < TANH_IS_X_BELOW {
        a
    } else if a < 0.5 {
        small
    } else {
        large
    };
    magnitude.copysign(x)
}

/// `ln x`, within 1 ulp of the correctly rounded result for every positive
/// finite `x`, subnormals included.  `ln 0.0` is `−∞`, `ln ∞` is `∞`, and
/// a negative `x` or NaN gives NaN.
///
/// `x = 2^k · m` with `m` in `[√2/2, √2)`; for `f = m − 1` (exact) and
/// `s = f/(2 + f)`, `ln m = 2 atanh s = f − f²/2 + s·(f²/2 + R)` with
/// `R = (2/3)s² + (2/5)s⁴ + (2/7)s⁶ + (2/9)s⁸`, and `k·ln 2` is added in
/// two parts.
pub fn ln(x: f32) -> f32 {
    // Subnormals are scaled by 2^25 into the normal range first.
    let subnormal = x < f32::MIN_POSITIVE;
    let scaled = if subnormal { x * 33_554_432.0 } else { x };
    // Offset the bits so that the exponent field rounds `m` into
    // `[√2/2, √2)`: 0x3f35_04f3 is √2/2.
    let bits = scaled.to_bits().wrapping_add(0x3f80_0000 - 0x3f35_04f3);
    let k = (bits >> 23) as i32 - 127 - if subnormal { 25 } else { 0 };
    let m = f32::from_bits((bits & 0x007f_ffff) + 0x3f35_04f3);
    let f = m - 1.0;
    let s = f / (2.0 + f);
    let z = s * s;
    let r = z * (2.0 / 3.0 + z * (2.0 / 5.0 + z * (2.0 / 7.0 + z * (2.0 / 9.0))));
    let half_f2 = 0.5 * f * f;
    let k = k as f32;
    let y = k * LN_2_HI - ((half_f2 - (s * (half_f2 + r) + k * LN_2_LO)) - f);
    if x > 0.0 && x < f32::INFINITY {
        y
    } else if x == 0.0 {
        f32::NEG_INFINITY
    } else if x == f32::INFINITY {
        x
    } else {
        f32::NAN
    }
}
