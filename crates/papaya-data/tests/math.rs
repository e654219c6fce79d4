//! `papaya_data::math` against `f64` std rounded to `f32`.
//!
//! The sweeps visit every finite `f32` of a function's unsaturated range —
//! about two billion inputs each — and assert the ulp bound its doc comment
//! states.  They are split across all available threads and run only
//! without debug assertions: `cargo test --release -p papaya-data`.  The
//! special values, the saturation boundaries and the subnormal cases run in
//! every profile.

use papaya_data::math::{exp, ln, tanh};
use std::ops::RangeInclusive;
use std::sync::atomic::{AtomicU64, Ordering};

/// The largest `x` whose `exp` is finite; the next `f32` overflows.
const EXP_LAST_FINITE: u32 = 0x42b1_7217;
/// The most negative `x` whose `exp` is not zero; the next `f32` underflows.
const EXP_LAST_NONZERO: u32 = 0xc2cf_f1b4;
/// The largest `x` whose `tanh` is below `1.0`.
const TANH_LAST_BELOW_ONE: u32 = 0x4110_2cb3;

/// Position of `x` among the `f32`s ordered by value: neighbours differ by
/// one, and `±0.0` share position 0.
fn ordinal(x: f32) -> i64 {
    let magnitude = (x.to_bits() & 0x7fff_ffff) as i64;
    if x.is_sign_negative() {
        -magnitude
    } else {
        magnitude
    }
}

fn ulps(a: f32, b: f32) -> u64 {
    ordinal(a).abs_diff(ordinal(b))
}

/// The largest `error(x)` over the `f32`s whose bit patterns lie in `bits`,
/// and an `x` where it occurs.  Threads take blocks of 2^20 patterns from a
/// shared counter, so a slow stretch of the reference does not leave one
/// thread behind the others.
fn sweep(bits: RangeInclusive<u32>, error: impl Fn(f32) -> u64 + Sync) -> (u64, f32) {
    const BLOCK: u64 = 1 << 20;
    let (first, last) = (*bits.start() as u64, *bits.end() as u64);
    let next = AtomicU64::new(first);
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut worst = (0, f32::NAN);
                    loop {
                        let start = next.fetch_add(BLOCK, Ordering::Relaxed);
                        if start > last {
                            return worst;
                        }
                        for pattern in start..=(start + BLOCK - 1).min(last) {
                            let x = f32::from_bits(pattern as u32);
                            let e = error(x);
                            if e > worst.0 {
                                worst = (e, x);
                            }
                        }
                    }
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|worker| worker.join().expect("sweep thread panicked"))
            .max_by_key(|&(e, _)| e)
            .expect("at least one thread")
    })
}

fn exp_error(x: f32) -> u64 {
    ulps(exp(x), (x as f64).exp() as f32)
}

#[test]
#[cfg_attr(debug_assertions, ignore = "about 2^31 inputs: run with --release")]
fn exp_is_within_one_ulp_over_its_unsaturated_range() {
    for range in [0..=EXP_LAST_FINITE, 0x8000_0000..=EXP_LAST_NONZERO] {
        let (worst, at) = sweep(range.clone(), exp_error);
        assert!(worst <= 1, "exp({at:e}) is {worst} ulp off over {range:x?}");
    }
}

#[test]
#[cfg_attr(debug_assertions, ignore = "about 2^30 inputs: run with --release")]
fn tanh_is_odd_and_within_two_ulp_over_its_unsaturated_range() {
    let (worst, at) = sweep(0..=TANH_LAST_BELOW_ONE, |x| {
        let y = tanh(x);
        assert_eq!(tanh(-x).to_bits(), (-y).to_bits(), "tanh(-{x:e})");
        ulps(y, (x as f64).tanh() as f32)
    });
    assert!(worst <= 2, "tanh({at:e}) is {worst} ulp off");
}

#[test]
#[cfg_attr(debug_assertions, ignore = "about 2^31 inputs: run with --release")]
fn ln_is_within_one_ulp_over_every_positive_finite_input() {
    let (worst, at) = sweep(1..=f32::MAX.to_bits(), |x| {
        ulps(ln(x), (x as f64).ln() as f32)
    });
    assert!(worst <= 1, "ln({at:e}) is {worst} ulp off");
}

#[test]
fn special_values() {
    let nan = f32::NAN;
    let inf = f32::INFINITY;
    for f in [exp, tanh, ln] {
        assert!(f(nan).is_nan());
        assert!(f(-nan).is_nan());
    }
    assert_eq!(exp(inf), inf);
    assert_eq!(exp(-inf).to_bits(), 0);
    assert_eq!(exp(0.0), 1.0);
    assert_eq!(exp(-0.0), 1.0);
    assert_eq!(tanh(inf), 1.0);
    assert_eq!(tanh(-inf), -1.0);
    assert_eq!(tanh(0.0).to_bits(), 0.0f32.to_bits());
    assert_eq!(tanh(-0.0).to_bits(), (-0.0f32).to_bits());
    assert_eq!(ln(inf), inf);
    assert_eq!(ln(0.0), -inf);
    assert_eq!(ln(-0.0), -inf);
    assert_eq!(ln(1.0).to_bits(), 0.0f32.to_bits());
    for negative in [-f32::MIN_POSITIVE, -1.0, -f32::MAX, -inf] {
        assert!(ln(negative).is_nan(), "ln({negative})");
    }
}

#[test]
fn saturation_boundaries() {
    let exp_last_finite = f32::from_bits(EXP_LAST_FINITE);
    let exp_first_infinite = f32::from_bits(EXP_LAST_FINITE + 1);
    assert!(exp(exp_last_finite).is_finite());
    assert!(exp_error(exp_last_finite) <= 1);
    for x in [exp_first_infinite, 89.0, 1e3, f32::MAX] {
        assert_eq!(exp(x), f32::INFINITY, "exp({x})");
        assert_eq!((x as f64).exp() as f32, f32::INFINITY, "reference exp({x})");
    }

    let exp_last_nonzero = f32::from_bits(EXP_LAST_NONZERO);
    let exp_first_zero = f32::from_bits(EXP_LAST_NONZERO + 1);
    assert_eq!(exp(exp_last_nonzero).to_bits(), 1, "the smallest subnormal");
    for x in [exp_first_zero, -104.0, -1e3, f32::MIN] {
        assert_eq!(exp(x).to_bits(), 0, "exp({x})");
        assert_eq!((x as f64).exp() as f32, 0.0, "reference exp({x})");
    }

    let tanh_last = f32::from_bits(TANH_LAST_BELOW_ONE);
    assert!(tanh(tanh_last) < 1.0);
    assert!(ulps(tanh(tanh_last), (tanh_last as f64).tanh() as f32) <= 2);
    for x in [
        f32::from_bits(TANH_LAST_BELOW_ONE + 1),
        9.5,
        44.0,
        45.0,
        f32::MAX,
    ] {
        assert_eq!(tanh(x), 1.0, "tanh({x})");
        assert_eq!(tanh(-x), -1.0, "tanh(-{x})");
        assert_eq!((x as f64).tanh() as f32, 1.0, "reference tanh({x})");
    }
}

#[test]
fn subnormal_inputs_and_outputs() {
    // exp below ln(MIN_POSITIVE) ≈ −87.34 is subnormal: rounded once.
    for x in [-87.5f32, -90.0, -95.25, -100.0, -103.0, -103.9] {
        let y = exp(x);
        assert!(y > 0.0 && y < f32::MIN_POSITIVE, "exp({x}) = {y:e}");
        assert!(exp_error(x) <= 1, "exp({x})");
    }
    // ln of subnormal inputs, down to the smallest.
    for bits in [1u32, 2, 3, 0x10_0000, 0x7f_ffff] {
        let x = f32::from_bits(bits);
        assert!(ulps(ln(x), (x as f64).ln() as f32) <= 1, "ln({x:e})");
    }
}
