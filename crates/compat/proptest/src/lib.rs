//! Offline stand-in for the `proptest` crate.
//!
//! The workspace builds without registry access, so this crate reimplements
//! the subset of the proptest 1.x API its property tests use: the
//! [`proptest!`] macro (`pat in strategy` argument syntax, optional
//! `#![proptest_config(...)]`), range and [`any`] strategies,
//! [`collection::vec`], and the `prop_assert*`/[`prop_assume!`] macros.
//!
//! Unlike real proptest there is no shrinking and no failure persistence:
//! each test runs a fixed number of deterministically seeded random cases
//! (seeded from the test's name, so failures are reproducible).

#![forbid(unsafe_code)]

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::ops::{Range, RangeInclusive};

/// Per-test configuration.
#[derive(Clone, Debug)]
pub struct ProptestConfig {
    /// Number of random cases each property runs.
    pub cases: u32,
}

impl ProptestConfig {
    /// Configuration running `cases` random cases.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 64 }
    }
}

/// The RNG driving case generation.
pub type TestRng = StdRng;

/// Deterministic per-test generator, seeded from the test name.
pub fn test_rng(test_name: &str) -> TestRng {
    let mut seed: u64 = 0xcbf29ce484222325;
    for byte in test_name.bytes() {
        seed ^= byte as u64;
        seed = seed.wrapping_mul(0x100000001b3);
    }
    StdRng::seed_from_u64(seed)
}

/// Why a single test case did not pass.
#[derive(Debug)]
pub enum TestCaseError {
    /// The case was rejected by `prop_assume!` and should be skipped.
    Reject,
    /// An assertion failed.
    Fail(String),
}

impl TestCaseError {
    /// Creates a failure with a message.
    pub fn fail(message: impl Into<String>) -> Self {
        TestCaseError::Fail(message.into())
    }
}

/// A generator of random values of one type.
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Draws one value.
    fn sample(&self, rng: &mut TestRng) -> Self::Value;
}

impl<S: Strategy + ?Sized> Strategy for &S {
    type Value = S::Value;
    fn sample(&self, rng: &mut TestRng) -> Self::Value {
        (**self).sample(rng)
    }
}

macro_rules! range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
    )*};
}

range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f32, f64);

macro_rules! tuple_strategy {
    ($(($($name:ident),+)),+ $(,)?) => {$(
        #[expect(
            non_snake_case,
            reason = "the type parameters double as the names the tuple is destructured into"
        )]
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            fn sample(&self, rng: &mut TestRng) -> Self::Value {
                let ($($name,)+) = self;
                ($($name.sample(rng),)+)
            }
        }
    )+};
}

tuple_strategy!((A, B), (A, B, C), (A, B, C, D));

/// Types with a canonical "generate anything" strategy.
pub trait Arbitrary: Sized {
    /// Draws one arbitrary value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! int_arbitrary {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> Self {
                rng.gen::<u64>() as $t
            }
        }
    )*};
}

int_arbitrary!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> Self {
        rng.gen::<bool>()
    }
}

impl Arbitrary for f32 {
    fn arbitrary(rng: &mut TestRng) -> Self {
        rng.gen_range(-1.0e6f32..1.0e6)
    }
}

impl Arbitrary for f64 {
    fn arbitrary(rng: &mut TestRng) -> Self {
        rng.gen_range(-1.0e12f64..1.0e12)
    }
}

impl<T: Arbitrary, const N: usize> Arbitrary for [T; N] {
    fn arbitrary(rng: &mut TestRng) -> Self {
        std::array::from_fn(|_| T::arbitrary(rng))
    }
}

macro_rules! tuple_arbitrary {
    ($(($($name:ident),+)),+ $(,)?) => {$(
        impl<$($name: Arbitrary),+> Arbitrary for ($($name,)+) {
            fn arbitrary(rng: &mut TestRng) -> Self {
                ($($name::arbitrary(rng),)+)
            }
        }
    )+};
}

tuple_arbitrary!((A, B), (A, B, C), (A, B, C, D));

/// Strategy generating arbitrary values of `T`.
pub struct Any<T> {
    _marker: std::marker::PhantomData<T>,
}

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn sample(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// The `any::<T>()` strategy.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any {
        _marker: std::marker::PhantomData,
    }
}

/// Collection strategies.
pub mod collection {
    use super::{Strategy, TestRng};
    use rand::Rng;
    use std::ops::{Range, RangeInclusive};

    /// A range of collection sizes.
    #[derive(Clone, Debug)]
    pub struct SizeRange {
        min: usize,
        max_exclusive: usize,
    }

    impl From<usize> for SizeRange {
        fn from(exact: usize) -> Self {
            SizeRange {
                min: exact,
                max_exclusive: exact + 1,
            }
        }
    }

    impl From<Range<usize>> for SizeRange {
        fn from(range: Range<usize>) -> Self {
            assert!(range.start < range.end, "empty size range");
            SizeRange {
                min: range.start,
                max_exclusive: range.end,
            }
        }
    }

    impl From<RangeInclusive<usize>> for SizeRange {
        fn from(range: RangeInclusive<usize>) -> Self {
            SizeRange {
                min: *range.start(),
                max_exclusive: *range.end() + 1,
            }
        }
    }

    /// Strategy producing `Vec`s of values drawn from an element strategy.
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn sample(&self, rng: &mut TestRng) -> Self::Value {
            let len = rng.gen_range(self.size.min..self.size.max_exclusive);
            (0..len).map(|_| self.element.sample(rng)).collect()
        }
    }

    /// The `proptest::collection::vec` strategy.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }
}

/// Everything the property tests import.
pub mod prelude {
    pub use crate::collection;
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest, Arbitrary,
        ProptestConfig, Strategy, TestCaseError,
    };
}

/// Asserts a condition inside a property, failing the current case.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!($($fmt)*)));
        }
    };
}

/// Asserts equality inside a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (left, right) = (&$left, &$right);
        $crate::prop_assert!(
            left == right,
            "assertion failed: {} == {}\n  left: {:?}\n right: {:?}",
            stringify!($left),
            stringify!($right),
            left,
            right
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let (left, right) = (&$left, &$right);
        $crate::prop_assert!(
            left == right,
            "{}\n  left: {:?}\n right: {:?}",
            format!($($fmt)*),
            left,
            right
        );
    }};
}

/// Asserts inequality inside a property.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (left, right) = (&$left, &$right);
        $crate::prop_assert!(
            left != right,
            "assertion failed: {} != {} (both {:?})",
            stringify!($left),
            stringify!($right),
            left
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let (left, right) = (&$left, &$right);
        $crate::prop_assert!(
            left != right,
            "{} (both {:?})",
            format!($($fmt)*),
            left
        );
    }};
}

/// Skips the current case when an assumption does not hold.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::TestCaseError::Reject);
        }
    };
}

/// Declares property tests with `pat in strategy` arguments.
#[macro_export]
macro_rules! proptest {
    (
        #![proptest_config($config:expr)]
        $($rest:tt)*
    ) => {
        $crate::__proptest_body! { config = ($config); $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_body! { config = ($crate::ProptestConfig::default()); $($rest)* }
    };
}

/// Implementation detail of [`proptest!`].
#[macro_export]
macro_rules! __proptest_body {
    (config = ($config:expr);) => {};
    (
        config = ($config:expr);
        $(#[$meta:meta])*
        fn $name:ident($($pat:pat in $strategy:expr),+ $(,)?) $body:block
        $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let config: $crate::ProptestConfig = $config;
            let mut rng = $crate::test_rng(stringify!($name));
            for case in 0..config.cases {
                let outcome = {
                    $(let $pat = $crate::Strategy::sample(&($strategy), &mut rng);)+
                    (move || -> ::std::result::Result<(), $crate::TestCaseError> {
                        $body
                        ::std::result::Result::Ok(())
                    })()
                };
                match outcome {
                    ::std::result::Result::Ok(()) => {}
                    ::std::result::Result::Err($crate::TestCaseError::Reject) => {}
                    ::std::result::Result::Err($crate::TestCaseError::Fail(message)) => {
                        panic!("property {} failed at case {}: {}", stringify!($name), case, message);
                    }
                }
            }
        }
        $crate::__proptest_body! { config = ($config); $($rest)* }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #[test]
        fn ranges_stay_in_bounds(x in 3u64..10, y in -5i32..=5, f in 0.25f64..0.75) {
            prop_assert!((3..10).contains(&x));
            prop_assert!((-5..=5).contains(&y));
            prop_assert!((0.25..0.75).contains(&f));
        }

        #[test]
        fn vectors_respect_size_ranges(
            v in collection::vec(any::<u8>(), 1..16),
            exact in collection::vec(0u64..100, 8),
            nested in collection::vec(collection::vec(0usize..4, 2), 1..4),
        ) {
            prop_assert!(!v.is_empty() && v.len() < 16);
            prop_assert_eq!(exact.len(), 8);
            prop_assert!(nested.iter().all(|inner| inner.len() == 2));
        }

        #[test]
        fn assume_skips_cases(a in 0u32..10, b in 0u32..10) {
            prop_assume!(a != b);
            prop_assert_ne!(a, b);
        }

        #[test]
        fn arrays_and_tuples(bytes in any::<[u8; 16]>(), pair in any::<(usize, u8)>()) {
            prop_assert_eq!(bytes.len(), 16);
            let (index, mask) = pair;
            prop_assert_eq!((index, mask), pair);
        }

        #[test]
        fn tuples_of_strategies_compose(
            triple in (0u8..4, 10usize..20, -1.0f64..1.0),
            pairs in collection::vec((0u32..8, 100u64..200), 1..6),
        ) {
            let (small, mid, frac) = triple;
            prop_assert!(small < 4 && (10..20).contains(&mid));
            prop_assert!((-1.0..1.0).contains(&frac));
            prop_assert!(pairs.iter().all(|&(a, b)| a < 8 && (100..200).contains(&b)));
        }

        #[test]
        fn mutable_bindings_work(mut data in collection::vec(any::<u8>(), 1..8)) {
            data[0] = data[0].wrapping_add(1);
            prop_assert!(!data.is_empty());
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(3))]

        #[test]
        fn config_limits_cases(x in 0u64..1000) {
            prop_assert!(x < 1000);
        }
    }

    #[test]
    fn deterministic_rng_per_test_name() {
        use rand::RngCore;
        let mut a = crate::test_rng("some_test");
        let mut b = crate::test_rng("some_test");
        assert_eq!(a.next_u64(), b.next_u64());
        let mut c = crate::test_rng("other_test");
        assert_ne!(a.next_u64(), c.next_u64());
    }
}
