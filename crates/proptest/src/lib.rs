//! A minimal property-based testing harness with a `proptest`-compatible
//! API surface.
//!
//! The workspace builds in hermetic environments with no crates.io
//! access, so the real `proptest` crate is unavailable. This crate
//! implements the slice of its API the test suites use — the
//! [`proptest!`] macro, `prop_assert*` / `prop_assume!`,
//! [`Strategy`](strategy::Strategy) ranges and tuples, `collection::vec`,
//! `sample::{Index, select}`, and
//! `any::<T>()` — and is aliased to the name `proptest` in the workspace
//! manifest so the test files read identically to upstream.
//!
//! Differences from upstream, deliberately accepted: no shrinking (a
//! failing case prints its exact inputs instead, which — with the
//! deterministic per-test RNG — is enough to reproduce), and case
//! generation is seeded from the test's module path, so runs are fully
//! reproducible rather than randomized per invocation.

use rand::rngs::StdRng;
use rand::Rng as _;
use rand::SeedableRng;

pub mod strategy {
    //! The [`Strategy`] trait: a recipe for generating values of a type.

    use rand::rngs::StdRng;
    use rand::Rng as _;

    /// A recipe for generating test-case values.
    pub trait Strategy {
        /// The type of value this strategy produces.
        type Value;

        /// Generates one value from the given deterministic RNG.
        fn generate(&self, rng: &mut StdRng) -> Self::Value;
    }

    impl Strategy for std::ops::Range<f64> {
        type Value = f64;
        fn generate(&self, rng: &mut StdRng) -> f64 {
            rng.gen_range(self.start..self.end)
        }
    }

    impl Strategy for std::ops::RangeInclusive<f64> {
        type Value = f64;
        fn generate(&self, rng: &mut StdRng) -> f64 {
            rng.gen_range(*self.start()..=*self.end())
        }
    }

    macro_rules! int_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for std::ops::Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut StdRng) -> $t {
                    rng.gen_range(self.start..self.end)
                }
            }
            impl Strategy for std::ops::RangeInclusive<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut StdRng) -> $t {
                    rng.gen_range(*self.start()..=*self.end())
                }
            }
        )*};
    }

    int_strategy!(usize, u64, u32, i64, i32);

    macro_rules! tuple_strategy {
        ($(($($s:ident . $idx:tt),+)),+ $(,)?) => {$(
            impl<$($s: Strategy),+> Strategy for ($($s,)+) {
                type Value = ($($s::Value,)+);
                fn generate(&self, rng: &mut StdRng) -> Self::Value {
                    ($(self.$idx.generate(rng),)+)
                }
            }
        )+};
    }

    tuple_strategy!((A.0, B.1), (A.0, B.1, C.2), (A.0, B.1, C.2, D.3),);

    /// Strategy produced by [`crate::any`]: the type's full "arbitrary"
    /// distribution.
    #[derive(Debug)]
    pub struct Any<T>(pub(crate) std::marker::PhantomData<T>);

    impl<T: crate::Arbitrary> Strategy for Any<T> {
        type Value = T;
        fn generate(&self, rng: &mut StdRng) -> T {
            T::arbitrary(rng)
        }
    }
}

/// Types with a default "arbitrary value" distribution, used by
/// [`any`].
pub trait Arbitrary: Sized {
    /// Draws one arbitrary value.
    fn arbitrary(rng: &mut StdRng) -> Self;
}

impl Arbitrary for bool {
    fn arbitrary(rng: &mut StdRng) -> Self {
        rng.gen::<bool>()
    }
}

impl Arbitrary for u8 {
    fn arbitrary(rng: &mut StdRng) -> Self {
        rng.gen::<u8>()
    }
}

impl Arbitrary for u32 {
    fn arbitrary(rng: &mut StdRng) -> Self {
        rng.gen::<u32>()
    }
}

impl Arbitrary for u64 {
    fn arbitrary(rng: &mut StdRng) -> Self {
        rng.gen::<u64>()
    }
}

impl Arbitrary for f64 {
    fn arbitrary(rng: &mut StdRng) -> Self {
        rng.gen::<f64>()
    }
}

impl<T: Arbitrary, const N: usize> Arbitrary for [T; N] {
    fn arbitrary(rng: &mut StdRng) -> Self {
        std::array::from_fn(|_| T::arbitrary(rng))
    }
}

/// Returns the strategy generating arbitrary values of `T`.
pub fn any<T: Arbitrary>() -> strategy::Any<T> {
    strategy::Any(std::marker::PhantomData)
}

pub mod collection {
    //! Collection strategies (`vec`).

    use super::strategy::Strategy;
    use rand::rngs::StdRng;
    use rand::Rng as _;

    /// Sizes accepted by [`vec()`]: an exact `usize` or a `Range<usize>`.
    pub trait SizeRange {
        /// Draws a concrete length.
        fn draw(&self, rng: &mut StdRng) -> usize;
    }

    impl SizeRange for usize {
        fn draw(&self, _rng: &mut StdRng) -> usize {
            *self
        }
    }

    impl SizeRange for std::ops::Range<usize> {
        fn draw(&self, rng: &mut StdRng) -> usize {
            rng.gen_range(self.start..self.end)
        }
    }

    impl SizeRange for std::ops::RangeInclusive<usize> {
        fn draw(&self, rng: &mut StdRng) -> usize {
            rng.gen_range(*self.start()..=*self.end())
        }
    }

    /// Strategy for `Vec<S::Value>` with element strategy `S` and a size
    /// in `size`.
    #[derive(Debug)]
    pub struct VecStrategy<S, Z> {
        element: S,
        size: Z,
    }

    /// Generates vectors whose elements come from `element` and whose
    /// length is drawn from `size`.
    pub fn vec<S: Strategy, Z: SizeRange>(element: S, size: Z) -> VecStrategy<S, Z> {
        VecStrategy { element, size }
    }

    impl<S: Strategy, Z: SizeRange> Strategy for VecStrategy<S, Z> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut StdRng) -> Vec<S::Value> {
            let n = self.size.draw(rng);
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }
}

pub mod sample {
    //! Sampling strategies: `Index` and `select`.

    use super::strategy::Strategy;
    use super::Arbitrary;
    use rand::rngs::StdRng;
    use rand::Rng as _;

    /// An index into a collection whose length is only known inside the
    /// test body; resolve it with [`Index::index`].
    #[derive(Debug, Clone, Copy)]
    pub struct Index(u64);

    impl Index {
        /// Maps this draw onto `0..len`. `len` must be non-zero.
        pub fn index(&self, len: usize) -> usize {
            assert!(len > 0, "Index::index on empty collection");
            (self.0 % len as u64) as usize
        }
    }

    impl Arbitrary for Index {
        fn arbitrary(rng: &mut StdRng) -> Self {
            Index(rng.gen::<u64>())
        }
    }

    /// Strategy choosing uniformly among the given values.
    #[derive(Debug)]
    pub struct Select<T>(Vec<T>);

    /// Picks one of `options` uniformly per case.
    pub fn select<T: Clone>(options: Vec<T>) -> Select<T> {
        assert!(!options.is_empty(), "select() needs at least one option");
        Select(options)
    }

    impl<T: Clone> Strategy for Select<T> {
        type Value = T;
        fn generate(&self, rng: &mut StdRng) -> T {
            self.0[rng.gen_range(0..self.0.len())].clone()
        }
    }
}

pub mod test_runner {
    //! The per-test case loop: configuration, RNG derivation, and case
    //! outcomes.

    /// Runner configuration; construct with
    /// [`Config::with_cases`].
    #[derive(Debug, Clone, Copy)]
    pub struct Config {
        /// Number of accepted (non-rejected) cases to run.
        pub cases: u32,
    }

    impl Config {
        /// A configuration running `cases` accepted cases per test.
        pub fn with_cases(cases: u32) -> Self {
            Config { cases }
        }
    }

    /// Outcome of a single generated case.
    #[derive(Debug)]
    pub enum TestCaseError {
        /// The case's preconditions failed (`prop_assume!`); draw again.
        Reject,
        /// A property assertion failed.
        Fail(String),
    }
}

/// Derives the deterministic RNG for a named test: FNV-1a over the name,
/// expanded through the seeding path of [`StdRng`].
pub fn rng_for(test_name: &str) -> StdRng {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in test_name.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    StdRng::seed_from_u64(h)
}

/// Defines property tests. Mirrors `proptest::proptest!`: an optional
/// `#![proptest_config(...)]` header, then `#[test]` functions whose
/// arguments are `name in strategy` bindings.
#[macro_export]
macro_rules! proptest {
    (
        #![proptest_config($cfg:expr)]
        $(
            $(#[$meta:meta])*
            fn $name:ident($($arg:ident in $strat:expr),* $(,)?) $body:block
        )*
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let cfg: $crate::test_runner::Config = $cfg;
                let mut rng =
                    $crate::rng_for(concat!(module_path!(), "::", stringify!($name)));
                let mut accepted: u32 = 0;
                let mut attempts: u32 = 0;
                while accepted < cfg.cases {
                    attempts += 1;
                    assert!(
                        attempts <= cfg.cases.saturating_mul(100).max(1000),
                        "too many rejected cases in {}",
                        stringify!($name)
                    );
                    $(
                        let $arg = $crate::strategy::Strategy::generate(&($strat), &mut rng);
                    )*
                    // Render inputs up front: the body may consume them.
                    let case_inputs = format!(
                        concat!($("\n    ", stringify!($arg), " = {:?}",)* ""),
                        $(&$arg),*
                    );
                    let outcome: ::std::result::Result<(), $crate::test_runner::TestCaseError> =
                        (|| { $body ::std::result::Result::Ok(()) })();
                    match outcome {
                        Ok(()) => accepted += 1,
                        Err($crate::test_runner::TestCaseError::Reject) => continue,
                        Err($crate::test_runner::TestCaseError::Fail(msg)) => {
                            panic!(
                                "property {} failed after {} cases: {}\n  inputs:{}",
                                stringify!($name),
                                accepted,
                                msg,
                                case_inputs
                            );
                        }
                    }
                }
            }
        )*
    };
    // No config header: default to 256 cases.
    (
        $(
            $(#[$meta:meta])*
            fn $name:ident($($arg:ident in $strat:expr),* $(,)?) $body:block
        )*
    ) => {
        $crate::proptest! {
            #![proptest_config($crate::test_runner::Config::with_cases(256))]
            $(
                $(#[$meta])*
                fn $name($($arg in $strat),*) $body
            )*
        }
    };
}

/// Fails the current property case if `cond` is false.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        if !$cond {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::Fail(
                format!("assertion failed: {}", stringify!($cond)),
            ));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::Fail(
                format!($($fmt)+),
            ));
        }
    };
}

/// Fails the current property case if the two values are unequal.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let l = $left;
        let r = $right;
        if l != r {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::Fail(
                format!(
                    "{}\n  left: {:?}\n right: {:?}",
                    format!($($fmt)+),
                    l,
                    r
                ),
            ));
        }
    }};
    ($left:expr, $right:expr $(,)?) => {{
        let l = $left;
        let r = $right;
        if l != r {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::Fail(
                format!(
                    "assertion failed: {} == {}\n  left: {:?}\n right: {:?}",
                    stringify!($left),
                    stringify!($right),
                    l,
                    r
                ),
            ));
        }
    }};
}

/// Fails the current property case if the two values are equal.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let l = $left;
        let r = $right;
        if l == r {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::Fail(format!(
                "assertion failed: {} != {}\n  both: {:?}",
                stringify!($left),
                stringify!($right),
                l
            )));
        }
    }};
}

/// Rejects the current case (redraws) if its precondition is false.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(,)?) => {
        if !$cond {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::Reject);
        }
    };
}

pub mod prelude {
    //! One-stop imports for property tests, mirroring
    //! `proptest::prelude`.

    pub use crate::strategy::Strategy;
    pub use crate::test_runner::Config as ProptestConfig;
    pub use crate::{any, Arbitrary};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Generated vectors respect their length bounds.
        #[test]
        fn vec_lengths_in_bounds(v in crate::collection::vec(any::<bool>(), 3..10)) {
            prop_assert!(v.len() >= 3 && v.len() < 10);
        }

        /// Tuple strategies produce in-range components.
        #[test]
        fn tuples_componentwise(pair in (-2.0f64..2.0, 0usize..5)) {
            prop_assert!(pair.0 >= -2.0 && pair.0 < 2.0);
            prop_assert!(pair.1 < 5);
        }

        /// `prop_assume` rejects without failing the test.
        #[test]
        fn assume_filters(x in 0u32..100) {
            prop_assume!(x % 2 == 0);
            prop_assert_eq!(x % 2, 0);
        }

        /// Select only yields listed options.
        #[test]
        fn select_yields_options(v in crate::sample::select(vec![16usize, 32, 48])) {
            prop_assert!(v == 16 || v == 32 || v == 48);
        }
    }

    #[test]
    fn index_maps_into_range() {
        let mut rng = crate::rng_for("index_test");
        for len in [1usize, 2, 7, 100] {
            for _ in 0..50 {
                let idx = <crate::sample::Index as crate::Arbitrary>::arbitrary(&mut rng);
                assert!(idx.index(len) < len);
            }
        }
    }

    #[test]
    fn runs_are_deterministic() {
        let mut a = crate::rng_for("same-name");
        let mut b = crate::rng_for("same-name");
        let sa: Vec<u64> = (0..16).map(|_| rand::Rng::next_u64(&mut a)).collect();
        let sb: Vec<u64> = (0..16).map(|_| rand::Rng::next_u64(&mut b)).collect();
        assert_eq!(sa, sb);
    }
}
