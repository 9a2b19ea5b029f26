//! Minimal offline stand-in for the `proptest` crate.
//!
//! The build environment has no crates.io access, so this shim provides
//! the exact subset of the proptest API the workspace's property suites
//! use: the [`proptest!`] macro, `prop_assert*`, [`prop_oneof!`],
//! [`arbitrary::any`], integer-range / tuple / [`strategy::Just`] /
//! [`collection::vec`] strategies, `prop_map`, and
//! [`test_runner::ProptestConfig`].
//!
//! Differences from real proptest, by design:
//! - **No shrinking.** A failing case panics with the assert message;
//!   reproduce it by re-running (generation is deterministic per test
//!   name and case index).
//! - **Bounded cases.** The default is 64 cases per property (real
//!   proptest defaults to 256), overridable with the `PROPTEST_CASES`
//!   environment variable, so tier-1 CI stays fast.

pub mod test_runner {
    /// Per-test configuration; only `cases` is modeled.
    #[derive(Debug, Clone)]
    pub struct ProptestConfig {
        /// Number of random cases to run for each property.
        pub cases: u32,
        /// Whether `cases` was set explicitly (explicit configs beat the
        /// `PROPTEST_CASES` environment variable, as in real proptest).
        explicit: bool,
    }

    impl ProptestConfig {
        /// A config running exactly `cases` cases, ignoring `PROPTEST_CASES`.
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig {
                cases,
                explicit: true,
            }
        }

        /// The case count to run: an explicit `with_cases` wins, otherwise
        /// `PROPTEST_CASES` overrides the default. Always at least 1, so a
        /// property can never pass vacuously.
        pub fn resolved_cases(&self) -> u32 {
            let cases = if self.explicit {
                self.cases
            } else {
                std::env::var("PROPTEST_CASES")
                    .ok()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or(self.cases)
            };
            cases.max(1)
        }
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            ProptestConfig {
                cases: 64,
                explicit: false,
            }
        }
    }

    /// Deterministic splitmix64 generator seeded from the test path and
    /// case index, so any failure is reproducible by re-running.
    #[derive(Debug, Clone)]
    pub struct TestRng(u64);

    impl TestRng {
        /// RNG for case number `case` of the named test.
        pub fn for_case(test_path: &str, case: u32) -> Self {
            let mut h = 0xcbf29ce484222325u64; // FNV-1a
            for b in test_path.bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x100000001b3);
            }
            TestRng(h ^ ((case as u64) << 1) ^ 0x9e3779b97f4a7c15)
        }

        /// Next raw 64-bit value.
        pub fn next_u64(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e3779b97f4a7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
            z ^ (z >> 31)
        }

        /// Uniform value in `[0, bound)`; `bound` must be non-zero.
        pub fn below(&mut self, bound: u64) -> u64 {
            self.next_u64() % bound
        }
    }
}

pub mod strategy {
    use crate::test_runner::TestRng;

    /// A generator of random values (no shrinking in this shim).
    pub trait Strategy {
        /// The type of value this strategy produces.
        type Value;

        /// Produce one value.
        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        /// Map generated values through `f`.
        fn prop_map<O, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> O,
        {
            Map { inner: self, f }
        }

        /// Type-erase into a [`BoxedStrategy`].
        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
        {
            BoxedStrategy(Box::new(self))
        }
    }

    /// Strategy that always yields a clone of one value.
    #[derive(Debug, Clone)]
    pub struct Just<T>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn generate(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// `prop_map` adapter.
    pub struct Map<S, F> {
        pub(crate) inner: S,
        pub(crate) f: F,
    }

    impl<S, O, F> Strategy for Map<S, F>
    where
        S: Strategy,
        F: Fn(S::Value) -> O,
    {
        type Value = O;
        fn generate(&self, rng: &mut TestRng) -> O {
            (self.f)(self.inner.generate(rng))
        }
    }

    /// Owned, type-erased strategy (what `prop_oneof!` branches become).
    pub struct BoxedStrategy<T>(Box<dyn Strategy<Value = T>>);

    impl<T> Strategy for BoxedStrategy<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            self.0.generate(rng)
        }
    }

    /// Uniform choice between boxed branches (`prop_oneof!`).
    pub struct Union<T> {
        branches: Vec<BoxedStrategy<T>>,
    }

    impl<T> Union<T> {
        /// A union over `branches`; panics if empty.
        pub fn new(branches: Vec<BoxedStrategy<T>>) -> Self {
            assert!(
                !branches.is_empty(),
                "prop_oneof! needs at least one branch"
            );
            Union { branches }
        }
    }

    impl<T> Strategy for Union<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            let i = rng.below(self.branches.len() as u64) as usize;
            self.branches[i].generate(rng)
        }
    }

    macro_rules! range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for std::ops::Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = (self.end as u64).wrapping_sub(self.start as u64);
                    self.start + rng.below(span) as $t
                }
            }
        )*};
    }
    range_strategy!(u8, u16, u32, u64, usize);

    macro_rules! tuple_strategy {
        ($(($($s:ident . $idx:tt),+))*) => {$(
            impl<$($s: Strategy),+> Strategy for ($($s,)+) {
                type Value = ($($s::Value,)+);
                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    ($(self.$idx.generate(rng),)+)
                }
            }
        )*};
    }
    tuple_strategy! {
        (A.0, B.1)
        (A.0, B.1, C.2)
        (A.0, B.1, C.2, D.3)
    }
}

pub mod arbitrary {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use std::marker::PhantomData;

    /// Types with a canonical full-range strategy.
    pub trait Arbitrary {
        /// Produce one arbitrary value.
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    macro_rules! arb_int {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary(rng: &mut TestRng) -> $t {
                    rng.next_u64() as $t
                }
            }
        )*};
    }
    arb_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }

    /// The strategy returned by [`any`].
    pub struct Any<T>(PhantomData<T>);

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
    }

    /// Full-range strategy for `T` (`any::<u8>()` etc.).
    pub fn any<T: Arbitrary>() -> Any<T> {
        Any(PhantomData)
    }
}

pub mod collection {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use std::ops::Range;

    /// Strategy for `Vec`s with element strategy `S` and random length.
    pub struct VecStrategy<S> {
        elem: S,
        len: Range<usize>,
    }

    /// `Vec` strategy with length drawn from `len`.
    pub fn vec<S: Strategy>(elem: S, len: Range<usize>) -> VecStrategy<S> {
        VecStrategy { elem, len }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            assert!(self.len.start < self.len.end, "empty vec length range");
            let span = (self.len.end - self.len.start) as u64;
            let n = self.len.start + rng.below(span) as usize;
            (0..n).map(|_| self.elem.generate(rng)).collect()
        }
    }
}

/// One-stop imports mirroring `proptest::prelude::*`.
pub mod prelude {
    pub use crate::arbitrary::any;
    pub use crate::strategy::{BoxedStrategy, Just, Strategy};
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};
}

/// Declares `#[test]` functions whose arguments are drawn from
/// strategies; each runs for the configured number of cases.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::__proptest_body! { ($config) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_body! { ($crate::test_runner::ProptestConfig::default()) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_body {
    (($config:expr) $($(#[$meta:meta])* fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block)*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let cases = $crate::test_runner::ProptestConfig::resolved_cases(&$config);
                for case in 0..cases {
                    let mut __rng = $crate::test_runner::TestRng::for_case(
                        concat!(module_path!(), "::", stringify!($name)),
                        case,
                    );
                    $(let $arg = $crate::strategy::Strategy::generate(&($strat), &mut __rng);)+
                    $body
                }
            }
        )*
    };
}

/// Uniform random choice among strategies yielding the same type.
#[macro_export]
macro_rules! prop_oneof {
    ($($branch:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $($crate::strategy::Strategy::boxed($branch)),+
        ])
    };
}

/// Shim `prop_assert!`: plain `assert!` (no shrinking to report).
#[macro_export]
macro_rules! prop_assert {
    ($($t:tt)*) => { assert!($($t)*) };
}

/// Shim `prop_assert_eq!`: plain `assert_eq!`.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($t:tt)*) => { assert_eq!($($t)*) };
}

/// Shim `prop_assert_ne!`: plain `assert_ne!`.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($t:tt)*) => { assert_ne!($($t)*) };
}
