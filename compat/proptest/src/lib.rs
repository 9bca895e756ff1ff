//! Offline stand-in for `proptest`.
//!
//! The build environment has no crates.io access, so this crate implements
//! the property-testing subset the workspace actually uses: the
//! [`proptest!`] macro, `prop_assert*`/`prop_assume` macros, range and
//! tuple strategies, `prop_map`, simple regex-class string strategies, and
//! `prop::collection::{vec, btree_set}`.
//!
//! Semantics: each property runs [`test_runner::CASES`] deterministic
//! random cases (seeded from the test's module path, so failures are
//! reproducible run-to-run). There is no shrinking — a failing case panics
//! with the generated inputs' debug representation where available.

pub mod strategy {
    use rand::RngExt;

    /// The RNG handed to strategies.
    pub type TestRng = rand::rngs::StdRng;

    /// A generator of random values of one type.
    pub trait Strategy {
        /// The type of generated values.
        type Value;

        /// Generate one value.
        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        /// Transform generated values with `f`.
        fn prop_map<O, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> O,
        {
            Map { inner: self, f }
        }

        /// Build a dependent strategy from each generated value (e.g. a
        /// length first, then vectors of exactly that length).
        fn prop_flat_map<S2, F>(self, f: F) -> FlatMap<Self, F>
        where
            Self: Sized,
            S2: Strategy,
            F: Fn(Self::Value) -> S2,
        {
            FlatMap { inner: self, f }
        }
    }

    /// The result of [`Strategy::prop_map`].
    pub struct Map<S, F> {
        pub(crate) inner: S,
        pub(crate) f: F,
    }

    impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
        type Value = O;

        fn generate(&self, rng: &mut TestRng) -> O {
            (self.f)(self.inner.generate(rng))
        }
    }

    /// The result of [`Strategy::prop_flat_map`].
    pub struct FlatMap<S, F> {
        pub(crate) inner: S,
        pub(crate) f: F,
    }

    impl<S: Strategy, S2: Strategy, F: Fn(S::Value) -> S2> Strategy for FlatMap<S, F> {
        type Value = S2::Value;

        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            (self.f)(self.inner.generate(rng)).generate(rng)
        }
    }

    macro_rules! impl_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for core::ops::Range<$t> {
                type Value = $t;

                fn generate(&self, rng: &mut TestRng) -> $t {
                    rng.random_range(self.clone())
                }
            }
        )*};
    }

    impl_range_strategy!(usize, u8, u16, u32, u64, i8, i16, i32, i64, isize, f32, f64);

    macro_rules! impl_tuple_strategy {
        ($(($($s:ident . $idx:tt),+))*) => {$(
            impl<$($s: Strategy),+> Strategy for ($($s,)+) {
                type Value = ($($s::Value,)+);

                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    ($(self.$idx.generate(rng),)+)
                }
            }
        )*};
    }

    impl_tuple_strategy! {
        (A.0, B.1)
        (A.0, B.1, C.2)
        (A.0, B.1, C.2, D.3)
    }

    /// String strategy from a simplified regex: one atom (`.` or a
    /// `[...]` character class with ranges) followed by an optional
    /// `{min,max}` repetition. Any other pattern generates itself
    /// literally.
    impl Strategy for &str {
        type Value = String;

        fn generate(&self, rng: &mut TestRng) -> String {
            generate_pattern(self, rng)
        }
    }

    /// Character pool for the `.` wildcard: varied enough to exercise
    /// tokenizers (ASCII, punctuation, whitespace, multibyte).
    const ANY_CHARS: &[char] = &[
        'a', 'b', 'z', 'A', 'Q', '0', '9', ' ', '\t', '\n', ',', '.', '!', '?', '-', '_', '(', ')',
        '#', '@', 'é', 'ß', 'λ', '中', '文', '🎉', '´', '\'', '"', '/', '\\', ':', ';',
    ];

    fn generate_pattern(pattern: &str, rng: &mut TestRng) -> String {
        let (pool, rest) = parse_atom(pattern);
        let Some(pool) = pool else {
            return pattern.to_string(); // not a recognised pattern: literal
        };
        let (min, max) = parse_repetition(rest).unwrap_or((1, 1));
        let len = if max > min { rng.random_range(min..max + 1) } else { min };
        (0..len).map(|_| pool[rng.random_range(0..pool.len())]).collect()
    }

    /// Parse the leading atom; returns the candidate char pool and the
    /// remainder of the pattern (the repetition suffix, if any).
    fn parse_atom(pattern: &str) -> (Option<Vec<char>>, &str) {
        if let Some(rest) = pattern.strip_prefix('.') {
            return (Some(ANY_CHARS.to_vec()), rest);
        }
        if let Some(body) = pattern.strip_prefix('[') {
            if let Some(end) = body.find(']') {
                let class: Vec<char> = body[..end].chars().collect();
                let mut pool = Vec::new();
                let mut i = 0;
                while i < class.len() {
                    if i + 2 < class.len() && class[i + 1] == '-' {
                        let (lo, hi) = (class[i] as u32, class[i + 2] as u32);
                        for c in lo..=hi {
                            if let Some(c) = char::from_u32(c) {
                                pool.push(c);
                            }
                        }
                        i += 3;
                    } else {
                        pool.push(class[i]);
                        i += 1;
                    }
                }
                if !pool.is_empty() {
                    return (Some(pool), &body[end + 1..]);
                }
            }
        }
        (None, pattern)
    }

    /// Parse a `{min}` or `{min,max}` suffix (max inclusive, as in regex).
    fn parse_repetition(suffix: &str) -> Option<(usize, usize)> {
        let body = suffix.strip_prefix('{')?.strip_suffix('}')?;
        match body.split_once(',') {
            Some((lo, hi)) => Some((lo.trim().parse().ok()?, hi.trim().parse().ok()?)),
            None => {
                let n = body.trim().parse().ok()?;
                Some((n, n))
            }
        }
    }
}

/// The curated strategy namespace (`prop::collection::vec`, …), mirroring
/// the real crate's prelude layout.
pub mod collection {
    use crate::strategy::{Strategy, TestRng};
    use rand::RngExt;
    use std::collections::BTreeSet;

    /// Strategy for `Vec<S::Value>` with a uniform length in `size`.
    pub fn vec<S: Strategy>(element: S, size: core::ops::Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, size }
    }

    /// The result of [`vec()`].
    pub struct VecStrategy<S> {
        element: S,
        size: core::ops::Range<usize>,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            let len = sample_len(&self.size, rng);
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }

    /// Strategy for `BTreeSet<S::Value>` with up to `size.end - 1`
    /// elements (duplicates collapse, matching real proptest semantics).
    pub fn btree_set<S>(element: S, size: core::ops::Range<usize>) -> BTreeSetStrategy<S>
    where
        S: Strategy,
        S::Value: Ord,
    {
        BTreeSetStrategy { element, size }
    }

    /// The result of [`btree_set`].
    pub struct BTreeSetStrategy<S> {
        element: S,
        size: core::ops::Range<usize>,
    }

    impl<S: Strategy> Strategy for BTreeSetStrategy<S>
    where
        S::Value: Ord,
    {
        type Value = BTreeSet<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            let target = sample_len(&self.size, rng);
            let mut set = BTreeSet::new();
            // Bounded attempts: a small value domain may not have `target`
            // distinct values.
            for _ in 0..target * 4 {
                if set.len() >= target {
                    break;
                }
                set.insert(self.element.generate(rng));
            }
            set
        }
    }

    fn sample_len(size: &core::ops::Range<usize>, rng: &mut TestRng) -> usize {
        if size.end > size.start {
            rng.random_range(size.start..size.end)
        } else {
            size.start
        }
    }
}

/// Deterministic case runner behind the [`proptest!`] macro.
pub mod test_runner {
    use rand::SeedableRng;

    /// Cases per property. 64 keeps full-workspace test time reasonable
    /// while exercising each property across a broad input range.
    pub const CASES: u32 = 64;

    /// A failed (`Fail`) or discarded (`Reject`) test case.
    #[derive(Debug)]
    pub enum TestCaseError {
        /// `prop_assert*` failure: the property is violated.
        Fail(String),
        /// `prop_assume` rejection: the case does not apply.
        Reject,
    }

    impl TestCaseError {
        /// Construct a failure.
        pub fn fail(msg: String) -> Self {
            TestCaseError::Fail(msg)
        }
    }

    /// FNV-1a, for a stable per-test seed from its module path.
    fn fnv1a(s: &str) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in s.as_bytes() {
            h ^= *b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        h
    }

    /// Run `CASES` deterministic cases of `property`; panic on the first
    /// failure with its case number.
    pub fn run(
        name: &str,
        mut property: impl FnMut(&mut crate::strategy::TestRng) -> Result<(), TestCaseError>,
    ) {
        let mut rng = crate::strategy::TestRng::seed_from_u64(fnv1a(name));
        for case in 0..CASES {
            match property(&mut rng) {
                Ok(()) | Err(TestCaseError::Reject) => {}
                Err(TestCaseError::Fail(msg)) => {
                    panic!("proptest case {case}/{CASES} of `{name}` failed: {msg}")
                }
            }
        }
    }
}

/// Everything a `use proptest::prelude::*;` consumer expects in scope.
pub mod prelude {
    pub use crate::strategy::Strategy;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest};

    /// The `prop::` namespace (`prop::collection::vec`, …).
    pub mod prop {
        pub use crate::collection;
    }
}

/// Define property tests: each `fn name(arg in strategy, ...) { body }`
/// becomes a `#[test]` running [`test_runner::CASES`] random cases.
#[macro_export]
macro_rules! proptest {
    ($($(#[$meta:meta])* fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block)+) => {
        $(
            $(#[$meta])*
            fn $name() {
                $crate::test_runner::run(
                    concat!(module_path!(), "::", stringify!($name)),
                    |__pt_rng| {
                        $(let $arg = $crate::strategy::Strategy::generate(&($strat), __pt_rng);)+
                        let mut __pt_case = move || -> ::std::result::Result<(), $crate::test_runner::TestCaseError> {
                            $body
                            #[allow(unreachable_code)]
                            ::std::result::Result::Ok(())
                        };
                        __pt_case()
                    },
                );
            }
        )+
    };
}

/// Like `assert!`, but reported through the proptest runner.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!($($fmt)+),
            ));
        }
    };
}

/// Like `assert_eq!`, but reported through the proptest runner.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr $(,)?) => {{
        let (__pt_l, __pt_r) = (&$a, &$b);
        $crate::prop_assert!(
            *__pt_l == *__pt_r,
            "assertion failed: `{:?}` == `{:?}`",
            __pt_l,
            __pt_r
        );
    }};
    ($a:expr, $b:expr, $($fmt:tt)+) => {{
        let (__pt_l, __pt_r) = (&$a, &$b);
        $crate::prop_assert!(*__pt_l == *__pt_r, $($fmt)+);
    }};
}

/// Like `assert_ne!`, but reported through the proptest runner.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr $(,)?) => {{
        let (__pt_l, __pt_r) = (&$a, &$b);
        $crate::prop_assert!(
            *__pt_l != *__pt_r,
            "assertion failed: `{:?}` != `{:?}`",
            __pt_l,
            __pt_r
        );
    }};
}

/// Discard the current case when `cond` does not hold.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(,)?) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::Reject);
        }
    };
}
