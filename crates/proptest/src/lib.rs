//! A tiny, dependency-free, deterministic subset of the `proptest` API.
//!
//! The build environment has no access to crates.io, so this local crate
//! stands in for the real `proptest`. It implements exactly the surface
//! this workspace uses — `proptest!`, `prop_assert!`, `prop_assert_eq!`,
//! `prop_oneof!`, integer-range / bool / `Just` / tuple / vec / string
//! pattern strategies, and `ProptestConfig::with_cases` — with a
//! deterministic per-test RNG instead of shrinking. Failures report the
//! case number so a run can be reproduced by re-running the test.

#![forbid(unsafe_code)]

pub mod strategy {
    //! Value-generation strategies.

    use crate::test_runner::Rng;

    /// Generates values of `Self::Value` from an [`Rng`].
    pub trait Strategy {
        /// The generated type.
        type Value;
        /// Produce one value.
        fn generate(&self, rng: &mut Rng) -> Self::Value;
    }

    impl<S: Strategy + ?Sized> Strategy for &S {
        type Value = S::Value;
        fn generate(&self, rng: &mut Rng) -> Self::Value {
            (**self).generate(rng)
        }
    }

    impl<S: Strategy + ?Sized> Strategy for Box<S> {
        type Value = S::Value;
        fn generate(&self, rng: &mut Rng) -> Self::Value {
            (**self).generate(rng)
        }
    }

    /// Always produces a clone of the wrapped value.
    #[derive(Clone, Copy, Debug)]
    pub struct Just<T>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn generate(&self, _rng: &mut Rng) -> T {
            self.0.clone()
        }
    }

    macro_rules! impl_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for ::core::ops::Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut Rng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = (self.end as u64).wrapping_sub(self.start as u64);
                    self.start.wrapping_add((rng.next() % span) as $t)
                }
            }
            impl Strategy for ::core::ops::RangeInclusive<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut Rng) -> $t {
                    let (lo, hi) = (*self.start(), *self.end());
                    assert!(lo <= hi, "empty range strategy");
                    let span = (hi as u64).wrapping_sub(lo as u64).wrapping_add(1);
                    if span == 0 {
                        return rng.next() as $t; // full-width range
                    }
                    lo.wrapping_add((rng.next() % span) as $t)
                }
            }
        )*};
    }
    impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    /// Uniform choice among boxed strategies of one value type
    /// (the engine behind [`prop_oneof!`](crate::prop_oneof)).
    pub struct Union<T> {
        options: Vec<Box<dyn Strategy<Value = T>>>,
    }

    impl<T> Union<T> {
        /// Build from the alternatives.
        pub fn new(options: Vec<Box<dyn Strategy<Value = T>>>) -> Union<T> {
            assert!(!options.is_empty(), "prop_oneof! needs at least one arm");
            Union { options }
        }
    }

    impl<T> Strategy for Union<T> {
        type Value = T;
        fn generate(&self, rng: &mut Rng) -> T {
            let i = (rng.next() % self.options.len() as u64) as usize;
            self.options[i].generate(rng)
        }
    }

    macro_rules! impl_tuple_strategy {
        ($($name:ident),+) => {
            impl<$($name: Strategy),+> Strategy for ($($name,)+) {
                type Value = ($($name::Value,)+);
                #[allow(non_snake_case)]
                fn generate(&self, rng: &mut Rng) -> Self::Value {
                    let ($($name,)+) = self;
                    ($($name.generate(rng),)+)
                }
            }
        };
    }
    impl_tuple_strategy!(A);
    impl_tuple_strategy!(A, B);
    impl_tuple_strategy!(A, B, C);
    impl_tuple_strategy!(A, B, C, D);
    impl_tuple_strategy!(A, B, C, D, E);
    impl_tuple_strategy!(A, B, C, D, E, F);

    /// String patterns: a subset of proptest's regex strategies supporting
    /// literals, escapes, char classes `[a-z\n]` and repetitions `{lo,hi}`.
    impl Strategy for &str {
        type Value = String;
        fn generate(&self, rng: &mut Rng) -> String {
            generate_from_pattern(self, rng)
        }
    }

    fn generate_from_pattern(pat: &str, rng: &mut Rng) -> String {
        let chars: Vec<char> = pat.chars().collect();
        let mut out = String::new();
        let mut i = 0;
        while i < chars.len() {
            // One atom: a char class or a (possibly escaped) literal.
            let alphabet: Vec<char> = if chars[i] == '[' {
                let mut set = Vec::new();
                i += 1;
                while i < chars.len() && chars[i] != ']' {
                    let lo = read_char(&chars, &mut i);
                    if i + 1 < chars.len() && chars[i] == '-' && chars[i + 1] != ']' {
                        i += 1;
                        let hi = read_char(&chars, &mut i);
                        for c in lo..=hi {
                            set.push(c);
                        }
                    } else {
                        set.push(lo);
                    }
                }
                i += 1; // closing ']'
                set
            } else {
                vec![read_char(&chars, &mut i)]
            };
            // Optional repetition.
            let (lo, hi) = if i < chars.len() && chars[i] == '{' {
                let close = chars[i..]
                    .iter()
                    .position(|&c| c == '}')
                    .expect("unclosed repetition")
                    + i;
                let body: String = chars[i + 1..close].iter().collect();
                i = close + 1;
                match body.split_once(',') {
                    Some((a, b)) => (
                        a.trim().parse::<usize>().expect("repetition bound"),
                        b.trim().parse::<usize>().expect("repetition bound"),
                    ),
                    None => {
                        let n = body.trim().parse::<usize>().expect("repetition count");
                        (n, n)
                    }
                }
            } else {
                (1, 1)
            };
            let n = lo + (rng.next() as usize) % (hi - lo + 1);
            for _ in 0..n {
                out.push(alphabet[(rng.next() % alphabet.len() as u64) as usize]);
            }
        }
        out
    }

    fn read_char(chars: &[char], i: &mut usize) -> char {
        let c = chars[*i];
        *i += 1;
        if c != '\\' {
            return c;
        }
        let esc = chars[*i];
        *i += 1;
        match esc {
            'n' => '\n',
            't' => '\t',
            'r' => '\r',
            other => other, // \\, \], \-, \[ …
        }
    }
}

pub mod collection {
    //! Collection strategies.

    use crate::strategy::Strategy;
    use crate::test_runner::Rng;

    /// Element count for [`vec`]: an exact count or a half-open range.
    #[derive(Clone, Copy, Debug)]
    pub struct SizeRange {
        lo: usize,
        hi: usize, // exclusive
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> SizeRange {
            SizeRange { lo: n, hi: n + 1 }
        }
    }

    impl From<::core::ops::Range<usize>> for SizeRange {
        fn from(r: ::core::ops::Range<usize>) -> SizeRange {
            assert!(r.start < r.end, "empty vec size range");
            SizeRange {
                lo: r.start,
                hi: r.end,
            }
        }
    }

    /// Strategy producing `Vec`s of values from an element strategy.
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    /// `Vec` strategy with the given element strategy and length.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut Rng) -> Vec<S::Value> {
            let n = self.size.lo + (rng.next() as usize) % (self.size.hi - self.size.lo);
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }
}

pub mod bool {
    //! Boolean strategies.

    use crate::strategy::Strategy;
    use crate::test_runner::Rng;

    /// Strategy for an unbiased boolean.
    #[derive(Clone, Copy, Debug)]
    pub struct Any;

    /// Either boolean, uniformly.
    pub const ANY: Any = Any;

    impl Strategy for Any {
        type Value = bool;
        fn generate(&self, rng: &mut Rng) -> bool {
            rng.next() & 1 == 1
        }
    }
}

pub mod test_runner {
    //! The (non-shrinking) test runner: config, RNG, and failure type.

    use std::fmt;

    /// Run configuration. Only `cases` is honored.
    #[derive(Clone, Copy, Debug)]
    pub struct ProptestConfig {
        /// Number of generated cases per property.
        pub cases: u32,
    }

    impl Default for ProptestConfig {
        fn default() -> ProptestConfig {
            ProptestConfig { cases: 256 }
        }
    }

    impl ProptestConfig {
        /// A config running `cases` cases.
        pub fn with_cases(cases: u32) -> ProptestConfig {
            ProptestConfig { cases }
        }
    }

    /// A failed property (assertion message or explicit failure).
    #[derive(Clone, Debug)]
    pub struct TestCaseError(String);

    impl TestCaseError {
        /// Fail the current case with a reason.
        pub fn fail(reason: impl Into<String>) -> TestCaseError {
            TestCaseError(reason.into())
        }
    }

    impl fmt::Display for TestCaseError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str(&self.0)
        }
    }

    impl std::error::Error for TestCaseError {}

    /// Deterministic xorshift64* generator, seeded per (test, case).
    #[derive(Clone, Debug)]
    pub struct Rng(u64);

    impl Rng {
        /// The RNG for case `case` of the named test.
        pub fn for_case(test_name: &str, case: u32) -> Rng {
            // FNV-1a over the name, mixed with the case index.
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for b in test_name.bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x1000_0000_01b3);
            }
            h ^= (case as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
            Rng(h | 1)
        }

        /// Next raw 64-bit value.
        #[allow(clippy::should_implement_trait)]
        pub fn next(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            self.0 = x;
            x.wrapping_mul(0x2545_f491_4f6c_dd1d)
        }
    }
}

pub mod prelude {
    //! Common imports, mirroring `proptest::prelude`.

    pub use crate::strategy::{Just, Strategy, Union};
    pub use crate::test_runner::{ProptestConfig, Rng, TestCaseError};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};
}

/// Define property tests. Each function runs `cases` times with freshly
/// generated inputs; `prop_assert*` failures abort that case with context.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { @cfg ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! {
            @cfg ($crate::test_runner::ProptestConfig::default()) $($rest)*
        }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (@cfg ($cfg:expr) $($(#[$meta:meta])* fn $name:ident(
        $($arg:ident in $strat:expr),* $(,)?
    ) $body:block)*) => {$(
        $(#[$meta])*
        fn $name() {
            let config: $crate::test_runner::ProptestConfig = $cfg;
            for case in 0..config.cases {
                let mut rng = $crate::test_runner::Rng::for_case(
                    concat!(module_path!(), "::", stringify!($name)),
                    case,
                );
                $(let $arg = $crate::strategy::Strategy::generate(&($strat), &mut rng);)*
                let outcome: ::std::result::Result<(), $crate::test_runner::TestCaseError> =
                    (move || {
                        $body
                        ::std::result::Result::Ok(())
                    })();
                if let ::std::result::Result::Err(e) = outcome {
                    ::std::panic!(
                        "property '{}' failed at case {}: {}",
                        stringify!($name),
                        case,
                        e
                    );
                }
            }
        }
    )*};
}

/// Fail the current case unless `cond` holds.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return ::std::result::Result::Err(
                $crate::test_runner::TestCaseError::fail(::std::format!($($fmt)*)),
            );
        }
    };
}

/// Fail the current case unless the two expressions are equal.
#[macro_export]
macro_rules! prop_assert_eq {
    ($lhs:expr, $rhs:expr) => {{
        let (l, r) = (&$lhs, &$rhs);
        $crate::prop_assert!(
            *l == *r,
            "assertion failed: `{:?}` == `{:?}`",
            l,
            r
        );
    }};
    ($lhs:expr, $rhs:expr, $($fmt:tt)*) => {{
        let (l, r) = (&$lhs, &$rhs);
        $crate::prop_assert!(
            *l == *r,
            "{}: `{:?}` == `{:?}`",
            ::std::format!($($fmt)*),
            l,
            r
        );
    }};
}

/// Fail the current case if the two expressions are equal.
#[macro_export]
macro_rules! prop_assert_ne {
    ($lhs:expr, $rhs:expr) => {{
        let (l, r) = (&$lhs, &$rhs);
        $crate::prop_assert!(*l != *r, "assertion failed: `{:?}` != `{:?}`", l, r);
    }};
}

/// Uniform choice among several strategies of the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($s:expr),+ $(,)?) => {
        $crate::strategy::Union::new(::std::vec![
            $(::std::boxed::Box::new($s) as _,)+
        ])
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn ranges_stay_in_bounds(x in 3u64..17, y in 0usize..5) {
            prop_assert!((3..17).contains(&x));
            prop_assert!(y < 5);
        }

        #[test]
        fn vec_sizes_respected(v in crate::collection::vec(0u8..10, 2..6)) {
            prop_assert!(v.len() >= 2 && v.len() < 6);
            prop_assert!(v.iter().all(|&b| b < 10));
        }

        #[test]
        fn oneof_picks_an_arm(s in prop_oneof![Just("a"), Just("b")]) {
            prop_assert!(s == "a" || s == "b");
        }

        #[test]
        fn string_pattern_charset(s in "[a-c]{0,8}") {
            prop_assert!(s.len() <= 8);
            prop_assert!(s.chars().all(|c| ('a'..='c').contains(&c)));
        }
    }

    #[test]
    fn deterministic_per_case() {
        let mut a = Rng::for_case("t", 7);
        let mut b = Rng::for_case("t", 7);
        assert_eq!(a.next(), b.next());
        let mut c = Rng::for_case("t", 8);
        assert_ne!(a.next(), c.next());
    }
}
