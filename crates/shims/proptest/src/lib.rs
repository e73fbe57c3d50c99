//! Offline stand-in for the `proptest` crate.
//!
//! Implements the subset of the proptest API this workspace's tests use:
//! the [`proptest!`] macro (with optional `#![proptest_config(..)]`
//! header), range / `any` / tuple / [`collection::vec`] strategies, the
//! [`strategy::Strategy::prop_map`] adapter, and the `prop_assert*` /
//! [`prop_assume!`] macros.
//!
//! Differences from the real crate, by design:
//!
//! * **no shrinking** — a failing case reports the sampled inputs but is
//!   not minimised;
//! * **deterministic sampling** — each test derives its RNG stream from
//!   a stable hash of the test name, so failures are reproducible across
//!   runs without a persistence file;
//! * rejected cases ([`prop_assume!`]) are simply skipped, not re-drawn.
//!
//! Swapping the real `proptest` back in is a one-line `Cargo.toml`
//! change; the macro and trait surface here is call-compatible.

pub mod arbitrary;
pub mod collection;
pub mod strategy;
pub mod test_runner;

/// Everything tests normally import.
pub mod prelude {
    pub use crate::arbitrary::any;
    pub use crate::strategy::{Just, Strategy};
    pub use crate::test_runner::{ProptestConfig, TestCaseError};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest};
}

/// Assert a condition inside a property; failure aborts the case with a
/// formatted message instead of panicking.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!($($fmt)*),
            ));
        }
    };
}

/// Assert two values are equal (with `Debug` output on failure).
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => {{
        let left = &$a;
        let right = &$b;
        $crate::prop_assert!(
            *left == *right,
            "assertion failed: `{} == {}`\n  left: {:?}\n right: {:?}",
            stringify!($a),
            stringify!($b),
            left,
            right
        );
    }};
    ($a:expr, $b:expr, $($fmt:tt)*) => {{
        let left = &$a;
        let right = &$b;
        $crate::prop_assert!(*left == *right, $($fmt)*);
    }};
}

/// Assert two values are different.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr) => {{
        let left = &$a;
        let right = &$b;
        $crate::prop_assert!(
            *left != *right,
            "assertion failed: `{} != {}`\n  both: {:?}",
            stringify!($a),
            stringify!($b),
            left
        );
    }};
}

/// Skip the current case when its inputs don't satisfy a precondition.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return ::core::result::Result::Ok(());
        }
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return ::core::result::Result::Ok(());
        }
    };
}

/// Define property tests. Supports the standard form:
///
/// ```ignore
/// proptest! {
///     #![proptest_config(ProptestConfig::with_cases(64))]
///
///     #[test]
///     fn my_property(x in 0u64..100, ys in vec(any::<u64>(), 1..8)) {
///         prop_assert!(x < 100);
///     }
/// }
/// ```
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { ($crate::test_runner::ProptestConfig::default()) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (($cfg:expr)) => {};
    (($cfg:expr)
     $(#[$meta:meta])*
     fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
     $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let config = $cfg;
            let mut runner = $crate::test_runner::TestRunner::new(stringify!($name));
            for case in 0..config.cases {
                let mut rng = runner.rng_for_case(case);
                $(let $arg = $crate::strategy::Strategy::sample(&($strat), &mut rng);)+
                let result = (|| -> ::core::result::Result<(), $crate::test_runner::TestCaseError> {
                    {
                        $(
                            // rebind so the body may consume the value
                            let $arg = $arg;
                        )+
                        $body
                    }
                    #[allow(unreachable_code)]
                    ::core::result::Result::Ok(())
                })();
                if let ::core::result::Result::Err(e) = result {
                    panic!(
                        "property `{}` failed at case {case}: {e}",
                        stringify!($name),
                    );
                }
            }
        }
        $crate::__proptest_impl! { ($cfg) $($rest)* }
    };
}
