//! Workspace-internal stand-in for the subset of the crates.io `proptest`
//! API this repository uses.
//!
//! The build environment has no crates.io access, so this crate implements
//! the property-testing surface the test suites call: the [`proptest!`]
//! macro, the [`Strategy`] trait with [`Strategy::prop_map`], [`any`] for
//! primitive types, integer-range strategies, [`collection::vec`], the
//! `prop_assert!` / `prop_assert_eq!` / `prop_assume!` macros, and
//! [`ProptestConfig::with_cases`].
//!
//! Differences from crates.io `proptest`, by design:
//!
//! * **No shrinking.** A failing case reports the generated inputs (via the
//!   assertion message) and the deterministic seed, but is not minimized.
//! * **Deterministic seeding.** Each test derives its seed from the test
//!   function's name (override with the `PROPTEST_SEED` environment
//!   variable), so CI failures reproduce locally.
//! * Only the strategies the workspace exercises exist.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod collection;
pub mod option;
pub mod prelude;
pub mod strategy;
pub mod test_runner;

pub use strategy::{any, Any, Arbitrary, BoxedStrategy, Just, Map, Strategy};
pub use test_runner::{ProptestConfig, TestCaseError, TestRunner};

/// Defines property tests.
///
/// Each `fn name(arg in strategy, ...) { body }` item expands to a
/// `#[test]` (the attribute is written explicitly, as with crates.io
/// proptest) that runs `body` for [`ProptestConfig::cases`] generated
/// inputs. An optional leading `#![proptest_config(expr)]` sets the
/// configuration for every test in the block.
#[macro_export]
macro_rules! proptest {
    (@impl $cfg:expr;) => {};
    (@impl $cfg:expr;
        $(#[$meta:meta])*
        fn $name:ident($($arg:pat_param in $strat:expr),+ $(,)?) $body:block
        $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let config: $crate::ProptestConfig = $cfg;
            $crate::test_runner::run(&config, stringify!($name), |__runner| {
                $(let $arg = $crate::Strategy::generate(&($strat), __runner);)+
                let __result: ::std::result::Result<(), $crate::TestCaseError> =
                    (move || {
                        $body
                        ::std::result::Result::Ok(())
                    })();
                __result
            });
        }
        $crate::proptest!(@impl $cfg; $($rest)*);
    };
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::proptest!(@impl $cfg; $($rest)*);
    };
    ($($rest:tt)*) => {
        $crate::proptest!(@impl ::core::default::Default::default(); $($rest)*);
    };
}

/// Like `assert!`, but inside [`proptest!`]: reports the failing condition
/// together with the generating seed instead of unwinding immediately.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!($($fmt)+)));
        }
    };
}

/// Like `assert_eq!`, but inside [`proptest!`].
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (left, right) = (&$left, &$right);
        if !(left == right) {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!(
                "assertion failed: `{:?}` != `{:?}` ({} != {})",
                left,
                right,
                stringify!($left),
                stringify!($right),
            )));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (left, right) = (&$left, &$right);
        if !(left == right) {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!(
                "assertion failed: `{:?}` != `{:?}`: {}",
                left,
                right,
                format!($($fmt)+),
            )));
        }
    }};
}

/// Discards the current case (it counts as neither pass nor failure) when
/// the condition does not hold; the runner draws a replacement case.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(,)?) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError::reject(concat!(
                "assumption failed: ",
                stringify!($cond)
            )));
        }
    };
}
