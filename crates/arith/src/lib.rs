//! Arbitrary-precision integer arithmetic for exact Banzhaf computation.
//!
//! Model counts of Boolean functions over `n` variables can be as large as
//! `2^n`, and the lineages produced by real query workloads contain thousands
//! of variables. All counts and Banzhaf values in this reproduction are
//! therefore kept as exact arbitrary-precision integers; floating point is
//! only used at the reporting boundary.
//!
//! The crate provides three types:
//!
//! * [`Natural`] — an unsigned arbitrary-precision integer stored as base-2^64
//!   limbs, with addition, subtraction, multiplication (schoolbook and
//!   Karatsuba), long division, shifts, exponentiation, decimal conversion and
//!   lossy `f64` conversion.
//! * [`Int`] — a signed integer as a sign plus a [`Natural`] magnitude.
//!   Banzhaf values of variables in non-positive functions can be negative, so
//!   the signed type is what the algorithms expose.
//! * [`Rational`] — a signed exact rational in lowest terms, for aggregate
//!   weights and values and for ε-threshold comparisons such as
//!   `(1-ε)·U ≤ (1+ε)·L` without any floating-point rounding.
//!
//! # Example
//!
//! ```
//! use banzhaf_arith::{Natural, Int};
//!
//! let a = Natural::pow2(100);          // 2^100
//! let b = Natural::from(3u64);
//! assert_eq!((&a * &b).to_string(), "3802951800684688204490109616128");
//! let d = Int::from(&a) - Int::from(&b);
//! assert!(d.is_positive());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod int;
mod natural;
mod rational;

pub use int::{Int, Sign};
pub use natural::Natural;
pub use rational::Rational;
