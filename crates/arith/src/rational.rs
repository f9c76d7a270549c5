//! Signed exact rationals in canonical (normalized) form.
//!
//! Aggregate attribution works with clause weights and Banzhaf values that are
//! signed and fractional (MIN attribution can be negative even for positive
//! weights, and expected aggregates divide by `2^n`), and AdaBan's error
//! parameter ε is an exact rational too. Every value is kept normalized
//! (`gcd(|numer|, denom) = 1`, `denom ≥ 1`, zero is `0/1`), so the derived
//! `PartialEq`/`Eq`/`Hash` are structural and two equal values always hash
//! alike, which makes a [`Rational`] usable as a cache-key component.

use crate::{Int, Natural};
use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, AddAssign, Mul, Neg, Sub, SubAssign};

/// A signed arbitrary-precision rational number in lowest terms.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Rational {
    numer: Int,
    denom: Natural, // invariant: denom ≥ 1 and gcd(|numer|, denom) = 1
}

/// Greatest common divisor by Euclid's algorithm on [`Natural::div_rem`].
fn gcd(a: &Natural, b: &Natural) -> Natural {
    let mut a = a.clone();
    let mut b = b.clone();
    while !b.is_zero() {
        let (_, r) = a.div_rem(&b);
        a = b;
        b = r;
    }
    a
}

impl Rational {
    /// The value 0.
    pub fn zero() -> Self {
        Rational { numer: Int::zero(), denom: Natural::one() }
    }

    /// The value 1.
    pub fn one() -> Self {
        Rational { numer: Int::one(), denom: Natural::one() }
    }

    /// Builds a rational from a signed numerator and a positive denominator,
    /// reducing to lowest terms.
    ///
    /// # Panics
    /// Panics if the denominator is zero.
    pub fn new(numer: Int, denom: Natural) -> Self {
        assert!(!denom.is_zero(), "Rational denominator must be non-zero");
        if numer.is_zero() {
            return Rational::zero();
        }
        let g = gcd(numer.magnitude(), &denom);
        let (mag, _) = numer.magnitude().div_rem(&g);
        let (denom, _) = denom.div_rem(&g);
        Rational { numer: Int::from_sign_mag(numer.sign(), mag), denom }
    }

    /// An integer as a rational.
    pub fn from_int(numer: Int) -> Self {
        Rational { numer, denom: Natural::one() }
    }

    /// Parses a non-negative decimal such as `0.1`, `.25`, `2.5` or `3`
    /// into an exact rational; `None` on malformed input.
    pub fn from_decimal_str(s: &str) -> Option<Self> {
        let (int_part, frac_part) = s.split_once('.').unwrap_or((s, ""));
        if int_part.is_empty() && frac_part.is_empty() {
            return None;
        }
        let int_n = Natural::from_decimal(if int_part.is_empty() { "0" } else { int_part })?;
        let frac_n =
            if frac_part.is_empty() { Natural::zero() } else { Natural::from_decimal(frac_part)? };
        let denom = Natural::from(10u64).pow(frac_part.len() as u32);
        let numer = &int_n.mul_ref(&denom) + &frac_n;
        Some(Rational::new(Int::from(numer), denom))
    }

    /// The numerator (signed, in lowest terms).
    pub fn numer(&self) -> &Int {
        &self.numer
    }

    /// The denominator (positive, in lowest terms).
    pub fn denom(&self) -> &Natural {
        &self.denom
    }

    /// `true` iff the value is 0.
    pub fn is_zero(&self) -> bool {
        self.numer.is_zero()
    }

    /// `true` iff the value is strictly negative.
    pub fn is_negative(&self) -> bool {
        self.numer.is_negative()
    }

    /// `true` iff the value is an integer (denominator 1).
    pub fn is_integer(&self) -> bool {
        self.denom == Natural::one()
    }

    /// Multiplies by a signed integer.
    pub fn mul_int(&self, n: &Int) -> Rational {
        Rational::new(&self.numer * n, self.denom.clone())
    }

    /// Multiplies by a natural number (e.g. a `2^k` scaling factor).
    pub fn mul_natural(&self, n: &Natural) -> Rational {
        Rational::new(self.numer.mul_natural(n), self.denom.clone())
    }

    /// Divides by a natural number.
    ///
    /// # Panics
    /// Panics if `n` is zero.
    pub fn div_natural(&self, n: &Natural) -> Rational {
        Rational::new(self.numer.clone(), self.denom.mul_ref(n))
    }

    /// Lossy conversion to `f64` (numerator over denominator).
    pub fn to_f64(&self) -> f64 {
        self.numer.to_f64() / self.denom.to_f64()
    }
}

impl Default for Rational {
    fn default() -> Self {
        Rational::zero()
    }
}

impl From<i64> for Rational {
    fn from(v: i64) -> Self {
        Rational::from_int(Int::from(v))
    }
}

impl From<Int> for Rational {
    fn from(v: Int) -> Self {
        Rational::from_int(v)
    }
}

impl From<&Natural> for Rational {
    fn from(n: &Natural) -> Self {
        Rational::from_int(Int::from(n))
    }
}

impl Neg for &Rational {
    type Output = Rational;
    fn neg(self) -> Rational {
        Rational { numer: -&self.numer, denom: self.denom.clone() }
    }
}

impl Neg for Rational {
    type Output = Rational;
    fn neg(self) -> Rational {
        Rational { numer: -self.numer, denom: self.denom }
    }
}

impl Add<&Rational> for &Rational {
    type Output = Rational;
    fn add(self, rhs: &Rational) -> Rational {
        let numer = &self.numer.mul_natural(&rhs.denom) + &rhs.numer.mul_natural(&self.denom);
        Rational::new(numer, self.denom.mul_ref(&rhs.denom))
    }
}

impl Add for Rational {
    type Output = Rational;
    fn add(self, rhs: Rational) -> Rational {
        &self + &rhs
    }
}

impl AddAssign<&Rational> for Rational {
    fn add_assign(&mut self, rhs: &Rational) {
        *self = &*self + rhs;
    }
}

impl Sub<&Rational> for &Rational {
    type Output = Rational;
    fn sub(self, rhs: &Rational) -> Rational {
        self + &(-rhs)
    }
}

impl Sub for Rational {
    type Output = Rational;
    fn sub(self, rhs: Rational) -> Rational {
        &self - &rhs
    }
}

impl SubAssign<&Rational> for Rational {
    fn sub_assign(&mut self, rhs: &Rational) {
        *self = &*self - rhs;
    }
}

impl Mul<&Rational> for &Rational {
    type Output = Rational;
    fn mul(self, rhs: &Rational) -> Rational {
        Rational::new(&self.numer * &rhs.numer, self.denom.mul_ref(&rhs.denom))
    }
}

impl Mul for Rational {
    type Output = Rational;
    fn mul(self, rhs: Rational) -> Rational {
        &self * &rhs
    }
}

impl PartialOrd for Rational {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Rational {
    fn cmp(&self, other: &Self) -> Ordering {
        // a/b vs c/d (b, d > 0)  ⇔  a·d vs c·b.
        self.numer.mul_natural(&other.denom).cmp(&other.numer.mul_natural(&self.denom))
    }
}

impl fmt::Display for Rational {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_integer() {
            write!(f, "{}", self.numer)
        } else {
            write!(f, "{}/{}", self.numer, self.denom)
        }
    }
}

impl fmt::Debug for Rational {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Rational({self})")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rat(n: i64, d: u64) -> Rational {
        Rational::new(Int::from(n), Natural::from(d))
    }

    #[test]
    fn normalization() {
        assert_eq!(rat(2, 4), rat(1, 2));
        assert_eq!(rat(-6, 9), rat(-2, 3));
        assert_eq!(rat(0, 7), Rational::zero());
        assert_eq!(rat(0, 7).denom(), &Natural::one());
        assert_eq!(rat(12, 4).to_string(), "3");
        assert_eq!(rat(-3, 6).to_string(), "-1/2");
    }

    #[test]
    fn structural_equality_enables_hashing() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let h = |r: &Rational| {
            let mut s = DefaultHasher::new();
            r.hash(&mut s);
            s.finish()
        };
        assert_eq!(h(&rat(2, 4)), h(&rat(1, 2)));
        assert_eq!(h(&rat(-10, 5)), h(&Rational::from(-2i64)));
    }

    #[test]
    fn arithmetic_matches_f64() {
        let cases = [(1i64, 2u64), (3, 4), (-5, 6), (7, 3), (0, 1), (-2, 1)];
        for &(an, ad) in &cases {
            for &(bn, bd) in &cases {
                let (a, b) = (rat(an, ad), rat(bn, bd));
                let close = |x: f64, y: f64| (x - y).abs() < 1e-12;
                assert!(close((&a + &b).to_f64(), a.to_f64() + b.to_f64()), "{a}+{b}");
                assert!(close((&a - &b).to_f64(), a.to_f64() - b.to_f64()), "{a}-{b}");
                assert!(close((&a * &b).to_f64(), a.to_f64() * b.to_f64()), "{a}*{b}");
                assert_eq!(a.partial_cmp(&b), a.to_f64().partial_cmp(&b.to_f64()), "{a} vs {b}");
            }
        }
    }

    #[test]
    fn exact_arithmetic() {
        assert_eq!(&rat(1, 3) + &rat(1, 6), rat(9, 18));
        assert_eq!(&rat(1, 3) * &rat(1, 6), rat(1, 18));
        assert_eq!(rat(1, 3).mul_natural(&Natural::from(6u64)), rat(6, 3));
    }

    #[test]
    fn exact_ordering() {
        // Comparisons are exact, also close to zero.
        assert!(rat(1, 3) < rat(1, 2));
        assert!(rat(2, 4) == rat(1, 2));
        assert!(rat(7, 3) > Rational::one());
        assert!(Rational::zero() < rat(1, 1_000_000));
    }

    #[test]
    fn decimal_parsing() {
        let parse = |s: &str| Rational::from_decimal_str(s);
        assert_eq!(parse("0.1"), Some(rat(1, 10)));
        assert_eq!(parse("2.5"), Some(rat(25, 10)));
        assert_eq!(parse(".25"), Some(rat(25, 100)));
        assert_eq!(parse("3"), Some(rat(3, 1)));
        assert_eq!(parse(""), None);
        assert_eq!(parse("a.b"), None);
    }

    #[test]
    fn scaling_helpers() {
        let v = rat(3, 4);
        assert_eq!(v.mul_natural(&Natural::pow2(3)), Rational::from(6i64));
        assert_eq!(v.div_natural(&Natural::from(3u64)), rat(1, 4));
        assert_eq!(v.mul_int(&Int::from(-4i64)), Rational::from(-3i64));
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_denominator_panics() {
        Rational::new(Int::one(), Natural::zero());
    }

    #[test]
    fn negation_and_signs() {
        assert!(rat(-1, 3).is_negative());
        assert!(!rat(1, 3).is_negative());
        assert_eq!(-&rat(1, 3), rat(-1, 3));
        assert!(Rational::zero().is_zero());
        assert!(rat(5, 1).is_integer());
        assert!(!rat(5, 2).is_integer());
    }
}
