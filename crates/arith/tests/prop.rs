//! Property-based tests for the arbitrary-precision arithmetic, checked
//! against native `u128`/`i128` arithmetic and against algebraic identities
//! for operands that exceed machine width.

use banzhaf_arith::{Int, Natural, Rational};
use proptest::prelude::*;

fn nat(v: u128) -> Natural {
    Natural::from(v)
}

proptest! {
    #[test]
    fn add_matches_u128(a in 0u128..u128::MAX / 2, b in 0u128..u128::MAX / 2) {
        prop_assert_eq!((&nat(a) + &nat(b)).to_u128(), Some(a + b));
    }

    #[test]
    fn sub_matches_u128(a in 0u128..u128::MAX, b in 0u128..u128::MAX) {
        let (hi, lo) = if a >= b { (a, b) } else { (b, a) };
        prop_assert_eq!((&nat(hi) - &nat(lo)).to_u128(), Some(hi - lo));
        prop_assert_eq!(nat(lo).checked_sub(&nat(hi)).is_none(), hi != lo);
    }

    #[test]
    fn mul_matches_u128(a in 0u128..u64::MAX as u128, b in 0u128..u64::MAX as u128) {
        prop_assert_eq!((&nat(a) * &nat(b)).to_u128(), Some(a * b));
    }

    #[test]
    fn div_rem_roundtrip(a in any::<u128>(), b in 1u128..u64::MAX as u128) {
        let (q, r) = nat(a).div_rem(&nat(b));
        prop_assert_eq!(q.to_u128(), Some(a / b));
        prop_assert_eq!(r.to_u128(), Some(a % b));
    }

    #[test]
    fn div_rem_invariant_large(bits_a in 0usize..400, bits_b in 1usize..300, add_a in any::<u64>(), add_b in any::<u64>()) {
        let a = &Natural::pow2(bits_a) + &Natural::from(add_a);
        let b = &Natural::pow2(bits_b) + &Natural::from(add_b);
        let (q, r) = a.div_rem(&b);
        prop_assert!(r < b);
        prop_assert_eq!(&(&q * &b) + &r, a);
    }

    #[test]
    fn mul_commutative_and_associative_large(
        e1 in 0usize..200, e2 in 0usize..200, e3 in 0usize..200,
        a in any::<u64>(), b in any::<u64>(), c in any::<u64>(),
    ) {
        let x = &Natural::pow2(e1) + &Natural::from(a);
        let y = &Natural::pow2(e2) + &Natural::from(b);
        let z = &Natural::pow2(e3) + &Natural::from(c);
        prop_assert_eq!(&x * &y, &y * &x);
        prop_assert_eq!(&(&x * &y) * &z, &x * &(&y * &z));
    }

    #[test]
    fn distributivity_large(e1 in 0usize..200, e2 in 0usize..200, a in any::<u64>(), b in any::<u64>()) {
        let x = &Natural::pow2(e1) + &Natural::from(a);
        let y = &Natural::pow2(e2) + &Natural::from(b);
        let z = Natural::from(123_456_789u64);
        prop_assert_eq!(&z * &(&x + &y), &(&z * &x) + &(&z * &y));
    }

    #[test]
    fn shifts_are_pow2_mul(v in any::<u64>(), s in 0usize..300) {
        let n = Natural::from(v);
        prop_assert_eq!(n.shl_bits(s), &n * &Natural::pow2(s));
        prop_assert_eq!(n.shl_bits(s).shr_bits(s), n);
    }

    #[test]
    fn decimal_roundtrip(a in any::<u128>()) {
        let n = nat(a);
        prop_assert_eq!(Natural::from_decimal(&n.to_string()), Some(n));
    }

    #[test]
    fn ordering_matches_u128(a in any::<u128>(), b in any::<u128>()) {
        prop_assert_eq!(nat(a).cmp(&nat(b)), a.cmp(&b));
    }

    #[test]
    fn int_ops_match_i128(a in -(1i128 << 100)..(1i128 << 100), b in -(1i128 << 100)..(1i128 << 100)) {
        let ia = int_from_i128(a);
        let ib = int_from_i128(b);
        prop_assert_eq!((&ia + &ib).to_i128(), Some(a + b));
        prop_assert_eq!((&ia - &ib).to_i128(), Some(a - b));
        prop_assert_eq!(ia.cmp(&ib), a.cmp(&b));
    }

    #[test]
    fn int_mul_matches_i128(a in -(1i128 << 60)..(1i128 << 60), b in -(1i128 << 60)..(1i128 << 60)) {
        let ia = int_from_i128(a);
        let ib = int_from_i128(b);
        prop_assert_eq!((&ia * &ib).to_i128(), Some(a * b));
    }

    #[test]
    fn ratio_ordering_matches_fraction(a in 0u64..10_000, b in 1u64..10_000, c in 0u64..10_000, d in 1u64..10_000) {
        let lhs = Rational::new(Int::from(a), Natural::from(b));
        let rhs = Rational::new(Int::from(c), Natural::from(d));
        let exact = (a as u128 * d as u128).cmp(&(c as u128 * b as u128));
        prop_assert_eq!(lhs.cmp(&rhs), exact);
    }

    #[test]
    fn factorial_recurrence(n in 1u64..200) {
        let f = Natural::factorial(n);
        let fm1 = Natural::factorial(n - 1);
        prop_assert_eq!(f, fm1.mul_u64(n));
    }

    #[test]
    fn binomial_symmetry(n in 0u64..80, k in 0u64..80) {
        if k <= n {
            prop_assert_eq!(Natural::binomial(n, k), Natural::binomial(n, n - k));
        } else {
            prop_assert_eq!(Natural::binomial(n, k), Natural::zero());
        }
    }
}

fn int_from_i128(v: i128) -> Int {
    if v < 0 {
        -Int::from(Natural::from(v.unsigned_abs()))
    } else {
        Int::from(Natural::from(v as u128))
    }
}
