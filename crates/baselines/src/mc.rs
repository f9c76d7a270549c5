//! Monte Carlo approximation of Banzhaf values (the `MC` baseline).
//!
//! For each variable `x`, sample uniformly random subsets `Y ⊆ X∖{x}` and
//! average the marginal contribution `φ[Y ∪ {x}] − φ[Y]`; the Banzhaf value is
//! `2^{n−1}` times that expectation. This is the randomized
//! absolute-error scheme of Livshits et al. adapted from Shapley to Banzhaf
//! (Sec. 5.1 and Sec. 6 of the paper): it gives only probabilistic guarantees,
//! one more sample may make the estimate worse, and it treats the lineage as a
//! black box.
//!
//! Sampling is organized in **per-variable seed streams**: variable `i` draws
//! its samples from a generator seeded by `derive(seed, i)` rather than from
//! one RNG advancing across the whole run. The sample set is therefore a pure
//! function of `(seed, lineage, options)` — independent of iteration order —
//! which is what lets [`mc_banzhaf_par`] fan the per-variable loops across a
//! [`ThreadPool`] and still return **bit-identical estimates at every thread
//! count**.

use banzhaf_arith::Natural;
use banzhaf_boolean::{Assignment, Dnf, Lineage, Var};
use banzhaf_dtree::{Budget, Interrupted};
use banzhaf_par::{seed, ThreadPool};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

/// Configuration of the Monte Carlo estimator.
#[derive(Clone, Copy, Debug)]
pub struct McOptions {
    /// Number of samples drawn *per variable*. The paper's `MC50#vars`
    /// configuration corresponds to 50 samples per variable.
    pub samples_per_var: u64,
}

impl Default for McOptions {
    fn default() -> Self {
        McOptions { samples_per_var: 50 }
    }
}

/// Estimates the Banzhaf value of every variable of `phi` by Monte Carlo
/// sampling on the calling thread. Returns point estimates (possibly
/// non-integral) per variable.
///
/// Equivalent to [`mc_banzhaf_par`] on a sequential pool; both produce the
/// same estimates for the same `seed`.
pub fn mc_banzhaf(
    phi: &Dnf,
    options: &McOptions,
    seed: u64,
    budget: &Budget,
) -> Result<HashMap<Var, f64>, Interrupted> {
    mc_banzhaf_par(Lineage::Boolean(phi), options, seed, budget, &ThreadPool::sequential())
}

/// Estimates the Banzhaf value of every variable of `lineage`, fanning the
/// per-variable sampling loops across `pool`.
///
/// A Boolean lineage samples the marginal `φ[Y∪{x}] − φ[Y]`; an aggregate
/// one the aggregate marginal `val(Y∪{x}) − val(Y)` evaluated through
/// [`banzhaf_boolean::WeightedDnf::evaluate`], so one sampler serves
/// COUNT/SUM/MIN/MAX alike, signed marginals included (MIN attribution can be
/// negative).
///
/// Estimates are **bit-identical to the sequential path** for any thread
/// count: each variable's samples come from its own derived seed stream, so
/// scheduling never changes what is sampled. The `budget` is shared by all
/// workers (its counters are atomic); a step cap counts samples globally, so
/// under a tight cap the parallel and sequential runs both fail with
/// [`Interrupted`] but may interrupt while working on different variables.
pub fn mc_banzhaf_par(
    lineage: Lineage<'_>,
    options: &McOptions,
    seed: u64,
    budget: &Budget,
    pool: &ThreadPool,
) -> Result<HashMap<Var, f64>, Interrupted> {
    let vars: Vec<Var> = lineage.universe().iter().collect();
    let n = vars.len();
    let scale = Natural::pow2(n.saturating_sub(1)).to_f64();
    let estimates = pool.parallel_map(&vars, |i, &x| {
        let mut rng = StdRng::seed_from_u64(seed::derive(seed, i as u64));
        estimate_one(&vars, x, *options, &mut rng, budget, |y| marginal(lineage, y, x))
            .map(|mean| mean * scale)
    });
    vars.into_iter()
        .zip(estimates)
        .map(|(x, estimate)| estimate.map(|e| (x, e)))
        .collect::<Result<HashMap<Var, f64>, Interrupted>>()
}

/// One variable's sampling loop: the mean of `marginal` over
/// `options.samples_per_var` uniform subsets `Y` of `vars ∖ {x}`.
fn estimate_one(
    vars: &[Var],
    x: Var,
    options: McOptions,
    rng: &mut StdRng,
    budget: &Budget,
    marginal: impl Fn(&mut Assignment) -> f64,
) -> Result<f64, Interrupted> {
    let mut sum = 0.0f64;
    for _ in 0..options.samples_per_var {
        budget.step()?;
        // Sample Y ⊆ X∖{x} uniformly.
        let mut assignment = Assignment::empty();
        for &y in vars {
            if y != x && rng.gen_bool(0.5) {
                assignment.set(y, true);
            }
        }
        sum += marginal(&mut assignment);
    }
    // Boolean marginals are 0 or 1, and f64 sums them exactly: the mean is
    // the flip count over the sample count.
    Ok(sum / options.samples_per_var.max(1) as f64)
}

/// The marginal contribution of `x` to the sampled world `y` (which leaves
/// `x` unset); sets `x` in `y` when it needs the world with `x`.
fn marginal(lineage: Lineage<'_>, y: &mut Assignment, x: Var) -> f64 {
    match lineage {
        Lineage::Boolean(phi) => {
            // Monotone lineage: once Y satisfies φ, adding x cannot turn the
            // query false, so the marginal contribution is 0.
            if phi.evaluate(y) {
                return 0.0;
            }
            y.set(x, true);
            if phi.evaluate(y) {
                1.0
            } else {
                0.0
            }
        }
        Lineage::Aggregate(w) => {
            let without = w.evaluate(y);
            y.set(x, true);
            (w.evaluate(y) - without).to_f64()
        }
    }
}

/// Ranks variables by decreasing Monte Carlo estimate (ties by index).
pub fn rank_estimates(estimates: &HashMap<Var, f64>) -> Vec<Var> {
    let mut vars: Vec<Var> = estimates.keys().copied().collect();
    vars.sort_by(|a, b| {
        estimates[b].partial_cmp(&estimates[a]).unwrap_or(std::cmp::Ordering::Equal).then(a.cmp(b))
    });
    vars
}

#[cfg(test)]
mod tests {
    use super::*;
    use banzhaf_arith::Rational;
    use banzhaf_boolean::{AggregateKind, WeightedDnf};

    fn v(i: u32) -> Var {
        Var(i)
    }

    #[test]
    fn converges_to_exact_values_on_small_functions() {
        // φ = (x ∧ y) ∨ (x ∧ z) ∨ u: exact values x:3, y:1, z:1, u:5.
        let phi = Dnf::from_clauses(vec![vec![v(0), v(1)], vec![v(0), v(2)], vec![v(3)]]);
        let options = McOptions { samples_per_var: 20_000 };
        let estimates = mc_banzhaf(&phi, &options, 42, &Budget::unlimited()).unwrap();
        let exact = [(v(0), 3.0), (v(1), 1.0), (v(2), 1.0), (v(3), 5.0)];
        for (x, expected) in exact {
            let got = estimates[&x];
            assert!(
                (got - expected).abs() < 0.35,
                "estimate for {x} too far off: {got} vs {expected}"
            );
        }
    }

    #[test]
    fn ranking_recovers_clear_winner() {
        let phi = Dnf::from_clauses(vec![vec![v(0), v(1)], vec![v(0), v(2)], vec![v(3)]]);
        let options = McOptions { samples_per_var: 5_000 };
        let estimates = mc_banzhaf(&phi, &options, 7, &Budget::unlimited()).unwrap();
        let ranking = rank_estimates(&estimates);
        assert_eq!(ranking[0], v(3));
    }

    #[test]
    fn deterministic_given_seed() {
        let phi = Dnf::from_clauses(vec![vec![v(0), v(1)], vec![v(1), v(2)]]);
        let options = McOptions { samples_per_var: 100 };
        let a = mc_banzhaf(&phi, &options, 1, &Budget::unlimited()).unwrap();
        let b = mc_banzhaf(&phi, &options, 1, &Budget::unlimited()).unwrap();
        assert_eq!(a, b);
        let c = mc_banzhaf(&phi, &options, 2, &Budget::unlimited()).unwrap();
        assert_ne!(a, c, "different seeds draw different sample sets");
    }

    #[test]
    fn parallel_estimates_bit_identical_to_sequential() {
        let phi = Dnf::from_clauses(vec![
            vec![v(0), v(1)],
            vec![v(1), v(2)],
            vec![v(2), v(3)],
            vec![v(3), v(4)],
            vec![v(4), v(0)],
        ]);
        let options = McOptions { samples_per_var: 500 };
        let sequential = mc_banzhaf(&phi, &options, 0xBA27AF, &Budget::unlimited()).unwrap();
        for threads in [2, 3, 4] {
            let pool = ThreadPool::new(threads);
            let phi = Lineage::Boolean(&phi);
            let parallel =
                mc_banzhaf_par(phi, &options, 0xBA27AF, &Budget::unlimited(), &pool).unwrap();
            assert_eq!(sequential, parallel, "thread count {threads} changed the sample set");
        }
    }

    #[test]
    fn aggregate_estimates_converge_and_stay_thread_invariant() {
        let w = WeightedDnf::from_weighted_clauses(
            AggregateKind::Sum,
            vec![
                (vec![v(0), v(1)], Rational::from(3i64)),
                (vec![v(0), v(2)], Rational::from(-2i64)),
                (vec![v(3)], Rational::from(7i64)),
            ],
        );
        let options = McOptions { samples_per_var: 20_000 };
        let estimates = mc_banzhaf_par(
            Lineage::Aggregate(&w),
            &options,
            42,
            &Budget::unlimited(),
            &ThreadPool::sequential(),
        )
        .unwrap();
        for x in w.universe().iter() {
            let exact = w.brute_force_aggregate_banzhaf(x).to_f64();
            let got = estimates[&x];
            assert!((got - exact).abs() < 1.5, "estimate for {x} too far off: {got} vs {exact}");
        }
        // Bit-identical across thread counts (per-variable seed streams).
        for threads in [2, 4] {
            let pool = ThreadPool::new(threads);
            let parallel =
                mc_banzhaf_par(Lineage::Aggregate(&w), &options, 42, &Budget::unlimited(), &pool)
                    .unwrap();
            assert_eq!(estimates, parallel, "thread count {threads} changed the sample set");
        }
    }

    #[test]
    fn aggregate_min_marginals_can_be_negative() {
        // MIN with a strongly negative clause: the fact enabling it drags the
        // minimum down, so its attribution is negative.
        let w = WeightedDnf::from_weighted_clauses(
            AggregateKind::Min,
            vec![(vec![v(0)], Rational::from(-8i64)), (vec![v(1)], Rational::from(5i64))],
        );
        let options = McOptions { samples_per_var: 5_000 };
        let estimates = mc_banzhaf_par(
            Lineage::Aggregate(&w),
            &options,
            7,
            &Budget::unlimited(),
            &ThreadPool::sequential(),
        )
        .unwrap();
        assert!(estimates[&v(0)] < 0.0, "negative attribution survives sampling");
        assert!(w.brute_force_aggregate_banzhaf(v(0)).is_negative());
    }

    #[test]
    fn budget_exhaustion() {
        let phi = Dnf::from_clauses(vec![vec![v(0), v(1)], vec![v(1), v(2)]]);
        let options = McOptions { samples_per_var: 1_000 };
        let result = mc_banzhaf(&phi, &options, 1, &Budget::with_max_steps(10));
        assert_eq!(result.unwrap_err(), Interrupted);
        // The shared budget also interrupts the parallel path.
        let pool = ThreadPool::new(4);
        let phi = Lineage::Boolean(&phi);
        let result = mc_banzhaf_par(phi, &options, 1, &Budget::with_max_steps(10), &pool);
        assert_eq!(result.unwrap_err(), Interrupted);
    }

    /// `(variable, f64 bits)` of every estimate, in variable order.
    fn bits(estimates: &HashMap<Var, f64>) -> Vec<(u32, u64)> {
        let mut bits: Vec<(u32, u64)> = estimates.iter().map(|(v, e)| (v.0, e.to_bits())).collect();
        bits.sort_unstable();
        bits
    }

    #[test]
    fn golden_estimate_bits() {
        // The exact bits of the sampler's estimates. Both the Boolean
        // short-circuit (a world that already satisfies φ draws no second
        // evaluation) and the order of the RNG draws feed these bits, so a
        // change to either moves them.
        let options = McOptions { samples_per_var: 200 };
        // Example 13 of the paper, seed 7: exact values 3, 1, 1, 5.
        let phi = Dnf::from_clauses(vec![vec![v(0), v(1)], vec![v(0), v(2)], vec![v(3)]]);
        let estimates = mc_banzhaf(&phi, &options, 7, &Budget::unlimited()).unwrap();
        assert_eq!(
            bits(&estimates),
            [
                (0, 0x4009eb851eb851ec), // 3.24
                (1, 0x3fe851eb851eb852), // 0.76
                (2, 0x3fe3333333333333), // 0.6
                (3, 0x4013851eb851eb85), // 4.88
            ]
        );
        // SUM and MIN over the same weighted clauses, on the seed the engine's
        // Monte Carlo backend (seed 7) derives for sample stream 3.
        let golden = [
            (
                AggregateKind::Sum,
                [
                    (0, 0x400a3d70a3d70a3d), // 3.28
                    (1, 0x402651eb851eb852), // 11.16
                    (2, 0xc01fae147ae147ae), // -7.92
                    (3, 0x404c000000000000), // 56
                ],
            ),
            (
                AggregateKind::Min,
                [
                    (0, 0xc034147ae147ae14), // -20.08
                    (1, 0xbfe0a3d70a3d70a4), // -0.52
                    (2, 0xc033a3d70a3d70a4), // -19.64
                    (3, 0x4041c7ae147ae148), // 35.56
                ],
            ),
        ];
        for (kind, expected) in golden {
            let w = WeightedDnf::from_weighted_clauses(
                kind,
                vec![
                    (vec![v(0), v(1)], Rational::from(3i64)),
                    (vec![v(0), v(2)], Rational::from(-2i64)),
                    (vec![v(3)], Rational::from(7i64)),
                ],
            );
            let seed = seed::derive(7, 3);
            let estimates = mc_banzhaf_par(
                Lineage::Aggregate(&w),
                &options,
                seed,
                &Budget::unlimited(),
                &ThreadPool::sequential(),
            )
            .unwrap();
            assert_eq!(bits(&estimates), expected, "{kind}");
        }
    }
}
