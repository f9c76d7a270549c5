//! The unified result type returned by every [`crate::Attributor`].

use crate::config::Algorithm;
use banzhaf::{ApproxInterval, ShapleyValue};
use banzhaf_arith::{Natural, Rational};
use banzhaf_boolean::AggregateKind;
use banzhaf_boolean::Var;
use std::cmp::Ordering;
use std::collections::HashMap;
use std::time::Duration;

/// The attribution score of one fact, at whatever precision the backend
/// provides: an exact value, a certified interval, or a point estimate with
/// no guarantee.
///
/// The two wide variants are boxed, so a score takes 32 bytes instead of 56:
/// exact scores, by far the most common, fill every attribution map and
/// every cache entry.
#[derive(Clone, Debug)]
pub enum Score {
    /// An exact Banzhaf value (ExaBan, Sig22, AdaBan with ε = 0).
    Exact(Natural),
    /// An exact *aggregate* Banzhaf value — a signed rational, since SUM
    /// weights are arbitrary and MIN attribution can be negative.
    Rational(Box<Rational>),
    /// A certified interval containing the exact value (AdaBan, IchiBan).
    Interval(Box<ApproxInterval>),
    /// A point estimate with no deterministic guarantee (MC, CNF proxy).
    Estimate(f64),
}

impl Score {
    /// The point value used for ranking and reporting: the exact value, the
    /// interval midpoint, or the estimate itself.
    pub fn point(&self) -> f64 {
        match self {
            Score::Exact(b) => b.to_f64(),
            Score::Rational(r) => r.to_f64(),
            Score::Interval(i) => i.midpoint(),
            Score::Estimate(e) => *e,
        }
    }

    /// The exact value, if this score certifies one (an [`Score::Exact`]
    /// value or a single-point interval). Exact aggregate scores are rational
    /// and surface through [`Score::exact_rational`] instead.
    pub fn exact(&self) -> Option<Natural> {
        match self {
            Score::Exact(b) => Some(b.clone()),
            Score::Interval(i) if i.is_exact() => Some(i.lower.clone()),
            _ => None,
        }
    }

    /// The exact value as a signed rational, if this score certifies one —
    /// the common exact view across Boolean and aggregate attributions.
    pub fn exact_rational(&self) -> Option<Rational> {
        match self {
            Score::Rational(r) => Some((**r).clone()),
            _ => self.exact().map(|b| Rational::from(&b)),
        }
    }

    /// `true` iff this score certifies an exact value (Boolean or aggregate).
    pub fn is_exact(&self) -> bool {
        self.exact_rational().is_some()
    }

    /// Compares two scores for ranking purposes: exact values compare
    /// precisely (no `f64` round-off on huge values), everything else falls
    /// back to the point value.
    pub fn cmp_points(&self, other: &Score) -> Ordering {
        match (self, other) {
            (Score::Exact(a), Score::Exact(b)) => a.cmp(b),
            (Score::Rational(a), Score::Rational(b)) => a.cmp(b),
            _ => self.point().partial_cmp(&other.point()).unwrap_or(Ordering::Equal),
        }
    }
}

/// Per-attribution instrumentation recorded by every backend.
#[derive(Clone, Copy, Debug, Default)]
pub struct EngineStats {
    /// Knowledge-compilation steps performed: d-tree expansions for the
    /// tree-based algorithms, DPLL recursion nodes for Sig22, 0 for the
    /// compilation-free baselines — and 0 on a cache hit or a closed form
    /// ([`crate::Attributor::closed_form`]).
    pub compile_steps: u64,
    /// Size of the (possibly partial) d-tree after the run, in nodes.
    pub dtree_nodes: usize,
    /// Wall-clock time spent inside the backend; 0 for a cache hit and for
    /// a closed form ([`crate::Attributor::closed_form`]), whose one linear
    /// pass costs about as much as the two clock reads that would time it.
    pub wall: Duration,
    /// `true` iff the result was served from the session's d-tree cache.
    pub cache_hit: bool,
    /// Colour-refinement work spent canonicalizing the lineage for the
    /// shared cache's order-insensitive key (0 when the backend was invoked
    /// directly, without a session). Unlike `compile_steps` this cost is
    /// paid on canonical hits as well as misses (vacant fingerprints and
    /// exact presentation matches pay none) — the bench layer's
    /// `canon_hit_rate` experiment weighs it against the compile work the
    /// extra hits save.
    pub canon_steps: u64,
    /// Canonical keys this attribution actually computed (its own
    /// shape plus any still-unkeyed cache residents or in-batch mates it had
    /// to settle against; 0 when the fingerprint pre-key or an exact
    /// presentation match resolved the lookup, or when the backend was
    /// invoked directly).
    pub canon_searches: u64,
    /// 1 when the cache lookup was resolved without any canonicalization
    /// search because the lineage's cheap isomorphism-invariant fingerprint
    /// had no resident entry (a definite miss), 0 otherwise.
    pub prekey_skips: u64,
    /// `true` iff the primary backend failed and this result was produced by
    /// a fallback rung of the session's [`crate::FallbackPolicy`] ladder.
    pub degraded: bool,
    /// Steps charged to fallback rungs (both the failed intermediate rungs
    /// and the one that produced this result); 0 for a primary result.
    pub fallback_steps: u64,
}

/// Why the primary attributor failed, triggering the fallback ladder.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DegradeReason {
    /// The primary attributor exhausted its budget (deadline or step cap).
    BudgetExhausted,
    /// The worker compiling the primary attribution panicked; the partial
    /// d-tree was discarded (quarantined from the shared cache) and the
    /// lineage re-attributed on a fallback rung.
    WorkerPanic,
}

/// Provenance of a degraded result: which rung of the fallback ladder
/// produced it, why the primary attributor failed, and what that failed
/// attempt cost before the ladder took over.
#[derive(Clone, Copy, Debug)]
pub struct Degradation {
    /// The algorithm of the rung that produced this result.
    pub rung: Algorithm,
    /// Why the primary attributor failed.
    pub reason: DegradeReason,
    /// Steps the failed primary attempt (plus any failed intermediate rungs)
    /// had consumed when this rung started.
    pub budget_spent: u64,
}

/// The unified attribution result: one [`Score`] per fact of the lineage's
/// universe, the model count when the backend certifies one, optional Shapley
/// values, and per-run [`EngineStats`].
#[derive(Clone, Debug)]
pub struct Attribution {
    /// The backend that produced the result (an [`crate::Algorithm`] name).
    pub algorithm: &'static str,
    /// One score per variable of the lineage's universe.
    pub values: HashMap<Var, Score>,
    /// The exact model count `#φ`, when the backend computes one.
    pub model_count: Option<Natural>,
    /// Exact Shapley values, when requested from an exact backend.
    pub shapley: Option<HashMap<Var, ShapleyValue>>,
    /// The aggregate this attribution explains, when the lineage was a
    /// weighted aggregate lineage rather than a Boolean answer.
    pub aggregate: Option<AggregateKind>,
    /// `Σ_Y val(Y)` over all worlds — the aggregate analogue of the model
    /// count, reported by the exact aggregate backends.
    pub aggregate_total: Option<Rational>,
    /// Instrumentation for this attribution.
    pub stats: EngineStats,
    /// `Some` iff this result came from a fallback rung rather than the
    /// configured primary algorithm (see [`crate::FallbackPolicy`]).
    pub degradation: Option<Degradation>,
}

impl Attribution {
    /// The score of one fact, if it is in the lineage's universe.
    pub fn value(&self, v: Var) -> Option<&Score> {
        self.values.get(&v)
    }

    /// Facts ordered by decreasing score (ties by variable index).
    pub fn ranking(&self) -> Vec<(Var, Score)> {
        let mut items: Vec<(Var, Score)> =
            self.values.iter().map(|(v, s)| (*v, s.clone())).collect();
        items.sort_by(|(va, sa), (vb, sb)| sb.cmp_points(sa).then(va.cmp(vb)));
        items
    }

    /// The `k` facts with the largest scores.
    pub fn top_k(&self, k: usize) -> Vec<(Var, Score)> {
        self.ranking().into_iter().take(k).collect()
    }

    /// All values as exact naturals, when every score certifies one.
    pub fn exact_values(&self) -> Option<HashMap<Var, Natural>> {
        self.values.iter().map(|(v, s)| s.exact().map(|b| (*v, b))).collect()
    }

    /// All values as `f64` point estimates (exact → lossy, interval →
    /// midpoint), the shape the error-measurement experiments consume.
    pub fn estimates(&self) -> HashMap<Var, f64> {
        self.values.iter().map(|(v, s)| (*v, s.point())).collect()
    }

    /// `true` iff every score is certified exact.
    pub fn is_exact(&self) -> bool {
        self.values.values().all(Score::is_exact)
    }
}

/// A ranking/top-k answer: the selected facts in decreasing order plus
/// whether the order is certified (interval separation or exact values)
/// rather than decided by ε-relaxed point estimates.
#[derive(Clone, Debug)]
pub struct Ranked {
    /// The facts, ordered by decreasing (estimated) Banzhaf value.
    pub order: Vec<Var>,
    /// `true` iff the selection/order is certified.
    pub certified: bool,
    /// Instrumentation for this run.
    pub stats: EngineStats,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(i: u32) -> Var {
        Var(i)
    }

    fn exact_attribution(pairs: &[(u32, u64)]) -> Attribution {
        Attribution {
            algorithm: "test",
            values: pairs.iter().map(|&(i, b)| (v(i), Score::Exact(Natural::from(b)))).collect(),
            model_count: None,
            shapley: None,
            aggregate: None,
            aggregate_total: None,
            stats: EngineStats::default(),
            degradation: None,
        }
    }

    #[test]
    fn ranking_orders_by_value_then_index() {
        let att = exact_attribution(&[(0, 3), (1, 5), (2, 3), (3, 1)]);
        let order: Vec<Var> = att.ranking().into_iter().map(|(x, _)| x).collect();
        assert_eq!(order, vec![v(1), v(0), v(2), v(3)]);
        assert_eq!(att.top_k(2).len(), 2);
        assert!(att.is_exact());
        assert_eq!(att.exact_values().unwrap()[&v(1)].to_u64(), Some(5));
    }

    #[test]
    fn scores_expose_points_and_exactness() {
        let exact = Score::Exact(Natural::from(4u64));
        assert_eq!(exact.point(), 4.0);
        assert_eq!(exact.exact().unwrap().to_u64(), Some(4));
        let interval = Score::Interval(Box::new(ApproxInterval::new(
            Natural::from(2u64),
            Natural::from(6u64),
        )));
        assert_eq!(interval.point(), 4.0);
        assert!(interval.exact().is_none());
        let pinned = Score::Interval(Box::new(ApproxInterval::new(
            Natural::from(3u64),
            Natural::from(3u64),
        )));
        assert_eq!(pinned.exact().unwrap().to_u64(), Some(3));
        let estimate = Score::Estimate(1.5);
        assert!(estimate.exact().is_none());
        assert_eq!(exact.cmp_points(&estimate), Ordering::Greater);
        // Aggregate scores are exact rationals: no `Natural` view, but the
        // exact-rational view and the precise comparison both see them.
        let rational = Score::Rational(Box::new(Rational::new(
            banzhaf_arith::Int::from(-3i64),
            Natural::from(2u64),
        )));
        assert!(rational.exact().is_none());
        assert!(rational.is_exact());
        assert_eq!(rational.point(), -1.5);
        assert_eq!(rational.exact_rational().unwrap().to_f64(), -1.5);
        assert_eq!(exact.exact_rational().unwrap().to_f64(), 4.0);
        let larger = Score::Rational(Box::new(Rational::from(1i64)));
        assert_eq!(rational.cmp_points(&larger), Ordering::Less);
    }

    #[test]
    fn rational_scores_keep_the_attribution_exact() {
        let mut att = exact_attribution(&[(0, 3)]);
        att.values.insert(v(1), Score::Rational(Box::new(Rational::from(-2i64))));
        att.aggregate = Some(AggregateKind::Sum);
        assert!(att.is_exact());
        assert!(att.exact_values().is_none(), "a rational score has no Natural view");
        let order: Vec<Var> = att.ranking().into_iter().map(|(x, _)| x).collect();
        assert_eq!(order, vec![v(0), v(1)]);
    }

    #[test]
    fn mixed_attribution_is_not_exact() {
        let mut att = exact_attribution(&[(0, 3)]);
        att.values.insert(v(1), Score::Estimate(2.0));
        assert!(!att.is_exact());
        assert!(att.exact_values().is_none());
        assert_eq!(att.estimates().len(), 2);
    }
}
