//! Answer checking, done outside every timed section and outside set-up.
//!
//! Lineages of at most [`BRUTE_MAX_VARS`] variables are checked against
//! brute-force enumeration, larger ones against a cache-off session. An
//! isomorph is checked against its base's reference carried through the
//! renaming.

use banzhaf_boolean::{Dnf, Var};
use banzhaf_db::Value;
use banzhaf_engine::{Attribution, CacheConfig, Engine, EngineConfig, QueryAttribution, Session};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

pub const BRUTE_MAX_VARS: usize = 16;

/// Exact Banzhaf values as `(variable, decimal value)`, ascending by variable.
pub type Values = Vec<(u32, String)>;

/// The exact values of an attribution; `None` if any score is inexact.
pub fn values_of(attribution: &Attribution) -> Option<Values> {
    let mut values: Values = attribution
        .values
        .iter()
        .map(|(v, s)| s.exact().map(|n| (v.0, n.to_string())))
        .collect::<Option<_>>()?;
    values.sort_unstable();
    Some(values)
}

/// `base`'s values carried through a `(base variable, renamed variable)` map.
pub fn transfer(base: &Values, map: &[(Var, Var)]) -> Values {
    let mut values: Values = base
        .iter()
        .map(|(v, value)| {
            let (_, to) = map.iter().find(|(from, _)| from.0 == *v).expect("renaming covers base");
            (to.0, value.clone())
        })
        .collect();
    values.sort_unstable();
    values
}

pub fn digest<T: Hash>(value: &T) -> u64 {
    let mut hasher = DefaultHasher::new();
    value.hash(&mut hasher);
    hasher.finish()
}

/// Digest of a query's answers, independent of answer order: each answer's
/// tuple with its exact values (`None` for an unfinished or inexact answer).
pub fn digest_answers<'a>(answers: impl Iterator<Item = (&'a [Value], Option<Values>)>) -> u64 {
    let mut rows: Vec<(&[Value], Option<Values>)> = answers.collect();
    rows.sort_by(|a, b| a.0.cmp(b.0));
    digest(&rows)
}

pub fn digest_explained(explained: &QueryAttribution) -> u64 {
    digest_answers(
        explained.answers.iter().map(|a| (a.tuple.as_slice(), a.attribution().and_then(values_of))),
    )
}

/// Computes reference values: brute force up to [`BRUTE_MAX_VARS`]
/// variables, otherwise a session of a cache-off engine.
pub struct Referee {
    cold: Session,
}

impl Referee {
    pub fn new() -> Self {
        let engine =
            Engine::new(EngineConfig::default().with_cache_config(CacheConfig::disabled()));
        Referee { cold: engine.session() }
    }

    pub fn reference(&mut self, lineage: &Dnf) -> Option<Values> {
        if lineage.num_vars() <= BRUTE_MAX_VARS {
            let mut values: Values = lineage
                .brute_force_all_banzhaf()
                .into_iter()
                .map(|(v, value)| (v.0, value.to_string()))
                .collect();
            values.sort_unstable();
            Some(values)
        } else {
            self.cold.attribute(lineage).ok().as_ref().and_then(values_of)
        }
    }

    /// The reference digest of explaining `lineages` (with their answer
    /// tuples), in the form of [`digest_explained`].
    pub fn reference_answers<'a>(
        &mut self,
        answers: impl Iterator<Item = (&'a [Value], &'a Dnf)>,
    ) -> u64 {
        let rows: Vec<(&[Value], Option<Values>)> =
            answers.map(|(tuple, lineage)| (tuple, self.reference(lineage))).collect();
        digest_answers(rows.into_iter())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn references_agree_with_the_cached_engine() {
        // Example 13 of the paper (brute force), and 20 disjoint copies of it
        // (80 variables: the cache-off session).
        let phi = Dnf::from_clauses(vec![vec![Var(0), Var(1)], vec![Var(0), Var(2)], vec![Var(3)]]);
        let big = Dnf::from_clauses((0..20u32).flat_map(|k| {
            let v = |i: u32| Var(4 * k + i);
            [vec![v(0), v(1)], vec![v(0), v(2)], vec![v(3)]]
        }));
        let mut referee = Referee::new();
        let mut cached = Engine::new(EngineConfig::default()).session();
        for lineage in [&phi, &big] {
            let reference = referee.reference(lineage).unwrap();
            assert_eq!(reference.len(), lineage.num_vars());
            assert_eq!(values_of(&cached.attribute(lineage).unwrap()), Some(reference));
        }
    }

    #[test]
    fn values_travel_through_a_renaming() {
        let base: Values = vec![(0, "3".into()), (1, "1".into())];
        let map = [(Var(0), Var(20)), (Var(1), Var(7))];
        assert_eq!(transfer(&base, &map), vec![(7, "1".into()), (20, "3".into())]);
    }

    #[test]
    fn answer_digests_ignore_answer_order() {
        let (a, b) = ([Value::from(1)], [Value::from(2)]);
        let rows = [(&a[..], Some(vec![(0, "1".to_owned())])), (&b[..], None)];
        let forward = digest_answers(rows.iter().cloned());
        let backward = digest_answers(rows.iter().rev().cloned());
        assert_eq!(forward, backward);
        assert_ne!(forward, digest_answers(rows[..1].iter().cloned()));
    }
}
