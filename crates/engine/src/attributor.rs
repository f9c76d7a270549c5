//! The pluggable [`Attributor`] interface and its backend implementations.

use crate::attribution::{Attribution, EngineStats, Ranked, Score};
use banzhaf::{
    adaban, adaban_all, aggregate_banzhaf_all, exaban_all, exaban_all_with_counts, ichiban_rank,
    ichiban_topk, model_counts, shapley_all, AdaBanOptions, ApproxInterval, Budget, DTree,
    IchiBanOptions, Interrupted, PivotHeuristic, ReadOnce,
};
use banzhaf_arith::Natural;
use banzhaf_baselines::{cnf_proxy, mc_banzhaf_par, sig22_exact, McOptions};
use banzhaf_boolean::{Dnf, Lineage, Var};
use banzhaf_par::{seed, ThreadPool};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// One attribution algorithm behind a uniform interface.
///
/// Implementations wrap the paper's algorithms (ExaBan, AdaBan, IchiBan) and
/// the baselines (Sig22, Monte Carlo, CNF proxy); every new estimator —
/// Kernel Banzhaf, aggregate-query variants — plugs into this same slot.
/// Backends are deterministic given their configuration (the Monte Carlo
/// baseline is deterministic given its seed), and every entry point honours
/// the cooperative `deadline` budget.
///
/// Attributors are `Send + Sync`: one attributor instance serves concurrent
/// callers, which is what lets a [`crate::Session`] fan batch attribution out
/// across a thread pool without cloning backend state.
pub trait Attributor: Send + Sync {
    /// The backend's display name (matches [`crate::Backend::name`]).
    fn name(&self) -> &'static str;

    /// Computes attribution scores for every fact of the lineage's universe,
    /// Boolean or aggregate, from sample stream `stream`.
    ///
    /// Deterministic backends ignore `stream`. Randomized backends use it to
    /// select a well-defined, reproducible sample stream instead of advancing
    /// internal state — the contract batch-parallel execution relies on:
    /// when a [`crate::Session`] assigns stream `base + i` to instance `i`,
    /// the estimates are bit-identical no matter how many workers run the
    /// batch or in which order the instances execute.
    ///
    /// An aggregate lineage (its clauses carry the numeric contribution of
    /// their grounding, under the lineage's own
    /// [`banzhaf_boolean::AggregateKind`]) is attributed only by backends
    /// whose registry descriptor declares [`crate::Backend::aggregates`]. The
    /// session consults the registry before dispatching, so the others treat
    /// one as a programming error and panic rather than fall back silently.
    fn attribute_indexed(
        &self,
        lineage: Lineage<'_>,
        stream: u64,
        deadline: &Budget,
    ) -> Result<Attribution, Interrupted>;

    /// The attribution of a Boolean lineage that the backend answers in
    /// closed form — by a direct pass with no compilation, cheaper than a
    /// cache lookup, as ExaBan does for every read-once lineage — or `None`
    /// (the default) if it needs the full [`Attributor::attribute_indexed`]
    /// run. A [`crate::Session`] asks before every prekey and serves such a
    /// lineage straight from here: no prekey, no cache lookup and no cache
    /// entry, so a refusal must stay cheap too. An override returns the
    /// values and model count the full run would return; it compiles
    /// nothing, so its stats report no steps, no nodes and no wall time.
    fn closed_form(&self, _lineage: &Dnf) -> Option<Attribution> {
        None
    }

    /// Computes attribution scores for every fact of a Boolean lineage.
    fn attribute(&self, lineage: &Dnf, deadline: &Budget) -> Result<Attribution, Interrupted> {
        self.attribute_indexed(Lineage::Boolean(lineage), 0, deadline)
    }

    /// Computes the score of a single fact. The default extracts it from a
    /// full [`Attributor::attribute`] pass; backends that can target one
    /// variable (AdaBan) override this with the cheaper single-variable run.
    ///
    /// A variable outside the lineage's universe has Banzhaf value 0 by
    /// definition; exact backends report that zero as certified.
    fn attribute_var(
        &self,
        lineage: &Dnf,
        x: Var,
        deadline: &Budget,
    ) -> Result<Score, Interrupted> {
        let attribution = self.attribute(lineage, deadline)?;
        Ok(attribution.value(x).cloned().unwrap_or_else(|| {
            if attribution.is_exact() {
                Score::Exact(Natural::zero())
            } else {
                Score::Estimate(0.0)
            }
        }))
    }

    /// Ranks all facts by decreasing Banzhaf value. The default ranks the
    /// scores of a full attribution pass; IchiBan overrides it with the
    /// interval-separation algorithm that can stop before values converge.
    fn rank(&self, lineage: &Dnf, deadline: &Budget) -> Result<Ranked, Interrupted> {
        let attribution = self.attribute(lineage, deadline)?;
        let order = attribution.ranking().into_iter().map(|(v, _)| v).collect();
        Ok(Ranked { order, certified: attribution.is_exact(), stats: attribution.stats })
    }

    /// The `k` facts with the largest Banzhaf values, in decreasing order.
    fn top_k(&self, lineage: &Dnf, k: usize, deadline: &Budget) -> Result<Ranked, Interrupted> {
        let mut ranked = self.rank(lineage, deadline)?;
        ranked.order.truncate(k);
        Ok(ranked)
    }
}

/// The Boolean lineage of `lineage`, for the backend `name` that attributes
/// only Boolean lineages; an aggregate one panics (see
/// [`Attributor::attribute_indexed`]).
fn boolean_only<'a>(name: &str, lineage: Lineage<'a>) -> &'a Dnf {
    match lineage {
        Lineage::Boolean(phi) => phi,
        Lineage::Aggregate(_) => panic!(
            "{name} does not support aggregate lineages; consult the backend registry's \
             `aggregates` capability before dispatching"
        ),
    }
}

/// An attribution carrying only scores and stats; each backend sets the
/// optional fields it computes on top. `values` may come in any order (most
/// backends score into a map); they are sorted by variable here.
fn scored(
    algorithm: &'static str,
    values: impl IntoIterator<Item = (Var, Score)>,
    stats: EngineStats,
) -> Attribution {
    let mut values: Vec<(Var, Score)> = values.into_iter().collect();
    values.sort_unstable_by_key(|&(v, _)| v);
    ascending(algorithm, values, stats)
}

/// [`scored`] for values already in ascending variable order, as ExaBan's
/// passes produce them by universe position.
fn ascending(
    algorithm: &'static str,
    values: Vec<(Var, Score)>,
    stats: EngineStats,
) -> Attribution {
    debug_assert!(values.windows(2).all(|w| w[0].0 < w[1].0), "values ascending by variable");
    Attribution {
        algorithm,
        values,
        model_count: None,
        shapley: None,
        aggregate: None,
        aggregate_total: None,
        degradation: None,
        stats,
    }
}

/// The work of one run over `tree`, started at `start`.
fn tree_stats(tree: &DTree, start: Instant) -> EngineStats {
    EngineStats {
        compile_steps: tree.expansions(),
        dtree_nodes: tree.num_nodes(),
        wall: start.elapsed(),
        ..EngineStats::default()
    }
}

/// ExaBan: full d-tree compilation, then the shared two-pass exact algorithm.
#[derive(Clone, Copy, Debug)]
pub struct ExaBanAttributor {
    /// Shannon pivot-selection heuristic for compilation.
    pub heuristic: PivotHeuristic,
    /// Also compute Shapley values on the same compiled tree.
    pub include_shapley: bool,
}

impl Attributor for ExaBanAttributor {
    fn name(&self) -> &'static str {
        "ExaBan"
    }

    /// A lineage whose ⊙/⊗ decomposition needs no Shannon step (a
    /// read-once lineage) is answered by one direct pass ([`ReadOnce`]);
    /// Shapley values still need the compiled tree.
    fn closed_form(&self, lineage: &Dnf) -> Option<Attribution> {
        if self.include_shapley {
            return None;
        }
        let pass = ReadOnce::of(lineage)?;
        let values = pass.values().map(|(v, b)| (v, Score::Exact(b))).collect();
        Some(Attribution {
            model_count: Some(pass.model_count()),
            ..ascending(self.name(), values, EngineStats::default())
        })
    }

    fn attribute_indexed(
        &self,
        lineage: Lineage<'_>,
        _stream: u64,
        deadline: &Budget,
    ) -> Result<Attribution, Interrupted> {
        let start = Instant::now();
        match lineage {
            Lineage::Boolean(phi) => {
                if let Some(attribution) = self.closed_form(phi) {
                    return Ok(attribution);
                }
                let tree = DTree::compile_full(phi.clone(), self.heuristic, deadline)?;
                // The two-pass algorithm shares one bottom-up count pass
                // across all variables; the optional Shapley pass reuses the
                // same compiled tree (compilation dominates, so Banzhaf +
                // Shapley cost barely more than Banzhaf alone).
                let result = exaban_all(&tree);
                let values = result.values.into_iter().map(|(v, b)| (v, Score::Exact(b))).collect();
                Ok(Attribution {
                    model_count: Some(result.model_count),
                    shapley: self.include_shapley.then(|| shapley_all(&tree)),
                    ..ascending(self.name(), values, tree_stats(&tree, start))
                })
            }
            Lineage::Aggregate(w) => {
                // COUNT/SUM resolve in closed form; MIN/MAX run the
                // rank/threshold decomposition, one ExaBan pass per threshold
                // layer (see `banzhaf::aggregate_banzhaf_all`).
                let (result, cost) = aggregate_banzhaf_all(w, self.heuristic, deadline)?;
                let values =
                    result.values.into_iter().map(|(v, r)| (v, Score::Rational(Box::new(r))));
                let stats = EngineStats {
                    compile_steps: cost.compile_steps,
                    dtree_nodes: cost.dtree_nodes,
                    wall: start.elapsed(),
                    ..EngineStats::default()
                };
                Ok(Attribution {
                    aggregate: Some(w.kind()),
                    aggregate_total: Some(result.total),
                    ..scored(self.name(), values, stats)
                })
            }
        }
    }
}

/// AdaBan: anytime ε-approximation over an incrementally expanded d-tree.
#[derive(Clone, Debug)]
pub struct AdaBanAttributor {
    /// The AdaBan options (ε, heuristic, optimizations).
    pub options: AdaBanOptions,
}

impl Attributor for AdaBanAttributor {
    fn name(&self) -> &'static str {
        "AdaBan"
    }

    fn attribute_indexed(
        &self,
        lineage: Lineage<'_>,
        _stream: u64,
        deadline: &Budget,
    ) -> Result<Attribution, Interrupted> {
        let start = Instant::now();
        let lineage = boolean_only(self.name(), lineage);
        let vars: Vec<Var> = lineage.universe().iter().collect();
        let mut tree = DTree::from_leaf(lineage.clone());
        let intervals = adaban_all(&mut tree, &vars, &self.options, deadline)?;
        // Cross-algorithm reuse on the shared tree: when the incremental
        // compilation happened to complete the d-tree (ε = 0, or small
        // lineages), one bottom-up model-count pass — the same pass ExaBan
        // runs — pins every interval to its exact value and yields the model
        // count, at linear cost in the tree and with zero extra compilation.
        let (values, model_count): (Vec<(Var, Score)>, _) = if tree.is_complete() {
            let counts = model_counts(&tree);
            let exact = exaban_all_with_counts(&tree, &counts);
            let values = intervals
                .into_iter()
                .map(|(v, _)| {
                    let b = exact.value(v).expect("a universe variable").clone();
                    (v, Score::Interval(Box::new(ApproxInterval::new(b.clone(), b))))
                })
                .collect();
            (values, Some(exact.model_count))
        } else {
            let values =
                intervals.into_iter().map(|(v, i)| (v, Score::Interval(Box::new(i)))).collect();
            (values, None)
        };
        Ok(Attribution { model_count, ..scored(self.name(), values, tree_stats(&tree, start)) })
    }

    fn attribute_var(
        &self,
        lineage: &Dnf,
        x: Var,
        deadline: &Budget,
    ) -> Result<Score, Interrupted> {
        let mut tree = DTree::from_leaf(lineage.clone());
        let interval = adaban(&mut tree, x, &self.options, deadline)?;
        Ok(Score::Interval(Box::new(interval)))
    }
}

/// IchiBan: ranking/top-k by interval separation over a shared partial tree.
#[derive(Clone, Debug)]
pub struct IchiBanAttributor {
    /// The IchiBan options (ε or certain mode, heuristic, batch size).
    pub options: IchiBanOptions,
}

impl Attributor for IchiBanAttributor {
    fn name(&self) -> &'static str {
        "IchiBan"
    }

    fn attribute_indexed(
        &self,
        lineage: Lineage<'_>,
        _stream: u64,
        deadline: &Budget,
    ) -> Result<Attribution, Interrupted> {
        let start = Instant::now();
        let mut tree = DTree::from_leaf(boolean_only(self.name(), lineage).clone());
        let ranking = ichiban_rank(&mut tree, &self.options, deadline)?;
        let values = ranking.intervals.into_iter().map(|(v, i)| (v, Score::Interval(Box::new(i))));
        Ok(scored(self.name(), values, tree_stats(&tree, start)))
    }

    fn rank(&self, lineage: &Dnf, deadline: &Budget) -> Result<Ranked, Interrupted> {
        let start = Instant::now();
        let mut tree = DTree::from_leaf(lineage.clone());
        let ranking = ichiban_rank(&mut tree, &self.options, deadline)?;
        Ok(Ranked {
            order: ranking.order,
            certified: ranking.certified,
            stats: tree_stats(&tree, start),
        })
    }

    fn top_k(&self, lineage: &Dnf, k: usize, deadline: &Budget) -> Result<Ranked, Interrupted> {
        let start = Instant::now();
        let mut tree = DTree::from_leaf(lineage.clone());
        let topk = ichiban_topk(&mut tree, k, &self.options, deadline)?;
        Ok(Ranked {
            order: topk.members,
            certified: topk.certified,
            stats: tree_stats(&tree, start),
        })
    }
}

/// The Sig22 exact baseline: CNF encoding + DPLL-style compilation.
#[derive(Clone, Copy, Debug)]
pub struct Sig22Attributor;

impl Attributor for Sig22Attributor {
    fn name(&self) -> &'static str {
        "Sig22"
    }

    fn attribute_indexed(
        &self,
        lineage: Lineage<'_>,
        _stream: u64,
        deadline: &Budget,
    ) -> Result<Attribution, Interrupted> {
        let start = Instant::now();
        let result = sig22_exact(boolean_only(self.name(), lineage), deadline)?;
        let values = result.values.into_iter().map(|(v, b)| (v, Score::Exact(b)));
        let stats = EngineStats {
            compile_steps: result.nodes_explored,
            wall: start.elapsed(),
            ..EngineStats::default()
        };
        Ok(Attribution {
            model_count: Some(result.model_count),
            ..scored(self.name(), values, stats)
        })
    }
}

/// The Monte Carlo baseline. Deterministic given its seed: each call samples
/// from a fresh stream derived from `(seed, stream index)`, where the index
/// is taken from an internal counter (so repeated calls draw independent
/// samples, mirroring a sampling sweep) or supplied explicitly through
/// [`Attributor::attribute_indexed`] (so batch-parallel execution assigns
/// instance `i` the same stream the sequential loop would).
#[derive(Debug)]
pub struct MonteCarloAttributor {
    options: McOptions,
    seed: u64,
    /// Stream index handed to the next plain `attribute` call.
    next_stream: AtomicU64,
    /// Pool for the per-variable sampling loops (sequential by default).
    pool: ThreadPool,
}

impl MonteCarloAttributor {
    /// A Monte Carlo attributor with the given sampling options and seed.
    pub fn new(options: McOptions, seed: u64) -> Self {
        MonteCarloAttributor {
            options,
            seed,
            next_stream: AtomicU64::new(0),
            pool: ThreadPool::sequential(),
        }
    }

    /// Fans the per-variable sampling loops across `pool`. Estimates are
    /// bit-identical to the sequential ones at every thread count (each
    /// variable samples from its own derived seed stream).
    pub fn with_pool(mut self, pool: ThreadPool) -> Self {
        self.pool = pool;
        self
    }
}

impl Attributor for MonteCarloAttributor {
    fn name(&self) -> &'static str {
        "MC"
    }

    fn attribute(&self, lineage: &Dnf, deadline: &Budget) -> Result<Attribution, Interrupted> {
        let stream = self.next_stream.fetch_add(1, Ordering::Relaxed);
        self.attribute_indexed(Lineage::Boolean(lineage), stream, deadline)
    }

    fn attribute_indexed(
        &self,
        lineage: Lineage<'_>,
        stream: u64,
        deadline: &Budget,
    ) -> Result<Attribution, Interrupted> {
        let start = Instant::now();
        let stream_seed = seed::derive(self.seed, stream);
        let estimates = mc_banzhaf_par(lineage, &self.options, stream_seed, deadline, &self.pool)?;
        let values = estimates.into_iter().map(|(v, e)| (v, Score::Estimate(e)));
        let stats = EngineStats { wall: start.elapsed(), ..EngineStats::default() };
        Ok(Attribution {
            aggregate: lineage.aggregate_kind(),
            ..scored(self.name(), values, stats)
        })
    }
}

/// The CNF-proxy ranking heuristic: linear time, no guarantees.
#[derive(Clone, Copy, Debug)]
pub struct CnfProxyAttributor;

impl Attributor for CnfProxyAttributor {
    fn name(&self) -> &'static str {
        "CNFProxy"
    }

    fn attribute_indexed(
        &self,
        lineage: Lineage<'_>,
        _stream: u64,
        deadline: &Budget,
    ) -> Result<Attribution, Interrupted> {
        let start = Instant::now();
        deadline.check_deadline()?;
        let scores = cnf_proxy(boolean_only(self.name(), lineage));
        let values = scores.into_iter().map(|(v, e)| (v, Score::Estimate(e)));
        Ok(scored(
            self.name(),
            values,
            EngineStats { wall: start.elapsed(), ..EngineStats::default() },
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Algorithm, EngineConfig};
    use banzhaf::exaban_all;
    use banzhaf_arith::Int;
    use banzhaf_boolean::{AggregateKind, WeightedDnf};

    fn v(i: u32) -> Var {
        Var(i)
    }

    /// Example 13 of the paper: values x:3, y:1, z:1, u:5; #φ = 11.
    fn example13() -> Dnf {
        Dnf::from_clauses(vec![vec![v(0), v(1)], vec![v(0), v(2)], vec![v(3)]])
    }

    /// A connected lineage with no common variable (needs Shannon expansion).
    fn hard_function() -> Dnf {
        Dnf::from_clauses(vec![
            vec![v(0), v(1)],
            vec![v(1), v(2)],
            vec![v(2), v(3)],
            vec![v(3), v(4)],
            vec![v(4), v(0)],
        ])
    }

    #[test]
    fn exact_backends_agree_with_ground_truth() {
        let phi = example13();
        for algorithm in [Algorithm::ExaBan, Algorithm::Sig22] {
            let attributor = EngineConfig::new(algorithm).attributor();
            let att = attributor.attribute(&phi, &Budget::unlimited()).unwrap();
            assert!(att.is_exact(), "{algorithm}");
            assert_eq!(att.model_count.as_ref().unwrap().to_u64(), Some(11));
            let exact = att.exact_values().unwrap();
            assert_eq!(exact[&v(0)].to_u64(), Some(3));
            assert_eq!(exact[&v(3)].to_u64(), Some(5));
            // Example 13 is read-once, which ExaBan answers without
            // compiling; the ring needs Shannon steps on every exact backend.
            let hard = attributor.attribute(&hard_function(), &Budget::unlimited()).unwrap();
            assert!(hard.stats.compile_steps > 0, "{algorithm} records compile work");
        }
    }

    #[test]
    fn interval_backends_bracket_ground_truth() {
        let phi = hard_function();
        let truth = {
            let tree = DTree::compile_full(
                phi.clone(),
                PivotHeuristic::MostFrequent,
                &Budget::unlimited(),
            )
            .unwrap();
            exaban_all(&tree)
        };
        for algorithm in [Algorithm::AdaBan, Algorithm::IchiBan] {
            let attributor = EngineConfig::new(algorithm).attributor();
            let att = attributor.attribute(&phi, &Budget::unlimited()).unwrap();
            for x in phi.universe().iter() {
                let Score::Interval(interval) = att.value(x).unwrap() else {
                    panic!("{algorithm} returns intervals");
                };
                let exact = truth.value(x).unwrap();
                assert!(&interval.lower <= exact && exact <= &interval.upper, "{algorithm} {x}");
            }
        }
    }

    #[test]
    fn adaban_on_a_completed_tree_pins_values_and_model_count() {
        let phi = example13();
        let attributor = EngineConfig::new(Algorithm::AdaBan).certain().attributor();
        let att = attributor.attribute(&phi, &Budget::unlimited()).unwrap();
        // ε = 0 forces every interval to a point.
        assert!(att.is_exact());
        let exact = att.exact_values().unwrap();
        assert_eq!(exact[&v(0)].to_u64(), Some(3));
        assert_eq!(exact[&v(3)].to_u64(), Some(5));
        // When the shared tree completed, the reused count pass reports #φ.
        if let Some(count) = &att.model_count {
            assert_eq!(count.to_u64(), Some(11));
        }
    }

    #[test]
    fn adaban_single_variable_entry_point() {
        let phi = hard_function();
        let attributor = EngineConfig::new(Algorithm::AdaBan).certain().attributor();
        let score = attributor.attribute_var(&phi, v(1), &Budget::unlimited()).unwrap();
        assert_eq!(Int::from(score.exact().unwrap()), phi.brute_force_banzhaf(v(1)));
    }

    #[test]
    fn out_of_universe_variable_scores_certified_zero_on_exact_backends() {
        let phi = example13();
        let exa = EngineConfig::new(Algorithm::ExaBan).attributor();
        let score = exa.attribute_var(&phi, v(99), &Budget::unlimited()).unwrap();
        assert_eq!(score.exact().unwrap().to_u64(), Some(0));
        // A randomized backend reports the same zero, but uncertified.
        let mc = EngineConfig::new(Algorithm::MonteCarlo).attributor();
        let score = mc.attribute_var(&phi, v(99), &Budget::unlimited()).unwrap();
        assert!(score.exact().is_none());
        assert_eq!(score.point(), 0.0);
    }

    #[test]
    fn ichiban_topk_certified_matches_exact_topk() {
        let phi = example13();
        let attributor = EngineConfig::new(Algorithm::IchiBan).certain().attributor();
        let topk = attributor.top_k(&phi, 2, &Budget::unlimited()).unwrap();
        assert!(topk.certified);
        assert_eq!(topk.order, vec![v(3), v(0)]);
    }

    #[test]
    fn default_topk_over_exact_scores_is_certified() {
        let phi = example13();
        let attributor = EngineConfig::new(Algorithm::ExaBan).attributor();
        let topk = attributor.top_k(&phi, 2, &Budget::unlimited()).unwrap();
        assert!(topk.certified);
        assert_eq!(topk.order, vec![v(3), v(0)]);
        // The heuristic baseline ranks but does not certify.
        let proxy = EngineConfig::new(Algorithm::CnfProxy).attributor();
        let ranked = proxy.rank(&phi, &Budget::unlimited()).unwrap();
        assert!(!ranked.certified);
        assert_eq!(ranked.order.len(), 4);
    }

    #[test]
    fn monte_carlo_is_deterministic_given_seed() {
        let phi = example13();
        let a = EngineConfig::new(Algorithm::MonteCarlo).with_seed(9).attributor();
        let b = EngineConfig::new(Algorithm::MonteCarlo).with_seed(9).attributor();
        let ea = a.attribute(&phi, &Budget::unlimited()).unwrap().estimates();
        let eb = b.attribute(&phi, &Budget::unlimited()).unwrap().estimates();
        assert_eq!(ea, eb);
    }

    #[test]
    fn budget_exhaustion_propagates() {
        let phi = hard_function();
        for algorithm in [Algorithm::ExaBan, Algorithm::AdaBan, Algorithm::Sig22] {
            let attributor = EngineConfig::new(algorithm).certain().attributor();
            let result = attributor.attribute(&phi, &Budget::with_max_steps(1));
            assert_eq!(result.unwrap_err(), Interrupted, "{algorithm}");
        }
    }

    fn example_weighted(kind: AggregateKind) -> WeightedDnf {
        use banzhaf_arith::Rational;
        WeightedDnf::from_weighted_clauses(
            kind,
            vec![
                (vec![v(0), v(1)], Rational::from(3i64)),
                (vec![v(0), v(2)], Rational::from(-2i64)),
                (vec![v(3)], Rational::from(7i64)),
            ],
        )
    }

    #[test]
    fn exaban_aggregate_matches_brute_force_for_every_kind() {
        for kind in AggregateKind::ALL {
            let w = example_weighted(kind);
            let attributor = EngineConfig::new(Algorithm::ExaBan).attributor();
            let att = attributor
                .attribute_indexed(Lineage::Aggregate(&w), 0, &Budget::unlimited())
                .unwrap();
            assert!(att.is_exact(), "{kind}");
            assert_eq!(att.aggregate, Some(kind));
            assert_eq!(att.aggregate_total.as_ref(), Some(&w.brute_force_total()), "{kind}");
            for x in w.universe().iter() {
                assert_eq!(
                    att.value(x).unwrap().exact_rational().unwrap(),
                    w.brute_force_aggregate_banzhaf(x),
                    "{kind} {x}"
                );
            }
        }
    }

    #[test]
    fn mc_aggregate_is_deterministic_given_seed_and_stream() {
        let w = example_weighted(AggregateKind::Sum);
        let a = EngineConfig::new(Algorithm::MonteCarlo).with_seed(9).attributor();
        let b = EngineConfig::new(Algorithm::MonteCarlo).with_seed(9).attributor();
        let ea = a.attribute_indexed(Lineage::Aggregate(&w), 0, &Budget::unlimited()).unwrap();
        let eb = b.attribute_indexed(Lineage::Aggregate(&w), 0, &Budget::unlimited()).unwrap();
        assert_eq!(ea.estimates(), eb.estimates());
        assert_eq!(ea.aggregate, Some(AggregateKind::Sum));
        assert!(ea.aggregate_total.is_none(), "estimates certify no exact total");
        // Stream `s` samples from the seed the backend derives for it.
        let mc = MonteCarloAttributor::new(McOptions::default(), 9);
        let got = mc.attribute_indexed(Lineage::Aggregate(&w), 3, &Budget::unlimited()).unwrap();
        let sampled = mc_banzhaf_par(
            Lineage::Aggregate(&w),
            &McOptions::default(),
            seed::derive(9, 3),
            &Budget::unlimited(),
            &ThreadPool::sequential(),
        )
        .unwrap();
        assert_eq!(got.estimates(), sampled);
    }

    #[test]
    #[should_panic(expected = "does not support aggregate lineages")]
    fn non_aggregate_backend_panics_on_aggregate_dispatch() {
        let w = example_weighted(AggregateKind::Count);
        let attributor = EngineConfig::new(Algorithm::Sig22).attributor();
        let _ = attributor.attribute_indexed(Lineage::Aggregate(&w), 0, &Budget::unlimited());
    }
}
