//! Shared instrumentation: run every algorithm on every instance of a corpus
//! under a per-instance budget and record runtimes, successes and outputs.
//!
//! All algorithm dispatch flows through [`banzhaf_engine::Attributor`]
//! objects built from the shared [`HarnessConfig`]; the runner never wires a
//! d-tree compilation to an algorithm function by hand.

use banzhaf::{Budget, Var};
use banzhaf_arith::Natural;
use banzhaf_boolean::Dnf;
use banzhaf_engine::{Algorithm, Attribution, CacheConfig, Engine, EngineConfig};
use banzhaf_par::ThreadPool;
use banzhaf_workloads::{academic_like, imdb_like, tpch_like, Corpus, DatasetSpec};
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// Harness configuration shared by all experiments.
#[derive(Clone, Debug)]
pub struct HarnessConfig {
    /// Per-instance, per-algorithm timeout (the paper uses one hour on a
    /// server; the laptop-scale default here is one second).
    pub timeout: Duration,
    /// Scale factor passed to the synthetic dataset generators.
    pub scale: usize,
    /// Relative error used for AdaBan / IchiBan (the paper's headline setting
    /// is 0.1).
    pub epsilon: String,
    /// Monte Carlo samples per variable (the paper's `MC50#vars`).
    pub mc_samples_per_var: u64,
    /// RNG seed for dataset generation and sampling.
    pub seed: u64,
    /// Top-k size used for the ranking experiments.
    pub topk: usize,
    /// Worker threads for the sweep's instance loop and the engine sessions
    /// (`1` = sequential, `0` = one per CPU). Recorded per-fact scores are
    /// identical at every thread count for completed instances; note that
    /// under the sweep's *wall-clock* timeouts, core contention between
    /// parallel instances can change which instances finish in time (the
    /// engine's bit-identity guarantee is exact for step-cap and unlimited
    /// budgets).
    pub threads: usize,
}

impl Default for HarnessConfig {
    fn default() -> Self {
        HarnessConfig {
            timeout: Duration::from_millis(500),
            scale: 1,
            epsilon: "0.1".to_owned(),
            mc_samples_per_var: 50,
            seed: 0xBA27AF,
            topk: 10,
            threads: 1,
        }
    }
}

impl HarnessConfig {
    /// The dataset spec corresponding to this configuration.
    pub fn dataset_spec(&self) -> DatasetSpec {
        DatasetSpec { scale: self.scale, seed: self.seed }
    }

    /// Builds the three corpora.
    pub fn corpora(&self) -> Vec<Corpus> {
        let spec = self.dataset_spec();
        vec![academic_like(&spec), imdb_like(&spec), tpch_like(&spec)]
    }

    /// The [`EngineConfig`] running `algorithm` under this harness's timeout,
    /// ε and sampling parameters. Per-instance runs measure each algorithm in
    /// isolation, so the session cache is off by default.
    pub fn engine_config(&self, algorithm: Algorithm) -> EngineConfig {
        EngineConfig::new(algorithm)
            .with_epsilon_str(&self.epsilon)
            .with_timeout(self.timeout)
            .with_seed(self.seed)
            .with_cache_config(CacheConfig::disabled())
            .with_threads(self.threads)
    }

    /// The thread pool the sweep's instance loop fans out on.
    pub fn pool(&self) -> ThreadPool {
        ThreadPool::new(self.threads)
    }
}

/// Outcome of one algorithm on one instance.
#[derive(Clone, Copy, Debug, Default)]
pub struct AlgoRun {
    /// Wall-clock seconds spent (up to the timeout).
    pub seconds: f64,
    /// Whether the algorithm finished within the budget.
    pub success: bool,
    /// Knowledge-compilation steps reported by the engine (d-tree expansions
    /// or DPLL nodes; 0 for compilation-free baselines and failed runs).
    pub steps: u64,
}

/// Everything recorded about one lineage instance.
#[derive(Clone, Debug)]
pub struct InstanceRecord {
    /// Corpus (dataset family) name.
    pub corpus: String,
    /// Query name within the corpus.
    pub query: String,
    /// Number of lineage variables.
    pub num_vars: usize,
    /// Number of lineage clauses.
    pub num_clauses: usize,
    /// ExaBan outcome (full compilation + all-variables exact values).
    pub exaban: AlgoRun,
    /// Sig22 baseline outcome.
    pub sig22: AlgoRun,
    /// AdaBan outcome (all variables, relative error ε).
    pub adaban: AlgoRun,
    /// Monte Carlo outcome.
    pub mc: AlgoRun,
    /// IchiBan-ε top-k outcome.
    pub ichiban: AlgoRun,
    /// Exact Banzhaf values (when ExaBan succeeded).
    pub exact: Option<HashMap<Var, Natural>>,
    /// AdaBan interval midpoints (when AdaBan succeeded).
    pub adaban_estimates: Option<HashMap<Var, f64>>,
    /// Monte Carlo estimates (when MC succeeded).
    pub mc_estimates: Option<HashMap<Var, f64>>,
    /// CNF-proxy scores (always available; linear time).
    pub proxy_scores: HashMap<Var, f64>,
    /// IchiBan-ε top-k members (when it succeeded).
    pub ichiban_topk: Option<Vec<Var>>,
}

impl InstanceRecord {
    /// Ground-truth top-k variables by exact Banzhaf value, if available.
    pub fn exact_topk(&self, k: usize) -> Option<Vec<Var>> {
        let exact = self.exact.as_ref()?;
        let mut vars: Vec<(&Var, &Natural)> = exact.iter().collect();
        vars.sort_by(|(va, ba), (vb, bb)| bb.cmp(ba).then(va.cmp(vb)));
        Some(vars.into_iter().take(k).map(|(v, _)| *v).collect())
    }
}

fn timed<T>(f: impl FnOnce() -> Option<T>) -> (AlgoRun, Option<T>) {
    let start = Instant::now();
    let out = f();
    let seconds = start.elapsed().as_secs_f64();
    (AlgoRun { seconds, success: out.is_some(), steps: 0 }, out)
}

fn attribution_steps(att: Option<&Attribution>) -> u64 {
    att.map(|a| a.stats.compile_steps).unwrap_or(0)
}

/// Runs every algorithm on one lineage and records the outcomes.
///
/// `instance_seed` varies the Monte Carlo sampling across instances while
/// keeping the sweep deterministic.
pub fn run_instance(
    corpus: &str,
    query: &str,
    lineage: &Dnf,
    config: &HarnessConfig,
    instance_seed: u64,
) -> InstanceRecord {
    let budget = || Budget::with_timeout(config.timeout);

    // ExaBan: full compilation + all-variables pass.
    let exa = config.engine_config(Algorithm::ExaBan).attributor();
    let (mut exaban, exa_att) = timed(|| exa.attribute(lineage, &budget()).ok());
    exaban.steps = attribution_steps(exa_att.as_ref());
    let exact = exa_att.as_ref().and_then(Attribution::exact_values);

    // Sig22 baseline.
    let sig = config.engine_config(Algorithm::Sig22).attributor();
    let (mut sig22, sig_att) = timed(|| sig.attribute(lineage, &budget()).ok());
    sig22.steps = attribution_steps(sig_att.as_ref());

    // AdaBan with relative error ε over all variables.
    let ada = config.engine_config(Algorithm::AdaBan).attributor();
    let (mut adaban, ada_att) = timed(|| ada.attribute(lineage, &budget()).ok());
    adaban.steps = attribution_steps(ada_att.as_ref());
    let adaban_estimates = ada_att.as_ref().map(Attribution::estimates);

    // Monte Carlo with 50·#vars samples in total (50 per variable). The
    // sweep already parallelizes at the instance level, so the estimator
    // keeps its per-variable loop sequential — nesting pools would
    // oversubscribe cores without changing the (stream-seeded) estimates.
    let mc_attr = config
        .engine_config(Algorithm::MonteCarlo)
        .with_seed(config.seed.wrapping_add(instance_seed))
        .with_threads(1)
        .attributor();
    let (mc, mc_att) = timed(|| mc_attr.attribute(lineage, &budget()).ok());
    let mc_estimates = mc_att.as_ref().map(Attribution::estimates);

    // IchiBan-ε top-k.
    let ichi = config.engine_config(Algorithm::IchiBan).attributor();
    let (mut ichiban, ranked) = timed(|| ichi.top_k(lineage, config.topk, &budget()).ok());
    ichiban.steps = ranked.as_ref().map(|r| r.stats.compile_steps).unwrap_or(0);
    let ichiban_topk = ranked.map(|r| r.order);

    // CNF proxy (linear time, never budgeted out in practice).
    let proxy = config.engine_config(Algorithm::CnfProxy).attributor();
    let proxy_scores =
        proxy.attribute(lineage, &Budget::unlimited()).map(|a| a.estimates()).unwrap_or_default();

    InstanceRecord {
        corpus: corpus.to_owned(),
        query: query.to_owned(),
        num_vars: lineage.num_vars(),
        num_clauses: lineage.num_clauses(),
        exaban,
        sig22,
        adaban,
        mc,
        ichiban,
        exact,
        adaban_estimates,
        mc_estimates,
        proxy_scores,
        ichiban_topk,
    }
}

/// Runs the full sweep over all corpora and returns one record per instance.
///
/// Instances are fanned across [`HarnessConfig::threads`] workers; the
/// records come back in the same deterministic corpus/instance order as the
/// sequential sweep, and every *completed* instance records identical scores
/// at any thread count. Parallel runs contend for cores, so under the
/// per-algorithm wall-clock timeout a borderline instance may time out at
/// one thread count and finish at another, and per-instance timings are for
/// trend reading, not for the paper's tables.
pub fn run_sweep(config: &HarnessConfig) -> Vec<InstanceRecord> {
    let corpora = config.corpora();
    // A sweep-global index keeps the Monte Carlo sample streams independent
    // across corpora (a per-corpus index would replay the same seeds for
    // every corpus).
    let work: Vec<(&str, &str, &Dnf)> = corpora
        .iter()
        .flat_map(|corpus| {
            corpus
                .instances
                .iter()
                .map(|instance| (corpus.name.as_str(), instance.query.as_str(), &instance.lineage))
        })
        .collect();
    config.pool().parallel_map(&work, |sweep_index, &(corpus, query, lineage)| {
        run_instance(corpus, query, lineage, config, sweep_index as u64)
    })
}

/// Outcome of running one corpus through an engine [`banzhaf_engine::Session`]
/// with the d-tree cache enabled vs disabled.
#[derive(Clone, Copy, Debug, Default)]
pub struct CacheComparison {
    /// Instances attributed (in both runs).
    pub instances: usize,
    /// Cache hits observed in the cached run.
    pub cache_hits: u64,
    /// Total compile steps with the cache enabled.
    pub cached_steps: u64,
    /// Total compile steps with the cache disabled.
    pub uncached_steps: u64,
    /// Wall time of the cached run's `attribute` calls, best of
    /// [`CACHE_WALL_REPEATS`].
    pub cached_wall: Duration,
    /// Wall time of the uncached run's `attribute` calls, best of
    /// [`CACHE_WALL_REPEATS`].
    pub uncached_wall: Duration,
}

/// Runs per [`compare_cache`] call; each side's wall time is its best run.
pub const CACHE_WALL_REPEATS: usize = 3;

/// Attributes every lineage twice through engine sessions — once with the
/// canonical-lineage d-tree cache, once without — and reports the compile
/// work and the wall time each run spent. Both sessions attribute the
/// canonical form, so per-instance compile work is identical except where
/// the cache elides it.
///
/// Every *completed* attribution is charged to its run's step total — in
/// particular a cache miss is charged even if the uncached run timed out on
/// the same instance, so later hits on that shape can never claim savings
/// whose one-time compile cost was dropped (under tight budgets the bias is
/// against the cache, never in its favour). `instances` counts the instances
/// both runs completed.
///
/// The corpus runs [`CACHE_WALL_REPEATS`] times, each time through fresh
/// engines (so the cached run starts cold), with the cached and uncached
/// call on each lineage timed back to back; each side keeps its fastest
/// run's total. Counts come from the first run.
pub fn compare_cache(lineages: &[&Dnf], config: &HarnessConfig) -> CacheComparison {
    let mut comparison = CacheComparison {
        cached_wall: Duration::MAX,
        uncached_wall: Duration::MAX,
        ..CacheComparison::default()
    };
    let base = config.engine_config(Algorithm::ExaBan);
    for repeat in 0..CACHE_WALL_REPEATS {
        let mut cached = Engine::new(base.clone().with_cache_config(CacheConfig::new())).session();
        let mut uncached =
            Engine::new(base.clone().with_cache_config(CacheConfig::disabled())).session();
        let (mut cached_wall, mut uncached_wall) = (Duration::ZERO, Duration::ZERO);
        for lineage in lineages {
            let start = Instant::now();
            let a = cached.attribute(lineage);
            let middle = Instant::now();
            let b = uncached.attribute(lineage);
            uncached_wall += middle.elapsed();
            cached_wall += middle - start;
            if repeat > 0 {
                continue;
            }
            if let Ok(a) = &a {
                comparison.cache_hits += a.stats.cache_hit as u64;
                comparison.cached_steps += a.stats.compile_steps;
            }
            if let Ok(b) = &b {
                comparison.uncached_steps += b.stats.compile_steps;
            }
            if a.is_ok() && b.is_ok() {
                comparison.instances += 1;
            }
        }
        comparison.cached_wall = comparison.cached_wall.min(cached_wall);
        comparison.uncached_wall = comparison.uncached_wall.min(uncached_wall);
    }
    comparison
}

/// Groups records by corpus name (preserving first-seen corpus order).
pub fn by_corpus(records: &[InstanceRecord]) -> Vec<(String, Vec<&InstanceRecord>)> {
    let mut order: Vec<String> = Vec::new();
    let mut groups: HashMap<String, Vec<&InstanceRecord>> = HashMap::new();
    for r in records {
        if !order.contains(&r.corpus) {
            order.push(r.corpus.clone());
        }
        groups.entry(r.corpus.clone()).or_default().push(r);
    }
    order
        .into_iter()
        .map(|name| {
            let group = groups.remove(&name).unwrap_or_default();
            (name, group)
        })
        .collect()
}

/// Query-level success rate: the fraction of queries for which *every*
/// instance of that query succeeded for the given algorithm.
pub fn query_success_rate(
    records: &[&InstanceRecord],
    succeeded: impl Fn(&InstanceRecord) -> bool,
) -> (usize, usize) {
    let mut per_query: HashMap<&str, bool> = HashMap::new();
    for r in records {
        let entry = per_query.entry(r.query.as_str()).or_insert(true);
        *entry = *entry && succeeded(r);
    }
    let total = per_query.len();
    let ok = per_query.values().filter(|&&v| v).count();
    (ok, total)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config() -> HarnessConfig {
        HarnessConfig { timeout: Duration::from_millis(200), ..Default::default() }
    }

    #[test]
    fn run_instance_records_everything_on_small_lineage() {
        let lineage =
            Dnf::from_clauses(vec![vec![Var(0), Var(1)], vec![Var(0), Var(2)], vec![Var(3)]]);
        let config = small_config();
        let record = run_instance("test", "q", &lineage, &config, 1);
        assert!(record.exaban.success);
        assert!(record.sig22.success);
        assert!(record.adaban.success);
        assert!(record.mc.success);
        assert!(record.ichiban.success);
        let exact = record.exact.as_ref().unwrap();
        assert_eq!(exact[&Var(3)].to_u64(), Some(5));
        assert_eq!(record.exact_topk(1).unwrap(), vec![Var(3)]);
        assert_eq!(record.num_vars, 4);
        assert!(!record.proxy_scores.is_empty());
        // The Sig22 baseline explores DPLL nodes; the engine reports them.
        assert!(record.sig22.steps > 0);
    }

    #[test]
    fn query_success_rate_requires_all_instances() {
        let lineage = Dnf::from_clauses(vec![vec![Var(0)]]);
        let config = small_config();
        let mut a = run_instance("c", "q1", &lineage, &config, 1);
        let b = run_instance("c", "q1", &lineage, &config, 2);
        let c = run_instance("c", "q2", &lineage, &config, 3);
        a.exaban.success = false;
        let records = vec![&a, &b, &c];
        let (ok, total) = query_success_rate(&records, |r| r.exaban.success);
        assert_eq!((ok, total), (1, 2));
    }

    #[test]
    fn grouping_by_corpus() {
        let lineage = Dnf::from_clauses(vec![vec![Var(0)]]);
        let config = small_config();
        let a = run_instance("c1", "q", &lineage, &config, 1);
        let b = run_instance("c2", "q", &lineage, &config, 2);
        let records = vec![a, b];
        let grouped = by_corpus(&records);
        assert_eq!(grouped.len(), 2);
        assert_eq!(grouped[0].0, "c1");
        assert_eq!(grouped[0].1.len(), 1);
    }

    #[test]
    fn cache_reduces_compile_steps_on_repeated_lineages() {
        // Six isomorphic non-hierarchical lineages (shifted variable ids):
        // with the cache only the first one is compiled.
        let lineages: Vec<Dnf> = (0..6u32)
            .map(|s| {
                let o = s * 10;
                Dnf::from_clauses(vec![
                    vec![Var(o), Var(o + 1)],
                    vec![Var(o + 1), Var(o + 2)],
                    vec![Var(o + 2), Var(o + 3)],
                    vec![Var(o + 3), Var(o)],
                ])
            })
            .collect();
        let refs: Vec<&Dnf> = lineages.iter().collect();
        let comparison = compare_cache(&refs, &small_config());
        assert_eq!(comparison.instances, 6);
        assert_eq!(comparison.cache_hits, 5);
        assert!(
            comparison.cached_steps < comparison.uncached_steps,
            "cache must save compile steps: {} vs {}",
            comparison.cached_steps,
            comparison.uncached_steps
        );
        // Exactly one compilation's worth of work with the cache.
        assert_eq!(comparison.cached_steps * 6, comparison.uncached_steps);
        // Both runs were timed (best of the repeats, so never the sentinel).
        assert!(comparison.cached_wall > Duration::ZERO && comparison.cached_wall < Duration::MAX);
        assert!(comparison.uncached_wall > Duration::ZERO);
        assert!(comparison.uncached_wall < Duration::MAX);
    }
}
