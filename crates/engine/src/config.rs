//! The single configuration type replacing the per-call option structs.

use crate::attributor::Attributor;
use crate::registry::{backend, first_with, Precision};
use banzhaf::{Budget, PivotHeuristic};
use banzhaf_arith::{Int, Natural, Rational};
use banzhaf_par::ThreadPool;
use std::fmt;
use std::path::PathBuf;
use std::time::Duration;

/// The attribution algorithm an [`crate::Engine`] dispatches to.
///
/// The first three are the paper's contributions, the last three the
/// baselines it compares against; all of them sit behind the same
/// [`Attributor`] interface.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum Algorithm {
    /// ExaBan — exact values over a fully compiled d-tree (Fig. 1).
    ExaBan,
    /// AdaBan — anytime deterministic ε-approximation (Fig. 3).
    AdaBan,
    /// IchiBan — ranking/top-k by interval separation (Sec. 4.1).
    IchiBan,
    /// The Sig22 exact baseline (CNF encoding + DPLL compilation).
    Sig22,
    /// Monte Carlo estimation (randomized, no deterministic guarantee).
    MonteCarlo,
    /// The CNF-proxy ranking heuristic (linear time, no guarantee).
    CnfProxy,
}

impl Algorithm {
    /// Every algorithm the engine knows, in the paper's presentation order.
    pub const ALL: [Algorithm; 6] = [
        Algorithm::ExaBan,
        Algorithm::AdaBan,
        Algorithm::IchiBan,
        Algorithm::Sig22,
        Algorithm::MonteCarlo,
        Algorithm::CnfProxy,
    ];
}

impl fmt::Display for Algorithm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(backend(*self).name)
    }
}

/// One rung of a degradation ladder: the fallback algorithm plus the budget
/// it may spend re-attributing a lineage the primary algorithm failed on.
///
/// The rung's wall-clock allowance is whatever remains of the request's
/// deadline, but never less than `grace` — the final (estimate) rung must be
/// able to produce *something* even when the deadline has already passed,
/// which is what turns a hard timeout into a degraded answer instead of an
/// error.
#[derive(Clone, Copy, Debug)]
pub struct Rung {
    /// The fallback algorithm this rung runs.
    pub algorithm: Algorithm,
    /// Step cap for this rung (`None` = limited only by wall clock).
    pub max_steps: Option<u64>,
    /// Minimum wall-clock allowance, even past the request deadline.
    pub grace: Duration,
}

impl Rung {
    /// A rung running `algorithm` with the default 50 ms grace allowance.
    pub fn new(algorithm: Algorithm) -> Self {
        Rung { algorithm, max_steps: None, grace: Duration::from_millis(50) }
    }

    /// Sets the rung's step cap.
    pub fn with_max_steps(mut self, max_steps: u64) -> Self {
        self.max_steps = Some(max_steps);
        self
    }

    /// Sets the rung's minimum wall-clock allowance.
    pub fn with_grace(mut self, grace: Duration) -> Self {
        self.grace = grace;
        self
    }
}

/// What a session does when the primary attributor exhausts its budget (or,
/// under a ladder, panics mid-compile).
///
/// The default is [`FallbackPolicy::Strict`]: budget exhaustion surfaces as
/// an interruption error exactly as it always has, keeping results
/// bit-identical across configurations. [`FallbackPolicy::Ladder`] instead
/// re-attributes the *same canonical lineage* on each rung in turn —
/// typically exact → certified interval → point estimate — so overload
/// degrades answer precision instead of availability. Degraded results carry
/// a [`crate::Degradation`] record and are never inserted into the shared
/// cache (they reflect a budget, not the lineage).
#[derive(Clone, Debug, Default)]
pub enum FallbackPolicy {
    /// Fail with `Interrupted` when the budget runs out (the default).
    #[default]
    Strict,
    /// Walk these rungs in order until one produces a result.
    Ladder(Vec<Rung>),
}

impl FallbackPolicy {
    /// The standard ladder, assembled from the backend registry by
    /// capability: the first certified-interval backend, then the first
    /// point-estimate backend as the rung of last resort (its cost is linear
    /// in samples, so it always lands within the grace allowance). Adding an
    /// interval or estimate backend to the registry re-ranks the ladder with
    /// no change here.
    pub fn ladder() -> Self {
        let rungs = [Precision::Interval, Precision::Estimate]
            .into_iter()
            .filter_map(|precision| first_with(precision, false))
            .map(|b| Rung::new(b.algorithm))
            .collect();
        FallbackPolicy::Ladder(rungs)
    }

    /// `true` iff this is the strict (fail-on-exhaustion) policy.
    pub fn is_strict(&self) -> bool {
        matches!(self, FallbackPolicy::Strict)
    }

    /// The ladder's rungs (empty under [`FallbackPolicy::Strict`]).
    pub fn rungs(&self) -> &[Rung] {
        match self {
            FallbackPolicy::Strict => &[],
            FallbackPolicy::Ladder(rungs) => rungs,
        }
    }
}

/// Configuration of the engine's shared attribution cache: whether it is on,
/// how many entries it holds, and an optional warm-start snapshot path.
///
/// Non-exhaustive by design, like [`crate::BatchOptions`]: construct with
/// [`CacheConfig::new`] (or [`CacheConfig::disabled`]) and refine through the
/// `with_*` builders, so new knobs never break callers. Attach to an engine
/// with [`EngineConfig::with_cache_config`]:
///
/// ```
/// use banzhaf_engine::{CacheConfig, EngineConfig};
///
/// let config = EngineConfig::default()
///     .with_cache_config(CacheConfig::new().with_capacity(4096));
/// assert!(config.cache.enabled);
/// assert_eq!(config.cache.capacity, 4096);
/// ```
#[derive(Clone, Debug)]
#[non_exhaustive]
pub struct CacheConfig {
    /// Enable the engine-level shared attribution cache keyed by canonical
    /// lineage. Only applies to deterministic backends
    /// ([`crate::Backend::cacheable`]); the randomized Monte Carlo baseline
    /// always resamples.
    pub enabled: bool,
    /// Entry-count bound; least recently used shapes are evicted beyond it.
    /// The default (1024) keeps worst-case memory modest while covering the
    /// repeated-shape rate of the synthetic corpora many times over.
    pub capacity: usize,
    /// Warm-start snapshot path. When set, [`crate::Engine::new`] loads the
    /// snapshot (a corrupt or version-mismatched file is rejected with a
    /// typed error, counted in `snapshot_rejects`, and the engine starts
    /// cold), and the last clone of the engine writes the cache back to the
    /// same path on drop. [`crate::Engine::save_cache`] saves on demand.
    pub warm_start: Option<PathBuf>,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig { enabled: true, capacity: 1024, warm_start: None }
    }
}

impl CacheConfig {
    /// The default cache configuration: enabled, 1024 entries, no warm-start
    /// snapshot.
    pub fn new() -> Self {
        CacheConfig::default()
    }

    /// A configuration with the cache disabled (every attribution compiles).
    pub fn disabled() -> Self {
        CacheConfig { enabled: false, ..CacheConfig::default() }
    }

    /// Enables or disables the cache.
    pub fn with_enabled(mut self, enabled: bool) -> Self {
        self.enabled = enabled;
        self
    }

    /// Bounds the cache to `capacity` entries (LRU eviction beyond).
    pub fn with_capacity(mut self, capacity: usize) -> Self {
        self.capacity = capacity;
        self
    }

    /// Sets the warm-start snapshot path (loaded at engine construction,
    /// written back when the last engine clone drops).
    pub fn with_warm_start(mut self, path: impl Into<PathBuf>) -> Self {
        self.warm_start = Some(path.into());
        self
    }
}

/// Configuration of the attribution pipeline: algorithm choice, compilation
/// heuristic, approximation and budget parameters, and engine features
/// (caching, Shapley values).
///
/// One `EngineConfig` replaces the per-call option structs
/// (`AdaBanOptions`, `IchiBanOptions`, `McOptions`) previously threaded
/// through every caller; [`EngineConfig::attributor`] turns it into a
/// ready-to-run [`Attributor`].
#[derive(Clone, Debug)]
pub struct EngineConfig {
    /// Which algorithm to dispatch to.
    pub algorithm: Algorithm,
    /// Shannon pivot-selection heuristic for d-tree compilation.
    pub heuristic: PivotHeuristic,
    /// Relative error ε for the approximate algorithms. `None` requests the
    /// exact/certain mode (AdaBan with ε = 0, IchiBan's certain top-k).
    pub epsilon: Option<Rational>,
    /// Per-attribution wall-clock timeout (`None` = unbounded).
    pub timeout: Option<Duration>,
    /// Per-attribution cap on decomposition steps (`None` = unbounded).
    pub max_steps: Option<u64>,
    /// Monte Carlo samples per variable (the paper's `MC50#vars` is 50).
    pub mc_samples_per_var: u64,
    /// RNG seed for the randomized baseline.
    pub seed: u64,
    /// AdaBan's lazy bound recomputation (optimization (1) of Sec. 3.2.4).
    pub lazy_bounds: bool,
    /// AdaBan/IchiBan's tighter leaf bounds (optimization (4)).
    pub opt4: bool,
    /// The shared attribution cache: enablement, capacity, and warm-start
    /// snapshot (see [`CacheConfig`]). Replaces the old flat
    /// `cache: bool` / `cache_capacity: usize` knobs.
    pub cache: CacheConfig,
    /// Also compute exact Shapley values (exact backends only), reusing the
    /// d-tree compiled for the Banzhaf pass.
    pub include_shapley: bool,
    /// Worker threads for batch attribution (`Session::attribute_batch`,
    /// `Session::explain`) and for the Monte Carlo sampling loops. `1` (the
    /// default) runs everything on the calling thread; `0` means one worker
    /// per available CPU. Results are bit-identical at every thread count
    /// under step-cap or unlimited budgets; wall-clock deadlines remain
    /// inherently timing-dependent (contending workers can shift which
    /// borderline instances finish in time).
    pub threads: usize,
    /// What to do when the primary attributor exhausts its budget: fail
    /// strictly (the default, preserving bit-identical behaviour) or degrade
    /// down a ladder of cheaper rungs (see [`FallbackPolicy`]).
    pub fallback: FallbackPolicy,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            algorithm: Algorithm::ExaBan,
            heuristic: PivotHeuristic::MostFrequent,
            epsilon: Some(Rational::new(Int::one(), Natural::from(10u64))),
            timeout: None,
            max_steps: None,
            mc_samples_per_var: 50,
            seed: 0xBA27AF,
            lazy_bounds: true,
            opt4: true,
            cache: CacheConfig::default(),
            include_shapley: false,
            threads: 1,
            fallback: FallbackPolicy::Strict,
        }
    }
}

impl EngineConfig {
    /// A default configuration running the given algorithm.
    pub fn new(algorithm: Algorithm) -> Self {
        EngineConfig { algorithm, ..EngineConfig::default() }
    }

    /// Sets the algorithm.
    pub fn with_algorithm(mut self, algorithm: Algorithm) -> Self {
        self.algorithm = algorithm;
        self
    }

    /// Sets ε from a decimal string such as `"0.1"`.
    ///
    /// # Panics
    /// Panics if the string is not a valid decimal.
    pub fn with_epsilon_str(mut self, epsilon: &str) -> Self {
        self.epsilon = Some(Rational::from_decimal_str(epsilon).expect("valid ε"));
        self
    }

    /// Requests the exact/certain mode of the approximate algorithms.
    pub fn certain(mut self) -> Self {
        self.epsilon = None;
        self
    }

    /// Sets the per-attribution wall-clock timeout.
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.timeout = Some(timeout);
        self
    }

    /// Sets the pivot heuristic.
    pub fn with_heuristic(mut self, heuristic: PivotHeuristic) -> Self {
        self.heuristic = heuristic;
        self
    }

    /// Sets the RNG seed for the randomized baseline.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the whole cache configuration (enablement, capacity, warm-start
    /// snapshot) in one call.
    pub fn with_cache_config(mut self, cache: CacheConfig) -> Self {
        self.cache = cache;
        self
    }

    /// Enables Shapley values alongside the Banzhaf pass (exact backends).
    pub fn with_shapley(mut self, include: bool) -> Self {
        self.include_shapley = include;
        self
    }

    /// Sets the worker-thread count for batch attribution and Monte Carlo
    /// sampling (`0` = one worker per available CPU).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Sets the budget-exhaustion fallback policy.
    pub fn with_fallback(mut self, fallback: FallbackPolicy) -> Self {
        self.fallback = fallback;
        self
    }

    /// The [`ThreadPool`] this configuration describes.
    pub fn pool(&self) -> ThreadPool {
        ThreadPool::new(self.threads)
    }

    /// A fresh [`Budget`] honouring the configured timeout and step cap.
    pub fn budget(&self) -> Budget {
        Budget::new(self.timeout, self.max_steps)
    }

    /// The configured ε, falling back to 0 (exact) in the certain mode.
    pub fn epsilon_or_exact(&self) -> Rational {
        self.epsilon.clone().unwrap_or_else(Rational::zero)
    }

    /// Builds the [`Attributor`] this configuration describes, through the
    /// algorithm's [`crate::Backend`] descriptor — the registry's `build`
    /// function is the only construction site.
    pub fn attributor(&self) -> Box<dyn Attributor> {
        (backend(self.algorithm).build)(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_the_paper_headline_setting() {
        let config = EngineConfig::default();
        assert_eq!(config.algorithm, Algorithm::ExaBan);
        assert_eq!(config.epsilon_or_exact(), Rational::new(Int::one(), Natural::from(10u64)));
        assert!(config.cache.enabled);
        assert_eq!(config.cache.capacity, 1024);
        assert!(config.cache.warm_start.is_none());
        assert!(config.lazy_bounds && config.opt4);
    }

    #[test]
    fn builder_methods_compose() {
        let config = EngineConfig::new(Algorithm::AdaBan)
            .with_epsilon_str("0.25")
            .with_timeout(Duration::from_millis(5))
            .with_seed(7)
            .with_cache_config(CacheConfig::disabled())
            .with_shapley(true);
        assert_eq!(config.algorithm, Algorithm::AdaBan);
        assert_eq!(config.epsilon_or_exact(), Rational::new(Int::one(), Natural::from(4u64)));
        assert_eq!(config.timeout, Some(Duration::from_millis(5)));
        assert!(!config.cache.enabled && config.include_shapley);
        // The certain mode drops ε entirely.
        assert!(config.certain().epsilon.is_none());
    }

    #[test]
    fn cache_config_builders_compose() {
        let cache = CacheConfig::new().with_capacity(16).with_warm_start("/tmp/snapshot.bzc");
        assert!(cache.enabled);
        assert_eq!(cache.capacity, 16);
        assert_eq!(cache.warm_start.as_deref(), Some(std::path::Path::new("/tmp/snapshot.bzc")));
        assert!(!CacheConfig::disabled().enabled);
        assert!(!CacheConfig::new().with_enabled(false).enabled);
    }

    #[test]
    fn every_algorithm_builds_an_attributor() {
        for algorithm in Algorithm::ALL {
            let attributor = EngineConfig::new(algorithm).attributor();
            assert_eq!(attributor.name(), backend(algorithm).name);
            assert!(!format!("{algorithm}").is_empty());
        }
    }

    #[test]
    fn standard_ladder_is_assembled_by_capability() {
        let rungs: Vec<Algorithm> =
            FallbackPolicy::ladder().rungs().iter().map(|r| r.algorithm).collect();
        assert_eq!(rungs, vec![Algorithm::AdaBan, Algorithm::MonteCarlo]);
        assert!(FallbackPolicy::Strict.is_strict());
    }
}
