//! The engine front door: query evaluation, per-answer attribution, and the
//! cross-answer d-tree cache.

use crate::attribution::{Attribution, Degradation, DegradeReason, Ranked};
use crate::attributor::Attributor;
use crate::cache::{
    CacheStats, CanonInfo, Lookup, Prekeyed, PresentationHit, Resident, SharedCache, Sighting,
};
use crate::canon::Fingerprint;
use crate::config::{Algorithm, EngineConfig, FallbackPolicy, Rung};
use crate::persist::SnapshotError;
use crate::registry::{backend, first_with, Precision};
use banzhaf::{Budget, Interrupted};
use banzhaf_boolean::{AsLineage, Dnf, Lineage};
use banzhaf_db::{Database, Value};
use banzhaf_query::{evaluate, Answer, UnionQuery};
use std::collections::HashMap;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// The attribution engine: owns an [`EngineConfig`] and hands out
/// [`Session`]s that batch attribution across the answers of a query.
///
/// ```
/// use banzhaf_engine::{Engine, EngineConfig};
/// use banzhaf_db::Database;
/// use banzhaf_query::parse_program;
///
/// let mut db = Database::new();
/// db.add_relation("R", 1);
/// db.add_relation("S", 2);
/// db.insert_endogenous("R", vec![1.into()]).unwrap();
/// db.insert_endogenous("S", vec![1.into(), 2.into()]).unwrap();
/// let query = parse_program("Q() :- R(X), S(X, Y).").unwrap();
///
/// let engine = Engine::new(EngineConfig::default());
/// let explained = engine.session().explain(&query, &db);
/// assert_eq!(explained.answers.len(), 1);
/// let attribution = explained.answers[0].attribution().unwrap();
/// assert_eq!(attribution.model_count.as_ref().unwrap().to_u64(), Some(1));
/// ```
#[derive(Clone, Debug)]
pub struct Engine {
    config: EngineConfig,
    /// The cross-session attribution cache: shared by every session of this
    /// engine (and by clones of the engine, which keep pointing at the same
    /// store), size-bounded with LRU eviction.
    cache: Arc<SharedCache>,
    /// Engine-global sample-stream allocator: sessions draw disjoint stream
    /// index ranges from it, so randomized backends never replay one
    /// another's samples (two sessions each counting from 0 with the same
    /// seed would produce identical, perfectly correlated estimates).
    streams: Arc<AtomicU64>,
    /// Present iff [`CacheConfig::warm_start`](crate::CacheConfig) is set:
    /// shared by every clone of the engine, and the *last* clone to drop
    /// writes the snapshot back — sessions do not hold it, so handing out
    /// sessions never extends the engine's persistence lifetime.
    _warm: Option<Arc<WarmStartGuard>>,
}

/// Writes the warm-start snapshot back when the last engine clone drops.
struct WarmStartGuard {
    path: PathBuf,
    cache: Arc<SharedCache>,
}

impl Drop for WarmStartGuard {
    fn drop(&mut self) {
        // Drop cannot propagate an error; a failed save leaves the previous
        // snapshot intact (the writer renames a complete temp file into
        // place), so the next start is merely as warm as the last good save.
        let _ = self.cache.save(&self.path);
    }
}

impl fmt::Debug for WarmStartGuard {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("WarmStartGuard").field("path", &self.path).finish_non_exhaustive()
    }
}

/// One consistent view of an engine's cache tier, from [`Engine::stats`].
#[derive(Clone, Debug)]
#[non_exhaustive]
pub struct EngineSnapshot {
    /// The shared cache's counters and occupancy.
    pub cache: CacheStats,
}

impl Engine {
    /// An engine with the given configuration.
    ///
    /// If [`CacheConfig::warm_start`](crate::CacheConfig) names an existing
    /// snapshot, it is loaded here — a rejected snapshot (corrupt, wrong
    /// version) counts a `snapshot_rejects` and the engine starts cold; it
    /// never panics and never admits a partial load. The snapshot is written
    /// back when the last clone of the engine drops (or on demand via
    /// [`Engine::save_cache`]).
    pub fn new(config: EngineConfig) -> Self {
        let cache = Arc::new(SharedCache::new(config.cache.capacity));
        let warm = config.cache.warm_start.clone().map(|path| {
            if path.exists() {
                // Errors are recorded in `snapshot_rejects`; a missing or
                // rejected snapshot is a cold start, not a failure.
                let _ = cache.load(&path);
            }
            Arc::new(WarmStartGuard { path, cache: Arc::clone(&cache) })
        });
        Engine { config, cache, streams: Arc::new(AtomicU64::new(0)), _warm: warm }
    }

    /// The engine's configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// The attributor the configuration describes (for one-off calls; use a
    /// [`Session`] to batch attributions and share work across answers).
    pub fn attributor(&self) -> Box<dyn Attributor> {
        self.config.attributor()
    }

    /// The engine's shared cross-session cache.
    pub fn shared_cache(&self) -> &Arc<SharedCache> {
        &self.cache
    }

    /// One consistent snapshot of the cache tier's counters.
    pub fn stats(&self) -> EngineSnapshot {
        EngineSnapshot { cache: self.cache.stats() }
    }

    /// Writes the cache tier's warm-start snapshot to `path` on demand
    /// (independent of the drop-time save wired through
    /// [`CacheConfig::warm_start`](crate::CacheConfig)). Returns the number
    /// of entries written.
    pub fn save_cache(&self, path: impl AsRef<Path>) -> Result<usize, SnapshotError> {
        self.cache.save(path)
    }

    /// Starts a session: a stateful pipeline instance sharing the engine's
    /// cross-session cache and accumulating its own [`SessionStats`].
    ///
    /// Sessions are independent (`Session` is `Send`, one per worker thread
    /// in concurrent serving), but all of them read and merge into the same
    /// [`crate::SharedCache`], so a compilation performed by one session is a cache
    /// hit for every other.
    pub fn session(&self) -> Session {
        Session {
            config: self.config.clone(),
            attributor: self.config.attributor(),
            aggregate_attributor: None,
            cache: Arc::clone(&self.cache),
            stats: SessionStats::default(),
            streams: Arc::clone(&self.streams),
        }
    }
}

/// Work-sharing statistics accumulated by a [`Session`].
#[derive(Clone, Copy, Debug, Default)]
pub struct SessionStats {
    /// Attributions served (cache hits included).
    pub attributions: u64,
    /// Attributions served from the canonical-lineage cache.
    pub cache_hits: u64,
    /// Attributions the backend answered in closed form
    /// ([`Attributor::closed_form`]) without a prekey or a cache lookup: for
    /// ExaBan, every read-once lineage, independent clauses included.
    /// Every other attribution is a cache hit or a cache miss, so
    /// `attributions` = `cache_hits` + misses + `closed_forms`.
    pub closed_forms: u64,
    /// Total knowledge-compilation steps actually performed.
    pub compile_steps: u64,
    /// Total decomposition and refinement steps spent canonicalizing lineages
    /// for the shared cache's exact keys. Only paid when a fingerprint bucket
    /// is contested — weigh against the `compile_steps` the hits save.
    pub canon_steps: u64,
    /// Canonical keys actually computed (one per shape canonicalized;
    /// fingerprint-resolved lookups compute none).
    pub canon_searches: u64,
    /// Lookups resolved without any search because their cheap
    /// isomorphism-invariant fingerprint had no resident entry.
    pub prekey_skips: u64,
    /// Answers resolved by a fallback rung after the primary attributor
    /// failed (see [`FallbackPolicy`]); a strict session never counts any.
    pub degraded: u64,
    /// Steps charged to fallback rungs while resolving degraded answers
    /// (failed intermediate rungs included).
    pub fallback_steps: u64,
    /// Total wall-clock time spent inside backends.
    pub wall: Duration,
}

/// Options for [`Session::attribute_batch`].
///
/// Non-exhaustive by design, like [`EngineConfig`]: construct with
/// [`BatchOptions::default`] (or [`BatchOptions::new`]) and refine through
/// the `with_*` builders, so new options never break callers.
#[derive(Clone, Copy, Debug, Default)]
#[non_exhaustive]
pub struct BatchOptions<'a> {
    /// One *shared* budget charged by every instance of the batch, instead of
    /// a fresh per-instance budget from the configuration. All workers charge
    /// the same atomic deadline/step counters, so a batch that exceeds the
    /// budget is interrupted cooperatively across every worker at once:
    /// finished instances keep their results, unfinished ones return
    /// [`Interrupted`].
    pub shared_budget: Option<&'a Budget>,
    /// Per-call override of the configuration's [`FallbackPolicy`] (the
    /// serving layer threads a per-request policy through here). `None`
    /// falls back to [`EngineConfig::fallback`].
    pub fallback: Option<&'a FallbackPolicy>,
}

impl<'a> BatchOptions<'a> {
    /// The default options: per-instance budgets from the configuration.
    pub fn new() -> Self {
        BatchOptions::default()
    }

    /// Runs the whole batch under one shared budget.
    pub fn with_shared_budget(mut self, budget: &'a Budget) -> Self {
        self.shared_budget = Some(budget);
        self
    }

    /// Overrides the configuration's budget-exhaustion fallback policy for
    /// this batch.
    pub fn with_fallback(mut self, fallback: &'a FallbackPolicy) -> Self {
        self.fallback = Some(fallback);
        self
    }
}

/// One answer tuple with its lineage and attribution outcome.
#[derive(Clone, Debug)]
pub struct AnswerAttribution {
    /// The answer tuple (empty for Boolean queries).
    pub tuple: Vec<Value>,
    /// The answer's lineage.
    pub lineage: Dnf,
    /// The attribution of the answer's supporting facts, or [`Interrupted`]
    /// if *this answer* exceeded its budget. Outcomes are per answer: one
    /// starved answer does not discard the completed work of its siblings.
    pub outcome: Result<Attribution, Interrupted>,
}

impl AnswerAttribution {
    /// The attribution, if this answer finished within its budget.
    pub fn attribution(&self) -> Option<&Attribution> {
        self.outcome.as_ref().ok()
    }
}

/// The result of explaining a whole query: one attribution outcome per
/// answer.
#[derive(Clone, Debug)]
pub struct QueryAttribution {
    /// Per-answer attributions, in the evaluator's sorted answer order.
    pub answers: Vec<AnswerAttribution>,
}

impl QueryAttribution {
    /// `true` iff every answer finished within its budget.
    pub fn is_complete(&self) -> bool {
        self.answers.iter().all(|a| a.outcome.is_ok())
    }

    /// The answers that finished within their budgets.
    pub fn finished(&self) -> impl Iterator<Item = &AnswerAttribution> + '_ {
        self.answers.iter().filter(|a| a.outcome.is_ok())
    }

    /// Number of answers whose attribution was interrupted.
    pub fn num_starved(&self) -> usize {
        self.answers.iter().filter(|a| a.outcome.is_err()).count()
    }
}

/// A stateful attribution pipeline: evaluates queries, computes per-answer
/// lineage, and batches attribution across answers while sharing work through
/// the engine's *shared* cache keyed by canonical lineage — distinct answers
/// (and distinct sessions of the same engine) frequently share isomorphic
/// lineage, and a hit skips compilation entirely.
///
/// Batch entry points ([`Session::attribute_batch`], [`Session::explain`])
/// plan the batch in one sequential walk over the cache, then fan the
/// per-shape compiles across the configured thread pool
/// ([`EngineConfig::threads`]); results are bit-identical to the sequential
/// path at every thread count.
pub struct Session {
    config: EngineConfig,
    attributor: Box<dyn Attributor>,
    /// Built lazily on the first aggregate attribution *iff* the configured
    /// backend does not advertise the aggregate capability in the registry:
    /// the session substitutes the first exact aggregate-capable backend
    /// (ExaBan) rather than panicking, mirroring the fallback ladder's
    /// capability-driven rung selection.
    aggregate_attributor: Option<Box<dyn Attributor>>,
    /// The engine-level shared cache: canonical lineage → attribution over
    /// canonical variables.
    cache: Arc<SharedCache>,
    stats: SessionStats,
    /// The engine-global sample-stream allocator (randomized backends select
    /// their RNG streams from it; deterministic backends ignore it). Shared
    /// across sessions so concurrent sessions draw disjoint streams.
    streams: Arc<AtomicU64>,
}

impl Session {
    /// The session's configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// The work-sharing statistics accumulated so far.
    pub fn stats(&self) -> &SessionStats {
        &self.stats
    }

    /// One consistent snapshot of the *shared* cache tier (hits from every
    /// session of the engine, not just this one; see [`SessionStats`] for
    /// the per-session view).
    pub fn engine_stats(&self) -> EngineSnapshot {
        EngineSnapshot { cache: self.cache.stats() }
    }

    /// Evaluates a UCQ over a database and attributes every answer, fanning
    /// the per-answer work across the configured thread pool.
    ///
    /// The answers run through the batch loop of [`Session::attribute_batch`],
    /// so each equals `attribute_batch` over the answers' lineages bit for
    /// bit, and the answers are built in one vector, outcomes included.
    ///
    /// Outcomes are per answer: an answer that exceeded its budget carries
    /// `Err(Interrupted)` in its [`AnswerAttribution::outcome`] while its
    /// siblings keep their completed attributions.
    pub fn explain(&mut self, query: &UnionQuery, db: &Database) -> QueryAttribution {
        let answers = evaluate(query, db).into_answers();
        QueryAttribution { answers: self.attribute_each(answers, BatchOptions::default()) }
    }

    /// Attributes one lineage — Boolean, or a weighted aggregate
    /// (COUNT/SUM/MIN/MAX) one — under the configured budget, consulting the
    /// d-tree cache when enabled.
    ///
    /// The backend always runs on the *dense* presentation of the lineage
    /// (variables renamed to `0..n` by first occurrence — attribution values
    /// are invariant under renaming, and the renaming is linear in the
    /// lineage size), so a cached and an uncached session perform identical
    /// compile work per lineage and their results are bit-for-bit
    /// comparable. The isomorphism-invariant canonical key is only computed
    /// when the cache's cheap fingerprint pre-key is contested and no
    /// resident holds the lineage's exact dense presentation.
    ///
    /// Aggregate lineages bypass the cache: each one compiles, makes no
    /// lookup and leaves no entry, so its attribution reports
    /// `cache_hit: false` and zero keying counters. If the configured
    /// backend does not advertise the aggregate capability in the backend
    /// registry, the session transparently serves an aggregate lineage with
    /// the registry's first exact aggregate-capable backend (ExaBan) instead
    /// of panicking.
    pub fn attribute(&mut self, lineage: &impl AsLineage) -> Result<Attribution, Interrupted> {
        // Single-instance batch: the planning loop resolves a cache hit
        // before any compile work, and the shared counters record exactly
        // one lookup per logical attribution (a separate fast-path lookup
        // here would double-count misses in `Engine::stats`).
        self.attribute_batch(std::slice::from_ref(lineage), BatchOptions::default())
            .pop()
            .expect("one lineage in, one attribution out")
    }

    /// Attributes a batch of lineages, fanning the work across the
    /// configured thread pool ([`EngineConfig::threads`]).
    ///
    /// A batch is homogeneous: every lineage is Boolean, or every lineage is
    /// an aggregate one.
    ///
    /// A Boolean lineage the backend answers in closed form
    /// ([`Attributor::closed_form`]) is served on the spot: no prekey, no
    /// cache lookup, no cache entry. Instance `i` draws sample stream
    /// `base + i` whichever way it is served.
    ///
    /// Work sharing mirrors the sequential loop exactly: one planning walk
    /// looks the lineages up in instance order on the calling thread (with
    /// the exact canonical key computed lazily, only where fingerprints
    /// collide), each *distinct* uncached shape is compiled once (only the
    /// compiles fan out across the pool), and the freshly compiled trees are
    /// merged into the d-tree cache by the session alone once the workers
    /// have joined — the cache never sees concurrent writers.
    ///
    /// By default every instance gets its own fresh [`Budget`] from the
    /// configuration, exactly as repeated [`Session::attribute`] calls
    /// would, so the per-instance results — values, model counts, cache-hit
    /// flags, and `Interrupted` outcomes under step caps — are
    /// **bit-identical to the sequential path at every thread count**;
    /// [`BatchOptions::with_shared_budget`] charges the whole batch against
    /// one budget instead.
    pub fn attribute_batch<L: AsLineage>(
        &mut self,
        lineages: &[L],
        options: BatchOptions<'_>,
    ) -> Vec<Result<Attribution, Interrupted>> {
        self.attribute_each(lineages, options)
    }

    /// The batch loop behind [`Session::attribute_batch`] and
    /// [`Session::explain`]: closed forms on the spot, in instance order,
    /// every other instance through [`Session::batch_prekeyed`]. Each
    /// instance becomes its answer in one vector of capacity `n`, and the
    /// outcomes of the prekeyed instances are written into their answers
    /// once the batch returns.
    fn attribute_each<I: Instance>(
        &mut self,
        instances: impl IntoIterator<Item = I, IntoIter: ExactSizeIterator>,
        options: BatchOptions<'_>,
    ) -> Vec<I::Answer> {
        let instances = instances.into_iter();
        let n = instances.len();
        self.stats.attributions += n as u64;
        // Claim the batch's stream indices from the engine-global allocator:
        // within one session the indices are exactly the ones the sequential
        // loop would assign; across sessions they never collide.
        let stream_base = self.streams.fetch_add(n as u64, Ordering::Relaxed);
        let mut answers = Vec::with_capacity(n);
        let (mut prekeyed, mut slots) = (Vec::new(), Vec::new());
        for (i, instance) in instances.enumerate() {
            let lineage = instance.lineage();
            let closed = match lineage {
                Lineage::Boolean(phi) => self.attributor.closed_form(phi),
                Lineage::Aggregate(_) => None,
            };
            let outcome = if let Some(attribution) = closed {
                self.record(&attribution);
                self.stats.closed_forms += 1;
                Ok(attribution)
            } else {
                // The dense renaming and fingerprint are one linear pass per
                // lineage; the expensive canonical search only runs inside
                // the planning loop, where the sequential cache-state walk
                // decides (deterministically) which instances need it.
                prekeyed.push(Prekeyed::of(lineage));
                slots.push(i);
                Err(Interrupted)
            };
            answers.push(instance.answer(outcome));
        }
        let streams = slots.iter().map(|&i| stream_base + i as u64).collect();
        let rest = self.batch_prekeyed(prekeyed, streams, options.shared_budget, options.fallback);
        for (i, outcome) in slots.into_iter().zip(rest) {
            *I::outcome(&mut answers[i]) = outcome;
        }
        answers
    }

    /// The algorithm that actually serves aggregate lineages for this
    /// session: the configured one when the registry says it is capable,
    /// otherwise the registry's first exact aggregate backend.
    fn effective_aggregate_algorithm(&self) -> Algorithm {
        if backend(self.config.algorithm).aggregates {
            self.config.algorithm
        } else {
            first_with(Precision::Exact, true)
                .expect("the registry always lists an exact aggregate backend")
                .algorithm
        }
    }

    /// Batch attribution over prekeyed (densely renamed + fingerprinted)
    /// lineages, in three stages: [`Session::plan`] walks the instances
    /// against the cache, [`Session::compile`] runs the planned jobs, and
    /// [`Session::assemble`] merges, maps back and degrades.
    fn batch_prekeyed(
        &mut self,
        prekeyed: Vec<Prekeyed>,
        streams: Vec<u64>,
        shared_budget: Option<&Budget>,
        fallback: Option<&FallbackPolicy>,
    ) -> Vec<Result<Attribution, Interrupted>> {
        if prekeyed.is_empty() {
            return Vec::new();
        }
        // A batch is homogeneous: either every instance is Boolean or every
        // instance carries an aggregate payload (the entry points take a
        // slice of one lineage type). Aggregate batches may substitute the
        // configured backend with a capable one, so every capability check
        // reads the *effective* algorithm.
        let aggregate = prekeyed.iter().any(Prekeyed::is_aggregate);
        let algorithm =
            if aggregate { self.effective_aggregate_algorithm() } else { self.config.algorithm };
        if algorithm != self.config.algorithm && self.aggregate_attributor.is_none() {
            self.aggregate_attributor =
                Some(EngineConfig { algorithm, ..self.config.clone() }.attributor());
        }
        let batch = Batch {
            prekeyed,
            streams,
            shared_budget,
            // Copied out so the borrow of `self.config` ends before the
            // mutable assembly stage.
            rungs: fallback.unwrap_or(&self.config.fallback).rungs().to_vec(),
            algorithm,
            // Randomized backends are never cached: transferring one
            // lineage's samples to another would correlate supposedly
            // independent estimates (see [`crate::Backend::cacheable`]).
            // Aggregate batches run uncached too: the cache keys Boolean
            // lineages only.
            use_cache: self.config.cache.enabled && backend(algorithm).cacheable && !aggregate,
        };
        let plan = self.plan(&batch);
        let computed = self.compile(&batch, &plan.jobs);
        self.assemble(&batch, plan, computed)
    }

    /// Plans a batch, walking the instances in order exactly like the
    /// sequential loop would observe the cache. An instance whose exact
    /// dense presentation an earlier instance compiles reuses that compile
    /// outright. A vacant fingerprint bucket (and no earlier batch instance
    /// pending under it) is a definite miss that *skips the canonicalization
    /// search entirely*. A probe whose exact dense presentation a resident
    /// holds, as its own shape or as a known alias, resolves by presentation
    /// inside the lookup, again with no search: the stored values were
    /// computed on this very dense form, or map back through witnesses
    /// computed before. Otherwise a contested bucket canonicalizes the
    /// instance plus any still-unkeyed residents and settles on the exact
    /// key — resolving a pre-existing cache hit immediately, or matching an
    /// earlier in-batch instance ("owner") whose freshly compiled result this
    /// instance will reuse.
    fn plan(&mut self, batch: &Batch) -> Plan {
        let n = batch.prekeyed.len();
        let mut plan = Plan {
            jobs: Vec::new(),
            hits: (0..n).map(|_| None).collect(),
            reuse: vec![None; n],
            canon: vec![None; n],
            paid: vec![(0, 0, 0); n],
        };
        if !batch.use_cache {
            plan.jobs = (0..n).collect();
            return plan;
        }
        let mut keying = Keying::new(&batch.prekeyed, batch.shared_budget);
        // Earlier instances that will insert a fresh entry, by fingerprint.
        let mut pending: HashMap<Fingerprint, Vec<usize>> = HashMap::new();
        for (i, p) in batch.prekeyed.iter().enumerate() {
            let fp = p.fingerprint();
            // An earlier instance with this very presentation compiles it:
            // reuse needs no lookup and no witness, and the lookup it skips
            // would have been a miss.
            if let Some(first) = keying.first[i].filter(|j| plan.jobs.binary_search(j).is_ok()) {
                self.cache.record_miss();
                plan.reuse[i] = Some(first);
                continue;
            }
            let (mut steps, mut searches, mut skips) = (0u64, 0u64, 0u64);
            let mates: &[usize] = pending.get(&fp).map_or(&[], Vec::as_slice);
            let mut hit = None;
            let mut owner = None;
            match self.cache.lookup(fp, &p.shape) {
                // Definite miss, nothing in flight: compile without ever
                // running the individualization search.
                Lookup::Vacant if mates.is_empty() => skips += 1,
                // An interrupted descent (shared budget already drained)
                // leaves the instance unkeyed: it compiles — and promptly
                // starves on the same exhausted budget — rather than
                // stalling the planning walk.
                Lookup::Vacant => {
                    if let Some(mine) = keying.key(i, &mut steps, &mut searches) {
                        owner = keying.find_mate(mates, &mine, &mut steps, &mut searches);
                    }
                }
                Lookup::Presented(PresentationHit { attribution, alias }) => {
                    hit = Some(match alias {
                        None => p.map_back(&attribution),
                        Some((order, canon)) => p.map_back_via(&order, &canon.order, &attribution),
                    });
                }
                Lookup::Occupied(residents) => {
                    if let Some(mine) = keying.key(i, &mut steps, &mut searches) {
                        let resolved = keying.settle(&residents, &mine, &mut steps, &mut searches);
                        match self.cache.finish_lookup(fp, &p.shape, &mine, &resolved) {
                            Some(h) => {
                                hit = Some(p.map_back_via(
                                    &mine.order,
                                    &h.canon.order,
                                    &h.attribution,
                                ));
                            }
                            None => {
                                owner = keying.find_mate(mates, &mine, &mut steps, &mut searches);
                            }
                        }
                    }
                }
            }
            plan.paid[i] = (steps, searches, skips);
            if let Some(attribution) = hit {
                self.stats.cache_hits += 1;
                plan.hits[i] = Some(cache_hit(attribution));
            } else if owner.is_some() {
                plan.reuse[i] = owner;
            } else {
                plan.jobs.push(i);
                pending.entry(fp).or_default().push(i);
            }
        }
        plan.canon = keying.canon;
        // Account the canonicalization work: per session (SessionStats), and
        // per engine through the shared cache's counters so the end-to-end
        // serving stats can weigh the keying cost against the hits it buys.
        // A batch that keyed nothing (every warm hit) skips the cache lock.
        let (steps, searches, skips) = plan
            .paid
            .iter()
            .fold((0u64, 0u64, 0u64), |(s, q, k), &(ds, dq, dk)| (s + ds, q + dq, k + dk));
        self.stats.canon_steps += steps;
        self.stats.canon_searches += searches;
        self.stats.prekey_skips += skips;
        if (steps, searches, skips) != (0, 0, 0) {
            self.cache.record_canon(steps, searches, skips);
        }
        plan
    }

    /// Runs the planned compile jobs. Deterministic backends fan instances
    /// across the pool; the randomized Monte Carlo backend parallelizes
    /// *inside* each instance (per-variable seed streams), so its instance
    /// loop stays inline rather than nesting pools. Workers never touch the
    /// cache.
    fn compile(&self, batch: &Batch, jobs: &[usize]) -> Vec<JobOutcome> {
        let attributor: &dyn Attributor = if batch.algorithm == self.config.algorithm {
            self.attributor.as_ref()
        } else {
            self.aggregate_attributor.as_deref().expect("substitute built for the batch")
        };
        let config = &self.config;
        let attempt = |i: usize, budget: &Budget| {
            run_dense(attributor, &batch.prekeyed[i], batch.streams[i], budget)
        };
        let run = |i: usize| -> JobOutcome {
            let fresh;
            let budget = match batch.shared_budget {
                Some(shared) => shared,
                None => {
                    fresh = config.budget();
                    &fresh
                }
            };
            if batch.rungs.is_empty() {
                // Strict: identical to the historical path — a panicking
                // worker unwinds through the pool to the caller untouched.
                banzhaf_par::failpoint!("session::compile");
                match attempt(i, budget) {
                    Ok(attribution) => JobOutcome::Done(Arc::new(attribution)),
                    Err(Interrupted) => JobOutcome::Starved(budget.steps_used()),
                }
            } else {
                // Under a ladder the batch must survive a panicking worker:
                // the partially built d-tree dies with the unwound stack (it
                // was never shared), and the instance degrades instead of
                // taking the whole batch down with it.
                let caught = catch_unwind(AssertUnwindSafe(|| {
                    banzhaf_par::failpoint!("session::compile");
                    attempt(i, budget)
                }));
                match caught {
                    Ok(Ok(attribution)) => JobOutcome::Done(Arc::new(attribution)),
                    Ok(Err(Interrupted)) => JobOutcome::Starved(budget.steps_used()),
                    Err(_) => JobOutcome::Panicked(budget.steps_used()),
                }
            }
        };
        if backend(batch.algorithm).cacheable && !jobs.is_empty() {
            config.pool().parallel_map(jobs, |_, &i| run(i))
        } else {
            jobs.iter().map(|&i| run(i)).collect()
        }
    }

    /// Assembles the batch's results from the plan and the compile outcomes.
    ///
    /// Single-writer merge: only now — with every worker joined — does the
    /// session record stats and fold the freshly compiled results into the
    /// shared cache (the merge itself is serialized by the cache's brief
    /// internal lock; no worker ever computes under it). Only *completed*
    /// compilations are inserted: a starved or panicked job's partial
    /// d-tree never reaches the cache. Each instance is then mapped back to
    /// its own variables, or degraded if its compile failed.
    fn assemble(
        &mut self,
        batch: &Batch,
        plan: Plan,
        computed: Vec<JobOutcome>,
    ) -> Vec<Result<Attribution, Interrupted>> {
        let Plan { jobs, hits, reuse, canon, paid } = plan;
        // The in-batch mates that keyed to each owner and reuse its compile.
        let mut mates: HashMap<usize, Vec<Sighting<'_>>> = HashMap::new();
        for (i, owner) in reuse.iter().enumerate() {
            if let (Some(owner), Some(mine)) = (owner, &canon[i]) {
                mates.entry(*owner).or_default().push((&batch.prekeyed[i].shape, &mine.order));
            }
        }
        let mut outcomes: HashMap<usize, JobOutcome> = HashMap::with_capacity(jobs.len());
        for (&i, outcome) in jobs.iter().zip(computed) {
            if let JobOutcome::Done(attribution) = &outcome {
                self.record(attribution);
                if batch.use_cache {
                    banzhaf_par::failpoint!("session::merge");
                    let p = &batch.prekeyed[i];
                    self.cache.insert(
                        p.fingerprint(),
                        &p.shape,
                        canon[i].clone(),
                        Arc::clone(attribution),
                    );
                    if let Some(mates) = mates.get(&i) {
                        self.cache.sight_mates(p.fingerprint(), &p.shape, mates);
                    }
                }
            }
            outcomes.insert(i, outcome);
        }
        hits.into_iter()
            .enumerate()
            .map(|(i, hit)| {
                let resolved = if let Some(hit) = hit {
                    Ok(hit)
                } else {
                    let owner = reuse[i];
                    match &outcomes[&owner.unwrap_or(i)] {
                        JobOutcome::Done(attribution) => {
                            let p = &batch.prekeyed[i];
                            let mapped = match owner.map(|j| (&canon[i], &canon[j])) {
                                Some((Some(mine), Some(theirs))) => {
                                    p.map_back_via(&mine.order, &theirs.order, attribution)
                                }
                                // Compiled here, or reused from an owner with
                                // this very presentation: the values are over
                                // our own dense variables.
                                _ => p.map_back(attribution),
                            };
                            if owner.is_some() {
                                // An in-batch reuse is a cache hit, same as
                                // the sequential loop would have scored it.
                                self.stats.cache_hits += 1;
                                Ok(cache_hit(mapped))
                            } else {
                                Ok(mapped)
                            }
                        }
                        JobOutcome::Starved(spent) => {
                            self.degrade(batch, i, DegradeReason::BudgetExhausted, *spent)
                        }
                        JobOutcome::Panicked(spent) => {
                            self.degrade(batch, i, DegradeReason::WorkerPanic, *spent)
                        }
                    }
                };
                resolved.map(|mut attribution| {
                    let (steps, searches, skips) = paid[i];
                    attribution.stats.canon_steps = steps;
                    attribution.stats.canon_searches = searches;
                    attribution.stats.prekey_skips = skips;
                    attribution
                })
            })
            .collect()
    }

    /// Re-attributes instance `i` of the batch down the fallback ladder
    /// after its primary attempt failed.
    ///
    /// Runs inline on the session thread during final assembly: degraded
    /// work is a tail correction under overload, not something to schedule
    /// more workers for. Degraded results are counted in the session stats
    /// but **never inserted into the shared cache**, and in-batch mates never
    /// share one (each failed instance walks its own ladder — transferring a
    /// Monte Carlo estimate between mates would correlate supposedly
    /// independent streams).
    fn degrade(
        &mut self,
        batch: &Batch,
        i: usize,
        reason: DegradeReason,
        primary_spent: u64,
    ) -> Result<Attribution, Interrupted> {
        // An explicit cancellation is the client's word, not overload:
        // honour it instead of degrading.
        if batch.rungs.is_empty() || batch.shared_budget.is_some_and(Budget::is_cancelled) {
            return Err(Interrupted);
        }
        let (prekeyed, stream) = (&batch.prekeyed[i], batch.streams[i]);
        let mut spent = primary_spent;
        let mut fallback_steps = 0u64;
        for rung in &batch.rungs {
            // An aggregate instance only degrades onto rungs whose backend
            // advertises the aggregate capability in the registry — the
            // standard ladder's interval rung (AdaBan) is skipped and the
            // estimate rung (Monte Carlo) answers.
            if prekeyed.is_aggregate() && !backend(rung.algorithm).aggregates {
                continue;
            }
            // The rung inherits whatever wall-clock remains on the request
            // deadline, but never less than its grace allowance — the last
            // rung must be able to answer even when the deadline has already
            // passed. With no deadline the grace alone bounds the rung.
            let timeout = batch
                .shared_budget
                .and_then(Budget::remaining_time)
                .map_or(rung.grace, |remaining| remaining.max(rung.grace));
            let budget = Budget::new(Some(timeout), rung.max_steps);
            let rung_config = EngineConfig { algorithm: rung.algorithm, ..self.config.clone() };
            let rung_attributor = rung_config.attributor();
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                run_dense(rung_attributor.as_ref(), prekeyed, stream, &budget)
            }));
            fallback_steps += budget.steps_used();
            if let Ok(Ok(dense)) = outcome {
                let mut attribution = prekeyed.map_back(&dense);
                attribution.degradation =
                    Some(Degradation { rung: rung.algorithm, reason, budget_spent: spent });
                attribution.stats.degraded = true;
                attribution.stats.fallback_steps = fallback_steps;
                self.record(&attribution);
                self.stats.degraded += 1;
                self.stats.fallback_steps += fallback_steps;
                return Ok(attribution);
            }
            spent += budget.steps_used();
        }
        Err(Interrupted)
    }

    /// The `k` facts of a lineage with the largest Banzhaf values.
    ///
    /// Top-k runs bypass the cache: the ranking backends stop refining as
    /// soon as the selection is decided, so their partial results are not
    /// reusable across answers.
    pub fn top_k(&mut self, lineage: &Dnf, k: usize) -> Result<Ranked, Interrupted> {
        let ranked = self.attributor.top_k(lineage, k, &self.config.budget())?;
        self.stats.compile_steps += ranked.stats.compile_steps;
        self.stats.wall += ranked.stats.wall;
        Ok(ranked)
    }

    fn record(&mut self, attribution: &Attribution) {
        self.stats.compile_steps += attribution.stats.compile_steps;
        self.stats.wall += attribution.stats.wall;
    }
}

/// Runs `attributor` on the dense lineage of `p`, built here: only instances
/// that reach a backend pay for building it.
fn run_dense(
    attributor: &dyn Attributor,
    p: &Prekeyed,
    stream: u64,
    budget: &Budget,
) -> Result<Attribution, Interrupted> {
    let weighted = p.dense_weighted();
    let dnf;
    let lineage = match &weighted {
        Some(w) => Lineage::Aggregate(w),
        None => {
            dnf = p.dense_dnf();
            Lineage::Boolean(&dnf)
        }
    };
    attributor.attribute_indexed(lineage, stream, budget)
}

/// Marks an attribution as served from the cache: the result cost nothing
/// this time around (the compiled tree's node count is kept for reporting).
fn cache_hit(mut attribution: Attribution) -> Attribution {
    attribution.stats.compile_steps = 0;
    attribution.stats.wall = Duration::ZERO;
    attribution.stats.cache_hit = true;
    attribution
}

/// One instance of a batch loop ([`Session::attribute_each`]): its lineage,
/// and the answer it becomes with its outcome.
trait Instance {
    type Answer;
    fn lineage(&self) -> Lineage<'_>;
    fn answer(self, outcome: Result<Attribution, Interrupted>) -> Self::Answer;
    fn outcome(answer: &mut Self::Answer) -> &mut Result<Attribution, Interrupted>;
}

/// A lineage of [`Session::attribute_batch`]: its answer is the outcome.
impl<L: AsLineage> Instance for &L {
    type Answer = Result<Attribution, Interrupted>;
    fn lineage(&self) -> Lineage<'_> {
        (**self).as_lineage()
    }
    fn answer(self, outcome: Result<Attribution, Interrupted>) -> Self::Answer {
        outcome
    }
    fn outcome(answer: &mut Self::Answer) -> &mut Result<Attribution, Interrupted> {
        answer
    }
}

/// An evaluated answer of [`Session::explain`]: tuple and lineage move into
/// the answer next to the outcome.
impl Instance for Answer {
    type Answer = AnswerAttribution;
    fn lineage(&self) -> Lineage<'_> {
        Lineage::Boolean(&self.lineage)
    }
    fn answer(self, outcome: Result<Attribution, Interrupted>) -> AnswerAttribution {
        AnswerAttribution { tuple: self.tuple, lineage: self.lineage, outcome }
    }
    fn outcome(answer: &mut AnswerAttribution) -> &mut Result<Attribution, Interrupted> {
        &mut answer.outcome
    }
}

/// One batch's fixed context, shared by the planning, compile and assembly
/// stages.
struct Batch<'a> {
    prekeyed: Vec<Prekeyed>,
    /// Instance `i` draws sample stream `streams[i]`.
    streams: Vec<u64>,
    shared_budget: Option<&'a Budget>,
    /// The fallback ladder (call override, else configuration).
    rungs: Vec<Rung>,
    /// The effective algorithm (an aggregate batch may substitute one).
    algorithm: Algorithm,
    use_cache: bool,
}

/// What the planning walk decided for each instance of a batch.
struct Plan {
    /// Instances that compile, in instance order.
    jobs: Vec<usize>,
    /// Instances already resolved by a cache hit.
    hits: Vec<Option<Attribution>>,
    /// The earlier in-batch instance whose compile each instance reuses.
    reuse: Vec<Option<usize>>,
    /// The canonical witness of each instance's shape, where one was needed.
    canon: Vec<Option<Arc<CanonInfo>>>,
    /// Per-instance canonicalization costs: (steps, searches, skips).
    paid: Vec<(u64, u64, u64)>,
}

/// What one compile job produced: a completed attribution (the only outcome
/// that may enter the shared cache), or a failure with the steps the budget
/// had recorded when it surfaced — the degradation ladder reports that spend.
enum JobOutcome {
    /// Shared with the cache entry it is merged into, so the merge copies
    /// nothing.
    Done(Arc<Attribution>),
    Starved(u64),
    Panicked(u64),
}

/// The canonicalization state of one batch's planning walk. Every search
/// runs inline, in instance order, and is charged to the instance whose
/// probe needed it — exactly where the sequential loop would pay it.
struct Keying<'a> {
    prekeyed: &'a [Prekeyed],
    shared_budget: Option<&'a Budget>,
    /// `first[i]` is the earliest instance with the same dense presentation
    /// as instance `i` (`None` for the first of its presentation).
    first: Vec<Option<usize>>,
    /// The canonical witness of each instance's shape, computed at most
    /// once per batch (an instance's witness may be paid for by a *later*
    /// instance probing it as a potential in-batch owner).
    canon: Vec<Option<Arc<CanonInfo>>>,
    /// Witnesses computed for still-unkeyed cache residents, memoized by
    /// entry id (the settle step also stores them on the entries, so other
    /// sessions never re-pay either).
    residents: HashMap<u64, Arc<CanonInfo>>,
}

impl<'a> Keying<'a> {
    /// Groups the batch by exact presentation (equal presentations share a
    /// fingerprint, so only same-fingerprint instances are compared).
    fn new(prekeyed: &'a [Prekeyed], shared_budget: Option<&'a Budget>) -> Self {
        let n = prekeyed.len();
        let mut first = vec![None; n];
        let mut firsts: HashMap<Fingerprint, Vec<usize>> = HashMap::new();
        for (i, p) in prekeyed.iter().enumerate() {
            let seen = firsts.entry(p.fingerprint()).or_default();
            first[i] = seen.iter().copied().find(|&j| prekeyed[j].shape == p.shape);
            if first[i].is_none() {
                seen.push(i);
            }
        }
        Keying { prekeyed, shared_budget, first, canon: vec![None; n], residents: HashMap::new() }
    }

    /// Canonicalizes instance `i`'s shape: reusing a witness already
    /// computed for it or for an earlier instance of the same presentation
    /// (the witness is a function of the presentation, so that is free),
    /// else keying it — under the shared budget when one is present (`None`
    /// means the descent was interrupted and the instance stays unkeyed).
    /// The keying's steps are charged to the walk's cost counters, and to
    /// `searches` if some core ran the individualization search.
    fn key(&mut self, i: usize, steps: &mut u64, searches: &mut u64) -> Option<Arc<CanonInfo>> {
        let known =
            self.canon[i].clone().or_else(|| self.first[i].and_then(|j| self.canon[j].clone()));
        let info = match known {
            Some(info) => info,
            None => {
                let (info, cost, searched) =
                    self.prekeyed[i].shape.canonicalize(self.shared_budget)?;
                *steps += cost;
                *searches += u64::from(searched);
                Arc::new(info)
            }
        };
        self.canon[i] = Some(Arc::clone(&info));
        Some(info)
    }

    /// Searches the earlier in-batch instances `mates` (pending under the
    /// same fingerprint) for one whose canonical key equals `mine`, lazily
    /// canonicalizing mates that have not been keyed yet and charging the
    /// work to the probing instance.
    fn find_mate(
        &mut self,
        mates: &[usize],
        mine: &CanonInfo,
        steps: &mut u64,
        searches: &mut u64,
    ) -> Option<usize> {
        // An unkeyable mate under a drained budget cannot match.
        mates
            .iter()
            .copied()
            .find(|&j| self.key(j, steps, searches).is_some_and(|c| c.key == mine.key))
    }

    /// Settles a contested bucket against its residents in bucket order,
    /// lazily canonicalizing the unkeyed ones and stopping at the first
    /// exact match with `mine`. Returns the witnesses computed here, for
    /// [`SharedCache::finish_lookup`] to store on their entries.
    fn settle(
        &mut self,
        residents: &[Resident],
        mine: &CanonInfo,
        steps: &mut u64,
        searches: &mut u64,
    ) -> Vec<(u64, Arc<CanonInfo>)> {
        let mut resolved = Vec::new();
        for r in residents {
            let canon = if let Some(c) = r.canon.as_ref().or_else(|| self.residents.get(&r.id)) {
                Arc::clone(c)
            } else {
                // Budget drained mid-descent: stop settling; the keys
                // resolved so far still count.
                let Some((info, cost, searched)) = r.shape.canonicalize(self.shared_budget) else {
                    break;
                };
                *steps += cost;
                *searches += u64::from(searched);
                let info = Arc::new(info);
                self.residents.insert(r.id, Arc::clone(&info));
                resolved.push((r.id, Arc::clone(&info)));
                info
            };
            if canon.key == mine.key {
                break;
            }
        }
        resolved
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Algorithm, CacheConfig};
    use banzhaf_boolean::{Var, VarSet};
    use banzhaf_query::parse_program;

    fn v(i: u32) -> Var {
        Var(i)
    }

    /// A lineage needing Shannon expansion, shifted by a variable offset.
    fn shifted_cycle(offset: u32) -> Dnf {
        Dnf::from_clauses(vec![
            vec![v(offset), v(offset + 1)],
            vec![v(offset + 1), v(offset + 2)],
            vec![v(offset + 2), v(offset + 3)],
            vec![v(offset + 3), v(offset)],
        ])
    }

    /// A 4-path shifted by a variable offset: connected with no common
    /// variable, so it needs a Shannon step (a 3-path would factor out its
    /// middle variable and be read-once).
    fn shifted_path(offset: u32) -> Dnf {
        Dnf::from_clauses(vec![
            vec![v(offset), v(offset + 1)],
            vec![v(offset + 1), v(offset + 2)],
            vec![v(offset + 2), v(offset + 3)],
        ])
    }

    /// A triangle shifted by a variable offset: the smallest lineage that
    /// needs a Shannon step, in fewer compile steps than the cycle.
    fn shifted_triangle(offset: u32) -> Dnf {
        Dnf::from_clauses(vec![
            vec![v(offset), v(offset + 1)],
            vec![v(offset + 1), v(offset + 2)],
            vec![v(offset), v(offset + 2)],
        ])
    }

    #[test]
    fn isomorphic_lineages_share_a_cache_entry() {
        let engine = Engine::new(EngineConfig::default());
        let mut session = engine.session();
        let first = session.attribute(&shifted_cycle(0)).unwrap();
        let second = session.attribute(&shifted_cycle(10)).unwrap();
        assert!(!first.stats.cache_hit);
        assert!(second.stats.cache_hit);
        assert_eq!(session.stats().cache_hits, 1);
        // The values transfer under the variable bijection.
        for i in 0..4 {
            assert_eq!(
                first.value(v(i)).unwrap().exact(),
                second.value(v(10 + i)).unwrap().exact()
            );
        }
        assert_eq!(first.model_count, second.model_count);
    }

    #[test]
    fn cached_results_match_uncached_runs() {
        let engine_cached =
            Engine::new(EngineConfig::default().with_cache_config(CacheConfig::new()));
        let engine_plain =
            Engine::new(EngineConfig::default().with_cache_config(CacheConfig::disabled()));
        let (mut cached, mut plain) = (engine_cached.session(), engine_plain.session());
        for offset in [0, 5, 9] {
            let phi = shifted_cycle(offset);
            let a = cached.attribute(&phi).unwrap();
            let b = plain.attribute(&phi).unwrap();
            assert_eq!(a.exact_values().unwrap(), b.exact_values().unwrap());
            assert_eq!(a.model_count, b.model_count);
        }
        // The cache saved compile work on the repeated shape.
        assert!(cached.stats().compile_steps < plain.stats().compile_steps);
        assert_eq!(cached.stats().cache_hits, 2);
    }

    #[test]
    fn randomized_backends_are_never_cached() {
        // Isomorphic lineages must get independent Monte Carlo samples, not a
        // renamed copy of each other's estimates.
        let engine = Engine::new(
            EngineConfig::new(Algorithm::MonteCarlo).with_cache_config(CacheConfig::new()),
        );
        let mut session = engine.session();
        let first = session.attribute(&shifted_cycle(0)).unwrap();
        let second = session.attribute(&shifted_cycle(10)).unwrap();
        assert!(!second.stats.cache_hit);
        assert_eq!(session.stats().cache_hits, 0);
        // The RNG advanced between the calls, so the (canonical) estimates
        // are drawn from different sample sets.
        let a: Vec<f64> = (0..4).map(|i| first.value(v(i)).unwrap().point()).collect();
        let b: Vec<f64> = (0..4).map(|i| second.value(v(10 + i)).unwrap().point()).collect();
        assert_ne!(a, b, "independent sampling should not reproduce identical estimates");
    }

    #[test]
    fn different_shapes_do_not_collide() {
        let engine = Engine::new(EngineConfig::default());
        let mut session = engine.session();
        let path = Dnf::from_clauses(vec![vec![v(0), v(1)], vec![v(1), v(2)], vec![v(2), v(3)]]);
        let star = Dnf::from_clauses(vec![vec![v(0), v(1)], vec![v(0), v(2)], vec![v(0), v(3)]]);
        let a = session.attribute(&path).unwrap();
        let b = session.attribute(&star).unwrap();
        assert!(!b.stats.cache_hit);
        assert_ne!(a.model_count, b.model_count);
        assert_ne!(a.exact_values(), b.exact_values());
    }

    #[test]
    fn relabelled_lineages_hit_regardless_of_label_order() {
        // A 4-path whose middle variables carry the middle labels vs the
        // smallest ones: first-occurrence renaming keyed these apart; the
        // refinement-based key must score a hit and transfer the values
        // through the bijection.
        let engine = Engine::new(EngineConfig::default());
        let mut session = engine.session();
        let middle_is_mid = shifted_path(0);
        let middle_is_small =
            Dnf::from_clauses(vec![vec![v(2), v(0)], vec![v(0), v(1)], vec![v(1), v(3)]]);
        let a = session.attribute(&middle_is_mid).unwrap();
        let b = session.attribute(&middle_is_small).unwrap();
        assert!(b.stats.cache_hit, "isomorphic labellings must share one cache entry");
        assert_eq!(engine.stats().cache.insertions, 1);
        // The bijection maps middles to middles and ends to ends.
        assert_eq!(a.value(v(1)).unwrap().exact(), b.value(v(0)).unwrap().exact());
        assert_eq!(a.value(v(0)).unwrap().exact(), b.value(v(2)).unwrap().exact());
        assert_eq!(a.model_count, b.model_count);
        assert!(b.stats.canon_steps > 0, "canonicalization cost must be reported");
    }

    #[test]
    fn unused_universe_variables_survive_canonicalization() {
        let phi = Dnf::from_clauses_with_universe(
            vec![vec![v(3), v(7)]],
            VarSet::from_iter([v(3), v(5), v(7)]),
        );
        let engine = Engine::new(EngineConfig::default());
        let mut session = engine.session();
        let att = session.attribute(&phi).unwrap();
        assert_eq!(att.values.len(), 3);
        assert_eq!(att.value(v(5)).unwrap().exact().unwrap().to_u64(), Some(0));
        assert_eq!(att.model_count.as_ref().unwrap().to_u64(), Some(2));
    }

    #[test]
    fn explain_attributes_every_answer() {
        let mut db = Database::new();
        db.add_relation("R", 2);
        db.add_relation("S", 2);
        for x in [1i64, 2] {
            for y in [10i64, 20] {
                db.insert_endogenous("R", vec![x.into(), (y + x).into()]).unwrap();
                db.insert_endogenous("S", vec![(y + x).into(), x.into()]).unwrap();
            }
        }
        let query = parse_program("Q(X) :- R(X, Y), S(Y, X).").unwrap();
        let engine = Engine::new(EngineConfig::default().with_shapley(true));
        let mut session = engine.session();
        let explained = session.explain(&query, &db);
        assert_eq!(explained.answers.len(), 2);
        assert!(explained.is_complete());
        assert_eq!(explained.num_starved(), 0);
        for answer in &explained.answers {
            let attribution = answer.attribution().expect("unlimited budget");
            assert!(attribution.is_exact());
            assert!(attribution.shapley.is_some());
            assert_eq!(attribution.values.len(), answer.lineage.num_vars());
        }
        // The two answers have isomorphic lineages: the second is a hit.
        assert_eq!(session.stats().cache_hits, 1);
    }

    #[test]
    fn explain_keeps_finished_answers_when_one_starves() {
        // Answer 1 has a one-clause lineage; answer 2 joins three R facts
        // with three S facts and three T facts, one chain each. Both have
        // clauses that share no variable, so ExaBan answers them in closed
        // form and compiles nothing. Answer 3 joins two R facts with two S
        // facts each and two T facts, a cycle of shared facts with no fact
        // common to every clause, so it needs a Shannon step and compiles.
        // A step cap between the costs starves answer 3 only — the
        // completed work of answers 1 and 2 must survive.
        let mut db = Database::new();
        db.add_relation("R", 2);
        db.add_relation("S", 2);
        db.add_relation("T", 1);
        db.insert_endogenous("R", vec![1.into(), 10.into()]).unwrap();
        db.insert_endogenous("S", vec![10.into(), 0.into()]).unwrap();
        for i in 0..3i64 {
            db.insert_endogenous("R", vec![2.into(), (20 + i).into()]).unwrap();
            db.insert_endogenous("S", vec![(20 + i).into(), (100 + i).into()]).unwrap();
            db.insert_endogenous("T", vec![(100 + i).into()]).unwrap();
        }
        for y in [30i64, 31] {
            db.insert_endogenous("R", vec![3.into(), y.into()]).unwrap();
            for z in 0..2i64 {
                db.insert_endogenous("S", vec![y.into(), z.into()]).unwrap();
            }
        }
        for z in 0..2i64 {
            db.insert_endogenous("T", vec![z.into()]).unwrap();
        }
        let query = parse_program("Q(X) :- R(X, Y), S(Y, Z), T(Z).").unwrap();
        // Probe the answers' compile costs with an unlimited budget.
        let probe = Engine::new(EngineConfig::default().with_cache_config(CacheConfig::disabled()))
            .session()
            .explain(&query, &db);
        let cost = |i: usize| probe.answers[i].attribution().unwrap().stats.compile_steps;
        assert_eq!((cost(0), cost(1)), (0, 0), "closed-form answers compile nothing");
        assert!(cost(0) + 1 < cost(2), "the probe must order the answers by cost");

        let mut config = EngineConfig::default().with_cache_config(CacheConfig::disabled());
        config.max_steps = Some(cost(0) + 1);
        let explained = Engine::new(config).session().explain(&query, &db);
        assert!(!explained.is_complete());
        assert_eq!(explained.num_starved(), 1);
        assert_eq!(explained.finished().count(), 2);
        for i in 0..2 {
            assert!(explained.answers[i].outcome.is_ok(), "cheap answer keeps its result");
            assert_eq!(
                explained.answers[i].attribution().unwrap().exact_values(),
                probe.answers[i].attribution().unwrap().exact_values()
            );
        }
        assert!(explained.answers[2].outcome.is_err(), "costly answer reports Interrupted");
    }

    /// Lineages mixing repeated canonical shapes (shifted cycles) with
    /// distinct ones, so batches exercise hits, in-batch reuse and misses.
    /// Every one needs a Shannon step, so none is answered in closed form.
    fn mixed_batch() -> Vec<Dnf> {
        let mut lineages: Vec<Dnf> = (0..4u32).map(|s| shifted_cycle(s * 10)).collect();
        lineages.push(shifted_triangle(0));
        lineages.push(shifted_path(0));
        lineages
    }

    #[test]
    fn batch_is_bit_identical_to_sequential_at_every_thread_count() {
        let lineages = mixed_batch();
        let mut sequential = Engine::new(EngineConfig::default()).session();
        let expected: Vec<Attribution> =
            lineages.iter().map(|l| sequential.attribute(l).unwrap()).collect();
        for threads in [1usize, 2, 4] {
            let engine = Engine::new(EngineConfig::default().with_threads(threads));
            let mut session = engine.session();
            let refs: Vec<&Dnf> = lineages.iter().collect();
            let got = session.attribute_batch(&refs, BatchOptions::default());
            assert_eq!(got.len(), expected.len());
            for (want, have) in expected.iter().zip(&got) {
                let have = have.as_ref().unwrap();
                assert_eq!(want.exact_values().unwrap(), have.exact_values().unwrap());
                assert_eq!(want.model_count, have.model_count);
                assert_eq!(want.stats.cache_hit, have.stats.cache_hit, "threads={threads}");
                assert_eq!(want.stats.compile_steps, have.stats.compile_steps);
            }
            assert_eq!(session.stats().cache_hits, sequential.stats().cache_hits);
            assert_eq!(session.stats().compile_steps, sequential.stats().compile_steps);
            assert_eq!(session.stats().attributions, sequential.stats().attributions);
        }
    }

    /// The counters a batch must leave exactly as the one-at-a-time loop
    /// does (everything but wall time).
    fn counters(stats: &SessionStats) -> [u64; 8] {
        [
            stats.attributions,
            stats.cache_hits,
            stats.compile_steps,
            stats.canon_steps,
            stats.canon_searches,
            stats.prekey_skips,
            stats.degraded,
            stats.fallback_steps,
        ]
    }

    #[test]
    fn warm_batches_settle_repeated_presentations_like_the_sequential_loop() {
        // `mixed_batch` repeats the cycle's presentation four times; add
        // repeats of the other two presentations, interleaved.
        let mut lineages = mixed_batch();
        lineages.push(shifted_triangle(50));
        lineages.push(shifted_cycle(70));
        lineages.push(shifted_path(60));
        lineages.push(shifted_triangle(80));
        let refs: Vec<&Dnf> = lineages.iter().collect();
        // Two engines warmed by a first pass: one looped, one batched.
        let (looped, batched) =
            (Engine::new(EngineConfig::default()), Engine::new(EngineConfig::default()));
        let mut warm = looped.session();
        for l in &lineages {
            warm.attribute(l).unwrap();
        }
        batched.session().attribute_batch(&refs, BatchOptions::default());
        let (loop_before, batch_before) = (looped.stats().cache, batched.stats().cache);
        let mut one_at_a_time = looped.session();
        let expected: Vec<Attribution> =
            lineages.iter().map(|l| one_at_a_time.attribute(l).unwrap()).collect();
        let mut batch = batched.session();
        let got = batch.attribute_batch(&refs, BatchOptions::default());
        for (want, have) in expected.iter().zip(&got) {
            let have = have.as_ref().unwrap();
            assert_eq!(want.exact_values().unwrap(), have.exact_values().unwrap());
            assert_eq!(want.model_count, have.model_count);
            assert!(have.stats.cache_hit, "a warm cache serves every instance");
            assert_eq!(want.stats.cache_hit, have.stats.cache_hit);
        }
        assert_eq!(counters(batch.stats()), counters(one_at_a_time.stats()));
        let (loop_after, batch_after) = (looped.stats().cache, batched.stats().cache);
        assert_eq!(
            (batch_after.hits - batch_before.hits, batch_after.misses - batch_before.misses),
            (loop_after.hits - loop_before.hits, loop_after.misses - loop_before.misses),
        );
        assert_eq!(batch_after.hits - batch_before.hits, lineages.len() as u64);
        assert_eq!(batch_after.entries, loop_after.entries);
    }

    #[test]
    fn batch_presentation_settles_refresh_recency_like_the_sequential_loop() {
        // Capacity 2 holding A then B (A least recent). `[A, B, A]` leaves B
        // least recent, so the next insert must evict B, not A — in a batch
        // exactly as in the loop, which only holds if the third instance's
        // settle (no lookup) refreshes A's recency.
        let a = shifted_cycle(0);
        let b = shifted_triangle(0);
        let c = shifted_path(0);
        let survivors = |batch: bool| {
            let engine = Engine::new(
                EngineConfig::default().with_cache_config(CacheConfig::new().with_capacity(2)),
            );
            let mut session = engine.session();
            session.attribute(&a).unwrap();
            session.attribute(&b).unwrap();
            let again = [&a, &b, &shifted_cycle(40)];
            if batch {
                let got = session.attribute_batch(&again, BatchOptions::default());
                assert!(got.iter().all(|r| r.as_ref().unwrap().stats.cache_hit));
            } else {
                for l in again {
                    assert!(session.attribute(l).unwrap().stats.cache_hit);
                }
            }
            session.attribute(&c).unwrap();
            let stats = engine.stats().cache;
            assert_eq!((stats.entries, stats.evictions), (2, 1));
            // B last: its miss inserts it again and evicts another entry.
            let hits = [&a, &c, &b].map(|l| session.attribute(l).unwrap().stats.cache_hit);
            (hits, stats.hits)
        };
        assert_eq!(survivors(true), survivors(false));
        assert_eq!(survivors(true).0, [true, true, false], "B, the least recent, was evicted");
    }

    #[test]
    fn batch_monte_carlo_streams_match_the_sequential_loop() {
        let lineages = mixed_batch();
        let config = EngineConfig::new(Algorithm::MonteCarlo).with_seed(99);
        let mut sequential = Engine::new(config.clone()).session();
        let expected: Vec<Vec<f64>> = lineages
            .iter()
            .map(|l| {
                let att = sequential.attribute(l).unwrap();
                l.universe().iter().map(|x| att.value(x).unwrap().point()).collect()
            })
            .collect();
        for threads in [1usize, 2, 4] {
            let mut session = Engine::new(config.clone().with_threads(threads)).session();
            let refs: Vec<&Dnf> = lineages.iter().collect();
            let got = session.attribute_batch(&refs, BatchOptions::default());
            for ((lineage, want), have) in lineages.iter().zip(&expected).zip(&got) {
                let have = have.as_ref().unwrap();
                let have: Vec<f64> =
                    lineage.universe().iter().map(|x| have.value(x).unwrap().point()).collect();
                assert_eq!(want, &have, "threads={threads} changed the MC sample set");
            }
        }
    }

    #[test]
    fn shared_budget_interrupts_unfinished_instances_across_workers() {
        let lineages = mixed_batch();
        let refs: Vec<&Dnf> = lineages.iter().collect();
        let engine = Engine::new(
            EngineConfig::default().with_cache_config(CacheConfig::disabled()).with_threads(4),
        );
        // A one-step shared budget: nothing can finish, every instance
        // reports Interrupted, and the call returns (workers joined).
        let mut session = engine.session();
        let starving = Budget::with_max_steps(1);
        let starved =
            session.attribute_batch(&refs, BatchOptions::new().with_shared_budget(&starving));
        assert!(starved.iter().all(Result::is_err));
        // An ample shared budget completes the whole batch.
        let mut session = engine.session();
        let ample = Budget::with_max_steps(1_000_000);
        let done = session.attribute_batch(&refs, BatchOptions::new().with_shared_budget(&ample));
        assert!(done.iter().all(Result::is_ok));
    }

    #[test]
    fn per_instance_step_caps_interrupt_identically_in_batch_and_loop() {
        // A step cap that lets the tiny lineages through but starves the
        // cycles; the Ok/Err pattern must match the sequential loop.
        let lineages = mixed_batch();
        let config = EngineConfig::default().with_cache_config(CacheConfig::disabled());
        let cap = {
            let mut probe = Engine::new(config.clone()).session();
            // Steps the smallest lineage needs (ample budget, read stats).
            probe.attribute(&lineages[4]).unwrap().stats.compile_steps + 1
        };
        let mut config = config;
        config.max_steps = Some(cap);
        let mut sequential = Engine::new(config.clone()).session();
        let expected: Vec<bool> =
            lineages.iter().map(|l| sequential.attribute(l).is_ok()).collect();
        assert!(expected.contains(&true) && expected.contains(&false), "cap splits the batch");
        for threads in [2usize, 4] {
            let mut session = Engine::new(config.clone().with_threads(threads)).session();
            let refs: Vec<&Dnf> = lineages.iter().collect();
            let got: Vec<bool> = session
                .attribute_batch(&refs, BatchOptions::default())
                .iter()
                .map(Result::is_ok)
                .collect();
            assert_eq!(expected, got, "threads={threads}");
        }
    }

    #[test]
    fn monte_carlo_sessions_of_one_engine_draw_disjoint_streams() {
        // Two sessions of one engine attribute isomorphic lineages: with a
        // per-session stream counter both would replay stream 0 and return
        // identical (perfectly correlated) estimates; the engine-global
        // allocator must hand them independent streams.
        let engine = Engine::new(EngineConfig::new(Algorithm::MonteCarlo));
        let first = engine.session().attribute(&shifted_cycle(0)).unwrap();
        let second = engine.session().attribute(&shifted_cycle(10)).unwrap();
        let a: Vec<f64> = (0..4).map(|i| first.value(v(i)).unwrap().point()).collect();
        let b: Vec<f64> = (0..4).map(|i| second.value(v(10 + i)).unwrap().point()).collect();
        assert_ne!(a, b, "sessions must not replay each other's sample streams");
    }

    #[test]
    fn sessions_of_one_engine_share_the_cache() {
        let engine = Engine::new(EngineConfig::default());
        let mut first = engine.session();
        let a = first.attribute(&shifted_cycle(0)).unwrap();
        assert!(!a.stats.cache_hit);
        // A *different* session — and a clone of the engine — both hit the
        // compilation the first session merged.
        let mut second = engine.session();
        let b = second.attribute(&shifted_cycle(10)).unwrap();
        assert!(b.stats.cache_hit, "cross-session reuse through the shared cache");
        let mut third = engine.clone().session();
        let c = third.attribute(&shifted_cycle(20)).unwrap();
        assert!(c.stats.cache_hit, "engine clones point at the same cache");
        for i in 0..4 {
            assert_eq!(a.value(v(i)).unwrap().exact(), b.value(v(10 + i)).unwrap().exact());
            assert_eq!(a.value(v(i)).unwrap().exact(), c.value(v(20 + i)).unwrap().exact());
        }
        let stats = engine.stats().cache;
        assert_eq!(stats.hits, 2);
        assert_eq!(stats.insertions, 1);
        assert_eq!(stats.entries, 1);
    }

    #[test]
    fn bounded_cache_evicts_but_stays_correct() {
        let engine = Engine::new(
            EngineConfig::default().with_cache_config(CacheConfig::new().with_capacity(1)),
        );
        let mut session = engine.session();
        let path = shifted_path(0);
        let cycle = shifted_cycle(0);
        let first_path = session.attribute(&path).unwrap();
        // The cycle displaces the path (capacity 1), so re-attributing the
        // path recompiles — with identical values.
        session.attribute(&cycle).unwrap();
        let again = session.attribute(&path).unwrap();
        assert!(!again.stats.cache_hit, "evicted shape must recompile");
        assert_eq!(first_path.exact_values(), again.exact_values());
        let stats = engine.stats().cache;
        assert!(stats.evictions >= 1, "capacity 1 must evict: {stats:?}");
        assert_eq!(stats.entries, 1);
    }

    #[test]
    fn concurrent_sessions_reuse_each_others_compilations() {
        let engine = Engine::new(EngineConfig::default());
        // Warm the cache from one session, then hammer it from four threads
        // with isomorphic lineages: every attribution is a hit and the values
        // transfer correctly.
        let expected = engine.session().attribute(&shifted_cycle(0)).unwrap();
        std::thread::scope(|scope| {
            for t in 0..4u32 {
                let engine = &engine;
                let expected = &expected;
                scope.spawn(move || {
                    let mut session = engine.session();
                    let offset = (t + 1) * 100;
                    let att = session.attribute(&shifted_cycle(offset)).unwrap();
                    assert!(att.stats.cache_hit);
                    for i in 0..4 {
                        assert_eq!(
                            att.value(v(offset + i)).unwrap().exact(),
                            expected.value(v(i)).unwrap().exact()
                        );
                    }
                });
            }
        });
        assert_eq!(engine.stats().cache.hits, 4);
    }

    #[test]
    fn session_topk_dispatches_to_the_backend() {
        let phi = Dnf::from_clauses(vec![vec![v(0), v(1)], vec![v(0), v(2)], vec![v(3)]]);
        let engine = Engine::new(EngineConfig::new(Algorithm::IchiBan).certain());
        let mut session = engine.session();
        let topk = session.top_k(&phi, 2).unwrap();
        assert!(topk.certified);
        assert_eq!(topk.order, vec![v(3), v(0)]);
    }

    #[test]
    fn strict_sessions_still_starve_on_exhausted_budgets() {
        // The default policy must keep the historical bit-identity contract:
        // budget exhaustion is an `Err`, never a silently degraded value.
        let config = EngineConfig { max_steps: Some(1), ..EngineConfig::default() };
        assert!(config.fallback.is_strict());
        let mut session = Engine::new(config).session();
        assert!(session.attribute(&shifted_cycle(0)).is_err());
        assert_eq!(session.stats().degraded, 0);
    }

    #[test]
    fn ladder_degrades_starved_instances_instead_of_failing() {
        use crate::attribution::Score;
        let cycle = shifted_cycle(0);
        let exact = Engine::new(EngineConfig::default()).session().attribute(&cycle).unwrap();
        // One decomposition step starves the exact backend outright; the
        // ladder must still produce an answer.
        let mut config = EngineConfig::default().with_fallback(FallbackPolicy::ladder());
        config.max_steps = Some(1);
        let engine = Engine::new(config);
        let mut session = engine.session();
        let att = session.attribute(&cycle).expect("the ladder resolves what strict starves");
        let degradation = att.degradation.expect("resolved on a fallback rung");
        assert_eq!(degradation.reason, DegradeReason::BudgetExhausted);
        assert!(att.stats.degraded);
        assert_eq!(session.stats().degraded, 1);
        assert!(session.stats().fallback_steps > 0);
        // The degraded score still brackets (interval rung) or estimates
        // (sampling rung) the exact value.
        for x in cycle.universe().iter() {
            let want = exact.value(x).unwrap().exact().unwrap();
            match att.value(x).unwrap() {
                Score::Exact(got) => assert_eq!(*got, want),
                Score::Interval(i) => {
                    assert!(
                        i.lower <= want && want <= i.upper,
                        "degraded interval must bracket the exact value"
                    );
                }
                Score::Estimate(e) => assert!(e.is_finite() && *e >= 0.0),
                Score::Rational(_) => panic!("Boolean ladder rungs never score rationals"),
            }
        }
        // Neither the failed exact compile nor the degraded result may enter
        // the shared cache; an isomorphic retry degrades again, no hit.
        assert_eq!(engine.stats().cache.insertions, 0);
        let again = session.attribute(&shifted_cycle(10)).unwrap();
        assert!(again.degradation.is_some());
        assert!(!again.stats.cache_hit);
        assert_eq!(session.stats().degraded, 2);
    }

    #[test]
    fn batch_ladder_degrades_only_the_starved_instances() {
        // A per-instance cap that lets the tiny lineages through but starves
        // the cycles: completed instances stay exact (and cacheable), the
        // starved ones degrade, and nothing reports `Err`.
        let lineages = mixed_batch();
        let refs: Vec<&Dnf> = lineages.iter().collect();
        let cap = {
            let mut probe = Engine::new(EngineConfig::default()).session();
            probe.attribute(&lineages[4]).unwrap().stats.compile_steps + 1
        };
        let mut config = EngineConfig::default().with_fallback(FallbackPolicy::ladder());
        config.max_steps = Some(cap);
        let mut strict_config = config.clone();
        strict_config.fallback = FallbackPolicy::Strict;
        let strict: Vec<bool> = {
            let mut session = Engine::new(strict_config).session();
            session
                .attribute_batch(&refs, BatchOptions::default())
                .iter()
                .map(Result::is_ok)
                .collect()
        };
        assert!(strict.contains(&false), "cap must starve part of the batch");
        let engine = Engine::new(config);
        let mut session = engine.session();
        let outcomes = session.attribute_batch(&refs, BatchOptions::default());
        for (outcome, strict_ok) in outcomes.iter().zip(&strict) {
            let att = outcome.as_ref().expect("ladder leaves no instance unresolved");
            assert_eq!(
                att.degradation.is_none(),
                *strict_ok,
                "exactly the strict-starved instances degrade"
            );
        }
        assert_eq!(session.stats().degraded, strict.iter().filter(|ok| !**ok).count() as u64);
    }

    #[test]
    fn batch_options_override_the_configured_policy() {
        let mut config = EngineConfig::default().with_fallback(FallbackPolicy::ladder());
        config.max_steps = Some(1);
        let mut session = Engine::new(config).session();
        let cycle = shifted_cycle(0);
        let strict = FallbackPolicy::Strict;
        let outcomes =
            session.attribute_batch(&[&cycle], BatchOptions::new().with_fallback(&strict));
        assert!(outcomes[0].is_err(), "per-call override wins");
    }

    /// A batch where *every* fingerprint bucket is contested: four isomorphic
    /// cycles (one fingerprint, four instances) plus four isomorphic paths,
    /// interleaved — the worst case for the planning walk's cost accounting,
    /// since each instance both probes and may key its mates.
    fn contested_heavy_batch() -> Vec<Dnf> {
        let mut lineages = Vec::new();
        for s in 0..4u32 {
            lineages.push(shifted_cycle(s * 10));
            lineages.push(Dnf::from_clauses(vec![
                vec![v(100 + s * 10), v(101 + s * 10)],
                vec![v(101 + s * 10), v(102 + s * 10)],
            ]));
        }
        lineages
    }

    #[test]
    fn contested_heavy_batches_fan_out_with_identical_cost_accounting() {
        // The thread count must leave the plan — and every charged counter —
        // bit-identical to the single-threaded walk, even when every bucket
        // is contested and each instance keys its mates.
        let lineages = contested_heavy_batch();
        let refs: Vec<&Dnf> = lineages.iter().collect();
        let mut sequential = Engine::new(EngineConfig::default().with_threads(1)).session();
        let expected = sequential.attribute_batch(&refs, BatchOptions::default());
        for threads in [2usize, 4] {
            let engine = Engine::new(EngineConfig::default().with_threads(threads));
            let mut session = engine.session();
            let got = session.attribute_batch(&refs, BatchOptions::default());
            for (want, have) in expected.iter().zip(&got) {
                let (want, have) = (want.as_ref().unwrap(), have.as_ref().unwrap());
                assert_eq!(want.exact_values().unwrap(), have.exact_values().unwrap());
                assert_eq!(want.stats.cache_hit, have.stats.cache_hit, "threads={threads}");
                assert_eq!(want.stats.canon_steps, have.stats.canon_steps, "threads={threads}");
                assert_eq!(want.stats.canon_searches, have.stats.canon_searches);
                assert_eq!(want.stats.prekey_skips, have.stats.prekey_skips);
            }
            assert_eq!(session.stats().cache_hits, sequential.stats().cache_hits);
            assert_eq!(session.stats().canon_steps, sequential.stats().canon_steps);
            assert_eq!(session.stats().canon_searches, sequential.stats().canon_searches);
            assert_eq!(session.stats().prekey_skips, sequential.stats().prekey_skips);
        }
    }

    #[test]
    fn warm_started_engines_replay_streams_from_the_snapshot() {
        let dir = std::env::temp_dir().join(format!(
            "banzhaf-warmstart-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("session.bzc");
        let lineages = mixed_batch();
        // Cold run, snapshot on the last engine-clone drop.
        let cold: Vec<Attribution> = {
            let engine = Engine::new(
                EngineConfig::default()
                    .with_cache_config(CacheConfig::new().with_warm_start(&path)),
            );
            let clone = engine.clone();
            let mut session = clone.session();
            let cold = lineages.iter().map(|l| session.attribute(l).unwrap()).collect();
            drop(session);
            drop(engine);
            assert!(!path.exists(), "clone still alive: no snapshot yet");
            drop(clone);
            cold
        };
        assert!(path.exists(), "last engine drop writes the snapshot");
        // A fresh engine warm-starts from it: every shape is a hit, and the
        // values are bit-identical to the cold run.
        let engine = Engine::new(
            EngineConfig::default().with_cache_config(CacheConfig::new().with_warm_start(&path)),
        );
        let stats = engine.stats().cache;
        assert_eq!(stats.snapshot_loads, 1);
        assert!(stats.snapshot_entries > 0);
        assert_eq!(stats.snapshot_rejects, 0);
        let mut session = engine.session();
        for (lineage, want) in lineages.iter().zip(&cold) {
            let have = session.attribute(lineage).unwrap();
            assert!(have.stats.cache_hit, "warm-started shape must hit");
            assert_eq!(have.stats.compile_steps, 0);
            assert_eq!(want.exact_values().unwrap(), have.exact_values().unwrap());
            assert_eq!(want.model_count, have.model_count);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
