//! The unified attribution pipeline: one front door over every algorithm of
//! *Banzhaf Values for Facts in Query Answering* (SIGMOD 2024) and its
//! baselines.
//!
//! The repo's lower layers expose the raw machinery — lineage DNFs
//! (`banzhaf-boolean`), d-tree compilation (`banzhaf-dtree`), the algorithms
//! (`banzhaf`, `banzhaf-baselines`), query evaluation (`banzhaf-query`). This
//! crate composes them behind three abstractions:
//!
//! * [`Attributor`] — the pluggable algorithm interface: `attribute_indexed`
//!   (all facts of a [`banzhaf_boolean::Lineage`], Boolean or aggregate, on
//!   a given sample stream), `attribute`, `attribute_var`, `rank` and
//!   `top_k`, each honouring a
//!   cooperative [`Budget`] deadline and returning the unified
//!   [`Attribution`] / [`Ranked`] result types with per-run [`EngineStats`].
//!   Implementations exist for ExaBan, AdaBan, IchiBan, Sig22, Monte Carlo
//!   and the CNF proxy; new estimators plug into the same slot.
//! * [`EngineConfig`] — one configuration (algorithm, pivot heuristic, ε,
//!   budget, seed, features) replacing the per-call option structs.
//! * [`Engine`] / [`Session`] — the end-to-end pipeline: evaluate a UCQ over
//!   a [`banzhaf_db::Database`], compute per-answer lineage, and batch
//!   attribution across answers while sharing work through the engine-level
//!   [`SharedCache`] keyed by canonical lineage (isomorphic lineages of
//!   distinct answers — and of distinct *sessions* — are attributed once;
//!   size-bounded, LRU-evicted, hit/miss/eviction counters in [`CacheStats`])
//!   and through the shared bottom-up model-count pass. The cache holds
//!   Boolean lineages only: aggregate batches compile every instance. Lookups resolve in
//!   two levels: a cheap isomorphism-invariant *fingerprint* (clause/var
//!   counts plus width and degree multiset hashes) settles the common case
//!   without any search, and only contested fingerprints fall back to the
//!   exact order-insensitive canonical form (common variables factored out
//!   and independent components split, as ExaBan's compiler does, then
//!   worklist colour refinement plus orbit-breaking backtracking over the
//!   clause–variable incidence graph of each indecomposable core), so *any*
//!   variable renaming or clause reordering of a cached lineage hits.
//!
//! ```
//! use banzhaf_engine::{Algorithm, Engine, EngineConfig};
//! use banzhaf_boolean::{Dnf, Var};
//!
//! // Example 13 of the paper, attributed through the engine.
//! let phi = Dnf::from_clauses(vec![
//!     vec![Var(0), Var(1)],
//!     vec![Var(0), Var(2)],
//!     vec![Var(3)],
//! ]);
//! let engine = Engine::new(EngineConfig::new(Algorithm::ExaBan));
//! let attribution = engine.session().attribute(&phi).unwrap();
//! assert_eq!(attribution.model_count.as_ref().unwrap().to_u64(), Some(11));
//! assert_eq!(attribution.ranking()[0].0, Var(3));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod attribution;
mod attributor;
mod cache;
mod canon;
mod config;
mod live;
mod persist;
mod registry;
mod session;

pub use attribution::{Attribution, Degradation, DegradeReason, EngineStats, Ranked, Score};
pub use attributor::{
    AdaBanAttributor, Attributor, CnfProxyAttributor, ExaBanAttributor, IchiBanAttributor,
    MonteCarloAttributor, Sig22Attributor,
};
pub use banzhaf::{Budget, Interrupted, PivotHeuristic};
pub use banzhaf_arith::Rational;
pub use banzhaf_boolean::{AggregateKind, WeightedDnf};
pub use banzhaf_db::{Database, Update};
pub use banzhaf_par::ThreadPool;
pub use banzhaf_query::{
    evaluate_aggregate, parse_program, AggregateAnswer, AggregateError, AggregateResult, UnionQuery,
};
pub use cache::{canonical_key_probe, prekey_probe, CacheStats, SharedCache};
pub use config::{Algorithm, CacheConfig, EngineConfig, FallbackPolicy, Rung};
pub use live::{AnswerChange, LiveSession, LiveStats, TouchedAnswer, UpdateReport};
pub use persist::SnapshotError;
pub use registry::{backend, first_with, markdown_table, Backend, Precision, REGISTRY};
pub use session::{
    AnswerAttribution, BatchOptions, Engine, EngineSnapshot, QueryAttribution, Session,
    SessionStats,
};
