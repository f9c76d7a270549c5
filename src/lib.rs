//! Umbrella crate for the reproduction of *Banzhaf Values for Facts in Query
//! Answering* (SIGMOD 2024).
//!
//! This crate simply re-exports the public API of the workspace members so
//! that downstream users (and the examples and integration tests in this
//! repository) can depend on a single crate:
//!
//! * [`engine`] — **the primary API**: the [`prelude::Engine`] /
//!   [`prelude::Session`] pipeline and the pluggable [`prelude::Attributor`]
//!   trait over every algorithm;
//! * [`arith`] — arbitrary-precision integers and rationals;
//! * [`boolean`] — positive DNF lineage functions;
//! * [`dtree`] — decomposition-tree knowledge compilation;
//! * [`serve`] — the async serving layer: a bounded request queue, worker
//!   sessions over the engine's shared cross-session cache, per-request
//!   budgets and cooperative cancellation;
//! * [`par`] — the scoped thread pool powering batch-parallel attribution;
//! * [`core`] — ExaBan / AdaBan / IchiBan / Shapley (the paper's algorithms);
//! * [`db`] — the in-memory relational database substrate;
//! * [`query`] — UCQ parsing, analysis and provenance-aware evaluation;
//! * [`baselines`] — the Sig22, Monte Carlo and CNF-proxy competitors;
//! * [`workloads`] — synthetic corpora standing in for Academic/IMDB/TPC-H.
//!
//! The most common entry points are re-exported at the top level.
//!
//! ```
//! use banzhaf_repro::prelude::*;
//!
//! let mut db = Database::new();
//! db.add_relation("R", 1);
//! db.add_relation("S", 2);
//! db.insert_endogenous("R", vec![1.into()]).unwrap();
//! db.insert_endogenous("S", vec![1.into(), 2.into()]).unwrap();
//! let query = parse_program("Q() :- R(X), S(X, Y).").unwrap();
//!
//! let engine = Engine::new(EngineConfig::default());
//! let explained = engine.session().explain(&query, &db);
//! let attribution = explained.answers[0].attribution().expect("unlimited budget");
//! assert_eq!(attribution.model_count.as_ref().unwrap().to_u64(), Some(1));
//!
//! // Keep attributions live under single-fact updates: only answers whose
//! // lineage mentions the touched fact are re-derived.
//! let mut live = engine.live_session(db);
//! live.register("q", query);
//! let report = live.apply_update(Update::insert("S", vec![1.into(), 3.into()])).unwrap();
//! assert_eq!(report.touched.len(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use banzhaf as core;
pub use banzhaf_arith as arith;
pub use banzhaf_baselines as baselines;
pub use banzhaf_boolean as boolean;
pub use banzhaf_db as db;
pub use banzhaf_dtree as dtree;
pub use banzhaf_engine as engine;
pub use banzhaf_par as par;
pub use banzhaf_query as query;
pub use banzhaf_serve as serve;
pub use banzhaf_workloads as workloads;

/// Convenient glob-import of the most frequently used items.
pub mod prelude {
    pub use banzhaf_engine::{
        Algorithm, AnswerAttribution, AnswerChange, Attribution, Attributor, BatchOptions,
        CacheConfig, CacheStats, Degradation, DegradeReason, Engine, EngineConfig, EngineSnapshot,
        EngineStats, FallbackPolicy, LiveSession, LiveStats, QueryAttribution, Ranked, Rung, Score,
        Session, SessionStats, SharedCache, SnapshotError, TouchedAnswer, UpdateReport,
    };
    pub use banzhaf_serve::{
        block_on, join_all, AttributionService, Rejected, RequestOptions, RetryPolicy, ServeConfig,
        ServeError, ServiceStats, Ticket, UpdateTicket,
    };

    pub use banzhaf::{
        adaban, adaban_all, bounds_for_var, critical_counts_all, exaban_all, exaban_read_once,
        exaban_single, ichiban_rank, ichiban_topk, l1_distance_normalized, normalized_index,
        normalized_power, shapley_all, AdaBanOptions, ApproxInterval, BanzhafResult, Budget, DTree,
        IchiBanOptions, Interrupted, PivotHeuristic, Ranking, ShapleyValue, TopK,
    };
    pub use banzhaf_arith::{Int, Natural, Rational};
    pub use banzhaf_baselines::{cnf_proxy, mc_banzhaf, mc_banzhaf_par, sig22_exact, McOptions};
    pub use banzhaf_boolean::{
        AggregateKind, AsLineage, Assignment, Clause, Dnf, Lineage, Var, VarSet, WeightedDnf,
    };
    pub use banzhaf_db::{Database, Fact, FactId, Provenance, Update, Value};
    pub use banzhaf_par::ThreadPool;
    pub use banzhaf_query::{
        evaluate, evaluate_aggregate, is_hierarchical, is_self_join_free, parse_program,
        AggregateAnswer, AggregateError, AggregateResult, AggregateSpec, UnionQuery,
    };
    pub use banzhaf_workloads::{
        academic_like, academic_workload, imdb_like, imdb_workload, tpch_like, tpch_workload,
        Corpus, DatasetSpec, LineageGenerator, LineageShape, LiveWorkload,
    };
}
