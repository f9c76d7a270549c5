//! Async attribution serving in front of the batch engine.
//!
//! The engine ([`banzhaf_engine`]) is synchronous: a [`banzhaf_engine::Session`]
//! attributes lineages on the caller's thread. This crate puts a
//! dependency-free **async front end** in front of it, the shape the paper's
//! interactive fact-attribution workloads (and the related Kernel-Banzhaf /
//! aggregate-query estimators) need:
//!
//! * a **hand-rolled executor** — worker threads behind a bounded request
//!   queue ([`banzhaf_par::queue::BoundedQueue`]), with responses exposed as
//!   plain [`std::future::Future`]s driven by [`block_on`]/[`join_all`] and
//!   woken through [`std::task::Wake`]. No async runtime dependency; the
//!   build environment has none, and none is needed.
//! * **backpressure** — a full queue *rejects* ([`Rejected::QueueFull`])
//!   instead of buffering unboundedly; callers decide to retry, shed, or
//!   spill.
//! * **per-request budgets** — each request's deadline/step caps are mapped
//!   onto the shared atomic [`banzhaf_dtree::Budget`], so exhaustion
//!   interrupts an in-flight attribution cooperatively across every thread
//!   working on it, exactly like the batch engine's shared-budget path.
//! * **cancellation** — [`Ticket::cancel`] flips the budget's cancellation
//!   flag: queued requests never start, in-flight ones stop at their next
//!   budget check.
//! * **a shared cross-session cache** — workers are sessions of one
//!   [`banzhaf_engine::Engine`], so concurrent clients reuse each other's
//!   compilations through the engine-level [`banzhaf_engine::ShardedCache`]
//!   (size-bounded, per-shard LRU-evicted, optionally warm-started from a
//!   snapshot via [`banzhaf_engine::CacheConfig`]; counters in
//!   [`AttributionService::engine_stats`], the owning shard of a request in
//!   [`AttributionService::shard_of`]).
//! * **live updates** — a service started with
//!   [`ServeConfig::with_live_database`] owns a
//!   [`banzhaf_engine::LiveSession`]; [`AttributionService::submit_update`]
//!   queues inserts/deletes whose [`UpdateTicket`]s resolve to
//!   [`banzhaf_engine::UpdateReport`]s. Updates apply incrementally in
//!   submission order and are serialized against snapshot reads
//!   ([`AttributionService::live_attribution`]), so served results never
//!   observe a half-applied update.
//!
//! # Example
//!
//! ```
//! use banzhaf_boolean::{Dnf, Var};
//! use banzhaf_serve::{block_on, join_all, AttributionService, RequestOptions, ServeConfig};
//!
//! let service = AttributionService::start(ServeConfig::default().with_workers(2));
//! // Two isomorphic lineages whose clauses share no variable: both are
//! // answered in closed form, without the cache. Then two isomorphic
//! // lineages whose clauses share `o + 1`: the second is served from the
//! // shared cache.
//! let independent = |o: u32| vec![vec![Var(o), Var(o + 1)], vec![Var(o + 2)]];
//! let shared = |o: u32| vec![vec![Var(o), Var(o + 1)], vec![Var(o + 1), Var(o + 2)]];
//! let tickets: Vec<_> = [independent(0), independent(10), shared(20), shared(30)]
//!     .into_iter()
//!     .map(|clauses| service.submit(Dnf::from_clauses(clauses), RequestOptions::default()).unwrap())
//!     .collect();
//! let outcomes = block_on(join_all(tickets));
//! assert!(outcomes.iter().all(Result::is_ok));
//! // Every cached request was either compiled once or served from the
//! // shared cache.
//! let cache = service.engine_stats().cache;
//! assert_eq!(cache.hits + cache.insertions, 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod executor;
mod service;

pub use banzhaf_engine::{Degradation, DegradeReason, FallbackPolicy, Rung};
pub use executor::{block_on, join_all, JoinAll};
pub use service::{
    AttributionService, Rejected, RequestOptions, RetryPolicy, ServeConfig, ServeError,
    ServeResult, ServiceStats, Ticket, UpdateTicket,
};
