//! The attribution service: worker threads behind a bounded request queue.

use banzhaf_boolean::Dnf;
use banzhaf_dtree::Budget;
use banzhaf_engine::{
    Attribution, BatchOptions, Database, Engine, EngineConfig, EngineSnapshot, FallbackPolicy,
    LiveSession, LiveStats, QueryAttribution, UnionQuery, Update, UpdateReport,
};
use banzhaf_par::queue::{BoundedQueue, PushError};
use std::fmt;
use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::task::{Context, Poll, Waker};
use std::thread::JoinHandle;
use std::time::Duration;

/// Configuration of an [`AttributionService`].
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// The engine configuration every worker session runs (algorithm, ε,
    /// shared-cache capacity, …). Worker sessions share one engine, hence one
    /// cross-session cache.
    pub engine: EngineConfig,
    /// Worker threads draining the request queue (`0` = one per available
    /// CPU). Each worker owns its own engine session; requests run one per
    /// worker at a time, so this is the service's concurrency level.
    pub workers: usize,
    /// Capacity of the bounded request queue. A submit against a full queue
    /// is *rejected* with [`Rejected::QueueFull`] — backpressure is explicit
    /// and immediate, never an unbounded buffer.
    pub queue_capacity: usize,
    /// Deadline applied to requests that do not carry their own
    /// ([`RequestOptions::timeout`]). Measured from submission, so time spent
    /// queued counts against it.
    pub default_timeout: Option<Duration>,
    /// The database the service hosts live: when set, the service owns a
    /// [`LiveSession`] over it (sharing the workers' engine, hence their
    /// cache) and accepts [`AttributionService::submit_update`] requests.
    pub live_database: Option<Database>,
    /// Queries registered on the live session at startup, as
    /// `(name, query)` pairs. Their attributions are maintained
    /// incrementally across updates and served through
    /// [`AttributionService::live_attribution`]. Requires
    /// [`ServeConfig::live_database`].
    pub live_queries: Vec<(String, UnionQuery)>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            engine: EngineConfig::default(),
            workers: 2,
            queue_capacity: 64,
            default_timeout: None,
            live_database: None,
            live_queries: Vec::new(),
        }
    }
}

impl ServeConfig {
    /// A serving configuration around the given engine configuration.
    pub fn new(engine: EngineConfig) -> Self {
        ServeConfig { engine, ..ServeConfig::default() }
    }

    /// Sets the worker count.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Sets the request-queue capacity.
    pub fn with_queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity;
        self
    }

    /// Sets the default per-request deadline.
    pub fn with_default_timeout(mut self, timeout: Duration) -> Self {
        self.default_timeout = Some(timeout);
        self
    }

    /// Hosts `database` live: the service accepts
    /// [`AttributionService::submit_update`] requests against it.
    pub fn with_live_database(mut self, database: Database) -> Self {
        self.live_database = Some(database);
        self
    }

    /// Registers `query` under `name` on the live session at startup.
    pub fn with_live_query(mut self, name: impl Into<String>, query: UnionQuery) -> Self {
        self.live_queries.push((name.into(), query));
        self
    }
}

/// Per-request overrides of the service's default budget.
///
/// Construct with [`RequestOptions::new`] and the `with_*` builders; the
/// struct is `#[non_exhaustive]` so future knobs are not breaking changes.
#[derive(Clone, Debug, Default)]
#[non_exhaustive]
pub struct RequestOptions {
    /// Deadline for this request, from submission (overrides the default).
    pub timeout: Option<Duration>,
    /// Step cap for this request (none by default).
    pub max_steps: Option<u64>,
    /// Budget-exhaustion fallback policy for this request (overrides the
    /// engine configuration's [`FallbackPolicy`]). With a ladder, a request
    /// that would fail [`ServeError::Interrupted`] is instead re-attributed
    /// on cheaper rungs within the remaining budget, and the resulting
    /// [`Attribution`] carries its [`banzhaf_engine::Degradation`] marker.
    pub fallback: Option<FallbackPolicy>,
}

impl RequestOptions {
    /// Options inheriting every service default.
    pub fn new() -> Self {
        RequestOptions::default()
    }

    /// Sets this request's deadline, measured from submission.
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.timeout = Some(timeout);
        self
    }

    /// Sets this request's step cap.
    pub fn with_max_steps(mut self, max_steps: u64) -> Self {
        self.max_steps = Some(max_steps);
        self
    }

    /// Sets this request's budget-exhaustion fallback policy.
    pub fn with_fallback(mut self, fallback: FallbackPolicy) -> Self {
        self.fallback = Some(fallback);
        self
    }
}

/// Why a submission was refused. Typed so callers can shed load
/// ([`Rejected::QueueFull`]) or stop submitting ([`Rejected::ShutDown`])
/// without string matching.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Rejected {
    /// The bounded request queue is at capacity; retry later or shed load.
    QueueFull {
        /// The queue's configured capacity.
        capacity: usize,
    },
    /// The service is shutting down and accepts no further requests.
    ShutDown,
    /// An update was submitted to a service with no live database
    /// ([`ServeConfig::live_database`] was not set).
    NotLive,
}

impl fmt::Display for Rejected {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Rejected::QueueFull { capacity } => {
                write!(f, "request queue is full (capacity {capacity})")
            }
            Rejected::ShutDown => write!(f, "service is shut down"),
            Rejected::NotLive => write!(f, "service hosts no live database"),
        }
    }
}

impl std::error::Error for Rejected {}

/// Bounded deterministic backoff for [`Rejected::QueueFull`] retries
/// ([`AttributionService::submit_with_retry`]).
///
/// The backoff doubles from [`RetryPolicy::base`] per attempt and saturates
/// at [`RetryPolicy::cap`] — no jitter, so a retry schedule is reproducible:
/// attempt `k` always sleeps `min(base · 2^k, cap)`.
#[derive(Clone, Copy, Debug)]
pub struct RetryPolicy {
    /// Retries after the first attempt (`0` = behave like plain `submit`).
    pub attempts: u32,
    /// Sleep before the first retry.
    pub base: Duration,
    /// Upper bound on any single sleep.
    pub cap: Duration,
}

impl Default for RetryPolicy {
    /// Three retries backing off 1 ms → 2 ms → 4 ms.
    fn default() -> Self {
        RetryPolicy { attempts: 3, base: Duration::from_millis(1), cap: Duration::from_millis(50) }
    }
}

impl RetryPolicy {
    /// A policy retrying `attempts` times with the default backoff curve.
    pub fn new(attempts: u32) -> Self {
        RetryPolicy { attempts, ..RetryPolicy::default() }
    }

    /// The deterministic sleep before retry number `attempt` (0-based):
    /// `min(base · 2^attempt, cap)`.
    pub fn backoff(&self, attempt: u32) -> Duration {
        let doubled = self.base.saturating_mul(2u32.saturating_pow(attempt.min(31)));
        doubled.min(self.cap)
    }
}

/// Why an accepted request failed.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ServeError {
    /// The request's budget (deadline or step cap) was exhausted — either
    /// while queued or cooperatively mid-attribution. The shared cache is
    /// never poisoned by an interrupted request: only completed attributions
    /// are merged.
    Interrupted,
    /// The request was cancelled through [`Ticket::cancel`] (while queued or
    /// cooperatively mid-compile).
    Cancelled,
    /// The service shut down before the request ran.
    ShutDown,
    /// The attribution backend panicked while serving the request. The
    /// worker caught the panic, discarded its session, and kept serving;
    /// nothing partial reached the shared cache.
    Failed,
    /// An update did not apply: it named an unknown relation, carried the
    /// wrong arity, or deleted a fact not present in the live database. The
    /// live state is unchanged.
    InvalidUpdate,
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Interrupted => write!(f, "request exceeded its budget"),
            ServeError::Cancelled => write!(f, "request was cancelled"),
            ServeError::ShutDown => write!(f, "service shut down before the request ran"),
            ServeError::Failed => write!(f, "attribution backend panicked while serving"),
            ServeError::InvalidUpdate => {
                write!(f, "update does not apply to the live database")
            }
        }
    }
}

impl std::error::Error for ServeError {}

/// The outcome an attribution [`Ticket`] resolves to.
pub type ServeResult = Result<Attribution, ServeError>;

struct Completion<T> {
    outcome: Option<Result<T, ServeError>>,
    waker: Option<Waker>,
}

/// State shared between a [`Ticket`] and the worker serving its request.
struct RequestShared<T> {
    /// The request's cooperative budget: deadline/step caps mapped onto the
    /// shared atomic [`Budget`], and the cancellation flag the ticket sets.
    budget: Budget,
    done: Mutex<Completion<T>>,
}

impl<T> RequestShared<T> {
    fn new(budget: Budget) -> Self {
        RequestShared { budget, done: Mutex::new(Completion { outcome: None, waker: None }) }
    }

    fn complete(&self, outcome: Result<T, ServeError>) {
        let waker = {
            let mut done = self.done.lock().expect("completion lock poisoned");
            debug_assert!(done.outcome.is_none(), "request completed twice");
            done.outcome = Some(outcome);
            done.waker.take()
        };
        if let Some(waker) = waker {
            waker.wake();
        }
    }
}

/// A pending response: a [`Future`] resolving to the request's outcome
/// (`Result<T, ServeError>`), plus out-of-band cancellation.
///
/// Attribution submissions yield `Ticket<Attribution>` (the default); update
/// submissions yield [`UpdateTicket`] = `Ticket<UpdateReport>`. Consume a
/// ticket with [`crate::block_on`], combine batches with [`crate::join_all`],
/// or poll it from any executor. Dropping the ticket abandons the response
/// (the request itself still runs unless cancelled first).
pub struct Ticket<T = Attribution> {
    shared: Arc<RequestShared<T>>,
}

/// A pending [`UpdateReport`]: what [`AttributionService::submit_update`]
/// returns.
pub type UpdateTicket = Ticket<UpdateReport>;

impl<T> fmt::Debug for Ticket<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Ticket")
            .field("done", &self.is_done())
            .field("cancelled", &self.shared.budget.is_cancelled())
            .finish()
    }
}

impl<T> Ticket<T> {
    /// Cancels the request: a queued request never runs, an in-flight one is
    /// interrupted cooperatively (its workers observe the cancellation at the
    /// next budget check, typically within tens of microseconds). The ticket
    /// then resolves to [`ServeError::Cancelled`].
    ///
    /// Cancelling a request that already completed has no effect.
    pub fn cancel(&self) {
        self.shared.budget.cancel();
    }

    /// `true` once the response has been produced (the future would resolve
    /// immediately).
    pub fn is_done(&self) -> bool {
        self.shared.done.lock().expect("completion lock poisoned").outcome.is_some()
    }

    /// Blocks the calling thread until the response arrives.
    pub fn wait(self) -> Result<T, ServeError> {
        crate::block_on(self)
    }
}

impl<T> Future for Ticket<T> {
    type Output = Result<T, ServeError>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Result<T, ServeError>> {
        let mut done = self.shared.done.lock().expect("completion lock poisoned");
        match done.outcome.take() {
            Some(outcome) => Poll::Ready(outcome),
            None => {
                done.waker = Some(cx.waker().clone());
                Poll::Pending
            }
        }
    }
}

enum Job {
    Attribute {
        lineage: Dnf,
        fallback: Option<FallbackPolicy>,
        shared: Arc<RequestShared<Attribution>>,
    },
    Update {
        update: Update,
        seq: u64,
        shared: Arc<RequestShared<UpdateReport>>,
    },
}

/// The live-update state shared by the service handle and its workers.
///
/// Updates are *totally ordered*: submission assigns each update a sequence
/// number under [`LiveShared::next_seq`] (held across the queue push, so
/// queue order equals sequence order), and a worker applies an update only
/// when [`LiveShared::order`] reaches its number, waiting on
/// [`LiveShared::turn`] otherwise. Attribution requests never wait: they only
/// contend on the engine's shared cache. Snapshots
/// ([`AttributionService::live_attribution`]) lock [`LiveShared::state`], the
/// same lock updates apply under, so a served result never observes a
/// half-applied update.
struct LiveShared {
    state: Mutex<LiveSession>,
    /// The sequence number of the next update allowed to apply.
    order: Mutex<u64>,
    turn: Condvar,
    /// The next sequence number to assign; doubles as the submission lock
    /// making `seq` allocation and the queue push atomic.
    next_seq: Mutex<u64>,
}

impl LiveShared {
    /// Advances the turn to `seq + 1`, first waiting until it is `seq`'s
    /// turn. Every allocated sequence number must pass through here exactly
    /// once — applied, failed, or shut down — or later updates deadlock.
    ///
    /// The advance is unconditional: a `body` that panics still bumps the
    /// turn (and wakes the waiters) before the panic resumes, so one bad
    /// update can never wedge every later one behind its sequence number.
    fn take_turn<R>(&self, seq: u64, body: impl FnOnce() -> R) -> R {
        let mut order = self.order.lock().unwrap_or_else(PoisonError::into_inner);
        while *order != seq {
            order = self.turn.wait(order).unwrap_or_else(PoisonError::into_inner);
        }
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(body));
        *order += 1;
        drop(order);
        self.turn.notify_all();
        match outcome {
            Ok(value) => value,
            Err(panic) => std::panic::resume_unwind(panic),
        }
    }
}

fn lock_live(state: &Mutex<LiveSession>) -> MutexGuard<'_, LiveSession> {
    // A backend panic mid-update unwinds through the state guard and poisons
    // the lock. The update was already failed with `ServeError::Failed`;
    // recover the guard so snapshots and later updates keep working.
    state.lock().unwrap_or_else(PoisonError::into_inner)
}

#[derive(Default)]
struct ServiceCounters {
    submitted: AtomicU64,
    rejected: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
    in_flight: AtomicU64,
    degraded: AtomicU64,
    fallback_steps: AtomicU64,
}

impl ServiceCounters {
    fn finish(&self, ok: bool) {
        self.in_flight.fetch_sub(1, Ordering::Relaxed);
        if ok {
            self.completed.fetch_add(1, Ordering::Relaxed);
        } else {
            self.failed.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// A point-in-time snapshot of a service's request counters. The counters
/// of the engine's cache tier are in [`AttributionService::engine_stats`].
#[derive(Clone, Copy, Debug, Default)]
pub struct ServiceStats {
    /// Requests accepted into the queue (attributions and updates).
    pub submitted: u64,
    /// Submissions refused ([`Rejected::QueueFull`] backpressure).
    pub rejected: u64,
    /// Requests completed with an attribution or an update report.
    pub completed: u64,
    /// Requests failed (interrupted, cancelled, invalid, or shut down).
    pub failed: u64,
    /// Requests currently executing on a worker.
    pub in_flight: u64,
    /// Completed requests whose attribution was resolved by a fallback rung
    /// rather than the primary attributor (always a subset of `completed`;
    /// zero unless a [`FallbackPolicy::Ladder`] is in effect).
    pub degraded: u64,
    /// Steps the fallback rungs charged while resolving degraded requests.
    pub fallback_steps: u64,
    /// Requests currently queued.
    pub queue_depth: usize,
    /// The service's worker count.
    pub workers: usize,
}

/// The async attribution front end: a bounded request queue drained by worker
/// threads that run engine sessions over one shared cross-session cache.
///
/// * **Backpressure**: [`AttributionService::submit`] never blocks and never
///   buffers unboundedly — a full queue is a typed [`Rejected::QueueFull`].
/// * **Budgets**: every request gets its own [`Budget`] (deadline from
///   submission + step cap), the same cooperative mechanism the batch engine
///   uses, so a deadline expiring mid-compile interrupts all threads working
///   on that request at once.
/// * **Cancellation**: [`Ticket::cancel`] flips the budget's cancellation
///   flag; queued requests never start, in-flight ones stop at the next
///   budget check.
/// * **Shared cache**: workers are sessions of one [`Engine`], so a lineage
///   shape compiled for any request is a cache hit for every later request,
///   across all client sessions ([`AttributionService::engine_stats`]),
///   optionally warm-started from a snapshot via
///   [`banzhaf_engine::CacheConfig`].
/// * **Live updates**: a service configured with
///   [`ServeConfig::with_live_database`] also hosts a [`LiveSession`];
///   [`AttributionService::submit_update`] queues inserts/deletes whose
///   tickets resolve to [`UpdateReport`]s. Updates apply in submission order
///   and are serialized against snapshot reads, so
///   [`AttributionService::live_attribution`] never observes a half-applied
///   update.
///
/// ```
/// use banzhaf_boolean::{Dnf, Var};
/// use banzhaf_serve::{AttributionService, RequestOptions, ServeConfig};
///
/// let service = AttributionService::start(ServeConfig::default().with_workers(2));
/// let phi = Dnf::from_clauses(vec![vec![Var(0), Var(1)], vec![Var(2)]]);
/// let ticket = service.submit(phi, RequestOptions::default()).unwrap();
/// let attribution = ticket.wait().unwrap();
/// assert_eq!(attribution.model_count.as_ref().unwrap().to_u64(), Some(5));
/// ```
pub struct AttributionService {
    engine: Engine,
    queue: Arc<BoundedQueue<Job>>,
    counters: Arc<ServiceCounters>,
    live: Option<Arc<LiveShared>>,
    workers: Vec<JoinHandle<()>>,
    default_timeout: Option<Duration>,
}

impl AttributionService {
    /// Starts the service: spawns the worker threads and returns the handle
    /// used to submit requests. When [`ServeConfig::live_database`] is set,
    /// the live session is built (and its queries attributed) before any
    /// worker starts.
    ///
    /// # Panics
    /// Panics if [`ServeConfig::live_queries`] is non-empty without a
    /// [`ServeConfig::live_database`] to register them on.
    pub fn start(config: ServeConfig) -> Self {
        let engine = Engine::new(config.engine.clone());
        let queue = Arc::new(BoundedQueue::new(config.queue_capacity.max(1)));
        let counters = Arc::new(ServiceCounters::default());
        assert!(
            config.live_queries.is_empty() || config.live_database.is_some(),
            "live queries configured without a live database"
        );
        let live = config.live_database.map(|db| {
            let mut session = engine.live_session(db);
            for (name, query) in config.live_queries {
                session.register(name, query);
            }
            Arc::new(LiveShared {
                state: Mutex::new(session),
                order: Mutex::new(0),
                turn: Condvar::new(),
                next_seq: Mutex::new(0),
            })
        });
        // Workers are deliberately *not* clamped to the core count: extra
        // serve workers buy latency isolation (a long request does not
        // head-of-line-block the queue), not throughput.
        let worker_count = if config.workers == 0 {
            banzhaf_par::ThreadPool::new(0).threads()
        } else {
            config.workers
        };
        let workers = (0..worker_count)
            .map(|index| {
                let queue = Arc::clone(&queue);
                let counters = Arc::clone(&counters);
                let worker_engine = engine.clone();
                let live = live.clone();
                std::thread::Builder::new()
                    .name(format!("banzhaf-serve-{index}"))
                    .spawn(move || {
                        let mut session = worker_engine.session();
                        while let Some(job) = queue.pop() {
                            counters.in_flight.fetch_add(1, Ordering::Relaxed);
                            match job {
                                Job::Attribute { lineage, fallback, shared } => {
                                    // A backend panic must not leave the
                                    // ticket unresolved (the client would
                                    // park forever) or kill the worker:
                                    // catch it, fail the request, and
                                    // continue on a fresh session.
                                    let outcome = std::panic::catch_unwind(
                                        std::panic::AssertUnwindSafe(|| {
                                            banzhaf_par::failpoint!("serve::worker_compile");
                                            serve_attribution(
                                                &mut session,
                                                &lineage,
                                                fallback.as_ref(),
                                                &shared.budget,
                                            )
                                        }),
                                    )
                                    .unwrap_or_else(|_| {
                                        session = worker_engine.session();
                                        Err(ServeError::Failed)
                                    });
                                    if let Ok(attribution) = &outcome {
                                        if attribution.degradation.is_some() {
                                            counters.degraded.fetch_add(1, Ordering::Relaxed);
                                            counters.fallback_steps.fetch_add(
                                                attribution.stats.fallback_steps,
                                                Ordering::Relaxed,
                                            );
                                        }
                                    }
                                    counters.finish(outcome.is_ok());
                                    shared.complete(outcome);
                                }
                                Job::Update { update, seq, shared } => {
                                    let live = live
                                        .as_ref()
                                        .expect("update jobs exist only on live services");
                                    // Same guard as attributions: a panic
                                    // escaping the turn (the turn itself has
                                    // already advanced) fails the request
                                    // instead of killing the worker.
                                    let outcome =
                                        std::panic::catch_unwind(std::panic::AssertUnwindSafe(
                                            || serve_update(live, update, seq, &shared.budget),
                                        ))
                                        .unwrap_or(Err(ServeError::Failed));
                                    counters.finish(outcome.is_ok());
                                    shared.complete(outcome);
                                }
                            }
                        }
                    })
                    .expect("failed to spawn a serve worker")
            })
            .collect();
        AttributionService {
            engine,
            queue,
            counters,
            live,
            workers,
            default_timeout: config.default_timeout,
        }
    }

    fn budget_for(&self, options: &RequestOptions) -> Budget {
        Budget::new(options.timeout.or(self.default_timeout), options.max_steps)
    }

    fn push(&self, job: Job) -> Result<(), Rejected> {
        match self.queue.try_push(job) {
            Ok(()) => {
                self.counters.submitted.fetch_add(1, Ordering::Relaxed);
                Ok(())
            }
            Err(error) => {
                self.counters.rejected.fetch_add(1, Ordering::Relaxed);
                Err(match error {
                    PushError::Full { capacity } => Rejected::QueueFull { capacity },
                    PushError::Closed => Rejected::ShutDown,
                })
            }
        }
    }

    /// Submits a lineage for attribution. `options` overrides the service's
    /// default budget per field ([`RequestOptions::new`] inherits all
    /// defaults).
    ///
    /// Returns immediately: the [`Ticket`] resolves when a worker has served
    /// the request. A full queue rejects with [`Rejected::QueueFull`].
    pub fn submit(&self, lineage: Dnf, options: RequestOptions) -> Result<Ticket, Rejected> {
        let shared = Arc::new(RequestShared::new(self.budget_for(&options)));
        let job =
            Job::Attribute { lineage, fallback: options.fallback, shared: Arc::clone(&shared) };
        self.push(job)?;
        Ok(Ticket { shared })
    }

    /// [`AttributionService::submit`], retrying [`Rejected::QueueFull`] with
    /// the policy's bounded deterministic backoff. Any other rejection — and
    /// success — returns immediately; after the final attempt the last
    /// `QueueFull` is returned as-is.
    pub fn submit_with_retry(
        &self,
        lineage: Dnf,
        options: RequestOptions,
        policy: &RetryPolicy,
    ) -> Result<Ticket, Rejected> {
        let mut attempt = 0;
        loop {
            match self.submit(lineage.clone(), options.clone()) {
                Err(Rejected::QueueFull { .. }) if attempt < policy.attempts => {
                    std::thread::sleep(policy.backoff(attempt));
                    attempt += 1;
                }
                outcome => return outcome,
            }
        }
    }

    /// Submits a live-database update (insert or delete). The
    /// [`UpdateTicket`] resolves to the [`UpdateReport`] once the update has
    /// been applied incrementally — only answers whose lineage mentions the
    /// touched fact are re-derived; everything else stays warm in the shared
    /// cache.
    ///
    /// Updates apply in submission order, serialized against each other and
    /// against [`AttributionService::live_attribution`] snapshots. Rejects
    /// with [`Rejected::NotLive`] when the service was started without a
    /// [`ServeConfig::live_database`].
    ///
    /// ```
    /// use banzhaf_engine::{parse_program, Database, Update};
    /// use banzhaf_serve::{AttributionService, RequestOptions, ServeConfig};
    ///
    /// let mut db = Database::new();
    /// db.add_relation("R", 2);
    /// db.insert_endogenous("R", vec![1.into(), 2.into()]).unwrap();
    /// let query = parse_program("Q(X) :- R(X, Y).").unwrap();
    /// let service = AttributionService::start(
    ///     ServeConfig::default().with_live_database(db).with_live_query("q", query),
    /// );
    ///
    /// let update = Update::insert("R", vec![3.into(), 4.into()]);
    /// let report = service.submit_update(update, RequestOptions::default()).unwrap().wait().unwrap();
    /// assert_eq!(report.touched.len(), 1);
    /// assert_eq!(service.live_attribution("q").unwrap().answers.len(), 2);
    /// ```
    pub fn submit_update(
        &self,
        update: Update,
        options: RequestOptions,
    ) -> Result<UpdateTicket, Rejected> {
        let live = self.live.as_ref().ok_or(Rejected::NotLive)?;
        let shared = Arc::new(RequestShared::new(self.budget_for(&options)));
        // Holding the allocation lock across the push keeps queue order equal
        // to sequence order, which the turn-taking in `serve_update` (and the
        // shutdown drain) relies on. A refused push consumes no number.
        let mut next_seq = live.next_seq.lock().expect("update submission lock poisoned");
        let job = Job::Update { update, seq: *next_seq, shared: Arc::clone(&shared) };
        self.push(job)?;
        *next_seq += 1;
        Ok(Ticket { shared })
    }

    /// `true` when the service hosts a live database and accepts
    /// [`AttributionService::submit_update`].
    pub fn is_live(&self) -> bool {
        self.live.is_some()
    }

    /// The maintained attribution of the live query registered under `name`
    /// (`None` for unknown names or a service with no live database).
    ///
    /// The snapshot is taken under the same lock updates apply under, so it
    /// reflects a whole number of updates — never a half-applied one.
    pub fn live_attribution(&self, name: &str) -> Option<QueryAttribution> {
        let live = self.live.as_ref()?;
        let state = lock_live(&live.state);
        state.attribution(name)
    }

    /// Cumulative statistics of the live session (`None` when the service
    /// hosts no live database).
    pub fn live_stats(&self) -> Option<LiveStats> {
        let live = self.live.as_ref()?;
        Some(*lock_live(&live.state).stats())
    }

    /// A snapshot of the service's request counters.
    pub fn stats(&self) -> ServiceStats {
        ServiceStats {
            submitted: self.counters.submitted.load(Ordering::Relaxed),
            rejected: self.counters.rejected.load(Ordering::Relaxed),
            completed: self.counters.completed.load(Ordering::Relaxed),
            failed: self.counters.failed.load(Ordering::Relaxed),
            in_flight: self.counters.in_flight.load(Ordering::Relaxed),
            degraded: self.counters.degraded.load(Ordering::Relaxed),
            fallback_steps: self.counters.fallback_steps.load(Ordering::Relaxed),
            queue_depth: self.queue.len(),
            workers: self.workers.len(),
        }
    }

    /// One consistent snapshot of the engine's cache counters.
    pub fn engine_stats(&self) -> EngineSnapshot {
        self.engine.stats()
    }

    /// The engine whose sessions the workers run (e.g. to start a
    /// synchronous session against the same shared cache).
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Shuts the service down: new submissions are rejected, *queued*
    /// requests fail with [`ServeError::ShutDown`], in-flight requests run to
    /// completion (cancel their tickets first to abort them), and the worker
    /// threads are joined.
    pub fn shutdown(mut self) {
        self.shutdown_in_place();
    }

    fn shutdown_in_place(&mut self) {
        self.queue.close();
        for job in self.queue.drain() {
            self.counters.failed.fetch_add(1, Ordering::Relaxed);
            match job {
                Job::Attribute { shared, .. } => shared.complete(Err(ServeError::ShutDown)),
                Job::Update { seq, shared, .. } => {
                    shared.complete(Err(ServeError::ShutDown));
                    // A worker may already hold a *later* update popped
                    // before the close and be waiting its turn; every
                    // drained sequence number must still advance the turn
                    // counter or that worker never wakes and the join below
                    // deadlocks. Drained updates are in sequence order, and
                    // numbers below them are held by workers who advance on
                    // their own, so each wait here terminates.
                    if let Some(live) = &self.live {
                        live.take_turn(seq, || ());
                    }
                }
            }
        }
        for worker in self.workers.drain(..) {
            // Worker panics are caught per-request and surfaced as
            // `ServeError::Failed`; a join error here means a panic outside
            // that guard (e.g. in the completion plumbing). Swallow it
            // rather than panic: this also runs from Drop, where a second
            // panic during unwinding would abort the process.
            let _ = worker.join();
        }
    }
}

impl Drop for AttributionService {
    fn drop(&mut self) {
        self.shutdown_in_place();
    }
}

impl fmt::Debug for AttributionService {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AttributionService")
            .field("stats", &self.stats())
            .field("cache", &self.engine_stats().cache)
            .field("live", &self.live.is_some())
            .finish_non_exhaustive()
    }
}

/// Serves one attribution request on a worker's session, mapping budget
/// exhaustion to the typed [`ServeError`]s. The pre-run check fails
/// queue-expired or already-cancelled requests without starting them —
/// except under a fallback ladder, where a queue-expired request still runs
/// (the primary rung starves immediately and the ladder resolves it within
/// its grace allowance instead of dropping the request).
fn serve_attribution(
    session: &mut banzhaf_engine::Session,
    lineage: &Dnf,
    fallback: Option<&FallbackPolicy>,
    budget: &Budget,
) -> ServeResult {
    if budget.is_cancelled() {
        return Err(ServeError::Cancelled);
    }
    let ladder = !fallback.unwrap_or_else(|| &session.config().fallback).is_strict();
    if budget.exhausted() && !ladder {
        return Err(ServeError::Interrupted);
    }
    let mut options = BatchOptions::new().with_shared_budget(budget);
    if let Some(policy) = fallback {
        options = options.with_fallback(policy);
    }
    let outcome = session
        .attribute_batch(&[lineage], options)
        .pop()
        .expect("one lineage in, one outcome out");
    outcome.map_err(|_| {
        if budget.is_cancelled() {
            ServeError::Cancelled
        } else {
            ServeError::Interrupted
        }
    })
}

/// Serves one update request: waits for the update's turn (submission
/// order), applies it under the live-state lock, and advances the turn. The
/// turn advances even for cancelled, expired, or panicking updates — every
/// allocated sequence number passes through exactly once.
fn serve_update(
    live: &LiveShared,
    update: Update,
    seq: u64,
    budget: &Budget,
) -> Result<UpdateReport, ServeError> {
    live.take_turn(seq, || {
        banzhaf_par::failpoint!("serve::take_turn");
        if budget.is_cancelled() {
            return Err(ServeError::Cancelled);
        }
        if budget.exhausted() {
            return Err(ServeError::Interrupted);
        }
        // Catch backend panics *inside* the turn so the turn still advances;
        // the state lock is poisoned by the unwind and recovered by
        // `lock_live` everywhere it is taken.
        let applied = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            lock_live(&live.state).apply_update(update)
        }));
        match applied {
            Ok(Ok(report)) => Ok(report),
            Ok(Err(_)) => Err(ServeError::InvalidUpdate),
            Err(_) => Err(ServeError::Failed),
        }
    })
}
