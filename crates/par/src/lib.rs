//! Dependency-free fork-join parallelism for the attribution pipeline.
//!
//! The build environment has no access to crates.io, so this crate provides
//! the small parallel substrate the workspace needs on top of
//! [`std::thread::scope`]:
//!
//! * [`ThreadPool`] — a lightweight handle describing a worker count.
//!   Workers are *scoped*: they are spawned per batch call and joined before
//!   the call returns, so closures may borrow from the caller's stack and no
//!   `unsafe` lifetime laundering is needed.
//! * [`ThreadPool::parallel_map`] — map a function over a slice with
//!   **deterministic result ordering**: results come back indexed by input
//!   position regardless of which worker computed them or in which order.
//!   Scheduling is dynamic: the items are split into chunks on a shared queue
//!   and idle workers claim ("steal") the next unclaimed chunk, so a few
//!   expensive items do not serialize the batch on its slowest worker.
//! * [`ThreadPool::join`] — two-way fork-join for recursive splits.
//! * [`queue::BoundedQueue`] — a bounded blocking MPMC queue with typed
//!   full/closed rejections, the request-queue substrate reused by the async
//!   serving layer (`banzhaf-serve`).
//! * [`seed`] — splitmix64-style derivation of independent RNG seed streams
//!   from a base seed and a chunk index, so randomized estimators produce
//!   the *same* well-defined sample set at every thread count.
//!
//! Batches start inline and only spawn workers once their measured work
//! crosses [`INLINE_WORK_THRESHOLD`], so a parallel pool never loses to a
//! sequential one on batches too cheap to amortize fork-join overhead.
//!
//! A pool with `threads <= 1` runs everything inline on the caller's thread;
//! parallel and sequential execution are bit-identical for deterministic
//! closures because ordering never leaks into results.
//!
//! # Example
//!
//! ```
//! use banzhaf_par::ThreadPool;
//!
//! let pool = ThreadPool::new(4);
//! let squares = pool.parallel_map(&[1u64, 2, 3, 4, 5], |_, &x| x * x);
//! assert_eq!(squares, vec![1, 4, 9, 16, 25]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

#[cfg(feature = "failpoints")]
pub mod failpoints;
pub mod queue;

/// Evaluate a named fault-injection site (see [`failpoints`]).
///
/// * `failpoint!("site")` — hit the site; an armed `Panic`/`Sleep` action
///   takes effect here, a `Trigger` action is swallowed.
/// * `failpoint!("site", expr)` — hit the site and evaluate `expr` when an
///   armed `Trigger` action fires (typically an early `return`).
///
/// Without `--features failpoints` both forms compile to nothing, so planted
/// sites cost zero in production builds. The feature is resolved on *this*
/// crate: enabling `banzhaf-par/failpoints` anywhere in the build graph
/// activates every planted site in every dependent crate (cargo feature
/// unification), which is exactly what the chaos suite wants.
#[cfg(feature = "failpoints")]
#[macro_export]
macro_rules! failpoint {
    ($site:expr) => {
        let _ = $crate::failpoints::hit($site);
    };
    ($site:expr, $on_trigger:expr) => {
        if $crate::failpoints::hit($site) {
            $on_trigger
        }
    };
}

/// Inert form of [`failpoint!`]: without `--features failpoints` every
/// planted site compiles to nothing.
#[cfg(not(feature = "failpoints"))]
#[macro_export]
macro_rules! failpoint {
    ($site:expr) => {};
    ($site:expr, $on_trigger:expr) => {};
}

/// The measured-work threshold below which [`ThreadPool::parallel_map`] stays
/// inline: workers are spawned only once the first items of a batch have
/// consumed this much wall-clock time on the caller's thread. Cheap batches
/// (per-item cost far below the cost of spawning a scoped worker) therefore
/// never pay the fork-join overhead, and expensive batches serialize at most
/// this prefix before fanning out.
pub const INLINE_WORK_THRESHOLD: Duration = Duration::from_micros(500);

/// A scoped fork-join thread pool.
///
/// The pool is a cheap, copyable description of a worker count; actual OS
/// threads are spawned per batch call inside a [`std::thread::scope`] and
/// joined before the call returns. This keeps the API free of `'static`
/// bounds (closures may borrow the caller's data) without any `unsafe`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ThreadPool {
    threads: usize,
}

impl ThreadPool {
    /// A pool with the given number of worker threads, clamped to the
    /// machine's available parallelism.
    ///
    /// `0` means "one worker per available CPU" (as reported by
    /// [`std::thread::available_parallelism`], falling back to 1). Requests
    /// beyond the available CPUs are clamped down: a CPU-bound fork-join
    /// batch can never win by timeslicing one core between two workers — it
    /// measurably *loses* to the extra context switches and cache pressure —
    /// so `new(4)` on a single-core container runs inline rather than
    /// pretending to parallelize. Use [`ThreadPool::oversubscribed`] when
    /// more workers than cores is genuinely wanted.
    ///
    /// The available-CPU count is read once per process and memoized: on
    /// Linux the query reads cgroup files, which would otherwise cost every
    /// pool construction tens of microseconds.
    pub fn new(threads: usize) -> Self {
        static AVAILABLE: OnceLock<usize> = OnceLock::new();
        let available = *AVAILABLE.get_or_init(|| {
            std::thread::available_parallelism().map(NonZeroUsize::get).unwrap_or(1)
        });
        let threads = if threads == 0 { available } else { threads.min(available) };
        ThreadPool { threads }
    }

    /// A pool with exactly `threads` workers (at least 1), even beyond the
    /// machine's available parallelism.
    ///
    /// Oversubscription is useful for fairness/latency (a serving layer
    /// keeping requests independently interruptible) and for exercising the
    /// concurrent machinery in tests on small machines; for throughput of
    /// CPU-bound batches, prefer the clamped [`ThreadPool::new`].
    pub fn oversubscribed(threads: usize) -> Self {
        ThreadPool { threads: threads.max(1) }
    }

    /// The single-threaded pool: every batch call runs inline.
    pub fn sequential() -> Self {
        ThreadPool { threads: 1 }
    }

    /// The number of worker threads batch calls may use.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// `true` iff batch calls run inline on the caller's thread.
    pub fn is_sequential(&self) -> bool {
        self.threads <= 1
    }

    /// Maps `f` over `items`, returning results in input order.
    ///
    /// `f` receives `(index, &item)` so callers can derive per-item seeds or
    /// labels from the input position. Items are scheduled dynamically in
    /// chunks of [`default_chunk_size`]; see [`ThreadPool::parallel_map_chunked`]
    /// to control the granularity.
    ///
    /// # Panics
    /// Propagates the first panic raised by `f` on any worker.
    pub fn parallel_map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        self.parallel_map_chunked(items, default_chunk_size(items.len(), self.threads), f)
    }

    /// [`ThreadPool::parallel_map`] with an explicit chunk size.
    ///
    /// A chunk is the unit of scheduling: workers repeatedly claim the next
    /// unclaimed chunk from a shared queue. Smaller chunks balance uneven
    /// items better; larger chunks amortize the (one atomic op) claim cost.
    ///
    /// The batch starts *inline* on the caller's thread and only spawns
    /// workers once the measured work crosses [`INLINE_WORK_THRESHOLD`] — a
    /// batch whose per-item cost is too small to amortize fork-join overhead
    /// runs entirely inline (bit-identical either way, since result ordering
    /// never depends on scheduling), and 2 threads never lose to 1 on cheap
    /// batches just by paying thread-spawn cost.
    ///
    /// # Panics
    /// Panics if `chunk == 0`; propagates panics raised by `f`.
    pub fn parallel_map_chunked<T, R, F>(&self, items: &[T], chunk: usize, f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        assert!(chunk > 0, "chunk size must be positive");
        let n = items.len();
        if self.is_sequential() || n <= 1 {
            return items.iter().enumerate().map(|(i, item)| f(i, item)).collect();
        }
        // Adaptive inline prefix: run items on the caller's thread until the
        // batch has demonstrated enough work to be worth spawning for. The
        // probe is cumulative (not a single-item estimate), so one cheap
        // leading item cannot misclassify an otherwise expensive batch.
        let mut results: Vec<R> = Vec::with_capacity(n);
        let probe_start = Instant::now();
        while results.len() < n {
            if probe_start.elapsed() >= INLINE_WORK_THRESHOLD && n - results.len() > 1 {
                break;
            }
            let i = results.len();
            results.push(f(i, &items[i]));
        }
        let done = results.len();
        if done == n {
            return results;
        }
        // One write-once slot per remaining item keeps result ordering
        // deterministic: chunk ranges are disjoint so each slot's mutex is
        // taken exactly once (never contended), and the caller drains the
        // slots in input order after the scope joins every worker.
        let slots: Vec<Mutex<Option<R>>> = (done..n).map(|_| Mutex::new(None)).collect();
        let next = AtomicUsize::new(done);
        let workers = self.threads.min(n - done);
        let work = || loop {
            let start = next.fetch_add(chunk, Ordering::Relaxed);
            if start >= n {
                break;
            }
            for (i, item) in items.iter().enumerate().take((start + chunk).min(n)).skip(start) {
                let result = f(i, item);
                *slots[i - done].lock().expect("no other thread writes this slot") = Some(result);
            }
        };
        std::thread::scope(|scope| {
            // The caller claims chunks too instead of idling in the join:
            // total concurrency stays at `workers` while one fewer OS thread
            // is spawned per batch.
            for _ in 1..workers {
                // The closure only captures shared references, so it is
                // `Copy`: each spawn gets its own copy, and the caller keeps
                // one to run below.
                scope.spawn(work);
            }
            work();
        });
        results.extend(slots.into_iter().map(|slot| {
            slot.into_inner()
                .expect("workers joined")
                .expect("every chunk was claimed and completed")
        }));
        results
    }

    /// Runs two closures, potentially in parallel, and returns both results.
    ///
    /// On a sequential pool (or when only one thread is available) `a` runs
    /// before `b` on the caller's thread.
    pub fn join<RA, RB>(
        &self,
        a: impl FnOnce() -> RA + Send,
        b: impl FnOnce() -> RB + Send,
    ) -> (RA, RB)
    where
        RA: Send,
        RB: Send,
    {
        if self.is_sequential() {
            let ra = a();
            let rb = b();
            return (ra, rb);
        }
        std::thread::scope(|scope| {
            let handle = scope.spawn(b);
            let ra = a();
            let rb = handle.join().expect("join closure panicked");
            (ra, rb)
        })
    }
}

impl Default for ThreadPool {
    fn default() -> Self {
        ThreadPool::sequential()
    }
}

/// The default scheduling granularity for a batch of `items` on `workers`
/// threads: roughly four chunks per worker, so stragglers can be absorbed by
/// idle workers without paying a queue operation per item.
pub fn default_chunk_size(items: usize, workers: usize) -> usize {
    if workers <= 1 {
        return items.max(1);
    }
    items.div_ceil(workers.saturating_mul(4).max(1)).max(1)
}

pub mod seed {
    //! Deterministic derivation of independent RNG seed streams.
    //!
    //! Randomized estimators that fan work across threads must not let the
    //! thread count change the sample set. The fix mirrors what the bench
    //! sweep already does per corpus: derive one seed per logical *chunk*
    //! (instance, variable, …) from a base seed and the chunk index, and give
    //! every chunk its own generator. [`derive()`] is that derivation — a
    //! splitmix64-style bijective mix, so nearby `(base, index)` pairs yield
    //! statistically unrelated seeds and no two chunks share a stream.

    /// The splitmix64 finalizer: a bijective avalanche mix of 64 bits.
    fn mix(mut z: u64) -> u64 {
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Derives the seed of stream `index` from `base`.
    ///
    /// Deterministic, and injective in `index` for a fixed `base` (the mix is
    /// a bijection applied to distinct inputs), so streams never collide for
    /// indices below 2⁶⁴.
    pub fn derive(base: u64, index: u64) -> u64 {
        mix(base
            .wrapping_add(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(mix(index.wrapping_add(0x9E37_79B9_7F4A_7C15))))
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn distinct_indices_yield_distinct_seeds() {
            let mut seen = std::collections::HashSet::new();
            for i in 0..1000u64 {
                assert!(seen.insert(derive(42, i)));
            }
        }

        #[test]
        fn deterministic() {
            assert_eq!(derive(7, 3), derive(7, 3));
            assert_ne!(derive(7, 3), derive(8, 3));
            assert_ne!(derive(0, 0), derive(0, 1));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn parallel_map_preserves_order() {
        for threads in [1, 2, 4, 8] {
            let pool = ThreadPool::new(threads);
            let items: Vec<u64> = (0..100).collect();
            let mapped = pool.parallel_map(&items, |i, &x| {
                assert_eq!(i as u64, x);
                x * 3
            });
            assert_eq!(mapped, (0..100).map(|x| x * 3).collect::<Vec<_>>());
        }
    }

    #[test]
    fn parallel_map_handles_empty_and_singleton() {
        let pool = ThreadPool::new(4);
        let empty: Vec<u32> = Vec::new();
        assert!(pool.parallel_map(&empty, |_, &x| x).is_empty());
        assert_eq!(pool.parallel_map(&[7u32], |_, &x| x + 1), vec![8]);
    }

    #[test]
    fn uneven_items_are_balanced_by_chunking() {
        // One expensive item among many cheap ones must not pin the result
        // ordering or drop items; chunk size 1 exercises the queue hardest.
        // Oversubscribed so the parallel path runs even on a 1-core machine.
        let pool = ThreadPool::oversubscribed(4);
        let items: Vec<u64> = (0..40).collect();
        let mapped = pool.parallel_map_chunked(&items, 1, |_, &x| {
            if x == 0 {
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
            x
        });
        assert_eq!(mapped, items);
    }

    #[test]
    fn every_item_computed_exactly_once() {
        let calls = AtomicU64::new(0);
        let pool = ThreadPool::oversubscribed(3);
        let items: Vec<u32> = (0..97).collect();
        let mapped = pool.parallel_map(&items, |_, &x| {
            calls.fetch_add(1, Ordering::Relaxed);
            x
        });
        assert_eq!(mapped.len(), 97);
        assert_eq!(calls.load(Ordering::Relaxed), 97);
    }

    #[test]
    fn join_returns_both_results() {
        for threads in [1, 4] {
            let pool = ThreadPool::oversubscribed(threads);
            let (a, b) = pool.join(|| 2 + 2, || "banzhaf".len());
            assert_eq!((a, b), (4, 7));
        }
    }

    #[test]
    fn zero_threads_resolves_to_available_parallelism() {
        let pool = ThreadPool::new(0);
        assert!(pool.threads() >= 1);
    }

    #[test]
    fn chunk_size_heuristic() {
        assert_eq!(default_chunk_size(0, 4), 1);
        assert_eq!(default_chunk_size(100, 1), 100);
        assert_eq!(default_chunk_size(100, 4), 7);
        assert!(default_chunk_size(3, 8) >= 1);
    }

    #[test]
    fn cheap_batches_run_inline_on_the_callers_thread() {
        // Items far below the inline threshold should not spawn workers. The
        // probe is wall-clock driven, so a single OS preemption longer than
        // the threshold mid-batch can legitimately trigger a fan-out; retry a
        // few times and require one fully-inline run (the overwhelmingly
        // common case) rather than asserting on one timing sample.
        let pool = ThreadPool::oversubscribed(4);
        let caller = std::thread::current().id();
        let items: Vec<u32> = (0..16).collect();
        let fully_inline = (0..5).any(|_| {
            let threads: Vec<std::thread::ThreadId> =
                pool.parallel_map(&items, |_, _| std::thread::current().id());
            threads.iter().all(|&t| t == caller)
        });
        assert!(fully_inline, "a cheap batch must (at least sometimes) stay inline");
        // The deterministic part of the contract: the probe prefix always
        // starts on the caller's thread.
        let threads: Vec<std::thread::ThreadId> =
            pool.parallel_map(&items, |_, _| std::thread::current().id());
        assert_eq!(threads[0], caller);
    }

    #[test]
    fn expensive_batches_spawn_workers_after_the_inline_prefix() {
        // Oversubscribed: `new` clamps to the core count, and this test must
        // observe spawned workers even on a 1-core machine.
        let pool = ThreadPool::oversubscribed(4);
        let caller = std::thread::current().id();
        let items: Vec<u32> = (0..16).collect();
        let threads: Vec<std::thread::ThreadId> = pool.parallel_map(&items, |_, _| {
            std::thread::sleep(Duration::from_millis(1));
            std::thread::current().id()
        });
        assert!(threads.iter().any(|&t| t != caller), "expensive batch must fan out");
        // The inline prefix ran on the caller's thread, in input order.
        assert_eq!(threads[0], caller);
    }

    #[test]
    fn results_bit_identical_across_thread_counts() {
        let items: Vec<u64> = (0..64).collect();
        let baseline =
            ThreadPool::sequential().parallel_map(&items, |i, &x| seed::derive(x, i as u64));
        for threads in [2, 3, 4, 7] {
            let pool = ThreadPool::oversubscribed(threads);
            let mapped = pool.parallel_map(&items, |i, &x| seed::derive(x, i as u64));
            assert_eq!(mapped, baseline);
        }
    }
}
