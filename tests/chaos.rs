//! Chaos suite: deterministic fault injection against the serving stack
//! (`cargo test --features failpoints`).
//!
//! Every test here arms failpoints planted in production code (see
//! `crates/par/src/failpoints.rs` for the registry) and asserts the
//! robustness invariants of the stack:
//!
//! 1. **Every ticket resolves** — to a value, a degraded value, or a typed
//!    error; never a hang, never a poisoned client.
//! 2. **The shared cache stays consistent** — no torn entries: a panicked or
//!    starved compile never inserts, counters never contradict each other.
//! 3. **Live updates keep their total order** — a panicking update advances
//!    the turn, so the stream behind it never deadlocks.
//! 4. **Completed answers are bit-identical** to an undisturbed run.
//! 5. **Degraded answers bracket (interval rung) or estimate (sampling
//!    rung)** the exact value.
//!
//! The failpoint registry is process-global, so every test serializes on one
//! mutex.
#![cfg(feature = "failpoints")]

use banzhaf_repro::par::failpoints::{arm, hits, FailAction, Hook, Trigger};
use banzhaf_repro::prelude::*;
use proptest::prelude::*;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

/// Serializes the whole suite: armed sites are process-global state.
static FAULTS: Mutex<()> = Mutex::new(());

fn faults_lock() -> std::sync::MutexGuard<'static, ()> {
    // A failed assertion in another chaos test poisons this mutex; that
    // test already reported its failure, so just keep going.
    FAULTS.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A ring lineage: real Shannon-expansion work, exponential in `vars`.
fn ring(offset: u32, vars: u32) -> Dnf {
    Dnf::from_clauses(
        (0..vars).map(|i| vec![Var(offset + i), Var(offset + (i + 1) % vars)]).collect::<Vec<_>>(),
    )
}

/// Exact values of `lineage` from an undisturbed, cache-free, strict run.
fn undisturbed(lineage: &Dnf) -> Attribution {
    Engine::new(EngineConfig::default().with_cache_config(CacheConfig::disabled()))
        .session()
        .attribute(lineage)
        .unwrap()
}

/// Invariant 5: a degraded (or exact) score agrees with the undisturbed run.
fn assert_tracks_exact(served: &Attribution, exact: &Attribution, lineage: &Dnf) {
    for x in lineage.universe().iter() {
        let want = exact.value(x).unwrap().exact().unwrap();
        match served.value(x).unwrap() {
            Score::Exact(got) => assert_eq!(got, &want, "exact answers must be bit-identical"),
            Score::Interval(i) => {
                assert!(i.lower <= want && want <= i.upper, "interval must bracket exact");
            }
            Score::Estimate(e) => assert!(e.is_finite() && *e >= 0.0, "estimate must be finite"),
            Score::Rational(_) => panic!("Boolean rungs never return aggregate scores"),
        }
    }
}

/// Invariant 2: no combination of faults may tear the cache counters.
fn assert_cache_consistent(stats: &CacheStats) {
    assert!(stats.entries <= stats.capacity, "over-full cache: {stats:?}");
    assert!(stats.entries as u64 <= stats.insertions, "entries from nowhere: {stats:?}");
    assert!(stats.evictions <= stats.insertions, "evicted more than inserted: {stats:?}");
    assert!(stats.canon_searches <= stats.canon_steps + stats.canon_searches, "{stats:?}");
}

#[test]
fn worker_panic_mid_compile_quarantines_instead_of_inserting() {
    let _lock = faults_lock();
    let service = AttributionService::start(ServeConfig::default().with_workers(1));
    let shape = ring(0, 10);
    let expected = undisturbed(&shape);
    {
        let _fp = arm("serve::worker_compile", Trigger::NthHit(1), FailAction::Panic("chaos"));
        let ticket = service.submit(shape.clone(), RequestOptions::default()).unwrap();
        assert_eq!(ticket.wait().unwrap_err(), ServeError::Failed);
        assert!(hits("serve::worker_compile") > 0, "the planted site must be reached");
    }
    // Nothing half-built reached the cache, and the worker survived on a
    // fresh session: the same shape now compiles cleanly and bit-identically.
    assert_eq!(service.engine_stats().cache.insertions, 0);
    let served = service.submit(shape.clone(), RequestOptions::default()).unwrap().wait().unwrap();
    assert_eq!(served.exact_values().unwrap(), expected.exact_values().unwrap());
    assert_eq!(service.engine_stats().cache.insertions, 1);
}

#[test]
fn compile_panic_under_a_ladder_degrades_the_answer() {
    let _lock = faults_lock();
    let shape = ring(0, 8);
    let expected = undisturbed(&shape);
    let engine = Engine::new(EngineConfig::default().with_fallback(FallbackPolicy::ladder()));
    let mut session = engine.session();
    let att = {
        let _fp = arm("session::compile", Trigger::NthHit(1), FailAction::Panic("chaos"));
        session.attribute(&shape).expect("the ladder resolves a panicked compile")
    };
    let degradation = att.degradation.expect("panicked primary must degrade");
    assert_eq!(degradation.reason, DegradeReason::WorkerPanic);
    assert_tracks_exact(&att, &expected, &shape);
    // The panicked compile's partial d-tree is quarantined with its stack.
    assert_eq!(engine.stats().cache.insertions, 0);
    assert_eq!(session.stats().degraded, 1);
}

#[test]
fn merge_panic_never_tears_the_shared_cache() {
    let _lock = faults_lock();
    let engine = Engine::new(EngineConfig::default());
    let shape = ring(0, 8);
    let expected = undisturbed(&shape);
    {
        let _fp = arm("session::merge", Trigger::NthHit(1), FailAction::Panic("chaos"));
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            engine.session().attribute(&shape)
        }));
        assert!(panicked.is_err(), "the merge failpoint must fire");
    }
    // The interrupted merge inserted nothing and poisoned nothing: a fresh
    // session compiles and caches the shape as if nothing happened.
    let stats = engine.stats().cache;
    assert_eq!(stats.insertions, 0);
    assert_cache_consistent(&stats);
    let again = engine.session().attribute(&shape).unwrap();
    assert_eq!(again.exact_values().unwrap(), expected.exact_values().unwrap());
    assert_eq!(engine.stats().cache.insertions, 1);
}

#[test]
fn take_turn_panic_advances_the_turn_and_recovers_the_lock() {
    let _lock = faults_lock();
    let mut db = Database::new();
    db.add_relation("R", 1);
    db.insert_endogenous("R", vec![0.into()]).unwrap();
    let query = parse_program("Q(X) :- R(X).").unwrap();
    let service = AttributionService::start(
        ServeConfig::default().with_workers(2).with_live_database(db).with_live_query("q", query),
    );
    {
        let _fp = arm("serve::take_turn", Trigger::NthHit(1), FailAction::Panic("chaos"));
        let poisoned =
            service.submit_update(Update::insert("R", vec![1.into()]), RequestOptions::default());
        assert_eq!(poisoned.unwrap().wait().unwrap_err(), ServeError::Failed);
        assert!(hits("serve::take_turn") > 0);
    }
    // The turn advanced past the panicked sequence number: the next update
    // applies (no deadlock), and `lock_live` recovered the poisoned state
    // lock for snapshots.
    let report = service
        .submit_update(Update::insert("R", vec![2.into()]), RequestOptions::default())
        .unwrap()
        .wait()
        .expect("the stream continues past a panicked update");
    assert_eq!(report.touched.len(), 1);
    assert_eq!(service.live_attribution("q").unwrap().answers.len(), 2);
}

#[test]
fn apply_update_panic_fails_one_ticket_not_the_stream() {
    let _lock = faults_lock();
    let mut db = Database::new();
    db.add_relation("R", 1);
    let query = parse_program("Q(X) :- R(X).").unwrap();
    let service = AttributionService::start(
        ServeConfig::default().with_workers(1).with_live_database(db).with_live_query("q", query),
    );
    {
        let _fp = arm("live::apply_update", Trigger::NthHit(1), FailAction::Panic("chaos"));
        let first =
            service.submit_update(Update::insert("R", vec![1.into()]), RequestOptions::default());
        assert_eq!(first.unwrap().wait().unwrap_err(), ServeError::Failed);
    }
    // The panic unwound inside the turn; the database mutated nothing, and
    // later updates flow normally.
    let report = service
        .submit_update(Update::insert("R", vec![7.into()]), RequestOptions::default())
        .unwrap()
        .wait()
        .unwrap();
    assert_eq!(report.touched[0].tuple, vec![Value::from(7)]);
    assert_eq!(service.live_attribution("q").unwrap().answers.len(), 1);
}

#[test]
fn injected_queue_full_is_typed_and_retryable() {
    let _lock = faults_lock();
    let service =
        AttributionService::start(ServeConfig::default().with_workers(1).with_queue_capacity(16));
    let _fp = arm("queue::try_push_full", Trigger::NthHit(1), FailAction::Trigger);
    // The injected backpressure is indistinguishable from the real thing…
    let refused = service.submit(ring(0, 4), RequestOptions::default());
    assert_eq!(refused.unwrap_err(), Rejected::QueueFull { capacity: 16 });
    // …and one deterministic backoff later the retry path rides it out.
    let ticket = service
        .submit_with_retry(ring(0, 4), RequestOptions::default(), &RetryPolicy::default())
        .expect("transient fullness must be survivable");
    assert!(ticket.wait().is_ok());
    assert_eq!(service.stats().rejected, 1);
}

#[test]
fn interrupted_canonicalization_is_a_miss_never_a_wrong_key() {
    let _lock = faults_lock();
    // Every budgeted refinement round reports interruption: no instance can
    // be keyed, so isomorphic lineages compile independently — correct
    // values, zero sharing, and crucially zero *wrong* sharing.
    let _fp = arm("canon::refine", Trigger::Always, FailAction::Trigger);
    let engine = Engine::new(EngineConfig::default());
    let mut session = engine.session();
    // Two isomorphic rings in different dense presentations (the second
    // visits its labels in the order 0, 2, 4, 1, 3, 5), so only the
    // canonical key could pair them.
    let scrambled = Dnf::from_clauses(
        [0u32, 2, 4, 1, 3, 5, 0]
            .windows(2)
            .map(|w| vec![Var(100 + w[0]), Var(100 + w[1])])
            .collect::<Vec<_>>(),
    );
    let batch = [ring(0, 6), scrambled];
    let refs: Vec<&Dnf> = batch.iter().collect();
    let budget = Budget::with_max_steps(1_000_000);
    let outcomes = session.attribute_batch(&refs, BatchOptions::new().with_shared_budget(&budget));
    assert!(hits("canon::refine") > 0, "the descent must consult the budget");
    let expected = undisturbed(&batch[0]);
    for (lineage, outcome) in batch.iter().zip(&outcomes) {
        let att = outcome.as_ref().expect("interrupted keying must not fail the instance");
        assert!(!att.stats.cache_hit, "unkeyed instances cannot be hits");
        for (i, x) in lineage.universe().iter().enumerate() {
            let want = expected.value(Var(i as u32)).unwrap().exact().unwrap();
            assert_eq!(att.value(x).unwrap().exact().unwrap(), want);
        }
    }
    assert_cache_consistent(&engine.stats().cache);

    // A shifted copy has the very same dense presentation: it shares the
    // compile without any key, so the interrupted search cannot touch it.
    let engine = Engine::new(EngineConfig::default());
    let mut session = engine.session();
    let batch = [ring(0, 6), ring(100, 6)];
    let refs: Vec<&Dnf> = batch.iter().collect();
    let budget = Budget::with_max_steps(1_000_000);
    let outcomes = session.attribute_batch(&refs, BatchOptions::new().with_shared_budget(&budget));
    for (lineage, outcome) in batch.iter().zip(&outcomes) {
        let att = outcome.as_ref().expect("a presentation reuse needs no key");
        for (i, x) in lineage.universe().iter().enumerate() {
            let want = expected.value(Var(i as u32)).unwrap().exact().unwrap();
            assert_eq!(att.value(x).unwrap().exact().unwrap(), want);
        }
    }
    assert!(outcomes[1].as_ref().unwrap().stats.cache_hit);
    assert_eq!(session.stats().canon_searches, 0);
    assert_cache_consistent(&engine.stats().cache);
}

#[test]
fn cache_lock_contention_slows_but_never_corrupts() {
    let _lock = faults_lock();
    // Stretch the race windows around the cache's lock with injected sleeps
    // while two workers hammer isomorphic shapes.
    let _slow =
        arm("cache::lookup", Trigger::EveryK(2), FailAction::Sleep(Duration::from_millis(1)));
    let _slow2 =
        arm("cache::insert", Trigger::EveryK(2), FailAction::Sleep(Duration::from_millis(1)));
    let service = AttributionService::start(ServeConfig::default().with_workers(2));
    let expected = undisturbed(&ring(0, 12));
    let tickets: Vec<Ticket> = (0..8u32)
        .map(|i| service.submit(ring(i * 100, 12), RequestOptions::default()).unwrap())
        .collect();
    for (i, outcome) in block_on(join_all(tickets)).into_iter().enumerate() {
        let att = outcome.expect("contention must not fail requests");
        let offset = i as u32 * 100;
        for j in 0..12u32 {
            assert_eq!(
                att.value(Var(offset + j)).unwrap().exact().unwrap(),
                expected.value(Var(j)).unwrap().exact().unwrap()
            );
        }
    }
    let stats = service.engine_stats().cache;
    assert_cache_consistent(&stats);
    assert!(stats.hits + stats.insertions >= 8, "all eight requests settled: {stats:?}");
}

#[test]
fn a_repeated_presentation_looks_up_again_and_finds_its_replaced_entry() {
    let _lock = faults_lock();
    let (a, c, a_again) = (ring(0, 6), ring(0, 5), ring(100, 6));
    let expected = undisturbed(&a);
    let config = EngineConfig::default().with_cache_config(CacheConfig::new().with_capacity(2));
    let batch = [&a, &c, &a_again];

    // Undisturbed: the third instance has the first one's presentation, and
    // its own lookup settles it on the same resident by presentation.
    let engine = Engine::new(config.clone());
    engine.session().attribute_batch(&[&a, &c], BatchOptions::default());
    let count = arm("cache::lookup", Trigger::NthHit(u64::MAX), FailAction::Trigger);
    let outcomes = engine.session().attribute_batch(&batch, BatchOptions::default());
    assert!(outcomes.iter().all(|o| o.as_ref().unwrap().stats.cache_hit));
    assert_eq!(hits("cache::lookup"), 3, "three instances, three lookups");
    drop(count);

    // Disturbed: at the second instance's lookup another session evicts both
    // residents and inserts the first presentation again under a new entry.
    // The third instance's lookup finds the new entry.
    let engine = Engine::new(config);
    engine.session().attribute_batch(&[&a, &c], BatchOptions::default());
    let other = engine.clone();
    let evict = Hook(Arc::new(move || {
        let mut session = other.session();
        for lineage in [ring(0, 7), ring(0, 8), ring(200, 6)] {
            assert!(!session.attribute(&lineage).unwrap().stats.cache_hit);
        }
    }));
    let _evict = arm("cache::lookup", Trigger::NthHit(2), FailAction::Run(evict));
    let outcomes = engine.session().attribute_batch(&batch, BatchOptions::default());
    assert_eq!(hits("cache::lookup"), 6, "three in the batch, three in the hook");
    let hit: Vec<bool> = outcomes.iter().map(|o| o.as_ref().unwrap().stats.cache_hit).collect();
    assert_eq!(hit, [true, false, true], "C was evicted; A hits its new entry");
    let att = outcomes[2].as_ref().unwrap();
    for (i, x) in a_again.universe().iter().enumerate() {
        let want = expected.value(Var(i as u32)).unwrap().exact().unwrap();
        assert_eq!(att.value(x).unwrap().exact().unwrap(), want);
    }
    assert_cache_consistent(&engine.stats().cache);
}

/// The failpoint sites the randomized schedule may arm, with the action each
/// site tolerates from a *client-invisible* position (panics there are caught
/// by a worker or turn guard; triggers are interpreted by the site).
const PANIC_SITES: &[&str] = &[
    "session::compile",
    "session::merge",
    "serve::worker_compile",
    "cache::lookup",
    "cache::insert",
    "serve::take_turn",
    "live::apply_update",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random request/update streams under random failpoint schedules: the
    /// five invariants at the top of this file, all at once.
    #[test]
    fn random_fault_schedules_never_wedge_the_service(
        seed in any::<u64>(),
        p_permille in 50u32..350,
        mask in 0u8..128,
        sleepy in any::<bool>(),
    ) {
        let p = f64::from(p_permille) / 1000.0;
        let _lock = faults_lock();
        let small = ring(0, 6);
        let large = ring(0, 10);
        let expected_small = undisturbed(&small);
        let expected_large = undisturbed(&large);

        // Arm a random subset of sites with a seeded probabilistic panic —
        // the same (seed, p, mask) replays the same fault schedule.
        let mut guards = Vec::new();
        for (bit, site) in PANIC_SITES.iter().enumerate() {
            if mask & (1 << bit) != 0 {
                guards.push(arm(
                    site,
                    Trigger::Probability { seed: seed.wrapping_add(bit as u64), p },
                    FailAction::Panic("chaos schedule"),
                ));
            }
        }
        if sleepy {
            guards.push(arm(
                "canon::refine",
                Trigger::Probability { seed, p },
                FailAction::Trigger,
            ));
        }

        let mut db = Database::new();
        db.add_relation("R", 1);
        let query = parse_program("Q(X) :- R(X).").unwrap();
        let service = AttributionService::start(
            ServeConfig::default()
                .with_workers(2)
                .with_queue_capacity(64)
                .with_live_database(db)
                .with_live_query("q", query),
        );

        // A mixed stream: strict requests, ladder requests under a starving
        // step cap, and live updates of distinct tuples.
        let mut strict_tickets = Vec::new();
        let mut ladder_tickets = Vec::new();
        let mut update_tickets = Vec::new();
        for i in 0..6u32 {
            let shape = if i % 2 == 0 { small.clone() } else { large.clone() };
            let shifted = Dnf::from_clauses(
                shape.clauses().iter().map(|c| {
                    c.iter().map(|v| Var(v.0 + 1000 * (i + 1))).collect::<Vec<_>>()
                }),
            );
            strict_tickets.push((i, service
                .submit(shifted.clone(), RequestOptions::default())
                .unwrap()));
            ladder_tickets.push((i, service
                .submit(
                    shifted,
                    RequestOptions::new()
                        .with_max_steps(3)
                        .with_fallback(FallbackPolicy::ladder()),
                )
                .unwrap()));
            update_tickets.push(service
                .submit_update(Update::insert("R", vec![i64::from(i).into()]), RequestOptions::default())
                .unwrap());
        }

        // Invariant 1: every ticket resolves (no hangs — `wait` returns).
        let mut applied = 0u64;
        for ticket in update_tickets {
            // Invariant 3: failed updates advance the turn; the stream never
            // wedges, and each success is a real, whole application.
            if let Ok(report) = ticket.wait() {
                prop_assert_eq!(report.touched.len(), 1);
                applied += 1;
            }
        }
        for (i, ticket) in strict_tickets {
            // Invariant 4: whatever completes exactly is bit-identical.
            if let Ok(att) = ticket.wait() {
                prop_assert!(att.degradation.is_none(), "strict requests never degrade");
                let expected =
                    if i % 2 == 0 { &expected_small } else { &expected_large };
                let vars = if i % 2 == 0 { 6 } else { 10 };
                for j in 0..vars {
                    prop_assert_eq!(
                        att.value(Var(1000 * (i + 1) + j)).unwrap().exact().unwrap(),
                        expected.value(Var(j)).unwrap().exact().unwrap()
                    );
                }
            }
        }
        for (i, ticket) in ladder_tickets {
            // Invariant 5: degraded answers bracket or estimate the exact
            // value (and exact ones match it bit-for-bit).
            if let Ok(att) = ticket.wait() {
                let expected = if i % 2 == 0 { &expected_small } else { &expected_large };
                let shape = if i % 2 == 0 { &small } else { &large };
                let shifted = Dnf::from_clauses(
                    shape.clauses().iter().map(|c| {
                        c.iter().map(|v| Var(v.0 + 1000 * (i + 1))).collect::<Vec<_>>()
                    }),
                );
                for (j, x) in shifted.universe().iter().enumerate() {
                    let want = expected.value(Var(j as u32)).unwrap().exact().unwrap();
                    match att.value(x).unwrap() {
                        Score::Exact(got) => prop_assert_eq!(got, &want),
                        Score::Interval(iv) => {
                            prop_assert!(iv.lower <= want && want <= iv.upper);
                        }
                        Score::Estimate(e) => prop_assert!(e.is_finite() && *e >= 0.0),
                        Score::Rational(_) => {
                            prop_assert!(false, "Boolean rungs never return aggregate scores");
                        }
                    }
                }
            }
        }

        // Invariant 2: the cache's counters are consistent under any fault
        // schedule, and the live answer count equals the applied updates.
        let cache = service.engine_stats().cache;
        prop_assert!(cache.entries <= cache.capacity);
        prop_assert!(cache.entries as u64 <= cache.insertions);
        prop_assert!(cache.evictions <= cache.insertions);
        prop_assert_eq!(
            service.live_attribution("q").unwrap().answers.len() as u64,
            applied
        );

        // Disarm everything and prove the service is unharmed: a clean
        // request compiles and matches the undisturbed run bit-for-bit.
        drop(guards);
        let clean = service
            .submit(small.clone(), RequestOptions::default())
            .unwrap()
            .wait()
            .expect("service must be healthy after the schedule");
        prop_assert_eq!(
            clean.exact_values().unwrap(),
            expected_small.exact_values().unwrap()
        );
    }
}
