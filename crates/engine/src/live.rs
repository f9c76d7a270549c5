//! Incremental attribution under live database updates.
//!
//! A [`LiveSession`] owns a [`Database`] plus the last [`QueryAttribution`]
//! per registered query, and exposes [`LiveSession::apply_update`]: on a
//! single-fact insert or delete, only the answers whose lineage actually
//! mentions the touched fact's variable are re-derived and re-attributed.
//!
//! The delta path combines three reuse levers:
//!
//! * an inverted var → answer index (built at registration, maintained per
//!   update) narrows a deletion to the answers that mention the deleted
//!   fact's variable — every other answer is untouched, by construction;
//! * deletions never re-run the query: the new lineage is
//!   [`Dnf::condition`]`(v, false)` restricted to its used variables, which
//!   is definitionally the lineage a fresh evaluation of the shrunken
//!   database would build;
//! * insertions re-run the planned join only with the new fact *pinned*
//!   ([`banzhaf_query::delta_groundings`]), merging the delta clauses into
//!   the affected answers' lineages;
//!
//! and re-attribution flows through the ordinary [`Session`] batch path, so
//! every untouched shape stays warm in the engine's `SharedCache` — resolved
//! by its cheap isomorphism-invariant fingerprint first, with the exact
//! canonical key only computed where fingerprints collide — and a touched
//! answer whose *shape* is unchanged (common under isomorphism-heavy
//! workloads) costs a cache hit instead of a compilation.
//! Results are bit-identical to evaluating and attributing the updated
//! database from scratch.

use crate::attribution::Attribution;
use crate::session::{AnswerAttribution, BatchOptions, QueryAttribution, Session, SessionStats};
use crate::Engine;
use banzhaf::Interrupted;
use banzhaf_boolean::{Dnf, Var};
use banzhaf_db::{Database, DbError, FactId, Update, Value};
use banzhaf_query::{delta_groundings, evaluate, UnionQuery};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::time::{Duration, Instant};

impl Engine {
    /// Starts a [`LiveSession`] owning `db`.
    ///
    /// The live session shares the engine's cross-session cache (and its
    /// sample-stream allocator) like any other [`Session`], so attributions
    /// performed while maintaining registered queries warm the cache for
    /// every other session of the engine, and vice versa.
    pub fn live_session(&self, db: Database) -> LiveSession {
        LiveSession {
            session: self.session(),
            db,
            queries: Vec::new(),
            stats: LiveStats::default(),
        }
    }
}

/// Cumulative statistics of a [`LiveSession`]'s update stream.
#[derive(Clone, Copy, Debug, Default)]
pub struct LiveStats {
    /// Updates applied.
    pub updates: u64,
    /// Insertions among them.
    pub inserts: u64,
    /// Deletions among them.
    pub deletes: u64,
    /// Answers re-attributed (added or updated) across all updates.
    pub answers_touched: u64,
    /// Answers removed because their lineage became unsatisfiable.
    pub answers_removed: u64,
    /// Answers left untouched across all updates (the delta path's win:
    /// each would have been re-attributed by a cold re-evaluation).
    pub answers_untouched: u64,
    /// Compile steps actually paid inside [`LiveSession::apply_update`].
    pub update_compile_steps: u64,
    /// Cache hits scored by update re-attributions.
    pub update_cache_hits: u64,
    /// Estimated compile steps saved by *not* re-attributing untouched
    /// answers: the sum of each untouched answer's last observed full
    /// compilation cost (for answers only ever served from the cache, the
    /// compiled tree's node count stands in as the estimate).
    pub update_steps_saved: u64,
}

/// How one answer changed under an update.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AnswerChange {
    /// The answer did not exist before the update.
    Added,
    /// The answer's lineage gained or lost clauses and was re-attributed.
    Updated,
    /// The answer's lineage became unsatisfiable and the answer disappeared.
    Removed,
}

/// One answer re-derived by an update.
#[derive(Clone, Debug)]
pub struct TouchedAnswer {
    /// The registered query the answer belongs to.
    pub query: String,
    /// The answer tuple.
    pub tuple: Vec<Value>,
    /// What happened to it.
    pub change: AnswerChange,
}

/// The result of applying one [`Update`]: which answers were re-derived and
/// what the delta path paid — and saved — doing so.
#[derive(Clone, Debug)]
pub struct UpdateReport {
    /// The update that was applied.
    pub update: Update,
    /// The id of the inserted or deleted fact (its lineage variable is
    /// `Var(fact.0)`).
    pub fact: FactId,
    /// The answers re-derived by this update, in (query, tuple) order.
    pub touched: Vec<TouchedAnswer>,
    /// Registered answers left untouched (their attributions — and their
    /// canonical shapes in the shared cache — were reused as-is).
    pub untouched: u64,
    /// Compile steps paid re-attributing the touched answers.
    pub compile_steps: u64,
    /// Cache hits scored while re-attributing the touched answers.
    pub cache_hits: u64,
    /// Estimated compile steps a cold re-attribution of the untouched
    /// answers would have paid (see [`LiveStats::update_steps_saved`]).
    pub steps_saved: u64,
    /// Wall-clock time spent applying the update.
    pub wall: Duration,
}

/// The last known state of one answer of a registered query.
struct LiveAnswer {
    lineage: Dnf,
    outcome: Result<Attribution, Interrupted>,
    /// The compile steps a cold attribution of this answer would pay: the
    /// cost observed when the answer's shape was last compiled, or the
    /// compiled tree's node count when it was served from the cache.
    cold_cost: u64,
}

impl LiveAnswer {
    fn new(lineage: Dnf, outcome: Result<Attribution, Interrupted>) -> Self {
        let cold_cost = match &outcome {
            Ok(attribution) if attribution.stats.cache_hit => attribution.stats.dtree_nodes as u64,
            Ok(attribution) => attribution.stats.compile_steps,
            Err(_) => 0,
        };
        LiveAnswer { lineage, outcome, cold_cost }
    }
}

/// One registered query: its answers and the inverted var → answer index.
struct LiveQuery {
    name: String,
    query: UnionQuery,
    /// Answer tuple → last known lineage and attribution, ordered by tuple
    /// (the evaluator's deterministic answer order).
    answers: BTreeMap<Vec<Value>, LiveAnswer>,
    /// Lineage variable → the answers whose lineage mentions it.
    by_var: HashMap<Var, BTreeSet<Vec<Value>>>,
    /// The sum of every answer's [`LiveAnswer::cold_cost`], maintained by
    /// [`LiveQuery::put`] and [`LiveQuery::remove`].
    cold_cost: u64,
}

impl LiveQuery {
    /// Inserts (or replaces) an answer, maintaining the inverted index and
    /// the cold-cost total, and returns the answer's cold cost.
    ///
    /// A registered lineage's universe is exactly its used variables (the
    /// evaluator and the delta path both maintain this), so indexing the
    /// universe indexes every mentioned variable. A replaced answer touches
    /// only the index entries of the variables its lineage gained or lost:
    /// one merge walk over the two sorted universes.
    fn put(
        &mut self,
        tuple: Vec<Value>,
        lineage: Dnf,
        outcome: Result<Attribution, Interrupted>,
    ) -> u64 {
        let old = match self.answers.get(&tuple) {
            Some(existing) => {
                self.cold_cost -= existing.cold_cost;
                existing.lineage.universe().as_slice()
            }
            None => &[],
        };
        let new = lineage.universe().as_slice();
        let (mut i, mut j) = (0, 0);
        loop {
            match (old.get(i), new.get(j)) {
                (None, None) => break,
                (Some(kept), Some(also)) if kept == also => (i, j) = (i + 1, j + 1),
                (Some(&lost), next) if next.is_none_or(|&next| lost < next) => {
                    Self::unindex_var(&mut self.by_var, lost, &tuple);
                    i += 1;
                }
                (_, Some(&gained)) => {
                    self.by_var.entry(gained).or_default().insert(tuple.clone());
                    j += 1;
                }
                (Some(_), None) => unreachable!("a lone old variable is lost"),
            }
        }
        let answer = LiveAnswer::new(lineage, outcome);
        let cold_cost = answer.cold_cost;
        self.cold_cost += cold_cost;
        self.answers.insert(tuple, answer);
        cold_cost
    }

    /// Removes an answer, its index entries and its cold cost.
    fn remove(&mut self, tuple: &[Value]) {
        self.unindex(tuple);
        self.answers.remove(tuple);
    }

    /// Drops the index entries and the cold cost of the answer's current
    /// lineage, if any.
    fn unindex(&mut self, tuple: &[Value]) {
        let Some(existing) = self.answers.get(tuple) else {
            return;
        };
        self.cold_cost -= existing.cold_cost;
        for var in existing.lineage.universe().iter() {
            Self::unindex_var(&mut self.by_var, var, tuple);
        }
    }

    /// Drops `tuple` from the index entry of `var`.
    fn unindex_var(by_var: &mut HashMap<Var, BTreeSet<Vec<Value>>>, var: Var, tuple: &[Value]) {
        if let Some(tuples) = by_var.get_mut(&var) {
            tuples.remove(tuple);
            if tuples.is_empty() {
                by_var.remove(&var);
            }
        }
    }

    /// The current per-answer attribution state, in answer-tuple order.
    fn snapshot(&self) -> QueryAttribution {
        let answers = self
            .answers
            .iter()
            .map(|(tuple, answer)| AnswerAttribution {
                tuple: tuple.clone(),
                lineage: answer.lineage.clone(),
                outcome: answer.outcome.clone(),
            })
            .collect();
        QueryAttribution { answers }
    }
}

/// A stateful session for attribution under live updates: owns the database
/// and keeps every registered query's per-answer attribution current as
/// single-fact updates are applied, re-deriving only the answers an update
/// actually touches. [`LiveSession::apply_update`] documents the delta
/// strategy.
///
/// ```
/// use banzhaf_engine::{Engine, EngineConfig};
/// use banzhaf_db::{Database, Update};
/// use banzhaf_query::parse_program;
///
/// let mut db = Database::new();
/// db.add_relation("R", 1);
/// db.add_relation("S", 2);
/// db.insert_endogenous("R", vec![1.into()]).unwrap();
/// db.insert_endogenous("S", vec![1.into(), 2.into()]).unwrap();
///
/// let engine = Engine::new(EngineConfig::default());
/// let mut live = engine.live_session(db);
/// live.register("q", parse_program("Q() :- R(X), S(X, Y).").unwrap());
///
/// let report = live.apply_update(Update::insert("S", vec![1.into(), 3.into()])).unwrap();
/// assert_eq!(report.touched.len(), 1);
/// let snapshot = live.attribution("q").unwrap();
/// let attribution = snapshot.answers[0].attribution().unwrap();
/// assert_eq!(attribution.model_count.as_ref().unwrap().to_u64(), Some(3));
/// ```
pub struct LiveSession {
    session: Session,
    db: Database,
    queries: Vec<LiveQuery>,
    stats: LiveStats,
}

impl LiveSession {
    /// The current database state.
    pub fn db(&self) -> &Database {
        &self.db
    }

    /// The cumulative update statistics.
    pub fn stats(&self) -> &LiveStats {
        &self.stats
    }

    /// The statistics of the underlying attribution session (registration
    /// and update re-attributions included).
    pub fn session_stats(&self) -> &SessionStats {
        self.session.stats()
    }

    /// The names of the registered queries, in registration order.
    pub fn query_names(&self) -> Vec<&str> {
        self.queries.iter().map(|q| q.name.as_str()).collect()
    }

    /// Registers a query: evaluates it against the current database,
    /// attributes every answer, builds the inverted var → answer index, and
    /// returns the initial attribution snapshot.
    ///
    /// # Panics
    /// Panics if a query with the same name is already registered (names are
    /// programmer controlled, like relation names in [`Database`]).
    pub fn register(&mut self, name: impl Into<String>, query: UnionQuery) -> QueryAttribution {
        let name = name.into();
        assert!(self.queries.iter().all(|q| q.name != name), "query {name} is already registered");
        let raw = evaluate(&query, &self.db).into_answers();
        let lineages: Vec<&Dnf> = raw.iter().map(|a| &a.lineage).collect();
        let outcomes = self.session.attribute_batch(&lineages, BatchOptions::default());
        let mut live = LiveQuery {
            name,
            query,
            answers: BTreeMap::new(),
            by_var: HashMap::new(),
            cold_cost: 0,
        };
        for (answer, outcome) in raw.into_iter().zip(outcomes) {
            live.put(answer.tuple, answer.lineage, outcome);
        }
        let snapshot = live.snapshot();
        self.queries.push(live);
        snapshot
    }

    /// The current attribution snapshot of a registered query.
    pub fn attribution(&self, name: &str) -> Option<QueryAttribution> {
        self.queries.iter().find(|q| q.name == name).map(LiveQuery::snapshot)
    }

    /// Applies a single-fact update to the database and incrementally
    /// re-derives exactly the registered answers the update touches.
    ///
    /// For a deletion, the touched answers are read off the inverted index
    /// (the answers whose lineage mentions the deleted fact's variable); no
    /// query is re-evaluated, each new lineage is obtained by conditioning
    /// the old one. For an insertion, the planned join re-runs with the
    /// new fact pinned, contributing delta clauses to existing and new
    /// answers. Either way the touched lineages are re-attributed through
    /// the ordinary batch path — untouched canonical shapes stay warm in the
    /// shared cache — and the resulting state is bit-identical to evaluating
    /// and attributing the updated database from scratch.
    pub fn apply_update(&mut self, update: Update) -> Result<UpdateReport, DbError> {
        let start = Instant::now();
        banzhaf_par::failpoint!("live::apply_update");
        let steps_before = self.session.stats().compile_steps;
        let hits_before = self.session.stats().cache_hits;
        let id = self.db.apply_update(&update)?;

        // Stage the touched answers: (query index, tuple, new lineage,
        // change), in deterministic (query, tuple) order.
        let mut staged: Vec<(usize, Vec<Value>, Dnf, AnswerChange)> = Vec::new();
        if update.is_insert() {
            for (qi, q) in self.queries.iter().enumerate() {
                let mut merged: BTreeMap<Vec<Value>, Vec<Vec<Var>>> = BTreeMap::new();
                for (tuple, clause) in delta_groundings(&q.query, &self.db, id) {
                    merged.entry(tuple).or_default().push(clause);
                }
                for (tuple, clauses) in merged {
                    let delta = Dnf::from_clauses(clauses);
                    match q.answers.get(&tuple) {
                        Some(old) => {
                            staged.push((qi, tuple, old.lineage.or(&delta), AnswerChange::Updated));
                        }
                        None => staged.push((qi, tuple, delta, AnswerChange::Added)),
                    }
                }
            }
        } else {
            let var = Var(id.0);
            for (qi, q) in self.queries.iter().enumerate() {
                let Some(tuples) = q.by_var.get(&var) else { continue };
                for tuple in tuples {
                    let old = &q.answers[tuple];
                    // Conditioning drops the clauses using the deleted fact;
                    // restricting to the used variables drops the orphans, so
                    // the result is exactly the lineage a fresh evaluation of
                    // the shrunken database would build.
                    let lineage = old.lineage.condition(var, false).restrict_to_used();
                    let change = if lineage.is_false() {
                        AnswerChange::Removed
                    } else {
                        AnswerChange::Updated
                    };
                    staged.push((qi, tuple.clone(), lineage, change));
                }
            }
        }

        // Re-attribute every surviving touched lineage in one batch (cache
        // hits for unchanged canonical shapes), then write back.
        let jobs: Vec<usize> =
            (0..staged.len()).filter(|&i| staged[i].3 != AnswerChange::Removed).collect();
        let lineages: Vec<&Dnf> = jobs.iter().map(|&i| &staged[i].2).collect();
        let outcomes = self.session.attribute_batch(&lineages, BatchOptions::default());
        let mut outcomes = outcomes.into_iter();
        let mut touched = Vec::with_capacity(staged.len());
        // The surviving touched answers (staged at most once each) and the
        // sum of their cold costs.
        let (mut kept, mut kept_cost) = (0u64, 0u64);
        for (qi, tuple, lineage, change) in staged {
            let q = &mut self.queries[qi];
            if change == AnswerChange::Removed {
                q.remove(&tuple);
            } else {
                let outcome = outcomes.next().expect("one outcome per staged job");
                kept_cost += q.put(tuple.clone(), lineage, outcome);
                kept += 1;
            }
            touched.push(TouchedAnswer { query: q.name.clone(), tuple, change });
        }

        // Account what the delta path skipped: every untouched answer would
        // have been re-attributed by a cold re-evaluation of the updated
        // database.
        let answers: u64 = self.queries.iter().map(|q| q.answers.len() as u64).sum();
        let untouched = answers - kept;
        let steps_saved = self.queries.iter().map(|q| q.cold_cost).sum::<u64>() - kept_cost;

        let compile_steps = self.session.stats().compile_steps - steps_before;
        let cache_hits = self.session.stats().cache_hits - hits_before;
        self.stats.updates += 1;
        if update.is_insert() {
            self.stats.inserts += 1;
        } else {
            self.stats.deletes += 1;
        }
        self.stats.answers_touched += kept;
        self.stats.answers_removed +=
            touched.iter().filter(|t| t.change == AnswerChange::Removed).count() as u64;
        self.stats.answers_untouched += untouched;
        self.stats.update_compile_steps += compile_steps;
        self.stats.update_cache_hits += cache_hits;
        self.stats.update_steps_saved += steps_saved;

        Ok(UpdateReport {
            update,
            fact: id,
            touched,
            untouched,
            compile_steps,
            cache_hits,
            steps_saved,
            wall: start.elapsed(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EngineConfig;
    use banzhaf_query::parse_program;

    fn sample_db() -> Database {
        let mut db = Database::new();
        db.add_relation("R", 2);
        db.add_relation("S", 2);
        for (a, b) in [(1, 10), (1, 20), (2, 30)] {
            db.insert_endogenous("R", vec![a.into(), b.into()]).unwrap();
        }
        for (b, c) in [(10, 1), (20, 1), (30, 1)] {
            db.insert_endogenous("S", vec![b.into(), c.into()]).unwrap();
        }
        db
    }

    /// Asserts the live snapshot of `query` is bit-identical to a cold
    /// evaluation + attribution of the live session's current database.
    fn assert_matches_cold(live: &LiveSession, name: &str, query: &str) {
        let query = parse_program(query).unwrap();
        let cold_engine =
            Engine::new(EngineConfig::default().with_cache_config(crate::CacheConfig::disabled()));
        let cold = cold_engine.session().explain(&query, live.db());
        let snapshot = live.attribution(name).unwrap();
        assert_eq!(snapshot.answers.len(), cold.answers.len());
        for (have, want) in snapshot.answers.iter().zip(&cold.answers) {
            assert_eq!(have.tuple, want.tuple);
            assert_eq!(have.lineage, want.lineage);
            let (have, want) = (have.attribution().unwrap(), want.attribution().unwrap());
            assert_eq!(have.exact_values(), want.exact_values());
            assert_eq!(have.model_count, want.model_count);
        }
    }

    const Q: &str = "Q(X) :- R(X, Y), S(Y, Z).";

    #[test]
    fn updates_track_cold_reevaluation_bit_for_bit() {
        let engine = Engine::new(EngineConfig::default());
        let mut live = engine.live_session(sample_db());
        let initial = live.register("q", parse_program(Q).unwrap());
        assert_eq!(initial.answers.len(), 2);
        assert_matches_cold(&live, "q", Q);

        // Insert: a new S fact adds a clause to the existing answer 1.
        let report = live.apply_update(Update::insert("S", vec![20.into(), 2.into()])).unwrap();
        assert_eq!(report.touched.len(), 1);
        assert_eq!(report.touched[0].change, AnswerChange::Updated);
        assert_eq!(report.untouched, 1);
        assert_matches_cold(&live, "q", Q);

        // Insert: a new R fact creates a brand-new answer.
        let report = live.apply_update(Update::insert("R", vec![7.into(), 30.into()])).unwrap();
        assert_eq!(report.touched.len(), 1);
        assert_eq!(report.touched[0].change, AnswerChange::Added);
        assert_matches_cold(&live, "q", Q);

        // Delete: answer 2 loses its only grounding and disappears; answer 7
        // (sharing the S(30, 1) fact) is re-derived, answer 1 is untouched.
        let report = live.apply_update(Update::delete("S", vec![30.into(), 1.into()])).unwrap();
        let changes: Vec<AnswerChange> = report.touched.iter().map(|t| t.change).collect();
        assert_eq!(changes, vec![AnswerChange::Removed, AnswerChange::Removed]);
        assert_eq!(report.untouched, 1);
        assert_matches_cold(&live, "q", Q);

        // Delete: answer 1 loses one of its three clauses.
        let report = live.apply_update(Update::delete("R", vec![1.into(), 10.into()])).unwrap();
        assert_eq!(report.touched.len(), 1);
        assert_eq!(report.touched[0].change, AnswerChange::Updated);
        assert_matches_cold(&live, "q", Q);

        let stats = live.stats();
        assert_eq!(stats.updates, 4);
        assert_eq!(stats.inserts, 2);
        assert_eq!(stats.deletes, 2);
        assert_eq!(stats.answers_removed, 2);
        assert!(stats.answers_untouched >= 2);
    }

    #[test]
    fn untouched_updates_perform_zero_compile_steps() {
        let engine = Engine::new(EngineConfig::default());
        let mut live = engine.live_session(sample_db());
        live.register("q", parse_program(Q).unwrap());
        // An insert into a relation region joining with nothing: the pinned
        // delta search finds no groundings, so nothing is re-attributed.
        let report = live.apply_update(Update::insert("S", vec![99.into(), 1.into()])).unwrap();
        assert!(report.touched.is_empty());
        assert_eq!(report.compile_steps, 0);
        assert_eq!(report.untouched, 2);
        // Both answers' clauses share no variable, so a cold re-attribution
        // would answer them in closed form and compile nothing either.
        assert_eq!(report.steps_saved, 0);
        // Deleting it again touches nothing either: its variable never made
        // it into any lineage, so the inverted index finds no answers.
        let report = live.apply_update(Update::delete("S", vec![99.into(), 1.into()])).unwrap();
        assert!(report.touched.is_empty());
        assert_eq!(report.compile_steps, 0);
        assert_matches_cold(&live, "q", Q);
    }

    #[test]
    fn running_totals_match_a_walk_over_every_answer() {
        let engine = Engine::new(EngineConfig::default());
        let mut live = engine.live_session(sample_db());
        live.register("q1", parse_program(Q).unwrap());
        live.register("q2", parse_program("P(Y) :- R(X, Y).").unwrap());
        let updates = [
            Update::insert("S", vec![20.into(), 2.into()]),
            Update::insert("R", vec![7.into(), 30.into()]),
            Update::delete("S", vec![30.into(), 1.into()]),
            Update::insert("R", vec![1.into(), 30.into()]),
            Update::delete("R", vec![1.into(), 10.into()]),
        ];
        for update in updates {
            let report = live.apply_update(update).unwrap();
            let mut untouched = 0u64;
            let mut steps_saved = 0u64;
            for q in &live.queries {
                assert_eq!(q.cold_cost, q.answers.values().map(|a| a.cold_cost).sum::<u64>());
                // The index `put` maintains by difference equals one rebuilt
                // from every answer's lineage.
                let mut rebuilt: HashMap<Var, BTreeSet<Vec<Value>>> = HashMap::new();
                for (tuple, answer) in &q.answers {
                    for var in answer.lineage.universe().iter() {
                        rebuilt.entry(var).or_default().insert(tuple.clone());
                    }
                }
                assert_eq!(q.by_var, rebuilt);
                for (tuple, answer) in &q.answers {
                    let touched = report.touched.iter().any(|t| {
                        t.query == q.name && t.tuple == *tuple && t.change != AnswerChange::Removed
                    });
                    if !touched {
                        untouched += 1;
                        steps_saved += answer.cold_cost;
                    }
                }
            }
            assert_eq!(report.untouched, untouched);
            assert_eq!(report.steps_saved, steps_saved);
        }
    }

    #[test]
    fn updates_cover_every_registered_query() {
        let engine = Engine::new(EngineConfig::default());
        let mut live = engine.live_session(sample_db());
        live.register("q1", parse_program(Q).unwrap());
        live.register("q2", parse_program("P(Y) :- R(X, Y).").unwrap());
        assert_eq!(live.query_names(), vec!["q1", "q2"]);
        let report = live.apply_update(Update::insert("R", vec![1.into(), 30.into()])).unwrap();
        let queries: BTreeSet<&str> = report.touched.iter().map(|t| t.query.as_str()).collect();
        assert_eq!(queries, BTreeSet::from(["q1", "q2"]));
        assert_matches_cold(&live, "q1", Q);
        assert_matches_cold(&live, "q2", "P(Y) :- R(X, Y).");
    }

    #[test]
    fn invalid_updates_are_rejected_and_change_nothing() {
        let engine = Engine::new(EngineConfig::default());
        let mut live = engine.live_session(sample_db());
        live.register("q", parse_program(Q).unwrap());
        let err = live.apply_update(Update::delete("R", vec![77.into(), 77.into()])).unwrap_err();
        assert!(matches!(err, DbError::UnknownFact(_)));
        let err = live.apply_update(Update::insert("Nope", vec![1.into()])).unwrap_err();
        assert!(matches!(err, DbError::UnknownRelation(_)));
        assert_eq!(live.stats().updates, 0);
        assert_matches_cold(&live, "q", Q);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn duplicate_registration_panics() {
        let engine = Engine::new(EngineConfig::default());
        let mut live = engine.live_session(sample_db());
        live.register("q", parse_program(Q).unwrap());
        live.register("q", parse_program(Q).unwrap());
    }
}
