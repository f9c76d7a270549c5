//! The database: relations, fact storage, endogenous/exogenous partitioning.

use crate::{Fact, FactId, Provenance, TupleIndex, Update, Value};
use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Errors raised by database mutation and lookup.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum DbError {
    /// The referenced relation does not exist.
    UnknownRelation(String),
    /// A tuple's arity does not match the relation schema.
    ArityMismatch {
        /// The relation name.
        relation: String,
        /// The declared arity.
        expected: usize,
        /// The arity of the offending tuple.
        got: usize,
    },
    /// A relation with this name already exists.
    DuplicateRelation(String),
    /// The referenced endogenous fact does not exist (stale id, value not
    /// present, or already deleted); carries the display form of the lookup.
    UnknownFact(String),
}

impl fmt::Display for DbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DbError::UnknownRelation(r) => write!(f, "unknown relation {r}"),
            DbError::ArityMismatch { relation, expected, got } => {
                write!(f, "arity mismatch for {relation}: expected {expected}, got {got}")
            }
            DbError::DuplicateRelation(r) => write!(f, "relation {r} already exists"),
            DbError::UnknownFact(fact) => write!(f, "unknown endogenous fact {fact}"),
        }
    }
}

impl std::error::Error for DbError {}

/// A stored relation: its arity, its tuples with provenance tags, and the
/// hash indexes built over them so far.
///
/// An index lives as long as its relation. [`Relation::index`] builds it on
/// the first request for its key positions, through a shared reference, and
/// every later request (from any query, plan or thread) gets the same one.
/// Inserts and deletes keep every built index current in place: an insert
/// adds the new last position to its bucket, and a delete drops its position
/// and shifts the later ones down, as removing the tuple shifts the tuples.
/// Cloning a relation shares its built indexes with the clone; the first
/// write on either side copies a shared index before changing it.
#[derive(Debug, Default)]
pub struct Relation {
    arity: usize,
    tuples: Vec<(Vec<Value>, Provenance)>,
    /// The indexes built so far, one per key-position set.
    indexes: Mutex<Vec<Arc<TupleIndex>>>,
}

impl Clone for Relation {
    fn clone(&self) -> Self {
        Relation {
            arity: self.arity,
            tuples: self.tuples.clone(),
            indexes: Mutex::new(lock(&self.indexes).clone()),
        }
    }
}

/// Locks a relation's index list. Building an index cannot leave the list
/// half changed, so a panic under the lock does not invalidate it.
fn lock(indexes: &Mutex<Vec<Arc<TupleIndex>>>) -> MutexGuard<'_, Vec<Arc<TupleIndex>>> {
    indexes.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Relation {
    fn new(arity: usize) -> Self {
        Relation { arity, ..Relation::default() }
    }

    /// The relation's arity.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// The number of tuples.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// `true` iff the relation has no tuples.
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// Iterates over `(values, provenance)` pairs.
    pub fn tuples(&self) -> impl Iterator<Item = (&[Value], Provenance)> + '_ {
        self.tuples.iter().map(|(vals, prov)| (vals.as_slice(), *prov))
    }

    /// The tuple at `position` (an entry of a [`TupleIndex`] bucket).
    ///
    /// # Panics
    /// Panics if `position` is out of range.
    pub fn tuple(&self, position: u32) -> (&[Value], Provenance) {
        let (values, provenance) = &self.tuples[position as usize];
        (values, *provenance)
    }

    /// The index of this relation by the values at `positions` (ascending,
    /// each below the arity), built now if no earlier request built it.
    pub fn index(&self, positions: &[usize]) -> Arc<TupleIndex> {
        debug_assert!(positions.windows(2).all(|w| w[0] < w[1]), "ascending positions");
        debug_assert!(positions.iter().all(|&p| p < self.arity), "positions within the arity");
        let mut indexes = lock(&self.indexes);
        if let Some(index) = indexes.iter().find(|i| i.positions() == positions) {
            return Arc::clone(index);
        }
        let index =
            Arc::new(TupleIndex::build(positions, self.tuples.iter().map(|(v, _)| v.as_slice())));
        indexes.push(Arc::clone(&index));
        index
    }

    /// The indexes built so far, in the order they were built.
    pub fn indexes(&self) -> Vec<Arc<TupleIndex>> {
        lock(&self.indexes).clone()
    }

    /// Appends a tuple and adds it to every built index.
    fn push(&mut self, values: Vec<Value>, provenance: Provenance) {
        let at = self.tuples.len() as u32;
        for index in self.indexes.get_mut().unwrap_or_else(PoisonError::into_inner) {
            Arc::make_mut(index).insert(at, &values);
        }
        self.tuples.push((values, provenance));
    }

    /// Removes the tuple at `at` from the tuples and from every built index.
    fn remove(&mut self, at: usize) {
        let (values, _) = self.tuples.remove(at);
        for index in self.indexes.get_mut().unwrap_or_else(PoisonError::into_inner) {
            Arc::make_mut(index).remove(at as u32, &values);
        }
    }
}

/// An in-memory database: named relations over typed values, with each fact
/// tagged endogenous or exogenous.
///
/// Each relation keeps the join indexes the query evaluator asks it for (see
/// [`Relation`]): built on first use behind `&Database`, maintained in place
/// by [`insert_endogenous`](Database::insert_endogenous),
/// [`insert_exogenous`](Database::insert_exogenous) and
/// [`delete_endogenous`](Database::delete_endogenous), and shared by a clone
/// until either side writes. A `Database` is `Send + Sync`, so threads may
/// evaluate queries over one `&Database` at once; the first of them to need
/// an index builds it and the others wait for it.
#[derive(Clone, Debug, Default)]
pub struct Database {
    relations: HashMap<String, Relation>,
    /// Endogenous facts indexed by their [`FactId`]. Deleted facts leave a
    /// tombstone (`None`) so that surviving ids — and hence the lineage
    /// variables derived from them — stay stable across updates.
    endogenous: Vec<Option<Fact>>,
}

impl Database {
    /// Creates an empty database.
    pub fn new() -> Self {
        Database::default()
    }

    /// Declares a relation with the given arity.
    ///
    /// # Panics
    /// Panics if the relation already exists (schema setup is programmer
    /// controlled; a duplicate indicates a bug in workload construction).
    pub fn add_relation(&mut self, name: impl Into<String>, arity: usize) {
        let name = name.into();
        let previous = self.relations.insert(name.clone(), Relation::new(arity));
        assert!(previous.is_none(), "{}", DbError::DuplicateRelation(name));
    }

    /// Inserts an endogenous fact and returns its id (= provenance variable).
    pub fn insert_endogenous(
        &mut self,
        relation: &str,
        values: Vec<Value>,
    ) -> Result<FactId, DbError> {
        self.check(relation, &values)?;
        let id = FactId(self.endogenous.len() as u32);
        self.endogenous.push(Some(Fact::new(relation, values.clone())));
        self.relations
            .get_mut(relation)
            .expect("checked above")
            .push(values, Provenance::Endogenous(id));
        Ok(id)
    }

    /// Deletes an endogenous fact by id, removing its tuple from the owning
    /// relation, and returns the deleted fact.
    ///
    /// The id is tombstoned, never reused: every surviving fact keeps its id,
    /// so lineage variables built before the deletion remain valid.
    pub fn delete_endogenous(&mut self, id: FactId) -> Result<Fact, DbError> {
        let fact = self
            .endogenous
            .get_mut(id.index())
            .and_then(Option::take)
            .ok_or_else(|| DbError::UnknownFact(id.to_string()))?;
        let rel = self.relations.get_mut(fact.relation()).expect("live fact has a relation");
        let pos = rel
            .tuples
            .iter()
            .position(|(_, prov)| *prov == Provenance::Endogenous(id))
            .expect("live fact has a stored tuple");
        rel.remove(pos);
        Ok(fact)
    }

    /// Finds a live endogenous fact by relation and values (first match when
    /// the relation holds duplicate tuples).
    pub fn find_endogenous(&self, relation: &str, values: &[Value]) -> Option<FactId> {
        self.relations.get(relation)?.tuples.iter().find_map(|(vals, prov)| {
            if vals == values {
                prov.fact_id()
            } else {
                None
            }
        })
    }

    /// Applies a single-fact [`Update`], returning the id of the inserted or
    /// deleted fact. Deletions match the fact by relation and values.
    pub fn apply_update(&mut self, update: &Update) -> Result<FactId, DbError> {
        match update {
            Update::Insert(fact) => self.insert_endogenous(fact.relation(), fact.values().to_vec()),
            Update::Delete(fact) => {
                let id = self
                    .find_endogenous(fact.relation(), fact.values())
                    .ok_or_else(|| DbError::UnknownFact(fact.to_string()))?;
                self.delete_endogenous(id)?;
                Ok(id)
            }
        }
    }

    /// Inserts an exogenous fact.
    pub fn insert_exogenous(&mut self, relation: &str, values: Vec<Value>) -> Result<(), DbError> {
        self.check(relation, &values)?;
        self.relations
            .get_mut(relation)
            .expect("checked above")
            .push(values, Provenance::Exogenous);
        Ok(())
    }

    fn check(&self, relation: &str, values: &[Value]) -> Result<(), DbError> {
        let rel = self
            .relations
            .get(relation)
            .ok_or_else(|| DbError::UnknownRelation(relation.to_owned()))?;
        if rel.arity != values.len() {
            return Err(DbError::ArityMismatch {
                relation: relation.to_owned(),
                expected: rel.arity,
                got: values.len(),
            });
        }
        Ok(())
    }

    /// Looks up a relation by name.
    pub fn relation(&self, name: &str) -> Option<&Relation> {
        self.relations.get(name)
    }

    /// Names of all relations (sorted for determinism).
    pub fn relation_names(&self) -> Vec<&str> {
        let mut names: Vec<&str> = self.relations.keys().map(String::as_str).collect();
        names.sort_unstable();
        names
    }

    /// Looks up a live endogenous fact by id (`None` for deleted facts).
    pub fn fact(&self, id: FactId) -> Option<&Fact> {
        self.endogenous.get(id.index()).and_then(Option::as_ref)
    }

    /// Number of live endogenous facts (deleted facts are not counted).
    pub fn num_endogenous(&self) -> usize {
        self.endogenous.iter().filter(|f| f.is_some()).count()
    }

    /// Total number of stored tuples (endogenous and exogenous).
    pub fn num_tuples(&self) -> usize {
        self.relations.values().map(Relation::len).sum()
    }

    /// Iterates over all live endogenous facts with their ids.
    pub fn endogenous_facts(&self) -> impl Iterator<Item = (FactId, &Fact)> + '_ {
        self.endogenous
            .iter()
            .enumerate()
            .filter_map(|(i, f)| f.as_ref().map(|fact| (FactId(i as u32), fact)))
    }
}

// Query evaluation shares one `&Database` across threads.
const _: fn() = || {
    fn check<T: Send + Sync>() {}
    check::<Database>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key_hash;

    fn sample_db() -> Database {
        let mut db = Database::new();
        db.add_relation("R", 1);
        db.add_relation("S", 2);
        db.insert_endogenous("R", vec![Value::from(1)]).unwrap();
        db.insert_endogenous("R", vec![Value::from(2)]).unwrap();
        db.insert_endogenous("S", vec![Value::from(1), Value::from(10)]).unwrap();
        db.insert_exogenous("S", vec![Value::from(2), Value::from(20)]).unwrap();
        db
    }

    #[test]
    fn insertion_and_lookup() {
        let db = sample_db();
        assert_eq!(db.num_endogenous(), 3);
        assert_eq!(db.num_tuples(), 4);
        assert_eq!(db.relation("R").unwrap().len(), 2);
        assert_eq!(db.relation("S").unwrap().arity(), 2);
        assert!(db.relation("T").is_none());
        assert_eq!(db.relation_names(), vec!["R", "S"]);
        let fact = db.fact(FactId(0)).unwrap();
        assert_eq!(fact.relation(), "R");
        assert_eq!(db.fact(FactId(99)), None);
    }

    #[test]
    fn fact_ids_are_dense_and_stable() {
        let db = sample_db();
        let ids: Vec<FactId> = db.endogenous_facts().map(|(id, _)| id).collect();
        assert_eq!(ids, vec![FactId(0), FactId(1), FactId(2)]);
    }

    #[test]
    fn provenance_tags_on_tuples() {
        let db = sample_db();
        let s = db.relation("S").unwrap();
        let provs: Vec<bool> = s.tuples().map(|(_, p)| p.is_endogenous()).collect();
        assert_eq!(provs, vec![true, false]);
    }

    #[test]
    fn errors() {
        let mut db = sample_db();
        assert_eq!(
            db.insert_endogenous("T", vec![]).unwrap_err(),
            DbError::UnknownRelation("T".into())
        );
        let err = db.insert_exogenous("R", vec![Value::from(1), Value::from(2)]).unwrap_err();
        assert!(matches!(err, DbError::ArityMismatch { expected: 1, got: 2, .. }));
        assert!(err.to_string().contains("arity mismatch"));
    }

    #[test]
    #[should_panic(expected = "already exists")]
    fn duplicate_relation_panics() {
        let mut db = sample_db();
        db.add_relation("R", 1);
    }

    #[test]
    fn deletion_tombstones_and_keeps_ids_stable() {
        let mut db = sample_db();
        let deleted = db.delete_endogenous(FactId(0)).unwrap();
        assert_eq!(deleted.relation(), "R");
        assert_eq!(db.num_endogenous(), 2);
        assert_eq!(db.relation("R").unwrap().len(), 1);
        assert_eq!(db.fact(FactId(0)), None);
        // Surviving facts keep their ids; the deleted slot is never reused.
        let ids: Vec<FactId> = db.endogenous_facts().map(|(id, _)| id).collect();
        assert_eq!(ids, vec![FactId(1), FactId(2)]);
        let fresh = db.insert_endogenous("R", vec![Value::from(7)]).unwrap();
        assert_eq!(fresh, FactId(3));
        // Deleting twice fails.
        let err = db.delete_endogenous(FactId(0)).unwrap_err();
        assert!(matches!(err, DbError::UnknownFact(_)));
        assert!(err.to_string().contains("unknown endogenous fact"));
    }

    #[test]
    fn indexes_are_built_once_and_maintained_in_place() {
        let mut db = sample_db();
        let s = db.relation("S").unwrap();
        let index = s.index(&[0]);
        assert!(Arc::ptr_eq(&index, &s.index(&[0])), "a second request reuses the index");
        assert!(index.bucket(key_hash([&Value::from(2)])).eq([1]));
        let built = Arc::as_ptr(&index);
        drop(index);
        db.insert_exogenous("S", vec![Value::from(2), Value::from(30)]).unwrap();
        let fact = db.find_endogenous("S", &[Value::from(1), Value::from(10)]).unwrap();
        db.delete_endogenous(fact).unwrap();
        let s = db.relation("S").unwrap();
        let indexes = s.indexes();
        assert_eq!(indexes.len(), 1);
        assert_eq!(Arc::as_ptr(&indexes[0]), built, "updated in place, not rebuilt");
        assert!(indexes[0].bucket(key_hash([&Value::from(2)])).eq([0, 1]));
        assert_eq!(indexes[0].bucket(key_hash([&Value::from(1)])).next(), None);
    }

    #[test]
    fn a_clone_shares_indexes_until_either_side_writes() {
        let db = sample_db();
        let shared = db.relation("S").unwrap().index(&[1]);
        let mut copy = db.clone();
        assert!(Arc::ptr_eq(&shared, &copy.relation("S").unwrap().index(&[1])));
        copy.insert_endogenous("S", vec![Value::from(3), Value::from(20)]).unwrap();
        let twenty = key_hash([&Value::from(20)]);
        assert!(copy.relation("S").unwrap().index(&[1]).bucket(twenty).eq([1, 2]));
        assert!(db.relation("S").unwrap().index(&[1]).bucket(twenty).eq([1]));
        assert!(shared.bucket(twenty).eq([1]));
    }

    #[test]
    fn find_endogenous_skips_exogenous_tuples() {
        let db = sample_db();
        assert_eq!(db.find_endogenous("R", &[Value::from(2)]), Some(FactId(1)));
        assert_eq!(db.find_endogenous("S", &[Value::from(2), Value::from(20)]), None);
        assert_eq!(db.find_endogenous("T", &[]), None);
    }

    #[test]
    fn updates_apply_by_value() {
        let mut db = sample_db();
        let inserted = db.apply_update(&Update::insert("R", vec![Value::from(9)])).unwrap();
        assert_eq!(db.fact(inserted).unwrap().values(), &[Value::from(9)]);
        let removed = db.apply_update(&Update::delete("R", vec![Value::from(9)])).unwrap();
        assert_eq!(removed, inserted);
        assert_eq!(db.fact(inserted), None);
        let err = db.apply_update(&Update::delete("R", vec![Value::from(9)])).unwrap_err();
        assert_eq!(err, DbError::UnknownFact("R(9)".into()));
    }
}
