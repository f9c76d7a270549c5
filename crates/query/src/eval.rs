//! Provenance-aware query evaluation: computing per-answer lineage.
//!
//! Every homomorphism (grounding) of a conjunctive query into the database
//! contributes one clause to the lineage of the answer tuple it produces: the
//! conjunction of the provenance variables of the *endogenous* facts it uses
//! (exogenous facts contribute nothing, missing facts prune the grounding),
//! exactly as defined in Sec. 2 of the paper.
//!
//! Groundings are enumerated by a planned, indexed join. Each call plans each
//! conjunctive query once: its atoms become join steps in most-bound-first
//! order, and every variable gets a dense slot in a binding vector of
//! borrowed database values, so a value is cloned only into an emitted
//! answer tuple. A step records its keyed positions (constants, and variables
//! an earlier step bound), the variables it binds first, and the selections
//! on those variables. A keyed step probes the index its relation keeps on
//! those positions ([`Relation::index`]): built by the first query that needs
//! it and kept by the database across queries and updates. A probe hashes
//! the keyed values with [`key_hash`] and checks every tuple of the bucket
//! again on its keyed values, repeated variables and selections, so a hash
//! collision cannot add a grounding. A step without keyed positions scans its
//! relation. Delta evaluation plans the atom it pins to the inserted tuple
//! first, so every later step is keyed by values the tuple bound.
//!
//! A run writes its groundings into one flat buffer ([`Groundings`]) that
//! every entry point reads, each clause sorted and deduplicated as a lineage
//! holds it. Evaluation groups the groundings into answers by sorting a
//! permutation of them by answer tuple, then sorts each group by clause and
//! copies its distinct clauses straight into the answer's flat [`Dnf`].

use crate::{ConjunctiveQuery, Selection, Term, UnionQuery};
use banzhaf_arith::Rational;
use banzhaf_boolean::{canonicalize_tail, Dnf, Var, WeightedDnf};
use banzhaf_db::{key_hash, Database, FactId, Provenance, Relation, TupleIndex, Value};
use std::fmt;
use std::sync::Arc;

/// One answer tuple with its lineage.
#[derive(Clone, Debug)]
pub struct Answer {
    /// The values of the free variables, in head order (empty for Boolean
    /// queries).
    pub tuple: Vec<Value>,
    /// The lineage: a positive DNF over the provenance variables of the
    /// endogenous facts.
    pub lineage: Dnf,
}

/// The result of evaluating a UCQ over a database.
#[derive(Clone, Debug, Default)]
pub struct QueryResult {
    /// Sorted by tuple, so lookups binary-search.
    answers: Vec<Answer>,
}

impl QueryResult {
    /// The answers, sorted by tuple for determinism.
    pub fn answers(&self) -> &[Answer] {
        &self.answers
    }

    /// Looks up the lineage of a particular answer tuple.
    pub fn lineage_of(&self, tuple: &[Value]) -> Option<&Dnf> {
        let i = self.answers.binary_search_by(|a| a.tuple.as_slice().cmp(tuple)).ok()?;
        Some(&self.answers[i].lineage)
    }

    /// Consumes the result, yielding the owned answers (still sorted by
    /// tuple) without cloning their lineages.
    pub fn into_answers(self) -> Vec<Answer> {
        self.answers
    }

    /// `true` iff the (Boolean) query is satisfied, i.e. there is at least one
    /// answer with at least one grounding.
    pub fn is_satisfied(&self) -> bool {
        self.answers.iter().any(|a| !a.lineage.is_false())
    }
}

/// Evaluates a UCQ over a database, producing one lineage per answer tuple.
///
/// The propositional variable of an endogenous fact with id `f` is `Var(f.0)`,
/// so callers can map lineage variables back to facts via
/// [`Database::fact`](banzhaf_db::Database::fact).
pub fn evaluate(query: &UnionQuery, db: &Database) -> QueryResult {
    let mut out = Groundings::new(&query.disjuncts);
    for cq in &query.disjuncts {
        if let Some(plan) = Plan::new(cq, db, None) {
            plan.run(None, &mut out);
        }
    }
    QueryResult { answers: out.answers() }
}

/// One group of an aggregate query: the grouping-key tuple and the weighted
/// lineage of its aggregate value.
#[derive(Clone, Debug)]
pub struct AggregateAnswer {
    /// The values of the grouping (head) variables, in head order — empty
    /// when the whole result is one group (`Q(COUNT(*)) :- ...`).
    pub tuple: Vec<Value>,
    /// The weighted lineage: one clause per grounding (the endogenous facts
    /// it uses) carrying that grounding's numeric contribution. Groundings
    /// over the same fact set merge kind-aware (`SUM`/`COUNT` add, `MIN`
    /// keeps the least, `MAX` the greatest).
    pub lineage: WeightedDnf,
}

/// The result of aggregate evaluation: one [`AggregateAnswer`] per group.
#[derive(Clone, Debug, Default)]
pub struct AggregateResult {
    /// Sorted by tuple, so lookups binary-search.
    answers: Vec<AggregateAnswer>,
}

impl AggregateResult {
    /// The groups, sorted by grouping tuple for determinism.
    pub fn answers(&self) -> &[AggregateAnswer] {
        &self.answers
    }

    /// Looks up the weighted lineage of a particular group.
    pub fn lineage_of(&self, tuple: &[Value]) -> Option<&WeightedDnf> {
        let i = self.answers.binary_search_by(|a| a.tuple.as_slice().cmp(tuple)).ok()?;
        Some(&self.answers[i].lineage)
    }

    /// Consumes the result, yielding the owned answers (still sorted by
    /// tuple) without cloning their lineages.
    pub fn into_answers(self) -> Vec<AggregateAnswer> {
        self.answers
    }
}

/// Why aggregate evaluation refused a query or database.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum AggregateError {
    /// A disjunct carries no aggregate head term — use [`evaluate`].
    MissingAggregate,
    /// The disjuncts disagree on the aggregate kind.
    MixedAggregates,
    /// A grounding bound the aggregated variable to a non-integer value.
    NonIntegerInput {
        /// The aggregated variable.
        variable: String,
        /// The offending binding.
        value: Value,
    },
    /// A grounding uses only exogenous facts: its contribution would hold in
    /// every world, which the weighted lineage (and the Banzhaf attribution
    /// over it) cannot represent.
    UnconditionalGrounding,
}

impl fmt::Display for AggregateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AggregateError::MissingAggregate => {
                write!(f, "the query has no aggregate head term")
            }
            AggregateError::MixedAggregates => {
                write!(f, "all disjuncts must carry the same aggregate kind")
            }
            AggregateError::NonIntegerInput { variable, value } => {
                write!(f, "aggregated variable {variable} bound to non-integer value {value}")
            }
            AggregateError::UnconditionalGrounding => {
                write!(
                    f,
                    "a grounding uses only exogenous facts; its contribution is unconditional"
                )
            }
        }
    }
}

impl std::error::Error for AggregateError {}

/// Evaluates an aggregate UCQ, producing one [`WeightedDnf`] lineage per
/// group of the head variables.
///
/// Every grounding contributes one weighted clause to its group: the clause
/// is the conjunction of the endogenous facts the grounding uses (exactly as
/// in [`evaluate`]) and the weight is the grounding's numeric contribution —
/// `1` for `COUNT(*)`, the binding of the aggregated variable for
/// `SUM`/`MIN`/`MAX`. The possible-world value of the group's aggregate is
/// then the lineage's [`WeightedDnf::evaluate`] and exact attribution runs
/// over it via the engine's aggregate backends.
///
/// # Errors
/// Rejects queries without an aggregate (or with disagreeing kinds across
/// disjuncts), groundings that bind the aggregated variable to a string, and
/// groundings using only exogenous facts (their contribution would be
/// unconditional, which a weighted lineage cannot represent).
pub fn evaluate_aggregate(
    query: &UnionQuery,
    db: &Database,
) -> Result<AggregateResult, AggregateError> {
    let specs = query
        .disjuncts
        .iter()
        .map(|cq| cq.aggregate.as_ref().ok_or(AggregateError::MissingAggregate))
        .collect::<Result<Vec<_>, _>>()?;
    let kind = specs.first().ok_or(AggregateError::MissingAggregate)?.kind;
    if specs.iter().any(|s| s.kind != kind) {
        return Err(AggregateError::MixedAggregates);
    }
    // Reuse the Boolean grounding enumeration unchanged: appending the
    // aggregated variable to the head makes every grounding surface its
    // binding after the head, where it is read off and cleared below.
    let probes: Vec<ConjunctiveQuery> = query
        .disjuncts
        .iter()
        .zip(&specs)
        .map(|(cq, spec)| {
            let mut probe = cq.clone();
            probe.head.extend(spec.input.clone());
            probe
        })
        .collect();
    let mut out = Groundings::new(&probes);
    let mut weights = Vec::new();
    for ((cq, probe), spec) in query.disjuncts.iter().zip(&probes).zip(specs) {
        let from = out.len();
        if let Some(plan) = Plan::new(probe, db, None) {
            plan.run(None, &mut out);
        }
        for i in from..out.len() {
            let weight = match &spec.input {
                Some(variable) => {
                    let value = out.heads[i * out.stride + cq.head.len()]
                        .take()
                        .expect("the probe head appends the aggregated variable");
                    match value.as_int() {
                        Some(v) => Rational::from(v),
                        None => {
                            return Err(AggregateError::NonIntegerInput {
                                variable: variable.clone(),
                                value: value.clone(),
                            })
                        }
                    }
                }
                None => Rational::one(),
            };
            if out.clause(i as u32).is_empty() {
                return Err(AggregateError::UnconditionalGrounding);
            }
            weights.push(weight);
        }
    }
    let answers = out.map_groups(|tuple, group| {
        let pairs =
            group.iter().map(|&i| (out.clause(i).iter().copied(), weights[i as usize].clone()));
        AggregateAnswer { tuple, lineage: WeightedDnf::from_weighted_clauses(kind, pairs) }
    });
    Ok(AggregateResult { answers })
}

/// The lineage a single endogenous fact adds to each answer: every
/// homomorphism of `query` into `db` that uses the fact identified by `id` in
/// at least one atom, grouped into one [`Answer`] per answer tuple (in tuple
/// order) whose lineage is the disjunction of those groundings' clauses.
/// `db` must already contain the fact; an unknown or deleted id yields no
/// answers.
///
/// This is the delta rule of incremental view maintenance specialised to one
/// inserted fact: for each disjunct and each atom position whose relation
/// matches, the planned join re-runs with that position *pinned* to the new
/// tuple while every other atom ranges over the full (already updated)
/// database. A grounding that uses the new fact at `k` atom positions is
/// found `k` times; the canonical DNF form keeps its clause once.
pub fn delta_groundings(query: &UnionQuery, db: &Database, id: FactId) -> Vec<Answer> {
    let Some(fact) = db.fact(id) else {
        return Vec::new();
    };
    let mut out = Groundings::new(&query.disjuncts);
    let pin = Pin { values: fact.values(), provenance: Provenance::Endogenous(id) };
    for cq in &query.disjuncts {
        // One plan per atom over the fact's relation, led by that atom. A
        // plan exists for every such atom or for none, and when it exists the
        // atom's arity is its relation's, which is the fact's.
        for (atom, _) in cq.atoms.iter().enumerate().filter(|(_, a)| a.relation == fact.relation())
        {
            let Some(plan) = Plan::new(cq, db, Some(atom)) else {
                break;
            };
            plan.run(Some(pin), &mut out);
        }
    }
    out.answers()
}

/// The join order of `cq`'s atoms, led by `first` if given.
fn atom_order(cq: &ConjunctiveQuery, first: Option<usize>) -> Vec<usize> {
    let n = cq.atoms.len();
    let mut remaining: Vec<usize> = (0..n).collect();
    let mut chosen: Vec<usize> = Vec::with_capacity(n);
    let mut bound_vars: Vec<&str> = Vec::new();
    if let Some(first) = first {
        remaining.retain(|&i| i != first);
        chosen.push(first);
        bound_vars.extend(cq.atoms[first].variables());
    }
    while !remaining.is_empty() {
        // Pick the remaining atom with the most variables already bound
        // (ties: fewest unbound variables, then original order).
        let (pos, &idx) = remaining
            .iter()
            .enumerate()
            .max_by_key(|(_, &idx)| {
                let atom = &cq.atoms[idx];
                let bound = atom.variables().filter(|v| bound_vars.contains(v)).count();
                let unbound = atom.variables().count() - bound;
                (bound, usize::MAX - unbound)
            })
            .expect("remaining is non-empty");
        chosen.push(idx);
        for v in cq.atoms[idx].variables() {
            if !bound_vars.contains(&v) {
                bound_vars.push(v);
            }
        }
        remaining.remove(pos);
    }
    chosen
}

/// A tuple of a relation together with its provenance tag.
type Tuple<'d> = (&'d [Value], Provenance);

/// The groundings of a run, in one flat buffer: grounding `i`'s answer tuple
/// is `heads[i * stride..][..stride]` and its clause of endogenous
/// provenance variables, sorted and deduplicated as a lineage holds it,
/// `vars[ends[i - 1]..ends[i]]` (from 0 for `i = 0`).
struct Groundings<'d> {
    /// The longest head of the disjuncts run into the buffer; a shorter head
    /// (only in a hand-built union of mixed arities) is padded with `None`,
    /// which orders it before every longer head it is a prefix of, as
    /// tuples order.
    stride: usize,
    /// Head values borrowed from the database.
    heads: Vec<Option<&'d Value>>,
    vars: Vec<Var>,
    ends: Vec<usize>,
}

impl<'d> Groundings<'d> {
    /// An empty buffer for the groundings of `disjuncts`.
    fn new(disjuncts: &[ConjunctiveQuery]) -> Self {
        let stride = disjuncts.iter().map(|cq| cq.head.len()).max().unwrap_or(0);
        Groundings { stride, heads: Vec::new(), vars: Vec::new(), ends: Vec::new() }
    }

    fn len(&self) -> usize {
        self.ends.len()
    }

    fn head(&self, i: u32) -> &[Option<&'d Value>] {
        &self.heads[i as usize * self.stride..][..self.stride]
    }

    /// Grounding `i`'s answer tuple, cloned out of the database.
    fn tuple(&self, i: u32) -> Vec<Value> {
        self.head(i).iter().flatten().map(|&v| v.clone()).collect()
    }

    fn clause(&self, i: u32) -> &[Var] {
        let i = i as usize;
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        &self.vars[start..self.ends[i]]
    }

    /// Maps each group of groundings sharing an answer tuple, in tuple
    /// order, to `f(tuple, indexes of the group's groundings)`; `f` may
    /// reorder the indexes.
    fn map_groups<T>(&self, mut f: impl FnMut(Vec<Value>, &mut [u32]) -> T) -> Vec<T> {
        let mut order: Vec<u32> = (0..self.len() as u32).collect();
        // Heads of at most two integers, the common case, sort as one packed
        // key each rather than through references into the database.
        let packed: Option<Vec<u128>> = (self.stride <= 2)
            .then(|| order.iter().map(|&i| pack(self.head(i))).collect())
            .flatten();
        let groups = match &packed {
            Some(keys) => sorted_runs(&mut order, |i| keys[i as usize]),
            None => sorted_runs(&mut order, |i| self.head(i)),
        };
        groups.into_iter().map(|group| f(self.tuple(group[0]), group)).collect()
    }

    /// One [`Answer`] per group of groundings sharing an answer tuple, in
    /// tuple order.
    fn answers(&self) -> Vec<Answer> {
        self.map_groups(|tuple, group| Answer { tuple, lineage: self.lineage(group) })
    }

    /// The lineage of one group: its distinct clauses sorted into canonical
    /// order by permuting `group`, then copied straight out of the buffer,
    /// so the lineage's variable buffer, clause ends and universe are one
    /// exactly sized allocation each.
    fn lineage(&self, group: &mut [u32]) -> Dnf {
        group.sort_unstable_by(|&a, &b| self.clause(a).cmp(self.clause(b)));
        let mut distinct = 0;
        for k in 0..group.len() {
            if distinct == 0 || self.clause(group[k]) != self.clause(group[distinct - 1]) {
                group[distinct] = group[k];
                distinct += 1;
            }
        }
        Dnf::from_clause_slices(group[..distinct].iter().map(|&i| self.clause(i)))
    }
}

/// Sorts `order` by `key` and splits it into runs of equal keys. The keys
/// are computed once and sorted alongside the indexes.
fn sorted_runs<K: Ord>(order: &mut [u32], key: impl Fn(u32) -> K) -> Vec<&mut [u32]> {
    let mut keyed: Vec<(K, u32)> = order.iter().map(|&i| (key(i), i)).collect();
    keyed.sort_unstable();
    for (slot, (_, i)) in order.iter_mut().zip(&keyed) {
        *slot = *i;
    }
    let mut runs = Vec::new();
    let mut rest = order;
    for run in keyed.chunk_by(|a, b| a.0 == b.0) {
        let (head, tail) = rest.split_at_mut(run.len());
        runs.push(head);
        rest = tail;
    }
    runs
}

/// A head of at most two integers as one key that orders as the head does
/// (`None` when some value is not an integer): each integer with its sign
/// bit flipped, the first in the high half.
fn pack(head: &[Option<&Value>]) -> Option<u128> {
    head.iter().try_fold(0u128, |key, v| {
        let int = v.and_then(Value::as_int)?;
        Some(key << 64 | u128::from(int as u64 ^ (1 << 63)))
    })
}

/// A conjunctive query planned against one database: its atoms as join
/// steps in [`atom_order`], with every variable resolved to a dense slot of
/// the binding vector.
struct Plan<'q, 'd> {
    steps: Vec<Step<'q, 'd>>,
    /// The slot of each head variable (`None` only for a hand-built query
    /// whose head variable no atom binds; the parser rejects those).
    head: Vec<Option<usize>>,
    /// The number of distinct variables.
    slots: usize,
}

/// Where a keyed position's value comes from.
#[derive(Clone, Copy)]
enum Key<'q> {
    /// A constant of the atom.
    Constant(&'q Value),
    /// The slot of a variable an earlier step bound.
    Slot(usize),
}

/// One atom of a [`Plan`]: where its candidate tuples come from, what they
/// must match, and which slots they bind.
struct Step<'q, 'd> {
    relation: &'d Relation,
    /// The keyed positions, ascending: constants and variables an earlier
    /// step bound.
    key: Vec<(usize, Key<'q>)>,
    /// Positions repeating a variable of this atom: `(position, first
    /// occurrence)`.
    repeats: Vec<(usize, usize)>,
    /// Positions of variables this step binds first: `(position, slot)`.
    binds: Vec<(usize, usize)>,
    /// Selections on the variables this step binds: `(position, selection)`.
    selections: Vec<(usize, &'q Selection)>,
    /// The relation's index on the keyed positions; `None` when there are
    /// none (the step scans) and for a delta plan's pinned first step.
    index: Option<Arc<TupleIndex>>,
}

/// The inserted tuple a delta plan's first step matches, and nothing else.
#[derive(Clone, Copy)]
struct Pin<'d> {
    values: &'d [Value],
    provenance: Provenance,
}

impl<'q, 'd> Plan<'q, 'd> {
    /// Plans `cq` over `db`, its join led by atom `first` if given, or
    /// returns `None` when `cq` has no grounding at all: an atom names an
    /// unknown relation or disagrees with its arity (no tuple can match it),
    /// or a selection constrains a variable no atom binds.
    fn new(cq: &'q ConjunctiveQuery, db: &'d Database, first: Option<usize>) -> Option<Self> {
        // Slot → (variable name, binding step).
        let mut slots: Vec<(&'q str, usize)> = Vec::new();
        let mut steps = Vec::with_capacity(cq.atoms.len());
        for atom_index in atom_order(cq, first) {
            let atom = &cq.atoms[atom_index];
            let relation = db.relation(&atom.relation).filter(|r| r.arity() == atom.terms.len())?;
            let mut step = Step {
                relation,
                key: Vec::new(),
                repeats: Vec::new(),
                binds: Vec::new(),
                selections: Vec::new(),
                index: None,
            };
            for (pos, term) in atom.terms.iter().enumerate() {
                let name = match term {
                    Term::Constant(c) => {
                        step.key.push((pos, Key::Constant(c)));
                        continue;
                    }
                    Term::Variable(name) => name.as_str(),
                };
                if let Some(first) = atom.terms[..pos].iter().position(|t| t == term) {
                    step.repeats.push((pos, first));
                } else if let Some(slot) = slots.iter().position(|&(n, _)| n == name) {
                    step.key.push((pos, Key::Slot(slot)));
                } else {
                    step.binds.push((pos, slots.len()));
                    slots.push((name, steps.len()));
                }
            }
            let pinned = first.is_some() && steps.is_empty();
            if !step.key.is_empty() && !pinned {
                let positions: Vec<usize> = step.key.iter().map(|&(pos, _)| pos).collect();
                step.index = Some(relation.index(&positions));
            }
            steps.push(step);
        }
        for selection in &cq.selections {
            let slot = slots.iter().position(|&(n, _)| n == selection.variable)?;
            let step: &mut Step = &mut steps[slots[slot].1];
            let pos =
                step.binds.iter().find(|&&(_, s)| s == slot).expect("the step binds the slot").0;
            step.selections.push((pos, selection));
        }
        let head =
            cq.head.iter().map(|v| slots.iter().position(|&(n, _)| n == v.as_str())).collect();
        Some(Plan { steps, head, slots: slots.len() })
    }

    /// Appends every grounding of the plan (with the first step matching
    /// only `pin`'s tuple, if given) to `out`.
    fn run(&self, pin: Option<Pin<'d>>, out: &mut Groundings<'d>) {
        let mut run =
            Run { plan: self, pin, bindings: vec![None; self.slots], clause: Vec::new(), out };
        run.descend(0);
    }
}

impl<'d> Step<'_, 'd> {
    /// `true` iff `values` carries the step's keyed values (constants and
    /// the `bindings` of keyed variables), repeats its repeated variables
    /// and passes its selections.
    fn admits(&self, values: &[Value], bindings: &[Option<&'d Value>]) -> bool {
        self.key.iter().all(|&(pos, key)| values[pos] == *key.value(bindings))
            && self.repeats.iter().all(|&(pos, first)| values[pos] == values[first])
            && self
                .selections
                .iter()
                .all(|&(pos, s)| s.comparison.evaluate(&values[pos], &s.constant))
    }
}

impl<'q> Key<'q> {
    fn value<'v>(self, bindings: &[Option<&'v Value>]) -> &'v Value
    where
        'q: 'v,
    {
        match self {
            Key::Constant(c) => c,
            Key::Slot(s) => bindings[s].expect("an earlier step bound it"),
        }
    }
}

/// The mutable state of one run of a [`Plan`].
struct Run<'p, 'q, 'd> {
    plan: &'p Plan<'q, 'd>,
    pin: Option<Pin<'d>>,
    /// Slot → the value bound to it, borrowed from the database.
    bindings: Vec<Option<&'d Value>>,
    /// The endogenous facts used by the current partial grounding.
    clause: Vec<Var>,
    out: &'p mut Groundings<'d>,
}

impl<'d> Run<'_, '_, 'd> {
    fn descend(&mut self, depth: usize) {
        let plan = self.plan;
        let Some(step) = plan.steps.get(depth) else {
            let out = &mut *self.out;
            let bindings = &self.bindings;
            out.heads.extend(plan.head.iter().map(|slot| {
                Some(slot.and_then(|s| bindings[s]).expect("head variable bound by parser check"))
            }));
            out.heads.resize(out.len() * out.stride + out.stride, None);
            let start = out.vars.len();
            out.vars.extend_from_slice(&self.clause);
            canonicalize_tail(&mut out.vars, start);
            out.ends.push(out.vars.len());
            return;
        };
        if let Some(pin) = self.pin.filter(|_| depth == 0) {
            if step.admits(pin.values, &self.bindings) {
                self.extend(depth, (pin.values, pin.provenance));
            }
        } else if let Some(index) = &step.index {
            let bindings = &self.bindings;
            let hash = key_hash(step.key.iter().map(|&(_, key)| key.value(bindings)));
            for at in index.bucket(hash) {
                let tuple = step.relation.tuple(at);
                if step.admits(tuple.0, &self.bindings) {
                    self.extend(depth, tuple);
                }
            }
        } else {
            for tuple in step.relation.tuples() {
                if step.admits(tuple.0, &self.bindings) {
                    self.extend(depth, tuple);
                }
            }
        }
    }

    /// Extends the partial grounding by a tuple the step at `depth` admits:
    /// binds the step's new slots, records the tuple's provenance variable
    /// and descends.
    fn extend(&mut self, depth: usize, (values, provenance): Tuple<'d>) {
        let step = &self.plan.steps[depth];
        for &(pos, slot) in &step.binds {
            self.bindings[slot] = Some(&values[pos]);
        }
        match provenance {
            Provenance::Endogenous(id) => {
                self.clause.push(Var(id.0));
                self.descend(depth + 1);
                self.clause.pop();
            }
            Provenance::Exogenous => self.descend(depth + 1),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_program;
    use std::collections::HashMap;

    /// The database of Example 6 of the paper.
    fn example6_db() -> Database {
        let mut db = Database::new();
        db.add_relation("R", 3);
        db.add_relation("S", 3);
        db.add_relation("T", 2);
        db.insert_endogenous("R", vec![1.into(), 2.into(), 3.into()]).unwrap();
        db.insert_endogenous("S", vec![1.into(), 2.into(), 4.into()]).unwrap();
        db.insert_endogenous("S", vec![1.into(), 2.into(), 5.into()]).unwrap();
        db.insert_endogenous("T", vec![1.into(), 6.into()]).unwrap();
        db
    }

    #[test]
    fn example_6_lineage() {
        let db = example6_db();
        let q = parse_program("Q() :- R(X, Y, Z), S(X, Y, V), T(X, U).").unwrap();
        let result = evaluate(&q, &db);
        assert_eq!(result.answers().len(), 1);
        assert!(result.is_satisfied());
        let lineage = &result.answers()[0].lineage;
        // Two groundings → two clauses of three facts each, 4 variables total.
        assert_eq!(lineage.num_clauses(), 2);
        assert_eq!(lineage.num_vars(), 4);
        assert_eq!(lineage.brute_force_model_count().to_u64(), Some(3));
    }

    #[test]
    fn exogenous_facts_do_not_appear_in_lineage() {
        let mut db = Database::new();
        db.add_relation("R", 1);
        db.add_relation("S", 2);
        db.insert_endogenous("R", vec![1.into()]).unwrap();
        db.insert_exogenous("S", vec![1.into(), 2.into()]).unwrap();
        let q = parse_program("Q() :- R(X), S(X, Y).").unwrap();
        let result = evaluate(&q, &db);
        assert_eq!(result.answers().len(), 1);
        let lineage = &result.answers()[0].lineage;
        assert_eq!(lineage.num_vars(), 1);
        assert_eq!(lineage.num_clauses(), 1);
    }

    #[test]
    fn unsatisfied_boolean_query_has_no_answers() {
        let mut db = Database::new();
        db.add_relation("R", 1);
        db.add_relation("S", 2);
        db.insert_endogenous("R", vec![1.into()]).unwrap();
        // No S facts join with R(1).
        db.insert_endogenous("S", vec![7.into(), 2.into()]).unwrap();
        let q = parse_program("Q() :- R(X), S(X, Y).").unwrap();
        let result = evaluate(&q, &db);
        assert!(result.answers().is_empty());
        assert!(!result.is_satisfied());
    }

    #[test]
    fn free_variables_group_lineage_per_answer() {
        let mut db = Database::new();
        db.add_relation("R", 2);
        db.add_relation("S", 2);
        db.insert_endogenous("R", vec![1.into(), 10.into()]).unwrap();
        db.insert_endogenous("R", vec![1.into(), 20.into()]).unwrap();
        db.insert_endogenous("R", vec![2.into(), 30.into()]).unwrap();
        db.insert_endogenous("S", vec![10.into(), 1.into()]).unwrap();
        db.insert_endogenous("S", vec![20.into(), 1.into()]).unwrap();
        db.insert_endogenous("S", vec![30.into(), 1.into()]).unwrap();
        let q = parse_program("Q(X) :- R(X, Y), S(Y, Z).").unwrap();
        let result = evaluate(&q, &db);
        assert_eq!(result.answers().len(), 2);
        let lineage1 = result.lineage_of(&[Value::from(1)]).unwrap();
        let lineage2 = result.lineage_of(&[Value::from(2)]).unwrap();
        assert_eq!(lineage1.num_clauses(), 2);
        assert_eq!(lineage2.num_clauses(), 1);
        assert!(result.lineage_of(&[Value::from(3)]).is_none());
    }

    #[test]
    fn selections_filter_groundings() {
        let mut db = Database::new();
        db.add_relation("R", 2);
        for (a, b) in [(1, 5), (1, 15), (2, 25)] {
            db.insert_endogenous("R", vec![a.into(), b.into()]).unwrap();
        }
        let q = parse_program("Q(X) :- R(X, Y), Y > 10.").unwrap();
        let result = evaluate(&q, &db);
        assert_eq!(result.answers().len(), 2);
        assert_eq!(result.lineage_of(&[Value::from(1)]).unwrap().num_clauses(), 1);
        // String selections work too.
        let mut db2 = Database::new();
        db2.add_relation("P", 2);
        db2.insert_endogenous("P", vec![1.into(), "alice".into()]).unwrap();
        db2.insert_endogenous("P", vec![2.into(), "bob".into()]).unwrap();
        let q2 = parse_program("Q(X) :- P(X, N), N = 'alice'.").unwrap();
        assert_eq!(evaluate(&q2, &db2).answers().len(), 1);
    }

    #[test]
    fn constants_in_atoms_restrict_matches() {
        let mut db = Database::new();
        db.add_relation("R", 2);
        db.insert_endogenous("R", vec![1.into(), 2.into()]).unwrap();
        db.insert_endogenous("R", vec![3.into(), 4.into()]).unwrap();
        let q = parse_program("Q(Y) :- R(1, Y).").unwrap();
        let result = evaluate(&q, &db);
        assert_eq!(result.answers().len(), 1);
        assert_eq!(result.answers()[0].tuple, vec![Value::from(2)]);
    }

    #[test]
    fn packed_heads_order_as_their_tuples() {
        let values: Vec<Value> =
            [i64::MIN, -5, -1, 0, 1, 7, i64::MAX].into_iter().map(Value::from).collect();
        let heads: Vec<[&Value; 2]> =
            values.iter().flat_map(|a| values.iter().map(move |b| [a, b])).collect();
        let pack2 = |h: &[&Value; 2]| pack(&[Some(h[0]), Some(h[1])]).unwrap();
        for x in &heads {
            assert_eq!(pack(&[Some(x[0])]).cmp(&pack(&[Some(x[1])])), x[0].cmp(x[1]));
            for y in &heads {
                assert_eq!(pack2(x).cmp(&pack2(y)), x.cmp(y), "{x:?} against {y:?}");
            }
        }
        assert_eq!(pack(&[]), Some(0));
        assert_eq!(pack(&[Some(&Value::from("a"))]), None);
        assert_eq!(pack(&[Some(&Value::from(1)), None]), None);
    }

    #[test]
    fn union_queries_merge_clauses() {
        let mut db = Database::new();
        db.add_relation("R", 1);
        db.add_relation("S", 1);
        db.insert_endogenous("R", vec![1.into()]).unwrap();
        db.insert_endogenous("S", vec![1.into()]).unwrap();
        let q = parse_program("Q(X) :- R(X). Q(X) :- S(X).").unwrap();
        let result = evaluate(&q, &db);
        assert_eq!(result.answers().len(), 1);
        let lineage = result.lineage_of(&[Value::from(1)]).unwrap();
        assert_eq!(lineage.num_clauses(), 2);
        assert_eq!(lineage.num_vars(), 2);
    }

    /// Merges `before`'s per-answer clauses with the delta groundings and
    /// checks the result is identical to a fresh evaluation of the updated
    /// database.
    fn assert_delta_matches(query: &UnionQuery, before: &QueryResult, db: &Database, id: FactId) {
        let after = evaluate(query, db);
        let mut merged: HashMap<Vec<Value>, Vec<Vec<Var>>> = HashMap::new();
        for answer in before.answers() {
            let clauses =
                answer.lineage.clauses().iter().map(|c| c.iter().collect()).collect::<Vec<_>>();
            merged.insert(answer.tuple.clone(), clauses);
        }
        let delta = delta_groundings(query, db, id);
        assert!(!delta.is_empty(), "the inserted fact must contribute groundings");
        for answer in delta {
            for clause in answer.lineage.clauses() {
                assert!(clause.contains(Var(id.0)), "every delta clause uses the new fact");
                merged.entry(answer.tuple.clone()).or_default().push(clause.iter().collect());
            }
        }
        assert_eq!(merged.len(), after.answers().len());
        for (tuple, clauses) in merged {
            let lineage = Dnf::from_clauses(clauses);
            assert_eq!(Some(&lineage), after.lineage_of(&tuple), "answer {tuple:?}");
        }
    }

    #[test]
    fn delta_groundings_reconstruct_full_evaluation_after_insert() {
        let mut db = Database::new();
        db.add_relation("R", 2);
        db.add_relation("S", 2);
        for (a, b) in [(1, 10), (1, 20), (2, 30)] {
            db.insert_endogenous("R", vec![a.into(), b.into()]).unwrap();
        }
        for (b, c) in [(10, 1), (30, 1)] {
            db.insert_endogenous("S", vec![b.into(), c.into()]).unwrap();
        }
        let q = parse_program("Q(X) :- R(X, Y), S(Y, Z).").unwrap();
        let before = evaluate(&q, &db);
        // The new S fact joins with the existing R(1, 20) and creates a new
        // clause for the existing answer 1.
        let id = db.insert_endogenous("S", vec![20.into(), 2.into()]).unwrap();
        assert_delta_matches(&q, &before, &db, id);
        // A new R fact creates a brand-new answer tuple.
        let before = evaluate(&q, &db);
        let id = db.insert_endogenous("R", vec![7.into(), 30.into()]).unwrap();
        assert_delta_matches(&q, &before, &db, id);
    }

    #[test]
    fn delta_groundings_pin_every_self_join_position() {
        let mut db = Database::new();
        db.add_relation("E", 2);
        db.insert_endogenous("E", vec![1.into(), 2.into()]).unwrap();
        let q = parse_program("Q() :- E(X, Y), E(Y, Z).").unwrap();
        let before = evaluate(&q, &db);
        assert!(before.answers().is_empty());
        // E(2, 2) matches both atom positions (joined with E(1,2) and with
        // itself), so the pinned search finds the self-loop grounding at both
        // pins; the canonical DNF form absorbs the duplicate.
        let id = db.insert_endogenous("E", vec![2.into(), 2.into()]).unwrap();
        assert_delta_matches(&q, &before, &db, id);
    }

    #[test]
    fn a_delta_plan_leads_with_its_pinned_atom_and_probes_indexes_kept_across_updates() {
        let mut db = Database::new();
        db.add_relation("R", 2);
        db.add_relation("S", 2);
        let mut r = Vec::new();
        for (a, b) in [(1, 10), (2, 10), (3, 20)] {
            r.push(db.insert_endogenous("R", vec![a.into(), b.into()]).unwrap());
        }
        let id = db.insert_endogenous("S", vec![10.into(), 7.into()]).unwrap();
        db.insert_endogenous("S", vec![20.into(), 8.into()]).unwrap();
        let q = parse_program("Q(A) :- R(A, B), S(B, C).").unwrap();
        let cq = &q.disjuncts[0];
        let answers = |db: &Database| -> Vec<(Vec<Value>, usize)> {
            let result = evaluate(&q, db);
            result.answers().iter().map(|a| (a.tuple.clone(), a.lineage.num_clauses())).collect()
        };
        let r_indexes = |db: &Database| db.relation("R").unwrap().indexes();

        // A full evaluation scans S and probes R by B through an index the
        // relation keeps; the next evaluation reuses it.
        assert!(r_indexes(&db).is_empty());
        let one_each = vec![(vec![1.into()], 1), (vec![2.into()], 1), (vec![3.into()], 1)];
        assert_eq!(answers(&db), one_each);
        let built = r_indexes(&db);
        assert_eq!(built.len(), 1);
        assert_eq!(built[0].positions(), &[1]);
        assert_eq!(answers(&db), one_each);
        let again = r_indexes(&db);
        assert!(again.len() == 1 && Arc::ptr_eq(&built[0], &again[0]), "reused, not rebuilt");

        // Pinned to S(10, 7): S leads, unindexed, and R is probed through
        // the same index.
        assert_eq!(atom_order(cq, Some(1)), vec![1, 0]);
        let plan = Plan::new(cq, &db, Some(1)).unwrap();
        assert!(plan.steps[0].index.is_none(), "the pinned step matches one tuple");
        assert!(Arc::ptr_eq(plan.steps[1].index.as_ref().unwrap(), &built[0]));
        let fact = db.fact(id).unwrap();
        let pin = Pin { values: fact.values(), provenance: Provenance::Endogenous(id) };
        let mut out = Groundings::new(&q.disjuncts);
        plan.run(Some(pin), &mut out);
        assert_eq!(out.len(), 2);
        let index = Arc::as_ptr(&built[0]);
        drop((plan, built, again));

        // An insert and a delete update that index in place.
        let ten = key_hash([&Value::from(10)]);
        db.insert_endogenous("R", vec![4.into(), 10.into()]).unwrap();
        let kept = r_indexes(&db);
        assert_eq!(Arc::as_ptr(&kept[0]), index, "an insert updates the index in place");
        assert!(kept[0].bucket(ten).eq([0, 1, 3]));
        drop(kept);
        let mut four = one_each.clone();
        four.push((vec![4.into()], 1));
        assert_eq!(answers(&db), four);
        db.delete_endogenous(r[0]).unwrap();
        let kept = r_indexes(&db);
        assert_eq!(Arc::as_ptr(&kept[0]), index, "a delete updates the index in place");
        assert!(kept[0].bucket(ten).eq([0, 2]), "the later positions shift down");
        drop(kept);
        assert_eq!(answers(&db), four[1..]);
    }

    #[test]
    fn delta_groundings_of_unrelated_or_missing_facts_are_empty() {
        let mut db = Database::new();
        db.add_relation("R", 1);
        db.add_relation("T", 1);
        db.insert_endogenous("R", vec![1.into()]).unwrap();
        let q = parse_program("Q(X) :- R(X).").unwrap();
        // A fact in a relation the query never mentions contributes nothing.
        let id = db.insert_endogenous("T", vec![1.into()]).unwrap();
        assert!(delta_groundings(&q, &db, id).is_empty());
        // A deleted or unknown id contributes nothing.
        db.delete_endogenous(id).unwrap();
        assert!(delta_groundings(&q, &db, id).is_empty());
        assert!(delta_groundings(&q, &db, FactId(99)).is_empty());
    }

    #[test]
    fn sum_aggregate_weights_groundings_by_their_binding() {
        let mut db = Database::new();
        db.add_relation("Supp", 2); // (supplier, nation)
        db.add_relation("Item", 3); // (supplier, part, revenue)
        db.insert_endogenous("Supp", vec![1.into(), 10.into()]).unwrap();
        db.insert_endogenous("Supp", vec![2.into(), 10.into()]).unwrap();
        db.insert_endogenous("Item", vec![1.into(), 100.into(), 7.into()]).unwrap();
        db.insert_endogenous("Item", vec![1.into(), 101.into(), 5.into()]).unwrap();
        db.insert_endogenous("Item", vec![2.into(), 100.into(), 11.into()]).unwrap();
        let q = parse_program("Q(N, SUM(V)) :- Supp(S, N), Item(S, P, V).").unwrap();
        let result = evaluate_aggregate(&q, &db).unwrap();
        assert_eq!(result.answers().len(), 1);
        let lineage = result.lineage_of(&[Value::from(10)]).unwrap();
        assert_eq!(lineage.kind(), banzhaf_boolean::AggregateKind::Sum);
        assert_eq!(lineage.num_clauses(), 3);
        // Each clause is {supplier fact, item fact} weighted by the revenue.
        let mut weights: Vec<Rational> = lineage.weights().to_vec();
        weights.sort();
        assert_eq!(
            weights,
            vec![Rational::from(5i64), Rational::from(7i64), Rational::from(11i64)]
        );
        // In the all-facts world the SUM is the plain SQL answer.
        let world = banzhaf_boolean::Assignment::from_true_vars(lineage.universe().iter());
        assert_eq!(lineage.evaluate(&world), Rational::from(23i64));
    }

    #[test]
    fn count_star_groups_by_head_variables() {
        let mut db = Database::new();
        db.add_relation("R", 2);
        for (a, b) in [(1, 10), (1, 20), (2, 30)] {
            db.insert_endogenous("R", vec![a.into(), b.into()]).unwrap();
        }
        let q = parse_program("Q(X, COUNT(*)) :- R(X, Y).").unwrap();
        let result = evaluate_aggregate(&q, &db).unwrap();
        assert_eq!(result.answers().len(), 2);
        assert_eq!(result.lineage_of(&[Value::from(1)]).unwrap().num_clauses(), 2);
        assert_eq!(result.lineage_of(&[Value::from(2)]).unwrap().num_clauses(), 1);
        // COUNT clauses all weigh 1.
        let lineage = result.lineage_of(&[Value::from(1)]).unwrap();
        assert!(lineage.weights().iter().all(|w| *w == Rational::one()));
    }

    #[test]
    fn duplicate_fact_sets_merge_kind_aware() {
        // Two groundings over the same endogenous fact: the exogenous side
        // varies, so the clauses coincide and must merge per the kind.
        let mut db = Database::new();
        db.add_relation("R", 1);
        db.add_relation("S", 2);
        db.insert_endogenous("R", vec![1.into()]).unwrap();
        db.insert_exogenous("S", vec![1.into(), 4.into()]).unwrap();
        db.insert_exogenous("S", vec![1.into(), 9.into()]).unwrap();
        let sum = parse_program("Q(SUM(V)) :- R(X), S(X, V).").unwrap();
        let result = evaluate_aggregate(&sum, &db).unwrap();
        let lineage = result.lineage_of(&[]).unwrap();
        assert_eq!(lineage.num_clauses(), 1);
        assert_eq!(lineage.weights(), &[Rational::from(13i64)]);
        let max = parse_program("Q(MAX(V)) :- R(X), S(X, V).").unwrap();
        let lineage = evaluate_aggregate(&max, &db).unwrap().into_answers().remove(0).lineage;
        assert_eq!(lineage.weights(), &[Rational::from(9i64)]);
        let min = parse_program("Q(MIN(V)) :- R(X), S(X, V).").unwrap();
        let lineage = evaluate_aggregate(&min, &db).unwrap().into_answers().remove(0).lineage;
        assert_eq!(lineage.weights(), &[Rational::from(4i64)]);
    }

    #[test]
    fn aggregate_evaluation_rejects_unsupported_inputs() {
        let mut db = Database::new();
        db.add_relation("R", 2);
        db.insert_endogenous("R", vec![1.into(), "oops".into()]).unwrap();
        let q = parse_program("Q(SUM(V)) :- R(X, V).").unwrap();
        assert!(matches!(evaluate_aggregate(&q, &db), Err(AggregateError::NonIntegerInput { .. })));
        // A grounding over exogenous facts only cannot be represented.
        let mut db2 = Database::new();
        db2.add_relation("R", 2);
        db2.insert_exogenous("R", vec![1.into(), 5.into()]).unwrap();
        let q2 = parse_program("Q(SUM(V)) :- R(X, V).").unwrap();
        assert_eq!(
            evaluate_aggregate(&q2, &db2).unwrap_err(),
            AggregateError::UnconditionalGrounding
        );
        // A plain Boolean query has no aggregate to evaluate.
        let q3 = parse_program("Q(X) :- R(X, V).").unwrap();
        assert_eq!(evaluate_aggregate(&q3, &db2).unwrap_err(), AggregateError::MissingAggregate);
        // Disagreeing kinds (buildable only programmatically — the parser
        // rejects them) are refused too.
        let mut mixed = parse_program("Q(SUM(V)) :- R(X, V).").unwrap();
        let mut second = mixed.disjuncts[0].clone();
        second.aggregate = Some(crate::AggregateSpec {
            kind: banzhaf_boolean::AggregateKind::Max,
            input: Some("V".into()),
        });
        mixed.disjuncts.push(second);
        assert_eq!(evaluate_aggregate(&mixed, &db2).unwrap_err(), AggregateError::MixedAggregates);
    }

    #[test]
    fn self_join_uses_distinct_variables_per_atom() {
        let mut db = Database::new();
        db.add_relation("E", 2);
        db.insert_endogenous("E", vec![1.into(), 2.into()]).unwrap();
        db.insert_endogenous("E", vec![2.into(), 3.into()]).unwrap();
        // Path of length 2: E(X,Y), E(Y,Z).
        let q = parse_program("Q(X, Z) :- E(X, Y), E(Y, Z).").unwrap();
        let result = evaluate(&q, &db);
        assert_eq!(result.answers().len(), 1);
        let lineage = &result.answers()[0].lineage;
        assert_eq!(lineage.num_vars(), 2);
        assert_eq!(lineage.clauses().get(0).unwrap().len(), 2);
    }
}
