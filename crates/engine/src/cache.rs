//! The engine-level shared attribution cache.
//!
//! PR 2 introduced a per-[`crate::Session`] d-tree cache keyed by canonical
//! lineage; this module promotes it to an **engine-level, cross-session**
//! cache: every session of an [`crate::Engine`] (and every worker of the
//! async serving layer on top) shares one size-bounded store, so repeated
//! queries across sessions reuse compilations instead of redoing them.
//!
//! Design:
//!
//! * **Independent-clause lineages bypass the cache.** A Boolean lineage
//!   whose clauses share no variable has a closed form
//!   ([`crate::Attributor::closed_form`], ExaBan's depth-two d-tree) that
//!   costs less than a warm hit, so [`crate::Session`] answers it before
//!   building a [`Prekeyed`]: it makes no lookup, counts neither a hit nor a
//!   miss, and leaves no entry.
//! * **Keying in four levels: fingerprint, own presentation, known alias,
//!   canonical key.** Every lookup first computes a cheap
//!   isomorphism-invariant [`Fingerprint`] (variable/clause counts plus
//!   hashed clause-width and variable-degree multisets — one linear pass, no
//!   refinement). Isomorphic lineages always share a fingerprint, so an
//!   empty fingerprint bucket is a **definite miss**: the lineage is
//!   compiled and inserted under its fingerprint with the canonical form
//!   left *uncomputed*. In an occupied bucket, under the same lock, a
//!   resident whose dense [`Shape`] equals the probe's — the same
//!   presentation, with the aggregate payload — settles the lookup with no
//!   search: its values were computed on that very dense form. Failing
//!   that, a resident that knows the probe's presentation as an **alias**
//!   settles it just as cheaply: an alias is another dense presentation
//!   that keyed to the entry before, stored with the witness order its
//!   keying computed, so the values map back through the two witnesses
//!   ([`Prekeyed::map_back_via`]) exactly as a fresh keying would map them.
//!   Only when neither holds does anyone pay for canonicalization — the new
//!   arrival and any still-unkeyed residents are canonicalized
//!   ([`CanonicalKey`], the decomposed canonical renaming of
//!   [`crate::canon`]) and compared exactly. Singleton fingerprints — the
//!   common case for heterogeneous traffic — never compute a canonical key
//!   at all; the searches avoided this way are counted as
//!   [`CacheStats::prekey_skips`].
//! * **Aliases are learned on the second sighting.** A canonical hit
//!   records the probe's presentation as an alias of the entry only the
//!   second time that presentation keys to it (a few 64-bit presentation
//!   digests per entry remember the first sightings; a digest collision
//!   merely records an alias early, since alias matches compare shapes in
//!   full). An in-batch mate that keyed to the instance inserting the entry
//!   is sighted too ([`SharedCache::sight_mates`]). Renamed isomorphs that
//!   never repeat a presentation therefore leave no aliases behind. An
//!   entry holds at most [`ALIAS_CAP`] aliases; they die with the entry,
//!   survive a cross-presentation swap of the entry's own shape (they are
//!   relative to the canonical order, which the swap keeps), and are never
//!   persisted — a warm-started engine relearns them.
//! * **Exact canonical confirmation**: equal canonical keys imply isomorphic
//!   lineages (so cached attributions transfer under the variable
//!   bijection), and isomorphic lineages produce equal keys under arbitrary
//!   variable renamings and clause reorderings — fingerprint collisions
//!   between non-isomorphic shapes (e.g. two triangles vs a hexagon) are
//!   resolved by the canonical key, never served across.
//! * **Size-bounded, LRU-evicted**: the cache holds at most
//!   [`SharedCache::capacity`] entries. Recency is tracked with a lazy LRU
//!   queue (every touch appends an `(entry id, tick)` pair; eviction pops
//!   from the front, skipping pairs whose tick is stale), so hits and
//!   inserts stay O(1) amortized with no intrusive lists.
//! * **Single-writer merge**: batch entry points look the cache up during
//!   planning, compute misses on worker threads *without touching the cache*,
//!   and merge freshly computed attributions only after the workers have
//!   joined — concurrent sessions serialize only on the brief lock of a
//!   lookup or merge, never for the duration of a compilation (or of a
//!   canonicalization, which also runs outside the lock).
//! * **Counters** ([`CacheStats`]): hits, misses, insertions, evictions and
//!   the canonicalization work (`canon_steps`, `canon_searches`,
//!   `prekey_skips`) are tracked under one lock and surfaced through
//!   [`crate::Engine::stats`] (and the serving layer's stats).

use crate::attribution::{Attribution, Score};
use crate::canon::{canonical_form_classed, fingerprint, weighted_payload, Fingerprint};
use crate::persist::SnapshotError;
use banzhaf::Budget;
use banzhaf_arith::Rational;
use banzhaf_boolean::{AggregateKind, Clause, Dnf, Lineage, Var, VarSet, WeightedDnf};
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex};

/// The exact cache key: the lineage with its variables renamed to the dense
/// canonical numbering of [`crate::canon`] (factor, split, and the
/// refinement search on indecomposable cores).
///
/// The invariant is **equal keys ⇔ isomorphic lineages, up to the search's
/// power on cores**:
///
/// * *Soundness is unconditional*: the key is always a true renaming of the
///   lineage, so equal keys imply a variable bijection between the two
///   lineages, and attribution values — which are invariant under renaming —
///   transfer through it.
/// * *Completeness* — isomorphic lineages (any variable bijection composed
///   with any clause reordering) receive equal keys — holds whenever the
///   backtracking search of every indecomposable core runs to exhaustion,
///   which it does for every core whose refinement-invariant leaf count fits
///   the [`crate::canon`] leaf budget; past that (astronomically symmetric)
///   bound two copies may key apart and merely miss each other in the cache.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub(crate) struct CanonicalKey {
    pub(crate) num_vars: usize,
    pub(crate) clauses: Vec<Vec<u32>>,
    /// The aggregate payload, `None` for Boolean lineages. Weights are
    /// aligned with `clauses` (the canonical clause order), so two weighted
    /// lineages key equal iff some variable bijection matches clauses *and*
    /// their weights *and* the aggregate kind — a `SUM` lineage never serves
    /// a `COUNT` hit, and equal Boolean skeletons with different weights key
    /// apart.
    pub(crate) payload: Option<WeightedInfo>,
}

/// What distinguishes a weighted aggregate lineage from its Boolean
/// skeleton: the aggregate kind plus the per-clause weights. Attached as the
/// `payload` of [`Shape`] (dense clause order) and [`CanonicalKey`]
/// (canonical clause order).
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub(crate) struct WeightedInfo {
    pub(crate) kind: AggregateKind,
    pub(crate) weights: Vec<Rational>,
}

/// A lineage in dense first-occurrence presentation: variables renamed to
/// `0..num_vars` in order of first occurrence, clauses sorted. This is *not*
/// isomorphism-invariant (that is [`CanonicalKey`]'s job) — it is the stable
/// presentation the backends run and the one the canonical form is computed
/// from when a fingerprint collision forces it.
#[derive(PartialEq, Eq, Hash, Debug)]
pub(crate) struct Shape {
    pub(crate) num_vars: usize,
    pub(crate) clauses: Vec<Vec<u32>>,
    /// The aggregate payload, `None` for Boolean lineages; weights aligned
    /// with `clauses` (the dense presentation).
    pub(crate) payload: Option<WeightedInfo>,
}

impl Shape {
    /// Computes the canonical key of this presentation: common variables
    /// factored out first, independent components keyed apart, and only
    /// indecomposable cores searched (see [`crate::canon`]). Returns the
    /// canonical renaming, the keying steps it cost and whether some core
    /// ran the individualization search, or `None` when `budget` ran out
    /// mid-way: the caller then treats the shape as unkeyable (a definite
    /// miss) rather than stalling the planning walk. The weighted payload
    /// rides along as clause classes, so a weighted shape keys class-aware
    /// at every stage.
    pub(crate) fn canonicalize(&self, budget: Option<&Budget>) -> Option<(CanonInfo, u64, bool)> {
        let classes = self.weight_classes();
        let form = canonical_form_classed(self.num_vars, &self.clauses, classes.as_deref(), budget)
            .ok()?;
        let payload = self.canonical_payload(&form.order, &form.clauses);
        Some((
            CanonInfo {
                key: CanonicalKey { num_vars: self.num_vars, clauses: form.clauses, payload },
                order: form.order,
            },
            form.steps,
            form.searched,
        ))
    }

    /// A 64-bit digest of the presentation, for remembering first
    /// sightings of would-be aliases without holding their shapes.
    fn digest(&self) -> u64 {
        let mut hasher = std::collections::hash_map::DefaultHasher::new();
        self.hash(&mut hasher);
        hasher.finish()
    }

    /// Per-clause class labels for the canonical search: the rank of each
    /// clause's weight among the shape's sorted distinct weights. Ranks are
    /// isomorphism-invariant (a weighted bijection carries each clause's
    /// weight along, and both sides rank the same weight multiset), and they
    /// make the canonical witness *weight-aware*: without them a symmetric
    /// Boolean skeleton — the 3-path, say — lets the search pick either of
    /// two automorphic witnesses, landing the weights of two isomorphic
    /// weighted lineages in different canonical orders and splitting one
    /// isomorphism class across two keys. `None` for Boolean shapes.
    fn weight_classes(&self) -> Option<Vec<u32>> {
        let payload = self.payload.as_ref()?;
        let mut distinct: Vec<&Rational> = payload.weights.iter().collect();
        distinct.sort_unstable();
        distinct.dedup();
        Some(
            payload
                .weights
                .iter()
                .map(|w| {
                    distinct.binary_search(&w).expect("every weight ranks in the distinct list")
                        as u32
                })
                .collect(),
        )
    }

    /// Permutes the shape's clause weights into the canonical clause order —
    /// the weights of [`CanonicalKey::payload`]. Renames each dense clause
    /// through the inverse of the canonical witness, sorts the (clause,
    /// weight) pairs by clause; the weighted clauses are distinct (the
    /// lineage merged duplicates), so the permutation is unambiguous and the
    /// resulting clause list is exactly the canonical one.
    fn canonical_payload(
        &self,
        order: &[u32],
        canonical_clauses: &[Vec<u32>],
    ) -> Option<WeightedInfo> {
        let payload = self.payload.as_ref()?;
        let mut inv = vec![0u32; order.len()];
        for (i, &dense) in order.iter().enumerate() {
            inv[dense as usize] = i as u32;
        }
        let mut pairs: Vec<(Vec<u32>, &Rational)> = self
            .clauses
            .iter()
            .zip(&payload.weights)
            .map(|(c, w)| {
                let mut clause: Vec<u32> = c.iter().map(|&v| inv[v as usize]).collect();
                clause.sort_unstable();
                (clause, w)
            })
            .collect();
        pairs.sort_by(|(a, _), (b, _)| a.cmp(b));
        debug_assert!(
            pairs.iter().map(|(c, _)| c).eq(canonical_clauses.iter()),
            "renaming the clauses through the witness must reproduce the canonical form"
        );
        Some(WeightedInfo {
            kind: payload.kind,
            weights: pairs.into_iter().map(|(_, w)| w.clone()).collect(),
        })
    }
}

/// The canonical renaming of one [`Shape`]: the exact key plus the witness
/// order needed to transfer attribution values between isomorphic shapes.
#[derive(Debug)]
pub(crate) struct CanonInfo {
    pub(crate) key: CanonicalKey,
    /// `order[i]` is the dense variable of the owning [`Shape`] assigned
    /// canonical index `i`.
    pub(crate) order: Vec<u32>,
}

/// A lineage prepared for a cache lookup: densely renamed, fingerprinted —
/// and *not yet canonicalized*. The canonical key is only computed (via
/// [`Shape::canonicalize`]) when the fingerprint bucket is contested, and the
/// lineage a backend runs ([`Prekeyed::dense_dnf`] /
/// [`Prekeyed::dense_weighted`]) only when the lookup misses, so a cache hit
/// builds neither.
pub(crate) struct Prekeyed {
    pub(crate) fingerprint: Fingerprint,
    pub(crate) shape: Arc<Shape>,
    /// Dense variable → original fact.
    originals: Vec<Var>,
}

impl Prekeyed {
    /// Renames variables to `0..n` by first occurrence (clauses as stored,
    /// then the unused universe padding in ascending order) and computes the
    /// fingerprint. No refinement, no search, no hashing: each variable is
    /// ranked in the lineage's sorted universe by binary search, and the
    /// rank indexes a table of first-occurrence ids.
    ///
    /// An aggregate lineage renames its Boolean skeleton exactly so, the
    /// weights follow their clauses through the rename, and the fingerprint
    /// gains the renaming-invariant aggregate payload digest — so weighted
    /// lookups never even share a bucket with Boolean ones (or with a
    /// different kind or weight multiset).
    pub(crate) fn of(lineage: Lineage<'_>) -> Prekeyed {
        const UNSEEN: u32 = u32::MAX;
        let dnf = lineage.dnf();
        let universe = dnf.universe().as_slice();
        let mut ids = vec![UNSEEN; universe.len()];
        let mut originals: Vec<Var> = Vec::with_capacity(universe.len());
        let mut clauses: Vec<Vec<u32>> = dnf
            .clauses()
            .iter()
            .map(|c| {
                let mut clause: Vec<u32> = c
                    .iter()
                    .map(|v| {
                        let rank = universe
                            .binary_search(&v)
                            .expect("clause variables lie in the universe");
                        if ids[rank] == UNSEEN {
                            ids[rank] = originals.len() as u32;
                            originals.push(v);
                        }
                        ids[rank]
                    })
                    .collect();
                clause.sort_unstable();
                clause
            })
            .collect();
        clauses.sort_unstable();
        originals
            .extend(universe.iter().zip(&ids).filter(|&(_, &id)| id == UNSEEN).map(|(&v, _)| v));
        let num_vars = originals.len();
        let payload = match lineage {
            Lineage::Boolean(_) => None,
            Lineage::Aggregate(w) => {
                // The weighted clauses are distinct and sorted (duplicates
                // were merged at construction), so renaming a dense clause
                // back to its facts and binary-searching the clause list
                // recovers its weight.
                let stored = dnf.clauses();
                let weights = clauses
                    .iter()
                    .map(|c| {
                        let clause = Clause::new(c.iter().map(|&i| originals[i as usize]));
                        let at =
                            stored.binary_search(&clause).expect("every dense clause is stored");
                        w.weights()[at].clone()
                    })
                    .collect();
                Some(WeightedInfo { kind: w.kind(), weights })
            }
        };
        let mut fingerprint = fingerprint(num_vars, &clauses);
        if let Some(WeightedInfo { kind, weights }) = &payload {
            fingerprint = fingerprint.with_payload(weighted_payload(*kind, &clauses, weights));
        }
        Prekeyed { fingerprint, shape: Arc::new(Shape { num_vars, clauses, payload }), originals }
    }

    /// `true` for an aggregate lookup.
    pub(crate) fn is_aggregate(&self) -> bool {
        self.shape.payload.is_some()
    }

    /// The same function over the dense variables `0..n` — what a Boolean
    /// backend runs; results are renamed back to the original facts via
    /// [`Prekeyed::map_back`]. Built from the shape on each call.
    pub(crate) fn dense_dnf(&self) -> Dnf {
        Dnf::from_clauses_with_universe(
            self.shape.clauses.iter().map(|c| c.iter().map(|&i| Var(i))),
            self.dense_universe(),
        )
    }

    /// For an aggregate lookup, the dense weighted lineage an aggregate
    /// backend runs (`None` for a Boolean lookup). Built from the shape on
    /// each call.
    pub(crate) fn dense_weighted(&self) -> Option<WeightedDnf> {
        let payload = self.shape.payload.as_ref()?;
        let clauses = self.shape.clauses.iter().zip(&payload.weights);
        Some(
            WeightedDnf::from_weighted_clauses(
                payload.kind,
                clauses.map(|(c, w)| (c.iter().map(|&i| Var(i)).collect::<Vec<Var>>(), w.clone())),
            )
            .widen_universe(self.dense_universe()),
        )
    }

    fn dense_universe(&self) -> VarSet {
        VarSet::from_sorted((0..self.shape.num_vars as u32).map(Var).collect())
    }

    /// Renames a dense-variable attribution (computed on
    /// [`Prekeyed::dense_dnf`] or [`Prekeyed::dense_weighted`]) back to the
    /// original facts.
    pub(crate) fn map_back(&self, dense: &Attribution) -> Attribution {
        Self::rename_through(dense, |v| self.originals[v.index()])
    }

    /// Renames an attribution computed on *another* isomorphic shape back to
    /// this lineage's original facts, composing two canonical witness
    /// orders of one canonical key: canonical index `i` is the owner's dense
    /// variable `owner[i]` and this lineage's dense variable `mine[i]`.
    pub(crate) fn map_back_via(
        &self,
        mine: &[u32],
        owner: &[u32],
        dense: &Attribution,
    ) -> Attribution {
        debug_assert_eq!(mine.len(), owner.len(), "the witnesses must be of one key");
        let mut through = vec![Var(0); self.originals.len()];
        for (&theirs, &ours) in owner.iter().zip(mine) {
            through[theirs as usize] = self.originals[ours as usize];
        }
        Self::rename_through(dense, |v| through[v.index()])
    }

    fn rename_through(dense: &Attribution, rename: impl Fn(&Var) -> Var) -> Attribution {
        let values: HashMap<Var, Score> =
            dense.values.iter().map(|(v, s)| (rename(v), s.clone())).collect();
        let shapley =
            dense.shapley.as_ref().map(|m| m.iter().map(|(v, s)| (rename(v), s.clone())).collect());
        Attribution {
            algorithm: dense.algorithm,
            values,
            model_count: dense.model_count.clone(),
            shapley,
            aggregate: dense.aggregate,
            aggregate_total: dense.aggregate_total.clone(),
            stats: dense.stats,
            degradation: dense.degradation,
        }
    }
}

/// A point-in-time snapshot of the shared cache's counters and occupancy.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that found no entry — either a vacant fingerprint bucket (no
    /// canonicalization performed) or a contested bucket whose residents all
    /// keyed apart. An instance whose shape is compiled by an earlier
    /// instance of the *same batch* counts as a miss here (the shape was not
    /// cached when it was looked up) even though the session scores the
    /// shared work as a per-session hit.
    pub misses: u64,
    /// Attributions merged into the cache.
    pub insertions: u64,
    /// Entries evicted to keep the cache within its capacity bound.
    pub evictions: u64,
    /// Canonicalization work (decomposition and refinement steps) spent
    /// computing the exact cache keys by the engine's sessions — the price
    /// paid for the order-insensitive keying, to weigh against the compile
    /// steps the hits save.
    pub canon_steps: u64,
    /// Canonical keyings by the engine's sessions that ran the
    /// individualization search on some indecomposable core. A keying that
    /// factors, splits and multiplies all the way down counts only in
    /// `canon_steps`; lookups resolved by the fingerprint, the presentation
    /// or a known alias key nothing at all.
    pub canon_searches: u64,
    /// Lookups resolved without any individualization search because their
    /// fingerprint bucket was vacant (the common case for heterogeneous
    /// traffic). Presentation and alias hits run no search either, but count
    /// in `hits`, not here.
    pub prekey_skips: u64,
    /// Warm-start snapshot files loaded successfully (see
    /// [`SharedCache::load`] / [`ShardedCache::load`]).
    pub snapshot_loads: u64,
    /// Entries admitted from warm-start snapshots (excess entries beyond the
    /// capacity bound are dropped at load, not evicted later).
    pub snapshot_entries: u64,
    /// Snapshot loads rejected — corrupt files, bad magic/version, checksum
    /// mismatches — each surfaced to the caller as a typed
    /// [`crate::SnapshotError`] while the cache degrades to a cold start.
    pub snapshot_rejects: u64,
    /// Entries currently resident.
    pub entries: usize,
    /// The configured capacity bound.
    pub capacity: usize,
}

impl CacheStats {
    /// The fraction of lookups answered from the cache (0 when none yet).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// The first, cheap phase of a lookup: what the fingerprint bucket holds.
pub(crate) enum Lookup {
    /// No resident shares the fingerprint — a definite miss, already counted;
    /// no canonicalization is needed (insert the compiled result with
    /// `canon: None`).
    Vacant,
    /// A resident holds the probe's exact presentation, as its own shape or
    /// as a known alias — a hit, already counted, its recency refreshed.
    Presented(PresentationHit),
    /// Residents share the fingerprint, but none knows the probe's
    /// presentation: canonicalize (outside the lock!) the probe and any
    /// resident returned with `canon: None`, then settle the lookup with
    /// [`SharedCache::finish_lookup`].
    Occupied(Vec<Resident>),
}

/// A lookup settled by presentation: the stored dense attribution, and how
/// it reaches the probe's dense variables.
pub(crate) struct PresentationHit {
    pub(crate) attribution: Arc<Attribution>,
    /// `None` when the probe presents the entry's own shape (the values are
    /// over the probe's dense variables — [`Prekeyed::map_back`]); for an
    /// alias, the alias's witness order and the entry's witness, to compose
    /// with [`Prekeyed::map_back_via`].
    pub(crate) alias: Option<(Arc<[u32]>, Arc<CanonInfo>)>,
}

/// One cache entry visible to a contested lookup.
pub(crate) struct Resident {
    pub(crate) id: u64,
    pub(crate) shape: Arc<Shape>,
    /// The entry's canonical renaming, if some earlier contested lookup
    /// already paid for it.
    pub(crate) canon: Option<Arc<CanonInfo>>,
}

/// A settled canonical cache hit: the stored dense attribution plus the
/// owning entry's canonical witness (compose with the probe's own witness to
/// rename the values — see [`Prekeyed::map_back_via`]).
pub(crate) struct CacheHit {
    pub(crate) attribution: Arc<Attribution>,
    pub(crate) canon: Arc<CanonInfo>,
}

/// The most aliases one entry keeps. The paper corpora reach an entry
/// through at most three presentations besides its own.
const ALIAS_CAP: usize = 4;

/// The most first sightings one entry remembers while they wait for a
/// second one; the oldest is forgotten first.
const SIGHTINGS_CAP: usize = 8;

struct CacheEntry {
    fingerprint: Fingerprint,
    shape: Arc<Shape>,
    /// `Arc`ed so a hit hands the value out with an O(1) refcount bump — the
    /// deep copy (`Prekeyed::map_back_via`) happens outside the lock. The
    /// attribution is over the entry's *dense* variables.
    attribution: Arc<Attribution>,
    /// Computed lazily, only once the fingerprint bucket is contested.
    canon: Option<Arc<CanonInfo>>,
    /// Other presentations that keyed to this entry (only a keyed entry has
    /// any), at most [`ALIAS_CAP`].
    aliases: Vec<Alias>,
    /// Digests of presentations that keyed to this entry once and are not
    /// aliases yet, at most [`SIGHTINGS_CAP`].
    sightings: Vec<u64>,
    /// The tick of this entry's most recent touch; queue pairs with an older
    /// tick are stale.
    tick: u64,
}

/// Another dense presentation of an entry's lineage, with the witness
/// order that keyed it, as [`SharedCache::sight_mates`] takes it.
pub(crate) type Sighting<'a> = (&'a Arc<Shape>, &'a [u32]);

/// Another dense presentation of an entry's lineage.
struct Alias {
    /// Shared with the probe that taught it.
    shape: Arc<Shape>,
    /// `order[i]` is the alias's dense variable assigned canonical index
    /// `i`: the witness its keying computed. The entry already holds the
    /// canonical key, so no second copy is kept.
    order: Arc<[u32]>,
}

impl CacheEntry {
    fn new(
        fingerprint: Fingerprint,
        shape: Arc<Shape>,
        canon: Option<Arc<CanonInfo>>,
        attribution: Arc<Attribution>,
        tick: u64,
    ) -> Self {
        CacheEntry {
            fingerprint,
            shape,
            attribution,
            canon,
            aliases: Vec::new(),
            sightings: Vec::new(),
            tick,
        }
    }

    /// The witness order through which `shape` reaches this entry, if it is
    /// a known alias.
    fn alias_of(&self, shape: &Shape) -> Option<&Arc<[u32]>> {
        self.aliases.iter().find(|a| *a.shape == *shape).map(|a| &a.order)
    }

    /// Notes that `shape` (with witness `order` and presentation `digest`)
    /// just keyed to this entry, and records it as an alias if this is its
    /// second sighting and there is room.
    fn sight(&mut self, shape: &Arc<Shape>, order: &[u32], digest: u64) {
        if self.aliases.len() >= ALIAS_CAP
            || *self.shape == **shape
            || self.alias_of(shape).is_some()
        {
            return;
        }
        if let Some(at) = self.sightings.iter().position(|&d| d == digest) {
            self.sightings.remove(at);
            self.aliases.push(Alias { shape: Arc::clone(shape), order: order.into() });
        } else {
            if self.sightings.len() >= SIGHTINGS_CAP {
                self.sightings.remove(0);
            }
            self.sightings.push(digest);
        }
    }
}

struct CacheInner {
    /// Fingerprint → resident entry ids. Buckets are tiny (almost always a
    /// singleton); an absent fingerprint is a definite miss.
    buckets: HashMap<Fingerprint, Vec<u64>>,
    entries: HashMap<u64, CacheEntry>,
    /// Lazy LRU order: `(entry id, tick)` appended on every touch; a pair is
    /// live iff its tick equals the entry's current tick.
    recency: VecDeque<(u64, u64)>,
    next_id: u64,
    tick: u64,
    /// The counters live under the same lock as the map so a
    /// [`SharedCache::stats`] snapshot is consistent: each lookup increments
    /// exactly one of `hits`/`misses` atomically with the map access it
    /// describes. (They used to be separate relaxed atomics bumped after the
    /// lock was dropped, and a snapshot could observe a hit whose miss-side
    /// context was still unrecorded — hit-rate math briefly exceeding 1.0.)
    hits: u64,
    misses: u64,
    insertions: u64,
    evictions: u64,
    canon_steps: u64,
    canon_searches: u64,
    prekey_skips: u64,
    snapshot_loads: u64,
    snapshot_entries: u64,
    snapshot_rejects: u64,
}

/// The shared, size-bounded attribution cache, keyed by fingerprint first,
/// then by the entry's own presentation or a known alias, and by canonical
/// lineage last.
///
/// Wrapped in an `Arc` by [`crate::Engine`] and handed to every
/// [`crate::Session`]; safe to share across threads. Lookups and merges take
/// a short internal lock; compilations and canonicalizations never run
/// under it.
pub struct SharedCache {
    inner: Mutex<CacheInner>,
    capacity: usize,
}

impl SharedCache {
    /// A cache bounded to `capacity` entries (at least 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        SharedCache {
            inner: Mutex::new(CacheInner {
                buckets: HashMap::new(),
                entries: HashMap::new(),
                recency: VecDeque::new(),
                next_id: 0,
                tick: 0,
                hits: 0,
                misses: 0,
                insertions: 0,
                evictions: 0,
                canon_steps: 0,
                canon_searches: 0,
                prekey_skips: 0,
                snapshot_loads: 0,
                snapshot_entries: 0,
                snapshot_rejects: 0,
            }),
            capacity,
        }
    }

    /// The configured entry-count bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Phase one of a lookup: inspects the fingerprint bucket under one
    /// lock. A vacant bucket is a definite miss (counted here). A resident
    /// holding `shape` as its own presentation or as an alias settles the
    /// lookup as a hit (counted here, recency refreshed). Otherwise the
    /// bucket's residents are returned so the caller can canonicalize
    /// outside the lock and settle with [`SharedCache::finish_lookup`].
    pub(crate) fn lookup(&self, fp: Fingerprint, shape: &Shape) -> Lookup {
        // Fault injection: simulate lock contention (a Sleep action stalls
        // the caller right before the acquisition).
        banzhaf_par::failpoint!("cache::lookup");
        let mut inner = self.inner.lock().expect("cache lock poisoned");
        let Some(ids) = inner.buckets.get(&fp).filter(|ids| !ids.is_empty()) else {
            inner.misses += 1;
            return Lookup::Vacant;
        };
        let presented = ids.iter().find_map(|&id| {
            let entry = &inner.entries[&id];
            if *entry.shape == *shape {
                return Some((id, None));
            }
            let order = entry.alias_of(shape)?;
            let canon = entry.canon.as_ref().expect("only a keyed entry has aliases");
            Some((id, Some((Arc::clone(order), Arc::clone(canon)))))
        });
        if let Some((id, alias)) = presented {
            let attribution = Self::touch(&mut inner, id);
            return Lookup::Presented(PresentationHit { attribution, alias });
        }
        let residents = ids
            .iter()
            .map(|&id| {
                let entry = &inner.entries[&id];
                Resident { id, shape: Arc::clone(&entry.shape), canon: entry.canon.clone() }
            })
            .collect();
        Lookup::Occupied(residents)
    }

    /// Phase two of a contested lookup: stores the canonical renamings the
    /// caller computed for previously-unkeyed residents (`resolved`), then
    /// scans the bucket for an entry whose canonical key equals the probe's
    /// (`mine`, the witness of presentation `shape`). A match is a hit
    /// (recency refreshed, and the probe's presentation sighted for the
    /// entry's aliases); no match is a miss. Exactly one of `hits`/`misses`
    /// is incremented.
    pub(crate) fn finish_lookup(
        &self,
        fp: Fingerprint,
        shape: &Arc<Shape>,
        mine: &CanonInfo,
        resolved: &[(u64, Arc<CanonInfo>)],
    ) -> Option<CacheHit> {
        let digest = shape.digest();
        let mut inner = self.inner.lock().expect("cache lock poisoned");
        for (id, canon) in resolved {
            if let Some(entry) = inner.entries.get_mut(id) {
                // Keep an existing witness if another session raced us to
                // it: canonicalization is deterministic on the entry's
                // shape, so both computed the same renaming.
                if entry.canon.is_none() {
                    entry.canon = Some(Arc::clone(canon));
                }
            }
        }
        let found = inner.buckets.get(&fp).and_then(|ids| {
            ids.iter()
                .copied()
                .find(|id| inner.entries[id].canon.as_ref().is_some_and(|c| c.key == mine.key))
        });
        let Some(id) = found else {
            inner.misses += 1;
            return None;
        };
        let entry = inner.entries.get_mut(&id).expect("resident just seen");
        entry.sight(shape, &mine.order, digest);
        let canon = Arc::clone(entry.canon.as_ref().expect("matched on canon"));
        let attribution = Self::touch(&mut inner, id);
        Some(CacheHit { attribution, canon })
    }

    /// Counts a hit on resident `id` and refreshes its recency, returning
    /// its dense attribution.
    fn touch(inner: &mut CacheInner, id: u64) -> Arc<Attribution> {
        inner.tick += 1;
        let tick = inner.tick;
        let entry = inner.entries.get_mut(&id).expect("resident just seen");
        entry.tick = tick;
        let attribution = Arc::clone(&entry.attribution);
        inner.recency.push_back((id, tick));
        inner.hits += 1;
        Self::compact(inner);
        attribution
    }

    /// Counts a miss for an instance the caller resolved without looking the
    /// cache up: an earlier instance of the same batch compiles this very
    /// presentation, so the skipped lookup could only have missed.
    pub(crate) fn record_miss(&self) {
        self.inner.lock().expect("cache lock poisoned").misses += 1;
    }

    /// Merges one freshly computed dense attribution under its fingerprint,
    /// evicting the least recently used entries if the capacity bound is
    /// exceeded. Re-inserting an existing shape refreshes that entry — last
    /// writer wins. When the match is by equal *dense presentation* both
    /// writers computed bit-identical values on the same dense form, so only
    /// the attribution (and a missing witness) need storing; when the match
    /// is by equal *canonical key* with a different dense presentation (two
    /// sessions raced isomorphic lineages through different labellings), the
    /// incoming attribution is keyed by the *inserter's* dense variables, so
    /// shape, witness and attribution are replaced together — mixing the old
    /// witness with the new values would silently misattribute per-variable
    /// scores on every subsequent hit.
    pub(crate) fn insert(
        &self,
        fp: Fingerprint,
        shape: &Arc<Shape>,
        canon: Option<Arc<CanonInfo>>,
        attribution: Arc<Attribution>,
    ) {
        debug_assert!(
            attribution.degradation.is_none(),
            "degraded results reflect a budget, not the lineage; never cache them"
        );
        // Fault injection: simulate lock contention on the merge side.
        banzhaf_par::failpoint!("cache::insert");
        let mut inner = self.inner.lock().expect("cache lock poisoned");
        inner.tick += 1;
        let tick = inner.tick;
        let bucket = inner.buckets.get(&fp).cloned().unwrap_or_default();
        let existing = bucket.iter().copied().find(|id| {
            let entry = &inner.entries[id];
            let same_key = match (&entry.canon, &canon) {
                (Some(theirs), Some(ours)) => theirs.key == ours.key,
                _ => false,
            };
            same_key || *entry.shape == **shape
        });
        if let Some(id) = existing {
            let entry = inner.entries.get_mut(&id).expect("resident just seen");
            if *entry.shape == **shape {
                // Same dense presentation: the values are bit-identical;
                // keep the entry's witness (adopting ours if it has none).
                if entry.canon.is_none() {
                    entry.canon = canon;
                }
            } else {
                // Matched by canonical key across different presentations:
                // the attribution below is keyed by *our* dense variables,
                // so the shape and witness must switch presentation with it.
                // The aliases stay valid (they are relative to the
                // canonical order, which both witnesses share); the replaced
                // presentation joins them, and ours leaves them.
                debug_assert!(canon.is_some(), "cross-presentation match requires a witness");
                let replaced = std::mem::replace(&mut entry.shape, Arc::clone(shape));
                let witness = std::mem::replace(&mut entry.canon, canon);
                entry.aliases.retain(|a| *a.shape != **shape);
                if let Some(witness) = witness.filter(|_| entry.aliases.len() < ALIAS_CAP) {
                    entry
                        .aliases
                        .push(Alias { shape: replaced, order: witness.order.as_slice().into() });
                }
            }
            entry.attribution = attribution;
            entry.tick = tick;
            inner.recency.push_back((id, tick));
        } else {
            let id = inner.next_id;
            inner.next_id += 1;
            inner
                .entries
                .insert(id, CacheEntry::new(fp, Arc::clone(shape), canon, attribution, tick));
            inner.buckets.entry(fp).or_default().push(id);
            inner.recency.push_back((id, tick));
        }
        inner.insertions += 1;
        while inner.entries.len() > self.capacity {
            let Some((victim, victim_tick)) = inner.recency.pop_front() else {
                break;
            };
            let live = inner.entries.get(&victim).is_some_and(|e| e.tick == victim_tick);
            if live {
                let entry = inner.entries.remove(&victim).expect("live victim");
                if let Some(ids) = inner.buckets.get_mut(&entry.fingerprint) {
                    ids.retain(|&id| id != victim);
                    if ids.is_empty() {
                        inner.buckets.remove(&entry.fingerprint);
                    }
                }
                inner.evictions += 1;
            }
        }
        Self::compact(&mut inner);
    }

    /// Sights `mates` on the entry whose own presentation is `shape`: each
    /// is another presentation with its witness order, an in-batch mate
    /// that keyed to the instance that just inserted the entry and reused
    /// its compile. That keying counts as a first sighting, as a canonical
    /// hit's would, so the mate's next keying makes it an alias. Nothing
    /// happens if the entry has been evicted or is unkeyed.
    pub(crate) fn sight_mates(&self, fp: Fingerprint, shape: &Shape, mates: &[Sighting<'_>]) {
        let digests: Vec<u64> = mates.iter().map(|(mate, _)| mate.digest()).collect();
        let mut inner = self.inner.lock().expect("cache lock poisoned");
        let inner = &mut *inner;
        let Some(entry) = inner
            .buckets
            .get(&fp)
            .and_then(|ids| ids.iter().copied().find(|id| *inner.entries[id].shape == *shape))
        else {
            return;
        };
        let entry = inner.entries.get_mut(&entry).expect("resident just seen");
        if entry.canon.is_none() {
            return;
        }
        for ((mate, order), digest) in mates.iter().zip(digests) {
            entry.sight(mate, order, digest);
        }
    }

    /// Records canonicalization work performed by a session of this engine —
    /// refinement steps, individualization searches run, and searches
    /// avoided outright by vacant fingerprints — so [`CacheStats`] reports
    /// the end-to-end cost of the keying next to the hits it buys.
    pub(crate) fn record_canon(&self, steps: u64, searches: u64, skips: u64) {
        let mut inner = self.inner.lock().expect("cache lock poisoned");
        inner.canon_steps += steps;
        inner.canon_searches += searches;
        inner.prekey_skips += skips;
    }

    /// Drops stale recency pairs once the queue outgrows the live entry set,
    /// keeping the lazy-LRU bookkeeping O(1) amortized per touch.
    fn compact(inner: &mut CacheInner) {
        if inner.recency.len() <= inner.entries.len().saturating_mul(4).max(64) {
            return;
        }
        let entries = &inner.entries;
        inner.recency.retain(|(id, tick)| entries.get(id).is_some_and(|e| e.tick == *tick));
    }

    /// Removes every entry (counters are preserved).
    pub fn clear(&self) {
        let mut inner = self.inner.lock().expect("cache lock poisoned");
        inner.entries.clear();
        inner.buckets.clear();
        inner.recency.clear();
    }

    /// A consistent snapshot of the cache's counters and occupancy: all
    /// fields are read under one acquisition of the inner lock, so no
    /// concurrent lookup is ever half-reflected — in particular
    /// `hits + misses` is exactly the number of settled lookups and the
    /// hit rate can never exceed 1.0.
    pub fn stats(&self) -> CacheStats {
        let inner = self.inner.lock().expect("cache lock poisoned");
        CacheStats {
            hits: inner.hits,
            misses: inner.misses,
            insertions: inner.insertions,
            evictions: inner.evictions,
            canon_steps: inner.canon_steps,
            canon_searches: inner.canon_searches,
            prekey_skips: inner.prekey_skips,
            snapshot_loads: inner.snapshot_loads,
            snapshot_entries: inner.snapshot_entries,
            snapshot_rejects: inner.snapshot_rejects,
            entries: inner.entries.len(),
            capacity: self.capacity,
        }
    }

    /// Exports the resident entries for snapshotting, in insertion (entry-id)
    /// order — a deterministic order, so saving the same cache state twice
    /// produces byte-identical snapshot files.
    pub(crate) fn export_entries(&self) -> Vec<SnapshotEntry> {
        let inner = self.inner.lock().expect("cache lock poisoned");
        let mut ids: Vec<u64> = inner.entries.keys().copied().collect();
        ids.sort_unstable();
        ids.iter()
            .filter(|id| {
                // Weighted aggregate entries stay in memory only: the
                // snapshot format (VERSION 1) persists Boolean shapes, whose
                // fingerprint payload is always zero, and stays stable.
                inner.entries[id].shape.payload.is_none()
            })
            .map(|id| {
                let entry = &inner.entries[id];
                SnapshotEntry {
                    fingerprint: entry.fingerprint,
                    shape: Arc::clone(&entry.shape),
                    canon: entry.canon.clone(),
                    attribution: Arc::clone(&entry.attribution),
                }
            })
            .collect()
    }

    /// Admits one snapshot entry: inserted like a fresh compilation but
    /// counted under `snapshot_entries` instead of `insertions`, and never
    /// evicting — entries beyond the capacity bound are dropped (returns
    /// `false`), so a snapshot written by a larger cache degrades to a
    /// truncated warm start instead of churning the LRU queue.
    pub(crate) fn admit(&self, entry: SnapshotEntry) -> bool {
        debug_assert!(
            entry.attribution.degradation.is_none(),
            "snapshots never carry degraded results"
        );
        let mut inner = self.inner.lock().expect("cache lock poisoned");
        if inner.entries.len() >= self.capacity {
            return false;
        }
        inner.tick += 1;
        let tick = inner.tick;
        let id = inner.next_id;
        inner.next_id += 1;
        inner.entries.insert(
            id,
            CacheEntry::new(entry.fingerprint, entry.shape, entry.canon, entry.attribution, tick),
        );
        inner.buckets.entry(entry.fingerprint).or_default().push(id);
        inner.recency.push_back((id, tick));
        inner.snapshot_entries += 1;
        true
    }

    /// Records the outcome of a snapshot-file load attempt against this
    /// cache's counters.
    pub(crate) fn record_snapshot_load(&self, ok: bool) {
        let mut inner = self.inner.lock().expect("cache lock poisoned");
        if ok {
            inner.snapshot_loads += 1;
        } else {
            inner.snapshot_rejects += 1;
        }
    }

    /// Writes the cache's resident entries to `path` in the versioned binary
    /// snapshot format (see the `persist` module docs). Returns the number of
    /// entries written. The write goes through a sibling temp file renamed
    /// into place, so a crash mid-write never leaves a truncated snapshot at
    /// `path`.
    pub fn save(&self, path: impl AsRef<std::path::Path>) -> Result<usize, SnapshotError> {
        crate::persist::save_entries(path.as_ref(), &self.export_entries())
    }

    /// Loads a snapshot written by [`SharedCache::save`] (or
    /// [`ShardedCache::save`]) into this cache, returning the number of
    /// entries admitted. Corrupt, truncated, or version-mismatched files are
    /// rejected with a typed [`SnapshotError`] — the cache is left exactly as
    /// it was (a cold start), never partially loaded, and the rejection is
    /// counted in [`CacheStats::snapshot_rejects`].
    pub fn load(&self, path: impl AsRef<std::path::Path>) -> Result<usize, SnapshotError> {
        let entries = match crate::persist::load_entries(path.as_ref()) {
            Ok(entries) => entries,
            Err(error) => {
                self.record_snapshot_load(false);
                return Err(error);
            }
        };
        let admitted = entries.into_iter().map(|e| self.admit(e)).filter(|&ok| ok).count();
        self.record_snapshot_load(true);
        Ok(admitted)
    }
}

impl fmt::Debug for SharedCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SharedCache").field("stats", &self.stats()).finish()
    }
}

/// One resident cache entry in transferable form: everything the snapshot
/// format persists — the fingerprint pre-key, the dense shape, the canonical
/// witness when one was paid for, and the dense attribution.
#[derive(Clone, Debug)]
pub(crate) struct SnapshotEntry {
    pub(crate) fingerprint: Fingerprint,
    pub(crate) shape: Arc<Shape>,
    pub(crate) canon: Option<Arc<CanonInfo>>,
    pub(crate) attribution: Arc<Attribution>,
}

impl CacheStats {
    /// Accumulates another shard's counters into this aggregate (capacities
    /// and entry counts sum alongside the event counters).
    fn accumulate(&mut self, other: &CacheStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.insertions += other.insertions;
        self.evictions += other.evictions;
        self.canon_steps += other.canon_steps;
        self.canon_searches += other.canon_searches;
        self.prekey_skips += other.prekey_skips;
        self.snapshot_loads += other.snapshot_loads;
        self.snapshot_entries += other.snapshot_entries;
        self.snapshot_rejects += other.snapshot_rejects;
        self.entries += other.entries;
        self.capacity += other.capacity;
    }
}

/// N independently locked [`SharedCache`] shards behind one cache interface.
///
/// Entries are routed by a deterministic FNV-1a hash of their
/// isomorphism-invariant fingerprint pre-key — every presentation of a lineage
/// shape lands on the same shard (isomorphic lineages share a fingerprint),
/// so sharding never changes *which* lookups hit, only which lock they take.
/// The shard index is process-independent ([`ShardedCache::shard_of`]), so it
/// doubles as the partition function for a multi-process fleet: each process
/// can own a subset of shards instead of duplicating the whole cache.
///
/// The total capacity is split evenly (each shard holds
/// `ceil(capacity / shards)` entries, LRU-evicted per shard), and snapshots
/// ([`ShardedCache::save`] / [`ShardedCache::load`]) are shard-count
/// independent: one file holds every entry, and loading re-routes each entry
/// to whatever shard owns its fingerprint under the *current* shard count.
pub struct ShardedCache {
    shards: Vec<SharedCache>,
}

impl ShardedCache {
    /// A cache of `shards` shards (at least 1) bounded to `capacity` entries
    /// in total (each shard to its even share, at least 1).
    pub fn new(shards: usize, capacity: usize) -> Self {
        let shards = shards.max(1);
        let per_shard = capacity.div_ceil(shards).max(1);
        ShardedCache { shards: (0..shards).map(|_| SharedCache::new(per_shard)).collect() }
    }

    /// The number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The total entry-count bound, summed across shards.
    pub fn capacity(&self) -> usize {
        self.shards.iter().map(SharedCache::capacity).sum()
    }

    /// The shard owning `fp`: FNV-1a over the fingerprint's raw fields, mod
    /// the shard count. Deterministic across processes and runs — the fleet
    /// partition function.
    pub(crate) fn shard_index(&self, fp: Fingerprint) -> usize {
        let (num_vars, num_clauses, widths, degrees, payload) = fp.raw_parts();
        let mut hash = 0xcbf2_9ce4_8422_2325_u64;
        let mut eat = |bytes: &[u8]| {
            for &byte in bytes {
                hash ^= u64::from(byte);
                hash = hash.wrapping_mul(0x100_0000_01b3);
            }
        };
        eat(&num_vars.to_le_bytes());
        eat(&num_clauses.to_le_bytes());
        eat(&widths.to_le_bytes());
        eat(&degrees.to_le_bytes());
        eat(&payload.to_le_bytes());
        (hash % self.shards.len() as u64) as usize
    }

    /// The shard that serves `lineage` (and every lineage isomorphic to it).
    /// The serving layer reports this index per request so a fleet operator
    /// can see which partition answered.
    pub fn shard_of(&self, lineage: &Dnf) -> usize {
        self.shard_index(Prekeyed::of(Lineage::Boolean(lineage)).fingerprint)
    }

    fn shard(&self, fp: Fingerprint) -> &SharedCache {
        &self.shards[self.shard_index(fp)]
    }

    /// Routed [`SharedCache::lookup`].
    pub(crate) fn lookup(&self, fp: Fingerprint, shape: &Shape) -> Lookup {
        self.shard(fp).lookup(fp, shape)
    }

    /// Routed [`SharedCache::finish_lookup`].
    pub(crate) fn finish_lookup(
        &self,
        fp: Fingerprint,
        shape: &Arc<Shape>,
        mine: &CanonInfo,
        resolved: &[(u64, Arc<CanonInfo>)],
    ) -> Option<CacheHit> {
        self.shard(fp).finish_lookup(fp, shape, mine, resolved)
    }

    /// Routed [`SharedCache::record_miss`].
    pub(crate) fn record_miss(&self, fp: Fingerprint) {
        self.shard(fp).record_miss();
    }

    /// Routed [`SharedCache::insert`].
    pub(crate) fn insert(
        &self,
        fp: Fingerprint,
        shape: &Arc<Shape>,
        canon: Option<Arc<CanonInfo>>,
        attribution: Arc<Attribution>,
    ) {
        self.shard(fp).insert(fp, shape, canon, attribution);
    }

    /// Routed [`SharedCache::sight_mates`].
    pub(crate) fn sight_mates(&self, fp: Fingerprint, shape: &Shape, mates: &[Sighting<'_>]) {
        self.shard(fp).sight_mates(fp, shape, mates);
    }

    /// Records canonicalization telemetry. The work is engine-wide (one
    /// session call spans many fingerprints), so it is recorded on shard 0
    /// and reported through the aggregate [`ShardedCache::stats`].
    pub(crate) fn record_canon(&self, steps: u64, searches: u64, skips: u64) {
        self.shards[0].record_canon(steps, searches, skips);
    }

    /// Removes every entry from every shard (counters are preserved).
    pub fn clear(&self) {
        for shard in &self.shards {
            shard.clear();
        }
    }

    /// The aggregate counters: every field summed across shards (each
    /// shard's snapshot is internally consistent; a miss and the hit that
    /// follows it for the same shape always land on the same shard, so the
    /// summed hit rate never exceeds 1.0 either).
    pub fn stats(&self) -> CacheStats {
        let mut total = CacheStats::default();
        for shard in &self.shards {
            total.accumulate(&shard.stats());
        }
        total
    }

    /// Per-shard counter snapshots, in shard-index order. Hits, misses,
    /// insertions, evictions, and occupancy are genuinely per-shard;
    /// engine-wide telemetry (canonicalization work, snapshot-file loads and
    /// rejects) is recorded on shard 0.
    pub fn shard_stats(&self) -> Vec<CacheStats> {
        self.shards.iter().map(SharedCache::stats).collect()
    }

    /// Writes every shard's resident entries to one snapshot file (shard
    /// order, then insertion order — deterministic). Returns the number of
    /// entries written. The snapshot is shard-count independent: any engine
    /// can load it, whatever its shard count.
    pub fn save(&self, path: impl AsRef<std::path::Path>) -> Result<usize, SnapshotError> {
        let mut entries = Vec::new();
        for shard in &self.shards {
            entries.extend(shard.export_entries());
        }
        crate::persist::save_entries(path.as_ref(), &entries)
    }

    /// Loads a snapshot, routing each entry to the shard that owns its
    /// fingerprint under *this* cache's shard count. Returns the number of
    /// entries admitted (a shard at capacity drops its excess). Corrupt or
    /// version-mismatched files are rejected with a typed [`SnapshotError`],
    /// counted in [`CacheStats::snapshot_rejects`], and leave every shard
    /// untouched — a cold start, never a partial load.
    pub fn load(&self, path: impl AsRef<std::path::Path>) -> Result<usize, SnapshotError> {
        let entries = match crate::persist::load_entries(path.as_ref()) {
            Ok(entries) => entries,
            Err(error) => {
                self.shards[0].record_snapshot_load(false);
                return Err(error);
            }
        };
        let admitted = entries
            .into_iter()
            .map(|e| self.shard(e.fingerprint).admit(e))
            .filter(|&ok| ok)
            .count();
        self.shards[0].record_snapshot_load(true);
        Ok(admitted)
    }
}

impl fmt::Debug for ShardedCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ShardedCache")
            .field("shards", &self.shards.len())
            .field("stats", &self.stats())
            .finish()
    }
}

/// Computes the full canonical key of `lineage` — dense renaming,
/// fingerprint, and the decomposed canonical form — and returns the keying
/// steps spent. A benchmarking probe for the keying cost; not
/// used on the serving path.
pub fn canonical_key_probe(lineage: &Dnf) -> u64 {
    let prekeyed = Prekeyed::of(Lineage::Boolean(lineage));
    let (_, steps, _) = prekeyed.shape.canonicalize(None).expect("no budget, no interrupt");
    steps
}

/// Computes only the fingerprint pre-key of `lineage` (the work a
/// vacant-bucket lookup pays) and returns a digest of it so the computation
/// cannot be optimized away. A benchmarking probe.
pub fn prekey_probe(lineage: &Dnf) -> u64 {
    use std::hash::{Hash, Hasher};
    let prekeyed = Prekeyed::of(Lineage::Boolean(lineage));
    let mut hasher = std::collections::hash_map::DefaultHasher::new();
    prekeyed.fingerprint.hash(&mut hasher);
    hasher.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attribution::EngineStats;
    use banzhaf_arith::Natural;

    fn v(i: u32) -> Var {
        Var(i)
    }

    fn dummy_attribution(tag: u64) -> Arc<Attribution> {
        Arc::new(Attribution {
            algorithm: "test",
            values: [(v(0), Score::Exact(Natural::from(tag)))].into_iter().collect(),
            model_count: None,
            shapley: None,
            aggregate: None,
            aggregate_total: None,
            stats: EngineStats::default(),
            degradation: None,
        })
    }

    fn prekeyed_of(clauses: Vec<Vec<u32>>) -> Prekeyed {
        let clauses: Vec<Vec<Var>> =
            clauses.into_iter().map(|c| c.into_iter().map(Var).collect()).collect();
        Prekeyed::of(Lineage::Boolean(&Dnf::from_clauses(clauses)))
    }

    /// Runs the full lookup protocol the session uses — fingerprint, own
    /// presentation and aliases first; on contention canonicalize the probe
    /// and any unkeyed residents, then settle — and maps a hit back to the
    /// probe's facts.
    fn probe(cache: &SharedCache, p: &Prekeyed) -> Option<Attribution> {
        match cache.lookup(p.fingerprint, &p.shape) {
            Lookup::Vacant => None,
            Lookup::Presented(PresentationHit { attribution, alias: None }) => {
                Some(p.map_back(&attribution))
            }
            Lookup::Presented(PresentationHit { attribution, alias: Some((order, canon)) }) => {
                Some(p.map_back_via(&order, &canon.order, &attribution))
            }
            Lookup::Occupied(residents) => {
                let (mine, _, _) = p.shape.canonicalize(None).unwrap();
                let resolved: Vec<(u64, Arc<CanonInfo>)> = residents
                    .iter()
                    .filter(|r| r.canon.is_none())
                    .map(|r| (r.id, Arc::new(r.shape.canonicalize(None).unwrap().0)))
                    .collect();
                let hit = cache.finish_lookup(p.fingerprint, &p.shape, &mine, &resolved)?;
                Some(p.map_back_via(&mine.order, &hit.canon.order, &hit.attribution))
            }
        }
    }

    /// The one value of a [`dummy_attribution`] served for any lineage.
    fn tag(attribution: &Attribution) -> u64 {
        let mut values = attribution.values.values();
        let value = values.next().expect("one value").exact().expect("exact");
        assert!(values.next().is_none());
        value.to_u64().expect("small tag")
    }

    fn insert(cache: &SharedCache, p: &Prekeyed, tag: u64) {
        cache.insert(p.fingerprint, &p.shape, None, dummy_attribution(tag));
    }

    /// A presentation-keyed attribution for a 3-path: the middle variable
    /// (degree 2) scores 100, the leaves 1 — asymmetric on purpose, so a
    /// stale canonical witness composed with another presentation's values
    /// is detectable.
    fn path3_attribution(p: &Prekeyed) -> Arc<Attribution> {
        let mut degree: HashMap<u32, usize> = HashMap::new();
        for clause in &p.shape.clauses {
            for &var in clause {
                *degree.entry(var).or_default() += 1;
            }
        }
        let values = degree
            .into_iter()
            .map(|(i, d)| (Var(i), Score::Exact(Natural::from(if d == 2 { 100u64 } else { 1 }))))
            .collect();
        Arc::new(Attribution {
            algorithm: "test",
            values,
            model_count: None,
            shapley: None,
            aggregate: None,
            aggregate_total: None,
            stats: EngineStats::default(),
            degradation: None,
        })
    }

    /// The original fact holding the middle (degree-2) position of a 3-path.
    fn path3_middle(p: &Prekeyed) -> Var {
        let mut degree: HashMap<u32, usize> = HashMap::new();
        for clause in &p.shape.clauses {
            for &var in clause {
                *degree.entry(var).or_default() += 1;
            }
        }
        let dense = degree.into_iter().find(|&(_, d)| d == 2).expect("3-path has a middle").0;
        p.originals[dense as usize]
    }

    #[test]
    fn lru_evicts_the_least_recently_used_shape() {
        let cache = SharedCache::new(2);
        let a = prekeyed_of(vec![vec![0]]);
        let b = prekeyed_of(vec![vec![0, 1]]);
        let c = prekeyed_of(vec![vec![0, 1, 2]]);
        insert(&cache, &a, 1);
        insert(&cache, &b, 2);
        // Touch `a` so `b` is the LRU victim.
        assert!(probe(&cache, &a).is_some());
        insert(&cache, &c, 3);
        let stats = cache.stats();
        assert_eq!(stats.entries, 2);
        assert_eq!(stats.evictions, 1);
        assert!(probe(&cache, &a).is_some(), "recently touched entry survives");
        assert!(probe(&cache, &b).is_none(), "LRU entry was evicted");
        assert!(probe(&cache, &c).is_some());
    }

    #[test]
    fn counters_track_hits_misses_and_insertions() {
        let cache = SharedCache::new(8);
        let p = prekeyed_of(vec![vec![0, 1]]);
        assert!(probe(&cache, &p).is_none());
        insert(&cache, &p, 7);
        assert!(probe(&cache, &p).is_some());
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.insertions, stats.evictions), (1, 1, 1, 0));
        assert_eq!(stats.entries, 1);
        assert!((stats.hit_rate() - 0.5).abs() < 1e-12);
        // Canonicalization telemetry flows through `record_canon`.
        cache.record_canon(5, 2, 1);
        let stats = cache.stats();
        assert_eq!((stats.canon_steps, stats.canon_searches, stats.prekey_skips), (5, 2, 1));
    }

    #[test]
    fn recency_queue_stays_bounded_under_repeated_hits() {
        let cache = SharedCache::new(4);
        let p = prekeyed_of(vec![vec![0]]);
        insert(&cache, &p, 1);
        for _ in 0..10_000 {
            assert!(probe(&cache, &p).is_some());
        }
        let inner = cache.inner.lock().unwrap();
        assert!(
            inner.recency.len() <= 64 + 4,
            "lazy LRU queue must be compacted, got {}",
            inner.recency.len()
        );
    }

    #[test]
    fn concurrent_sessions_share_entries() {
        let cache = std::sync::Arc::new(SharedCache::new(16));
        let p = prekeyed_of(vec![vec![0, 1, 2]]);
        insert(&cache, &p, 9);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..100 {
                        assert!(probe(&cache, &p).is_some());
                    }
                });
            }
        });
        assert_eq!(cache.stats().hits, 400);
    }

    #[test]
    fn snapshots_are_consistent_under_concurrent_lookups() {
        // Every worker alternates a guaranteed miss with a guaranteed hit —
        // miss first — so at any *consistent* point in time hits ≤ misses.
        // With the old torn snapshot (each counter its own relaxed atomic,
        // bumped after the lock was dropped) a reader could observe the hit
        // of a pair whose miss was still unrecorded and see hits > misses,
        // i.e. transient hit rates above their true value (and, with more
        // workers than pairs, above 1.0).
        let cache = SharedCache::new(8);
        let present = prekeyed_of(vec![vec![0, 1]]);
        let missing = prekeyed_of(vec![vec![0, 1, 2, 3]]);
        insert(&cache, &present, 1);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..2_000 {
                        assert!(probe(&cache, &missing).is_none());
                        assert!(probe(&cache, &present).is_some());
                    }
                });
            }
            for _ in 0..5_000 {
                let stats = cache.stats();
                assert!(
                    stats.hits <= stats.misses,
                    "torn snapshot: {} hits vs {} misses",
                    stats.hits,
                    stats.misses
                );
                assert!(stats.hit_rate() <= 1.0);
            }
        });
        let stats = cache.stats();
        assert_eq!(stats.hits, 8_000);
        assert_eq!(stats.misses, 8_000);
    }

    #[test]
    fn relabelled_lineages_share_one_key_and_shapes_key_apart() {
        // First-occurrence renaming keyed the 3-path by which variable held
        // the middle label ({x,y} ∨ {y,z} vs {y,x} ∨ {y,z}): one
        // isomorphism class, two keys, a spurious miss. The
        // refinement-based key identifies every labelling...
        let middle_mid = prekeyed_of(vec![vec![0, 1], vec![1, 2]]);
        let middle_large = prekeyed_of(vec![vec![9, 0], vec![9, 1]]);
        let middle_small = prekeyed_of(vec![vec![0, 1], vec![0, 2]]);
        assert_eq!(middle_mid.fingerprint, middle_large.fingerprint);
        let (mid, steps, _) = middle_mid.shape.canonicalize(None).unwrap();
        let (large, _, _) = middle_large.shape.canonicalize(None).unwrap();
        let (small, _, _) = middle_small.shape.canonicalize(None).unwrap();
        assert_eq!(mid.key, large.key, "isomorphic lineages must key equal");
        assert_eq!(mid.key, small.key, "isomorphic lineages must key equal");
        assert!(steps > 0);
        // ...while non-isomorphic shapes (different model counts) stay apart.
        let path4 = prekeyed_of(vec![vec![0, 1], vec![1, 2], vec![2, 3]]);
        let star4 = prekeyed_of(vec![vec![0, 1], vec![0, 2], vec![0, 3]]);
        assert_ne!(
            path4.shape.canonicalize(None).unwrap().0.key,
            star4.shape.canonicalize(None).unwrap().0.key,
            "non-isomorphic shapes must key apart"
        );
        // The path and the star already separate on the cheap pre-key (their
        // degree multisets differ), so a cache holding one never pays a
        // search when the other arrives.
        assert_ne!(path4.fingerprint, star4.fingerprint);
    }

    #[test]
    fn shared_fingerprint_shapes_occupy_separate_entries_via_lazy_canonicalization() {
        // Two triangles vs a hexagon: the classic 1-WL-equivalent pair
        // shares a fingerprint (equal counts, widths, degrees), so the
        // second arrival forces the lazy canonicalization of both — and the
        // exact keys must keep the entries apart.
        let triangles = prekeyed_of(vec![
            vec![0, 1],
            vec![1, 2],
            vec![2, 0],
            vec![3, 4],
            vec![4, 5],
            vec![5, 3],
        ]);
        let hexagon = prekeyed_of(vec![
            vec![0, 1],
            vec![1, 2],
            vec![2, 3],
            vec![3, 4],
            vec![4, 5],
            vec![5, 0],
        ]);
        assert_eq!(triangles.fingerprint, hexagon.fingerprint);
        let cache = SharedCache::new(8);
        assert!(probe(&cache, &triangles).is_none());
        insert(&cache, &triangles, 1);
        {
            // The first insert is lazy: no witness computed yet.
            let inner = cache.inner.lock().unwrap();
            assert!(inner.entries.values().all(|e| e.canon.is_none()));
        }
        // The hexagon contests the bucket, canonicalizes both shapes, and
        // still misses — non-isomorphic shapes are never served across.
        assert!(probe(&cache, &hexagon).is_none());
        insert(&cache, &hexagon, 2);
        assert_eq!(cache.stats().entries, 2, "colliding fingerprints keep separate entries");
        // Each shape now hits its own entry, with its own values.
        let t = probe(&cache, &triangles).expect("triangles hit their entry");
        let h = probe(&cache, &hexagon).expect("hexagon hits its entry");
        assert_eq!(tag(&t), 1);
        assert_eq!(tag(&h), 2);
        // A relabelled copy of the triangles still lands on the triangles'
        // entry (and transfers values through the composed witnesses).
        let relabelled = prekeyed_of(vec![
            vec![5, 3],
            vec![3, 1],
            vec![1, 5],
            vec![0, 2],
            vec![2, 4],
            vec![4, 0],
        ]);
        let r = probe(&cache, &relabelled).expect("relabelled triangles hit");
        assert_eq!(tag(&r), 1);
    }

    #[test]
    fn cross_presentation_reinsert_replaces_shape_and_witness_together() {
        // Two sessions race isomorphic 3-paths through *different dense
        // presentations* of a contested bucket: both carry a witness, and
        // the second insert matches the first by canonical key. The entry
        // must stay internally consistent — shape, witness and attribution
        // all in the last writer's presentation — or later hits compose the
        // first writer's stale witness with the second writer's values and
        // silently misattribute the middle variable.
        let a = prekeyed_of(vec![vec![0, 1], vec![1, 2]]); // middle at dense 1
        let b = prekeyed_of(vec![vec![0, 1], vec![0, 2]]); // middle at dense 0
        assert_ne!(*a.shape, *b.shape, "the presentations must differ");
        let (ca, _, _) = a.shape.canonicalize(None).unwrap();
        let (cb, _, _) = b.shape.canonicalize(None).unwrap();
        assert_eq!(ca.key, cb.key, "isomorphic shapes share one canonical key");
        let cache = SharedCache::new(8);
        cache.insert(a.fingerprint, &a.shape, Some(Arc::new(ca)), path3_attribution(&a));
        cache.insert(b.fingerprint, &b.shape, Some(Arc::new(cb)), path3_attribution(&b));
        assert_eq!(cache.stats().entries, 1, "equal canonical keys share one entry");
        // A third labelling hits the entry and maps the values back through
        // the composed witnesses: the middle fact must carry the middle
        // score regardless of which writer landed last.
        let c = prekeyed_of(vec![vec![7, 3], vec![3, 9]]); // middle fact: 3
        let mapped = probe(&cache, &c).expect("isomorphic probe hits the shared entry");
        assert_eq!(mapped.values[&v(3)].exact(), Some(Natural::from(100u64)));
        assert_eq!(mapped.values[&v(7)].exact(), Some(Natural::from(1u64)));
        assert_eq!(mapped.values[&v(9)].exact(), Some(Natural::from(1u64)));
    }

    #[test]
    fn concurrent_cross_presentation_inserts_never_corrupt_the_entry() {
        // The racy version of the scenario above: two threads repeatedly
        // insert the two presentations (each with its own witness, as serve
        // workers missing a contested bucket would) while verifying every
        // hit they observe. Any interleaving that leaves the entry's witness
        // and attribution in different presentations trips the middle-score
        // assertion.
        let cache = SharedCache::new(8);
        let presentations =
            [prekeyed_of(vec![vec![0, 1], vec![1, 2]]), prekeyed_of(vec![vec![0, 1], vec![0, 2]])];
        let cache = &cache;
        std::thread::scope(|scope| {
            for p in &presentations {
                scope.spawn(move || {
                    let mine = Arc::new(p.shape.canonicalize(None).unwrap().0);
                    let middle = path3_middle(p);
                    for _ in 0..500 {
                        cache.insert(
                            p.fingerprint,
                            &p.shape,
                            Some(Arc::clone(&mine)),
                            path3_attribution(p),
                        );
                        if let Some(mapped) = probe(cache, p) {
                            assert_eq!(
                                mapped.values[&middle].exact(),
                                Some(Natural::from(100u64)),
                                "stale witness composed with another presentation's values"
                            );
                        }
                    }
                });
            }
        });
        assert_eq!(cache.stats().entries, 1, "equal canonical keys share one entry");
    }

    /// A 4-path `a-b-c-d` under the labelling `(a, b, c, d)`.
    fn path4(a: u32, b: u32, c: u32, d: u32) -> Prekeyed {
        prekeyed_of(vec![vec![a, b], vec![b, c], vec![c, d]])
    }

    /// Asserts that `mapped` scores each of `p`'s facts as
    /// [`path3_attribution`] scores its position (100 for degree 2, else 1):
    /// what a compile of `p`'s own presentation would return.
    fn assert_degree_scores(p: &Prekeyed, mapped: &Attribution) {
        let want = p.map_back(&path3_attribution(p));
        assert_eq!(mapped.values.len(), want.values.len());
        for (fact, score) in &want.values {
            assert_eq!(mapped.values[fact].exact(), score.exact(), "{fact}");
        }
    }

    /// Whether `p`'s presentation settles on a known alias of a resident.
    fn is_alias_hit(cache: &SharedCache, p: &Prekeyed) -> bool {
        matches!(
            cache.lookup(p.fingerprint, &p.shape),
            Lookup::Presented(PresentationHit { alias: Some(_), .. })
        )
    }

    #[test]
    fn aliases_map_correctly_across_a_cross_presentation_swap() {
        // Three presentations of the 4-path. `p2` becomes an alias of the
        // entry `p1` inserted; then `p3` swaps in as the entry's own
        // presentation. `p2` must still map through its witness, and the
        // replaced `p1` must now settle as an alias too — serving the
        // swapped values through `p1`'s own renaming would hand a middle
        // score to an end.
        let (p1, p2, p3) = (path4(0, 1, 2, 3), path4(1, 0, 2, 3), path4(3, 1, 0, 2));
        assert!(*p1.shape != *p2.shape && *p2.shape != *p3.shape && *p1.shape != *p3.shape);
        assert!(p1.fingerprint == p2.fingerprint && p2.fingerprint == p3.fingerprint);
        let witness = |p: &Prekeyed| Some(Arc::new(p.shape.canonicalize(None).unwrap().0));
        let cache = SharedCache::new(8);
        cache.insert(p1.fingerprint, &p1.shape, witness(&p1), path3_attribution(&p1));
        for _ in 0..2 {
            assert!(!is_alias_hit(&cache, &p2), "an alias needs two sightings");
            assert_degree_scores(&p2, &probe(&cache, &p2).expect("canonical hit"));
        }
        assert!(is_alias_hit(&cache, &p2));
        cache.insert(p3.fingerprint, &p3.shape, witness(&p3), path3_attribution(&p3));
        assert_eq!(cache.stats().entries, 1, "the insert swapped the one entry");
        for p in [&p1, &p2] {
            assert!(is_alias_hit(&cache, p));
            assert_degree_scores(p, &probe(&cache, p).expect("alias hit"));
        }
        assert!(matches!(
            cache.lookup(p3.fingerprint, &p3.shape),
            Lookup::Presented(PresentationHit { alias: None, .. })
        ));
        assert_degree_scores(&p3, &probe(&cache, &p3).expect("own presentation"));
        // Swapping back drops `p1` from the aliases and keeps `p3` as one.
        cache.insert(p1.fingerprint, &p1.shape, witness(&p1), path3_attribution(&p1));
        let inner = cache.inner.lock().unwrap();
        let entry = inner.entries.values().next().expect("one entry");
        assert!(entry.shape == p1.shape);
        assert!(entry.alias_of(&p1.shape).is_none() && entry.alias_of(&p3.shape).is_some());
    }

    #[test]
    fn lru_eviction_drops_an_entrys_aliases() {
        let cache = SharedCache::new(1);
        let (p1, p2) = (path4(0, 1, 2, 3), path4(1, 0, 2, 3));
        cache.insert(p1.fingerprint, &p1.shape, None, path3_attribution(&p1));
        probe(&cache, &p2).expect("canonical hit");
        probe(&cache, &p2).expect("canonical hit");
        assert!(is_alias_hit(&cache, &p2));
        assert_eq!(Arc::strong_count(&p2.shape), 2, "the alias shares the probe's shape");
        insert(&cache, &prekeyed_of(vec![vec![0]]), 9);
        assert_eq!(cache.stats().evictions, 1);
        assert_eq!(Arc::strong_count(&p2.shape), 1, "the aliases died with their entry");
        cache.insert(p1.fingerprint, &p1.shape, None, path3_attribution(&p1));
        assert!(
            matches!(cache.lookup(p2.fingerprint, &p2.shape), Lookup::Occupied(_)),
            "a re-inserted entry starts without aliases"
        );
    }

    /// `count` distinct presentations of one 7-path, none equal to the
    /// ascending labelling's.
    fn path7_presentations(count: usize) -> Vec<Prekeyed> {
        use rand::{Rng, SeedableRng};
        let labelled =
            |labels: &[u32]| prekeyed_of(labels.windows(2).map(<[u32]>::to_vec).collect());
        let mut found = vec![labelled(&[0, 1, 2, 3, 4, 5, 6])];
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        for _ in 0..10_000 {
            let mut labels: Vec<u32> = (0..7).collect();
            for i in (1..labels.len()).rev() {
                labels.swap(i, rng.gen_range(0..=i));
            }
            let p = labelled(&labels);
            if found.iter().all(|q| q.shape != p.shape) {
                found.push(p);
            }
            if found.len() > count {
                return found.split_off(1);
            }
        }
        panic!("the 7-path has more than {count} presentations");
    }

    #[test]
    fn aliases_are_learned_on_the_second_sighting_up_to_the_cap() {
        let own = prekeyed_of((0..6u32).map(|k| vec![k, k + 1]).collect());
        let others = path7_presentations(ALIAS_CAP + 1);
        let cache = SharedCache::new(8);
        insert(&cache, &own, 1);
        let aliases = |cache: &SharedCache| {
            let inner = cache.inner.lock().unwrap();
            let entry = inner.entries.values().next().expect("one entry");
            (entry.aliases.len(), entry.sightings.len())
        };
        for p in &others {
            assert_eq!(tag(&probe(&cache, p).expect("canonical hit")), 1);
        }
        assert_eq!(aliases(&cache), (0, ALIAS_CAP + 1), "one sighting records no alias");
        for p in &others {
            assert_eq!(tag(&probe(&cache, p).expect("canonical hit")), 1);
        }
        assert_eq!(aliases(&cache).0, ALIAS_CAP, "the cap holds");
        for p in &others[..ALIAS_CAP] {
            assert!(is_alias_hit(&cache, p));
        }
        assert!(matches!(
            cache.lookup(others[ALIAS_CAP].fingerprint, &others[ALIAS_CAP].shape),
            Lookup::Occupied(_)
        ));
        // First sightings are remembered oldest-out: past the bound, the
        // oldest one needs two more sightings, the newest one just one.
        let cache = SharedCache::new(8);
        insert(&cache, &own, 1);
        let others = path7_presentations(SIGHTINGS_CAP + 1);
        for p in &others {
            probe(&cache, p).expect("canonical hit");
        }
        assert_eq!(aliases(&cache), (0, SIGHTINGS_CAP));
        probe(&cache, &others[0]).expect("canonical hit");
        probe(&cache, &others[SIGHTINGS_CAP]).expect("canonical hit");
        assert!(!is_alias_hit(&cache, &others[0]), "its first sighting was forgotten");
        assert!(is_alias_hit(&cache, &others[SIGHTINGS_CAP]));
    }

    #[test]
    fn dense_dnf_is_isomorphic_to_the_input() {
        // The backend runs the dense presentation; it must be the same
        // function modulo renaming — model counts are renaming-invariant.
        let phi = Dnf::from_clauses(vec![vec![v(7), v(2)], vec![v(2), v(5)], vec![v(9)]]);
        let dense = Prekeyed::of(Lineage::Boolean(&phi)).dense_dnf();
        assert_eq!(
            phi.brute_force_model_count(),
            dense.brute_force_model_count(),
            "dense renaming must preserve the function"
        );
        assert_eq!(dense.num_vars(), phi.num_vars());
    }

    #[test]
    fn clear_preserves_counters() {
        let cache = SharedCache::new(4);
        let p = prekeyed_of(vec![vec![0]]);
        insert(&cache, &p, 1);
        assert!(probe(&cache, &p).is_some());
        cache.clear();
        assert!(probe(&cache, &p).is_none());
        let stats = cache.stats();
        assert_eq!(stats.entries, 0);
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.insertions, 1);
    }

    fn weighted_of(kind: AggregateKind, clauses: Vec<(Vec<u32>, i64)>) -> Prekeyed {
        let lineage = WeightedDnf::from_weighted_clauses(
            kind,
            clauses
                .into_iter()
                .map(|(c, w)| (c.into_iter().map(Var).collect::<Vec<Var>>(), Rational::from(w))),
        );
        Prekeyed::of(Lineage::Aggregate(&lineage))
    }

    #[test]
    fn weighted_lineages_key_apart_from_their_boolean_skeleton() {
        let boolean = prekeyed_of(vec![vec![0, 1], vec![1, 2]]);
        let weighted = weighted_of(AggregateKind::Sum, vec![(vec![0, 1], 3), (vec![1, 2], 5)]);
        // Even the cheap pre-key separates them: Boolean payload is 0,
        // weighted payloads never are.
        assert_ne!(boolean.fingerprint, weighted.fingerprint);
        let cache = SharedCache::new(8);
        insert(&cache, &boolean, 1);
        assert!(probe(&cache, &weighted).is_none(), "weighted probe must not hit a Boolean entry");
        insert(&cache, &weighted, 2);
        assert_eq!(cache.stats().entries, 2);
        assert!(probe(&cache, &boolean).is_some());
        assert!(probe(&cache, &weighted).is_some());
    }

    #[test]
    fn different_kinds_or_weights_occupy_separate_entries() {
        let sum = weighted_of(AggregateKind::Sum, vec![(vec![0, 1], 3), (vec![1, 2], 5)]);
        let count = weighted_of(AggregateKind::Count, vec![(vec![0, 1], 3), (vec![1, 2], 5)]);
        let other = weighted_of(AggregateKind::Sum, vec![(vec![0, 1], 3), (vec![1, 2], 7)]);
        assert_ne!(sum.fingerprint, count.fingerprint, "kind is part of the pre-key");
        assert_ne!(sum.fingerprint, other.fingerprint, "weights are part of the pre-key");
        let cache = SharedCache::new(8);
        insert(&cache, &sum, 1);
        assert!(probe(&cache, &count).is_none(), "a SUM lineage never serves a COUNT hit");
        assert!(probe(&cache, &other).is_none(), "different weights never share a hit");
        // The skeleton presentation is shared, but kind and weights are part
        // of the presentation: none of them settles on the SUM entry.
        let boolean = prekeyed_of(vec![vec![0, 1], vec![1, 2]]);
        for variant in [&count, &other, &boolean] {
            assert_eq!(variant.shape.clauses, sum.shape.clauses, "one skeleton presentation");
            assert!(matches!(cache.lookup(sum.fingerprint, &variant.shape), Lookup::Occupied(_)));
        }
        assert!(matches!(cache.lookup(sum.fingerprint, &sum.shape), Lookup::Presented(_)));
        insert(&cache, &count, 2);
        insert(&cache, &other, 3);
        assert_eq!(cache.stats().entries, 3);
    }

    #[test]
    fn isomorphic_weighted_lineages_share_one_entry() {
        // The same weighted 3-path under two labellings — the weight must
        // follow its clause through the renaming for the keys to agree.
        let a = weighted_of(AggregateKind::Max, vec![(vec![0, 1], 2), (vec![1, 2], 9)]);
        let b = weighted_of(AggregateKind::Max, vec![(vec![7, 3], 9), (vec![3, 9], 2)]);
        assert_eq!(a.fingerprint, b.fingerprint);
        assert_eq!(
            a.shape.canonicalize(None).unwrap().0.key,
            b.shape.canonicalize(None).unwrap().0.key
        );
        let cache = SharedCache::new(8);
        insert(&cache, &a, 1);
        assert!(probe(&cache, &b).is_some(), "isomorphic weighted lineages share an entry");
        // Swapping the two weights *also* shares the entry — the 3-path's
        // reflection is a genuine weighted isomorphism carrying each weight
        // to its clause's image, so the swap is a relabelling in disguise.
        let swapped = weighted_of(AggregateKind::Max, vec![(vec![0, 1], 9), (vec![1, 2], 2)]);
        assert_eq!(
            a.shape.canonicalize(None).unwrap().0.key,
            swapped.shape.canonicalize(None).unwrap().0.key
        );
        assert!(probe(&cache, &swapped).is_some(), "the reflected 3-path is the same function");
        // On a skeleton whose automorphisms can NOT realize the move — the
        // 4-path, whose only symmetry is the reflection fixing the middle —
        // shifting the odd weight from the middle clause to an end clause
        // is a different weighted function and must key apart. The pre-key
        // cannot see the difference (equal width, degree, and
        // (width, weight) multisets), so this resolves at the canonical key.
        let middle = weighted_of(
            AggregateKind::Max,
            vec![(vec![0, 1], 2), (vec![1, 2], 9), (vec![2, 3], 2)],
        );
        let end = weighted_of(
            AggregateKind::Max,
            vec![(vec![0, 1], 9), (vec![1, 2], 2), (vec![2, 3], 2)],
        );
        assert_eq!(middle.fingerprint, end.fingerprint);
        assert_ne!(
            middle.shape.canonicalize(None).unwrap().0.key,
            end.shape.canonicalize(None).unwrap().0.key
        );
        insert(&cache, &middle, 2);
        assert!(probe(&cache, &end).is_none(), "weight placement distinguishes entries");
    }

    #[test]
    fn weighted_entries_stay_out_of_snapshots() {
        let cache = SharedCache::new(8);
        let boolean = prekeyed_of(vec![vec![0, 1]]);
        let weighted = weighted_of(AggregateKind::Count, vec![(vec![0, 1], 1)]);
        insert(&cache, &boolean, 1);
        insert(&cache, &weighted, 2);
        let exported = cache.export_entries();
        assert_eq!(exported.len(), 1, "only the Boolean entry is persisted");
        assert!(exported[0].shape.payload.is_none());
    }

    #[test]
    fn dense_weighted_lineage_preserves_the_aggregate() {
        // The backend runs the dense weighted presentation; its Banzhaf
        // values must be those of the original modulo renaming.
        let lineage = WeightedDnf::from_weighted_clauses(
            AggregateKind::Sum,
            vec![
                (vec![Var(7), Var(2)], Rational::from(3i64)),
                (vec![Var(2), Var(5)], Rational::from(5i64)),
            ],
        );
        let prekeyed = Prekeyed::of(Lineage::Aggregate(&lineage));
        assert!(prekeyed.is_aggregate());
        assert!(Prekeyed::of(Lineage::Boolean(lineage.dnf())).dense_weighted().is_none());
        let dense = prekeyed.dense_weighted().expect("a weighted lookup builds a weighted lineage");
        assert_eq!(dense.kind(), AggregateKind::Sum);
        assert_eq!(dense.num_vars(), lineage.num_vars());
        for (dense_var, original_var) in prekeyed.originals.iter().enumerate() {
            assert_eq!(
                dense.brute_force_aggregate_banzhaf(Var(dense_var as u32)),
                lineage.brute_force_aggregate_banzhaf(*original_var),
                "dense renaming must preserve per-fact aggregate Banzhaf values"
            );
        }
    }

    /// The dense renaming as it was first written: a hash map from fact to
    /// first-occurrence id, and a hash map from clause to weight.
    mod oracle {
        use super::*;

        pub(super) fn of(lineage: &Dnf) -> (Shape, Vec<Var>, Fingerprint) {
            let mut ids: HashMap<Var, u32> = HashMap::new();
            let mut originals: Vec<Var> = Vec::new();
            let mut rename = |v: Var, originals: &mut Vec<Var>| -> u32 {
                *ids.entry(v).or_insert_with(|| {
                    originals.push(v);
                    (originals.len() - 1) as u32
                })
            };
            let mut clauses: Vec<Vec<u32>> = lineage
                .clauses()
                .iter()
                .map(|c| {
                    let mut clause: Vec<u32> =
                        c.iter().map(|v| rename(v, &mut originals)).collect();
                    clause.sort_unstable();
                    clause
                })
                .collect();
            clauses.sort_unstable();
            for v in lineage.universe().iter() {
                rename(v, &mut originals);
            }
            let num_vars = originals.len();
            let fp = fingerprint(num_vars, &clauses);
            (Shape { num_vars, clauses, payload: None }, originals, fp)
        }

        pub(super) fn weighted(lineage: &WeightedDnf) -> (Shape, Vec<Var>, Fingerprint) {
            let (base, originals, fp) = of(lineage.dnf());
            let by_clause: HashMap<Vec<Var>, &Rational> = lineage
                .dnf()
                .clauses()
                .iter()
                .zip(lineage.weights())
                .map(|(c, w)| (c.vars().to_vec(), w))
                .collect();
            let weights: Vec<Rational> = base
                .clauses
                .iter()
                .map(|c| {
                    let mut vars: Vec<Var> = c.iter().map(|&i| originals[i as usize]).collect();
                    vars.sort_unstable();
                    by_clause[&vars].clone()
                })
                .collect();
            let kind = lineage.kind();
            let fp = fp.with_payload(weighted_payload(kind, &base.clauses, &weights));
            let payload = Some(WeightedInfo { kind, weights });
            (Shape { payload, ..base }, originals, fp)
        }
    }

    /// A random lineage over facts drawn sparsely from `0..200`, with
    /// `unused` more universe facts that no clause mentions, and a random
    /// weight per clause.
    fn random_lineage(
        rng: &mut rand::rngs::StdRng,
        unused: usize,
    ) -> (Dnf, Vec<(Vec<Var>, Rational)>) {
        use rand::Rng;
        let facts: Vec<Var> =
            (0..rng.gen_range(1..12usize)).map(|_| Var(rng.gen_range(0..200u32))).collect();
        let clauses: Vec<(Vec<Var>, Rational)> = (0..rng.gen_range(1..8usize))
            .map(|_| {
                let width = rng.gen_range(1..4usize);
                let clause = (0..width).map(|_| facts[rng.gen_range(0..facts.len())]).collect();
                (clause, Rational::from(rng.gen_range(1..4i64)))
            })
            .collect();
        let mut universe: VarSet = clauses.iter().flat_map(|(c, _)| c.iter().copied()).collect();
        for _ in 0..unused {
            universe.insert(Var(rng.gen_range(0..200u32)));
        }
        let dnf = Dnf::from_clauses_with_universe(clauses.iter().map(|(c, _)| c.clone()), universe);
        (dnf, clauses)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        #[test]
        fn dense_presentation_matches_the_hashed_renaming(
            seed in proptest::prelude::any::<u64>(),
            unused in 0usize..4,
        ) {
            use rand::SeedableRng;
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let (dnf, clauses) = random_lineage(&mut rng, unused);
            let prekeyed = Prekeyed::of(Lineage::Boolean(&dnf));
            let (shape, originals, fp) = oracle::of(&dnf);
            proptest::prop_assert_eq!(&*prekeyed.shape, &shape);
            proptest::prop_assert_eq!(&prekeyed.originals, &originals);
            proptest::prop_assert_eq!(prekeyed.fingerprint, fp);
            for kind in [AggregateKind::Sum, AggregateKind::Max] {
                let weighted = WeightedDnf::from_weighted_clauses(kind, clauses.clone())
                    .widen_universe(dnf.universe().clone());
                let prekeyed = Prekeyed::of(Lineage::Aggregate(&weighted));
                let (shape, originals, fp) = oracle::weighted(&weighted);
                proptest::prop_assert_eq!(&*prekeyed.shape, &shape);
                proptest::prop_assert_eq!(&prekeyed.originals, &originals);
                proptest::prop_assert_eq!(prekeyed.fingerprint, fp);
            }
        }
    }
}
