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
//! * **Keying: fingerprint, then exact presentation, then canonical key.**
//!   Every lookup first computes a cheap isomorphism-invariant [`Fingerprint`]
//!   (variable/clause counts plus hashed clause-width and variable-degree
//!   multisets — one linear pass, no refinement). Isomorphic lineages always
//!   share a fingerprint, so an empty fingerprint bucket is a **definite
//!   miss**: the lineage is compiled and inserted under its fingerprint with
//!   the canonical form left *uncomputed*. In an occupied bucket, a resident
//!   whose dense [`Shape`] equals the probe's — the same presentation, with
//!   the aggregate payload — settles the lookup with no search
//!   ([`SharedCache::settle_presentation`]): its values were computed on
//!   that very dense form. Only when no resident shares the presentation
//!   does anyone pay for canonicalization
//!   — the new arrival and any still-unkeyed residents are canonicalized
//!   ([`CanonicalKey`], the decomposed canonical renaming of
//!   [`crate::canon`]) and compared exactly. Singleton fingerprints — the
//!   common case for heterogeneous traffic — never compute a canonical key
//!   at all; the searches avoided this way are counted as
//!   [`CacheStats::prekey_skips`].
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
use banzhaf_boolean::{AggregateKind, Dnf, Var, VarSet, WeightedDnf};
use std::collections::{HashMap, VecDeque};
use std::fmt;
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
#[derive(PartialEq, Eq, Debug)]
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
    /// canonical renaming and the keying steps it cost, or `None` when
    /// `budget` ran out mid-way: the caller then treats the shape as
    /// unkeyable (a definite miss) rather than stalling the planning walk.
    /// The weighted payload rides along as clause classes, so a weighted
    /// shape keys class-aware at every stage.
    pub(crate) fn canonicalize(&self, budget: Option<&Budget>) -> Option<(CanonInfo, u64)> {
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
        ))
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
/// [`Shape::canonicalize`]) when the fingerprint bucket is contested.
pub(crate) struct Prekeyed {
    pub(crate) fingerprint: Fingerprint,
    pub(crate) shape: Arc<Shape>,
    /// The same function over the dense variables `0..n` — what the backends
    /// run; results are renamed back to the original facts via
    /// [`Prekeyed::map_back`].
    pub(crate) dnf: Dnf,
    /// For aggregate lookups ([`Prekeyed::of_weighted`]): the dense weighted
    /// lineage the backends run, `None` for Boolean lookups.
    pub(crate) weighted: Option<WeightedDnf>,
    /// Dense variable → original fact.
    originals: Vec<Var>,
}

impl Prekeyed {
    /// Renames variables to `0..n` by first occurrence (clauses first, then
    /// the unused universe padding), computes the fingerprint, and builds
    /// the dense [`Dnf`] the backends will run. No refinement, no search —
    /// one linear pass.
    pub(crate) fn of(lineage: &Dnf) -> Prekeyed {
        let mut ids: HashMap<Var, u32> = HashMap::with_capacity(lineage.num_vars());
        let mut originals: Vec<Var> = Vec::with_capacity(lineage.num_vars());
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
                let mut clause: Vec<u32> = c.iter().map(|v| rename(v, &mut originals)).collect();
                clause.sort_unstable();
                clause
            })
            .collect();
        clauses.sort_unstable();
        for v in lineage.universe().iter() {
            rename(v, &mut originals);
        }
        let num_vars = originals.len();
        let universe = VarSet::from_sorted((0..num_vars as u32).map(Var).collect());
        let dnf = Dnf::from_clauses_with_universe(
            clauses.iter().map(|c| c.iter().map(|&i| Var(i))),
            universe,
        );
        Prekeyed {
            fingerprint: fingerprint(num_vars, &clauses),
            shape: Arc::new(Shape { num_vars, clauses, payload: None }),
            dnf,
            weighted: None,
            originals,
        }
    }

    /// [`Prekeyed::of`] for a weighted aggregate lineage: the Boolean
    /// skeleton is densely renamed exactly as for a Boolean lookup, the
    /// weights follow their clauses through the rename, and the fingerprint
    /// gains the renaming-invariant aggregate payload digest — so weighted
    /// lookups never even share a bucket with Boolean ones (or with a
    /// different kind or weight multiset).
    pub(crate) fn of_weighted(lineage: &WeightedDnf) -> Prekeyed {
        let base = Prekeyed::of(lineage.dnf());
        // The weighted clauses are distinct (duplicates were merged at
        // construction), so a sorted-variable-list lookup recovers each dense
        // clause's weight unambiguously.
        let by_clause: HashMap<Vec<Var>, &Rational> = lineage
            .dnf()
            .clauses()
            .iter()
            .zip(lineage.weights())
            .map(|(c, w)| {
                let mut vars = c.vars().to_vec();
                vars.sort_unstable();
                (vars, w)
            })
            .collect();
        let weights: Vec<Rational> = base
            .shape
            .clauses
            .iter()
            .map(|c| {
                let mut vars: Vec<Var> = c.iter().map(|&i| base.originals[i as usize]).collect();
                vars.sort_unstable();
                by_clause[&vars].clone()
            })
            .collect();
        let kind = lineage.kind();
        let fingerprint =
            base.fingerprint.with_payload(weighted_payload(kind, &base.shape.clauses, &weights));
        let weighted = WeightedDnf::from_weighted_clauses(
            kind,
            base.shape
                .clauses
                .iter()
                .zip(&weights)
                .map(|(c, w)| (c.iter().map(|&i| Var(i)).collect::<Vec<Var>>(), w.clone())),
        )
        .widen_universe(base.dnf.universe().clone());
        let shape = Arc::new(Shape {
            num_vars: base.shape.num_vars,
            clauses: base.shape.clauses.clone(),
            payload: Some(WeightedInfo { kind, weights }),
        });
        Prekeyed {
            fingerprint,
            shape,
            dnf: base.dnf,
            weighted: Some(weighted),
            originals: base.originals,
        }
    }

    /// Renames a dense-variable attribution (computed on [`Prekeyed::dnf`])
    /// back to the original facts.
    pub(crate) fn map_back(&self, dense: &Attribution) -> Attribution {
        Self::rename_through(dense, |v| self.originals[v.index()])
    }

    /// Renames an attribution computed on *another* isomorphic shape back to
    /// this lineage's original facts, composing the two canonical witnesses:
    /// canonical index `i` is the owner's dense variable `owner.order[i]`
    /// and this lineage's dense variable `mine.order[i]`.
    pub(crate) fn map_back_via(
        &self,
        mine: &CanonInfo,
        owner: &CanonInfo,
        dense: &Attribution,
    ) -> Attribution {
        debug_assert_eq!(mine.key, owner.key, "witness composition requires equal keys");
        let mut through = vec![Var(0); self.originals.len()];
        for (&theirs, &ours) in owner.order.iter().zip(mine.order.iter()) {
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
    /// Canonical keys actually computed by the engine's sessions
    /// (one per shape canonicalized — lookups resolved by the fingerprint
    /// alone run none, and neither do presentation hits, which count in
    /// `hits`).
    pub canon_searches: u64,
    /// Lookups resolved without any individualization search because their
    /// fingerprint bucket was vacant (the common case for heterogeneous
    /// traffic). Presentation hits run no search either, but count in
    /// `hits`, not here.
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
    /// Residents share the fingerprint. A resident with the probe's exact
    /// presentation settles through [`SharedCache::settle_presentation`];
    /// otherwise canonicalize (outside the lock!) the probe and any resident
    /// returned with `canon: None`, then settle the lookup with
    /// [`SharedCache::finish_lookup`].
    Occupied(Vec<Resident>),
}

/// One cache entry visible to a contested lookup.
pub(crate) struct Resident {
    pub(crate) id: u64,
    pub(crate) shape: Arc<Shape>,
    /// The entry's canonical renaming, if some earlier contested lookup
    /// already paid for it.
    pub(crate) canon: Option<Arc<CanonInfo>>,
}

/// A settled cache hit: the stored dense attribution plus the owning entry's
/// canonical witness (compose with the probe's own witness to rename the
/// values — see [`Prekeyed::map_back_via`]).
pub(crate) struct CacheHit {
    pub(crate) attribution: Arc<Attribution>,
    pub(crate) canon: Arc<CanonInfo>,
}

struct CacheEntry {
    fingerprint: Fingerprint,
    shape: Arc<Shape>,
    /// `Arc`ed so a hit hands the value out with an O(1) refcount bump — the
    /// deep copy (`Prekeyed::map_back_via`) happens outside the lock. The
    /// attribution is over the entry's *dense* variables.
    attribution: Arc<Attribution>,
    /// Computed lazily, only once the fingerprint bucket is contested.
    canon: Option<Arc<CanonInfo>>,
    /// The tick of this entry's most recent touch; queue pairs with an older
    /// tick are stale.
    tick: u64,
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
/// exact presentation second and canonical lineage third.
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

    /// Phase one of a lookup: inspects the fingerprint bucket. A vacant
    /// bucket is a definite miss (counted here); an occupied one returns the
    /// candidate residents so the caller can canonicalize outside the lock
    /// and settle with [`SharedCache::finish_lookup`].
    pub(crate) fn lookup(&self, fp: Fingerprint) -> Lookup {
        // Fault injection: simulate lock contention (a Sleep action stalls
        // the caller right before the acquisition).
        banzhaf_par::failpoint!("cache::lookup");
        let mut inner = self.inner.lock().expect("cache lock poisoned");
        match inner.buckets.get(&fp) {
            Some(ids) if !ids.is_empty() => {
                let residents = ids
                    .iter()
                    .map(|&id| {
                        let entry = &inner.entries[&id];
                        Resident { id, shape: Arc::clone(&entry.shape), canon: entry.canon.clone() }
                    })
                    .collect();
                Lookup::Occupied(residents)
            }
            _ => {
                inner.misses += 1;
                Lookup::Vacant
            }
        }
    }

    /// Phase two of a contested lookup: stores the canonical renamings the
    /// caller computed for previously-unkeyed residents (`resolved`), then
    /// scans the bucket for an entry whose canonical key equals `key`. A
    /// match is a hit (recency refreshed); no match is a miss. Exactly one
    /// of `hits`/`misses` is incremented.
    pub(crate) fn finish_lookup(
        &self,
        fp: Fingerprint,
        key: &CanonicalKey,
        resolved: &[(u64, Arc<CanonInfo>)],
    ) -> Option<CacheHit> {
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
        inner.tick += 1;
        let tick = inner.tick;
        let ids = inner.buckets.get(&fp).cloned().unwrap_or_default();
        for id in ids {
            let entry = &inner.entries[&id];
            let matches = entry.canon.as_ref().is_some_and(|c| c.key == *key);
            if matches {
                let entry = inner.entries.get_mut(&id).expect("resident just seen");
                entry.tick = tick;
                let hit = CacheHit {
                    attribution: Arc::clone(&entry.attribution),
                    canon: Arc::clone(entry.canon.as_ref().expect("matched on canon")),
                };
                inner.recency.push_back((id, tick));
                inner.hits += 1;
                Self::compact(&mut inner);
                return Some(hit);
            }
        }
        inner.misses += 1;
        None
    }

    /// Settles an occupied lookup by exact presentation, without any
    /// canonicalization: if resident `id` still holds `shape` — re-checked
    /// here, under the lock, because a cross-presentation [`SharedCache::insert`]
    /// may have swapped the entry's shape, witness and values since the
    /// [`SharedCache::lookup`] that reported it — the entry's recency is
    /// refreshed, a hit is counted, and its dense attribution is returned.
    /// The values were computed on this very dense form, so the caller maps
    /// them back with [`Prekeyed::map_back`]. `None` (entry evicted or
    /// swapped) counts nothing: the caller settles through the canonical
    /// path instead.
    pub(crate) fn settle_presentation(&self, id: u64, shape: &Shape) -> Option<Arc<Attribution>> {
        let mut inner = self.inner.lock().expect("cache lock poisoned");
        if !inner.entries.get(&id).is_some_and(|e| *e.shape == *shape) {
            return None;
        }
        inner.tick += 1;
        let tick = inner.tick;
        let entry = inner.entries.get_mut(&id).expect("resident just seen");
        entry.tick = tick;
        let attribution = Arc::clone(&entry.attribution);
        inner.recency.push_back((id, tick));
        inner.hits += 1;
        Self::compact(&mut inner);
        Some(attribution)
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
                debug_assert!(canon.is_some(), "cross-presentation match requires a witness");
                entry.shape = Arc::clone(shape);
                entry.canon = canon;
            }
            entry.attribution = attribution;
            entry.tick = tick;
            inner.recency.push_back((id, tick));
        } else {
            let id = inner.next_id;
            inner.next_id += 1;
            inner.entries.insert(
                id,
                CacheEntry { fingerprint: fp, shape: Arc::clone(shape), attribution, canon, tick },
            );
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
            CacheEntry {
                fingerprint: entry.fingerprint,
                shape: entry.shape,
                attribution: entry.attribution,
                canon: entry.canon,
                tick,
            },
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
        self.shard_index(Prekeyed::of(lineage).fingerprint)
    }

    fn shard(&self, fp: Fingerprint) -> &SharedCache {
        &self.shards[self.shard_index(fp)]
    }

    /// Routed [`SharedCache::lookup`].
    pub(crate) fn lookup(&self, fp: Fingerprint) -> Lookup {
        self.shard(fp).lookup(fp)
    }

    /// Routed [`SharedCache::finish_lookup`].
    pub(crate) fn finish_lookup(
        &self,
        fp: Fingerprint,
        key: &CanonicalKey,
        resolved: &[(u64, Arc<CanonInfo>)],
    ) -> Option<CacheHit> {
        self.shard(fp).finish_lookup(fp, key, resolved)
    }

    /// Routed [`SharedCache::settle_presentation`].
    pub(crate) fn settle_presentation(
        &self,
        fp: Fingerprint,
        id: u64,
        shape: &Shape,
    ) -> Option<Arc<Attribution>> {
        self.shard(fp).settle_presentation(id, shape)
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
    let prekeyed = Prekeyed::of(lineage);
    let (_, steps) = prekeyed.shape.canonicalize(None).expect("no budget, no interrupt");
    steps
}

/// Computes only the fingerprint pre-key of `lineage` (the work a
/// vacant-bucket lookup pays) and returns a digest of it so the computation
/// cannot be optimized away. A benchmarking probe.
pub fn prekey_probe(lineage: &Dnf) -> u64 {
    use std::hash::{Hash, Hasher};
    let prekeyed = Prekeyed::of(lineage);
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
        Prekeyed::of(&Dnf::from_clauses(clauses))
    }

    /// Runs the full two-phase lookup protocol the session uses: fingerprint
    /// first; on contention canonicalize the probe and any unkeyed
    /// residents, then settle.
    fn probe(cache: &SharedCache, p: &Prekeyed) -> Option<CacheHit> {
        match cache.lookup(p.fingerprint) {
            Lookup::Vacant => None,
            Lookup::Occupied(residents) => {
                let (mine, _) = p.shape.canonicalize(None).unwrap();
                let resolved: Vec<(u64, Arc<CanonInfo>)> = residents
                    .iter()
                    .filter(|r| r.canon.is_none())
                    .map(|r| (r.id, Arc::new(r.shape.canonicalize(None).unwrap().0)))
                    .collect();
                cache.finish_lookup(p.fingerprint, &mine.key, &resolved)
            }
        }
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
        let (mid, steps) = middle_mid.shape.canonicalize(None).unwrap();
        let (large, _) = middle_large.shape.canonicalize(None).unwrap();
        let (small, _) = middle_small.shape.canonicalize(None).unwrap();
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
        assert_eq!(t.attribution.values[&v(0)].exact(), Some(Natural::from(1u64)));
        assert_eq!(h.attribution.values[&v(0)].exact(), Some(Natural::from(2u64)));
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
        assert_eq!(r.attribution.values[&v(0)].exact(), Some(Natural::from(1u64)));
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
        let (ca, _) = a.shape.canonicalize(None).unwrap();
        let (cb, _) = b.shape.canonicalize(None).unwrap();
        assert_eq!(ca.key, cb.key, "isomorphic shapes share one canonical key");
        let cache = SharedCache::new(8);
        cache.insert(a.fingerprint, &a.shape, Some(Arc::new(ca)), path3_attribution(&a));
        cache.insert(b.fingerprint, &b.shape, Some(Arc::new(cb)), path3_attribution(&b));
        assert_eq!(cache.stats().entries, 1, "equal canonical keys share one entry");
        // A third labelling hits the entry and maps the values back through
        // the composed witnesses: the middle fact must carry the middle
        // score regardless of which writer landed last.
        let c = prekeyed_of(vec![vec![7, 3], vec![3, 9]]); // middle fact: 3
        let (mine, _) = c.shape.canonicalize(None).unwrap();
        let hit = probe(&cache, &c).expect("isomorphic probe hits the shared entry");
        let mapped = c.map_back_via(&mine, &hit.canon, &hit.attribution);
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
                        if let Some(hit) = probe(cache, p) {
                            let mapped = p.map_back_via(&mine, &hit.canon, &hit.attribution);
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

    #[test]
    fn presentation_settle_refuses_an_entry_swapped_since_the_lookup() {
        // The lookup reports a resident holding the probe's presentation; a
        // racing cross-presentation insert then swaps the entry to another
        // labelling before the settle. The settle must re-check under the
        // lock and refuse — serving the swapped values through the probe's
        // own renaming would hand the middle score to a leaf — and the
        // canonical path must still serve the right values.
        let a = prekeyed_of(vec![vec![0, 1], vec![1, 2]]); // middle at dense 1
        let b = prekeyed_of(vec![vec![0, 1], vec![0, 2]]); // middle at dense 0
        let cache = SharedCache::new(8);
        let mine = Arc::new(a.shape.canonicalize(None).unwrap().0);
        cache.insert(a.fingerprint, &a.shape, Some(Arc::clone(&mine)), path3_attribution(&a));
        let Lookup::Occupied(residents) = cache.lookup(a.fingerprint) else {
            panic!("the entry is resident");
        };
        let resident = residents.iter().find(|r| r.shape == a.shape).expect("same presentation");
        let theirs = Arc::new(b.shape.canonicalize(None).unwrap().0);
        cache.insert(b.fingerprint, &b.shape, Some(theirs), path3_attribution(&b));
        assert_eq!(cache.stats().entries, 1, "the insert swapped the one entry");
        assert!(cache.settle_presentation(resident.id, &a.shape).is_none());
        assert_eq!(cache.stats().hits, 0, "a refused settle counts nothing");
        let hit = cache.finish_lookup(a.fingerprint, &mine.key, &[]).expect("canonical hit");
        let mapped = a.map_back_via(&mine, &hit.canon, &hit.attribution);
        assert_eq!(mapped.values[&path3_middle(&a)].exact(), Some(Natural::from(100u64)));
        // An unswapped entry settles by presentation and maps back directly.
        let hit = cache.settle_presentation(resident.id, &b.shape).expect("b holds the entry");
        let mapped = b.map_back(&hit);
        assert_eq!(mapped.values[&path3_middle(&b)].exact(), Some(Natural::from(100u64)));
        assert_eq!(cache.stats().hits, 2);
    }

    #[test]
    fn dense_dnf_is_isomorphic_to_the_input() {
        // The backend runs the dense presentation; it must be the same
        // function modulo renaming — model counts are renaming-invariant.
        let phi = Dnf::from_clauses(vec![vec![v(7), v(2)], vec![v(2), v(5)], vec![v(9)]]);
        let prekeyed = Prekeyed::of(&phi);
        assert_eq!(
            phi.brute_force_model_count(),
            prekeyed.dnf.brute_force_model_count(),
            "dense renaming must preserve the function"
        );
        assert_eq!(prekeyed.dnf.num_vars(), phi.num_vars());
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
        Prekeyed::of_weighted(&lineage)
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
        let Lookup::Occupied(residents) = cache.lookup(sum.fingerprint) else {
            panic!("the SUM entry is resident");
        };
        let boolean = prekeyed_of(vec![vec![0, 1], vec![1, 2]]);
        for variant in [&count, &other, &boolean] {
            assert_eq!(variant.shape.clauses, sum.shape.clauses, "one skeleton presentation");
            assert!(cache.settle_presentation(residents[0].id, &variant.shape).is_none());
        }
        assert!(cache.settle_presentation(residents[0].id, &sum.shape).is_some());
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
        let prekeyed = Prekeyed::of_weighted(&lineage);
        let dense = prekeyed.weighted.as_ref().expect("weighted lookup keeps the dense lineage");
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
}
