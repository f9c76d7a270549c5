//! Order-insensitive canonical forms for lineages.
//!
//! The shared cache keys attributions by a canonical renaming of the lineage.
//! The renaming must be a *canonical form* in the graph-isomorphism sense:
//! two lineages receive the same key **iff** one is a variable bijection of
//! the other (clause order is immaterial — [`banzhaf_boolean::Dnf`] already
//! sorts clauses, but *which* order the sort produces depends on the variable
//! names, which is exactly what a renaming changes). A first-occurrence
//! renaming is sound but incomplete: the 3-path `{x,y} ∨ {y,z}` keys as
//! `{0,1} ∨ {1,2}` or `{0,1} ∨ {0,2}` depending on which variable carries the
//! middle label.
//!
//! [`canonical_form_classed`] keys a lineage in three stages, following the
//! decomposition ExaBan's d-tree compiler applies before any Shannon step:
//!
//! 1. **Factor (⊙).** The variables common to every clause of a part take the
//!    next canonical indices; they are pairwise twins (swapping two of them
//!    maps every clause to itself), so their order among themselves cannot
//!    change the key. The remainder — each clause minus the common variables
//!    — is keyed and shifted past them.
//! 2. **Split (⊗).** The connected components of the clause–variable
//!    incidence graph are keyed separately (an empty clause is a component of
//!    its own) and concatenated in the order of their keys
//!    `(variable count, renamed clause list, class sequence)`. Isomorphic
//!    components key equal, so which of them comes first cannot change the
//!    key either.
//! 3. **Search.** A part that neither factors nor splits — an indecomposable
//!    core — runs the colour-refinement and individualization search below.
//!    An input that is indecomposable at the top level runs it on its own
//!    arrays, so its form, witness and step count are the search's alone.
//!
//! Lineages of hierarchical queries need only the first two stages, so they
//! key in linear time where the search would pay for every cell of
//! interchangeable facts (the `k` actors of one movie) roughly `k³`.
//!
//! The search works on the bipartite clause–variable incidence graph:
//!
//! * **Colour refinement** (1-dimensional Weisfeiler–Leman): variables and
//!   clauses start with colours derived from their degrees/widths (and
//!   clause classes), and cells split by the multiset of their members'
//!   neighbour colours until the partition is stable. It runs as a
//!   Hopcroft-style *worklist*: only cells holding a neighbour of a fragment
//!   split in the previous round are re-examined (one largest fragment per
//!   split is skipped), neighbour-colour multisets are counting-sorted into
//!   reused scratch buffers, and colour ids are assigned positionally, so the
//!   fixpoint — partition and ids both — equals that of full-recompute rounds
//!   (kept as a `tests::oracle`).
//! * **Orbit breaking with backtracking**: while some colour class still
//!   holds several variables, each candidate of the first such class is
//!   individualized in turn, re-refined, and recursed into. Each discrete
//!   leaf yields a candidate renaming; the smallest renamed clause list wins.
//!   Two leaves with the *same* list witness an automorphism, whose orbits
//!   (a union-find) prune siblings before their refinement is paid for, which
//!   keeps stars, cliques, rings and singleton batteries at a linear number
//!   of leaves.
//!
//! **Soundness.** Every stage only ever assigns indices to input variables,
//! one each, so the result is a renaming of the input: equal keys imply
//! isomorphic lineages unconditionally.
//!
//! **Completeness.** Any variable bijection between two lineages maps the
//! common variables of one onto those of the other and its components onto
//! isomorphic components, so factoring and splitting commute with it; the
//! part keys are canonical, so the assembled keys are equal. For a core,
//! completeness holds whenever the search runs to exhaustion, which it does
//! for every core whose refinement-invariant leaf count stays within
//! [`MAX_LEAVES`] (the cap applies per core); past that cap two copies of an
//! (astronomically symmetric) core may key apart and merely miss each other
//! in the cache.
//!
//! Two witnesses that yield the same key differ by an automorphism of the
//! input, so values mapped back through either agree.
//!
//! Because keying still costs real work, the cache avoids it where it can:
//! [`fingerprint`] computes a cheap isomorphism *invariant* (variable/clause
//! counts plus hashed clause-width and variable-degree multisets) in one
//! linear pass. Two isomorphic lineages always share a fingerprint, so an
//! empty fingerprint bucket is a definite cache miss and the canonical form
//! only needs to be computed once a *second* distinct shape shows up under
//! the same fingerprint.

use banzhaf::{Budget, Interrupted};
use banzhaf_arith::Rational;
use banzhaf_boolean::AggregateKind;

/// The canonical form of a lineage presented as dense clause lists.
pub(crate) struct CanonicalForm {
    /// `order[i]` is the input variable assigned canonical index `i`.
    pub(crate) order: Vec<u32>,
    /// The clauses renamed through `order`, each sorted, the list sorted.
    pub(crate) clauses: Vec<Vec<u32>>,
    /// Keying work performed (decomposition passes plus the search's node
    /// signatures), the canonicalization analogue of `compile_steps`.
    pub(crate) steps: u64,
}

/// Backtracking-leaf budget of one core's search. Exploration past this many
/// discrete partitions stops with the best form found so far (see the module
/// docs for why this only ever degrades cache hit rate, never correctness).
const MAX_LEAVES: usize = 512;

/// The unclassed, unbudgeted spelling of [`canonical_form_classed`], kept
/// for the tests.
#[cfg(test)]
pub(crate) fn canonical_form(num_vars: usize, clauses: &[Vec<u32>]) -> CanonicalForm {
    canonical_form_classed(num_vars, clauses, None, None).expect("no budget, no interrupt")
}

/// Computes the canonical form of `clauses` over variables `0..num_vars`
/// (variables beyond the clauses' support are degree-0 universe padding and
/// are appended after the used variables in input order — no clause mentions
/// them, so the key does not depend on their order).
///
/// `classes[c]` is an isomorphism-invariant label of clause `c` (weighted
/// lineages label each clause by the rank of its weight, see
/// `cache::Shape::canonicalize`). A label rides along with its clause through
/// factoring and splitting, orders parts after their clause lists, and joins
/// the clause nodes' initial colours in the search, so only class-preserving
/// renamings count as automorphisms and every candidate is ordered by
/// `(renamed clause list, induced class sequence)`: two weighted-isomorphic
/// lineages pick the same witness even when the Boolean skeleton alone has
/// automorphisms that permute differently-weighted clauses (the 3-path with
/// distinct end-clause weights is the motivating case). With `classes: None`
/// — or all labels equal — every choice reduces to the unclassed key.
///
/// Under a cooperative `budget` every decomposition pass and every
/// refinement round charges its step lump, so a step cap or deadline
/// interrupts the keying mid-stream instead of letting a pathologically
/// symmetric shape stall the whole batch-planning walk. With an unexhausted
/// budget the result — form, witness order, and step count — is
/// bit-identical to `budget: None`; on exhaustion the caller gets `Err` and
/// treats the shape as unkeyable (a cache miss, never a wrong key).
pub(crate) fn canonical_form_classed(
    num_vars: usize,
    clauses: &[Vec<u32>],
    classes: Option<&[u32]>,
    budget: Option<&Budget>,
) -> Result<CanonicalForm, Interrupted> {
    let mut keyer = Keyer::new(num_vars, clauses, classes, budget);
    let part: Vec<u32> = (0..clauses.len() as u32).collect();
    let used: Vec<u32> = (0..num_vars as u32).filter(|&v| keyer.used[v as usize]).collect();
    let Some(step) = keyer.decompose(&part, &used) else {
        let ((order, canonical_clauses, _), steps) = search(num_vars, clauses, classes, budget)?;
        return Ok(CanonicalForm { order, clauses: canonical_clauses, steps });
    };
    let (mut order, canonical_clauses, _) = keyer.apply(&part, &used, step)?;
    order.extend((0..num_vars as u32).filter(|&v| !keyer.used[v as usize]));
    debug_assert!(canonical_clauses.windows(2).all(|w| w[0] <= w[1]), "parts assemble sorted");
    Ok(CanonicalForm { order, clauses: canonical_clauses, steps: keyer.steps })
}

/// Runs the refinement and individualization search on `clauses` over
/// `0..num_vars` and returns its best leaf with the steps it cost.
fn search(
    num_vars: usize,
    clauses: &[Vec<u32>],
    classes: Option<&[u32]>,
    budget: Option<&Budget>,
) -> Result<(Candidate, u64), Interrupted> {
    let mut searcher = Searcher::new(num_vars, clauses, classes);
    searcher.budget = budget;
    let initial = searcher.initial_colouring();
    if !searcher.interrupted {
        searcher.search(initial);
    }
    if searcher.interrupted {
        return Err(Interrupted);
    }
    let best = searcher.best.expect("the uninterrupted search visits at least one discrete leaf");
    Ok((best, searcher.steps))
}

/// One decomposition step of a part.
enum Step {
    /// The variables common to every clause of the part (ascending).
    Factor(Vec<u32>),
    /// The part's connected components: `(clause ids, variables ascending)`.
    Split(Vec<(Vec<u32>, Vec<u32>)>),
}

/// The factor and split stages of [`canonical_form_classed`]. A part is a
/// set of input clause ids plus the variables they still mention; factoring
/// marks its common variables `factored`, which removes them from every
/// clause of the part (and of no other part: parts never share a variable).
struct Keyer<'a> {
    clauses: &'a [Vec<u32>],
    classes: Option<&'a [u32]>,
    budget: Option<&'a Budget>,
    /// Whether some clause mentions the variable.
    used: Vec<bool>,
    /// Variables already factored out of their part.
    factored: Vec<bool>,
    /// Per-variable scratch, zero between uses: occurrence counts, component
    /// slots of union-find roots, or a core's local variable numbering.
    scratch: Vec<u32>,
    /// Union-find parents over variables, the identity between passes.
    parent: Vec<u32>,
    steps: u64,
}

/// Union-find root with path halving.
fn find(parent: &mut [u32], v: u32) -> u32 {
    let mut v = v;
    while parent[v as usize] != v {
        parent[v as usize] = parent[parent[v as usize] as usize];
        v = parent[v as usize];
    }
    v
}

impl<'a> Keyer<'a> {
    fn new(
        num_vars: usize,
        clauses: &'a [Vec<u32>],
        classes: Option<&'a [u32]>,
        budget: Option<&'a Budget>,
    ) -> Self {
        let mut used = vec![false; num_vars];
        for clause in clauses {
            for &v in clause {
                used[v as usize] = true;
            }
        }
        Keyer {
            clauses,
            classes,
            budget,
            used,
            factored: vec![false; num_vars],
            scratch: vec![0; num_vars],
            parent: (0..num_vars as u32).collect(),
            steps: 0,
        }
    }

    fn class(&self, c: u32) -> u32 {
        self.classes.map_or(0, |labels| labels[c as usize])
    }

    /// How `part` (whose clauses mention exactly `vars`) decomposes, or
    /// `None` for a core. Finding out is free: only a pass that decomposes
    /// is charged, in [`Keyer::apply`].
    fn decompose(&mut self, part: &[u32], vars: &[u32]) -> Option<Step> {
        let Keyer { clauses, factored, scratch, parent, .. } = self;
        let live = |c: u32| clauses[c as usize].iter().copied().filter(|&v| !factored[v as usize]);
        for &c in part {
            for v in live(c) {
                scratch[v as usize] += 1;
            }
        }
        let common: Vec<u32> =
            vars.iter().copied().filter(|&v| scratch[v as usize] as usize == part.len()).collect();
        for &v in vars {
            scratch[v as usize] = 0;
        }
        if !common.is_empty() {
            return Some(Step::Factor(common));
        }
        for &c in part {
            let mut members = live(c);
            let Some(first) = members.next() else { continue };
            let first = find(parent, first);
            for v in members {
                let root = find(parent, v);
                if root != first {
                    parent[root as usize] = first;
                }
            }
        }
        let mut components: Vec<(Vec<u32>, Vec<u32>)> = Vec::new();
        for &v in vars {
            let root = find(parent, v) as usize;
            if scratch[root] == 0 {
                components.push((Vec::new(), Vec::new()));
                scratch[root] = components.len() as u32;
            }
            components[scratch[root] as usize - 1].1.push(v);
        }
        for &c in part {
            match live(c).next() {
                Some(v) => components[scratch[find(parent, v) as usize] as usize - 1].0.push(c),
                None => components.push((vec![c], Vec::new())),
            }
        }
        for &v in vars {
            scratch[find(parent, v) as usize] = 0;
        }
        for &v in vars {
            parent[v as usize] = v;
        }
        (components.len() > 1).then_some(Step::Split(components))
    }

    /// Keys `part` over `vars`: directly when every clause is empty, by the
    /// search when it is a core, else through one decomposition step.
    fn key_part(&mut self, part: &[u32], vars: &[u32]) -> Result<Candidate, Interrupted> {
        if vars.is_empty() {
            let mut classes: Vec<u32> = part.iter().map(|&c| self.class(c)).collect();
            classes.sort_unstable();
            return Ok((Vec::new(), vec![Vec::new(); part.len()], classes));
        }
        match self.decompose(part, vars) {
            Some(step) => self.apply(part, vars, step),
            None => self.core(part, vars),
        }
    }

    /// Charges the pass that found `step` and keys `part` through it. The
    /// assembled clause list comes out sorted without a sort: a factored
    /// prefix is shared by every clause, and the clauses of an earlier part
    /// start below every variable of a later one (a variable-free part holds
    /// one empty clause, the least of all).
    fn apply(&mut self, part: &[u32], vars: &[u32], step: Step) -> Result<Candidate, Interrupted> {
        let cost: u64 = part.iter().map(|&c| self.clauses[c as usize].len() as u64 + 1).sum();
        self.steps += cost;
        if let Some(budget) = self.budget {
            budget.charge(cost)?;
        }
        match step {
            Step::Factor(common) => {
                for &v in &common {
                    self.factored[v as usize] = true;
                }
                let rest: Vec<u32> =
                    vars.iter().copied().filter(|&v| !self.factored[v as usize]).collect();
                let (order, clauses, classes) = self.key_part(part, &rest)?;
                let width = common.len() as u32;
                let clauses = clauses
                    .into_iter()
                    .map(|clause| (0..width).chain(clause.into_iter().map(|v| v + width)).collect())
                    .collect();
                let mut full = common;
                full.extend(order);
                Ok((full, clauses, classes))
            }
            Step::Split(components) => {
                let mut keys = Vec::with_capacity(components.len());
                for (clauses, vars) in &components {
                    keys.push(self.key_part(clauses, vars)?);
                }
                keys.sort_by(|a, b| (a.0.len(), &a.1, &a.2).cmp(&(b.0.len(), &b.1, &b.2)));
                let mut assembled: Candidate = (Vec::new(), Vec::new(), Vec::new());
                for (order, clauses, classes) in keys {
                    let offset = assembled.0.len() as u32;
                    assembled.1.extend(
                        clauses.into_iter().map(|c| c.into_iter().map(|v| v + offset).collect()),
                    );
                    assembled.0.extend(order);
                    assembled.2.extend(classes);
                }
                Ok(assembled)
            }
        }
    }

    /// Runs the search on a core, renumbered to its own dense universe.
    fn core(&mut self, part: &[u32], vars: &[u32]) -> Result<Candidate, Interrupted> {
        for (local, &v) in vars.iter().enumerate() {
            self.scratch[v as usize] = local as u32;
        }
        let clauses: Vec<Vec<u32>> = part
            .iter()
            .map(|&c| {
                self.clauses[c as usize]
                    .iter()
                    .filter(|&&v| !self.factored[v as usize])
                    .map(|&v| self.scratch[v as usize])
                    .collect()
            })
            .collect();
        for &v in vars {
            self.scratch[v as usize] = 0;
        }
        let classes: Option<Vec<u32>> =
            self.classes.map(|_| part.iter().map(|&c| self.class(c)).collect());
        let ((order, clauses, classes), steps) =
            search(vars.len(), &clauses, classes.as_deref(), self.budget)?;
        self.steps += steps;
        Ok((order.into_iter().map(|local| vars[local as usize]).collect(), clauses, classes))
    }
}

/// A cheap isomorphism invariant of a lineage: any variable bijection
/// preserves every field, so isomorphic lineages always share a fingerprint
/// while most non-isomorphic ones separate without any refinement at all.
/// The converse does not hold (two triangles and a hexagon collide), which
/// is why the cache only treats an *empty* fingerprint bucket as an answer.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub(crate) struct Fingerprint {
    num_vars: u32,
    num_clauses: u32,
    /// FNV-1a over the sorted clause-width multiset.
    widths: u64,
    /// FNV-1a over the sorted variable-degree multiset.
    degrees: u64,
    /// An isomorphism-invariant digest of the clause weights and aggregate
    /// kind for weighted (aggregate) lineages; `0` for plain Boolean ones.
    /// Weighted shapes never share a bucket with their Boolean skeleton, and
    /// a SUM lineage never pre-keys equal to the COUNT over the same clauses.
    payload: u64,
}

impl Fingerprint {
    /// The fingerprint's raw fields, in declaration order — the stable
    /// identity the snapshot format and the shard router hash. Kept as an
    /// explicit tuple (not struct access) so every consumer of the raw form
    /// breaks loudly if a field is ever added.
    pub(crate) fn raw_parts(self) -> (u32, u32, u64, u64, u64) {
        (self.num_vars, self.num_clauses, self.widths, self.degrees, self.payload)
    }

    /// Rebuilds a fingerprint from [`Fingerprint::raw_parts`] (snapshot
    /// deserialization). The caller is responsible for validating that the
    /// fingerprint matches its entry's shape — see `persist`.
    pub(crate) fn from_raw_parts(parts: (u32, u32, u64, u64, u64)) -> Fingerprint {
        Fingerprint {
            num_vars: parts.0,
            num_clauses: parts.1,
            widths: parts.2,
            degrees: parts.3,
            payload: parts.4,
        }
    }

    /// This fingerprint with the given weighted-payload digest attached.
    pub(crate) fn with_payload(self, payload: u64) -> Fingerprint {
        Fingerprint { payload, ..self }
    }
}

/// Computes the [`Fingerprint`] of `clauses` over variables `0..num_vars` in
/// one linear pass — no refinement, no search. The payload field is `0`: this
/// is the pre-key of a plain Boolean lineage.
pub(crate) fn fingerprint(num_vars: usize, clauses: &[Vec<u32>]) -> Fingerprint {
    let mut widths: Vec<u32> = clauses.iter().map(|c| c.len() as u32).collect();
    widths.sort_unstable();
    let mut degrees = vec![0u32; num_vars];
    for clause in clauses {
        for &v in clause {
            degrees[v as usize] += 1;
        }
    }
    degrees.sort_unstable();
    Fingerprint {
        num_vars: num_vars as u32,
        num_clauses: clauses.len() as u32,
        widths: fnv1a(&widths),
        degrees: fnv1a(&degrees),
        payload: 0,
    }
}

/// The isomorphism-invariant payload digest of a weighted lineage: FNV-1a
/// over the aggregate kind and the *sorted* multiset of
/// `(clause width, weight)` pairs. Any variable bijection preserves widths
/// and carries each clause's weight along, so isomorphic weighted lineages
/// always digest equal; differing weight multisets or kinds (SUM vs COUNT)
/// almost always separate. Never `0` — the value reserved for Boolean
/// lineages — so a weighted shape cannot land in a Boolean bucket.
pub(crate) fn weighted_payload(
    kind: AggregateKind,
    clauses: &[Vec<u32>],
    weights: &[Rational],
) -> u64 {
    debug_assert_eq!(clauses.len(), weights.len(), "weights align with clauses");
    let mut items: Vec<(u32, String)> = clauses
        .iter()
        .zip(weights)
        .map(|(clause, weight)| (clause.len() as u32, weight.to_string()))
        .collect();
    items.sort_unstable();
    let mut hash = 0xcbf2_9ce4_8422_2325_u64;
    let mut eat = |bytes: &[u8]| {
        for &byte in bytes {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x100_0000_01b3);
        }
    };
    // A stable per-kind tag, independent of the enum's in-memory layout.
    let tag: u8 = match kind {
        AggregateKind::Count => 1,
        AggregateKind::Sum => 2,
        AggregateKind::Min => 3,
        AggregateKind::Max => 4,
    };
    eat(&[tag]);
    for (width, weight) in &items {
        eat(&width.to_le_bytes());
        eat(weight.as_bytes());
        eat(&[0xFF]);
    }
    hash.max(1)
}

/// FNV-1a over the little-endian bytes of `values`.
fn fnv1a(values: &[u32]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325_u64;
    for &value in values {
        for byte in value.to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x100_0000_01b3);
        }
    }
    hash
}

/// One colouring of the incidence graph: `colours[node]` plus the number of
/// distinct colours (colour ids are always the contiguous range `0..count`).
#[derive(Clone)]
struct Colouring {
    colours: Vec<u32>,
    count: u32,
}

/// Reusable buffers for the worklist refiner. Owned by the [`Searcher`] so
/// individualization descents allocate nothing after the first refinement.
#[derive(Default)]
struct Scratch {
    /// All nodes grouped by colour: each cell is a contiguous run and cells
    /// appear in colour-id order, so a cell's id is its positional index.
    elems: Vec<u32>,
    /// Start offset of cell `k` in `elems`, ascending.
    starts: Vec<u32>,
    /// Counting-sort cursors for rebuilding `elems`.
    cursor: Vec<u32>,
    /// Whether cell `k` is queued for re-examination this round.
    dirty: Vec<bool>,
    /// The dirty cell ids of the current round.
    queue: Vec<u32>,
    /// Per-colour neighbour counts for the multiset counting sort; always
    /// zeroed between members (reset via `touched`).
    counts: Vec<u32>,
    /// The colours with a non-zero count for the member in hand.
    touched: Vec<u32>,
    /// Flat sorted neighbour-colour multisets, one degree-wide row per
    /// member of the cell in hand.
    arena: Vec<u32>,
    /// Member indices of the cell in hand, sorted by multiset row.
    perm: Vec<u32>,
    /// The cell's members reordered fragment-by-fragment.
    staged: Vec<u32>,
    /// Fragment boundaries within the cell in hand (local indices).
    frags: Vec<u32>,
    /// Absolute start offsets of the round's new fragments (each split
    /// cell's fragments beyond its first), ascending.
    fresh_starts: Vec<u32>,
    /// `(start, len)` ranges of the fragments that seed the next round's
    /// dirty set — every fragment except one largest per split cell.
    propagate: Vec<(u32, u32)>,
    /// Merge buffer for `starts` ∪ `fresh_starts`.
    merged: Vec<u32>,
}

/// A leaf candidate: (variable order, renamed sorted clause list, the class
/// labels induced on that list — empty when unclassed).
type Candidate = (Vec<u32>, Vec<Vec<u32>>, Vec<u32>);

struct Searcher<'a> {
    num_vars: usize,
    clauses: &'a [Vec<u32>],
    /// Per-clause class labels ([`canonical_form_classed`]); `None` for
    /// plain Boolean shapes, where every clause is interchangeable with any
    /// other of the same width.
    classes: Option<&'a [u32]>,
    /// Incidence adjacency: nodes `0..num_vars` are variables, nodes
    /// `num_vars..num_vars + clauses.len()` are clauses.
    adjacency: Vec<Vec<u32>>,
    /// Best candidate so far.
    best: Option<Candidate>,
    /// Union-find over variables: two variables share a root iff a
    /// discovered automorphism maps one to the other. Grown lazily as leaves
    /// collide; used to skip automorphic siblings during branching.
    orbit: Vec<u32>,
    leaves: usize,
    steps: u64,
    scratch: Scratch,
    /// Cooperative budget charged per refinement round (`None` on the
    /// unbudgeted path, which stays bit-identical to the seed).
    budget: Option<&'a Budget>,
    /// Set once the budget interrupts; the search unwinds without exploring
    /// (or charging) further.
    interrupted: bool,
}

impl<'a> Searcher<'a> {
    fn new(num_vars: usize, clauses: &'a [Vec<u32>], classes: Option<&'a [u32]>) -> Self {
        debug_assert!(
            classes.is_none_or(|c| c.len() == clauses.len()),
            "class labels align with clauses"
        );
        let mut adjacency: Vec<Vec<u32>> = vec![Vec::new(); num_vars + clauses.len()];
        for (c, clause) in clauses.iter().enumerate() {
            let clause_node = (num_vars + c) as u32;
            for &v in clause {
                adjacency[v as usize].push(clause_node);
                adjacency[clause_node as usize].push(v);
            }
        }
        Searcher {
            num_vars,
            clauses,
            classes,
            adjacency,
            best: None,
            orbit: (0..num_vars as u32).collect(),
            leaves: 0,
            steps: 0,
            scratch: Scratch::default(),
            budget: None,
            interrupted: false,
        }
    }

    fn orbit_root(&mut self, v: u32) -> u32 {
        find(&mut self.orbit, v)
    }

    /// Records that an automorphism maps `a` to `b`.
    fn orbit_union(&mut self, a: u32, b: u32) {
        let (ra, rb) = (self.orbit_root(a), self.orbit_root(b));
        if ra != rb {
            self.orbit[ra.max(rb) as usize] = ra.min(rb);
        }
    }

    /// The isomorphism-invariant starting partition: variables coloured by
    /// degree (unused universe variables sort after used ones), clauses by
    /// width — and, when classed, by class, so differently-weighted clauses
    /// never share a cell. Refinement would reach the degree/width split in
    /// one round; starting from it just saves that round.
    fn initial_colouring(&mut self) -> Colouring {
        let signatures: Vec<(u32, u32, u32)> = (0..self.adjacency.len())
            .map(|node| {
                let degree = self.adjacency[node].len() as u32;
                if node < self.num_vars {
                    // Used variables before unused ones, then by degree.
                    (u32::from(degree == 0), degree, 0)
                } else {
                    let class = self.classes.map_or(0, |c| c[node - self.num_vars]);
                    (2, degree, class)
                }
            })
            .collect();
        let mut colouring = self.colour_by_rank(&signatures);
        self.refine(&mut colouring, None);
        colouring
    }

    /// Assigns contiguous colour ids by ascending signature rank. The ids are
    /// isomorphism-invariant as long as the signatures are.
    fn colour_by_rank<S: Ord>(&mut self, signatures: &[S]) -> Colouring {
        self.steps += signatures.len() as u64;
        let mut order: Vec<u32> = (0..signatures.len() as u32).collect();
        order.sort_unstable_by(|&a, &b| signatures[a as usize].cmp(&signatures[b as usize]));
        let mut colours = vec![0u32; signatures.len()];
        let mut count = 0u32;
        for pair in 0..order.len() {
            if pair > 0 && signatures[order[pair] as usize] != signatures[order[pair - 1] as usize]
            {
                count += 1;
            }
            colours[order[pair] as usize] = count;
        }
        Colouring { colours, count: count + 1 }
    }

    /// Runs worklist colour refinement to a fixpoint, in place.
    ///
    /// Each round re-examines only the *dirty* cells — with `seed: None`
    /// every cell (fresh start), with `seed: Some(v)` only the cells holding
    /// a neighbour of the just-individualized `v` (the parent partition was
    /// stable, so `v`'s fresh singleton is the only perturbation). A dirty
    /// cell splits into fragments ordered by their members' sorted
    /// neighbour-colour multisets, in place; after a round with splits, all
    /// colour ids are renumbered positionally. Both choices reproduce the
    /// exact ids a full `(old colour, sorted multiset)` signature sort would
    /// assign — every multi-member cell is degree-uniform (the initial
    /// colouring splits by degree and refinement only ever splits), so the
    /// equal-length multiset rows compare like full signatures — which keeps
    /// this refiner bit-identical to the full-recompute oracle it replaced.
    /// The next round's dirty set is seeded from every fragment except one
    /// largest per split cell: members with equal neighbour counts against
    /// every small fragment had equal counts against the whole old cell, so
    /// their counts against the skipped remainder are equal too.
    #[allow(clippy::too_many_lines)]
    fn refine(&mut self, colouring: &mut Colouring, seed: Option<u32>) {
        let budget = self.budget;
        let mut interrupted = false;
        let adjacency = &self.adjacency;
        let Scratch {
            elems,
            starts,
            cursor,
            dirty,
            queue,
            counts,
            touched,
            arena,
            perm,
            staged,
            frags,
            fresh_starts,
            propagate,
            merged,
        } = &mut self.scratch;
        let n = adjacency.len();
        let mut steps = 0u64;
        let cell_len = |starts: &[u32], k: usize| -> usize {
            let end = starts.get(k + 1).copied().unwrap_or(n as u32);
            (end - starts[k]) as usize
        };

        // Group nodes by colour with a counting sort; cells land contiguous
        // and in colour-id order, so a cell's id is its position in `starts`.
        let mut count = colouring.count as usize;
        cursor.clear();
        cursor.resize(count, 0);
        for &c in &colouring.colours {
            cursor[c as usize] += 1;
        }
        starts.clear();
        let mut acc = 0u32;
        for slot in cursor.iter_mut() {
            starts.push(acc);
            let size = *slot;
            *slot = acc;
            acc += size;
        }
        elems.clear();
        elems.resize(n, 0);
        for node in 0..n as u32 {
            let c = colouring.colours[node as usize] as usize;
            elems[cursor[c] as usize] = node;
            cursor[c] += 1;
        }

        dirty.clear();
        dirty.resize(count, false);
        counts.clear();
        counts.resize(count, 0);
        queue.clear();
        match seed {
            None => {
                for (k, d) in dirty.iter_mut().enumerate() {
                    if cell_len(starts, k) > 1 {
                        *d = true;
                        queue.push(k as u32);
                    }
                }
            }
            Some(v) => {
                for &nb in &adjacency[v as usize] {
                    let c = colouring.colours[nb as usize] as usize;
                    if !dirty[c] && cell_len(starts, c) > 1 {
                        dirty[c] = true;
                        queue.push(c as u32);
                    }
                }
            }
        }

        'rounds: while !queue.is_empty() {
            // Ascending cell order keeps `fresh_starts` sorted, which the
            // positional renumbering below relies on.
            queue.sort_unstable();
            fresh_starts.clear();
            propagate.clear();
            for &cq in queue.iter() {
                let c = cq as usize;
                let start = starts[c] as usize;
                let len = cell_len(starts, c);
                if len < 2 {
                    continue;
                }
                let deg = adjacency[elems[start] as usize].len();
                if deg == 0 {
                    // Degree-0 cells (unused variables, empty clauses) have
                    // empty multisets and can never split.
                    continue;
                }
                steps += (len * (deg + 1)) as u64;
                if let Some(b) = budget {
                    // Fault injection: simulate budget exhaustion mid-round
                    // (only reachable on the budgeted planning path).
                    banzhaf_par::failpoint!("canon::refine", {
                        interrupted = true;
                        break 'rounds;
                    });
                    if b.charge((len * (deg + 1)) as u64).is_err() {
                        interrupted = true;
                        break 'rounds;
                    }
                }
                // One degree-wide sorted multiset row per member, built by
                // counting sort — no per-node allocations.
                arena.clear();
                for i in 0..len {
                    let node = elems[start + i] as usize;
                    debug_assert_eq!(adjacency[node].len(), deg, "cells are degree-uniform");
                    for &nb in &adjacency[node] {
                        let col = colouring.colours[nb as usize];
                        if counts[col as usize] == 0 {
                            touched.push(col);
                        }
                        counts[col as usize] += 1;
                    }
                    touched.sort_unstable();
                    for &col in touched.iter() {
                        for _ in 0..counts[col as usize] {
                            arena.push(col);
                        }
                        counts[col as usize] = 0;
                    }
                    touched.clear();
                }
                perm.clear();
                perm.extend(0..len as u32);
                perm.sort_unstable_by(|&a, &b| {
                    let (a, b) = (a as usize * deg, b as usize * deg);
                    arena[a..a + deg].cmp(&arena[b..b + deg])
                });
                frags.clear();
                frags.push(0);
                for i in 1..len {
                    let (a, b) = (perm[i - 1] as usize * deg, perm[i] as usize * deg);
                    if arena[a..a + deg] != arena[b..b + deg] {
                        frags.push(i as u32);
                    }
                }
                if frags.len() == 1 {
                    continue;
                }
                staged.clear();
                for i in 0..len {
                    staged.push(elems[start + perm[i] as usize]);
                }
                elems[start..start + len].copy_from_slice(staged);
                let frag_len = |frags: &[u32], f: usize| -> u32 {
                    let end = frags.get(f + 1).copied().unwrap_or(len as u32);
                    end - frags[f]
                };
                let mut largest = 0;
                for f in 1..frags.len() {
                    if frag_len(frags, f) > frag_len(frags, largest) {
                        largest = f;
                    }
                }
                for f in 0..frags.len() {
                    let fstart = start as u32 + frags[f];
                    if f > 0 {
                        fresh_starts.push(fstart);
                    }
                    if f != largest {
                        propagate.push((fstart, frag_len(frags, f)));
                    }
                }
            }
            queue.clear();
            if fresh_starts.is_empty() {
                break;
            }
            // Renumber positionally: unsplit cells keep their relative order
            // and fragments slot in where their cell sat, exactly the id
            // order a full signature sort would assign.
            merged.clear();
            let (mut a, mut b) = (0usize, 0usize);
            while a < starts.len() && b < fresh_starts.len() {
                if starts[a] < fresh_starts[b] {
                    merged.push(starts[a]);
                    a += 1;
                } else {
                    merged.push(fresh_starts[b]);
                    b += 1;
                }
            }
            merged.extend_from_slice(&starts[a..]);
            merged.extend_from_slice(&fresh_starts[b..]);
            for k in 0..merged.len() {
                let cstart = merged[k] as usize;
                let cend = merged.get(k + 1).copied().unwrap_or(n as u32) as usize;
                for &node in &elems[cstart..cend] {
                    colouring.colours[node as usize] = k as u32;
                }
            }
            count = merged.len();
            colouring.count = count as u32;
            std::mem::swap(starts, merged);
            dirty.clear();
            dirty.resize(count, false);
            counts.clear();
            counts.resize(count, 0);
            for &(fstart, flen) in propagate.iter() {
                for i in 0..flen as usize {
                    let node = elems[fstart as usize + i] as usize;
                    for &nb in &adjacency[node] {
                        let c = colouring.colours[nb as usize] as usize;
                        if !dirty[c] && cell_len(starts, c) > 1 {
                            dirty[c] = true;
                            queue.push(c as u32);
                        }
                    }
                }
            }
        }
        self.steps += steps;
        self.interrupted |= interrupted;
    }

    /// The first (lowest-colour) class holding more than one *used* variable,
    /// if any. Unused universe variables are skipped: no clause mentions
    /// them, so splitting their class cannot change any candidate key.
    fn target_cell(&self, colouring: &Colouring) -> Option<Vec<u32>> {
        let mut cells: Vec<Vec<u32>> = Vec::new();
        let mut by_colour: Vec<Option<usize>> = vec![None; colouring.count as usize];
        for v in 0..self.num_vars as u32 {
            if self.adjacency[v as usize].is_empty() {
                continue;
            }
            let colour = colouring.colours[v as usize] as usize;
            match by_colour[colour] {
                Some(slot) => cells[slot].push(v),
                None => {
                    by_colour[colour] = Some(cells.len());
                    cells.push(vec![v]);
                }
            }
        }
        cells
            .into_iter()
            .filter(|cell| cell.len() > 1)
            .min_by_key(|cell| colouring.colours[cell[0] as usize])
    }

    fn search(&mut self, colouring: Colouring) {
        if self.interrupted || self.leaves >= MAX_LEAVES {
            return;
        }
        let Some(cell) = self.target_cell(&colouring) else {
            self.leaf(&colouring);
            return;
        };
        // Individualize each candidate of the cell in turn and recurse; the
        // canonical form is the minimal leaf over every explored child, so
        // exploring all of them is exactly the complete backtracking search.
        //
        // Orbit pruning — checked *before* paying for the child's refinement,
        // which is the dominant cost on symmetric cells — skips any member
        // already automorphic to an explored sibling (per the automorphisms
        // the leaves have discovered so far): its subtree is an isomorphic
        // image and can only rediscover the same candidates. This is what
        // keeps factorially symmetric cells (stars, cliques, rings) at a
        // linear number of leaves and refinements.
        let mut explored: Vec<u32> = Vec::new();
        for &v in &cell {
            let root = self.orbit_root(v);
            if explored.iter().any(|&u| self.orbit_root(u) == root) {
                continue;
            }
            explored.push(v);
            let mut child = colouring.clone();
            child.colours[v as usize] = child.count;
            child.count += 1;
            self.refine(&mut child, Some(v));
            self.search(child);
            if self.interrupted || self.leaves >= MAX_LEAVES {
                return;
            }
        }
    }

    /// A discrete leaf: every used variable has its own colour. Build the
    /// candidate renaming and keep it if it beats the best so far.
    fn leaf(&mut self, colouring: &Colouring) {
        self.leaves += 1;
        // Canonical order: used variables sorted by colour, then the unused
        // universe block (individualized colours can grow past the unused
        // class's, so the used/unused split is made explicit rather than
        // left to colour order); unused variables fall back to input order,
        // which is harmless because no clause mentions them.
        let mut order: Vec<u32> = (0..self.num_vars as u32).collect();
        order.sort_by_key(|&v| {
            (self.adjacency[v as usize].is_empty(), colouring.colours[v as usize], v)
        });
        let mut rank = vec![0u32; self.num_vars];
        for (index, &v) in order.iter().enumerate() {
            rank[v as usize] = index as u32;
        }
        // Classes ride along with their clause through the rename-and-sort:
        // the renamed clauses are distinct sets, so sorting the (clause,
        // class) pairs orders exactly as the clause-only sort did — for
        // unclassed shapes (all labels 0) the candidate comparison below is
        // bit-identical to the classless search.
        let mut renamed: Vec<(Vec<u32>, u32)> = self
            .clauses
            .iter()
            .enumerate()
            .map(|(c, clause)| {
                let mut r: Vec<u32> = clause.iter().map(|&v| rank[v as usize]).collect();
                r.sort_unstable();
                (r, self.classes.map_or(0, |labels| labels[c]))
            })
            .collect();
        renamed.sort_unstable();
        let (renamed, class_seq): (Vec<Vec<u32>>, Vec<u32>) = renamed.into_iter().unzip();
        self.steps += self.num_vars as u64 + self.clauses.len() as u64;
        match &self.best {
            Some((best_order, best_clauses, best_classes))
                if renamed == *best_clauses && class_seq == *best_classes =>
            {
                // Two renamings producing the same (clause list, class
                // sequence) compose to a class-preserving automorphism of
                // the input: canonical index i is variable `best_order[i]`
                // under one and `order[i]` under the other. Feed its orbits
                // to the branching prune. (Equal clause lists with *unequal*
                // class sequences are a skeleton automorphism that permutes
                // weights — not an automorphism of the weighted lineage, so
                // it must not prune the search.)
                let pairs: Vec<(u32, u32)> =
                    best_order.iter().copied().zip(order.iter().copied()).collect();
                for (a, b) in pairs {
                    self.orbit_union(a, b);
                }
            }
            Some((_, best_clauses, best_classes))
                if (&renamed, &class_seq) < (best_clauses, best_classes) =>
            {
                self.best = Some((order, renamed, class_seq));
            }
            None => self.best = Some((order, renamed, class_seq)),
            _ => {}
        }
    }
}

/// The stable refinement of the initial colouring — test-only visibility so
/// the proptests can compare partitions (not just final keys) against the
/// full-recompute oracle.
#[cfg(test)]
fn refined_colours(num_vars: usize, clauses: &[Vec<u32>]) -> (Vec<u32>, u32) {
    let mut searcher = Searcher::new(num_vars, clauses, None);
    let colouring = searcher.initial_colouring();
    (colouring.colours, colouring.count)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The seed's full-recompute refiner, kept verbatim as a correctness
    /// oracle: every round rebuilds `(colour, sorted neighbour colours)`
    /// signatures for *all* nodes and re-ranks them. The worklist refiner
    /// must reproduce its partition — ids included — exactly.
    pub(super) mod oracle {
        use super::super::{CanonicalForm, Colouring, MAX_LEAVES};

        pub(crate) fn canonical_form(num_vars: usize, clauses: &[Vec<u32>]) -> CanonicalForm {
            let mut searcher = Searcher::new(num_vars, clauses);
            let initial = searcher.initial_colouring();
            searcher.search(initial);
            let (order, canonical_clauses) =
                searcher.best.expect("the search visits at least one discrete leaf");
            CanonicalForm { order, clauses: canonical_clauses, steps: searcher.steps }
        }

        pub(crate) fn refined_colours(num_vars: usize, clauses: &[Vec<u32>]) -> (Vec<u32>, u32) {
            let mut searcher = Searcher::new(num_vars, clauses);
            let colouring = searcher.initial_colouring();
            (colouring.colours, colouring.count)
        }

        struct Searcher<'a> {
            num_vars: usize,
            clauses: &'a [Vec<u32>],
            adjacency: Vec<Vec<u32>>,
            best: Option<(Vec<u32>, Vec<Vec<u32>>)>,
            orbit: Vec<u32>,
            leaves: usize,
            steps: u64,
        }

        impl<'a> Searcher<'a> {
            fn new(num_vars: usize, clauses: &'a [Vec<u32>]) -> Self {
                let mut adjacency: Vec<Vec<u32>> = vec![Vec::new(); num_vars + clauses.len()];
                for (c, clause) in clauses.iter().enumerate() {
                    let clause_node = (num_vars + c) as u32;
                    for &v in clause {
                        adjacency[v as usize].push(clause_node);
                        adjacency[clause_node as usize].push(v);
                    }
                }
                Searcher {
                    num_vars,
                    clauses,
                    adjacency,
                    best: None,
                    orbit: (0..num_vars as u32).collect(),
                    leaves: 0,
                    steps: 0,
                }
            }

            fn orbit_root(&mut self, v: u32) -> u32 {
                let mut v = v;
                while self.orbit[v as usize] != v {
                    let parent = self.orbit[v as usize];
                    self.orbit[v as usize] = self.orbit[parent as usize];
                    v = self.orbit[v as usize];
                }
                v
            }

            fn orbit_union(&mut self, a: u32, b: u32) {
                let (ra, rb) = (self.orbit_root(a), self.orbit_root(b));
                if ra != rb {
                    self.orbit[ra.max(rb) as usize] = ra.min(rb);
                }
            }

            fn initial_colouring(&mut self) -> Colouring {
                let signatures: Vec<(u32, u32)> = (0..self.adjacency.len())
                    .map(|node| {
                        let degree = self.adjacency[node].len() as u32;
                        if node < self.num_vars {
                            (u32::from(degree == 0), degree)
                        } else {
                            (2, degree)
                        }
                    })
                    .collect();
                let colouring = self.colour_by_rank(&signatures);
                self.refine(colouring)
            }

            fn colour_by_rank<S: Ord>(&mut self, signatures: &[S]) -> Colouring {
                self.steps += signatures.len() as u64;
                let mut order: Vec<u32> = (0..signatures.len() as u32).collect();
                order
                    .sort_unstable_by(|&a, &b| signatures[a as usize].cmp(&signatures[b as usize]));
                let mut colours = vec![0u32; signatures.len()];
                let mut count = 0u32;
                for pair in 0..order.len() {
                    if pair > 0
                        && signatures[order[pair] as usize] != signatures[order[pair - 1] as usize]
                    {
                        count += 1;
                    }
                    colours[order[pair] as usize] = count;
                }
                Colouring { colours, count: count + 1 }
            }

            fn refine(&mut self, mut colouring: Colouring) -> Colouring {
                loop {
                    let signatures: Vec<(u32, Vec<u32>)> = self
                        .adjacency
                        .iter()
                        .enumerate()
                        .map(|(node, neighbours)| {
                            let mut around: Vec<u32> =
                                neighbours.iter().map(|&n| colouring.colours[n as usize]).collect();
                            around.sort_unstable();
                            (colouring.colours[node], around)
                        })
                        .collect();
                    self.steps += self.adjacency.iter().map(|n| n.len() as u64 + 1).sum::<u64>();
                    let refined = self.colour_by_rank(&signatures);
                    let stable = refined.count == colouring.count;
                    colouring = refined;
                    if stable {
                        return colouring;
                    }
                }
            }

            fn target_cell(&self, colouring: &Colouring) -> Option<Vec<u32>> {
                let mut cells: Vec<Vec<u32>> = Vec::new();
                let mut by_colour: Vec<Option<usize>> = vec![None; colouring.count as usize];
                for v in 0..self.num_vars as u32 {
                    if self.adjacency[v as usize].is_empty() {
                        continue;
                    }
                    let colour = colouring.colours[v as usize] as usize;
                    match by_colour[colour] {
                        Some(slot) => cells[slot].push(v),
                        None => {
                            by_colour[colour] = Some(cells.len());
                            cells.push(vec![v]);
                        }
                    }
                }
                cells
                    .into_iter()
                    .filter(|cell| cell.len() > 1)
                    .min_by_key(|cell| colouring.colours[cell[0] as usize])
            }

            fn search(&mut self, colouring: Colouring) {
                if self.leaves >= MAX_LEAVES {
                    return;
                }
                let Some(cell) = self.target_cell(&colouring) else {
                    self.leaf(&colouring);
                    return;
                };
                let mut explored: Vec<u32> = Vec::new();
                for &v in &cell {
                    let root = self.orbit_root(v);
                    if explored.iter().any(|&u| self.orbit_root(u) == root) {
                        continue;
                    }
                    explored.push(v);
                    let mut child = colouring.clone();
                    child.colours[v as usize] = child.count;
                    child.count += 1;
                    let refined = self.refine(child);
                    self.search(refined);
                    if self.leaves >= MAX_LEAVES {
                        return;
                    }
                }
            }

            fn leaf(&mut self, colouring: &Colouring) {
                self.leaves += 1;
                let mut order: Vec<u32> = (0..self.num_vars as u32).collect();
                order.sort_by_key(|&v| {
                    (self.adjacency[v as usize].is_empty(), colouring.colours[v as usize], v)
                });
                let mut rank = vec![0u32; self.num_vars];
                for (index, &v) in order.iter().enumerate() {
                    rank[v as usize] = index as u32;
                }
                let mut renamed: Vec<Vec<u32>> = self
                    .clauses
                    .iter()
                    .map(|clause| {
                        let mut c: Vec<u32> = clause.iter().map(|&v| rank[v as usize]).collect();
                        c.sort_unstable();
                        c
                    })
                    .collect();
                renamed.sort_unstable();
                self.steps += self.num_vars as u64 + self.clauses.len() as u64;
                match &self.best {
                    Some((best_order, best_clauses)) if renamed == *best_clauses => {
                        let pairs: Vec<(u32, u32)> =
                            best_order.iter().copied().zip(order.iter().copied()).collect();
                        for (a, b) in pairs {
                            self.orbit_union(a, b);
                        }
                    }
                    Some((_, best_clauses)) if renamed < *best_clauses => {
                        self.best = Some((order, renamed));
                    }
                    None => self.best = Some((order, renamed)),
                    _ => {}
                }
            }
        }
    }

    /// Applies `form.order` to check the form really is a renaming of the
    /// input: renaming the input clauses through the inverse order and
    /// sorting must reproduce `form.clauses`.
    fn is_renaming_of(form: &CanonicalForm, num_vars: usize, clauses: &[Vec<u32>]) -> bool {
        let mut rank = vec![0u32; num_vars];
        for (index, &v) in form.order.iter().enumerate() {
            rank[v as usize] = index as u32;
        }
        let mut renamed: Vec<Vec<u32>> = clauses
            .iter()
            .map(|c| {
                let mut c: Vec<u32> = c.iter().map(|&v| rank[v as usize]).collect();
                c.sort_unstable();
                c
            })
            .collect();
        renamed.sort_unstable();
        renamed == form.clauses
    }

    /// The shape families the refiner proptests sweep: rings, paths, stars,
    /// cliques, double-stars, and random clause soups.
    fn shape(kind: usize, size: usize, rng: &mut StdRng) -> (usize, Vec<Vec<u32>>) {
        let n = size as u32;
        match kind {
            0 => (size, (0..n).map(|i| vec![i, (i + 1) % n]).collect()),
            1 => (size, (0..n - 1).map(|i| vec![i, i + 1]).collect()),
            2 => (size, (1..n).map(|i| vec![0, i]).collect()),
            3 => {
                let k = size.min(6) as u32;
                let mut clauses = Vec::new();
                for a in 0..k {
                    for b in a + 1..k {
                        clauses.push(vec![a, b]);
                    }
                }
                (k as usize, clauses)
            }
            4 => {
                // Two stars joined hub-to-hub: hubs 0 and 1.
                let mut clauses = vec![vec![0, 1]];
                for i in 2..n {
                    clauses.push(vec![u32::from(i % 2 != 0), i]);
                }
                (size, clauses)
            }
            _ => {
                let clauses = (0..size)
                    .map(|_| {
                        let width = rng.gen_range(1..=size.min(3));
                        let mut clause: Vec<u32> = Vec::new();
                        while clause.len() < width {
                            let v = rng.gen_range(0..n);
                            if !clause.contains(&v) {
                                clause.push(v);
                            }
                        }
                        clause.sort_unstable();
                        clause
                    })
                    .collect();
                (size, clauses)
            }
        }
    }

    /// A uniformly random relabelling of `clauses` over the same universe.
    fn relabel(num_vars: usize, clauses: &[Vec<u32>], rng: &mut StdRng) -> Vec<Vec<u32>> {
        let mut perm: Vec<u32> = (0..num_vars as u32).collect();
        for i in (1..perm.len()).rev() {
            perm.swap(i, rng.gen_range(0..=i));
        }
        clauses
            .iter()
            .map(|clause| {
                let mut c: Vec<u32> = clause.iter().map(|&v| perm[v as usize]).collect();
                c.sort_unstable();
                c
            })
            .collect()
    }

    /// The search stage alone, on the input's own arrays.
    fn search_form(num_vars: usize, clauses: &[Vec<u32>]) -> CanonicalForm {
        let ((order, clauses, _), steps) =
            search(num_vars, clauses, None, None).expect("no budget, no interrupt");
        CanonicalForm { order, clauses, steps }
    }

    /// The search stage's key with classes: (clause list, class sequence).
    fn search_key(
        num_vars: usize,
        clauses: &[Vec<u32>],
        classes: &[u32],
    ) -> (Vec<Vec<u32>>, Vec<u32>) {
        let ((_, clauses, classes), _) =
            search(num_vars, clauses, Some(classes), None).expect("no budget, no interrupt");
        (clauses, classes)
    }

    /// The composed key with classes, rebuilt from the witness order — so it
    /// is a renaming of the input by construction, and equals the form's
    /// clause list exactly when the form is one.
    fn composed_key(
        num_vars: usize,
        clauses: &[Vec<u32>],
        classes: &[u32],
    ) -> (Vec<Vec<u32>>, Vec<u32>) {
        let form = canonical_form_classed(num_vars, clauses, Some(classes), None)
            .expect("no budget, no interrupt");
        let mut sorted = form.order.clone();
        sorted.sort_unstable();
        assert!(sorted.iter().copied().eq(0..num_vars as u32), "the witness is a permutation");
        let mut rank = vec![0u32; num_vars];
        for (index, &v) in form.order.iter().enumerate() {
            rank[v as usize] = index as u32;
        }
        let mut renamed: Vec<(Vec<u32>, u32)> = clauses
            .iter()
            .zip(classes)
            .map(|(clause, &class)| {
                let mut c: Vec<u32> = clause.iter().map(|&v| rank[v as usize]).collect();
                c.sort_unstable();
                (c, class)
            })
            .collect();
        renamed.sort_unstable();
        let key: (Vec<Vec<u32>>, Vec<u32>) = renamed.into_iter().unzip();
        assert_eq!(key.0, form.clauses, "the key is the input renamed through its witness");
        key
    }

    /// A decomposable lineage: `copies` isomorphic copies of a `shape` core
    /// plus one core of another kind, under `common` variables shared by
    /// every clause, with one clause that is empty once they are factored
    /// out (an empty clause of its own when `common` is 0), `unused` universe
    /// variables no clause mentions, and random classes in `0..2`.
    fn decomposable(
        kinds: (usize, usize),
        size: usize,
        copies: usize,
        common: usize,
        unused: usize,
        rng: &mut StdRng,
    ) -> (usize, Vec<Vec<u32>>, Vec<u32>) {
        let mut clauses: Vec<Vec<u32>> = Vec::new();
        let mut next = common as u32;
        let core = shape(kinds.0, size, rng);
        let other = shape(kinds.1, size.saturating_sub(1).max(3), rng);
        for (n, core_clauses) in std::iter::repeat_n(&core, copies).chain([&other]) {
            for clause in core_clauses {
                clauses.push(clause.iter().map(|&v| v + next).collect());
            }
            next += *n as u32;
        }
        clauses.push(Vec::new());
        for clause in &mut clauses {
            clause.extend(0..common as u32);
            clause.sort_unstable();
        }
        let classes = (0..clauses.len()).map(|_| rng.gen_range(0..2u32)).collect();
        (next as usize + unused, clauses, classes)
    }

    /// `clauses` (with their classes) relabelled and shuffled.
    fn scramble(
        num_vars: usize,
        clauses: &[Vec<u32>],
        classes: &[u32],
        rng: &mut StdRng,
    ) -> (Vec<Vec<u32>>, Vec<u32>) {
        let mut pairs: Vec<(Vec<u32>, u32)> =
            relabel(num_vars, clauses, rng).into_iter().zip(classes.iter().copied()).collect();
        for i in (1..pairs.len()).rev() {
            pairs.swap(i, rng.gen_range(0..=i));
        }
        pairs.into_iter().unzip()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        #[test]
        fn worklist_refiner_matches_the_full_recompute_oracle(
            kind in 0usize..6,
            size in 3usize..12,
            seed in any::<u64>(),
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let (num_vars, base) = shape(kind, size, &mut rng);
            let relabelled = relabel(num_vars, &base, &mut rng);
            for clauses in [&base, &relabelled] {
                // Identical partition — colour ids included, because the
                // search individualizes by id order.
                prop_assert_eq!(
                    refined_colours(num_vars, clauses),
                    oracle::refined_colours(num_vars, clauses)
                );
                // The search stage: identical key and identical witness.
                let fast = search_form(num_vars, clauses);
                let slow = oracle::canonical_form(num_vars, clauses);
                prop_assert_eq!(&fast.clauses, &slow.clauses);
                prop_assert_eq!(&fast.order, &slow.order);
                // The composed key is a renaming of the input.
                prop_assert!(is_renaming_of(&canonical_form(num_vars, clauses), num_vars, clauses));
            }
            // Relabelling changes neither the key nor the fingerprint.
            prop_assert_eq!(
                canonical_form(num_vars, &base).clauses,
                canonical_form(num_vars, &relabelled).clauses
            );
            prop_assert_eq!(
                fingerprint(num_vars, &base),
                fingerprint(num_vars, &relabelled)
            );
        }

        #[test]
        fn decomposed_keys_are_canonical_renamings(
            kind in 0usize..6,
            other_kind in 0usize..6,
            size in 3usize..7,
            copies in 1usize..4,
            common in 0usize..3,
            unused in 0usize..3,
            seed in any::<u64>(),
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let kinds = (kind, other_kind);
            let (num_vars, clauses, classes) =
                decomposable(kinds, size, copies, common, unused, &mut rng);
            let key = composed_key(num_vars, &clauses, &classes);
            // Invariant under relabelling and clause shuffling.
            let (scrambled, scrambled_classes) = scramble(num_vars, &clauses, &classes, &mut rng);
            prop_assert_eq!(&composed_key(num_vars, &scrambled, &scrambled_classes), &key);
            // Complete and sound exactly where the search is: against an
            // isomorphic copy, a reclassed copy and an independently drawn
            // shape, keys agree iff the search-only keys agree.
            let mut reclassed = classes.clone();
            let flip = rng.gen_range(0..reclassed.len());
            reclassed[flip] ^= 1;
            let (drawn_vars, drawn, drawn_classes) =
                decomposable(kinds, size, copies, common, unused, &mut rng);
            let search = search_key(num_vars, &clauses, &classes);
            for (n, other, other_classes) in [
                (num_vars, &scrambled, &scrambled_classes),
                (num_vars, &clauses, &reclassed),
                (drawn_vars, &drawn, &drawn_classes),
            ] {
                let same_key = n == num_vars && composed_key(n, other, other_classes) == key;
                let same_search = n == num_vars && search_key(n, other, other_classes) == search;
                prop_assert_eq!(same_key, same_search);
            }
        }
    }

    #[test]
    fn worklist_refinement_is_cheaper_than_the_oracle() {
        let ring: Vec<Vec<u32>> = (0..32).map(|i| vec![i, (i + 1) % 32]).collect();
        let fast = canonical_form(32, &ring);
        let slow = oracle::canonical_form(32, &ring);
        assert_eq!(fast.clauses, slow.clauses);
        assert!(
            fast.steps < slow.steps / 2,
            "worklist refinement must beat full recomputation: {} vs {} steps",
            fast.steps,
            slow.steps
        );
    }

    #[test]
    fn order_is_a_permutation_and_clauses_are_a_renaming() {
        let clauses = vec![vec![0, 1], vec![1, 2], vec![3]];
        let form = canonical_form(5, &clauses);
        let mut sorted = form.order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2, 3, 4]);
        assert!(is_renaming_of(&form, 5, &clauses));
        assert!(form.steps > 0);
    }

    #[test]
    fn relabelled_paths_share_one_form_and_stars_key_apart() {
        // The miss that motivated this module: first-occurrence renaming
        // keyed the 3-path differently depending on which variable carried
        // the middle label. All labellings must now share one form...
        let middle_label_large = vec![vec![0, 2], vec![1, 2]];
        let middle_label_small = vec![vec![0, 1], vec![0, 2]];
        let middle_label_mid = vec![vec![0, 1], vec![1, 2]];
        let reference = canonical_form(3, &middle_label_mid);
        assert_eq!(canonical_form(3, &middle_label_large).clauses, reference.clauses);
        assert_eq!(canonical_form(3, &middle_label_small).clauses, reference.clauses);
        // ...while genuinely non-isomorphic shapes stay apart: the 4-path
        // vs the 3-leaf star (these have different model counts, so a
        // collision would transfer wrong attribution values).
        let path4 = vec![vec![0, 1], vec![1, 2], vec![2, 3]];
        let star4 = vec![vec![0, 1], vec![0, 2], vec![0, 3]];
        assert_ne!(canonical_form(4, &path4).clauses, canonical_form(4, &star4).clauses);
    }

    #[test]
    fn rings_are_invariant_under_rotation_and_reflection() {
        let ring = |perm: &[u32]| -> Vec<Vec<u32>> {
            (0..perm.len()).map(|i| vec![perm[i], perm[(i + 1) % perm.len()]]).collect()
        };
        let identity: Vec<u32> = (0..8).collect();
        let rotated: Vec<u32> = (0..8).map(|i| (i + 3) % 8).collect();
        let reflected: Vec<u32> = (0..8).map(|i| (16 - i) % 8).collect();
        let scrambled: Vec<u32> = vec![5, 2, 7, 0, 3, 6, 1, 4];
        let reference = canonical_form(8, &ring(&identity));
        for perm in [&rotated, &reflected, &scrambled] {
            let form = canonical_form(8, &ring(perm));
            assert_eq!(form.clauses, reference.clauses, "{perm:?}");
        }
    }

    #[test]
    fn fully_symmetric_singletons_stay_cheap() {
        // n singleton clauses: every variable is automorphic to every other,
        // so the first leaf is already canonical, every later leaf collides
        // with it and feeds the orbit union-find, and the discovered orbits
        // prune the n!-leaf search tree down to a linear walk.
        // The composed key splits this battery without searching, so the
        // search stage is run directly to keep orbit pruning covered.
        let clauses: Vec<Vec<u32>> = (0..12).map(|v| vec![v]).collect();
        let form = search_form(12, &clauses);
        let expected: Vec<Vec<u32>> = (0..12).map(|v| vec![v]).collect();
        assert_eq!(form.clauses, expected);
        // The orbit prune caps the work far below the 512-leaf safety net:
        // without it this input walks ~512 leaves × 12 levels of refinement.
        assert!(
            form.steps < 60_000,
            "orbit pruning must collapse the symmetric search: {} steps",
            form.steps
        );
    }

    #[test]
    fn unused_universe_variables_sort_last() {
        // Variables 1 and 3 never occur in a clause; the used variables must
        // occupy the low canonical indices regardless.
        let clauses = vec![vec![0, 2], vec![2, 4]];
        let form = canonical_form(5, &clauses);
        for clause in &form.clauses {
            for &v in clause {
                assert!(v < 3, "used variables must map below the unused block");
            }
        }
    }

    #[test]
    fn degenerate_inputs() {
        // Constant false: no clauses.
        let none = canonical_form(3, &[]);
        assert_eq!(none.clauses, Vec::<Vec<u32>>::new());
        assert_eq!(none.order.len(), 3);
        // Constant true: one empty clause.
        let all = canonical_form(0, &[vec![]]);
        assert_eq!(all.clauses, vec![Vec::<u32>::new()]);
        // Empty universe, no clauses.
        let empty = canonical_form(0, &[]);
        assert!(empty.order.is_empty());
        // Fingerprints of degenerate inputs are well-defined too.
        assert_ne!(fingerprint(3, &[]), fingerprint(0, &[]));
    }

    #[test]
    fn step_capped_budget_interrupts_the_clique_search() {
        // A clique is the worst case for the descent: refinement can never
        // split its single vertex orbit, so the individualization search does
        // all the work. A tight step cap must interrupt that descent instead
        // of running it to exhaustion.
        let mut clauses = Vec::new();
        for a in 0..6u32 {
            for b in a + 1..6 {
                clauses.push(vec![a, b]);
            }
        }
        let full = canonical_form(6, &clauses);
        // With an unexhausted budget the budgeted path is bit-identical.
        let unlimited = canonical_form_classed(6, &clauses, None, Some(&Budget::unlimited()))
            .expect("unlimited");
        assert_eq!(unlimited.clauses, full.clauses);
        assert_eq!(unlimited.order, full.order);
        assert_eq!(unlimited.steps, full.steps);
        // A cap far below the full search's refinement cost interrupts it.
        let capped = Budget::with_max_steps((full.steps / 4).max(1));
        assert!(canonical_form_classed(6, &clauses, None, Some(&capped)).is_err());
        assert!(
            capped.steps_used() <= full.steps,
            "an interrupted descent must stop charging: {} charged vs {} full",
            capped.steps_used(),
            full.steps
        );
    }

    #[test]
    fn step_capped_budget_interrupts_disjoint_clique_cores() {
        // Four disjoint 6-cliques: the split stage hands each to its own
        // search, and all four charge one budget. A cap that lets any one
        // core finish must still stop the four of them together.
        let clique: Vec<Vec<u32>> =
            (0..6u32).flat_map(|a| (a + 1..6).map(move |b| vec![a, b])).collect();
        let one = Budget::unlimited();
        canonical_form_classed(6, &clique, None, Some(&one)).expect("unlimited");
        let cap = one.steps_used() * 2;
        assert!(
            canonical_form_classed(6, &clique, None, Some(&Budget::with_max_steps(cap))).is_ok()
        );
        let cores: Vec<Vec<u32>> = (0..4u32)
            .flat_map(|k| clique.iter().map(move |c| c.iter().map(|&v| v + 6 * k).collect()))
            .collect();
        let full = canonical_form(24, &cores);
        let unlimited = canonical_form_classed(24, &cores, None, Some(&Budget::unlimited()))
            .expect("unlimited");
        assert_eq!((&unlimited.clauses, &unlimited.order), (&full.clauses, &full.order));
        assert_eq!(unlimited.steps, full.steps);
        let capped = Budget::with_max_steps(cap);
        assert!(canonical_form_classed(24, &cores, None, Some(&capped)).is_err());
    }

    #[test]
    fn hierarchical_shapes_key_in_linear_steps() {
        // The star `x ∧ ⋁(a_i ∧ b_i)` factors once and splits once; the
        // battery of singletons splits once. Neither reaches the search,
        // whose cost on these interchangeable cells grows like `k³`.
        let mut per_clause = Vec::new();
        for k in [21u32, 200] {
            let star: Vec<Vec<u32>> = (0..k).map(|i| vec![0, 2 * i + 1, 2 * i + 2]).collect();
            let battery: Vec<Vec<u32>> = (0..k).map(|i| vec![i]).collect();
            for (num_vars, clauses) in [(2 * k as usize + 1, star), (k as usize, battery)] {
                let form = canonical_form(num_vars, &clauses);
                assert!(is_renaming_of(&form, num_vars, &clauses));
                // Each clause already is its canonical self.
                assert_eq!(form.clauses, clauses);
                per_clause.push(form.steps / u64::from(k));
            }
        }
        // Steps per clause are the same at k = 21 and at k = 200.
        assert_eq!(per_clause[0], per_clause[2], "star: {per_clause:?}");
        assert_eq!(per_clause[1], per_clause[3], "battery: {per_clause:?}");
        assert!(per_clause[0] <= 12 && per_clause[1] <= 4, "{per_clause:?}");
    }

    #[test]
    fn two_triangles_differ_from_a_hexagon() {
        // The classic 1-WL-equivalent pair (all nodes degree 2 both sides):
        // refinement alone cannot split them, so this exercises the
        // individualization/backtracking stage.
        let triangles =
            vec![vec![0, 1], vec![1, 2], vec![2, 0], vec![3, 4], vec![4, 5], vec![5, 3]];
        let hexagon = vec![vec![0, 1], vec![1, 2], vec![2, 3], vec![3, 4], vec![4, 5], vec![5, 0]];
        let a = canonical_form(6, &triangles);
        let b = canonical_form(6, &hexagon);
        assert_ne!(a.clauses, b.clauses);
        // They do share a fingerprint (equal counts, widths, and degrees) —
        // the pair the cache's lazy canonicalization must keep apart.
        assert_eq!(fingerprint(6, &triangles), fingerprint(6, &hexagon));
        // Relabelled copies of each still land on their own form.
        let triangles_relabelled =
            vec![vec![5, 3], vec![3, 1], vec![1, 5], vec![0, 2], vec![2, 4], vec![4, 0]];
        assert_eq!(canonical_form(6, &triangles_relabelled).clauses, a.clauses);
        let hexagon_relabelled =
            vec![vec![4, 2], vec![2, 0], vec![0, 3], vec![3, 5], vec![5, 1], vec![1, 4]];
        assert_eq!(canonical_form(6, &hexagon_relabelled).clauses, b.clauses);
    }
}
