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
//! [`canonical_form`] keys a lineage in four stages. The first two
//! follow the decomposition ExaBan's d-tree compiler applies before any
//! Shannon step; the third is the general form of its ⊙ step (a conjunction
//! of functions on disjoint variables), which the compiler does not apply:
//!
//! 1. **Factor (⊙).** The variables common to every clause of a part take the
//!    next canonical indices; they are pairwise twins (swapping two of them
//!    maps every clause to itself), so their order among themselves cannot
//!    change the key. The remainder — each clause minus the common variables
//!    — is keyed and shifted past them.
//! 2. **Split (⊗).** The connected components of the clause–variable
//!    incidence graph are keyed separately (an empty clause is a component of
//!    its own) and concatenated in the order of their keys
//!    `(variable count, renamed clause list)`. Isomorphic components key
//!    equal, so which of them comes first cannot change the key either.
//! 3. **Product (⊙ of factors).** A connected part without common variables
//!    may still be a cross product: every clause the union of one clause from
//!    each of several clause sets on disjoint variables (`Movie(m) ∧
//!    (⋁ Directs) ∧ (⋁ ActsIn)` leaves `K_{a,d}` once `m` is factored out).
//!    Every variable of one factor meets every variable of another in some
//!    clause, so each factor is a union of *co-components*, the connected
//!    components of the complement of the variable co-occurrence graph. A
//!    co-component `C` splits off when `|π_C| · |π_rest|` equals the number
//!    of clauses and no two clauses project to the same pair (each clause
//!    maps injectively into `π_C × π_rest`, so the count makes the map a
//!    bijection); the co-components that split are factors, and the others
//!    together form one more. Each factor — its distinct projections — is
//!    keyed through all four stages, the factors are ordered by key as
//!    components are, and the key is the sorted cross product of their
//!    clause lists with index offsets; the witness is the concatenation of
//!    the factor orders.
//! 4. **Search.** A part that neither factors, splits nor factors as a
//!    product — an indecomposable core — runs the colour-refinement and
//!    individualization search below. An input that is indecomposable at
//!    the top level runs it on its own arrays, so its form, witness and step
//!    count are the search's alone.
//!
//! Lineages of hierarchical queries decompose into independent sub-functions
//! down to single variables, so they never reach the search. A product core
//! costs one co-occurrence pass (`O(Σ width²)`) and one projection pass per
//! co-component, where the search would pay for every cell of
//! interchangeable facts (the `k` actors of one movie) roughly `k³`. Two
//! degree screens keep other cores from paying for the test: a product's
//! every variable lies in at least two clauses, and `|π_C| · |π_rest|`
//! divides the product of the degree gcds inside and outside `C`.
//!
//! The search works on the bipartite clause–variable incidence graph:
//!
//! * **Colour refinement** (1-dimensional Weisfeiler–Leman): variables and
//!   clauses start with colours derived from their degrees/widths, and cells
//!   split by the multiset of their members' neighbour colours until the
//!   partition is stable. It runs as a
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
//! isomorphic lineages unconditionally. For a product this holds because the
//! part's clauses are exactly the cross product of the factors' projections,
//! so renaming each factor through its witness renames every clause into
//! the assembled list.
//!
//! **Completeness.** Any variable bijection between two lineages maps the
//! common variables of one onto those of the other, its components onto
//! isomorphic components, and its co-components onto co-components with the
//! same projection counts, so it maps the splittable co-components (and the
//! rest) of one onto those of the other; factoring, splitting and product
//! factoring all commute with it. The part keys are canonical, so the
//! assembled keys are equal: the sorted cross product depends only on the
//! multiset of factor keys, and factors with equal keys are interchangeable
//! (swapping them maps the product to itself). For a core,
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

/// The canonical form of a lineage presented as dense clause lists.
pub(crate) struct CanonicalForm {
    /// `order[i]` is the input variable assigned canonical index `i`.
    pub(crate) order: Vec<u32>,
    /// The clauses renamed through `order`, each sorted, the list sorted.
    pub(crate) clauses: Vec<Vec<u32>>,
    /// Keying work performed (decomposition passes plus the search's node
    /// signatures), the canonicalization analogue of `compile_steps`.
    pub(crate) steps: u64,
    /// Whether some indecomposable core ran the individualization search
    /// (a lineage that factors, splits and multiplies all the way down keys
    /// without one).
    pub(crate) searched: bool,
}

/// Backtracking-leaf budget of one core's search. Exploration past this many
/// discrete partitions stops with the best form found so far (see the module
/// docs for why this only ever degrades cache hit rate, never correctness).
const MAX_LEAVES: usize = 512;

/// Computes the canonical form of `clauses` over variables `0..num_vars`
/// (variables beyond the clauses' support are degree-0 universe padding and
/// are appended after the used variables in input order — no clause mentions
/// them, so the key does not depend on their order).
///
/// Under a cooperative `budget` every decomposition pass and every
/// refinement round charges its step lump, so a step cap or deadline
/// interrupts the keying mid-stream instead of letting a pathologically
/// symmetric shape stall the whole batch-planning walk. With an unexhausted
/// budget the result — form, witness order, and step count — is
/// bit-identical to `budget: None`; on exhaustion the caller gets `Err` and
/// treats the shape as unkeyable (a cache miss, never a wrong key).
pub(crate) fn canonical_form(
    num_vars: usize,
    clauses: &[Vec<u32>],
    budget: Option<&Budget>,
) -> Result<CanonicalForm, Interrupted> {
    let mut keyer = Keyer::new(num_vars, clauses, budget);
    let part: Vec<u32> = (0..clauses.len() as u32).collect();
    let used: Vec<u32> = (0..num_vars as u32).filter(|&v| keyer.used[v as usize]).collect();
    let Some(step) = keyer.decompose(&part, &used) else {
        let ((order, canonical_clauses), steps) = search(num_vars, clauses, budget)?;
        return Ok(CanonicalForm { order, clauses: canonical_clauses, steps, searched: true });
    };
    let (mut order, canonical_clauses) = keyer.apply(&part, &used, step)?;
    order.extend((0..num_vars as u32).filter(|&v| !keyer.used[v as usize]));
    debug_assert!(canonical_clauses.windows(2).all(|w| w[0] <= w[1]), "parts assemble sorted");
    Ok(CanonicalForm {
        order,
        clauses: canonical_clauses,
        steps: keyer.steps,
        searched: keyer.searched,
    })
}

/// Runs the refinement and individualization search on `clauses` over
/// `0..num_vars` and returns its best leaf with the steps it cost.
fn search(
    num_vars: usize,
    clauses: &[Vec<u32>],
    budget: Option<&Budget>,
) -> Result<(Candidate, u64), Interrupted> {
    let mut searcher = Searcher::new(num_vars, clauses);
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
    /// The part's cross-product factors: `(clause ids, variables ascending)`,
    /// one clause per distinct projection onto the factor's variables.
    Product(Vec<(Vec<u32>, Vec<u32>)>),
}

/// The factor, split and product stages of [`canonical_form`]. A
/// part is a set of input clause ids plus the variables they still mention;
/// factoring marks its common variables `factored`, which removes them from
/// every clause of the part (and of no other part: parts never share a
/// variable). A product factor is keyed with the part's other variables
/// marked too, so its clauses read as their projections onto it.
struct Keyer<'a> {
    clauses: &'a [Vec<u32>],
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
    /// Whether some core ran the search.
    searched: bool,
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
    fn new(num_vars: usize, clauses: &'a [Vec<u32>], budget: Option<&'a Budget>) -> Self {
        let mut used = vec![false; num_vars];
        for clause in clauses {
            for &v in clause {
                used[v as usize] = true;
            }
        }
        Keyer {
            clauses,
            budget,
            used,
            factored: vec![false; num_vars],
            scratch: vec![0; num_vars],
            parent: (0..num_vars as u32).collect(),
            steps: 0,
            searched: false,
        }
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
        // A variable of a product factor lies in one clause per projection
        // onto the other factors, and a factor has at least two.
        let may_be_product = vars.iter().all(|&v| scratch[v as usize] >= 2);
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
        if components.len() > 1 {
            return Some(Step::Split(components));
        }
        if !may_be_product {
            return None;
        }
        self.product(part, vars).map(Step::Product)
    }

    /// The cross-product factors of a connected part without common
    /// variables, or `None` when it has none. The candidates are the
    /// co-components (connected components of the complement of the
    /// variable co-occurrence graph): a factor of a product meets every
    /// variable outside it, so each factor is a union of co-components. A
    /// co-component `C` splits off when `|π_C| · |π_rest|` equals the number
    /// of clauses and no two clauses project to the same pair: every clause
    /// is the union of its two projections, so the clauses are then exactly
    /// `π_C × π_rest`. The co-components that split are factors of their
    /// own, and the rest, if any, is one more factor.
    fn product(&mut self, part: &[u32], vars: &[u32]) -> Option<Vec<(Vec<u32>, Vec<u32>)>> {
        let local = self.localize(part, vars);
        let (component, count) = co_components(vars.len(), &local)?;
        let mut degree = vec![0u64; vars.len()];
        for &v in local.iter().flatten() {
            degree[v as usize] += 1;
        }
        let mut factors: Vec<(Vec<u32>, Vec<u32>)> = Vec::new();
        let mut splits = vec![false; count as usize];
        for k in 0..count {
            // In a product `A × B` with `A` over `C`, a variable of `C` lies
            // in `|B|` clauses per clause of `A` holding it and a variable
            // outside in `|A|` per clause of `B`: `|B|` divides the gcd of
            // the degrees in `C`, `|A|` that of the rest, so `|A| · |B|`
            // divides their product. Cliques fail this before any projection.
            let (mut inner_gcd, mut outer_gcd) = (0, 0);
            for (v, &d) in degree.iter().enumerate() {
                let gcd_of = if component[v] == k { &mut inner_gcd } else { &mut outer_gcd };
                *gcd_of = gcd(*gcd_of, d);
            }
            if inner_gcd * outer_gcd % part.len() as u64 != 0 {
                continue;
            }
            let (inner, a) = projection_ids(&local, |v| component[v as usize] == k);
            let (outer, b) = projection_ids(&local, |v| component[v as usize] != k);
            if a * b != part.len() {
                continue;
            }
            let mut seen = vec![false; part.len()];
            let mut pairs = inner.iter().zip(&outer).map(|(&i, &o)| i as usize * b + o as usize);
            if !pairs.all(|pair| !std::mem::replace(&mut seen[pair], true)) {
                continue;
            }
            splits[k as usize] = true;
            factors.push(factor(part, vars, &inner, a, |v| component[v as usize] == k));
        }
        if factors.is_empty() {
            return None;
        }
        if splits.contains(&false) {
            let rest = |v: u32| !splits[component[v as usize] as usize];
            let (ids, distinct) = projection_ids(&local, rest);
            factors.push(factor(part, vars, &ids, distinct, rest));
        }
        Some(factors)
    }

    /// The clauses of `part` restricted to its live variables, each renamed
    /// to its variable's position in `vars`.
    fn localize(&mut self, part: &[u32], vars: &[u32]) -> Vec<Vec<u32>> {
        for (local, &v) in vars.iter().enumerate() {
            self.scratch[v as usize] = local as u32;
        }
        let clauses = part
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
        clauses
    }

    /// Keys `part` over `vars`: directly when every clause is empty, by the
    /// search when it is a core, else through one decomposition step (factor,
    /// split or product).
    fn key_part(&mut self, part: &[u32], vars: &[u32]) -> Result<Candidate, Interrupted> {
        if vars.is_empty() {
            return Ok((Vec::new(), vec![Vec::new(); part.len()]));
        }
        match self.decompose(part, vars) {
            Some(step) => self.apply(part, vars, step),
            None => self.core(part, vars),
        }
    }

    /// Charges the pass that found `step` and keys `part` through it. A
    /// factored or split clause list comes out sorted without a sort: a
    /// factored prefix is shared by every clause, and the clauses of an
    /// earlier part start below every variable of a later one (a
    /// variable-free part holds one empty clause, the least of all). A
    /// product's list is sorted once assembled: a shorter clause of an
    /// earlier factor can sort after a longer one joined to it.
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
                let (order, clauses) = self.key_part(part, &rest)?;
                let width = common.len() as u32;
                let clauses = clauses
                    .into_iter()
                    .map(|clause| (0..width).chain(clause.into_iter().map(|v| v + width)).collect())
                    .collect();
                let mut full = common;
                full.extend(order);
                Ok((full, clauses))
            }
            Step::Split(components) => {
                let mut keys = Vec::with_capacity(components.len());
                for (clauses, vars) in &components {
                    keys.push(self.key_part(clauses, vars)?);
                }
                sort_keys(&mut keys);
                let mut assembled: Candidate = (Vec::new(), Vec::new());
                for (order, clauses) in keys {
                    let offset = assembled.0.len() as u32;
                    assembled.1.extend(
                        clauses.into_iter().map(|c| c.into_iter().map(|v| v + offset).collect()),
                    );
                    assembled.0.extend(order);
                }
                Ok(assembled)
            }
            Step::Product(factors) => {
                // Each factor is keyed with every other variable of the part
                // masked, so its clauses reduce to their projections onto it.
                let mut keys = Vec::with_capacity(factors.len());
                for (clauses, factor_vars) in &factors {
                    for &v in vars {
                        self.factored[v as usize] = true;
                    }
                    for &v in factor_vars {
                        self.factored[v as usize] = false;
                    }
                    keys.push(self.key_part(clauses, factor_vars)?);
                }
                sort_keys(&mut keys);
                let mut order = Vec::with_capacity(vars.len());
                let mut product: Vec<Vec<u32>> = vec![Vec::new()];
                for (factor_order, factor_clauses) in keys {
                    let offset = order.len() as u32;
                    let mut extended = Vec::with_capacity(product.len() * factor_clauses.len());
                    for prefix in &product {
                        for clause in &factor_clauses {
                            let mut joined = prefix.clone();
                            joined.extend(clause.iter().map(|&v| v + offset));
                            extended.push(joined);
                        }
                    }
                    product = extended;
                    order.extend(factor_order);
                }
                product.sort_unstable();
                Ok((order, product))
            }
        }
    }

    /// Runs the search on a core, renumbered to its own dense universe.
    fn core(&mut self, part: &[u32], vars: &[u32]) -> Result<Candidate, Interrupted> {
        let clauses = self.localize(part, vars);
        let ((order, clauses), steps) = search(vars.len(), &clauses, self.budget)?;
        self.steps += steps;
        self.searched = true;
        Ok((order.into_iter().map(|local| vars[local as usize]).collect(), clauses))
    }
}

/// Orders part keys by `(variable count, renamed clause list)`, the order
/// in which split and product stages assemble them.
fn sort_keys(keys: &mut [Candidate]) {
    keys.sort_by(|a, b| (a.0.len(), &a.1).cmp(&(b.0.len(), &b.1)));
}

/// The co-component of each variable of `clauses` over `0..num_vars` and
/// how many there are: the connected components of the complement of the
/// co-occurrence graph, or `None` when there is only one. A breadth-first
/// search over the complement that keeps the unvisited variables in a list:
/// the variables a popped `u` meets in some clause stay in it and the rest
/// join `u`'s component, so every scan of the list costs at most `u`'s
/// co-occurrence degree beyond the variables it removes, and the whole pass
/// costs `O(Σ width²)`. The first component stops as soon as the list is
/// empty.
fn co_components(num_vars: usize, clauses: &[Vec<u32>]) -> Option<(Vec<u32>, u32)> {
    let mut starts = vec![0u32; num_vars + 1];
    for clause in clauses {
        for &v in clause {
            starts[v as usize + 1] += 1;
        }
    }
    for v in 0..num_vars {
        starts[v + 1] += starts[v];
    }
    let mut cursor = starts.clone();
    let mut incident = vec![0u32; starts[num_vars] as usize];
    for (c, clause) in clauses.iter().enumerate() {
        for &v in clause {
            incident[cursor[v as usize] as usize] = c as u32;
            cursor[v as usize] += 1;
        }
    }
    let mut component = vec![0u32; num_vars];
    let mut met = vec![u32::MAX; num_vars];
    let mut unvisited: Vec<u32> = (0..num_vars as u32).rev().collect();
    let mut queue: Vec<u32> = Vec::new();
    let mut count = 0u32;
    while let Some(root) = unvisited.pop() {
        component[root as usize] = count;
        queue.clear();
        queue.push(root);
        let mut head = 0;
        while head < queue.len() && !unvisited.is_empty() {
            let u = queue[head];
            head += 1;
            let (from, to) = (starts[u as usize] as usize, starts[u as usize + 1] as usize);
            for &c in &incident[from..to] {
                for &w in &clauses[c as usize] {
                    met[w as usize] = u;
                }
            }
            unvisited.retain(|&w| {
                let stays = met[w as usize] == u;
                if !stays {
                    component[w as usize] = count;
                    queue.push(w);
                }
                stays
            });
        }
        if count == 0 && unvisited.is_empty() {
            return None;
        }
        count += 1;
    }
    Some((component, count))
}

/// The greatest common divisor, with `gcd(0, d) = d`.
fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

/// Numbers the distinct projections of `clauses` onto the variables `keep`
/// selects: the id of each clause's projection, and how many there are.
fn projection_ids(clauses: &[Vec<u32>], keep: impl Fn(u32) -> bool) -> (Vec<u32>, usize) {
    let projections: Vec<Vec<u32>> = clauses
        .iter()
        .map(|clause| {
            let mut projection: Vec<u32> = clause.iter().copied().filter(|&v| keep(v)).collect();
            projection.sort_unstable();
            projection
        })
        .collect();
    let mut by_projection: Vec<u32> = (0..clauses.len() as u32).collect();
    by_projection.sort_unstable_by(|&a, &b| projections[a as usize].cmp(&projections[b as usize]));
    let mut ids = vec![0u32; clauses.len()];
    let mut distinct = 0u32;
    for (i, &c) in by_projection.iter().enumerate() {
        if i > 0 && projections[c as usize] != projections[by_projection[i - 1] as usize] {
            distinct += 1;
        }
        ids[c as usize] = distinct;
    }
    (ids, distinct as usize + 1)
}

/// A product factor of `part`: one clause per distinct projection (by the
/// projection `ids`, `distinct` of them) and the variables of `vars` whose
/// local index `inside` selects.
fn factor(
    part: &[u32],
    vars: &[u32],
    ids: &[u32],
    distinct: usize,
    inside: impl Fn(u32) -> bool,
) -> (Vec<u32>, Vec<u32>) {
    let mut clauses = vec![u32::MAX; distinct];
    for (&c, &id) in part.iter().zip(ids) {
        if clauses[id as usize] == u32::MAX {
            clauses[id as usize] = c;
        }
    }
    let factor_vars = (0..vars.len() as u32).filter(|&local| inside(local));
    (clauses, factor_vars.map(|local| vars[local as usize]).collect())
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
}

impl Fingerprint {
    /// The fingerprint's raw fields, in declaration order — the stable
    /// identity the snapshot format writes. Kept as an explicit tuple (not
    /// struct access) so every consumer of the raw form breaks loudly if a
    /// field is ever added.
    pub(crate) fn raw_parts(self) -> (u32, u32, u64, u64) {
        (self.num_vars, self.num_clauses, self.widths, self.degrees)
    }

    /// Rebuilds a fingerprint from [`Fingerprint::raw_parts`] (snapshot
    /// deserialization). The caller is responsible for validating that the
    /// fingerprint matches its entry's shape — see `persist`.
    pub(crate) fn from_raw_parts(parts: (u32, u32, u64, u64)) -> Fingerprint {
        Fingerprint { num_vars: parts.0, num_clauses: parts.1, widths: parts.2, degrees: parts.3 }
    }
}

/// Computes the [`Fingerprint`] of `clauses` over variables `0..num_vars` in
/// one linear pass — no refinement, no search.
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
    }
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

/// A leaf candidate: (variable order, renamed sorted clause list).
type Candidate = (Vec<u32>, Vec<Vec<u32>>);

struct Searcher<'a> {
    num_vars: usize,
    clauses: &'a [Vec<u32>],
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
    /// width. Refinement would reach the degree/width split in one round;
    /// starting from it just saves that round.
    fn initial_colouring(&mut self) -> Colouring {
        let signatures: Vec<(u32, u32)> = (0..self.adjacency.len())
            .map(|node| {
                let degree = self.adjacency[node].len() as u32;
                if node < self.num_vars {
                    // Used variables before unused ones, then by degree.
                    (u32::from(degree == 0), degree)
                } else {
                    (2, degree)
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
        let mut renamed: Vec<Vec<u32>> = self
            .clauses
            .iter()
            .map(|clause| {
                let mut r: Vec<u32> = clause.iter().map(|&v| rank[v as usize]).collect();
                r.sort_unstable();
                r
            })
            .collect();
        renamed.sort_unstable();
        self.steps += self.num_vars as u64 + self.clauses.len() as u64;
        match &self.best {
            Some((best_order, best_clauses)) if renamed == *best_clauses => {
                // Two renamings producing the same clause list compose to an
                // automorphism of the input: canonical index i is variable
                // `best_order[i]` under one and `order[i]` under the other.
                // Feed its orbits to the branching prune.
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

/// The stable refinement of the initial colouring — test-only visibility so
/// the proptests can compare partitions (not just final keys) against the
/// full-recompute oracle.
#[cfg(test)]
fn refined_colours(num_vars: usize, clauses: &[Vec<u32>]) -> (Vec<u32>, u32) {
    let mut searcher = Searcher::new(num_vars, clauses);
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
            CanonicalForm {
                order,
                clauses: canonical_clauses,
                steps: searcher.steps,
                searched: true,
            }
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

    /// The canonical form without a budget.
    fn unbudgeted_form(num_vars: usize, clauses: &[Vec<u32>]) -> CanonicalForm {
        canonical_form(num_vars, clauses, None).expect("no budget, no interrupt")
    }

    /// Applies `form.order` to check the form really is a renaming of the
    /// input: the order must be a permutation, and renaming the input
    /// clauses through its inverse and sorting must reproduce
    /// `form.clauses`.
    fn is_renaming_of(form: &CanonicalForm, num_vars: usize, clauses: &[Vec<u32>]) -> bool {
        let mut sorted = form.order.clone();
        sorted.sort_unstable();
        if !sorted.iter().copied().eq(0..num_vars as u32) {
            return false;
        }
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
    /// cliques, double-stars, random clause soups, complete bipartite
    /// `K_{a,b}` and the cross product of a random soup with another core.
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
            5 => {
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
            6 => {
                let a = (n / 3).max(2);
                (size, (0..a).flat_map(|i| (a..n).map(move |j| vec![i, j])).collect())
            }
            _ => {
                let half = (size / 2).max(3);
                let (left_vars, left) = shape(rng.gen_range(0..7), half, rng);
                let (right_vars, right) = shape(5, half, rng);
                (left_vars + right_vars, cross(&left, left_vars, &right))
            }
        }
    }

    /// The clauses `l ∪ (r + shift)` for every `l` in `left` and `r` in
    /// `right`: the cross product of two lineages on disjoint variables.
    fn cross(left: &[Vec<u32>], shift: usize, right: &[Vec<u32>]) -> Vec<Vec<u32>> {
        let mut clauses = Vec::new();
        for l in left {
            for r in right {
                clauses
                    .push(l.iter().copied().chain(r.iter().map(|&v| v + shift as u32)).collect());
            }
        }
        clauses
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
        let ((order, clauses), steps) =
            search(num_vars, clauses, None).expect("no budget, no interrupt");
        CanonicalForm { order, clauses, steps, searched: true }
    }

    /// A decomposable lineage: `copies` isomorphic copies of a `shape` core
    /// plus one core of another kind, under `common` variables shared by
    /// every clause, with one clause that is empty once they are factored
    /// out (an empty clause of its own when `common` is 0), and `unused`
    /// universe variables no clause mentions.
    fn decomposable(
        kinds: (usize, usize),
        size: usize,
        copies: usize,
        common: usize,
        unused: usize,
        rng: &mut StdRng,
    ) -> (usize, Vec<Vec<u32>>) {
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
        (next as usize + unused, clauses)
    }

    /// `clauses` relabelled and shuffled.
    fn scramble(num_vars: usize, clauses: &[Vec<u32>], rng: &mut StdRng) -> Vec<Vec<u32>> {
        let mut scrambled = relabel(num_vars, clauses, rng);
        for i in (1..scrambled.len()).rev() {
            scrambled.swap(i, rng.gen_range(0..=i));
        }
        scrambled
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        #[test]
        fn worklist_refiner_matches_the_full_recompute_oracle(
            kind in 0usize..8,
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
                prop_assert!(is_renaming_of(&unbudgeted_form(num_vars, clauses), num_vars, clauses));
            }
            // Relabelling changes neither the key nor the fingerprint.
            prop_assert_eq!(
                unbudgeted_form(num_vars, &base).clauses,
                unbudgeted_form(num_vars, &relabelled).clauses
            );
            prop_assert_eq!(
                fingerprint(num_vars, &base),
                fingerprint(num_vars, &relabelled)
            );
        }

        #[test]
        fn decomposed_keys_are_canonical_renamings(
            kind in 0usize..8,
            other_kind in 0usize..8,
            size in 3usize..7,
            copies in 1usize..4,
            common in 0usize..3,
            unused in 0usize..3,
            seed in any::<u64>(),
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let kinds = (kind, other_kind);
            let (num_vars, clauses) = decomposable(kinds, size, copies, common, unused, &mut rng);
            // The factored, split and multiplied key is the input renamed
            // through its witness, whatever the presentation.
            let form = unbudgeted_form(num_vars, &clauses);
            prop_assert!(is_renaming_of(&form, num_vars, &clauses));
            let scrambled = scramble(num_vars, &clauses, &mut rng);
            prop_assert_eq!(&unbudgeted_form(num_vars, &scrambled).clauses, &form.clauses);
            // Complete and sound exactly where the search is: against an
            // isomorphic copy, a copy with one clause widened by a variable
            // it lacks and an independently drawn shape, keys agree iff the
            // search-only keys agree.
            let mut widened = scrambled.clone();
            let at = rng.gen_range(0..widened.len());
            let lacking: Vec<u32> =
                (0..num_vars as u32).filter(|v| !widened[at].contains(v)).collect();
            widened[at].push(lacking[rng.gen_range(0..lacking.len())]);
            widened[at].sort_unstable();
            let (drawn_vars, drawn) = decomposable(kinds, size, copies, common, unused, &mut rng);
            let search = search_form(num_vars, &clauses).clauses;
            for (n, other) in [(num_vars, &scrambled), (num_vars, &widened), (drawn_vars, &drawn)] {
                let same_key = n == num_vars && unbudgeted_form(n, other).clauses == form.clauses;
                let same_search = n == num_vars && search_form(n, other).clauses == search;
                prop_assert_eq!(same_key, same_search);
            }
        }

        #[test]
        fn unclassed_keys_are_canonical_renamings(
            kind in 0usize..8,
            other_kind in 0usize..8,
            size in 3usize..7,
            copies in 1usize..4,
            common in 0usize..3,
            unused in 0usize..3,
            seed in any::<u64>(),
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let kinds = (kind, other_kind);
            let (num_vars, clauses) = decomposable(kinds, size, copies, common, unused, &mut rng);
            let form = unbudgeted_form(num_vars, &clauses);
            prop_assert!(is_renaming_of(&form, num_vars, &clauses));
            // Invariant under relabelling and clause shuffling.
            let scrambled = scramble(num_vars, &clauses, &mut rng);
            let scrambled_form = unbudgeted_form(num_vars, &scrambled);
            prop_assert!(is_renaming_of(&scrambled_form, num_vars, &scrambled));
            prop_assert_eq!(&scrambled_form.clauses, &form.clauses);
            // Keys agree iff the search-only keys agree, against an
            // isomorphic copy, a copy missing one clause and an
            // independently drawn shape.
            let mut pruned = scrambled.clone();
            pruned.swap_remove(rng.gen_range(0..pruned.len()));
            let (drawn_vars, drawn) = decomposable(kinds, size, copies, common, unused, &mut rng);
            let search = search_form(num_vars, &clauses).clauses;
            for (n, other) in [(num_vars, &scrambled), (num_vars, &pruned), (drawn_vars, &drawn)] {
                let same_key = n == num_vars && unbudgeted_form(n, other).clauses == form.clauses;
                let same_search = n == num_vars && search_form(n, other).clauses == search;
                prop_assert_eq!(same_key, same_search);
            }
        }
    }

    #[test]
    fn worklist_refinement_is_cheaper_than_the_oracle() {
        let ring: Vec<Vec<u32>> = (0..32).map(|i| vec![i, (i + 1) % 32]).collect();
        let fast = unbudgeted_form(32, &ring);
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
        let form = unbudgeted_form(5, &clauses);
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
        let reference = unbudgeted_form(3, &middle_label_mid);
        assert_eq!(unbudgeted_form(3, &middle_label_large).clauses, reference.clauses);
        assert_eq!(unbudgeted_form(3, &middle_label_small).clauses, reference.clauses);
        // ...while genuinely non-isomorphic shapes stay apart: the 4-path
        // vs the 3-leaf star (these have different model counts, so a
        // collision would transfer wrong attribution values).
        let path4 = vec![vec![0, 1], vec![1, 2], vec![2, 3]];
        let star4 = vec![vec![0, 1], vec![0, 2], vec![0, 3]];
        assert_ne!(unbudgeted_form(4, &path4).clauses, unbudgeted_form(4, &star4).clauses);
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
        let reference = unbudgeted_form(8, &ring(&identity));
        for perm in [&rotated, &reflected, &scrambled] {
            let form = unbudgeted_form(8, &ring(perm));
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
        let form = unbudgeted_form(5, &clauses);
        for clause in &form.clauses {
            for &v in clause {
                assert!(v < 3, "used variables must map below the unused block");
            }
        }
    }

    #[test]
    fn degenerate_inputs() {
        // Constant false: no clauses.
        let none = unbudgeted_form(3, &[]);
        assert_eq!(none.clauses, Vec::<Vec<u32>>::new());
        assert_eq!(none.order.len(), 3);
        // Constant true: one empty clause.
        let all = unbudgeted_form(0, &[vec![]]);
        assert_eq!(all.clauses, vec![Vec::<u32>::new()]);
        // Empty universe, no clauses.
        let empty = unbudgeted_form(0, &[]);
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
        let full = unbudgeted_form(6, &clauses);
        // With an unexhausted budget the budgeted path is bit-identical.
        let unlimited = canonical_form(6, &clauses, Some(&Budget::unlimited())).expect("unlimited");
        assert_eq!(unlimited.clauses, full.clauses);
        assert_eq!(unlimited.order, full.order);
        assert_eq!(unlimited.steps, full.steps);
        // A cap far below the full search's refinement cost interrupts it.
        let capped = Budget::with_max_steps((full.steps / 4).max(1));
        assert!(canonical_form(6, &clauses, Some(&capped)).is_err());
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
        canonical_form(6, &clique, Some(&one)).expect("unlimited");
        let cap = one.steps_used() * 2;
        assert!(canonical_form(6, &clique, Some(&Budget::with_max_steps(cap))).is_ok());
        let cores: Vec<Vec<u32>> = (0..4u32)
            .flat_map(|k| clique.iter().map(move |c| c.iter().map(|&v| v + 6 * k).collect()))
            .collect();
        let full = unbudgeted_form(24, &cores);
        let unlimited = canonical_form(24, &cores, Some(&Budget::unlimited())).expect("unlimited");
        assert_eq!((&unlimited.clauses, &unlimited.order), (&full.clauses, &full.order));
        assert_eq!(unlimited.steps, full.steps);
        let capped = Budget::with_max_steps(cap);
        assert!(canonical_form(24, &cores, Some(&capped)).is_err());
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
                let form = unbudgeted_form(num_vars, &clauses);
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

    /// An `imdb_q5`-shaped lineage, `⋁_m movie_m ∧ (⋁ directs) ∧ (⋁ acts_in)`:
    /// per movie `(directors, actors)`, the movie variable, then its
    /// directors, then its actors.
    fn movies(casts: &[(u32, u32)]) -> (usize, Vec<Vec<u32>>) {
        let mut clauses = Vec::new();
        let mut next = 0u32;
        for &(directors, actors) in casts {
            let (movie, first_director, first_actor) = (next, next + 1, next + 1 + directors);
            for d in first_director..first_actor {
                for a in first_actor..first_actor + actors {
                    clauses.push(vec![movie, d, a]);
                }
            }
            next = first_actor + actors;
        }
        (next as usize, clauses)
    }

    #[test]
    fn cross_product_cores_key_without_the_search() {
        let mut per_clause = Vec::new();
        for scale in [1u32, 4] {
            let (num_vars, clauses) = movies(&[(2, 10 * scale), (2, 10 * scale), (3, 3), (1, 4)]);
            let form = unbudgeted_form(num_vars, &clauses);
            assert!(!form.searched, "every core is a product");
            assert!(is_renaming_of(&form, num_vars, &clauses));
            per_clause.push(form.steps / clauses.len() as u64);
            let mut rng = StdRng::seed_from_u64(u64::from(scale));
            let scrambled = scramble(num_vars, &clauses, &mut rng);
            assert_eq!(unbudgeted_form(num_vars, &scrambled).clauses, form.clauses);
            // Same variable and clause counts, other casts: keyed apart.
            let (other_vars, other) = movies(&[(2, 10 * scale), (2, 10 * scale), (1, 3), (2, 5)]);
            assert_eq!((other_vars, other.len()), (num_vars, clauses.len()));
            assert_ne!(unbudgeted_form(other_vars, &other).clauses, form.clauses);
        }
        // Keying stays linear: steps per clause do not grow with the cast.
        assert!(per_clause[1] <= per_clause[0], "{per_clause:?}");
        // A factor may hold an empty projection: `{x0} ∨ {∅}` times
        // `{x1} ∨ {x2}`, read as `x1 ∨ x2 ∨ x0x1 ∨ x0x2`.
        let absorbed = vec![vec![1], vec![2], vec![0, 1], vec![0, 2]];
        let relabelled = vec![vec![0], vec![2], vec![0, 1], vec![1, 2]];
        let form = unbudgeted_form(3, &absorbed);
        assert!(!form.searched);
        assert!(is_renaming_of(&form, 3, &absorbed));
        assert_eq!(unbudgeted_form(3, &relabelled).clauses, form.clauses);
    }

    #[test]
    fn two_triangles_differ_from_a_hexagon() {
        // The classic 1-WL-equivalent pair (all nodes degree 2 both sides):
        // refinement alone cannot split them, so this exercises the
        // individualization/backtracking stage.
        let triangles =
            vec![vec![0, 1], vec![1, 2], vec![2, 0], vec![3, 4], vec![4, 5], vec![5, 3]];
        let hexagon = vec![vec![0, 1], vec![1, 2], vec![2, 3], vec![3, 4], vec![4, 5], vec![5, 0]];
        let a = unbudgeted_form(6, &triangles);
        let b = unbudgeted_form(6, &hexagon);
        assert_ne!(a.clauses, b.clauses);
        // They do share a fingerprint (equal counts, widths, and degrees) —
        // the pair the cache's lazy canonicalization must keep apart.
        assert_eq!(fingerprint(6, &triangles), fingerprint(6, &hexagon));
        // Relabelled copies of each still land on their own form.
        let triangles_relabelled =
            vec![vec![5, 3], vec![3, 1], vec![1, 5], vec![0, 2], vec![2, 4], vec![4, 0]];
        assert_eq!(unbudgeted_form(6, &triangles_relabelled).clauses, a.clauses);
        let hexagon_relabelled =
            vec![vec![4, 2], vec![2, 0], vec![0, 3], vec![3, 5], vec![5, 1], vec![1, 4]];
        assert_eq!(unbudgeted_form(6, &hexagon_relabelled).clauses, b.clauses);
    }
}
