//! ExaBan: exact Banzhaf values and model counts over complete d-trees.
//!
//! The algorithm of Fig. 1 in the paper computes, for a complete d-tree `Tφ`
//! and a variable `x`, the pair `(Banzhaf(φ, x), #φ)` bottom-up using the
//! combination rules Eq. (4)–(9):
//!
//! * `⊙` (independent AND): `# = #₁·#₂`, `B = B₁·#₂` (with `x` in child 1);
//! * `⊗` (independent OR): `# = #₁·2^{n₂} + 2^{n₁}·#₂ − #₁·#₂`,
//!   `B = B₁·(2^{n₂} − #₂)`;
//! * `⊕` (mutual exclusion): `# = #₁+#₂`, `B = B₁+B₂`.
//!
//! [`exaban_single`] is the literal transcription of Fig. 1. [`exaban_all`]
//! computes the Banzhaf values of *all* variables in two passes — one
//! bottom-up pass for the model counts and one top-down pass propagating a
//! "context factor" to each leaf — which shares the count computation across
//! variables exactly as the paper suggests ("For all variables, it uses the
//! same d-tree and shares the computation of the counts").
//!
//! Both passes follow the arena's id order (a child's id exceeds its
//! parent's), so neither builds a traversal order. The count pass visits ids
//! downwards and stores counts for inner nodes only ([`ModelCounts`]); the
//! context pass walks depth-first from the root with each pending node
//! carrying its context, so it keeps no per-node context vector. Two-child
//! nodes — most of a Shannon-expanded tree — take a direct path, wider ones
//! reuse one scratch buffer of sibling factors, and the values accumulate
//! in a vector indexed by position in the tree's universe
//! ([`DTree::universe`]), which also supplies the zero entries of variables
//! that occur only in constant leaves.

use banzhaf_arith::{Int, Natural};
use banzhaf_boolean::{Clause, Dnf, Var};
use banzhaf_dtree::{DTree, Node, NodeId, OpKind, Span};
use std::borrow::Cow;
use std::collections::HashMap;

/// Exact Banzhaf values of every variable of a function, plus its model count.
#[derive(Clone, Debug)]
pub struct BanzhafResult {
    /// The Banzhaf value of each variable of the function's universe.
    /// For positive lineage these are non-negative.
    pub values: HashMap<Var, Natural>,
    /// The exact model count `#φ`.
    pub model_count: Natural,
}

impl BanzhafResult {
    /// The Banzhaf value of `v`, if `v` is a variable of the function.
    pub fn value(&self, v: Var) -> Option<&Natural> {
        self.values.get(&v)
    }

    /// Variables sorted by decreasing Banzhaf value (ties by variable index).
    pub fn ranking(&self) -> Vec<(Var, Natural)> {
        let mut items: Vec<(Var, Natural)> =
            self.values.iter().map(|(v, b)| (*v, b.clone())).collect();
        items.sort_by(|(va, ba), (vb, bb)| bb.cmp(ba).then(va.cmp(vb)));
        items
    }

    /// The `k` variables with the largest Banzhaf values.
    pub fn top_k(&self, k: usize) -> Vec<(Var, Natural)> {
        self.ranking().into_iter().take(k).collect()
    }
}

/// The exact model count of every node of a complete d-tree, as computed by
/// [`model_counts`]. Only inner nodes store theirs: a leaf's count follows
/// from the leaf, and leaves are about half of a compiled tree. On the
/// largest of 1500 seeded 40–60-variable lineages (391k nodes) this keeps
/// the resident peak of compiling and counting at 10.8 MB, against 19.4 MB
/// with one stored count per node.
#[derive(Debug)]
pub struct ModelCounts {
    /// Bit `i % 64` of word `i / 64` is set iff node `i` is inner.
    inner: Vec<u64>,
    /// The number of inner nodes before each word of `inner`.
    before: Vec<u32>,
    /// An inner node's count, at its rank among the inner nodes.
    counts: Vec<Natural>,
}

impl ModelCounts {
    /// The model count of node `id` of `tree`, the tree the counts were
    /// computed on.
    ///
    /// # Panics
    /// Panics if `id` is a pending leaf.
    pub fn get(&self, tree: &DTree, id: NodeId) -> Cow<'_, Natural> {
        match tree.node(id) {
            Node::Op { .. } => Cow::Borrowed(&self.counts[self.rank(id)]),
            Node::Const { value: true, num_vars } => Cow::Owned(Natural::pow2(*num_vars as usize)),
            Node::Const { value: false, .. } => Cow::Owned(Natural::zero()),
            Node::PosLit(_) | Node::NegLit(_) => Cow::Owned(Natural::one()),
            Node::Leaf(_) => panic!("ExaBan requires a complete d-tree"),
        }
    }

    /// The number of inner nodes before node `id`.
    fn rank(&self, id: NodeId) -> usize {
        let (word, bit) = (id.index() / 64, id.index() % 64);
        (self.before[word] + (self.inner[word] & ((1 << bit) - 1)).count_ones()) as usize
    }
}

/// Computes the exact model count of every node of a complete d-tree,
/// bottom-up. Shared by [`exaban_single`] and [`exaban_all`]; exposed so
/// callers holding a compiled tree (notably the `banzhaf-engine` crate) can
/// run the pass once and reuse it across variables and across algorithms
/// via [`exaban_all_with_counts`].
///
/// # Panics
/// Panics if the d-tree is not complete.
pub fn model_counts(tree: &DTree) -> ModelCounts {
    let n = tree.num_nodes();
    let mut inner = vec![0u64; n.div_ceil(64)];
    for i in 0..n {
        if matches!(tree.node(NodeId(i as u32)), Node::Op { .. }) {
            inner[i / 64] |= 1 << (i % 64);
        }
    }
    let mut before = Vec::with_capacity(inner.len());
    let mut total = 0;
    for word in &inner {
        before.push(total);
        total += word.count_ones();
    }
    let mut counts = ModelCounts { inner, before, counts: vec![Natural::zero(); total as usize] };
    // Descending ids visit children before parents.
    for i in (0..n).rev() {
        let id = NodeId(i as u32);
        if let Node::Op { op, num_vars, children } = tree.node(id) {
            let count = combine_counts(*op, *children, *num_vars as usize, &counts, tree);
            let rank = counts.rank(id);
            counts.counts[rank] = count;
        }
    }
    counts
}

/// `2^{n_c} − #_c`: the number of non-models of child `c`.
fn non_models(tree: &DTree, counts: &ModelCounts, c: NodeId) -> Natural {
    &Natural::pow2(tree.node(c).num_vars()) - &*counts.get(tree, c)
}

/// Combines children model counts at an inner node.
fn combine_counts(
    op: OpKind,
    children: Span,
    num_vars: usize,
    counts: &ModelCounts,
    tree: &DTree,
) -> Natural {
    let mut children = children.ids();
    match op {
        OpKind::IndependentAnd => {
            children.fold(Natural::one(), |acc, c| acc.mul_ref(&counts.get(tree, c)))
        }
        // #φ = 2^n − Π (2^{n_i} − #φ_i): multiply the non-model counts.
        OpKind::IndependentOr => {
            let nm =
                children.fold(Natural::one(), |acc, c| acc.mul_ref(&non_models(tree, counts, c)));
            &Natural::pow2(num_vars) - &nm
        }
        OpKind::Exclusive => {
            let mut acc = counts.get(tree, children.next().expect("⊕ has children")).into_owned();
            for c in children {
                acc += &*counts.get(tree, c);
            }
            acc
        }
    }
}

/// ExaBan for a single variable (Fig. 1 of the paper): returns
/// `(Banzhaf(φ, x), #φ)` for the function represented by the complete d-tree.
///
/// The Banzhaf value is returned as a signed integer because the generic
/// recursion also covers negated literals introduced by Shannon expansion;
/// for positive lineage the root value is always non-negative.
///
/// # Panics
/// Panics if the d-tree is not complete.
pub fn exaban_single(tree: &DTree, x: Var) -> (Int, Natural) {
    let counts = model_counts(tree);
    // Per-node Banzhaf value of `x` in the subtree function.
    let mut banzhaf: Vec<Int> = vec![Int::zero(); tree.num_nodes()];
    // Whether `x` occurs as a literal in the subtree (computed bottom-up to
    // avoid repeated subtree scans). Constant leaves contribute a Banzhaf
    // value of zero whether or not `x` is among their variables.
    let mut contains: Vec<bool> = vec![false; tree.num_nodes()];
    // Descending ids visit children before parents.
    for i in (0..tree.num_nodes()).rev() {
        let (b, has) = match tree.node(NodeId(i as u32)) {
            Node::Const { .. } => (Int::zero(), false),
            Node::PosLit(v) => (if *v == x { Int::one() } else { Int::zero() }, *v == x),
            Node::NegLit(v) => (if *v == x { Int::minus_one() } else { Int::zero() }, *v == x),
            Node::Leaf(_) => panic!("ExaBan requires a complete d-tree"),
            Node::Op { op, children, .. } => {
                let holder = children.ids().position(|c| contains[c.index()]);
                let b = match (op, holder) {
                    (OpKind::Exclusive, _) => {
                        let mut acc = Int::zero();
                        for c in children.ids() {
                            acc += &banzhaf[c.index()];
                        }
                        acc
                    }
                    (_, None) => Int::zero(),
                    // B = B_i · Π_{j≠i} f_j where x is in child i and f_j is
                    // #_j (⊙) or 2^{n_j} − #_j (⊗).
                    (_, Some(i)) => {
                        let mut acc = banzhaf[children.get(i).index()].clone();
                        for (j, c) in children.ids().enumerate() {
                            if j != i {
                                acc = if *op == OpKind::IndependentAnd {
                                    acc.mul_natural(&counts.get(tree, c))
                                } else {
                                    acc.mul_natural(&non_models(tree, &counts, c))
                                };
                            }
                        }
                        acc
                    }
                };
                (b, holder.is_some())
            }
        };
        banzhaf[i] = b;
        contains[i] = has;
    }
    (banzhaf[tree.root().index()].clone(), counts.get(tree, tree.root()).into_owned())
}

/// ExaBan for all variables: one bottom-up model-count pass and one top-down
/// context-propagation pass.
///
/// The *context* of a node is the factor by which the Banzhaf value of a
/// variable inside that subtree is multiplied when lifted to the root:
/// crossing a `⊙` node multiplies by the siblings' model counts, crossing a
/// `⊗` node multiplies by the siblings' non-model counts `2^{n_j} − #_j`, and
/// `⊕` nodes pass the context through unchanged (Eq. (5), (7), (9)).
///
/// # Panics
/// Panics if the d-tree is not complete.
pub fn exaban_all(tree: &DTree) -> BanzhafResult {
    exaban_all_with_counts(tree, &model_counts(tree))
}

/// [`exaban_all`] with precomputed model counts (as returned by
/// [`model_counts`] for the same tree), so the bottom-up count pass can be
/// shared across algorithms operating on one compiled d-tree.
///
/// # Panics
/// Panics if the d-tree is not complete, or (in debug builds) if `counts`
/// does not match the tree.
pub fn exaban_all_with_counts(tree: &DTree, counts: &ModelCounts) -> BanzhafResult {
    debug_assert_eq!(counts.inner.len(), tree.num_nodes().div_ceil(64), "counts of another tree");
    let universe = tree.universe().as_slice();
    let position = |v: &Var| universe.binary_search(v).expect("literal in the tree's universe");
    // Signed contributions per universe variable (negated literals from
    // Shannon expansion contribute negatively). Variables that only occur in
    // constant leaves keep the value 0.
    let mut acc: Vec<Int> = vec![Int::zero(); universe.len()];
    // Sibling factors and their suffix products, reused across nodes.
    let mut factors: Vec<Natural> = Vec::new();
    let mut suffix: Vec<Natural> = Vec::new();

    // Depth-first from the root, each pending node carrying its context, so
    // only the contexts of the frontier are held — not one per node.
    let mut stack: Vec<(NodeId, Natural)> = vec![(tree.root(), Natural::one())];
    while let Some((id, ctx)) = stack.pop() {
        match tree.node(id) {
            Node::Const { .. } => {}
            Node::PosLit(v) => acc[position(v)] += &Int::from(ctx),
            Node::NegLit(v) => acc[position(v)] -= &Int::from(ctx),
            Node::Leaf(_) => panic!("ExaBan requires a complete d-tree"),
            Node::Op { op, children, .. } => {
                let factor = |c: NodeId| match op {
                    OpKind::IndependentAnd => counts.get(tree, c),
                    _ => Cow::Owned(non_models(tree, counts, c)),
                };
                match (op, children.len()) {
                    (OpKind::Exclusive, _) => {
                        stack.extend(children.ids().map(|c| (c, ctx.clone())));
                    }
                    (_, 2) => {
                        let (a, b) = (children.get(0), children.get(1));
                        stack.push((a, ctx.mul_ref(&factor(b))));
                        stack.push((b, ctx.mul_ref(&factor(a))));
                    }
                    (_, k) => {
                        // Child j's context is ctx · Π_{i<j} f_i · Π_{i>j} f_i,
                        // with a running prefix and a suffix table to stay
                        // linear in the fan-out.
                        factors.clear();
                        factors.extend(children.ids().map(|c| factor(c).into_owned()));
                        suffix.clear();
                        suffix.push(Natural::one());
                        for f in factors.iter().rev() {
                            let next = suffix.last().expect("seeded").mul_ref(f);
                            suffix.push(next);
                        }
                        let mut prefix = ctx;
                        for (j, c) in children.ids().enumerate() {
                            stack.push((c, prefix.mul_ref(&suffix[k - 1 - j])));
                            prefix = prefix.mul_ref(&factors[j]);
                        }
                    }
                }
            }
        }
    }

    let values = universe
        .iter()
        .zip(acc)
        .map(|(&v, b)| {
            debug_assert!(!b.is_negative(), "positive lineage has non-negative Banzhaf values");
            (v, b.into_magnitude())
        })
        .collect();
    BanzhafResult { values, model_count: counts.get(tree, tree.root()).into_owned() }
}

/// ExaBan in closed form for a lineage whose clauses share no variable.
///
/// Such a lineage compiles to a depth-two d-tree: a `⊗` over its clauses,
/// each a `⊙` of literals. Eq. (7) and (9) then give every value directly.
/// For `x` in clause `C_i`, `Banzhaf(φ, x) = 2^u · Π_{j≠i} (2^{|C_j|} − 1)`,
/// where `u` counts the universe variables that occur in no clause; those
/// score 0. The model count is `2^n − 2^u · Π_j (2^{|C_j|} − 1)`.
#[derive(Clone, Debug)]
pub struct ClosedForm<'a> {
    phi: &'a Dnf,
    /// One bit per universe position: set iff some clause uses it.
    used: Vec<u64>,
    /// Universe variables in no clause.
    unused: usize,
    /// Each distinct clause width with the value of a variable in a clause
    /// of that width (clauses of one width score alike).
    scores: Vec<(usize, Natural)>,
    model_count: Natural,
}

impl<'a> ClosedForm<'a> {
    /// The closed form of `phi`, or `None` for a constant or for clauses
    /// that share a variable. One linear pass rejects: `Σ|C_j| ≤ n` is
    /// tested first, in `O(clauses)` and without allocating, and then that
    /// no variable repeats.
    pub fn of(phi: &'a Dnf) -> Option<Self> {
        if phi.is_constant() {
            return None;
        }
        let universe = phi.universe().as_slice();
        let clauses = phi.clauses();
        let mut size = 0usize;
        for clause in clauses {
            size += clause.len();
            if size > universe.len() {
                return None;
            }
        }
        let mut used = vec![0u64; universe.len().div_ceil(64)];
        for v in clauses.iter().flat_map(Clause::vars) {
            let p = universe.binary_search(v).expect("clause variable in the universe");
            let bit = 1u64 << (p % 64);
            if used[p / 64] & bit != 0 {
                return None;
            }
            used[p / 64] |= bit;
        }
        // The distinct clause widths, each with its multiplicity.
        let mut widths: Vec<(usize, u32)> = Vec::new();
        for clause in clauses {
            match widths.iter_mut().find(|(w, _)| *w == clause.len()) {
                Some((_, m)) => *m += 1,
                None => widths.push((clause.len(), 1)),
            }
        }
        // Π_j (2^{|C_j|} − 1) over every clause, or over all but one clause
        // of width `skip`. Widths are few, so recomputing it per width is
        // cheaper than dividing.
        let non_models = |skip: Option<usize>| {
            widths.iter().fold(Natural::one(), |acc, &(w, m)| {
                let f = &Natural::pow2(w) - &Natural::one();
                acc.mul_ref(&f.pow(m - u32::from(skip == Some(w))))
            })
        };
        let unused = universe.len() - size;
        let scores =
            widths.iter().map(|&(w, _)| (w, non_models(Some(w)).shl_bits(unused))).collect();
        let model_count = &Natural::pow2(universe.len()) - &non_models(None).shl_bits(unused);
        Some(ClosedForm { phi, used, unused, scores, model_count })
    }

    /// The model count `#φ`.
    pub fn model_count(&self) -> &Natural {
        &self.model_count
    }

    /// Every universe variable with its Banzhaf value: the clause variables
    /// in clause order, then the unused ones with value 0.
    pub fn values(&self) -> impl Iterator<Item = (Var, Natural)> + '_ {
        let in_clauses = self.phi.clauses().iter().flat_map(move |clause| {
            let (_, score) =
                self.scores.iter().find(|(w, _)| *w == clause.len()).expect("every width scored");
            clause.vars().iter().map(move |&v| (v, score.clone()))
        });
        let unused = self
            .phi
            .universe()
            .iter()
            .enumerate()
            .filter(move |(p, _)| self.used[p / 64] & (1 << (p % 64)) == 0)
            .map(|(_, v)| (v, Natural::zero()))
            .take(self.unused);
        in_clauses.chain(unused)
    }
}

/// [`ClosedForm`] collected into a [`BanzhafResult`]: the same values and
/// model count as [`exaban_all`] over the compiled tree, or `None` when the
/// clauses share a variable or `phi` is a constant.
pub fn exaban_closed_form(phi: &Dnf) -> Option<BanzhafResult> {
    let closed = ClosedForm::of(phi)?;
    let values = closed.values().collect();
    Some(BanzhafResult { values, model_count: closed.model_count })
}

#[cfg(test)]
mod tests {
    use super::*;
    use banzhaf_dtree::{Budget, PivotHeuristic};

    fn v(i: u32) -> Var {
        Var(i)
    }

    fn compile(phi: banzhaf_boolean::Dnf) -> DTree {
        DTree::compile_full(phi, PivotHeuristic::MostFrequent, &Budget::unlimited()).unwrap()
    }

    #[test]
    fn example_11_trace() {
        // φ = (x ∧ y) ∨ (x ∧ z): Banzhaf(x) = 3, #φ = 3 (Example 11).
        let phi = banzhaf_boolean::Dnf::from_clauses(vec![vec![v(0), v(1)], vec![v(0), v(2)]]);
        let tree = compile(phi);
        let (b, count) = exaban_single(&tree, v(0));
        assert_eq!(b.to_i128(), Some(3));
        assert_eq!(count.to_u64(), Some(3));
        let (by, _) = exaban_single(&tree, v(1));
        assert_eq!(by.to_i128(), Some(1));
        let all = exaban_all(&tree);
        assert_eq!(all.model_count.to_u64(), Some(3));
        assert_eq!(all.value(v(0)).unwrap().to_u64(), Some(3));
        assert_eq!(all.value(v(1)).unwrap().to_u64(), Some(1));
        assert_eq!(all.value(v(2)).unwrap().to_u64(), Some(1));
    }

    #[test]
    fn example_13_function() {
        // φ = (x ∧ y) ∨ (x ∧ z) ∨ u: Banzhaf(x) = 3, #φ = 11 (Example 13).
        let phi = banzhaf_boolean::Dnf::from_clauses(vec![
            vec![v(0), v(1)],
            vec![v(0), v(2)],
            vec![v(3)],
        ]);
        let tree = compile(phi);
        let all = exaban_all(&tree);
        assert_eq!(all.model_count.to_u64(), Some(11));
        assert_eq!(all.value(v(0)).unwrap().to_u64(), Some(3));
        assert_eq!(all.value(v(3)).unwrap().to_u64(), Some(5));
    }

    #[test]
    fn matches_brute_force_on_assorted_functions() {
        let functions = vec![
            banzhaf_boolean::Dnf::from_clauses(vec![
                vec![v(0), v(1)],
                vec![v(1), v(2)],
                vec![v(2), v(3)],
            ]),
            banzhaf_boolean::Dnf::from_clauses(vec![
                vec![v(0), v(1)],
                vec![v(2), v(3)],
                vec![v(0), v(3)],
                vec![v(4)],
            ]),
            banzhaf_boolean::Dnf::from_clauses(vec![
                vec![v(0), v(1), v(2)],
                vec![v(1), v(3)],
                vec![v(3), v(4), v(5)],
                vec![v(0), v(5)],
            ]),
            banzhaf_boolean::Dnf::from_clauses_with_universe(
                vec![vec![v(0), v(1)], vec![v(1), v(2)]],
                banzhaf_boolean::VarSet::from_iter([v(0), v(1), v(2), v(3)]),
            ),
        ];
        for phi in functions {
            let tree = compile(phi.clone());
            let all = exaban_all(&tree);
            assert_eq!(all.model_count, phi.brute_force_model_count(), "{phi}");
            for x in phi.universe().iter() {
                let expected = phi.brute_force_banzhaf(x);
                let (single, _) = exaban_single(&tree, x);
                assert_eq!(single, expected, "single {phi} {x}");
                assert_eq!(Int::from(all.value(x).unwrap().clone()), expected, "all {phi} {x}");
            }
        }
    }

    #[test]
    fn ranking_and_topk() {
        let phi = banzhaf_boolean::Dnf::from_clauses(vec![
            vec![v(0), v(1)],
            vec![v(0), v(2)],
            vec![v(3)],
        ]);
        let tree = compile(phi);
        let all = exaban_all(&tree);
        let ranking = all.ranking();
        assert_eq!(ranking[0].0, v(3)); // u has the largest value (5).
        assert_eq!(ranking[1].0, v(0)); // then x (3).
        let top2 = all.top_k(2);
        assert_eq!(top2.len(), 2);
        assert_eq!(top2[0].0, v(3));
        // Asking for more than there are variables returns all of them.
        assert_eq!(all.top_k(10).len(), 4);
    }

    #[test]
    fn constant_functions() {
        let t = compile(banzhaf_boolean::Dnf::constant_true(banzhaf_boolean::VarSet::from_iter([
            v(0),
            v(1),
        ])));
        let all = exaban_all(&t);
        assert_eq!(all.model_count.to_u64(), Some(4));
        assert_eq!(all.value(v(0)).unwrap().to_u64(), Some(0));
        let f = compile(banzhaf_boolean::Dnf::constant_false(banzhaf_boolean::VarSet::from_iter(
            [v(0)],
        )));
        let all = exaban_all(&f);
        assert_eq!(all.model_count.to_u64(), Some(0));
        assert_eq!(all.value(v(0)).unwrap().to_u64(), Some(0));
    }

    #[test]
    fn closed_form_matches_compiled_exaban_on_independent_clauses() {
        let functions = vec![
            banzhaf_boolean::Dnf::variable(v(7)),
            banzhaf_boolean::Dnf::from_clauses(vec![vec![v(0), v(1), v(2)]]),
            banzhaf_boolean::Dnf::from_clauses(vec![
                vec![v(0), v(1)],
                vec![v(2), v(3)],
                vec![v(4)],
                vec![v(5), v(6), v(7)],
                vec![v(8), v(9)],
            ]),
            banzhaf_boolean::Dnf::from_clauses_with_universe(
                vec![vec![v(1), v(3)], vec![v(4)]],
                banzhaf_boolean::VarSet::from_iter([v(0), v(1), v(2), v(3), v(4), v(9)]),
            ),
        ];
        for phi in functions {
            let closed = exaban_closed_form(&phi).expect("independent clauses");
            let compiled = exaban_all(&compile(phi.clone()));
            assert_eq!(closed.model_count, compiled.model_count, "{phi}");
            assert_eq!(closed.model_count, phi.brute_force_model_count(), "{phi}");
            assert_eq!(closed.values, compiled.values, "{phi}");
        }
    }

    #[test]
    fn closed_form_refuses_shared_variables_and_constants() {
        let shared = banzhaf_boolean::Dnf::from_clauses(vec![
            vec![v(0), v(1)],
            vec![v(1), v(2)],
            vec![v(3)],
        ]);
        // Σ|C_j| ≤ n holds once unused variables pad the universe, so the
        // repeat check is what refuses this one.
        let padded = banzhaf_boolean::Dnf::from_clauses_with_universe(
            vec![vec![v(0), v(1)], vec![v(1), v(2)]],
            (0..8).map(v).collect(),
        );
        let universe = banzhaf_boolean::VarSet::from_iter([v(0), v(1)]);
        for phi in [
            shared,
            padded,
            banzhaf_boolean::Dnf::constant_true(universe.clone()),
            banzhaf_boolean::Dnf::constant_false(universe),
        ] {
            assert!(ClosedForm::of(&phi).is_none(), "{phi}");
        }
    }

    #[test]
    fn single_variable_function() {
        let tree = compile(banzhaf_boolean::Dnf::variable(v(7)));
        let (b, c) = exaban_single(&tree, v(7));
        assert_eq!(b.to_i128(), Some(1));
        assert_eq!(c.to_u64(), Some(1));
        let all = exaban_all(&tree);
        assert_eq!(all.value(v(7)).unwrap().to_u64(), Some(1));
    }
}
