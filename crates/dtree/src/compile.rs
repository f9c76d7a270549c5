//! Leaf expansion and full compilation: one dense decomposition step.
//!
//! A leaf under expansion is held *dense*: its variables are mapped
//! monotonically onto `0..n` (the sorted universe of the function being
//! compiled), and the leaf is one flat run of `W = ⌈n/64⌉`-word bitsets — its
//! universe first, then one row per clause. Rows are distinct and non-empty
//! and are kept in no particular order. One step then works on words only:
//!
//! 1. **factor (⊙)** — AND the rows; every common variable becomes a literal
//!    child and the rows minus the common set the remaining child;
//! 2. **split (⊗)** — a union-find over the dense variables joins the bits of
//!    each row; every row goes to the component of its lowest bit, the
//!    components are ordered by their smallest variable, and the universe
//!    variables no row uses form a trailing constant-`false` child;
//! 3. **Shannon (⊕)** — the pivot is the column with the most set bits (ties
//!    to the lowest index, i.e. the smallest [`Var`], because the map is
//!    monotone), and the two cofactors clear or filter the pivot's bit; the
//!    positive one is sorted and deduplicated, and an empty row makes it
//!    `true`.
//!
//! A child that is a constant or a single literal becomes a compact node at
//! once. [`DTree::compile_full`] keeps the other children dense on one LIFO
//! word stack, so compiling builds no intermediate [`Dnf`]; the incremental
//! [`DTree::expand_leaf`] runs the same step on its one leaf and converts the
//! non-trivial children back to [`Dnf`] leaves for the bound computations.

use crate::dense::{bits, decode, encode, is_zero, lowest_bit, popcount, words_for};
use crate::partition::{fold_rows, Partition};
use crate::tree::PLACEHOLDER;
use crate::{Budget, DTree, Interrupted, Node, NodeId, OpKind, Span};
use banzhaf_boolean::{Dnf, Var};

/// Heuristic for choosing the Shannon-expansion pivot variable.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PivotHeuristic {
    /// Pick the variable occurring in the most clauses (the paper's default,
    /// Sec. 3.1). Ties are broken by the smallest variable index.
    MostFrequent,
    /// Pick the used variable with the smallest index. Only sensible as an
    /// ablation baseline showing the value of the frequency heuristic.
    FirstVariable,
}

impl DTree {
    /// Compiles a function into a *complete* d-tree (every leaf a constant or
    /// literal) by repeatedly expanding non-trivial leaves.
    ///
    /// One budget step is consumed per expansion; compilation of
    /// non-hierarchical lineage can take exponentially many Shannon steps, so
    /// callers that need a timeout must pass a bounded budget.
    pub fn compile_full(
        phi: Dnf,
        heuristic: PivotHeuristic,
        budget: &Budget,
    ) -> Result<DTree, Interrupted> {
        if Node::trivial(&phi).is_some() {
            return Ok(DTree::from_leaf(phi));
        }
        let mut tree = DTree::empty(phi.universe().clone());
        let root = tree.push(PLACEHOLDER);
        let vars = phi.universe().as_slice();
        let mut kernel = Kernel::new(vars, heuristic);
        let mut stack = LeafStack::default();
        encode(&phi, vars, kernel.w, &mut stack.words);
        stack.leaves.push((root, 0));
        // Depth-first: the most recently created leaf is expanded next.
        let mut leaf = Vec::new();
        while let Some((id, start)) = stack.leaves.pop() {
            budget.step()?;
            tree.bump_expansions();
            leaf.clear();
            leaf.extend_from_slice(&stack.words[start..]);
            stack.words.truncate(start);
            kernel.step(&mut tree, id, &leaf, &mut stack);
        }
        tree.shrink_to_fit();
        Ok(tree)
    }

    /// Expands the largest non-trivial leaf by one decomposition step and
    /// returns the connective the leaf became, or `None` if the tree is
    /// already complete.
    ///
    /// This is the incremental entry point used by `AdaBan` (Fig. 3): one call
    /// corresponds to one "pick a non-trivial leaf ψ ... replace ψ" step.
    pub fn expand_largest_leaf(&mut self, heuristic: PivotHeuristic) -> Option<OpKind> {
        let id = self.largest_non_trivial_leaf()?;
        Some(self.expand_leaf(id, heuristic))
    }

    /// Expands the given non-trivial leaf by exactly one decomposition step
    /// and returns the connective it became: [`OpKind::IndependentAnd`] for a
    /// factoring step, [`OpKind::IndependentOr`] for an independence split
    /// and [`OpKind::Exclusive`] for a Shannon expansion.
    ///
    /// The decomposition order follows Sec. 3.1 of the paper:
    /// 1. if some variable occurs in every clause, factor it out (⊙);
    /// 2. otherwise, if the clause graph is disconnected, split into
    ///    independent components (⊗);
    /// 3. otherwise, Shannon-expand on the pivot chosen by `heuristic` (⊕).
    ///
    /// # Panics
    /// Panics if `id` is not a non-trivial leaf.
    pub fn expand_leaf(&mut self, id: NodeId, heuristic: PivotHeuristic) -> OpKind {
        let phi = self.take_pending(id);
        self.bump_expansions();
        let vars = phi.universe().as_slice();
        let mut kernel = Kernel::new(vars, heuristic);
        let mut leaf = Vec::new();
        encode(&phi, vars, kernel.w, &mut leaf);
        let mut out = LeafStack::default();
        let op = kernel.step(self, id, &leaf, &mut out);
        for (i, &(child, start)) in out.leaves.iter().enumerate() {
            let end = out.leaves.get(i + 1).map_or(out.words.len(), |&(_, next)| next);
            self.set_pending(child, decode(&out.words[start..end], vars, kernel.w));
        }
        op
    }
}

/// Dense leaves awaiting expansion, stacked in one word buffer: leaf `i`
/// starts at `leaves[i].1` and ends where the next one starts.
#[derive(Default)]
struct LeafStack {
    words: Vec<u64>,
    leaves: Vec<(NodeId, usize)>,
    /// Scratch for sorting multi-word rows.
    order: Vec<u32>,
    sorted: Vec<u64>,
}

impl LeafStack {
    /// Turns the leaf written at `words[start..]` into a child node of
    /// `tree`: a compact node if it is a constant or a literal, else a
    /// placeholder slot whose dense form stays on the stack. `dedup` sorts
    /// and deduplicates the rows first (only the positive cofactor needs it).
    fn finish(&mut self, tree: &mut DTree, vars: &[Var], w: usize, start: usize, dedup: bool) {
        let rows_at = start + w;
        let num_vars = popcount(&self.words[start..rows_at]);
        let node = if self.words.len() == rows_at {
            Some(Node::Const { value: false, num_vars })
        } else if self.words[rows_at..].chunks_exact(w).any(is_zero) {
            Some(Node::Const { value: true, num_vars })
        } else {
            if dedup {
                self.sort_dedup(rows_at, w);
            }
            (num_vars == 1 && self.words.len() == rows_at + w)
                .then(|| Node::PosLit(vars[lowest_bit(&self.words[start..rows_at])]))
        };
        match node {
            Some(node) => {
                self.words.truncate(start);
                tree.push(node);
            }
            None => {
                let id = tree.push(PLACEHOLDER);
                self.leaves.push((id, start));
            }
        }
    }

    /// Sorts the rows at `words[rows_at..]` and drops duplicates.
    fn sort_dedup(&mut self, rows_at: usize, w: usize) {
        let rows = &self.words[rows_at..];
        self.order.clear();
        self.order.extend(0..(rows.len() / w) as u32);
        let row = |i: u32| &rows[i as usize * w..(i as usize + 1) * w];
        self.order.sort_unstable_by(|&a, &b| row(a).cmp(row(b)));
        self.order.dedup_by(|a, b| row(*a) == row(*b));
        self.sorted.clear();
        for &i in &self.order {
            self.sorted.extend_from_slice(row(i));
        }
        self.words.truncate(rows_at);
        self.words.extend_from_slice(&self.sorted);
    }
}

/// The dense decomposition step and its reusable scratch space.
struct Kernel<'a> {
    /// Dense variable `i` is `vars[i]`.
    vars: &'a [Var],
    w: usize,
    heuristic: PivotHeuristic,
    /// The AND (common variables) or OR (used variables) of a leaf's rows.
    acc: Vec<u64>,
    partition: Partition,
    /// Per-column occurrence counts for the pivot choice.
    counts: Vec<u32>,
}

impl<'a> Kernel<'a> {
    fn new(vars: &'a [Var], heuristic: PivotHeuristic) -> Self {
        Kernel {
            vars,
            w: words_for(vars.len()),
            heuristic,
            acc: Vec::new(),
            partition: Partition::new(vars.len()),
            counts: vec![0; vars.len()],
        }
    }

    /// Expands the dense non-trivial `leaf` sitting in slot `id`: writes the
    /// inner node (and its compact children) into `tree`, pushes the
    /// non-trivial children onto `out` in creation order, and returns the
    /// connective.
    fn step(&mut self, tree: &mut DTree, id: NodeId, leaf: &[u64], out: &mut LeafStack) -> OpKind {
        let w = self.w;
        let (universe, rows) = leaf.split_at(w);
        let num_vars = popcount(universe);
        // Every child is pushed after this point, in one run.
        let first = NodeId(tree.num_nodes() as u32);
        let children = |tree: &DTree| Span::new(first, tree.num_nodes() - first.index());

        // Step 1: factor out variables common to all clauses: φ = (⋀ common) ∧ rest.
        fold_rows(rows, w, true, &mut self.acc);
        if !is_zero(&self.acc) {
            for b in bits(&self.acc) {
                tree.push(Node::PosLit(self.vars[b]));
            }
            // The rest's universe is empty only if some clause is exactly the
            // common set, making the rest `true` over no variables — the
            // neutral element of ⊙, which is dropped.
            let start = out.words.len();
            out.words.extend(universe.iter().zip(&self.acc).map(|(u, c)| u & !c));
            if is_zero(&out.words[start..]) {
                out.words.truncate(start);
            } else {
                for row in rows.chunks_exact(w) {
                    out.words.extend(row.iter().zip(&self.acc).map(|(r, c)| r & !c));
                }
                out.finish(tree, self.vars, w, start, false);
            }
            // One child would need a single common variable and an empty
            // rest, i.e. the literal leaf, which is never expanded.
            let children = children(tree);
            debug_assert!(children.len() >= 2, "a factored leaf has at least two children");
            tree.set_op(id, OpKind::IndependentAnd, num_vars, children);
            return OpKind::IndependentAnd;
        }

        // Step 2: independence partitioning (⊗ over connected components).
        fold_rows(rows, w, false, &mut self.acc);
        if let Some(num_comps) = self.partition.split(w, universe, &self.acc, rows) {
            for c in 0..num_comps {
                let start = out.words.len();
                out.words.extend_from_slice(self.partition.universe(c, w));
                for &r in self.partition.rows(c) {
                    out.words.extend_from_slice(&rows[r as usize * w..(r as usize + 1) * w]);
                }
                out.finish(tree, self.vars, w, start, false);
            }
            let unused: u32 =
                universe.iter().zip(&self.acc).map(|(u, a)| (u & !a).count_ones()).sum();
            if unused > 0 {
                tree.push(Node::Const { value: false, num_vars: unused });
            }
            tree.set_op(id, OpKind::IndependentOr, num_vars, children(tree));
            return OpKind::IndependentOr;
        }

        // Step 3: Shannon expansion φ = (y ⊙ φ[y:=1]) ⊕ (¬y ⊙ φ[y:=0]). Both
        // branches come first, then each branch's literal and cofactor.
        let pivot = self.pivot(rows);
        let (word, bit) = (pivot / 64, 1u64 << (pivot % 64));
        let var = self.vars[pivot];
        let cofactor_universe = |out: &mut LeafStack| {
            let start = out.words.len();
            out.words.extend_from_slice(universe);
            out.words[start + word] &= !bit;
            start
        };
        let pos_branch = tree.push(PLACEHOLDER);
        let neg_branch = tree.push(PLACEHOLDER);
        tree.set_op(id, OpKind::Exclusive, num_vars, Span::new(pos_branch, 2));

        let pos_lit = tree.push(Node::PosLit(var));
        let start = cofactor_universe(out);
        for row in rows.chunks_exact(w) {
            out.words.extend_from_slice(row);
            let last = out.words.len() - w;
            out.words[last + word] &= !bit;
        }
        out.finish(tree, self.vars, w, start, true);
        tree.set_op(pos_branch, OpKind::IndependentAnd, num_vars, Span::new(pos_lit, 2));

        let neg_lit = tree.push(Node::NegLit(var));
        let start = cofactor_universe(out);
        for row in rows.chunks_exact(w).filter(|row| row[word] & bit == 0) {
            out.words.extend_from_slice(row);
        }
        out.finish(tree, self.vars, w, start, false);
        tree.set_op(neg_branch, OpKind::IndependentAnd, num_vars, Span::new(neg_lit, 2));
        OpKind::Exclusive
    }

    /// The Shannon pivot among the used variables (`self.acc`).
    fn pivot(&mut self, rows: &[u64]) -> usize {
        let first = lowest_bit(&self.acc);
        if self.heuristic == PivotHeuristic::FirstVariable {
            return first;
        }
        for b in bits(&self.acc) {
            self.counts[b] = 0;
        }
        for row in rows.chunks_exact(self.w) {
            for b in bits(row) {
                self.counts[b] += 1;
            }
        }
        // Strictly greater: ties keep the lowest dense index, i.e. the
        // smallest variable.
        bits(&self.acc)
            .fold(first, |best, b| if self.counts[b] > self.counts[best] { b } else { best })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use banzhaf_boolean::VarSet;

    fn v(i: u32) -> Var {
        Var(i)
    }

    fn assert_structure_sound(tree: &DTree) {
        // Every ⊙/⊗ node's num_vars is the sum of its children's; every ⊕
        // node's children have the same num_vars as the node itself.
        for id in (0..tree.num_nodes()).map(|i| NodeId(i as u32)) {
            if let Node::Op { op, num_vars, .. } = tree.node(id) {
                let children = tree.children(id);
                assert!(!children.is_empty());
                match op {
                    OpKind::IndependentAnd | OpKind::IndependentOr => {
                        let sum: usize = children.ids().map(|c| tree.node(c).num_vars()).sum();
                        assert_eq!(sum, *num_vars as usize, "independent node var count mismatch");
                    }
                    OpKind::Exclusive => {
                        for c in children.ids() {
                            assert_eq!(tree.node(c).num_vars(), *num_vars as usize);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn example9_compiles_by_factoring() {
        // (x ∧ y) ∨ (x ∧ z) = x ⊙ (y ⊗ z): no Shannon expansion needed.
        let phi = Dnf::from_clauses(vec![vec![v(0), v(1)], vec![v(0), v(2)]]);
        let t =
            DTree::compile_full(phi, PivotHeuristic::MostFrequent, &Budget::unlimited()).unwrap();
        assert!(t.is_complete());
        let s = t.stats();
        assert_eq!(s.exclusive, 0, "hierarchical-style lineage needs no Shannon step");
        assert!(s.independent_and >= 1);
        assert!(s.independent_or >= 1);
        assert_structure_sound(&t);
    }

    #[test]
    fn non_hierarchical_lineage_needs_shannon() {
        // (x0 ∧ x1) ∨ (x1 ∧ x2) ∨ (x2 ∧ x3): connected, no common variable.
        let phi = Dnf::from_clauses(vec![vec![v(0), v(1)], vec![v(1), v(2)], vec![v(2), v(3)]]);
        let t =
            DTree::compile_full(phi, PivotHeuristic::MostFrequent, &Budget::unlimited()).unwrap();
        assert!(t.is_complete());
        assert!(t.stats().exclusive >= 1);
        assert_structure_sound(&t);
    }

    #[test]
    fn single_clause_factors_to_literals() {
        let phi = Dnf::from_clauses(vec![vec![v(0), v(1), v(2)]]);
        let t =
            DTree::compile_full(phi, PivotHeuristic::MostFrequent, &Budget::unlimited()).unwrap();
        assert!(t.is_complete());
        let s = t.stats();
        assert_eq!(s.exclusive, 0);
        assert_eq!(s.independent_and, 1);
        assert_eq!(s.trivial_leaves, 3);
        assert_structure_sound(&t);
    }

    #[test]
    fn unused_universe_variables_survive_compilation() {
        let phi = Dnf::from_clauses_with_universe(
            vec![vec![v(0), v(1)], vec![v(1), v(2)]],
            VarSet::from_iter([v(0), v(1), v(2), v(3), v(4)]),
        );
        let t =
            DTree::compile_full(phi, PivotHeuristic::MostFrequent, &Budget::unlimited()).unwrap();
        assert!(t.is_complete());
        assert_eq!(t.num_vars(), 5);
        assert_structure_sound(&t);
    }

    #[test]
    fn budget_interrupts_compilation() {
        // A function whose compilation requires several Shannon expansions.
        let clauses: Vec<Vec<Var>> =
            (0..12).map(|i| vec![v(i), v((i + 1) % 12), v((i + 5) % 12)]).collect();
        let phi = Dnf::from_clauses(clauses);
        let err =
            DTree::compile_full(phi, PivotHeuristic::MostFrequent, &Budget::with_max_steps(2));
        assert_eq!(err.unwrap_err(), Interrupted);
    }

    #[test]
    fn incremental_expansion_reaches_completion() {
        let phi = Dnf::from_clauses(vec![vec![v(0), v(1)], vec![v(1), v(2)], vec![v(0), v(2)]]);
        let mut t = DTree::from_leaf(phi);
        let mut steps = 0;
        while t.expand_largest_leaf(PivotHeuristic::MostFrequent).is_some() {
            steps += 1;
            assert!(steps < 1000, "expansion must terminate");
        }
        assert!(t.is_complete());
        assert_eq!(t.expansions(), steps);
        assert_structure_sound(&t);
    }

    #[test]
    fn expansion_reports_its_step() {
        let mut t = DTree::from_leaf(Dnf::from_clauses(vec![vec![v(0), v(1)], vec![v(0), v(2)]]));
        assert_eq!(t.expand_leaf(t.root(), PivotHeuristic::MostFrequent), OpKind::IndependentAnd);
        assert_eq!(
            t.expand_largest_leaf(PivotHeuristic::MostFrequent),
            Some(OpKind::IndependentOr)
        );
        assert_eq!(t.expand_largest_leaf(PivotHeuristic::MostFrequent), None);
        let cycle = vec![vec![v(0), v(1)], vec![v(1), v(2)], vec![v(2), v(0)]];
        let mut t = DTree::from_leaf(Dnf::from_clauses(cycle));
        assert_eq!(t.expand_largest_leaf(PivotHeuristic::MostFrequent), Some(OpKind::Exclusive));
    }

    #[test]
    fn multi_word_rows_match_incremental_expansion() {
        // Variables spread over three 64-bit words of the dense universe.
        let clauses: Vec<Vec<Var>> =
            (0..12).map(|i| vec![v(7 * i), v(7 * ((i + 1) % 12)), v(7 * ((i + 5) % 12))]).collect();
        let phi = Dnf::from_clauses_with_universe(
            clauses,
            (0..150).map(|i| v(1000 + i)).chain((0..12).map(|i| v(7 * i))).collect(),
        );
        let full =
            DTree::compile_full(phi.clone(), PivotHeuristic::MostFrequent, &Budget::unlimited())
                .unwrap();
        let mut step = DTree::from_leaf(phi);
        while step.expand_largest_leaf(PivotHeuristic::MostFrequent).is_some() {}
        assert_eq!(full.expansions(), step.expansions());
        assert_eq!(full.num_nodes(), step.num_nodes());
        assert_eq!(full.stats(), step.stats());
        assert_structure_sound(&full);
    }

    #[test]
    fn most_frequent_pivot_breaks_ties_to_the_smallest_variable() {
        // A 4-cycle: every variable occurs twice, so the smallest one, x3, is
        // the pivot; the first-variable heuristic agrees.
        let cycle = vec![vec![v(3), v(5)], vec![v(5), v(8)], vec![v(8), v(9)], vec![v(9), v(3)]];
        for h in [PivotHeuristic::MostFrequent, PivotHeuristic::FirstVariable] {
            let mut t = DTree::from_leaf(Dnf::from_clauses(cycle.clone()));
            assert_eq!(t.expand_leaf(t.root(), h), OpKind::Exclusive);
            let pos_branch = t.children(t.root()).get(0);
            assert!(matches!(t.node(t.children(pos_branch).get(0)), Node::PosLit(x) if *x == v(3)));
        }
        // x5 occurs three times and wins over the smaller x3.
        let skewed = vec![vec![v(3), v(5)], vec![v(5), v(8)], vec![v(8), v(9)], vec![v(9), v(5)]];
        let mut t = DTree::from_leaf(Dnf::from_clauses(skewed));
        t.expand_leaf(t.root(), PivotHeuristic::MostFrequent);
        let pos_branch = t.children(t.root()).get(0);
        assert!(matches!(t.node(t.children(pos_branch).get(0)), Node::PosLit(x) if *x == v(5)));
    }

    #[test]
    fn both_heuristics_produce_complete_trees() {
        let phi = Dnf::from_clauses(vec![
            vec![v(0), v(1)],
            vec![v(1), v(2)],
            vec![v(2), v(3)],
            vec![v(3), v(0)],
        ]);
        for h in [PivotHeuristic::MostFrequent, PivotHeuristic::FirstVariable] {
            let t = DTree::compile_full(phi.clone(), h, &Budget::unlimited()).unwrap();
            assert!(t.is_complete());
            assert_structure_sound(&t);
        }
    }

    #[test]
    #[should_panic(expected = "trivial leaf")]
    fn expanding_trivial_leaf_panics() {
        let mut t = DTree::from_leaf(Dnf::variable(v(0)));
        t.expand_leaf(NodeId(0), PivotHeuristic::MostFrequent);
    }
}
