//! Common-variable factoring and independence partitioning over dense rows.
//!
//! These are the two "cheap" decomposition steps used during d-tree
//! compilation (Sec. 3.1 of the paper):
//!
//! * If some variable occurs in *every* clause, it can be factored out:
//!   `φ = x ∧ φ'` — an ⊙ node ("Our algorithm computing d-trees does this
//!   whenever a variable occurs in all clauses", Example 9). On dense rows the
//!   common variables are the AND of the rows.
//! * If the clause/variable incidence graph of `φ` has several connected
//!   components, `φ` is the disjunction of *independent* functions — an ⊗
//!   node. A union-find over the dense variables joins the bits of each row;
//!   universe variables that no clause uses form one more, constant-`false`
//!   component (`φ ∨ ⊥ = φ`, and the unused variables only contribute a
//!   `2^k` factor to the model count, which this encoding captures exactly).

use crate::dense::{bits, lowest_bit, set_bit};

/// Writes the AND (`all = true`: the variables common to every row) or the OR
/// (`all = false`: the used variables) of the `w`-word `rows` into `out`.
pub(crate) fn fold_rows(rows: &[u64], w: usize, all: bool, out: &mut Vec<u64>) {
    out.clear();
    out.extend_from_slice(&rows[..w]);
    for row in rows.chunks_exact(w).skip(1) {
        for (o, r) in out.iter_mut().zip(row) {
            *o = if all { *o & r } else { *o | r };
        }
    }
}

const UNASSIGNED: u32 = u32::MAX;

/// Connected components of a dense leaf, with reusable scratch space.
pub(crate) struct Partition {
    /// Union-find parents over dense variables.
    parent: Vec<u32>,
    /// The component of each union-find root.
    comp_of_root: Vec<u32>,
    /// The component of each row, then the rows grouped by component.
    row_comp: Vec<u32>,
    grouped: Vec<u32>,
    /// Where each component's rows start in `grouped` (one extra end entry).
    comp_start: Vec<u32>,
    /// Each component's universe, `W` words per component.
    comp_universe: Vec<u64>,
}

impl Partition {
    /// Scratch space for leaves over `n` dense variables.
    pub(crate) fn new(n: usize) -> Self {
        Partition {
            parent: vec![0; n],
            comp_of_root: vec![0; n],
            row_comp: Vec::new(),
            grouped: Vec::new(),
            comp_start: Vec::new(),
            comp_universe: Vec::new(),
        }
    }

    fn find(&mut self, mut x: u32) -> u32 {
        while self.parent[x as usize] != x {
            // Path halving.
            self.parent[x as usize] = self.parent[self.parent[x as usize] as usize];
            x = self.parent[x as usize];
        }
        x
    }

    /// Splits a leaf with the given `universe`, `used` variables and `rows`
    /// into its connected components and returns their number — or `None` if
    /// the leaf does not split (one component and no unused variable).
    ///
    /// Components are numbered in order of their smallest variable; each row
    /// belongs to the component of its lowest bit. The unused variables are
    /// not a component here: they are `universe ∖ used`.
    pub(crate) fn split(
        &mut self,
        w: usize,
        universe: &[u64],
        used: &[u64],
        rows: &[u64],
    ) -> Option<usize> {
        for b in bits(used) {
            self.parent[b] = b as u32;
        }
        for row in rows.chunks_exact(w) {
            let mut it = bits(row);
            let first = self.find(it.next().expect("a non-empty row") as u32);
            for b in it {
                let root = self.find(b as u32);
                if root != first {
                    self.parent[root as usize] = first;
                }
            }
        }
        for b in bits(used) {
            self.comp_of_root[b] = UNASSIGNED;
        }
        let mut num_comps = 0;
        self.comp_universe.clear();
        for b in bits(used) {
            let root = self.find(b as u32) as usize;
            if self.comp_of_root[root] == UNASSIGNED {
                self.comp_of_root[root] = num_comps as u32;
                num_comps += 1;
                self.comp_universe.resize(num_comps * w, 0);
            }
            let c = self.comp_of_root[root] as usize;
            set_bit(&mut self.comp_universe[c * w..(c + 1) * w], b);
        }
        let has_unused = universe.iter().zip(used).any(|(u, a)| u & !a != 0);
        if num_comps == 1 && !has_unused {
            return None;
        }
        // Counting sort of the rows by component.
        self.comp_start.clear();
        self.comp_start.resize(num_comps + 1, 0);
        self.row_comp.clear();
        for row in rows.chunks_exact(w) {
            let root = self.find(lowest_bit(row) as u32);
            let c = self.comp_of_root[root as usize];
            self.row_comp.push(c);
            self.comp_start[c as usize + 1] += 1;
        }
        for c in 0..num_comps {
            self.comp_start[c + 1] += self.comp_start[c];
        }
        // Place each row at its component's cursor; the cursors end one
        // component ahead, so shift them back afterwards.
        self.grouped.clear();
        self.grouped.resize(self.row_comp.len(), 0);
        for (r, &c) in self.row_comp.iter().enumerate() {
            let at = &mut self.comp_start[c as usize];
            self.grouped[*at as usize] = r as u32;
            *at += 1;
        }
        self.comp_start.copy_within(0..num_comps, 1);
        self.comp_start[0] = 0;
        Some(num_comps)
    }

    /// The universe of component `c` after a [`Partition::split`].
    pub(crate) fn universe(&self, c: usize, w: usize) -> &[u64] {
        &self.comp_universe[c * w..(c + 1) * w]
    }

    /// The row indices of component `c` after a [`Partition::split`].
    pub(crate) fn rows(&self, c: usize) -> &[u32] {
        &self.grouped[self.comp_start[c] as usize..self.comp_start[c + 1] as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::{decode, encode, is_zero, words_for};
    use banzhaf_arith::Natural;
    use banzhaf_boolean::{Assignment, Dnf, Var, VarSet};

    fn v(i: u32) -> Var {
        Var(i)
    }

    /// The dense form of `phi` over its own universe: (vars, W, leaf).
    fn dense(phi: &Dnf) -> (Vec<Var>, usize, Vec<u64>) {
        let vars = phi.universe().as_slice().to_vec();
        let w = words_for(vars.len());
        let mut leaf = Vec::new();
        encode(phi, &vars, w, &mut leaf);
        (vars, w, leaf)
    }

    /// The independent components of a non-constant `phi`, as `Dnf`s, with
    /// the unused variables as a trailing `false` component.
    fn independent_components(phi: &Dnf) -> Option<Vec<Dnf>> {
        let (vars, w, leaf) = dense(phi);
        let (universe, rows) = leaf.split_at(w);
        let mut used = Vec::new();
        fold_rows(rows, w, false, &mut used);
        let mut partition = Partition::new(vars.len());
        let k = partition.split(w, universe, &used, rows)?;
        let mut out: Vec<Dnf> = (0..k)
            .map(|c| {
                let mut comp = partition.universe(c, w).to_vec();
                for &r in partition.rows(c) {
                    comp.extend_from_slice(&rows[r as usize * w..(r as usize + 1) * w]);
                }
                decode(&comp, &vars, w)
            })
            .collect();
        let unused = phi.universe().difference(&phi.used_vars());
        if !unused.is_empty() {
            out.push(Dnf::constant_false(unused));
        }
        Some(out)
    }

    /// The variables occurring in every clause of a non-constant `phi`.
    fn common_variables(phi: &Dnf) -> VarSet {
        let (vars, w, leaf) = dense(phi);
        let mut common = Vec::new();
        fold_rows(&leaf[w..], w, true, &mut common);
        bits(&common).map(|b| vars[b]).collect()
    }

    #[test]
    fn no_split_for_connected_function() {
        let phi = Dnf::from_clauses(vec![vec![v(0), v(1)], vec![v(1), v(2)]]);
        assert!(independent_components(&phi).is_none());
    }

    #[test]
    fn splits_disconnected_clauses() {
        // (x0 ∧ x1) ∨ (x2 ∧ x3) ∨ x4  → three components.
        let phi = Dnf::from_clauses(vec![vec![v(0), v(1)], vec![v(2), v(3)], vec![v(4)]]);
        let comps = independent_components(&phi).unwrap();
        assert_eq!(comps.len(), 3);
        let sizes: Vec<usize> = comps.iter().map(Dnf::num_vars).collect();
        assert_eq!(sizes, vec![2, 2, 1]);
        // Universes are pairwise disjoint and cover the original universe.
        let mut union = VarSet::empty();
        for c in &comps {
            assert!(union.is_disjoint(c.universe()));
            union = union.union(c.universe());
        }
        assert_eq!(&union, phi.universe());
    }

    #[test]
    fn unused_universe_vars_become_false_component() {
        let phi = Dnf::from_clauses_with_universe(
            vec![vec![v(0), v(1)]],
            VarSet::from_iter([v(0), v(1), v(2), v(3)]),
        );
        let comps = independent_components(&phi).unwrap();
        assert_eq!(comps.len(), 2);
        assert!(comps[1].is_false());
        assert_eq!(comps[1].num_vars(), 2);
        // Semantics preserved: disjunction of components equals the original.
        let rebuilt = comps.iter().fold(Dnf::constant_false(VarSet::empty()), |acc, c| acc.or(c));
        for mask in 0u32..16 {
            let assignment =
                Assignment::from_true_vars((0..4).filter(|i| mask & (1 << i) != 0).map(v));
            assert_eq!(phi.evaluate(&assignment), rebuilt.evaluate(&assignment));
        }
    }

    #[test]
    fn component_model_counts_multiply_correctly() {
        let phi = Dnf::from_clauses(vec![vec![v(0), v(1)], vec![v(2)], vec![v(3), v(4)]]);
        let comps = independent_components(&phi).unwrap();
        // #non-models multiply across independent disjuncts.
        let total_vars: usize = comps.iter().map(Dnf::num_vars).sum();
        assert_eq!(total_vars, phi.num_vars());
        let brute = phi.brute_force_model_count();
        let mut non_models = Natural::one();
        for c in &comps {
            let nm = &Natural::pow2(c.num_vars()) - &c.brute_force_model_count();
            non_models = non_models.mul_ref(&nm);
        }
        let rebuilt = &Natural::pow2(phi.num_vars()) - &non_models;
        assert_eq!(brute, rebuilt);
    }

    #[test]
    fn common_variable_detection() {
        let phi = Dnf::from_clauses(vec![vec![v(0), v(1)], vec![v(0), v(2)]]);
        assert_eq!(common_variables(&phi).as_slice(), &[v(0)]);
        let none = Dnf::from_clauses(vec![vec![v(0), v(1)], vec![v(2)]]);
        assert!(common_variables(&none).is_empty());
    }

    #[test]
    fn factoring_example9() {
        // (x ∧ y) ∨ (x ∧ z) = x ∧ (y ∨ z): the rows minus the common set.
        let phi = Dnf::from_clauses(vec![vec![v(0), v(1)], vec![v(0), v(2)]]);
        let (vars, w, leaf) = dense(&phi);
        let mut common = Vec::new();
        fold_rows(&leaf[w..], w, true, &mut common);
        let rest: Vec<u64> = leaf.iter().map(|word| word & !common[0]).collect();
        let rest = decode(&rest, &vars, w);
        assert_eq!(rest.num_clauses(), 2);
        assert_eq!(rest.num_vars(), 2);
        assert!(!rest.universe().contains(v(0)));
    }

    #[test]
    fn factoring_clause_equal_to_common_set_gives_true_rest() {
        // x ∨ (x ∧ y) : common = {x}, and the clause x leaves an empty row,
        // so the rest is ⊤ over {y}.
        let phi = Dnf::from_clauses(vec![vec![v(0)], vec![v(0), v(1)]]);
        let (_, w, leaf) = dense(&phi);
        let mut common = Vec::new();
        fold_rows(&leaf[w..], w, true, &mut common);
        assert_eq!(bits(&common).collect::<Vec<_>>(), vec![0]);
        let rest: Vec<u64> = leaf.iter().map(|word| word & !common[0]).collect();
        assert!(rest[w..].chunks_exact(w).any(is_zero));
        assert_eq!(rest[0].count_ones(), 1);
    }
}
