//! The dense leaf form the decomposition step works on.
//!
//! The variables of the function being compiled are mapped monotonically onto
//! `0..n`: dense variable `i` is `vars[i]` of its sorted universe. A leaf is
//! then one flat run of `W = ⌈n/64⌉`-word bitsets — its universe first, then
//! one row per clause. Rows are distinct and non-empty; their order carries no
//! meaning.

use banzhaf_boolean::{Dnf, Var};

/// Words per row for a universe of `n` variables.
pub(crate) fn words_for(n: usize) -> usize {
    n.div_ceil(64).max(1)
}

pub(crate) fn set_bit(words: &mut [u64], b: usize) {
    words[b / 64] |= 1 << (b % 64);
}

pub(crate) fn popcount(words: &[u64]) -> u32 {
    words.iter().map(|w| w.count_ones()).sum()
}

pub(crate) fn is_zero(words: &[u64]) -> bool {
    words.iter().all(|&w| w == 0)
}

/// The set bits of `words`, ascending.
pub(crate) fn bits(words: &[u64]) -> impl Iterator<Item = usize> + '_ {
    words.iter().enumerate().flat_map(|(i, &word)| {
        let mut w = word;
        std::iter::from_fn(move || {
            (w != 0).then(|| {
                let b = w.trailing_zeros() as usize;
                w &= w - 1;
                i * 64 + b
            })
        })
    })
}

/// The lowest set bit of a non-empty bitset.
pub(crate) fn lowest_bit(words: &[u64]) -> usize {
    bits(words).next().expect("a non-empty bitset")
}

/// Appends the dense form of the non-constant `phi` over the dense variables
/// `vars`, which must contain its universe.
pub(crate) fn encode(phi: &Dnf, vars: &[Var], w: usize, out: &mut Vec<u64>) {
    let dense = |v: Var| vars.binary_search(&v).expect("variable in the dense universe");
    let start = out.len();
    out.resize(start + w * (1 + phi.num_clauses()), 0);
    let (universe, rows) = out[start..].split_at_mut(w);
    for v in phi.universe().iter() {
        set_bit(universe, dense(v));
    }
    for (clause, row) in phi.clauses().iter().zip(rows.chunks_exact_mut(w)) {
        for v in clause.iter() {
            set_bit(row, dense(v));
        }
    }
}

/// The [`Dnf`] of a dense leaf.
pub(crate) fn decode(leaf: &[u64], vars: &[Var], w: usize) -> Dnf {
    let (universe, rows) = leaf.split_at(w);
    let clauses = rows.chunks_exact(w).map(|row| bits(row).map(|b| vars[b]).collect::<Vec<_>>());
    Dnf::from_clauses_with_universe(clauses, bits(universe).map(|b| vars[b]).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_round_trip_across_words() {
        let vars: Vec<Var> = (0..130).map(|i| Var(1000 + 7 * i)).collect();
        let w = words_for(vars.len());
        assert_eq!(w, 3);
        let phi = Dnf::from_clauses_with_universe(
            vec![vec![vars[0], vars[64]], vec![vars[129]], vec![vars[3], vars[70], vars[128]]],
            vars.iter().copied().step_by(2).chain([vars[3], vars[129]]).collect(),
        );
        let mut leaf = Vec::new();
        encode(&phi, &vars, w, &mut leaf);
        assert_eq!(leaf.len(), 4 * w);
        assert_eq!(bits(&leaf[w..2 * w]).collect::<Vec<_>>(), vec![0, 64]);
        assert_eq!(lowest_bit(&leaf[3 * w..]), 129);
        assert_eq!(popcount(&leaf[..w]) as usize, phi.num_vars());
        assert_eq!(decode(&leaf, &vars, w), phi);
    }
}
