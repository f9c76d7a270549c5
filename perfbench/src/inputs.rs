//! Seeded inputs of the two workloads. Everything here is a pure function
//! of the `--seed` argument: the same seed gives the same inputs.

use banzhaf_boolean::{Dnf, Var};
use banzhaf_db::{Update, Value};
use banzhaf_workloads::{
    academic_workload, imdb_workload, tpch_workload, DatasetSpec, LineageGenerator, LineageShape,
    LiveWorkload,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Independent sub-streams of one seed.
#[derive(Clone, Copy)]
enum Stream {
    ExplainOrder = 2,
    HardTail = 3,
    HardRepeat = 4,
    Updates = 5,
    Warmup = 8,
}

/// `SplitMix64` of (seed, stream, index): well-spread, independent RNG seeds.
fn mix(seed: u64, stream: Stream, index: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add((stream as u64) << 56)
        .wrapping_add(index.wrapping_mul(0xD1B5_4A32_D192_ED03));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn rng(seed: u64, stream: Stream, index: u64) -> StdRng {
    StdRng::seed_from_u64(mix(seed, stream, index))
}

/// The Academic-, IMDB- and TPC-H-like databases with their 16 queries, at
/// scale 1: the repository's standard corpora (1362 answers). Like the
/// paper's datasets they are fixed; the seed varies the op streams over
/// them, so runs with different seeds do the same amount of work per pass.
pub fn corpora() -> Vec<LiveWorkload> {
    let spec = DatasetSpec::default();
    vec![academic_workload(&spec), imdb_workload(&spec), tpch_workload(&spec)]
}

/// The IMDB-like database and queries of [`corpora`] (the live database of
/// every workload's write phase).
pub fn imdb() -> LiveWorkload {
    imdb_workload(&DatasetSpec::default())
}

/// The query order of pass `pass` of the explain loop: every query once, in
/// a seeded order.
pub fn explain_order(seed: u64, queries: usize, pass: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..queries).collect();
    shuffle(&mut order, &mut rng(seed, Stream::ExplainOrder, pass));
    order
}

fn shuffle<T>(items: &mut [T], rng: &mut StdRng) {
    for i in (1..items.len()).rev() {
        let j = rng.gen_range(0..=i);
        items.swap(i, j);
    }
}

/// A lineage with its variables renamed through a random bijection and its
/// clauses shuffled: isomorphic to `base`, so its Banzhaf values are the
/// base's values carried through `map`.
pub struct Renamed {
    pub lineage: Dnf,
    /// `(base variable, renamed variable)`, one pair per base variable.
    pub map: Vec<(Var, Var)>,
}

pub fn rename(base: &Dnf, rng: &mut StdRng) -> Renamed {
    let originals: Vec<Var> = base.universe().iter().collect();
    let mut targets: Vec<u32> = (0..originals.len() as u32).collect();
    shuffle(&mut targets, rng);
    let offset: u32 = rng.gen_range(0..1024);
    let stride: u32 = rng.gen_range(1..4);
    let map: Vec<(Var, Var)> =
        originals.iter().zip(&targets).map(|(&v, &t)| (v, Var(offset + t * stride))).collect();
    let lookup = |v: Var| map[originals.binary_search(&v).expect("clause var in universe")].1;
    let mut clauses: Vec<Vec<Var>> =
        base.clauses().iter().map(|c| c.iter().map(lookup).collect()).collect();
    shuffle(&mut clauses, rng);
    Renamed { lineage: Dnf::from_clauses(clauses), map }
}

/// Variables and clauses of the hard-tail lineages, rotated op by op so
/// every run draws the same mix of sizes. Cost grows steeply with size:
/// about 3, 10 and 30 ms at 40, 50 and 60 variables; beyond ~65 variables
/// single lineages take seconds and memory runs out.
pub const HARD_SIZES: [(usize, usize); 5] = [(40, 30), (45, 32), (50, 35), (55, 37), (60, 40)];

/// One op in this many is a renamed, clause-shuffled isomorph of an earlier
/// op.
pub const HARD_REPEAT_EVERY: usize = 4;

/// Repeats are of one of this many most recent fresh ops: a run makes more
/// fresh shapes than the cache holds, and a repeat of a shape the cache has
/// long evicted would test the eviction order rather than the reuse.
pub const HARD_REPEAT_WINDOW: usize = 64;

/// One hard-tail op: a fresh random lineage, or an isomorph of an earlier op.
#[derive(Clone, Debug, PartialEq)]
pub struct HardOp {
    pub lineage: Dnf,
    /// `Some((earlier op, renaming))` for an isomorph.
    pub repeat_of: Option<(usize, Vec<(Var, Var)>)>,
}

fn is_hard_repeat(i: usize) -> bool {
    i % HARD_REPEAT_EVERY == HARD_REPEAT_EVERY - 1
}

/// A lineage of size `HARD_SIZES[size]`.
fn hard_lineage(size: usize, rng: &mut StdRng) -> Dnf {
    let (num_vars, num_clauses) = HARD_SIZES[size % HARD_SIZES.len()];
    let shape = LineageShape { num_vars, num_clauses, min_width: 2, max_width: 4, skew: 0.5 };
    LineageGenerator::new(shape).generate(rng)
}

/// The `m`-th fresh lineage of the stream.
fn hard_fresh(seed: u64, m: usize) -> Dnf {
    hard_lineage(m, &mut rng(seed, Stream::HardTail, m as u64))
}

/// Lineages of the smallest hard-tail size that warm the engine up, the
/// same for every seed, so set-up does the same work whatever the seed.
pub fn hard_warmup(count: usize) -> Vec<Dnf> {
    (0..count).map(|i| hard_lineage(0, &mut rng(0, Stream::Warmup, i as u64))).collect()
}

/// Op `i` of the hard-tail stream.
pub fn hard_tail_op(seed: u64, i: usize) -> HardOp {
    let per = HARD_REPEAT_EVERY;
    if !is_hard_repeat(i) {
        // Fresh ops are numbered by how many fresh ops precede them.
        return HardOp { lineage: hard_fresh(seed, i - i / per), repeat_of: None };
    }
    let mut rng = rng(seed, Stream::HardRepeat, i as u64);
    let fresh_before = i - i / per;
    let m = fresh_before - 1 - rng.gen_range(0..fresh_before.min(HARD_REPEAT_WINDOW));
    let earlier = m + m / (per - 1);
    let renamed = rename(&hard_fresh(seed, m), &mut rng);
    HardOp { lineage: renamed.lineage, repeat_of: Some((earlier, renamed.map)) }
}

/// Indices `0..n` in a fresh seeded order per cycle, cycling forever: a
/// stream that visits every index equally often, so runs with different
/// seeds draw the same mix.
fn cycles(n: usize, mut rng: StdRng) -> impl Iterator<Item = usize> {
    std::iter::repeat_with(move || {
        let mut order: Vec<usize> = (0..n).collect();
        shuffle(&mut order, &mut rng);
        order
    })
    .flatten()
}

/// `pairs` delete/re-insert pairs of facts from the mutable relations of
/// `workload`, walking them in seeded cycles: each pair leaves the set of
/// facts as it found it (the re-inserted fact gets a fresh id), so every
/// update addresses a live fact.
pub fn update_pairs(workload: &LiveWorkload, seed: u64, pairs: usize) -> Vec<Update> {
    let candidates: Vec<(String, Vec<Value>)> = workload
        .db
        .endogenous_facts()
        .filter(|(_, f)| workload.mutable_relations.iter().any(|r| r == f.relation()))
        .map(|(_, f)| (f.relation().to_owned(), f.values().to_vec()))
        .collect();
    cycles(candidates.len(), rng(seed, Stream::Updates, 0))
        .take(pairs)
        .flat_map(|i| {
            let (relation, values) = candidates[i].clone();
            [Update::delete(relation.clone(), values.clone()), Update::insert(relation, values)]
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_same_seed_gives_identical_inputs() {
        for seed in [0, 1, 0xDEAD_BEEF] {
            assert_eq!(explain_order(seed, 16, 3), explain_order(seed, 16, 3));
            for i in 0..8 {
                assert_eq!(hard_tail_op(seed, i), hard_tail_op(seed, i));
            }
            let imdb = imdb();
            assert_eq!(update_pairs(&imdb, seed, 20), update_pairs(&imdb, seed, 20));
        }
    }

    #[test]
    fn another_seed_gives_other_inputs_of_the_same_kind() {
        assert_ne!(explain_order(1, 16, 0), explain_order(2, 16, 0));
        let (a, b) = (hard_tail_op(1, 0), hard_tail_op(2, 0));
        assert_ne!(a.lineage, b.lineage);
        assert_eq!((a.repeat_of.is_some(), b.repeat_of.is_some()), (false, false));
        let imdb = imdb();
        let (a, b) = (update_pairs(&imdb, 1, 5), update_pairs(&imdb, 2, 5));
        assert_ne!(a, b);
        assert_eq!(a.len(), b.len());
    }

    #[test]
    fn every_fourth_hard_op_is_an_isomorph_of_a_recent_fresh_op() {
        let seed = 7;
        for i in (0..40).chain(1000..1040) {
            let op = hard_tail_op(seed, i);
            match op.repeat_of {
                None => assert!(!is_hard_repeat(i)),
                Some((earlier, map)) => {
                    assert!(is_hard_repeat(i));
                    assert!(earlier < i && !is_hard_repeat(earlier));
                    assert!(i - earlier <= HARD_REPEAT_WINDOW * HARD_REPEAT_EVERY / 3 + 1);
                    let base = hard_tail_op(seed, earlier).lineage;
                    assert_eq!(map.len(), base.num_vars());
                    assert_eq!(op.lineage.num_vars(), base.num_vars());
                    assert_eq!(op.lineage.num_clauses(), base.num_clauses());
                }
            }
        }
    }

    #[test]
    fn renaming_is_a_bijection_that_preserves_clauses() {
        let base =
            Dnf::from_clauses(vec![vec![Var(3), Var(9)], vec![Var(9), Var(12)], vec![Var(5)]]);
        let renamed = rename(&base, &mut StdRng::seed_from_u64(11));
        let mut targets: Vec<Var> = renamed.map.iter().map(|&(_, t)| t).collect();
        targets.sort_unstable();
        targets.dedup();
        assert_eq!(targets.len(), 4);
        let image = |v: Var| renamed.map.iter().find(|&&(o, _)| o == v).unwrap().1;
        let mapped = Dnf::from_clauses(
            base.clauses()
                .iter()
                .map(|c| c.iter().map(image).collect::<Vec<_>>())
                .collect::<Vec<_>>(),
        );
        assert_eq!(mapped, renamed.lineage);
    }

    #[test]
    fn update_pairs_delete_then_reinsert_the_same_fact() {
        let imdb = imdb();
        let updates = update_pairs(&imdb, 3, 10);
        assert_eq!(updates.len(), 20);
        for pair in updates.chunks(2) {
            assert!(!pair[0].is_insert() && pair[1].is_insert());
            assert_eq!(pair[0].fact(), pair[1].fact());
        }
        let mut db = imdb.db.clone();
        for update in &updates {
            db.apply_update(update).unwrap();
        }
    }
}
