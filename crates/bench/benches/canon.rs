//! Criterion micro-benchmarks of the cache-keying layers: the full canonical
//! key (`canonical_key_probe`) against the cheap isomorphism-invariant
//! fingerprint pre-key (`prekey_probe`) — the pre-key is what
//! singleton-traffic lookups pay instead of the canonical key.
//!
//! Families, each labelled by its variable count:
//!
//! * `ring`, `clique`, `soup` — indecomposable shapes that go straight to the
//!   individualization search;
//! * `star` — `x ∧ ⋁(a_i ∧ b_i)` at k = 21, 60 and 200, the hierarchical
//!   movie–actor lineage: one factor and one split key it;
//! * `battery` — 30 and 300 singleton clauses: one split keys it;
//! * `product` — one `imdb_q5` movie, `m ∧ (⋁ directs) ∧ (⋁ acts_in)`, with
//!   2 × 10, 5 × 20 and 2 × 40 directors × actors: one factor and one
//!   cross-product step key it;
//! * `hard` — a seeded 50-variable, 35-clause random lineage of the
//!   benchmark's hard-tail shape, which guards the indecomposable path.
//!
//! `canon_warm_hit` times a warm `Session::attribute` hit on a `star`,
//! `product` and `hard` entry, once through the entry's own presentation
//! (`own/…`) and once through a label-reversed isomorph that the entry knows
//! as an alias (`alias/…`): neither keys anything, and the alias pays only
//! the composed witness renaming on top.

use banzhaf_boolean::{Dnf, Var};
use banzhaf_engine::{canonical_key_probe, prekey_probe, Engine, EngineConfig};
use banzhaf_workloads::{LineageGenerator, LineageShape};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn ring(num_vars: u32) -> Dnf {
    Dnf::from_clauses(
        (0..num_vars).map(|i| vec![Var(i), Var((i + 1) % num_vars)]).collect::<Vec<_>>(),
    )
}

fn clique(num_vars: u32) -> Dnf {
    let mut clauses = Vec::new();
    for i in 0..num_vars {
        for j in (i + 1)..num_vars {
            clauses.push(vec![Var(i), Var(j)]);
        }
    }
    Dnf::from_clauses(clauses)
}

fn soup(num_vars: u32, seed: u64) -> Dnf {
    let mut rng = StdRng::seed_from_u64(seed);
    let clauses = (0..num_vars)
        .map(|_| {
            let width = rng.gen_range(1..=3usize);
            (0..width).map(|_| Var(rng.gen_range(0..num_vars))).collect::<Vec<_>>()
        })
        .collect::<Vec<_>>();
    Dnf::from_clauses(clauses)
}

fn star(k: u32) -> Dnf {
    Dnf::from_clauses(
        (0..k).map(|i| vec![Var(0), Var(2 * i + 1), Var(2 * i + 2)]).collect::<Vec<_>>(),
    )
}

fn battery(k: u32) -> Dnf {
    Dnf::from_clauses((0..k).map(|i| vec![Var(i)]).collect::<Vec<_>>())
}

fn product(directors: u32, actors: u32) -> Dnf {
    let mut clauses = Vec::new();
    for d in 1..=directors {
        for a in directors + 1..=directors + actors {
            clauses.push(vec![Var(0), Var(d), Var(a)]);
        }
    }
    Dnf::from_clauses(clauses)
}

fn hard(seed: u64) -> Dnf {
    let shape =
        LineageShape { num_vars: 50, num_clauses: 35, min_width: 2, max_width: 4, skew: 0.5 };
    LineageGenerator::new(shape).generate(&mut StdRng::seed_from_u64(seed))
}

fn bench_keying(c: &mut Criterion) {
    let mut group = c.benchmark_group("canon_keying");
    group.sample_size(20);
    let families: Vec<(&str, Vec<Dnf>)> = vec![
        ("ring", [32u32, 128, 512].iter().map(|&n| ring(n)).collect()),
        ("clique", [8u32, 16, 32].iter().map(|&n| clique(n)).collect()),
        ("soup", [32u32, 128, 512].iter().map(|&n| soup(n, u64::from(n))).collect()),
        ("star", [21u32, 60, 200].iter().map(|&k| star(k)).collect()),
        ("battery", [30u32, 300].iter().map(|&k| battery(k)).collect()),
        (
            "product",
            [(2u32, 10u32), (5, 20), (2, 40)].iter().map(|&(d, a)| product(d, a)).collect(),
        ),
        ("hard", vec![hard(7)]),
    ];
    for (family, lineages) in &families {
        for phi in lineages {
            let vars = phi.num_vars();
            group.bench_with_input(
                BenchmarkId::new(format!("canonical_key/{family}"), vars),
                phi,
                |bench, phi| bench.iter(|| canonical_key_probe(phi)),
            );
            group.bench_with_input(
                BenchmarkId::new(format!("prekey/{family}"), vars),
                phi,
                |bench, phi| bench.iter(|| prekey_probe(phi)),
            );
        }
    }
    group.finish();
}

/// `phi` with its labels reversed: an isomorph in another dense
/// presentation.
fn reversed(phi: &Dnf) -> Dnf {
    let top = phi.universe().iter().map(|v| v.0).max().unwrap_or(0);
    Dnf::from_clauses(
        phi.clauses()
            .iter()
            .map(|c| c.iter().map(|v| Var(top - v.0)).collect::<Vec<_>>())
            .collect::<Vec<_>>(),
    )
}

fn bench_warm_hits(c: &mut Criterion) {
    let mut group = c.benchmark_group("canon_warm_hit");
    group.sample_size(20);
    for (family, phi) in [("star", star(21)), ("product", product(2, 10)), ("hard", hard(7))] {
        let other = reversed(&phi);
        let engine = Engine::new(EngineConfig::default());
        let mut session = engine.session();
        session.attribute(&phi).expect("unlimited budget");
        // Keyed to the entry twice, the other presentation becomes an alias.
        for _ in 0..2 {
            let keyed = session.attribute(&other).expect("unlimited budget");
            assert!(keyed.stats.cache_hit && keyed.stats.canon_steps > 0, "{family}");
        }
        let aliased = session.attribute(&other).expect("unlimited budget");
        assert!(aliased.stats.cache_hit && aliased.stats.canon_steps == 0, "{family}");
        let vars = phi.num_vars();
        for (path, lineage) in [("own", &phi), ("alias", &other)] {
            group.bench_with_input(
                BenchmarkId::new(format!("{path}/{family}"), vars),
                lineage,
                |bench, lineage| bench.iter(|| session.attribute(lineage)),
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_keying, bench_warm_hits);
criterion_main!(benches);
