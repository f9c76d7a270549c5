//! Criterion micro-benchmarks of the building blocks: bigint arithmetic,
//! iDNF bound construction and counting, d-tree compilation, ExaBan's count
//! and context passes, Monte Carlo sampling throughput, provenance-aware
//! query evaluation, and the session's cache-hit path.

use banzhaf::{exaban_all_with_counts, model_counts, Budget, DTree, PivotHeuristic};
use banzhaf_arith::Natural;
use banzhaf_baselines::{mc_banzhaf, McOptions};
use banzhaf_boolean::{lower_bound_fn, upper_bound_fn, Dnf};
use banzhaf_engine::{BatchOptions, Engine, EngineConfig};
use banzhaf_query::evaluate;
use banzhaf_workloads::{
    academic_workload, imdb_workload, tpch_workload, DatasetSpec, LineageGenerator, LineageShape,
};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn shape(num_vars: usize, num_clauses: usize) -> LineageShape {
    LineageShape { num_vars, num_clauses, min_width: 2, max_width: 4, skew: 0.6 }
}

fn bench_bigint(c: &mut Criterion) {
    let mut group = c.benchmark_group("bigint");
    for bits in [256usize, 2048, 16384] {
        let a = &Natural::pow2(bits) - &Natural::from(12345u64);
        let b = &Natural::pow2(bits / 2) + &Natural::from(6789u64);
        group.bench_with_input(BenchmarkId::new("mul", bits), &bits, |bench, _| {
            bench.iter(|| a.mul_ref(&b));
        });
        group.bench_with_input(BenchmarkId::new("add", bits), &bits, |bench, _| {
            bench.iter(|| &a + &b);
        });
    }
    group.finish();
}

fn bench_idnf_bounds(c: &mut Criterion) {
    let mut group = c.benchmark_group("idnf_bounds");
    let mut rng = StdRng::seed_from_u64(11);
    for clauses in [20usize, 100, 400] {
        let phi = LineageGenerator::new(shape(clauses, clauses)).generate(&mut rng);
        group.bench_with_input(
            BenchmarkId::new("L_and_U_counts", clauses),
            &clauses,
            |bench, _| {
                bench.iter(|| {
                    let l = lower_bound_fn(&phi).idnf_model_count();
                    let u = upper_bound_fn(&phi).idnf_model_count();
                    (l, u)
                });
            },
        );
    }
    group.finish();
}

fn bench_compile(c: &mut Criterion) {
    let mut group = c.benchmark_group("dtree_compile");
    group.sample_size(20);
    let mut rng = StdRng::seed_from_u64(12);
    // Paper-corpus sizes, then hard-tail sizes (`perfbench`'s `HARD_SIZES`
    // clause counts at 45 and 55 variables).
    for (vars, clauses) in [(15usize, 15usize), (25, 25), (35, 35), (45, 32), (55, 37)] {
        let phi = LineageGenerator::new(shape(vars, clauses)).generate(&mut rng);
        group.bench_with_input(BenchmarkId::new("compile_full", vars), &vars, |bench, _| {
            bench.iter(|| {
                DTree::compile_full(phi.clone(), PivotHeuristic::MostFrequent, &Budget::unlimited())
                    .unwrap()
            });
        });
    }
    group.finish();
}

/// ExaBan's two passes over one compiled 50-variable tree, apart from the
/// compilation they follow.
fn bench_exaban_pass(c: &mut Criterion) {
    let mut group = c.benchmark_group("exaban_pass");
    group.sample_size(20);
    let mut rng = StdRng::seed_from_u64(14);
    let phi = LineageGenerator::new(shape(50, 35)).generate(&mut rng);
    let tree =
        DTree::compile_full(phi, PivotHeuristic::MostFrequent, &Budget::unlimited()).unwrap();
    group.bench_with_input(
        BenchmarkId::new("counts_and_contexts", tree.num_nodes()),
        &tree,
        |bench, tree| {
            bench.iter(|| exaban_all_with_counts(tree, &model_counts(tree)));
        },
    );
    group.finish();
}

fn bench_mc_sampling(c: &mut Criterion) {
    let mut group = c.benchmark_group("mc_sampling");
    group.sample_size(20);
    let mut rng = StdRng::seed_from_u64(13);
    let phi = LineageGenerator::new(shape(40, 30)).generate(&mut rng);
    for samples in [10u64, 50] {
        group.bench_with_input(
            BenchmarkId::new("samples_per_var", samples),
            &samples,
            |bench, &s| {
                bench.iter(|| {
                    mc_banzhaf(&phi, &McOptions { samples_per_var: s }, 7, &Budget::unlimited())
                        .unwrap()
                });
            },
        );
    }
    group.finish();
}

/// Lineage extraction for each of the 16 corpus queries at the default
/// scale: the query layer under every explain request.
fn bench_evaluate(c: &mut Criterion) {
    let mut group = c.benchmark_group("evaluate");
    let spec = DatasetSpec::default();
    for workload in [academic_workload(&spec), imdb_workload(&spec), tpch_workload(&spec)] {
        for (name, query) in &workload.queries {
            group.bench_function(name, |bench| bench.iter(|| evaluate(query, &workload.db)));
        }
    }
    group.finish();
}

/// A warmed `attribute_batch` over each corpus query's answer lineages:
/// every instance is answered in closed form (clauses that share no
/// variable) or is a cache hit, so this times the engine layer alone (the
/// closed form, or prekey, presentation settle and map-back) under every
/// explain request.
fn bench_session_hit(c: &mut Criterion) {
    let mut group = c.benchmark_group("session_hit");
    let spec = DatasetSpec::default();
    for workload in [academic_workload(&spec), imdb_workload(&spec), tpch_workload(&spec)] {
        for (name, query) in &workload.queries {
            let lineages: Vec<Dnf> = evaluate(query, &workload.db)
                .into_answers()
                .into_iter()
                .map(|a| a.lineage)
                .collect();
            let refs: Vec<&Dnf> = lineages.iter().collect();
            let engine = Engine::new(EngineConfig::default());
            let mut session = engine.session();
            session.attribute_batch(&refs, BatchOptions::default());
            group.bench_function(name, |bench| {
                bench.iter(|| session.attribute_batch(&refs, BatchOptions::default()));
            });
        }
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_bigint,
    bench_idnf_bounds,
    bench_compile,
    bench_exaban_pass,
    bench_mc_sampling,
    bench_evaluate,
    bench_session_hit
);
criterion_main!(benches);
