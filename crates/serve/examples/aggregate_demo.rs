//! End-to-end smoke demo: aggregate attribution flowing through the serving
//! stack with **unchanged** serve APIs.
//!
//! The async front end still speaks Boolean DNF requests only — aggregate
//! work rides the same engine through [`AttributionService::engine`], so a
//! SUM/COUNT client shares the worker pool's configuration without any new
//! service endpoints (aggregate lineages bypass the shared cache). This
//! demo:
//!
//! 1. evaluates a SUM and a COUNT query over a TPC-H-flavoured micro
//!    database, producing per-answer [`banzhaf_engine::WeightedDnf`] lineages,
//! 2. submits the *Boolean skeletons* of those lineages through the untouched
//!    async `submit` API, and
//! 3. attributes the weighted lineages synchronously via a session of the
//!    service's own engine, cross-checking every aggregate Banzhaf value
//!    against the brute-force definition.
//!
//! Run with `cargo run -p banzhaf-serve --example aggregate_demo`.

use banzhaf_engine::{evaluate_aggregate, parse_program, Database, Score};
use banzhaf_serve::{block_on, join_all, AttributionService, RequestOptions, ServeConfig};

fn main() {
    // A supplier/lineitem-style micro database. Suppliers are endogenous
    // (we attribute revenue to them); one line item is exogenous noise.
    let mut db = Database::new();
    db.add_relation("Supp", 2);
    db.add_relation("Item", 3);
    db.insert_endogenous("Supp", vec![1.into(), "acme".into()]).unwrap();
    db.insert_endogenous("Supp", vec![2.into(), "bolt".into()]).unwrap();
    db.insert_endogenous("Item", vec![1.into(), 10.into(), 5.into()]).unwrap();
    db.insert_endogenous("Item", vec![1.into(), 11.into(), 7.into()]).unwrap();
    db.insert_endogenous("Item", vec![2.into(), 10.into(), 11.into()]).unwrap();
    db.insert_exogenous("Item", vec![2.into(), 12.into(), 3.into()]).unwrap();

    let revenue = parse_program("Rev(N, SUM(V)) :- Supp(S, N), Item(S, P, V).").unwrap();
    let orders = parse_program("Cnt(N, COUNT(*)) :- Supp(S, N), Item(S, P, V).").unwrap();
    let revenue = evaluate_aggregate(&revenue, &db).unwrap();
    let orders = evaluate_aggregate(&orders, &db).unwrap();

    let service = AttributionService::start(ServeConfig::default().with_workers(2));

    // The unchanged Boolean front end: the skeletons of the aggregate
    // lineages are ordinary DNF requests.
    let tickets: Vec<_> = revenue
        .answers()
        .iter()
        .chain(orders.answers())
        .map(|answer| {
            service
                .submit(answer.lineage.dnf().clone(), RequestOptions::default())
                .expect("the demo queue has capacity")
        })
        .collect();
    let outcomes = block_on(join_all(tickets));
    assert!(outcomes.iter().all(Result::is_ok), "Boolean requests still flow");
    println!("boolean skeletons served: {}", outcomes.len());

    // Aggregate attribution against the same engine (uncached).
    let mut session = service.engine().session();
    for result in [&revenue, &orders] {
        for answer in result.answers() {
            let lineage = &answer.lineage;
            let attribution = session.attribute(lineage).expect("no budget set in this demo");
            let kind = attribution.aggregate.expect("aggregate backends report their kind");
            println!(
                "{kind} answer {:?} via {} (total over worlds: {})",
                answer.tuple,
                attribution.algorithm,
                attribution.aggregate_total.as_ref().expect("exact backends report a total"),
            );
            // Values come in ascending variable order.
            for (var, score) in &attribution.values {
                let Score::Rational(got) = score else {
                    panic!("exact aggregate scores are rationals");
                };
                let expected = lineage.brute_force_aggregate_banzhaf(*var);
                assert_eq!(**got, expected, "aggregate Banzhaf of {var:?} disagrees");
                println!("  {var:?} -> {got}");
            }
        }
    }

    let cache = service.engine_stats().cache;
    println!("cache: {} hits, {} insertions", cache.hits, cache.insertions);
    service.shutdown();
    println!("aggregate demo OK");
}
