//! One driver per table/figure of the paper's evaluation.
//!
//! Every function returns a plain-text report; the `repro` binary prints them.
//! The perf artifact experiments also return their record as a [`Json`]
//! value, which `repro` writes to the experiment's `BENCH_*.json` file.
//! The experiment identifiers match the per-experiment index in DESIGN.md and
//! the paper-vs-measured record in EXPERIMENTS.md.

use crate::json::Json;
use crate::report::{percent, RuntimeSummary, TextTable, PERCENTILES};
use crate::runner::{by_corpus, compare_cache, HarnessConfig, InstanceRecord};
use banzhaf::{critical_counts_all, l1_distance_normalized, Budget, DTree, PivotHeuristic, Var};
use banzhaf_baselines::{rank_estimates, rank_proxy};
use banzhaf_boolean::Dnf;
use banzhaf_db::Database;
use banzhaf_engine::{Algorithm, BatchOptions, CacheConfig, Engine, EngineConfig};
use banzhaf_query::parse_program;
use banzhaf_workloads::Corpus;
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// A per-instance success predicate, used to slice sweep records by algorithm.
type InstancePredicate = Box<dyn Fn(&InstanceRecord) -> bool>;

fn runtime_header(first: &str) -> Vec<String> {
    let mut header = vec![first.to_owned(), "Mean".to_owned()];
    header.extend(PERCENTILES.iter().map(|&(name, _)| name.to_owned()));
    header.push("Max".to_owned());
    header
}

/// Table 1: statistics of the three corpora.
pub fn table1(config: &HarnessConfig) -> String {
    let mut table = TextTable::new([
        "Dataset",
        "#Queries",
        "#Lineages",
        "#Vars (avg/max)",
        "#Clauses (avg/max)",
    ]);
    for corpus in config.corpora() {
        let stats = corpus.stats();
        table.push_row([
            corpus.name.clone(),
            stats.num_queries.to_string(),
            stats.num_lineages.to_string(),
            format!("{:.0} / {}", stats.avg_vars, stats.max_vars),
            format!("{:.0} / {}", stats.avg_clauses, stats.max_clauses),
        ]);
    }
    format!("Table 1 — dataset statistics (synthetic stand-ins)\n{}", table.render())
}

/// Table 2: query and lineage success rates for ExaBan, Sig22, AdaBan, MC.
pub fn table2(records: &[InstanceRecord], config: &HarnessConfig) -> String {
    let mut table = TextTable::new(["Dataset", "Algorithm", "Query success", "Lineage success"]);
    for (corpus, group) in by_corpus(records) {
        let algos: [(&str, InstancePredicate); 4] = [
            ("ExaBan", Box::new(|r: &InstanceRecord| r.exaban.success)),
            ("Sig22", Box::new(|r: &InstanceRecord| r.sig22.success)),
            ("AdaBan0.1", Box::new(|r: &InstanceRecord| r.adaban.success)),
            ("MC50#vars", Box::new(|r: &InstanceRecord| r.mc.success)),
        ];
        for (name, pred) in algos {
            let (q_ok, q_total) = crate::runner::query_success_rate(&group, &pred);
            let l_ok = group.iter().filter(|r| pred(r)).count();
            table.push_row([
                corpus.clone(),
                name.to_owned(),
                percent(q_ok, q_total),
                percent(l_ok, group.len()),
            ]);
        }
    }
    format!(
        "Table 2 — success rates (per-instance timeout {:?}, ε = {})\n{}",
        config.timeout,
        config.epsilon,
        table.render()
    )
}

/// Table 3: runtime percentiles of ExaBan vs Sig22 on instances where Sig22
/// succeeds.
pub fn table3(records: &[InstanceRecord]) -> String {
    let mut table = TextTable::new(runtime_header("Dataset / Algorithm"));
    for (corpus, group) in by_corpus(records) {
        let both: Vec<&&InstanceRecord> =
            group.iter().filter(|r| r.sig22.success && r.exaban.success).collect();
        let exa = RuntimeSummary::of(both.iter().map(|r| r.exaban.seconds).collect());
        let sig = RuntimeSummary::of(both.iter().map(|r| r.sig22.seconds).collect());
        let mut exa_row = vec![format!("{corpus} / ExaBan ({} inst.)", exa.count)];
        exa_row.extend(exa.row());
        table.push_row(exa_row);
        let mut sig_row = vec![format!("{corpus} / Sig22")];
        sig_row.extend(sig.row());
        table.push_row(sig_row);
    }
    format!("Table 3 — exact computation where Sig22 succeeds\n{}", table.render())
}

/// Table 4: ExaBan success rate and runtimes on instances where Sig22 fails.
pub fn table4(records: &[InstanceRecord]) -> String {
    let mut table = TextTable::new(runtime_header("Dataset (success rate)"));
    for (corpus, group) in by_corpus(records) {
        let sig_failed: Vec<&&InstanceRecord> = group.iter().filter(|r| !r.sig22.success).collect();
        let exa_ok: Vec<&&&InstanceRecord> =
            sig_failed.iter().filter(|r| r.exaban.success).collect();
        let summary = RuntimeSummary::of(exa_ok.iter().map(|r| r.exaban.seconds).collect());
        let mut row = vec![format!(
            "{corpus} ({} of {} Sig22 failures)",
            percent(exa_ok.len(), sig_failed.len()),
            sig_failed.len()
        )];
        row.extend(summary.row());
        table.push_row(row);
    }
    format!("Table 4 — ExaBan on instances where Sig22 fails\n{}", table.render())
}

/// Figure 4: ExaBan success rate and runtime grouped by lineage size.
pub fn fig4(records: &[InstanceRecord]) -> String {
    let buckets: [(usize, usize); 6] =
        [(0, 10), (10, 20), (20, 40), (40, 80), (80, 160), (160, usize::MAX)];
    let mut out = String::from("Figure 4 — ExaBan success and runtime by lineage size\n");
    for (label, key) in [("#Variables", 0usize), ("#Clauses", 1usize)] {
        let mut table =
            TextTable::new([label, "Instances", "Success rate", "Mean time", "Max time"]);
        for &(lo, hi) in &buckets {
            let in_bucket: Vec<&InstanceRecord> = records
                .iter()
                .filter(|r| {
                    let size = if key == 0 { r.num_vars } else { r.num_clauses };
                    size > lo && size <= hi
                })
                .collect();
            if in_bucket.is_empty() {
                continue;
            }
            let ok: Vec<&&InstanceRecord> = in_bucket.iter().filter(|r| r.exaban.success).collect();
            let summary = RuntimeSummary::of(ok.iter().map(|r| r.exaban.seconds).collect());
            let hi_label = if hi == usize::MAX { "∞".to_owned() } else { hi.to_string() };
            table.push_row([
                format!("({lo},{hi_label}]"),
                in_bucket.len().to_string(),
                percent(ok.len(), in_bucket.len()),
                crate::report::format_secs(summary.mean),
                crate::report::format_secs(summary.max),
            ]);
        }
        out.push_str(&table.render());
        out.push('\n');
    }
    out
}

/// Table 5: AdaBan vs ExaBan vs MC runtimes where ExaBan succeeds.
pub fn table5(records: &[InstanceRecord]) -> String {
    let mut table = TextTable::new(runtime_header("Dataset / Algorithm"));
    for (corpus, group) in by_corpus(records) {
        let ok: Vec<&&InstanceRecord> = group.iter().filter(|r| r.exaban.success).collect();
        for (name, extract) in [
            (
                "AdaBan0.1",
                Box::new(|r: &InstanceRecord| (r.adaban.success, r.adaban.seconds))
                    as Box<dyn Fn(&InstanceRecord) -> (bool, f64)>,
            ),
            ("ExaBan", Box::new(|r: &InstanceRecord| (r.exaban.success, r.exaban.seconds))),
            ("MC50#vars", Box::new(|r: &InstanceRecord| (r.mc.success, r.mc.seconds))),
        ] {
            let samples: Vec<f64> =
                ok.iter().filter(|r| extract(r).0).map(|r| extract(r).1).collect();
            let summary = RuntimeSummary::of(samples);
            let mut row = vec![format!("{corpus} / {name}")];
            row.extend(summary.row());
            table.push_row(row);
        }
    }
    format!("Table 5 — approximate vs exact computation where ExaBan succeeds\n{}", table.render())
}

/// Table 6: AdaBan success rate and runtime where ExaBan fails.
pub fn table6(records: &[InstanceRecord]) -> String {
    let mut table = TextTable::new(runtime_header("Dataset (success rate)"));
    for (corpus, group) in by_corpus(records) {
        let exa_failed: Vec<&&InstanceRecord> =
            group.iter().filter(|r| !r.exaban.success).collect();
        if exa_failed.is_empty() {
            table.push_row([format!("{corpus} (no ExaBan failures)")]);
            continue;
        }
        let ada_ok: Vec<&&&InstanceRecord> =
            exa_failed.iter().filter(|r| r.adaban.success).collect();
        let summary = RuntimeSummary::of(ada_ok.iter().map(|r| r.adaban.seconds).collect());
        let mut row = vec![format!(
            "{corpus} ({} of {} ExaBan failures)",
            percent(ada_ok.len(), exa_failed.len()),
            exa_failed.len()
        )];
        row.extend(summary.row());
        table.push_row(row);
    }
    format!("Table 6 — AdaBan0.1 on instances where ExaBan fails\n{}", table.render())
}

/// Table 7: observed ℓ1 error (on normalized Banzhaf vectors) of AdaBan vs MC.
pub fn table7(records: &[InstanceRecord]) -> String {
    let mut table =
        TextTable::new(["Dataset / Algorithm", "Mean", "p50", "p90", "p99", "Max", "Instances"]);
    let mut groups = by_corpus(records);
    // Extra "Hard" slice: instances on which ExaBan needed the most time.
    let mut hard: Vec<&InstanceRecord> = records.iter().filter(|r| r.exaban.success).collect();
    hard.sort_by(|a, b| b.exaban.seconds.partial_cmp(&a.exaban.seconds).unwrap());
    hard.truncate((hard.len() / 10).max(5).min(hard.len()));
    groups.push(("Hard".to_owned(), hard));

    for (corpus, group) in groups {
        for (name, estimates) in [
            (
                "AdaBan0.1",
                Box::new(|r: &InstanceRecord| r.adaban_estimates.clone())
                    as Box<dyn Fn(&InstanceRecord) -> Option<HashMap<Var, f64>>>,
            ),
            ("MC50#vars", Box::new(|r: &InstanceRecord| r.mc_estimates.clone())),
        ] {
            let mut errors: Vec<f64> = Vec::new();
            for r in &group {
                let (Some(exact), Some(est)) = (r.exact.as_ref(), estimates(r)) else {
                    continue;
                };
                errors.push(l1_distance_normalized(&est, exact));
            }
            errors.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let count = errors.len();
            if count == 0 {
                table.push_row([format!("{corpus} / {name}"), "n/a".into()]);
                continue;
            }
            let mean = errors.iter().sum::<f64>() / count as f64;
            let pick = |p: f64| errors[((count as f64 - 1.0) * p).round() as usize];
            table.push_row([
                format!("{corpus} / {name}"),
                format!("{mean:.2e}"),
                format!("{:.2e}", pick(0.5)),
                format!("{:.2e}", pick(0.9)),
                format!("{:.2e}", pick(0.99)),
                format!("{:.2e}", errors[count - 1]),
                count.to_string(),
            ]);
        }
    }
    format!("Table 7 — observed ℓ1 error vs exact normalized Banzhaf values\n{}", table.render())
}

/// Figure 5: error as a function of time for representative hard instances.
pub fn fig5(records: &[InstanceRecord], config: &HarnessConfig) -> String {
    // Pick the three instances with the largest ExaBan runtime among successes.
    let mut candidates: Vec<&InstanceRecord> =
        records.iter().filter(|r| r.exaban.success && r.num_vars >= 8).collect();
    candidates.sort_by(|a, b| b.exaban.seconds.partial_cmp(&a.exaban.seconds).unwrap());
    candidates.truncate(3);
    let corpora = config.corpora();
    let mut out = String::from(
        "Figure 5 — observed error |v̂−v|/v of the largest-value fact as a function of time\n",
    );
    for (idx, record) in candidates.iter().enumerate() {
        let lineage = find_lineage(&corpora, record);
        let Some(lineage) = lineage else { continue };
        let exact = record.exact.as_ref().expect("candidate filtered on success");
        // Track the variable with the largest exact value.
        let (&target, target_value) = exact
            .iter()
            .max_by(|(va, ba), (vb, bb)| ba.cmp(bb).then(vb.cmp(va)))
            .expect("non-empty lineage");
        let target_value = target_value.to_f64().max(1e-12);

        let mut table = TextTable::new(["Algorithm", "Setting", "Time", "Observed error"]);
        // AdaBan with a decreasing error schedule, targeting only the tracked
        // variable through the engine's single-variable entry point. Each row
        // is an independent from-scratch run, so "Time" is the cost of
        // reaching that precision directly; the anytime property shows as the
        // cost growing with the requested precision.
        for eps in ["0.5", "0.25", "0.1", "0.05", "0.01", "0"] {
            let attributor =
                EngineConfig::new(Algorithm::AdaBan).with_epsilon_str(eps).attributor();
            let start = Instant::now();
            let score = attributor
                .attribute_var(lineage, target, &Budget::unlimited())
                .expect("unbounded budget");
            let secs = start.elapsed().as_secs_f64();
            let err = (score.point() - target_value).abs() / target_value;
            table.push_row([
                "AdaBan".to_owned(),
                format!("ε={eps}"),
                crate::report::format_secs(secs),
                format!("{err:.3e}"),
            ]);
        }
        // Monte Carlo with a growing sample schedule.
        for samples in [10u64, 50, 250, 1000, 4000] {
            let mut engine_config = EngineConfig::new(Algorithm::MonteCarlo)
                .with_seed(config.seed + idx as u64 + samples);
            engine_config.mc_samples_per_var = samples;
            let attributor = engine_config.attributor();
            let start = Instant::now();
            let estimates = attributor
                .attribute(lineage, &Budget::unlimited())
                .expect("unbounded budget")
                .estimates();
            let secs = start.elapsed().as_secs_f64();
            let err = (estimates[&target] - target_value).abs() / target_value;
            table.push_row([
                "MC".to_owned(),
                format!("{samples}·#vars samples"),
                crate::report::format_secs(secs),
                format!("{err:.3e}"),
            ]);
        }
        use std::fmt::Write as _;
        write!(
            out,
            "\nInstance {} ({}, query {}, {} vars, {} clauses):\n{}",
            idx + 1,
            record.corpus,
            record.query,
            record.num_vars,
            record.num_clauses,
            table.render()
        )
        .expect("string write");
    }
    out
}

fn find_lineage<'a>(corpora: &'a [Corpus], record: &InstanceRecord) -> Option<&'a Dnf> {
    corpora
        .iter()
        .find(|c| c.name == record.corpus)?
        .instances
        .iter()
        .find(|i| {
            i.query == record.query
                && i.lineage.num_vars() == record.num_vars
                && i.lineage.num_clauses() == record.num_clauses
        })
        .map(|i| &i.lineage)
}

/// Table 8: precision@k of IchiBan-ε, MC and CNF Proxy against the exact
/// top-k, on instances where ExaBan succeeds and has at least k variables.
pub fn table8(records: &[InstanceRecord], config: &HarnessConfig) -> String {
    let mut out = String::from("Table 8 — observed precision@k against the exact top-k\n");
    for k in [config.topk, config.topk / 2] {
        let mut table =
            TextTable::new(["Dataset / Algorithm", "Mean", "p50", "p90", "Min", "Instances"]);
        for (corpus, group) in by_corpus(records) {
            let eligible: Vec<&&InstanceRecord> =
                group.iter().filter(|r| r.exaban.success && r.num_vars >= k && k > 0).collect();
            for (name, ranking) in [
                (
                    "IchiBan0.1",
                    Box::new(|r: &InstanceRecord| r.ichiban_topk.clone())
                        as Box<dyn Fn(&InstanceRecord) -> Option<Vec<Var>>>,
                ),
                (
                    "MC50#vars",
                    Box::new(|r: &InstanceRecord| r.mc_estimates.as_ref().map(rank_estimates)),
                ),
                ("CNF Proxy", Box::new(|r: &InstanceRecord| Some(rank_proxy(&r.proxy_scores)))),
            ] {
                let mut precisions: Vec<f64> = Vec::new();
                for r in &eligible {
                    let (Some(truth), Some(candidate)) = (r.exact_topk(k), ranking(r)) else {
                        continue;
                    };
                    let candidate: Vec<Var> = candidate.into_iter().take(k).collect();
                    let hits = candidate.iter().filter(|v| truth.contains(v)).count();
                    precisions.push(hits as f64 / k as f64);
                }
                precisions.sort_by(|a, b| a.partial_cmp(b).unwrap());
                let count = precisions.len();
                if count == 0 {
                    table.push_row([format!("{corpus} / {name}"), "n/a".into()]);
                    continue;
                }
                let mean = precisions.iter().sum::<f64>() / count as f64;
                let pick = |p: f64| precisions[((count as f64 - 1.0) * p).round() as usize];
                table.push_row([
                    format!("{corpus} / {name}"),
                    format!("{mean:.2}"),
                    format!("{:.2}", pick(0.5)),
                    format!("{:.2}", pick(0.1)), // Lower tail, like the paper's p90-of-badness.
                    format!("{:.2}", precisions[0]),
                    count.to_string(),
                ]);
            }
        }
        use std::fmt::Write as _;
        write!(out, "\nprecision@{k}:\n{}", table.render()).expect("string write");
    }
    out
}

/// Table 9 (App. E): the certain top-k variant of IchiBan.
pub fn table9(config: &HarnessConfig) -> String {
    let mut out = String::from("Table 9 — certain top-k (IchiBan without ε)\n");
    let mut table = TextTable::new(["Dataset", "k", "Success rate", "Mean", "p50", "p90", "Max"]);
    let attributor = config.engine_config(Algorithm::IchiBan).certain().attributor();
    for corpus in config.corpora() {
        for k in [1usize, 3, 5, 10] {
            let mut times = Vec::new();
            let mut successes = 0usize;
            let mut total = 0usize;
            for instance in &corpus.instances {
                if instance.lineage.num_vars() < k {
                    continue;
                }
                total += 1;
                let budget = Budget::with_timeout(config.timeout);
                let start = Instant::now();
                let result = attributor.top_k(&instance.lineage, k, &budget);
                let secs = start.elapsed().as_secs_f64();
                if result.is_ok() {
                    successes += 1;
                    times.push(secs);
                }
            }
            let summary = RuntimeSummary::of(times);
            table.push_row([
                corpus.name.clone(),
                format!("Top{k}"),
                percent(successes, total),
                crate::report::format_secs(summary.mean),
                crate::report::format_secs(summary.percentiles[0]),
                crate::report::format_secs(summary.percentiles[3]),
                crate::report::format_secs(summary.max),
            ]);
        }
    }
    out.push_str(&table.render());
    out
}

/// App. D: the Banzhaf-vs-Shapley ranking disagreement on the 18-fact example.
pub fn app_d() -> String {
    // Build the exact database of App. D: R(a1), R(a2); S has 3 tuples for a1
    // and 2 for a2; T has 3 tuples for a1 and 8 for a2. All facts endogenous.
    let mut db = Database::new();
    db.add_relation("R", 1);
    db.add_relation("S", 2);
    db.add_relation("T", 2);
    let a1 = 1i64;
    let a2 = 2i64;
    let r1 = db.insert_endogenous("R", vec![a1.into()]).unwrap();
    let r2 = db.insert_endogenous("R", vec![a2.into()]).unwrap();
    for b in 1..=3i64 {
        db.insert_endogenous("S", vec![a1.into(), b.into()]).unwrap();
    }
    for b in 1..=2i64 {
        db.insert_endogenous("S", vec![a2.into(), b.into()]).unwrap();
    }
    for b in 1..=3i64 {
        db.insert_endogenous("T", vec![a1.into(), b.into()]).unwrap();
    }
    for b in 1..=8i64 {
        db.insert_endogenous("T", vec![a2.into(), b.into()]).unwrap();
    }
    let query = parse_program("Q() :- R(X), S(X, Y), T(X, Z).").unwrap();
    // The engine computes both measures on one compiled d-tree; the per-size
    // critical-count breakdown is a core-level analysis the result type does
    // not carry, so it is recomputed from the lineage below.
    let engine = Engine::new(EngineConfig::new(Algorithm::ExaBan).with_shapley(true));
    let explained = engine.session().explain(&query, &db);
    let answer = &explained.answers[0];
    let lineage = &answer.lineage;
    let attribution = answer.attribution().expect("unbounded budget");
    let banzhaf = attribution.exact_values().expect("ExaBan is exact");
    let shapley = attribution.shapley.as_ref().expect("Shapley requested");
    let tree =
        DTree::compile_full(lineage.clone(), PivotHeuristic::MostFrequent, &Budget::unlimited())
            .expect("unbounded budget");
    let critical = critical_counts_all(&tree);

    let var_r1 = Var(r1.0);
    let var_r2 = Var(r2.0);
    let mut table = TextTable::new(["k", "#kC(R(a1))", "#kC(R(a2))"]);
    let n = lineage.num_vars();
    for k in 0..n {
        let c1 = critical[&var_r1].get(k).cloned().unwrap_or_default();
        let c2 = critical[&var_r2].get(k).cloned().unwrap_or_default();
        if c1.is_zero() && c2.is_zero() {
            continue;
        }
        table.push_row([k.to_string(), c1.to_string(), c2.to_string()]);
    }
    let mut out = String::from(
        "App. D — Banzhaf vs Shapley ranking on Q() :- R(X), S(X,Y), T(X,Z) (18 facts)\n",
    );
    out.push_str(&table.render());
    use std::fmt::Write as _;
    writeln!(
        out,
        "\nBanzhaf(R(a1)) = {}   Banzhaf(R(a2)) = {}",
        banzhaf[&var_r1], banzhaf[&var_r2]
    )
    .expect("string write");
    writeln!(
        out,
        "Shapley(R(a1)) = {:.4}   Shapley(R(a2)) = {:.4}",
        shapley[&var_r1].to_f64(),
        shapley[&var_r2].to_f64()
    )
    .expect("string write");
    let banzhaf_prefers_a1 = banzhaf[&var_r1] > banzhaf[&var_r2];
    let shapley_prefers_a1 = shapley[&var_r1] > shapley[&var_r2];
    writeln!(
        out,
        "Banzhaf ranks R(a1) {} R(a2); Shapley ranks R(a1) {} R(a2) — the rankings {}.",
        if banzhaf_prefers_a1 { "above" } else { "below" },
        if shapley_prefers_a1 { "above" } else { "below" },
        if banzhaf_prefers_a1 != shapley_prefers_a1 { "disagree" } else { "agree" }
    )
    .expect("string write");
    out
}

/// Ablation: Shannon pivot heuristic (most-frequent vs first-variable).
pub fn ablation_heuristic(config: &HarnessConfig) -> String {
    let mut table =
        TextTable::new(["Dataset", "Heuristic", "Success rate", "Mean time", "Mean expansions"]);
    for corpus in config.corpora() {
        for (name, heuristic) in [
            ("most-frequent", PivotHeuristic::MostFrequent),
            ("first-variable", PivotHeuristic::FirstVariable),
        ] {
            let attributor = {
                let mut engine_config = config.engine_config(Algorithm::ExaBan);
                engine_config.heuristic = heuristic;
                engine_config.attributor()
            };
            let mut times = Vec::new();
            let mut expansions = Vec::new();
            let mut successes = 0usize;
            for instance in &corpus.instances {
                let budget = Budget::with_timeout(config.timeout);
                let start = Instant::now();
                if let Ok(attribution) = attributor.attribute(&instance.lineage, &budget) {
                    successes += 1;
                    times.push(start.elapsed().as_secs_f64());
                    expansions.push(attribution.stats.compile_steps as f64);
                }
            }
            let mean_time =
                if times.is_empty() { 0.0 } else { times.iter().sum::<f64>() / times.len() as f64 };
            let mean_exp = if expansions.is_empty() {
                0.0
            } else {
                expansions.iter().sum::<f64>() / expansions.len() as f64
            };
            table.push_row([
                corpus.name.clone(),
                name.to_owned(),
                percent(successes, corpus.instances.len()),
                crate::report::format_secs(mean_time),
                format!("{mean_exp:.0}"),
            ]);
        }
    }
    format!("Ablation — Shannon pivot selection heuristic (full compilation)\n{}", table.render())
}

/// Ablation: AdaBan lazy vs eager bound recomputation, and optimization (4).
pub fn ablation_adaban(config: &HarnessConfig) -> String {
    let mut table = TextTable::new(["Dataset", "Variant", "Success rate", "Mean time"]);
    let variants: [(&str, bool, bool); 3] = [
        ("lazy + opt4 (default)", true, true),
        ("eager bounds", false, true),
        ("without opt4", true, false),
    ];
    for corpus in config.corpora() {
        for (name, lazy, use_opt4) in variants {
            let attributor = {
                let mut engine_config = config.engine_config(Algorithm::AdaBan);
                engine_config.lazy_bounds = lazy;
                engine_config.opt4 = use_opt4;
                engine_config.attributor()
            };
            let mut times = Vec::new();
            let mut successes = 0usize;
            for instance in &corpus.instances {
                let budget = Budget::with_timeout(config.timeout);
                let start = Instant::now();
                if attributor.attribute(&instance.lineage, &budget).is_ok() {
                    successes += 1;
                    times.push(start.elapsed().as_secs_f64());
                }
            }
            let mean =
                if times.is_empty() { 0.0 } else { times.iter().sum::<f64>() / times.len() as f64 };
            table.push_row([
                corpus.name.clone(),
                name.to_owned(),
                percent(successes, corpus.instances.len()),
                crate::report::format_secs(mean),
            ]);
        }
    }
    format!("Ablation — AdaBan optimizations (Sec. 3.2.4)\n{}", table.render())
}

/// Engine ablation: the effect of the session d-tree cache (keyed by
/// canonical lineage) on the total knowledge-compilation work per corpus,
/// and the wall time per instance of each layer: the raw backend call, an
/// uncached session and a cached one (interleaved, best of
/// [`crate::runner::CACHE_WALL_REPEATS`]). `closed_forms` counts the answers
/// ExaBan served without the cache (read-once lineages), and
/// `cached_over_uncached` is the cached session's wall over the uncached
/// one's: above 1, the cache costs more than it saves on a cold pass.
/// Returns the `BENCH_cache.json` record.
pub fn engine_cache(config: &HarnessConfig) -> (String, Json) {
    let mut table = TextTable::new([
        "Dataset",
        "Instances",
        "Closed forms",
        "Cache hits",
        "Steps (cached)",
        "Steps (uncached)",
        "Saved",
        "µs/inst (raw)",
        "µs/inst (uncached)",
        "µs/inst (cached)",
    ]);
    let mut records = Vec::new();
    for corpus in config.corpora() {
        let lineages: Vec<&Dnf> = corpus.instances.iter().map(|i| &i.lineage).collect();
        let cmp = compare_cache(&lineages, config);
        let us = |wall: Duration| wall.as_secs_f64() * 1e6 / lineages.len().max(1) as f64;
        let (raw, uncached, cached) =
            (us(cmp.raw_wall), us(cmp.uncached_wall), us(cmp.cached_wall));
        table.push_row([
            corpus.name.clone(),
            cmp.instances.to_string(),
            cmp.closed_forms.to_string(),
            cmp.cache_hits.to_string(),
            cmp.cached_steps.to_string(),
            cmp.uncached_steps.to_string(),
            percent(
                (cmp.uncached_steps - cmp.cached_steps.min(cmp.uncached_steps)) as usize,
                cmp.uncached_steps.max(1) as usize,
            ),
            format!("{raw:.1}"),
            format!("{uncached:.1}"),
            format!("{cached:.1}"),
        ]);
        records.push(Json::obj([
            ("name", corpus.name.as_str().into()),
            ("instances", cmp.instances.into()),
            ("closed_forms", cmp.closed_forms.into()),
            ("cache_hits", cmp.cache_hits.into()),
            ("cached_steps", cmp.cached_steps.into()),
            ("uncached_steps", cmp.uncached_steps.into()),
            ("raw_us", Json::fixed(raw, 3)),
            ("uncached_us", Json::fixed(uncached, 3)),
            ("cached_us", Json::fixed(cached, 3)),
            ("cached_over_uncached", Json::fixed(cached / uncached.max(f64::MIN_POSITIVE), 4)),
        ]));
    }
    let report = format!(
        "Engine — d-tree cache effect (ExaBan, canonical-lineage keying)\n{}",
        table.render()
    );
    let json = Json::obj([
        ("experiment", "engine_cache".into()),
        ("algorithm", "ExaBan".into()),
        ("corpora", records.into()),
    ]);
    (report, json)
}

/// A ring lineage over `vars` variables starting at `offset` — connected, no
/// common variable, so attribution needs real Shannon-expansion work.
fn ring_lineage(offset: u32, vars: u32) -> Dnf {
    Dnf::from_clauses(
        (0..vars).map(|i| vec![Var(offset + i), Var(offset + (i + 1) % vars)]).collect::<Vec<_>>(),
    )
}

/// Perf trajectory: wall-clock time of batch attribution per thread count.
///
/// Attributes one synthetic corpus of ring lineages (Shannon-expansion-hard,
/// so there is real per-instance compile work) through
/// [`banzhaf_engine::Session::attribute_batch`] at 1, 2 and 4 threads,
/// verifies the per-fact scores are bit-identical across thread counts, and
/// returns the measurements as the `BENCH_parallel.json` record, so the perf
/// trajectory is tracked across commits (the CI `bench-regression` job gates
/// on it).
///
/// Measurement hygiene: the whole batch runs once untimed to warm the page
/// cache and allocator, then [`SPEEDUP_REPEATS`] rounds time every thread
/// count once each, and each count is scored by the median over rounds of
/// the ratio `t1 / tk` within one round — per-instance cost is large enough
/// (rings of [`SPEEDUP_RING_VARS`] variables) to dwarf the fork-join
/// overhead that a too-small instance set previously let dominate. Speedup
/// remains hardware-dependent: on a single-core container the honest ratio
/// is ~1; the bit-identity column is the correctness signal everywhere.
pub fn parallel_speedup(config: &HarnessConfig) -> (String, Json) {
    let instances = SPEEDUP_INSTANCES * config.scale.max(1);
    // Distinct variable ranges per instance; the attribution cache is off, so
    // every instance costs one full compilation.
    let lineages: Vec<Dnf> = (0..instances)
        .map(|i| ring_lineage(i as u32 * (SPEEDUP_RING_VARS + 1), SPEEDUP_RING_VARS))
        .collect();
    let refs: Vec<&Dnf> = lineages.iter().collect();

    let batch_values = |threads: usize| -> (f64, Vec<HashMap<Var, banzhaf_arith::Natural>>) {
        let engine = Engine::new(
            EngineConfig::new(Algorithm::ExaBan)
                .with_cache_config(CacheConfig::disabled())
                .with_threads(threads),
        );
        let mut session = engine.session();
        let start = Instant::now();
        let results = session.attribute_batch(&refs, BatchOptions::default());
        let secs = start.elapsed().as_secs_f64();
        let values = results
            .into_iter()
            .map(|r| r.expect("unbounded budget").exact_values().expect("ExaBan is exact"))
            .collect();
        (secs, values)
    };

    // Warmup: one untimed full batch so the first measured run does not pay
    // for page faults and allocator growth.
    let (_, reference) = batch_values(1);

    // Rounds alternate their order — 1, 2, 4, then 4, 2, 1 — so no count
    // always runs first or last. A noisy neighbour slows the timings of one
    // round together, so the ratio within a round cancels most of it, and
    // the median over rounds ignores the rounds it still spoils.
    const THREAD_COUNTS: [usize; 3] = [1, 2, 4];
    let mut rounds = [[0.0f64; THREAD_COUNTS.len()]; SPEEDUP_REPEATS];
    let mut identical = [true; THREAD_COUNTS.len()];
    for (round, seconds) in rounds.iter_mut().enumerate() {
        for step in 0..THREAD_COUNTS.len() {
            let slot = if round % 2 == 0 { step } else { THREAD_COUNTS.len() - 1 - step };
            let (secs, values) = batch_values(THREAD_COUNTS[slot]);
            seconds[slot] = secs;
            identical[slot] &= values == reference;
        }
    }
    let median = |mut values: Vec<f64>| {
        values.sort_by(f64::total_cmp);
        values[values.len() / 2]
    };

    let mut table =
        TextTable::new(["Threads (effective)", "Wall (median)", "Speedup", "Bit-identical"]);
    let mut runs: Vec<Json> = Vec::new();
    for (slot, &threads) in THREAD_COUNTS.iter().enumerate() {
        // `ThreadPool::new` clamps to the machine's cores; report both the
        // requested and the effective worker count so a single-core run is
        // transparently a sequential re-measurement, not a fake speedup.
        let effective = banzhaf_par::ThreadPool::new(threads).threads();
        let seconds = median(rounds.iter().map(|round| round[slot]).collect());
        let speedup = median(rounds.iter().map(|round| round[0] / round[slot]).collect());
        table.push_row([
            format!("{threads} ({effective})"),
            crate::report::format_secs(seconds),
            format!("{speedup:.2}x"),
            identical[slot].to_string(),
        ]);
        runs.push(Json::obj([
            ("threads", threads.into()),
            ("effective_threads", effective.into()),
            ("seconds", Json::fixed(seconds, 6)),
            ("speedup", Json::fixed(speedup, 3)),
        ]));
    }

    let json = Json::obj([
        ("experiment", "parallel_speedup".into()),
        ("algorithm", "ExaBan".into()),
        ("instances", instances.into()),
        ("ring_vars", SPEEDUP_RING_VARS.into()),
        ("repeats", SPEEDUP_REPEATS.into()),
        ("bit_identical", identical.iter().all(|&ok| ok).into()),
        ("runs", runs.into()),
    ]);
    let report = format!(
        "Perf — batch attribution speedup by thread count ({instances} ring lineages, \
         {SPEEDUP_RING_VARS} vars each, median of {SPEEDUP_REPEATS} rounds)\n{}",
        table.render()
    );
    (report, json)
}

/// Ring size of the speedup experiment's instances: large enough that one
/// instance costs milliseconds of compile work, so fork-join overhead is
/// noise rather than the signal.
pub const SPEEDUP_RING_VARS: u32 = 30;
/// Instances per scale unit in the speedup experiment.
pub const SPEEDUP_INSTANCES: usize = 16;
/// Timed rounds, each timing every thread count once (the median ratio over
/// rounds is scored; odd, so the median is one round's).
pub const SPEEDUP_REPEATS: usize = 9;

/// Serving throughput: the async front end under a concurrent request mix.
///
/// Builds a workload of repeated isomorphic lineage shapes (distinct variable
/// ids per request, so only canonicalization makes them equal), drives it
/// through an [`banzhaf_serve::AttributionService`] — bounded queue, worker
/// sessions over the engine's shared cross-session cache — and compares
/// against a cold sequential session with the cache disabled:
///
/// * `bit_identical`: every served attribution equals the cold run's.
/// * `serve_rps` vs `sequential_rps`: requests per second with and without
///   the serving layer; the cache makes the served run do strictly less
///   compile work on repeated shapes.
/// * `cache_hits` + `cache_insertions` = `requests`: every request is a hit
///   or a miss that compiles and inserts, and nothing is evicted. The split
///   between the two depends on scheduling: when both workers miss the same
///   cold shape at once, both compile and insert it (28/4 in most runs,
///   27/5 in some). Only the sum is deterministic.
///
/// Returns the `BENCH_serve.json` record for the CI `bench-regression` gate,
/// which tracks the machine-normalized ratio (`speedup_vs_cold`) rather than
/// the raw rps.
pub fn serve_throughput(config: &HarnessConfig) -> (String, Json) {
    use banzhaf_serve::{block_on, join_all, AttributionService, RequestOptions, ServeConfig};

    const SHAPE_SIZES: [u32; 4] = [16, 18, 20, 22];
    let reps = 8 * config.scale.max(1);
    // Round-robin the shapes so repeats of one shape are interleaved, the
    // way real repeated queries arrive; every request gets fresh var ids.
    let mut lineages: Vec<Dnf> = Vec::with_capacity(SHAPE_SIZES.len() * reps);
    let mut offset = 0u32;
    for rep in 0..reps {
        for s in 0..SHAPE_SIZES.len() {
            // Rotate the shape order per repetition: still the same four
            // shapes overall, different arrival order each round.
            let vars = SHAPE_SIZES[(s + rep) % SHAPE_SIZES.len()];
            lineages.push(ring_lineage(offset, vars));
            offset += vars + 1;
        }
    }
    let requests = lineages.len();

    // Cold reference: a fresh cache-less sequential session per run.
    let cold_engine = Engine::new(
        EngineConfig::new(Algorithm::ExaBan)
            .with_cache_config(CacheConfig::disabled())
            .with_threads(1),
    );
    let mut cold_session = cold_engine.session();
    let cold_start = Instant::now();
    let cold: Vec<HashMap<Var, banzhaf_arith::Natural>> = lineages
        .iter()
        .map(|l| {
            cold_session
                .attribute(l)
                .expect("unbounded budget")
                .exact_values()
                .expect("ExaBan is exact")
        })
        .collect();
    let sequential_seconds = cold_start.elapsed().as_secs_f64();

    // Served run: all requests in flight at once, workers sharing one cache.
    let workers = config.threads.max(2);
    let service = AttributionService::start(
        ServeConfig::new(EngineConfig::new(Algorithm::ExaBan))
            .with_workers(workers)
            .with_queue_capacity(requests),
    );
    let serve_start = Instant::now();
    let tickets: Vec<_> = lineages
        .iter()
        .map(|l| {
            service
                .submit(l.clone(), RequestOptions::default())
                .expect("queue sized to the workload")
        })
        .collect();
    let outcomes = block_on(join_all(tickets));
    let serve_seconds = serve_start.elapsed().as_secs_f64();
    let served: Vec<HashMap<Var, banzhaf_arith::Natural>> = outcomes
        .into_iter()
        .map(|o| o.expect("unbounded budgets").exact_values().expect("ExaBan is exact"))
        .collect();

    let bit_identical = served == cold;
    let cache = service.engine_stats().cache;
    let stats = service.stats();
    let serve_rps = requests as f64 / serve_seconds;
    let sequential_rps = requests as f64 / sequential_seconds;
    let speedup_vs_cold = sequential_seconds / serve_seconds;

    let mut table = TextTable::new(["Path", "Wall", "Requests/s", "Cache hits", "Bit-identical"]);
    table.push_row([
        "cold sequential (no cache)".to_owned(),
        crate::report::format_secs(sequential_seconds),
        format!("{sequential_rps:.1}"),
        "0".to_owned(),
        "reference".to_owned(),
    ]);
    table.push_row([
        format!("served ({workers} workers, shared cache)"),
        crate::report::format_secs(serve_seconds),
        format!("{serve_rps:.1}"),
        cache.hits.to_string(),
        bit_identical.to_string(),
    ]);

    let json = Json::obj([
        ("experiment", "serve_throughput".into()),
        ("algorithm", "ExaBan".into()),
        ("requests", requests.into()),
        ("workers", workers.into()),
        ("serve_seconds", Json::fixed(serve_seconds, 6)),
        ("serve_rps", Json::fixed(serve_rps, 3)),
        ("sequential_seconds", Json::fixed(sequential_seconds, 6)),
        ("sequential_rps", Json::fixed(sequential_rps, 3)),
        ("speedup_vs_cold", Json::fixed(speedup_vs_cold, 3)),
        ("cache_hits", cache.hits.into()),
        ("cache_insertions", cache.insertions.into()),
        ("cache_evictions", cache.evictions.into()),
        ("completed", stats.completed.into()),
        ("rejected", stats.rejected.into()),
        ("bit_identical", bit_identical.into()),
    ]);
    let report = format!(
        "Serve — async front-end throughput ({requests} requests over {} ring shapes)\n{}",
        SHAPE_SIZES.len(),
        table.render()
    );
    (report, json)
}

/// Replicates the engine's *previous* cache keying — rename variables by
/// first occurrence across the label-sorted clause list, then sort the
/// renamed clauses — so `canon_hit_rate` can report the hit rate that scheme
/// would have scored on the same request stream. Kept in the bench layer
/// only: the engine now keys by the refinement-based canonical form.
fn first_occurrence_key(lineage: &Dnf) -> (usize, Vec<Vec<u32>>) {
    let mut ids: HashMap<Var, u32> = HashMap::with_capacity(lineage.num_vars());
    let mut rename = |v: Var| -> u32 {
        let next = ids.len() as u32;
        *ids.entry(v).or_insert(next)
    };
    let mut clauses: Vec<Vec<u32>> =
        lineage.clauses().iter().map(|c| c.iter().map(&mut rename).collect()).collect();
    for v in lineage.universe().iter() {
        rename(v);
    }
    for c in &mut clauses {
        c.sort_unstable();
    }
    clauses.sort_unstable();
    (ids.len(), clauses)
}

/// A random isomorph of `phi`: every variable mapped through a random
/// bijection onto a shuffled, strided, offset id block, and the clause order
/// scrambled (the `Dnf` constructor re-sorts, but the sort order depends on
/// the new labels — the exact sensitivity that defeated first-occurrence
/// keying).
fn random_isomorph(phi: &Dnf, seed: u64) -> Dnf {
    use rand::{rngs::StdRng, Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(seed);
    let originals: Vec<Var> = phi.universe().iter().collect();
    let mut targets: Vec<u32> = (0..originals.len() as u32).collect();
    for i in (1..targets.len()).rev() {
        let j = rng.gen_range(0..=i);
        targets.swap(i, j);
    }
    let offset: u32 = rng.gen_range(0..64);
    let stride: u32 = rng.gen_range(1..4);
    let map: HashMap<Var, Var> =
        originals.iter().zip(&targets).map(|(&v, &t)| (v, Var(offset + t * stride))).collect();
    let mut clauses: Vec<Vec<Var>> =
        phi.clauses().iter().map(|c| c.iter().map(|v| map[&v]).collect()).collect();
    for i in (1..clauses.len()).rev() {
        let j = rng.gen_range(0..=i);
        clauses.swap(i, j);
    }
    Dnf::from_clauses(clauses)
}

/// The `canon_hit_rate` request stream: `reps` random isomorphs of each of a
/// handful of label-sensitive base shapes (ring, path, cross product, double
/// star, clique — shapes whose label order the replaced keying was
/// sensitive to), round-robined the way repeated queries arrive. Every shape
/// needs a Shannon step, so no request is answered in closed form and each
/// one reaches the cache. Returns the shape count and the stream;
/// everything is seeded, so the stream — and therefore the gated hit
/// rates — is deterministic.
fn canon_request_stream(config: &HarnessConfig) -> (usize, Vec<Dnf>) {
    let base_shapes: Vec<(&str, Dnf)> = vec![
        ("ring10", ring_lineage(0, 10)),
        (
            "path12",
            Dnf::from_clauses((0..11u32).map(|i| vec![Var(i), Var(i + 1)]).collect::<Vec<_>>()),
        ),
        (
            "product2x4",
            Dnf::from_clauses(
                (0..2u32)
                    .flat_map(|x| (2..6u32).map(move |y| vec![Var(x), Var(y)]))
                    .collect::<Vec<_>>(),
            ),
        ),
        (
            "doublestar8",
            Dnf::from_clauses(vec![
                vec![Var(0), Var(1)],
                vec![Var(0), Var(2)],
                vec![Var(0), Var(3)],
                vec![Var(3), Var(4)],
                vec![Var(3), Var(5)],
                vec![Var(3), Var(6)],
            ]),
        ),
        (
            "clique4",
            Dnf::from_clauses(vec![
                vec![Var(0), Var(1)],
                vec![Var(0), Var(2)],
                vec![Var(0), Var(3)],
                vec![Var(1), Var(2)],
                vec![Var(1), Var(3)],
                vec![Var(2), Var(3)],
            ]),
        ),
    ];
    let reps = 6 * config.scale.max(1);
    let mut lineages: Vec<Dnf> = Vec::with_capacity(base_shapes.len() * reps);
    for rep in 0..reps {
        for (shape_index, (_, shape)) in base_shapes.iter().enumerate() {
            let seed = config
                .seed
                .wrapping_add(0xCA_0000)
                .wrapping_add((rep * base_shapes.len() + shape_index) as u64);
            lineages.push(random_isomorph(shape, seed));
        }
    }
    (base_shapes.len(), lineages)
}

/// Attributes every lineage of the stream through `session` and returns the
/// per-fact exact values, the unit of the bit-identity comparisons.
fn exact_value_stream(
    session: &mut banzhaf_engine::Session,
    lineages: &[Dnf],
) -> Vec<HashMap<Var, banzhaf_arith::Natural>> {
    lineages
        .iter()
        .map(|l| {
            session.attribute(l).expect("unbounded budget").exact_values().expect("ExaBan is exact")
        })
        .collect()
}

/// Canonicalization payoff: shared-cache hit rate on a permuted/renamed
/// request stream, against the first-occurrence keying it replaced.
///
/// Replays the `canon_request_stream` (fresh variable bijection and clause
/// permutation per request) three ways:
///
/// * a **cold** cache-less sequential session — the bit-identity reference;
/// * a cached **engine** session — its `CacheStats` yield `canon_hit_rate`,
///   the canonicalization cost (`canon_steps`) and the compile steps the
///   hits saved;
/// * an **`AttributionService`** with concurrent workers — the end-to-end
///   serving path over the same shared cache.
///
/// The report contrasts `canon_hit_rate` with the rate the old
/// first-occurrence keying would have scored on the identical stream
/// (`naive_hit_rate`, replayed via `first_occurrence_key`); the gap is the
/// payoff of canonical keying. Returns the `BENCH_canon.json` record; the
/// tier-1 test of this experiment requires `bit_identical`, a strictly
/// higher canonical hit rate than the naive one, 25 hits of 30 and a
/// ceiling on the keying steps.
#[allow(clippy::too_many_lines)]
pub fn canon_hit_rate(config: &HarnessConfig) -> (String, Json) {
    use banzhaf_serve::{block_on, join_all, AttributionService, RequestOptions, ServeConfig};

    let (shapes, lineages) = canon_request_stream(config);
    let requests = lineages.len();
    let reps = requests / shapes;

    // What the replaced first-occurrence keying would have scored on the
    // exact same stream.
    let mut seen_naive: std::collections::HashSet<(usize, Vec<Vec<u32>>)> =
        std::collections::HashSet::new();
    let naive_hits =
        lineages.iter().filter(|l| !seen_naive.insert(first_occurrence_key(l))).count();
    let naive_hit_rate = naive_hits as f64 / requests as f64;

    // Cold reference: cache-less sequential session.
    let cold_engine = Engine::new(
        EngineConfig::new(Algorithm::ExaBan)
            .with_cache_config(CacheConfig::disabled())
            .with_threads(1),
    );
    let mut cold_session = cold_engine.session();
    let cold = exact_value_stream(&mut cold_session, &lineages);
    let cold_compile_steps = cold_session.stats().compile_steps;

    // Cached engine session over the same stream.
    let engine = Engine::new(EngineConfig::new(Algorithm::ExaBan).with_threads(1));
    let mut session = engine.session();
    let cached = exact_value_stream(&mut session, &lineages);
    let canon_hits = engine.stats().cache.hits;
    let canon_hit_rate = canon_hits as f64 / requests as f64;
    let cached_compile_steps = session.stats().compile_steps;
    let canon_steps = session.stats().canon_steps;
    let canon_searches = session.stats().canon_searches;
    let prekey_skips = session.stats().prekey_skips;

    // End-to-end: the serving layer over one shared cache.
    let workers = config.threads.max(2);
    let service = AttributionService::start(
        ServeConfig::new(EngineConfig::new(Algorithm::ExaBan))
            .with_workers(workers)
            .with_queue_capacity(requests),
    );
    let tickets: Vec<_> = lineages
        .iter()
        .map(|l| {
            service
                .submit(l.clone(), RequestOptions::default())
                .expect("queue sized to the workload")
        })
        .collect();
    let served: Vec<HashMap<Var, banzhaf_arith::Natural>> = block_on(join_all(tickets))
        .into_iter()
        .map(|o| o.expect("unbounded budgets").exact_values().expect("ExaBan is exact"))
        .collect();
    let serve_stats = service.engine_stats().cache;

    let bit_identical = cached == cold && served == cold;

    let mut table = TextTable::new([
        "Keying / path",
        "Hits",
        "Hit rate",
        "Compile steps",
        "Canon steps",
        "Searches",
        "Prekey skips",
    ]);
    table.push_row([
        "first-occurrence (replaced)".to_owned(),
        naive_hits.to_string(),
        format!("{:.1}%", naive_hit_rate * 100.0),
        "—".to_owned(),
        "0".to_owned(),
        "—".to_owned(),
        "—".to_owned(),
    ]);
    table.push_row([
        "fingerprint+canonical, engine session".to_owned(),
        canon_hits.to_string(),
        format!("{:.1}%", canon_hit_rate * 100.0),
        cached_compile_steps.to_string(),
        canon_steps.to_string(),
        canon_searches.to_string(),
        prekey_skips.to_string(),
    ]);
    table.push_row([
        format!("fingerprint+canonical, served ({workers} workers)"),
        serve_stats.hits.to_string(),
        format!("{:.1}%", serve_stats.hit_rate() * 100.0),
        "—".to_owned(),
        serve_stats.canon_steps.to_string(),
        serve_stats.canon_searches.to_string(),
        serve_stats.prekey_skips.to_string(),
    ]);
    table.push_row([
        "cold (no cache, reference)".to_owned(),
        "0".to_owned(),
        "0.0%".to_owned(),
        cold_compile_steps.to_string(),
        "—".to_owned(),
        "—".to_owned(),
        "—".to_owned(),
    ]);

    let json = Json::obj([
        ("experiment", "canon_hit_rate".into()),
        ("algorithm", "ExaBan".into()),
        ("requests", requests.into()),
        ("shapes", shapes.into()),
        ("reps", reps.into()),
        ("canon_hits", canon_hits.into()),
        ("canon_hit_rate", Json::fixed(canon_hit_rate, 4)),
        ("naive_hits", naive_hits.into()),
        ("naive_hit_rate", Json::fixed(naive_hit_rate, 4)),
        ("canon_steps", canon_steps.into()),
        ("canon_searches", canon_searches.into()),
        ("prekey_skips", prekey_skips.into()),
        ("cached_compile_steps", cached_compile_steps.into()),
        ("cold_compile_steps", cold_compile_steps.into()),
        ("serve_hits", serve_stats.hits.into()),
        ("serve_workers", workers.into()),
        ("bit_identical", bit_identical.into()),
    ]);
    let report = format!(
        "Canon — shared-cache hit rate on a permuted/renamed request stream \
         ({requests} requests over {shapes} shapes)\n{}",
        table.render()
    );
    (report, json)
}

/// One corpus family's run of the seeded update stream ([`update_stream`]).
struct FamilyOutcome {
    name: String,
    updates: u64,
    touched: u64,
    untouched: u64,
    incremental_steps: u64,
    cold_steps: u64,
    cache_hits: u64,
    bit_identical: bool,
}

/// The fraction of `cold` compile steps that `incremental` saved (0 when
/// the cold path compiled nothing).
fn steps_saved(incremental: u64, cold: u64) -> f64 {
    if cold == 0 {
        0.0
    } else {
        1.0 - incremental as f64 / cold as f64
    }
}

/// The per-family runs of [`update_stream`]'s seeded stream: bit-identity
/// against the cold re-evaluation after every step, and the compile steps
/// of both paths.
fn update_families(config: &HarnessConfig) -> Vec<FamilyOutcome> {
    use banzhaf_db::Update;
    use banzhaf_workloads::{academic_workload, imdb_workload, LiveWorkload};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    let spec = config.dataset_spec();
    let updates_per_family = 8 * config.scale.max(1) as u64;
    let builders: [fn(&banzhaf_workloads::DatasetSpec) -> LiveWorkload; 2] =
        [academic_workload, imdb_workload];

    let mut families: Vec<FamilyOutcome> = Vec::new();
    for build in builders {
        let workload = build(&spec);
        // Incremental path: a live session with the shared cache on. The
        // engine's bit-identity guarantee is exact for unlimited budgets at
        // any thread count, so `config.threads` is honoured.
        let engine = Engine::new(EngineConfig::new(Algorithm::ExaBan).with_threads(config.threads));
        let mut live = engine.live_session(workload.db.clone());
        for (name, query) in &workload.queries {
            live.register(name.clone(), query.clone());
        }
        // Cold reference: a fresh cache-less sequential session re-evaluates
        // and re-attributes every registered query from scratch after each
        // step — the "no delta path" cost the paper's interactive workloads
        // would otherwise pay.
        let cold_engine = Engine::new(
            EngineConfig::new(Algorithm::ExaBan)
                .with_cache_config(CacheConfig::disabled())
                .with_threads(1),
        );

        let mut rng = StdRng::seed_from_u64(config.seed ^ 0x5EED_CAFE);
        let mut outcome = FamilyOutcome {
            name: workload.name.clone(),
            updates: 0,
            touched: 0,
            untouched: 0,
            incremental_steps: 0,
            cold_steps: 0,
            cache_hits: 0,
            bit_identical: true,
        };
        // Alternate deletes and re-inserts of facts from the mutable
        // relations: deletions exercise the condition-and-restrict path,
        // re-insertions the pinned delta join (the re-inserted fact gets a
        // fresh id, so its lineage variable differs from the deleted one).
        let mut deleted: Vec<(String, Vec<banzhaf_db::Value>)> = Vec::new();
        for step in 0..updates_per_family {
            let update = if step % 2 == 0 {
                let candidates: Vec<(String, Vec<banzhaf_db::Value>)> = live
                    .db()
                    .endogenous_facts()
                    .filter(|(_, f)| workload.mutable_relations.iter().any(|r| r == f.relation()))
                    .map(|(_, f)| (f.relation().to_owned(), f.values().to_vec()))
                    .collect();
                let (relation, values) = candidates[rng.gen_range(0..candidates.len())].clone();
                deleted.push((relation.clone(), values.clone()));
                Update::delete(relation, values)
            } else {
                let (relation, values) = deleted.pop().expect("a delete precedes every insert");
                Update::insert(relation, values)
            };
            let report = live.apply_update(update).expect("stream updates address live facts");
            outcome.updates += 1;
            outcome.touched += report.touched.len() as u64;
            outcome.untouched += report.untouched;
            outcome.incremental_steps += report.compile_steps;
            outcome.cache_hits += report.cache_hits;

            // Cold re-evaluation of every registered query over the updated
            // database; any divergence in answers, exact Banzhaf values or
            // model counts flips the experiment's bit-identity flag.
            let mut cold_session = cold_engine.session();
            for (name, query) in &workload.queries {
                let cold = cold_session.explain(query, live.db());
                let snapshot = live.attribution(name).expect("query is registered");
                outcome.cold_steps += cold
                    .answers
                    .iter()
                    .filter_map(|a| a.attribution())
                    .map(|a| a.stats.compile_steps)
                    .sum::<u64>();
                let matches = snapshot.answers.len() == cold.answers.len()
                    && snapshot.answers.iter().zip(cold.answers.iter()).all(|(inc, ref_)| {
                        let inc_att = inc.attribution().expect("unbounded budget");
                        let ref_att = ref_.attribution().expect("unbounded budget");
                        inc.tuple == ref_.tuple
                            && inc_att.exact_values() == ref_att.exact_values()
                            && inc_att.model_count == ref_att.model_count
                    });
                if !matches {
                    outcome.bit_identical = false;
                }
            }
        }
        families.push(outcome);
    }
    families
}

/// The live-update repro experiment: drives a seeded insert/delete stream
/// against the mutating Academic- and IMDB-like databases through a
/// [`banzhaf_engine::LiveSession`], checks the maintained attributions
/// against a cold re-evaluation after *every* step, and scores the compile
/// steps the delta path avoided. Returns the `BENCH_update.json` record.
pub fn update_stream(config: &HarnessConfig) -> (String, Json) {
    let families = update_families(config);
    let total_inc: u64 = families.iter().map(|f| f.incremental_steps).sum();
    let total_cold: u64 = families.iter().map(|f| f.cold_steps).sum();
    let total_updates: u64 = families.iter().map(|f| f.updates).sum();
    let bit_identical = families.iter().all(|f| f.bit_identical);
    let steps_saved_ratio = steps_saved(total_inc, total_cold);

    let mut table = TextTable::new([
        "Corpus",
        "Updates",
        "Touched",
        "Untouched",
        "Incr. steps",
        "Cold steps",
        "Saved",
        "Bit-identical",
    ]);
    let mut family_json: Vec<Json> = Vec::new();
    for f in &families {
        let saved = steps_saved(f.incremental_steps, f.cold_steps);
        table.push_row([
            f.name.clone(),
            f.updates.to_string(),
            f.touched.to_string(),
            f.untouched.to_string(),
            f.incremental_steps.to_string(),
            f.cold_steps.to_string(),
            format!("{:.1}%", saved * 100.0),
            f.bit_identical.to_string(),
        ]);
        family_json.push(Json::obj([
            ("name", f.name.as_str().into()),
            ("updates", f.updates.into()),
            ("touched", f.touched.into()),
            ("untouched", f.untouched.into()),
            ("incremental_steps", f.incremental_steps.into()),
            ("cold_steps", f.cold_steps.into()),
            ("cache_hits", f.cache_hits.into()),
            ("steps_saved_ratio", Json::fixed(saved, 6)),
            ("bit_identical", f.bit_identical.into()),
        ]));
    }

    let json = Json::obj([
        ("experiment", "update_stream".into()),
        ("algorithm", "ExaBan".into()),
        ("updates", total_updates.into()),
        ("incremental_steps", total_inc.into()),
        ("cold_steps", total_cold.into()),
        ("steps_saved_ratio", Json::fixed(steps_saved_ratio, 6)),
        ("bit_identical", bit_identical.into()),
        ("families", family_json.into()),
    ]);
    let report = format!(
        "Live updates — incremental attribution vs cold re-evaluation \
         ({total_updates} updates, verified bit-for-bit after every step)\n{}",
        table.render()
    );
    (report, json)
}

/// Ring sizes of the degradation experiment's request mix: one size that
/// compiles comfortably under [`DEGRADE_STEP_CAP`], three that cannot.
pub const DEGRADE_SIZES: [u32; 4] = [6, 20, 24, 28];
/// Per-request step cap of the degradation experiment. Size-6 requests fit
/// whether they compile cold (11 steps) or key into the shared cache (~600
/// canonicalization steps); every larger request starves on *both* paths — a
/// cold size-20 compile alone costs 827 steps, its canonical key 4100 — so
/// which requests starve does not depend on how workers race the cache.
pub const DEGRADE_STEP_CAP: u64 = 700;

/// Robustness — availability under budget pressure, with and without the
/// degradation ladder.
///
/// Drives the same request stream (ring lineages of [`DEGRADE_SIZES`], fresh
/// variable ids per request, [`DEGRADE_STEP_CAP`] steps per request) through
/// the serving stack twice:
///
/// * **strict** (the default [`banzhaf_engine::FallbackPolicy::Strict`]):
///   requests whose compile exhausts the cap fail typed (`Interrupted`) —
///   the availability is the fraction of the stream small enough to finish;
/// * **ladder** ([`banzhaf_engine::FallbackPolicy::Ladder`], ExaBan →
///   AdaBan interval → Monte Carlo estimate): starved requests re-attribute
///   on the next rung instead of failing. The AdaBan rung is capped at 1000
///   steps and both rungs get a 60 s grace no run comes near, so steps, not
///   the wall clock, decide which rung answers: the experiment is
///   step-capped and deterministic.
///
/// Every answer is checked against an unbounded exact reference: strict
/// completions (and undegraded ladder completions) must match bit for bit,
/// interval-rung answers must bracket the exact value, estimate-rung answers
/// must be finite. Returns the `BENCH_degrade.json` record — availability
/// per policy, degraded share, per-rung answer histogram; the tier-1 test of
/// this experiment holds the ladder to an availability of 1.0 at a pressure
/// where strict loses at least half the stream.
#[allow(clippy::too_many_lines)]
pub fn degrade_under_pressure(config: &HarnessConfig) -> (String, Json) {
    use banzhaf_engine::{FallbackPolicy, Rung, Score};
    use banzhaf_serve::{block_on, join_all, AttributionService, RequestOptions, ServeConfig};
    use std::collections::BTreeMap;

    let reps = 3 * config.scale.max(1);

    // Exact references, one per distinct size. Requests are the same shapes
    // shifted to fresh variable ids, so positional mapping (request var
    // `offset + j` ↔ reference var `j`) recovers the comparison.
    let reference: HashMap<u32, HashMap<Var, banzhaf_arith::Natural>> = DEGRADE_SIZES
        .iter()
        .map(|&vars| {
            let exact = Engine::new(
                EngineConfig::new(Algorithm::ExaBan).with_cache_config(CacheConfig::disabled()),
            )
            .session()
            .attribute(&ring_lineage(0, vars))
            .expect("unbounded budget")
            .exact_values()
            .expect("ExaBan is exact");
            (vars, exact)
        })
        .collect();

    let mut lineages: Vec<(u32, u32, Dnf)> = Vec::new();
    let mut offset = 0u32;
    for _ in 0..reps {
        for &vars in &DEGRADE_SIZES {
            lineages.push((vars, offset, ring_lineage(offset, vars)));
            offset += vars + 1;
        }
    }
    let submitted = lineages.len();

    let run_pass = |fallback: Option<&FallbackPolicy>| {
        let service = AttributionService::start(
            ServeConfig::new(EngineConfig::new(Algorithm::ExaBan))
                .with_workers(config.threads.max(2))
                .with_queue_capacity(submitted),
        );
        let tickets: Vec<_> = lineages
            .iter()
            .map(|(_, _, l)| {
                let mut options = RequestOptions::new().with_max_steps(DEGRADE_STEP_CAP);
                if let Some(policy) = fallback {
                    options = options.with_fallback(policy.clone());
                }
                service.submit(l.clone(), options).expect("queue sized to the workload")
            })
            .collect();
        block_on(join_all(tickets))
    };
    let strict = run_pass(None);
    // The stock ladder's 50 ms grace is sized for interactive requests,
    // where falling through to a cheap estimate beats waiting. Here the
    // point is to exercise both rungs the same way on every machine, so a
    // step cap decides where AdaBan gives up (the mid-size rings converge
    // within 1000 steps, the largest fall through to Monte Carlo) and the
    // grace never binds.
    let grace = Duration::from_secs(60);
    let policy = FallbackPolicy::Ladder(vec![
        Rung::new(Algorithm::AdaBan).with_max_steps(1000).with_grace(grace),
        Rung::new(Algorithm::MonteCarlo).with_grace(grace),
    ]);
    let ladder = run_pass(Some(&policy));

    // Score every answered request against its exact reference. Exact
    // answers (strict completions, undegraded ladder completions) must match
    // bit for bit; degraded answers must bracket (interval) or at least be a
    // finite non-negative estimate.
    let mut exact_bit_identical = true;
    let mut degraded_sound = true;
    let mut degraded = 0usize;
    let mut rung_histogram: BTreeMap<String, u64> = BTreeMap::new();
    for outcomes in [&strict, &ladder] {
        for ((vars, offset, _), outcome) in lineages.iter().zip(outcomes.iter()) {
            let Ok(att) = outcome else { continue };
            let exact = &reference[vars];
            let is_degraded = att.degradation.is_some();
            for j in 0..*vars {
                let want = &exact[&Var(j)];
                match att.value(Var(offset + j)).expect("the universe covers the ring") {
                    Score::Exact(got) => exact_bit_identical &= got == want,
                    Score::Interval(i) => {
                        degraded_sound &= is_degraded && i.lower <= *want && *want <= i.upper;
                    }
                    Score::Estimate(e) => {
                        degraded_sound &= is_degraded && e.is_finite() && *e >= 0.0;
                    }
                    Score::Rational(_) => {
                        // Boolean workloads never produce aggregate scores.
                        exact_bit_identical = false;
                    }
                }
            }
        }
    }
    for att in ladder.iter().flatten() {
        if let Some(d) = &att.degradation {
            degraded += 1;
            *rung_histogram.entry(format!("{:?}", d.rung)).or_insert(0) += 1;
        }
    }

    let strict_answered = strict.iter().filter(|o| o.is_ok()).count();
    let ladder_answered = ladder.iter().filter(|o| o.is_ok()).count();
    let strict_availability = strict_answered as f64 / submitted as f64;
    let ladder_availability = ladder_answered as f64 / submitted as f64;
    let degraded_share = degraded as f64 / submitted as f64;
    let histogram_text = if rung_histogram.is_empty() {
        "none".to_owned()
    } else {
        rung_histogram.iter().map(|(rung, n)| format!("{rung}: {n}")).collect::<Vec<_>>().join(", ")
    };

    let mut table =
        TextTable::new(["Policy", "Answered", "Availability", "Degraded", "Rungs used"]);
    table.push_row([
        "strict (exact or nothing)".to_owned(),
        format!("{strict_answered}/{submitted}"),
        percent(strict_answered, submitted),
        "0".to_owned(),
        "-".to_owned(),
    ]);
    table.push_row([
        "ladder (exact -> interval -> estimate)".to_owned(),
        format!("{ladder_answered}/{submitted}"),
        percent(ladder_answered, submitted),
        degraded.to_string(),
        histogram_text.clone(),
    ]);

    let rungs: Vec<Json> = rung_histogram
        .iter()
        .map(|(rung, &n)| Json::obj([("rung", rung.as_str().into()), ("answers", n.into())]))
        .collect();
    let json = Json::obj([
        ("experiment", "degrade_under_pressure".into()),
        ("ladder", "ExaBan -> AdaBan -> MonteCarlo".into()),
        ("submitted", submitted.into()),
        ("step_cap", DEGRADE_STEP_CAP.into()),
        ("strict_answered", strict_answered.into()),
        ("strict_availability", Json::fixed(strict_availability, 6)),
        ("ladder_answered", ladder_answered.into()),
        ("ladder_availability", Json::fixed(ladder_availability, 6)),
        ("degraded", degraded.into()),
        ("degraded_share", Json::fixed(degraded_share, 6)),
        ("exact_bit_identical", exact_bit_identical.into()),
        ("degraded_sound", degraded_sound.into()),
        ("rungs", rungs.into()),
    ]);
    let report = format!(
        "Robustness — availability under a {DEGRADE_STEP_CAP}-step budget, strict vs \
         degradation ladder ({submitted} requests)\n{}",
        table.render()
    );
    (report, json)
}

/// Warm-start payoff: cold-run a permuted/renamed request stream, snapshot
/// the cache, replay the stream in a **fresh** engine warm-started from the
/// snapshot, and score the compile steps and wall clock the snapshot saved.
///
/// Two runs over the identical `canon_request_stream`:
///
/// * a **cold** engine — compiles every distinct shape once; its cache is
///   then written to disk via `Engine::save_cache`;
/// * a **warm-started** fresh engine (`CacheConfig::warm_start`) — every
///   shape in the stream must be served from the loaded snapshot, values
///   transferring through the persisted canonical witnesses.
///
/// Both value streams must be bit-identical. Returns the
/// `BENCH_persist.json` record; the tier-1 test of this experiment requires
/// `bit_identical`, nonzero savings, no rejected snapshot and a steps-saved
/// floor.
#[allow(clippy::too_many_lines)]
pub fn warm_start(config: &HarnessConfig) -> (String, Json) {
    let (shapes, lineages) = canon_request_stream(config);
    let requests = lineages.len();
    // Runs in one process (parallel tests) each get a snapshot of their own.
    static RUNS: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let run = RUNS.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let snapshot_path = std::env::temp_dir().join(format!(
        "banzhaf-warm-start-{}-{:x}-{run}.bzc",
        std::process::id(),
        config.seed
    ));

    // Cold run: a fresh engine compiles the stream, then snapshots.
    let cold_wall = Instant::now();
    let cold_engine = Engine::new(EngineConfig::new(Algorithm::ExaBan).with_threads(1));
    let mut cold_session = cold_engine.session();
    let cold = exact_value_stream(&mut cold_session, &lineages);
    let cold_wall = cold_wall.elapsed();
    let cold_compile_steps = cold_session.stats().compile_steps;
    let snapshot_entries =
        cold_engine.save_cache(&snapshot_path).expect("snapshot written to the temp dir");
    let snapshot_bytes = std::fs::metadata(&snapshot_path).map(|m| m.len()).unwrap_or(0);

    // Warm replay: a fresh engine loads the snapshot at construction and
    // replays the identical stream.
    let warm_config = banzhaf_engine::CacheConfig::new().with_warm_start(&snapshot_path);
    let warm_wall = Instant::now();
    let warm_engine = Engine::new(
        EngineConfig::new(Algorithm::ExaBan).with_cache_config(warm_config).with_threads(1),
    );
    let mut warm_session = warm_engine.session();
    let warm = exact_value_stream(&mut warm_session, &lineages);
    let warm_wall = warm_wall.elapsed();
    let warm_compile_steps = warm_session.stats().compile_steps;
    let warm_stats = warm_engine.stats().cache;

    let _ = std::fs::remove_file(&snapshot_path);

    let bit_identical = warm == cold;
    let steps_saved = cold_compile_steps.saturating_sub(warm_compile_steps);
    let steps_saved_ratio =
        if cold_compile_steps > 0 { steps_saved as f64 / cold_compile_steps as f64 } else { 0.0 };
    let wall_saved_ratio = if cold_wall.as_secs_f64() > 0.0 {
        1.0 - warm_wall.as_secs_f64() / cold_wall.as_secs_f64()
    } else {
        0.0
    };

    let mut table =
        TextTable::new(["Path", "Compile steps", "Cache hits", "Snapshot entries", "Wall"]);
    table.push_row([
        "cold (fresh cache, then save)".to_owned(),
        cold_compile_steps.to_string(),
        cold_engine.stats().cache.hits.to_string(),
        snapshot_entries.to_string(),
        format!("{:.1} ms", cold_wall.as_secs_f64() * 1e3),
    ]);
    table.push_row([
        "warm-started fresh engine".to_owned(),
        warm_compile_steps.to_string(),
        warm_stats.hits.to_string(),
        warm_stats.snapshot_entries.to_string(),
        format!("{:.1} ms", warm_wall.as_secs_f64() * 1e3),
    ]);

    let json = Json::obj([
        ("experiment", "warm_start".into()),
        ("algorithm", "ExaBan".into()),
        ("requests", requests.into()),
        ("shapes", shapes.into()),
        ("cold_compile_steps", cold_compile_steps.into()),
        ("warm_compile_steps", warm_compile_steps.into()),
        ("steps_saved", steps_saved.into()),
        ("steps_saved_ratio", Json::fixed(steps_saved_ratio, 4)),
        ("cold_wall_ms", Json::fixed(cold_wall.as_secs_f64() * 1e3, 3)),
        ("warm_wall_ms", Json::fixed(warm_wall.as_secs_f64() * 1e3, 3)),
        ("wall_saved_ratio", Json::fixed(wall_saved_ratio, 4)),
        ("snapshot_entries", snapshot_entries.into()),
        ("snapshot_bytes", snapshot_bytes.into()),
        ("snapshot_loads", warm_stats.snapshot_loads.into()),
        ("snapshot_rejects", warm_stats.snapshot_rejects.into()),
        ("warm_hits", warm_stats.hits.into()),
        ("bit_identical", bit_identical.into()),
    ]);
    let report = format!(
        "Warm start — snapshot/reload of the shared cache on a permuted/renamed \
         stream ({requests} requests over {shapes} shapes)\n{}\
         {steps_saved} compile steps saved ({:.1}% of the cold run's), {} snapshot rejects, \
         bit-identical: {bit_identical}\n",
        table.render(),
        steps_saved_ratio * 100.0,
        warm_stats.snapshot_rejects,
    );
    (report, json)
}

/// The aggregate-attribution repro experiment: exact aggregate Banzhaf
/// values (SUM and COUNT) over a TPC-H-like supplier/lineitem workload.
///
/// A seeded generator fills `Supp(s, n)` / `Item(s, p, v)` relations, the
/// query layer evaluates `SUM(V)` and `COUNT(*)` revenue queries into
/// per-answer [`banzhaf_engine::WeightedDnf`] lineages, and the engine
/// attributes every lineage under four configurations — cache on/off ×
/// 1/2 threads (aggregate lineages bypass the cache, so "on" only means an
/// enabled cache they never touch). Two checks:
///
/// * **agreement** — every per-fact value equals the brute-force definition
///   (`Σ over all 2^n worlds of val(Y ∪ {f}) − val(Y)`), so
///   `agreement_rate` must be exactly 1.0;
/// * **bit identity** — all four configurations produce identical rationals.
///
/// Returns the `BENCH_aggregate.json` record; the tier-1 test of this
/// experiment requires both.
#[allow(clippy::too_many_lines)]
pub fn aggregate_attribution(config: &HarnessConfig) -> (String, Json) {
    use banzhaf_boolean::WeightedDnf;
    use banzhaf_engine::{evaluate_aggregate, Score};
    use rand::{rngs::StdRng, Rng, SeedableRng};

    // Seeded TPC-H-flavoured instance. Sizes are capped so the brute-force
    // cross-check (2^n worlds per lineage) stays trivial.
    let mut rng = StdRng::seed_from_u64(config.seed ^ 0xA66E_CA7E);
    let suppliers = 4 + 2 * config.scale.min(4);
    let mut db = Database::new();
    db.add_relation("Supp", 2);
    db.add_relation("Item", 3);
    for s in 0..suppliers {
        let s = i64::try_from(s).expect("supplier count fits in i64");
        db.insert_endogenous("Supp", vec![s.into(), format!("s{s}").into()])
            .expect("fresh supplier row");
        for p in 0..rng.gen_range(1..=3i64) {
            let value = rng.gen_range(1..=20i64);
            let row = vec![s.into(), p.into(), value.into()];
            if rng.gen_bool(0.25) {
                db.insert_exogenous("Item", row).expect("fresh exogenous item row");
            } else {
                db.insert_endogenous("Item", row).expect("fresh endogenous item row");
            }
        }
    }

    let sum_query = parse_program("Rev(N, SUM(V)) :- Supp(S, N), Item(S, P, V).")
        .expect("the SUM revenue query parses");
    let count_query = parse_program("Cnt(N, COUNT(*)) :- Supp(S, N), Item(S, P, V).")
        .expect("the COUNT orders query parses");
    let sum_result = evaluate_aggregate(&sum_query, &db).expect("SUM evaluation succeeds");
    let count_result = evaluate_aggregate(&count_query, &db).expect("COUNT evaluation succeeds");
    let lineages: Vec<WeightedDnf> = sum_result
        .answers()
        .iter()
        .chain(count_result.answers())
        .map(|a| a.lineage.clone())
        .collect();
    let sum_answers = sum_result.answers().len();
    let count_answers = count_result.answers().len();
    let refs: Vec<&WeightedDnf> = lineages.iter().collect();

    // One value stream per (cache, threads) configuration; all four must be
    // bit-identical. On this container parallelism is a plan, not extra
    // cores, so identity across thread counts is the correctness signal.
    type Scores = Vec<(Var, banzhaf_engine::Rational)>;
    let run_stream = |cache_on: bool, threads: usize| -> Vec<Scores> {
        let cache = if cache_on { CacheConfig::new() } else { CacheConfig::disabled() };
        let engine = Engine::new(
            EngineConfig::new(Algorithm::ExaBan).with_cache_config(cache).with_threads(threads),
        );
        engine
            .session()
            .attribute_batch(&refs, BatchOptions::default())
            .into_iter()
            .map(|outcome| {
                let attribution = outcome.expect("no budget is set in this experiment");
                let mut scores: Scores = attribution
                    .values
                    .into_iter()
                    .map(|(var, score)| match score {
                        Score::Rational(r) => (var, *r),
                        other => panic!("exact aggregate backends return rationals, got {other:?}"),
                    })
                    .collect();
                scores.sort_unstable_by_key(|(var, _)| *var);
                scores
            })
            .collect()
    };

    let wall = Instant::now();
    let baseline = run_stream(true, 1);
    let wall_ms = wall.elapsed().as_secs_f64() * 1e3;
    let variants = [run_stream(false, 1), run_stream(true, 2), run_stream(false, 2)];
    let bit_identical = variants.iter().all(|v| *v == baseline);

    // Brute-force cross-check of the baseline stream.
    let mut checked = 0usize;
    let mut agreed = 0usize;
    for (lineage, scores) in lineages.iter().zip(&baseline) {
        for (var, value) in scores {
            checked += 1;
            if *value == lineage.brute_force_aggregate_banzhaf(*var) {
                agreed += 1;
            }
        }
    }
    let agreement_rate = if checked > 0 { agreed as f64 / checked as f64 } else { 0.0 };

    let mut table = TextTable::new(["Check", "Result"]);
    table.push_row(["lineages (SUM + COUNT answers)".to_owned(), lineages.len().to_string()]);
    table.push_row(["per-fact values checked".to_owned(), checked.to_string()]);
    table.push_row(["brute-force agreement".to_owned(), format!("{agreed}/{checked}")]);
    table.push_row([
        "bit-identical across cache on/off × threads 1/2".to_owned(),
        bit_identical.to_string(),
    ]);

    let json = Json::obj([
        ("experiment", "aggregate_attribution".into()),
        ("algorithm", "ExaBan".into()),
        ("lineages", lineages.len().into()),
        ("sum_answers", sum_answers.into()),
        ("count_answers", count_answers.into()),
        ("values_checked", checked.into()),
        ("agreement_rate", Json::fixed(agreement_rate, 4)),
        ("bit_identical", bit_identical.into()),
        ("wall_ms", Json::fixed(wall_ms, 3)),
    ]);
    let report = format!(
        "Aggregate attribution — exact SUM/COUNT Banzhaf over a TPC-H-like \
         workload ({} lineages)\n{}",
        lineages.len(),
        table.render()
    );
    (report, json)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> HarnessConfig {
        HarnessConfig { timeout: Duration::from_millis(50), scale: 1, ..Default::default() }
    }

    #[test]
    fn table1_renders_three_corpora() {
        let report = table1(&tiny_config());
        assert!(report.contains("Academic-like"));
        assert!(report.contains("IMDB-like"));
        assert!(report.contains("TPC-H-like"));
    }

    #[test]
    fn app_d_reports_disagreement() {
        let report = app_d();
        assert!(report.contains("Banzhaf(R(a1)) = 62867"));
        assert!(report.contains("Banzhaf(R(a2)) = 60435"));
        assert!(report.contains("disagree"));
    }

    #[test]
    fn engine_cache_report_covers_all_corpora() {
        let (report, json) = engine_cache(&tiny_config());
        assert!(report.contains("d-tree cache effect"));
        assert!(report.contains("µs/inst (cached)") && report.contains("µs/inst (uncached)"));
        assert!(report.contains("µs/inst (raw)"));
        assert!(report.contains("Academic-like"));
        assert!(report.contains("TPC-H-like"));
        let corpora = json.at("corpora").and_then(Json::as_array).unwrap();
        let names: Vec<&str> =
            corpora.iter().map(|c| c.get("name").and_then(Json::as_str).unwrap()).collect();
        assert_eq!(names, ["Academic-like", "IMDB-like", "TPC-H-like"]);
        for corpus in corpora {
            // Every read-once answer is served without the cache, and only
            // the others are looked up.
            assert!(num(corpus, "closed_forms") > 0.0, "{corpus}");
            assert!(
                num(corpus, "cache_hits") + num(corpus, "closed_forms") <= num(corpus, "instances")
            );
            assert!(num(corpus, "cached_over_uncached") > 0.0, "{corpus}");
        }
    }

    fn num(json: &Json, path: &str) -> f64 {
        json.at(path).and_then(Json::as_f64).unwrap_or_else(|| panic!("no number {path}: {json}"))
    }

    fn flag(json: &Json, path: &str) -> bool {
        json.at(path).and_then(Json::as_bool).unwrap_or_else(|| panic!("no flag {path}: {json}"))
    }

    /// `repro canon_hit_rate`'s record on a small stream: canonical keying
    /// strictly beats first-occurrence keying, every isomorph after the
    /// first of each shape hits, and cached and served runs match the cold
    /// reference.
    #[test]
    fn canon_hit_rate_beats_first_occurrence_keying() {
        let (report, json) = canon_hit_rate(&tiny_config());
        assert!(report.contains("canonical, engine session"), "{report}");
        assert!(flag(&json, "bit_identical"), "{json}");
        assert!(num(&json, "canon_hit_rate") > num(&json, "naive_hit_rate"), "{json}");
        let expected_hits = num(&json, "requests") - num(&json, "shapes");
        assert_eq!(num(&json, "canon_hits"), expected_hits, "{json}");
    }

    /// `repro canon_hit_rate`'s record on its seeded stream: every isomorph
    /// after the first of each shape hits (25 of 30, the 0.8333 floor),
    /// strictly beating first-occurrence keying, within a ceiling of 12282
    /// keying steps, and cached and served runs match the cold reference.
    #[test]
    fn canon_stream_hit_rate_and_keying_cost_hold_the_baseline() {
        let (report, json) = canon_hit_rate(&HarnessConfig::default());
        assert!(report.contains("canonical, engine session"), "{report}");
        assert!(flag(&json, "bit_identical"), "{json}");
        assert_eq!((num(&json, "shapes"), num(&json, "requests")), (5.0, 30.0), "{json}");
        assert_eq!(num(&json, "canon_hits"), 25.0, "{json}");
        assert!(num(&json, "canon_hit_rate") >= 0.8333, "{json}");
        assert!(num(&json, "canon_hit_rate") > num(&json, "naive_hit_rate"), "{json}");
        assert!(num(&json, "canon_steps") <= 12282.0, "{json}");
    }

    /// `repro update_stream`'s record on its seeded stream: the incremental
    /// path matches a cold re-evaluation after every step and saves at least
    /// half of its compile steps.
    #[test]
    fn update_stream_is_bit_identical_and_holds_the_baseline() {
        let (_, json) = update_stream(&HarnessConfig::default());
        assert!(flag(&json, "bit_identical"), "{json}");
        for family in json.at("families").and_then(Json::as_array).unwrap() {
            assert!(flag(family, "bit_identical"), "{family}");
        }
        assert!(num(&json, "steps_saved_ratio") >= 0.5, "{json}");
    }

    /// `repro warm_start`'s record on its seeded stream: the warm-started
    /// replay matches the cold run, the snapshot loads cleanly and saves
    /// compile steps (at least the 0.9 floor of them), and every replayed
    /// request is served from the snapshot, so the warm engine compiles
    /// nothing at all.
    #[test]
    fn warm_start_is_bit_identical_and_holds_the_baseline() {
        let (report, json) = warm_start(&HarnessConfig::default());
        assert!(report.contains("Warm start"), "{report}");
        assert!(flag(&json, "bit_identical"), "{json}");
        assert!(num(&json, "steps_saved") > 0.0, "{json}");
        assert_eq!(num(&json, "snapshot_rejects"), 0.0, "{json}");
        assert!(num(&json, "steps_saved_ratio") >= 0.9, "{json}");
        assert_eq!(num(&json, "steps_saved_ratio"), 1.0, "{json}");
        assert_eq!(num(&json, "warm_compile_steps"), 0.0, "{json}");
        assert_eq!(num(&json, "warm_hits"), num(&json, "requests"), "{json}");
        assert!(num(&json, "snapshot_bytes") > 0.0, "{json}");
    }

    /// `repro warm_start`'s record on a small stream: every replayed request
    /// is served from the snapshot, so the warm engine compiles nothing, and
    /// its answers match the cold run.
    #[test]
    fn warm_start_saves_the_whole_replayed_stream() {
        let (report, json) = warm_start(&tiny_config());
        assert!(report.contains("Warm start"), "{report}");
        assert!(flag(&json, "bit_identical"), "{json}");
        assert_eq!(num(&json, "warm_compile_steps"), 0.0, "{json}");
        assert_eq!(num(&json, "steps_saved_ratio"), 1.0, "{json}");
        assert_eq!(num(&json, "snapshot_rejects"), 0.0, "{json}");
        assert_eq!(num(&json, "warm_hits"), num(&json, "requests"), "{json}");
        assert!(num(&json, "snapshot_bytes") > 0.0, "{json}");
    }

    /// `repro aggregate_attribution`'s record on its seeded workload: every
    /// value equals brute force and the cache/thread matrix is
    /// bit-identical.
    #[test]
    fn aggregate_attribution_agrees_with_brute_force() {
        let (report, json) = aggregate_attribution(&HarnessConfig::default());
        assert!(report.contains("Aggregate attribution"), "{report}");
        assert_eq!(num(&json, "agreement_rate"), 1.0, "{json}");
        assert!(flag(&json, "bit_identical"), "{json}");
        assert!(num(&json, "values_checked") > 0.0, "{json}");
    }

    /// `repro degrade_under_pressure`'s record: the ladder answers the whole
    /// stream at a pressure where strict mode loses at least half of it,
    /// exact answers match the unbounded reference and degraded ones bracket
    /// or estimate soundly. The rungs are step-capped, so which rung answers
    /// is pinned too.
    #[test]
    fn degrade_ladder_answers_the_whole_starved_stream() {
        let (report, json) = degrade_under_pressure(&HarnessConfig::default());
        assert!(report.contains("degradation ladder"), "{report}");
        assert_eq!(num(&json, "ladder_availability"), 1.0, "{json}");
        assert!(num(&json, "strict_availability") <= 0.5, "{json}");
        assert!(flag(&json, "exact_bit_identical"), "{json}");
        assert!(flag(&json, "degraded_sound"), "{json}");
        let rungs = r#"[{"rung": "AdaBan", "answers": 3}, {"rung": "MonteCarlo", "answers": 6}]"#;
        assert_eq!(json.at("rungs"), Some(&Json::parse(rungs).unwrap()), "{json}");
        assert_eq!(num(&json, "degraded"), 9.0, "{json}");
    }

    /// `repro serve_throughput`'s deterministic checks: bit-identity (which
    /// `bench_gate` also holds on the CI runner's artifact), shared-cache
    /// hits and the cache accounting. The workload repeats 4 shapes 8 times
    /// (32 requests): with 2 workers each shape is compiled at most twice
    /// (both workers racing it cold), leaving at least 32 - 4*2 = 24 hits,
    /// and every request is a hit or a miss that inserts.
    #[test]
    fn serve_throughput_is_bit_identical_with_cache_hits() {
        let (report, json) = serve_throughput(&HarnessConfig::default());
        assert!(report.contains("shared cache"), "{report}");
        assert!(flag(&json, "bit_identical"), "{json}");
        assert!(num(&json, "cache_hits") >= 24.0, "{json}");
        let accounted = num(&json, "cache_hits") + num(&json, "cache_insertions");
        assert_eq!(accounted, num(&json, "requests"), "{json}");
    }
}
