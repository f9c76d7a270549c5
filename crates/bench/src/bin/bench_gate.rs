//! `bench_gate` — the CI perf-regression gate.
//!
//! Reads the perf artifacts the bench experiments emit (`BENCH_parallel.json`
//! from `repro parallel_speedup`, `BENCH_serve.json` from `repro
//! serve_throughput`, `BENCH_canon.json` from `repro canon_hit_rate`, and —
//! with the matching flags — `BENCH_update.json` from `repro update_stream`,
//! `BENCH_degrade.json` from `repro degrade_under_pressure`, and
//! `BENCH_persist.json` from `repro warm_start` and `BENCH_aggregate.json`
//! from `repro aggregate_attribution`) and
//! compares them against the checked-in `BENCH_baseline.json`. Exits
//! non-zero — failing the CI job — when:
//!
//! * any artifact reports `bit_identical: false` (correctness regression:
//!   parallel, served or cached execution diverged from the sequential
//!   reference);
//! * the serve experiment saw no shared-cache hits, or its cache hits and
//!   insertions do not add up to its requests;
//! * the canonical keying's hit rate on the permuted/renamed stream fails to
//!   strictly beat the first-occurrence keying it replaced, or drops below
//!   the baseline floor;
//! * (with `--update`) the incremental update stream diverged from the cold
//!   re-evaluation reference, or the fraction of compile steps it saved fell
//!   below the baseline floor (the stream is seeded, so this is
//!   deterministic and gated with zero tolerance);
//! * (with `--persist`, reading `BENCH_persist.json` from `repro
//!   warm_start`) the warm-started replay diverged from the cold run, the
//!   snapshot saved no compile steps, a snapshot was rejected, or the
//!   steps-saved ratio fell below the baseline floor (the stream is seeded,
//!   so this is deterministic and gated with zero tolerance);
//! * (with `--degrade`, reading `BENCH_degrade.json` from `repro
//!   degrade_under_pressure`) the fallback ladder failed to answer the whole
//!   starved stream (availability floor 1.0), the workload stopped starving
//!   strict mode of at least half its requests, an exact answer diverged
//!   from the unbounded reference, or a degraded answer failed to bracket
//!   (interval rung) or stay finite (estimate rung);
//! * (with `--aggregate`, reading `BENCH_aggregate.json` from `repro
//!   aggregate_attribution`) any exact aggregate Banzhaf value disagreed
//!   with the brute-force definition, the four cache/thread configurations
//!   were not bit-identical, or a SUM cache entry served a COUNT request
//!   over the same Boolean skeleton (the workload is seeded, so this is
//!   deterministic and gated with zero tolerance);
//! * a tracked throughput metric regressed more than the tolerance
//!   (default 25%) against the baseline.
//!
//! Machine-normalized metrics are gated (`speedup` = t1/tN for the parallel
//! experiment, `speedup_vs_cold` for the serving experiment) so the gate is
//! stable across runner generations; raw seconds and rps are printed for
//! trend reading but only warned about. To move the baseline intentionally,
//! commit a new `BENCH_baseline.json` alongside the change that justifies it.
//!
//! ```text
//! bench_gate [--baseline BENCH_baseline.json] [--parallel BENCH_parallel.json]
//!            [--serve BENCH_serve.json] [--canon BENCH_canon.json]
//!            [--update BENCH_update.json] [--degrade BENCH_degrade.json]
//!            [--persist BENCH_persist.json] [--aggregate BENCH_aggregate.json]
//!            [--tolerance 0.25]
//! ```

use banzhaf_bench::json::Json;

struct Gate {
    failures: Vec<String>,
    warnings: Vec<String>,
}

impl Gate {
    fn check(&mut self, ok: bool, label: &str, detail: String) {
        if ok {
            println!("PASS  {label}: {detail}");
        } else {
            println!("FAIL  {label}: {detail}");
            self.failures.push(format!("{label}: {detail}"));
        }
    }

    fn warn(&mut self, label: &str, detail: String) {
        println!("WARN  {label}: {detail}");
        self.warnings.push(format!("{label}: {detail}"));
    }
}

fn read_json(path: &str) -> Json {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("bench_gate: cannot read {path}: {e}");
        std::process::exit(2);
    });
    Json::parse(&text).unwrap_or_else(|e| {
        eprintln!("bench_gate: cannot parse {path}: {e}");
        std::process::exit(2);
    })
}

fn f64_at(json: &Json, path: &[&str], file: &str) -> f64 {
    let mut node = json;
    for key in path {
        node = node.get(key).unwrap_or_else(|| {
            eprintln!("bench_gate: {file} is missing \"{}\"", path.join("."));
            std::process::exit(2);
        });
    }
    node.as_f64().unwrap_or_else(|| {
        eprintln!("bench_gate: {file} \"{}\" is not a number", path.join("."));
        std::process::exit(2);
    })
}

fn bool_at(json: &Json, key: &str, file: &str) -> bool {
    json.get(key).and_then(Json::as_bool).unwrap_or_else(|| {
        eprintln!("bench_gate: {file} is missing boolean \"{key}\"");
        std::process::exit(2);
    })
}

/// The measured `(speedup, effective_threads)` of the run with the given
/// requested thread count.
fn speedup_at_threads(parallel: &Json, threads: f64, file: &str) -> (f64, f64) {
    let runs = parallel.get("runs").and_then(Json::as_array).unwrap_or_else(|| {
        eprintln!("bench_gate: {file} is missing \"runs\"");
        std::process::exit(2);
    });
    for run in runs {
        if run.get("threads").and_then(Json::as_f64) == Some(threads) {
            let effective = run.get("effective_threads").and_then(Json::as_f64).unwrap_or(threads);
            return (f64_at(run, &["speedup"], file), effective);
        }
    }
    eprintln!("bench_gate: {file} has no run with threads = {threads}");
    std::process::exit(2);
}

struct Args {
    baseline_path: String,
    parallel_path: String,
    serve_path: String,
    canon_path: String,
    update_path: Option<String>,
    degrade_path: Option<String>,
    persist_path: Option<String>,
    aggregate_path: Option<String>,
    tolerance: f64,
}

fn parse_args() -> Args {
    let mut parsed = Args {
        baseline_path: "BENCH_baseline.json".to_owned(),
        parallel_path: "BENCH_parallel.json".to_owned(),
        serve_path: "BENCH_serve.json".to_owned(),
        canon_path: "BENCH_canon.json".to_owned(),
        update_path: None,
        degrade_path: None,
        persist_path: None,
        aggregate_path: None,
        tolerance: 0.25,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("bench_gate: {name} needs a value");
                std::process::exit(2);
            })
        };
        match arg.as_str() {
            "--baseline" => parsed.baseline_path = value("--baseline"),
            "--parallel" => parsed.parallel_path = value("--parallel"),
            "--serve" => parsed.serve_path = value("--serve"),
            "--canon" => parsed.canon_path = value("--canon"),
            "--update" => parsed.update_path = Some(value("--update")),
            "--degrade" => parsed.degrade_path = Some(value("--degrade")),
            "--persist" => parsed.persist_path = Some(value("--persist")),
            "--aggregate" => parsed.aggregate_path = Some(value("--aggregate")),
            "--tolerance" => {
                parsed.tolerance = value("--tolerance").parse().unwrap_or_else(|_| {
                    eprintln!("bench_gate: --tolerance needs a number in [0, 1)");
                    std::process::exit(2);
                });
            }
            other => {
                eprintln!("bench_gate: unknown argument {other}");
                eprintln!(
                    "usage: bench_gate [--baseline F] [--parallel F] [--serve F] [--canon F] \
                     [--update F] [--degrade F] [--persist F] [--aggregate F] [--tolerance T]"
                );
                std::process::exit(2);
            }
        }
    }
    parsed
}

/// The correctness checks: bit-identity everywhere, live cache, and the
/// canonical keying strictly beating the first-occurrence keying it replaced
/// on the (seeded, hence deterministic) permuted/renamed stream.
fn check_correctness(gate: &mut Gate, artifacts: &Artifacts) {
    let Artifacts { baseline, parallel, parallel_path, serve, serve_path, canon, canon_path } =
        artifacts;
    gate.check(
        bool_at(parallel, "bit_identical", parallel_path),
        "parallel.bit_identical",
        "parallel batches must match the sequential reference bit for bit".to_owned(),
    );
    gate.check(
        bool_at(serve, "bit_identical", serve_path),
        "serve.bit_identical",
        "served attributions must match a cold sequential run bit for bit".to_owned(),
    );
    gate.check(
        bool_at(canon, "bit_identical", canon_path),
        "canon.bit_identical",
        "cached and served runs of the permuted stream must match the cold reference".to_owned(),
    );
    let cache_hits = f64_at(serve, &["cache_hits"], serve_path);
    gate.check(
        cache_hits > 0.0,
        "serve.cache_hits",
        format!("shared cross-session cache must serve hits (got {cache_hits})"),
    );
    // Every request is one lookup: a hit, or a miss that compiles and
    // inserts, and nothing is evicted. How the two split depends on how the
    // workers race a cold shape; their sum does not.
    let requests = f64_at(serve, &["requests"], serve_path);
    let insertions = f64_at(serve, &["cache_insertions"], serve_path);
    gate.check(
        cache_hits + insertions == requests,
        "serve.cache_accounting",
        format!("cache hits {cache_hits} + insertions {insertions} must equal requests {requests}"),
    );
    let canon_rate = f64_at(canon, &["canon_hit_rate"], canon_path);
    let naive_rate = f64_at(canon, &["naive_hit_rate"], canon_path);
    gate.check(
        canon_rate > naive_rate,
        "canon.hit_rate_advantage",
        format!("canonical {canon_rate:.3} must strictly beat first-occurrence {naive_rate:.3}"),
    );
    if let Some(base) =
        baseline.get("canon_hit_rate").and_then(|b| b.get("hit_rate")).and_then(Json::as_f64)
    {
        // Unlike the wall-clock metrics, the hit rate of the seeded stream
        // is fully deterministic, so no machine tolerance applies: any drop
        // beyond float formatting is a real canonicalization regression.
        gate.check(
            canon_rate >= base - 1e-9,
            "canon.hit_rate",
            format!("measured {canon_rate:.3} vs baseline {base:.3} (deterministic, 0 tolerance)"),
        );
    }
    if let Some(ceiling) =
        baseline.get("canon_hit_rate").and_then(|b| b.get("canon_steps")).and_then(Json::as_f64)
    {
        // The keying *cost* is gated too: the seeded stream performs a fixed
        // amount of refinement work, so any count above the baseline ceiling
        // means the worklist refiner or the fingerprint pre-key regressed.
        let canon_steps = f64_at(canon, &["canon_steps"], canon_path);
        gate.check(
            canon_steps <= ceiling + 1e-9,
            "canon.canon_steps",
            format!(
                "measured {canon_steps:.0} refinement steps vs baseline ceiling {ceiling:.0} \
                 (deterministic, 0 tolerance)"
            ),
        );
    }
}

/// The live-update checks (`--update`): bit-identity of the incremental
/// stream against its per-step cold re-evaluations, and the steps-saved
/// ratio against the baseline floor. The update stream is seeded, so both
/// are deterministic and gated with zero tolerance.
fn check_update_stream(gate: &mut Gate, baseline: &Json, update: &Json, update_path: &str) {
    gate.check(
        bool_at(update, "bit_identical", update_path),
        "update.bit_identical",
        "incremental updates must match a cold re-evaluation after every step".to_owned(),
    );
    let ratio = f64_at(update, &["steps_saved_ratio"], update_path);
    if let Some(base) = baseline
        .get("update_stream")
        .and_then(|b| b.get("steps_saved_ratio"))
        .and_then(Json::as_f64)
    {
        gate.check(
            ratio >= base - 1e-9,
            "update.steps_saved_ratio",
            format!("measured {ratio:.3} vs baseline floor {base:.3} (deterministic, 0 tolerance)"),
        );
    }
}

/// The warm-start persistence checks (`--persist`): bit-identity of the
/// warm-started (and sharded) replays against the cold run, real savings
/// from the snapshot, no rejected loads, and the steps-saved ratio against
/// the baseline floor. The stream is seeded, so every number is
/// deterministic and gated with zero tolerance.
fn check_persist(gate: &mut Gate, baseline: &Json, persist: &Json, persist_path: &str) {
    gate.check(
        bool_at(persist, "bit_identical", persist_path),
        "persist.bit_identical",
        "warm-started and sharded replays must match the cold run bit for bit".to_owned(),
    );
    let steps_saved = f64_at(persist, &["steps_saved"], persist_path);
    gate.check(
        steps_saved > 0.0,
        "persist.steps_saved",
        format!("the snapshot must save compile steps on the replay (got {steps_saved:.0})"),
    );
    let rejects = f64_at(persist, &["snapshot_rejects"], persist_path);
    gate.check(
        rejects == 0.0,
        "persist.snapshot_rejects",
        format!(
            "the snapshot the experiment just wrote must load cleanly (got {rejects:.0} rejects)"
        ),
    );
    let ratio = f64_at(persist, &["steps_saved_ratio"], persist_path);
    if let Some(base) =
        baseline.get("warm_start").and_then(|b| b.get("steps_saved_ratio")).and_then(Json::as_f64)
    {
        gate.check(
            ratio >= base - 1e-9,
            "persist.steps_saved_ratio",
            format!("measured {ratio:.3} vs baseline floor {base:.3} (deterministic, 0 tolerance)"),
        );
    }
}

/// The aggregate-attribution checks (`--aggregate`): exact brute-force
/// agreement, bit-identity across cache on/off x threads 1/2, and kind-aware
/// cache keying (a SUM entry never serves a COUNT request). The workload is
/// seeded, so every number is deterministic and gated with zero tolerance.
fn check_aggregate(gate: &mut Gate, baseline: &Json, aggregate: &Json, aggregate_path: &str) {
    gate.check(
        bool_at(aggregate, "bit_identical", aggregate_path),
        "aggregate.bit_identical",
        "aggregate values must match across cache on/off and 1/2 threads bit for bit".to_owned(),
    );
    let agreement = f64_at(aggregate, &["agreement_rate"], aggregate_path);
    let floor = baseline
        .get("aggregate_attribution")
        .and_then(|b| b.get("agreement_rate"))
        .and_then(Json::as_f64)
        .unwrap_or(1.0);
    gate.check(
        agreement >= floor - 1e-9,
        "aggregate.agreement_rate",
        format!(
            "every per-fact value must equal the brute-force definition \
             (got {agreement:.4}, floor {floor:.4})"
        ),
    );
    gate.check(
        bool_at(aggregate, "kind_keying_separate", aggregate_path),
        "aggregate.kind_keying_separate",
        "a SUM cache entry must never serve a COUNT twin of the same skeleton".to_owned(),
    );
    gate.check(
        bool_at(aggregate, "count_twin_agrees", aggregate_path),
        "aggregate.count_twin_agrees",
        "the COUNT twin's values must match brute force after the forced miss".to_owned(),
    );
}

/// The degradation-ladder checks (`--degrade`): availability, pressure, and
/// soundness of degraded answers. The workload is step-capped (no wall
/// clock), so every number is deterministic and gated with zero tolerance.
fn check_degrade(gate: &mut Gate, baseline: &Json, degrade: &Json, degrade_path: &str) {
    let ladder = f64_at(degrade, &["ladder_availability"], degrade_path);
    gate.check(
        ladder >= 1.0 - 1e-9,
        "degrade.ladder_availability",
        format!("the fallback ladder must answer every request (got {ladder:.3}, floor 1.0)"),
    );
    let strict = f64_at(degrade, &["strict_availability"], degrade_path);
    gate.check(
        strict <= 0.5 + 1e-9,
        "degrade.strict_pressure",
        format!(
            "the workload must starve strict mode of at least half its requests \
             (strict answered {strict:.3}; above 0.5 the ladder is not being exercised)"
        ),
    );
    gate.check(
        bool_at(degrade, "exact_bit_identical", degrade_path),
        "degrade.exact_bit_identical",
        "answers that completed exactly must match the unbounded reference bit for bit".to_owned(),
    );
    gate.check(
        bool_at(degrade, "degraded_sound", degrade_path),
        "degrade.degraded_sound",
        "interval-rung answers must bracket the exact value; estimate-rung answers must be finite"
            .to_owned(),
    );
    if let Some(base) = baseline
        .get("degrade_under_pressure")
        .and_then(|b| b.get("ladder_availability"))
        .and_then(Json::as_f64)
    {
        gate.check(
            ladder >= base - 1e-9,
            "degrade.baseline_availability",
            format!(
                "measured {ladder:.3} vs baseline floor {base:.3} (deterministic, 0 tolerance)"
            ),
        );
    }
}

/// The parsed artifact set the gate's checks read from.
struct Artifacts {
    baseline: Json,
    parallel: Json,
    parallel_path: String,
    serve: Json,
    serve_path: String,
    canon: Json,
    canon_path: String,
}

fn main() {
    let Args {
        baseline_path,
        parallel_path,
        serve_path,
        canon_path,
        update_path,
        degrade_path,
        persist_path,
        aggregate_path,
        tolerance,
    } = parse_args();
    let artifacts = Artifacts {
        baseline: read_json(&baseline_path),
        parallel: read_json(&parallel_path),
        parallel_path,
        serve: read_json(&serve_path),
        serve_path,
        canon: read_json(&canon_path),
        canon_path,
    };
    let floor = |base: f64| base * (1.0 - tolerance);
    let mut gate = Gate { failures: Vec::new(), warnings: Vec::new() };
    check_correctness(&mut gate, &artifacts);
    if let Some(update_path) = &update_path {
        let update = read_json(update_path);
        check_update_stream(&mut gate, &artifacts.baseline, &update, update_path);
    }
    if let Some(degrade_path) = &degrade_path {
        let degrade = read_json(degrade_path);
        check_degrade(&mut gate, &artifacts.baseline, &degrade, degrade_path);
    }
    if let Some(persist_path) = &persist_path {
        let persist = read_json(persist_path);
        check_persist(&mut gate, &artifacts.baseline, &persist, persist_path);
    }
    if let Some(aggregate_path) = &aggregate_path {
        let aggregate = read_json(aggregate_path);
        check_aggregate(&mut gate, &artifacts.baseline, &aggregate, aggregate_path);
    }
    let Artifacts { baseline, parallel, parallel_path, serve, serve_path, .. } = &artifacts;

    // Throughput vs the checked-in baseline (machine-normalized metrics).
    // The multicore baseline applies only when the run actually had that many
    // workers: `ThreadPool::new` clamps to the machine's cores, so on a
    // single-core box a "2-thread" run re-measures the sequential path and is
    // held to the degenerate floor of 1.0 instead (no parallelism ran, so no
    // parallelism can have regressed).
    for threads in [2.0f64, 4.0] {
        let key = format!("speedup_{threads}");
        let Some(multicore_base) = baseline
            .get("parallel_speedup")
            .and_then(|b| b.get(&format!("speedup_{}", threads as u64)))
            .and_then(Json::as_f64)
        else {
            continue;
        };
        let (measured, effective) = speedup_at_threads(parallel, threads, parallel_path);
        let clamped = effective < threads;
        let base = if clamped { multicore_base.min(1.0) } else { multicore_base };
        gate.check(
            measured >= floor(base),
            &format!("parallel.{key}"),
            format!(
                "measured {measured:.3} vs baseline {base:.3} (floor {:.3}{})",
                floor(base),
                if clamped {
                    format!("; clamped to {effective} effective worker(s), degenerate 1.0 bar")
                } else {
                    String::new()
                }
            ),
        );
    }
    if let Some(base) = baseline
        .get("serve_throughput")
        .and_then(|b| b.get("speedup_vs_cold"))
        .and_then(Json::as_f64)
    {
        let measured = f64_at(serve, &["speedup_vs_cold"], serve_path);
        gate.check(
            measured >= floor(base),
            "serve.speedup_vs_cold",
            format!("measured {measured:.3} vs baseline {base:.3} (floor {:.3})", floor(base)),
        );
    }

    // Raw rps is machine-dependent: print the comparison, warn on large
    // drops, but do not fail CI across runner generations on it.
    if let Some(base) =
        baseline.get("serve_throughput").and_then(|b| b.get("rps")).and_then(Json::as_f64)
    {
        let measured = f64_at(serve, &["serve_rps"], serve_path);
        if measured < floor(base) {
            gate.warn(
                "serve.rps",
                format!("measured {measured:.1} rps vs baseline {base:.1} (machine-dependent)"),
            );
        } else {
            println!("PASS  serve.rps: measured {measured:.1} rps vs baseline {base:.1}");
        }
    }

    println!();
    if gate.failures.is_empty() {
        let warnings = gate.warnings.len();
        println!("bench_gate: OK ({warnings} warning(s), tolerance {tolerance})");
    } else {
        println!("bench_gate: {} check(s) failed (tolerance {tolerance})", gate.failures.len());
        std::process::exit(1);
    }
}
