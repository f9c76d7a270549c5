//! `repro` — regenerate the paper's tables and figures.
//!
//! Usage:
//!
//! ```text
//! repro [--timeout-ms N] [--scale N] [--epsilon E] [--topk K] [--threads N] <experiment>...
//! repro --all
//! ```
//!
//! Experiments: `table1 table2 table3 table4 fig4 table5 table6 table7 fig5
//! table8 table9 app_d ablation_heuristic ablation_adaban engine_cache
//! parallel_speedup serve_throughput canon_hit_rate warm_start update_stream
//! degrade_under_pressure aggregate_attribution`.
//! Sweep-based experiments share one sweep per invocation; every experiment
//! dispatches its algorithms through `banzhaf_engine::Attributor`.
//! `--threads N` fans the sweep's instance loop and the engine sessions
//! across N workers (0 = one per CPU); completed instances record identical
//! scores at any thread count (wall-clock timeouts may cut off different
//! borderline instances when workers contend for cores). The perf artifact
//! experiments (`engine_cache`, and `parallel_speedup` through
//! `aggregate_attribution`) also write their `BENCH_*.json` record to the
//! working directory.

use banzhaf_bench::experiments;
use banzhaf_bench::json::Json;
use banzhaf_bench::runner::{run_sweep, HarnessConfig};
use std::time::Duration;

/// All experiment names the driver knows, as printed in the usage text.
const KNOWN_EXPERIMENTS: &[&str] = &[
    "table1",
    "table2",
    "table3",
    "table4",
    "fig4",
    "table5",
    "table6",
    "table7",
    "fig5",
    "table8",
    "table9",
    "app_d",
    "ablation_heuristic",
    "ablation_adaban",
    "engine_cache",
    "parallel_speedup",
    "serve_throughput",
    "canon_hit_rate",
    "warm_start",
    "update_stream",
    "degrade_under_pressure",
    "aggregate_attribution",
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        eprintln!("usage: repro [--timeout-ms N] [--scale N] [--epsilon E] [--topk K] [--threads N] <experiment>... | --all");
        eprintln!("experiments: table1 table2 table3 table4 fig4 table5 table6 table7 fig5 table8 table9 app_d ablation_heuristic ablation_adaban engine_cache parallel_speedup serve_throughput canon_hit_rate warm_start update_stream degrade_under_pressure aggregate_attribution");
        std::process::exit(1);
    }

    let mut config = HarnessConfig::default();
    let mut experiments_requested: Vec<String> = Vec::new();
    let mut run_everything = false;
    let mut iter = args.into_iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--all" => run_everything = true,
            "--timeout-ms" => {
                let value = iter.next().expect("--timeout-ms needs a value");
                config.timeout = Duration::from_millis(value.parse().expect("numeric timeout"));
            }
            "--scale" => {
                let value = iter.next().expect("--scale needs a value");
                config.scale = value.parse().expect("numeric scale");
            }
            "--epsilon" => {
                config.epsilon = iter.next().expect("--epsilon needs a value");
            }
            "--topk" => {
                let value = iter.next().expect("--topk needs a value");
                config.topk = value.parse().expect("numeric k");
            }
            "--seed" => {
                let value = iter.next().expect("--seed needs a value");
                config.seed = value.parse().expect("numeric seed");
            }
            "--threads" => {
                let value = iter.next().expect("--threads needs a value");
                config.threads = value.parse().expect("numeric thread count");
            }
            other => experiments_requested.push(other.to_owned()),
        }
    }

    // Reject typos up front (also on the --all path, which would otherwise
    // silently ignore positional arguments).
    let mut unknown = false;
    for experiment in &experiments_requested {
        if !KNOWN_EXPERIMENTS.contains(&experiment.as_str()) {
            eprintln!("unknown experiment: {experiment}");
            unknown = true;
        }
    }
    if unknown {
        std::process::exit(2);
    }

    if run_everything {
        experiments_requested = KNOWN_EXPERIMENTS.iter().map(|&e| e.to_owned()).collect();
    }

    // Run the sweep lazily: only if some requested experiment needs it.
    let needs_sweep = experiments_requested.iter().any(|e| {
        matches!(
            e.as_str(),
            "table2"
                | "table3"
                | "table4"
                | "fig4"
                | "table5"
                | "table6"
                | "table7"
                | "fig5"
                | "table8"
        )
    });
    let records = if needs_sweep { run_sweep(&config) } else { Vec::new() };

    let artifact = |file, run: fn(&HarnessConfig) -> (String, Json)| record(file, run(&config));
    for experiment in &experiments_requested {
        let report = match experiment.as_str() {
            "table1" => experiments::table1(&config),
            "table2" => experiments::table2(&records, &config),
            "table3" => experiments::table3(&records),
            "table4" => experiments::table4(&records),
            "fig4" => experiments::fig4(&records),
            "table5" => experiments::table5(&records),
            "table6" => experiments::table6(&records),
            "table7" => experiments::table7(&records),
            "fig5" => experiments::fig5(&records, &config),
            "table8" => experiments::table8(&records, &config),
            "table9" => experiments::table9(&config),
            "app_d" => experiments::app_d(),
            "ablation_heuristic" => experiments::ablation_heuristic(&config),
            "ablation_adaban" => experiments::ablation_adaban(&config),
            "engine_cache" => artifact("BENCH_cache.json", experiments::engine_cache),
            "parallel_speedup" => artifact("BENCH_parallel.json", experiments::parallel_speedup),
            "serve_throughput" => artifact("BENCH_serve.json", experiments::serve_throughput),
            "canon_hit_rate" => artifact("BENCH_canon.json", experiments::canon_hit_rate),
            "warm_start" => artifact("BENCH_persist.json", experiments::warm_start),
            "update_stream" => artifact("BENCH_update.json", experiments::update_stream),
            "degrade_under_pressure" => {
                artifact("BENCH_degrade.json", experiments::degrade_under_pressure)
            }
            "aggregate_attribution" => {
                artifact("BENCH_aggregate.json", experiments::aggregate_attribution)
            }
            other => unreachable!("experiment {other} was validated against KNOWN_EXPERIMENTS"),
        };
        println!("{report}");
    }
}

/// Writes an artifact experiment's record to `file` and returns its report
/// followed by a line saying where the record went.
fn record(file: &str, (report, json): (String, Json)) -> String {
    let note = match std::fs::write(file, format!("{json}\n")) {
        Ok(()) => format!("recorded to {file}"),
        Err(e) => format!("could not write {file}: {e}"),
    };
    format!("{report}{note}\n")
}
