//! `bench_gate` — the CI perf-regression gate.
//!
//! Checks every entry of the `"gates"` array in `BENCH_baseline.json`
//! against the `BENCH_*.json` artifacts next to it (see
//! [`banzhaf_bench::gate`] for the entry format), prints one PASS, WARN or
//! FAIL line per entry, and exits 0 when nothing failed, 1 when a gate
//! failed, and 2 when the baseline or an artifact is missing or malformed.
//! To move a bound intentionally, commit the new `BENCH_baseline.json`
//! together with the change that justifies it.
//!
//! ```text
//! bench_gate [--baseline BENCH_baseline.json]
//! ```

use banzhaf_bench::gate;
use std::path::Path;
use std::process::exit;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let baseline = match &args[..] {
        [] => "BENCH_baseline.json",
        [flag, path] if flag == "--baseline" => path,
        _ => {
            eprintln!("usage: bench_gate [--baseline BENCH_baseline.json]");
            exit(2);
        }
    };
    let checks = gate::run(Path::new(baseline)).unwrap_or_else(|e| {
        eprintln!("bench_gate: {e}");
        exit(2);
    });
    let (mut failures, mut warnings) = (0, 0);
    for check in &checks {
        let verdict = match (check.passed, check.warn) {
            (true, _) => "PASS",
            (false, true) => {
                warnings += 1;
                "WARN"
            }
            (false, false) => {
                failures += 1;
                "FAIL"
            }
        };
        println!("{verdict}  {}: {}", check.label, check.detail);
    }
    println!();
    if failures > 0 {
        println!("bench_gate: {failures} check(s) failed");
        exit(1);
    }
    println!("bench_gate: OK ({warnings} warning(s))");
}
