//! End-to-end and per-layer benchmark of the attribution stack.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <explain-corpora|hard-tail> --seed <n> --seconds <s> --trace <0|1>
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --describe > BENCHMARK.json
//! ```
//!
//! A run prints one line per metric with its unit, then, as its last line, a
//! JSON object with `correct`, `attempted`, `failed` and `metrics`: the
//! end-to-end metrics with `--trace 0`, the per-layer ones with `--trace 1`.
//! End-to-end times are scaled to a reference machine speed, read from a
//! fixed piece of work timed throughout the run (see `pace`); the notes
//! print the speed each run saw. `--describe` prints the benchmark's description, with the measured input
//! properties of each workload.

mod check;
mod describe;
mod inputs;
mod layers;
mod metrics;
mod pace;
mod rss;
mod stats;
mod trace;
mod workloads;

use workloads::Args;

pub const WORKLOADS: [&str; 2] = ["explain-corpora", "hard-tail"];

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>\n       perfbench --describe",
        WORKLOADS.join("|")
    );
    std::process::exit(2)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv == ["--describe"] {
        print!("{}", describe::benchmark_json());
        return;
    }
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => workload = WORKLOADS.iter().find(|w| **w == value.as_str()).copied(),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => {
                seconds = value.parse::<f64>().ok().filter(|s| s.is_finite() && *s >= 0.0);
            }
            "--trace" => trace = matches!(value.as_str(), "0" | "1").then(|| value == "1"),
            _ => usage(),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        usage()
    };
    let args = Args { seed, seconds, trace };
    let mut report = match workload {
        "explain-corpora" => workloads::explain_corpora(&args),
        _ => workloads::hard_tail(&args),
    };
    print!("{}", report.render(trace));
}
