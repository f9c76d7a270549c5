//! The benchmark's description (`BENCHMARK.json`): its command, workloads
//! with the input properties later claims cite, and its metrics.

use crate::inputs::{self, HARD_REPEAT_EVERY, HARD_REPEAT_WINDOW};
use crate::layers::WRITE_PHASE_UPDATES;
use crate::metrics::{MetricDef, END_TO_END, PER_LAYER};
use banzhaf_boolean::Dnf;
use banzhaf_engine::{CacheConfig, Engine, EngineConfig};
use std::fmt::Write as _;

/// Seconds one run measures.
pub const RUN_SECONDS: u32 = 30;
/// The seed whose inputs the descriptions quote.
const DESCRIBED_SEED: u64 = 1;
/// Fresh hard-tail ops whose sizes the description quotes.
const HARD_SAMPLE: usize = 400;

fn var_stats(lineages: &[&Dnf]) -> (f64, usize) {
    let total: usize = lineages.iter().map(|l| l.num_vars()).sum();
    let max = lineages.iter().map(|l| l.num_vars()).max().unwrap_or(0);
    (total as f64 / lineages.len().max(1) as f64, max)
}

/// Distinct shapes among `lineages`, as the engine's canonical keying
/// counts them: the entries a fresh cache holds after one pass.
fn distinct_shapes(lineages: &[&Dnf]) -> usize {
    let engine = Engine::new(EngineConfig::default());
    let mut session = engine.session();
    for l in lineages {
        let _ = session.attribute(l);
    }
    engine.stats().cache.entries
}

/// One line per workload: why it is in the benchmark and the input
/// properties of [`DESCRIBED_SEED`].
pub fn workloads() -> Vec<(&'static str, String)> {
    let capacity = CacheConfig::default().capacity;
    let seed = DESCRIBED_SEED;

    let corpora = inputs::corpora();
    let explained: Vec<Dnf> =
        corpora.iter().flat_map(|w| w.corpus().instances.into_iter().map(|i| i.lineage)).collect();
    let refs: Vec<&Dnf> = explained.iter().collect();
    let (mean, max) = var_stats(&refs);
    let queries: usize = corpora.iter().map(|w| w.queries.len()).sum();
    let writes = format!("plus {WRITE_PHASE_UPDATES} IMDB live updates spread over the run");
    let explain = format!(
        "paper corpora: {queries} queries, {} answers/pass, vars mean {mean:.1} max {max}; {} shapes \
         vs {capacity}-entry cache, so ~all repeat after warm-up; {writes}",
        refs.len(),
        distinct_shapes(&refs),
    );

    let hard: Vec<Dnf> = (0..HARD_SAMPLE).map(|i| inputs::hard_tail_op(seed, i).lineage).collect();
    let refs: Vec<&Dnf> = hard.iter().collect();
    let (mean, max) = var_stats(&refs);
    let hard = format!(
        "large lineages, vars mean {mean:.1} max {max}: {}% of ops repeat one of the last \
         {HARD_REPEAT_WINDOW} shapes renamed, the rest are new (more than {capacity} a run); {writes}",
        100 / HARD_REPEAT_EVERY,
    );

    vec![("explain-corpora", explain), ("hard-tail", hard)]
}

fn metric_json(m: &MetricDef) -> String {
    match m.bound {
        Some(bound) => format!(
            "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {bound}}}",
            m.name, m.unit, m.better
        ),
        None => format!(
            "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
            m.name, m.unit, m.better
        ),
    }
}

fn list(items: impl Iterator<Item = String>) -> String {
    items.map(|i| format!("    {i}")).collect::<Vec<_>>().join(",\n")
}

pub fn benchmark_json() -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{{");
    let _ = writeln!(
        out,
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--offline\", \
         \"--manifest-path\", \"perfbench/Cargo.toml\", \"--\"],"
    );
    let _ = writeln!(out, "  \"paths\": [\"perfbench\"],");
    let _ = writeln!(out, "  \"run_seconds\": {RUN_SECONDS},");
    let workloads = workloads()
        .into_iter()
        .map(|(name, why)| format!("{{\"name\": \"{name}\", \"why\": \"{why}\"}}"));
    let _ = writeln!(out, "  \"workloads\": [\n{}\n  ],", list(workloads));
    let _ =
        writeln!(out, "  \"end_to_end\": [\n{}\n  ],", list(END_TO_END.iter().map(metric_json)));
    let _ = writeln!(out, "  \"per_layer\": [\n{}\n  ]", list(PER_LAYER.iter().map(metric_json)));
    let _ = writeln!(out, "}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn descriptions_fit_the_benchmark_format() {
        let workloads = workloads();
        assert_eq!(workloads.iter().map(|(n, _)| *n).collect::<Vec<_>>(), crate::WORKLOADS);
        for (name, why) in &workloads {
            assert!(valid_name(name));
            assert!(why.len() <= 200 && !why.contains(['\n', '"', '\\']), "{name}: {why}");
        }
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(m.name), "{}", m.name);
            assert!(m.unit.len() <= 16, "{}", m.unit);
            assert!(m.unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
    }
}
