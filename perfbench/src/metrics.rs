//! The metrics the benchmark reports, and the result line it prints.
//!
//! End-to-end metrics come from untraced runs (`--trace 0`), per-layer
//! metrics from traced runs (`--trace 1`). Every run reports every metric of
//! its kind, so all workloads share one set of names.

use std::collections::BTreeMap;
use std::fmt::Write as _;

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which an end-to-end metric may worsen.
    pub bound: Option<f64>,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
) -> MetricDef {
    MetricDef { name, unit, better, bound: Some(bound) }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef { name, unit, better, bound: None }
}

/// Times are scaled to reference speed (see `pace`). Every bound is the
/// widest allowed: on the two-vCPU virtual machine the benchmark was tuned
/// on, raw times of one build moved by half between runs, and the scaling
/// removes most but not all of that.
pub const END_TO_END: &[MetricDef] = &[
    // Inputs, engine/service start, live-query registration and warm-up;
    // median of several set-ups in one run.
    e2e("setup_s", "s", "lower", 0.25),
    // Ops per second of op wall time.
    e2e("ops_per_s", "1/s", "higher", 0.25),
    // Read ops.
    e2e("latency_p50_ms", "ms", "lower", 0.25),
    e2e("latency_p99_ms", "ms", "lower", 0.25),
    // Write ops: `LiveSession::apply_update` calls.
    e2e("update_p50_ms", "ms", "lower", 0.25),
    e2e("update_p99_ms", "ms", "lower", 0.25),
    e2e("peak_rss_mb", "MB", "lower", 0.25),
];

/// Per-layer metrics, grouped by the layer whose public calls they time.
/// The end-to-end metric each group should move, and on which workload:
///
/// - `query`: `latency_p50_ms` of `explain-corpora` (about 40% of its op).
/// - `engine` keying and `cache`: `ops_per_s` of `explain-corpora`, and of
///   `hard-tail` through its repeats.
/// - `session`, `par` (one pool per batch): `ops_per_s` of `explain-corpora`.
/// - `dtree`, `core`: `ops_per_s`, `latency_p99_ms` and `peak_rss_mb` of
///   `hard-tail`.
/// - `serve`: the cost of serving a lineage over attributing it in-process,
///   and the cost per request of a burst that fills the queue (a sweep
///   after the loop).
/// - `live`: `update_p50_ms` and `update_p99_ms` of every workload.
/// - `harness`, `op`, `self`: none; they check the trace and its cost.
pub const PER_LAYER: &[MetricDef] = &[
    layer("query.evaluate_ms", "ms", "lower"),
    layer("query.answers", "count", "higher"),
    layer("engine.prekey_us", "us", "lower"),
    layer("engine.canon_us", "us", "lower"),
    layer("engine.backend_us", "us", "lower"),
    layer("cache.hit_ratio", "ratio", "higher"),
    layer("cache.prekey_skip_ratio", "ratio", "higher"),
    layer("cache.canon_steps", "count/op", "lower"),
    layer("cache.canon_searches", "count/op", "lower"),
    layer("cache.entries", "count", "lower"),
    layer("session.overhead_ratio", "ratio", "lower"),
    layer("session.compile_steps", "count/op", "lower"),
    layer("session.cache_hits", "count/op", "higher"),
    layer("par.pool_new_us", "us", "lower"),
    layer("dtree.compile_us_p50", "us", "lower"),
    layer("dtree.compile_us_p99", "us", "lower"),
    layer("dtree.nodes", "count", "lower"),
    layer("core.count_us", "us", "lower"),
    layer("serve.submit_us", "us", "lower"),
    layer("serve.service_us", "us", "lower"),
    layer("serve.overhead_ratio", "ratio", "lower"),
    layer("serve.burst_us", "us", "lower"),
    layer("live.apply_update_us_p50", "us", "lower"),
    layer("live.apply_update_us_p99", "us", "lower"),
    layer("live.touched_answers", "count/update", "lower"),
    layer("live.compile_steps", "count/update", "lower"),
    layer("live.cache_hits", "count/update", "higher"),
    layer("harness.generator_lag_p99_ms", "ms", "lower"),
    layer("harness.trace_overhead_ratio", "ratio", "lower"),
    // The machine's speed during the loop: the median time of the reference
    // work (per-layer times are not scaled).
    layer("harness.reference_ms", "ms", "lower"),
    // The traced op wall and the self time of each layer in it, per op. The
    // self times add up to the wall; `self.unaccounted_us` is what a clock
    // read outside the tracer adds to them: the tracer's cost at the op's
    // edges.
    layer("op.wall_ms", "ms", "lower"),
    layer("op.dtree_core_share", "ratio", "lower"),
    layer("self.harness_ms", "ms", "lower"),
    layer("self.query_ms", "ms", "lower"),
    layer("self.engine_ms", "ms", "lower"),
    layer("self.unaccounted_us", "us", "lower"),
];

fn find(name: &str) -> &'static MetricDef {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("undeclared metric {name}"))
}

/// Everything one run reports.
#[derive(Default)]
pub struct Report {
    values: BTreeMap<&'static str, (f64, String)>,
    /// Notes printed ahead of the result line.
    pub notes: Vec<String>,
    /// Ops attempted and ops that failed, were refused or answered wrongly.
    pub attempted: u64,
    pub failed: u64,
    /// Reasons the run is not a valid measurement.
    pub problems: Vec<String>,
}

impl Report {
    /// Records a metric with a note on how it was measured (may be empty).
    pub fn set(&mut self, name: &'static str, value: f64, note: impl Into<String>) {
        let def = find(name);
        let value = if value.is_finite() {
            value
        } else {
            self.problems.push(format!("{name} is not finite"));
            0.0
        };
        assert!(self.values.insert(def.name, (value, note.into())).is_none(), "{name} set twice");
    }

    pub fn fail(&mut self, count: u64, reason: impl Into<String>) {
        if count > 0 {
            self.failed += count;
            self.notes.push(format!("FAILED {count}: {}", reason.into()));
        }
    }

    /// The human-readable lines and the result line. With `trace` the
    /// metrics are the per-layer ones, otherwise the end-to-end ones; a
    /// missing metric is a problem.
    pub fn render(&mut self, trace: bool) -> String {
        let defs = if trace { PER_LAYER } else { END_TO_END };
        let mut out = String::new();
        for note in &self.notes {
            let _ = writeln!(out, "# {note}");
        }
        let failed_ratio = self.failed as f64 / self.attempted.max(1) as f64;
        let _ = writeln!(
            out,
            "  {:<30} {failed_ratio} ratio ({} of {} ops)",
            "failed_ratio", self.failed, self.attempted
        );
        let mut json = String::new();
        for def in defs {
            let Some((value, note)) = self.values.get(def.name) else {
                self.problems.push(format!("{} was not measured", def.name));
                continue;
            };
            let _ = writeln!(out, "  {:<30} {value} {} {note}", def.name, def.unit);
            let sep = if json.is_empty() { "" } else { ", " };
            let _ = write!(
                json,
                "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                def.name, def.unit
            );
        }
        for problem in &self.problems {
            let _ = writeln!(out, "# PROBLEM: {problem}");
        }
        let correct = self.failed == 0 && self.problems.is_empty() && self.attempted > 0;
        let _ = writeln!(
            out,
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
            self.attempted.max(1),
            self.failed
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn full(defs: &[MetricDef]) -> Report {
        let mut report = Report { attempted: 10, ..Report::default() };
        for (i, def) in defs.iter().enumerate() {
            report.set(def.name, i as f64 + 0.5, "");
        }
        report
    }

    #[test]
    fn names_are_unique_and_end_to_end_bounds_are_in_range() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.name).collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total);
        for m in END_TO_END {
            assert!(m.bound.is_some_and(|b| b > 0.0 && b <= 0.25), "{}", m.name);
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        let widest = END_TO_END.iter().filter_map(|m| m.bound).fold(0.0, f64::max);
        assert_eq!((setup.unit, setup.better, setup.bound), ("s", "lower", Some(widest)));
    }

    #[test]
    fn the_result_line_carries_exactly_the_metrics_of_its_kind() {
        for (trace, defs) in [(false, END_TO_END), (true, PER_LAYER)] {
            let out = full(defs).render(trace);
            let last = out.lines().last().unwrap();
            assert!(last.starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0"));
            assert_eq!(last.matches("\"value\"").count(), defs.len());
            for def in defs {
                assert!(last.contains(&format!("\"{}\": {{\"value\"", def.name)));
            }
        }
    }

    #[test]
    fn a_missing_metric_or_a_failure_makes_the_run_incorrect() {
        let mut report = full(&END_TO_END[1..]);
        assert!(report.render(false).lines().last().unwrap().starts_with("{\"correct\": false"));
        let mut report = full(END_TO_END);
        report.fail(1, "wrong answer");
        assert!(report.render(false).lines().last().unwrap().contains("\"failed\": 1"));
    }
}
