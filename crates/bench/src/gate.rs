//! The perf regression gate behind `bench_gate`, driven by the `"gates"`
//! array of `BENCH_baseline.json`.
//!
//! Each entry names an artifact `file` (relative to the baseline), a dotted
//! `path` into it (see [`Json::at`]) and exactly one bound:
//!
//! * `"min"`: the value must be at least `min × (1 − tolerance)`;
//! * `"max"`: the value must be at most `max × (1 + tolerance)`;
//! * `"equals"`: the value must equal this JSON value (a `true` flag, say).
//!
//! `"tolerance"` defaults to 0. An entry with `"warn": true` reports a miss
//! as a warning rather than a failure. One rule is not a plain bound: a
//! `min` on a member of an object whose `effective_threads` is below its
//! `threads` (a parallel run the machine clamped to fewer workers) is held
//! to `min(bound, 1.0)`, since no parallelism ran that could have regressed.
//!
//! The gate holds only what tier-1 cannot: wall-clock ratios and the
//! correctness flags of experiments too slow for `cargo test`. The seeded,
//! deterministic checks are unit tests in [`crate::experiments`].

use crate::json::Json;
use std::path::Path;

/// The verdict on one `gates` entry.
#[derive(Debug)]
pub struct Check {
    /// The artifact's name without `BENCH_` and `.json`, then the path:
    /// `parallel.runs.1.speedup`.
    pub label: String,
    /// Whether the value is within its bound.
    pub passed: bool,
    /// Whether a miss only warns.
    pub warn: bool,
    /// The bound the value was held to, after tolerance and clamp.
    pub bound: Json,
    /// The measured value against its bound, for the log.
    pub detail: String,
}

/// Reads and parses one JSON file.
pub fn read(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("cannot parse {}: {e}", path.display()))
}

/// Checks every `gates` entry of the baseline at `baseline_path` against the
/// artifacts in the baseline's directory.
pub fn run(baseline_path: &Path) -> Result<Vec<Check>, String> {
    let dir = baseline_path.parent().unwrap_or(Path::new(""));
    let baseline = read(baseline_path)?;
    let gates = baseline
        .get("gates")
        .and_then(Json::as_array)
        .ok_or_else(|| format!("{} has no \"gates\" array", baseline_path.display()))?;
    gates.iter().map(|entry| check(entry, &read(&dir.join(text(entry, "file")?))?)).collect()
}

/// Checks one `gates` entry against its parsed artifact. A malformed entry,
/// a missing path or a value of the wrong type is an error, never a pass.
pub fn check(entry: &Json, artifact: &Json) -> Result<Check, String> {
    let file = text(entry, "file")?;
    let path = text(entry, "path")?;
    let label = format!("{}.{path}", file.trim_start_matches("BENCH_").trim_end_matches(".json"));
    let value = artifact.at(path).ok_or_else(|| format!("{file} has no \"{path}\""))?;
    let tolerance = match entry.get("tolerance") {
        None => 0.0,
        Some(t) => t.as_f64().ok_or_else(|| format!("{label}: tolerance is not a number"))?,
    };
    let warn = match entry.get("warn") {
        None => false,
        Some(w) => w.as_bool().ok_or_else(|| format!("{label}: warn is not a boolean"))?,
    };
    let bounds: Vec<(&str, &Json)> =
        ["min", "max", "equals"].into_iter().filter_map(|k| Some((k, entry.get(k)?))).collect();
    let [(kind, bound)] = bounds[..] else {
        return Err(format!("{label}: give exactly one of min, max and equals"));
    };
    if std::mem::discriminant(value) != std::mem::discriminant(bound) {
        return Err(format!("{label}: {value} and its bound {bound} differ in type"));
    }
    if kind == "equals" {
        let detail = format!("{value}, must equal {bound}");
        return Ok(Check { label, passed: value == bound, warn, bound: bound.clone(), detail });
    }
    let (Json::Num(measured), Json::Num(mut base)) = (value, bound) else {
        return Err(format!("{label}: {kind} needs a number, got {value}"));
    };
    // The clamp reads the object that holds the value: a run's own
    // `threads` and `effective_threads`.
    let holder = path.rsplit_once('.').map_or(Some(artifact), |(parent, _)| artifact.at(parent));
    let clamped = holder.is_some_and(|run| {
        let field = |key| run.get(key).and_then(Json::as_f64);
        matches!((field("effective_threads"), field("threads")), (Some(e), Some(t)) if e < t)
    });
    if kind == "min" && clamped {
        base = base.min(1.0);
    }
    let (passed, limit, op) = if kind == "min" {
        let floor = base * (1.0 - tolerance);
        (*measured >= floor, floor, ">=")
    } else {
        let ceiling = base * (1.0 + tolerance);
        (*measured <= ceiling, ceiling, "<=")
    };
    let detail = format!(
        "measured {measured}, must be {op} {limit:.3} ({kind} {base} with tolerance {tolerance}{})",
        if clamped { "; clamped to fewer effective workers, degenerate 1.0 bar" } else { "" }
    );
    Ok(Check { label, passed, warn, bound: Json::Num(limit), detail })
}

/// The string member `key` of a gate entry.
fn text<'a>(entry: &'a Json, key: &str) -> Result<&'a str, String> {
    entry.get(key).and_then(Json::as_str).ok_or_else(|| format!("gate entry {entry} has no {key}"))
}
