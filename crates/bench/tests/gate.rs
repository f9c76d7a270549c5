//! The spec-driven gate over the committed artifacts: every `gates` entry of
//! `BENCH_baseline.json` passes on the committed root `BENCH_*.json` files,
//! fails once its value moves past its bound, and a malformed spec or
//! artifact is an error (exit 2 in `bench_gate`), never a pass.

use banzhaf_bench::gate::{check, read, run};
use banzhaf_bench::json::Json;
use std::path::{Path, PathBuf};
use std::process::Command;

fn root(file: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..").join(file)
}

fn entries() -> Vec<Json> {
    read(&root("BENCH_baseline.json")).unwrap().get("gates").unwrap().as_array().unwrap().to_vec()
}

fn member<'a>(entry: &'a Json, key: &str) -> &'a str {
    entry.get(key).and_then(Json::as_str).unwrap()
}

/// Replaces the value at a dotted path, as [`Json::at`] reads it.
fn set_at(json: &mut Json, path: &str, value: Json) {
    let mut node = json;
    for step in path.split('.') {
        node = match node {
            Json::Arr(items) => &mut items[step.parse::<usize>().unwrap()],
            Json::Obj(members) => &mut members.iter_mut().rev().find(|(k, _)| k == step).unwrap().1,
            other => panic!("{other} has no member {step}"),
        };
    }
    *node = value;
}

/// A scratch directory holding copies of the committed baseline and the
/// artifacts it names, with `edit` applied to `BENCH_parallel.json`.
fn scratch_copy(name: &str, edit: impl FnOnce(&mut Json)) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("banzhaf-gate-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::copy(root("BENCH_baseline.json"), dir.join("BENCH_baseline.json")).unwrap();
    for entry in entries() {
        let file = member(&entry, "file");
        std::fs::copy(root(file), dir.join(file)).unwrap();
    }
    let mut parallel = read(&dir.join("BENCH_parallel.json")).unwrap();
    edit(&mut parallel);
    std::fs::write(dir.join("BENCH_parallel.json"), format!("{parallel}\n")).unwrap();
    dir
}

fn gate_exit_code(dir: &Path) -> Option<i32> {
    Command::new(env!("CARGO_BIN_EXE_bench_gate"))
        .arg("--baseline")
        .arg(dir.join("BENCH_baseline.json"))
        .output()
        .unwrap()
        .status
        .code()
}

#[test]
fn every_gate_passes_on_the_committed_artifacts() {
    let checks = run(&root("BENCH_baseline.json")).unwrap();
    assert_eq!(checks.len(), entries().len());
    for check in &checks {
        assert!(check.passed, "{}: {}", check.label, check.detail);
    }
}

#[test]
fn every_gate_fails_once_its_value_moves_past_the_bound() {
    for entry in entries() {
        let mut artifact = read(&root(member(&entry, "file"))).unwrap();
        let before = check(&entry, &artifact).unwrap();
        assert!(before.passed, "{}: {}", before.label, before.detail);
        let moved = match &before.bound {
            Json::Num(limit) if entry.get("min").is_some() => Json::Num(limit - 1e-6),
            Json::Num(limit) if entry.get("max").is_some() => Json::Num(limit + 1e-6),
            Json::Num(n) => Json::Num(n + 1.0),
            Json::Bool(b) => Json::Bool(!b),
            other => panic!("no gate bounds a {other}"),
        };
        set_at(&mut artifact, member(&entry, "path"), moved);
        let after = check(&entry, &artifact).unwrap();
        assert!(!after.passed, "{} still passes: {}", after.label, after.detail);
    }
}

#[test]
fn a_parallel_run_is_held_to_the_multicore_bound_only_when_unclamped() {
    let entry = entries().into_iter().find(|e| member(e, "path") == "runs.1.speedup").unwrap();
    let mut parallel = read(&root("BENCH_parallel.json")).unwrap();
    set_at(&mut parallel, "runs.1.effective_threads", Json::Num(1.0));
    set_at(&mut parallel, "runs.1.speedup", Json::Num(1.0));
    let clamped = check(&entry, &parallel).unwrap();
    assert!(clamped.passed, "{}", clamped.detail);
    assert_eq!(clamped.bound, Json::Num(0.75), "{}", clamped.detail);
    set_at(&mut parallel, "runs.1.effective_threads", Json::Num(2.0));
    let unclamped = check(&entry, &parallel).unwrap();
    assert!(!unclamped.passed, "{}", unclamped.detail);
    assert!((unclamped.bound.as_f64().unwrap() - 1.05).abs() < 1e-12, "{}", unclamped.detail);
}

#[test]
fn missing_paths_and_mistyped_values_are_errors() {
    let artifact = Json::parse(r#"{"flag": "yes", "n": 3, "runs": [{"s": true}]}"#).unwrap();
    for case in [
        r#"{"file": "BENCH_x.json", "path": "absent", "equals": true}"#,
        r#"{"file": "BENCH_x.json", "path": "runs.4.s", "equals": true}"#,
        r#"{"file": "BENCH_x.json", "path": "runs.0.s.deeper", "equals": true}"#,
        r#"{"file": "BENCH_x.json", "path": "flag", "equals": true}"#,
        r#"{"file": "BENCH_x.json", "path": "flag", "min": 1}"#,
        r#"{"file": "BENCH_x.json", "path": "runs.0.s", "max": 1}"#,
        r#"{"file": "BENCH_x.json", "path": "runs.0.s", "min": true}"#,
        r#"{"file": "BENCH_x.json", "path": "n", "min": "2"}"#,
        r#"{"file": "BENCH_x.json", "path": "n"}"#,
        r#"{"file": "BENCH_x.json", "path": "n", "min": 1, "max": 5}"#,
        r#"{"file": "BENCH_x.json", "path": "n", "min": 1, "tolerance": "0.25"}"#,
        r#"{"file": "BENCH_x.json", "path": "n", "min": 1, "warn": 1}"#,
        r#"{"file": "BENCH_x.json", "min": 1}"#,
        r#"{"path": "n", "min": 1}"#,
    ] {
        assert!(check(&Json::parse(case).unwrap(), &artifact).is_err(), "{case} must be an error");
    }
}

#[test]
fn bench_gate_exits_0_on_pass_1_on_a_failed_gate_and_2_on_a_broken_input() {
    let passing = scratch_copy("pass", |_| {});
    assert_eq!(gate_exit_code(&passing), Some(0));
    std::fs::remove_dir_all(&passing).unwrap();

    let diverged = scratch_copy("diverged", |p| set_at(p, "bit_identical", Json::Bool(false)));
    assert_eq!(gate_exit_code(&diverged), Some(1));
    std::fs::remove_dir_all(&diverged).unwrap();

    let slow = scratch_copy("slow", |p| set_at(p, "runs.1.speedup", Json::Num(0.5)));
    assert_eq!(gate_exit_code(&slow), Some(1));
    std::fs::remove_dir_all(&slow).unwrap();

    let broken = scratch_copy("broken", |_| {});
    for (file, text) in [
        ("BENCH_parallel.json", "{\"bit_identical\": true"),
        ("BENCH_parallel.json", "{\"bit_identical\": true}"),
        ("BENCH_parallel.json", "{\"bit_identical\": \"true\", \"runs\": []}"),
        ("BENCH_baseline.json", "{\"note\": \"no gates array\"}"),
    ] {
        std::fs::write(broken.join(file), text).unwrap();
        assert_eq!(gate_exit_code(&broken), Some(2), "{file}: {text}");
    }
    std::fs::remove_file(broken.join("BENCH_baseline.json")).unwrap();
    assert_eq!(gate_exit_code(&broken), Some(2), "a missing baseline");
    for file in ["BENCH_baseline.json", "BENCH_parallel.json"] {
        std::fs::copy(root(file), broken.join(file)).unwrap();
    }
    std::fs::remove_file(broken.join("BENCH_serve.json")).unwrap();
    assert_eq!(gate_exit_code(&broken), Some(2), "a missing artifact");
    std::fs::remove_dir_all(&broken).unwrap();

    let usage = Command::new(env!("CARGO_BIN_EXE_bench_gate")).arg("--tolerance").output().unwrap();
    assert_eq!(usage.status.code(), Some(2));
}
