//! `BENCHMARK.json` at the repository root describes this package to the
//! acceptance driver. It is written by hand, so this test holds it against
//! the tables in the code: a metric renamed in one place and not the other
//! would otherwise surface only as a rejected run.

use std::path::PathBuf;

use mocha_perf::json::Json;
use mocha_perf::probes::AllocCounter;
use mocha_perf::result::END_TO_END;
use mocha_perf::run::{run_workload, RunOptions};
use mocha_perf::workload::{ALL, WAN_SIM};

fn benchmark_json() -> Json {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    Json::parse(&text).expect("BENCHMARK.json is JSON")
}

fn entries<'a>(doc: &'a Json, key: &str) -> &'a [Json] {
    match doc.get(key) {
        Some(Json::Arr(items)) => items,
        other => panic!("BENCHMARK.json: {key} is {other:?}"),
    }
}

fn text<'a>(entry: &'a Json, key: &str) -> &'a str {
    entry
        .get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("{key} missing in {entry:?}"))
}

#[test]
fn keys_command_and_paths_are_what_the_contract_allows() {
    let doc = benchmark_json();
    let keys: Vec<&str> = doc
        .as_obj()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    assert_eq!(entries(&doc, "paths"), [Json::str("mocha-perf")]);
    let command: Vec<&str> = entries(&doc, "command")
        .iter()
        .map(|c| c.as_str().unwrap())
        .collect();
    assert!(command.contains(&"mocha-perf/Cargo.toml") && command.last() == Some(&"run"));
    assert!(command
        .iter()
        .all(|c| !c.starts_with('/') && !c.contains("..")));
    assert_eq!(doc.get("run_seconds").and_then(Json::as_f64), Some(30.0));
}

#[test]
fn workloads_and_end_to_end_metrics_match_the_code() {
    let doc = benchmark_json();
    let listed: Vec<(&str, String)> = entries(&doc, "workloads")
        .iter()
        .map(|w| (text(w, "name"), text(w, "why").to_string()))
        .collect();
    let coded: Vec<(&str, String)> = ALL
        .iter()
        .map(|w| {
            (
                w.name,
                w.why.split_whitespace().collect::<Vec<_>>().join(" "),
            )
        })
        .collect();
    assert_eq!(listed, coded);
    assert!(listed
        .iter()
        .all(|(_, why)| why.len() <= 200 && !why.contains('\n')));

    let listed: Vec<(&str, &str, &str, f64)> = entries(&doc, "end_to_end")
        .iter()
        .map(|m| {
            (
                text(m, "name"),
                text(m, "unit"),
                text(m, "better"),
                m.get("bound").and_then(Json::as_f64).unwrap(),
            )
        })
        .collect();
    let coded: Vec<(&str, &str, &str, f64)> = END_TO_END
        .iter()
        .map(|m| (m.name, m.unit, m.better.name(), m.bound))
        .collect();
    assert_eq!(listed, coded);
}

#[test]
fn per_layer_metrics_match_what_a_traced_run_reports() {
    let doc = benchmark_json();
    let listed: Vec<(&str, &str, &str)> = entries(&doc, "per_layer")
        .iter()
        .map(|m| (text(m, "name"), text(m, "unit"), text(m, "better")))
        .collect();
    assert!(listed.len() <= 128);

    // Next to the test binary, so inside the build directory.
    let scratch = std::env::current_exe()
        .unwrap()
        .with_file_name(format!("contract-test-{}", std::process::id()));
    let opts = RunOptions {
        seed: 1,
        seconds: 2.0,
        trace: true,
        smoke: true,
        scratch: scratch.clone(),
        allocs: AllocCounter::disabled(),
    };
    let out = run_workload(WAN_SIM, &opts).expect("traced smoke run");
    let _ = std::fs::remove_dir_all(&scratch);
    assert!(out.result.valid(), "{:?}", out.result.failures);
    let reported: Vec<(&str, &str, &str)> = out
        .result
        .per_layer
        .iter()
        .map(|m| (m.name, m.unit, m.better.name()))
        .collect();
    assert_eq!(listed, reported);

    // The driver's line for a traced run carries exactly those metrics.
    let line = Json::parse(&out.result.contract_line()).unwrap();
    let names: Vec<&str> = line
        .get("metrics")
        .and_then(Json::as_obj)
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(names, listed.iter().map(|m| m.0).collect::<Vec<_>>());
}
