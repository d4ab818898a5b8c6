//! The benchmark's output matches `BENCHMARK.json`: every workload, run at
//! smoke size, passes its checks and prints exactly the declared metrics
//! with their units — the end-to-end set plain, the per-layer set traced,
//! and both sets in the traced run's result file.

use std::path::Path;
use std::process::Command;

use bench::json::{parse, Json};

fn manifest() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    parse(&text).expect("BENCHMARK.json parses")
}

fn list<'a>(m: &'a Json, key: &str) -> &'a [Json] {
    m.get(key)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key} list"))
}

fn field<'a>(entry: &'a Json, key: &str) -> &'a str {
    entry
        .get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("entry without {key}: {}", entry.render()))
}

/// `(name, unit)` of every metric declared under `key`.
fn declared(m: &Json, key: &str) -> Vec<(String, String)> {
    list(m, key)
        .iter()
        .map(|e| (field(e, "name").to_string(), field(e, "unit").to_string()))
        .collect()
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'.' || b == b'-')
}

/// Run one workload at smoke size and parse the result line.
fn run(workload: &str, trace: &str) -> Json {
    let out = Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .args([
            "--workload",
            workload,
            "--seed",
            "11",
            "--smoke",
            "--trace",
            trace,
        ])
        .output()
        .expect("spawn the benchmark");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} --trace {trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    parse(last).unwrap_or_else(|e| panic!("{workload}: result line {last:?}: {e}"))
}

#[test]
fn smoke_output_matches_the_manifest() {
    let m = manifest();
    let e2e = declared(&m, "end_to_end");
    let per_layer = declared(&m, "per_layer");
    assert!(
        (1..=16).contains(&e2e.len()),
        "{} end-to-end metrics",
        e2e.len()
    );
    assert!(
        (1..=128).contains(&per_layer.len()),
        "{} per-layer metrics",
        per_layer.len()
    );
    let mut names: Vec<&str> = e2e
        .iter()
        .chain(&per_layer)
        .map(|(n, _)| n.as_str())
        .collect();
    assert!(
        names.iter().all(|n| valid_name(n)),
        "bad metric name in {names:?}"
    );
    names.sort_unstable();
    names.dedup();
    assert_eq!(
        names.len(),
        e2e.len() + per_layer.len(),
        "metric names repeat"
    );
    assert!(e2e.iter().any(|(n, u)| n == "setup_s" && u == "s"));

    let workloads: Vec<&str> = list(&m, "workloads")
        .iter()
        .map(|w| field(w, "name"))
        .collect();
    assert!(workloads.iter().all(|w| valid_name(w)));
    for w in workloads {
        for (trace, want) in [("0", &e2e), ("1", &per_layer)] {
            let r = run(w, trace);
            assert_eq!(
                r.get("correct"),
                Some(&Json::Bool(true)),
                "{w}: {}",
                r.render()
            );
            assert_eq!(r.get("failed").and_then(Json::as_f64), Some(0.0));
            assert!(r
                .get("attempted")
                .and_then(Json::as_f64)
                .is_some_and(|a| a >= 1.0));
            assert_eq!(&metric_units(&r), want, "{w} --trace {trace}");
            if trace == "0" {
                for (name, v) in metric_values(&r) {
                    assert!(v > 0.0 && v.is_finite(), "{w}: {name} = {v}");
                }
            }
        }
        // The traced result file keeps the end-to-end metrics too.
        let path =
            Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("out/{w}-seed11-trace1-smoke.json"));
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
        let file = parse(text.trim()).expect("the traced result file parses");
        let both: Vec<(String, String)> = e2e.iter().chain(&per_layer).cloned().collect();
        assert_eq!(metric_units(&file), both, "{w}: traced result file");
        for (name, v) in metric_values(&file).into_iter().take(e2e.len()) {
            assert!(v > 0.0 && v.is_finite(), "{w} traced: {name} = {v}");
        }
    }
}

fn metrics(r: &Json) -> &[(String, Json)] {
    match r.get("metrics") {
        Some(Json::Obj(m)) => m,
        _ => panic!("no metrics object in {}", r.render()),
    }
}

/// `(name, unit)` of every metric in a result, in order.
fn metric_units(r: &Json) -> Vec<(String, String)> {
    metrics(r)
        .iter()
        .map(|(name, m)| (name.clone(), field(m, "unit").to_string()))
        .collect()
}

/// `(name, value)` of every metric in a result, in order.
fn metric_values(r: &Json) -> Vec<(&str, f64)> {
    metrics(r)
        .iter()
        .map(|(name, m)| {
            let v = m
                .get("value")
                .and_then(Json::as_f64)
                .expect("numeric value");
            (name.as_str(), v)
        })
        .collect()
}
