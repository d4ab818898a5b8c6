//! Command-line behaviour shared by every `bench` binary, `servemon`'s
//! burn-rate table, the closed-form experiments end to end, and the
//! docs-link check, run as tier-1 tests.
//!
//! Every binary checks its arguments before any work, through
//! `bench::report::check_args`: an unknown flag exits 2 and `--help` exits
//! 0, and neither may write a file, not even a binary's default
//! `BENCH_*.json`.

use std::path::Path;
use std::process::Command;

use gpusim::json::{parse, Json};

#[test]
fn unknown_flag_and_help_exit_before_any_work() {
    let dir = std::env::temp_dir().join(format!("bench_cli_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let run = |bin: &str, flag: &str| {
        let out = Command::new(bin)
            .arg(flag)
            .current_dir(&dir)
            .output()
            .expect("binary runs");
        (
            out.status.code(),
            String::from_utf8_lossy(&out.stdout).into_owned(),
        )
    };
    let (code, _) = run(env!("CARGO_BIN_EXE_simspeed"), "--bogus");
    assert_eq!(code, Some(2), "simspeed --bogus");
    let (code, stdout) = run(env!("CARGO_BIN_EXE_resnet"), "--help");
    assert_eq!(code, Some(0), "resnet --help");
    assert!(stdout.starts_with("usage: resnet"), "{stdout}");
    let left: Vec<_> = std::fs::read_dir(&dir).unwrap().collect();
    std::fs::remove_dir_all(&dir).unwrap();
    assert!(left.is_empty(), "wrote {left:?}");
}

/// `servemon --window-ms` below one nanosecond (zero, negative or NaN)
/// is a usage error, exit 2, not a division by a zero-length window; one
/// nanosecond replays the log.
#[test]
fn servemon_rejects_windows_under_a_nanosecond() {
    let dir = std::env::temp_dir().join(format!("bench_servemon_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let log = dir.join("events.jsonl");
    std::fs::write(
        &log,
        concat!(
            r#"{"t":0,"kind":"arrival","device":"V100","phase":"warm","id":0}"#,
            "\n",
            r#"{"t":5,"kind":"complete","device":"V100","phase":"warm","id":0,"#,
            r#""class":"Conv2","latency_ns":5,"wait_ns":1,"batch":0,"miss":false}"#,
            "\n",
        ),
    )
    .unwrap();
    for (window_ms, code) in [("0", 2), ("-1", 2), ("NaN", 2), ("1e-7", 2), ("1e-6", 0)] {
        let out = Command::new(env!("CARGO_BIN_EXE_servemon"))
            .arg("--log")
            .arg(&log)
            .args(["--window-ms", window_ms])
            .output()
            .expect("servemon runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(
            out.status.code(),
            Some(code),
            "--window-ms {window_ms}: {stderr}"
        );
        if code == 2 {
            assert!(stderr.contains("usage: servemon"), "{stderr}");
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// `servemon --log LOG` plus `extra` flags over a one-context log; the
/// rows of its burn-rate table, split into cells.
fn burn_rows(log: &str, extra: &[&str]) -> Vec<Vec<String>> {
    let dir = std::env::temp_dir().join(format!("bench_burn_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("events.jsonl");
    std::fs::write(&path, log).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_servemon"))
        .arg("--log")
        .arg(&path)
        .args(extra)
        .output()
        .expect("servemon runs");
    std::fs::remove_dir_all(&dir).unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    // The table is a header, a rule, then its rows up to the next table.
    stdout
        .lines()
        .skip_while(|l| !l.trim_start().starts_with("window ms"))
        .skip(2)
        .take_while(|l| !l.starts_with("top "))
        .map(|l| l.split_whitespace().map(str::to_string).collect())
        .collect()
}

/// A completion line of a `serve --events` log.
fn completion(t: u64, id: u64, miss: bool) -> String {
    let cause = if miss { "queueing" } else { "none" };
    format!(
        r#"{{"t":{t},"kind":"complete","device":"V100","phase":"warm","id":{id},"class":"Conv2","latency_ns":{t},"wait_ns":1,"batch":0,"miss":{miss},"cause":"{cause}"}}"#
    ) + "\n"
}

/// `servemon`'s burn table has one row per window that holds a completion,
/// labelled at the window's resolution, and burns a window's miss fraction
/// over the error budget.
#[test]
fn servemon_burn_table_rows_are_the_nonempty_windows() {
    // One completion at 0.2 ms in 1 ns windows: one row, labelled 0.2 ms,
    // not 200,001 rows from time 0 all labelled 0.
    let arrival = r#"{"t":0,"kind":"arrival","device":"V100","phase":"warm","id":0}"#;
    let log = format!("{arrival}\n{}", completion(200_000, 0, false));
    let rows = burn_rows(&log, &["--window-ms", "1e-6"]);
    assert_eq!(rows.len(), 1, "{rows:?}");
    assert_eq!(rows[0][0], "0.200000");
    assert_eq!(rows[0][1], "1");

    // One miss among N completions in one window burns (1/N)/(1 − target).
    let n = 4;
    let log: String = (0..n)
        .map(|i| completion(1_000 * (i + 1), i, i == 2))
        .collect();
    let rows = burn_rows(&log, &["--slo-target", "0.99"]);
    assert_eq!(rows.len(), 1, "{rows:?}");
    let burn = (1.0 / n as f64) / (1.0 - 0.99);
    assert_eq!(
        rows[0][1..5],
        [n.to_string(), "1".into(), format!("{burn:.2}"), "1".into()]
    );
}

/// The closed-form experiments (roofline, break-even, kernel parameters,
/// workspace) compute their points inline, without the sweep cache, in
/// milliseconds. Each runs end to end in a temp dir and writes a `--json`
/// report of records that parses. `fig2`, `breakeven` and `table7` run
/// with `--metrics`, and each report must equal its committed record in
/// `baselines/` byte for byte; `fig14` runs without `--metrics`, which
/// would simulate.
#[test]
fn analytic_experiments_write_parseable_reports() {
    let dir = std::env::temp_dir().join(format!("bench_analytic_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for (bin, metrics) in [
        (env!("CARGO_BIN_EXE_fig2"), true),
        (env!("CARGO_BIN_EXE_breakeven"), true),
        (env!("CARGO_BIN_EXE_table7"), true),
        (env!("CARGO_BIN_EXE_fig14"), false),
    ] {
        let name = Path::new(bin).file_name().unwrap().to_string_lossy();
        let report = dir.join(format!("{name}.json"));
        let mut cmd = Command::new(bin);
        if metrics {
            cmd.arg("--metrics");
        }
        let out = cmd
            .arg("--json")
            .arg(&report)
            .current_dir(&dir)
            .output()
            .expect("binary runs");
        assert!(
            out.status.success(),
            "{name}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let text = std::fs::read_to_string(&report).unwrap();
        if metrics {
            let record = Path::new(env!("CARGO_MANIFEST_DIR"))
                .join("../../baselines")
                .join(format!("{name}.json"));
            let committed = std::fs::read_to_string(&record).unwrap();
            assert!(
                text == committed,
                "{name}: the report differs from {}; regenerate it (EXPERIMENTS.md, \
                 \"Regenerating everything\")",
                record.display()
            );
        }
        let records = parse(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        let records = records.as_arr().expect("an array of records");
        assert!(!records.is_empty(), "{name} wrote no records");
        for r in records {
            assert!(
                matches!(r.get("metrics"), Some(Json::Obj(_))),
                "{name}: {r:?}"
            );
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Every relative link and heading anchor in README.md, EXPERIMENTS.md and
/// `docs/**` resolves (the `doclinks` binary, from the repository root).
#[test]
fn doc_links_resolve() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let out = Command::new(env!("CARGO_BIN_EXE_doclinks"))
        .current_dir(&root)
        .output()
        .expect("doclinks runs");
    assert!(
        out.status.success(),
        "{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
}
