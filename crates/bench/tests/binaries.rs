//! Command-line behaviour shared by every `bench` binary, the closed-form
//! experiments end to end, and the docs-link check, run as tier-1 tests.
//!
//! Every binary checks its arguments before any work, through
//! `bench::report::check_args` (`metricsdiff` through its own `run_cli`,
//! which takes operands): an unknown flag exits 2 and `--help` exits 0, and
//! neither may write a file, not even a binary's default `BENCH_*.json`.

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

/// The closed-form experiments (roofline, break-even, kernel parameters,
/// workspace) compute their points inline, without the sweep cache, in
/// milliseconds. Each runs end to end in a temp dir and writes a `--json`
/// report of records that parses; `fig14` runs without `--metrics`, which
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
