//! Command-line behaviour shared by every `bench` binary, and the docs-link
//! check, run as tier-1 tests.
//!
//! Every binary checks its arguments before any work, through
//! `bench::report::check_args` (`metricsdiff` through its own `run_cli`,
//! which takes operands): an unknown flag exits 2 and `--help` exits 0, and
//! neither may write a file, not even a binary's default `BENCH_*.json`.

use std::path::Path;
use std::process::Command;

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
