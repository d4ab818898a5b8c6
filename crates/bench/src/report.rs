//! Machine-readable experiment output: every experiment binary accepts
//! `--json <path>` and, when given, writes the numbers behind its printed
//! table as a JSON array of `{experiment, device, config, metrics}` records.

use crate::json::{obj, Json};

/// Collects one record per measured point and writes them all at exit.
pub struct Report {
    experiment: String,
    records: Vec<Json>,
    path: Option<String>,
}

impl Report {
    /// A report for `experiment`, writing to `--json <path>` if the flag was
    /// present on the command line (consumes nothing; binaries with their own
    /// arg parsing can use [`Report::to_path`]).
    pub fn from_args(experiment: &str) -> Self {
        Report::to_path(experiment, json_arg())
    }

    pub fn to_path(experiment: &str, path: Option<String>) -> Self {
        Report {
            experiment: experiment.to_string(),
            records: Vec::new(),
            path,
        }
    }

    /// Record one measured point. `config` identifies the grid point
    /// (layer, batch, algorithm, ...), `metrics` holds the measured values.
    pub fn add(&mut self, device: &str, config: &[(&str, Json)], metrics: &[(&str, Json)]) {
        self.records.push(obj(&[
            ("experiment", self.experiment.as_str().into()),
            ("device", device.into()),
            ("config", obj(config)),
            ("metrics", obj(metrics)),
        ]));
    }

    /// The collected records as the text [`Report::finish`] writes.
    pub fn render(&self) -> String {
        render_records(&self.records)
    }

    /// Write the collected records if a path was given. Call once, last.
    pub fn finish(&self) {
        let Some(path) = &self.path else { return };
        std::fs::write(path, self.render())
            .unwrap_or_else(|e| panic!("failed to write --json {path}: {e}"));
        eprintln!("[json] wrote {} records to {path}", self.records.len());
    }
}

/// One record per line inside the array — grep-able, still valid JSON.
fn render_records(records: &[Json]) -> String {
    let mut s = String::from("[\n");
    for (i, r) in records.iter().enumerate() {
        s.push_str("  ");
        s.push_str(&r.render());
        if i + 1 < records.len() {
            s.push(',');
        }
        s.push('\n');
    }
    s.push_str("]\n");
    s
}

/// `--json PATH` and `--metrics`: the flags every experiment binary takes.
pub const REPORT_FLAGS: &[&str] = &["--json PATH", "--metrics"];

/// The sweep engine's flags, read by [`crate::sweep::SweepOptions::from_args`].
pub const SWEEP_FLAGS: &[&str] = &[
    "--jobs N",
    "--cache",
    "--no-cache",
    "--cache-dir DIR",
    "--selfcheck",
];

/// What a command line asks a binary to do.
#[derive(Debug, PartialEq, Eq)]
enum Cli {
    Run,
    Help,
    /// A bad command line, and why.
    Bad(String),
}

/// What [`check_args`] makes of `args` (program name excluded).
fn parse_cli(args: &[String], flags: &[&[&str]]) -> Cli {
    let specs = flags.iter().flat_map(|group| group.iter());
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--help" || a == "-h" {
            return Cli::Help;
        }
        if !a.starts_with('-') {
            return Cli::Bad(format!("unexpected argument {a}"));
        }
        match specs
            .clone()
            .find(|s| s.split(' ').next() == Some(a.as_str()))
        {
            None => return Cli::Bad(format!("unknown flag {a}")),
            Some(s) if s.contains(' ') && it.next().is_none() => {
                return Cli::Bad(format!("{a} needs a value"))
            }
            Some(_) => {}
        }
    }
    Cli::Run
}

/// Check the process arguments against `bin`'s flag specs, each `--flag`
/// or `--flag VALUE`, before it does any work. `--help` or `-h` prints the
/// usage to stdout and exits 0; an unknown flag, a flag without its value
/// or an operand prints what is wrong and the usage to stderr and exits 2.
/// Neither writes a file.
pub fn check_args(bin: &str, flags: &[&[&str]]) {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut usage = format!("usage: {bin}");
    for spec in flags.iter().flat_map(|group| group.iter()) {
        usage += &format!(" [{spec}]");
    }
    match parse_cli(&args, flags) {
        Cli::Run => {}
        Cli::Help => {
            println!("{usage}");
            std::process::exit(0);
        }
        Cli::Bad(why) => {
            eprintln!("{bin}: {why}\n{usage}");
            std::process::exit(2);
        }
    }
}

/// Extract `--json <path>` from the process arguments, if present.
pub fn json_arg() -> Option<String> {
    flag_value(&std::env::args().collect::<Vec<_>>(), "--json")
}

/// Find `<flag> <value>` in an argv slice.
pub fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1).cloned())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    #[test]
    fn records_round_trip() {
        let mut r = Report::to_path("table2", None);
        r.add(
            "V100",
            &[("layer", "Conv2".into()), ("n", 64usize.into())],
            &[("speedup", 1.42f64.into())],
        );
        r.add(
            "V100",
            &[("layer", "Conv3".into())],
            &[("speedup", 2.0f64.into())],
        );
        let text = render_records(&r.records);
        let back = parse(&text).unwrap();
        let arr = back.as_arr().unwrap();
        assert_eq!(arr.len(), 2);
        assert_eq!(arr[0].get("experiment").unwrap().as_str(), Some("table2"));
        assert_eq!(
            arr[0].get("config").unwrap().get("n").unwrap().as_f64(),
            Some(64.0)
        );
        assert_eq!(
            arr[1]
                .get("metrics")
                .unwrap()
                .get("speedup")
                .unwrap()
                .as_f64(),
            Some(2.0)
        );
    }

    #[test]
    fn cli_rejects_unknown_flags_and_answers_help() {
        let args = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let flags: &[&[&str]] = &[REPORT_FLAGS, &["--smoke"]];
        let check = |v: &[&str]| parse_cli(&args(v), flags);
        assert_eq!(check(&[]), Cli::Run);
        assert_eq!(
            check(&["--smoke", "--json", "out.json", "--metrics"]),
            Cli::Run
        );
        assert_eq!(check(&["--smoke", "--help"]), Cli::Help);
        assert_eq!(check(&["-h"]), Cli::Help);
        assert_eq!(check(&["--bogus"]), Cli::Bad("unknown flag --bogus".into()));
        assert_eq!(check(&["--json"]), Cli::Bad("--json needs a value".into()));
        assert_eq!(
            check(&["stray"]),
            Cli::Bad("unexpected argument stray".into())
        );
        // A flag's value may look like a flag.
        assert_eq!(check(&["--json", "--smoke"]), Cli::Run);
    }

    #[test]
    fn flag_value_finds_pairs() {
        let args: Vec<String> = ["bin", "--json", "out.json", "--n", "64"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(flag_value(&args, "--json").as_deref(), Some("out.json"));
        assert_eq!(flag_value(&args, "--trace"), None);
        assert_eq!(flag_value(&args, "64"), None);
    }
}
