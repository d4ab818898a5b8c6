//! Machine-readable experiment output and the one measuring call.
//!
//! Every experiment binary accepts `--json <path>` and, when given, writes
//! the numbers behind its printed table as a JSON array of
//! `{experiment, device, config, metrics}` records. [`Report::measure`]
//! times a binary's grid of [`Point`]s on the sweep engine named after the
//! experiment; under `--metrics` it also runs the counted sweep
//! `<experiment>-metrics` over the same points and queues one
//! `kind=metrics` record per simulated point ([`crate::metrics`]), which
//! [`Report::finish`] writes after the records the binary added. A report
//! reads `--metrics` and the sweep engine's flags from the command line
//! when it is opened.

use wino_core::{AlgoTiming, Observe};

use crate::json::{obj, Json};
use crate::simcache::{algo_timing_from_json, algo_timing_to_json, CacheKey};
use crate::sweep::{Sweep, SweepOptions};
use crate::{metrics, Point};

/// Collects one record per measured point and writes them all at exit.
pub struct Report {
    experiment: String,
    records: Vec<Json>,
    /// `Some` under `--metrics`: the `kind=metrics` records of the points
    /// [`Report::count`] ran, written after `records`.
    counted: Option<Vec<Json>>,
    /// The sweep engine's options, from the command line.
    sweep: SweepOptions,
    path: Option<String>,
}

impl Report {
    /// A report for `experiment`, writing to `--json <path>` if the flag was
    /// present on the command line (binaries with their own arg parsing can
    /// use [`Report::to_path`]).
    pub fn from_args(experiment: &str) -> Self {
        Report::to_path(experiment, json_arg())
    }

    /// A report for `experiment` writing to `path`, with `--metrics` and the
    /// sweep engine's flags ([`SweepOptions::from_args`]) read from the
    /// command line.
    pub fn to_path(experiment: &str, path: Option<String>) -> Self {
        let metrics = std::env::args().any(|a| a == "--metrics");
        Report {
            experiment: experiment.to_string(),
            records: Vec::new(),
            counted: metrics.then(Vec::new),
            sweep: SweepOptions::from_args(),
            path,
        }
    }

    fn record(&self, device: &str, config: Json, metrics: Json) -> Json {
        obj(&[
            ("experiment", self.experiment.as_str().into()),
            ("device", device.into()),
            ("config", config),
            ("metrics", metrics),
        ])
    }

    /// Record one measured point. `config` identifies the grid point
    /// (layer, batch, algorithm, ...), `metrics` holds the measured values.
    pub fn add(&mut self, device: &str, config: &[(&str, Json)], metrics: &[(&str, Json)]) {
        self.records
            .push(self.record(device, obj(config), obj(metrics)));
    }

    /// Under `--metrics`, record one analytic point's `kind=metrics` record
    /// in place (the roofline classifications of `fig2`, `breakeven` and
    /// `table7`); otherwise nothing.
    pub fn add_metrics(&mut self, device: &str, config: &[(&str, Json)], metrics: &[(&str, Json)]) {
        if self.counted.is_some() {
            let config = with_metrics_kind(config);
            self.records.push(self.record(device, config, obj(metrics)));
        }
    }

    /// Time every point on the sweep engine named after the experiment
    /// (each content-addressed by [`wino_core::Conv::key`], so cached and
    /// fresh results are indistinguishable bit for bit), then [`count`]
    /// them. Returns the timings in point order.
    ///
    /// [`count`]: Report::count
    pub fn measure(&mut self, points: &[Point]) -> Vec<AlgoTiming> {
        let mut sweep = Sweep::new(&self.experiment, self.sweep.clone());
        for p in points {
            let (conv, target) = (p.conv.clone(), p.target);
            sweep.point(CacheKey::from_digest(&conv.key(target)), move || {
                algo_timing_to_json(&conv.measure(target, Observe::default()))
            });
        }
        let results = sweep.run().results;
        self.count(points);
        let timing = |r| algo_timing_from_json(r).expect("valid algo-timing cache record");
        results.iter().map(timing).collect()
    }

    /// Under `--metrics`, run the counted sweep `<experiment>-metrics` over
    /// `points` and queue one `kind=metrics` record per point that simulates
    /// a kernel (the analytic FFT algorithms do not); otherwise nothing.
    /// [`Report::measure`] calls it; a binary that times nothing calls it
    /// alone.
    pub fn count(&mut self, points: &[Point]) {
        let Some(mut queue) = self.counted.take() else {
            return;
        };
        let name = format!("{}-metrics", self.experiment);
        let mut sweep = Sweep::new(&name, self.sweep.clone());
        for p in points {
            let p = p.clone();
            sweep.point(metrics::counted_key(&p), move || metrics::counted(&p));
        }
        let results = sweep.run().results;
        for (p, m) in points.iter().zip(results) {
            if m != Json::Null {
                queue.push(self.record(p.conv.device.name, with_metrics_kind(&p.config), m));
            }
        }
        self.counted = Some(queue);
    }

    /// The queued `kind=metrics` records; `None` without `--metrics`.
    pub fn counted(&self) -> Option<&[Json]> {
        self.counted.as_deref()
    }

    fn all_records(&self) -> impl Iterator<Item = &Json> {
        self.records.iter().chain(self.counted.iter().flatten())
    }

    /// The collected records as the text [`Report::finish`] writes.
    pub fn render(&self) -> String {
        render_records(self.all_records())
    }

    /// Write the collected records if a path was given. Call once, last.
    pub fn finish(&self) {
        let Some(path) = &self.path else { return };
        std::fs::write(path, self.render())
            .unwrap_or_else(|e| panic!("failed to write --json {path}: {e}"));
        let n = self.all_records().count();
        eprintln!("[json] wrote {n} records to {path}");
    }
}

/// `config` tagged with the `kind=metrics` marker that distinguishes a
/// metrics record from the timing record of the same grid point.
fn with_metrics_kind(config: &[(&str, Json)]) -> Json {
    let mut c = config.to_vec();
    c.push(("kind", "metrics".into()));
    obj(&c)
}

/// One record per line inside the array — grep-able, still valid JSON.
fn render_records<'a>(records: impl Iterator<Item = &'a Json>) -> String {
    let mut s = String::from("[\n");
    let mut records = records.peekable();
    while let Some(r) = records.next() {
        s.push_str("  ");
        s.push_str(&r.render());
        if records.peek().is_some() {
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
pub const SWEEP_FLAGS: &[&str] = &["--jobs N", "--no-cache", "--cache-dir DIR", "--selfcheck"];

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
fn json_arg() -> Option<String> {
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
        let text = r.render();
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
        // Caching is the sweep's default; there is no `--cache` to force it.
        assert_eq!(
            parse_cli(&args(&["--cache"]), &[SWEEP_FLAGS]),
            Cli::Bad("unknown flag --cache".into())
        );
    }

    /// The measuring call returns its points' timings in order; under
    /// `--metrics` it also runs the counted sweep and files one
    /// `kind=metrics` record per simulated point after the binary's own
    /// records, and without it runs no counted sweep.
    #[test]
    fn measure_times_points_and_files_their_metrics_records() {
        use gpusim::DeviceSpec;
        use wino_core::{Algo, Conv, ConvProblem, Target};

        // The metrics tests' small problem: fast to simulate.
        let conv = Conv::new(ConvProblem::resnet3x3(32, 8, 8, 64), DeviceSpec::v100());
        let points: Vec<Point> = [Algo::OursFused, Algo::Fft]
            .into_iter()
            .map(|a| Point {
                conv: conv.clone(),
                target: Target::algo(a),
                config: vec![("algo", a.name().into()), ("n", 32usize.into())],
            })
            .collect();
        let dir = std::env::temp_dir().join(format!("report-measure-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let cached = || std::fs::read_dir(&dir).map_or(0, |d| d.count());

        // Without `--metrics`, then with it over the same cache: the
        // counted sweep stores its own two entries next to the timings.
        for (metrics, files) in [(false, 2), (true, 4)] {
            let mut r = Report::to_path("unit", None);
            r.counted = metrics.then(Vec::new);
            r.sweep.cache = true;
            r.sweep.cache_dir = dir.clone();
            r.sweep.quiet = true;
            let timings = r.measure(&points);
            let algos: Vec<Algo> = timings.iter().map(|t| t.algo).collect();
            assert_eq!(algos, [Algo::OursFused, Algo::Fft]);
            assert_eq!(cached(), files, "--metrics {metrics}");
            r.add("V100", &[("aggregate", "unit".into())], &[]);

            let back = parse(&r.render()).unwrap();
            let recs = back.as_arr().unwrap();
            let field = |i: usize, k: &str| recs[i].get(k).unwrap();
            let configs: Vec<String> = (0..recs.len())
                .map(|i| field(i, "config").render())
                .collect();
            if metrics {
                assert_eq!(
                    configs,
                    [
                        r#"{"aggregate":"unit"}"#,
                        r#"{"algo":"OURS","n":32,"kind":"metrics"}"#
                    ]
                );
                assert_eq!(field(1, "device").as_str(), Some("V100"));
                assert!(field(1, "metrics").get("bound").is_some());
            } else {
                assert_eq!(configs, [r#"{"aggregate":"unit"}"#]);
                assert!(r.counted().is_none());
            }
        }
        std::fs::remove_dir_all(&dir).ok();
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
