//! Machine-readable experiment output and the one measuring call.
//!
//! Every experiment binary accepts `--json <path>` and, when given, writes
//! the numbers behind its printed table as a JSON array of
//! `{experiment, device, config, metrics}` records. [`Report::measure`]
//! times a binary's grid of [`Point`]s in one sweep named after the
//! experiment. Under `--metrics` that sweep counts (a stored timing without
//! counters is a miss, simulated counted and overwritten), and the report
//! queues one `kind=metrics` record per simulated point, built from the
//! timing the sweep returned ([`crate::metrics`]); [`Report::finish`]
//! writes them after the records the binary added. A report reads
//! `--metrics` and the sweep engine's flags from the command line when it
//! is opened.

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
    /// [`Report::measure`] timed, written after `records`.
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

    /// Time every point in one sweep named after the experiment, each
    /// content-addressed by [`wino_core::Conv::key`], so cached and fresh
    /// results are indistinguishable bit for bit. Returns the timings in
    /// point order. A stored record that does not decode is a miss. Under
    /// `--metrics` the points are measured with [`Observe::COUNTERS`], a
    /// stored timing whose kernel lacks counters is a miss too, and each
    /// simulated point's `kind=metrics` record is queued.
    pub fn measure(&mut self, points: &[Point]) -> Vec<AlgoTiming> {
        let counted = self.counted.is_some();
        let observe = if counted {
            Observe::COUNTERS
        } else {
            Observe::default()
        };
        let mut sweep = Sweep::new(&self.experiment, self.sweep.clone()).check(move |r| {
            algo_timing_from_json(r)
                .is_some_and(|t| !counted || t.kernel.is_none_or(|k| k.counters.is_some()))
        });
        for p in points {
            let (conv, target) = (p.conv.clone(), p.target);
            sweep.point(CacheKey::from_digest(&conv.key(target)), move || {
                algo_timing_to_json(&conv.measure(target, observe))
            });
        }
        let timing = |r| algo_timing_from_json(r).expect("the sweep admits timing records only");
        let timings: Vec<AlgoTiming> = sweep.run().results.iter().map(timing).collect();
        if let Some(mut queue) = self.counted.take() {
            for (p, t) in points.iter().zip(&timings) {
                if let Some(m) = metrics::point_metrics(p, t) {
                    queue.push(self.record(p.conv.device.name, with_metrics_kind(&p.config), m));
                }
            }
            self.counted = Some(queue);
        }
        timings
    }

    /// The queued `kind=metrics` records; `None` without `--metrics`.
    pub fn counted(&self) -> Option<&[Json]> {
        self.counted.as_deref()
    }

    fn all_records(&self) -> impl Iterator<Item = &Json> {
        self.records.iter().chain(self.counted.iter().flatten())
    }

    /// The collected records as the text [`Report::finish`] writes.
    fn render(&self) -> String {
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
    use crate::Algo;

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

    /// OURS and FFT on the metrics tests' small problem: one simulated
    /// point, fast to simulate, and one analytic point.
    fn two_points() -> Vec<Point> {
        use gpusim::DeviceSpec;
        use wino_core::{Conv, ConvProblem, Target};

        let conv = Conv::new(ConvProblem::resnet3x3(32, 8, 8, 64), DeviceSpec::v100());
        [Algo::OursFused, Algo::Fft]
            .into_iter()
            .map(|a| Point {
                conv: conv.clone(),
                target: Target::algo(a),
                config: vec![("algo", a.name().into()), ("n", 32usize.into())],
            })
            .collect()
    }

    /// A quiet report caching into `dir`, with or without `--metrics`.
    fn report_in(dir: &std::path::Path, metrics: bool) -> Report {
        let mut r = Report::to_path("unit", None);
        r.counted = metrics.then(Vec::new);
        r.sweep.cache = true;
        r.sweep.cache_dir = dir.to_path_buf();
        r.sweep.quiet = true;
        r
    }

    /// The cache file of `p` in `dir`.
    fn entry(dir: &std::path::Path, p: &Point) -> std::path::PathBuf {
        let key = CacheKey::from_digest(&p.conv.key(p.target));
        dir.join(format!("{}.json", key.as_str()))
    }

    /// Rewrite the stored `time_s` of `p`'s entry to `s`, so a run that
    /// returns `s` for `p` hit the entry and one that does not re-ran it.
    fn stamp(dir: &std::path::Path, p: &Point, s: f64) {
        let path = entry(dir, p);
        let mut j = parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        let Json::Obj(fields) = &mut j else {
            panic!("a timing record is an object")
        };
        fields.iter_mut().find(|(k, _)| k == "time_s").unwrap().1 = Json::Num(s);
        std::fs::write(&path, j.render()).unwrap();
    }

    /// The measuring call runs one sweep and returns its points' timings in
    /// order. A plain run stores plain timings. A `--metrics` run over them
    /// re-simulates the OURS point counted, overwriting its entry, hits the
    /// analytic FFT point, and files one `kind=metrics` record for the OURS
    /// point after the binary's own records. A plain run then reads both
    /// entries as they are. Each point keeps one cache entry throughout.
    #[test]
    fn measure_times_points_and_files_their_metrics_records() {
        let points = two_points();
        let dir = std::env::temp_dir().join(format!("report-measure-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let cached = || std::fs::read_dir(&dir).map_or(0, |d| d.count());
        let configs = |r: &Report| -> Vec<String> {
            let back = parse(&r.render()).unwrap();
            let recs = back.as_arr().unwrap();
            recs.iter()
                .map(|r| r.get("config").unwrap().render())
                .collect()
        };

        let mut r = report_in(&dir, false);
        let plain = r.measure(&points);
        let algos: Vec<Algo> = plain.iter().map(|t| t.algo).collect();
        assert_eq!(algos, [Algo::OursFused, Algo::Fft]);
        assert_eq!(cached(), 2);
        r.add("V100", &[("aggregate", "unit".into())], &[]);
        assert_eq!(configs(&r), [r#"{"aggregate":"unit"}"#]);
        assert!(r.counted().is_none());
        let ours = plain[0].kernel.as_ref().expect("OURS simulates");
        assert!(ours.counters.is_none());
        assert!(metrics::kernel_metrics(ours).is_none());

        const STAMP: f64 = 1.0;
        for p in &points {
            stamp(&dir, p, STAMP);
        }
        let mut r = report_in(&dir, true);
        let counted = r.measure(&points);
        assert_eq!(counted[0].time_s, plain[0].time_s, "OURS re-simulated");
        assert!(counted[0].kernel.as_ref().unwrap().counters.is_some());
        assert_eq!(counted[1].time_s, STAMP, "FFT hit");
        assert_eq!(cached(), 2);
        r.add("V100", &[("aggregate", "unit".into())], &[]);
        assert_eq!(
            configs(&r),
            [
                r#"{"aggregate":"unit"}"#,
                r#"{"algo":"OURS","n":32,"kind":"metrics"}"#
            ]
        );
        let back = parse(&r.render()).unwrap();
        let metrics_record = &back.as_arr().unwrap()[1];
        assert_eq!(metrics_record.get("device").unwrap().as_str(), Some("V100"));
        assert!(metrics_record
            .get("metrics")
            .unwrap()
            .get("bound")
            .is_some());

        stamp(&dir, &points[0], STAMP);
        let warm = report_in(&dir, false).measure(&points);
        assert!(warm.iter().all(|t| t.time_s == STAMP), "both hit");
        assert!(warm[0].kernel.as_ref().unwrap().counters.is_some());
        assert_eq!(cached(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A stored entry that parses but does not decode is a miss: the point
    /// is simulated again, and its file holds the good record again.
    #[test]
    fn undecodable_entries_are_rerun_and_overwritten() {
        let points = two_points();
        let dir = std::env::temp_dir().join(format!("report-corrupt-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let render = |ts: &[AlgoTiming]| -> Vec<String> {
            ts.iter().map(|t| algo_timing_to_json(t).render()).collect()
        };
        let fresh = render(&report_in(&dir, false).measure(&points));
        let good: Vec<String> = points
            .iter()
            .map(|p| std::fs::read_to_string(entry(&dir, p)).unwrap())
            .collect();

        std::fs::write(entry(&dir, &points[0]), "{}").unwrap();
        let mut dropped = parse(&good[1]).unwrap();
        let Json::Obj(fields) = &mut dropped else {
            panic!("a timing record is an object")
        };
        fields.retain(|(k, _)| k != "algo");
        std::fs::write(entry(&dir, &points[1]), dropped.render()).unwrap();

        assert_eq!(render(&report_in(&dir, false).measure(&points)), fresh);
        for (p, want) in points.iter().zip(&good) {
            assert_eq!(&std::fs::read_to_string(entry(&dir, p)).unwrap(), want);
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
