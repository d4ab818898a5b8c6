//! The repository benchmark: one workload per run, end-to-end metrics from
//! a plain run and per-layer metrics from a traced one.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload <layer_sweep|net_plan|serve_mix|net_infer> --seed <n> \
//!     [--seconds <s>] [--trace <0|1>] [--smoke]
//! ```
//!
//! A run sets the workload up three times (the median is `setup_s`), then
//! performs the number of jobs that fills `--seconds` on the reference host
//! (a fixed count, so two builds are compared on equal work), checks every
//! output, and prints each metric as `name value unit` followed by one JSON
//! result line. `--trace 1` runs the same jobs, then the decompositions that
//! need extra calls, and also prints the per-layer metrics; its result line
//! carries the per-layer set alone, while its result file keeps both. It
//! also writes the spans as a Chrome trace. Results and traces go to
//! `benchmark/out/`; every cache or store a workload touches is a fresh
//! directory under it, removed at exit.

mod layer_sweep;
mod net_infer;
mod net_plan;
mod serve_mix;
mod spans;
mod stats;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use bench::json::{obj, parse, Json};
use gpusim::DeviceSpec;
use tensor::XorShiftRng;

use crate::spans::Spans;

/// End-to-end metrics: `(name, unit)`. Every workload reports all of them.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("job_s", "s"),
    ("job_tail_s", "s"),
    ("rss_mb", "MB"),
    ("sim_cycles", "cycles"),
];

/// Per-layer metrics: `(name, unit)`. Every workload reports all of them;
/// a layer the workload does not exercise reads 0. Host time is given as a
/// share of the workload's median job (`%`), so the figures of one run add
/// up against its `job_s`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("kernels.emit_pct", "%"),
    ("gpusim.warp_insts", "count"),
    ("gpusim.insts_per_s", "1/s"),
    ("gpusim.sim_cycles", "cycles"),
    ("gpusim.launch_pct", "%"),
    ("core.conv.time_pct", "%"),
    ("core.conv.run_pct.OURS", "%"),
    ("core.conv.run_pct.WINOGRAD", "%"),
    ("core.conv.run_pct.IMPLICIT_PRECOMP_GEMM", "%"),
    ("core.conv.run_pct.WINOGRAD_NONFUSED", "%"),
    ("core.netgraph.transition_pct", "%"),
    ("core.transform_cache.hit_frac", "ratio"),
    ("core.netgraph.probes", "count"),
    ("core.netgraph.unique_probe_frac", "ratio"),
    ("core.netgraph.probe_pct", "%"),
    ("core.netgraph.self_pct", "%"),
    ("core.netgraph.validate_pct", "%"),
    ("core.memplan.pct", "%"),
    ("core.memplan.reuse_ratio", "ratio"),
    ("core.memplan.arena_mb", "MB"),
    ("serve.plan.build_pct", "%"),
    ("serve.plan.tune_pct", "%"),
    ("serve.plan.build_cost_cycles", "cycles"),
    ("serve.engine.run_pct", "%"),
    ("serve.engine.ttfd_slo_pct", "%"),
    ("serve.engine.light_p999_slo_pct", "%"),
    ("serve.engine.heavy_p50_slo_pct", "%"),
    ("serve.engine.heavy_p999_slo_pct", "%"),
    ("serve.engine.capacity_rps", "1/s"),
    ("serve.queue.wait_p99_slo_pct", "%"),
    ("serve.engine.service_p99_slo_pct", "%"),
    ("serve.engine.fill", "ratio"),
    ("sass.tune.evals", "count"),
    ("sass.tune.adopted_frac", "ratio"),
    ("bench.simcache.pct", "%"),
    ("bench.simcache.reload_pct", "%"),
    ("bench.simcache.hits", "count"),
    ("bench.simcache.misses", "count"),
];

type Workload = fn(&mut Ctx) -> Outcome;

const WORKLOADS: &[(&str, Workload)] = &[
    ("layer_sweep", layer_sweep::run),
    ("net_plan", net_plan::run),
    ("serve_mix", serve_mix::run),
    ("net_infer", net_infer::run),
];

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;

/// Everything a workload needs from the command line plus the run's shared
/// recorders.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub smoke: bool,
    pub trace: bool,
    /// Private scratch directory, removed at exit.
    pub tmp: PathBuf,
    pub spans: Spans,
    pub checks: Checks,
}

impl Ctx {
    /// Jobs per run: as many as fit in `--seconds` on the reference host,
    /// given a job's nominal duration there, and at least one. Fixing the
    /// count (rather than stopping on the clock) keeps the work of a run
    /// the same on every build, so a faster build shows as a shorter job.
    pub fn jobs(&self, nominal_job_s: f64) -> usize {
        if self.smoke {
            return 1;
        }
        ((self.seconds / nominal_job_s).floor() as usize).max(1)
    }

    /// A generator for the workload's seeded inputs.
    pub fn rng(&self, stream: u64) -> XorShiftRng {
        XorShiftRng::new(splitmix(self.seed ^ splitmix(stream)))
    }

    /// Run `setup` [`SETUP_REPEATS`] times, timing each, and keep the last
    /// result.
    pub fn setup<T>(&self, mut setup: impl FnMut() -> T) -> (Vec<f64>, T) {
        let mut times = Vec::new();
        let mut last = None;
        for i in 0..SETUP_REPEATS {
            let (out, secs) = self.spans.time("setup", i as u64, &mut setup);
            last = Some(out);
            times.push(secs);
        }
        (times, last.expect("at least one set-up"))
    }
}

/// The two modelled GPUs every timing workload runs on.
pub fn devices() -> [DeviceSpec; 2] {
    [DeviceSpec::v100(), DeviceSpec::rtx2070()]
}

/// splitmix64 finaliser: decorrelates nearby seeds.
fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Fisher–Yates shuffle.
pub fn shuffle<T>(v: &mut [T], rng: &mut XorShiftRng) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.gen_index(i + 1));
    }
}

/// Output checks: how many were made and how many failed.
#[derive(Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
}

impl Checks {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("[benchmark] check failed: {}", what());
        }
    }

    /// Every job must reproduce the first job's simulated result exactly.
    pub fn repeats(&mut self, sims: &[f64]) {
        for (j, s) in sims.iter().enumerate() {
            self.check(*s == sims[0], || {
                format!("job {j} sim_cycles {s} != job 0 {}", sims[0])
            });
        }
    }

    /// `attempted` operations of which `failed` did not complete.
    pub fn count(&mut self, attempted: u64, failed: u64, what: impl FnOnce() -> String) {
        self.attempted += attempted;
        if failed > 0 {
            self.failed += failed;
            eprintln!("[benchmark] {failed} of {attempted} failed: {}", what());
        }
    }
}

/// What one workload run measured.
pub struct Outcome {
    pub setups_s: Vec<f64>,
    pub jobs_s: Vec<f64>,
    /// Modelled device cycles of the workload's simulated results; a pure
    /// function of the workload, bit-identical on every run and seed.
    pub sim_cycles: f64,
    pub layers: Layers,
}

/// Per-layer values by name; names outside [`PER_LAYER`] are a bug.
#[derive(Default)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "{name} is not a per-layer metric"
        );
        assert!(value.is_finite(), "{name} = {value}");
        self.0.insert(name, value);
    }

    /// Host seconds as a share of `job_s`.
    pub fn set_pct(&mut self, name: &'static str, secs: f64, job_s: f64) {
        self.set(name, 100.0 * secs / job_s);
    }

    fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

struct Args {
    workload: &'static str,
    run: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds) = (String::new(), 2020, 20.0);
    let (mut trace, mut smoke) = (false, false);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = value()?,
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && f64::is_finite(seconds)) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            "--smoke" => smoke = true,
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let Some(&(workload, run)) = WORKLOADS.iter().find(|(name, _)| *name == workload) else {
        let names: Vec<&str> = WORKLOADS.iter().map(|(name, _)| *name).collect();
        return Err(format!("--workload must be one of {}", names.join(", ")));
    };
    Ok(Args {
        workload,
        run,
        seed,
        seconds,
        trace,
        smoke,
    })
}

/// Removes the private scratch directory when the run ends, panics
/// included.
struct TmpDir(PathBuf);

impl Drop for TmpDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Peak resident set size of this process (`VmHWM`), MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// `benchmark/out/<workload>-seed<seed>-<kind>[-smoke].json`.
fn out_path(args: &Args, kind: &str) -> PathBuf {
    out_dir().join(format!(
        "{}-seed{}-{kind}{}.json",
        args.workload,
        args.seed,
        if args.smoke { "-smoke" } else { "" }
    ))
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("benchmark: {e}");
            std::process::exit(2);
        }
    };
    let tmp = TmpDir(out_dir().join(format!("tmp-{}", std::process::id())));
    std::fs::create_dir_all(&tmp.0).expect("create the private scratch directory");
    let mut ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        smoke: args.smoke,
        trace: args.trace,
        tmp: tmp.0.clone(),
        spans: Spans::new(),
        checks: Checks::default(),
    };
    let outcome = (args.run)(&mut ctx);

    let job_tail = stats::tail(&outcome.jobs_s);
    let e2e: BTreeMap<&str, f64> = [
        ("setup_s", stats::median(&outcome.setups_s)),
        ("job_s", stats::median(&outcome.jobs_s)),
        ("job_tail_s", job_tail.value),
        ("rss_mb", peak_rss_mb()),
        ("sim_cycles", outcome.sim_cycles),
    ]
    .into_iter()
    .collect();
    println!(
        "# {} seed {}: {} jobs, job_tail_s is p{:.1}{}",
        args.workload,
        args.seed,
        outcome.jobs_s.len(),
        job_tail.pct,
        if args.trace { ", traced" } else { "" }
    );

    if args.trace {
        compare_with_plain(&args, &e2e, &mut ctx.checks);
        let path = out_path(&args, "spans");
        std::fs::write(&path, ctx.spans.chrome(args.workload).render())
            .unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
        println!("# spans written to {}", path.display());
    }

    let e2e_rows: Vec<Row> = END_TO_END
        .iter()
        .map(|&(name, unit)| (name, unit, e2e[name]))
        .collect();
    let layer_rows: Vec<Row> = if args.trace {
        PER_LAYER
            .iter()
            .map(|&(name, unit)| (name, unit, outcome.layers.get(name)))
            .collect()
    } else {
        Vec::new()
    };
    let all_rows: Vec<Row> = e2e_rows.iter().chain(&layer_rows).copied().collect();
    for (name, unit, value) in &all_rows {
        println!("{name} {value} {unit}");
    }
    // The result file keeps every metric the run measured. The result line
    // carries one set, as the benchmark's manifest declares: end-to-end
    // plain, per-layer traced.
    let path = out_path(&args, &format!("trace{}", u8::from(args.trace)));
    std::fs::write(&path, format!("{}\n", result(&ctx.checks, &all_rows)))
        .unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    let line_rows = if args.trace { &layer_rows } else { &e2e_rows };
    println!("{}", result(&ctx.checks, line_rows));
}

/// `(name, unit, value)` of one metric.
type Row = (&'static str, &'static str, f64);

/// The JSON result: check counts and the metrics of `rows`.
fn result(checks: &Checks, rows: &[Row]) -> String {
    let metrics = rows
        .iter()
        .map(|&(name, unit, value)| {
            let m = obj(&[("value", value.into()), ("unit", unit.into())]);
            (name.to_string(), m)
        })
        .collect();
    obj(&[
        ("correct", (checks.failed == 0).into()),
        ("attempted", checks.attempted.into()),
        ("failed", checks.failed.into()),
        ("metrics", Json::Obj(metrics)),
    ])
    .render()
}

/// Traced-run report against the plain run of the same workload and seed,
/// when one is on disk: the tracing overhead of each host metric, and an
/// exact-equality check of the simulated metric (a mismatch is a failure).
fn compare_with_plain(args: &Args, traced: &BTreeMap<&str, f64>, checks: &mut Checks) {
    let path = out_path(args, "trace0");
    let Some(plain) = std::fs::read_to_string(&path)
        .ok()
        .and_then(|t| parse(t.trim()).ok())
    else {
        println!(
            "# no plain result at {}; run --trace 0 with this seed for the overhead report",
            path.display()
        );
        return;
    };
    let plain_value = |name: &str| {
        plain
            .get("metrics")
            .and_then(|m| m.get(name))
            .and_then(|m| m.get("value"))
            .and_then(Json::as_f64)
    };
    for &(name, _) in END_TO_END {
        let Some(p) = plain_value(name) else {
            continue;
        };
        if name == "sim_cycles" {
            checks.check(p == traced[name], || {
                format!("traced sim_cycles {} != plain {p}", traced[name])
            });
        } else {
            println!(
                "# tracing overhead {name}: {:+.2}% ({} traced vs {p} plain)",
                100.0 * (traced[name] - p) / p,
                traced[name]
            );
        }
    }
}
