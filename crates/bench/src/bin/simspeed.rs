//! `simspeed` — host-side throughput of the timing simulator itself.
//!
//! Every experiment binary is bottlenecked on the timing simulator
//! (`gpusim::simulate` under `Model::Device` for end-to-end points, under
//! `Model::OneWave` for the main-loop region sweeps); this
//! benchmark tracks how fast those loops run on the host, independent of
//! what the simulated kernels score. It times a fixed kernel matrix (three
//! algorithm families × both devices, plus a one-wave main-loop point per
//! device) cold — no simcache involvement — and reports, per point:
//!
//! * `wall_ms`            — best-of-N wall-clock for one full timing run
//! * `wave_cycles`        — device makespan cycles (multi-wave points) or
//!   the single simulated wave's cycles (the one-wave point)
//! * `issued`             — warp-instructions issued (device total)
//! * `busy_sms`           — SMs that received blocks
//! * `sim_cycles_per_sec` — simulated cycles advanced per host second
//! * `sim_instr_per_sec`  — instructions issued per host second
//!
//! Two more points per device track functional execution: best-of-N
//! `wall_ms` of `Gpu::launch_parallel` running every block of the matrix
//! problem's OURS fused kernel and of its cuDNN-like (NCHW) fused kernel,
//! the one that dominates a functional network request, with `blocks`,
//! `blocks_per_sec` and the worker `threads` it ran on.
//!
//! The committed `BENCH_simspeed.json` at the repo root is this binary's
//! output (see EXPERIMENTS.md "Simulator speed"); CI runs `--smoke
//! --baseline BENCH_simspeed.json` to assert the numbers are sane and the
//! simulated ones exact, but never gates on wall-clock.
//!
//! Flags: `--iters N` (default 3), `--json PATH` (default
//! `BENCH_simspeed.json`), `--smoke` (1 iteration + sanity asserts),
//! `--baseline PATH` (adds `speedup_vs_baseline` per point and prints the
//! geomean, over all points and over the functional ones; exits 1, after
//! writing the report, when a point's deterministic fields — `wave_cycles`,
//! `issued`, `busy_sms`, `blocks` — differ from the baseline's; a point
//! the baseline lacks is not compared).
//! `--cache`/`--no-cache` are accepted for flag parity with the
//! other binaries and ignored: simspeed always simulates cold.

use std::time::Instant;

use bench::json::parse;
use bench::report::{check_args, flag_value, Report};
use bench::Table;
use gpusim::DeviceSpec;
use kernels::FusedKernel;
use wino_core::{Algo, Conv, ConvProblem, Observe, Target};

/// The fixed matrix: one mid-size ResNet-like layer, three algorithm
/// families covering the fused Winograd path (ours + cuDNN-like schedule)
/// and the tiled-GEMM path. Sized so a full pre-optimization run finishes
/// in about a minute on one core.
const ALGOS: [Algo; 3] = [
    Algo::OursFused,
    Algo::CudnnWinograd,
    Algo::ImplicitPrecompGemm,
];

fn problem() -> ConvProblem {
    ConvProblem::resnet3x3(32, 64, 14, 64)
}

struct Point {
    device: &'static str,
    label: String,
    wall_ms: f64,
    wave_cycles: u64,
    issued: u64,
    busy_sms: u32,
    sim_time_s: f64,
}

fn measure(iters: u32) -> Vec<Point> {
    let prob = problem();
    let mut points = Vec::new();
    for dev in [DeviceSpec::v100(), DeviceSpec::rtx2070()] {
        for algo in ALGOS {
            let conv = Conv::new(prob, dev.clone());
            // One counted run for the exact work totals (identical timing
            // result; counters only add observation). These points run the
            // full-device multi-wave model: `wave_cycles` is the device
            // makespan and `issued` the device-total issue count.
            let counted = conv
                .measure(Target::algo(algo), Observe::COUNTERS)
                .kernel
                .expect("matrix algorithm has no cycle-level kernel");
            let ctr = counted.counters.as_ref().expect("counters requested");
            // Best-of-N plain runs for the wall-clock (simulation is
            // deterministic; min discards scheduler noise).
            let mut best = f64::INFINITY;
            for _ in 0..iters.max(1) {
                let t0 = Instant::now();
                let timing = conv.time(algo);
                best = best.min(t0.elapsed().as_secs_f64());
                assert!(timing.time_s > 0.0);
            }
            points.push(Point {
                device: dev.name,
                label: algo.name().to_string(),
                wall_ms: best * 1e3,
                wave_cycles: counted.wave_cycles,
                issued: ctr.issued,
                busy_sms: counted.busy_sms,
                sim_time_s: counted.time_s,
            });
        }
        // One retained one-wave point (the main-loop region sweep of
        // Figures 7–9 stays on that path): tracks the single-SM wave loop's
        // throughput separately from the device model.
        let conv = Conv::new(prob, dev.clone());
        let mainloop = Target::mainloop(conv.ours_config());
        let counted = conv.measure(mainloop, Observe::COUNTERS).kernel;
        let counted = counted.expect("main loop simulates");
        let ctr = counted.counters.as_ref().expect("counters requested");
        let mut best = f64::INFINITY;
        for _ in 0..iters.max(1) {
            let t0 = Instant::now();
            let timing = conv.measure(mainloop, Observe::default());
            best = best.min(t0.elapsed().as_secs_f64());
            assert!(timing.kernel.is_some_and(|k| k.wave_cycles > 0));
        }
        points.push(Point {
            device: dev.name,
            label: "mainloop_one_wave".to_string(),
            wall_ms: best * 1e3,
            wave_cycles: counted.wave_cycles,
            issued: ctr.issued,
            busy_sms: counted.busy_sms,
            sim_time_s: counted.time_s,
        });
    }
    points
}

/// The fused kernels of the functional points: ours and the cuDNN-like
/// one.
const LAUNCH_ALGOS: [Algo; 2] = [Algo::OursFused, Algo::CudnnWinograd];

/// One functional-execution point: `Gpu::launch_parallel` on every block
/// of one of the matrix problem's fused kernels.
struct LaunchPoint {
    device: &'static str,
    label: String,
    wall_ms: f64,
    blocks: u64,
}

fn measure_launch(iters: u32) -> Vec<LaunchPoint> {
    let prob = problem();
    let mut points = Vec::new();
    for dev in [DeviceSpec::v100(), DeviceSpec::rtx2070()] {
        for algo in LAUNCH_ALGOS {
            let kern = FusedKernel::emit(Conv::new(prob, dev.clone()).fused_config(algo));
            let (mut gpu, b) = kern.buffers().alloc(dev.clone());
            let params = kern.params(b[0], b[1], b[2]);
            let dims = kern.launch_dims();
            let mut best = f64::INFINITY;
            for _ in 0..iters.max(1) {
                let t0 = Instant::now();
                gpu.launch_parallel(&kern.module, dims, &params)
                    .expect("fused kernel runs");
                best = best.min(t0.elapsed().as_secs_f64());
            }
            points.push(LaunchPoint {
                device: dev.name,
                label: format!("{}_launch_parallel", algo.name()),
                wall_ms: best * 1e3,
                blocks: dims.num_blocks(),
            });
        }
    }
    points
}

/// Geometric mean.
fn geomean(xs: &[f64]) -> f64 {
    (xs.iter().map(|s| s.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// The metrics of the same (device, algo) point in a previous
/// `BENCH_simspeed.json`.
fn baseline_metrics<'a>(
    base: &'a bench::json::Json,
    device: &str,
    algo: &str,
) -> Option<&'a bench::json::Json> {
    base.as_arr()?.iter().find_map(|r| {
        (r.get("device")?.as_str()? == device && r.get("config")?.get("algo")?.as_str()? == algo)
            .then(|| r.get("metrics"))?
    })
}

/// Compare a point's simulated (deterministic) fields with its baseline
/// metrics, recording each difference in `mismatches`.
fn check_exact(
    base: &bench::json::Json,
    point: &str,
    fields: &[(&str, u64)],
    mismatches: &mut Vec<String>,
) {
    for &(name, value) in fields {
        let was = base.get(name).and_then(|v| v.as_u64());
        if was != Some(value) {
            mismatches.push(format!("{point}: {name} {value}, baseline {was:?}"));
        }
    }
}

fn main() {
    check_args(
        "simspeed",
        &[&["--smoke", "--iters N", "--json PATH", "--baseline PATH"]],
    );
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let iters: u32 = if smoke {
        1
    } else {
        flag_value(&args, "--iters").map_or(3, |v| v.parse().expect("--iters N"))
    };
    let json_path = flag_value(&args, "--json").unwrap_or_else(|| "BENCH_simspeed.json".into());
    let baseline = flag_value(&args, "--baseline").map(|p| {
        let text = std::fs::read_to_string(&p)
            .unwrap_or_else(|e| panic!("failed to read --baseline {p}: {e}"));
        parse(&text).unwrap_or_else(|e| panic!("bad JSON in --baseline {p}: {e}"))
    });

    let prob = problem();
    println!(
        "simspeed: host throughput of gpusim::simulate on {}x{}x{}x{} c={} ({} iters)",
        prob.n, prob.c, prob.h, prob.w, prob.k, iters
    );

    let points = measure(iters);
    let launches = measure_launch(iters);
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());

    let mut report = Report::to_path("simspeed", Some(json_path));
    let mut t = Table::new(&[
        "device",
        "algo",
        "wall ms",
        "wave cycles",
        "issued",
        "Mcyc/s",
        "Minstr/s",
    ]);
    let mut speedups = Vec::new();
    let mut mismatches = Vec::new();
    for p in &points {
        let wall_s = p.wall_ms / 1e3;
        let cps = p.wave_cycles as f64 / wall_s;
        let ips = p.issued as f64 / wall_s;
        if smoke {
            assert!(p.wall_ms > 0.0, "non-positive wall time");
            assert!(p.wave_cycles > 0 && p.issued > 0, "empty simulation");
            // Device-model points report device-total issues over the
            // makespan: the per-cycle issue capacity is 4 schedulers × 2
            // dispatch on every busy SM.
            assert!(
                p.issued <= p.wave_cycles * 8 * p.busy_sms.max(1) as u64,
                "issue rate impossible"
            );
            assert!(p.sim_time_s > 0.0, "non-positive simulated time");
        }
        t.row(vec![
            p.device.to_string(),
            p.label.clone(),
            format!("{:.1}", p.wall_ms),
            p.wave_cycles.to_string(),
            p.issued.to_string(),
            format!("{:.2}", cps / 1e6),
            format!("{:.2}", ips / 1e6),
        ]);
        let mut metrics: Vec<(&str, bench::json::Json)> = vec![
            ("wall_ms", p.wall_ms.into()),
            ("wave_cycles", p.wave_cycles.into()),
            ("issued", p.issued.into()),
            ("sim_cycles_per_sec", cps.into()),
            ("sim_instr_per_sec", ips.into()),
            ("sim_time_s", p.sim_time_s.into()),
            ("busy_sms", p.busy_sms.into()),
        ];
        if let Some(base) = baseline
            .as_ref()
            .and_then(|b| baseline_metrics(b, p.device, &p.label))
        {
            let exact = [
                ("wave_cycles", p.wave_cycles),
                ("issued", p.issued),
                ("busy_sms", p.busy_sms.into()),
            ];
            let point = format!("{} {}", p.device, p.label);
            check_exact(base, &point, &exact, &mut mismatches);
            if let Some(b) = base.get("wall_ms").and_then(|v| v.as_f64()) {
                let s = b / p.wall_ms;
                speedups.push(s);
                metrics.push(("speedup_vs_baseline", s.into()));
            }
        }
        report.add(
            p.device,
            &[
                ("algo", p.label.as_str().into()),
                ("n", prob.n.into()),
                ("c", prob.c.into()),
                ("hw", prob.h.into()),
                ("k", prob.k.into()),
                ("iters", iters.into()),
            ],
            &metrics,
        );
    }
    t.print();

    let mut t = Table::new(&["device", "algo", "wall ms", "blocks", "blocks/s", "threads"]);
    let mut launch_speedups = Vec::new();
    for p in &launches {
        let blocks_per_sec = p.blocks as f64 / (p.wall_ms / 1e3);
        if smoke {
            assert!(p.wall_ms > 0.0 && p.blocks > 0, "empty functional launch");
        }
        t.row(vec![
            p.device.to_string(),
            p.label.clone(),
            format!("{:.1}", p.wall_ms),
            p.blocks.to_string(),
            format!("{blocks_per_sec:.0}"),
            threads.to_string(),
        ]);
        let mut metrics: Vec<(&str, bench::json::Json)> = vec![
            ("wall_ms", p.wall_ms.into()),
            ("blocks", p.blocks.into()),
            ("blocks_per_sec", blocks_per_sec.into()),
        ];
        if let Some(base) = baseline
            .as_ref()
            .and_then(|b| baseline_metrics(b, p.device, &p.label))
        {
            let point = format!("{} {}", p.device, p.label);
            check_exact(base, &point, &[("blocks", p.blocks)], &mut mismatches);
            if let Some(b) = base.get("wall_ms").and_then(|v| v.as_f64()) {
                let s = b / p.wall_ms;
                speedups.push(s);
                launch_speedups.push(s);
                metrics.push(("speedup_vs_baseline", s.into()));
            }
        }
        report.add(
            p.device,
            &[
                ("algo", p.label.as_str().into()),
                ("n", prob.n.into()),
                ("c", prob.c.into()),
                ("hw", prob.h.into()),
                ("k", prob.k.into()),
                ("iters", iters.into()),
                ("threads", threads.into()),
            ],
            &metrics,
        );
    }
    println!();
    t.print();
    if !speedups.is_empty() {
        println!("\nspeedup vs baseline: geomean {:.2}x", geomean(&speedups));
    }
    if !launch_speedups.is_empty() {
        let n = launch_speedups.len();
        let g = geomean(&launch_speedups);
        println!("speedup vs baseline, {n} launch_parallel points: geomean {g:.2}x");
    }
    if smoke {
        let n = points.len() + launches.len();
        println!("\nsmoke OK: {n} points, all sane");
    }
    report.finish();
    if !mismatches.is_empty() {
        for m in &mismatches {
            eprintln!("simspeed: simulated result differs from the baseline: {m}");
        }
        std::process::exit(1);
    }
}
