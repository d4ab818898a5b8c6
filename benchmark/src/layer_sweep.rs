//! `layer_sweep`: the batch job every experiment binary and planner reduces
//! to. Table 1's Conv2–Conv5 at N = 32 on V100 and RTX 2070, timed with
//! every algorithm `wino_core::netgraph::candidates` admits (29 points),
//! through `bench::sweep::Sweep` into an empty private simcache, then
//! reloaded warm. No two points share work, so this is the workload that
//! bypasses any probe memoisation; nearly all of its time is the timing
//! simulator.
//!
//! Job: one cold sweep of every point (each point an operation). After it,
//! untimed, a warm sweep over the same directory must hit every point and
//! reload it bit-identically. The seed only orders the points; results must
//! not depend on it.

use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use bench::simcache::{algo_timing_from_json, algo_timing_to_json, CacheKey};
use bench::sweep::{Sweep, SweepOptions, SweepOutcome};
use gpusim::DeviceSpec;
use wino_core::netgraph::candidates;
use wino_core::resnet::RESNET_LAYERS;
use wino_core::{Algo, AlgoTiming, Conv, ConvProblem};

use crate::{devices, shuffle, stats, Ctx, Layers, Outcome};

/// One cold sweep on the reference host (2 vCPU), seconds.
const NOMINAL_JOB_S: f64 = 10.0;

struct Point {
    /// Index of the (layer, device) pair the point belongs to.
    group: usize,
    problem: ConvProblem,
    device: DeviceSpec,
    algo: Algo,
    key: CacheKey,
}

/// `(point index, start, end)` of every point closure that ran.
type PointTimes = Arc<Mutex<Vec<(usize, Instant, Instant)>>>;

/// The sweep's points with their content keys, in seeded order, and the
/// host seconds `Conv::time_digest` took to emit and hash their kernels.
fn points(ctx: &Ctx) -> (Vec<Point>, f64) {
    let problems: Vec<ConvProblem> = if ctx.smoke {
        vec![ConvProblem::resnet3x3(32, 32, 8, 64)]
    } else {
        RESNET_LAYERS.iter().map(|l| l.problem(32)).collect()
    };
    let mut pts = Vec::new();
    let mut emit_s = 0.0;
    for (di, device) in devices().into_iter().enumerate() {
        for (pi, &problem) in problems.iter().enumerate() {
            let conv = Conv::new(problem, device.clone());
            for algo in candidates(&problem, &device) {
                let t0 = Instant::now();
                let key = CacheKey::from_digest(&conv.time_digest(algo));
                emit_s += t0.elapsed().as_secs_f64();
                pts.push(Point {
                    group: di * problems.len() + pi,
                    problem,
                    device: device.clone(),
                    algo,
                    key,
                });
            }
        }
    }
    shuffle(&mut pts, &mut ctx.rng(0));
    (pts, emit_s)
}

fn sweep(points: &[Point], dir: &Path, times: &PointTimes) -> SweepOutcome {
    let mut sw = Sweep::new(
        "layer_sweep",
        SweepOptions {
            jobs: 1,
            cache: true,
            cache_dir: dir.to_path_buf(),
            selfcheck: false,
            quiet: true,
        },
    );
    for (i, pt) in points.iter().enumerate() {
        let (problem, device, algo) = (pt.problem, pt.device.clone(), pt.algo);
        let times = Arc::clone(times);
        sw.point(pt.key.clone(), move || {
            let t0 = Instant::now();
            let json = algo_timing_to_json(&Conv::new(problem, device.clone()).time(algo));
            times
                .lock()
                .expect("a point closure panicked")
                .push((i, t0, Instant::now()));
            json
        });
    }
    sw.run()
}

/// Geomean over (layer, device) of the fastest candidate's modelled time,
/// in device cycles.
fn sim_cycles(points: &[Point], timings: &[AlgoTiming]) -> f64 {
    let groups = points.iter().map(|p| p.group).max().map_or(0, |g| g + 1);
    let mut best = vec![f64::INFINITY; groups];
    for (p, t) in points.iter().zip(timings) {
        let cycles = t.time_s * p.device.clock_hz;
        best[p.group] = best[p.group].min(cycles);
    }
    stats::geomean(&best)
}

pub fn run(ctx: &mut Ctx) -> Outcome {
    let (setups_s, (points, emit_s)) = ctx.setup(|| points(ctx));
    let n = points.len() as u64;
    let jobs = ctx.jobs(NOMINAL_JOB_S);

    let mut jobs_s = Vec::new();
    let mut sims = Vec::new();
    let (mut cold_misses, mut warm_hits, mut kernel_cycles) = (0u64, 0u64, 0u64);
    let mut timings: Vec<AlgoTiming> = Vec::new();
    for j in 0..jobs as u64 {
        let dir = ctx.tmp.join(format!("simcache-{j}"));
        let times: PointTimes = Arc::default();
        let open = ctx.spans.begin("sweep", j);
        let cold = sweep(&points, &dir, &times);
        for &(i, start, end) in times.lock().expect("sweep finished").iter() {
            ctx.spans.record("point", i as u64, start, end);
        }
        jobs_s.push(ctx.spans.end(open));
        ctx.checks.check(cold.hits == 0, || {
            format!("cold sweep {j} hit {} points in an empty cache", cold.hits)
        });
        cold_misses += cold.misses as u64;

        let (warm, _) = ctx
            .spans
            .time("reload", j, || sweep(&points, &dir, &Arc::default()));
        warm_hits += warm.hits as u64;
        ctx.checks.check(warm.misses == 0, || {
            format!("warm sweep {j} missed {} points", warm.misses)
        });
        for (i, (c, w)) in cold.results.iter().zip(&warm.results).enumerate() {
            ctx.checks.check(c.render() == w.render(), || {
                format!("point {i} reloaded differently from its cold result")
            });
        }
        timings = cold
            .results
            .iter()
            .map(|r| algo_timing_from_json(r).expect("a sweep record is an AlgoTiming"))
            .collect();
        kernel_cycles += timings
            .iter()
            .map(|t| t.kernel.as_ref().map_or(0, |k| k.wave_cycles))
            .sum::<u64>();
        sims.push(sim_cycles(&points, &timings));
    }
    ctx.checks.repeats(&sims);

    let job_total: f64 = jobs_s.iter().sum();
    let point_total = ctx.spans.total("point");
    let jobs_f = jobs as f64;
    let mut layers = Layers::default();
    layers.set_pct("kernels.emit_pct", emit_s, stats::median(&jobs_s));
    layers.set_pct("core.conv.time_pct", point_total, job_total);
    layers.set_pct("bench.simcache.pct", job_total - point_total, job_total);
    layers.set_pct(
        "bench.simcache.reload_pct",
        ctx.spans.total("reload"),
        job_total,
    );
    layers.set("bench.simcache.misses", cold_misses as f64 / jobs_f);
    layers.set("bench.simcache.hits", warm_hits as f64 / jobs_f);
    layers.set("gpusim.sim_cycles", kernel_cycles as f64 / jobs_f);
    ctx.checks.check(cold_misses == n * jobs as u64, || {
        format!("{cold_misses} cold misses for {n} points x {jobs} jobs")
    });

    if ctx.trace {
        // Counted re-run of one job's points: the dominant kernel's issued
        // warp instructions, which the uncounted path does not report.
        let mut insts = 0u64;
        for (pt, t) in points.iter().zip(&timings) {
            let conv = Conv::new(pt.problem, pt.device.clone());
            let (counted, _) = ctx.spans.time("counted", 0, || conv.time_counted(pt.algo));
            let counted = counted.expect("every candidate runs a simulated kernel");
            ctx.checks.check(
                t.kernel.as_ref().map(|k| k.wave_cycles) == Some(counted.wave_cycles),
                || format!("{:?} counted timing differs from the sweep's", pt.algo),
            );
            insts += counted.counters.expect("counters were requested").issued;
        }
        layers.set("gpusim.warp_insts", insts as f64);
        layers.set("gpusim.insts_per_s", insts as f64 / (point_total / jobs_f));
    }

    Outcome {
        setups_s,
        jobs_s,
        sim_cycles: sims[0],
        layers,
    }
}
