//! `serve_mix`: the `serve` crate end to end, the only workload that runs
//! the schedule tuner (`sass::island` through `gpusim::BatchTimer`) and the
//! queue and engine. One job deploys the ResNet layer mix
//! (`ShapeClass::resnet_mix`, batch 32) on V100 and RTX 2070:
//!
//! 1. cold `Planner::acquire` of every class (tune budget 12) through a
//!    `PlanCache` over a fresh private `SimStore`;
//! 2. a second acquire round, which must hit and pass `Plan::verify()`;
//! 3. `serve::run` on one second of MMPP-2 arrivals (pool 2, SLO 50 ms,
//!    burst 4): cold and warm at 20k rps, warm at 80k rps;
//! 4. a bisection for the highest rate whose warm p99 meets the SLO, each
//!    probe serving the first 160k arrivals at its rate.
//!
//! At 20k rps latency is set by the batching rule, which holds requests
//! until `arrival + SLO − worst_service`; at 80k rps service time sets it.
//! The engine is an open loop in simulated time: latency runs from each
//! request's due arrival and the generator is never late. The seed drives
//! the arrivals and the order in which a device acquires its classes; the
//! devices take their turns in a fixed order, and the tuner seed is fixed,
//! so the plans (and `sim_cycles`) do not depend on it.

use std::time::Instant;

use bench::simcache::{SimStore, Store};
use gpusim::DeviceSpec;
use serve::engine::{run_recorded, RunStats};
use serve::plan::{Plan, PlanCache, Planner};
use serve::telemetry::{Telemetry, TelemetryOptions};
use serve::traffic::{generate, Request, ShapeClass, TrafficConfig};
use serve::EngineConfig;

use crate::{shuffle, stats, Ctx, Layers, Outcome};

/// One deployment on the reference host, seconds.
const NOMINAL_JOB_S: f64 = 12.3;
const SLO_NS: u64 = 50_000_000;
const POOL: usize = 2;
const LIGHT_RPS: f64 = 20_000.0;
const HEAVY_RPS: f64 = 80_000.0;
/// Capacity search bracket (requests/second) and relative resolution.
const CAPACITY_RPS: (f64, f64) = (10_000.0, 400_000.0);
const CAPACITY_REL: f64 = 0.01;
const TUNE_BUDGET: u64 = 12;
const TUNE_SEED: u64 = 2020;

struct Mix {
    classes: Vec<ShapeClass>,
    batch_sizes: Vec<u32>,
    tune_budget: u64,
    duration_ns: u64,
    search_requests: usize,
}

impl Mix {
    fn new(smoke: bool) -> Self {
        if smoke {
            Mix {
                classes: ShapeClass::smoke_mix(),
                batch_sizes: vec![32],
                tune_budget: 2,
                duration_ns: 20_000_000,
                search_requests: 4_000,
            }
        } else {
            Mix {
                classes: ShapeClass::resnet_mix(),
                batch_sizes: vec![32],
                tune_budget: TUNE_BUDGET,
                duration_ns: 1_000_000_000,
                search_requests: 160_000,
            }
        }
    }

    fn planner(&self, dev: &DeviceSpec, tune_budget: u64) -> Planner {
        let mut p = Planner::new(dev.clone(), self.batch_sizes.clone());
        p.tune_budget = tune_budget;
        p.tune_seed = TUNE_SEED;
        p.mix = Some((LIGHT_RPS, self.classes.iter().map(|c| c.weight).sum()));
        p
    }

    /// `duration_ns` of arrivals at `rate_rps`.
    fn traffic(&self, seed: u64, rate_rps: f64) -> Vec<Request> {
        self.stream(seed, rate_rps, self.duration_ns)
    }

    /// The first `search_requests` arrivals at `rate_rps`. Every probe of
    /// the capacity search serves the same number of requests, so the
    /// search's memory does not depend on which rates the seed leads it to.
    fn search_traffic(&self, seed: u64, rate_rps: f64) -> Vec<Request> {
        let n = self.search_requests;
        // 10% more time than `n` arrivals take on average, cut to `n`.
        let duration_ns = (1.1e9 * n as f64 / rate_rps) as u64;
        let mut requests = self.stream(seed, rate_rps, duration_ns);
        requests.truncate(n);
        requests
    }

    fn stream(&self, seed: u64, rate_rps: f64, duration_ns: u64) -> Vec<Request> {
        let cfg = TrafficConfig {
            seed,
            duration_ns,
            rate_rps,
            burst_factor: 4.0,
            ..Default::default()
        };
        generate(&cfg, &self.classes)
    }
}

/// Simulated outcome of one device's deployment.
struct Served {
    device: DeviceSpec,
    plans: Vec<Plan>,
    cold_light: RunStats,
    warm_light: RunStats,
    warm_heavy: RunStats,
    capacity_rps: f64,
}

/// Simulated nanoseconds as a share of the SLO.
fn slo_pct(ns: f64) -> f64 {
    100.0 * ns / SLO_NS as f64
}

pub fn run(ctx: &mut Ctx) -> Outcome {
    let devices = crate::devices();
    let mix = Mix::new(ctx.smoke);
    // Set-up generates the two fixed-rate streams and acquires the smoke
    // mix once per device in memory, so the first timed acquisition is not
    // the process's first.
    let (setups_s, (light, heavy)) = ctx.setup(|| {
        let warm_up = Mix::new(true);
        for dev in &devices {
            let storage = serve::MemStorage::new();
            let mut cache = PlanCache::new(&storage, dev.name, 0);
            for class in &warm_up.classes {
                warm_up.planner(dev, 0).acquire(&mut cache, class);
            }
        }
        (
            mix.traffic(ctx.seed, LIGHT_RPS),
            mix.traffic(ctx.seed, HEAVY_RPS),
        )
    });
    let jobs = ctx.jobs(NOMINAL_JOB_S);
    let mut rng = ctx.rng(2);

    let mut jobs_s = Vec::new();
    let mut sims = Vec::new();
    let mut served: Vec<Served> = Vec::new();
    for j in 0..jobs as u64 {
        served.clear();
        let store = SimStore(Store::new(ctx.tmp.join(format!("plans-{j}"))));
        let open = ctx.spans.begin("job", j);
        for dev in &devices {
            let s = deploy(ctx, &mix, dev, &store, &light, &heavy, &mut rng);
            served.push(s);
        }
        jobs_s.push(ctx.spans.end(open));
        let cycles: Vec<f64> = served
            .iter()
            .flat_map(|s| {
                s.plans.iter().flat_map(move |p| {
                    p.variants
                        .iter()
                        .map(move |v| v.service_ns as f64 * 1e-9 * s.device.clock_hz)
                })
            })
            .collect();
        sims.push(stats::geomean(&cycles));
    }
    ctx.checks.repeats(&sims);

    let job_total: f64 = jobs_s.iter().sum();
    let mut layers = Layers::default();
    layers.set_pct(
        "serve.plan.build_pct",
        ctx.spans.total("acquire"),
        job_total,
    );
    layers.set_pct("serve.engine.run_pct", ctx.spans.total("engine"), job_total);
    let plans = || {
        served
            .iter()
            .flat_map(|s| s.plans.iter().map(move |p| (s, p)))
    };
    layers.set(
        "serve.plan.build_cost_cycles",
        plans()
            .map(|(s, p)| p.build_cost_ns as f64 * 1e-9 * s.device.clock_hz)
            .sum(),
    );
    let worst = |f: &dyn Fn(&Served) -> f64| served.iter().map(f).fold(f64::MIN, f64::max);
    layers.set(
        "serve.engine.ttfd_slo_pct",
        worst(&|s| {
            let c = &s.cold_light.classes;
            let total: u64 = c.iter().map(|c| c.time_to_first_dispatch_ns).sum();
            slo_pct(total as f64 / c.len() as f64)
        }),
    );
    layers.set(
        "serve.engine.light_p999_slo_pct",
        worst(&|s| slo_pct(s.warm_light.p999_ns as f64)),
    );
    layers.set(
        "serve.engine.heavy_p50_slo_pct",
        worst(&|s| slo_pct(s.warm_heavy.p50_ns as f64)),
    );
    layers.set(
        "serve.engine.heavy_p999_slo_pct",
        worst(&|s| slo_pct(s.warm_heavy.p999_ns as f64)),
    );
    layers.set(
        "serve.engine.capacity_rps",
        served
            .iter()
            .map(|s| s.capacity_rps)
            .fold(f64::MAX, f64::min),
    );
    layers.set(
        "serve.engine.fill",
        served
            .iter()
            .map(|s| s.warm_heavy.mean_fill)
            .fold(f64::MAX, f64::min),
    );
    // The tuner runs on every class whose plan picked the paper's kernel;
    // a schedule is adopted only when it beats the hand schedule.
    let tuned = plans()
        .filter(|(_, p)| p.variants.last().is_some_and(|v| v.algo == "OURS"))
        .count();
    let adopted: Vec<u64> = plans()
        .filter_map(|(_, p)| p.tuned.as_ref().map(|t| t.evals))
        .collect();
    layers.set("sass.tune.evals", adopted.iter().sum::<u64>() as f64);
    layers.set(
        "sass.tune.adopted_frac",
        if tuned == 0 {
            0.0
        } else {
            adopted.len() as f64 / tuned as f64
        },
    );

    if ctx.trace {
        decompose(ctx, &mix, &served, &heavy, &jobs_s, &mut layers);
    }

    Outcome {
        setups_s,
        jobs_s,
        sim_cycles: sims[0],
        layers,
    }
}

/// One device's deployment: cold acquisition, verified re-acquisition,
/// the three fixed-rate engine runs and the capacity search.
fn deploy(
    ctx: &mut Ctx,
    mix: &Mix,
    dev: &DeviceSpec,
    store: &SimStore,
    light: &[Request],
    heavy: &[Request],
    rng: &mut tensor::XorShiftRng,
) -> Served {
    let planner = mix.planner(dev, mix.tune_budget);
    let mut cache = PlanCache::new(store, dev.name, 0);
    let mut order: Vec<usize> = (0..mix.classes.len()).collect();
    shuffle(&mut order, rng);
    let mut plans: Vec<Option<Plan>> = vec![None; mix.classes.len()];
    for &ci in &order {
        let ((plan, hit), _) = ctx.spans.time("acquire", ci as u64, || {
            planner.acquire(&mut cache, &mix.classes[ci])
        });
        ctx.checks.check(!hit, || {
            format!("{}: cold acquire of {} hit", dev.name, plan.class)
        });
        plans[ci] = Some(plan);
    }
    let plans: Vec<Plan> = plans
        .into_iter()
        .map(|p| p.expect("every class acquired"))
        .collect();
    for (ci, class) in mix.classes.iter().enumerate() {
        let ((again, hit), _) = ctx.spans.time("reacquire", ci as u64, || {
            planner.acquire(&mut cache, class)
        });
        ctx.checks
            .check(hit && again.verify() && again == plans[ci], || {
                format!(
                    "{}: {} did not re-acquire as the verified plan",
                    dev.name, class.name
                )
            });
    }

    let engine = |ctx: &mut Ctx, warm: bool, requests: &[Request]| {
        let cfg = EngineConfig {
            slo_ns: SLO_NS,
            pool: POOL,
            warm,
        };
        let (stats, _) = ctx.spans.time("engine", requests.len() as u64, || {
            serve::run(&cfg, &mix.classes, &plans, requests)
        });
        ctx.checks
            .count(stats.requests, stats.requests - stats.completed, || {
                format!("{}: requests did not complete", dev.name)
            });
        stats
    };
    let cold_light = engine(ctx, false, light);
    let warm_light = engine(ctx, true, light);
    let warm_heavy = engine(ctx, true, heavy);
    let meets_slo = |ctx: &mut Ctx, rate: f64| {
        let s = engine(ctx, true, &mix.search_traffic(ctx.seed, rate));
        s.completed == s.requests && s.p99_ns <= SLO_NS
    };
    let (lo, hi) = CAPACITY_RPS;
    let lo_ok = meets_slo(ctx, lo);
    ctx.checks.check(lo_ok, || {
        format!("{}: p99 misses the SLO at {lo} rps", dev.name)
    });
    let capacity_rps = stats::bisect_capacity(lo, hi, CAPACITY_REL, |rate| meets_slo(ctx, rate));
    Served {
        device: dev.clone(),
        plans,
        cold_light,
        warm_light,
        warm_heavy,
        capacity_rps,
    }
}

/// Extra calls after the timed job: a budget-0 rebuild of every plan (the
/// tuner's share of acquisition is the difference) and a recorded engine
/// run at the heavy rate for the queue-wait / service split.
fn decompose(
    ctx: &mut Ctx,
    mix: &Mix,
    served: &[Served],
    heavy: &[Request],
    jobs_s: &[f64],
    layers: &mut Layers,
) {
    let job_s = stats::median(jobs_s);
    let mut untuned_s = 0.0;
    let (mut wait_p99, mut service_p99) = (0f64, 0f64);
    for s in served {
        let planner = mix.planner(&s.device, 0);
        for (class, plan) in mix.classes.iter().zip(&s.plans) {
            let t0 = Instant::now();
            let untuned = planner.build(class);
            untuned_s += t0.elapsed().as_secs_f64();
            let same_algos = untuned
                .variants
                .iter()
                .zip(&plan.variants)
                .all(|(u, t)| u.algo == t.algo && u.service_ns >= t.service_ns);
            ctx.checks.check(same_algos, || {
                format!(
                    "{}/{}: tuning changed an algorithm or slowed a variant",
                    s.device.name, class.name
                )
            });
        }
        let cfg = EngineConfig {
            slo_ns: SLO_NS,
            pool: POOL,
            warm: true,
        };
        let mut tel = Telemetry::new(TelemetryOptions::on());
        let stats = run_recorded(&cfg, &mix.classes, &s.plans, heavy, &mut tel);
        ctx.checks.check(stats.p99_ns == s.warm_heavy.p99_ns, || {
            format!("{}: recording changed the heavy-rate p99", s.device.name)
        });
        let mut waits: Vec<f64> = tel
            .spans()
            .iter()
            .map(|sp| (sp.dispatch_ns - sp.arrival_ns) as f64)
            .collect();
        let mut services: Vec<f64> = tel
            .spans()
            .iter()
            .map(|sp| (sp.complete_ns - sp.dispatch_ns) as f64)
            .collect();
        waits.sort_by(f64::total_cmp);
        services.sort_by(f64::total_cmp);
        wait_p99 = wait_p99.max(stats::percentile(&waits, 99.0));
        service_p99 = service_p99.max(stats::percentile(&services, 99.0));
    }
    let acquire_per_job = ctx.spans.total("acquire") / jobs_s.len() as f64;
    layers.set_pct("serve.plan.tune_pct", acquire_per_job - untuned_s, job_s);
    layers.set("serve.queue.wait_p99_slo_pct", slo_pct(wait_p99));
    layers.set("serve.engine.service_p99_slo_pct", slo_pct(service_p99));
}
