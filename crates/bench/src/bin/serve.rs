//! `serve` — batched-inference serving on the simulated devices (ISSUE 7).
//!
//! Drives the `serve` crate end-to-end: generates an open-loop MMPP-2
//! request stream over the ResNet layer mix, builds (or warm-loads) a
//! per-shape execution plan for each device via the multi-wave device
//! model, then plays the stream against each device's pool twice — a
//! *cold* phase charging the plan's modeled build cost (probe runs +
//! tuning evaluations) before the first dispatch, and a *warm* phase
//! charging only a cache lookup. The tracked `BENCH_serve.json` reports
//! p50/p99/mean latency, per-device throughput, SLO misses, batch fill and
//! per-class time-to-first-dispatch for every (device, phase).
//!
//! Plans persist in the simcache store (`--plan-dir`, default
//! `target/simcache/`) under content addresses that include the timing
//! model version, so a host-side rerun skips probing and tuning entirely
//! ("tune once, serve forever"); an LRU index with `--plan-cap` bounds how
//! many plans a device keeps. Crucially, the *modeled* cold/warm split
//! keeps the JSON byte-identical whatever the host cache held — host-side
//! hits and misses are stderr chatter, never results.
//!
//! Determinism: the whole run is a pure function of the flags. `--jobs`
//! only shards the per-device work across threads (results merge in
//! registration order) and is excluded from every digest, which is what
//! `bench/tests/serve_determinism.rs` checks byte-for-byte.
//!
//! Telemetry (ISSUE 8): `--events PATH` writes the request-lifecycle
//! flight-recorder stream as JSON lines (one object per event, `device` and
//! `phase` context fields on every line; replay with `servemon --log PATH`),
//! and `--pool-trace PATH` writes the pool timeline as Chrome trace-event
//! JSON (one process per device×phase, one lane per pool slot, launch
//! groups as complete events, deadline misses as instants). Recording is on
//! only when one of the two flags is given; the off path is bit-identical
//! and the `--json` report never depends on it (`serve_telemetry.rs` pins
//! both, across `--jobs`).
//!
//! Flags: `--seed S` (default 2020), `--rate RPS` (default 20000),
//! `--burst F` (default 4), `--slo-ms MS` (default 50),
//! `--duration-ms MS` (default 1000), `--pool P` (devices per scenario,
//! default 2), `--tune-budget B` (anneal steps, default 12),
//! `--jobs N` (default all cores), `--json PATH` (default
//! `BENCH_serve.json`), `--plan-dir DIR`, `--plan-cap N` (0 = unlimited),
//! `--no-plan-cache`, `--events PATH`, `--pool-trace PATH`, `--tick-us N`
//! (gauge period, default 1000), `--smoke` (tiny shapes, short stream,
//! asserts).

use bench::json::{obj, Json};
use bench::report::{check_args, flag_value, Report};
use bench::simcache::{SimStore, Store};
use bench::trace::ChromeTrace;
use bench::Table;
use gpusim::DeviceSpec;
use serve::engine::{run_recorded, EngineConfig, RunStats};
use serve::plan::{Plan, PlanCache, PlanStorage, Planner, PLAN_LOOKUP_NS};
use serve::telemetry::{Telemetry, TelemetryEvent, TelemetryOptions};
use serve::traffic::{generate, Request, ShapeClass, TrafficConfig};
use std::collections::HashMap;

struct Config {
    seed: u64,
    rate_rps: f64,
    burst: f64,
    slo_ns: u64,
    duration_ns: u64,
    pool: usize,
    tune_budget: u64,
    jobs: usize,
    plan_dir: Option<String>,
    plan_cap: usize,
    use_plan_cache: bool,
    smoke: bool,
    json: Option<String>,
    events: Option<String>,
    pool_trace: Option<String>,
    tick_ns: u64,
}

impl Config {
    /// The flight recorder runs only when an export asked for it; otherwise
    /// the engine takes the bit-identical zero-cost off path.
    fn telemetry(&self) -> TelemetryOptions {
        if self.events.is_none() && self.pool_trace.is_none() {
            return TelemetryOptions::off();
        }
        TelemetryOptions {
            tick_ns: self.tick_ns,
            ..TelemetryOptions::on()
        }
    }
}

/// Every flag [`parse_args`] reads.
const SERVE_FLAGS: &[&str] = &[
    "--smoke",
    "--seed N",
    "--rate RPS",
    "--burst B",
    "--slo-ms MS",
    "--duration-ms MS",
    "--pool N",
    "--tune-budget N",
    "--jobs N",
    "--plan-dir DIR",
    "--plan-cap N",
    "--no-plan-cache",
    "--json PATH",
    "--events PATH",
    "--pool-trace PATH",
    "--tick-us US",
];

fn parse_args() -> Config {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let f = |flag: &str, dflt: f64| -> f64 {
        flag_value(&args, flag).map_or(dflt, |v| v.parse().expect("numeric flag"))
    };
    let cfg = Config {
        seed: f("--seed", 2020.0) as u64,
        rate_rps: f("--rate", if smoke { 400_000.0 } else { 20_000.0 }),
        burst: f("--burst", 4.0),
        slo_ns: (f("--slo-ms", if smoke { 2.0 } else { 50.0 }) * 1e6) as u64,
        duration_ns: (f("--duration-ms", if smoke { 20.0 } else { 1000.0 }) * 1e6) as u64,
        pool: f("--pool", 2.0) as usize,
        tune_budget: f("--tune-budget", if smoke { 6.0 } else { 12.0 }) as u64,
        jobs: flag_value(&args, "--jobs").map_or_else(
            || std::thread::available_parallelism().map_or(1, |n| n.get()),
            |v| v.parse().expect("--jobs N"),
        ),
        plan_dir: flag_value(&args, "--plan-dir"),
        plan_cap: f("--plan-cap", 0.0) as usize,
        use_plan_cache: !args.iter().any(|a| a == "--no-plan-cache"),
        smoke,
        json: flag_value(&args, "--json").or_else(|| Some("BENCH_serve.json".to_string())),
        events: flag_value(&args, "--events"),
        pool_trace: flag_value(&args, "--pool-trace"),
        tick_ns: (f("--tick-us", 1000.0) * 1e3) as u64,
    };
    assert!(cfg.pool >= 1, "--pool must be >= 1");
    assert!(cfg.tick_ns > 0, "--tick-us must be positive");
    cfg
}

/// Outcome of one device's full pipeline: plans plus cold and warm runs.
struct DeviceOutcome {
    device: &'static str,
    plans: Vec<Plan>,
    host_hits: u64,
    host_misses: u64,
    evictions: u64,
    cold: RunStats,
    warm: RunStats,
    /// Flight recorders for the two phases (disabled unless `--events` or
    /// `--pool-trace` asked for recording).
    cold_tel: Telemetry,
    warm_tel: Telemetry,
}

fn run_device(
    dev: &DeviceSpec,
    cfg: &Config,
    classes: &[ShapeClass],
    batch_sizes: &[u32],
    requests: &[Request],
) -> DeviceOutcome {
    let mut planner = Planner::new(dev.clone(), batch_sizes.to_vec());
    planner.tune_budget = cfg.tune_budget;
    planner.tune_seed = cfg.seed;
    // Bake the probe-time traffic assumption into each plan so the drift
    // tracker has a reference (observed per-class EWMA vs this rate).
    planner.mix = Some((cfg.rate_rps, classes.iter().map(|c| c.weight).sum()));

    // Each worker opens its own store handle on the shared directory; the
    // content-addressed discipline makes concurrent same-key writes benign.
    let store;
    let mem;
    let storage: &dyn PlanStorage = if cfg.use_plan_cache {
        store =
            SimStore(Store::new(cfg.plan_dir.clone().unwrap_or_else(|| {
                Store::default_dir().to_string_lossy().into_owned()
            })));
        &store
    } else {
        mem = serve::MemStorage::new();
        &mem
    };
    let mut cache = PlanCache::new(storage, dev.name, cfg.plan_cap);
    let mut plans = Vec::new();
    for class in classes {
        let (plan, hit) = planner.acquire(&mut cache, class);
        eprintln!(
            "[serve] {}/{}: {} ({}), build cost {:.3} ms{}",
            dev.name,
            class.name,
            plan.variants.last().unwrap().algo,
            if hit { "cached" } else { "built" },
            plan.build_cost_ns as f64 / 1e6,
            plan.tuned.as_ref().map_or(String::new(), |t| format!(
                ", tuned {}→{} cycles",
                t.hand_cycles, t.tuned_cycles
            )),
        );
        plans.push(plan);
    }

    let mut engine_cfg = EngineConfig {
        slo_ns: cfg.slo_ns,
        pool: cfg.pool,
        warm: false,
    };
    let mut cold_tel = Telemetry::new(cfg.telemetry());
    let cold = run_recorded(&engine_cfg, classes, &plans, requests, &mut cold_tel);
    engine_cfg.warm = true;
    let mut warm_tel = Telemetry::new(cfg.telemetry());
    let warm = run_recorded(&engine_cfg, classes, &plans, requests, &mut warm_tel);
    DeviceOutcome {
        device: dev.name,
        plans,
        host_hits: cache.stats.hits,
        host_misses: cache.stats.misses,
        evictions: cache.stats.evictions,
        cold,
        warm,
        cold_tel,
        warm_tel,
    }
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

fn stats_metrics(s: &RunStats) -> Vec<(&'static str, Json)> {
    vec![
        ("requests", s.requests.into()),
        ("completed", s.completed.into()),
        ("p50_us", us(s.p50_ns).into()),
        ("p99_us", us(s.p99_ns).into()),
        ("p999_ns", s.p999_ns.into()),
        (
            "latency_hist",
            Json::Arr(
                s.histogram
                    .buckets()
                    .map(|(le, count)| obj(&[("le_ns", le.into()), ("count", count.into())]))
                    .collect(),
            ),
        ),
        ("mean_us", us(s.mean_ns).into()),
        ("max_us", us(s.max_ns).into()),
        ("makespan_ms", (s.makespan_ns as f64 / 1e6).into()),
        (
            "throughput_rps_per_device",
            s.throughput_rps_per_device.into(),
        ),
        ("slo_misses", s.slo_misses.into()),
        ("batches", s.batches.into()),
        ("mean_fill", s.mean_fill.into()),
    ]
}

fn main() {
    check_args("serve", &[SERVE_FLAGS]);
    let cfg = parse_args();
    let (classes, batch_sizes): (Vec<ShapeClass>, Vec<u32>) = if cfg.smoke {
        (ShapeClass::smoke_mix(), vec![32, 64])
    } else {
        (
            ShapeClass::resnet_mix(),
            wino_core::resnet::BATCH_SIZES
                .iter()
                .map(|&n| n as u32)
                .collect(),
        )
    };
    let traffic = TrafficConfig {
        seed: cfg.seed,
        duration_ns: cfg.duration_ns,
        rate_rps: cfg.rate_rps,
        burst_factor: cfg.burst,
        ..Default::default()
    };
    let requests = generate(&traffic, &classes);
    eprintln!(
        "[serve] {} requests over {:.0} ms ({} classes, burst {}x)",
        requests.len(),
        cfg.duration_ns as f64 / 1e6,
        classes.len(),
        cfg.burst,
    );

    let devices = [DeviceSpec::v100(), DeviceSpec::rtx2070()];
    // Shard per-device pipelines across worker threads; merge in
    // registration order so output never depends on scheduling.
    let outcomes: Vec<DeviceOutcome> = if cfg.jobs >= 2 {
        let (cfg, classes, batch_sizes, requests) = (&cfg, &classes, &batch_sizes, &requests);
        std::thread::scope(|s| {
            let handles: Vec<_> = devices
                .iter()
                .map(|dev| s.spawn(move || run_device(dev, cfg, classes, batch_sizes, requests)))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        })
    } else {
        devices
            .iter()
            .map(|dev| run_device(dev, &cfg, &classes, &batch_sizes, &requests))
            .collect()
    };

    let mut report = Report::to_path("serve", cfg.json.clone());
    let mut table = Table::new(&[
        "device", "phase", "p50 us", "p99 us", "mean us", "rps/dev", "miss", "fill", "ttfd ms",
    ]);
    for o in &outcomes {
        eprintln!(
            "[serve] {}: plan cache {} hits / {} misses / {} evictions (host side)",
            o.device, o.host_hits, o.host_misses, o.evictions
        );
        for (phase, s) in [("cold", &o.cold), ("warm", &o.warm)] {
            let ttfd_ms = s
                .classes
                .iter()
                .map(|c| c.time_to_first_dispatch_ns as f64 / 1e6)
                .sum::<f64>()
                / s.classes.len() as f64;
            table.row(vec![
                o.device.to_string(),
                phase.to_string(),
                format!("{:.1}", us(s.p50_ns)),
                format!("{:.1}", us(s.p99_ns)),
                format!("{:.1}", us(s.mean_ns)),
                format!("{:.0}", s.throughput_rps_per_device),
                format!("{}", s.slo_misses),
                format!("{:.2}", s.mean_fill),
                format!("{ttfd_ms:.3}"),
            ]);
            let mut metrics = stats_metrics(s);
            metrics.push((
                "ttfd_per_class_us",
                Json::Arr(
                    s.classes
                        .iter()
                        .map(|c| {
                            obj(&[
                                ("class", c.name.as_str().into()),
                                ("requests", c.requests.into()),
                                ("ttfd_us", us(c.time_to_first_dispatch_ns).into()),
                                ("plan_charge_us", us(c.plan_charge_ns).into()),
                            ])
                        })
                        .collect(),
                ),
            ));
            report.add(
                o.device,
                &[
                    ("phase", phase.into()),
                    ("pool", cfg.pool.into()),
                    ("slo_ms", (cfg.slo_ns as f64 / 1e6).into()),
                    ("rate_rps", cfg.rate_rps.into()),
                    ("burst", cfg.burst.into()),
                    ("seed", cfg.seed.into()),
                    ("smoke", cfg.smoke.into()),
                ],
                &metrics,
            );
        }
        for p in &o.plans {
            report.add(
                o.device,
                &[("phase", "plan".into()), ("class", p.class.as_str().into())],
                &[
                    ("bound", p.bound.as_str().into()),
                    ("break_even_k", p.break_even_k.into()),
                    ("build_cost_us", us(p.build_cost_ns).into()),
                    ("tuned", p.tuned.is_some().into()),
                    (
                        "tuned_schedule",
                        match &p.tuned {
                            Some(t) => obj(&[
                                ("n", t.n.into()),
                                ("source", t.source.as_str().into()),
                                ("params", t.params.as_str().into()),
                                ("hand_cycles", t.hand_cycles.into()),
                                ("tuned_cycles", t.tuned_cycles.into()),
                                ("schedule_digest", t.schedule_digest.as_str().into()),
                            ]),
                            None => Json::Null,
                        },
                    ),
                    (
                        "variants",
                        Json::Arr(
                            p.variants
                                .iter()
                                .map(|v| {
                                    obj(&[
                                        ("n", v.n.into()),
                                        ("algo", v.algo.as_str().into()),
                                        ("service_us", us(v.service_ns).into()),
                                        ("tflops", v.tflops.into()),
                                    ])
                                })
                                .collect(),
                        ),
                    ),
                ],
            );
        }
    }
    table.print();
    report.finish();

    if let Some(path) = &cfg.events {
        // One JSON-lines log for the whole run: outcomes in registration
        // order, cold then warm within each, every line context-tagged.
        let mut log = String::new();
        for o in &outcomes {
            for (phase, tel) in [("cold", &o.cold_tel), ("warm", &o.warm_tel)] {
                log.push_str(&tel.to_jsonl(&[("device", o.device), ("phase", phase)]));
            }
        }
        std::fs::write(path, &log)
            .unwrap_or_else(|e| panic!("failed to write --events {path}: {e}"));
        eprintln!(
            "[serve] wrote {} telemetry events to {path}",
            log.lines().count()
        );
    }

    if let Some(path) = &cfg.pool_trace {
        let tr = pool_trace(&outcomes, cfg.pool);
        std::fs::write(path, tr.render())
            .unwrap_or_else(|e| panic!("failed to write --pool-trace {path}: {e}"));
        eprintln!(
            "[serve] wrote {} pool-timeline events to {path}",
            tr.events()
        );
    }

    if cfg.smoke {
        for o in &outcomes {
            assert_eq!(o.cold.completed, o.cold.requests, "cold phase must drain");
            assert_eq!(o.warm.completed, o.warm.requests, "warm phase must drain");
            // A class cannot dispatch before its first arrival plus its
            // plan charge. Where the cold build alone outlasts the warm
            // time to first dispatch, warm must therefore dispatch strictly
            // sooner; a cold build that finishes before the class's first
            // batch is due delays nothing, so there warm need only not be
            // later.
            for (c, w) in o.cold.classes.iter().zip(&o.warm.classes) {
                assert_eq!(w.plan_charge_ns, PLAN_LOOKUP_NS);
                let (cold, warm) = (c.time_to_first_dispatch_ns, w.time_to_first_dispatch_ns);
                let what = format!(
                    "{}/{}: warm ttfd {warm} vs cold {cold} (cold build {})",
                    o.device, c.name, c.plan_charge_ns
                );
                assert!(w.plan_charge_ns < c.plan_charge_ns, "{what}");
                if c.plan_charge_ns > warm {
                    assert!(warm < cold, "{what}");
                } else {
                    assert!(warm <= cold, "{what}");
                }
            }
            assert!(
                o.plans.iter().all(|p| p.verify()),
                "every plan must pass warm-start verification"
            );
            // When the flight recorder ran, its stream must reconcile
            // exactly with the engine's aggregate stats.
            for (phase, s, tel) in [
                ("cold", &o.cold, &o.cold_tel),
                ("warm", &o.warm, &o.warm_tel),
            ] {
                if !tel.enabled() {
                    continue;
                }
                let who = format!("{}/{}", o.device, phase);
                assert_eq!(tel.spans().len() as u64, s.completed, "{who}: span count");
                let misses = tel.spans().iter().filter(|sp| sp.miss).count() as u64;
                assert_eq!(misses, s.slo_misses, "{who}: miss count");
                assert_eq!(tel.batch_count(), s.batches, "{who}: batch count");
                let mut hist = serve::LatencyHistogram::new();
                for sp in tel.spans() {
                    hist.record(sp.complete_ns - sp.arrival_ns);
                }
                assert_eq!(hist, s.histogram, "{who}: histogram");
            }
        }
        eprintln!("[serve] smoke OK");
    }
}

/// Assemble the Chrome-trace pool timeline: one process per
/// `(device, phase)` row, one lane per pool slot, each launch group a
/// complete event on the device lane it ran on, each deadline miss an
/// instant on that same lane.
fn pool_trace(outcomes: &[DeviceOutcome], pool: usize) -> ChromeTrace {
    let mut tr = ChromeTrace::new();
    let mut pid = 0u64;
    for o in outcomes {
        for (phase, tel) in [("cold", &o.cold_tel), ("warm", &o.warm_tel)] {
            pid += 1;
            tr.process_name(pid, &format!("{} ({phase})", o.device));
            for lane in 0..pool as u64 {
                tr.thread_name(pid, lane, &format!("device {lane}"));
            }
            // Completions only carry their batch id; recover the lane from
            // the batch's dispatch record.
            let mut batch_lane: HashMap<u64, u64> = HashMap::new();
            let class_name = |c: usize| tel.class_names().get(c).map_or("?", |s| s.as_str());
            for (_, ev) in tel.timeline() {
                match *ev {
                    TelemetryEvent::Dispatch {
                        t,
                        batch,
                        class,
                        device,
                        count,
                        batch_n,
                        service_ns,
                    } => {
                        batch_lane.insert(batch, device as u64);
                        let algo = o.plans[class]
                            .variants
                            .iter()
                            .find(|v| v.n == batch_n)
                            .map_or("?", |v| v.algo.as_str());
                        tr.complete(
                            pid,
                            device as u64,
                            class_name(class),
                            t,
                            service_ns,
                            &[
                                ("batch", batch.into()),
                                ("algo", algo.into()),
                                ("batch_n", batch_n.into()),
                                ("count", count.into()),
                            ],
                        );
                    }
                    TelemetryEvent::Complete {
                        t,
                        id,
                        class,
                        batch,
                        miss: true,
                        cause,
                        ..
                    } => {
                        let lane = batch_lane.get(&batch).copied().unwrap_or(0);
                        tr.instant(
                            pid,
                            lane,
                            "miss",
                            t,
                            &[
                                ("id", id.into()),
                                ("class", class_name(class).into()),
                                ("cause", cause.name().into()),
                            ],
                        );
                    }
                    _ => {}
                }
            }
        }
    }
    tr
}
