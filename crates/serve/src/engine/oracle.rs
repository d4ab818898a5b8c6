//! The heap loop the engine used to be (commit `c59844b`), kept as the
//! reference the engine must match.
//!
//! [`run_recorded`] below pushes every request into one time-ordered queue
//! before it starts, and a deadline poke per request as it arrives. Within
//! an instant it pops free devices, then ready plans, then arrivals, then
//! pokes, and among exact ties in push order. The engine derives each next
//! instant from its state instead, so it skips the stale pokes this loop
//! visits, and it must reproduce this loop's `RunStats` and telemetry
//! export exactly.
//!
//! One change from the original: this loop breaks once every request is
//! served and the clock has reached the last completion. The original went
//! on popping stale pokes after the run, sampling drained gauges and
//! stepping the drift tracker past the makespan; the engine's recorded
//! stream ends at the makespan. The original's debug assertion that a
//! popped completion finds its device free is left out too: a zero-service
//! launch frees its device at once, and the same scan may start a longer
//! launch on it, so the assertion fails where the loop is right.
//!
//! [`engine_matches_the_heap_loop`] compares the two over generated
//! scenarios. Randomized with the workspace's deterministic
//! `XorShiftRng`; a failure names its case, pool, phase and recorder state.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use tensor::XorShiftRng;

use super::{percentile, BatchRecord, ClassStats, EngineConfig, RunStats};
use crate::plan::{Plan, PlanVariant, PLAN_LOOKUP_NS};
use crate::queue::{batch_n, ClassQueue};
use crate::telemetry::{
    GaugeSnapshot, LatencyHistogram, MissCause, Telemetry, TelemetryEvent, TelemetryOptions,
};
use crate::traffic::{generate, Request, ShapeClass, TrafficConfig};

#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Event {
    Arrival(usize),
    PlanReady(usize),
    Deadline(usize),
    DeviceFree(usize),
}

/// Event-key ordering at equal timestamps: free devices and ready plans
/// first, then arrivals, then deadline pokes.
fn key(e: &Event) -> u32 {
    match e {
        Event::DeviceFree(_) => 0,
        Event::PlanReady(_) => 1,
        Event::Arrival(_) => 2,
        Event::Deadline(_) => 3,
    }
}

/// A min-queue popping by `(time, key)`, in push order among exact ties.
#[derive(Default)]
struct Events {
    heap: BinaryHeap<Reverse<(u64, u32, u64, Event)>>,
    seq: u64,
}

impl Events {
    fn push(&mut self, time: u64, ev: Event) {
        self.heap.push(Reverse((time, key(&ev), self.seq, ev)));
        self.seq += 1;
    }

    fn pop(&mut self) -> Option<(u64, Event)> {
        self.heap.pop().map(|Reverse((time, _, _, ev))| (time, ev))
    }

    fn peek_time(&self) -> Option<u64> {
        self.heap.peek().map(|Reverse((time, ..))| *time)
    }
}

fn run_recorded(
    cfg: &EngineConfig,
    classes: &[ShapeClass],
    plans: &[Plan],
    requests: &[Request],
    tel: &mut Telemetry,
) -> RunStats {
    assert_eq!(classes.len(), plans.len());
    assert!(cfg.pool >= 1, "need at least one device");
    tel.begin(
        classes.iter().map(|c| c.name.clone()).collect(),
        plans.iter().map(|p| p.assumed_rps).collect(),
    );
    let batch_sizes: Vec<Vec<u32>> = plans
        .iter()
        .map(|p| p.variants.iter().map(|v| v.n).collect())
        .collect();

    let mut events = Events::default();
    for (i, r) in requests.iter().enumerate() {
        events.push(r.arrival_ns, Event::Arrival(i));
    }

    let mut queues: Vec<ClassQueue> = classes.iter().map(|_| ClassQueue::new()).collect();
    // Plan readiness: None until the first arrival starts acquisition.
    let mut plan_ready: Vec<Option<u64>> = vec![None; classes.len()];
    let mut plan_charge: Vec<u64> = vec![0; classes.len()];
    let mut first_arrival: Vec<Option<u64>> = vec![None; classes.len()];
    let mut first_dispatch: Vec<Option<u64>> = vec![None; classes.len()];
    let mut class_requests: Vec<u64> = vec![0; classes.len()];
    let mut device_free: Vec<u64> = vec![0; cfg.pool];

    let mut latencies: Vec<u64> = Vec::with_capacity(requests.len());
    let mut slo_misses: u64 = 0;
    let mut makespan: u64 = 0;
    let mut records: Vec<BatchRecord> = Vec::new();

    let mut completed: u64 = 0;
    while let Some((now, ev)) = events.pop() {
        // Gauge samples due strictly before this instant's events apply.
        tel.sample_until(now, || GaugeSnapshot {
            depths: queues.iter().map(|q| q.len() as u32).collect(),
            oldest_wait_ns: queues.iter().map(|q| q.oldest_wait_ns(now)).collect(),
            busy_devices: device_free.iter().filter(|&&t| t > 0 && t >= now).count() as u32,
            inflight_batches: device_free.iter().filter(|&&t| t > 0 && t >= now).count() as u32,
            plans_ready: plan_ready
                .iter()
                .filter(|r| r.is_some_and(|t| t < now))
                .count() as u32,
            plans_building: plan_ready
                .iter()
                .filter(|r| r.is_some_and(|t| t >= now))
                .count() as u32,
        });
        let mut apply =
            |ev: Event, events: &mut Events, queues: &mut [ClassQueue], tel: &mut Telemetry| {
                match ev {
                    Event::Arrival(i) => {
                        let r = requests[i];
                        let c = r.class;
                        class_requests[c] += 1;
                        queues[c].push(r);
                        tel.on_arrival(now, r.id, c, queues[c].len() as u32);
                        if first_arrival[c].is_none() {
                            first_arrival[c] = Some(now);
                            let charge = if cfg.warm {
                                PLAN_LOOKUP_NS
                            } else {
                                plans[c].build_cost_ns
                            };
                            plan_charge[c] = charge;
                            let ready = now + charge;
                            plan_ready[c] = Some(ready);
                            events.push(ready, Event::PlanReady(c));
                            tel.on_plan_fetch(now, c, ready, charge, cfg.warm);
                        }
                        // Deadline poke for this request's SLO margin.
                        let deadline =
                            r.arrival_ns + cfg.slo_ns.saturating_sub(plans[c].worst_service_ns());
                        events.push(deadline, Event::Deadline(c));
                    }
                    // Pure wake-ups: state already carries everything; the
                    // dispatch scan below reacts.
                    Event::PlanReady(c) => tel.on_plan_ready(now, c),
                    Event::Deadline(_) | Event::DeviceFree(_) => {}
                }
            };
        apply(ev, &mut events, &mut queues, tel);
        // Drain every event at this instant before deciding anything.
        while events.peek_time() == Some(now) {
            let (_, ev) = events.pop().unwrap();
            apply(ev, &mut events, &mut queues, tel);
        }

        // Greedy dispatch: most urgent due class to the lowest free device.
        while let Some(dev) = device_free.iter().position(|&t| t <= now) {
            let due = (0..classes.len())
                .filter(|&c| {
                    plan_ready[c].is_some_and(|t| t <= now)
                        && queues[c].due(
                            now,
                            cfg.slo_ns,
                            plans[c].worst_service_ns(),
                            plans[c].max_batch(),
                        )
                })
                .min_by_key(|&c| {
                    (
                        queues[c]
                            .latest_safe_start(cfg.slo_ns, plans[c].worst_service_ns())
                            .unwrap(),
                        c,
                    )
                });
            let Some(c) = due else { break };
            let group = queues[c].take_batch(plans[c].max_batch());
            let n = batch_n(&batch_sizes[c], group.len());
            let service = plans[c].variant_for(n as usize).service_ns;
            let completion = now + service;
            device_free[dev] = completion;
            events.push(completion, Event::DeviceFree(dev));
            first_dispatch[c].get_or_insert(now);
            let batch_id = tel.on_dispatch(now, c, dev, group.len() as u32, n, service);
            let worst = plans[c].worst_service_ns();
            for r in &group {
                let lat = completion - r.arrival_ns;
                latencies.push(lat);
                let miss = lat > cfg.slo_ns;
                if miss {
                    slo_misses += 1;
                }
                if tel.enabled() {
                    let cause = if !miss {
                        MissCause::None
                    } else {
                        let lss = r.arrival_ns + cfg.slo_ns.saturating_sub(worst);
                        if plan_ready[c].unwrap() > lss {
                            MissCause::PlanBuild
                        } else if now > lss {
                            MissCause::Queueing
                        } else {
                            MissCause::Service
                        }
                    };
                    tel.on_complete(
                        r.id,
                        c,
                        batch_id,
                        r.arrival_ns,
                        now,
                        completion,
                        miss,
                        cause,
                    );
                }
            }
            completed += group.len() as u64;
            makespan = makespan.max(completion);
            records.push(BatchRecord {
                class: c,
                count: group.len() as u32,
                batch_n: n,
                start_ns: now,
                completion_ns: completion,
                device: dev,
            });
        }
        // The one change: stop at the last completion instead of popping
        // the stale pokes that remain.
        if completed == requests.len() as u64 && now >= makespan {
            break;
        }
    }
    assert_eq!(
        completed,
        requests.len() as u64,
        "every request must be served"
    );
    tel.finish(
        makespan,
        GaugeSnapshot {
            depths: queues.iter().map(|q| q.len() as u32).collect(),
            oldest_wait_ns: queues.iter().map(|q| q.oldest_wait_ns(makespan)).collect(),
            busy_devices: 0,
            inflight_batches: 0,
            plans_ready: plan_ready.iter().filter(|r| r.is_some()).count() as u32,
            plans_building: 0,
        },
    );

    let mut histogram = LatencyHistogram::new();
    for &l in &latencies {
        histogram.record(l);
    }
    latencies.sort_unstable();
    let mean_ns = if latencies.is_empty() {
        0
    } else {
        (latencies.iter().map(|&l| l as u128).sum::<u128>() / latencies.len() as u128) as u64
    };
    let mean_fill = if records.is_empty() {
        0.0
    } else {
        records
            .iter()
            .map(|b| f64::from(b.count) / f64::from(b.batch_n))
            .sum::<f64>()
            / records.len() as f64
    };
    let throughput = if makespan == 0 {
        0.0
    } else {
        completed as f64 / (makespan as f64 / 1e9) / cfg.pool as f64
    };
    RunStats {
        requests: requests.len() as u64,
        completed,
        p50_ns: percentile(&latencies, 50.0).unwrap_or(0),
        p99_ns: percentile(&latencies, 99.0).unwrap_or(0),
        p999_ns: percentile(&latencies, 99.9).unwrap_or(0),
        mean_ns,
        max_ns: latencies.last().copied().unwrap_or(0),
        makespan_ns: makespan,
        throughput_rps_per_device: throughput,
        slo_misses,
        batches: records.len() as u64,
        mean_fill,
        histogram,
        classes: classes
            .iter()
            .enumerate()
            .map(|(c, cl)| ClassStats {
                name: cl.name.clone(),
                requests: class_requests[c],
                time_to_first_dispatch_ns: match (first_dispatch[c], first_arrival[c]) {
                    (Some(d), Some(a)) => d - a,
                    _ => 0,
                },
                plan_charge_ns: plan_charge[c],
            })
            .collect(),
    }
}

// ---- generated scenarios ----------------------------------------------------

/// Generated scenarios; each runs on pools 1–3, cold and warm, recorder off
/// and on, through both loops: 4,800 runs per side.
const CASES: usize = 400;

/// One generated engine input.
struct Case {
    classes: Vec<ShapeClass>,
    plans: Vec<Plan>,
    requests: Vec<Request>,
    slo_ns: u64,
    /// Time step of the hand-built streams and of the plans (1 ns for
    /// nothing coarser).
    grid: u64,
    /// Gauge ticks per run horizon.
    ticks: u64,
}

/// A random scenario. Half are hand-built streams whose times lie on a
/// coarse grid, so arrivals, plan landings, completions and latest safe
/// starts often coincide, and half of those are shuffled; the rest are
/// `generate` MMPP-2 streams. A quarter of the variants serve in zero time
/// and a third of the plans build at zero cost, and the SLO runs from zero
/// to 1.5× the worst service time plus a few grid steps.
fn case(rng: &mut XorShiftRng) -> Case {
    let grid = [1, 250, 1_000][rng.gen_index(3)];
    let classes: Vec<ShapeClass> = (0..1 + rng.gen_index(3))
        .map(|i| ShapeClass {
            name: format!("C{i}"),
            hw: 8,
            c: 32,
            k: 64,
            weight: 1.0 + rng.gen_index(3) as f64,
        })
        .collect();
    let plans: Vec<Plan> = classes
        .iter()
        .map(|class| {
            let mut n = 0;
            let variants = (0..1 + rng.gen_index(3))
                .map(|_| {
                    n += 1 + rng.gen_index(8) as u32;
                    let service_ns = if rng.gen_index(4) == 0 {
                        0
                    } else {
                        grid * (1 + rng.gen_index(24) as u64)
                    };
                    PlanVariant {
                        n,
                        algo: "OURS".into(),
                        service_ns,
                        tflops: 1.0,
                    }
                })
                .collect();
            let build_cost_ns = if rng.gen_index(3) == 0 {
                0
            } else {
                grid * rng.gen_index(16) as u64
            };
            Plan {
                device: "oracle".into(),
                class: class.name.clone(),
                bound: "compute".into(),
                break_even_k: 128.0,
                variants,
                build_cost_ns,
                assumed_rps: [0.0, 1e5, 1e6, 1e7][rng.gen_index(4)],
                tuned: None,
            }
        })
        .collect();
    let requests = if rng.gen_index(2) == 0 {
        let mut t = 0;
        let mut requests: Vec<Request> = (0..1 + rng.gen_index(60) as u64)
            .map(|id| {
                t += grid * rng.gen_index(4) as u64;
                Request {
                    id,
                    class: rng.gen_index(classes.len()),
                    arrival_ns: t,
                }
            })
            .collect();
        if rng.gen_index(2) == 0 {
            for i in (1..requests.len()).rev() {
                requests.swap(i, rng.gen_index(i + 1));
            }
        }
        requests
    } else {
        let rate_rps = 50_000.0 + rng.gen_index(450_000) as f64;
        let traffic = TrafficConfig {
            seed: rng.next_u64(),
            duration_ns: (5e10 / rate_rps) as u64,
            rate_rps,
            burst_factor: 4.0,
            ..Default::default()
        };
        generate(&traffic, &classes)
    };
    let worst = plans.iter().map(Plan::worst_service_ns).max().unwrap();
    let slo_ns = rng.gen_index(4) as u64 * worst / 2 + grid * rng.gen_index(8) as u64;
    Case {
        classes,
        plans,
        requests,
        slo_ns,
        grid,
        ticks: 4 + rng.gen_index(37) as u64,
    }
}

impl Case {
    /// Recorder options with some `ticks` gauge ticks, on the grid, up to
    /// the last arrival plus the phase's plan charge, the SLO and the worst
    /// service time.
    fn opts(&self, warm: bool) -> TelemetryOptions {
        let charge = if warm {
            PLAN_LOOKUP_NS
        } else {
            self.plans.iter().map(|p| p.build_cost_ns).max().unwrap()
        };
        let worst = self.plans.iter().map(Plan::worst_service_ns).max().unwrap();
        let last = self.requests.iter().map(|r| r.arrival_ns).max().unwrap();
        let horizon = last + charge + self.slo_ns + worst;
        let tick_ns = self.grid * (horizon / self.grid / self.ticks).max(1);
        TelemetryOptions {
            tick_ns,
            drift_warmup_ticks: 2,
            ..TelemetryOptions::on()
        }
    }
}

/// What the generated runs covered, counted over the recorded runs on one
/// device: each edge case the engine's order rules exist for.
#[derive(Debug, Default)]
struct Coverage {
    zero_service: u32,
    zero_cost_before_arrival: u32,
    colanding_plans: u32,
    tight_slo: u32,
    cotimed_arrivals: u32,
    shuffled: u32,
    drift: u32,
}

impl Coverage {
    fn add(&mut self, case: &Case, events: &[TelemetryEvent]) {
        let worst = case.plans.iter().map(Plan::worst_service_ns).max().unwrap();
        let has = |f: fn(&TelemetryEvent) -> bool| u32::from(events.iter().any(f));
        self.zero_service += has(|e| matches!(e, TelemetryEvent::Dispatch { service_ns: 0, .. }));
        self.drift += has(|e| matches!(e, TelemetryEvent::Drift { .. }));
        self.zero_cost_before_arrival += u32::from(events.windows(3).any(|w| {
            matches!(
                (&w[0], &w[1], &w[2]),
                (
                    TelemetryEvent::PlanFetch { t, charge_ns: 0, .. },
                    TelemetryEvent::PlanReady { t: u, .. },
                    TelemetryEvent::Arrival { t: v, .. },
                ) if t == u && u == v
            )
        }));
        // Two plans that land at one instant out of class-index order.
        let ready: Vec<(u64, usize)> = events
            .iter()
            .filter_map(|e| match *e {
                TelemetryEvent::PlanReady { t, class } => Some((t, class)),
                _ => None,
            })
            .collect();
        self.colanding_plans += u32::from(
            ready
                .windows(2)
                .any(|w| w[0].0 == w[1].0 && w[0].1 > w[1].1),
        );
        self.tight_slo += u32::from(case.slo_ns < worst);
        let r = &case.requests;
        self.cotimed_arrivals +=
            u32::from((1..r.len()).any(|i| r[..i].iter().any(|q| q.arrival_ns == r[i].arrival_ns)));
        self.shuffled += u32::from(r.windows(2).any(|w| w[0].arrival_ns > w[1].arrival_ns));
    }
}

/// The first line where two JSON-lines exports differ, numbered from 1.
fn first_difference<'a>(new: &'a str, old: &'a str) -> Option<(usize, &'a str, &'a str)> {
    let (mut a, mut b) = (new.lines(), old.lines());
    for line in 1.. {
        match (a.next(), b.next()) {
            (None, None) => break,
            (x, y) if x != y => return Some((line, x.unwrap_or("<end>"), y.unwrap_or("<end>"))),
            _ => {}
        }
    }
    None
}

#[test]
fn engine_matches_the_heap_loop() {
    let mut rng = XorShiftRng::new(0x04ac_1e00);
    let mut coverage = Coverage::default();
    for case_no in 0..CASES {
        let case = case(&mut rng);
        for pool in 1..=3 {
            for warm in [false, true] {
                let cfg = EngineConfig {
                    slo_ns: case.slo_ns,
                    pool,
                    warm,
                };
                for recorded in [false, true] {
                    let what =
                        format!("case {case_no}, pool {pool}, warm {warm}, recorded {recorded}");
                    let recorder = || {
                        if recorded {
                            Telemetry::new(case.opts(warm))
                        } else {
                            Telemetry::off()
                        }
                    };
                    let (mut new_tel, mut old_tel) = (recorder(), recorder());
                    let new = super::run_recorded(
                        &cfg,
                        &case.classes,
                        &case.plans,
                        &case.requests,
                        &mut new_tel,
                    );
                    let old = run_recorded(
                        &cfg,
                        &case.classes,
                        &case.plans,
                        &case.requests,
                        &mut old_tel,
                    );
                    assert_eq!(format!("{new:?}"), format!("{old:?}"), "{what}: RunStats");
                    let (new_log, old_log) = (new_tel.to_jsonl(&[]), old_tel.to_jsonl(&[]));
                    if let Some((line, got, want)) = first_difference(&new_log, &old_log) {
                        panic!("{what}: export line {line}:\n  engine {got}\n  oracle {want}");
                    }
                    if recorded && pool == 1 {
                        coverage.add(&case, new_tel.events());
                    }
                }
            }
        }
    }
    let c = &coverage;
    assert!(
        [
            c.zero_service,
            c.zero_cost_before_arrival,
            c.colanding_plans,
            c.tight_slo,
            c.cotimed_arrivals,
            c.shuffled,
            c.drift,
        ]
        .iter()
        .all(|&n| n >= 10),
        "{coverage:?}"
    );
}
