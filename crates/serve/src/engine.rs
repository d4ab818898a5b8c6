//! `engine` — the discrete-event serving simulation.
//!
//! One [`run`] call plays a pre-generated arrival stream against a pool of
//! identical simulated devices and returns latency/throughput statistics.
//! Time is integer nanoseconds of *simulated* time throughout: service
//! times come from the plans (multi-wave `gpusim::device_sim` timings),
//! plan-acquisition cost is *modeled* ([`Plan::build_cost_ns`] cold,
//! [`PLAN_LOOKUP_NS`] warm), and nothing reads
//! the host clock — which is what makes a serve run a pure function of
//! `(seed, config)` and lets the determinism test demand byte-identical
//! JSON across `--jobs 1/2/8`.
//!
//! **Main loop.** The loop visits only the instants at which the
//! engine's state can change. Each next instant is the least of these
//! values that lie strictly after the current one: the next arrival, each
//! `device_free`, each `plan_ready`, and each non-empty queue's latest safe
//! start (see [`crate::queue`]). Everything that can change the state
//! later is one of them, so no event queue keeps copies; the loop ends when
//! none is left, at the last completion. Arrivals are read through a
//! cursor over the request slice, which is sorted by arrival as
//! [`crate::traffic::generate`] returns it (an unsorted slice is stably
//! sorted first). Within an instant, the plans that land then are reported
//! first, in the order they were fetched, and then the instant's arrivals
//! apply in slice order; a plan that an arrival fetches at zero cost lands
//! at once and is reported right after that arrival. All of an instant's
//! changes apply before any dispatch decision, so co-timed events cannot
//! reorder outcomes. After each instant the engine greedily matches *due*
//! classes to free devices — most urgent deadline first, class index as
//! the tie-break, lowest free device index — until either runs out. A
//! zero-service launch frees its device at the instant it starts, so the
//! same scan can place another group on it. The test-only `oracle` module
//! keeps the heap loop this replaced as the reference, and its test holds
//! the two equal over generated scenarios.
//!
//! **Plan lifecycle.** The first arrival of a class starts plan
//! acquisition; the class cannot dispatch until `first_arrival +
//! acquisition_cost`. Cold runs charge the plan's modeled build cost
//! (probe runs + tuning evaluations); warm runs charge only the cache
//! lookup. `time_to_first_dispatch` per class measures exactly this gap
//! (plus any queueing), which is how the report shows a warm plan cache
//! paying off.

use std::borrow::Cow;

use crate::plan::{Plan, PLAN_LOOKUP_NS};
use crate::queue::{batch_n, ClassQueue};
use crate::telemetry::{GaugeSnapshot, LatencyHistogram, MissCause, Telemetry};
use crate::traffic::{Request, ShapeClass};

/// Engine knobs (traffic is generated separately and passed in).
#[derive(Clone, Debug)]
pub struct EngineConfig {
    /// Latency SLO per request, nanoseconds.
    pub slo_ns: u64,
    /// Identical devices in the pool.
    pub pool: usize,
    /// Warm run: charge [`PLAN_LOOKUP_NS`] instead of the plan's build cost.
    pub warm: bool,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            slo_ns: 50_000_000,
            pool: 2,
            warm: false,
        }
    }
}

/// One dispatched launch group (recorded for the batch-fill statistics).
#[derive(Clone, Copy, Debug)]
pub struct BatchRecord {
    pub class: usize,
    /// Requests actually in the group.
    pub count: u32,
    /// Batch size launched (padded up to a supported size).
    pub batch_n: u32,
    pub start_ns: u64,
    pub completion_ns: u64,
    pub device: usize,
}

/// Per-class outcome.
#[derive(Clone, Debug)]
pub struct ClassStats {
    pub name: String,
    pub requests: u64,
    /// First batch start minus first arrival: plan acquisition + queueing.
    pub time_to_first_dispatch_ns: u64,
    /// Plan-acquisition charge applied (build cost cold, lookup warm).
    pub plan_charge_ns: u64,
}

/// Whole-run outcome.
#[derive(Clone, Debug)]
pub struct RunStats {
    pub requests: u64,
    pub completed: u64,
    pub p50_ns: u64,
    pub p99_ns: u64,
    /// p99.9 latency, nearest-rank over the exact latency list.
    pub p999_ns: u64,
    pub mean_ns: u64,
    pub max_ns: u64,
    /// Last completion instant.
    pub makespan_ns: u64,
    /// Completed requests per simulated second, per device in the pool.
    pub throughput_rps_per_device: f64,
    pub slo_misses: u64,
    pub batches: u64,
    /// Mean of `count / batch_n` over launch groups (padding waste).
    pub mean_fill: f64,
    /// Log-bucketed exact-count latency distribution (every completed
    /// request recorded; cross-checks the nearest-rank percentiles).
    pub histogram: LatencyHistogram,
    pub classes: Vec<ClassStats>,
}

/// Nearest-rank percentile of a sorted slice; `None` on an empty slice so
/// callers decide how "no data" reads (the report uses 0).
fn percentile(sorted: &[u64], p: f64) -> Option<u64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((p / 100.0 * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    Some(sorted[rank - 1])
}

/// Play `requests` against `plans` (parallel to `classes`) on a pool of
/// devices, in `(arrival_ns, index)` order: a sorted slice, as
/// [`crate::traffic::generate`] returns it, is read in place, and any other
/// is stably sorted first. The run ends at the last completion
/// ([`RunStats::makespan_ns`]). Deterministic. Equivalent to
/// [`run_recorded`] with a disabled recorder.
pub fn run(
    cfg: &EngineConfig,
    classes: &[ShapeClass],
    plans: &[Plan],
    requests: &[Request],
) -> RunStats {
    run_recorded(cfg, classes, plans, requests, &mut Telemetry::off())
}

/// [`run`] with a flight recorder attached. When `tel` is disabled every
/// hook is a no-op and the result is identical to [`run`] — the off path
/// costs nothing and changes nothing (the telemetry determinism tests pin
/// this). When enabled, `tel` comes back holding the full event stream,
/// per-request spans and gauge series, all ending at the makespan.
pub fn run_recorded(
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

    let worst: Vec<u64> = plans.iter().map(Plan::worst_service_ns).collect();
    // Arrivals in `(arrival_ns, index)` order: the slice itself when it is
    // sorted, as `generate` returns it, else a stably sorted copy.
    let arrivals: Cow<[Request]> = if requests.is_sorted_by_key(|r| r.arrival_ns) {
        Cow::Borrowed(requests)
    } else {
        let mut sorted = requests.to_vec();
        sorted.sort_by_key(|r| r.arrival_ns);
        Cow::Owned(sorted)
    };
    let mut next_arrival = 0;

    let mut queues: Vec<ClassQueue> = classes.iter().map(|_| ClassQueue::new()).collect();
    // Plan readiness: None until the first arrival starts acquisition.
    let mut plan_ready: Vec<Option<u64>> = vec![None; classes.len()];
    // Classes in the order their plans were fetched.
    let mut fetched: Vec<usize> = Vec::with_capacity(classes.len());
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
    // Before the first arrival the pool is idle and no plan is fetched.
    let mut instant = arrivals.first().map(|r| r.arrival_ns);
    while let Some(now) = instant {
        // Gauge samples due strictly before this instant's changes apply:
        // between instants the engine state is constant, so one snapshot
        // serves every tick in `(prev_instant, now]`. A device whose
        // completion lands exactly at `now` still counts as busy — the
        // sample reads the state that held *up to* the instant.
        tel.sample_until(now, || GaugeSnapshot {
            depths: queues.iter().map(|q| q.len() as u32).collect(),
            oldest_wait_ns: queues.iter().map(|q| q.oldest_wait_ns(now)).collect(),
            busy_devices: device_free.iter().filter(|&&t| t > 0 && t >= now).count() as u32,
            // One launch group per busy device in this engine.
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
        // Plans that land now, in fetch order, before the instant's
        // arrivals.
        for &c in &fetched {
            if plan_ready[c] == Some(now) {
                tel.on_plan_ready(now, c);
            }
        }
        while let Some(&r) = arrivals.get(next_arrival).filter(|r| r.arrival_ns == now) {
            next_arrival += 1;
            let c = r.class;
            class_requests[c] += 1;
            queues[c].push(r);
            tel.on_arrival(now, r.id, c, queues[c].len() as u32);
            if first_arrival[c].is_none() {
                first_arrival[c] = Some(now);
                // Start plan acquisition; the class is undispatchable
                // until it lands.
                let charge = if cfg.warm {
                    PLAN_LOOKUP_NS
                } else {
                    plans[c].build_cost_ns
                };
                plan_charge[c] = charge;
                let ready = now + charge;
                plan_ready[c] = Some(ready);
                fetched.push(c);
                tel.on_plan_fetch(now, c, ready, charge, cfg.warm);
                // A zero-cost plan lands before the instant's next arrival.
                if charge == 0 {
                    tel.on_plan_ready(now, c);
                }
            }
        }

        // Greedy dispatch: most urgent due class to the lowest free device.
        while let Some(dev) = device_free.iter().position(|&t| t <= now) {
            let due = (0..classes.len())
                .filter(|&c| {
                    plan_ready[c].is_some_and(|t| t <= now)
                        && queues[c].due(now, cfg.slo_ns, worst[c], plans[c].max_batch())
                })
                .min_by_key(|&c| {
                    (
                        queues[c].latest_safe_start(cfg.slo_ns, worst[c]).unwrap(),
                        c,
                    )
                });
            let Some(c) = due else { break };
            let group = queues[c].take_batch(plans[c].max_batch());
            let n = batch_n(&batch_sizes[c], group.len());
            let service = plans[c].variant_for(n as usize).service_ns;
            let completion = now + service;
            device_free[dev] = completion;
            first_dispatch[c].get_or_insert(now);
            let batch_id = tel.on_dispatch(now, c, dev, group.len() as u32, n, service);
            for r in &group {
                let lat = completion - r.arrival_ns;
                latencies.push(lat);
                let miss = lat > cfg.slo_ns;
                if miss {
                    slo_misses += 1;
                }
                if tel.enabled() {
                    // Attribute the miss against this request's latest safe
                    // start (the queue's dispatch deadline): plan not ready
                    // by then → plan build; dispatched after it → queueing;
                    // dispatched in time and still late → service alone
                    // exceeds the SLO margin.
                    let cause = if !miss {
                        MissCause::None
                    } else {
                        let lss = r.arrival_ns + cfg.slo_ns.saturating_sub(worst[c]);
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

        // The next instant: the earliest later one at which an arrival
        // lands, a device frees, a plan lands or a queue's oldest request
        // reaches its latest safe start. Nothing else changes the state.
        instant = arrivals
            .get(next_arrival)
            .map(|r| r.arrival_ns)
            .into_iter()
            .chain(device_free.iter().copied())
            .chain(plan_ready.iter().flatten().copied())
            .chain(
                queues
                    .iter()
                    .zip(&worst)
                    .filter_map(|(q, &w)| q.latest_safe_start(cfg.slo_ns, w)),
            )
            .filter(|&t| t > now)
            .min();
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

#[cfg(test)]
mod oracle;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::PlanVariant;

    fn class(name: &str) -> ShapeClass {
        ShapeClass {
            name: name.into(),
            hw: 8,
            c: 32,
            k: 64,
            weight: 1.0,
        }
    }

    fn plan(name: &str, service: &[(u32, u64)], build_cost_ns: u64) -> Plan {
        Plan {
            device: "test".into(),
            class: name.into(),
            bound: "compute".into(),
            break_even_k: 128.0,
            variants: service
                .iter()
                .map(|&(n, service_ns)| PlanVariant {
                    n,
                    algo: "OURS".into(),
                    service_ns,
                    tflops: 1.0,
                })
                .collect(),
            build_cost_ns,
            assumed_rps: 0.0,
            tuned: None,
        }
    }

    fn reqs(arrivals: &[(usize, u64)]) -> Vec<Request> {
        arrivals
            .iter()
            .enumerate()
            .map(|(id, &(class, arrival_ns))| Request {
                id: id as u64,
                class,
                arrival_ns,
            })
            .collect()
    }

    #[test]
    fn full_batch_dispatches_immediately() {
        let classes = vec![class("A")];
        let plans = vec![plan("A", &[(2, 100)], 0)];
        let requests = reqs(&[(0, 10), (0, 20)]);
        let cfg = EngineConfig {
            slo_ns: 1_000_000,
            pool: 1,
            warm: false,
        };
        let s = run(&cfg, &classes, &plans, &requests);
        assert_eq!(s.completed, 2);
        assert_eq!(s.batches, 1);
        // Batch filled at t=20, served in 100ns: oldest waited 10ns queued.
        assert_eq!(s.max_ns, 110);
        assert_eq!(s.slo_misses, 0);
        assert!((s.mean_fill - 1.0).abs() < 1e-12);
    }

    #[test]
    fn lone_request_waits_until_deadline_margin() {
        let classes = vec![class("A")];
        let plans = vec![plan("A", &[(32, 1_000)], 0)];
        let requests = reqs(&[(0, 0)]);
        let cfg = EngineConfig {
            slo_ns: 10_000,
            pool: 1,
            warm: false,
        };
        let s = run(&cfg, &classes, &plans, &requests);
        // Dispatch at slo - worst = 9_000, completion exactly at the SLO.
        assert_eq!(s.max_ns, 10_000);
        assert_eq!(s.slo_misses, 0);
        assert_eq!(s.classes[0].time_to_first_dispatch_ns, 9_000);
    }

    #[test]
    fn warm_beats_cold_time_to_first_dispatch() {
        let classes = vec![class("A")];
        let plans = vec![plan("A", &[(1, 100)], 5_000_000)];
        let requests = reqs(&[(0, 0)]);
        let cold = run(
            &EngineConfig {
                slo_ns: 1_000,
                pool: 1,
                warm: false,
            },
            &classes,
            &plans,
            &requests,
        );
        let warm = run(
            &EngineConfig {
                slo_ns: 1_000,
                pool: 1,
                warm: true,
            },
            &classes,
            &plans,
            &requests,
        );
        assert_eq!(cold.classes[0].time_to_first_dispatch_ns, 5_000_000);
        assert_eq!(warm.classes[0].time_to_first_dispatch_ns, PLAN_LOOKUP_NS);
        assert!(warm.p99_ns < cold.p99_ns);
    }

    #[test]
    fn urgency_order_under_contention() {
        // Two classes, one device. B arrives later but with a much larger
        // worst service, so its safe-start deadline is *earlier*; it must
        // win the free device.
        let classes = vec![class("A"), class("B")];
        let plans = vec![plan("A", &[(1, 100)], 0), plan("B", &[(1, 8_000)], 0)];
        let requests = reqs(&[(0, 0), (1, 10)]);
        let cfg = EngineConfig {
            slo_ns: 10_000,
            pool: 1,
            warm: false,
        };
        let s = run(&cfg, &classes, &plans, &requests);
        assert_eq!(s.slo_misses, 0, "urgency order must protect B's SLO");
        assert_eq!(s.completed, 2);
    }

    #[test]
    fn overload_counts_misses_but_serves_everything() {
        let classes = vec![class("A")];
        let plans = vec![plan("A", &[(1, 10_000)], 0)];
        // 10 lone requests, each 10µs of service, all arriving at once, one
        // device, 20µs SLO: the tail must miss.
        let requests = reqs(&(0..10).map(|_| (0usize, 0u64)).collect::<Vec<_>>());
        let cfg = EngineConfig {
            slo_ns: 20_000,
            pool: 1,
            warm: false,
        };
        let s = run(&cfg, &classes, &plans, &requests);
        assert_eq!(s.completed, 10);
        assert!(s.slo_misses > 0);
        assert_eq!(s.max_ns, 100_000);
    }

    #[test]
    fn zero_service_launch_frees_its_device_at_once() {
        // Both classes are due on arrival; A wins the tie on class index,
        // serves in zero time, and B starts on the same device at once.
        let classes = vec![class("A"), class("B")];
        let plans = vec![plan("A", &[(1, 0)], 0), plan("B", &[(1, 100)], 0)];
        let requests = reqs(&[(0, 0), (1, 0)]);
        let cfg = EngineConfig {
            slo_ns: 0,
            pool: 1,
            warm: false,
        };
        let s = run(&cfg, &classes, &plans, &requests);
        assert_eq!((s.completed, s.batches), (2, 2));
        assert_eq!((s.makespan_ns, s.max_ns, s.slo_misses), (100, 100, 1));
    }

    #[test]
    fn pool_scales_throughput() {
        let classes = vec![class("A")];
        let plans = vec![plan("A", &[(1, 10_000)], 0)];
        let requests = reqs(&(0..8).map(|_| (0usize, 0u64)).collect::<Vec<_>>());
        let one = run(
            &EngineConfig {
                slo_ns: 1_000_000,
                pool: 1,
                warm: false,
            },
            &classes,
            &plans,
            &requests,
        );
        let four = run(
            &EngineConfig {
                slo_ns: 1_000_000,
                pool: 4,
                warm: false,
            },
            &classes,
            &plans,
            &requests,
        );
        assert!(four.makespan_ns < one.makespan_ns);
        assert_eq!(four.makespan_ns, 20_000); // 8 groups over 4 devices
    }
}
