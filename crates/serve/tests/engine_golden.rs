//! Golden bit-identity contract for the serving engine's event loop.
//!
//! Every line digests the complete `Debug` rendering of one run's
//! [`RunStats`] and, with the recorder on, its [`Telemetry::to_jsonl`]
//! export, whose order within an instant is the record order: the order in
//! which the loop applied co-timed events. The export ends at the makespan,
//! with the end-of-run gauge sample. The scenarios are built around the
//! loop's edge cases (`assert_shape` checks each one still poses its case):
//!
//! * `cotimed` — zero-cost plans whose first arrivals share an instant with
//!   other classes' arrivals, so a plan becomes ready between two arrivals
//!   of one instant, and a costed plan ready exactly at an arrival instant;
//! * `zero_service` — a variant with zero service time, so a dispatch frees
//!   its device at the instant it starts;
//! * `tight_slo` — an SLO below the worst service time, so each request's
//!   latest safe start is its own arrival;
//! * `unsorted` — a request slice out of arrival order, with ties;
//! * `mmpp` — a `generate` MMPP-2 stream over three classes, overloaded in
//!   its bursts on one device.
//!
//! Each runs on pools of 1 and 2, cold and warm, recorder off and on. The
//! engine's unit tests compare it with the heap loop it replaced over
//! generated scenarios (`engine::oracle`); this file pins the outputs.
//!
//! Regenerate only when an intentional engine change lands, with the same
//! switch as the timing-model goldens:
//!
//! ```text
//! HOTLOOP_GOLDEN_REGEN=1 cargo test -p serve --test engine_golden
//! ```

use gpusim::Digest;
use serve::engine::{run_recorded, EngineConfig, RunStats};
use serve::plan::{Plan, PlanVariant};
use serve::telemetry::{MissCause, Telemetry, TelemetryEvent, TelemetryOptions};
use serve::traffic::{generate, Request, ShapeClass, TrafficConfig};

const GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/engine_golden.txt"
);

/// One engine input: classes, their plans, the request slice as given,
/// the SLO and the recorder's gauge tick.
struct Scenario {
    name: &'static str,
    classes: Vec<ShapeClass>,
    plans: Vec<Plan>,
    requests: Vec<Request>,
    slo_ns: u64,
    tick_ns: u64,
}

fn class(i: usize, weight: f64) -> ShapeClass {
    ShapeClass {
        name: format!("C{i}"),
        hw: 8,
        c: 32,
        k: 64,
        weight,
    }
}

/// A plan serving `(batch, service_ns)` variants after `build_cost_ns`.
fn plan(name: &str, variants: &[(u32, u64)], build_cost_ns: u64, assumed_rps: f64) -> Plan {
    Plan {
        device: "golden".into(),
        class: name.into(),
        bound: "compute".into(),
        break_even_k: 128.0,
        variants: variants
            .iter()
            .map(|&(n, service_ns)| PlanVariant {
                n,
                algo: "OURS".into(),
                service_ns,
                tflops: 1.0,
            })
            .collect(),
        build_cost_ns,
        assumed_rps,
        tuned: None,
    }
}

/// `(class, arrival_ns)` pairs as requests with ids in slice order.
fn requests(arrivals: &[(usize, u64)]) -> Vec<Request> {
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

/// A hand-written scenario over `plans.len()` equally weighted classes.
fn hand(
    name: &'static str,
    plans: Vec<Plan>,
    arrivals: &[(usize, u64)],
    slo_ns: u64,
    tick_ns: u64,
) -> Scenario {
    Scenario {
        name,
        classes: (0..plans.len()).map(|i| class(i, 1.0)).collect(),
        plans,
        requests: requests(arrivals),
        slo_ns,
        tick_ns,
    }
}

fn scenarios() -> Vec<Scenario> {
    let mmpp_classes = vec![class(0, 3.0), class(1, 2.0), class(2, 1.0)];
    let traffic = TrafficConfig {
        seed: 2020,
        duration_ns: 20_000_000,
        rate_rps: 40_000.0,
        burst_factor: 4.0,
        ..Default::default()
    };
    // Each class's assumed rate: `rate_rps` split by mix weight.
    let total: f64 = mmpp_classes.iter().map(|c| c.weight).sum();
    let rps: Vec<f64> = mmpp_classes
        .iter()
        .map(|c| traffic.rate_rps * c.weight / total)
        .collect();
    vec![
        hand(
            "cotimed",
            vec![
                plan("C0", &[(2, 3_000), (4, 5_000)], 0, 1e8),
                plan("C1", &[(1, 2_000), (3, 4_000)], 0, 1e8),
                plan("C2", &[(2, 6_000)], 7_000, 1e8),
            ],
            &[
                (1, 1_000),
                (0, 1_000),
                (1, 1_000),
                (2, 1_000),
                (0, 1_000),
                (0, 4_000),
                (2, 8_000),
                (1, 8_000),
                (0, 9_500),
                (1, 12_000),
                (2, 12_000),
                (0, 12_000),
                (0, 12_000),
                (2, 30_000),
            ],
            20_000,
            1_000,
        ),
        hand(
            "zero_service",
            vec![
                plan("C0", &[(1, 0), (2, 0)], 0, 0.0),
                plan("C1", &[(2, 1_500)], 500, 0.0),
            ],
            &[
                (0, 100),
                (0, 100),
                (0, 100),
                (1, 100),
                (0, 200),
                (1, 600),
                (1, 600),
                (0, 600),
                (0, 2_000),
                (1, 2_100),
            ],
            5_000,
            250,
        ),
        hand(
            "tight_slo",
            vec![
                plan("C0", &[(2, 8_000)], 1_000, 0.0),
                plan("C1", &[(1, 3_000), (2, 12_000)], 0, 0.0),
            ],
            &[
                (0, 0),
                (1, 0),
                (1, 500),
                (0, 2_000),
                (0, 2_000),
                (1, 2_000),
                (1, 9_000),
                (0, 9_000),
                (1, 20_000),
                (1, 100_000),
                (1, 100_000),
            ],
            5_000,
            1_000,
        ),
        hand(
            "unsorted",
            vec![
                plan("C0", &[(2, 1_000), (4, 1_800)], 0, 0.0),
                plan("C1", &[(3, 2_500)], 2_000, 0.0),
            ],
            &[
                (0, 5_000),
                (1, 1_000),
                (0, 3_000),
                (1, 1_000),
                (0, 1_000),
                (1, 7_000),
                (0, 3_000),
                (1, 0),
                (0, 1_000),
            ],
            10_000,
            500,
        ),
        Scenario {
            name: "mmpp",
            plans: vec![
                plan("C0", &[(32, 400_000), (64, 700_000)], 1_500_000, rps[0]),
                plan("C1", &[(32, 900_000)], 0, rps[1]),
                plan("C2", &[(16, 200_000), (32, 350_000)], 3_000_000, rps[2]),
            ],
            requests: generate(&traffic, &mmpp_classes),
            classes: mmpp_classes,
            slo_ns: 2_000_000,
            tick_ns: 250_000,
        },
    ]
}

/// Each scenario still poses the edge case it is named for.
fn assert_shape(s: &Scenario, stats: &RunStats, events: &[TelemetryEvent]) {
    match s.name {
        "cotimed" => {
            // A zero-cost fetch, its readiness, then the instant's next
            // arrival.
            let split = events.windows(3).any(|w| match (&w[0], &w[1], &w[2]) {
                (
                    TelemetryEvent::PlanFetch {
                        t, charge_ns: 0, ..
                    },
                    TelemetryEvent::PlanReady { t: u, .. },
                    TelemetryEvent::Arrival { t: v, .. },
                ) => t == u && u == v,
                _ => false,
            });
            assert!(split, "cotimed: no plan readiness between two arrivals");
        }
        "zero_service" => assert!(
            events
                .iter()
                .any(|e| matches!(e, TelemetryEvent::Dispatch { service_ns: 0, .. })),
            "zero_service: no zero-time dispatch"
        ),
        "tight_slo" => assert!(
            events.iter().any(|e| matches!(
                e,
                TelemetryEvent::Complete {
                    cause: MissCause::Service,
                    ..
                }
            )),
            "tight_slo: no miss on service time alone"
        ),
        "unsorted" => assert!(
            s.requests
                .windows(2)
                .any(|w| w[0].arrival_ns > w[1].arrival_ns),
            "unsorted: the slice is sorted"
        ),
        "mmpp" => assert!(
            stats.slo_misses > 0 && stats.requests > 500,
            "mmpp: {} requests, {} misses",
            stats.requests,
            stats.slo_misses
        ),
        other => panic!("unknown scenario {other}"),
    }
}

fn digest(text: &str) -> String {
    let mut d = Digest::new();
    d.str(text);
    d.hex()
}

#[test]
fn engine_matches_golden() {
    let mut lines = Vec::new();
    for s in scenarios() {
        for pool in [1, 2] {
            for warm in [false, true] {
                let cfg = EngineConfig {
                    slo_ns: s.slo_ns,
                    pool,
                    warm,
                };
                for recorded in [false, true] {
                    let mut tel = if recorded {
                        Telemetry::new(TelemetryOptions {
                            tick_ns: s.tick_ns,
                            drift_warmup_ticks: 2,
                            ..TelemetryOptions::on()
                        })
                    } else {
                        Telemetry::off()
                    };
                    let stats = run_recorded(&cfg, &s.classes, &s.plans, &s.requests, &mut tel);
                    let events = if recorded {
                        if pool == 1 && !warm {
                            assert_shape(&s, &stats, tel.events());
                        }
                        digest(&tel.to_jsonl(&[("scenario", s.name)]))
                    } else {
                        "-".into()
                    };
                    lines.push(format!(
                        "{}/pool{pool}/{}/{} stats={} events={events} requests={} batches={} misses={}",
                        s.name,
                        if warm { "warm" } else { "cold" },
                        if recorded { "on" } else { "off" },
                        digest(&format!("{stats:?}")),
                        stats.requests,
                        stats.batches,
                        stats.slo_misses,
                    ));
                }
            }
        }
    }
    let text = lines.join("\n") + "\n";

    if std::env::var("HOTLOOP_GOLDEN_REGEN").is_ok() {
        std::fs::create_dir_all(std::path::Path::new(GOLDEN).parent().unwrap()).unwrap();
        std::fs::write(GOLDEN, &text).unwrap();
        eprintln!("regenerated {GOLDEN}");
        return;
    }

    let golden = std::fs::read_to_string(GOLDEN)
        .expect("missing golden file; run with HOTLOOP_GOLDEN_REGEN=1 to create it");
    if text != golden {
        for (got, want) in lines.iter().zip(golden.lines()) {
            if got != want {
                eprintln!("mismatch:\n  got  {got}\n  want {want}");
            }
        }
        panic!("engine output drifted from the committed golden (see above)");
    }
}
