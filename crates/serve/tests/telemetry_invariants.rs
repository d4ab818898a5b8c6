//! Property tests for the serving flight recorder (ISSUE 8):
//!
//! * **spans reconcile** — every completed request has a complete lifecycle
//!   span with ordered edges (`arrival = enqueue ≤ dispatch ≤ complete`),
//!   and span/miss/batch/histogram counts match [`RunStats`] exactly;
//! * **export order** — [`Telemetry::timeline`] yields events sorted by
//!   `(timestamp, sequence)`, so completions recorded at dispatch time land
//!   at their completion instant;
//! * **gauges** — sampled on a strict tick grid covering the whole run and
//!   ending at the makespan, with `queued` always the sum of the per-class
//!   depths; no drift event lies after the makespan;
//! * **off path** — a disabled recorder records nothing and the engine's
//!   stats are identical to the plain [`run`] path (the simprof contract:
//!   observability off is bit-identical).

use serve::engine::{run, run_recorded, EngineConfig};
use serve::plan::{Plan, PlanVariant};
use serve::telemetry::{Telemetry, TelemetryEvent, TelemetryOptions};
use serve::traffic::{Request, ShapeClass};
use serve::LatencyHistogram;
use tensor::XorShiftRng;

fn class(i: usize) -> ShapeClass {
    ShapeClass {
        name: format!("C{i}"),
        hw: 8,
        c: 32,
        k: 64,
        weight: 1.0,
    }
}

fn random_plan(rng: &mut XorShiftRng, name: &str) -> Plan {
    let nvars = 1 + rng.gen_index(3);
    let mut n = 0;
    let variants = (0..nvars)
        .map(|_| {
            n += 1 + rng.gen_index(64) as u32;
            PlanVariant {
                n,
                algo: "OURS".into(),
                service_ns: 1 + rng.next_u64() % 50_000,
                tflops: 1.0,
            }
        })
        .collect();
    Plan {
        device: "prop".into(),
        class: name.into(),
        bound: "compute".into(),
        break_even_k: 128.0,
        variants,
        build_cost_ns: rng.next_u64() % 200_000,
        assumed_rps: 1000.0,
        tuned: None,
    }
}

/// A random scenario: classes, plans, a bursty request stream and an
/// engine config that forces both hits and misses.
fn scenario(rng: &mut XorShiftRng) -> (Vec<ShapeClass>, Vec<Plan>, Vec<Request>, EngineConfig) {
    let nclasses = 1 + rng.gen_index(3);
    let classes: Vec<ShapeClass> = (0..nclasses).map(class).collect();
    let plans: Vec<Plan> = classes.iter().map(|c| random_plan(rng, &c.name)).collect();
    let nreqs = 1 + rng.gen_index(300);
    let mut t = 0u64;
    let requests: Vec<Request> = (0..nreqs as u64)
        .map(|id| {
            t += rng.next_u64() % 2_000;
            Request {
                id,
                class: rng.gen_index(nclasses),
                arrival_ns: t,
            }
        })
        .collect();
    let cfg = EngineConfig {
        // Tight-ish SLO so some trials miss (all three causes show up
        // across the trial set: plan build cost, contention, service).
        slo_ns: 20_000 + rng.next_u64() % 80_000,
        pool: 1 + rng.gen_index(4),
        warm: rng.gen_index(2) == 0,
    };
    (classes, plans, requests, cfg)
}

fn opts() -> TelemetryOptions {
    TelemetryOptions {
        tick_ns: 10_000, // fine grid so short random runs still tick
        ..TelemetryOptions::on()
    }
}

#[test]
fn spans_complete_ordered_and_reconcile_with_stats() {
    let mut rng = XorShiftRng::new(0x7e1e_0001);
    for trial in 0..100 {
        let (classes, plans, requests, cfg) = scenario(&mut rng);
        let mut tel = Telemetry::new(opts());
        let stats = run_recorded(&cfg, &classes, &plans, &requests, &mut tel);

        assert_eq!(
            tel.spans().len() as u64,
            stats.completed,
            "trial {trial}: one span per completion"
        );
        let mut hist = LatencyHistogram::new();
        let mut misses = 0u64;
        for sp in tel.spans() {
            assert_eq!(sp.arrival_ns, sp.enqueue_ns, "trial {trial}");
            assert!(sp.enqueue_ns <= sp.dispatch_ns, "trial {trial}");
            assert!(sp.dispatch_ns <= sp.complete_ns, "trial {trial}");
            let r = &requests[sp.id as usize];
            assert_eq!(sp.arrival_ns, r.arrival_ns, "trial {trial}");
            assert_eq!(sp.class, r.class, "trial {trial}");
            hist.record(sp.complete_ns - sp.arrival_ns);
            misses += u64::from(sp.miss);
            assert_eq!(
                sp.miss,
                sp.complete_ns - sp.arrival_ns > cfg.slo_ns,
                "trial {trial}: miss flag matches the latency"
            );
            assert_eq!(
                sp.miss,
                sp.cause != serve::MissCause::None,
                "trial {trial}: exactly the misses get a cause"
            );
        }
        assert_eq!(misses, stats.slo_misses, "trial {trial}");
        assert_eq!(hist, stats.histogram, "trial {trial}");
        assert_eq!(tel.batch_count(), stats.batches, "trial {trial}");
    }
}

#[test]
fn export_is_time_sorted_with_sequence_tiebreak() {
    let mut rng = XorShiftRng::new(0x7e1e_0002);
    for trial in 0..50 {
        let (classes, plans, requests, cfg) = scenario(&mut rng);
        let mut tel = Telemetry::new(opts());
        run_recorded(&cfg, &classes, &plans, &requests, &mut tel);
        let timeline: Vec<(u64, &TelemetryEvent)> = tel.timeline().collect();
        assert_eq!(timeline.len(), tel.events().len());
        for pair in timeline.windows(2) {
            let ((s0, e0), (s1, e1)) = (pair[0], pair[1]);
            assert!(
                e0.t() < e1.t() || (e0.t() == e1.t() && s0 < s1),
                "trial {trial}: export order violated at t={} seq={s0}",
                e0.t()
            );
        }
    }
}

#[test]
fn gauges_tick_monotonically_and_reconcile() {
    let mut rng = XorShiftRng::new(0x7e1e_0003);
    for trial in 0..50 {
        let (classes, plans, requests, cfg) = scenario(&mut rng);
        let mut tel = Telemetry::new(opts());
        let stats = run_recorded(&cfg, &classes, &plans, &requests, &mut tel);
        let gauges: Vec<&TelemetryEvent> = tel
            .events()
            .iter()
            .filter(|e| matches!(e, TelemetryEvent::Gauge { .. }))
            .collect();
        assert!(!gauges.is_empty(), "trial {trial}: runs must tick");
        let mut prev = None;
        let mut prev_ready = 0u32;
        for g in &gauges {
            let TelemetryEvent::Gauge {
                t,
                depths,
                queued,
                busy_devices,
                inflight_batches,
                plans_ready,
                plans_building,
                ..
            } = g
            else {
                unreachable!()
            };
            if let Some(p) = prev {
                assert!(*t > p, "trial {trial}: gauge timestamps strictly increase");
            }
            prev = Some(*t);
            assert_eq!(depths.len(), classes.len(), "trial {trial}");
            assert_eq!(
                *queued,
                depths.iter().sum::<u32>(),
                "trial {trial}: queued = sum of depths"
            );
            assert_eq!(
                busy_devices, inflight_batches,
                "trial {trial}: one in-flight group per busy device"
            );
            assert!(*busy_devices as usize <= cfg.pool, "trial {trial}");
            // Plan state exists only once a class has seen its first
            // arrival, and readiness is monotone (ready plans stay ready).
            assert!(
                (*plans_ready + *plans_building) as usize <= classes.len(),
                "trial {trial}"
            );
            assert!(
                *plans_ready >= prev_ready,
                "trial {trial}: plan readiness never regresses"
            );
            prev_ready = *plans_ready;
        }
        assert_eq!(
            prev.unwrap(),
            stats.makespan_ns,
            "trial {trial}: the gauge series covers the run and ends at the makespan"
        );
        assert!(
            tel.events()
                .iter()
                .all(|e| !matches!(e, TelemetryEvent::Drift { t, .. } if *t > stats.makespan_ns)),
            "trial {trial}: no drift event after the makespan"
        );
    }
}

#[test]
fn off_path_is_identical_and_records_nothing() {
    let mut rng = XorShiftRng::new(0x7e1e_0004);
    for _ in 0..50 {
        let (classes, plans, requests, cfg) = scenario(&mut rng);
        let plain = run(&cfg, &classes, &plans, &requests);
        let mut off = Telemetry::off();
        let recorded = run_recorded(&cfg, &classes, &plans, &requests, &mut off);
        assert_eq!(format!("{plain:?}"), format!("{recorded:?}"));
        assert!(off.events().is_empty());
        assert!(off.spans().is_empty());

        // And the recorded stream itself is deterministic: same inputs,
        // same JSONL bytes.
        let mut a = Telemetry::new(opts());
        let mut b = Telemetry::new(opts());
        run_recorded(&cfg, &classes, &plans, &requests, &mut a);
        run_recorded(&cfg, &classes, &plans, &requests, &mut b);
        assert_eq!(a.to_jsonl(&[("x", "y")]), b.to_jsonl(&[("x", "y")]));
    }
}
