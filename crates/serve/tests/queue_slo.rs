//! Property test for the batching queue's SLO guarantee: when capacity
//! exists (a free device at every safe-start instant, plan ready on
//! arrival) and the SLO is at least the worst-case service time, **no
//! request ever completes past its SLO** — the queue's `latest_safe_start`
//! margin is worst-case by construction, so batching can only add delay it
//! has already budgeted for.

use serve::engine::{run, EngineConfig};
use serve::plan::{Plan, PlanVariant};
use serve::traffic::{Request, ShapeClass};
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
    // 1-3 batch variants with ascending n and arbitrary service times.
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
        // Zero: plans are ready the instant the first request arrives.
        build_cost_ns: 0,
        assumed_rps: 0.0,
        tuned: None,
    }
}

#[test]
fn no_request_misses_slo_when_capacity_exists() {
    let mut rng = XorShiftRng::new(0x0051_0510);
    for trial in 0..200 {
        let nclasses = 1 + rng.gen_index(3);
        let classes: Vec<ShapeClass> = (0..nclasses).map(class).collect();
        let plans: Vec<Plan> = classes
            .iter()
            .map(|c| random_plan(&mut rng, &c.name))
            .collect();
        let worst = plans.iter().map(|p| p.worst_service_ns()).max().unwrap();
        // The guarantee needs slo >= worst-case service (otherwise a lone
        // request can't possibly finish in time and the miss is real).
        let slo_ns = worst + rng.next_u64() % 100_000;

        // Bursty random arrivals, in time order.
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

        // "Capacity exists": more devices than requests can ever need.
        let cfg = EngineConfig {
            slo_ns,
            pool: nreqs.max(1),
            warm: false,
        };
        let stats = run(&cfg, &classes, &plans, &requests);
        assert_eq!(stats.completed, nreqs as u64, "trial {trial}: must drain");
        assert_eq!(
            stats.slo_misses, 0,
            "trial {trial}: slo {slo_ns} worst {worst} max latency {}",
            stats.max_ns
        );
        assert!(
            stats.max_ns <= slo_ns,
            "trial {trial}: max latency {} exceeds SLO {slo_ns}",
            stats.max_ns
        );
    }
}

#[test]
fn misses_appear_only_when_slo_is_unattainable() {
    // Sanity inverse: a lone request with service > SLO must miss — the
    // queue dispatches at the saturated deadline (the arrival instant) and
    // the engine reports the miss instead of hiding it.
    let classes = vec![class(0)];
    let mut plan = random_plan(&mut XorShiftRng::new(7), "C0");
    plan.variants = vec![PlanVariant {
        n: 32,
        algo: "OURS".into(),
        service_ns: 10_000,
        tflops: 1.0,
    }];
    let requests = vec![Request {
        id: 0,
        class: 0,
        arrival_ns: 0,
    }];
    let cfg = EngineConfig {
        slo_ns: 5_000,
        pool: 4,
        warm: false,
    };
    let stats = run(&cfg, &classes, std::slice::from_ref(&plan), &requests);
    assert_eq!(stats.slo_misses, 1);
    assert_eq!(stats.max_ns, 10_000, "dispatched immediately, not delayed");
}
