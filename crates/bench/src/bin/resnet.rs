//! `resnet` — whole-network evaluation of the Table 1 chain.
//!
//! Builds the ResNet-50 3×3 network ([`NetGraph::resnet50`]) at every
//! Table 1 batch size, plans it on both devices under three policies —
//! `auto` (fastest candidate per layer, the paper's kernel included),
//! `baseline` (the cuDNN-like library: fastest candidate *excluding* the
//! paper's kernel), and `fused` (the paper's kernel everywhere) — and
//! reports what only a network-level view can show:
//!
//! * end-to-end time, cold (filter transforms recomputed per request, the
//!   cuDNN per-call behaviour) vs steady (transforms hoisted into the
//!   persistent cache and amortized across batches/requests);
//! * the workspace arena: peak bytes under linear-scan reuse vs bump
//!   allocation, with and without transform hoisting — the fused kernel's
//!   no-workspace advantage as a single arena number (Fig. 14 at network
//!   scale);
//! * per-layer algorithm choices with their transform/kernel split;
//! * how many candidate probes each plan ran and how many its lower bounds
//!   pruned (stdout only; every point is still swept, and its bound
//!   asserted against its time).
//!
//! Every candidate timing runs through the shared sweep engine
//! (`--jobs/--no-cache/...`), memoized under `Conv::key`, so the
//! output is byte-identical across job counts and cache states.
//!
//! Flags: `--json PATH` (default `BENCH_resnet.json`), `--smoke` (the
//! 4-node smoke graph + invariant asserts, for CI).

use std::collections::{HashMap, HashSet};

use bench::report::{check_args, flag_value, Report, SWEEP_FLAGS};
use bench::{Point, Table};
use gpusim::DeviceSpec;
use wino_core::netgraph::LayerTimer;
use wino_core::resnet::BATCH_SIZES;
use wino_core::{Algo, AlgoPolicy, AlgoTiming, Conv, ConvProblem, NetGraph, NetPlan, Target};

/// One timing point: device name, problem, algorithm.
type PointKey = (&'static str, ConvProblem, Algo);

/// [`LayerTimer`] backed by the sweep-memoized timing table.
struct MapTimer<'a> {
    timings: &'a HashMap<PointKey, AlgoTiming>,
}

impl LayerTimer for MapTimer<'_> {
    fn time(&self, conv: &Conv, algo: Algo) -> AlgoTiming {
        let key = (conv.device.name, conv.problem, algo);
        self.timings
            .get(&key)
            .unwrap_or_else(|| panic!("timing point {key:?} not enumerated"))
            .clone()
    }
}

const POLICIES: [AlgoPolicy; 3] = [
    AlgoPolicy::Auto,
    AlgoPolicy::Baseline,
    AlgoPolicy::Fixed(Algo::OursFused),
];

fn main() {
    check_args("resnet", &[&["--smoke", "--json PATH"], SWEEP_FLAGS]);
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let json_path = flag_value(&args, "--json").unwrap_or_else(|| "BENCH_resnet.json".into());

    println!("resnet: whole-network runtime (memory planner + hoisted transform cache)");
    let devices = [DeviceSpec::v100(), DeviceSpec::rtx2070()];
    let graphs: Vec<NetGraph> = if smoke {
        vec![NetGraph::smoke(32)]
    } else {
        BATCH_SIZES.iter().map(|&n| NetGraph::resnet50(n)).collect()
    };

    // Enumerate every timing point any plan will probe, dedup, and run
    // them through the sweep engine in one deterministic registration pass.
    // The planner skips candidates on their lower bounds, so check the
    // bound against every point the sweep times.
    let mut seen: HashSet<PointKey> = HashSet::new();
    let (mut keys, mut points, mut bounds) = (Vec::new(), Vec::new(), Vec::new());
    for dev in &devices {
        for g in &graphs {
            for policy in POLICIES {
                for (p, algo) in g.probes(dev, policy) {
                    if seen.insert((dev.name, p, algo)) {
                        let conv = Conv::new(p, dev.clone());
                        keys.push((dev.name, p, algo));
                        bounds.push(conv.time_lower_bound(algo));
                        points.push(Point {
                            conv,
                            target: Target::algo(algo),
                            config: Vec::new(),
                        });
                    }
                }
            }
        }
    }
    let mut report = Report::to_path("resnet", Some(json_path));
    let results = report.measure(&points);
    for ((key, bound), t) in keys.iter().zip(&bounds).zip(&results) {
        assert!(
            *bound <= t.time_s,
            "{key:?}: lower bound {bound} s above the device time {} s",
            t.time_s
        );
    }
    let timings: HashMap<PointKey, AlgoTiming> = keys.into_iter().zip(results).collect();
    let timer = MapTimer { timings: &timings };

    let mut t = Table::new(&[
        "device",
        "batch",
        "policy",
        "cold us",
        "steady us",
        "xform us",
        "reuse MB",
        "noreuse MB",
        "unhoist MB",
        "TFLOPS",
        "probes run/pruned",
    ]);

    let mb = |b: u64| format!("{:.2}", b as f64 / (1024.0 * 1024.0));
    // (device, batch) -> plan, for the cross-policy headline asserts.
    let mut plans: HashMap<(String, usize, String), NetPlan> = HashMap::new();

    for dev in &devices {
        for g in &graphs {
            for policy in POLICIES {
                let plan = g.plan(dev, policy, &timer);
                plan.validate()
                    .unwrap_or_else(|e| panic!("{}/{}/{}: {e}", dev.name, g.batch, plan.policy));
                // Per-layer sum-consistency with the end-to-end report,
                // asserted explicitly on top of validate().
                let layer_sum: f64 =
                    plan.choices.iter().map(|c| c.time_s).sum::<f64>() + plan.transitions_s;
                assert!(
                    (layer_sum - plan.time_cold_s).abs() <= 1e-9 * plan.time_cold_s,
                    "per-layer sum diverges from end-to-end time"
                );

                t.row(vec![
                    dev.name.to_string(),
                    g.batch.to_string(),
                    plan.policy.clone(),
                    format!("{:.1}", plan.time_cold_s * 1e6),
                    format!("{:.1}", plan.time_steady_s * 1e6),
                    format!("{:.1}", plan.transform_total_s * 1e6),
                    mb(plan.arena_reuse.plan.peak_bytes),
                    mb(plan.arena_noreuse.plan.peak_bytes),
                    mb(plan.arena_reuse_unhoisted.plan.peak_bytes),
                    format!("{:.2}", plan.tflops_steady(g)),
                    format!(
                        "{}/{}",
                        g.probes(dev, policy).len() - plan.pruned.len(),
                        plan.pruned.len()
                    ),
                ]);
                report.add(
                    dev.name,
                    &[
                        ("kind", "network".into()),
                        ("graph", plan.graph.as_str().into()),
                        ("batch", g.batch.into()),
                        ("policy", plan.policy.as_str().into()),
                    ],
                    &[
                        ("layers", plan.choices.len().into()),
                        ("net_cold_us", (plan.time_cold_s * 1e6).into()),
                        ("net_steady_us", (plan.time_steady_s * 1e6).into()),
                        ("transform_us", (plan.transform_total_s * 1e6).into()),
                        ("transitions_us", (plan.transitions_s * 1e6).into()),
                        ("probe_us", (plan.probe_s * 1e6).into()),
                        ("tflops_steady", plan.tflops_steady(g).into()),
                        ("peak_reuse_bytes", plan.arena_reuse.plan.peak_bytes.into()),
                        (
                            "peak_noreuse_bytes",
                            plan.arena_noreuse.plan.peak_bytes.into(),
                        ),
                        (
                            "peak_reuse_unhoisted_bytes",
                            plan.arena_reuse_unhoisted.plan.peak_bytes.into(),
                        ),
                        ("hoisted_bytes", plan.hoisted_bytes.into()),
                    ],
                );
                // Per-layer records for the selector policies (the fixed
                // policy's layers are all the same algorithm by definition).
                if policy != AlgoPolicy::Fixed(Algo::OursFused) {
                    for c in &plan.choices {
                        report.add(
                            dev.name,
                            &[
                                ("kind", "layer".into()),
                                ("graph", plan.graph.as_str().into()),
                                ("batch", g.batch.into()),
                                ("policy", plan.policy.as_str().into()),
                                ("layer", c.name.as_str().into()),
                            ],
                            &[
                                ("algo", c.algo.name().into()),
                                ("time_us", (c.time_s * 1e6).into()),
                                ("transform_us", (c.transform_s * 1e6).into()),
                                ("kernel_us", (c.kernel_s * 1e6).into()),
                                ("workspace_bytes", c.workspace_bytes.into()),
                                ("workspace_hoisted_bytes", c.workspace_hoisted_bytes.into()),
                                ("hoisted_bytes", c.hoisted_bytes.into()),
                            ],
                        );
                    }
                }
                plans.insert((dev.name.to_string(), g.batch, plan.policy.clone()), plan);
            }
        }
    }
    t.print();

    // Headline invariants, every (device, batch): the hoisted transform
    // cache strictly reduces network time, the reuse arena never loses to
    // bump allocation, and the paper's-kernel runtime (transforms hoisted)
    // peaks below the cuDNN-like baseline left re-transforming per call.
    for dev in &devices {
        for g in &graphs {
            let get = |p: &str| &plans[&(dev.name.to_string(), g.batch, p.to_string())];
            let auto = get("auto");
            let baseline = get("baseline");
            let fused = get("fixed:OURS");
            assert!(
                auto.time_steady_s < auto.time_cold_s,
                "{}/{}: hoisting the filter transforms must reduce network time",
                dev.name,
                g.batch
            );
            assert!(
                auto.arena_reuse.plan.peak_bytes <= auto.arena_noreuse.plan.peak_bytes,
                "{}/{}: reuse arena lost to bump allocation",
                dev.name,
                g.batch
            );
            assert!(
                fused.arena_reuse.plan.peak_bytes < baseline.arena_reuse_unhoisted.plan.peak_bytes,
                "{}/{}: fused network arena ({}) must peak below the \
                 per-call-transform baseline ({})",
                dev.name,
                g.batch,
                fused.arena_reuse.plan.peak_bytes,
                baseline.arena_reuse_unhoisted.plan.peak_bytes
            );
            assert!(
                auto.time_steady_s <= baseline.time_steady_s,
                "{}/{}: the selector with the paper's kernel available must \
                 not lose to the baseline",
                dev.name,
                g.batch
            );
        }
    }

    let auto_steady: f64 = plans
        .iter()
        .filter(|((_, _, p), _)| p == "auto")
        .map(|(_, p)| p.time_steady_s)
        .sum();
    let base_steady: f64 = plans
        .iter()
        .filter(|((_, _, p), _)| p == "baseline")
        .map(|(_, p)| p.time_steady_s)
        .sum();
    println!(
        "\nnetwork steady-state speedup over cuDNN-like baseline (all devices/batches): {:.2}x",
        base_steady / auto_steady
    );
    if smoke {
        println!("smoke OK");
    }
    report.finish();
}
