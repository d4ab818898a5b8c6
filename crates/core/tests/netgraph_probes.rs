//! [`NetGraph::plan`] times each distinct `(problem, algorithm)` pair at
//! most once, skips the candidates [`Conv::time_lower_bound`] rules out,
//! and still plans exactly what probing every candidate would.
//!
//! A counting fake [`LayerTimer`] returns synthetic timings (no
//! simulation), so these tests count the planner's probes and compare the
//! pruned plan bit for bit against a reference loop that probes every
//! candidate of every node, the way the planner did before memoisation and
//! pruning. The lower bound itself is checked against the device model.

use std::cell::RefCell;
use std::collections::HashSet;

use gpusim::DeviceSpec;
use tensor::allclose;
use wino_core::conv::LAUNCH_OVERHEAD_S;
use wino_core::netgraph::{candidates, transition_time_s, NetNode, Pruned};
use wino_core::{
    Algo, AlgoPolicy, AlgoTiming, Conv, ConvProblem, DirectTimer, LayerTimer, NetGraph,
};

/// Synthetic timing inside the [`LayerTimer`] contract: a multiple (at
/// least 1) of the candidate's lower bound, varied enough that the choice
/// differs between layers. On 8×8 images the two fused kernels share one
/// time, so the tie must resolve in candidate order; on V100 at C = 32 the
/// cuDNN-like kernel has the lower bound, so it is probed first there.
fn synthetic(conv: &Conv, algo: Algo) -> AlgoTiming {
    let p = &conv.problem;
    let bound = |a| conv.time_lower_bound(a);
    let t = match algo {
        Algo::OursFused | Algo::CudnnWinograd if p.h == 8 => {
            1.25 * bound(Algo::OursFused).max(bound(Algo::CudnnWinograd))
        }
        Algo::OursFused => 1.2 * bound(algo),
        Algo::CudnnWinograd => 1.5 * bound(algo),
        Algo::WinogradNonfused => (1.0 + 64.0 / p.k as f64) * bound(algo),
        _ => 1.1 * bound(algo),
    };
    let phases = match algo {
        Algo::OursFused | Algo::CudnnWinograd => vec![
            ("filter_transform".to_string(), 0.1 * t),
            ("fused".to_string(), 0.9 * t),
        ],
        Algo::WinogradNonfused => vec![
            ("input_transform".to_string(), 0.2 * t),
            ("filter_transform".to_string(), 0.3 * t),
            ("batched_gemm".to_string(), 0.5 * t),
        ],
        _ => vec![("implicit_gemm".to_string(), t)],
    };
    let time_s = phases.iter().map(|(_, s)| s).sum();
    assert!(
        time_s >= bound(algo),
        "{algo:?}: synthetic time under its bound"
    );
    AlgoTiming {
        algo,
        time_s,
        tflops_effective: p.direct_flops() / t / 1e12,
        kernel: None,
        phases,
        trace: None,
    }
}

/// Records every probe and answers with [`synthetic`].
#[derive(Default)]
struct CountingTimer {
    calls: RefCell<Vec<(ConvProblem, Algo)>>,
}

impl LayerTimer for CountingTimer {
    fn time(&self, conv: &Conv, algo: Algo) -> AlgoTiming {
        self.calls.borrow_mut().push((conv.problem, algo));
        synthetic(conv, algo)
    }
}

/// The candidates a pruning planner must skip on one shape, in the order it
/// meets them: in (bound, candidate) order, each whose bound exceeds the
/// least synthetic time of the candidates before it.
fn expected_prunes(conv: &Conv, algos: &[Algo]) -> Vec<Pruned> {
    let mut order: Vec<(f64, usize)> = algos
        .iter()
        .enumerate()
        .map(|(i, &a)| (conv.time_lower_bound(a), i))
        .collect();
    order.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let (mut least, mut out) = (f64::INFINITY, Vec::new());
    for (bound_s, i) in order {
        if bound_s > least {
            out.push(Pruned {
                problem: conv.problem,
                algo: algos[i],
                bound_s,
                incumbent_s: least,
            });
        }
        least = least.min(synthetic(conv, algos[i]).time_s);
    }
    out
}

/// What the plan must report, computed by probing every candidate of every
/// node in order: `(algos, time_cold_s, time_steady_s, probe_s)` and the
/// prunes, shape by shape in first-seen order. `probe_s` charges each node
/// the candidates of its shape that [`expected_prunes`] keeps, in
/// candidate order.
struct Reference {
    algos: Vec<Algo>,
    cold: f64,
    steady: f64,
    probe_s: f64,
    pruned: Vec<Pruned>,
}

fn reference(g: &NetGraph, dev: &DeviceSpec, policy: AlgoPolicy) -> Reference {
    let mut probe_s = 0.0;
    let (mut chosen, mut pruned, mut seen) = (Vec::new(), Vec::new(), HashSet::new());
    for (_, c) in g.conv_nodes() {
        let conv = Conv::new(c.problem, dev.clone());
        let algos = policy.candidates(&c.problem, dev);
        let skipped = expected_prunes(&conv, &algos);
        let mut best: Option<AlgoTiming> = None;
        for algo in algos {
            let t = synthetic(&conv, algo);
            if !skipped.iter().any(|p| p.algo == algo) {
                probe_s += t.time_s;
            }
            if best.as_ref().is_none_or(|b| t.time_s < b.time_s) {
                best = Some(t);
            }
        }
        if seen.insert(c.problem) {
            pruned.extend(skipped);
        }
        let t = best.expect("non-empty candidate set");
        let transform_s: f64 = t
            .phases
            .iter()
            .filter(|(name, _)| name == "filter_transform")
            .map(|(_, s)| s)
            .sum();
        chosen.push((t.algo, t.time_s, t.time_s - transform_s));
    }
    let transitions_s: f64 = g
        .nodes
        .iter()
        .filter_map(|n| match n {
            NetNode::Transition(t) => Some(transition_time_s(t, dev)),
            NetNode::Conv(_) => None,
        })
        .sum();
    Reference {
        algos: chosen.iter().map(|c| c.0).collect(),
        cold: chosen.iter().map(|c| c.1).sum::<f64>() + transitions_s,
        steady: chosen.iter().map(|c| c.2).sum::<f64>() + transitions_s,
        probe_s,
        pruned,
    }
}

const POLICIES: [AlgoPolicy; 3] = [
    AlgoPolicy::Auto,
    AlgoPolicy::Baseline,
    AlgoPolicy::Fixed(Algo::OursFused),
];

#[test]
fn resnet50_probes_each_distinct_pair_once() {
    let g = NetGraph::resnet50(32);
    let dev = DeviceSpec::v100();
    // 4 distinct shapes; Auto may probe OURS, WINOGRAD and IPG on each plus
    // NONFUSED above the break-even K (Conv4 and Conv5): 14 pairs. Under
    // the synthetic times the bounds rule out IPG on every shape, WINOGRAD
    // on Conv3 and Conv5, and OURS on Conv5, where NONFUSED has the lowest
    // bound and a time below OURS's bound. Baseline keeps 5 of its 10.
    for (policy, want) in POLICIES.into_iter().zip([(7, 7), (5, 5), (4, 0)]) {
        let timer = CountingTimer::default();
        let plan = g.plan(&dev, policy, &timer);
        plan.validate().unwrap();
        let calls = timer.calls.into_inner();
        let what = policy.label();
        assert_eq!((calls.len(), plan.pruned.len()), want, "{what}");
        let distinct: HashSet<_> = calls.iter().collect();
        assert_eq!(distinct.len(), calls.len(), "{what}: repeated probe");
        // Every candidate pair is either probed or pruned, never both.
        let mut covered: Vec<_> = calls.clone();
        covered.extend(plan.pruned.iter().map(|p| (p.problem, p.algo)));
        covered.sort_by_key(|&(p, a)| (p.c, p.h, p.k, a as u8));
        let mut all = g.probes(&dev, policy);
        all.sort_by_key(|&(p, a)| (p.c, p.h, p.k, a as u8));
        assert_eq!(covered, all, "{what}: probed + pruned != candidates");
    }
}

#[test]
fn memoised_plan_is_bit_identical_to_per_node_probing() {
    // ResNet-50 at two batch sizes on both devices, plus a graph of 8×8
    // layers where the two fused kernels tie.
    let mut graphs: Vec<NetGraph> = [32, 64].map(NetGraph::resnet50).into();
    graphs.push(
        NetGraph::new("tie", 32, 32, 8)
            .conv(64)
            .conv(128)
            .transition(64, 4)
            .conv(128),
    );
    let (mut pruned_total, mut tie_probed_late_first) = (0, false);
    for dev in [DeviceSpec::v100(), DeviceSpec::rtx2070()] {
        for g in &graphs {
            for policy in POLICIES {
                let timer = CountingTimer::default();
                let plan = g.plan(&dev, policy, &timer);
                plan.validate().unwrap();
                let want = reference(g, &dev, policy);
                let got: Vec<Algo> = plan.choices.iter().map(|c| c.algo).collect();
                let what = format!("{}/{}@{}/{}", dev.name, g.name, g.batch, policy.label());
                assert_eq!(got, want.algos, "{what}: choices");
                let bits = |x: f64| x.to_bits();
                assert_eq!(bits(plan.time_cold_s), bits(want.cold), "{what}: cold");
                assert_eq!(
                    bits(plan.time_steady_s),
                    bits(want.steady),
                    "{what}: steady"
                );
                assert_eq!(bits(plan.probe_s), bits(want.probe_s), "{what}: probe_s");
                // Each prune, with the bound and incumbent that explain it.
                assert_eq!(plan.pruned, want.pruned, "{what}: pruned");
                pruned_total += plan.pruned.len();
                let calls = timer.calls.into_inner();
                let pos = |a| calls.iter().position(|&(p, b)| p.c == 32 && b == a);
                if let (Some(o), Some(w)) = (pos(Algo::OursFused), pos(Algo::CudnnWinograd)) {
                    tie_probed_late_first |= w < o;
                }
            }
        }
    }
    assert!(pruned_total > 0, "no candidate was pruned");
    assert!(
        tie_probed_late_first,
        "no tie had the later candidate probed first"
    );
}

/// Every candidate's lower bound against its device-model time, on both
/// devices, for three grids of the paper's kernel: 720 blocks (a whole
/// number of one-block waves on 80 and on 36 SMs), 81 blocks (a partial
/// last wave on both) and 16 blocks (fewer than either device's SMs). Every
/// other algorithm runs too: the bound covers all of them, equals the time
/// of the all-analytic FFT algorithms, and exceeds the launch overheads of
/// every simulated one.
#[test]
fn lower_bound_never_exceeds_device_time() {
    for dev in [DeviceSpec::v100(), DeviceSpec::rtx2070()] {
        for (hw, k, blocks) in [(24, 320, 720), (18, 64, 81), (8, 64, 16)] {
            let p = ConvProblem::resnet3x3(32, 8, hw, k);
            let conv = Conv::new(p, dev.clone());
            let ours = conv.ours_config().launch_dims().num_blocks();
            assert_eq!(ours, blocks, "{hw}x{hw}: grid");
            let legal = candidates(&p, &dev);
            for algo in Algo::ALL {
                let fused = matches!(algo, Algo::OursFused | Algo::CudnnWinograd);
                if fused && !legal.contains(&algo) {
                    continue;
                }
                let (bound, t) = (conv.time_lower_bound(algo), conv.time(algo));
                let what = format!("{} {hw}x{hw} K={k} {}", dev.name, algo.name());
                assert!(
                    bound <= t.time_s,
                    "{what}: bound {bound} > time {}",
                    t.time_s
                );
                if matches!(algo, Algo::Fft | Algo::FftTiling) {
                    assert_eq!(bound.to_bits(), t.time_s.to_bits(), "{what}: analytic");
                } else {
                    let overheads = t.phases.len() as f64 * LAUNCH_OVERHEAD_S;
                    assert!(bound > overheads, "{what}: no FP32 term");
                }
            }
        }
    }
}

/// One-layer graphs whose V100 `Auto` plans used to panic, with the
/// candidates they get now: `N % 32 != 0` (both fused kernels illegal),
/// `K % 32 != 0` with `C·K % 256 == 0` (the cuDNN-like kernel was admitted
/// anyway), ragged `C` and `K` (the GEMM path pads both), and `K % 64 != 0`
/// above the break-even `K` (the non-fused batched GEMM pads `K`).
fn formerly_panicking() -> Vec<(NetGraph, Vec<Algo>)> {
    let ipg = vec![Algo::ImplicitPrecompGemm];
    vec![
        (NetGraph::new("n8", 8, 64, 8).conv(64), ipg.clone()),
        (NetGraph::new("k16", 32, 16, 8).conv(16), ipg.clone()),
        (NetGraph::new("ragged", 2, 3, 8).conv(5), ipg),
        (
            NetGraph::new("k160", 32, 8, 4).conv(160),
            vec![
                Algo::CudnnWinograd,
                Algo::ImplicitPrecompGemm,
                Algo::WinogradNonfused,
            ],
        ),
    ]
}

#[test]
fn illegal_fused_shapes_fall_back_to_legal_candidates() {
    let dev = DeviceSpec::v100();
    for (g, want) in formerly_panicking() {
        let (_, c) = g.conv_nodes().next().unwrap();
        let conv = Conv::new(c.problem, dev.clone());
        let algos = AlgoPolicy::Auto.candidates(&c.problem, &dev);
        assert_eq!(algos, want, "{}", g.name);
        for a in [Algo::OursFused, Algo::CudnnWinograd] {
            let legal = conv.fused_config(a).check().is_ok();
            assert_eq!(legal, algos.contains(&a), "{}: {a:?}", g.name);
        }
        let plan = g.plan(&dev, AlgoPolicy::Auto, &CountingTimer::default());
        plan.validate().unwrap();
        assert!(algos.contains(&plan.choices[0].algo), "{}", g.name);
    }
}

#[test]
fn illegal_fused_shapes_plan_and_run_on_the_device_model() {
    // The real timer and the functional path: every candidate simulates,
    // and the chosen algorithm's output matches the host reference.
    let dev = DeviceSpec::v100();
    for (g, _) in formerly_panicking() {
        let plan = g.plan(&dev, AlgoPolicy::Auto, &DirectTimer);
        plan.validate().unwrap();
        let algos: Vec<Algo> = plan.choices.iter().map(|c| c.algo).collect();
        let input = g.random_input(5);
        let filters = g.random_filters(6);
        let got = g.execute(&dev, &algos, &input, &filters, None);
        let want = g.execute_reference(&input, &filters);
        assert!(
            allclose(got.as_slice(), want.as_slice(), 1e-3, 1e-3),
            "{}: {algos:?} diverged from the host reference",
            g.name
        );
    }
}
