//! [`NetGraph::plan`] times each distinct `(problem, algorithm)` pair once.
//!
//! A counting fake [`LayerTimer`] returns synthetic timings (no
//! simulation), so these tests count the planner's probes and compare the
//! memoised plan bit for bit against a reference loop that probes every
//! candidate of every node, the way the planner did before memoisation.

use std::cell::RefCell;
use std::collections::HashSet;

use gpusim::DeviceSpec;
use tensor::allclose;
use wino_core::netgraph::{transition_time_s, NetNode};
use wino_core::{
    Algo, AlgoPolicy, AlgoTiming, Conv, ConvProblem, DirectTimer, LayerTimer, NetGraph,
};

/// Synthetic timing: a pure function of shape and algorithm, varied enough
/// that the choice differs between layers. At K = 128 the cuDNN-like
/// kernel ties ours exactly, exercising the strict `<` tie-break.
fn synthetic(p: &ConvProblem, algo: Algo) -> AlgoTiming {
    let base = p.direct_flops() / 1e13;
    let factor = match algo {
        Algo::OursFused => 1.0,
        Algo::CudnnWinograd if p.k == 128 => 1.0,
        Algo::CudnnWinograd => 1.3,
        Algo::WinogradNonfused => 0.6 + 64.0 / p.k as f64,
        _ => 1.7,
    };
    let t = base * factor;
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
    AlgoTiming {
        algo,
        time_s: phases.iter().map(|(_, s)| s).sum(),
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
        synthetic(&conv.problem, algo)
    }
}

/// What the plan must report, computed by probing every candidate of every
/// node in order: `(algos, time_cold_s, time_steady_s, probe_s)`.
fn reference(g: &NetGraph, dev: &DeviceSpec, policy: AlgoPolicy) -> (Vec<Algo>, f64, f64, f64) {
    let mut probe_s = 0.0;
    let mut chosen = Vec::new();
    for (_, c) in g.conv_nodes() {
        let mut best: Option<AlgoTiming> = None;
        for algo in policy.candidates(&c.problem, dev) {
            let t = synthetic(&c.problem, algo);
            probe_s += t.time_s;
            if best.as_ref().is_none_or(|b| t.time_s < b.time_s) {
                best = Some(t);
            }
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
    let cold = chosen.iter().map(|c| c.1).sum::<f64>() + transitions_s;
    let steady = chosen.iter().map(|c| c.2).sum::<f64>() + transitions_s;
    (chosen.iter().map(|c| c.0).collect(), cold, steady, probe_s)
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
    // 4 distinct shapes; Auto probes OURS, WINOGRAD and IPG on each plus
    // NONFUSED above the break-even K (Conv4 and Conv5).
    for (policy, want) in POLICIES.into_iter().zip([14, 10, 4]) {
        let timer = CountingTimer::default();
        g.plan(&dev, policy, &timer).validate().unwrap();
        let calls = timer.calls.into_inner();
        assert_eq!(calls.len(), want, "{}", policy.label());
        assert_eq!(calls, g.probes(&dev, policy), "{}", policy.label());
        let distinct: HashSet<_> = calls.iter().collect();
        assert_eq!(
            distinct.len(),
            calls.len(),
            "{}: repeated probe",
            policy.label()
        );
    }
}

#[test]
fn memoised_plan_is_bit_identical_to_per_node_probing() {
    let dev = DeviceSpec::v100();
    // ResNet-50 at two batch sizes, plus a graph with a K = 128 tie.
    let mut graphs: Vec<NetGraph> = [32, 64].map(NetGraph::resnet50).into();
    graphs.push(
        NetGraph::new("tie", 32, 64, 8)
            .conv(128)
            .conv(128)
            .transition(64, 4)
            .conv(128),
    );
    for g in &graphs {
        for policy in POLICIES {
            let plan = g.plan(&dev, policy, &CountingTimer::default());
            plan.validate().unwrap();
            let (algos, cold, steady, probe) = reference(g, &dev, policy);
            let got: Vec<Algo> = plan.choices.iter().map(|c| c.algo).collect();
            let what = format!("{}@{}/{}", g.name, g.batch, policy.label());
            assert_eq!(got, algos, "{what}: choices");
            assert_eq!(plan.time_cold_s.to_bits(), cold.to_bits(), "{what}: cold");
            assert_eq!(
                plan.time_steady_s.to_bits(),
                steady.to_bits(),
                "{what}: steady"
            );
            assert_eq!(plan.probe_s.to_bits(), probe.to_bits(), "{what}: probe_s");
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
