//! Whole-network planning probes each distinct layer shape once: ResNet-50's
//! 16 conv nodes have 4 distinct shapes, so `NetGraph::plan` makes 14
//! timer calls instead of 57. The timer here is a counting fake (no
//! simulation) whose times sit far enough above every lower bound that
//! nothing is pruned; `crates/core/tests/netgraph_probes.rs` holds the full
//! bit-identity and pruning suite.

use std::cell::Cell;

use winograd_gpu::gpusim::DeviceSpec;
use winograd_gpu::wino_core::{Algo, AlgoPolicy, AlgoTiming, Conv, LayerTimer, NetGraph};

/// The fake's time: the candidate's lower bound plus one microsecond per
/// 10 MFLOP of the layer (740 µs for every ResNet-50 layer at N = 32). It
/// keeps the `LayerTimer` contract, and since no bound on a shape exceeds
/// another by that much, no candidate is pruned.
fn fake_time(conv: &Conv, algo: Algo) -> f64 {
    conv.time_lower_bound(algo) + conv.problem.direct_flops() / 1e13
}

/// Answers every probe with [`fake_time`] and counts the calls.
#[derive(Default)]
struct CountingTimer {
    calls: Cell<usize>,
}

impl LayerTimer for CountingTimer {
    fn time(&self, conv: &Conv, algo: Algo) -> AlgoTiming {
        self.calls.set(self.calls.get() + 1);
        let time_s = fake_time(conv, algo);
        AlgoTiming {
            algo,
            time_s,
            tflops_effective: 10.0,
            kernel: None,
            phases: vec![("kernel".to_string(), time_s)],
            trace: None,
        }
    }
}

#[test]
fn resnet50_plan_times_each_distinct_layer_once() {
    let g = NetGraph::resnet50(32);
    let dev = DeviceSpec::v100();
    let timer = CountingTimer::default();
    let plan = g.plan(&dev, AlgoPolicy::Auto, &timer);
    plan.validate().unwrap();
    assert_eq!(
        timer.calls.get(),
        14,
        "one call per distinct (shape, algorithm)"
    );
    assert_eq!(g.probes(&dev, AlgoPolicy::Auto).len(), 14);
    assert!(plan.pruned.is_empty(), "{:?}", plan.pruned);
    // probe_s still charges every node's candidates: 57 of them.
    let per_node: usize = g
        .conv_nodes()
        .map(|(_, c)| AlgoPolicy::Auto.candidates(&c.problem, &dev).len())
        .sum();
    assert_eq!(per_node, 57);
    let charged: f64 = g
        .conv_nodes()
        .flat_map(|(_, c)| {
            let conv = Conv::new(c.problem, dev.clone());
            let algos = AlgoPolicy::Auto.candidates(&c.problem, &dev);
            algos.into_iter().map(move |a| fake_time(&conv, a))
        })
        .sum();
    assert!((plan.probe_s - charged).abs() <= 1e-12 * charged);
}
