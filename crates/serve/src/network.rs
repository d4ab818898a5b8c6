//! `network` — network-shaped request classes: a request is a whole
//! network, not a layer.
//!
//! A [`NetworkClass`] describes a chain of conv stages (each a
//! [`ShapeClass`] repeated some number of times, with inter-stage
//! transitions inferred from shape mismatches) and lowers to the core
//! runtime's `wino_core::NetGraph` at any batch size. The planner side
//! ([`Planner::build_network`]) plans the graph per supported batch —
//! per-layer algorithm selection with the filter transforms hoisted into
//! the persistent cache — and packages the result as an ordinary
//! [`Plan`], so the serving engine ingests network classes through the
//! same `classes`/`plans` arrays it uses for layer classes:
//!
//! * `service_ns` of each variant is the network's *steady-state* time
//!   (transforms hoisted — they are computed once per weight set, not per
//!   request);
//! * the one-time transform cost plus candidate probing is charged to
//!   [`Plan::build_cost_ns`], i.e. to the cold path, exactly like a layer
//!   plan's probe runs;
//! * the variant's `algo` field is a compact per-layer selection label.

use gpusim::Digest;
use perfmodel::break_even_k;
use wino_core::{Algo, AlgoPolicy, DirectTimer, NetGraph};

use crate::plan::{to_ns, Plan, PlanCache, PlanVariant, Planner, PLAN_FORMAT_VERSION, PROBE_RUNS};
use crate::traffic::ShapeClass;

/// A network-shaped request class: conv stages with repetition counts,
/// plus the class's weight in the traffic mix.
#[derive(Clone, Debug)]
pub struct NetworkClass {
    /// Display name, e.g. `"ResNet50"`.
    pub name: String,
    /// Conv stages in execution order: `(shape, repetitions)`. Transitions
    /// are inserted automatically where consecutive stages disagree on
    /// channels or spatial size.
    pub stages: Vec<(ShapeClass, u32)>,
    /// Relative weight in the traffic mix.
    pub weight: f64,
}

impl NetworkClass {
    /// The Table 1 chain with ResNet-50 block multiplicities — the
    /// network-shaped counterpart of `ShapeClass::resnet_mix`.
    pub fn resnet50(weight: f64) -> Self {
        let reps = [3u32, 4, 6, 3];
        NetworkClass {
            name: "ResNet50".into(),
            stages: ShapeClass::resnet_mix().into_iter().zip(reps).collect(),
            weight,
        }
    }

    /// A scaled-down network over the smoke shapes, cheap enough for unit
    /// tests and CI probes.
    pub fn smoke(weight: f64) -> Self {
        let mix = ShapeClass::smoke_mix();
        NetworkClass {
            name: "SmokeNet".into(),
            stages: vec![(mix[0].clone(), 2), (mix[1].clone(), 1)],
            weight,
        }
    }

    /// Total conv layers across all stages.
    pub fn num_layers(&self) -> usize {
        self.stages.iter().map(|(_, reps)| *reps as usize).sum()
    }

    /// Lower to the executable core-runtime graph at batch size `n`.
    pub fn to_netgraph(&self, n: u32) -> NetGraph {
        let first = &self.stages.first().expect("network has stages").0;
        let mut g = NetGraph::new(&self.name, n as usize, first.c as usize, first.hw as usize);
        for (class, reps) in &self.stages {
            if g.out_channels() != class.c as usize || g.out_hw() != class.hw as usize {
                g = g.transition(class.c as usize, class.hw as usize);
            }
            for rep in 0..*reps {
                g = g.conv_named(&format!("{}.{}", class.name, rep + 1), class.k as usize);
            }
        }
        g
    }

    /// The class entry the engine ingests: the engine treats classes as
    /// opaque named weights, so a network class presents its own name and
    /// weight (the shape fields carry the first stage, for display only).
    pub fn as_shape_class(&self) -> ShapeClass {
        let first = &self.stages.first().expect("network has stages").0;
        ShapeClass {
            name: self.name.clone(),
            hw: first.hw,
            c: first.c,
            k: first.k,
            weight: self.weight,
        }
    }
}

/// Compact label of a network plan's per-layer selection: consecutive
/// layers on the same algorithm collapse to `NAMExCOUNT`, joined with `+`.
fn selection_label(algos: &[Algo]) -> String {
    let mut parts: Vec<String> = Vec::new();
    let mut i = 0;
    while i < algos.len() {
        let mut j = i;
        while j < algos.len() && algos[j] == algos[i] {
            j += 1;
        }
        parts.push(format!("{}x{}", algos[i].name(), j - i));
        i = j;
    }
    format!("NET[{}]", parts.join("+"))
}

impl Planner {
    /// The arrival rate this planner assumes for `net`, requests/second.
    pub fn assumed_network_rps(&self, net: &NetworkClass) -> f64 {
        match self.mix {
            Some((rate, total)) if total > 0.0 => rate * net.weight / total,
            _ => 0.0,
        }
    }

    /// Content address of the network plan this planner would build:
    /// format + timing-model versions, device, the full stage list, batch
    /// set, and the mix assumption.
    pub fn network_plan_key(&self, net: &NetworkClass) -> String {
        let mut d = Digest::new();
        d.str("serve/netplan/v1");
        d.u32(PLAN_FORMAT_VERSION).u32(gpusim::TIMING_MODEL_VERSION);
        self.device.digest_into(&mut d);
        d.str(&net.name);
        for (class, reps) in &net.stages {
            d.str(&class.name);
            for v in [class.hw, class.c, class.k, *reps] {
                d.u32(v);
            }
        }
        for &n in &self.batch_sizes {
            d.u32(n);
        }
        d.u64(self.assumed_network_rps(net).to_bits());
        d.hex()
    }

    /// Build the plan for a network class: plan the graph at every
    /// supported batch size (per-layer selection, transforms hoisted) and
    /// package it as an engine-ingestible [`Plan`]. Probing every
    /// candidate plus the one-time filter transforms is the plan's build
    /// cost; steady-state network time is the service time.
    pub fn build_network(&self, net: &NetworkClass) -> Plan {
        let mut variants = Vec::new();
        let mut build_cost_ns: u64 = 0;
        for &n in &self.batch_sizes {
            let g = net.to_netgraph(n);
            let plan = g.plan(&self.device, AlgoPolicy::Auto, &DirectTimer);
            plan.validate().expect("network plan invariants");
            build_cost_ns += PROBE_RUNS * to_ns(plan.probe_s) + to_ns(plan.transform_total_s);
            let algos: Vec<Algo> = plan.choices.iter().map(|c| c.algo).collect();
            variants.push(PlanVariant {
                n,
                algo: selection_label(&algos),
                service_ns: to_ns(plan.time_steady_s),
                tflops: plan.tflops_steady(&g),
            });
        }
        Plan {
            device: self.device.name.to_string(),
            class: net.name.clone(),
            bound: "network".into(),
            break_even_k: break_even_k(&self.device),
            variants,
            build_cost_ns,
            assumed_rps: self.assumed_network_rps(net),
            tuned: None,
        }
    }

    /// Cache-through acquisition of a network plan; the bool is `true` on
    /// a hit. Mirrors [`Planner::acquire`] for layer classes.
    pub fn acquire_network(&self, cache: &mut PlanCache, net: &NetworkClass) -> (Plan, bool) {
        let key = self.network_plan_key(net);
        if let Some(p) = cache.get(&key) {
            return (p, true);
        }
        let plan = self.build_network(net);
        cache.put(&key, &plan);
        (plan, false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{run, EngineConfig};
    use crate::plan::MemStorage;
    use crate::traffic::{generate, TrafficConfig};
    use gpusim::DeviceSpec;

    fn planner() -> Planner {
        Planner::new(DeviceSpec::v100(), vec![32, 64])
    }

    #[test]
    fn smoke_network_lowers_to_the_core_graph() {
        let net = NetworkClass::smoke(1.0);
        assert_eq!(net.num_layers(), 3);
        let g = net.to_netgraph(32);
        assert_eq!(g.num_convs(), 3);
        assert_eq!(g.input_dims(), [32, 32, 8, 8]);
        // SmokeA.2 leaves 64 channels, which SmokeB consumes directly —
        // no transition node between them.
        assert_eq!(g.nodes.len(), 3);
        let sc = net.as_shape_class();
        assert_eq!(sc.name, "SmokeNet");
        assert_eq!((sc.hw, sc.c, sc.k), (8, 32, 64));
    }

    #[test]
    fn resnet50_network_matches_table1_chain() {
        let net = NetworkClass::resnet50(1.0);
        assert_eq!(net.num_layers(), 16);
        let g = net.to_netgraph(32);
        assert_eq!(g.num_convs(), 16);
        assert_eq!(g.nodes.len(), 19, "three inter-stage transitions");
        assert_eq!(g.input_dims(), [32, 64, 56, 56]);
    }

    #[test]
    fn build_network_packages_a_valid_plan() {
        let p = planner();
        let net = NetworkClass::smoke(1.0);
        let plan = p.build_network(&net);
        assert_eq!(plan.class, "SmokeNet");
        assert_eq!(plan.variants.len(), 2);
        assert!(plan.variants.windows(2).all(|w| w[0].n < w[1].n));
        for v in &plan.variants {
            assert!(v.service_ns > 0);
            assert!(v.algo.starts_with("NET["), "selection label: {}", v.algo);
            assert!(!v.algo.contains(' '), "label must be one token");
        }
        assert!(plan.build_cost_ns > 0, "probing + transforms are charged");
        // The plan record round-trips the network label exactly.
        let rt = Plan::from_json(&gpusim::json::parse(&plan.to_json().render()).unwrap());
        assert_eq!(rt.unwrap(), plan);
    }

    #[test]
    fn acquire_network_is_cache_through() {
        let p = planner();
        let net = NetworkClass::smoke(1.0);
        let mem = MemStorage::new();
        let mut cache = PlanCache::new(&mem, "V100", 0);
        let (cold, hit) = p.acquire_network(&mut cache, &net);
        assert!(!hit);
        let (warm, hit) = p.acquire_network(&mut cache, &net);
        assert!(hit);
        assert_eq!(cold, warm, "replayed plan is identical");
        // A different stage list is a different address.
        let mut other = net.clone();
        other.stages[0].1 += 1;
        assert_ne!(p.network_plan_key(&net), p.network_plan_key(&other));
    }

    #[test]
    fn engine_serves_network_requests() {
        // A mixed fleet: one layer class and one network class, through
        // the unchanged engine.
        let p = planner();
        let layer = ShapeClass::smoke_mix().remove(0);
        let net = NetworkClass::smoke(1.0);
        let classes = vec![layer.clone(), net.as_shape_class()];
        let plans = vec![p.build(&layer), p.build_network(&net)];
        let requests = generate(
            &TrafficConfig {
                duration_ns: 20_000_000,
                rate_rps: 2_000.0,
                ..Default::default()
            },
            &classes,
        );
        assert!(!requests.is_empty());
        let stats = run(&EngineConfig::default(), &classes, &plans, &requests);
        assert_eq!(stats.completed, stats.requests);
        let net_stats = &stats.classes[1];
        assert_eq!(net_stats.name, "SmokeNet");
        assert!(net_stats.requests > 0, "network class saw traffic");
    }
}
