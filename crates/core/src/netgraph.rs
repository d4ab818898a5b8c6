//! `netgraph` — the executable whole-network graph runtime.
//!
//! Promotes the Table 1 layer table ([`crate::resnet`]) into a network: a
//! [`NetGraph`] is a chain of conv layers and inter-layer transitions with
//! realistic tensor shapes, runnable functionally (any algorithm mix, with
//! or without the hoisted filter-transform cache) and plannable end-to-end:
//!
//! * **Per-layer algorithm selection** — [`NetGraph::plan`] picks the
//!   fastest legal, breakeven-pruned candidate per layer ([`candidates`],
//!   pruning via `FusedConfig::check` and `perfmodel::nonfused_viable`),
//!   once per distinct shape ([`NetGraph::probes`]). [`select`] times the
//!   candidates through a [`LayerTimer`] in ascending
//!   [`Conv::time_lower_bound`] order and skips those whose bound exceeds
//!   the best time already measured, recording each in
//!   [`NetPlan::pruned`]. [`AlgoPolicy::Baseline`] excludes the paper's
//!   kernel, yielding the cuDNN-like library a network would otherwise use.
//! * **Memory planning** — every inter-layer activation and per-layer
//!   workspace becomes a [`BufferReq`] with a live range over the node
//!   timeline; [`crate::memplan::plan_arena`] packs them, making the fused
//!   kernel's no-workspace advantage a network-level peak-bytes number.
//! * **Hoisted filter transforms** — each layer's Winograd filter transform
//!   (`F̂ = G F Gᵀ`) is computed once and reused across batches/requests:
//!   functionally through [`TransformCache`] (bit-identical to the
//!   on-the-fly path, keyed by
//!   `kernels::filter_transform::transform_cache_key`), and in the plan as
//!   the cold-vs-steady time split plus the workspace the fused algorithms
//!   no longer need per execution.
//!
//! The `bench` crate's `resnet` binary runs the Conv2–Conv5 chain at each
//! batch size on both devices and writes `BENCH_resnet.json`; the `serve`
//! crate wraps a graph as a network-shaped request class.

use std::collections::{HashMap, HashSet};
use std::rc::Rc;

use gpusim::DeviceSpec;
use kernels::filter_transform::{transform_cache_key, TRANSFORM_TILE};
use tensor::{LayoutKind, Tensor4};

use crate::conv::{Algo, AlgoTiming, Conv, LAUNCH_OVERHEAD_S, MEM_EFF};
use crate::memplan::{plan_arena, ArenaPlan, ArenaPolicy, BufferReq};
use crate::reference::{conv2d_direct, ConvProblem};
use crate::resnet::RESNET_LAYERS;
use crate::transforms::Variant;
use crate::winograd_host::NonFusedPipeline;

/// 3×3 conv block multiplicities of ResNet-50 for Conv2–Conv5 (the weights
/// the serving mix already uses).
pub const RESNET50_REPS: [usize; 4] = [3, 4, 6, 3];

/// One convolution layer in the graph.
#[derive(Clone, Debug)]
pub struct ConvNode {
    pub name: String,
    pub problem: ConvProblem,
}

/// An inter-layer transition: channel remap plus optional 2×2 average
/// pooling (`hw_in == 2 * hw_out`), the stand-in for the 1×1/stride-2
/// shortcut convs between ResNet stages that are outside the paper's 3×3
/// scope. Functionally `out[n][co][y][x] = 0.5 · mean(window of channel
/// co % c_in)`; timed as one memory-bound pass over both tensors.
#[derive(Clone, Debug)]
pub struct TransitionNode {
    pub name: String,
    pub n: usize,
    pub c_in: usize,
    pub hw_in: usize,
    pub c_out: usize,
    pub hw_out: usize,
}

/// A node on the network timeline.
#[derive(Clone, Debug)]
pub enum NetNode {
    Conv(ConvNode),
    Transition(TransitionNode),
}

impl NetNode {
    pub fn name(&self) -> &str {
        match self {
            NetNode::Conv(c) => &c.name,
            NetNode::Transition(t) => &t.name,
        }
    }

    /// NCHW dims of this node's output tensor.
    pub fn out_dims(&self) -> [usize; 4] {
        match self {
            NetNode::Conv(c) => [c.problem.n, c.problem.k, c.problem.h, c.problem.w],
            NetNode::Transition(t) => [t.n, t.c_out, t.hw_out, t.hw_out],
        }
    }

    fn out_len(&self) -> usize {
        self.out_dims().iter().product()
    }
}

/// An executable network: a chain of conv and transition nodes at one batch
/// size. Built with the consuming [`NetGraph::conv`]/[`NetGraph::transition`]
/// chain or the [`NetGraph::resnet50`]/[`NetGraph::smoke`] constructors.
#[derive(Clone, Debug)]
pub struct NetGraph {
    pub name: String,
    pub batch: usize,
    pub nodes: Vec<NetNode>,
    cur_c: usize,
    cur_hw: usize,
}

impl NetGraph {
    /// Empty graph whose input tensor is NCHW `[batch, c0, hw0, hw0]`.
    pub fn new(name: &str, batch: usize, c0: usize, hw0: usize) -> Self {
        NetGraph {
            name: name.to_string(),
            batch,
            nodes: Vec::new(),
            cur_c: c0,
            cur_hw: hw0,
        }
    }

    /// Append a 3×3 pad-1 conv taking the current shape to `k` channels.
    pub fn conv(self, k: usize) -> Self {
        let name = format!("conv{}x{}@{}", self.cur_c, k, self.nodes.len());
        self.conv_named(&name, k)
    }

    /// [`NetGraph::conv`] with an explicit layer name.
    pub fn conv_named(mut self, name: &str, k: usize) -> Self {
        let problem = ConvProblem::resnet3x3(self.batch, self.cur_c, self.cur_hw, k);
        self.nodes.push(NetNode::Conv(ConvNode {
            name: name.to_string(),
            problem,
        }));
        self.cur_c = k;
        self
    }

    /// Append a transition to `c_out` channels at spatial size `hw_out`,
    /// which must equal the current size (channel remap only) or half it
    /// (2×2 average pooling).
    pub fn transition(mut self, c_out: usize, hw_out: usize) -> Self {
        assert!(
            hw_out == self.cur_hw || 2 * hw_out == self.cur_hw,
            "transition supports same-size or 2x pooled outputs \
             (got {} -> {hw_out})",
            self.cur_hw
        );
        let name = format!("trans{}x{}@{}", c_out, hw_out, self.nodes.len());
        self.nodes.push(NetNode::Transition(TransitionNode {
            name,
            n: self.batch,
            c_in: self.cur_c,
            hw_in: self.cur_hw,
            c_out,
            hw_out,
        }));
        self.cur_c = c_out;
        self.cur_hw = hw_out;
        self
    }

    /// The Table 1 Conv2–Conv5 chain with ResNet-50 block multiplicities
    /// (3/4/6/3 repeated 3×3 layers, pooling transitions between stages).
    pub fn resnet50(batch: usize) -> Self {
        let mut g = NetGraph::new(
            "resnet50-3x3",
            batch,
            RESNET_LAYERS[0].c,
            RESNET_LAYERS[0].hw,
        );
        for (li, layer) in RESNET_LAYERS.iter().enumerate() {
            if li > 0 {
                g = g.transition(layer.c, layer.hw);
            }
            for rep in 0..RESNET50_REPS[li] {
                g = g.conv_named(&format!("{}.{}", layer.name, rep + 1), layer.c);
            }
        }
        g
    }

    /// A scaled-down graph for smoke tests and CI: three fused-eligible
    /// convs around a channel-remap transition, two orders of magnitude
    /// less simulation work than one ResNet stage.
    pub fn smoke(batch: usize) -> Self {
        NetGraph::new("smoke", batch, 32, 8)
            .conv_named("SmokeA.1", 64)
            .conv_named("SmokeA.2", 64)
            .transition(32, 8)
            .conv_named("SmokeB.1", 64)
    }

    /// NCHW dims of the network's input tensor.
    pub fn input_dims(&self) -> [usize; 4] {
        match self.nodes.first() {
            Some(NetNode::Conv(c)) => [c.problem.n, c.problem.c, c.problem.h, c.problem.w],
            Some(NetNode::Transition(t)) => [t.n, t.c_in, t.hw_in, t.hw_in],
            None => [self.batch, self.cur_c, self.cur_hw, self.cur_hw],
        }
    }

    /// Number of conv nodes (the length of per-layer algorithm/filter
    /// slices).
    pub fn num_convs(&self) -> usize {
        self.conv_nodes().count()
    }

    /// Conv nodes with their node-timeline indices, in execution order.
    pub fn conv_nodes(&self) -> impl Iterator<Item = (usize, &ConvNode)> {
        self.nodes.iter().enumerate().filter_map(|(i, n)| match n {
            NetNode::Conv(c) => Some((i, c)),
            NetNode::Transition(_) => None,
        })
    }

    /// Direct-convolution FLOPs of the whole network (the figure of merit
    /// network TFLOPS divides by).
    pub fn direct_flops(&self) -> f64 {
        self.conv_nodes()
            .map(|(_, c)| c.problem.direct_flops())
            .sum()
    }

    /// Deterministic random KCRS filters, one per conv node.
    pub fn random_filters(&self, seed: u64) -> Vec<Tensor4> {
        self.conv_nodes()
            .enumerate()
            .map(|(i, (_, c))| {
                let p = &c.problem;
                Tensor4::random(
                    LayoutKind::Kcrs,
                    [p.k, p.c, 3, 3],
                    -1.0,
                    1.0,
                    seed.wrapping_add(i as u64),
                )
            })
            .collect()
    }

    /// Deterministic random NCHW network input.
    pub fn random_input(&self, seed: u64) -> Tensor4 {
        Tensor4::random(LayoutKind::Nchw, self.input_dims(), -1.0, 1.0, seed)
    }

    /// Execute the network functionally on the simulated device with one
    /// algorithm per conv node. With a [`TransformCache`], fused layers run
    /// through [`Conv::run_fused_pretransformed`] on the cached `F̂` —
    /// bit-identical to the per-layer [`Conv::run`] path, since `run` is
    /// exactly transform-then-execute.
    pub fn execute(
        &self,
        device: &DeviceSpec,
        algos: &[Algo],
        input: &Tensor4,
        filters: &[Tensor4],
        mut cache: Option<&mut TransformCache>,
    ) -> Tensor4 {
        assert_eq!(algos.len(), self.num_convs(), "one algo per conv node");
        assert_eq!(filters.len(), self.num_convs(), "one filter per conv node");
        assert_eq!(input.dims(), self.input_dims());
        let mut cur = input.clone();
        let mut ci = 0;
        for node in &self.nodes {
            match node {
                NetNode::Conv(c) => {
                    let conv = Conv::new(c.problem, device.clone());
                    let algo = algos[ci];
                    let fused = matches!(algo, Algo::OursFused | Algo::CudnnWinograd);
                    cur = match (fused, cache.as_mut()) {
                        (true, Some(tc)) => {
                            let tf = tc.get_or_insert(&conv, &filters[ci]);
                            conv.run_fused_pretransformed(algo, &cur, &tf)
                        }
                        _ => conv.run(algo, &cur, &filters[ci]).output,
                    };
                    ci += 1;
                }
                NetNode::Transition(t) => cur = run_transition(t, &cur),
            }
        }
        cur
    }

    /// Host-reference execution: [`conv2d_direct`] for every conv, the same
    /// transition arithmetic as [`NetGraph::execute`].
    pub fn execute_reference(&self, input: &Tensor4, filters: &[Tensor4]) -> Tensor4 {
        assert_eq!(filters.len(), self.num_convs());
        assert_eq!(input.dims(), self.input_dims());
        let mut cur = input.clone();
        let mut ci = 0;
        for node in &self.nodes {
            match node {
                NetNode::Conv(c) => {
                    cur = conv2d_direct(&c.problem, &cur, &filters[ci]);
                    ci += 1;
                }
                NetNode::Transition(t) => cur = run_transition(t, &cur),
            }
        }
        cur
    }

    /// The distinct `(problem, algorithm)` pairs [`NetGraph::plan`] may
    /// time on `device` under `policy`, in first-seen order over the conv
    /// nodes and their candidates. The plan times each at most once: those
    /// [`select`] does not prune, and [`NetPlan::pruned`] lists the rest.
    pub fn probes(&self, device: &DeviceSpec, policy: AlgoPolicy) -> Vec<(ConvProblem, Algo)> {
        let mut seen = HashSet::new();
        let mut out = Vec::new();
        for (_, c) in self.conv_nodes() {
            for algo in policy.candidates(&c.problem, device) {
                if seen.insert((c.problem, algo)) {
                    out.push((c.problem, algo));
                }
            }
        }
        out
    }

    /// Plan the network on `device` under `policy`: select per-layer
    /// algorithms, split transform vs kernel time, and pack the arena under
    /// every (policy × hoisting) combination. Each distinct shape's
    /// candidates go through [`select`] once, which calls `timer` at most
    /// once per [`NetGraph::probes`] pair; repeated layers reuse the result.
    pub fn plan(&self, device: &DeviceSpec, policy: AlgoPolicy, timer: &dyn LayerTimer) -> NetPlan {
        let mut selections: HashMap<ConvProblem, Selection> = HashMap::new();
        let mut pruned = Vec::new();
        for (_, c) in self.conv_nodes() {
            selections.entry(c.problem).or_insert_with(|| {
                let conv = Conv::new(c.problem, device.clone());
                let sel = select(&conv, &policy.candidates(&c.problem, device), timer);
                pruned.extend_from_slice(&sel.pruned);
                sel
            });
        }
        let mut choices = Vec::new();
        let mut probe_s = 0.0;
        for (node, c) in self.conv_nodes() {
            let conv = Conv::new(c.problem, device.clone());
            let sel = &selections[&c.problem];
            for t in &sel.probed_s {
                probe_s += t;
            }
            let timing = &sel.best;
            let transform_s: f64 = timing
                .phases
                .iter()
                .filter(|(name, _)| name == "filter_transform")
                .map(|(_, t)| t)
                .sum();
            let workspace_bytes = conv.workspace_bytes(timing.algo);
            let (workspace_hoisted_bytes, hoisted_bytes) = match timing.algo {
                // The 16KC transformed filter moves from per-execution
                // workspace into the persistent cache.
                Algo::OursFused | Algo::CudnnWinograd => (0, workspace_bytes),
                // Only the F(4×4) transformed-filter slab hoists; the
                // input/output transform buffers stay per-execution.
                Algo::WinogradNonfused => {
                    let tf = NonFusedPipeline::plan(&c.problem, Variant::F4x4)
                        .transformed_filter_len as u64
                        * 4;
                    (workspace_bytes - tf, tf)
                }
                _ => (workspace_bytes, 0),
            };
            choices.push(LayerChoice {
                node,
                name: c.name.clone(),
                algo: timing.algo,
                time_s: timing.time_s,
                transform_s,
                kernel_s: timing.time_s - transform_s,
                workspace_bytes,
                workspace_hoisted_bytes,
                hoisted_bytes,
            });
        }
        let transitions_s: f64 = self
            .nodes
            .iter()
            .filter_map(|n| match n {
                NetNode::Transition(t) => Some(transition_time_s(t, device)),
                NetNode::Conv(_) => None,
            })
            .sum();
        let transform_total_s: f64 = choices.iter().map(|c| c.transform_s).sum();
        let time_cold_s = choices.iter().map(|c| c.time_s).sum::<f64>() + transitions_s;
        let time_steady_s = choices.iter().map(|c| c.kernel_s).sum::<f64>() + transitions_s;
        let reqs_hoisted = self.arena_requests(&choices, true);
        let reqs_unhoisted = self.arena_requests(&choices, false);
        NetPlan {
            graph: self.name.clone(),
            device: device.name.to_string(),
            batch: self.batch,
            policy: policy.label(),
            transitions_s,
            probe_s,
            time_cold_s,
            time_steady_s,
            transform_total_s,
            hoisted_bytes: choices.iter().map(|c| c.hoisted_bytes).sum(),
            arena_reuse: ArenaCase::new(reqs_hoisted.clone(), ArenaPolicy::Reuse),
            arena_noreuse: ArenaCase::new(reqs_hoisted, ArenaPolicy::NoReuse),
            arena_reuse_unhoisted: ArenaCase::new(reqs_unhoisted, ArenaPolicy::Reuse),
            choices,
            pruned,
        }
    }

    /// The buffer requests one network execution makes: the input tensor,
    /// every node's output (live until its consumer finishes), and each
    /// conv's workspace (live only during its node). `hoisted` selects the
    /// transform-cache workspace accounting.
    pub fn arena_requests(&self, choices: &[LayerChoice], hoisted: bool) -> Vec<BufferReq> {
        assert_eq!(choices.len(), self.num_convs());
        let last = self.nodes.len().saturating_sub(1);
        let mut reqs = vec![BufferReq {
            name: "act:in".into(),
            bytes: self.input_dims().iter().product::<usize>() as u64 * 4,
            first_use: 0,
            last_use: 0,
        }];
        let mut ci = 0;
        for (i, node) in self.nodes.iter().enumerate() {
            if let NetNode::Conv(c) = node {
                let choice = &choices[ci];
                assert_eq!(choice.node, i, "choices must match this graph");
                reqs.push(BufferReq {
                    name: format!("ws:{}", c.name),
                    bytes: if hoisted {
                        choice.workspace_hoisted_bytes
                    } else {
                        choice.workspace_bytes
                    },
                    first_use: i,
                    last_use: i,
                });
                ci += 1;
            }
            reqs.push(BufferReq {
                name: format!("act:{}", node.name()),
                bytes: node.out_len() as u64 * 4,
                first_use: i,
                last_use: (i + 1).min(last),
            });
        }
        reqs
    }
}

/// Execute one transition on the host: channel remap (`co % c_in`), 2×2
/// average pooling when the spatial size halves, everything scaled by 0.5
/// to keep activations from growing across stages.
pub fn run_transition(t: &TransitionNode, input: &Tensor4) -> Tensor4 {
    assert_eq!(input.dims(), [t.n, t.c_in, t.hw_in, t.hw_in]);
    let pool = t.hw_in == 2 * t.hw_out;
    assert!(pool || t.hw_in == t.hw_out);
    Tensor4::from_fn(
        LayoutKind::Nchw,
        [t.n, t.c_out, t.hw_out, t.hw_out],
        |n, co, y, x| {
            let ci = co % t.c_in;
            if pool {
                let s = input.get([n, ci, 2 * y, 2 * x])
                    + input.get([n, ci, 2 * y, 2 * x + 1])
                    + input.get([n, ci, 2 * y + 1, 2 * x])
                    + input.get([n, ci, 2 * y + 1, 2 * x + 1]);
                0.125 * s
            } else {
                0.5 * input.get([n, ci, y, x])
            }
        },
    )
}

/// Modeled transition time: one memory-bound pass reading the input and
/// writing the output at the achievable DRAM bandwidth.
pub fn transition_time_s(t: &TransitionNode, device: &DeviceSpec) -> f64 {
    let bytes =
        (t.n * t.c_in * t.hw_in * t.hw_in + t.n * t.c_out * t.hw_out * t.hw_out) as f64 * 4.0;
    bytes / (device.dram_bw * MEM_EFF) + LAUNCH_OVERHEAD_S
}

/// Candidate algorithms for one layer (the serve planner uses the same
/// set): each fused kernel whose emitter accepts the shape
/// (`FusedConfig::check`, which also implies the filter transform's
/// `C·K % 256`), implicit precomp GEMM always, and the nonfused F(4×4)
/// pipeline only above the device's break-even `K`.
pub fn candidates(p: &ConvProblem, device: &DeviceSpec) -> Vec<Algo> {
    let conv = Conv::new(*p, device.clone());
    let mut v: Vec<Algo> = [Algo::OursFused, Algo::CudnnWinograd]
        .into_iter()
        .filter(|&a| conv.fused_config(a).check().is_ok())
        .collect();
    v.push(Algo::ImplicitPrecompGemm);
    if perfmodel::nonfused_viable(device, p.k as f64) {
        v.push(Algo::WinogradNonfused);
    }
    v
}

/// How the planner picks each layer's algorithm.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AlgoPolicy {
    /// Fastest candidate per layer, paper's kernel included.
    Auto,
    /// Fastest candidate per layer *excluding* the paper's kernel — the
    /// cuDNN-like library baseline.
    Baseline,
    /// One algorithm for every layer.
    Fixed(Algo),
}

impl AlgoPolicy {
    /// The candidate set this policy evaluates for `p`.
    pub fn candidates(self, p: &ConvProblem, device: &DeviceSpec) -> Vec<Algo> {
        match self {
            AlgoPolicy::Auto => candidates(p, device),
            AlgoPolicy::Baseline => candidates(p, device)
                .into_iter()
                .filter(|&a| a != Algo::OursFused)
                .collect(),
            AlgoPolicy::Fixed(a) => vec![a],
        }
    }

    /// Stable label for reports.
    pub fn label(self) -> String {
        match self {
            AlgoPolicy::Auto => "auto".into(),
            AlgoPolicy::Baseline => "baseline".into(),
            AlgoPolicy::Fixed(a) => format!("fixed:{}", a.name()),
        }
    }
}

/// Timing oracle the planner probes candidates through. The default
/// [`DirectTimer`] simulates inline; `bench` injects a simcache-memoized
/// table so planning is cheap, warm, and byte-deterministic.
///
/// Contract:
/// * `time` is a pure function of `(conv.problem, conv.device, algo)`.
///   [`NetGraph::plan`] calls it at most once per distinct pair
///   ([`NetGraph::probes`]) and reuses the result for every later layer of
///   the same shape.
/// * `time(conv, algo).time_s` is never less than
///   [`Conv::time_lower_bound`]`(algo)`. [`select`] skips a candidate whose
///   bound exceeds a time already measured, which is sound only under this
///   rule. Every timer outside tests delegates to [`Conv::time`], for which
///   the bound is proved.
pub trait LayerTimer {
    fn time(&self, conv: &Conv, algo: Algo) -> AlgoTiming;
}

/// A candidate [`select`] skipped without timing it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Pruned {
    pub problem: ConvProblem,
    pub algo: Algo,
    /// [`Conv::time_lower_bound`] of the candidate, seconds.
    pub bound_s: f64,
    /// The best time measured when the candidate came up, seconds: the
    /// incumbent its bound exceeded.
    pub incumbent_s: f64,
}

/// One shape's algorithm choice, and what it cost to make.
#[derive(Debug)]
pub struct Selection {
    /// The fastest candidate, the earliest in candidate order on a tie.
    pub best: AlgoTiming,
    /// Seconds of every probe that ran, in candidate order.
    pub probed_s: Vec<f64>,
    /// The candidates skipped, in the order they came up.
    pub pruned: Vec<Pruned>,
}

/// Pick `conv`'s fastest algorithm among `algos` (in candidate order),
/// timing through `timer` only the candidates that can still win. The
/// candidates are visited in ascending [`Conv::time_lower_bound`] order,
/// ties in candidate order, and one whose bound exceeds the best time
/// already measured is skipped: under the [`LayerTimer`] contract its time
/// does too, so it could neither win nor tie. The winner, the least time
/// and then the earliest candidate, is therefore exactly the one probing
/// every candidate would pick. [`NetGraph::plan`] and the serving planner
/// both choose through this.
pub fn select(conv: &Conv, algos: &[Algo], timer: &dyn LayerTimer) -> Selection {
    let mut order: Vec<(usize, f64)> = algos
        .iter()
        .map(|&a| conv.time_lower_bound(a))
        .enumerate()
        .collect();
    order.sort_by(|a, b| a.1.total_cmp(&b.1));
    let mut best: Option<(usize, AlgoTiming)> = None;
    let (mut probed, mut pruned) = (Vec::new(), Vec::new());
    for (i, bound_s) in order {
        let algo = algos[i];
        if let Some((_, b)) = best.as_ref().filter(|(_, b)| bound_s > b.time_s) {
            pruned.push(Pruned {
                problem: conv.problem,
                algo,
                bound_s,
                incumbent_s: b.time_s,
            });
            continue;
        }
        let t = timer.time(conv, algo);
        probed.push((i, t.time_s));
        let wins =
            |(j, b): &(usize, AlgoTiming)| t.time_s < b.time_s || (t.time_s == b.time_s && i < *j);
        if best.as_ref().is_none_or(wins) {
            best = Some((i, t));
        }
    }
    probed.sort_by_key(|&(i, _)| i);
    Selection {
        best: best.expect("no candidate algorithms").1,
        probed_s: probed.into_iter().map(|(_, t)| t).collect(),
        pruned,
    }
}

/// [`LayerTimer`] that runs [`Conv::time`] inline.
pub struct DirectTimer;

impl LayerTimer for DirectTimer {
    fn time(&self, conv: &Conv, algo: Algo) -> AlgoTiming {
        conv.time(algo)
    }
}

/// One layer's planned execution.
#[derive(Clone, Debug)]
pub struct LayerChoice {
    /// Node-timeline index in the graph.
    pub node: usize,
    pub name: String,
    pub algo: Algo,
    /// Full per-execution time including the filter transform, seconds.
    pub time_s: f64,
    /// Filter-transform share of `time_s` (what hoisting amortizes away).
    pub transform_s: f64,
    /// `time_s − transform_s`: the steady-state per-execution time.
    pub kernel_s: f64,
    /// Arena workspace with transforms computed per execution.
    pub workspace_bytes: u64,
    /// Arena workspace with transforms hoisted to the persistent cache.
    pub workspace_hoisted_bytes: u64,
    /// Persistent bytes the hoisted transform occupies for this layer.
    pub hoisted_bytes: u64,
}

/// One packed arena: the requests and the plan over them.
#[derive(Clone, Debug)]
pub struct ArenaCase {
    pub reqs: Vec<BufferReq>,
    pub plan: ArenaPlan,
}

impl ArenaCase {
    fn new(reqs: Vec<BufferReq>, policy: ArenaPolicy) -> Self {
        let plan = plan_arena(&reqs, policy);
        ArenaCase { reqs, plan }
    }

    /// Re-verify the arena invariants (see [`ArenaPlan::validate`]).
    pub fn validate(&self) -> Result<(), String> {
        self.plan.validate(&self.reqs)
    }
}

/// The planned network: per-layer choices, end-to-end times under both
/// transform regimes, and the packed arenas.
#[derive(Clone, Debug)]
pub struct NetPlan {
    pub graph: String,
    pub device: String,
    pub batch: usize,
    /// [`AlgoPolicy::label`] of the policy that built this plan.
    pub policy: String,
    pub choices: Vec<LayerChoice>,
    /// Modeled time of all transition nodes, seconds.
    pub transitions_s: f64,
    /// Total candidate-probing time, seconds: for every layer, the probes
    /// of its shape that ran, repeated layers included, although the
    /// planner times each distinct shape once. A pruned candidate costs
    /// nothing. This is the modelled cost a pruning planner pays on the
    /// device to build this plan cold.
    pub probe_s: f64,
    /// End-to-end time with filter transforms recomputed per execution
    /// (cold cache / cuDNN-style per-call behaviour), seconds.
    pub time_cold_s: f64,
    /// End-to-end time with transforms served from the hoisted cache.
    pub time_steady_s: f64,
    /// One-time transform cost the cache amortizes, seconds.
    pub transform_total_s: f64,
    /// Persistent bytes the hoisted transforms occupy (outside the arena).
    pub hoisted_bytes: u64,
    /// Workspace arena, transforms hoisted, linear-scan reuse.
    pub arena_reuse: ArenaCase,
    /// Same requests, bump allocation (peak = sum) — the reuse baseline.
    pub arena_noreuse: ArenaCase,
    /// Linear-scan reuse with per-execution transform workspace — what the
    /// arena costs without the hoisting cache.
    pub arena_reuse_unhoisted: ArenaCase,
    /// Every `(shape, algorithm)` candidate the planner skipped, with the
    /// bound and incumbent that ruled it out, shape by shape in first-seen
    /// order.
    pub pruned: Vec<Pruned>,
}

impl NetPlan {
    /// Network TFLOPS at steady state against direct-conv FLOPs.
    pub fn tflops_steady(&self, graph: &NetGraph) -> f64 {
        graph.direct_flops() / self.time_steady_s / 1e12
    }

    /// Re-verify every invariant the planner promises: arena validity,
    /// reuse ≤ no-reuse, hoisted ≤ unhoisted, per-layer sum-consistency
    /// with the end-to-end numbers, and cold = steady + transforms.
    pub fn validate(&self) -> Result<(), String> {
        self.arena_reuse.validate()?;
        self.arena_noreuse.validate()?;
        self.arena_reuse_unhoisted.validate()?;
        if self.arena_reuse.plan.peak_bytes > self.arena_noreuse.plan.peak_bytes {
            return Err("reuse arena peaks above bump allocation".into());
        }
        if self.arena_reuse.plan.peak_bytes > self.arena_reuse_unhoisted.plan.peak_bytes {
            return Err("hoisting transforms grew the arena".into());
        }
        let cold = self.choices.iter().map(|c| c.time_s).sum::<f64>() + self.transitions_s;
        let steady = self.choices.iter().map(|c| c.kernel_s).sum::<f64>() + self.transitions_s;
        let close = |a: f64, b: f64| (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1e-30);
        if !close(cold, self.time_cold_s) {
            return Err(format!(
                "per-layer sum {} disagrees with end-to-end cold {}",
                cold, self.time_cold_s
            ));
        }
        if !close(steady, self.time_steady_s) {
            return Err(format!(
                "per-layer kernel sum {} disagrees with end-to-end steady {}",
                steady, self.time_steady_s
            ));
        }
        if !close(
            self.time_steady_s + self.transform_total_s,
            self.time_cold_s,
        ) {
            return Err("steady + transforms != cold".into());
        }
        if self.time_steady_s > self.time_cold_s {
            return Err("hoisting transforms slowed the network".into());
        }
        Ok(())
    }
}

/// The hoisted filter-transform cache: content-addressed `F̂` slabs, shared
/// across layers, batches, and requests. Keys are
/// `kernels::filter_transform::transform_cache_key` over the exact CRSK
/// filter bits, so a changed filter (or transform tile) can never replay a
/// stale transform.
#[derive(Default)]
pub struct TransformCache {
    map: HashMap<String, Rc<Vec<f32>>>,
    pub hits: u64,
    pub misses: u64,
}

impl TransformCache {
    pub fn new() -> Self {
        Self::default()
    }

    /// The content key for `problem`'s filter.
    pub fn key(problem: &ConvProblem, filter: &Tensor4) -> String {
        let crsk = filter.to_layout(LayoutKind::Crsk);
        transform_cache_key(
            problem.c as u32,
            problem.k as u32,
            TRANSFORM_TILE,
            crsk.as_slice(),
        )
        .hex()
    }

    /// The hoisted transform for `conv`'s filter, computing it on first use.
    pub fn get_or_insert(&mut self, conv: &Conv, filter: &Tensor4) -> Rc<Vec<f32>> {
        let key = Self::key(&conv.problem, filter);
        if let Some(tf) = self.map.get(&key) {
            self.hits += 1;
            return Rc::clone(tf);
        }
        self.misses += 1;
        let tf = Rc::new(conv.transform_filter(filter));
        self.map.insert(key, Rc::clone(&tf));
        tf
    }

    /// Number of distinct transforms held.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resnet50_graph_shape() {
        let g = NetGraph::resnet50(32);
        assert_eq!(g.num_convs(), 16, "3+4+6+3 conv layers");
        assert_eq!(g.nodes.len(), 19, "16 convs + 3 transitions");
        assert_eq!(g.input_dims(), [32, 64, 56, 56]);
        // Last node is a Conv5 layer: 7×7 spatial, 512 channels.
        assert_eq!(g.nodes.last().unwrap().out_dims(), [32, 512, 7, 7]);
        // Every conv is fused-eligible and chain shapes are consistent.
        let mut prev_k = 64;
        for (_, c) in g.conv_nodes() {
            assert_eq!(c.problem.c % 8, 0);
            assert_eq!(c.problem.k % 64, 0);
            assert!(c.problem.c == prev_k || c.problem.c == prev_k * 2);
            prev_k = c.problem.k;
        }
    }

    #[test]
    fn transition_pools_and_remaps() {
        let t = TransitionNode {
            name: "t".into(),
            n: 1,
            c_in: 2,
            hw_in: 4,
            c_out: 4,
            hw_out: 2,
        };
        let input = Tensor4::from_fn(LayoutKind::Nchw, [1, 2, 4, 4], |_, c, y, x| {
            (c * 100 + y * 4 + x) as f32
        });
        let out = run_transition(&t, &input);
        assert_eq!(out.dims(), [1, 4, 2, 2]);
        // Channel 2 replicates channel 0; pooling averages the 2×2 window
        // and scales by 0.5.
        let want00 = 0.125 * (0.0 + 1.0 + 4.0 + 5.0);
        assert_eq!(out.get([0, 0, 0, 0]), want00);
        assert_eq!(out.get([0, 2, 0, 0]), want00);
        // Identity-size transition halves values.
        let t2 = TransitionNode {
            name: "t2".into(),
            n: 1,
            c_in: 2,
            hw_in: 4,
            c_out: 2,
            hw_out: 4,
        };
        let out2 = run_transition(&t2, &input);
        assert_eq!(out2.get([0, 1, 2, 3]), 0.5 * input.get([0, 1, 2, 3]));
    }

    #[test]
    fn candidate_pruning_follows_breakeven_and_divisibility() {
        let v100 = DeviceSpec::v100();
        // Conv2: K=64 below breakeven, fused eligible.
        let c2 = ConvProblem::resnet3x3(32, 64, 56, 64);
        let algos = candidates(&c2, &v100);
        assert!(algos.contains(&Algo::OursFused));
        assert!(!algos.contains(&Algo::WinogradNonfused));
        // Conv5: K=512 above breakeven.
        let c5 = ConvProblem::resnet3x3(32, 512, 7, 512);
        assert!(candidates(&c5, &v100).contains(&Algo::WinogradNonfused));
        // Ragged channels: no fused kernels, GEMM fallback remains.
        let ragged = ConvProblem::resnet3x3(2, 3, 8, 5);
        let algos = candidates(&ragged, &v100);
        assert!(!algos.contains(&Algo::OursFused));
        assert!(!algos.contains(&Algo::CudnnWinograd));
        assert!(algos.contains(&Algo::ImplicitPrecompGemm));
        // Baseline policy never picks the paper's kernel.
        assert!(!AlgoPolicy::Baseline
            .candidates(&c2, &v100)
            .contains(&Algo::OursFused));
    }

    #[test]
    fn smoke_plan_validates_and_hoisting_helps() {
        let g = NetGraph::smoke(32);
        let dev = DeviceSpec::v100();
        let plan = g.plan(&dev, AlgoPolicy::Auto, &DirectTimer);
        plan.validate().unwrap();
        assert_eq!(plan.choices.len(), 3);
        assert!(
            plan.transform_total_s > 0.0,
            "fused layers hoist transforms"
        );
        assert!(plan.time_steady_s < plan.time_cold_s);
        assert!(plan.probe_s > plan.time_cold_s - plan.transitions_s);
        assert!(plan.hoisted_bytes > 0);
        // The reuse arena must beat bump allocation on this 4-node chain.
        assert!(plan.arena_reuse.plan.peak_bytes < plan.arena_noreuse.plan.peak_bytes);
    }

    #[test]
    fn transform_cache_hits_on_repeated_layers() {
        let g = NetGraph::smoke(32);
        let dev = DeviceSpec::v100();
        let filters = g.random_filters(11);
        let input = g.random_input(12);
        let algos = vec![Algo::OursFused; g.num_convs()];
        let mut cache = TransformCache::new();
        let a = g.execute(&dev, &algos, &input, &filters, Some(&mut cache));
        assert_eq!(cache.misses, 3);
        assert_eq!(cache.hits, 0);
        // Second request over the same weights: all transforms replayed.
        let b = g.execute(&dev, &algos, &input, &filters, Some(&mut cache));
        assert_eq!(cache.misses, 3);
        assert_eq!(cache.hits, 3);
        assert_eq!(a.as_slice(), b.as_slice(), "replayed transforms bit-equal");
    }
}
