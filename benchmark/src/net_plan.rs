//! `net_plan`: whole-network planning. `NetGraph::resnet50(32).plan(dev,
//! Auto, timer)` plus `validate()` on V100: Table 1's Conv2–Conv5 with
//! ResNet-50's 3/4/6/3 block multiplicities and pooling transitions. Its 16
//! conv nodes have only 4 distinct shapes, so three quarters of the probes
//! repeat earlier ones: sharing work by caching or memoisation shows here
//! and nowhere else. It uses the same timing layer as `layer_sweep`.
//!
//! Job: plan and validate the network once. Only V100 is planned: the RTX
//! 2070 plan takes half as long again, and the two together do not fit in
//! one run. Planning has no random input, so the seed changes nothing.
//! Probes go through a counting `LayerTimer` that delegates to `Conv::time`
//! and records a span per probe.

use std::cell::RefCell;
use std::collections::{HashMap, HashSet};
use std::time::Instant;

use gpusim::DeviceSpec;
use wino_core::netgraph::NetPlan;
use wino_core::{
    plan_arena, Algo, AlgoPolicy, AlgoTiming, ArenaPolicy, Conv, ConvProblem, DirectTimer,
    LayerTimer, NetGraph,
};

use crate::spans::Spans;
use crate::{stats, Ctx, Layers, Outcome};

/// Planning ResNet-50 at N = 32 on V100 on the reference host, seconds.
const NOMINAL_JOB_S: f64 = 16.0;

struct Probe {
    problem: ConvProblem,
    algo: Algo,
    /// Device makespan of the probe's dominant kernel.
    cycles: u64,
}

/// What a probe measured: problem shape and algorithm.
type ProbeKey = ([usize; 5], &'static str);

impl Probe {
    fn key(&self) -> ProbeKey {
        let p = &self.problem;
        ([p.n, p.c, p.h, p.w, p.k], self.algo.name())
    }
}

/// A `LayerTimer` that times each probe as a span and remembers it.
struct CountingTimer<'a> {
    spans: &'a Spans,
    probes: RefCell<Vec<Probe>>,
}

impl LayerTimer for CountingTimer<'_> {
    fn time(&self, conv: &Conv, algo: Algo) -> AlgoTiming {
        let id = self.probes.borrow().len() as u64;
        let (t, _) = self.spans.time("probe", id, || conv.time(algo));
        self.probes.borrow_mut().push(Probe {
            problem: conv.problem,
            algo,
            cycles: t.kernel.as_ref().map_or(0, |k| k.wave_cycles),
        });
        t
    }
}

pub fn run(ctx: &mut Ctx) -> Outcome {
    let dev = DeviceSpec::v100();
    // Set-up builds the graph and plans the smoke graph once, so the
    // process's first plan (allocator growth, cold code) is not timed.
    let (setups_s, graph) = ctx.setup(|| {
        NetGraph::smoke(32).plan(&dev, AlgoPolicy::Auto, &DirectTimer);
        if ctx.smoke {
            NetGraph::smoke(32)
        } else {
            NetGraph::resnet50(32)
        }
    });
    let jobs = ctx.jobs(NOMINAL_JOB_S);

    let mut jobs_s = Vec::new();
    let mut sims = Vec::new();
    let (mut probes, mut unique, mut kernel_cycles) = (0usize, 0usize, 0u64);
    // The last job's plan with the probes behind it.
    let mut last: Option<(NetPlan, Vec<Probe>)> = None;
    for j in 0..jobs as u64 {
        let timer = CountingTimer {
            spans: &ctx.spans,
            probes: RefCell::default(),
        };
        let open = ctx.spans.begin("job", j);
        let (plan, _) = ctx
            .spans
            .time("plan", j, || graph.plan(&dev, AlgoPolicy::Auto, &timer));
        let (valid, _) = ctx.spans.time("validate", j, || plan.validate());
        jobs_s.push(ctx.spans.end(open));
        ctx.checks.check(valid.is_ok(), || {
            format!("{} plan failed validation: {valid:?}", dev.name)
        });
        let seen = timer.probes.into_inner();
        probes += seen.len();
        unique += seen.iter().map(Probe::key).collect::<HashSet<_>>().len();
        kernel_cycles += seen.iter().map(|p| p.cycles).sum::<u64>();
        sims.push(plan.time_steady_s * dev.clock_hz);
        last = Some((plan, seen));
    }
    ctx.checks.repeats(&sims);
    let (plan, seen) = last.expect("at least one job");

    let job_total: f64 = jobs_s.iter().sum();
    let jobs_f = jobs as f64;
    let mut layers = Layers::default();
    layers.set("core.netgraph.probes", probes as f64 / jobs_f);
    layers.set(
        "core.netgraph.unique_probe_frac",
        unique as f64 / probes as f64,
    );
    layers.set_pct(
        "core.netgraph.probe_pct",
        ctx.spans.total("probe"),
        job_total,
    );
    layers.set_pct(
        "core.netgraph.self_pct",
        ctx.spans.self_secs("plan"),
        job_total,
    );
    layers.set_pct(
        "core.netgraph.validate_pct",
        ctx.spans.total("validate"),
        job_total,
    );
    layers.set("gpusim.sim_cycles", kernel_cycles as f64 / jobs_f);
    let reuse = plan.arena_reuse.plan.peak_bytes;
    let bump = plan.arena_noreuse.plan.peak_bytes;
    layers.set("core.memplan.reuse_ratio", bump as f64 / reuse as f64);
    layers.set("core.memplan.arena_mb", reuse as f64 / (1u64 << 20) as f64);

    if ctx.trace {
        decompose(ctx, &graph, &dev, &plan, &seen, &jobs_s, &mut layers);
    }

    Outcome {
        setups_s,
        jobs_s,
        sim_cycles: sims[0],
        layers,
    }
}

/// Extra calls after the timed jobs: the memory planner on its own, the
/// kernel emission behind every probe, and a counted re-run of each distinct
/// probe for the issued-instruction total.
fn decompose(
    ctx: &mut Ctx,
    graph: &NetGraph,
    dev: &DeviceSpec,
    plan: &NetPlan,
    probes: &[Probe],
    jobs_s: &[f64],
    layers: &mut Layers,
) {
    let job_s = stats::median(jobs_s);
    let t0 = Instant::now();
    for hoisted in [true, false] {
        let reqs = graph.arena_requests(&plan.choices, hoisted);
        let policies: &[ArenaPolicy] = if hoisted {
            &[ArenaPolicy::Reuse, ArenaPolicy::NoReuse]
        } else {
            &[ArenaPolicy::Reuse]
        };
        for &policy in policies {
            std::hint::black_box(plan_arena(&reqs, policy));
        }
    }
    let memplan_s = t0.elapsed().as_secs_f64();

    let (mut emit_s, mut insts) = (0.0, 0u64);
    let mut counted: HashMap<ProbeKey, u64> = HashMap::new();
    for p in probes {
        let conv = Conv::new(p.problem, dev.clone());
        let t0 = Instant::now();
        std::hint::black_box(conv.time_digest(p.algo));
        emit_s += t0.elapsed().as_secs_f64();
        if let Some(&issued) = counted.get(&p.key()) {
            insts += issued;
            continue;
        }
        let kt = conv
            .time_counted(p.algo)
            .expect("every candidate runs a simulated kernel");
        ctx.checks.check(kt.wave_cycles == p.cycles, || {
            format!("{:?}: counted timing differs from the probe", p.algo)
        });
        let issued = kt.counters.expect("counters were requested").issued;
        counted.insert(p.key(), issued);
        insts += issued;
    }
    layers.set_pct("core.memplan.pct", memplan_s, job_s);
    layers.set_pct("kernels.emit_pct", emit_s, job_s);
    layers.set("gpusim.warp_insts", insts as f64);
    let probe_per_job = ctx.spans.total("probe") / jobs_s.len() as f64;
    layers.set("gpusim.insts_per_s", insts as f64 / probe_per_job);
}
