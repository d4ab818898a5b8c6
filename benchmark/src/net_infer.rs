//! `net_infer`: a closed loop with one client sending sequential inference
//! requests through `NetGraph::execute` with a persistent `TransformCache`,
//! on `NetGraph::new("infer", 32, 32, 8).conv(64).conv(64).transition(64, 4)
//! .conv(64).conv(64)` on the V100 model. The only workload dominated by
//! the functional executor (`gpusim` exec, `Gpu::launch_parallel`, layout
//! conversion, host transforms), and the one that bypasses the timing
//! simulator.
//!
//! The algorithms are pinned per layer, so a timing-model change cannot
//! change the work. Set-up seeds the shared weights and sends one warm-up
//! request that fills the transform cache. Each request (a job) gets a fresh
//! seeded input; outside its span, one image of the batch is checked
//! against `execute_reference` of the batch-1 graph, rotating through the
//! batch.

use std::time::Instant;

use gpusim::{DeviceSpec, Gpu};
use kernels::FusedKernel;
use tensor::{max_abs_diff, LayoutKind, Tensor4};
use wino_core::netgraph::{run_transition, transition_time_s, NetNode};
use wino_core::{Algo, Conv, NetGraph, TransformCache};

use crate::{stats, Ctx, Layers, Outcome};

/// One request on the reference host, seconds.
const NOMINAL_REQUEST_S: f64 = 0.2;
const SMOKE_REQUESTS: usize = 3;
const BATCH: usize = 32;
/// Per-layer algorithms, one of each kind the executor runs.
const PINNED: [Algo; 4] = [
    Algo::OursFused,
    Algo::CudnnWinograd,
    Algo::ImplicitPrecompGemm,
    Algo::WinogradNonfused,
];
/// Image check: `max_abs_diff ≤ TOLERANCE · max|ref|`.
const TOLERANCE: f32 = 1e-4;

fn graph(batch: usize) -> NetGraph {
    NetGraph::new("infer", batch, 32, 8)
        .conv(64)
        .conv(64)
        .transition(64, 4)
        .conv(64)
        .conv(64)
}

fn is_fused(algo: Algo) -> bool {
    matches!(algo, Algo::OursFused | Algo::CudnnWinograd)
}

/// Image `i` of an NCHW batch as a batch-1 tensor.
fn image(t: &Tensor4, i: usize) -> Tensor4 {
    let [_, c, h, w] = t.dims();
    Tensor4::from_fn(LayoutKind::Nchw, [1, c, h, w], |_, c, y, x| {
        t.get([i, c, y, x])
    })
}

pub fn run(ctx: &mut Ctx) -> Outcome {
    let dev = DeviceSpec::v100();
    let g = graph(BATCH);
    let reference = graph(1);
    let (setups_s, (filters, mut cache)) = ctx.setup(|| {
        let filters = g.random_filters(ctx.rng(3).next_u64());
        let mut cache = TransformCache::new();
        let warm_up = g.random_input(ctx.rng(4).next_u64());
        g.execute(&dev, &PINNED, &warm_up, &filters, Some(&mut cache));
        (filters, cache)
    });
    let requests = if ctx.smoke {
        SMOKE_REQUESTS
    } else {
        ctx.jobs(NOMINAL_REQUEST_S)
    };

    let mut jobs_s = Vec::with_capacity(requests);
    let mut last = None;
    for r in 0..requests as u64 {
        let input = g.random_input(ctx.rng(1000 + r).next_u64());
        let (output, secs) = ctx.spans.time("request", r, || {
            g.execute(&dev, &PINNED, &input, &filters, Some(&mut cache))
        });
        jobs_s.push(secs);
        let i = r as usize % BATCH;
        let (want, _) = ctx.spans.time("check", r, || {
            reference.execute_reference(&image(&input, i), &filters)
        });
        let got = image(&output, i);
        let scale = want.as_slice().iter().fold(0f32, |m, v| m.max(v.abs()));
        let diff = max_abs_diff(got.as_slice(), want.as_slice());
        ctx.checks.check(diff <= TOLERANCE * scale, || {
            format!("request {r} image {i}: max_abs_diff {diff} vs max|ref| {scale}")
        });
        last = Some((input, output));
    }
    let (input, output) = last.expect("at least one request");

    let mut layers = Layers::default();
    layers.set(
        "core.transform_cache.hit_frac",
        cache.hits as f64 / (cache.hits + cache.misses) as f64,
    );
    if ctx.trace {
        let (again, t) = reexecute(&g, &dev, &filters, &mut cache, &input);
        ctx.checks.check(again.as_slice() == output.as_slice(), || {
            "node-by-node re-execution differs from execute".into()
        });
        let request_s = stats::median(&jobs_s);
        let names = [
            "core.conv.run_pct.OURS",
            "core.conv.run_pct.WINOGRAD",
            "core.conv.run_pct.IMPLICIT_PRECOMP_GEMM",
            "core.conv.run_pct.WINOGRAD_NONFUSED",
        ];
        for ((name, algo), secs) in names.into_iter().zip(PINNED).zip(t.run_s) {
            assert!(name.ends_with(algo.name()), "{name} is not {algo:?}");
            layers.set_pct(name, secs, request_s);
        }
        layers.set_pct("core.netgraph.transition_pct", t.transition_s, request_s);
        layers.set_pct("gpusim.launch_pct", t.launch_s, request_s);
    }

    Outcome {
        setups_s,
        jobs_s,
        sim_cycles: sim_cycles(&g, &dev),
        layers,
    }
}

/// Modelled steady-state time of the pinned network (filter transforms
/// hoisted, as the cache does), in device cycles.
fn sim_cycles(g: &NetGraph, dev: &DeviceSpec) -> f64 {
    let mut secs = 0.0;
    let mut ci = 0;
    for node in &g.nodes {
        match node {
            NetNode::Conv(c) => {
                let t = Conv::new(c.problem, dev.clone()).time(PINNED[ci]);
                let transform: f64 = t
                    .phases
                    .iter()
                    .filter(|(name, _)| name == "filter_transform")
                    .map(|(_, s)| s)
                    .sum();
                secs += t.time_s - transform;
                ci += 1;
            }
            NetNode::Transition(t) => secs += transition_time_s(t, dev),
        }
    }
    secs * dev.clock_hz
}

/// Host seconds of one request's parts.
struct NodeTimes {
    /// Per conv node, in `PINNED` order.
    run_s: [f64; 4],
    transition_s: f64,
    /// Direct launches of the fused layers' kernels.
    launch_s: f64,
}

/// Extra calls after the timed requests: `input` re-executed node by node
/// through the public per-layer entry points (the caller checks the result
/// against `execute`), and the emitted fused kernels launched directly on
/// each fused layer's input.
fn reexecute(
    g: &NetGraph,
    dev: &DeviceSpec,
    filters: &[Tensor4],
    cache: &mut TransformCache,
    input: &Tensor4,
) -> (Tensor4, NodeTimes) {
    let mut run_s = [0.0; 4];
    let mut transition_s = 0.0;
    let mut launch_s = 0.0;
    let mut cur = input.clone();
    let mut ci = 0;
    for node in &g.nodes {
        match node {
            NetNode::Conv(c) => {
                let conv = Conv::new(c.problem, dev.clone());
                let algo = PINNED[ci];
                let t0 = Instant::now();
                let next = if is_fused(algo) {
                    let tf = cache.get_or_insert(&conv, &filters[ci]);
                    let out = conv.run_fused_pretransformed(algo, &cur, &tf);
                    run_s[ci] += t0.elapsed().as_secs_f64();
                    launch_s += launch_fused(&conv, algo, &cur, &tf);
                    out
                } else {
                    let out = conv.run(algo, &cur, &filters[ci]).output;
                    run_s[ci] += t0.elapsed().as_secs_f64();
                    out
                };
                cur = next;
                ci += 1;
            }
            NetNode::Transition(t) => {
                let t0 = Instant::now();
                cur = run_transition(t, &cur);
                transition_s += t0.elapsed().as_secs_f64();
            }
        }
    }
    let times = NodeTimes {
        run_s,
        transition_s,
        launch_s,
    };
    (cur, times)
}

/// Host seconds of `Gpu::launch_parallel` on the emitted fused kernel for
/// `conv`'s shapes, with `x` and the transformed filter `tf` uploaded in
/// the layout the kernel reads.
fn launch_fused(conv: &Conv, algo: Algo, x: &Tensor4, tf: &[f32]) -> f64 {
    let p = &conv.problem;
    let cfg = match algo {
        Algo::OursFused => conv.ours_config(),
        _ => conv.cudnn_config(),
    };
    let x = if cfg.input_nchw {
        x.clone()
    } else {
        x.to_layout(LayoutKind::Chwn)
    };
    let out_len = p.k * p.h * p.w * p.n;
    let bytes = ((x.len() + tf.len() + out_len) * 4) as u64;
    let mut gpu = Gpu::new(
        conv.device.clone(),
        (bytes * 2 + (1 << 24)).next_power_of_two() as usize,
    );
    let d_in = gpu.alloc_upload_f32(x.as_slice());
    let d_tf = gpu.alloc_upload_f32(tf);
    let d_out = gpu.alloc(out_len as u64 * 4);
    let kern = FusedKernel::emit(cfg);
    let params = kern.params(d_in, d_tf, d_out);
    let t0 = Instant::now();
    gpu.launch_parallel(&kern.module, kern.launch_dims(), &params)
        .expect("fused kernel launch");
    t0.elapsed().as_secs_f64()
}
