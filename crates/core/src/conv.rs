//! The public convolution API: every algorithm the paper evaluates, runnable
//! functionally (validated against the direct reference) and timeable on the
//! simulated V100 / RTX 2070.
//!
//! | [`Algo`] | paper name (§7.3) | execution | timing |
//! |---|---|---|---|
//! | `OursFused` | this paper | SASS on simulator | cycle model |
//! | `CudnnWinograd` | `WINOGRAD` (fused, cuDNN-like) | SASS on simulator | cycle model |
//! | `ImplicitPrecompGemm` | `IMPLICIT_PRECOMP_GEMM` | SASS SGEMM on simulator | cycle model |
//! | `ImplicitGemm` | `IMPLICIT_GEMM` | SASS SGEMM + index-recompute ops | cycle model |
//! | `Gemm` | `GEMM` | im2col + SASS SGEMM | cycle model + im2col traffic |
//! | `WinogradNonfused` | `WINOGRAD_NONFUSED` (F(4×4,3×3)) | host transforms + SASS batched GEMM | cycle model + transform traffic |
//! | `Fft` | `FFT` | host FFT convolution | analytic roofline model |
//! | `FftTiling` | `FFT_TILING` (32×32 tiles) | host tiled FFT | analytic roofline model |
//!
//! The analytic components (marked "traffic"/"roofline") cover the
//! memory-bound phases cuDNN runs as separate kernels; DESIGN.md §1
//! documents the substitution.
//!
//! Every timing goes through one path. [`Conv::measure`] simulates a
//! [`Target`] — a kernel selection ([`Kernels`]) under a timing [`Model`] —
//! with an optional [`Observe`] set (profile, counters, trace), and
//! [`Conv::key`] is the content address of its result. Both derive from one
//! private list of the launches a target runs (module, geometry, timed
//! region, parameter bytes over the kernels' own buffer layout), so a key
//! covers exactly what was simulated; `key` never sees `observe`, so no
//! observation can enter a key.

pub use gpusim::Model;
use gpusim::{
    DevPtr, DeviceSpec, DeviceTrace, Digest, Gpu, KernelTiming, LaunchDims, Region, TimingOptions,
};
use kernels::filter_transform::{self, emit_filter_transform};
use kernels::gemm::{GemmConfig, GemmKernel};
use kernels::{Buffers, FusedConfig, FusedKernel};
use sass::Module;
use tensor::{LayoutKind, Tensor4};

use crate::fft::{conv2d_fft, conv2d_fft_tiled, fft_size_full};
use crate::im2col::im2col;
use crate::reference::ConvProblem;
use crate::transforms::Variant;
use crate::winograd_host::NonFusedPipeline;

/// Kernel launch overhead charged per kernel in timing estimates (CUDA
/// event-measured launches cost a few microseconds; matters for Conv5-sized
/// layers).
pub const LAUNCH_OVERHEAD_S: f64 = 3.0e-6;

/// Achievable fraction of peak DRAM bandwidth for the analytically-timed
/// memory-bound phases (strided transform kernels typically sustain
/// 70–80% of peak).
pub const MEM_EFF: f64 = 0.75;

/// The algorithms of Figures 12–14.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Algo {
    OursFused,
    CudnnWinograd,
    Gemm,
    ImplicitGemm,
    ImplicitPrecompGemm,
    WinogradNonfused,
    Fft,
    FftTiling,
}

impl Algo {
    pub const ALL: [Algo; 8] = [
        Algo::OursFused,
        Algo::CudnnWinograd,
        Algo::Gemm,
        Algo::ImplicitGemm,
        Algo::ImplicitPrecompGemm,
        Algo::WinogradNonfused,
        Algo::Fft,
        Algo::FftTiling,
    ];

    /// cuDNN-style display name.
    pub fn name(self) -> &'static str {
        match self {
            Algo::OursFused => "OURS",
            Algo::CudnnWinograd => "WINOGRAD",
            Algo::Gemm => "GEMM",
            Algo::ImplicitGemm => "IMPLICIT_GEMM",
            Algo::ImplicitPrecompGemm => "IMPLICIT_PRECOMP_GEMM",
            Algo::WinogradNonfused => "WINOGRAD_NONFUSED",
            Algo::Fft => "FFT",
            Algo::FftTiling => "FFT_TILING",
        }
    }
}

/// Timing result for one algorithm on one problem.
#[derive(Clone, Debug)]
pub struct AlgoTiming {
    pub algo: Algo,
    /// Total estimated time, seconds.
    pub time_s: f64,
    /// Effective throughput against *direct-convolution* FLOPs (the usual
    /// "conv TFLOPS" figure of merit).
    pub tflops_effective: f64,
    /// Cycle-model result of the dominant kernel, when one ran.
    pub kernel: Option<KernelTiming>,
    /// Phase breakdown: (label, seconds).
    pub phases: Vec<(String, f64)>,
    /// Per-SM wave timeline of the dominant kernel, present when
    /// [`Observe::trace`] was set (never cached).
    pub trace: Option<DeviceTrace>,
}

/// The kernels a [`Target`] runs.
#[derive(Clone, Copy, Debug)]
pub enum Kernels {
    /// The algorithm's whole pipeline: every launch and analytic phase
    /// [`Conv::time`] charges.
    Algo(Algo),
    /// One fused Winograd kernel launch; `main_loop_only` selects the
    /// Figures 7–9 main-loop studies. `bk = 64` reports as
    /// [`Algo::OursFused`], `bk = 32` as [`Algo::CudnnWinograd`] (§3.3).
    Fused(FusedConfig),
}

impl Kernels {
    fn algo(self) -> Algo {
        match self {
            Kernels::Algo(a) => a,
            Kernels::Fused(cfg) if cfg.bk == 64 => Algo::OursFused,
            Kernels::Fused(_) => Algo::CudnnWinograd,
        }
    }
}

/// What [`Conv::measure`] simulates: a kernel selection under a model.
#[derive(Clone, Copy, Debug)]
pub struct Target {
    pub kernels: Kernels,
    pub model: Model,
}

impl Target {
    /// `algo`'s whole pipeline on the device model — what [`Conv::time`]
    /// measures.
    pub fn algo(algo: Algo) -> Target {
        Target {
            kernels: Kernels::Algo(algo),
            model: Model::Device,
        }
    }

    /// One fused kernel launch of `cfg` under `model`.
    pub fn fused(cfg: FusedConfig, model: Model) -> Target {
        Target {
            kernels: Kernels::Fused(cfg),
            model,
        }
    }

    /// The main-loop-only build of `cfg` on the one-wave model (Figures
    /// 7–9, §7.2); its region TFLOPS is
    /// `kernel.region_tflops(device, cfg.mainloop_flops_per_block())`.
    pub fn mainloop(mut cfg: FusedConfig) -> Target {
        cfg.main_loop_only = true;
        Target::fused(cfg, Model::OneWave)
    }
}

/// Observation attached to a measurement's dominant kernel. Off is free; on
/// changes no timing number, so none of it enters [`Conv::key`].
#[derive(Clone, Copy, Debug, Default)]
pub struct Observe {
    /// `simprof` stall profile, with the emitter's named regions.
    pub profile: bool,
    /// Hardware counters (`gpusim::counters`).
    pub counters: bool,
    /// Per-SM wave timeline ([`AlgoTiming::trace`]); needs a device model.
    pub trace: bool,
}

impl Observe {
    /// Counters only.
    pub const COUNTERS: Observe = Observe {
        profile: false,
        counters: true,
        trace: false,
    };
}

/// One step of a target: a simulated launch, or an analytic phase with its
/// modeled seconds.
enum Phase {
    Launch(Launch),
    Analytic(&'static str, f64),
}

/// One step of an algorithm's pipeline before any kernel is emitted: what
/// [`Conv::launches`] emits and [`Conv::time_lower_bound`] bounds.
enum Step {
    Analytic(&'static str, f64),
    /// The filter-transform kernel, then the fused kernel, over the
    /// pipeline's `[in, filter, tf, out]` arena.
    FusedPipeline(FusedConfig),
    Gemm(&'static str, GemmConfig),
}

/// A kernel launch over the target's arena.
struct Launch {
    name: &'static str,
    module: Module,
    dims: LaunchDims,
    params: Vec<u8>,
    /// Timed instruction range (the fused kernel's main loop).
    region: Option<(u32, u32)>,
    /// The emitter's named regions, copied into a profile.
    regions: Vec<Region>,
}

impl Launch {
    /// The fused kernel over its `[in, tf, out]` buffers.
    fn fused(kern: FusedKernel, [input, tf, out]: [DevPtr; 3]) -> Phase {
        Phase::Launch(Launch {
            name: "fused_winograd",
            params: kern.params(input, tf, out),
            dims: kern.launch_dims(),
            region: Some(kern.region),
            regions: kern.regions,
            module: kern.module,
        })
    }

    /// A GEMM over its own `[A, B, C]` layout.
    fn gemm(name: &'static str, kern: GemmKernel) -> (Buffers, Phase) {
        let buffers = kern.buffers();
        let a = buffers.addrs();
        let launch = Launch {
            name,
            params: kern.params(a[0], a[1], a[2]),
            dims: kern.launch_dims(),
            region: None,
            regions: Vec::new(),
            module: kern.module,
        };
        (buffers, Phase::Launch(launch))
    }

    fn options(&self, observe: Observe) -> TimingOptions {
        TimingOptions {
            region: self.region,
            profile: observe.profile,
            counters: observe.counters,
            trace: observe.trace,
            ..Default::default()
        }
    }

    /// [`gpusim::simulate`] this launch; a trace under
    /// [`Model::OneWave`] panics, since the one-wave model has no device
    /// timeline.
    fn simulate(
        &self,
        gpu: &mut Gpu,
        model: Model,
        observe: Observe,
    ) -> (KernelTiming, Option<DeviceTrace>) {
        let (m, dims, opts) = (&self.module, self.dims, self.options(observe));
        let (mut t, trace) =
            gpusim::simulate(gpu, m, dims, &self.params, model, opts).expect(self.name);
        if let Some(prof) = t.profile.as_mut() {
            prof.regions = self.regions.clone();
        }
        (t, trace)
    }
}

/// Functional output of [`Conv::run`].
pub struct ConvOutput {
    /// NCHW output tensor.
    pub output: Tensor4,
}

/// A convolution bound to a device.
#[derive(Clone)]
pub struct Conv {
    pub problem: ConvProblem,
    pub device: DeviceSpec,
}

impl Conv {
    pub fn new(problem: ConvProblem, device: DeviceSpec) -> Self {
        assert_eq!(
            (problem.r, problem.s, problem.pad),
            (3, 3, 1),
            "the GPU paths cover 3×3 pad-1 stride-1"
        );
        Conv { problem, device }
    }

    /// Workspace bytes the algorithm needs beyond in/out/filter (Fig. 14).
    pub fn workspace_bytes(&self, algo: Algo) -> u64 {
        let p = &self.problem;
        let (n, c, h, w, k) = (p.n as u64, p.c as u64, p.h as u64, p.w as u64, p.k as u64);
        match algo {
            // 16·K·C transformed filter (§7.3: "a small workspace to hold
            // 16KC transformed filter data").
            Algo::OursFused | Algo::CudnnWinograd => 16 * k * c * 4,
            // Column matrix (C·R·S) × (N·OH·OW).
            Algo::Gemm => c * 9 * n * h * w * 4,
            Algo::ImplicitGemm => 0,
            Algo::ImplicitPrecompGemm => c * 9 * 4, // offset table only
            Algo::WinogradNonfused => NonFusedPipeline::plan(p, Variant::F4x4).workspace_bytes(),
            Algo::Fft => {
                let s = fft_size_full(p) as u64;
                (n * c + k * c + n * k) * s * s * 8
            }
            Algo::FftTiling => {
                let s = 32u64;
                let step = s - 2;
                let tiles = h.div_ceil(step) * w.div_ceil(step);
                (n * c * tiles + k * c + n * k * tiles) * s * s * 8
            }
        }
    }

    /// Run the algorithm functionally. Input NCHW, filter KCRS; output NCHW.
    pub fn run(&self, algo: Algo, input: &Tensor4, filter: &Tensor4) -> ConvOutput {
        let p = &self.problem;
        assert_eq!(input.dims(), [p.n, p.c, p.h, p.w]);
        assert_eq!(filter.dims(), [p.k, p.c, 3, 3]);
        let output = match algo {
            Algo::OursFused | Algo::CudnnWinograd => self.run_fused(algo, input, filter),
            Algo::Gemm | Algo::ImplicitGemm | Algo::ImplicitPrecompGemm => {
                self.run_gemm_based(algo, input, filter)
            }
            Algo::WinogradNonfused => {
                NonFusedPipeline::plan(p, Variant::F4x4).run(p, input, filter)
            }
            Algo::Fft => conv2d_fft(p, input, filter),
            Algo::FftTiling => conv2d_fft_tiled(p, input, filter, 32),
        };
        ConvOutput { output }
    }

    // ---- measurement ------------------------------------------------------------

    /// Estimate time for the algorithm on the bound device (synthetic data):
    /// [`Conv::measure`] of [`Target::algo`], unobserved.
    pub fn time(&self, algo: Algo) -> AlgoTiming {
        self.measure(Target::algo(algo), Observe::default())
    }

    /// A lower bound on [`Conv::time`]`(algo).time_s`, from the kernel
    /// configurations alone: no kernel is emitted and nothing simulated, so
    /// it costs microseconds. It sums, over the pipeline's phases in
    /// [`Conv::time`]'s order, each phase plus [`LAUNCH_OVERHEAD_S`]:
    ///
    /// * an analytic phase's exact seconds;
    /// * for a simulated launch of `B` blocks, each issuing at least `F`
    ///   FP32-pipe warp instructions, `⌈B / num_sms⌉ · max(0, IF /
    ///   schedulers_per_sm − (I − 1))` cycles at `clock_hz`, where `I` is
    ///   [`gpusim::FP32_ISSUE_CYCLES`] (2). `F` is what the configuration
    ///   fixes: [`FusedConfig::ffma_per_block`] for a fused kernel,
    ///   [`GemmConfig::ffma_per_block`] for a GEMM tile, and 0 for the
    ///   filter transform.
    ///
    /// Proof that the launch term never exceeds the launch's simulated
    /// `time_s`, from the wave loop's pipe rule (`gpusim::timing`):
    ///
    /// 1. An FP32 issue at cycle `c` sets its scheduler's pipe busy until
    ///    `c + I` or later, and the issue gate admits no FP32 instruction
    ///    on a busy pipe. The last of a scheduler's `n` FP32 issues in a
    ///    wave therefore comes at cycle `I(n − 1)` or later, and a wave
    ///    counts the cycle of its last issue, so it lasts at least
    ///    `In − (I − 1)` cycles.
    /// 2. A wave of `b ≥ 1` blocks issues at least `bF` FP32 instructions
    ///    over `schedulers_per_sm` schedulers, so its busiest scheduler has
    ///    `n ≥ bF / schedulers_per_sm` and the wave lasts at least
    ///    `IbF / schedulers_per_sm − (I − 1) ≥ b · (IF / schedulers_per_sm
    ///    − (I − 1))` cycles.
    /// 3. An SM runs its waves back to back, so its busy cycles are at least
    ///    its block count times that per-block term. Round-robin dispatch
    ///    gives the busiest SM `⌈B / num_sms⌉` blocks, and the device
    ///    makespan is at least the busiest SM's busy cycles.
    /// 4. The device model's shortcuts keep both facts: a fast-forwarded
    ///    wave is charged a simulated full wave's cycles, and the
    ///    representative of an SM class stands for SMs with the same block
    ///    count, the busiest class included.
    /// 5. A launch's `time_s` is `max(makespan / clock_hz, DRAM time)`.
    ///
    /// Every cycle term is exact in `f64` (a multiple of
    /// `I / schedulers_per_sm` far below 2⁵³), and rounded division and
    /// addition are monotone, so the phase-by-phase inequality survives the
    /// same-order sum: the bound holds bit for bit, and equals the time of
    /// the all-analytic FFT algorithms.
    pub fn time_lower_bound(&self, algo: Algo) -> f64 {
        let dev = &self.device;
        let issue = gpusim::FP32_ISSUE_CYCLES as f64;
        let launch = |dims: LaunchDims, fp32_per_block: f64| {
            let per_block = issue * fp32_per_block / dev.schedulers_per_sm as f64 - (issue - 1.0);
            dims.num_blocks().div_ceil(dev.num_sms as u64) as f64 * per_block.max(0.0)
                / dev.clock_hz
        };
        let mut phases = Vec::new();
        for step in self.steps(algo) {
            match step {
                Step::Analytic(_, s) => phases.push(s),
                Step::Gemm(_, cfg) => phases.push(launch(cfg.launch_dims(), cfg.ffma_per_block())),
                Step::FusedPipeline(cfg) => {
                    phases.push(launch(filter_transform::launch_dims(cfg.c, cfg.k), 0.0));
                    phases.push(launch(cfg.launch_dims(), cfg.ffma_per_block()));
                }
            }
        }
        phases.iter().map(|s| s + LAUNCH_OVERHEAD_S).sum()
    }

    /// The dominant kernel of [`Conv::time`] with hardware counters attached
    /// (`gpusim::counters`); `None` for the analytic FFT algorithms. The
    /// timing numbers are those of [`Conv::time`], under the same key.
    pub fn time_counted(&self, algo: Algo) -> Option<KernelTiming> {
        self.measure(Target::algo(algo), Observe::COUNTERS).kernel
    }

    /// Content address of [`Conv::time`]: [`Conv::key`] of [`Target::algo`].
    pub fn time_digest(&self, algo: Algo) -> Digest {
        self.key(Target::algo(algo))
    }

    /// Simulate `target` on the bound device (synthetic data). Every launch
    /// shares one arena laid out by the kernels' own [`Buffers`]; `phases`
    /// lists the launches and analytic phases in order, each charged
    /// [`LAUNCH_OVERHEAD_S`], and `kernel` is the last launch's timing, with
    /// `observe`'s artifacts attached. Observation changes no number, which
    /// is why [`Conv::key`] does not take it.
    pub fn measure(&self, target: Target, observe: Observe) -> AlgoTiming {
        let (buffers, phases) = self.launches(target.kernels);
        let (mut gpu, _) = buffers.alloc(self.device.clone());
        let mut out = Vec::with_capacity(phases.len());
        let (mut kernel, mut trace) = (None, None);
        for phase in phases {
            let (name, s) = match phase {
                Phase::Analytic(name, s) => (name, s),
                Phase::Launch(l) => {
                    let (t, tr) = l.simulate(&mut gpu, target.model, observe);
                    let s = t.time_s;
                    (kernel, trace) = (Some(t), tr);
                    (l.name, s)
                }
            };
            out.push((name.to_string(), s + LAUNCH_OVERHEAD_S));
        }
        let time_s: f64 = out.iter().map(|(_, t)| t).sum();
        AlgoTiming {
            algo: target.kernels.algo(),
            time_s,
            tflops_effective: self.problem.direct_flops() / time_s / 1e12,
            kernel,
            phases: out,
            trace,
        }
    }

    /// Content address of [`Conv::measure`] for `target`: one
    /// [`gpusim::key`] per launch (device, model, program bytes, geometry,
    /// parameter bytes — hence buffer addresses, which the L2 model indexes
    /// by — and timed region), plus what only this layer knows: the
    /// problem, the model constants, the algorithm, the buffer layout, each
    /// launch's label and each analytic phase's label and seconds. A key
    /// emits every kernel the target runs but allocates no arena and
    /// simulates nothing, so it costs milliseconds, not microseconds: about
    /// 2 ms for the OURS pipeline of a Table 1 layer on a 2-vCPU Xeon,
    /// nearly all of it emitting the fused kernel.
    pub fn key(&self, target: Target) -> Digest {
        let p = &self.problem;
        let mut d = Digest::new();
        for v in [p.n, p.c, p.h, p.w, p.k, p.r, p.s, p.pad] {
            d.u64(v as u64);
        }
        d.f64(LAUNCH_OVERHEAD_S).f64(MEM_EFF);
        d.str(target.kernels.algo().name());
        let (buffers, phases) = self.launches(target.kernels);
        for b in &buffers.0 {
            d.u64(*b);
        }
        for phase in &phases {
            match phase {
                Phase::Analytic(name, s) => d.str(name).f64(*s),
                Phase::Launch(l) => {
                    let (m, opts) = (&l.module, l.options(Observe::default()));
                    let key = gpusim::key(&self.device, m, l.dims, &l.params, target.model, opts);
                    d.str(l.name).digest(&key)
                }
            };
        }
        d
    }

    /// The arena layout `kernels` runs in, and what it runs, in order.
    fn launches(&self, kernels: Kernels) -> (Buffers, Vec<Phase>) {
        match kernels {
            Kernels::Fused(cfg) => {
                let kern = FusedKernel::emit(cfg);
                let buffers = kern.buffers();
                let a = buffers.addrs();
                (buffers, vec![Launch::fused(kern, [a[0], a[1], a[2]])])
            }
            Kernels::Algo(algo) => {
                let mut buffers = Buffers(Vec::new());
                let mut phases = Vec::new();
                for step in self.steps(algo) {
                    match step {
                        Step::Analytic(name, s) => phases.push(Phase::Analytic(name, s)),
                        Step::Gemm(name, cfg) => {
                            let (b, gemm) = Launch::gemm(name, GemmKernel::emit(cfg));
                            buffers = b;
                            phases.push(gemm);
                        }
                        Step::FusedPipeline(cfg) => {
                            let kern = FusedKernel::emit(cfg);
                            // [in, filter, tf, out]: FX reads the filter into tf.
                            buffers = kern.pipeline_buffers();
                            let a = buffers.addrs();
                            let (c, k) = (cfg.c, cfg.k);
                            phases.push(Phase::Launch(Launch {
                                name: "filter_transform",
                                module: emit_filter_transform(c, k),
                                dims: filter_transform::launch_dims(c, k),
                                params: filter_transform::params(a[1], a[2]),
                                region: None,
                                regions: Vec::new(),
                            }));
                            phases.push(Launch::fused(kern, [a[0], a[2], a[3]]));
                        }
                    }
                }
                (buffers, phases)
            }
        }
    }

    /// What `algo` runs, in order, as kernel configurations and analytic
    /// phases: the one description [`Conv::launches`] emits and
    /// [`Conv::time_lower_bound`] bounds without emitting.
    fn steps(&self, algo: Algo) -> Vec<Step> {
        let p = &self.problem;
        let bw = self.device.dram_bw * MEM_EFF;
        match algo {
            Algo::OursFused | Algo::CudnnWinograd => {
                vec![Step::FusedPipeline(self.fused_config(algo))]
            }
            Algo::ImplicitPrecompGemm | Algo::ImplicitGemm => {
                vec![Step::Gemm("implicit_gemm", self.gemm_config(algo))]
            }
            Algo::Gemm => {
                // Explicit im2col: a memory-bound expansion pass, then GEMM.
                let col_bytes = (p.c * 9 * p.n * p.h * p.w) as f64 * 4.0;
                let in_bytes = p.input_len() as f64 * 4.0;
                vec![
                    Step::Analytic("im2col", (in_bytes + col_bytes) / bw),
                    Step::Gemm("gemm", self.gemm_config(Algo::Gemm)),
                ]
            }
            Algo::WinogradNonfused => {
                let plan = NonFusedPipeline::plan(p, Variant::F4x4);
                // Input transform: read input, write 2.25× expanded data.
                let itf_bytes = (p.input_len() + plan.transformed_input_len) as f64 * 4.0;
                // Filter transform (usually amortized; charged anyway).
                let ftf_bytes = (p.filter_len() + plan.transformed_filter_len) as f64 * 4.0;
                // Output transform: read 36·K·tiles, write output.
                let otf_bytes = (plan.transformed_output_len + p.output_len()) as f64 * 4.0;
                // 36 batches of [K×C] × [C×tiles] with F(4×4,3×3) tiling.
                let tiles = (p.out_h().div_ceil(4) * p.out_w().div_ceil(4) * p.n) as u32;
                let n_pad = tiles.div_ceil(128) * 128;
                let (m, kd) = (
                    (p.k as u32).next_multiple_of(64),
                    (p.c as u32).next_multiple_of(8),
                );
                vec![
                    Step::Analytic("input_transform", itf_bytes / bw),
                    Step::Analytic("filter_transform", ftf_bytes / bw),
                    Step::Gemm("batched_gemm", GemmConfig::new(m, n_pad, kd).batched(36)),
                    Step::Analytic("output_transform", otf_bytes / bw),
                ]
            }
            Algo::Fft => self.fft_phases(fft_size_full(p), 1),
            Algo::FftTiling => {
                let step = 32 - 2;
                let tiles = p.h.div_ceil(step) * p.w.div_ceil(step);
                self.fft_phases(32, tiles)
            }
        }
    }

    // ---- fused Winograd paths ------------------------------------------------

    /// The fused configuration `algo` runs (`OursFused` or `CudnnWinograd`).
    pub fn fused_config(&self, algo: Algo) -> FusedConfig {
        let p = &self.problem;
        match algo {
            Algo::OursFused => {
                FusedConfig::ours(p.c as u32, p.h as u32, p.w as u32, p.n as u32, p.k as u32)
            }
            Algo::CudnnWinograd => {
                FusedConfig::cudnn_like(p.c as u32, p.h as u32, p.w as u32, p.n as u32, p.k as u32)
            }
            _ => panic!("{algo:?} runs no fused kernel"),
        }
    }

    fn run_fused(&self, algo: Algo, input: &Tensor4, filter: &Tensor4) -> Tensor4 {
        let tf = self.transform_filter(filter);
        self.run_fused_pretransformed(algo, input, &tf)
    }

    /// Run the standalone filter-transform (FX) kernel on the simulated
    /// device: KCRS filter in, `C×4×4×K` transformed array (`F̂ = G F Gᵀ`)
    /// out. This is the data the fused kernels consume; a pure function of
    /// the filter bytes, so the network runtime hoists it behind
    /// `kernels::filter_transform::transform_cache_key` and replays the
    /// result across batches/requests bit-identically.
    pub fn transform_filter(&self, filter: &Tensor4) -> Vec<f32> {
        let p = &self.problem;
        assert_eq!(filter.dims(), [p.k, p.c, 3, 3]);
        let crsk = filter.to_layout(LayoutKind::Crsk);
        let (c, k) = (p.c as u32, p.k as u32);
        let (mut gpu, b) = filter_transform::buffers(c, k).alloc(self.device.clone());
        gpu.mem.upload_f32(b[0], crsk.as_slice()).unwrap();
        let fx = emit_filter_transform(c, k);
        let dims = filter_transform::launch_dims(c, k);
        gpu.launch_parallel(&fx, dims, &filter_transform::params(b[0], b[1]))
            .expect("filter transform kernel");
        gpu.mem.download_f32(b[1], p.c * 16 * p.k).unwrap()
    }

    /// Fused-path execution from an already-transformed filter (the hoisted
    /// transform-cache path). `tf` must be [`Conv::transform_filter`] output
    /// for this problem's filter; [`Conv::run`] is exactly the composition
    /// of the two, so executing through a transform cache is bit-identical
    /// to the on-the-fly path.
    pub fn run_fused_pretransformed(&self, algo: Algo, input: &Tensor4, tf: &[f32]) -> Tensor4 {
        let p = &self.problem;
        assert!(
            matches!(algo, Algo::OursFused | Algo::CudnnWinograd),
            "pretransformed execution covers the fused algorithms"
        );
        assert_eq!(input.dims(), [p.n, p.c, p.h, p.w]);
        assert_eq!(tf.len(), p.c * 16 * p.k, "transformed filter length");
        let cfg = self.fused_config(algo);
        // Ours reads CHWN (§4.2); the cuDNN-like kernel reads NCHW (§7).
        let chwn = if cfg.input_nchw {
            input.clone()
        } else {
            input.to_layout(LayoutKind::Chwn)
        };
        let kern = FusedKernel::emit(cfg);
        let (mut gpu, b) = kern.buffers().alloc(self.device.clone());
        gpu.mem.upload_f32(b[0], chwn.as_slice()).unwrap();
        gpu.mem.upload_f32(b[1], tf).unwrap();
        let params = kern.params(b[0], b[1], b[2]);
        gpu.launch_parallel(&kern.module, kern.launch_dims(), &params)
            .expect("fused winograd kernel");

        let raw = gpu.mem.download_f32(b[2], p.k * p.h * p.w * p.n).unwrap();
        if cfg.input_nchw {
            // The NCHW-path kernel writes NCHW directly (K = channel axis).
            Tensor4::from_vec(LayoutKind::Nchw, [p.n, p.k, p.h, p.w], raw)
        } else {
            // KHWN → NCHW.
            let mut out = Tensor4::zeros(LayoutKind::Nchw, [p.n, p.k, p.h, p.w]);
            for k in 0..p.k {
                for y in 0..p.h {
                    for x in 0..p.w {
                        for n in 0..p.n {
                            out.set([n, k, y, x], raw[((k * p.h + y) * p.w + x) * p.n + n]);
                        }
                    }
                }
            }
            out
        }
    }

    /// The paper's default fused configuration for this problem.
    pub fn ours_config(&self) -> FusedConfig {
        self.fused_config(Algo::OursFused)
    }

    /// The cuDNN-like fused configuration for this problem.
    pub fn cudnn_config(&self) -> FusedConfig {
        self.fused_config(Algo::CudnnWinograd)
    }

    // ---- GEMM-based paths ------------------------------------------------------

    /// GEMM shape `(M, N, Kd)`: `K × (N·H·W)` over a `C·9`-deep reduction,
    /// each zero-padded up to the kernel's tile multiple, so every 3×3
    /// layer has a legal GEMM path.
    fn gemm_dims(&self) -> (u32, u32, u32) {
        let p = &self.problem;
        let m = (p.k as u32).next_multiple_of(64);
        let ncols = (p.n * p.h * p.w) as u32;
        let n_pad = ncols.div_ceil(128) * 128;
        let kd = ((p.c * 9) as u32).next_multiple_of(8);
        (m, n_pad, kd)
    }

    fn gemm_config(&self, algo: Algo) -> GemmConfig {
        let (m, n, kd) = self.gemm_dims();
        let mut cfg = GemmConfig::new(m, n, kd);
        if algo == Algo::ImplicitGemm {
            // Index recomputation per loaded B element (≈ the div/mod chain
            // cuDNN's non-precomputed variant executes).
            cfg.extra_index_ops = 6;
        }
        cfg
    }

    fn run_gemm_based(&self, algo: Algo, input: &Tensor4, filter: &Tensor4) -> Tensor4 {
        let p = &self.problem;
        let (m, n_pad, kd) = self.gemm_dims();
        let (rows, ncols) = (p.c * 9, p.n * p.h * p.w);
        // A (transposed, Kd×M): filter as CRS×K, zero-padded.
        let crsk = filter.to_layout(LayoutKind::Crsk); // (C,R,S,K) == CRS×K
        let mut a = vec![0.0f32; (kd * m) as usize];
        // B (Kd×N): im2col, zero-padded.
        let cols = im2col(p, input);
        let mut b = vec![0.0f32; (kd * n_pad) as usize];
        for row in 0..rows {
            a[row * m as usize..row * m as usize + p.k]
                .copy_from_slice(&crsk.as_slice()[row * p.k..(row + 1) * p.k]);
            b[row * n_pad as usize..row * n_pad as usize + ncols]
                .copy_from_slice(&cols[row * ncols..(row + 1) * ncols]);
        }
        let kern = GemmKernel::emit(self.gemm_config(algo));
        let (mut gpu, d) = kern.buffers().alloc(self.device.clone());
        gpu.mem.upload_f32(d[0], &a).unwrap();
        gpu.mem.upload_f32(d[1], &b).unwrap();
        gpu.launch_parallel(
            &kern.module,
            kern.launch_dims(),
            &kern.params(d[0], d[1], d[2]),
        )
        .expect("gemm kernel");
        let c = gpu.mem.download_f32(d[2], (m * n_pad) as usize).unwrap();
        // C is K × (N·OH·OW) padded; repack to NCHW.
        let mut out = Tensor4::zeros(LayoutKind::Nchw, [p.n, p.k, p.h, p.w]);
        for k in 0..p.k {
            for n in 0..p.n {
                for y in 0..p.h {
                    for x in 0..p.w {
                        out.set(
                            [n, k, y, x],
                            c[k * n_pad as usize + (n * p.h + y) * p.w + x],
                        );
                    }
                }
            }
        }
        out
    }

    // ---- FFT analytic model ------------------------------------------------------

    /// Roofline phases for FFT-based convolution with transform size `s` and
    /// `tiles` tiles per image (1 = full-image FFT).
    fn fft_phases(&self, s: usize, tiles: usize) -> Vec<Step> {
        let p = &self.problem;
        let dev = &self.device;
        let s2 = (s * s) as f64;
        let lg = (s as f64).log2();
        // One 2-D complex FFT: 2·S rows/cols × 5·S·log2 S ≈ 10·S²·log2 S.
        let fft2d_flops = 10.0 * s2 * lg;
        let cplx = 8.0; // bytes per complex f32
        let roof = |flops: f64, bytes: f64| {
            (flops / dev.peak_fp32_flops()).max(bytes / (dev.dram_bw * MEM_EFF))
        };

        let n_in = (p.n * p.c * tiles) as f64;
        let n_f = (p.k * p.c) as f64;
        let n_out = (p.n * p.k * tiles) as f64;
        // Pointwise complex multiply-accumulate over channels — a batched
        // S²-deep CGEMM. With standard tiling each operand streams from DRAM
        // O(1) times; charge two passes (read + accumulate round trips).
        let macs = (p.n * p.k * p.c * tiles) as f64 * s2;
        let traffic = (n_in + n_f + n_out) * s2 * cplx * 2.0;
        vec![
            Step::Analytic(
                "fft_input",
                roof(n_in * fft2d_flops, n_in * s2 * (4.0 + cplx)),
            ),
            Step::Analytic(
                "fft_filter",
                roof(n_f * fft2d_flops, n_f * (9.0 * 4.0 + s2 * cplx)),
            ),
            Step::Analytic("cgemm_pointwise", roof(macs * 8.0, traffic)),
            Step::Analytic(
                "ifft_output",
                roof(n_out * fft2d_flops, n_out * s2 * (cplx + 4.0)),
            ),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::conv2d_direct;
    use tensor::allclose;

    fn small_problem() -> ConvProblem {
        ConvProblem::resnet3x3(32, 8, 8, 64)
    }

    fn data(p: &ConvProblem) -> (Tensor4, Tensor4) {
        (
            Tensor4::random(LayoutKind::Nchw, [p.n, p.c, p.h, p.w], -1.0, 1.0, 7),
            Tensor4::random(LayoutKind::Kcrs, [p.k, p.c, 3, 3], -1.0, 1.0, 8),
        )
    }

    #[test]
    fn ours_fused_matches_direct() {
        let p = small_problem();
        let (input, filter) = data(&p);
        let conv = Conv::new(p, DeviceSpec::v100());
        let want = conv2d_direct(&p, &input, &filter);
        let got = conv.run(Algo::OursFused, &input, &filter);
        assert!(allclose(want.as_slice(), got.output.as_slice(), 1e-3, 1e-3));
    }

    #[test]
    fn cudnn_winograd_matches_direct() {
        let p = ConvProblem::resnet3x3(32, 64, 7, 64);
        let (input, filter) = data(&p);
        let conv = Conv::new(p, DeviceSpec::rtx2070());
        let want = conv2d_direct(&p, &input, &filter);
        let got = conv.run(Algo::CudnnWinograd, &input, &filter);
        assert!(allclose(want.as_slice(), got.output.as_slice(), 1e-3, 1e-3));
    }

    #[test]
    fn gemm_algos_match_direct() {
        let p = small_problem();
        let (input, filter) = data(&p);
        let conv = Conv::new(p, DeviceSpec::v100());
        let want = conv2d_direct(&p, &input, &filter);
        for algo in [Algo::Gemm, Algo::ImplicitGemm, Algo::ImplicitPrecompGemm] {
            let got = conv.run(algo, &input, &filter);
            assert!(
                allclose(want.as_slice(), got.output.as_slice(), 1e-3, 1e-3),
                "{algo:?}"
            );
        }
    }

    #[test]
    fn host_algos_match_direct() {
        let p = ConvProblem::resnet3x3(2, 8, 8, 8);
        let (input, filter) = data(&p);
        let conv = Conv::new(p, DeviceSpec::v100());
        let want = conv2d_direct(&p, &input, &filter);
        for algo in [Algo::WinogradNonfused, Algo::Fft, Algo::FftTiling] {
            let got = conv.run(algo, &input, &filter);
            assert!(
                allclose(want.as_slice(), got.output.as_slice(), 1e-2, 1e-2),
                "{algo:?}"
            );
        }
    }

    #[test]
    fn workspace_ordering_matches_fig14() {
        // FFT variants need far more workspace than ours (Fig. 14).
        let p = ConvProblem::resnet3x3(32, 64, 56, 64);
        let conv = Conv::new(p, DeviceSpec::v100());
        let ours = conv.workspace_bytes(Algo::OursFused);
        assert_eq!(ours, 16 * 64 * 64 * 4); // 0.25 MB for Conv2 (§7.3)
        assert!(conv.workspace_bytes(Algo::Fft) > 100 * ours);
        assert_eq!(conv.workspace_bytes(Algo::ImplicitGemm), 0);
        assert!(conv.workspace_bytes(Algo::WinogradNonfused) > ours);
    }

    #[test]
    fn time_digests_separate_algos_and_problems() {
        let conv = Conv::new(ConvProblem::resnet3x3(32, 64, 14, 64), DeviceSpec::v100());
        let a = conv.time_digest(Algo::OursFused).hex();
        // Deterministic, and sensitive to algorithm, problem, and device.
        assert_eq!(a, conv.time_digest(Algo::OursFused).hex());
        assert_ne!(a, conv.time_digest(Algo::CudnnWinograd).hex());
        let bigger = Conv::new(ConvProblem::resnet3x3(64, 64, 14, 64), DeviceSpec::v100());
        assert_ne!(a, bigger.time_digest(Algo::OursFused).hex());
        let turing = Conv::new(
            ConvProblem::resnet3x3(32, 64, 14, 64),
            DeviceSpec::rtx2070(),
        );
        assert_ne!(a, turing.time_digest(Algo::OursFused).hex());
        // Other targets of the same kernels have their own keys.
        assert_ne!(a, conv.key(Target::mainloop(conv.ours_config())).hex());
        let ours = Target::fused(conv.ours_config(), Model::Device);
        assert_ne!(a, conv.key(ours).hex());
        assert_ne!(
            conv.key(ours).hex(),
            conv.key(Target::fused(conv.ours_config(), Model::OneWave))
                .hex()
        );
    }

    #[test]
    fn timing_runs_and_orders_sanely() {
        // Small-ish layer: ours must beat the cuDNN-like fused kernel and
        // the GEMM path in simulated time.
        let p = ConvProblem::resnet3x3(32, 64, 14, 64);
        let conv = Conv::new(p, DeviceSpec::rtx2070());
        let ours = conv.time(Algo::OursFused);
        let gemm = conv.time(Algo::ImplicitPrecompGemm);
        assert!(ours.time_s > 0.0 && gemm.time_s > 0.0);
        assert!(
            ours.time_s < gemm.time_s,
            "ours {} vs gemm {}",
            ours.time_s,
            gemm.time_s
        );
        assert!(!ours.phases.is_empty());
    }
}
