//! `wino-core` — the workspace's primary library: batched Winograd
//! convolution with the paper's optimized GPU kernel, plus every baseline
//! algorithm the paper compares against.
//!
//! The public entry point is [`conv::Conv`]: describe a problem
//! ([`ConvProblem`]), pick an [`conv::Algo`], run it functionally on the
//! simulated GPU (validated against [`reference::conv2d_direct`]) or time it
//! with the cycle-level model.
//!
//! Layering:
//!
//! * [`transforms`] — the `F(m×m, 3×3)` Winograd transform matrices;
//! * [`mod@reference`], [`winograd_host`], [`fft`] — host (CPU)
//!   implementations of the direct, Winograd and FFT algorithms, used as
//!   correctness oracles; [`im2col`] — the column lowering the GEMM
//!   baselines multiply on the simulator;
//! * [`conv`] — the GPU-facing API dispatching to the SASS kernels in the
//!   `kernels` crate and the simulator in `gpusim`;
//! * [`resnet`] — the paper's Table 1 workload definitions;
//! * [`memplan`] — live-range workspace planning over a shared arena;
//! * [`netgraph`] — the whole-network graph runtime: layer chains with
//!   per-layer algorithm selection, the memory planner, and the hoisted
//!   filter-transform cache.

pub mod conv;
pub mod fft;
pub mod im2col;
pub mod memplan;
pub mod netgraph;
pub mod reference;
pub mod resnet;
pub mod transforms;
pub mod winograd_host;

pub use conv::{Algo, AlgoTiming, Conv, ConvOutput, Kernels, Model, Observe, Target};
pub use memplan::{plan_arena, ArenaPlan, ArenaPolicy, BufferReq};
pub use netgraph::{AlgoPolicy, DirectTimer, LayerTimer, NetGraph, NetPlan, TransformCache};
pub use reference::{conv2d_direct, ConvProblem};
pub use transforms::Variant;
pub use winograd_host::conv2d_winograd;
