//! `perfmodel` — analytical performance models from the paper.
//!
//! * [`roofline`] — the Figure 2 roofline: arithmetic intensity of each
//!   Winograd step against the DRAM and L2 roofs, and the §3.3 observation
//!   that growing `bk` from 32 to 64 raises the batched-GEMM intensity from
//!   8 to 10.67 ops/byte (+33%);
//! * [`breakeven`] — the §8.1 fused-F(2×2) vs non-fused-F(4×4) break-even
//!   model, predicting the crossover at K ≈ 129 (V100) / 127 (RTX 2070);
//! * [`occupancy`] — Table 7: kernel parameters and resident blocks per SM,
//!   the mechanism behind §7.1's V100-vs-RTX2070 speedup difference;
//! * [`bottleneck`] — roofline-driven classification of a simulated run as
//!   compute-/DRAM-/smem-/latency-bound, with headroom to the ceiling;
//! * [`tunehint`] — translation of a bottleneck class into move-family
//!   weights for the `sass::tune` schedule autotuner.

pub mod bottleneck;
pub mod breakeven;
pub mod occupancy;
pub mod roofline;
pub mod tunehint;

pub use bottleneck::{BottleneckReport, Bound, BOUND_THRESHOLD};
pub use breakeven::{break_even_k, fused_f2_time, nonfused_f4_time, nonfused_viable};
pub use occupancy::{kernel_table, KernelParams};
pub use roofline::{attainable_tflops, RooflinePoint, WINOGRAD_STEPS};
pub use tunehint::{move_weights, region_move_weights};
