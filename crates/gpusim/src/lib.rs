//! `gpusim` — a functional and cycle-level simulator of the NVIDIA
//! Volta/Turing SM micro-architecture.
//!
//! This crate is the hardware substrate for the Winograd reproduction: the
//! paper's experiments run on a V100 and an RTX 2070, and every optimization
//! it studies is a property of mechanisms this simulator implements
//! explicitly:
//!
//! * 4 warp schedulers per SM with the **yield-flag** issue policy (§5.1.4,
//!   §6.1) — one extra cycle and loss of the reuse cache on a warp switch;
//! * two 64-bit **register banks** with operand **reuse caches** (§5.2.2):
//!   a 3-source FFMA whose operands collide in one bank occupies the FP32
//!   pipe for an extra cycle unless `.reuse` covers the collision;
//! * 32-bank **shared memory** with exact conflict detection, including the
//!   two-phase service of `LDS.128` (the subtlety behind the paper's Fig. 3
//!   lane arrangement);
//! * **scoreboard wait barriers** (6 per warp) and stall counts from each
//!   instruction's control code — the hardware trusts the assembler;
//! * an L2/DRAM model with sector-level coalescing and bandwidth accounting;
//! * CUDA **occupancy** rules (registers / shared memory / thread limits)
//!   that reproduce the V100-vs-RTX2070 difference of §7.1.
//!
//! Functional execution ([`exec`], [`launch`]) is exact: the two
//! [`Gpu`] launchers share one grid walk, whose worker threads share the
//! global-memory arena of atomic words ([`memory`]). Timing has one entry
//! point, [`simulate`], and one content address, [`key`], over a [`Model`]
//! and [`TimingOptions`]; [`BatchTimer`] runs the same body for
//! schedule-tuner candidates. A timing run executes each block's timing
//! slice ([`slice`](mod@slice)), the instructions that decide addresses and control
//! flow. The models share one cycle-level wave loop:
//! [`Model::OneWave`] ([`timing`]) times a single wave of resident blocks
//! on one SM and extrapolates analytically across waves (the cheap
//! inner-loop model, exact on grids that are a whole multiple of full
//! waves), while [`Model::Device`] ([`device_sim`]) dispatches every block
//! of the launch to its SM and simulates all SMs — sharded across worker
//! threads that each claim whole SMs on the same walk, with a
//! deterministic merge — so partial last waves and tail imbalance are
//! timed instead of rounded up. The wave loop parks scoreboard completions
//! in a crate-private time-ordered queue (`timeq`) that pops exact ties in
//! push order, so every timing is bit-stable.
//!
//! Two leaf modules serve persistence for the whole workspace: [`digest`]
//! content-addresses simulation inputs, and [`json`] is the one JSON codec
//! that every persisted record (simcache entries, serve plans, tuned
//! schedules) and every JSON writer goes through.

pub mod batch;
pub mod counters;
pub(crate) mod decode;
pub mod device;
pub mod device_sim;
pub mod digest;
pub mod exec;
pub mod json;
pub mod launch;
pub mod memory;
pub mod simprof;
pub mod slice;
pub(crate) mod timeq;
pub mod timing;

pub use batch::BatchTimer;
pub use counters::HwCounters;
pub use device::{Arch, DeviceSpec};
pub use device_sim::{DeviceTrace, WaveSpan};
pub use digest::{key, Digest, TIMING_MODEL_VERSION};
pub use exec::{Effects, ExecEnv, ExecError, StepEvent, Warp, WARP_SIZE};
pub use launch::{Gpu, LaunchDims, LaunchError};
pub use memory::{ConstBank, DevPtr, GlobalMemory, MemError, ParamBuilder, PARAM_BASE};
pub use simprof::{KernelProfile, LineProfile, Region, StallBreakdown, StallCause};
pub use timing::{simulate, KernelTiming, Model, TimingOptions, FP32_ISSUE_CYCLES};
