//! Schedule search over one emitted fused kernel on one device: everything
//! it needs, in one place, for the `tune` binary and the serve-layer
//! planner alike.
//!
//! A [`Search`] owns the kernel's launch context — its own
//! [`FusedKernel::buffers`] layout, their parameter bytes and launch dims,
//! and the main loop as the timed region — and runs three things on it:
//!
//! * the one-wave objective ([`Search::objective`]): each candidate stream
//!   is timed through one decoded [`BatchTimer`], cloned per island, with
//!   an optional caller-side [`Memo`] in front of the simulation;
//! * the island search from the hand stream ([`Search::islands`], usually
//!   shaped by [`hand_pair`]);
//! * the device-model re-time of a tuned or stored schedule, on the
//!   kernel's own layout ([`Search::device_time`], addressed by
//!   [`Search::key`]) or on the FX → fused pipeline's
//!   ([`Search::pipeline_device_time`], the layout `Conv::time` times the
//!   fused kernel on).
//!
//! The key of the hand module is also what a tuned schedule is stored
//! under (`serve::schedstore`): a schedule reorders one emitted program,
//! so it is addressed by that program's launch, not by the config that
//! emitted it.
//!
//! A simulation that fails is `None`, never a panic: the tuner counts it
//! in `TuneStats::failed`, and each caller decides how strict to be. The
//! decoded timer is built on first use, so a caller that only re-times
//! pays for no decode.

use std::sync::OnceLock;

use gpusim::{BatchTimer, DeviceSpec, Digest, KernelTiming, LaunchDims, Model, TimingOptions};
use sass::island::{run_islands, IslandConfig, IslandOutcome, Priors, SeedKind};
use sass::{Instruction, Module};

use crate::{Buffers, FusedKernel};

/// A caller's cache in front of the one-wave objective. It is handed each
/// evaluated candidate, the candidate's `gpusim::key` and the simulation
/// to run on a miss, and returns the candidate's timing.
pub type Memo<'m> =
    &'m (dyn Fn(&Module, &Digest, &mut Simulation<'_>) -> Option<KernelTiming> + Sync);

/// One candidate's one-wave simulation, as a [`Memo`] is handed it.
pub type Simulation<'s> = dyn FnMut() -> Option<KernelTiming> + 's;

/// The two-island, two-epoch search from the hand schedule: one island
/// anneals it as emitted, the other after greedy stall tightening.
pub fn hand_pair(steps_per_epoch: u64, seed: u64) -> IslandConfig {
    let mut cfg = IslandConfig::new(2, 2, steps_per_epoch, seed);
    cfg.seeds = vec![SeedKind::Hand, SeedKind::HandGreedy];
    cfg
}

/// Schedule search over one emitted fused kernel on one device.
pub struct Search<'k> {
    kern: &'k FusedKernel,
    device: DeviceSpec,
    buffers: Buffers,
    params: Vec<u8>,
    dims: LaunchDims,
    opts: TimingOptions,
    timer: OnceLock<BatchTimer>,
}

impl<'k> Search<'k> {
    pub fn new(device: &DeviceSpec, kern: &'k FusedKernel) -> Search<'k> {
        let buffers = kern.buffers();
        let a = buffers.addrs();
        Search {
            kern,
            device: device.clone(),
            params: kern.params(a[0], a[1], a[2]),
            buffers,
            dims: kern.launch_dims(),
            opts: TimingOptions {
                region: Some(kern.region),
                ..Default::default()
            },
            timer: OnceLock::new(),
        }
    }

    /// One island's private objective: `(insts, perm)` → one-wave cycles
    /// of that schedule, `None` if its simulation fails.
    pub fn objective<'s>(
        &'s self,
        memo: Option<Memo<'s>>,
    ) -> impl FnMut(&[Instruction], &[u32]) -> Option<u64> + Send + 's {
        let mut timer = self
            .timer
            .get_or_init(|| BatchTimer::new(&self.kern.module))
            .clone();
        let (dims, params, model, opts) = (self.dims, &self.params, Model::OneWave, self.opts);
        move |insts, perm| {
            let cand = self.kern.module.with_insts(insts.to_vec());
            let mut sim = || {
                let (mut gpu, _) = self.buffers.alloc(self.device.clone());
                let t = timer.time(&mut gpu, &cand, perm, dims, params, model, opts);
                t.ok().map(|(t, _)| t)
            };
            let t = match memo {
                Some(memo) => {
                    let key = gpusim::key(&self.device, &cand, dims, params, model, opts);
                    memo(&cand, &key, &mut sim)
                }
                None => sim(),
            };
            t.map(|t| t.wave_cycles)
        }
    }

    /// Run the island search from the hand stream over the kernel's tune
    /// regions, each island on its own [`Search::objective`].
    pub fn islands(
        &self,
        priors: &Priors,
        cfg: &IslandConfig,
        memo: Option<Memo>,
    ) -> IslandOutcome {
        let regions = self.kern.tune_regions();
        run_islands(&self.kern.module.insts, &regions, priors, cfg, |_| {
            self.objective(memo)
        })
    }

    /// One-wave run of `m` with the stall profile and hardware counters on,
    /// to aim a search's priors.
    pub fn profile(&self, m: &Module) -> Option<KernelTiming> {
        let opts = TimingOptions {
            profile: true,
            counters: true,
            ..self.opts
        };
        self.run(&self.buffers, m, &self.params, Model::OneWave, opts)
    }

    /// The kernel the search runs on; its module is the hand stream.
    pub fn kernel(&self) -> &'k FusedKernel {
        self.kern
    }

    /// Re-time `m` through the full device model on the kernel's own
    /// buffers.
    pub fn device_time(&self, m: &Module) -> Option<KernelTiming> {
        self.run(&self.buffers, m, &self.params, Model::Device, self.opts)
    }

    /// The address of [`Search::device_time`] of `m`: the [`gpusim::key`]
    /// of that simulation.
    pub fn key(&self, m: &Module) -> Digest {
        let (dims, opts) = (self.dims, self.opts);
        gpusim::key(&self.device, m, dims, &self.params, Model::Device, opts)
    }

    /// Re-time `m` through the full device model on the FX → fused
    /// pipeline's layout ([`FusedKernel::pipeline_buffers`]), so the result
    /// compares with the fused phase of a `Conv::time` pipeline timing.
    pub fn pipeline_device_time(&self, m: &Module) -> Option<KernelTiming> {
        let buffers = self.kern.pipeline_buffers();
        let a = buffers.addrs();
        let params = self.kern.params(a[0], a[2], a[3]);
        self.run(&buffers, m, &params, Model::Device, self.opts)
    }

    fn run(
        &self,
        buffers: &Buffers,
        m: &Module,
        params: &[u8],
        model: Model,
        opts: TimingOptions,
    ) -> Option<KernelTiming> {
        let (mut gpu, _) = buffers.alloc(self.device.clone());
        let t = gpusim::simulate(&mut gpu, m, self.dims, params, model, opts);
        t.ok().map(|(t, _)| t)
    }
}
