//! `BatchTimer` must be result-identical to a fresh `gpusim::simulate`.
//!
//! The batch path clones baseline `InstDesc`s through the tuner's position
//! map and re-patches only control-code fields; if any op-derived field
//! leaked stale state across a reorder, cycle counts would silently drift.
//! This test drives the real tuner move generators over the fused Winograd
//! kernel to produce representative candidates (re-stalled, reuse-flagged,
//! barrier-reassigned, reordered) and compares the **complete** timing
//! result (`Debug` rendering, which round-trips every f64 bit) between the
//! two paths for each.

use gpusim::{BatchTimer, DeviceSpec, Gpu, Model, TimingOptions};
use kernels::{FusedConfig, FusedKernel};
use sass::tune::{detune, Tuner};

#[test]
fn batch_timer_matches_fresh_decode() {
    let (c, h, w, n, k) = (32u32, 4u32, 4u32, 32u32, 64u32);
    let kern = FusedKernel::emit(FusedConfig::ours(c, h, w, n, k));
    let base = kern.module.clone();

    // Collect candidates along a short tuner run: the baseline itself, the
    // detuned stream, and every stream the annealer evaluates. A cheap
    // static objective keeps this a pure schedule-shape generator.
    let mut naive = base.insts.clone();
    detune(&mut naive);
    let mut tuner = Tuner::new(naive.clone(), Vec::new(), 1234);
    let mut cands: Vec<(Vec<sass::Instruction>, Vec<u32>)> = Vec::new();
    cands.push((base.insts.clone(), (0..base.insts.len() as u32).collect()));
    {
        let mut obj = |insts: &[sass::Instruction], perm: &[u32]| {
            cands.push((insts.to_vec(), perm.to_vec()));
            Some(insts.iter().map(|i| i.ctrl.stall.max(1) as u64).sum())
        };
        tuner.prime(&mut obj);
        tuner.start_anneal(40);
        for _ in 0..40 {
            tuner.anneal_step(&mut obj);
        }
    }
    assert!(cands.len() > 5, "tuner produced too few candidates");

    let din = (c * h * w * n) as u64 * 4;
    let dtf = (c * 16 * k) as u64 * 4;
    let dout = (k * h * w * n) as u64 * 4;
    let opts = TimingOptions {
        region: Some(kern.region),
        ..Default::default()
    };

    for dev in [DeviceSpec::v100(), DeviceSpec::rtx2070()] {
        let mut batch = BatchTimer::new(&base);
        for (i, (insts, perm)) in cands.iter().enumerate() {
            let cand = base.with_insts(insts.clone());

            let mut gpu = Gpu::new(dev.clone(), 1 << 22);
            let params = kern.params(gpu.alloc(din), gpu.alloc(dtf), gpu.alloc(dout));
            let dims = kern.launch_dims();
            let fresh = gpusim::simulate(&mut gpu, &cand, dims, &params, Model::OneWave, opts)
                .expect("fresh timing failed");

            let mut gpu = Gpu::new(dev.clone(), 1 << 22);
            let params = kern.params(gpu.alloc(din), gpu.alloc(dtf), gpu.alloc(dout));
            let batched = batch
                .time(&mut gpu, &cand, perm, dims, &params, Model::OneWave, opts)
                .expect("batched timing failed");

            assert_eq!(
                format!("{fresh:?}"),
                format!("{batched:?}"),
                "candidate {i} on {} diverged between fresh and batch decode",
                dev.name
            );
        }
    }
}
