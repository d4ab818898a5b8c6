//! Differential functional check for the schedule autotuner (ISSUE 5).
//!
//! Schedule moves — stall/yield/reuse/barrier edits and dependence-legal
//! reorders — must never change what a kernel *computes*. This harness runs
//! the real tuner over the detuned fused Winograd kernel, samples accepted
//! candidates along the seeded search trajectory (plus every evaluated
//! candidate, capped), executes each through the functional `gpusim` launch
//! path on real data, and compares:
//!
//! * candidate output vs the baseline kernel's output — **bit-exact**.
//!   A dependence-legal reorder cannot even change rounding: any two
//!   instructions the oracle lets commute share no registers, so every
//!   FFMA accumulation chain keeps its order and the IEEE result is
//!   identical down to the last ulp;
//! * baseline output vs a direct-convolution reference — within the usual
//!   Winograd-vs-direct tolerance (different summation order, 1e-3), the
//!   same bar `fused_correctness.rs` holds the hand kernel to.

use gpusim::{DeviceSpec, Gpu};
use kernels::filter_transform::{self, emit_filter_transform};
use kernels::{EmitterParams, FusedConfig, FusedKernel};
use sass::tune::Tuner;
use sass::Instruction;
use tensor::XorShiftRng;

/// Direct convolution reference (3×3, pad 1, stride 1), CHWN/CRSK/KHWN.
fn reference(
    c_d: usize,
    h_d: usize,
    w_d: usize,
    n_d: usize,
    k_d: usize,
    input: &[f32],
    filter: &[f32],
) -> Vec<f32> {
    let mut out = vec![0.0f32; k_d * h_d * w_d * n_d];
    for k in 0..k_d {
        for y in 0..h_d {
            for x in 0..w_d {
                for n in 0..n_d {
                    let mut acc = 0.0f32;
                    for c in 0..c_d {
                        for r in 0..3 {
                            let iy = y as isize + r as isize - 1;
                            if iy < 0 || iy >= h_d as isize {
                                continue;
                            }
                            for s in 0..3 {
                                let ix = x as isize + s as isize - 1;
                                if ix < 0 || ix >= w_d as isize {
                                    continue;
                                }
                                let iv =
                                    input[((c * h_d + iy as usize) * w_d + ix as usize) * n_d + n];
                                let fv = filter[((c * 3 + r) * 3 + s) * k_d + k];
                                acc += iv * fv;
                            }
                        }
                    }
                    out[((k * h_d + y) * w_d + x) * n_d + n] = acc;
                }
            }
        }
    }
    out
}

/// Every legal Tier-2 emitter point (the `EmitterParams` grid points
/// `FusedConfig::check` accepts, which the two-tier autotuner searches)
/// must emit a lint-clean kernel whose output is
/// bit-exact against every other legal point. The knobs — `bk` blocking,
/// filter LDG width, fragment pipelining depth — reshuffle loads and
/// register layouts but never the FFMA accumulation chain: channels
/// accumulate in ascending order in the transform domain and the inverse
/// transform runs once at the end, so even across layouts the IEEE result
/// is identical down to the last ulp. The direct-convolution reference
/// anchors the family within the usual Winograd tolerance.
#[test]
fn tier2_variants_lint_clean_and_bit_exact() {
    let base = FusedConfig::ours(32, 4, 4, 32, 64);
    let (c, h, w, n, k) = (
        base.c as usize,
        base.h as usize,
        base.w as usize,
        base.n as usize,
        base.k as usize,
    );
    let mut rng = XorShiftRng::new(0x7157);
    let input: Vec<f32> = (0..c * h * w * n)
        .map(|_| rng.gen_range(-1.0, 1.0))
        .collect();
    let filter: Vec<f32> = (0..c * 9 * k).map(|_| rng.gen_range(-1.0, 1.0)).collect();

    let mut gpu = Gpu::new(DeviceSpec::v100(), 1 << 26);
    let d_in = gpu.alloc_upload_f32(&input);
    let d_filt = gpu.alloc_upload_f32(&filter);
    let d_tf = gpu.alloc((c * 16 * k) as u64 * 4);
    let d_out = gpu.alloc((k * h * w * n) as u64 * 4);
    let fx = emit_filter_transform(base.c, base.k);
    let fx_dims = filter_transform::launch_dims(base.c, base.k);
    gpu.launch_parallel(&fx, fx_dims, &filter_transform::params(d_filt, d_tf))
        .expect("filter transform");

    let want = reference(c, h, w, n, k, &input, &filter);
    let points = EmitterParams::grid(base).0;
    assert!(points.len() >= 5, "tier-2 grid lost legal points");
    let mut anchor: Option<Vec<f32>> = None;
    for p in points {
        let cfg = p.apply(base);
        let kern = FusedKernel::emit(cfg);
        assert!(
            sass::lint(&kern.module.insts).is_empty(),
            "{}: emitted kernel fails lint",
            p.label()
        );
        gpu.mem
            .upload_f32(d_out, &vec![f32::NAN; k * h * w * n])
            .unwrap();
        let params = kern.params(d_in, d_tf, d_out);
        gpu.launch_parallel(&kern.module, kern.launch_dims(), &params)
            .unwrap_or_else(|e| panic!("{}: failed to execute: {e}", p.label()));
        let got = gpu.mem.download_f32(d_out, k * h * w * n).unwrap();
        let rep = tensor::compare(&want, &got, 1e-3, 1e-3);
        assert!(rep.num_bad == 0, "{} vs direct reference: {rep}", p.label());
        match &anchor {
            None => anchor = Some(got),
            Some(a) => {
                for (j, (x, y)) in a.iter().zip(&got).enumerate() {
                    assert!(
                        x.to_bits() == y.to_bits(),
                        "{}: output[{j}] differs bit-for-bit from anchor: {x:?} vs {y:?}",
                        p.label()
                    );
                }
            }
        }
    }
}

#[test]
fn tuner_candidates_compute_identical_results() {
    let cfg = FusedConfig::ours(32, 4, 4, 32, 64);
    let (c, h, w, n, k) = (
        cfg.c as usize,
        cfg.h as usize,
        cfg.w as usize,
        cfg.n as usize,
        cfg.k as usize,
    );
    let mut rng = XorShiftRng::new(0x5eed);
    let input: Vec<f32> = (0..c * h * w * n)
        .map(|_| rng.gen_range(-1.0, 1.0))
        .collect();
    let filter: Vec<f32> = (0..c * 9 * k).map(|_| rng.gen_range(-1.0, 1.0)).collect();

    // Device state: input + transformed filter, shared by every launch.
    let mut gpu = Gpu::new(DeviceSpec::v100(), 1 << 26);
    let d_in = gpu.alloc_upload_f32(&input);
    let d_filt = gpu.alloc_upload_f32(&filter);
    let d_tf = gpu.alloc((c * 16 * k) as u64 * 4);
    let d_out = gpu.alloc((k * h * w * n) as u64 * 4);
    let fx = emit_filter_transform(cfg.c, cfg.k);
    let fx_dims = filter_transform::launch_dims(cfg.c, cfg.k);
    gpu.launch_parallel(&fx, fx_dims, &filter_transform::params(d_filt, d_tf))
        .expect("filter transform");

    // Baseline: the detuned kernel. Its output anchors the bit-exact
    // comparison and must itself match the direct reference.
    let naive = FusedKernel::emit_detuned(cfg);
    let params = naive.params(d_in, d_tf, d_out);
    let dims = naive.launch_dims();
    gpu.launch_parallel(&naive.module, dims, &params)
        .expect("baseline kernel");
    let base_out = gpu.mem.download_f32(d_out, k * h * w * n).unwrap();
    let want = reference(c, h, w, n, k, &input, &filter);
    let rep = tensor::compare(&want, &base_out, 1e-3, 1e-3);
    assert!(rep.num_bad == 0, "baseline vs direct reference: {rep}");

    // Tune with a cheap static objective — cycle counts are irrelevant
    // here; what matters is that the *real* move generators and legality
    // gates produce the candidates. Sample every evaluated candidate up to
    // a cap, plus periodic snapshots of the accepted stream.
    let mut tuner = Tuner::new(naive.module.insts.clone(), Vec::new(), 0xd1ff);
    tuner.snapshot_every = 8;
    let mut sampled: Vec<Vec<Instruction>> = Vec::new();
    let mut obj = |insts: &[Instruction], _perm: &[u32]| {
        if sampled.len() < 16 {
            sampled.push(insts.to_vec());
        }
        Some(
            insts
                .iter()
                .map(|i| i.ctrl.stall.max(1) as u64 + !i.ctrl.yield_flag as u64)
                .sum(),
        )
    };
    tuner.prime(&mut obj);
    tuner.greedy_tighten(&mut obj);
    tuner.start_anneal(160);
    for _ in 0..160 {
        tuner.anneal_step(&mut obj);
    }
    assert!(tuner.stats.accepted > 0, "search accepted nothing to test");
    sampled.extend(tuner.snapshots.iter().cloned());
    sampled.push(tuner.best_insts.clone());
    // Dedup identical streams to keep the launch count down.
    sampled.dedup();

    assert!(sampled.len() >= 6, "too few candidates sampled");
    for (i, insts) in sampled.iter().enumerate() {
        assert!(sass::lint(insts).is_empty(), "candidate {i} fails lint");
        let cand = naive.module.with_insts(insts.clone());
        // Scrub the output so a candidate that silently skipped stores
        // cannot inherit a previous launch's correct answer.
        gpu.mem
            .upload_f32(d_out, &vec![f32::NAN; k * h * w * n])
            .unwrap();
        gpu.launch_parallel(&cand, dims, &params)
            .unwrap_or_else(|e| panic!("candidate {i} failed to execute: {e}"));
        let got = gpu.mem.download_f32(d_out, k * h * w * n).unwrap();
        for (j, (a, b)) in base_out.iter().zip(&got).enumerate() {
            assert!(
                a.to_bits() == b.to_bits(),
                "candidate {i}: output[{j}] differs bit-for-bit: {a:?} vs {b:?}"
            );
        }
    }
}
