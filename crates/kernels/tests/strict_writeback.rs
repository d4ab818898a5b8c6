//! Dynamic schedule validation: run the generated kernels with strict load
//! writeback (loads deposit poison at issue; real data arrives only when
//! their scoreboard signals). If any control code is wrong — a missing wait,
//! an underfilled stall chain feeding a wait, a loop-carried WAR the static
//! linter's per-block analysis cannot see — consumers read poison and the
//! output diverges from the reference.

use gpusim::{DeviceSpec, Gpu, Model, TimingOptions};
use kernels::filter_transform::{self, emit_filter_transform};
use kernels::gemm::{GemmConfig, GemmKernel};
use kernels::{FusedConfig, FusedKernel};
use tensor::XorShiftRng;

fn reference(
    c: usize,
    h: usize,
    w: usize,
    n: usize,
    k: usize,
    input: &[f32],
    filter: &[f32],
) -> Vec<f32> {
    let mut out = vec![0.0f32; k * h * w * n];
    for kk in 0..k {
        for y in 0..h {
            for x in 0..w {
                for nn in 0..n {
                    let mut acc = 0.0f32;
                    for cc in 0..c {
                        for r in 0..3 {
                            let iy = y as isize + r as isize - 1;
                            if iy < 0 || iy >= h as isize {
                                continue;
                            }
                            for s in 0..3 {
                                let ix = x as isize + s as isize - 1;
                                if ix < 0 || ix >= w as isize {
                                    continue;
                                }
                                acc += input[((cc * h + iy as usize) * w + ix as usize) * n + nn]
                                    * filter[((cc * 3 + r) * 3 + s) * k + kk];
                            }
                        }
                    }
                    out[((kk * h + y) * w + x) * n + nn] = acc;
                }
            }
        }
    }
    out
}

/// Time (and thereby strictly execute) one wave of the fused kernel and
/// check every output element the simulated blocks produced. The filter
/// transform runs through the functional launcher — a one-wave timing run
/// executes only one wave, and the fused kernel needs the *complete*
/// transformed filter (the FX kernel's own strict validation is a separate
/// test below).
fn strict_case(cfg: FusedConfig, seed: u64) {
    assert!(!cfg.input_nchw, "this harness feeds CHWN data");
    let (c, h, w, n, k) = (
        cfg.c as usize,
        cfg.h as usize,
        cfg.w as usize,
        cfg.n as usize,
        cfg.k as usize,
    );
    let mut rng = XorShiftRng::new(seed);
    let input: Vec<f32> = (0..c * h * w * n)
        .map(|_| rng.gen_range(-1.0, 1.0))
        .collect();
    let filter: Vec<f32> = (0..c * 9 * k).map(|_| rng.gen_range(-1.0, 1.0)).collect();
    let want = reference(c, h, w, n, k, &input, &filter);

    let mut gpu = Gpu::new(DeviceSpec::v100(), 1 << 28);
    let d_in = gpu.alloc_upload_f32(&input);
    let d_filt = gpu.alloc_upload_f32(&filter);
    let d_tf = gpu.alloc((c * 16 * k) as u64 * 4);
    let d_out = gpu.alloc((k * h * w * n) as u64 * 4);

    let fx = emit_filter_transform(cfg.c, cfg.k);
    let fx_dims = filter_transform::launch_dims(cfg.c, cfg.k);
    gpu.launch(&fx, fx_dims, &filter_transform::params(d_filt, d_tf))
        .expect("filter transform");

    let kern = FusedKernel::emit(cfg);
    let params = kern.params(d_in, d_tf, d_out);
    let t = gpusim::simulate(
        &mut gpu,
        &kern.module,
        kern.launch_dims(),
        &params,
        Model::OneWave,
        TimingOptions {
            strict_writeback: true,
            ..Default::default()
        },
    )
    .expect("strict fused kernel")
    .0;

    // Check the outputs of the blocks the strict wave actually ran (the
    // warm-up block 0 ran un-strictly through the functional path; the
    // timed wave is blocks 1..=resident when the grid is large enough).
    let got = gpu.mem.download_f32(d_out, k * h * w * n).unwrap();
    let total_blocks = kern.launch_dims().num_blocks();
    let resident = t.blocks_per_sm as u64;
    let first = if total_blocks > resident { 1u64 } else { 0 };
    let wt = cfg.wtiles() as u64;
    let mut checked = 0usize;
    for b in first..(first + resident).min(total_blocks) {
        // Grid is (wtiles, htiles, ngroups*kblocks); block covers output
        // tile (hx, wx) for 32 batches of group ng and 64 filters of kb.
        let wx = (b % wt) as usize;
        let hx = ((b / wt) % cfg.htiles() as u64) as usize;
        let z = (b / (wt * cfg.htiles() as u64)) as u32;
        let ng = (z / cfg.kblocks()) as usize;
        let kb = (z % cfg.kblocks()) as usize;
        for kl in 0..cfg.bk as usize {
            let kk = kb * cfg.bk as usize + kl;
            for dy in 0..2usize {
                let y = 2 * hx + dy;
                if y >= h {
                    continue;
                }
                for dx in 0..2usize {
                    let x = 2 * wx + dx;
                    if x >= w {
                        continue;
                    }
                    for nl in 0..32usize {
                        let nn = ng * 32 + nl;
                        let idx = ((kk * h + y) * w + x) * n + nn;
                        let (a, bv) = (want[idx], got[idx]);
                        assert!(
                            (a - bv).abs() <= 1e-3 + 1e-3 * a.abs().max(bv.abs()),
                            "block {b} out[{kk},{y},{x},{nn}] = {bv} vs {a} — schedule hazard (poison leak)?"
                        );
                        checked += 1;
                    }
                }
            }
        }
    }
    assert!(checked > 1000, "checked only {checked} elements");
}

#[test]
fn fused_b64_schedule_is_hazard_free_dynamically() {
    strict_case(FusedConfig::ours(32, 12, 12, 32, 64), 3);
}

#[test]
fn fused_b64_odd_shape_schedule() {
    strict_case(FusedConfig::ours(16, 7, 7, 32, 64), 4);
}

#[test]
fn fused_b64_deep_channels_schedule() {
    strict_case(FusedConfig::ours(64, 12, 12, 32, 64), 5);
}

#[test]
fn cudnn_like_chwn_variant_schedule() {
    // The compact bk=32 layout with CHWN input (its schedule machinery is
    // shared with the NCHW flavour; the harness feeds CHWN).
    let mut cfg = FusedConfig::cudnn_like(32, 12, 12, 32, 64);
    cfg.input_nchw = false;
    strict_case(cfg, 6);
}

#[test]
fn filter_transform_schedule_is_hazard_free() {
    // Grid sized to one simulated wave so the strict pass executes every
    // block functionally. Residency is capped at ceil(total/SMs), so a
    // multi-block grid on V100 would spread across SMs and the one-wave
    // path would only run one block — a single-block grid keeps the
    // whole-grid comparison against the functional launcher.
    let (c, k) = (4u32, 64u32); // 1 block
    let len = (c * 9 * k) as usize;
    let mut rng = XorShiftRng::new(12);
    let filt: Vec<f32> = (0..len).map(|_| rng.gen_range(-1.0, 1.0)).collect();
    let fx = emit_filter_transform(c, k);
    let run = |strict: bool| -> Vec<f32> {
        let mut gpu = Gpu::new(DeviceSpec::v100(), 1 << 24);
        let d_in = gpu.alloc_upload_f32(&filt);
        let d_tf = gpu.alloc((c * 16 * k) as u64 * 4);
        let params = filter_transform::params(d_in, d_tf);
        let dims = filter_transform::launch_dims(c, k);
        if strict {
            gpusim::simulate(
                &mut gpu,
                &fx,
                dims,
                &params,
                Model::OneWave,
                TimingOptions {
                    strict_writeback: true,
                    ..Default::default()
                },
            )
            .unwrap();
        } else {
            gpu.launch(&fx, dims, &params).unwrap();
        }
        gpu.mem.download_f32(d_tf, (c * 16 * k) as usize).unwrap()
    };
    assert_eq!(run(true), run(false), "FX schedule hazard");
}

#[test]
fn gemm_schedule_is_hazard_free_dynamically() {
    let cfg = GemmConfig::new(64, 128, 64);
    let kern = GemmKernel::emit(cfg);
    let (m, n, kd) = (64usize, 128usize, 64usize);
    let mut rng = XorShiftRng::new(9);
    let at: Vec<f32> = (0..kd * m).map(|_| rng.gen_range(-1.0, 1.0)).collect();
    let b: Vec<f32> = (0..kd * n).map(|_| rng.gen_range(-1.0, 1.0)).collect();
    let mut gpu = Gpu::new(DeviceSpec::v100(), 1 << 24);
    let da = gpu.alloc_upload_f32(&at);
    let db = gpu.alloc_upload_f32(&b);
    let dc = gpu.alloc((m * n) as u64 * 4);
    gpusim::simulate(
        &mut gpu,
        &kern.module,
        kern.launch_dims(),
        &kern.params(da, db, dc),
        Model::OneWave,
        TimingOptions {
            strict_writeback: true,
            ..Default::default()
        },
    )
    .unwrap();
    let got = gpu.mem.download_f32(dc, m * n).unwrap();
    for i in 0..m {
        for j in 0..n {
            let mut want = 0.0f32;
            for kk2 in 0..kd {
                want += at[kk2 * m + i] * b[kk2 * n + j];
            }
            let g = got[i * n + j];
            assert!(
                (g - want).abs() <= 1e-3 + 1e-3 * want.abs(),
                "C[{i}][{j}] = {g} vs {want} — schedule hazard?"
            );
        }
    }
}
