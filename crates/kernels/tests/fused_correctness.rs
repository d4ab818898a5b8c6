//! End-to-end functional correctness of the fused Winograd kernel: host
//! data → filter-transform kernel → fused kernel on the simulator → compare
//! against a direct-convolution reference, over a range of shapes including
//! ragged edges (odd H/W), multiple k-blocks and batch groups, both cache
//! block sizes, and the no-P2R variant.

use gpusim::{DeviceSpec, Gpu};
use kernels::filter_transform::{self, emit_filter_transform};
use kernels::{FusedConfig, FusedKernel};
use tensor::XorShiftRng;

struct Problem {
    c: usize,
    h: usize,
    w: usize,
    n: usize,
    k: usize,
}

/// Direct convolution reference (3×3, pad 1, stride 1).
/// input CHWN layout, filter CRSK layout, output KHWN layout.
fn reference(p: &Problem, input: &[f32], filter: &[f32]) -> Vec<f32> {
    let (c_d, h_d, w_d, n_d, k_d) = (p.c, p.h, p.w, p.n, p.k);
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

fn run_case(cfg: FusedConfig, seed: u64) {
    let p = Problem {
        c: cfg.c as usize,
        h: cfg.h as usize,
        w: cfg.w as usize,
        n: cfg.n as usize,
        k: cfg.k as usize,
    };
    let mut rng = XorShiftRng::new(seed);
    let input: Vec<f32> = (0..p.c * p.h * p.w * p.n)
        .map(|_| rng.gen_range(-1.0, 1.0))
        .collect();
    let filter: Vec<f32> = (0..p.c * 9 * p.k)
        .map(|_| rng.gen_range(-1.0, 1.0))
        .collect();
    let want = reference(&p, &input, &filter);

    // The kernel reads CHWN (ours) or NCHW (cuDNN-like, §7).
    let dev_input: Vec<f32> = if cfg.input_nchw {
        let mut v = vec![0.0f32; input.len()];
        for c in 0..p.c {
            for y in 0..p.h {
                for x in 0..p.w {
                    for n in 0..p.n {
                        v[((n * p.c + c) * p.h + y) * p.w + x] =
                            input[((c * p.h + y) * p.w + x) * p.n + n];
                    }
                }
            }
        }
        v
    } else {
        input.clone()
    };

    let mut gpu = Gpu::new(DeviceSpec::v100(), 1 << 28);
    let d_in = gpu.alloc_upload_f32(&dev_input);
    let d_filt = gpu.alloc_upload_f32(&filter);
    let d_tf = gpu.alloc((p.c * 16 * p.k) as u64 * 4);
    let d_out = gpu.alloc((p.k * p.h * p.w * p.n) as u64 * 4);

    // Phase 1: filter transform.
    let fx = emit_filter_transform(cfg.c, cfg.k);
    let fx_dims = filter_transform::launch_dims(cfg.c, cfg.k);
    gpu.launch_parallel(&fx, fx_dims, &filter_transform::params(d_filt, d_tf))
        .expect("filter transform");

    // Phase 2: fused Winograd.
    let kern = FusedKernel::emit(cfg);
    let params = kern.params(d_in, d_tf, d_out);
    gpu.launch_parallel(&kern.module, kern.launch_dims(), &params)
        .unwrap_or_else(|e| panic!("fused kernel failed: {e}"));

    let raw = gpu.mem.download_f32(d_out, p.k * p.h * p.w * p.n).unwrap();
    // NCHW-path kernels write NCHW output; normalize to KHWN for compare.
    let got: Vec<f32> = if cfg.input_nchw {
        let mut v = vec![0.0f32; raw.len()];
        for n in 0..p.n {
            for k in 0..p.k {
                for y in 0..p.h {
                    for x in 0..p.w {
                        v[((k * p.h + y) * p.w + x) * p.n + n] =
                            raw[((n * p.k + k) * p.h + y) * p.w + x];
                    }
                }
            }
        }
        v
    } else {
        raw
    };
    let rep = tensor::compare(&want, &got, 1e-3, 1e-3);
    assert!(
        rep.num_bad == 0,
        "bk={} c={} h={}x{} n={} k={} p2r={}: {rep}",
        cfg.bk,
        cfg.c,
        cfg.h,
        cfg.w,
        cfg.n,
        cfg.k,
        cfg.use_p2r
    );
}

#[test]
fn ours_small_even() {
    run_case(FusedConfig::ours(8, 8, 8, 32, 64), 1);
}

#[test]
fn ours_odd_hw() {
    // Ragged tile edges exercise the zero-padding masks and the guarded
    // output stores (Conv5-style 7×7).
    run_case(FusedConfig::ours(8, 7, 7, 32, 64), 2);
}

#[test]
fn ours_multi_kblock_and_ngroup() {
    run_case(FusedConfig::ours(8, 6, 6, 64, 128), 3);
}

#[test]
fn ours_deep_channels() {
    run_case(FusedConfig::ours(32, 4, 4, 32, 64), 4);
}

#[test]
fn ours_rect_image() {
    run_case(FusedConfig::ours(8, 5, 9, 32, 64), 5);
}

#[test]
fn cudnn_like_small() {
    run_case(FusedConfig::cudnn_like(8, 8, 8, 32, 32), 6);
}

#[test]
fn cudnn_like_odd() {
    run_case(FusedConfig::cudnn_like(8, 7, 7, 32, 64), 7);
}

#[test]
fn no_p2r_variant_matches() {
    let mut cfg = FusedConfig::ours(8, 7, 7, 32, 64);
    cfg.use_p2r = false;
    run_case(cfg, 8);
}

#[test]
fn resnet_conv5_shape() {
    // The real Conv5 layer at reduced channel depth (full C=512 is covered
    // by the slower release-mode benches).
    run_case(FusedConfig::ours(16, 7, 7, 32, 512), 9);
}

#[test]
fn ours_nchw_port_matches() {
    // §8.4: the kernel ported to NCHW layout (spatial tile partitioning).
    run_case(FusedConfig::ours_nchw(8, 7, 7, 32, 64), 10);
    run_case(FusedConfig::ours_nchw(16, 10, 10, 32, 128), 11);
}
