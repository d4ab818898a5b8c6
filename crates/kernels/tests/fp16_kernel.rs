//! The §8.3 fp16 port: correctness of the half2 data path against an f32
//! reference (at fp16 tolerance), and the 2× throughput claim on the
//! timing model.

use gpusim::{DeviceSpec, Gpu, Model, TimingOptions};
use kernels::{FusedConfig, FusedKernel};
use sass::half::{f16_to_f32, f32_to_f16, pack_half2};
use tensor::XorShiftRng;

// Host-side packing for the fp16 kernel. It reads f16 data packed
// two-batches-per-word: a CHWN f32 tensor with N batches becomes a
// CHW×(N/2) array of `half2` words where word `i` holds batches `2i` (low
// half) and `2i+1` (high half), which is simply the f16 CHWN array viewed
// 32 bits at a time. The transformed filter uses *duplicated* half2
// (`(f, f)`): the two halves of every register are two batches sharing one
// filter value.

/// Pack an f32 slice into half2 words (`data.len()` must be even): element
/// pairs `(2i, 2i+1)` share word `i`.
fn pack_f16_pairs(data: &[f32]) -> Vec<u32> {
    assert_eq!(
        data.len() % 2,
        0,
        "fp16 packing requires an even element count"
    );
    data.chunks_exact(2)
        .map(|p| pack_half2(p[0], p[1]))
        .collect()
}

/// Unpack half2 words back to f32.
fn unpack_f16_pairs(words: &[u32]) -> Vec<f32> {
    let mut out = Vec::with_capacity(words.len() * 2);
    for &w in words {
        out.push(f16_to_f32(w as u16));
        out.push(f16_to_f32((w >> 16) as u16));
    }
    out
}

/// Duplicate each f32 value into both halves of a half2 word (the fp16
/// kernel's transformed-filter format).
fn pack_f16_duplicated(data: &[f32]) -> Vec<u32> {
    data.iter()
        .map(|&v| {
            let h = f32_to_f16(v) as u32;
            h | (h << 16)
        })
        .collect()
}

#[test]
fn pair_round_trip() {
    let v = vec![0.5f32, -1.25, 3.0, 0.0];
    assert_eq!(unpack_f16_pairs(&pack_f16_pairs(&v)), v);
}

#[test]
fn duplicated_filter_format() {
    let w = pack_f16_duplicated(&[1.5]);
    assert_eq!(w[0] & 0xffff, w[0] >> 16);
    assert_eq!(f16_to_f32(w[0] as u16), 1.5);
}

#[test]
#[should_panic(expected = "even element count")]
fn odd_length_rejected() {
    let _ = pack_f16_pairs(&[1.0]);
}

/// Direct convolution on data pre-rounded to f16 (the inputs the kernel
/// actually sees), accumulated in f32.
#[allow(clippy::too_many_arguments)]
fn reference_f16(
    c: usize,
    h: usize,
    w: usize,
    n: usize,
    k: usize,
    input: &[f32],
    tf_dup: &[f32],
    filter: &[f32],
) -> Vec<f32> {
    let _ = tf_dup;
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

/// Host filter transform G f Gᵀ (f32), producing the (C,4,4,K) layout.
fn host_tf(c: usize, k: usize, filter: &[f32]) -> Vec<f32> {
    let g: [[f32; 3]; 4] = [
        [1.0, 0.0, 0.0],
        [0.5, 0.5, 0.5],
        [0.5, -0.5, 0.5],
        [0.0, 0.0, 1.0],
    ];
    let mut tf = vec![0.0f32; c * 16 * k];
    for cc in 0..c {
        for kk in 0..k {
            let mut f = [[0.0f32; 3]; 3];
            for r in 0..3 {
                for s in 0..3 {
                    f[r][s] = filter[((cc * 3 + r) * 3 + s) * k + kk];
                }
            }
            for i in 0..4 {
                for j in 0..4 {
                    let mut v = 0.0;
                    for a in 0..3 {
                        for b in 0..3 {
                            v += g[i][a] * f[a][b] * g[j][b];
                        }
                    }
                    tf[(cc * 16 + i * 4 + j) * k + kk] = v;
                }
            }
        }
    }
    tf
}

#[test]
fn fp16_kernel_matches_reference() {
    let cfg = FusedConfig::ours_fp16(8, 8, 8, 64, 64);
    let (c, h, w, n, k) = (8usize, 8, 8, 64, 64);
    let mut rng = XorShiftRng::new(21);
    // Generate data, then round through f16 so the reference sees exactly
    // what the kernel sees.
    let raw_in: Vec<f32> = (0..c * h * w * n)
        .map(|_| rng.gen_range(-1.0, 1.0))
        .collect();
    let input = unpack_f16_pairs(&pack_f16_pairs(&raw_in));
    let filter: Vec<f32> = (0..c * 9 * k).map(|_| rng.gen_range(-1.0, 1.0)).collect();
    let tf = host_tf(c, k, &filter);
    let tf_rounded: Vec<f32> = tf
        .iter()
        .map(|&v| sass::half::f16_to_f32(sass::half::f32_to_f16(v)))
        .collect();
    let want = reference_f16(c, h, w, n, k, &input, &tf_rounded, &filter);

    let kern = FusedKernel::emit(cfg);
    assert!(kern.module.info.num_regs <= 253);
    let mut gpu = Gpu::new(DeviceSpec::v100(), 1 << 26);
    // Upload as raw u32 words via the f32 channel (bit reinterpretation).
    let in_words = pack_f16_pairs(&input);
    let d_in = gpu.alloc_upload_f32(
        &in_words
            .iter()
            .map(|&w| f32::from_bits(w))
            .collect::<Vec<_>>(),
    );
    let tf_words = pack_f16_duplicated(&tf);
    let d_tf = gpu.alloc_upload_f32(
        &tf_words
            .iter()
            .map(|&w| f32::from_bits(w))
            .collect::<Vec<_>>(),
    );
    let d_out = gpu.alloc((k * h * w * n / 2) as u64 * 4);
    let params = kern.params(d_in, d_tf, d_out);
    gpu.launch_parallel(&kern.module, kern.launch_dims(), &params)
        .expect("fp16 kernel");

    let out_words: Vec<u32> = gpu
        .mem
        .download_f32(d_out, k * h * w * n / 2)
        .unwrap()
        .iter()
        .map(|v| v.to_bits())
        .collect();
    let got = unpack_f16_pairs(&out_words);

    // fp16 accumulate over C·9 = 72 MACs of O(1) values: tolerance ~0.1.
    let mut worst = 0.0f32;
    for i in 0..want.len() {
        worst = worst.max((want[i] - got[i]).abs());
        assert!(
            (want[i] - got[i]).abs() < 0.25,
            "idx {i}: {} vs {}",
            got[i],
            want[i]
        );
    }
    assert!(worst < 0.25, "worst abs err {worst}");
}

#[test]
fn fp16_doubles_mainloop_throughput() {
    // §8.3: same schedule, twice the element FLOPs per instruction.
    let dev = DeviceSpec::rtx2070();
    let mut f32cfg = FusedConfig::ours(64, 28, 28, 32, 64);
    f32cfg.main_loop_only = true;
    let mut f16cfg = FusedConfig::ours_fp16(64, 28, 28, 64, 64);
    f16cfg.main_loop_only = true;

    let run = |cfg: FusedConfig| {
        let kern = FusedKernel::emit(cfg);
        let mut gpu = Gpu::new(dev.clone(), 1 << 28);
        let d_in = gpu.alloc(1 << 24);
        let d_tf = gpu.alloc(1 << 22);
        let d_out = gpu.alloc(1 << 24);
        let params = kern.params(d_in, d_tf, d_out);
        let t = gpusim::simulate(
            &mut gpu,
            &kern.module,
            kern.launch_dims(),
            &params,
            Model::OneWave,
            TimingOptions {
                region: Some(kern.region),
                ..Default::default()
            },
        )
        .unwrap()
        .0;
        t.region_tflops(&dev, cfg.mainloop_flops_per_block())
    };
    let tf32 = run(f32cfg);
    let tf16 = run(f16cfg);
    let ratio = tf16 / tf32;
    assert!(
        (1.7..2.3).contains(&ratio),
        "fp16/fp32 main-loop ratio {ratio} (f32 {tf32}, f16 {tf16})"
    );
}

#[test]
fn fp16_kernel_lints_clean() {
    let kern = FusedKernel::emit(FusedConfig::ours_fp16(64, 28, 28, 64, 64));
    let d = sass::lint(&kern.module.insts);
    assert!(
        d.is_empty(),
        "{} hazards, first {:?}",
        d.len(),
        d.first().map(|x| x.to_string())
    );
}
