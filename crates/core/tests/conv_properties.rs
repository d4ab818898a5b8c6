//! Property tests on the algorithm layer: for random shapes and data, every
//! convolution algorithm agrees with the direct reference; the Winograd
//! transforms satisfy their algebraic identities.
//!
//! Randomized with the workspace's deterministic `XorShiftRng` (the registry
//! is not reachable from the build environment, so `proptest` is off-limits);
//! shapes print on failure for reproduction.

use tensor::{allclose, LayoutKind, Tensor4, XorShiftRng};
use wino_core::im2col::im2col;
use wino_core::transforms::{Mat, Variant};
use wino_core::winograd_host::conv2d_winograd;
use wino_core::{conv2d_direct, ConvProblem};

/// Plain row-major SGEMM: `C[m×n] = A[m×k] × B[k×n]`.
fn sgemm(m: usize, n: usize, k: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    assert_eq!(a.len(), m * k);
    assert_eq!(b.len(), k * n);
    assert_eq!(c.len(), m * n);
    for i in 0..m {
        for kk in 0..k {
            let av = a[i * k + kk];
            if av == 0.0 {
                continue;
            }
            let brow = &b[kk * n..(kk + 1) * n];
            let crow = &mut c[i * n..(i + 1) * n];
            for j in 0..n {
                crow[j] += av * brow[j];
            }
        }
    }
}

/// GEMM-based convolution on the host: `O[K × (N·OH·OW)] = F[K × CRS] ×
/// im2col(I)`, the structure of cuDNN's `GEMM` algorithm.
fn conv2d_gemm(p: &ConvProblem, input: &Tensor4, filter: &Tensor4) -> Tensor4 {
    assert_eq!(filter.kind(), LayoutKind::Kcrs);
    let (oh, ow) = (p.out_h(), p.out_w());
    let cols = p.n * oh * ow;
    let crs = p.c * p.r * p.s;
    let b = im2col(p, input);
    let mut c = vec![0.0f32; p.k * cols];
    sgemm(p.k, cols, crs, filter.as_slice(), &b, &mut c);
    // Repack K × (N,OH,OW) into NCHW (K plays the channel role).
    let mut out = Tensor4::zeros(LayoutKind::Nchw, [p.n, p.k, oh, ow]);
    for k in 0..p.k {
        for n in 0..p.n {
            for y in 0..oh {
                for x in 0..ow {
                    out.set([n, k, y, x], c[k * cols + (n * oh + y) * ow + x]);
                }
            }
        }
    }
    out
}

fn arb_problem(r: &mut XorShiftRng) -> ConvProblem {
    // Host-only shapes (no GPU-path alignment constraints).
    ConvProblem {
        n: 1 + r.gen_index(2),
        c: 1 + r.gen_index(5),
        h: 3 + r.gen_index(9),
        w: 3 + r.gen_index(9),
        k: 1 + r.gen_index(5),
        r: 3,
        s: 3,
        pad: 1,
    }
}

fn random_pair(p: &ConvProblem, seed: u64) -> (Tensor4, Tensor4) {
    (
        Tensor4::random(LayoutKind::Nchw, [p.n, p.c, p.h, p.w], -1.0, 1.0, seed),
        Tensor4::random(LayoutKind::Kcrs, [p.k, p.c, 3, 3], -1.0, 1.0, seed + 1),
    )
}

#[test]
fn winograd_f2_matches_direct() {
    let mut rng = XorShiftRng::new(0xF2F2_0001);
    for case in 0..24 {
        let p = arb_problem(&mut rng);
        let seed = 1 + rng.next_u64() % 1000;
        let (input, filter) = random_pair(&p, seed);
        let want = conv2d_direct(&p, &input, &filter);
        let got = conv2d_winograd(&p, &input, &filter, Variant::F2x2);
        assert!(
            allclose(want.as_slice(), got.as_slice(), 1e-3, 1e-3),
            "case {case}: {p:?} seed {seed}"
        );
    }
}

#[test]
fn winograd_f4_matches_direct() {
    let mut rng = XorShiftRng::new(0xF4F4_0002);
    for case in 0..24 {
        let p = arb_problem(&mut rng);
        let seed = 1 + rng.next_u64() % 1000;
        let (input, filter) = random_pair(&p, seed);
        let want = conv2d_direct(&p, &input, &filter);
        let got = conv2d_winograd(&p, &input, &filter, Variant::F4x4);
        assert!(
            allclose(want.as_slice(), got.as_slice(), 5e-3, 5e-3),
            "case {case}: {p:?} seed {seed}"
        );
    }
}

#[test]
fn gemm_conv_matches_direct() {
    let mut rng = XorShiftRng::new(0x6E77_0003);
    for case in 0..24 {
        let p = arb_problem(&mut rng);
        let seed = 1 + rng.next_u64() % 1000;
        let (input, filter) = random_pair(&p, seed);
        let want = conv2d_direct(&p, &input, &filter);
        let got = conv2d_gemm(&p, &input, &filter);
        assert!(
            allclose(want.as_slice(), got.as_slice(), 1e-3, 1e-3),
            "case {case}: {p:?} seed {seed}"
        );
    }
}

#[test]
fn gemm_conv_matches_direct_on_pinned_shapes() {
    for (n, c, hw, k) in [(1, 3, 5, 2), (2, 4, 8, 4), (1, 1, 7, 1)] {
        let p = ConvProblem::resnet3x3(n, c, hw, k);
        let input = Tensor4::random(LayoutKind::Nchw, [n, c, hw, hw], -1.0, 1.0, 21);
        let filter = Tensor4::random(LayoutKind::Kcrs, [k, c, 3, 3], -1.0, 1.0, 22);
        let want = conv2d_direct(&p, &input, &filter);
        let got = conv2d_gemm(&p, &input, &filter);
        assert!(
            allclose(want.as_slice(), got.as_slice(), 1e-4, 1e-4),
            "({n},{c},{hw},{k})"
        );
    }
}

#[test]
fn gemm_conv_no_padding() {
    let p = ConvProblem {
        n: 1,
        c: 2,
        h: 6,
        w: 6,
        k: 3,
        r: 3,
        s: 3,
        pad: 0,
    };
    let input = Tensor4::random(LayoutKind::Nchw, [1, 2, 6, 6], -1.0, 1.0, 31);
    let filter = Tensor4::random(LayoutKind::Kcrs, [3, 2, 3, 3], -1.0, 1.0, 32);
    let want = conv2d_direct(&p, &input, &filter);
    let got = conv2d_gemm(&p, &input, &filter);
    assert!(allclose(want.as_slice(), got.as_slice(), 1e-4, 1e-4));
}

#[test]
fn sgemm_small_known_values() {
    let a = [1.0, 2.0, 3.0, 4.0];
    let b = [5.0, 6.0, 7.0, 8.0];
    let mut c = [0.0; 4];
    sgemm(2, 2, 2, &a, &b, &mut c);
    assert_eq!(c, [19.0, 22.0, 43.0, 50.0]);
}

/// The defining Winograd identity on random single tiles:
/// `Aᵀ[(G f Gᵀ) ⊙ (Bᵀ d B)]A == direct 2-D correlation`, all variants.
#[test]
fn tile_identity_holds() {
    let mut seeds = XorShiftRng::new(0x71DE_0004);
    for case in 0..24 {
        let seed = 1 + seeds.next_u64() % 10_000;
        for v in [Variant::F2x2, Variant::F4x4, Variant::F6x6] {
            let tr = v.transform();
            let t = tr.t;
            let mut rng = XorShiftRng::new(seed);
            let d = Mat::new(t, t, (0..t * t).map(|_| rng.gen_range(-1.0, 1.0)).collect());
            let f = Mat::new(3, 3, (0..9).map(|_| rng.gen_range(-1.0, 1.0)).collect());
            let tf = tr.filter_tile(&f);
            let ti = tr.input_tile(&d);
            let mut prod = Mat::zeros(t, t);
            for i in 0..t * t {
                prod.data[i] = tf.data[i] * ti.data[i];
            }
            let out = tr.output_tile(&prod);
            for y in 0..tr.m {
                for x in 0..tr.m {
                    let mut want = 0.0f32;
                    for r in 0..3 {
                        for s in 0..3 {
                            want += d.at(y + r, x + s) * f.at(r, s);
                        }
                    }
                    let tol = 1e-2f32.max(want.abs() * 1e-2);
                    assert!(
                        (out.at(y, x) - want).abs() < tol,
                        "case {case} {v:?} seed {seed} ({y},{x}): {} vs {want}",
                        out.at(y, x)
                    );
                }
            }
        }
    }
}

/// FFT convolution agrees with direct for random pow-2-friendly shapes.
#[test]
fn fft_conv_matches_direct() {
    let mut rng = XorShiftRng::new(0xFF70_0005);
    for case in 0..24 {
        let hw = 4 + rng.gen_index(6);
        let c = 1 + rng.gen_index(3);
        let seed = 1 + rng.next_u64() % 1000;
        let p = ConvProblem {
            n: 1,
            c,
            h: hw,
            w: hw,
            k: 2,
            r: 3,
            s: 3,
            pad: 1,
        };
        let input = Tensor4::random(LayoutKind::Nchw, [1, c, hw, hw], -1.0, 1.0, seed);
        let filter = Tensor4::random(LayoutKind::Kcrs, [2, c, 3, 3], -1.0, 1.0, seed + 1);
        let want = conv2d_direct(&p, &input, &filter);
        let got = wino_core::fft::conv2d_fft(&p, &input, &filter);
        assert!(
            allclose(want.as_slice(), got.as_slice(), 1e-3, 1e-3),
            "case {case}: hw={hw} c={c} seed {seed}"
        );
    }
}

/// The GPU fused kernel agrees with the reference over randomized *aligned*
/// shapes (the kernel's documented constraints: C%8, N%32, K%bk).
#[test]
fn gpu_fused_kernel_matches_direct() {
    let mut rng = XorShiftRng::new(0x6F05_0006);
    for case in 0..6 {
        let c8 = 1 + rng.gen_index(2);
        let hw = 4 + rng.gen_index(5);
        let kb = 1 + rng.gen_index(2);
        let seed = 1 + rng.next_u64() % 100;
        let p = ConvProblem::resnet3x3(32, c8 * 8, hw, kb * 64);
        let (input, filter) = random_pair(&p, seed);
        let want = conv2d_direct(&p, &input, &filter);
        let conv = wino_core::Conv::new(p, gpusim::DeviceSpec::v100());
        let got = conv.run(wino_core::Algo::OursFused, &input, &filter);
        assert!(
            allclose(want.as_slice(), got.output.as_slice(), 1e-3, 1e-3),
            "case {case}: {p:?} seed {seed}"
        );
    }
}
