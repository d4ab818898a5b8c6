//! Host (CPU) Winograd convolution — the algorithmic reference for the SASS
//! kernels, generic over the `F(m×m, 3×3)` variant.
//!
//! Both execution styles of the paper are implemented:
//!
//! * [`conv2d_winograd`] — *fused* semantics: per tile, transform → EWMM
//!   accumulation over channels → inverse transform, nothing spilled (§3.1);
//! * [`NonFusedPipeline`] — the cuDNN `WINOGRAD_NONFUSED` structure (§7.3):
//!   explicit transformed-input / transformed-filter / transformed-output
//!   arrays in "global memory" with a batched GEMM between them, so its
//!   workspace and memory traffic can be measured (§8.1's model).

use crate::reference::ConvProblem;
use crate::transforms::{Mat, Variant};
use tensor::{LayoutKind, Tensor4};

/// Fused Winograd convolution. Input NCHW, filter KCRS, output NCHW.
pub fn conv2d_winograd(p: &ConvProblem, input: &Tensor4, filter: &Tensor4, v: Variant) -> Tensor4 {
    assert_eq!((p.r, p.s), (3, 3), "Winograd path supports 3×3 filters");
    let tr = v.transform();
    let (m, t) = (tr.m, tr.t);
    let (oh, ow) = (p.out_h(), p.out_w());
    let tiles_h = oh.div_ceil(m);
    let tiles_w = ow.div_ceil(m);
    let mut out = Tensor4::zeros(LayoutKind::Nchw, [p.n, p.k, oh, ow]);

    // Pre-transform all filters: K×C tiles of t×t.
    let mut tf = vec![0.0f32; p.k * p.c * t * t];
    let mut ftile = Mat::zeros(3, 3);
    for k in 0..p.k {
        for c in 0..p.c {
            for r in 0..3 {
                for s in 0..3 {
                    ftile.set(r, s, filter.get([k, c, r, s]));
                }
            }
            let f = tr.filter_tile(&ftile);
            tf[(k * p.c + c) * t * t..(k * p.c + c + 1) * t * t].copy_from_slice(&f.data);
        }
    }

    let mut itile = Mat::zeros(t, t);
    for n in 0..p.n {
        for th in 0..tiles_h {
            for twi in 0..tiles_w {
                // Transform the input tile once per channel, accumulate per k.
                let mut acc = vec![0.0f32; p.k * t * t];
                for c in 0..p.c {
                    for dy in 0..t {
                        for dx in 0..t {
                            let iy = (th * m + dy) as isize - p.pad as isize;
                            let ix = (twi * m + dx) as isize - p.pad as isize;
                            let v =
                                if iy >= 0 && (iy as usize) < p.h && ix >= 0 && (ix as usize) < p.w
                                {
                                    input.get([n, c, iy as usize, ix as usize])
                                } else {
                                    0.0
                                };
                            itile.set(dy, dx, v);
                        }
                    }
                    let ti = tr.input_tile(&itile);
                    for k in 0..p.k {
                        let f = &tf[(k * p.c + c) * t * t..(k * p.c + c + 1) * t * t];
                        let a = &mut acc[k * t * t..(k + 1) * t * t];
                        for e in 0..t * t {
                            a[e] += ti.data[e] * f[e];
                        }
                    }
                }
                for k in 0..p.k {
                    let o =
                        tr.output_tile(&Mat::new(t, t, acc[k * t * t..(k + 1) * t * t].to_vec()));
                    for dy in 0..m {
                        for dx in 0..m {
                            let oy = th * m + dy;
                            let ox = twi * m + dx;
                            if oy < oh && ox < ow {
                                out.set([n, k, oy, ox], o.at(dy, dx));
                            }
                        }
                    }
                }
            }
        }
    }
    out
}

/// Non-fused Winograd (cuDNN `WINOGRAD_NONFUSED` structure): materializes the
/// transformed arrays, exposing the workspace size and memory traffic the
/// paper models in §8.1.
pub struct NonFusedPipeline {
    pub variant: Variant,
    /// Transformed input elements (`t² × C × tiles`).
    pub transformed_input_len: usize,
    /// Transformed filter elements (`t² × C × K`).
    pub transformed_filter_len: usize,
    /// Pre-transform output elements (`t² × K × tiles`).
    pub transformed_output_len: usize,
}

impl NonFusedPipeline {
    pub fn plan(p: &ConvProblem, v: Variant) -> Self {
        let tr = v.transform();
        let tiles = p.out_h().div_ceil(tr.m) * p.out_w().div_ceil(tr.m) * p.n;
        NonFusedPipeline {
            variant: v,
            transformed_input_len: tr.t * tr.t * p.c * tiles,
            transformed_filter_len: tr.t * tr.t * p.c * p.k,
            transformed_output_len: tr.t * tr.t * p.k * tiles,
        }
    }

    /// Workspace bytes (float32) for the intermediate arrays.
    pub fn workspace_bytes(&self) -> u64 {
        4 * (self.transformed_input_len + self.transformed_filter_len + self.transformed_output_len)
            as u64
    }

    /// Run the three phases on the host. Returns the output and, as a check
    /// on the phase decomposition, performs the EWMM phase as `t²` batched
    /// GEMMs exactly like the GPU pipeline would.
    pub fn run(&self, p: &ConvProblem, input: &Tensor4, filter: &Tensor4) -> Tensor4 {
        let tr = self.variant.transform();
        let (m, t) = (tr.m, tr.t);
        let (oh, ow) = (p.out_h(), p.out_w());
        let tiles_h = oh.div_ceil(m);
        let tiles_w = ow.div_ceil(m);
        let tiles = tiles_h * tiles_w * p.n;

        // Phase 1a: filter transform → U[e][k][c].
        let mut u = vec![0.0f32; t * t * p.k * p.c];
        let mut ftile = Mat::zeros(3, 3);
        for k in 0..p.k {
            for c in 0..p.c {
                for r in 0..3 {
                    for s in 0..3 {
                        ftile.set(r, s, filter.get([k, c, r, s]));
                    }
                }
                let f = tr.filter_tile(&ftile);
                for e in 0..t * t {
                    u[(e * p.k + k) * p.c + c] = f.data[e];
                }
            }
        }

        // Phase 1b: input transform → V[e][c][tile].
        let mut vbuf = vec![0.0f32; t * t * p.c * tiles];
        let mut itile = Mat::zeros(t, t);
        for n in 0..p.n {
            for th in 0..tiles_h {
                for twi in 0..tiles_w {
                    let tile = (n * tiles_h + th) * tiles_w + twi;
                    for c in 0..p.c {
                        for dy in 0..t {
                            for dx in 0..t {
                                let iy = (th * m + dy) as isize - p.pad as isize;
                                let ix = (twi * m + dx) as isize - p.pad as isize;
                                let v = if iy >= 0
                                    && (iy as usize) < p.h
                                    && ix >= 0
                                    && (ix as usize) < p.w
                                {
                                    input.get([n, c, iy as usize, ix as usize])
                                } else {
                                    0.0
                                };
                                itile.set(dy, dx, v);
                            }
                        }
                        let ti = tr.input_tile(&itile);
                        for e in 0..t * t {
                            vbuf[(e * p.c + c) * tiles + tile] = ti.data[e];
                        }
                    }
                }
            }
        }

        // Phase 2: t² batched GEMMs — M[e] = U[e] (K×C) × V[e] (C×tiles).
        let mut mbuf = vec![0.0f32; t * t * p.k * tiles];
        for e in 0..t * t {
            let ue = &u[e * p.k * p.c..(e + 1) * p.k * p.c];
            let ve = &vbuf[e * p.c * tiles..(e + 1) * p.c * tiles];
            let me = &mut mbuf[e * p.k * tiles..(e + 1) * p.k * tiles];
            for k in 0..p.k {
                for c in 0..p.c {
                    let a = ue[k * p.c + c];
                    if a == 0.0 {
                        continue;
                    }
                    let vrow = &ve[c * tiles..(c + 1) * tiles];
                    let mrow = &mut me[k * tiles..(k + 1) * tiles];
                    for ti2 in 0..tiles {
                        mrow[ti2] += a * vrow[ti2];
                    }
                }
            }
        }

        // Phase 3: output transform.
        let mut out = Tensor4::zeros(LayoutKind::Nchw, [p.n, p.k, oh, ow]);
        for n in 0..p.n {
            for th in 0..tiles_h {
                for twi in 0..tiles_w {
                    let tile = (n * tiles_h + th) * tiles_w + twi;
                    for k in 0..p.k {
                        let mut acc = Mat::zeros(t, t);
                        for e in 0..t * t {
                            acc.data[e] = mbuf[(e * p.k + k) * tiles + tile];
                        }
                        let o = tr.output_tile(&acc);
                        for dy in 0..m {
                            for dx in 0..m {
                                let oy = th * m + dy;
                                let ox = twi * m + dx;
                                if oy < oh && ox < ow {
                                    out.set([n, k, oy, ox], o.at(dy, dx));
                                }
                            }
                        }
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::conv2d_direct;
    use tensor::allclose;

    fn check_variant(v: Variant, p: ConvProblem, tol: f32) {
        let input = Tensor4::random(LayoutKind::Nchw, [p.n, p.c, p.h, p.w], -1.0, 1.0, 7);
        let filter = Tensor4::random(LayoutKind::Kcrs, [p.k, p.c, 3, 3], -1.0, 1.0, 8);
        let want = conv2d_direct(&p, &input, &filter);
        let got = conv2d_winograd(&p, &input, &filter, v);
        assert!(
            allclose(want.as_slice(), got.as_slice(), tol, tol),
            "{v:?} {p:?}: {}",
            tensor::compare(want.as_slice(), got.as_slice(), tol, tol),
        );
    }

    #[test]
    fn f2_matches_direct() {
        check_variant(Variant::F2x2, ConvProblem::resnet3x3(2, 4, 8, 4), 1e-4);
    }

    #[test]
    fn f4_matches_direct() {
        check_variant(Variant::F4x4, ConvProblem::resnet3x3(1, 4, 12, 4), 1e-3);
    }

    #[test]
    fn f6_matches_direct() {
        check_variant(Variant::F6x6, ConvProblem::resnet3x3(1, 4, 12, 4), 1e-2);
    }

    #[test]
    fn odd_sizes_need_tile_masking() {
        // Conv5 shape: 7×7 with 2×2 tiles → ragged edge (§7.3 observation 2).
        check_variant(Variant::F2x2, ConvProblem::resnet3x3(1, 4, 7, 4), 1e-4);
        check_variant(Variant::F4x4, ConvProblem::resnet3x3(1, 4, 7, 4), 1e-3);
        check_variant(Variant::F2x2, ConvProblem::resnet3x3(1, 3, 5, 2), 1e-4);
    }

    #[test]
    fn nonfused_matches_fused() {
        let p = ConvProblem::resnet3x3(2, 4, 8, 4);
        let input = Tensor4::random(LayoutKind::Nchw, [p.n, p.c, p.h, p.w], -1.0, 1.0, 3);
        let filter = Tensor4::random(LayoutKind::Kcrs, [p.k, p.c, 3, 3], -1.0, 1.0, 4);
        let fused = conv2d_winograd(&p, &input, &filter, Variant::F4x4);
        let nf = NonFusedPipeline::plan(&p, Variant::F4x4);
        let out = nf.run(&p, &input, &filter);
        assert!(allclose(fused.as_slice(), out.as_slice(), 1e-3, 1e-3));
    }

    #[test]
    fn nonfused_workspace_grows_with_tile_expansion() {
        // §8.1: F(4×4) transformed input is (6/4)² = 2.25× the input size.
        let p = ConvProblem::resnet3x3(32, 128, 28, 128);
        let nf = NonFusedPipeline::plan(&p, Variant::F4x4);
        let input_elems = p.input_len();
        let ratio = nf.transformed_input_len as f64 / input_elems as f64;
        assert!((ratio - 2.25).abs() < 1e-9, "ratio {ratio}");
    }

    /// Normalized error of a Winograd variant vs direct convolution on
    /// random data: `max|direct - wino| / max|direct|`. Quantifies the §8.1
    /// remark that larger variants "may bring numerical issue".
    fn numerical_error(v: Variant, seed: u64) -> f32 {
        let p = ConvProblem::resnet3x3(1, 8, 16, 8);
        let input = Tensor4::random(LayoutKind::Nchw, [p.n, p.c, p.h, p.w], -1.0, 1.0, seed);
        let filter = Tensor4::random(LayoutKind::Kcrs, [p.k, p.c, 3, 3], -1.0, 1.0, seed + 1);
        let direct = conv2d_direct(&p, &input, &filter);
        let wino = conv2d_winograd(&p, &input, &filter, v);
        let scale = direct
            .as_slice()
            .iter()
            .fold(0.0f32, |m, v| m.max(v.abs()))
            .max(f32::EPSILON);
        tensor::max_abs_diff(direct.as_slice(), wino.as_slice()) / scale
    }

    #[test]
    fn numerical_error_grows_with_tile_size() {
        let e2 = numerical_error(Variant::F2x2, 11);
        let e4 = numerical_error(Variant::F4x4, 11);
        let e6 = numerical_error(Variant::F6x6, 11);
        assert!(e2 < e4 && e4 < e6, "errors: {e2} {e4} {e6}");
        assert!(e2 < 1e-5, "e2 {e2}");
        // §8.1: F(6×6,3×3) "may bring numerical issue".
        assert!(e6 > 10.0 * e2);
    }
}
