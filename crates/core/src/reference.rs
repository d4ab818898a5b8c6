//! Golden reference: direct convolution on the host.
//!
//! Every other algorithm in the workspace — host Winograd, host GEMM/FFT
//! convolution, and all the SASS kernels running on the simulator — is
//! validated against this implementation.

use tensor::{LayoutKind, Tensor4};

/// A batched 2-D convolution problem (cross-correlation, CNN convention).
///
/// Stride is fixed at 1 — the paper's scope is the 3×3 stride-1 layers of
/// ResNet/VGG (§2.1) — but filter size and padding are general here so the
/// test suite can exercise edge cases.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ConvProblem {
    /// Batch size.
    pub n: usize,
    /// Input channels.
    pub c: usize,
    /// Input height/width.
    pub h: usize,
    pub w: usize,
    /// Output channels (number of filters).
    pub k: usize,
    /// Filter height/width.
    pub r: usize,
    pub s: usize,
    /// Zero padding on each border.
    pub pad: usize,
}

impl ConvProblem {
    /// The common ResNet-style case: 3×3, pad 1, same-size output.
    pub fn resnet3x3(n: usize, c: usize, hw: usize, k: usize) -> Self {
        ConvProblem {
            n,
            c,
            h: hw,
            w: hw,
            k,
            r: 3,
            s: 3,
            pad: 1,
        }
    }

    /// Output height.
    pub fn out_h(&self) -> usize {
        self.h + 2 * self.pad + 1 - self.r
    }

    /// Output width.
    pub fn out_w(&self) -> usize {
        self.w + 2 * self.pad + 1 - self.s
    }

    /// FLOPs of the direct algorithm (2 per MAC) — the figure-of-merit the
    /// paper's TFLOPS numbers are *not* based on (they count Winograd FLOPs);
    /// used by the roofline model.
    pub fn direct_flops(&self) -> f64 {
        2.0 * self.n as f64
            * self.c as f64
            * self.out_h() as f64
            * self.out_w() as f64
            * self.k as f64
            * self.r as f64
            * self.s as f64
    }

    /// Input element count.
    pub fn input_len(&self) -> usize {
        self.n * self.c * self.h * self.w
    }

    /// Filter element count.
    pub fn filter_len(&self) -> usize {
        self.k * self.c * self.r * self.s
    }

    /// Output element count.
    pub fn output_len(&self) -> usize {
        self.n * self.k * self.out_h() * self.out_w()
    }
}

/// Direct convolution: input NCHW, filter KCRS, output NCHW (paper Eq. 4).
pub fn conv2d_direct(p: &ConvProblem, input: &Tensor4, filter: &Tensor4) -> Tensor4 {
    assert_eq!(input.kind(), LayoutKind::Nchw, "input must be NCHW");
    assert_eq!(filter.kind(), LayoutKind::Kcrs, "filter must be KCRS");
    assert_eq!(input.dims(), [p.n, p.c, p.h, p.w]);
    assert_eq!(filter.dims(), [p.k, p.c, p.r, p.s]);
    let (oh, ow) = (p.out_h(), p.out_w());
    let mut out = Tensor4::zeros(LayoutKind::Nchw, [p.n, p.k, oh, ow]);
    for n in 0..p.n {
        for k in 0..p.k {
            for y in 0..oh {
                for x in 0..ow {
                    let mut acc = 0.0f32;
                    for c in 0..p.c {
                        for r in 0..p.r {
                            let iy = y + r;
                            if iy < p.pad || iy >= p.h + p.pad {
                                continue;
                            }
                            for s in 0..p.s {
                                let ix = x + s;
                                if ix < p.pad || ix >= p.w + p.pad {
                                    continue;
                                }
                                acc += input.get([n, c, iy - p.pad, ix - p.pad])
                                    * filter.get([k, c, r, s]);
                            }
                        }
                    }
                    out.set([n, k, y, x], acc);
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_filter_passes_input_through() {
        // 3×3 filter with a single 1 at the center, pad 1 → identity.
        let p = ConvProblem::resnet3x3(1, 1, 4, 1);
        let input = Tensor4::random(LayoutKind::Nchw, [1, 1, 4, 4], -1.0, 1.0, 1);
        let mut filter = Tensor4::zeros(LayoutKind::Kcrs, [1, 1, 3, 3]);
        filter.set([0, 0, 1, 1], 1.0);
        let out = conv2d_direct(&p, &input, &filter);
        assert_eq!(out.as_slice(), input.as_slice());
    }

    #[test]
    fn box_filter_sums_neighbourhood() {
        let p = ConvProblem::resnet3x3(1, 1, 3, 1);
        let input = Tensor4::from_fn(LayoutKind::Nchw, [1, 1, 3, 3], |_, _, h, w| {
            (h * 3 + w) as f32
        });
        let filter = Tensor4::from_fn(LayoutKind::Kcrs, [1, 1, 3, 3], |_, _, _, _| 1.0);
        let out = conv2d_direct(&p, &input, &filter);
        // Center output = sum of all 9 inputs = 36.
        assert_eq!(out.get([0, 0, 1, 1]), 36.0);
        // Corner (0,0) = inputs (0,0),(0,1),(1,0),(1,1) = 0+1+3+4 = 8.
        assert_eq!(out.get([0, 0, 0, 0]), 8.0);
    }

    #[test]
    fn channels_accumulate() {
        let p = ConvProblem {
            n: 1,
            c: 3,
            h: 2,
            w: 2,
            k: 1,
            r: 1,
            s: 1,
            pad: 0,
        };
        let input = Tensor4::from_fn(LayoutKind::Nchw, [1, 3, 2, 2], |_, c, _, _| c as f32 + 1.0);
        let filter = Tensor4::from_fn(LayoutKind::Kcrs, [1, 3, 1, 1], |_, _, _, _| 1.0);
        let out = conv2d_direct(&p, &input, &filter);
        assert_eq!(out.get([0, 0, 0, 0]), 6.0);
    }

    #[test]
    fn output_shape_math() {
        let p = ConvProblem::resnet3x3(2, 3, 56, 64);
        assert_eq!(p.out_h(), 56);
        assert_eq!(p.out_w(), 56);
        let p = ConvProblem {
            n: 1,
            c: 1,
            h: 7,
            w: 9,
            k: 1,
            r: 3,
            s: 3,
            pad: 0,
        };
        assert_eq!(p.out_h(), 5);
        assert_eq!(p.out_w(), 7);
    }

    #[test]
    fn direct_flops_formula() {
        let p = ConvProblem::resnet3x3(32, 64, 56, 64);
        let want = 2.0 * 32.0 * 64.0 * 56.0 * 56.0 * 64.0 * 9.0;
        assert_eq!(p.direct_flops(), want);
    }
}
