//! The explicit `im2col` lowering of cuDNN's `GEMM` algorithm: the GEMM
//! baselines multiply its column matrix on the simulator
//! ([`crate::Conv`]); the `IMPLICIT_*` variants share the math but skip the
//! materialized column matrix (their GPU cost difference is modelled in the
//! `kernels`/`perfmodel` crates).

use crate::reference::ConvProblem;
use tensor::{LayoutKind, Tensor4};

/// Lower the input to the column matrix: shape `(C·R·S) × (N·OH·OW)`,
/// row-major. Zero padding is materialized.
pub fn im2col(p: &ConvProblem, input: &Tensor4) -> Vec<f32> {
    assert_eq!(input.kind(), LayoutKind::Nchw);
    let (oh, ow) = (p.out_h(), p.out_w());
    let cols = p.n * oh * ow;
    let rows = p.c * p.r * p.s;
    let mut out = vec![0.0f32; rows * cols];
    for c in 0..p.c {
        for r in 0..p.r {
            for s in 0..p.s {
                let row = (c * p.r + r) * p.s + s;
                for n in 0..p.n {
                    for y in 0..oh {
                        let iy = (y + r) as isize - p.pad as isize;
                        for x in 0..ow {
                            let ix = (x + s) as isize - p.pad as isize;
                            let col = (n * oh + y) * ow + x;
                            if iy >= 0 && (iy as usize) < p.h && ix >= 0 && (ix as usize) < p.w {
                                out[row * cols + col] = input.get([n, c, iy as usize, ix as usize]);
                            }
                        }
                    }
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
    fn im2col_shape_and_padding() {
        let p = ConvProblem::resnet3x3(1, 1, 3, 1);
        let input = Tensor4::from_fn(LayoutKind::Nchw, [1, 1, 3, 3], |_, _, h, w| {
            (h * 3 + w + 1) as f32
        });
        let cols = im2col(&p, &input);
        assert_eq!(cols.len(), 9 * 9);
        // Row (r=0,s=0) at output (0,0) reads input (-1,-1) → 0 (padding).
        assert_eq!(cols[0], 0.0);
        // Row (r=1,s=1) is the identity: column j = input element j.
        let center_row = 4;
        for j in 0..9 {
            assert_eq!(cols[center_row * 9 + j], (j + 1) as f32);
        }
    }
}
