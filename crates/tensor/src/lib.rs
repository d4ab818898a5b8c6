//! Minimal dense tensor library for the Winograd-convolution workspace.
//!
//! The paper's kernels work on single-precision 4-D tensors in a handful of
//! fixed layouts (`CHWN` for inputs, `CRSK` for filters, `KHWN` for outputs,
//! plus `NCHW` used by the cuDNN-style baselines). This crate provides exactly
//! that: an owned `f32` buffer with a named layout, strided indexing, fills,
//! layout conversion, and approximate comparison utilities used by the test
//! suites across the workspace.

mod compare;
mod layout;
mod rng;
mod tensor4;

pub use compare::{allclose, compare, max_abs_diff, CompareReport};
pub use layout::{Layout, LayoutKind};
pub use rng::XorShiftRng;
pub use tensor4::Tensor4;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crate_smoke() {
        let t = Tensor4::zeros(LayoutKind::Chwn, [2, 3, 4, 5]);
        assert_eq!(t.len(), 2 * 3 * 4 * 5);
    }
}
