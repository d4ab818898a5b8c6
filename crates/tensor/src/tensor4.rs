//! Owned 4-D `f32` tensor with a named layout.

use crate::{Layout, LayoutKind, XorShiftRng};

/// A dense, contiguous 4-D single-precision tensor.
///
/// Indexing is always done with the axis tuple in the layout's storage order;
/// [`Tensor4::to_layout`] converts between layouts that share the same axis
/// set (e.g. `CHWN` ↔ `NCHW`).
#[derive(Clone, Debug, PartialEq)]
pub struct Tensor4 {
    layout: Layout,
    data: Vec<f32>,
}

impl Tensor4 {
    /// All-zero tensor with dims in storage order.
    pub fn zeros(kind: LayoutKind, dims: [usize; 4]) -> Self {
        let layout = Layout::new(kind, dims);
        Tensor4 {
            data: vec![0.0; layout.len()],
            layout,
        }
    }

    /// Tensor filled by `f(i0, i1, i2, i3)` over storage-order indices.
    pub fn from_fn(
        kind: LayoutKind,
        dims: [usize; 4],
        mut f: impl FnMut(usize, usize, usize, usize) -> f32,
    ) -> Self {
        let mut t = Tensor4::zeros(kind, dims);
        for i0 in 0..dims[0] {
            for i1 in 0..dims[1] {
                for i2 in 0..dims[2] {
                    for i3 in 0..dims[3] {
                        let off = t.layout.offset([i0, i1, i2, i3]);
                        t.data[off] = f(i0, i1, i2, i3);
                    }
                }
            }
        }
        t
    }

    /// Tensor of uniform random values in `[lo, hi)`, deterministic in `seed`.
    pub fn random(kind: LayoutKind, dims: [usize; 4], lo: f32, hi: f32, seed: u64) -> Self {
        let mut rng = XorShiftRng::new(seed);
        let layout = Layout::new(kind, dims);
        let data = (0..layout.len()).map(|_| rng.gen_range(lo, hi)).collect();
        Tensor4 { layout, data }
    }

    /// Wrap an existing buffer. Panics if the length does not match the dims.
    pub fn from_vec(kind: LayoutKind, dims: [usize; 4], data: Vec<f32>) -> Self {
        let layout = Layout::new(kind, dims);
        assert_eq!(
            data.len(),
            layout.len(),
            "buffer length does not match dims"
        );
        Tensor4 { layout, data }
    }

    pub fn layout(&self) -> &Layout {
        &self.layout
    }

    pub fn kind(&self) -> LayoutKind {
        self.layout.kind()
    }

    pub fn dims(&self) -> [usize; 4] {
        self.layout.dims()
    }

    pub fn len(&self) -> usize {
        self.data.len()
    }

    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Element at `idx` in storage order.
    #[inline]
    pub fn get(&self, idx: [usize; 4]) -> f32 {
        self.data[self.layout.offset(idx)]
    }

    /// Set element at `idx` in storage order.
    #[inline]
    pub fn set(&mut self, idx: [usize; 4], v: f32) {
        let off = self.layout.offset(idx);
        self.data[off] = v;
    }

    /// Convert to another layout over the same axis set.
    ///
    /// Panics if the two layouts do not name the same four axes.
    pub fn to_layout(&self, kind: LayoutKind) -> Tensor4 {
        if kind == self.kind() {
            return self.clone();
        }
        let src_axes = self.kind().axes();
        let dst_axes = kind.axes();
        // perm[d] = position in src of dst axis d.
        let perm: Vec<usize> = dst_axes
            .iter()
            .map(|&a| {
                src_axes.iter().position(|&s| s == a).unwrap_or_else(|| {
                    panic!("layouts {} and {} have different axes", self.kind(), kind)
                })
            })
            .collect();
        let src_dims = self.dims();
        let dst_dims = [
            src_dims[perm[0]],
            src_dims[perm[1]],
            src_dims[perm[2]],
            src_dims[perm[3]],
        ];
        let mut out = Tensor4::zeros(kind, dst_dims);
        let mut src_idx = [0usize; 4];
        for d0 in 0..dst_dims[0] {
            for d1 in 0..dst_dims[1] {
                for d2 in 0..dst_dims[2] {
                    for d3 in 0..dst_dims[3] {
                        let dst = [d0, d1, d2, d3];
                        for (a, &p) in perm.iter().enumerate() {
                            src_idx[p] = dst[a];
                        }
                        let off = out.layout.offset(dst);
                        out.data[off] = self.get(src_idx);
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

    #[test]
    fn from_fn_and_get_agree() {
        let t = Tensor4::from_fn(LayoutKind::Nchw, [2, 3, 4, 5], |a, b, c, d| {
            (a * 1000 + b * 100 + c * 10 + d) as f32
        });
        assert_eq!(t.get([1, 2, 3, 4]), 1234.0);
        assert_eq!(t.get([0, 0, 0, 0]), 0.0);
    }

    #[test]
    fn layout_roundtrip_preserves_elements() {
        let t = Tensor4::random(LayoutKind::Nchw, [2, 3, 4, 5], -1.0, 1.0, 99);
        let u = t.to_layout(LayoutKind::Chwn);
        assert_eq!(u.dims(), [3, 4, 5, 2]);
        for n in 0..2 {
            for c in 0..3 {
                for h in 0..4 {
                    for w in 0..5 {
                        assert_eq!(t.get([n, c, h, w]), u.get([c, h, w, n]));
                    }
                }
            }
        }
        let back = u.to_layout(LayoutKind::Nchw);
        assert_eq!(back, t);
    }

    #[test]
    #[should_panic(expected = "different axes")]
    fn layout_conversion_rejects_mismatched_axes() {
        let t = Tensor4::zeros(LayoutKind::Crsk, [1, 3, 3, 1]);
        let _ = t.to_layout(LayoutKind::Nchw);
    }

    #[test]
    fn random_is_deterministic() {
        let a = Tensor4::random(LayoutKind::Chwn, [2, 2, 2, 2], 0.0, 1.0, 5);
        let b = Tensor4::random(LayoutKind::Chwn, [2, 2, 2, 2], 0.0, 1.0, 5);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "buffer length")]
    fn from_vec_checks_len() {
        let _ = Tensor4::from_vec(LayoutKind::Chwn, [2, 2, 2, 2], vec![0.0; 15]);
    }

    #[test]
    fn set_then_get() {
        let mut t = Tensor4::zeros(LayoutKind::Khwn, [2, 2, 2, 2]);
        t.set([1, 0, 1, 0], 7.5);
        assert_eq!(t.get([1, 0, 1, 0]), 7.5);
        assert_eq!(t.as_slice().iter().filter(|&&v| v != 0.0).count(), 1);
    }
}
