//! Tensor layouts used across the workspace.
//!
//! A 4-D tensor is always logically indexed by the axis tuple written in its
//! layout name. For example a `Chwn` tensor of dims `[C, H, W, N]` stores
//! element `(c, h, w, n)` at linear offset `((c*H + h)*W + w)*N + n`.

/// The named memory layouts the kernels understand.
///
/// * `Chwn` — the input layout used by our kernel (§4.2 of the paper): batch
///   innermost, so a warp loading 32 consecutive `n` is fully coalesced.
/// * `Nchw` — cuDNN's default layout, used by the baseline algorithms.
/// * `Khwn` — the output layout of our kernel.
/// * `Crsk` — filter layout `(C, R, S, K)`; with `k` innermost, the filter
///   transform kernel's loads/stores are coalesced.
/// * `Kcrs` — cuDNN's filter layout `(K, C, R, S)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum LayoutKind {
    Chwn,
    Nchw,
    Khwn,
    Crsk,
    Kcrs,
}

impl LayoutKind {
    /// Axis names in storage (outermost-first) order.
    pub fn axes(self) -> [char; 4] {
        match self {
            LayoutKind::Chwn => ['C', 'H', 'W', 'N'],
            LayoutKind::Nchw => ['N', 'C', 'H', 'W'],
            LayoutKind::Khwn => ['K', 'H', 'W', 'N'],
            LayoutKind::Crsk => ['C', 'R', 'S', 'K'],
            LayoutKind::Kcrs => ['K', 'C', 'R', 'S'],
        }
    }
}

impl std::fmt::Display for LayoutKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let a = self.axes();
        write!(f, "{}{}{}{}", a[0], a[1], a[2], a[3])
    }
}

/// A concrete layout: a kind plus dims, with precomputed row-major strides.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Layout {
    kind: LayoutKind,
    dims: [usize; 4],
    strides: [usize; 4],
}

impl Layout {
    /// Create a contiguous row-major layout with dims given in storage order.
    pub fn new(kind: LayoutKind, dims: [usize; 4]) -> Self {
        let strides = [dims[1] * dims[2] * dims[3], dims[2] * dims[3], dims[3], 1];
        Layout {
            kind,
            dims,
            strides,
        }
    }

    pub fn kind(&self) -> LayoutKind {
        self.kind
    }

    /// Dims in storage order (matching `kind().axes()`).
    pub fn dims(&self) -> [usize; 4] {
        self.dims
    }

    /// Row-major strides in storage order, in elements.
    pub fn strides(&self) -> [usize; 4] {
        self.strides
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.dims.iter().product()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Linear offset of index tuple `idx` (in storage order).
    #[inline]
    pub fn offset(&self, idx: [usize; 4]) -> usize {
        debug_assert!(
            idx.iter().zip(self.dims.iter()).all(|(i, d)| i < d),
            "index {:?} out of bounds for dims {:?}",
            idx,
            self.dims
        );
        idx[0] * self.strides[0] + idx[1] * self.strides[1] + idx[2] * self.strides[2] + idx[3]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strides_are_row_major() {
        let l = Layout::new(LayoutKind::Chwn, [2, 3, 4, 5]);
        assert_eq!(l.strides(), [60, 20, 5, 1]);
        assert_eq!(l.len(), 120);
        assert_eq!(l.offset([1, 2, 3, 4]), 60 + 40 + 15 + 4);
    }

    #[test]
    fn display_matches_axes() {
        assert_eq!(LayoutKind::Crsk.to_string(), "CRSK");
        assert_eq!(LayoutKind::Chwn.to_string(), "CHWN");
    }

    #[test]
    fn offset_first_and_last() {
        let l = Layout::new(LayoutKind::Khwn, [4, 4, 4, 4]);
        assert_eq!(l.offset([0, 0, 0, 0]), 0);
        assert_eq!(l.offset([3, 3, 3, 3]), l.len() - 1);
    }
}
