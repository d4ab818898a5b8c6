//! Winograd minimal-filtering transform matrices.
//!
//! For `F(m×m, 3×3)` the 2-D algorithm computes, per tile (paper Eq. 1):
//!
//! ```text
//! O = Aᵀ [ (G F Gᵀ) ⊙ (Bᵀ I B) ] A
//! ```
//!
//! This module provides the `Bᵀ`, `G`, `Aᵀ` matrices for the three standard
//! variants — `F(2×2, 3×3)` (the paper's kernel, Eq. 2–3), `F(4×4, 3×3)`
//! (cuDNN's non-fused variant, §7.3/§8.1) and `F(6×6, 3×3)` (mentioned in
//! §8.1 as numerically problematic; a `winograd_host` unit test pins its
//! error growing with tile size) — plus small dense matrix helpers used
//! throughout the host-side reference implementations.

/// A tiny row-major dense matrix, sized at runtime.
#[derive(Clone, Debug, PartialEq)]
pub struct Mat {
    pub rows: usize,
    pub cols: usize,
    pub data: Vec<f32>,
}

impl Mat {
    pub fn new(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols);
        Mat { rows, cols, data }
    }

    pub fn zeros(rows: usize, cols: usize) -> Self {
        Mat {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    #[inline]
    pub fn at(&self, r: usize, c: usize) -> f32 {
        self.data[r * self.cols + c]
    }

    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        self.data[r * self.cols + c] = v;
    }

    /// `self × other`.
    pub fn matmul(&self, other: &Mat) -> Mat {
        assert_eq!(self.cols, other.rows, "matmul shape mismatch");
        let mut out = Mat::zeros(self.rows, other.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self.at(i, k);
                if a == 0.0 {
                    continue;
                }
                for j in 0..other.cols {
                    out.data[i * other.cols + j] += a * other.at(k, j);
                }
            }
        }
        out
    }

    /// Transpose.
    pub fn t(&self) -> Mat {
        let mut out = Mat::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out.set(j, i, self.at(i, j));
            }
        }
        out
    }
}

/// The transform set for one `F(m×m, r×r)` variant.
#[derive(Clone, Debug)]
pub struct WinogradTransform {
    /// Output tile size `m`.
    pub m: usize,
    /// Filter size `r`.
    pub r: usize,
    /// Input tile size `t = m + r - 1`.
    pub t: usize,
    /// Input transform `Bᵀ` (t×t).
    pub bt: Mat,
    /// Filter transform `G` (t×r).
    pub g: Mat,
    /// Output transform `Aᵀ` (m×t).
    pub at: Mat,
}

/// Which Winograd variant to use.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Variant {
    /// `F(2×2, 3×3)` — 16 EWMMs per tile, 2.25× multiplication reduction.
    F2x2,
    /// `F(4×4, 3×3)` — 36 EWMMs per tile, 4× multiplication reduction.
    F4x4,
    /// `F(6×6, 3×3)` — 64 EWMMs per tile, 5.06× reduction, poor conditioning.
    F6x6,
}

impl Variant {
    pub fn transform(self) -> WinogradTransform {
        match self {
            Variant::F2x2 => f2x2_3x3(),
            Variant::F4x4 => f4x4_3x3(),
            Variant::F6x6 => f6x6_3x3(),
        }
    }

    /// Output tile size m.
    pub fn m(self) -> usize {
        match self {
            Variant::F2x2 => 2,
            Variant::F4x4 => 4,
            Variant::F6x6 => 6,
        }
    }
}

/// `F(2×2, 3×3)` — exactly the matrices in the paper's Eq. (2)–(3).
pub fn f2x2_3x3() -> WinogradTransform {
    let bt = Mat::new(
        4,
        4,
        vec![
            1.0, 0.0, -1.0, 0.0, //
            0.0, 1.0, 1.0, 0.0, //
            0.0, -1.0, 1.0, 0.0, //
            0.0, 1.0, 0.0, -1.0,
        ],
    );
    let g = Mat::new(
        4,
        3,
        vec![
            1.0, 0.0, 0.0, //
            0.5, 0.5, 0.5, //
            0.5, -0.5, 0.5, //
            0.0, 0.0, 1.0,
        ],
    );
    let at = Mat::new(
        2,
        4,
        vec![
            1.0, 1.0, 1.0, 0.0, //
            0.0, 1.0, -1.0, -1.0,
        ],
    );
    WinogradTransform {
        m: 2,
        r: 3,
        t: 4,
        bt,
        g,
        at,
    }
}

/// `F(4×4, 3×3)` with interpolation points `{0, ±1, ±2}` (Lavin & Gray).
pub fn f4x4_3x3() -> WinogradTransform {
    let bt = Mat::new(
        6,
        6,
        vec![
            4.0, 0.0, -5.0, 0.0, 1.0, 0.0, //
            0.0, -4.0, -4.0, 1.0, 1.0, 0.0, //
            0.0, 4.0, -4.0, -1.0, 1.0, 0.0, //
            0.0, -2.0, -1.0, 2.0, 1.0, 0.0, //
            0.0, 2.0, -1.0, -2.0, 1.0, 0.0, //
            0.0, 4.0, 0.0, -5.0, 0.0, 1.0,
        ],
    );
    let g = Mat::new(
        6,
        3,
        vec![
            0.25,
            0.0,
            0.0, //
            -1.0 / 6.0,
            -1.0 / 6.0,
            -1.0 / 6.0, //
            -1.0 / 6.0,
            1.0 / 6.0,
            -1.0 / 6.0, //
            1.0 / 24.0,
            1.0 / 12.0,
            1.0 / 6.0, //
            1.0 / 24.0,
            -1.0 / 12.0,
            1.0 / 6.0, //
            0.0,
            0.0,
            1.0,
        ],
    );
    let at = Mat::new(
        4,
        6,
        vec![
            1.0, 1.0, 1.0, 1.0, 1.0, 0.0, //
            0.0, 1.0, -1.0, 2.0, -2.0, 0.0, //
            0.0, 1.0, 1.0, 4.0, 4.0, 0.0, //
            0.0, 1.0, -1.0, 8.0, -8.0, 1.0,
        ],
    );
    WinogradTransform {
        m: 4,
        r: 3,
        t: 6,
        bt,
        g,
        at,
    }
}

/// `F(6×6, 3×3)` with points `{0, ±1, ±2, ±1/2}` (the NNPACK/cuDNN choice).
pub fn f6x6_3x3() -> WinogradTransform {
    #[rustfmt::skip]
    let bt = Mat::new(8, 8, vec![
        1.0,  0.0,    -21.0 / 4.0,  0.0,         21.0 / 4.0,  0.0,        -1.0, 0.0,
        0.0,  1.0,     1.0,        -17.0 / 4.0, -17.0 / 4.0,  1.0,         1.0, 0.0,
        0.0, -1.0,     1.0,         17.0 / 4.0, -17.0 / 4.0, -1.0,         1.0, 0.0,
        0.0,  0.5,     0.25,       -5.0 / 2.0,  -5.0 / 4.0,   2.0,         1.0, 0.0,
        0.0, -0.5,     0.25,        5.0 / 2.0,  -5.0 / 4.0,  -2.0,         1.0, 0.0,
        0.0,  2.0,     4.0,        -5.0 / 2.0,  -5.0,         0.5,         1.0, 0.0,
        0.0, -2.0,     4.0,         5.0 / 2.0,  -5.0,        -0.5,         1.0, 0.0,
        0.0, -1.0,     0.0,         21.0 / 4.0,  0.0,        -21.0 / 4.0,  0.0, 1.0,
    ]);
    #[rustfmt::skip]
    let g = Mat::new(8, 3, vec![
        1.0,          0.0,         0.0,
        -2.0 / 9.0,  -2.0 / 9.0,  -2.0 / 9.0,
        -2.0 / 9.0,   2.0 / 9.0,  -2.0 / 9.0,
        1.0 / 90.0,   1.0 / 45.0,  2.0 / 45.0,
        1.0 / 90.0,  -1.0 / 45.0,  2.0 / 45.0,
        32.0 / 45.0,  16.0 / 45.0, 8.0 / 45.0,
        32.0 / 45.0, -16.0 / 45.0, 8.0 / 45.0,
        0.0,          0.0,         1.0,
    ]);
    #[rustfmt::skip]
    let at = Mat::new(6, 8, vec![
        1.0, 1.0,  1.0, 1.0,  1.0, 1.0,   1.0,    0.0,
        0.0, 1.0, -1.0, 2.0, -2.0, 0.5,  -0.5,    0.0,
        0.0, 1.0,  1.0, 4.0,  4.0, 0.25,  0.25,   0.0,
        0.0, 1.0, -1.0, 8.0, -8.0, 0.125, -0.125, 0.0,
        0.0, 1.0,  1.0, 16.0, 16.0, 0.0625, 0.0625, 0.0,
        0.0, 1.0, -1.0, 32.0, -32.0, 0.03125, -0.03125, 1.0,
    ]);
    WinogradTransform {
        m: 6,
        r: 3,
        t: 8,
        bt,
        g,
        at,
    }
}

impl WinogradTransform {
    /// Transform one `r×r` filter tile: `G f Gᵀ` → `t×t`.
    pub fn filter_tile(&self, f: &Mat) -> Mat {
        assert_eq!((f.rows, f.cols), (self.r, self.r));
        self.g.matmul(f).matmul(&self.g.t())
    }

    /// Transform one `t×t` input tile: `Bᵀ i B` → `t×t`.
    pub fn input_tile(&self, i: &Mat) -> Mat {
        assert_eq!((i.rows, i.cols), (self.t, self.t));
        self.bt.matmul(i).matmul(&self.bt.t()) // B = (Bᵀ)ᵀ
    }

    /// Inverse-transform one `t×t` accumulator tile: `Aᵀ o A` → `m×m`.
    pub fn output_tile(&self, o: &Mat) -> Mat {
        assert_eq!((o.rows, o.cols), (self.t, self.t));
        self.at.matmul(o).matmul(&self.at.t())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Direct 1-D convolution (correlation) of a signal window with a filter.
    fn direct_1d(signal: &[f32], filter: &[f32], m: usize) -> Vec<f32> {
        (0..m)
            .map(|i| (0..filter.len()).map(|j| signal[i + j] * filter[j]).sum())
            .collect()
    }

    /// 1-D Winograd: `Aᵀ [(G f) ⊙ (Bᵀ d)]` must equal direct convolution.
    fn check_1d(v: Variant) {
        let tr = v.transform();
        let signal: Vec<f32> = (0..tr.t).map(|i| (i as f32 * 0.7 - 1.3).sin()).collect();
        let filter: Vec<f32> = vec![0.25, -0.5, 1.0];
        let d = Mat::new(tr.t, 1, signal.clone());
        let f = Mat::new(tr.r, 1, filter.clone());
        let gf = tr.g.matmul(&f);
        let btd = tr.bt.matmul(&d);
        let prod = Mat::new(
            tr.t,
            1,
            gf.data.iter().zip(&btd.data).map(|(a, b)| a * b).collect(),
        );
        let out = tr.at.matmul(&prod);
        let want = direct_1d(&signal, &filter, tr.m);
        for (i, &w) in want.iter().enumerate() {
            assert!(
                (out.data[i] - w).abs() < 1e-4,
                "{v:?} row {i}: {} vs {}",
                out.data[i],
                w
            );
        }
    }

    #[test]
    fn f2_matches_direct_1d() {
        check_1d(Variant::F2x2);
    }

    #[test]
    fn f4_matches_direct_1d() {
        check_1d(Variant::F4x4);
    }

    #[test]
    fn f6_matches_direct_1d() {
        check_1d(Variant::F6x6);
    }

    /// 2-D single-tile Winograd must match direct 2-D convolution.
    fn check_2d(v: Variant) {
        let tr = v.transform();
        let t = tr.t;
        let input = Mat::new(
            t,
            t,
            (0..t * t)
                .map(|i| ((i * 37 % 11) as f32 - 5.0) / 3.0)
                .collect(),
        );
        let filt = Mat::new(
            3,
            3,
            (0..9).map(|i| ((i * 53 % 7) as f32 - 3.0) / 4.0).collect(),
        );
        let tf = tr.filter_tile(&filt);
        let ti = tr.bt.matmul(&input).matmul(&tr.bt.t());
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
                        want += input.at(y + r, x + s) * filt.at(r, s);
                    }
                }
                assert!(
                    (out.at(y, x) - want).abs() < 1e-3,
                    "{v:?} ({y},{x}): {} vs {want}",
                    out.at(y, x)
                );
            }
        }
    }

    #[test]
    fn f2_matches_direct_2d() {
        check_2d(Variant::F2x2);
    }

    #[test]
    fn f4_matches_direct_2d() {
        check_2d(Variant::F4x4);
    }

    #[test]
    fn f6_matches_direct_2d() {
        check_2d(Variant::F6x6);
    }

    impl Variant {
        /// Multiplication reduction factor vs direct convolution:
        /// `(m·r)² / (m+r-1)²` per 1-D dimension squared.
        fn mult_reduction(self) -> f64 {
            let m = self.m() as f64;
            let r = 3.0f64;
            (m * r) * (m * r) / ((m + r - 1.0) * (m + r - 1.0))
        }
    }

    #[test]
    fn reduction_factors_match_paper() {
        // §1/§2.1: 2.25× for F(2×2,3×3); §7.3: 4× for F(4×4,3×3).
        assert!((Variant::F2x2.mult_reduction() - 2.25).abs() < 1e-9);
        assert!((Variant::F4x4.mult_reduction() - 4.0).abs() < 1e-9);
        assert!(Variant::F6x6.mult_reduction() > 5.0);
    }

    #[test]
    fn matmul_and_transpose() {
        let a = Mat::new(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Mat::new(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b);
        assert_eq!(c.data, vec![58.0, 64.0, 139.0, 154.0]);
        assert_eq!(a.t().t(), a);
    }
}
