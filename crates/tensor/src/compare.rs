//! Approximate floating-point comparison helpers.
//!
//! Winograd convolution reorders the reduction and trades multiplies for
//! adds, so its output differs from a direct convolution by normal
//! floating-point noise. These helpers quantify that difference with both
//! absolute and relative metrics and render a readable report on failure.

/// Result of comparing two buffers element-wise.
#[derive(Clone, Debug)]
pub struct CompareReport {
    /// Largest absolute difference.
    pub max_abs: f32,
    /// Largest relative difference `|a-b| / max(|a|,|b|,eps)`.
    pub max_rel: f32,
    /// Index of the worst element (by combined criterion).
    pub worst_index: usize,
    /// Values at the worst element.
    pub worst_pair: (f32, f32),
    /// Number of elements exceeding the tolerance.
    pub num_bad: usize,
    /// Total number of elements compared.
    pub len: usize,
}

impl std::fmt::Display for CompareReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "max_abs={:.3e} max_rel={:.3e} bad={}/{} worst@{}: {} vs {}",
            self.max_abs,
            self.max_rel,
            self.num_bad,
            self.len,
            self.worst_index,
            self.worst_pair.0,
            self.worst_pair.1
        )
    }
}

/// Compare two equal-length buffers with a mixed absolute/relative tolerance.
///
/// An element pair passes if `|a-b| <= atol + rtol * max(|a|, |b|)`.
pub fn compare(a: &[f32], b: &[f32], atol: f32, rtol: f32) -> CompareReport {
    assert_eq!(a.len(), b.len(), "buffers must have equal length");
    let mut rep = CompareReport {
        max_abs: 0.0,
        max_rel: 0.0,
        worst_index: 0,
        worst_pair: (0.0, 0.0),
        num_bad: 0,
        len: a.len(),
    };
    let mut worst_score = -1.0f32;
    for (i, (&x, &y)) in a.iter().zip(b.iter()).enumerate() {
        let abs = (x - y).abs();
        let scale = x.abs().max(y.abs()).max(f32::EPSILON);
        let rel = abs / scale;
        if abs > rep.max_abs {
            rep.max_abs = abs;
        }
        if rel > rep.max_rel {
            rep.max_rel = rel;
        }
        let tol = atol + rtol * x.abs().max(y.abs());
        let score = abs - tol;
        if score > 0.0 || x.is_nan() != y.is_nan() {
            rep.num_bad += 1;
        }
        if score > worst_score {
            worst_score = score;
            rep.worst_index = i;
            rep.worst_pair = (x, y);
        }
    }
    rep
}

/// True if every element pair satisfies `|a-b| <= atol + rtol*max(|a|,|b|)`.
pub fn allclose(a: &[f32], b: &[f32], atol: f32, rtol: f32) -> bool {
    compare(a, b, atol, rtol).num_bad == 0
}

/// Largest absolute difference between two buffers.
pub fn max_abs_diff(a: &[f32], b: &[f32]) -> f32 {
    compare(a, b, 0.0, 0.0).max_abs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_buffers_are_close() {
        let a = [1.0, -2.0, 3.5, 0.0];
        assert!(allclose(&a, &a, 0.0, 0.0));
        assert_eq!(max_abs_diff(&a, &a), 0.0);
    }

    #[test]
    fn detects_out_of_tolerance() {
        let a = [1.0, 2.0, 3.0];
        let b = [1.0, 2.1, 3.0];
        assert!(!allclose(&a, &b, 1e-3, 1e-3));
        assert!(allclose(&a, &b, 0.2, 0.0));
        let rep = compare(&a, &b, 1e-3, 1e-3);
        assert_eq!(rep.num_bad, 1);
        assert_eq!(rep.worst_index, 1);
    }

    #[test]
    fn relative_tolerance_scales() {
        let a = [1000.0];
        let b = [1000.5];
        assert!(allclose(&a, &b, 0.0, 1e-3));
        assert!(!allclose(&a, &b, 0.0, 1e-6));
    }

    #[test]
    fn nan_mismatch_is_bad() {
        let a = [f32::NAN];
        let b = [0.0];
        assert!(!allclose(&a, &b, 1e30, 1e30));
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn length_mismatch_panics() {
        let _ = allclose(&[1.0], &[1.0, 2.0], 0.0, 0.0);
    }

    #[test]
    fn report_displays() {
        let rep = compare(&[1.0, 2.0], &[1.0, 3.0], 0.0, 0.0);
        let s = rep.to_string();
        assert!(s.contains("bad=1/2"), "{s}");
    }
}
