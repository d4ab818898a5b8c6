//! Order statistics and the capacity search the workloads report through.

/// Nearest-rank percentile of an ascending slice: the smallest sample with
/// at least `p` percent of the samples at or below it (`p` in `(0, 100]`).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    assert!(p > 0.0 && p <= 100.0, "percentile {p} outside (0, 100]");
    let n = sorted.len();
    // The tolerance keeps ranks that are whole numbers in exact arithmetic
    // (such as the tail rank below) from rounding up a place.
    let rank = (p / 100.0 * n as f64 - 1e-9).ceil() as usize;
    sorted[rank.clamp(1, n) - 1]
}

/// Nearest-rank median.
pub fn median(samples: &[f64]) -> f64 {
    percentile(&sorted(samples), 50.0)
}

/// The tail a run reports beside its median.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// Which percentile the value is.
    pub pct: f64,
    pub value: f64,
}

/// The highest percentile that still has at least ten samples beyond it
/// (the eleventh-largest sample). With ten samples or fewer no percentile
/// has that support, and the maximum stands in.
pub fn tail(samples: &[f64]) -> Tail {
    let s = sorted(samples);
    let n = s.len();
    assert!(n > 0, "tail of no samples");
    if n <= 10 {
        return Tail {
            pct: 100.0,
            value: s[n - 1],
        };
    }
    let pct = 100.0 * (n - 10) as f64 / n as f64;
    Tail {
        pct,
        value: percentile(&s, pct),
    }
}

/// Geometric mean of positive values.
pub fn geomean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geomean of no values");
    assert!(
        values.iter().all(|&v| v > 0.0 && v.is_finite()),
        "geomean needs positive finite values: {values:?}"
    );
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Highest rate in `[lo, hi]` that `ok` accepts, for an `ok` that holds up
/// to some capacity and fails above it. Assumes `ok(lo)` holds and `ok(hi)`
/// fails (the caller checks the first); halves the bracket until its width
/// is at most `rel × lo` and returns the highest accepted rate.
pub fn bisect_capacity(mut lo: f64, mut hi: f64, rel: f64, mut ok: impl FnMut(f64) -> bool) -> f64 {
    assert!(0.0 < lo && lo < hi && rel > 0.0, "bad bracket [{lo}, {hi}]");
    while hi - lo > rel * lo {
        let mid = 0.5 * (lo + hi);
        if ok(mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    lo
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentile() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), 50.0);
        assert_eq!(percentile(&s, 90.0), 90.0);
        assert_eq!(percentile(&s, 99.5), 100.0);
        assert_eq!(percentile(&s, 100.0), 100.0);
        assert_eq!(percentile(&s, 0.1), 1.0);
        // Nearest rank never interpolates: p50 of four samples is the second.
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0], 50.0), 2.0);
        assert_eq!(percentile(&[7.0], 1.0), 7.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        for n in [11usize, 37, 100, 150, 1000, 20_000] {
            let s: Vec<f64> = (1..=n).map(|v| v as f64).collect();
            let t = tail(&s);
            let beyond = s.iter().filter(|&&v| v > t.value).count();
            assert_eq!(beyond, 10, "n = {n}");
            assert_eq!(t.value, (n - 10) as f64, "n = {n}");
            assert_eq!(percentile(&s, t.pct), t.value, "n = {n}");
        }
        assert!((tail(&vec![0.0; 100]).pct - 90.0).abs() < 1e-12);
        assert!((tail(&vec![0.0; 1000]).pct - 99.0).abs() < 1e-12);
        // Too few samples for any supported percentile: the maximum.
        let t = tail(&[4.0, 9.0, 1.0]);
        assert_eq!((t.pct, t.value), (100.0, 9.0));
        // Order of the input does not matter.
        let mut rev: Vec<f64> = (1..=50).map(f64::from).rev().collect();
        assert_eq!(tail(&rev).value, 40.0);
        rev.swap(3, 40);
        assert_eq!(tail(&rev).value, 40.0);
    }

    #[test]
    fn geomean_of_known_values() {
        assert!((geomean(&[1.0, 4.0, 16.0]) - 4.0).abs() < 1e-12);
        assert!((geomean(&[5137.1, 5137.1]) - 5137.1).abs() < 1e-9);
        assert_eq!(geomean(&[2.5]), 2.5);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn geomean_rejects_zero() {
        geomean(&[1.0, 0.0]);
    }

    #[test]
    fn bisection_stops_at_one_percent_width() {
        for capacity in [10_500.0, 37_000.0, 123_456.0, 399_000.0] {
            let mut probes = 0;
            let found = bisect_capacity(10_000.0, 400_000.0, 0.01, |r| {
                probes += 1;
                r <= capacity
            });
            assert!(found <= capacity, "{found} above capacity {capacity}");
            assert!(
                capacity - found <= 0.01 * found,
                "{found} not within 1% of {capacity}"
            );
            // Halving a 39x bracket down to 1% of its lower end takes about
            // log2(390000 / 100) probes, never more than 13.
            assert!(probes <= 13, "{probes} probes");
        }
        // Capacity above the bracket: converges up to the top end.
        let found = bisect_capacity(10_000.0, 400_000.0, 0.01, |_| true);
        assert!((0.99 * 400_000.0..400_000.0).contains(&found));
    }
}
