//! Order statistics over latency samples.

/// Samples a percentile needs beyond it before it is supported: a p90 has
/// ten samples above it from 100 samples on.
pub const MIN_BEYOND: usize = 10;

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Percentile `p` in `[0, 1]` by linear interpolation between closest ranks;
/// 0 for an empty sample.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let v = sorted(values);
    let Some(last) = v.len().checked_sub(1) else {
        return 0.0;
    };
    let pos = p.clamp(0.0, 1.0) * last as f64;
    let below = pos.floor() as usize;
    let above = pos.ceil() as usize;
    v[below] + (v[above] - v[below]) * (pos - below as f64)
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// Whether `n` samples leave at least [`MIN_BEYOND`] beyond percentile `p`.
pub fn supported(n: usize, p: f64) -> bool {
    // `0.9 * 100` is a hair above 90 in floating point; the nudge keeps a
    // whole number of samples at or below the percentile whole.
    let at_or_below = (p * n as f64 - 1e-9).ceil() as usize;
    n.saturating_sub(at_or_below) >= MIN_BEYOND
}

/// First quartile, median and third quartile as Python's
/// `statistics.quantiles(values, n=4)` (exclusive method) gives them — the
/// driver's rule, so `wfbench check` and the driver see the same spread.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let v = sorted(values);
    let n = v.len();
    match n {
        0 => return [0.0; 3],
        1 => return [v[0]; 3],
        _ => {}
    }
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    [cut(1), cut(2), cut(3)]
}

/// Interquartile range as a share of the median (0 when the median is 0).
pub fn spread(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate() {
        let v: Vec<f64> = (1..=5).map(f64::from).collect();
        assert_eq!(median(&v), 3.0);
        assert_eq!(percentile(&v, 0.9), 4.6);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(percentile(&[7.0], 0.9), 7.0);
    }

    #[test]
    fn p90_needs_100_samples() {
        assert!(!supported(99, 0.9));
        assert!(supported(100, 0.9));
        assert!(supported(20, 0.5));
        assert!(!supported(19, 0.5));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        assert_eq!(spread(&v), 1.0);
    }
}
