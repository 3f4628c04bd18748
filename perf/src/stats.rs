//! Order statistics for the per-rep samples.

/// First quartile, median and third quartile of `values`, computed like
/// Python's `statistics.quantiles(values, n=4)` (the default "exclusive"
/// method), so the harness and `perf/compare.py` agree to the digit.
/// A single value is its own quartiles; an empty slice gives `None`.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    match data.len() {
        0 => None,
        1 => Some((data[0], data[0], data[0])),
        n => {
            // Python's integer arithmetic, including its extrapolation
            // past the ends for tiny samples (delta is not clamped).
            let m = (n + 1) as i64;
            let cut = |i: i64| {
                let j = (i * m / 4).clamp(1, n as i64 - 1);
                let delta = i * m - j * 4;
                let j = j as usize;
                (data[j - 1] * (4 - delta) as f64 + data[j] * delta as f64) / 4.0
            };
            Some((cut(1), cut(2), cut(3)))
        }
    }
}

/// The highest of the percentiles 99.9, 99, 90, 75 and 50 that still has
/// at least ten samples strictly above its nearest-rank position, with
/// its value. `None` when fewer than eleven samples exist, since then no
/// percentile has ten samples beyond it.
pub fn tail_percentile(values: &[f64]) -> Option<(f64, f64)> {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let n = data.len();
    // Percentiles in per-mille, so the nearest rank is exact integer math.
    [999, 990, 900, 750, 500]
        .into_iter()
        .find_map(|per_mille: usize| {
            let rank = (per_mille * n).div_ceil(1000).max(1);
            (n >= rank + 10).then(|| (per_mille as f64 / 10.0, data[rank - 1]))
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 2.0, 3.0)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 1.5, 2.25)));
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[4.0, 3.0, 2.0, 1.0]), Some((1.25, 2.5, 3.75)));
        assert_eq!(quartiles(&[7.0]), Some((7.0, 7.0, 7.0)));
        assert_eq!(quartiles(&[]), None);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(&[1.0; 10]), None);
        // 20 samples: p50 sits at rank 10, leaving exactly ten above it;
        // p75 (rank 15) would leave only five.
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail_percentile(&v), Some((50.0, 10.0)));
        // 100 samples: p90 (rank 90) leaves ten, p99 leaves one.
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail_percentile(&v), Some((90.0, 90.0)));
        // 1000 samples: p99 (rank 990) leaves ten.
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail_percentile(&v), Some((99.0, 990.0)));
        // 10000 samples: p99.9 (rank 9990) leaves ten.
        let v: Vec<f64> = (1..=10000).map(f64::from).collect();
        assert_eq!(tail_percentile(&v), Some((99.9, 9990.0)));
    }
}
