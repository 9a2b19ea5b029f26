//! Order statistics the harness reports: medians, nearest-rank
//! percentiles, Python-compatible quartiles, and the equal-request
//! window split.

/// Sorts in place (total order; the harness never produces NaN).
pub fn sort(v: &mut [f64]) {
    v.sort_unstable_by(f64::total_cmp);
}

/// Median of an unsorted sample (mean of the middle pair when even).
/// Returns 0 for an empty sample.
pub fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    sort(&mut s);
    median_sorted(&s)
}

/// Median of an already sorted sample.
pub fn median_sorted(s: &[f64]) -> f64 {
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile of a sorted sample: the smallest value with
/// at least `p` percent of the sample at or below it.
pub fn percentile_sorted(s: &[f64], p: f64) -> f64 {
    if s.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// Samples strictly beyond the nearest-rank percentile — the guide
/// asks for at least ten before a percentile is reported.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n - ((p / 100.0) * n as f64).ceil().clamp(1.0, n as f64) as usize
}

/// The three quartile cut points exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive"
/// method) returns them — the driver that accepts this benchmark
/// computes its spreads that way, so `agree` must too.
pub fn quartiles(v: &[f64]) -> [f64; 3] {
    let mut s = v.to_vec();
    sort(&mut s);
    let m = s.len();
    if m < 2 {
        let x = s.first().copied().unwrap_or(0.0);
        return [x; 3];
    }
    let mut out = [0.0; 3];
    for (i, slot) in out.iter_mut().enumerate() {
        let i = i + 1;
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        *slot = (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0;
    }
    out
}

/// Inter-quartile range as a share of the median (0 when the median is 0).
pub fn iqr_share(v: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(v);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

/// Element-wise minimum across equally long samples: position `k` of
/// the result is the smallest value any sample has at position `k`
/// (truncated to the shortest sample).
pub fn elementwise_min<T: Copy + PartialOrd>(samples: &[&[T]]) -> Vec<T> {
    let n = samples.iter().map(|s| s.len()).min().unwrap_or(0);
    (0..n)
        .filter_map(|k| {
            samples
                .iter()
                .map(|s| s[k])
                .reduce(|a, b| if b < a { b } else { a })
        })
        .collect()
}

/// Cumulative request counts at which each of `windows` equal-request
/// windows ends: the last entry is always `n`, and window sizes differ
/// by at most one request.
pub fn window_ends(n: u64, windows: u64) -> Vec<u64> {
    (1..=windows).map(|w| n * w / windows).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile_sorted(&s, 50.0), 50.0);
        assert_eq!(percentile_sorted(&s, 99.0), 99.0);
        assert_eq!(percentile_sorted(&s, 100.0), 100.0);
        assert_eq!(percentile_sorted(&s, 0.0), 1.0);
        assert_eq!(percentile_sorted(&[7.0], 99.0), 7.0);
        assert_eq!(samples_beyond(100, 99.0), 1);
        assert_eq!(samples_beyond(2000, 99.0), 20);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert_eq!(quartiles(&[40.0, 10.0, 20.0]), [10.0, 20.0, 40.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        assert!((iqr_share(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn elementwise_min_keeps_the_smallest_of_each_position() {
        assert_eq!(
            elementwise_min(&[&[10u64, 19, 30][..], &[14, 10, 31]]),
            [10, 10, 30]
        );
        assert_eq!(
            elementwise_min(&[&[1.0, 5.0, 3.0][..], &[2.0, 4.0]]),
            [1.0, 4.0]
        );
        assert_eq!(elementwise_min::<u64>(&[]), []);
    }

    #[test]
    fn windows_split_requests_evenly() {
        assert_eq!(window_ends(10, 5), vec![2, 4, 6, 8, 10]);
        let ends = window_ends(103, 5);
        assert_eq!(ends.last(), Some(&103));
        let mut prev = 0;
        for e in ends {
            assert!((20..=21).contains(&(e - prev)));
            prev = e;
        }
    }
}
