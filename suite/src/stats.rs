//! Order statistics shared by the workloads and `compare`.

/// Samples that must lie beyond a tail percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// One-based nearest rank of the `q`-quantile among `n` samples.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// Nearest-rank percentile of an ascending slice: the smallest sample with
/// at least `q·n` samples at or below it. `NaN` when empty.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    sorted[rank(sorted.len(), q) - 1]
}

/// Samples ranked above the nearest-rank `q`-quantile of `n` samples.
pub fn beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, q)
    }
}

/// The `q`-quantile of `sorted`, or `None` when fewer than [`MIN_BEYOND`]
/// samples lie beyond it (the tail is then not measured).
pub fn tail(sorted: &[f64], q: f64) -> Option<f64> {
    (beyond(sorted.len(), q) >= MIN_BEYOND).then(|| percentile(sorted, q))
}

/// Sorts in place (ascending; `NaN`s are a bug in the caller).
pub fn sort(values: &mut [f64]) {
    values.sort_by(|a, b| a.partial_cmp(b).expect("no NaN samples"));
}

/// First quartile, median and third quartile, computed exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method), so
/// spreads printed here match the ones the acceptance check computes.
/// Needs at least two values.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut data = values.to_vec();
    sort(&mut data);
    let n = data.len();
    assert!(n >= 2, "quartiles need at least two values");
    let m = n + 1;
    let mut out = [0.0; 3];
    for (k, slot) in out.iter_mut().enumerate() {
        let i = k + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    out
}

/// Median of unsorted values (mean of the middle two for even counts).
pub fn median(values: &[f64]) -> f64 {
    let mut data = values.to_vec();
    sort(&mut data);
    let n = data.len();
    if n == 0 {
        f64::NAN
    } else if n % 2 == 1 {
        data[n / 2]
    } else {
        (data[n / 2 - 1] + data[n / 2]) / 2.0
    }
}

/// Arithmetic mean; 0 when empty.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// `num / den`, or 0 when `den` is 0 (a layer the workload never reached).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|v| v as f64).collect()
    }

    #[test]
    fn nearest_rank_percentile() {
        let v = ramp(100);
        assert_eq!(percentile(&v, 0.50), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&ramp(1), 0.99), 1.0);
        // Rank rounds up: the 0.5-quantile of 5 samples is the third.
        assert_eq!(percentile(&ramp(5), 0.5), 3.0);
        assert!(percentile(&[], 0.5).is_nan());
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // 999 samples: rank(p99) = 990, nine beyond — not reported.
        assert_eq!(beyond(999, 0.99), 9);
        assert_eq!(tail(&ramp(999), 0.99), None);
        // 1000 samples: rank 990, ten beyond — reported.
        assert_eq!(beyond(1000, 0.99), 10);
        assert_eq!(tail(&ramp(1000), 0.99), Some(990.0));
        // The median of 20 samples has ten beyond it; of 19, nine.
        assert_eq!(tail(&ramp(20), 0.5), Some(10.0));
        assert_eq!(tail(&ramp(19), 0.5), None);
        assert_eq!(beyond(0, 0.5), 0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        assert_eq!(quartiles(&ramp(10)), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
