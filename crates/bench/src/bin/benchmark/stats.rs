//! Order statistics the report is built from.

/// Exact order statistic `q` of an unsorted sample (nearest rank);
/// 0 for an empty one.
pub fn percentile(sample: &mut [u64], q: f64) -> u64 {
    if sample.is_empty() {
        return 0;
    }
    sample.sort_unstable();
    let idx = ((sample.len() - 1) as f64 * q).round() as usize;
    sample[idx.min(sample.len() - 1)]
}

/// Median of an unsorted float sample; 0 for an empty one.
pub fn median_f64(sample: &mut [f64]) -> f64 {
    if sample.is_empty() {
        return 0.0;
    }
    sample.sort_by(f64::total_cmp);
    let n = sample.len();
    if n % 2 == 1 {
        sample[n / 2]
    } else {
        (sample[n / 2 - 1] + sample[n / 2]) / 2.0
    }
}

/// Median of an unsorted integer sample, as a float.
pub fn median_u64(sample: &[u64]) -> f64 {
    let mut v: Vec<f64> = sample.iter().map(|&x| x as f64).collect();
    median_f64(&mut v)
}

/// First quartile, median and third quartile by the exclusive method —
/// what Python's `statistics.quantiles(values, n=4)` returns, which is
/// the rule the benchmark's spread is judged by.
pub fn quartiles(sample: &[f64]) -> (f64, f64, f64) {
    let mut v = sample.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x, x);
    }
    let at = |k: usize| {
        let pos = k as f64 * (n + 1) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + frac * (v[j] - v[j - 1])
    };
    (at(1), at(2), at(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let mut v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&mut v, 0.5), 51);
        assert_eq!(percentile(&mut v, 0.99), 99);
        assert_eq!(percentile(&mut [], 0.5), 0);
    }
}
