//! Quantiles from raw samples. Every percentile the benchmark prints
//! is computed here, never read from an obskit histogram, whose log₂
//! buckets round to a factor of two.

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median; 0 for an empty slice so an unexercised layer reads as 0.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First quartile, median, third quartile as Python's
/// `statistics.quantiles(values, n=4)` computes them (the exclusive
/// method), which is what the acceptance rule for this benchmark is
/// written against. Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let m = n + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(out)
}

/// Distance between the first and third quartile as a share of the
/// median: the spread the acceptance rule bounds.
pub fn relative_iqr(values: &[f64]) -> Option<f64> {
    let [q1, q2, q3] = quartiles(values)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}

/// Nearest rank (1-based) of a percentile given in hundredths of a
/// percent, in whole numbers: 99.9 % of 10 000 samples is rank 9 990,
/// which floating point would round up to 9 991.
fn nearest_rank(n: usize, basis_points: usize) -> usize {
    (n * basis_points).div_ceil(10_000).clamp(1, n)
}

/// The tail of a latency distribution: the highest of the usual
/// percentiles that still has at least ten samples beyond it, so the
/// number printed is an observation and not one outlier.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// Which percentile was reported (50 when the sample is too small
    /// for anything higher; 0 with no samples).
    pub pct: f64,
    pub value: f64,
    pub samples: usize,
}

pub fn tail(values: &[f64]) -> Tail {
    const LADDER: [usize; 6] = [9_999, 9_990, 9_900, 9_500, 9_000, 7_500];
    let v = sorted(values);
    let n = v.len();
    if n == 0 {
        return Tail {
            pct: 0.0,
            value: 0.0,
            samples: 0,
        };
    }
    let basis_points = LADDER
        .into_iter()
        .find(|&bp| n - nearest_rank(n, bp) >= 10)
        .unwrap_or(5_000);
    Tail {
        pct: basis_points as f64 / 100.0,
        value: v[nearest_rank(n, basis_points) - 1],
        samples: n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert_eq!(quartiles(&[40.0, 10.0, 20.0]), Some([10.0, 20.0, 40.0]));
        // statistics.quantiles([1, 3], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[1.0, 3.0]), Some([0.5, 2.0, 3.5]));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(relative_iqr(&v), Some(1.0));
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        let n = |count: usize| -> Vec<f64> { (1..=count).map(|i| i as f64).collect() };
        // 1000 samples: exactly ten lie beyond the 99th percentile.
        let t = tail(&n(1000));
        assert_eq!((t.pct, t.value, t.samples), (99.0, 990.0, 1000));
        // 999 samples: only nine beyond p99, so fall back to p95.
        assert_eq!(tail(&n(999)).pct, 95.0);
        assert_eq!(tail(&n(10_000)).pct, 99.9);
        assert_eq!(tail(&n(100)).pct, 90.0);
        // Too few for any tail: the median.
        let t = tail(&n(15));
        assert_eq!((t.pct, t.value), (50.0, 8.0));
        assert_eq!(tail(&[]).samples, 0);
    }
}
