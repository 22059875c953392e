//! Summary statistics for timing samples: median, quartiles and the tail
//! percentile rule.

/// Percentiles a tail may be reported at, in tenths of a percent, highest
/// first. Coarse on purpose: a run whose sample count moves a little must
/// not flip between rungs.
pub const TAIL_LADDER: [usize; 3] = [999, 990, 900];

/// Samples that must lie beyond a percentile before it may be reported.
pub const TAIL_MIN_BEYOND: usize = 10;

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median; the mean of the two middle samples for an even count.
pub fn median(xs: &[f64]) -> Option<f64> {
    let v = sorted(xs);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// First, second and third quartile by the "exclusive" method, the
/// default of Python's `statistics.quantiles(xs, n=4)`. Needs two samples.
pub fn quartiles(xs: &[f64]) -> Option<[f64; 3]> {
    let v = sorted(xs);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let m = n + 1;
    let mut out = [0.0; 3];
    for (i, q) in out.iter_mut().enumerate() {
        let k = (i + 1) * m;
        // Clamp as Python does: j in 1..=n-1 keeps both neighbours valid,
        // and the weight may then fall outside 0..4 (extrapolation).
        let j = (k / 4).clamp(1, n - 1);
        let delta = k as f64 - (j * 4) as f64;
        *q = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(out)
}

/// A tail percentile with the evidence behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile reported, a rung of [`TAIL_LADDER`].
    pub percentile: f64,
    /// The nearest-rank sample at that percentile.
    pub value: f64,
    /// Samples ranked beyond it.
    pub beyond: usize,
    /// All samples.
    pub samples: usize,
}

/// The highest percentile of [`TAIL_LADDER`] with at least
/// [`TAIL_MIN_BEYOND`] samples ranked beyond it (nearest-rank), or `None`
/// when even the lowest rung lacks them.
pub fn tail(xs: &[f64]) -> Option<Tail> {
    let v = sorted(xs);
    let n = v.len();
    TAIL_LADDER.iter().find_map(|&p| {
        let rank = (p * n).div_ceil(1000);
        let beyond = n - rank;
        (rank >= 1 && beyond >= TAIL_MIN_BEYOND).then(|| Tail {
            percentile: p as f64 / 10.0,
            value: v[rank - 1],
            beyond,
            samples: n,
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some([1.0, 2.0, 3.0]));
        // statistics.quantiles([5, 1, 9, 3, 7], n=4) == [2.0, 5.0, 8.0]
        assert_eq!(quartiles(&[5.0, 1.0, 9.0, 3.0, 7.0]), Some([2.0, 5.0, 8.0]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        let xs: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(tail(&xs), None, "99 samples support no rung of the ladder");

        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&xs).expect("100 samples support p90");
        assert_eq!(
            (t.percentile, t.value, t.beyond, t.samples),
            (90.0, 90.0, 10, 100)
        );

        let xs: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(tail(&xs).map(|t| t.percentile), Some(90.0));

        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&xs).expect("1000 samples support p99");
        assert_eq!((t.percentile, t.value, t.beyond), (99.0, 990.0, 10));

        let xs: Vec<f64> = (1..=10_000).map(f64::from).collect();
        let t = tail(&xs).expect("10000 samples support p99.9");
        assert_eq!((t.percentile, t.value, t.beyond), (99.9, 9990.0, 10));
    }
}
