//! Order statistics and moments over `f64` samples.
//!
//! Percentiles, the median and the IQR find their order statistics by
//! selection, in linear time, with the bits a sort would give.
//!
//! All functions ignore nothing and assume finite inputs; callers are
//! responsible for filtering NaN/inf out of measured data first. Functions
//! that need at least one sample return [`None`] on empty input.

/// Arithmetic mean of `xs`, or `None` if `xs` is empty.
///
/// # Examples
///
/// ```
/// assert_eq!(pw_analysis::mean(&[1.0, 2.0, 3.0]), Some(2.0));
/// assert_eq!(pw_analysis::mean(&[]), None);
/// ```
pub fn mean(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    Some(xs.iter().sum::<f64>() / xs.len() as f64)
}

/// Population variance of `xs`, or `None` if `xs` is empty.
///
/// # Examples
///
/// ```
/// assert_eq!(pw_analysis::variance(&[1.0, 3.0]), Some(1.0));
/// ```
pub fn variance(xs: &[f64]) -> Option<f64> {
    let m = mean(xs)?;
    Some(xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64)
}

/// Population standard deviation of `xs`, or `None` if `xs` is empty.
///
/// # Examples
///
/// ```
/// assert_eq!(pw_analysis::std_dev(&[1.0, 3.0]), Some(1.0));
/// ```
pub fn std_dev(xs: &[f64]) -> Option<f64> {
    variance(xs).map(f64::sqrt)
}

/// The `p`-th percentile of `xs` with linear interpolation between order
/// statistics (the "linear"/"type 7" definition used by NumPy and R).
///
/// `p` is clamped to `[0, 100]`. Returns `None` if `xs` is empty.
///
/// # Examples
///
/// ```
/// let xs = [4.0, 1.0, 3.0, 2.0];
/// assert_eq!(pw_analysis::percentile(&xs, 0.0), Some(1.0));
/// assert_eq!(pw_analysis::percentile(&xs, 50.0), Some(2.5));
/// assert_eq!(pw_analysis::percentile(&xs, 100.0), Some(4.0));
/// ```
pub fn percentile(xs: &[f64], p: f64) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    Some(select_percentile(&mut xs.to_vec(), rank_of(xs.len(), p)))
}

/// Like [`percentile`], but for data already sorted ascending.
///
/// Use this when the sample is kept sorted anyway, as
/// [`Ecdf`](crate::Ecdf) keeps it.
///
/// # Panics
///
/// Panics if `xs` is empty.
pub fn percentile_sorted(xs: &[f64], p: f64) -> f64 {
    assert!(!xs.is_empty(), "percentile of empty sample");
    let r = rank_of(xs.len(), p);
    if r.lo == r.hi {
        xs[r.lo]
    } else {
        xs[r.lo] + (xs[r.hi] - xs[r.lo]) * r.frac
    }
}

/// Where a percentile falls among sorted values: the ranks either side of
/// it (`hi` is `lo` or `lo + 1`) and how far between them it lies.
struct Rank {
    lo: usize,
    hi: usize,
    frac: f64,
}

/// The [`Rank`] of the `p`-th percentile of `n ≥ 1` values, `p` clamped to
/// `[0, 100]` (a NaN `p` gives rank 0).
fn rank_of(n: usize, p: f64) -> Rank {
    let p = p.clamp(0.0, 100.0);
    let rank = p / 100.0 * (n - 1) as f64;
    let lo = rank.floor() as usize;
    Rank {
        lo,
        hi: rank.ceil() as usize,
        frac: rank - lo as f64,
    }
}

/// [`percentile_sorted`]'s value at rank `r` of `xs`, found by selection
/// instead of a sort, in O(n). Reorders `xs`, leaving the value of rank
/// `r.lo` at `xs[r.lo]`, every smaller one left of it and every larger one
/// right of it.
///
/// Selection and sort agree bit for bit: under `f64::total_cmp` two values
/// tie only if their bits are equal, so each rank holds one value however
/// the others end up ordered. The one difference is the sign and payload of
/// a NaN that the interpolation produces, which Rust leaves unspecified.
fn select_percentile(xs: &mut [f64], r: Rank) -> f64 {
    let (_, &mut lo, above) = xs.select_nth_unstable_by(r.lo, f64::total_cmp);
    if r.lo == r.hi {
        return lo;
    }
    // Rank `lo + 1` is the least of the unordered values above rank `lo`.
    let hi = above
        .iter()
        .copied()
        .min_by(f64::total_cmp)
        .expect("rank lo + 1 < n");
    lo + (hi - lo) * r.frac
}

/// Median (50th percentile) of `xs`, or `None` if empty.
///
/// # Examples
///
/// ```
/// assert_eq!(pw_analysis::median(&[3.0, 1.0, 2.0]), Some(2.0));
/// ```
pub fn median(xs: &[f64]) -> Option<f64> {
    percentile(xs, 50.0)
}

/// Inter-quartile range (75th − 25th percentile) of `xs`, or `None` if empty.
///
/// This is the "spread" term in the Freedman–Diaconis bin-width rule used by
/// the paper's `θ_hm` test (§IV-C).
///
/// # Examples
///
/// ```
/// let xs = [1.0, 2.0, 3.0, 4.0, 5.0];
/// assert_eq!(pw_analysis::iqr(&xs), Some(2.0));
/// ```
pub fn iqr(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut scratch = xs.to_vec();
    let (q1, q3) = (rank_of(xs.len(), 25.0), rank_of(xs.len(), 75.0));
    // After the upper quartile's selection, ranks 0..=q3.lo sit in
    // scratch[..=q3.lo]. Both ranks of the lower quartile lie there unless
    // there are only two values, when the two quartiles share their ranks.
    let below = if q1.hi <= q3.lo { q3.lo + 1 } else { xs.len() };
    let upper = select_percentile(&mut scratch, q3);
    Some(upper - select_percentile(&mut scratch[..below], q1))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_basic() {
        assert_eq!(mean(&[2.0, 4.0]), Some(3.0));
        assert_eq!(mean(&[5.0]), Some(5.0));
        assert_eq!(mean(&[]), None);
    }

    #[test]
    fn variance_and_std() {
        assert_eq!(variance(&[]), None);
        assert_eq!(variance(&[7.0]), Some(0.0));
        let v = variance(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]).unwrap();
        assert!((v - 4.0).abs() < 1e-12);
        assert!((std_dev(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]).unwrap() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn percentile_single_element() {
        assert_eq!(percentile(&[42.0], 0.0), Some(42.0));
        assert_eq!(percentile(&[42.0], 50.0), Some(42.0));
        assert_eq!(percentile(&[42.0], 100.0), Some(42.0));
    }

    #[test]
    fn percentile_interpolates() {
        let xs = [10.0, 20.0, 30.0, 40.0];
        assert_eq!(percentile(&xs, 25.0), Some(17.5));
        assert_eq!(percentile(&xs, 75.0), Some(32.5));
    }

    #[test]
    fn percentile_clamps_out_of_range() {
        let xs = [1.0, 2.0];
        assert_eq!(percentile(&xs, -5.0), Some(1.0));
        assert_eq!(percentile(&xs, 150.0), Some(2.0));
    }

    #[test]
    fn percentile_unsorted_input() {
        let xs = [9.0, 1.0, 5.0];
        assert_eq!(percentile(&xs, 50.0), Some(5.0));
    }

    #[test]
    fn median_even_and_odd() {
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), Some(2.5));
        assert_eq!(median(&[1.0, 2.0, 3.0]), Some(2.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn iqr_matches_hand_computation() {
        // sorted: 1 2 3 4 5; q1 = 2, q3 = 4.
        assert_eq!(iqr(&[5.0, 1.0, 4.0, 2.0, 3.0]), Some(2.0));
        assert_eq!(iqr(&[7.0]), Some(0.0));
        assert_eq!(iqr(&[]), None);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn percentile_sorted_panics_on_empty() {
        percentile_sorted(&[], 50.0);
    }
}
