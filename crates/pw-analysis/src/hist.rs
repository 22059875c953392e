//! Histogram density estimation.
//!
//! The paper's human-vs-machine test (`θ_hm`, §IV-C) approximates each host's
//! per-destination flow interstitial-time distribution with a histogram whose
//! bin width follows the Freedman–Diaconis rule
//! `b = 2 · IQR(v) · |v|^(-1/3)`, which minimizes the mean-squared error
//! between histogram and true density. [`Histogram::freedman_diaconis`]
//! implements exactly that, with documented fallbacks for degenerate samples.

use serde::{Deserialize, Serialize};

use crate::stats::iqr;

/// Maximum number of bins a histogram constructor will create.
///
/// The FD rule can explode for heavy-tailed samples whose IQR is tiny
/// relative to their range; capping bins bounds memory while keeping the
/// estimate faithful for the distributions that matter here (interstitial
/// times within one day).
pub const MAX_BINS: usize = 4096;

/// A one-dimensional histogram over `f64` values.
///
/// Bins are uniform-width, covering `[min, max]` of the construction sample;
/// the final bin is closed on the right so `max` itself is counted.
///
/// # Examples
///
/// ```
/// use pw_analysis::Histogram;
///
/// let h = Histogram::with_bin_width(&[0.0, 0.4, 1.2, 1.3], 1.0).unwrap();
/// assert_eq!(h.num_bins(), 2);
/// assert_eq!(h.counts(), &[2.0, 2.0]);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Histogram {
    origin: f64,
    bin_width: f64,
    counts: Vec<f64>,
    total: f64,
}

impl Histogram {
    /// Builds a histogram using the Freedman–Diaconis bin-width rule.
    ///
    /// Returns `None` if `samples` is empty.
    ///
    /// Fallbacks for degenerate inputs (both documented in DESIGN.md):
    /// - if the FD width is zero (IQR = 0, e.g. perfectly periodic traffic),
    ///   the width falls back to `range / sqrt(n)` and, if the range is also
    ///   zero (all samples identical), to a single bin of width 1 centred on
    ///   the value;
    /// - the bin count is capped at [`MAX_BINS`].
    ///
    /// # Examples
    ///
    /// ```
    /// use pw_analysis::Histogram;
    ///
    /// let samples: Vec<f64> = (0..100).map(|i| i as f64).collect();
    /// let h = Histogram::freedman_diaconis(&samples).unwrap();
    /// assert!((h.total_mass() - 100.0).abs() < 1e-9);
    /// ```
    pub fn freedman_diaconis(samples: &[f64]) -> Option<Self> {
        if samples.is_empty() {
            return None;
        }
        let n = samples.len() as f64;
        let spread = iqr(samples).expect("non-empty");
        let mut width = 2.0 * spread * n.powf(-1.0 / 3.0);
        let extent = extent(samples);
        let range = extent.1 - extent.0;
        if width <= 0.0 {
            width = if range > 0.0 { range / n.sqrt() } else { 1.0 };
        }
        Self::binned(samples, extent, width)
    }

    /// Builds a histogram with an explicit `bin_width` over `samples`.
    ///
    /// Returns `None` if `samples` is empty. The number of bins is capped at
    /// [`MAX_BINS`] (the width is widened to compensate).
    ///
    /// # Panics
    ///
    /// Panics if `bin_width` is not finite and positive.
    pub fn with_bin_width(samples: &[f64], bin_width: f64) -> Option<Self> {
        Self::binned(samples, extent(samples), bin_width)
    }

    /// Bins `samples`, whose `(min, max)` is `extent`, at `bin_width`,
    /// widened where it would need more than [`MAX_BINS`] bins; the step
    /// both constructors share.
    fn binned(samples: &[f64], (min, max): (f64, f64), bin_width: f64) -> Option<Self> {
        assert!(
            bin_width.is_finite() && bin_width > 0.0,
            "bin width must be finite and positive"
        );
        if samples.is_empty() {
            return None;
        }
        let range = max - min;
        let mut width = bin_width;
        // `max` itself lands in the closed last bin, even on an exact edge.
        let mut bins = ((range / width).ceil() as usize).max(1);
        if bins > MAX_BINS {
            bins = MAX_BINS;
            width = range / bins as f64;
        }
        let mut counts = vec![0.0; bins];
        for &s in samples {
            let mut idx = ((s - min) / width) as usize;
            if idx >= bins {
                idx = bins - 1; // s == max (or fp rounding): closed last bin
            }
            counts[idx] += 1.0;
        }
        Some(Self {
            origin: min,
            bin_width: width,
            counts,
            total: samples.len() as f64,
        })
    }

    /// Number of bins.
    pub fn num_bins(&self) -> usize {
        self.counts.len()
    }

    /// Bin width in the sample's units.
    pub fn bin_width(&self) -> f64 {
        self.bin_width
    }

    /// Left edge of the first bin.
    pub fn origin(&self) -> f64 {
        self.origin
    }

    /// Raw per-bin counts.
    pub fn counts(&self) -> &[f64] {
        &self.counts
    }

    /// Sum of all counts (the construction sample size).
    pub fn total_mass(&self) -> f64 {
        self.total
    }

    /// Centre of bin `i` on the value axis.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.num_bins()`.
    pub fn bin_center(&self, i: usize) -> f64 {
        assert!(i < self.counts.len(), "bin index out of range");
        self.origin + (i as f64 + 0.5) * self.bin_width
    }

    /// The histogram as normalized point masses `(bin centre, probability)`,
    /// skipping empty bins. Masses sum to 1 for non-empty histograms.
    ///
    /// This is the representation consumed by
    /// [`emd_1d`](crate::emd::emd_1d).
    pub fn point_masses(&self) -> Vec<(f64, f64)> {
        if self.total == 0.0 {
            return Vec::new();
        }
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0.0)
            .map(|(i, &c)| (self.bin_center(i), c / self.total))
            .collect()
    }
}

/// `(min, max)` of `samples` in one pass, by the `f64::min`/`f64::max`
/// left folds (so NaN samples are skipped); `(inf, -inf)` when empty.
fn extent(samples: &[f64]) -> (f64, f64) {
    samples
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &s| {
            (lo.min(s), hi.max(s))
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_samples_return_none() {
        assert!(Histogram::freedman_diaconis(&[]).is_none());
        assert!(Histogram::with_bin_width(&[], 1.0).is_none());
    }

    #[test]
    fn fd_rule_matches_formula() {
        // 8 evenly spaced samples: IQR = 3.5, n^{-1/3} = 0.5, b = 3.5.
        let xs: Vec<f64> = (0..8).map(|i| i as f64).collect();
        let h = Histogram::freedman_diaconis(&xs).unwrap();
        assert!((h.bin_width() - 3.5).abs() < 1e-12);
        assert_eq!(h.num_bins(), 2);
    }

    #[test]
    fn identical_samples_single_bin() {
        let h = Histogram::freedman_diaconis(&[5.0; 10]).unwrap();
        assert_eq!(h.num_bins(), 1);
        assert_eq!(h.counts(), &[10.0]);
        assert_eq!(h.total_mass(), 10.0);
    }

    #[test]
    fn zero_iqr_nonzero_range_falls_back() {
        // Mostly one value with outliers: IQR = 0 but range > 0.
        let mut xs = vec![1.0; 20];
        xs.push(100.0);
        let h = Histogram::freedman_diaconis(&xs).unwrap();
        assert!(h.num_bins() >= 2);
        assert!((h.total_mass() - 21.0).abs() < 1e-12);
    }

    #[test]
    fn mass_is_conserved() {
        let xs: Vec<f64> = (0..1000).map(|i| (i as f64).sin() * 50.0).collect();
        let h = Histogram::freedman_diaconis(&xs).unwrap();
        assert!((h.counts().iter().sum::<f64>() - 1000.0).abs() < 1e-9);
    }

    #[test]
    fn max_lands_in_last_bin() {
        let h = Histogram::with_bin_width(&[0.0, 1.0, 2.0], 1.0).unwrap();
        assert_eq!(h.num_bins(), 2);
        assert_eq!(h.counts(), &[1.0, 2.0]);
    }

    #[test]
    fn bin_cap_enforced() {
        // Tiny width over wide range would want millions of bins.
        let h = Histogram::with_bin_width(&[0.0, 1.0e9], 0.001).unwrap();
        assert_eq!(h.num_bins(), MAX_BINS);
        assert!((h.total_mass() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn point_masses_normalized_and_sparse() {
        let h = Histogram::with_bin_width(&[0.0, 0.1, 10.0], 1.0).unwrap();
        let pm = h.point_masses();
        assert_eq!(pm.len(), 2); // middle bins empty and skipped
        let mass: f64 = pm.iter().map(|&(_, w)| w).sum();
        assert!((mass - 1.0).abs() < 1e-12);
    }

    #[test]
    fn bin_center_positions() {
        let h = Histogram::with_bin_width(&[0.0, 4.0], 2.0).unwrap();
        assert_eq!(h.bin_center(0), 1.0);
        assert_eq!(h.bin_center(1), 3.0);
    }

    #[test]
    #[should_panic(expected = "bin width")]
    fn invalid_width_panics() {
        let _ = Histogram::with_bin_width(&[1.0], 0.0);
    }

    #[test]
    #[should_panic(expected = "bin width")]
    fn unfittable_fd_width_panics() {
        // The quartiles interpolate `-inf + inf`, so the IQR is NaN.
        let _ = Histogram::freedman_diaconis(&[f64::NEG_INFINITY, f64::INFINITY]);
    }
}
