//! Bounded-memory gap distributions: exact samples below a cap, a fixed
//! log-spaced histogram above.

use pw_analysis::Histogram;

/// Exact samples held before degrading to fixed bins. Campus-day hosts
/// rarely exceed a few hundred interstitial gaps per window, so they stay
/// exact and their θ_hm histograms match the exact tier bit-for-bit.
const SPARSE_CAP: usize = 512;
/// Dense bin count: one underflow bin, [`N_LOG_BINS`] log-spaced bins, one
/// overflow bin.
const N_BINS: usize = 256;
const N_LOG_BINS: usize = N_BINS - 2;
/// Log-spaced coverage in seconds: [1 ms, ~11.6 days), ≈ 3.9% relative
/// resolution per bin — far finer than the Freedman–Diaconis widths θ_hm
/// sees on real hosts.
const GAP_MIN: f64 = 1e-3;
const GAP_MAX: f64 = 1e6;
const SPAN_DECADES: f64 = 9.0;

/// A distribution of interstitial gaps (seconds, non-negative).
///
/// State is a pure function of the inserted *multiset*: insertion order
/// and merge grouping are invisible, so shard-merged results are
/// bit-identical to single-threaded accumulation.
///
/// Deliberately *not* a GK or t-digest quantile sketch: those compress
/// adaptively and their merges depend on stream order, which would break
/// the bit-identical merge law. Fixed bins resolve ~3.9% per bin over nine
/// decades instead, and [`GapSketch::point_masses`] returns them as the
/// point masses the θ_hm distance consumes.
#[derive(Debug, Clone, PartialEq)]
pub struct GapSketch {
    state: State,
}

#[derive(Debug, Clone, PartialEq)]
enum State {
    /// Exact samples, sorted by `f64::total_cmp`.
    Sparse(Vec<f64>),
    /// Fixed-bin counts plus the total sample count.
    Dense {
        counts: Box<[u64; N_BINS]>,
        total: u64,
    },
}

impl Default for GapSketch {
    fn default() -> Self {
        Self::new()
    }
}

impl GapSketch {
    /// Worst-case heap + inline footprint, for the per-host byte budget.
    pub const MAX_BYTES: usize = std::mem::size_of::<Self>()
        + if SPARSE_CAP * std::mem::size_of::<f64>() > N_BINS * std::mem::size_of::<u64>() {
            SPARSE_CAP * std::mem::size_of::<f64>()
        } else {
            N_BINS * std::mem::size_of::<u64>()
        };

    /// An empty sketch.
    #[must_use]
    pub fn new() -> Self {
        Self {
            state: State::Sparse(Vec::new()),
        }
    }

    /// Records one gap in seconds. Negative or non-finite inputs (which
    /// the accumulators never produce — gaps are differences of ordered
    /// timestamps) are clamped into the underflow bin deterministically.
    pub fn record(&mut self, gap_secs: f64) {
        let g = if gap_secs.is_finite() && gap_secs >= 0.0 {
            gap_secs
        } else {
            0.0
        };
        match &mut self.state {
            State::Sparse(samples) => {
                let pos = samples.partition_point(|s| s.total_cmp(&g).is_lt());
                samples.insert(pos, g);
                if samples.len() > SPARSE_CAP {
                    self.densify();
                }
            }
            State::Dense { counts, total } => {
                counts[bin_of(g)] += 1;
                *total += 1;
            }
        }
    }

    /// Number of gaps recorded.
    #[must_use]
    pub fn count(&self) -> u64 {
        match &self.state {
            State::Sparse(samples) => samples.len() as u64,
            State::Dense { total, .. } => *total,
        }
    }

    /// Whether no gaps were recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.count() == 0
    }

    /// The exact samples (sorted), while the sketch is still sparse.
    #[must_use]
    pub fn samples(&self) -> Option<&[f64]> {
        match &self.state {
            State::Sparse(samples) => Some(samples),
            State::Dense { .. } => None,
        }
    }

    /// The dense bins as normalized point masses `(bin centre, probability)`,
    /// skipping empty bins — the same shape [`Histogram::point_masses`]
    /// produces. `None` while sparse (use the exact samples instead).
    #[must_use]
    pub fn binned_masses(&self) -> Option<Vec<(f64, f64)>> {
        match &self.state {
            State::Sparse(_) => None,
            State::Dense { counts, total } => Some(
                counts
                    .iter()
                    .enumerate()
                    .filter(|&(_, &c)| c > 0)
                    .map(|(i, &c)| (bin_center(i), c as f64 / *total as f64))
                    .collect(),
            ),
        }
    }

    /// Point masses for histogram-shaped consumers (the θ_hm L1 distance):
    /// sparse samples go through the same [`Histogram`] construction the
    /// exact tier uses (Freedman–Diaconis, or the given width), dense bins
    /// are returned directly. `None` when no gaps were recorded.
    #[must_use]
    pub fn point_masses(&self, bin_width: Option<f64>) -> Option<Vec<(f64, f64)>> {
        match &self.state {
            State::Sparse(samples) => {
                let h = match bin_width {
                    None => Histogram::freedman_diaconis(samples)?,
                    Some(w) => Histogram::with_bin_width(samples, w)?,
                };
                Some(h.point_masses())
            }
            State::Dense { .. } => self.binned_masses(),
        }
    }

    /// Folds `other` in. Commutative and associative bit-for-bit.
    pub fn merge(&mut self, other: &Self) {
        match (&mut self.state, &other.state) {
            (State::Sparse(a), State::Sparse(b)) => {
                let mut merged = Vec::with_capacity(a.len() + b.len());
                let (mut i, mut j) = (0, 0);
                while i < a.len() || j < b.len() {
                    match (a.get(i), b.get(j)) {
                        (Some(&x), Some(&y)) if x.total_cmp(&y).is_le() => {
                            merged.push(x);
                            i += 1;
                        }
                        (Some(_), Some(&y)) => {
                            merged.push(y);
                            j += 1;
                        }
                        (Some(&x), None) => {
                            merged.push(x);
                            i += 1;
                        }
                        (None, Some(&y)) => {
                            merged.push(y);
                            j += 1;
                        }
                        (None, None) => unreachable!(),
                    }
                }
                *a = merged;
                if a.len() > SPARSE_CAP {
                    self.densify();
                }
            }
            (State::Dense { counts, total }, State::Sparse(b)) => {
                for &g in b {
                    counts[bin_of(g)] += 1;
                }
                *total += b.len() as u64;
            }
            (State::Sparse(_), State::Dense { .. }) => {
                self.densify();
                self.merge(other);
            }
            (
                State::Dense { counts, total },
                State::Dense {
                    counts: oc,
                    total: ot,
                },
            ) => {
                for (a, &b) in counts.iter_mut().zip(oc.iter()) {
                    *a += b;
                }
                *total += *ot;
            }
        }
    }

    /// Current heap + inline footprint estimate in bytes.
    #[must_use]
    pub fn estimated_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + match &self.state {
                State::Sparse(samples) => samples.len() * std::mem::size_of::<f64>(),
                State::Dense { .. } => N_BINS * std::mem::size_of::<u64>(),
            }
    }

    /// FNV-1a digest of the exact state bytes, for bit-identity assertions
    /// in tests.
    #[must_use]
    pub fn digest(&self) -> u64 {
        let mut h = 0xCBF2_9CE4_8422_2325u64;
        let mut eat = |byte: u8| {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        };
        match &self.state {
            State::Sparse(samples) => {
                eat(1);
                for s in samples {
                    s.to_bits().to_le_bytes().into_iter().for_each(&mut eat);
                }
            }
            State::Dense { counts, total } => {
                eat(2);
                total.to_le_bytes().into_iter().for_each(&mut eat);
                for c in counts.iter() {
                    c.to_le_bytes().into_iter().for_each(&mut eat);
                }
            }
        }
        h
    }

    fn densify(&mut self) {
        if let State::Sparse(samples) = &self.state {
            let mut counts = Box::new([0u64; N_BINS]);
            for &g in samples {
                counts[bin_of(g)] += 1;
            }
            let total = samples.len() as u64;
            self.state = State::Dense { counts, total };
        }
    }
}

/// Deterministic bin index for a non-negative gap.
fn bin_of(g: f64) -> usize {
    if g < GAP_MIN {
        0
    } else if g >= GAP_MAX {
        N_BINS - 1
    } else {
        let pos = (g / GAP_MIN).log10() * (N_LOG_BINS as f64 / SPAN_DECADES);
        (pos as usize).min(N_LOG_BINS - 1) + 1
    }
}

/// Value-axis centre of bin `i` (geometric midpoint for the log bins).
fn bin_center(i: usize) -> f64 {
    if i == 0 {
        GAP_MIN / 2.0
    } else if i == N_BINS - 1 {
        GAP_MAX
    } else {
        GAP_MIN * 10f64.powf((i as f64 - 0.5) * (SPAN_DECADES / N_LOG_BINS as f64))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pw_analysis::CdfRepr;

    #[test]
    fn sparse_keeps_exact_sorted_samples() {
        let mut s = GapSketch::new();
        for g in [30.0, 1.0, 300.0, 1.0] {
            s.record(g);
        }
        assert_eq!(s.samples(), Some(&[1.0, 1.0, 30.0, 300.0][..]));
        assert_eq!(s.count(), 4);
    }

    #[test]
    fn bins_tile_the_range_monotonically() {
        let mut last = 0usize;
        let mut g = GAP_MIN / 2.0;
        while g < GAP_MAX * 2.0 {
            let b = bin_of(g);
            assert!(b >= last, "bin index regressed at {g}");
            assert!(b < N_BINS);
            // The centre of a log bin stays inside ~one bin width of g.
            if b > 0 && b < N_BINS - 1 {
                let ratio = bin_center(b) / g;
                assert!((0.8..1.25).contains(&ratio), "centre drift at {g}: {ratio}");
            }
            last = b;
            g *= 1.07;
        }
        assert_eq!(bin_of(0.0), 0);
        assert_eq!(bin_of(GAP_MAX), N_BINS - 1);
    }

    #[test]
    fn densifies_past_cap_and_preserves_mass() {
        let mut s = GapSketch::new();
        for i in 0..2000 {
            s.record(1.0 + i as f64);
        }
        assert!(s.samples().is_none());
        assert_eq!(s.count(), 2000);
        let masses = s.binned_masses().expect("dense");
        let total: f64 = masses.iter().map(|&(_, m)| m).sum();
        assert!((total - 1.0).abs() < 1e-12);
        assert!(s.estimated_bytes() <= GapSketch::MAX_BYTES);
    }

    #[test]
    fn merge_matches_single_sketch_across_the_density_boundary() {
        for n in [20usize, 500, 600, 3000] {
            let gaps: Vec<f64> = (0..n).map(|i| 0.5 + (i % 97) as f64 * 7.3).collect();
            let mut whole = GapSketch::new();
            gaps.iter().for_each(|&g| whole.record(g));
            let (lo, hi) = gaps.split_at(n / 3);
            let mut a = GapSketch::new();
            let mut b = GapSketch::new();
            lo.iter().for_each(|&g| a.record(g));
            hi.iter().for_each(|&g| b.record(g));
            a.merge(&b);
            assert_eq!(a, whole, "n={n}");
            assert_eq!(a.digest(), whole.digest());
        }
    }

    #[test]
    fn sparse_cdf_matches_exact_histogram_path() {
        let gaps: Vec<f64> = (0..100).map(|i| 1.0 + (i % 13) as f64 * 11.0).collect();
        let mut s = GapSketch::new();
        gaps.iter().for_each(|&g| s.record(g));
        // Histogram construction is order-independent, so the sorted
        // sketch samples digest to the same CDF as the raw sequence.
        let h = Histogram::freedman_diaconis(&gaps).expect("non-empty");
        let exact = CdfRepr::from_histogram(&h);
        let masses = s.point_masses(None).expect("non-empty");
        assert_eq!(CdfRepr::from_point_masses(&masses), exact);
    }

    #[test]
    fn empty_sketch_lowers_to_nothing() {
        let s = GapSketch::new();
        assert!(s.is_empty());
        assert_eq!(s.point_masses(None), None);
    }
}
