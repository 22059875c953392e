//! Property-based tests for the statistical substrate.

use proptest::prelude::*;
use pw_analysis::hist::MAX_BINS;
use pw_analysis::{
    average_linkage, bucketed_average_linkage, embedding_lower_bound, emd_1d, emd_cdf, iqr,
    kmeans_partition, median, percentile, quantile_embedding, CdfRepr, Dendrogram, DistanceMatrix,
    Ecdf, Histogram,
};

fn finite_samples(max_len: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-1.0e6f64..1.0e6, 1..max_len)
}

/// Values that make order statistics awkward: both zeros, both
/// infinities, NaN of either sign, the smallest normal and subnormal
/// magnitudes and the extremes.
const SPECIALS: [f64; 11] = [
    0.0,
    -0.0,
    f64::INFINITY,
    f64::NEG_INFINITY,
    f64::NAN,
    -f64::NAN,
    f64::MIN_POSITIVE,
    5e-324,
    -5e-324,
    f64::MAX,
    f64::MIN,
];

/// Sample vectors of 1 to 5,000 values, each drawn whole from one regime:
/// raw bit patterns (any NaN payload, subnormals, ±inf), a mix of raw bits
/// with specials and a few repeated values, short special-heavy vectors,
/// heavy ties whose least value is a tie of `0.0` and `-0.0`, subnormals
/// and signed zeros alone, and finite values with ties.
fn hostile_samples() -> impl Strategy<Value = Vec<f64>> {
    let raw = || any::<u64>().prop_map(f64::from_bits);
    let special = || (0..SPECIALS.len()).prop_map(|k| SPECIALS[k]);
    let tie = || (0u8..4).prop_map(f64::from);
    let subnormal = || any::<u64>().prop_map(|b| f64::from_bits(b & 0x800F_FFFF_FFFF_FFFF));
    prop_oneof![
        prop::collection::vec(raw(), 1..5001),
        prop::collection::vec(prop_oneof![raw(), special(), tie(), subnormal()], 1..5001),
        prop::collection::vec(prop_oneof![special(), tie()], 1..64),
        prop::collection::vec(prop_oneof![Just(-0.0), tie()], 1..5001),
        prop::collection::vec(subnormal(), 1..5001),
        prop::collection::vec(prop_oneof![-1.0e6f64..1.0e6, tie()], 1..5001),
    ]
}

/// Percentiles from below the clamp to above it, the quartiles, and NaN.
fn percent() -> impl Strategy<Value = f64> {
    prop_oneof![
        -10.0f64..110.0,
        Just(f64::NAN),
        Just(0.0),
        Just(25.0),
        Just(50.0),
        Just(75.0),
        Just(100.0),
    ]
}

/// The order statistics as they were computed before selection: sort a
/// copy in the total order, then interpolate between neighbouring ranks.
fn sorted_percentile(xs: &[f64], p: f64) -> f64 {
    let mut sorted = xs.to_vec();
    sorted.sort_unstable_by(f64::total_cmp);
    percentile_of_sorted(&sorted, p)
}

fn sorted_iqr(xs: &[f64]) -> f64 {
    let mut sorted = xs.to_vec();
    sorted.sort_unstable_by(f64::total_cmp);
    percentile_of_sorted(&sorted, 75.0) - percentile_of_sorted(&sorted, 25.0)
}

fn percentile_of_sorted(xs: &[f64], p: f64) -> f64 {
    let p = p.clamp(0.0, 100.0);
    let rank = p / 100.0 * (xs.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        xs[lo]
    } else {
        let frac = rank - lo as f64;
        xs[lo] + (xs[hi] - xs[lo]) * frac
    }
}

/// `got` has `want`'s bits. Where `want` is NaN, any NaN will do: Rust
/// leaves the sign and payload of a NaN that arithmetic produces
/// unspecified, so two correct evaluations may disagree on them.
fn same_bits(got: f64, want: f64) -> bool {
    if want.is_nan() {
        got.is_nan()
    } else {
        got.to_bits() == want.to_bits()
    }
}

/// A histogram's fields, as the two-fold constructors below build them.
#[derive(Debug)]
struct OracleHistogram {
    origin: f64,
    width: f64,
    counts: Vec<f64>,
    total: f64,
}

/// The Freedman–Diaconis constructor as it was before the single range
/// pass, over the sort-based IQR. `None` where it would panic on a bin
/// width that is not finite and positive.
fn two_fold_freedman_diaconis(samples: &[f64]) -> Option<OracleHistogram> {
    let n = samples.len() as f64;
    let spread = sorted_iqr(samples);
    let mut width = 2.0 * spread * n.powf(-1.0 / 3.0);
    let min = samples.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = samples.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let range = max - min;
    if width <= 0.0 {
        width = if range > 0.0 { range / n.sqrt() } else { 1.0 };
    }
    (width.is_finite() && width > 0.0).then(|| two_fold_with_bin_width(samples, width))
}

/// `Histogram::with_bin_width` as it was, for a valid width and a
/// non-empty sample.
fn two_fold_with_bin_width(samples: &[f64], bin_width: f64) -> OracleHistogram {
    let min = samples.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = samples.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let range = max - min;
    let mut width = bin_width;
    let mut bins = ((range / width).ceil() as usize).max(1);
    if bins > MAX_BINS {
        bins = MAX_BINS;
        width = range / bins as f64;
    }
    let mut counts = vec![0.0; bins];
    for &s in samples {
        let mut idx = ((s - min) / width) as usize;
        if idx >= bins {
            idx = bins - 1;
        }
        counts[idx] += 1.0;
    }
    OracleHistogram {
        origin: min,
        width,
        counts,
        total: samples.len() as f64,
    }
}

/// `got` and `want` agree field by field, bit for bit.
fn same_histogram(got: &Histogram, want: &OracleHistogram) -> bool {
    same_bits(got.origin(), want.origin)
        && same_bits(got.bin_width(), want.width)
        && same_bits(got.total_mass(), want.total)
        && got.counts().len() == want.counts.len()
        && got
            .counts()
            .iter()
            .zip(&want.counts)
            .all(|(&g, &w)| same_bits(g, w))
}

#[test]
fn histogram_oracle_holds_past_the_bin_cap_and_at_zero_iqr() {
    // A unit spread with one far outlier: the FD width asks for about
    // 10^10 bins, capped at MAX_BINS.
    let mut wide: Vec<f64> = (0..1_000).map(|i| f64::from(i) / 1_000.0).collect();
    wide.push(1.0e9);
    // Zero IQR with a nonzero range takes the `range / sqrt(n)` fallback;
    // identical samples take the single unit bin.
    let mut flat = vec![1.0; 20];
    flat.push(100.0);
    // Ties of `0.0` and `-0.0` at the minimum, in both orders: the origin
    // keeps whichever zero the `f64::min` fold keeps.
    let cases = [
        wide,
        flat,
        vec![5.0; 10],
        vec![-0.0, 0.0, -0.0],
        vec![0.0, -0.0, 3.0, 0.0],
    ];
    for xs in &cases {
        let got = Histogram::freedman_diaconis(xs).unwrap();
        let want = two_fold_freedman_diaconis(xs).unwrap();
        assert!(same_histogram(&got, &want), "{got:?} vs {want:?}");
    }
    assert_eq!(
        Histogram::freedman_diaconis(&cases[0]).unwrap().num_bins(),
        MAX_BINS
    );
    assert!(iqr(&cases[1]).unwrap() == 0.0);
    let got = Histogram::with_bin_width(&[0.0, 1.0e9], 0.001).unwrap();
    let want = two_fold_with_bin_width(&[0.0, 1.0e9], 0.001);
    assert_eq!(got.num_bins(), MAX_BINS);
    assert!(same_histogram(&got, &want), "{got:?} vs {want:?}");
    // Empty samples have no order statistics and no histogram.
    assert_eq!(percentile(&[], 50.0), None);
    assert_eq!(median(&[]), None);
    assert_eq!(iqr(&[]), None);
    assert!(Histogram::freedman_diaconis(&[]).is_none());
}

fn masses(max_len: usize) -> impl Strategy<Value = Vec<(f64, f64)>> {
    prop::collection::vec((-1.0e4f64..1.0e4, 0.01f64..10.0), 1..max_len)
}

/// Builds an `n`-leaf matrix from a flat entry pool (the pool is drawn at
/// the largest size the test may need and indexed condensed-style).
fn matrix_from_pool(n: usize, pool: &[f64]) -> DistanceMatrix {
    DistanceMatrix::from_fn(n, |i, j| pool[i * n - i * (i + 1) / 2 + (j - i - 1)])
}

/// Mean pairwise distance between two leaf sets, straight from the input
/// matrix — the definitional average-linkage merge height.
fn avg_leaf_distance(dm: &DistanceMatrix, a: &[usize], b: &[usize]) -> f64 {
    let mut sum = 0.0;
    for &i in a {
        for &j in b {
            sum += dm.get(i, j);
        }
    }
    sum / (a.len() * b.len()) as f64
}

/// O(n^3) textbook UPGMA: scan all cluster pairs for the global minimum
/// average distance (first pair in ascending scan order on ties), merge,
/// repeat. Returns each merge as (left leaves, right leaves, height).
#[allow(clippy::type_complexity)]
fn naive_upgma(dm: &DistanceMatrix) -> Vec<(Vec<usize>, Vec<usize>, f64)> {
    let mut clusters: Vec<Vec<usize>> = (0..dm.len()).map(|i| vec![i]).collect();
    let mut merges = Vec::new();
    while clusters.len() > 1 {
        let (mut bi, mut bj) = (0, 1);
        let mut best = f64::INFINITY;
        for i in 0..clusters.len() {
            for j in (i + 1)..clusters.len() {
                let d = avg_leaf_distance(dm, &clusters[i], &clusters[j]);
                if d < best {
                    best = d;
                    (bi, bj) = (i, j);
                }
            }
        }
        let right = clusters.remove(bj);
        let left = clusters[bi].clone();
        merges.push((left.clone(), right.clone(), best));
        clusters[bi].extend(right.iter().copied());
        clusters[bi].sort_unstable();
    }
    merges
}

/// Expands a dendrogram's SciPy-style merge ids back into the two child
/// leaf sets (sorted) of every merge.
#[allow(clippy::type_complexity)]
fn merge_leaf_sets(dd: &Dendrogram) -> Vec<(Vec<usize>, Vec<usize>, f64)> {
    let n = dd.n_leaves();
    let mut sets: Vec<Vec<usize>> = (0..n).map(|i| vec![i]).collect();
    let mut out = Vec::new();
    for m in dd.merges() {
        let a = sets[m.left].clone();
        let b = sets[m.right].clone();
        let mut union = a.clone();
        union.extend(b.iter().copied());
        union.sort_unstable();
        out.push((a, b, m.height));
        sets.push(union);
    }
    out
}

proptest! {
    /// Selection finds the order statistics a sort would, bit for bit, on
    /// any input the total order can rank.
    #[test]
    fn order_statistics_match_the_sort_oracle_bitwise(xs in hostile_samples(), p in percent()) {
        let (got, want) = (percentile(&xs, p).unwrap(), sorted_percentile(&xs, p));
        prop_assert!(same_bits(got, want), "percentile {p}: {got:?} vs {want:?}");
        let (got, want) = (median(&xs).unwrap(), sorted_percentile(&xs, 50.0));
        prop_assert!(same_bits(got, want), "median: {got:?} vs {want:?}");
        let (got, want) = (iqr(&xs).unwrap(), sorted_iqr(&xs));
        prop_assert!(same_bits(got, want), "iqr: {got:?} vs {want:?}");
    }

    /// One range pass and the selected IQR build the histograms the two
    /// folds and the sort did, field by field, bit for bit. Samples whose
    /// FD width is NaN or infinite panic on both sides and are skipped.
    #[test]
    fn histograms_match_the_two_fold_oracle_bitwise(
        xs in hostile_samples(),
        width in prop_oneof![1.0e-3f64..1.0e3, Just(f64::MIN_POSITIVE), Just(1.0e300)],
    ) {
        if let Some(want) = two_fold_freedman_diaconis(&xs) {
            let got = Histogram::freedman_diaconis(&xs).unwrap();
            prop_assert!(same_histogram(&got, &want), "{got:?} vs {want:?}");
        }
        let got = Histogram::with_bin_width(&xs, width).unwrap();
        let want = two_fold_with_bin_width(&xs, width);
        prop_assert!(same_histogram(&got, &want), "width {width}: {got:?} vs {want:?}");
    }

    #[test]
    fn percentile_is_monotone_in_p(xs in finite_samples(64), p1 in 0.0f64..100.0, p2 in 0.0f64..100.0) {
        let (lo, hi) = if p1 <= p2 { (p1, p2) } else { (p2, p1) };
        let a = percentile(&xs, lo).unwrap();
        let b = percentile(&xs, hi).unwrap();
        prop_assert!(a <= b + 1e-9);
    }

    #[test]
    fn percentile_within_sample_range(xs in finite_samples(64), p in 0.0f64..100.0) {
        let v = percentile(&xs, p).unwrap();
        let min = xs.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(v >= min - 1e-9 && v <= max + 1e-9);
    }

    #[test]
    fn iqr_is_nonnegative(xs in finite_samples(64)) {
        prop_assert!(iqr(&xs).unwrap() >= 0.0);
    }

    #[test]
    fn histogram_conserves_mass(xs in finite_samples(256)) {
        let h = Histogram::freedman_diaconis(&xs).unwrap();
        let total: f64 = h.counts().iter().sum();
        prop_assert!((total - xs.len() as f64).abs() < 1e-6);
    }

    #[test]
    fn histogram_point_masses_sum_to_one(xs in finite_samples(256)) {
        let h = Histogram::freedman_diaconis(&xs).unwrap();
        let mass: f64 = h.point_masses().iter().map(|&(_, w)| w).sum();
        prop_assert!((mass - 1.0).abs() < 1e-9);
    }

    #[test]
    fn emd_identity(a in masses(32)) {
        prop_assert!(emd_1d(&a, &a) < 1e-9);
    }

    #[test]
    fn emd_symmetry(a in masses(32), b in masses(32)) {
        let ab = emd_1d(&a, &b);
        let ba = emd_1d(&b, &a);
        prop_assert!((ab - ba).abs() < 1e-9);
    }

    #[test]
    fn emd_triangle_inequality(a in masses(16), b in masses(16), c in masses(16)) {
        let ab = emd_1d(&a, &b);
        let bc = emd_1d(&b, &c);
        let ac = emd_1d(&a, &c);
        prop_assert!(ac <= ab + bc + 1e-6);
    }

    #[test]
    fn emd_nonnegative_and_bounded_by_span(a in masses(32), b in masses(32)) {
        let d = emd_1d(&a, &b);
        prop_assert!(d >= 0.0);
        let lo = a.iter().chain(&b).map(|&(x, _)| x).fold(f64::INFINITY, f64::min);
        let hi = a.iter().chain(&b).map(|&(x, _)| x).fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(d <= (hi - lo) + 1e-9);
    }

    #[test]
    fn ecdf_is_monotone(xs in finite_samples(64), q1 in -1.0e6f64..1.0e6, q2 in -1.0e6f64..1.0e6) {
        let cdf = Ecdf::new(xs);
        let (lo, hi) = if q1 <= q2 { (q1, q2) } else { (q2, q1) };
        prop_assert!(cdf.eval(lo) <= cdf.eval(hi));
    }

    #[test]
    fn dendrogram_cut_is_partition(pos in prop::collection::vec(-1.0e3f64..1.0e3, 2..24), f in 0.0f64..1.0) {
        let n = pos.len();
        let dm = DistanceMatrix::from_fn(n, |i, j| (pos[i] - pos[j]).abs());
        let dd = average_linkage(&dm);
        let clusters = dd.cut_top_fraction(f);
        let mut all: Vec<usize> = clusters.iter().flatten().copied().collect();
        all.sort_unstable();
        prop_assert_eq!(all, (0..n).collect::<Vec<_>>());
    }

    #[test]
    fn dendrogram_heights_sorted(pos in prop::collection::vec(-1.0e3f64..1.0e3, 2..24)) {
        let n = pos.len();
        let dm = DistanceMatrix::from_fn(n, |i, j| (pos[i] - pos[j]).abs());
        let dd = average_linkage(&dm);
        prop_assert_eq!(dd.merges().len(), n - 1);
        for w in dd.merges().windows(2) {
            prop_assert!(w[1].height >= w[0].height - 1e-9);
        }
    }

    #[test]
    fn cluster_diameter_bounded_by_global_max(pos in prop::collection::vec(-1.0e3f64..1.0e3, 2..24)) {
        let n = pos.len();
        let dm = DistanceMatrix::from_fn(n, |i, j| (pos[i] - pos[j]).abs());
        let global = dm.diameter(&(0..n).collect::<Vec<_>>());
        let dd = average_linkage(&dm);
        for cl in dd.cut_top_fraction(0.3) {
            prop_assert!(dm.diameter(&cl) <= global + 1e-9);
        }
    }

    /// The prefix-sum kernel must reproduce `emd_1d` bit-for-bit on any
    /// positive-mass point set — this is the contract `theta_hm` relies on
    /// for byte-identical detector output.
    #[test]
    fn emd_cdf_bitwise_equals_emd_1d(a in masses(32), b in masses(32)) {
        let ra = CdfRepr::from_point_masses(&a);
        let rb = CdfRepr::from_point_masses(&b);
        prop_assert_eq!(emd_cdf(&ra, &rb).to_bits(), emd_1d(&a, &b).to_bits());
    }

    /// With all-distinct distances the NN-chain dendrogram must match the
    /// O(n^3) textbook UPGMA oracle merge for merge.
    #[test]
    fn nn_chain_matches_naive_upgma(
        n in 2usize..25,
        pool in prop::collection::vec(0.01f64..100.0, 300..301),
    ) {
        let dm = matrix_from_pool(n, &pool);
        let mut seen = std::collections::HashSet::new();
        prop_assume!(dm.condensed().iter().all(|d| seen.insert(d.to_bits())));
        let fast = merge_leaf_sets(&average_linkage(&dm));
        let naive = naive_upgma(&dm);
        prop_assert_eq!(fast.len(), naive.len());
        for ((fa, fb, fh), (na, nb, nh)) in fast.into_iter().zip(naive) {
            prop_assert!((fh - nh).abs() <= 1e-9 * nh.max(1.0), "height {fh} vs oracle {nh}");
            // Each merge is an unordered pair of (sorted) leaf sets.
            let fast_pair = if fa[0] <= fb[0] { (fa, fb) } else { (fb, fa) };
            let naive_pair = if na[0] <= nb[0] { (na, nb) } else { (nb, na) };
            prop_assert_eq!(fast_pair, naive_pair);
        }
    }

    /// The satellite contract of the sub-quadratic θ_hm: the quantile
    /// embedding's certified bound must never exceed the exact EMD — as a
    /// raw `f64` comparison (slack bitwise ≥ 0.0), not merely up to an
    /// epsilon, on random point-mass pairs at several quantile counts.
    #[test]
    fn embedding_lower_bounds_emd_cdf_bitwise(
        a in masses(40),
        b in masses(40),
        qi in 0usize..6,
    ) {
        let q = [2usize, 3, 8, 16, 64, 256][qi];
        let ra = CdfRepr::from_point_masses(&a);
        let rb = CdfRepr::from_point_masses(&b);
        let lb = embedding_lower_bound(&quantile_embedding(&ra, q), &quantile_embedding(&rb, q));
        let exact = emd_cdf(&ra, &rb);
        let slack = exact - lb;
        prop_assert!(slack >= 0.0, "q={q}: lower bound {lb} exceeds exact {exact}");
        prop_assert!(lb >= 0.0 && lb.is_finite());
    }

    /// The embedding itself is monotone nondecreasing and pinned to the
    /// support extremes — pure lookups, so these hold exactly.
    #[test]
    fn quantile_embedding_is_monotone_with_exact_endpoints(
        a in masses(40),
        q in 1usize..100,
    ) {
        let ra = CdfRepr::from_point_masses(&a);
        let v = quantile_embedding(&ra, q);
        prop_assert_eq!(v.len(), q + 1);
        prop_assert_eq!(v[0].to_bits(), ra.min_position().unwrap().to_bits());
        prop_assert_eq!(v[q].to_bits(), ra.max_position().unwrap().to_bits());
        for w in v.windows(2) {
            prop_assert!(w[1] >= w[0]);
        }
    }

    /// k-means bucketing always yields a partition of 0..n into non-empty,
    /// ascending, boundedly-sized buckets — for any embeddings, including
    /// fully degenerate ones.
    #[test]
    fn kmeans_partition_is_valid(
        embeds in prop::collection::vec(prop::collection::vec(-100.0f64..100.0, 3..4), 1..120),
        target in 1usize..20,
        rounds in 0usize..4,
    ) {
        let buckets = kmeans_partition(&embeds, target, rounds);
        let mut all: Vec<usize> = buckets.iter().flatten().copied().collect();
        all.sort_unstable();
        prop_assert_eq!(all, (0..embeds.len()).collect::<Vec<_>>());
        for b in &buckets {
            prop_assert!(!b.is_empty());
            prop_assert!(b.len() <= 2 * target);
            prop_assert!(b.windows(2).all(|w| w[0] < w[1]));
        }
    }

    /// The stitched bucketed linkage always produces a structurally valid
    /// dendrogram (n−1 merges, sorted heights, cuts partition the leaves)
    /// over any partition k-means produces.
    #[test]
    fn bucketed_linkage_is_well_formed(
        pos in prop::collection::vec(-1.0e3f64..1.0e3, 2..40),
        target in 1usize..12,
        f in 0.0f64..1.0,
    ) {
        let n = pos.len();
        let embeds: Vec<Vec<f64>> = pos.iter().map(|&p| vec![p]).collect();
        let buckets = kmeans_partition(&embeds, target, 2);
        let got = bucketed_average_linkage(n, &buckets, 1, |i, j| {
            (pos[i] - pos[j]).abs()
        });
        prop_assert_eq!(got.dendrogram.merges().len(), n - 1);
        for w in got.dendrogram.merges().windows(2) {
            prop_assert!(w[1].height >= w[0].height);
        }
        let clusters = got.dendrogram.cut_top_fraction(f);
        let mut all: Vec<usize> = clusters.iter().flatten().copied().collect();
        all.sort_unstable();
        prop_assert_eq!(all, (0..n).collect::<Vec<_>>());
    }

    /// Under heavy ties the merge *order* is tie-break dependent, but every
    /// recorded height must still equal the definitional mean leaf-to-leaf
    /// distance between the two clusters it joined, and heights must be
    /// nondecreasing. This pins the Lance–Williams update and condensed
    /// indexing without assuming a particular tie-break.
    #[test]
    fn nn_chain_heights_are_definitional_under_ties(
        n in 2usize..65,
        picks in prop::collection::vec(0usize..3, 2016..2017),
    ) {
        let levels = [1.0f64, 2.0, 4.0];
        let pool: Vec<f64> = picks.into_iter().map(|k| levels[k]).collect();
        let dm = matrix_from_pool(n, &pool);
        let dd = average_linkage(&dm);
        prop_assert_eq!(dd.merges().len(), dm.len() - 1);
        let merges = merge_leaf_sets(&dd);
        let mut prev = f64::NEG_INFINITY;
        for (a, b, h) in merges {
            prop_assert!(h >= prev - 1e-9);
            prev = h;
            let def = avg_leaf_distance(&dm, &a, &b);
            prop_assert!((h - def).abs() <= 1e-9 * def.max(1.0), "height {h} vs definitional {def}");
        }
    }
}
