//! Stitched per-bucket average linkage — the second level of the two-level
//! (sub-quadratic) `θ_hm`.
//!
//! Given a coarse partition of the items (see [`crate::embed`]), the exact
//! alloc-free EMD fill and `O(len²)` NN-chain [`average_linkage`] run only
//! *within* each bucket, and the bucket dendrograms are then stitched into
//! one [`Dendrogram`] by running UPGMA over the bucket **medoids** (the
//! member minimizing its within-bucket distance row-sum). Cross-bucket
//! merge heights are clamped to be at least the tallest merge beneath them,
//! so the final merge list is non-decreasing in height and remains fully
//! compatible with [`Dendrogram::cut_top_fraction`] / `cut_at_height` — the
//! detector's cut logic is unchanged.
//!
//! Cost: `Σ_b len_b²` distance evaluations plus `k²` medoid-level ones,
//! versus `n²` for the exact path — for `n` items in `k ≈ n / target`
//! buckets this is an `≈ k×` reduction in both fill and linkage work.
//!
//! Everything here is deterministic for a fixed input partition: per-bucket
//! fills are thread-invariant by construction, medoid selection and every
//! tie-break are index-ordered, and the top-level linkage is serial over at
//! most `k` items.

use crate::cluster::{average_linkage, relabel_sorted_merges, Dendrogram, DistanceMatrix};
use crate::order::fcmp;
use std::time::{Duration, Instant};

/// Result of [`bucketed_average_linkage`]: the stitched dendrogram plus the
/// per-stage wall-clock split the `θ_hm` profile surfaces.
#[derive(Debug, Clone)]
pub struct BucketedLinkage {
    /// Stitched dendrogram over all `n` items (SciPy id convention,
    /// heights non-decreasing).
    pub dendrogram: Dendrogram,
    /// Global index of each bucket's medoid, in bucket order.
    pub medoids: Vec<usize>,
    /// Time spent filling distance matrices (per-bucket + medoid-level).
    pub distance_fill: Duration,
    /// Time spent in NN-chain linkage + stitching.
    pub linkage: Duration,
}

/// Runs average linkage within each bucket and stitches the bucket
/// dendrograms via medoid-level UPGMA into a single [`Dendrogram`] over
/// `0..n`.
///
/// `dist(i, j)` is the exact pairwise distance (only evaluated within
/// buckets and between medoids); `threads` controls the per-bucket
/// condensed fills exactly as in [`DistanceMatrix::from_fn_par`].
///
/// # Panics
///
/// Panics if `buckets` is not a partition of `0..n` into non-empty parts,
/// or if `dist` returns a negative or non-finite distance.
pub fn bucketed_average_linkage<D>(
    n: usize,
    buckets: &[Vec<usize>],
    threads: usize,
    dist: D,
) -> BucketedLinkage
where
    D: Fn(usize, usize) -> f64 + Sync,
{
    // Partition check: every index 0..n exactly once, no empty buckets.
    let mut seen = vec![false; n];
    for b in buckets {
        assert!(!b.is_empty(), "buckets must be non-empty");
        for &i in b {
            assert!(i < n && !seen[i], "buckets must partition 0..n");
            seen[i] = true;
        }
    }
    assert!(seen.iter().all(|&s| s), "buckets must cover 0..n");

    let mut fill_time = Duration::ZERO;
    let mut link_time = Duration::ZERO;
    // Raw merge triples (global leaf, global leaf, height) with a sort tier:
    // within-bucket merges (tier 0) win height ties against cross-bucket
    // ones (tier 1) so subtrees complete before the stitch references them.
    let mut internal: Vec<(usize, usize, f64)> = Vec::with_capacity(n.saturating_sub(1));
    let mut medoids: Vec<usize> = Vec::with_capacity(buckets.len());
    let mut floors: Vec<f64> = Vec::with_capacity(buckets.len()); // tallest internal merge
    for b in buckets {
        let len = b.len();
        if len == 1 {
            medoids.push(b[0]);
            floors.push(0.0);
            continue;
        }
        let t0 = Instant::now();
        let dm = DistanceMatrix::from_fn_par(len, threads, |i, j| dist(b[i], b[j]));
        fill_time += t0.elapsed();
        let t1 = Instant::now();
        let dendro = average_linkage(&dm);
        // Medoid: smallest within-bucket row-sum, ties to the lowest index.
        let mut best = 0usize;
        let mut best_sum = f64::INFINITY;
        for i in 0..len {
            let mut s = 0.0f64;
            for j in 0..len {
                s += dm.get(i, j);
            }
            if fcmp(s, best_sum) == std::cmp::Ordering::Less {
                best_sum = s;
                best = i;
            }
        }
        medoids.push(b[best]);
        // Re-express the bucket's merges as leaf-level triples in global
        // numbering: a cluster id's representative leaf is its left child's,
        // recursively (leaves represent themselves).
        let mut rep: Vec<usize> = (0..len).collect();
        for mg in dendro.merges() {
            internal.push((b[rep[mg.left]], b[rep[mg.right]], mg.height));
            rep.push(rep[mg.left]);
        }
        floors.push(dendro.merges().last().map_or(0.0, |m| m.height));
        link_time += t1.elapsed();
    }

    let k = buckets.len();
    let mut cross: Vec<(usize, usize, f64)> = Vec::with_capacity(k.saturating_sub(1));
    if k > 1 {
        let t0 = Instant::now();
        let dm_top = DistanceMatrix::from_fn_par(k, threads, |i, j| dist(medoids[i], medoids[j]));
        fill_time += t0.elapsed();
        let t1 = Instant::now();
        let top = average_linkage(&dm_top);
        // Clamp cross-bucket heights so every merge sits at least as high as
        // the tallest merge beneath it; track a representative bucket per
        // top-level cluster id to name the stitch by its medoid leaf.
        let mut rep: Vec<usize> = (0..k).collect(); // top id -> bucket index
        let mut floor: Vec<f64> = floors.clone(); // top id -> tallest below
        for mg in top.merges() {
            let h = mg.height.max(floor[mg.left]).max(floor[mg.right]);
            cross.push((medoids[rep[mg.left]], medoids[rep[mg.right]], h));
            rep.push(rep[mg.left]);
            floor.push(h);
        }
        link_time += t1.elapsed();
    }

    let t2 = Instant::now();
    // Merge the two streams into one height-sorted list. Within a tier the
    // original emission order is preserved on ties (children before
    // parents); across tiers, internal merges come first at equal height.
    let mut tagged: Vec<(usize, usize, f64, u8, usize)> = internal
        .into_iter()
        .enumerate()
        .map(|(seq, (a, b, h))| (a, b, h, 0u8, seq))
        .chain(
            cross
                .into_iter()
                .enumerate()
                .map(|(seq, (a, b, h))| (a, b, h, 1u8, seq)),
        )
        .collect();
    tagged.sort_by(|x, y| fcmp(x.2, y.2).then(x.3.cmp(&y.3)).then(x.4.cmp(&y.4)));
    let raw: Vec<(usize, usize, f64)> = tagged
        .into_iter()
        .map(|(a, b, h, _, _)| (a, b, h))
        .collect();
    let dendrogram = relabel_sorted_merges(n, raw);
    link_time += t2.elapsed();

    BucketedLinkage {
        dendrogram,
        medoids,
        distance_fill: fill_time,
        linkage: link_time,
    }
}

/// Double-sweep 2-approximation of a cluster diameter: the farthest member
/// from an anchor, then the farthest member from *that* — two `O(len)`
/// sweeps instead of the `O(len²)` exact scan, with the classic guarantee
/// `exact/2 ≤ estimate ≤ exact`. Used by the bucketed `θ_hm` where no
/// global distance matrix exists to call [`DistanceMatrix::diameter`] on.
///
/// Deterministic: the anchor is the first member and ties keep the earliest
/// candidate. Singletons and empty sets have diameter `0.0`.
pub fn double_sweep_diameter<D>(members: &[usize], dist: D) -> f64
where
    D: Fn(usize, usize) -> f64,
{
    if members.len() < 2 {
        return 0.0;
    }
    let anchor = members[0];
    let mut far = anchor;
    let mut dmax = 0.0f64;
    for &m in &members[1..] {
        let d = dist(anchor, m);
        if d > dmax {
            dmax = d;
            far = m;
        }
    }
    let mut best = dmax;
    for &m in members {
        if m == far {
            continue;
        }
        let d = dist(far, m);
        if d > best {
            best = d;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line_dist(pos: &'_ [f64]) -> impl Fn(usize, usize) -> f64 + Sync + '_ {
        move |i, j| (pos[i] - pos[j]).abs()
    }

    #[test]
    fn single_bucket_matches_exact_linkage() {
        let pos: Vec<f64> = (0..20).map(|i| ((i * 7919) % 503) as f64).collect();
        let buckets = vec![(0..20).collect::<Vec<_>>()];
        let got = bucketed_average_linkage(20, &buckets, 1, line_dist(&pos));
        let dm = DistanceMatrix::from_fn(20, line_dist(&pos));
        let want = average_linkage(&dm);
        assert_eq!(got.dendrogram, want);
    }

    #[test]
    fn stitched_dendrogram_is_well_formed() {
        let pos: Vec<f64> = (0..30)
            .map(|i| ((i * 2654435761usize) % 997) as f64)
            .collect();
        let buckets: Vec<Vec<usize>> = vec![
            (0..7).collect(),
            (7..19).collect(),
            (19..29).collect(),
            vec![29],
        ];
        let got = bucketed_average_linkage(30, &buckets, 2, line_dist(&pos));
        let d = &got.dendrogram;
        assert_eq!(d.n_leaves(), 30);
        assert_eq!(d.merges().len(), 29);
        for w in d.merges().windows(2) {
            assert!(w[1].height >= w[0].height, "heights must be sorted");
        }
        assert_eq!(d.merges().last().unwrap().size, 30);
        for f in [0.0, 0.05, 0.3, 1.0] {
            let clusters = d.cut_top_fraction(f);
            let mut all: Vec<usize> = clusters.iter().flatten().copied().collect();
            all.sort_unstable();
            assert_eq!(all, (0..30).collect::<Vec<_>>());
        }
        assert_eq!(got.medoids.len(), 4);
        assert_eq!(got.medoids[3], 29);
    }

    #[test]
    fn well_separated_groups_survive_the_stitch() {
        // Three tight groups; buckets deliberately split one group in half —
        // the stitch must still reunite it below the cross-group links.
        let mut pos = Vec::new();
        pos.extend((0..8).map(|i| i as f64 * 0.01)); // group A: 0..8
        pos.extend((0..8).map(|i| 1000.0 + i as f64 * 0.01)); // group B: 8..16
        pos.extend((0..8).map(|i| 2000.0 + i as f64 * 0.01)); // group C: 16..24
        let buckets: Vec<Vec<usize>> = vec![
            (0..4).collect(),
            (4..8).collect(),
            (8..16).collect(),
            (16..24).collect(),
        ];
        let got = bucketed_average_linkage(24, &buckets, 1, line_dist(&pos));
        // Cutting the top 2 links severs the two ~1000-height stitches.
        let clusters = got.dendrogram.cut_top_fraction(2.0 / 23.0);
        assert_eq!(clusters.len(), 3);
        assert!(clusters.contains(&(0..8).collect::<Vec<_>>()));
        assert!(clusters.contains(&(8..16).collect::<Vec<_>>()));
        assert!(clusters.contains(&(16..24).collect::<Vec<_>>()));
    }

    #[test]
    fn thread_count_does_not_change_the_stitch() {
        let pos: Vec<f64> = (0..200)
            .map(|i| ((i * 31) % 157) as f64 + i as f64 / 500.0)
            .collect();
        let buckets: Vec<Vec<usize>> = (0..4).map(|c| (c * 50..(c + 1) * 50).collect()).collect();
        let base = bucketed_average_linkage(200, &buckets, 1, line_dist(&pos));
        for threads in [2usize, 4, 8] {
            let got = bucketed_average_linkage(200, &buckets, threads, line_dist(&pos));
            assert_eq!(got.dendrogram, base.dendrogram, "threads={threads}");
            assert_eq!(got.medoids, base.medoids, "threads={threads}");
        }
    }

    #[test]
    #[should_panic(expected = "partition")]
    fn rejects_non_partition() {
        let buckets = vec![vec![0usize, 1], vec![1, 2]];
        bucketed_average_linkage(3, &buckets, 1, |_, _| 1.0);
    }

    #[test]
    fn double_sweep_bounds_exact_diameter() {
        let pos: Vec<f64> = (0..40).map(|i| ((i * 7919) % 211) as f64).collect();
        let members: Vec<usize> = (0..40).collect();
        let est = double_sweep_diameter(&members, line_dist(&pos));
        let dm = DistanceMatrix::from_fn(40, line_dist(&pos));
        let exact = dm.diameter(&members);
        assert!(est <= exact);
        assert!(est >= exact / 2.0);
        // On a line the double sweep is exact: the farthest point from any
        // anchor is an extreme, and the sweep from an extreme finds the other.
        assert_eq!(est, exact);
    }

    #[test]
    fn double_sweep_trivial_sets() {
        assert_eq!(double_sweep_diameter(&[], |_, _| 1.0), 0.0);
        assert_eq!(double_sweep_diameter(&[3], |_, _| 1.0), 0.0);
        assert_eq!(double_sweep_diameter(&[1, 5], |_, _| 7.5), 7.5);
    }
}
