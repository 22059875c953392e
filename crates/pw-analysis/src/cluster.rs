//! Agglomerative hierarchical clustering (average linkage / UPGMA).
//!
//! The paper's `θ_hm` test clusters hosts by the Earth Mover's Distance
//! between their interstitial-time histograms: "Clustering is performed
//! using an agglomerative hierarchical algorithm, where each step merges the
//! two hosts with the closest distributions … The final set of clusters is
//! formed by cutting the top 5% links with the largest weights." (§IV-C)
//!
//! [`average_linkage`] implements UPGMA with the nearest-neighbour-chain
//! algorithm over a condensed Lance–Williams working matrix: `O(n²)` time
//! and only `O(n)` auxiliary space beyond the condensed (`n(n−1)/2`-entry)
//! distance copy — no dense `n×n` working matrix is ever materialized.
//! [`Dendrogram::cut_top_fraction`] implements the link cut. Average
//! linkage is *reducible*, so NN-chain produces the exact UPGMA dendrogram
//! after sorting merges by height.

use serde::{Deserialize, Serialize};

/// Edge length of the square cache blocks [`DistanceMatrix::from_fn_par`]
/// carves the condensed triangle into. A 64×64 tile touches at most 128
/// distinct items, small enough that both sides' per-item inputs stay
/// resident in L1/L2 while the tile's 4096 pairs are evaluated.
pub const TILE: usize = 64;

/// Minimum item count for [`DistanceMatrix::from_fn_par`] to spawn worker
/// threads. Below this the whole fill costs less than creating and joining
/// a thread pool, so the serial path is taken regardless of `threads`.
pub const PAR_CUTOFF: usize = 128;

/// A symmetric pairwise distance matrix over `n` items, stored condensed
/// (upper triangle only).
///
/// # Examples
///
/// ```
/// use pw_analysis::DistanceMatrix;
///
/// let dm = DistanceMatrix::from_fn(3, |i, j| (i as f64 - j as f64).abs());
/// assert_eq!(dm.get(0, 2), 2.0);
/// assert_eq!(dm.get(2, 0), 2.0);
/// assert_eq!(dm.get(1, 1), 0.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DistanceMatrix {
    n: usize,
    data: Vec<f64>, // condensed upper triangle, row-major
}

impl DistanceMatrix {
    /// Builds the matrix by evaluating `f(i, j)` for every pair `i < j`.
    ///
    /// `f` must be symmetric in spirit; only `i < j` is ever evaluated.
    ///
    /// # Panics
    ///
    /// Panics if `f` returns a negative or non-finite distance.
    pub fn from_fn<F: FnMut(usize, usize) -> f64>(n: usize, mut f: F) -> Self {
        let mut data = Vec::with_capacity(n.saturating_sub(1) * n / 2);
        for i in 0..n {
            for j in (i + 1)..n {
                let d = f(i, j);
                assert!(
                    d.is_finite() && d >= 0.0,
                    "distances must be finite and non-negative"
                );
                data.push(d);
            }
        }
        Self { n, data }
    }

    /// [`DistanceMatrix::from_fn`] with the condensed upper triangle filled
    /// in parallel across `threads` scoped workers.
    ///
    /// The triangle is carved into [`TILE`]`×`[`TILE`] cache blocks and the
    /// tiles are dealt round-robin to the workers, so each worker touches at
    /// most `2·TILE` distinct items per tile — the per-item inputs (`θ_hm`'s
    /// precomputed CDFs) stay hot in cache instead of streaming the whole
    /// item set past every row. Every slot is `f(i, j)` regardless of which
    /// worker computes it, so the result is identical to the serial
    /// constructor for any thread count.
    ///
    /// Below [`PAR_CUTOFF`] items the spawn cost dominates the fill itself
    /// and the serial path is taken; `threads == 0` is clamped to 1.
    ///
    /// # Panics
    ///
    /// Panics if `f` returns a negative or non-finite distance.
    pub fn from_fn_par<F>(n: usize, threads: usize, f: F) -> Self
    where
        F: Fn(usize, usize) -> f64 + Sync,
    {
        let threads = threads.max(1);
        if threads == 1 || n < PAR_CUTOFF {
            return Self::from_fn(n, f);
        }
        let mut data = vec![0.0f64; n.saturating_sub(1) * n / 2];
        // Carve the condensed buffer into per-(row, column-tile) spans and
        // group the spans of each tile×tile block together. Tile (bi, bj),
        // bi <= bj, holds pairs (i, j) with i in row-block bi, j in
        // column-block bj; spans are disjoint sub-slices of `data`, so no
        // two workers ever alias.
        let nb = n.div_ceil(TILE);
        let tile_index = |bi: usize, bj: usize| -> usize {
            debug_assert!(bi <= bj && bj < nb);
            bi * nb - bi * (bi.saturating_sub(1)) / 2 + (bj - bi)
        };
        let n_tiles = nb * (nb + 1) / 2;
        let mut tiles: Vec<Vec<(usize, usize, &mut [f64])>> =
            (0..n_tiles).map(|_| Vec::new()).collect();
        let mut rest = data.as_mut_slice();
        for i in 0..n.saturating_sub(1) {
            let bi = i / TILE;
            let (mut row, tail) = rest.split_at_mut(n - 1 - i);
            rest = tail;
            let mut j = i + 1;
            while j < n {
                let bj = j / TILE;
                let hi = ((bj + 1) * TILE).min(n);
                let (span, row_tail) = std::mem::take(&mut row).split_at_mut(hi - j);
                if !span.is_empty() {
                    tiles[tile_index(bi, bj)].push((i, j, span));
                }
                row = row_tail;
                j = hi;
            }
        }
        std::thread::scope(|scope| {
            for chunk in assign_strided(tiles, threads) {
                let f = &f;
                scope.spawn(move || {
                    for tile in chunk {
                        for (i, j0, span) in tile {
                            for (off, slot) in span.iter_mut().enumerate() {
                                let d = f(i, j0 + off);
                                assert!(
                                    d.is_finite() && d >= 0.0,
                                    "distances must be finite and non-negative"
                                );
                                *slot = d;
                            }
                        }
                    }
                });
            }
        });
        Self { n, data }
    }

    /// Number of items.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the matrix covers zero items.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The condensed upper triangle in row-major order: slot
    /// `i * n - i * (i + 1) / 2 + (j - i - 1)` holds the distance between
    /// items `i < j`.
    pub fn condensed(&self) -> &[f64] {
        &self.data
    }

    fn idx(&self, i: usize, j: usize) -> usize {
        debug_assert!(i < j && j < self.n);
        i * self.n - i * (i + 1) / 2 + (j - i - 1)
    }

    /// Distance between items `i` and `j` (symmetric; zero on the diagonal).
    ///
    /// # Panics
    ///
    /// Panics if `i` or `j` is out of range.
    pub fn get(&self, i: usize, j: usize) -> f64 {
        assert!(i < self.n && j < self.n, "index out of range");
        match i.cmp(&j) {
            std::cmp::Ordering::Equal => 0.0,
            std::cmp::Ordering::Less => self.data[self.idx(i, j)],
            std::cmp::Ordering::Greater => self.data[self.idx(j, i)],
        }
    }

    /// Maximum pairwise distance among `members` — the cluster *diameter*
    /// used by `θ_hm`'s `τ_hm` filter. Singletons and empty sets have
    /// diameter `0.0`.
    ///
    /// # Panics
    ///
    /// Panics if any member index is out of range.
    pub fn diameter(&self, members: &[usize]) -> f64 {
        let mut d = 0.0f64;
        for (k, &i) in members.iter().enumerate() {
            for &j in &members[k + 1..] {
                d = d.max(self.get(i, j));
            }
        }
        d
    }
}

/// Distributes work items round-robin into at most `threads` buckets
/// (item `i` goes to bucket `i % buckets`). There are never more buckets
/// than items, so a huge thread count costs nothing, and none is empty.
fn assign_strided<T>(items: Vec<T>, threads: usize) -> Vec<Vec<T>> {
    let n = threads.min(items.len());
    let mut buckets: Vec<Vec<T>> = (0..n).map(|_| Vec::new()).collect();
    for (i, item) in items.into_iter().enumerate() {
        buckets[i % n].push(item);
    }
    buckets
}

/// One merge step in a [`Dendrogram`].
///
/// Cluster ids follow the SciPy convention: leaves are `0..n`, and the
/// `k`-th merge (0-based) creates cluster id `n + k`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Merge {
    /// Id of the first merged cluster.
    pub left: usize,
    /// Id of the second merged cluster.
    pub right: usize,
    /// Linkage height (average inter-cluster distance) of this merge — the
    /// "weight" of the dendrogram link in the paper's terminology.
    pub height: f64,
    /// Number of leaves in the new cluster.
    pub size: usize,
}

/// The result of hierarchical clustering: `n` leaves and `n − 1` merges in
/// non-decreasing height order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Dendrogram {
    n_leaves: usize,
    merges: Vec<Merge>,
}

impl Dendrogram {
    /// Number of leaves (items clustered).
    pub fn n_leaves(&self) -> usize {
        self.n_leaves
    }

    /// The merge sequence, sorted by non-decreasing height.
    pub fn merges(&self) -> &[Merge] {
        &self.merges
    }

    /// Cuts the dendrogram by removing the `fraction` of links with the
    /// largest weights (rounded to the nearest whole number of links), then
    /// returns the resulting clusters as sorted leaf-index lists.
    ///
    /// The paper cuts the top 5 % (`fraction = 0.05`). Because merges are
    /// height-sorted, removing the heaviest `k` links is the same as keeping
    /// only the first `n − 1 − k` merges.
    ///
    /// # Panics
    ///
    /// Panics if `fraction` is not within `[0, 1]`.
    pub fn cut_top_fraction(&self, fraction: f64) -> Vec<Vec<usize>> {
        assert!(
            (0.0..=1.0).contains(&fraction),
            "fraction must be in [0, 1]"
        );
        let m = self.merges.len();
        let k = ((fraction * m as f64).round() as usize).min(m);
        self.clusters_from_prefix(m - k)
    }

    /// Cuts the dendrogram at an absolute `height`: merges with height
    /// `> height` are discarded.
    pub fn cut_at_height(&self, height: f64) -> Vec<Vec<usize>> {
        let keep = self.merges.partition_point(|mg| mg.height <= height);
        self.clusters_from_prefix(keep)
    }

    fn clusters_from_prefix(&self, n_merges: usize) -> Vec<Vec<usize>> {
        let n = self.n_leaves;
        let mut uf = UnionFind::new(n + n_merges);
        // Map merge-created ids onto union-find slots: id n+k -> slot created
        // by the k-th union. We emulate by unioning leaves of each merge.
        // Track a representative leaf for every cluster id.
        let mut rep: Vec<usize> = (0..n).collect();
        for mg in &self.merges[..n_merges] {
            let ra = rep[mg.left];
            let rb = rep[mg.right];
            uf.union(ra, rb);
            rep.push(uf.find(ra)); // representative of the new cluster
        }
        let mut groups: std::collections::BTreeMap<usize, Vec<usize>> = Default::default();
        for leaf in 0..n {
            groups.entry(uf.find(leaf)).or_default().push(leaf);
        }
        groups.into_values().collect()
    }
}

struct UnionFind {
    parent: Vec<usize>,
}

impl UnionFind {
    fn new(n: usize) -> Self {
        Self {
            parent: (0..n).collect(),
        }
    }

    fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] != x {
            self.parent[x] = self.parent[self.parent[x]];
            x = self.parent[x];
        }
        x
    }

    fn union(&mut self, a: usize, b: usize) -> usize {
        let ra = self.find(a);
        let rb = self.find(b);
        self.parent[ra] = rb;
        rb
    }
}

/// Runs average-linkage (UPGMA) agglomerative clustering over a distance
/// matrix, returning the full [`Dendrogram`].
///
/// Uses the nearest-neighbour-chain algorithm over a condensed
/// Lance–Williams working copy: `O(n²)` time and `O(n)` auxiliary space
/// beyond the condensed copy — no dense `n×n` working matrix. Ties are
/// broken towards the lower index, making results fully deterministic.
///
/// # Examples
///
/// ```
/// use pw_analysis::{average_linkage, DistanceMatrix};
///
/// // Two tight pairs far apart: {0,1} and {2,3}.
/// let pos = [0.0f64, 0.1, 10.0, 10.1];
/// let dm = DistanceMatrix::from_fn(4, |i, j| (pos[i] - pos[j]).abs());
/// let dendro = average_linkage(&dm);
/// let clusters = dendro.cut_top_fraction(1.0 / 3.0); // cuts the top link
/// assert_eq!(clusters, vec![vec![0, 1], vec![2, 3]]);
/// ```
pub fn average_linkage(dm: &DistanceMatrix) -> Dendrogram {
    let n = dm.len();
    if n == 0 {
        return Dendrogram {
            n_leaves: 0,
            merges: Vec::new(),
        };
    }
    // Condensed working copy of the upper triangle; slot (i, j), i < j, at
    // the same index the input matrix uses. Everything else is O(n).
    let mut d: Vec<f64> = dm.data.clone();
    // Row bases for the condensed layout: cidx(i, j) = rowbase[i] + j - i - 1.
    let rowbase: Vec<usize> = (0..n).map(|i| i * n - i * (i + 1) / 2).collect();
    let mut size = vec![1usize; n];
    // Sorted list of live cluster slots; shrinks as merges retire slots, so
    // scan and update cost track the live count rather than n.
    let mut actives: Vec<usize> = (0..n).collect();
    // Raw merges as (leaf representative of a, leaf rep of b, height).
    let mut raw: Vec<(usize, usize, f64)> = Vec::with_capacity(n - 1);
    let rep: Vec<usize> = (0..n).collect(); // slot -> a leaf it contains
    let mut chain: Vec<usize> = Vec::with_capacity(n);

    while actives.len() > 1 {
        if chain.is_empty() {
            chain.push(actives[0]);
        }
        loop {
            let a = *chain.last().expect("chain non-empty");
            let prev = if chain.len() >= 2 {
                Some(chain[chain.len() - 2])
            } else {
                None
            };
            // Nearest active neighbour of `a`, preferring `prev` on ties so
            // reciprocal pairs terminate the chain. `actives` is ascending,
            // so candidates are visited in the same k order as a 0..n sweep.
            let mut best = usize::MAX;
            let mut best_d = f64::INFINITY;
            let base_a = rowbase[a];
            for &k in &actives {
                if k == a {
                    continue;
                }
                let dk = if k < a {
                    d[rowbase[k] + (a - k - 1)]
                } else {
                    d[base_a + (k - a - 1)]
                };
                if dk < best_d || (dk == best_d && Some(k) == prev) {
                    best_d = dk;
                    best = k;
                }
            }
            debug_assert!(best != usize::MAX);
            if Some(best) == prev {
                // Reciprocal nearest neighbours: merge `a` and `best`.
                chain.pop();
                chain.pop();
                let (x, y) = (a.min(best), a.max(best));
                raw.push((rep[x], rep[y], best_d));
                // Lance–Williams update for average linkage into slot x;
                // the condensed layout stores each pair once, so one write
                // covers both orientations.
                let (sx, sy) = (size[x] as f64, size[y] as f64);
                let ssum = sx + sy;
                let (base_x, base_y) = (rowbase[x], rowbase[y]);
                for &k in &actives {
                    if k == x || k == y {
                        continue;
                    }
                    let sxk = if k < x {
                        rowbase[k] + (x - k - 1)
                    } else {
                        base_x + (k - x - 1)
                    };
                    let dyk = if k < y {
                        d[rowbase[k] + (y - k - 1)]
                    } else {
                        d[base_y + (k - y - 1)]
                    };
                    d[sxk] = (sx * d[sxk] + sy * dyk) / ssum;
                }
                size[x] += size[y];
                let gone = actives
                    .binary_search(&y)
                    .expect("merged slot is still active");
                actives.remove(gone);
                break;
            }
            chain.push(best);
        }
    }

    // Sort by height and relabel with a union-find (SciPy's `label` step).
    raw.sort_by(|a, b| crate::order::fcmp(a.2, b.2));
    relabel_sorted_merges(n, raw)
}

/// Relabels already-ordered raw merges `(leaf_a, leaf_b, height)` into the
/// SciPy cluster-id convention (leaves `0..n`, merge `k` creates id `n+k`)
/// via a union-find — the `label` step shared by [`average_linkage`] and the
/// bucketed stitched linkage. The caller is responsible for the merge order
/// (heights must be non-decreasing); no float is touched here, so extracting
/// this step keeps the exact path bit-identical.
pub(crate) fn relabel_sorted_merges(n: usize, raw: Vec<(usize, usize, f64)>) -> Dendrogram {
    let mut uf = UnionFind::new(n);
    let mut cluster_id: Vec<usize> = (0..n).collect(); // root leaf -> cluster id
    let mut cluster_size: Vec<usize> = vec![1; n];
    let mut merges = Vec::with_capacity(raw.len());
    for (k, (ra, rb, h)) in raw.into_iter().enumerate() {
        let root_a = uf.find(ra);
        let root_b = uf.find(rb);
        let (ida, idb) = (cluster_id[root_a], cluster_id[root_b]);
        let sz = cluster_size[root_a] + cluster_size[root_b];
        let (left, right) = (ida.min(idb), ida.max(idb));
        merges.push(Merge {
            left,
            right,
            height: h,
            size: sz,
        });
        let new_root = uf.union(root_a, root_b);
        cluster_id[new_root] = n + k; // SciPy convention: merge k -> id n+k
        cluster_size[new_root] = sz;
    }
    Dendrogram {
        n_leaves: n,
        merges,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line_matrix(pos: &[f64]) -> DistanceMatrix {
        DistanceMatrix::from_fn(pos.len(), |i, j| (pos[i] - pos[j]).abs())
    }

    #[test]
    fn distance_matrix_symmetry_and_diagonal() {
        let dm = line_matrix(&[0.0, 1.0, 3.0]);
        assert_eq!(dm.get(0, 1), 1.0);
        assert_eq!(dm.get(1, 0), 1.0);
        assert_eq!(dm.get(2, 2), 0.0);
        assert_eq!(dm.len(), 3);
    }

    #[test]
    fn diameter_of_sets() {
        let dm = line_matrix(&[0.0, 2.0, 5.0]);
        assert_eq!(dm.diameter(&[]), 0.0);
        assert_eq!(dm.diameter(&[1]), 0.0);
        assert_eq!(dm.diameter(&[0, 1]), 2.0);
        assert_eq!(dm.diameter(&[0, 1, 2]), 5.0);
    }

    #[test]
    fn empty_and_singleton_dendrograms() {
        let dm = DistanceMatrix::from_fn(0, |_, _| 0.0);
        let dd = average_linkage(&dm);
        assert_eq!(dd.n_leaves(), 0);
        assert!(dd.cut_top_fraction(0.05).is_empty());

        let dm1 = DistanceMatrix::from_fn(1, |_, _| 0.0);
        let dd1 = average_linkage(&dm1);
        assert_eq!(dd1.cut_top_fraction(0.05), vec![vec![0]]);
    }

    #[test]
    fn upgma_hand_example() {
        // Classic UPGMA example: points on a line at 0, 1, 5.
        // First merge {0,1} at height 1; then {0,1}+{2} at avg(5,4) = 4.5.
        let dm = line_matrix(&[0.0, 1.0, 5.0]);
        let dd = average_linkage(&dm);
        assert_eq!(dd.merges().len(), 2);
        assert_eq!(dd.merges()[0].height, 1.0);
        assert_eq!(dd.merges()[0].size, 2);
        assert!((dd.merges()[1].height - 4.5).abs() < 1e-12);
        assert_eq!(dd.merges()[1].size, 3);
    }

    #[test]
    fn merge_heights_nondecreasing() {
        let pos: Vec<f64> = (0..40)
            .map(|i| ((i * 2654435761u64 as usize) % 997) as f64)
            .collect();
        let dm = line_matrix(&pos);
        let dd = average_linkage(&dm);
        for w in dd.merges().windows(2) {
            assert!(w[1].height >= w[0].height - 1e-12);
        }
        assert_eq!(dd.merges().len(), 39);
    }

    #[test]
    fn cut_top_fraction_separates_groups() {
        let pos = [0.0, 0.2, 0.4, 100.0, 100.3, 100.5, 200.0];
        let dm = line_matrix(&pos);
        let dd = average_linkage(&dm);
        // Cutting the top 2 of 6 links should separate the three groups.
        let clusters = dd.cut_top_fraction(2.0 / 6.0);
        assert_eq!(clusters.len(), 3);
        assert!(clusters.contains(&vec![0, 1, 2]));
        assert!(clusters.contains(&vec![3, 4, 5]));
        assert!(clusters.contains(&vec![6]));
    }

    #[test]
    fn cut_zero_fraction_is_one_cluster() {
        let dm = line_matrix(&[0.0, 1.0, 2.0, 3.0]);
        let dd = average_linkage(&dm);
        let clusters = dd.cut_top_fraction(0.0);
        assert_eq!(clusters.len(), 1);
        assert_eq!(clusters[0], vec![0, 1, 2, 3]);
    }

    #[test]
    fn cut_full_fraction_is_all_singletons() {
        let dm = line_matrix(&[0.0, 1.0, 2.0]);
        let dd = average_linkage(&dm);
        let clusters = dd.cut_top_fraction(1.0);
        assert_eq!(clusters.len(), 3);
    }

    #[test]
    fn cut_is_a_partition() {
        let pos: Vec<f64> = (0..25).map(|i| ((i * 7919) % 503) as f64).collect();
        let dm = line_matrix(&pos);
        let dd = average_linkage(&dm);
        for f in [0.05, 0.2, 0.5] {
            let clusters = dd.cut_top_fraction(f);
            let mut all: Vec<usize> = clusters.iter().flatten().copied().collect();
            all.sort_unstable();
            assert_eq!(all, (0..25).collect::<Vec<_>>());
        }
    }

    #[test]
    fn cut_at_height_matches_structure() {
        let dm = line_matrix(&[0.0, 1.0, 5.0]);
        let dd = average_linkage(&dm);
        assert_eq!(dd.cut_at_height(0.5).len(), 3);
        assert_eq!(dd.cut_at_height(1.0).len(), 2);
        assert_eq!(dd.cut_at_height(10.0).len(), 1);
    }

    /// Naive O(n^3) UPGMA as an oracle for the NN-chain implementation.
    fn naive_upgma(dm: &DistanceMatrix) -> Vec<f64> {
        let n = dm.len();
        let mut clusters: Vec<Vec<usize>> = (0..n).map(|i| vec![i]).collect();
        let mut heights = Vec::new();
        while clusters.len() > 1 {
            let mut best = (0, 1, f64::INFINITY);
            for i in 0..clusters.len() {
                for j in (i + 1)..clusters.len() {
                    let mut s = 0.0;
                    for &a in &clusters[i] {
                        for &b in &clusters[j] {
                            s += dm.get(a, b);
                        }
                    }
                    let avg = s / (clusters[i].len() * clusters[j].len()) as f64;
                    if avg < best.2 {
                        best = (i, j, avg);
                    }
                }
            }
            heights.push(best.2);
            let merged = clusters.remove(best.1);
            clusters[best.0].extend(merged);
        }
        heights.sort_by(|a, b| a.partial_cmp(b).unwrap());
        heights
    }

    #[test]
    fn from_fn_par_matches_serial() {
        let f = |i: usize, j: usize| ((i * 31 + j * 7) % 97) as f64 / 3.0;
        for n in [0usize, 1, 2, 3, 7, 16, 33] {
            let serial = DistanceMatrix::from_fn(n, f);
            for threads in [1usize, 2, 3, 8, 64] {
                let par = DistanceMatrix::from_fn_par(n, threads, f);
                assert_eq!(serial, par, "n={n} threads={threads}");
            }
        }
    }

    #[test]
    fn from_fn_par_matches_serial_at_and_around_cutoff() {
        // Pins the serial-cutoff boundary: just below PAR_CUTOFF the
        // parallel constructor must silently take the serial path, at and
        // above it the tiled fill must produce identical contents for any
        // thread count.
        let f = |i: usize, j: usize| ((i * 13 + j * 101) % 251) as f64 / 7.0;
        for n in [
            PAR_CUTOFF - 1,
            PAR_CUTOFF,
            PAR_CUTOFF + 1,
            PAR_CUTOFF + TILE + 3,
        ] {
            let serial = DistanceMatrix::from_fn(n, f);
            for threads in [1usize, 2, 3, 4, 8, 64] {
                let par = DistanceMatrix::from_fn_par(n, threads, f);
                assert_eq!(serial, par, "n={n} threads={threads}");
            }
        }
    }

    #[test]
    fn a_huge_thread_count_spawns_no_more_workers_than_tiles() {
        // One bucket per requested thread would be a 26 TB allocation
        // here, aborting the process.
        let f = |i: usize, j: usize| ((i * 13 + j * 101) % 251) as f64 / 7.0;
        let serial = DistanceMatrix::from_fn(300, f);
        assert_eq!(DistanceMatrix::from_fn_par(300, 1 << 40, f), serial);
        assert_eq!(assign_strided(vec![1, 2, 3], 1 << 40), [[1], [2], [3]]);
        assert_eq!(assign_strided(vec![1, 2, 3], 2), [vec![1, 3], vec![2]]);
        assert!(assign_strided(Vec::<u8>::new(), 4).is_empty());
    }

    #[test]
    fn condensed_linkage_handles_4096_leaves() {
        // The θ_hm scaling wall: a dense n×n working matrix at n = 4096
        // would be 128 MiB and was the old implementation's first
        // allocation; the condensed NN-chain needs only the n(n−1)/2 copy
        // plus O(n) auxiliary arrays, and finishes in O(n²) time.
        let n = 4096;
        let dm = DistanceMatrix::from_fn(n, |i, j| {
            ((i * 31 + j * 17) % 1021) as f64 + (j - i) as f64 / 4096.0
        });
        let dd = average_linkage(&dm);
        assert_eq!(dd.merges().len(), n - 1);
        for w in dd.merges().windows(2) {
            assert!(w[1].height >= w[0].height - 1e-9);
        }
        // Every leaf lands in exactly one cluster after a cut.
        let clusters = dd.cut_top_fraction(0.05);
        let total: usize = clusters.iter().map(Vec::len).sum();
        assert_eq!(total, n);
    }

    #[test]
    fn nn_chain_matches_naive_oracle() {
        // Deterministic pseudo-random distance matrices via an LCG.
        let mut state = 0x2545F4914F6CDD1Du64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64) / (u32::MAX as f64)
        };
        for n in [2usize, 3, 5, 8, 13] {
            let pts: Vec<(f64, f64)> = (0..n).map(|_| (next() * 100.0, next() * 100.0)).collect();
            let dm = DistanceMatrix::from_fn(n, |i, j| {
                let (dx, dy) = (pts[i].0 - pts[j].0, pts[i].1 - pts[j].1);
                (dx * dx + dy * dy).sqrt()
            });
            let dd = average_linkage(&dm);
            let got: Vec<f64> = dd.merges().iter().map(|m| m.height).collect();
            let want = naive_upgma(&dm);
            assert_eq!(got.len(), want.len());
            for (g, w) in got.iter().zip(&want) {
                assert!((g - w).abs() < 1e-9, "n={n}: {got:?} vs {want:?}");
            }
        }
    }
}
