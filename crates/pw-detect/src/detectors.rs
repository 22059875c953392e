//! The three tests: `θ_vol`, `θ_churn`, and `θ_hm`.

use std::collections::HashSet;
use std::net::Ipv4Addr;
use std::time::{Duration, Instant};

use pw_analysis::{
    average_linkage, bucketed_average_linkage, double_sweep_diameter, emd_cdf, kmeans_partition,
    percentile, quantile_embedding, CdfRepr, DistanceMatrix, FillTuning,
};
use pw_flow::HostId;

use crate::error::ConfigError;
#[cfg(test)]
use crate::features::ProfileRepr;
use crate::features::{HostMask, HostProfile, ProfileView};

/// A test threshold: either a percentile of the input population's values
/// (the paper's dynamic thresholds) or an absolute value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Threshold {
    /// The `p`-th percentile of the statistic across the input hosts.
    Percentile(f64),
    /// A fixed value.
    Absolute(f64),
}

impl Threshold {
    /// Resolves the threshold against the population's `values`.
    ///
    /// Returns `None` when a percentile threshold meets an empty population.
    pub fn resolve(self, values: &[f64]) -> Option<f64> {
        match self {
            Threshold::Percentile(p) => percentile(values, p),
            Threshold::Absolute(v) => Some(v),
        }
    }
}

/// Computes `(host, metric)` pairs for every member of `s` with a
/// measurable metric, sharded over `threads` scoped workers when asked.
///
/// Hosts are processed in ascending-id order (= ascending IP over a view)
/// and shards are concatenated in shard order, so the multiset of values —
/// the only thing the percentile resolution sees — is identical for every
/// thread count. Per-host lookups are dense array indexing.
fn metric_population<M>(
    view: &ProfileView<'_>,
    s: &HostMask,
    metric: M,
    threads: usize,
) -> Vec<(HostId, f64)>
where
    M: Fn(&HostProfile) -> Option<f64> + Sync,
{
    let threads = threads.max(1);
    let ids: Vec<HostId> = s.ids().collect();
    if threads == 1 {
        return ids
            .into_iter()
            .filter_map(|id| metric(view.profile(id)).map(|v| (id, v)))
            .collect();
    }
    let chunk = ids.len().div_ceil(threads).max(1);
    std::thread::scope(|scope| {
        let handles: Vec<_> = ids
            .chunks(chunk)
            .map(|shard| {
                let metric = &metric;
                scope.spawn(move || {
                    shard
                        .iter()
                        .filter_map(|&id| metric(view.profile(id)).map(|v| (id, v)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let mut pop = Vec::with_capacity(ids.len());
        for h in handles {
            pop.extend(h.join().expect("population shard thread panicked"));
        }
        pop
    })
}

fn threshold_filter(
    len: usize,
    pop: Vec<(HostId, f64)>,
    tau: Threshold,
) -> Option<(HostMask, f64)> {
    let values: Vec<f64> = pop.iter().map(|&(_, v)| v).collect();
    let t = tau.resolve(&values)?;
    let mut kept = HostMask::empty(len);
    for &(id, v) in &pop {
        if v < t {
            kept.insert(id);
        }
    }
    Some((kept, t))
}

/// `θ_vol` (§IV-A) over a dense view — the core every entry point funnels
/// into. Keeps the hosts of `s` whose average bytes uploaded per flow is
/// *below* the resolved threshold; hosts with no flows are excluded.
///
/// `None` means a percentile threshold met a population with no measurable
/// hosts (distinct from "nothing passed"). Any `threads` value produces
/// identical output.
pub fn theta_vol_view(
    view: &ProfileView<'_>,
    s: &HostMask,
    tau: Threshold,
    threads: usize,
) -> Option<(HostMask, f64)> {
    threshold_filter(
        view.len(),
        metric_population(view, s, HostProfile::avg_upload_per_flow, threads),
        tau,
    )
}

/// `θ_churn` (§IV-B) over a dense view (see [`theta_vol_view`]). Keeps the
/// hosts of `s` whose fraction of new IPs contacted (first seen after the
/// host's first hour of activity) is *below* the resolved threshold; hosts
/// that contacted no destinations are excluded.
pub fn theta_churn_view(
    view: &ProfileView<'_>,
    s: &HostMask,
    tau: Threshold,
    threads: usize,
) -> Option<(HostMask, f64)> {
    threshold_filter(
        view.len(),
        metric_population(view, s, HostProfile::new_ip_fraction, threads),
        tau,
    )
}

/// Result of the `θ_hm` test, with enough detail to reproduce the paper's
/// cluster-level analysis.
#[derive(Debug, Clone, PartialEq)]
pub struct HmOutcome {
    /// Hosts retained (members of surviving clusters).
    pub kept: HashSet<Ipv4Addr>,
    /// All multi-host clusters found (sorted host lists) with diameters.
    pub clusters: Vec<(Vec<Ipv4Addr>, f64)>,
    /// The resolved diameter threshold.
    pub tau: f64,
    /// Hosts excluded for having no interstitial samples.
    pub no_samples: usize,
    /// Stage timing, present only when [`ThetaHmConfig::profile`] was set
    /// *and* clustering actually ran (`None` on the degenerate early
    /// returns, and always `None` by default so report equality comparisons
    /// are unaffected).
    pub profile: Option<ThetaHmProfile>,
}

/// Minimum cluster size `θ_hm` treats as evidence of machine-driven
/// cross-host similarity. Two hosts coinciding is within chance for human
/// traffic; the paper's Plotter clusters are larger (see DESIGN.md §2).
pub const MIN_CLUSTER_SIZE: usize = 3;

/// Histogram-distance metric used when comparing hosts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum HistogramDistance {
    /// Earth Mover's Distance (the paper's choice; robust to shifted but
    /// otherwise identical timer distributions).
    #[default]
    Emd,
    /// Plain L1 distance between histograms rebinned onto a common fixed
    /// grid — the obvious cheaper alternative, kept for the ablation study.
    L1,
}

/// Parameters of the sub-quadratic two-level `θ_hm`
/// ([`ThetaHmMode::Bucketed`]).
///
/// Hosts are embedded as quantile vectors of their gap CDFs, coarse-
/// partitioned with deterministic k-means, and the exact EMD + NN-chain
/// linkage runs only within buckets (stitched via medoid-level linkage).
/// See `pw_analysis::embed`/`bucketed` and DESIGN.md "Sub-quadratic θ_hm".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BucketedHmParams {
    /// Populations smaller than this run the exact `O(n²)` path even in
    /// bucketed mode — below the wall, exact is both fast and (by
    /// definition) parity-perfect. Set to `0` to force bucketing always.
    pub exact_below: usize,
    /// Coarse-partition target bucket size; `k ≈ n / target_bucket`
    /// k-means centers are used and no bucket exceeds `2 × target_bucket`.
    pub target_bucket: usize,
    /// Quantile count `Q` of the embedding (`Q + 1` samples per host).
    pub quantiles: usize,
    /// Lloyd refinement rounds after farthest-point seeding.
    pub kmeans_rounds: usize,
}

impl Default for BucketedHmParams {
    fn default() -> Self {
        Self {
            exact_below: 8192,
            target_bucket: 512,
            quantiles: 16,
            kmeans_rounds: 2,
        }
    }
}

/// Strategy for the `θ_hm` clustering stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ThetaHmMode {
    /// The paper's full pairwise EMD + NN-chain linkage — `O(n²)`,
    /// byte-identical to the historical kernel at any thread count. The
    /// default.
    #[default]
    Exact,
    /// Two-level quantile-embedding + coarse-bucketing `θ_hm`; exact within
    /// buckets, medoid-stitched across them. Sub-quadratic, with a bounded
    /// accuracy envelope (see the pw-repro parity harness).
    Bucketed(BucketedHmParams),
}

impl ThetaHmMode {
    /// Canonical textual form, stable across releases — used by the CLI
    /// flag and the checkpoint format: `exact` or
    /// `bucketed:<exact_below>:<target_bucket>:<quantiles>:<kmeans_rounds>`.
    pub fn name(&self) -> String {
        match self {
            ThetaHmMode::Exact => "exact".to_string(),
            ThetaHmMode::Bucketed(p) => format!(
                "bucketed:{}:{}:{}:{}",
                p.exact_below, p.target_bucket, p.quantiles, p.kmeans_rounds
            ),
        }
    }

    /// Parses [`ThetaHmMode::name`]'s format. `bucketed` alone selects the
    /// default parameters. Returns `None` on anything malformed.
    pub fn from_name(s: &str) -> Option<Self> {
        if s == "exact" {
            return Some(ThetaHmMode::Exact);
        }
        let rest = s.strip_prefix("bucketed")?;
        if rest.is_empty() {
            return Some(ThetaHmMode::Bucketed(BucketedHmParams::default()));
        }
        let parts: Vec<&str> = rest.strip_prefix(':')?.split(':').collect();
        if parts.len() != 4 {
            return None;
        }
        let nums: Vec<usize> = parts
            .iter()
            .map(|p| p.parse().ok())
            .collect::<Option<_>>()?;
        Some(ThetaHmMode::Bucketed(BucketedHmParams {
            exact_below: nums[0],
            target_bucket: nums[1],
            quantiles: nums[2],
            kmeans_rounds: nums[3],
        }))
    }
}

/// The `θ_hm` configuration surface: clustering mode plus the tuning knobs
/// (distance-fill tile size and parallel cutoff) that both the exact and
/// bucketed paths share, plus the stage-profile switch.
///
/// Historically the tuning knobs were the hardcoded `pw_analysis::TILE` /
/// `PAR_CUTOFF` constants; they are promoted here so one validated struct
/// carries everything `θ_hm`-shaped. Build one with [`ThetaHmConfig::builder`]
/// (validates) or a struct literal + [`ThetaHmConfig::validate`].
///
/// # Examples
///
/// ```
/// use pw_detect::{BucketedHmParams, ThetaHmConfig, ThetaHmMode};
///
/// let cfg = ThetaHmConfig::builder()
///     .mode(ThetaHmMode::Bucketed(BucketedHmParams::default()))
///     .profile(true)
///     .build()
///     .unwrap();
/// assert!(cfg.profile);
/// assert!(ThetaHmConfig::builder().tile(0).build().is_err());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThetaHmConfig {
    /// Clustering strategy (default: [`ThetaHmMode::Exact`]).
    pub mode: ThetaHmMode,
    /// Cache-block edge for the condensed distance-matrix fill
    /// (default [`pw_analysis::TILE`]).
    pub tile: usize,
    /// Minimum population before the fill spawns worker threads
    /// (default [`pw_analysis::PAR_CUTOFF`]).
    pub par_cutoff: usize,
    /// Attach a [`ThetaHmProfile`] (stage wall-clock split + bucket-size
    /// histogram) to the [`HmOutcome`] when clustering actually runs.
    pub profile: bool,
}

impl Default for ThetaHmConfig {
    fn default() -> Self {
        Self {
            mode: ThetaHmMode::Exact,
            tile: pw_analysis::TILE,
            par_cutoff: pw_analysis::PAR_CUTOFF,
            profile: false,
        }
    }
}

impl ThetaHmConfig {
    /// Starts a validated builder from the defaults.
    pub fn builder() -> ThetaHmConfigBuilder {
        ThetaHmConfigBuilder {
            cfg: Self::default(),
        }
    }

    /// Checks every constraint; [`crate::FindPlottersConfig::validate`]
    /// calls this so invalid `θ_hm` settings are caught before any data is
    /// touched.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.tile == 0 {
            return Err(ConfigError::ThetaHm(
                "distance-fill tile must be at least 1",
            ));
        }
        if self.par_cutoff < 2 {
            return Err(ConfigError::ThetaHm(
                "parallel cutoff must be at least 2 (1-host fills cannot parallelize)",
            ));
        }
        if let ThetaHmMode::Bucketed(p) = self.mode {
            if p.target_bucket < 2 {
                return Err(ConfigError::ThetaHm("bucket target must be at least 2"));
            }
            if p.quantiles < 2 || p.quantiles > pw_analysis::MAX_QUANTILES {
                return Err(ConfigError::ThetaHm(
                    "quantile count must be in 2..=2048 (rounding guard envelope)",
                ));
            }
            if p.kmeans_rounds > 64 {
                return Err(ConfigError::ThetaHm("k-means rounds capped at 64"));
            }
        }
        Ok(())
    }

    /// The [`FillTuning`] these knobs describe.
    pub fn tuning(&self) -> FillTuning {
        FillTuning {
            tile: self.tile,
            par_cutoff: self.par_cutoff,
        }
    }
}

/// Validated builder for [`ThetaHmConfig`].
#[derive(Debug, Clone)]
pub struct ThetaHmConfigBuilder {
    cfg: ThetaHmConfig,
}

impl ThetaHmConfigBuilder {
    /// Sets the clustering mode.
    pub fn mode(mut self, mode: ThetaHmMode) -> Self {
        self.cfg.mode = mode;
        self
    }

    /// Sets the distance-fill cache-block edge.
    pub fn tile(mut self, tile: usize) -> Self {
        self.cfg.tile = tile;
        self
    }

    /// Sets the minimum population for a parallel fill.
    pub fn par_cutoff(mut self, par_cutoff: usize) -> Self {
        self.cfg.par_cutoff = par_cutoff;
        self
    }

    /// Enables or disables the stage profile.
    pub fn profile(mut self, profile: bool) -> Self {
        self.cfg.profile = profile;
        self
    }

    /// Validates and returns the configuration.
    pub fn build(self) -> Result<ThetaHmConfig, ConfigError> {
        self.cfg.validate()?;
        Ok(self.cfg)
    }
}

/// First-class `θ_hm` stage timing, attached to [`HmOutcome`] when
/// [`ThetaHmConfig::profile`] is set — replaces the ad-hoc numbers that
/// used to be hand-pasted into bench JSON. `embed`/`bucket`/`bucket_sizes`
/// stay zero/empty on the exact path.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ThetaHmProfile {
    /// Hosts that entered clustering (after the no-samples filter).
    pub hosts: usize,
    /// Histogram + CDF-digest construction.
    pub histograms: Duration,
    /// Quantile-embedding construction (bucketed mode only).
    pub embed: Duration,
    /// Deterministic k-means coarse partition (bucketed mode only).
    pub bucket: Duration,
    /// Pairwise distance-matrix fill(s).
    pub distance_fill: Duration,
    /// NN-chain linkage (+ medoid stitching in bucketed mode).
    pub linkage: Duration,
    /// Dendrogram cut + cluster-diameter computation.
    pub cut_and_diameters: Duration,
    /// Bucket sizes in bucket order (empty on the exact path).
    pub bucket_sizes: Vec<usize>,
}

/// Design-variant knobs for [`theta_hm_view`], used by the ablation
/// experiments that quantify each design decision DESIGN.md calls out.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HmOptions {
    /// Histogram bin width: `None` = Freedman–Diaconis per host (paper);
    /// `Some(w)` = fixed width for every host (the evadable variant §IV-C
    /// warns about).
    pub bin_width: Option<f64>,
    /// Distance metric between host histograms.
    pub distance: HistogramDistance,
    /// Minimum surviving cluster size (see [`MIN_CLUSTER_SIZE`]).
    pub min_cluster_size: usize,
    /// Worker threads for histogram construction and the pairwise distance
    /// matrix (the `θ_hm` hot spots). `1` runs serially; any value produces
    /// identical output.
    pub threads: usize,
    /// Mode, fill tuning, and profile switch (see [`ThetaHmConfig`]).
    pub theta: ThetaHmConfig,
}

impl Default for HmOptions {
    fn default() -> Self {
        Self {
            bin_width: None,
            distance: HistogramDistance::Emd,
            min_cluster_size: MIN_CLUSTER_SIZE,
            threads: 1,
            theta: ThetaHmConfig::default(),
        }
    }
}

/// L1 distance between two point-mass distributions rebinned onto a shared
/// 64-bucket grid.
fn l1_distance(a: &[(f64, f64)], b: &[(f64, f64)], lo: f64, hi: f64) -> f64 {
    const GRID: usize = 64;
    let width = ((hi - lo) / GRID as f64).max(1e-9);
    let grid_of = |masses: &[(f64, f64)]| -> Vec<f64> {
        let mut g = vec![0.0; GRID];
        for &(pos, mass) in masses {
            let idx = (((pos - lo) / width) as usize).min(GRID - 1);
            g[idx] += mass;
        }
        g
    };
    let (ga, gb) = (grid_of(a), grid_of(b));
    ga.iter().zip(&gb).map(|(x, y)| (x - y).abs()).sum()
}

/// `θ_hm` (§IV-C) over a dense view — the core every entry point funnels
/// into: clusters hosts by the Earth Mover's Distance between their
/// Freedman–Diaconis interstitial-time histograms (agglomerative average
/// linkage, cutting the top `cut_fraction` heaviest dendrogram links), then
/// returns the union of clusters whose diameter does not exceed `tau` (a
/// percentile of the multi-host cluster diameters).
///
/// Two decisions the paper leaves implicit, documented in DESIGN.md:
/// singleton clusters are filtered out (a lone host demonstrates no
/// cross-host timing similarity), and hosts with *no* interstitial samples
/// (never contacted the same destination twice) are excluded. [`HmOptions`]
/// carries the ablation knobs; mask ids ascend with IP, so candidates are
/// visited in sorted-address order.
pub fn theta_hm_view(
    view: &ProfileView<'_>,
    s: &HostMask,
    tau: Threshold,
    cut_fraction: f64,
    options: &HmOptions,
) -> HmOutcome {
    let min_size = options.min_cluster_size;
    let threads = options.threads.max(1);
    let t_hist = Instant::now();

    // Candidates in ascending-IP order; histogram construction is
    // per-host-independent so shards just split the ordered list.
    let candidates: Vec<(Ipv4Addr, &HostProfile)> =
        s.ids().map(|id| (view.ip(id), view.profile(id))).collect();
    let no_samples = candidates
        .iter()
        .filter(|(_, p)| !p.has_interstitials())
        .count();
    let with_samples: Vec<(Ipv4Addr, &HostProfile)> = candidates
        .into_iter()
        .filter(|(_, p)| p.has_interstitials())
        .collect();

    // Each host's gap distribution is digested into point masses and its
    // prefix-sum CDF here, once, so the pairwise loop below runs the
    // allocation-free `emd_cdf` kernel instead of re-sorting both
    // histograms for every pair. `gap_point_masses` is tier-agnostic:
    // exact (and sparse-sketched) hosts go through the Freedman–Diaconis
    // histogram, densified sketches lower their fixed bins directly.
    type HostDigest = (Ipv4Addr, Vec<(f64, f64)>, CdfRepr);
    let build = |(ip, p): &(Ipv4Addr, &HostProfile)| -> HostDigest {
        let masses = p
            .gap_point_masses(options.bin_width)
            .expect("candidates have gap samples");
        let c = CdfRepr::from_point_masses(&masses);
        (*ip, masses, c)
    };
    let built: Vec<HostDigest> = if threads == 1 || with_samples.len() < 2 {
        with_samples.iter().map(build).collect()
    } else {
        let chunk = with_samples.len().div_ceil(threads).max(1);
        std::thread::scope(|scope| {
            let handles: Vec<_> = with_samples
                .chunks(chunk)
                .map(|shard| {
                    let build = &build;
                    scope.spawn(move || shard.iter().map(build).collect::<Vec<_>>())
                })
                .collect();
            let mut all = Vec::with_capacity(with_samples.len());
            for h in handles {
                all.extend(h.join().expect("histogram shard thread panicked"));
            }
            all
        })
    };
    let mut hosts = Vec::with_capacity(built.len());
    let mut masses = Vec::with_capacity(built.len());
    let mut cdfs = Vec::with_capacity(built.len());
    for (ip, m, c) in built {
        hosts.push(ip);
        masses.push(m);
        cdfs.push(c);
    }
    if hosts.len() < 2 {
        return HmOutcome {
            kept: HashSet::new(),
            clusters: Vec::new(),
            tau: 0.0,
            no_samples,
            profile: None,
        };
    }
    let mut profile = ThetaHmProfile {
        hosts: hosts.len(),
        histograms: t_hist.elapsed(),
        ..Default::default()
    };
    let tuning = options.theta.tuning();

    // The two-level path applies only above its population cutoff and only
    // to the EMD metric (the quantile bound certifies EMD; the L1 ablation
    // variant keeps the exact fill). Everything below the cutoff — all
    // n≤4096 fixtures and the campus days at the defaults — runs the exact
    // kernel and is therefore byte-identical across modes by construction.
    let bucketed = match options.theta.mode {
        ThetaHmMode::Bucketed(p)
            if hosts.len() >= p.exact_below && options.distance == HistogramDistance::Emd =>
        {
            Some(p)
        }
        _ => None,
    };

    // Either path yields multi-host clusters with diameters; the τ_hm
    // resolution and keep-filter below are shared.
    let mut clusters: Vec<(Vec<Ipv4Addr>, f64)> = if let Some(p) = bucketed {
        let t = Instant::now();
        let embeds: Vec<Vec<f64>> = cdfs
            .iter()
            .map(|c| quantile_embedding(c, p.quantiles))
            .collect();
        profile.embed = t.elapsed();
        let t = Instant::now();
        let buckets = kmeans_partition(&embeds, p.target_bucket, p.kmeans_rounds);
        profile.bucket = t.elapsed();
        profile.bucket_sizes = buckets.iter().map(Vec::len).collect();
        let linked = bucketed_average_linkage(hosts.len(), &buckets, threads, tuning, |i, j| {
            emd_cdf(&cdfs[i], &cdfs[j])
        });
        profile.distance_fill = linked.distance_fill;
        profile.linkage = linked.linkage;
        let t = Instant::now();
        let raw_clusters = linked.dendrogram.cut_top_fraction(cut_fraction);
        // No global distance matrix exists in this mode. Small clusters —
        // the ones τ_hm actually keeps — still get the exact O(len²)
        // diameter so the threshold percentile barely moves; only clusters
        // too large for that scan fall back to the deterministic
        // double-sweep 2-approximation (exact/2 ≤ estimate ≤ exact).
        const DIAMETER_EXACT_CAP: usize = 1_024;
        let out = raw_clusters
            .into_iter()
            .filter(|c| c.len() >= min_size.max(2))
            .map(|c| {
                let d = if c.len() <= DIAMETER_EXACT_CAP {
                    let mut d = 0.0f64;
                    for (a, &i) in c.iter().enumerate() {
                        for &j in &c[a + 1..] {
                            d = d.max(emd_cdf(&cdfs[i], &cdfs[j]));
                        }
                    }
                    d
                } else {
                    double_sweep_diameter(&c, |i, j| emd_cdf(&cdfs[i], &cdfs[j]))
                };
                let ips: Vec<Ipv4Addr> = c.into_iter().map(|i| hosts[i]).collect();
                (ips, d)
            })
            .collect();
        profile.cut_and_diameters = t.elapsed();
        out
    } else {
        let t = Instant::now();
        let dm = match options.distance {
            HistogramDistance::Emd => {
                DistanceMatrix::from_fn_par_tuned(hosts.len(), threads, tuning, |i, j| {
                    emd_cdf(&cdfs[i], &cdfs[j])
                })
            }
            HistogramDistance::L1 => {
                let (lo, hi) =
                    masses
                        .iter()
                        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), pm| {
                            let first = pm.first().map_or(0.0, |&(p, _)| p);
                            let last = pm.last().map_or(0.0, |&(p, _)| p);
                            (lo.min(first), hi.max(last))
                        });
                DistanceMatrix::from_fn_par_tuned(hosts.len(), threads, tuning, |i, j| {
                    l1_distance(&masses[i], &masses[j], lo, hi)
                })
            }
        };
        profile.distance_fill = t.elapsed();
        let t = Instant::now();
        let dendro = average_linkage(&dm);
        profile.linkage = t.elapsed();
        let t = Instant::now();
        let raw_clusters = dendro.cut_top_fraction(cut_fraction);
        let out = raw_clusters
            .into_iter()
            .filter(|c| c.len() >= min_size.max(2))
            .map(|c| {
                let d = dm.diameter(&c);
                let ips: Vec<Ipv4Addr> = c.into_iter().map(|i| hosts[i]).collect();
                (ips, d)
            })
            .collect();
        profile.cut_and_diameters = t.elapsed();
        out
    };
    clusters.sort_by(|a, b| pw_analysis::fcmp(a.1, b.1).then(a.0.cmp(&b.0)));
    let profile = options.theta.profile.then_some(profile);

    let diameters: Vec<f64> = clusters.iter().map(|&(_, d)| d).collect();
    let Some(t) = tau.resolve(&diameters) else {
        return HmOutcome {
            kept: HashSet::new(),
            clusters,
            tau: 0.0,
            no_samples,
            profile,
        };
    };
    let kept = clusters
        .iter()
        .filter(|&&(_, d)| d <= t)
        .flat_map(|(ips, _)| ips.iter().copied())
        .collect();
    HmOutcome {
        kept,
        clusters,
        tau: t,
        no_samples,
        profile,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::ProfileTable;
    use pw_netsim::SimTime;
    use std::collections::{BTreeMap, HashMap};

    // Set-shaped adapters over the view API, so assertions can name hosts
    // by address.
    fn theta_vol_par(
        profiles: &HashMap<Ipv4Addr, HostProfile>,
        s: &HashSet<Ipv4Addr>,
        tau: Threshold,
        threads: usize,
    ) -> Option<(HashSet<Ipv4Addr>, f64)> {
        let table = ProfileTable::from_map(profiles.clone());
        let view = ProfileView::from_table(&table);
        let mask = HostMask::from_ips(&view, s);
        theta_vol_view(&view, &mask, tau, threads).map(|(kept, t)| (kept.to_ips(&view), t))
    }

    fn theta_churn_par(
        profiles: &HashMap<Ipv4Addr, HostProfile>,
        s: &HashSet<Ipv4Addr>,
        tau: Threshold,
        threads: usize,
    ) -> Option<(HashSet<Ipv4Addr>, f64)> {
        let table = ProfileTable::from_map(profiles.clone());
        let view = ProfileView::from_table(&table);
        let mask = HostMask::from_ips(&view, s);
        theta_churn_view(&view, &mask, tau, threads).map(|(kept, t)| (kept.to_ips(&view), t))
    }

    fn theta_vol(
        profiles: &HashMap<Ipv4Addr, HostProfile>,
        s: &HashSet<Ipv4Addr>,
        tau: Threshold,
    ) -> (HashSet<Ipv4Addr>, f64) {
        theta_vol_par(profiles, s, tau, 1).unwrap_or((HashSet::new(), 0.0))
    }

    fn theta_churn(
        profiles: &HashMap<Ipv4Addr, HostProfile>,
        s: &HashSet<Ipv4Addr>,
        tau: Threshold,
    ) -> (HashSet<Ipv4Addr>, f64) {
        theta_churn_par(profiles, s, tau, 1).unwrap_or((HashSet::new(), 0.0))
    }

    fn theta_hm_with_options(
        profiles: &HashMap<Ipv4Addr, HostProfile>,
        s: &HashSet<Ipv4Addr>,
        tau: Threshold,
        cut_fraction: f64,
        options: &HmOptions,
    ) -> HmOutcome {
        let table = ProfileTable::from_map(profiles.clone());
        let view = ProfileView::from_table(&table);
        let mask = HostMask::from_ips(&view, s);
        theta_hm_view(&view, &mask, tau, cut_fraction, options)
    }

    fn theta_hm(
        profiles: &HashMap<Ipv4Addr, HostProfile>,
        s: &HashSet<Ipv4Addr>,
        tau: Threshold,
        cut_fraction: f64,
    ) -> HmOutcome {
        theta_hm_with_options(profiles, s, tau, cut_fraction, &HmOptions::default())
    }

    fn ip(last: u8) -> Ipv4Addr {
        Ipv4Addr::new(10, 1, 0, last)
    }

    fn profile_with(
        ip_last: u8,
        avg_upload: f64,
        churn: f64,
        interstitials: Vec<f64>,
    ) -> HostProfile {
        // Build a profile whose derived metrics equal the given values:
        // one flow with `avg_upload` bytes; churn via 100 destinations.
        let mut first_contact = BTreeMap::new();
        let n_new = (churn * 100.0).round() as u32;
        for d in 0..100u32 {
            let t = if d < n_new {
                SimTime::from_hours(3) // after first hour: new
            } else {
                SimTime::from_secs(60) // within first hour: old
            };
            first_contact.insert(Ipv4Addr::new(8, (d / 256) as u8, (d % 256) as u8, 1), t);
        }
        HostProfile {
            ip: ip(ip_last),
            flows_involving: 1,
            bytes_uploaded: avg_upload as u64,
            initiated: 10,
            initiated_failed: 5,
            first_activity: Some(SimTime::ZERO),
            repr: ProfileRepr::Exact {
                first_contact,
                interstitials,
            },
        }
    }

    fn setup(hosts: Vec<HostProfile>) -> (HashMap<Ipv4Addr, HostProfile>, HashSet<Ipv4Addr>) {
        let s = hosts.iter().map(|p| p.ip).collect();
        (hosts.into_iter().map(|p| (p.ip, p)).collect(), s)
    }

    #[test]
    fn theta_vol_keeps_low_volume() {
        let (profiles, s) = setup(vec![
            profile_with(1, 100.0, 0.5, vec![]),
            profile_with(2, 1_000.0, 0.5, vec![]),
            profile_with(3, 10_000.0, 0.5, vec![]),
        ]);
        let (kept, t) = theta_vol(&profiles, &s, Threshold::Percentile(50.0));
        assert_eq!(t, 1_000.0);
        assert_eq!(kept, [ip(1)].into_iter().collect());
        // Absolute thresholds work too.
        let (kept, _) = theta_vol(&profiles, &s, Threshold::Absolute(5_000.0));
        assert_eq!(kept.len(), 2);
    }

    #[test]
    fn theta_churn_keeps_low_churn() {
        let (profiles, s) = setup(vec![
            profile_with(1, 1.0, 0.1, vec![]),
            profile_with(2, 1.0, 0.5, vec![]),
            profile_with(3, 1.0, 0.9, vec![]),
        ]);
        let (kept, t) = theta_churn(&profiles, &s, Threshold::Percentile(50.0));
        assert!((t - 0.5).abs() < 1e-9);
        assert_eq!(kept, [ip(1)].into_iter().collect());
    }

    #[test]
    fn empty_population_is_safe() {
        let profiles = HashMap::new();
        let s = HashSet::new();
        assert!(theta_vol(&profiles, &s, Threshold::Percentile(50.0))
            .0
            .is_empty());
        assert!(theta_churn(&profiles, &s, Threshold::Percentile(50.0))
            .0
            .is_empty());
        let hm = theta_hm(&profiles, &s, Threshold::Percentile(70.0), 0.05);
        assert!(hm.kept.is_empty());
    }

    /// Periodic bots share tight interstitial distributions; humans are
    /// heavy-tailed and diverse.
    #[test]
    fn theta_hm_clusters_periodic_bots_together() {
        let periodic = |seed: u64| -> Vec<f64> {
            (0..200)
                .map(|i| 300.0 + ((i * 7 + seed) % 5) as f64 * 0.5)
                .collect()
        };
        let humanish = |seed: u64| -> Vec<f64> {
            // Irregular heavy-tailed gaps, different per host.
            (0..200)
                .map(|i: u64| {
                    let x = ((i * 2654435761 + seed * 97) % 10_000) as f64 / 10_000.0;
                    10.0 * seed as f64 + 3600.0 * x * x * x
                })
                .collect()
        };
        let (profiles, s) = setup(vec![
            profile_with(1, 1.0, 0.1, periodic(0)),
            profile_with(2, 1.0, 0.1, periodic(1)),
            profile_with(3, 1.0, 0.1, periodic(2)),
            profile_with(4, 1.0, 0.1, humanish(1)),
            profile_with(5, 1.0, 0.1, humanish(7)),
            profile_with(6, 1.0, 0.1, humanish(13)),
            profile_with(7, 1.0, 0.1, humanish(29)),
        ]);
        let hm = theta_hm(&profiles, &s, Threshold::Percentile(10.0), 0.3);
        // The three periodic hosts survive together.
        assert!(
            hm.kept.contains(&ip(1)) && hm.kept.contains(&ip(2)) && hm.kept.contains(&ip(3)),
            "kept: {:?}",
            hm.kept
        );
        // And none of the human-ish hosts do at this tight threshold.
        for h in [4u8, 5, 6, 7] {
            assert!(
                !hm.kept.contains(&ip(h)),
                "human host {h} kept: {:?}",
                hm.kept
            );
        }
    }

    #[test]
    fn theta_hm_excludes_hosts_without_samples() {
        let (profiles, s) = setup(vec![
            profile_with(1, 1.0, 0.1, vec![]),
            profile_with(2, 1.0, 0.1, vec![1.0, 2.0]),
        ]);
        let hm = theta_hm(&profiles, &s, Threshold::Percentile(70.0), 0.05);
        assert_eq!(hm.no_samples, 1);
        assert!(hm.kept.is_empty()); // a single histogram cannot cluster
    }

    #[test]
    fn theta_hm_singletons_are_filtered() {
        // Two very different hosts: after cutting, each is a singleton.
        let (profiles, s) = setup(vec![
            profile_with(1, 1.0, 0.1, vec![10.0; 50]),
            profile_with(2, 1.0, 0.1, vec![9_000.0; 50]),
        ]);
        let hm = theta_hm(&profiles, &s, Threshold::Percentile(90.0), 0.5);
        assert!(hm.kept.is_empty(), "{:?}", hm.clusters);
    }

    #[test]
    fn hm_options_variants_run_and_agree_on_easy_input() {
        // Three identical periodic hosts vs three scattered humans: every
        // variant must keep the periodic trio.
        let periodic = |seed: u64| -> Vec<f64> {
            (0..150)
                .map(|i| 300.0 + ((i + seed) % 3) as f64 * 0.2)
                .collect()
        };
        let humanish = |seed: u64| -> Vec<f64> {
            (0..150)
                .map(|i: u64| {
                    let x = ((i * 2654435761 + seed * 977) % 10_000) as f64 / 10_000.0;
                    30.0 * seed as f64 + 5000.0 * x * x
                })
                .collect()
        };
        let (profiles, s) = setup(vec![
            profile_with(1, 1.0, 0.1, periodic(0)),
            profile_with(2, 1.0, 0.1, periodic(1)),
            profile_with(3, 1.0, 0.1, periodic(2)),
            profile_with(4, 1.0, 0.1, humanish(2)),
            profile_with(5, 1.0, 0.1, humanish(11)),
            profile_with(6, 1.0, 0.1, humanish(23)),
            profile_with(7, 1.0, 0.1, humanish(41)),
        ]);
        for options in [
            HmOptions::default(),
            HmOptions {
                distance: HistogramDistance::L1,
                ..Default::default()
            },
            HmOptions {
                bin_width: Some(10.0),
                ..Default::default()
            },
            HmOptions {
                min_cluster_size: 2,
                ..Default::default()
            },
        ] {
            let hm =
                theta_hm_with_options(&profiles, &s, Threshold::Percentile(10.0), 0.3, &options);
            for b in [1u8, 2, 3] {
                assert!(
                    hm.kept.contains(&ip(b)),
                    "{options:?} missed periodic host {b}"
                );
            }
        }
    }

    #[test]
    fn min_cluster_size_three_drops_pairs() {
        let (profiles, s) = setup(vec![
            profile_with(1, 1.0, 0.1, vec![60.0; 40]),
            profile_with(2, 1.0, 0.1, vec![60.1; 40]),
            profile_with(3, 1.0, 0.1, vec![9_000.0; 40]),
            profile_with(4, 1.0, 0.1, vec![15_000.0; 40]),
        ]);
        // The {1,2} pair is perfectly tight but below the size floor.
        let strict = theta_hm(&profiles, &s, Threshold::Percentile(90.0), 0.5);
        assert!(strict.kept.is_empty(), "{:?}", strict.clusters);
        // The weaker reading keeps it.
        let lax = theta_hm_with_options(
            &profiles,
            &s,
            Threshold::Percentile(90.0),
            0.5,
            &HmOptions {
                min_cluster_size: 2,
                ..Default::default()
            },
        );
        assert!(lax.kept.contains(&ip(1)) && lax.kept.contains(&ip(2)));
    }

    #[test]
    fn parallel_detectors_match_serial() {
        let periodic = |seed: u64| -> Vec<f64> {
            (0..200)
                .map(|i| 300.0 + ((i * 7 + seed) % 5) as f64 * 0.5)
                .collect()
        };
        let humanish = |seed: u64| -> Vec<f64> {
            (0..200)
                .map(|i: u64| {
                    let x = ((i * 2654435761 + seed * 97) % 10_000) as f64 / 10_000.0;
                    10.0 * seed as f64 + 3600.0 * x * x * x
                })
                .collect()
        };
        let mut hosts = Vec::new();
        for k in 0..24u8 {
            let inter = if k < 6 {
                periodic(k as u64)
            } else {
                humanish(k as u64 * 13 + 1)
            };
            hosts.push(profile_with(
                k + 1,
                50.0 * (k as f64 + 1.0),
                (k as f64) / 24.0,
                inter,
            ));
        }
        let (profiles, s) = setup(hosts);
        let vol1 = theta_vol_par(&profiles, &s, Threshold::Percentile(50.0), 1).unwrap();
        let churn1 = theta_churn_par(&profiles, &s, Threshold::Percentile(50.0), 1).unwrap();
        let hm1 = theta_hm_with_options(
            &profiles,
            &s,
            Threshold::Percentile(70.0),
            0.1,
            &HmOptions::default(),
        );
        for threads in [2usize, 3, 7, 32] {
            let volp = theta_vol_par(&profiles, &s, Threshold::Percentile(50.0), threads).unwrap();
            assert_eq!(vol1, volp, "theta_vol threads={threads}");
            let churnp =
                theta_churn_par(&profiles, &s, Threshold::Percentile(50.0), threads).unwrap();
            assert_eq!(churn1, churnp, "theta_churn threads={threads}");
            let hmp = theta_hm_with_options(
                &profiles,
                &s,
                Threshold::Percentile(70.0),
                0.1,
                &HmOptions {
                    threads,
                    ..Default::default()
                },
            );
            assert_eq!(hm1.kept, hmp.kept, "theta_hm threads={threads}");
            assert_eq!(
                hm1.clusters, hmp.clusters,
                "theta_hm clusters threads={threads}"
            );
            assert_eq!(
                hm1.tau.to_bits(),
                hmp.tau.to_bits(),
                "theta_hm tau threads={threads}"
            );
        }
    }

    #[test]
    fn strict_detectors_flag_unresolvable_thresholds() {
        let profiles = HashMap::new();
        let s = HashSet::new();
        assert!(theta_vol_par(&profiles, &s, Threshold::Percentile(50.0), 1).is_none());
        assert!(theta_churn_par(&profiles, &s, Threshold::Percentile(50.0), 2).is_none());
        // Absolute thresholds always resolve.
        assert!(theta_vol_par(&profiles, &s, Threshold::Absolute(5.0), 1).is_some());
    }

    #[test]
    fn threshold_resolution() {
        assert_eq!(Threshold::Absolute(5.0).resolve(&[]), Some(5.0));
        assert_eq!(Threshold::Percentile(50.0).resolve(&[]), None);
        assert_eq!(Threshold::Percentile(50.0).resolve(&[1.0, 3.0]), Some(2.0));
    }

    /// 24 hosts, 6 machine-periodic and 18 human-like — the same shape as
    /// `parallel_detectors_match_serial`, reused by the mode-parity tests.
    fn mixed_population() -> (HashMap<Ipv4Addr, HostProfile>, HashSet<Ipv4Addr>) {
        let periodic = |seed: u64| -> Vec<f64> {
            (0..200)
                .map(|i| 300.0 + ((i * 7 + seed) % 5) as f64 * 0.5)
                .collect()
        };
        let humanish = |seed: u64| -> Vec<f64> {
            (0..200)
                .map(|i: u64| {
                    let x = ((i * 2654435761 + seed * 97) % 10_000) as f64 / 10_000.0;
                    10.0 * seed as f64 + 3600.0 * x * x * x
                })
                .collect()
        };
        let mut hosts = Vec::new();
        for k in 0..24u8 {
            let inter = if k < 6 {
                periodic(k as u64)
            } else {
                humanish(k as u64 * 13 + 1)
            };
            hosts.push(profile_with(
                k + 1,
                50.0 * (k as f64 + 1.0),
                (k as f64) / 24.0,
                inter,
            ));
        }
        setup(hosts)
    }

    #[test]
    fn bucketed_mode_below_cutoff_is_bitwise_exact() {
        // 24 hosts sit far below the default `exact_below = 8192`, so the
        // bucketed mode must take the exact path and match bit for bit.
        let (profiles, s) = mixed_population();
        let exact = theta_hm(&profiles, &s, Threshold::Percentile(70.0), 0.1);
        let bucketed = theta_hm_with_options(
            &profiles,
            &s,
            Threshold::Percentile(70.0),
            0.1,
            &HmOptions {
                theta: ThetaHmConfig {
                    mode: ThetaHmMode::Bucketed(BucketedHmParams::default()),
                    ..Default::default()
                },
                ..Default::default()
            },
        );
        assert_eq!(exact.kept, bucketed.kept);
        assert_eq!(exact.clusters, bucketed.clusters);
        assert_eq!(exact.tau.to_bits(), bucketed.tau.to_bits());
    }

    #[test]
    fn forced_bucketed_is_thread_and_input_order_invariant() {
        let (profiles, s) = mixed_population();
        let theta = ThetaHmConfig {
            mode: ThetaHmMode::Bucketed(BucketedHmParams {
                exact_below: 0,
                target_bucket: 6,
                quantiles: 8,
                kmeans_rounds: 2,
            }),
            ..Default::default()
        };
        let base = theta_hm_with_options(
            &profiles,
            &s,
            Threshold::Percentile(70.0),
            0.1,
            &HmOptions {
                theta,
                ..Default::default()
            },
        );
        // A real clustering ran (not a degenerate early return).
        assert!(!base.clusters.is_empty());
        for threads in [4usize, 8] {
            let hm = theta_hm_with_options(
                &profiles,
                &s,
                Threshold::Percentile(70.0),
                0.1,
                &HmOptions {
                    threads,
                    theta,
                    ..Default::default()
                },
            );
            assert_eq!(base.kept, hm.kept, "bucketed kept, threads={threads}");
            assert_eq!(
                base.clusters, hm.clusters,
                "bucketed clusters, threads={threads}"
            );
            assert_eq!(
                base.tau.to_bits(),
                hm.tau.to_bits(),
                "bucketed tau, threads={threads}"
            );
        }
        // Insertion order into the profile map must not matter: the view
        // canonicalizes host order, so a reversed build is identical.
        let (rev_profiles, _) = {
            let mut hosts: Vec<HostProfile> = profiles.values().cloned().collect();
            hosts.sort_by_key(|p| std::cmp::Reverse(p.ip));
            setup(hosts)
        };
        let rev = theta_hm_with_options(
            &rev_profiles,
            &s,
            Threshold::Percentile(70.0),
            0.1,
            &HmOptions {
                theta,
                ..Default::default()
            },
        );
        assert_eq!(base.kept, rev.kept);
        assert_eq!(base.clusters, rev.clusters);
        assert_eq!(base.tau.to_bits(), rev.tau.to_bits());
    }

    #[test]
    fn profile_flag_attaches_stage_timings() {
        let (profiles, s) = mixed_population();
        // Off by default.
        let plain = theta_hm(&profiles, &s, Threshold::Percentile(70.0), 0.1);
        assert!(plain.profile.is_none());
        // Exact path: populated, no bucket stages.
        let exact = theta_hm_with_options(
            &profiles,
            &s,
            Threshold::Percentile(70.0),
            0.1,
            &HmOptions {
                theta: ThetaHmConfig {
                    profile: true,
                    ..Default::default()
                },
                ..Default::default()
            },
        );
        let p = exact.profile.expect("profile requested");
        assert_eq!(p.hosts, 24);
        assert!(p.bucket_sizes.is_empty());
        // Forced bucketed path: bucket sizes partition the population.
        let bucketed = theta_hm_with_options(
            &profiles,
            &s,
            Threshold::Percentile(70.0),
            0.1,
            &HmOptions {
                theta: ThetaHmConfig {
                    mode: ThetaHmMode::Bucketed(BucketedHmParams {
                        exact_below: 0,
                        target_bucket: 6,
                        quantiles: 8,
                        kmeans_rounds: 2,
                    }),
                    profile: true,
                    ..Default::default()
                },
                ..Default::default()
            },
        );
        let p = bucketed.profile.expect("profile requested");
        assert_eq!(p.bucket_sizes.iter().sum::<usize>(), 24);
        assert!(p.bucket_sizes.len() > 1);
    }

    #[test]
    fn theta_hm_mode_names_round_trip() {
        let modes = [
            ThetaHmMode::Exact,
            ThetaHmMode::Bucketed(BucketedHmParams::default()),
            ThetaHmMode::Bucketed(BucketedHmParams {
                exact_below: 0,
                target_bucket: 300,
                quantiles: 24,
                kmeans_rounds: 3,
            }),
        ];
        for m in modes {
            assert_eq!(ThetaHmMode::from_name(&m.name()), Some(m), "{}", m.name());
        }
        assert_eq!(
            ThetaHmMode::from_name("bucketed"),
            Some(ThetaHmMode::Bucketed(BucketedHmParams::default()))
        );
        assert_eq!(ThetaHmMode::from_name("warp"), None);
        assert_eq!(ThetaHmMode::from_name("bucketed:1:2"), None);
        assert_eq!(ThetaHmMode::from_name("bucketed:1:2:x:4"), None);
    }

    #[test]
    fn theta_hm_config_validation_rejects_bad_knobs() {
        assert!(ThetaHmConfig::default().validate().is_ok());
        let cases: [(ThetaHmConfig, &str); 5] = [
            (
                ThetaHmConfig {
                    tile: 0,
                    ..Default::default()
                },
                "tile",
            ),
            (
                ThetaHmConfig {
                    par_cutoff: 1,
                    ..Default::default()
                },
                "cutoff",
            ),
            (
                ThetaHmConfig {
                    mode: ThetaHmMode::Bucketed(BucketedHmParams {
                        target_bucket: 1,
                        ..Default::default()
                    }),
                    ..Default::default()
                },
                "bucket target",
            ),
            (
                ThetaHmConfig {
                    mode: ThetaHmMode::Bucketed(BucketedHmParams {
                        quantiles: 1,
                        ..Default::default()
                    }),
                    ..Default::default()
                },
                "quantile",
            ),
            (
                ThetaHmConfig {
                    mode: ThetaHmMode::Bucketed(BucketedHmParams {
                        kmeans_rounds: 65,
                        ..Default::default()
                    }),
                    ..Default::default()
                },
                "rounds",
            ),
        ];
        for (cfg, needle) in cases {
            let err = cfg.validate().expect_err(needle);
            assert!(
                err.to_string().contains(needle),
                "{err} should mention {needle}"
            );
        }
    }
}
