//! Statistical substrate for the `peerwatch` workspace.
//!
//! This crate implements the numerical machinery the paper's detector relies
//! on (Yen & Reiter, ICDCS 2010, §IV):
//!
//! - order statistics: [`percentile`], [`median`], [`iqr`] (`stats`);
//! - histogram density estimation with the Freedman–Diaconis bin-width rule
//!   ([`Histogram`], `hist`);
//! - the 1-D Earth Mover's Distance between distributions ([`emd_1d`],
//!   [`emd_histograms`], `emd`), plus the precomputed prefix-sum form for
//!   all-pairs workloads ([`CdfRepr`], [`emd_cdf`]);
//! - empirical CDFs for the paper's cumulative-distribution figures
//!   ([`Ecdf`], `cdf`);
//! - agglomerative average-linkage hierarchical clustering with a
//!   top-fraction dendrogram cut ([`Dendrogram`], `cluster`);
//! - quantile embeddings of CDF digests with a certified EMD lower bound
//!   and deterministic k-means bucketing ([`quantile_embedding`],
//!   [`embedding_lower_bound`], [`kmeans_partition`], `embed`), plus the
//!   stitched per-bucket linkage behind the sub-quadratic `θ_hm`
//!   ([`bucketed_average_linkage`], [`double_sweep_diameter`], `bucketed`);
//! - ROC curve containers ([`RocCurve`], `roc`).
//!
//! Everything here is deterministic; no randomness is used.
//!
//! # Examples
//!
//! ```
//! use pw_analysis::{Histogram, emd_histograms};
//!
//! let a = Histogram::freedman_diaconis(&[1.0, 1.1, 0.9, 1.05, 10.0]).unwrap();
//! let b = Histogram::freedman_diaconis(&[1.0, 1.1, 0.9, 1.05, 10.0]).unwrap();
//! assert!(emd_histograms(&a, &b) < 1e-9);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bucketed;
pub mod cdf;
pub mod cluster;
pub mod embed;
pub mod emd;
pub mod hist;
pub mod order;
pub mod roc;
pub mod stats;

pub use bucketed::{bucketed_average_linkage, double_sweep_diameter, BucketedLinkage};
pub use cdf::Ecdf;
pub use cluster::{average_linkage, Dendrogram, DistanceMatrix, Merge, PAR_CUTOFF, TILE};
pub use embed::{embedding_lower_bound, kmeans_partition, quantile_embedding, MAX_QUANTILES};
pub use emd::{emd_1d, emd_cdf, emd_histograms, CdfRepr};
pub use hist::Histogram;
pub use order::{fcmp, sort_floats};
pub use roc::{auc, RocCurve, RocPoint};
pub use stats::{iqr, mean, median, percentile, std_dev, variance};
