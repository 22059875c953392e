//! The paper's detector: telling P2P bots (**Plotters**) apart from P2P
//! file-sharing hosts (**Traders**) using only border flow records.
//!
//! This crate is the primary contribution of the reproduced paper
//! (Yen & Reiter, ICDCS 2010, §IV–§V):
//!
//! - [`features`]: per-host behavioural features — failed-connection rate,
//!   average bytes uploaded per flow, first-contact times per destination,
//!   and per-destination flow interstitial times — extracted over the
//!   columnar [`pw_flow::FlowTable`] into a dense, host-id-indexed
//!   [`ProfileTable`] shared by the batch and streaming paths;
//! - [`reduction`]: the §V-A data-reduction step (median failed-connection
//!   rate) that discards hosts unlikely to run P2P software at all;
//! - [`detectors`]: the three tests — `θ_vol` (volume), `θ_churn` (peer
//!   churn / persistence), and `θ_hm` (human- vs machine-driven timing via
//!   Freedman–Diaconis histograms, Earth Mover's Distance, and hierarchical
//!   clustering with a top-5 %-link cut);
//! - [`pipeline`]: the `FindPlotters` composition (Fig. 4) plus a staged
//!   report used to reproduce Figure 9;
//! - [`rates`]: true/false-positive bookkeeping for the ROC figures;
//! - [`tdg`]: the Traffic-Dispersion-Graph baseline discussed in the
//!   paper's related work, implemented for head-to-head comparison;
//! - [`perport`]: the per-port traffic-separation refinement §VI proposes
//!   for Plotters hiding behind a Trader's traffic.
//!
//! All thresholds are *dynamic* — percentiles of the live population —
//! which is the basis of the paper's evasion argument (§VI): an attacker
//! cannot know the value it must beat.
//!
//! Four functions run the detector over a batch:
//!
//! - [`extract_profiles_table_par_tier`] turns a [`pw_flow::FlowTable`]
//!   into a [`ProfileTable`];
//! - [`try_find_plotters_table_tier`] extracts and runs the pipeline, with
//!   typed errors;
//! - [`try_find_plotters_from_table`] runs the pipeline over a
//!   [`ProfileTable`], with typed errors;
//! - [`find_plotters_from_table`] is its lenient form: a stage whose
//!   threshold cannot be resolved comes back empty.
//!
//! [`ProfileView`]/[`HostMask`] plus the `*_view` stage functions serve
//! stage-level work, and [`stream::DetectionEngine`] serves live feeds.
//!
//! # Examples
//!
//! ```
//! use pw_detect::{try_find_plotters_table_tier, Error, FindPlottersConfig, ProfileTier};
//! use pw_flow::FlowTable;
//!
//! let table = FlowTable::from_records(&[]);
//! let internal = |ip: std::net::Ipv4Addr| ip.octets()[0] == 10;
//! let cfg = FindPlottersConfig::default();
//! let report = try_find_plotters_table_tier(&table, internal, &cfg, ProfileTier::Exact, 2);
//! assert_eq!(report, Err(Error::EmptyWindow));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checkpoint;
pub mod detectors;
pub mod error;
pub mod features;
pub mod multiday;
pub mod perport;
pub mod pipeline;
pub mod rates;
pub mod reduction;
pub mod stream;
pub mod tdg;

pub use checkpoint::{CheckpointError, EngineCheckpoint};
pub use detectors::{
    theta_churn_view, theta_hm_view, theta_vol_view, BucketedHmParams, HistogramDistance,
    HmOptions, HmOutcome, ThetaHmConfig, ThetaHmMode, ThetaHmProfile, Threshold, MIN_CLUSTER_SIZE,
};
pub use error::{ConfigError, Error};
pub use features::{
    extract_profiles_table_par_tier, internal_endpoint, HostMask, HostProfile, ProfileAccumulator,
    ProfileRepr, ProfileTable, ProfileTier, ProfileView,
};
pub use multiday::MultiDayReport;
pub use perport::{find_plotters_per_service, PerServiceReport, ServiceKey};
pub use pipeline::{
    find_plotters_from_table, try_find_plotters_from_table, try_find_plotters_table_tier,
    FindPlottersConfig, PlotterReport,
};
pub use rates::{rates_against, Rates};
pub use reduction::initial_reduction_view;
pub use stream::{DetectionEngine, EngineConfig, EngineConfigBuilder, EngineStats, WindowReport};
pub use tdg::{tdg_scan, TdgConfig, TdgMetrics, TdgReport};
