//! Dataset assembly: synthetic campus days, honeynet overlays, ground truth.
//!
//! This crate plays the role of the paper's data section (§III, §V):
//!
//! - [`campus`]: builds one day of border flow records for a CMU-like
//!   campus (two /16 subnets) — background hosts from `pw-apps`, Traders
//!   from `pw-traders` (with their eMule-Kad / Mainline-DHT sessions run on
//!   the real `pw-kad` overlays), all aggregated by the `pw-flow` Argus;
//! - [`overlay`]: implants 24-hour bot traces from `pw-botnet` onto
//!   randomly selected *active* internal hosts, exactly as §V-B overlays
//!   the Storm and Nugache honeynet captures;
//! - [`labels`]: ground truth — generator-assigned classes plus the
//!   paper's own payload-signature Trader labelling (§III), so experiments
//!   can use the same labelling procedure the authors did;
//! - [`experiment`]: multi-day orchestration (the paper uses eight days).
//!
//! # Examples
//!
//! ```no_run
//! use pw_data::{build_day, CampusConfig};
//!
//! let day = build_day(&CampusConfig::small(), 0);
//! assert!(!day.flows.is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod campus;
pub mod experiment;
pub mod labels;
pub mod overlay;
pub mod persist;

pub use campus::{build_day, CampusConfig, DayDataset, HostInfo, HostRole};
pub use experiment::{run_experiment, DayRun, ExperimentConfig};
pub use labels::label_traders_by_payload;
pub use overlay::{overlay_bots, overlay_bots_onto, OverlaidDay};
pub use persist::{read_ground_truth, write_ground_truth, GroundTruthRow};
