//! # peerwatch
//!
//! Telling P2P file-sharing hosts (**Traders**) and P2P bots (**Plotters**)
//! apart from border flow records — a full reproduction of
//! *"Are Your Hosts Trading or Plotting? Telling P2P File-Sharing and Bots
//! Apart"* (Yen & Reiter, ICDCS 2010), including every substrate its
//! evaluation needs.
//!
//! This facade crate re-exports the workspace:
//!
//! - [`detect`]: the paper's detector — `θ_vol`, `θ_churn`, `θ_hm`, the
//!   failed-connection data-reduction step, and the `FindPlotters` pipeline;
//! - [`flow`]: Argus-style bi-directional flow records, packet aggregation,
//!   payload signatures, CSV persistence;
//! - [`analysis`]: histograms (Freedman–Diaconis), Earth Mover's Distance,
//!   hierarchical clustering, CDFs, ROC curves;
//! - [`netsim`]: the deterministic discrete-event simulation substrate;
//! - [`kad`]: a message-level Kademlia/Overnet DHT;
//! - [`apps`], [`traders`], [`botnet`]: the campus background, file-sharing,
//!   and Storm/Nugache behaviour models;
//! - [`data`]: dataset assembly — campus days, honeynet traces, overlays,
//!   ground truth;
//! - [`chaos`]: deterministic fault injection (drop/duplicate/reorder/
//!   corrupt/stall) for hardening the streaming ingest path;
//! - [`server`]: detection as a service — a long-running TCP server that
//!   ingests sequenced flow frames from multiple border exporters,
//!   checkpoints atomically, and answers line-oriented queries
//!   (`findplotters serve` / `findplotters send`).
//!
//! # Quick start
//!
//! Build a day of traffic, then run the detector — either in one batch
//! call, or continuously with the streaming engine.
//!
//! ```no_run
//! use peerwatch::data::{build_day, overlay_bots, CampusConfig};
//! use peerwatch::botnet::{generate_storm_trace, StormConfig};
//! use peerwatch::detect::{try_find_plotters_table_tier, FindPlottersConfig, ProfileTier, Threshold};
//! use peerwatch::flow::FlowTable;
//!
//! // One day of synthetic campus traffic with an implanted Storm botnet.
//! let day = build_day(&CampusConfig::small(), 0);
//! let storm = generate_storm_trace(&StormConfig::default(), 7);
//! let overlaid = overlay_bots(&day, &[&storm], 42);
//!
//! // Validated configuration; out-of-range knobs fail at build time.
//! let cfg = FindPlottersConfig::builder()
//!     .tau_hm(Threshold::Percentile(70.0))
//!     .cut_fraction(0.05)
//!     .build()?;
//!
//! // Hunt for the bots using only the flow records, sharded over 4 cores.
//! let table = FlowTable::from_records(&overlaid.flows);
//! let report =
//!     try_find_plotters_table_tier(&table, |ip| day.is_internal(ip), &cfg, ProfileTier::Exact, 4)?;
//! for suspect in &report.suspects {
//!     println!("suspected Plotter: {suspect}");
//! }
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! The streaming engine produces the same verdicts window by window from a
//! live feed (here: one tumbling 24-hour window, so it reproduces the batch
//! report exactly):
//!
//! ```no_run
//! use peerwatch::detect::stream::{DetectionEngine, EngineConfig};
//! use peerwatch::data::{build_day, CampusConfig};
//! use peerwatch::netsim::SimDuration;
//!
//! let day = build_day(&CampusConfig::small(), 0);
//! let cfg = EngineConfig {
//!     window: SimDuration::from_hours(24),
//!     slide: SimDuration::from_hours(24),
//!     lateness: SimDuration::from_mins(10),
//!     threads: 4,
//!     ..Default::default()
//! };
//! let mut engine = DetectionEngine::new(cfg, |ip| day.is_internal(ip))?;
//! for flow in &day.flows {
//!     for window in engine.push(*flow)? {
//!         println!("window {}: {:?}", window.index, window.outcome.map(|r| r.suspects));
//!     }
//! }
//! for window in engine.finish() {
//!     println!("window {}: {:?}", window.index, window.outcome.map(|r| r.suspects));
//! }
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! See `examples/` for runnable end-to-end scenarios and `pw-repro` for the
//! binaries that regenerate every figure of the paper's evaluation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use pw_analysis as analysis;
pub use pw_apps as apps;
pub use pw_botnet as botnet;
pub use pw_chaos as chaos;
pub use pw_data as data;
pub use pw_detect as detect;
pub use pw_flow as flow;
pub use pw_kad as kad;
pub use pw_netsim as netsim;
pub use pw_server as server;
pub use pw_traders as traders;
