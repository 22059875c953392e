//! Streaming detection over a campus day: replay the border flow feed
//! through the windowed [`DetectionEngine`] and watch verdicts arrive as
//! each window closes, then confirm that one full-day window reproduces the
//! batch pipeline's output exactly.
//!
//! ```sh
//! cargo run --release --example streaming_day
//! ```

use std::collections::HashSet;
use std::net::Ipv4Addr;

use peerwatch::botnet::{generate_storm_trace, StormConfig};
use peerwatch::data::{build_day, overlay_bots, CampusConfig};
use peerwatch::detect::stream::{DetectionEngine, EngineConfig, EvictionPolicy};
use peerwatch::detect::{try_find_plotters_table_tier, FindPlottersConfig, ProfileTier};
use peerwatch::flow::FlowTable;
use peerwatch::netsim::SimDuration;

fn main() {
    let campus = CampusConfig::small();
    let day = build_day(&campus, 0);
    let storm = generate_storm_trace(
        &StormConfig {
            duration: campus.duration,
            ..StormConfig::default()
        },
        7,
    );
    let overlaid = overlay_bots(&day, &[&storm], 42);
    let mut flows = overlaid.flows.clone();
    flows.sort_by_key(|f| (f.start, f.src, f.dst, f.sport, f.dport));
    let bots: HashSet<Ipv4Addr> = overlaid.implants.keys().copied().collect();
    println!(
        "{} border flows, {} implanted bots",
        flows.len(),
        bots.len()
    );

    // Hourly tumbling windows, 4 worker threads, evict hosts idle > 30 min.
    let cfg = EngineConfig {
        window: SimDuration::from_hours(1),
        slide: SimDuration::from_hours(1),
        lateness: SimDuration::from_mins(10),
        threads: 4,
        eviction: EvictionPolicy::IdleLongerThan(SimDuration::from_mins(30)),
        ..Default::default()
    };
    let mut engine = DetectionEngine::new(cfg, |ip| day.is_internal(ip)).expect("valid config");
    let mut windows = Vec::new();
    for f in &flows {
        windows.extend(engine.push(*f).expect("flows replayed in order"));
    }
    windows.extend(engine.finish());

    println!(
        "\n{:<8} {:>7} {:>6} {:>8} {:>9} {:>9}",
        "window", "flows", "hosts", "evicted", "suspects", "bots hit"
    );
    for w in &windows {
        match &w.outcome {
            Ok(r) => {
                let hit = r.suspects.intersection(&bots).count();
                println!(
                    "{:<8} {:>7} {:>6} {:>8} {:>9} {:>7}/{}",
                    format!("[{}h]", w.index),
                    w.flows,
                    w.hosts,
                    w.evicted,
                    r.suspects.len(),
                    hit,
                    bots.len()
                );
            }
            Err(e) => println!(
                "{:<8} {:>7}  — no verdict: {e}",
                format!("[{}h]", w.index),
                w.flows
            ),
        }
    }

    // One window covering the whole day == the batch pipeline, exactly.
    let full = EngineConfig {
        window: SimDuration::from_hours(25),
        slide: SimDuration::from_hours(25),
        lateness: SimDuration::from_mins(10),
        threads: 4,
        ..Default::default()
    };
    let mut engine = DetectionEngine::new(full, |ip| day.is_internal(ip)).expect("valid config");
    for f in &flows {
        engine.push(*f).expect("flows replayed in order");
    }
    let report = engine
        .finish()
        .pop()
        .expect("one window")
        .outcome
        .expect("non-empty day");
    let batch = try_find_plotters_table_tier(
        &FlowTable::from_records(&flows),
        |ip| day.is_internal(ip),
        &FindPlottersConfig::default(),
        ProfileTier::Exact,
        1,
    )
    .expect("every threshold resolves");
    assert_eq!(report.suspects, batch.suspects);
    assert_eq!(report.tau_vol.to_bits(), batch.tau_vol.to_bits());
    assert_eq!(report.tau_churn.to_bits(), batch.tau_churn.to_bits());
    println!(
        "\nfull-day streaming window == batch pipeline: {} suspects, {} of {} bots",
        report.suspects.len(),
        report.suspects.intersection(&bots).count(),
        bots.len()
    );
}
