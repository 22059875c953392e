//! Generate a synthetic campus day (with optional implanted botnets) as
//! CSV files a downstream `findplotters` run can consume.
//!
//! ```sh
//! cargo run --release --bin gen-campus -- out_dir [--seed N] [--day N] \
//!     [--hosts N] [--no-bots] [--small]
//! ```
//!
//! Writes `out_dir/flows.csv` (Argus-style flow records) and
//! `out_dir/hosts.csv` (ground truth: role, activity, implants).

use std::collections::HashMap;
use std::fs;
use std::net::Ipv4Addr;

use peerwatch::botnet::{
    generate_nugache_trace, generate_storm_trace, BotFamily, NugacheConfig, StormConfig,
};
use peerwatch::data::{build_day, overlay_bots, CampusConfig};
use peerwatch::errln;
use peerwatch::flow::csvio::write_flows;

fn usage() -> ! {
    errln!("usage: gen-campus <out_dir> [--seed N] [--day N] [--hosts N] [--no-bots] [--small]");
    std::process::exit(2)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out_dir: Option<String> = None;
    let mut seed = 0xC4A9D5u64;
    let mut day = 0usize;
    let mut hosts: Option<usize> = None;
    let mut bots = true;
    let mut small = false;

    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--seed" => {
                seed = it
                    .next()
                    .unwrap_or_else(|| usage())
                    .parse()
                    .unwrap_or_else(|_| usage())
            }
            "--day" => {
                day = it
                    .next()
                    .unwrap_or_else(|| usage())
                    .parse()
                    .unwrap_or_else(|_| usage())
            }
            "--hosts" => {
                hosts = Some(
                    it.next()
                        .unwrap_or_else(|| usage())
                        .parse()
                        .unwrap_or_else(|_| usage()),
                )
            }
            "--no-bots" => bots = false,
            "--small" => small = true,
            _ if out_dir.is_none() && !a.starts_with('-') => out_dir = Some(a.clone()),
            _ => usage(),
        }
    }
    let Some(out_dir) = out_dir else { usage() };

    let mut campus = if small {
        CampusConfig::small()
    } else {
        CampusConfig::default()
    };
    campus.seed = seed;
    if let Some(h) = hosts {
        campus.n_background = h;
    }
    errln!(
        "building day {day}: {} background hosts + {} traders…",
        campus.n_background,
        campus.n_gnutella + campus.n_emule + campus.n_bittorrent
    );
    let dataset = build_day(&campus, day);

    let (flows, implants): (_, HashMap<Ipv4Addr, BotFamily>) = if bots {
        // A small campus cannot host the full 13+82-bot complement.
        let (n_storm, n_nugache) = if small { (4, 10) } else { (13, 82) };
        let storm = generate_storm_trace(
            &StormConfig {
                duration: campus.duration,
                day: day as u64,
                n_bots: n_storm,
                ..StormConfig::default()
            },
            seed ^ 0x5701 ^ day as u64,
        );
        let nugache = generate_nugache_trace(
            &NugacheConfig {
                duration: campus.duration,
                n_bots: n_nugache,
                ..NugacheConfig::default()
            },
            seed ^ 0x4106 ^ day as u64,
        );
        errln!(
            "implanting {} storm + {} nugache bots…",
            storm.bots.len(),
            nugache.bots.len()
        );
        let overlaid = overlay_bots(&dataset, &[&storm, &nugache], seed ^ day as u64);
        (overlaid.flows, overlaid.implants)
    } else {
        (dataset.flows.clone(), HashMap::new())
    };

    fs::create_dir_all(&out_dir).expect("create output directory");
    let flow_path = format!("{out_dir}/flows.csv");
    let f = fs::File::create(&flow_path).expect("create flows.csv");
    write_flows(std::io::BufWriter::new(f), &flows).expect("write flows");
    errln!("wrote {} flows to {flow_path}", flows.len());

    let hosts_path = format!("{out_dir}/hosts.csv");
    let hf = std::io::BufWriter::new(fs::File::create(&hosts_path).expect("create hosts.csv"));
    peerwatch::data::write_ground_truth(hf, &dataset.hosts, &implants).expect("write ground truth");
    errln!("wrote ground truth to {hosts_path}");
}
