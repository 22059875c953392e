//! Calibration probe: per-class feature distributions and θ_hm cluster
//! composition for day 0. Not a paper figure — a development tool.

use std::collections::HashSet;
use std::net::Ipv4Addr;

use peerwatch::outln;
use pw_data::HostRole;
use pw_detect::Threshold;
use pw_repro::{build_context, stages, table, Scale};

fn main() {
    let ctx = build_context(Scale::from_env());

    // Per-day θ_hm cluster overview.
    for (di, day) in ctx.days.iter().enumerate() {
        let (reduced, _) = stages::reduce(&day.profiles);
        let (s_vol, _) = stages::vol(&day.profiles, &reduced, Threshold::Percentile(50.0));
        let (s_churn, _) = stages::churn(&day.profiles, &reduced, Threshold::Percentile(50.0));
        let union: HashSet<Ipv4Addr> = s_vol.union(&s_churn).copied().collect();
        let hm = stages::hm(&day.profiles, &union, Threshold::Percentile(70.0), 0.05);
        let mut line = format!("day {di}: tau={:7.1} |", hm.tau);
        for (members, d) in &hm.clusters {
            let s = members
                .iter()
                .filter(|ip| day.storm_hosts.contains(ip))
                .count();
            let n = members
                .iter()
                .filter(|ip| day.nugache_hosts.contains(ip))
                .count();
            let bg = members.len() - s - n;
            let kept = if *d <= hm.tau { "K" } else { "d" };
            line += &format!(" {kept}[{}|s{s} n{n} bg{bg} @{d:.0}]", members.len());
        }
        outln!("{line}");
    }
    outln!();

    let day = &ctx.days[0];
    let base = &day.run.overlaid.base;

    let class_of = |ip: &Ipv4Addr| -> String {
        if day.storm_hosts.contains(ip) {
            "storm".into()
        } else if day.nugache_hosts.contains(ip) {
            "nugache".into()
        } else {
            match base.hosts.get(ip).map(|h| h.role) {
                Some(HostRole::Trader(app)) => format!("trader-{app}"),
                Some(HostRole::Office) => "office".into(),
                Some(HostRole::Dorm) => "dorm".into(),
                Some(HostRole::Quiet) => "quiet".into(),
                None => "?".into(),
            }
        }
    };

    let classes = [
        "storm",
        "nugache",
        "trader-gnutella",
        "trader-emule",
        "trader-bittorrent",
        "office",
        "dorm",
        "quiet",
    ];
    let mut rows = Vec::new();
    for class in classes {
        let mut ps: Vec<_> = day
            .profiles
            .profiles()
            .iter()
            .filter(|p| class_of(&p.ip) == class)
            .collect();
        ps.sort_by_key(|p| p.ip);
        if ps.is_empty() {
            continue;
        }
        let med = |vals: Vec<f64>| pw_analysis::median(&vals).unwrap_or(f64::NAN);
        let vol = med(ps.iter().filter_map(|p| p.avg_upload_per_flow()).collect());
        let churn = med(ps.iter().filter_map(|p| p.new_ip_fraction()).collect());
        let failed = med(ps.iter().filter_map(|p| p.failed_rate()).collect());
        let flows = med(ps.iter().map(|p| p.flows_involving as f64).collect());
        let ist = med(ps.iter().map(|p| p.interstitial_count() as f64).collect());
        let dests = med(ps
            .iter()
            .map(|p| p.distinct_destinations() as f64)
            .collect());
        rows.push(vec![
            class.to_string(),
            ps.len().to_string(),
            format!("{flows:.0}"),
            format!("{vol:.0}"),
            table::pct(churn),
            table::pct(failed),
            format!("{ist:.0}"),
            format!("{dests:.0}"),
        ]);
    }
    outln!(
        "{}",
        table::render(
            "Day 0 — median features per class",
            &["class", "hosts", "flows", "upB/flow", "new-IP%", "failed%", "ist n", "dests"],
            &rows
        )
    );

    // Threshold positions.
    let (reduced, thr) = stages::reduce(&day.profiles);
    let (s_vol, tau_vol) = stages::vol(&day.profiles, &reduced, Threshold::Percentile(50.0));
    let (s_churn, tau_churn) = stages::churn(&day.profiles, &reduced, Threshold::Percentile(50.0));
    outln!("reduction threshold (failed rate): {}", table::pct(thr));
    outln!(
        "tau_vol: {tau_vol:.0} B/flow   tau_churn: {}",
        table::pct(tau_churn)
    );

    // Class composition of the hm input and clusters.
    let union: HashSet<Ipv4Addr> = s_vol.union(&s_churn).copied().collect();
    let hm = stages::hm(&day.profiles, &union, Threshold::Percentile(70.0), 0.05);
    outln!(
        "\nθ_hm input {} hosts; {} without interstitial samples",
        union.len(),
        hm.no_samples
    );
    outln!(
        "τ_hm = {:.3}; {} multi-host clusters",
        hm.tau,
        hm.clusters.len()
    );
    for (members, diameter) in hm.clusters.iter().take(40) {
        let mut comp: std::collections::BTreeMap<String, usize> = Default::default();
        for ip in members {
            *comp.entry(class_of(ip)).or_default() += 1;
        }
        let kept = if *diameter <= hm.tau { "KEEP" } else { "drop" };
        outln!(
            "  {kept} d={diameter:9.3} size={:3} {comp:?}",
            members.len()
        );
    }

    // EMD structure diagnostics.
    let mut hosts: Vec<Ipv4Addr> = union.iter().copied().collect();
    hosts.sort();
    let hists: Vec<(Ipv4Addr, pw_analysis::Histogram)> = hosts
        .iter()
        .filter_map(|ip| {
            let p = day.profiles.get(*ip)?;
            if !p.has_interstitials() {
                return None;
            }
            Some((
                *ip,
                pw_analysis::Histogram::freedman_diaconis(p.interstitials())?,
            ))
        })
        .collect();
    let idx_class: Vec<String> = hists.iter().map(|(ip, _)| class_of(ip)).collect();
    let dm = pw_analysis::DistanceMatrix::from_fn(hists.len(), |i, j| {
        pw_analysis::emd_histograms(&hists[i].1, &hists[j].1)
    });
    let mut storm_pairs: Vec<f64> = Vec::new();
    let mut storm_cross_min = f64::INFINITY;
    let mut bg_pairs: Vec<f64> = Vec::new();
    for i in 0..hists.len() {
        for j in (i + 1)..hists.len() {
            let d = dm.get(i, j);
            let (ci, cj) = (&idx_class[i], &idx_class[j]);
            if ci == "storm" && cj == "storm" {
                storm_pairs.push(d);
            } else if (ci == "storm") != (cj == "storm") {
                storm_cross_min = storm_cross_min.min(d);
            } else if ci != "nugache" && cj != "nugache" {
                bg_pairs.push(d);
            }
        }
    }
    outln!(
        "\nstorm-storm EMD: max {:.1}  median {:.1}",
        storm_pairs.iter().cloned().fold(0.0, f64::max),
        pw_analysis::median(&storm_pairs).unwrap_or(f64::NAN)
    );
    outln!("storm-to-nonstorm min EMD: {storm_cross_min:.1}");
    outln!(
        "background-background EMD: median {:.1}  p90 {:.1}",
        pw_analysis::median(&bg_pairs).unwrap_or(f64::NAN),
        pw_analysis::percentile(&bg_pairs, 90.0).unwrap_or(f64::NAN)
    );
    let dendro = pw_analysis::average_linkage(&dm);
    let heights: Vec<f64> = dendro.merges().iter().map(|m| m.height).collect();
    let top: Vec<String> = heights
        .iter()
        .rev()
        .take(12)
        .map(|h| format!("{h:.0}"))
        .collect();
    outln!("top merge heights: {top:?}");
}
