//! Sketched-vs-exact accuracy harness for the tiered profile
//! representation (DESIGN.md "Sketched profile tier").
//!
//! Two experiments:
//!
//! 1. **Campus-day decision parity.** Every day of the standard context is
//!    re-extracted at [`ProfileTier::Sketched`] and the full FindPlotters
//!    pipeline runs on both representations. At campus scale hosts stay
//!    within the sketches' sparse-exact range, so the suspect sets must be
//!    identical — any divergence is a bug, not an approximation.
//!
//! 2. **Large-n memory & divergence sweep.** Synthetic populations up to
//!    n=100 000 hosts (n=10 000 under `PW_FAST=1`) with heavy-hitter
//!    fan-out that forces both sketches dense. Reports bytes/host against
//!    `SKETCHED_BYTES_PER_HOST_CAP`, per-feature estimation error, and the
//!    decision divergence of the scalar stages (reduction, θ_vol, θ_churn)
//!    between tiers.
//!
//! With `--check`, exits nonzero when campus parity breaks, the byte cap
//! is exceeded, or sweep divergence leaves its bound — `scripts/ci.sh`
//! gates on this at fast scale.

use std::net::Ipv4Addr;
use std::process::ExitCode;

use peerwatch::{errln, outln};
use pw_detect::{
    extract_profiles_table_par_tier, find_plotters_from_table, FindPlottersConfig,
    ProfileAccumulator, ProfileTable, ProfileTier,
};
use pw_flow::{FlowRecord, FlowState, FlowTable, Payload, Proto};
use pw_netsim::SimTime;
use pw_repro::{build_context, stages, table, Scale};
use pw_sketch::SKETCHED_BYTES_PER_HOST_CAP;

/// Maximum tolerated fraction of hosts whose scalar-stage verdict flips
/// between tiers in the dense sweep (HLL σ ≈ 3.25% on churn inputs; flips
/// concentrate on hosts sitting exactly at a percentile threshold).
const SWEEP_DIVERGENCE_BOUND: f64 = 0.05;

fn total_bytes(t: &ProfileTable) -> u64 {
    t.profiles()
        .iter()
        .map(|p| p.estimated_bytes() as u64)
        .sum()
}

fn max_bytes(t: &ProfileTable) -> usize {
    t.profiles()
        .iter()
        .map(pw_detect::HostProfile::estimated_bytes)
        .max()
        .unwrap_or(0)
}

/// One synthetic flow; only the fields the accumulator reads matter.
fn flow(src: Ipv4Addr, dst: Ipv4Addr, t: SimTime, failed: bool) -> FlowRecord {
    FlowRecord {
        start: t,
        end: t,
        src,
        sport: 40_000,
        dst,
        dport: 80,
        proto: Proto::Tcp,
        src_pkts: 2,
        src_bytes: 900,
        dst_pkts: 1,
        dst_bytes: 64,
        state: if failed {
            FlowState::SynNoAnswer
        } else {
            FlowState::Established
        },
        payload: Payload::empty(),
    }
}

/// Builds `n` synthetic host profiles at `tier` through the real
/// accumulator path. Every 97th host is a heavy hitter (1024 distinct
/// peers, two contacts each) that forces both sketches past their sparse
/// caps; the rest stay sparse-exact. Flows are generated per host in
/// non-decreasing start order, as the accumulator contract requires.
fn synth_profiles(n: usize, tier: ProfileTier) -> ProfileTable {
    let mut acc = ProfileAccumulator::with_tier(tier);
    for k in 0..n {
        let host = Ipv4Addr::new(10, (k >> 16) as u8, (k >> 8) as u8, k as u8);
        let heavy = k % 97 == 0;
        let peers: u32 = if heavy { 1024 } else { 12 };
        let mut t_ms: u64 = 0;
        for round in 0..2u32 {
            for p in 0..peers {
                let v = (k as u32)
                    .wrapping_mul(0x9E37_79B9)
                    .wrapping_add(p.wrapping_mul(0x85EB_CA6B));
                let dst = Ipv4Addr::new(100, (v >> 16) as u8, (v >> 8) as u8, v as u8);
                let failed = (p + round) % 5 == 0;
                acc.absorb(&flow(host, dst, SimTime::from_millis(t_ms), failed), host);
                t_ms += if heavy {
                    1_000 + u64::from((p + round) % 7) * 250
                } else {
                    240_000 + u64::from(k as u32 % 13) * 1_000
                };
            }
        }
    }
    acc.finish()
}

struct SweepRow {
    n: usize,
    exact_bytes: u64,
    sketched_bytes: u64,
    max_host_bytes: usize,
    distinct_rel_err_max: f64,
    churn_abs_err_max: f64,
    diverged_hosts: usize,
}

fn sweep(n: usize) -> SweepRow {
    let exact = synth_profiles(n, ProfileTier::Exact);
    let sketched = synth_profiles(n, ProfileTier::Sketched);

    let mut distinct_rel_err_max = 0.0f64;
    let mut churn_abs_err_max = 0.0f64;
    for pe in exact.profiles() {
        let ps = sketched.get(pe.ip).expect("same host set in both tiers");
        let de = pe.distinct_destinations() as f64;
        let ds = ps.distinct_destinations() as f64;
        if de > 0.0 {
            distinct_rel_err_max = distinct_rel_err_max.max((ds - de).abs() / de);
        }
        if let (Some(ce), Some(cs)) = (pe.new_ip_fraction(), ps.new_ip_fraction()) {
            churn_abs_err_max = churn_abs_err_max.max((cs - ce).abs());
        }
    }

    // Scalar-stage decision divergence: reduction → θ_vol / θ_churn with
    // the pipeline's default percentile thresholds. θ_hm is exercised by
    // the campus-day parity run; at n=100k its O(n²) clustering is not a
    // per-host decision and is skipped here.
    let cfg = FindPlottersConfig::default();
    let verdicts = |t: &ProfileTable| {
        let (reduced, _) = stages::reduce(t);
        let (v, _) = stages::vol(t, &reduced, cfg.tau_vol);
        let (c, _) = stages::churn(t, &reduced, cfg.tau_churn);
        (v, c)
    };
    let (v_e, c_e) = verdicts(&exact);
    let (v_s, c_s) = verdicts(&sketched);
    let diverged_hosts =
        v_e.symmetric_difference(&v_s).count() + c_e.symmetric_difference(&c_s).count();

    SweepRow {
        n,
        exact_bytes: total_bytes(&exact),
        sketched_bytes: total_bytes(&sketched),
        max_host_bytes: max_bytes(&sketched),
        distinct_rel_err_max,
        churn_abs_err_max,
        diverged_hosts,
    }
}

fn main() -> ExitCode {
    let check = std::env::args().any(|a| a == "--check");
    let scale = Scale::from_env();
    let mut failures: Vec<String> = Vec::new();

    // Part 1: campus-day decision parity.
    let ctx = build_context(scale);
    let cfg = FindPlottersConfig::default();
    let mut rows = Vec::new();
    for (i, day) in ctx.days.iter().enumerate() {
        let flows = FlowTable::from_records(&day.run.overlaid.flows);
        let base = &day.run.overlaid.base;
        let sketched = extract_profiles_table_par_tier(
            &flows,
            |ip| base.is_internal(ip),
            ProfileTier::Sketched,
            1,
        );
        let exact_report = find_plotters_from_table(&day.profiles, &cfg);
        let sketch_report = find_plotters_from_table(&sketched, &cfg);
        let diverged = exact_report
            .suspects
            .symmetric_difference(&sketch_report.suspects)
            .count();
        if diverged != 0 {
            failures.push(format!(
                "day {i}: {diverged} suspect(s) differ between exact and sketched tiers"
            ));
        }
        rows.push(vec![
            format!("{i}"),
            format!("{}", day.profiles.len()),
            format!("{}", exact_report.suspects.len()),
            format!("{}", sketch_report.suspects.len()),
            format!("{diverged}"),
            format!("{}", total_bytes(&day.profiles)),
            format!("{}", total_bytes(&sketched)),
        ]);
    }
    outln!(
        "{}",
        table::render(
            "Campus-day decision parity (exact vs sketched tier)",
            &[
                "day",
                "hosts",
                "exact suspects",
                "sketched suspects",
                "diverged",
                "exact bytes",
                "sketched bytes",
            ],
            &rows
        )
    );

    // Part 2: large-n memory & divergence sweep.
    let ns: &[usize] = match scale {
        Scale::Standard => &[10_000, 100_000],
        Scale::Fast => &[1_000, 10_000],
    };
    let mut rows = Vec::new();
    for &n in ns {
        let row = sweep(n);
        if row.max_host_bytes > SKETCHED_BYTES_PER_HOST_CAP {
            failures.push(format!(
                "n={n}: sketched host at {} bytes exceeds the {SKETCHED_BYTES_PER_HOST_CAP}-byte cap",
                row.max_host_bytes
            ));
        }
        let diverged_fraction = row.diverged_hosts as f64 / n as f64;
        if diverged_fraction > SWEEP_DIVERGENCE_BOUND {
            failures.push(format!(
                "n={n}: scalar-stage divergence {} exceeds bound {}",
                table::pct(diverged_fraction),
                table::pct(SWEEP_DIVERGENCE_BOUND)
            ));
        }
        rows.push(vec![
            format!("{n}"),
            format!("{}", row.exact_bytes),
            format!("{}", row.sketched_bytes),
            format!("{:.1}", row.sketched_bytes as f64 / row.n as f64),
            format!("{}", row.max_host_bytes),
            table::pct(row.distinct_rel_err_max),
            format!("{:.4}", row.churn_abs_err_max),
            format!("{}", row.diverged_hosts),
        ]);
    }
    outln!(
        "{}",
        table::render(
            "Dense sweep — memory and divergence vs exact tier",
            &[
                "hosts",
                "exact bytes",
                "sketched bytes",
                "sketched B/host",
                "max B/host",
                "distinct err (max)",
                "churn err (max)",
                "diverged",
            ],
            &rows
        )
    );
    outln!("bytes-per-host cap: {SKETCHED_BYTES_PER_HOST_CAP}");

    if failures.is_empty() {
        outln!("sketch accuracy: OK");
        ExitCode::SUCCESS
    } else {
        for f in &failures {
            errln!("sketch accuracy FAILURE: {f}");
        }
        if check {
            ExitCode::FAILURE
        } else {
            outln!("(advisory run; pass --check to gate)");
            ExitCode::SUCCESS
        }
    }
}
