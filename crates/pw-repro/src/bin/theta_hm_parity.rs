//! Bucketed-vs-exact accuracy and scaling harness for the sub-quadratic
//! `θ_hm` path (DESIGN.md "Sub-quadratic θ_hm").
//!
//! Three experiments:
//!
//! 1. **Synthetic fixture parity.** Mixed periodic/humanish populations at
//!    n ≤ 4096 run through `θ_hm` in [`ThetaHmMode::Exact`] and in
//!    [`ThetaHmMode::Bucketed`] with the *default* parameters. Every such
//!    population sits below `exact_below`, so the bucketed mode must take
//!    the exact path — kept sets, clusters, and `τ_hm` bits must all be
//!    identical. This gates the mode plumbing, not the approximation.
//!
//! 2. **Campus-day decision parity.** Every day of the standard context
//!    runs through the full FindPlotters pipeline under both modes; the
//!    suspect sets must be identical (campus days are far below the
//!    cutoff). A third, *forced* bucketed run (`exact_below = 0`) measures
//!    the genuine approximation divergence, which must stay above the
//!    Jaccard floor.
//!
//! 3. **Scaling sweep** (`--scale`). Synthetic populations up to
//!    n = 100 000 through the bucketed path with stage profiling, plus
//!    exact-path timings at n ≤ 16384 for the quadratic extrapolation
//!    baseline. Emits a JSON block (recorded as `BENCH_10.json`) and the
//!    kept-set Jaccard at the largest n where the exact path still runs.
//!
//! With `--check`, exits nonzero when any parity breaks or forced-bucketed
//! divergence leaves its bound — `scripts/ci.sh` gates on this at fast
//! scale.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::net::Ipv4Addr;
use std::process::ExitCode;
use std::time::Instant;

use pw_detect::{
    find_plotters_from_table, theta_hm_view, BucketedHmParams, FindPlottersConfig, HmOptions,
    HmOutcome, HostMask, HostProfile, ProfileRepr, ProfileTable, ProfileView, ThetaHmConfig,
    ThetaHmMode, ThetaHmProfile,
};
use pw_netsim::SimTime;
use pw_repro::{build_context, table, Scale};

/// Minimum suspect-set Jaccard similarity tolerated on campus days when
/// the coarse bucketing is *forced* onto populations the exact path would
/// normally handle (`exact_below = 0`).
const FORCED_JACCARD_FLOOR: f64 = 0.8;

/// On the synthetic fixtures the gate is ground-truth shaped: of the
/// machine-periodic hosts the exact path keeps, the forced-bucketed path
/// must keep at least this fraction (and vice versa). The whole-population
/// kept-set Jaccard is reported as an advisory only — at `τ_hm`'s default
/// 70th percentile it is dominated by diffuse humanish clusters flipping
/// at the threshold boundary, which the real pipeline never surfaces (the
/// campus-day suspect parity above is the end-to-end check of that).
const FORCED_PERIODIC_RECALL_FLOOR: f64 = 0.95;

/// Jaccard similarity of two IP sets; 1.0 when both are empty (identical).
fn jaccard(a: &HashSet<Ipv4Addr>, b: &HashSet<Ipv4Addr>) -> f64 {
    let inter = a.intersection(b).count();
    let union = a.union(b).count();
    if union == 0 {
        1.0
    } else {
        inter as f64 / union as f64
    }
}

/// Deterministic mixed population: every 4th host is machine-periodic
/// (one of 8 bot families with distinct base periods and sub-second
/// jitter), the rest draw heavy-tailed humanish gaps whose per-host scale
/// walks a continuum — human timing is diffuse, so no two humanish hosts
/// share a distribution shape (the paper's premise, and what keeps the
/// τ_hm boundary population small). 200 interstitial samples per host,
/// matching the pw-bench `theta_hm` fixtures.
fn synth_population(n: usize) -> (ProfileTable, HashSet<Ipv4Addr>, HashSet<Ipv4Addr>) {
    let mut profiles = HashMap::with_capacity(n);
    let mut all = HashSet::with_capacity(n);
    let mut periodic = HashSet::with_capacity(n / 4 + 1);
    for k in 0..n {
        let ip = Ipv4Addr::new(10, (k >> 16) as u8, (k >> 8) as u8, k as u8);
        if k % 4 == 0 {
            periodic.insert(ip);
        }
        let interstitials: Vec<f64> = if k % 4 == 0 {
            let fam = (k / 4) % 8;
            (0..200)
                .map(|i| 60.0 * (fam + 1) as f64 + ((i * 7 + k) % 5) as f64 * 0.25)
                .collect()
        } else {
            let scale = 1_000.0 + ((k as u64).wrapping_mul(2_654_435_761) % 10_000) as f64;
            (0..200)
                .map(|i| {
                    let v = ((i as u64)
                        .wrapping_mul(2_654_435_761)
                        .wrapping_add(k as u64 * 977)
                        % 10_000) as f64
                        / 10_000.0;
                    30.0 * ((k % 13) as f64) + scale * v * v * v
                })
                .collect()
        };
        profiles.insert(
            ip,
            HostProfile {
                ip,
                flows_involving: 201,
                bytes_uploaded: 1_000,
                initiated: 200,
                initiated_failed: 0,
                first_activity: Some(SimTime::ZERO),
                repr: ProfileRepr::Exact {
                    first_contact: BTreeMap::new(),
                    interstitials,
                },
            },
        );
        all.insert(ip);
    }
    (ProfileTable::from_map(profiles), all, periodic)
}

/// Runs `θ_hm` over the synthetic population under the given config.
fn run_hm(
    profiles: &ProfileTable,
    s: &HashSet<Ipv4Addr>,
    theta: ThetaHmConfig,
    threads: usize,
) -> (HmOutcome, f64) {
    let cfg = FindPlottersConfig::default();
    let view = ProfileView::from_table(profiles);
    let mask = HostMask::from_ips(&view, s);
    let t0 = Instant::now();
    let hm = theta_hm_view(
        &view,
        &mask,
        cfg.tau_hm,
        cfg.cut_fraction,
        &HmOptions {
            threads,
            theta,
            ..Default::default()
        },
    );
    (hm, t0.elapsed().as_secs_f64() * 1e3)
}

fn bucketed(exact_below: usize) -> ThetaHmConfig {
    ThetaHmConfig {
        mode: ThetaHmMode::Bucketed(BucketedHmParams {
            exact_below,
            ..Default::default()
        }),
        profile: true,
        ..Default::default()
    }
}

fn profile_row(n: usize, total_ms: f64, p: &ThetaHmProfile) -> Vec<String> {
    let ms = |d: std::time::Duration| format!("{:.1}", d.as_secs_f64() * 1e3);
    vec![
        format!("{n}"),
        format!("{:.1}", total_ms),
        ms(p.histograms),
        ms(p.embed),
        ms(p.bucket),
        ms(p.distance_fill),
        ms(p.linkage),
        ms(p.cut_and_diameters),
        format!("{}", p.bucket_sizes.len()),
    ]
}

fn main() -> ExitCode {
    let check = std::env::args().any(|a| a == "--check");
    let scale_sweep = std::env::args().any(|a| a == "--scale");
    let scale = Scale::from_env();
    let mut failures: Vec<String> = Vec::new();

    // Part 1: synthetic fixture parity (default bucketed params == exact).
    let fixture_ns: &[usize] = match scale {
        Scale::Standard => &[256, 1024, 4096],
        Scale::Fast => &[256, 1024],
    };
    let mut rows = Vec::new();
    for &n in fixture_ns {
        let (profiles, s, periodic) = synth_population(n);
        let (exact, exact_ms) = run_hm(&profiles, &s, ThetaHmConfig::default(), 1);
        let (auto, auto_ms) = run_hm(
            &profiles,
            &s,
            bucketed(BucketedHmParams::default().exact_below),
            1,
        );
        let identical = exact.kept == auto.kept
            && exact.clusters == auto.clusters
            && exact.tau.to_bits() == auto.tau.to_bits();
        if !identical {
            failures.push(format!(
                "n={n}: bucketed mode below exact_below diverged from the exact path"
            ));
        }
        // Forced coarse bucketing on the same population: genuine
        // approximation, gated on machine-host recall parity.
        let (forced, forced_ms) = run_hm(&profiles, &s, bucketed(0), 1);
        let exact_bots: HashSet<Ipv4Addr> = exact.kept.intersection(&periodic).copied().collect();
        let forced_bots: HashSet<Ipv4Addr> = forced.kept.intersection(&periodic).copied().collect();
        let recall = jaccard(&exact_bots, &forced_bots);
        if recall < FORCED_PERIODIC_RECALL_FLOOR {
            failures.push(format!(
                "n={n}: forced-bucketed periodic-host agreement {recall:.3} below floor \
                 {FORCED_PERIODIC_RECALL_FLOOR}"
            ));
        }
        let j = jaccard(&exact.kept, &forced.kept);
        rows.push(vec![
            format!("{n}"),
            format!("{}", exact.kept.len()),
            if identical { "yes".into() } else { "NO".into() },
            format!("{}", forced.kept.len()),
            format!("{}/{}", forced_bots.len(), exact_bots.len()),
            format!("{recall:.3}"),
            format!("{j:.3}"),
            format!("{exact_ms:.1}"),
            format!("{auto_ms:.1}"),
            format!("{forced_ms:.1}"),
        ]);
    }
    println!(
        "{}",
        table::render(
            "Synthetic fixture parity (exact vs bucketed mode)",
            &[
                "hosts",
                "exact kept",
                "bitwise ==",
                "forced kept",
                "bots kept",
                "bot agree",
                "jaccard",
                "exact ms",
                "auto ms",
                "forced ms",
            ],
            &rows
        )
    );

    // Part 2: campus-day decision parity + forced divergence.
    let ctx = build_context(scale);
    let cfg_exact = FindPlottersConfig::default();
    let cfg_auto = FindPlottersConfig {
        theta_hm: bucketed(BucketedHmParams::default().exact_below),
        ..Default::default()
    };
    let cfg_forced = FindPlottersConfig {
        theta_hm: bucketed(0),
        ..Default::default()
    };
    let mut rows = Vec::new();
    for (i, day) in ctx.days.iter().enumerate() {
        let exact = find_plotters_from_table(&day.profiles, &cfg_exact);
        let auto = find_plotters_from_table(&day.profiles, &cfg_auto);
        let forced = find_plotters_from_table(&day.profiles, &cfg_forced);
        let diverged = exact.suspects.symmetric_difference(&auto.suspects).count();
        if diverged != 0 {
            failures.push(format!(
                "day {i}: {diverged} suspect(s) differ between exact and bucketed modes"
            ));
        }
        let j = jaccard(&exact.suspects, &forced.suspects);
        if j < FORCED_JACCARD_FLOOR {
            failures.push(format!(
                "day {i}: forced-bucketed suspect Jaccard {j:.3} below floor {FORCED_JACCARD_FLOOR}"
            ));
        }
        rows.push(vec![
            format!("{i}"),
            format!("{}", day.profiles.len()),
            format!("{}", exact.suspects.len()),
            format!("{}", auto.suspects.len()),
            format!("{diverged}"),
            format!("{}", forced.suspects.len()),
            format!("{j:.3}"),
        ]);
    }
    println!(
        "{}",
        table::render(
            "Campus-day decision parity (exact vs bucketed θ_hm)",
            &[
                "day",
                "hosts",
                "exact suspects",
                "bucketed suspects",
                "diverged",
                "forced suspects",
                "jaccard",
            ],
            &rows
        )
    );

    // Part 3: scaling sweep with stage profile (expensive; opt-in).
    if scale_sweep {
        let threads = 8;
        let exact_ns: &[usize] = &[4_096, 16_384];
        let bucketed_ns: &[usize] = &[4_096, 16_384, 50_000, 100_000];
        let mut exact_ms: BTreeMap<usize, f64> = BTreeMap::new();
        let mut exact_kept: HashMap<usize, HashSet<Ipv4Addr>> = HashMap::new();
        for &n in exact_ns {
            let (profiles, s, _) = synth_population(n);
            let theta = ThetaHmConfig {
                profile: true,
                ..Default::default()
            };
            let (hm, ms) = run_hm(&profiles, &s, theta, threads);
            let p = hm.profile.clone().unwrap_or_default();
            println!(
                "exact n={n}: {ms:.1} ms (hist {:.1}, fill {:.1}, linkage {:.1}, cut {:.1}), kept {}",
                p.histograms.as_secs_f64() * 1e3,
                p.distance_fill.as_secs_f64() * 1e3,
                p.linkage.as_secs_f64() * 1e3,
                p.cut_and_diameters.as_secs_f64() * 1e3,
                hm.kept.len(),
            );
            exact_ms.insert(n, ms);
            exact_kept.insert(n, hm.kept);
        }
        let mut rows = Vec::new();
        let mut bucketed_ms: BTreeMap<usize, f64> = BTreeMap::new();
        let mut profiles_json = String::new();
        let mut jaccard_16384 = f64::NAN;
        let mut bot_agree_16384 = f64::NAN;
        for &n in bucketed_ns {
            let (profiles, s, periodic) = synth_population(n);
            let (hm, ms) = run_hm(&profiles, &s, bucketed(8_192), threads);
            let p = hm.profile.clone().unwrap_or_default();
            rows.push(profile_row(n, ms, &p));
            bucketed_ms.insert(n, ms);
            if n == 16_384 {
                jaccard_16384 = jaccard(&exact_kept[&n], &hm.kept);
                let eb: HashSet<Ipv4Addr> =
                    exact_kept[&n].intersection(&periodic).copied().collect();
                let bb: HashSet<Ipv4Addr> = hm.kept.intersection(&periodic).copied().collect();
                bot_agree_16384 = jaccard(&eb, &bb);
            }
            let sms = |d: std::time::Duration| format!("{:.1}", d.as_secs_f64() * 1e3);
            profiles_json.push_str(&format!(
                "    \"n{n}\": {{ \"total\": {ms:.1}, \"histograms\": {}, \"embed\": {}, \
                 \"bucket\": {}, \"distance_fill\": {}, \"linkage\": {}, \
                 \"cut_and_diameters\": {}, \"buckets\": {} }},\n",
                sms(p.histograms),
                sms(p.embed),
                sms(p.bucket),
                sms(p.distance_fill),
                sms(p.linkage),
                sms(p.cut_and_diameters),
                p.bucket_sizes.len(),
            ));
        }
        println!(
            "{}",
            table::render(
                "Bucketed θ_hm scaling (default params, stage profile, ms)",
                &[
                    "hosts",
                    "total",
                    "histograms",
                    "embed",
                    "bucket",
                    "dist fill",
                    "linkage",
                    "cut+diam",
                    "buckets",
                ],
                &rows
            )
        );
        // Quadratic extrapolation of the exact path from its largest
        // measured n — the honest baseline the ISSUE's ≥20× target uses.
        let base_n = 16_384f64;
        let extrapolated_100k = exact_ms[&16_384] * (100_000f64 / base_n).powi(2);
        let speedup = extrapolated_100k / bucketed_ms[&100_000];
        println!(
            "n=16384 exact vs bucketed: kept-set Jaccard {jaccard_16384:.3}, \
             periodic-host agreement {bot_agree_16384:.3}"
        );
        println!(
            "exact extrapolated to n=100000: {extrapolated_100k:.0} ms; bucketed measured: \
             {:.0} ms; speedup {speedup:.1}x",
            bucketed_ms[&100_000]
        );
        println!("\n--- JSON for BENCH_10.json ---");
        println!("{{");
        println!(
            "  \"exact_ms\": {{ \"4096\": {:.1}, \"16384\": {:.1} }},",
            exact_ms[&4_096], exact_ms[&16_384]
        );
        println!("  \"bucketed_stage_profile_ms\": {{\n{profiles_json}  }},");
        println!("  \"kept_jaccard_n16384\": {jaccard_16384:.3},");
        println!("  \"periodic_host_agreement_n16384\": {bot_agree_16384:.3},");
        println!("  \"exact_extrapolated_100k_ms\": {extrapolated_100k:.0},");
        println!("  \"speedup_100k_vs_extrapolated_exact\": {speedup:.1}");
        println!("}}");
    }

    if failures.is_empty() {
        println!("theta_hm parity: OK");
        ExitCode::SUCCESS
    } else {
        for f in &failures {
            eprintln!("theta_hm parity FAILURE: {f}");
        }
        if check {
            ExitCode::FAILURE
        } else {
            println!("(advisory run; pass --check to gate)");
            ExitCode::SUCCESS
        }
    }
}
