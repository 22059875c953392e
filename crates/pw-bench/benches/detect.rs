//! Detector benchmarks: feature extraction, each test, the full pipeline.

use std::collections::HashMap;
use std::net::Ipv4Addr;

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use pw_bench::bench_day;
use pw_detect::{
    extract_profiles_table_par_tier, find_plotters_from_table, initial_reduction_view,
    theta_churn_view, theta_hm_view, theta_vol_view, FindPlottersConfig, HmOptions, HostMask,
    HostProfile, ProfileRepr, ProfileTable, ProfileTier, ProfileView, Threshold,
};
use pw_flow::FlowTable;

fn bench_detect(c: &mut Criterion) {
    let fixture = bench_day();
    let day = &fixture.day;
    let table = FlowTable::from_records(&fixture.flows);

    let mut group = c.benchmark_group("detect");
    group.sample_size(20);
    group.throughput(Throughput::Elements(fixture.flows.len() as u64));
    group.bench_function("extract_profiles", |b| {
        b.iter(|| {
            extract_profiles_table_par_tier(
                black_box(&table),
                |ip| day.is_internal(ip),
                ProfileTier::Exact,
                1,
            )
        })
    });
    group.finish();

    let profiles = &fixture.profiles;
    let view = ProfileView::from_table(profiles);
    let (reduced, _) = initial_reduction_view(&view);
    c.bench_function("initial_reduction", |b| {
        b.iter(|| initial_reduction_view(black_box(&view)))
    });
    c.bench_function("theta_vol", |b| {
        b.iter(|| theta_vol_view(black_box(&view), &reduced, Threshold::Percentile(50.0), 1))
    });
    c.bench_function("theta_churn", |b| {
        b.iter(|| theta_churn_view(black_box(&view), &reduced, Threshold::Percentile(50.0), 1))
    });

    let (s_vol, _) =
        theta_vol_view(&view, &reduced, Threshold::Percentile(50.0), 1).expect("tau resolves");
    let (s_churn, _) =
        theta_churn_view(&view, &reduced, Threshold::Percentile(50.0), 1).expect("tau resolves");
    let union = s_vol.union(&s_churn);
    let mut group = c.benchmark_group("theta_hm");
    group.sample_size(10);
    group.bench_function("clustered", |b| {
        b.iter(|| {
            theta_hm_view(
                black_box(&view),
                &union,
                Threshold::Percentile(70.0),
                0.05,
                &HmOptions::default(),
            )
        })
    });
    group.finish();

    let mut group = c.benchmark_group("pipeline");
    group.sample_size(10);
    group.bench_function("find_plotters_full", |b| {
        b.iter(|| find_plotters_from_table(black_box(profiles), &FindPlottersConfig::default()))
    });
    group.finish();
}

/// Synthesizes `n` hosts with non-empty interstitial samples: a quarter
/// periodic bot-like hosts in a handful of timer families, the rest
/// heavy-tailed human-ish, so `θ_hm` sees realistic cluster structure at
/// every scale.
fn synth_hm_hosts(n: usize) -> ProfileTable {
    let mut profiles = HashMap::new();
    for k in 0..n {
        let ip = Ipv4Addr::new(10, (k >> 8) as u8, (k & 0xff) as u8, 1);
        let interstitials: Vec<f64> = if k % 4 == 0 {
            // Bot-like: tight periodic timer, one of 7 families.
            let base = 60.0 * ((k % 7) + 1) as f64;
            (0..200)
                .map(|i: u64| base + ((i * 7 + k as u64) % 5) as f64 * 0.5)
                .collect()
        } else {
            // Human-ish: irregular heavy-tailed gaps, different per host.
            (0..200)
                .map(|i: u64| {
                    let x = ((i * 2654435761 + k as u64 * 977) % 10_000) as f64 / 10_000.0;
                    10.0 + (k % 13) as f64 * 3.0 + 5_000.0 * x * x * x
                })
                .collect()
        };
        profiles.insert(
            ip,
            HostProfile {
                ip,
                flows_involving: 200,
                bytes_uploaded: 20_000,
                initiated: 200,
                initiated_failed: 40,
                first_activity: None,
                repr: ProfileRepr::Exact {
                    destinations: 0,
                    early_destinations: 0,
                    interstitials,
                },
            },
        );
    }
    ProfileTable::from_map(profiles)
}

/// `θ_hm` scaling: host count × worker threads over the full hot path
/// (histograms, pairwise EMD distance matrix, linkage, cut).
fn bench_theta_hm_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("theta_hm");
    group.sample_size(10);
    for &n in &[64usize, 256, 1024] {
        let profiles = synth_hm_hosts(n);
        let view = ProfileView::from_table(&profiles);
        let s = HostMask::full(view.len());
        for &threads in &[1usize, 4, 8] {
            let opts = HmOptions {
                threads,
                ..Default::default()
            };
            group.bench_with_input(
                BenchmarkId::new(format!("n{n}"), threads),
                &(&view, &s),
                |b, (view, s)| {
                    b.iter(|| {
                        theta_hm_view(black_box(view), s, Threshold::Percentile(70.0), 0.05, &opts)
                    })
                },
            );
        }
    }
    group.finish();
}

/// Sub-quadratic `θ_hm`: the bucketed mode forced on (`exact_below = 0`)
/// against the exact path at the same host counts, so the crossover and
/// the constant factors of embedding + k-means + per-bucket linkage are
/// visible at bench time.
fn bench_theta_hm_bucketed(c: &mut Criterion) {
    use pw_detect::{BucketedHmParams, ThetaHmConfig, ThetaHmMode};
    let mut group = c.benchmark_group("theta_hm_bucketed");
    group.sample_size(10);
    for &n in &[1024usize, 4096] {
        let profiles = synth_hm_hosts(n);
        let view = ProfileView::from_table(&profiles);
        let s = HostMask::full(view.len());
        for &threads in &[1usize, 8] {
            let opts = HmOptions {
                threads,
                theta: ThetaHmConfig {
                    mode: ThetaHmMode::Bucketed(BucketedHmParams {
                        exact_below: 0,
                        ..Default::default()
                    }),
                    ..Default::default()
                },
                ..Default::default()
            };
            group.bench_with_input(
                BenchmarkId::new(format!("n{n}"), threads),
                &(&view, &s),
                |b, (view, s)| {
                    b.iter(|| {
                        theta_hm_view(black_box(view), s, Threshold::Percentile(70.0), 0.05, &opts)
                    })
                },
            );
        }
    }
    group.finish();
}

fn bench_tdg(c: &mut Criterion) {
    let fixture = bench_day();
    let day = &fixture.day;
    let cfg = pw_detect::TdgConfig::default();
    let mut group = c.benchmark_group("tdg");
    group.sample_size(20);
    group.throughput(Throughput::Elements(fixture.flows.len() as u64));
    group.bench_function("scan", |b| {
        b.iter(|| pw_detect::tdg_scan(black_box(&fixture.flows), |ip| day.is_internal(ip), &cfg))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_detect,
    bench_theta_hm_scaling,
    bench_theta_hm_bucketed,
    bench_tdg
);
criterion_main!(benches);
