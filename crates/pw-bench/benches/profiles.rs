//! Profile extraction over the interned columnar [`FlowTable`], serial
//! and host-sharded, plus batch and streaming detection throughput on the
//! same seeded campus day. `tests/extraction_oracle.rs` checks the
//! extraction against an independent record-at-a-time extractor.

use std::net::Ipv4Addr;

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use pw_bench::bench_day;
use pw_detect::stream::{DetectionEngine, EngineConfig};
use pw_detect::{
    extract_profiles_table_par_tier, find_plotters_from_table, FindPlottersConfig, HostProfile,
    ProfileAccumulator, ProfileTier,
};
use pw_flow::{FlowRecord, FlowTable};
use pw_netsim::{SimDuration, SimTime};

fn bench_extraction(c: &mut Criterion) {
    let fixture = bench_day();
    let day = &fixture.day;
    let flows = &fixture.flows;
    let table = FlowTable::from_records(flows);
    let extract = |table: &FlowTable, threads: usize| {
        extract_profiles_table_par_tier(
            black_box(table),
            |ip| day.is_internal(ip),
            ProfileTier::Exact,
            threads,
        )
    };

    let mut group = c.benchmark_group("profiles/extract");
    group.sample_size(10);
    group.throughput(Throughput::Elements(flows.len() as u64));
    group.bench_function("table_from_records", |b| {
        b.iter(|| extract(&FlowTable::from_records(black_box(flows)), 1))
    });
    group.bench_function("table_prebuilt", |b| b.iter(|| extract(&table, 1)));
    for threads in [2usize, 4, 8] {
        group.bench_with_input(
            BenchmarkId::new("table_sharded", threads),
            &threads,
            |b, &t| b.iter(|| extract(&table, t)),
        );
    }
    group.finish();
}

/// Accumulates `n` synthetic hosts at the sketched tier; every 97th host
/// is a heavy hitter whose fan-out forces both sketches dense, the rest
/// stay in the sparse-exact range. Mirrors the `sketch_accuracy` harness
/// population so BENCH_N.json tracks the same workload it validates.
fn synth_sketched_hosts(n: usize, tier: ProfileTier) -> usize {
    let mut acc = ProfileAccumulator::with_tier(tier);
    for k in 0..n {
        let host = Ipv4Addr::new(10, (k >> 16) as u8, (k >> 8) as u8, k as u8);
        let peers: u32 = if k % 97 == 0 { 512 } else { 8 };
        for p in 0..peers {
            let v = (k as u32)
                .wrapping_mul(0x9E37_79B9)
                .wrapping_add(p.wrapping_mul(0x85EB_CA6B));
            let f = FlowRecord {
                start: SimTime::from_millis(u64::from(p) * 500),
                end: SimTime::from_millis(u64::from(p) * 500 + 100),
                src: host,
                sport: 40_000,
                dst: Ipv4Addr::new(100, (v >> 16) as u8, (v >> 8) as u8, v as u8),
                dport: 80,
                proto: pw_flow::Proto::Tcp,
                src_pkts: 2,
                src_bytes: 900,
                dst_pkts: 1,
                dst_bytes: 64,
                state: pw_flow::FlowState::Established,
                payload: pw_flow::Payload::empty(),
            };
            acc.absorb(&f, host);
        }
    }
    acc.finish()
        .profiles()
        .iter()
        .map(HostProfile::estimated_bytes)
        .sum()
}

/// The sketched tier end to end: per-day extraction (serial and sharded)
/// and large-n accumulation with dense heavy hitters, in both tiers so
/// the throughput cost of sketching is directly visible.
fn bench_sketched_extraction(c: &mut Criterion) {
    let fixture = bench_day();
    let day = &fixture.day;
    let table = FlowTable::from_records(&fixture.flows);

    let mut group = c.benchmark_group("profiles_sketched");
    group.sample_size(10);
    group.throughput(Throughput::Elements(fixture.flows.len() as u64));
    group.bench_function("extract_day", |b| {
        b.iter(|| {
            extract_profiles_table_par_tier(
                black_box(&table),
                |ip| day.is_internal(ip),
                ProfileTier::Sketched,
                1,
            )
        })
    });
    for threads in [4usize, 8] {
        group.bench_with_input(
            BenchmarkId::new("extract_day_sharded", threads),
            &threads,
            |b, &t| {
                b.iter(|| {
                    extract_profiles_table_par_tier(
                        black_box(&table),
                        |ip| day.is_internal(ip),
                        ProfileTier::Sketched,
                        t,
                    )
                })
            },
        );
    }
    group.finish();

    let mut group = c.benchmark_group("profiles_sketched/accumulate");
    group.sample_size(10);
    for n in [10_000usize, 50_000] {
        group.throughput(Throughput::Elements((n + n / 97 * 504) as u64 * 8));
        for tier in [ProfileTier::Exact, ProfileTier::Sketched] {
            group.bench_with_input(BenchmarkId::new(tier.name(), n), &n, |b, &n| {
                b.iter(|| synth_sketched_hosts(black_box(n), tier))
            });
        }
    }
    group.finish();
}

fn bench_detection(c: &mut Criterion) {
    let fixture = bench_day();
    let day = &fixture.day;
    let flows = &fixture.flows;
    let table = FlowTable::from_records(flows);
    let profile_table =
        extract_profiles_table_par_tier(&table, |ip| day.is_internal(ip), ProfileTier::Exact, 1);

    let mut group = c.benchmark_group("profiles/batch_detect");
    group.sample_size(10);
    group.bench_function("from_profile_table", |b| {
        b.iter(|| {
            find_plotters_from_table(black_box(&profile_table), &FindPlottersConfig::default())
        })
    });
    group.finish();

    // Streaming throughput over the same day (hourly tumbling windows).
    let mut ordered = flows.clone();
    ordered.sort_by_key(|f| (f.start, f.src, f.dst, f.sport, f.dport));
    let mut group = c.benchmark_group("profiles/streaming_hourly");
    group.sample_size(10);
    group.throughput(Throughput::Elements(ordered.len() as u64));
    for threads in [1usize, 4] {
        group.bench_with_input(BenchmarkId::from_parameter(threads), &threads, |b, &t| {
            b.iter(|| {
                let cfg = EngineConfig {
                    window: SimDuration::from_hours(1),
                    slide: SimDuration::from_hours(1),
                    lateness: SimDuration::from_mins(10),
                    threads: t,
                    ..Default::default()
                };
                let mut engine =
                    DetectionEngine::new(cfg, |ip| day.is_internal(ip)).expect("valid config");
                let mut reports = Vec::new();
                for f in black_box(&ordered) {
                    reports.extend(engine.push(*f).expect("in-order replay"));
                }
                reports.extend(engine.finish());
                reports
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_extraction,
    bench_sketched_extraction,
    bench_detection
);
criterion_main!(benches);
