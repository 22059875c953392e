//! Streaming-engine benchmarks: batch vs streaming, the multi-core
//! speedup of host-sharded profile extraction and threshold tests, and the
//! engine over tumbling and sliding windows.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use pw_bench::bench_day;
use pw_detect::stream::{DetectionEngine, EngineConfig};
use pw_detect::{
    extract_profiles_table_par_tier, find_plotters_from_table, try_find_plotters_table_tier,
    FindPlottersConfig, ProfileTier,
};
use pw_flow::FlowTable;
use pw_netsim::SimDuration;

fn bench_parallel_speedup(c: &mut Criterion) {
    let fixture = bench_day();
    let day = &fixture.day;
    let mut flows = fixture.flows.clone();
    flows.sort_by_key(|f| (f.start, f.src, f.dst, f.sport, f.dport));
    let table = FlowTable::from_records(&flows);

    let mut group = c.benchmark_group("stream/extract_profiles");
    group.sample_size(10);
    group.throughput(Throughput::Elements(flows.len() as u64));
    let extract = |t: usize| {
        extract_profiles_table_par_tier(
            black_box(&table),
            |ip| day.is_internal(ip),
            ProfileTier::Exact,
            t,
        )
    };
    group.bench_function("serial", |b| b.iter(|| extract(1)));
    for threads in [2usize, 4, 8] {
        group.bench_with_input(BenchmarkId::new("sharded", threads), &threads, |b, &t| {
            b.iter(|| extract(t))
        });
    }
    group.finish();

    let mut group = c.benchmark_group("stream/full_pipeline");
    group.sample_size(10);
    group.throughput(Throughput::Elements(flows.len() as u64));
    for threads in [1usize, 2, 4, 8] {
        group.bench_with_input(BenchmarkId::from_parameter(threads), &threads, |b, &t| {
            b.iter(|| {
                try_find_plotters_table_tier(
                    &FlowTable::from_records(black_box(&flows)),
                    |ip| day.is_internal(ip),
                    &FindPlottersConfig::default(),
                    ProfileTier::Exact,
                    t,
                )
                .unwrap()
            })
        });
    }
    group.finish();
}

fn bench_engine(c: &mut Criterion) {
    let fixture = bench_day();
    let day = &fixture.day;
    let mut flows = fixture.flows.clone();
    flows.sort_by_key(|f| (f.start, f.src, f.dst, f.sport, f.dport));

    // Batch baseline on pre-extracted profiles, for scale.
    let mut group = c.benchmark_group("stream/batch_baseline");
    group.sample_size(10);
    group.bench_function("find_plotters_from_table", |b| {
        b.iter(|| {
            find_plotters_from_table(black_box(&fixture.profiles), &FindPlottersConfig::default())
        })
    });
    group.finish();

    // The engine replaying the day in `window`-long windows, one starting
    // every `slide`.
    let replay = |window: SimDuration, slide: SimDuration, threads: usize| {
        let cfg = EngineConfig {
            window,
            slide,
            lateness: SimDuration::from_mins(10),
            threads,
            ..Default::default()
        };
        let mut engine = DetectionEngine::new(cfg, |ip| day.is_internal(ip)).expect("valid config");
        let mut reports = Vec::new();
        for f in black_box(&flows) {
            reports.extend(engine.push(*f).expect("in-order replay"));
        }
        reports.extend(engine.finish());
        reports
    };

    // Hourly tumbling windows.
    let mut group = c.benchmark_group("stream/engine_hourly");
    group.sample_size(10);
    group.throughput(Throughput::Elements(flows.len() as u64));
    let hour = SimDuration::from_hours(1);
    for threads in [1usize, 2, 4, 8] {
        group.bench_with_input(BenchmarkId::from_parameter(threads), &threads, |b, &t| {
            b.iter(|| replay(hour, hour, t))
        });
    }
    group.finish();

    // 2 h windows sliding by 30 min, so each flow is in four windows and
    // every window profiles its flows as they arrive; one thread.
    let mut group = c.benchmark_group("stream/engine_sliding");
    group.sample_size(10);
    group.throughput(Throughput::Elements(flows.len() as u64));
    group.bench_function("2h_by_30min", |b| {
        b.iter(|| replay(SimDuration::from_hours(2), SimDuration::from_mins(30), 1))
    });
    group.finish();
}

criterion_group!(benches, bench_parallel_speedup, bench_engine);
criterion_main!(benches);
