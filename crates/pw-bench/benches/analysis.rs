//! Statistics-kernel benchmarks: the inner loops of `θ_hm`.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use pw_analysis::{
    average_linkage, emd_cdf, emd_histograms, iqr, percentile, CdfRepr, DistanceMatrix, Histogram,
};

fn samples(n: usize, seed: u64) -> Vec<f64> {
    // Deterministic pseudo-random heavy-tailed samples.
    let mut state = seed | 1;
    (0..n)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let u = (state >> 11) as f64 / (1u64 << 53) as f64;
            10.0 + 5_000.0 * u * u * u
        })
        .collect()
}

fn bench_histograms(c: &mut Criterion) {
    let mut group = c.benchmark_group("fd_histogram");
    for n in [100usize, 1_000, 10_000] {
        let xs = samples(n, 7);
        group.bench_with_input(BenchmarkId::from_parameter(n), &xs, |b, xs| {
            b.iter(|| Histogram::freedman_diaconis(black_box(xs)).unwrap())
        });
    }
    group.finish();
}

fn bench_emd(c: &mut Criterion) {
    let mut group = c.benchmark_group("emd");
    for n in [100usize, 1_000, 10_000] {
        let a = Histogram::freedman_diaconis(&samples(n, 1)).unwrap();
        let b_h = Histogram::freedman_diaconis(&samples(n, 2)).unwrap();
        group.bench_with_input(BenchmarkId::from_parameter(n), &(a, b_h), |b, (x, y)| {
            b.iter(|| emd_histograms(black_box(x), black_box(y)))
        });
    }
    group.finish();
}

fn bench_emd_kernel(c: &mut Criterion) {
    // The all-pairs hot path: digests are built once per host, so the
    // per-pair cost is just the alloc-free prefix-sum sweep.
    let mut group = c.benchmark_group("emd_kernel");
    for n in [100usize, 1_000, 10_000] {
        let a = CdfRepr::from_histogram(&Histogram::freedman_diaconis(&samples(n, 1)).unwrap());
        let b_r = CdfRepr::from_histogram(&Histogram::freedman_diaconis(&samples(n, 2)).unwrap());
        group.bench_with_input(BenchmarkId::from_parameter(n), &(a, b_r), |b, (x, y)| {
            b.iter(|| emd_cdf(black_box(x), black_box(y)))
        });
    }
    group.finish();
}

fn bench_clustering(c: &mut Criterion) {
    let mut group = c.benchmark_group("average_linkage");
    group.sample_size(20);
    for n in [50usize, 200, 500] {
        let pos = samples(n, 3);
        let dm = DistanceMatrix::from_fn(n, |i, j| (pos[i] - pos[j]).abs());
        group.bench_with_input(BenchmarkId::from_parameter(n), &dm, |b, dm| {
            b.iter(|| average_linkage(black_box(dm)))
        });
    }
    group.finish();
}

fn bench_percentile(c: &mut Criterion) {
    let xs = samples(10_000, 9);
    c.bench_function("percentile_10k", |b| {
        b.iter(|| percentile(black_box(&xs), 50.0))
    });
    // Both quartiles, the spread term of every FD fit.
    c.bench_function("iqr_10k", |b| b.iter(|| iqr(black_box(&xs))));
}

criterion_group!(
    benches,
    bench_histograms,
    bench_emd,
    bench_emd_kernel,
    bench_clustering,
    bench_percentile
);
criterion_main!(benches);
