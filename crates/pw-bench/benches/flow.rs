//! Argus-substrate benchmarks: aggregation throughput, the flow-row codec
//! (CSV and engine checkpoints), the PWFS batch codec of the service path
//! and the CRC32 every frame and checkpoint carries.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use pw_bench::bench_day;
use pw_detect::stream::{DetectionEngine, EngineConfig};
use pw_flow::frame::{read_frame, write_flows, Frame, MAX_BATCH};
use pw_flow::synth::{emit_connection, ConnOutcome, ConnSpec};
use pw_flow::{ArgusAggregator, FlowRecord, Packet, PacketSink};
use pw_netsim::{SimDuration, SimTime};
use std::net::Ipv4Addr;

fn packet_script(conns: usize, payload: &[u8]) -> Vec<Packet> {
    let mut pkts: Vec<Packet> = Vec::new();
    for i in 0..conns {
        let spec = ConnSpec::tcp(
            SimTime::from_millis(i as u64 * 50),
            Ipv4Addr::new(10, 1, (i / 250) as u8, (i % 250) as u8 + 1),
            40_000 + (i % 20_000) as u16,
            Ipv4Addr::new(93, 10, (i / 200 % 200) as u8, (i % 200) as u8 + 1),
            80,
        )
        .outcome(ConnOutcome::Established {
            bytes_up: 600,
            bytes_down: 30_000,
        })
        .duration(SimDuration::from_secs(2))
        .payload(payload);
        emit_connection(&mut pkts, &spec);
    }
    pkts
}

/// Web flows carrying a request line as their payload prefix, as most
/// campus rows do.
fn web_flows(conns: usize) -> Vec<FlowRecord> {
    let mut agg = ArgusAggregator::default();
    for p in packet_script(conns, b"GET /index.html HTTP/1.1\r\nHost: www") {
        agg.emit(p);
    }
    agg.finish(SimTime::from_hours(2))
}

fn bench_aggregation(c: &mut Criterion) {
    let pkts = packet_script(10_000, b"");
    let mut group = c.benchmark_group("argus");
    group.throughput(Throughput::Elements(pkts.len() as u64));
    group.sample_size(20);
    group.bench_function("aggregate_10k_conns", |b| {
        b.iter(|| {
            let mut agg = ArgusAggregator::default();
            for p in &pkts {
                agg.emit(black_box(*p));
            }
            agg.finish(SimTime::from_hours(2))
        })
    });
    group.finish();
}

fn bench_csv(c: &mut Criterion) {
    let flows = web_flows(5_000);
    let mut buf = Vec::new();
    pw_flow::csvio::write_flows(&mut buf, &flows).unwrap();

    let mut group = c.benchmark_group("flow_csv");
    group.throughput(Throughput::Elements(flows.len() as u64));
    group.bench_function("write", |b| {
        b.iter(|| {
            let mut out = Vec::with_capacity(buf.len());
            pw_flow::csvio::write_flows(&mut out, black_box(&flows)).unwrap();
            out
        })
    });
    // The lossy reader is the path `findplotters` and the benchmark take.
    // This file is under the 2 MiB at which a block is cut across cores, so
    // it times the serial path.
    group.bench_function("read", |b| {
        b.iter(|| pw_flow::csvio::read_flows_lossy(black_box(buf.as_slice())).unwrap())
    });
    // The same rows tiled past 4 MiB, read through the reader `findplotters`
    // uses: every block is cut across the cores available.
    let rows_at = buf.iter().position(|&b| b == b'\n').unwrap() + 1;
    let mut tiled = buf.clone();
    let mut copies = 1;
    while tiled.len() < 4 << 20 {
        tiled.extend_from_slice(&buf[rows_at..]);
        copies += 1;
    }
    group.throughput(Throughput::Elements((flows.len() * copies) as u64));
    group.bench_function("read_blocks", |b| {
        b.iter(|| {
            let reader = std::io::BufReader::with_capacity(
                pw_flow::csvio::READ_CAPACITY,
                black_box(tiled.as_slice()),
            );
            pw_flow::csvio::read_flows_lossy(reader).unwrap()
        })
    });
    group.finish();
}

fn bench_checkpoint(c: &mut Criterion) {
    // 20k flows over 17 minutes, each held by the four open 2 h windows
    // that slide by 30 min: no window closes, and each flow is serialized
    // once, in the buffer or the shared window log.
    let cfg = EngineConfig::builder()
        .window(SimDuration::from_hours(2))
        .slide(SimDuration::from_mins(30))
        .lateness(SimDuration::from_mins(10))
        .threads(1)
        .build()
        .unwrap();
    let mut engine = DetectionEngine::new(cfg, |ip: Ipv4Addr| ip.octets()[0] == 10).unwrap();
    for f in web_flows(20_000) {
        engine.push(f).unwrap();
    }
    let snapshot = engine.checkpoint();
    let rows = snapshot.buffer().len() + snapshot.log().len();

    let mut group = c.benchmark_group("checkpoint");
    group.throughput(Throughput::Elements(rows as u64));
    group.bench_function("serialize", |b| b.iter(|| black_box(&snapshot).serialize()));
    group.finish();
}

/// Writes `flows` as an exporter does: consecutive batches of up to
/// `MAX_BATCH`, sequenced from 0.
fn batches(flows: &[pw_flow::FlowRecord]) -> Vec<u8> {
    let mut wire = Vec::new();
    for (k, batch) in flows.chunks(MAX_BATCH).enumerate() {
        write_flows(&mut wire, (k * MAX_BATCH) as u64, batch).unwrap();
    }
    wire
}

/// Reads batches until the end of `wire`, counting their flows.
fn unbatch(mut wire: &[u8]) -> usize {
    let mut n = 0;
    while let Some(Frame::Flows { flows, .. }) = read_frame(&mut wire).unwrap() {
        n += flows.len();
    }
    n
}

fn bench_frame(c: &mut Criterion) {
    // The bench day through the service path's codec. Throughput is per
    // flow, so the round trip reads as ns per flow; the wire cost per flow
    // is printed once.
    let flows = bench_day().flows;
    let wire = batches(&flows);
    assert_eq!(unbatch(&wire), flows.len());
    println!(
        "frame: {} flows in {} batches, {:.1} wire bytes per flow",
        flows.len(),
        flows.len().div_ceil(MAX_BATCH),
        wire.len() as f64 / flows.len() as f64
    );

    // About the size of one checkpoint of the benchmark's sliding-window
    // workload.
    let data: Vec<u8> = (0..6usize << 20)
        .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
        .collect();
    let mut group = c.benchmark_group("frame");
    group.throughput(Throughput::Elements(flows.len() as u64));
    group.bench_function("batch_round_trip_bench_day", |b| {
        b.iter(|| unbatch(&batches(black_box(&flows))))
    });
    group.throughput(Throughput::Bytes(data.len() as u64));
    group.bench_function("crc32_6mb", |b| {
        b.iter(|| pw_flow::frame::crc32(black_box(&data)))
    });
    group.finish();
}

fn bench_signatures(c: &mut Criterion) {
    let payloads: Vec<&[u8]> = vec![
        b"GNUTELLA CONNECT/0.6\r\n",
        b"\x13BitTorrent protocol",
        b"GET /announce?info_hash=x HTTP/1.1",
        b"GET /index.html HTTP/1.1",
        b"\xe3\x20rest-of-frame",
        b"random human text with no signature at all.....",
    ];
    c.bench_function("classify_payload_6", |b| {
        b.iter(|| {
            payloads
                .iter()
                .filter(|p| pw_flow::signatures::classify_payload(black_box(p)).is_some())
                .count()
        })
    });
}

criterion_group!(
    benches,
    bench_aggregation,
    bench_csv,
    bench_checkpoint,
    bench_frame,
    bench_signatures
);
criterion_main!(benches);
