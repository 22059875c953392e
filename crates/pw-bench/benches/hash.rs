//! Hashing the keys profile extraction hashes: std's SipHash
//! (`RandomState`) against one fixed-key multiply-xorshift `Hasher`, on
//! the bench campus day's own keys.
//!
//! - `ipv4-*` interns every flow endpoint, in canonical order, into an
//!   `Ipv4Addr → id` map the way `HostInterner::intern` does.
//! - `contact-*` inserts one packed `(host slot << 32) | destination` key
//!   per initiated border flow into a last-contact map, the way the
//!   extraction kernel's flat map does.
//!
//! The fixed-key hasher is the faster of the two on both key shapes, yet
//! extraction keeps std's keyed one: the destinations are chosen by the
//! monitored hosts, and a public key would let one of them flood a bucket
//! (DESIGN.md, feature extraction).

use std::collections::HashMap;
use std::hash::{BuildHasher, BuildHasherDefault, Hasher, RandomState};
use std::net::Ipv4Addr;

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use pw_bench::bench_day;
use pw_detect::internal_endpoint;
use pw_flow::FlowRecord;
use pw_netsim::SimTime;

/// Multiplier of the fixed-key hasher (2⁶⁴ / φ, odd).
const KEY: u64 = 0x9E37_79B9_7F4A_7C15;

/// Fixed-key multiply-xorshift hasher: each integer written folds into the
/// state with one multiply, and `finish` xorshifts the high half down so
/// the table's bucket bits see every input bit.
#[derive(Debug, Default, Clone, Copy)]
struct MulXorShift(u64);

impl Hasher for MulXorShift {
    fn write(&mut self, bytes: &[u8]) {
        // Whole words: a byte at a time costs a multiply per byte.
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0 ^ n).wrapping_mul(KEY);
    }

    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }

    fn finish(&self) -> u64 {
        self.0 ^ (self.0 >> 32)
    }
}

type Fixed = BuildHasherDefault<MulXorShift>;

/// Interns `ips` in order; returns the number of distinct hosts.
fn intern<S: BuildHasher + Default>(ips: &[Ipv4Addr]) -> usize {
    let mut ids: HashMap<Ipv4Addr, u32, S> = HashMap::default();
    for &ip in ips {
        if !ids.contains_key(&ip) {
            let id = ids.len() as u32;
            ids.insert(ip, id);
        }
    }
    ids.len()
}

/// Records one contact per key; returns how many had an earlier contact.
fn contacts<S: BuildHasher + Default>(keys: &[(u64, SimTime)]) -> usize {
    let mut last: HashMap<u64, SimTime, S> = HashMap::default();
    keys.iter()
        .filter(|&&(key, t)| last.insert(key, t).is_some())
        .count()
}

/// The bench day's endpoints in canonical order, and the packed contact
/// key of every initiated border flow with its start.
fn campus_keys() -> (Vec<Ipv4Addr>, Vec<(u64, SimTime)>) {
    let fixture = bench_day();
    let mut flows: Vec<&FlowRecord> = fixture.flows.iter().collect();
    flows.sort_by_key(|f| (f.start, f.src, f.dst, f.sport, f.dport));
    let endpoints = flows.iter().flat_map(|f| [f.src, f.dst]).collect();
    let mut slots: HashMap<Ipv4Addr, u64> = HashMap::new();
    let mut keys = Vec::new();
    for f in flows {
        match internal_endpoint(f, |ip| fixture.day.is_internal(ip)) {
            Some(host) if host == f.src => {
                let next = slots.len() as u64;
                let slot = *slots.entry(host).or_insert(next);
                keys.push((slot << 32 | u64::from(u32::from(f.dst)), f.start));
            }
            _ => {}
        }
    }
    (endpoints, keys)
}

pub fn criterion_benchmark(c: &mut Criterion) {
    let (endpoints, keys) = campus_keys();
    assert_eq!(
        intern::<RandomState>(&endpoints),
        intern::<Fixed>(&endpoints)
    );
    assert_eq!(contacts::<RandomState>(&keys), contacts::<Fixed>(&keys));

    let mut group = c.benchmark_group("hash");
    group.sample_size(20);
    group.throughput(Throughput::Elements(endpoints.len() as u64));
    group.bench_function("ipv4-siphash", |b| {
        b.iter(|| intern::<RandomState>(black_box(&endpoints)))
    });
    group.bench_function("ipv4-mulxor", |b| {
        b.iter(|| intern::<Fixed>(black_box(&endpoints)))
    });
    group.throughput(Throughput::Elements(keys.len() as u64));
    group.bench_function("contact-siphash", |b| {
        b.iter(|| contacts::<RandomState>(black_box(&keys)))
    });
    group.bench_function("contact-mulxor", |b| {
        b.iter(|| contacts::<Fixed>(black_box(&keys)))
    });
    group.finish();
}

criterion_group!(benches, criterion_benchmark);
criterion_main!(benches);
