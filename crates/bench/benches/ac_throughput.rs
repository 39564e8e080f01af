//! Criterion bench: Aho-Corasick scan throughput vs pattern count —
//! the micro-benchmark behind Figure 8's main effect — and vs payload
//! size, where the lane-interleaved loop (`auto`) leaves the naive
//! reference behind once a payload is long enough to cut.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use dpi_ac::{Automaton, CombinedAcBuilder, KernelKind, MiddleboxId, PatternSet};
use dpi_bench::build_ac;
use dpi_traffic::patterns::snort_like;
use dpi_traffic::trace::TraceConfig;

fn bench_ac_throughput(c: &mut Criterion) {
    let full = snort_like(4356, 42);
    let trace = TraceConfig {
        packets: 200,
        match_density: 0.02,
        prefix_density: 3.0,
        seed: 8,
        ..TraceConfig::default()
    }
    .generate(&full);
    let bytes: usize = trace.iter().map(|p| p.len()).sum();

    let mut g = c.benchmark_group("ac_scan");
    g.throughput(Throughput::Bytes(bytes as u64));
    g.sample_size(20);
    for n in [500usize, 2000, 4356] {
        let ac = build_ac(&full[..n]);
        g.bench_with_input(BenchmarkId::new("full_table", n), &ac, |b, ac| {
            b.iter(|| {
                let mut acc = 0u64;
                for p in &trace {
                    ac.scan(ac.start(), p, |_, st| acc = acc.wrapping_add(u64::from(st)));
                }
                acc
            })
        });
    }
    g.finish();
}

/// The lane crossover: the full Snort-like table under both loops at
/// fixed payload sizes — one lane at 64 B, three at 300 B, four at
/// 1,400 B (EXPERIMENTS.md, "Lane-interleaved scan").
fn bench_payload_size(c: &mut Criterion) {
    let full = snort_like(4356, 42);
    let mut builder = CombinedAcBuilder::new();
    builder
        .add_set(PatternSet::new(MiddleboxId(0), full.clone()))
        .expect("generated patterns are valid");

    let mut g = c.benchmark_group("ac_scan_payload_size");
    g.sample_size(20);
    for size in [64usize, 300, 1400] {
        let trace = TraceConfig {
            packets: 280_000 / size,
            min_payload: size,
            max_payload: size,
            match_density: 0.02,
            prefix_density: 3.0,
            seed: 8,
            ..TraceConfig::default()
        }
        .generate(&full);
        g.throughput(Throughput::Bytes((trace.len() * size) as u64));
        for kind in [KernelKind::Auto, KernelKind::Naive] {
            let ac = builder.build_kernel(kind);
            g.bench_with_input(BenchmarkId::new(kind.name(), size), &ac, |b, ac| {
                b.iter(|| {
                    let mut acc = 0u64;
                    for p in &trace {
                        ac.scan(ac.start(), p, |_, st| acc = acc.wrapping_add(u64::from(st)));
                    }
                    acc
                })
            });
        }
    }
    g.finish();
}

criterion_group!(benches, bench_ac_throughput, bench_payload_size);
criterion_main!(benches);
