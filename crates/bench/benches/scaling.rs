//! Criterion bench: `inspect_batch` throughput vs worker count — the
//! perf trajectory for the parallel data plane. On hosts with fewer
//! cores than workers the curve flattens to time-slicing; read it next
//! to `dpi_bench::host_cores()`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use dpi_bench::{pipeline_batch, pipeline_config, sharded_instance};
use dpi_traffic::patterns::snort_like;
use dpi_traffic::trace::TraceConfig;

fn bench_scaling(c: &mut Criterion) {
    let pats = snort_like(2000, 42);
    let payloads = TraceConfig {
        packets: 256,
        match_density: 0.02,
        prefix_density: 3.0,
        seed: 7,
        ..TraceConfig::default()
    }
    .generate(&pats);
    let batch = pipeline_batch(&payloads, 64, 99);
    let bytes: usize = payloads.iter().map(|p| p.len()).sum();

    let mut g = c.benchmark_group("pipeline_scaling");
    g.throughput(Throughput::Bytes(bytes as u64));
    g.sample_size(10);
    for workers in [1usize, 2, 4, 8] {
        g.bench_with_input(BenchmarkId::from_parameter(workers), &workers, |b, &w| {
            let mut scanner = sharded_instance(pipeline_config(&pats), w);
            b.iter(|| {
                let mut pkts = batch.clone();
                scanner.inspect_batch(&mut pkts).len()
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_scaling);
criterion_main!(benches);
