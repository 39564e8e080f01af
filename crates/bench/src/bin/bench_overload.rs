//! Overload-control characterization: sustained throughput, p99 ingress
//! queue depth and shed fraction as offered load climbs past the shard
//! watermarks. Writes `BENCH_overload.json` (consumed by the CI bench
//! job as an artifact) with one entry per offered-load point:
//!
//! * `batch_size` — packets offered per batch at this point;
//! * `sustained_pps` — median scan throughput across the passes;
//! * `p99_queue_depth` — 99th percentile of per-batch shard queue
//!   peaks (the backlog the backpressure bound actually allowed);
//! * `shed_fraction` / `ce_fraction` — packets shed (forwarded
//!   unscanned, fail-open) and CE-marked, as fractions of offered load.
//!
//! Set `DPI_BENCH_QUICK=1` for a CI-sized run.

use dpi_bench::{
    host_cores, json_array, json_object, pipeline_batch, pipeline_config, print_row,
    sharded_instance, write_bench_json,
};
use dpi_core::overload::OverloadPolicy;
use dpi_traffic::patterns::snort_like;
use dpi_traffic::trace::TraceConfig;
use std::time::Instant;

const WORKERS: usize = 2;
const QUEUE_HIGH: usize = 96;
const QUEUE_LOW: usize = 32;

fn percentile(samples: &mut [u64], p: f64) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    samples.sort_unstable();
    let idx = ((samples.len() as f64 - 1.0) * p).round() as usize;
    samples[idx]
}

fn main() {
    let quick = std::env::var_os("DPI_BENCH_QUICK").is_some();
    let (npat, runs) = if quick { (300, 3) } else { (1000, 6) };
    // Offered load sweep: below the low watermark, straddling the high
    // watermark, and deep into sustained overload.
    let batch_sizes: [usize; 4] = [64, 256, 512, 1024];

    let pats = snort_like(npat, 42);
    let payloads = TraceConfig {
        packets: *batch_sizes.iter().max().expect("non-empty sweep"),
        match_density: 0.02,
        prefix_density: 3.0,
        seed: 7,
        ..TraceConfig::default()
    }
    .generate(&pats);

    let policy = OverloadPolicy::queue_only(QUEUE_HIGH, QUEUE_LOW);
    println!(
        "overload bench: {npat} patterns, {WORKERS} workers, watermarks \
         {QUEUE_HIGH}/{QUEUE_LOW}, {} host cores{}",
        host_cores(),
        if quick { ", quick mode" } else { "" }
    );
    print_row(&[
        "batch".into(),
        "pkts/s".into(),
        "p99 depth".into(),
        "shed".into(),
        "ce-marked".into(),
    ]);

    let mut points = Vec::new();
    for &size in &batch_sizes {
        let batch = pipeline_batch(&payloads[..size], 64, 99);
        let mut scanner =
            sharded_instance(pipeline_config(&pats), WORKERS).with_overload_policy(policy);
        let mut peaks: Vec<u64> = Vec::new();
        let mut pps_samples: Vec<f64> = Vec::new();
        let mut offered = 0u64;
        for _ in 0..runs {
            let mut pkts = batch.clone();
            let t0 = Instant::now();
            scanner.inspect_batch(&mut pkts);
            pps_samples.push(size as f64 / t0.elapsed().as_secs_f64());
            peaks.extend(scanner.last_batch_peaks().iter().map(|&d| d as u64));
            offered += size as u64;
        }
        pps_samples.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
        let sustained = pps_samples[pps_samples.len() / 2];
        let p99 = percentile(&mut peaks, 0.99);
        let shed_fraction = scanner.total_shed() as f64 / offered as f64;
        let ce_fraction = scanner.total_ce_marked() as f64 / offered as f64;
        print_row(&[
            format!("{size}"),
            format!("{sustained:.0}"),
            format!("{p99}"),
            format!("{:.1}%", shed_fraction * 100.0),
            format!("{:.1}%", ce_fraction * 100.0),
        ]);
        points.push(json_object(&[
            ("batch_size", size.to_string()),
            ("sustained_pps", format!("{sustained:.0}")),
            ("p99_queue_depth", p99.to_string()),
            ("shed_fraction", format!("{shed_fraction:.4}")),
            ("ce_fraction", format!("{ce_fraction:.4}")),
        ]));
    }

    let policy = json_object(&[
        ("queue_high", QUEUE_HIGH.to_string()),
        ("queue_low", QUEUE_LOW.to_string()),
        ("shed", "\"fail_open\"".into()),
    ]);
    write_bench_json(
        "overload",
        quick,
        &[
            ("workers", WORKERS.to_string()),
            ("patterns", npat.to_string()),
            ("runs_per_point", runs.to_string()),
            ("policy", policy),
            ("points", json_array(&points)),
        ],
    );
}
