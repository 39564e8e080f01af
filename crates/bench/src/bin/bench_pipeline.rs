//! Data-plane throughput: sequential `DpiInstance` vs `ShardedScanner`
//! at 1/2/4/8 workers over the same multi-flow tagged trace, plus the
//! `u32` vs natural-width table footprint/throughput comparison. Writes
//! `BENCH_pipeline.json` (consumed by the CI bench job as an artifact).
//! Each `sharded[]` entry also records `peak_queue_depths`: shard i's
//! ingress-queue high-water mark across the passes at that worker count
//! (backlog skew = an elephant flow pinned to one shard).
//!
//! Set `DPI_BENCH_QUICK=1` for a CI-sized run. Speedup numbers only mean
//! something when `host_cores` ≥ the worker count — the JSON records the
//! core count so readers can tell scaling from time-slicing.

use dpi_ac::{Automaton, CombinedAcBuilder, MiddleboxId, PatternSet, ScanKernel};
use dpi_bench::{host_cores, pipeline_batch, pipeline_config, print_row, throughput_mbps};
use dpi_core::pipeline::ShardedScanner;
use dpi_core::DpiInstance;
use dpi_packet::Packet;
use dpi_traffic::patterns::snort_like;
use dpi_traffic::trace::TraceConfig;
use std::time::Instant;

const WORKER_SWEEP: [usize; 4] = [1, 2, 4, 8];

/// Best packets/sec over `runs` passes of `scan` on clones of `batch` —
/// best-of-N because on a shared host any slower pass measures a
/// neighbor's noise, not the pipeline.
fn best_pps(batch: &[Packet], runs: usize, mut scan: impl FnMut(&mut [Packet])) -> f64 {
    (0..runs.max(1))
        .map(|_| {
            let mut pkts = batch.to_vec();
            let t0 = Instant::now();
            scan(&mut pkts);
            batch.len() as f64 / t0.elapsed().as_secs_f64()
        })
        .fold(0.0, f64::max)
}

fn main() {
    let quick = std::env::var_os("DPI_BENCH_QUICK").is_some();
    let (npat, npkt, runs) = if quick {
        (500, 256, 3)
    } else {
        (2000, 2048, 5)
    };

    let pats = snort_like(npat, 42);
    let payloads = TraceConfig {
        packets: npkt,
        match_density: 0.02,
        prefix_density: 3.0,
        seed: 7,
        ..TraceConfig::default()
    }
    .generate(&pats);
    let batch = pipeline_batch(&payloads, 64, 99);
    let bytes: usize = payloads.iter().map(|p| p.len()).sum();

    println!(
        "pipeline bench: {npat} patterns, {npkt} packets ({bytes} bytes), \
         {} host cores{}",
        host_cores(),
        if quick { ", quick mode" } else { "" }
    );
    print_row(&[
        "plane".into(),
        "workers".into(),
        "pkts/s".into(),
        "speedup".into(),
    ]);

    // Sequential reference: one instance, one thread.
    let mut instance = DpiInstance::new(pipeline_config(&pats)).expect("valid config");
    let seq_pps = best_pps(&batch, runs, |pkts| {
        for p in pkts.iter_mut() {
            let _ = instance.inspect(p);
        }
    });
    print_row(&[
        "sequential".into(),
        "-".into(),
        format!("{seq_pps:.0}"),
        "1.00x".into(),
    ]);

    let mut sharded = Vec::new();
    for workers in WORKER_SWEEP {
        let mut scanner =
            ShardedScanner::from_config(pipeline_config(&pats), workers).expect("valid config");
        let pps = best_pps(&batch, runs, |pkts| {
            scanner.inspect_batch(pkts);
        });
        let speedup = pps / seq_pps;
        // Lifetime high-water mark of each shard's ingress queue across
        // the bench passes: how far behind the slowest shard got.
        let peaks: Vec<u64> = scanner
            .shard_telemetry()
            .iter()
            .map(|t| t.peak_queue_depth)
            .collect();
        print_row(&[
            "sharded".into(),
            format!("{workers}"),
            format!("{pps:.0}"),
            format!("{speedup:.2}x"),
        ]);
        sharded.push((workers, pps, speedup, peaks));
    }

    // The table at the paper's `u32` cells and at the width the state
    // count selects, over the same rule set.
    let mut builder = CombinedAcBuilder::new();
    builder
        .add_set(PatternSet::new(MiddleboxId(0), pats.clone()))
        .expect("generated patterns are valid");
    let full = builder.build_full();
    let auto = builder.build_auto();
    let full_mbps = throughput_mbps(&full, &payloads, runs);
    let auto_mbps = throughput_mbps(&auto, &payloads, runs);
    let pct = auto.memory_bytes() as f64 * 100.0 / full.memory_bytes() as f64;
    println!(
        "automaton: {} states, auto-selected {}",
        full.state_count(),
        auto.kernel_name()
    );
    print_row(&[
        "cells".into(),
        "bytes".into(),
        "Mbit/s".into(),
        String::new(),
    ]);
    print_row(&[
        full.kernel_name().into(),
        format!("{}", full.memory_bytes()),
        format!("{full_mbps:.0}"),
        String::new(),
    ]);
    print_row(&[
        format!("auto ({})", auto.kernel_name()),
        format!("{}", auto.memory_bytes()),
        format!("{auto_mbps:.0}"),
        format!("{pct:.1}% of full"),
    ]);

    // Per entry: `peak_queue_depths[i]` is shard i's ingress-queue
    // high-water mark over every pass at that worker count.
    let sharded_json: Vec<String> = sharded
        .iter()
        .map(|(w, pps, s, peaks)| {
            let peaks: Vec<String> = peaks.iter().map(u64::to_string).collect();
            format!(
                "{{\"workers\": {w}, \"pps\": {pps:.0}, \"speedup\": {s:.2}, \
                 \"peak_queue_depths\": [{}]}}",
                peaks.join(", ")
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"host_cores\": {},\n  \"quick\": {},\n  \"patterns\": {},\n  \
         \"packets\": {},\n  \"bytes\": {},\n  \"sequential_pps\": {:.0},\n  \
         \"sharded\": [{}],\n  \"automaton\": {{\"states\": {}, \"full\": \
         {{\"bytes\": {}, \"mbps\": {:.0}}}, \"auto\": {{\"kernel\": \"{}\", \
         \"bytes\": {}, \"mbps\": {:.0}, \"pct_of_full\": {:.1}}}}}\n}}\n",
        host_cores(),
        quick,
        npat,
        npkt,
        bytes,
        seq_pps,
        sharded_json.join(", "),
        full.state_count(),
        full.memory_bytes(),
        full_mbps,
        auto.kernel_name(),
        auto.memory_bytes(),
        auto_mbps,
        pct,
    );
    std::fs::write("BENCH_pipeline.json", &json).expect("writable working directory");
    println!("wrote BENCH_pipeline.json");
}
