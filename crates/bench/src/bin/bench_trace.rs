//! Tracing overhead: the same `inspect_batch` workload with the
//! structured-event tracer detached vs attached. The tracer's hot-path
//! budget (DESIGN.md §10) is one branch per packet plus a 1-in-64
//! sampled ring write, so the attached run must stay within a few
//! percent of the detached one. Writes `BENCH_trace.json` (consumed by
//! the CI bench job as an artifact).
//!
//! Set `DPI_BENCH_QUICK=1` for a CI-sized run. Single-core hosts
//! time-slice the shards, which adds noise but affects both
//! configurations equally — the JSON records `host_cores` anyway.

use dpi_bench::{
    host_cores, pipeline_batch, pipeline_config, print_row, sharded_instance, write_bench_json,
};
use dpi_core::trace::Tracer;
use dpi_packet::Packet;
use dpi_traffic::patterns::snort_like;
use dpi_traffic::trace::TraceConfig;
use std::sync::Arc;
use std::time::Instant;

/// Median packets/sec over `runs` passes of `scan` on clones of `batch`.
fn median_pps(batch: &[Packet], runs: usize, mut scan: impl FnMut(&mut [Packet])) -> f64 {
    let mut samples: Vec<f64> = (0..runs.max(1))
        .map(|_| {
            let mut pkts = batch.to_vec();
            let t0 = Instant::now();
            scan(&mut pkts);
            batch.len() as f64 / t0.elapsed().as_secs_f64()
        })
        .collect();
    samples.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
    samples[samples.len() / 2]
}

fn main() {
    let quick = std::env::var_os("DPI_BENCH_QUICK").is_some();
    let (npat, npkt, runs) = if quick {
        (500, 256, 5)
    } else {
        (2000, 2048, 9)
    };
    let workers = 2;

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
        "trace-overhead bench: {npat} patterns, {npkt} packets ({bytes} bytes), \
         {workers} workers, {} host cores{}",
        host_cores(),
        if quick { ", quick mode" } else { "" }
    );
    print_row(&["config".into(), "pkts/s".into(), "overhead".into()]);

    // Warm-up pass so neither configuration pays first-touch costs.
    let mut warm = sharded_instance(pipeline_config(&pats), workers);
    let mut pkts = batch.to_vec();
    warm.inspect_batch(&mut pkts);

    let mut untraced = sharded_instance(pipeline_config(&pats), workers);
    let untraced_pps = median_pps(&batch, runs, |pkts| {
        untraced.inspect_batch(pkts);
    });
    print_row(&["untraced".into(), format!("{untraced_pps:.0}"), "-".into()]);

    let mut traced = sharded_instance(pipeline_config(&pats), workers);
    let tracer = Arc::new(Tracer::new());
    traced.attach_tracer(Arc::clone(&tracer), None);
    let traced_pps = median_pps(&batch, runs, |pkts| {
        traced.inspect_batch(pkts);
    });
    let overhead_pct = (untraced_pps / traced_pps - 1.0) * 100.0;
    print_row(&[
        "traced".into(),
        format!("{traced_pps:.0}"),
        format!("{overhead_pct:+.2}%"),
    ]);

    let events_buffered = tracer.len();
    let events_dropped = tracer.dropped();
    println!(
        "tracer after run: {events_buffered} events buffered, \
         {events_dropped} overwritten (ring cap is bounded by design)"
    );

    write_bench_json(
        "trace",
        quick,
        &[
            ("patterns", npat.to_string()),
            ("packets", npkt.to_string()),
            ("bytes", bytes.to_string()),
            ("workers", workers.to_string()),
            ("untraced_pps", format!("{untraced_pps:.0}")),
            ("traced_pps", format!("{traced_pps:.0}")),
            ("overhead_pct", format!("{overhead_pct:.2}")),
            ("events_buffered", events_buffered.to_string()),
            ("events_dropped", events_dropped.to_string()),
        ],
    );
}
