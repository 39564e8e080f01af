//! Live rule-update cost: hot-swap latency and per-update transfer
//! bytes (DESIGN.md §9, paper §4.1's incremental-update argument).
//!
//! A sharded data plane serves traffic while the rule set grows by 1,
//! 16 and 256 patterns per update. For each update we time the two
//! phases the hitless contract separates:
//!
//! * *compile* — building the next generation's automaton, off the hot
//!   path (the packet path never waits on this), and
//! * *swap pause* — the drain-barrier engine exchange
//!   (`DpiInstance::swap_engine`), the only moment the data plane
//!   is not scanning.
//!
//! Per-update transfer bytes come from the orchestrator's prepared
//! artifacts — the wire cost of shipping each delta to an instance.
//! Writes `BENCH_update.json`. Set `DPI_BENCH_QUICK=1` for a CI-sized
//! run.

use dpi_bench::{
    host_cores, json_array, json_object, pipeline_batch, pipeline_config, print_row,
    sharded_instance, write_bench_json,
};
use dpi_controller::UpdateOrchestrator;
use dpi_traffic::patterns::snort_like;
use dpi_traffic::trace::TraceConfig;
use std::time::Instant;

const UPDATE_SIZES: [usize; 3] = [1, 16, 256];

fn main() {
    let quick = std::env::var_os("DPI_BENCH_QUICK").is_some();
    let (base, npkt, workers) = if quick {
        (500, 256, 2)
    } else {
        (2000, 1024, 4)
    };

    let base_pats = snort_like(base, 42);
    let payloads = TraceConfig {
        packets: npkt,
        match_density: 0.02,
        seed: 7,
        ..TraceConfig::default()
    }
    .generate(&base_pats);
    let batch = pipeline_batch(&payloads, 64, 99);

    let baseline = pipeline_config(&base_pats);
    let mut orchestrator = UpdateOrchestrator::new(&baseline);
    let mut scanner = sharded_instance(baseline, workers);

    println!(
        "update bench: {base} base patterns, {workers} workers, {} host cores{}",
        host_cores(),
        if quick { ", quick mode" } else { "" }
    );
    print_row(&[
        "added".into(),
        "gen".into(),
        "transfer".into(),
        "compile ms".into(),
        "swap pause µs".into(),
    ]);

    let mut all_pats = base_pats.clone();
    let mut rows = Vec::new();
    for (i, &added) in UPDATE_SIZES.iter().enumerate() {
        // Traffic keeps flowing right up to the swap point.
        let mut pkts = batch.clone();
        scanner.inspect_batch(&mut pkts);

        // New rules arrive; the delta is prepared and compiled off the
        // hot path while the (single-threaded) data plane would keep
        // serving the old generation.
        all_pats.extend(snort_like(added, 1000 + i as u64));
        let prepared = orchestrator.prepare(&pipeline_config(&all_pats));
        let t0 = Instant::now();
        let engine = prepared.artifact.compile().expect("valid artifact");
        let compile_ms = t0.elapsed().as_secs_f64() * 1e3;

        // The only data-plane pause: the drain-barrier engine exchange.
        let pause = scanner.swap_engine(engine).expect("monotonic generation");
        let pause_us = pause.as_secs_f64() * 1e6;

        // The new generation serves immediately.
        let mut pkts = batch.clone();
        scanner.inspect_batch(&mut pkts);

        print_row(&[
            format!("{added}"),
            format!("{}", prepared.generation),
            format!("{} B", prepared.transfer_bytes),
            format!("{compile_ms:.1}"),
            format!("{pause_us:.0}"),
        ]);
        rows.push(json_object(&[
            ("added_patterns", added.to_string()),
            ("generation", prepared.generation.to_string()),
            ("transfer_bytes", prepared.transfer_bytes.to_string()),
            ("compile_ms", format!("{compile_ms:.2}")),
            ("swap_pause_us", format!("{pause_us:.1}")),
        ]));
    }

    write_bench_json(
        "update",
        quick,
        &[
            ("base_patterns", base.to_string()),
            ("workers", workers.to_string()),
            ("packets_per_batch", npkt.to_string()),
            ("updates", json_array(&rows)),
        ],
    );
}
