//! Kernel ablation sweep (DESIGN.md §12): single-threaded scan
//! throughput of every [`ScanKernel`] — the naive, unrolled (`auto`) and
//! prefiltered drivers over the natural-width table, against the
//! unrolled loop over the paper's `u32` table — plus the SWAR
//! prefilter's effectiveness counters (skip
//! fraction, false-positive residue) and an adversarial pattern-prefix
//! stream that forces the prefiltered kernel onto its bail-out path.
//! Writes `BENCH_kernels.json` (consumed by the CI bench job as an
//! artifact).
//!
//! Two pattern-set scenarios:
//!
//! * **anchored** — the headline sweep: rules that carry one of a small
//!   set of rare marker bytes (digits — version numbers, ports, hex
//!   runs) near their head, the shape literal prefilters exist for. The
//!   SWAR pair filter compiles and skips.
//! * **broad** — the full Snort-like set with ~25 distinct first bytes.
//!   The 8-slot first-byte budget cannot cover it, the filter refuses to
//!   compile, and `prefiltered` must ride its stride-2 fallback at no
//!   loss versus `full`.
//!
//! Set `DPI_BENCH_QUICK=1` for a CI-sized run. The JSON records
//! `host_cores` so readers can judge the numbers' noise floor; all
//! throughput here is single-threaded by design.

use dpi_ac::{
    Automaton, CombinedAc, CombinedAcBuilder, DepthSamples, KernelKind, MiddleboxId, PatternSet,
    PrefilterStats, ScanKernel,
};
use dpi_bench::{host_cores, print_row};
use dpi_traffic::patterns::snort_like;
use dpi_traffic::trace::TraceConfig;
use std::time::Instant;

/// The engine's telemetry grid (`Telemetry::SAMPLE` / `DEEP_DEPTH`):
/// the bench scans through `scan_sampled` so the measured loop is the
/// exact hot path the data plane runs, sampling cost included.
const SAMPLE: usize = 16;
const DEEP: u16 = 4;

/// Marker bytes the anchored scenario selects on — all rare in the
/// background byte distribution, so the prefilter's selectivity gate
/// accepts a cover built from them. A pattern qualifies when a marker
/// can serve as a pair's *first* byte: anywhere in the pair window
/// except the pattern's final byte.
const ANCHORS: &[u8] = b"012345";
const ANCHOR_WINDOW: usize = 15;

/// Best Mbit/s of `runs` passes of the kernel over the trace — best-of-N
/// because on a shared host any slower pass measures a neighbor's noise,
/// not the kernel.
fn kernel_mbps<A: Automaton + ScanKernel>(ac: &A, trace: &[Vec<u8>], runs: usize) -> f64 {
    let bytes: usize = trace.iter().map(|p| p.len()).sum();
    (0..runs.max(1))
        .map(|_| {
            let mut sink = 0u64;
            let mut depth = DepthSamples::default();
            let t0 = Instant::now();
            for p in trace {
                ac.scan_sampled(ac.start(), p, SAMPLE, DEEP, &mut depth, &mut |_, st| {
                    sink = sink.wrapping_add(u64::from(st));
                });
            }
            let dt = t0.elapsed().as_secs_f64();
            std::hint::black_box((sink, depth));
            bytes as f64 * 8.0 / dt / 1e6
        })
        .fold(0.0, f64::max)
}

fn build(pats: &[Vec<u8>]) -> CombinedAcBuilder {
    let mut builder = CombinedAcBuilder::new();
    builder
        .add_set(PatternSet::new(MiddleboxId(0), pats.to_vec()))
        .expect("generated patterns are valid");
    builder
}

fn trace_for(pats: &[Vec<u8>], packets: usize) -> Vec<Vec<u8>> {
    TraceConfig {
        packets,
        match_density: 0.02,
        prefix_density: 3.0,
        seed: 7,
        ..TraceConfig::default()
    }
    .generate(pats)
}

/// A payload the prefilter hates: a dense tiling of real pattern
/// prefixes, so nearly every SWAR lane holds candidate first bytes and
/// pair confirmations keep firing without ever completing a match.
fn adversarial_trace(pats: &[Vec<u8>], packets: usize, payload_len: usize) -> Vec<Vec<u8>> {
    let mut tile = Vec::new();
    for p in pats.iter().take(64) {
        tile.extend_from_slice(&p[..p.len().min(6)]);
    }
    (0..packets)
        .map(|i| {
            let rot = (i * 7) % tile.len();
            let mut v: Vec<u8> = tile[rot..].to_vec();
            v.extend_from_slice(&tile[..rot]);
            while v.len() < payload_len {
                let take = (payload_len - v.len()).min(tile.len());
                let head: Vec<u8> = v[..take].to_vec();
                v.extend_from_slice(&head);
            }
            v.truncate(payload_len);
            v
        })
        .collect()
}

/// Aggregates [`PrefilterStats`] for one automaton over a whole trace.
fn prefilter_stats(ac: &CombinedAc, trace: &[Vec<u8>]) -> PrefilterStats {
    let mut stats = PrefilterStats::default();
    for p in trace {
        ac.scan_with_stats(ac.start(), p, &mut stats, |_, _| {});
    }
    stats
}

fn main() {
    let quick = std::env::var_os("DPI_BENCH_QUICK").is_some();
    let (npat, npkt, runs) = if quick {
        (500, 256, 3)
    } else {
        (2000, 2048, 5)
    };

    let broad_pats = snort_like(npat, 42);
    let anchored_pats: Vec<Vec<u8>> = broad_pats
        .iter()
        .filter(|p| {
            let window = (p.len() - 1).clamp(1, ANCHOR_WINDOW);
            p[..window].iter().any(|b| ANCHORS.contains(b))
        })
        .cloned()
        .collect();

    let anchored_trace = trace_for(&anchored_pats, npkt);
    let bytes: usize = anchored_trace.iter().map(|p| p.len()).sum();
    let builder = build(&anchored_pats);

    println!(
        "kernel bench: {} anchored patterns (of {npat} snort-like), {npkt} \
         packets ({bytes} bytes), {} host cores{}",
        anchored_pats.len(),
        host_cores(),
        if quick { ", quick mode" } else { "" }
    );
    print_row(&[
        "kind".into(),
        "kernel".into(),
        "Mbit/s".into(),
        "vs full".into(),
    ]);

    // The yardstick: the unrolled loop over the paper's `u32` cells.
    let full = builder.build_full();
    let full_mbps = kernel_mbps(&full, &anchored_trace, runs);
    let mut kernel_json = Vec::new();
    let mut row = |kind: &str, kernel: &str, mbps: f64, memory_bytes: usize| {
        let ratio = mbps / full_mbps;
        print_row(&[
            kind.into(),
            kernel.into(),
            format!("{mbps:.0}"),
            format!("{ratio:.2}x"),
        ]);
        kernel_json.push(format!(
            "{{\"kind\": \"{kind}\", \"kernel\": \"{kernel}\", \"mbps\": {mbps:.0}, \
             \"vs_full\": {ratio:.3}, \"memory_bytes\": {memory_bytes}}}"
        ));
    };
    row("-", full.kernel_name(), full_mbps, full.memory_bytes());
    for kind in KernelKind::ALL {
        let ac = builder.build_kernel(kind);
        let mbps = kernel_mbps(&ac, &anchored_trace, runs);
        row(kind.name(), ac.kernel_name(), mbps, ac.memory_bytes());
    }

    // Prefilter effectiveness over the anchored trace: how much payload
    // the DFA never touched, and how often a confirmed candidate window
    // held no actual match (the filter's false-positive residue).
    let prefiltered = builder.build_kernel(KernelKind::Prefiltered);
    let stats = prefilter_stats(&prefiltered, &anchored_trace);
    println!(
        "prefilter: filtered={} skip_fraction={:.3} windows={} \
         quiet_window_fraction={:.3}",
        stats.filtered,
        stats.skip_fraction(),
        stats.windows,
        stats.quiet_window_fraction()
    );

    // Broad scenario: first-byte budget blown, filter off, stride-2
    // fallback must hold the line against plain full-table scanning.
    let broad_builder = build(&broad_pats);
    let broad_trace = trace_for(&broad_pats, npkt);
    let broad_full = kernel_mbps(&broad_builder.build_full(), &broad_trace, runs);
    let broad_prefiltered = broad_builder.build_kernel(KernelKind::Prefiltered);
    let broad_pre = kernel_mbps(&broad_prefiltered, &broad_trace, runs);
    let broad_stats = prefilter_stats(&broad_prefiltered, &broad_trace);
    println!(
        "broad ({npat} patterns): full={broad_full:.0} Mbit/s, \
         prefiltered={broad_pre:.0} Mbit/s, ratio={:.2}x, filtered={}",
        broad_pre / broad_full,
        broad_stats.filtered
    );

    // Adversarial floor: a pattern-prefix tiling forces candidate
    // density past the bail-out threshold; the kernel must degrade to
    // plain full-table scanning, not below 0.9x of it.
    let adv = adversarial_trace(&anchored_pats, npkt.min(512), 2048);
    let adv_full = kernel_mbps(&full, &adv, runs);
    let adv_pre = kernel_mbps(&prefiltered, &adv, runs);
    let adv_ratio = adv_pre / adv_full;
    let adv_stats = prefilter_stats(&prefiltered, &adv);
    println!(
        "adversarial: full={adv_full:.0} Mbit/s, prefiltered={adv_pre:.0} \
         Mbit/s, ratio={adv_ratio:.2}x, bailed={}",
        adv_stats.bailed
    );

    let json = format!(
        "{{\n  \"host_cores\": {},\n  \"quick\": {},\n  \"anchored_patterns\": {},\n  \
         \"broad_patterns\": {},\n  \"packets\": {},\n  \"bytes\": {},\n  \
         \"sample_every\": {},\n  \"kernels\": [{}],\n  \"prefilter\": \
         {{\"filtered\": {}, \"skip_fraction\": {:.4}, \"windows\": {}, \
         \"quiet_window_fraction\": {:.4}}},\n  \"broad\": {{\"full_mbps\": {:.0}, \
         \"prefiltered_mbps\": {:.0}, \"ratio\": {:.3}, \"filtered\": {}}},\n  \
         \"adversarial\": {{\"full_mbps\": {:.0}, \"prefiltered_mbps\": {:.0}, \
         \"ratio\": {:.3}, \"bailed\": {}}}\n}}\n",
        host_cores(),
        quick,
        anchored_pats.len(),
        npat,
        npkt,
        bytes,
        SAMPLE,
        kernel_json.join(", "),
        stats.filtered,
        stats.skip_fraction(),
        stats.windows,
        stats.quiet_window_fraction(),
        broad_full,
        broad_pre,
        broad_pre / broad_full,
        broad_stats.filtered,
        adv_full,
        adv_pre,
        adv_ratio,
        adv_stats.bailed
    );
    std::fs::write("BENCH_kernels.json", &json).expect("writable working directory");
    println!("wrote BENCH_kernels.json");
}
