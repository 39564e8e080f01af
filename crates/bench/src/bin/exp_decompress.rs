//! §1's decompression argument: "the effect of decompression …, which
//! usually takes place prior to the DPI phase, may be reduced
//! significantly, as these heavy processes are executed only once for
//! each packet."
//!
//! Workload: DEFLATE-compressed HTTP-like payloads. Baseline: each of N
//! middleboxes inflates the payload itself before scanning its own set.
//! Service: the DPI instance inflates once and scans the merged set.

use dpi_ac::MiddleboxId;
use dpi_core::{inflate, DpiInstance, InstanceConfig, MiddleboxProfile, RuleSpec};
use dpi_traffic::patterns::{snort_like, split_set};
use dpi_traffic::trace::TraceConfig;
use std::time::Instant;

fn main() {
    let snort = snort_like(2000, 42);
    let (set_a, set_b) = split_set(&snort, 1000, 3);
    let plain = TraceConfig {
        packets: 1500,
        match_density: 0.05,
        seed: 21,
        ..TraceConfig::default()
    }
    .generate(&snort);
    let compressed: Vec<Vec<u8>> = plain.iter().map(|p| dpi_core::deflate_fixed(p)).collect();
    let wire_bytes: usize = compressed.iter().map(|p| p.len()).sum();
    let plain_bytes: usize = plain.iter().map(|p| p.len()).sum();

    const A: MiddleboxId = MiddleboxId(1);
    const B: MiddleboxId = MiddleboxId(2);

    // Baseline: two middleboxes, each inflating then scanning its own set.
    let mk = |id: MiddleboxId, pats: &[Vec<u8>]| {
        DpiInstance::new(
            InstanceConfig::new()
                .with_middlebox(MiddleboxProfile::stateless(id), RuleSpec::exact_set(pats))
                .with_chain(1, vec![id]),
        )
        .expect("valid config")
    };
    let mut mb_a = mk(A, &set_a);
    let mut mb_b = mk(B, &set_b);

    let t0 = Instant::now();
    let mut baseline_matches = 0usize;
    for z in &compressed {
        // Middlebox A: inflate + scan.
        let p = inflate(z, 1 << 16).expect("well-formed workload");
        baseline_matches += mb_a.scan_payload(1, None, &p).expect("scan").reports.len();
        // Middlebox B: inflate (again!) + scan.
        let p = inflate(z, 1 << 16).expect("well-formed workload");
        baseline_matches += mb_b.scan_payload(1, None, &p).expect("scan").reports.len();
    }
    let t_baseline = t0.elapsed();

    // Service: one instance, merged sets, decompress once.
    let cfg = InstanceConfig::new()
        .with_middlebox(MiddleboxProfile::stateless(A), RuleSpec::exact_set(&set_a))
        .with_middlebox(MiddleboxProfile::stateless(B), RuleSpec::exact_set(&set_b))
        .with_chain(1, vec![A, B]);
    let mut dpi = DpiInstance::new(cfg).expect("valid config");
    let t0 = Instant::now();
    let mut service_matches = 0usize;
    for z in &compressed {
        let p = inflate(z, 1 << 16).expect("well-formed workload");
        service_matches += dpi.scan_payload(1, None, &p).expect("scan").reports.len();
    }
    let t_service = t0.elapsed();

    assert_eq!(baseline_matches, service_matches, "verdict parity");
    println!("# §1 — decompress once before DPI\n");
    println!(
        "packets                 : {} ({} B wire, {} B inflated)",
        plain.len(),
        wire_bytes,
        plain_bytes
    );
    println!("reports (both modes)    : {baseline_matches}");
    println!("baseline (2x inflate + 2x scan) : {t_baseline:?}");
    println!("service  (1x inflate + 1x scan) : {t_service:?}");
    println!(
        "\nspeedup: {:.2}x (inflations: {} vs {})",
        t_baseline.as_secs_f64() / t_service.as_secs_f64(),
        2 * compressed.len(),
        compressed.len()
    );
    println!("# expected shape: service ≈ 2x faster — both the inflate and the");
    println!("# scan halve; with longer chains the factor grows linearly.");
}
