//! Advanced DPI-service features in one flow: TCP session reconstruction
//! and decompress-once scanning.
//!
//! The paper's conclusion proposes "turning other common tasks, such as
//! flow tagging and session reconstruction, into services", and §1 notes
//! that decompression "may be reduced significantly, as these heavy
//! processes are executed only once for each packet". This example shows
//! both on one connection:
//!
//! 1. An HTTP-like response is DEFLATE-compressed, split into TCP
//!    segments, and the segments are delivered **out of order**.
//! 2. The DPI service reassembles the stream (once), inflates the body
//!    (once), and scans it (once) — and still finds a signature that is
//!    invisible both on the wire (compressed) and in any single segment
//!    (split across a segment boundary).
//!
//! Run with: `cargo run --example session_reconstruction`

use dpi_service::ac::MiddleboxId;
use dpi_service::core::report::expand_records;
use dpi_service::core::{
    deflate_fixed, inflate, DpiInstance, InstanceConfig, MiddleboxProfile, RuleSpec,
    StreamReassembler,
};
use dpi_service::packet::ipv4::IpProtocol;
use dpi_service::packet::packet::flow;

fn main() {
    const IDS: MiddleboxId = MiddleboxId(1);
    let signature = b"EXFILTRATED-SECRET-DOCUMENT";
    let cfg = InstanceConfig::new()
        .with_middlebox(
            MiddleboxProfile::stateful(IDS).read_only(),
            vec![RuleSpec::exact(signature.to_vec())],
        )
        .with_chain(1, vec![IDS]);
    let mut dpi = DpiInstance::new(cfg).expect("valid config");

    // The application payload: an HTTP-ish response whose compressed body
    // hides the signature.
    let mut body = b"<html><body>quarterly report ".to_vec();
    body.extend_from_slice(signature);
    body.extend_from_slice(b" appendix B</body></html>");
    let compressed = deflate_fixed(&body);
    println!(
        "body: {} B plain, {} B compressed; signature visible in compressed bytes: {}",
        body.len(),
        compressed.len(),
        compressed
            .windows(signature.len())
            .any(|w| w == signature.as_slice())
    );

    // Split the *compressed* stream into three TCP segments and deliver
    // them out of order (3, 1, 2).
    let seg_len = compressed.len() / 3 + 1;
    let segments: Vec<(u32, &[u8])> = compressed
        .chunks(seg_len)
        .enumerate()
        .map(|(i, c)| ((i * seg_len) as u32, c))
        .collect();
    let order = [2usize, 0, 1];

    // The DPI service reassembles the byte stream once…
    let mut reassembler = StreamReassembler::new(0, 1 << 20);
    let mut stream = Vec::new();
    for &i in &order {
        let (seq, data) = segments[i];
        for run in reassembler.push(seq, data) {
            stream.extend_from_slice(&run);
        }
        println!(
            "  segment {} arrived (seq {seq}): {} B in order so far",
            i + 1,
            stream.len()
        );
    }
    assert_eq!(stream, compressed, "reassembly restored the exact stream");

    // …inflates once, scans once, reports to the IDS.
    let f = flow([10, 0, 0, 1], 40000, [10, 0, 0, 2], 80, IpProtocol::Tcp);
    let inflated = inflate(&stream, 1 << 16).expect("well-formed stream");
    let out = dpi
        .scan_payload(1, Some(f), &inflated)
        .expect("chain 1 is served");
    let hits: Vec<(u16, u16)> = out
        .reports
        .iter()
        .filter(|r| r.middlebox_id == IDS.0)
        .flat_map(|r| expand_records(&r.records))
        .collect();
    assert_eq!(hits.len(), 1, "signature must be found exactly once");
    println!(
        "\nIDS report: rule {} matched at decompressed offset {}",
        hits[0].0, hits[0].1
    );
    println!(
        "work done once: 1 reassembly, 1 inflation ({} B), {} scan pass",
        inflated.len(),
        dpi.telemetry().packets
    );
    println!("\nreassemble once, decompress once, scan once ✓");
}
