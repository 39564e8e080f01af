//! Session reconstruction as a service: the DPI instance reassembles TCP
//! streams once and scans in order, regardless of segment arrival order.

use dpi_core::report::expand_records;
use dpi_core::{ConflictPolicy, StreamReassembler};
use dpi_core::{DpiInstance, InstanceConfig, MiddleboxId, MiddleboxProfile, RuleSpec};
use dpi_packet::ipv4::IpProtocol;
use dpi_packet::packet::flow;
use dpi_packet::FlowKey;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const IDS: MiddleboxId = MiddleboxId(1);

fn instance() -> DpiInstance {
    DpiInstance::new(
        InstanceConfig::new()
            .with_middlebox(
                MiddleboxProfile::stateful(IDS),
                vec![RuleSpec::exact(b"CROSS-SEGMENT-SIG".to_vec())],
            )
            .with_chain(1, vec![IDS]),
    )
    .unwrap()
}

fn f(port: u16) -> FlowKey {
    flow([1, 1, 1, 1], port, [2, 2, 2, 2], 80, IpProtocol::Tcp)
}

fn all_hits(outs: &[dpi_core::ScanOutput]) -> Vec<(u16, u64)> {
    outs.iter()
        .flat_map(|o| {
            o.reports.iter().flat_map(move |r| {
                expand_records(&r.records)
                    .into_iter()
                    .map(move |(pid, pos)| (pid, o.flow_offset + u64::from(pos)))
            })
        })
        .collect()
}

#[test]
fn out_of_order_segments_still_match() {
    let mut dpi = instance();
    let fk = f(1);
    // The signature spans segments 2 and 3; segment 3 arrives first.
    let seg1 = b"preamble ";
    let seg2 = b"CROSS-SEG";
    let seg3 = b"MENT-SIG done";

    let o1 = dpi.scan_tcp_segment(1, fk, 1000, seg1).unwrap();
    assert!(all_hits(&o1).is_empty());
    // Segment 3 out of order: buffered, nothing scanned yet.
    let o3 = dpi.scan_tcp_segment(1, fk, 1000 + 9 + 9, seg3).unwrap();
    assert!(o3.is_empty());
    // Segment 2 fills the gap: both runs scan, signature completes.
    let o2 = dpi.scan_tcp_segment(1, fk, 1000 + 9, seg2).unwrap();
    let hits = all_hits(&o2);
    assert_eq!(hits.len(), 1);
    // Flow-absolute end position: starts at byte 9, 17 bytes long.
    assert_eq!(hits[0].1, 9 + 17 - 1);
}

#[test]
fn retransmission_does_not_double_report() {
    let mut dpi = instance();
    let fk = f(2);
    let o = dpi
        .scan_tcp_segment(1, fk, 0, b"CROSS-SEGMENT-SIG")
        .unwrap();
    assert_eq!(all_hits(&o).len(), 1);
    // Exact retransmission: no new bytes, no new report.
    let o = dpi
        .scan_tcp_segment(1, fk, 0, b"CROSS-SEGMENT-SIG")
        .unwrap();
    assert!(all_hits(&o).is_empty());
}

#[test]
fn in_order_segment_path_equals_plain_scans() {
    let mut via_segments = instance();
    let mut via_payloads = instance();
    let fk = f(3);
    let chunks: [&[u8]; 3] = [
        b"first CROSS-",
        b"SEGMENT-SIG and ",
        b"CROSS-SEGMENT-SIG again",
    ];
    let mut seq = 5000u32;
    let mut seg_hits = Vec::new();
    let mut plain_hits = Vec::new();
    for c in chunks {
        let outs = via_segments.scan_tcp_segment(1, fk, seq, c).unwrap();
        seg_hits.extend(all_hits(&outs));
        let out = via_payloads.scan_payload(1, Some(fk), c).unwrap();
        plain_hits.extend(all_hits(std::slice::from_ref(&out)));
        seq = seq.wrapping_add(c.len() as u32);
    }
    assert_eq!(seg_hits, plain_hits);
    assert_eq!(seg_hits.len(), 2);
}

#[test]
fn close_flow_drops_all_state() {
    let mut dpi = instance();
    let fk = f(4);
    dpi.scan_tcp_segment(1, fk, 0, b"CROSS-SEGMENT").unwrap();
    assert_eq!(dpi.tracked_flows(), 1);
    dpi.close_tcp_flow(&fk);
    assert_eq!(dpi.tracked_flows(), 0);
    // A new stream at the same 5-tuple starts clean: the half-signature
    // above must not combine with the rest.
    let o = dpi.scan_tcp_segment(1, fk, 100, b"-SIG").unwrap();
    assert!(all_hits(&o).is_empty());
}

#[test]
fn repeated_out_of_order_segment_never_exhausts_buffer() {
    // Regression: `push` used to count `buffered` bytes for duplicate
    // out-of-order segments whose payload was then discarded by the
    // first-copy rule, so retransmitting one unfilled gap eventually made
    // the reassembler reject *every* out-of-order segment as over
    // capacity.
    let mut r = StreamReassembler::new(0, 64);
    assert!(r.push(32, b"tail-data").is_empty());
    // Far more duplicate bytes than the whole capacity.
    for _ in 0..100 {
        assert!(r.push(32, b"tail-data").is_empty());
    }
    assert_eq!(r.buffered(), 9, "accounting leaked on duplicates");
    // A fresh out-of-order segment still fits: no spurious eviction.
    assert!(r.push(50, b"more").is_empty());
    assert_eq!(r.evicted_segments(), 0);
    assert_eq!(r.dropped_segments(), 0);
    // The gap fills and the whole stream (with its hole at 41..50
    // unfilled) drains what is contiguous.
    let runs = r.push(0, &[b'a'; 32]);
    assert_eq!(runs.concat().len(), 32 + 9);
}

/// Splits `stream` (which starts at sequence `initial_seq`) into random
/// segments, shuffles their arrival order, duplicates some, and feeds
/// them all through a reassembler. Returns the concatenated delivered
/// runs.
fn reassemble_shuffled(initial_seq: u32, stream: &[u8], seed: u64) -> Vec<u8> {
    let mut rng = StdRng::seed_from_u64(seed);
    // Cut the stream into segments of 1..=32 bytes.
    let mut segments = Vec::new();
    let mut off = 0usize;
    while off < stream.len() {
        let len = rng.gen_range(1usize..=32).min(stream.len() - off);
        segments.push((
            initial_seq.wrapping_add(off as u32),
            stream[off..off + len].to_vec(),
        ));
        off += len;
    }
    // Duplicate ~25% of segments (retransmissions).
    for i in 0..segments.len() {
        if rng.gen_bool(0.25) {
            segments.push(segments[i].clone());
        }
    }
    // Fisher-Yates shuffle of arrival order.
    for i in (1..segments.len()).rev() {
        let j = rng.gen_range(0usize..=i);
        segments.swap(i, j);
    }
    let mut r = StreamReassembler::new(initial_seq, 1 << 20);
    let mut delivered = Vec::new();
    for (seq, payload) in &segments {
        for run in r.push(*seq, payload) {
            delivered.extend_from_slice(&run);
        }
    }
    assert_eq!(r.buffered(), 0, "every gap must eventually fill");
    assert_eq!(r.delivered(), stream.len() as u64);
    delivered
}

/// Copies of `stream` as `(offset, bytes)` in arrival order: a disjoint
/// cover of the whole stream plus random overlapping copies, some of them
/// exact duplicates of earlier ones and some with flipped bytes, shuffled.
fn divergent_copies(stream: &[u8], seed: u64) -> Vec<(usize, Vec<u8>)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut copies = Vec::new();
    let mut off = 0usize;
    while off < stream.len() {
        let len = rng.gen_range(1usize..=32).min(stream.len() - off);
        copies.push((off, stream[off..off + len].to_vec()));
        off += len;
    }
    for _ in 0..rng.gen_range(0usize..=24) {
        if rng.gen_bool(0.3) {
            let dup = copies[rng.gen_range(0..copies.len())].clone();
            copies.push(dup);
            continue;
        }
        let off = rng.gen_range(0..stream.len());
        let len = rng.gen_range(1usize..=48).min(stream.len() - off);
        let mut bytes = stream[off..off + len].to_vec();
        if rng.gen_bool(0.3) {
            let at = rng.gen_range(0..len);
            bytes[at] ^= rng.gen_range(1u8..=255);
        }
        copies.push((off, bytes));
    }
    for i in (1..copies.len()).rev() {
        let j = rng.gen_range(0usize..=i);
        copies.swap(i, j);
    }
    copies
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Overlapping, duplicated and byte-divergent copies in random order
    /// across the 2³² wrap, against a model that keeps the first copy of
    /// each byte. Under `FirstWins` the delivered stream is always the
    /// model's contiguous prefix, and the conflict count grows on exactly
    /// the pushes that carry a byte differing from its first copy. Under
    /// `RejectFlow` the first such push quarantines the flow, and nothing
    /// is delivered from then on. The stream stays inside
    /// `CONFLICT_HISTORY`, so every retransmitted byte is verifiable.
    #[test]
    fn divergent_overlaps_follow_a_first_copy_model(
        back_off in 0u32..512,
        stream_len in 1usize..600,
        seed in any::<u64>(),
    ) {
        let initial_seq = u32::MAX.wrapping_sub(back_off);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xd1ff);
        let mut stream = vec![0u8; stream_len];
        rng.fill(&mut stream[..]);
        let copies = divergent_copies(&stream, seed);

        let mut first_wins = StreamReassembler::new(initial_seq, 1 << 20);
        let mut reject =
            StreamReassembler::with_policy(initial_seq, 1 << 20, ConflictPolicy::RejectFlow);
        let mut model: Vec<Option<u8>> = vec![None; stream_len];
        let mut delivered = Vec::new();
        let mut rejected = Vec::new();
        let mut diverged = false;
        for (off, bytes) in &copies {
            let seq = initial_seq.wrapping_add(*off as u32);
            let differs = bytes
                .iter()
                .zip(&model[*off..])
                .any(|(b, first)| first.is_some_and(|f| f != *b));
            for (b, first) in bytes.iter().zip(&mut model[*off..]) {
                first.get_or_insert(*b);
            }
            let prefix: Vec<u8> = model.iter().map_while(|b| *b).collect();

            let conflicts = first_wins.conflicts();
            delivered.extend(first_wins.push(seq, bytes).concat());
            prop_assert_eq!(&delivered, &prefix);
            prop_assert_eq!(first_wins.conflicts() > conflicts, differs);

            let runs = reject.push(seq, bytes).concat();
            diverged |= differs;
            prop_assert_eq!(reject.quarantined(), diverged);
            if diverged {
                prop_assert!(runs.is_empty(), "a quarantined flow delivered {} B", runs.len());
            } else {
                rejected.extend(runs);
                prop_assert_eq!(&rejected, &prefix);
            }
        }
        prop_assert_eq!(first_wins.conflicts() > 0, diverged);
        prop_assert_eq!(first_wins.delivered(), stream_len as u64);
        prop_assert_eq!(reject.delivered(), rejected.len() as u64);
    }

    /// Regression for the serial-order drain bug: segments shuffled
    /// across the 2³² sequence wrap must still reassemble into exactly
    /// the in-order reference stream.
    #[test]
    fn shuffled_segments_across_wrap_equal_in_order_reference(
        // Start close enough to the wrap that the stream crosses it.
        back_off in 0u32..256,
        stream_len in 1usize..600,
        seed in any::<u64>(),
    ) {
        let initial_seq = u32::MAX.wrapping_sub(back_off);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
        let mut stream = vec![0u8; stream_len];
        rng.fill(&mut stream[..]);
        let delivered = reassemble_shuffled(initial_seq, &stream, seed);
        prop_assert_eq!(delivered, stream);
    }

    /// The same invariant away from the wrap (guards the general case
    /// against regressions from the serial-order fix).
    #[test]
    fn shuffled_segments_anywhere_equal_in_order_reference(
        initial_seq in any::<u32>(),
        stream_len in 1usize..600,
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xfeed);
        let mut stream = vec![0u8; stream_len];
        rng.fill(&mut stream[..]);
        let delivered = reassemble_shuffled(initial_seq, &stream, seed);
        prop_assert_eq!(delivered, stream);
    }
}
