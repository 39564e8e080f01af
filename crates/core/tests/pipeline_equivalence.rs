//! An instance must be *observably identical* at every worker count and
//! through either kind of entry point: same result packets, same ids,
//! same order, same ECN marks. This is the §4.2 correctness contract that
//! lets an operator scale the data plane without middleboxes noticing.

use dpi_core::{DpiInstance, InstanceConfig, MiddleboxId, MiddleboxProfile, RuleSpec, ScanEngine};
use dpi_packet::report::ResultPacket;
use dpi_packet::Packet;
use dpi_traffic::flows::{flow_pool, packetize};
use std::sync::Arc;

const CHAIN: u16 = 7;
const MSS: usize = 32;

/// One stateless and one stateful middlebox, exact patterns plus a
/// regex, so the test exercises cross-packet state, the stateless
/// deletion rule and the per-shard lazy-DFA caches at once.
fn config() -> InstanceConfig {
    InstanceConfig::new()
        .with_middlebox(
            MiddleboxProfile::stateless(MiddleboxId(1)),
            vec![
                RuleSpec::exact(b"attack".to_vec()),
                RuleSpec::exact(b"virus".to_vec()),
                RuleSpec::regex("evil[0-9]+"),
            ],
        )
        .with_middlebox(
            MiddleboxProfile::stateful(MiddleboxId(2)),
            vec![RuleSpec::exact(b"helloworld".to_vec())],
        )
        .with_chain(CHAIN, vec![MiddleboxId(1), MiddleboxId(2)])
}

/// A multi-flow trace whose segments interleave across flows, with
/// patterns planted both inside single segments and straddling segment
/// boundaries (the cross-packet case only stateful scans may report).
fn interleaved_trace() -> Vec<Packet> {
    let pool = flow_pool(12, 99);
    let mut per_flow: Vec<Vec<Packet>> = Vec::new();
    for (fi, &flow) in pool.flows().iter().enumerate() {
        // "attackhelloworld" starts at byte 28, so with a 32-byte MSS
        // both "attack" and "helloworld" straddle the first segment
        // boundary; the later plants sit fully inside one segment.
        let mut payload = vec![b'x'; 28];
        payload.extend_from_slice(b"attackhelloworld");
        payload.extend_from_slice(format!(" flow{fi} attack virus evil{fi} ").as_bytes());
        payload.extend(std::iter::repeat_n(b'y', 24 + fi));
        let mut segments = packetize(flow, &payload, MSS, 0);
        for p in &mut segments {
            p.push_chain_tag(CHAIN).unwrap();
        }
        per_flow.push(segments);
    }
    // Round-robin interleave: consecutive packets belong to different
    // flows, so a correct pipeline must keep per-flow order while
    // scanning different flows concurrently.
    let mut out = Vec::new();
    let longest = per_flow.iter().map(|s| s.len()).max().unwrap_or(0);
    for round in 0..longest {
        for segs in &per_flow {
            if let Some(p) = segs.get(round) {
                out.push(p.clone());
            }
        }
    }
    out
}

fn instance(workers: usize) -> DpiInstance {
    DpiInstance::with_workers(Arc::new(ScanEngine::new(config()).unwrap()), workers)
}

/// Feeds `packets` one by one through the per-call entry point.
fn inspect_each(instance: &mut DpiInstance, packets: &mut [Packet]) -> Vec<ResultPacket> {
    packets
        .iter_mut()
        .filter_map(|p| instance.inspect(p).unwrap())
        .collect()
}

/// The reference: workers = 1, every packet through `inspect`.
fn sequential_reference(trace: &[Packet]) -> (Vec<Packet>, Vec<ResultPacket>) {
    let mut packets = trace.to_vec();
    let results = inspect_each(&mut instance(1), &mut packets);
    (packets, results)
}

#[test]
fn sharded_output_is_byte_identical_to_sequential() {
    let trace = interleaved_trace();
    let (expected_packets, expected_results) = sequential_reference(&trace);
    assert!(
        !expected_results.is_empty(),
        "the trace must produce matches for the test to mean anything"
    );

    for workers in [1usize, 2, 8] {
        let mut scanner = instance(workers);
        let mut packets = trace.to_vec();
        // Split the trace into two batches: packet ids and per-flow scan
        // state must carry across batch boundaries exactly like the
        // sequential instance's counters do.
        let cut = packets.len() / 2;
        let (first, second) = packets.split_at_mut(cut);
        let mut results = scanner.inspect_batch(first);
        results.extend(scanner.inspect_batch(second));

        assert_eq!(
            results, expected_results,
            "{workers}-worker result stream diverged from sequential"
        );
        assert_eq!(
            packets, expected_packets,
            "{workers}-worker packet mutations (ECN marks) diverged"
        );
        // Merged telemetry sees every packet exactly once.
        assert_eq!(scanner.telemetry().packets, trace.len() as u64);
    }
}

#[test]
fn batch_and_per_call_entry_points_share_flow_state_and_ids() {
    // The interleaved trace, then one "helloworld" per flow cut in two:
    // every "hello" half goes through `inspect_batch` with the trace,
    // every "world" half packet by packet through `inspect` — the
    // stateful match is found only if `inspect` resumes, on the same
    // shard, the state `inspect_batch` stored.
    let mut trace = interleaved_trace();
    let flows: Vec<_> = trace[..12].iter().map(|p| p.flow_key().unwrap()).collect();
    for half in [&b"zz hello"[..], b"world zz"] {
        for &flow in &flows {
            let mut p = packetize(flow, half, MSS, 1 << 20).remove(0);
            p.push_chain_tag(CHAIN).unwrap();
            trace.push(p);
        }
    }
    let cut = trace.len() - flows.len();
    let (expected_packets, expected_results) = sequential_reference(&trace);

    for workers in [1usize, 2, 8] {
        let mut dpi = instance(workers);
        let mut packets = trace.to_vec();
        let (first, second) = packets.split_at_mut(cut);
        let mut results = dpi.inspect_batch(first);
        let handed_over = inspect_each(&mut dpi, second);
        assert_eq!(
            handed_over.len(),
            flows.len(),
            "{workers} workers: every flow's match straddles the hand-over"
        );
        results.extend(handed_over);

        assert_eq!(
            results, expected_results,
            "{workers}-worker mixed-entry result stream (ids included) diverged"
        );
        assert_eq!(
            packets, expected_packets,
            "{workers}-worker mixed-entry packet mutations diverged"
        );
        assert_eq!(dpi.telemetry().packets, trace.len() as u64);
    }
}

#[test]
fn worker_counts_agree_with_each_other_on_flow_state() {
    // After the whole trace, per-flow stored state must make a resumed
    // scan behave the same regardless of sharding: feed a continuation
    // segment for one flow and compare reports.
    let trace = interleaved_trace();
    let flow = trace[0].flow_key().unwrap();

    let mut tail = packetize(flow, b"helloworld continuation", MSS, 1 << 20);
    for p in &mut tail {
        p.push_chain_tag(CHAIN).unwrap();
    }

    let mut expected_tail = {
        let mut reference = instance(1);
        inspect_each(&mut reference, &mut trace.to_vec());
        inspect_each(&mut reference, &mut tail.to_vec())
    };
    // Ids depend on how many packets matched before; compare contents.
    for r in &mut expected_tail {
        r.packet_id = 0;
    }

    for workers in [2usize, 8] {
        let mut scanner = instance(workers);
        let mut packets = trace.to_vec();
        scanner.inspect_batch(&mut packets);
        let mut tail_packets = tail.to_vec();
        let mut got = scanner.inspect_batch(&mut tail_packets);
        for r in &mut got {
            r.packet_id = 0;
        }
        assert_eq!(got, expected_tail);
    }
}
