//! Failure injection: what happens when pieces of the result-delivery
//! machinery misbehave. The system's stance is fail-open for data
//! (packets keep flowing) and fail-closed for decisions that depend on
//! missing results (no false blocks).

use dpi_service::ac::MiddleboxId;
use dpi_service::core::chaos::FaultPlan;
use dpi_service::core::instance::ScanEngine;
use dpi_service::core::{DpiInstance, InstanceConfig, MiddleboxProfile, RuleSpec};
use dpi_service::middlebox::{
    antivirus, ids, Condition, DpiServiceNode, MbAction, MbRule, MiddleboxNode, RuleLogic,
    ServiceMiddlebox,
};
use dpi_service::packet::ipv4::IpProtocol;
use dpi_service::packet::packet::flow;
use dpi_service::packet::report::ResultPacket;
use dpi_service::packet::{MacAddr, Packet};
use dpi_service::sdn::Node;
use dpi_service::SystemBuilder;
use std::sync::Arc;

const MB: MiddleboxId = MiddleboxId(1);

fn dpi() -> DpiInstance {
    DpiInstance::new(
        InstanceConfig::new()
            .with_middlebox(
                MiddleboxProfile::stateless(MB),
                vec![RuleSpec::exact(b"match-me-sig".to_vec())],
            )
            .with_chain(5, vec![MB]),
    )
    .unwrap()
}

fn tagged(payload: &[u8], port: u16) -> Packet {
    let f = flow([1, 1, 1, 1], port, [2, 2, 2, 2], 80, IpProtocol::Tcp);
    let mut p = Packet::tcp(MacAddr::local(1), MacAddr::local(2), f, 0, payload.to_vec());
    p.push_chain_tag(5).unwrap();
    p
}

#[test]
fn lost_result_packets_fail_open_at_buffer_capacity() {
    let (mut dpi_node, _h) = DpiServiceNode::new(dpi(), MacAddr::local(9), 0);
    let mb = ServiceMiddlebox::new(MB, "ids", RuleLogic::one_per_pattern(1, MbAction::Alert));
    let (mut mb_node, handle) = MiddleboxNode::new(mb, true);

    // Three marked packets whose result packets we "lose" on the way.
    let mut released = Vec::new();
    for port in [1000u16, 1001, 1002] {
        let emitted = dpi_node.on_packet(tagged(b"a match-me-sig b", port), 0);
        assert_eq!(emitted.len(), 2, "data + result emitted");
        // Deliver only the data packet; drop the result.
        released.extend(mb_node.on_packet(emitted[0].1.clone(), 0));
    }
    // The node holds one packet: each arrival releases the one before it,
    // unpaired, so by the third two have gone on and the third is held.
    assert_eq!(released.len(), 2, "fail-open release at the next arrival");
    // The unpaired packets were processed with no matches (fail-closed on
    // match-dependent decisions): forwarded, no rule fired on them.
    let stats = handle.lock().stats();
    assert_eq!(stats.packets, 2);
    assert_eq!(stats.matches, 0);
    assert_eq!(stats.unpaired, 2);
    // Once the network goes idle no result can follow the third: the
    // flush sends it on unpaired too.
    mb_node.flush(&mut released);
    assert_eq!(released.len(), 3, "the held packet leaves at the flush");
    let stats = handle.lock().stats();
    assert_eq!((stats.packets, stats.matches, stats.unpaired), (3, 0, 3));
}

#[test]
fn a_packet_whose_result_is_lost_reaches_the_sink_when_the_network_goes_idle() {
    const AV: MiddleboxId = MiddleboxId(2);
    let mut sys = SystemBuilder::new()
        .with_middlebox(ids(MB, &[b"match-me-sig".to_vec()]))
        .with_middlebox(antivirus(AV, &[b"virus-omega".to_vec()]))
        .with_chain(&[MB, AV])
        .with_chaos(FaultPlan::new(5).drop_result_packets(1.0))
        .build()
        .unwrap();
    let f = flow([10, 0, 0, 1], 4000, [10, 0, 0, 2], 80, IpProtocol::Tcp);
    sys.send(f, 0, b"a match-me-sig payload");
    // Every delivery attempt of the result was dropped and nothing else
    // arrives: each member of the chain holds the marked packet until
    // the network goes idle, then sends it on unpaired.
    assert_eq!(sys.sink.count(), 1, "the held packet never left");
    for id in [MB, AV] {
        let st = sys.stats_of(id).unwrap();
        assert_eq!((st.packets, st.matches, st.unpaired), (1, 0, 1), "{id:?}");
    }
    assert_eq!(sys.net.dropped(), 0);
}

#[test]
fn a_lost_result_does_not_shift_the_flows_later_verdicts() {
    const IPS: MiddleboxId = MiddleboxId(2);
    let dpi = DpiInstance::new(
        InstanceConfig::new()
            .with_middlebox(
                MiddleboxProfile::stateless(IPS),
                vec![
                    RuleSpec::exact(b"alert-me-sig".to_vec()),
                    RuleSpec::exact(b"block-me-sig".to_vec()),
                ],
            )
            .with_chain(5, vec![IPS]),
    )
    .unwrap();
    let (mut dpi_node, _h) = DpiServiceNode::new(dpi, MacAddr::local(9), 0);
    let logic = RuleLogic::new(vec![
        MbRule {
            id: 0,
            condition: Condition::Pattern(0),
            action: MbAction::Alert,
        },
        MbRule {
            id: 1,
            condition: Condition::Pattern(1),
            action: MbAction::Block,
        },
    ]);
    let (mut mb_node, handle) = MiddleboxNode::new(ServiceMiddlebox::new(IPS, "ips", logic), true);

    // One flow: packet 1 loses its result, packet 2 arrives with its own.
    let benign = dpi_node.on_packet(tagged(b"benign alert-me-sig", 5000), 0);
    let evil = dpi_node.on_packet(tagged(b"evil block-me-sig", 5000), 0);
    assert_eq!((benign.len(), evil.len()), (2, 2), "data + result emitted");
    let mut forwarded = mb_node.on_packet(benign[0].1.clone(), 0);
    for (_, p) in evil {
        forwarded.extend(mb_node.on_packet(p, 0));
    }

    // Packet 2's result decides packet 2, not packet 1: the benign packet
    // goes on unpaired, and the evil one is blocked.
    assert_eq!(forwarded.len(), 1);
    assert_eq!(forwarded[0].1.payload(), Some(&b"benign alert-me-sig"[..]));
    let stats = handle.lock().stats();
    assert_eq!(stats.blocked, 1);
    assert_eq!(stats.packets, 2);
}

#[test]
fn duplicated_result_packets_do_not_double_fire() {
    let (mut dpi_node, _h) = DpiServiceNode::new(dpi(), MacAddr::local(9), 0);
    let mb = ServiceMiddlebox::new(MB, "ids", RuleLogic::one_per_pattern(1, MbAction::Alert));
    let (mut mb_node, handle) = MiddleboxNode::new(mb, true);

    let emitted = dpi_node.on_packet(tagged(b"one match-me-sig", 2000), 0);
    let data = emitted[0].1.clone();
    let result = emitted[1].1.clone();
    // Data, then the result twice (a retransmitting network element).
    mb_node.on_packet(data, 0);
    mb_node.on_packet(result.clone(), 0);
    mb_node.on_packet(result, 0);
    let stats = handle.lock().stats();
    // One data packet processed once; the duplicate result, right behind
    // the one it copies, is dropped rather than paired with the flow's
    // next marked packet.
    assert_eq!(stats.packets, 1);
    assert_eq!(stats.rules_fired, 1);
}

#[test]
fn unknown_chain_packets_are_dropped_by_the_service_not_crashed_on() {
    let (mut dpi_node, _h) = DpiServiceNode::new(dpi(), MacAddr::local(9), 0);
    let mut p = tagged(b"payload", 3000);
    p.pop_chain_tag();
    p.push_chain_tag(999).unwrap(); // a chain this instance does not serve
    assert!(dpi_node.on_packet(p, 0).is_empty());
    assert_eq!(dpi_node.error_count(), 1);
}

#[test]
fn corrupted_result_packet_bytes_do_not_poison_the_middlebox() {
    use dpi_service::packet::packet::PacketBody;
    let (mut dpi_node, _h) = DpiServiceNode::new(dpi(), MacAddr::local(9), 0);
    let emitted = dpi_node.on_packet(tagged(b"xx match-me-sig", 4000), 0);
    let result = emitted[1].1.clone();

    // Serialize, corrupt a report byte, reparse: the packet layer rejects
    // it (or yields a different-but-valid report), so the wire path can
    // never deliver a half-garbage structure to the middlebox.
    let mut bytes = result.to_bytes();
    let n = bytes.len();
    bytes[n - 1] ^= 0xff;
    match Packet::parse(&bytes) {
        Err(_) => {}
        Ok(p) => {
            // If it still parses, it must be a structurally valid result.
            assert!(matches!(p.body, PacketBody::Result(_) | PacketBody::Raw(_)));
        }
    }
}

// ---------------------------------------------------------------------------
// Sharded-pipeline failure injection: the same fail-open/fail-closed
// stance must hold when scanning runs on the parallel data plane, at
// every worker count.
// ---------------------------------------------------------------------------

const WORKER_COUNTS: [usize; 3] = [1, 2, 8];

fn engine() -> Arc<ScanEngine> {
    Arc::new(
        ScanEngine::new(
            InstanceConfig::new()
                .with_middlebox(
                    MiddleboxProfile::stateless(MB),
                    vec![RuleSpec::exact(b"match-me-sig".to_vec())],
                )
                .with_chain(5, vec![MB]),
        )
        .unwrap(),
    )
}

/// A batch spread over many flows (so every shard gets work); every third
/// packet carries the signature.
fn batch(n: usize) -> Vec<Packet> {
    (0..n)
        .map(|i| {
            let payload: &[u8] = if i % 3 == 0 {
                b"xx match-me-sig yy"
            } else {
                b"nothing to see here"
            };
            tagged(payload, 1000 + i as u16)
        })
        .collect()
}

/// Reference verdicts: a sequential instance fed the same batch.
fn sequential_results(engine: &Arc<ScanEngine>, packets: &[Packet]) -> Vec<ResultPacket> {
    let mut seq = DpiInstance::from_engine(engine.clone());
    let mut out = Vec::new();
    for p in packets {
        let mut c = p.clone();
        if let Some(r) = seq.inspect(&mut c).unwrap() {
            out.push(r);
        }
    }
    out
}

/// Strips the (encounter-order) packet id so verdicts can be compared
/// across runs that lost different packets.
fn unnumbered(mut r: ResultPacket) -> ResultPacket {
    r.packet_id = 0;
    r
}

/// Asserts `delivered` is an ordered subsequence of `reference`, each
/// element byte-identical once ids are stripped.
fn assert_verdict_subsequence(delivered: &[ResultPacket], reference: &[ResultPacket]) {
    let mut it = reference.iter().map(|r| unnumbered(r.clone()));
    for d in delivered {
        let d = unnumbered(d.clone());
        assert!(
            it.any(|r| r == d),
            "delivered verdict {d:?} not found (in order) in the sequential reference"
        );
    }
}

#[test]
fn panicked_shard_loses_only_its_own_packets_at_every_worker_count() {
    let engine = engine();
    let packets = batch(48);
    let reference = sequential_results(&engine, &packets);

    for workers in WORKER_COUNTS {
        let plan = FaultPlan::new(22).panic_shard(0, 2);
        let mut scanner = DpiInstance::with_workers(engine.clone(), workers);
        scanner.inject_shard_faults(&plan.shard_faults);

        let mut copy = packets.clone();
        let delivered = scanner.inspect_batch(&mut copy);
        assert_eq!(scanner.total_restarts(), 1, "workers={workers}");
        assert_verdict_subsequence(&delivered, &reference);
        if workers > 1 {
            // Other shards were unaffected: at least their matches came
            // through.
            assert!(!delivered.is_empty(), "workers={workers}");
        }
    }
}

#[test]
fn lost_and_duplicated_results_from_the_pipeline_never_double_fire() {
    let engine = engine();
    let packets = batch(30);

    // The pipeline's verdicts are identical at every worker count, so
    // the delivery faults below draw identical (seeded) decisions and
    // every observable middlebox stat must agree across {1, 2, 8}.
    let mut observed = Vec::new();
    for workers in WORKER_COUNTS {
        let mut scanner = DpiInstance::with_workers(engine.clone(), workers);
        let mut copy = packets.clone();
        let results = scanner.inspect_batch(&mut copy);

        let chaos = FaultPlan::new(33)
            .drop_result_packets(0.4)
            .duplicate_result_packets(0.3)
            .start();
        let mb = ServiceMiddlebox::new(MB, "ids", RuleLogic::one_per_pattern(1, MbAction::Alert));
        let (mut mb_node, handle) = MiddleboxNode::new(mb, true);

        // Deliver each data packet, then its result (result packets only
        // exist for matched data): chaos may drop or duplicate results.
        let mut by_id: std::collections::HashMap<u32, &ResultPacket> =
            results.iter().map(|r| (r.packet_id, r)).collect();
        let mut delivered_results = 0u64;
        let mut released = 0usize;
        let mut next_id = 0u32;
        for p in &copy {
            released += mb_node.on_packet(p.clone(), 0).len();
            if p.has_match_mark() {
                next_id += 1;
                let r = by_id.remove(&next_id).expect("marked packet has a result");
                if chaos.drop_result() {
                    continue; // lost on the wire
                }
                delivered_results += 1;
                let rp = Packet::result(MacAddr::local(9), MacAddr::local(2), r.clone());
                released += mb_node.on_packet(rp.clone(), 0).len();
                if chaos.duplicate_result() {
                    released += mb_node.on_packet(rp, 0).len();
                }
            }
        }
        let stats = handle.lock().stats();
        // Fail-closed: a rule fires once per *delivered* result — never
        // for a lost one, never twice for a duplicate.
        assert_eq!(stats.rules_fired, delivered_results, "workers={workers}");
        assert!(delivered_results < results.len() as u64, "some were lost");
        observed.push((stats, released, delivered_results));
    }
    assert_eq!(observed[0], observed[1], "workers 1 vs 2 agree");
    assert_eq!(observed[0], observed[2], "workers 1 vs 8 agree");
}
