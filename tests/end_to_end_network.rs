//! End-to-end tests through the full simulated deployment: controller,
//! switch + TSA, DPI service instance node, middlebox nodes, sink.

use dpi_service::ac::MiddleboxId;
use dpi_service::core::chaos::FaultPlan;
use dpi_service::middlebox::{antivirus, ids, ips, traffic_shaper};
use dpi_service::packet::ipv4::IpProtocol;
use dpi_service::packet::packet::{flow, PacketBody};
use dpi_service::packet::FlowKey;
use dpi_service::SystemBuilder;

const IDS_ID: MiddleboxId = MiddleboxId(1);
const AV_ID: MiddleboxId = MiddleboxId(2);

fn test_flow(port: u16) -> FlowKey {
    flow([10, 0, 0, 1], port, [10, 0, 0, 2], 80, IpProtocol::Tcp)
}

fn builder() -> SystemBuilder {
    SystemBuilder::new()
        .with_middlebox(ids(IDS_ID, &[b"sig-alpha".to_vec(), b"sig-beta".to_vec()]))
        .with_middlebox(antivirus(AV_ID, &[b"virus-omega".to_vec()]))
        .with_chain(&[IDS_ID, AV_ID])
}

fn build() -> dpi_service::SystemHandle {
    builder().build().expect("system builds")
}

#[test]
fn clean_traffic_flows_untouched_to_destination() {
    let mut sys = build();
    for i in 0..10 {
        sys.send(test_flow(1000), i * 100, b"nothing interesting at all");
    }
    assert_eq!(sys.sink.count(), 10);
    for p in sys.sink.received() {
        assert!(p.vlan.is_empty(), "chain tag must be popped at egress");
        assert!(!p.has_match_mark());
        assert!(matches!(p.body, PacketBody::Ipv4 { .. }));
    }
    // The DPI service scanned everything; the middleboxes scanned nothing.
    assert_eq!(sys.dpi_telemetry().packets, 10);
    assert_eq!(sys.stats_of(IDS_ID).unwrap().packets, 10);
    assert_eq!(sys.stats_of(IDS_ID).unwrap().bytes_self_scanned, 0);
    assert_eq!(sys.net.dropped(), 0, "healthy run loses nothing");
}

#[test]
fn matches_reach_the_right_middleboxes_and_results_never_leak() {
    let mut sys = build();
    sys.send(test_flow(2000), 0, b"carrying sig-alpha here");
    sys.send(test_flow(2000), 100, b"and virus-omega there");
    // IDS alerted once; AV blocked one packet.
    let ids_stats = sys.stats_of(IDS_ID).unwrap();
    let av_stats = sys.stats_of(AV_ID).unwrap();
    assert_eq!(ids_stats.rules_fired, 1);
    assert_eq!(av_stats.blocked, 1);
    // Only the sig-alpha packet survives (IDS is read-only).
    assert_eq!(sys.sink.count(), 1);
    // No dedicated result packet ever reaches the destination host.
    for p in sys.sink.received() {
        assert!(matches!(p.body, PacketBody::Ipv4 { .. }));
    }
    // Nothing fell off the network unexpectedly.
    assert!(sys.net.dropped_at_edge.is_empty());
    assert_eq!(sys.net.dropped(), 0, "loop guard never fires end-to-end");
}

#[test]
fn ips_blocks_inline_and_stops_the_chain() {
    const IPS_ID: MiddleboxId = MiddleboxId(3);
    let mut sys = SystemBuilder::new()
        .with_middlebox(ips(IPS_ID, &[b"exploit-sig".to_vec()]))
        .with_middlebox(antivirus(AV_ID, &[b"virus-omega".to_vec()]))
        .with_chain(&[IPS_ID, AV_ID])
        .build()
        .expect("system builds");
    sys.send(test_flow(4000), 0, b"an exploit-sig payload");
    sys.send(test_flow(4000), 100, b"benign");
    assert_eq!(sys.sink.count(), 1);
    // The AV behind the IPS never saw the blocked packet.
    assert_eq!(sys.stats_of(AV_ID).unwrap().packets, 1);
}

#[test]
fn a_middlebox_shared_by_two_chains_passes_results_downstream() {
    // B is last on chain [A, B] and in the middle of chain [B, C]; `send`
    // takes the first chain. B must hand C its report and the packet
    // must leave C, although B ends the other chain.
    const A: MiddleboxId = MiddleboxId(11);
    const B: MiddleboxId = MiddleboxId(12);
    const C: MiddleboxId = MiddleboxId(13);
    let mut sys = SystemBuilder::new()
        .with_middlebox(ids(A, &[b"sig-of-a".to_vec()]))
        .with_middlebox(ids(B, &[b"sig-of-b".to_vec()]))
        .with_middlebox(ids(C, &[b"sig-of-c".to_vec()]))
        .with_chain(&[B, C])
        .with_chain(&[A, B])
        .build()
        .expect("system builds");
    sys.send(test_flow(4500), 0, b"a payload carrying sig-of-c");
    let c = sys.stats_of(C).unwrap();
    assert_eq!((c.packets, c.matches, c.rules_fired), (1, 1, 1));
    assert_eq!(sys.stats_of(B).unwrap().matches, 0);
    assert_eq!(sys.stats_of(A).unwrap().packets, 0, "not on this chain");
    assert_eq!(sys.sink.count(), 1);
    assert_eq!(sys.net.dropped(), 0);
}

#[test]
fn shaper_chain_observes_match_positions() {
    const SH: MiddleboxId = MiddleboxId(5);
    let mut sys = SystemBuilder::new()
        .with_middlebox(traffic_shaper(SH, &[(b"video-stream".to_vec(), 3)]))
        .with_chain(&[SH])
        .build()
        .expect("system builds");
    sys.send(test_flow(5000), 0, b"a video-stream chunk");
    let st = sys.stats_of(SH).unwrap();
    assert_eq!(st.matches, 1);
    assert_eq!(sys.sink.count(), 1);
}

#[test]
fn per_flow_state_survives_the_network_path() {
    // A stateful IDS sees a signature split across two TCP segments that
    // traverse the whole simulated network.
    let mut sys = build();
    sys.send(test_flow(6000), 0, b"first half sig-al");
    sys.send(test_flow(6000), 17, b"pha second half");
    let ids_stats = sys.stats_of(IDS_ID).unwrap();
    assert_eq!(
        ids_stats.rules_fired, 1,
        "stateful cross-packet match must be detected end-to-end"
    );
    // The stateless AV correctly saw nothing.
    assert_eq!(sys.stats_of(AV_ID).unwrap().matches, 0);
    assert_eq!(sys.net.dropped(), 0, "healthy run loses nothing");
}

/// One `send` offers exactly one packet: for the IDS+AV chain that is 8
/// deliveries unmatched (the packet's hops through the switch, the DPI
/// node and both middleboxes to the sink) and 13 matched (the result
/// packet's hops ride along). A fault plan whose faults never fire
/// changes nothing.
#[test]
fn one_send_offers_exactly_one_packet() {
    let counts = |sys: &mut dpi_service::SystemHandle| {
        let unmatched = sys.send(test_flow(5000), 0, b"nothing interesting at all");
        let matched = sys.send(test_flow(5000), 100, b"carrying sig-alpha here");
        (unmatched, matched, sys.tsa.rule_count())
    };
    assert_eq!(counts(&mut build()), (8, 13, 5));
    let mut armed = builder()
        .with_chaos(
            FaultPlan::new(7)
                .kill_instance_at_packet(0, u64::MAX)
                .corrupt_rule_update(0),
        )
        .build()
        .expect("system builds");
    assert_eq!(counts(&mut armed), (8, 13, 5));
}
