//! Behavioural tests for the DPI service instance — each §5.2/§5.3
//! mechanism gets a scenario.

use dpi_core::report::expand_records;
use dpi_core::{
    DpiInstance, InstanceConfig, InstanceError, MiddleboxId, MiddleboxProfile, RuleSpec, ScanEngine,
};
use dpi_packet::ipv4::IpProtocol;
use dpi_packet::report::MatchRecord;
use dpi_packet::{FlowKey, MacAddr, Packet};
use std::net::Ipv4Addr;

const IDS: MiddleboxId = MiddleboxId(0);
const AV: MiddleboxId = MiddleboxId(1);

fn flow(port: u16) -> FlowKey {
    FlowKey {
        src_ip: Ipv4Addr::new(10, 0, 0, 1),
        dst_ip: Ipv4Addr::new(10, 0, 0, 2),
        protocol: IpProtocol::Tcp,
        src_port: port,
        dst_port: 80,
    }
}

/// IDS (stateful) with patterns {ATTACK, LONGPATTERN}; AV (stateless) with
/// {ATTACK, VIRUS}. Chain 1 = both; chain 2 = AV only.
fn two_middlebox_instance() -> DpiInstance {
    let cfg = InstanceConfig::new()
        .with_middlebox(
            MiddleboxProfile::stateful(IDS),
            vec![
                RuleSpec::exact(b"ATTACK".to_vec()),
                RuleSpec::exact(b"LONGPATTERN".to_vec()),
            ],
        )
        .with_middlebox(
            MiddleboxProfile::stateless(AV),
            vec![
                RuleSpec::exact(b"ATTACK".to_vec()),
                RuleSpec::exact(b"VIRUS".to_vec()),
            ],
        )
        .with_chain(1, vec![IDS, AV])
        .with_chain(2, vec![AV]);
    DpiInstance::new(cfg).unwrap()
}

fn positions_for(out: &dpi_core::ScanOutput, mb: MiddleboxId) -> Vec<(u16, u16)> {
    out.reports
        .iter()
        .find(|r| r.middlebox_id == mb.0)
        .map(|r| expand_records(&r.records))
        .unwrap_or_default()
}

#[test]
fn shared_pattern_is_reported_to_both_middleboxes() {
    let mut dpi = two_middlebox_instance();
    let out = dpi.scan_payload(1, None, b"xxATTACKyy").unwrap();
    // ATTACK ends at index 7; rule 0 for both middleboxes.
    assert_eq!(positions_for(&out, IDS), vec![(0, 7)]);
    assert_eq!(positions_for(&out, AV), vec![(0, 7)]);
}

#[test]
fn chain_selects_active_middleboxes() {
    let mut dpi = two_middlebox_instance();
    // Chain 2 activates only AV: the IDS's LONGPATTERN must not be
    // reported even though it is in the combined automaton.
    let out = dpi.scan_payload(2, None, b"LONGPATTERN and VIRUS").unwrap();
    assert!(positions_for(&out, IDS).is_empty());
    assert_eq!(positions_for(&out, AV), vec![(1, 20)]);
}

#[test]
fn unknown_chain_is_an_error() {
    let mut dpi = two_middlebox_instance();
    assert_eq!(
        dpi.scan_payload(99, None, b"x").unwrap_err(),
        InstanceError::UnknownChain(99)
    );
}

#[test]
fn stateful_match_spans_packet_boundary() {
    let mut dpi = two_middlebox_instance();
    let f = flow(1000);
    let out1 = dpi.scan_payload(1, Some(f), b"...LONGPA").unwrap();
    assert!(positions_for(&out1, IDS).is_empty());
    let out2 = dpi.scan_payload(1, Some(f), b"TTERN...").unwrap();
    // The IDS (stateful) sees the cross-boundary match: it ends at index
    // 4 of the second packet, flow offset 9.
    assert_eq!(positions_for(&out2, IDS), vec![(1, 4)]);
    assert_eq!(out2.flow_offset, 9);
    assert!(out2.resumed);
}

#[test]
fn stateless_middlebox_never_sees_cross_boundary_matches() {
    let mut dpi = two_middlebox_instance();
    let f = flow(1001);
    dpi.scan_payload(1, Some(f), b"half of ATT").unwrap();
    let out = dpi.scan_payload(1, Some(f), b"ACK rest").unwrap();
    // IDS sees ATTACK (stateful), AV must not (§5.2's deletion rule:
    // the pattern began in the previous packet).
    assert_eq!(positions_for(&out, IDS), vec![(0, 2)]);
    assert!(positions_for(&out, AV).is_empty());
}

#[test]
fn stateless_middlebox_still_sees_matches_fully_inside_later_packets() {
    let mut dpi = two_middlebox_instance();
    let f = flow(1002);
    dpi.scan_payload(1, Some(f), b"first packet").unwrap();
    let out = dpi.scan_payload(1, Some(f), b"then VIRUS here").unwrap();
    // VIRUS is entirely within packet 2: the stateless AV gets it, at the
    // packet-local position.
    assert_eq!(positions_for(&out, AV), vec![(1, 9)]);
}

#[test]
fn flows_are_isolated() {
    let mut dpi = two_middlebox_instance();
    dpi.scan_payload(1, Some(flow(1)), b"LONGPA").unwrap();
    // A different flow must not resume the first flow's state.
    let out = dpi.scan_payload(1, Some(flow(2)), b"TTERN").unwrap();
    assert!(out.reports.is_empty());
    assert!(!out.resumed);
}

#[test]
fn stateless_chain_keeps_no_flow_state() {
    let mut dpi = two_middlebox_instance();
    let f = flow(7);
    dpi.scan_payload(2, Some(f), b"payload one").unwrap();
    // The flow arena tracks stress samples for every scanned flow (the
    // MCA² heavy-flow signal), but a stateless chain must store no scan
    // state: there is nothing to export…
    assert!(dpi.export_flow(&f).is_none());
    // …and scans never resume.
    let out = dpi.scan_payload(2, Some(f), b"payload two").unwrap();
    assert!(!out.resumed);
}

#[test]
fn stopping_condition_stateless_filters_late_matches() {
    let cfg = InstanceConfig::new()
        .with_middlebox(
            MiddleboxProfile::stateless(AV).with_stop(10),
            vec![RuleSpec::exact(b"VIRUS".to_vec())],
        )
        .with_chain(1, vec![AV]);
    let mut dpi = DpiInstance::new(cfg).unwrap();
    // Ends at index 6 (cnt 7 ≤ 10): reported.
    let out = dpi.scan_payload(1, None, b"..VIRUS...").unwrap();
    assert_eq!(positions_for(&out, AV), vec![(0, 6)]);
    // Ends at index 11 (cnt 12 > 10): filtered.
    let out = dpi.scan_payload(1, None, b".......VIRUS").unwrap();
    assert!(out.reports.is_empty());
}

#[test]
fn stopping_condition_stateful_counts_flow_bytes() {
    let cfg = InstanceConfig::new()
        .with_middlebox(
            MiddleboxProfile::stateful(IDS).with_stop(16),
            vec![RuleSpec::exact(b"DEEP".to_vec())],
        )
        .with_chain(1, vec![IDS]);
    let mut dpi = DpiInstance::new(cfg).unwrap();
    let f = flow(3);
    // Packet 1: 10 bytes, no match.
    dpi.scan_payload(1, Some(f), b"0123456789").unwrap();
    // Packet 2: DEEP ends at flow byte 10+4=14 ≤ 16 → reported.
    let out = dpi.scan_payload(1, Some(f), b"DEEPx").unwrap();
    assert_eq!(positions_for(&out, IDS), vec![(0, 3)]);
    // Packet 3: any further match is beyond the stop.
    let out = dpi.scan_payload(1, Some(f), b"..DEEP").unwrap();
    assert!(out.reports.is_empty());
}

#[test]
fn scan_length_is_most_conservative() {
    // AV stops at 8 bytes, IDS is unbounded: the whole packet must still
    // be scanned (and IDS reported), while AV is filtered.
    let cfg = InstanceConfig::new()
        .with_middlebox(
            MiddleboxProfile::stateless(IDS),
            vec![RuleSpec::exact(b"TAILPATTERN".to_vec())],
        )
        .with_middlebox(
            MiddleboxProfile::stateless(AV).with_stop(8),
            vec![RuleSpec::exact(b"TAILPATTERN".to_vec())],
        )
        .with_chain(1, vec![IDS, AV]);
    let mut dpi = DpiInstance::new(cfg).unwrap();
    let out = dpi
        .scan_payload(1, None, b"............TAILPATTERN")
        .unwrap();
    assert_eq!(out.scanned, 23);
    assert_eq!(positions_for(&out, IDS).len(), 1);
    assert!(positions_for(&out, AV).is_empty());
}

#[test]
fn all_bounded_middleboxes_stop_the_scan_early() {
    let cfg = InstanceConfig::new()
        .with_middlebox(
            MiddleboxProfile::stateless(AV).with_stop(16),
            vec![RuleSpec::exact(b"ANYTHING".to_vec())],
        )
        .with_chain(1, vec![AV]);
    let mut dpi = DpiInstance::new(cfg).unwrap();
    let big = vec![b'x'; 4096];
    let out = dpi.scan_payload(1, None, &big).unwrap();
    assert_eq!(out.scanned, 16);
}

#[test]
fn repeated_character_matches_compress_to_ranges() {
    let cfg = InstanceConfig::new()
        .with_middlebox(
            MiddleboxProfile::stateless(AV),
            vec![RuleSpec::exact(b"aaaa".to_vec())],
        )
        .with_chain(1, vec![AV]);
    let mut dpi = DpiInstance::new(cfg).unwrap();
    let out = dpi.scan_payload(1, None, b"baaaaaaaab").unwrap();
    // aaaa ends at 4,5,6,7,8 → one range record of 5.
    let report = &out.reports[0];
    assert_eq!(report.records.len(), 1);
    assert_eq!(
        report.records[0],
        MatchRecord::Range {
            pattern_id: 0,
            start: 4,
            count: 5
        }
    );
}

#[test]
fn regex_rule_fires_only_when_all_anchors_match() {
    let cfg = InstanceConfig::new()
        .with_middlebox(
            MiddleboxProfile::stateless(IDS),
            vec![
                RuleSpec::exact(b"plainpattern".to_vec()),
                RuleSpec::regex(r"headervalue\s*:\s*attackload\d+"),
            ],
        )
        .with_chain(1, vec![IDS]);
    let mut dpi = DpiInstance::new(cfg).unwrap();

    // Only one anchor present: regex must not fire (and must not even be
    // evaluated — check telemetry).
    let out = dpi
        .scan_payload(1, None, b"headervalue but nothing else")
        .unwrap();
    assert!(out.reports.is_empty());
    assert_eq!(dpi.telemetry().regex_invocations, 0);

    // Both anchors present but the full expression fails.
    let out = dpi
        .scan_payload(1, None, b"attackload headervalue mismatch")
        .unwrap();
    assert!(out.reports.is_empty());
    assert_eq!(dpi.telemetry().regex_invocations, 1);

    // Full match: rule id 1 reported at the regex end position.
    let out = dpi
        .scan_payload(1, None, b"xx headervalue : attackload77 yy")
        .unwrap();
    let hits = positions_for(&out, IDS);
    assert_eq!(hits.len(), 1);
    assert_eq!(hits[0].0, 1); // rule id 1
    assert_eq!(dpi.telemetry().regex_invocations, 2);
}

#[test]
fn anchorless_regex_runs_on_parallel_path() {
    let cfg = InstanceConfig::new()
        .with_middlebox(
            MiddleboxProfile::stateless(IDS),
            vec![RuleSpec::regex(r"(?i)evilstring")],
        )
        .with_chain(1, vec![IDS]);
    let mut dpi = DpiInstance::new(cfg).unwrap();
    let out = dpi
        .scan_payload(1, None, b"prefix EVILstring suffix")
        .unwrap();
    assert_eq!(positions_for(&out, IDS).len(), 1);
    assert!(dpi.telemetry().parallel_regex_evaluations >= 1);
    assert_eq!(dpi.telemetry().regex_invocations, 0);
}

#[test]
fn bad_regex_is_a_build_error() {
    let cfg = InstanceConfig::new()
        .with_middlebox(
            MiddleboxProfile::stateless(IDS),
            vec![RuleSpec::regex(r"broken[")],
        )
        .with_chain(1, vec![IDS]);
    match DpiInstance::new(cfg) {
        Err(InstanceError::BadRegex {
            middlebox, rule, ..
        }) => {
            assert_eq!(middlebox, IDS);
            assert_eq!(rule, 0);
        }
        other => panic!("expected BadRegex, got {other:?}"),
    }
}

#[test]
fn chain_with_unregistered_middlebox_is_a_build_error() {
    let cfg = InstanceConfig::new().with_chain(1, vec![MiddleboxId(42)]);
    assert!(matches!(
        DpiInstance::new(cfg),
        Err(InstanceError::UnknownMiddlebox { .. })
    ));
}

#[test]
fn duplicate_middlebox_is_a_build_error() {
    let cfg = InstanceConfig::new()
        .with_middlebox(MiddleboxProfile::stateless(IDS), vec![])
        .with_middlebox(MiddleboxProfile::stateless(IDS), vec![]);
    assert!(matches!(
        DpiInstance::new(cfg),
        Err(InstanceError::DuplicateMiddlebox(_))
    ));
}

#[test]
fn inspect_marks_and_produces_result_packet() {
    let mut dpi = two_middlebox_instance();
    let f = flow(50);
    let mut pkt = Packet::tcp(
        MacAddr::local(1),
        MacAddr::local(2),
        f,
        0,
        b"an ATTACK in transit".to_vec(),
    );
    pkt.push_chain_tag(1).unwrap();
    let result = dpi.inspect(&mut pkt).unwrap().expect("matches expected");
    assert!(pkt.has_match_mark());
    assert_eq!(result.flow, f);
    assert_eq!(result.reports.len(), 2); // IDS and AV
                                         // Clean packet: no result, no mark.
    let mut clean = Packet::tcp(
        MacAddr::local(1),
        MacAddr::local(2),
        flow(51),
        0,
        b"nothing to see".to_vec(),
    );
    clean.push_chain_tag(1).unwrap();
    assert!(dpi.inspect(&mut clean).unwrap().is_none());
    assert!(!clean.has_match_mark());
}

#[test]
fn untagged_packet_is_rejected() {
    let mut dpi = two_middlebox_instance();
    let mut pkt = Packet::tcp(
        MacAddr::local(1),
        MacAddr::local(2),
        flow(61),
        0,
        b"data".to_vec(),
    );
    assert_eq!(dpi.inspect(&mut pkt).unwrap_err(), InstanceError::Untagged);
}

#[test]
fn flow_migration_resumes_scanning_on_target_instance() {
    let mut src = two_middlebox_instance();
    let mut dst = two_middlebox_instance();
    let f = flow(70);
    src.scan_payload(1, Some(f), b"...LONGPA").unwrap();
    let exported = src.export_flow(&f).expect("flow tracked");
    assert_eq!(src.tracked_flows(), 0);
    dst.import_flow(f, exported);
    let out = dst.scan_payload(1, Some(f), b"TTERN").unwrap();
    assert_eq!(positions_for(&out, IDS), vec![(1, 4)]);
    assert_eq!(out.flow_offset, 9);
}

#[test]
fn telemetry_counts_packets_bytes_matches() {
    let mut dpi = two_middlebox_instance();
    dpi.scan_payload(1, None, b"clean payload").unwrap();
    dpi.scan_payload(1, None, b"an ATTACK here").unwrap();
    let t = dpi.telemetry();
    assert_eq!(t.packets, 2);
    assert_eq!(t.bytes, 13 + 14);
    assert_eq!(t.packets_with_matches, 1);
    // ATTACK reported to two middleboxes = 2 match occurrences.
    assert_eq!(t.matches, 2);
}

#[test]
fn heavy_traffic_raises_deep_ratio() {
    use dpi_traffic::{heavy_payload, patterns::snort_like, TraceConfig};
    let pats = snort_like(500, 1);
    let cfg = InstanceConfig::new()
        .with_middlebox(MiddleboxProfile::stateless(IDS), RuleSpec::exact_set(&pats))
        .with_chain(1, vec![IDS]);

    let mut benign_dpi = DpiInstance::new(cfg.clone()).unwrap();
    for p in TraceConfig::default().generate(&[]) {
        benign_dpi.scan_payload(1, None, &p).unwrap();
    }
    let benign_ratio = benign_dpi.telemetry().deep_ratio();

    let mut attacked_dpi = DpiInstance::new(cfg).unwrap();
    for i in 0..200 {
        let hp = heavy_payload(&pats, 1200, i);
        attacked_dpi.scan_payload(1, None, &hp).unwrap();
    }
    let attack_ratio = attacked_dpi.telemetry().deep_ratio();

    assert!(
        attack_ratio > benign_ratio + 0.3,
        "attack {attack_ratio:.3} vs benign {benign_ratio:.3}: signal too weak"
    );
}

// Match positions are 16-bit in reports (§6.5): a scan unit holds at most
// `ScanEngine::MAX_UNIT_BYTES` of them. The parent of this change stored
// `i as u16` and reported a match ending at byte 69,007 at position 3,471.

/// `len` filler bytes with `pattern` ending at index `end` (inclusive).
fn filler_with(len: usize, pattern: &[u8], end: usize) -> Vec<u8> {
    let mut bytes = vec![b'.'; len];
    bytes[end + 1 - pattern.len()..=end].copy_from_slice(pattern);
    bytes
}

#[test]
fn the_longest_scan_input_reports_its_last_position_exactly() {
    let max = ScanEngine::MAX_UNIT_BYTES;
    assert_eq!(max, 65_536);
    let mut dpi = two_middlebox_instance();
    let payload = filler_with(max, b"ATTACK", max - 1);
    let out = dpi.scan_payload(1, Some(flow(70)), &payload).unwrap();
    assert_eq!(positions_for(&out, IDS), vec![(0, 65_535)]);
    assert_eq!(positions_for(&out, AV), vec![(0, 65_535)]);
    // The same length is accepted as one TCP segment.
    let outs = dpi.scan_tcp_segment(1, flow(71), 0, &payload).unwrap();
    assert_eq!(outs.len(), 1);
    assert_eq!(positions_for(&outs[0], IDS), vec![(0, 65_535)]);
}

#[test]
fn a_scan_input_one_byte_too_long_is_rejected_by_every_entry_point() {
    let len = ScanEngine::MAX_UNIT_BYTES + 1;
    let mut dpi = two_middlebox_instance();
    // A match that would have wrapped to position 0.
    let payload = filler_with(len, b"ATTACK", len - 1);
    let rejected = InstanceError::OversizedPayload { len };
    let scanned_before = dpi.telemetry().packets;

    assert_eq!(
        dpi.scan_payload(1, Some(flow(72)), &payload).unwrap_err(),
        rejected
    );
    assert_eq!(
        dpi.scan_tcp_segment(1, flow(73), 0, &payload).unwrap_err(),
        rejected
    );
    let mut pkt = Packet::tcp(MacAddr::local(1), MacAddr::local(2), flow(74), 0, payload);
    pkt.push_chain_tag(1).unwrap();
    assert_eq!(dpi.inspect(&mut pkt).unwrap_err(), rejected);
    assert!(!pkt.has_match_mark());

    assert_eq!(
        dpi.telemetry().packets,
        scanned_before,
        "nothing was scanned"
    );
    assert_eq!(dpi.tracked_flows(), 0, "and no flow state was created");
}

#[test]
fn an_oversized_decoded_l7_unit_is_scanned_in_addressable_pieces() {
    use dpi_core::{L7Policy, L7Protocol, ProtocolPolicy};
    let max = ScanEngine::MAX_UNIT_BYTES;
    // A gzip body inflates to one 100,000 B unit once the HTTP size limit
    // allows it. One pattern sits wholly in the second piece, one
    // straddles the cut; the IDS is stateful and sees both.
    let mut body = filler_with(100_000, b"ATTACK", 69_999);
    body[max - 4..max + 7].copy_from_slice(b"LONGPATTERN");
    let gz = dpi_core::decompress::gzip(&body);
    let mut stream = format!(
        "POST /upload HTTP/1.1\r\nHost: a\r\nContent-Encoding: gzip\r\nContent-Length: {}\r\n\r\n",
        gz.len()
    )
    .into_bytes();
    stream.extend_from_slice(&gz);

    let policy = L7Policy::default().with(L7Protocol::Http1, ProtocolPolicy::intercept(1 << 20));
    let cfg = InstanceConfig::new()
        .with_middlebox(
            MiddleboxProfile::stateful(IDS),
            vec![
                RuleSpec::exact(b"ATTACK".to_vec()),
                RuleSpec::exact(b"LONGPATTERN".to_vec()),
            ],
        )
        .with_chain(1, vec![IDS])
        .with_l7_policy(policy);
    let mut dpi = DpiInstance::new(cfg).unwrap();
    let mut outs = Vec::new();
    for (i, seg) in stream.chunks(1400).enumerate() {
        outs.extend(
            dpi.scan_tcp_segment(1, flow(75), (i * 1400) as u32, seg)
                .unwrap(),
        );
    }
    let body_outs: Vec<_> = outs
        .iter()
        .filter(|o| o.l7.is_some_and(|c| c.field == dpi_core::L7Field::Body))
        .collect();
    assert_eq!(body_outs.len(), 2, "one output per piece");
    assert_eq!(
        (body_outs[0].scanned, body_outs[1].scanned),
        (max, 100_000 - max)
    );
    assert_eq!(body_outs[1].flow_offset, max as u64);
    assert!(positions_for(body_outs[0], IDS).is_empty());
    // Piece-relative positions: LONGPATTERN ends at body index 65,542,
    // ATTACK at 69,999.
    assert_eq!(
        positions_for(body_outs[1], IDS),
        vec![(0, (69_999 - max) as u16), (1, 6)]
    );
}

/// On every route through the engine — raw or L7, open, quarantined or
/// blocked — `inspect` leaves the expected mark on the packet and carries
/// the expected reports.
#[test]
fn inspect_marks_and_reports_on_every_route() {
    use dpi_core::{ConflictPolicy, L7Action, L7Policy, L7Protocol, ProtocolPolicy};

    fn ids_config() -> InstanceConfig {
        InstanceConfig::new()
            .with_middlebox(
                MiddleboxProfile::stateful(IDS),
                vec![RuleSpec::exact(b"ATTACK".to_vec())],
            )
            .with_chain(1, vec![IDS])
    }
    fn http(action: L7Action) -> L7Policy {
        L7Policy::default().with(
            L7Protocol::Http1,
            ProtocolPolicy::intercept(1 << 16).with_action(action),
        )
    }
    fn nothing(_: &mut DpiInstance) {}
    /// A divergent retransmission quarantines `flow(90)` under RejectFlow.
    fn quarantine(dpi: &mut DpiInstance) {
        dpi.open_tcp_flow(flow(90), 1000);
        dpi.scan_tcp_segment(1, flow(90), 1000, b"0123456789abcdef")
            .unwrap();
        dpi.scan_tcp_segment(1, flow(90), 1000, b"fedcba9876543210")
            .unwrap();
        assert!(dpi.flow_quarantined(&flow(90)));
    }

    struct Case {
        name: &'static str,
        config: InstanceConfig,
        setup: fn(&mut DpiInstance),
        seq: u32,
        payload: &'static [u8],
        marked: bool,
        reports: usize,
    }
    let request: &[u8] = b"GET /ATTACK HTTP/1.1\r\nHost: a\r\n\r\n";
    let cases = [
        Case {
            name: "raw match",
            config: ids_config(),
            setup: nothing,
            seq: 0,
            payload: b"an ATTACK in transit",
            marked: true,
            reports: 1,
        },
        Case {
            name: "raw clean",
            config: ids_config(),
            setup: nothing,
            seq: 0,
            payload: b"nothing to see",
            marked: false,
            reports: 0,
        },
        Case {
            name: "raw quarantined",
            config: ids_config().with_conflict_policy(ConflictPolicy::RejectFlow),
            setup: quarantine,
            seq: 2000,
            payload: b"an ATTACK in transit",
            marked: true,
            reports: 0,
        },
        Case {
            name: "L7 match",
            config: ids_config().with_l7_policy(http(L7Action::Intercept)),
            setup: nothing,
            seq: 0,
            payload: request,
            marked: true,
            reports: 1,
        },
        Case {
            name: "L7 Block",
            config: ids_config().with_l7_policy(http(L7Action::Block)),
            setup: nothing,
            seq: 0,
            payload: request,
            marked: true,
            reports: 0,
        },
    ];

    for case in cases {
        let mut dpi = DpiInstance::new(case.config).unwrap();
        (case.setup)(&mut dpi);
        let mut pkt = Packet::tcp(
            MacAddr::local(1),
            MacAddr::local(2),
            flow(90),
            case.seq,
            case.payload.to_vec(),
        );
        pkt.push_chain_tag(1).unwrap();
        let reports = dpi.inspect(&mut pkt).unwrap().map(|r| r.reports);
        assert_eq!(pkt.has_match_mark(), case.marked, "{}: mark", case.name);
        assert_eq!(
            reports.unwrap_or_default().len(),
            case.reports,
            "{}: reports",
            case.name
        );
    }
}
