//! Robustness properties of the packet layer: parsers over *arbitrary*
//! bytes must return errors, never panic — a DPI service is exactly the
//! kind of component that gets fed hostile input all day — and
//! serialization must round-trip structurally valid packets.

use dpi_packet::ipv4::IpProtocol;
use dpi_packet::packet::{flow, PacketBody};
use dpi_packet::report::{MatchRecord, MiddleboxReport, ResultPacket};
use dpi_packet::{MacAddr, Packet};
use proptest::prelude::*;

fn arbitrary_records() -> impl Strategy<Value = Vec<MatchRecord>> {
    prop::collection::vec(
        prop_oneof![
            (0u16..0x8000, any::<u16>()).prop_map(|(pattern_id, position)| {
                MatchRecord::Single {
                    pattern_id,
                    position,
                }
            }),
            (0u16..0x8000, any::<u16>(), 1u16..1000).prop_map(|(pattern_id, start, count)| {
                MatchRecord::Range {
                    pattern_id,
                    start,
                    count,
                }
            }),
        ],
        0..20,
    )
}

fn arbitrary_reports() -> impl Strategy<Value = Vec<MiddleboxReport>> {
    prop::collection::vec(
        (any::<u16>(), arbitrary_records()).prop_map(|(middlebox_id, records)| MiddleboxReport {
            middlebox_id,
            records,
        }),
        0..6,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn packet_parse_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..512)) {
        let _ = Packet::parse(&bytes);
    }

    #[test]
    fn result_packet_parse_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        let _ = ResultPacket::parse(&bytes);
    }

    #[test]
    fn truncation_never_panics(payload in prop::collection::vec(any::<u8>(), 0..200), cut in 0usize..100) {
        // Valid packet, then cut anywhere: must parse or error, not panic.
        let f = flow([1, 2, 3, 4], 80, [5, 6, 7, 8], 443, IpProtocol::Tcp);
        let mut p = Packet::tcp(MacAddr::local(1), MacAddr::local(2), f, 0, payload);
        p.push_chain_tag(9).unwrap();
        let bytes = p.to_bytes();
        let cut = cut.min(bytes.len());
        let _ = Packet::parse(&bytes[..cut]);
    }

    #[test]
    fn bitflip_never_panics(payload in prop::collection::vec(any::<u8>(), 1..200), pos in any::<prop::sample::Index>(), bit in 0u8..8) {
        let f = flow([9, 8, 7, 6], 1234, [1, 2, 3, 4], 80, IpProtocol::Udp);
        let p = Packet::udp(MacAddr::local(3), MacAddr::local(4), f, payload);
        let mut bytes = p.to_bytes();
        let i = pos.index(bytes.len());
        bytes[i] ^= 1 << bit;
        let _ = Packet::parse(&bytes);
    }

    #[test]
    fn tagged_packet_round_trips(payload in prop::collection::vec(any::<u8>(), 0..300),
                                 tags in prop::collection::vec(0u16..0xfff, 0..4),
                                 sport in 1u16..u16::MAX, dport in 1u16..u16::MAX) {
        let f = flow([10, 0, 0, 1], sport, [10, 0, 0, 2], dport, IpProtocol::Tcp);
        let mut p = Packet::tcp(MacAddr::local(1), MacAddr::local(2), f, 7, payload);
        for t in &tags {
            // 0xfff is reserved; strategy stays below it.
            p.push_chain_tag(*t).unwrap();
        }
        let parsed = Packet::parse(&p.to_bytes()).unwrap();
        prop_assert_eq!(parsed, p);
    }

    #[test]
    fn result_packet_round_trips(reports in arbitrary_reports(), packet_id in any::<u32>(),
                                 generation in any::<u32>(), off in any::<u64>()) {
        let rp = ResultPacket {
            packet_id,
            generation,
            flow: flow([1, 1, 1, 1], 1, [2, 2, 2, 2], 2, IpProtocol::Tcp),
            flow_offset: off,
            reports,
        };
        let bytes = rp.to_bytes();
        prop_assert_eq!(bytes.len(), rp.wire_size());
        let (parsed, used) = ResultPacket::parse(&bytes).unwrap();
        prop_assert_eq!(used, bytes.len());
        prop_assert_eq!(parsed, rp);
    }

    #[test]
    fn wire_len_is_exact(payload in prop::collection::vec(any::<u8>(), 0..300), tag in prop::option::of(0u16..0xfff)) {
        let f = flow([10, 0, 0, 1], 5, [10, 0, 0, 2], 6, IpProtocol::Tcp);
        let mut p = Packet::tcp(MacAddr::local(1), MacAddr::local(2), f, 0, payload);
        if let Some(t) = tag {
            p.push_chain_tag(t).unwrap();
        }
        prop_assert_eq!(p.to_bytes().len(), p.wire_len());
    }

    #[test]
    fn parse_of_serialized_is_structurally_ipv4(payload in prop::collection::vec(any::<u8>(), 0..100)) {
        let f = flow([1, 2, 3, 4], 10, [4, 3, 2, 1], 20, IpProtocol::Udp);
        let p = Packet::udp(MacAddr::local(5), MacAddr::local(6), f, payload.clone());
        match Packet::parse(&p.to_bytes()).unwrap().body {
            PacketBody::Ipv4 { payload: got, .. } => prop_assert_eq!(got, payload),
            other => prop_assert!(false, "unexpected body {:?}", other),
        }
    }
}
