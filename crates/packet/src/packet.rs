//! The composite packet used by the simulated network.
//!
//! A [`Packet`] owns a full layer stack — Ethernet, optional VLAN tags
//! (outermost first) and a body — and round-trips losslessly to wire
//! bytes.
//! The simulated switches forward `Packet` values; the DPI service and
//! middleboxes read and rewrite their layers through typed accessors
//! instead of poking at offsets.

use crate::ethernet::{EtherType, EthernetHeader};
use crate::flow::FlowKey;
use crate::ipv4::{Ecn, IpProtocol, Ipv4Header, IPV4_HEADER_LEN};
use crate::l4::{fill_l4_checksum, L4Header, TcpHeader, UdpHeader};
use crate::mac::MacAddr;
use crate::report::ResultPacket;
use crate::vlan::VlanTag;
use crate::{ParseError, Result};
use serde::{Deserialize, Serialize};
use std::net::Ipv4Addr;

/// What follows the L2 (and tag) layers.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum PacketBody {
    /// A regular IPv4 packet with a transport header and payload — the
    /// traffic the DPI service scans.
    Ipv4 {
        /// Network header.
        header: Ipv4Header,
        /// Transport header.
        l4: L4Header,
        /// Application payload (the bytes DPI inspects).
        payload: Vec<u8>,
    },
    /// A dedicated DPI result packet (§4.2, option 3).
    Result(ResultPacket),
    /// An unparsed body under an EtherType the system does not interpret.
    Raw(Vec<u8>),
}

/// A full simulated packet.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Packet {
    /// Ethernet header. Its `ethertype` field is recomputed on
    /// serialization from the layers actually present, so it cannot drift.
    pub eth: EthernetHeader,
    /// 802.1Q tags, outermost first. The TSA pushes/pops these (§4.1).
    pub vlan: Vec<VlanTag>,
    /// The packet body.
    pub body: PacketBody,
}

impl Packet {
    /// Builds a TCP data packet for `flow` whose first payload byte has
    /// sequence number `seq`.
    pub fn tcp(
        src_mac: MacAddr,
        dst_mac: MacAddr,
        flow: FlowKey,
        seq: u32,
        payload: Vec<u8>,
    ) -> Packet {
        let l4 = L4Header::Tcp(TcpHeader::new(flow.src_port, flow.dst_port, seq));
        Packet::data(src_mac, dst_mac, flow, l4, payload)
    }

    /// Builds a UDP data packet for `flow`.
    pub fn udp(src_mac: MacAddr, dst_mac: MacAddr, flow: FlowKey, payload: Vec<u8>) -> Packet {
        let l4 = L4Header::Udp(UdpHeader::new(flow.src_port, flow.dst_port, payload.len()));
        Packet::data(src_mac, dst_mac, flow, l4, payload)
    }

    fn data(
        src_mac: MacAddr,
        dst_mac: MacAddr,
        flow: FlowKey,
        l4: L4Header,
        payload: Vec<u8>,
    ) -> Packet {
        let header = Ipv4Header::new(
            flow.src_ip,
            flow.dst_ip,
            l4.protocol(),
            l4.header_len() + payload.len(),
        );
        Packet {
            eth: EthernetHeader::new(dst_mac, src_mac, EtherType::Ipv4),
            vlan: Vec::new(),
            body: PacketBody::Ipv4 {
                header,
                l4,
                payload,
            },
        }
    }

    /// Wraps a [`ResultPacket`] for transmission.
    pub fn result(src_mac: MacAddr, dst_mac: MacAddr, result: ResultPacket) -> Packet {
        Packet {
            eth: EthernetHeader::new(dst_mac, src_mac, EtherType::ResultPacket),
            vlan: Vec::new(),
            body: PacketBody::Result(result),
        }
    }

    /// The 5-tuple of an IPv4 body, or of the flow a result packet refers
    /// to; `None` for raw bodies.
    pub fn flow_key(&self) -> Option<FlowKey> {
        match &self.body {
            PacketBody::Ipv4 { header, l4, .. } => Some(FlowKey {
                src_ip: header.src,
                dst_ip: header.dst,
                protocol: header.protocol,
                src_port: l4.src_port(),
                dst_port: l4.dst_port(),
            }),
            PacketBody::Result(r) => Some(r.flow),
            PacketBody::Raw(_) => None,
        }
    }

    /// The scannable application payload, if any.
    pub fn payload(&self) -> Option<&[u8]> {
        match &self.body {
            PacketBody::Ipv4 { payload, .. } => Some(payload),
            _ => None,
        }
    }

    /// The TCP sequence number of the first payload byte, for TCP
    /// bodies; `None` for UDP, result and raw packets.
    pub fn tcp_seq(&self) -> Option<u32> {
        match &self.body {
            PacketBody::Ipv4 {
                l4: L4Header::Tcp(t),
                ..
            } => Some(t.seq),
            _ => None,
        }
    }

    /// Pushes a VLAN tag carrying a policy-chain identifier (outermost).
    pub fn push_chain_tag(&mut self, chain_id: u16) -> Result<()> {
        let tag = VlanTag::for_chain(chain_id)?;
        self.vlan.insert(0, tag);
        Ok(())
    }

    /// Pops the outermost VLAN tag, returning its VID.
    pub fn pop_chain_tag(&mut self) -> Option<u16> {
        if self.vlan.is_empty() {
            None
        } else {
            Some(self.vlan.remove(0).vid)
        }
    }

    /// The policy-chain id of the outermost VLAN tag, if tagged.
    pub fn chain_tag(&self) -> Option<u16> {
        self.vlan.first().map(|t| t.vid)
    }

    /// Marks the packet as "has DPI matches" via the ECN field (§6.1).
    /// No-op for non-IPv4 bodies.
    pub fn mark_matches(&mut self) {
        if let PacketBody::Ipv4 { header, .. } = &mut self.body {
            header.ecn = Ecn::Ect0;
        }
    }

    /// Whether the DPI service marked this packet (§6.1).
    pub fn has_match_mark(&self) -> bool {
        matches!(
            &self.body,
            PacketBody::Ipv4 {
                header: Ipv4Header { ecn: Ecn::Ect0, .. },
                ..
            }
        )
    }

    /// Marks the packet ECN-CE: the DPI service forwarded it under
    /// overload (possibly unscanned). §6.1 reserves the ECN field for
    /// in-band DPI-side signals; CE (`11`) is the congestion codepoint,
    /// distinct from the `Ect0` match mark. No-op for non-IPv4 bodies.
    pub fn mark_congestion(&mut self) {
        if let PacketBody::Ipv4 { header, .. } = &mut self.body {
            header.ecn = Ecn::Ce;
        }
    }

    /// Whether the DPI service CE-marked this packet under overload.
    pub fn has_ce_mark(&self) -> bool {
        matches!(
            &self.body,
            PacketBody::Ipv4 {
                header: Ipv4Header { ecn: Ecn::Ce, .. },
                ..
            }
        )
    }

    /// Total length of the packet on the wire.
    pub fn wire_len(&self) -> usize {
        crate::ethernet::ETHERNET_HEADER_LEN
            + self.vlan.len() * crate::vlan::VLAN_TAG_LEN
            + match &self.body {
                PacketBody::Ipv4 { header, .. } => usize::from(header.total_len),
                PacketBody::Result(r) => r.wire_size(),
                PacketBody::Raw(b) => b.len(),
            }
    }

    /// Serializes the packet. EtherType chaining, IPv4 `total_len` and all
    /// checksums are recomputed so the wire image is always self-consistent
    /// even if callers mutated layers directly.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.wire_len());

        // Decide the ethertype chain inner-to-outer.
        let body_type = match &self.body {
            PacketBody::Ipv4 { .. } => EtherType::Ipv4,
            PacketBody::Result(_) => EtherType::ResultPacket,
            PacketBody::Raw(_) => self.innermost_declared_type(),
        };
        let mut eth = self.eth;
        eth.ethertype = if self.vlan.is_empty() {
            body_type
        } else {
            EtherType::Vlan
        };
        eth.write(&mut out);

        for (i, tag) in self.vlan.iter().enumerate() {
            let inner = if i + 1 < self.vlan.len() {
                EtherType::Vlan
            } else {
                body_type
            };
            tag.write(inner, &mut out);
        }

        match &self.body {
            PacketBody::Ipv4 {
                header,
                l4,
                payload,
            } => {
                let mut h = *header;
                h.total_len = (IPV4_HEADER_LEN + l4.header_len() + payload.len()) as u16;
                h.write(&mut out);
                let seg_start = out.len();
                match l4 {
                    L4Header::Tcp(t) => t.write(&mut out),
                    L4Header::Udp(u) => {
                        let mut u = *u;
                        u.length = (crate::l4::UDP_HEADER_LEN + payload.len()) as u16;
                        u.write(&mut out)
                    }
                }
                out.extend_from_slice(payload);
                let (src, dst, proto) = (h.src.octets(), h.dst.octets(), h.protocol);
                fill_l4_checksum(src, dst, proto, &mut out[seg_start..]);
            }
            PacketBody::Result(r) => r.write(&mut out),
            PacketBody::Raw(b) => out.extend_from_slice(b),
        }
        out
    }

    /// For raw bodies, the ethertype recorded at construction/parse time.
    fn innermost_declared_type(&self) -> EtherType {
        match self.eth.ethertype {
            // Tag types are regenerated from the layer stack; a raw body
            // under a tag type has lost its original ethertype.
            EtherType::Vlan => EtherType::Other(0xffff),
            other => other,
        }
    }

    /// Parses a full packet from wire bytes.
    pub fn parse(buf: &[u8]) -> Result<Packet> {
        let (eth, mut off) = EthernetHeader::parse(buf)?;
        let mut ethertype = eth.ethertype;

        let mut vlan = Vec::new();
        while ethertype == EtherType::Vlan {
            let (tag, inner, used) = VlanTag::parse(&buf[off..])?;
            off += used;
            ethertype = inner;
            vlan.push(tag);
            if vlan.len() > 8 {
                return Err(ParseError::Unsupported {
                    layer: "vlan",
                    what: "more than 8 stacked tags",
                    value: vlan.len() as u64,
                });
            }
        }

        let body = match ethertype {
            EtherType::Ipv4 => {
                let (header, used) = Ipv4Header::parse(&buf[off..])?;
                let ip_start = off;
                off += used;
                let total = usize::from(header.total_len);
                if ip_start + total > buf.len() {
                    return Err(ParseError::BadLength {
                        layer: "ipv4",
                        claimed: total,
                        max: buf.len() - ip_start,
                    });
                }
                let l4_end = ip_start + total;
                let (l4, l4_used) = match header.protocol {
                    IpProtocol::Tcp => {
                        let (t, u) = TcpHeader::parse(&buf[off..l4_end])?;
                        (L4Header::Tcp(t), u)
                    }
                    IpProtocol::Udp => {
                        let (u_hdr, u) = UdpHeader::parse(&buf[off..l4_end])?;
                        (L4Header::Udp(u_hdr), u)
                    }
                    IpProtocol::Other(v) => {
                        return Err(ParseError::Unsupported {
                            layer: "ipv4",
                            what: "transport protocol",
                            value: u64::from(v),
                        })
                    }
                };
                off += l4_used;
                PacketBody::Ipv4 {
                    header,
                    l4,
                    payload: buf[off..l4_end].to_vec(),
                }
            }
            EtherType::ResultPacket => {
                let (r, _) = ResultPacket::parse(&buf[off..])?;
                PacketBody::Result(r)
            }
            _ => PacketBody::Raw(buf[off..].to_vec()),
        };

        // Normalize the stored ethertype to the body type: serialization
        // regenerates the outer chaining anyway, and this keeps
        // parse(to_bytes(p)) == p regardless of the tag stack.
        let mut eth = eth;
        eth.ethertype = match &body {
            PacketBody::Ipv4 { .. } => EtherType::Ipv4,
            PacketBody::Result(_) => EtherType::ResultPacket,
            PacketBody::Raw(_) => ethertype,
        };
        Ok(Packet { eth, vlan, body })
    }
}

/// A convenience constructor for flow keys in tests and examples.
pub fn flow(
    src: [u8; 4],
    src_port: u16,
    dst: [u8; 4],
    dst_port: u16,
    protocol: IpProtocol,
) -> FlowKey {
    FlowKey {
        src_ip: Ipv4Addr::from(src),
        dst_ip: Ipv4Addr::from(dst),
        protocol,
        src_port,
        dst_port,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tcp_flow() -> FlowKey {
        flow([10, 0, 0, 1], 40000, [10, 0, 0, 2], 80, IpProtocol::Tcp)
    }

    fn sample_packet() -> Packet {
        Packet::tcp(
            MacAddr::local(1),
            MacAddr::local(2),
            tcp_flow(),
            1000,
            b"GET /index.html HTTP/1.1\r\nHost: example.org\r\n\r\n".to_vec(),
        )
    }

    #[test]
    fn plain_tcp_packet_round_trips() {
        let p = sample_packet();
        let bytes = p.to_bytes();
        assert_eq!(bytes.len(), p.wire_len());
        let parsed = Packet::parse(&bytes).unwrap();
        assert_eq!(parsed, p);
        assert_eq!(parsed.flow_key(), Some(tcp_flow()));
    }

    #[test]
    fn udp_packet_round_trips() {
        let f = flow([1, 2, 3, 4], 53, [5, 6, 7, 8], 5353, IpProtocol::Udp);
        let p = Packet::udp(MacAddr::local(3), MacAddr::local(4), f, b"dns?".to_vec());
        let parsed = Packet::parse(&p.to_bytes()).unwrap();
        assert_eq!(parsed, p);
    }

    #[test]
    fn chain_tag_push_pop_round_trips() {
        let mut p = sample_packet();
        p.push_chain_tag(17).unwrap();
        p.push_chain_tag(99).unwrap();
        let parsed = Packet::parse(&p.to_bytes()).unwrap();
        assert_eq!(parsed.chain_tag(), Some(99));
        let mut parsed = parsed;
        assert_eq!(parsed.pop_chain_tag(), Some(99));
        assert_eq!(parsed.pop_chain_tag(), Some(17));
        assert_eq!(parsed.pop_chain_tag(), None);
    }

    #[test]
    fn ecn_match_mark_survives_round_trip() {
        let mut p = sample_packet();
        assert!(!p.has_match_mark());
        p.mark_matches();
        let parsed = Packet::parse(&p.to_bytes()).unwrap();
        assert!(parsed.has_match_mark());
    }

    #[test]
    fn ecn_ce_mark_survives_round_trip_and_is_distinct() {
        let mut p = sample_packet();
        assert!(!p.has_ce_mark());
        p.mark_congestion();
        assert!(p.has_ce_mark());
        // CE is not the match mark and vice versa.
        assert!(!p.has_match_mark());
        let parsed = Packet::parse(&p.to_bytes()).unwrap();
        assert!(parsed.has_ce_mark());
        let mut q = sample_packet();
        q.mark_matches();
        assert!(!q.has_ce_mark());
    }

    #[test]
    fn packet_stays_within_its_size_budget() {
        // Moved by value several times per delivery; 104 is Ethernet, the
        // VLAN tag stack and the body, with no room for another carrier.
        assert!(std::mem::size_of::<Packet>() <= 104);
    }

    #[test]
    fn uninterpreted_ethertypes_parse_as_raw() {
        // MPLS and NSH frames are not result carriers here.
        for ethertype in [0x8847, 0x894f] {
            let mut bytes = sample_packet().to_bytes();
            bytes[12..14].copy_from_slice(&u16::to_be_bytes(ethertype));
            let parsed = Packet::parse(&bytes).unwrap();
            assert!(matches!(parsed.body, PacketBody::Raw(_)));
            assert_eq!(parsed.to_bytes(), bytes);
        }
    }

    #[test]
    fn result_packet_body_round_trips() {
        let rp = ResultPacket {
            packet_id: 7,
            generation: 1,
            flow: tcp_flow(),
            flow_offset: 0,
            reports: vec![],
        };
        let p = Packet::result(MacAddr::local(9), MacAddr::local(10), rp.clone());
        let parsed = Packet::parse(&p.to_bytes()).unwrap();
        match parsed.body {
            PacketBody::Result(r) => assert_eq!(r, rp),
            other => panic!("expected result body, got {other:?}"),
        }
    }

    #[test]
    fn vlan_bomb_is_rejected() {
        let mut p = sample_packet();
        for i in 0..9 {
            p.push_chain_tag(i).unwrap();
        }
        assert!(Packet::parse(&p.to_bytes()).is_err());
    }

    #[test]
    fn truncated_ipv4_payload_is_rejected() {
        let p = sample_packet();
        let bytes = p.to_bytes();
        assert!(Packet::parse(&bytes[..bytes.len() - 4]).is_err());
    }

    #[test]
    fn ethertype_is_regenerated_consistently() {
        // Even if a caller leaves a stale ethertype, serialization fixes it.
        let mut p = sample_packet();
        p.eth.ethertype = EtherType::ResultPacket; // stale lie
        let parsed = Packet::parse(&p.to_bytes()).unwrap();
        assert!(matches!(parsed.body, PacketBody::Ipv4 { .. }));
    }
}
