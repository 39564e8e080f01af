//! Ethernet II framing.

use crate::mac::MacAddr;
use crate::{need, ParseError, Result};
use serde::{Deserialize, Serialize};

/// Length of an Ethernet II header without tags.
pub const ETHERNET_HEADER_LEN: usize = 14;

/// EtherType values used by the system.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum EtherType {
    /// IPv4 (`0x0800`).
    Ipv4,
    /// 802.1Q VLAN tag (`0x8100`) — used by the TSA to encode policy-chain
    /// identifiers (§4.1).
    Vlan,
    /// Dedicated DPI result packet (`0x88b5`, IEEE local experimental 1) —
    /// option 3 of §4.2 and the prototype's wire format.
    ResultPacket,
    /// Anything else, preserved verbatim.
    Other(u16),
}

impl EtherType {
    /// The on-wire 16-bit value.
    pub fn to_u16(self) -> u16 {
        match self {
            EtherType::Ipv4 => 0x0800,
            EtherType::Vlan => 0x8100,
            EtherType::ResultPacket => 0x88b5,
            EtherType::Other(v) => v,
        }
    }

    /// Decodes the on-wire value.
    pub fn from_u16(v: u16) -> EtherType {
        match v {
            0x0800 => EtherType::Ipv4,
            0x8100 => EtherType::Vlan,
            0x88b5 => EtherType::ResultPacket,
            other => EtherType::Other(other),
        }
    }
}

/// An Ethernet II header (no FCS; the simulator does not model bit errors).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct EthernetHeader {
    /// Destination MAC address.
    pub dst: MacAddr,
    /// Source MAC address.
    pub src: MacAddr,
    /// EtherType of the payload that follows (possibly a VLAN tag).
    pub ethertype: EtherType,
}

impl EthernetHeader {
    /// Builds a header.
    pub fn new(dst: MacAddr, src: MacAddr, ethertype: EtherType) -> EthernetHeader {
        EthernetHeader {
            dst,
            src,
            ethertype,
        }
    }

    /// Parses a header from the start of `buf`, returning it together with
    /// the number of bytes consumed.
    pub fn parse(buf: &[u8]) -> Result<(EthernetHeader, usize)> {
        need("ethernet", buf, ETHERNET_HEADER_LEN)?;
        let dst = MacAddr::from_slice(&buf[0..6]);
        let src = MacAddr::from_slice(&buf[6..12]);
        let ethertype = EtherType::from_u16(u16::from_be_bytes([buf[12], buf[13]]));
        Ok((
            EthernetHeader {
                dst,
                src,
                ethertype,
            },
            ETHERNET_HEADER_LEN,
        ))
    }

    /// Serializes the header into `out`.
    pub fn write(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.dst.0);
        out.extend_from_slice(&self.src.0);
        out.extend_from_slice(&self.ethertype.to_u16().to_be_bytes());
    }

    /// Rejects frames whose source address is a group address, which is
    /// invalid per IEEE 802.3 and a useful sanity check on generated traffic.
    pub fn validate(&self) -> Result<()> {
        if self.src.is_multicast() {
            return Err(ParseError::Unsupported {
                layer: "ethernet",
                what: "multicast source address",
                value: u64::from(self.src.0[0]),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ethertype_round_trips() {
        for et in [
            EtherType::Ipv4,
            EtherType::Vlan,
            EtherType::ResultPacket,
            EtherType::Other(0x1234),
        ] {
            assert_eq!(EtherType::from_u16(et.to_u16()), et);
        }
        // MPLS and NSH are not interpreted: §4.2's result packet is the
        // only result carrier.
        for v in [0x8847, 0x894f] {
            assert_eq!(EtherType::from_u16(v), EtherType::Other(v));
        }
    }

    #[test]
    fn header_round_trips() {
        let h = EthernetHeader::new(MacAddr::local(1), MacAddr::local(2), EtherType::Ipv4);
        let mut buf = Vec::new();
        h.write(&mut buf);
        assert_eq!(buf.len(), ETHERNET_HEADER_LEN);
        let (parsed, used) = EthernetHeader::parse(&buf).unwrap();
        assert_eq!(used, ETHERNET_HEADER_LEN);
        assert_eq!(parsed, h);
    }

    #[test]
    fn truncated_header_is_an_error() {
        let err = EthernetHeader::parse(&[0u8; 10]).unwrap_err();
        assert!(matches!(
            err,
            ParseError::Truncated {
                layer: "ethernet",
                ..
            }
        ));
    }

    #[test]
    fn multicast_source_fails_validation() {
        let h = EthernetHeader::new(MacAddr::local(1), MacAddr::BROADCAST, EtherType::Ipv4);
        assert!(h.validate().is_err());
        let ok = EthernetHeader::new(MacAddr::BROADCAST, MacAddr::local(1), EtherType::Ipv4);
        assert!(ok.validate().is_ok());
    }
}
