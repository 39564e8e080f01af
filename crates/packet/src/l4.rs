//! TCP and UDP headers.
//!
//! The DPI service only needs ports (for flow keys) and the TCP sequence
//! number (for ordering stateful scans across a flow's packets), so both
//! headers are modelled in full but options are not interpreted.

use crate::checksum::l4_checksum;
use crate::ipv4::IpProtocol;
use crate::{need, ParseError, Result};
use serde::{Deserialize, Serialize};

/// Length of a TCP header without options.
pub const TCP_HEADER_LEN: usize = 20;
/// Length of a UDP header.
pub const UDP_HEADER_LEN: usize = 8;

/// TCP flags relevant to flow tracking.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct TcpFlags {
    /// Connection setup.
    pub syn: bool,
    /// Acknowledgement present.
    pub ack: bool,
    /// Graceful teardown.
    pub fin: bool,
    /// Abortive teardown.
    pub rst: bool,
    /// Push.
    pub psh: bool,
}

impl TcpFlags {
    fn to_bits(self) -> u8 {
        u8::from(self.fin)
            | u8::from(self.syn) << 1
            | u8::from(self.rst) << 2
            | u8::from(self.psh) << 3
            | u8::from(self.ack) << 4
    }

    fn from_bits(b: u8) -> TcpFlags {
        TcpFlags {
            fin: b & 0x01 != 0,
            syn: b & 0x02 != 0,
            rst: b & 0x04 != 0,
            psh: b & 0x08 != 0,
            ack: b & 0x10 != 0,
        }
    }
}

/// A TCP header (options rejected, consistent with the IPv4 layer).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TcpHeader {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Sequence number of the first payload byte.
    pub seq: u32,
    /// Acknowledgement number.
    pub ack_no: u32,
    /// Control flags.
    pub flags: TcpFlags,
    /// Receive window.
    pub window: u16,
}

impl TcpHeader {
    /// Builds a data-segment header.
    pub fn new(src_port: u16, dst_port: u16, seq: u32) -> TcpHeader {
        TcpHeader {
            src_port,
            dst_port,
            seq,
            ack_no: 0,
            flags: TcpFlags {
                ack: true,
                psh: true,
                ..TcpFlags::default()
            },
            window: 0xffff,
        }
    }

    /// Parses a header, returning it and bytes consumed.
    pub fn parse(buf: &[u8]) -> Result<(TcpHeader, usize)> {
        need("tcp", buf, TCP_HEADER_LEN)?;
        let data_off = usize::from(buf[12] >> 4) * 4;
        if data_off != TCP_HEADER_LEN {
            return Err(ParseError::Unsupported {
                layer: "tcp",
                what: "header with options (data offset != 5)",
                value: data_off as u64,
            });
        }
        Ok((
            TcpHeader {
                src_port: u16::from_be_bytes([buf[0], buf[1]]),
                dst_port: u16::from_be_bytes([buf[2], buf[3]]),
                seq: u32::from_be_bytes([buf[4], buf[5], buf[6], buf[7]]),
                ack_no: u32::from_be_bytes([buf[8], buf[9], buf[10], buf[11]]),
                flags: TcpFlags::from_bits(buf[13]),
                window: u16::from_be_bytes([buf[14], buf[15]]),
            },
            TCP_HEADER_LEN,
        ))
    }

    /// Serializes the header with a zero checksum; [`fill_l4_checksum`]
    /// patches it once the full segment is assembled.
    pub fn write(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.src_port.to_be_bytes());
        out.extend_from_slice(&self.dst_port.to_be_bytes());
        out.extend_from_slice(&self.seq.to_be_bytes());
        out.extend_from_slice(&self.ack_no.to_be_bytes());
        out.push(0x50); // data offset = 5 words
        out.push(self.flags.to_bits());
        out.extend_from_slice(&self.window.to_be_bytes());
        out.extend_from_slice(&[0, 0]); // checksum placeholder
        out.extend_from_slice(&[0, 0]); // urgent pointer
    }
}

/// A UDP header.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct UdpHeader {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Length of header + payload.
    pub length: u16,
}

impl UdpHeader {
    /// Builds a header for a payload of `payload_len` bytes.
    pub fn new(src_port: u16, dst_port: u16, payload_len: usize) -> UdpHeader {
        UdpHeader {
            src_port,
            dst_port,
            length: (UDP_HEADER_LEN + payload_len) as u16,
        }
    }

    /// Parses a header, returning it and bytes consumed.
    pub fn parse(buf: &[u8]) -> Result<(UdpHeader, usize)> {
        need("udp", buf, UDP_HEADER_LEN)?;
        let length = u16::from_be_bytes([buf[4], buf[5]]);
        if usize::from(length) < UDP_HEADER_LEN {
            return Err(ParseError::BadLength {
                layer: "udp",
                claimed: usize::from(length),
                max: usize::MAX,
            });
        }
        Ok((
            UdpHeader {
                src_port: u16::from_be_bytes([buf[0], buf[1]]),
                dst_port: u16::from_be_bytes([buf[2], buf[3]]),
                length,
            },
            UDP_HEADER_LEN,
        ))
    }

    /// Serializes the header with a zero checksum; [`fill_l4_checksum`]
    /// patches it once the full datagram is assembled.
    pub fn write(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.src_port.to_be_bytes());
        out.extend_from_slice(&self.dst_port.to_be_bytes());
        out.extend_from_slice(&self.length.to_be_bytes());
        out.extend_from_slice(&[0, 0]); // checksum placeholder
    }
}

/// Either transport header, as carried by [`crate::Packet`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum L4Header {
    /// A TCP segment header.
    Tcp(TcpHeader),
    /// A UDP datagram header.
    Udp(UdpHeader),
}

impl L4Header {
    /// Source port of either header.
    pub fn src_port(&self) -> u16 {
        match self {
            L4Header::Tcp(t) => t.src_port,
            L4Header::Udp(u) => u.src_port,
        }
    }

    /// Destination port of either header.
    pub fn dst_port(&self) -> u16 {
        match self {
            L4Header::Tcp(t) => t.dst_port,
            L4Header::Udp(u) => u.dst_port,
        }
    }

    /// The matching IP protocol number.
    pub fn protocol(&self) -> IpProtocol {
        match self {
            L4Header::Tcp(_) => IpProtocol::Tcp,
            L4Header::Udp(_) => IpProtocol::Udp,
        }
    }

    /// Header length on the wire.
    pub fn header_len(&self) -> usize {
        match self {
            L4Header::Tcp(_) => TCP_HEADER_LEN,
            L4Header::Udp(_) => UDP_HEADER_LEN,
        }
    }
}

/// Computes and patches the L4 checksum inside `segment` (header+payload),
/// given the pseudo-header addresses. Works for both TCP and UDP since both
/// keep the checksum at a fixed offset.
pub fn fill_l4_checksum(src: [u8; 4], dst: [u8; 4], protocol: IpProtocol, segment: &mut [u8]) {
    let off = match protocol {
        IpProtocol::Tcp => 16,
        IpProtocol::Udp => 6,
        IpProtocol::Other(_) => return,
    };
    if segment.len() < off + 2 {
        return;
    }
    segment[off] = 0;
    segment[off + 1] = 0;
    let ck = l4_checksum(src, dst, protocol.to_u8(), segment);
    // UDP transmits an all-zero checksum as 0xffff (RFC 768).
    let ck = if protocol == IpProtocol::Udp && ck == 0 {
        0xffff
    } else {
        ck
    };
    segment[off..off + 2].copy_from_slice(&ck.to_be_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tcp_round_trips() {
        let h = TcpHeader::new(1234, 80, 0xdeadbeef);
        let mut buf = Vec::new();
        h.write(&mut buf);
        assert_eq!(buf.len(), TCP_HEADER_LEN);
        let (parsed, used) = TcpHeader::parse(&buf).unwrap();
        assert_eq!(used, TCP_HEADER_LEN);
        assert_eq!(parsed, h);
    }

    #[test]
    fn udp_round_trips() {
        let h = UdpHeader::new(53, 5353, 42);
        let mut buf = Vec::new();
        h.write(&mut buf);
        let (parsed, used) = UdpHeader::parse(&buf).unwrap();
        assert_eq!(used, UDP_HEADER_LEN);
        assert_eq!(parsed, h);
        assert_eq!(parsed.length, 50);
    }

    #[test]
    fn tcp_options_rejected() {
        let mut buf = Vec::new();
        TcpHeader::new(1, 2, 3).write(&mut buf);
        buf[12] = 0x60; // data offset 6
        assert!(TcpHeader::parse(&buf).is_err());
    }

    #[test]
    fn udp_bad_length_rejected() {
        let mut buf = Vec::new();
        UdpHeader::new(1, 2, 0).write(&mut buf);
        buf[4..6].copy_from_slice(&3u16.to_be_bytes());
        assert!(matches!(
            UdpHeader::parse(&buf).unwrap_err(),
            ParseError::BadLength { layer: "udp", .. }
        ));
    }

    #[test]
    fn l4_checksum_fill_then_verify() {
        let src = [10, 0, 0, 1];
        let dst = [10, 0, 0, 2];

        let mut tcp_seg = Vec::new();
        TcpHeader::new(5, 6, 7).write(&mut tcp_seg);
        tcp_seg.extend_from_slice(b"data");

        let mut udp_seg = Vec::new();
        UdpHeader::new(5, 6, 4).write(&mut udp_seg);
        udp_seg.extend_from_slice(b"data");

        for (proto, mut seg) in [(IpProtocol::Tcp, tcp_seg), (IpProtocol::Udp, udp_seg)] {
            // A receiver re-summing a correct segment gets 0.
            fill_l4_checksum(src, dst, proto, &mut seg);
            assert_eq!(l4_checksum(src, dst, proto.to_u8(), &seg), 0);
            *seg.last_mut().unwrap() ^= 0x01;
            assert_ne!(l4_checksum(src, dst, proto.to_u8(), &seg), 0);
        }
    }

    #[test]
    fn tcp_flag_bits_round_trip() {
        let f = TcpFlags {
            syn: true,
            ack: true,
            fin: false,
            rst: true,
            psh: false,
        };
        assert_eq!(TcpFlags::from_bits(f.to_bits()), f);
    }
}
