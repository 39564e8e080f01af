//! Match-report encoding and the dedicated *result packet*.
//!
//! §6.5 of the paper: "A single match can be reported with up to 4 bytes.
//! Occasionally, when a pattern consists of the same character one or more
//! times, and this character appears in a packet multiple times
//! sequentially, multiple matches of the same pattern (or set of patterns)
//! should be reported. For these cases we also allow reporting ranges of
//! matches, with a given starting position and length. Such ranges can be
//! reported with up to 6 bytes."
//!
//! The wire encoding used here:
//!
//! * **Single** (4 bytes): `[0 | pattern_id:15][position:16]`
//! * **Range** (6 bytes): `[1 | pattern_id:15][start:16][count:16]`
//!
//! where `position` is the 0-based offset of the byte at which the match
//! *ends* within the scanned packet (the `cnt` value of §5.2). For stateful
//! middleboxes the result packet carries a single 64-bit `flow_offset`
//! (`offset` of §5.2), so the middlebox reconstructs `cnt + offset` without
//! widening every record.
//!
//! A *result packet* (option 3 of §4.2, and the prototype's method) carries
//! all match-lists of one data packet, grouped per middlebox, and is sent
//! right after the ECN-marked data packet.

use crate::flow::FlowKey;
use crate::ipv4::IpProtocol;
use crate::{need, ParseError, Result};
use serde::{Deserialize, Serialize};
use std::net::Ipv4Addr;

/// Magic number identifying a result packet ("DPI" + version nibble).
pub const RESULT_MAGIC: u16 = 0xd791;

/// Largest pattern identifier encodable in a match record (15 bits).
pub const MAX_REPORTABLE_PATTERN_ID: u16 = 0x7fff;

/// One reported match (§6.5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MatchRecord {
    /// A single occurrence of `pattern_id` ending at byte `position`.
    Single {
        /// Middlebox-local pattern identifier (≤ 15 bits).
        pattern_id: u16,
        /// Offset of the last byte of the match within the packet.
        position: u16,
    },
    /// `count` consecutive occurrences of `pattern_id`, the first ending at
    /// `start` (stride of one byte — the repeated-character case).
    Range {
        /// Middlebox-local pattern identifier (≤ 15 bits).
        pattern_id: u16,
        /// Offset of the last byte of the first occurrence.
        start: u16,
        /// Number of consecutive occurrences (≥ 2).
        count: u16,
    },
}

impl MatchRecord {
    /// Size of this record on the wire: 4 bytes for singles, 6 for ranges.
    pub fn wire_size(&self) -> usize {
        match self {
            MatchRecord::Single { .. } => 4,
            MatchRecord::Range { .. } => 6,
        }
    }

    /// The pattern identifier of either variant.
    pub fn pattern_id(&self) -> u16 {
        match self {
            MatchRecord::Single { pattern_id, .. } | MatchRecord::Range { pattern_id, .. } => {
                *pattern_id
            }
        }
    }

    /// Number of individual matches this record represents.
    pub fn occurrences(&self) -> u32 {
        match self {
            MatchRecord::Single { .. } => 1,
            MatchRecord::Range { count, .. } => u32::from(*count),
        }
    }

    /// Serializes the record.
    pub fn write(&self, out: &mut Vec<u8>) {
        match *self {
            MatchRecord::Single {
                pattern_id,
                position,
            } => {
                out.extend_from_slice(&(pattern_id & MAX_REPORTABLE_PATTERN_ID).to_be_bytes());
                out.extend_from_slice(&position.to_be_bytes());
            }
            MatchRecord::Range {
                pattern_id,
                start,
                count,
            } => {
                out.extend_from_slice(
                    &((pattern_id & MAX_REPORTABLE_PATTERN_ID) | 0x8000).to_be_bytes(),
                );
                out.extend_from_slice(&start.to_be_bytes());
                out.extend_from_slice(&count.to_be_bytes());
            }
        }
    }

    /// Parses one record, returning it and the bytes consumed.
    pub fn parse(buf: &[u8]) -> Result<(MatchRecord, usize)> {
        need("match-record", buf, 4)?;
        let tag = u16::from_be_bytes([buf[0], buf[1]]);
        let pattern_id = tag & MAX_REPORTABLE_PATTERN_ID;
        if tag & 0x8000 == 0 {
            Ok((
                MatchRecord::Single {
                    pattern_id,
                    position: u16::from_be_bytes([buf[2], buf[3]]),
                },
                4,
            ))
        } else {
            need("match-record", buf, 6)?;
            Ok((
                MatchRecord::Range {
                    pattern_id,
                    start: u16::from_be_bytes([buf[2], buf[3]]),
                    count: u16::from_be_bytes([buf[4], buf[5]]),
                },
                6,
            ))
        }
    }
}

/// The match-list destined for one middlebox.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct MiddleboxReport {
    /// The registered middlebox identifier (§4.1).
    pub middlebox_id: u16,
    /// Matches relevant to this middlebox, in scan order.
    pub records: Vec<MatchRecord>,
}

impl MiddleboxReport {
    /// Bytes this block occupies on the wire (4-byte block header plus
    /// records).
    pub fn wire_size(&self) -> usize {
        4 + self
            .records
            .iter()
            .map(MatchRecord::wire_size)
            .sum::<usize>()
    }

    pub(crate) fn write(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.middlebox_id.to_be_bytes());
        out.extend_from_slice(&(self.records.len() as u16).to_be_bytes());
        for r in &self.records {
            r.write(out);
        }
    }

    pub(crate) fn parse(buf: &[u8]) -> Result<(MiddleboxReport, usize)> {
        need("mb-report", buf, 4)?;
        let middlebox_id = u16::from_be_bytes([buf[0], buf[1]]);
        let n = usize::from(u16::from_be_bytes([buf[2], buf[3]]));
        let mut off = 4;
        let mut records = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            let (r, used) = MatchRecord::parse(&buf[off..])?;
            off += used;
            records.push(r);
        }
        Ok((
            MiddleboxReport {
                middlebox_id,
                records,
            },
            off,
        ))
    }
}

/// A dedicated result packet: the match-lists of one scanned data packet.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ResultPacket {
    /// Identifier pairing this result with its data packet (the DPI instance
    /// copies the data packet's IPv4 identification plus an internal
    /// sequence; uniqueness only matters per flow, per small window).
    pub packet_id: u32,
    /// The rule generation of the automaton that produced these matches.
    /// Every match result is attributable to exactly one generation, so a
    /// consumer can reject results from an instance that has not yet
    /// picked up (or has already moved past) a rule update.
    pub generation: u32,
    /// Flow the scanned packet belongs to.
    pub flow: FlowKey,
    /// `offset` of §5.2 for the first reporting unit, zero when stateless;
    /// record positions are relative to the unit that produced them.
    pub flow_offset: u64,
    /// Per-middlebox match lists. Only middleboxes with at least one match
    /// appear (empty reports are never sent — §4.2: "a packet with no
    /// matches is always forwarded as is").
    pub reports: Vec<MiddleboxReport>,
}

impl ResultPacket {
    /// Fixed header length: magic(2) version(1) count(1) packet_id(4)
    /// generation(4) flow_offset(8) flow key(13).
    pub const HEADER_LEN: usize = 2 + 1 + 1 + 4 + 4 + 8 + 13;
    /// Wire-format version (v2 added the rule-generation word).
    pub const VERSION: u8 = 2;

    /// Total size on the wire.
    pub fn wire_size(&self) -> usize {
        Self::HEADER_LEN
            + self
                .reports
                .iter()
                .map(MiddleboxReport::wire_size)
                .sum::<usize>()
    }

    /// Total number of individual match occurrences across all middleboxes.
    pub fn total_matches(&self) -> u64 {
        self.reports
            .iter()
            .flat_map(|r| r.records.iter())
            .map(|r| u64::from(r.occurrences()))
            .sum()
    }

    /// The report for `middlebox_id`, if it had any matches.
    pub fn report_for(&self, middlebox_id: u16) -> Option<&MiddleboxReport> {
        self.reports.iter().find(|r| r.middlebox_id == middlebox_id)
    }

    /// Serializes the whole result packet.
    pub fn write(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&RESULT_MAGIC.to_be_bytes());
        out.push(Self::VERSION);
        out.push(self.reports.len() as u8);
        out.extend_from_slice(&self.packet_id.to_be_bytes());
        out.extend_from_slice(&self.generation.to_be_bytes());
        out.extend_from_slice(&self.flow_offset.to_be_bytes());
        out.extend_from_slice(&self.flow.src_ip.octets());
        out.extend_from_slice(&self.flow.dst_ip.octets());
        out.push(self.flow.protocol.to_u8());
        out.extend_from_slice(&self.flow.src_port.to_be_bytes());
        out.extend_from_slice(&self.flow.dst_port.to_be_bytes());
        for r in &self.reports {
            r.write(out);
        }
    }

    /// Serializes into a fresh buffer.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.wire_size());
        self.write(&mut out);
        out
    }

    /// Parses a result packet, returning it and the bytes consumed.
    pub fn parse(buf: &[u8]) -> Result<(ResultPacket, usize)> {
        need("result-packet", buf, Self::HEADER_LEN)?;
        let magic = u16::from_be_bytes([buf[0], buf[1]]);
        if magic != RESULT_MAGIC {
            return Err(ParseError::Unsupported {
                layer: "result-packet",
                what: "magic",
                value: u64::from(magic),
            });
        }
        if buf[2] != Self::VERSION {
            return Err(ParseError::Unsupported {
                layer: "result-packet",
                what: "version",
                value: u64::from(buf[2]),
            });
        }
        let n_reports = usize::from(buf[3]);
        let packet_id = u32::from_be_bytes([buf[4], buf[5], buf[6], buf[7]]);
        let generation = u32::from_be_bytes([buf[8], buf[9], buf[10], buf[11]]);
        let flow_offset = u64::from_be_bytes([
            buf[12], buf[13], buf[14], buf[15], buf[16], buf[17], buf[18], buf[19],
        ]);
        let flow = FlowKey {
            src_ip: Ipv4Addr::new(buf[20], buf[21], buf[22], buf[23]),
            dst_ip: Ipv4Addr::new(buf[24], buf[25], buf[26], buf[27]),
            protocol: IpProtocol::from_u8(buf[28]),
            src_port: u16::from_be_bytes([buf[29], buf[30]]),
            dst_port: u16::from_be_bytes([buf[31], buf[32]]),
        };
        let mut off = Self::HEADER_LEN;
        let mut reports = Vec::with_capacity(n_reports);
        for _ in 0..n_reports {
            let (r, used) = MiddleboxReport::parse(&buf[off..])?;
            off += used;
            reports.push(r);
        }
        Ok((
            ResultPacket {
                packet_id,
                generation,
                flow,
                flow_offset,
                reports,
            },
            off,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flow() -> FlowKey {
        FlowKey {
            src_ip: Ipv4Addr::new(192, 168, 1, 10),
            dst_ip: Ipv4Addr::new(10, 9, 8, 7),
            protocol: IpProtocol::Tcp,
            src_port: 55555,
            dst_port: 443,
        }
    }

    fn sample() -> ResultPacket {
        ResultPacket {
            packet_id: 0xfeed0001,
            generation: 3,
            flow: flow(),
            flow_offset: 1 << 33,
            reports: vec![
                MiddleboxReport {
                    middlebox_id: 1,
                    records: vec![
                        MatchRecord::Single {
                            pattern_id: 7,
                            position: 120,
                        },
                        MatchRecord::Range {
                            pattern_id: 8,
                            start: 200,
                            count: 16,
                        },
                    ],
                },
                MiddleboxReport {
                    middlebox_id: 3,
                    records: vec![MatchRecord::Single {
                        pattern_id: 7,
                        position: 120,
                    }],
                },
            ],
        }
    }

    #[test]
    fn record_sizes_match_paper() {
        assert_eq!(
            MatchRecord::Single {
                pattern_id: 1,
                position: 2
            }
            .wire_size(),
            4
        );
        assert_eq!(
            MatchRecord::Range {
                pattern_id: 1,
                start: 2,
                count: 3
            }
            .wire_size(),
            6
        );
    }

    #[test]
    fn result_packet_round_trips() {
        let rp = sample();
        let bytes = rp.to_bytes();
        assert_eq!(bytes.len(), rp.wire_size());
        let (parsed, used) = ResultPacket::parse(&bytes).unwrap();
        assert_eq!(used, bytes.len());
        assert_eq!(parsed, rp);
    }

    #[test]
    fn total_matches_counts_range_occurrences() {
        assert_eq!(sample().total_matches(), 1 + 16 + 1);
    }

    #[test]
    fn report_for_finds_the_right_block() {
        let rp = sample();
        assert_eq!(rp.report_for(3).unwrap().records.len(), 1);
        assert!(rp.report_for(2).is_none());
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut bytes = sample().to_bytes();
        bytes[0] = 0;
        assert!(matches!(
            ResultPacket::parse(&bytes).unwrap_err(),
            ParseError::Unsupported { what: "magic", .. }
        ));
    }

    #[test]
    fn generation_survives_the_wire() {
        let mut rp = sample();
        rp.generation = 0xdead_beef;
        let (parsed, _) = ResultPacket::parse(&rp.to_bytes()).unwrap();
        assert_eq!(parsed.generation, 0xdead_beef);
    }

    #[test]
    fn v1_packets_without_generation_are_rejected() {
        let mut bytes = sample().to_bytes();
        bytes[2] = 1; // pre-generation wire format
        assert!(matches!(
            ResultPacket::parse(&bytes).unwrap_err(),
            ParseError::Unsupported {
                what: "version",
                ..
            }
        ));
    }

    #[test]
    fn truncated_records_are_rejected() {
        let bytes = sample().to_bytes();
        assert!(ResultPacket::parse(&bytes[..bytes.len() - 1]).is_err());
    }

    #[test]
    fn record_round_trip_masks_high_pattern_bit() {
        // Pattern ids must fit 15 bits; the encoder masks rather than
        // corrupting the type bit.
        let r = MatchRecord::Single {
            pattern_id: 0x7fff,
            position: 9,
        };
        let mut buf = Vec::new();
        r.write(&mut buf);
        let (parsed, _) = MatchRecord::parse(&buf).unwrap();
        assert_eq!(parsed, r);
    }
}
