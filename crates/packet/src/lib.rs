//! # dpi-packet
//!
//! Packet formats for the *DPI as a Service* (CoNEXT 2014) reproduction.
//!
//! This crate provides parse/build support for every on-wire format the
//! system touches:
//!
//! * L2: Ethernet II frames ([`ethernet`]) and 802.1Q VLAN tags ([`vlan`])
//!   — the tags the Traffic Steering Application pushes to steer packets
//!   through policy chains (§4.1 of the paper).
//! * L3: IPv4 ([`ipv4`]) including the ECN field, which the paper's
//!   prototype uses as the "this packet has matches" marker (§6.1).
//! * L4: TCP and UDP ([`l4`]) and 5-tuple flow keys ([`flow`]).
//! * The *dedicated result packet* format ([`report`]) — option 3 of §4.2,
//!   the method the paper's prototype uses and the only result carrier
//!   here: a separate packet carrying the match reports, sent right after
//!   the (ECN-marked) data packet. Single matches are encoded in 4 bytes
//!   and ranges of repeated matches in 6 bytes, exactly as analysed in
//!   §6.5 / Figure 11.
//! * A composite [`Packet`] type that owns a full layer
//!   stack and round-trips to bytes, used by the simulated SDN substrate.
//!
//! All multi-byte fields are network byte order (big endian). Parsing never
//! panics on untrusted input: every `parse` returns [`Result`] with a
//! structured [`ParseError`].

pub mod checksum;
pub mod ethernet;
pub mod flow;
pub mod ipv4;
pub mod l4;
pub mod mac;
pub mod packet;
pub mod report;
pub mod vlan;

pub use ethernet::{EtherType, EthernetHeader};
pub use flow::FlowKey;
pub use ipv4::{Ecn, IpProtocol, Ipv4Header};
pub use l4::{L4Header, TcpHeader, UdpHeader};
pub use mac::MacAddr;
pub use packet::Packet;
pub use report::{MatchRecord, MiddleboxReport, ResultPacket};
pub use vlan::VlanTag;

/// Errors produced when parsing untrusted bytes into packet structures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// The buffer ended before the fixed-size portion of a header.
    Truncated {
        /// Which layer was being parsed.
        layer: &'static str,
        /// Bytes required to make progress.
        needed: usize,
        /// Bytes actually available.
        available: usize,
    },
    /// A version / magic / type field had an unsupported value.
    Unsupported {
        /// Which layer was being parsed.
        layer: &'static str,
        /// Human-readable description of the offending field.
        what: &'static str,
        /// The value observed on the wire.
        value: u64,
    },
    /// A length field is inconsistent with the surrounding buffer.
    BadLength {
        /// Which layer was being parsed.
        layer: &'static str,
        /// The length claimed by the header.
        claimed: usize,
        /// The maximum length that would have been valid.
        max: usize,
    },
    /// A checksum did not verify.
    BadChecksum {
        /// Which layer was being parsed.
        layer: &'static str,
    },
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::Truncated {
                layer,
                needed,
                available,
            } => write!(
                f,
                "{layer}: truncated (need {needed} bytes, have {available})"
            ),
            ParseError::Unsupported { layer, what, value } => {
                write!(f, "{layer}: unsupported {what} ({value:#x})")
            }
            ParseError::BadLength {
                layer,
                claimed,
                max,
            } => write!(
                f,
                "{layer}: bad length field (claimed {claimed}, max {max})"
            ),
            ParseError::BadChecksum { layer } => write!(f, "{layer}: checksum mismatch"),
        }
    }
}

impl std::error::Error for ParseError {}

/// Convenience alias used across the crate.
pub type Result<T> = std::result::Result<T, ParseError>;

/// Checks that `buf` holds at least `needed` bytes for `layer`.
pub(crate) fn need(layer: &'static str, buf: &[u8], needed: usize) -> Result<()> {
    if buf.len() < needed {
        Err(ParseError::Truncated {
            layer,
            needed,
            available: buf.len(),
        })
    } else {
        Ok(())
    }
}
