//! 5-tuple flow keys.
//!
//! Stateful middleboxes require the DPI service to "maintain their state
//! across the packet boundaries of a flow" (§4.1); the flow key is how a
//! DPI instance finds that state. It is also what the stress monitor
//! migrates between instances (§4.3.1).

use crate::ipv4::IpProtocol;
use serde::{Deserialize, Serialize};
use std::net::Ipv4Addr;

/// A directional 5-tuple identifying a flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct FlowKey {
    /// Source IPv4 address.
    pub src_ip: Ipv4Addr,
    /// Destination IPv4 address.
    pub dst_ip: Ipv4Addr,
    /// IP protocol.
    pub protocol: IpProtocol,
    /// Source port (0 for non-TCP/UDP).
    pub src_port: u16,
    /// Destination port (0 for non-TCP/UDP).
    pub dst_port: u16,
}

impl FlowKey {
    /// The key for the reverse direction of this flow.
    pub fn reversed(&self) -> FlowKey {
        FlowKey {
            src_ip: self.dst_ip,
            dst_ip: self.src_ip,
            protocol: self.protocol,
            src_port: self.dst_port,
            dst_port: self.src_port,
        }
    }

    /// A stable 64-bit hash of the key (FNV-1a), used by the simulator for
    /// deterministic load-balancing decisions independent of `HashMap`'s
    /// per-process seed.
    pub fn stable_hash(&self) -> u64 {
        const OFFSET: u64 = 0xcbf29ce484222325;
        const PRIME: u64 = 0x100000001b3;
        let mut h = OFFSET;
        let mut eat = |b: u8| {
            h ^= u64::from(b);
            h = h.wrapping_mul(PRIME);
        };
        for b in self.src_ip.octets() {
            eat(b);
        }
        for b in self.dst_ip.octets() {
            eat(b);
        }
        eat(self.protocol.to_u8());
        for b in self.src_port.to_be_bytes() {
            eat(b);
        }
        for b in self.dst_port.to_be_bytes() {
            eat(b);
        }
        h
    }
}

impl std::fmt::Display for FlowKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{} -> {}:{} ({:?})",
            self.src_ip, self.src_port, self.dst_ip, self.dst_port, self.protocol
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key() -> FlowKey {
        FlowKey {
            src_ip: Ipv4Addr::new(10, 0, 0, 1),
            dst_ip: Ipv4Addr::new(10, 0, 0, 2),
            protocol: IpProtocol::Tcp,
            src_port: 4242,
            dst_port: 80,
        }
    }

    #[test]
    fn reversed_twice_is_identity() {
        assert_eq!(key().reversed().reversed(), key());
    }

    #[test]
    fn stable_hash_distinguishes_flows_and_is_deterministic() {
        let a = key();
        let mut b = key();
        b.dst_port = 443;
        assert_ne!(a.stable_hash(), b.stable_hash());
        assert_eq!(a.stable_hash(), key().stable_hash());
    }
}
