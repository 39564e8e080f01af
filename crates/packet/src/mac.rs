//! Ethernet MAC addresses.

use serde::{Deserialize, Serialize};

/// A 48-bit IEEE 802 MAC address.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct MacAddr(pub [u8; 6]);

impl MacAddr {
    /// The broadcast address `ff:ff:ff:ff:ff:ff`.
    pub const BROADCAST: MacAddr = MacAddr([0xff; 6]);
    /// The all-zero address, used as a placeholder for "unset".
    pub const ZERO: MacAddr = MacAddr([0; 6]);

    /// Builds a locally-administered unicast address from a small integer.
    ///
    /// The simulator assigns host/middlebox MACs with this helper; the
    /// locally-administered bit (`0x02`) is set so generated addresses can
    /// never collide with real vendor OUIs.
    pub fn local(id: u32) -> MacAddr {
        let b = id.to_be_bytes();
        MacAddr([0x02, 0x00, b[0], b[1], b[2], b[3]])
    }

    /// Returns `true` for group (multicast/broadcast) addresses.
    pub fn is_multicast(&self) -> bool {
        self.0[0] & 0x01 != 0
    }

    /// Reads an address from the first six bytes of `buf`.
    ///
    /// # Panics
    /// Panics if `buf` is shorter than six bytes; callers validate length.
    pub fn from_slice(buf: &[u8]) -> MacAddr {
        let mut b = [0u8; 6];
        b.copy_from_slice(&buf[..6]);
        MacAddr(b)
    }
}

impl std::fmt::Display for MacAddr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let b = self.0;
        write!(
            f,
            "{:02x}:{:02x}:{:02x}:{:02x}:{:02x}:{:02x}",
            b[0], b[1], b[2], b[3], b[4], b[5]
        )
    }
}

impl std::fmt::Debug for MacAddr {
    // Addresses read better as `02:00:00:00:00:07` than as a byte array in
    // test failures, so `Debug` delegates to `Display`.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        std::fmt::Display::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats_colon_hex() {
        let m = MacAddr([0xde, 0xad, 0xbe, 0xef, 0x00, 0x01]);
        assert_eq!(m.to_string(), "de:ad:be:ef:00:01");
    }

    #[test]
    fn local_addresses_are_unicast_and_distinct() {
        let a = MacAddr::local(1);
        let b = MacAddr::local(2);
        assert_ne!(a, b);
        assert!(!a.is_multicast());
    }

    #[test]
    fn broadcast_is_multicast() {
        assert!(MacAddr::BROADCAST.is_multicast());
    }

    #[test]
    fn from_slice_round_trips() {
        let m = MacAddr::local(77);
        assert_eq!(MacAddr::from_slice(&m.0), m);
    }
}
