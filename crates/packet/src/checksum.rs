//! The Internet checksum (RFC 1071) shared by IPv4, TCP and UDP.

/// Incremental Internet-checksum accumulator.
///
/// Feed it byte slices (and pseudo-header words) in any order that preserves
/// 16-bit alignment per slice, then call `finish`.
#[derive(Default)]
struct Checksum {
    sum: u32,
}

impl Checksum {
    /// Adds one 16-bit word.
    fn add_u16(&mut self, w: u16) {
        self.sum += u32::from(w);
    }

    /// Adds a byte slice, padding an odd trailing byte with zero as RFC 1071
    /// prescribes.
    fn add_bytes(&mut self, data: &[u8]) {
        let mut chunks = data.chunks_exact(2);
        for c in &mut chunks {
            self.add_u16(u16::from_be_bytes([c[0], c[1]]));
        }
        if let [last] = chunks.remainder() {
            self.add_u16(u16::from_be_bytes([*last, 0]));
        }
    }

    /// Folds the carries and returns the one's-complement checksum.
    fn finish(self) -> u16 {
        let mut s = self.sum;
        while s > 0xffff {
            s = (s & 0xffff) + (s >> 16);
        }
        !(s as u16)
    }
}

/// Computes the checksum of a stand-alone buffer (e.g. an IPv4 header with
/// its checksum field zeroed).
pub fn checksum(data: &[u8]) -> u16 {
    let mut c = Checksum::default();
    c.add_bytes(data);
    c.finish()
}

/// Computes a TCP/UDP checksum including the IPv4 pseudo-header.
pub fn l4_checksum(src: [u8; 4], dst: [u8; 4], protocol: u8, segment: &[u8]) -> u16 {
    let mut c = Checksum::default();
    c.add_bytes(&src);
    c.add_bytes(&dst);
    c.add_u16(u16::from(protocol));
    c.add_u16(segment.len() as u16);
    c.add_bytes(segment);
    c.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    // The classic worked example from RFC 1071 §3.
    #[test]
    fn rfc1071_example() {
        let data = [0x00u8, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7];
        // Sum = 0x0001 + 0xf203 + 0xf4f5 + 0xf6f7 = 0x2ddf0 -> fold -> 0xddf2
        assert_eq!(checksum(&data), !0xddf2);
    }

    #[test]
    fn odd_length_pads_with_zero() {
        // [0x01, 0x02, 0x03] is summed as 0x0102 + 0x0300.
        assert_eq!(checksum(&[0x01, 0x02, 0x03]), !0x0402u16);
    }

    #[test]
    fn verifying_a_correct_buffer_yields_zero() {
        // Place the computed checksum into the buffer; re-summing the whole
        // buffer must then give 0 (the standard receiver-side check).
        let mut buf = vec![
            0x45, 0x00, 0x00, 0x1c, 0xab, 0xcd, 0x00, 0x00, 0x40, 0x11, 0, 0,
        ];
        let ck = checksum(&buf);
        buf[10..12].copy_from_slice(&ck.to_be_bytes());
        assert_eq!(checksum(&buf), 0);
    }

    #[test]
    fn empty_buffer_checksums_to_all_ones() {
        assert_eq!(checksum(&[]), 0xffff);
    }

    #[test]
    fn pseudo_header_affects_l4_checksum() {
        let seg = [0u8; 8];
        let a = l4_checksum([10, 0, 0, 1], [10, 0, 0, 2], 6, &seg);
        let b = l4_checksum([10, 0, 0, 1], [10, 0, 0, 3], 6, &seg);
        assert_ne!(a, b);
    }
}
