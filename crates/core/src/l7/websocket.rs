//! WebSocket frame decoder: unmasks client frames and streams data
//! payloads to the scanner.
//!
//! A pattern split across frames (or across the 4-byte masking key's
//! XOR stream) is invisible to a raw-byte scan; this decoder rebuilds
//! the application byte stream. Data frames (text/binary/continuation)
//! feed the resumable [`SLOT_WS_BODY`] stream — one continuous scan
//! state across frames and segments. Control frames (close/ping/pong)
//! are framing, consumed unscanned. Reserved opcodes or RSV bits (no
//! extension support) fail open to raw scanning.

use super::{unit, DecodeOut, L7Field, SLOT_WS_BODY};

#[derive(Debug)]
enum WState {
    /// Waiting for a complete frame header (2–14 bytes).
    Header,
    /// Consuming frame payload.
    Payload {
        remaining: u64,
        mask: Option<[u8; 4]>,
        mask_pos: usize,
        /// Text/binary/continuation (scanned) vs control (skipped).
        data: bool,
    },
}

/// One WebSocket flow's frame state.
#[derive(Debug)]
pub struct WsDecoder {
    /// Unconsumed wire bytes carried across `push` calls.
    pending: Vec<u8>,
    state: WState,
    /// Decoded data bytes emitted for the flow.
    emitted: u64,
    /// The flow already hit the inspection size limit.
    truncated: bool,
    /// The next data unit is the first of the flow (slot reset).
    first_unit: bool,
}

impl Default for WsDecoder {
    fn default() -> WsDecoder {
        WsDecoder::new()
    }
}

impl WsDecoder {
    /// A fresh frame decoder.
    pub fn new() -> WsDecoder {
        WsDecoder {
            pending: Vec::new(),
            state: WState::Header,
            emitted: 0,
            truncated: false,
            first_unit: true,
        }
    }

    /// Heap bytes held across `push` calls (flow-arena accounting).
    pub(crate) fn heap_bytes(&self) -> u64 {
        self.pending.len() as u64
    }

    /// Feeds wire bytes through the frame state machine.
    pub(crate) fn push(&mut self, data: &[u8], limit: usize, out: &mut DecodeOut) {
        self.pending.extend_from_slice(data);
        let mut i = 0usize;
        loop {
            match &mut self.state {
                WState::Header => {
                    let hay = &self.pending[i..];
                    if hay.len() < 2 {
                        break;
                    }
                    let (b0, b1) = (hay[0], hay[1]);
                    let opcode = b0 & 0x0f;
                    if b0 & 0x70 != 0 || matches!(opcode, 3..=7 | 11..) {
                        out.errors += 1;
                        out.raw.push(self.pending[i..].to_vec());
                        self.pending.clear();
                        out.failed_open = true;
                        return;
                    }
                    let masked = b1 & 0x80 != 0;
                    let len7 = (b1 & 0x7f) as u64;
                    let ext = match len7 {
                        126 => 2,
                        127 => 8,
                        _ => 0,
                    };
                    let hdr_len = 2 + ext + if masked { 4 } else { 0 };
                    if hay.len() < hdr_len {
                        break;
                    }
                    let remaining = match ext {
                        2 => u64::from(u16::from_be_bytes([hay[2], hay[3]])),
                        8 => u64::from_be_bytes(hay[2..10].try_into().unwrap()),
                        _ => len7,
                    };
                    let mask = masked.then(|| {
                        let m = &hay[2 + ext..2 + ext + 4];
                        [m[0], m[1], m[2], m[3]]
                    });
                    i += hdr_len;
                    self.state = WState::Payload {
                        remaining,
                        mask,
                        mask_pos: 0,
                        data: opcode <= 2,
                    };
                }
                WState::Payload {
                    remaining,
                    mask,
                    mask_pos,
                    data,
                } => {
                    let avail = (self.pending.len() - i) as u64;
                    let take = (*remaining).min(avail) as usize;
                    if *data && take > 0 {
                        // Only what fits the size limit is copied and
                        // unmasked; the rest just advances the mask.
                        let room = (limit as u64).saturating_sub(self.emitted) as usize;
                        let keep = room.min(take);
                        if keep > 0 {
                            let mut bytes = self.pending[i..i + keep].to_vec();
                            if let Some(m) = mask {
                                for (j, b) in bytes.iter_mut().enumerate() {
                                    *b ^= m[(*mask_pos + j) % 4];
                                }
                            }
                            out.units.push(unit(
                                L7Field::Body,
                                bytes,
                                Some(SLOT_WS_BODY),
                                self.first_unit,
                            ));
                            self.first_unit = false;
                            self.emitted += keep as u64;
                        }
                        *mask_pos += take;
                        if keep < take && !self.truncated {
                            self.truncated = true;
                            out.truncations.push(self.emitted);
                        }
                    }
                    i += take;
                    if *remaining == take as u64 {
                        self.state = WState::Header;
                    } else {
                        *remaining -= take as u64;
                        break;
                    }
                }
            }
            if i == self.pending.len() {
                break;
            }
        }
        self.pending.drain(..i);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Encodes one frame (test + generator mirror of the decoder).
    pub(crate) fn frame(opcode: u8, payload: &[u8], mask: Option<[u8; 4]>) -> Vec<u8> {
        let mut f = vec![0x80 | opcode];
        let mask_bit = if mask.is_some() { 0x80 } else { 0 };
        match payload.len() {
            n if n < 126 => f.push(mask_bit | n as u8),
            n if n < 65536 => {
                f.push(mask_bit | 126);
                f.extend_from_slice(&(n as u16).to_be_bytes());
            }
            n => {
                f.push(mask_bit | 127);
                f.extend_from_slice(&(n as u64).to_be_bytes());
            }
        }
        if let Some(m) = mask {
            f.extend_from_slice(&m);
            f.extend(payload.iter().enumerate().map(|(j, b)| b ^ m[j % 4]));
        } else {
            f.extend_from_slice(payload);
        }
        f
    }

    fn decode_all(wire: &[u8], limit: usize) -> (Vec<u8>, DecodeOut) {
        let mut d = WsDecoder::new();
        let mut out = DecodeOut::default();
        d.push(wire, limit, &mut out);
        let body = out
            .units
            .iter()
            .flat_map(|u| u.bytes.iter().copied())
            .collect();
        (body, out)
    }

    #[test]
    fn masked_text_frame_unmasks() {
        let wire = frame(1, b"hello EVIL world", Some([0xde, 0xad, 0xbe, 0xef]));
        let (body, out) = decode_all(&wire, 1 << 16);
        assert_eq!(body, b"hello EVIL world");
        assert_eq!(out.units[0].slot, Some(SLOT_WS_BODY));
        assert!(out.units[0].reset);
        assert_eq!(out.errors, 0);
    }

    #[test]
    fn stream_continues_across_frames_without_reset() {
        let mut wire = frame(1, b"EVIL", Some([1, 2, 3, 4]));
        wire.extend(frame(0, b"PATTERN", Some([5, 6, 7, 8])));
        let (body, out) = decode_all(&wire, 1 << 16);
        assert_eq!(body, b"EVILPATTERN");
        assert!(out.units[0].reset);
        assert!(!out.units[1].reset);
    }

    #[test]
    fn byte_at_a_time_delivery_decodes_identically() {
        let wire = frame(2, b"span the cut", Some([9, 8, 7, 6]));
        let mut d = WsDecoder::new();
        let mut body = Vec::new();
        for b in wire {
            let mut out = DecodeOut::default();
            d.push(&[b], 1 << 16, &mut out);
            for u in out.units {
                body.extend_from_slice(&u.bytes);
            }
        }
        assert_eq!(body, b"span the cut");
    }

    #[test]
    fn control_frames_are_skipped() {
        let mut wire = frame(9, b"ping-data", Some([1, 1, 1, 1]));
        wire.extend(frame(1, b"real", Some([2, 2, 2, 2])));
        let (body, _) = decode_all(&wire, 1 << 16);
        assert_eq!(body, b"real");
    }

    #[test]
    fn extended_16bit_length_parses() {
        let payload = vec![b'a'; 300];
        let wire = frame(2, &payload, None);
        let (body, _) = decode_all(&wire, 1 << 16);
        assert_eq!(body, payload);
    }

    #[test]
    fn reserved_bits_fail_open() {
        let mut wire = frame(1, b"x", None);
        wire[0] |= 0x40; // RSV1 without a negotiated extension
        let (_, out) = decode_all(&wire, 1 << 16);
        assert!(out.failed_open);
        assert_eq!(out.errors, 1);
        assert_eq!(out.raw.len(), 1);
    }

    #[test]
    fn frames_past_the_limit_are_skipped_with_the_same_units() {
        // Masked frames running past a 6-byte limit, a frame cut inside
        // its payload, and a ping after the limit: every delivery yields
        // the same units and one truncation.
        let mut wire = frame(1, b"abcd", Some([1, 2, 3, 4]));
        wire.extend(frame(0, b"efghij", Some([5, 6, 7, 8])));
        wire.extend(frame(0, b"klmnopq", Some([9, 10, 11, 12])));
        wire.extend(frame(9, b"ping", Some([13, 14, 15, 16])));
        wire.extend(frame(2, b"rstu", None));
        let units = |runs: &[usize]| {
            let mut d = WsDecoder::new();
            let mut out = DecodeOut::default();
            let mut rest = &wire[..];
            for &n in runs {
                let (run, tail) = rest.split_at(n.min(rest.len()));
                d.push(run, 6, &mut out);
                rest = tail;
            }
            d.push(rest, 6, &mut out);
            assert_eq!(out.errors, 0);
            let units: Vec<(Vec<u8>, bool)> =
                out.units.into_iter().map(|u| (u.bytes, u.reset)).collect();
            (units, out.truncations)
        };
        let whole = units(&[]);
        assert_eq!(
            whole,
            (
                vec![(b"abcd".to_vec(), true), (b"ef".to_vec(), false)],
                vec![6]
            )
        );
        for cut in 0..=wire.len() {
            let (cut_units, truncations) = units(&[cut]);
            let joined: Vec<u8> = cut_units.iter().flat_map(|(b, _)| b.clone()).collect();
            assert_eq!(joined, b"abcdef", "cut at {cut}");
            assert_eq!(truncations, vec![6], "cut at {cut}");
        }
        assert_eq!(units(&vec![1; wire.len()]).1, vec![6]);
    }

    #[test]
    fn size_limit_truncates_once_and_framing_survives() {
        let mut wire = frame(1, b"0123456789", Some([3, 1, 4, 1]));
        wire.extend(frame(1, b"abcdef", Some([5, 9, 2, 6])));
        let (body, out) = decode_all(&wire, 4);
        assert_eq!(body, b"0123");
        assert_eq!(out.truncations, vec![4]);
        assert_eq!(out.errors, 0);
    }
}
