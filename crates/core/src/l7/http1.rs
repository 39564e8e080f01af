//! Incremental HTTP/1.x framing decoder.
//!
//! Separates header blocks from bodies, decodes `Transfer-Encoding:
//! chunked`, buffers `Content-Encoding: gzip` bodies for whole-message
//! decompression through [`crate::decompress::gunzip_capped`], and
//! detects the WebSocket Upgrade handshake. Framing failures fail
//! *open*: the unparseable bytes flush to the raw scan path and the
//! rest of the flow is scanned undecoded — never silently dropped.
//!
//! Plain (identity) bodies stream out as resumable [`SLOT_HTTP_BODY`]
//! units so a pattern spanning a chunk or segment boundary still
//! matches; each message resets the slot. Gzip bodies decode at message
//! end — the inflater is one-shot: it takes the whole member, decodes
//! each Huffman code of up to 10 bits with one table lookup and longer
//! or cut codes bit by bit — so they arrive as a single reset unit.
//!
//! A terminator search (`\r\n\r\n` after headers and trailers, `\r\n`
//! after a chunk size) resumes where the last one stopped, so a header
//! block arriving in small runs costs time linear in its length.

use super::{unit, DecodeOut, L7Direction, L7Field, SLOT_HTTP_BODY};
use crate::decompress::gunzip_capped;
use std::ops::Range;

/// Longest chunk-size line (hex size + extensions) before the decoder
/// declares the framing bogus and fails open.
const MAX_CHUNK_LINE: usize = 256;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum HState {
    /// Accumulating a header block up to `\r\n\r\n`.
    Headers,
    /// Reading a Content-Length body; remaining bytes.
    BodyLen(u64),
    /// Reading a chunk-size line.
    ChunkSize,
    /// Reading chunk payload; remaining bytes.
    ChunkData(u64),
    /// Expecting the `\r\n` that closes a chunk.
    ChunkCrlf,
    /// Accumulating the trailer section after the last chunk.
    Trailers,
    /// Response body delimited by connection close: everything is body.
    BodyEof,
}

/// One HTTP/1 direction's decode state.
#[derive(Debug)]
pub struct Http1Decoder {
    dir: L7Direction,
    state: HState,
    /// Unconsumed wire bytes carried across `push` calls.
    pending: Vec<u8>,
    /// Bytes at the front of `pending` already searched for the current
    /// state's terminator without finding it.
    searched: usize,
    /// Current message body is gzip-encoded.
    gzip: bool,
    /// Compressed body accumulated for end-of-message decompression.
    gz_buf: Vec<u8>,
    /// Compressed input itself exceeded the inspection limit.
    gz_overflow: bool,
    /// Decoded body bytes emitted for the current message (plain path).
    body_emitted: u64,
    /// The current message's body already hit the size limit.
    body_truncated: bool,
    /// The next body unit starts a new message (slot reset).
    first_body_unit: bool,
}

impl Http1Decoder {
    /// A decoder for one direction (requests or responses).
    pub fn new(dir: L7Direction) -> Http1Decoder {
        Http1Decoder {
            dir,
            state: HState::Headers,
            pending: Vec::new(),
            searched: 0,
            gzip: false,
            gz_buf: Vec::new(),
            gz_overflow: false,
            body_emitted: 0,
            body_truncated: false,
            first_body_unit: true,
        }
    }

    /// Heap bytes held across `push` calls (flow-arena accounting).
    pub(crate) fn heap_bytes(&self) -> u64 {
        (self.pending.len() + self.gz_buf.len()) as u64
    }

    /// Feeds wire bytes through the framing state machine.
    pub(crate) fn push(&mut self, data: &[u8], limit: usize, out: &mut DecodeOut) {
        self.pending.extend_from_slice(data);
        let mut i = 0usize;
        loop {
            match self.state {
                HState::Headers => {
                    let hay = &self.pending[i..];
                    let Some(p) = find_from(hay, b"\r\n\r\n", &mut self.searched) else {
                        if hay.len() > limit {
                            self.fail_open(i, out);
                            return;
                        }
                        break;
                    };
                    let block = hay[..p + 4].to_vec();
                    i += p + 4;
                    let upgrade = self.on_headers(&block);
                    out.units.push(unit(L7Field::Header, block, None, false));
                    if upgrade {
                        out.upgrade_ws = Some(self.pending[i..].to_vec());
                        self.pending.clear();
                        return;
                    }
                }
                HState::BodyLen(rem) => {
                    let avail = self.pending.len() - i;
                    let take = (rem.min(avail as u64)) as usize;
                    self.emit_body(i..i + take, limit, out);
                    i += take;
                    if rem == take as u64 {
                        self.finish_message(limit, out);
                    } else {
                        self.state = HState::BodyLen(rem - take as u64);
                        break;
                    }
                }
                HState::ChunkSize => {
                    let hay = &self.pending[i..];
                    let Some(p) = find_from(hay, b"\r\n", &mut self.searched) else {
                        if hay.len() > MAX_CHUNK_LINE {
                            out.errors += 1;
                            self.fail_open(i, out);
                            return;
                        }
                        break;
                    };
                    let Some(size) = parse_chunk_size(&hay[..p]) else {
                        out.errors += 1;
                        self.fail_open(i, out);
                        return;
                    };
                    i += p + 2;
                    self.state = if size == 0 {
                        HState::Trailers
                    } else {
                        HState::ChunkData(size)
                    };
                }
                HState::ChunkData(rem) => {
                    let avail = self.pending.len() - i;
                    let take = (rem.min(avail as u64)) as usize;
                    self.emit_body(i..i + take, limit, out);
                    i += take;
                    if rem == take as u64 {
                        self.state = HState::ChunkCrlf;
                    } else {
                        self.state = HState::ChunkData(rem - take as u64);
                        break;
                    }
                }
                HState::ChunkCrlf => {
                    let hay = &self.pending[i..];
                    if hay.len() < 2 {
                        break;
                    }
                    if &hay[..2] != b"\r\n" {
                        out.errors += 1;
                        self.fail_open(i, out);
                        return;
                    }
                    i += 2;
                    self.state = HState::ChunkSize;
                }
                HState::Trailers => {
                    let hay = &self.pending[i..];
                    // Empty trailer section: the bare CRLF ends the
                    // message; otherwise trailers run to a blank line.
                    let end = if hay.starts_with(b"\r\n") {
                        Some(2)
                    } else {
                        find_from(hay, b"\r\n\r\n", &mut self.searched).map(|p| p + 4)
                    };
                    let Some(end) = end else {
                        if hay.len() > limit {
                            self.fail_open(i, out);
                            return;
                        }
                        break;
                    };
                    if end > 2 {
                        // Trailers are header-class content: scan them.
                        out.units
                            .push(unit(L7Field::Header, hay[..end].to_vec(), None, false));
                    }
                    i += end;
                    self.finish_message(limit, out);
                }
                HState::BodyEof => {
                    self.emit_body(i..self.pending.len(), limit, out);
                    i = self.pending.len();
                    break;
                }
            }
            if i == self.pending.len() {
                break;
            }
        }
        self.pending.drain(..i);
    }

    /// Parses one header block, resets per-message body accounting and
    /// picks the body-framing state. Returns whether the block completes
    /// a WebSocket Upgrade handshake.
    fn on_headers(&mut self, block: &[u8]) -> bool {
        self.body_emitted = 0;
        self.body_truncated = false;
        self.first_body_unit = true;
        self.gz_buf.clear();
        self.gz_overflow = false;
        let chunked = header_value(block, b"transfer-encoding")
            .is_some_and(|v| contains_token(v, b"chunked"));
        let content_length = header_value(block, b"content-length")
            .and_then(|v| std::str::from_utf8(v).ok())
            .and_then(|v| v.trim().parse::<u64>().ok());
        self.gzip =
            header_value(block, b"content-encoding").is_some_and(|v| contains_token(v, b"gzip"));
        let upgrade = header_value(block, b"upgrade")
            .is_some_and(|v| contains_token(v, b"websocket"))
            && match self.dir {
                L7Direction::ClientToServer => true,
                L7Direction::ServerToClient => status_code(block) == Some(101),
            };
        if upgrade {
            return true;
        }
        self.state = if chunked {
            HState::ChunkSize
        } else if let Some(n) = content_length {
            if n == 0 {
                HState::Headers
            } else {
                HState::BodyLen(n)
            }
        } else if self.dir == L7Direction::ServerToClient {
            // A response without framing headers runs to connection
            // close. There is no message end to decompress at, so a
            // gzip body on this path is scanned undecoded.
            self.gzip = false;
            HState::BodyEof
        } else {
            // Requests without framing headers carry no body.
            HState::Headers
        };
        false
    }

    /// Emits the decoded body bytes `pending[body]` under the per-message
    /// size limit, or accumulates them as compressed input for
    /// end-of-message decompression.
    fn emit_body(&mut self, body: Range<usize>, limit: usize, out: &mut DecodeOut) {
        let bytes = &self.pending[body];
        if bytes.is_empty() {
            return;
        }
        if self.gzip {
            let room = limit.saturating_sub(self.gz_buf.len());
            if bytes.len() > room {
                self.gz_overflow = true;
            }
            self.gz_buf
                .extend_from_slice(&bytes[..bytes.len().min(room)]);
            return;
        }
        if self.body_truncated {
            return;
        }
        let room = (limit as u64).saturating_sub(self.body_emitted) as usize;
        let total = bytes.len();
        let take = room.min(total);
        if take > 0 {
            out.units.push(unit(
                L7Field::Body,
                bytes[..take].to_vec(),
                Some(SLOT_HTTP_BODY),
                self.first_body_unit,
            ));
            self.first_body_unit = false;
            self.body_emitted += take as u64;
        }
        if take < total {
            self.body_truncated = true;
            out.truncations.push(self.body_emitted);
        }
    }

    /// Ends the current message: decompresses a buffered gzip body and
    /// re-arms for the next keep-alive message.
    fn finish_message(&mut self, limit: usize, out: &mut DecodeOut) {
        if self.gzip && !self.gz_buf.is_empty() {
            match gunzip_capped(&self.gz_buf, limit) {
                Ok((bytes, truncated)) => {
                    let kept = bytes.len() as u64;
                    out.units
                        .push(unit(L7Field::Body, bytes, Some(SLOT_HTTP_BODY), true));
                    if truncated || self.gz_overflow {
                        out.truncations.push(kept);
                    }
                }
                Err(_) => {
                    // Fail open on the body only: the compressed bytes
                    // are scanned raw; framing continues.
                    out.errors += 1;
                    out.raw.push(std::mem::take(&mut self.gz_buf));
                }
            }
        }
        self.gzip = false;
        self.gz_buf.clear();
        self.gz_overflow = false;
        self.state = HState::Headers;
    }

    /// Abandons framing: everything unconsumed (and everything future,
    /// via the session's Raw phase) goes to the raw scan path.
    fn fail_open(&mut self, i: usize, out: &mut DecodeOut) {
        if i < self.pending.len() {
            out.raw.push(self.pending[i..].to_vec());
        }
        if !self.gz_buf.is_empty() {
            out.raw.push(std::mem::take(&mut self.gz_buf));
        }
        self.pending.clear();
        self.searched = 0;
        out.failed_open = true;
    }
}

/// First index of `needle` in `hay`.
fn find(hay: &[u8], needle: &[u8]) -> Option<usize> {
    hay.windows(needle.len()).position(|w| w == needle)
}

/// [`find`] over the unconsumed input `hay`, resuming at `*searched`,
/// the length of its front already searched without a match; a miss
/// moves `*searched` to where the next search must start, a hit resets
/// it for the next terminator.
fn find_from(hay: &[u8], needle: &[u8], searched: &mut usize) -> Option<usize> {
    let from = *searched;
    match find(&hay[from..], needle) {
        Some(p) => {
            *searched = 0;
            Some(from + p)
        }
        None => {
            // A terminator may start in the last `needle.len() - 1`
            // bytes and end in the next run.
            *searched = hay.len().saturating_sub(needle.len() - 1);
            None
        }
    }
}

/// The value of the first header named `name` (lowercase) in a header
/// block, trimmed of surrounding whitespace.
fn header_value<'a>(block: &'a [u8], name: &[u8]) -> Option<&'a [u8]> {
    for line in block.split(|&b| b == b'\n') {
        let line = line.strip_suffix(b"\r").unwrap_or(line);
        let Some(colon) = line.iter().position(|&b| b == b':') else {
            continue;
        };
        if line[..colon].len() == name.len()
            && line[..colon]
                .iter()
                .zip(name)
                .all(|(a, b)| a.to_ascii_lowercase() == *b)
        {
            let mut v = &line[colon + 1..];
            while let Some((first, rest)) = v.split_first() {
                if first.is_ascii_whitespace() {
                    v = rest;
                } else {
                    break;
                }
            }
            while let Some((last, rest)) = v.split_last() {
                if last.is_ascii_whitespace() {
                    v = rest;
                } else {
                    break;
                }
            }
            return Some(v);
        }
    }
    None
}

/// Whether a comma-separated header value contains `token`
/// (case-insensitive).
fn contains_token(value: &[u8], token: &[u8]) -> bool {
    value.split(|&b| b == b',').any(|part| {
        part.iter()
            .filter(|b| !b.is_ascii_whitespace())
            .map(|b| b.to_ascii_lowercase())
            .eq(token.iter().copied())
    })
}

/// The status code of a response header block.
fn status_code(block: &[u8]) -> Option<u16> {
    let line = block.split(|&b| b == b'\n').next()?;
    let sp = line.iter().position(|&b| b == b' ')?;
    let rest = &line[sp + 1..];
    if rest.len() < 3 {
        return None;
    }
    std::str::from_utf8(&rest[..3]).ok()?.parse().ok()
}

/// The hex chunk size from a chunk-size line (extensions after `;`
/// ignored).
fn parse_chunk_size(line: &[u8]) -> Option<u64> {
    let hex = line.split(|&b| b == b';').next()?;
    let hex = std::str::from_utf8(hex).ok()?.trim();
    if hex.is_empty() || hex.len() > 16 {
        return None;
    }
    u64::from_str_radix(hex, 16).ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decompress::gzip;

    const LIMIT: usize = 1 << 16;

    fn push_all(d: &mut Http1Decoder, data: &[u8], limit: usize) -> DecodeOut {
        let mut out = DecodeOut::default();
        d.push(data, limit, &mut out);
        out
    }

    fn body_bytes(out: &DecodeOut) -> Vec<u8> {
        out.units
            .iter()
            .filter(|u| u.ctx.field == L7Field::Body)
            .flat_map(|u| u.bytes.iter().copied())
            .collect()
    }

    #[test]
    fn content_length_body_streams_with_reset() {
        let mut d = Http1Decoder::new(L7Direction::ClientToServer);
        let msg = b"POST /u HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello";
        let out = push_all(&mut d, msg, LIMIT);
        assert_eq!(out.units.len(), 2);
        assert_eq!(out.units[0].ctx.field, L7Field::Header);
        assert_eq!(out.units[1].bytes, b"hello");
        assert_eq!(out.units[1].slot, Some(SLOT_HTTP_BODY));
        assert!(out.units[1].reset);
        // Next keep-alive message resets the body slot again.
        let out2 = push_all(
            &mut d,
            b"POST /u HTTP/1.1\r\nContent-Length: 2\r\n\r\nok",
            LIMIT,
        );
        assert!(out2.units[1].reset);
    }

    #[test]
    fn split_delivery_emits_resumable_units() {
        let mut d = Http1Decoder::new(L7Direction::ClientToServer);
        let msg = b"POST /u HTTP/1.1\r\nContent-Length: 10\r\n\r\nhelloworld";
        let mut outs = Vec::new();
        for b in msg.iter() {
            outs.push(push_all(&mut d, &[*b], LIMIT));
        }
        let body: Vec<u8> = outs.iter().flat_map(body_bytes).collect();
        assert_eq!(body, b"helloworld");
        let resets: Vec<bool> = outs
            .iter()
            .flat_map(|o| o.units.iter())
            .filter(|u| u.ctx.field == L7Field::Body)
            .map(|u| u.reset)
            .collect();
        assert!(resets[0]);
        assert!(resets[1..].iter().all(|r| !r));
    }

    #[test]
    fn chunked_body_is_dechunked() {
        let mut d = Http1Decoder::new(L7Direction::ServerToClient);
        let msg = b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n\
                    5\r\nhello\r\n6;ext=1\r\n world\r\n0\r\n\r\n";
        let out = push_all(&mut d, msg, LIMIT);
        assert_eq!(body_bytes(&out), b"hello world");
        assert_eq!(out.errors, 0);
        assert!(!out.failed_open);
        assert_eq!(d.state, HState::Headers);
    }

    #[test]
    fn chunked_gzip_body_decompresses_at_message_end() {
        let plain = b"the secret is EVILPATTERN inside".to_vec();
        let gz = gzip(&plain);
        let mut msg = format!(
            "HTTP/1.1 200 OK\r\nContent-Encoding: gzip\r\nTransfer-Encoding: chunked\r\n\r\n{:x}\r\n",
            gz.len()
        )
        .into_bytes();
        msg.extend_from_slice(&gz);
        msg.extend_from_slice(b"\r\n0\r\n\r\n");
        let mut d = Http1Decoder::new(L7Direction::ServerToClient);
        let out = push_all(&mut d, &msg, LIMIT);
        assert_eq!(body_bytes(&out), plain);
        assert_eq!(out.errors, 0);
    }

    #[test]
    fn corrupt_gzip_body_fails_open_to_raw() {
        let msg = b"HTTP/1.1 200 OK\r\nContent-Encoding: gzip\r\nContent-Length: 4\r\n\r\nJUNK";
        let mut d = Http1Decoder::new(L7Direction::ServerToClient);
        let out = push_all(&mut d, msg, LIMIT);
        assert_eq!(out.errors, 1);
        assert_eq!(out.raw, vec![b"JUNK".to_vec()]);
        assert!(body_bytes(&out).is_empty());
        // Framing survives: the next message still parses.
        assert_eq!(d.state, HState::Headers);
    }

    #[test]
    fn gzip_input_past_the_limit_is_buffered_up_to_it() {
        let gz = gzip(b"0123456789abcdefghijklmnopqrstuvwxyz");
        let mut msg = format!(
            "HTTP/1.1 200 OK\r\nContent-Encoding: gzip\r\nContent-Length: {}\r\n\r\n",
            gz.len()
        )
        .into_bytes();
        msg.extend_from_slice(&gz);
        let mut d = Http1Decoder::new(L7Direction::ServerToClient);
        // Fed in two runs, the second crossing the 16-byte limit.
        let mut out = push_all(&mut d, &msg[..msg.len() - gz.len() + 10], 16);
        d.push(&msg[msg.len() - gz.len() + 10..], 16, &mut out);
        // The cut member does not inflate: its first 16 bytes go raw.
        assert_eq!(out.errors, 1);
        assert_eq!(out.raw, vec![gz[..16].to_vec()]);
        assert_eq!(d.state, HState::Headers);
    }

    #[test]
    fn plain_body_truncates_at_limit_and_keeps_framing() {
        let mut d = Http1Decoder::new(L7Direction::ClientToServer);
        let msg = b"POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\n0123456789GET";
        let out = push_all(&mut d, msg, 4);
        assert_eq!(body_bytes(&out), b"0123");
        assert_eq!(out.truncations, vec![4]);
        assert_eq!(d.state, HState::Headers);
    }

    #[test]
    fn bad_chunk_size_fails_open() {
        let mut d = Http1Decoder::new(L7Direction::ServerToClient);
        let msg = b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\nzz\r\npayload";
        let out = push_all(&mut d, msg, LIMIT);
        assert!(out.failed_open);
        assert_eq!(out.errors, 1);
        assert_eq!(out.raw, vec![b"zz\r\npayload".to_vec()]);
    }

    #[test]
    fn upgrade_request_hands_off_leftover() {
        let mut d = Http1Decoder::new(L7Direction::ClientToServer);
        let msg =
            b"GET /chat HTTP/1.1\r\nUpgrade: websocket\r\nConnection: Upgrade\r\n\r\n\x81\x85";
        let out = push_all(&mut d, msg, LIMIT);
        assert_eq!(out.upgrade_ws.as_deref(), Some(&b"\x81\x85"[..]));
        assert_eq!(out.units.len(), 1);
    }

    #[test]
    fn upgrade_response_requires_101() {
        let mut d = Http1Decoder::new(L7Direction::ServerToClient);
        let ok = b"HTTP/1.1 101 Switching Protocols\r\nUpgrade: websocket\r\n\r\n";
        assert!(push_all(&mut d, ok, LIMIT).upgrade_ws.is_some());
        let mut d2 = Http1Decoder::new(L7Direction::ServerToClient);
        let no = b"HTTP/1.1 200 OK\r\nUpgrade: websocket\r\nContent-Length: 0\r\n\r\n";
        assert!(push_all(&mut d2, no, LIMIT).upgrade_ws.is_none());
    }

    #[test]
    fn response_without_framing_reads_to_eof() {
        let mut d = Http1Decoder::new(L7Direction::ServerToClient);
        let out = push_all(&mut d, b"HTTP/1.1 200 OK\r\n\r\nstream", LIMIT);
        assert_eq!(body_bytes(&out), b"stream");
        let out2 = push_all(&mut d, b" more", LIMIT);
        assert_eq!(body_bytes(&out2), b" more");
    }

    /// Header units, the joined body and the error tally of `msg` fed
    /// in runs of the given lengths (the rest in one last run).
    fn decode_in_runs(msg: &[u8], runs: &[usize]) -> (Vec<Vec<u8>>, Vec<u8>, u64) {
        let mut d = Http1Decoder::new(L7Direction::ServerToClient);
        let mut out = DecodeOut::default();
        let mut rest = msg;
        for &n in runs {
            let (run, tail) = rest.split_at(n.min(rest.len()));
            d.push(run, LIMIT, &mut out);
            rest = tail;
        }
        d.push(rest, LIMIT, &mut out);
        assert!(!out.failed_open);
        let headers = out
            .units
            .iter()
            .filter(|u| u.ctx.field == L7Field::Header)
            .map(|u| u.bytes.clone())
            .collect();
        (headers, body_bytes(&out), out.errors)
    }

    #[test]
    fn terminator_search_resumes_across_runs() {
        // A long header block, a chunk-size line with an extension, a
        // trailer section, then a second message.
        let mut msg = b"HTTP/1.1 200 OK\r\nX-Long: ".to_vec();
        msg.extend(std::iter::repeat_n(b'v', 300));
        msg.extend_from_slice(
            b"\r\nTransfer-Encoding: chunked\r\n\r\n5;ext=abcdef\r\nhello\r\n0\r\n\
              X-Trailer: t\r\n\r\nHTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok",
        );
        let whole = decode_in_runs(&msg, &[]);
        assert_eq!(whole.0.len(), 3, "two header blocks and a trailer section");
        assert_eq!(whole.1, b"hellook");
        assert_eq!(whole.2, 0);
        assert_eq!(decode_in_runs(&msg, &vec![1; msg.len()]), whole);
        for cut in 0..=msg.len() {
            assert_eq!(decode_in_runs(&msg, &[cut]), whole, "cut at {cut}");
        }
    }

    #[test]
    fn header_helpers_parse() {
        let block = b"HTTP/1.1 200 OK\r\nContent-Encoding:  GZIP \r\nTransfer-Encoding: foo, Chunked\r\n\r\n";
        assert!(contains_token(
            header_value(block, b"content-encoding").unwrap(),
            b"gzip"
        ));
        assert!(contains_token(
            header_value(block, b"transfer-encoding").unwrap(),
            b"chunked"
        ));
        assert_eq!(status_code(block), Some(200));
        assert_eq!(parse_chunk_size(b"1a;name=v"), Some(26));
        assert_eq!(parse_chunk_size(b"zz"), None);
    }
}
