//! The bit-at-a-time DEFLATE decoder `dpi_core::decompress` ran before
//! its table-driven one: a reference that output and error variants are
//! compared against, the way `KernelKind::Naive` is the scan kernels'
//! reference. Byte-at-a-time CRC-32 and the same gzip framing.

use dpi_core::{GzipError, InflateError};

/// Inflates a raw DEFLATE stream, producing at most `max_out` bytes.
pub fn inflate(data: &[u8], max_out: usize) -> Result<Vec<u8>, InflateError> {
    inflate_impl(data, max_out, false).map(|(out, _)| out)
}

/// The truncate-and-flag form of [`inflate`].
pub fn inflate_capped(data: &[u8], max_out: usize) -> Result<(Vec<u8>, bool), InflateError> {
    inflate_impl(data, max_out, true)
}

/// Decompresses a gzip member, verifying the CRC32 and length trailers.
pub fn gunzip(data: &[u8], max_out: usize) -> Result<Vec<u8>, GzipError> {
    gunzip_impl(data, max_out, false).map(|(out, _)| out)
}

/// The truncate-and-flag form of [`gunzip`].
pub fn gunzip_capped(data: &[u8], max_out: usize) -> Result<(Vec<u8>, bool), GzipError> {
    gunzip_impl(data, max_out, true)
}

/// LSB-first bit reader over the compressed stream.
struct BitReader<'a> {
    data: &'a [u8],
    pos: usize,
    bit: u32,
    acc: u32,
}

impl<'a> BitReader<'a> {
    fn new(data: &'a [u8]) -> BitReader<'a> {
        BitReader {
            data,
            pos: 0,
            bit: 0,
            acc: 0,
        }
    }

    fn bits(&mut self, n: u32) -> Result<u32, InflateError> {
        while self.bit < n {
            let byte = *self.data.get(self.pos).ok_or(InflateError::Truncated)?;
            self.acc |= u32::from(byte) << self.bit;
            self.bit += 8;
            self.pos += 1;
        }
        let v = self.acc & ((1u32 << n) - 1);
        self.acc >>= n;
        self.bit -= n;
        Ok(v)
    }

    fn align_byte(&mut self) {
        self.acc = 0;
        self.bit = 0;
    }

    fn take_bytes(&mut self, n: usize) -> Result<&'a [u8], InflateError> {
        if self.pos + n > self.data.len() {
            return Err(InflateError::Truncated);
        }
        let s = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }
}

/// A canonical Huffman decoding table (counts + symbols per length).
struct Huffman {
    /// count[len] = number of codes of that length (len 1..=15).
    count: [u16; 16],
    /// Symbols sorted by (length, symbol).
    symbols: Vec<u16>,
}

impl Huffman {
    fn from_lengths(lengths: &[u8]) -> Result<Huffman, InflateError> {
        let mut count = [0u16; 16];
        for &l in lengths {
            if l > 15 {
                return Err(InflateError::BadHuffmanTable);
            }
            count[usize::from(l)] += 1;
        }
        count[0] = 0;
        // Check the code is not over-subscribed.
        let mut left = 1i32;
        for &c in &count[1..16] {
            left <<= 1;
            left -= i32::from(c);
            if left < 0 {
                return Err(InflateError::BadHuffmanTable);
            }
        }
        // Offsets per length, then place symbols.
        let mut offs = [0u16; 16];
        for l in 1..15 {
            offs[l + 1] = offs[l] + count[l];
        }
        let mut symbols = vec![0u16; lengths.iter().filter(|&&l| l > 0).count()];
        for (sym, &l) in lengths.iter().enumerate() {
            if l != 0 {
                symbols[usize::from(offs[usize::from(l)])] = sym as u16;
                offs[usize::from(l)] += 1;
            }
        }
        Ok(Huffman { count, symbols })
    }

    /// Decodes one symbol (bit-by-bit canonical decoding).
    fn decode(&self, r: &mut BitReader<'_>) -> Result<u16, InflateError> {
        let mut code = 0i32;
        let mut first = 0i32;
        let mut index = 0i32;
        for len in 1..16 {
            code |= r.bits(1)? as i32;
            let cnt = i32::from(self.count[len]);
            if code - cnt < first {
                return Ok(self.symbols[(index + (code - first)) as usize]);
            }
            index += cnt;
            first += cnt;
            first <<= 1;
            code <<= 1;
        }
        Err(InflateError::BadSymbol)
    }
}

const LENGTH_BASE: [u16; 29] = [
    3, 4, 5, 6, 7, 8, 9, 10, 11, 13, 15, 17, 19, 23, 27, 31, 35, 43, 51, 59, 67, 83, 99, 115, 131,
    163, 195, 227, 258,
];
const LENGTH_EXTRA: [u32; 29] = [
    0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3, 4, 4, 4, 4, 5, 5, 5, 5, 0,
];
const DIST_BASE: [u16; 30] = [
    1, 2, 3, 4, 5, 7, 9, 13, 17, 25, 33, 49, 65, 97, 129, 193, 257, 385, 513, 769, 1025, 1537,
    2049, 3073, 4097, 6145, 8193, 12289, 16385, 24577,
];
const DIST_EXTRA: [u32; 30] = [
    0, 0, 0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8, 8, 9, 9, 10, 10, 11, 11, 12, 12, 13,
    13,
];
/// Order of code-length-code lengths in a dynamic block header.
const CLC_ORDER: [usize; 19] = [
    16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15,
];

fn fixed_litlen_lengths() -> Vec<u8> {
    let mut l = vec![8u8; 288];
    for x in l.iter_mut().take(256).skip(144) {
        *x = 9;
    }
    for x in l.iter_mut().take(280).skip(256) {
        *x = 7;
    }
    l
}

fn inflate_impl(
    data: &[u8],
    max_out: usize,
    truncate: bool,
) -> Result<(Vec<u8>, bool), InflateError> {
    let mut r = BitReader::new(data);
    let mut out: Vec<u8> = Vec::new();
    loop {
        let bfinal = r.bits(1)?;
        let btype = r.bits(2)?;
        match btype {
            0 => {
                // Stored.
                r.align_byte();
                let header = r.take_bytes(4)?;
                let len = u16::from_le_bytes([header[0], header[1]]);
                let nlen = u16::from_le_bytes([header[2], header[3]]);
                if len != !nlen {
                    return Err(InflateError::BadStoredLength);
                }
                let body = r.take_bytes(usize::from(len))?;
                if out.len() + body.len() > max_out {
                    if !truncate {
                        return Err(InflateError::OutputLimit);
                    }
                    let room = max_out - out.len();
                    out.extend_from_slice(&body[..room]);
                    return Ok((out, true));
                }
                out.extend_from_slice(body);
            }
            1 | 2 => {
                let (litlen, dist) = if btype == 1 {
                    (
                        Huffman::from_lengths(&fixed_litlen_lengths())?,
                        Huffman::from_lengths(&[5u8; 30])?,
                    )
                } else {
                    read_dynamic_tables(&mut r)?
                };
                if inflate_block(&mut r, &litlen, &dist, &mut out, max_out, truncate)? {
                    return Ok((out, true));
                }
            }
            _ => return Err(InflateError::BadBlockType),
        }
        if bfinal == 1 {
            return Ok((out, false));
        }
    }
}

fn read_dynamic_tables(r: &mut BitReader<'_>) -> Result<(Huffman, Huffman), InflateError> {
    let hlit = r.bits(5)? as usize + 257;
    let hdist = r.bits(5)? as usize + 1;
    let hclen = r.bits(4)? as usize + 4;
    if hlit > 286 || hdist > 30 {
        return Err(InflateError::BadHuffmanTable);
    }
    let mut clc_lengths = [0u8; 19];
    for &idx in CLC_ORDER.iter().take(hclen) {
        clc_lengths[idx] = r.bits(3)? as u8;
    }
    let clc = Huffman::from_lengths(&clc_lengths)?;

    let mut lengths = Vec::with_capacity(hlit + hdist);
    while lengths.len() < hlit + hdist {
        let sym = clc.decode(r)?;
        match sym {
            0..=15 => lengths.push(sym as u8),
            16 => {
                let prev = *lengths.last().ok_or(InflateError::BadHuffmanTable)?;
                let n = 3 + r.bits(2)? as usize;
                lengths.extend(std::iter::repeat_n(prev, n));
            }
            17 => {
                let n = 3 + r.bits(3)? as usize;
                lengths.extend(std::iter::repeat_n(0u8, n));
            }
            18 => {
                let n = 11 + r.bits(7)? as usize;
                lengths.extend(std::iter::repeat_n(0u8, n));
            }
            _ => return Err(InflateError::BadSymbol),
        }
    }
    if lengths.len() != hlit + hdist {
        return Err(InflateError::BadHuffmanTable);
    }
    let litlen = Huffman::from_lengths(&lengths[..hlit])?;
    let dist = Huffman::from_lengths(&lengths[hlit..])?;
    Ok((litlen, dist))
}

/// Decodes one compressed block into `out`. Returns whether the output
/// bound truncated the stream (only possible with `truncate`; without
/// it the bound is an error).
fn inflate_block(
    r: &mut BitReader<'_>,
    litlen: &Huffman,
    dist: &Huffman,
    out: &mut Vec<u8>,
    max_out: usize,
    truncate: bool,
) -> Result<bool, InflateError> {
    loop {
        let sym = litlen.decode(r)?;
        match sym {
            0..=255 => {
                if out.len() >= max_out {
                    if truncate {
                        return Ok(true);
                    }
                    return Err(InflateError::OutputLimit);
                }
                out.push(sym as u8);
            }
            256 => return Ok(false),
            257..=285 => {
                let li = usize::from(sym - 257);
                let len = usize::from(LENGTH_BASE[li]) + r.bits(LENGTH_EXTRA[li])? as usize;
                let dsym = dist.decode(r)?;
                if usize::from(dsym) >= DIST_BASE.len() {
                    return Err(InflateError::BadSymbol);
                }
                let di = usize::from(dsym);
                let d = usize::from(DIST_BASE[di]) + r.bits(DIST_EXTRA[di])? as usize;
                if d > out.len() {
                    return Err(InflateError::BadDistance);
                }
                let mut len = len;
                let mut hit_cap = false;
                if out.len() + len > max_out {
                    if !truncate {
                        return Err(InflateError::OutputLimit);
                    }
                    // Copy the part of the back-reference that fits.
                    len = max_out - out.len();
                    hit_cap = true;
                }
                let start = out.len() - d;
                for k in 0..len {
                    let b = out[start + k];
                    out.push(b);
                }
                if hit_cap {
                    return Ok(true);
                }
            }
            _ => return Err(InflateError::BadSymbol),
        }
    }
}

/// CRC-32 (IEEE 802.3) with a compile-time table.
fn crc32(data: &[u8]) -> u32 {
    const TABLE: [u32; 256] = {
        let mut t = [0u32; 256];
        let mut i = 0;
        while i < 256 {
            let mut c = i as u32;
            let mut k = 0;
            while k < 8 {
                c = if c & 1 != 0 {
                    0xedb8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
                k += 1;
            }
            t[i] = c;
            i += 1;
        }
        t
    };
    let mut c = 0xffff_ffffu32;
    for &b in data {
        c = TABLE[usize::from((c as u8) ^ b)] ^ (c >> 8);
    }
    !c
}

fn gunzip_impl(data: &[u8], max_out: usize, truncate: bool) -> Result<(Vec<u8>, bool), GzipError> {
    if data.len() < 18 || data[0] != 0x1f || data[1] != 0x8b || data[2] != 0x08 {
        return Err(GzipError::BadFraming);
    }
    let flags = data[3];
    let mut off = 10usize;
    if flags & 0x04 != 0 {
        // FEXTRA: u16le length + payload.
        if data.len() < off + 2 {
            return Err(GzipError::BadFraming);
        }
        let xlen = usize::from(u16::from_le_bytes([data[off], data[off + 1]]));
        off += 2 + xlen;
    }
    for bit in [0x08u8, 0x10] {
        // FNAME / FCOMMENT: zero-terminated strings.
        if flags & bit != 0 {
            let end = data[off.min(data.len())..]
                .iter()
                .position(|&b| b == 0)
                .ok_or(GzipError::BadFraming)?;
            off += end + 1;
        }
    }
    if flags & 0x02 != 0 {
        off += 2; // FHCRC
    }
    if data.len() < off + 8 {
        return Err(GzipError::BadFraming);
    }
    let body = &data[off..data.len() - 8];
    let (out, truncated) = inflate_impl(body, max_out, truncate).map_err(GzipError::Deflate)?;
    if truncated {
        // A decoded prefix cannot satisfy the trailers; the flag itself
        // is the caller's integrity signal.
        return Ok((out, true));
    }
    let trailer = &data[data.len() - 8..];
    let want_crc = u32::from_le_bytes([trailer[0], trailer[1], trailer[2], trailer[3]]);
    let want_len = u32::from_le_bytes([trailer[4], trailer[5], trailer[6], trailer[7]]);
    if out.len() as u32 != want_len {
        return Err(GzipError::BadLength);
    }
    if crc32(&out) != want_crc {
        return Err(GzipError::BadCrc);
    }
    Ok((out, false))
}
