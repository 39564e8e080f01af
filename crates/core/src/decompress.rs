//! DEFLATE (RFC 1951) decompression — the "decompress once" substrate.
//!
//! §1 of the paper: "Since DPI is performed once, the effect of
//! decompression or decryption, which usually takes place prior to the
//! DPI phase, may be reduced significantly, as these heavy processes are
//! executed only once for each packet." HTTP payloads are routinely
//! `Content-Encoding: deflate`/`gzip`; without the DPI service every
//! middlebox on the chain inflates the same bytes again.
//!
//! [`inflate`] is a complete RFC 1951 decoder (stored, fixed-Huffman and
//! dynamic-Huffman blocks) with an explicit output bound — a DPI service
//! must not be zip-bombable. It decodes in table steps: a 64-bit bit
//! reader refills up to 8 bytes at once, and each Huffman code of up to
//! 10 bits (every fixed-block code) is one load from a table indexed by
//! the next stream bits, as many as the code's longest (at most 10). The
//! canonical bit-at-a-time walk is the one slow path: it decodes longer
//! codes, and a code cut by the end of the input or unused by the table,
//! with the exact `Truncated` or `BadSymbol` error. The fixed-block
//! tables are built once; a dynamic block's live on the stack; [`gunzip`]
//! sizes its output from the member's ISIZE trailer, so a well-formed
//! member inflates in one allocation. [`deflate_stored`] and
//! [`deflate_fixed`] produce valid DEFLATE streams (the latter with
//! fixed-Huffman literals plus distance-1 run-length back-references),
//! used by the workload generators and tests; compression *ratio* is not
//! the point, validity and coverage of the decoder paths are.

use std::sync::OnceLock;

/// Decompression errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InflateError {
    /// Input ended mid-stream.
    Truncated,
    /// Reserved block type 11.
    BadBlockType,
    /// Stored block LEN/NLEN mismatch.
    BadStoredLength,
    /// Over-subscribed or invalid Huffman code lengths.
    BadHuffmanTable,
    /// A symbol that cannot appear (e.g. undefined length code).
    BadSymbol,
    /// A back-reference before the start of output.
    BadDistance,
    /// Output would exceed the caller's bound (zip-bomb guard).
    OutputLimit,
}

impl std::fmt::Display for InflateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            InflateError::Truncated => "truncated deflate stream",
            InflateError::BadBlockType => "reserved block type",
            InflateError::BadStoredLength => "stored block length check failed",
            InflateError::BadHuffmanTable => "invalid huffman table",
            InflateError::BadSymbol => "invalid symbol",
            InflateError::BadDistance => "distance before output start",
            InflateError::OutputLimit => "output limit exceeded",
        };
        f.write_str(s)
    }
}

impl std::error::Error for InflateError {}

/// LSB-first bit reader over the compressed stream: a 64-bit window
/// that refills up to 8 bytes at once.
struct BitReader<'a> {
    data: &'a [u8],
    /// Next byte of `data` to load into `acc`.
    pos: usize,
    /// Stream bits, next bit lowest. Above the `bit` counted ones it may
    /// hold part of `data[pos]` from a wide load; a later load ORs the
    /// same bits in again.
    acc: u64,
    /// Bits of `acc` that are loaded and unconsumed (0..=63).
    bit: u32,
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

    /// Tops `acc` up to at least 56 bits, or to the end of the input.
    fn refill(&mut self) {
        if let Some(word) = self.data.get(self.pos..self.pos + 8) {
            let word = u64::from_le_bytes(word.try_into().expect("8-byte slice"));
            self.acc |= word << self.bit;
            let whole = (63 - self.bit) / 8;
            self.pos += whole as usize;
            self.bit += whole * 8;
        } else {
            while self.bit <= 56 {
                let Some(&byte) = self.data.get(self.pos) else {
                    break;
                };
                self.acc |= u64::from(byte) << self.bit;
                self.bit += 8;
                self.pos += 1;
            }
        }
    }

    /// Drops `n` (≤ `bit`) bits.
    fn consume(&mut self, n: u32) {
        self.acc >>= n;
        self.bit -= n;
    }

    /// Reads an `n`-bit (≤ 16) field.
    fn bits(&mut self, n: u32) -> Result<u32, InflateError> {
        if self.bit < n {
            self.refill();
            if self.bit < n {
                return Err(InflateError::Truncated);
            }
        }
        let v = (self.acc & ((1u64 << n) - 1)) as u32;
        self.consume(n);
        Ok(v)
    }

    /// Drops the rest of the current byte and hands the whole bytes
    /// still in `acc` back to `data`.
    fn align_byte(&mut self) {
        self.pos -= (self.bit / 8) as usize;
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

/// Most stream bits one [`Huffman::table`] lookup covers.
const TABLE_BITS: u32 = 10;
/// Largest alphabet: the fixed literal/length code's 288 symbols.
const MAX_SYMBOLS: usize = 288;

/// A canonical Huffman decoding table: a direct-lookup table for codes
/// of up to [`TABLE_BITS`] bits, and counts + symbols per length for
/// the bit-at-a-time walk that decodes the rest.
struct Huffman {
    /// count[len] = number of codes of that length (len 1..=15).
    count: [u16; 16],
    /// Symbols sorted by (length, symbol); the first `count[1..]` sum
    /// entries are used.
    symbols: [u16; MAX_SYMBOLS],
    /// Indexed by the next `table_bits` stream bits: `len << 9 | symbol`
    /// for a code of `len` ≤ `table_bits` bits, 0 where no such code
    /// starts (a longer code, or none). Entries past `1 << table_bits`
    /// are unused.
    table: [u16; 1 << TABLE_BITS],
    /// The longest code's length, capped at `TABLE_BITS`: a short
    /// alphabet (a dynamic block's code-length code) fills a short table.
    table_bits: u32,
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
        // Offsets and first canonical codes per length, then place
        // symbols and fill the lookup table.
        let mut offs = [0u16; 16];
        let mut next_code = [0u16; 16];
        for l in 1..15 {
            offs[l + 1] = offs[l] + count[l];
            next_code[l + 1] = (next_code[l] + count[l]) << 1;
        }
        let longest = (1..16).rev().find(|&l| count[l] != 0).unwrap_or(0) as u32;
        let table_bits = longest.min(TABLE_BITS);
        let mut symbols = [0u16; MAX_SYMBOLS];
        let mut table = [0u16; 1 << TABLE_BITS];
        for (sym, &l) in lengths.iter().enumerate() {
            if l == 0 {
                continue;
            }
            let l = usize::from(l);
            symbols[usize::from(offs[l])] = sym as u16;
            offs[l] += 1;
            let code = next_code[l];
            next_code[l] += 1;
            if l as u32 <= table_bits {
                // Codes go on the wire MSB first; the table is indexed
                // by stream bits, LSB first.
                let first = usize::from(code.reverse_bits() >> (16 - l));
                for slot in table[..1 << table_bits]
                    .iter_mut()
                    .skip(first)
                    .step_by(1 << l)
                {
                    *slot = ((l as u16) << 9) | sym as u16;
                }
            }
        }
        Ok(Huffman {
            count,
            symbols,
            table,
            table_bits,
        })
    }

    /// Decodes one symbol: one table lookup for a code of up to
    /// `table_bits` bits with every bit present, the walk otherwise.
    fn decode(&self, r: &mut BitReader<'_>) -> Result<u16, InflateError> {
        if r.bit < TABLE_BITS {
            r.refill();
        }
        let entry = self.table[(r.acc & ((1 << self.table_bits) - 1)) as usize];
        let len = u32::from(entry >> 9);
        if len != 0 && len <= r.bit {
            r.consume(len);
            return Ok(entry & 0x1ff);
        }
        self.decode_walk(r)
    }

    /// Canonical bit-at-a-time decoding: codes longer than `TABLE_BITS`
    /// bits, and the exact error for a cut stream or an unused code.
    fn decode_walk(&self, r: &mut BitReader<'_>) -> Result<u16, InflateError> {
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

/// The fixed-block literal/length and distance tables (RFC 1951
/// §3.2.6), built on first use.
fn fixed_tables() -> &'static (Huffman, Huffman) {
    static FIXED: OnceLock<(Huffman, Huffman)> = OnceLock::new();
    FIXED.get_or_init(|| {
        let mut litlen = [8u8; 288];
        litlen[144..256].fill(9);
        litlen[256..280].fill(7);
        (
            Huffman::from_lengths(&litlen).expect("fixed code is complete"),
            Huffman::from_lengths(&[5u8; 30]).expect("fixed code is complete"),
        )
    })
}

/// Inflates a raw DEFLATE stream, producing at most `max_out` bytes.
pub fn inflate(data: &[u8], max_out: usize) -> Result<Vec<u8>, InflateError> {
    inflate_impl(data, max_out, false, Vec::new()).map(|(out, _)| out)
}

/// Like [`inflate`], but a stream expanding past `max_out` is *truncated
/// and flagged* instead of rejected — the decompression-bomb guard for
/// inspection paths that must keep scanning what fits the budget (the
/// L7 layer) rather than drop the payload. Returns the decoded prefix
/// and whether truncation happened.
pub fn inflate_capped(data: &[u8], max_out: usize) -> Result<(Vec<u8>, bool), InflateError> {
    inflate_impl(data, max_out, true, Vec::new())
}

/// Decodes into `out` (empty; its capacity is the caller's size hint).
fn inflate_impl(
    data: &[u8],
    max_out: usize,
    truncate: bool,
    mut out: Vec<u8>,
) -> Result<(Vec<u8>, bool), InflateError> {
    let mut r = BitReader::new(data);
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
            1 => {
                let (litlen, dist) = fixed_tables();
                if inflate_block(&mut r, litlen, dist, &mut out, max_out, truncate)? {
                    return Ok((out, true));
                }
            }
            2 => {
                let (litlen, dist) = read_dynamic_tables(&mut r)?;
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

    let total = hlit + hdist;
    let mut lengths = [0u8; 286 + 30];
    let mut n = 0;
    while n < total {
        let sym = clc.decode(r)?;
        let (len, repeat) = match sym {
            0..=15 => (sym as u8, 1),
            16 => {
                let prev = *lengths[..n].last().ok_or(InflateError::BadHuffmanTable)?;
                (prev, 3 + r.bits(2)? as usize)
            }
            17 => (0, 3 + r.bits(3)? as usize),
            18 => (0, 11 + r.bits(7)? as usize),
            _ => return Err(InflateError::BadSymbol),
        };
        // A repeat running past the declared count is a bad table.
        if n + repeat > total {
            return Err(InflateError::BadHuffmanTable);
        }
        lengths[n..n + repeat].fill(len);
        n += repeat;
    }
    let litlen = Huffman::from_lengths(&lengths[..hlit])?;
    let dist = Huffman::from_lengths(&lengths[hlit..total])?;
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
                // One copy when the source lies wholly behind the output's
                // end; an overlapping one repeats the last `d` bytes, so
                // it doubles the copied span each step.
                let start = out.len() - d;
                let mut left = len;
                while left > 0 {
                    let n = left.min(out.len() - start);
                    out.extend_from_within(start..start + n);
                    left -= n;
                }
                if hit_cap {
                    return Ok(true);
                }
            }
            _ => return Err(InflateError::BadSymbol),
        }
    }
}

// ---------------------------------------------------------------------
// Compressors (valid DEFLATE producers for workloads and tests).
// ---------------------------------------------------------------------

/// Wraps `data` in DEFLATE stored blocks — a valid, ratio-1 stream.
pub fn deflate_stored(data: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(data.len() + data.len() / 0xffff * 5 + 8);
    let mut chunks = data.chunks(0xffff).peekable();
    if data.is_empty() {
        out.extend_from_slice(&[0x01, 0x00, 0x00, 0xff, 0xff]);
        return out;
    }
    while let Some(chunk) = chunks.next() {
        let last = chunks.peek().is_none();
        out.push(if last { 0x01 } else { 0x00 }); // BFINAL + BTYPE=00
        let len = chunk.len() as u16;
        out.extend_from_slice(&len.to_le_bytes());
        out.extend_from_slice(&(!len).to_le_bytes());
        out.extend_from_slice(chunk);
    }
    out
}

/// LSB-first bit writer.
struct BitWriter {
    out: Vec<u8>,
    acc: u32,
    bit: u32,
}

impl BitWriter {
    fn new() -> BitWriter {
        BitWriter {
            out: Vec::new(),
            acc: 0,
            bit: 0,
        }
    }

    /// Writes `n` bits LSB-first (non-Huffman fields).
    fn bits(&mut self, v: u32, n: u32) {
        self.acc |= v << self.bit;
        self.bit += n;
        while self.bit >= 8 {
            self.out.push((self.acc & 0xff) as u8);
            self.acc >>= 8;
            self.bit -= 8;
        }
    }

    /// Writes a Huffman code: codes go on the wire MSB-of-code first.
    fn code(&mut self, code: u32, n: u32) {
        for i in (0..n).rev() {
            self.bits((code >> i) & 1, 1);
        }
    }

    fn finish(mut self) -> Vec<u8> {
        if self.bit > 0 {
            self.out.push((self.acc & 0xff) as u8);
        }
        self.out
    }
}

/// Fixed-Huffman code for a literal/length symbol.
fn fixed_code(sym: u16) -> (u32, u32) {
    match sym {
        0..=143 => (0x30 + u32::from(sym), 8),
        144..=255 => (0x190 + u32::from(sym - 144), 9),
        256..=279 => (u32::from(sym - 256), 7),
        _ => (0xc0 + u32::from(sym - 280), 8),
    }
}

/// Compresses with a single fixed-Huffman block: literals plus
/// distance-1 back-references for byte runs (RLE). Valid DEFLATE,
/// exercises both the literal and the length/distance decode paths.
pub fn deflate_fixed(data: &[u8]) -> Vec<u8> {
    let mut w = BitWriter::new();
    w.bits(1, 1); // BFINAL
    w.bits(1, 2); // BTYPE = 01 fixed
    let mut i = 0;
    while i < data.len() {
        // Measure the run of bytes equal to data[i].
        let b = data[i];
        let mut run = 1;
        while i + run < data.len() && data[i + run] == b && run < 259 {
            run += 1;
        }
        if run >= 4 {
            // Literal, then a <length, dist 1> copy of the rest of the run.
            let (c, n) = fixed_code(u16::from(b));
            w.code(c, n);
            let copy = (run - 1).min(258);
            // Find the largest length code ≤ copy.
            let li = LENGTH_BASE
                .iter()
                .rposition(|&base| usize::from(base) <= copy)
                .expect("copy ≥ 3");
            let base = usize::from(LENGTH_BASE[li]);
            let extra_bits = LENGTH_EXTRA[li];
            // Clamp to what the extra bits can express.
            let max_span = base + ((1usize << extra_bits) - 1);
            let span = copy.min(max_span);
            let (c, n) = fixed_code(257 + li as u16);
            w.code(c, n);
            w.bits((span - base) as u32, extra_bits);
            // Distance code 0 (=1), 5 bits, no extra.
            w.code(0, 5);
            i += 1 + span;
        } else {
            let (c, n) = fixed_code(u16::from(b));
            w.code(c, n);
            i += 1;
        }
    }
    let (c, n) = fixed_code(256);
    w.code(c, n);
    w.finish()
}

// ---------------------------------------------------------------------
// gzip (RFC 1952) framing — what HTTP `Content-Encoding: gzip` actually
// carries: a header, a raw DEFLATE stream, CRC32 and length trailers.
// ---------------------------------------------------------------------

/// Slicing-by-8 CRC tables: `CRC_TABLES[0]` is the byte-at-a-time
/// table, `CRC_TABLES[k][b]` the CRC of byte `b` followed by `k` zeros.
static CRC_TABLES: [[u32; 256]; 8] = {
    let mut t = [[0u32; 256]; 8];
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
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xff) as usize];
            i += 1;
        }
        k += 1;
    }
    t
};

/// CRC-32 (IEEE 802.3), eight bytes per step.
fn crc32(data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut c = 0xffff_ffffu32;
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        let lo = c ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        c = t[7][(lo & 0xff) as usize]
            ^ t[6][((lo >> 8) & 0xff) as usize]
            ^ t[5][((lo >> 16) & 0xff) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][usize::from(w[4])]
            ^ t[2][usize::from(w[5])]
            ^ t[1][usize::from(w[6])]
            ^ t[0][usize::from(w[7])];
    }
    for &b in words.remainder() {
        c = t[0][usize::from((c as u8) ^ b)] ^ (c >> 8);
    }
    !c
}

/// Errors specific to the gzip framing around [`InflateError`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GzipError {
    /// Bad magic, compression method, or truncated header/trailer.
    BadFraming,
    /// The embedded DEFLATE stream failed.
    Deflate(InflateError),
    /// The CRC32 trailer did not match the decompressed data.
    BadCrc,
    /// The ISIZE trailer did not match the decompressed length.
    BadLength,
}

impl std::fmt::Display for GzipError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GzipError::BadFraming => write!(f, "bad gzip framing"),
            GzipError::Deflate(e) => write!(f, "gzip body: {e}"),
            GzipError::BadCrc => write!(f, "gzip crc mismatch"),
            GzipError::BadLength => write!(f, "gzip length mismatch"),
        }
    }
}

impl std::error::Error for GzipError {}

/// Wraps data in a minimal gzip member (stored-block body).
pub fn gzip(data: &[u8]) -> Vec<u8> {
    let mut out = vec![
        0x1f, 0x8b, // magic
        0x08, // CM = deflate
        0x00, // no flags
        0, 0, 0, 0,    // mtime
        0x00, // XFL
        0xff, // OS = unknown
    ];
    out.extend_from_slice(&deflate_fixed(data));
    out.extend_from_slice(&crc32(data).to_le_bytes());
    out.extend_from_slice(&(data.len() as u32).to_le_bytes());
    out
}

/// Decompresses a gzip member, verifying the CRC32 and length trailers.
/// Extra header fields (FEXTRA/FNAME/FCOMMENT/FHCRC) are skipped.
pub fn gunzip(data: &[u8], max_out: usize) -> Result<Vec<u8>, GzipError> {
    gunzip_impl(data, max_out, false).map(|(out, _)| out)
}

/// Like [`gunzip`], but a member expanding past `max_out` is *truncated
/// and flagged* instead of rejected (the decompression-bomb guard).
/// The CRC32/ISIZE trailers cannot be verified against a prefix, so a
/// truncated result skips them — callers treat the flag as the signal.
pub fn gunzip_capped(data: &[u8], max_out: usize) -> Result<(Vec<u8>, bool), GzipError> {
    gunzip_impl(data, max_out, true)
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
    let trailer = &data[data.len() - 8..];
    let want_crc = u32::from_le_bytes([trailer[0], trailer[1], trailer[2], trailer[3]]);
    let want_len = u32::from_le_bytes([trailer[4], trailer[5], trailer[6], trailer[7]]);
    // ISIZE sizes the output in one allocation. It is only a hint: it is
    // capped by the bound and by DEFLATE's largest expansion (1,032:1),
    // so a lying trailer cannot buy a larger buffer than the body could
    // fill.
    let hint = (want_len as usize)
        .min(max_out)
        .min(body.len().saturating_mul(1032));
    let (out, truncated) = inflate_impl(body, max_out, truncate, Vec::with_capacity(hint))
        .map_err(GzipError::Deflate)?;
    if truncated {
        // A decoded prefix cannot satisfy the trailers; the flag itself
        // is the caller's integrity signal.
        return Ok((out, true));
    }
    if out.len() as u32 != want_len {
        return Err(GzipError::BadLength);
    }
    if crc32(&out) != want_crc {
        return Err(GzipError::BadCrc);
    }
    Ok((out, false))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_known_vectors() {
        // Standard test vector: CRC32("123456789") = 0xCBF43926.
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn gzip_round_trips() {
        for data in [b"".to_vec(), b"hello gzip world".to_vec(), vec![7u8; 5000]] {
            let z = gzip(&data);
            assert_eq!(gunzip(&z, data.len() + 1).unwrap(), data);
        }
    }

    #[test]
    fn gunzip_detects_corruption() {
        let mut z = gzip(b"protected payload");
        let n = z.len();
        z[n - 6] ^= 0xff; // corrupt the CRC trailer
        assert_eq!(gunzip(&z, 1 << 16).unwrap_err(), GzipError::BadCrc);
        let mut z = gzip(b"protected payload");
        let n = z.len();
        z[n - 1] ^= 0x01; // corrupt ISIZE
        assert_eq!(gunzip(&z, 1 << 16).unwrap_err(), GzipError::BadLength);
        assert_eq!(gunzip(b"nope", 16).unwrap_err(), GzipError::BadFraming);
    }

    #[test]
    fn stored_round_trips() {
        for data in [
            b"".to_vec(),
            b"hello world".to_vec(),
            vec![0xabu8; 100_000], // multiple stored blocks
        ] {
            let z = deflate_stored(&data);
            assert_eq!(inflate(&z, 1 << 20).unwrap(), data);
        }
    }

    #[test]
    fn fixed_literals_round_trip() {
        let data = b"The quick brown fox jumps over the lazy dog \x00\xff\x80";
        let z = deflate_fixed(data);
        assert!(z.len() < data.len() + 8);
        assert_eq!(inflate(&z, 1 << 16).unwrap(), data);
    }

    #[test]
    fn rle_backreferences_round_trip_and_compress() {
        let mut data = b"header ".to_vec();
        data.extend(vec![b'A'; 500]);
        data.extend_from_slice(b" trailer");
        let z = deflate_fixed(&data);
        assert!(z.len() < data.len() / 4, "RLE should compress runs");
        assert_eq!(inflate(&z, 1 << 16).unwrap(), data);
    }

    #[test]
    fn zip_bomb_is_bounded() {
        let data = vec![b'x'; 100_000];
        let z = deflate_fixed(&data);
        assert_eq!(inflate(&z, 1000).unwrap_err(), InflateError::OutputLimit);
    }

    #[test]
    fn capped_inflate_truncates_and_flags_a_bomb() {
        // deflate_fixed turns a run into distance-1 back-references:
        // a tiny input expanding ~200× — a bomb shape.
        let data = vec![b'x'; 100_000];
        let z = deflate_fixed(&data);
        assert!(z.len() * 50 < data.len(), "bomb input should be tiny");
        let (out, truncated) = inflate_capped(&z, 1000).unwrap();
        assert!(truncated);
        assert_eq!(out, vec![b'x'; 1000]);
        // Under the cap, capped and strict decoding agree exactly.
        let (full, t) = inflate_capped(&z, data.len()).unwrap();
        assert!(!t);
        assert_eq!(full, inflate(&z, data.len()).unwrap());
    }

    #[test]
    fn capped_gunzip_truncates_and_flags_a_bomb() {
        let data = vec![b'y'; 250_000];
        let gz = gzip(&data);
        assert!(gz.len() * 50 < data.len(), "high-ratio bomb");
        let (out, truncated) = gunzip_capped(&gz, 4096).unwrap();
        assert!(truncated);
        assert_eq!(out, vec![b'y'; 4096]);
        let (full, t) = gunzip_capped(&gz, data.len()).unwrap();
        assert!(!t);
        assert_eq!(full, data);
        // Stored-block bombs truncate through the same path.
        let z = deflate_stored(&vec![b'z'; 70_000]);
        let (out, truncated) = inflate_capped(&z, 10).unwrap();
        assert!(truncated);
        assert_eq!(out.len(), 10);
    }

    #[test]
    fn truncated_stream_errors() {
        let z = deflate_fixed(b"some reasonable content");
        for cut in 0..z.len() {
            // Prefixes must error or produce a prefix, never panic.
            let _ = inflate(&z[..cut], 1 << 16);
        }
    }

    #[test]
    fn stored_length_check_detects_corruption() {
        let mut z = deflate_stored(b"payload");
        z[2] ^= 0xff; // corrupt NLEN
        assert_eq!(
            inflate(&z, 1 << 16).unwrap_err(),
            InflateError::BadStoredLength
        );
    }

    #[test]
    fn reserved_block_type_rejected() {
        // BFINAL=1, BTYPE=11.
        assert_eq!(
            inflate(&[0b0000_0111], 16).unwrap_err(),
            InflateError::BadBlockType
        );
    }

    #[test]
    fn bad_distance_rejected() {
        // Fixed block, immediate length code with distance pointing
        // before output start: craft via our writer.
        let mut w = BitWriter::new();
        w.bits(1, 1);
        w.bits(1, 2);
        let (c, n) = fixed_code(257); // length 3
        w.code(c, n);
        w.code(0, 5); // distance 1, but output is empty
        let (c, n) = fixed_code(256);
        w.code(c, n);
        let z = w.finish();
        assert_eq!(inflate(&z, 16).unwrap_err(), InflateError::BadDistance);
    }

    #[test]
    fn dynamic_block_via_known_vector() {
        // A dynamic-Huffman stream produced by zlib for "abaabbbabaababbaababaaaabaaabbbbbaa"
        // (from the puff test suite).
        let z: &[u8] = &[
            0x1d, 0xc6, 0x49, 0x01, 0x00, 0x00, 0x10, 0x40, 0xc0, 0xac, 0xa3, 0x7f, 0x88, 0x3d,
            0x3c, 0x20, 0x2a, 0x97, 0x9d, 0x37, 0x5e, 0x1d, 0x0c,
        ];
        let expect = b"abaabbbabaababbaababaaaabaaabbbbbaa";
        assert_eq!(inflate(z, 1 << 10).unwrap(), expect);
    }
}
