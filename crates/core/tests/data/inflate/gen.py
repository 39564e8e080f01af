"""Writes the dynamic-Huffman DEFLATE vectors that
`crates/core/tests/proptest_decompress.rs` decodes against the reference
decoder in `crates/core/tests/inflate_oracle/`.

The vectors are committed; this script records how they were made
(python3's `zlib` and `gzip` modules, seed 40) and prints, per block, the
longest literal/length and distance code and the largest distance
symbol, so it is visible which vectors take the inflater's slow path
(codes longer than its 10-bit lookup table).

    python3 crates/core/tests/data/inflate/gen.py crates/core/tests/data/inflate
"""

import gzip
import io
import math
import random
import sys
import zlib


def raw(data, level=9, strategy=zlib.Z_DEFAULT_STRATEGY, flushes=None):
    """A raw DEFLATE stream (no zlib header)."""
    c = zlib.compressobj(level, zlib.DEFLATED, -15, 9, strategy)
    if flushes is None:
        return c.compress(data) + c.flush()
    out = b""
    for part, flush in flushes:
        out += c.compress(part) + c.flush(flush)
    return out + c.flush()


class Bits:
    def __init__(self, data):
        self.data, self.pos = data, 0

    def read(self, n):
        v = 0
        for i in range(n):
            byte = self.data[self.pos >> 3]
            v |= ((byte >> (self.pos & 7)) & 1) << i
            self.pos += 1
        return v


def decode(bits, lengths):
    """One symbol, canonical bit-at-a-time decoding."""
    count = [0] * 16
    for n in lengths:
        count[n] += 1
    count[0] = 0
    symbols = [s for _, s in sorted((n, s) for s, n in enumerate(lengths) if n)]
    code = first = index = 0
    for n in range(1, 16):
        code |= bits.read(1)
        if code - count[n] < first:
            return symbols[index + code - first]
        index += count[n]
        first = (first + count[n]) << 1
        code <<= 1
    raise ValueError("bad code")


LENGTH_EXTRA = [0] * 8 + [1] * 4 + [2] * 4 + [3] * 4 + [4] * 4 + [5] * 4 + [0]
DIST_EXTRA = [0, 0] + [n // 2 - 1 for n in range(2, 30)]
ORDER = [16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15]


def survey(data):
    """Per block: its type, and for a Huffman block the longest codes."""
    bits, blocks = Bits(data), []
    while True:
        final, kind = bits.read(1), bits.read(2)
        if kind == 0:
            bits.pos = (bits.pos + 7) & ~7
            n = bits.read(16)
            bits.read(16)
            bits.pos += 8 * n
            blocks.append(("stored", n))
        else:
            if kind == 1:
                litlen = [8] * 144 + [9] * 112 + [7] * 24 + [8] * 8
                dist = [5] * 30
            else:
                hlit, hdist, hclen = bits.read(5) + 257, bits.read(5) + 1, bits.read(4) + 4
                clc = [0] * 19
                for i in range(hclen):
                    clc[ORDER[i]] = bits.read(3)
                lengths = []
                while len(lengths) < hlit + hdist:
                    s = decode(bits, clc)
                    if s < 16:
                        lengths.append(s)
                    elif s == 16:
                        lengths += [lengths[-1]] * (3 + bits.read(2))
                    elif s == 17:
                        lengths += [0] * (3 + bits.read(3))
                    else:
                        lengths += [0] * (11 + bits.read(7))
                litlen, dist = lengths[:hlit], lengths[hlit:]
            top_dist = 0
            while True:
                s = decode(bits, litlen)
                if s == 256:
                    break
                if s > 256:
                    bits.read(LENGTH_EXTRA[s - 257])
                    d = decode(bits, dist)
                    bits.read(DIST_EXTRA[d])
                    top_dist = max(top_dist, d)
            name = "fixed" if kind == 1 else "dynamic"
            blocks.append((name, "litlen<=%d" % max(litlen), "dist<=%d" % max(dist), "dsym<=%d" % top_dist))
        if final:
            return blocks


def main(outdir):
    random.seed(40)
    words = [b"GET", b"POST", b"Host:", b"example.test", b"Content-Type:", b"text/html",
             b"the", b"quick", b"brown", b"fox", b'<div class="x">', b"</div>", b"\r\n",
             b"cookie=", b"session", b"alert-me-sig"]
    text = b" ".join(random.choice(words) for _ in range(700))
    # Counts growing by 1.75x give a chain-shaped code: 13 symbols reach
    # 13-bit codes, past the 10-bit lookup table.
    skewed = bytearray()
    for k in range(13):
        skewed += bytes([65 + k]) * math.ceil(1.75 ** k)
    skewed = bytes(random.sample(list(skewed), len(skewed)))
    # A head repeated after a 25 KB run: distance symbols up to 29.
    head = bytes(random.choices(b"acgt", k=400))
    far = head + b"\x00" * 25000 + head + bytes(random.choices(b"acgt", k=200))
    # Sync and full flushes put empty stored blocks between dynamic ones.
    flushes = [(text[:700], zlib.Z_SYNC_FLUSH), (skewed[:600], zlib.Z_FULL_FLUSH),
               (text[700:1400], zlib.Z_NO_FLUSH)]
    member = io.BytesIO()
    with gzip.GzipFile(filename="body.txt", mode="wb", fileobj=member, mtime=0,
                       compresslevel=9) as g:
        g.write(text[1400:3200])
    vectors = {
        "http_text.deflate": raw(text[:3000]),
        "skewed.deflate": raw(skewed, strategy=zlib.Z_HUFFMAN_ONLY),
        "far_distance.deflate": raw(far),
        "flushed_blocks.deflate": raw(b"", level=6, flushes=flushes),
        # A gzip member with FNAME set.
        "fname_member.gz": member.getvalue(),
    }
    for name, data in vectors.items():
        body = data[10 + len(b"body.txt\0"):-8] if name.endswith(".gz") else data
        print(name, len(data), survey(body))
        with open("%s/%s" % (outdir, name), "wb") as f:
            f.write(data)


if __name__ == "__main__":
    main(sys.argv[1])
