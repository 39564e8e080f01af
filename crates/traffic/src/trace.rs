//! Synthetic packet-payload traces.
//!
//! Substitutes for the paper's two traces (§6.2): an HTTP crawl of popular
//! websites and a campus wireless tap. The shape that matters for DPI
//! throughput is the payload size distribution and the *match density*:
//! "in both traces we used, more than 90% of the packets have no matches"
//! (§6.5). Both are explicit parameters here.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// What kind of payload bytes to generate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceKind {
    /// HTTP-like requests/responses: headers, HTML-ish text (the Alexa
    /// crawl stand-in).
    Http,
    /// Mixed binary/text (the campus-trace stand-in).
    Campus,
}

/// Trace generator configuration.
#[derive(Debug, Clone)]
pub struct TraceConfig {
    /// Payload flavour.
    pub kind: TraceKind,
    /// Number of packet payloads.
    pub packets: usize,
    /// Smallest payload in bytes.
    pub min_payload: usize,
    /// Largest payload in bytes.
    pub max_payload: usize,
    /// Fraction of packets that get a pattern planted into them
    /// (the paper's traces sit below 0.1).
    pub match_density: f64,
    /// Average number of pattern *prefixes* (near misses) spliced into
    /// each packet. Real traffic constantly brushes against signature
    /// prefixes — protocol keywords, common byte runs — which is what
    /// makes Aho-Corasick throughput fall as the pattern set (and thus
    /// the set of automaton rows the scan touches) grows. Zero keeps the
    /// trace maximally benign.
    pub prefix_density: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for TraceConfig {
    fn default() -> TraceConfig {
        TraceConfig {
            kind: TraceKind::Http,
            packets: 1000,
            min_payload: 200,
            max_payload: 1400,
            match_density: 0.05,
            prefix_density: 0.0,
            seed: 42,
        }
    }
}

const HTTP_FRAGMENTS: &[&str] = &[
    "GET /index.html HTTP/1.1\r\nHost: www.example.com\r\n",
    "HTTP/1.1 200 OK\r\nContent-Type: text/html; charset=utf-8\r\n",
    "<html><head><title>Welcome</title></head><body>",
    "<div class=\"content\"><p>Lorem ipsum dolor sit amet, consectetur",
    "function init() { var x = document.getElementById('main'); }",
    "Accept-Encoding: gzip, deflate\r\nConnection: keep-alive\r\n",
    "<a href=\"/products/view?id=1234\">See more</a></div>",
    "Cache-Control: max-age=3600\r\nServer: nginx/1.14.0\r\n",
    "adipiscing elit sed do eiusmod tempor incididunt ut labore ",
    "<img src=\"/static/logo.png\" alt=\"logo\" width=\"120\"/>",
];

impl TraceConfig {
    /// Generates the payloads. When `plant` is non-empty, a
    /// `match_density` fraction of packets receive one pattern from
    /// `plant` spliced in at a random offset.
    pub fn generate(&self, plant: &[Vec<u8>]) -> Vec<Vec<u8>> {
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0x5452414345); // "TRACE"
        let mut out = Vec::with_capacity(self.packets);
        for _ in 0..self.packets {
            let len = if self.min_payload >= self.max_payload {
                self.min_payload
            } else {
                rng.gen_range(self.min_payload..=self.max_payload)
            };
            let mut payload = match self.kind {
                TraceKind::Http => http_payload(&mut rng, len),
                TraceKind::Campus => campus_payload(&mut rng, len),
            };
            if !plant.is_empty() && rng.gen_bool(self.match_density.clamp(0.0, 1.0)) {
                let p = &plant[rng.gen_range(0..plant.len())];
                if p.len() <= payload.len() {
                    let off = rng.gen_range(0..=payload.len() - p.len());
                    payload[off..off + p.len()].copy_from_slice(p);
                }
            }
            if !plant.is_empty() && self.prefix_density > 0.0 {
                // Poisson-ish: floor(count) splices plus one more with the
                // fractional probability.
                let mut n = self.prefix_density.floor() as usize;
                if rng.gen_bool((self.prefix_density - n as f64).clamp(0.0, 1.0)) {
                    n += 1;
                }
                for _ in 0..n {
                    let p = &plant[rng.gen_range(0..plant.len())];
                    if p.len() < 6 {
                        continue;
                    }
                    // A proper prefix, at least 4 bytes, never the whole
                    // pattern (near miss, not a match).
                    let take = rng.gen_range(4..p.len());
                    if take <= payload.len() {
                        let off = rng.gen_range(0..=payload.len() - take);
                        payload[off..off + take].copy_from_slice(&p[..take]);
                    }
                }
            }
            out.push(payload);
        }
        out
    }

    /// Total bytes a generated trace will carry (after generation).
    pub fn total_bytes(payloads: &[Vec<u8>]) -> usize {
        payloads.iter().map(|p| p.len()).sum()
    }
}

fn http_payload(rng: &mut StdRng, len: usize) -> Vec<u8> {
    let mut p = Vec::with_capacity(len);
    while p.len() < len {
        let frag = HTTP_FRAGMENTS[rng.gen_range(0..HTTP_FRAGMENTS.len())].as_bytes();
        p.extend_from_slice(frag);
    }
    p.truncate(len);
    p
}

fn campus_payload(rng: &mut StdRng, len: usize) -> Vec<u8> {
    // Roughly half text, half binary chunks, like a mixed campus tap.
    let mut p = Vec::with_capacity(len);
    while p.len() < len {
        if rng.gen_bool(0.5) {
            let frag = HTTP_FRAGMENTS[rng.gen_range(0..HTTP_FRAGMENTS.len())].as_bytes();
            p.extend_from_slice(frag);
        } else {
            let n = rng.gen_range(16..128usize).min(len - p.len() + 16);
            let start = p.len();
            p.resize(start + n, 0);
            rng.fill(&mut p[start..]);
        }
    }
    p.truncate(len);
    p
}

/// Builds a complexity-attack payload (§4.3.1): a stream of pattern
/// *prefixes* (last byte chopped) that drags the automaton into deep
/// states without completing matches — the cache-hostile traffic MCA²
/// diverts to dedicated instances.
pub fn heavy_payload(patterns: &[Vec<u8>], len: usize, seed: u64) -> Vec<u8> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x48454156); // "HEAV"
    let mut p = Vec::with_capacity(len);
    let candidates: Vec<&Vec<u8>> = patterns.iter().filter(|p| p.len() >= 5).collect();
    if candidates.is_empty() {
        // Degenerate pattern set: fall back to random bytes.
        let mut v = vec![0u8; len];
        rng.fill(&mut v[..]);
        return v;
    }
    while p.len() < len {
        let pat = candidates[rng.gen_range(0..candidates.len())];
        let cut = pat.len() - 1;
        p.extend_from_slice(&pat[..cut]);
    }
    p.truncate(len);
    p
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traces_are_deterministic() {
        let cfg = TraceConfig::default();
        assert_eq!(cfg.generate(&[]), cfg.generate(&[]));
    }

    #[test]
    fn payload_lengths_respect_bounds() {
        let cfg = TraceConfig {
            packets: 200,
            min_payload: 64,
            max_payload: 256,
            ..TraceConfig::default()
        };
        for p in cfg.generate(&[]) {
            assert!(p.len() >= 64 && p.len() <= 256);
        }
    }

    #[test]
    fn match_density_controls_planting() {
        let plant = vec![b"UNIQUEPLANTEDPATTERN".to_vec()];
        let dense = TraceConfig {
            packets: 400,
            match_density: 0.5,
            ..TraceConfig::default()
        }
        .generate(&plant);
        let sparse = TraceConfig {
            packets: 400,
            match_density: 0.0,
            ..TraceConfig::default()
        }
        .generate(&plant);
        let count = |trace: &[Vec<u8>]| {
            trace
                .iter()
                .filter(|p| p.windows(plant[0].len()).any(|w| w == plant[0].as_slice()))
                .count()
        };
        assert_eq!(count(&sparse), 0);
        let hits = count(&dense);
        assert!(
            (120..=280).contains(&hits),
            "expected ~200 planted packets, got {hits}"
        );
    }

    #[test]
    fn zero_density_matches_paper_statement_inverse() {
        // With the default 5% density, >90% of packets must be clean.
        let plant = vec![b"XYZZYPLUGHPATTERN".to_vec()];
        let trace = TraceConfig {
            packets: 1000,
            ..TraceConfig::default()
        }
        .generate(&plant);
        let clean = trace
            .iter()
            .filter(|p| !p.windows(plant[0].len()).any(|w| w == plant[0].as_slice()))
            .count();
        assert!(clean > 900);
    }

    #[test]
    fn heavy_payload_is_made_of_prefixes() {
        let pats = crate::patterns::snort_like(50, 3);
        let hp = heavy_payload(&pats, 4096, 9);
        assert_eq!(hp.len(), 4096);
        // No complete pattern may appear… statistically; at minimum the
        // payload must start with a pattern prefix.
        let starts_with_prefix = pats
            .iter()
            .any(|p| p.len() >= 5 && hp.starts_with(&p[..p.len() - 1]));
        assert!(starts_with_prefix);
    }

    #[test]
    fn heavy_payload_handles_degenerate_sets() {
        let hp = heavy_payload(&[b"ab".to_vec()], 128, 1);
        assert_eq!(hp.len(), 128);
    }
}
