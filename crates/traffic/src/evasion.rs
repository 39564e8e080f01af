//! Adversarial TCP segment streams — the evasion side of reassembly.
//!
//! *Fingerprinting Deep Packet Inspection Devices by Their Ambiguities*
//! (PAPERS.md) shows that real DPI engines disagree on exactly the inputs
//! this module generates: overlapping segment copies with different
//! bytes, inconsistent retransmissions, data near the 2³² sequence wrap,
//! and out-of-window injections. An attacker who knows which
//! interpretation a DPI engine picks can hide a pattern in the *other*
//! one. Because the service reassembles once for every middlebox
//! (PAPER.md's "session reconstruction as a service"), a single wrong
//! guess would be fleet-wide — so the reassembler's conflict handling
//! (`dpi_core::reassembly::ConflictPolicy`) must be provably
//! evasion-proof, and this generator produces the adversarial traces the
//! property tests and the standing seed sweep drive it with, both
//! against one instance and through the whole system's packet path.
//!
//! Every flow is generated from a single seed and carries its own ground
//! truth: the two *interpretation streams* (what a receiver that prefers
//! the first copy of each byte reconstructs, and what a last-copy
//! receiver reconstructs), the planted pattern, and whether the segment
//! stream contains a byte-level conflict at all. Tests assert the
//! no-silent-miss guarantee directly against that ground truth.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The ambiguity a generated flow exploits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EvasionTactic {
    /// Two out-of-order copies of the same pending range with different
    /// bytes; the gap fills afterwards. A first-copy receiver and a
    /// last-copy receiver reconstruct different streams.
    OverlapConflict,
    /// An inconsistent retransmission: the range is delivered, then
    /// retransmitted with different bytes. The canonical stream is
    /// committed; the divergent copy is the attacker's hiding spot.
    AmbiguousRetransmit,
    /// No conflict — the pattern is split across a segment boundary at a
    /// random cut inside the pattern, and the pieces arrive out of
    /// order. Tests cross-segment scan state, not conflict handling.
    BoundarySplit,
    /// No conflict — the stream straddles the 2³² sequence wraparound
    /// with the pattern crossing the boundary and segments arriving out
    /// of order around it.
    WrapAdjacent,
    /// A benign in-order stream plus one far-future (out-of-window)
    /// segment carrying the pattern that never becomes contiguous. The
    /// pattern is part of *no* consistent interpretation: matching it
    /// would be a false positive.
    OutOfWindowInjection,
    /// One out-of-order copy sits buffered as pending, then a single
    /// *in-order* segment arrives that covers the pending range with
    /// different bytes. The ambiguity is resolved on the in-order
    /// delivery path, not the out-of-order insert path — the shape that
    /// slips past engines which only byte-compare on insert.
    PendingOverlapInOrder,
}

impl EvasionTactic {
    const ALL: [EvasionTactic; 6] = [
        EvasionTactic::OverlapConflict,
        EvasionTactic::AmbiguousRetransmit,
        EvasionTactic::BoundarySplit,
        EvasionTactic::WrapAdjacent,
        EvasionTactic::OutOfWindowInjection,
        EvasionTactic::PendingOverlapInOrder,
    ];

    /// Stable name for logs and trace artifacts.
    pub fn name(self) -> &'static str {
        match self {
            EvasionTactic::OverlapConflict => "overlap_conflict",
            EvasionTactic::AmbiguousRetransmit => "ambiguous_retransmit",
            EvasionTactic::BoundarySplit => "boundary_split",
            EvasionTactic::WrapAdjacent => "wrap_adjacent",
            EvasionTactic::OutOfWindowInjection => "out_of_window_injection",
            EvasionTactic::PendingOverlapInOrder => "pending_overlap_in_order",
        }
    }
}

/// One TCP segment of an adversarial flow, in send order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EvasiveSegment {
    /// Sequence number of the segment's first byte.
    pub seq: u32,
    /// Segment payload.
    pub payload: Vec<u8>,
}

/// A generated adversarial flow with its ground truth.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EvasiveFlow {
    /// The ambiguity this flow exploits.
    pub tactic: EvasionTactic,
    /// The seed that regenerates this exact flow.
    pub seed: u64,
    /// Initial sequence number (first byte of the stream).
    pub initial_seq: u32,
    /// Segments in send order.
    pub segments: Vec<EvasiveSegment>,
    /// The stream a receiver keeping the *first* copy of each byte
    /// reconstructs.
    pub keep_first: Vec<u8>,
    /// The stream a receiver keeping the *last* copy of each byte
    /// reconstructs. Equal to `keep_first` for conflict-free tactics.
    pub keep_last: Vec<u8>,
    /// The pattern planted in the flow (always wholly inside one segment
    /// copy for conflicting tactics, so detectability is unambiguous).
    pub planted: Vec<u8>,
    /// Whether the segment stream contains a byte-level conflict (same
    /// range, different bytes).
    pub conflicting: bool,
}

fn contains(haystack: &[u8], needle: &[u8]) -> bool {
    !needle.is_empty() && haystack.windows(needle.len()).any(|w| w == needle)
}

/// Random filler that cannot be mistaken for `avoid` (differs in at least
/// one byte when lengths match; also never *contains* `avoid`, since the
/// alphabet is disjoint from typical pattern bytes only by luck — so this
/// re-rolls until clean).
fn filler(rng: &mut StdRng, len: usize, avoid: &[u8]) -> Vec<u8> {
    loop {
        let mut v: Vec<u8> = (0..len).map(|_| rng.gen_range(b'a'..=b'z')).collect();
        if v.as_slice() == avoid {
            // Equal-length filler that happened to equal the pattern:
            // flip one byte deterministically.
            v[0] = if v[0] == b'z' { b'a' } else { v[0] + 1 };
        }
        if !contains(&v, avoid) {
            return v;
        }
    }
}

/// Generates one adversarial flow from `seed`, planting one of
/// `patterns` (which must be non-empty, each pattern non-empty).
pub fn evasive_flow(seed: u64, patterns: &[Vec<u8>]) -> EvasiveFlow {
    assert!(!patterns.is_empty(), "need at least one pattern to plant");
    let mut rng = StdRng::seed_from_u64(seed ^ 0x45564144); // "EVAD"
    let tactic = EvasionTactic::ALL[rng.gen_range(0..EvasionTactic::ALL.len())];
    let planted = patterns[rng.gen_range(0..patterns.len())].clone();
    assert!(!planted.is_empty(), "patterns must be non-empty");
    build(tactic, seed, &mut rng, planted)
}

/// Generates `n` adversarial flows with per-flow seeds derived from
/// `seed` (flow `i` uses `seed + i`, so any single flow is replayable in
/// isolation).
pub fn evasive_flows(n: usize, seed: u64, patterns: &[Vec<u8>]) -> Vec<EvasiveFlow> {
    (0..n)
        .map(|i| evasive_flow(seed.wrapping_add(i as u64), patterns))
        .collect()
}

fn build(tactic: EvasionTactic, seed: u64, rng: &mut StdRng, planted: Vec<u8>) -> EvasiveFlow {
    let pre_len = rng.gen_range(16..256);
    let post_len = rng.gen_range(16..256);
    let pre = filler(rng, pre_len, &planted);
    let post = filler(rng, post_len, &planted);
    let isn: u32 = match tactic {
        // Park the stream right up against the 2³² boundary so the
        // planted pattern straddles the wrap.
        EvasionTactic::WrapAdjacent => {
            0u32.wrapping_sub(pre.len() as u32 + rng.gen_range(1..planted.len().max(2)) as u32)
        }
        _ => rng.gen(),
    };
    let plen = planted.len() as u32;
    let mid = isn.wrapping_add(pre.len() as u32);
    let after = mid.wrapping_add(plen);

    let mut segments = Vec::new();
    let keep_first;
    let mut keep_last = Vec::new();
    let mut conflicting = true;

    match tactic {
        EvasionTactic::OverlapConflict => {
            // Two out-of-order copies of the same pending range; the
            // pattern hides in the first or the last copy, at random.
            let decoy = filler(rng, planted.len(), &planted);
            let (x1, x2) = if rng.gen_bool(0.5) {
                (planted.clone(), decoy)
            } else {
                (decoy, planted.clone())
            };
            segments.push(EvasiveSegment {
                seq: mid,
                payload: x1.clone(),
            });
            segments.push(EvasiveSegment {
                seq: mid,
                payload: x2.clone(),
            });
            segments.push(EvasiveSegment {
                seq: after,
                payload: post.clone(),
            });
            segments.push(EvasiveSegment {
                seq: isn,
                payload: pre.clone(),
            });
            keep_first = [pre.as_slice(), &x1, &post].concat();
            keep_last = [pre.as_slice(), &x2, &post].concat();
        }
        EvasionTactic::AmbiguousRetransmit => {
            // The range is delivered, then retransmitted divergently: a
            // receiver honoring the retransmission sees the other stream.
            let decoy = filler(rng, planted.len(), &planted);
            let (x1, x2) = if rng.gen_bool(0.5) {
                (planted.clone(), decoy)
            } else {
                (decoy, planted.clone())
            };
            segments.push(EvasiveSegment {
                seq: isn,
                payload: pre.clone(),
            });
            segments.push(EvasiveSegment {
                seq: mid,
                payload: x1.clone(),
            });
            segments.push(EvasiveSegment {
                seq: mid,
                payload: x2.clone(),
            });
            segments.push(EvasiveSegment {
                seq: after,
                payload: post.clone(),
            });
            keep_first = [pre.as_slice(), &x1, &post].concat();
            keep_last = [pre.as_slice(), &x2, &post].concat();
        }
        EvasionTactic::BoundarySplit | EvasionTactic::WrapAdjacent => {
            // Conflict-free: one consistent stream, pattern cut across a
            // segment boundary, pieces out of order.
            conflicting = false;
            let stream = [pre.as_slice(), &planted, &post].concat();
            let cut_in_pattern = pre.len() + rng.gen_range(1..planted.len().max(2));
            let cut = cut_in_pattern.min(stream.len() - 1);
            let (head, tail) = stream.split_at(cut);
            // Tail first (buffered), head second (delivers both).
            segments.push(EvasiveSegment {
                seq: isn.wrapping_add(cut as u32),
                payload: tail.to_vec(),
            });
            segments.push(EvasiveSegment {
                seq: isn,
                payload: head.to_vec(),
            });
            keep_first = stream;
        }
        EvasionTactic::PendingOverlapInOrder => {
            // One out-of-order copy buffered as pending, then a single
            // in-order segment covering it with different bytes — the
            // REVIEW-probe shape: divergence must be caught on the
            // in-order delivery path.
            let decoy = filler(rng, planted.len(), &planted);
            let (x1, x2) = if rng.gen_bool(0.5) {
                (planted.clone(), decoy)
            } else {
                (decoy, planted.clone())
            };
            segments.push(EvasiveSegment {
                seq: mid,
                payload: x1.clone(),
            });
            segments.push(EvasiveSegment {
                seq: isn,
                payload: [pre.as_slice(), &x2, &post].concat(),
            });
            keep_first = [pre.as_slice(), &x1, &post].concat();
            keep_last = [pre.as_slice(), &x2, &post].concat();
        }
        EvasionTactic::OutOfWindowInjection => {
            // Benign stream; the pattern rides a far-future segment that
            // never becomes contiguous. No interpretation contains it.
            conflicting = false;
            let stream = [pre.as_slice(), &post].concat();
            let far = isn.wrapping_add(stream.len() as u32).wrapping_add(1 << 30);
            segments.push(EvasiveSegment {
                seq: isn,
                payload: pre.clone(),
            });
            segments.push(EvasiveSegment {
                seq: far,
                payload: planted.clone(),
            });
            segments.push(EvasiveSegment {
                seq: isn.wrapping_add(pre.len() as u32),
                payload: post.clone(),
            });
            keep_first = stream;
        }
    }
    if keep_last.is_empty() {
        keep_last = keep_first.clone();
    }

    EvasiveFlow {
        tactic,
        seed,
        initial_seq: isn,
        segments,
        keep_first,
        keep_last,
        planted,
        conflicting,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pats() -> Vec<Vec<u8>> {
        vec![b"attack-signature".to_vec(), b"EVIL/1.0".to_vec()]
    }

    #[test]
    fn generation_is_deterministic() {
        for seed in [0u64, 1, 7, 42, 12345] {
            assert_eq!(evasive_flow(seed, &pats()), evasive_flow(seed, &pats()));
        }
        assert_eq!(evasive_flows(20, 7, &pats()), evasive_flows(20, 7, &pats()));
    }

    #[test]
    fn all_tactics_appear_over_enough_seeds() {
        let flows = evasive_flows(200, 3, &pats());
        let tactics: std::collections::HashSet<_> = flows.iter().map(|f| f.tactic).collect();
        assert_eq!(tactics.len(), EvasionTactic::ALL.len());
    }

    #[test]
    fn ground_truth_matches_tactic_semantics() {
        for f in evasive_flows(300, 9, &pats()) {
            match f.tactic {
                EvasionTactic::OverlapConflict
                | EvasionTactic::AmbiguousRetransmit
                | EvasionTactic::PendingOverlapInOrder => {
                    assert!(f.conflicting);
                    assert_ne!(f.keep_first, f.keep_last);
                    // The pattern is wholly inside exactly one
                    // interpretation (the decoy copy never contains it).
                    assert!(
                        contains(&f.keep_first, &f.planted) ^ contains(&f.keep_last, &f.planted),
                        "pattern must hide in exactly one interpretation ({})",
                        f.tactic.name()
                    );
                }
                EvasionTactic::BoundarySplit | EvasionTactic::WrapAdjacent => {
                    assert!(!f.conflicting);
                    assert_eq!(f.keep_first, f.keep_last);
                    assert!(contains(&f.keep_first, &f.planted));
                    // The pattern is genuinely split: no single segment
                    // contains it whole.
                    assert!(
                        !f.segments.iter().any(|s| contains(&s.payload, &f.planted)),
                        "pattern must straddle a segment boundary"
                    );
                }
                EvasionTactic::OutOfWindowInjection => {
                    assert!(!f.conflicting);
                    assert!(!contains(&f.keep_first, &f.planted));
                    assert!(!contains(&f.keep_last, &f.planted));
                    // But the bytes are on the wire.
                    assert!(f.segments.iter().any(|s| s.payload == f.planted));
                }
            }
        }
    }

    #[test]
    fn wrap_adjacent_streams_cross_the_boundary() {
        let crossing = evasive_flows(400, 11, &pats())
            .into_iter()
            .filter(|f| f.tactic == EvasionTactic::WrapAdjacent)
            .filter(|f| {
                let end = f.initial_seq.wrapping_add(f.keep_first.len() as u32);
                end < f.initial_seq // wrapped
            })
            .count();
        assert!(crossing > 0, "wrap-adjacent flows must straddle 2³²");
    }

    #[test]
    fn filler_never_contains_the_pattern() {
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..200 {
            let f = filler(&mut rng, 16, b"attack-signature");
            assert!(!contains(&f, b"attack-signature"));
            assert_ne!(f, b"attack-signature");
        }
    }
}
