//! # dpi-ac
//!
//! Aho-Corasick multi-pattern string matching, built from scratch for the
//! *DPI as a Service* (CoNEXT 2014) reproduction.
//!
//! The centerpiece is the paper's §5.1 construction: pattern sets from
//! *several middleboxes* are merged into a **single** automaton so each
//! packet is scanned once, no matter how many middleboxes need the results:
//!
//! 1. A goto trie is built over the union `⋃ Pᵢ` of all pattern sets;
//!    patterns appearing in more than one set share one accepting state.
//! 2. Failure links are added breadth-first and the automaton is laid out
//!    as a DFA — the "de-facto standard for contemporary NIDS"
//!    representation (§3) — with a 256-entry row only where the scan
//!    falls back: the root, every state of depth ≤ 2, every failure
//!    target, every branching state and every shared depth-3 state.
//!    Every other state keeps one record (its goto edge and its failure
//!    row), so a step costs at most two table loads and never walks a
//!    failure chain.
//! 3. State identifiers are remapped so the `f` accepting states are
//!    exactly `{0, …, f−1}` — "the state identifier in the DFA is
//!    meaningless; we use this degree of freedom" — which makes the
//!    accepting-state test a single compare (`state < f`) and lets the
//!    match table be a direct-access array.
//! 4. Each accepting state carries (a) a **bitmap** of the middlebox
//!    identifiers that registered any of its patterns, so a single
//!    bitwise-AND against the packet's active-middlebox bitmap decides
//!    whether the match table must be consulted at all, and (b) a sorted
//!    list of `(middlebox id, pattern id)` pairs. Patterns that are proper
//!    suffixes of other patterns are propagated along failure links, as the
//!    paper requires ("if we have a pattern i (e.g., DEF) that is a suffix
//!    of another pattern j (e.g., ABCDEF), we should add all the pairs
//!    corresponding to pattern i also to the j-th entry").
//!
//! There is one automaton representation, [`FullAc`]: hot rows and
//! cold records, built once from the trie with `u16` cells when the
//! state ids fit and the paper's `u32` cells otherwise. [`CombinedAc`]
//! pairs that table with one of two scan loops ([`KernelKind`]): the
//! lane-interleaved loop the data plane runs — one payload cut into up
//! to four independent chains whose table loads overlap, started past
//! the bytes a 3-byte prefix filter proves stay within two bytes of the
//! root — or the naive reference loop it is verified against. Both
//! produce identical match streams; the property tests in this crate
//! verify that against each other and against a naive reference matcher
//! ([`naive::NaiveMatcher`]).

pub mod builder;
pub mod combined;
pub mod full;
pub mod kernel;
pub mod naive;
mod prefilter;
pub mod trie;

pub use builder::{CombinedAcBuilder, PatternSet};
pub use combined::CombinedAc;
pub use full::FullAc;
pub use kernel::{DepthSamples, KernelKind, ScanKernel};

use serde::{Deserialize, Serialize};

/// Identifier of a registered middlebox *type* (§4.1: "we may assume
/// identifiers are sequential numbers in {1,…,n}" — this crate allows any
/// `u16`; the bitmap fast path covers identifiers below 64).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct MiddleboxId(pub u16);

/// A pattern's identifier *within its middlebox's rule set*. The DPI
/// service reports matches using these middlebox-local identifiers so each
/// middlebox can resolve them against its own rules (§4.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct PatternId(pub u16);

/// One entry of the match table: "a sorted list of ⟨middlebox id, pattern
/// id⟩ pairs" (§5.1), extended with the pattern length, which §5.2's
/// stateless-deletion rule needs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct MatchEntry {
    /// The middlebox that registered the pattern.
    pub middlebox: MiddleboxId,
    /// The pattern's identifier within that middlebox's set.
    pub pattern: PatternId,
    /// Length of the pattern in bytes.
    pub len: u16,
}

/// Builds the bit for `id` in an active-middlebox bitmap. Identifiers ≥ 63
/// conservatively share bit 63, so the bitmap test can yield false
/// positives (forcing a match-table check) but never false negatives.
pub fn bitmap_bit(id: MiddleboxId) -> u64 {
    1u64 << (id.0.min(63))
}

/// A DFA state handle. `FullAc` guarantees accepting states are
/// `0..accepting_count()`.
pub type StateId = u32;

/// The automaton interface shared by [`FullAc`] and [`CombinedAc`].
///
/// A scan runs `state = step(state, byte)` per input byte; after each step
/// the caller checks [`Automaton::is_accepting`] (for [`FullAc`] this is
/// the single-compare `state < f` test of §5.1) and, if the bitmap test
/// passes, reads the match-table entries.
pub trait Automaton {
    /// The initial (root) state.
    fn start(&self) -> StateId;

    /// Advances by one input byte.
    fn step(&self, state: StateId, byte: u8) -> StateId;

    /// Whether `state` reports at least one pattern.
    fn is_accepting(&self, state: StateId) -> bool;

    /// The middlebox bitmap of an accepting state (0 for others).
    fn bitmap(&self, state: StateId) -> u64;

    /// The match-table entries of an accepting state (empty for others),
    /// sorted by `(middlebox, pattern)`.
    fn entries(&self, state: StateId) -> &[MatchEntry];

    /// Number of states.
    fn state_count(&self) -> usize;

    /// Number of accepting states (`f`).
    fn accepting_count(&self) -> usize;

    /// Approximate resident size of the automaton in bytes — the paper's
    /// Table 2 "Space" column.
    fn memory_bytes(&self) -> usize;

    /// Scans `data` starting from `state`, invoking `on_match(end_index,
    /// state)` for every accepting state reached (the match ends at
    /// `data[end_index]`). Returns the final state, which the caller stores
    /// for stateful cross-packet scanning (§5.2).
    fn scan<F: FnMut(usize, StateId)>(&self, state: StateId, data: &[u8], on_match: F) -> StateId;

    /// Convenience: all `(end_index, entry)` pairs in `data` scanning from
    /// the root.
    fn find_all(&self, data: &[u8]) -> Vec<(usize, MatchEntry)>
    where
        Self: Sized,
    {
        let mut out = Vec::new();
        self.scan(self.start(), data, |pos, st| {
            for e in self.entries(st) {
                out.push((pos, *e));
            }
        });
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bitmap_bit_saturates_at_63() {
        assert_eq!(bitmap_bit(MiddleboxId(0)), 1);
        assert_eq!(bitmap_bit(MiddleboxId(5)), 1 << 5);
        assert_eq!(bitmap_bit(MiddleboxId(63)), 1 << 63);
        assert_eq!(bitmap_bit(MiddleboxId(64)), 1 << 63);
        assert_eq!(bitmap_bit(MiddleboxId(1000)), 1 << 63);
    }
}
