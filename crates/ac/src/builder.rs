//! Combining pattern sets from multiple middleboxes (§5.1).
//!
//! "Our simple algorithm works in two steps. First, we construct the AC
//! automaton as if the pattern set was ⋃ᵢ Pᵢ. … The second step is to
//! determine, for each accepting state, which middleboxes have registered
//! the pattern and what the identifier of the pattern is within the
//! middlebox pattern set."

use crate::combined::CombinedAc;
use crate::full::FullAc;
use crate::kernel::KernelKind;
use crate::trie::{Trie, TrieError};
use crate::{MiddleboxId, PatternId};
use serde::{Deserialize, Serialize};

/// The pattern set `Pᵢ` of one middlebox. The pattern id of each pattern
/// is its index in `patterns`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PatternSet {
    /// The owning middlebox type.
    pub middlebox: MiddleboxId,
    /// The exact-match patterns, id = index.
    pub patterns: Vec<Vec<u8>>,
}

impl PatternSet {
    /// Builds a set from byte patterns.
    pub fn new(middlebox: MiddleboxId, patterns: Vec<Vec<u8>>) -> PatternSet {
        PatternSet {
            middlebox,
            patterns,
        }
    }

    /// Builds a set from string literals (tests and examples).
    pub fn from_strs(middlebox: MiddleboxId, patterns: &[&str]) -> PatternSet {
        PatternSet {
            middlebox,
            patterns: patterns.iter().map(|p| p.as_bytes().to_vec()).collect(),
        }
    }

    /// Number of patterns.
    pub fn len(&self) -> usize {
        self.patterns.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.patterns.is_empty()
    }

    /// Serialized size of the raw patterns in bytes — what the middlebox
    /// actually ships to the DPI controller. §4.1 argues this is small
    /// ("as opposed to DPI DFAs, which are large, the pattern sets
    /// themselves are compact").
    pub fn transfer_bytes(&self) -> usize {
        self.patterns.iter().map(|p| p.len() + 4).sum::<usize>() + 8
    }
}

/// Accumulates pattern sets and builds combined automatons.
///
/// ```
/// use dpi_ac::{Automaton, CombinedAcBuilder, MiddleboxId, PatternSet};
///
/// let mut b = CombinedAcBuilder::new();
/// b.add_set(PatternSet::from_strs(MiddleboxId(0), &["attack", "virus"])).unwrap();
/// b.add_set(PatternSet::from_strs(MiddleboxId(1), &["attack"])).unwrap();
/// let ac = b.build_full();
/// // "attack" is stored once but reported for both middleboxes.
/// let hits = ac.find_all(b"an attack!");
/// assert_eq!(hits.len(), 2);
/// assert_ne!(hits[0].1.middlebox, hits[1].1.middlebox);
/// ```
#[derive(Debug, Default, Clone)]
pub struct CombinedAcBuilder {
    trie: Trie,
    transfer_bytes: usize,
}

impl CombinedAcBuilder {
    /// An empty builder.
    pub fn new() -> CombinedAcBuilder {
        CombinedAcBuilder {
            trie: Trie::new(),
            transfer_bytes: 0,
        }
    }

    /// Adds one middlebox's pattern set.
    ///
    /// # Errors
    /// Fails on empty or oversized patterns; the builder is left in a
    /// consistent state containing every pattern added before the bad one.
    pub fn add_set(&mut self, set: PatternSet) -> Result<(), TrieError> {
        for (i, p) in set.patterns.iter().enumerate() {
            self.trie
                .add_pattern(set.middlebox, PatternId(i as u16), p)?;
            self.transfer_bytes += p.len() + 4;
        }
        self.transfer_bytes += 8;
        Ok(())
    }

    /// Adds a single pattern with an explicit id (the controller's
    /// incremental add-pattern path, §4.1).
    pub fn add_pattern(
        &mut self,
        middlebox: MiddleboxId,
        id: PatternId,
        pattern: &[u8],
    ) -> Result<(), TrieError> {
        self.trie.add_pattern(middlebox, id, pattern)?;
        self.transfer_bytes += pattern.len() + 4;
        Ok(())
    }

    /// Serialized size of everything added to this builder — the
    /// full-set transfer cost of the generation it compiles (Fig. 11's
    /// cumulative axis).
    pub fn pattern_transfer_bytes(&self) -> usize {
        self.transfer_bytes
    }

    /// Lays the trie out, reading it only, so the builder can keep
    /// accepting incremental updates and rebuild (the controller's pattern
    /// add/remove path rebuilds affected instances).
    fn table(&self, wide: bool) -> FullAc {
        FullAc::from_trie(&self.trie, wide)
    }

    /// Builds the automaton with the paper's 4-byte cells whatever the
    /// state count — the reference the property tests compare against.
    pub fn build_full(&self) -> FullAc {
        self.table(true)
    }

    /// Builds the automaton the data plane runs by default: `u16` cells
    /// below 2¹⁶ states (half the row and record bytes, for cache
    /// residency), `u32` cells otherwise, under the lane-interleaved scan
    /// loop.
    pub fn build_auto(&self) -> CombinedAc {
        self.build_kernel(KernelKind::Auto)
    }

    /// Builds the automaton behind the requested scan kernel. The table
    /// is the same for both kinds, at the width the state count allows.
    pub fn build_kernel(&self, kind: KernelKind) -> CombinedAc {
        CombinedAc::new(self.table(false), kind)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Automaton;

    #[test]
    fn build_is_repeatable_and_incremental() {
        let mut b = CombinedAcBuilder::new();
        b.add_set(PatternSet::from_strs(MiddleboxId(0), &["abc"]))
            .unwrap();
        let ac1 = b.build_full();
        assert_eq!(ac1.accepting_count(), 1);
        // Add more patterns and rebuild — the first automaton is unaffected.
        b.add_set(PatternSet::from_strs(MiddleboxId(1), &["abcd", "zz"]))
            .unwrap();
        let ac2 = b.build_full();
        assert_eq!(ac1.accepting_count(), 1);
        assert_eq!(ac2.accepting_count(), 3);
    }

    #[test]
    fn transfer_bytes_tracks_raw_pattern_size() {
        let s = PatternSet::from_strs(MiddleboxId(0), &["12345678", "abcd"]);
        assert_eq!(s.transfer_bytes(), (8 + 4) + (4 + 4) + 8);
    }

    #[test]
    fn builder_accounts_generation_transfer_bytes() {
        let mut b = CombinedAcBuilder::new();
        b.add_set(PatternSet::from_strs(MiddleboxId(0), &["12345678", "abcd"]))
            .unwrap();
        assert_eq!(b.pattern_transfer_bytes(), (8 + 4) + (4 + 4) + 8);
        b.add_pattern(MiddleboxId(0), PatternId(2), b"xy").unwrap();
        assert_eq!(b.pattern_transfer_bytes(), (8 + 4) + (4 + 4) + 8 + (2 + 4));
    }

    #[test]
    fn error_reports_offending_pattern() {
        let mut b = CombinedAcBuilder::new();
        let set = PatternSet::new(MiddleboxId(7), vec![b"ok".to_vec(), Vec::new()]);
        let err = b.add_set(set).unwrap_err();
        assert_eq!(
            err,
            TrieError::EmptyPattern {
                middlebox: MiddleboxId(7),
                pattern: PatternId(1)
            }
        );
        // The good pattern before the failure is still in the builder.
        assert_eq!(b.build_full().find_all(b"ok").len(), 1);
    }
}
