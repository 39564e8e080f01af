//! A deliberately simple reference matcher.
//!
//! Quadratic, obviously-correct multi-pattern search used by this crate's
//! property tests to validate the automaton at both cell widths, and by the
//! benchmark harness as a "no Aho-Corasick at all" baseline.

use crate::builder::PatternSet;
use crate::{MatchEntry, PatternId};

/// The reference matcher: a plain list of `(middlebox, id, bytes)`.
#[derive(Debug, Default, Clone)]
pub struct NaiveMatcher {
    patterns: Vec<(MatchEntry, Vec<u8>)>,
}

impl NaiveMatcher {
    /// An empty matcher.
    pub fn new() -> NaiveMatcher {
        NaiveMatcher::default()
    }

    /// Adds one middlebox's pattern set (empty patterns are skipped — the
    /// automatons reject them at build time instead).
    pub fn add_set(&mut self, set: &PatternSet) {
        for (i, p) in set.patterns.iter().enumerate() {
            if p.is_empty() {
                continue;
            }
            self.patterns.push((
                MatchEntry {
                    middlebox: set.middlebox,
                    pattern: PatternId(i as u16),
                    len: p.len() as u16,
                },
                p.clone(),
            ));
        }
    }

    /// All matches as `(end_index, entry)` pairs, sorted by position then
    /// entry — the same stream an [`crate::Automaton`] produces via
    /// `find_all` (after sorting).
    pub fn find_all(&self, data: &[u8]) -> Vec<(usize, MatchEntry)> {
        let mut out = Vec::new();
        for (entry, pat) in &self.patterns {
            if pat.len() > data.len() {
                continue;
            }
            for end in (pat.len() - 1)..data.len() {
                let start = end + 1 - pat.len();
                if &data[start..=end] == pat.as_slice() {
                    out.push((end, *entry));
                }
            }
        }
        out.sort();
        out.dedup();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MiddleboxId;

    #[test]
    fn finds_overlaps_and_duplicates() {
        let mut m = NaiveMatcher::new();
        m.add_set(&PatternSet::from_strs(MiddleboxId(0), &["AA", "A"]));
        let hits = m.find_all(b"AAA");
        // A at 0,1,2 and AA at 1,2.
        assert_eq!(hits.len(), 5);
    }

    #[test]
    fn respects_middlebox_identity() {
        let mut m = NaiveMatcher::new();
        m.add_set(&PatternSet::from_strs(MiddleboxId(0), &["X"]));
        m.add_set(&PatternSet::from_strs(MiddleboxId(1), &["X"]));
        assert_eq!(m.find_all(b"X").len(), 2);
    }
}
