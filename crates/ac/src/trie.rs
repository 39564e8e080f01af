//! The goto trie — phase one of the Aho-Corasick construction (§3).
//!
//! "First, a tree of the strings is built, where strings are added one by
//! one from the root as chains (each node in the tree corresponds to a DFA
//! state). When patterns share a common prefix, they also share the
//! corresponding set of states in the tree."

use crate::{MatchEntry, MiddleboxId, PatternId};
use std::collections::BTreeMap;

/// One trie node. Children are kept sorted so the construction (and the
/// sparse automaton derived from it) is deterministic.
#[derive(Debug, Default, Clone)]
pub struct TrieNode {
    /// Forward (goto) transitions.
    pub children: BTreeMap<u8, u32>,
    /// Patterns whose chain ends exactly at this node (before suffix
    /// propagation).
    pub outputs: Vec<MatchEntry>,
    /// Depth = length of the node's label L(s).
    pub depth: u16,
    /// Failure link, filled by [`Trie::build_failure_links`].
    pub fail: u32,
}

/// The mutable construction trie shared by both automaton representations.
#[derive(Debug, Clone)]
pub struct Trie {
    nodes: Vec<TrieNode>,
}

/// Errors from pattern insertion.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TrieError {
    /// Patterns must be non-empty: an empty pattern would make the root
    /// accepting and match at every position.
    EmptyPattern {
        /// The middlebox that submitted it.
        middlebox: MiddleboxId,
        /// Its id within that middlebox's set.
        pattern: PatternId,
    },
    /// Patterns longer than `u16::MAX` cannot be represented in match
    /// entries (and no realistic signature approaches that size).
    PatternTooLong {
        /// The middlebox that submitted it.
        middlebox: MiddleboxId,
        /// Its id within that middlebox's set.
        pattern: PatternId,
        /// The offending length.
        len: usize,
    },
}

impl std::fmt::Display for TrieError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TrieError::EmptyPattern { middlebox, pattern } => write!(
                f,
                "empty pattern (middlebox {}, pattern {})",
                middlebox.0, pattern.0
            ),
            TrieError::PatternTooLong {
                middlebox,
                pattern,
                len,
            } => write!(
                f,
                "pattern of {len} bytes exceeds u16 (middlebox {}, pattern {})",
                middlebox.0, pattern.0
            ),
        }
    }
}

impl std::error::Error for TrieError {}

impl Trie {
    /// An empty trie with only the root state.
    pub fn new() -> Trie {
        Trie {
            nodes: vec![TrieNode::default()],
        }
    }

    /// Number of nodes (= DFA states after flattening).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether only the root exists.
    pub fn is_empty(&self) -> bool {
        self.nodes.len() == 1
    }

    /// Immutable node access.
    pub fn node(&self, id: u32) -> &TrieNode {
        &self.nodes[id as usize]
    }

    /// All nodes, for the flattening passes.
    pub fn nodes(&self) -> &[TrieNode] {
        &self.nodes
    }

    /// Adds `pattern` on behalf of `middlebox`/`pattern_id`. Shared
    /// prefixes reuse existing nodes; a pattern registered by several
    /// middleboxes ends at one node with several output entries.
    pub fn add_pattern(
        &mut self,
        middlebox: MiddleboxId,
        pattern_id: PatternId,
        pattern: &[u8],
    ) -> Result<(), TrieError> {
        if pattern.is_empty() {
            return Err(TrieError::EmptyPattern {
                middlebox,
                pattern: pattern_id,
            });
        }
        if pattern.len() > usize::from(u16::MAX) {
            return Err(TrieError::PatternTooLong {
                middlebox,
                pattern: pattern_id,
                len: pattern.len(),
            });
        }
        let mut cur = 0u32;
        for (i, &b) in pattern.iter().enumerate() {
            cur = match self.nodes[cur as usize].children.get(&b) {
                Some(&next) => next,
                None => {
                    let next = self.nodes.len() as u32;
                    self.nodes.push(TrieNode {
                        depth: (i + 1) as u16,
                        ..TrieNode::default()
                    });
                    self.nodes[cur as usize].children.insert(b, next);
                    next
                }
            };
        }
        let entry = MatchEntry {
            middlebox,
            pattern: pattern_id,
            len: pattern.len() as u16,
        };
        let outputs = &mut self.nodes[cur as usize].outputs;
        // Keep outputs sorted and deduplicated: registering the identical
        // (middlebox, pattern id) twice is idempotent.
        if let Err(pos) = outputs.binary_search(&entry) {
            outputs.insert(pos, entry);
        }
        Ok(())
    }

    /// Phase two of the construction: breadth-first failure links. After
    /// this, `fail(s)` points to the state whose label is the longest
    /// proper suffix of `L(s)` present in the trie, and each node's output
    /// list has been extended with its failure ancestors' outputs (the
    /// suffix-propagation step of §5.1).
    ///
    /// Returns the BFS order (root first), which the flattening passes
    /// reuse.
    pub fn build_failure_links(&mut self) -> Vec<u32> {
        let mut order = Vec::with_capacity(self.nodes.len());
        let mut queue = std::collections::VecDeque::new();

        // Depth-1 nodes fail to the root.
        let first: Vec<u32> = self.nodes[0].children.values().copied().collect();
        for c in first {
            self.nodes[c as usize].fail = 0;
            queue.push_back(c);
        }
        order.push(0);

        // One buffer for every node's children: the walk below mutates
        // `self.nodes`, so it cannot hold the map's iterator, and a fresh
        // `Vec` per node was a third of this function's time.
        let mut children: Vec<(u8, u32)> = Vec::new();
        while let Some(u) = queue.pop_front() {
            order.push(u);
            children.clear();
            children.extend(
                self.nodes[u as usize]
                    .children
                    .iter()
                    .map(|(&b, &c)| (b, c)),
            );
            for &(b, v) in &children {
                // Walk failure links of u until a node with a b-child (or
                // the root) is found.
                let mut f = self.nodes[u as usize].fail;
                let fail_v = loop {
                    if let Some(&w) = self.nodes[f as usize].children.get(&b) {
                        if w != v {
                            break w;
                        }
                    }
                    if f == 0 {
                        break 0;
                    }
                    f = self.nodes[f as usize].fail;
                };
                self.nodes[v as usize].fail = fail_v;
                // Suffix propagation: merge fail target's outputs.
                if !self.nodes[fail_v as usize].outputs.is_empty() {
                    let inherited = self.nodes[fail_v as usize].outputs.clone();
                    let outputs = &mut self.nodes[v as usize].outputs;
                    for e in inherited {
                        if let Err(pos) = outputs.binary_search(&e) {
                            outputs.insert(pos, e);
                        }
                    }
                }
                queue.push_back(v);
            }
        }
        order
    }
}

impl Default for Trie {
    fn default() -> Self {
        Trie::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(mb: u16, pid: u16, len: u16) -> MatchEntry {
        MatchEntry {
            middlebox: MiddleboxId(mb),
            pattern: PatternId(pid),
            len,
        }
    }

    #[test]
    fn shared_prefixes_share_nodes() {
        let mut t = Trie::new();
        t.add_pattern(MiddleboxId(0), PatternId(0), b"BCD").unwrap();
        t.add_pattern(MiddleboxId(0), PatternId(1), b"BCAA")
            .unwrap();
        // root + B + C + D + A + A = 6 nodes
        assert_eq!(t.len(), 6);
    }

    #[test]
    fn duplicate_pattern_across_middleboxes_shares_state() {
        let mut t = Trie::new();
        t.add_pattern(MiddleboxId(0), PatternId(1), b"BE").unwrap();
        t.add_pattern(MiddleboxId(1), PatternId(1), b"BE").unwrap();
        assert_eq!(t.len(), 3);
        // Find the BE node and check both entries are there.
        let b = *t.node(0).children.get(&b'B').unwrap();
        let be = *t.node(b).children.get(&b'E').unwrap();
        assert_eq!(t.node(be).outputs, vec![entry(0, 1, 2), entry(1, 1, 2)]);
    }

    #[test]
    fn identical_registration_is_idempotent() {
        let mut t = Trie::new();
        t.add_pattern(MiddleboxId(0), PatternId(1), b"XY").unwrap();
        t.add_pattern(MiddleboxId(0), PatternId(1), b"XY").unwrap();
        let x = *t.node(0).children.get(&b'X').unwrap();
        let xy = *t.node(x).children.get(&b'Y').unwrap();
        assert_eq!(t.node(xy).outputs.len(), 1);
    }

    #[test]
    fn empty_pattern_is_rejected() {
        let mut t = Trie::new();
        assert!(matches!(
            t.add_pattern(MiddleboxId(0), PatternId(0), b"")
                .unwrap_err(),
            TrieError::EmptyPattern { .. }
        ));
    }

    #[test]
    fn suffix_outputs_are_propagated() {
        // "DEF" is a suffix of "ABCDEF": the ABCDEF accepting node must
        // also carry DEF's entry (the paper's own example).
        let mut t = Trie::new();
        t.add_pattern(MiddleboxId(0), PatternId(0), b"DEF").unwrap();
        t.add_pattern(MiddleboxId(1), PatternId(7), b"ABCDEF")
            .unwrap();
        t.build_failure_links();
        // Walk to the ABCDEF node.
        let mut cur = 0u32;
        for b in b"ABCDEF" {
            cur = *t.node(cur).children.get(b).unwrap();
        }
        assert_eq!(t.node(cur).outputs, vec![entry(0, 0, 3), entry(1, 7, 6)]);
    }

    #[test]
    fn failure_links_point_to_longest_proper_suffix() {
        let mut t = Trie::new();
        t.add_pattern(MiddleboxId(0), PatternId(0), b"AB").unwrap();
        t.add_pattern(MiddleboxId(0), PatternId(1), b"BAB").unwrap();
        t.build_failure_links();
        // Node for "BAB" must fail to node for "AB".
        let b = *t.node(0).children.get(&b'B').unwrap();
        let ba = *t.node(b).children.get(&b'A').unwrap();
        let bab = *t.node(ba).children.get(&b'B').unwrap();
        let a = *t.node(0).children.get(&b'A').unwrap();
        let ab = *t.node(a).children.get(&b'B').unwrap();
        assert_eq!(t.node(bab).fail, ab);
        // And inherit AB's output.
        assert_eq!(t.node(bab).outputs.len(), 2);
    }

    #[test]
    fn bfs_order_visits_all_nodes_parent_first() {
        let mut t = Trie::new();
        t.add_pattern(MiddleboxId(0), PatternId(0), b"ABC").unwrap();
        t.add_pattern(MiddleboxId(0), PatternId(1), b"BC").unwrap();
        let order = t.build_failure_links();
        assert_eq!(order.len(), t.len());
        // Depths must be non-decreasing along the BFS order.
        let depths: Vec<u16> = order.iter().map(|&n| t.node(n).depth).collect();
        let mut sorted = depths.clone();
        sorted.sort_unstable();
        assert_eq!(depths, sorted);
    }
}
