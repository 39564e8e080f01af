//! A bounded-memory lazy DFA over the NFA.
//!
//! Determinizes the Thompson NFA on the fly, caching subset-construction
//! states as they are visited. Gives full-speed O(1)-per-byte scanning on
//! the hot path while bounding memory: if the cache exceeds
//! [`LazyDfa::MAX_CACHED_STATES`] it is cleared and rebuilt, so a hostile
//! input can slow the engine down but never exhaust memory — the DFA
//! "state explosion" problem §3 mentions is contained by construction.

use crate::nfa::{Nfa, State};
use std::borrow::Borrow;
use std::collections::HashMap;

/// The lazy DFA, generic over NFA ownership: `LazyDfa<&Nfa>` borrows
/// (scratch usage), `LazyDfa<Nfa>` owns (long-lived engines such as the
/// DPI instance's always-on parallel regex path). The cache grows with
/// use.
#[derive(Debug)]
pub struct LazyDfa<N: Borrow<Nfa>> {
    nfa: N,
    /// Sorted NFA-state set → DFA state id.
    cache: HashMap<Vec<u32>, u32>,
    /// The NFA set of each DFA state.
    sets: Vec<Vec<u32>>,
    /// 256 transitions per DFA state; `UNKNOWN` = not yet computed.
    transitions: Vec<u32>,
    /// Whether each DFA state contains an unconditional match.
    matching: Vec<bool>,
    /// Whether each DFA state matches once the input ends (via `$`).
    matching_at_end: Vec<bool>,
    start: u32,
}

const UNKNOWN: u32 = u32::MAX;
/// The all-transitions-dead state.
const DEAD: u32 = 0;

impl<N: Borrow<Nfa>> LazyDfa<N> {
    /// Cache bound; exceeding it flushes the cache.
    pub const MAX_CACHED_STATES: usize = 8192;

    /// Creates a lazy DFA for `nfa`.
    pub fn new(nfa: N) -> LazyDfa<N> {
        let mut dfa = LazyDfa {
            nfa,
            cache: HashMap::new(),
            sets: Vec::new(),
            transitions: Vec::new(),
            matching: Vec::new(),
            matching_at_end: Vec::new(),
            start: 0,
        };
        dfa.reset();
        dfa
    }

    fn reset(&mut self) {
        self.cache.clear();
        self.sets.clear();
        self.transitions.clear();
        self.matching.clear();
        self.matching_at_end.clear();
        // DFA state 0 is the dead state (empty NFA set).
        self.intern(Vec::new());
        // The start state: epsilon closure of the NFA start at position 0.
        let set = self.closure_of_start(true);
        self.start = self.intern(set);
    }

    /// Epsilon closure of the NFA start state.
    fn closure_of_start(&self, at_start: bool) -> Vec<u32> {
        let nfa = self.nfa.borrow();
        let mut out = Vec::new();
        let mut seen = vec![false; nfa.len()];
        closure(nfa, nfa.start_state(), at_start, &mut seen, &mut out);
        out.sort_unstable();
        out
    }

    fn intern(&mut self, set: Vec<u32>) -> u32 {
        if let Some(&id) = self.cache.get(&set) {
            return id;
        }
        let id = self.sets.len() as u32;
        let nfa = self.nfa.borrow();
        let states = nfa.states();
        self.matching.push(
            set.iter()
                .any(|&s| matches!(states[s as usize], State::Match)),
        );
        self.matching_at_end.push(end_closure_matches(nfa, &set));
        self.cache.insert(set.clone(), id);
        self.sets.push(set);
        self.transitions.extend([UNKNOWN; 256]);
        id
    }

    fn compute_transition(&mut self, from: u32, byte: u8) -> u32 {
        let nfa = self.nfa.borrow();
        let mut seen = vec![false; nfa.len()];
        let mut out = Vec::new();
        let states = nfa.states();
        for &s in &self.sets[from as usize] {
            if let State::Byte { set, next } = &states[s as usize] {
                if set.contains(byte) {
                    closure(nfa, *next, false, &mut seen, &mut out);
                }
            }
        }
        // Unanchored search folds the restart into every transition.
        if !nfa.anchored_start() {
            closure(nfa, nfa.start_state(), false, &mut seen, &mut out);
        }
        out.sort_unstable();

        if self.sets.len() >= Self::MAX_CACHED_STATES {
            // Flush and re-intern only what this transition needs.
            self.reset();
        }
        let to = self.intern(out);
        // `from` may have been flushed by reset(); guard against stale ids.
        if (from as usize) < self.sets.len() {
            self.transitions[from as usize * 256 + usize::from(byte)] = to;
        }
        to
    }

    /// Whether any match exists in `haystack`. Equivalent to
    /// [`Nfa::is_match`] — the property tests check that.
    pub fn is_match(&mut self, haystack: &[u8]) -> bool {
        self.find_end(haystack).is_some()
    }

    /// The exclusive end offset of the earliest-completing match.
    pub fn find_end(&mut self, haystack: &[u8]) -> Option<usize> {
        let mut s = self.start;
        if self.matching[s as usize] {
            return Some(0);
        }
        for (i, &b) in haystack.iter().enumerate() {
            let cached = self.transitions[s as usize * 256 + usize::from(b)];
            s = if cached == UNKNOWN {
                self.compute_transition(s, b)
            } else {
                cached
            };
            if self.matching[s as usize] {
                return Some(i + 1);
            }
            if s == DEAD {
                return None;
            }
        }
        if self.matching_at_end[s as usize] {
            return Some(haystack.len());
        }
        None
    }
}

/// Epsilon closure helper shared with the DFA: collects Byte/Match states.
fn closure(nfa: &Nfa, state: u32, at_start: bool, seen: &mut [bool], out: &mut Vec<u32>) {
    let states = nfa.states();
    let mut stack = vec![state];
    while let Some(s) = stack.pop() {
        if seen[s as usize] {
            continue;
        }
        seen[s as usize] = true;
        match &states[s as usize] {
            State::Split(a, b) => {
                stack.push(*a);
                stack.push(*b);
            }
            State::AssertStart(n) => {
                if at_start {
                    stack.push(*n);
                }
            }
            State::AssertEnd(_) => {
                // End assertions are resolved by `end_closure_matches`.
                out.push(s);
            }
            State::Byte { .. } | State::Match => out.push(s),
        }
    }
}

/// Whether `set`, at end of input, can epsilon-reach a match (resolving
/// `$` assertions positively).
fn end_closure_matches(nfa: &Nfa, set: &[u32]) -> bool {
    let states = nfa.states();
    let mut seen = vec![false; nfa.len()];
    let mut stack: Vec<u32> = set.to_vec();
    while let Some(s) = stack.pop() {
        if seen[s as usize] {
            continue;
        }
        seen[s as usize] = true;
        match &states[s as usize] {
            State::Match => return true,
            State::AssertEnd(n) => stack.push(*n),
            State::Split(a, b) => {
                stack.push(*a);
                stack.push(*b);
            }
            _ => {}
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn check(pattern: &str, haystack: &[u8]) {
        let nfa = Nfa::compile(&parse(pattern).unwrap());
        let mut dfa = LazyDfa::new(&nfa);
        assert_eq!(
            dfa.find_end(haystack),
            nfa.find_end(haystack),
            "pattern {pattern:?} on {haystack:?}"
        );
    }

    #[test]
    fn dfa_agrees_with_nfa_on_basics() {
        for (p, h) in [
            ("abc", b"xxabcxx".as_slice()),
            ("abc", b"abd".as_slice()),
            ("a+b", b"caaab".as_slice()),
            ("^ab", b"xab".as_slice()),
            ("^ab", b"abx".as_slice()),
            ("ab$", b"ab".as_slice()),
            ("ab$", b"abx".as_slice()),
            ("a|b|c", b"zzzb".as_slice()),
            (r"\d{3}", b"ab12cd345".as_slice()),
            ("", b"anything".as_slice()),
        ] {
            check(p, h);
        }
    }

    #[test]
    fn dfa_handles_end_anchor_at_eoi_only() {
        let nfa = Nfa::compile(&parse("end$").unwrap());
        let mut dfa = LazyDfa::new(&nfa);
        assert_eq!(dfa.find_end(b"the end"), Some(7));
        assert_eq!(dfa.find_end(b"the end."), None);
    }

    #[test]
    fn cache_is_reused_across_calls() {
        let nfa = Nfa::compile(&parse("needle").unwrap());
        let mut dfa = LazyDfa::new(&nfa);
        assert!(dfa.is_match(b"find the needle here"));
        let after_first = dfa.sets.len();
        assert!(dfa.is_match(b"another needle haystack"));
        // Mostly the same byte classes: the cache barely grows.
        assert!(dfa.sets.len() <= after_first + 2);
    }

    #[test]
    fn dead_state_short_circuits() {
        let nfa = Nfa::compile(&parse("^never").unwrap());
        let mut dfa = LazyDfa::new(&nfa);
        assert!(!dfa.is_match(&[b'x'; 10_000]));
    }
}
