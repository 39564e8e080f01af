//! # dpi-regex
//!
//! A from-scratch regular-expression engine for the *DPI as a Service*
//! reproduction, standing in for PCRE (§5.3 of the paper invokes "an
//! off-the-shelf regular expression engine (e.g., PCRE)" after the string
//! pre-filter; this crate is that engine, built in Rust).
//!
//! Supported syntax — the subset that covers Snort-style payload rules:
//!
//! * byte literals, escapes (`\n \r \t \0 \xHH \\` and escaped
//!   metacharacters)
//! * character classes `[a-z0-9_]`, negated classes `[^…]`, and the
//!   perl classes `\d \D \s \S \w \W`
//! * `.` (any byte except `\n`; `(?s)` makes it truly any byte)
//! * quantifiers `* + ? {m} {m,} {m,n}` (greedy; matching is
//!   automata-based so greediness never affects *whether* an input
//!   matches, which is all the DPI service needs)
//! * alternation `|`, groups `(…)` and `(?:…)`
//! * anchors `^` and `$`
//! * leading flags `(?i)` (case-insensitive) and `(?s)` (dot-all)
//!
//! Internally a pattern is parsed to an AST ([`ast`]), compiled to a
//! Thompson NFA ([`nfa`]), and executed either by the NFA simulation
//! (worst-case O(n·m), no pathological blowup — the engine is safe against
//! the ReDoS-style complexity attacks that §4.3.1 worries about) or by a
//! bounded-memory lazy DFA ([`dfa`]).
//!
//! [`anchor::extract_anchors`] implements §5.3's anchor extraction: the
//! literal strings of length ≥ 4 that *must* appear in any match, which
//! the DPI service registers with its Aho-Corasick pre-filter.

pub mod anchor;
pub mod ast;
pub mod dfa;
pub mod nfa;
pub mod parser;

pub use anchor::{extract_anchors, MIN_ANCHOR_LEN};
pub use parser::ParseErrorKind;

use serde::{Deserialize, Serialize};

/// A compiled regular expression.
///
/// ```
/// use dpi_regex::Regex;
///
/// let re = Regex::new(r"regular\s*expression\s*\d+").unwrap();
/// assert!(re.is_match(b"a regular expression 42"));
/// // §5.3 anchors: the literals any match must contain.
/// assert_eq!(re.anchors().len(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct Regex {
    /// The source pattern.
    pattern: String,
    nfa: nfa::Nfa,
    anchors: Vec<Vec<u8>>,
}

/// Compilation errors, with the byte offset in the pattern.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RegexError {
    /// What went wrong.
    pub kind: ParseErrorKind,
    /// Byte offset in the pattern source.
    pub position: usize,
}

impl std::fmt::Display for RegexError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "regex parse error at {}: {}", self.position, self.kind)
    }
}

impl std::error::Error for RegexError {}

impl Regex {
    /// Compiles `pattern`.
    pub fn new(pattern: &str) -> Result<Regex, RegexError> {
        let ast = parser::parse(pattern)?;
        let nfa = nfa::Nfa::compile(&ast);
        let anchors = anchor::extract_anchors(&ast);
        Ok(Regex {
            pattern: pattern.to_string(),
            nfa,
            anchors,
        })
    }

    /// The source pattern.
    pub fn pattern(&self) -> &str {
        &self.pattern
    }

    /// Whether `haystack` contains a match (unanchored unless the pattern
    /// starts with `^`).
    pub fn is_match(&self, haystack: &[u8]) -> bool {
        self.nfa.is_match(haystack)
    }

    /// The end offset (exclusive) of the leftmost match, if any.
    pub fn find_end(&self, haystack: &[u8]) -> Option<usize> {
        self.nfa.find_end(haystack)
    }

    /// The §5.3 anchors: literal strings of length ≥ [`MIN_ANCHOR_LEN`]
    /// that must all appear in any matching input. Empty when the pattern
    /// has no sufficiently long mandatory literals — such expressions run
    /// on the parallel regex path (§5.3 last paragraph).
    pub fn anchors(&self) -> &[Vec<u8>] {
        &self.anchors
    }

    /// Builds an owning lazy DFA over a clone of this regex's NFA — the
    /// representation for long-lived, hot engines such as the DPI
    /// instance's always-on parallel path (§5.3's "regular expression
    /// matching algorithm … run in parallel to our string matching
    /// algorithm").
    pub fn to_lazy_dfa(&self) -> dfa::LazyDfa<nfa::Nfa> {
        dfa::LazyDfa::new(self.nfa.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_example_pattern() {
        // The paper's §5.3 example: regular\s*expression\s*\d+ with
        // anchors "regular" and "expression".
        let re = Regex::new(r"regular\s*expression\s*\d+").unwrap();
        assert!(re.is_match(b"a regular expression 42 here"));
        assert!(re.is_match(b"regularexpression7"));
        assert!(!re.is_match(b"regular expression"));
        let anchors: Vec<&[u8]> = re.anchors().iter().map(|a| a.as_slice()).collect();
        assert_eq!(
            anchors,
            vec![b"regular".as_slice(), b"expression".as_slice()]
        );
    }

    #[test]
    fn case_insensitive_flag() {
        let re = Regex::new(r"(?i)attack").unwrap();
        assert!(re.is_match(b"ATTACK"));
        assert!(re.is_match(b"AtTaCk"));
        assert!(!re.is_match(b"atta ck"));
    }

    #[test]
    fn case_insensitive_anchor_is_sound_for_every_match() {
        // The anchor contract under (?i): whatever `anchors()` returns
        // must appear verbatim in every matching input. Caseless digits
        // anchor; folded letters must not.
        let re = Regex::new(r"(?i)id=12345;user=\w+").unwrap();
        assert_eq!(re.anchors(), &[b"=12345;".to_vec()]);
        for input in [&b"ID=12345;USER=x"[..], b"id=12345;User=Bob"] {
            assert!(re.is_match(input));
            assert!(
                input.windows(7).any(|w| w == b"=12345;"),
                "anchor must be present in every match"
            );
        }
    }

    #[test]
    fn find_end_is_earliest_completion() {
        // "ab" completes after consuming index 3 → exclusive end 4.
        let re = Regex::new(r"ab+").unwrap();
        assert_eq!(re.find_end(b"xxabbbyyab"), Some(4));
        assert_eq!(re.find_end(b"zzz"), None);
    }

    #[test]
    fn error_carries_position() {
        let err = Regex::new(r"ab[").unwrap_err();
        assert_eq!(err.position, 3);
    }
}
