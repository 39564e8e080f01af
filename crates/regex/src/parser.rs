//! Recursive-descent parser for the supported regex subset.

use crate::ast::{Ast, ByteSet};
use crate::RegexError;
use serde::{Deserialize, Serialize};

/// What a parse can complain about.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum ParseErrorKind {
    /// Input ended inside a construct.
    UnexpectedEnd,
    /// A character that cannot start/continue the current construct.
    UnexpectedChar(char),
    /// `)` without `(`.
    UnbalancedParen,
    /// `[` without `]`.
    UnclosedClass,
    /// Bad `{m,n}` contents.
    BadRepetition,
    /// Quantifier with nothing to repeat.
    NothingToRepeat,
    /// `{m,n}` with `m > n`, or a count overflowing the supported range.
    RepetitionOutOfOrder,
    /// A class range like `z-a`.
    ClassRangeOutOfOrder,
    /// An unknown escape such as `\q`.
    UnknownEscape(char),
    /// An unknown inline flag such as `(?x)`.
    UnknownFlag(char),
    /// Repetition counts above this engine's limit (guards NFA size).
    RepetitionTooLarge(u32),
    /// Groups nested deeper than [`MAX_NESTING`] (guards the stack).
    NestingTooDeep,
}

impl std::fmt::Display for ParseErrorKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseErrorKind::UnexpectedEnd => write!(f, "unexpected end of pattern"),
            ParseErrorKind::UnexpectedChar(c) => write!(f, "unexpected character {c:?}"),
            ParseErrorKind::UnbalancedParen => write!(f, "unbalanced parenthesis"),
            ParseErrorKind::UnclosedClass => write!(f, "unclosed character class"),
            ParseErrorKind::BadRepetition => write!(f, "malformed {{m,n}} repetition"),
            ParseErrorKind::NothingToRepeat => write!(f, "quantifier with nothing to repeat"),
            ParseErrorKind::RepetitionOutOfOrder => write!(f, "repetition bounds out of order"),
            ParseErrorKind::ClassRangeOutOfOrder => write!(f, "class range out of order"),
            ParseErrorKind::UnknownEscape(c) => write!(f, "unknown escape \\{c}"),
            ParseErrorKind::UnknownFlag(c) => write!(f, "unknown flag {c}"),
            ParseErrorKind::RepetitionTooLarge(n) => {
                write!(f, "repetition count {n} exceeds the supported maximum")
            }
            ParseErrorKind::NestingTooDeep => {
                write!(f, "groups nested deeper than {MAX_NESTING}")
            }
        }
    }
}

/// Upper bound on `{m,n}` counts: a counted repetition is expanded during
/// NFA compilation, so unbounded counts would let a hostile pattern blow
/// up memory — exactly the complexity-attack surface §4.3.1 cares about.
pub const MAX_COUNTED_REPETITION: u32 = 1000;

/// Upper bound on group nesting: the parser recurses once per group, and
/// so do the compilers over its AST, so an unbounded depth would let a
/// short hostile pattern overflow the stack.
pub const MAX_NESTING: usize = 128;

struct Parser<'a> {
    input: &'a [u8],
    pos: usize,
    case_insensitive: bool,
    dot_all: bool,
    /// Groups open around the current position.
    depth: usize,
}

/// Parses a pattern into an AST.
pub fn parse(pattern: &str) -> Result<Ast, RegexError> {
    let mut p = Parser {
        input: pattern.as_bytes(),
        pos: 0,
        case_insensitive: false,
        dot_all: false,
        depth: 0,
    };
    p.parse_leading_flags()?;
    let ast = p.parse_alt()?;
    if p.pos < p.input.len() {
        // The only way parse_alt stops early is an unmatched ')'.
        return Err(p.err(ParseErrorKind::UnbalancedParen));
    }
    Ok(ast)
}

impl<'a> Parser<'a> {
    fn err(&self, kind: ParseErrorKind) -> RegexError {
        RegexError {
            kind,
            position: self.pos,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.input.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek();
        if b.is_some() {
            self.pos += 1;
        }
        b
    }

    fn eat(&mut self, b: u8) -> bool {
        if self.peek() == Some(b) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    /// `(?i)`, `(?s)`, `(?is)` … only at the very start of the pattern.
    fn parse_leading_flags(&mut self) -> Result<(), RegexError> {
        while self.input[self.pos..].starts_with(b"(?") {
            // Look ahead: only flag groups (letters then ')') are consumed
            // here; `(?:` belongs to the grammar proper.
            let rest = &self.input[self.pos + 2..];
            let end = match rest.iter().position(|&b| b == b')') {
                Some(e) => e,
                None => break,
            };
            let flags = &rest[..end];
            if flags.is_empty() || !flags.iter().all(|b| b.is_ascii_lowercase()) {
                break;
            }
            for &f in flags {
                match f {
                    b'i' => self.case_insensitive = true,
                    b's' => self.dot_all = true,
                    other => {
                        self.pos += 2;
                        return Err(self.err(ParseErrorKind::UnknownFlag(other as char)));
                    }
                }
            }
            self.pos += 2 + end + 1;
        }
        Ok(())
    }

    fn parse_alt(&mut self) -> Result<Ast, RegexError> {
        let mut branches = vec![self.parse_concat()?];
        while self.eat(b'|') {
            branches.push(self.parse_concat()?);
        }
        Ok(if branches.len() == 1 {
            branches.pop().expect("one branch")
        } else {
            Ast::Alt(branches)
        })
    }

    fn parse_concat(&mut self) -> Result<Ast, RegexError> {
        let mut items = Vec::new();
        loop {
            match self.peek() {
                None | Some(b'|') | Some(b')') => break,
                _ => items.push(self.parse_repeat()?),
            }
        }
        Ok(match items.len() {
            0 => Ast::Empty,
            1 => items.pop().expect("one item"),
            _ => Ast::Concat(items),
        })
    }

    fn parse_repeat(&mut self) -> Result<Ast, RegexError> {
        let atom = self.parse_atom()?;
        let (min, max) = match self.peek() {
            Some(b'*') => {
                self.pos += 1;
                (0, None)
            }
            Some(b'+') => {
                self.pos += 1;
                (1, None)
            }
            Some(b'?') => {
                self.pos += 1;
                (0, Some(1))
            }
            Some(b'{') => {
                let save = self.pos;
                match self.parse_counted() {
                    Ok(mm) => mm,
                    Err(e) => {
                        // A `{` that isn't a valid counted repetition is a
                        // literal brace in most engines; PCRE does this
                        // too. Restore and treat as literal (the atom
                        // stands alone).
                        if matches!(
                            e.kind,
                            ParseErrorKind::BadRepetition | ParseErrorKind::UnexpectedEnd
                        ) {
                            // Literal '{': the atom stands alone and the
                            // brace is re-read as an ordinary character.
                            self.pos = save;
                            return Ok(atom);
                        }
                        return Err(e);
                    }
                }
            }
            _ => return Ok(atom),
        };
        let atom = self.check_repeatable(atom)?;
        // `a??`-style double quantifiers (lazy modifiers) — accept and
        // ignore the laziness marker: automata matching is oblivious to it.
        self.eat(b'?');
        Ok(Ast::Repeat {
            node: Box::new(atom),
            min,
            max,
        })
    }

    fn check_repeatable(&self, atom: Ast) -> Result<Ast, RegexError> {
        match atom {
            Ast::AnchorStart | Ast::AnchorEnd | Ast::Empty => {
                Err(self.err(ParseErrorKind::NothingToRepeat))
            }
            ok => Ok(ok),
        }
    }

    fn parse_counted(&mut self) -> Result<(u32, Option<u32>), RegexError> {
        assert!(self.eat(b'{'));
        let min = self.parse_number()?;
        let max = if self.eat(b',') {
            if self.peek() == Some(b'}') {
                None
            } else {
                Some(self.parse_number()?)
            }
        } else {
            Some(min)
        };
        if !self.eat(b'}') {
            return Err(self.err(ParseErrorKind::BadRepetition));
        }
        if let Some(m) = max {
            if min > m {
                return Err(self.err(ParseErrorKind::RepetitionOutOfOrder));
            }
        }
        let cap = max.unwrap_or(min);
        if cap > MAX_COUNTED_REPETITION {
            return Err(self.err(ParseErrorKind::RepetitionTooLarge(cap)));
        }
        Ok((min, max))
    }

    fn parse_number(&mut self) -> Result<u32, RegexError> {
        let start = self.pos;
        while matches!(self.peek(), Some(b) if b.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.pos == start {
            return Err(self.err(ParseErrorKind::BadRepetition));
        }
        std::str::from_utf8(&self.input[start..self.pos])
            .expect("digits are utf8")
            .parse::<u32>()
            .map_err(|_| self.err(ParseErrorKind::RepetitionTooLarge(u32::MAX)))
    }

    fn class_ast(&self, set: ByteSet) -> Ast {
        Ast::Class(if self.case_insensitive {
            set.case_insensitive()
        } else {
            set
        })
    }

    fn parse_atom(&mut self) -> Result<Ast, RegexError> {
        match self.peek() {
            None => Err(self.err(ParseErrorKind::UnexpectedEnd)),
            Some(b'(') => {
                self.pos += 1;
                // Non-capturing marker (captures are not supported, so a
                // plain group is equivalent).
                if self.input[self.pos..].starts_with(b"?:") {
                    self.pos += 2;
                } else if self.peek() == Some(b'?') {
                    self.pos += 1;
                    let c = self.peek().map(|b| b as char).unwrap_or('?');
                    return Err(self.err(ParseErrorKind::UnknownFlag(c)));
                }
                if self.depth == MAX_NESTING {
                    return Err(self.err(ParseErrorKind::NestingTooDeep));
                }
                self.depth += 1;
                let inner = self.parse_alt()?;
                self.depth -= 1;
                if !self.eat(b')') {
                    return Err(self.err(ParseErrorKind::UnbalancedParen));
                }
                Ok(inner)
            }
            Some(b')') => Err(self.err(ParseErrorKind::UnbalancedParen)),
            Some(b'[') => {
                self.pos += 1;
                let set = self.parse_class()?;
                Ok(self.class_ast(set))
            }
            Some(b'.') => {
                self.pos += 1;
                Ok(Ast::Class(if self.dot_all {
                    ByteSet::full()
                } else {
                    ByteSet::dot()
                }))
            }
            Some(b'^') => {
                self.pos += 1;
                Ok(Ast::AnchorStart)
            }
            Some(b'$') => {
                self.pos += 1;
                Ok(Ast::AnchorEnd)
            }
            Some(b'\\') => {
                self.pos += 1;
                let set = self.parse_escape()?;
                Ok(self.class_ast(set))
            }
            Some(b'*') | Some(b'+') | Some(b'?') => Err(self.err(ParseErrorKind::NothingToRepeat)),
            Some(b) => {
                self.pos += 1;
                Ok(self.class_ast(ByteSet::single(b)))
            }
        }
    }

    /// After a `\`.
    fn parse_escape(&mut self) -> Result<ByteSet, RegexError> {
        let c = self
            .bump()
            .ok_or_else(|| self.err(ParseErrorKind::UnexpectedEnd))?;
        Ok(match c {
            b'd' => ByteSet::digits(),
            b'D' => ByteSet::digits().negated(),
            b's' => ByteSet::whitespace(),
            b'S' => ByteSet::whitespace().negated(),
            b'w' => ByteSet::word(),
            b'W' => ByteSet::word().negated(),
            b'n' => ByteSet::single(b'\n'),
            b'r' => ByteSet::single(b'\r'),
            b't' => ByteSet::single(b'\t'),
            b'0' => ByteSet::single(0),
            b'x' => {
                let hi = self
                    .bump()
                    .ok_or_else(|| self.err(ParseErrorKind::UnexpectedEnd))?;
                let lo = self
                    .bump()
                    .ok_or_else(|| self.err(ParseErrorKind::UnexpectedEnd))?;
                let hex = |b: u8| -> Result<u8, RegexError> {
                    (b as char)
                        .to_digit(16)
                        .map(|d| d as u8)
                        .ok_or_else(|| self.err(ParseErrorKind::UnknownEscape('x')))
                };
                ByteSet::single(hex(hi)? * 16 + hex(lo)?)
            }
            // Escaped metacharacters and punctuation are literal.
            c if c.is_ascii_punctuation() => ByteSet::single(c),
            other => return Err(self.err(ParseErrorKind::UnknownEscape(other as char))),
        })
    }

    /// After a `[`.
    fn parse_class(&mut self) -> Result<ByteSet, RegexError> {
        let negate = self.eat(b'^');
        let mut set = ByteSet::empty();
        let mut first = true;
        loop {
            let b = match self.peek() {
                None => return Err(self.err(ParseErrorKind::UnclosedClass)),
                Some(b']') if !first => {
                    self.pos += 1;
                    break;
                }
                Some(b) => b,
            };
            first = false;
            self.pos += 1;
            let lo_set = if b == b'\\' {
                self.parse_escape()?
            } else {
                ByteSet::single(b)
            };
            // Range? Only when the left side was a single byte and a `-`
            // followed by a non-`]` comes next.
            if let Some(lo) = lo_set.as_single() {
                if self.peek() == Some(b'-') && self.input.get(self.pos + 1) != Some(&b']') {
                    self.pos += 1; // '-'
                    let hb = self
                        .bump()
                        .ok_or_else(|| self.err(ParseErrorKind::UnclosedClass))?;
                    let hi = if hb == b'\\' {
                        self.parse_escape()?
                            .as_single()
                            .ok_or_else(|| self.err(ParseErrorKind::ClassRangeOutOfOrder))?
                    } else {
                        hb
                    };
                    if lo > hi {
                        return Err(self.err(ParseErrorKind::ClassRangeOutOfOrder));
                    }
                    set.insert_range(lo, hi);
                    continue;
                }
            }
            set = set.union(&lo_set);
        }
        Ok(if negate { set.negated() } else { set })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ok(p: &str) -> Ast {
        parse(p).unwrap()
    }

    fn fail(p: &str) -> ParseErrorKind {
        parse(p).unwrap_err().kind
    }

    #[test]
    fn literals_become_singleton_classes() {
        match ok("a") {
            Ast::Class(s) => assert_eq!(s.as_single(), Some(b'a')),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn concat_and_alt_structure() {
        match ok("ab|c") {
            Ast::Alt(branches) => {
                assert_eq!(branches.len(), 2);
                assert!(matches!(branches[0], Ast::Concat(_)));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn quantifiers_parse() {
        for (p, min, max) in [
            ("a*", 0, None),
            ("a+", 1, None),
            ("a?", 0, Some(1)),
            ("a{3}", 3, Some(3)),
            ("a{2,}", 2, None),
            ("a{2,5}", 2, Some(5)),
        ] {
            match ok(p) {
                Ast::Repeat { min: m, max: x, .. } => {
                    assert_eq!((m, x), (min, max), "pattern {p}");
                }
                other => panic!("{p}: {other:?}"),
            }
        }
    }

    #[test]
    fn literal_brace_fallback() {
        // `a{` and `a{x}` are literal braces, like PCRE.
        assert!(parse("a{").is_ok());
        assert!(parse("a{x}").is_ok());
    }

    #[test]
    fn classes_parse() {
        match ok("[a-c8]") {
            Ast::Class(s) => {
                for b in [b'a', b'b', b'c', b'8'] {
                    assert!(s.contains(b));
                }
                assert_eq!(s.len(), 4);
            }
            other => panic!("{other:?}"),
        }
        match ok("[^a]") {
            Ast::Class(s) => {
                assert!(!s.contains(b'a'));
                assert_eq!(s.len(), 255);
            }
            other => panic!("{other:?}"),
        }
        // Leading ']' is a literal member.
        match ok("[]a]") {
            Ast::Class(s) => {
                assert!(s.contains(b']') && s.contains(b'a'));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn escapes_parse() {
        match ok(r"\x41") {
            Ast::Class(s) => assert_eq!(s.as_single(), Some(b'A')),
            other => panic!("{other:?}"),
        }
        match ok(r"\.") {
            Ast::Class(s) => assert_eq!(s.as_single(), Some(b'.')),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn error_cases() {
        assert_eq!(fail("("), ParseErrorKind::UnbalancedParen);
        assert_eq!(fail(")"), ParseErrorKind::UnbalancedParen);
        assert_eq!(fail("[ab"), ParseErrorKind::UnclosedClass);
        assert_eq!(fail("*a"), ParseErrorKind::NothingToRepeat);
        assert_eq!(fail("a{5,2}"), ParseErrorKind::RepetitionOutOfOrder);
        assert_eq!(fail("[z-a]"), ParseErrorKind::ClassRangeOutOfOrder);
        assert_eq!(fail(r"\q"), ParseErrorKind::UnknownEscape('q'));
        assert_eq!(fail("(?x)a"), ParseErrorKind::UnknownFlag('x'));
        assert_eq!(fail("a{2000}"), ParseErrorKind::RepetitionTooLarge(2000));
        let nested = |n: usize| format!("{}a{}", "(".repeat(n), ")".repeat(n));
        assert!(parse(&nested(MAX_NESTING)).is_ok());
        assert_eq!(
            fail(&nested(MAX_NESTING + 1)),
            ParseErrorKind::NestingTooDeep
        );
    }

    #[test]
    fn anchors_parse() {
        match ok("^a$") {
            Ast::Concat(items) => {
                assert!(matches!(items[0], Ast::AnchorStart));
                assert!(matches!(items[2], Ast::AnchorEnd));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn flags_only_at_start() {
        assert!(parse("(?i)abc").is_ok());
        assert!(parse("(?is)abc").is_ok());
        // Mid-pattern flag groups are unsupported flags.
        assert!(matches!(fail("ab(?i)c"), ParseErrorKind::UnknownFlag(_)));
    }
}
