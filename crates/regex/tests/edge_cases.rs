//! Edge-case regression suite for the regex engine: constructions that
//! are easy to get subtly wrong in hand-written automata engines.

use dpi_regex::dfa::LazyDfa;
use dpi_regex::nfa::Nfa;
use dpi_regex::{parser, Regex};

fn matches(pattern: &str, haystack: &[u8]) -> bool {
    let re = Regex::new(pattern).unwrap();
    // NFA and lazy DFA must agree on every call in this suite.
    let nfa = Nfa::compile(&parser::parse(pattern).unwrap());
    let mut dfa = LazyDfa::new(&nfa);
    let a = re.is_match(haystack);
    let b = dfa.is_match(haystack);
    assert_eq!(a, b, "engines disagree on {pattern:?} / {haystack:?}");
    a
}

#[test]
fn nested_groups_and_repeats() {
    assert!(matches("(a(bc)*d)+", b"xx abcbcd abd yy"));
    assert!(matches("(a(bc)*d)+", b"ad"));
    assert!(!matches("^(a(bc)*d)+$", b"abcbc"));
    assert!(matches("((a|b)(c|d))+", b"zz acbd zz"));
}

#[test]
fn alternation_inside_repetition() {
    assert!(matches("(ab|cd){2}", b"abcd"));
    assert!(matches("(ab|cd){2}", b"cdab"));
    assert!(!matches("^(ab|cd){2}$", b"abc"));
    assert!(matches("(x|yy)+z", b"xyyxz"));
}

#[test]
fn counted_repetition_boundaries() {
    assert!(!matches("^a{3,5}$", b"aa"));
    assert!(matches("^a{3,5}$", b"aaa"));
    assert!(matches("^a{3,5}$", b"aaaaa"));
    assert!(!matches("^a{3,5}$", b"aaaaaa"));
    // {0,n} includes the empty match.
    assert!(matches("^a{0,2}$", b""));
    assert!(matches("^(ab){1,2}c$", b"ababc"));
}

#[test]
fn classes_with_metacharacters_and_ranges() {
    assert!(matches(r"[.+*?]", b"literal + inside class"));
    assert!(matches(r"[a\-z]", b"hy-phen")); // escaped dash is literal
    assert!(matches(r"[]x]", b"]")); // leading ] is literal
    assert!(!matches(r"[^\x00-\x7f]", b"pure ascii"));
    assert!(matches(r"[^\x00-\x7f]", &[0xc3, 0xa9])); // high bytes
}

#[test]
fn dot_and_dotall_semantics() {
    assert!(!matches("a.b", b"a\nb"));
    assert!(matches("(?s)a.b", b"a\nb"));
    assert!(matches("a.b", b"a\tb"));
}

#[test]
fn anchors_in_alternations() {
    assert!(matches("^start|end$", b"the end"));
    assert!(matches("^start|end$", b"start of it"));
    assert!(!matches("^start|end$", b"restarted ending"));
    // Empty-string pattern with anchors.
    assert!(matches("^$", b""));
    assert!(!matches("^$", b"x"));
}

#[test]
fn binary_bytes_via_hex_escapes() {
    assert!(matches(r"\x00\x01\x02", &[9, 0, 1, 2, 9]));
    assert!(matches(r"\xff+", &[0xff, 0xff]));
    assert!(!matches(r"\xff{3}", &[0xff, 0xff]));
}

#[test]
fn case_insensitivity_is_ascii_only() {
    assert!(matches("(?i)rust", b"RuSt"));
    assert!(matches("(?i)[a-z]+!", b"ABC!"));
    // Digits unaffected by (?i): 'q' does not case-fold to '7'.
    assert!(matches("(?i)7seven", b"x7SEVENx"));
    assert!(!matches("(?i)7seven", b"xqSEVENx"));
}

#[test]
fn long_input_linear_behaviour() {
    // A pattern with heavy nondeterminism over a long input must finish
    // fast (automata engines are immune to catastrophic backtracking).
    let pattern = "(a|ab|aab)*c";
    let mut input = vec![b'a'; 20_000];
    input.push(b'b');
    let t0 = std::time::Instant::now();
    let _ = matches(pattern, &input);
    assert!(
        t0.elapsed() < std::time::Duration::from_secs(5),
        "matching took {:?}",
        t0.elapsed()
    );
}

#[test]
fn anchor_extraction_on_compound_rules() {
    let re = Regex::new(r"(GET|POST) /admin/[a-z]+\.php\?cmd=\w+").unwrap();
    // The alternation kills the method anchor; "/admin/" survives.
    let anchors: Vec<String> = re
        .anchors()
        .iter()
        .map(|a| String::from_utf8_lossy(a).into_owned())
        .collect();
    assert!(anchors.contains(&" /admin/".to_string()), "{anchors:?}");
}

#[test]
fn deeply_nested_groups_are_an_error_not_a_stack_overflow() {
    let pattern = format!("{}a{}", "(".repeat(100_000), ")".repeat(100_000));
    let err = Regex::new(&pattern).unwrap_err();
    assert_eq!(err.kind, dpi_regex::ParseErrorKind::NestingTooDeep);
    assert!(Regex::new(&"(".repeat(100_000)).is_err());
}
