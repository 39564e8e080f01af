//! Anchor extraction (§5.3).
//!
//! "For each regular expression, we first extract sufficiently long strings
//! (which we call anchors) from each regular expression. These anchors must
//! be matched for the entire regular expression to be matched. Short
//! strings of length less than 4 characters are not extracted."
//!
//! An anchor is a maximal run of single-byte positions that every match of
//! the expression must contain contiguously. The DPI service registers the
//! anchors with its Aho-Corasick pre-filter and only invokes the full regex
//! engine when *all* anchors of an expression were seen (§5.3).

use crate::ast::Ast;

/// Minimum anchor length, per the paper.
pub const MIN_ANCHOR_LEN: usize = 4;

/// Extracts the anchors of `ast`: maximal mandatory single-byte runs of
/// length ≥ [`MIN_ANCHOR_LEN`], deduplicated, in syntactic order.
pub fn extract_anchors(ast: &Ast) -> Vec<Vec<u8>> {
    let mut anchors = Vec::new();
    let mut run = Vec::new();
    walk(ast, &mut anchors, &mut run);
    flush(&mut anchors, &mut run);
    // Deduplicate while preserving order.
    let mut seen = std::collections::HashSet::new();
    anchors.retain(|a| seen.insert(a.clone()));
    anchors
}

fn flush(anchors: &mut Vec<Vec<u8>>, run: &mut Vec<u8>) {
    if run.len() >= MIN_ANCHOR_LEN {
        anchors.push(std::mem::take(run));
    } else {
        run.clear();
    }
}

fn walk(ast: &Ast, anchors: &mut Vec<Vec<u8>>, run: &mut Vec<u8>) {
    match ast {
        Ast::Empty | Ast::AnchorStart | Ast::AnchorEnd => {
            // Zero-width: does not interrupt byte contiguity.
        }
        Ast::Class(set) => match set.as_single() {
            Some(b) => run.push(b),
            None => flush(anchors, run),
        },
        Ast::Concat(items) => {
            for item in items {
                walk(item, anchors, run);
            }
        }
        Ast::Alt(_) => {
            // No single branch is mandatory; shared-prefix factoring is a
            // possible refinement the paper does not require.
            flush(anchors, run);
        }
        Ast::Repeat { node, min, max } => {
            if *min == 0 {
                // Entirely optional: breaks the run and contributes nothing.
                flush(anchors, run);
                return;
            }
            if let Ast::Class(set) = node.as_ref() {
                if let Some(b) = set.as_single() {
                    // `x{3,5}`: three mandatory copies extend the run …
                    for _ in 0..*min {
                        run.push(b);
                    }
                    // … and a variable tail breaks it.
                    if *max != Some(*min) {
                        flush(anchors, run);
                    }
                    return;
                }
            }
            // A complex mandatory subexpression: its own internal anchors
            // are mandatory too, but contiguity with the surroundings is
            // broken on both sides (repetition boundaries are variable
            // unless min == max == 1, which the parser never produces).
            flush(anchors, run);
            let mut inner = Vec::new();
            walk(node, anchors, &mut inner);
            flush(anchors, &mut inner);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn anchors(p: &str) -> Vec<String> {
        extract_anchors(&parse(p).unwrap())
            .into_iter()
            .map(|a| String::from_utf8(a).unwrap())
            .collect()
    }

    #[test]
    fn paper_example() {
        assert_eq!(
            anchors(r"regular\s*expression\s*\d+"),
            vec!["regular", "expression"]
        );
    }

    #[test]
    fn short_runs_are_dropped() {
        assert_eq!(anchors(r"GET\s+HTTP"), vec!["HTTP"]);
        assert!(anchors(r"abc").is_empty());
        assert_eq!(anchors(r"abcd"), vec!["abcd"]);
    }

    #[test]
    fn alternation_yields_no_anchors() {
        assert!(anchors(r"attack|malware").is_empty());
        // But mandatory literals around the alternation survive.
        assert_eq!(anchors(r"prefix(a|b)suffix"), vec!["prefix", "suffix"]);
    }

    #[test]
    fn optional_parts_break_runs() {
        assert_eq!(anchors(r"download(\.php)?load"), vec!["download", "load"]);
        assert!(anchors(r"(evil)*").is_empty());
    }

    #[test]
    fn mandatory_group_contributes_inner_anchors() {
        assert_eq!(anchors(r"(malicious)+"), vec!["malicious"]);
        assert_eq!(anchors(r"x(payload){2}y"), vec!["payload"]);
    }

    #[test]
    fn counted_single_bytes_extend_runs() {
        // ^aaaab... a{4} then 'b' — one run "aaaab".
        assert_eq!(anchors(r"a{4}b"), vec!["aaaab"]);
        // Variable tail splits.
        assert_eq!(anchors(r"cccc a{2,9}dddd"), vec!["cccc aa", "dddd"]);
    }

    #[test]
    fn case_insensitive_patterns_have_no_anchors() {
        // Case-folded classes are not single bytes, so no anchors are
        // extracted and the expression runs on the parallel path (§5.3).
        assert!(anchors(r"(?i)maliciouspayload").is_empty());
    }

    #[test]
    fn zero_width_anchors_do_not_split_runs() {
        assert_eq!(anchors(r"^HostHeader$"), vec!["HostHeader"]);
    }

    #[test]
    fn duplicate_anchors_are_deduped() {
        assert_eq!(anchors(r"evil\d+evil"), vec!["evil"]);
    }

    #[test]
    fn sub_minimum_literals_never_anchor() {
        // The §5.3 length floor is exact: 3 bytes never anchor, 4 do.
        assert!(anchors(r"abc").is_empty());
        assert_eq!(anchors(r"abcd"), vec!["abcd"]);
        // Fragments shorter than the floor are dropped even when the
        // pattern is long overall — each run is measured on its own.
        assert!(anchors(r"ab\d+cd\d+ef").is_empty());
        assert!(anchors(r"GET\s+\d+\s+end").is_empty());
        // A run exactly at the floor between breaks survives.
        assert_eq!(anchors(r"ab\d+word\d+cd"), vec!["word"]);
    }

    #[test]
    fn case_insensitive_non_letters_still_anchor() {
        // (?i) folds letters into two-byte classes (no anchors), but
        // bytes without case — digits, punctuation — fold to themselves
        // and still form anchors.
        assert_eq!(anchors(r"(?i)1234-5678"), vec!["1234-5678"]);
        // Mixed: the letters break the run, the digit tail anchors.
        assert!(anchors(r"(?i)abc123").is_empty());
        assert_eq!(anchors(r"(?i)abc123456"), vec!["123456"]);
        // Without the flag the same letters anchor as usual.
        assert_eq!(anchors(r"abc123"), vec!["abc123"]);
    }

    #[test]
    fn one_anchored_branch_does_not_anchor_the_alternation() {
        // Only one branch could yield an anchor, but no branch is
        // mandatory, so the alternation contributes nothing: treating
        // "malicious" as required would let `ab` matches slip past the
        // pre-filter unscanned.
        assert!(anchors(r"malicious|ab").is_empty());
        assert!(anchors(r"(longpayload|x)\d+").is_empty());
        // Mandatory context around such an alternation still anchors.
        assert_eq!(anchors(r"head(malicious|ab)tail"), vec!["head", "tail"]);
    }
}
