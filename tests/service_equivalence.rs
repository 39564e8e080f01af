//! The DPI service against self-scanning middleboxes: each middlebox's
//! own `RuleLogic` over the matches the reference model (`spec/model.rs`)
//! says it is told must give the verdict the service's middlebox reached.

#[path = "spec/matrix.rs"]
mod matrix;
#[path = "spec/model.rs"]
mod model;

use matrix::{Case, Fault, Path, Truth};

/// Loss-free cases that `keep` accepts, judged on `paths`.
fn sweep_loss_free(paths: &[Path], keep: impl Fn(&Case) -> bool) {
    matrix::sweep(paths, |case| {
        let c = &mut case.config;
        (c.fault, c.update_at, c.max_flows) = (Fault::None, None, None);
        keep(case)
    });
}

/// A chain whose rules are split over two middleboxes' disjoint sets.
#[test]
fn disjoint_snort_split_is_equivalent() {
    sweep_loss_free(&[Path::Send], |case| {
        case.flows.iter().any(|f| f.chain == 1)
    });
}

/// A chain whose stateful IDS and stateless shaper share a pattern.
#[test]
fn overlapping_pattern_sets_are_equivalent() {
    sweep_loss_free(&[Path::Send], |case| {
        case.flows.iter().any(|f| f.chain == 0)
    });
}

/// Binary wire bytes (gzip bodies, TLS records) scanned raw.
#[test]
fn clamav_style_binary_sets_are_equivalent() {
    sweep_loss_free(&[Path::Send], |case| {
        let binary = |t| matches!(t, Truth::Gzip | Truth::Tls);
        !case.config.l7 && case.flows.iter().any(|f| binary(f.truth))
    });
}

/// Plain flows with planted regex matches on a chain holding the
/// anchored and the anchor-less regex rule, on both paths.
#[test]
fn regex_rules_are_equivalent_across_modes() {
    sweep_loss_free(&[Path::Batch, Path::Send], |case| {
        let regex_chain = |f: &matrix::Flow| f.truth == Truth::Plain && f.chain != 2;
        case.flows.iter().any(regex_chain)
    });
}
