//! Evasive flows (overlapping, conflicting and out-of-window segments)
//! against the reference model (`spec/model.rs`): the first copy's
//! reassembly is reported, a pattern found only in a losing copy is
//! reported by the shadow scan, and an out-of-window injection never is.

#[path = "spec/matrix.rs"]
mod matrix;
#[path = "spec/model.rs"]
mod model;

use dpi_service::core::ConflictPolicy;
use matrix::{Case, Fault, Path, Truth};

fn evasive(case: &Case) -> bool {
    case.flows.iter().any(|f| f.truth == Truth::Evasive)
}

/// Loss-free cases with the L7 layer on (the packet path reassembles
/// only then), the policies in turn: the batch path equals the model.
#[test]
fn no_silent_miss_under_any_policy() {
    matrix::sweep(&[Path::Batch], |case| {
        let c = &mut case.config;
        (c.fault, c.update_at, c.max_flows) = (Fault::None, None, None);
        c.l7 = true;
        c.policy = [ConflictPolicy::FirstWins, ConflictPolicy::RejectFlow][case.index % 2];
        evasive(case)
    });
}

/// The seed sweep the CI `evasion` job runs: every drawn configuration
/// carrying an evasive flow through one instance, a diverging case's
/// trace written under `DPI_CHAOS_LOG_DIR`.
#[test]
fn seed_sweep_archives_divergences() {
    matrix::sweep(&[Path::Batch], |case| evasive(case));
}

/// The same sweep through the system's packet path with the L7 layer on,
/// verdicts read at the middleboxes.
#[test]
fn system_seed_sweep_checks_verdicts_at_the_middlebox() {
    matrix::sweep(&[Path::Send], |case| {
        case.config.l7 = true;
        evasive(case)
    });
}
