//! The L7 layer against the reference model (`spec/model.rs`): a decoded
//! flow's matches are those of its decoded stream, and a flow no decoder
//! claims is scanned like the raw reassembled stream.

#[path = "spec/matrix.rs"]
mod matrix;
#[path = "spec/model.rs"]
mod model;

use matrix::{Fault, Path, Truth};

/// Loss-free cases with the L7 layer on, keeping those whose flows match
/// `truth`: the batch path equals the model exactly.
fn sweep_l7(truth: impl Fn(Truth) -> bool) {
    matrix::sweep(&[Path::Batch], |case| {
        let c = &mut case.config;
        (c.fault, c.update_at, c.max_flows) = (Fault::None, None, None);
        c.l7 = true;
        case.flows.iter().any(|f| truth(f.truth))
    });
}

/// A gzip or plain chunked HTTP body, cut in order, shuffled or at
/// every byte, at workers {1, 2, 8}.
#[test]
fn every_cut_of_a_gzip_chunked_flow_matches_the_oracle() {
    sweep_l7(|t| matches!(t, Truth::Gzip | Truth::Chunked));
}

/// A plain flow is unidentifiable: held to the raw stream's matches.
#[test]
fn unknown_flows_fall_back_byte_identical_to_the_raw_engine() {
    sweep_l7(|t| t == Truth::Plain);
}
