//! Packetized TCP segments, in order or reordered, reassemble under an
//! L7 policy to the whole stream the reference model (`spec/model.rs`)
//! scans.

#[path = "spec/matrix.rs"]
mod matrix;
#[path = "spec/model.rs"]
mod model;

use matrix::{Cut, Fault, Path, Truth};

/// Loss-free cases with the L7 layer on, carrying a plain flow cut in
/// order or shuffled: the batch path equals the model exactly.
#[test]
fn packetized_segments_match_whole_stream() {
    matrix::sweep(&[Path::Batch], |case| {
        let c = &mut case.config;
        (c.fault, c.update_at, c.max_flows) = (Fault::None, None, None);
        c.l7 = true;
        let packetized = |f: &matrix::Flow| matches!(f.cut, Cut::InOrder | Cut::Shuffled);
        case.flows
            .iter()
            .any(|f| f.truth == Truth::Plain && packetized(f))
    });
}
