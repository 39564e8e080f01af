//! A stream cut at every point, one byte per segment, matches like the
//! unsegmented stream the reference model (`spec/model.rs`) scans.

#[path = "spec/matrix.rs"]
mod matrix;
#[path = "spec/model.rs"]
mod model;

use matrix::{Cut, Fault, Path};

/// Loss-free cases carrying a flow cut at every byte: the batch path
/// equals the model exactly.
#[test]
fn every_cut_point_matches_like_the_unsegmented_stream() {
    matrix::sweep(&[Path::Batch], |case| {
        let c = &mut case.config;
        (c.fault, c.update_at, c.max_flows) = (Fault::None, None, None);
        case.flows.iter().any(|f| f.cut == Cut::EveryByte)
    });
}
