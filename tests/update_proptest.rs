//! A mid-stream rule update against the reference model
//! (`spec/model.rs`): results carry the generation of the engine that
//! scanned them, a stable pattern loses only the occurrences straddling
//! the swap, and the added pattern reports exactly its later ones.

#[path = "spec/matrix.rs"]
mod matrix;
#[path = "spec/model.rs"]
mod model;

use matrix::{Fault, Path};

/// Every case takes an update, half-way through its arrivals unless one
/// was drawn, with no other loss: both paths differ from the model only
/// by the re-anchor class.
#[test]
fn update_is_invisible_to_stable_patterns() {
    matrix::sweep(&[Path::Batch, Path::Send], |case| {
        let c = &mut case.config;
        (c.fault, c.max_flows) = (Fault::None, None);
        c.update_at.get_or_insert(case.order.len() / 2);
        true
    });
}
