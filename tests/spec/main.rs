//! One executable specification (DESIGN.md §17): the reference model
//! (`model.rs`) pinned to the paper, then the whole configuration matrix
//! (`matrix.rs`) judged against it, every dimension drawn at every seed.

mod matrix;
mod model;

use matrix::{Path, DIMS};

/// The matrix: every drawn configuration, both paths, against the model.
#[test]
fn every_configuration_equals_the_model_modulo_documented_losses() {
    for (seed, tally) in matrix::sweep(&[Path::Batch, Path::Send], |_| true) {
        for (dim, n) in DIMS {
            let drawn = &tally.dims[dim];
            assert_eq!(drawn.len(), n, "seed {seed}: {dim} drew only {drawn:?}");
        }
    }
}

/// The model pinned to the paper before it judges anything.
#[test]
fn model_matches_one_instance_on_the_papers_example() {
    matrix::pin_to_paper();
}
