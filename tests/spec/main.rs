//! One executable specification (DESIGN.md §17): the reference model
//! (`model.rs`) pinned to the paper, then the whole configuration matrix
//! (`matrix.rs`) judged against it, every dimension drawn at every seed.

mod matrix;
mod model;

use matrix::{Path, DIMS};

/// The matrix: every drawn configuration, both paths, against the model.
/// Its patterns are all at least 3 bytes, so the default kernel's root
/// skip (DESIGN.md §12) is under judgement wherever the CPU runs it.
#[test]
fn every_configuration_equals_the_model_modulo_documented_losses() {
    for (seed, tally) in matrix::sweep(&[Path::Batch, Path::Send], |_| true) {
        for (dim, n) in DIMS {
            let drawn = &tally.dims[dim];
            assert_eq!(drawn.len(), n, "seed {seed}: {dim} drew only {drawn:?}");
        }
        if skips_here() {
            assert!(tally.skipping > 0, "seed {seed}: no run skipped a byte");
        }
    }
}

/// Whether the kernel's prefix filter runs on this CPU (it needs AVX2).
fn skips_here() -> bool {
    #[cfg(target_arch = "x86_64")]
    return std::arch::is_x86_feature_detected!("avx2");
    #[cfg(not(target_arch = "x86_64"))]
    false
}

/// The model pinned to the paper before it judges anything.
#[test]
fn model_matches_one_instance_on_the_papers_example() {
    matrix::pin_to_paper();
}
