//! Every scan kernel at every worker count delivers the verdicts of the
//! reference model (`spec/model.rs`), which scans each flow unsharded.

#[path = "spec/matrix.rs"]
mod matrix;
#[path = "spec/model.rs"]
mod model;

use dpi_service::ac::KernelKind;
use matrix::{Fault, Path};

/// Kernels × workers {1, 2, 8} in turn over the drawn cases, each made
/// loss-free: the batch path equals the model exactly.
#[test]
fn every_kernel_and_worker_count_delivers_sequential_verdicts() {
    matrix::sweep(&[Path::Batch], |case| {
        let n = KernelKind::ALL.len();
        let c = &mut case.config;
        c.kernel = KernelKind::ALL[case.index % n];
        c.workers = [1, 2, 8][case.index / n % 3];
        (c.fault, c.update_at, c.max_flows) = (Fault::None, None, None);
        true
    });
}
