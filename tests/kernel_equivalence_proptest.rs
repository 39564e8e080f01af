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

/// The default kernel's root skip (DESIGN.md §12) is refused for binary
/// signatures: `clamav_like(6000, 42)` has thousands of distinct 3-byte
/// prefixes, past the filter's bound of 64, so it walks every byte on
/// the lane loop. The benchmark's Snort-like set has 30 and skips a unit
/// none of them occurs in — where the CPU runs the filter (AVX2).
#[test]
fn binary_signatures_take_the_lane_loop_from_byte_0() {
    use dpi_service::ac::{
        Automaton, CombinedAcBuilder, DepthSamples, MiddleboxId, PatternSet, ScanKernel,
    };
    use dpi_service::traffic::{clamav_like, snort_like};
    use std::collections::BTreeSet;

    let skipped = |patterns: &[Vec<u8>], data: &[u8]| {
        let mut b = CombinedAcBuilder::new();
        b.add_set(PatternSet::new(MiddleboxId(0), patterns.to_vec()))
            .unwrap();
        let run = |kind| {
            let ac = b.build_kernel(kind);
            let (mut hits, mut samples) = (Vec::new(), DepthSamples::default());
            let end = ac.scan_sampled(ac.start(), data, 16, 4, &mut samples, &mut |p, s| {
                hits.push((p, s))
            });
            (hits, end, samples)
        };
        let want = run(KernelKind::Naive);
        let got = run(KernelKind::Auto);
        assert_eq!(got, want);
        got.2.skipped
    };
    let prefixes = |set: &[Vec<u8>]| set.iter().map(|p| p[..3].to_vec()).collect::<BTreeSet<_>>();
    let quiet = b"~".repeat(1_500);

    let clamav = clamav_like(6_000, 42);
    assert!(prefixes(&clamav).len() > 5_000);
    assert_eq!(skipped(&clamav, &quiet), 0);

    let snort = snort_like(4_356, 42);
    assert_eq!(prefixes(&snort).len(), 30);
    let skips_here = {
        #[cfg(target_arch = "x86_64")]
        {
            std::arch::is_x86_feature_detected!("avx2")
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            false
        }
    };
    let want = if skips_here { quiet.len() as u64 } else { 0 };
    assert_eq!(skipped(&snort, &quiet), want);
}
