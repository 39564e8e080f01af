//! Kernel-equivalence properties (DESIGN.md §12): every [`ScanKernel`]
//! — naive and unrolled (`auto`), each over the natural-width table —
//! must produce the exact same match stream and resume state as the wide
//! full-table reference on arbitrary pattern sets and payloads, including
//! scans chopped at arbitrary chunk boundaries.
//!
//! Depth-sample contract: `total` is grid-exact and `deep` is exact for
//! every kernel.

use dpi_ac::{
    Automaton, CombinedAcBuilder, DepthSamples, KernelKind, MiddleboxId, PatternSet, ScanKernel,
    StateId,
};
use proptest::prelude::*;

/// A small pattern alphabet, so patterns overlap, nest and share
/// prefixes; single-byte patterns are included.
fn pattern_sets() -> impl Strategy<Value = Vec<PatternSet>> {
    prop::collection::vec(
        prop::collection::vec(
            prop::collection::vec(
                prop::sample::select(vec![b'q', b'z', b'|', b'%', b'a', b'e', b' ']),
                1..10,
            ),
            1..6,
        ),
        1..3,
    )
    .prop_map(|sets| {
        sets.into_iter()
            .enumerate()
            .map(|(i, patterns)| PatternSet::new(MiddleboxId(i as u16), patterns))
            .collect()
    })
}

/// Payloads over the pattern alphabet plus quiet filler, long enough to
/// run the unrolled loop and its remainder many times.
fn input() -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(
        prop::sample::select(vec![b'q', b'z', b'|', b'%', b'a', b'e', b' ', b'x', b't']),
        0..400,
    )
}

fn build(sets: &[PatternSet]) -> CombinedAcBuilder {
    let mut b = CombinedAcBuilder::new();
    for s in sets {
        b.add_set(s.clone()).unwrap();
    }
    b
}

/// One `scan_sampled` run reduced to comparable facts.
fn run(
    ac: &dyn ScanKernel,
    start: StateId,
    data: &[u8],
    sample_every: usize,
    deep_depth: u16,
) -> (Vec<(usize, StateId)>, StateId, DepthSamples) {
    let mut events = Vec::new();
    let mut samples = DepthSamples::default();
    let end = ac.scan_sampled(
        start,
        data,
        sample_every,
        deep_depth,
        &mut samples,
        &mut |p, s| events.push((p, s)),
    );
    (events, end, samples)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The headline invariant: both kernels report the same accepting
    /// states at the same positions, return the same resume state and
    /// fill the same depth samples.
    #[test]
    fn every_kernel_matches_the_full_reference(
        sets in pattern_sets(),
        data in input(),
        sample_every in 1usize..40,
        deep_depth in 1u16..6,
    ) {
        let builder = build(&sets);
        let reference = builder.build_full();
        let (want, want_end, want_samples) =
            run(&reference, reference.start(), &data, sample_every, deep_depth);

        for kind in KernelKind::ALL {
            let ac = builder.build_kernel(kind);
            let (got, end, samples) = run(&ac, ac.start(), &data, sample_every, deep_depth);
            prop_assert_eq!(&got, &want, "kernel {} match stream diverged", kind);
            prop_assert_eq!(end, want_end, "kernel {} resume state diverged", kind);
            prop_assert_eq!(samples, want_samples, "kernel {} depth samples diverged", kind);
        }
    }

    /// Chunked stateful scans (§5.2): cutting the payload at any byte and
    /// resuming from the returned state must replay the identical match
    /// stream for every kernel — chunk edges land inside unrolled
    /// groups and inside in-progress matches.
    #[test]
    fn chunked_scans_resume_exactly(
        sets in pattern_sets(),
        data in input(),
        cut in 0usize..400,
    ) {
        let builder = build(&sets);
        let reference = builder.build_full();
        let cut = cut.min(data.len());
        let (a, b) = data.split_at(cut);

        let mut want = Vec::new();
        let want_end = reference.scan(reference.start(), &data, |p, s| want.push((p, s)));

        for kind in KernelKind::ALL {
            let ac = builder.build_kernel(kind);
            let mut got = Vec::new();
            let mut samples = DepthSamples::default();
            let mid = ac.scan_sampled(ac.start(), a, 1, u16::MAX, &mut samples, &mut |p, s| {
                got.push((p, s))
            });
            let end = ac.scan_sampled(mid, b, 1, u16::MAX, &mut samples, &mut |p, s| {
                got.push((p + cut, s))
            });
            prop_assert_eq!(&got, &want, "kernel {} diverged at cut {}", kind, cut);
            prop_assert_eq!(end, want_end);
        }
    }

    /// A planted literal is found at every alignment: sweeping the
    /// leading pad walks the pattern across every offset of the unrolled
    /// loop's 4-byte groups and its remainder.
    #[test]
    fn planted_patterns_survive_every_alignment(
        pad in 0usize..48,
        tail in 0usize..24,
        which in 0usize..3,
    ) {
        let pats: Vec<Vec<u8>> = vec![
            b"evil|sig".to_vec(),
            b"q%z".to_vec(),
            b"zz".to_vec(),
        ];
        let mut b = CombinedAcBuilder::new();
        b.add_set(PatternSet::new(MiddleboxId(0), pats.clone())).unwrap();

        let mut data = vec![b'.'; pad];
        data.extend_from_slice(&pats[which]);
        data.extend(std::iter::repeat_n(b'.', tail));
        let end_pos = pad + pats[which].len() - 1;

        for kind in KernelKind::ALL {
            let ac = b.build_kernel(kind);
            let (events, _, _) = run(&ac, ac.start(), &data, 16, 4);
            prop_assert!(
                events.iter().any(|&(p, _)| p == end_pos),
                "kernel {} missed the literal planted at pad {}",
                kind, pad
            );
            prop_assert_eq!(events.len(), 1, "kernel {} fabricated a match", kind);
        }
    }
}
