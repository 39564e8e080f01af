//! Kernel-equivalence properties (DESIGN.md §12): the lane-interleaved
//! loop (`auto`, over the natural-width table and over the wide one)
//! must produce the exact match stream, resume state and depth samples
//! of the naive reference loop on arbitrary pattern sets and payloads —
//! long enough to be cut into lanes, with patterns long enough that a
//! lane's warm-up approaches its chunk, from a start state left
//! mid-pattern by an earlier packet, and with matches lying across every
//! lane boundary; and, on sets whose patterns are all 3 B or longer, the
//! root skip in front of the lanes.
//!
//! Depth-sample contract: `total` is grid-exact and `deep` is exact for
//! every kernel.

use dpi_ac::{
    Automaton, CombinedAc, CombinedAcBuilder, DepthSamples, FullAc, KernelKind, MiddleboxId,
    PatternSet, ScanKernel, StateId,
};
use proptest::prelude::*;

/// The grids a lane cut must respect: every position, the engine's step,
/// and the position-0-only grid [`Automaton::scan`] passes.
const GRIDS: [usize; 3] = [1, 16, usize::MAX];

/// A small pattern alphabet, so patterns overlap, nest and share
/// prefixes; single-byte patterns are included, and patterns run to 64 B
/// so `max_depth` approaches a lane's chunk.
fn pattern_sets() -> impl Strategy<Value = Vec<PatternSet>> {
    prop::collection::vec(
        prop::collection::vec(
            prop::collection::vec(
                prop::sample::select(vec![b'q', b'z', b'|', b'%', b'a', b'e', b' ']),
                1..=64,
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

/// One stretch of a payload: filler over the pattern alphabet plus quiet
/// bytes, then a pattern (whole, or cut to a proper prefix — a near miss
/// that drives the scan deep).
type Piece = (Vec<u8>, prop::sample::Index, prop::sample::Index, bool);

fn pieces() -> impl Strategy<Value = Vec<Piece>> {
    prop::collection::vec(
        (
            prop::collection::vec(
                prop::sample::select(vec![b'q', b'z', b'|', b'%', b'a', b'e', b' ', b'x', b't']),
                0..300,
            ),
            any::<prop::sample::Index>(),
            any::<prop::sample::Index>(),
            any::<bool>(),
        ),
        0..24,
    )
}

fn all_patterns(sets: &[PatternSet]) -> Vec<&Vec<u8>> {
    sets.iter().flat_map(|s| &s.patterns).collect()
}

/// Payloads to 4,096 B assembled from `pieces` over `sets`' patterns.
fn payload(sets: &[PatternSet], pieces: &[Piece]) -> Vec<u8> {
    let patterns = all_patterns(sets);
    let mut data = Vec::new();
    for (filler, which, cut, whole) in pieces {
        data.extend_from_slice(filler);
        let p = patterns[which.index(patterns.len())];
        let take = if *whole { p.len() } else { cut.index(p.len()) };
        data.extend_from_slice(&p[..take]);
    }
    data.truncate(4096);
    data
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

/// One rule set under the naive reference loop and under the lane loop
/// at both cell widths; state ids are the same in all three (one
/// renumbering).
struct Kernels {
    naive: CombinedAc,
    auto: CombinedAc,
    wide: FullAc,
}

impl Kernels {
    fn of(builder: &CombinedAcBuilder) -> Kernels {
        Kernels {
            naive: builder.build_kernel(KernelKind::Naive),
            auto: builder.build_auto(),
            wide: builder.build_full(),
        }
    }

    /// The state an earlier packet ending in `bytes` left behind.
    fn state_after(&self, bytes: &[u8]) -> StateId {
        self.naive.scan(self.naive.start(), bytes, |_, _| {})
    }

    /// Asserts the lane loop answers `data` exactly as the naive loop
    /// does, from `from`, on every grid in `grids`; returns the naive
    /// loop's answer on the last grid.
    fn assert_lanes_match_naive(
        &self,
        from: StateId,
        data: &[u8],
        grids: &[usize],
    ) -> (Vec<(usize, StateId)>, StateId, DepthSamples) {
        let mut last = Default::default();
        for &every in grids {
            let want = run(&self.naive, from, data, every, 4);
            assert_eq!(
                run(&self.auto, from, data, every, 4),
                want,
                "auto, grid {every}"
            );
            assert_eq!(
                run(&self.wide, from, data, every, 4),
                want,
                "wide, grid {every}"
            );
            last = want;
        }
        last
    }
}

/// The 64-B literal (so `max_depth` is 64) and two short patterns, one
/// of which overlaps itself.
fn literal_set() -> (Vec<Vec<u8>>, Kernels) {
    let long: Vec<u8> = (0..64u8).map(|i| b'A' + i % 26).collect();
    let pats = vec![long, b"q%z".to_vec(), b"zz".to_vec()];
    let mut b = CombinedAcBuilder::new();
    b.add_set(PatternSet::new(MiddleboxId(0), pats.clone()))
        .unwrap();
    (pats, Kernels::of(&b))
}

/// Where a payload of `len` bytes can be cut into 2-4 equal chunks that
/// start on the `every` grid.
fn lane_boundaries(len: usize, every: usize) -> Vec<usize> {
    let align = if (1..len).contains(&every) { every } else { 1 };
    let mut at: Vec<usize> = (2..=4)
        .flat_map(|lanes| {
            let chunk = len / lanes / align * align;
            (1..lanes).map(move |k| k * chunk)
        })
        .collect();
    at.sort_unstable();
    at.dedup();
    at
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The headline invariant: every loop reports the same accepting
    /// states at the same positions, returns the same resume state and
    /// fills the same depth samples — from a start state mid-pattern.
    #[test]
    fn every_kernel_matches_the_naive_reference(
        sets in pattern_sets(),
        pieces in pieces(),
        start in (any::<prop::sample::Index>(), any::<prop::sample::Index>()),
        sample_every in prop_oneof![prop::sample::select(GRIDS.to_vec()), 1usize..40],
        deep_depth in 1u16..6,
    ) {
        let Kernels { naive, auto, wide } = Kernels::of(&build(&sets));
        let data = payload(&sets, &pieces);
        let patterns = all_patterns(&sets);
        let p = patterns[start.0.index(patterns.len())];
        let from = naive.scan(naive.start(), &p[..start.1.index(p.len())], |_, _| {});
        let want = run(&naive, from, &data, sample_every, deep_depth);

        prop_assert_eq!(&run(&auto, from, &data, sample_every, deep_depth), &want, "auto diverged");
        prop_assert_eq!(&run(&wide, from, &data, sample_every, deep_depth), &want, "wide diverged");
        // `Automaton::scan` is the same walk without the samples.
        let mut hits = Vec::new();
        let end = auto.scan(from, &data, |p, s| hits.push((p, s)));
        prop_assert_eq!((&hits, end), (&want.0, want.1), "Automaton::scan diverged");
    }

    /// Chunked stateful scans (§5.2): cutting the payload at any byte and
    /// resuming from the returned state must replay the identical match
    /// stream for every kernel — packet edges land inside lanes, inside
    /// warm-ups and inside in-progress matches.
    #[test]
    fn chunked_scans_resume_exactly(
        sets in pattern_sets(),
        pieces in pieces(),
        cut in any::<prop::sample::Index>(),
    ) {
        let builder = build(&sets);
        let data = payload(&sets, &pieces);
        let cut = cut.index(data.len() + 1);
        let (a, b) = data.split_at(cut);

        let naive = builder.build_kernel(KernelKind::Naive);
        let mut want = Vec::new();
        let want_end = naive.scan(naive.start(), &data, |p, s| want.push((p, s)));

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
}

/// A planted literal is found exactly once wherever it lies: the sweep
/// walks a 64-B pattern (so `max_depth` is 64) and two short ones across
/// every offset of payloads that are cut into two, three and four lanes,
/// which puts it at every distance in `-max_depth..=max_depth` from each
/// lane boundary, on every grid.
#[test]
fn planted_patterns_survive_every_offset_and_lane_boundary() {
    let (pats, kernels) = literal_set();
    let root = kernels.state_after(b"");
    for len in [300usize, 531, 1_400] {
        for pat in &pats {
            for pad in 0..=len - pat.len() {
                let mut data = vec![b'.'; len];
                data[pad..pad + pat.len()].copy_from_slice(pat);
                let (hits, _, _) = kernels.assert_lanes_match_naive(root, &data, &GRIDS);
                assert_eq!(
                    hits.len(),
                    1,
                    "one literal, one match (len {len}, pad {pad})"
                );
                assert_eq!(hits[0].0, pad + pat.len() - 1);
            }
        }
    }
}

/// The longest unit the engine scans (65,535 B): random content once,
/// then the 64-B literal ending just before, on, just after and a full
/// `max_depth` to either side of each lane boundary.
#[test]
fn a_65535_byte_unit_is_cut_exactly() {
    let (pats, kernels) = literal_set();
    let long = &pats[0];
    const LEN: usize = 65_535;

    // Pseudo-random bytes over an alphabet dense in near misses.
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    let noisy: Vec<u8> = (0..LEN)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            b"qz%zAB."[(x % 7) as usize]
        })
        .collect();
    kernels.assert_lanes_match_naive(kernels.state_after(b"ABCDEFGH"), &noisy, &GRIDS);

    let root = kernels.state_after(b"");
    let mut data = vec![b'.'; LEN];
    for every in GRIDS {
        for boundary in lane_boundaries(LEN, every) {
            // The literal's last byte sits `off` past the boundary.
            for off in [-64isize, -63, -1, 0, 1, 31, 62, 63, 64] {
                let end = boundary.checked_add_signed(off).unwrap();
                data[end - 63..=end].copy_from_slice(long);
                let (hits, state, _) = run(&kernels.auto, root, &data, every, 4);
                assert_eq!(hits.len(), 1, "grid {every}, boundary {boundary}");
                assert_eq!(hits[0].0, end, "grid {every}, boundary {boundary}");
                assert_eq!(state, root, "filler ends at the root");
                data[end - 63..=end].fill(b'.');
            }
        }
    }
}

/// A self-overlapping run of `z` lying across a lane boundary: `zz` ends
/// at every byte of the run but the first, and `zzzz…` (64 B, so the
/// warm-up is 64) only once the run is long enough — on whichever side
/// of the cut that falls.
#[test]
fn overlapping_runs_straddle_every_lane_boundary() {
    let mut b = CombinedAcBuilder::new();
    b.add_set(PatternSet::new(
        MiddleboxId(0),
        vec![b"zz".to_vec(), vec![b'z'; 64]],
    ))
    .unwrap();
    let kernels = Kernels::of(&b);
    let mid_run = kernels.state_after(b"zzz");
    for len in [300usize, 1_400] {
        for every in GRIDS {
            for boundary in lane_boundaries(len, every) {
                for run_len in [2usize, 63, 64, 65, 130] {
                    // Slide the run from wholly before the boundary to
                    // wholly after it.
                    for lead in (0..=run_len).step_by(1 + run_len / 17) {
                        let Some(from) = boundary.checked_sub(lead) else {
                            continue;
                        };
                        if from + run_len > len {
                            continue;
                        }
                        let mut data = vec![b'.'; len];
                        data[from..from + run_len].fill(b'z');
                        kernels.assert_lanes_match_naive(mid_run, &data, &[every]);
                    }
                }
            }
        }
    }
}

// The root skip (DESIGN.md §12): on a table whose patterns are all at
// least 3 bytes long, the lane loop starts where the automaton can first
// leave depth 2, and the state, samples and accepts before that point
// are derived, not stepped. The sets below are ones the filter is built
// for, the filler bytes a wide alphabet, so skipped stretches are long.

/// Whether this CPU runs the skip at all: without AVX2 no filter is
/// built and every scan takes the lane loop from byte 0.
fn skips_here() -> bool {
    #[cfg(target_arch = "x86_64")]
    return std::arch::is_x86_feature_detected!("avx2");
    #[cfg(not(target_arch = "x86_64"))]
    false
}

/// What every pattern of a skip set begins with; `\x90\x90\x90` overlaps
/// itself, so a run of it stays deep.
const KEYWORDS: [&[u8]; 6] = [
    b"GET",
    b"cmd.exe",
    b"\x90\x90\x90",
    b"<scr",
    b"eval(",
    b"SELECT",
];

/// Keyword-prefixed patterns of 3-32 B with arbitrary tails, in one or
/// two sets.
fn skip_sets() -> impl Strategy<Value = Vec<PatternSet>> {
    let pattern = (
        prop::sample::select(KEYWORDS.to_vec()),
        prop::collection::vec(any::<u8>(), 0..=29),
    )
        .prop_map(|(keyword, tail)| {
            let mut p = keyword.to_vec();
            p.extend(tail);
            p.truncate(32);
            p
        });
    prop::collection::vec(prop::collection::vec(pattern, 1..8), 1..3).prop_map(|sets| {
        sets.into_iter()
            .enumerate()
            .map(|(i, patterns)| PatternSet::new(MiddleboxId(i as u16), patterns))
            .collect()
    })
}

/// [`pieces`] over any byte: cut patterns leave the skipped stretches
/// at depth 1 and 2, whole ones end them.
fn skip_pieces() -> impl Strategy<Value = Vec<Piece>> {
    prop::collection::vec(
        (
            prop::collection::vec(any::<u8>(), 0..300),
            any::<prop::sample::Index>(),
            any::<prop::sample::Index>(),
            any::<bool>(),
        ),
        0..12,
    )
}

/// Scans `a` then `b` from `from`, as two units of one flow: the accepts
/// at flow positions, the state after each unit and each unit's samples.
type TwoUnits = (Vec<(usize, StateId)>, [StateId; 2], [DepthSamples; 2]);

fn two_units(ac: &dyn ScanKernel, from: StateId, a: &[u8], b: &[u8], every: usize) -> TwoUnits {
    let (mut hits, mid, first) = run(ac, from, a, every, 2);
    let (later, end, second) = run(ac, mid, b, every, 2);
    hits.extend(later.into_iter().map(|(p, s)| (p + a.len(), s)));
    (hits, [mid, end], [first, second])
}

/// A set the filter is built for, two short keywords' patterns and a
/// 32-B one.
fn keyword_set() -> (Vec<Vec<u8>>, Kernels) {
    let pats = vec![
        b"GET /admin".to_vec(),
        b"cmd.exe".to_vec(),
        b"SELECT * FROM users WHERE 1=1 --".to_vec(),
    ];
    let mut b = CombinedAcBuilder::new();
    b.add_set(PatternSet::new(MiddleboxId(0), pats.clone()))
        .unwrap();
    (pats, Kernels::of(&b))
}

/// Deterministic bytes no keyword set spells a 3-byte prefix in: the
/// printable range minus the keywords' letters.
fn quiet_filler(len: usize, seed: u64) -> Vec<u8> {
    let quiet: Vec<u8> = (b' '..=b'~')
        .filter(|b| !b"GETcmd.exeSELCT<scrval(/admin*FROMusWH1=-".contains(b))
        .collect();
    let mut x = seed | 1;
    (0..len)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            quiet[(x % quiet.len() as u64) as usize]
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The skip's invariant as a property: on sets the filter takes,
    /// from a start state left mid-pattern, the default loop reports
    /// the reference's accepts, final state and samples on every grid.
    #[test]
    fn the_root_skip_matches_the_naive_reference(
        sets in skip_sets(),
        pieces in skip_pieces(),
        start in (any::<prop::sample::Index>(), any::<prop::sample::Index>()),
        sample_every in prop_oneof![
            prop::sample::select(GRIDS.to_vec()),
            1usize..40,
            // Steps longer than what is left after the hand-off.
            64usize..2048,
        ],
        deep_depth in 1u16..6,
    ) {
        let Kernels { naive, auto, wide } = Kernels::of(&build(&sets));
        let data = payload(&sets, &pieces);
        let patterns = all_patterns(&sets);
        let p = patterns[start.0.index(patterns.len())];
        let from = naive.scan(naive.start(), &p[..start.1.index(p.len())], |_, _| {});
        let want = run(&naive, from, &data, sample_every, deep_depth);

        prop_assert_eq!(&run(&auto, from, &data, sample_every, deep_depth), &want, "auto diverged");
        prop_assert_eq!(&run(&wide, from, &data, sample_every, deep_depth), &want, "wide diverged");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Two units of one flow, cut at every position: a cut inside a
    /// pattern resumes deep, one inside a skipped stretch resumes at
    /// depth ≤ 2, and both match the reference unit by unit.
    #[test]
    fn the_root_skip_resumes_at_every_cut(
        sets in skip_sets(),
        pieces in skip_pieces(),
        sample_every in prop::sample::select(vec![1usize, 16, usize::MAX]),
    ) {
        let Kernels { naive, auto, .. } = Kernels::of(&build(&sets));
        let mut data = payload(&sets, &pieces);
        data.truncate(700);
        let root = naive.start();
        for cut in 0..=data.len() {
            let (a, b) = data.split_at(cut);
            let want = two_units(&naive, root, a, b, sample_every);
            prop_assert_eq!(&two_units(&auto, root, a, b, sample_every), &want, "cut {}", cut);
        }
    }
}

/// A planted pattern is found exactly once with its last byte on either
/// side of every 32-B block edge of the filter and at the unit's tail;
/// a unit of quiet filler alone is skipped whole. At 1,500 B the grid
/// step of 1,000 puts a grid position after most hand-offs, in a rest
/// long enough for four lanes.
#[test]
fn planted_patterns_cross_every_block_edge_and_the_tail() {
    let (pats, kernels) = keyword_set();
    let root = kernels.state_after(b"");
    let grids = [GRIDS[0], GRIDS[1], GRIDS[2], 1_000];
    for len in [40usize, 64, 100, 300, 1_500] {
        let quiet = quiet_filler(len, len as u64);
        let (hits, end, samples) = run(&kernels.auto, root, &quiet, 16, 4);
        assert!(hits.is_empty());
        assert_eq!(end, kernels.state_after(&quiet[len - 2..]));
        if skips_here() {
            assert_eq!(samples.skipped, len as u64, "{len} B of filler");
        }
        for pat in &pats {
            let ends = (1..=len / 32)
                .flat_map(|k| k * 32 - 3..k * 32 + 3)
                .chain(len - 3..len);
            for end in ends.filter(|&e| e + 1 >= pat.len() && e < len) {
                let mut data = quiet.clone();
                let start = end + 1 - pat.len();
                data[start..=end].copy_from_slice(pat);
                let (hits, _, _) = kernels.assert_lanes_match_naive(root, &data, &grids);
                assert_eq!(
                    hits.iter().map(|h| h.0).collect::<Vec<_>>(),
                    vec![end],
                    "{} B, {:?} ending at {end}",
                    len,
                    String::from_utf8_lossy(pat)
                );
            }
        }
    }
}

/// A flow resumed mid-pattern whose match completes at byte 0 or byte 1
/// of a long unit: those two bytes are taken on the table before any
/// skip, so the match is reported where it ends.
#[test]
fn a_resumed_match_ending_at_byte_0_or_1_is_reported() {
    let (_, kernels) = keyword_set();
    for (before, rest) in [(&b"GET /admi"[..], &b"n"[..]), (b"GET /adm", b"in")] {
        let from = kernels.state_after(before);
        let mut data = rest.to_vec();
        data.extend(quiet_filler(96, 7));
        let (hits, _, _) = kernels.assert_lanes_match_naive(from, &data, &GRIDS);
        assert_eq!(hits.len(), 1, "after {:?}", String::from_utf8_lossy(before));
        assert_eq!(hits[0].0, rest.len() - 1);
    }
}

/// No filter is built where the invariant fails or the filter would
/// not pay: a pattern shorter than 3 bytes (the paper's `E`, or a 2-byte
/// one) accepts at depth ≤ 2; and a unit too short to look in takes the
/// lane loop from byte 0. Each scans like the reference, skipping
/// nothing.
#[test]
fn short_patterns_and_short_units_take_the_lane_loop() {
    let paper = [
        PatternSet::from_strs(MiddleboxId(0), &["E", "BE", "BD", "BCD", "BCAA", "CDBCAB"]),
        PatternSet::from_strs(MiddleboxId(1), &["EDAE", "BE", "CDBA", "CBD"]),
    ];
    let two_byte = [PatternSet::from_strs(
        MiddleboxId(0),
        &["GET /admin", "cmd.exe", "zq"],
    )];
    let filler = quiet_filler(300, 3);
    for sets in [&paper[..], &two_byte[..]] {
        let kernels = Kernels::of(&build(sets));
        let (_, _, samples) = run(&kernels.auto, kernels.state_after(b""), &filler, 16, 4);
        assert_eq!(samples.skipped, 0, "{sets:?}");
        kernels.assert_lanes_match_naive(kernels.state_after(b""), &filler, &GRIDS);
    }
    let (_, kernels) = keyword_set();
    for len in 0..3 {
        let (_, _, samples) = run(
            &kernels.auto,
            kernels.state_after(b""),
            &filler[..len],
            1,
            4,
        );
        assert_eq!(samples.skipped, 0, "{len} B");
    }
}
