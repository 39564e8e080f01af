//! Edge-case regression suite for the combined Aho-Corasick automata.

use dpi_ac::naive::NaiveMatcher;
use dpi_ac::{
    Automaton, CombinedAcBuilder, DepthSamples, KernelKind, MiddleboxId, PatternSet, ScanKernel,
};

fn build(sets: &[(u16, &[&[u8]])]) -> dpi_ac::FullAc {
    let mut b = CombinedAcBuilder::new();
    for (mb, pats) in sets {
        b.add_set(PatternSet::new(
            MiddleboxId(*mb),
            pats.iter().map(|p| p.to_vec()).collect(),
        ))
        .unwrap();
    }
    b.build_full()
}

#[test]
fn binary_patterns_with_nul_and_ff() {
    let p1: &[u8] = &[0x00, 0x00, 0x01];
    let p2: &[u8] = &[0xff, 0xfe, 0xff];
    let ac = build(&[(0, &[p1, p2])]);
    let mut hay = vec![0x42u8; 10];
    hay.extend_from_slice(p1);
    hay.extend_from_slice(&[7, 7]);
    hay.extend_from_slice(p2);
    let hits = ac.find_all(&hay);
    assert_eq!(hits.len(), 2);
}

#[test]
fn pattern_equal_to_whole_input() {
    let ac = build(&[(0, &[b"exactly-this"])]);
    assert_eq!(ac.find_all(b"exactly-this").len(), 1);
    assert!(ac.find_all(b"exactly-thi").is_empty());
}

#[test]
fn deep_suffix_chains_propagate_transitively() {
    // d is a suffix of cd is a suffix of bcd is a suffix of abcd: the
    // abcd accepting state must report all four.
    let ac = build(&[(0, &[b"d", b"cd", b"bcd", b"abcd"])]);
    let hits = ac.find_all(b"abcd");
    // Ends: d@0? no — matches end at index 3 for all four patterns, plus
    // intermediate d/cd/bcd completions earlier? "abcd": 'd' ends at 3
    // only; 'cd' at 3; 'bcd' at 3; 'abcd' at 3. Total 4 hits at pos 3.
    assert_eq!(hits.len(), 4);
    assert!(hits.iter().all(|(pos, _)| *pos == 3));
}

#[test]
fn self_overlapping_pattern() {
    let ac = build(&[(0, &[b"aabaa"])]);
    // "aabaabaa" contains aabaa at ends 4 and 7 (overlapping).
    let hits = ac.find_all(b"aabaabaa");
    assert_eq!(hits.iter().map(|(p, _)| *p).collect::<Vec<_>>(), vec![4, 7]);
}

#[test]
fn sixty_five_middleboxes_bitmap_saturation() {
    // Middlebox ids ≥ 64 share bitmap bit 63: matches must still be
    // reported exactly (bitmap false positives are allowed, losses not).
    let mut b = CombinedAcBuilder::new();
    for mb in 60..70u16 {
        b.add_set(PatternSet::new(
            MiddleboxId(mb),
            vec![
                format!("pattern-{mb}").into_bytes(),
                b"shared-tail".to_vec(),
            ],
        ))
        .unwrap();
    }
    let ac = b.build_full();
    let hits = ac.find_all(b"xx shared-tail yy pattern-65 zz");
    let shared = hits
        .iter()
        .filter(|(_, e)| e.pattern == dpi_ac::PatternId(1))
        .count();
    assert_eq!(shared, 10, "all ten middleboxes get the shared pattern");
    assert!(hits
        .iter()
        .any(|(_, e)| e.middlebox == MiddleboxId(65) && e.pattern == dpi_ac::PatternId(0)));
}

#[test]
fn single_repeated_byte_patterns() {
    let ac = build(&[(0, &[b"aaaa"])]);
    let hits = ac.find_all(&[b'a'; 10]);
    // Ends at 3,4,...,9 → 7 hits.
    assert_eq!(hits.len(), 7);
}

#[test]
fn all_256_single_byte_patterns() {
    let patterns: Vec<Vec<u8>> = (0..=255u8).map(|b| vec![b]).collect();
    let mut b = CombinedAcBuilder::new();
    b.add_set(PatternSet::new(MiddleboxId(0), patterns))
        .unwrap();
    let ac = b.build_full();
    assert_eq!(ac.state_count(), 257);
    assert_eq!(ac.accepting_count(), 256);
    // Every input byte is a match.
    assert_eq!(ac.find_all(b"anything").len(), 8);
}

/// `patterns` three-byte patterns `EE hi lo`: the trie is the root, the
/// `EE` node, one node per distinct `hi` and one per pattern, so a set
/// can be sized to land exactly on either side of the `u16` limit.
fn boundary_set(patterns: usize) -> (CombinedAcBuilder, NaiveMatcher) {
    let set = PatternSet::new(
        MiddleboxId(0),
        (0..patterns)
            .map(|i| vec![0xEE, (i >> 8) as u8, i as u8])
            .collect(),
    );
    let mut naive = NaiveMatcher::new();
    naive.add_set(&set);
    let mut b = CombinedAcBuilder::new();
    b.add_set(set).unwrap();
    (b, naive)
}

#[test]
fn cell_width_follows_the_state_count_across_the_u16_limit() {
    // 1 + 1 + 255 + 65,278 = 65,535 states: the last count that gets
    // `u16` cells. Pattern 65,278 is `EE FE FE`.
    const FITS: usize = 65_278;
    let mut payload = b"plain filler without the marker byte ".repeat(12);
    for planted in [
        [0xEE, 0x00, 0x00],
        [0xEE, 0xFE, 0xFD],
        [0xEE, 0xFE, 0xFE],
        [0xEE, 0xFF, 0xFF],
    ] {
        payload.extend_from_slice(&planted);
        payload.extend_from_slice(b" and more filler ");
    }
    for (patterns, states, width, hits) in
        [(FITS, 65_535, "compact", 2), (FITS + 1, 65_536, "full", 3)]
    {
        let (b, naive) = boundary_set(patterns);
        let want = naive.find_all(&payload);
        assert_eq!(want.len(), hits);
        // Every kernel runs on the table at that width.
        // The paper's `u32` table, whatever the state count.
        let wide = b.build_full().memory_bytes();
        for kind in KernelKind::ALL {
            let ac = b.build_kernel(kind);
            assert_eq!(ac.state_count(), states);
            // Below the limit the rows and records are half as wide;
            // from it up the table is the `u32` one.
            assert_eq!(ac.memory_bytes() == wide, width == "full");
            assert!(ac.memory_bytes() <= wide);
            if kind == KernelKind::Auto {
                assert_eq!(ac.kernel_name(), width);
            }
            let mut got = ac.find_all(&payload);
            got.sort();
            assert_eq!(got, want, "{kind} on {width} cells");
        }
    }
}

/// The lane cut divides the payload on the depth-sample grid, so the
/// grids that leave it nothing to divide by are pinned: a step of 0, of
/// 1, one longer than the payload, and the `usize::MAX` that
/// [`Automaton::scan`] passes all return the naive loop's stream, state
/// and samples — on a payload long enough for four lanes, with a match
/// in each, and on one too short to cut.
#[test]
fn degenerate_sample_grids_scan_like_the_naive_loop() {
    let mut b = CombinedAcBuilder::new();
    b.add_set(PatternSet::from_strs(
        MiddleboxId(0),
        &["needle-in-the-hay", "dle", "zz"],
    ))
    .unwrap();
    let naive = b.build_kernel(KernelKind::Naive);
    let auto = b.build_auto();

    let mut long = Vec::new();
    for _ in 0..4 {
        long.extend_from_slice(&b"hay ".repeat(60));
        long.extend_from_slice(b"a needle-in-the-hay, zzz");
    }
    for data in [&long[..], &long[..40], &long[..1], &[]] {
        let mut want_hits = Vec::new();
        let want_end = naive.scan(naive.start(), data, |p, s| want_hits.push((p, s)));
        for every in [0, 1, data.len(), data.len() + 1, 4 * data.len(), usize::MAX] {
            let run = |ac: &dyn ScanKernel| {
                let mut hits = Vec::new();
                let mut samples = DepthSamples::default();
                let end =
                    ac.scan_sampled(auto.start(), data, every, 3, &mut samples, &mut |p, s| {
                        hits.push((p, s))
                    });
                (hits, end, samples)
            };
            let want = run(&naive);
            assert_eq!((&want.0, want.1), (&want_hits, want_end));
            // Position 0 is on every grid; a step of 0 or one reaching
            // past the payload samples nothing else.
            if every != 1 {
                assert_eq!(want.2.total, u64::from(!data.is_empty()), "grid {every}");
            }
            assert_eq!(run(&auto), want, "{} B on grid {every}", data.len());
        }
        // `Automaton::scan` on the combined automaton is the same walk.
        let mut hits = Vec::new();
        let end = auto.scan(auto.start(), data, |p, s| hits.push((p, s)));
        assert_eq!((hits, end), (want_hits, want_end), "{} B", data.len());
    }
    assert_eq!(
        auto.find_all(&long).len(),
        4 * 4,
        "four matches per stretch"
    );
}

/// The adversarial streams for the compact layout: the benchmark's
/// patterns cut to their first 6 bytes, or less only their last byte
/// (item 18's near-miss units), tiled end to end, so the scan keeps
/// walking the pattern chains, whose states are cold. The lane loop must
/// take exactly the cold steps the reference loop takes — the same bytes,
/// not a failure chain more — on every grid; each is one record load and
/// at most one row load.
#[test]
fn tiled_pattern_prefixes_cost_every_loop_the_same_cold_steps() {
    let all = dpi_traffic::snort_like(4356, 42);
    let (snort1, snort2) = dpi_traffic::split_set(&all, 2500, 42);
    let mut b = CombinedAcBuilder::new();
    b.add_set(PatternSet::new(MiddleboxId(1), snort1)).unwrap();
    b.add_set(PatternSet::new(MiddleboxId(2), snort2)).unwrap();
    let (naive, auto) = (b.build_kernel(KernelKind::Naive), b.build_auto());

    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    for (cut, share) in [(6, 32), (usize::MAX, 2)] {
        let (mut cold, mut bytes) = (0, 0);
        for len in [64, 300, 2_048] {
            for _ in 0..16 {
                let mut data = Vec::new();
                while data.len() < len {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    let p = &all[(x % all.len() as u64) as usize];
                    data.extend_from_slice(&p[..cut.min(p.len() - 1)]);
                }
                data.truncate(len);
                for every in [1, 16, usize::MAX] {
                    let run = |ac: &dyn ScanKernel| {
                        let mut samples = DepthSamples::default();
                        let end = ac.scan_sampled(
                            naive.start(),
                            &data,
                            every,
                            4,
                            &mut samples,
                            &mut |_, _| {},
                        );
                        (end, samples)
                    };
                    let want = run(&naive);
                    let got = run(&auto);
                    assert_eq!(got, want, "{len} B on grid {every}");
                    assert_eq!(got.1.cold, want.1.cold);
                    if every == 16 {
                        cold += want.1.cold;
                        bytes += len as u64;
                    }
                }
            }
        }
        // 3.7 % and 59 % of the streams' bytes are stepped from a cold
        // state, against 0.6 % of the benchmark's HTTP: the keyword
        // prefixes the 6-byte tiles spell are mostly hot, the near-miss
        // units walk the chains.
        assert!(cold * share > bytes, "{cold} cold steps over {bytes} B");
    }
}
