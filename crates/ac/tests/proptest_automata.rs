//! Property tests: the automaton must agree with the naive reference
//! matcher on arbitrary pattern sets and inputs at both cell widths, and
//! the §5.1 structural invariants must hold for every build.

use dpi_ac::naive::NaiveMatcher;
use dpi_ac::{bitmap_bit, Automaton, CombinedAcBuilder, MiddleboxId, PatternSet, ScanKernel};
use proptest::prelude::*;

/// Strategy: up to 3 middleboxes, each with up to 6 patterns over a small
/// alphabet (small alphabets maximize overlap, suffix sharing and failure
/// link interplay).
fn pattern_sets() -> impl Strategy<Value = Vec<PatternSet>> {
    prop::collection::vec(
        prop::collection::vec(
            prop::collection::vec(prop::sample::select(vec![b'a', b'b', b'c']), 1..8),
            1..7,
        ),
        1..4,
    )
    .prop_map(|sets| {
        sets.into_iter()
            .enumerate()
            .map(|(i, patterns)| PatternSet::new(MiddleboxId(i as u16), patterns))
            .collect()
    })
}

fn input() -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(prop::sample::select(vec![b'a', b'b', b'c', b'x']), 0..200)
}

fn build(sets: &[PatternSet]) -> CombinedAcBuilder {
    let mut b = CombinedAcBuilder::new();
    for s in sets {
        b.add_set(s.clone()).unwrap();
    }
    b
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn full_matches_naive(sets in pattern_sets(), data in input()) {
        let builder = build(&sets);
        let ac = builder.build_full();
        let mut naive = NaiveMatcher::new();
        for s in &sets {
            naive.add_set(s);
        }
        let mut got = ac.find_all(&data);
        got.sort();
        got.dedup();
        prop_assert_eq!(got, naive.find_all(&data));
    }

    #[test]
    fn accepting_ids_are_compact(sets in pattern_sets()) {
        let ac = build(&sets).build_full();
        let f = ac.accepting_count() as u32;
        for s in 0..ac.state_count() as u32 {
            prop_assert_eq!(ac.is_accepting(s), s < f);
            prop_assert_eq!(ac.entries(s).is_empty(), s >= f);
        }
    }

    #[test]
    fn bitmaps_cover_exactly_entry_middleboxes(sets in pattern_sets()) {
        let ac = build(&sets).build_full();
        for s in 0..ac.accepting_count() as u32 {
            let expected = ac
                .entries(s)
                .iter()
                .fold(0u64, |acc, e| acc | bitmap_bit(e.middlebox));
            prop_assert_eq!(ac.bitmap(s), expected);
        }
    }

    #[test]
    fn split_scan_equals_whole_scan(sets in pattern_sets(), data in input(), cut in 0usize..200) {
        // Stateful scanning across a packet boundary (§5.2) must see the
        // same matches as scanning the concatenated payload, with
        // positions shifted.
        let ac = build(&sets).build_full();
        let cut = cut.min(data.len());
        let (a, b) = data.split_at(cut);

        let mut whole = Vec::new();
        ac.scan(ac.start(), &data, |pos, st| {
            for e in ac.entries(st) {
                whole.push((pos, *e));
            }
        });

        let mut split = Vec::new();
        let mid = ac.scan(ac.start(), a, |pos, st| {
            for e in ac.entries(st) {
                split.push((pos, *e));
            }
        });
        ac.scan(mid, b, |pos, st| {
            for e in ac.entries(st) {
                split.push((pos + cut, *e));
            }
        });

        whole.sort();
        split.sort();
        prop_assert_eq!(whole, split);
    }

    #[test]
    fn merged_automaton_equals_pairwise_union(sets in pattern_sets(), data in input()) {
        // The heart of §5.1: scanning once against the merged automaton
        // yields exactly the union of per-middlebox scans.
        let merged = build(&sets).build_full();
        let mut merged_hits = merged.find_all(&data);
        merged_hits.sort();
        merged_hits.dedup();

        let mut union = Vec::new();
        for s in &sets {
            let mut b = CombinedAcBuilder::new();
            b.add_set(s.clone()).unwrap();
            let single = b.build_full();
            union.extend(single.find_all(&data));
        }
        union.sort();
        union.dedup();

        prop_assert_eq!(merged_hits, union);
    }

    #[test]
    fn state_count_never_exceeds_total_pattern_bytes_plus_one(sets in pattern_sets()) {
        let total: usize = sets.iter().flat_map(|s| s.patterns.iter()).map(|p| p.len()).sum();
        let ac = build(&sets).build_full();
        prop_assert!(ac.state_count() <= total + 1);
    }

    #[test]
    fn compact_matches_full_everywhere(sets in pattern_sets(), data in input(), cut in 0usize..200) {
        // The u16 table must produce the exact same scan-event stream as
        // the u32 table — same positions, same states, same resume state
        // across a split — since the data plane swaps one for the other
        // solely on state count.
        let builder = build(&sets);
        let full = builder.build_full();
        let compact = builder.build_auto();
        prop_assert_eq!(compact.kernel_name(), "compact");

        let mut full_events = Vec::new();
        let fs = full.scan(full.start(), &data, |pos, st| full_events.push((pos, st)));
        let mut compact_events = Vec::new();
        let cs = compact.scan(compact.start(), &data, |pos, st| compact_events.push((pos, st)));
        prop_assert_eq!(&full_events, &compact_events);
        prop_assert_eq!(fs, cs);

        // Resumed mid-payload scans agree too (§5.2 stateful flows).
        let cut = cut.min(data.len());
        let (a, b) = data.split_at(cut);
        let fm = full.scan(full.start(), a, |_, _| {});
        let cm = compact.scan(compact.start(), a, |_, _| {});
        prop_assert_eq!(fm, cm);
        let mut f2 = Vec::new();
        full.scan(fm, b, |pos, st| f2.push((pos, st)));
        let mut c2 = Vec::new();
        compact.scan(cm, b, |pos, st| c2.push((pos, st)));
        prop_assert_eq!(f2, c2);
    }

    #[test]
    fn auto_selection_is_compact_and_halves_the_table(sets in pattern_sets()) {
        // Generated automata are tiny, so `build_auto` must always pick
        // the u16 representation, which must cost at most 55% of the u32
        // form's bytes while reporting identical structure.
        let builder = build(&sets);
        let full = builder.build_full();
        let auto = builder.build_auto();
        prop_assert_eq!(auto.kernel_name(), "compact");
        prop_assert!(auto.memory_bytes() * 100 <= full.memory_bytes() * 55);
        prop_assert_eq!(auto.state_count(), full.state_count());
        prop_assert_eq!(auto.accepting_count(), full.accepting_count());
        prop_assert_eq!(auto.max_depth(), full.max_depth());
    }
}
