//! The §6.2 merge on one host: the benchmark's Snort-like set and the
//! paper's ClamAV count in one automaton, as the paper evaluates it.

use dpi_ac::naive::NaiveMatcher;
use dpi_ac::{Automaton, CombinedAcBuilder, MiddleboxId, PatternSet, ScanKernel};
use dpi_traffic::patterns::{clamav_like, snort_like, CLAMAV_FULL_COUNT, SNORT_FULL_COUNT};
use dpi_traffic::trace::{TraceConfig, TraceKind};

/// `snort_like(4356, 42)` and `clamav_like(31827, 42)` on two
/// middleboxes: 1.16 M states, whose 256-cell rows took 1.19 GB. The
/// merge builds in well under 64 MiB and scans Campus-like traffic, with
/// patterns of both sets planted, exactly as the reference matcher does.
#[test]
fn the_snort_and_clamav_merge_fits_in_64_mib_and_matches_the_reference() {
    let sets = [
        PatternSet::new(MiddleboxId(1), snort_like(SNORT_FULL_COUNT, 42)),
        PatternSet::new(MiddleboxId(2), clamav_like(CLAMAV_FULL_COUNT, 42)),
    ];
    let mut builder = CombinedAcBuilder::new();
    let mut naive = NaiveMatcher::new();
    for set in &sets {
        builder.add_set(set.clone()).unwrap();
        naive.add_set(set);
    }
    let ac = builder.build_auto();
    assert_eq!(
        ac.kernel_name(),
        "full",
        "past 2^16 states the cells are u32"
    );
    assert!(ac.state_count() > 1_100_000, "{} states", ac.state_count());
    assert!(
        ac.memory_bytes() < 64 << 20,
        "{} B for {} states",
        ac.memory_bytes(),
        ac.state_count()
    );

    let plant: Vec<Vec<u8>> = sets
        .iter()
        .flat_map(|s| s.patterns.iter().step_by(997).cloned())
        .collect();
    let payloads = TraceConfig {
        kind: TraceKind::Campus,
        packets: 12,
        min_payload: 200,
        max_payload: 1400,
        match_density: 0.5,
        prefix_density: 1.0,
        seed: 42,
    }
    .generate(&plant);
    let mut matched = 0;
    for payload in &payloads {
        let mut got = ac.find_all(payload);
        got.sort();
        let want = naive.find_all(payload);
        matched += want.len();
        assert_eq!(got, want);
    }
    assert!(matched > 0, "the planted patterns are found");
}
