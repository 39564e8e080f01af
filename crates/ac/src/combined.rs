//! The combined automaton as the data plane holds it: the one full
//! table plus the loop that walks it.
//!
//! [`CombinedAc`] is what [`crate::CombinedAcBuilder::build_auto`] and
//! [`crate::CombinedAcBuilder::build_kernel`] return. The table — §5.1's
//! metadata and the transition cells at their natural width — is the
//! same for both [`KernelKind`]s; the kind only chooses how a payload is
//! walked over it: the lane-interleaved loop, or the plain reference
//! loop the verdict checks compare it against. Callers scan through the
//! common [`Automaton`] / [`ScanKernel`] interfaces either way; loop,
//! lane count and cell width are each one predictable branch per call,
//! outside the per-byte loop.

use crate::full::FullAc;
use crate::kernel::{DepthSamples, KernelKind, ScanKernel};
use crate::{Automaton, MatchEntry, StateId};

/// A combined automaton behind whichever scan kernel was selected.
#[derive(Debug, Clone)]
pub struct CombinedAc {
    table: FullAc,
    kind: KernelKind,
}

impl CombinedAc {
    pub(crate) fn new(table: FullAc, kind: KernelKind) -> CombinedAc {
        CombinedAc { table, kind }
    }

    /// Depth (label length) of a state — used by stress telemetry.
    pub fn state_depth(&self, state: StateId) -> u16 {
        self.table.state_depth(state)
    }

    /// Maximum depth over all states (longest pattern).
    pub fn max_depth(&self) -> u16 {
        self.table.max_depth()
    }

    /// Every scan entry point: the one place the loop is chosen.
    #[inline]
    fn walk(
        &self,
        state: StateId,
        data: &[u8],
        sample_every: usize,
        deep_depth: u16,
        samples: &mut DepthSamples,
        on_accept: impl FnMut(usize, StateId),
    ) -> StateId {
        let grid = self.table.grid(sample_every, deep_depth, samples);
        match self.kind {
            KernelKind::Naive => self.table.scan_naive(state, data, grid, on_accept),
            KernelKind::Auto => self.table.scan_lanes(state, data, grid, on_accept),
        }
    }
}

impl Automaton for CombinedAc {
    fn start(&self) -> StateId {
        self.table.start()
    }

    #[inline(always)]
    fn step(&self, state: StateId, byte: u8) -> StateId {
        self.table.step(state, byte)
    }

    #[inline(always)]
    fn is_accepting(&self, state: StateId) -> bool {
        self.table.is_accepting(state)
    }

    fn bitmap(&self, state: StateId) -> u64 {
        self.table.bitmap(state)
    }

    fn entries(&self, state: StateId) -> &[MatchEntry] {
        self.table.entries(state)
    }

    fn state_count(&self) -> usize {
        self.table.state_count()
    }

    fn accepting_count(&self) -> usize {
        self.table.accepting_count()
    }

    fn memory_bytes(&self) -> usize {
        self.table.memory_bytes()
    }

    fn scan<F: FnMut(usize, StateId)>(&self, state: StateId, data: &[u8], on_match: F) -> StateId {
        let mut samples = DepthSamples::default();
        self.walk(state, data, usize::MAX, u16::MAX, &mut samples, on_match)
    }
}

impl ScanKernel for CombinedAc {
    /// `"naive"` names the reference loop; the default loop answers with
    /// the cell width the state count selected, `"compact"` or `"full"`.
    fn kernel_name(&self) -> &'static str {
        match self.kind {
            KernelKind::Naive => KernelKind::Naive.name(),
            KernelKind::Auto => self.table.kernel_name(),
        }
    }

    fn scan_sampled(
        &self,
        state: StateId,
        data: &[u8],
        sample_every: usize,
        deep_depth: u16,
        samples: &mut DepthSamples,
        on_accept: &mut dyn FnMut(usize, StateId),
    ) -> StateId {
        self.walk(state, data, sample_every, deep_depth, samples, on_accept)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{CombinedAcBuilder, PatternSet};
    use crate::MiddleboxId;

    #[test]
    fn small_automata_select_compact() {
        let mut b = CombinedAcBuilder::new();
        b.add_set(PatternSet::from_strs(MiddleboxId(0), &["attack", "virus"]))
            .unwrap();
        let ac = b.build_auto();
        assert_eq!(ac.kernel_name(), "compact");
        assert_eq!(ac.find_all(b"an attack!").len(), 1);
    }

    #[test]
    fn selection_preserves_match_stream() {
        let mut b = CombinedAcBuilder::new();
        b.add_set(PatternSet::from_strs(
            MiddleboxId(0),
            &["E", "BE", "BD", "BCD", "BCAA", "CDBCAB"],
        ))
        .unwrap();
        let full = b.build_full();
        let auto = b.build_auto();
        let data = b"BE BCD CDBCAB xxBCAAxx";
        assert_eq!(auto.find_all(data), full.find_all(data));
        assert!(auto.memory_bytes() < full.memory_bytes());
    }

    #[test]
    fn every_kernel_scans_identically() {
        let mut b = CombinedAcBuilder::new();
        b.add_set(PatternSet::from_strs(
            MiddleboxId(0),
            &["E", "BE", "BD", "BCD", "BCAA", "CDBCAB"],
        ))
        .unwrap();
        b.add_set(PatternSet::from_strs(MiddleboxId(1), &["EDAE", "CBD"]))
            .unwrap();
        let reference = b.build_full();
        let data = b"BE BCD CDBCAB xxBCAAxx EDAE and CBD too";
        let want = reference.find_all(data);
        for kind in KernelKind::ALL {
            let ac = b.build_kernel(kind);
            // `auto` answers with the cell width it resolved to.
            let name = if kind == KernelKind::Auto {
                "compact"
            } else {
                kind.name()
            };
            assert_eq!(ac.kernel_name(), name);
            assert_eq!(ac.find_all(data), want, "kernel {kind}");
            // The sampled path reports the same stream too.
            let mut hits = Vec::new();
            let mut samples = DepthSamples::default();
            let end = ac.scan_sampled(ac.start(), data, 4, 2, &mut samples, &mut |p, s| {
                hits.push((p, s))
            });
            // One callback per accepting position (find_all expands to
            // one tuple per match entry, so compare against a raw scan).
            let mut want_hits_at = Vec::new();
            reference.scan(reference.start(), data, |p, _| want_hits_at.push(p));
            let got_hits_at: Vec<usize> = hits.iter().map(|(p, _)| *p).collect();
            assert_eq!(got_hits_at, want_hits_at, "kernel {kind} sampled scan");
            assert_eq!(
                ac.state_depth(end),
                reference.state_depth(want_end(&reference, data))
            );
            assert!(
                samples.total >= (data.len() as u64) / 4,
                "kernel {kind} samples"
            );
        }
    }

    fn want_end(ac: &FullAc, data: &[u8]) -> StateId {
        ac.scan(ac.start(), data, |_, _| {})
    }

    fn paper_builder() -> CombinedAcBuilder {
        let mut b = CombinedAcBuilder::new();
        b.add_set(PatternSet::from_strs(
            MiddleboxId(0),
            &["E", "BE", "BD", "BCD", "BCAA", "CDBCAB"],
        ))
        .unwrap();
        b.add_set(PatternSet::from_strs(
            MiddleboxId(1),
            &["EDAE", "BE", "CDBA", "CBD"],
        ))
        .unwrap();
        b
    }

    #[test]
    fn matches_full_on_paper_example() {
        let b = paper_builder();
        let full = b.build_full();
        let compact = b.build_auto();
        for input in [
            &b"BE"[..],
            b"CDBCAB",
            b"EDAE",
            b"no match here",
            b"BCD CBD BCAA",
        ] {
            assert_eq!(compact.find_all(input), full.find_all(input));
        }
        assert_eq!(compact.state_count(), full.state_count());
        assert_eq!(compact.accepting_count(), full.accepting_count());
        assert_eq!(compact.start(), full.start());
        assert_eq!(compact.max_depth(), full.max_depth());
    }

    #[test]
    fn halves_transition_table_memory() {
        let b = paper_builder();
        let full = b.build_full();
        let compact = b.build_auto();
        // The transition table dominates; the aux tables are the same, so
        // the compact form must land at or below 55% of the full form.
        assert!(
            compact.memory_bytes() * 100 <= full.memory_bytes() * 55,
            "compact {} vs full {}",
            compact.memory_bytes(),
            full.memory_bytes()
        );
    }

    #[test]
    fn resumable_scan_matches_full() {
        let b = paper_builder();
        let full = b.build_full();
        let compact = b.build_auto();
        let data = b"CDB CAB BCAA EDAE";
        let (a, b_) = data.split_at(7);
        let mut hits_full = Vec::new();
        let mut hits_compact = Vec::new();
        let sf = full.scan(full.start(), a, |p, s| hits_full.push((p, s)));
        full.scan(sf, b_, |p, s| hits_full.push((p + a.len(), s)));
        let sc = compact.scan(compact.start(), a, |p, s| hits_compact.push((p, s)));
        compact.scan(sc, b_, |p, s| hits_compact.push((p + a.len(), s)));
        assert_eq!(hits_full, hits_compact);
    }

    #[test]
    fn every_kind_runs_on_the_natural_width_table() {
        let b = paper_builder();
        assert_eq!(
            b.build_kernel(KernelKind::Naive).memory_bytes(),
            b.build_auto().memory_bytes()
        );
    }
}
