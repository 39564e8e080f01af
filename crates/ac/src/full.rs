//! The full-table DFA — the paper's primary representation (§3, §5.1).
//!
//! Every state has a 256-entry transition row, so scanning is one indexed
//! load per input byte. Accepting states are renumbered to `{0..f-1}` so
//! the accepting test is `state < f` ("it is also possible to check whether
//! the state ID is less than a predefined constant whose value is the
//! number of accepting states", §5.1) and the match table is a
//! direct-access array indexed by the accepting state id.
//!
//! The row cells are `u16` when every state id fits (below 2¹⁶ states)
//! and `u32` otherwise. The table is the dominant allocation (512 B or
//! 1 KiB per state) and the scan is bound by its dependent load, so the
//! narrow cells are worth their cache residency whenever they are
//! possible (§6's space discussion); nothing else about the automaton
//! depends on the width.

use crate::kernel::{DepthGrid, DepthSamples, ScanKernel};
use crate::trie::Trie;
use crate::{Automaton, MatchEntry, StateId};

/// The transition table, `state * 256 + byte -> next state` in the
/// renumbered id space, at its cell width.
#[derive(Debug, Clone)]
enum Cells {
    /// Every state id fits 16 bits: half the table bytes.
    Narrow(Vec<u16>),
    /// The paper's 4-byte cells — needed from 2¹⁶ states up.
    Wide(Vec<u32>),
}

/// Evaluates `$body` with `$t` bound to the table slice, once per cell
/// width, so the code under it is monomorphized for `u16` and `u32`.
macro_rules! with_cells {
    ($cells:expr, $t:ident => $body:expr) => {
        match $cells {
            Cells::Narrow($t) => $body,
            Cells::Wide($t) => $body,
        }
    };
}

/// The flattened full-table automaton.
#[derive(Debug, Clone)]
pub struct FullAc {
    cells: Cells,
    /// Number of accepting states; accepting ids are `0..f`.
    f: u32,
    /// Root state id (after renumbering).
    root: u32,
    /// Per-accepting-state middlebox bitmap, indexed by state id.
    bitmaps: Vec<u64>,
    /// Direct-access match table: `offsets[i]..offsets[i+1]` indexes
    /// `entries` for accepting state `i` (§5.1's `match` array, flattened).
    offsets: Vec<u32>,
    /// All match entries, grouped by accepting state, each group sorted.
    entries: Vec<MatchEntry>,
    /// Depth (label length) per state — exported for the MCA²-style stress
    /// telemetry: complexity attacks drive scans unusually deep (§4.3.1).
    depth: Vec<u16>,
}

/// Builds the transition table in the renumbered id space, in one pass,
/// at cell type `C`. Rows are filled in BFS order, so a node's failure
/// row is already final when it is copied and the node's own goto
/// transitions then overwrite their columns.
fn flatten<C>(trie: &Trie, bfs_order: &[u32], remap: &[u32]) -> Vec<C>
where
    C: Copy + TryFrom<u32>,
    C::Error: std::fmt::Debug,
{
    let cell = |state: u32| C::try_from(state).expect("the chosen cell width holds every id");
    // Missing root transitions self-loop; every other row is a copy of
    // its failure row before anything reads it.
    let mut table = vec![cell(remap[0]); trie.len() * 256];
    for &u in bfs_order {
        let node = trie.node(u);
        let row = remap[u as usize] as usize * 256;
        if node.depth != 0 {
            // `fail(u) != u` for non-root nodes, so the rows are disjoint.
            let fail = remap[node.fail as usize] as usize * 256;
            table.copy_within(fail..fail + 256, row);
        }
        for (&b, &c) in &node.children {
            table[row + usize::from(b)] = cell(remap[c as usize]);
        }
    }
    table
}

/// The crate's one unrolled table-stepping loop, shared by every cell
/// width, sampled or not (`sample` is a no-op closure when not). Four
/// bytes per iteration: the per-byte work is a single dependent load plus
/// the `s < f` accepting compare (§5.1), so unrolling amortizes loop
/// control and exposes the address computation of later bytes while the
/// current load is in flight. The load itself bounds the loop, which is
/// why one factor serves both widths. Each byte steps, then samples, then
/// reports.
#[inline(always)]
fn step_unrolled<C: Copy + Into<StateId>>(
    t: &[C],
    f: StateId,
    state: StateId,
    data: &[u8],
    mut sample: impl FnMut(usize, StateId),
    mut on_accept: impl FnMut(usize, StateId),
) -> StateId {
    let mut s = state;
    // A macro, not a closure: the body is expanded five times, and a
    // closure this size is not reliably inlined that often.
    macro_rules! step {
        ($i:expr) => {
            s = t[(s as usize) * 256 + usize::from(data[$i])].into();
            sample($i, s);
            if s < f {
                on_accept($i, s);
            }
        };
    }
    let mut i = 0;
    let n4 = data.len() & !3;
    while i < n4 {
        step!(i);
        step!(i + 1);
        step!(i + 2);
        step!(i + 3);
        i += 4;
    }
    while i < data.len() {
        step!(i);
        i += 1;
    }
    s
}

/// The deliberately plain reference loop of the `naive` driver: per-byte
/// step, sample, accept check, nothing else. The baseline every
/// optimization is measured and verified against.
fn step_naive<C: Copy + Into<StateId>>(
    t: &[C],
    f: StateId,
    state: StateId,
    data: &[u8],
    mut sample: impl FnMut(usize, StateId),
    mut on_accept: impl FnMut(usize, StateId),
) -> StateId {
    let mut s = state;
    for (i, &b) in data.iter().enumerate() {
        s = t[(s as usize) * 256 + usize::from(b)].into();
        sample(i, s);
        if s < f {
            on_accept(i, s);
        }
    }
    s
}

impl FullAc {
    /// Flattens a trie (whose failure links must already be built — the
    /// [`crate::CombinedAcBuilder`] handles the full pipeline) directly
    /// at its cell width: `u16` below 2¹⁶ states unless `wide` asks for
    /// the paper's `u32` cells regardless, `u32` from there up.
    pub(crate) fn from_trie(trie: &Trie, bfs_order: &[u32], wide: bool) -> FullAc {
        let n = trie.len();

        // 1. Renumber: accepting nodes first.
        let mut remap = vec![0u32; n];
        let mut next_accepting = 0u32;
        let mut next_plain = trie
            .nodes()
            .iter()
            .filter(|nd| !nd.outputs.is_empty())
            .count() as u32;
        let f = next_plain;
        for (old, node) in trie.nodes().iter().enumerate() {
            if node.outputs.is_empty() {
                remap[old] = next_plain;
                next_plain += 1;
            } else {
                remap[old] = next_accepting;
                next_accepting += 1;
            }
        }

        // 2. The transition table.
        let cells = if wide || n > usize::from(u16::MAX) {
            Cells::Wide(flatten(trie, bfs_order, &remap))
        } else {
            Cells::Narrow(flatten(trie, bfs_order, &remap))
        };

        // 3. Match table, bitmaps and depths in the new numbering.
        let mut per_state: Vec<&[MatchEntry]> = vec![&[]; f as usize];
        let mut depth = vec![0u16; n];
        for (old, node) in trie.nodes().iter().enumerate() {
            let new = remap[old];
            depth[new as usize] = node.depth;
            if !node.outputs.is_empty() {
                per_state[new as usize] = &node.outputs;
            }
        }
        let mut offsets = Vec::with_capacity(f as usize + 1);
        let mut entries = Vec::new();
        offsets.push(0u32);
        let mut bitmaps = Vec::with_capacity(f as usize);
        for outs in per_state {
            entries.extend_from_slice(outs);
            offsets.push(entries.len() as u32);
            bitmaps.push(crate::bitmap_of(
                &outs.iter().map(|e| e.middlebox).collect::<Vec<_>>(),
            ));
        }

        FullAc {
            cells,
            f,
            root: remap[0],
            bitmaps,
            offsets,
            entries,
            depth,
        }
    }

    /// Depth (label length) of a state — used by stress telemetry.
    pub fn state_depth(&self, state: StateId) -> u16 {
        self.depth[state as usize]
    }

    /// Maximum depth over all states (longest pattern).
    pub fn max_depth(&self) -> u16 {
        self.depth.iter().copied().max().unwrap_or(0)
    }

    /// The sampling grid of one scan over this table's state depths.
    pub(crate) fn grid<'a>(
        &'a self,
        sample_every: usize,
        deep_depth: u16,
        samples: &'a mut DepthSamples,
    ) -> DepthGrid<'a> {
        DepthGrid::new(&self.depth, sample_every, deep_depth, samples)
    }

    /// [`ScanKernel::scan_sampled`] on the unrolled loop, generic over
    /// the callback so a caller holding a closure is not forced through
    /// `dyn`.
    pub(crate) fn scan_unrolled(
        &self,
        state: StateId,
        data: &[u8],
        mut grid: DepthGrid<'_>,
        on_accept: impl FnMut(usize, StateId),
    ) -> StateId {
        with_cells!(&self.cells, t => {
            step_unrolled(t, self.f, state, data, |i, s| grid.visit(i, s), on_accept)
        })
    }

    /// [`ScanKernel::scan_sampled`] on the plain reference loop.
    pub(crate) fn scan_naive(
        &self,
        state: StateId,
        data: &[u8],
        mut grid: DepthGrid<'_>,
        on_accept: impl FnMut(usize, StateId),
    ) -> StateId {
        with_cells!(&self.cells, t => {
            step_naive(t, self.f, state, data, |i, s| grid.visit(i, s), on_accept)
        })
    }
}

impl Automaton for FullAc {
    fn start(&self) -> StateId {
        self.root
    }

    #[inline(always)]
    fn step(&self, state: StateId, byte: u8) -> StateId {
        let i = (state as usize) * 256 + usize::from(byte);
        match &self.cells {
            Cells::Narrow(t) => t[i].into(),
            Cells::Wide(t) => t[i],
        }
    }

    #[inline(always)]
    fn is_accepting(&self, state: StateId) -> bool {
        state < self.f
    }

    fn bitmap(&self, state: StateId) -> u64 {
        if state < self.f {
            self.bitmaps[state as usize]
        } else {
            0
        }
    }

    fn entries(&self, state: StateId) -> &[MatchEntry] {
        if state < self.f {
            let lo = self.offsets[state as usize] as usize;
            let hi = self.offsets[state as usize + 1] as usize;
            &self.entries[lo..hi]
        } else {
            &[]
        }
    }

    fn state_count(&self) -> usize {
        self.depth.len()
    }

    fn accepting_count(&self) -> usize {
        self.f as usize
    }

    fn memory_bytes(&self) -> usize {
        with_cells!(&self.cells, t => std::mem::size_of_val(&t[..]))
            + self.bitmaps.len() * std::mem::size_of::<u64>()
            + self.offsets.len() * std::mem::size_of::<u32>()
            + self.entries.len() * std::mem::size_of::<MatchEntry>()
            + self.depth.len() * std::mem::size_of::<u16>()
    }

    fn scan<F: FnMut(usize, StateId)>(&self, state: StateId, data: &[u8], on_match: F) -> StateId {
        with_cells!(&self.cells, t => step_unrolled(t, self.f, state, data, |_, _| {}, on_match))
    }
}

impl ScanKernel for FullAc {
    /// The cell width's historical kernel name.
    fn kernel_name(&self) -> &'static str {
        match self.cells {
            Cells::Narrow(_) => "compact",
            Cells::Wide(_) => "full",
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
        let grid = self.grid(sample_every, deep_depth, samples);
        self.scan_unrolled(state, data, grid, on_accept)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{CombinedAcBuilder, PatternSet};
    use crate::{MiddleboxId, PatternId};

    /// The paper's running example (Figures 4 and 7):
    /// P0 = {E, BE, BD, BCD, BCAA, CDBCAB}, P1 = {EDAE, BE, CDBA, CBD}.
    fn paper_example() -> FullAc {
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
        b.build_full()
    }

    #[test]
    fn paper_example_state_count_matches_figure7() {
        let ac = paper_example();
        // Figure 7 shows s_start plus s0..s19: 21 states in total.
        assert_eq!(ac.state_count(), 21);
    }

    #[test]
    fn paper_example_accepting_states() {
        let ac = paper_example();
        // Accepting = states with non-empty output lists. From Figure 7:
        // E, BE, BD, BCD, BCAA, CDBCAB, EDAE, CDBA, CBD are accepting (9
        // pattern-end states), plus CDBCAB's... no other state inherits an
        // output via failure links except those shown in the match table:
        // the figure's match table has entries for 10 states (0..9), since
        // EDAE's state also reports E (suffix), CBD reports BD, etc. —
        // those propagations land on already-accepting states, except none
        // new. Distinct pattern strings: 9 (BE shared).
        assert_eq!(ac.accepting_count(), 9);
        for s in 0..ac.accepting_count() as u32 {
            assert!(ac.is_accepting(s));
            assert!(!ac.entries(s).is_empty());
        }
        assert!(!ac.is_accepting(ac.accepting_count() as u32));
    }

    #[test]
    fn paper_example_shared_pattern_has_both_middleboxes() {
        let ac = paper_example();
        // Scanning "BE" must report BE for both middleboxes and E for mb 0.
        let matches = ac.find_all(b"BE");
        let mut mb0: Vec<_> = matches
            .iter()
            .filter(|(_, e)| e.middlebox == MiddleboxId(0))
            .collect();
        mb0.sort();
        let mb1: Vec<_> = matches
            .iter()
            .filter(|(_, e)| e.middlebox == MiddleboxId(1))
            .collect();
        // mb0: E at pos 1, BE at pos 1. mb1: BE at pos 1.
        assert_eq!(mb0.len(), 2);
        assert_eq!(mb1.len(), 1);
        assert!(matches.iter().all(|(pos, _)| *pos == 1));
    }

    #[test]
    fn paper_example_bitmaps() {
        let ac = paper_example();
        // Find the state reached by "BE": bitmap must have bits 0 and 1.
        let mut s = ac.start();
        for &b in b"BE" {
            s = ac.step(s, b);
        }
        assert_eq!(ac.bitmap(s), 0b11);
        // "BCAA" is only in set 0.
        let mut s = ac.start();
        for &b in b"BCAA" {
            s = ac.step(s, b);
        }
        assert_eq!(ac.bitmap(s), 0b01);
        // "CBD" is only in set 1 — but it ends with BD (set 0), so the
        // propagated bitmap covers both (Figure 7 marks CBD's state with
        // the striped/both-sets pattern via its match-table entries).
        let mut s = ac.start();
        for &b in b"CBD" {
            s = ac.step(s, b);
        }
        assert_eq!(ac.bitmap(s), 0b11);
    }

    #[test]
    fn overlapping_matches_are_all_reported() {
        let mut b = CombinedAcBuilder::new();
        b.add_set(PatternSet::from_strs(MiddleboxId(0), &["AA"]))
            .unwrap();
        let ac = b.build_full();
        let matches = ac.find_all(b"AAAA");
        // AA ends at positions 1, 2, 3.
        assert_eq!(
            matches.iter().map(|(p, _)| *p).collect::<Vec<_>>(),
            vec![1, 2, 3]
        );
    }

    #[test]
    fn scan_resumes_across_packet_boundary() {
        let mut b = CombinedAcBuilder::new();
        b.add_set(PatternSet::from_strs(MiddleboxId(0), &["HELLO"]))
            .unwrap();
        let ac = b.build_full();
        let mut hits = Vec::new();
        let mid = ac.scan(ac.start(), b"xxHEL", |p, s| hits.push((p, s)));
        assert!(hits.is_empty());
        ac.scan(mid, b"LOyy", |p, s| hits.push((p, s)));
        // Match ends at index 1 of the second packet.
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].0, 1);
    }

    #[test]
    fn empty_builder_produces_matchless_automaton() {
        let b = CombinedAcBuilder::new();
        let ac = b.build_full();
        assert_eq!(ac.accepting_count(), 0);
        assert!(ac.find_all(b"anything at all").is_empty());
    }

    #[test]
    fn single_byte_patterns_match_everywhere() {
        let mut b = CombinedAcBuilder::new();
        b.add_set(PatternSet::from_strs(MiddleboxId(3), &["x"]))
            .unwrap();
        let ac = b.build_full();
        assert_eq!(ac.find_all(b"xxaxx").len(), 4);
    }

    #[test]
    fn entry_lists_are_sorted() {
        let ac = paper_example();
        for s in 0..ac.accepting_count() as u32 {
            let es = ac.entries(s);
            let mut sorted = es.to_vec();
            sorted.sort();
            assert_eq!(es, &sorted[..]);
        }
    }

    #[test]
    fn depths_track_pattern_lengths() {
        let ac = paper_example();
        assert_eq!(ac.max_depth(), 6); // CDBCAB
        let mut s = ac.start();
        assert_eq!(ac.state_depth(s), 0);
        for &b in b"BCA" {
            s = ac.step(s, b);
        }
        assert_eq!(ac.state_depth(s), 3);
    }

    #[test]
    fn pattern_id_spaces_are_per_middlebox() {
        // Both middleboxes use pattern id 0 for different strings.
        let mut b = CombinedAcBuilder::new();
        b.add_set(PatternSet::from_strs(MiddleboxId(0), &["CAT"]))
            .unwrap();
        b.add_set(PatternSet::from_strs(MiddleboxId(1), &["DOG"]))
            .unwrap();
        let ac = b.build_full();
        let m = ac.find_all(b"CATDOG");
        assert_eq!(m.len(), 2);
        assert!(m
            .iter()
            .any(|(_, e)| e.middlebox == MiddleboxId(0) && e.pattern == PatternId(0)));
        assert!(m
            .iter()
            .any(|(_, e)| e.middlebox == MiddleboxId(1) && e.pattern == PatternId(0)));
    }
}
