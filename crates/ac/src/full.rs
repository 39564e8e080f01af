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
use crate::prefilter::PrefixFilter;
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
    /// The deepest state, i.e. the longest pattern: the bytes a scan lane
    /// started at the root needs before its state is exact.
    max_depth: u16,
    /// The filter over the 3-byte pattern prefixes that the lane loop
    /// skips the root's neighbourhood with, where the table admits one
    /// ([`root_skip_filter`]).
    skip: Option<PrefixFilter>,
}

/// The shortest unit the lane loop looks for a skip in: one window. No
/// longer floor pays — 64-B units gain or break even (EXPERIMENTS.md,
/// "Root skip").
const SKIP_FLOOR: usize = 3;

/// The prefix filter for a trie whose states of depth ≤ 2 all reject —
/// every pattern is at least 3 bytes, so a scan that stays at depth ≤ 2
/// reports nothing — built over its depth-3 labels; `None` when a
/// shorter pattern exists, or where [`PrefixFilter::new`] refuses (too
/// many prefixes, no AVX2).
fn root_skip_filter(trie: &Trie) -> Option<PrefixFilter> {
    if trie
        .nodes()
        .iter()
        .any(|node| node.depth <= 2 && !node.outputs.is_empty())
    {
        return None;
    }
    // Children are ordered by byte, so the labels come out sorted.
    let children = |u: u32| trie.node(u).children.iter().map(|(&b, &v)| (b, v));
    PrefixFilter::new(
        children(0)
            .flat_map(|(a, u)| children(u).map(move |(b, v)| (a, b, v)))
            .flat_map(|(a, b, v)| children(v).map(move |(c, _)| [a, b, c])),
    )
}

/// The renumbering that puts accepting states first: trie node → state
/// id, and the number of accepting states `f`.
fn renumber(trie: &Trie) -> (Vec<u32>, u32) {
    let mut remap = vec![0u32; trie.len()];
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
    (remap, f)
}

/// Builds the transition table in the renumbered id space, in one pass,
/// at cell type `C`, writing each cell once. The table is allocated
/// zeroed, so its pages stay untouched until their row is written. Rows
/// are filled in BFS order: the root's row self-loops, every other row
/// starts as a copy of its failure row, which is already final, and the
/// node's own goto transitions then overwrite their columns.
fn flatten<C>(trie: &Trie, bfs_order: &[u32], remap: &[u32]) -> Vec<C>
where
    C: Copy + Default + TryFrom<u32>,
    C::Error: std::fmt::Debug,
{
    let cell = |state: u32| C::try_from(state).expect("the chosen cell width holds every id");
    let mut table = vec![C::default(); trie.len() * 256];
    for &u in bfs_order {
        let node = trie.node(u);
        let row = remap[u as usize] as usize * 256;
        if node.depth == 0 {
            table[row..row + 256].fill(cell(remap[0]));
        } else {
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

/// Most lanes one payload is cut into: the stepping loop keeps every
/// lane's state in a register, and past four the compiler no longer can.
const MAX_LANES: usize = 4;

/// How many lanes a payload of `len` bytes is scanned in when every lane
/// but the first must clear `clear` bytes — its warm-up — before the cut
/// pays: the most whose warm-ups together stay within a quarter of the
/// payload (the crossover measured in EXPERIMENTS.md, "Lane-interleaved
/// scan"). Both inputs are visible per call and neither depends on
/// content, so hostile bytes cannot raise the cost.
pub(crate) fn lane_count(len: usize, clear: usize) -> usize {
    (2..=MAX_LANES)
        .rev()
        .find(|&k| ((k - 1) * 4).saturating_mul(clear) <= len)
        .unwrap_or(1)
}

/// Tells the optimizer `hit` is seldom true, so the branch it guards is
/// laid out of line and the registers of the loop around it are kept for
/// the loop: most payload bytes reach no accepting state (§6.5).
#[inline(always)]
fn rarely(hit: bool) -> bool {
    #[cold]
    fn cold() {}
    if hit {
        cold();
    }
    hit
}

/// The deliberately plain reference loop of the `naive` driver: per-byte
/// step, sample, accept check, nothing else. The baseline every
/// optimization is measured and verified against.
fn step_naive<C: Copy + Into<StateId>>(
    t: &[C],
    f: StateId,
    state: StateId,
    data: &[u8],
    mut grid: DepthGrid<'_>,
    mut on_accept: impl FnMut(usize, StateId),
) -> StateId {
    let mut s = state;
    for (i, &b) in data.iter().enumerate() {
        s = t[(s as usize) * 256 + usize::from(b)].into();
        grid.visit(i, [s], 1);
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
        let (remap, f) = renumber(trie);

        // 2. The transition table.
        let cells = if wide || n > usize::from(u16::MAX) {
            Cells::Wide(flatten(trie, bfs_order, &remap))
        } else {
            Cells::Narrow(flatten(trie, bfs_order, &remap))
        };

        // 3. Match table, bitmaps and depths in the new numbering.
        let mut per_state: Vec<&[MatchEntry]> = vec![&[]; f as usize];
        let mut depth = vec![0u16; n];
        let mut max_depth = 0u16;
        for (old, node) in trie.nodes().iter().enumerate() {
            let new = remap[old];
            depth[new as usize] = node.depth;
            max_depth = max_depth.max(node.depth);
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
            max_depth,
            skip: root_skip_filter(trie),
        }
    }

    /// Depth (label length) of a state — used by stress telemetry.
    pub fn state_depth(&self, state: StateId) -> u16 {
        self.depth[state as usize]
    }

    /// Maximum depth over all states (longest pattern).
    pub fn max_depth(&self) -> u16 {
        self.max_depth
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

    /// The crate's one production table-stepping loop, shared by every
    /// cell width and lane count. The per-byte work is a single dependent
    /// load plus the `s < f` accepting compare (§5.1), and the load bounds
    /// the loop — so the payload is cut into `K` equal chunks and `K`
    /// independent chains step through the same table in one loop body,
    /// their loads in flight together. An Aho-Corasick state is the
    /// longest suffix of the input that is a pattern prefix, so a lane
    /// started at the root `max_depth` bytes before its chunk is in the
    /// exact state when it reaches it; lane 0 starts from the caller's
    /// `state`. Chunks start on the sampling grid, so one grid test
    /// serves every lane. Each byte steps, then samples, then reports;
    /// accepts of later lanes wait in a buffer (unallocated until one
    /// occurs) so `on_accept` still sees ascending positions. At `K = 1`
    /// this is the plain resumable scan.
    #[inline(always)]
    fn step_lanes<const K: usize, C: Copy + Into<StateId>>(
        &self,
        t: &[C],
        state: StateId,
        data: &[u8],
        mut grid: DepthGrid<'_>,
        mut on_accept: impl FnMut(usize, StateId),
    ) -> StateId {
        let f = self.f;
        let step = |s: StateId, b: u8| -> StateId { t[(s as usize) * 256 + usize::from(b)].into() };
        // With position 0 the only sample, any cut will do and only lane
        // 0 sees the grid; a lone lane needs no cut at all.
        let (chunk, on_grid) = match grid.step_within(data.len()) {
            Some(every) if K > 1 => (data.len() / K / every * every, K),
            _ => (data.len() / K, 1),
        };
        let lanes: [&[u8]; K] = std::array::from_fn(|k| &data[k * chunk..][..chunk]);

        let mut s = [state; K];
        if K > 1 {
            let warm_up = usize::from(self.max_depth);
            // A shorter run-up could miss a match begun before the cut.
            assert!(
                warm_up <= chunk,
                "a lane warms up inside the chunk before it"
            );
            s[1..].fill(self.root);
            for j in chunk - warm_up..chunk {
                let before = lanes.map(|lane| lane[j]);
                for k in 1..K {
                    s[k] = step(s[k], before[k - 1]);
                }
            }
        }

        let mut late: [Vec<(usize, StateId)>; K] = std::array::from_fn(|_| Vec::new());
        for j in 0..chunk {
            let bytes = lanes.map(|lane| lane[j]);
            for k in 0..K {
                s[k] = step(s[k], bytes[k]);
            }
            grid.visit(j, s, on_grid);
            if rarely(s.iter().any(|&s| s < f)) {
                if s[0] < f {
                    on_accept(j, s[0]);
                }
                for k in 1..K {
                    if s[k] < f {
                        late[k].push((k * chunk + j, s[k]));
                    }
                }
            }
        }
        for &(at, s) in late[1..].iter().flatten() {
            on_accept(at, s);
        }

        // The last lane runs on alone over what the cut left.
        let mut s = s[K - 1];
        for (i, &b) in data[K * chunk..].iter().enumerate() {
            s = step(s, b);
            grid.visit(chunk + i, [s], 1);
            if rarely(s < f) {
                on_accept(K * chunk + i, s);
            }
        }
        s
    }

    /// Where the lane loop may start instead of byte 0, and the exact
    /// state before that byte; `(0, state)` when nothing can be skipped.
    ///
    /// Bytes 0 and 1 go on the table: a resumed flow may still be deep,
    /// or complete a pattern there. Only if neither accepts and the state
    /// after byte 1 is at depth ≤ 2 does the filter look for the first
    /// window that is a 3-byte prefix, each candidate confirmed by three
    /// steps from the root. Up to the window's third byte the automaton
    /// stays at depth ≤ 2 — depth grows one byte at a time, and reaching
    /// 3 spells a prefix — so nothing there accepts, and the state after
    /// byte `i` is the one the last two bytes reach from the root. The
    /// rest is handed over from the last grid position at or before that
    /// byte, so the lane loop's chunks still start on the grid.
    fn skip_root<C: Copy + Into<StateId>>(
        &self,
        filter: &PrefixFilter,
        t: &[C],
        state: StateId,
        data: &[u8],
        grid: &mut DepthGrid<'_>,
    ) -> (usize, StateId) {
        let step = |s: StateId, b: u8| -> StateId { t[(s as usize) * 256 + usize::from(b)].into() };
        let depth = |s: StateId| self.depth[s as usize];
        let s0 = step(state, data[0]);
        let s1 = step(s0, data[1]);
        if s0 < self.f || depth(s1) > 2 {
            return (0, state);
        }
        let from_root = |w: &[u8]| w.iter().fold(self.root, |s, &b| step(s, b));
        let hit = filter.first(data, |i| depth(from_root(&data[i..i + 3])) == 3);
        let to = match (hit, grid.step_within(data.len())) {
            (None, _) => data.len(),
            (Some(h), Some(every)) => (h + 2) / every * every,
            (Some(h), None) => h + 2,
        };
        if to < 2 {
            return (0, state);
        }
        grid.visit(0, [s0], 1);
        grid.visit(1, [s1], 1);
        grid.skip_shallow(to, |i| from_root(&data[i - 1..=i]));
        (to, from_root(&data[to - 2..to]))
    }

    /// [`ScanKernel::scan_sampled`] on the lane-interleaved loop, generic
    /// over the callback so a caller holding a closure is not forced
    /// through `dyn`. Where the table has a prefix filter, the lanes
    /// start past what [`FullAc::skip_root`] skips. The lane count
    /// follows from the length left and from what a lane must clear
    /// before the cut pays: its warm-up (`max_depth` bytes) and one grid
    /// step.
    pub(crate) fn scan_lanes(
        &self,
        state: StateId,
        data: &[u8],
        mut grid: DepthGrid<'_>,
        mut on_accept: impl FnMut(usize, StateId),
    ) -> StateId {
        let (from, state) = match &self.skip {
            Some(filter) if data.len() >= SKIP_FLOOR => {
                with_cells!(&self.cells, t => self.skip_root(filter, t, state, data, &mut grid))
            }
            _ => (0, state),
        };
        let data = &data[from..];
        let on_accept = |i, s| on_accept(from + i, s);
        let clear = usize::from(self.max_depth).max(grid.step_within(data.len()).unwrap_or(1));
        macro_rules! lanes {
            ($k:literal) => {
                with_cells!(&self.cells, t => self.step_lanes::<$k, _>(t, state, data, grid, on_accept))
            };
        }
        match lane_count(data.len(), clear) {
            1 => lanes!(1),
            2 => lanes!(2),
            3 => lanes!(3),
            _ => lanes!(4),
        }
    }

    /// [`ScanKernel::scan_sampled`] on the plain reference loop.
    pub(crate) fn scan_naive(
        &self,
        state: StateId,
        data: &[u8],
        grid: DepthGrid<'_>,
        on_accept: impl FnMut(usize, StateId),
    ) -> StateId {
        with_cells!(&self.cells, t => step_naive(t, self.f, state, data, grid, on_accept))
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
        let mut samples = DepthSamples::default();
        self.scan_lanes(
            state,
            data,
            self.grid(usize::MAX, u16::MAX, &mut samples),
            on_match,
        )
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
        self.scan_lanes(state, data, grid, on_accept)
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

    /// The lane choice as a pure function of payload length and table
    /// depth (`scan_lanes` also feeds it the grid step, which only ever
    /// raises `clear`).
    #[test]
    fn lane_count_bounds_the_warm_up_by_a_quarter_of_the_payload() {
        // The benchmark's Snort-like tables are 32 deep: `chain_small`'s
        // 64 B units stay on one lane, `chain_mixed`'s 200-1,400 B reach
        // two to four.
        assert_eq!(lane_count(64, 32), 1);
        assert_eq!(lane_count(200, 32), 2);
        assert_eq!(lane_count(300, 32), 3);
        assert_eq!(lane_count(1_400, 32), MAX_LANES);
        // ClamAV-like signatures are 64 deep and fall back to fewer.
        assert_eq!(lane_count(300, 64), 2);
        assert_eq!(lane_count(1_400, 64), MAX_LANES);

        let check = |len: usize, depth: usize| {
            let k = lane_count(len, depth);
            assert!((1..=MAX_LANES).contains(&k));
            assert!(
                (k - 1) * depth * 4 <= len,
                "{k} lanes warm up over more than a quarter of {len} B at depth {depth}"
            );
            k
        };
        // Every unit length up to the 65,535-B limit at the depths rule
        // sets have (ClamAV-like: 64) ...
        for depth in 1..=128 {
            let mut before = 1;
            for len in 0..=65_535 {
                let k = check(len, depth);
                assert!(k >= before, "monotone in len at depth {depth}, len {len}");
                before = k;
            }
        }
        // ... and, at every depth the trie admits, the lengths around
        // each step of the function.
        for depth in 1..=usize::from(u16::MAX) {
            for lanes in 2..=MAX_LANES {
                let edge = (lanes - 1) * 4 * depth;
                assert_eq!(check(edge - 1, depth), lanes - 1);
                assert_eq!(check(edge, depth), lanes);
            }
            check(65_535, depth);
        }
        // A deeper table never gets more lanes for the same payload.
        for len in [64, 300, 1_400, 65_535] {
            for depth in 1..2_048 {
                assert!(lane_count(len, depth + 1) <= lane_count(len, depth));
            }
        }
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

/// The fill-then-copy flatten — every cell first set to the root id, then
/// every row overwritten — as the reference the production [`flatten`]
/// must equal cell for cell.
#[cfg(test)]
mod flatten_oracle {
    use super::{flatten, renumber};
    use crate::trie::Trie;
    use crate::{MiddleboxId, PatternId};
    use proptest::prelude::*;

    fn flatten_oracle<C>(trie: &Trie, bfs_order: &[u32], remap: &[u32]) -> Vec<C>
    where
        C: Copy + TryFrom<u32>,
        C::Error: std::fmt::Debug,
    {
        let cell = |state: u32| C::try_from(state).expect("the chosen cell width holds every id");
        let mut table = vec![cell(remap[0]); trie.len() * 256];
        for &u in bfs_order {
            let node = trie.node(u);
            let row = remap[u as usize] as usize * 256;
            if node.depth != 0 {
                let fail = remap[node.fail as usize] as usize * 256;
                table.copy_within(fail..fail + 256, row);
            }
            for (&b, &c) in &node.children {
                table[row + usize::from(b)] = cell(remap[c as usize]);
            }
        }
        table
    }

    /// Builds the trie of `sets` (one per middlebox, pattern id = index)
    /// and checks both cell widths against the oracle.
    fn check(sets: &[Vec<Vec<u8>>]) -> Result<(), String> {
        let mut trie = Trie::new();
        for (m, set) in sets.iter().enumerate() {
            for (i, p) in set.iter().enumerate() {
                trie.add_pattern(MiddleboxId(m as u16), PatternId(i as u16), p)
                    .map_err(|e| format!("{e:?}"))?;
            }
        }
        let order = trie.build_failure_links();
        let (remap, _) = renumber(&trie);
        if trie.len() <= usize::from(u16::MAX) {
            let narrow: Vec<u16> = flatten(&trie, &order, &remap);
            if narrow != flatten_oracle::<u16>(&trie, &order, &remap) {
                return Err("u16 table differs from the oracle".into());
            }
        }
        let wide: Vec<u32> = flatten(&trie, &order, &remap);
        if wide != flatten_oracle::<u32>(&trie, &order, &remap) {
            return Err("u32 table differs from the oracle".into());
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Small alphabets make deep failure chains and shared prefixes;
        /// the full byte range makes wide rows.
        #[test]
        fn flatten_equals_the_fill_then_copy_oracle(
            sets in prop::collection::vec(
                prop::collection::vec(
                    prop_oneof![
                        prop::collection::vec(prop::sample::select(b"abc".to_vec()), 1..12),
                        prop::collection::vec(any::<u8>(), 1..6),
                    ],
                    0..24,
                ),
                1..4,
            )
        ) {
            prop_assert_eq!(check(&sets), Ok(()));
        }
    }

    /// The benchmark's rule set: `snort_like(4356, 42)` split into the
    /// paper's Snort1/Snort2 sets.
    #[test]
    fn flatten_equals_the_oracle_on_the_benchmark_rule_set() {
        let all = dpi_traffic::snort_like(4356, 42);
        let (snort1, snort2) = dpi_traffic::split_set(&all, 2500, 42);
        assert_eq!(check(&[snort1, snort2]), Ok(()));
    }

    #[test]
    fn an_empty_trie_is_one_self_looping_root_row() {
        assert_eq!(check(&[]), Ok(()));
    }
}
