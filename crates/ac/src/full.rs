//! The automaton's one table: a 256-cell row only where the scan falls
//! back, and one small record for every other state (DESIGN.md §12).
//!
//! A full-table DFA (§3) gives every state a 256-entry row. But almost
//! every state of a merged rule set is a link deep in one pattern's
//! chain, and its row is its failure state's row except for one cell. So
//! only the *hot* states keep a row: the root, every state of depth ≤ 2,
//! every failure target, every state with more than one goto edge and
//! every state of depth 3 that more than one pattern passes through.
//! Every other, *cold*, state keeps a record of its one goto byte, its
//! child and its failure state, which is hot. A leaf stores its failure
//! row's byte-0 cell as its edge, which is exact. A cold step is one
//! record load, one compare and at most one row load, and it never walks
//! a failure chain, so no input costs more than two table loads a byte.
//!
//! Accepting states are numbered `{0..f-1}`, so the accepting test is
//! `state < f` ("it is also possible to check whether the state ID is
//! less than a predefined constant whose value is the number of accepting
//! states", §5.1) and the match table is a direct-access array indexed by
//! the accepting state id. Inside the table the states sit in a rotation
//! of that numbering, their *code*: the hot states that accept nothing
//! first, from the root at 0, then the hot accepting, the cold accepting
//! and the other cold states. A hot state's row is its code, and a single
//! compare per byte tells the scan loop that no lane left the hot states
//! that accept nothing.
//!
//! The cells are `u16` when every state fits (below 2¹⁶ states) and `u32`
//! otherwise; nothing else about the automaton depends on the width.

use crate::kernel::{DepthGrid, DepthSamples, ScanKernel};
use crate::prefilter::PrefixFilter;
use crate::trie::Trie;
use crate::{Automaton, MatchEntry, StateId};

/// A state's position in the table's order (see the module docs).
type Code = u32;

/// A transition cell: a code at the table's width.
trait Cell: Copy + Default + Into<Code> + TryFrom<Code> {}

impl Cell for u16 {}
impl Cell for u32 {}

/// A state's record: for a cold state its one goto edge and the row it
/// falls back to; a hot state's record falls back to its own row.
#[derive(Debug, Default, Clone, Copy)]
struct Record<C> {
    /// The child's code; for a leaf, its failure row's byte-0 cell.
    child: C,
    /// The row the step falls back to: a cold state's failure state, a
    /// hot state itself.
    row: C,
    /// The edge's byte: 0 for a leaf, and for a hot state 256, which no
    /// byte equals. It costs no space: the record pads to its cells.
    byte: u16,
}

/// The rows and records at one cell width.
#[derive(Debug, Clone)]
struct Table<C> {
    /// `code * 256 + byte -> next code`, for the codes below `hot`.
    rows: Vec<C>,
    /// Every state's record, by code.
    records: Vec<Record<C>>,
    /// Number of hot states.
    hot: Code,
}

impl<C: Cell> Table<C> {
    /// The row step of hot state `c`.
    #[inline(always)]
    fn row(&self, c: Code, b: u8) -> Code {
        self.rows[(c as usize) << 8 | usize::from(b)].into()
    }

    /// The step of any state without a branch on it: its record's edge if
    /// the byte is the edge's, else the record's row. Two dependent
    /// loads, so lanes stepped together keep their overlap whichever
    /// states they are in.
    #[inline(always)]
    fn step_flat(&self, c: Code, b: u8) -> Code {
        let r = self.records[c as usize];
        let via_row = self.row(r.row.into(), b);
        if r.byte == u16::from(b) {
            r.child.into()
        } else {
            via_row
        }
    }

    /// The step of any state: a hot one's row, a cold one's record.
    #[inline(always)]
    fn step(&self, c: Code, b: u8) -> Code {
        if c < self.hot {
            self.row(c, b)
        } else {
            self.step_flat(c, b)
        }
    }
}

/// The table at its cell width.
#[derive(Debug, Clone)]
enum Cells {
    /// Every code fits 16 bits: half the table bytes.
    Narrow(Table<u16>),
    /// The paper's 4-byte cells — needed from 2¹⁶ states up.
    Wide(Table<u32>),
}

/// Evaluates `$body` with `$t` bound to the table, once per cell width,
/// so the code under it is monomorphized for `u16` and `u32`.
macro_rules! with_cells {
    ($cells:expr, $t:ident => $body:expr) => {
        match $cells {
            Cells::Narrow($t) => $body,
            Cells::Wide($t) => $body,
        }
    };
}

/// The laid-out automaton.
#[derive(Debug, Clone)]
pub struct FullAc {
    cells: Cells,
    /// Number of hot states that accept nothing: codes `0..plain`.
    plain: Code,
    /// Number of accepting states; accepting ids are `0..f`, their codes
    /// `plain..plain + f`.
    f: u32,
    /// Per-accepting-state middlebox bitmap, indexed by state id.
    bitmaps: Vec<u64>,
    /// Direct-access match table: `offsets[i]..offsets[i+1]` indexes
    /// `entries` for accepting state `i` (§5.1's `match` array, flattened).
    offsets: Vec<u32>,
    /// All match entries, grouped by accepting state, each group sorted.
    entries: Vec<MatchEntry>,
    /// Depth (label length) per code — exported for the MCA²-style stress
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

/// Lays out the rows and records at cell type `C`, in BFS order, so a
/// failure state's row is final before it is read. The rows are
/// allocated zeroed — every cell the root, code 0 — so the root's row
/// needs only its goto edges; every other hot row starts as a copy of its
/// failure row, and its goto edges then overwrite their columns.
fn layout<C: Cell>(trie: &Trie, order: &[u32], fail: &[u32], code: &[Code], hot: Code) -> Table<C> {
    let cell = |c: Code| {
        C::try_from(c)
            .ok()
            .expect("the chosen cell width holds every code")
    };
    let at = |u: u32| code[u as usize] as usize;
    let mut rows = vec![C::default(); hot as usize * 256];
    let mut records = vec![Record::default(); trie.len()];
    for &u in order {
        let node = trie.node(u);
        let fail_row = at(fail[u as usize]) * 256;
        let c = at(u);
        records[c] = if c < hot as usize {
            let row = c * 256;
            if u != 0 {
                // `fail(u) != u` for non-root nodes, so the rows are disjoint.
                rows.copy_within(fail_row..fail_row + 256, row);
            }
            for (&b, &v) in &node.children {
                rows[row + usize::from(b)] = cell(code[v as usize]);
            }
            Record {
                child: C::default(),
                row: cell(c as Code),
                byte: 256,
            }
        } else {
            let (byte, child) = match node.children.iter().next() {
                Some((&b, &v)) => (b, cell(code[v as usize])),
                None => (0, rows[fail_row]),
            };
            Record {
                child,
                row: cell(fail_row as Code / 256),
                byte: u16::from(byte),
            }
        };
    }
    Table { rows, records, hot }
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
/// the loop: most payload bytes reach no accepting state (§6.5) and stay
/// among the hot states.
#[inline(always)]
fn rarely(hit: bool) -> bool {
    #[cold]
    fn cold() {}
    if hit {
        cold();
    }
    hit
}

impl FullAc {
    /// Lays a trie out (the [`crate::CombinedAcBuilder`] handles the full
    /// pipeline), reading it only: `u16` cells below 2¹⁶ states unless
    /// `wide` asks for the paper's `u32` cells regardless, `u32` from
    /// there up.
    pub(crate) fn from_trie(trie: &Trie, wide: bool) -> FullAc {
        let n = trie.len();
        let nodes = trie.nodes();
        let (order, fail) = trie.failure_links();

        // 1. Which states accept — their own patterns or their failure
        //    state's — and which are hot. A depth-3 state that more than
        //    one pattern passes through is hot too: it is a keyword prefix
        //    benign text spells, where the root skip hands over to the
        //    lanes, and as a row it costs the lanes no excursion.
        let mut accepting = vec![false; n];
        let mut hot = vec![false; n];
        let mut shared = vec![false; n];
        for &u in order.iter().rev() {
            let node = &nodes[u as usize];
            shared[u as usize] = node.children.len() > 1
                || (!node.outputs.is_empty() && !node.children.is_empty())
                || node.children.values().any(|&v| shared[v as usize]);
        }
        for &u in &order {
            let (u, node) = (u as usize, &nodes[u as usize]);
            accepting[u] = !node.outputs.is_empty() || accepting[fail[u] as usize];
            hot[u] |= node.depth <= 2 || node.children.len() > 1 || (node.depth == 3 && shared[u]);
            if u != 0 {
                hot[fail[u] as usize] = true;
            }
        }

        // 2. Codes, each class in insertion order: the root is 0, and one
        //    pattern's chain is one run of records, which is what a scan
        //    walking it touches.
        let class = |u: usize| match (hot[u], accepting[u]) {
            (true, false) => 0,
            (true, true) => 1,
            (false, true) => 2,
            (false, false) => 3,
        };
        let mut next = [0 as Code; 4];
        for u in 0..n {
            next[class(u)] += 1;
        }
        let (plain, f) = (next[0], next[1] + next[2]);
        let hot_count = plain + next[1];
        next = [0, plain, hot_count, plain + f];
        let code: Vec<Code> = (0..n)
            .map(|u| {
                next[class(u)] += 1;
                next[class(u)] - 1
            })
            .collect();

        // 3. The table, at its cell width.
        let cells = if wide || n > usize::from(u16::MAX) {
            Cells::Wide(layout(trie, &order, &fail, &code, hot_count))
        } else {
            Cells::Narrow(layout(trie, &order, &fail, &code, hot_count))
        };

        // 4. Depths, and the match table in accepting-id order. A state
        //    reports its own patterns and every one its failure state
        //    reports (§5.1's suffix propagation); in BFS order the failure
        //    state's list is complete when it is read.
        let mut depth = vec![0u16; n];
        let mut merged = Vec::new();
        let mut spans = vec![0..0; f as usize];
        for &u in &order {
            let u = u as usize;
            depth[code[u] as usize] = nodes[u].depth;
            if accepting[u] {
                let start = merged.len();
                merged.extend_from_slice(&nodes[u].outputs);
                let fu = fail[u] as usize;
                if accepting[fu] {
                    merged.extend_from_within(spans[(code[fu] - plain) as usize].clone());
                }
                merged[start..].sort_unstable();
                spans[(code[u] - plain) as usize] = start..merged.len();
            }
        }
        let mut offsets = Vec::with_capacity(f as usize + 1);
        let mut entries = Vec::with_capacity(merged.len());
        let mut bitmaps = Vec::with_capacity(f as usize);
        offsets.push(0u32);
        for span in spans {
            let outs = &merged[span];
            entries.extend_from_slice(outs);
            offsets.push(entries.len() as u32);
            bitmaps.push(
                outs.iter()
                    .fold(0, |bits, e| bits | crate::bitmap_bit(e.middlebox)),
            );
        }

        FullAc {
            cells,
            plain,
            f,
            bitmaps,
            offsets,
            entries,
            max_depth: depth.iter().copied().max().unwrap_or(0),
            depth,
            skip: root_skip_filter(trie),
        }
    }

    /// A state's code.
    fn code(&self, state: StateId) -> Code {
        let cold_end = self.state_count() as Code - self.plain;
        if state >= cold_end {
            state - cold_end
        } else {
            state + self.plain
        }
    }

    /// The state of a code.
    fn id(&self, c: Code) -> StateId {
        if c < self.plain {
            c + (self.state_count() as Code - self.plain)
        } else {
            c - self.plain
        }
    }

    /// Depth (label length) of a state — used by stress telemetry.
    pub fn state_depth(&self, state: StateId) -> u16 {
        self.depth[self.code(state) as usize]
    }

    /// Maximum depth over all states (longest pattern).
    pub fn max_depth(&self) -> u16 {
        self.max_depth
    }

    /// The sampling grid of one scan over this table's depths by code.
    pub(crate) fn grid<'a>(
        &'a self,
        sample_every: usize,
        deep_depth: u16,
        samples: &'a mut DepthSamples,
    ) -> DepthGrid<'a> {
        DepthGrid::new(&self.depth, sample_every, deep_depth, samples)
    }

    /// The deliberately plain reference loop of the `naive` driver: per-byte
    /// step, sample, accept check, nothing else. The baseline every
    /// optimization is measured and verified against.
    fn step_naive<C: Cell>(
        &self,
        t: &Table<C>,
        state: Code,
        data: &[u8],
        mut grid: DepthGrid<'_>,
        mut on_accept: impl FnMut(usize, StateId),
    ) -> Code {
        let (plain, f) = (self.plain, self.f);
        let (mut s, mut cold) = (state, 0);
        for (i, &b) in data.iter().enumerate() {
            cold += usize::from(s >= t.hot);
            s = t.step(s, b);
            grid.visit(i, [s], 1);
            if s.wrapping_sub(plain) < f {
                on_accept(i, s - plain);
            }
        }
        grid.cold_steps(cold);
        s
    }

    /// The crate's one production table-stepping loop, shared by every
    /// cell width and lane count. The payload is cut into `K` equal
    /// chunks and `K` independent chains step through the same table in
    /// one loop body, their loads in flight together. While every lane is
    /// in a hot state that accepts nothing, a byte costs each lane one row
    /// load, and the row's bounds check is the only test: an index past
    /// those rows means the lane accepted (§5.1's `state < f`, in code
    /// order) or is cold. That is rare on benign bytes (≈ 6 cold steps a
    /// KB on the benchmark's HTTP), so the loop then reports and takes the
    /// general step until every lane is back: the first byte branches per
    /// lane, so the hot lanes keep their one load; later ones, where a
    /// lane walks a pattern's chain, take the flat step, so lanes that
    /// fall in and out of cold states cost no mispredictions. An
    /// Aho-Corasick state is the longest suffix of the input that is a
    /// pattern prefix, so a lane started at the root `max_depth` bytes
    /// before its chunk is in the exact state when it reaches it; lane 0
    /// starts from the caller's state. Chunks start on the sampling grid,
    /// so one grid test serves every lane. Accepts are reported after the
    /// byte that reached them, and those of later lanes wait in a buffer
    /// (unallocated until one occurs), so `on_accept` still sees ascending
    /// positions. At `K = 1` this is the plain resumable scan.
    #[inline(always)]
    fn step_lanes<const K: usize, C: Cell>(
        &self,
        t: &Table<C>,
        state: Code,
        data: &[u8],
        mut grid: DepthGrid<'_>,
        mut on_accept: impl FnMut(usize, StateId),
    ) -> Code {
        let (plain, hot, f) = (self.plain, t.hot, self.f);
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
            s[1..].fill(0);
            for j in chunk - warm_up..chunk {
                let before = lanes.map(|lane| lane[j]);
                for k in 1..K {
                    s[k] = t.step(s[k], before[k - 1]);
                }
            }
        }

        let mut late: [Vec<(usize, StateId)>; K] = std::array::from_fn(|_| Vec::new());
        let mut report = |j: usize, s: [Code; K]| {
            for (k, s) in s.into_iter().enumerate() {
                let id = s.wrapping_sub(plain);
                if id < f {
                    match k {
                        0 => on_accept(j, id),
                        _ => late[k].push((k * chunk + j, id)),
                    }
                }
            }
        };
        // The rows of the hot states that accept nothing.
        let fast = &t.rows[..plain as usize * 256];
        let (mut j, mut cold) = (0, 0);
        loop {
            while j < chunk {
                let bytes = lanes.map(|lane| lane[j]);
                let at: [usize; K] =
                    std::array::from_fn(|k| (s[k] as usize) << 8 | usize::from(bytes[k]));
                if rarely(at.iter().any(|&i| i >= fast.len())) {
                    break;
                }
                for k in 0..K {
                    s[k] = fast[at[k]].into();
                }
                grid.visit(j, s, on_grid);
                j += 1;
            }
            if j == chunk {
                break;
            }
            let mut first = true;
            loop {
                if j > 0 {
                    report(j - 1, s);
                }
                let bytes = lanes.map(|lane| lane[j]);
                cold += s.iter().filter(|&&s| s >= hot).count();
                if first {
                    for k in 0..K {
                        s[k] = t.step(s[k], bytes[k]);
                    }
                } else {
                    for k in 0..K {
                        s[k] = t.step_flat(s[k], bytes[k]);
                    }
                }
                first = false;
                grid.visit(j, s, on_grid);
                j += 1;
                if j == chunk || s.iter().all(|&s| s < plain) {
                    break;
                }
            }
        }
        if chunk > 0 {
            report(chunk - 1, s);
        }
        for &(at, id) in late[1..].iter().flatten() {
            on_accept(at, id);
        }

        // The last lane runs on alone over what the cut left.
        let mut s = s[K - 1];
        for (i, &b) in data[K * chunk..].iter().enumerate() {
            cold += usize::from(s >= hot);
            s = t.step(s, b);
            grid.visit(chunk + i, [s], 1);
            if rarely(s.wrapping_sub(plain) < f) {
                on_accept(K * chunk + i, s - plain);
            }
        }
        grid.cold_steps(cold);
        s
    }

    /// Where the lane loop may start instead of byte 0, and the exact
    /// code before that byte; `(0, state)` when nothing can be skipped.
    ///
    /// Bytes 0 and 1 go on the table: a resumed flow may still be deep,
    /// or complete a pattern there. Only if neither accepts and the state
    /// after byte 1 is at depth ≤ 2 does the filter look for the first
    /// window that is a 3-byte prefix, each candidate confirmed by three
    /// steps from the root. Up to the window's third byte the automaton
    /// stays at depth ≤ 2 — depth grows one byte at a time, and reaching
    /// 3 spells a prefix — so nothing there accepts, every state is hot,
    /// and the state after byte `i` is the one the last two bytes reach
    /// from the root. The rest is handed over from the last grid position
    /// at or before that byte, so the lane loop's chunks still start on
    /// the grid.
    fn skip_root<C: Cell>(
        &self,
        filter: &PrefixFilter,
        t: &Table<C>,
        state: Code,
        data: &[u8],
        grid: &mut DepthGrid<'_>,
    ) -> (usize, Code) {
        let depth = |c: Code| self.depth[c as usize];
        let s0 = t.step(state, data[0]);
        let s1 = t.step(s0, data[1]);
        if s0.wrapping_sub(self.plain) < self.f || depth(s1) > 2 {
            return (0, state);
        }
        let from_root = |w: &[u8]| w.iter().fold(0, |s, &b| t.step(s, b));
        let hit = filter.first(data, |i| depth(from_root(&data[i..i + 3])) == 3);
        let to = match (hit, grid.step_within(data.len())) {
            (None, _) => data.len(),
            (Some(h), Some(every)) => (h + 2) / every * every,
            (Some(h), None) => h + 2,
        };
        if to < 2 {
            return (0, state);
        }
        grid.cold_steps(usize::from(state >= t.hot) + usize::from(s0 >= t.hot));
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
        let state = self.code(state);
        let (from, state) = match &self.skip {
            Some(filter) if data.len() >= SKIP_FLOOR => {
                with_cells!(&self.cells, t => self.skip_root(filter, t, state, data, &mut grid))
            }
            _ => (0, state),
        };
        let data = &data[from..];
        if data.is_empty() {
            // The skip took the payload, as on most benign units: no lane
            // has a byte to step, so none is set up.
            return self.id(state);
        }
        let on_accept = |i, s| on_accept(from + i, s);
        let clear = usize::from(self.max_depth).max(grid.step_within(data.len()).unwrap_or(1));
        macro_rules! lanes {
            ($k:literal) => {
                with_cells!(&self.cells, t => self.step_lanes::<$k, _>(t, state, data, grid, on_accept))
            };
        }
        let end = match lane_count(data.len(), clear) {
            1 => lanes!(1),
            2 => lanes!(2),
            3 => lanes!(3),
            _ => lanes!(4),
        };
        self.id(end)
    }

    /// [`ScanKernel::scan_sampled`] on the plain reference loop.
    pub(crate) fn scan_naive(
        &self,
        state: StateId,
        data: &[u8],
        grid: DepthGrid<'_>,
        on_accept: impl FnMut(usize, StateId),
    ) -> StateId {
        let state = self.code(state);
        let end = with_cells!(&self.cells, t => self.step_naive(t, state, data, grid, on_accept));
        self.id(end)
    }
}

impl Automaton for FullAc {
    fn start(&self) -> StateId {
        self.id(0)
    }

    #[inline(always)]
    fn step(&self, state: StateId, byte: u8) -> StateId {
        let c = self.code(state);
        self.id(with_cells!(&self.cells, t => t.step(c, byte)))
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
        with_cells!(&self.cells, t => std::mem::size_of_val(&t.rows[..]) + std::mem::size_of_val(&t.records[..]))
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
    fn suffix_outputs_are_propagated() {
        // "DEF" is a suffix of "ABCDEF": the ABCDEF accepting state must
        // also carry DEF's entry (the paper's own example).
        let mut b = CombinedAcBuilder::new();
        b.add_set(PatternSet::from_strs(MiddleboxId(0), &["DEF"]))
            .unwrap();
        b.add_set(PatternSet::from_strs(
            MiddleboxId(1),
            &["xx", "xx", "ABCDEF"],
        ))
        .unwrap();
        let ac = b.build_full();
        let s = b"ABCDEF".iter().fold(ac.start(), |s, &c| ac.step(s, c));
        let entry = |mb, pid, len| MatchEntry {
            middlebox: MiddleboxId(mb),
            pattern: PatternId(pid),
            len,
        };
        assert_eq!(ac.entries(s), &[entry(0, 0, 3), entry(1, 2, 6)]);
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

/// The layout against the textbook automaton: on every state and every
/// byte, the step equals the goto-or-fail walk over the trie, and the
/// depth and match list are the trie node's. Every cold state has at
/// most one goto edge and a hot failure state — the invariant behind "at
/// most two table loads per byte".
#[cfg(test)]
mod layout {
    use super::*;
    use crate::{MiddleboxId, PatternId};
    use proptest::prelude::*;

    /// Builds the trie of `sets` (one per middlebox, pattern id = index)
    /// and checks its layout at both cell widths.
    fn check(sets: &[Vec<Vec<u8>>]) -> Result<(), String> {
        let mut trie = Trie::new();
        for (m, set) in sets.iter().enumerate() {
            for (i, p) in set.iter().enumerate() {
                trie.add_pattern(MiddleboxId(m as u16), PatternId(i as u16), p)
                    .map_err(|e| format!("{e:?}"))?;
            }
        }
        let (order, fail) = trie.failure_links();
        let n = trie.len();
        // The textbook transition function, row by row in BFS order, and
        // each node's outputs with its failure node's merged in.
        let mut delta = vec![0u32; n * 256];
        let mut outputs: Vec<Vec<MatchEntry>> = vec![Vec::new(); n];
        for &u in &order {
            let (u, node) = (u as usize, trie.node(u));
            if u != 0 {
                let f = fail[u] as usize;
                delta.copy_within(f * 256..f * 256 + 256, u * 256);
                outputs[u] = outputs[f].clone();
            }
            for (&b, &v) in &node.children {
                delta[u * 256 + usize::from(b)] = v;
            }
            outputs[u].extend_from_slice(&node.outputs);
            outputs[u].sort_unstable();
        }
        for wide in [false, true] {
            let ac = FullAc::from_trie(&trie, wide);
            let hot = with_cells!(&ac.cells, t => t.hot);
            // Each node's state, found along its goto edges.
            let mut state = vec![ac.start(); n];
            for &u in &order {
                for (&b, &v) in &trie.node(u).children {
                    state[v as usize] = ac.step(state[u as usize], b);
                }
            }
            for u in 0..n {
                let (node, s) = (trie.node(u as u32), state[u]);
                for b in 0..=255u8 {
                    if ac.step(s, b) != state[delta[u * 256 + usize::from(b)] as usize] {
                        return Err(format!("node {u}, byte {b}: wrong step (wide {wide})"));
                    }
                }
                if ac.state_depth(s) != node.depth || ac.entries(s) != &outputs[u][..] {
                    return Err(format!("node {u}: wrong depth or match list"));
                }
                let c = ac.code(s);
                if c >= hot && (node.children.len() > 1 || ac.code(state[fail[u] as usize]) >= hot)
                {
                    return Err(format!("cold node {u} branches or fails to a cold state"));
                }
            }
            let mut ids: Vec<StateId> = state.clone();
            ids.sort_unstable();
            if ids != (0..n as StateId).collect::<Vec<_>>() {
                return Err("the states are not a numbering of the nodes".into());
            }
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Small alphabets make deep failure chains and shared prefixes;
        /// the full byte range makes wide rows.
        #[test]
        fn the_layout_steps_like_the_textbook_automaton(
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
    fn the_layout_steps_like_the_textbook_automaton_on_the_benchmark_rule_set() {
        let all = dpi_traffic::snort_like(4356, 42);
        let (snort1, snort2) = dpi_traffic::split_set(&all, 2500, 42);
        assert_eq!(check(&[snort1, snort2]), Ok(()));
    }

    #[test]
    fn an_empty_trie_is_one_self_looping_root_row() {
        assert_eq!(check(&[]), Ok(()));
    }
}
