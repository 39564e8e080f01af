//! The two-stage prefiltered scanner: SWAR pair skipping + a
//! 2-byte-stride root DFA over residue windows.
//!
//! Stage one sweeps the payload in 16-byte lanes with the
//! [`crate::prefilter::PairFilter`]'s masked byte comparison. A lane with
//! no confirmed rare pair cannot contain the chosen pair of any pattern
//! occurrence, so the DFA never touches it. Stage two hands each flagged
//! lane a *residue window* that reaches back `max_offset` bytes (a
//! confirmed pair at `q` means a covered occurrence starts no earlier
//! than `q − max_offset`) and scans it with the full-table DFA, taking
//! two bytes per step through a precomputed 256×256 root-pair table
//! whenever the scan sits at the root.
//!
//! # Why the result is byte-identical to a plain [`FullAc`] scan
//!
//! The scan tracks whether its state is *synced* — provably equal to the
//! state a full scan would have. It starts synced (the caller's entry
//! state is the true flow state) and skipping is only permitted from a
//! synced root:
//!
//! * No occurrence spans a skip entry: a synced root means no pattern
//!   prefix is alive, so nothing begun before the entry can end after it.
//! * No occurrence hides inside a skipped lane: every pattern's chosen
//!   pair confirms, and the resume point backs up `max_offset` bytes, so
//!   the residue window covers any occurrence whose pair the filter saw —
//!   including pairs straddling lane boundaries, whose second byte is
//!   read across the boundary during confirmation.
//! * Matches reported while unsynced are exact: the window state's
//!   suffix chain contains every pattern genuinely ending at a position
//!   (the window covers all occurrence starts), and nothing else, so the
//!   reported entry set equals the full scan's even when the state id
//!   differs. The scan re-syncs after `max_depth` contiguous bytes.
//! * The returned state is exact either way: if the scan ends unsynced,
//!   a callback-free root rescan of at most `max_depth` trailing bytes
//!   (bounded below by the last synced-root position) recomputes it.
//!
//! On pair-dense payloads (the complexity-attack traces of §4.3.1)
//! skipping stops paying; the kernel notices confirmed-candidate density
//! and degrades to plain DFA stepping for the rest of the call, keeping
//! the adversarial floor close to the unrolled kernel.

use crate::full::{step_unrolled, with_cells, FullAc};
use crate::kernel::DepthGrid;
use crate::prefilter::{PairFilter, LANE};
use crate::{Automaton, StateId};

/// Per-scan prefilter effectiveness counters, reported by
/// [`crate::CombinedAc::scan_with_stats`] for the kernel benchmarks.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PrefilterStats {
    /// Payload bytes the DFA never touched.
    pub skipped_bytes: u64,
    /// Payload bytes stepped through the DFA (residue windows + tails).
    pub dfa_bytes: u64,
    /// Residue windows opened (confirmed candidates).
    pub windows: u64,
    /// Residue windows that produced no match — the filter's
    /// false-positive residue.
    pub quiet_windows: u64,
    /// Whether candidate density tripped the adaptive bail-out.
    pub bailed: bool,
    /// Whether the pair filter ran at all (false: no filter compiled or
    /// the payload was below the minimum length).
    pub filtered: bool,
}

impl PrefilterStats {
    /// Fraction of payload bytes the DFA never touched.
    pub fn skip_fraction(&self) -> f64 {
        let total = self.skipped_bytes + self.dfa_bytes;
        if total == 0 {
            0.0
        } else {
            self.skipped_bytes as f64 / total as f64
        }
    }

    /// Fraction of residue windows that held no match.
    pub fn quiet_window_fraction(&self) -> f64 {
        if self.windows == 0 {
            0.0
        } else {
            self.quiet_windows as f64 / self.windows as f64
        }
    }
}

/// The prefiltered driver: the SWAR pair prefilter and the stride-2 root
/// table compiled over one [`FullAc`], at whatever cell width that table
/// has. [`crate::CombinedAc`] owns the pair; built by
/// [`crate::CombinedAcBuilder::build_kernel`].
#[derive(Debug, Clone)]
pub struct PrefilteredAc {
    filter: Option<PairFilter>,
    /// `root_pair[b1 << 8 | b2]` = the state two steps from the root —
    /// one 256 KiB table that lets root-resident scanning consume byte
    /// pairs.
    root_pair: Vec<u32>,
    /// Bit per first byte: whether one step from the root already
    /// accepts (single-byte patterns force a single-step there so the
    /// mid-stride match is reported).
    mid_accept: [u64; 4],
    /// Longest pattern (= deepest state), bounding both re-sync distance
    /// and the final-state fixup window.
    max_depth: usize,
    /// Payloads shorter than this skip the filter machinery entirely.
    min_len: usize,
}

impl PrefilteredAc {
    /// The bail-out watches measured skip effectiveness instead of
    /// guessing from candidate counts: once `BAIL_WARMUP` bytes are
    /// behind it, if fewer than 1/`BAIL_SKIP_DEN` of them were skipped,
    /// window replay and re-sync churn are eating the filter's winnings
    /// and the scan degrades to the unrolled table loop. Re-checked
    /// every `BAIL_WARMUP` bytes so a pair-dense tail also trips it.
    const BAIL_WARMUP: usize = 384;
    const BAIL_SKIP_DEN: u64 = 4;

    /// Builds the two-stage scanner over `inner`. `patterns` are the
    /// automaton's raw literals (anchor-extraction output included); when
    /// no selective pair cover exists the kernel keeps the DFA-only path
    /// and [`PrefilteredAc::is_filtered`] reports `false`.
    pub(crate) fn build(inner: &FullAc, patterns: &[Vec<u8>]) -> PrefilteredAc {
        let filter = PairFilter::build(patterns);
        let root = inner.start();
        let mut root_pair = vec![0u32; 256 * 256];
        let mut mid_accept = [0u64; 4];
        for b1 in 0..256usize {
            let s1 = inner.step(root, b1 as u8);
            if inner.is_accepting(s1) {
                mid_accept[b1 / 64] |= 1u64 << (b1 % 64);
            }
            for b2 in 0..256usize {
                root_pair[b1 << 8 | b2] = inner.step(s1, b2 as u8);
            }
        }
        let max_depth = usize::from(inner.max_depth()).max(1);
        let min_len = (2 * max_depth).max(2 * LANE);
        PrefilteredAc {
            filter,
            root_pair,
            mid_accept,
            max_depth,
            min_len,
        }
    }

    /// Whether a selective pair filter compiled for this pattern set.
    pub fn is_filtered(&self) -> bool {
        self.filter.is_some()
    }

    /// Bytes this driver adds to its table: the root-pair table,
    /// `mid_accept` and the filter.
    pub(crate) fn memory_bytes(&self) -> usize {
        std::mem::size_of_val(&self.root_pair[..])
            + std::mem::size_of_val(&self.mid_accept)
            + self.filter.as_ref().map_or(0, PairFilter::memory_bytes)
    }

    /// Scans `data` over `table` — the one this driver was built over.
    pub(crate) fn scan(
        &self,
        table: &FullAc,
        state: StateId,
        data: &[u8],
        grid: DepthGrid<'_>,
        stats: &mut PrefilterStats,
        on_accept: impl FnMut(usize, StateId),
    ) -> StateId {
        with_cells!(&table.cells, t => {
            self.scan_cells(t, table.f, table.root, state, data, grid, stats, on_accept)
        })
    }

    #[allow(clippy::too_many_arguments)]
    fn scan_cells<C: Copy + Into<StateId>>(
        &self,
        t: &[C],
        f: StateId,
        root: StateId,
        state: StateId,
        data: &[u8],
        mut grid: DepthGrid<'_>,
        stats: &mut PrefilterStats,
        mut on_accept: impl FnMut(usize, StateId),
    ) -> StateId {
        let n = data.len();
        let l = self.max_depth;

        let filter = match &self.filter {
            Some(pf) if n >= self.min_len => Some(pf),
            _ => None,
        };
        stats.filtered |= filter.is_some();
        if filter.is_none() {
            // No filter compiled (or the payload is too short for it to
            // pay): this scan is exactly a table scan, so run the
            // unrolled loop rather than a slower strided one.
            stats.dfa_bytes += n as u64;
            return step_unrolled(t, f, state, data, 0, |i, s| grid.visit(i, s), on_accept);
        }

        let mut s = state;
        let mut pos = 0usize;
        let mut synced = true;
        let mut run_start = 0usize;
        let mut fixup_floor = 0usize;
        let mut no_skip_before = 0usize;
        let mut skipped_local = 0u64;
        let mut bail_check_at = Self::BAIL_WARMUP;
        let mut resync_at = usize::MAX;
        let mut matches = 0u64;
        let mut window_mark = 0u64;
        let mut in_window = false;

        while pos < n {
            if synced && s == root && pos >= no_skip_before && n - pos >= LANE {
                let pf = filter.expect("the DFA-only path returned early");
                // ---- Stage one: skip candidate-free lanes. ----
                let skip_entry = pos;
                fixup_floor = pos;
                if in_window {
                    if matches == window_mark {
                        stats.quiet_windows += 1;
                    }
                    in_window = false;
                }
                let mut found = None;
                while pos + LANE <= n {
                    let lane =
                        u128::from_le_bytes(data[pos..pos + LANE].try_into().expect("lane width"));
                    let mut hits = pf.lane_hits(lane);
                    while hits != 0 {
                        let q = pos + (hits.trailing_zeros() as usize) / 8;
                        // Confirm the second byte, reading across the
                        // lane boundary; a pair cut off by the end of
                        // data stays a candidate (it may complete in the
                        // next packet of the flow).
                        if q + 1 >= n || pf.confirms(data[q], data[q + 1]) {
                            found = Some(q);
                            break;
                        }
                        hits &= hits - 1;
                    }
                    if found.is_some() {
                        break;
                    }
                    pos += LANE;
                }
                // Resume target: back up so the residue window covers any
                // occurrence whose chosen pair sits at/after the skipped
                // region's end.
                let target = match found {
                    Some(q) => {
                        stats.windows += 1;
                        window_mark = matches;
                        in_window = true;
                        no_skip_before = q + 2;
                        // The replay provably equals the true state once
                        // the candidate's pair bytes are consumed: a
                        // prefix begun inside the skipped region would
                        // have needed its pair confirmed before `q`, and
                        // the lane sweep proved none was.
                        resync_at = q + 2;
                        q.saturating_sub(pf.max_offset).max(skip_entry)
                    }
                    None => {
                        no_skip_before = pos;
                        resync_at = usize::MAX;
                        pos.saturating_sub(pf.max_offset).max(skip_entry)
                    }
                };
                // Skipped positions sample as shallow: a live prefix
                // there is at most one pair-window deep.
                grid.skip_to(target);
                stats.skipped_bytes += (target - skip_entry) as u64;
                skipped_local += (target - skip_entry) as u64;
                if target > skip_entry {
                    synced = false;
                    run_start = target;
                }
                s = root;
                pos = target;
                continue;
            }
            if pos >= bail_check_at {
                // Pair-dense payload (complexity-attack shaped): when the
                // measured skip fraction is under water, skipping is
                // churn — degrade to plain stepping.
                if skipped_local.saturating_mul(Self::BAIL_SKIP_DEN) < pos as u64 {
                    stats.bailed = true;
                    // Finish the payload on the unrolled remainder loop
                    // below instead of the strided stepper.
                    break;
                }
                bail_check_at = pos + Self::BAIL_WARMUP;
            }

            // ---- Stage two: DFA over the residue window / tail. ----
            if s == root && pos + 1 < n && !grid.is_due(pos) {
                let b1 = usize::from(data[pos]);
                if self.mid_accept[b1 / 64] >> (b1 % 64) & 1 == 0 {
                    // Root-resident: consume two bytes through the pair
                    // table. The mid state is provably non-accepting, so
                    // no callback is owed for it.
                    let b2 = usize::from(data[pos + 1]);
                    s = self.root_pair[b1 << 8 | b2];
                    stats.dfa_bytes += 2;
                    pos += 2;
                    grid.visit(pos - 1, s);
                    if s < f {
                        matches += 1;
                        on_accept(pos - 1, s);
                    }
                    if !synced && (pos >= resync_at || pos - run_start >= l) {
                        synced = true;
                    }
                    continue;
                }
            }
            s = t[(s as usize) * 256 + usize::from(data[pos])].into();
            stats.dfa_bytes += 1;
            grid.visit(pos, s);
            if s < f {
                matches += 1;
                on_accept(pos, s);
            }
            pos += 1;
            if !synced && (pos >= resync_at || pos - run_start >= l) {
                synced = true;
            }
        }

        // Degraded remainder after a bail-out: the unrolled table loop,
        // so the adversarial floor stays at its throughput.
        if pos < n {
            stats.dfa_bytes += (n - pos) as u64;
            s = step_unrolled(
                t,
                f,
                s,
                data,
                pos,
                |i, st| grid.visit(i, st),
                |i, st| {
                    matches += 1;
                    on_accept(i, st);
                },
            );
            pos = n;
            if !synced && (pos >= resync_at || pos - run_start >= l) {
                synced = true;
            }
        }

        if in_window && matches == window_mark {
            stats.quiet_windows += 1;
        }

        // ---- Final-state fixup: stateful flows store this state, so it
        // must equal the full scan's exactly. The true final suffix is at
        // most `max_depth` long and starts no earlier than the last
        // synced root, so a root rescan of that window recomputes it.
        if !synced {
            let start = fixup_floor.max(n.saturating_sub(l));
            let mut fs = root;
            for &b in &data[start..] {
                fs = t[(fs as usize) * 256 + usize::from(b)].into();
            }
            s = fs;
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{CombinedAcBuilder, PatternSet};
    use crate::{CombinedAc, KernelKind, MatchEntry, MiddleboxId};

    fn build(patterns: &[&str]) -> (FullAc, CombinedAc) {
        let mut b = CombinedAcBuilder::new();
        b.add_set(PatternSet::from_strs(MiddleboxId(0), patterns))
            .unwrap();
        (b.build_full(), b.build_kernel(KernelKind::Prefiltered))
    }

    fn is_filtered(pre: &CombinedAc) -> bool {
        pre.as_prefiltered().unwrap().is_filtered()
    }

    fn match_stream(ac: &impl Automaton, data: &[u8]) -> (Vec<(usize, Vec<MatchEntry>)>, StateId) {
        let mut out = Vec::new();
        let fin = ac.scan(ac.start(), data, |pos, st| {
            out.push((pos, ac.entries(st).to_vec()));
        });
        (out, fin)
    }

    #[test]
    fn selective_set_compiles_a_filter() {
        let (_, pre) = build(&["evil|sig", "bad~marker"]);
        assert!(is_filtered(&pre));
    }

    #[test]
    fn matches_and_final_state_equal_full_on_long_benign_payload() {
        let (full, pre) = build(&["evil|sig", "bad~marker", "X#Y"]);
        let mut data = b"plain old http text with nothing interesting in it at all ".repeat(20);
        data.extend_from_slice(b"evil|sig");
        data.extend_from_slice(&b"more filler text after the single match here".repeat(10));
        let (mf, sf) = match_stream(&full, &data);
        let (mp, sp) = match_stream(&pre, &data);
        assert_eq!(mf, mp);
        assert_eq!(sf, sp);
        assert_eq!(mf.len(), 1);
    }

    #[test]
    fn skip_stats_report_skipping_on_benign_payload() {
        let (_, pre) = build(&["evil|sig"]);
        let data = b"completely benign text without the rare byte anywhere at all ".repeat(30);
        let mut stats = PrefilterStats::default();
        pre.scan_with_stats(pre.start(), &data, &mut stats, |_, _| {});
        assert!(stats.filtered);
        assert!(
            stats.skip_fraction() > 0.8,
            "skip {}",
            stats.skip_fraction()
        );
        assert_eq!(stats.windows, 0);
    }

    #[test]
    fn cross_packet_state_is_exact_even_after_skipping() {
        let (full, pre) = build(&["deadly#strike"]);
        // Packet 1 ends mid-pattern *after* a long benign run the filter
        // skips; the stored state must still carry the partial match.
        let mut p1 = b"filler without rare bytes, lots of it, over and over ".repeat(10);
        p1.extend_from_slice(b"deadly#str");
        let p2 = b"ike and trailing bytes";
        let sf = full.scan(full.start(), &p1, |_, _| {});
        let sp = pre.scan(pre.start(), &p1, |_, _| {});
        assert_eq!(sf, sp, "final state after packet 1");
        let mut hits_f = Vec::new();
        let mut hits_p = Vec::new();
        full.scan(sf, p2, |pos, st| hits_f.push((pos, st)));
        pre.scan(sp, p2, |pos, st| hits_p.push((pos, st)));
        assert_eq!(hits_f, hits_p);
        assert_eq!(hits_f.len(), 1);
    }

    #[test]
    fn matches_straddling_lane_boundaries_are_found() {
        let (full, pre) = build(&["rare~pair"]);
        // Place the pattern at every offset in a window wider than two
        // SWAR lanes so the pair crosses each lane position once.
        for off in 0..48usize {
            let mut data = vec![b'x'; 160];
            data[off..off + 9].copy_from_slice(b"rare~pair");
            assert_eq!(
                match_stream(&pre, &data),
                match_stream(&full, &data),
                "offset {off}"
            );
        }
    }

    #[test]
    fn adversarial_prefix_stream_bails_but_stays_exact() {
        let (full, pre) = build(&["evil|sig", "bad~marker"]);
        // A §4.3.1 complexity-attack payload: truncated pattern prefixes
        // with root-resetting separators, so the scan keeps re-entering
        // skip mode and finding a confirmed candidate in every lane.
        let mut data = Vec::new();
        while data.len() < 2048 {
            data.extend_from_slice(b"evil|sxx");
        }
        let mut stats = PrefilterStats::default();
        let mut hits = Vec::new();
        let fin = pre.scan_with_stats(pre.start(), &data, &mut stats, |p, s| hits.push((p, s)));
        assert!(stats.bailed, "dense candidates must trip the bail-out");
        let mut hits_f = Vec::new();
        let fin_f = full.scan(full.start(), &data, |p, s| hits_f.push((p, s)));
        assert_eq!(hits, hits_f);
        assert_eq!(fin, fin_f);
    }

    #[test]
    fn single_byte_patterns_stay_exact() {
        let (full, pre) = build(&["~", "long|pattern"]);
        let mut data = b"text with ~ tildes ~ sprinkled ".repeat(12);
        data.extend_from_slice(b"long|pattern");
        assert_eq!(match_stream(&pre, &data), match_stream(&full, &data));
    }

    #[test]
    fn short_payloads_fall_back_to_plain_scan() {
        let (full, pre) = build(&["evil|sig"]);
        let data = b"evil|sig";
        let mut stats = PrefilterStats::default();
        let mut hits = 0;
        pre.scan_with_stats(pre.start(), data, &mut stats, |_, _| hits += 1);
        assert!(!stats.filtered);
        assert_eq!(hits, 1);
        assert_eq!(match_stream(&pre, data), match_stream(&full, data));
    }

    #[test]
    fn unfiltered_pattern_sets_still_scan_exactly() {
        // Nine distinct common-letter heads whose only pairs are doubled
        // letters: covering them needs nine first bytes, one over budget,
        // so the filter refuses and the kernel runs DFA-only — results
        // stay exact.
        let pats = [
            "eeee", "tttt", "aaaa", "oooo", "iiii", "nnnn", "ssss", "rrrr", "hhhh",
        ];
        let (full, pre) = build(&pats);
        assert!(!is_filtered(&pre));
        let data = b"the nation heats itssss streeeength and rests on cost ".repeat(8);
        assert_eq!(match_stream(&pre, &data), match_stream(&full, &data));
    }
}
