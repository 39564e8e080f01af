//! TCP stream reassembly — "session reconstruction as a service".
//!
//! The paper's conclusion names this as the next shared task: "In future
//! work, we plan to investigate the possibility of also turning other
//! common tasks, such as flow tagging and session reconstruction, into
//! services." Stateful DPI (§5.2) silently assumes in-order payload
//! bytes; on a real network, TCP segments arrive out of order and
//! retransmitted. This module turns a segment stream into the in-order
//! byte stream the scanner needs — once, at the DPI service, instead of
//! once per middlebox.
//!
//! ## Overlap conflicts and evasion
//!
//! When two copies of the same sequence range carry *different* bytes,
//! the segment stream is ambiguous: a receiver that keeps the first copy
//! and one that keeps the second reconstruct different byte streams
//! (*Fingerprinting DPI Devices by Their Ambiguities* builds working
//! evasions from exactly this divergence). Because the reconstruction
//! here is shared by every middlebox, a silent wrong guess would be
//! fleet-wide. Conflicts are therefore **detected** (byte-compared, not
//! assumed equal) and resolved by an explicit [`ConflictPolicy`]:
//!
//! * [`ConflictPolicy::FirstWins`] — the historical Snort-style default:
//!   the first copy of each byte is canonical. Delivery is byte-identical
//!   to the pre-policy behaviour.
//! * [`ConflictPolicy::RejectFlow`] — fail-closed: the first conflict
//!   quarantines the flow. No further bytes are delivered; the caller
//!   reports the quarantine instead of scanning an arbitrary guess.
//!
//! Under `FirstWins` the *losing* (later) copy of each conflict is
//! stashed ([`StreamReassembler::take_conflict_payloads`]) so the
//! scanner can run it through a stateless shadow scan: a pattern hidden
//! entirely inside the losing interpretation still produces a match, and
//! every conflict is counted and traceable — a miss can never be silent.
//!
//! Divergence is checked on **every** path where two copies of a byte
//! can meet: out-of-order inserts against pending ranges, retransmissions
//! against the delivered history, and an in-order segment against any
//! pending copy it covers (resolved per policy *before* delivery, so the
//! scanner never sees an unverified guess; `drain_pending` additionally
//! re-verifies every stale prefix it trims against the history).
//!
//! Conflict detection against *already delivered* bytes keeps a bounded
//! tail of the delivered stream ([`CONFLICT_HISTORY`] bytes). Divergent
//! retransmissions of older data cannot be byte-verified; `FirstWins`
//! treats them as ordinary duplicates (trimmed, uncounted), while
//! `RejectFlow` — whose whole point is refusing to guess — treats an
//! unverifiable overlap as a conflict.
//!
//! The reassembler is otherwise deliberately conservative:
//!
//! * out-of-order segments are buffered (bounded in bytes and in pieces)
//!   until the gap fills, trimmed against already-pending ranges so
//!   overlap bytes are stored and accounted once;
//! * sequence numbers wrap mod 2³²; `push` converts each segment's
//!   sequence number once, by its serial distance from `next_seq`, into
//!   a stream offset (bytes since the stream start), and pending data is
//!   keyed by that offset, so map order is stream order and every
//!   overlap, eviction and drain is a range query. A distance of exactly
//!   2³¹ — ambiguous under RFC 1982 — is treated as *future* data
//!   (buffered, never trimmed as delivered).

use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, VecDeque};

/// How the reassembler resolves byte-level conflicts between overlapping
/// copies of the same sequence range. Selected per instance via
/// `InstanceConfig::with_conflict_policy` and threaded to every shard.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum ConflictPolicy {
    /// The first copy of each byte is canonical (Snort's default).
    #[default]
    FirstWins,
    /// Fail closed: the first conflict quarantines the flow — nothing
    /// further is delivered and the caller reports the quarantine.
    RejectFlow,
}

impl ConflictPolicy {
    /// Stable lowercase name ("first_wins", …) for labels and logs.
    pub fn name(self) -> &'static str {
        match self {
            ConflictPolicy::FirstWins => "first_wins",
            ConflictPolicy::RejectFlow => "reject_flow",
        }
    }
}

/// Delivered-stream tail retained for byte-verifying retransmissions.
/// Bounded so per-flow memory stays flat; divergent retransmissions of
/// data older than this horizon are unverifiable (see module docs).
pub const CONFLICT_HISTORY: usize = 8192;

/// Losing conflict copies stashed for shadow scanning are capped at this
/// many per flow between drains; further conflicts are still counted.
const MAX_CONFLICT_STASH: usize = 32;

/// Out-of-order pieces one reassembler holds at most, whatever their
/// size: 1 MiB of capacity in 256-byte pieces, well above a full 1 MiB
/// window at any real MSS. Past it the oldest piece is evicted, as under
/// the byte bound, so a flood of tiny gapped segments costs a bounded
/// number of map nodes rather than one per byte of capacity.
const MAX_PENDING_PIECES: usize = 4096;

/// One direction of one TCP connection.
#[derive(Debug)]
pub struct StreamReassembler {
    /// The next in-order sequence number the consumer expects.
    next_seq: u32,
    /// Out-of-order pieces keyed by stream offset (bytes since the
    /// stream start; `delivered` is the offset of `next_seq`), so map
    /// order is stream order. Invariant: every key is strictly greater
    /// than `delivered`, and stored ranges never overlap — overlaps are
    /// resolved at insert time.
    pending: BTreeMap<u64, Vec<u8>>,
    /// Bytes currently buffered out of order.
    buffered: usize,
    /// Buffering bound; beyond it (or beyond [`MAX_PENDING_PIECES`]),
    /// the *oldest* pending data (closest to `next_seq`) is evicted to
    /// make room — the scanner then sees a gap there, exactly as a
    /// middlebox behind a lossy tap would, while the freshest data stays
    /// buffered for gap recovery.
    capacity: usize,
    /// Conflict resolution policy.
    policy: ConflictPolicy,
    /// Tail of the delivered stream, for byte-verifying retransmissions.
    history: VecDeque<u8>,
    /// Losing copies of detected conflicts, awaiting shadow scans.
    conflict_stash: Vec<Vec<u8>>,
    /// Set once a conflict fires under [`ConflictPolicy::RejectFlow`].
    quarantined: bool,
    /// Total bytes delivered in order: the stream offset of `next_seq`.
    delivered: u64,
    /// Incoming segments discarded outright (larger than the whole
    /// buffer).
    dropped_segments: u64,
    /// Buffered bytes evicted by the capacity bound.
    evicted_bytes: u64,
    /// Buffered segments evicted by the capacity bound.
    evicted_segments: u64,
    /// Byte-level conflicts detected (one per conflicting segment).
    conflicts: u64,
    /// Bytes of losing copies across all detected conflicts.
    conflict_bytes: u64,
}

impl StreamReassembler {
    /// A reassembler expecting `initial_seq` first, buffering at most
    /// `capacity` out-of-order bytes, resolving conflicts first-copy-wins
    /// (the historical default).
    pub fn new(initial_seq: u32, capacity: usize) -> StreamReassembler {
        StreamReassembler::with_policy(initial_seq, capacity, ConflictPolicy::FirstWins)
    }

    /// A reassembler with an explicit conflict policy.
    pub fn with_policy(
        initial_seq: u32,
        capacity: usize,
        policy: ConflictPolicy,
    ) -> StreamReassembler {
        StreamReassembler {
            next_seq: initial_seq,
            pending: BTreeMap::new(),
            buffered: 0,
            capacity: capacity.max(1),
            policy,
            history: VecDeque::new(),
            conflict_stash: Vec::new(),
            quarantined: false,
            delivered: 0,
            dropped_segments: 0,
            evicted_bytes: 0,
            evicted_segments: 0,
            conflicts: 0,
            conflict_bytes: 0,
        }
    }

    /// The conflict policy in force.
    pub fn policy(&self) -> ConflictPolicy {
        self.policy
    }

    /// Bytes delivered in order so far.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Out-of-order bytes currently held.
    pub fn buffered(&self) -> usize {
        self.buffered
    }

    /// Incoming segments discarded outright (larger than the buffer).
    pub fn dropped_segments(&self) -> u64 {
        self.dropped_segments
    }

    /// Buffered bytes evicted to make room under the capacity bound.
    pub fn evicted_bytes(&self) -> u64 {
        self.evicted_bytes
    }

    /// Buffered segments evicted under the capacity bound.
    pub fn evicted_segments(&self) -> u64 {
        self.evicted_segments
    }

    /// Byte-level conflicts detected so far (same range, different bytes).
    pub fn conflicts(&self) -> u64 {
        self.conflicts
    }

    /// Total bytes of losing copies across detected conflicts.
    pub fn conflict_bytes(&self) -> u64 {
        self.conflict_bytes
    }

    /// Whether a conflict quarantined this flow
    /// ([`ConflictPolicy::RejectFlow`] only). A quarantined reassembler
    /// delivers nothing, ever again.
    pub fn quarantined(&self) -> bool {
        self.quarantined
    }

    /// Drains the losing copies of conflicts detected since the last
    /// call. The caller shadow-scans them (statelessly), so a pattern
    /// hidden entirely inside the losing interpretation is still found.
    /// Empty under [`ConflictPolicy::RejectFlow`] — the quarantine *is*
    /// the verdict there.
    pub fn take_conflict_payloads(&mut self) -> Vec<Vec<u8>> {
        std::mem::take(&mut self.conflict_stash)
    }

    /// The sequence number of the next byte the consumer will get.
    pub fn next_seq(&self) -> u32 {
        self.next_seq
    }

    /// Estimated heap bytes this reassembler holds: out-of-order
    /// buffers, the retransmission-verification history tail, and any
    /// stashed losing conflict copies. Feeds the flow arena's per-flow
    /// byte accounting (DESIGN.md §15), so it is an estimate of payload
    /// bytes plus per-segment container overhead, not an allocator
    /// census.
    pub fn heap_bytes(&self) -> u64 {
        const SEGMENT_OVERHEAD: u64 = 48; // BTreeMap node share + Vec header
        let pending = self.buffered as u64 + self.pending.len() as u64 * SEGMENT_OVERHEAD;
        let stash: u64 = self
            .conflict_stash
            .iter()
            .map(|c| c.len() as u64 + SEGMENT_OVERHEAD)
            .sum();
        pending + self.history.len() as u64 + stash
    }

    /// Feeds one segment; returns every in-order byte run that became
    /// deliverable (usually zero or one run, more when a gap fills).
    pub fn push(&mut self, seq: u32, payload: &[u8]) -> Vec<Vec<u8>> {
        let mut out = Vec::new();
        if payload.is_empty() || self.quarantined {
            return out;
        }
        let mut payload = payload;
        // The one serial-number conversion: everything below works in
        // stream offsets. A distance past 2³¹ is behind `next_seq`;
        // exactly 2³¹ counts as ahead (future data).
        let mut ahead = seq.wrapping_sub(self.next_seq);
        if ahead > 1 << 31 {
            // Retransmission: the part we already delivered is committed
            // (it has been scanned), so it is trimmed — but first
            // byte-verified against the retained history. A divergent
            // copy is a conflict; under FirstWins its payload is stashed
            // for a shadow scan, under RejectFlow it quarantines.
            let back = self.next_seq.wrapping_sub(seq) as usize;
            let skip = back.min(payload.len());
            if self.delivered_overlap_conflicts(back, &payload[..skip]) {
                self.on_conflict(payload.to_vec());
                if self.quarantined {
                    return out;
                }
            }
            payload = &payload[skip..];
            if payload.is_empty() {
                return out; // fully duplicate
            }
            ahead = 0;
        }
        if ahead > 0 {
            // Out of order: resolve overlaps against already-pending
            // ranges at insert time, so every byte is stored and
            // accounted exactly once.
            self.insert_pending(self.delivered + u64::from(ahead), payload);
            return out;
        }
        // In order — but the payload may cover ranges already buffered
        // out of order. Those pending copies arrived *first*, so a byte
        // divergence is a conflict exactly like a divergent
        // retransmission (the evasion shape: hide a pattern in a
        // buffered copy, then pave over it with an innocuous in-order
        // segment). Verify before delivering.
        if let Some(run) = self.resolve_inorder_overlaps(payload.to_vec()) {
            self.deliver(run, &mut out);
            self.drain_pending(&mut out);
        }
        out
    }

    /// Byte-compares `overlap`, whose first byte lies `back` bytes behind
    /// `next_seq` and whose every byte is behind it, against the retained
    /// delivered history. Returns `(diverges, unverifiable)`: whether any
    /// comparable byte differs, and whether any byte was older than the
    /// history horizon.
    fn history_check(&self, back: usize, overlap: &[u8]) -> (bool, bool) {
        let mut unverifiable = false;
        for (i, &b) in overlap.iter().enumerate() {
            match self.history.len().checked_sub(back - i) {
                None => unverifiable = true,
                Some(at) if self.history[at] != b => return (true, unverifiable),
                Some(_) => {}
            }
        }
        (false, unverifiable)
    }

    /// Whether the delivered-range part of a retransmission diverges from
    /// what was actually delivered. Positions older than the retained
    /// history cannot be verified: `FirstWins` gives them the benefit of
    /// the doubt, `RejectFlow` refuses to guess.
    fn delivered_overlap_conflicts(&self, back: usize, overlap: &[u8]) -> bool {
        let (diverges, unverifiable) = self.history_check(back, overlap);
        diverges || (unverifiable && self.policy == ConflictPolicy::RejectFlow)
    }

    /// Verifies an in-order payload (starting exactly at `next_seq`)
    /// against every overlapping *pending* range before delivery. The
    /// pending copies arrived first, so divergence is a conflict resolved
    /// per policy: under `FirstWins` the stored bytes are overlaid onto
    /// the payload (first copy canonical) and the arriving copy is
    /// stashed; under `RejectFlow` the flow quarantines. Returns the
    /// canonical bytes to deliver, or `None` when quarantined.
    fn resolve_inorder_overlaps(&mut self, mut payload: Vec<u8>) -> Option<Vec<u8>> {
        let (start, end) = (self.delivered, self.delivered + payload.len() as u64);
        let diverges = self.pending.range(start..end).any(|(&s, data)| {
            let at = (s - start) as usize;
            let n = data.len().min(payload.len() - at);
            data[..n] != payload[at..at + n]
        });
        if !diverges {
            // Equal overlaps (or none): the stale parts are consumed by
            // drain_pending, which re-verifies them against history.
            return Some(payload);
        }
        // The arriving copy loses: stashed under FirstWins, the
        // quarantine under RejectFlow.
        self.on_conflict(payload.clone());
        if self.quarantined {
            return None;
        }
        // The buffered (earlier) copy of each byte is canonical: overlay
        // it onto the arriving segment.
        for (&s, data) in self.pending.range(start..end) {
            let at = (s - start) as usize;
            let n = data.len().min(payload.len() - at);
            payload[at..at + n].copy_from_slice(&data[..n]);
        }
        Some(payload)
    }

    /// Records one conflict with its losing copy.
    fn on_conflict(&mut self, losing: Vec<u8>) {
        self.conflicts += 1;
        self.conflict_bytes += losing.len() as u64;
        if self.policy == ConflictPolicy::RejectFlow {
            self.quarantined = true;
            self.pending.clear();
            self.buffered = 0;
            self.conflict_stash.clear();
        } else if self.conflict_stash.len() < MAX_CONFLICT_STASH {
            self.conflict_stash.push(losing);
        }
    }

    /// Delivers one in-order run: advances `next_seq` and the stream
    /// offset, and appends the bytes to the verification history.
    fn deliver(&mut self, run: Vec<u8>, out: &mut Vec<Vec<u8>>) {
        self.next_seq = self.next_seq.wrapping_add(run.len() as u32);
        self.delivered += run.len() as u64;
        self.remember(&run);
        out.push(run);
    }

    /// Appends delivered bytes to the bounded verification history.
    fn remember(&mut self, bytes: &[u8]) {
        if bytes.len() >= CONFLICT_HISTORY {
            self.history.clear();
            self.history
                .extend(&bytes[bytes.len() - CONFLICT_HISTORY..]);
            return;
        }
        let overflow = (self.history.len() + bytes.len()).saturating_sub(CONFLICT_HISTORY);
        self.history.drain(..overflow);
        self.history.extend(bytes);
    }

    /// Inserts an out-of-order segment starting at stream offset `start`,
    /// resolving overlaps with pending data: the first copy of each byte
    /// wins, so only the parts of the new segment no pending range covers
    /// are stored, and differing overlap bytes make the arriving copy a
    /// conflict's loser.
    fn insert_pending(&mut self, start: u64, payload: &[u8]) {
        let end = start + payload.len() as u64;
        // Stored ranges are disjoint and sorted, so their ends ascend:
        // walking back from the last range that starts before `end`,
        // the overlaps are exactly those that end past `start`.
        let mut conflict = false;
        let mut covered: Vec<(u64, u64)> = Vec::new();
        for (&s, data) in self.pending.range(..end).rev() {
            let e = s + data.len() as u64;
            if e <= start {
                break;
            }
            let (lo, hi) = (s.max(start), e.min(end));
            conflict |= data[(lo - s) as usize..(hi - s) as usize]
                != payload[(lo - start) as usize..(hi - start) as usize];
            covered.push((lo, hi));
        }
        if conflict {
            self.on_conflict(payload.to_vec());
            if self.quarantined {
                return;
            }
        }
        // Store only the holes between the covered ranges, in stream
        // order.
        let mut at = start;
        for (lo, hi) in covered.into_iter().rev().chain([(end, end)]) {
            if at < lo {
                self.store_piece(at, &payload[(at - start) as usize..(lo - start) as usize]);
            }
            at = hi;
        }
    }

    /// Stores one non-overlapping pending piece at stream offset `at`,
    /// evicting the oldest pieces under the byte and piece bounds.
    fn store_piece(&mut self, at: u64, piece: &[u8]) {
        if piece.len() > self.capacity {
            // Can never fit, even with an empty buffer.
            self.dropped_segments += 1;
            return;
        }
        while self.buffered + piece.len() > self.capacity
            || self.pending.len() >= MAX_PENDING_PIECES
        {
            let (_, data) = self
                .pending
                .pop_first()
                .expect("a bound is exceeded only while pieces are pending");
            self.buffered -= data.len();
            self.evicted_bytes += data.len() as u64;
            self.evicted_segments += 1;
        }
        self.buffered += piece.len();
        self.pending.insert(at, piece.to_vec());
    }

    /// Delivers every pending piece that delivery has reached, in stream
    /// order, until the next gap.
    fn drain_pending(&mut self, out: &mut Vec<Vec<u8>>) {
        while let Some(entry) = self.pending.first_entry() {
            let start = *entry.key();
            if start > self.delivered {
                break;
            }
            let mut data = entry.remove();
            self.buffered -= data.len();
            let back = (self.delivered - start) as usize;
            let skip = back.min(data.len());
            // A stale prefix must byte-match what was actually delivered
            // (the in-order path verifies overlaps before delivery, so a
            // divergence here means some path skipped that check). Route
            // it through the conflict machinery, never discard silently.
            if skip > 0 && self.history_check(back, &data[..skip]).0 {
                self.on_conflict(data.clone());
                if self.quarantined {
                    return;
                }
            }
            data.drain(..skip);
            if !data.is_empty() {
                self.deliver(data, out);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn in_order_passthrough() {
        let mut r = StreamReassembler::new(1000, 1 << 16);
        assert_eq!(r.push(1000, b"hello "), vec![b"hello ".to_vec()]);
        assert_eq!(r.push(1006, b"world"), vec![b"world".to_vec()]);
        assert_eq!(r.delivered(), 11);
        assert_eq!(r.buffered(), 0);
    }

    #[test]
    fn out_of_order_reorders() {
        let mut r = StreamReassembler::new(0, 1 << 16);
        assert!(r.push(6, b"world").is_empty());
        assert_eq!(r.buffered(), 5);
        let runs = r.push(0, b"hello ");
        let joined: Vec<u8> = runs.concat();
        assert_eq!(joined, b"hello world");
        assert_eq!(r.buffered(), 0);
    }

    #[test]
    fn retransmission_first_copy_wins() {
        let mut r = StreamReassembler::new(0, 1 << 16);
        r.push(0, b"ORIGINAL");
        // Full retransmission with different bytes is discarded from the
        // canonical stream — but detected as a conflict, not silently.
        assert!(r.push(0, b"TAMPERED").is_empty());
        assert_eq!(r.conflicts(), 1);
        // Partial overlap: only the new tail is delivered.
        let runs = r.push(4, b"XXXX-tail");
        assert_eq!(runs.concat(), b"-tail");
        assert_eq!(r.conflicts(), 2);
    }

    #[test]
    fn identical_retransmission_is_not_a_conflict() {
        let mut r = StreamReassembler::new(0, 1 << 16);
        r.push(0, b"ORIGINAL");
        assert!(r.push(0, b"ORIGINAL").is_empty());
        assert!(r.push(2, b"IGINAL-tail").concat() == b"-tail");
        assert_eq!(r.conflicts(), 0);
        assert!(r.take_conflict_payloads().is_empty());
    }

    #[test]
    fn conflicting_retransmission_stashes_losing_copy() {
        let mut r = StreamReassembler::new(0, 1 << 16);
        r.push(0, b"benign-data");
        assert!(r.push(0, b"evil-inside").is_empty());
        assert_eq!(r.conflicts(), 1);
        assert_eq!(r.conflict_bytes(), 11);
        assert_eq!(r.take_conflict_payloads(), vec![b"evil-inside".to_vec()]);
        // Drained: a second take returns nothing.
        assert!(r.take_conflict_payloads().is_empty());
    }

    #[test]
    fn pending_overlap_conflict_first_wins_keeps_stored_bytes() {
        let mut r = StreamReassembler::new(0, 1 << 16);
        assert!(r.push(10, b"AAAA").is_empty());
        // Same pending range, different bytes: first copy stays.
        assert!(r.push(10, b"BBBB").is_empty());
        assert_eq!(r.conflicts(), 1);
        assert_eq!(r.buffered(), 4, "losing copy must not be stored");
        let runs = r.push(0, b"0123456789");
        assert_eq!(runs.concat(), b"0123456789AAAA");
        assert_eq!(r.take_conflict_payloads(), vec![b"BBBB".to_vec()]);
    }

    #[test]
    fn inorder_overlap_of_divergent_pending_first_wins_keeps_pending_copy() {
        // The review probe: a divergent copy is buffered out of order,
        // then a later in-order segment paves over its range. The pending
        // copy arrived first, so under FirstWins it is canonical — and
        // the divergence is a detected conflict, never a silent miss.
        let mut r = StreamReassembler::new(0, 1 << 16);
        assert!(r.push(10, b"EVIL").is_empty());
        let runs = r.push(0, b"0123456789goodtrailer");
        assert_eq!(runs.concat(), b"0123456789EVILtrailer");
        assert_eq!(r.conflicts(), 1);
        assert_eq!(r.buffered(), 0);
        // The losing in-order copy is stashed for the shadow scan.
        assert_eq!(
            r.take_conflict_payloads(),
            vec![b"0123456789goodtrailer".to_vec()]
        );
    }

    #[test]
    fn inorder_overlap_of_divergent_pending_reject_flow_quarantines() {
        let mut r = StreamReassembler::with_policy(0, 1 << 16, ConflictPolicy::RejectFlow);
        assert!(r.push(10, b"EVIL").is_empty());
        // The fail-closed policy must not fail open on this shape.
        assert!(r.push(0, b"0123456789goodtrailer").is_empty());
        assert!(r.quarantined());
        assert_eq!(r.conflicts(), 1);
        assert_eq!(r.delivered(), 0);
        assert_eq!(r.buffered(), 0);
        assert!(r.take_conflict_payloads().is_empty());
    }

    #[test]
    fn inorder_overlap_of_equal_pending_is_not_a_conflict() {
        for policy in [ConflictPolicy::FirstWins, ConflictPolicy::RejectFlow] {
            let mut r = StreamReassembler::with_policy(0, 1 << 16, policy);
            assert!(r.push(10, b"good").is_empty());
            let runs = r.push(0, b"0123456789goodtrailer");
            assert_eq!(runs.concat(), b"0123456789goodtrailer");
            assert_eq!(r.conflicts(), 0, "{}", policy.name());
            assert!(!r.quarantined());
            assert_eq!(r.buffered(), 0);
        }
    }

    #[test]
    fn inorder_overlap_keeps_pending_tail_beyond_payload() {
        // The pending segment extends past the in-order payload: the
        // overlapped part conflicts (stored bytes win it), the tail must
        // survive and deliver.
        let mut r = StreamReassembler::new(0, 1 << 16);
        assert!(r.push(4, b"XXtail").is_empty()); // covers 4..10
        let runs = r.push(0, b"0123ab"); // covers 0..6, 4..6 divergent
        assert_eq!(runs.concat(), b"0123XXtail");
        assert_eq!(r.conflicts(), 1);
        assert_eq!(r.buffered(), 0);
        assert_eq!(r.take_conflict_payloads(), vec![b"0123ab".to_vec()]);
    }

    #[test]
    fn reject_flow_quarantines_on_conflict() {
        let mut r = StreamReassembler::with_policy(0, 1 << 16, ConflictPolicy::RejectFlow);
        assert_eq!(r.push(0, b"hello ").concat(), b"hello ");
        assert!(!r.quarantined());
        // Divergent retransmission of delivered bytes: quarantine.
        assert!(r.push(0, b"HELLO!").is_empty());
        assert!(r.quarantined());
        assert_eq!(r.conflicts(), 1);
        // Nothing is ever delivered again, and no shadow copies leak out.
        assert!(r.push(6, b"world").is_empty());
        assert!(r.take_conflict_payloads().is_empty());
        assert_eq!(r.buffered(), 0);
    }

    #[test]
    fn reject_flow_benign_stream_is_untouched() {
        let mut r = StreamReassembler::with_policy(0, 1 << 16, ConflictPolicy::RejectFlow);
        assert!(r.push(6, b"world").is_empty());
        assert_eq!(r.push(0, b"hello ").concat(), b"hello world");
        // Identical retransmission: verified equal, no quarantine.
        assert!(r.push(0, b"hello ").is_empty());
        assert!(!r.quarantined());
        assert_eq!(r.conflicts(), 0);
    }

    #[test]
    fn reject_flow_unverifiable_overlap_fails_closed() {
        // The divergent copy targets bytes older than the retained
        // history window: FirstWins shrugs, RejectFlow must not.
        let big = vec![b'x'; CONFLICT_HISTORY + 64];
        let mut first = StreamReassembler::new(0, 1 << 20);
        first.push(0, &big);
        assert!(first.push(0, b"yyyy").is_empty());
        assert_eq!(first.conflicts(), 0, "beyond-horizon copy is unverifiable");

        let mut reject = StreamReassembler::with_policy(0, 1 << 20, ConflictPolicy::RejectFlow);
        reject.push(0, &big);
        assert!(reject.push(0, b"yyyy").is_empty());
        assert!(reject.quarantined());
    }

    #[test]
    fn multiple_gaps_fill_in_any_order() {
        let mut r = StreamReassembler::new(0, 1 << 16);
        assert!(r.push(8, b"cc").is_empty());
        assert!(r.push(4, b"bb").is_empty());
        // 0..4 arrives: delivers aaaa + bb (4..6), still gap at 6..8.
        let runs = r.push(0, b"aaaa");
        assert_eq!(runs.concat(), b"aaaabb");
        let runs = r.push(6, b"zz");
        assert_eq!(runs.concat(), b"zzcc");
        assert_eq!(r.delivered(), 10);
    }

    #[test]
    fn sequence_wraparound() {
        let start = u32::MAX - 2;
        let mut r = StreamReassembler::new(start, 1 << 16);
        // 0xFFFFFFFD + 3 wraps to 0.
        assert_eq!(r.push(start, b"abc").concat(), b"abc");
        assert_eq!(r.next_seq(), 0);
        assert_eq!(r.push(0, b"def").concat(), b"def");
        assert_eq!(r.next_seq(), 3);
    }

    #[test]
    fn capacity_bound_evicts_oldest_pending_data() {
        let mut r = StreamReassembler::new(0, 8);
        assert!(r.push(100, b"12345678").is_empty());
        // A second full-size segment evicts the first (oldest in stream
        // order), keeping the freshest data buffered.
        assert!(r.push(200, b"overflow").is_empty());
        assert_eq!(r.dropped_segments(), 0);
        assert_eq!(r.evicted_segments(), 1);
        assert_eq!(r.evicted_bytes(), 8);
        assert_eq!(r.buffered(), 8);
        assert!(r.pending.contains_key(&200));
        assert!(!r.pending.contains_key(&100));
    }

    #[test]
    fn segment_larger_than_buffer_is_dropped_outright() {
        let mut r = StreamReassembler::new(0, 4);
        assert!(r.push(10, b"12").is_empty());
        assert!(r.push(100, b"too big to ever fit").is_empty());
        assert_eq!(r.dropped_segments(), 1);
        assert_eq!(r.evicted_segments(), 0);
        // The earlier pending segment survives untouched.
        assert_eq!(r.buffered(), 2);
    }

    #[test]
    fn duplicate_out_of_order_segment_keeps_buffered_flat() {
        let mut r = StreamReassembler::new(0, 1 << 16);
        assert!(r.push(100, b"payload").is_empty());
        let baseline = r.buffered();
        for _ in 0..1000 {
            assert!(r.push(100, b"payload").is_empty());
            assert_eq!(r.buffered(), baseline, "duplicate must not leak accounting");
        }
        assert_eq!(r.dropped_segments(), 0);
        assert_eq!(r.evicted_segments(), 0);
        assert_eq!(r.conflicts(), 0);
        // The stream still completes normally once the gap fills.
        let runs = r.push(0, &[b'x'; 100]);
        assert_eq!(runs.concat().len(), 107);
        assert_eq!(r.buffered(), 0);
    }

    #[test]
    fn overlapping_pending_segment_is_trimmed_not_double_counted() {
        // Regression: an OOO segment overlapping a pending range used to
        // be buffered whole (only exact start keys were deduped), so
        // `buffered` double-counted the overlap and the capacity bound
        // evicted early.
        let mut r = StreamReassembler::new(0, 1 << 16);
        assert!(r.push(100, b"ABCDEFGH").is_empty()); // 100..108
        assert_eq!(r.buffered(), 8);
        // Overlaps 104..108 with the same bytes, extends to 112.
        assert!(r.push(104, b"EFGHijkl").is_empty());
        assert_eq!(r.buffered(), 12, "overlap bytes must be stored once");
        // A third copy spanning the whole range adds nothing.
        assert!(r.push(100, b"ABCDEFGHijkl").is_empty());
        assert_eq!(r.buffered(), 12);
        assert_eq!(r.conflicts(), 0);
        // The stream reassembles correctly once the gap fills.
        let runs = r.push(0, &[b'x'; 100]);
        assert_eq!(&runs.concat()[100..], b"ABCDEFGHijkl");
        assert_eq!(r.buffered(), 0);
    }

    #[test]
    fn overlap_trim_does_not_fire_capacity_eviction_early() {
        // With double-counting, repeatedly re-sending an overlapping
        // window blew through a capacity that the true byte span fits.
        let mut r = StreamReassembler::new(0, 16);
        for start in [4u32, 8, 12] {
            assert!(r.push(start, b"abcdabcd").is_empty());
        }
        // True span is 4..20 = 16 bytes: exactly at capacity, no
        // eviction.
        assert_eq!(r.buffered(), 16);
        assert_eq!(r.evicted_segments(), 0);
        let runs = r.push(0, b"0123");
        assert_eq!(runs.concat(), b"0123abcdabcdabcdabcd");
    }

    #[test]
    fn half_window_distance_is_future_data_in_push_and_drain() {
        // RFC 1982 leaves a distance of exactly 2³¹ undefined (both
        // comparisons false). Convention: it is *future* data. `push`
        // must buffer it (not trim it as delivered), and `drain_pending`
        // must not mis-read it as a stale segment and discard it.
        let mut r = StreamReassembler::new(0, 1 << 16);
        let far = 1u32 << 31;
        assert!(r.push(far, b"edge").is_empty());
        assert_eq!(r.buffered(), 4, "half-window segment must be buffered");
        assert_eq!(r.dropped_segments(), 0);
        // Delivering in-order data runs drain_pending; the edge segment
        // is now strictly ahead and must survive untouched.
        assert_eq!(r.push(0, b"head").concat(), b"head");
        assert_eq!(r.buffered(), 4, "drain must not discard the edge segment");
        assert_eq!(r.delivered(), 4);
    }

    #[test]
    fn just_past_half_window_is_a_stale_duplicate() {
        // One byte past the half window the segment is serially *behind*
        // next_seq: it reads as an ancient retransmission and is fully
        // trimmed (nothing buffered, nothing delivered).
        let mut r = StreamReassembler::new(0, 1 << 16);
        let behind = (1u32 << 31).wrapping_add(1);
        assert!(r.push(behind, b"old").is_empty());
        assert_eq!(r.buffered(), 0);
        assert_eq!(r.delivered(), 0);
    }

    #[test]
    fn half_window_edge_across_wraparound() {
        // Same convention exercised with next_seq near the 2³² wrap.
        let start = u32::MAX - 10;
        let mut r = StreamReassembler::new(start, 1 << 16);
        let far = start.wrapping_add(1 << 31);
        assert!(r.push(far, b"edge").is_empty());
        assert_eq!(r.buffered(), 4);
        assert_eq!(r.push(start, b"abc").concat(), b"abc");
        assert_eq!(r.buffered(), 4);
    }

    #[test]
    fn drain_uses_serial_order_across_wrap() {
        // next_seq sits just before the 2³² wrap; pending segments live on
        // both sides of it. Unsigned BTreeMap order would visit the
        // post-wrap key (small u32) first; serial order must not.
        let start = u32::MAX - 4;
        let mut r = StreamReassembler::new(start, 1 << 16);
        // Post-wrap segment (starts at 1): arrives first.
        assert!(r.push(1, b"ddd").is_empty());
        // Pre-wrap segment bridging the boundary: covers FFFFFFFD..=0.
        assert!(r.push(u32::MAX - 2, b"bbcc").is_empty());
        // The in-order head fills the gap; everything drains in stream
        // order despite straddling the wrap.
        let runs = r.push(start, b"aa");
        assert_eq!(runs.concat(), b"aabbccddd");
        assert_eq!(r.next_seq(), 4);
        assert_eq!(r.buffered(), 0);
    }

    #[test]
    fn eviction_respects_serial_age_across_wrap() {
        // Two pending segments straddle the wrap; the serially older one
        // (pre-wrap, closer to next_seq) must be the eviction victim even
        // though its u32 key is the larger number.
        let start = u32::MAX - 10;
        let mut r = StreamReassembler::new(start, 8);
        assert!(r.push(u32::MAX - 5, b"old!").is_empty()); // serially first
        assert!(r.push(3, b"new!").is_empty()); // post-wrap, serially later
        assert_eq!(r.buffered(), 8);
        assert!(r.push(7, b"new2").is_empty()); // forces eviction of one segment
        assert_eq!(r.evicted_segments(), 1);
        // Stream offsets from `start`: u32::MAX - 5 is 5, 3 is 14, 7 is 18.
        assert!(
            !r.pending.contains_key(&5),
            "serially-oldest segment must be evicted, not the post-wrap one"
        );
        assert!(r.pending.contains_key(&14));
        assert!(r.pending.contains_key(&18));
    }

    #[test]
    fn piece_bound_evicts_oldest_gapped_pieces() {
        // 10,000 gapped 1-byte pieces fit the byte capacity many times
        // over; the piece bound still holds, and every piece past it is
        // counted as evicted, oldest first.
        let mut r = StreamReassembler::new(0, 1 << 20);
        for i in 0..10_000u32 {
            assert!(r.push(2 * i + 1, b"x").is_empty());
        }
        assert_eq!(r.pending.len(), MAX_PENDING_PIECES);
        assert_eq!(r.buffered(), MAX_PENDING_PIECES);
        let evicted = 10_000 - MAX_PENDING_PIECES as u64;
        assert_eq!(r.evicted_segments(), evicted);
        assert_eq!(r.evicted_bytes(), evicted);
        assert_eq!(r.dropped_segments(), 0);
        assert_eq!(r.pending.keys().next(), Some(&(2 * evicted + 1)));
    }

    #[test]
    fn empty_segments_are_ignored() {
        let mut r = StreamReassembler::new(0, 16);
        assert!(r.push(0, b"").is_empty());
        assert_eq!(r.next_seq(), 0);
    }

    #[test]
    fn conflict_history_is_bounded() {
        let mut r = StreamReassembler::new(0, 1 << 20);
        let chunk = vec![b'a'; 1000];
        for i in 0..(2 * CONFLICT_HISTORY / 1000 + 2) {
            r.push((i * 1000) as u32, &chunk);
        }
        assert!(r.history.len() <= CONFLICT_HISTORY);
        // Recent retransmissions still verify against the tail.
        let last_start = ((2 * CONFLICT_HISTORY / 1000 + 1) * 1000) as u32;
        assert!(r.push(last_start, &vec![b'b'; 1000]).is_empty());
        assert_eq!(r.conflicts(), 1);
    }
}
