//! The bounded per-flow state arena — the instance's one flow store
//! (DESIGN.md §15).
//!
//! The paper's §4.3 pitch is that a DPI instance keeps only tiny
//! per-flow state — "the current DFA state and an offset within the
//! packet" — which is what makes consolidation and migration cheap, and
//! §5.2 keeps it in "a data structure of active flows". [`FlowArena`] is
//! that structure: one `FlowKey` lookup — one keyed hash, one probe of
//! an open-addressing index — into a slab of records holding
//! everything the instance knows about a flow (scan state, verdict,
//! reassembler, stress samples, L7 session), with
//!
//! * **two lists over the same `prev`/`next` links** — live flows in
//!   LRU order, whose tail is the eviction candidate; quarantine
//!   verdicts (a `RejectFlow` conflict or an L7 `Block`) on a list of
//!   their own, so eviction never walks past one; nothing reads a
//!   clock, so the same trace evicts the same flows at the same points
//!   on every run;
//! * **one bounded entry count** — creating an entry at capacity evicts
//!   the LRU tail; verdicts hold at most half the slots, so a verdict
//!   past that share, or a new entry when nothing but verdicts is
//!   resident, drops the oldest verdict, counted
//!   ([`ArenaEvents::quarantined_evicted`]);
//! * **per-flow byte accounting** — each entry caches its heap
//!   footprint (reassembly buffers, L7 decode buffers) and the arena
//!   keeps the running total, which the shard reports as its
//!   `flow_bytes()` (exported as `dpi_instance_flow_state_bytes`) and an
//!   optional byte budget enforces by evicting cold live flows — never
//!   the one being serviced, never a verdict.
//!
//! So an entry leaves only by the entry bound, the byte budget or
//! teardown. Losing an entry is always safe for correctness of the data
//! path: the next packet scans from the automaton root as if the flow
//! were new. The one exception is a quarantine verdict, which is why
//! verdicts leave only by teardown or forced eviction — they hold no
//! buffers, so keeping them costs one slab slot, not memory.

use crate::l7::L7Session;
use crate::reassembly::StreamReassembler;
use dpi_ac::StateId;
use dpi_packet::FlowKey;
use std::hash::{BuildHasher, RandomState};

/// Slab index niche for "no entry" in the intrusive list links, and the
/// slot of an empty index bucket.
const NIL: u32 = u32::MAX;

/// Estimated fixed cost of one tracked flow: the slab slot itself plus
/// its share of the index — at most half the buckets are full, so two
/// `(slot, hash)` buckets per flow. An estimate for the byte budget,
/// not an allocator census.
fn entry_base_bytes() -> u64 {
    (std::mem::size_of::<Slot>() + 2 * std::mem::size_of::<(u32, u32)>()) as u64
}

/// Counters the arena accumulates while servicing the hot path, drained
/// by the owning shard into telemetry and trace events (the arena knows
/// nothing about writers).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ArenaEvents {
    /// Entries dropped by the capacity bound or byte budget.
    pub flows_evicted: u64,
    /// Evictions that were forced to drop a *quarantined* entry — a
    /// forgotten fail-closed verdict, worth alarming on.
    pub quarantined_evicted: u64,
}

impl ArenaEvents {
    /// Whether nothing happened since the last drain.
    pub fn is_empty(&self) -> bool {
        *self == ArenaEvents::default()
    }
}

/// The scan state of one flow as it leaves the arena — what a lookup
/// returns and what flow migration (§4.3.1) carries between instances.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowState {
    /// DFA state at the end of the last scanned packet.
    pub state: StateId,
    /// Bytes of the flow scanned so far (`offset` in §5.2).
    pub offset: u64,
    /// Rule generation whose automaton `state` belongs to. A state id is
    /// only meaningful inside the automaton that produced it, so after a
    /// hot swap the mid-flow state of older generations must not be fed
    /// to the new automaton (DESIGN.md §9).
    pub generation: u32,
    /// The flow's sticky fail-closed verdict, set by either cause — a
    /// reassembly conflict under `ConflictPolicy::RejectFlow` (DESIGN.md
    /// §13) or an L7 `Block` policy (§14): its packets are no longer
    /// scanned and carry a fail-closed verdict mark instead.
    pub quarantined: bool,
}

/// Everything the instance knows about one flow, in one slab slot.
#[derive(Debug)]
struct FlowEntry {
    key: FlowKey,
    /// The key's keyed hash, kept so that eviction, teardown and
    /// release unlink the entry from the index without hashing again.
    hash: u32,
    /// Scan state `(dfa_state, stream_offset, generation)` — the §4.3
    /// record. `None` for flows tracked only for reassembly/stress/L7.
    scan: Option<(StateId, u64, u32)>,
    /// Sticky fail-closed verdict — a `RejectFlow` conflict or an L7
    /// `Block` (DESIGN.md §15) — and which list the entry is linked on.
    /// Survives scan-state overwrites and generation re-anchoring;
    /// cleared only by teardown or forced eviction.
    quarantined: bool,
    /// TCP reassembly state, boxed: most flows in a million-flow table
    /// are idle and must not pay the reassembler's inline size.
    reassembler: Option<Box<StreamReassembler>>,
    /// Deep-state stress samples `(deep, total)` for MCA² heavy-flow
    /// selection (§4.3.1).
    stress: (u64, u64),
    /// L7 decode session (DESIGN.md §14), boxed like the reassembler.
    l7: Option<Box<L7Session>>,
    /// Cached byte estimate for this entry (base + component heaps).
    bytes: u64,
    /// Intrusive list links: `prev` is toward most-recent, `next` toward
    /// least-recent. O(1) touch, O(1) evict, zero allocation.
    prev: u32,
    next: u32,
}

impl FlowEntry {
    /// The entry's record as lookups and migration see it: a quarantined
    /// flow without scan state reads as the zero record with the verdict
    /// set, so the verdict always travels.
    fn record(&self) -> Option<FlowState> {
        let (state, offset, generation) = match (self.scan, self.quarantined) {
            (Some(scan), _) => scan,
            (None, true) => (0, 0, 0),
            (None, false) => return None,
        };
        Some(FlowState {
            state,
            offset,
            generation,
            quarantined: self.quarantined,
        })
    }

    /// The `(state, offset)` written under `generation`. Scan state of
    /// any other generation is dropped: a state id means nothing in
    /// another automaton, so the flow re-anchors at the root (miss-only,
    /// DESIGN.md §9).
    fn scan_at(&mut self, generation: u32) -> Option<(StateId, u64)> {
        match self.scan {
            Some((state, offset, g)) if g == generation => Some((state, offset)),
            _ => {
                self.scan = None;
                None
            }
        }
    }

    /// Holds nothing — no scan state, no verdict, no buffers, no stress.
    fn is_hollow(&self) -> bool {
        self.scan.is_none()
            && !self.quarantined
            && self.reassembler.is_none()
            && self.l7.is_none()
            && self.stress == (0, 0)
    }
}

#[derive(Debug)]
struct Slot {
    entry: Option<FlowEntry>,
    next_free: u32,
}

/// Ends of one intrusive list: `head` most recently touched, `tail`
/// least.
#[derive(Debug, Clone, Copy)]
struct List {
    head: u32,
    tail: u32,
}

const EMPTY: List = List {
    head: NIL,
    tail: NIL,
};

/// The key → slab-slot index: open addressing with linear probing over
/// `(slot, hash)` buckets, a power-of-two table at most half full. Each
/// bucket keeps its flow's hash, so a probe compares hashes before it
/// reads a slab entry, growth re-places entries without hashing a key,
/// and removal needs only the hash and the slot. Removal shifts the rest
/// of the run back instead of leaving a tombstone, so no amount of churn
/// lengthens a probe.
#[derive(Debug, Default)]
struct Index {
    /// `(slot, hash)`; an empty bucket's slot is `NIL`.
    buckets: Vec<(u32, u32)>,
    len: usize,
}

impl Index {
    /// The table's size on first insert.
    const MIN_BUCKETS: usize = 16;

    /// The slot stored under `hash` for which `is_key` holds, probing
    /// from `hash`'s home bucket to the first empty one (load ≤ 1/2
    /// guarantees there is one).
    fn find(&self, hash: u32, mut is_key: impl FnMut(u32) -> bool) -> Option<u32> {
        let mask = self.buckets.len().checked_sub(1)?;
        let mut i = hash as usize & mask;
        loop {
            let (slot, h) = self.buckets[i];
            if slot == NIL {
                return None;
            }
            if h == hash && is_key(slot) {
                return Some(slot);
            }
            i = (i + 1) & mask;
        }
    }

    /// Adds `slot` under `hash`; the caller knows its key is absent. The
    /// table doubles first if this entry would fill it past half.
    fn insert(&mut self, hash: u32, slot: u32) {
        if (self.len + 1) * 2 > self.buckets.len() {
            let size = (self.buckets.len() * 2).max(Self::MIN_BUCKETS);
            let old = std::mem::replace(&mut self.buckets, vec![(NIL, 0); size]);
            for (s, h) in old.into_iter().filter(|&(s, _)| s != NIL) {
                self.place(h, s);
            }
        }
        self.place(hash, slot);
        self.len += 1;
    }

    /// Puts `(slot, hash)` in the first empty bucket from its home.
    fn place(&mut self, hash: u32, slot: u32) {
        let mask = self.buckets.len() - 1;
        let mut i = hash as usize & mask;
        while self.buckets[i].0 != NIL {
            i = (i + 1) & mask;
        }
        self.buckets[i] = (slot, hash);
    }

    /// Removes `slot`, stored under `hash`. Each later member of its run
    /// whose probe path crosses the gap moves back into it, so every
    /// remaining entry stays reachable from its home bucket.
    fn remove(&mut self, hash: u32, slot: u32) {
        let mask = self.buckets.len() - 1;
        let mut gap = hash as usize & mask;
        while self.buckets[gap].0 != slot {
            assert_ne!(self.buckets[gap].0, NIL, "slot {slot} is indexed");
            gap = (gap + 1) & mask;
        }
        let mut i = gap;
        loop {
            i = (i + 1) & mask;
            let (s, h) = self.buckets[i];
            if s == NIL {
                break;
            }
            // The member may fill the gap only if the gap is on its probe
            // path: no farther back from `i` than its home bucket.
            if i.wrapping_sub(h as usize) & mask >= i.wrapping_sub(gap) & mask {
                self.buckets[gap] = (s, h);
                gap = i;
            }
        }
        self.buckets[gap] = (NIL, 0);
        self.len -= 1;
    }
}

/// The arena. See the module docs.
#[derive(Debug)]
pub struct FlowArena {
    /// Keys the index hash per arena: flow keys are chosen by whoever
    /// sends the packets, so a fixed-key hash would let them pile every
    /// flow into one probe run.
    hasher: RandomState,
    index: Index,
    slots: Vec<Slot>,
    free_head: u32,
    /// Live (non-quarantined) flows in LRU order: the tail is the
    /// eviction candidate.
    lru: List,
    /// Quarantine verdicts, most recently touched first.
    verdicts: List,
    /// Entries on `verdicts`, bounded by [`FlowArena::max_verdicts`].
    verdict_count: usize,
    capacity: usize,
    /// Total-byte budget; `None` disables budget eviction (the total is
    /// still kept, for `flow_bytes()`).
    max_bytes: Option<u64>,
    total_bytes: u64,
    events: ArenaEvents,
}

impl FlowArena {
    /// An arena bounded to `capacity` entries (minimum 1), with the byte
    /// budget disabled.
    pub fn new(capacity: usize) -> FlowArena {
        FlowArena::with_limits(capacity, None)
    }

    /// An arena bounded to `capacity` entries and, optionally, to a
    /// total-byte budget.
    pub fn with_limits(capacity: usize, max_bytes: Option<u64>) -> FlowArena {
        FlowArena {
            hasher: RandomState::new(),
            index: Index::default(),
            slots: Vec::new(),
            free_head: NIL,
            lru: EMPTY,
            verdicts: EMPTY,
            verdict_count: 0,
            capacity: capacity.max(1),
            max_bytes: max_bytes.filter(|&b| b > 0),
            total_bytes: 0,
            events: ArenaEvents::default(),
        }
    }

    /// Tracked flows.
    pub fn len(&self) -> usize {
        self.index.len
    }

    /// Whether no flows are tracked.
    pub fn is_empty(&self) -> bool {
        self.index.len == 0
    }

    /// Estimated bytes of all per-flow state currently held — what the
    /// byte budget bounds.
    pub fn total_bytes(&self) -> u64 {
        self.total_bytes
    }

    /// Counters accumulated since the last drain (see [`ArenaEvents`]).
    pub fn take_events(&mut self) -> ArenaEvents {
        std::mem::take(&mut self.events)
    }

    /// Finds or creates `key`'s entry and touches it — the packet path's
    /// one keyed call. Creation at capacity evicts one entry. The
    /// returned handle borrows the arena, so the slot cannot move or be
    /// evicted while a scan holds it; dropping it re-syncs the byte
    /// accounting, enforces the byte budget and releases the entry if
    /// nothing was stored in it.
    pub fn open(&mut self, key: FlowKey) -> OpenFlow<'_> {
        let idx = self.ensure(key);
        OpenFlow { arena: self, idx }
    }

    /// Looks up (and touches) a flow's scan state, but only if it was
    /// written under `generation`; a mismatch drops the stale scan state
    /// (the flow re-anchors at the new automaton's root, miss-only)
    /// while leaving the entry's other components — it may also hold
    /// live reassembly/L7 state, and a quarantine verdict must never
    /// ride out on a generation swap. Never creates an entry.
    pub fn get_scan_if_generation(&mut self, key: &FlowKey, generation: u32) -> Option<FlowState> {
        let idx = self.lookup(key)?;
        self.touch(idx);
        let e = self.entry_mut(idx);
        let found = e.scan_at(generation).map(|(state, offset)| FlowState {
            state,
            offset,
            generation,
            quarantined: e.quarantined,
        });
        if found.is_none() && e.is_hollow() {
            self.remove_idx(idx);
        }
        found
    }

    /// Stores a flow's scan state tagged with the generation of the
    /// automaton that produced it. Quarantine is sticky across writes.
    pub fn put_scan_gen(&mut self, key: FlowKey, state: StateId, offset: u64, generation: u32) {
        let idx = self.ensure(key);
        self.entry_mut(idx).scan = Some((state, offset, generation));
    }

    /// Whether a flow is quarantined (a `RejectFlow` conflict or an L7
    /// `Block`). Non-mutating (no touch).
    pub fn is_quarantined(&self, key: &FlowKey) -> bool {
        self.peek(key).is_some_and(|e| e.quarantined)
    }

    /// Removes a flow entirely — connection teardown. Every per-flow
    /// component (scan state, reassembler, stress, L7 session, verdict)
    /// goes with it; returns the scan-state record if one existed.
    pub fn remove(&mut self, key: &FlowKey) -> Option<FlowState> {
        let idx = self.lookup(key)?;
        let out = self.entry(idx).record();
        self.remove_idx(idx);
        out
    }

    /// Exports a flow's full scan-state record without touching list
    /// order — the migration path (§4.3). Quarantined flows export the
    /// verdict even when they hold no scan state.
    pub fn export_scan(&self, key: &FlowKey) -> Option<FlowState> {
        self.peek(key)?.record()
    }

    /// Imports a migrated flow's record as exported — generation tag
    /// and quarantine verdict included (a quarantine already present
    /// locally is sticky; import never clears it).
    pub fn import_scan(&mut self, key: FlowKey, fs: FlowState) {
        let idx = self.ensure(key);
        self.entry_mut(idx).scan = Some((fs.state, fs.offset, fs.generation));
        if fs.quarantined {
            self.set_verdict(idx);
        }
    }

    /// Whether `flow` currently holds TCP reassembly state.
    pub fn has_reassembler(&self, key: &FlowKey) -> bool {
        self.peek(key).is_some_and(|e| e.reassembler.is_some())
    }

    /// Per-flow deep-state ratios; flows with fewer than two samples
    /// are omitted (no signal), sorted hottest first, equal ratios by
    /// key — the same operations give the same vector on every run.
    pub fn stress_ratios(&self) -> Vec<(FlowKey, f64)> {
        let mut v: Vec<(FlowKey, f64)> = self
            .slots
            .iter()
            .filter_map(|s| s.entry.as_ref())
            .filter(|e| e.stress.1 >= 2)
            .map(|e| (e.key, e.stress.0 as f64 / e.stress.1 as f64))
            .collect();
        v.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        v
    }

    /// Clears the stress window (after the controller consumed it).
    /// Entries that held nothing but stress samples are released.
    pub fn reset_stress(&mut self) {
        for idx in 0..self.slots.len() as u32 {
            let entry = self.slots[idx as usize].entry.as_mut();
            let Some(e) = entry.filter(|e| e.stress != (0, 0)) else {
                continue;
            };
            e.stress = (0, 0);
            if e.is_hollow() {
                self.remove_idx(idx);
            }
        }
    }

    /// The flow's identified L7 protocol, if it has a session.
    pub fn l7_protocol(&self, key: &FlowKey) -> Option<crate::l7::L7Protocol> {
        self.peek(key)?.l7.as_ref().map(|s| s.protocol())
    }

    // ---- internals --------------------------------------------------

    fn entry(&self, idx: u32) -> &FlowEntry {
        self.slots[idx as usize]
            .entry
            .as_ref()
            .expect("indexed and linked slots are live")
    }

    fn entry_mut(&mut self, idx: u32) -> &mut FlowEntry {
        self.slots[idx as usize]
            .entry
            .as_mut()
            .expect("indexed and linked slots are live")
    }

    fn peek(&self, key: &FlowKey) -> Option<&FlowEntry> {
        self.lookup(key).map(|idx| self.entry(idx))
    }

    /// `key`'s index hash: SipHash-1-3 under this arena's random keys,
    /// over the 5-tuple packed into one `u128` (one 16-byte write).
    fn hash(&self, key: &FlowKey) -> u32 {
        let packed = u128::from(u32::from(key.src_ip)) << 96
            | u128::from(u32::from(key.dst_ip)) << 64
            | u128::from(key.src_port) << 48
            | u128::from(key.dst_port) << 32
            | u128::from(key.protocol.to_u8());
        self.hasher.hash_one(packed) as u32
    }

    /// The slot holding `key`, whose hash is `hash`.
    fn find(&self, hash: u32, key: &FlowKey) -> Option<u32> {
        self.index.find(hash, |idx| self.entry(idx).key == *key)
    }

    /// The slot holding `key`, hashing it once.
    fn lookup(&self, key: &FlowKey) -> Option<u32> {
        self.find(self.hash(key), key)
    }

    /// Finds or creates the entry for `key`, touching it either way and
    /// enforcing the entry bound on creation. One hash serves the probe
    /// and the insert; an evicted victim unlinks by its stored hash.
    fn ensure(&mut self, key: FlowKey) -> u32 {
        let hash = self.hash(&key);
        if let Some(idx) = self.find(hash, &key) {
            self.touch(idx);
            return idx;
        }
        if self.index.len >= self.capacity {
            self.evict_one();
        }
        let entry = FlowEntry {
            key,
            hash,
            scan: None,
            quarantined: false,
            reassembler: None,
            stress: (0, 0),
            l7: None,
            bytes: entry_base_bytes(),
            prev: NIL,
            next: NIL,
        };
        self.total_bytes += entry.bytes;
        let idx = if self.free_head != NIL {
            let idx = self.free_head;
            let slot = &mut self.slots[idx as usize];
            self.free_head = std::mem::replace(&mut slot.next_free, NIL);
            slot.entry = Some(entry);
            idx
        } else {
            self.slots.push(Slot {
                entry: Some(entry),
                next_free: NIL,
            });
            (self.slots.len() - 1) as u32
        };
        self.index.insert(hash, idx);
        self.push_front(idx);
        idx
    }

    fn touch(&mut self, idx: u32) {
        if self.entry(idx).prev == NIL {
            return; // already its list's head
        }
        self.unlink(idx);
        self.push_front(idx);
    }

    fn list_mut(&mut self, verdicts: bool) -> &mut List {
        if verdicts {
            &mut self.verdicts
        } else {
            &mut self.lru
        }
    }

    /// Links `idx` at the head of the list its verdict bit names.
    fn push_front(&mut self, idx: u32) {
        let verdict = self.entry(idx).quarantined;
        let list = self.list_mut(verdict);
        let old_head = std::mem::replace(&mut list.head, idx);
        if old_head == NIL {
            list.tail = idx;
        } else {
            self.entry_mut(old_head).prev = idx;
        }
        let e = self.entry_mut(idx);
        e.prev = NIL;
        e.next = old_head;
    }

    /// Unlinks `idx` from the list its verdict bit names.
    fn unlink(&mut self, idx: u32) {
        let e = self.entry(idx);
        let (prev, next, verdict) = (e.prev, e.next, e.quarantined);
        if prev != NIL {
            self.entry_mut(prev).next = next;
        } else {
            self.list_mut(verdict).head = next;
        }
        if next != NIL {
            self.entry_mut(next).prev = prev;
        } else {
            self.list_mut(verdict).tail = prev;
        }
    }

    /// The verdict list's share of the slots: half, so live flows keep
    /// room however many flows a policy or an attacker gets closed.
    fn max_verdicts(&self) -> usize {
        (self.capacity / 2).max(1)
    }

    /// Sets the sticky verdict, moving the entry from the LRU list to
    /// the verdict list — out of reach of ordinary eviction.
    /// A verdict past the list's share drops the oldest one, counted.
    fn set_verdict(&mut self, idx: u32) {
        if self.entry(idx).quarantined {
            return;
        }
        self.unlink(idx);
        self.entry_mut(idx).quarantined = true;
        self.push_front(idx);
        self.verdict_count += 1;
        if self.verdict_count > self.max_verdicts() {
            // The new verdict is the head, so the tail is another entry.
            self.events.quarantined_evicted += 1;
            self.events.flows_evicted += 1;
            self.remove_idx(self.verdicts.tail);
        }
    }

    /// Evicts one entry to make room (the arena is at capacity, so one
    /// exists): the least-recently-used live flow, else — the arena is
    /// nothing but verdicts, which the verdict share allows only at
    /// capacity 1 — the oldest verdict, counted, because a forgotten
    /// fail-closed verdict must never be silent.
    fn evict_one(&mut self) {
        let victim = if self.lru.tail != NIL {
            self.lru.tail
        } else {
            self.events.quarantined_evicted += 1;
            self.verdicts.tail
        };
        self.events.flows_evicted += 1;
        self.remove_idx(victim);
    }

    fn remove_idx(&mut self, idx: u32) {
        self.unlink(idx);
        let slot = &mut self.slots[idx as usize];
        let entry = slot.entry.take().expect("remove live");
        self.verdict_count -= usize::from(entry.quarantined);
        slot.next_free = self.free_head;
        self.free_head = idx;
        self.total_bytes -= entry.bytes;
        self.index.remove(entry.hash, idx);
    }

    /// Closes an opened entry: re-estimates its byte footprint (its
    /// reassembler or L7 session may have been mutated in place),
    /// releases it if it holds nothing, then enforces the byte budget.
    fn settle(&mut self, idx: u32) {
        let e = self.entry_mut(idx);
        let new = entry_base_bytes()
            + e.reassembler.as_ref().map_or(0, |r| r.heap_bytes())
            + e.l7.as_ref().map_or(0, |s| s.heap_bytes());
        let old = std::mem::replace(&mut e.bytes, new);
        let hollow = e.is_hollow();
        self.total_bytes = self.total_bytes - old + new;
        if hollow {
            self.remove_idx(idx);
        }
        self.enforce_bytes();
    }

    /// Enforces the optional byte budget by evicting cold live flows
    /// (fail-open under memory pressure, like every other bound here).
    /// The LRU head is never evicted — it is the flow being serviced,
    /// whose state must not be yanked out from under its own scan — and
    /// neither is a verdict, which holds no buffers to reclaim.
    fn enforce_bytes(&mut self) {
        let Some(budget) = self.max_bytes else { return };
        while self.total_bytes > budget && self.lru.tail != self.lru.head {
            self.events.flows_evicted += 1;
            self.remove_idx(self.lru.tail);
        }
    }
}

/// One flow's entry, opened by [`FlowArena::open`] and held for as long
/// as a packet or segment is being serviced. Everything the scan path
/// reads or writes per flow goes through it, so a scan probes the index
/// once.
#[derive(Debug)]
pub struct OpenFlow<'a> {
    arena: &'a mut FlowArena,
    idx: u32,
}

impl OpenFlow<'_> {
    fn entry(&mut self) -> &mut FlowEntry {
        self.arena.entry_mut(self.idx)
    }

    /// Whether the flow carries the sticky fail-closed verdict.
    pub fn quarantined(&self) -> bool {
        self.arena.entry(self.idx).quarantined
    }

    /// Marks the flow quarantined (a reassembly conflict under
    /// `ConflictPolicy::RejectFlow`, or an L7 `Block`) and tears down its
    /// reassembly and L7 state: a quarantined flow is never scanned
    /// again, so keeping buffers for it would only store
    /// attacker-controlled bytes — and verdict entries staying tiny is
    /// what lets them outlive churn.
    pub fn quarantine(&mut self) {
        self.arena.set_verdict(self.idx);
        let e = self.entry();
        e.reassembler = None;
        e.l7 = None;
    }

    /// The flow's `(state, offset)`. A state written under another
    /// generation means nothing in this automaton, so the flow
    /// re-anchors at `root` (miss-only, DESIGN.md §9) but keeps its
    /// offset: stopping conditions still count from the flow's first
    /// byte.
    pub fn scan_state(&mut self, generation: u32, root: StateId) -> Option<(StateId, u64)> {
        let (state, offset, g) = self.entry().scan?;
        Some((if g == generation { state } else { root }, offset))
    }

    /// Stores the flow's scan state tagged with its automaton's
    /// generation. Quarantine is sticky across writes.
    pub fn set_scan_state(&mut self, state: StateId, offset: u64, generation: u32) {
        self.entry().scan = Some((state, offset, generation));
    }

    /// Adds one scan's depth samples to the flow's stress window (the
    /// MCA² heavy-flow signal).
    pub fn add_stress(&mut self, deep: u64, samples: u64) {
        let e = self.entry();
        e.stress.0 += deep;
        e.stress.1 += samples;
    }

    /// The flow's TCP reassembly state, to read, mutate in place,
    /// install or drop.
    pub fn reassembler(&mut self) -> &mut Option<Box<StreamReassembler>> {
        &mut self.entry().reassembler
    }

    /// The flow's L7 decode session, likewise.
    pub fn l7(&mut self) -> &mut Option<Box<L7Session>> {
        &mut self.entry().l7
    }
}

impl Drop for OpenFlow<'_> {
    fn drop(&mut self) {
        self.arena.settle(self.idx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpi_packet::ipv4::IpProtocol;
    use std::net::Ipv4Addr;

    fn key(n: u32) -> FlowKey {
        FlowKey {
            src_ip: Ipv4Addr::from(0x0a00_0000 | (n >> 16)),
            dst_ip: Ipv4Addr::new(10, 0, 0, 2),
            protocol: IpProtocol::Tcp,
            src_port: (n & 0xFFFF) as u16,
            dst_port: 80,
        }
    }

    /// The opened flow's reassembler, created at sequence 0 if absent.
    fn reassembler_of<'a>(
        flow: &'a mut OpenFlow<'_>,
        capacity: usize,
    ) -> &'a mut StreamReassembler {
        flow.reassembler()
            .get_or_insert_with(|| Box::new(StreamReassembler::new(0, capacity)))
    }

    #[test]
    fn scan_state_round_trip() {
        let mut a = FlowArena::new(16);
        assert!(a.export_scan(&key(1)).is_none());
        a.put_scan_gen(key(1), 42, 1000, 3);
        let fs = a.export_scan(&key(1)).unwrap();
        assert_eq!((fs.state, fs.offset, fs.generation), (42, 1000, 3));
        assert_eq!(
            a.get_scan_if_generation(&key(1), 3).map(|f| f.state),
            Some(42)
        );
        // Generation mismatch drops the scan state, flow reads fresh.
        assert!(a.get_scan_if_generation(&key(1), 4).is_none());
        assert!(a.export_scan(&key(1)).is_none());
    }

    #[test]
    fn capacity_bound_holds_with_single_entry_eviction() {
        let mut a = FlowArena::new(8);
        for i in 0..100 {
            a.put_scan_gen(key(i), i, 0, 0);
        }
        assert_eq!(a.len(), 8);
        // Most recent flows survive.
        for i in 92..100 {
            assert!(a.export_scan(&key(i)).is_some(), "flow {i} evicted");
        }
        assert_eq!(a.take_events().flows_evicted, 92);
    }

    #[test]
    fn eviction_prefers_non_quarantined() {
        let mut a = FlowArena::new(8);
        a.open(key(0)).quarantine();
        for i in 1..100 {
            a.put_scan_gen(key(i), i, 0, 0);
        }
        assert!(a.is_quarantined(&key(0)), "churn flushed a verdict");
        let ev = a.take_events();
        assert_eq!(ev.quarantined_evicted, 0);
    }

    #[test]
    fn quarantine_dominated_arena_stays_bounded_and_counts() {
        let mut a = FlowArena::new(4);
        a.put_scan_gen(key(100), 1, 0, 0);
        for i in 0..10 {
            a.open(key(i)).quarantine();
            // A live flow touched between verdicts keeps its slot:
            // verdicts never hold more than half the arena.
            assert!(a.get_scan_if_generation(&key(100), 0).is_some());
        }
        assert_eq!(a.len(), 3);
        let ev = a.take_events();
        assert_eq!((ev.quarantined_evicted, ev.flows_evicted), (8, 8));
        // The newest verdicts are the ones kept.
        assert!(a.is_quarantined(&key(9)) && a.is_quarantined(&key(8)));
        assert!(!a.is_quarantined(&key(7)));
        // At capacity 1 the one slot may hold a verdict.
        let mut one = FlowArena::new(1);
        one.open(key(1)).quarantine();
        one.open(key(2)).quarantine();
        assert!(one.is_quarantined(&key(2)) && !one.is_quarantined(&key(1)));
        assert_eq!(one.take_events().quarantined_evicted, 1);
    }

    #[test]
    fn churn_never_reaches_a_verdict_while_anything_else_is_resident() {
        // Regression: the eviction walk used to give up after 64
        // quarantined entries at the LRU tail and drop the oldest
        // verdict anyway, with a thousand forgettable flows resident.
        let capacity = 1024;
        let mut a = FlowArena::new(capacity);
        for i in 0..200 {
            a.open(key(i)).quarantine();
        }
        for i in 0..3 * capacity as u32 {
            a.put_scan_gen(key(1_000 + i), i, 0, 0);
        }
        assert_eq!(a.len(), capacity);
        for i in 0..200 {
            assert!(a.is_quarantined(&key(i)), "churn flushed verdict {i}");
        }
        let ev = a.take_events();
        assert_eq!(ev.quarantined_evicted, 0);
        assert_eq!(
            ev.flows_evicted,
            3 * capacity as u64 - (capacity as u64 - 200)
        );
    }

    #[test]
    fn byte_budget_never_takes_the_open_flow_or_a_verdict() {
        // Regression: with only verdicts colder than the flow being
        // serviced, the budget used to evict that very flow.
        let budget = 4 * 1024;
        let mut a = FlowArena::with_limits(1024, Some(budget));
        for i in 0..3 {
            a.open(key(i)).quarantine();
        }
        reassembler_of(&mut a.open(key(9)), 1 << 20).push(5_000, &[0xCC; 8 * 1024]);
        assert!(a.has_reassembler(&key(9)), "the open flow lost its state");
        let entry = entry_base_bytes() + 8 * 1024 + 64;
        assert!(a.total_bytes() > budget, "the backlog is over budget");
        assert!(a.total_bytes() <= budget + entry);
        for i in 0..3 {
            assert!(a.is_quarantined(&key(i)));
        }
        assert_eq!(a.take_events(), ArenaEvents::default());
        // A colder live flow is what the budget takes instead.
        a.put_scan_gen(key(10), 1, 0, 0);
        reassembler_of(&mut a.open(key(9)), 1 << 20).push(20_000, &[0xCC; 64]);
        assert!(a.has_reassembler(&key(9)));
        assert!(a.export_scan(&key(10)).is_none(), "the cold flow stayed");
        assert_eq!(a.take_events().flows_evicted, 1);
    }

    #[test]
    fn importing_a_verdict_moves_a_live_entry_out_of_reach() {
        let mut a = FlowArena::new(4);
        a.put_scan_gen(key(1), 7, 64, 2);
        let verdict = FlowState {
            state: 9,
            offset: 128,
            generation: 3,
            quarantined: true,
        };
        a.import_scan(key(1), verdict);
        // Churn past capacity does not take it now.
        for i in 0..40 {
            a.put_scan_gen(key(100 + i), i, 0, 0);
        }
        assert_eq!(a.export_scan(&key(1)), Some(verdict));
        assert_eq!(a.take_events().quarantined_evicted, 0);
    }

    #[test]
    fn quarantine_is_sticky_and_drops_buffers() {
        let mut a = FlowArena::new(8);
        reassembler_of(&mut a.open(key(1)), 1 << 16);
        a.open(key(1)).quarantine();
        assert!(a.is_quarantined(&key(1)));
        assert!(!a.has_reassembler(&key(1)));
        // Scan-state writes don't clear it.
        a.put_scan_gen(key(1), 9, 100, 2);
        assert!(a.is_quarantined(&key(1)));
        // Teardown forgets the verdict with the flow.
        a.remove(&key(1));
        assert!(!a.is_quarantined(&key(1)));
    }

    #[test]
    fn migration_preserves_generation_and_quarantine() {
        let mut src = FlowArena::new(8);
        src.put_scan_gen(key(1), 7, 512, 5);
        src.open(key(1)).quarantine();
        let fs = src.export_scan(&key(1)).unwrap();
        assert_eq!(
            (fs.state, fs.offset, fs.generation, fs.quarantined),
            (7, 512, 5, true)
        );

        let mut dst = FlowArena::new(8);
        dst.import_scan(key(1), fs);
        assert!(dst.is_quarantined(&key(1)));
        let got = dst.get_scan_if_generation(&key(1), 5).unwrap();
        assert_eq!((got.state, got.offset), (7, 512));
    }

    #[test]
    fn eviction_tears_down_reassembly_buffers() {
        let mut a = FlowArena::new(64);
        // Out-of-order segment: held in the buffer, counted in bytes.
        reassembler_of(&mut a.open(key(1)), 1 << 16).push(1000, &[0xAA; 512]);
        assert!(a.total_bytes() > entry_base_bytes());
        // Unrelated churn past capacity evicts the cold flow.
        for i in 0..100 {
            a.put_scan_gen(key(100 + i), i, 0, 0);
        }
        assert!(!a.has_reassembler(&key(1)));
        assert_eq!(a.take_events().flows_evicted, 37);
        // Only base-cost entries remain: the buffer's bytes left the
        // accounting with the evicted flow.
        assert_eq!(a.total_bytes(), a.len() as u64 * entry_base_bytes());
    }

    #[test]
    fn a_tracked_flow_costs_at_most_120_bytes() {
        // The slab slot (the §4.3 record, the verdict bit, the boxed
        // buffers, stress samples, byte cache, list links) plus two index
        // buckets. A field added to every flow shows here first.
        assert!(entry_base_bytes() <= 120, "{} B", entry_base_bytes());
    }

    #[test]
    fn byte_budget_evicts_cold_buffer_holders() {
        // Budget fits a couple of fat flows at most: colder buffer
        // holders must be evicted as hotter ones grow. The guarantee is
        // `budget + one entry's footprint` — the flow being serviced is
        // never yanked out from under its own scan.
        let budget = 20 * 1024;
        let mut a = FlowArena::with_limits(1024, Some(budget));
        let mut max_entry = 0u64;
        for i in 0..8 {
            // Out-of-order segment: held buffered, counted in bytes.
            reassembler_of(&mut a.open(key(i)), 1 << 20).push(5_000, &[0xBB; 8 * 1024]);
            max_entry = max_entry.max(entry_base_bytes() + 8 * 1024 + 64);
        }
        assert!(
            a.total_bytes() <= budget + max_entry,
            "budget not enforced: {} > {} + {}",
            a.total_bytes(),
            budget,
            max_entry
        );
        assert!(a.take_events().flows_evicted >= 1);
        assert!(a.len() < 8, "no cold flow was evicted");
    }

    #[test]
    fn stress_and_l7_round_trip() {
        let mut a = FlowArena::new(16);
        a.open(key(1)).add_stress(3, 4);
        a.open(key(1)).add_stress(1, 4);
        let ratios = a.stress_ratios();
        assert_eq!(ratios.len(), 1);
        assert!((ratios[0].1 - 0.5).abs() < 1e-9);
        a.reset_stress();
        assert!(a.stress_ratios().is_empty());
        // A pure-stress entry is released by the reset.
        assert_eq!(a.len(), 0);

        let s = L7Session::default();
        *a.open(key(2)).l7() = Some(Box::new(s));
        assert!(a.open(key(2)).l7().take().is_some());
        assert!(a.open(key(2)).l7().take().is_none());
    }

    #[test]
    fn equal_stress_ratios_come_out_in_key_order_on_every_arena() {
        // Regression: ties came out in the index's iteration order,
        // which a per-process random seed decides.
        let feed = |a: &mut FlowArena| {
            for i in 0..40u32 {
                let n = (i * 17) % 40;
                let deep = if n % 5 == 0 { 3 } else { 1 };
                a.open(key(n)).add_stress(deep, 4);
            }
        };
        let (mut a, mut b) = (FlowArena::new(64), FlowArena::new(64));
        feed(&mut a);
        feed(&mut b);
        let hot = (0..40).step_by(5).map(|n| (key(n), 0.75));
        let cold = (0..40).filter(|n| n % 5 != 0).map(|n| (key(n), 0.25));
        let expected: Vec<(FlowKey, f64)> = hot.chain(cold).collect();
        assert_eq!(a.stress_ratios(), expected);
        assert_eq!(b.stress_ratios(), expected);
    }

    // ---- the index, with hand-chosen hashes -------------------------

    /// The slots of buckets `range`, `None` for an empty bucket.
    fn layout(index: &Index, range: std::ops::Range<usize>) -> Vec<Option<u32>> {
        index.buckets[range]
            .iter()
            .map(|&(s, _)| (s != NIL).then_some(s))
            .collect()
    }

    /// Whether `slot` is found under `hash`.
    fn has(index: &Index, hash: u32, slot: u32) -> bool {
        index.find(hash, |s| s == slot) == Some(slot)
    }

    /// The longest stretch of full buckets, counted around the end.
    fn longest_run(index: &Index) -> usize {
        let n = index.buckets.len();
        let start = index.buckets.iter().position(|b| b.0 == NIL).unwrap_or(0);
        let (mut run, mut longest) = (0, 0);
        for k in 1..=n {
            run = if index.buckets[(start + k) % n].0 == NIL {
                0
            } else {
                run + 1
            };
            longest = longest.max(run);
        }
        longest
    }

    #[test]
    fn index_run_of_equal_hashes_probes_in_insertion_order() {
        let mut ix = Index::default();
        for slot in 0..7 {
            ix.insert(3, slot);
        }
        assert_eq!(ix.buckets.len(), Index::MIN_BUCKETS);
        let run: Vec<Option<u32>> = (0..7).map(Some).collect();
        assert_eq!(layout(&ix, 3..10), run);
        assert!((0..7).all(|slot| has(&ix, 3, slot)));
        assert!(!has(&ix, 3, 99));
        assert_eq!(longest_run(&ix), 7);
    }

    #[test]
    fn index_run_wraps_past_the_last_bucket_and_shifts_back_across_it() {
        let mut ix = Index::default();
        for (slot, hash) in [(0, 14), (1, 14), (2, 15), (3, 15)] {
            ix.insert(hash, slot);
        }
        assert_eq!(layout(&ix, 14..16), [Some(0), Some(1)]);
        assert_eq!(layout(&ix, 0..3), [Some(2), Some(3), None]);
        assert!(has(&ix, 15, 3));
        ix.remove(14, 0);
        assert_eq!(layout(&ix, 14..16), [Some(1), Some(2)]);
        assert_eq!(layout(&ix, 0..2), [Some(3), None]);
        assert!([(1, 14), (2, 15), (3, 15)]
            .iter()
            .all(|&(s, h)| has(&ix, h, s)));
        assert!(!has(&ix, 14, 0));
    }

    #[test]
    fn index_backward_shift_deletion_at_head_middle_and_tail_of_a_run() {
        // One run over buckets 5..=9, homes 5, 5, 7, 6, 9; bucket 10 empty.
        let members = [(0, 5), (1, 5), (2, 7), (3, 6), (4, 9)];
        let cases = [
            // Head: slot 1 (home 5) and slot 3 (home 6) shift back; slot
            // 2 and slot 4 sit at home and stay.
            (0, [Some(1), Some(3), Some(2), None, Some(4)]),
            // Middle: slot 3 crosses the gap at 7; slot 4 stays home.
            (2, [Some(0), Some(1), Some(3), None, Some(4)]),
            // Tail: nothing follows it.
            (4, [Some(0), Some(1), Some(2), Some(3), None]),
        ];
        for (removed, expected) in cases {
            let mut ix = Index::default();
            for (slot, hash) in members {
                ix.insert(hash, slot);
            }
            let run: Vec<Option<u32>> = (0..5).map(Some).chain([None]).collect();
            assert_eq!(layout(&ix, 5..11), run);
            ix.remove(members[removed as usize].1, removed);
            assert_eq!(layout(&ix, 5..10), expected, "removing slot {removed}");
            assert_eq!(ix.len, 4);
            for (slot, hash) in members {
                assert_eq!(has(&ix, hash, slot), slot != removed, "slot {slot}");
            }
        }
    }

    #[test]
    fn index_growth_keeps_every_entry_findable_by_its_stored_hash() {
        let mut ix = Index::default();
        // Clustered, repeated and high-bit hashes alike.
        let hash = |slot: u32| match slot % 3 {
            0 => slot % 37,
            1 => u32::MAX - slot,
            _ => slot.wrapping_mul(0x9E37_79B9),
        };
        for slot in 0..1000 {
            ix.insert(hash(slot), slot);
            assert!(ix.len * 2 <= ix.buckets.len());
        }
        assert_eq!(ix.buckets.len(), 2048);
        assert!((0..1000).all(|slot| has(&ix, hash(slot), slot)));
        for slot in (0..1000).step_by(2) {
            ix.remove(hash(slot), slot);
        }
        assert_eq!(ix.len, 500);
        assert!((0..1000).all(|slot| has(&ix, hash(slot), slot) == (slot % 2 == 1)));
    }

    #[test]
    fn index_absent_key_probe_stops_at_the_first_empty_bucket() {
        let mut ix = Index::default();
        ix.insert(3, 0);
        ix.insert(3, 1);
        // Forged past the gap at bucket 5: a probe that ran on would
        // find it.
        ix.buckets[6] = (7, 3);
        let mut compared = Vec::new();
        let found = ix.find(3, |s| {
            compared.push(s);
            s == 7
        });
        assert_eq!(found, None);
        assert_eq!(compared, [0, 1]);
        // A mismatched stored hash, or an empty home bucket, reads no
        // slab entry.
        assert_eq!(ix.find(4, |_| panic!("no stored hash is 4")), None);
        assert_eq!(ix.find(9, |_| panic!("bucket 9 is empty")), None);
    }

    #[test]
    fn colliding_flow_keys_do_not_pile_into_one_probe_run() {
        // 131,072 keys differing only in `src_ip`'s high byte and
        // `dst_port` through a 65,536-flow arena. At load 1/2 the
        // longest run of a keyed hash is about 60; a hash that keeps
        // these keys' structure, such as the identity, packs them into
        // one run tens of thousands long.
        let capacity = 1 << 16;
        let mut a = FlowArena::new(capacity);
        for n in 0..2 * capacity as u32 {
            let k = FlowKey {
                src_ip: Ipv4Addr::from((n & 0xFF) << 24 | 0x0001),
                dst_ip: Ipv4Addr::new(10, 0, 0, 2),
                protocol: IpProtocol::Tcp,
                src_port: 4000,
                dst_port: (n >> 8) as u16,
            };
            a.put_scan_gen(k, 1, 0, 0);
        }
        assert_eq!(a.len(), capacity);
        assert_eq!(a.index.buckets.len(), 2 * capacity);
        let longest = longest_run(&a.index);
        assert!(longest <= 256, "longest probe run {longest}");
    }

    #[test]
    fn total_bytes_returns_to_baseline_after_teardown() {
        let mut a = FlowArena::new(1024);
        for i in 0..100 {
            let mut flow = a.open(key(i));
            reassembler_of(&mut flow, 1 << 16).push(1000, &[0x55; 256]);
            flow.add_stress(1, 2);
            drop(flow);
            a.put_scan_gen(key(i), i, 64, 0);
        }
        assert!(a.total_bytes() > 0);
        for i in 0..100 {
            a.remove(&key(i));
        }
        assert_eq!(a.len(), 0);
        assert_eq!(a.total_bytes(), 0, "byte accounting leaked");
    }
}
