//! Structured tracing: the observability substrate (DESIGN.md §10).
//!
//! The paper's operational claims assume the operator can *see* what the
//! DPI service is doing: §4.3.1's telemetry-driven engine selection and
//! §4.1's transfer accounting are both meaningless without an event
//! timeline to attribute them to. This module turns every interesting
//! moment in the system — a shard restarting, an instance dying, an
//! update rolling back, a result packet lost after retries — into a
//! fixed-size, timestamped [`TraceEvent`] that post-mortem tooling can
//! read back in one global order.
//!
//! Design constraints, in order:
//!
//! 1. **The hot path pays (almost) nothing.** Events are `Copy` and land
//!    in pre-allocated ring buffers; recording is a sequence-number
//!    `fetch_add`, an `Instant` read and a slot write. Per-packet scan
//!    events are *sampled* (1 in [`PACKET_SAMPLE_EVERY`]), so the scan
//!    loop's per-byte work is untouched and the per-packet overhead is a
//!    branch. `paper_claims`' DESIGN §10 row holds the traced throughput
//!    within 5 % of the untraced.
//! 2. **Workers never share a lock.** Each shard owns a private
//!    [`TraceWriter`] (inside its `ShardState`); the only shared state a
//!    record touches is the atomic sequence counter. Writers are drained
//!    into the tracer's global ring at the batch boundary — the same
//!    drain barrier the engine hot-swap uses.
//! 3. **Bounded memory, oldest dropped.** Rings overwrite their oldest
//!    events and count what they dropped ([`Tracer::dropped`]), so a
//!    chaos soak can run forever without growing.
//! 4. **One global order.** Every event carries a globally unique,
//!    monotonically assigned `seq`; [`Tracer::drain`]/[`Tracer::snapshot`]
//!    return events sorted by it, so "the kill happened before the
//!    re-steer" is a comparison of two integers, regardless of which ring
//!    the events travelled through.
//!
//! Export formats: [`to_jsonl`] renders events one-JSON-object-per-line
//! for post-mortem analysis of chaos runs; the Prometheus-style metrics
//! text lives in [`crate::metrics`] (driven by `SystemHandle::
//! metrics_text()` at the facade).

use serde::Serialize;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Per-packet scan events are recorded once every this many packets per
/// shard. Sampling keeps the hot path's tracing cost to a branch on the
/// non-sampled packets.
pub const PACKET_SAMPLE_EVERY: u64 = 64;

/// Default capacity of the tracer's global ring.
pub const DEFAULT_SINK_CAPACITY: usize = 16_384;

/// Default capacity of a per-shard writer's local ring.
pub const DEFAULT_WRITER_CAPACITY: usize = 2_048;

/// Which component emitted an event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
#[serde(rename_all = "snake_case")]
pub enum TraceSource {
    /// The sharded scan pipeline's supervisor (batch-level events).
    Scanner,
    /// One worker shard of the pipeline.
    Shard(u32),
    /// The DPI controller (health, steering, updates).
    Controller,
    /// One in-network DPI service instance: its shards' scan path and
    /// its node's result delivery.
    Instance(u32),
    /// The chaos engine (fault injections).
    Chaos,
    /// System assembly / facade-level events.
    System,
}

/// What happened. Every variant is `Copy` and carries only numeric
/// context, so events fit fixed ring slots with no per-event allocation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
#[serde(rename_all = "snake_case")]
pub enum TraceKind {
    // ---- scan path -------------------------------------------------
    /// A batch entered the sharded pipeline.
    BatchStart {
        /// Packets in the batch.
        packets: u64,
    },
    /// A batch left the pipeline (after the drain barrier).
    BatchEnd {
        /// Result packets produced.
        results: u64,
        /// Wall time spent inside `inspect_batch`.
        duration_us: u64,
    },
    /// A sampled per-packet scan observation (1 in
    /// [`PACKET_SAMPLE_EVERY`] scans per shard).
    PacketSample {
        /// Payload bytes scanned.
        bytes: u64,
        /// Matches reported.
        matches: u64,
    },
    /// A stream reassembler evicted buffered out-of-order data to make
    /// room (the capacity bound's evict-oldest policy).
    ReassemblyEvicted {
        /// Bytes evicted.
        bytes: u64,
    },
    /// The reassembler detected byte-level conflicts: overlapping copies
    /// of the same sequence range carrying different bytes (DESIGN.md
    /// §13). Resolved per the configured `ConflictPolicy`; never silent.
    ReassemblyConflict {
        /// Bytes of the losing copies across the conflicts in this batch.
        bytes: u64,
    },
    /// A reassembly conflict quarantined a flow under
    /// `ConflictPolicy::RejectFlow`: nothing further is scanned for it
    /// and its packets carry a fail-closed verdict mark.
    FlowQuarantined {
        /// Bytes the flow had delivered before quarantine.
        bytes: u64,
    },
    /// The flow arena force-evicted quarantined flows because every slot
    /// held a quarantine verdict (batch-aggregated per shard). Each one
    /// is a verdict the engine could no longer honour — counted, never
    /// silent (DESIGN.md §15).
    QuarantinedFlowEvicted {
        /// Quarantined flows dropped.
        flows: u64,
    },
    /// The L7 layer identified a flow's application protocol from its
    /// first reassembled bytes (DESIGN.md §14). An HTTP→WebSocket
    /// upgrade emits a second event for the same flow.
    L7Identified {
        /// The protocol named (possibly `Unknown` → raw fallback).
        protocol: crate::l7::L7Protocol,
    },
    /// An L7 policy action other than plain interception was applied to
    /// an identified flow.
    L7ActionApplied {
        /// The protocol the policy keyed on.
        protocol: crate::l7::L7Protocol,
        /// What the policy did.
        action: crate::l7::L7Action,
    },
    /// An L7 decoder hit malformed framing or a corrupt encoded body.
    /// Decode failures fail open — the affected bytes are scanned raw —
    /// so this event is a data-quality signal, not a coverage hole.
    L7DecodeError {
        /// The protocol being decoded.
        protocol: crate::l7::L7Protocol,
    },
    /// An L7 per-protocol inspection size limit truncated decoded
    /// output (the decompression-bomb guard reports through this).
    L7Truncated {
        /// The protocol being decoded.
        protocol: crate::l7::L7Protocol,
        /// Decoded bytes retained at the truncation point.
        bytes: u64,
    },
    /// A worker shard slept through an injected stall.
    ShardStalled {
        /// Shard-local packet ordinal that triggered the stall.
        ordinal: u64,
        /// Stall length.
        millis: u64,
    },
    /// A shard worker panicked mid-batch.
    WorkerPanicked {
        /// Packets routed to the shard but never scanned.
        lost_scans: u64,
    },
    /// The supervisor rebuilt a shard (fresh flow table).
    ShardRestarted {
        /// Lifetime restarts of this shard, after this one.
        restarts: u64,
    },
    /// The scanner adopted a new engine generation at the drain barrier.
    EngineSwapped {
        /// Generation serving before the swap.
        from_generation: u32,
        /// Generation serving after the swap.
        to_generation: u32,
        /// The drain-barrier pause.
        pause_us: u64,
        /// Scan kernel of the adopted engine ("compact", "full", "naive").
        kernel: &'static str,
    },
    /// A stale-generation swap offer was refused.
    SwapRejected {
        /// Generation currently serving.
        current_generation: u32,
        /// Generation offered.
        offered_generation: u32,
    },
    /// A shard crossed its high watermark and entered overload: forwarded
    /// packets will be CE-marked and fail-open scans may be shed until
    /// it clears.
    OverloadEntered {
        /// Queue depth behind a batch packet, or the arrivals of a closed
        /// per-call window, at entry.
        depth: u64,
    },
    /// A shard fell to its low watermark and cleared overload.
    OverloadCleared {
        /// Queue depth or window arrivals at the clearing observation.
        depth: u64,
    },
    /// Scans shed while overloaded (aggregated per shard and closed
    /// window; the packets flowed unscanned and CE-marked, fail-open).
    OverloadShed {
        /// Packets whose scan was skipped.
        packets: u64,
        /// Payload bytes those packets carried.
        bytes: u64,
    },
    /// Packets CE-marked under overload (aggregated per shard and closed
    /// window).
    OverloadCeMarked {
        /// Packets marked.
        packets: u64,
    },
    /// Fail-open scans shed under overload attributed to one tenant by
    /// the fair shed policy (aggregated per shard and closed
    /// window, DESIGN.md §16). Only tenants at or over their fair share ever
    /// appear here.
    TenantShed {
        /// The tenant whose traffic was shed.
        tenant: u16,
        /// Packets whose scan was skipped.
        packets: u64,
        /// Payload bytes those packets carried.
        bytes: u64,
    },

    // ---- controller ------------------------------------------------
    /// An instance missed enough heartbeat windows to be suspected.
    HealthSuspect {
        /// Controller-side instance id.
        instance: u32,
    },
    /// An instance was declared dead; its flows will be re-steered.
    HealthDead {
        /// Controller-side instance id.
        instance: u32,
    },
    /// A suspect or dead instance heartbeated again.
    HealthRecovered {
        /// Controller-side instance id.
        instance: u32,
    },
    /// A dead instance's ingress rules were rewritten to a survivor.
    Resteered {
        /// Fleet index of the dead instance.
        dead_instance: u32,
        /// Fleet index of the survivor now serving its flows.
        survivor: u32,
        /// Steering rules rewritten.
        rules: u64,
    },
    /// The load balancer migrated flows from a hot instance to a cold
    /// one (PRIO_STEER rewrites, anti-flap cooldown respected).
    FlowsRebalanced {
        /// Fleet index of the hot (source) instance.
        hot_instance: u32,
        /// Fleet index of the cold (target) instance.
        cold_instance: u32,
        /// Flows re-steered this round.
        flows: u64,
    },
    /// The orchestrator froze a configuration into a new generation.
    UpdatePrepared {
        /// The generation the artifact installs.
        generation: u32,
        /// Bytes shipped per instance (Fig. 11's unit).
        transfer_bytes: u64,
    },
    /// The canary swapped and passed verification.
    UpdateCanaryPassed {
        /// The generation under rollout.
        generation: u32,
        /// Controller-side id of the canary instance.
        instance: u32,
    },
    /// The whole fleet committed to a generation.
    UpdateCommitted {
        /// The committed generation.
        generation: u32,
        /// Instances now serving it.
        instances: u64,
    },
    /// A rollout failed and every updated instance was returned to the
    /// previous committed generation.
    UpdateRolledBack {
        /// The generation that failed to roll out.
        generation: u32,
        /// The generation the fleet fell back to.
        to_generation: u32,
    },

    // ---- result delivery (middlebox path) --------------------------
    /// A result packet needed retries but was delivered.
    ResultRetried {
        /// Total delivery attempts (≥ 2).
        attempts: u32,
    },
    /// A result packet was lost after exhausting every attempt
    /// (fail-closed: the verdict is gone, never guessed).
    ResultLost {
        /// Attempts made.
        attempts: u32,
    },
    /// The network duplicated a delivered result packet.
    ResultDuplicated,

    // ---- chaos fault injections ------------------------------------
    /// The fault plan killed a DPI instance.
    FaultInstanceKilled {
        /// Fleet index of the killed instance.
        instance: u32,
        /// Instance-local packet ordinal at which it died.
        at_packet: u64,
    },
    /// The fault plan corrupted a rule update in transit.
    FaultUpdateCorrupted {
        /// 0-based ordinal of the corrupted update.
        ordinal: u64,
    },
}

/// One recorded event: globally ordered (`seq`), timestamped against the
/// tracer's epoch (`t_us`), attributed to a source component.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct TraceEvent {
    /// Globally unique, monotonically assigned sequence number — the
    /// system-wide happens-before order.
    pub seq: u64,
    /// Microseconds since the tracer was created (monotonic clock).
    pub t_us: u64,
    /// Emitting component.
    pub source: TraceSource,
    /// What happened.
    pub kind: TraceKind,
}

/// A bounded overwrite-oldest event buffer.
#[derive(Debug)]
struct Ring {
    buf: Vec<TraceEvent>,
    capacity: usize,
    /// Next write position (wraps).
    next: usize,
    /// Events overwritten before being drained.
    dropped: u64,
}

impl Ring {
    fn new(capacity: usize) -> Ring {
        Ring {
            buf: Vec::with_capacity(capacity.max(1)),
            capacity: capacity.max(1),
            next: 0,
            dropped: 0,
        }
    }

    fn push(&mut self, ev: TraceEvent) {
        if self.buf.len() < self.capacity {
            self.buf.push(ev);
        } else {
            self.buf[self.next] = ev;
            self.dropped += 1;
        }
        self.next = (self.next + 1) % self.capacity;
    }

    /// All buffered events in insertion order; leaves the ring empty.
    fn drain(&mut self) -> Vec<TraceEvent> {
        let mut out = if self.buf.len() == self.capacity {
            // Oldest first: rotate so `next` (the oldest slot) leads.
            let mut v = self.buf.split_off(self.next);
            v.append(&mut self.buf);
            v
        } else {
            std::mem::take(&mut self.buf)
        };
        self.next = 0;
        out.shrink_to_fit();
        out
    }

    fn len(&self) -> usize {
        self.buf.len()
    }
}

/// The global event sink: hands out sequence numbers and per-shard
/// writers, absorbs their rings at drain barriers, and serves the merged,
/// seq-ordered timeline.
///
/// ```
/// use dpi_core::trace::{TraceKind, TraceSource, Tracer};
/// use std::sync::Arc;
///
/// let tracer = Arc::new(Tracer::new());
/// tracer.record(TraceSource::System, TraceKind::BatchStart { packets: 8 });
/// let mut w = tracer.writer(TraceSource::Shard(0));
/// w.record(TraceKind::PacketSample { bytes: 64, matches: 1 });
/// tracer.absorb(&mut w);
/// let events = tracer.drain();
/// assert_eq!(events.len(), 2);
/// assert!(events[0].seq < events[1].seq);
/// ```
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    seq: AtomicU64,
    sink: Mutex<Ring>,
    /// Drops reported by absorbed writers, folded in at absorb time.
    writer_dropped: AtomicU64,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer::new()
    }
}

impl Tracer {
    /// A tracer with the default sink capacity.
    pub fn new() -> Tracer {
        Tracer::with_capacity(DEFAULT_SINK_CAPACITY)
    }

    /// A tracer whose global ring holds `capacity` events.
    pub fn with_capacity(capacity: usize) -> Tracer {
        Tracer {
            epoch: Instant::now(),
            seq: AtomicU64::new(0),
            sink: Mutex::new(Ring::new(capacity)),
            writer_dropped: AtomicU64::new(0),
        }
    }

    fn stamp(&self, source: TraceSource, kind: TraceKind) -> TraceEvent {
        TraceEvent {
            seq: self.seq.fetch_add(1, Ordering::Relaxed),
            t_us: self.epoch.elapsed().as_micros() as u64,
            source,
            kind,
        }
    }

    /// Records one event directly into the global ring (control-plane
    /// path: takes the sink lock).
    pub fn record(&self, source: TraceSource, kind: TraceKind) {
        let ev = self.stamp(source, kind);
        self.lock().push(ev);
    }

    /// A private writer for a (typically per-shard) component: records
    /// lock-free into its own ring, to be [`Tracer::absorb`]ed at a drain
    /// barrier.
    pub fn writer(self: &Arc<Self>, source: TraceSource) -> TraceWriter {
        self.writer_with_capacity(source, DEFAULT_WRITER_CAPACITY)
    }

    /// A writer with an explicit local ring capacity.
    fn writer_with_capacity(self: &Arc<Self>, source: TraceSource, capacity: usize) -> TraceWriter {
        TraceWriter {
            tracer: Arc::clone(self),
            source,
            ring: Ring::new(capacity),
        }
    }

    /// Moves everything a writer buffered into the global ring.
    pub fn absorb(&self, writer: &mut TraceWriter) {
        let events = writer.ring.drain();
        let dropped = std::mem::take(&mut writer.ring.dropped);
        self.writer_dropped.fetch_add(dropped, Ordering::Relaxed);
        if events.is_empty() {
            return;
        }
        let mut sink = self.lock();
        for ev in events {
            sink.push(ev);
        }
    }

    /// Events recorded but overwritten before a drain (global ring plus
    /// every absorbed writer ring).
    pub fn dropped(&self) -> u64 {
        self.lock().dropped + self.writer_dropped.load(Ordering::Relaxed)
    }

    /// Events currently buffered in the global ring.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// Whether the global ring is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Takes every buffered event, sorted by `seq` — the post-mortem
    /// timeline. The ring is left empty.
    pub fn drain(&self) -> Vec<TraceEvent> {
        let mut events = self.lock().drain();
        events.sort_unstable_by_key(|e| e.seq);
        events
    }

    /// A sorted copy of the buffered events, without clearing.
    pub fn snapshot(&self) -> Vec<TraceEvent> {
        let mut events = self.lock().buf.clone();
        events.sort_unstable_by_key(|e| e.seq);
        events
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Ring> {
        self.sink.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// A per-component event writer: records into a private ring with no
/// locking (the only shared touch is the tracer's sequence counter), and
/// is drained into the global ring by [`Tracer::absorb`].
#[derive(Debug)]
pub struct TraceWriter {
    tracer: Arc<Tracer>,
    source: TraceSource,
    ring: Ring,
}

impl TraceWriter {
    /// Records one event into the local ring.
    pub fn record(&mut self, kind: TraceKind) {
        let ev = self.tracer.stamp(self.source, kind);
        self.ring.push(ev);
    }

    /// The source this writer attributes events to.
    pub fn source(&self) -> TraceSource {
        self.source
    }

    /// Events currently buffered locally.
    pub fn buffered(&self) -> usize {
        self.ring.len()
    }
}

/// Renders events as JSON Lines — one object per line, in the order
/// given — for post-mortem analysis of chaos runs.
pub fn to_jsonl(events: &[TraceEvent]) -> String {
    let mut out = String::with_capacity(events.len() * 96);
    for ev in events {
        out.push_str(&serde_json::to_string(ev).expect("trace events always serialize"));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_drain_in_global_seq_order() {
        let tracer = Arc::new(Tracer::new());
        let mut w0 = tracer.writer(TraceSource::Shard(0));
        let mut w1 = tracer.writer(TraceSource::Shard(1));
        // Interleave direct records and writer records.
        tracer.record(TraceSource::Scanner, TraceKind::BatchStart { packets: 4 });
        w0.record(TraceKind::PacketSample {
            bytes: 10,
            matches: 0,
        });
        w1.record(TraceKind::PacketSample {
            bytes: 20,
            matches: 1,
        });
        tracer.record(
            TraceSource::Scanner,
            TraceKind::BatchEnd {
                results: 1,
                duration_us: 5,
            },
        );
        tracer.absorb(&mut w1);
        tracer.absorb(&mut w0);
        let events = tracer.drain();
        assert_eq!(events.len(), 4);
        let seqs: Vec<u64> = events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2, 3]);
        assert_eq!(events[1].source, TraceSource::Shard(0));
        assert_eq!(events[2].source, TraceSource::Shard(1));
        assert!(tracer.is_empty(), "drain clears the ring");
        assert_eq!(tracer.dropped(), 0);
    }

    #[test]
    fn ring_overwrites_oldest_and_counts_drops() {
        let tracer = Arc::new(Tracer::with_capacity(4));
        for i in 0..10u64 {
            tracer.record(TraceSource::System, TraceKind::BatchStart { packets: i });
        }
        assert_eq!(tracer.len(), 4);
        assert_eq!(tracer.dropped(), 6);
        let events = tracer.drain();
        // The four newest survive, oldest-first.
        let kept: Vec<u64> = events
            .iter()
            .map(|e| match e.kind {
                TraceKind::BatchStart { packets } => packets,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(kept, vec![6, 7, 8, 9]);
    }

    #[test]
    fn writer_ring_drops_fold_into_tracer_drops() {
        let tracer = Arc::new(Tracer::new());
        let mut w = tracer.writer_with_capacity(TraceSource::Shard(0), 2);
        for i in 0..5u64 {
            w.record(TraceKind::PacketSample {
                bytes: i,
                matches: 0,
            });
        }
        assert_eq!(w.buffered(), 2);
        tracer.absorb(&mut w);
        assert_eq!(tracer.dropped(), 3);
        assert_eq!(tracer.len(), 2);
        // Absorb is idempotent on an empty writer.
        tracer.absorb(&mut w);
        assert_eq!(tracer.len(), 2);
    }

    #[test]
    fn timestamps_are_monotonic_in_seq_order() {
        let tracer = Arc::new(Tracer::new());
        for _ in 0..50 {
            tracer.record(TraceSource::Chaos, TraceKind::ResultDuplicated);
        }
        let events = tracer.drain();
        for pair in events.windows(2) {
            assert!(pair[0].seq < pair[1].seq);
            assert!(pair[0].t_us <= pair[1].t_us);
        }
    }

    #[test]
    fn jsonl_renders_one_parseable_object_per_line() {
        let tracer = Arc::new(Tracer::new());
        tracer.record(
            TraceSource::Controller,
            TraceKind::HealthDead { instance: 3 },
        );
        tracer.record(
            TraceSource::Controller,
            TraceKind::Resteered {
                dead_instance: 3,
                survivor: 1,
                rules: 7,
            },
        );
        let jsonl = to_jsonl(&tracer.snapshot());
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in &lines {
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
            assert!(line.contains("\"seq\":"));
            assert!(line.contains("\"t_us\":"));
            assert!(line.contains("\"source\":"));
            assert!(line.contains("\"kind\":"));
        }
        assert!(lines[0].contains("health_dead"));
        assert!(lines[1].contains("resteered"));
    }
}
