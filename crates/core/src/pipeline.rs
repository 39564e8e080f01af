//! The data plane: the DPI service instance.
//!
//! [`DpiInstance`] is the object the controller deploys, updates and
//! scales out (§4.1, §4.3): one shared immutable [`ScanEngine`] and N
//! private [`ShardState`]s. "Sequential" is N = 1, not a second type.
//!
//! §4.2 requires per-flow scan state to survive packet boundaries, which
//! makes naive packet-level parallelism wrong: two packets of one flow
//! scanned concurrently would race on the flow's DFA state. The instance
//! parallelizes the way hardware DPI appliances do — by *flow*: `route`
//! pins each flow to one shard (a stable hash of the 5-tuple), so a
//! flow's packets always meet the same state, in arrival order.
//!
//! Two kinds of entry point share that routing. *Per-call* ones
//! ([`DpiInstance::inspect`], [`DpiInstance::scan_payload`], flow
//! export/import, …) run on the caller's thread, unsupervised.
//! [`DpiInstance::inspect_batch`] runs every shard's share of a batch
//! under supervision (panic capture, restart) — on the calling
//! thread with one shard, on a scoped worker thread per shard otherwise.
//! Overload control is one controller behind both (DESIGN.md §11): every
//! packet, per call or in a batch, passes the same shed decision and CE
//! mark on its shard's slot; what differs is when the shard's detector is
//! stepped — per packet with the backlog behind it in a batch, once per
//! closed window with the window's arrivals for per-call traffic
//! ([`DpiInstance::close_window`]). Per-packet work takes **no
//! locks**; the crossbeam channels at the batch boundary are the only
//! synchronization, and their high-water mark is exported as queue-depth
//! telemetry. Output is *byte-identical* at every worker count and
//! through either kind of entry point: shard queues are FIFO per flow,
//! and result packet ids come from one counter in arrival order.

use crate::arena::FlowState;
use crate::chaos::{ShardFault, ShardFaultSpec};
use crate::config::{InstanceConfig, TenantId};
use crate::instance::{InstanceError, ScanEngine, ScanOutput, ShardState};
use crate::overload::{OverloadDetector, OverloadPolicy, OverloadTransition};
use crate::telemetry::{merge_tenant_counters, ShardTelemetry, Telemetry, TenantCounters};
use crate::trace::{TraceKind, TraceSource, Tracer};
use crate::update::UpdateError;
use crossbeam::channel;
use dpi_packet::report::ResultPacket;
use dpi_packet::{FlowKey, Packet};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Per-shard ingress queue capacity. Bounded so a slow shard applies
/// backpressure to the feeder instead of buffering a whole batch; the
/// default [`OverloadPolicy`] watermarks are fractions of this bound.
pub const SHARD_QUEUE_CAPACITY: usize = 256;

/// Everything the instance keeps per shard. The supervisor owns the slot
/// across restarts: condemning a shard replaces `state` only, so the
/// counters and the detector's hysteresis survive.
#[derive(Debug)]
struct ShardSlot {
    state: ShardState,
    /// Overload detector (queue-depth watermarks with hysteresis).
    /// `None` — the default — disables overload control
    /// entirely: no CE marks, no sheds, byte-identical output to an
    /// instance built before this subsystem existed.
    detector: Option<OverloadDetector>,
    /// What the armed detector's shed policy did since the window was
    /// last closed (a batch boundary, or [`DpiInstance::close_window`]).
    window: Window,
    /// High-water mark of the ingress queue, across batches.
    queue_peak: usize,
    /// Ingress-queue peak of the *most recent* batch. Benches read this
    /// to build a queue-depth distribution.
    last_batch_peak: usize,
    /// Packets whose inspection errored (untagged, no payload, unknown
    /// chain); errored packets produce no result.
    errors: u64,
    /// Supervisor restarts (one per worker panic).
    restarts: u64,
    /// Packets routed but never scanned (worker died first).
    lost_scans: u64,
    /// Lifetime packet ordinal (drives shard-fault triggers).
    seen: u64,
}

/// One shard's open overload window.
#[derive(Debug, Default)]
struct Window {
    /// Packets that reached the shed decision.
    arrivals: u64,
    /// Scans shed, packets and payload bytes.
    shed: (u64, u64),
    /// The same per tenant: `(tenant, packets, bytes)`.
    tenant_shed: Vec<(TenantId, u64, u64)>,
    /// Packets CE-marked.
    ce_marked: u64,
}

impl ShardSlot {
    /// The per-packet body of every entry point, per call or in a batch:
    /// the shed decision, the scan unless it shed, the CE mark.
    #[inline]
    fn inspect(
        &mut self,
        engine: &ScanEngine,
        pkt: &mut Packet,
    ) -> Result<Option<ResultPacket>, InstanceError> {
        let out = if self.shed(engine, pkt) {
            Ok(None)
        } else {
            engine.inspect_unnumbered(&mut self.state, pkt)
        };
        if let Some(d) = self.detector.as_mut().filter(|d| d.is_overloaded()) {
            // The 2-bit field cannot hold both marks, and the match mark
            // wins: the middlebox pairs only `Ect0` packets with their
            // result packet, so a CE mark there would forward the data
            // unpaired and drop its verdict. CE goes on shed and clean
            // packets only.
            if pkt.has_match_mark() {
                return out;
            }
            pkt.mark_congestion();
            d.note_ce_mark();
            self.window.ce_marked += 1;
        }
        out
    }

    /// The overload shed decision, before the scan: while past the high
    /// watermark, fail-open chains skip scanning entirely (the packet
    /// flows CE-marked); chains with a fail-closed member — and untagged
    /// packets, whose error path must stay visible — are always scanned.
    fn shed(&mut self, engine: &ScanEngine, pkt: &Packet) -> bool {
        let Some(d) = self.detector.as_mut() else {
            return false;
        };
        self.window.arrivals += 1;
        let tag = pkt.chain_tag();
        let tenant = tag.and_then(|t| engine.chain_tenant(t));
        if let Some(t) = tenant {
            self.state.note_tenant_arrival(t);
        }
        // Fairness (DESIGN.md §16): a tenant below its fair
        // arrival share is never shed — a neighbour's burst sheds the
        // neighbour's own fail-open traffic first.
        let shed = d.is_overloaded()
            && tag.is_some_and(|t| !engine.chain_fail_closed(t))
            && tenant.is_none_or(|t| self.state.tenant_at_or_over_fair_share(t));
        if shed {
            let bytes = pkt.payload().map(<[u8]>::len).unwrap_or(0) as u64;
            d.note_shed(bytes);
            self.window.shed.0 += 1;
            self.window.shed.1 += bytes;
            if let Some(t) = tenant {
                self.state.note_tenant_shed(t, bytes);
                match self.window.tenant_shed.iter_mut().find(|e| e.0 == t) {
                    Some(e) => {
                        e.1 += 1;
                        e.2 += bytes;
                    }
                    None => self.window.tenant_shed.push((t, 1, bytes)),
                }
            }
        }
        shed
    }

    /// Feeds the detector one observation — the backlog behind a batch
    /// packet, or a closed window's arrivals — and traces a transition
    /// through the shard's writer.
    fn observe(&mut self, depth: usize) -> Option<OverloadTransition> {
        let t = self.detector.as_mut()?.observe(depth)?;
        let depth = depth as u64;
        if let Some(w) = self.state.trace_writer_mut() {
            w.record(match t {
                OverloadTransition::Entered => TraceKind::OverloadEntered { depth },
                OverloadTransition::Cleared => TraceKind::OverloadCleared { depth },
            });
        }
        Some(t)
    }

    /// Closes the open window: what the shed policy did in it goes to
    /// the shard's trace writer as one aggregate per kind, and its
    /// arrivals are returned.
    fn close_window(&mut self) -> u64 {
        let mut window = std::mem::take(&mut self.window);
        if let Some(w) = self.state.trace_writer_mut() {
            let (packets, bytes) = window.shed;
            if packets > 0 {
                w.record(TraceKind::OverloadShed { packets, bytes });
            }
            if window.ce_marked > 0 {
                w.record(TraceKind::OverloadCeMarked {
                    packets: window.ce_marked,
                });
            }
            window
                .tenant_shed
                .sort_unstable_by_key(|&(tenant, _, _)| tenant);
            for &(tenant, packets, bytes) in &window.tenant_shed {
                w.record(TraceKind::TenantShed {
                    tenant: tenant.0,
                    packets,
                    bytes,
                });
            }
        }
        window.arrivals
    }
}

/// What one shard's worker did with one batch: everything the supervisor
/// reads at the batch boundary.
#[derive(Default)]
struct Tally {
    /// Results with their batch index (numbered centrally afterwards).
    results: Vec<(usize, ResultPacket)>,
    /// Packets handed to the worker.
    received: u64,
    /// Packets actually handled (scanned, shed or counted as an error).
    processed: u64,
    /// Packets whose inspection errored.
    errors: u64,
    /// Ingress-queue high-water mark this batch.
    peak: usize,
    /// The worker panicked (set by the driver that caught it).
    panicked: bool,
    /// Injected stalls that fired: `(shard-local ordinal, millis)`.
    stalls: Vec<(u64, u64)>,
}

/// One shard's worker for one batch: the per-packet body
/// ([`BatchWorker::process`]) over the shard's slot. Both drivers in
/// [`DpiInstance::inspect_batch`] keep the workers outside the code
/// that can unwind and only lend them to it, so `tally` survives a
/// worker panic and one supervision pass serves every outcome.
struct BatchWorker<'a> {
    engine: &'a ScanEngine,
    shard: usize,
    slot: &'a mut ShardSlot,
    faults: &'a [ShardFaultSpec],
    tally: Tally,
}

impl BatchWorker<'_> {
    /// The batch per-packet body: fault trigger, the slot's
    /// shed / scan / CE mark, detector observation. `depth`
    /// reads the backlog behind `pkt` on the shard's ingress queue.
    #[inline]
    fn process(&mut self, idx: usize, pkt: &mut Packet, depth: impl Fn() -> usize) {
        let ordinal = self.slot.seen + self.tally.received;
        self.tally.received += 1;
        for f in self.faults {
            if f.shard == self.shard && f.at_packet == ordinal {
                match f.fault {
                    ShardFault::Stall(ms) => {
                        std::thread::sleep(Duration::from_millis(ms));
                        self.tally.stalls.push((ordinal, ms));
                    }
                    ShardFault::Panic => {
                        panic!("chaos: injected worker panic at shard packet {ordinal}")
                    }
                }
            }
        }
        match self.slot.inspect(self.engine, pkt) {
            Ok(Some(result)) => self.tally.results.push((idx, result)),
            Ok(None) => {}
            Err(_) => self.tally.errors += 1,
        }
        if self.slot.detector.is_some() {
            self.slot.observe(depth());
        }
        self.tally.processed += 1;
    }
}

/// The shard among `shards` that owns a flow's state — the one place a
/// flow hash is taken. One shard owns everything: `flow` is then neither
/// hashed nor even evaluated. `None` is a flow-less packet or scan.
#[inline]
fn route(shards: usize, flow: impl FnOnce() -> Option<FlowKey>) -> Option<usize> {
    if shards == 1 {
        Some(0)
    } else {
        flow().map(|f| (f.stable_hash() % shards as u64) as usize)
    }
}

/// The DPI service instance: one shared [`ScanEngine`], N private worker
/// shards, flow-affine routing (see the [module docs](self)).
///
/// ```
/// use dpi_core::{DpiInstance, InstanceConfig, MiddleboxProfile, RuleSpec, ScanEngine};
/// use dpi_core::MiddleboxId;
/// use dpi_packet::packet::flow;
/// use dpi_packet::ipv4::IpProtocol;
/// use dpi_packet::{MacAddr, Packet};
/// use std::sync::Arc;
///
/// let cfg = InstanceConfig::new()
///     .with_middlebox(
///         MiddleboxProfile::stateless(MiddleboxId(1)),
///         vec![RuleSpec::exact(b"evil".to_vec())],
///     )
///     .with_chain(7, vec![MiddleboxId(1)]);
/// let engine = Arc::new(ScanEngine::new(cfg).unwrap());
/// let mut dpi = DpiInstance::with_workers(engine, 4);
/// let f = flow([10, 0, 0, 1], 1000, [10, 0, 0, 2], 80, IpProtocol::Tcp);
/// let mut pkt = Packet::tcp(MacAddr::local(1), MacAddr::local(2), f, 0, b"an evil payload".to_vec());
/// pkt.push_chain_tag(7).unwrap();
/// let mut batch = vec![pkt];
/// let results = dpi.inspect_batch(&mut batch);
/// assert_eq!(results.len(), 1);
/// assert_eq!(results[0].packet_id, 1);
/// ```
#[derive(Debug)]
pub struct DpiInstance {
    engine: Arc<ScanEngine>,
    slots: Vec<ShardSlot>,
    /// Telemetry inherited from restarted shard incarnations, so a
    /// restart never makes the merged counters go backwards.
    retired: Telemetry,
    /// Per-tenant counters inherited from retired shard incarnations
    /// (same never-backwards contract as `retired`).
    retired_tenants: Vec<(TenantId, TenantCounters)>,
    /// Scheduled shard faults (chaos); ordinals are shard-local and
    /// lifetime-absolute, so each fires at most once.
    faults: Vec<ShardFaultSpec>,
    /// Optional structured-event tracer. Batch/supervision events are
    /// recorded directly; per-packet samples and overload actions go
    /// through each shard's private writer and are absorbed when a
    /// window closes.
    tracer: Option<Arc<Tracer>>,
    /// The fleet member this is, when it is one: its events are then all
    /// attributed to [`TraceSource::Instance`].
    fleet_index: Option<u32>,
    /// Numbers results in arrival order, across every entry point.
    packet_counter: u32,
}

impl DpiInstance {
    /// Compiles `config` (§5.1's initialization) into a one-shard
    /// instance.
    pub fn new(config: InstanceConfig) -> Result<DpiInstance, InstanceError> {
        Ok(DpiInstance::from_engine(Arc::new(ScanEngine::new(config)?)))
    }

    /// A one-shard instance around an existing engine, sharing its
    /// compiled automaton (no rebuild).
    pub fn from_engine(engine: Arc<ScanEngine>) -> DpiInstance {
        DpiInstance::with_workers(engine, 1)
    }

    /// An instance with `workers` shards over an existing engine (clamped
    /// to at least one).
    pub fn with_workers(engine: Arc<ScanEngine>, workers: usize) -> DpiInstance {
        let slots = (0..workers.max(1))
            .map(|_| ShardSlot {
                state: ShardState::new(&engine),
                detector: None,
                window: Window::default(),
                queue_peak: 0,
                last_batch_peak: 0,
                errors: 0,
                restarts: 0,
                lost_scans: 0,
                seen: 0,
            })
            .collect();
        DpiInstance {
            engine,
            slots,
            retired: Telemetry::default(),
            retired_tenants: Vec::new(),
            faults: Vec::new(),
            tracer: None,
            fleet_index: None,
            packet_counter: 0,
        }
    }

    /// Arms per-shard overload control: queue-depth watermarks with
    /// hysteresis. While a shard is
    /// overloaded its forwarded packets are CE-marked, unless the scan
    /// match-marked them, and scans of fail-open chains are skipped — per
    /// call and in a batch alike.
    /// Chains with a fail-closed member are always scanned. In a batch
    /// the detector sees the queue behind each packet; per-call traffic
    /// is observed once per window, `queue_high` / `queue_low` then
    /// reading as arrivals per window ([`DpiInstance::close_window`]).
    pub fn with_overload_policy(mut self, policy: OverloadPolicy) -> DpiInstance {
        self.set_overload_policy(Some(policy));
        self
    }

    /// Setter form of [`DpiInstance::with_overload_policy`]; `None`
    /// disables overload control.
    pub fn set_overload_policy(&mut self, policy: Option<OverloadPolicy>) {
        for slot in &mut self.slots {
            slot.detector = policy.map(OverloadDetector::new);
        }
    }

    fn detectors(&self) -> impl Iterator<Item = &OverloadDetector> {
        self.slots.iter().filter_map(|s| s.detector.as_ref())
    }

    /// Per-shard `(overloaded, load_score)` pairs; empty when overload
    /// control is disabled.
    pub fn overload_state(&self) -> Vec<(bool, f64)> {
        self.detectors()
            .map(|d| (d.is_overloaded(), d.load_score()))
            .collect()
    }

    /// Attaches a structured-event tracer: batch boundaries, supervision
    /// actions (stalls, panics, restarts) and engine swaps are
    /// recorded, and each shard gets a private lock-free writer for
    /// sampled per-packet events and overload actions, absorbed whenever
    /// a window closes. `fleet_index` names the fleet member this
    /// instance is — everything it records is then attributed to
    /// [`TraceSource::Instance`]; `None` is the batch pipeline, attributed
    /// to [`TraceSource::Scanner`] and its [`TraceSource::Shard`]s.
    pub fn attach_tracer(&mut self, tracer: Arc<Tracer>, fleet_index: Option<u32>) {
        self.fleet_index = fleet_index;
        for s in 0..self.slots.len() {
            let writer = tracer.writer(self.source(Some(s)));
            self.slots[s].state.attach_trace_writer(writer);
        }
        self.tracer = Some(tracer);
    }

    /// Who an event of shard `shard` — of the supervisor for `None` — is
    /// attributed to.
    fn source(&self, shard: Option<usize>) -> TraceSource {
        match (self.fleet_index, shard) {
            (Some(i), _) => TraceSource::Instance(i),
            (None, Some(s)) => TraceSource::Shard(s as u32),
            (None, None) => TraceSource::Scanner,
        }
    }

    fn trace(&self, kind: TraceKind) {
        if let Some(t) = &self.tracer {
            t.record(self.source(None), kind);
        }
    }

    /// Schedules chaos faults against worker shards (a plan's
    /// [`crate::chaos::FaultPlan::shard_faults`]). Ordinals count each
    /// shard's batch-received packets over the instance's lifetime; the
    /// supervisor's reactions (stalls observed, panics, restarts) are
    /// traced in shard order.
    pub fn inject_shard_faults(&mut self, faults: &[ShardFaultSpec]) {
        self.faults.extend_from_slice(faults);
    }

    /// Number of worker shards.
    pub fn workers(&self) -> usize {
        self.slots.len()
    }

    /// The shared engine handle (pass it to another instance to scan
    /// the same rule set without recompiling).
    pub fn engine(&self) -> &Arc<ScanEngine> {
        &self.engine
    }

    /// The rule generation currently serving.
    pub fn generation(&self) -> u32 {
        self.engine.generation()
    }

    /// Hot-swaps the instance onto a new rule generation. Callable only
    /// between calls (`&mut self`, and `inspect_batch` joins every
    /// worker before returning), so the swap can never interleave with an
    /// in-flight scan: that join is the drain barrier, and the returned
    /// pause — shard cache sweep plus pointer exchange, *not*
    /// compilation ([`crate::update::UpdateArtifact`]) — is the entire
    /// packet-path cost of the update. Flow tables, reassembly buffers
    /// and telemetry survive; mid-flow scans re-anchor on the new
    /// automaton (miss-only, DESIGN.md §9). Refuses to move backward or
    /// sideways (`offered <= current`), counting and tracing the refusal;
    /// rollbacks go through [`DpiInstance::rollback_engine`].
    pub fn swap_engine(&mut self, engine: Arc<ScanEngine>) -> Result<Duration, UpdateError> {
        let current = self.engine.generation();
        let offered = engine.generation();
        if offered <= current {
            self.trace(TraceKind::SwapRejected {
                current_generation: current,
                offered_generation: offered,
            });
            return Err(UpdateError::StaleGeneration { current, offered });
        }
        Ok(self.adopt_engine(engine))
    }

    /// Swaps back to a previous generation (the rollback path; generation
    /// monotonicity deliberately not enforced).
    pub fn rollback_engine(&mut self, engine: Arc<ScanEngine>) -> Duration {
        self.adopt_engine(engine)
    }

    fn adopt_engine(&mut self, engine: Arc<ScanEngine>) -> Duration {
        let from_generation = self.engine.generation();
        let started = Instant::now();
        // Per-shard lazy-DFA caches index into the outgoing generation's
        // rule lists and must not survive it; generation-tagged flow
        // state re-anchors lazily and needs no sweep. Tenant fairness
        // re-seeds from the incoming engine's chain owners.
        for slot in &mut self.slots {
            slot.state.on_generation_swap();
            slot.state.refresh_tenant_state(&engine);
        }
        self.engine = engine;
        let pause = started.elapsed();
        self.trace(TraceKind::EngineSwapped {
            from_generation,
            to_generation: self.engine.generation(),
            pause_us: pause.as_micros() as u64,
            kernel: self.engine.kernel_name(),
        });
        pause
    }

    /// The shard a flow is pinned to.
    pub fn shard_of(&self, flow: &FlowKey) -> usize {
        route(self.slots.len(), || Some(*flow)).unwrap_or(0)
    }

    /// What a per-call entry point runs against: the engine and the
    /// slot of the flow's shard — shard 0 for a flow-less (hence
    /// stateless or failing) scan.
    #[inline]
    fn slot(&mut self, flow: impl FnOnce() -> Option<FlowKey>) -> (&ScanEngine, &mut ShardSlot) {
        let s = route(self.slots.len(), flow).unwrap_or(0);
        (&self.engine, &mut self.slots[s])
    }

    /// [`DpiInstance::slot`] for the entry points that only touch flow
    /// state.
    #[inline]
    fn shard(&mut self, flow: impl FnOnce() -> Option<FlowKey>) -> (&ScanEngine, &mut ShardState) {
        let (engine, slot) = self.slot(flow);
        (engine, &mut slot.state)
    }

    /// Scans a raw payload for `chain_id` (§5.2's algorithm). `flow` must
    /// be given when the chain has stateful members and the caller wants
    /// cross-packet state.
    pub fn scan_payload(
        &mut self,
        chain_id: u16,
        flow: Option<FlowKey>,
        payload: &[u8],
    ) -> Result<ScanOutput, InstanceError> {
        let (engine, state) = self.shard(|| flow);
        engine.scan_payload(state, chain_id, flow, payload)
    }

    /// Scans a packet using its chain tag, marks it via ECN when matches
    /// exist (§6.1), and returns the dedicated result packet to send right
    /// after it (§4.2 option 3, the prototype's method). With overload
    /// control armed the packet passes the shed decision and the CE mark
    /// first, like a batch packet.
    pub fn inspect(&mut self, packet: &mut Packet) -> Result<Option<ResultPacket>, InstanceError> {
        let (engine, slot) = self.slot(|| packet.flow_key());
        let result = slot.inspect(engine, packet)?;
        Ok(result.map(|result| self.number(result)))
    }

    /// Stamps `result` with the next packet id.
    fn number(&mut self, mut result: ResultPacket) -> ResultPacket {
        self.packet_counter = self.packet_counter.wrapping_add(1);
        result.packet_id = self.packet_counter;
        result
    }

    /// Declares a new TCP stream with its initial sequence number (what a
    /// SYN carries). Without this, [`DpiInstance::scan_tcp_segment`]
    /// initializes from the first segment seen — correct only when that
    /// segment is the true stream start; under reordering of the opening
    /// packets, declare the ISN explicitly.
    pub fn open_tcp_flow(&mut self, flow: FlowKey, initial_seq: u32) {
        self.shard(|| Some(flow)).1.open_tcp_flow(flow, initial_seq);
    }

    /// Feeds one TCP segment through per-flow stream reassembly, then
    /// scans every in-order byte run that becomes available. Out-of-order
    /// segments return an empty vector and are scanned when the gap
    /// fills; stateful middleboxes therefore see a *correct, in-order*
    /// byte stream even under reordering — session reconstruction as a
    /// service, done once instead of once per middlebox.
    pub fn scan_tcp_segment(
        &mut self,
        chain_id: u16,
        flow: FlowKey,
        seq: u32,
        payload: &[u8],
    ) -> Result<Vec<ScanOutput>, InstanceError> {
        let (engine, state) = self.shard(|| Some(flow));
        engine.scan_tcp_segment(state, chain_id, flow, seq, payload)
    }

    /// Whether a flow is quarantined — closed by a reassembly conflict
    /// under [`crate::reassembly::ConflictPolicy::RejectFlow`] or by an
    /// [`crate::l7::L7Action::Block`] policy.
    pub fn flow_quarantined(&self, flow: &FlowKey) -> bool {
        self.slots[self.shard_of(flow)].state.flow_quarantined(flow)
    }

    /// Tears down a flow's reassembly state (RST/FIN/timeout).
    pub fn close_tcp_flow(&mut self, flow: &FlowKey) {
        self.shard(|| Some(*flow)).1.close_tcp_flow(flow);
    }

    /// Exports a flow's **full** scan state for migration to another
    /// instance (§4.3.1), forgetting it locally. Returns `None` for
    /// untracked flows.
    pub fn export_flow(&mut self, key: &FlowKey) -> Option<FlowState> {
        self.shard(|| Some(*key)).1.export_flow(key)
    }

    /// Imports a migrated flow's scan state as exported, onto the shard
    /// that owns the flow here (worker counts need not agree across the
    /// move). The generation tag travels with the record: if it does not
    /// match this instance's serving generation the flow simply
    /// re-anchors on next access (miss-only) — it is **not** re-tagged,
    /// which would feed a foreign automaton's state id to this engine. A
    /// quarantine verdict likewise survives the move.
    pub fn import_flow(&mut self, key: FlowKey, fs: FlowState) {
        self.shard(|| Some(key)).1.import_flow(key, fs);
    }

    /// Scans a batch of packets in parallel, preserving per-flow order.
    ///
    /// Packets are routed to shards by a stable hash of their flow key;
    /// each worker scans its share against its private flow state while
    /// the feeder is still distributing the rest of the batch. Matched
    /// packets are ECN-marked in place; their [`ResultPacket`]s are
    /// returned in batch order with sequential packet ids — exactly the
    /// stream [`DpiInstance::inspect`] would produce packet by packet.
    /// Packets that fail inspection (no tag, no payload, unknown chain)
    /// are counted per shard and yield no result.
    pub fn inspect_batch(&mut self, packets: &mut [Packet]) -> Vec<ResultPacket> {
        let batch_started = Instant::now();
        self.trace(TraceKind::BatchStart {
            packets: packets.len() as u64,
        });
        let n = self.slots.len();
        let engine = &*self.engine;
        let faults = self.faults.as_slice();
        let mut workers: Vec<BatchWorker> = self
            .slots
            .iter_mut()
            .enumerate()
            .map(|(shard, slot)| BatchWorker {
                engine,
                shard,
                slot,
                faults,
                tally: Tally::default(),
            })
            .collect();
        // Packets destined for each shard, whether or not its worker
        // lived to take them.
        let mut assigned = vec![0u64; n];

        if let [worker] = workers.as_mut_slice() {
            // One shard: a feeder/worker split would send every packet
            // across a channel and a thread spawn just to land back where
            // it started, so the calling thread runs the body itself. One
            // unwind guard around the whole batch, not one per packet: a
            // per-packet `catch_unwind` walls the scan call off from the
            // optimizer, and a panic costs the shard the rest of the
            // batch either way.
            let total = packets.len();
            assigned[0] = total as u64;
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                for (idx, pkt) in packets.iter_mut().enumerate() {
                    // What the bounded ingress queue would hold behind
                    // this packet had a feeder been distributing the
                    // batch.
                    worker.process(idx, pkt, || (total - 1 - idx).min(SHARD_QUEUE_CAPACITY));
                }
                worker.tally.peak = total.saturating_sub(1).min(SHARD_QUEUE_CAPACITY);
            }));
            worker.tally.panicked = outcome.is_err();
        } else {
            let panicked: Vec<bool> = std::thread::scope(|scope| {
                let mut feeds = Vec::with_capacity(n);
                let handles: Vec<_> = workers
                    .iter_mut()
                    .map(|worker| {
                        let (tx, rx) =
                            channel::bounded::<(usize, &mut Packet)>(SHARD_QUEUE_CAPACITY);
                        feeds.push(tx);
                        scope.spawn(move || {
                            for (idx, pkt) in rx.iter() {
                                worker.process(idx, pkt, || rx.len());
                            }
                            worker.tally.peak = rx.peak_len();
                        })
                    })
                    .collect();
                for (idx, pkt) in packets.iter_mut().enumerate() {
                    // Flow-less packets fail inspection anyway; spread
                    // them deterministically.
                    let shard = route(n, || pkt.flow_key()).unwrap_or(idx % n);
                    assigned[shard] += 1;
                    // A send fails only when the worker panicked and
                    // dropped its receiver; the batch continues — that
                    // packet simply goes unscanned (fail-open) and the
                    // supervision pass counts it lost.
                    let _ = feeds[shard].send((idx, pkt));
                }
                drop(feeds);
                // A panicked worker yields Err here — captured, not
                // propagated: the supervisor restarts the shard below.
                handles.into_iter().map(|h| h.join().is_err()).collect()
            });
            for (worker, panicked) in workers.iter_mut().zip(panicked) {
                worker.tally.panicked = panicked;
            }
        }
        let mut tallies: Vec<Tally> = workers.into_iter().map(|w| w.tally).collect();

        // Supervision pass, in shard order so its trace events are
        // deterministic across runs of the same seed.
        for (s, t) in tallies.iter().enumerate() {
            let slot = &mut self.slots[s];
            slot.last_batch_peak = t.peak;
            slot.queue_peak = slot.queue_peak.max(t.peak);
            slot.errors += t.errors;
            slot.seen += t.received;
            // Everything assigned past the last handled packet went
            // unscanned: what a dead worker never took.
            let lost = assigned[s] - t.processed;
            if t.panicked {
                slot.lost_scans += lost;
            }
            for &(ordinal, ms) in &t.stalls {
                self.trace_shard(
                    s,
                    TraceKind::ShardStalled {
                        ordinal,
                        millis: ms,
                    },
                );
            }
            if t.panicked {
                self.trace_shard(s, TraceKind::WorkerPanicked { lost_scans: lost });
                self.restart_shard(s);
            }
        }

        // Batch order, then sequential ids — identical to `inspect`
        // numbering matches as it encounters them.
        let mut numbered = std::mem::take(&mut tallies[0].results);
        for t in &mut tallies[1..] {
            numbered.append(&mut t.results);
        }
        numbered.sort_unstable_by_key(|(idx, _)| *idx);

        // Batch boundary: every shard's window closes (the workers
        // stepped the detectors packet by packet) and its locally
        // buffered events fold into the global ring; then the batch span
        // closes.
        for slot in &mut self.slots {
            slot.close_window();
        }
        self.absorb_shard_traces();
        self.trace(TraceKind::BatchEnd {
            results: numbered.len() as u64,
            duration_us: batch_started.elapsed().as_micros() as u64,
        });

        numbered
            .into_iter()
            .map(|(_, result)| self.number(result))
            .collect()
    }

    /// Condemns shard `s`: its telemetry is folded into the retired
    /// accumulator (merged counters never go backwards) and a fresh
    /// [`ShardState`] is built from the shared engine — the flow-table
    /// rebuild. Mid-flow automaton state is deliberately dropped; by the
    /// stateless-deletion rule a fresh flow can only *miss* matches that
    /// straddled the restart, never fabricate one.
    fn restart_shard(&mut self, s: usize) {
        let mut state = ShardState::new(&self.engine);
        if let Some(tracer) = &self.tracer {
            state.attach_trace_writer(tracer.writer(self.source(Some(s))));
        }
        let mut condemned = std::mem::replace(&mut self.slots[s].state, state);
        self.retired.merge(&condemned.telemetry());
        merge_tenant_counters(&mut self.retired_tenants, condemned.tenant_counters());
        // The condemned incarnation's buffered trace events survive the
        // restart: absorb them before its writer is dropped.
        if let (Some(tracer), Some(mut w)) = (&self.tracer, condemned.take_trace_writer()) {
            tracer.absorb(&mut w);
        }
        self.slots[s].restarts += 1;
        self.trace_shard(
            s,
            TraceKind::ShardRestarted {
                restarts: self.slots[s].restarts,
            },
        );
    }

    /// Records a supervision event attributed to shard `s` (directly into
    /// the global ring — the supervisor runs single-threaded between
    /// batches, so there is no contention to avoid).
    fn trace_shard(&self, s: usize, kind: TraceKind) {
        if let Some(t) = &self.tracer {
            t.record(self.source(Some(s)), kind);
        }
    }

    /// Folds every shard writer's buffered events into the global ring.
    fn absorb_shard_traces(&mut self) {
        if let Some(tracer) = &self.tracer {
            for slot in &mut self.slots {
                if let Some(w) = slot.state.trace_writer_mut() {
                    tracer.absorb(w);
                }
            }
        }
    }

    /// Merged telemetry across all shards, including counters inherited
    /// from shard incarnations retired by the supervisor.
    pub fn telemetry(&self) -> Telemetry {
        let mut total = self.retired;
        for slot in &self.slots {
            total.merge(&slot.state.telemetry());
        }
        total
    }

    /// Merged per-tenant counters across all shards, sorted by tenant —
    /// including counters inherited from retired shard incarnations
    /// (DESIGN.md §16).
    pub fn tenant_telemetry(&self) -> Vec<(TenantId, TenantCounters)> {
        let mut total = self.retired_tenants.clone();
        for slot in &self.slots {
            merge_tenant_counters(&mut total, slot.state.tenant_counters());
        }
        total
    }

    /// Per-shard counters: packets, bytes, matches, ingress-queue peak
    /// depth, inspection errors, and the supervisor's restart and
    /// lost-scan counts. The scan counters cover the shard's current
    /// incarnation; the supervisor counters survive restarts.
    pub fn shard_telemetry(&self) -> Vec<ShardTelemetry> {
        self.slots
            .iter()
            .enumerate()
            .map(|(i, slot)| {
                let t = slot.state.telemetry();
                let det = slot.detector.as_ref();
                ShardTelemetry {
                    shard: i as u32,
                    packets: t.packets,
                    bytes: t.bytes,
                    matches: t.matches,
                    peak_queue_depth: slot.queue_peak as u64,
                    errors: slot.errors,
                    restarts: slot.restarts,
                    lost_scans: slot.lost_scans,
                    shed_packets: det.map(|d| d.shed_packets).unwrap_or(0),
                    shed_bytes: det.map(|d| d.shed_bytes).unwrap_or(0),
                    ce_marked: det.map(|d| d.ce_marked).unwrap_or(0),
                    reassembly_conflicts: t.reassembly_conflicts,
                    quarantined_flows: t.flows_quarantined,
                }
            })
            .collect()
    }

    /// Each shard's ingress-queue peak during the most recent batch (the
    /// lifetime peak is in [`DpiInstance::shard_telemetry`]). Benches
    /// sample this per batch to build queue-depth distributions.
    pub fn last_batch_peaks(&self) -> Vec<usize> {
        self.slots.iter().map(|s| s.last_batch_peak).collect()
    }

    /// Total scans shed by the overload policy across shards.
    pub fn total_shed(&self) -> u64 {
        self.detectors().map(|d| d.shed_packets).sum()
    }

    /// Total packets CE-marked under overload across shards.
    pub fn total_ce_marked(&self) -> u64 {
        self.detectors().map(|d| d.ce_marked).sum()
    }

    /// Total supervisor restarts across shards.
    pub fn total_restarts(&self) -> u64 {
        self.slots.iter().map(|s| s.restarts).sum()
    }

    /// Total packets lost to worker deaths across shards.
    pub fn total_lost_scans(&self) -> u64 {
        self.slots.iter().map(|s| s.lost_scans).sum()
    }

    /// Flows tracked across all shards.
    pub fn tracked_flows(&self) -> usize {
        self.slots.iter().map(|s| s.state.tracked_flows()).sum()
    }

    /// Estimated bytes of per-flow state held across all shards (see
    /// [`ShardState::flow_bytes`]).
    pub fn flow_bytes(&self) -> u64 {
        self.slots.iter().map(|s| s.state.flow_bytes()).sum()
    }

    /// Per-flow deep-state ratios observed since the last
    /// [`DpiInstance::reset_flow_stress`] — the input to heavy-flow
    /// selection (§4.3.1). Flows with fewer than two samples are omitted
    /// (no signal); the rest are sorted hottest first, equal ratios by
    /// key.
    pub fn flow_deep_ratios(&self) -> Vec<(FlowKey, f64)> {
        let mut all: Vec<(FlowKey, f64)> = self
            .slots
            .iter()
            .flat_map(|s| s.state.flow_deep_ratios())
            .collect();
        all.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        all
    }

    /// Clears the per-flow stress window (after the controller consumed
    /// it).
    pub fn reset_flow_stress(&mut self) {
        for slot in &mut self.slots {
            slot.state.reset_flow_stress();
        }
    }

    /// Closes the window per-call traffic runs in and opens the next —
    /// [`DpiInstance::inspect_batch`] does both at its own boundaries;
    /// per-call users define the cadence themselves (a fleet member's is
    /// the heartbeat round). With overload control armed each shard's
    /// detector is stepped once with the arrivals of the window just
    /// closed, which decides whether the *next* window's packets are
    /// CE-marked and shed. What the window did is traced
    /// through the shard writers, which are absorbed here; the
    /// transitions this close caused are returned with the arrivals that
    /// caused them.
    pub fn close_window(&mut self) -> Vec<(OverloadTransition, u64)> {
        let mut transitions = Vec::new();
        for slot in &mut self.slots {
            let arrivals = slot.close_window();
            if let Some(t) = slot.observe(arrivals as usize) {
                transitions.push((t, arrivals));
            }
        }
        self.absorb_shard_traces();
        transitions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MiddleboxProfile;
    use crate::rules::RuleSpec;
    use dpi_ac::MiddleboxId;
    use dpi_packet::ipv4::IpProtocol;
    use dpi_packet::packet::flow;
    use dpi_packet::MacAddr;

    fn config() -> InstanceConfig {
        InstanceConfig::new()
            .with_middlebox(
                MiddleboxProfile::stateless(MiddleboxId(1)),
                vec![
                    RuleSpec::exact(b"attack".to_vec()),
                    RuleSpec::exact(b"virus".to_vec()),
                ],
            )
            .with_chain(3, vec![MiddleboxId(1)])
    }

    fn sharded(config: InstanceConfig, workers: usize) -> DpiInstance {
        DpiInstance::with_workers(Arc::new(ScanEngine::new(config).unwrap()), workers)
    }

    fn tagged_packet(port: u16, payload: &[u8]) -> Packet {
        let f = flow([10, 0, 0, 1], port, [10, 0, 0, 2], 80, IpProtocol::Tcp);
        let mut p = Packet::tcp(MacAddr::local(1), MacAddr::local(2), f, 0, payload.to_vec());
        p.push_chain_tag(3).unwrap();
        p
    }

    #[test]
    fn batch_results_are_in_batch_order_with_sequential_ids() {
        let mut scanner = sharded(config(), 4);
        let mut batch: Vec<Packet> = (0..32)
            .map(|i| {
                let payload = if i % 2 == 0 {
                    format!("packet {i} has an attack inside")
                } else {
                    format!("packet {i} is clean")
                };
                tagged_packet(1000 + i, payload.as_bytes())
            })
            .collect();
        let results = scanner.inspect_batch(&mut batch);
        assert_eq!(results.len(), 16);
        for (k, r) in results.iter().enumerate() {
            assert_eq!(r.packet_id, k as u32 + 1);
            // Batch order: even-indexed packets matched, so source ports
            // ascend two apart.
            assert_eq!(r.flow.src_port, 1000 + 2 * k as u16);
        }
        // Ids continue across batches.
        let mut more = vec![tagged_packet(5000, b"another virus here")];
        let results = scanner.inspect_batch(&mut more);
        assert_eq!(results[0].packet_id, 17);
        assert!(more[0].has_match_mark());
    }

    #[test]
    fn per_shard_telemetry_sums_to_merged() {
        let mut scanner = sharded(config(), 3);
        let mut batch: Vec<Packet> = (0..24)
            .map(|i| tagged_packet(2000 + i, b"one virus payload"))
            .collect();
        scanner.inspect_batch(&mut batch);
        let merged = scanner.telemetry();
        assert_eq!(merged.packets, 24);
        assert_eq!(merged.packets_with_matches, 24);
        let shards = scanner.shard_telemetry();
        assert_eq!(shards.len(), 3);
        assert_eq!(shards.iter().map(|s| s.packets).sum::<u64>(), 24);
        assert_eq!(shards.iter().map(|s| s.bytes).sum::<u64>(), merged.bytes);
        // Every scanned packet passed through a shard queue.
        assert!(shards.iter().any(|s| s.peak_queue_depth > 0));
        assert!(shards.iter().all(|s| s.errors == 0));
    }

    #[test]
    fn flowless_and_untagged_packets_count_as_errors() {
        let mut scanner = sharded(config(), 2);
        // A tag for a chain this engine does not serve.
        let mut p = tagged_packet(1, b"attack");
        p.pop_chain_tag();
        p.push_chain_tag(99).unwrap();
        let mut untagged = tagged_packet(9, b"attack");
        untagged.pop_chain_tag();
        let mut batch = vec![p, untagged];
        let results = scanner.inspect_batch(&mut batch);
        assert!(results.is_empty());
        let errors: u64 = scanner.shard_telemetry().iter().map(|s| s.errors).sum();
        assert_eq!(errors, 2);
    }

    /// `n` packets of one flow (so one shard takes them all at any worker
    /// count), `step` sequence numbers apart.
    fn one_flow_batch(
        f: dpi_packet::FlowKey,
        first_seq: u32,
        step: u32,
        n: u32,
        payload: &[u8],
    ) -> Vec<Packet> {
        (0..n)
            .map(|i| {
                let mut p = Packet::tcp(
                    MacAddr::local(1),
                    MacAddr::local(2),
                    f,
                    first_seq + i * step,
                    payload.to_vec(),
                );
                p.push_chain_tag(3).unwrap();
                p
            })
            .collect()
    }

    // The panic and overload tests below run at workers 1 and 2 — the
    // calling-thread driver and the scoped-thread driver over the one
    // worker body — and expect the same counts from both.

    #[test]
    fn injected_panic_is_captured_and_shard_restarts() {
        for workers in [1, 2] {
            let mut scanner = sharded(config(), workers);
            let f = flow([10, 0, 0, 9], 777, [10, 0, 0, 2], 80, IpProtocol::Tcp);
            let shard = scanner.shard_of(&f);
            // The shard's 3rd packet panics the worker.
            scanner.inject_shard_faults(&[ShardFaultSpec {
                shard,
                at_packet: 2,
                fault: ShardFault::Panic,
            }]);
            let mut batch = one_flow_batch(f, 0, 8, 8, b"carries a virus today");
            let results = scanner.inspect_batch(&mut batch);
            // The two packets before the panic were scanned and delivered.
            assert_eq!(results.len(), 2, "workers={workers}");
            assert_eq!(results[0].packet_id, 1);
            let t = &scanner.shard_telemetry()[shard];
            assert_eq!(t.restarts, 1, "workers={workers}");
            assert_eq!(t.lost_scans, 6, "workers={workers}");
            assert_eq!(scanner.total_lost_scans(), 6);
            // The restarted shard scans the next batch normally.
            let mut more = one_flow_batch(f, 100, 8, 4, b"carries a virus today");
            let results = scanner.inspect_batch(&mut more);
            assert_eq!(results.len(), 4, "workers={workers}");
            // Merged telemetry kept the pre-restart packets via the retired
            // accumulator: 2 scanned before the panic + 4 after.
            assert_eq!(scanner.telemetry().packets, 6, "workers={workers}");
        }
    }

    #[test]
    fn chaos_plan_supervision_is_traced_deterministically() {
        use crate::trace::{TraceKind, Tracer};

        let run = || {
            let plan = crate::chaos::FaultPlan::new(11).panic_shard(0, 1);
            let mut scanner = sharded(config(), 1);
            let tracer = Arc::new(Tracer::new());
            scanner.attach_tracer(Arc::clone(&tracer), None);
            scanner.inject_shard_faults(&plan.shard_faults);
            let mut batch: Vec<Packet> = (0..5).map(|i| tagged_packet(100 + i, b"clean")).collect();
            scanner.inspect_batch(&mut batch);
            assert_eq!(tracer.dropped(), 0);
            // One shard: one deterministic order, once the wall-clock
            // batch duration is zeroed.
            tracer
                .drain()
                .into_iter()
                .map(|e| match e.kind {
                    TraceKind::BatchEnd { results, .. } => TraceKind::BatchEnd {
                        results,
                        duration_us: 0,
                    },
                    k => k,
                })
                .collect::<Vec<_>>()
        };
        let kinds = run();
        assert!(kinds.contains(&TraceKind::WorkerPanicked { lost_scans: 4 }));
        assert!(kinds.contains(&TraceKind::ShardRestarted { restarts: 1 }));
        assert_eq!(kinds, run());
    }

    #[test]
    fn hot_swap_changes_the_rule_set_at_the_batch_boundary() {
        let mut scanner = sharded(config(), 2);
        let mut batch = vec![tagged_packet(1, b"an attack and a worm")];
        let results = scanner.inspect_batch(&mut batch);
        assert_eq!(results.len(), 1);
        assert_eq!(results[0].generation, 0);

        // Generation 1 drops "attack"/"virus" and adds "worm".
        let next = InstanceConfig::new()
            .with_middlebox(
                MiddleboxProfile::stateless(MiddleboxId(1)),
                vec![RuleSpec::exact(b"worm".to_vec())],
            )
            .with_chain(3, vec![MiddleboxId(1)]);
        let engine = Arc::new(ScanEngine::with_generation(next, 1).unwrap());
        let pause = scanner.swap_engine(engine).unwrap();
        assert_eq!(scanner.generation(), 1);
        assert!(pause < Duration::from_millis(100));

        let mut batch = vec![
            tagged_packet(2, b"an attack and a worm"),
            tagged_packet(3, b"attack only"),
        ];
        let results = scanner.inspect_batch(&mut batch);
        // Removed pattern never matches after the swap; the new one does,
        // and the result is attributed to generation 1.
        assert_eq!(results.len(), 1);
        assert_eq!(results[0].generation, 1);
        assert_eq!(results[0].reports[0].records.len(), 1);
    }

    #[test]
    fn stale_generation_swap_is_rejected() {
        let one_shard = DpiInstance::from_engine(Arc::new(ScanEngine::new(config()).unwrap()));
        for mut dpi in [one_shard, sharded(config(), 1), sharded(config(), 4)] {
            let same_gen = Arc::new(ScanEngine::new(config()).unwrap());
            assert!(matches!(
                dpi.swap_engine(same_gen),
                Err(UpdateError::StaleGeneration {
                    current: 0,
                    offered: 0
                })
            ));
            assert_eq!(dpi.generation(), 0);
        }
    }

    #[test]
    fn flows_stay_pinned_to_one_shard() {
        let mut scanner = sharded(config(), 4);
        let f = flow([10, 0, 0, 9], 777, [10, 0, 0, 2], 80, IpProtocol::Tcp);
        let shard = scanner.shard_of(&f);
        let mut batch: Vec<Packet> = (0..10)
            .map(|i| {
                let mut p = Packet::tcp(
                    MacAddr::local(1),
                    MacAddr::local(2),
                    f,
                    i * 8,
                    b"harmless".to_vec(),
                );
                p.push_chain_tag(3).unwrap();
                p
            })
            .collect();
        scanner.inspect_batch(&mut batch);
        let shards = scanner.shard_telemetry();
        assert_eq!(shards[shard].packets, 10);
        assert_eq!(
            shards.iter().map(|s| s.packets).sum::<u64>(),
            10,
            "all packets of one flow must land on its shard"
        );
    }

    #[test]
    fn tracer_sees_batch_lifecycle_and_shard_samples() {
        use crate::trace::{TraceKind, TraceSource, Tracer};

        let mut scanner = sharded(config(), 2);
        let tracer = Arc::new(Tracer::new());
        scanner.attach_tracer(Arc::clone(&tracer), None);

        let mut batch: Vec<Packet> = (0..8)
            .map(|i| tagged_packet(4000 + i, b"one attack payload"))
            .collect();
        let results = scanner.inspect_batch(&mut batch);
        assert_eq!(results.len(), 8);

        let events = tracer.drain();
        let starts: Vec<_> = events
            .iter()
            .filter(|e| matches!(e.kind, TraceKind::BatchStart { packets: 8 }))
            .collect();
        assert_eq!(starts.len(), 1);
        assert_eq!(starts[0].source, TraceSource::Scanner);
        let ends: Vec<_> = events
            .iter()
            .filter(|e| matches!(e.kind, TraceKind::BatchEnd { results: 8, .. }))
            .collect();
        assert_eq!(ends.len(), 1);
        // Each shard samples its first packet (ordinal 0), and the
        // per-shard writer buffers are absorbed at the batch boundary.
        let samples: Vec<_> = events
            .iter()
            .filter(|e| matches!(e.kind, TraceKind::PacketSample { .. }))
            .collect();
        assert!(!samples.is_empty(), "first packet per shard is sampled");
        for s in &samples {
            assert!(matches!(s.source, TraceSource::Shard(_)));
        }
        // BatchStart precedes every shard sample which precedes BatchEnd
        // in the merged seq order.
        let start_seq = starts[0].seq;
        let end_seq = ends[0].seq;
        for s in &samples {
            assert!(start_seq < s.seq && s.seq < end_seq);
        }
    }

    #[test]
    fn overload_sheds_fail_open_scans_and_ce_marks() {
        use crate::overload::OverloadPolicy;
        use crate::trace::{TraceKind, Tracer};

        for workers in [1, 2] {
            // queue_high = 1: the worker enters overload as soon as it sees
            // one queued packet behind the one in hand.
            let mut scanner =
                sharded(config(), workers).with_overload_policy(OverloadPolicy::queue_only(1, 0));
            let tracer = Arc::new(Tracer::new());
            scanner.attach_tracer(Arc::clone(&tracer), None);
            let f = flow([10, 0, 0, 9], 777, [10, 0, 0, 2], 80, IpProtocol::Tcp);
            let shard = scanner.shard_of(&f);
            // Hold the worker on its first packet while the feeder queues
            // the other seven behind it (they fit the queue, so the feeder
            // never waits): the depth it then observes is 7, which is what
            // the calling-thread driver reports by construction.
            scanner.inject_shard_faults(&[ShardFaultSpec {
                shard,
                at_packet: 0,
                fault: ShardFault::Stall(100),
            }]);

            let mut batch = one_flow_batch(f, 0, 8, 8, b"attack");
            let results = scanner.inspect_batch(&mut batch);
            // Only the first packet was scanned; the rest were shed while
            // overloaded (the chain is fail-open).
            assert_eq!(results.len(), 1, "workers={workers}");
            assert_eq!(scanner.total_shed(), 7, "workers={workers}");
            // Shed packets still flow — CE-marked, unscanned.
            assert!(!batch[0].has_ce_mark(), "first packet preceded overload");
            for p in &batch[1..] {
                assert!(p.has_ce_mark(), "shed packets carry the congestion mark");
            }
            let t = &scanner.shard_telemetry()[shard];
            assert_eq!(t.shed_packets, 7, "workers={workers}");
            assert_eq!(t.shed_bytes, 7 * b"attack".len() as u64);
            assert_eq!(t.ce_marked, 7, "workers={workers}");
            // The episode is visible in the trace: entry transition plus the
            // per-batch shed/CE aggregates.
            let events = tracer.drain();
            assert!(events
                .iter()
                .any(|e| matches!(e.kind, TraceKind::OverloadEntered { .. })));
            assert!(events
                .iter()
                .any(|e| matches!(e.kind, TraceKind::OverloadShed { packets: 7, .. })));
            assert!(events
                .iter()
                .any(|e| matches!(e.kind, TraceKind::OverloadCeMarked { packets: 7 })));
            // The queue drained to zero at the end, so the detector cleared.
            assert!(scanner.overload_state().iter().all(|(over, _)| !over));
            assert!(events
                .iter()
                .any(|e| matches!(e.kind, TraceKind::OverloadCleared { .. })));
        }
    }

    #[test]
    fn a_fail_closed_chain_is_never_shed() {
        use crate::overload::OverloadPolicy;

        let cfg = InstanceConfig::new()
            .with_middlebox(
                MiddleboxProfile::stateless(MiddleboxId(1)).fail_closed(),
                vec![RuleSpec::exact(b"attack".to_vec())],
            )
            .with_chain(3, vec![MiddleboxId(1)]);
        let mut scanner = sharded(cfg, 1).with_overload_policy(OverloadPolicy::queue_only(1, 0));
        let mut batch: Vec<Packet> = (0..8).map(|i| tagged_packet(100 + i, b"attack")).collect();
        let results = scanner.inspect_batch(&mut batch);
        // Every packet was scanned despite sustained overload: the chain
        // demands verdicts, so the shed policy must not skip it. Every
        // packet matched, so every one keeps its match mark for the
        // middlebox to pair on; none is CE-marked.
        assert_eq!(results.len(), 8);
        assert_eq!(scanner.total_shed(), 0);
        assert_eq!(scanner.total_ce_marked(), 0);
        assert!(batch.iter().all(Packet::has_match_mark));
    }

    #[test]
    fn overload_below_watermark_is_inert() {
        use crate::overload::OverloadPolicy;

        let make_batch = || -> Vec<Packet> {
            (0..16)
                .map(|i| tagged_packet(3000 + i, b"an attack payload"))
                .collect()
        };
        let mut plain = sharded(config(), 2);
        let mut armed = sharded(config(), 2).with_overload_policy(OverloadPolicy::default());
        let (mut a, mut b) = (make_batch(), make_batch());
        let ra = plain.inspect_batch(&mut a);
        let rb = armed.inspect_batch(&mut b);
        // Default watermarks (queue_high = 192) are never approached by a
        // 16-packet batch: output is identical to an unarmed scanner.
        assert_eq!(ra, rb);
        assert_eq!(a, b);
        assert_eq!(armed.total_shed(), 0);
        assert_eq!(armed.total_ce_marked(), 0);
        assert!(armed.overload_state().iter().all(|(over, _)| !over));
        assert!(b.iter().all(|p| !p.has_ce_mark()));
    }

    #[test]
    fn last_batch_peaks_track_the_most_recent_batch() {
        let mut scanner = sharded(config(), 1);
        let mut big: Vec<Packet> = (0..12).map(|i| tagged_packet(100 + i, b"x")).collect();
        scanner.inspect_batch(&mut big);
        let peak_big = scanner.last_batch_peaks()[0];
        assert!(peak_big >= 1);
        let mut small = vec![tagged_packet(999, b"x")];
        scanner.inspect_batch(&mut small);
        let peak_small = scanner.last_batch_peaks()[0];
        // Lifetime peak keeps the high-water mark; the per-batch view
        // resets to the latest batch.
        assert!(peak_small <= peak_big);
        assert_eq!(
            scanner.shard_telemetry()[0].peak_queue_depth,
            peak_big as u64
        );
    }

    #[test]
    fn tracer_records_supervision_and_restart() {
        use crate::trace::{TraceKind, Tracer};

        let mut scanner = sharded(config(), 1);
        let tracer = Arc::new(Tracer::new());
        scanner.attach_tracer(Arc::clone(&tracer), None);
        scanner.inject_shard_faults(&[ShardFaultSpec {
            shard: 0,
            at_packet: 1,
            fault: ShardFault::Panic,
        }]);
        let mut batch: Vec<Packet> = (0..4).map(|i| tagged_packet(100 + i, b"clean")).collect();
        scanner.inspect_batch(&mut batch);

        let events = tracer.drain();
        assert!(events
            .iter()
            .any(|e| matches!(e.kind, TraceKind::WorkerPanicked { lost_scans: 3 })));
        assert!(events
            .iter()
            .any(|e| matches!(e.kind, TraceKind::ShardRestarted { restarts: 1 })));
    }
}
