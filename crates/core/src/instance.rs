//! The scan (§5).
//!
//! The scan machinery is split into two halves so the data plane
//! ([`crate::pipeline::DpiInstance`]) can share one compiled engine across
//! worker threads without any locking on the per-packet path:
//!
//! * [`ScanEngine`] — everything *immutable* after construction: the
//!   combined automaton (in the narrowest table width that fits, see
//!   [`dpi_ac::CombinedAc`]), middlebox profiles, chain metadata and
//!   compiled regex rules. It is `Send + Sync` and is shared between
//!   workers behind an `Arc`.
//! * [`ShardState`] — everything *mutable* per packet, in two halves: the
//!   flow arena (scan state, TCP reassembly, stress samples, L7 sessions
//!   — one bounded store, DESIGN.md §15), of which a scan opens exactly
//!   one entry and holds it; and everything else a scan writes —
//!   telemetry, the trace writer, tenant fairness and the per-shard
//!   lazy-DFA caches for anchor-less regex rules. Each worker owns
//!   exactly one, privately.

use crate::arena::{FlowArena, FlowState, OpenFlow};
use crate::config::{InstanceConfig, MiddleboxProfile, NumberedRule, TenantId};
use crate::overload::TenantFairness;
use crate::report::compress_matches;
use crate::rules::RuleKind;
use crate::telemetry::{Telemetry, TenantCounters};
use dpi_ac::trie::TrieError;
use dpi_ac::{
    Automaton, CombinedAc, CombinedAcBuilder, DepthSamples, MiddleboxId, PatternId, ScanKernel,
};
use dpi_packet::report::{MiddleboxReport, ResultPacket};
use dpi_packet::{FlowKey, Packet};
use dpi_regex::{Regex, RegexError};
use std::collections::HashMap;
use std::sync::Arc;

/// Errors from instance construction or packet inspection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InstanceError {
    /// A policy chain references a middlebox with no registered profile.
    UnknownMiddlebox {
        /// The offending chain.
        chain_id: u16,
        /// The unregistered middlebox.
        middlebox: MiddleboxId,
    },
    /// A packet arrived with a chain tag the instance does not serve.
    UnknownChain(u16),
    /// A packet without an IPv4 payload was handed to the scanner.
    NoPayload,
    /// A scan input longer than [`ScanEngine::MAX_UNIT_BYTES`]: match
    /// positions are 16-bit on the wire (§6.5), so a longer unit's
    /// positions could not be reported. Nothing was scanned.
    OversizedPayload {
        /// The rejected input's length.
        len: usize,
    },
    /// A data packet reached the instance without a policy-chain tag
    /// (the TSA failed to tag it, §4.1).
    Untagged,
    /// A registered regex failed to compile.
    BadRegex {
        /// The middlebox that registered it.
        middlebox: MiddleboxId,
        /// Rule index within the middlebox's list.
        rule: u16,
        /// The underlying error.
        error: RegexError,
    },
    /// An exact pattern was rejected by the automaton builder.
    BadPattern(TrieError),
    /// More rules (including synthetic anchor patterns) than the 15-bit
    /// report id space can carry.
    TooManyRules(MiddleboxId),
    /// Two pattern sets were registered for the same middlebox id.
    DuplicateMiddlebox(MiddleboxId),
    /// A policy chain mixes middleboxes of different tenants. Chains
    /// must be tenant-homogeneous: the chain bitmap is the only thing
    /// that routes matches to reports, so a mixed chain could leak one
    /// tenant's match into another tenant's report (DESIGN.md §16).
    MixedTenantChain {
        /// The offending chain.
        chain_id: u16,
    },
}

impl std::fmt::Display for InstanceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InstanceError::UnknownMiddlebox {
                chain_id,
                middlebox,
            } => write!(
                f,
                "chain {chain_id} references unregistered middlebox {}",
                middlebox.0
            ),
            InstanceError::UnknownChain(id) => write!(f, "unknown policy chain {id}"),
            InstanceError::NoPayload => write!(f, "packet has no scannable payload"),
            InstanceError::OversizedPayload { len } => write!(
                f,
                "scan input of {len} bytes exceeds the {} positions a report can address",
                ScanEngine::MAX_UNIT_BYTES
            ),
            InstanceError::Untagged => write!(f, "packet carries no policy-chain tag"),
            InstanceError::BadRegex {
                middlebox,
                rule,
                error,
            } => write!(f, "middlebox {} rule {rule}: {error}", middlebox.0),
            InstanceError::BadPattern(e) => write!(f, "bad exact pattern: {e}"),
            InstanceError::TooManyRules(mb) => {
                write!(f, "middlebox {} exceeds the 15-bit rule id space", mb.0)
            }
            InstanceError::DuplicateMiddlebox(mb) => {
                write!(f, "middlebox {} registered twice", mb.0)
            }
            InstanceError::MixedTenantChain { chain_id } => {
                write!(f, "chain {chain_id} mixes middleboxes of different tenants")
            }
        }
    }
}

impl std::error::Error for InstanceError {}

/// One compiled regular-expression rule.
#[derive(Debug)]
struct RegexRule {
    /// The middlebox-local rule id reported on a match.
    rule_id: u16,
    regex: Regex,
    /// Number of distinct anchors that must all be seen before the regex
    /// runs (0 ⇒ the rule lives on the parallel path instead).
    anchor_count: usize,
    /// Anchor-less rules run on *every* packet, so they get a lazy DFA
    /// (O(1)/byte steady state); anchor-gated rules run rarely and keep
    /// the NFA simulation. The DFA itself is cached per shard (the cache
    /// mutates during scans) so the shared engine stays lock-free.
    use_lazy_dfa: bool,
}

/// Per-middlebox compiled rule metadata.
#[derive(Debug, Default)]
struct MbRules {
    /// Number of registered rules (exact + regex); synthetic anchor
    /// pattern ids start here.
    rule_count: u16,
    regex_rules: Vec<RegexRule>,
    /// Synthetic AC pattern id → (regex rule index, anchor index) pairs
    /// (one anchor string can serve several rules).
    anchor_owner: HashMap<u16, Vec<(usize, usize)>>,
}

/// One chain member resolved at build time: everything the per-packet
/// member loop reads, so a scan finds members by position and never looks
/// anything up by id.
#[derive(Debug, Clone)]
struct ChainMember {
    id: MiddleboxId,
    profile: MiddleboxProfile,
    rules: Arc<MbRules>,
}

/// Active-chain metadata resolved at build time.
#[derive(Debug, Clone)]
struct ChainInfo {
    /// Only middleboxes with pattern sets matter to the scan.
    members: Vec<ChainMember>,
    bitmap: u64,
    any_stateful: bool,
    /// Any member is fail-closed: this chain's traffic must never have
    /// its scan shed under overload.
    any_fail_closed: bool,
    /// The single tenant every member belongs to — enforced at build
    /// time ([`InstanceError::MixedTenantChain`]), which makes "a match
    /// only reaches the owning tenant's middleboxes" structural: the
    /// chain bitmap routes matches, and the bitmap only ever spans one
    /// tenant (DESIGN.md §16).
    tenant: TenantId,
}

/// The result of scanning one packet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScanOutput {
    /// Per-middlebox match lists; middleboxes with no matches are absent
    /// ("a packet with no matches is always forwarded as is", §4.2).
    pub reports: Vec<MiddleboxReport>,
    /// The flow-relative offset of this packet's first byte (0 for
    /// stateless scans).
    pub flow_offset: u64,
    /// Whether the scan resumed from stored flow state.
    pub resumed: bool,
    /// Payload bytes actually scanned (≤ payload length when every active
    /// middlebox's stopping condition was reached earlier).
    pub scanned: usize,
    /// The flow is closed — quarantined by a reassembly conflict under
    /// `ConflictPolicy::RejectFlow` (DESIGN.md §13) or by an
    /// [`crate::l7::L7Action::Block`] policy (§14): nothing was scanned
    /// and the packet must carry the fail-closed verdict mark.
    pub quarantined: bool,
    /// This output came from the stateless *shadow scan* of the losing
    /// copy of a reassembly conflict (DESIGN.md §13). Shadow match
    /// positions are copy-relative, not flow-absolute, and
    /// `flow_offset` is always 0.
    pub shadow: bool,
    /// Protocol context when this output scanned a *decoded* L7 unit
    /// (DESIGN.md §14): which protocol, which direction, which field
    /// (header / body / SNI). `None` for raw-byte scans — including the
    /// L7 layer's `Unknown` fallback, which is byte-identical to the
    /// pre-L7 engine.
    pub l7: Option<crate::l7::L7Context>,
}

impl ScanOutput {
    /// Whether any middlebox got any match.
    pub fn has_matches(&self) -> bool {
        !self.reports.is_empty()
    }

    /// An output for a unit at `flow_offset` of which nothing was
    /// scanned: no reports, every flag clear. Callers set the flag that
    /// says why.
    fn unscanned(flow_offset: u64) -> ScanOutput {
        ScanOutput {
            reports: Vec::new(),
            flow_offset,
            resumed: false,
            scanned: 0,
            quarantined: false,
            shadow: false,
            l7: None,
        }
    }

    /// The output for a unit of a quarantined flow: nothing scanned,
    /// the fail-closed mark set.
    fn closed(flow_offset: u64) -> ScanOutput {
        ScanOutput {
            quarantined: true,
            ..ScanOutput::unscanned(flow_offset)
        }
    }
}

/// One packet's [`ScanOutput`]s (one per reassembled run / decoded L7
/// unit; exactly one on the raw path) folded down to what a single
/// result packet can carry.
struct MergedOutputs {
    /// One report per middlebox, in order of first report; each holds
    /// its records from every output, in scan order.
    reports: Vec<MiddleboxReport>,
    /// `flow_offset` of the first reporting output.
    flow_offset: u64,
    /// Any output carried the closed-flow mark.
    quarantined: bool,
}

/// Merges per middlebox id, since a middlebox reads only the first
/// report carrying its id ([`ResultPacket::report_for`]). Record
/// positions stay relative to the unit that produced them (the wire
/// stream for raw scans, the decoded stream for L7 units); only the
/// first reporting unit's `flow_offset` travels.
fn merge_outputs(outs: impl IntoIterator<Item = ScanOutput>) -> MergedOutputs {
    let mut m = MergedOutputs {
        reports: Vec::new(),
        flow_offset: 0,
        quarantined: false,
    };
    for o in outs {
        m.quarantined |= o.quarantined;
        if m.reports.is_empty() {
            // The first reporting output's list is taken over whole: the
            // raw path's single output costs no copy.
            if !o.reports.is_empty() {
                m.flow_offset = o.flow_offset;
            }
            m.reports = o.reports;
            continue;
        }
        for r in o.reports {
            let id = r.middlebox_id;
            match m.reports.iter_mut().find(|e| e.middlebox_id == id) {
                Some(e) => e.records.extend(r.records),
                None => m.reports.push(r),
            }
        }
    }
    m
}

/// The immutable, shareable half of a DPI instance: compiled automaton,
/// profiles, chains and regex rules. Build once, share behind an `Arc`
/// across any number of worker shards.
#[derive(Debug)]
pub struct ScanEngine {
    ac: CombinedAc,
    chains: HashMap<u16, ChainInfo>,
    max_flows: usize,
    /// Per-shard flow-state byte budget (`None` disables budget
    /// eviction).
    max_flow_bytes: Option<u64>,
    /// The rule generation this engine was compiled from (0 for the
    /// initial configuration). Stamped into every result packet and every
    /// stored flow state, so each match is attributable to exactly one
    /// generation and no state crosses automatons (DESIGN.md §9).
    generation: u32,
    /// Reassembly conflict policy for every shard's reassemblers
    /// (DESIGN.md §13).
    conflict_policy: crate::reassembly::ConflictPolicy,
    /// L7 inspection policy (DESIGN.md §14). `None` — the default —
    /// identifies no protocol, and the packet path
    /// ([`ScanEngine::inspect_unnumbered`]) then does no reassembly at
    /// all: it scans each payload raw, in arrival order. Only
    /// [`ScanEngine::scan_tcp_segment`] still reassembles, and scans the
    /// runs raw.
    l7: Option<crate::l7::L7Policy>,
}

// The engine is shared by reference across scan workers; this must hold
// (and does, because nothing in it has interior mutability).
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<ScanEngine>();
};

/// The mutable, per-worker half of a DPI instance. Every shard of a
/// [`crate::pipeline::DpiInstance`] owns one privately, so the per-packet
/// path takes no locks.
#[derive(Debug)]
pub struct ShardState {
    /// Every per-flow mutable thing — scan state, TCP reassembly, stress
    /// samples, L7 sessions — in one [`FlowArena`] with a single entry
    /// bound and per-flow byte accounting (DESIGN.md §15).
    arena: FlowArena,
    /// Everything else: split off so a scan can hold its flow's open
    /// arena entry and still write these.
    scan: ShardScan,
}

/// The non-flow half of a [`ShardState`]: what a scan writes besides its
/// own flow's entry.
#[derive(Debug)]
struct ShardScan {
    telemetry: Telemetry,
    /// Per-shard lazy DFAs for anchor-less regex rules, keyed by
    /// (middlebox, rule index) and built on first use. The cache only
    /// memoizes NFA-derived states, so match results are identical across
    /// shards regardless of cache contents.
    dfa_cache: HashMap<(MiddleboxId, usize), dpi_regex::dfa::LazyDfa<dpi_regex::nfa::Nfa>>,
    /// Optional structured-event writer (attached by the sharded
    /// pipeline or the system facade). `None` — the default — keeps the
    /// hot path's tracing cost to a single branch per packet.
    trace: Option<crate::trace::TraceWriter>,
    /// Conflict policy for reassemblers this shard creates (copied from
    /// the engine at construction; see DESIGN.md §13).
    conflict_policy: crate::reassembly::ConflictPolicy,
    /// Fair arrival shares across tenants — the shed policy's
    /// tie-breaker under overload (DESIGN.md §16).
    tenant_fairness: TenantFairness,
    /// Per-tenant telemetry attribution, sorted by tenant.
    tenant_counters: Vec<(TenantId, TenantCounters)>,
}

impl ShardState {
    /// A fresh shard sized for `engine`'s flow-arena capacity and byte
    /// budget.
    pub fn new(engine: &ScanEngine) -> ShardState {
        ShardState {
            arena: FlowArena::with_limits(engine.max_flows, engine.max_flow_bytes),
            scan: ShardScan {
                telemetry: Telemetry::default(),
                dfa_cache: HashMap::new(),
                trace: None,
                conflict_policy: engine.conflict_policy,
                tenant_fairness: TenantFairness::new(&engine.tenants()),
                tenant_counters: Vec::new(),
            },
        }
    }

    /// Attaches a structured-event writer; subsequent scans record
    /// sampled [`crate::trace::TraceKind::PacketSample`] events and
    /// reassembly evictions into it.
    pub fn attach_trace_writer(&mut self, writer: crate::trace::TraceWriter) {
        self.scan.trace = Some(writer);
    }

    /// The attached trace writer, if any (the pipeline absorbs it into
    /// the global tracer at batch boundaries).
    pub fn trace_writer_mut(&mut self) -> Option<&mut crate::trace::TraceWriter> {
        self.scan.trace.as_mut()
    }

    /// Detaches and returns the trace writer (e.g. before a shard is
    /// torn down, so its buffered events survive the restart).
    pub fn take_trace_writer(&mut self) -> Option<crate::trace::TraceWriter> {
        self.scan.trace.take()
    }

    /// Telemetry snapshot of this shard.
    pub fn telemetry(&self) -> Telemetry {
        self.scan.telemetry
    }

    /// Per-tenant counter attribution for this shard, sorted by tenant.
    /// Tenants appear once they have any activity.
    pub fn tenant_counters(&self) -> &[(TenantId, TenantCounters)] {
        &self.scan.tenant_counters
    }

    /// Records one packet arrival for `tenant` in the fairness tracker.
    pub fn note_tenant_arrival(&mut self, tenant: TenantId) {
        self.scan.tenant_fairness.note_arrival(tenant);
    }

    /// Whether `tenant` is at or over its fair share — the
    /// precondition for shedding its fail-open traffic (DESIGN.md §16).
    pub fn tenant_at_or_over_fair_share(&self, tenant: TenantId) -> bool {
        self.scan.tenant_fairness.at_or_over_fair_share(tenant)
    }

    /// Attributes one shed fail-open scan to `tenant`.
    pub fn note_tenant_shed(&mut self, tenant: TenantId, bytes: u64) {
        let c = self.scan.tenant_counter_mut(tenant);
        c.shed_packets += 1;
        c.shed_bytes += bytes;
    }

    /// Number of flows currently tracked by this shard.
    pub fn tracked_flows(&self) -> usize {
        self.arena.len()
    }

    /// Estimated bytes of per-flow state this shard holds (entries plus
    /// reassembly/L7 heap allocations) — what the arena's byte budget
    /// bounds.
    pub fn flow_bytes(&self) -> u64 {
        self.arena.total_bytes()
    }

    /// Exports a flow's **full** scan state for migration (§4.3.1) and
    /// forgets the flow locally — reassembly buffers, stress samples and
    /// L7 sessions included (the flow leaves this instance entirely).
    /// Returns `None` for untracked flows. The record keeps its
    /// generation tag and quarantine verdict: without the tag the target
    /// would discard the state after any rule update, and without the
    /// verdict migration would launder a fail-closed flow open.
    pub fn export_flow(&mut self, key: &FlowKey) -> Option<FlowState> {
        let exported = self.arena.export_scan(key);
        if exported.is_some() {
            self.arena.remove(key);
        }
        exported
    }

    /// Imports a migrated flow's scan state as exported — generation tag
    /// and quarantine verdict included. State from another generation is
    /// not re-tagged: the target's next lookup re-anchors it at the root
    /// (miss-only), instead of feeding a foreign automaton's state id to
    /// this engine.
    pub fn import_flow(&mut self, key: FlowKey, fs: FlowState) {
        self.arena.import_scan(key, fs);
        self.drain_flow_events();
    }

    /// Prepares this shard for a hot engine swap. The lazy-DFA cache is
    /// keyed by (middlebox, rule index) *within one generation's rule
    /// list* — a cached DFA surviving the swap could fabricate matches
    /// for a changed rule, so it must go. Flow state needs no sweep: it
    /// is generation-tagged and lazily re-anchored on next access.
    /// Reassembly buffers carry raw bytes, which are generation-free.
    pub fn on_generation_swap(&mut self) {
        self.scan.dfa_cache.clear();
    }

    /// Re-seeds fairness from a newly adopted engine's tenants (arrival
    /// history restarts; counters are telemetry and survive). Called
    /// alongside [`ShardState::on_generation_swap`] at engine adoption.
    pub fn refresh_tenant_state(&mut self, engine: &ScanEngine) {
        self.scan.tenant_fairness = TenantFairness::new(&engine.tenants());
    }

    /// Declares a new TCP stream with its initial sequence number.
    pub fn open_tcp_flow(&mut self, flow: FlowKey, initial_seq: u32) {
        *self.arena.open(flow).reassembler() =
            Some(Box::new(crate::reassembly::StreamReassembler::with_policy(
                initial_seq,
                1 << 20,
                self.scan.conflict_policy,
            )));
        self.drain_flow_events();
    }

    /// Whether a flow is quarantined (a reassembly conflict under
    /// `ConflictPolicy::RejectFlow`, or an L7 `Block`).
    pub fn flow_quarantined(&self, flow: &FlowKey) -> bool {
        self.arena.is_quarantined(flow)
    }

    /// Whether `flow` currently holds TCP reassembly state on this
    /// shard. Quarantined flows never do: the quarantine tears their
    /// reassembler down and later segments are refused before one could
    /// be re-created (see [`ScanEngine::scan_tcp_segment`]).
    pub fn has_reassembler(&self, flow: &FlowKey) -> bool {
        self.arena.has_reassembler(flow)
    }

    /// Tears down a flow entirely (RST/FIN/timeout): scan state,
    /// reassembly buffers, stress samples, L7 session and quarantine
    /// verdict, in one arena removal.
    pub fn close_tcp_flow(&mut self, flow: &FlowKey) {
        self.arena.remove(flow);
    }

    /// The L7 protocol a flow's decode session identified, if the flow
    /// has one (`Unknown` covers both unidentified and raw-fallback).
    pub fn l7_protocol(&self, flow: &FlowKey) -> Option<crate::l7::L7Protocol> {
        self.arena.l7_protocol(flow)
    }

    /// Per-flow deep-state ratios observed since the last
    /// [`ShardState::reset_flow_stress`] — the input to heavy-flow
    /// selection (§4.3.1). Flows with fewer than two samples are omitted
    /// (no signal).
    pub fn flow_deep_ratios(&self) -> Vec<(FlowKey, f64)> {
        self.arena.stress_ratios()
    }

    /// Clears the per-flow stress window (after the controller consumed
    /// it).
    pub fn reset_flow_stress(&mut self) {
        self.arena.reset_stress();
    }

    /// Folds the arena's pending lifecycle events (capacity/byte
    /// evictions, forced quarantine drops) into telemetry
    /// and the trace, so nothing the arena does is silent. Called at the
    /// end of every mutating scan path.
    fn drain_flow_events(&mut self) {
        let ev = self.arena.take_events();
        if ev.is_empty() {
            return;
        }
        let scan = &mut self.scan;
        scan.telemetry.flows_evicted += ev.flows_evicted;
        scan.telemetry.quarantined_flow_evictions += ev.quarantined_evicted;
        if let Some(w) = scan.trace.as_mut().filter(|_| ev.quarantined_evicted > 0) {
            w.record(crate::trace::TraceKind::QuarantinedFlowEvicted {
                flows: ev.quarantined_evicted,
            });
        }
    }
}

impl ShardScan {
    /// The counter row for `tenant`, created on first touch.
    fn tenant_counter_mut(&mut self, tenant: TenantId) -> &mut TenantCounters {
        let i = match self
            .tenant_counters
            .binary_search_by_key(&tenant, |&(t, _)| t)
        {
            Ok(i) => i,
            Err(i) => {
                self.tenant_counters
                    .insert(i, (tenant, TenantCounters::default()));
                i
            }
        };
        &mut self.tenant_counters[i].1
    }
}

impl ScanEngine {
    /// The longest input one scan takes: match positions are 16-bit in
    /// reports (§6.5), so a unit holds at most this many. The public
    /// scan entry points reject longer inputs
    /// ([`InstanceError::OversizedPayload`]); decoded L7 units and raw
    /// fallback buffers, which can outgrow it, are scanned in pieces.
    pub const MAX_UNIT_BYTES: usize = 1 << 16;

    /// Compiles a configuration into an engine (§5.1's initialization),
    /// at generation 0.
    pub fn new(config: InstanceConfig) -> Result<ScanEngine, InstanceError> {
        ScanEngine::with_generation(config, 0)
    }

    /// Compiles a configuration as rule generation `generation` — the
    /// off-hot-path build step of a live update
    /// ([`crate::update::UpdateArtifact::compile`]).
    pub fn with_generation(
        config: InstanceConfig,
        generation: u32,
    ) -> Result<ScanEngine, InstanceError> {
        let mut profiles = HashMap::new();
        for p in &config.profiles {
            profiles.insert(p.id, *p);
        }

        let mut builder = CombinedAcBuilder::new();
        let mut rules: HashMap<MiddleboxId, Arc<MbRules>> = HashMap::new();

        for (mb, specs) in &config.pattern_sets {
            if rules.contains_key(mb) {
                return Err(InstanceError::DuplicateMiddlebox(*mb));
            }
            let compiled = compile_rules(*mb, specs, &mut builder)?;
            rules.insert(*mb, Arc::new(compiled));
            // Middleboxes may register patterns without an explicit
            // profile; default to stateless read-write.
            profiles
                .entry(*mb)
                .or_insert_with(|| MiddleboxProfile::stateless(*mb));
        }

        let mut chains = HashMap::new();
        for c in &config.chains {
            let mut members = Vec::new();
            let mut tenant: Option<TenantId> = None;
            for m in &c.members {
                let Some(profile) = profiles.get(m) else {
                    return Err(InstanceError::UnknownMiddlebox {
                        chain_id: c.chain_id,
                        middlebox: *m,
                    });
                };
                // Chains must be tenant-homogeneous — every member of
                // the chain (pattern-less ones included) belongs to one
                // tenant, so the chain bitmap can never route a match
                // across tenants.
                match tenant {
                    None => tenant = Some(profile.tenant),
                    Some(t) if t != profile.tenant => {
                        return Err(InstanceError::MixedTenantChain {
                            chain_id: c.chain_id,
                        });
                    }
                    Some(_) => {}
                }
                if let Some(mb_rules) = rules.get(m) {
                    members.push(ChainMember {
                        id: *m,
                        profile: *profile,
                        rules: Arc::clone(mb_rules),
                    });
                }
            }
            let bitmap = members
                .iter()
                .fold(0, |bits, m| bits | dpi_ac::bitmap_bit(m.id));
            let any_stateful = members.iter().any(|m| m.profile.stateful);
            let any_fail_closed = members.iter().any(|m| m.profile.fail_closed);
            chains.insert(
                c.chain_id,
                ChainInfo {
                    members,
                    bitmap,
                    any_stateful,
                    any_fail_closed,
                    tenant: tenant.unwrap_or(TenantId::DEFAULT),
                },
            );
        }

        Ok(ScanEngine {
            ac: builder.build_kernel(config.kernel),
            chains,
            max_flows: config
                .max_flows
                .unwrap_or(InstanceConfig::DEFAULT_MAX_FLOWS),
            max_flow_bytes: config.max_flow_bytes,
            generation,
            conflict_policy: config.conflict_policy,
            l7: config.l7,
        })
    }

    /// The reassembly conflict policy this engine's shards run.
    pub fn conflict_policy(&self) -> crate::reassembly::ConflictPolicy {
        self.conflict_policy
    }

    /// The rule generation this engine was compiled from.
    pub fn generation(&self) -> u32 {
        self.generation
    }

    /// The tenant owning `chain_id`'s middleboxes (`None` for unknown
    /// chains). Chains are tenant-homogeneous by construction.
    pub fn chain_tenant(&self, chain_id: u16) -> Option<TenantId> {
        self.chains.get(&chain_id).map(|c| c.tenant)
    }

    /// Every tenant owning a chain on this engine, sorted — the seed for
    /// each shard's [`TenantFairness`] tracker.
    pub fn tenants(&self) -> Vec<TenantId> {
        let mut tenants: Vec<TenantId> = self.chains.values().map(|c| c.tenant).collect();
        tenants.sort_unstable();
        tenants.dedup();
        tenants
    }

    /// The combined automaton (size/stat introspection for experiments).
    pub fn automaton(&self) -> &CombinedAc {
        &self.ac
    }

    /// The scan kernel this engine's automaton runs — "naive", or for
    /// the default kernel the cell width it resolved to, "compact" or
    /// "full" — stamped into metrics and swap traces.
    pub fn kernel_name(&self) -> &'static str {
        self.ac.kernel_name()
    }

    /// Whether any member of `chain_id` registered a fail-closed profile
    /// — if so, this chain's traffic must be scanned even under overload
    /// (the shed policy skips it). Unknown chains are conservatively
    /// fail-closed: they error on inspection anyway, and the error path
    /// must stay visible rather than be silently shed.
    pub fn chain_fail_closed(&self, chain_id: u16) -> bool {
        self.chains
            .get(&chain_id)
            .map(|c| c.any_fail_closed)
            .unwrap_or(true)
    }

    /// Scans a raw payload for `chain_id` (§5.2's algorithm) against
    /// `shard`'s flow state. `flow` must be given when the chain has
    /// stateful members and the caller wants cross-packet state; its
    /// arena entry is opened once and held for the whole call.
    pub fn scan_payload(
        &self,
        shard: &mut ShardState,
        chain_id: u16,
        flow: Option<FlowKey>,
        payload: &[u8],
    ) -> Result<ScanOutput, InstanceError> {
        let chain = self
            .chains
            .get(&chain_id)
            .ok_or(InstanceError::UnknownChain(chain_id))?;
        check_unit_len(payload)?;

        let mut entry = flow.map(|key| shard.arena.open(key));
        // Quarantined flows (a `RejectFlow` conflict or an L7 `Block`)
        // are never scanned: their bytes are known-ambiguous or refused
        // by policy. The caller turns `quarantined` into the fail-closed
        // verdict mark.
        let out = if entry.as_ref().is_some_and(|e| e.quarantined()) {
            ScanOutput::closed(0)
        } else {
            self.scan_stream_unit(&mut shard.scan, chain, entry.as_mut(), payload)
        };
        drop(entry);
        shard.drain_flow_events();
        Ok(out)
    }

    /// The one routine under every adapter: scans `bytes` as the next
    /// unit of a flow's raw byte stream — a packet payload, a
    /// reassembled run, a raw-fallback piece — resuming from and
    /// writing back to the flow's open entry. `None` scans statelessly
    /// from the root (no flow key, shadow scans).
    fn scan_stream_unit(
        &self,
        scan: &mut ShardScan,
        chain: &ChainInfo,
        mut flow: Option<&mut OpenFlow<'_>>,
        bytes: &[u8],
    ) -> ScanOutput {
        // Restore per-flow DFA state for stateful chains — but only state
        // written by *this* engine's generation: after a hot swap, a state
        // id from the old automaton is meaningless in the new one, so the
        // flow deterministically re-anchors at the root (miss-only,
        // DESIGN.md §9), keeping its offset for the stopping conditions.
        let resume = match flow.as_mut() {
            Some(f) if chain.any_stateful => f.scan_state(self.generation, self.ac.start()),
            _ => None,
        };
        let (start_state, offset) = resume.unwrap_or((self.ac.start(), 0));

        let (out, state, (deep, samples)) =
            self.scan_unit(scan, chain, start_state, offset, bytes, None);

        if let Some(f) = flow {
            // Persist flow state for stateful chains. The stored offset
            // covers the whole unit even if the scan stopped early: every
            // stateful middlebox's stopping condition was already
            // exceeded, so later matches would be filtered anyway.
            if chain.any_stateful {
                f.set_scan_state(state, offset + bytes.len() as u64, self.generation);
            }
            // The per-flow stress samples that MCA² heavy-flow selection
            // reads.
            f.add_stress(deep, samples);
        }
        out
    }

    /// Scans one byte unit — a raw payload or a decoded L7 unit — from
    /// an explicit automaton state and stream offset: the §5.2 scan loop,
    /// per-member post-filtering and §5.3 regex resolution, shared by
    /// the raw and L7 paths. Touches no flow state: the caller holds the
    /// flow's open arena entry and writes back what this returns — the
    /// output, the end automaton state and the (deep, total) depth
    /// samples for stress accounting.
    ///
    /// With an `l7` context, per-middlebox protocol subscriptions filter
    /// the member loop and matches also count into the per-protocol L7
    /// telemetry; raw scans (`l7: None`) behave byte-identically to the
    /// pre-L7 engine.
    fn scan_unit(
        &self,
        scan: &mut ShardScan,
        chain: &ChainInfo,
        start_state: u32,
        offset: u64,
        payload: &[u8],
        l7: Option<crate::l7::L7Context>,
    ) -> (ScanOutput, u32, (u64, u64)) {
        assert!(
            payload.len() <= Self::MAX_UNIT_BYTES,
            "every caller bounds its unit: positions below are 16-bit"
        );
        let resumed = start_state != self.ac.start() || offset > 0;

        // The most conservative stopping condition: scan as deep as the
        // hungriest active middlebox needs (§5.2).
        let scan_len = self.required_scan_len(chain, offset, payload.len());

        // Raw hits: (member position, pattern id, end pos, pattern len).
        // Both lists stay unallocated until the first accept: most
        // packets match nothing.
        let mut hits: Vec<(usize, u16, u16, u16)> = Vec::new();
        // Anchors seen: (member position, regex rule idx, anchor idx).
        let mut anchors_seen: Vec<(usize, usize, usize)> = Vec::new();

        // The scan loop runs on the engine's configured kernel; the
        // bitmap fast path lives in the accept callback, depth sampling
        // inside the kernel itself (same grid as the historical manual
        // loop: position `i` samples when `i % SAMPLE == 0`).
        let mut depth_samples = DepthSamples::default();
        let state = {
            let ac = &self.ac;
            let hits = &mut hits;
            let anchors_seen = &mut anchors_seen;
            ac.scan_sampled(
                start_state,
                &payload[..scan_len],
                Telemetry::SAMPLE,
                Telemetry::DEEP_DEPTH,
                &mut depth_samples,
                &mut |i, st| {
                    if ac.bitmap(st) & chain.bitmap == 0 {
                        return;
                    }
                    for e in ac.entries(st) {
                        let Some(mi) = chain.members.iter().position(|m| m.id == e.middlebox)
                        else {
                            continue;
                        };
                        let mb_rules = &chain.members[mi].rules;
                        let pid = e.pattern.0;
                        if pid >= mb_rules.rule_count {
                            // A synthetic anchor pattern.
                            if let Some(owners) = mb_rules.anchor_owner.get(&pid) {
                                anchors_seen.extend(owners.iter().map(|&(ri, ai)| (mi, ri, ai)));
                            }
                        } else {
                            // `i < MAX_UNIT_BYTES`, asserted above.
                            hits.push((mi, pid, i as u16, e.len));
                        }
                    }
                },
            )
        };
        let deep = depth_samples.deep;
        let samples = depth_samples.total;
        scan.telemetry.scan_bytes_skipped += depth_samples.skipped;
        // One anchor string can be seen many times; each counts once.
        anchors_seen.sort_unstable();
        anchors_seen.dedup();

        // Post-filtering (§5.2) and regex resolution (§5.3) per member.
        let mut reports = Vec::new();
        let mut total_matches = 0u64;
        for (mi, member) in chain.members.iter().enumerate() {
            let profile = member.profile;
            // Decoded L7 units honour per-middlebox protocol
            // subscriptions; raw scans (including the Unknown fallback)
            // never filter — fail-open, DESIGN.md §14.
            if let Some(ctx) = l7 {
                if !profile.subscribes(ctx.protocol) {
                    continue;
                }
            }
            let stop = profile.stopping_condition;
            let mut list: Vec<(u16, u16)> = Vec::new();
            for &(_, pid, pos, len) in hits.iter().filter(|h| h.0 == mi) {
                let cnt = u64::from(pos) + 1;
                if profile.stateful {
                    // Stateful: the stopping condition counts flow bytes.
                    if let Some(s) = stop {
                        if cnt + offset > s {
                            continue;
                        }
                    }
                } else {
                    // Stateless middleboxes must not see matches that
                    // began in a previous packet (the scan only started
                    // mid-automaton because a *stateful* middlebox shares
                    // the flow).
                    if resumed && u64::from(len) > cnt {
                        continue;
                    }
                    if let Some(s) = stop {
                        if cnt > s {
                            continue;
                        }
                    }
                }
                list.push((pid, pos));
            }

            // §5.3: run each regex whose anchors were all seen.
            for (ri, rr) in member.rules.regex_rules.iter().enumerate() {
                let on_parallel_path = rr.anchor_count == 0;
                let triggered = if on_parallel_path {
                    scan.telemetry.parallel_regex_evaluations += 1;
                    true
                } else {
                    let seen = anchors_seen
                        .iter()
                        .filter(|&&(m, r, _)| m == mi && r == ri)
                        .count();
                    seen == rr.anchor_count
                };
                if !triggered {
                    continue;
                }
                if !on_parallel_path {
                    scan.telemetry.regex_invocations += 1;
                }
                let found = if rr.use_lazy_dfa {
                    scan.dfa_cache
                        .entry((member.id, ri))
                        .or_insert_with(|| rr.regex.to_lazy_dfa())
                        .find_end(&payload[..scan_len])
                } else {
                    rr.regex.find_end(&payload[..scan_len])
                };
                if let Some(end) = found {
                    let pos = end.saturating_sub(1) as u16;
                    let cnt = u64::from(pos) + 1;
                    let within_stop = match stop {
                        Some(s) if profile.stateful => cnt + offset <= s,
                        Some(s) => cnt <= s,
                        None => true,
                    };
                    if within_stop {
                        list.push((rr.rule_id, pos));
                    }
                }
            }

            if !list.is_empty() {
                // Sort by (pattern, position): runs of one pattern at
                // consecutive positions become adjacent, which is the
                // shape `compress_matches` folds into range records.
                list.sort_unstable();
                list.dedup();
                let records = compress_matches(&list);
                total_matches += records
                    .iter()
                    .map(|r| u64::from(r.occurrences()))
                    .sum::<u64>();
                reports.push(MiddleboxReport {
                    middlebox_id: member.id.0,
                    records,
                });
            }
        }

        // Sampled trace event (1 in PACKET_SAMPLE_EVERY packets): on the
        // non-sampled packets tracing costs one branch.
        if let Some(w) = scan.trace.as_mut() {
            if scan
                .telemetry
                .packets
                .is_multiple_of(crate::trace::PACKET_SAMPLE_EVERY)
            {
                w.record(crate::trace::TraceKind::PacketSample {
                    bytes: scan_len as u64,
                    matches: total_matches,
                });
            }
        }
        scan.telemetry.packets += 1;
        scan.telemetry.bytes += scan_len as u64;
        scan.telemetry.matches += total_matches;
        if !reports.is_empty() {
            scan.telemetry.packets_with_matches += 1;
        }
        scan.telemetry.deep_samples += deep;
        scan.telemetry.depth_samples += samples;
        if let Some(ctx) = l7 {
            scan.telemetry.l7_matches[ctx.protocol.index()] += total_matches;
        }
        let tc = scan.tenant_counter_mut(chain.tenant);
        tc.packets += 1;
        tc.bytes += scan_len as u64;
        tc.matches += total_matches;

        (
            ScanOutput {
                reports,
                resumed,
                scanned: scan_len,
                l7,
                ..ScanOutput::unscanned(offset)
            },
            state,
            (deep, samples),
        )
    }

    /// Scans a packet against `shard`, ECN-marks it (§6.1) when it
    /// matched or when its flow is closed, and returns the result packet
    /// to deliver — `None` when there is nothing to report — *without* a
    /// packet id (`packet_id` is 0): id assignment is the caller's job, so
    /// an instance can number results in arrival order and stay
    /// byte-identical at every worker count.
    #[inline]
    pub fn inspect_unnumbered(
        &self,
        shard: &mut ShardState,
        packet: &mut Packet,
    ) -> Result<Option<ResultPacket>, InstanceError> {
        let chain_id = packet.chain_tag().ok_or(InstanceError::Untagged)?;
        let flow = packet.flow_key();
        let payload = packet.payload().ok_or(InstanceError::NoPayload)?;

        // An engine armed with an L7 policy reconstructs TCP sessions on
        // the packet path too: the identify → decode → scan layer needs
        // the byte stream, not isolated payloads (DESIGN.md §14). UDP
        // traffic and unarmed engines keep the per-packet scan.
        let stream = if self.l7.is_some() {
            flow.zip(packet.tcp_seq())
        } else {
            None
        };
        let merged = match stream {
            Some((key, seq)) => {
                merge_outputs(self.scan_tcp_segment(shard, chain_id, key, seq, payload)?)
            }
            None => merge_outputs([self.scan_payload(shard, chain_id, flow, payload)?]),
        };
        // A quarantined flow (reassembly conflict or L7 `Block`) is
        // closed: the packet carries the match mark but no reports are
        // fabricated — nothing was scanned, and the verdict was itself
        // reported via trace/telemetry when it fired. No result packet
        // follows, so a middlebox holds the packet until its next arrival,
        // or the network going idle, releases it unpaired: its logic then
        // sees a packet with no
        // report, and neither blocks nor alerts on it (a documented loss
        // case, DESIGN.md §17).
        if merged.quarantined || !merged.reports.is_empty() {
            packet.mark_matches();
        }
        if merged.quarantined || merged.reports.is_empty() {
            return Ok(None);
        }
        Ok(Some(ResultPacket {
            packet_id: 0,
            generation: self.generation,
            flow: flow.expect("ipv4 payload implies flow key"),
            flow_offset: merged.flow_offset,
            reports: merged.reports,
        }))
    }

    /// Feeds one TCP segment through `shard`'s per-flow reassembly, then
    /// scans every in-order byte run that becomes available. The flow's
    /// arena entry is opened once and held for the whole segment: the
    /// verdict check, the reassembler push, every run / L7 unit / raw
    /// piece scanned and the session all go through it.
    pub fn scan_tcp_segment(
        &self,
        shard: &mut ShardState,
        chain_id: u16,
        flow: FlowKey,
        seq: u32,
        payload: &[u8],
    ) -> Result<Vec<ScanOutput>, InstanceError> {
        let chain = self
            .chains
            .get(&chain_id)
            .ok_or(InstanceError::UnknownChain(chain_id))?;
        check_unit_len(payload)?;

        // The arena's single entry bound and byte budget cover the
        // reassembler and the L7 session too — no separate per-map
        // pressure valve; closing the entry re-syncs its byte footprint
        // and lets the budget act.
        let mut entry = shard.arena.open(flow);
        let outputs = self.scan_segment(&mut shard.scan, chain, &mut entry, seq, payload);
        drop(entry);
        shard.drain_flow_events();
        outputs
    }

    /// [`ScanEngine::scan_tcp_segment`] on the flow's open entry.
    fn scan_segment(
        &self,
        scan: &mut ShardScan,
        chain: &ChainInfo,
        entry: &mut OpenFlow<'_>,
        seq: u32,
        payload: &[u8],
    ) -> Result<Vec<ScanOutput>, InstanceError> {
        // A flow already quarantined (by a conflict or an L7 `Block`)
        // never reaches a reassembler: it will never be scanned again,
        // so buffering its bytes — in order, out of order or
        // retransmitted — would be pure attacker-controlled memory, and
        // a reassembler freshly re-created after eviction must not
        // resurrect the flow.
        if entry.quarantined() {
            let delivered = entry.reassembler().as_ref().map_or(0, |r| r.delivered());
            return Ok(vec![ScanOutput::closed(delivered)]);
        }

        let policy = scan.conflict_policy;
        let r = entry.reassembler().get_or_insert_with(|| {
            Box::new(crate::reassembly::StreamReassembler::with_policy(
                seq,
                1 << 20,
                policy,
            ))
        });
        let evicted_before = r.evicted_bytes();
        let conflicts_before = r.conflicts();
        let conflict_bytes_before = r.conflict_bytes();
        let was_quarantined = r.quarantined();
        let runs = r.push(seq, payload);
        let evicted = r.evicted_bytes() - evicted_before;
        let conflicts = r.conflicts() - conflicts_before;
        let conflict_bytes = r.conflict_bytes() - conflict_bytes_before;
        let newly_quarantined = r.quarantined() && !was_quarantined;
        let delivered = r.delivered();
        // Losing copies of any conflicts, for the stateless shadow scans
        // below (empty under RejectFlow).
        let alt_payloads = r.take_conflict_payloads();

        if evicted > 0 {
            if let Some(w) = scan.trace.as_mut() {
                w.record(crate::trace::TraceKind::ReassemblyEvicted { bytes: evicted });
            }
        }
        if conflicts > 0 {
            scan.telemetry.reassembly_conflicts += conflicts;
            if let Some(w) = scan.trace.as_mut() {
                w.record(crate::trace::TraceKind::ReassemblyConflict {
                    bytes: conflict_bytes,
                });
            }
        }
        if newly_quarantined {
            // RejectFlow fired: record the verdict on the entry (it
            // outlives the reassembler, which is torn down with the L7
            // session right here) and report it. From here on every
            // packet of this flow gets the fail-closed mark and nothing
            // of it is scanned or buffered again.
            entry.quarantine();
            scan.telemetry.flows_quarantined += 1;
            if let Some(w) = scan.trace.as_mut() {
                w.record(crate::trace::TraceKind::FlowQuarantined { bytes: delivered });
            }
            return Ok(vec![ScanOutput::closed(delivered)]);
        }

        let mut outputs = Vec::new();
        if let Some(policy) = &self.l7 {
            // The L7 layer sits between reassembly and the scan: the
            // in-order runs feed the flow's decode session and the
            // decoded units (plus raw-fallback buffers) are scanned.
            self.scan_l7_runs(scan, chain, entry, policy, &runs, &mut outputs);
        } else {
            for run in &runs {
                check_unit_len(run)?;
                outputs.push(self.scan_stream_unit(scan, chain, Some(entry), run));
            }
        }
        // Shadow-scan the losing copy of each conflict, statelessly: a
        // pattern hidden entirely inside the discarded interpretation
        // still produces a match, so a first-wins resolution can never
        // silently swallow it (the no-silent-miss guarantee, DESIGN.md
        // §13).
        for alt in alt_payloads {
            check_unit_len(&alt)?;
            let mut out = self.scan_stream_unit(scan, chain, None, &alt);
            out.shadow = true;
            outputs.push(out);
        }
        // An L7 `Block` quarantined the flow above, after what its run
        // had already decoded was scanned: this packet and every later
        // one carry the fail-closed mark.
        if entry.quarantined() {
            outputs.push(ScanOutput::closed(delivered));
        }
        Ok(outputs)
    }

    /// Feeds the in-order byte runs of one flow through its L7 decode
    /// session (DESIGN.md §14) and scans what comes out into `outputs`:
    /// decoded units with protocol context, raw-fallback buffers through
    /// the raw stream path. When policy says `Block`, the run's ingest
    /// is still counted and scanned, then the flow is quarantined the
    /// way a `RejectFlow` conflict does it — the session and the
    /// reassembler go with it — and later runs are dropped.
    fn scan_l7_runs(
        &self,
        scan: &mut ShardScan,
        chain: &ChainInfo,
        entry: &mut OpenFlow<'_>,
        policy: &crate::l7::L7Policy,
        runs: &[Vec<u8>],
        outputs: &mut Vec<ScanOutput>,
    ) {
        // The session's box leaves the entry while it is driven (a
        // pointer move), so the scans below can write the entry's scan
        // state and stress beside it.
        let mut session = entry.l7().take().unwrap_or_default();

        for run in runs {
            if run.is_empty() {
                continue;
            }
            let ingest = session.accept(run, policy);

            for &p in &ingest.identified {
                scan.telemetry.l7_flows_identified[p.index()] += 1;
                if let Some(w) = scan.trace.as_mut() {
                    w.record(crate::trace::TraceKind::L7Identified { protocol: p });
                }
            }
            if let Some(action) = ingest.action {
                match action {
                    crate::l7::L7Action::Intercept => {}
                    crate::l7::L7Action::Block => scan.telemetry.l7_blocked_flows += 1,
                    crate::l7::L7Action::Bypass => scan.telemetry.l7_bypassed_flows += 1,
                }
                if action != crate::l7::L7Action::Intercept {
                    if let Some(w) = scan.trace.as_mut() {
                        w.record(crate::trace::TraceKind::L7ActionApplied {
                            protocol: session.protocol(),
                            action,
                        });
                    }
                }
            }
            if ingest.errors > 0 {
                scan.telemetry.l7_decode_errors += ingest.errors;
                if let Some(w) = scan.trace.as_mut() {
                    w.record(crate::trace::TraceKind::L7DecodeError {
                        protocol: session.protocol(),
                    });
                }
            }
            for &kept in &ingest.truncations {
                scan.telemetry.l7_truncations += 1;
                if let Some(w) = scan.trace.as_mut() {
                    w.record(crate::trace::TraceKind::L7Truncated {
                        protocol: session.protocol(),
                        bytes: kept,
                    });
                }
            }

            for u in &ingest.units {
                scan.telemetry.l7_decoded_bytes += u.bytes.len() as u64;
                self.scan_l7_unit(scan, chain, entry, &mut session, u, outputs);
            }
            // Raw fallback (Unknown flows, decode-failure fail-open):
            // byte-identical to the pre-L7 path, including flow state.
            for piece in ingest.raw.iter().flat_map(|raw| unit_pieces(raw)) {
                outputs.push(self.scan_stream_unit(scan, chain, Some(entry), piece));
            }
            if ingest.action == Some(crate::l7::L7Action::Block) {
                entry.quarantine();
                return;
            }
        }

        *entry.l7() = Some(session);
    }

    /// Scans one decoded L7 unit into `outputs`. Units with a stream slot
    /// resume the slot's automaton state/offset (generation-checked like
    /// the flow's own scan state) so patterns spanning decoded-unit
    /// boundaries still match; slotless units (header blocks, SNI) scan
    /// fresh from the root. A unit longer than
    /// [`ScanEngine::MAX_UNIT_BYTES`] is scanned in pieces, one output
    /// each, the automaton carried from piece to piece as it is between
    /// the units of one slot.
    fn scan_l7_unit(
        &self,
        scan: &mut ShardScan,
        chain: &ChainInfo,
        entry: &mut OpenFlow<'_>,
        session: &mut crate::l7::L7Session,
        u: &crate::l7::DecodedUnit,
        outputs: &mut Vec<ScanOutput>,
    ) {
        let (mut state, mut offset) = match u.slot {
            Some(s) if chain.any_stateful && !u.reset => match session.streams[s] {
                Some((st, off, g)) if g == self.generation => (st, off),
                Some((_, off, _)) => (self.ac.start(), off),
                None => (self.ac.start(), 0),
            },
            _ => (self.ac.start(), 0),
        };
        for piece in unit_pieces(&u.bytes) {
            let (out, end_state, (deep, samples)) =
                self.scan_unit(scan, chain, state, offset, piece, Some(u.ctx));
            state = end_state;
            offset += piece.len() as u64;
            entry.add_stress(deep, samples);
            outputs.push(out);
        }
        if let Some(s) = u.slot {
            if chain.any_stateful {
                session.streams[s] = Some((state, offset, self.generation));
            }
        }
    }

    fn required_scan_len(&self, chain: &ChainInfo, offset: u64, payload_len: usize) -> usize {
        let mut needed = 0u64;
        for m in &chain.members {
            let p = &m.profile;
            match p.stopping_condition {
                None => return payload_len,
                Some(s) => {
                    let n = if p.stateful {
                        s.saturating_sub(offset)
                    } else {
                        s
                    };
                    needed = needed.max(n);
                }
            }
        }
        payload_len.min(needed as usize)
    }
}

/// The length check of every public scan entry point.
fn check_unit_len(input: &[u8]) -> Result<(), InstanceError> {
    if input.len() > ScanEngine::MAX_UNIT_BYTES {
        return Err(InstanceError::OversizedPayload { len: input.len() });
    }
    Ok(())
}

/// Cuts `bytes` into pieces of at most [`ScanEngine::MAX_UNIT_BYTES`].
/// An empty input is one empty piece: it is still one scan.
fn unit_pieces(bytes: &[u8]) -> impl Iterator<Item = &[u8]> {
    let (first, rest) = bytes.split_at(bytes.len().min(ScanEngine::MAX_UNIT_BYTES));
    std::iter::once(first).chain(rest.chunks(ScanEngine::MAX_UNIT_BYTES))
}

/// Compiles one middlebox's rule list into the shared automaton builder.
fn compile_rules(
    mb: MiddleboxId,
    rules_in: &[NumberedRule],
    builder: &mut CombinedAcBuilder,
) -> Result<MbRules, InstanceError> {
    // Synthetic anchor ids start right above the highest registered rule
    // id; both must fit the 15-bit report space.
    let max_id = rules_in
        .iter()
        .map(|r| r.id)
        .max()
        .map(|m| m + 1)
        .unwrap_or(0);
    if max_id > dpi_packet::report::MAX_REPORTABLE_PATTERN_ID {
        return Err(InstanceError::TooManyRules(mb));
    }
    let mut out = MbRules {
        rule_count: max_id,
        ..MbRules::default()
    };
    let mut next_synthetic = max_id;
    // Reuse identical anchor strings across rules of the same middlebox.
    let mut anchor_ids: HashMap<Vec<u8>, u16> = HashMap::new();

    for rule in rules_in {
        let i = rule.id;
        match &rule.spec.kind {
            RuleKind::Exact(p) => {
                builder
                    .add_pattern(mb, PatternId(i), p)
                    .map_err(InstanceError::BadPattern)?;
            }
            RuleKind::Regex(src) => {
                let regex = Regex::new(src).map_err(|error| InstanceError::BadRegex {
                    middlebox: mb,
                    rule: i,
                    error,
                })?;
                let anchors = regex.anchors().to_vec();
                let ri = out.regex_rules.len();
                for (ai, anchor) in anchors.iter().enumerate() {
                    let pid = match anchor_ids.get(anchor) {
                        Some(&pid) => pid,
                        None => {
                            let pid = next_synthetic;
                            if pid > dpi_packet::report::MAX_REPORTABLE_PATTERN_ID {
                                return Err(InstanceError::TooManyRules(mb));
                            }
                            next_synthetic = next_synthetic
                                .checked_add(1)
                                .ok_or(InstanceError::TooManyRules(mb))?;
                            builder
                                .add_pattern(mb, PatternId(pid), anchor)
                                .map_err(InstanceError::BadPattern)?;
                            anchor_ids.insert(anchor.clone(), pid);
                            pid
                        }
                    };
                    out.anchor_owner.entry(pid).or_default().push((ri, ai));
                }
                out.regex_rules.push(RegexRule {
                    rule_id: i,
                    regex,
                    anchor_count: anchors.len(),
                    use_lazy_dfa: anchors.is_empty(),
                });
            }
        }
    }
    Ok(out)
}
