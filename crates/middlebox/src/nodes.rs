//! [`dpi_sdn::Node`] adapters: plugging DPI instances and middleboxes
//! into the simulated network.
//!
//! Each adapter is a one-NIC host on the star topology (§6.1): packets
//! arrive on a port and are bounced back on the same port after
//! processing, letting the switch's chain rules steer them onward.
//!
//! The engines are held behind `Arc<Mutex<…>>` so tests and experiment
//! harnesses keep a handle for out-of-band inspection (telemetry, stats)
//! while the node lives inside the network — the same pattern as
//! [`dpi_sdn::Switch::table`].

use crate::engine::ServiceMiddlebox;
use dpi_core::chaos::ChaosEngine;
use dpi_core::trace::{TraceKind, TraceSource, Tracer};
use dpi_core::DpiInstance;
use dpi_packet::packet::PacketBody;
use dpi_packet::report::ResultPacket;
use dpi_packet::{MacAddr, Packet};
use dpi_sdn::{Node, PortId};
use parking_lot::Mutex;
use std::sync::Arc;

/// Delivery attempts per result packet; a result whose every attempt is
/// dropped counts as lost.
const DELIVERY_ATTEMPTS: u32 = 4;

/// Counters for a DPI node's fault-injected delivery path (shared
/// handle, like [`crate::MiddleboxStats`]). All zero unless a
/// [`ChaosEngine`] is attached.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct FleetDpiStats {
    /// Packets blackholed because the instance is dead.
    pub swallowed: u64,
    /// Result packets that left the node.
    pub results_emitted: u64,
    /// Result packets lost after exhausting every delivery attempt.
    pub results_lost: u64,
    /// Result packets intentionally emitted twice (duplication fault).
    pub results_duplicated: u64,
    /// Delivery attempts beyond the first, across all result packets.
    pub retries: u64,
}

/// The DPI service instance as a network node.
///
/// Two optional attachments give it the robustness behaviours a
/// multi-instance deployment needs; a node with none attached only scans
/// and delivers. Overload control is the instance's own
/// ([`DpiInstance::set_overload_policy`], DESIGN.md §11): a packet the
/// instance sheds comes back unscanned and CE-marked and is forwarded
/// like any other.
///
/// * **Chaos-driven failure** ([`DpiServiceNode::attach_chaos`]): every
///   data packet advances the instance's deterministic packet clock; once
///   the fault plan's kill ordinal is reached, the node blackholes all
///   traffic (data and pass-through results) and stops being counted as
///   alive — the simulation analogue of a crashed VM. The DPI controller
///   only learns of the death through missed heartbeats, exactly as in a
///   real deployment.
/// * **Retried result delivery** (same attachment): dedicated result
///   packets (§4.2 option 3) are the only packets whose loss silently
///   changes middlebox behaviour, so each gets up to four delivery
///   attempts, each drawing the plan's drop fault. Data packets are
///   never retried — losing one is visible to the endpoints and the
///   network is **fail-open** for data. A result packet whose every
///   attempt is dropped is *lost*, never fabricated: middleboxes
///   downstream see a missing result (each releases the marked data
///   packet unpaired at its next arrival or when the network goes
///   idle), but never a wrong one —
///   **fail-closed** for verdicts.
pub struct DpiServiceNode {
    dpi: Arc<Mutex<DpiInstance>>,
    mac: MacAddr,
    /// Packets dropped because they were untagged or on unknown chains.
    errors: u64,
    /// Position in the fleet — the index a fault plan's
    /// `kill_instance_at_packet` and trace attribution refer to.
    instance_index: usize,
    chaos: Option<Arc<ChaosEngine>>,
    stats: Arc<Mutex<FleetDpiStats>>,
    /// Optional structured-event tracer; delivery anomalies (retried,
    /// lost, duplicated results) are recorded against
    /// [`dpi_core::trace::TraceSource::Instance`].
    tracer: Option<Arc<Tracer>>,
}

impl DpiServiceNode {
    /// Wraps an instance as fleet member `instance_index` (0 for a lone
    /// instance); returns the node and a handle to the instance.
    pub fn new(
        dpi: DpiInstance,
        mac: MacAddr,
        instance_index: usize,
    ) -> (DpiServiceNode, Arc<Mutex<DpiInstance>>) {
        let dpi = Arc::new(Mutex::new(dpi));
        (
            DpiServiceNode {
                dpi: Arc::clone(&dpi),
                mac,
                errors: 0,
                instance_index,
                chaos: None,
                stats: Arc::default(),
                tracer: None,
            },
            dpi,
        )
    }

    /// Attaches a running chaos engine: the node dies when its fault plan
    /// says so, and result packets are delivered against the plan's drop
    /// and duplication faults.
    pub fn attach_chaos(&mut self, chaos: Arc<ChaosEngine>) {
        self.chaos = Some(chaos);
    }

    /// Attaches a structured-event tracer: retried, lost, and duplicated
    /// result deliveries become trace events attributed to this
    /// instance's index, and so does everything the instance itself
    /// records (overload actions, quarantines, L7 identifications),
    /// folded in whenever its window closes.
    pub fn attach_tracer(&mut self, tracer: Arc<Tracer>) {
        self.dpi
            .lock()
            .attach_tracer(Arc::clone(&tracer), Some(self.instance_index as u32));
        self.tracer = Some(tracer);
    }

    fn trace(&self, kind: TraceKind) {
        if let Some(t) = &self.tracer {
            t.record(TraceSource::Instance(self.instance_index as u32), kind);
        }
    }

    /// The delivery-path counters (a shared handle).
    pub fn stats(&self) -> Arc<Mutex<FleetDpiStats>> {
        Arc::clone(&self.stats)
    }

    /// Whether the chaos plan still considers this instance alive. Always
    /// `true` without a chaos engine.
    pub fn alive(&self) -> bool {
        self.chaos
            .as_ref()
            .map(|c| c.instance_alive(self.instance_index))
            .unwrap_or(true)
    }

    /// Scan errors so far (untagged packets, unknown chains).
    pub fn error_count(&self) -> u64 {
        self.errors
    }

    /// The dedicated result packet that follows `data` (§4.2 option 3).
    fn result_packet(&self, data: &Packet, result: ResultPacket) -> Packet {
        let mut rp = Packet::result(self.mac, data.eth.dst, result);
        if let Some(tag) = data.chain_tag() {
            // The result packet follows the same chain rules.
            let _ = rp.push_chain_tag(tag);
        }
        rp
    }

    /// Scans one data packet and emits it, followed by its result packet
    /// when it matched.
    fn inspect_into(&mut self, mut packet: Packet, port: PortId, out: &mut Vec<(PortId, Packet)>) {
        let inspected = self.dpi.lock().inspect(&mut packet);
        match inspected {
            Ok(result) => {
                let rp = result.map(|result| self.result_packet(&packet, result));
                out.push((port, packet));
                out.extend(rp.map(|rp| (port, rp)));
            }
            Err(_) => self.errors += 1,
        }
    }

    /// Gives the result packets in `out[first..]` the retried (and
    /// possibly faulty) delivery path; data packets pass through
    /// untouched (fail-open).
    fn deliver_results(&self, chaos: &ChaosEngine, first: usize, out: &mut Vec<(PortId, Packet)>) {
        for (p, pkt) in out.split_off(first) {
            if !matches!(pkt.body, PacketBody::Result(_)) {
                out.push((p, pkt));
                continue;
            }
            let mut stats = self.stats.lock();
            match (1..=DELIVERY_ATTEMPTS).find(|_| !chaos.drop_result()) {
                Some(attempts) => {
                    stats.retries += u64::from(attempts - 1);
                    if attempts > 1 {
                        self.trace(TraceKind::ResultRetried { attempts });
                    }
                    stats.results_emitted += 1;
                    if chaos.duplicate_result() {
                        stats.results_duplicated += 1;
                        self.trace(TraceKind::ResultDuplicated);
                        out.push((p, pkt.clone()));
                    }
                    out.push((p, pkt));
                }
                None => {
                    // Fail-closed for verdicts: the result is gone, not
                    // guessed — downstream sees a missing report, never a
                    // fabricated one.
                    stats.retries += u64::from(DELIVERY_ATTEMPTS - 1);
                    stats.results_lost += 1;
                    self.trace(TraceKind::ResultLost {
                        attempts: DELIVERY_ATTEMPTS,
                    });
                }
            }
        }
    }
}

impl Node for DpiServiceNode {
    fn on_packet_into(&mut self, packet: Packet, port: PortId, out: &mut Vec<(PortId, Packet)>) {
        let is_data = matches!(packet.body, PacketBody::Ipv4 { .. });
        let chaos = self.chaos.clone();
        if let Some(chaos) = &chaos {
            // Data packets advance the deterministic per-instance packet
            // clock; pass-through results only consult it — so a fault
            // plan's "kill at packet K" counts scanned packets, which is
            // what a trace replay can predict.
            let alive = if is_data {
                chaos.on_instance_packet(self.instance_index)
            } else {
                chaos.instance_alive(self.instance_index)
            };
            if !alive {
                self.stats.lock().swallowed += 1;
                return;
            }
        }
        let first = out.len();
        if is_data {
            self.inspect_into(packet, port, out);
        } else {
            // Result packets from upstream instances etc. pass through.
            out.push((port, packet));
        }
        if let Some(chaos) = &chaos {
            self.deliver_results(chaos, first, out);
        }
    }

    fn label(&self) -> String {
        format!("dpi-service[{}]", self.instance_index)
    }
}

/// A service-consuming middlebox as a network node (§6.1's plugin).
///
/// Every node emits a marked data packet and its result packet in one
/// delivery and the links are FIFO, so the result arrives right behind
/// its data: §6.1's two-sided pairing buffer comes to one held packet.
pub struct MiddleboxNode {
    mb: Arc<Mutex<ServiceMiddlebox>>,
    /// The middlebox's registered id, read once: reports are selected by
    /// it on every packet.
    mb_id: u16,
    /// The marked data packet waiting for the result packet behind it.
    held: Option<Packet>,
    /// The port the held packet came in on, where a flush releases it.
    held_port: PortId,
    /// Highest rule generation consumed; results stamped below it are
    /// dropped, not mixed into newer verdicts. As strong as per-flow: an
    /// update rolls every instance between two sends and each send runs
    /// to quiescence, so no two instances serve different generations
    /// while traffic flows — below the highest is stale for every flow.
    generation: u32,
}

impl MiddleboxNode {
    /// Wraps a middlebox; returns the node and a stats/engine handle.
    ///
    /// `_last_on_chain` is ignored: every node re-emits the result packet
    /// behind the data, because a middlebox last on one chain may sit in
    /// the middle of another and its next member there needs the report.
    pub fn new(
        mb: ServiceMiddlebox,
        _last_on_chain: bool,
    ) -> (MiddleboxNode, Arc<Mutex<ServiceMiddlebox>>) {
        let mb_id = mb.id().0;
        let mb = Arc::new(Mutex::new(mb));
        (
            MiddleboxNode {
                mb: Arc::clone(&mb),
                mb_id,
                held: None,
                held_port: 0,
                generation: 0,
            },
            mb,
        )
    }

    /// Applies the generation monotonicity check to a paired result.
    /// Returns `None` (process as unmatched) for stale results.
    fn admit_result(&mut self, result: ResultPacket) -> Option<ResultPacket> {
        let fresh = result.generation >= self.generation;
        self.generation = self.generation.max(result.generation);
        fresh.then_some(result)
    }

    /// Releases a held packet without a result: its result was lost, or
    /// its flow is closed. The middlebox sees no report for it — fail-open
    /// for data, and no rule fires on a guess.
    fn release(&mut self, held: Option<Packet>, port: PortId, out: &mut Vec<(PortId, Packet)>) {
        if let Some(packet) = held {
            self.mb.lock().count_unpaired();
            self.forward(packet, None, port, out);
        }
    }

    /// Runs the middlebox's logic on `packet` and, unless it blocks,
    /// forwards the packet with its result re-emitted right behind it so
    /// downstream members can read their own sections.
    fn forward(
        &mut self,
        packet: Packet,
        result: Option<ResultPacket>,
        port: PortId,
        out: &mut Vec<(PortId, Packet)>,
    ) {
        let report = result.as_ref().and_then(|r| r.report_for(self.mb_id));
        if !self.mb.lock().process(report).forwards() {
            return; // blocked: neither data nor result goes on
        }
        let rp = result.map(|result| {
            let mut rp = Packet::result(packet.eth.src, packet.eth.dst, result);
            if let Some(tag) = packet.chain_tag() {
                let _ = rp.push_chain_tag(tag);
            }
            rp
        });
        out.push((port, packet));
        out.extend(rp.map(|rp| (port, rp)));
    }
}

impl Node for MiddleboxNode {
    /// The node has one NIC, so whatever it releases leaves on the port
    /// the packet in hand came in on.
    fn on_packet_into(&mut self, packet: Packet, port: PortId, out: &mut Vec<(PortId, Packet)>) {
        let held = self.held.take();
        match packet.body {
            PacketBody::Result(result) => match held {
                Some(data) if data.flow_key() == Some(result.flow) => {
                    let result = self.admit_result(result);
                    self.forward(data, result, port, out);
                }
                // An orphan — a duplicate, or the result of a packet
                // blocked upstream: it pairs with nothing and goes.
                held => self.release(held, port, out),
            },
            _ => {
                self.release(held, port, out);
                if packet.has_match_mark() {
                    self.held = Some(packet);
                    self.held_port = port;
                } else {
                    // Unmarked: no result will follow (§4.2: "a packet
                    // with no matches is always forwarded as is").
                    self.forward(packet, None, port, out);
                }
            }
        }
    }

    /// The network is idle, so no result is on its way behind the held
    /// packet: it goes on unpaired.
    fn flush(&mut self, out: &mut Vec<(PortId, Packet)>) {
        let held = self.held.take();
        self.release(held, self.held_port, out);
    }

    /// A matched packet waits here for its result.
    fn can_hold(&self) -> bool {
        true
    }

    fn label(&self) -> String {
        format!("middlebox:{}", self.mb.lock().name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::logic::{MbAction, RuleLogic};
    use dpi_ac::MiddleboxId;
    use dpi_core::chaos::FaultPlan;
    use dpi_core::{
        InstanceConfig, MiddleboxProfile, OverloadPolicy, OverloadTransition, RuleSpec,
    };
    use dpi_packet::ipv4::IpProtocol;
    use dpi_packet::packet::flow;

    fn dpi_for(patterns: &[&str], chain: u16, mbs: &[u16]) -> DpiInstance {
        let mut cfg = InstanceConfig::new();
        for &m in mbs {
            cfg = cfg.with_middlebox(
                MiddleboxProfile::stateless(MiddleboxId(m)),
                patterns
                    .iter()
                    .map(|p| RuleSpec::exact(p.as_bytes().to_vec()))
                    .collect(),
            );
        }
        cfg = cfg.with_chain(chain, mbs.iter().map(|&m| MiddleboxId(m)).collect());
        DpiInstance::new(cfg).unwrap()
    }

    fn tagged_pkt(payload: &[u8], chain: u16) -> Packet {
        let mut p = Packet::tcp(
            MacAddr::local(1),
            MacAddr::local(2),
            flow([1, 1, 1, 1], 9, [2, 2, 2, 2], 80, IpProtocol::Tcp),
            0,
            payload.to_vec(),
        );
        p.push_chain_tag(chain).unwrap();
        p
    }

    #[test]
    fn dpi_node_emits_data_then_result() {
        let dpi = dpi_for(&["needle99"], 5, &[1]);
        let (mut node, _h) = DpiServiceNode::new(dpi, MacAddr::local(9), 0);
        let out = node.on_packet(tagged_pkt(b"a needle99 b", 5), 0);
        assert_eq!(out.len(), 2);
        assert!(out[0].1.has_match_mark());
        assert!(matches!(out[1].1.body, PacketBody::Result(_)));
        assert_eq!(out[1].1.chain_tag(), Some(5));
        // Clean packet: only the data goes on.
        let out = node.on_packet(tagged_pkt(b"clean", 5), 0);
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn dpi_node_drops_untagged_and_counts() {
        let dpi = dpi_for(&["x"], 5, &[1]);
        let (mut node, _h) = DpiServiceNode::new(dpi, MacAddr::local(9), 0);
        let mut p = tagged_pkt(b"payload", 5);
        p.pop_chain_tag();
        assert!(node.on_packet(p, 0).is_empty());
        assert_eq!(node.error_count(), 1);
    }

    #[test]
    fn middlebox_node_pairs_and_forwards() {
        let dpi = dpi_for(&["matchme99"], 5, &[1]);
        let (mut dpi_node, _h) = DpiServiceNode::new(dpi, MacAddr::local(9), 0);
        let mb = ServiceMiddlebox::new(
            MiddleboxId(1),
            "ids",
            RuleLogic::one_per_pattern(1, MbAction::Alert),
        );
        let (mut mb_node, handle) = MiddleboxNode::new(mb, true);

        let emitted = dpi_node.on_packet(tagged_pkt(b"xx matchme99 yy", 5), 0);
        let mut forwarded = Vec::new();
        for (_, p) in emitted {
            forwarded.extend(mb_node.on_packet(p, 0));
        }
        // Data + result both continue (alert does not block).
        assert_eq!(forwarded.len(), 2);
        let stats = handle.lock().stats();
        assert_eq!(stats.packets, 1);
        assert_eq!(stats.matches, 1);
        assert_eq!(stats.rules_fired, 1);
    }

    #[test]
    fn blocking_middlebox_consumes_both_packets() {
        let dpi = dpi_for(&["dropit99"], 5, &[1]);
        let (mut dpi_node, _h) = DpiServiceNode::new(dpi, MacAddr::local(9), 0);
        let mb = ServiceMiddlebox::new(
            MiddleboxId(1),
            "ips",
            RuleLogic::one_per_pattern(1, MbAction::Block),
        );
        let (mut mb_node, handle) = MiddleboxNode::new(mb, true);
        let emitted = dpi_node.on_packet(tagged_pkt(b"dropit99", 5), 0);
        let mut forwarded = Vec::new();
        for (_, p) in emitted {
            forwarded.extend(mb_node.on_packet(p, 0));
        }
        assert!(forwarded.is_empty());
        assert_eq!(handle.lock().stats().blocked, 1);
    }

    /// A generation-`generation` result for `fk` reporting one match to
    /// middlebox 1.
    fn result_for(fk: dpi_packet::FlowKey, generation: u32, id: u32) -> Packet {
        use dpi_packet::report::{MatchRecord, MiddleboxReport, ResultPacket};
        Packet::result(
            MacAddr::local(9),
            MacAddr::local(2),
            ResultPacket {
                packet_id: id,
                generation,
                flow: fk,
                flow_offset: 0,
                reports: vec![MiddleboxReport {
                    middlebox_id: 1,
                    records: vec![MatchRecord::Single {
                        pattern_id: 0,
                        position: 3,
                    }],
                }],
            },
        )
    }

    /// A data packet of `fk` on chain 5.
    fn data(fk: dpi_packet::FlowKey) -> Packet {
        let mut p = Packet::tcp(
            MacAddr::local(1),
            MacAddr::local(2),
            fk,
            0,
            b"payload".to_vec(),
        );
        p.push_chain_tag(5).unwrap();
        p
    }

    /// A match-marked data packet of `fk` on chain 5.
    fn marked_data(fk: dpi_packet::FlowKey) -> Packet {
        let mut p = data(fk);
        p.mark_matches();
        p
    }

    fn alerting_ids() -> ServiceMiddlebox {
        ServiceMiddlebox::new(
            MiddleboxId(1),
            "ids",
            RuleLogic::one_per_pattern(1, MbAction::Alert),
        )
    }

    #[test]
    fn one_slot_pairs_each_result_with_the_packet_right_before_it() {
        let a = flow([1, 1, 1, 1], 9, [2, 2, 2, 2], 80, IpProtocol::Tcp);
        let b = flow([1, 1, 1, 1], 10, [2, 2, 2, 2], 80, IpProtocol::Tcp);
        let (d, r) = ("data", "result");
        // Arrivals → what leaves (kind, flow) → (unpaired, matches).
        let table = [
            ("unmarked data passes", vec![data(a)], vec![(d, a)], (0, 0)),
            (
                "data then its result pair",
                vec![marked_data(a), result_for(a, 0, 1)],
                vec![(d, a), (r, a)],
                (0, 1),
            ),
            (
                "a lone result is dropped",
                vec![result_for(a, 0, 1)],
                vec![],
                (0, 0),
            ),
            (
                "another flow's result releases the held packet",
                vec![marked_data(a), result_for(b, 0, 1)],
                vec![(d, a)],
                (1, 0),
            ),
            (
                "a second marked packet releases the first",
                vec![marked_data(a), marked_data(b)],
                vec![(d, a)],
                (1, 0),
            ),
        ];
        for (name, arrivals, leaves, (unpaired, matches)) in table {
            let (mut node, handle) = MiddleboxNode::new(alerting_ids(), true);
            let out: Vec<_> = arrivals
                .into_iter()
                .flat_map(|p| node.on_packet(p, 0))
                .map(|(_, p)| match &p.body {
                    PacketBody::Result(res) => (r, res.flow),
                    _ => (d, p.flow_key().unwrap()),
                })
                .collect();
            assert_eq!(out, leaves, "{name}");
            let stats = handle.lock().stats();
            assert_eq!(
                (stats.unpaired, stats.matches),
                (unpaired, matches),
                "{name}"
            );
        }
    }

    #[test]
    fn stale_generation_results_are_rejected() {
        let (mut node, handle) = MiddleboxNode::new(alerting_ids(), true);
        let fk = flow([1, 1, 1, 1], 9, [2, 2, 2, 2], 80, IpProtocol::Tcp);

        // A generation-2 result is consumed normally…
        let mut out = node.on_packet(marked_data(fk), 0);
        out.extend(node.on_packet(result_for(fk, 2, 1), 0));
        assert_eq!(out.len(), 2); // data + re-emitted result
        assert_eq!(handle.lock().stats().matches, 1);

        // …then a generation-1 straggler for the same flow (a retried
        // delivery from a not-yet-updated instance) is discarded: the
        // data forwards unpaired, the stale result is not re-emitted and
        // fires no rules.
        let mut out = node.on_packet(marked_data(fk), 0);
        out.extend(node.on_packet(result_for(fk, 1, 2), 0));
        assert_eq!(out.len(), 1);
        assert_eq!(handle.lock().stats().matches, 1);
    }

    #[test]
    fn stale_filter_survives_65537_flows() {
        let (mut node, handle) = MiddleboxNode::new(alerting_ids(), true);
        let fk = |i: u32| {
            let [_, a, b, c] = i.to_be_bytes();
            flow([10, a, b, c], 9, [2, 2, 2, 2], 80, IpProtocol::Tcp)
        };
        const FLOWS: u32 = 65_537;
        for i in 0..FLOWS {
            node.on_packet(marked_data(fk(i)), 0);
            assert_eq!(node.on_packet(result_for(fk(i), 2, i), 0).len(), 2);
        }
        // However many flows came before, flow 0's generation-1
        // straggler is still stale: its data forwards alone.
        let mut out = node.on_packet(marked_data(fk(0)), 0);
        out.extend(node.on_packet(result_for(fk(0), 1, FLOWS), 0));
        assert_eq!(out.len(), 1);
        assert_eq!(handle.lock().stats().matches, u64::from(FLOWS));
    }

    // ---- The chaos and retry attachments, and the armed instance ----

    fn dpi() -> DpiInstance {
        let cfg = InstanceConfig::new()
            .with_middlebox(
                MiddleboxProfile::stateless(MiddleboxId(1)),
                vec![RuleSpec::exact(b"needle99".to_vec())],
            )
            .with_chain(5, vec![MiddleboxId(1)]);
        DpiInstance::new(cfg).unwrap()
    }

    fn tagged(payload: &[u8]) -> Packet {
        let mut p = Packet::tcp(
            MacAddr::local(1),
            MacAddr::local(2),
            flow([1, 1, 1, 1], 9, [2, 2, 2, 2], 80, IpProtocol::Tcp),
            0,
            payload.to_vec(),
        );
        p.push_chain_tag(5).unwrap();
        p
    }

    #[test]
    fn without_chaos_behaves_like_the_plain_node() {
        let (mut node, _h) = DpiServiceNode::new(dpi(), MacAddr::local(9), 0);
        let stats = node.stats();
        let out = node.on_packet(tagged(b"a needle99 b"), 0);
        assert_eq!(out.len(), 2, "data + result");
        assert!(node.alive());
        assert_eq!(*stats.lock(), FleetDpiStats::default());
    }

    /// A node over `dpi()` attached to `plan`, tracing into the returned
    /// tracer.
    fn chaos_node(plan: FaultPlan) -> (DpiServiceNode, Arc<Tracer>) {
        let tracer = Arc::new(Tracer::new());
        let chaos = plan.start();
        chaos.attach_tracer(Arc::clone(&tracer));
        let (mut node, _h) = DpiServiceNode::new(dpi(), MacAddr::local(9), 0);
        node.attach_chaos(chaos);
        node.attach_tracer(Arc::clone(&tracer));
        (node, tracer)
    }

    fn traced(tracer: &Tracer, kind: TraceKind) -> bool {
        tracer.snapshot().iter().any(|e| e.kind == kind)
    }

    #[test]
    fn killed_instance_blackholes_traffic() {
        let (mut node, tracer) = chaos_node(FaultPlan::new(1).kill_instance_at_packet(0, 2));
        let stats = node.stats();
        assert_eq!(node.on_packet(tagged(b"one"), 0).len(), 1);
        assert_eq!(node.on_packet(tagged(b"two"), 0).len(), 1);
        assert!(node.alive());
        // Third data packet hits the kill ordinal.
        assert!(node.on_packet(tagged(b"three"), 0).is_empty());
        assert!(!node.alive());
        assert!(node.on_packet(tagged(b"four"), 0).is_empty());
        assert_eq!(stats.lock().swallowed, 2);
        assert!(traced(
            &tracer,
            TraceKind::FaultInstanceKilled {
                instance: 0,
                at_packet: 2
            }
        ));
    }

    #[test]
    fn result_loss_is_retried_and_bounded() {
        // Drop every attempt: the result must be lost after exactly
        // DELIVERY_ATTEMPTS tries, and the data packet still goes through.
        let (mut node, tracer) = chaos_node(FaultPlan::new(3).drop_result_packets(1.0));
        let stats = node.stats();
        let out = node.on_packet(tagged(b"x needle99 y"), 0);
        assert_eq!(out.len(), 1, "fail-open: data passes, result lost");
        assert!(matches!(out[0].1.body, PacketBody::Ipv4 { .. }));
        let s = *stats.lock();
        assert_eq!(s.results_lost, 1);
        assert_eq!(s.retries, 3);
        assert!(traced(&tracer, TraceKind::ResultLost { attempts: 4 }));
    }

    #[test]
    fn duplicated_results_are_emitted_twice() {
        let (mut node, _) = chaos_node(FaultPlan::new(4).duplicate_result_packets(1.0));
        let stats = node.stats();
        let out = node.on_packet(tagged(b"x needle99 y"), 0);
        let results = out
            .iter()
            .filter(|(_, p)| matches!(p.body, PacketBody::Result(_)))
            .count();
        assert_eq!(results, 2);
        assert_eq!(stats.lock().results_duplicated, 1);
    }

    /// A node over `dpi` armed at one arrival per window, and the
    /// instance handle.
    fn armed_node(dpi: DpiInstance) -> (DpiServiceNode, Arc<Mutex<DpiInstance>>) {
        DpiServiceNode::new(
            dpi.with_overload_policy(OverloadPolicy::queue_only(1, 0)),
            MacAddr::local(9),
            0,
        )
    }

    #[test]
    fn overloaded_instance_sheds_fail_open_data_but_not_verdicts() {
        // Chain 5 is fail-open (no fail-closed member).
        let (mut node, handle) = armed_node(dpi());

        // Not overloaded: scans normally, produces data + result.
        let out = node.on_packet(tagged(b"a needle99 b"), 0);
        assert_eq!(out.len(), 2);
        assert!(!out[0].1.has_ce_mark());

        // The window closes on one arrival, the high watermark: from here
        // the scan is shed — only the CE-marked data packet comes out, no
        // result even though the payload matches.
        let closed = handle.lock().close_window();
        assert_eq!(closed, [(OverloadTransition::Entered, 1)]);
        let out = node.on_packet(tagged(b"a needle99 b"), 0);
        assert_eq!(out.len(), 1, "shed: data only, no result");
        assert!(out[0].1.has_ce_mark());
        let dpi = handle.lock();
        assert_eq!(dpi.total_shed(), 1);
        assert_eq!(dpi.total_ce_marked(), 1);
        assert_eq!(
            dpi.shard_telemetry()[0].shed_bytes,
            b"a needle99 b".len() as u64
        );
    }

    #[test]
    fn fail_closed_chain_is_scanned_through_overload() {
        let cfg = InstanceConfig::new()
            .with_middlebox(
                MiddleboxProfile::stateless(MiddleboxId(1)).fail_closed(),
                vec![RuleSpec::exact(b"needle99".to_vec())],
            )
            .with_chain(5, vec![MiddleboxId(1)]);
        let (mut node, handle) = armed_node(DpiInstance::new(cfg).unwrap());
        node.on_packet(tagged(b"fills the window"), 0);
        handle.lock().close_window();
        assert_eq!(handle.lock().overload_state(), [(true, 1.0)]);

        let out = node.on_packet(tagged(b"a needle99 b"), 0);
        // Verdict traffic survives overload: data + result, and the data
        // packet keeps its match mark so a middlebox pairs the two.
        assert_eq!(out.len(), 2, "fail-closed chain still scanned");
        assert!(out[0].1.has_match_mark());
        assert_eq!(handle.lock().total_shed(), 0);
        assert_eq!(handle.lock().total_ce_marked(), 0);
        // Result packets pass through untouched even while overloaded.
        let result_pkt = out[1].1.clone();
        let out = node.on_packet(result_pkt, 0);
        assert_eq!(out.len(), 1);
        assert!(matches!(out[0].1.body, PacketBody::Result(_)));
    }

    #[test]
    fn retry_recovers_from_transient_loss() {
        // p = 0.5: across many packets some deliveries need retries but
        // (with 4 attempts) most succeed; retries must be recorded and
        // deterministic per seed.
        let run = |seed| {
            let (mut node, _) = chaos_node(FaultPlan::new(seed).drop_result_packets(0.5));
            let stats = node.stats();
            for _ in 0..32 {
                node.on_packet(tagged(b"x needle99 y"), 0);
            }
            let snapshot = *stats.lock();
            snapshot
        };
        let s = run(11);
        assert!(s.retries > 0, "p=0.5 must force some retries");
        assert_eq!(s.results_emitted + s.results_lost, 32);
        // One attempt would lose 16 of 32; four lose 2 in expectation.
        assert!(
            s.results_emitted >= 28,
            "retries recover most losses: {s:?}"
        );
        assert_eq!(s, run(11), "same seed, same outcome");
    }
}
