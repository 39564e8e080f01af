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
use crate::reorder::{PairedPacket, ReorderBuffer};
use dpi_core::DpiInstance;
use dpi_packet::packet::PacketBody;
use dpi_packet::{MacAddr, Packet};
use dpi_sdn::{Node, PortId};
use parking_lot::Mutex;
use std::sync::Arc;

/// How the DPI service delivers match results (§4.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResultsDelivery {
    /// Option 3: a dedicated result packet right after the (ECN-marked)
    /// data packet — the paper prototype's method.
    DedicatedPacket,
    /// Option 1: an in-band NSH-like header on the data packet itself.
    InBand,
    /// Option 2: match results as MPLS result labels on the data packet.
    /// Lossy (no positions) and bounded (≤ 8 distinct matches); packets
    /// whose reports do not fit fall back to a dedicated result packet —
    /// the paper's "messy" caveat made concrete.
    MplsTags,
}

/// The DPI service instance as a network node.
pub struct DpiServiceNode {
    dpi: Arc<Mutex<DpiInstance>>,
    delivery: ResultsDelivery,
    mac: MacAddr,
    /// Packets dropped because they were untagged or on unknown chains.
    errors: u64,
}

impl DpiServiceNode {
    /// Wraps an instance; returns the node and a handle to the instance.
    pub fn new(
        dpi: DpiInstance,
        delivery: ResultsDelivery,
        mac: MacAddr,
    ) -> (DpiServiceNode, Arc<Mutex<DpiInstance>>) {
        let dpi = Arc::new(Mutex::new(dpi));
        (
            DpiServiceNode {
                dpi: Arc::clone(&dpi),
                delivery,
                mac,
                errors: 0,
            },
            dpi,
        )
    }

    /// Scan errors so far (untagged packets, unknown chains).
    pub fn error_count(&self) -> u64 {
        self.errors
    }

    /// The dedicated result packet that follows `data` (§4.2 option 3).
    fn result_packet(&self, data: &Packet, result: dpi_packet::report::ResultPacket) -> Packet {
        let mut rp = Packet::result(self.mac, data.eth.dst, result);
        if let Some(tag) = data.chain_tag() {
            // The result packet follows the same chain rules.
            let _ = rp.push_chain_tag(tag);
        }
        rp
    }
}

impl Node for DpiServiceNode {
    fn on_packet_into(
        &mut self,
        mut packet: Packet,
        port: PortId,
        out: &mut Vec<(PortId, Packet)>,
    ) {
        if !matches!(packet.body, PacketBody::Ipv4 { .. }) {
            // Result packets from upstream instances etc. pass through.
            out.push((port, packet));
            return;
        }
        let inspected = match self.delivery {
            ResultsDelivery::InBand => self.dpi.lock().inspect_inband(&mut packet).map(|_| None),
            ResultsDelivery::DedicatedPacket | ResultsDelivery::MplsTags => {
                self.dpi.lock().inspect(&mut packet)
            }
        };
        let result = match inspected {
            Ok(result) => result,
            Err(_) => {
                self.errors += 1;
                return;
            }
        };
        let Some(result) = result else {
            out.push((port, packet));
            return;
        };
        if self.delivery == ResultsDelivery::MplsTags {
            if let Some(labels) = dpi_packet::mpls_results::encode_matches(&result.reports) {
                packet.mpls.extend(labels);
                out.push((port, packet));
                return;
            }
            // Too many matches for tags: fall back to the dedicated
            // result packet.
        }
        let rp = self.result_packet(&packet, result);
        out.push((port, packet));
        out.push((port, rp));
    }

    fn label(&self) -> String {
        "dpi-service".to_string()
    }
}

/// A service-consuming middlebox as a network node (§6.1's plugin plus
/// pairing buffer).
pub struct MiddleboxNode {
    mb: Arc<Mutex<ServiceMiddlebox>>,
    /// The middlebox's registered id, read once: reports are selected by
    /// it on every packet.
    mb_id: u16,
    buffer: ReorderBuffer,
    /// What the pairing buffer released for the packet in hand; drained
    /// before `on_packet_into` returns, kept for its allocation.
    paired: Vec<PairedPacket>,
    /// Whether this is the last results-consuming element on its chains —
    /// the one that strips the in-band header before the packet leaves
    /// the service chain (§4.2).
    last_on_chain: bool,
    /// Highest rule generation seen per flow. During a staged rollout two
    /// DPI instances may briefly serve different generations; once a flow
    /// has consumed results from generation `g`, results stamped `< g`
    /// (a retried delivery from a not-yet-updated instance, or a
    /// duplicate from before a rollback) are discarded rather than mixed
    /// into the newer rule set's verdicts.
    flow_generations: std::collections::HashMap<dpi_packet::FlowKey, u32>,
    /// Result packets discarded for carrying an outdated generation.
    stale_generation_drops: u64,
}

impl MiddleboxNode {
    /// Wraps a middlebox; returns the node and a stats/engine handle.
    pub fn new(
        mb: ServiceMiddlebox,
        last_on_chain: bool,
    ) -> (MiddleboxNode, Arc<Mutex<ServiceMiddlebox>>) {
        MiddleboxNode::with_buffer_capacity(mb, last_on_chain, 4096)
    }

    /// Like [`MiddleboxNode::new`] with an explicit pairing-buffer bound.
    /// When result packets are lost in the network, marked data packets
    /// eventually overflow the buffer and are released *unpaired* — the
    /// middlebox fails open rather than stalling the flow.
    pub fn with_buffer_capacity(
        mb: ServiceMiddlebox,
        last_on_chain: bool,
        capacity: usize,
    ) -> (MiddleboxNode, Arc<Mutex<ServiceMiddlebox>>) {
        let mb_id = mb.id().0;
        let mb = Arc::new(Mutex::new(mb));
        (
            MiddleboxNode {
                mb: Arc::clone(&mb),
                mb_id,
                buffer: ReorderBuffer::new(capacity),
                paired: Vec::new(),
                last_on_chain,
                flow_generations: std::collections::HashMap::new(),
                stale_generation_drops: 0,
            },
            mb,
        )
    }

    /// Result packets discarded because they carried a rule generation
    /// older than one this node already consumed for the same flow.
    pub fn stale_generation_drops(&self) -> u64 {
        self.stale_generation_drops
    }

    /// Applies the per-flow generation monotonicity check to a paired
    /// result. Returns `None` (process as unmatched) for stale results.
    fn admit_result(
        &mut self,
        results: Option<dpi_packet::report::ResultPacket>,
    ) -> Option<dpi_packet::report::ResultPacket> {
        let r = results?;
        if self.flow_generations.len() > 65536 {
            self.flow_generations.clear(); // bounded, coarse reset
        }
        let seen = self.flow_generations.entry(r.flow).or_insert(r.generation);
        if r.generation < *seen {
            self.stale_generation_drops += 1;
            return None;
        }
        *seen = r.generation;
        Some(r)
    }
}

impl Node for MiddleboxNode {
    fn on_packet_into(
        &mut self,
        mut packet: Packet,
        port: PortId,
        out: &mut Vec<(PortId, Packet)>,
    ) {
        let mb_id = self.mb_id;

        // MPLS-tag delivery: result labels ride on the data packet.
        let has_result_labels = packet
            .mpls
            .iter()
            .any(|l| l.tc == dpi_packet::mpls_results::RESULT_TC);
        if has_result_labels {
            let decoded = dpi_packet::mpls_results::decode_matches(&packet.mpls);
            let my_report = decoded.iter().find(|r| r.middlebox_id == mb_id);
            if !self.mb.lock().process(my_report).forwards() {
                return;
            }
            if self.last_on_chain {
                dpi_packet::mpls_results::strip_result_labels(&mut packet.mpls);
            }
            out.push((port, packet));
            return;
        }

        // In-band delivery: results ride on the data packet.
        if let Some(header) = &packet.dpi_results {
            let my_report = header.reports.iter().find(|r| r.middlebox_id == mb_id);
            if !self.mb.lock().process(my_report).forwards() {
                return;
            }
            if self.last_on_chain {
                packet.detach_results();
            }
            out.push((port, packet));
            return;
        }

        // Dedicated-packet delivery: pair via the buffer.
        let chain_tag = packet.chain_tag();
        let mut paired = std::mem::take(&mut self.paired);
        self.buffer.push(packet, &mut paired);
        for PairedPacket { packet, results } in paired.drain(..) {
            let results = self.admit_result(results);
            let my_report = results.as_ref().and_then(|r| r.report_for(mb_id));
            if !self.mb.lock().process(my_report).forwards() {
                continue; // blocked: neither data nor results go on
            }
            // Re-emit the result packet behind the data so downstream
            // middleboxes can read their own sections.
            let rp = results.map(|results| {
                let mut rp = Packet::result(packet.eth.src, packet.eth.dst, results);
                if let Some(tag) = packet.chain_tag().or(chain_tag) {
                    let _ = rp.push_chain_tag(tag);
                }
                rp
            });
            out.push((port, packet));
            if let Some(rp) = rp {
                out.push((port, rp));
            }
        }
        self.paired = paired;
    }

    fn label(&self) -> String {
        format!("middlebox:{}", self.mb.lock().name())
    }
}

/// A baseline middlebox that scans packets itself (no DPI service).
pub struct SelfScanNode {
    mb: Arc<Mutex<crate::engine::SelfScanMiddlebox>>,
}

impl SelfScanNode {
    /// Wraps a self-scanning middlebox; returns the node and a handle.
    pub fn new(
        mb: crate::engine::SelfScanMiddlebox,
    ) -> (SelfScanNode, Arc<Mutex<crate::engine::SelfScanMiddlebox>>) {
        let mb = Arc::new(Mutex::new(mb));
        (
            SelfScanNode {
                mb: Arc::clone(&mb),
            },
            mb,
        )
    }
}

impl Node for SelfScanNode {
    fn on_packet_into(&mut self, packet: Packet, port: PortId, out: &mut Vec<(PortId, Packet)>) {
        let forwards = match packet.payload() {
            Some(payload) => self
                .mb
                .lock()
                .process(packet.flow_key(), payload)
                .forwards(),
            None => true,
        };
        if forwards {
            out.push((port, packet));
        }
    }

    fn label(&self) -> String {
        format!("selfscan:{}", self.mb.lock().name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::logic::{MbAction, RuleLogic};
    use dpi_ac::MiddleboxId;
    use dpi_core::{InstanceConfig, MiddleboxProfile, RuleSpec};
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
        let (mut node, _h) =
            DpiServiceNode::new(dpi, ResultsDelivery::DedicatedPacket, MacAddr::local(9));
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
        let (mut node, _h) =
            DpiServiceNode::new(dpi, ResultsDelivery::DedicatedPacket, MacAddr::local(9));
        let mut p = tagged_pkt(b"payload", 5);
        p.pop_chain_tag();
        assert!(node.on_packet(p, 0).is_empty());
        assert_eq!(node.error_count(), 1);
    }

    #[test]
    fn middlebox_node_pairs_and_forwards() {
        let dpi = dpi_for(&["matchme99"], 5, &[1]);
        let (mut dpi_node, _h) =
            DpiServiceNode::new(dpi, ResultsDelivery::DedicatedPacket, MacAddr::local(9));
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
        let (mut dpi_node, _h) =
            DpiServiceNode::new(dpi, ResultsDelivery::DedicatedPacket, MacAddr::local(9));
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

    #[test]
    fn stale_generation_results_are_rejected_per_flow() {
        use dpi_packet::report::{MatchRecord, MiddleboxReport, ResultPacket};
        let mb = ServiceMiddlebox::new(
            MiddleboxId(1),
            "ids",
            RuleLogic::one_per_pattern(1, MbAction::Alert),
        );
        let (mut node, handle) = MiddleboxNode::new(mb, true);
        let fk = flow([1, 1, 1, 1], 9, [2, 2, 2, 2], 80, IpProtocol::Tcp);
        let result_of = |generation: u32, id: u32| {
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
        };
        let marked = || {
            let mut p = tagged_pkt(b"payload", 5);
            p.mark_matches();
            p
        };

        // A generation-2 result is consumed normally…
        let mut out = node.on_packet(marked(), 0);
        out.extend(node.on_packet(result_of(2, 1), 0));
        assert_eq!(out.len(), 2); // data + re-emitted result
        assert_eq!(handle.lock().stats().matches, 1);

        // …then a generation-1 straggler for the same flow (a retried
        // delivery from a not-yet-updated instance) is discarded: the
        // data forwards unpaired, the stale result is not re-emitted and
        // fires no rules.
        let mut out = node.on_packet(marked(), 0);
        out.extend(node.on_packet(result_of(1, 2), 0));
        assert_eq!(out.len(), 1);
        assert_eq!(node.stale_generation_drops(), 1);
        assert_eq!(handle.lock().stats().matches, 1);
    }

    #[test]
    fn inband_mode_strips_header_at_last_middlebox() {
        let dpi = dpi_for(&["inband99"], 5, &[1]);
        let (mut dpi_node, _h) =
            DpiServiceNode::new(dpi, ResultsDelivery::InBand, MacAddr::local(9));
        let mb = ServiceMiddlebox::new(
            MiddleboxId(1),
            "ids",
            RuleLogic::one_per_pattern(1, MbAction::Alert),
        );
        let (mut mb_node, handle) = MiddleboxNode::new(mb, true);
        let emitted = dpi_node.on_packet(tagged_pkt(b"see inband99 here", 5), 0);
        assert_eq!(emitted.len(), 1);
        assert!(emitted[0].1.dpi_results.is_some());
        let forwarded = mb_node.on_packet(emitted[0].1.clone(), 0);
        assert_eq!(forwarded.len(), 1);
        assert!(
            forwarded[0].1.dpi_results.is_none(),
            "last middlebox strips the header"
        );
        assert_eq!(handle.lock().stats().matches, 1);
    }

    #[test]
    fn selfscan_node_blocks_inline() {
        let mb = crate::engine::SelfScanMiddlebox::new(
            MiddleboxProfile::stateless(MiddleboxId(7)),
            "av",
            dpi_core::config::NumberedRule::sequence(vec![RuleSpec::exact(b"virus99".to_vec())]),
            RuleLogic::one_per_pattern(1, MbAction::Block),
        )
        .unwrap();
        let (mut node, handle) = SelfScanNode::new(mb);
        assert_eq!(node.on_packet(tagged_pkt(b"ok payload", 5), 0).len(), 1);
        assert!(node.on_packet(tagged_pkt(b"virus99", 5), 0).is_empty());
        assert_eq!(handle.lock().stats().bytes_self_scanned, 17);
    }
}
