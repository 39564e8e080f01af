//! OpenFlow-style flow tables.

use dpi_packet::ethernet::EtherType;
use dpi_packet::ipv4::Ecn;
use dpi_packet::packet::PacketBody;
use dpi_packet::vlan::VlanTag;
use dpi_packet::Packet;
use serde::{Deserialize, Serialize};

/// A port number on a switch.
pub type Port = u16;

/// Match fields; `None` is a wildcard.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FlowMatch {
    /// Ingress port.
    pub in_port: Option<Port>,
    /// Outer EtherType as seen on the wire (VLAN if tagged).
    pub ethertype: Option<u16>,
    /// Outermost VLAN VID — the policy-chain tag (§4.1).
    pub vlan_vid: Option<u16>,
    /// Whether the packet carries any VLAN tag.
    pub tagged: Option<bool>,
    /// IPv4 source.
    pub ip_src: Option<std::net::Ipv4Addr>,
    /// IPv4 destination.
    pub ip_dst: Option<std::net::Ipv4Addr>,
    /// L4 source port.
    pub l4_src: Option<u16>,
    /// L4 destination port.
    pub l4_dst: Option<u16>,
    /// ECN codepoint — how middlebox-bound rules recognize the DPI
    /// match-mark (§6.1).
    pub ecn: Option<Ecn>,
    /// Whether the body is a dedicated DPI result packet — lets the TSA
    /// fork results-only traffic to read-only middleboxes (§4.2 option 3).
    pub body_is_result: Option<bool>,
    /// `(modulus, residue)`: the packet's flow hashes to `residue` of
    /// `modulus` buckets — how a fleet chain's ingress rules split flows
    /// between instances. A packet without a flow key never matches.
    pub flow_bucket: Option<(u16, u16)>,
}

impl FlowMatch {
    /// The match-anything entry.
    pub fn any() -> FlowMatch {
        FlowMatch::default()
    }

    /// Restricts to an ingress port.
    pub fn from_port(mut self, p: Port) -> FlowMatch {
        self.in_port = Some(p);
        self
    }

    /// Restricts to a chain tag.
    pub fn with_tag(mut self, vid: u16) -> FlowMatch {
        self.vlan_vid = Some(vid);
        self.tagged = Some(true);
        self
    }

    /// Restricts to untagged packets.
    pub fn untagged(mut self) -> FlowMatch {
        self.tagged = Some(false);
        self
    }

    /// Restricts to one directional flow (source/destination IPs and L4
    /// ports) — the match of a per-flow steering exception.
    pub fn for_flow(mut self, flow: &dpi_packet::FlowKey) -> FlowMatch {
        self.ip_src = Some(flow.src_ip);
        self.ip_dst = Some(flow.dst_ip);
        self.l4_src = Some(flow.src_port);
        self.l4_dst = Some(flow.dst_port);
        self
    }

    /// Whether `packet` arriving on `in_port` satisfies every specified
    /// field.
    pub fn matches(&self, packet: &Packet, in_port: Port) -> bool {
        if let Some(p) = self.in_port {
            if p != in_port {
                return false;
            }
        }
        if let Some(r) = self.body_is_result {
            if r != matches!(packet.body, PacketBody::Result(_)) {
                return false;
            }
        }
        if let Some(t) = self.tagged {
            if t == packet.vlan.is_empty() {
                return false;
            }
        }
        if let Some(vid) = self.vlan_vid {
            if packet.chain_tag() != Some(vid) {
                return false;
            }
        }
        if let Some(et) = self.ethertype {
            let actual = if !packet.vlan.is_empty() {
                EtherType::Vlan.to_u16()
            } else {
                match &packet.body {
                    PacketBody::Ipv4 { .. } => EtherType::Ipv4.to_u16(),
                    PacketBody::Result(_) => EtherType::ResultPacket.to_u16(),
                    PacketBody::Raw(_) => packet.eth.ethertype.to_u16(),
                }
            };
            if et != actual {
                return false;
            }
        }
        if self.ip_src.is_some()
            || self.ip_dst.is_some()
            || self.l4_src.is_some()
            || self.l4_dst.is_some()
            || self.ecn.is_some()
        {
            match &packet.body {
                PacketBody::Ipv4 { header, l4, .. } => {
                    if let Some(s) = self.ip_src {
                        if header.src != s {
                            return false;
                        }
                    }
                    if let Some(d) = self.ip_dst {
                        if header.dst != d {
                            return false;
                        }
                    }
                    if let Some(p) = self.l4_src {
                        if l4.src_port() != p {
                            return false;
                        }
                    }
                    if let Some(p) = self.l4_dst {
                        if l4.dst_port() != p {
                            return false;
                        }
                    }
                    if let Some(e) = self.ecn {
                        if header.ecn != e {
                            return false;
                        }
                    }
                }
                _ => return false,
            }
        }
        if let Some((modulus, residue)) = self.flow_bucket {
            // The hash's high half, independent of the low-half `% shards`
            // routing inside an instance; multiply-shift, because `% 4` of
            // FNV-1a's low bits there left a bucket empty.
            let Some(f) = packet.flow_key() else {
                return false;
            };
            return ((f.stable_hash() >> 32) * u64::from(modulus)) >> 32 == u64::from(residue);
        }
        true
    }
}

/// An OpenFlow-style action.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Action {
    /// Emit on a port.
    Output(Port),
    /// Push a policy-chain VLAN tag (§4.1).
    PushTag(u16),
    /// Pop the outermost tag.
    PopTag,
    /// Drop the packet (explicit, for readable rule sets).
    Drop,
}

/// A prioritized rule.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FlowRule {
    /// Higher wins.
    pub priority: u16,
    /// The match.
    pub m: FlowMatch,
    /// Applied in order.
    pub actions: Vec<Action>,
}

/// A flow table: rules sorted by descending priority (stable for equal
/// priorities: first-installed wins, like OpenFlow's overlap behaviour
/// with `CHECK_OVERLAP` unset).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct FlowTable {
    rules: Vec<FlowRule>,
}

impl FlowTable {
    /// An empty table (drops everything).
    pub fn new() -> FlowTable {
        FlowTable::default()
    }

    /// Installs a rule.
    pub fn install(&mut self, rule: FlowRule) {
        let pos = self.rules.partition_point(|r| r.priority >= rule.priority);
        self.rules.insert(pos, rule);
    }

    /// Removes all rules matching a predicate; returns how many.
    pub fn remove_where<F: Fn(&FlowRule) -> bool>(&mut self, pred: F) -> usize {
        let before = self.rules.len();
        self.rules.retain(|r| !pred(r));
        before - self.rules.len()
    }

    /// The installed rules, highest priority first.
    pub fn rules(&self) -> &[FlowRule] {
        &self.rules
    }

    /// Mutates every rule in place (e.g. re-steering: rewriting output
    /// ports after an instance dies). The callback must not change
    /// priorities — the table's sort order is not re-derived.
    pub fn map_rules<F: FnMut(&mut FlowRule)>(&mut self, mut f: F) {
        for r in &mut self.rules {
            f(r);
        }
    }

    /// Number of rules.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Looks up the highest-priority matching rule.
    pub fn lookup(&self, packet: &Packet, in_port: Port) -> Option<&FlowRule> {
        self.rules.iter().find(|r| r.m.matches(packet, in_port))
    }

    /// Applies a rule's actions, appending `(out_port, packet)` emissions
    /// to `out`. Each `Output` sees the packet as the actions before it
    /// left it; a `Drop` or a `PushTag` with an invalid vid anywhere in
    /// the list suppresses every output of the rule. The packet is moved
    /// into the last `Output`; only earlier ones (multicast) clone it.
    pub fn apply(rule: &FlowRule, mut packet: Packet, out: &mut Vec<(Port, Packet)>) {
        // An invalid vid is a rule-authoring bug; drop rather than emit a
        // malformed packet. Decided up front, so nothing emitted has to
        // be taken back.
        let suppressed = rule.actions.iter().any(|a| match a {
            Action::Drop => true,
            Action::PushTag(vid) => VlanTag::for_chain(*vid).is_err(),
            Action::Output(_) | Action::PopTag => false,
        });
        if suppressed {
            return;
        }
        let mut outputs_left = rule
            .actions
            .iter()
            .filter(|a| matches!(a, Action::Output(_)))
            .count();
        for a in &rule.actions {
            match a {
                Action::Output(p) => {
                    outputs_left -= 1;
                    if outputs_left == 0 {
                        // Nothing after the last output is observable.
                        out.push((*p, packet));
                        return;
                    }
                    out.push((*p, packet.clone()));
                }
                Action::PushTag(vid) => packet
                    .push_chain_tag(*vid)
                    .expect("every vid in the list was validated above"),
                Action::PopTag => {
                    packet.pop_chain_tag();
                }
                Action::Drop => unreachable!("a list with a Drop was suppressed above"),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpi_packet::ipv4::IpProtocol;
    use dpi_packet::packet::flow;
    use dpi_packet::MacAddr;

    fn pkt() -> Packet {
        Packet::tcp(
            MacAddr::local(1),
            MacAddr::local(2),
            flow([10, 0, 0, 1], 1000, [10, 0, 0, 2], 80, IpProtocol::Tcp),
            0,
            b"hello".to_vec(),
        )
    }

    fn apply(rule: &FlowRule, packet: Packet) -> Vec<(Port, Packet)> {
        let mut out = Vec::new();
        FlowTable::apply(rule, packet, &mut out);
        out
    }

    #[test]
    fn wildcard_matches_everything() {
        assert!(FlowMatch::any().matches(&pkt(), 3));
    }

    #[test]
    fn port_and_tag_matching() {
        let mut p = pkt();
        assert!(FlowMatch::any().from_port(1).matches(&p, 1));
        assert!(!FlowMatch::any().from_port(1).matches(&p, 2));
        assert!(FlowMatch::any().untagged().matches(&p, 0));
        assert!(!FlowMatch::any().with_tag(5).matches(&p, 0));
        p.push_chain_tag(5).unwrap();
        assert!(FlowMatch::any().with_tag(5).matches(&p, 0));
        assert!(!FlowMatch::any().untagged().matches(&p, 0));
    }

    #[test]
    fn ecn_matching_sees_the_dpi_mark() {
        let mut p = pkt();
        let m = FlowMatch {
            ecn: Some(Ecn::Ect0),
            ..FlowMatch::default()
        };
        assert!(!m.matches(&p, 0));
        p.mark_matches();
        assert!(m.matches(&p, 0));
    }

    #[test]
    fn five_tuple_matching() {
        let p = pkt();
        let m = FlowMatch {
            ip_dst: Some([10, 0, 0, 2].into()),
            l4_dst: Some(80),
            ..FlowMatch::default()
        };
        assert!(m.matches(&p, 0));
        let wrong = FlowMatch {
            l4_dst: Some(443),
            ..FlowMatch::default()
        };
        assert!(!wrong.matches(&p, 0));
    }

    #[test]
    fn every_flow_matches_exactly_one_bucket_and_a_flowless_packet_none() {
        let bucket = |modulus, residue| FlowMatch {
            flow_bucket: Some((modulus, residue)),
            ..FlowMatch::default()
        };
        let mut raw = pkt();
        raw.body = PacketBody::Raw(b"no flow key".to_vec());
        for modulus in 1..=4u16 {
            let mut per_bucket = vec![0; usize::from(modulus)];
            for src_port in 1000..1200 {
                let f = flow([10, 0, 0, 1], src_port, [10, 0, 0, 2], 80, IpProtocol::Tcp);
                let p = Packet::tcp(MacAddr::local(1), MacAddr::local(2), f, 0, Vec::new());
                let hits: Vec<u16> = (0..modulus)
                    .filter(|&r| bucket(modulus, r).matches(&p, 0))
                    .collect();
                assert_eq!(hits.len(), 1, "{f} in {modulus} buckets: {hits:?}");
                per_bucket[usize::from(hits[0])] += 1;
            }
            assert!(per_bucket.iter().all(|&n| n > 0), "{per_bucket:?}");
            assert!((0..modulus).all(|r| !bucket(modulus, r).matches(&raw, 0)));
        }
    }

    #[test]
    fn priority_order_and_stability() {
        let mut t = FlowTable::new();
        t.install(FlowRule {
            priority: 1,
            m: FlowMatch::any(),
            actions: vec![Action::Output(1)],
        });
        t.install(FlowRule {
            priority: 10,
            m: FlowMatch::any().from_port(7),
            actions: vec![Action::Output(2)],
        });
        // Specific rule wins on port 7.
        assert_eq!(
            t.lookup(&pkt(), 7).unwrap().actions,
            vec![Action::Output(2)]
        );
        assert_eq!(
            t.lookup(&pkt(), 3).unwrap().actions,
            vec![Action::Output(1)]
        );
    }

    #[test]
    fn empty_table_drops() {
        assert!(FlowTable::new().lookup(&pkt(), 0).is_none());
    }

    #[test]
    fn apply_tag_then_output() {
        let rule = FlowRule {
            priority: 0,
            m: FlowMatch::any(),
            actions: vec![Action::PushTag(9), Action::Output(4)],
        };
        let out = apply(&rule, pkt());
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].0, 4);
        assert_eq!(out[0].1.chain_tag(), Some(9));
    }

    #[test]
    fn apply_multicast_outputs() {
        let rule = FlowRule {
            priority: 0,
            m: FlowMatch::any(),
            actions: vec![Action::Output(1), Action::Output(2)],
        };
        assert_eq!(apply(&rule, pkt()).len(), 2);
    }

    #[test]
    fn drop_action_suppresses_all_output() {
        let rule = FlowRule {
            priority: 0,
            m: FlowMatch::any(),
            actions: vec![Action::Output(1), Action::Drop],
        };
        assert!(apply(&rule, pkt()).is_empty());
    }

    #[test]
    fn outputs_see_the_packet_as_earlier_actions_left_it() {
        let rule = |actions: Vec<Action>| FlowRule {
            priority: 0,
            m: FlowMatch::any(),
            actions,
        };
        // Each case: the action list, then the `(port, chain tag)` of
        // every emission in order.
        type Emitted = Vec<(Port, Option<u16>)>;
        let cases: Vec<(Vec<Action>, Emitted)> = vec![
            (
                vec![Action::Output(1), Action::PushTag(7), Action::Output(2)],
                vec![(1, None), (2, Some(7))],
            ),
            (
                vec![Action::PushTag(7), Action::Output(1), Action::PopTag],
                vec![(1, Some(7))],
            ),
            (
                vec![
                    Action::PushTag(7),
                    Action::Output(1),
                    Action::PopTag,
                    Action::Output(2),
                ],
                vec![(1, Some(7)), (2, None)],
            ),
            (
                vec![Action::Output(1), Action::Output(2), Action::Drop],
                vec![],
            ),
            (vec![Action::Output(1), Action::PushTag(0xfff)], vec![]),
            (vec![Action::PushTag(0xfff), Action::Output(1)], vec![]),
            (vec![Action::PushTag(7), Action::PopTag], vec![]),
        ];
        for (actions, want) in cases {
            let got: Emitted = apply(&rule(actions.clone()), pkt())
                .iter()
                .map(|(port, p)| (*port, p.chain_tag()))
                .collect();
            assert_eq!(got, want, "{actions:?}");
        }
    }

    #[test]
    fn remove_where_uninstalls() {
        let mut t = FlowTable::new();
        for vid in 0..4 {
            t.install(FlowRule {
                priority: 5,
                m: FlowMatch::any().with_tag(vid),
                actions: vec![Action::Output(1)],
            });
        }
        assert_eq!(t.remove_where(|r| r.m.vlan_vid == Some(2)), 1);
        assert_eq!(t.len(), 3);
    }
}
