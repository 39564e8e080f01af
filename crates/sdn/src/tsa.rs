//! The Traffic Steering Application (SIMPLE-style, §4).
//!
//! The paper's experimental topology is a star: "two user hosts, two
//! middlebox hosts, and a DPI service instance host. All hosts are
//! connected through a single switch and the TSA, implemented as a POX
//! module, steering traffic from one user host to the other according to
//! the defined policy chains" (§6.1). [`TrafficSteeringApp`] compiles
//! policy chains into that switch's flow rules:
//!
//! * ingress: untagged traffic from the source host is tagged with its
//!   chain id and sent to the first element (the DPI instance, which the
//!   controller inserts "prior to any middlebox that requires DPI"); a
//!   fleet of instances splits flows by hash, one bucket rule per
//!   instance, so the table never grows with flows;
//! * per element: tagged traffic returning from element *i* goes to
//!   element *i+1* — data packets and dedicated result packets alike,
//!   since both carry the tag;
//! * egress: tagged traffic leaving the last element has its tag popped
//!   and is delivered to the destination host; result packets are dropped
//!   at egress (they are meaningless to hosts).

use crate::flowtable::{Action, FlowMatch, FlowRule, FlowTable, Port};
use crate::switch::Switch;
use dpi_packet::{FlowKey, MacAddr, Packet};
use parking_lot::Mutex;
use std::sync::Arc;

/// The TSA: owns a handle to the switch's table and installs steering
/// rules.
#[derive(Debug, Clone)]
pub struct TrafficSteeringApp {
    table: Arc<Mutex<FlowTable>>,
}

/// Rule priorities used by the TSA (leaving room above for the per-flow
/// exceptions).
const PRIO_CHAIN: u16 = 100;
/// Per-flow exceptions sit between the chain rules and the result-drop
/// guard: specific enough to override a flow's bucket, never able to
/// leak result packets to hosts.
const PRIO_STEER: u16 = 105;
const PRIO_EGRESS_RESULT_DROP: u16 = 110;

impl TrafficSteeringApp {
    /// A TSA controlling `switch` directly.
    pub fn new(switch: &Switch) -> TrafficSteeringApp {
        TrafficSteeringApp {
            table: switch.table(),
        }
    }

    /// Installs the rules of one policy chain served by a *fleet* of DPI
    /// instances (a lone instance is a fleet of one, with one unbucketed
    /// rule): traffic entering at `ingress` is tagged `chain_id` and sent
    /// to `dpi_ports[i]` when its flow hashes to bucket `i` (or as a
    /// [`TrafficSteeringApp::steer_flow`] exception says), tagged traffic
    /// returning from *any* instance port proceeds to the first middlebox
    /// in `middleboxes` (or straight to `egress`), visits the rest in
    /// order and leaves untagged at `egress`. The DPI service comes first — the
    /// §4 invariant that it precedes every middlebox that consumes its
    /// results — and result packets are dropped where the chain's rules
    /// point at the egress.
    pub fn install_chain_fleet(
        &self,
        chain_id: u16,
        ingress: Port,
        dpi_ports: &[Port],
        middleboxes: &[Port],
        egress: Port,
    ) {
        assert!(
            !dpi_ports.is_empty(),
            "a fleet chain needs at least one DPI instance"
        );
        let mut t = self.table.lock();
        // Ingress: tag and go to the flow's instance.
        let n = dpi_ports.len() as u16;
        for (i, &dp) in dpi_ports.iter().enumerate() {
            t.install(FlowRule {
                priority: PRIO_CHAIN,
                m: FlowMatch {
                    flow_bucket: (n > 1).then_some((n, i as u16)),
                    ..FlowMatch::any().from_port(ingress).untagged()
                },
                actions: vec![Action::PushTag(chain_id), Action::Output(dp)],
            });
        }
        // Any instance → first middlebox (or egress for an empty chain).
        let after_dpi = middleboxes.first().copied();
        for &dp in dpi_ports {
            let actions = match after_dpi {
                Some(mb) => vec![Action::Output(mb)],
                None => vec![Action::PopTag, Action::Output(egress)],
            };
            t.install(FlowRule {
                priority: PRIO_CHAIN,
                m: FlowMatch::any().from_port(dp).with_tag(chain_id),
                actions,
            });
        }
        // Middlebox i → middlebox i+1, last → egress untagged.
        for (i, &port) in middleboxes.iter().enumerate() {
            let next = middleboxes.get(i + 1).copied();
            let actions = match next {
                Some(n) => vec![Action::Output(n)],
                None => vec![Action::PopTag, Action::Output(egress)],
            };
            t.install(FlowRule {
                priority: PRIO_CHAIN,
                m: FlowMatch::any().from_port(port).with_tag(chain_id),
                actions,
            });
        }
        // Result packets never reach hosts: guard the ports whose chain
        // rules point at the egress.
        let result_guard_ports: Vec<Port> = match middleboxes.last() {
            Some(&last) => vec![last],
            None => dpi_ports.to_vec(),
        };
        for port in result_guard_ports {
            t.install(FlowRule {
                priority: PRIO_EGRESS_RESULT_DROP,
                m: FlowMatch {
                    in_port: Some(port),
                    vlan_vid: Some(chain_id),
                    tagged: Some(true),
                    body_is_result: Some(true),
                    ..FlowMatch::default()
                },
                actions: vec![Action::Drop],
            });
        }
    }

    /// Pins one flow to a chain and a DPI instance port: an exception
    /// matching the flow's 4-tuple at ingress, above its bucket rule — a
    /// balancer migration, or a flow put on a chain other than the
    /// ingress default. Replaces any previous exception for the same
    /// flow, so re-steering a single flow is this same call with a new
    /// port.
    pub fn steer_flow(&self, chain_id: u16, ingress: Port, flow: &FlowKey, dpi_port: Port) {
        let m = FlowMatch::any()
            .from_port(ingress)
            .untagged()
            .for_flow(flow);
        let mut t = self.table.lock();
        t.remove_where(|r| r.priority == PRIO_STEER && r.m == m);
        t.install(FlowRule {
            priority: PRIO_STEER,
            m,
            actions: vec![Action::PushTag(chain_id), Action::Output(dpi_port)],
        });
    }

    /// Re-steers every ingress-side rule (bucket rules and per-flow
    /// exceptions) that currently sends traffic to `from_dpi`, so it
    /// sends to `to_dpi` instead — the failover action the controller
    /// takes when an instance is declared dead (§4: "re-steers its flows
    /// to surviving instances"). Returns how many rules were rewritten.
    pub fn resteer(&self, from_dpi: Port, to_dpi: Port) -> usize {
        let mut rewritten = 0;
        self.table.lock().map_rules(|r| {
            // Only ingress-side rules (they match untagged traffic);
            // rules *from* the dead instance's port are left alone — no
            // traffic will arrive from it.
            if r.m.tagged != Some(false) {
                return;
            }
            for a in &mut r.actions {
                if *a == Action::Output(from_dpi) {
                    *a = Action::Output(to_dpi);
                    rewritten += 1;
                }
            }
        });
        rewritten
    }

    /// The chain tag and DPI instance port the switch gives `flow`'s
    /// packets entering at `ingress`: a probe packet of the flow is
    /// looked up like a sent one, so buckets, exceptions and failover
    /// rewrites all answer. `None` if no rule there tags and forwards it.
    pub fn steering_of(&self, ingress: Port, flow: &FlowKey) -> Option<(u16, Port)> {
        let probe = Packet::tcp(MacAddr::local(1), MacAddr::local(2), *flow, 0, Vec::new());
        match self.table.lock().lookup(&probe, ingress)?.actions[..] {
            [Action::PushTag(chain), Action::Output(port)] => Some((chain, port)),
            _ => None,
        }
    }

    /// Number of installed rules (diagnostics).
    pub fn rule_count(&self) -> usize {
        self.table.lock().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::{Network, Node, PortId, SinkHost};
    use dpi_packet::ipv4::IpProtocol;
    use dpi_packet::packet::flow;

    /// A service element that stamps nothing and bounces packets back on
    /// the port they came from (like a middlebox host with one NIC).
    struct Bounce;
    impl Node for Bounce {
        fn on_packet(&mut self, packet: Packet, port: PortId) -> Vec<(PortId, Packet)> {
            vec![(port, packet)]
        }
    }

    fn pkt() -> Packet {
        Packet::tcp(
            MacAddr::local(1),
            MacAddr::local(2),
            flow([10, 0, 0, 1], 9999, [10, 0, 0, 2], 80, IpProtocol::Tcp),
            0,
            b"through the chain".to_vec(),
        )
    }

    /// Builds the paper's star: switch port 0=src host, 1=dst host,
    /// 2=element A, 3=element B.
    fn star() -> (
        Network,
        crate::network::NodeId,
        SinkHost,
        TrafficSteeringApp,
    ) {
        let mut net = Network::new(1000);
        let sw = Switch::new("s1");
        let tsa = TrafficSteeringApp::new(&sw);
        let sw_id = net.add_node(Box::new(sw));
        let sink = SinkHost::new();
        let dst = net.add_node(Box::new(sink.clone()));
        let a = net.add_node(Box::new(Bounce));
        let b = net.add_node(Box::new(Bounce));
        net.link(sw_id, 1, dst, 0);
        net.link(sw_id, 2, a, 0);
        net.link(sw_id, 3, b, 0);
        (net, sw_id, sink, tsa)
    }

    /// Rules at `priority` in the table that send to `port`.
    fn rules_to(tsa: &TrafficSteeringApp, priority: u16, port: Port) -> usize {
        tsa.table
            .lock()
            .rules()
            .iter()
            .filter(|r| r.priority == priority && r.actions.contains(&Action::Output(port)))
            .count()
    }

    /// Per-flow exceptions in the table that send to `port`.
    fn steer_rules_to(tsa: &TrafficSteeringApp, port: Port) -> usize {
        rules_to(tsa, PRIO_STEER, port)
    }

    /// Ingress bucket rules in the table that send to `port`.
    fn bucket_rules_to(tsa: &TrafficSteeringApp, port: Port) -> usize {
        tsa.table
            .lock()
            .rules()
            .iter()
            .filter(|r| r.m.flow_bucket.is_some() && r.actions.contains(&Action::Output(port)))
            .count()
    }

    #[test]
    fn chain_traverses_elements_and_arrives_untagged() {
        let (mut net, sw, sink, tsa) = star();
        tsa.install_chain_fleet(7, 0, &[2], &[3], 1);
        // A lone instance takes every flow with one unbucketed rule.
        assert_eq!(bucket_rules_to(&tsa, 2), 0);
        assert_eq!(rules_to(&tsa, PRIO_CHAIN, 2), 1);
        net.inject(sw, 0, pkt());
        net.run();
        let received = sink.received();
        assert_eq!(received.len(), 1);
        assert!(received[0].vlan.is_empty(), "tag must be popped");
        assert_eq!(received[0].payload().unwrap(), b"through the chain");
    }

    #[test]
    fn fleet_chain_accepts_traffic_from_any_instance_port() {
        // Star with two "DPI instances" (Bounce at ports 2 and 3) and no
        // middleboxes; both paths must deliver untagged to the sink.
        let (mut net, sw, sink, tsa) = star();
        tsa.install_chain_fleet(7, 0, &[2, 3], &[], 1);
        // One bucket rule per instance; the flow takes its bucket's.
        assert_eq!((bucket_rules_to(&tsa, 2), bucket_rules_to(&tsa, 3)), (1, 1));
        let f = pkt().flow_key().unwrap();
        let (tag, bucket_port) = tsa.steering_of(0, &f).unwrap();
        assert_eq!(tag, 7);
        net.inject(sw, 0, pkt());
        net.run();
        assert_eq!(sink.received().len(), 1);
        // Steer the flow to the other instance: still delivered.
        let other = 5 - bucket_port;
        tsa.steer_flow(7, 0, &f, other);
        assert_eq!(steer_rules_to(&tsa, other), 1);
        assert_eq!(tsa.steering_of(0, &f), Some((7, other)));
        net.inject(sw, 0, pkt());
        net.run();
        assert_eq!(sink.received().len(), 2);
        assert!(sink.received().iter().all(|p| p.vlan.is_empty()));
    }

    #[test]
    fn steer_flow_replaces_previous_rule_and_resteer_rewrites() {
        let (_net, _sw, _dst, tsa) = star();
        tsa.install_chain_fleet(7, 0, &[2, 3], &[], 1);
        let f = pkt().flow_key().unwrap();
        tsa.steer_flow(7, 0, &f, 2);
        tsa.steer_flow(7, 0, &f, 2);
        assert_eq!(steer_rules_to(&tsa, 2), 1, "same flow must not stack rules");
        // Failover: everything aimed at port 2 (the exception and port
        // 2's bucket rule) moves to port 3.
        let rewritten = tsa.resteer(2, 3);
        assert_eq!(rewritten, 2);
        assert_eq!(steer_rules_to(&tsa, 2), 0);
        assert_eq!(steer_rules_to(&tsa, 3), 1);
        assert_eq!((bucket_rules_to(&tsa, 2), bucket_rules_to(&tsa, 3)), (0, 2));
    }

    #[test]
    fn fleet_result_packets_do_not_reach_hosts_without_middleboxes() {
        let (mut net, sw, sink, tsa) = star();
        tsa.install_chain_fleet(7, 0, &[2], &[], 1);
        // Hand-craft a tagged result packet coming back from the
        // instance port, as a DPI node would emit it.
        let report = dpi_packet::report::ResultPacket {
            packet_id: 1,
            generation: 0,
            flow: pkt().flow_key().unwrap(),
            flow_offset: 0,
            reports: Vec::new(),
        };
        let mut rp = Packet::result(MacAddr::local(9), MacAddr::local(2), report);
        rp.push_chain_tag(7).unwrap();
        net.inject(sw, 2, rp);
        net.run();
        assert!(sink.received().is_empty(), "result packet must be dropped");
    }
}
