//! A rule-driven switch node.

use crate::flowtable::{FlowRule, FlowTable};
use crate::network::{Node, PortId};
use dpi_packet::Packet;
use parking_lot::Mutex;
use std::sync::Arc;

/// An OpenFlow-style switch. Its table handle can be shared with a
/// controller/TSA (which installs rules) while the switch itself lives
/// inside the [`crate::Network`].
#[derive(Debug, Clone)]
pub struct Switch {
    name: String,
    table: Arc<Mutex<FlowTable>>,
}

impl Switch {
    /// A switch with an empty table.
    pub fn new(name: &str) -> Switch {
        Switch {
            name: name.to_string(),
            table: Arc::new(Mutex::new(FlowTable::new())),
        }
    }

    /// The shared table handle (for the TSA / SDN controller).
    pub fn table(&self) -> Arc<Mutex<FlowTable>> {
        Arc::clone(&self.table)
    }

    /// Installs one rule.
    pub fn install(&self, rule: FlowRule) {
        self.table.lock().install(rule);
    }
}

impl Node for Switch {
    fn on_packet_into(&mut self, packet: Packet, port: PortId, out: &mut Vec<(PortId, Packet)>) {
        let table = self.table.lock();
        // A table miss drops the packet.
        if let Some(rule) = table.lookup(&packet, port) {
            FlowTable::apply(rule, packet, out);
        }
    }

    fn label(&self) -> String {
        format!("switch:{}", self.name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flowtable::{Action, FlowMatch};
    use dpi_packet::ipv4::IpProtocol;
    use dpi_packet::packet::flow;
    use dpi_packet::MacAddr;

    fn pkt() -> Packet {
        Packet::tcp(
            MacAddr::local(1),
            MacAddr::local(2),
            flow([1, 1, 1, 1], 5, [2, 2, 2, 2], 80, IpProtocol::Tcp),
            0,
            b"payload".to_vec(),
        )
    }

    #[test]
    fn switch_forwards_by_rules() {
        let mut sw = Switch::new("s1");
        sw.install(FlowRule {
            priority: 1,
            m: FlowMatch::any().from_port(1),
            actions: vec![Action::Output(2)],
        });
        let out = sw.on_packet(pkt(), 1);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].0, 2);
    }

    #[test]
    fn table_miss_drops() {
        let mut sw = Switch::new("s1");
        assert!(sw.on_packet(pkt(), 1).is_empty());
    }

    #[test]
    fn shared_table_handle_updates_live_switch() {
        let mut sw = Switch::new("s1");
        let handle = sw.table();
        handle.lock().install(FlowRule {
            priority: 1,
            m: FlowMatch::any(),
            actions: vec![Action::Output(9)],
        });
        assert_eq!(sw.on_packet(pkt(), 0)[0].0, 9);
    }
}
