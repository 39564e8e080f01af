//! The simulated network: nodes, links and the event loop.

use crate::flowtable::Port;
use dpi_packet::Packet;
use std::collections::VecDeque;

/// Node identifier within a [`Network`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

/// Port identifier (node-local).
pub type PortId = Port;

/// Anything attached to the network: a switch, a host, a DPI service
/// instance, a middlebox.
///
/// A packet is handed over by value and leaves as zero or more
/// `(out_port, packet)` emissions. Implement **one** of the two handlers
/// (each is provided in terms of the other, so a node implementing
/// neither recurses until the stack overflows on its first packet):
/// [`Node::on_packet_into`] appends to the buffer [`Network::run`] reuses
/// for every delivery and is what every node of this workspace
/// implements; [`Node::on_packet`] returns a fresh `Vec` per packet.
pub trait Node {
    /// Handles a packet arriving on `port`; returns `(out_port, packet)`
    /// emissions.
    fn on_packet(&mut self, packet: Packet, port: PortId) -> Vec<(PortId, Packet)> {
        let mut out = Vec::new();
        self.on_packet_into(packet, port, &mut out);
        out
    }

    /// Handles a packet arriving on `port`, appending its emissions to
    /// `out` (whatever `out` already holds is not this node's to touch).
    fn on_packet_into(&mut self, packet: Packet, port: PortId, out: &mut Vec<(PortId, Packet)>) {
        out.extend(self.on_packet(packet, port));
    }

    /// Called by [`Network::run`] once nothing is in flight: appends
    /// whatever the node holds for a packet that can no longer come.
    /// The default holds nothing.
    fn flush(&mut self, _out: &mut Vec<(PortId, Packet)>) {}

    /// Human-readable label for diagnostics.
    fn label(&self) -> String {
        "node".to_string()
    }
}

/// A simple traffic sink that records everything it receives. Useful as a
/// destination host. The receive buffer is shared: keep a clone outside
/// the network to read what arrived (same pattern as
/// [`crate::Switch::table`]).
#[derive(Debug, Default, Clone)]
pub struct SinkHost {
    received: std::sync::Arc<parking_lot::Mutex<Vec<Packet>>>,
}

impl SinkHost {
    /// A fresh sink.
    pub fn new() -> SinkHost {
        SinkHost::default()
    }

    /// All packets received so far, in arrival order.
    pub fn received(&self) -> Vec<Packet> {
        self.received.lock().clone()
    }

    /// Number of packets received.
    pub fn count(&self) -> usize {
        self.received.lock().len()
    }
}

impl Node for SinkHost {
    fn on_packet_into(&mut self, packet: Packet, _port: PortId, _out: &mut Vec<(PortId, Packet)>) {
        self.received.lock().push(packet);
    }

    fn label(&self) -> String {
        "sink-host".to_string()
    }
}

/// The network: nodes plus a link table `(node, port) → (node, port)`.
///
/// Delivery is breadth-first FIFO: [`Network::inject`] queues a packet at
/// a node's port, [`Network::run`] drains the queue to quiescence. There
/// is no notion of time or loss — links are reliable and ordered, like
/// Mininet veth pairs.
pub struct Network {
    nodes: Vec<Box<dyn Node>>,
    /// `links[node][port]` is the far end of that port's link. Dense:
    /// ports are small per-node integers, and `run` reads this once per
    /// emission.
    links: Vec<Vec<Option<(NodeId, PortId)>>>,
    queue: VecDeque<(NodeId, PortId, Packet)>,
    /// The buffer every node emits into; drained after each delivery, so
    /// its allocation is reused for the network's lifetime.
    emissions: Vec<(PortId, Packet)>,
    /// Packets that left through an unconnected port (usually a bug in
    /// the rule set; kept for inspection).
    pub dropped_at_edge: Vec<(NodeId, PortId, Packet)>,
    /// Packets discarded by the loop guard across all `run` calls.
    dropped: u64,
    /// Safety valve against forwarding loops.
    max_hops: usize,
}

impl Network {
    /// An empty network. `max_hops` bounds total deliveries per `run` call
    /// (forwarding-loop protection).
    pub fn new(max_hops: usize) -> Network {
        Network {
            nodes: Vec::new(),
            links: Vec::new(),
            queue: VecDeque::new(),
            emissions: Vec::new(),
            dropped_at_edge: Vec::new(),
            dropped: 0,
            max_hops,
        }
    }

    /// Adds a node, returning its id.
    pub fn add_node(&mut self, node: Box<dyn Node>) -> NodeId {
        self.nodes.push(node);
        NodeId(self.nodes.len() as u32 - 1)
    }

    /// Connects two node ports bidirectionally.
    pub fn link(&mut self, a: NodeId, ap: PortId, b: NodeId, bp: PortId) {
        self.set_link(a, ap, (b, bp));
        self.set_link(b, bp, (a, ap));
    }

    fn set_link(&mut self, node: NodeId, port: PortId, far_end: (NodeId, PortId)) {
        let (node, port) = (node.0 as usize, usize::from(port));
        if self.links.len() <= node {
            self.links.resize_with(node + 1, Vec::new);
        }
        let ports = &mut self.links[node];
        if ports.len() <= port {
            ports.resize(port + 1, None);
        }
        ports[port] = Some(far_end);
    }

    /// Queues a packet for delivery *to* `node` on `port` (as if it
    /// arrived over the wire).
    pub fn inject(&mut self, node: NodeId, port: PortId, packet: Packet) {
        self.queue.push_back((node, port, packet));
    }

    /// Runs until no packets are in flight and no node holds one.
    /// Returns the number of deliveries performed. Each time the queue
    /// drains, every node is flushed ([`Node::flush`]) and what it
    /// releases is routed on; the run ends after a flush pass that puts
    /// nothing in flight.
    ///
    /// If the `max_hops` loop guard fires, every still-queued packet is
    /// *counted* as dropped (see [`Network::dropped`]) and the first one
    /// is kept in [`Network::dropped_at_edge`] for inspection; one
    /// warning per run goes to stderr.
    pub fn run(&mut self) -> usize {
        let mut deliveries = 0;
        loop {
            while let Some((node, port, packet)) = self.queue.pop_front() {
                if deliveries >= self.max_hops {
                    // Loop guard: drop the remainder loudly — the packet in
                    // hand plus everything still queued.
                    let discarded = 1 + self.queue.len() as u64;
                    self.dropped += discarded;
                    eprintln!(
                        "network: max_hops={} exhausted at {} ({}); discarding {} in-flight packet(s)",
                        self.max_hops,
                        self.nodes[node.0 as usize].label(),
                        node.0,
                        discarded,
                    );
                    self.dropped_at_edge.push((node, port, packet));
                    self.queue.clear();
                    return deliveries;
                }
                deliveries += 1;
                self.nodes[node.0 as usize].on_packet_into(packet, port, &mut self.emissions);
                self.route(node);
            }
            for node in 0..self.nodes.len() {
                self.nodes[node].flush(&mut self.emissions);
                if !self.emissions.is_empty() {
                    self.route(NodeId(node as u32));
                }
            }
            if self.queue.is_empty() {
                return deliveries;
            }
        }
    }

    /// Queues what `node` just emitted at the far ends of its links.
    #[inline]
    fn route(&mut self, node: NodeId) {
        let ports = self
            .links
            .get(node.0 as usize)
            .map_or(&[][..], Vec::as_slice);
        for (out_port, pkt) in self.emissions.drain(..) {
            match ports.get(usize::from(out_port)) {
                Some(&Some((dst, dst_port))) => self.queue.push_back((dst, dst_port, pkt)),
                _ => self.dropped_at_edge.push((node, out_port, pkt)),
            }
        }
    }

    /// Packets silently discarded by the `max_hops` loop guard, across
    /// all [`Network::run`] calls. Zero in any healthy run — assert on it
    /// in end-to-end tests.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the network has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }
}

impl std::fmt::Debug for Network {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Network")
            .field("nodes", &self.nodes.len())
            .field(
                "links",
                &(self.links.iter().flatten().flatten().count() / 2),
            )
            .field("queued", &self.queue.len())
            .field("dropped_at_edge", &self.dropped_at_edge.len())
            .finish()
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
            flow([1, 1, 1, 1], 1, [2, 2, 2, 2], 2, IpProtocol::Tcp),
            0,
            b"x".to_vec(),
        )
    }

    /// Forwards everything from port 0 to port 1 and vice versa.
    struct Pipe;
    impl Node for Pipe {
        fn on_packet(&mut self, packet: Packet, port: PortId) -> Vec<(PortId, Packet)> {
            vec![(1 - port, packet)]
        }
    }

    #[test]
    fn packets_traverse_links() {
        let mut net = Network::new(100);
        let a = net.add_node(Box::new(Pipe));
        let sink = SinkHost::new();
        let sink_id = net.add_node(Box::new(sink.clone()));
        net.link(a, 1, sink_id, 0);
        net.inject(a, 0, pkt());
        let n = net.run();
        assert_eq!(n, 2);
        assert!(net.dropped_at_edge.is_empty());
        assert_eq!(sink.count(), 1);
    }

    /// Implements only the `Vec`-returning handler, like nodes written
    /// before `on_packet_into` existed; emits on two ports.
    struct Fork;
    impl Node for Fork {
        fn on_packet(&mut self, packet: Packet, _port: PortId) -> Vec<(PortId, Packet)> {
            vec![(1, packet.clone()), (2, packet)]
        }
    }

    #[test]
    fn either_handler_reaches_the_other() {
        // `run` calls `on_packet_into`; a `Vec`-returning node is reached
        // through the provided method and both emissions are linked up.
        let mut net = Network::new(100);
        let fork = net.add_node(Box::new(Fork));
        let (left, right) = (SinkHost::new(), SinkHost::new());
        let left_id = net.add_node(Box::new(left.clone()));
        let right_id = net.add_node(Box::new(right.clone()));
        net.link(fork, 1, left_id, 0);
        net.link(fork, 2, right_id, 0);
        net.inject(fork, 0, pkt());
        assert_eq!(net.run(), 3);
        assert_eq!((left.count(), right.count()), (1, 1));
        assert!(net.dropped_at_edge.is_empty());

        // And the other way round: a buffer-style node answers the
        // `Vec`-returning call.
        let mut sink = SinkHost::new();
        assert!(sink.on_packet(pkt(), 0).is_empty());
        assert_eq!(sink.count(), 1);
    }

    #[test]
    fn unconnected_ports_collect_drops() {
        let mut net = Network::new(100);
        let a = net.add_node(Box::new(Pipe));
        net.inject(a, 0, pkt());
        net.run();
        assert_eq!(net.dropped_at_edge.len(), 1);
    }

    #[test]
    fn loop_guard_terminates() {
        let mut net = Network::new(50);
        let a = net.add_node(Box::new(Pipe));
        let b = net.add_node(Box::new(Pipe));
        // a<->b on both port pairs: an infinite loop.
        net.link(a, 0, b, 1);
        net.link(a, 1, b, 0);
        net.inject(a, 0, pkt());
        let n = net.run();
        assert!(n <= 50);
        assert!(!net.dropped_at_edge.is_empty());
        assert_eq!(net.dropped(), 1, "the looping packet is counted");
        // The counter accumulates across runs.
        net.inject(a, 0, pkt());
        net.run();
        assert_eq!(net.dropped(), 2);
    }

    #[test]
    fn healthy_runs_count_zero_drops() {
        let mut net = Network::new(100);
        let a = net.add_node(Box::new(Pipe));
        let sink = SinkHost::new();
        let sink_id = net.add_node(Box::new(sink.clone()));
        net.link(a, 1, sink_id, 0);
        net.inject(a, 0, pkt());
        net.run();
        assert_eq!(net.dropped(), 0);
    }
}
