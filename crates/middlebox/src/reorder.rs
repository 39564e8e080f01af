//! Pairing data packets with their result packets (§6.1).
//!
//! The DPI service marks a data packet (ECN) and sends the result packet
//! right after it. On a middlebox, either may be momentarily ahead of the
//! other (e.g. after load-balanced paths), so the middlebox "buffers
//! packets until their corresponding results or data packet arrives".
//!
//! Pairing key: the flow 5-tuple. Within a flow both the marked data
//! packets and their results preserve order (the DPI instance emits them
//! back-to-back on the same path), so per-flow FIFO pairing is exact.

use dpi_packet::report::ResultPacket;
use dpi_packet::{FlowKey, Packet};
use std::collections::{HashMap, VecDeque};

/// What the buffer releases once pairing is decided.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PairedPacket {
    /// The data packet.
    pub packet: Packet,
    /// Its match results (`None` for unmarked packets — no matches).
    pub results: Option<ResultPacket>,
}

/// The pairing buffer.
#[derive(Debug, Default)]
pub struct ReorderBuffer {
    /// Marked data packets waiting for their result packet.
    waiting_data: HashMap<FlowKey, VecDeque<Packet>>,
    /// Result packets that arrived before their data packet.
    waiting_results: HashMap<FlowKey, VecDeque<ResultPacket>>,
    /// Total entries buffered, bounded by `capacity`.
    buffered: usize,
    capacity: usize,
}

impl ReorderBuffer {
    /// A buffer holding at most `capacity` unpaired entries; beyond that,
    /// the oldest flows are flushed unpaired (data released without
    /// results — fail-open, like the paper's prototype middlebox which
    /// only counts).
    pub fn new(capacity: usize) -> ReorderBuffer {
        ReorderBuffer {
            capacity: capacity.max(1),
            ..ReorderBuffer::default()
        }
    }

    /// Entries currently buffered.
    pub fn len(&self) -> usize {
        self.buffered
    }

    /// Whether nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.buffered == 0
    }

    /// Feeds a packet (data or result), appending everything that became
    /// deliverable to `out`.
    pub fn push(&mut self, packet: Packet, out: &mut Vec<PairedPacket>) {
        use dpi_packet::packet::PacketBody;
        let unpaired = |packet| PairedPacket {
            packet,
            results: None,
        };
        match packet.body {
            PacketBody::Result(result) => {
                let flow = result.flow;
                if let Some(q) = self.waiting_data.get_mut(&flow) {
                    if let Some(data) = q.pop_front() {
                        self.buffered -= 1;
                        if q.is_empty() {
                            self.waiting_data.remove(&flow);
                        }
                        out.push(PairedPacket {
                            packet: data,
                            results: Some(result),
                        });
                        return;
                    }
                }
                self.waiting_results
                    .entry(flow)
                    .or_default()
                    .push_back(result);
                self.buffered += 1;
                self.enforce_capacity(out);
            }
            PacketBody::Ipv4 { .. } => {
                if !packet.has_match_mark() {
                    // Unmarked: no results will ever come (§4.2: "a packet
                    // with no matches is always forwarded as is").
                    out.push(unpaired(packet));
                    return;
                }
                let flow = packet.flow_key().expect("ipv4 body has a flow");
                if let Some(q) = self.waiting_results.get_mut(&flow) {
                    if let Some(result) = q.pop_front() {
                        self.buffered -= 1;
                        if q.is_empty() {
                            self.waiting_results.remove(&flow);
                        }
                        out.push(PairedPacket {
                            packet,
                            results: Some(result),
                        });
                        return;
                    }
                }
                self.waiting_data.entry(flow).or_default().push_back(packet);
                self.buffered += 1;
                self.enforce_capacity(out);
            }
            PacketBody::Raw(_) => out.push(unpaired(packet)),
        }
    }

    /// Flushes oldest waiting data unpaired into `out` when over capacity.
    /// Orphaned results are simply dropped.
    fn enforce_capacity(&mut self, out: &mut Vec<PairedPacket>) {
        while self.buffered > self.capacity {
            // Prefer dropping orphan results; then release data unpaired.
            if let Some(flow) = self.waiting_results.keys().next().copied() {
                let q = self.waiting_results.get_mut(&flow).expect("key just read");
                q.pop_front();
                if q.is_empty() {
                    self.waiting_results.remove(&flow);
                }
                self.buffered -= 1;
                continue;
            }
            if let Some(flow) = self.waiting_data.keys().next().copied() {
                let q = self.waiting_data.get_mut(&flow).expect("key just read");
                if let Some(data) = q.pop_front() {
                    out.push(PairedPacket {
                        packet: data,
                        results: None,
                    });
                }
                if q.is_empty() {
                    self.waiting_data.remove(&flow);
                }
                self.buffered -= 1;
            } else {
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpi_packet::ipv4::IpProtocol;
    use dpi_packet::packet::flow;
    use dpi_packet::report::MiddleboxReport;
    use dpi_packet::MacAddr;

    /// `ReorderBuffer::push` into a fresh buffer.
    fn push(buf: &mut ReorderBuffer, packet: Packet) -> Vec<PairedPacket> {
        let mut out = Vec::new();
        buf.push(packet, &mut out);
        out
    }

    fn fk(port: u16) -> FlowKey {
        flow([1, 1, 1, 1], port, [2, 2, 2, 2], 80, IpProtocol::Tcp)
    }

    fn data(port: u16, marked: bool) -> Packet {
        let mut p = Packet::tcp(
            MacAddr::local(1),
            MacAddr::local(2),
            fk(port),
            0,
            b"d".to_vec(),
        );
        if marked {
            p.mark_matches();
        }
        p
    }

    fn result(port: u16, id: u32) -> Packet {
        Packet::result(
            MacAddr::local(3),
            MacAddr::local(2),
            ResultPacket {
                packet_id: id,
                generation: 0,
                flow: fk(port),
                flow_offset: 0,
                reports: vec![MiddleboxReport::default()],
            },
        )
    }

    #[test]
    fn unmarked_data_passes_straight_through() {
        let mut buf = ReorderBuffer::new(16);
        let out = push(&mut buf, data(1, false));
        assert_eq!(out.len(), 1);
        assert!(out[0].results.is_none());
        assert!(buf.is_empty());
    }

    #[test]
    fn data_then_result_pairs() {
        let mut buf = ReorderBuffer::new(16);
        assert!(push(&mut buf, data(1, true)).is_empty());
        assert_eq!(buf.len(), 1);
        let out = push(&mut buf, result(1, 42));
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].results.as_ref().unwrap().packet_id, 42);
        assert!(buf.is_empty());
    }

    #[test]
    fn result_then_data_pairs() {
        let mut buf = ReorderBuffer::new(16);
        assert!(push(&mut buf, result(1, 7)).is_empty());
        let out = push(&mut buf, data(1, true));
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].results.as_ref().unwrap().packet_id, 7);
    }

    #[test]
    fn pairing_is_per_flow_fifo() {
        let mut buf = ReorderBuffer::new(16);
        push(&mut buf, data(1, true));
        push(&mut buf, data(1, true));
        push(&mut buf, data(2, true));
        // Flow 2's result pairs with flow 2's data, not flow 1's.
        let out = push(&mut buf, result(2, 100));
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].packet.flow_key().unwrap(), fk(2));
        // Flow 1 results pair in order.
        let a = push(&mut buf, result(1, 1));
        let b = push(&mut buf, result(1, 2));
        assert_eq!(a[0].results.as_ref().unwrap().packet_id, 1);
        assert_eq!(b[0].results.as_ref().unwrap().packet_id, 2);
        assert!(buf.is_empty());
    }

    #[test]
    fn capacity_flushes_fail_open() {
        let mut buf = ReorderBuffer::new(2);
        push(&mut buf, data(1, true));
        push(&mut buf, data(2, true));
        let out = push(&mut buf, data(3, true));
        // One of the waiting packets is released unpaired.
        assert_eq!(out.len(), 1);
        assert!(out[0].results.is_none());
        assert_eq!(buf.len(), 2);
    }
}
