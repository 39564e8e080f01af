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
    waiting_data: Waiting<Packet>,
    /// Result packets that arrived before their data packet.
    waiting_results: Waiting<ResultPacket>,
    /// Total entries buffered, bounded by `capacity`.
    buffered: usize,
    capacity: usize,
}

impl ReorderBuffer {
    /// A buffer holding at most `capacity` unpaired entries; beyond that,
    /// the oldest entries are flushed unpaired (data released without
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
        let (packet, results) = match packet.body {
            PacketBody::Result(result) => {
                let flow = result.flow;
                match self.waiting_data.pop(&flow) {
                    Some(data) => (data, Some(result)),
                    None => {
                        self.waiting_results.push(flow, result, self.buffered);
                        return self.enforce_capacity(out);
                    }
                }
            }
            PacketBody::Ipv4 { .. } if packet.has_match_mark() => {
                let flow = packet.flow_key().expect("ipv4 body has a flow");
                match self.waiting_results.pop(&flow) {
                    Some(result) => (packet, Some(result)),
                    None => {
                        self.waiting_data.push(flow, packet, self.buffered);
                        return self.enforce_capacity(out);
                    }
                }
            }
            // Unmarked: no results will ever come (§4.2: "a packet with
            // no matches is always forwarded as is").
            _ => (packet, None),
        };
        self.buffered -= usize::from(results.is_some());
        out.push(PairedPacket { packet, results });
    }

    /// Counts the entry just buffered. A full buffer instead drops its
    /// oldest orphan result or, holding none, releases its oldest
    /// waiting data unpaired into `out`.
    fn enforce_capacity(&mut self, out: &mut Vec<PairedPacket>) {
        if self.buffered < self.capacity {
            self.buffered += 1;
        } else if self.waiting_results.pop_oldest().is_none() {
            let packet = self.waiting_data.pop_oldest().expect("holds only data");
            out.push(PairedPacket {
                packet,
                results: None,
            });
        }
    }
}

/// One side of the buffer: per-flow FIFO queues of `(arrival, entry)`, and
/// a log of `(flow, arrival)` in arrival order for overflow to read.
#[derive(Debug)]
struct Waiting<T> {
    queues: HashMap<FlowKey, VecDeque<(u64, T)>>,
    log: VecDeque<(FlowKey, u64)>,
    /// The arrival number of the last entry pushed.
    clock: u64,
}

impl<T> Default for Waiting<T> {
    fn default() -> Waiting<T> {
        let (queues, log, clock) = Default::default();
        Waiting { queues, log, clock }
    }
}

impl<T> Waiting<T> {
    /// Queues `item` beside the `buffered` entries already held. Once the
    /// log outgrows twice the entries held, most of it is stale and is
    /// compacted away: it stays O(`buffered`) at O(1) amortized per push.
    fn push(&mut self, flow: FlowKey, item: T, buffered: usize) {
        self.clock += 1;
        let queue = self.queues.entry(flow).or_default();
        queue.push_back((self.clock, item));
        self.log.push_back((flow, self.clock));
        if self.log.len() > 2 * (buffered + 1) {
            let mut log = std::mem::take(&mut self.log);
            log.retain(|&(flow, arrival)| self.live(&flow, arrival));
            self.log = log;
        }
    }

    /// Takes `flow`'s oldest entry.
    fn pop(&mut self, flow: &FlowKey) -> Option<T> {
        let queue = self.queues.get_mut(flow)?;
        let (arrival, item) = queue.pop_front()?;
        if queue.is_empty() {
            self.queues.remove(flow);
        }
        // A result right behind its data leaves no stale record.
        if self.log.back() == Some(&(*flow, arrival)) {
            self.log.pop_back();
        }
        Some(item)
    }

    /// Takes the oldest entry of any flow.
    fn pop_oldest(&mut self) -> Option<T> {
        while let Some((flow, arrival)) = self.log.pop_front() {
            if self.live(&flow, arrival) {
                return self.pop(&flow);
            }
        }
        None
    }

    /// Whether a log record is queued: entries leave only a queue's front.
    fn live(&self, flow: &FlowKey, arrival: u64) -> bool {
        let front = self.queues.get(flow).and_then(VecDeque::front);
        front.is_some_and(|&(first, _)| first <= arrival)
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
    fn capacity_releases_the_oldest_waiting_packet() {
        // Each fresh map is seeded anew, so any order that depends on
        // hashing picks flow 1 in only about a third of the buffers.
        for _ in 0..32 {
            let mut buf = ReorderBuffer::new(2);
            push(&mut buf, data(1, true));
            push(&mut buf, data(2, true));
            let out = push(&mut buf, data(3, true));
            assert_eq!(out.len(), 1);
            assert_eq!(out[0].packet.flow_key(), Some(fk(1)));

            // Pairing behind a newer arrival leaves a stale log record:
            // overflow skips it, and compaction keeps live ones.
            let mut buf = ReorderBuffer::new(2);
            push(&mut buf, data(7, true));
            push(&mut buf, data(1, true));
            push(&mut buf, result(7, 0));
            push(&mut buf, data(7, true));
            let out = push(&mut buf, data(3, true));
            assert_eq!(out[0].packet.flow_key(), Some(fk(1)));
            let mut buf = ReorderBuffer::new(3);
            push(&mut buf, data(1, true));
            for id in 0..8 {
                push(&mut buf, data(8, true));
                push(&mut buf, data(9, true));
                push(&mut buf, result(8, id));
                push(&mut buf, result(9, id));
            }
            for port in 2..4 {
                push(&mut buf, data(port, true));
            }
            let out = push(&mut buf, data(4, true));
            assert_eq!(out[0].packet.flow_key(), Some(fk(1)));

            // Orphan results go oldest first too: flow 4's is dropped,
            // and flows 5 and 6 still pair.
            let mut buf = ReorderBuffer::new(2);
            for port in 4..7 {
                push(&mut buf, result(port, u32::from(port)));
            }
            for port in 5..7 {
                let out = push(&mut buf, data(port, true));
                assert_eq!(out.len(), 1, "flow {port}'s result was dropped");
                assert_eq!(out[0].results.as_ref().unwrap().packet_id, u32::from(port));
            }
        }
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
