//! Fleet-aware DPI node: failure injection and retried result delivery.
//!
//! [`FleetDpiNode`] wraps a [`DpiServiceNode`] with the two robustness
//! behaviours a multi-instance deployment needs:
//!
//! * **Chaos-driven failure**: when a [`ChaosEngine`] is attached, every
//!   data packet advances the instance's deterministic packet clock; once
//!   the fault plan's kill ordinal is reached, the node blackholes all
//!   traffic (data and pass-through results) and stops being counted as
//!   alive — the simulation analogue of a crashed VM. The DPI controller
//!   only learns of the death through missed heartbeats, exactly as in a
//!   real deployment.
//! * **Retried result delivery**: dedicated result packets (§4.2 option 3)
//!   are the only packets whose loss silently changes middlebox behaviour,
//!   so their delivery is retried under a bounded
//!   exponential-backoff-with-jitter [`RetryPolicy`]. Data packets are
//!   never retried — losing one is visible to the endpoints and the
//!   network is **fail-open** for data. A result packet that exhausts its
//!   retries is *dropped*, never fabricated: middleboxes downstream see a
//!   missing result (and fail open via the reorder buffer's timeout), but
//!   never a wrong one — **fail-closed** for verdicts.

use crate::nodes::{DpiServiceNode, ResultsDelivery};
use dpi_core::chaos::{ChaosEngine, RetryPolicy};
use dpi_core::{DpiInstance, InstanceLoadGauge};
use dpi_packet::packet::PacketBody;
use dpi_packet::{MacAddr, Packet};
use dpi_sdn::{Node, PortId};
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashSet;
use std::sync::Arc;

/// Counters for one fleet DPI node (shared handle, like
/// [`crate::MiddleboxStats`]).
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

/// A DPI service instance node that can die on cue and retries result
/// delivery. With no [`ChaosEngine`] attached it behaves exactly like the
/// inner [`DpiServiceNode`].
pub struct FleetDpiNode {
    inner: DpiServiceNode,
    /// Position in the fleet — the index the fault plan's
    /// `kill_instance_at_packet` refers to.
    instance_index: usize,
    chaos: Option<Arc<ChaosEngine>>,
    retry: RetryPolicy,
    /// Per-node deterministic RNG for retry backoff jitter, derived from
    /// the fault plan's seed and the instance index.
    rng: StdRng,
    stats: Arc<Mutex<FleetDpiStats>>,
    /// Optional structured-event tracer; delivery anomalies (retried,
    /// lost, duplicated results) are recorded against
    /// [`dpi_core::trace::TraceSource::Instance`].
    tracer: Option<Arc<dpi_core::trace::Tracer>>,
    /// Optional instance-level overload gauge: the data plane increments
    /// it per packet and obeys its overloaded flag; the control plane
    /// closes its windows each heartbeat round.
    gauge: Option<Arc<InstanceLoadGauge>>,
    /// Chains whose middleboxes demand verdicts — their packets are
    /// never shed under overload, only CE-marked.
    fail_closed_chains: HashSet<u16>,
}

impl FleetDpiNode {
    /// Wraps an instance. Returns the node, the instance handle and the
    /// stats handle.
    pub fn new(
        dpi: DpiInstance,
        delivery: ResultsDelivery,
        mac: MacAddr,
        instance_index: usize,
        chaos: Option<Arc<ChaosEngine>>,
        retry: RetryPolicy,
    ) -> (
        FleetDpiNode,
        Arc<Mutex<DpiInstance>>,
        Arc<Mutex<FleetDpiStats>>,
    ) {
        let (inner, handle) = DpiServiceNode::new(dpi, delivery, mac);
        let seed = chaos
            .as_ref()
            .map(|c| c.plan().seed)
            .unwrap_or(0)
            .wrapping_add(0x9e37_79b9_7f4a_7c15u64.wrapping_mul(instance_index as u64 + 1));
        let stats = Arc::new(Mutex::new(FleetDpiStats::default()));
        (
            FleetDpiNode {
                inner,
                instance_index,
                chaos,
                retry,
                rng: StdRng::seed_from_u64(seed),
                stats: Arc::clone(&stats),
                tracer: None,
                gauge: None,
                fail_closed_chains: HashSet::new(),
            },
            handle,
            stats,
        )
    }

    /// Attaches a structured-event tracer: retried, lost, and duplicated
    /// result deliveries become trace events attributed to this
    /// instance's index.
    pub fn attach_tracer(&mut self, tracer: Arc<dpi_core::trace::Tracer>) {
        self.tracer = Some(tracer);
    }

    fn trace(&self, kind: dpi_core::trace::TraceKind) {
        if let Some(t) = &self.tracer {
            t.record(
                dpi_core::trace::TraceSource::Instance(self.instance_index as u32),
                kind,
            );
        }
    }

    /// Attaches an overload gauge plus the set of fail-closed chains.
    /// While the gauge reports overloaded, data packets are CE-marked
    /// and — for chains *not* in `fail_closed_chains` — forwarded
    /// unscanned (shed). Fail-closed and untagged packets are always
    /// scanned; result packets are never shed.
    pub fn attach_load_gauge(
        &mut self,
        gauge: Arc<InstanceLoadGauge>,
        fail_closed_chains: HashSet<u16>,
    ) {
        self.gauge = Some(gauge);
        self.fail_closed_chains = fail_closed_chains;
    }

    /// Whether the chaos plan still considers this instance alive. Always
    /// `true` without a chaos engine.
    pub fn alive(&self) -> bool {
        self.chaos
            .as_ref()
            .map(|c| c.instance_alive(self.instance_index))
            .unwrap_or(true)
    }

    /// Scan errors of the wrapped instance node.
    pub fn error_count(&self) -> u64 {
        self.inner.error_count()
    }
}

impl Node for FleetDpiNode {
    fn on_packet_into(
        &mut self,
        mut packet: Packet,
        port: PortId,
        out: &mut Vec<(PortId, Packet)>,
    ) {
        if let Some(chaos) = &self.chaos {
            // Data packets advance the deterministic per-instance packet
            // clock; pass-through results only consult it — so a fault
            // plan's "kill at packet K" counts scanned packets, which is
            // what a trace replay can predict.
            let alive = if matches!(packet.body, PacketBody::Ipv4 { .. }) {
                chaos.on_instance_packet(self.instance_index)
            } else {
                chaos.instance_alive(self.instance_index)
            };
            if !alive {
                self.stats.lock().swallowed += 1;
                return;
            }
        }

        // Instance-level overload control: CE-mark data while overloaded,
        // shed the scan for fail-open chains. Result packets are never
        // shed — a dropped verdict is a correctness event, not a
        // congestion response.
        let mut ce_pending = false;
        if let Some(gauge) = &self.gauge {
            if matches!(packet.body, PacketBody::Ipv4 { .. }) {
                gauge.note_packet();
                if gauge.is_overloaded() {
                    ce_pending = true;
                    let fail_open = packet
                        .chain_tag()
                        .is_some_and(|tag| !self.fail_closed_chains.contains(&tag));
                    if fail_open {
                        packet.mark_congestion();
                        gauge.note_ce_mark();
                        self.trace(dpi_core::trace::TraceKind::OverloadCeMarked { packets: 1 });
                        let bytes = packet.payload().map(<[u8]>::len).unwrap_or(0);
                        gauge.note_shed(bytes);
                        self.trace(dpi_core::trace::TraceKind::OverloadShed {
                            packets: 1,
                            bytes: bytes as u64,
                        });
                        out.push((port, packet));
                        return;
                    }
                }
            }
        }

        // What the inner node emits for this packet is `out[first..]`.
        let first = out.len();
        self.inner.on_packet_into(packet, port, out);
        if ce_pending {
            // CE is applied *after* the scan: the 2-bit ECN field cannot
            // hold both marks and congestion is the more urgent signal —
            // the match still travels in the result packet (see DESIGN
            // §11).
            if let Some(gauge) = &self.gauge {
                for (_, pkt) in out[first..].iter_mut() {
                    if matches!(pkt.body, PacketBody::Ipv4 { .. }) {
                        pkt.mark_congestion();
                        gauge.note_ce_mark();
                        self.trace(dpi_core::trace::TraceKind::OverloadCeMarked { packets: 1 });
                    }
                }
            }
        }
        let Some(chaos) = self.chaos.clone() else {
            return;
        };

        // Result packets get the retried (and possibly faulty) delivery
        // path; data packets pass through untouched (fail-open).
        for (p, pkt) in out.split_off(first) {
            if !matches!(pkt.body, PacketBody::Result(_)) {
                out.push((p, pkt));
                continue;
            }
            let ctx = format!("instance {}", self.instance_index);
            let outcome = self
                .retry
                .run(&mut self.rng, |_attempt| !chaos.drop_result(&ctx));
            let mut stats = self.stats.lock();
            stats.retries += u64::from(outcome.attempts - 1);
            if outcome.delivered {
                if outcome.attempts > 1 {
                    chaos.note(format!(
                        "{ctx}: result delivered on attempt {} (backoffs {:?}µs)",
                        outcome.attempts, outcome.backoffs_us
                    ));
                    self.trace(dpi_core::trace::TraceKind::ResultRetried {
                        attempts: outcome.attempts,
                        backoff_us: outcome.backoffs_us.iter().sum(),
                    });
                }
                stats.results_emitted += 1;
                if chaos.duplicate_result(&ctx) {
                    stats.results_duplicated += 1;
                    self.trace(dpi_core::trace::TraceKind::ResultDuplicated);
                    out.push((p, pkt.clone()));
                }
                out.push((p, pkt));
            } else {
                // Fail-closed for verdicts: the result is gone, not
                // guessed — downstream sees a missing report, never a
                // fabricated one.
                stats.results_lost += 1;
                chaos.note(format!(
                    "{ctx}: result lost after {} attempts",
                    outcome.attempts
                ));
                self.trace(dpi_core::trace::TraceKind::ResultLost {
                    attempts: outcome.attempts,
                });
            }
        }
    }

    fn label(&self) -> String {
        format!("dpi-service[{}]", self.instance_index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpi_ac::MiddleboxId;
    use dpi_core::chaos::FaultPlan;
    use dpi_core::{InstanceConfig, MiddleboxProfile, RuleSpec};
    use dpi_packet::ipv4::IpProtocol;
    use dpi_packet::packet::flow;

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
        let (mut node, _h, stats) = FleetDpiNode::new(
            dpi(),
            ResultsDelivery::DedicatedPacket,
            MacAddr::local(9),
            0,
            None,
            RetryPolicy::default(),
        );
        let out = node.on_packet(tagged(b"a needle99 b"), 0);
        assert_eq!(out.len(), 2, "data + result");
        assert!(node.alive());
        assert_eq!(*stats.lock(), FleetDpiStats::default());
    }

    #[test]
    fn killed_instance_blackholes_traffic() {
        let chaos = FaultPlan::new(1).kill_instance_at_packet(0, 2).start();
        let (mut node, _h, stats) = FleetDpiNode::new(
            dpi(),
            ResultsDelivery::DedicatedPacket,
            MacAddr::local(9),
            0,
            Some(chaos.clone()),
            RetryPolicy::default(),
        );
        assert_eq!(node.on_packet(tagged(b"one"), 0).len(), 1);
        assert_eq!(node.on_packet(tagged(b"two"), 0).len(), 1);
        assert!(node.alive());
        // Third data packet hits the kill ordinal.
        assert!(node.on_packet(tagged(b"three"), 0).is_empty());
        assert!(!node.alive());
        assert!(node.on_packet(tagged(b"four"), 0).is_empty());
        assert_eq!(stats.lock().swallowed, 2);
        assert!(chaos
            .fault_log()
            .iter()
            .any(|l| l.contains("instance 0 died at packet 2")));
    }

    #[test]
    fn result_loss_is_retried_and_bounded() {
        // Drop every attempt: the result must be lost after exactly
        // max_attempts tries, and the data packet still goes through.
        let chaos = FaultPlan::new(3).drop_result_packets(1.0).start();
        let (mut node, _h, stats) = FleetDpiNode::new(
            dpi(),
            ResultsDelivery::DedicatedPacket,
            MacAddr::local(9),
            0,
            Some(chaos.clone()),
            RetryPolicy {
                max_attempts: 3,
                ..RetryPolicy::default()
            },
        );
        let out = node.on_packet(tagged(b"x needle99 y"), 0);
        assert_eq!(out.len(), 1, "fail-open: data passes, result lost");
        assert!(matches!(out[0].1.body, PacketBody::Ipv4 { .. }));
        let s = *stats.lock();
        assert_eq!(s.results_lost, 1);
        assert_eq!(s.retries, 2);
        assert!(chaos
            .fault_log()
            .iter()
            .any(|l| l.contains("result lost after 3 attempts")));
    }

    #[test]
    fn duplicated_results_are_emitted_twice() {
        let chaos = FaultPlan::new(4).duplicate_result_packets(1.0).start();
        let (mut node, _h, stats) = FleetDpiNode::new(
            dpi(),
            ResultsDelivery::DedicatedPacket,
            MacAddr::local(9),
            0,
            Some(chaos),
            RetryPolicy::default(),
        );
        let out = node.on_packet(tagged(b"x needle99 y"), 0);
        let results = out
            .iter()
            .filter(|(_, p)| matches!(p.body, PacketBody::Result(_)))
            .count();
        assert_eq!(results, 2);
        assert_eq!(stats.lock().results_duplicated, 1);
    }

    #[test]
    fn overloaded_gauge_sheds_fail_open_data_but_not_verdicts() {
        let (mut node, _h, _stats) = FleetDpiNode::new(
            dpi(),
            ResultsDelivery::DedicatedPacket,
            MacAddr::local(9),
            0,
            None,
            RetryPolicy::default(),
        );
        let gauge = Arc::new(InstanceLoadGauge::default());
        // Chain 5 is fail-open (not in the fail-closed set).
        node.attach_load_gauge(Arc::clone(&gauge), HashSet::new());

        // Not overloaded: scans normally, produces data + result.
        let out = node.on_packet(tagged(b"a needle99 b"), 0);
        assert_eq!(out.len(), 2);
        assert!(!out[0].1.has_ce_mark());

        // Overloaded: the scan is shed — only the CE-marked data packet
        // comes out, no result even though the payload matches.
        gauge.set_overloaded(true);
        let out = node.on_packet(tagged(b"a needle99 b"), 0);
        assert_eq!(out.len(), 1, "shed: data only, no result");
        assert!(out[0].1.has_ce_mark());
        assert_eq!(gauge.shed_packets(), 1);
        assert_eq!(gauge.ce_marked(), 1);
        assert_eq!(gauge.shed_bytes(), b"a needle99 b".len() as u64);
    }

    #[test]
    fn fail_closed_chain_is_scanned_through_overload() {
        let (mut node, _h, _stats) = FleetDpiNode::new(
            dpi(),
            ResultsDelivery::DedicatedPacket,
            MacAddr::local(9),
            0,
            None,
            RetryPolicy::default(),
        );
        let gauge = Arc::new(InstanceLoadGauge::default());
        node.attach_load_gauge(Arc::clone(&gauge), HashSet::from([5u16]));
        gauge.set_overloaded(true);
        let out = node.on_packet(tagged(b"a needle99 b"), 0);
        // Verdict traffic survives overload: data + result, CE mark on
        // the data packet as the congestion signal.
        assert_eq!(out.len(), 2, "fail-closed chain still scanned");
        assert!(out[0].1.has_ce_mark());
        assert_eq!(gauge.shed_packets(), 0);
        assert_eq!(gauge.ce_marked(), 1);
        // Result packets pass through untouched even while overloaded.
        let result_pkt = out[1].1.clone();
        let out = node.on_packet(result_pkt, 0);
        assert_eq!(out.len(), 1);
        assert!(matches!(out[0].1.body, PacketBody::Result(_)));
    }

    #[test]
    fn retry_recovers_from_transient_loss() {
        // p = 0.5: across many packets some deliveries need retries but
        // (with 6 attempts) essentially all succeed; retries must be
        // recorded and deterministic per seed.
        let run = |seed| {
            let chaos = FaultPlan::new(seed).drop_result_packets(0.5).start();
            let (mut node, _h, stats) = FleetDpiNode::new(
                dpi(),
                ResultsDelivery::DedicatedPacket,
                MacAddr::local(9),
                0,
                Some(chaos),
                RetryPolicy {
                    max_attempts: 6,
                    ..RetryPolicy::default()
                },
            );
            for _ in 0..32 {
                node.on_packet(tagged(b"x needle99 y"), 0);
            }
            let snapshot = *stats.lock();
            snapshot
        };
        let s = run(11);
        assert!(s.retries > 0, "p=0.5 must force some retries");
        assert!(s.results_emitted >= 30, "retries recover most losses");
        assert_eq!(s, run(11), "same seed, same outcome");
    }
}
